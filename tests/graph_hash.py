"""Weisfeiler-Lehman hash of small decorated graphs, the canonical form the
tests compare adjacency graphs by."""

import networkx as nx


def graph_canonical_hash(nx_graph, node_attr=None, edge_attr=None, iterations=4) -> str:
    """Weisfeiler-Lehman hash (networkx) for small decorated graphs."""
    return nx.weisfeiler_lehman_graph_hash(
        nx_graph, node_attr=node_attr, edge_attr=edge_attr, iterations=iterations
    )
