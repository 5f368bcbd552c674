"""The mass-transport battery as one call per value on networkx graphs, the
reference the tests hold `tilelab.unimodular.mtp_battery` to, and the
networkx fixtures the plain ones of `tilelab.unimodular` are held to.

Each transport function is a plain ``f(g, x, y)`` that rebuilds whatever it
reads of ``g`` (color ranks, rooted 1-balls) on every call, and `mtp_check`
calls it once per term of each side of the identity.  Rooted 1-ball
isomorphism is networkx's VF2 on the induced balls.
"""

from fractions import Fraction

import networkx as nx

import tilelab.unimodular as um


def _ball(g, root, r):
    dist = nx.single_source_shortest_path_length(g, root, cutoff=r)
    ball = g.subgraph(dist).copy()
    for v, d in dist.items():
        ball.nodes[v]["_dist"] = d
    return ball


def _rooted_ball_isomorphic(g1, o1, g2, o2, r):
    b1, b2 = _ball(g1, o1, r), _ball(g2, o2, r)
    nm = nx.algorithms.isomorphism.categorical_node_match(
        ["_dist", "mark"], [None, None])
    em = nx.algorithms.isomorphism.categorical_edge_match("color", None)
    return nx.is_isomorphic(b1, b2, node_match=nm, edge_match=em)


def _f_unit_neighbors(g, x, y):
    return Fraction(int(g.has_edge(x, y)))


def _f_inverse_degree(g, x, y):
    if g.has_edge(x, y):
        return Fraction(1, g.degree(x))
    return Fraction(0)


def _f_unit_self(g, x, y):
    return Fraction(int(x == y))


def _f_neighbor_degree(g, x, y):
    if g.has_edge(x, y):
        return Fraction(g.degree(y))
    return Fraction(0)


def _f_mark_match(g, x, y):
    if g.has_edge(x, y) and g.nodes[x].get("mark") == g.nodes[y].get("mark"):
        return Fraction(1)
    return Fraction(0)


def _f_color_weight(g, x, y):
    if g.has_edge(x, y):
        color = g.edges[x, y].get("color")
        colors = sorted({repr(g.edges[e].get("color")) for e in g.edges}) or [repr(None)]
        return Fraction(1 + colors.index(repr(color)))
    return Fraction(0)


def _f_ball_iso(g, x, y):
    if g.has_edge(x, y) and _rooted_ball_isomorphic(g, x, g, y, 1):
        return Fraction(1)
    return Fraction(0)


def _f_distance_two(g, x, y):
    if x == y or g.has_edge(x, y):
        return Fraction(0)
    for z in g.neighbors(x):
        if g.has_edge(z, y):
            return Fraction(1)
    return Fraction(0)


F_BATTERY = {
    "unit_to_neighbors": _f_unit_neighbors,
    "inverse_degree_on_edges": _f_inverse_degree,
    "unit_to_self": _f_unit_self,
    "neighbor_degree": _f_neighbor_degree,
    "mark_match_on_edges": _f_mark_match,
    "edge_color_rank": _f_color_weight,
    "one_ball_isomorphic_neighbors": _f_ball_iso,
    "distance_exactly_two": _f_distance_two,
}


def mtp_check(samples, f):
    lhs = Fraction(0)
    rhs = Fraction(0)
    for s in samples:
        for y in s.graph:
            lhs += s.weight * f(s.graph, s.root, y)
            rhs += s.weight * f(s.graph, y, s.root)
    return lhs, rhs, lhs == rhs


def mtp_battery(samples):
    out = {}
    for name, f in F_BATTERY.items():
        lhs, rhs, ok = mtp_check(samples, f)
        out[name] = {"lhs": str(lhs), "rhs": str(rhs), "equal": ok}
    return out


# -- networkx fixtures -------------------------------------------------------------


def fixtures():
    """The bundled fixtures as networkx generators make them, marked and
    colored in ``repr`` order."""
    graphs = {
        "cycle6": nx.cycle_graph(6),
        "complete4": nx.complete_graph(4),
        "cube": nx.hypercube_graph(3),
        "bipartite33": nx.complete_bipartite_graph(3, 3),
        "petersen": nx.petersen_graph(),
    }
    for g in graphs.values():
        for i, v in enumerate(sorted(g, key=repr)):
            g.nodes[v]["mark"] = i % 2
        for j, e in enumerate(sorted(g.edges, key=repr)):
            g.edges[e]["color"] = "ab"[j % 2]
    return graphs


def omega_fixture(graph):
    omega = nx.Graph()
    omega.add_nodes_from(graph.nodes(data=True))
    for j, e in enumerate(sorted(graph.edges, key=repr)):
        if j % 2 == 0:
            omega.add_edge(*e, **graph.edges[e])
    return omega


def bigraph_secondary(graph):
    """The decoration graph of every bigraph `bigraph_fixture` makes."""
    center = sorted(graph, key=repr)[0]
    return graph.subgraph({center} | set(graph.neighbors(center))).copy()


def to_networkx(g):
    """A graph read through ``adj`` and ``nodes`` as a networkx graph."""
    h = nx.Graph()
    h.add_nodes_from((v, g.nodes[v]) for v in g)
    h.add_edges_from((u, v, attr) for u in g for v, attr in g.adj[u].items())
    return h


def networkx_samples(samples):
    return [um.RootedSample(to_networkx(s.graph), s.root, s.weight)
            for s in samples]
