"""Canonical forms, with networkx isomorphism as the independent oracle."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from tilelab.canon import (ahu_code, forest_hash, has_cycle,
                           rooted_forest_from_edges)
from tilelab.trees import synthetic_tree
from graph_hash import graph_canonical_hash


def relabeled(children, root, rng):
    verts = [root] + [v for cs in children.values() for v in cs]
    names = list(range(1000, 1000 + len(verts)))
    rng.shuffle(names)
    m = dict(zip(verts, names))
    out = {m[v]: [m[c] for c in cs] for v, cs in children.items()}
    for v in verts:
        out.setdefault(m[v], [])
    return out, m[root]


@given(st.integers(0, 50), st.integers(2, 300))
def test_ahu_invariant_under_relabeling(seed, n):
    t = synthetic_tree(f"random({n},4)", seed=seed)
    rng = random.Random(seed + 1)
    ch2, r2 = relabeled(t.children, t.root, rng)
    assert ahu_code(t.children, t.root) == ahu_code(ch2, r2)


def test_ahu_separates_path_from_star():
    path = synthetic_tree("path(5)")
    star = synthetic_tree("canopy(1,4)")
    assert ahu_code(path.children, path.root) != ahu_code(star.children, star.root)


def test_ahu_separates_rooting():
    # same unrooted path, different root -> different rooted code
    ch_mid = {1: [0, 2], 0: [], 2: []}
    ch_end = {0: [1], 1: [2], 2: []}
    assert ahu_code(ch_mid, 1) != ahu_code(ch_end, 0)


def test_forest_hash_order_independent():
    a = synthetic_tree("path(4)")
    b = synthetic_tree("canopy(2,2)")
    ch = dict(a.children)
    shift = {v: ("b", v) for v in b.vertices()}
    for v, cs in b.children.items():
        ch[shift[v]] = [shift[c] for c in cs]
    h1 = forest_hash(ch, [a.root, shift[b.root]])
    h2 = forest_hash(ch, [shift[b.root], a.root])
    assert h1 == h2


def test_rooted_forest_from_edges_roundtrip():
    t = synthetic_tree("random(40,4)", seed=3)
    edges = {(u, v) for u, v in t.edges()}
    ch = rooted_forest_from_edges(t.vertices(), edges, [t.root])
    assert forest_hash(ch, [t.root]) == forest_hash(t.children, [t.root])


@settings(max_examples=40)
@given(st.integers(0, 1000))
def test_graph_hash_vs_networkx_oracle(seed):
    rng = random.Random(seed)
    n = rng.randrange(4, 10)
    g = nx.gnp_random_graph(n, 0.4, seed=seed)
    relab = nx.relabel_nodes(g, {v: (v * 7 + 3) % 101 for v in g})
    assert graph_canonical_hash(g) == graph_canonical_hash(relab)
    h = nx.gnp_random_graph(n, 0.4, seed=seed + 5000)
    if graph_canonical_hash(g) == graph_canonical_hash(h):
        # hash collisions must only happen for isomorphic graphs
        assert nx.is_isomorphic(g, h)


def test_graph_hash_uses_attributes():
    g = nx.path_graph(3)
    h = nx.path_graph(3)
    for v in g:
        g.nodes[v]["mark"] = 0
        h.nodes[v]["mark"] = v % 2
    assert (graph_canonical_hash(g, node_attr="mark")
            != graph_canonical_hash(h, node_attr="mark"))


@pytest.mark.parametrize("edges,cyclic", [
    ([], False),
    ([(0, 1), (1, 2), (1, 3), ("a", "b")], False),
    ([(0, 1), (1, 2), (2, 0)], True),
    ([("x", "y"), (0, 1), (1, 2), (2, 3), (3, 1)], True),
])
def test_has_cycle(edges, cyclic):
    assert has_cycle(edges) is cyclic
    assert has_cycle(reversed(edges)) is cyclic
