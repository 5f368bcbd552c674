"""BS(1,2) arithmetic, windows, and the fiber decomposition."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bs12_reference import (GEN_A, GEN_B, IDENTITY, ReferenceFibers,
                            reference_ball, reference_spanning_tree)
from tilelab.boxes import ResourceLimit
from tilelab.bs12 import _moves, bs12_ball, fiber_spanning_tree, fibers
from tilelab.dyadic import pair
from tilelab.labels import LabelSource

A, B = GEN_A, GEN_B

words = st.lists(st.sampled_from("aAbB"), min_size=0, max_size=12)


def element(word):
    g = IDENTITY
    table = {"a": A, "A": A.inverse(), "b": B, "B": B.inverse()}
    for ch in word:
        g = g * table[ch]
    return g


def test_defining_relation():
    # a^-1 b a = b^2
    assert element("Aba") == element("bb")
    assert element("ab") != element("ba")


@given(words, words, words)
def test_associativity(u, v, w):
    x, y, z = element(u), element(v), element(w)
    assert (x * y) * z == x * (y * z)


@given(words)
def test_inverses(u):
    g = element(u)
    assert g * g.inverse() == IDENTITY
    assert g.inverse() * g == IDENTITY


@given(words)
def test_int_steps_walk_to_the_reference_key(u):
    # the ball's moves on the 2**-12 lattice reach the element of the word
    radius = 12
    level, q = 0, 0
    for ch in u:
        level, q = _moves(level, q, radius)["aAbB".index(ch)]
    assert (level, *pair(q, radius)) == element(u).key()


@pytest.mark.parametrize("radius", range(9))
def test_ball_matches_reference(radius):
    w, ref = bs12_ball(radius), reference_ball(radius)
    assert w.vertices == [v.key() for v in ref.vertices]
    assert w.dist == {v.key(): d for v, d in ref.dist.items()}
    assert w.edges == [(s.key(), t.key(), c) for s, t, c in ref.edges]
    assert w.to_json() == ref.to_json()


@pytest.mark.parametrize("radius", range(9))
def test_fibers_match_reference(radius):
    fib = fibers(bs12_ball(radius))
    ref = ReferenceFibers(reference_ball(radius))
    assert fib.fiber_of == {v.key(): f for v, f in ref.fiber_of.items()}
    assert fib.position == {v.key(): m for v, m in ref.position.items()}
    assert fib.segments == {sid: [v.key() for v in grp]
                            for sid, grp in ref.segments.items()}
    assert fib.fiber_edges == ref.fiber_edges
    assert fib.interior_fibers == ref.interior_fibers


def test_ball_sizes():
    # |B(r)| for the standard generators, frozen from independent BFS
    assert [len(bs12_ball(r).vertices) for r in range(6)] == [
        1, 5, 17, 43, 93, 191]


def neighbor_sets(w):
    """Each vertex of window ``w`` to the set of its neighbours."""
    nbrs = {v: set() for v in w.vertices}
    for s, t, _c in w.edges:
        nbrs[s].add(t)
        nbrs[t].add(s)
    return nbrs


def test_ball_has_no_triangle():
    # the reason no tunnel can be carved on a BS(1,2) window (see
    # tunnels.assemble_bs12): no two adjacent vertices share a neighbor
    for radius in range(1, 7):
        w = bs12_ball(radius)
        nbrs = neighbor_sets(w)
        for s, t, _c in w.edges:
            assert not nbrs[s] & nbrs[t], (radius, s, t)


def test_ball_distances_are_geodesic():
    w = bs12_ball(4)
    nbrs = neighbor_sets(w)
    for v in w.vertices:
        if w.dist[v] > 0:
            assert any(w.dist[u] == w.dist[v] - 1 for u in nbrs[v])


def test_fibers_are_cosets():
    w = bs12_ball(5)
    fib = fibers(w)
    for fid, members in fib.members.items():
        level = fid[0]
        assert all(v[0] == level for v in members)
        # members of one coset differ by integer multiples of the b-step
        base = members[0]
        step = Fraction(2) ** (-level)
        for v in members[1:]:
            diff = (Fraction(v[1], 2 ** v[2])
                    - Fraction(base[1], 2 ** base[2])) / step
            assert diff == int(diff)


def test_fiber_graph_degrees_bounded_by_three():
    w = bs12_ball(5)
    fib = fibers(w)
    g = fib.fiber_graph
    for fid in g:
        assert len(g[fid]) <= 3


@pytest.mark.parametrize("radius", [3, 4, 5, 6])
def test_interior_fibers_degree_three_acyclic(radius):
    w = bs12_ball(radius)
    fib = fibers(w)
    g = fib.fiber_graph
    interior = fib.interior_fibers
    assert interior, "window must certify some interior fibers"
    for fid in interior:
        assert len(g[fid]) == 3
    # acyclicity of the subgraph induced on interior fibers via union-find
    parent = {f: f for f in interior}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for fid in sorted(interior, key=repr):
        for nb in g[fid]:
            if nb in interior and repr(nb) > repr(fid):
                ra, rb = find(fid), find(nb)
                assert ra != rb, "cycle among interior fibers"
                parent[ra] = rb


def test_fiber_spanning_tree_spans_window():
    w = bs12_ball(4)
    fib = fibers(w)
    tree = fiber_spanning_tree(w, fib, LabelSource(3, salt="fst"))
    # the tree is keyed by element keys
    assert set(tree.vertices()) == set(w.vertices)
    assert len(list(tree.edges())) == len(w.vertices) - 1
    # every tree edge is a Cayley edge of the window
    cayley = {(s, t) for s, t, _c in w.edges}
    cayley |= {(t, s) for s, t in cayley}
    for u, v in tree.edges():
        assert (u, v) in cayley


@pytest.mark.parametrize("radius", range(9))
def test_fiber_spanning_tree_matches_reference(radius):
    w = bs12_ball(radius)
    fib = fibers(w)
    for seed in (0, 1, 3, 7):
        for labels in (LabelSource(seed), LabelSource(seed, salt="fst")):
            tree = fiber_spanning_tree(w, fib, labels)
            ref = reference_spanning_tree(w, labels)
            assert (tree.root, tree.parent) == (ref.root, ref.parent)


def test_ball_cap():
    with pytest.raises(ResourceLimit):
        bs12_ball(30, cap=1000)
