"""Rooted tree windows and the synthetic generators."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from partition_reference import path_to_root, subtree, tree_path
from tilelab.trees import RootedTreeWindow, parse_descriptor, synthetic_tree


def test_path_shape():
    t = synthetic_tree("path(7)")
    assert len(t) == 7
    assert t.max_degree() == 2
    assert len(t.leaves()) == 1  # the root is not counted as a leaf end


def test_canopy_sizes():
    t = synthetic_tree("canopy(3,2)")
    assert len(t) == 2 ** 4 - 1
    assert t.max_degree() == 3
    t3 = synthetic_tree("canopy(2,3)")
    assert len(t3) == 1 + 3 + 9
    assert synthetic_tree("binary-canopy(4)").max_degree() == 3


def test_spine_shape():
    t = synthetic_tree("spine(5,2)")
    assert len(t) == 5 + 10
    assert t.max_degree() == 4  # interior spine: parent + next + two arms


@given(st.integers(min_value=2, max_value=200), st.integers(0, 10))
def test_random_tree_degree_bound(n, seed):
    t = synthetic_tree(f"random({n},4)", seed=seed)
    assert len(t) == n
    assert t.max_degree() <= 4
    # every vertex reaches the root
    for v in t.vertices():
        assert path_to_root(t, v)[-1] == t.root


def test_random_tree_seeded():
    a = synthetic_tree("random(60,3)", seed=5)
    b = synthetic_tree("random(60,3)", seed=5)
    assert a.parent == b.parent
    assert a.parent != synthetic_tree("random(60,3)", seed=6).parent


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=120), st.integers(0, 1000))
@example(80, 1)
def test_euler_intervals_encode_ancestry(n, seed):
    """Preorder positions and subtree sizes encode ancestry, and each
    subtree is the run of its descendants in preorder."""
    t = synthetic_tree(f"random({n},4)", seed=seed)
    for v in t.vertices():
        for u in path_to_root(t, v):
            assert t.is_ancestor(u, v)
        anc = set(path_to_root(t, v))
        for u in t.vertices():
            assert t.is_ancestor(u, v) == (u in anc)
    for x in t.vertices():
        assert subtree(t, x) == [v for v in t.order if x in path_to_root(t, v)]


def test_tree_path_endpoints():
    t = synthetic_tree("canopy(3,2)")
    verts = t.vertices()
    u, v = verts[3], verts[11]
    p = tree_path(t, u, v)
    assert p[0] == u and p[-1] == v
    # consecutive entries are parent/child pairs
    for a, b in zip(p, p[1:]):
        assert t.parent.get(a) == b or t.parent.get(b) == a


def test_subtree_holds_the_descendants():
    t = synthetic_tree("canopy(2,2)")
    child = t.children[t.root][0]
    sub = set(subtree(t, child))
    assert all(t.is_ancestor(child, v) for v in sub)


def random_tree_reference(n, maxdeg, seed):
    """Parent map of ``random(n,maxdeg)`` with the open vertices listed anew
    for every vertex, as the generator once did (quadratic in n)."""
    rng = random.Random(seed)
    parent, degree = {}, {0: 0}
    for v in range(1, n):
        choices = [u for u in degree
                   if degree[u] < (maxdeg if u == 0 else maxdeg - 1)]
        p = rng.choice(choices)
        parent[v] = p
        degree[p] += 1
        degree[v] = 0
    return parent


@settings(deadline=None)
@given(st.integers(1, 300), st.integers(1, 6), st.integers(0, 1000))
@example(2, 1, 0)
@example(2000, 3, 0)
def test_random_tree_matches_the_reference_generator(n, maxdeg, seed):
    if maxdeg < 2:
        n = min(n, maxdeg + 1)
    t = synthetic_tree(f"random({n},{maxdeg})", seed=seed)
    assert t.parent == {0: None, **random_tree_reference(n, maxdeg, seed)}


def test_bad_descriptor():
    for descriptor in ["mystery(3)", "path", "path(0)", "path(x)", "random(5)",
                       "random(50,1)", "random(3,0)", "random(0,3)",
                       "binary-canopy(3,2)", "canopy(-1)", "canopy(2,0)",
                       "spine(0,1)", "spine(2,-1)"]:
        with pytest.raises(ValueError):
            parse_descriptor(descriptor)
        with pytest.raises(ValueError):
            synthetic_tree(descriptor)
