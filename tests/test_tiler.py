"""Tree tiling: block geometry, end-to-end verification, determinism."""

import hashlib
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from tiler_reference import reference_place_cubes, reference_top_set
from tilelab.boxes import _lattice, _shift, box_minus
from tilelab.bs12 import bs12_ball, fiber_spanning_tree, fibers
from tilelab.dyadic import Dyadic
from tilelab.labels import LabelSource
from tilelab.partition import Schedule, limit_partitions
from tilelab.tiler import Tiling, WindowTooSmall, block_dims, margin, \
    nest_margin, place_cubes, tile_tree, top_set, verify_representation
from tilelab.trees import synthetic_tree
from tilelab.tunnels import assemble_bs12


def test_block_dims_volume_and_shape():
    for m in range(0, 12):
        dims = block_dims(m)
        assert dims[0] * dims[1] * dims[2] == 1 << m
        # dimensions differ from a cube by at most a factor of two
        assert max(dims) <= 2 * min(dims)


def _pow2_floor_loops(fr):
    """The largest power of two <= fr, as the tiler first computed it with
    three Fraction loops."""
    e = 0
    while Fraction(1, 1 << e) > fr:
        e += 1
    while Fraction(2) * Fraction(1, 1 << e) <= fr and e > 0:
        e -= 1
    v = Dyadic(1, e)
    while (v + v).as_fraction() <= fr:
        v = v + v
    return v


@given(st.integers(0, 70).flatmap(lambda e: st.integers(
    1, 1 << (20 + e)).map(lambda n: Dyadic(n, e))))
@example(Dyadic(1))
@example(Dyadic(1, 40))
@example(Dyadic((1 << 40) - 1, 40))
@example(Dyadic(3, 2))
@example(Dyadic(1 << 20))
@example(Dyadic(1, 70))
def test_pow2_floor_matches_loops(d):
    got, want = d.pow2_floor(), _pow2_floor_loops(d.as_fraction())
    assert (got.num, got.exp) == (want.num, want.exp)


def test_margins():
    assert margin(0) == Dyadic(1, 2)
    assert margin(1) == Dyadic(1, 3)
    for s in range(4):
        prev = 0
        for t in range(4):
            nm = nest_margin(s, t).as_fraction()
            # nested margins accumulate geometrically below twice the base
            assert margin(s).as_fraction() <= nm < 2 * margin(s).as_fraction()
            assert nm > prev
            prev = nm


@st.composite
def dyadic_boxes(draw):
    """3D boxes whose corners each have their own exponent."""
    box = []
    for _ in range(3):
        lo = Dyadic(draw(st.integers(-(1 << 12), 1 << 12)), draw(st.integers(0, 12)))
        width = Dyadic(draw(st.integers(1, 1 << 12)), draw(st.integers(0, 12)))
        box.append((lo, lo + width))
    return tuple(box)


@settings(deadline=None)
@given(dyadic_boxes(), st.integers(1, 9))
@example(((Dyadic(0), Dyadic(1)),) * 3, 1)
@example(((Dyadic(-1, 3), Dyadic(5, 1)), (Dyadic(0), Dyadic(1, 9)),
          (Dyadic(7, 2), Dyadic(3))), 9)
def test_place_cubes_matches_dyadic_reference(box, k):
    e, (ib,) = _lattice([box])
    f, cubes = place_cubes(e, ib, k)
    assert [tuple((Dyadic(lo, f), Dyadic(hi, f)) for lo, hi in c)
            for c in cubes] == reference_place_cubes(box, k)
    for c in cubes:
        assert len({hi - lo for lo, hi in c}) == 1  # a cube
        assert all(bl << (f - e) < lo and hi < bh << (f - e)
                   for (lo, hi), (bl, bh) in zip(c, ib))  # strictly inside
    for a, b in combinations(cubes, 2):  # interiors apart
        assert any(ah <= bl or bh <= al for (al, ah), (bl, bh) in zip(a, b))


def test_deep_path_tiles_at_a_low_recursion_limit():
    # one cube nests in the next along the path, so a recursive carve needs
    # a stack as deep as the path; the carve must not raise the limit either
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(300)
        tiling = tile_tree(synthetic_tree("path(1200)", 0), Schedule([1, 6], 4),
                           2, LabelSource(0, salt="tile-tree"))["tiling"]
        assert sys.getrecursionlimit() == 300
    finally:
        sys.setrecursionlimit(limit)
    assert len(tiling.tile_of) == 1198


def run(descriptor, seed=0, schedule=(1, 6), stages=2):
    tree = synthetic_tree(descriptor, seed=seed)
    labels = LabelSource(seed, salt="tiler-test")
    built = tile_tree(tree, Schedule(list(schedule), 4), stages, labels)
    return tree, built["tiling"]


@pytest.mark.parametrize("descriptor", [
    "path(24)", "binary-canopy(4)", "canopy(3,3)", "spine(6,2)",
    "random(100,4)",
])
def test_verifier_four_conditions(descriptor):
    tree, tiling = run(descriptor, seed=2)
    report = verify_representation(tiling, tree)
    assert report["tiles_open_connected"]["pass"]
    assert report["disjoint_and_cover"]["pass"]
    assert report["local_finiteness"]["pass"]
    assert report["adjacency_isomorphic"]["pass"]
    assert report["pass"]


@pytest.mark.parametrize("descriptor", [
    "path(24)", "binary-canopy(6)", "canopy(3,3)", "canopy(3,4)",
    "spine(6,2)", "random(100,4)", "random(150,3)", "random(200,3)",
    "random(300,4)",
])
def test_blocks_nest_along_the_tree_and_are_otherwise_disjoint(descriptor):
    """A kept top vertex's block holds the blocks of its kept descendants
    and meets no other block in more than a face."""
    for seed in range(4):
        tree = synthetic_tree(descriptor, seed=seed)
        built = tile_tree(tree, Schedule([1, 6], 4), 2,
                          LabelSource(seed, salt="tiler-test"))
        blocks = {x: [(o, o + d) for o, d in zip(
                      origin, block_dims(built["topset"].m_of[x]))]
                  for x, origin in built["grid"].block_origin.items()}
        for x, bx in blocks.items():
            for y, by in blocks.items():
                if x == y:
                    continue
                if tree.is_ancestor(x, y):
                    assert all(xl <= yl and yh <= xh
                               for (xl, xh), (yl, yh) in zip(bx, by)), (x, y)
                elif not tree.is_ancestor(y, x):
                    assert any(yh <= xl or xh <= yl
                               for (xl, xh), (yl, yh) in zip(bx, by)), (x, y)


def assert_carve_nests(tree, tiling):
    """Every tree child of a resolved vertex is resolved; each tile's
    bounding box holds its children's strictly inside, sibling boxes are
    disjoint, and the tile is its box minus its children's."""
    for v, tile in tiling.tile_of.items():
        kids = [tiling.tile_of[c] for c in tree.children[v]]
        f = max([tile.exp] + [k.exp for k in kids])
        box, *holes = (_shift([s.int_bbox()], f - s.exp)[0] for s in [tile] + kids)
        for h in holes:
            assert all(bl < hl and hh < bh for (bl, bh), (hl, hh) in zip(box, h)), v
        for g, h in combinations(holes, 2):
            assert any(gh < hl or hh < gl for (gl, gh), (hl, hh) in zip(g, h)), v
        assert box_minus(f, box, holes) == tile, v


@pytest.mark.parametrize("descriptor", [
    "path(24)", "binary-canopy(4)", "canopy(3,3)", "spine(6,2)",
    "random(100,4)",
])
def test_carve_nests_tree_window_tiles(descriptor):
    for seed in range(4):
        tree, tiling = run(descriptor, seed=seed)
        assert_carve_nests(tree, tiling)


@pytest.mark.parametrize("radius", range(2, 7))
def test_carve_nests_fiber_tree_tiles(radius):
    window = bs12_ball(radius)
    for seed in range(3):
        out = assemble_bs12(window, seed, 2, (1, 6))
        assert_carve_nests(out["tree"], out["tiling"])


def test_verifier_reports_first_overlapping_pair():
    tree, tiling = run("path(16)")
    verts = sorted(tiling.tile_of, key=repr)
    tiles = dict(tiling.tile_of)
    # tiles 1 and 6 overlap, and so do tiles 2 and 3; the witness is the
    # first pair in repr order
    tiles[verts[1]] = tiles[verts[1]].union(tiles[verts[6]])
    tiles[verts[2]] = tiles[verts[2]].union(tiles[verts[3]])
    broken = Tiling(tiles, tiling.region, tiling.roots, tiling.unresolved,
                    tiling.demoted)
    report = verify_representation(broken, tree)
    assert not report["disjoint_and_cover"]["pass"]
    assert report["disjoint_and_cover"]["overlap_witness"] == (
        repr(verts[1]), repr(verts[6]))
    assert not report["pass"]

    # the right tiles under a second root in the same tree: the face graph
    # equals the tree's edges, but it is not a forest rooted at the roots
    extra = next(v for v in verts if v not in tiling.roots)
    rerooted = Tiling(dict(tiling.tile_of), tiling.region,
                      tiling.roots + [extra], tiling.unresolved, tiling.demoted)
    report = verify_representation(rerooted, tree)
    assert report["disjoint_and_cover"]["pass"]
    assert not report["adjacency_isomorphic"]["missing"]
    assert not report["adjacency_isomorphic"]["extra"]
    assert not report["adjacency_isomorphic"]["pass"]
    assert report["adjacency_isomorphic"]["hashes"] is None
    assert not report["pass"]


@pytest.mark.parametrize("descriptor", [
    "path(40)", "spine(25,1)", "binary-canopy(6)", "random(120,3)",
    "canopy(4,3)", "binary-canopy(4)",
])
def test_contact_sweep_counts_tile_components(descriptor):
    _, tiling = run(descriptor)
    verts, _, _, counts = tiling.contacts(counted=True)
    assert counts == [len(tiling.tile_of[v].components()) for v in verts]


def test_one_contact_sweep_counts_components_only_for_the_verifier(tmp_path, monkeypatch):
    import tilelab.cli as cli
    import tilelab.tiler as tiler

    counted = []
    real = tiler.set_contacts
    monkeypatch.setattr(tiler, "set_contacts", lambda sets, components=():
                        counted.append(len(components)) or real(sets, components))
    # the verifier and tiling.json share one counted sweep
    assert cli.main(["tile-tree", "--tree", "path(40)", "--out", str(tmp_path)]) == 0
    assert len(counted) == 1 and counted[0] > 1
    counted.clear()
    _, tiling = run("path(40)")
    tiling.adjacency()
    assert counted == [0]


def test_verifier_reports_split_tile():
    tree, tiling = run("path(16)")
    v = sorted(tiling.tile_of, key=repr)[3]
    tiles = dict(tiling.tile_of)
    # the tile plus a far copy of it: two apart pieces under one vertex
    tiles[v] = tiles[v].union(tiles[v].translate(0, (100, 0, 0)))
    split = Tiling(tiles, tiling.region, tiling.roots, tiling.unresolved,
                   tiling.demoted)
    assert split.contacts(counted=True)[3][3] == 2
    report = verify_representation(split, tree)
    assert report["tiles_open_connected"] == {"pass": False, "witnesses": [repr(v)]}
    assert not report["pass"]


def test_deep_path_window_verifies():
    # 3,055 boxes nested at one corner: the contact index runs on two blocks
    tree = synthetic_tree("path(512)", 0)
    tiling = tile_tree(tree, Schedule([1, 6], 4), 2,
                       LabelSource(0, salt="tile-tree"))["tiling"]
    report = verify_representation(tiling, tree)
    assert report["pass"], report
    resolved = set(tiling.tile_of)
    assert len(resolved) == 510
    assert {frozenset(e) for e in tiling.adjacency()} == \
        {frozenset(e) for e in tree.edges() if set(e) <= resolved}


def test_cover_is_exact_fraction_identity():
    tree, tiling = run("binary-canopy(4)")
    total = sum((tile.volume() for tile in tiling.tile_of.values()),
                Fraction(0))
    assert total == tiling.region.volume()


def test_adjacency_matches_tree_edges():
    tree, tiling = run("path(16)")
    resolved = set(tiling.tile_of)
    expected = {frozenset((u, v)) for u, v in tree.edges()
                if u in resolved and v in resolved}
    got = {frozenset(e) for e in tiling.adjacency()}
    assert got == expected


def test_deterministic_output():
    _, a = run("random(60,4)", seed=9)
    _, b = run("random(60,4)", seed=9)
    assert a.to_json() == b.to_json()
    _, c = run("random(60,4)", seed=10)
    assert a.to_json() != c.to_json()


def test_transform_preserves_structure():
    tree, tiling = run("canopy(2,3)")
    moved = tiling.transform((2, 0, 1), (-1, 1, 1),
                             (Dyadic(3), Dyadic(-1), Dyadic(0)))
    assert moved.region.volume() == tiling.region.volume()
    assert {frozenset(e) for e in moved.adjacency()} == \
        {frozenset(e) for e in tiling.adjacency()}


def test_tiny_window_raises_window_too_small():
    with pytest.raises(WindowTooSmall, match="empty top set") as err:
        run("path(2)")
    # callers that skip windows too small to tile catch a ValueError
    assert isinstance(err.value, ValueError)


def assert_top_set_matches_reference(tree, labels):
    schedule = Schedule([1, 6], 4)
    levels, _ = limit_partitions(tree, schedule, 2, labels)
    ts = top_set(tree, levels, schedule)
    assert (ts.members, ts.m_of, ts.stratum) == reference_top_set(tree, levels,
                                                                  schedule)


@pytest.mark.parametrize("descriptor", [
    "path(40)", "spine(25,1)", "binary-canopy(6)", "random(120,3)",
    "canopy(4,3)", "binary-canopy(4)",
])
@pytest.mark.parametrize("seed", [0, 3])
def test_top_set_matches_walking_reference(descriptor, seed):
    tree = synthetic_tree(descriptor, seed=seed)
    assert_top_set_matches_reference(tree, LabelSource(seed, salt="tile-tree"))


@pytest.mark.parametrize("descriptor", ["path(300)", "spine(60,2)"])
def test_deep_top_set_matches_walking_reference(descriptor):
    assert_top_set_matches_reference(synthetic_tree(descriptor),
                                     LabelSource(0))


@pytest.mark.parametrize("radius", [4, 5, 6, 7])
def test_fiber_tree_top_set_matches_walking_reference(radius):
    window = bs12_ball(radius)
    labels = LabelSource(0)
    tree = fiber_spanning_tree(window, fibers(window), labels)
    assert_top_set_matches_reference(tree, labels)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=300), st.integers(0, 1000))
def test_random_tree_top_sets_match_walking_reference(n, seed):
    tree = synthetic_tree(f"random({n},4)", seed=seed)
    assert_top_set_matches_reference(tree, LabelSource(seed))


# SHA-256 of the sorted (vertex, exponent, integer boxes) of every tile of
# `tile_tree` at seed 0, schedule (1, 6), two stages, recorded while the
# partition stages still peeled the leaf set of S round by round.  The
# contact sweep is not run, so deep windows stay cheap.
DEEP_WINDOW_TILES = {
    "path(1024)":
        "98445cac34546da802c622d53cc5e8cd2928e540591e8864fd8552ccc9d3c486",
    "spine(500,2)":
        "ae6c3c1edfde3b609c6fe207e79516ee596060b9fa6affc6efbaf4ec5d5ecc86",
}


@pytest.mark.parametrize("descriptor", sorted(DEEP_WINDOW_TILES))
def test_deep_window_tiles_are_pinned(descriptor):
    tiling = tile_tree(synthetic_tree(descriptor, 0), Schedule([1, 6], 4), 2,
                       LabelSource(0, salt="tile-tree"))["tiling"]
    key = repr(sorted((repr(v), s.exp, s.ints)
                      for v, s in tiling.tile_of.items()))
    assert hashlib.sha256(key.encode()).hexdigest() == \
        DEEP_WINDOW_TILES[descriptor]
