"""Tunnel routing, edge addition, and the BS(1,2) assembly pipeline."""

import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import router_reference
from partition_reference import tree_path
from tilelab import tunnels
from tilelab.boxes import BoxSet, Clearance, box_of, set_contacts, union_all
from tilelab.bs12 import bs12_ball, fiber_spanning_tree, fibers
from tilelab.canon import has_cycle
from tilelab.dyadic import Dyadic
from tilelab.labels import LabelSource
from tilelab.partition import Schedule
from tilelab.tiler import Tiling, tile_tree, verify_representation
from tilelab.trees import synthetic_tree
from tilelab.tunnels import (CUBE_SYMMETRIES, FINEST_EXP, RoutingError,
                             _max_clearance, add_edge, assemble_bs12,
                             TunnelPlan, contract_fibers, random_isometry,
                             route_gamma, schedule_edges)
from tilelab.unimodular import piece_features

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def tiled_path(n, seed=0):
    tree = synthetic_tree(f"path({n})", seed=seed)
    built = tile_tree(tree, Schedule([1, 6], 4), 2, LabelSource(seed, salt="tt"))
    return tree, built["tiling"]


def test_add_edge_exact_contract():
    tree, tiling = tiled_path(8)
    # endpoints at tree distance two, through their common neighbor
    u, mid, w = 2, 3, 4
    plan = route_gamma(tiling.tile_of, [u, mid, w])
    before = dict(tiling.tile_of)
    after = add_edge(tiling, plan)

    old = {frozenset(e) for e in tiling.adjacency()}
    new = {frozenset(e) for e in after.adjacency()}
    assert new == old | {frozenset((u, w))}

    halo = plan.halo()
    for v in after.tile_of:
        outside_before = before[v].difference(halo)
        outside_after = after.tile_of[v].difference(halo)
        assert outside_before.boxes == outside_after.boxes  # bit-identical


def test_route_gamma_tube_inside_tiles():
    tree, tiling = tiled_path(8)
    plan = route_gamma(tiling.tile_of, [2, 3, 4])
    union = tiling.tile_of[2].union(tiling.tile_of[3]).union(tiling.tile_of[4])
    assert plan.tube().difference(union).is_empty()


def _max_clearance_loop(room):
    """`_max_clearance` as it was, trying 2^-1, 2^-2, ... in turn."""
    for j in range(1, FINEST_EXP + 1):
        if Dyadic(1, j) <= room:
            return Dyadic(1, j)
    return None


@given(st.integers(0, 24).flatmap(
    lambda e: st.integers(0, 1 << e).map(lambda n: Dyadic(n, e))))
@example(Dyadic(0))
@example(Dyadic(1))
@example(Dyadic(1, FINEST_EXP))
@example(Dyadic(1, FINEST_EXP + 1))
@example(Dyadic((1 << 20) - 1, 20 + FINEST_EXP))
@example(Dyadic(3, 2))
def test_max_clearance_matches_loop(room):
    j = _max_clearance(0, None, lambda _e, _points: (room.exp, room.num))
    got = None if j is None else Dyadic(1, j)
    want = _max_clearance_loop(room)
    assert (got and (got.num, got.exp)) == (want and (want.num, want.exp))


@pytest.mark.parametrize("path,routable", [([2, 3, 4], True), ([3, 4, 5], False)])
def test_route_gamma_builds_each_complement_once(monkeypatch, path, routable):
    tree, tiling = tiled_path(8)
    calls = []
    outside = BoxSet._outside

    def counted(self, e, margin):
        calls.append(1)
        return outside(self, e, margin)

    monkeypatch.setattr(BoxSet, "_outside", counted)
    if routable:
        route_gamma(tiling.tile_of, path)
    else:
        with pytest.raises(RoutingError, match="no certified corridor"):
            route_gamma(tiling.tile_of, path)
    assert len(calls) <= 3  # one per prepared region: the union, d1 and d3


def four_query_fault(d1, d2, d3):
    """`add_edge`'s verdict on its carved tiles from the four queries it once
    asked: a component count and three shared face areas."""
    if len(d2.components()) != 1:
        return "tunnel would disconnect the middle tile"
    if d1.shared_face_area(d3) <= 0:
        return "tunnel failed to reach the far tile"
    if d1.shared_face_area(d2) <= 0 or d2.shared_face_area(d3) <= 0:
        return "tunnel consumed an existing contact face"
    return None


@pytest.fixture
def carve_verdicts(monkeypatch):
    """Every ``(tiles, verdict)`` that `add_edge` gets from `_carve_fault`."""
    seen = []
    real = tunnels._carve_fault

    def spy(*tiles):
        seen.append((tiles, real(*tiles)))
        return seen[-1][1]

    monkeypatch.setattr(tunnels, "_carve_fault", spy)
    return seen


def a04_attempts():
    """The tilings of test_a04's seeds, each with the (u, v, w) paths that
    test_a04 tries on it, in its order, until one routes."""
    for seed in range(400):
        n = random.Random(seed).randrange(3, 9)
        tree = synthetic_tree(f"random({n},4)", seed=seed)
        try:
            tiling = tile_tree(tree, Schedule([1], 4), 1,
                               LabelSource(seed, salt="tunnel-acc"))["tiling"]
        except ValueError:
            continue
        if not 3 <= len(tiling.tile_of) <= 8:
            continue
        old = {frozenset(e) for e in tiling.adjacency()}
        verts = sorted(tiling.tile_of, key=repr)
        yield tiling, [(u, v, w) for u in verts for w in verts
                       if repr(u) < repr(w) and frozenset((u, w)) not in old
                       for v in verts if {frozenset((u, v)), frozenset((w, v))} <= old]


def test_carve_verdict_matches_four_queries_on_a04_instances(carve_verdicts):
    # the routed instances of test_a04: per seed, the tiling of a random
    # tree and the first u-v-w path that routes, until 100 are found
    routed = 0
    for tiling, paths in a04_attempts():
        if routed >= 100:
            break
        for path in paths:
            try:
                plan = route_gamma(tiling.tile_of, list(path))
            except RoutingError:
                continue
            add_edge(tiling, plan)
            routed += 1
            break
    assert routed >= 100
    assert len(carve_verdicts) == routed
    for tiles, verdict in carve_verdicts:
        assert verdict is None
        assert verdict == four_query_fault(*tiles)


def assert_routes_as_reference(tiles, path) -> bool:
    """`route_gamma` gives the Dyadic reference router's plan, or raises its
    `RoutingError` message; whether the path routed."""
    try:
        want = router_reference.route_gamma(tiles, list(path))
    except RoutingError as err:
        with pytest.raises(RoutingError) as got:
            route_gamma(tiles, list(path))
        assert str(got.value) == str(err)
        return False
    got = router_reference.dyadic_plan(route_gamma(tiles, list(path)))
    assert (got.path, got.gamma, got.epsilon) == (want.path, want.gamma, want.epsilon)
    return True


def test_router_matches_dyadic_reference_on_a04_paths():
    routed = tried = 0
    for tiling, paths in a04_attempts():
        if routed >= 100:
            break
        for path in paths:
            tried += 1
            if assert_routes_as_reference(tiling.tile_of, path):
                routed += 1
                break
    assert routed >= 100 and tried > routed


@pytest.mark.parametrize("width,eps", [(Dyadic((1 << 14) - 1, 14), Dyadic(1, 2)),
                                       (Dyadic(1, 11), Dyadic(1, FINEST_EXP))])
def test_router_matches_dyadic_reference_at_the_finest_lattice(width, eps):
    # three unit cubes in a row, the middle one cut to `width` along y: a
    # face centre one lattice finer than every tile, or a corridor whose
    # half step is 2^-13
    tiles = {0: BoxSet([box_of((0, 1), (0, 1), (0, 1))]),
             1: BoxSet([box_of((1, 2), (0, width), (0, 1))]),
             2: BoxSet([box_of((2, 3), (0, 1), (0, 1))])}
    assert assert_routes_as_reference(tiles, (0, 1, 2))
    assert router_reference.dyadic_plan(route_gamma(tiles, [0, 1, 2])).epsilon == eps


def bench_paths():
    """The 18 ``(tree seed, tiling, path)`` cases of the tunnel-route workload."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads._tunnel_paths(18)


def test_router_matches_dyadic_reference_on_bench_paths():
    paths = bench_paths()
    routed = sum(assert_routes_as_reference(tiling.tile_of, path)
                 for _, tiling, path in paths)
    assert len(paths) == 18 and 0 < routed < 18


def test_route_and_carve_build_no_dyadic_on_bench_paths(monkeypatch):
    paths = bench_paths()

    def no_dyadic(*args):
        raise AssertionError(f"Dyadic{args} built")

    monkeypatch.setattr(Dyadic, "__init__", no_dyadic)
    routed = 0
    for _, tiling, path in paths:
        try:
            plan = route_gamma(tiling.tile_of, list(path))
        except RoutingError:
            continue
        add_edge(tiling, plan)
        routed += 1
    assert 0 < routed < 18


def test_route_gamma_asks_each_clearance_once(monkeypatch):
    asked, prepared = [], []
    ask, prepare, union = Clearance.__call__, Clearance.__init__, tunnels.union_all

    def spy_ask(self, e, points):
        asked.append((self, e, tuple(map(tuple, points))))
        return ask(self, e, points)

    def spy_prepare(self, region):
        prepared.append("Clearance")
        prepare(self, region)

    def spy_union(sets):
        prepared.append("union_all")
        return union(sets)

    monkeypatch.setattr(Clearance, "__call__", spy_ask)
    monkeypatch.setattr(Clearance, "__init__", spy_prepare)
    monkeypatch.setattr(tunnels, "union_all", spy_union)
    routed = 0
    for _, tiling, path in bench_paths():
        asked.clear()
        try:
            plan = route_gamma(tiling.tile_of, list(path))
        except RoutingError:
            plan = None
        assert len(set(asked)) == len(asked), path
        if plan is None:
            continue
        routed += 1
        # the plan's region was prepared on these very tiles
        prepared.clear()
        add_edge(tiling, plan)
        assert prepared == [], path
    assert routed == 11


def _bar(x, z_hi):
    """The box [x, x + 1] x [0, 1/4] x [0, z_hi]."""
    return BoxSet([box_of((x, x + 1), (0, Dyadic(1, 2)), (0, z_hi))])


@pytest.mark.parametrize("z_hi, z, x_end, why", [
    # the tube cuts the middle tile through
    (1, Dyadic(1, 1), Dyadic(5, 1), "tunnel would disconnect the middle tile"),
    # the tube stops inside the middle tile
    (1, Dyadic(1, 1), Dyadic(3, 1), "tunnel failed to reach the far tile"),
    # the tube eats the whole face between the middle and the far tile
    (Dyadic(1, 2), Dyadic(1, 3), Dyadic(5, 1), "tunnel consumed an existing contact face"),
])
def test_carve_verdict_matches_four_queries_on_each_fault(carve_verdicts, z_hi, z, x_end, why):
    # tiles 0 and 2 of height z_hi on either side of a unit-high tile 1; the
    # tube, 1/4 wide, fills the tiles' 1/4 depth
    tiles = {0: _bar(0, z_hi), 1: _bar(1, 1), 2: _bar(2, z_hi)}
    tiling = Tiling(tiles, union_all(list(tiles.values())), [], set(), [])
    # from x = 1/2 at y = 1/8, with eps = 2^-2, on the lattice 2^-3
    z, x_end = z.scale(3).floor(), x_end.scale(3).floor()
    plan = TunnelPlan([0, 1, 2], 3, [(4, 1, z), (x_end, 1, z)], 2)
    with pytest.raises(RoutingError, match=why):
        add_edge(tiling, plan)
    [(carved, verdict)] = carve_verdicts
    assert verdict == why == four_query_fault(*carved)


def test_add_edge_releases_the_certified_region(monkeypatch):
    _, tiling = tiled_path(8)
    plan = route_gamma(tiling.tile_of, [2, 3, 4])
    assert plan.certified is not None
    after = add_edge(tiling, plan)
    assert plan.certified is None
    prepared = []
    monkeypatch.setattr(tunnels, "Clearance",
                        lambda s: prepared.append(s) or Clearance(s))
    again = add_edge(tiling, plan)
    assert len(prepared) == 1  # the region is prepared again
    assert again.to_json() == after.to_json()


def test_add_edge_rejects_a_tube_that_escapes_the_path_tiles():
    # a plan routed on one tiling, carved on a copy whose middle tile has
    # lost the tube's halo: the plan's certified region is not reused
    _, tiling = tiled_path(8)
    plan = route_gamma(tiling.tile_of, [2, 3, 4])
    tiles = dict(tiling.tile_of)
    tiles[3] = tiles[3].difference(plan.halo())
    holed = Tiling(tiles, tiling.region, tiling.roots, tiling.unresolved, tiling.demoted)
    with pytest.raises(RoutingError, match="tube escapes the path tiles"):
        add_edge(holed, plan)
    # a hand-built plan at z = 1/2, above the 1/4-high end tiles
    tiles = {0: _bar(0, Dyadic(1, 2)), 1: _bar(1, 1), 2: _bar(2, Dyadic(1, 2))}
    tiling = Tiling(tiles, union_all(list(tiles.values())), [], set(), [])
    plan = TunnelPlan([0, 1, 2], 3, [(4, 1, 4), (20, 1, 4)], 2)
    with pytest.raises(RoutingError, match="tube escapes the path tiles"):
        add_edge(tiling, plan)


@pytest.mark.parametrize("radius", [4, 5, 6])
def test_contract_fibers_drops_the_disconnected_fibers(radius):
    out = assemble_bs12(bs12_ball(radius), 0, 2, (1, 6))
    tiling, fib = out["tiling"], out["fibers"]
    pieces = contract_fibers(tiling, fib, out["tree"])
    dropped = {fid for fid, members in fib.members.items()
               if any(v in tiling.tile_of for v in members)
               and len(union_all([tiling.tile_of[v] for v in members
                                  if v in tiling.tile_of]).components()) != 1}
    assert dropped  # 2, 3 and 5 fibers at radii 4, 5 and 6
    assert {x[1] for x in pieces.unresolved
            if isinstance(x, tuple) and x[0] == "disconnected"} == dropped
    assert dropped.isdisjoint(pieces.tile_of)


def contract_by_union(tiling, fib):
    """`contract_fibers` as it was computed: one sweep over each fiber's
    member tiles, then its component count."""
    pieces, unresolved = {}, set()
    for fid, members in fib.members.items():
        tiles = [tiling.tile_of[v] for v in members if v in tiling.tile_of]
        if not tiles:
            unresolved.add(fid)
            continue
        acc = union_all(tiles)
        if set_contacts([acc], components=(0,))[2][0] != 1:
            unresolved.add(("disconnected", fid))
            continue
        pieces[fid] = acc
        if len(tiles) != len(members):
            unresolved.add(("partial", fid))
    return pieces, unresolved


@pytest.mark.parametrize("radius", range(1, 8))
def test_contract_fibers_matches_member_tile_union(radius):
    window = bs12_ball(radius)
    for seed in range(6):
        for stages, schedule in ((1, (1, 6)), (2, (1, 6)), (2, (2, 12))):
            out = assemble_bs12(window, seed, stages, schedule)
            pieces, unresolved = contract_by_union(out["tiling"], out["fibers"])
            got = contract_fibers(out["tiling"], out["fibers"], out["tree"])
            case = seed, stages, schedule
            assert list(got.tile_of) == list(pieces), case
            assert got.tile_of == pieces, case
            assert got.unresolved == unresolved, case


def path_walking_key(tree, e):
    """`schedule_edges`' sort key as it was computed: walk the tree path and
    sum the subtrees hanging off it."""
    path = tree_path(tree, *e)
    on_path = set(path)
    hanging = sum(tree.subtree_size[c] for x in path
                  for c in tree.children[x] if c not in on_path)
    return max(len(path), hanging + 1), repr(e)


def non_tree_edges(window, tree):
    tree_edges = {frozenset(e) for e in tree.edges()}
    return [tuple(sorted((s, t))) for s, t, _c in window.edges
            if frozenset((s, t)) not in tree_edges]


def test_schedule_edges_orders_by_size_metric():
    for descriptor in ("path(10)", "path(40)", "spine(12,2)"):
        tree = synthetic_tree(descriptor)
        edges = list(itertools.combinations(tree.vertices(), 2))
        assert schedule_edges(tree, edges) == sorted(
            edges, key=lambda e: path_walking_key(tree, e)), descriptor


@settings(deadline=None)
@given(st.integers(1, 60), st.integers(0, 1000), st.data())
def test_schedule_edges_matches_path_walk_on_random_trees(n, seed, data):
    tree = synthetic_tree(f"random({n},4)", seed=seed)
    vertex = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    assert schedule_edges(tree, edges) == sorted(
        edges, key=lambda e: path_walking_key(tree, e))


@pytest.mark.parametrize("radius", range(9))
def test_schedule_edges_matches_path_walk_on_fiber_trees(radius):
    window = bs12_ball(radius)
    fib = fibers(window)
    for seed in (0, 1, 3):
        tree = fiber_spanning_tree(window, fib, LabelSource(seed))
        edges = non_tree_edges(window, tree)
        assert schedule_edges(tree, edges) == sorted(
            edges, key=lambda e: path_walking_key(tree, e))


def test_cube_symmetries_count():
    assert len(CUBE_SYMMETRIES) == 48
    assert len(set(CUBE_SYMMETRIES)) == 48
    # the order `random_isometry` indexes, as the nested loops built it
    assert list(CUBE_SYMMETRIES) == [
        (perm, signs) for perm in itertools.permutations((0, 1, 2))
        for signs in itertools.product((1, -1), repeat=3)]


def test_assemble_contract_isometry():
    window = bs12_ball(4)
    out = assemble_bs12(window, 1, 2, (1, 6))
    tiling = out["tiling"]
    fib = out["fibers"]
    report = verify_representation(tiling, out["tree"])
    assert report["pass"]
    # every non-tree edge is unrealized, with an explicit reason
    assert len(out["unrealized"]) == len(window.edges) - (len(window.vertices) - 1)
    assert all(len(item) >= 2 for item in out["unrealized"])
    tree = out["tree"]
    assert [e for e, _why in out["unrealized"]] == sorted(
        non_tree_edges(window, tree), key=lambda e: path_walking_key(tree, e))

    pieces = contract_fibers(tiling, fib, tree)
    # at this radius an interior fiber's window trace falls apart
    assert any(("disconnected", fid) in pieces.unresolved
               for fid in fib.interior_fibers)
    # contracted pieces are unions of their member tiles, volumes add up
    for fid, piece in pieces.tile_of.items():
        member_vol = sum(tiling.tile_of[v].volume()
                         for v in fib.members[fid]
                         if v in tiling.tile_of)
        assert piece.volume() == member_vol

    # the pieces have disjoint interiors, and the resolved interior ones
    # touch exactly along the fiber contact graph, which is a forest there
    fids = sorted(pieces.tile_of, key=repr)
    areas, overlaps, _ = set_contacts([pieces.tile_of[f] for f in fids])
    assert not overlaps
    inner = set(fids) & fib.interior_fibers
    faces = {frozenset((fids[a], fids[b])) for a, b in areas
             if fids[a] in inner and fids[b] in inner}
    assert faces == {frozenset(e) for e in fib.fiber_edges
                     if set(e) <= inner}
    assert faces and not has_cycle(tuple(e) for e in faces)

    moved = random_isometry(pieces, seed=4)
    assert moved.region.volume() == pieces.region.volume()
    assert {frozenset(e) for e in moved.adjacency()} == \
        {frozenset(e) for e in pieces.adjacency()}


def test_assemble_deterministic():
    a = assemble_bs12(bs12_ball(2), 5, 2, (1, 6))
    b = assemble_bs12(bs12_ball(2), 5, 2, (1, 6))
    assert a["tiling"].to_json() == b["tiling"].to_json()
    assert a["unrealized"] == b["unrealized"]


def test_piece_features_read_the_int_bbox():
    window = bs12_ball(4)
    out = assemble_bs12(window, 0, 2, (1, 6))
    fib = out["fibers"]
    pieces = contract_fibers(out["tiling"], fib, out["tree"])
    for fid, piece in pieces.tile_of.items():
        features = piece_features(piece, len(fib.members[fid]))
        assert piece._boxes is None  # no Dyadic corner was built
        sides = sorted(hi - lo for lo, hi in piece.int_bbox())  # on one lattice
        assert features["elongation"] == float(Fraction(sides[-1], sides[0]))
    # bounding-box sides 1, 3/4 and 2, on the lattice 2^-2
    piece = BoxSet.from_ints(2, [((0, 4), (-1, 1), (0, 8)),
                                 ((0, 2), (1, 2), (0, 4))])
    assert piece_features(piece, 1)["elongation"] == 8 / 3
