"""End-to-end acceptance checks for the tilelab pipeline.

One test per criterion; each prints a single summary line (visible with
``pytest -s`` / on failure) stating what was measured and at what tolerance.
Structural and measure-theoretic identities are checked in exact rational
arithmetic; statistical checks state their sigma level explicitly.
"""

import math
import random
import statistics
import time
from fractions import Fraction

import networkx as nx
import numpy as np
from scipy import ndimage

import tilelab.unimodular as um
from tilelab.boxes import BoxSet, box_of
from tilelab.bs12 import bs12_ball, fibers
from tilelab.dyadic import Dyadic
from tilelab.fractal import (INTERPRETATIONS, adjacency_report, build_chain,
                             pieces_in_window)
from tilelab.labels import LabelSource
from tilelab.partition import Schedule, limit_partitions
from tilelab.tiler import tile_tree, verify_representation
from tilelab.trees import synthetic_tree
from tilelab.tunnels import (RoutingError, UnrealizableEdgeError, add_edge,
                             assemble_bs12, contract_fibers, route_gamma)
from graph_hash import graph_canonical_hash
from voxels import voxelize

TREE_DESCRIPTORS = [
    "binary-canopy(3)", "binary-canopy(4)", "binary-canopy(5)",
    "binary-canopy(6)", "binary-canopy(7)", "binary-canopy(8)",
    "canopy(3,3)", "canopy(4,3)", "canopy(5,3)",
    "path(16)", "path(32)", "path(64)", "path(128)",
    "spine(30,1)", "spine(60,2)", "spine(100,1)",
    "random(50,4)", "random(100,4)", "random(200,4)", "random(300,3)",
]
SEEDS_PER_TREE = 5

_runs_cache = []


def tiling_runs():
    """Build (and cache) every descriptor x seed tiling run once."""
    if not _runs_cache:
        for desc in TREE_DESCRIPTORS:
            for seed in range(SEEDS_PER_TREE):
                tree = synthetic_tree(desc, seed=seed)
                t0 = time.monotonic()
                built = tile_tree(tree, Schedule([1, 6], 4), 2,
                                  LabelSource(seed, salt="acceptance"))
                report = verify_representation(built["tiling"], tree)
                elapsed = time.monotonic() - t0
                _runs_cache.append((desc, seed, tree, built, report, elapsed))
    return _runs_cache


def test_a01_representation_verifier():
    # >= 20 one-ended tree windows (<= 2^10 vertices, degree <= 4), 5 seeds
    # each: all four representation conditions hold exactly, < 60 s per run.
    runs = tiling_runs()
    assert len(TREE_DESCRIPTORS) >= 20
    worst = 0.0
    for desc, seed, tree, built, report, elapsed in runs:
        n = len(list(tree.vertices()))
        assert n <= 1 << 10, (desc, n)
        assert max(tree.degree(v) for v in tree.vertices()) <= 4, desc
        for key in ("tiles_open_connected", "disjoint_and_cover",
                    "local_finiteness", "adjacency_isomorphic"):
            assert report[key]["pass"], (desc, seed, key, report[key])
        assert report["pass"], (desc, seed)
        assert elapsed < 60.0, (desc, seed, elapsed)
        worst = max(worst, elapsed)
    print(f"criterion 1: PASS - {len(runs)} runs "
          f"({len(TREE_DESCRIPTORS)} trees x {SEEDS_PER_TREE} seeds), "
          f"all four conditions exact, slowest run {worst:.1f}s < 60s")


def test_a02_graph_fidelity():
    # face-adjacency graph canonically hash-equal to the input tree
    # restricted to the resolved vertices, every run.
    runs = tiling_runs()
    for desc, seed, tree, built, report, _ in runs:
        tiling = built["tiling"]
        resolved = set(tiling.tile_of)
        adj = nx.Graph()
        adj.add_nodes_from(resolved)
        adj.add_edges_from(tiling.adjacency())
        restricted = nx.Graph()
        restricted.add_nodes_from(resolved)
        restricted.add_edges_from((u, v) for u, v in tree.edges()
                                  if u in resolved and v in resolved)
        assert graph_canonical_hash(adj) == graph_canonical_hash(restricted), \
            (desc, seed)
    print(f"criterion 2: PASS - canonical hash of the face-adjacency graph "
          f"equals the restricted input tree in all {len(runs)} runs")


def test_a03_bs12_fibers():
    # radius <= 6 windows: every interior fiber has degree exactly 3 and the
    # interior fiber graph is acyclic -- exact.
    checked = 0
    for radius in range(2, 7):
        fib = fibers(bs12_ball(radius))
        g = fib.fiber_graph
        interior = fib.interior_fibers
        if radius >= 3:
            assert interior, radius
        parent = {f: f for f in interior}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for fid in sorted(interior, key=repr):
            assert len(g[fid]) == 3, (radius, fid)
            for nb in g[fid]:
                if nb in interior and repr(nb) > repr(fid):
                    ra, rb = find(fid), find(nb)
                    assert ra != rb, (radius, fid, nb)
                    parent[ra] = rb
            checked += 1
    print(f"criterion 3: PASS - {checked} interior fibers over radii 2-6, "
          f"degree exactly 3 and interior fiber graph acyclic")


def test_a04_tunnel_lemma_instances():
    # >= 100 randomized 3-8 tile configurations: add_edge gives adjacency =
    # old union {x, y} exactly and bit-identical tiles outside the halo.
    successes = 0
    attempts = 0
    for seed in range(400):
        if successes >= 100:
            break
        attempts += 1
        rng = random.Random(seed)
        n = rng.randrange(3, 9)
        tree = synthetic_tree(f"random({n},4)", seed=seed)
        try:
            built = tile_tree(tree, Schedule([1], 4), 1,
                              LabelSource(seed, salt="tunnel-acc"))
        except ValueError:
            continue
        tiling = built["tiling"]
        if not 3 <= len(tiling.tile_of) <= 8:
            continue
        old = {frozenset(e) for e in tiling.adjacency()}
        verts = sorted(tiling.tile_of, key=repr)
        done = False
        for u in verts:
            for w in verts:
                if done or repr(u) >= repr(w) or frozenset((u, w)) in old:
                    continue
                commons = [v for v in verts
                           if frozenset((u, v)) in old
                           and frozenset((w, v)) in old]
                for v in commons:
                    try:
                        plan = route_gamma(tiling.tile_of, [u, v, w])
                    except (RoutingError, UnrealizableEdgeError):
                        continue
                    before = {x: tiling.tile_of[x] for x in verts}
                    after = add_edge(tiling, plan)
                    new = {frozenset(e) for e in after.adjacency()}
                    assert new == old | {frozenset((u, w))}, (seed, u, w)
                    halo = plan.halo()
                    for x in verts:
                        assert (before[x].difference(halo).boxes ==
                                after.tile_of[x].difference(halo).boxes), \
                            (seed, x)
                    done = True
                    break
        successes += done
    assert successes >= 100, (successes, attempts)
    print(f"criterion 4: PASS - {successes} routed configurations "
          f"({attempts} sampled): adjacency delta exact, geometry outside "
          f"the tube halo bit-identical")


def test_a05_partition_statistics():
    # 100 seeds on the depth-8 binary canopy (degree bound 3): interior
    # non-singleton first-level frequency >= 1/(2*3) - 3 sigma; class size
    # exactly 2 and class connectivity exact on every run.
    tree = synthetic_tree("binary-canopy(8)")
    schedule = Schedule([1], 3)
    freqs = []
    for seed in range(100):
        levels, report = limit_partitions(tree, schedule, 1,
                                          LabelSource(seed, salt="part-acc"))
        freqs.append(report[1])
        [level] = levels
        for members in level.values():
            assert len(members) == 2
            members = set(members)
            a, b = sorted(members, key=repr)
            assert tree.parent[a] == b or tree.parent[b] == a
        # the grown classes are disjoint and lie in the window; any other
        # vertex is a singleton
        covered = [v for ms in level.values() for v in ms]
        assert len(covered) == len(set(covered))
        assert set(covered) <= set(tree.order)
    mean = statistics.fmean(freqs)
    sigma = (statistics.stdev(freqs) / math.sqrt(len(freqs))
             if len(set(freqs)) > 1 else 0.0)
    bound = Fraction(1, 6)
    assert mean >= float(bound) - 3 * sigma, (mean, sigma)
    print(f"criterion 5: PASS - 100 seeds, interior non-singleton frequency "
          f"{mean:.3f} >= 1/6 - 3*{sigma:.2g}; pair size and connectivity "
          f"exact on every run")


def test_a06_finite_mtp_and_duality():
    # exact rational mass-transport equality on every bundled fixture for
    # the full 8-function battery, before and after reroot + dualization.
    n_fix = n_fn = 0
    for name, g in um.bundled_fixtures().items():
        fam = um.uniform_family(g)
        battery = um.mtp_battery(fam)
        assert len(battery) == 8
        for fn, res in battery.items():
            assert res["equal"], (name, fn, res["lhs"], res["rhs"])
            n_fn += 1
        dual = um.dual_family(um.reroot_to_H(um.bigraph_fixture(g)))
        for fn, res in um.mtp_battery(um.bigraph_samples(dual)).items():
            assert res["equal"], (name, "dual/" + fn)
            n_fn += 1
        n_fix += 1
    print(f"criterion 6: PASS - {n_fix} fixtures x 8 functions x "
          f"(direct + rerooted dual) = {n_fn} exact equalities")


def _bs12_walk_setup():
    win = bs12_ball(6)
    g = nx.Graph()
    for v in win.vertices:
        g.add_node(v)
    for s, d, _ in win.edges:
        g.add_edge(s, d)
    edge_bits = LabelSource(99, salt="omega-perc")
    om = nx.Graph()
    om.add_nodes_from(g)
    for u, v in g.edges():
        if edge_bits.bits(tuple(sorted((u, v)))) % 4:
            om.add_edge(u, v)
    x0 = (0, 0, 0)
    event = um.CylinderEvent(1, om, x0, [(Fraction(0), Fraction(1, 2))])
    labels = {v: LabelSource(11, salt="walk-acc").label(v) for v in g}
    return g, om, x0, event, labels


def test_a07_stationarity_and_birkhoff():
    # exact uniform-stationarity fixed point on every fixture (<= 12
    # vertices); Birkhoff average of a fixed cylinder event over 10^5 steps
    # on the radius-6 window within 3 sigma-hat of the factored product;
    # variance-decay slope <= -0.4 on a 50-trajectory ensemble.
    for name, g in um.bundled_fixtures().items():
        assert len(g) <= 12, name
        assert um.stationarity_check(g, um.omega_fixture(g)), name

    g, om, x0, event, labels = _bs12_walk_setup()
    traj = um.delayed_srw(g, om, x0, 100000, seed=107)
    res = um.birkhoff_average(traj, event, om, labels)
    assert not res["truncated"]
    gap = abs(res["average"] - res["factored_product"])
    assert gap <= 3 * res["sigma_hat"], (gap, res["sigma_hat"])

    ensemble = [um.birkhoff_average(um.delayed_srw(g, om, x0, 400, seed=s),
                                    event, om, labels)["indicators"]
                for s in range(50)]
    decay = um.variance_decay(ensemble)
    assert decay["passes"] and decay["slope"] <= -0.4, decay
    print(f"criterion 7: PASS - stationarity exact on all fixtures; "
          f"|average - factored| = {gap:.4f} <= 3*{res['sigma_hat']:.4f}; "
          f"variance slope {decay['slope']:.2f} <= -0.4 over 50 trajectories")


def test_a08_erosion_oracle():
    # thin() agrees with scipy voxel erosion (exact voxel-set equality) on
    # 200 random lattice-aligned box unions at resolution 2^-6.
    rng = random.Random(20260826)
    p = 6
    pad = box_of(*[(Dyadic(-1, p), Dyadic((1 << p) + 1, p))] * 3)
    for case in range(200):
        boxes = []
        for _ in range(rng.randrange(1, 5)):
            iv = []
            for _ in range(3):
                a = rng.randrange(0, (1 << p) - 4)
                b = rng.randrange(a + 2, 1 << p)
                iv.append((Dyadic(a, p), Dyadic(b, p)))
            boxes.append(tuple(iv))
        bs = BoxSet(boxes)
        thin = bs.thin(p, 1)
        vox, _ = voxelize(bs, p, pad)
        eroded = ndimage.binary_erosion(vox, np.ones((3, 3, 3)),
                                        border_value=0)
        got = (voxelize(thin, p, pad)[0] if not thin.is_empty()
               else np.zeros_like(vox))
        assert np.array_equal(eroded, got), case
    print("criterion 8: PASS - thin == brute-force voxel erosion on 200 "
          "random box unions at 2^-6, exact voxel-set equality")


def overlapping_pairs(regions):
    """Index pairs ``i < j`` of box sets whose interiors meet, from their int
    boxes on one lattice: with every box sorted by its low end on axis 0,
    each is tested against the later ones that start before it ends."""
    e = max((r.exp for r in regions), default=0)
    boxes = sorted((tuple((lo << (e - r.exp), hi << (e - r.exp)) for lo, hi in b), i)
                   for i, r in enumerate(regions) for b in r.ints)
    pairs = set()
    for n, (p, i) in enumerate(boxes):
        for m in range(n + 1, len(boxes)):
            q, j = boxes[m]
            if q[0][0] >= p[0][1]:
                break
            if i != j and all(ql < ph and pl < qh for (pl, ph), (ql, qh) in zip(p, q)):
                pairs.add((min(i, j), max(i, j)))
    return pairs


def test_a09_fractal_window_adjacency():
    # exact disjointness / cover bookkeeping on every tested window, degree
    # histograms reported; then the acyclicity claim: at least one
    # interpretation yields an acyclic window-interior adjacency graph on
    # every tested window.  The two interpretations are mirror images under
    # y -> -y, so on an asymmetric window a cycle under one flag can be
    # absent under the other; the last case below is a symmetric window deep
    # enough to contain a parent-child-grandchild triangle and therefore
    # also its mirror, so both flags are cyclic there.  That failure is
    # structural and is deliberately left to fail.
    def square(half):
        return ((Dyadic(-half), Dyadic(half)), (Dyadic(-half), Dyadic(half)))

    cases = [
        (build_chain(1, -2, 1), square(1)),
        (build_chain(2, -2, 1), square(1)),
        (build_chain(1, -1, 1), square(1)),
        (build_chain(1, -1, 2), square(2)),
        (build_chain(1, -2, 2), ((Dyadic(-1), Dyadic(0)),
                                 (Dyadic(0), Dyadic(1)))),
        (build_chain(1, -2, 2), square(2)),
    ]
    acyclic_failures = []
    for k, (chain, win) in enumerate(cases):
        hists = {}
        any_acyclic = False
        for interp in INTERPRETATIONS:
            pieces = pieces_in_window(chain, win, interp)
            overlaps = overlapping_pairs([p.region for p in pieces])
            assert not overlaps, (k, interp, *min(overlaps))
            rep = adjacency_report(pieces, win, interp)
            assert Fraction(rep["covered_area"]) == \
                sum(p.area for p in pieces), (k, interp)
            assert rep["disconnected_pieces"] == [], (k, interp)
            hists[interp] = rep["degree_histogram"]
            any_acyclic = any_acyclic or rep["acyclic_interior"]
        print(f"criterion 9: window {k}: degree histograms {hists}, "
              f"acyclic under some interpretation: {any_acyclic}")
        if not any_acyclic:
            acyclic_failures.append(k)
    assert not acyclic_failures, (
        "window-interior adjacency is cyclic under every interpretation on "
        f"windows {acyclic_failures}: a parent set's unique child sits at a "
        "corner of its parent, so a grandchild piece can touch the "
        "grandparent piece across a positive-length segment, giving a "
        "parent-child-grandchild triangle; no interpretation flag removes it")


def test_a10_indistinguishability_falsification():
    # 30 seeds at radius 4: no scale-free feature separates interior fiber
    # pieces beyond 3 sigma, per seed or pooled; a single piece stretched
    # x2 along one axis is flagged in 30 of 30 runs.
    window = bs12_ball(4)
    tables = []
    flagged = 0
    for seed in range(30):
        out = assemble_bs12(window, seed=seed)
        fib = out["fibers"]
        pieces = contract_fibers(out["tiling"], fib)
        table = {fid: um.piece_features(piece, len(fib.members[fid]))
                 for fid, piece in pieces.tile_of.items()
                 if fid in fib.interior_fibers}
        assert len(table) >= 2, seed
        stats = um.piece_statistics(table)
        assert not stats["separated"], (seed, stats)
        tables.append(stats)

        fid = sorted(table, key=repr)[0]
        piece = pieces.tile_of[fid]
        doubled = BoxSet([((2 * lo, 2 * hi), yz[0], yz[1])
                          for (lo, hi), *yz in piece.boxes])
        control = dict(table)
        control["control"] = um.piece_features(doubled,
                                               len(fib.members[fid]))
        flagged += um.piece_statistics(control)["separated"]
    pooled = um.pooled_separation(tables)
    assert not pooled["separated"], pooled
    assert flagged == 30, flagged
    print(f"criterion 10: PASS - 30 seeds, no feature beyond 3 sigma "
          f"(per-seed and pooled); doubled-piece control flagged "
          f"{flagged}/30")
