"""Mass transport, duality, delayed walks, and ergodic averaging."""

import subprocess
import sys
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import battery_reference as ref
import tilelab.unimodular as um


def families():
    return {name: um.uniform_family(g)
            for name, g in um.bundled_fixtures().items()}


def test_family_weights():
    for fam in families().values():
        assert sum(s.weight for s in fam) == 1


def test_mtp_exact_on_uniform_families():
    for name, fam in families().items():
        for fn, res in um.mtp_battery(fam).items():
            assert res["equal"], f"{name}/{fn}: {res['lhs']} != {res['rhs']}"


def test_mtp_detects_biased_rooting():
    # rooting a path at a fixed endpoint is not unimodular: the
    # neighbor-degree transport must come out asymmetric
    g = nx.path_graph(3)
    for v in g:
        g.nodes[v]["mark"] = 0
    for e in g.edges:
        g.edges[e]["color"] = "a"
    fam = [um.RootedSample(g, 0, Fraction(1))]
    res = um.mtp_battery(fam)
    assert not res["neighbor_degree"]["equal"]


def dual_samples(g):
    return um.bigraph_samples(um.dual_family(um.reroot_to_H(um.bigraph_fixture(g))))


def test_battery_matches_per_call_reference_on_fixtures():
    for name, g in um.bundled_fixtures().items():
        for fam in (um.uniform_family(g), dual_samples(g)):
            assert (um.mtp_battery(fam)
                    == ref.mtp_battery(ref.networkx_samples(fam))), name


def test_fixtures_equal_their_networkx_generators():
    def plain(g):
        return (list(g), list(um._edges(g)),
                [g.nodes[v]["mark"] for v in g],
                [g.adj[u][v]["color"] for u, v in um._edges(g)])

    def generated(h):
        return (list(h), list(h.edges), [h.nodes[v]["mark"] for v in h],
                [h.edges[e]["color"] for e in h.edges])

    ours, theirs = um.bundled_fixtures(), ref.fixtures()
    assert list(ours) == list(theirs)
    for name, g in ours.items():
        h = theirs[name]
        assert plain(g) == generated(h), name
        assert plain(um.omega_fixture(g)) == generated(ref.omega_fixture(h)), name
        family = um.bigraph_fixture(g)
        assert [w.bigraph.root for w in family] == sorted(h, key=repr)
        assert {w.weight for w in family} == {Fraction(1, len(h))}
        for w in family:
            assert w.bigraph.primary is g
            assert (plain(w.bigraph.secondary)
                    == generated(ref.bigraph_secondary(h))), name


def test_battery_matches_per_call_reference_on_biased_path():
    g = nx.path_graph(3)
    for v in g:
        g.nodes[v]["mark"] = 0
    for e in g.edges:
        g.edges[e]["color"] = "a"
    for root in g:
        fam = [um.RootedSample(g, root, Fraction(1))]
        assert um.mtp_battery(fam) == ref.mtp_battery(fam)


@st.composite
def decorated_graphs(draw):
    n = draw(st.integers(1, 7))
    g = nx.Graph()
    g.add_nodes_from(range(n))
    pairs = [(u, v) for u in range(n) for v in range(u, n)]  # self-loops too
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=12)):
        color = draw(st.sampled_from(["a", "b", "c", 0, None]))
        if color is None:
            g.add_edge(u, v)  # no color attribute at all
        else:
            g.add_edge(u, v, color=color)
    for v in g:
        mark = draw(st.sampled_from([0, 1, None]))
        if mark is not None:
            g.nodes[v]["mark"] = mark
    return g


@st.composite
def weighted_families(draw):
    graphs = draw(st.lists(decorated_graphs(), min_size=1, max_size=3))
    samples = []
    for _ in range(draw(st.integers(1, 6))):
        g = draw(st.sampled_from(graphs))
        root = draw(st.sampled_from(sorted(g)))
        weight = draw(st.fractions(min_value=0, max_value=3, max_denominator=9))
        samples.append(um.RootedSample(g, root, weight))
    return samples


@settings(max_examples=80, deadline=None)
@given(weighted_families())
def test_battery_matches_per_call_reference_on_random_graphs(samples):
    assert um.mtp_battery(samples) == ref.mtp_battery(samples)


@settings(max_examples=200, deadline=None)
@given(decorated_graphs(), decorated_graphs(), st.integers(0, 3))
def test_one_ball_matcher_matches_vf2_on_random_graphs(g, h, r):
    # rooted r-balls on one graph (x, y in g) and on two (x in g, y in h)
    for other in (g, h):
        for x in g:
            for y in other:
                assert (um._balls_isomorphic(g, x, other, y, r)
                        == ref._rooted_ball_isomorphic(g, x, other, y, r)), (x, y)


def two_stars(ring0, ring1, leaves=7):
    """Stars centred at 0 and 100 with ``leaves`` leaves each, all of one
    mark and color, plus the edges ``ring0`` among the first star's leaves
    1, 2, ... and ``ring1`` among the second's 101, 102, ..."""
    g = nx.Graph()
    for c, ring in ((0, ring0), (100, ring1)):
        g.add_node(c, mark=0)
        for k in range(1, leaves + 1):
            g.add_node(c + k, mark=1)
            g.add_edge(c, c + k, color="a")
        for u, v, *color in ring:
            g.add_edge(c + u, c + v, color=color[0] if color else "b")
    return g


def cycle(*leaves):
    return [(u, v) for u, v in zip(leaves, leaves[1:] + leaves[:1])]


@pytest.mark.parametrize("ring0, ring1, same", [
    ([], [], True),
    (cycle(1, 2, 3, 4, 5, 6, 7), cycle(1, 3, 5, 7, 2, 4, 6), True),
    (cycle(1, 2, 3, 4, 5, 6, 7), cycle(1, 2, 3) + cycle(4, 5, 6, 7), False),
    (cycle(1, 2, 3, 4, 5, 6, 7),
     cycle(1, 2, 3, 4, 5, 6, 7)[:-1] + [(7, 1, "c")], False),
    ([(1, 1), (2, 3)], [(6, 7), (4, 4)], True),
    ([(1, 1), (1, 2)], [(6, 7), (4, 4)], False),
    ([(1, 1)], [], False),
    ([(1, 1, "b")], [(7, 7, "c")], False),
])
def test_one_ball_matcher_backtracks_over_alike_leaves(ring0, ring1, same):
    g = two_stars(ring0, ring1)
    assert ref._rooted_ball_isomorphic(g, 0, g, 100, 1) == same
    assert um._balls_isomorphic(g, 0, g, 100, 1) == same
    assert um._balls_isomorphic(g, 100, g, 0, 1) == same


def test_ball_matcher_takes_balls_past_the_recursion_limit():
    # a path's ball from one end, against the same path numbered backwards
    n = sys.getrecursionlimit() + 10
    g = um.Graph({v: {} for v in range(n)}, [(v, v + 1, {}) for v in range(n - 1)])
    h = um.Graph({v: {} for v in range(n)}, [(v + 1, v, {}) for v in range(n - 1)])
    assert um._balls_isomorphic(g, 0, h, n - 1, n)
    assert not um._balls_isomorphic(g, 0, h, n - 2, n)


def test_battery_builds_no_ball_and_decides_each_edge_once(monkeypatch):
    decided = []
    decide = um._balls_isomorphic

    def counting(g, x, h, y, r):
        assert h is g and r == 1
        decided.append((id(g), frozenset((x, y))))
        return decide(g, x, h, y, r)

    monkeypatch.setattr(um, "_balls_isomorphic", counting)
    for g in um.bundled_fixtures().values():
        for fam in (um.uniform_family(g), dual_samples(g)):
            edges = {(id(s.graph), frozenset(e))
                     for s in fam for e in um._edges(s.graph)}
            decided.clear()
            um.mtp_battery(fam)
            assert decided and len(decided) == len(set(decided))
            assert set(decided) <= edges
            if fam[0].graph is g:  # uniform rooting reaches every edge
                assert set(decided) == edges


def test_battery_manifest():
    import json
    doc = json.loads(um.battery_manifest())
    assert doc["version"] == um.F_BATTERY_VERSION
    assert len(doc["functions"]) == 8
    assert len({f["name"] for f in doc["functions"]}) == 8


def test_duality_suite():
    for name, g in um.bundled_fixtures().items():
        fam = um.bigraph_fixture(g)
        rerooted = um.reroot_to_H(fam)
        assert sum((w.weight for w in rerooted), Fraction(0)) == 1
        dual = um.dual_family(rerooted)
        for fn, res in um.mtp_battery(um.bigraph_samples(dual)).items():
            assert res["equal"], f"{name}/{fn}"


def test_reroot_zero_mass_raises():
    g = nx.path_graph(4)
    secondary = g.subgraph([0]).copy()
    fam = [um.WeightedBigraph(um.Bigraph(g, secondary, 3), Fraction(1))]
    with pytest.raises(ValueError):
        um.reroot_to_H(fam)


def test_check_searches_each_fixture_graph_once(tmp_path, monkeypatch):
    # one connectivity search (a search with no cutoff) per fixture graph
    # and per decoration graph; the family members and their duals share
    # both graphs, and the battery's 1-ball searches pass a cutoff
    import tilelab.cli as cli

    searched = []
    search = um._distances

    def counting(g, root, cutoff=None):
        if cutoff is None:
            searched.append(g)
        return search(g, root, cutoff)

    monkeypatch.setattr(um, "_distances", counting)
    assert cli.main(["check", "--out", str(tmp_path)]) == 0
    assert len(um.bundled_fixtures()) == 5
    assert len(searched) == 10


def test_disconnected_graphs_are_refused():
    path, two = nx.path_graph(3), nx.Graph([(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="primary graph must be connected"):
        um.Bigraph(two, path, 0)
    with pytest.raises(ValueError, match="secondary graph must be connected"):
        um.Bigraph(path, two, 0)
    with pytest.raises(ValueError, match="primary graph must be connected"):
        um.bigraph_fixture(um.Graph({v: {} for v in two}, [(0, 1, {}), (2, 3, {})]))


def test_stationarity_exact():
    for name, g in um.bundled_fixtures().items():
        om = um.omega_fixture(g)
        assert um.stationarity_check(g, om), name
    # uniform is not stationary for the delayed walk on an irregular graph
    star = nx.star_graph(3)
    assert not um.stationarity_check(star, star)


def test_delayed_walk_moves_only_on_omega():
    g = um.bundled_fixtures()["cycle6"]
    om = um.omega_fixture(g)
    traj = um.delayed_srw(g, om, 0, 500, seed=1)
    for x, y in zip(traj, traj[1:]):
        assert x == y or y in om.adj[x]
    assert traj == um.delayed_srw(g, om, 0, 500, seed=1)
    assert traj != um.delayed_srw(g, om, 0, 500, seed=2)


def cube_setup():
    g = um.bundled_fixtures()["cube"]
    om = um.omega_fixture(g)
    labels = {v: Fraction(i, 8) for i, v in enumerate(sorted(g, key=repr))}
    x0 = sorted(om, key=repr)[0]
    event = um.CylinderEvent(1, om, x0, [(Fraction(0), Fraction(1, 2))])
    return g, om, labels, x0, event


def test_birkhoff_average_within_error_bar():
    g, om, labels, x0, event = cube_setup()
    traj = um.delayed_srw(g, om, x0, 20000, seed=7)
    res = um.birkhoff_average(traj, event, om, labels)
    assert not res["truncated"]
    assert res["sigma_hat"] > 0
    assert abs(res["average"] - res["factored_product"]) <= 3 * res["sigma_hat"]


def test_birkhoff_truncates_at_unsafe_states():
    g, om, labels, x0, event = cube_setup()
    traj = um.delayed_srw(g, om, x0, 2000, seed=3)
    safe = {x0} | set(g.adj[x0])
    res = um.birkhoff_average(traj, event, om, labels, safe=safe)
    assert res["truncated"]
    assert res["n"] < len(traj)


def test_cylinder_event_validation():
    with pytest.raises(ValueError):
        um.CylinderEvent(1, None, None, [(Fraction(1, 2), Fraction(3, 2))])
    ev = um.CylinderEvent(0, None, None,
                          [(0, Fraction(1, 4)), (Fraction(1, 2), 1)])
    assert ev.label_measure() == Fraction(3, 4)
    assert ev.label_holds(Fraction(0)) and not ev.label_holds(Fraction(1, 4))


def test_variance_decay():
    g, om, labels, x0, event = cube_setup()
    ensemble = []
    for s in range(55):
        traj = um.delayed_srw(g, om, x0, 400, seed=s)
        ensemble.append(um.birkhoff_average(traj, event, om,
                                            labels)["indicators"])
    out = um.variance_decay(ensemble)
    assert out["passes"] and out["slope"] <= -0.4


def test_variance_decay_requirements():
    with pytest.raises(ValueError):
        um.variance_decay([[0, 1]] * 10)
    degenerate = um.variance_decay([[1] * 100] * 60)
    assert degenerate["degenerate"] and degenerate["passes"]


def test_piece_statistics_flags_outlier():
    table = {k: {"boxes_per_member": 2.0 + 0.01 * k,
                 "elongation": 1.0} for k in range(8)}
    clean = um.piece_statistics(table)
    assert not clean["separated"]
    table["control"] = {"boxes_per_member": 2.0, "elongation": 2.0}
    assert um.piece_statistics(table)["separated"]


def test_pooled_separation():
    tables = []
    for s in range(5):
        table = {k: {"boxes_per_member": 2.0 + 0.01 * (s + k),
                     "elongation": 1.0} for k in range(4)}
        tables.append(um.piece_statistics(table))
    pooled = um.pooled_separation(tables)
    assert not pooled["separated"]


def test_import_defers_networkx_to_the_graph_suites():
    script = "\n".join([
        "import sys, tilelab.unimodular as um",
        "assert 'networkx' not in sys.modules",
        "g = um.bundled_fixtures()['petersen']",
        "res = um.mtp_battery(um.uniform_family(g))",
        "assert len(res) == 8 and all(r['equal'] for r in res.values()), res",
        "assert 'networkx' not in sys.modules, 'battery'",
        "dual = um.dual_family(um.reroot_to_H(um.bigraph_fixture(g)))",
        "res = um.mtp_battery(um.bigraph_samples(dual))",
        "assert len(res) == 8 and all(r['equal'] for r in res.values()), res",
        "assert 'networkx' not in sys.modules, 'duality'",
        "om = um.omega_fixture(g)",
        "assert um.stationarity_check(g, om)",
        "assert 'networkx' not in sys.modules, 'stationarity'",
        "from fractions import Fraction",
        "event = um.CylinderEvent(2, om, 0, [(Fraction(0), Fraction(1, 2))])",
        "assert event.pattern_holds(om, 0)",
        "labels = {v: Fraction(v, len(g)) for v in g}",
        "traj = um.delayed_srw(g, om, 0, 200, seed=1)",
        "res = um.birkhoff_average(traj, event, om, labels)",
        "assert res['n'] == len(traj) and 0 < sum(res['indicators']), res",
        "assert 'networkx' not in sys.modules, 'cylinder events'",
    ])
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
