"""Partition stages: exact class sizes, connectivity, refinement audit."""

import pytest
from hypothesis import given, settings, strategies as st

from partition_reference import grow_class as rescanning_grow_class
from partition_reference import reference_levels, subtree
from tilelab.bs12 import bs12_ball, fiber_spanning_tree, fibers
from tilelab.labels import LabelSource
from tilelab.partition import (InfeasibleGrowth, Schedule, ScheduleError,
                               grow_class, index_classes, limit_partitions)
from tilelab.trees import synthetic_tree


def connected_in_tree(tree, members):
    members = set(members)
    start = next(iter(members))
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        nbrs = list(tree.children[v])
        if tree.parent[v] is not None:
            nbrs.append(tree.parent[v])
        for u in nbrs:
            if u in members and u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen == members


def test_schedule_growth_condition():
    Schedule([1, 6, 41], 4)
    with pytest.raises(ScheduleError):
        Schedule([1, 5], 4)  # 5/1 <= 3 + 2 ln 4
    with pytest.raises(ScheduleError):
        Schedule([2, 1], 4)
    with pytest.raises(ScheduleError):
        Schedule([0, 6], 4)
    with pytest.raises(ScheduleError):
        Schedule([1, 6], 1)


@pytest.mark.parametrize("descriptor", [
    "path(40)", "binary-canopy(5)", "canopy(3,3)", "spine(8,2)",
    "random(120,4)",
])
def test_class_sizes_and_connectivity(descriptor):
    tree = synthetic_tree(descriptor, seed=3)
    schedule = Schedule([1, 6], 4)
    labels = LabelSource(11, salt="partition-test")
    levels, report = limit_partitions(tree, schedule, 2, labels)
    assert len(levels) == 2
    for n_i, level in zip(schedule.n_values, levels):
        for members in level.values():
            assert len(members) == 1 << n_i
            assert connected_in_tree(tree, members)
        # the grown classes are disjoint and lie in the window; with the
        # singletons of the other vertices they partition it
        covered = [v for ms in level.values() for v in ms]
        assert len(covered) == len(set(covered))
        assert set(covered) <= set(tree.order)


def test_later_stages_do_not_cut_surviving_classes():
    tree = synthetic_tree("binary-canopy(6)", seed=0)
    schedule = Schedule([1, 6], 4)
    (lvl1, lvl2), _ = limit_partitions(tree, schedule, 2, LabelSource(2))
    for c1 in lvl1.values():
        # no grown stage-2 class may cut a surviving stage-1 class
        for c2 in lvl2.values():
            overlap = c1 & c2
            assert not overlap or c1 <= c2


def test_stage_one_pairs_most_of_a_path():
    tree = synthetic_tree("path(64)")
    schedule = Schedule([1], 2)
    _levels, report = limit_partitions(tree, schedule, 1, LabelSource(0))
    assert report[1] > 0.5  # most interior vertices get paired on a path


def test_stages_out_of_range():
    tree = synthetic_tree("path(10)")
    with pytest.raises(ScheduleError):
        limit_partitions(tree, Schedule([1], 2), 2, LabelSource(0))


def test_determinism():
    tree = synthetic_tree("random(90,4)", seed=7)
    schedule = Schedule([1, 6], 4)
    a, _ = limit_partitions(tree, schedule, 2, LabelSource(5))
    b, _ = limit_partitions(tree, schedule, 2, LabelSource(5))
    assert a == b


def assert_matches_reference(tree, labels):
    schedule = Schedule([1, 6], 4)
    levels, _ = limit_partitions(tree, schedule, 2, labels)
    # the order of the classes too: a later stage's growth reads it
    got = [list(level.items()) for level in levels]
    assert got == [list(m.items())
                   for m in reference_levels(tree, schedule, 2, labels)]


@pytest.mark.parametrize("descriptor", [
    "path(40)", "spine(25,1)", "binary-canopy(6)", "random(120,3)",
    "canopy(4,3)", "binary-canopy(4)", "spine(60,2)", "canopy(5,3)",
])
@pytest.mark.parametrize("seed", [0, 3])
def test_stages_match_rebuilding_reference(descriptor, seed):
    tree = synthetic_tree(descriptor, seed=seed)
    assert_matches_reference(tree, LabelSource(seed, salt="tile-tree"))


def test_deep_path_matches_rebuilding_reference():
    assert_matches_reference(synthetic_tree("path(300)"), LabelSource(0))


@pytest.mark.parametrize("radius", [4, 5, 6, 7])
def test_fiber_tree_matches_rebuilding_reference(radius):
    window = bs12_ball(radius)
    labels = LabelSource(0)
    tree = fiber_spanning_tree(window, fibers(window), labels)
    assert_matches_reference(tree, labels)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=300), st.integers(0, 1000))
def test_random_trees_match_rebuilding_reference(n, seed):
    tree = synthetic_tree(f"random({n},4)", seed=seed)
    assert_matches_reference(tree, LabelSource(seed))


def grown_or_raised(grow, *args):
    try:
        return frozenset(grow(*args))
    except InfeasibleGrowth:
        return InfeasibleGrowth


@pytest.mark.parametrize("seed_at, target, outcome", [
    ("top", 8, "raises"),     # the seed is committed to a class of 64
    ("top", 65, "through"),
    ("top", 100, "through"),
    ("above", 8, "beside"),   # entering the class of 64 would overshoot
    ("above", 70, "through"),
    ("above", 128, "through"),
    ("inside", 8, "raises"),  # the stage-2 class straddles the region
])
def test_indexed_growth_matches_rescanning_reference(seed_at, target, outcome):
    # the real stages of binary-canopy(8) nest 23 stage-1 classes in the
    # first stage-2 class, so growing over them reads two earlier classes
    # per vertex; only a third stage does that, and its classes of 2^22 or
    # more vertices are out of every test window's reach
    tree = synthetic_tree("binary-canopy(8)")
    labels = LabelSource(0)
    levels, _ = limit_partitions(tree, Schedule([1, 6], 3), 2, labels)
    outer = next(iter(levels[1].values()))
    inner = [ms for ms in levels[0].values() if ms <= outer]
    top = min(outer, key=lambda v: tree.depth[v])
    x = {"top": top, "above": tree.parent[top],
         "inside": tree.children[top][0]}[seed_at]
    region = set(subtree(tree, x))
    assert inner and any(ms & region for ms in inner)

    got = grown_or_raised(grow_class, tree, region, x, target,
                          index_classes(levels), labels)
    assert got == grown_or_raised(rescanning_grow_class, tree, region, x,
                                  target, levels, labels)
    if outcome == "raises":
        assert got is InfeasibleGrowth
    elif outcome == "beside":
        assert len(got) == target and got.isdisjoint(outer)
    else:
        assert len(got) == target and all(ms <= got for ms in [outer, *inner])
