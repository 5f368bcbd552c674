"""Partition stages: exact class sizes, connectivity, refinement audit."""

import pytest
from hypothesis import given, settings, strategies as st

from partition_reference import reference_levels
from tilelab.bs12 import bs12_ball, fiber_spanning_tree, fibers
from tilelab.labels import LabelSource
from tilelab.partition import (InfeasibleGrowth, Schedule, ScheduleError,
                               limit_partitions)
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
    stack, report = limit_partitions(tree, schedule, 2, labels)
    assert len(stack.levels) == 2
    for lvl in stack.levels:
        n_i = schedule.n_values[lvl.level_index - 1]
        for members in lvl.nonsingleton_classes().values():
            assert len(members) == 1 << n_i
            assert connected_in_tree(tree, members)
        # classes partition the vertex set
        covered = [v for ms in lvl.class_members.values() for v in ms]
        assert sorted(covered, key=repr) == sorted(tree.order, key=repr)


def test_later_stages_do_not_cut_surviving_classes():
    tree = synthetic_tree("binary-canopy(6)", seed=0)
    schedule = Schedule([1, 6], 4)
    stack, _ = limit_partitions(tree, schedule, 2, LabelSource(2))
    lvl1, lvl2 = stack.levels
    for c1 in lvl1.nonsingleton_classes().values():
        # no grown stage-2 class may cut a surviving stage-1 class
        for c2 in lvl2.nonsingleton_classes().values():
            overlap = c1 & c2
            assert not overlap or c1 <= c2


def test_stage_one_pairs_most_of_a_path():
    tree = synthetic_tree("path(64)")
    schedule = Schedule([1], 2)
    stack, report = limit_partitions(tree, schedule, 1, LabelSource(0))
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
    for la, lb in zip(a.levels, b.levels):
        assert la.class_members == lb.class_members


def assert_matches_reference(tree, labels):
    schedule = Schedule([1, 6], 4)
    stack, _ = limit_partitions(tree, schedule, 2, labels)
    # the order of the classes too: a later stage's growth reads it
    got = [list(lvl.class_members.items()) for lvl in stack.levels]
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
