"""Nested dyadic partitions of rooted tree windows.

The construction grows, in stages i = 1, 2, ..., partitions whose classes
are connected vertex sets of size exactly 2^{n_i} (or singletons), refining
earlier stages so that no later class cuts a surviving earlier class.  Stage
sizes n_i must grow fast enough relative to the degree bound for the fraction
of vertices caught in non-singleton classes to stay bounded below.

A level holds only its grown classes, class id -> members; a vertex in none
of them is a singleton of that level.
"""

from __future__ import annotations

import math

from .labels import LabelSource
from .trees import RootedTreeWindow


class ScheduleError(ValueError):
    pass


class InfeasibleGrowth(RuntimeError):
    """Window truncation prevented a class from reaching its target size."""


class Schedule:
    """Strictly increasing stage sizes with ratio gaps > 3 + 2 ln d."""

    def __init__(self, n_values, degree_bound):
        self.n_values = list(int(n) for n in n_values)
        self.degree_bound = int(degree_bound)
        if self.degree_bound < 2:
            raise ScheduleError("degree bound must be >= 2")
        if any(n <= 0 for n in self.n_values):
            raise ScheduleError("stage sizes must be positive")
        threshold = 3 + 2 * math.log(self.degree_bound)
        for a, b in zip(self.n_values, self.n_values[1:]):
            if b <= a or b / a <= threshold:
                raise ScheduleError(
                    f"schedule ratio {b}/{a} must exceed 3 + 2 ln d = {threshold:.4f}"
                )

    def __repr__(self):
        return f"Schedule({self.n_values}, d={self.degree_bound})"


def index_classes(levels: list) -> dict:
    """Each vertex -> the classes of ``levels`` holding it, as ``(rank,
    members)`` pairs, outermost first.  The rank orders all the classes by
    size, largest first, and within a level by their order there: stage
    sizes grow, so that is the latest level first."""
    held = {}
    rank = 0
    for level in reversed(levels):
        for ms in level.values():
            for v in ms:
                held.setdefault(v, []).append((rank, ms))
            rank += 1
    return held


def grow_class(tree: RootedTreeWindow, region: set, x, target: int,
               held: dict, labels: LabelSource) -> set:
    """Grow a connected class of exactly ``target`` vertices inside
    ``region``, the at least ``target`` vertices of T_x that this stage has
    not yet peeled; ``held`` is `index_classes` of the earlier stages.

    One vertex is added at a time.  Whenever the current set cuts an earlier
    class, the smallest cut class is completed before free growth resumes;
    free growth takes the label-minimal frontier vertex whose commitment
    (the outermost earlier class it belongs to) still fits in the budget.
    """
    meets = {r: ms for v in region for r, ms in held.get(v, ())}
    fits = {r for r, ms in meets.items() if ms <= region}
    # the earlier classes inside the region, largest first; a vertex whose
    # outermost class straddles the region maps to None, since entering it
    # would be unrecoverable
    completable = [meets[r] for r in sorted(fits)]
    outermost = {}
    for v in region:
        if v in held:
            r, ms = held[v][0]
            outermost[v] = ms if r in fits else None

    c = {x}
    adj = {}

    def neighbors(v):
        if v not in adj:
            adj[v] = [w for w in ([tree.parent[v]] + tree.children[v])
                      if w is not None and w in region]
        return adj[v]

    if outermost.get(x, "free") is None:
        raise InfeasibleGrowth(f"seed {x!r} lies in a window-straddling class")
    if x in outermost and len(outermost[x]) > target:
        raise InfeasibleGrowth(f"seed {x!r} committed to an oversized class")

    while len(c) < target:
        cut = [ms for ms in completable
               if not ms.isdisjoint(c) and not ms.issubset(c)]
        if cut:
            smallest = min(cut, key=len)
            cands = [v for v in smallest if v not in c
                     and any(w in c for w in neighbors(v))]
        else:
            frontier = set()
            for v in c:
                frontier.update(w for w in neighbors(v) if w not in c)
            cands = []
            for v in frontier:
                om = outermost.get(v, "free")
                if om is None:
                    continue
                cost = 1 if om == "free" else len(om - c)
                if len(c) + cost <= target:
                    cands.append(v)
            if not cands:
                raise InfeasibleGrowth(
                    f"no feasible frontier vertex at size {len(c)}/{target} from {x!r}"
                )
        by_repr = {repr(v): v for v in cands}
        c.add(by_repr[labels.choose_min(by_repr)])
    return c


def build_stage(tree: RootedTreeWindow, schedule: Schedule, levels: list,
                i: int, labels: LabelSource) -> None:
    """Run stage i and append its level to ``levels``: one sweep up the tree
    grows one class under every leaf of S_{n_i}, the vertices whose live
    subtree has at least 2^{n_i} elements, and peels its subtree.

    Children come before parents, so a vertex's live size is final when the
    sweep reaches it, and if that size reaches 2^{n_i} the vertex is a leaf
    of S in the round after the last peel below it (round 1 when there is
    none), because until that peel some child keeps a live size of at least
    2^{n_i}.  The class id records that round, as a loop peeling the whole
    leaf set of S round by round would.
    """
    n = schedule.n_values[i - 1]
    target = 1 << n
    d = schedule.degree_bound
    held = index_classes(levels)
    size = dict.fromkeys(tree.order, 1)  # live subtree sizes; peeled 0
    last = dict.fromkeys(tree.order, 0)  # latest peel round in the subtree
    grown = []
    for x in reversed(tree.order):
        p = tree.parent[x]
        if p is None:
            break  # the root comes first in preorder, so last here
        if size[x] >= target:
            assert target <= size[x] <= 1 + (d - 1) * target, (
                f"leaf-set size bound violated at {x!r}: {size[x]}"
            )
            last[x] += 1  # x's round, now the latest in its subtree
            region = set()
            stk = [x]
            while stk:
                v = stk.pop()
                region.add(v)
                stk.extend(c for c in tree.children[v] if size[c])
            try:
                grown.append((last[x], repr(x),
                               grow_class(tree, region, x, target, held, labels)))
            except InfeasibleGrowth:
                pass  # x's subtree stays singletons at this stage
            size[x] = 0
        size[p] += size[x]
        last[p] = max(last[p], last[x])
    # grow_class reads only earlier stages, so the sweep may grow the classes
    # in any order; the next stage reads their order (min(cut, key=len) takes
    # the first of equal sizes), so they go in by round, then by repr
    grown.sort(key=lambda g: g[:2])
    new_classes = {("c", i, k, rx): frozenset(cx) for k, rx, cx in grown}

    # refinement: an earlier class cut by a new class falls back to
    # singletons; the new classes are disjoint, so a class is cut exactly
    # when its members have more than one owner, counting "no new class" as
    # one
    owner = {v: cid for cid, cx in new_classes.items() for v in cx}
    for level in levels:
        for cid, ms in list(level.items()):
            if len({owner.get(v) for v in ms}) > 1:
                del level[cid]
    levels.append(new_classes)


def limit_partitions(tree: RootedTreeWindow, schedule: Schedule, stages: int,
                     labels: LabelSource):
    """Run all stages; return (levels, per-level non-singleton fraction).

    ``levels[i - 1]`` maps the id of each standing class of stage i to its
    members, in the order the stages grew them."""
    if stages < 1 or stages > len(schedule.n_values):
        raise ScheduleError("stages out of range for the schedule")
    levels = []
    for i in range(1, stages + 1):
        build_stage(tree, schedule, levels, i, labels)
    n = max(len(tree.order), 1)
    report = {i: sum(map(len, level.values())) / n
              for i, level in enumerate(levels, 1)}
    return levels, report
