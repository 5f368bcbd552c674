"""Finite windows of the Baumslag-Solitar group BS(1,2) = <a, b | a^-1 b a = b^2>.

An element is the affine map t -> 2^-k t + x it induces on the real line
(k any integer, x dyadic), which makes multiplication exact and the word
problem trivial.  The generator a is t -> t/2, b is t -> t + 1: right
multiplication by a^+-1 moves k by +-1, and by b^+-1 moves x by +-2^-k.
A window vertex is its key ``(k, num, exp)`` with ``x = num * 2^-exp``
normalized; keys are what labels hash and what the artifacts hold.  Every
offset within word distance r of the identity is a multiple of 2^-r, so a
ball of radius r is searched on ``(k, q)`` ints with ``x = q * 2^-r``, and
each vertex's key is made once.  Orbits of b ("fibers") are the level sets
{k = const, x in x0 + 2^-k Z}; on that lattice a member's b-position is a
shift of q, so a fiber's b-segments are runs of consecutive positions.
"""

from __future__ import annotations

from .boxes import ResourceLimit
from .dyadic import pair
from .labels import LabelSource
from .trees import RootedTreeWindow


class CayleyWindow:
    """Ball in the Cayley graph of BS(1,2) with generator-colored edges."""

    def __init__(self, radius: int, vertices, dist, edges):
        self.radius = radius
        self.vertices = sorted(vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.dist = dist  # word distance from the identity
        # edges: list of (src, dst, color) with dst = src * generator(color)
        self.edges = edges

    def to_json(self) -> dict:
        verts = [list(v) for v in self.vertices]
        edges = sorted(
            [self.index[s], self.index[t], c, 1] for s, t, c in self.edges
        )
        return {"vertices": verts, "edges": edges, "radius": self.radius,
                "center": [0, 0, 0]}


def _moves(level: int, q: int, radius: int) -> tuple:
    """``(level, q)`` times a, a^-1, b and b^-1, offsets ``q * 2**-radius``
    (``level <= radius``)."""
    step = 1 << (radius - level)
    return (level + 1, q), (level - 1, q), (level, q + step), (level, q - step)


def bs12_ball(radius: int, cap: int = 500000) -> CayleyWindow:
    """Word-metric ball around the identity by breadth-first enumeration."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    dist = {(0, 0): 0}
    frontier = [(0, 0)]
    for r in range(1, radius + 1):
        nxt = []
        for level, q in frontier:
            for w in _moves(level, q, radius):
                if w not in dist:
                    dist[w] = r
                    nxt.append(w)
        frontier = nxt
        if len(dist) > cap:
            raise ResourceLimit(f"window exceeds cap ({cap} vertices)")
    key = {(level, q): (level, *pair(q, radius)) for level, q in dist}
    edges = []
    for (level, q), v in key.items():
        to_a, _, to_b, _ = _moves(level, q, radius)
        if to_a in key:
            edges.append((v, key[to_a], "a"))
        if to_b in key:
            edges.append((v, key[to_b], "b"))
    edges.sort()
    return CayleyWindow(radius, key.values(),
                        {key[u]: d for u, d in dist.items()}, edges)


class FiberDecomposition:
    """Partition of a window into b-orbit segments and their contact graph.

    The window is a `bs12_ball`, whose edge set is induced: two members of
    a fiber have a b-edge exactly when their b-positions are consecutive.
    So a b-segment, a maximal b-path of the window, is a maximal run of
    consecutive positions within a fiber.
    """

    def __init__(self, window: CayleyWindow):
        # A fiber is a b-coset: all elements (level, offset) with the same
        # level and the same offset residue modulo the b-step 2**-level.  The
        # coset is a group-theoretic object; its trace inside the window may
        # fall apart into several b-path segments, which we track separately.
        # On the window's lattice the offset is q * 2**-radius and the b-step
        # is 2**-level, so the b-position is a shift of q.
        radius = window.radius
        self.fiber_of = {}
        self.members: dict = {}
        self.position = {}  # member -> integer b-coordinate within its coset
        for v in window.vertices:
            level, num, exp = v
            k = radius - level
            q = num << (radius - exp)
            m = q >> k  # offset // 2**-level
            fid = (level, tuple(pair(q - (m << k), radius)))
            self.fiber_of[v] = fid
            self.members.setdefault(fid, []).append(v)
            self.position[v] = m
        # members are sorted, as window.vertices is

        # window b-segments: the runs of consecutive positions
        runs = []
        for group in self.members.values():
            run = []
            for v in sorted(group, key=self.position.__getitem__):
                if run and self.position[v] != self.position[run[-1]] + 1:
                    runs.append(sorted(run))
                    run = []
                run.append(v)
            runs.append(sorted(run))
        runs.sort()  # by least member
        self.segments: dict = {run[0]: run for run in runs}
        self.segment_of = {v: run[0] for run in runs for v in run}

        # fiber contact graph via a-edges between cosets
        self.fiber_edges = set()
        for s, t, c in window.edges:
            if c == "a":
                fs, ft = self.fiber_of[s], self.fiber_of[t]
                if fs != ft:
                    self.fiber_edges.add((min(fs, ft), max(fs, ft)))
        self.fiber_graph = {fid: set() for fid in self.members}
        for f1, f2 in self.fiber_edges:
            self.fiber_graph[f1].add(f2)
            self.fiber_graph[f2].add(f1)
        # A coset has exactly three neighbor cosets in the full graph: the
        # image coset under a (reached from every member) and two preimage
        # cosets under a-inverse, split by the parity of the b-coordinate.
        # The window certainly realizes all three edges once it contains an
        # even-position and an odd-position member at distance <= radius - 1,
        # so such fibers are interior: their degree is exactly 3 and complete.
        self.interior_fibers = frozenset(
            fid for fid, grp in self.members.items()
            if any(window.dist[v] <= window.radius - 1
                   and self.position[v] % 2 == 0 for v in grp)
            and any(window.dist[v] <= window.radius - 1
                    and self.position[v] % 2 == 1 for v in grp)
        )

    def degrees(self, fiber_ids=None) -> dict:
        ids = self.members if fiber_ids is None else fiber_ids
        return {fid: len(self.fiber_graph[fid]) for fid in ids}


def fibers(window: CayleyWindow) -> FiberDecomposition:
    return FiberDecomposition(window)


def _apex(window: CayleyWindow, labels: LabelSource) -> tuple:
    top = max(v[0] for v in window.vertices)
    return labels.choose_min([v for v in window.vertices if v[0] == top])


def fiber_spanning_tree(window: CayleyWindow, fib: FiberDecomposition,
                        labels: LabelSource) -> RootedTreeWindow:
    """Spanning tree containing every fiber's b-path plus one a-edge per fiber.

    Contracting the fibers of this tree reproduces the window's fiber contact
    graph exactly, which is what the downstream fiber-piece pipeline needs.
    The tree does not record where the window truncates the group: that
    qualifies only the boundary-adjacent pieces, which the fiber interiority
    criterion (`FiberDecomposition.interior_fibers`) already sets apart.
    """
    apex = _apex(window, labels)
    root_seg = fib.segment_of[apex]
    # contact graph of the window's b-segments; it need not be a tree, so take
    # a breadth-first spanning tree from the apex segment
    seg_edges: dict = {}
    for s, t, c in window.edges:
        if c != "a":
            continue
        ss, st = fib.segment_of[s], fib.segment_of[t]
        if ss != st:
            seg_edges.setdefault((min(ss, st), max(ss, st)), []).append((s, t))
    seg_adj = {sid: set() for sid in fib.segments}
    for s1, s2 in seg_edges:
        seg_adj[s1].add(s2)
        seg_adj[s2].add(s1)
    sorder = [root_seg]
    sparent = {root_seg: None}
    for f in sorder:
        for g in sorted(seg_adj[f]):
            if g not in sparent:
                sparent[g] = f
                sorder.append(g)
    if len(sorder) != len(fib.segments):
        raise ValueError("segment contact graph is disconnected")
    # tree edges: all b-edges, plus per segment the label-minimal a-edge to
    # its spanning-tree parent segment.  Rooted at the apex, that a-edge's
    # endpoint in the segment hangs from its other endpoint, and the rest of
    # the segment's run of positions hangs toward it (toward the apex in the
    # root segment).
    parent_map = {}
    for f in sorder:
        pf = sparent[f]
        anchor = apex
        if pf is not None:
            s, t = labels.choose_min(seg_edges[(min(f, pf), max(f, pf))])
            anchor, above = (s, t) if fib.segment_of[s] == f else (t, s)
            parent_map[anchor] = above
        run = sorted(fib.segments[f], key=fib.position.__getitem__)
        j = run.index(anchor)
        parent_map.update(zip(run[:j], run[1:j + 1]))
        parent_map.update(zip(run[j + 1:], run[j:]))
    return RootedTreeWindow(apex, parent_map)
