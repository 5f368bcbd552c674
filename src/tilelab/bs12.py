"""Finite windows of the Baumslag-Solitar group BS(1,2) = <a, b | a^-1 b a = b^2>.

Group elements are stored as the affine maps t -> 2^-k t + q they induce on
the real line (k any integer, q dyadic), which makes multiplication exact and
the word problem trivial.  The generator a is t -> t/2, b is t -> t + 1.
Orbits of b ("fibers") are the level sets {k = const, q in q0 + 2^-k Z}.
"""

from __future__ import annotations

from functools import lru_cache

from .boxes import ResourceLimit
from .canon import find, join
from .dyadic import Dyadic, ZERO
from .labels import LabelSource
from .trees import RootedTreeWindow


class BsElement:
    """The affine map t -> 2^-level * t + offset, offset dyadic."""

    __slots__ = ("level", "offset")

    def __init__(self, level: int, offset=ZERO):
        object.__setattr__(self, "level", int(level))
        object.__setattr__(self, "offset", Dyadic.coerce(offset))

    def __setattr__(self, *a):
        raise AttributeError("BsElement is immutable")

    def __mul__(self, other: "BsElement") -> "BsElement":
        # composition: (g*h)(t) = g(h(t))
        scaled = other.offset.scale(-self.level)
        return BsElement(self.level + other.level, scaled + self.offset)

    def inverse(self) -> "BsElement":
        return BsElement(-self.level, -self.offset.scale(self.level))

    def key(self):
        return (self.level, *self.offset.as_pair())

    def __eq__(self, other):
        return isinstance(other, BsElement) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"BsElement(level={self.level}, offset={self.offset})"


IDENTITY = BsElement(0, 0)
GEN_A = BsElement(1, 0)
GEN_B = BsElement(0, 1)


class CayleyWindow:
    """Ball in the Cayley graph of BS(1,2) with generator-colored edges."""

    def __init__(self, radius: int, vertices, dist, edges):
        self.radius = radius
        self.vertices = sorted(vertices, key=BsElement.key)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.dist = dist  # word distance from the identity
        # edges: list of (src, dst, color) with dst = src * generator(color)
        self.edges = edges
        self._adj = None

    def adjacency(self) -> dict:
        if self._adj is None:
            adj = {v: [] for v in self.vertices}
            for s, t, c in self.edges:
                adj[s].append((t, c, +1))
                adj[t].append((s, c, -1))
            self._adj = adj
        return self._adj

    def neighbors(self, v):
        return [t for t, _c, _o in self.adjacency()[v]]

    def to_json(self) -> dict:
        verts = [list(v.key()) for v in self.vertices]
        edges = sorted(
            [self.index[s], self.index[t], c, 1] for s, t, c in self.edges
        )
        return {"vertices": verts, "edges": edges, "radius": self.radius,
                "center": list(IDENTITY.key())}


def bs12_ball(radius: int, cap: int = 500000) -> CayleyWindow:
    """Word-metric ball around the identity by breadth-first enumeration."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    gens = [GEN_A, GEN_A.inverse(), GEN_B, GEN_B.inverse()]
    dist = {IDENTITY: 0}
    frontier = [IDENTITY]
    for r in range(1, radius + 1):
        nxt = []
        for v in frontier:
            for g in gens:
                w = v * g
                if w not in dist:
                    dist[w] = r
                    nxt.append(w)
        frontier = nxt
        if len(dist) > cap:
            raise ResourceLimit(f"window exceeds cap ({cap} vertices)")
    vset = set(dist)
    edges = []
    for v in vset:
        for g, color in ((GEN_A, "a"), (GEN_B, "b")):
            w = v * g
            if w in vset:
                edges.append((v, w, color))
    edges.sort(key=lambda e: (e[0].key(), e[1].key(), e[2]))
    return CayleyWindow(radius, vset, dist, edges)


class FiberDecomposition:
    """Partition of a window into b-orbit segments and their contact graph."""

    def __init__(self, window: CayleyWindow):
        # A fiber is a b-coset: all elements (level, offset) with the same
        # level and the same offset residue modulo the b-step 2**-level.  The
        # coset is a group-theoretic object; its trace inside the window may
        # fall apart into several b-path segments, which we track separately.
        self.fiber_of = {}
        self.members: dict = {}
        self.position = {}  # member -> integer b-coordinate within its coset
        for v in window.vertices:
            m = v.offset.scale(v.level).floor()  # offset // 2**-level
            residue = v.offset - Dyadic(m).scale(-v.level)
            fid = (v.level, tuple(residue.as_pair()))
            self.fiber_of[v] = fid
            self.members.setdefault(fid, []).append(v)
            self.position[v] = m
        for grp in self.members.values():
            grp.sort(key=BsElement.key)

        # window b-segments (maximal b-paths actually present)
        parent = {v: v for v in window.vertices}
        b_deg = {v: 0 for v in window.vertices}
        for s, t, c in window.edges:
            if c == "b":
                b_deg[s] += 1
                b_deg[t] += 1
                join(parent, s, t)
        if any(d > 2 for d in b_deg.values()):
            raise ValueError("a vertex has more than two b-edges; corrupted window")
        seg_members: dict = {}
        for v in window.vertices:
            seg_members.setdefault(find(parent, v), []).append(v)
        self.segments: dict = {}
        self.segment_of = {}
        for group in seg_members.values():
            group.sort(key=BsElement.key)
            sid = group[0].key()
            self.segments[sid] = group
            for v in group:
                self.segment_of[v] = sid

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


def _apex(window: CayleyWindow, labels: LabelSource) -> BsElement:
    top = max(v.level for v in window.vertices)
    cands = [v for v in window.vertices if v.level == top]
    key = labels.choose_min([v.key() for v in cands])
    return next(v for v in cands if v.key() == key)


@lru_cache(maxsize=None)
def _from_key(key) -> BsElement:
    level, num, exp = key
    return BsElement(level, Dyadic(num, exp))


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
    head = 0
    while head < len(sorder):
        f = sorder[head]
        head += 1
        for g in sorted(seg_adj[f]):
            if g not in sparent:
                sparent[g] = f
                sorder.append(g)
    if len(sorder) != len(fib.segments):
        raise ValueError("segment contact graph is disconnected")
    # tree edges: all b-edges, plus per segment the label-minimal a-edge to
    # its spanning-tree parent segment
    tree_adj = {v: set() for v in window.vertices}
    for s, t, c in window.edges:
        if c == "b":
            tree_adj[s].add(t)
            tree_adj[t].add(s)
    for f in sorder:
        pf = sparent[f]
        if pf is None:
            continue
        conns = seg_edges[(min(f, pf), max(f, pf))]
        pick_key = labels.choose_min([(s.key(), t.key()) for s, t in conns])
        s, t = _from_key(tuple(pick_key[0])), _from_key(tuple(pick_key[1]))
        tree_adj[s].add(t)
        tree_adj[t].add(s)
    # root the vertex tree at the apex
    d = {apex: None}
    order = [apex]
    head = 0
    parent_map = {}
    while head < len(order):
        v = order[head]
        head += 1
        for w in sorted(tree_adj[v], key=BsElement.key):
            if w not in d:
                d[w] = v
                parent_map[w.key()] = v.key()
                order.append(w)
    if len(order) != len(window.vertices):
        raise ValueError("fiber spanning tree failed to span the window")
    return RootedTreeWindow(apex.key(), parent_map)
