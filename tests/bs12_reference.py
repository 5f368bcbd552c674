"""Reference BS(1,2) elements, balls and fibers, as `tilelab.bs12` first
computed them.

`BsElement` is the affine map t -> 2^-level t + offset with a `Dyadic`
offset, multiplied by composing the maps.  `reference_ball` is
`tilelab.bs12.bs12_ball` as it was before the search ran on the int lattice
2^-radius: a breadth-first search that multiplies elements by the four
generators.  `ReferenceFibers` is `tilelab.bs12.FiberDecomposition` as it was
on those elements: the fiber id and the b-position through `Dyadic.scale`,
`floor` and a subtraction per vertex.  Tests compare the int-key versions to
them through `BsElement.key`.  `reference_spanning_tree` is
`tilelab.bs12.fiber_spanning_tree` as it was on int-key windows: b-segments
by a union-find over the b-edges, then a breadth-first search over all
b-edges and the chosen a-edges.
"""

from tilelab.canon import find, join
from tilelab.dyadic import Dyadic, ZERO
from tilelab.trees import RootedTreeWindow


class BsElement:
    """The affine map t -> 2^-level * t + offset, offset dyadic."""

    __slots__ = ("level", "offset")

    def __init__(self, level: int, offset=ZERO):
        object.__setattr__(self, "level", int(level))
        object.__setattr__(self, "offset", Dyadic.coerce(offset))

    def __setattr__(self, *a):
        raise AttributeError("BsElement is immutable")

    def __mul__(self, other):
        # composition: (g*h)(t) = g(h(t))
        scaled = other.offset.scale(-self.level)
        return BsElement(self.level + other.level, scaled + self.offset)

    def inverse(self):
        return BsElement(-self.level, -self.offset.scale(self.level))

    def key(self):
        return (self.level, *self.offset.as_pair())

    def __eq__(self, other):
        return isinstance(other, BsElement) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


IDENTITY = BsElement(0, 0)
GEN_A = BsElement(1, 0)
GEN_B = BsElement(0, 1)


class ReferenceWindow:
    """Ball of `BsElement`s: sorted vertices, distances and colored edges."""

    def __init__(self, radius, dist, edges):
        self.radius = radius
        self.vertices = sorted(dist, key=BsElement.key)
        self.dist = dist
        self.edges = edges

    def to_json(self) -> dict:
        index = {v: i for i, v in enumerate(self.vertices)}
        return {"vertices": [list(v.key()) for v in self.vertices],
                "edges": sorted([index[s], index[t], c, 1]
                                for s, t, c in self.edges),
                "radius": self.radius, "center": list(IDENTITY.key())}


def reference_ball(radius: int) -> ReferenceWindow:
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
    edges = []
    for v in dist:
        for g, color in ((GEN_A, "a"), (GEN_B, "b")):
            w = v * g
            if w in dist:
                edges.append((v, w, color))
    edges.sort(key=lambda e: (e[0].key(), e[1].key(), e[2]))
    return ReferenceWindow(radius, dist, edges)


class ReferenceFibers:
    """b-cosets, b-positions, b-segments, fiber edges and interior fibers."""

    def __init__(self, window: ReferenceWindow):
        self.fiber_of = {}
        self.position = {}
        members: dict = {}
        for v in window.vertices:
            m = v.offset.scale(v.level).floor()
            residue = v.offset - Dyadic(m).scale(-v.level)
            fid = (v.level, tuple(residue.as_pair()))
            self.fiber_of[v] = fid
            self.position[v] = m
            members.setdefault(fid, []).append(v)

        parent = {v: v for v in window.vertices}
        for s, t, c in window.edges:
            if c == "b":
                join(parent, s, t)
        seg_members: dict = {}
        for v in window.vertices:
            seg_members.setdefault(find(parent, v), []).append(v)
        self.segments = {}
        for group in seg_members.values():
            group.sort(key=BsElement.key)
            self.segments[group[0].key()] = group

        self.fiber_edges = set()
        for s, t, c in window.edges:
            if c == "a":
                fs, ft = self.fiber_of[s], self.fiber_of[t]
                if fs != ft:
                    self.fiber_edges.add((min(fs, ft), max(fs, ft)))

        inner = window.radius - 1
        self.interior_fibers = frozenset(
            fid for fid, grp in members.items()
            if any(window.dist[v] <= inner and self.position[v] % 2 == 0
                   for v in grp)
            and any(window.dist[v] <= inner and self.position[v] % 2 == 1
                    for v in grp))


def reference_spanning_tree(window, labels) -> RootedTreeWindow:
    """Fiber spanning tree of an int-key window rooted at the label-minimal
    top-level vertex: every b-edge, plus per b-segment the label-minimal
    a-edge to its parent in a breadth-first tree of segments."""
    parent = {v: v for v in window.vertices}
    for s, t, c in window.edges:
        if c == "b":
            join(parent, s, t)
    least: dict = {}  # a segment's id is its least member
    segment_of = {v: least.setdefault(find(parent, v), v)
                  for v in window.vertices}
    top = max(v[0] for v in window.vertices)
    apex = labels.choose_min([v for v in window.vertices if v[0] == top])

    seg_edges: dict = {}
    for s, t, c in window.edges:
        if c == "a":
            ss, st = segment_of[s], segment_of[t]
            seg_edges.setdefault((min(ss, st), max(ss, st)), []).append((s, t))
    seg_adj = {sid: set() for sid in segment_of.values()}
    for s1, s2 in seg_edges:
        seg_adj[s1].add(s2)
        seg_adj[s2].add(s1)
    sorder = [segment_of[apex]]
    sparent = {sorder[0]: None}
    for f in sorder:
        for g in sorted(seg_adj[f]):
            if g not in sparent:
                sparent[g] = f
                sorder.append(g)

    tree_adj = {v: set() for v in window.vertices}
    for s, t, c in window.edges:
        if c == "b":
            tree_adj[s].add(t)
            tree_adj[t].add(s)
    for f in sorder[1:]:
        pf = sparent[f]
        s, t = labels.choose_min(seg_edges[(min(f, pf), max(f, pf))])
        tree_adj[s].add(t)
        tree_adj[t].add(s)
    order = [apex]
    parent_map = {}
    for v in order:
        for w in sorted(tree_adj[v]):
            if w != apex and w not in parent_map:
                parent_map[w] = v
                order.append(w)
    return RootedTreeWindow(apex, parent_map)
