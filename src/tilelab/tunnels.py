"""Corridor carving between tiles, and the BS(1,2) assembly pipeline.

A tunnel turns two tiles with a common neighbor into face-adjacent tiles:
a thin rectilinear tube is carved out of the middle tile and grafted onto
the first one, leaving everything outside the tube's neighborhood
bit-identical.  In an axis-aligned box tiling, at most four dihedral sectors
meet around any arrangement edge, so a tunnel necessarily creates a triangle
with the tile it passes through; edges whose endpoints have no common
neighbor are therefore reported as unrealizable rather than approximated.

On a BS(1,2) window no tunnel is ever possible: the carved tiling's
adjacency is the spanning tree, so a common neighbor of the endpoints of a
non-tree edge would close a triangle in the Cayley graph of BS(1,2), which
has none (see `assemble_bs12`).  `route_gamma` and `add_edge` are the
tunnel lemma on other tilings.

`contract_fibers` makes each fiber's piece by subtraction, not by a sweep
over its member tiles: carve's tiles nest, so the tiles of a tree-connected
group of members are one `box_minus` of the group's top box and the boxes
of its children outside the group.
"""

from __future__ import annotations

import itertools

from .boxes import (BoxSet, Clearance, _shift, box_minus, contact_faces,
                    polyline_neighborhood, set_contacts, union_all)
from .bs12 import CayleyWindow, FiberDecomposition, fiber_spanning_tree, fibers
from .dyadic import Dyadic
from .labels import LabelSource
from .partition import DEGREE_BOUND, Schedule
from .tiler import Tiling, tile_tree
from .trees import RootedTreeWindow


class RoutingError(RuntimeError):
    pass


class UnrealizableEdgeError(RuntimeError):
    """No axis-aligned tunnel exists for this edge (endpoints share no tile)."""


class TunnelPlan:
    """A tunnel along ``path``: the rectilinear polyline ``points`` of int
    points on the lattice 2^-``exp``, with clearance eps = 2^-``j``.  The tube
    carved is its closed eps/2-neighborhood, and the halo outside which no
    box changes its eps-neighborhood; ``j < exp``, so both radii are ints.

    ``certified`` is None for a plan built by hand.  `route_gamma` sets it to
    ``(tiles, region)``: the three path tiles it certified the tube on, and
    its prepared `Clearance` of their union, which `add_edge` reuses when it
    carves those same tiles.  `add_edge` sets it back to None once the tube
    passes its escape check, so a caller holding many carved plans does not
    hold their regions."""

    def __init__(self, path, exp: int, points, j: int, certified=None):
        self.path = list(path)
        self.exp = exp
        self.points = list(points)
        self.j = j
        self.certified = certified

    def tube(self) -> BoxSet:
        return polyline_neighborhood(self.exp, self.points, 1 << (self.exp - self.j - 1))

    def halo(self) -> BoxSet:
        return polyline_neighborhood(self.exp, self.points, 1 << (self.exp - self.j))


def schedule_edges(tree: RootedTreeWindow, non_tree_edges) -> list:
    """The edges as tuples, ordered by max(path length, 1 + points hanging
    off the path), then by repr.

    The tree path of u-v has n = depth[u] + depth[v] - 2 depth[t] + 1
    vertices, where t is its top vertex, the lowest common ancestor of u and
    v.  Every other point of t's subtree hangs off the path, so they number
    subtree_size[t] - n.
    """
    def size(e):
        u, v = e
        t = u
        while not tree.is_ancestor(t, v):
            t = tree.parent[t]
        n = tree.depth[u] + tree.depth[v] - 2 * tree.depth[t] + 1
        return max(n, tree.subtree_size[t] - n + 1), repr(e)
    return sorted(map(tuple, non_tree_edges), key=size)


# finest clearance a tunnel is routed with: 2^-FINEST_EXP
FINEST_EXP = 12


def _max_clearance(e: int, points, region: Clearance) -> int | None:
    """The least j, 1 <= j <= FINEST_EXP, with the 2^-j-neighborhood of the
    polyline of int points on the lattice of ``e`` inside the region, or
    None; raises ValueError when the polyline is not rectilinear."""
    f, room = region(e, points)
    # room / 2**f lies in [2**-k, 2**(1 - k)) for k = f + 1 - bit_length,
    # and eps is at most 1/2
    j = max(1, f + 1 - room.bit_length())
    return j if room and j <= FINEST_EXP else None


def route_gamma(tiling_tiles: dict, path) -> TunnelPlan:
    """Rectilinear polyline from the first tile of a 3-vertex path, through
    the middle tile, into the last, with certified exact clearance.

    The search runs on ints on the lattice of ``g``, one finer than every
    tile's and than 2^-FINEST_EXP, so it holds every contact face centre and
    every half step eps/2 with eps = 2^-j, j <= FINEST_EXP; each region's
    room comes back on that lattice too, and the plan is returned on it.

    Each clearance question is asked once per call: the complements of the
    union, d1 and d3 are prepared once, a candidate polyline that repeats one
    already tried for the same face pair is skipped (that one failed, since
    a success returns), and each end is pushed into its end tile once per
    face and half step.  The plan carries the union's prepared region."""
    if len(path) != 3:
        raise UnrealizableEdgeError(
            f"path length {len(path)}: axis-aligned tunnels need a common neighbor"
        )
    tiles = d1, d2, d3 = tuple(tiling_tiles[v] for v in path)
    union = union_all(tiles)
    g = max(d1.exp, d2.exp, d3.exp, union.exp, FINEST_EXP) + 1
    # the three largest faces of each pair, moved to the lattice of g
    faces12, faces23 = (
        _shift([face for face, _ in sorted(faces, key=lambda fa: -fa[1])[:3]], g - e)
        for e, faces in (contact_faces(d1, d2), contact_faces(d2, d3)))
    if not faces12 or not faces23:
        raise RoutingError("consecutive path tiles are not adjacent")
    in_union, in_d1, in_d3 = Clearance(union), Clearance(d1), Clearance(d3)
    pushed = {}  # (end tile, face, half step) -> `_push`'s answer

    def push(tile: Clearance, face, half: int):
        key = tile, face, half
        if key not in pushed:
            pushed[key] = _push(g, face, half, tile)
        return pushed[key]

    for f12 in faces12:
        for f23 in faces23:
            p = _center(f12)
            q = _center(f23)
            tried = set()
            for mids in _candidate_mids(p, q):
                pts = tuple(_dedupe([p] + mids + [q]))
                if pts in tried:
                    continue
                tried.add(pts)
                try:
                    j = _max_clearance(g, pts, in_union)
                except ValueError:
                    continue  # the direct segment is not axis-aligned
                if j is None:
                    continue
                # extend the ends into the interiors of d1 and d3
                half = 1 << (g - j - 1)
                first = push(in_d1, f12, half)
                last = push(in_d3, f23, half) if first else None
                if last is None:
                    continue
                pts2 = [first, *pts, last]
                if in_union(g, pts2)[1] < half:
                    continue
                return TunnelPlan(path, g, pts2, j, (tiles, in_union))
    raise RoutingError(f"no certified corridor found along {path!r}")


def _center(face):
    return tuple((lo + hi) >> 1 for lo, hi in face)


def _candidate_mids(p, q):
    yield []
    # 3-segment staircases through the two possible corner orders
    for order in ((0, 1, 2), (2, 1, 0), (1, 0, 2), (0, 2, 1), (2, 0, 1), (1, 2, 0)):
        cur = list(p)
        mids = []
        for ax in order:
            if cur[ax] != q[ax]:
                cur = list(cur)
                cur[ax] = q[ax]
                mids.append(tuple(cur))
        if mids and mids[-1] == tuple(q):
            mids = mids[:-1]
        yield mids


def _dedupe(pts):
    out = [pts[0]]
    for p in pts[1:]:
        if tuple(p) != tuple(out[-1]):
            out.append(tuple(p))
    return out


def _push(g: int, face, half: int, tile: Clearance):
    """The centre of the contact ``face`` moved by ``half`` along its normal,
    to the first side (+, then -) where it has clearance ``half`` in
    ``tile``, or None; all ints on the lattice of ``g``.  A face contact is
    degenerate on exactly one axis, its normal."""
    ax = next(a for a, (lo, hi) in enumerate(face) if lo == hi)
    centre = _center(face)
    for step in (half, -half):
        cand = list(centre)
        cand[ax] += step
        if half <= tile(g, [cand])[1]:
            return tuple(cand)
    return None


def add_edge(tiling: Tiling, plan: TunnelPlan) -> Tiling:
    """Carve the tunnel: the tube leaves the middle tile and joins the first.

    Outside the epsilon-neighborhood of the polyline every box is unchanged;
    the resulting adjacency graph is the old one plus the planned edge.
    """
    path = plan.path
    if len(path) != 3:
        raise UnrealizableEdgeError(
            "axis-aligned tunnels require a 3-vertex path (common neighbor)"
        )
    u, mid, _ = path
    on_path = d1, d2, d3 = tuple(tiling.tile_of[v] for v in path)
    if plan.certified and plan.certified[0] == on_path:
        region = plan.certified[1]  # the region route_gamma certified on
    else:
        region = Clearance(union_all(on_path))
    f, room = region(plan.exp, plan.points)
    if room < 1 << (f - plan.j - 1):  # eps/2 on the lattice of f
        raise RoutingError("tube escapes the path tiles")
    plan.certified = None
    tube = plan.tube()
    new_d1 = d1.union(tube.difference(d3))
    new_d2 = d2.difference(tube)
    fault = _carve_fault(new_d1, new_d2, d3)
    if fault:
        raise RoutingError(fault)
    tiles = dict(tiling.tile_of)
    tiles[u] = new_d1
    tiles[mid] = new_d2
    return Tiling(tiles, tiling.region, tiling.roots, tiling.unresolved,
                  tiling.demoted)


def _carve_fault(d1: BoxSet, d2: BoxSet, d3: BoxSet) -> str | None:
    """Why the carved tiles of a tunnel ``d1``-``d2``-``d3`` break its
    contract, or None: ``d2`` must stay one piece, and each pair must share
    a face.  One `set_contacts` call answers all four: a face bit between
    two sets is positive shared face area."""
    adjacent, _, counts = set_contacts([d1, d2, d3], components=(1,))
    if counts[1] != 1:
        return "tunnel would disconnect the middle tile"
    if (0, 2) not in adjacent:
        return "tunnel failed to reach the far tile"
    if (0, 1) not in adjacent or (1, 2) not in adjacent:
        return "tunnel consumed an existing contact face"
    return None


def assemble_bs12(window: CayleyWindow, seed: int, stages: int,
                  schedule_n) -> dict:
    """Window pipeline: fiber spanning tree, partitions, carving.

    Returns a dict with the tiling, the fiber decomposition, the spanning
    tree, and every non-tree edge of the window as unrealized, in
    `schedule_edges` order, each with its reason.

    No non-tree edge can become a tunnel.  `route_gamma` needs a 3-vertex
    path u-v-w through a tile v adjacent to both endpoints, and the carved
    tiling's adjacency is the spanning tree (`verify_representation`), so
    u-v and v-w would be Cayley edges and u-v-w a triangle in the Cayley
    graph of BS(1,2) = <a, b | a^-1 b a = b^2>.  It has none: the a-exponent
    sum of a trivial word is 0, so a trivial word of length 3 would be b^3,
    b^-3 or a^k b^j a^-k with j, k in {1, -1}, and none of these is trivial,
    since b has infinite order.
    """
    labels = LabelSource(seed)
    fib = fibers(window)
    tree = fiber_spanning_tree(window, fib, labels)
    sched = Schedule(schedule_n[:stages], DEGREE_BOUND)
    tiling = tile_tree(tree, sched, stages, labels)["tiling"]

    non_tree = [(min(s, t), max(s, t)) for s, t, _c in window.edges
                if tree.parent[s] != t and tree.parent[t] != s]

    unrealized = []
    for u, w in schedule_edges(tree, non_tree):
        why = ("endpoint unresolved"
               if u not in tiling.tile_of or w not in tiling.tile_of
               else "no common neighbor (axis-aligned obstruction)")
        unrealized.append(((u, w), why))
    return {"tiling": tiling, "fibers": fib, "tree": tree,
            "unrealized": unrealized}


def contract_fibers(tiling: Tiling, fib: FiberDecomposition,
                    tree: RootedTreeWindow) -> Tiling:
    """One tile per fiber: the union of its members' tiles in ``tiling``,
    which `carve` made from the spanning tree ``tree``.

    The union is read off carve's nesting: every tree child of a resolved
    vertex is resolved, a child's brick or cube lies strictly inside its
    parent's, and sibling bricks and cubes are disjoint.  So a tile's
    `int_bbox` is the brick or cube it was carved from, the tile is that box
    minus its children's boxes, and the tiles of a tree-connected group of
    resolved members with top vertex t sum to one `box_minus`: t's box minus
    the boxes of the group's children outside the group.  A fiber of several
    groups is the union of their subtractions, and is dropped as
    disconnected by its component count like any fragmented piece."""
    tile_of = tiling.tile_of
    pieces = {}
    unresolved = set()
    for fid, members in fib.members.items():
        resolved = [v for v in members if v in tile_of]
        if not resolved:
            unresolved.add(fid)
            continue
        inside = set(resolved)
        groups = []
        for top in resolved:
            if tree.parent[top] in inside:
                continue
            holes, stack = [], [top]
            while stack:
                for c in tree.children[stack.pop()]:
                    (stack if c in inside else holes).append(c)
            sets = [tile_of[top]] + [tile_of[c] for c in holes]
            f = max(s.exp for s in sets)
            box, *boxes = (_shift([s.int_bbox()], f - s.exp)[0] for s in sets)
            groups.append(box_minus(f, box, boxes))
        acc = groups[0] if len(groups) == 1 else union_all(groups)
        if set_contacts([acc], components=(0,))[2][0] != 1:
            # a fragmented window trace cannot make an honest piece
            unresolved.add(("disconnected", fid))
            continue
        pieces[fid] = acc
        if len(resolved) != len(members):
            unresolved.add(("partial", fid))
    return Tiling(pieces, tiling.region, [], unresolved, [])


# the 48 (axis permutation, axis signs) pairs, in the order
# `random_isometry` indexes them
CUBE_SYMMETRIES = tuple(itertools.product(itertools.permutations((0, 1, 2)),
                                          itertools.product((1, -1), repeat=3)))


def random_isometry(tiling: Tiling, seed: int) -> Tiling:
    """Uniform translation on the 2^-10 grid of [0, 1)^3 composed with a
    uniform cube symmetry."""
    labels = LabelSource(seed, salt="isometry")
    perm, signs = CUBE_SYMMETRIES[labels.bits("symmetry") % len(CUBE_SYMMETRIES)]
    tr = tuple(
        Dyadic(labels.bits(("shift", a)) % (1 << 10), 10)
        for a in range(3)
    )
    return tiling.transform(perm, signs, tr)
