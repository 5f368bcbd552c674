"""Tilings of rooted tree windows by nested dyadic bricks.

Pipeline: the limit partitions pick out "top" vertices whose class hangs
entirely below them; each top vertex gets a grid block of unit cells sized
2^floor(m/3) x 2^floor((m+1)/3) x 2^floor((m+2)/3); blocks of lower strata
are packed inside via a binary buddy allocator; tiles are margin-eroded
bricks nested along the tree so that the face-adjacency graph of the tiles
reproduces the tree edges exactly on the resolved vertex set; the vertices
below the deepest blocks get nested cubes.

`carve` works on ``(lo, hi)`` int boxes on a lattice, as `boxes.BoxSet`
keeps them: a block's cells are on the lattice of 1, a margin moves a box to
the margin's lattice, and each brick and cube is one int box on the least
lattice that holds it.  A tile is made by one `boxes.box_minus` of its brick
or cube and the ones nested in it.  Only the margins are `Dyadic`s.
"""

from __future__ import annotations

from fractions import Fraction

from .boxes import BoxSet, ResourceLimit, box_minus, least_lattice, set_contacts, union_all
from .canon import forest_hash, rooted_forest_from_edges
from .dyadic import Dyadic, on_lattice
from .labels import LabelSource
from .partition import Schedule, limit_partitions
from .trees import RootedTreeWindow


def block_dims(m: int) -> tuple:
    return (1 << (m // 3), 1 << ((m + 1) // 3), 1 << ((m + 2) // 3))


def split_axis(m: int) -> int:
    """Axis along which a size-m buddy box splits into two size-(m-1) boxes."""
    return {0: 0, 2: 1, 1: 2}[m % 3]


def margin(stratum: int) -> Dyadic:
    """Brick erosion margin for a given stratum (2^-k scaled by 1/4 so the
    smallest 1x1x2 blocks keep a nonempty brick)."""
    return Dyadic(1, stratum + 2)


def nest_margin(stratum: int, depth: int) -> Dyadic:
    """Strictly increasing interpolation margins mu*(2 - 2^-t), always below
    twice the stratum margin so hanging bricks of lower strata stay inside."""
    return Dyadic((1 << (depth + 1)) - 1, stratum + 2 + depth)


class AllocationError(RuntimeError):
    """The buddy allocator had no free block for a request.  `assign_grid`
    checks every block's demand against its capacity first, so this is an
    internal invariant break, not a resource limit (CLI exit code 1)."""


class BuddyAllocator:
    """Aligned packing of power-of-two blocks inside a size-m block."""

    def __init__(self, m: int):
        self.free: dict[int, list] = {m: [(0, 0, 0)]}
        self.m = m

    def alloc(self, size: int):
        avail = [t for t in self.free if t >= size and self.free[t]]
        if not avail:
            raise AllocationError(
                f"buddy allocation failed for size {size}; free block sizes: "
                f"{sorted(t for t in self.free if self.free[t])}")
        t = min(avail)
        self.free[t].sort()
        origin = self.free[t].pop(0)
        while t > size:
            t -= 1
            ax = split_axis(t + 1)
            d = block_dims(t)
            sibling = list(origin)
            sibling[ax] += d[ax]
            self.free.setdefault(t, []).append(tuple(sibling))
        return origin


class WindowTooSmall(ValueError):
    """No class of the partitions hangs below a vertex, so there is no top
    vertex to carry a block (CLI exit code 2)."""


class TopSet:
    def __init__(self, members, m_of, stratum):
        self.members = set(members)
        self.m_of = m_of
        self.stratum = stratum


def top_set(tree: RootedTreeWindow, levels: list, schedule: Schedule) -> TopSet:
    """Vertices carrying a class that lies entirely in their subtree, with the
    maximal such level; pruned to a laminar family along ancestor chains.

    A vertex is kept when it has no kept ancestor, or when its class nests
    in the class of its nearest kept ancestor at a smaller level.  Its
    stratum is its height in the forest of kept vertices (1 for a kept
    vertex with no kept descendant).
    """
    m_of = {}
    class_at = {}
    # blocks are sized by the class cardinality 2^n_i of the stage
    for n_i, level in zip(schedule.n_values, levels):
        for ms in level.values():
            x = min(ms, key=lambda v: tree.depth[v])
            if all(tree.is_ancestor(x, v) for v in ms):
                if n_i > m_of.get(x, 0):
                    m_of[x] = n_i
                    class_at[x] = ms
    up = {}  # nearest kept proper ancestor, None when there is none
    stratum = {}
    for x in tree.order:  # parents first
        p = tree.parent[x]
        up[x] = None if p is None else (p if p in stratum else up[p])
        a = up[x]
        if x in m_of and (a is None or (m_of[x] < m_of[a]
                                         and class_at[x] <= class_at[a])):
            stratum[x] = 1
    for x in reversed(tree.order):  # children first
        a = up[x]
        if x in stratum and a is not None:
            stratum[a] = max(stratum[a], stratum[x] + 1)
    return TopSet(stratum, {x: m_of[x] for x in stratum}, stratum)


class GridAssignment:
    def __init__(self, roots, block_origin, f_children, hang, territory,
                 demoted):
        self.roots = roots                # kept vertices with no kept ancestor
        self.block_origin = block_origin  # top vertex -> integer cell origin
        self.f_children = f_children      # F-tree children per resolved vertex
        self.hang = hang                  # F-vertex -> top children hanging there
        self.territory = territory        # F-vertex -> (size, origin) or None
        self.demoted = demoted


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length() if n > 1 else 0


def assign_grid(tree: RootedTreeWindow, topset: TopSet) -> GridAssignment:
    """Pack blocks; lower blocks embedded intact.

    When the rounded space demands of a block's interior structure exceed its
    capacity, the smallest offending lower block is demoted (its vertices stay
    resolved, it just loses dedicated block status) and packing is retried.
    """
    kept = set(topset.members)
    demoted = []

    while True:
        # F-structure: per kept x, the vertices below x with no kept top
        # vertex strictly between; hanging blocks attach at their tree parent
        f_children = {}
        hang = {}
        for x in kept:
            stk = [x]
            while stk:
                z = stk.pop()
                hang.setdefault(z, [])
                f_children[z] = []
                for c in tree.children[z]:
                    if c in kept:
                        hang[z].append(c)
                    else:
                        f_children[z].append(c)
                        stk.append(c)

        # recursive space demand (in cells) of each F-subtree
        demand = {}
        tsize = {}

        def compute_demand(x):
            for z in reversed(_f_order(x, f_children)):
                d = sum(1 << topset.m_of[y] for y in hang[z])
                d += sum(1 << tsize[c] for c in f_children[z] if demand[c] > 0)
                demand[z] = d
                tsize[z] = _ceil_log2(d) if d > 0 else 0

        failure = None
        for x in sorted(kept, key=repr):
            compute_demand(x)
            if demand[x] > (1 << topset.m_of[x]):
                failure = x
                break
        if failure is not None:
            victims = [y for y in kept
                       if y != failure and tree.is_ancestor(failure, y)]
            victim = min(victims, key=lambda y: (topset.m_of[y], repr(y)))
            kept.discard(victim)
            demoted.append(victim)
            continue

        roots = []
        for y in kept:
            anc = tree.parent[y]
            while anc is not None and anc not in kept:
                anc = tree.parent[anc]
            if anc is None:
                roots.append(y)

        # allocate: blocks and territories, outermost first
        block_origin = {}
        territory = {z: None for z in f_children}
        cursor = 0
        pending = []
        for x in sorted(roots, key=repr):
            block_origin[x] = (cursor, 0, 0)
            cursor += block_dims(topset.m_of[x])[0] + 3
            pending.append((x, block_origin[x], topset.m_of[x]))
        while pending:
            x, origin, cap = pending.pop()
            territory[x] = (cap, origin)
            stk = [(x, cap, origin)]
            while stk:
                z, size_z, org_z = stk.pop()
                items = [( topset.m_of[y], "hang", y) for y in hang[z]]
                items += [(tsize[c], "terr", c) for c in f_children[z]
                          if demand[c] > 0]
                items.sort(key=lambda it: (-it[0], repr(it[2])))
                alloc = BuddyAllocator(size_z)
                for s, kind, obj in items:
                    rel = alloc.alloc(s)
                    absolute = tuple(o + r for o, r in zip(org_z, rel))
                    if kind == "hang":
                        block_origin[obj] = absolute
                        pending.append((obj, absolute, topset.m_of[obj]))
                    else:
                        territory[obj] = (s, absolute)
                        stk.append((obj, s, absolute))
        return GridAssignment(roots, block_origin, f_children, hang,
                              territory, demoted)


def _f_order(x, f_children):
    order = []
    stk = [x]
    while stk:
        z = stk.pop()
        order.append(z)
        stk.extend(f_children[z])
    return order


def _cell_box(origin, dims) -> tuple:
    """Int box of a block on the lattice of 1: cells are unit cubes centered
    at integer coords."""
    return tuple((2 * o - 1, 2 * (o + d) - 1) for o, d in zip(origin, dims))


def _on(f: int, item: tuple) -> tuple:
    """The int box of an ``(e, [box])`` item on the finer lattice of ``f``."""
    e, (box,) = item
    return tuple((lo << (f - e), hi << (f - e)) for lo, hi in box)


def _deflate(e: int, box: tuple, m: Dyadic) -> tuple:
    """``(f, [box])``: the int box ``box`` on the lattice of ``e`` shrunk by
    ``m`` on every side, on the least lattice ``f`` that holds it."""
    f, (d,) = on_lattice([m], e)
    k = f - e
    return least_lattice(f, [tuple(((lo << k) + d, (hi << k) - d) for lo, hi in box)])


def place_cubes(e: int, box: tuple, k: int) -> tuple:
    """``(f, cubes)``: k disjoint closed cubes strictly inside the int box
    ``box`` on the lattice of ``e``, as int boxes on the lattice of ``f``.

    The longest side is cut into 2**(c + 1) slots, c = ceil(log2 k), and cube
    i is centered at the end of slot 2i, mid-box on the other axes.  Its side
    is the largest power of two at most a quarter of the shortest side and
    half a slot."""
    c = _ceil_log2(k)
    sides = [hi - lo for lo, hi in box]
    ax = sides.index(max(sides))
    half = 1 << (min(min(sides) << c, sides[ax]).bit_length() - 1)
    center = [(lo + hi) << (c + 2) for lo, hi in box]
    lo_ax, slot = box[ax][0] << (c + 3), sides[ax] << 2
    cubes = []
    for i in range(k):
        center[ax] = lo_ax + slot * (2 * i + 1)
        cubes.append(tuple((x - half, x + half) for x in center))
    return e + c + 3, cubes


class Tiling:
    """Vertex -> tile map with exact face-adjacency graph."""

    def __init__(self, tile_of: dict, region: BoxSet, expected_roots,
                 unresolved, demoted):
        self.tile_of = tile_of
        self.region = region
        self.roots = list(expected_roots)
        self.unresolved = set(unresolved)
        self.demoted = list(demoted)
        self._contacts = None
        self._adjacency = None

    def contacts(self, counted: bool = False) -> tuple:
        """``(verts, adjacent, overlaps, counts)``: the vertices in ``repr``
        order and `set_contacts` of their tiles, which counts components only
        when ``counted``.  One sweep is kept; a counted one serves all calls."""
        if self._contacts is None or counted and None in self._contacts[3]:
            verts = sorted(self.tile_of, key=repr)
            self._contacts = (verts, *set_contacts([self.tile_of[v] for v in verts],
                                                   range(len(verts)) if counted else ()))
        return self._contacts

    def adjacency(self) -> set:
        """Pairs of vertices whose tile closures share positive face area."""
        if self._adjacency is None:
            verts, adjacent, _, _ = self.contacts()
            self._adjacency = {(verts[a], verts[b]) for a, b in adjacent}
        return self._adjacency

    def transform(self, perm, signs, translation) -> "Tiling":
        """The tiling under the cube symmetry ``(perm, signs)`` (see
        `BoxSet.signed_permute`), then moved by the `Dyadic` ``translation``."""
        e, vec = on_lattice(translation)
        t = {
            v: s.signed_permute(perm, signs).translate(e, vec)
            for v, s in self.tile_of.items()
        }
        region = self.region.signed_permute(perm, signs).translate(e, vec)
        return Tiling(t, region, self.roots, self.unresolved, self.demoted)

    def to_json(self) -> dict:
        """The tiling for `exports.dumps_indented`, which writes `BoxSet`s."""
        return {
            "tiles": {repr(v): s for v, s in self.tile_of.items()},
            "region": self.region,
            "adjacency": sorted([repr(a), repr(b)] for a, b in self.adjacency()),
            "unresolved": sorted(repr(v) for v in self.unresolved),
            "demoted": sorted(repr(v) for v in self.demoted),
        }


# The finest lattice a tile may need: the verifier's memory grows with the
# boxes times this exponent.  `path(n)` needs 2**-(3n - 4); `path(5462)` runs
# `tile-tree` at 1.2 GB peak RSS.  Bench and test windows need <= 2**-3596.
MAX_EXP = 1 << 14


def carve(tree: RootedTreeWindow, topset: TopSet, grid: GridAssignment) -> Tiling:
    """Erode blocks into nested bricks, one tile per resolved vertex.

    A tile is one `boxes.box_minus` of its brick or cube and those of the
    tiles nested in it, each an ``(exp, [int box])`` item on its least
    lattice; a worklist carves the children, so no deep recursion.  A tile
    finer than ``2**-MAX_EXP`` raises `ResourceLimit`, before the verifier.

    The tiles nest: every tree child of a resolved vertex is resolved, a
    child's brick or cube lies strictly inside its parent's, and sibling
    bricks and cubes are disjoint.  So a tile's `int_bbox` is its brick or
    cube, and the tile is that box minus its children's (`contract_fibers`
    reads fiber pieces off this)."""
    def block_brick(y) -> tuple:
        box = _cell_box(grid.block_origin[y], block_dims(topset.m_of[y]))
        return _deflate(1, box, margin(topset.stratum[y]))

    roots = sorted(grid.roots, key=repr)
    bricks = [block_brick(x) for x in roots]
    # (vertex, its brick or cube, (stratum, depth) of a block or territory
    # node, or None for a cube)
    work = [(x, b, (topset.stratum[x], 0)) for x, b in zip(roots, bricks)]
    done = []
    while work:
        z, item, at = work.pop()
        e, (box,) = item
        assert all(lo < hi for lo, hi in box), "degenerate brick margin"
        kids = []
        if at is None:  # a cube: the cubes of its children go in its middle
            cube_kids = tree.children[z]
            side = box[0][1] - box[0][0]
            f, host = e + 3, tuple(((lo << 3) + side, (hi << 3) - side) for lo, hi in box)
        else:  # a brick: its cubes go in a slab at its low end on axis 0
            s, depth = at
            kids = [(y, block_brick(y), (topset.stratum[y], 0)) for y in grid.hang[z]]
            cube_kids = []
            for c in grid.f_children[z]:
                terr = grid.territory[c]
                if terr is None:
                    cube_kids.append(c)
                else:
                    size_c, org_c = terr
                    cbox = _cell_box(org_c, block_dims(size_c))
                    kids.append((c, _deflate(1, cbox, nest_margin(s, depth + 1)),
                                 (s, depth + 1)))
            if cube_kids:
                f, (d,) = on_lattice([Dyadic(1, s + 4 + depth)], e)
                (lo, _), *rest = _on(f, item)
                host = ((lo, lo + d), *rest)
        if cube_kids:
            f, cubes = place_cubes(f, host, len(cube_kids))
            kids += [(c, least_lattice(f, [cu]), None) for c, cu in zip(cube_kids, cubes)]
        f = max([e] + [k[1][0] for k in kids])
        tile = box_minus(f, _on(f, item), [_on(f, k[1]) for k in kids])
        if tile.exp > MAX_EXP:
            raise ResourceLimit(f"carve: the tile of {z!r} needs the lattice of "
                                f"2^-{tile.exp}, finer than the cap 2^-{MAX_EXP}")
        done.append((z, tile))
        work += kids

    # post-order: children before their parents, siblings in the order made
    tile_of = dict(reversed(done))
    unresolved = [v for v in tree.order if v not in tile_of]
    region = union_all([BoxSet.from_ints(*b) for b in bricks])
    return Tiling(tile_of, region, grid.roots, unresolved, grid.demoted)


def verify_representation(tiling: Tiling, tree: RootedTreeWindow) -> dict:
    """Check the four tiling-representation conditions on the resolved set.

    (i) tiles nonempty, connected, polyhedral; (ii) pairwise interior
    disjointness plus exact closure-cover of the carved region; (iii) local
    finiteness, which holds trivially for the finitely many tiles of a
    window, so it is reported as passed with no counts; (iv) face-adjacency
    graph equal, as a rooted forest, to the tree restricted to resolved
    vertices.
    """
    report = {"pass": True}

    verts, _, overlaps, counts = tiling.contacts(counted=True)
    parts = dict(zip(verts, counts))
    region, dim = tiling.region, tiling.region.dim
    e = max([region.exp] + [s.exp for s in tiling.tile_of.values()])
    volume = {v: s.measure() << (dim * (e - s.exp)) for v, s in tiling.tile_of.items()}
    bad = []
    for v, s in tiling.tile_of.items():
        if s.is_empty() or volume[v] <= 0 or parts[v] != 1:
            bad.append(repr(v))
    report["tiles_open_connected"] = {"pass": not bad, "witnesses": bad[:5]}

    vol = sum(volume.values())
    overlap = None
    if overlaps:
        i, j = min(overlaps)
        overlap = (repr(verts[i]), repr(verts[j]))
    cover_ok = vol == region.measure() << (dim * (e - region.exp)) and overlap is None
    report["disjoint_and_cover"] = {
        "pass": cover_ok,
        "tile_volume": str(Fraction(vol, 1 << (dim * e))),
        "region_volume": str(region.volume()),
        "overlap_witness": overlap,
    }

    report["local_finiteness"] = {"pass": True, "counts": []}

    # edges as ordered pairs in the sweep's ``repr`` order, the order of
    # `Tiling.adjacency`'s pairs
    rank = {v: i for i, v in enumerate(verts)}
    resolved = set(tiling.tile_of)
    expected = set()
    for v in resolved:
        p = tree.parent[v]
        if p is not None and p in resolved:
            expected.add((v, p) if rank[v] < rank[p] else (p, v))
    got = set(tiling.adjacency())
    iso = expected == got
    hashes = None
    if iso:
        # equal edge sets give one forest: it must still be rooted at the
        # expected roots, and its hash stands for both sides
        try:
            h = forest_hash(rooted_forest_from_edges(resolved, got, tiling.roots),
                            tiling.roots)
            hashes = (h, h)
        except ValueError:
            iso = False
    report["adjacency_isomorphic"] = {
        "pass": iso,
        "missing": sorted(map(repr, expected - got))[:5],
        "extra": sorted(map(repr, got - expected))[:5],
        "hashes": hashes,
    }

    report["pass"] = all(
        report[k]["pass"] for k in
        ("tiles_open_connected", "disjoint_and_cover",
         "local_finiteness", "adjacency_isomorphic")
    )
    return report


def tile_tree(tree: RootedTreeWindow, schedule, stages: int,
              labels: LabelSource):
    """Full pipeline: partitions -> top set -> grid -> carve."""
    levels, _report = limit_partitions(tree, schedule, stages, labels)
    ts = top_set(tree, levels, schedule)
    if not ts.members:
        raise WindowTooSmall("window too small: empty top set")
    grid = assign_grid(tree, ts)
    return {"tiling": carve(tree, ts, grid), "topset": ts, "grid": grid}
