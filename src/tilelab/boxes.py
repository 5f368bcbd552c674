"""Exact axis-aligned box sets over dyadic coordinates.

A :class:`BoxSet` is a finite union of closed axis-aligned boxes with dyadic
corner coordinates, kept in a canonical form: maximal runs along the last
axis, then touching slabs with equal sections merged along each earlier
axis, outermost first.  The canonical form depends only on the point set, so
equality of canonical box lists is equality of regions.

All boolean operations are *regularized*: results are closures of open sets,
so lower-dimensional slivers never survive.  The kernel is dimension-generic
(the fractal module uses it in 2D, everything else in 3D).

A set keeps its canonical boxes as ``(lo, hi)`` int pairs, ``ints``, on the
lattice of ``exp``, the least exponent >= 0 at which every corner ``c / 2**exp``
has an int ``c``; equal sets have equal ``(exp, ints)``.  The pipelines build
their sets from int boxes, through `BoxSet.from_ints` and `box_minus`.
`Dyadic` corners enter only through `box_of` and the `BoxSet` constructor
(`_lattice`, which has that one caller), and leave only through ``boxes``:
they are the boundary to tests and renderers.  Every other method takes ints
on a stated lattice: a margin, offset or point ``m`` given with the exponent
``e`` stands for ``m / 2**e``.
Operations move the coarser operand to the finer lattice with ``<<``.
Every boolean is one of two kernels.  A raw box list, `union_all` of many
sets and `BoxSet.union` are canonicalized by one sweep per axis over a
segment tree of that axis's cuts (`_sweep`, after Bentley's union of
rectangles), which merges each node's section into the union of its
ancestors' (`_merge`).  A box minus many boxes (`box_minus`) is one direct
subtraction (`_minus`) that builds no slab tree: on each axis but the last,
one walk over the slabs between the sorted ends of the box and the holes,
keeping the holes that span each slab active; on the last, the gaps the
sorted hole intervals leave in the box.  `BoxSet.difference` is one
`box_minus` of the minuend's bounding box, whose holes are the subtrahend's
boxes and the part of the box outside the minuend, and
`BoxSet.intersection` is ``a - (a - b)``.  Neither kernel builds a grid of
the distinct coordinates.  Where only
contact is read, a raw box list (`RawBoxes`) can stand for a set without a
sweep: whether two finite unions of closed boxes have meeting interiors is
whether some box of each does.

Pairwise contact is one relation of int bitsets over all axes (`_relation`):
per box, the earlier boxes touching it along a face and those overlapping
it, from bisects into sorted box ends, with no work per pair.  Every contact
query reads it, whatever the number of boxes: `set_contacts` reads which
sets touch or overlap, and components, off those bitsets, and so do
`BoxSet.components` and `BoxSet.interior_intersects`; only `contact_faces`
measures the pairs, in `_contacts`, and `shared_face_area` sums its areas.

`Clearance` is a region prepared for many queries of int polylines on any lattice: its
complement near the region is built once, in a flat form in which a
segment's gap to a complement box is one ``max(map(sub, box, segment))``,
and moved once to each finer lattice a query needs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import prod
from operator import index, le, sub
from typing import Container, NamedTuple, Sequence

from .canon import find, join
from .dyadic import Dyadic

Box = tuple  # tuple of (lo, hi) Dyadic pairs, one per axis


def box_of(*intervals) -> Box:
    """The box of ``(lo, hi)`` intervals of `Dyadic` or int ends."""
    return tuple(tuple(c if isinstance(c, Dyadic) else Dyadic(index(c)) for c in iv)
                 for iv in intervals)


# Slabs one `_merge` of two sections of a `_sweep` may append over all axes,
# or one `_sweep` or `box_minus` may emit over all axes but the last, sections
# later absorbed into a touching equal one included: about 200 MB of trees.  At
# `tilelab t3 --radius 10` the largest sweep emits 1,941 (a fiber's union),
# the largest merge appends 29 and the largest `box_minus` emits 16 (a
# tile), a margin of over 500 times.
MAX_SLABS = 1 << 20


class ResourceLimit(Exception):
    """A computation would exceed a fixed size limit (CLI exit code 3)."""


def _lattice(boxes: Sequence[Box]) -> tuple[int, list[tuple]]:
    """``e``, the finest exponent of ``boxes``, and per box a tuple of ``(lo,
    hi)`` int pairs on its lattice, the int ``c`` standing for ``c / 2**e``."""
    e = max((c.exp for b in boxes for iv in b for c in iv), default=0)
    return e, [tuple((lo.num << (e - lo.exp), hi.num << (e - hi.exp)) for lo, hi in b)
               for b in boxes]


def _shift(ib: Sequence[tuple], k: int) -> Sequence[tuple]:
    """Int boxes moved ``k`` exponents finer on the lattice."""
    return [tuple((lo << k, hi << k) for lo, hi in b) for b in ib] if k else ib


def _offset(e: int, ib: Sequence[tuple], g: int, moves: Sequence[tuple]):
    """``(f, boxes)``: int boxes on the lattice of ``e`` plus the int pair
    ``moves[a]``, on the lattice of ``g``, on the corners of axis ``a``, all on
    the finer lattice ``f`` of the two."""
    f = max(e, g)
    k, j = f - e, f - g
    return f, [tuple(((lo << k) + (a << j), (hi << k) + (b << j))
                     for (lo, hi), (a, b) in zip(box, moves)) for box in ib]


class RawBoxes(NamedTuple):
    """Nonempty int boxes ``ints`` on the lattice of ``exp`` that need not be
    canonical: they may overlap each other and need not sit on their least
    lattice.  `set_contacts` takes one in place of a `BoxSet` (`_common` reads
    a set only through ``exp`` and ``ints``); it is never made a `BoxSet`,
    whose equality and hash assume canonical boxes."""

    exp: int
    ints: Sequence[tuple]


def _common(sets: Sequence["BoxSet | RawBoxes"]) -> tuple[int, list[tuple], list[int]]:
    """The finest exponent of ``sets``, all their int boxes on its lattice,
    set after set, and the index of each box's set."""
    e = max((s.exp for s in sets), default=0)
    return (e, [b for s in sets for b in _shift(s.ints, e - s.exp)],
            [k for k, s in enumerate(sets) for _ in s.ints])


def _merge(name: str, a, b):
    """Slab tree of the union of the slab trees ``a`` and ``b``, merged
    section by section along each axis; one merge appending over
    ``MAX_SLABS`` slabs raises `ResourceLimit`."""

    def merge(a, b, budget):
        if not a or not b or a == b:
            return a or b
        cuts = sorted({x for lo, hi, _ in a + b for x in (lo, hi)})
        out = []
        i = j = 0
        na, nb = len(a), len(b)
        for lo, hi in zip(cuts, cuts[1:]):
            # every slab end is a cut, so at most one slab per side ends at lo
            if i < na and a[i][1] <= lo:
                i += 1
            if j < nb and b[j][1] <= lo:
                j += 1
            sec = merge(a[i][2] if i < na and a[i][0] <= lo else (),
                        b[j][2] if j < nb and b[j][0] <= lo else (), budget)
            if out and out[-1][1] == lo and out[-1][2] == sec:  # so sec is nonempty
                out[-1] = (out[-1][0], hi, sec)
            elif sec:
                budget[0] -= 1
                if budget[0] < 0:
                    raise ResourceLimit(f"{name}: one merge over {MAX_SLABS} slabs")
                out.append((lo, hi, sec))
        return tuple(out)

    return merge(a, b, [MAX_SLABS])


def _int_boxes(tree) -> list[tuple]:
    """The int boxes of a slab tree, in pre-order."""
    if tree is True:
        return [()]
    return [((lo, hi),) + rest for lo, hi, sec in tree for rest in _int_boxes(sec)]


def _sweep(name: str, ib: Sequence[tuple], d: int, budget: list):
    """Slab tree on axes ``d, d+1, ...`` of the union of the nonempty int boxes
    ``ib`` (at least one), by one sweep along axis ``d`` over a segment tree of
    its cuts (after Bentley's union of rectangles).  Each box sits in the
    O(log n) nodes whose leaf ranges its interval covers, and each node's
    section is the sweep of its boxes on the next axis; a walk from the root
    merges every section into the union of its ancestors' and emits one slab
    per run of leaves, so no section is recomputed from the boxes spanning a
    leaf.  Slabs emitted on every axis but the last count against ``budget``."""
    if len(ib) == 1:
        tree = True
        for lo, hi in reversed(ib[0][d:]):
            tree = ((lo, hi, tree),)
        return tree
    if d == len(ib[0]) - 1:
        return _runs(sorted(b[d] for b in ib))
    cuts = sorted({x for b in ib for x in b[d]})
    index = {x: k for k, x in enumerate(cuts)}
    size = 1 << (len(cuts) - 2).bit_length()  # leaf k is node size + k
    own: dict[int, list] = {}
    for b in ib:
        lo, hi = b[d]
        lo, hi = index[lo] + size, index[hi] + size
        while lo < hi:
            if lo & 1:
                own.setdefault(lo, []).append(b)
                lo += 1
            if hi & 1:
                hi -= 1
                own.setdefault(hi, []).append(b)
            lo >>= 1
            hi >>= 1
    below = set()  # nodes with boxes in a proper descendant
    for k in own:
        k >>= 1
        while k and k not in below:
            below.add(k)
            k >>= 1
    out = []

    def walk(k, lo, hi, acc):
        mine = own.get(k)
        if mine:
            sec = _sweep(name, mine, d + 1, budget)
            acc = sec if not acc else _merge(name, acc, sec)
        if k in below:
            mid = (lo + hi) >> 1
            for c, clo, chi in ((2 * k, lo, mid), (2 * k + 1, mid, hi)):
                if acc or c in own or c in below:
                    walk(c, clo, chi, acc)
        elif acc:
            if out and out[-1][1] == cuts[lo] and out[-1][2] == acc:
                out[-1] = (out[-1][0], cuts[hi], acc)
            else:
                budget[0] -= 1
                if budget[0] < 0:
                    raise ResourceLimit(f"{name}: one merge over {MAX_SLABS} slabs")
                out.append((cuts[lo], cuts[hi], acc))

    walk(1, 0, size, ())
    return tuple(out)


def _runs(intervals: list) -> tuple:
    """Slab tree of the union of sorted ``(lo, hi)`` intervals on one axis."""
    out = []
    for lo, hi in intervals:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi, True)
        else:
            out.append((lo, hi, True))
    return tuple(out)


def _canonical(ib: Sequence[tuple], name: str = "canonicalize") -> list[tuple]:
    """Canonical int boxes of the set ``ib`` covers, empty boxes dropped."""
    ib = [b for b in ib if all(lo < hi for lo, hi in b)]
    if len(ib) < 2 or not ib[0]:
        return ib[:1]
    return _int_boxes(_sweep(name, ib, 0, [MAX_SLABS]))


def union_all(sets: Sequence["BoxSet"]) -> "BoxSet":
    """The union of ``sets``, by one sweep over all their boxes."""
    e, ib, _ = _common(sets)
    return BoxSet._of(e, _canonical(ib, "union"), max((s.dim for s in sets), default=0))


def box_minus(e: int, box: tuple, holes: Sequence[tuple]) -> "BoxSet":
    """The closure of the int box ``box`` minus the int boxes ``holes``, all
    on the lattice of ``e``: the holes clipped to the box, those with empty
    interior dropped, and the rest subtracted by `_minus`."""
    ib = [box] if all(lo < hi for lo, hi in box) else []
    if ib:
        clipped = []
        for h in holes:
            c = []
            for (lo, hi), (bl, bh) in zip(h, box):
                if lo < bl:
                    lo = bl
                if hi > bh:
                    hi = bh
                if lo >= hi:
                    break
                c.append((lo, hi))
            else:
                clipped.append(tuple(c))
        # with no hole left a nonempty box is its own canonical list, and a
        # 0-dimensional box (a point) minus any hole is empty
        if clipped:
            ib = _minus(box, clipped, 0, [MAX_SLABS]) if box else []
    return BoxSet._of(e, ib, len(box))


def _minus(box: tuple, holes: Sequence[tuple], d: int, budget: list) -> list[tuple]:
    """Canonical int boxes, on axes ``d, d+1, ...``, of the nonempty int box
    ``box`` minus ``holes`` (at least one, inside the box, nonempty).  On the
    last axis they are the gaps the sorted hole intervals leave.  On another,
    the slabs between consecutive ends of the box and the holes are walked in
    order, the holes spanning the slab kept active from two index lists
    sorted by ``lo`` and by ``hi``: a slab's section is the box's own with no
    active hole, else the same subtraction on the next axis.  A slab that
    touches the one before and has an equal section extends it, so the result
    is canonical with no slab tree; each slab appended counts against
    ``budget``."""
    lo, hi = box[d]
    if d == len(box) - 1:
        out, at = [], lo
        for a, b in sorted(h[d] for h in holes):
            if a > at:
                out.append(((at, a),))
            if b > at:
                at = b
        if at < hi:
            out.append(((at, hi),))
        return out
    n = len(holes)
    los, his = [h[d][0] for h in holes], [h[d][1] for h in holes]
    by_lo, by_hi = sorted(range(n), key=los.__getitem__), sorted(range(n), key=his.__getitem__)
    cuts = sorted({lo, hi, *los, *his})
    whole = [box[d + 1:]]
    active: set[int] = set()
    slabs: list[list] = []
    i = j = 0
    for a, b in zip(cuts, cuts[1:]):
        while i < n and los[by_lo[i]] == a:
            active.add(by_lo[i])
            i += 1
        while j < n and his[by_hi[j]] == a:
            active.remove(by_hi[j])
            j += 1
        sec = _minus(box, [holes[k] for k in active], d + 1, budget) if active else whole
        if slabs and slabs[-1][1] == a and slabs[-1][2] == sec:
            slabs[-1][1] = b
        elif sec:
            budget[0] -= 1
            if budget[0] < 0:
                raise ResourceLimit(f"difference: one merge over {MAX_SLABS} slabs")
            slabs.append([a, b, sec])
    return [((a, b),) + s for a, b, sec in slabs for s in sec]


def least_lattice(e: int, ib: Sequence[tuple]) -> tuple[int, Sequence[tuple]]:
    """``(f, boxes)``: the int boxes ``ib`` on the lattice of ``e`` moved to
    the least lattice ``f <= e`` that holds them."""
    # drop the trailing zero bits that every corner has, at most e; most
    # sets have an odd corner, so stop at the first box that shows one
    if not e:
        return e, ib
    m = 0
    for b in ib:
        for lo, hi in b:
            m |= lo | hi
        if m & 1:
            return e, ib
    k = min(e, (m & -m).bit_length() - 1) if m else e
    return (e - k, [tuple((lo >> k, hi >> k) for lo, hi in b) for b in ib]) if k else (e, ib)


class BoxSet:
    """Canonical finite union of closed dyadic boxes."""

    __slots__ = ("exp", "ints", "dim", "_boxes")

    def __new__(cls, boxes: Sequence[Box]):
        return BoxSet.from_ints(*_lattice(boxes))

    @staticmethod
    def from_ints(e: int, ib: Sequence[tuple]) -> "BoxSet":
        """The set that the int boxes ``ib`` on the lattice of ``e`` cover."""
        if len({len(b) for b in ib}) > 1:
            raise ValueError("mixed dimensions")
        return BoxSet._of(e, _canonical(ib), len(ib[0]) if ib else 0)

    @staticmethod
    def _of(e: int, ib: Sequence[tuple], dim: int) -> "BoxSet":
        """The set of canonical int boxes ``ib`` on the lattice of ``e``."""
        s = object.__new__(BoxSet)
        s._store(e, ib, dim)
        return s

    def _store(self, e: int, ib: Sequence[tuple], dim: int) -> None:
        """Keep ``ib`` on the least lattice that holds it; ``dim`` if it is empty."""
        e, ib = least_lattice(e, ib)
        put = object.__setattr__
        put(self, "exp", e)
        put(self, "ints", tuple(ib))
        put(self, "dim", len(ib[0]) if ib else dim)
        put(self, "_boxes", None)

    def __setattr__(self, *a):
        raise AttributeError("BoxSet is immutable")

    @staticmethod
    def empty(dim: int = 3) -> "BoxSet":
        return BoxSet._of(0, (), dim)

    @property
    def boxes(self) -> tuple:
        """The canonical boxes with `Dyadic` corners, built on first use."""
        if self._boxes is None:
            e = self.exp
            dy = {c: Dyadic(c, e) for c in {c for b in self.ints for iv in b for c in iv}}
            object.__setattr__(self, "_boxes", tuple(
                tuple([(dy[lo], dy[hi]) for lo, hi in b]) for b in self.ints))
        return self._boxes

    # -- basic queries ---------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.ints

    def measure(self) -> int:
        """Total volume in units of ``2**-(exp * dim)``: a sum of int products."""
        return sum(prod(hi - lo for lo, hi in b) for b in self.ints)

    def volume(self) -> Fraction:
        """Exact total volume."""
        return Fraction(self.measure(), 1 << (self.exp * self.dim))

    def int_bbox(self) -> tuple:
        """The bounding box as ``(lo, hi)`` int pairs on the lattice of ``exp``."""
        out = []
        for axis in zip(*self.ints):  # every box's (lo, hi) on one axis
            los, his = zip(*axis)
            out.append((min(los), max(his)))
        return tuple(out)

    def _outside(self, e: int, m: int) -> "BoxSet":
        """The bounding box widened by the int margin ``m`` on the lattice of
        ``e``, minus the set: one `box_minus` on the finer of the two lattices."""
        f = max(e, self.exp)
        bbox, *ib = _shift([self.int_bbox(), *self.ints], f - self.exp)
        m <<= f - e
        return box_minus(f, tuple((lo - m, hi + m) for lo, hi in bbox), ib)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoxSet):
            return NotImplemented
        return self.exp == other.exp and self.ints == other.ints

    def __hash__(self):
        return hash((self.exp, self.ints))

    def __repr__(self):
        return f"BoxSet({len(self.ints)} boxes, dim={self.dim})"

    # -- booleans ---------------------------------------------------------------

    def union(self, other: "BoxSet") -> "BoxSet":
        return union_all([self, other])

    def intersection(self, other: "BoxSet") -> "BoxSet":
        return self.difference(self.difference(other))

    def difference(self, other: "BoxSet") -> "BoxSet":
        """Regularized difference: closure of (self minus other), one
        `box_minus` of the bounding box, whose holes are other's boxes and
        the part of the box outside self."""
        if not self.ints:
            return BoxSet.empty(max(self.dim, other.dim))
        e, (bbox, *holes), _ = _common([RawBoxes(self.exp, [self.int_bbox()]),
                                        self._outside(0, 0), other])
        return box_minus(e, bbox, holes)

    def interior_intersects(self, other: "BoxSet") -> bool:
        """Whether the interiors meet, read off `set_contacts`."""
        return bool(set_contacts([self, other])[1])

    def contains_set(self, other: "BoxSet") -> bool:
        return other.difference(self).is_empty()

    # -- geometry ops -----------------------------------------------------------

    def translate(self, e: int, vec: Sequence[int]) -> "BoxSet":
        """The set moved by the int vector ``vec`` on the lattice of ``e``."""
        return BoxSet._of(*_offset(self.exp, self.ints, e, [(x, x) for x in vec]), self.dim)

    def signed_permute(self, perm: Sequence[int], signs: Sequence[int]) -> "BoxSet":
        """Apply the cube symmetry x_i -> signs[i] * x[perm[i]]."""
        out = [tuple(b[p] if s >= 0 else (-b[p][1], -b[p][0]) for p, s in zip(perm, signs))
               for b in self.ints]
        return BoxSet._of(self.exp, _canonical(out), self.dim)

    def inflate_all(self, e: int, m: int) -> "BoxSet":
        """Closed neighborhood in the L-infinity metric of radius the int
        ``m`` on the lattice of ``e``."""
        f, ib = _offset(self.exp, self.ints, e, [(-m, m)] * self.dim)
        return BoxSet._of(f, _canonical(ib), self.dim)

    def thin(self, e: int, m: int) -> "BoxSet":
        """Exact L-infinity erosion: points whose cube of radius the int
        ``m`` on the lattice of ``e`` stays inside."""
        if m < 0:
            raise ValueError("thin: negative margin")
        if self.is_empty() or m == 0:
            return self
        outside = self._outside(e, m + (1 << e))
        return self.difference(outside.inflate_all(e, m))

    # -- contact structure --------------------------------------------------------

    def shared_face_area(self, other: "BoxSet") -> Fraction:
        """Total codimension-1 contact area; assumes disjoint interiors."""
        e, faces = contact_faces(self, other)
        # an area is in units of the lattice's face, 2**-(e * (dim - 1))
        return Fraction(sum(area for _, area in faces),
                        1 << e * (self.dim - 1) if faces else 1)

    def components(self) -> list["BoxSet"]:
        """Face-connected components (edge/corner contact does not connect),
        by a union-find over the face bits of `_relation`."""
        n = len(self.ints)
        parent = list(range(n))
        for k, block, _, face, _ in _relation(self.ints, (0,) * n):
            for i in _positions(face):
                join(parent, k, block[i])
        groups: dict[int, list[tuple]] = {}
        for i in range(n):
            groups.setdefault(find(parent, i), []).append(self.ints[i])
        # a component's boxes need not be its canonical list
        return ([self] if len(groups) == 1 else
                [BoxSet._of(self.exp, _canonical(g), self.dim) for g in groups.values()])


# The relation builds its masks for at most `BLOCK` sweep positions at a
# time, so they hold at most BLOCK**2 / 8 bytes per axis end however many
# boxes come (unblocked, `tile-tree` on `binary-canopy(10)` peaks 93 MB
# higher).
BLOCK = 2048


def _end_masks(ib: Sequence[tuple], block: Sequence[int], a: int, side: int):
    """The ``side`` ends (0 for lo, 1 for hi) on axis ``a`` of the boxes
    ``block``, sorted, and per sorted index t the int bitset of the block
    positions whose end comes before t (lo ends) or at or after t (hi ends)."""
    ends = [ib[k][a][side] for k in block]
    order = sorted(range(len(ends)), key=ends.__getitem__, reverse=side == 1)
    masks, acc = [0], 0
    for i in order:
        acc |= 1 << i
        masks.append(acc)
    if side:
        order.reverse()
        masks.reverse()
    return [ends[i] for i in order], masks


def _relation(ib: Sequence[tuple], owner: Sequence):
    """Rows ``(k, block, own, face, over)``, one per box ``k`` and block of
    earlier boxes it meets, of the contact relation of the nonempty int boxes
    ``ib``: ``block`` lists box indices in axis-0 sweep order, ``face`` and
    ``over`` are bitsets over its positions of the boxes touching box ``k``
    along a codim-1 face and of those overlapping it, and ``own`` maps each
    owner to the bitset of its boxes in the block.

    A block keeps, per axis, the sorted ``lo`` ends with prefix masks and the
    sorted ``hi`` ends with suffix masks.  On one axis, the boxes meeting box
    k are two bisects and two masks, those overlapping it the same with the
    bisects swapped, and the rest touch it.  A face contact meets k on every
    axis and touches it on one, an overlap touches it on none."""
    order = sorted(range(len(ib)), key=lambda k: ib[k][0][0])
    for b0 in range(0, len(order), BLOCK):
        block = order[b0:b0 + BLOCK]
        # sweep order puts every lo0 of the block at or below lo0 < hi0 of a
        # later box, so axis 0 needs only the hi ends
        his0, suf0 = _end_masks(ib, block, 0, 1)
        rest = [(*_end_masks(ib, block, a, 0), *_end_masks(ib, block, a, 1))
                for a in range(1, len(ib[0]))]
        own: dict = {}
        for i, k in enumerate(block):
            own[owner[k]] = own.get(owner[k], 0) | 1 << i
        for p in range(b0, len(order)):
            k = order[p]
            q = ib[k]
            lo0 = q[0][0]
            if lo0 > his0[-1]:
                break  # no later box reaches back into the block
            meet = suf0[bisect_left(his0, lo0)]
            if p - b0 < len(block):
                meet &= (1 << (p - b0)) - 1
            once, twice = meet & ~suf0[bisect_right(his0, lo0)], 0
            for (lo, hi), (los, pre, his, suf) in zip(q[1:], rest):
                if not meet:
                    break
                meet &= pre[bisect_right(los, hi)] & suf[bisect_left(his, lo)]
                touch = meet & ~(pre[bisect_left(los, hi)] & suf[bisect_right(his, lo)])
                twice |= once & touch
                once |= touch
            if meet:
                yield k, block, own, meet & once & ~twice, meet & ~once


def _positions(m: int):
    """The positions of the set bits of the int ``m``, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _contacts(ib: Sequence[tuple], owner: Sequence):
    """Exact contacts among nonempty int boxes on one lattice: yield ``(i, j,
    area)``, in no fixed order, for every pair ``i < j`` of boxes with
    different owners that touch along a codim-1 face (``area`` is the int
    contact area, in units of ``2**-(e * (dim - 1))``) or overlap (``area``
    is None), from the rows of `_relation`."""
    for k, block, own, face, over in _relation(ib, owner):
        mine = own.get(owner[k], 0)
        for j in map(block.__getitem__, _positions(face & ~mine)):
            # the side of the touching axis is 0
            yield min(j, k), max(j, k), prod(filter(None, (
                min(ph, qh) - max(pl, ql) for (pl, ph), (ql, qh) in zip(ib[j], ib[k]))))
        for j in map(block.__getitem__, _positions(over & ~mine)):
            yield min(j, k), max(j, k), None


def set_contacts(sets: Sequence[BoxSet | RawBoxes], components: Container[int] = ()) -> tuple:
    """Pairwise contact of box sets: ``(adjacent, overlaps, counts)`` where
    ``adjacent`` holds the set pairs ``(a, b)``, ``a < b``, whose closures
    share positive face area, ``overlaps`` those whose interiors meet, and
    ``counts[a]`` is the number of face-connected components of ``sets[a]``
    for each ``a`` in ``components``, None for the others.  All of it is read
    off the bitsets of `_relation`: face bits in a box's own counted set go
    to a union-find, and those of other sets are taken one set at a time,
    through its mask in the block, so each neighbouring set costs one insert.

    A set may be a `RawBoxes`, whose boxes may overlap each other.  Its
    ``overlaps`` are exact, since the interiors of two finite unions of
    closed boxes meet exactly when those of some box of each do.  It must
    not be in ``components``: a union-find over face bits miscounts boxes
    that overlap."""
    _, ib, owner = _common(sets)
    counts = [0 if a in components else None for a in range(len(sets))]
    parent = list(range(len(ib)))
    adjacent, overlaps = set(), set()
    for k, block, own, face, over in _relation(ib, owner):
        a = owner[k]
        mine = own.get(a, 0)
        if face & mine and counts[a] is not None:
            root = find(parent, k)
            for i in _positions(face & mine):
                parent[find(parent, block[i])] = root
        for bits, pairs in ((face & ~mine, adjacent), (over & ~mine, overlaps)):
            while bits:
                b = owner[block[(bits & -bits).bit_length() - 1]]
                pairs.add((b, a) if b < a else (a, b))
                bits &= ~own[b]
    for i, a in enumerate(owner):
        if parent[i] == i and counts[a] is not None:
            counts[a] += 1
    return adjacent, overlaps, counts


def contact_faces(a: BoxSet, b: BoxSet) -> tuple[int, list[tuple[tuple, int]]]:
    """``(e, faces)``: the degenerate int boxes, on the lattice of ``e``, where
    the closures of a and b meet along codim-1 faces, each paired with its
    int area in units of ``2**-(e * (dim - 1))``.  Assumes disjoint
    interiors.  Faces come in (a box, b box) index order, which the stable
    sort by area in ``tunnels.route_gamma`` turns into its tie-break between
    equal areas."""
    e, ib, owner = _common([a, b])
    hits = sorted((i, j, area) for i, j, area in _contacts(ib, owner) if area is not None)
    return e, [(tuple((pl if pl >= ql else ql, ph if ph <= qh else qh)
                      for (pl, ph), (ql, qh) in zip(ib[i], ib[j])), area)
               for i, j, area in hits]


# ---------------------------------------------------------------------------
# polylines
# ---------------------------------------------------------------------------


def _segments(points: Sequence[Sequence[int]]) -> list[tuple]:
    """The boxes of a rectilinear polyline of int points, one per segment or
    the point itself for a single point, each in the flat form ``(hi0, -lo0,
    hi1, -lo1, ...)``.  Raises ValueError for an empty polyline, points of
    unequal dimension or a segment that is not axis-aligned."""
    if not points:
        raise ValueError("empty polyline")
    if len({len(p) for p in points}) > 1:
        raise ValueError("polyline points of unequal dimension")
    if len(points) == 1:
        return [tuple(y for x in points[0] for y in (x, -x))]
    segs = []
    for p, q in zip(points, points[1:]):
        if sum(x != y for x, y in zip(p, q)) > 1:
            raise ValueError("polyline segments must be axis-aligned")
        segs.append(tuple(z for x, y in zip(p, q) for z in ((y, -x) if x <= y else (x, -y))))
    return segs


def polyline_neighborhood(e: int, points: Sequence[Sequence[int]], m: int) -> BoxSet:
    """Closed L-infinity neighborhood of radius ``m`` of a rectilinear polyline
    of int points, both on the lattice of ``e``."""
    return BoxSet.from_ints(e, [tuple((-nlo - m, hi + m) for hi, nlo in zip(s[::2], s[1::2]))
                                for s in _segments(points)])


class Clearance:
    """A region prepared for clearance queries: ``Clearance(region)(e,
    points)``, for a rectilinear polyline of int points on the lattice of
    ``e``, is ``(f, room)``: the L-infinity distance from the polyline to the
    closure of the complement of ``region``, capped at 1, as the int ``room``
    on the lattice ``f``, the finer of ``e`` and the region's.  For 0 < eps
    <= 1 the closed eps-neighborhood of the polyline lies inside ``region``
    exactly when ``eps <= room / 2**f``.  A polyline whose dimension is not
    that of a nonempty region raises ValueError.

    The complement within 1 of the region's bounding box, ``frame - region``
    with ``frame`` that box inflated by 1, is built once, as one `box_minus`
    on the region's lattice, and moved at most once to each finer lattice a
    query needs.  There its boxes are kept in the flat form ``(lo0, -hi0,
    lo1, -hi1, ...)``, and the bounding box in the segments' form ``(hi0,
    -lo0, ...)``.  A polyline not inside the bounding box, one of whose
    segments has a flat coordinate above the box's, has a point outside the
    closed region, so its clearance is 0.  Otherwise every point within 1 of
    it lies in ``frame``, and the distance from a segment to a complement box
    is their largest per-axis gap, ``max(map(sub, box, segment))`` (an open
    eps-box around the segment meets the closed complement box in a set with
    interior iff eps exceeds it); the clearance is the least such gap."""

    __slots__ = ("exp", "dim", "lattices")

    def __init__(self, region: BoxSet):
        # lattice exponent -> (bbox, complement boxes), flat, on that lattice
        self.exp, self.dim, self.lattices = region.exp, region.dim, {}
        if not region.is_empty():
            comp = region._outside(0, 1)
            self.lattices[self.exp] = (
                tuple(z for lo, hi in region.int_bbox() for z in (hi, -lo)),
                [tuple(z for lo, hi in c for z in (lo, -hi))
                 for c in _shift(comp.ints, self.exp - comp.exp)])

    def __call__(self, e: int, points: Sequence[Sequence[int]]) -> tuple[int, int]:
        segs = _segments(points)
        if not self.lattices:
            return e, 0
        if len(segs[0]) != 2 * self.dim:
            raise ValueError(f"polyline of dimension {len(segs[0]) // 2} in a region of "
                             f"dimension {self.dim}")
        f = max(e, self.exp)
        if f > e:
            segs = [tuple(x << (f - e) for x in s) for s in segs]
        if f not in self.lattices:
            k = f - self.exp
            top, comp = self.lattices[self.exp]
            self.lattices[f] = (tuple(x << k for x in top),
                                [tuple(x << k for x in c) for c in comp])
        top, comp = self.lattices[f]
        room = 1 << f
        for s in segs:
            if not all(map(le, s, top)):
                return f, 0
            gap = min(max(map(sub, c, s)) for c in comp)
            if gap <= 0:
                return f, 0
            if gap < room:
                room = gap
        return f, room
