"""Exact axis-aligned box sets over dyadic coordinates.

A :class:`BoxSet` is a finite union of closed axis-aligned boxes with
:class:`~tilelab.dyadic.Dyadic` corner coordinates, kept in a canonical form:
the maximal slab decomposition obtained by merging grid cells along the last
axis first, then grouping identical sections along earlier axes.  The
canonical form depends only on the point set, so equality of canonical box
lists is equality of regions.

All boolean operations are *regularized*: results are closures of open sets,
so lower-dimensional slivers never survive.  The kernel is dimension-generic
(the fractal module uses it in 2D, everything else in 3D).

Inside the kernel every coordinate is a Python int on the lattice of the
finest exponent among its inputs (`_lattice`); booleans, contacts and
volumes compute on those ints, and `Dyadic` corners are built only for the
boxes a result returns.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .dyadic import Dyadic, ZERO

Box = tuple  # tuple of (lo, hi) Dyadic pairs, one per axis


def box_of(*intervals) -> Box:
    out = []
    for lo, hi in intervals:
        out.append((Dyadic.coerce(lo), Dyadic.coerce(hi)))
    return tuple(out)


def cube_at(center: Sequence, half: Dyadic) -> Box:
    h = Dyadic.coerce(half)
    return tuple((Dyadic.coerce(c) - h, Dyadic.coerce(c) + h) for c in center)


def box_is_empty(box: Box) -> bool:
    return any(lo >= hi for lo, hi in box)


def box_volume(box: Box) -> Fraction:
    return _volume([box])


def _volume(boxes: Sequence[Box]) -> Fraction:
    """Exact total volume: a sum of int products at the common exponent."""
    if not boxes:
        return Fraction(0)
    e, ib = _lattice(boxes)
    return Fraction(sum(prod(hi - lo for lo, hi in b) for b in ib),
                    1 << (e * len(ib[0])))


def inflate(box: Box, eps) -> Box:
    e = Dyadic.coerce(eps)
    return tuple((lo - e, hi + e) for lo, hi in box)


def deflate(box: Box, eps) -> Box:
    e = Dyadic.coerce(eps)
    return tuple((lo + e, hi - e) for lo, hi in box)


def box_contains_box(outer: Box, inner: Box) -> bool:
    return all(ol <= il and ih <= oh for (ol, oh), (il, ih) in zip(outer, inner))


def boxes_bbox(boxes: Iterable[Box]) -> Box | None:
    boxes = list(boxes)
    if not boxes:
        return None
    return tuple((min(b[a][0] for b in boxes), max(b[a][1] for b in boxes))
                 for a in range(len(boxes[0])))


# Cells a dense grid of `BoxSet._binary` or `_canonicalize` may have.  An op
# holds up to three byte grids plus a nested list of the result (one pointer
# per cell), about 190 MB at this limit.  The largest grid of the test suite
# has 11,025 cells (a 3-D union, 25x21x21), of the benchmark jobs 9,025.
MAX_GRID_CELLS = 1 << 24


class ResourceLimit(Exception):
    """A computation would exceed a fixed size limit (CLI exit code 3)."""


def _lattice(boxes: Sequence[Box]) -> tuple[int, list[tuple]]:
    """Boxes on the integer lattice of their finest exponent ``e``: returns
    ``e`` and, per box, a tuple of ``(lo, hi)`` int pairs, where the int
    ``c`` stands for ``c / 2**e``."""
    e = max((c.exp for b in boxes for iv in b for c in iv), default=0)
    return e, [tuple((lo.num << (e - lo.exp), hi.num << (e - hi.exp)) for lo, hi in b)
               for b in boxes]


def _dense_grid(op: str, ib: Sequence[tuple]) -> tuple[list[list[int]], list[dict]]:
    """Sorted distinct coordinates per axis of the int boxes ``ib`` and, per
    axis, the index of each coordinate in its grid; raises `ResourceLimit`
    when the grid of cells between them would exceed ``MAX_GRID_CELLS``."""
    grids = [sorted({c for b in ib for c in b[a]}) for a in range(len(ib[0]))]
    shape = [len(g) - 1 for g in grids]
    cells = prod(shape)
    if cells > MAX_GRID_CELLS:
        raise ResourceLimit(f"{op}: dense grid {'x'.join(map(str, shape))} has "
                            f"{cells} cells, over the limit of {MAX_GRID_CELLS}")
    return grids, [{c: i for i, c in enumerate(g)} for g in grids]


def _fill(index: list[dict], ib: Sequence[tuple]) -> np.ndarray:
    """Occupancy of the grid ``index`` by the int boxes ``ib``."""
    arr = np.zeros([len(ix) - 1 for ix in index], dtype=bool)
    for b in ib:
        arr[tuple([slice(ix[lo], ix[hi]) for ix, (lo, hi) in zip(index, b)])] = True
    return arr


def _extract(arr: np.ndarray, grids: list[list[int]], e: int) -> list[Box]:
    """Canonical maximal merge: runs along the last axis, then equal adjacent
    slabs grouped along each earlier axis, outermost first."""
    last = arr.ndim - 1
    runs: list[tuple] = []  # per box, a (start, stop) cell index pair per axis

    def walk(sub: list, depth: int, prefix: tuple) -> None:
        n = len(sub)
        i = 0
        if depth == last:
            while True:
                try:
                    i0 = sub.index(True, i)
                except ValueError:
                    return
                try:
                    i = sub.index(False, i0)
                except ValueError:
                    i = n
                runs.append(prefix + ((i0, i),))
        while i < n:
            j = i + 1
            while j < n and sub[j] == sub[i]:
                j += 1
            walk(sub[i], depth + 1, prefix + ((i, j),))
            i = j

    walk(arr.tolist(), 0, ())
    dy = [{i: Dyadic(g[i], e) for i in {i for r in runs for i in r[a]}}
          for a, g in enumerate(grids)]
    return [tuple([(d[i0], d[i1]) for d, (i0, i1) in zip(dy, r)]) for r in runs]


_OPS = {
    "union": np.logical_or,
    "intersection": np.logical_and,
    "difference": lambda x, y: np.logical_and(x, np.logical_not(y)),
}


class BoxSet:
    """Canonical finite union of closed dyadic boxes."""

    __slots__ = ("boxes", "dim")

    def __init__(self, boxes: Sequence[Box], _canonical: bool = False):
        if not _canonical:
            boxes = [b for b in boxes if not box_is_empty(b)]
            if boxes:
                boxes = self._canonicalize(boxes)
        dims = {len(b) for b in boxes}
        if len(dims) > 1:
            raise ValueError("mixed dimensions")
        object.__setattr__(self, "boxes", tuple(boxes))
        object.__setattr__(self, "dim", dims.pop() if dims else 0)

    def __setattr__(self, *a):
        raise AttributeError("BoxSet is immutable")

    @staticmethod
    def _canonicalize(boxes: Sequence[Box]) -> list[Box]:
        e, ib = _lattice(boxes)
        grids, index = _dense_grid("canonicalize", ib)
        return _extract(_fill(index, ib), grids, e)

    @staticmethod
    def empty(dim: int = 3) -> "BoxSet":
        s = BoxSet([])
        object.__setattr__(s, "dim", dim)
        return s

    @staticmethod
    def from_box(box: Box) -> "BoxSet":
        return BoxSet([box])

    # -- basic queries ---------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.boxes

    def volume(self) -> Fraction:
        return _volume(self.boxes)

    def bbox(self) -> Box | None:
        return boxes_bbox(self.boxes)

    def contains_point(self, pt: Sequence) -> bool:
        p = [Dyadic.coerce(x) for x in pt]
        return any(all(lo <= x <= hi for x, (lo, hi) in zip(p, b)) for b in self.boxes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoxSet):
            return NotImplemented
        return self.boxes == other.boxes

    def __hash__(self):
        return hash(self.boxes)

    def __repr__(self):
        return f"BoxSet({len(self.boxes)} boxes, dim={self.dim})"

    # -- booleans ---------------------------------------------------------------

    def _binary(self, other: "BoxSet", op: str) -> "BoxSet":
        if not self.boxes and not other.boxes:
            return BoxSet.empty(max(self.dim, other.dim, 3))
        n = len(self.boxes)
        e, ib = _lattice(self.boxes + other.boxes)
        grids, index = _dense_grid(op, ib)
        res = _OPS[op](_fill(index, ib[:n]), _fill(index, ib[n:]))
        out = BoxSet(_extract(res, grids, e), _canonical=True)
        if not out.boxes:
            return BoxSet.empty(len(ib[0]))
        return out

    def union(self, other: "BoxSet") -> "BoxSet":
        return self._binary(other, "union")

    def intersection(self, other: "BoxSet") -> "BoxSet":
        return self._binary(other, "intersection")

    def difference(self, other: "BoxSet") -> "BoxSet":
        """Regularized difference: closure of (self minus other)."""
        return self._binary(other, "difference")

    def interior_intersects(self, other: "BoxSet") -> bool:
        """Whether the interiors meet; stops at the first overlapping pair."""
        owner = [0] * len(self.boxes) + [1] * len(other.boxes)
        ib = _lattice(self.boxes + other.boxes)[1]
        return any(area is None for _, _, area in _contacts(ib, owner))

    def contains_set(self, other: "BoxSet") -> bool:
        return other.difference(self).is_empty()

    # -- geometry ops -----------------------------------------------------------

    def translate(self, vec: Sequence) -> "BoxSet":
        v = [Dyadic.coerce(x) for x in vec]
        return BoxSet(
            [tuple((lo + dv, hi + dv) for (lo, hi), dv in zip(b, v)) for b in self.boxes],
            _canonical=True,
        )

    def signed_permute(self, perm: Sequence[int], signs: Sequence[int]) -> "BoxSet":
        """Apply the cube symmetry x_i -> signs[i] * x[perm[i]]."""
        out = []
        for b in self.boxes:
            nb = []
            for i in range(len(b)):
                lo, hi = b[perm[i]]
                if signs[i] < 0:
                    lo, hi = -hi, -lo
                nb.append((lo, hi))
            out.append(tuple(nb))
        return BoxSet(out)

    def inflate_all(self, eps) -> "BoxSet":
        """Closed eps-neighborhood in the L-infinity metric."""
        e = Dyadic.coerce(eps)
        return BoxSet([inflate(b, e) for b in self.boxes])

    def thin(self, eps) -> "BoxSet":
        """Exact L-infinity erosion: points whose eps-cube stays inside."""
        e = Dyadic.coerce(eps)
        if e < ZERO:
            raise ValueError("thin: negative margin")
        if self.is_empty() or e == ZERO:
            return self
        bb = self.bbox()
        outer = BoxSet.from_box(inflate(bb, e + Dyadic(1)))
        comp = outer.difference(self)
        dil = comp.inflate_all(e)
        return self.difference(dil)

    # -- contact structure --------------------------------------------------------

    def shared_face_area(self, other: "BoxSet") -> Fraction:
        """Total codimension-1 contact area; assumes disjoint interiors."""
        return set_contacts([self, other])[0].get((0, 1), Fraction(0))

    def components(self) -> list["BoxSet"]:
        """Face-connected components (edge/corner contact does not connect)."""
        n = len(self.boxes)
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j, area in _contacts(_lattice(self.boxes)[1], range(n)):
            if area is not None:
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj
        groups: dict[int, list[Box]] = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(self.boxes[i])
        return [BoxSet(g, _canonical=True) for g in groups.values()]

    # -- voxel bridge ---------------------------------------------------------------

    def voxelize(self, pitch_exp: int, bbox: Box | None = None) -> tuple[np.ndarray, Box]:
        """Occupancy grid with cell size 2^-pitch_exp over ``bbox``.

        Exact when every box corner lies on the pitch lattice (callers that
        need exactness align their inputs); otherwise cells are marked when
        covered, by half-open index ranges of the snapped corners.
        """
        if bbox is None:
            bbox = self.bbox()
        if bbox is None:
            raise ValueError("voxelize: empty set without bbox")
        scale = 1 << pitch_exp
        lo = [x[0].as_fraction() for x in bbox]
        shape = []
        for (a, b) in bbox:
            span = (b - a).as_fraction() * scale
            if span != int(span):
                raise ValueError("voxelize: bbox not on pitch lattice")
            shape.append(int(span))
        arr = np.zeros(shape, dtype=bool)
        for box in self.boxes:
            idx = []
            for ax, (a, b) in enumerate(box):
                i0 = (a.as_fraction() - lo[ax]) * scale
                i1 = (b.as_fraction() - lo[ax]) * scale
                idx.append(slice(max(int(i0), 0), min(int(i1), shape[ax])))
            arr[tuple(idx)] = True
        return arr, bbox


def _contacts(ib: Sequence[tuple], owner: Sequence):
    """Exact contact sweep over int boxes (``_lattice``): yield ``(i, j,
    area)`` for every pair ``i < j`` of boxes with different owners that
    touch along a codim-1 face (``area`` is the positive int contact area,
    in units of ``2**-(e * (dim - 1))``) or whose interiors overlap (``area``
    is None).  Pairs meeting only along an edge or a corner are not reported.

    A sort-and-sweep along axis 0 skips pairs whose closures are apart on
    that axis."""
    active: list[int] = []
    for k in sorted(range(len(ib)), key=lambda k: ib[k][0][0]):
        q = ib[k]
        active = [j for j in active if ib[j][0][1] >= q[0][0]]
        for j in active:
            if owner[j] == owner[k]:
                continue
            touch = False
            area = 1
            for (pl, ph), (ql, qh) in zip(ib[j], q):
                lo = pl if pl >= ql else ql
                hi = ph if ph <= qh else qh
                if lo > hi:
                    break
                if lo == hi:
                    if touch:
                        break  # edge or corner contact only
                    touch = True
                else:
                    area *= hi - lo
            else:
                yield min(j, k), max(j, k), area if touch else None
        active.append(k)


def _face_unit(e: int, ib: Sequence[tuple]) -> int:
    """Denominator of the int face areas `_contacts` yields for ``ib``."""
    return 1 << (e * (len(ib[0]) - 1)) if ib else 1


def set_contacts(sets: Sequence[BoxSet]) -> tuple[dict, set]:
    """Pairwise contact of box sets: ``(areas, overlaps)`` where ``areas``
    maps each set pair ``(a, b)``, ``a < b``, with positive shared face area
    to that area, and ``overlaps`` holds the set pairs whose interiors meet."""
    e, ib = _lattice([b for s in sets for b in s.boxes])
    owner = [k for k, s in enumerate(sets) for _ in s.boxes]
    areas: dict = {}
    overlaps = set()
    for i, j, area in _contacts(ib, owner):
        key = (owner[i], owner[j])
        if area is None:
            overlaps.add(key)
        else:
            areas[key] = areas.get(key, 0) + area
    unit = _face_unit(e, ib)
    return {key: Fraction(a, unit) for key, a in areas.items()}, overlaps


def contact_faces(a: BoxSet, b: BoxSet) -> list[tuple[Box, Fraction]]:
    """Degenerate boxes where closures of a and b meet along codim-1 faces,
    paired with their areas.  Assumes disjoint interiors.  Faces come in
    (a box, b box) index order, which the stable sort by area in
    ``tunnels.route_gamma`` turns into its tie-break between equal areas."""
    n = len(a.boxes)
    e, ib = _lattice(a.boxes + b.boxes)
    unit = _face_unit(e, ib)
    hits = sorted((i, j - n, area)
                  for i, j, area in _contacts(ib, [0] * n + [1] * len(b.boxes))
                  if area is not None)
    return [
        (tuple((pl if pl >= ql else ql, ph if ph <= qh else qh)
               for (pl, ph), (ql, qh) in zip(a.boxes[i], b.boxes[j])),
         Fraction(area, unit))
        for i, j, area in hits
    ]


# ---------------------------------------------------------------------------
# polylines
# ---------------------------------------------------------------------------


def _segments(points: Sequence[Sequence]) -> list[Box]:
    """Degenerate boxes of a rectilinear polyline: one per segment, or the
    point itself for a single point.  Raises ValueError for an empty
    polyline or a segment that is not axis-aligned."""
    pts = [[Dyadic.coerce(x) for x in p] for p in points]
    if not pts:
        raise ValueError("empty polyline")
    if len(pts) == 1:
        return [tuple((x, x) for x in pts[0])]
    segs = []
    for p, q in zip(pts, pts[1:]):
        if sum(x != y for x, y in zip(p, q)) > 1:
            raise ValueError("polyline segments must be axis-aligned")
        segs.append(tuple((x, y) if x <= y else (y, x) for x, y in zip(p, q)))
    return segs


def polyline_neighborhood(points: Sequence[Sequence], c) -> BoxSet:
    """Closed c-neighborhood (L-infinity) of a rectilinear polyline."""
    cc = Dyadic.coerce(c)
    return BoxSet([inflate(seg, cc) for seg in _segments(points)])


def clearance(points: Sequence[Sequence], region: BoxSet) -> Dyadic:
    """L-infinity distance from a rectilinear polyline to the closure of the
    complement of ``region``, capped at 1.  For 0 < eps <= 1 the closed
    eps-neighborhood of the polyline lies inside ``region`` exactly when
    ``eps <= clearance(points, region)``.

    Within 1 of the polyline the complement is ``frame - region``, with
    ``frame`` the bounding box of both inflated by 1.  The distance from a
    segment box to a complement box is their largest per-axis gap (an open
    eps-box around the segment meets the closed complement box in a set with
    interior iff eps exceeds it); the clearance is the least such gap."""
    segs = _segments(points)
    frame = inflate(boxes_bbox(segs + list(region.boxes)), 1)
    comp = BoxSet([frame], _canonical=True).difference(region).boxes
    e, ib = _lattice(segs + list(comp))
    n = len(segs)
    gap = min(max([g for (sl, sh), (cl, ch) in zip(s, c)
                   for g in (cl - sh, sl - ch)])
              for s in ib[:n] for c in ib[n:])
    return Dyadic(min(max(gap, 0), 1 << e), e)
