"""The tunnel router on `Dyadic` coordinates, as it was before it moved to
one int lattice: `Dyadic` contact faces and centres, a `Dyadic` clearance
per query, and `Dyadic` half steps.  The candidate polylines and their
dedupe, which work on either form, are the router's own.  Its plans are
`DyadicPlan` records; `tests/test_tunnels.py` checks that `tunnels.route_gamma`
gives the same plan, through `dyadic_plan`, or the same `RoutingError`."""

from fractions import Fraction

from tilelab.boxes import _common, _contacts, _lattice, _shift, union_all
from tilelab.dyadic import Dyadic, HALF, ZERO
from tilelab.tunnels import (FINEST_EXP, RoutingError, UnrealizableEdgeError,
                             _candidate_mids, _dedupe)


class DyadicPlan:
    """A tunnel plan as the `Dyadic` router returned it: the polyline
    ``gamma`` of `Dyadic` points and the clearance ``epsilon``."""

    def __init__(self, path, gamma, epsilon):
        self.path = list(path)
        self.gamma = [tuple(Dyadic.coerce(c) for c in p) for p in gamma]
        self.epsilon = Dyadic.coerce(epsilon)


def dyadic_plan(plan):
    """The `DyadicPlan` of a `tunnels.TunnelPlan`."""
    return DyadicPlan(plan.path, [tuple(Dyadic(x, plan.exp) for x in p) for p in plan.points],
                      Dyadic(1, plan.j))


def contact_faces(a, b):
    """`Dyadic` face boxes where a and b touch, with `Fraction` areas, in
    (a box, b box) index order."""
    e, ib, owner = _common([a, b])
    unit = 1 << (e * (len(ib[0]) - 1)) if ib else 1
    hits = sorted((i, j, area) for i, j, area in _contacts(ib, owner) if area is not None)
    return [
        (tuple((Dyadic(max(pl, ql), e), Dyadic(min(ph, qh), e))
               for (pl, ph), (ql, qh) in zip(ib[i], ib[j])),
         Fraction(area, unit))
        for i, j, area in hits
    ]


def _segments(points):
    """`Dyadic` degenerate boxes of a rectilinear polyline."""
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


class Clearance:
    """``Clearance(region)(points)``: the `Dyadic` L-infinity distance, capped
    at 1, from a `Dyadic` polyline to the closure of the region's
    complement, from one gap list per segment and complement box."""

    def __init__(self, region):
        self.exp, self.lattices = region.exp, {}
        if not region.is_empty():
            comp = region._outside(0, 1)
            self.lattices[self.exp] = [region.int_bbox(),
                                       *_shift(comp.ints, self.exp - comp.exp)]

    def __call__(self, points):
        e, segs = _lattice(_segments(points))
        if not self.lattices:
            return ZERO
        if e < self.exp:
            segs, e = _shift(segs, self.exp - e), self.exp
        if e not in self.lattices:
            self.lattices[e] = _shift(self.lattices[self.exp], e - self.exp)
        bbox, *comp = self.lattices[e]
        if not all(bl <= sl and sh <= bh for s in segs
                   for (sl, sh), (bl, bh) in zip(s, bbox)):
            return ZERO
        best = 1 << e
        for s in segs:
            for c in comp:
                gap = max([g for (sl, sh), (cl, ch) in zip(s, c) for g in (cl - sh, sl - ch)])
                if gap <= 0:
                    return ZERO
                best = min(best, gap)
        return Dyadic(best, e)


def _max_clearance(points, region):
    room = region(points)
    return min(room.pow2_floor(), HALF) if room >= Dyadic(1, FINEST_EXP) else None


def _center(face_box):
    return tuple((lo + hi).halve() for lo, hi in face_box)


def _extend(pts, f12, f23, eps, in_d1, in_d3):
    def normal_axis(face):
        for a, (lo, hi) in enumerate(face):
            if lo == hi:
                return a
        return None

    out = list(map(tuple, pts))
    for end, face, tile in ((0, f12, in_d1), (-1, f23, in_d3)):
        ax = normal_axis(face)
        if ax is None:
            return None
        for sign in (1, -1):
            cand = list(out[end])
            cand[ax] = cand[ax] + eps.halve() if sign > 0 else cand[ax] - eps.halve()
            if eps.halve() <= tile([tuple(cand)]):
                if end == 0:
                    out.insert(0, tuple(cand))
                else:
                    out.append(tuple(cand))
                break
        else:
            return None
    return _dedupe(out), eps


def route_gamma(tiling_tiles, path):
    if len(path) != 3:
        raise UnrealizableEdgeError(
            f"path length {len(path)}: axis-aligned tunnels need a common neighbor"
        )
    d1, d2, d3 = (tiling_tiles[v] for v in path)
    union = union_all([d1, d2, d3])
    faces12 = sorted(contact_faces(d1, d2), key=lambda fa: -fa[1])
    faces23 = sorted(contact_faces(d2, d3), key=lambda fa: -fa[1])
    if not faces12 or not faces23:
        raise RoutingError("consecutive path tiles are not adjacent")
    in_union, in_d1, in_d3 = Clearance(union), Clearance(d1), Clearance(d3)

    for f12, _a12 in faces12[:3]:
        for f23, _a23 in faces23[:3]:
            p = _center(f12)
            q = _center(f23)
            for mids in _candidate_mids(p, q):
                pts = _dedupe([p] + mids + [q])
                try:
                    eps = _max_clearance(pts, in_union)
                except ValueError:
                    continue
                if eps is None:
                    continue
                ext = _extend(pts, f12, f23, eps, in_d1, in_d3)
                if ext is None:
                    continue
                pts2, eps = ext
                plan = DyadicPlan(path, pts2, eps)
                if in_union(plan.gamma) < eps.halve():
                    continue
                return plan
    raise RoutingError(f"no certified corridor found along {path!r}")
