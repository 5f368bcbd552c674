"""Hierarchical two-family plane tiling with pieces at every dyadic scale.

The construction keeps a chain of anchor points ``v_i``, one per scale
``2**i``, consistent across scales (``v_{i+1} - v_i`` is a lattice vector of
scale ``i``; going down, ``v_i`` is ``v_{i+1}`` reduced mod ``2**i``).  At
scale ``i`` two families of squares/rectangles with side ``2**i / 5`` sit on
the lattice ``v_i + 2**i * Z^2``; a piece at scale ``i`` is one such set with
the closures of the scale ``i-1`` sets removed.

All geometry is done in plane coordinates scaled by 5, as ints on one lattice
per call: a scale-``i`` box is ``a_i + s_i * (5 * w + offset)``, and a piece
is its box minus the lower-scale boxes it meets, made by one
`boxes.box_minus`.  The report, embedding and SVG read the regions' ints.  Areas are exact fractions (scaled back by 1/25).

The set notation for the family offsets is ambiguous, so both readings are
implemented behind ``interpretation``:

* ``"square"``: family A is the square ``(1/5, 2/5)^2`` and family B the
  square ``(3/5, 4/5)^2``.
* ``"rect"``: the two tuples are per-axis interval pairs, giving the
  rectangles ``(1/5, 2/5) x (3/5, 4/5)`` and ``(3/5, 4/5) x (1/5, 2/5)``.

The adjacency report measures the resulting interior degrees; nothing here
presumes which reading yields the degree-5 tree.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .boxes import (Box, BoxSet, RawBoxes, _offset, _shift, box_minus, set_contacts,
                    union_all)
from .canon import has_cycle
from .dyadic import Dyadic, on_lattice, pair

# Family offsets in fifths of the scale; per interpretation, per family,
# per axis: (lo, hi) numerators over 5.
FAMILY_OFFSETS: Dict[str, Dict[str, Tuple[Tuple[int, int], Tuple[int, int]]]] = {
    "square": {"A": ((1, 2), (1, 2)), "B": ((3, 4), (3, 4))},
    "rect": {"A": ((1, 2), (3, 4)), "B": ((3, 4), (1, 2))},
}

INTERPRETATIONS = tuple(sorted(FAMILY_OFFSETS))


def _pow2(i: int) -> Dyadic:
    """2**i as an exact dyadic (i may be negative)."""
    return Dyadic(1, -i)


def _dyadic_mod(x: Dyadic, i: int) -> Dyadic:
    """x mod 2**i, result in [0, 2**i)."""
    return x - Dyadic(x.scale(-i).floor()).scale(i)


class ScaleChain:
    """Anchor points ``v_i`` for scales ``i_min .. i_max``, mutually consistent."""

    def __init__(self, v: Dict[int, Tuple[Dyadic, Dyadic]],
                 i_min: int, i_max: int):
        self.v = dict(v)
        self.i_min = i_min
        self.i_max = i_max
        self._check()

    def _check(self) -> None:
        for i in range(self.i_min, self.i_max + 1):
            if i not in self.v:
                raise ValueError(f"missing anchor for scale {i}")
        for i in range(self.i_min, self.i_max):
            lo, hi = self.v[i], self.v[i + 1]
            if i >= 0:
                step = _pow2(i)
                for ax in range(2):
                    d = hi[ax] - lo[ax]
                    if d != Dyadic(0) and d != step:
                        raise ValueError(f"bad upward step at scale {i}")
            else:
                for ax in range(2):
                    if _dyadic_mod(hi[ax] - lo[ax], i) != Dyadic(0):
                        raise ValueError(f"bad downward congruence at scale {i}")

    def anchor(self, i: int) -> Tuple[Dyadic, Dyadic]:
        return self.v[i]

    def to_json(self) -> dict:
        return {
            "i_min": self.i_min,
            "i_max": self.i_max,
            "v": {str(i): [p[0].as_pair(), p[1].as_pair()]
                  for i, p in sorted(self.v.items())},
        }


def build_chain(seed, i_min: int, i_max: int) -> ScaleChain:
    """Seeded anchor chain: v_0 uniform dyadic with 12 - i_min bits, upward
    lattice steps, downward modular reductions."""
    if not (i_min <= 0 <= i_max):
        raise ValueError("need i_min <= 0 <= i_max")
    precision = 12 - i_min
    rng = random.Random(f"fractal-chain:{seed!r}")
    v: Dict[int, Tuple[Dyadic, Dyadic]] = {
        0: (Dyadic(rng.getrandbits(precision), precision),
            Dyadic(rng.getrandbits(precision), precision)),
    }
    for i in range(0, i_max):
        eps = (_pow2(i) * rng.getrandbits(1), _pow2(i) * rng.getrandbits(1))
        v[i + 1] = (v[i][0] + eps[0], v[i][1] + eps[1])
    for i in range(-1, i_min - 1, -1):
        up = v[i + 1]
        v[i] = (_dyadic_mod(up[0], i), _dyadic_mod(up[1], i))
    return ScaleChain(v, i_min, i_max)


class FractalPiece:
    """One set of the partition: a scaled box minus the scale-below closures."""

    def __init__(self, scale: int, family: str, cell: Tuple[int, int],
                 region: BoxSet):
        self.scale = scale
        self.family = family
        self.cell = cell  # lattice offset w, in units of 2**scale
        self.region = region

    @property
    def key(self) -> Tuple[int, str, Tuple[int, int]]:
        return (self.scale, self.family, self.cell)

    @property
    def area(self) -> Fraction:
        # geometry is in 5x-scaled coordinates
        return self.region.volume() / 25

    def __repr__(self):
        return f"FractalPiece(scale={self.scale}, family={self.family}, cell={self.cell})"


def _cells(a, s: int, offs, box) -> List[Tuple[int, int]]:
    """Lattice cells ``w`` whose box ``a + s*(5*w + offs)`` meets the closed
    ``box``, all in ints on one lattice: per axis, ``a + s*(5w + off_hi) >=
    lo`` and ``a + s*(5w + off_lo) <= hi``."""
    xs, ys = (range(-((a[ax] - lo + s * offs[ax][1]) // (5 * s)),
                    (hi - a[ax] - s * offs[ax][0]) // (5 * s) + 1)
              for ax, (lo, hi) in enumerate(box))
    return [(x, y) for x in xs for y in ys]


def _box(a, s: int, offs, cell) -> tuple:
    """The int box ``a + s*(5*cell + offs)`` of one lattice cell."""
    return tuple((a[ax] + s * (5 * cell[ax] + lo), a[ax] + s * (5 * cell[ax] + hi))
                 for ax, (lo, hi) in enumerate(offs))


def pieces_in_window(chain: ScaleChain, window: Box,
                     interpretation: str) -> List[FractalPiece]:
    """All pieces of every chain scale whose closure meets the window.

    ``window`` is an axis box in plane coordinates (dyadic endpoints); the
    regions returned are in 5x-scaled coordinates.
    """
    if interpretation not in FAMILY_OFFSETS:
        raise ValueError(f"unknown interpretation {interpretation!r}")
    scales = range(chain.i_min, chain.i_max + 1)
    # one lattice for the call, fine enough for every anchor 5 * v_i, the
    # scaled window and the least step 2**i_min: s_i = 2**i is 1 << (i + e)
    e, ints = on_lattice([x for i in scales for x in chain.anchor(i)]
                         + [c for iv in window for c in iv], -chain.i_min)
    ints = [5 * x for x in ints]
    win = (tuple(ints[-4:-2]), tuple(ints[-2:]))
    layers = [(i, family, (ints[2 * k], ints[2 * k + 1]), 1 << (i + e),
               FAMILY_OFFSETS[interpretation][family])
              for k, i in enumerate(scales) for family in ("A", "B")]
    pieces: List[FractalPiece] = []
    for i, family, a, s, offs in layers:
        for cell in _cells(a, s, offs, win):
            base = _box(a, s, offs, cell)
            # subtract the closures of every lower-scale set: with a
            # generic anchor chain a set two or more scales down need not
            # be covered by the scale directly below, so removing only
            # scale i-1 leaves overlapping pieces.  Only cells with interior
            # inside the base remove anything; on the int lattice those are
            # the cells that meet the base shrunk by one unit on each side
            inner = tuple((lo + 1, hi - 1) for lo, hi in base)
            removed = [_box(a2, s2, offs2, c2) for j, _, a2, s2, offs2 in layers
                       if j < i for c2 in _cells(a2, s2, offs2, inner)]
            region = box_minus(e, base, removed)
            if region.is_empty():
                continue
            pieces.append(FractalPiece(i, family, cell, region))
    pieces.sort(key=lambda p: p.key)
    return pieces


def _halo_contacts(regions: Sequence[BoxSet], uncovered: BoxSet, e: int,
                   h: int) -> Tuple[List[Tuple[int, int]], set, List[int]]:
    """``(edges, exposed, counts)``: the sorted index pairs of regions with
    positive shared boundary, the indices of the regions whose closed
    neighborhood of radius the halo, the int ``h`` on the lattice of ``e``,
    has interior meeting the interior of ``uncovered``, and the number of
    face-connected components of each region.

    For regular closed P and U, int(P + B_h) meets int U exactly when int P
    meets int(U + B_h), so one contact sweep of ``uncovered`` grown by the
    halo (index 0) against the regions answers every region at once.  The
    grown set is the raw boxes of ``uncovered`` each grown by the halo, with
    no canonical sweep: they overlap each other, but interiors of two finite
    unions of closed boxes meet exactly when those of some box of each do,
    and set 0 is neither counted nor read for adjacency."""
    grown = RawBoxes(*_offset(uncovered.exp, uncovered.ints, e, [(-h, h)] * uncovered.dim))
    adjacent, overlaps, counts = set_contacts([grown, *regions],
                                              components=range(1, len(regions) + 1))
    return ([(a - 1, b - 1) for a, b in sorted(adjacent) if a],
            {b - 1 for a, b in overlaps if a == 0}, counts[1:])


def adjacency_report(pieces: Sequence[FractalPiece], window: Box,
                     interpretation: str) -> dict:
    """Adjacency graph of the pieces plus the window-interior summary.

    A piece is window-interior when a small closed halo around it is covered
    by the pieces and stays inside the window, so its full neighborhood is
    visible; degrees and the cycle check are restricted to those.
    """
    regions = [p.region for p in pieces]
    scales = [p.scale for p in pieces]
    i_min = min(scales) if scales else 0
    halo = Dyadic(1, max(0, 4 - i_min))  # well below the smallest feature size
    # the 5x-scaled window and the halo on a lattice that holds every region
    e, ints = on_lattice([c for iv in window for c in iv] + [halo],
                         max((r.exp for r in regions), default=0))
    win, h = ((5 * ints[0], 5 * ints[1]), (5 * ints[2], 5 * ints[3])), ints[4]
    covered = union_all(regions)
    # e holds every region, so it is at least as fine as covered's lattice
    uncovered = box_minus(e, win, _shift(covered.ints, e - covered.exp))

    edges, exposed, counts = _halo_contacts(regions, uncovered, e, h)
    degree = [0] * len(pieces)
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1

    interior = [idx for idx, r in enumerate(regions) if idx not in exposed
                and all(wl + h <= lo << (e - r.exp) and hi << (e - r.exp) <= wh - h
                        for (wl, wh), (lo, hi) in zip(win, r.int_bbox()))]
    interior_set = set(interior)

    interior_edges = [(a, b) for a, b in edges
                      if a in interior_set and b in interior_set]
    # acyclicity is judged on the subgraph spanned by interior pieces
    acyclic = not has_cycle(interior_edges)

    hist: Dict[int, int] = {}
    for idx in interior:
        hist[degree[idx]] = hist.get(degree[idx], 0) + 1

    return {
        "interpretation": interpretation,
        "n_pieces": len(pieces),
        "n_interior": len(interior),
        "interior_indices": interior,
        "edges": edges,
        "degrees": degree,
        "degree_histogram": {str(k): v for k, v in sorted(hist.items())},
        "acyclic_interior": acyclic,
        "uncovered_area": str(uncovered.volume() / 25),
        "covered_area": str(covered.volume() / 25),
        "disconnected_pieces": [p.key for p, c in zip(pieces, counts) if c != 1],
    }


def embed_tree(pieces: Sequence[FractalPiece], edges: Sequence[Tuple[int, int]],
               seed) -> dict:
    """A point inside each piece plus a straight segment per adjacency.

    Points are seeded-uniform over the piece's bounding box, rejection-sampled
    into the region at fixed dyadic precision; the report counts proper
    crossings between segments that do not share an endpoint.
    """
    rng = random.Random(f"fractal-embed:{seed!r}")
    prec = 16
    points: List[Tuple[int, int, int]] = []  # (x, y, e) for (x, y) / 2**e
    for p in pieces:
        (x0, x1), (y0, y1) = p.region.int_bbox()
        while True:
            # x, then y: the order fixes the points a seed gives
            x = (x0 << prec) + (x1 - x0) * rng.getrandbits(prec)
            y = (y0 << prec) + (y1 - y0) * rng.getrandbits(prec)
            if any(xl << prec <= x <= xh << prec and yl << prec <= y <= yh << prec
                   for (xl, xh), (yl, yh) in p.region.ints):
                points.append((x, y, p.region.exp + prec))
                break

    # orientation signs do not change when every point moves to one lattice
    f = max((e for _, _, e in points), default=0)
    at = [(x << (f - e), y << (f - e)) for x, y, e in points]
    segs = [(at[a], at[b]) for a, b in edges]

    def orient(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return (v > 0) - (v < 0)

    crossings = 0
    for s in range(len(segs)):
        for t in range(s + 1, len(segs)):
            if set(edges[s]) & set(edges[t]):
                continue
            p1, p2 = segs[s]
            q1, q2 = segs[t]
            if (orient(p1, p2, q1) * orient(p1, p2, q2) < 0
                    and orient(q1, q2, p1) * orient(q1, q2, p2) < 0):
                crossings += 1

    return {
        "points": [(pair(x, e), pair(y, e)) for x, y, e in points],
        "n_vertices": len(points),
        "n_edges": len(edges),
        "crossings": crossings,
    }


# -- rendering ----------------------------------------------------------------

_SCALE_COLORS = ["#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1",
                 "#76b7b2", "#edc948", "#ff9da7", "#9c755f", "#bab0ac"]


def pieces_svg(pieces: Sequence[FractalPiece], window: Box,
               size: int = 640) -> str:
    """SVG drawing of the window, pieces colored by scale."""
    (x0, x1), (y0, y1) = ((float(lo * 5), float(hi * 5)) for lo, hi in window)
    span = max(x1 - x0, y1 - y0) or 1.0
    sc = size / span

    def pt(x: float, y: float) -> Tuple[float, float]:
        # flip y so the svg is right side up
        return ((x - x0) * sc, (y1 - y) * sc)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">']
    scales = sorted({p.scale for p in pieces})
    color_of = {s: _SCALE_COLORS[k % len(_SCALE_COLORS)]
                for k, s in enumerate(scales)}
    for p in pieces:
        # c / d is the correctly rounded float of the corner c / 2**exp
        d = 1 << p.region.exp
        for (xl, xh), (yl, yh) in p.region.ints:
            ax, ay = pt(xl / d, yh / d)
            w = (xh / d - xl / d) * sc
            h = (yh / d - yl / d) * sc
            parts.append(
                f'<rect x="{ax:.3f}" y="{ay:.3f}" width="{w:.3f}" '
                f'height="{h:.3f}" fill="{color_of[p.scale]}" '
                f'fill-opacity="0.85" stroke="#222" stroke-width="0.4"/>')
    parts.append(f'<rect x="0" y="0" width="{size}" height="{size}" '
                 f'fill="none" stroke="#000" stroke-width="1"/>')
    parts.append("</svg>")
    return "\n".join(parts)
