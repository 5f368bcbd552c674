"""Hierarchical two-family plane tiling with pieces at every dyadic scale.

The construction keeps a chain of anchor points ``v_i``, one per scale
``2**i``, consistent across scales (``v_{i+1} - v_i`` is a lattice vector of
scale ``i``; going down, ``v_i`` is ``v_{i+1}`` reduced mod ``2**i``).  At
scale ``i`` two families of squares/rectangles with side ``2**i / 5`` sit on
the lattice ``v_i + 2**i * Z^2``; a piece at scale ``i`` is one such set with
the closures of the scale ``i-1`` sets removed.

All geometry is done in plane coordinates scaled by 5, so every corner is an
exact dyadic rational and the 2-D box kernel applies unchanged.  Areas are
reported as exact fractions (scaled back by 1/25).

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
from typing import Dict, List, Optional, Sequence, Tuple

from .boxes import Box, BoxSet, box_contains_box, inflate, set_contacts, union_all
from .canon import has_cycle
from .dyadic import Dyadic

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
                 epsilons: Dict[int, Tuple[Dyadic, Dyadic]],
                 i_min: int, i_max: int):
        self.v = dict(v)
        self.epsilons = dict(epsilons)
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

    def translated(self, shift: Tuple[Dyadic, Dyadic]) -> "ScaleChain":
        """The chain with every anchor translated by ``shift``.

        Valid when ``shift`` is a lattice vector of every scale involved,
        e.g. a multiple of ``2**i_max``.
        """
        v = {i: (p[0] + shift[0], p[1] + shift[1]) for i, p in self.v.items()}
        return ScaleChain(v, self.epsilons, self.i_min, self.i_max)

    def to_json(self) -> dict:
        return {
            "i_min": self.i_min,
            "i_max": self.i_max,
            "v": {str(i): [p[0].as_pair(), p[1].as_pair()]
                  for i, p in sorted(self.v.items())},
        }


def build_chain(seed, i_min: int, i_max: int,
                precision: Optional[int] = None) -> ScaleChain:
    """Seeded anchor chain: v_0 uniform dyadic, upward lattice steps, downward
    modular reductions."""
    if not (i_min <= 0 <= i_max):
        raise ValueError("need i_min <= 0 <= i_max")
    if precision is None:
        precision = 12 - i_min
    rng = random.Random(f"fractal-chain:{seed!r}")
    v: Dict[int, Tuple[Dyadic, Dyadic]] = {
        0: (Dyadic(rng.getrandbits(precision), precision),
            Dyadic(rng.getrandbits(precision), precision)),
    }
    epsilons: Dict[int, Tuple[Dyadic, Dyadic]] = {}
    for i in range(0, i_max):
        eps = (_pow2(i) * rng.getrandbits(1), _pow2(i) * rng.getrandbits(1))
        epsilons[i] = eps
        v[i + 1] = (v[i][0] + eps[0], v[i][1] + eps[1])
    for i in range(-1, i_min - 1, -1):
        up = v[i + 1]
        v[i] = (_dyadic_mod(up[0], i), _dyadic_mod(up[1], i))
    return ScaleChain(v, epsilons, i_min, i_max)


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

    def is_connected(self) -> bool:
        return len(self.region.components()) == 1

    def __repr__(self):
        return f"FractalPiece(scale={self.scale}, family={self.family}, cell={self.cell})"


def _base_box(chain: ScaleChain, i: int, family: str, cell: Tuple[int, int],
              interpretation: str) -> Box:
    """The full (unpunctured) scale-i set in 5x-scaled coordinates."""
    offs = FAMILY_OFFSETS[interpretation][family]
    vx, vy = chain.anchor(i)
    step = _pow2(i)
    anchor = (vx * 5 + step * (5 * cell[0]), vy * 5 + step * (5 * cell[1]))
    lo = tuple(anchor[ax] + step * offs[ax][0] for ax in range(2))
    hi = tuple(anchor[ax] + step * offs[ax][1] for ax in range(2))
    return ((lo[0], hi[0]), (lo[1], hi[1]))


def _cells_meeting(chain: ScaleChain, i: int, family: str,
                   window: Box, interpretation: str) -> List[Tuple[int, int]]:
    """Lattice cells whose scale-i set closure meets the (scaled) window."""
    offs = FAMILY_OFFSETS[interpretation][family]
    ranges = []
    for ax in range(2):
        base = chain.anchor(i)[ax] * 5
        wlo, whi = window[ax]
        # need base + 5*s*w + s*offs_hi >= wlo and base + 5*s*w + s*offs_lo <= whi
        # with s = 2**i: w >= ceil((wlo - base - s*offs_hi) / 5s) and
        # w <= floor((whi - base - s*offs_lo) / 5s)
        lo_i = -((base - wlo).scale(-i) + offs[ax][1]).floor(5)
        hi_i = ((whi - base).scale(-i) - offs[ax][0]).floor(5)
        ranges.append(range(lo_i, hi_i + 1))
    return [(wx, wy) for wx in ranges[0] for wy in ranges[1]]


def _scaled_window(window: Box) -> Box:
    return tuple((lo * 5, hi * 5) for lo, hi in window)  # type: ignore[return-value]


def pieces_in_window(chain: ScaleChain, window: Box,
                     interpretation: str) -> List[FractalPiece]:
    """All pieces of every chain scale whose closure meets the window.

    ``window`` is an axis box in plane coordinates (dyadic endpoints); the
    regions returned are in 5x-scaled coordinates.
    """
    if interpretation not in FAMILY_OFFSETS:
        raise ValueError(f"unknown interpretation {interpretation!r}")
    swin = _scaled_window(window)
    pieces: List[FractalPiece] = []
    for i in range(chain.i_min, chain.i_max + 1):
        for family in ("A", "B"):
            for cell in _cells_meeting(chain, i, family, swin, interpretation):
                base = _base_box(chain, i, family, cell, interpretation)
                region = BoxSet([base])
                # subtract the closures of every lower-scale set: with a
                # generic anchor chain a set two or more scales down need not
                # be covered by the scale directly below, so removing only
                # scale i-1 leaves overlapping pieces
                removed = []
                for j in range(chain.i_min, i):
                    for fam2 in ("A", "B"):
                        for c2 in _cells_meeting(chain, j, fam2, base,
                                                 interpretation):
                            removed.append(
                                _base_box(chain, j, fam2, c2, interpretation))
                if removed:
                    region = region.difference(BoxSet(removed))
                if region.is_empty():
                    continue
                pieces.append(FractalPiece(i, family, cell, region))
    pieces.sort(key=lambda p: p.key)
    return pieces


def _halo_contacts(regions: Sequence[BoxSet], uncovered: BoxSet,
                   halo: Dyadic) -> Tuple[List[Tuple[int, int]], set]:
    """``(edges, exposed)``: the sorted index pairs of regions with positive
    shared boundary, and the indices of the regions whose closed
    ``halo``-neighborhood has interior meeting the interior of ``uncovered``.

    For regular closed P and U, int(P + B_h) meets int U exactly when int P
    meets int(U + B_h), so one contact sweep of ``uncovered`` grown by the
    halo (index 0) against the regions answers every region at once."""
    areas, overlaps = set_contacts([uncovered.inflate_all(halo), *regions])
    return ([(a - 1, b - 1) for a, b in sorted(areas) if a],
            {b - 1 for a, b in overlaps if a == 0})


def adjacency_report(pieces: Sequence[FractalPiece], window: Box,
                     interpretation: str) -> dict:
    """Adjacency graph of the pieces plus the window-interior summary.

    A piece is window-interior when a small closed halo around it is covered
    by the pieces and stays inside the window, so its full neighborhood is
    visible; degrees and the cycle check are restricted to those.
    """
    swin = _scaled_window(window)
    regions = [p.region for p in pieces]
    covered = union_all(regions)
    uncovered = BoxSet([swin]).difference(covered)

    scales = [p.scale for p in pieces]
    i_min = min(scales) if scales else 0
    halo = Dyadic(1, max(0, 4 - i_min))  # well below the smallest feature size

    edges, exposed = _halo_contacts(regions, uncovered, halo)
    degree = [0] * len(pieces)
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1

    interior = [idx for idx, r in enumerate(regions) if idx not in exposed
                and box_contains_box(swin, inflate(r.bbox(), halo))]
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
        "disconnected_pieces": [pieces[i].key for i in range(len(pieces))
                                if not pieces[i].is_connected()],
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
    points: List[Tuple[Dyadic, Dyadic]] = []
    for p in pieces:
        bb = p.region.bbox()
        while True:
            cand = tuple(
                bb[ax][0] + (bb[ax][1] - bb[ax][0]) *
                Dyadic(rng.getrandbits(prec), prec)
                for ax in range(2))
            if p.region.contains_point(cand):
                points.append(cand)  # type: ignore[arg-type]
                break

    segs = [(tuple(c.as_fraction() for c in points[a]),
             tuple(c.as_fraction() for c in points[b])) for a, b in edges]

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
        "points": [(pt[0].as_pair(), pt[1].as_pair()) for pt in points],
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
    swin = _scaled_window(window)
    (x0, x1), (y0, y1) = ((float(lo), float(hi)) for lo, hi in swin)
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
        for box in p.region.boxes:
            ax, ay = pt(float(box[0][0]), float(box[1][1]))
            w = (float(box[0][1]) - float(box[0][0])) * sc
            h = (float(box[1][1]) - float(box[1][0])) * sc
            parts.append(
                f'<rect x="{ax:.3f}" y="{ay:.3f}" width="{w:.3f}" '
                f'height="{h:.3f}" fill="{color_of[p.scale]}" '
                f'fill-opacity="0.85" stroke="#222" stroke-width="0.4"/>')
    parts.append(f'<rect x="0" y="0" width="{size}" height="{size}" '
                 f'fill="none" stroke="#000" stroke-width="1"/>')
    parts.append("</svg>")
    return "\n".join(parts)
