"""Voxel occupancy of a box set, the bridge to the numpy/scipy oracles of
the tests."""

import numpy as np

from tilelab.dyadic import Dyadic


def voxelize(bs, pitch_exp, bbox=None):
    """Occupancy grid of the `BoxSet` ``bs`` with cell size 2^-pitch_exp over
    ``bbox`` (default: the set's bounding box); returns ``(grid, bbox)``.

    Exact when every box corner lies on the pitch lattice (callers that need
    exactness align their inputs); otherwise cells are marked when covered,
    by half-open index ranges of the snapped corners.
    """
    if bbox is None:
        if bs.is_empty():
            raise ValueError("voxelize: empty set without bbox")
        bbox = tuple((Dyadic(lo, bs.exp), Dyadic(hi, bs.exp)) for lo, hi in bs.int_bbox())
    scale = 1 << pitch_exp
    lo = [x[0].as_fraction() for x in bbox]
    shape = []
    for (a, b) in bbox:
        span = (b - a).as_fraction() * scale
        if span != int(span):
            raise ValueError("voxelize: bbox not on pitch lattice")
        shape.append(int(span))
    arr = np.zeros(shape, dtype=bool)
    for box in bs.boxes:
        idx = []
        for ax, (a, b) in enumerate(box):
            i0 = (a.as_fraction() - lo[ax]) * scale
            i1 = (b.as_fraction() - lo[ax]) * scale
            idx.append(slice(max(int(i0), 0), min(int(i1), shape[ax])))
        arr[tuple(idx)] = True
    return arr, bbox
