"""Span recorder for the traced run.

Spans are recorded from outside the program: `Tracer.install` replaces
selected public functions and methods of the ``tilelab`` modules with
wrappers, patching every name a caller looks them up by (``tilelab.cli.
tile_tree`` as well as ``tilelab.tiler.tile_tree``), and `Tracer.uninstall`
puts the originals back.  No file of the program changes.

Time is kept on a virtual clock: the recorder measures its own bookkeeping
and subtracts it, so a span's duration is the program's time inside it and
the self times of one job add up to the job's duration.  Counters that need
work of their own (grid cells of a boolean, boxes in and out) are computed
after the span has closed, on the recorder's side of the clock.
"""

from __future__ import annotations

import gzip
import importlib
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

# Wrapped names per module: public functions and methods that do geometry or
# pipeline work.  Per-box, per-scalar and per-label helpers (box_volume,
# inflate, Dyadic arithmetic, LabelSource.bits) are too fine-grained to wrap
# from outside; their cost shows in the self time of their callers.
WRAPPED = {
    "boxes": ["BoxSet.union", "BoxSet.intersection", "BoxSet.difference",
              "BoxSet.contains_set", "BoxSet.components", "BoxSet.inflate_all",
              "BoxSet.shared_face_area", "BoxSet.interior_intersects",
              "BoxSet.thin", "BoxSet.translate", "BoxSet.signed_permute",
              "polyline_neighborhood", "contact_faces"],
    "tiler": ["top_set", "assign_grid", "carve", "verify_representation",
              "tile_tree", "Tiling.adjacency", "Tiling.transform",
              "Tiling.to_json"],
    "partition": ["limit_partitions"],
    "trees": ["synthetic_tree"],
    "canon": ["forest_hash", "rooted_forest_from_edges"],
    "fractal": ["build_chain", "pieces_in_window", "adjacency_report",
                "embed_tree", "pieces_svg"],
    "tunnels": ["route_gamma", "add_edge", "assemble_bs12", "contract_fibers",
                "random_isometry", "schedule_edges"],
    "bs12": ["bs12_ball", "fibers", "fiber_spanning_tree"],
    "unimodular": ["bundled_fixtures", "uniform_family", "mtp_battery",
                   "reroot_to_H", "dual_family", "bigraph_samples",
                   "stationarity_check", "piece_features", "piece_statistics"],
    "exports": ["write_file", "json_report", "tiling_off", "tiling_obj",
                "csv_table", "svg_with_header"],
    "cli": ["main"],
}

BOOLEANS = ("boxes.union", "boxes.intersection", "boxes.difference")

# Name of the span the harness opens around each job.
JOB = "job"


def span_name(module: str, qualname: str) -> str:
    """``BoxSet.union`` in ``boxes`` -> ``boxes.union``."""
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


def _grid_cells(boxes) -> int:
    """Cells of the dense grid a boolean over ``boxes`` allocates."""
    if not boxes:
        return 0
    cells = 1
    for axis in range(len(boxes[0])):
        coords = set()
        for b in boxes:
            lo, hi = b[axis]
            coords.add((lo.num, lo.exp))
            coords.add((hi.num, hi.exp))
        cells *= len(coords) - 1
    return cells


class Tracer:
    """In-memory span log plus counters, over a virtual clock."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[str] = []
        self.stack: list[int] = []
        self.overhead = 0.0
        self.counters: dict[str, float] = defaultdict(float)
        self.job_id = ""
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.jobs.append(self.job_id)
        self.stack.append(idx)
        return idx

    def run_job(self, job_id: str, fn):
        """Call ``fn`` under a root span; returns (result, exception)."""
        self.job_id = job_id
        idx = self._open(JOB)
        self.starts[idx] = perf_counter() - self.overhead
        try:
            return fn(), None
        except Exception as exc:  # the harness records every job's failure
            return None, exc
        finally:
            self.ends[idx] = perf_counter() - self.overhead
            self.stack.pop()

    def wrap(self, name: str, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            t_in = perf_counter()
            pre = before(self, args) if before is not None else None
            idx = self._open(name)
            t0 = perf_counter()
            self.overhead += t0 - t_in
            self.starts[idx] = t0 - self.overhead
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.ends[idx] = t1 - self.overhead
                self.stack.pop()
                self.overhead += perf_counter() - t1
            if after is not None:
                t2 = perf_counter()
                after(self, pre, args, result)
                self.overhead += perf_counter() - t2
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every name in `WRAPPED` wherever a tilelab module binds it."""
        for short in WRAPPED:
            importlib.import_module(f"tilelab.{short}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "tilelab" or n.startswith("tilelab.")]
        for short, qualnames in WRAPPED.items():
            mod = sys.modules[f"tilelab.{short}"]
            for qualname in qualnames:
                name = span_name(short, qualname)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[attr]
                    self._saved.append((cls, attr, original))
                    setattr(cls, attr, self.wrap(name, original))
                    continue
                original = getattr(mod, qualname)
                wrapped = self.wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._saved.append((m, attr, original))
                            setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[idx] - self.starts[idx]
        return out

    def check_self_sums(self) -> list[str]:
        """Per job, the self times of its spans must add up to its duration."""
        selfs = self.self_times()
        total: dict[str, float] = defaultdict(float)
        duration: dict[str, float] = {}
        for idx, job in enumerate(self.jobs):
            total[job] += selfs[idx]
            if self.parents[idx] < 0:  # the job's root span
                duration[job] = self.ends[idx] - self.starts[idx]
        problems = []
        for job, dur in duration.items():
            if not math.isclose(total[job], dur, rel_tol=1e-9, abs_tol=1e-9):
                problems.append(f"{job}: self times {total[job]!r} != "
                                f"duration {dur!r}")
        if self.stack:
            problems.append(f"{len(self.stack)} spans left open")
        return problems

    def totals(self) -> tuple[dict, dict, dict]:
        """(self seconds by span name, calls by span name, self by module)."""
        selfs = self.self_times()
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for idx, name in enumerate(self.names):
            self_s[name] += selfs[idx]
            calls[name] += 1
        modules: dict[str, float] = defaultdict(float)
        for name, value in self_s.items():
            modules[name.split(".", 1)[0]] += value
        return self_s, calls, modules

    def write(self, path: str) -> None:
        """Write the span log as gzip'd JSON lines."""
        with gzip.open(path, "wt") as fh:
            for idx, name in enumerate(self.names):
                fh.write(json.dumps([idx, name, self.starts[idx],
                                     self.ends[idx], self.parents[idx],
                                     self.jobs[idx]]) + "\n")


# -- counters ---------------------------------------------------------------
# A before-hook runs inside the caller's span and returns state for the
# after-hook, which runs once the span has closed.


def _boolean_after(tr: Tracer, _pre, args, result) -> None:
    allb = args[0].boxes + args[1].boxes
    tr.counters["boxes.boxes_in"] += len(allb)
    tr.counters["boxes.boxes_out"] += len(result.boxes)
    tr.counters["boxes.grid_cells"] += _grid_cells(allb)


def _adjacency_before(tr: Tracer, args):
    tiling = args[0]
    return getattr(tiling, "_adjacency", None) is None, len(tiling.tile_of)


def _adjacency_after(tr: Tracer, pre, args, result) -> None:
    computed, n = pre
    if computed:
        tr.counters["tiler.adjacency.pairs_total"] += n * (n - 1) // 2
        tr.counters["tiler.adjacency.edges"] += len(result)


def _contact_before(tr: Tracer, args):
    if tr.stack and tr.names[tr.stack[-1]] == "tiler.adjacency":
        tr.counters["tiler.adjacency.pairs_tested"] += 1


def _tile_tree_after(tr: Tracer, _pre, args, result) -> None:
    tiles = result["tiling"].tile_of
    tr.counters["tiler.tiles"] += len(tiles)
    tr.counters["tiler.tile_boxes"] += sum(len(s.boxes)
                                           for s in tiles.values())


def _pieces_after(tr: Tracer, _pre, args, result) -> None:
    tr.counters["fractal.pieces"] += len(result)
    tr.counters["fractal.piece_boxes"] += sum(len(p.region.boxes)
                                              for p in result)


def _route_after(tr: Tracer, _pre, args, result) -> None:
    tr.counters["tunnels.route_gamma.routed"] += 1


def _write_after(tr: Tracer, _pre, args, result) -> None:
    tr.counters["exports.bytes_written"] += len(args[2].encode())


_BEFORE = {
    "tiler.adjacency": _adjacency_before,
    "boxes.shared_face_area": _contact_before,
}
_AFTER = {name: _boolean_after for name in BOOLEANS}
_AFTER.update({
    "tiler.adjacency": _adjacency_after,
    "tiler.tile_tree": _tile_tree_after,
    "fractal.pieces_in_window": _pieces_after,
    "tunnels.route_gamma": _route_after,
    "exports.write_file": _write_after,
})
