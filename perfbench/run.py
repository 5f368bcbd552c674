"""tilelab benchmark: one workload per fresh, single-threaded process.

    python3 perfbench/run.py --workload tunnel-route --seed 7 --trace 0
    python3 perfbench/run.py                    # every workload, as a table
    python3 perfbench/run.py --smoke ...        # tiny workloads, for tests

Run from the root of a source checkout: the program is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1``
the per-layer ones, from spans recorded around the calls into each
``tilelab`` module (see spans.py).  End-to-end times are in seconds at a
reference machine speed (see REF_LOOP_S).  Outputs are checked after each
batch, outside the timed region; at the default seed every job's output
digest must also equal the one in golden.json, recorded at the commit that
introduced the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
WORKLOAD_NAMES = ("cli-pipeline", "fractal-window", "tunnel-route")
DEFAULT_SEED = 0  # the seed golden.json was recorded at
# Set-up is probed once per round, so its samples spread over the run.
SETUP_PROBES = 5
# Each job runs in at least this many batches and is timed by the median of
# its runs: on a shared machine, slow phases last seconds, and a median of
# runs several seconds apart steps over them where one long batch cannot.
MIN_ROUNDS = 5
PROBE_TIMEOUT = 60
# Times are reported in seconds at a reference machine speed: the run's
# median time of `reference_loop` is taken to be this long.  On a shared
# machine whole runs drift by 20-40% with the load of others; the loop,
# timed before every job, drifts with them (see NOTES.md, "Noise").
REF_LOOP_S = 0.015

# Per-layer metrics of the traced run: (name, unit).  Each `<span>.self_s`
# is the span's time minus its children's; module totals add every wrapped
# function of the module, so the `*.self_s` of modules, `cli` and `job` add
# up to `trace.job_s`.
_CALLS_AND_SELF = [f"boxes.{op}" for op in (
    "union", "intersection", "difference", "contains_set", "components",
    "inflate_all", "shared_face_area", "interior_intersects",
    "polyline_neighborhood", "contact_faces")] + ["tunnels.route_gamma"]
_SELF = [
    "tiler.top_set", "tiler.assign_grid", "tiler.carve",
    "tiler.verify_representation", "tiler.adjacency",
    "partition.limit_partitions", "trees.synthetic_tree", "canon.forest_hash",
    "fractal.pieces_in_window", "fractal.adjacency_report",
    "fractal.embed_tree", "tunnels.add_edge", "tunnels.assemble_bs12",
    "tunnels.contract_fibers", "bs12.bs12_ball", "bs12.fibers",
    "unimodular.mtp_battery", "unimodular.stationarity_check",
    "unimodular.piece_statistics",
]
_MODULES = ["boxes", "tiler", "canon", "fractal", "tunnels", "bs12",
            "unimodular", "exports", "cli", "job"]
_COUNTS = ["boxes.grid_cells", "boxes.boxes_in", "boxes.boxes_out",
           "tiler.adjacency.pairs_tested", "tiler.adjacency.pairs_total",
           "tiler.tiles", "tiler.tile_boxes", "fractal.pieces",
           "fractal.piece_boxes", "exports.bytes_written", "trace.spans"]
PER_LAYER = (
    [(f"{n}.calls", "count") for n in _CALLS_AND_SELF]
    + [(f"{n}.self_s", "s") for n in _CALLS_AND_SELF + _SELF + _MODULES]
    + [(n, "count") for n in _COUNTS]
    + [("tiler.adjacency.hit_ratio", "ratio"),
       ("tunnels.route_gamma.success_ratio", "ratio"),
       ("trace.job_s", "s"), ("trace.wall_s", "s"),
       ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
       ("trace.bookkeeping_s", "s"), ("ref_loop_s", "s")]
)
END_TO_END = [("wall_s", "s"), ("job_s.p50", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   choices=("all",) + WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny workloads that exercise names, units and checks")
    p.add_argument("--write-golden", action="store_true",
                   help="record the default-seed digests instead of checking")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    """Import tilelab from this checkout's src/, or explain why not."""
    if not os.path.isfile(os.path.join(SRC, "tilelab", "__init__.py")):
        sys.exit(f"perfbench: no tilelab sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import tilelab
    if os.path.dirname(os.path.abspath(tilelab.__file__)) != \
            os.path.join(SRC, "tilelab"):
        sys.exit(f"perfbench: imported tilelab from {tilelab.__file__}")


def _child_argv(args, workload, *extra):
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if args.smoke:
        argv.append("--smoke")
    return argv + list(extra)


def measure_setup(args) -> float:
    """Time from process start to 'ready to run the first job'.

    The probe is a fresh process that imports the program and builds the
    workload's inputs, then exits.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(_child_argv(args, args.workload, "--setup-probe"),
                            stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.close()
        code = proc.wait(timeout=PROBE_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def reference_loop() -> float:
    """Time a fixed loop of stdlib Fraction sums; it runs no tilelab code."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(i, i + 7)
    return perf_counter() - t0


class Batch:
    """Results of one pass over the job list."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.job_s: list[float] = []
        self.ref_s: list[float] = []
        self.digests: dict[str, str] = {}
        self.failed: dict[str, str] = {}  # job id -> first problem

    def fail(self, job_id: str, problem: str) -> None:
        self.failed.setdefault(job_id, problem)


def run_batch(jobs, work_root, tracer=None, label=0) -> Batch:
    """Run the jobs back to back, then check every output."""
    batch = Batch(tracer is not None)
    if os.path.isdir(work_root):
        shutil.rmtree(work_root)
    dirs = [os.path.join(work_root, str(k)) for k in range(len(jobs))]
    for d in dirs:
        os.makedirs(d)
    results = []
    if tracer is not None:
        tracer.install()
    try:
        for job, d in zip(jobs, dirs):
            gc.collect()  # a clean heap per job, as in a fresh process
            batch.ref_s.append(reference_loop())
            t0 = perf_counter()
            if tracer is not None:
                outcome = tracer.run_job(f"{label}/{job.id}",
                                         lambda: job.call(d))
            else:
                try:
                    outcome = job.call(d), None
                except Exception as exc:  # counted as a failed job
                    outcome = None, exc
            batch.job_s.append(perf_counter() - t0)
            results.append(outcome)
    finally:
        if tracer is not None:
            tracer.uninstall()
    for job, d, (result, exc) in zip(jobs, dirs, results):
        if exc is not None:
            batch.fail(job.id, f"raised {exc!r}")
            continue
        try:
            digest, problems = job.inspect(result, d)
        except Exception as exc:  # an output the checks cannot read
            digest, problems = None, [f"check raised {exc!r}"]
        batch.digests[job.id] = digest
        for p in problems:
            batch.fail(job.id, p)
    shutil.rmtree(work_root)
    return batch


def _golden(args):
    if not os.path.isfile(GOLDEN):
        return {}
    with open(GOLDEN) as fh:
        return json.load(fh).get("smoke" if args.smoke else "full", {}) \
            .get(args.workload, {})


def _write_golden(args, digests):
    data = {}
    if os.path.isfile(GOLDEN):
        with open(GOLDEN) as fh:
            data = json.load(fh)
    data.setdefault("smoke" if args.smoke else "full", {})[args.workload] = \
        dict(sorted(digests.items()))
    with open(GOLDEN, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _job_medians(batches) -> list[float]:
    """Each job's median time over the batches."""
    return [statistics.median(times)
            for times in zip(*(b.job_s for b in batches))]


def _per_layer(tracer, traced, plain) -> dict:
    n = len(traced)
    self_s, calls, modules = tracer.totals()
    c = tracer.counters
    values = {}
    for name in _CALLS_AND_SELF:
        values[f"{name}.calls"] = calls.get(name, 0) / n
    for name in _CALLS_AND_SELF + _SELF:
        values[f"{name}.self_s"] = self_s.get(name, 0.0) / n
    for name in _MODULES:
        values[f"{name}.self_s"] = modules.get(name, 0.0) / n
    for name in _COUNTS:
        values[name] = (len(tracer.names) if name == "trace.spans"
                        else c.get(name, 0)) / n
    tested = c.get("tiler.adjacency.pairs_tested", 0)
    values["tiler.adjacency.hit_ratio"] = (
        c.get("tiler.adjacency.edges", 0) / tested if tested else 0.0)
    routes = calls.get("tunnels.route_gamma", 0)
    values["tunnels.route_gamma.success_ratio"] = (
        c.get("tunnels.route_gamma.routed", 0) / routes if routes else 0.0)
    values["trace.job_s"] = sum(modules.values()) / n
    values["trace.wall_s"] = sum(_job_medians(traced))
    values["trace.untraced_wall_s"] = sum(_job_medians(plain))
    values["trace.overhead_s"] = (values["trace.wall_s"]
                                  - values["trace.untraced_wall_s"])
    values["trace.bookkeeping_s"] = tracer.overhead / n
    values["ref_loop_s"] = statistics.median(
        t for b in traced + plain for t in b.ref_s)
    return values


def run_workload(args) -> int:
    from spans import Tracer
    from workloads import WORKLOADS

    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        jobs = WORKLOADS[args.workload](args.seed, args.smoke, work)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        tracer = Tracer() if args.trace else None
        setup: list[float] = []
        batches: list[Batch] = []
        begin = perf_counter()
        while True:
            t0 = perf_counter()
            if not args.trace and len(setup) < SETUP_PROBES:
                setup.append(measure_setup(args))
            batches.append(run_batch(jobs, os.path.join(work, "jobs")))
            if tracer is not None:
                batches.append(run_batch(jobs, os.path.join(work, "jobs"),
                                         tracer, len(batches)))
            last = perf_counter() - t0
            if (len(batches) >= MIN_ROUNDS * (1 + args.trace)
                    and perf_counter() - begin + last > args.seconds):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = batches[0].digests
    if args.write_golden:
        if any(b.failed for b in batches):
            sys.exit("perfbench: not recording digests of failed jobs")
        _write_golden(args, reference)
    elif args.seed == DEFAULT_SEED:
        golden = _golden(args)
        for b in batches:
            for k in (k for k, v in b.digests.items() if golden.get(k) != v):
                b.fail(k, "digest differs from golden.json")
    failures = [f"{k}: {p}" for b in batches for k, p in b.failed.items()]
    attempted = sum(len(b.job_s) for b in batches)
    failed = sum(len(b.failed) for b in batches)
    consistent = all(b.digests == reference for b in batches)
    if not consistent:
        failures.append("outputs differ between batches")

    plain = [b for b in batches if not b.traced]
    if tracer is not None:
        traced = [b for b in batches if b.traced]
        problems = tracer.check_self_sums()
        failures += problems
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(
            OUT, f"trace-{args.workload}-{args.seed}.jsonl.gz"))
        values = _per_layer(tracer, traced, plain)
        metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER}
    else:
        problems = []
        job_s = _job_medians(plain)
        speed = REF_LOOP_S / statistics.median(
            t for b in plain for t in b.ref_s)
        values = {
            "wall_s": sum(job_s) * speed,
            "job_s.p50": statistics.median(job_s) * speed,
            "setup_s": statistics.median(setup) * speed,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    for f in failures[:20]:
        print(f"perfbench: {f}", file=sys.stderr)
    correct = failed == 0 and consistent and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; print one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(_child_argv(args, name), stdout=subprocess.PIPE,
                              cwd=ROOT, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    for name, r in results.items():
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} "
              f"fail_ratio={r['failed'] / r['attempted']:.3f}")
        for metric, m in r["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ.update(SINGLE_THREAD)  # before numpy loads; children inherit it
    if args.workload == "all":
        return run_all(args)
    _import_program()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
