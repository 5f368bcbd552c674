"""The benchmark's workloads: inputs made from a seed, the jobs, and checks.

A workload is a list of `Job`s that run back to back, one client, closed
loop.  `Job.call` is the timed part; `Job.inspect` runs outside the timed
region and returns the digest of the job's outputs and the problems found.

Why each workload is there (BENCHMARK.json carries one line of each):

* ``cli-pipeline`` is what a user runs: in-process ``tilelab`` CLI commands.
  Its time goes to pairwise contact geometry (verify and adjacency in
  ``tiler`` over ``boxes``), and it is the only workload that reaches
  ``partition``, ``bs12``, ``unimodular``, ``canon`` and ``exports``.
* ``fractal-window`` runs ``tilelab fractal`` on a ladder of window sizes:
  ``boxes`` booleans of tens of boxes (the covered set grows with every
  piece) and all-pairs piece contacts, with cost growing about cubically in
  the window size.
* ``tunnel-route`` calls ``tunnels.route_gamma`` (and ``add_edge`` when the
  route exists) on small tilings: thousands of booleans of ~10 boxes, so
  per-call overhead of the box kernel dominates.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

from tilelab import cli, fractal, tunnels
from tilelab.dyadic import Dyadic
from tilelab.labels import LabelSource
from tilelab.partition import Schedule
from tilelab.tiler import tile_tree
from tilelab.trees import synthetic_tree


class Job:
    """One unit of work: ``call(work_dir)`` is timed, ``inspect`` is not.

    ``call`` reaches the program through module attributes (``cli.main``,
    ``tunnels.route_gamma``), so the traced run's wrappers see the calls.
    """

    def __init__(self, job_id: str, call, inspect):
        self.id = job_id
        self.call = call
        self.inspect = inspect


def _job_seeds(workload: str, seed: int, n: int) -> list[int]:
    rng = random.Random(f"perfbench:{workload}:{seed}")
    return [rng.randrange(1 << 30) for _ in range(n)]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


# -- CLI jobs -----------------------------------------------------------------


def _cli_call(argv):
    def call(work_dir):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv + ["--out", work_dir])
    return call


def _artifacts(work_dir) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(work_dir)):
        with open(os.path.join(work_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _artifact_digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name, data in files.items():
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()[:32]


def _cli_job(job_id, argv, expected_files, check=None) -> Job:
    """A CLI job must exit 0 and write exactly ``expected_files``."""

    checked = {}  # digest -> problems: later batches repeat the outputs

    def inspect(rc, work_dir):
        files = _artifacts(work_dir)
        digest = _artifact_digest(files)
        problems = [f"exit code {rc}"] if rc != cli.EXIT_OK else []
        if sorted(files) != sorted(expected_files):
            problems.append(f"artifacts {sorted(files)}")
        elif check is not None:
            if digest not in checked:
                checked[digest] = check(files)
            problems += checked[digest]
        return digest, problems

    return Job(job_id, _cli_call(argv), inspect)


def _json(files, name):
    return json.loads(files[name].decode())


def _verifier_passes(files) -> list[str]:
    report = _json(files, "verifier.json")
    failed = [k for k, v in report.items()
              if isinstance(v, dict) and not v.get("pass")]
    if not report.get("pass") or failed:
        return [f"verifier failed: {failed}"]
    return []


def _fibers_pass(report) -> list[str]:
    if report["all_degree_3"] and report["interior_acyclic"]:
        return []
    return ["interior fibers not degree-3 acyclic"]


def _check_passes(files) -> list[str]:
    if _json(files, "check.json")["pass"]:
        return []
    return ["check suites failed"]


def _tiling_nonempty(files) -> list[str]:
    return [] if _json(files, "tiling.json")["tiles"] else ["empty tiling"]


def cli_pipeline(seed: int, smoke: bool, scratch: str) -> list[Job]:
    """The commands a user runs, each on inputs drawn from ``seed``."""
    if smoke:
        trees = ["path(6)", "binary-canopy(3)", "random(12,3)"]
        t3_radius, bs12_radius, export_tree = 2, 3, "binary-canopy(3)"
    else:
        trees = ["path(40)", "spine(25,1)", "binary-canopy(6)",
                 "random(120,3)", "canopy(4,3)", "binary-canopy(4)"]
        t3_radius, bs12_radius, export_tree = 4, 6, "binary-canopy(5)"
    seeds = iter(_job_seeds("cli-pipeline", seed, len(trees) + 4))
    tile_files = ["scene.off", "tiling.json", "verifier.json"]
    jobs = [
        _cli_job(f"tile-tree:{tree}",
                 ["tile-tree", "--tree", tree, "--seed", str(next(seeds))],
                 tile_files, _verifier_passes)
        for tree in trees
    ]
    jobs.append(_cli_job(
        f"t3:{t3_radius}",
        ["t3", "--radius", str(t3_radius), "--seed", str(next(seeds))],
        ["t3-report.json", "t3-scene.off"],
        lambda f: _fibers_pass(_json(f, "t3-report.json")["fiber_report"])))
    jobs.append(_cli_job(
        f"bs12:{bs12_radius}",
        ["bs12", "--radius", str(bs12_radius), "--seed", str(next(seeds))],
        ["fibers.json", "window.json"],
        lambda f: _fibers_pass(_json(f, "fibers.json"))))
    jobs.append(_cli_job("check", ["check", "--seed", str(next(seeds))],
                         ["check.json", "f-battery.json"], _check_passes))
    jobs.append(_cli_job(
        f"export:{export_tree}",
        ["export", "--tree", export_tree, "--seed", str(next(seeds))],
        ["scene.obj", "scene.off", "tiling.json"], _tiling_nonempty))
    return jobs


# -- fractal ------------------------------------------------------------------

I_MIN, I_MAX = -2, 2


def _fractal_check(chain_seed: int, window: float):
    """covered_area is the sum of the piece areas; no piece is disconnected.

    Acyclicity is not asserted: it is false at depth (see the README on
    test_a09).
    """
    half = Dyadic(int(window * 256), 8)
    box = ((-half, half), (-half, half))
    chain = fractal.build_chain(chain_seed, I_MIN, I_MAX)

    def check(files):
        problems = []
        for interp in fractal.INTERPRETATIONS:
            report = _json(files, f"fractal-{interp}.json")
            pieces = fractal.pieces_in_window(chain, box, interp)
            if report["n_pieces"] != len(pieces):
                problems.append(f"{interp}: {report['n_pieces']} pieces "
                                f"reported, {len(pieces)} expected")
            area = sum((p.area for p in pieces), Fraction(0))
            if Fraction(report["covered_area"]) != area:
                problems.append(f"{interp}: covered area "
                                f"{report['covered_area']} != {area}")
            if report["disconnected_pieces"]:
                problems.append(f"{interp}: disconnected pieces")
        return problems

    return check


def fractal_window(seed: int, smoke: bool, scratch: str) -> list[Job]:
    """``tilelab fractal`` on a window-size ladder, each job its own chain."""
    ladder = ([(0.25, 2)] if smoke
              else [(0.375, 2), (0.5, 5), (0.625, 1), (0.75, 1)])
    n_jobs = sum(n for _, n in ladder)
    seeds = iter(_job_seeds("fractal-window", seed, n_jobs))
    expected = [f"fractal-{interp}{ext}" for interp in fractal.INTERPRETATIONS
                for ext in ("-degrees.csv", ".json", ".svg")]
    jobs = []
    for window, count in ladder:
        config = os.path.join(scratch, f"fractal-{window}.cfg")
        with open(config, "w") as fh:
            fh.write(f"window={window}\ni_min={I_MIN}\ni_max={I_MAX}\n"
                     "interpretation=both\n")
        for k in range(count):
            chain_seed = next(seeds)
            jobs.append(_cli_job(
                f"fractal:{window}#{k}",
                ["fractal", "--config", config, "--seed", str(chain_seed)],
                expected, _fractal_check(chain_seed, window)))
    return jobs


# -- tunnels ------------------------------------------------------------------

TUNNEL_SCHEDULE = Schedule([1], 4)


def _tunnel_paths(limit: int):
    """The fixed list of (tiling, (u, v, w)) routing attempts.

    Tilings of random(3..8, 4) trees with one stage; every non-adjacent pair
    (u, w) with a common neighbour v gives one attempt.
    """
    out = []
    tree_seed = 0
    while len(out) < limit:
        n = random.Random(tree_seed).randrange(3, 9)
        tree = synthetic_tree(f"random({n},4)", seed=tree_seed)
        try:
            built = tile_tree(tree, TUNNEL_SCHEDULE, 1,
                              LabelSource(tree_seed, salt="tunnel"))
        except ValueError:  # window too small for a top set
            tree_seed += 1
            continue
        tiling = built["tiling"]
        adj = {frozenset(e) for e in tiling.adjacency()}
        verts = sorted(tiling.tile_of, key=repr)
        for u in verts:
            for w in verts:
                if repr(u) >= repr(w) or frozenset((u, w)) in adj:
                    continue
                for v in verts:
                    if frozenset((u, v)) in adj and frozenset((w, v)) in adj:
                        out.append((tree_seed, tiling, (u, v, w)))
        tree_seed += 1
    return out[:limit]


def _boxes_json(boxset):
    return [[[lo.as_pair(), hi.as_pair()] for lo, hi in b]
            for b in boxset.boxes]


def _tunnel_job(job_id, tiling, path) -> Job:
    u, _v, w = path

    def call(_work_dir):
        try:
            plan = tunnels.route_gamma(tiling.tile_of, list(path))
        except tunnels.RoutingError:
            return None
        return plan, tunnels.add_edge(tiling, plan)

    checked = {}  # digest -> problems: later batches repeat the outputs

    def check(plan, after):
        problems = []
        old = {frozenset(e) for e in tiling.adjacency()}
        new = {frozenset(e) for e in after.adjacency()}
        if new != old | {frozenset((u, w))}:
            problems.append("adjacency is not the old one plus {u, w}")
        halo = plan.halo()
        for x, before in tiling.tile_of.items():
            if (before.difference(halo).boxes
                    != after.tile_of[x].difference(halo).boxes):
                problems.append(f"tile {x!r} changed outside the halo")
        return problems

    def inspect(outcome, _work_dir):
        if outcome is None:
            return _sha(b"unrouted"), []
        plan, after = outcome
        tiles = {repr(x): _boxes_json(s) for x, s in after.tile_of.items()}
        digest = _sha(json.dumps({"routed": tiles}, sort_keys=True).encode())
        if digest not in checked:
            checked[digest] = check(plan, after)
        return digest, checked[digest]

    return Job(job_id, call, inspect)


def tunnel_route(seed: int, smoke: bool, scratch: str) -> list[Job]:
    """One routing attempt per job over a fixed list of paths.

    The seed moves every tiling by its own integer vector and shuffles the
    job order.  Routing is translation-equivariant, so the work does not
    depend on the seed: drawing the tilings themselves from the seed spreads
    the batch time by about 25% between seeds, because a failed route costs
    about 30 times a successful one.
    """
    rng = random.Random(f"perfbench:tunnel-route:{seed}")
    moved = {}
    jobs = []
    for k, (tree_seed, tiling, path) in enumerate(
            _tunnel_paths(6 if smoke else 18)):
        if tree_seed not in moved:
            shift = tuple(Dyadic(rng.randrange(-1024, 1025)) for _ in range(3))
            moved[tree_seed] = tiling.transform((0, 1, 2), (1, 1, 1), shift)
            moved[tree_seed].adjacency()  # the old adjacency, for the checks
        jobs.append(_tunnel_job(f"route:{tree_seed}:{path!r}",
                                moved[tree_seed], path))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "cli-pipeline": cli_pipeline,
    "fractal-window": fractal_window,
    "tunnel-route": tunnel_route,
}
