"""Command-line entry point: build, verify and export the tiling pipelines.

Exit codes: 0 success, 1 verification failure or internal invariant break
(a failed buddy allocation), 2 configuration error (including a tree window
too small to carry a block), 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import bs12 as bs12mod
from . import exports, fractal, tunnels
from .boxes import ResourceLimit
from .canon import has_cycle
from .config import ConfigError, RunConfig, load_config
from .dyadic import Dyadic
from .labels import LabelSource
from .partition import Schedule
from .tiler import (AllocationError, WindowTooSmall, tile_tree,
                    verify_representation)
from .trees import synthetic_tree

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3


@functools.cache  # built on first use, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilelab",
        description="tree tilings, fiber windows and checking suites")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--radius", type=int, default=None)
        p.add_argument("--schedule", default=None,
                       help="comma separated level sizes, e.g. 1,6")
        p.add_argument("--interpretation", default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--tree", default=None,
                       help="synthetic tree descriptor, e.g. binary-canopy(4)")

    for name in ("tile-tree", "bs12", "t3", "fractal", "check", "export"):
        common(sub.add_parser(name))
    return parser


def _config_from_args(args) -> RunConfig:
    overrides = {
        "seed": args.seed,
        "radius": args.radius,
        "interpretation": args.interpretation,
        "out": args.out,
        "tree": args.tree,
    }
    if args.schedule is not None:
        overrides["schedule"] = [int(p) for p in
                                 args.schedule.replace(",", " ").split()]
    if args.config:
        return load_config(args.config, overrides)
    return RunConfig({k: v for k, v in overrides.items() if v is not None})


def _tile_tree_pipeline(cfg: RunConfig):
    tree = synthetic_tree(cfg.tree, cfg.seed)
    labels = LabelSource(cfg.seed, salt="tile-tree")
    schedule = Schedule(tuple(cfg.schedule), degree_bound=4)
    result = tile_tree(tree, schedule, cfg.stages, labels)
    report = verify_representation(result["tiling"], tree)
    return tree, result, report


def cmd_tile_tree(cfg: RunConfig) -> int:
    tree, result, report = _tile_tree_pipeline(cfg)
    h = cfg.hash()
    tiling = result["tiling"]
    exports.write_file(cfg.out, "tiling.json",
                       exports.json_report(tiling.to_json(), h, cfg.seed))
    exports.write_file(cfg.out, "scene.off",
                       exports.tiling_off(tiling, h, cfg.seed,
                                          digits=cfg.decimal_digits))
    exports.write_file(cfg.out, "verifier.json",
                       exports.json_report(report, h, cfg.seed))
    print(f"tile-tree: {len(tree.order)} vertices, "
          f"{len(tiling.tile_of)} tiles, verifier "
          f"{'pass' if report['pass'] else 'FAIL'}")
    return EXIT_OK if report["pass"] else EXIT_VERIFY


def _interior_fiber_report(fib) -> dict:
    degs = fib.degrees(fib.interior_fibers)
    interior = set(fib.interior_fibers)
    acyclic = not has_cycle((f1, f2) for f1, f2 in fib.fiber_edges
                            if f1 in interior and f2 in interior)
    return {
        "n_fibers": len(fib.members),
        "n_interior": len(interior),
        "interior_degrees": sorted(degs.values()),
        "all_degree_3": all(d == 3 for d in degs.values()),
        "interior_acyclic": acyclic,
    }


def cmd_bs12(cfg: RunConfig) -> int:
    window = bs12mod.bs12_ball(cfg.radius)
    fib = bs12mod.fibers(window)
    report = _interior_fiber_report(fib)
    h = cfg.hash()
    exports.write_file(cfg.out, "window.json",
                       exports.json_report(window.to_json(), h, cfg.seed))
    exports.write_file(cfg.out, "fibers.json",
                       exports.json_report(report, h, cfg.seed))
    ok = report["all_degree_3"] and report["interior_acyclic"]
    print(f"bs12: radius {cfg.radius}, {len(window.vertices)} vertices, "
          f"{report['n_interior']} interior fibers, "
          f"{'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_t3(cfg: RunConfig) -> int:
    from . import unimodular  # imported here: only t3 and check use it

    window = bs12mod.bs12_ball(cfg.radius)
    assembly = tunnels.assemble_bs12(window, cfg.seed, cfg.stages,
                                     tuple(cfg.schedule))
    fib = assembly["fibers"]
    contracted = tunnels.contract_fibers(assembly["tiling"], fib)
    placed = tunnels.random_isometry(contracted, cfg.seed)
    h = cfg.hash()

    features = {}
    for fid in sorted(fib.interior_fibers):
        if fid in contracted.tile_of:
            features[fid] = unimodular.piece_features(
                contracted.tile_of[fid], len(fib.members[fid]))
    stats = unimodular.piece_statistics(features)

    exports.write_file(cfg.out, "t3-scene.off",
                       exports.tiling_off(placed, h, cfg.seed,
                                          digits=cfg.decimal_digits))
    payload = {
        "fiber_report": _interior_fiber_report(fib),
        "piece_statistics": stats,
        # no tunnel can exist on a BS(1,2) window: see tunnels.assemble_bs12
        "realized_tunnels": 0,
        "unrealized_tunnels": [[list(e), why]
                               for e, why in assembly["unrealized"]],
    }
    exports.write_file(cfg.out, "t3-report.json",
                       exports.json_report(payload, h, cfg.seed))
    dropped = sum(("disconnected", fid) in contracted.unresolved
                  for fid in fib.interior_fibers)
    print(f"t3: radius {cfg.radius}, {stats['n_pieces']} interior pieces, "
          f"{dropped} disconnected interior fibers dropped, 0 tunnels realized, "
          f"{len(assembly['unrealized'])} unrealized, "
          f"separated={stats['separated']}")
    return EXIT_OK


def cmd_fractal(cfg: RunConfig) -> int:
    w = cfg.window
    half = Dyadic(int(w * 256), 8)
    window = ((-half, half), (-half, half))
    chain = fractal.build_chain(cfg.seed, cfg.i_min, cfg.i_max)
    interps = (fractal.INTERPRETATIONS if cfg.interpretation == "both"
               else (cfg.interpretation,))
    h = cfg.hash()
    for interp in interps:
        pieces = fractal.pieces_in_window(chain, window, interp)
        report = fractal.adjacency_report(pieces, window, interp)
        interior = set(report["interior_indices"])
        embed = fractal.embed_tree(
            pieces, [e for e in report["edges"]
                     if e[0] in interior and e[1] in interior],
            cfg.seed)
        report["embedding"] = {k: embed[k] for k in
                               ("n_vertices", "n_edges", "crossings")}
        exports.write_file(cfg.out, f"fractal-{interp}.svg",
                           exports.svg_with_header(
                               fractal.pieces_svg(pieces, window), h, cfg.seed))
        exports.write_file(cfg.out, f"fractal-{interp}.json",
                           exports.json_report(report, h, cfg.seed))
        exports.write_file(
            cfg.out, f"fractal-{interp}-degrees.csv",
            exports.csv_table(
                [(k, v) for k, v in report["degree_histogram"].items()],
                ("degree", "count"), h, cfg.seed))
        print(f"fractal[{interp}]: {report['n_pieces']} pieces, "
              f"{report['n_interior']} interior, "
              f"acyclic={report['acyclic_interior']}, "
              f"histogram={report['degree_histogram']}")
    return EXIT_OK


def cmd_check(cfg: RunConfig) -> int:
    from . import unimodular

    results = {}
    ok = True
    fixtures = unimodular.bundled_fixtures()
    for name, graph in fixtures.items():
        family = unimodular.uniform_family(graph)
        battery = unimodular.mtp_battery(family)
        results[f"mtp:{name}"] = battery
        ok = ok and all(r["equal"] for r in battery.values())

        big = unimodular.bigraph_fixture(graph)
        rerooted = unimodular.reroot_to_H(big)
        dual = unimodular.dual_family(rerooted)
        dual_batt = unimodular.mtp_battery(unimodular.bigraph_samples(dual))
        results[f"duality:{name}"] = dual_batt
        ok = ok and all(r["equal"] for r in dual_batt.values())

        omega = unimodular.omega_fixture(graph)
        stationary = unimodular.stationarity_check(graph, omega)
        results[f"stationarity:{name}"] = stationary
        ok = ok and stationary

    h = cfg.hash()
    exports.write_file(cfg.out, "check.json",
                       exports.json_report({"pass": ok, "suites": results},
                                           h, cfg.seed))
    exports.write_file(cfg.out, "f-battery.json",
                       unimodular.battery_manifest() + "\n")
    print(f"check: {'pass' if ok else 'FAIL'} "
          f"({len(results)} suites over {len(fixtures)} fixtures)")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_export(cfg: RunConfig) -> int:
    tree, result, report = _tile_tree_pipeline(cfg)
    h = cfg.hash()
    tiling = result["tiling"]
    mesh = exports._tiling_mesh(tiling, cfg.decimal_digits)  # for both formats
    exports.write_file(cfg.out, "scene.off",
                       exports.tiling_off(tiling, h, cfg.seed, mesh=mesh))
    exports.write_file(cfg.out, "scene.obj",
                       exports.tiling_obj(tiling, h, cfg.seed, mesh=mesh))
    exports.write_file(cfg.out, "tiling.json",
                       exports.json_report(tiling.to_json(), h, cfg.seed))
    print(f"export: {len(tiling.tile_of)} tiles -> scene.off, scene.obj, "
          f"tiling.json in {cfg.out}")
    return EXIT_OK if report["pass"] else EXIT_VERIFY


_COMMANDS = {
    "tile-tree": cmd_tile_tree,
    "bs12": cmd_bs12,
    "t3": cmd_t3,
    "fractal": cmd_fractal,
    "check": cmd_check,
    "export": cmd_export,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg)
    except ResourceLimit as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except AllocationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ConfigError, WindowTooSmall) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
