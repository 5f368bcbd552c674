"""End-to-end command line runs: artifacts, exit codes, determinism."""

import json
import subprocess
import sys

import pytest


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "tilelab.cli", *args],
        capture_output=True, text=True, cwd=cwd)


def test_cli_import_does_not_load_numpy():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, tilelab.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_package_import_loads_no_submodule():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, tilelab; print([m for m in sys.modules if m.startswith('tilelab.')])"],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_parser_is_built_on_first_use_and_reused(tmp_path):
    lines = ["import tilelab.cli as cli",
             "assert cli._build_parser.cache_info().misses == 0, 'import'"]
    for k in range(2):
        argv = ["bs12", "--radius", "1", "--out", str(tmp_path / str(k))]
        lines.append(f"assert cli.main({argv!r}) == 0")
    lines.append("info = cli._build_parser.cache_info()")
    lines.append("assert (info.misses, info.hits) == (1, 1), info")
    out = subprocess.run([sys.executable, "-c", "\n".join(lines)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_no_command_loads_networkx(tmp_path):
    import tilelab.cli as cli
    cfg = tmp_path / "run.cfg"
    cfg.write_text("i_min = -1\ni_max = 1\nwindow = 1.0\n")
    runs = [["tile-tree", "--tree", "path(6)"], ["t3", "--radius", "2"],
            ["bs12", "--radius", "3"], ["fractal", "--config", str(cfg)],
            ["check"], ["export", "--tree", "path(6)"]]
    assert sorted(args[0] for args in runs) == sorted(cli._COMMANDS)
    lines = ["import sys, tilelab.cli as cli",
             "assert 'networkx' not in sys.modules, 'import'"]
    for args in runs:
        argv = args + ["--out", str(tmp_path / args[0])]
        lines.append(f"assert cli.main({argv!r}) == 0")
        lines.append(f"assert 'networkx' not in sys.modules, {args[0]!r}")
    out = subprocess.run([sys.executable, "-c", "\n".join(lines)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_commands_other_than_t3_and_check_do_not_load_unimodular(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("i_min = -1\ni_max = 1\nwindow = 1.0\n")
    runs = [["tile-tree", "--tree", "path(6)"], ["bs12", "--radius", "3"],
            ["fractal", "--config", str(cfg)], ["export", "--tree", "path(6)"]]
    lines = ["import sys, tilelab.cli as cli",
             "assert 'tilelab.unimodular' not in sys.modules, 'import'"]
    for args in runs:
        argv = args + ["--out", str(tmp_path / args[0])]
        lines.append(f"assert cli.main({argv!r}) == 0")
        lines.append(f"assert 'tilelab.unimodular' not in sys.modules, {args[0]!r}")
    out = subprocess.run([sys.executable, "-c", "\n".join(lines)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_tile_tree_pass(tmp_path):
    out = run_cli("tile-tree", "--seed", "3", "--tree", "path(12)",
                  "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    report = json.loads((tmp_path / "verifier.json").read_text())
    assert report["pass"]
    assert (tmp_path / "tiling.json").exists()
    assert (tmp_path / "scene.off").read_text().startswith("OFF")


def test_bs12_pass(tmp_path):
    out = run_cli("bs12", "--radius", "3", "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    doc = json.loads((tmp_path / "fibers.json").read_text())
    assert doc["all_degree_3"]
    assert doc["interior_acyclic"]
    assert (tmp_path / "window.json").exists()


def test_t3_runs(tmp_path):
    out = run_cli("t3", "--radius", "2", "--seed", "1", "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    doc = json.loads((tmp_path / "t3-report.json").read_text())
    assert "piece_statistics" in doc and "fiber_report" in doc


def test_t3_honors_stages(tmp_path):
    import tilelab.cli as cli
    bodies = []
    for stages in (1, 2):
        cfg = tmp_path / f"stages{stages}.cfg"
        cfg.write_text(f"stages = {stages}\n")
        out = tmp_path / f"out{stages}"
        assert cli.main(["t3", "--config", str(cfg), "--radius", "6",
                         "--out", str(out)]) == 0
        lines = (out / "t3-scene.off").read_text().splitlines()
        bodies.append([ln for ln in lines if not ln.startswith("#")])
    assert bodies[0] != bodies[1]


def test_fractal_runs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("i_min = -1\ni_max = 1\nwindow = 1.0\n")
    out = run_cli("fractal", "--config", str(cfg), "--seed", "1",
                  "--interpretation", "both", "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    for interp in ("square", "rect"):
        assert (tmp_path / f"fractal-{interp}.json").exists()
        assert (tmp_path / f"fractal-{interp}.svg").exists()
        assert (tmp_path / f"fractal-{interp}-degrees.csv").exists()


# sha256 of the artifacts of `fractal` at window 1, scales -2..2, both
# interpretations, seed 1, as the Dyadic-corner construction wrote them
FRACTAL_DIGESTS = {
    "fractal-rect-degrees.csv":
        "c2c0701587248e0b7c2baaaef40477842c788d5ad9f453315008a78de0234cce",
    "fractal-rect.json":
        "a96c39c0c8f645c391bd137dd8f11341ca5456408dbf33545438b20e7354657f",
    "fractal-rect.svg":
        "7f132891d86a609ac89be97fe39223ac58ee7fed666245e6739b7f8086dabfc8",
    "fractal-square-degrees.csv":
        "b1e54501979924fd089b324def9608df940dfd46c3294b3080fc29c76a289131",
    "fractal-square.json":
        "4437a665dcf8812e863d5b2aabe59e11c473ce7726e23936921585bd099daaaf",
    "fractal-square.svg":
        "2621250b6de1300195c8875a3f4eaf2723fdd720444d80a0817316a984cac799",
}


def test_fractal_artifacts_are_pinned(tmp_path):
    import hashlib
    import tilelab.cli as cli
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window=1.0\ni_min=-2\ni_max=2\ninterpretation=both\n")
    out = tmp_path / "out"
    assert cli.main(["fractal", "--config", str(cfg), "--seed", "1",
                     "--out", str(out)]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == FRACTAL_DIGESTS


# SHA-256 of the JSON artifacts of `check`, `tile-tree --tree
# "binary-canopy(4)" --seed 0`, `t3 --radius 3 --seed 0` and `bs12 --radius
# 3 --seed 0`, recorded before `exports.dumps_indented` replaced
# `json.dumps(indent=2)`.
JSON_DIGESTS = {
    "check.json":
        "1541036cb18a04a12c91c9053e5dfc128d73afaf61346862b44bd6de22b306a3",
    "f-battery.json":
        "f53072ec155864e270c8ab7336259a7d428def33a17bfcb79ab71dd044bdaf0a",
    "tiling.json":
        "58ecaf946680c8a500a4f2a29c2279741ab57366c29819c9be472734c95ebee9",
    "verifier.json":
        "7c6856a975b8aaf69954214030cde7628624827b36d7a5a0a5a0389cfdafcaa3",
    "t3-report.json":
        "cb28a5e7d2bf5fc3918d0b7a995919846818fb7b3ee0038769d0a2ba2cc0e087",
    "window.json":
        "0c3794b84458a047e7b7dc8e17ae2cd5d038d490cca03a7ae2afc133bd128687",
    "fibers.json":
        "a1da587f66dda5911309ac8ecf0a8380056211116ca8cc8345b75882feea723b",
}


def test_json_artifacts_are_pinned(tmp_path):
    import hashlib
    import tilelab.cli as cli
    runs = [["check"],
            ["tile-tree", "--tree", "binary-canopy(4)", "--seed", "0"],
            ["t3", "--radius", "3", "--seed", "0"],
            ["bs12", "--radius", "3", "--seed", "0"]]
    digests = {}
    for k, argv in enumerate(runs):
        out = tmp_path / str(k)
        assert cli.main(argv + ["--out", str(out)]) == 0
        digests.update((p.name, hashlib.sha256(p.read_bytes()).hexdigest())
                       for p in out.glob("*.json"))
    assert digests == JSON_DIGESTS


# SHA-256 of `bs12 --radius 8 --seed 0` and `t3 --radius 6 --seed 1`,
# recorded while window vertices were `Dyadic`-offset group elements, and of
# `t3 --radius 8 --seed 0`, recorded while the spanning tree was rooted by a
# breadth-first search over its edges.
DEEP_WINDOW_DIGESTS = {
    ("bs12", "8", "0"): {
        "window.json":
            "386cf8a80c48acedc342e2ff0c3a13a432ab1ce7275d2bf66070f229e8e779fe",
        "fibers.json":
            "2e9ade9b335628a23f051c445433f26f3183b9347e7a06bcaf847ba625cf2f3b",
    },
    ("t3", "6", "1"): {
        "t3-report.json":
            "4540f83b82a215524eef36897c86defd5e9c85e5ccd72e95f58fd2327bd1c992",
        "t3-scene.off":
            "24fb3e6a742f7038cbdedb3ff2be2c4c53992474548c2025d70b5d42d66c3890",
    },
    ("t3", "8", "0"): {
        "t3-report.json":
            "448b88ab51040e2b7e3ea894c9e0785787637049ef989f37e7816885eac202e9",
        "t3-scene.off":
            "01ffff896209d33704bb002d0dbd8dafb4c18f62fd9477f635ae16082e9be9ae",
    },
}


@pytest.mark.parametrize("run", sorted(DEEP_WINDOW_DIGESTS))
def test_deep_window_artifacts_are_pinned(tmp_path, run):
    import hashlib
    import tilelab.cli as cli
    command, radius, seed = run
    argv = [command, "--radius", radius, "--seed", seed, "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == DEEP_WINDOW_DIGESTS[run]


# SHA-256 of `tile-tree --seed 0` on trees whose partition stages peel many
# rounds, recorded before the stages peeled one window in place; the
# `scene.off` digests were recorded before meshes were written box by box.
DEEP_TREE_DIGESTS = {
    "path(100)": {
        "scene.off":
            "3a8479ae60ea1003cddf86147cdd7f0e582bb281807a33142a1755f379bdf556",
        "tiling.json":
            "7f7f180010f300045a42fc57d33665559c3fd11319e5e1e7a64731e6f840c054",
        "verifier.json":
            "853ce38c830f0ca970705628eff7513039db233991dd8ff0e4d178d32361c734",
    },
    "random(300,4)": {
        "scene.off":
            "d95bae4346f7a10ea8f8aa78c2e9fa124110cff9f1dd701078d411b588d62729",
        "tiling.json":
            "f50bacd89c3c4932606b635af5ec91d099cb83e11ac9ebb19df0279c75bed967",
        "verifier.json":
            "f3f7f0b798153a1dbdb1fe7cfb5a328a0e3f74ec4edbf411c2a7498951e7d623",
    },
}


@pytest.mark.parametrize("tree", sorted(DEEP_TREE_DIGESTS))
def test_deep_tree_artifacts_are_pinned(tmp_path, tree):
    import hashlib
    import tilelab.cli as cli
    argv = ["tile-tree", "--tree", tree, "--seed", "0", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in DEEP_TREE_DIGESTS[tree]}
    assert digests == DEEP_TREE_DIGESTS[tree]


# SHA-256 of the artifacts of `export --tree "binary-canopy(4)" --seed 0`,
# recorded before meshes were written box by box.
EXPORT_DIGESTS = {
    "scene.obj":
        "2eaf96d35df2393636f5f42d2c925c08107612a5eaf350f0ae3bc49c8afcdd4c",
    "scene.off":
        "44107a71a70466f005432bb3c1f4cfa02bec08477ce5467d04d0243e9820891d",
    "tiling.json":
        "58ecaf946680c8a500a4f2a29c2279741ab57366c29819c9be472734c95ebee9",
}


def test_export_artifacts_are_pinned(tmp_path):
    import hashlib
    import tilelab.cli as cli
    argv = ["export", "--tree", "binary-canopy(4)", "--seed", "0",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == EXPORT_DIGESTS


def test_t3_reports_dropped_disconnected_fibers(tmp_path):
    out = run_cli("t3", "--radius", "4", "--seed", "0", "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    assert ("7 interior pieces, 1 disconnected interior fibers dropped,"
            in out.stdout)


def test_check_pass(tmp_path):
    out = run_cli("check", "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    doc = json.loads((tmp_path / "check.json").read_text())
    assert doc["pass"]
    battery = json.loads((tmp_path / "f-battery.json").read_text())
    assert len(battery["functions"]) == 8


def test_export_formats(tmp_path):
    out = run_cli("export", "--seed", "2", "--tree", "path(10)",
                  "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    for name in ("scene.off", "scene.obj", "tiling.json"):
        assert (tmp_path / name).exists()


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        out = run_cli("tile-tree", "--seed", "5", "--tree", "path(10)",
                      "--out", str(d))
        assert out.returncode == 0, out.stderr
    for name in ("tiling.json", "scene.off", "verifier.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_config_error_exit_code(tmp_path):
    out = run_cli("tile-tree", "--schedule", "2,3", "--out", str(tmp_path))
    assert out.returncode == 2
    out = run_cli("tile-tree", "--config", "/nonexistent/х.cfg",
                  "--out", str(tmp_path))
    assert out.returncode == 2
    out = run_cli("fractal", "--interpretation", "diagonal",
                  "--out", str(tmp_path))
    assert out.returncode == 2
    assert "config error: interpretation must be one of" in out.stderr
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window = 0.3\n")
    out = run_cli("fractal", "--config", str(cfg), "--out", str(tmp_path))
    assert out.returncode == 2
    assert "config error: window must be a positive multiple" in out.stderr
    assert not list(tmp_path.glob("fractal-*"))


def test_unread_keys_have_no_flag(tmp_path, capsys):
    # `threads`, `steps` and `resolution` stay config keys, hashed into the
    # artifacts, but no command reads them, so the parser offers no flag
    import tilelab.cli as cli
    from tilelab.config import load_config

    with pytest.raises(SystemExit) as exc:
        cli.main(["tile-tree", "--threads", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads = 2\nsteps = 5\nresolution = 7\n")
    loaded = load_config(str(cfg))
    assert (loaded.threads, loaded.steps, loaded.resolution) == (2, 5, 7)


@pytest.mark.parametrize("tree, why", [
    ("foo(3)", "unknown tree kind: 'foo'"),
    ("random(50,1)", "random(n,maxdeg) needs n >= 1, and n <= maxdeg + 1"),
    ("random(5)", "wrong number of arguments for random"),
    ("path(0)", "path(n) needs n >= 1"),
])
def test_malformed_tree_descriptor_is_a_config_error(tmp_path, capsys, tree, why):
    import tilelab.cli as cli

    code = cli.main(["tile-tree", "--tree", tree, "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: tree: ") and why in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, tree", [
    ("tile-tree", "path(1)"), ("tile-tree", "path(2)"),
    ("tile-tree", "binary-canopy(0)"), ("tile-tree", "random(2,1)"),
    ("export", "path(2)"),
])
def test_window_too_small_is_a_config_error(tmp_path, capsys, command, tree):
    import tilelab.cli as cli

    code = cli.main([command, "--tree", tree, "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: window too small: empty top set\n"
    assert not list(tmp_path.iterdir())


def test_smallest_random_tree_is_a_valid_descriptor():
    from tilelab.config import RunConfig
    from tilelab.trees import synthetic_tree

    cfg = RunConfig({"tree": "random(2,1)"})
    assert synthetic_tree(cfg.tree).parent == {0: None, 1: 0}


def test_radius_one_window_is_vacuously_ok(tmp_path):
    # no fiber is certifiable at radius 1; the report says so and passes
    out = run_cli("bs12", "--radius", "1", "--out", str(tmp_path))
    assert out.returncode == 0
    doc = json.loads((tmp_path / "fibers.json").read_text())
    assert doc["n_interior"] == 0


def test_verification_failure_exit_code(tmp_path, monkeypatch):
    import tilelab.cli as cli

    def broken(tiling, tree):
        return {"pass": False}

    monkeypatch.setattr(cli, "verify_representation", broken)
    code = cli.main(["tile-tree", "--tree", "path(6)", "--out", str(tmp_path)])
    assert code == 1


def test_export_builds_one_mesh_for_both_formats(tmp_path, monkeypatch):
    import tilelab.cli as cli
    import tilelab.exports as exports

    built = []
    real = exports._tiling_mesh
    monkeypatch.setattr(exports, "_tiling_mesh",
                        lambda *a: built.append(a) or real(*a))
    code = cli.main(["export", "--tree", "path(6)", "--out", str(tmp_path)])
    assert code == 0 and len(built) == 1
    tiling, h = built[0][0], cli.RunConfig({"tree": "path(6)"}).hash()
    assert (tmp_path / "scene.off").read_text() == exports.tiling_off(tiling, h, 0)
    assert (tmp_path / "scene.obj").read_text() == exports.tiling_obj(tiling, h, 0)


def test_slab_limit_exit_code(tmp_path, monkeypatch, capsys):
    import tilelab.boxes as boxes
    import tilelab.cli as cli

    # below what the pipeline's first boolean appends
    monkeypatch.setattr(boxes, "MAX_SLABS", 1)
    code = cli.main(["tile-tree", "--tree", "path(6)", "--out", str(tmp_path)])
    assert code == cli.EXIT_RESOURCE
    assert "one merge over 1 slabs" in capsys.readouterr().err


def test_lattice_cap_exit_code(tmp_path, monkeypatch, capsys):
    import tilelab.cli as cli
    import tilelab.tiler as tiler

    # path(n) needs the lattice of 2^-(3n - 4): path(5462) is the deepest
    # path under the cap
    assert tiler.MAX_EXP == 1 << 14
    verified = []
    monkeypatch.setattr(cli, "verify_representation", lambda *a: verified.append(a))
    code = cli.main(["tile-tree", "--tree", "path(5463)", "--out", str(tmp_path)])
    assert code == cli.EXIT_RESOURCE
    assert capsys.readouterr().err == (
        "resource cap: carve: the tile of 5460 needs the lattice of 2^-16385, "
        "finer than the cap 2^-16384\n")
    assert not verified and not list(tmp_path.iterdir())


def test_failed_buddy_allocation_exit_code(tmp_path, monkeypatch, capsys):
    import tilelab.cli as cli
    import tilelab.tiler as tiler

    alloc = tiler.BuddyAllocator.alloc

    def starved(self, size):
        # drop the free blocks of all sizes but 0, so no request above 0 fits
        self.free = {0: [(0, 0, 0)]}
        return alloc(self, size)

    monkeypatch.setattr(tiler.BuddyAllocator, "alloc", starved)
    code = cli.main(["tile-tree", "--tree", "binary-canopy(7)",
                     "--out", str(tmp_path)])
    assert code == 1  # an internal invariant break, not a resource limit
    err = capsys.readouterr().err
    assert "internal error: buddy allocation failed for size" in err
    assert "free block sizes: [0]" in err
