"""Export formats: OFF/OBJ mesh integrity, JSON/CSV headers, determinism."""

import json

import pytest

from tilelab.exports import (csv_table, json_report, svg_with_header,
                             tiling_obj, tiling_off, write_file)
from tilelab.labels import LabelSource
from tilelab.partition import Schedule
from tilelab.tiler import tile_tree
from tilelab.trees import synthetic_tree


def small_tiling():
    tree = synthetic_tree("path(8)")
    built = tile_tree(tree, Schedule([1, 6], 4), 2, LabelSource(0, salt="exp"))
    return built["tiling"]


def test_off_structure():
    tiling = small_tiling()
    text = tiling_off(tiling, "deadbeef", 0)
    lines = text.strip().split("\n")
    assert lines[0] == "OFF"
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    nv, nf, ne = map(int, body[0].split())
    verts = body[1:1 + nv]
    faces = body[1 + nv:]
    assert len(verts) == nv and len(faces) == nf
    assert nv % 8 == 0 and nf == (nv // 8) * 6  # cuboid shells
    for ln in faces:
        parts = ln.split()
        assert parts[0] == "4"
        assert all(0 <= int(i) < nv for i in parts[1:])
    assert "# config-hash: deadbeef" in lines
    assert "# seed: 0" in lines


def test_obj_structure():
    tiling = small_tiling()
    text = tiling_obj(tiling, "deadbeef", 0)
    lines = text.strip().split("\n")
    nv = sum(1 for ln in lines if ln.startswith("v "))
    for ln in lines:
        if ln.startswith("f "):
            idx = [int(p) for p in ln.split()[1:]]
            assert all(1 <= i <= nv for i in idx)  # 1-based indexing


def test_json_report_embeds_provenance():
    doc = json.loads(json_report({"x": 1}, "abcd", 7))
    assert doc["config_hash"] == "abcd"
    assert doc["seed"] == 7
    assert doc["x"] == 1


def test_csv_and_svg_headers():
    text = csv_table([[1, 2], [3, 4]], ["a", "b"], "ffff", 3)
    lines = text.strip().split("\n")
    assert lines[0].startswith("# config-hash: ffff")
    assert lines[2] == "a,b"
    svg = svg_with_header("<svg></svg>", "ffff", 3)
    assert svg.startswith("<!-- config-hash: ffff")


def test_exports_deterministic(tmp_path):
    tiling = small_tiling()
    a = tiling_off(tiling, "h", 1)
    b = tiling_off(small_tiling(), "h", 1)
    assert a == b
    p = write_file(str(tmp_path / "sub"), "scene.off", a)
    assert open(p).read() == a


def test_write_file_is_atomic(tmp_path):
    (tmp_path / "keep.json").write_text("old")
    for name in ("new.json", "keep.json"):
        # a lone surrogate cannot be encoded: the write fails after the open
        with pytest.raises(UnicodeEncodeError):
            write_file(str(tmp_path), name, "complete prefix \ud800")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.json"]
    assert (tmp_path / "keep.json").read_text() == "old"
