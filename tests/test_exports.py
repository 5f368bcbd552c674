"""Export formats: OFF/OBJ mesh integrity, JSON/CSV headers, determinism."""

import json
import math
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from tilelab.boxes import BoxSet, union_all
from tilelab.dyadic import Dyadic
from tilelab.exports import (csv_table, dumps_indented, json_report,
                             svg_with_header, tiling_mesh, tiling_obj,
                             tiling_off, write_file)
from tilelab.labels import LabelSource
from tilelab.partition import Schedule
from tilelab.tiler import Tiling, tile_tree
from tilelab.trees import synthetic_tree


def small_tiling():
    tree = synthetic_tree("path(8)")
    built = tile_tree(tree, Schedule([1, 6], 4), 2, LabelSource(0, salt="exp"))
    return built["tiling"]


def small_mesh():
    return tiling_mesh(small_tiling(), 9)


def test_off_structure():
    text = tiling_off(small_mesh(), "deadbeef", 0)
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
    text = tiling_obj(small_mesh(), "deadbeef", 0)
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


# Scalars of every kind `json.dumps` encodes, and the `Fraction` and
# `Dyadic` values it renders through ``default=repr``.
_SCALARS = (st.none() | st.booleans()
            | st.integers() | st.integers(-(1 << 80), 1 << 80)
            | st.floats()
            | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-05, 1e16])
            | st.text() | st.text(st.characters(max_codepoint=0x1f))
            | st.fractions()
            | st.builds(Dyadic, st.integers(-99, 99), st.integers(0, 8))
            # short int lists repeat, so one rendering serves several depths
            | st.lists(st.integers(-2, 2), max_size=3))
# One kind of key per dict: `sort_keys` cannot order str against int keys.
_KEYS = [st.text(), st.integers() | st.floats() | st.booleans(), st.none()]


def _json_values(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.one_of([st.dictionaries(k, children, max_size=4)
                         for k in _KEYS]))


@settings(max_examples=300, deadline=None)
@given(st.recursive(_SCALARS, _json_values, max_leaves=30))
@example([[1, 1], [1, True], [[1, 1], (1, 1)], {"a": [1, 1]}, [1.0, 1]])
@example({math.nan: [], 1e16: {}, -0.0: "\x00\u00e9\u2028\U0001f600"})
@example({True: 1, 2: False, 0.5: None})
def test_dumps_indented_matches_json_dumps(obj):
    assert dumps_indented(obj) + "\n" == (
        json.dumps(obj, indent=2, sort_keys=True, default=repr) + "\n")


def test_dumps_indented_writes_ints_past_the_digit_limit():
    # 5,000 digits: past the interpreter's default limit of 4,300 on
    # int-to-text conversion, which a `[num, exp]` pair of a deep tile reaches
    n = 10 ** 4999 + 7
    digits = "1" + "0" * 4998 + "7"
    assert dumps_indented({"pair": [n, 3], "num": -n}) == (
        '{\n  "num": -' + digits + ',\n  "pair": [\n    ' + digits
        + ',\n    3\n  ]\n}')


def test_csv_and_svg_headers():
    text = csv_table([[1, 2], [3, 4]], ["a", "b"], "ffff", 3)
    lines = text.strip().split("\n")
    assert lines[0].startswith("# config-hash: ffff")
    assert lines[2] == "a,b"
    svg = svg_with_header("<svg></svg>", "ffff", 3)
    assert svg.startswith("<!-- config-hash: ffff")


def test_exports_deterministic(tmp_path):
    a = tiling_off(small_mesh(), "h", 1)
    b = tiling_off(small_mesh(), "h", 1)
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


# -- reference mesh -----------------------------------------------------------
# The writers as they were before meshes were read from lattice ints: the
# `Dyadic` corners of `.boxes`, each of the 24 coordinates of a box formatted
# on its own, and the JSON pairs from `Dyadic.as_pair`.


def _ref_fmt(d, digits):
    return f"{Decimal(d.num) / Decimal(1 << d.exp):.{digits}f}"


def _ref_mesh(tiling, digits):
    quads = [(0, 1, 3, 2), (4, 6, 7, 5), (0, 2, 6, 4), (1, 5, 7, 3),
             (0, 4, 5, 1), (2, 3, 7, 6)]
    verts, faces = [], []
    for key in sorted(tiling.tile_of, key=repr):
        for (x0, x1), (y0, y1), (z0, z1) in tiling.tile_of[key].boxes:
            corners = [(x, y, z) for z in (z0, z1) for y in (y0, y1)
                       for x in (x0, x1)]
            n = len(verts)
            verts += [" ".join(_ref_fmt(c, digits) for c in corner)
                      for corner in corners]
            faces += [tuple(n + i for i in q) for q in quads]
    return verts, faces


def _ref_off(tiling, h, seed, digits):
    verts, faces = _ref_mesh(tiling, digits)
    lines = ["OFF", f"# config-hash: {h}", f"# seed: {seed}",
             f"{len(verts)} {len(faces)} 0"] + verts
    lines += [f"4 {a} {b} {c} {d}" for a, b, c, d in faces]
    return "\n".join(lines) + "\n"


def _ref_obj(tiling, h, seed, digits):
    verts, faces = _ref_mesh(tiling, digits)
    lines = [f"# config-hash: {h}", f"# seed: {seed}"]
    lines += [f"v {v}" for v in verts]
    lines += [f"f {a + 1} {b + 1} {c + 1} {d + 1}" for a, b, c, d in faces]
    return "\n".join(lines) + "\n"


def _ref_boxes_json(s):
    return [[[lo.as_pair(), hi.as_pair()] for lo, hi in b] for b in s.boxes]


@st.composite
def dyadic_boxes(draw):
    # one exponent per box, so the sets mix lattices; corners up to 16 in
    # size at up to 100 binary places, so at 30 digits `Decimal`'s 28-digit
    # quotient is rounded before the format rounds it again
    e = draw(st.sampled_from([0, 1, 2, 5, 12, 40, 100]))
    box = []
    for _ in range(3):
        lo = draw(st.integers(-(1 << (e + 4)), 1 << (e + 4)))
        hi = lo + draw(st.integers(1, 1 << (e + 2)))
        box.append((Dyadic(lo, e), Dyadic(hi, e)))
    return tuple(box)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(dyadic_boxes(), min_size=1, max_size=3),
                min_size=1, max_size=5),
       st.sampled_from([0, 3, 9, 30]))
def test_mesh_from_ints_matches_dyadic_corners(tiles, digits):
    tile_of = {k: BoxSet(boxes) for k, boxes in enumerate(tiles)}
    tiling = Tiling(tile_of, union_all(list(tile_of.values())), [0], (), ())
    mesh = tiling_mesh(tiling, digits)
    off = tiling_off(mesh, "h", 3)
    obj = tiling_obj(mesh, "h", 3)
    # a box's first corner is (x0, y0, z0) and its last (x1, y1, z1)
    verts, _ = _ref_mesh(tiling, digits)
    ends = [(verts[n].split(), verts[n + 7].split())
            for n in range(0, len(verts), 8)]
    assert mesh == [
        (x0, x1, y0, y1, z0, z1) for (x0, y0, z0), (x1, y1, z1) in ends]
    assert off == _ref_off(tiling, "h", 3, digits)
    assert obj == _ref_obj(tiling, "h", 3, digits)
    ref = dict(tiling.to_json(), config_hash="h", seed=3,
               tiles={repr(k): _ref_boxes_json(s) for k, s in tile_of.items()},
               region=_ref_boxes_json(tiling.region))
    assert json_report(tiling.to_json(), "h", 3) == (
        json.dumps(ref, indent=2, sort_keys=True) + "\n")


# A numerator of 4,401 digits, past the interpreter's default limit of 4,300
# on int-to-text conversion
_HUGE = BoxSet([((Dyadic(10 ** 4400 + 1, 3), Dyadic(10 ** 4400 + 9, 3)),
                 (Dyadic(0), Dyadic(1)), (Dyadic(-1, 1), Dyadic(0)))])
_BOXSETS = (st.lists(dyadic_boxes(), max_size=3).map(BoxSet)
            | st.sampled_from([BoxSet.empty(), _HUGE]))


@st.composite
def boxsets_in_json(draw):
    """A JSON value holding `BoxSet`s at depths 0 to 4 in lists and dicts,
    and the same value with each set replaced by its reference list."""
    s = draw(_BOXSETS)
    obj, ref = s, _ref_boxes_json(s)
    for _ in range(draw(st.integers(0, 4))):
        t = draw(_BOXSETS)
        if draw(st.booleans()):
            obj, ref = [7, obj, t], [7, ref, _ref_boxes_json(t)]
        else:
            k = draw(st.text(max_size=2))
            obj = {k: obj, k + "~": t, "z": None}
            ref = {k: ref, k + "~": _ref_boxes_json(t), "z": None}
    return obj, ref


@settings(max_examples=100, deadline=None)
@given(boxsets_in_json())
@example((_HUGE, _ref_boxes_json(_HUGE)))
@example(([[[{"": BoxSet.empty()}]]], [[[{"": []}]]]))
def test_dumps_indented_writes_boxsets_as_their_reference_lists(obj_ref):
    obj, ref = obj_ref
    assert dumps_indented(obj) == dumps_indented(ref)


def test_exports_never_build_dyadic_corners():
    tiling = small_tiling()
    mesh = tiling_mesh(tiling, 9)
    tiling_off(mesh, "h", 0)
    tiling_obj(mesh, "h", 0)
    json_report(tiling.to_json(), "h", 0)
    sets = list(tiling.tile_of.values()) + [tiling.region]
    assert all(s._boxes is None for s in sets)
