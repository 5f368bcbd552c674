"""File export: JSON, OFF/OBJ meshes, SVG and CSV, all with run headers.

Every file starts with (or embeds) the config hash and seed so that a rerun
with the same configuration is byte-identical and traceable.  JSON is
written by `dumps_indented`: the same bytes as `json.dumps` with an indent
of 2, ``sort_keys=True`` and ``default=repr``.
"""

from __future__ import annotations

import math
import os
from decimal import Decimal
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, List, Sequence

# Corner i of a box is (x[i & 1], y[i >> 1 & 1], z[i >> 2]); its six quads:
_QUADS = (
    (0, 1, 3, 2), (4, 6, 7, 5),  # bottom, top
    (0, 2, 6, 4), (1, 5, 7, 3),  # x faces
    (0, 4, 5, 1), (2, 3, 7, 6),  # y faces
)


def comment_header(config_hash: str, seed) -> List[str]:
    return [f"# config-hash: {config_hash}", f"# seed: {seed}"]


def _tiling_mesh(tiling, digits: int):
    """``(verts, faces)``: the corners and quad faces of every box of every
    tile, in tile order, read from the tiles' lattice ints.  Each distinct
    coordinate ``c / 2**e`` is formatted once, through `Decimal`."""
    verts: List[str] = []
    faces: List[tuple] = []
    text: Dict[tuple, str] = {}

    def fmt(c: int, e: int) -> str:
        s = text.get((c, e))
        if s is None:
            s = text[c, e] = f"{Decimal(c) / Decimal(1 << e):.{digits}f}"
        return s

    for key in sorted(tiling.tile_of, key=repr):
        tile = tiling.tile_of[key]
        e = tile.exp
        for (x0, x1), (y0, y1), (z0, z1) in tile.ints:
            xs = (fmt(x0, e), fmt(x1, e))
            ys = (fmt(y0, e), fmt(y1, e))
            n = len(verts)
            verts += [f"{x} {y} {z}" for z in (fmt(z0, e), fmt(z1, e))
                      for y in ys for x in xs]
            faces += [(n + a, n + b, n + c, n + d) for a, b, c, d in _QUADS]
    return verts, faces


def tiling_off(tiling, config_hash: str, seed, digits: int = 9,
               mesh=None) -> str:
    """ASCII OFF scene: one cuboid shell per box of every tile.  ``mesh``,
    when given, is ``_tiling_mesh(tiling, digits)`` built beforehand."""
    verts, faces = mesh or _tiling_mesh(tiling, digits)
    lines = ["OFF"]
    lines += comment_header(config_hash, seed)
    lines.append(f"{len(verts)} {len(faces)} 0")
    lines += verts
    lines += [f"4 {a} {b} {c} {d}" for a, b, c, d in faces]
    return "\n".join(lines) + "\n"


def tiling_obj(tiling, config_hash: str, seed, digits: int = 9,
               mesh=None) -> str:
    """Wavefront OBJ scene of the same mesh as `tiling_off`."""
    verts, faces = mesh or _tiling_mesh(tiling, digits)
    lines = comment_header(config_hash, seed)
    lines += [f"v {v}" for v in verts]
    # OBJ indices are 1-based
    lines += [f"f {a + 1} {b + 1} {c + 1} {d + 1}" for a, b, c, d in faces]
    return "\n".join(lines) + "\n"


def _int_text(n: int) -> str:
    """``repr(n)``, also past the interpreter's limit on the digits of an
    int-to-text conversion: a `Decimal` holds an int exactly and prints it
    without that limit, which stays in force for parsing outside input."""
    try:
        return int.__repr__(n)
    except ValueError:
        return str(Decimal(n))


def _scalar_text(o):
    """JSON text of None, a bool, an int or a float, as `json.dumps` writes
    it; None for a value of any other type."""
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return _int_text(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if math.isinf(o):
            return "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    return None


def dumps_indented(obj) -> str:
    """The text `json.dumps` gives ``obj`` with an indent of 2,
    ``sort_keys=True`` and ``default=repr``, without the pure-Python encoder
    that an indent forces.

    A list of plain ints (a ``[num, exp]`` pair, say) is rendered once per
    value and depth and reused.  Unlike ``json.dumps``, an int past the
    interpreter's digit limit for int-to-text conversion is written in full,
    and a circular container is not detected: it recurses until
    `RecursionError`.
    """
    parts: List[str] = []
    put = parts.append
    int_lists: Dict[tuple, str] = {}

    def value(o, depth: int) -> None:
        if isinstance(o, (list, tuple)):
            seq(o, depth)
        elif isinstance(o, dict):
            mapping(o, depth)
        elif isinstance(o, str):
            put(_quote(o))
        else:
            text = _scalar_text(o)
            put(_quote(repr(o)) if text is None else text)

    def seq(o, depth: int) -> None:
        if not o:
            put("[]")
            return
        for v in o:
            if type(v) is not int:
                break
        else:
            key = (tuple(o), depth)
            text = int_lists.get(key)
            if text is None:
                pad = "\n" + "  " * (depth + 1)
                text = int_lists[key] = (
                    "[" + pad + ("," + pad).join(map(_int_text, o))
                    + pad[:-2] + "]")
            put(text)
            return
        pad = "\n" + "  " * (depth + 1)  # pad[:-2] closes at depth
        put("[")
        sep = pad
        for v in o:
            put(sep)
            sep = "," + pad
            value(v, depth + 1)
        put(pad[:-2] + "]")

    def mapping(o, depth: int) -> None:
        if not o:
            put("{}")
            return
        pad = "\n" + "  " * (depth + 1)
        put("{")
        sep = pad
        for k, v in sorted(o.items()):
            if not isinstance(k, str):
                text = _scalar_text(k)
                if text is None:
                    raise TypeError(f"keys must be str, int, float, bool or "
                                    f"None, not {type(k).__name__}")
                k = text
            put(sep + _quote(k) + ": ")
            sep = "," + pad
            value(v, depth + 1)
        put(pad[:-2] + "}")

    value(obj, 0)
    return "".join(parts)


def json_report(payload: Dict, config_hash: str, seed) -> str:
    body = {"config_hash": config_hash, "seed": seed}
    body.update(payload)
    return dumps_indented(body) + "\n"


def csv_table(rows: Sequence[Sequence], header: Sequence[str],
              config_hash: str, seed) -> str:
    lines = comment_header(config_hash, seed)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


def svg_with_header(svg: str, config_hash: str, seed) -> str:
    comment = f"<!-- config-hash: {config_hash} seed: {seed} -->"
    if svg.startswith("<svg"):
        return comment + "\n" + svg + "\n"
    return comment + "\n" + svg


def write_file(out_dir: str, name: str, content: str) -> str:
    """Write atomically: a temp file in ``out_dir`` replaces ``name`` only
    once it is complete, so an interrupted write leaves no partial file."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    tmp = os.path.join(out_dir, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write failed before the replace
            os.remove(tmp)
    return path
