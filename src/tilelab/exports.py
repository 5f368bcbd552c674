"""File export: JSON, OFF/OBJ meshes, SVG and CSV, all with run headers.

Every file starts with (or embeds) the config hash and seed so that a rerun
with the same configuration is byte-identical and traceable.  JSON is
written by `dumps_indented`: the same bytes as `json.dumps` with an indent
of 2, ``sort_keys=True`` and ``default=repr``; a `BoxSet` is written from its
lattice ints.  OFF and OBJ fill one template per box of a mesh.
"""

from __future__ import annotations

import math
import os
from decimal import Decimal
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, List, Sequence

from .boxes import BoxSet
from .dyadic import pair


def comment_header(config_hash: str, seed) -> List[str]:
    return [f"# config-hash: {config_hash}", f"# seed: {seed}"]


def _tiling_mesh(tiling, digits: int) -> List[tuple]:
    """The texts ``(x0, x1, y0, y1, z0, z1)`` of the coordinates of every box
    of every tile, in tile order, read from the tiles' lattice ints.  Each
    distinct coordinate ``c / 2**e`` is formatted once, through `Decimal`."""
    boxes: List[tuple] = []
    texts: Dict[int, Dict[int, str]] = {}  # exponent -> int -> text
    for key in sorted(tiling.tile_of, key=repr):
        tile = tiling.tile_of[key]
        e, t = tile.exp, texts.setdefault(tile.exp, {})
        for c in {c for b in tile.ints for iv in b for c in iv} - t.keys():
            t[c] = f"{Decimal(c) / Decimal(1 << e):.{digits}f}"
        boxes += [(t[x0], t[x1], t[y0], t[y1], t[z0], t[z1])
                  for (x0, x1), (y0, y1), (z0, z1) in tile.ints]
    return boxes


def _mesh_text(header: List[str], boxes: List[tuple], v: str, q: str,
               first: int) -> str:
    """``header``, then the 8 vertex lines of every box, then the 6 quad
    lines of every box; vertex lines start with ``v``, quad lines with ``q``,
    and the corners of box k are numbered from ``first + 8 * k``."""
    lines = ["".join(h + "\n" for h in header)]
    # corner i is (x[i & 1], y[i >> 1 & 1], z[i >> 2]); the quads are
    # bottom, top, the two x faces and the two y faces
    lines += [f"{v}{x0} {y0} {z0}\n{v}{x1} {y0} {z0}\n{v}{x0} {y1} {z0}\n"
              f"{v}{x1} {y1} {z0}\n{v}{x0} {y0} {z1}\n{v}{x1} {y0} {z1}\n"
              f"{v}{x0} {y1} {z1}\n{v}{x1} {y1} {z1}\n"
              for x0, x1, y0, y1, z0, z1 in boxes]
    ids = iter(map(str, range(first, first + 8 * len(boxes))))
    lines += [f"{q}{c0} {c1} {c3} {c2}\n{q}{c4} {c6} {c7} {c5}\n"
              f"{q}{c0} {c2} {c6} {c4}\n{q}{c1} {c5} {c7} {c3}\n"
              f"{q}{c0} {c4} {c5} {c1}\n{q}{c2} {c3} {c7} {c6}\n"
              for c0, c1, c2, c3, c4, c5, c6, c7 in zip(*[ids] * 8)]
    return "".join(lines)


def tiling_off(tiling, config_hash: str, seed, digits: int = 9,
               mesh=None) -> str:
    """ASCII OFF scene: one cuboid shell per box of every tile.  ``mesh``,
    when given, is ``_tiling_mesh(tiling, digits)`` built beforehand."""
    boxes = _tiling_mesh(tiling, digits) if mesh is None else mesh
    header = ["OFF", *comment_header(config_hash, seed),
              f"{8 * len(boxes)} {6 * len(boxes)} 0"]
    return _mesh_text(header, boxes, "", "4 ", 0)


def tiling_obj(tiling, config_hash: str, seed, digits: int = 9,
               mesh=None) -> str:
    """Wavefront OBJ scene of the same mesh as `tiling_off`."""
    boxes = _tiling_mesh(tiling, digits) if mesh is None else mesh
    # OBJ indices are 1-based
    return _mesh_text(comment_header(config_hash, seed), boxes, "v ", "f ", 1)


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


def _boxset_text(s: BoxSet, depth: int) -> str:
    """JSON text at ``depth`` of the boxes of ``s``, ``[[num, exp], [num,
    exp]]`` per axis: each distinct coordinate's text once, each box one join."""
    if not s.ints:
        return "[]"
    p1, p2, p3, p4 = ["\n" + "  " * (depth + k) for k in range(1, 5)]
    text = {}
    for c in {c for b in s.ints for iv in b for c in iv}:
        num, exp = pair(c, s.exp)
        text[c] = f"[{p4}{_int_text(num)},{p4}{exp}{p3}]"
    axes = f"{p2}],{p2}[{p3}"
    return (f"[{p1}[{p2}[{p3}" + f"{p2}]{p1}],{p1}[{p2}[{p3}".join(
        [axes.join([f"{text[lo]},{p3}{text[hi]}" for lo, hi in b])
         for b in s.ints]) + f"{p2}]{p1}]{p1[:-2]}]")


def dumps_indented(obj) -> str:
    """The text `json.dumps` gives ``obj`` with an indent of 2,
    ``sort_keys=True`` and ``default=repr``, without the pure-Python encoder
    that an indent forces.

    A `BoxSet` is written as the list of its boxes, each a ``[[num, exp],
    [num, exp]]`` pair per axis.  A list of plain ints is rendered once per
    value and depth and reused.  Unlike ``json.dumps``, an int past the
    interpreter's digit limit for int-to-text conversion is written in full,
    and a circular container is not detected: it recurses until
    `RecursionError`.
    """
    return "".join(_json_parts(obj))


def _json_parts(obj) -> List[str]:
    """The pieces of ``dumps_indented(obj)``, not yet joined."""
    parts: List[str] = []
    put = parts.append
    int_lists: Dict[tuple, str] = {}

    def value(o, depth: int) -> None:
        if isinstance(o, (list, tuple)):
            seq(o, depth)
        elif isinstance(o, dict):
            mapping(o, depth)
        elif isinstance(o, BoxSet):
            put(_boxset_text(o, depth))
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
    return parts


def json_report(payload: Dict, config_hash: str, seed) -> str:
    body = {"config_hash": config_hash, "seed": seed}
    body.update(payload)
    parts = _json_parts(body)
    parts.append("\n")
    return "".join(parts)


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
