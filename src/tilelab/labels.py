"""Deterministic i.i.d.-style uniform labels keyed by seed and vertex id.

Each vertex gets a 64-bit binary fraction in [0, 1), derived from a keyed
cryptographic hash of the vertex identifier, so labels are reproducible,
exchangeable across machines, and independent across vertices for all
practical purposes.  A label stream can be split into k substreams by digit
interleaving: substream j takes bits j, j+k, j+2k, ... of the fraction.  The
split is lossless -- the original label is reconstructible from its parts.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

LABEL_BITS = 64


class _Stream:
    """A label stream: ``_bits_of`` maps the encoding of a vertex id to its
    ``nbits``-bit label; the rest is derived from it."""

    nbits = LABEL_BITS

    def bits(self, vertex) -> int:
        """Integer label of a vertex, ``nbits`` bits wide."""
        return self._bits_of(_encode_vertex(vertex))

    def label(self, vertex) -> Fraction:
        """Uniform label in [0, 1) with ``nbits`` binary digits."""
        return Fraction(self.bits(vertex), 1 << self.nbits)

    def float_label(self, vertex) -> float:
        return self.bits(vertex) / float(1 << self.nbits)

    def choose_min(self, vertices):
        """The vertex of minimal label; ties are impossible in practice but
        broken by the encoded id for full determinism.  Each vertex is
        encoded once, for its label and its tie-break."""
        def key(v):
            code = _encode_vertex(v)
            return self._bits_of(code), code
        return min(vertices, key=key)


class LabelSource(_Stream):
    """Keyed map from hashable vertex ids to uniform 64-bit fractions."""

    def __init__(self, seed: int, salt: str = ""):
        self.seed = int(seed)
        self.salt = salt
        self._key = hashlib.blake2b(
            f"{self.seed}:{self.salt}".encode(), digest_size=16
        ).digest()

    def _bits_of(self, data: bytes) -> int:
        h = hashlib.blake2b(data, key=self._key, digest_size=8).digest()
        return int.from_bytes(h, "big")

    def split(self, k: int) -> list["SubStream"]:
        """k substreams by bit interleaving; together they determine label()."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return [SubStream(self, k, j) for j in range(k)]


class SubStream(_Stream):
    """Every-k-th-bit substream of a LabelSource."""

    def __init__(self, source: LabelSource, k: int, offset: int):
        self.source = source
        self.k = k
        self.offset = offset
        self.nbits = len(range(offset, LABEL_BITS, k))

    def _bits_of(self, data: bytes) -> int:
        raw = self.source._bits_of(data)
        out = 0
        # bit 0 of the fraction is the most significant bit of raw
        for pos in range(self.offset, LABEL_BITS, self.k):
            out = (out << 1) | ((raw >> (LABEL_BITS - 1 - pos)) & 1)
        return out


def _encode_vertex(vertex) -> bytes:
    """Stable byte encoding of a vertex id (ints, strings, nested tuples)."""
    return json.dumps(_plain(vertex), separators=(",", ":")).encode()


def _plain(v):
    if isinstance(v, (int, str, float, bool)) or v is None:
        return v
    if isinstance(v, (tuple, list)):
        return [_plain(x) for x in v]
    raise TypeError(f"unsupported vertex id type: {type(v)!r}")
