"""Deterministic i.i.d.-style uniform labels keyed by seed and vertex id.

Each vertex gets a 64-bit binary fraction in [0, 1), derived from a keyed
cryptographic hash of the vertex identifier, so labels are reproducible,
exchangeable across machines, and independent across vertices for all
practical purposes.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

LABEL_BITS = 64


class LabelSource:
    """Keyed map from hashable vertex ids to uniform 64-bit fractions:
    ``_bits_of`` maps the encoding of a vertex id to its label; the rest is
    derived from it."""

    def __init__(self, seed: int, salt: str = ""):
        self.seed = int(seed)
        self.salt = salt
        self._key = hashlib.blake2b(
            f"{self.seed}:{self.salt}".encode(), digest_size=16
        ).digest()

    def _bits_of(self, data: bytes) -> int:
        h = hashlib.blake2b(data, key=self._key, digest_size=8).digest()
        return int.from_bytes(h, "big")

    def bits(self, vertex) -> int:
        """Integer label of a vertex, ``LABEL_BITS`` bits wide."""
        return self._bits_of(_encode_vertex(vertex))

    def label(self, vertex) -> Fraction:
        """Uniform label in [0, 1) with ``LABEL_BITS`` binary digits."""
        return Fraction(self.bits(vertex), 1 << LABEL_BITS)

    def choose_min(self, vertices):
        """The vertex of minimal label; ties are impossible in practice but
        broken by the encoded id for full determinism.  Each vertex is
        encoded once, for its label and its tie-break."""
        def key(v):
            code = _encode_vertex(v)
            return self._bits_of(code), code
        return min(vertices, key=key)


def _encode_vertex(vertex) -> bytes:
    """Stable byte encoding of a vertex id (ints, strings, nested tuples)."""
    return json.dumps(_plain(vertex), separators=(",", ":")).encode()


def _plain(v):
    if isinstance(v, (int, str, float, bool)) or v is None:
        return v
    if isinstance(v, (tuple, list)):
        return [_plain(x) for x in v]
    raise TypeError(f"unsupported vertex id type: {type(v)!r}")
