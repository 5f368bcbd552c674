"""Exact dyadic rational numbers.

A dyadic rational is ``num * 2**-exp`` with integer ``num`` and non-negative
integer ``exp``.  Values are kept normalized: ``exp`` is minimal, i.e. ``num``
is odd or ``(num, exp) == (0, 0)``.  Dyadics are closed under addition,
subtraction, multiplication and scaling by any power of two (``scale``,
``halve``); ``floor`` divides by a positive integer and rounds down, and
``pow2_floor`` is the largest power of two not above a positive value.
That is all the geometry needs; comparisons and hashing are exact.
``on_lattice`` puts dyadics on one lattice as ints, and ``pair`` gives the
normalized JSON form of a lattice int without building a `Dyadic`: the
BS(1,2) vertex keys are made that way.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Number = Union["Dyadic", int]


class Dyadic:
    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:
            num <<= -exp
            exp = 0
        if num == 0:
            exp = 0
        elif exp:
            # strip the trailing zero bits of num, at most exp of them
            tz = min((num & -num).bit_length() - 1, exp)
            num >>= tz
            exp -= tz
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, *a):
        raise AttributeError("Dyadic is immutable")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def coerce(x: Number) -> "Dyadic":
        if isinstance(x, Dyadic):
            return x
        if isinstance(x, int):
            return Dyadic(x, 0)
        raise TypeError(f"cannot coerce {type(x).__name__} to Dyadic")

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: Number) -> "Dyadic":
        o = Dyadic.coerce(other)
        e = max(self.exp, o.exp)
        return Dyadic((self.num << (e - self.exp)) + (o.num << (e - o.exp)), e)

    __radd__ = __add__

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp)

    def __sub__(self, other: Number) -> "Dyadic":
        return self + (-Dyadic.coerce(other))

    def __rsub__(self, other: Number) -> "Dyadic":
        return Dyadic.coerce(other) + (-self)

    def __mul__(self, other: Number) -> "Dyadic":
        o = Dyadic.coerce(other)
        return Dyadic(self.num * o.num, self.exp + o.exp)

    __rmul__ = __mul__

    def halve(self) -> "Dyadic":
        return Dyadic(self.num, self.exp + 1)

    def scale(self, k: int) -> "Dyadic":
        """``self * 2**k``; ``k`` may be negative."""
        return Dyadic(self.num, self.exp - k)

    def floor(self, d: int = 1) -> int:
        """``floor(self / d)`` for a positive int ``d``."""
        return self.num // (d << self.exp)

    def pow2_floor(self) -> "Dyadic":
        """The largest power of two ``<= self`` (``self > 0``)."""
        if self.num <= 0:
            raise ValueError(f"pow2_floor of non-positive {self}")
        return Dyadic(1, self.exp - self.num.bit_length() + 1)

    # -- comparison -----------------------------------------------------------

    def _cmp(self, other: Number) -> int:
        o = Dyadic.coerce(other)
        e = max(self.exp, o.exp)
        a = self.num << (e - self.exp)
        b = o.num << (e - o.exp)
        return (a > b) - (a < b)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Dyadic, int)):
            return NotImplemented
        return self._cmp(other) == 0

    def __lt__(self, other: Number) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: Number) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: Number) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: Number) -> bool:
        return self._cmp(other) >= 0

    def __hash__(self) -> int:
        return hash(Fraction(self.num, 1 << self.exp))

    # -- conversions ----------------------------------------------------------

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __float__(self) -> float:
        return self.num / (1 << self.exp)

    def as_pair(self) -> list:
        """JSON form ``[num, exp]``."""
        return [self.num, self.exp]

    def __repr__(self) -> str:
        if self.exp == 0:
            return f"Dyadic({self.num})"
        return f"Dyadic({self.num}, {self.exp})"

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/2^{self.exp}"


ZERO = Dyadic(0)
HALF = Dyadic(1, 1)


def on_lattice(xs, e: int = 0) -> tuple[int, list[int]]:
    """``(f, ints)``: ``f``, the least exponent ``>= e`` whose lattice holds
    every dyadic in ``xs``, and each ``x`` as the int ``x * 2**f``."""
    f = max([e] + [x.exp for x in xs])
    return f, [x.num << (f - x.exp) for x in xs]


def pair(num: int, exp: int) -> list:
    """``Dyadic(num, exp).as_pair()`` for ``exp >= 0``, without building one."""
    if num == 0:
        return [0, 0]
    tz = min((num & -num).bit_length() - 1, exp)
    return [num >> tz, exp - tz]
