"""Gaussian rational scalars: exact complex numbers a + b*i with a, b rational.

All structure constants, metric entries and matrix computations that produce
ranks or dimensions run over this field, so integer outputs never depend on a
floating-point tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

_RatLike = Union[int, Fraction]


class QQi:
    """An element of Q(i), stored as reduced real and imaginary Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re: _RatLike = 0, im: _RatLike = 0):
        # a Fraction is immutable and already reduced: keep it as it is
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QQi is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(x) -> "QQi":
        if isinstance(x, QQi):
            return x
        if isinstance(x, (int, Fraction)):
            return QQi(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to QQi")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "QQi":
        other = QQi.of(other)
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "QQi":
        other = QQi.of(other)
        return QQi(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "QQi":
        return QQi(-self.re, -self.im)

    def __mul__(self, other) -> "QQi":
        other = QQi.of(other)
        return QQi(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QQi":
        other = QQi.of(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return QQi(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def conj(self) -> "QQi":
        return QQi(self.re, -self.im)

    # -- predicates & conversions ---------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QQi(other)
        if not isinstance(other, QQi):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- rendering -------------------------------------------------------

    def __repr__(self):
        return f"QQi({self.re!s}, {self.im!s})"

    def __str__(self):
        return render_coeff(self)


ZERO = QQi(0)
ONE = QQi(1)
I = QQi(0, 1)


def render_coeff(c: QQi) -> str:
    """Canonical text form: `a`, `a/b`, `i`, `-i`, `3i`, or `(a/b + c/d i)`."""
    if c.im == 0:
        return str(c.re)
    if c.re == 0:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return f"{c.im}i"
    sign = "+" if c.im > 0 else "-"
    im_abs = abs(c.im)
    im_part = "i" if im_abs == 1 else f"{im_abs}i"
    return f"({c.re} {sign} {im_part})"
