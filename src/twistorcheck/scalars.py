"""Scalar arithmetic for the two numeric backends.

Float mode uses Python ``complex``/``float``; exact mode uses
``fractions.Fraction`` for reals and :class:`GaussianRational` for complex
values.  The helpers here dispatch on type so polynomial and linear-algebra
code can stay backend-agnostic.

One policy decides the backend: exact models keep exact coefficients,
numeric ops run on ``TwistorModel.float_view()`` with float inputs, and the
exact branch runs only where it certifies a fact (see :func:`certifies`).
"""

from __future__ import annotations

import math
from fractions import Fraction


class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, GaussianRational):
            if im != 0:
                raise TypeError("cannot combine GaussianRational with extra imaginary part")
            self.re, self.im = re.re, re.im
            return
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("GaussianRational does not accept floats; use exact input")
        self.re = Fraction(re)
        self.im = Fraction(im)

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational((self.re * o.re + self.im * o.im) / n,
                                (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, complex):
                return complex(self) == other
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"GR({self.re})"
        return f"GR({self.re}, {self.im})"


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction, GaussianRational))


def certifies(exact: bool, values) -> bool:
    """Whether the exact branch applies: an exact model and all-exact inputs."""
    return exact and all(is_exact(v) for v in values)


def conj_of(x):
    if isinstance(x, (GaussianRational, complex)):
        return x.conjugate()
    return x


def real_of(x):
    if isinstance(x, GaussianRational):
        return x.re
    if isinstance(x, complex):
        return x.real
    return x


def imag_of(x):
    if isinstance(x, GaussianRational):
        return x.im
    if isinstance(x, complex):
        return x.imag
    if isinstance(x, (int, Fraction)):
        return Fraction(0)
    return 0.0


def abs2(x):
    """Squared modulus; exact for exact inputs."""
    if isinstance(x, GaussianRational):
        return x.norm_sq()
    if isinstance(x, complex):
        return x.real * x.real + x.imag * x.imag
    return x * x


def make_complex(re, im, exact: bool):
    if exact:
        return GaussianRational(re, im)
    return complex(re, im)


def exact_sqrt(f: Fraction):
    """Square root of a nonnegative rational, or None if not a perfect square."""
    f = Fraction(f)
    if f < 0:
        return None
    if f == 0:
        return Fraction(0)
    ns = math.isqrt(f.numerator)
    ds = math.isqrt(f.denominator)
    if ns * ns == f.numerator and ds * ds == f.denominator:
        return Fraction(ns, ds)
    return None


def parse_exact_scalar(text: str) -> GaussianRational:
    """Parse strings like '3/4', '-i', '1/2+3/4i', '2-1/3i'."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    # split into real and imaginary summands at a top-level +/- (not at index 0)
    split_at = None
    for k in range(1, len(s)):
        if s[k] in "+-":
            split_at = k
    if split_at is not None and s.endswith(("i", "I", "j", "J")):
        re_part, im_part = s[:split_at], s[split_at:]
    elif s.endswith(("i", "I", "j", "J")):
        re_part, im_part = "", s
    else:
        re_part, im_part = s, ""
    re = Fraction(re_part) if re_part else Fraction(0)
    if im_part:
        body = im_part[:-1]
        if body in ("", "+"):
            im = Fraction(1)
        elif body == "-":
            im = Fraction(-1)
        else:
            im = Fraction(body)
    else:
        im = Fraction(0)
    return GaussianRational(re, im)
