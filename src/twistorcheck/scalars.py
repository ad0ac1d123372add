"""Scalar arithmetic for the two numeric backends.

Float mode uses Python ``complex``/``float``; exact mode uses
``fractions.Fraction`` for reals and :class:`GaussianRational` for complex
values.  Every scalar the package handles, numpy's included, answers
``.real``, ``.imag`` and ``.conjugate()``, so polynomial and linear-algebra
code reads parts and conjugates without asking for the type.

One policy decides the backend: exact models keep exact coefficients,
numeric ops run on ``TwistorModel.float_view()`` with float inputs, and the
exact branch runs only where it certifies a fact (see :func:`certifies`).
"""

from __future__ import annotations

import math
from fractions import Fraction


class GaussianRational:
    """Complex number with exact rational real and imaginary parts.

    The value is (a + b i) / d for Python ints with d > 0 and
    gcd(a, b, d) == 1, so equal values have equal fields.  Arithmetic works
    on these integers and normalises each result with one ``math.gcd``;
    ``.re`` and ``.im`` (also ``.real`` and ``.imag``) are ``Fraction``s
    built when read.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction)):
            p, q, r, s = re.numerator, re.denominator, im.numerator, im.denominator
        elif isinstance(re, GaussianRational):
            if im != 0:
                raise TypeError("cannot combine GaussianRational with extra imaginary part")
            self._a, self._b, self._d = re._a, re._b, re._d
            return
        elif isinstance(re, float) or isinstance(im, float):
            raise TypeError("GaussianRational does not accept floats; use exact input")
        else:
            re, im = Fraction(re), Fraction(im)
            p, q, r, s = re.numerator, re.denominator, im.numerator, im.denominator
        if q != s:  # both in lowest terms, so over the lcm gcd(a, b, d) stays 1
            d = q // math.gcd(q, s) * s
            p, r, q = p * (d // q), r * (d // s), d
        self._a, self._b, self._d = p, r, q

    def __add__(self, other):
        d = self._d
        if isinstance(other, GaussianRational):
            e = other._d
            if d == e:
                return _gr(self._a + other._a, self._b + other._b, d)
            return _gr(self._a * e + other._a * d, self._b * e + other._b * d, d * e)
        if isinstance(other, int):  # gcd(a + n d, b, d) = gcd(a, b, d) = 1
            return _raw(self._a + other * d, self._b, d)
        if isinstance(other, Fraction):
            q = other.denominator
            return _gr(self._a * q + other.numerator * d, self._b * q, d * q)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (GaussianRational, int, Fraction)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            a, b, c, e = self._a, self._b, other._a, other._b
            return _gr(a * c - b * e, a * e + b * c, self._d * other._d)
        if isinstance(other, int):
            return _gr(self._a * other, self._b * other, self._d)
        if isinstance(other, Fraction):
            p = other.numerator
            return _gr(self._a * p, self._b * p, self._d * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            c, e, f = other._a, other._b, other._d
        elif isinstance(other, (int, Fraction)):
            c, e, f = other.numerator, 0, other.denominator
        else:
            return NotImplemented
        if not e:  # a real divisor: keep the denominator positive
            if not c:
                raise ZeroDivisionError("division by zero GaussianRational")
            if c < 0:
                c, f = -c, -f
            return _gr(self._a * f, self._b * f, self._d * c)
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        a, b = self._a * f, self._b * f
        return _gr(a * c + b * e, b * c - a * e, self._d * (c * c + e * e))

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return _raw(other.numerator, 0, other.denominator) / self
        return NotImplemented

    def __neg__(self):
        return _raw(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    real = re
    imag = im

    def conjugate(self):
        return _raw(self._a, -self._b, self._d)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (not self._b and self._a == other.numerator
                    and self._d == other.denominator)
        if isinstance(other, complex):
            return complex(self) == other
        return NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        if not self._b:  # a real value hashes as its Fraction
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return bool(self._a or self._b)

    def __complex__(self):
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        if not self._b:
            return f"GR({self.re})"
        return f"GR({self.re}, {self.im})"


def _raw(a: int, b: int, d: int) -> GaussianRational:
    """(a + bi) / d from fields already in lowest terms with d > 0; no checks."""
    z = object.__new__(GaussianRational)
    z._a, z._b, z._d = a, b, d
    return z


def _gr(a: int, b: int, d: int) -> GaussianRational:
    """(a + bi) / d brought to lowest terms, for d > 0."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _raw(a, b, d)


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction, GaussianRational))


def exact_parts(x):
    """Integers (a, b, d) with x = (a + b i) / d and d > 0, for an exact x."""
    if isinstance(x, GaussianRational):
        return x._a, x._b, x._d
    return x.numerator, 0, x.denominator


def certifies(exact: bool, values) -> bool:
    """Whether the exact branch applies: an exact model and all-exact inputs."""
    return exact and all(is_exact(v) for v in values)


def negligible(x, tol: float = 0.0) -> bool:
    """Whether x counts as zero: exactly for exact values, within tol otherwise."""
    return x == 0 or (not is_exact(x) and abs(x) <= tol)


def abs2(x):
    """Squared modulus; exact for exact inputs."""
    return x.real * x.real + x.imag * x.imag


def make_complex(re, im, exact: bool):
    if exact:
        return GaussianRational(re, im)
    return complex(re, im)


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
