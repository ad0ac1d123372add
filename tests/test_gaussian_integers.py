"""GaussianRational against the Fraction-pair formulas it replaces.

The class stores (a + bi) / d in integers.  The oracle here keeps each value
as a pair of Fractions and applies the textbook formulas, so every result,
comparison, hash, truth value, complex() and repr is checked against an
independent route.
"""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistorcheck.scalars import GaussianRational as GR

_small = st.fractions(min_value=-60, max_value=60, max_denominator=40)
_large = st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**12))
_real = st.one_of(st.integers(-60, 60), _small, _large)
_gaussian = st.tuples(_real, _real).map(
    lambda p: (GR(*p), (Fraction(p[0]), Fraction(p[1]))))
# an operand: (value, oracle pair); ints and Fractions are real
_operand = st.one_of(_real.map(lambda x: (x, (Fraction(x), Fraction(0)))), _gaussian)


def _add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def _mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n


_OPS = [(operator.add, _add), (operator.sub, _sub), (operator.mul, _mul),
        (operator.truediv, _div)]


def _matches(z, pair):
    """z is a GaussianRational in lowest terms whose parts are the pair."""
    a, b, d = z._a, z._b, z._d
    assert type(z) is GR
    assert d > 0 and math.gcd(a, b, d) == 1
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (z.real, z.imag) == pair
    return True


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(x=_gaussian, y=_operand, flip=st.booleans())
def test_arithmetic_matches_the_fraction_pair_formulas(x, y, flip):
    (left, lpair), (right, rpair) = (y, x) if flip else (x, y)
    for op, oracle in _OPS:
        if op is operator.truediv and rpair == (0, 0):
            with pytest.raises(ZeroDivisionError):
                op(left, right)
            continue
        assert _matches(op(left, right), oracle(lpair, rpair))
    z, (re, im) = x
    assert _matches(-z, (-re, -im))
    assert _matches(+z, (re, im))
    assert _matches(z.conjugate(), (re, -im))
    assert _matches(GR(z), (re, im))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(x=_gaussian, k=st.integers(-30, 30).filter(bool),
       q=_small.filter(bool))
def test_equal_values_built_by_different_routes(x, k, q):
    z, (re, im) = x
    routes = [z, GR(re, im), GR(re * k, im * k) / k, GR(re) + GR(0, im),
              GR(re * q, im * q) * (1 / q), (z * q) / q, GR(0, 1) * GR(im, -re),
              z + k - k, (z - q) + q, GR(z.re, z.im), z.conjugate().conjugate()]
    for w in routes:
        assert w == z and z == w and not w != z
        assert hash(w) == hash(z)
    assert (z == re) == (im == 0) == (re == z)
    if im == 0:
        assert hash(z) == hash(re)
        if re.denominator == 1:
            assert z == int(re) and int(re) == z and hash(z) == hash(int(re))
    assert z != z + GR(0, 1) and z != z + Fraction(1, 7)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(x=_gaussian)
def test_truth_complex_and_repr_match_the_pair(x):
    z, (re, im) = x
    assert bool(z) == (re != 0 or im != 0)
    assert complex(z) == complex(float(re), float(im))
    assert repr(z) == (f"GR({re})" if im == 0 else f"GR({re}, {im})")


def test_constructor_reads_exact_inputs_and_rejects_floats():
    assert _matches(GR(Fraction(1, 6), Fraction(3, 4)), (Fraction(1, 6), Fraction(3, 4)))
    assert _matches(GR("1/2", "-3/9"), (Fraction(1, 2), Fraction(-1, 3)))
    assert _matches(GR(True), (Fraction(1), Fraction(0)))
    assert _matches(GR(), (Fraction(0), Fraction(0)))
    assert GR(1, 2) / 2 == GR(Fraction(1, 2), 1)
    assert GR(1, 2) == 1 + 2j and GR(1, 2) != 1 + 3j
    for bad in ((0.5,), (0, 0.5), (GR(1), 1)):
        with pytest.raises(TypeError):
            GR(*bad)
    with pytest.raises(TypeError):
        GR(1j)
