"""GaussianRational: exact parts, hashing and equality with rationals."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistorcheck.scalars import GaussianRational as GR

_rational = st.fractions(min_value=-9, max_value=9, max_denominator=12)
_real = st.one_of(st.integers(-9, 9), _rational)
_gaussian = st.builds(GR, _real, _real)


def _parts_are_fractions(z):
    return type(z) is GR and isinstance(z.re, Fraction) and isinstance(z.im, Fraction)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(a=_gaussian, b=_gaussian, q=_real)
def test_arithmetic_keeps_fraction_parts(a, b, q):
    results = [a + b, a - b, a * b, -a, a.conjugate(),
               a + q, q + a, a - q, q - a, a * q, q * a]
    if b:
        results.append(a / b)
    if q:
        results.append(a / q)
    if a:
        results.append(q / a)
    assert all(_parts_are_fractions(z) for z in results)
    assert a * b == GR(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)
    for z in (a, b):
        assert (z.real, z.imag) == (z.re, z.im)
        assert complex(z.real, z.imag) == complex(z)
        assert complex(z.conjugate()) == complex(z).conjugate()
    if b:
        assert (a / b) * b == a


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(q=_real)
def test_a_real_value_hashes_and_compares_as_its_rational(q):
    assert hash(GR(q)) == hash(q)
    assert GR(q) == q and q == GR(q)
    assert not GR(q) != q
    assert GR(q, 1) != q


def test_zero_and_truth():
    assert GR(0) == 0
    assert GR(0, 1) != 0
    assert not GR(0, 1) == 0
    assert not bool(GR(0, 0))
    assert bool(GR(0, 1)) and bool(GR(1, 0))


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        GR(0.5)
    with pytest.raises(TypeError):
        GR(0, 0.5)
