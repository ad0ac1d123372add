"""Exact rank against sympy, on matrices of known rank over Q and Q(i)."""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from twistorcheck.exactla import exact_rank
from twistorcheck.scalars import GaussianRational as GR

_rational = st.fractions(min_value=-5, max_value=5, max_denominator=7)
_gaussian = st.builds(GR, _rational, _rational)


@st.composite
def _low_rank(draw, entries):
    """A product of an m x r and an r x n matrix, then some rows and columns zeroed."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    r = draw(st.integers(0, min(m, n)))
    left = [[draw(entries) for _ in range(r)] for _ in range(m)]
    right = [[draw(entries) for _ in range(n)] for _ in range(r)]
    mat = [[sum((left[i][k] * right[k][j] for k in range(r)), Fraction(0))
            for j in range(n)] for i in range(m)]
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        for row in mat:
            row[j] = 0
    for i in draw(st.sets(st.integers(0, m - 1), max_size=m)):
        mat[i] = [0] * n
    return mat


def _sympy(v):
    if isinstance(v, GR):
        return _sympy(v.re) + sympy.I * _sympy(v.im)
    return sympy.Rational(v.numerator, v.denominator)


def _sympy_rank(mat) -> int:
    return sympy.Matrix([[_sympy(v) for v in row] for row in mat]).rank()


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(mat=_low_rank(_rational))
def test_rational_rank_matches_sympy(mat):
    assert exact_rank(mat) == _sympy_rank(mat)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(mat=_low_rank(_gaussian))
def test_gaussian_rank_matches_sympy(mat):
    assert exact_rank(mat) == _sympy_rank(mat)


def test_empty_matrices_have_rank_zero():
    assert exact_rank([]) == 0
    assert exact_rank([[]]) == 0


def test_complex_rank_is_not_the_rank_of_a_part():
    # the second row is i times the first; the real part alone has rank 2
    assert exact_rank([[GR(1), GR(0, 1)], [GR(0, 1), GR(-1)]]) == 1
    assert exact_rank([[GR(1), GR(0, 1)], [GR(0, 1), GR(1)]]) == 2
