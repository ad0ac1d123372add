"""Exact rank against sympy, on matrices of known rank over Q and Q(i);
the numerical rank of a stack against each of its rows."""

from fractions import Fraction

import numpy as np
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from twistorcheck.exactla import exact_rank, numerical_rank
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


def test_numerical_rank_of_a_stack_equals_each_row():
    # stacks of products of known rank, with zero matrices (all-zero rows of
    # singular values) and empty last axes; an int for a vector, an int array
    # of the stack's shape otherwise
    rng = np.random.default_rng(20240812)
    for k, m, n in [(8, 4, 4), (6, 3, 7), (5, 8, 2), (3, 1, 1), (0, 3, 3), (4, 3, 0)]:
        ranks = rng.integers(0, min(m, n) + 1, size=k)
        ranks[:1] = 0
        mats = np.array([rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
                         for r in ranks]).reshape(k, m, n)
        svals = np.linalg.svd(mats, compute_uv=False)
        for rtol in (1e-7, 1e-12):
            stacked = numerical_rank(svals, rtol)
            alone = [numerical_rank(sv, rtol) for sv in svals]
            assert isinstance(stacked, np.ndarray) and stacked.shape == (k,)
            assert all(type(r) is int for r in alone)
            assert stacked.tolist() == alone == ranks.tolist()
            if k:
                nested = numerical_rank(svals.reshape(1, k, -1), rtol)
                assert nested.shape == (1, k) and nested[0].tolist() == alone
    assert numerical_rank([], 1e-7) == 0
    assert numerical_rank(np.zeros(3), 1e-7) == 0
    assert numerical_rank(np.zeros((2, 0)), 1e-7).tolist() == [0, 0]
