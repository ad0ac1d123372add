"""Rank of small matrices: exact elimination and the numerical cutoff.

Exact matrices are lists of row lists over int, Fraction or
GaussianRational entries.  Their rank comes from one fraction-free
(Bareiss) elimination over Python ints.  Float matrices go through their
singular values and one relative cutoff.
"""

from __future__ import annotations

import math

import numpy as np

from .scalars import exact_parts


def exact_rank(mat) -> int:
    """Rank over the Gaussian rationals.

    A matrix A + iB with B != 0 has half the rank of the real block matrix
    [[A, -B], [B, A]]; a row keeps its rank when it is scaled by the lcm of
    its denominators, which leaves integer rows.
    """
    rows = [common_denominator(row) for row in mat]
    if not any(any(im) for _, im, _ in rows):
        return _integer_rank([re for re, _, _ in rows])
    return _integer_rank([re + [-v for v in im] for re, im, _ in rows]
                         + [im + re for re, im, _ in rows]) // 2


def common_denominator(values):
    """Integer parts re, im and the lcm d of the denominators of exact
    values, with values = (re + i im) / d."""
    parts = [exact_parts(v) for v in values]
    den = math.lcm(*(d for _, _, d in parts))
    return [a * (den // d) for a, _, d in parts], [b * (den // d) for _, b, d in parts], den


def _integer_rank(rows) -> int:
    """Bareiss elimination: after k pivots every entry is a (k+1)-minor, so
    the division by the previous pivot is exact."""
    rank, prev = 0, 1
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        p = top[c]
        for i in range(rank + 1, len(rows)):
            row = rows[i]
            f = row[c]
            rows[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
        rank += 1
        if rank == len(rows):
            break
    return rank


def numerical_rank(svals, rtol: float):
    """Singular values (descending along the last axis) above ``rtol`` times
    the largest; 0 if none.  An int for one vector, an int array for a stack."""
    svals = np.asarray(svals)
    ranks = (svals > rtol * svals[..., :1]).sum(axis=-1)
    return ranks if svals.ndim > 1 else int(ranks)
