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
    den = math.lcm(*[d for _, _, d in parts])
    re, im = [], []
    for a, b, d in parts:
        scale = den // d
        re.append(a * scale)
        im.append(b * scale)
    return re, im, den


def _integer_rank(rows) -> int:
    """Bareiss elimination: after k pivots every entry is a (k+1)-minor, so
    the division by the previous pivot is exact.  Each pivot row leaves the
    list, the others keep only the columns right of the pivot, and a row
    that has become zero (a combination of the pivot rows) is dropped; the
    rows given are not changed."""
    rank, prev, start = 0, 1, 0  # the rows hold the columns from start on
    rows = [row for row in rows if any(row)]
    for c in range(len(rows[0]) if rows else 0):
        j = c - start
        for k, row in enumerate(rows):
            if row[j]:
                break
        else:
            continue
        top = rows.pop(k)
        p, tail = top[j], top[j + 1:]
        rest = []
        for row in rows:
            f = row[j]
            new = [(p * a - f * b) // prev for a, b in zip(row[j + 1:], tail)]
            if any(new):
                rest.append(new)
        rows, prev, start = rest, p, c + 1
        rank += 1
        if not rows:
            break
    return rank


def numerical_rank(svals, rtol: float):
    """Singular values (descending along the last axis) above ``rtol`` times
    the largest; 0 if none.  An int for one vector, an int array for a stack."""
    svals = np.asarray(svals)
    ranks = (svals > rtol * svals[..., :1]).sum(axis=-1)
    return ranks if svals.ndim > 1 else int(ranks)
