"""Exact linear algebra over Fraction or GaussianRational entries.

Matrices are lists of row lists.  Only small systems appear in this toolkit,
so plain Gaussian elimination with first-nonzero pivoting is enough.
"""

from __future__ import annotations


def _rref(mat):
    """Row-reduce a copy of ``mat``; returns (rows, pivot column list)."""
    rows = [list(r) for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def exact_rank(mat) -> int:
    if not mat or not mat[0]:
        return 0
    _, pivots = _rref(mat)
    return len(pivots)
