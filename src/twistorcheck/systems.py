"""Real polynomial systems induced on section parameters.

Substituting the generic real section into a fiber equation of twist d and
expanding over the base gives d+1 coefficient conditions; conjugate symmetry
makes the top half redundant, so only the low coefficients (plus one real
scalar from the middle when d is even) are formed and emitted.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations_with_replacement, permutations

import numpy as np

from .errors import DimensionError, ModelError
from .exactla import _integer_rank, common_denominator, numerical_rank
from .mpoly import MPoly
from .models import TwistorModel
from .scalars import certifies, exact_parts, negligible


@dataclass
class MembershipReport:
    passed: bool
    residuals: list
    max_residual: float
    scaled_tol: float
    labels: list


class RealEquationSystem:
    """List of real polynomial equations with an analytic Jacobian.

    Residuals and Jacobian entries, row major, are two coefficient blocks,
    each over the monomials it uses.  Exact inputs to an exact system, which
    certify facts, are evaluated in integers over common denominators; every
    other input in floats, where a point or a stacked ``(S, n)`` array of
    points goes through one gather of monomial factors and one matrix
    product.
    """

    def __init__(self, nvars, residuals, labels, exact):
        self.nvars = nvars
        self.labels = list(labels)
        self.exact = exact
        self._res = residuals
        self._jac = residuals.jacobian()

    def __len__(self):
        return len(self.labels)

    @property
    def fiber_rows(self) -> list:
        """Indices of the rows of the fiber equations; the others come from
        component equations (labels ``<model>.eq<i>[z^<m>].<part>`` and
        ``<model>.component<i>.<part>``, written by real_section_system)."""
        return [i for i, label in enumerate(self.labels)
                if label.rsplit(".", 2)[1].startswith("eq")]

    @cached_property
    def equations(self) -> list:
        """The residuals as MPolys, with Fraction coefficients when exact."""
        res, exps = self._res, [tuple(e) for e in self._res.exps.tolist()]
        coeff = (lambda c: Fraction(c, res.den)) if self.exact else float
        return [MPoly(self.nvars, {exps[m]: coeff(c) for m, c in col})
                for col in res.columns]

    def _certifies(self, p) -> bool:
        """Whether p takes the exact path; arrays of numbers and stacked
        arrays of points never do."""
        if isinstance(p, np.ndarray) and (p.dtype != object or p.ndim != 1):
            return False
        if len(p) != self.nvars:
            raise DimensionError(
                f"expected {self.nvars} parameters, got {len(p)}")
        return certifies(self.exact, p)

    def _float_values(self, x: np.ndarray, block: "_Block") -> np.ndarray:
        """The block's columns at each row of ``x``: each monomial is the
        product of its factors, gathered from x with a column of ones
        appended (see _Block.gather)."""
        ones = np.ones(x.shape[:-1] + (1,))
        mono = np.concatenate([x, ones], axis=-1)[..., block.gather].prod(axis=-1)
        # einsum sums each row in a fixed order, so rows never interact
        return np.einsum("...m,me->...e", mono, block.matrix)

    def _integer_values(self, p, block: "_Block"):
        """The block's columns at the exact point p, as integer numerators
        over one positive denominator."""
        num, im, den = common_denominator(p)
        if any(im):
            raise ModelError("section parameters are real")
        # every monomial is brought to the top degree, so one denominator serves all
        powers = [den ** k for k in range(block.degree + 1)]
        mono = [math.prod([num[i] for i in f]) * powers[block.degree - len(f)]
                for f in block.factors]
        return ([sum([c * mono[m] for m, c in col]) for col in block.columns],
                block.den * powers[-1])

    def residuals(self, p):
        """Residuals at p: exact values when certified, else a float array
        (one row per point of a stacked input)."""
        if self._certifies(p):
            nums, den = self._integer_values(p, self._res)
            return [Fraction(n, den) for n in nums]
        return self._float_values(self._float_points(p), self._res)

    def jacobian_at(self, p):
        """Jacobian at p: exact rows when certified, else a float array of
        shape (len, nvars), or (S, len, nvars) for a stacked input."""
        if self._certifies(p):
            rows, den = self._integer_jacobian(p)
            return [[Fraction(n, den) for n in row] for row in rows]
        x = self._float_points(p)
        flat = self._float_values(x, self._jac)
        return flat.reshape(x.shape[:-1] + (len(self), self.nvars))

    def _integer_jacobian(self, p):
        flat, den = self._integer_values(p, self._jac)
        return [flat[k:k + self.nvars] for k in range(0, len(flat), self.nvars)], den

    def _float_points(self, p) -> np.ndarray:
        x = np.asarray(p)
        if x.dtype == object:  # mixed scalars: exact ones beside complex ones
            x = np.array([complex(v) for v in x.flat]).reshape(x.shape)
            x = x if x.imag.any() else x.real
        if x.dtype.kind == "c":
            raise ModelError("section parameters are real")
        x = np.asarray(x, dtype=float)
        if x.shape == (0,):  # an empty list of points
            x = x.reshape(0, self.nvars)
        if x.ndim not in (1, 2) or x.shape[-1] != self.nvars:
            raise DimensionError(
                f"expected {self.nvars} parameters, got shape {x.shape}")
        return x

    def _float_margins(self, x: np.ndarray, tol: float):
        """Residuals, their largest magnitude and the scaled tolerance per point."""
        res = self.residuals(x)
        return (res, np.abs(res).max(axis=-1, initial=0.0),
                tol * (1.0 + (x * x).sum(axis=-1)))

    def members(self, points, tol: float = 1e-9) -> np.ndarray:
        """Float membership of each point of a list or stacked array, as a mask."""
        x = self._float_points(points)
        _, mx, scale = self._float_margins(x, tol)
        return mx <= scale

    def membership(self, p, tol: float = 1e-9) -> MembershipReport:
        """Membership of one point: exact when certified, decided on the
        integer numerators of its residuals; else within the scaled tolerance."""
        if self._certifies(p):
            nums, den = self._integer_values(p, self._res)
            mx = max(map(abs, nums), default=0) / den
            return MembershipReport(not any(nums), [Fraction(n, den) for n in nums],
                                    mx, 0.0, list(self.labels))
        x = self._float_points(p)
        if x.ndim != 1:
            raise DimensionError("membership takes one point; members takes a stack")
        res, mx, scale = self._float_margins(x, tol)
        return MembershipReport(bool(mx <= scale), res.tolist(), float(mx),
                                float(scale), list(self.labels))

    def jacobian_rank(self, p, rank_rtol: float = 1e-7) -> int:
        """Rank of the Jacobian at p: exact, of its integer numerators, when
        certified (a common scale keeps the rank); else numerical."""
        if self._certifies(p):
            return _integer_rank(self._integer_jacobian(p)[0])
        svals = np.linalg.svd(self.jacobian_at(p), compute_uv=False)
        return numerical_rank(svals, rank_rtol)

    def on_slice(self, base, kernel) -> "SliceSystem":
        """The float residuals restricted to the stacked slices
        x = base[s] + y·kernel[s], (S, n) and (S, d, n), composed once."""
        return SliceSystem(self._res, np.asarray(base, dtype=float),
                           np.asarray(kernel, dtype=float))


@cache
def _symmetrised_slots(width: int, order: int):
    """For a tensor of ``order`` slots of ``width`` values: the sorted
    multi-indices p of its last order - 1 slots, (P, order - 1); the flat
    positions of each index (a, p) under every permutation of the slots,
    (order!, P, width); and for each p its number of orderings over order!."""
    lows = np.array(list(combinations_with_replacement(range(width), order - 1)),
                    dtype=np.intp).reshape(-1, order - 1)
    index = np.empty((len(lows), width, order), dtype=np.intp)  # (a, p)
    index[:, :, 0] = np.arange(width)
    index[:, :, 1:] = lows[:, None]
    perms = list(permutations(range(order)))
    strides = width ** np.arange(order - 1, -1, -1)
    positions = np.stack([index[:, :, list(perm)] @ strides for perm in perms])
    orderings = [math.factorial(order - 1)
                 / math.prod(math.factorial(low.count(i)) for i in set(low))
                 for low in lows.tolist()]
    return lows, positions, np.array(orderings) / len(perms)


class SliceSystem:
    """A residual block restricted to stacked affine slices
    x = base[s] + y·kernel[s], in the slice coordinates y.

    With ỹ = (y, 1), the point with its ones column is maps[s] @ ỹ, so a
    monomial, the product of its D gathered factors (see _Block.gather;
    blocks of degree below 2 are padded to 2 with the ones column), is a
    product of D linear forms in ỹ.  Summed against the block's matrix and
    symmetrised over its D slots, each residual is a symmetric tensor
    C[s, e] of order D over ỹ: r = C·ỹ^D and, by the symmetry,
    ∂r/∂y = D·C·ỹ^(D-1) without its ones slot.  The contraction with
    ỹ^(D-1) reads each distinct entry of the last D - 1 slots once, a
    sorted multi-index weighted by its number of orderings, against the
    monomials of degree D - 1 in ỹ; one more contraction with ỹ gives the
    residuals.  A zero kernel row (the padding of a smaller kernel) gives
    a zero Jacobian column.
    """

    def __init__(self, block: "_Block", base: np.ndarray, kernel: np.ndarray):
        nslices, self.dim, n = kernel.shape
        maps = np.zeros((nslices, n + 1, self.dim + 1))
        maps[:, :n, :self.dim] = kernel.transpose(0, 2, 1)
        maps[:, :n, self.dim] = base
        maps[:, n, self.dim] = 1.0
        self.maps = maps[:, :n]
        self.degree = max(block.degree, 2)
        self.nres = block.matrix.shape[1]
        gather = np.full((len(block.keys), self.degree), n, dtype=np.intp)
        gather[:, :block.degree] = block.gather
        forms = maps[:, gather]  # (S, M, D, d + 1): the factors as forms in ỹ
        slots = (self.dim + 1,) * self.degree
        prod = forms[:, :, 0]
        for k in range(1, self.degree):  # outer products: (S, M) + slots[:k + 1]
            prod = prod[..., None] * forms[:, :, k].reshape(
                prod.shape[:2] + (1,) * k + slots[:1])
        flat = prod.reshape(nslices, len(gather), math.prod(slots))
        tensor = block.matrix.T @ flat  # (S, E, (d + 1)^D), not yet symmetric
        self.lows, positions, weights = _symmetrised_slots(self.dim + 1, self.degree)
        # C[e, a, p] for each sorted multi-index p of the last D - 1 slots: the
        # mean of the tensor over the D! orderings of (a, p), times the number
        # of orderings of p, as the contraction with ỹ^(D-1) reads it
        distinct = tensor[:, :, positions].sum(axis=2) * weights[:, None]
        # (S, P, E·(d + 1)): the coefficients of the monomials of degree D - 1
        self.coeffs = distinct.transpose(0, 2, 1, 3).reshape(
            nslices, len(self.lows), self.nres * slots[0])

    def _rows(self, stack: np.ndarray, rows) -> np.ndarray:
        """The slices of the given rows; one slice is shared by every row."""
        return stack if len(stack) == 1 else stack[rows]

    def values(self, y1: np.ndarray, rows):
        """Residuals (k, E) and Jacobians in y (k, E, d) at the points
        y1 = (y, 1), (k, d + 1), row k on slice rows[k]."""
        mono = y1[:, self.lows].prod(axis=-1)  # (k, P), degree D - 1 in ỹ
        # stacked matmuls, one product per row, so rows never interact
        half = mono[:, None, :] @ self._rows(self.coeffs, rows)  # C·ỹ^(D-1)
        half = half.reshape(len(y1), self.nres, self.dim + 1)
        return ((half @ y1[:, :, None])[:, :, 0],
                self.degree * half[:, :, :self.dim])

    def points(self, y1: np.ndarray, rows) -> np.ndarray:
        """The points x = base + y·kernel (k, n) at y1 = (y, 1), (k, d + 1)."""
        return (self._rows(self.maps, rows) @ y1[:, :, None])[:, :, 0]


class _Block:
    """Coefficient columns over the monomials they use, for both scalar kinds.

    Column j holds (monomial index, coefficient) pairs, and its value at x
    is sum(coefficient * monomial) / den: integers over the lcm of an exact
    model's coefficient denominators, or floats over 1.  A monomial is a
    packed key, its exponents the digits of an integer in a base above every
    exponent (``steps`` are the powers of that base), so a product of
    monomials is the sum of their keys.
    """

    def __init__(self, columns, keys, steps, den):
        self.columns, self.keys, self.steps, self.den = columns, keys, steps, den
        self.nvars = len(steps)
        self.factors = []  # per monomial its variables with repeats, highest first
        for k in keys:
            self.factors.append([])
            while k:
                i = bisect_right(steps, k) - 1
                k -= steps[i]
                self.factors[-1].append(i)
        self.degree = max(map(len, self.factors), default=0)

    def jacobian(self) -> "_Block":
        """The derivative of every column along every variable, row major:
        c * x^e goes to c * e_i * x^(e - 1_i)."""
        n, index = self.nvars, {}
        columns = [[] for _ in range(len(self.columns) * n)]
        for j, col in enumerate(self.columns):
            for m, c in col:
                f = self.factors[m]
                for i in set(f):
                    k = index.setdefault(self.keys[m] - self.steps[i], len(index))
                    columns[j * n + i].append((k, c * f.count(i)))
        return _Block(columns, list(index), self.steps, self.den)

    @cached_property
    def exps(self) -> np.ndarray:
        """(M, nvars) exponents of the monomials."""
        return np.array([[f.count(i) for i in range(self.nvars)] for f in self.factors],
                        dtype=np.intp).reshape(len(self.factors), self.nvars)

    @cached_property
    def gather(self) -> np.ndarray:
        """(M, degree) variable indices of each monomial's factors, lowest
        first, padded with nvars (a column of ones).  On degree <= 2 the
        products round exactly as products of powers x_i^e_i would."""
        out = np.full((len(self.factors), self.degree), self.nvars, dtype=np.intp)
        for m, f in enumerate(self.factors):
            out[m, :len(f)] = f[::-1]
        return out

    @cached_property
    def matrix(self) -> np.ndarray:
        """(M, columns) float coefficients: values = monomials @ matrix."""
        mat = np.zeros((len(self.keys), len(self.columns)))
        for j, col in enumerate(self.columns):
            for m, c in col:
                mat[m, j] = c / self.den
        return mat


def _times(a, b, out):
    """Add to ``out`` the product of two polynomials in z, whose coefficients
    map monomial keys to (re, im) pairs, truncated to the length of ``out``."""
    for i, pa in enumerate(a[:len(out)]):
        for j, pb in enumerate(b[:len(out) - i]):
            acc = out[i + j]
            for ka, (ar, ai) in pa.items():
                for kb, (br, bi) in pb.items():
                    r, s = acc.get(ka + kb, (0, 0))
                    acc[ka + kb] = (r + ar * br - ai * bi, s + ar * bi + ai * br)
    return out


def real_section_system(model: TwistorModel) -> RealEquationSystem:
    """Induced real polynomial system on the section parameters, built once per model.

    Every fiber equation is expanded over the section basis as (re, im)
    pairs: integers over the lcm of an exact model's coefficient
    denominators, since the basis units are Gaussian units, or floats over
    1 on a float model.
    """
    if model._system is not None:
        return model._system
    basis = model.section_basis
    n = basis.nparams
    parts = exact_parts if model.exact else (lambda c: (c.real, c.imag, 1))
    coeffs = [c for eq in model.equations for _, g in eq.monomials for c in g.coeffs]
    coeffs += [c for comp in model.component_equations for c in comp.terms.values()]
    den = math.lcm(*(parts(c)[2] for c in coeffs))

    def scaled(c):
        a, b, d = parts(c)
        return a * (den // d), b * (den // d)

    base = 1 + max([sum(e) for eq in model.equations for e, _ in eq.monomials]
                   + [sum(e) for comp in model.component_equations for e in comp.terms],
                   default=0)
    steps = [base ** p for p in range(n)]
    forms = [[{steps[p]: parts(u)[:2] for p, u in slot} for slot in coord] for coord in basis.slots]
    index, columns, labels = {}, [], []

    def emit(poly, label, middle=False):
        """The real and imaginary parts of a polynomial over (re, im) pairs;
        the middle coefficient gives its nonzero parts only."""
        for part, tag in enumerate(("re", "im")):
            terms = [(k, v[part]) for k, v in poly.items() if v[part]]
            if not middle or not all(negligible(c, 1e-12) for _, c in terms):
                columns.append([(index.setdefault(k, len(index)), c) for k, c in terms])
                labels.append(f"{model.name}.{label}.{tag}")

    for idx, eq in enumerate(model.equations):
        low = [{} for _ in range(eq.twist // 2 + 1)]
        for exps, gpoly in eq.monomials:
            pairs = [scaled(c) for c in gpoly.coeffs]
            weight = sum(e * k for e, k in zip(exps, model.degrees))
            if not all(negligible(v, 1e-12)
                       for pair in pairs[max(eq.twist - weight + 1, 0):] for v in pair):
                raise ModelError("fiber equation overflows its twist")
            term = [{0: pair} if any(pair) else {} for pair in pairs]
            for i in [i for i, e in enumerate(exps) for _ in range(e)]:
                term = _times(term, forms[i], [{} for _ in low])
            _times(term, [{0: (1, 0)}], low)  # add the term to the equation
        for m, poly in enumerate(low):
            emit(poly, f"eq{idx}[z^{m}]", middle=2 * m == eq.twist)
    for cdx, comp in enumerate(model.component_equations):
        emit({sum(p * s for p, s in zip(e, steps)): scaled(c)
              for e, c in comp.terms.items()}, f"component{cdx}")
    block = _Block(columns, list(index), steps, den)
    model._system = RealEquationSystem(n, block, labels, model.exact)
    return model._system
