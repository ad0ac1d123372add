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
from itertools import combinations_with_replacement, product
from operator import mul

import numpy as np

from .errors import DimensionError, ModelError
from .exactla import _integer_rank, common_denominator, numerical_rank
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

    One block holds the residuals and one their derivatives over (x, 1),
    n + 1 per row (see _Block.jacobian): jacobian_at reads the first n, the
    slice restriction all of them.  Exact inputs to an exact system, which
    certify facts, are evaluated in integers over common denominators; every
    other input in floats, where a point or a stacked ``(S, n)`` array of
    points goes through one gather of monomial factors and one matrix product.
    """

    def __init__(self, nvars, residuals, labels, exact):
        self.nvars = nvars
        self.labels = list(labels)
        self.exact = exact
        self._res = residuals
        self.degree = residuals.degree  # of the residuals in the parameters
        self._jac, self._lead = residuals.jacobian()
        # the rows of the fiber equations; the others come from component
        # equations (labels <model>.eq<i>[z^<m>].<part> and
        # <model>.component<i>.<part>, written by real_section_system)
        self.fiber_rows = [i for i, label in enumerate(self.labels)
                           if label.rsplit(".", 2)[1].startswith("eq")]

    def __len__(self):
        return len(self.labels)

    def _certifies(self, p) -> bool:
        """Whether p takes the exact path; arrays of numbers and stacked
        arrays of points never do."""
        if isinstance(p, np.ndarray) and (p.dtype != object or p.ndim != 1):
            return False
        if len(p) != self.nvars:
            raise DimensionError(
                f"expected {self.nvars} parameters, got {len(p)}")
        return certifies(self.exact, p)

    def _float_values(self, x: np.ndarray, block: "_Block", lead) -> np.ndarray:
        """The block's columns at each row of ``x`` from its first ``lead``
        monomials (all for None), each the product of its factors, gathered
        from x with a column of ones appended (see _Block.gather)."""
        ones = np.ones(x.shape[:-1] + (1,))
        mono = np.concatenate([x, ones], axis=-1)[..., block.gather[:lead]].prod(axis=-1)
        # einsum sums each row in a fixed order, so rows never interact
        return np.einsum("...m,me->...e", mono, block.matrix[:lead])

    @cached_property
    def _exact_terms(self):
        """The exact path's flat form of each block: (entry, monomial,
        coefficient) triples of the residuals, and of the Jacobian's x
        entries, row major (its t entries are never evaluated)."""
        n, cols = self.nvars, self._jac.columns
        xcols = [cols[k + i] for k in range(0, len(cols), n + 1) for i in range(n)]
        return ([(e, m, c) for e, col in enumerate(self._res.columns) for m, c in col],
                [(e, m, c) for e, col in enumerate(xcols) for m, c in col])

    def _integer_values(self, p, block: "_Block", lead, terms, size):
        """The ``size`` entries of a block at the exact point p, each the sum
        of c times monomial m over its (entry, m, c) ``terms``, the monomials
        taken from the block's first ``lead``: integer numerators over one
        positive denominator."""
        num, im, den = common_denominator(p)
        if any(im):
            raise ModelError("section parameters are real")
        # every monomial is brought to the top degree, so one denominator serves all
        powers = [den ** k for k in range(block.degree + 1)]
        mono = [math.prod(map(num.__getitem__, f), start=powers[block.degree - len(f)])
                for f in block.factors[:lead]]
        out = [0] * size
        for e, m, c in terms:
            out[e] += c * mono[m]
        return out, block.den * powers[-1]

    def residuals(self, p):
        """Residuals at p: exact values when certified, else a float array
        (one row per point of a stacked input)."""
        if self._certifies(p):
            nums, den = self._integer_residuals(p)
            return [Fraction(n, den) for n in nums]
        return self._float_values(self._float_points(p), self._res, None)

    def jacobian_at(self, p):
        """Jacobian at p: exact rows when certified, else a float array of
        shape (len, nvars), or (S, len, nvars) for a stacked input."""
        if self._certifies(p):
            rows, den = self._integer_jacobian(p)
            return [[Fraction(n, den) for n in row] for row in rows]
        x = self._float_points(p)
        flat = self._float_values(x, self._jac, self._lead)  # t entries partial
        return flat.reshape(x.shape[:-1] + (len(self), self.nvars + 1))[..., :-1]

    def _integer_residuals(self, p):
        return self._integer_values(p, self._res, None, self._exact_terms[0], len(self))

    def _integer_jacobian(self, p):
        """The x entries of each row; the t entries are never evaluated."""
        n = self.nvars
        flat, den = self._integer_values(p, self._jac, self._lead, self._exact_terms[1],
                                         len(self) * n)
        return [flat[k:k + n] for k in range(0, len(flat), n)], den

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
        integer numerators of its residuals (max_residual is inf past the
        float range); else within the scaled tolerance."""
        if self._certifies(p):
            nums, den = self._integer_residuals(p)
            try:
                mx = max(map(abs, nums), default=0) / den
            except OverflowError:
                mx = math.inf
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
        return SliceSystem(self._jac, np.asarray(base, dtype=float),
                           np.asarray(kernel, dtype=float))


@cache
def _folding(width: int, order: int):
    """The sorted multi-indices p of ``order`` slots of ``width`` values,
    (P, order), and the fold of a tensor over those slots, flattened row
    major, onto them: its positions grouped by the multi-index they sort
    to, and the start of each group, so that summing each group gives the
    coefficient of the monomial p, every ordering of p counted."""
    lows = list(combinations_with_replacement(range(width), order))
    index = {low: k for k, low in enumerate(lows)}
    group = np.array([index[tuple(sorted(pos))]
                      for pos in product(range(width), repeat=order)])
    positions = np.argsort(group, kind="stable")
    starts = np.searchsorted(group[positions], np.arange(len(lows)))
    return np.array(lows, dtype=np.intp).reshape(len(lows), order), positions, starts


class SliceSystem:
    """The residuals on stacked affine slices x = base[s] + y·kernel[s], in
    the slice coordinates y, built from the Jacobian block by the chain rule.

    With ỹ = (y, 1), (x, t) = maps[s] @ ỹ, and a residual r, homogeneous of
    degree D in (x, t) (see _Block.jacobian), has ∂r/∂ỹ = ∇r · maps[s].  Each
    monomial of ∇r, a product of D - 1 gathered factors, is a product of
    linear forms in ỹ, expanded onto the monomials ỹ^p of degree D - 1 (see
    _folding).  So C = (∂r/∂ỹ) / D is read as C·ỹ^(D-1), and by Euler's
    relation r = C·ỹ^(D-1)·ỹ and ∂r/∂y = D·C·ỹ^(D-1) without its ones slot.
    A zero kernel row (the padding of a smaller kernel) gives a zero column.
    ``coeffs`` (S, P, E·(d + 1)) holds C: coeffs[s, p, e·(d + 1) + q] is the
    coefficient of ỹ^lows[p]·ỹ_q in residual e.  For a system of degree 2
    (D = 2) the monomials ỹ^p are the slots ỹ_p themselves, so
    coeffs[s].reshape(d + 1, E, d + 1)[:, e] is a matrix M_e, symmetric up
    to rounding, with residual e = ỹ^T M_e ỹ on slice s.
    """

    def __init__(self, jac: "_Block", base: np.ndarray, kernel: np.ndarray):
        nslices, self.dim, n = kernel.shape
        maps = np.zeros((nslices, n + 1, self.dim + 1))
        maps[:, :n, :self.dim] = kernel.transpose(0, 2, 1)
        maps[:, :n, self.dim] = base
        maps[:, n, self.dim] = 1.0
        self.maps = maps[:, :n]
        self.degree = jac.degree + 1
        self.nres = len(jac.columns) // (n + 1)
        nmono, width = len(jac.keys), self.dim + 1
        # (D - 1, d + 1, S, M): the factors as forms in ỹ, laid out so that
        # every product and sum below runs along whole (S, M) rows
        forms = np.ascontiguousarray(maps[:, jac.gather].transpose(2, 3, 0, 1))
        prod = forms[0] if len(forms) else np.ones((1, nslices, nmono))
        for form in forms[1:]:  # outer products: ((d + 1)^k, S, M)
            prod = (form[:, None] * prod).reshape(width * len(prod), nslices, nmono)
        self.lows, positions, starts = _folding(width, jac.degree)
        # (P, S, M), folded from order 2 on (lower orders have one ordering)
        mono = prod if jac.degree < 2 else np.add.reduceat(prod[positions], starts, axis=0)
        # ∇r · maps[s] per monomial, (S, M, E·(d + 1))
        grad = (jac.matrix.reshape(-1, n + 1) @ maps).reshape(
            nslices, nmono, self.nres * width)
        # (S, P, E·(d + 1)): the coefficients of the monomials of degree D - 1
        self.coeffs = mono.transpose(1, 0, 2) @ grad / self.degree

    def _rows(self, stack: np.ndarray, rows) -> np.ndarray:
        """The slices of the given rows; one slice is shared by every row."""
        return stack if len(stack) == 1 else stack[rows]

    def values(self, y1: np.ndarray, rows):
        """Residuals r (k, E) and blocks H = C·ỹ^(D-1) (k, E, d + 1) at the
        points y1 = ỹ = (y, 1), (k, d + 1), row k on slice rows[k]: r = H·ỹ,
        and the Jacobian in y is D·H without its last column."""
        mono = y1 if self.degree == 2 else y1[:, self.lows].prod(axis=-1)  # (k, P)
        # stacked matmuls, one product per row, so rows never interact
        half = mono[:, None, :] @ self._rows(self.coeffs, rows)  # C·ỹ^(D-1)
        half = half.reshape(len(y1), self.nres, self.dim + 1)
        return (half @ y1[:, :, None])[:, :, 0], half

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

    def jacobian(self):
        """The derivatives of every column along every variable and along t,
        row major, t = 1 (gather's ones column) making the block homogeneous
        of degree D = max(degree, 1): c * x^e goes to c * e_i * x^(e - 1_i)
        along x_i and c * (D - |e|) * x^e along t.  Returns the block and how
        many of its monomials, the leading ones, the x entries use."""
        n, top, index = self.nvars, max(self.degree, 1), {}
        columns = [[] for _ in range(len(self.columns) * (n + 1))]
        for j, col in enumerate(self.columns):
            for m, c in col:
                f = self.factors[m]
                for i in set(f):
                    k = index.setdefault(self.keys[m] - self.steps[i], len(index))
                    columns[j * (n + 1) + i].append((k, c * f.count(i)))
        lead = len(index)
        for j, col in enumerate(self.columns):
            for m, c in col:
                if len(self.factors[m]) < top:
                    k = index.setdefault(self.keys[m], len(index))
                    columns[j * (n + 1) + n].append((k, c * (top - len(self.factors[m]))))
        return _Block(columns, list(index), self.steps, self.den), lead

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
            for acc, pa in zip(low, term):  # add the term to the equation
                for k, (ar, ai) in pa.items():
                    r, s = acc.get(k, (0, 0))
                    acc[k] = (r + ar, s + ai)
        for m, poly in enumerate(low):
            emit(poly, f"eq{idx}[z^{m}]", middle=2 * m == eq.twist)
    for cdx, comp in enumerate(model.component_equations):
        emit({sum(map(mul, e, steps)): scaled(c) for e, c in comp.terms.items()},
             f"component{cdx}")
    block = _Block(columns, list(index), steps, den)
    model._system = RealEquationSystem(n, block, labels, model.exact)
    return model._system
