"""Real polynomial systems induced on section parameters.

Substituting the generic real section into a fiber equation of twist d and
expanding over the base gives d+1 coefficient conditions; conjugate symmetry
makes the top half redundant, so only the low coefficients (plus one real
scalar from the middle when d is even) are emitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DimensionError, ModelError
from .exactla import common_denominator, exact_rank, numerical_rank
from .mpoly import MPoly
from .models import TwistorModel, _coeff_form
from .scalars import certifies


@dataclass
class MembershipReport:
    passed: bool
    residuals: list
    max_residual: float
    scaled_tol: float
    labels: list


class RealEquationSystem:
    """List of real polynomial equations with an analytic Jacobian.

    Residuals and Jacobian entries are evaluated on one compiled form, built
    on first use, for both scalar kinds.  Exact inputs to an exact system,
    which certify facts, are evaluated in integers over common denominators;
    every other input in floats, where a point or a stacked ``(S, n)`` array
    of points goes through one power table and two matrix products.
    """

    def __init__(self, nvars, equations, labels, expected_regular_rank, exact):
        self.nvars = nvars
        self.equations = list(equations)
        self.labels = list(labels)
        self.expected_regular_rank = expected_regular_rank
        self.exact = exact

    def __len__(self):
        return len(self.equations)

    @cached_property
    def _compiled(self) -> "_Compiled":
        return _Compiled(self.equations, self.nvars)

    def _certifies(self, p) -> bool:
        """Whether p takes the exact path; numeric arrays never do."""
        if isinstance(p, np.ndarray) and p.dtype != object:
            return False
        if len(p) != self.nvars:
            raise DimensionError(
                f"expected {self.nvars} parameters, got {len(p)}")
        return certifies(self.exact, p)

    def _monomials(self, x: np.ndarray) -> np.ndarray:
        """Values of the compiled monomials at each row of ``x``."""
        exps = self._compiled.exps
        table = np.empty(x.shape + (int(exps.max(initial=0)) + 1,))
        table[..., 0] = 1.0
        for k in range(1, table.shape[-1]):
            table[..., k] = table[..., k - 1] * x
        return table[..., np.arange(self.nvars), exps].prod(axis=-1)

    def _exact_values(self, p, jacobian: bool) -> list:
        """Exact residuals, or Jacobian entries row major, at the exact point p."""
        if any(v.imag for v in p):
            raise ModelError("section parameters are real")
        num, den = common_denominator([v.real for v in p])
        comp = self._compiled
        scale, columns = comp.integer_jac if jacobian else comp.integer_res
        # every monomial is brought to the top degree, so one denominator serves all
        powers = [den ** k for k in range(comp.degree + 1)]
        mono = [math.prod([num[i] for i in f]) * powers[comp.degree - len(f)]
                for f in comp.factors]
        total = scale * powers[-1]
        return [Fraction(sum([c * mono[m] for m, c in col]), total) for col in columns]

    def residuals(self, p):
        """Residuals at p: exact values when certified, else a float array
        (one row per point of a stacked input)."""
        if self._certifies(p):
            return self._exact_values(p, False)
        x = self._float_points(p)
        # einsum sums each row in a fixed order, so rows never interact
        return np.einsum("...m,me->...e", self._monomials(x), self._compiled.res)

    def jacobian_at(self, p):
        """Jacobian at p: exact rows when certified, else a float array of
        shape (len, nvars), or (S, len, nvars) for a stacked input."""
        if self._certifies(p):
            flat = self._exact_values(p, True)
            return [flat[k:k + self.nvars] for k in range(0, len(flat), self.nvars)]
        x = self._float_points(p)
        flat = np.einsum("...m,me->...e", self._monomials(x), self._compiled.jac)
        return flat.reshape(x.shape[:-1] + (len(self), self.nvars))

    def _float_points(self, p) -> np.ndarray:
        x = np.asarray(p)
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
        if self._certifies(p):
            res = self.residuals(p)
            passed = all(r == 0 for r in res)
            mx = max((abs(float(r)) for r in res), default=0.0)
            return MembershipReport(passed, res, mx, 0.0, list(self.labels))
        res, mx, scale = self._float_margins(self._float_points(p), tol)
        return MembershipReport(bool(mx <= scale), res.tolist(), float(mx),
                                float(scale), list(self.labels))

    def jacobian_rank(self, p, rank_rtol: float = 1e-7) -> int:
        if not self.equations:
            return 0
        jac = self.jacobian_at(p)
        if isinstance(jac, np.ndarray):
            return numerical_rank(np.linalg.svd(jac, compute_uv=False), rank_rtol)
        return exact_rank(jac)


class _Compiled:
    """A system over the union of its residual and Jacobian monomials.

    Each residual, and each Jacobian entry row major, is a column of
    (monomial, exact coefficient) pairs; the Jacobian coefficient of a
    monomial c*x^e along x_i is c*e_i at the exponent e - 1_i.  The float
    matrices and the integer columns are derived from these coefficients.
    """

    def __init__(self, equations, nvars):
        index = {}
        self.res_terms = [[] for _ in equations]
        self.jac_terms = [[] for _ in range(len(equations) * nvars)]
        for k, eq in enumerate(equations):
            for e, c in eq.terms.items():
                self.res_terms[k].append((index.setdefault(e, len(index)), c))
                for i, p in enumerate(e):
                    if p:
                        d = e[:i] + (p - 1,) + e[i + 1:]
                        self.jac_terms[k * nvars + i].append(
                            (index.setdefault(d, len(index)), c * p))
        # (M, nvars) exponents, and per monomial its variables with repeats
        self.exps = np.array(list(index), dtype=np.intp).reshape(len(index), nvars)
        self.factors = [[i for i, p in enumerate(e) for _ in range(p)] for e in index]
        self.degree = max(map(len, self.factors), default=0)

    @cached_property
    def res(self) -> np.ndarray:
        """(M, len) float coefficients: residuals = monomials @ res."""
        return self._float_matrix(self.res_terms)

    @cached_property
    def jac(self) -> np.ndarray:
        """(M, len * nvars) float coefficients of the Jacobian, row major."""
        return self._float_matrix(self.jac_terms)

    @cached_property
    def integer_res(self):
        """The residual coefficients as integers over one common denominator."""
        return _integer_columns(self.res_terms)

    @cached_property
    def integer_jac(self):
        """The Jacobian coefficients as integers over one common denominator."""
        return _integer_columns(self.jac_terms)

    def _float_matrix(self, columns) -> np.ndarray:
        mat = np.zeros((len(self.exps), len(columns)))
        for col, terms in enumerate(columns):
            for m, c in terms:
                mat[m, col] = float(c)
        return mat


def _integer_columns(columns):
    """(d, columns of (monomial, integer)) with coefficient = integer / d."""
    flat, den = common_denominator([c for col in columns for _, c in col])
    it = iter(flat)
    return den, [[(m, next(it)) for m, _ in col] for col in columns]


def _zp_mul(a, b, nvars):
    out = [MPoly.zero(nvars) for _ in range(len(a) + len(b) - 1)]
    for i, pa in enumerate(a):
        if not pa.terms:
            continue
        for j, pb in enumerate(b):
            if pb.terms:
                out[i + j] = out[i + j] + pa * pb
    return out


def real_section_system(model: TwistorModel) -> RealEquationSystem:
    """Induced real polynomial system on the section parameters, built once per model."""
    if model._system is not None:
        return model._system
    basis = model.section_basis
    n = basis.nparams
    zero = MPoly.zero(n)
    coord_polys = []
    for i, k in enumerate(model.degrees):
        coord_polys.append([_coeff_form(basis, i, m)
                            for m in range(k + 1)])
    equations = []
    labels = []
    for idx, eq in enumerate(model.equations):
        d = eq.twist
        coeffs = [zero for _ in range(d + 1)]
        for exps, gpoly in eq.monomials:
            term = [MPoly.const(n, c) for c in gpoly.coeffs]
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = _zp_mul(term, coord_polys[i], n)
            if len(term) > d + 1:
                for extra in term[d + 1:]:
                    if not extra.is_zero(1e-12):
                        raise ModelError("fiber equation overflows its twist")
                term = term[:d + 1]
            for m, poly in enumerate(term):
                coeffs[m] = coeffs[m] + poly
        half = (d + 1) // 2  # number of complex low coefficients
        for m in range(half):
            re, im = coeffs[m].split_real_imag()
            equations.append(re)
            labels.append(f"{model.name}.eq{idx}[z^{m}].re")
            equations.append(im)
            labels.append(f"{model.name}.eq{idx}[z^{m}].im")
        if d % 2 == 0:
            re, im = coeffs[d // 2].split_real_imag()
            mid = []
            if not re.is_zero(1e-12):
                mid.append((re, "re"))
            if not im.is_zero(1e-12):
                mid.append((im, "im"))
            for poly, tag in mid:
                equations.append(poly)
                labels.append(f"{model.name}.eq{idx}[z^{d // 2}].{tag}")
    for cdx, comp in enumerate(model.component_equations):
        re, im = comp.split_real_imag()
        for poly, tag in ((re, "re"), (im, "im")):
            equations.append(poly)
            labels.append(f"{model.name}.component{cdx}.{tag}")
    model._system = RealEquationSystem(n, equations, labels,
                                       model.expected_regular_rank, model.exact)
    return model._system
