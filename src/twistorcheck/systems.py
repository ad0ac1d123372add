"""Real polynomial systems induced on section parameters.

Substituting the generic real section into a fiber equation of twist d and
expanding over the base gives d+1 coefficient conditions; conjugate symmetry
makes the top half redundant, so only the low coefficients (plus one real
scalar from the middle when d is even) are emitted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ModelError
from .exactla import exact_rank, numerical_rank
from .mpoly import MPoly
from .models import TwistorModel, _coeff_form
from .scalars import abs2, certifies


@dataclass
class MembershipReport:
    passed: bool
    residuals: list
    max_residual: float
    scaled_tol: float
    labels: list


class RealEquationSystem:
    """List of real polynomial equations with an analytic Jacobian."""

    def __init__(self, nvars, equations, labels, expected_regular_rank, exact):
        self.nvars = nvars
        self.equations = list(equations)
        self.labels = list(labels)
        self.expected_regular_rank = expected_regular_rank
        self.exact = exact
        self.jacobian = [[eq.diff(i) for i in range(nvars)]
                         for eq in self.equations]

    def __len__(self):
        return len(self.equations)

    def residuals(self, p):
        if len(p) != self.nvars:
            raise DimensionError(
                f"expected {self.nvars} parameters, got {len(p)}")
        return [eq.evaluate(p) for eq in self.equations]

    def jacobian_at(self, p):
        if len(p) != self.nvars:
            raise DimensionError(
                f"expected {self.nvars} parameters, got {len(p)}")
        if certifies(self.exact, p):
            return [[entry.evaluate(p) for entry in row] for row in self.jacobian]
        pf = [float(v) for v in p]
        return np.array([[float(entry.evaluate(pf)) for entry in row]
                         for row in self.jacobian])

    def membership(self, p, tol: float = 1e-9) -> MembershipReport:
        res = self.residuals(p)
        if certifies(self.exact, p):
            passed = all(r == 0 for r in res)
            mx = max((abs(float(r)) for r in res), default=0.0)
            return MembershipReport(passed, res, mx, 0.0, list(self.labels))
        scale = tol * (1.0 + sum(float(abs2(v)) for v in p))
        resf = [float(r) for r in res]
        mx = max((abs(r) for r in resf), default=0.0)
        return MembershipReport(mx <= scale, resf, mx, scale, list(self.labels))

    def jacobian_rank(self, p, rank_rtol: float = 1e-7) -> int:
        if not self.equations:
            return 0
        jac = self.jacobian_at(p)
        if isinstance(jac, np.ndarray):
            return numerical_rank(np.linalg.svd(jac, compute_uv=False), rank_rtol)
        return exact_rank(jac)


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
