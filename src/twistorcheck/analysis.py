"""Section-level analysis of twistor models.

Membership, fiber incidence, fiber solving, Jacobian rank scans, branch
tests, normal-sheaf splitting and the hypercomplex/weakly-hypercomplex
classification pipeline.  The family table ``_FAMILIES`` holds closed-form
fiber solvers for the quadric family (x*y = z^2 + mu) and for equation-free
bundles; everything else falls back to seeded multistart Newton.

Numeric ops (``solve_fiber``, ``branch_test``, ``singular_scan``,
``sample_sections``, ``classify_hypercomplex`` and the float branch of
``normal_splitting``) take the model's float view and float inputs once, at
entry; the helpers below them see floats only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import (DimensionError, FiberError, ModelError, OriginError)
from .exactla import exact_rank, numerical_rank
from .models import TwistorModel, squaring_section
from .projline import (CoeffPoly, P1Point, SplittingType, as_p1,
                       kernel_splitting)
from .scalars import abs2, certifies, exact_sqrt
from .systems import real_section_system


@dataclass
class SolveConfig:
    """Tolerances and sampling controls; two orders between adjacent cutoffs."""

    tol: float = 1e-9                # membership, relative
    rank_rtol: float = 1e-7          # singular values below rtol*smax are zero
    newton_tol: float = 1e-12
    max_iter: int = 50
    dedup_radius: float = 1e-6
    multistart: int = 40
    seed: int = 0
    fiber_tol: float = 1e-8
    scan_samples: int = 60
    branch_checks: int = 6
    continuation_step: float = 0.05
    cluster_radius: float = 0.35

    @property
    def member_tol(self) -> float:
        """Membership tolerance of solver output; never tighter than 1e-8."""
        return max(self.tol, 1e-8)


DEFAULT_CONFIG = SolveConfig()

# sections drawn from a positive-dimensional fiber family as its solutions
_FAMILY_SAMPLES = 8
_LABEL_TOL = 1e-9   # relative zero test of component_label
_MATRIX_TOL = 1e-9  # relative 2x2-minor test of the float sym_matrix_model


@dataclass(frozen=True)
class FiberPoint:
    """Point of a fiber: base point plus coordinate values in its chart."""

    zeta: P1Point
    values: tuple


def evaluate_section(model: TwistorModel, params, zeta) -> FiberPoint:
    """Value of the embedded section at a base point (chart of the point)."""
    pt = as_p1(zeta)
    polys = model.section_basis.embed(list(params))
    values = tuple(s.eval_point(pt) for s in polys)
    return FiberPoint(pt, values)


def _float_point(pt: P1Point) -> P1Point:
    return P1Point(pt.chart, complex(pt.value))


def _point_on_fiber(model: TwistorModel, pt: P1Point, values, cfg: SolveConfig):
    scale = 1.0 + sum(abs2(v) for v in values)
    for eq in model.equations:
        coeff_scale = 1.0 + max((max(abs(c) for c in g.coeffs)
                                 for _, g in eq.monomials), default=0.0)
        val = eq.eval_at(pt, values)
        if abs(val) > cfg.fiber_tol * scale * coeff_scale:
            return False
    return True


def _num_rank(mat: np.ndarray, rtol: float) -> int:
    if mat.size == 0:
        return 0
    return numerical_rank(np.linalg.svd(mat, compute_uv=False), rtol)


def _num_nullspace(mat: np.ndarray, rtol: float) -> np.ndarray:
    """Orthonormal kernel basis as rows."""
    if mat.size == 0:
        return np.eye(mat.shape[1] if mat.ndim == 2 else 0)
    u, svals, vh = np.linalg.svd(mat)
    return vh[numerical_rank(svals, rtol):]


def incidence_rows(model: TwistorModel, pt: P1Point):
    """Real-linear map params -> stacked (re, im) coordinate values at pt."""
    basis = model.section_basis
    mats = basis.complex_matrices()
    rows = []
    z = pt.value
    for i, k in enumerate(model.degrees):
        if pt.chart == "std":
            powvec = np.array([z ** m for m in range(k + 1)])
        else:
            powvec = np.array([z ** (k - m) for m in range(k + 1)])
        crow = powvec @ mats[i]
        rows.append(crow.real)
        rows.append(crow.imag)
    return np.array(rows)


def _incidence_rhs(values):
    out = []
    for v in values:
        out.extend([v.real, v.imag])
    return np.array(out)


@dataclass
class FamilyDescriptor:
    """Positive-dimensional solution family (an ellipsoid in kernel coordinates)."""

    dim: int
    center_params: np.ndarray
    basis_params: np.ndarray   # rows: parameter-space directions
    shape: np.ndarray          # (u - u*)^T shape (u - u*) = radius_sq on the family
    radius_sq: float

    def sample(self, n: int, rng) -> list:
        evals, evecs = np.linalg.eigh(self.shape)
        half = evecs @ np.diag(1.0 / np.sqrt(evals)) * math.sqrt(self.radius_sq)
        out = []
        k = self.shape.shape[0]
        for _ in range(n):
            s = rng.standard_normal(k)
            s /= np.linalg.norm(s)
            u = half @ s
            out.append(self.center_params + u @ self.basis_params)
        return out


@dataclass
class FiberSolveResult:
    solutions: list
    complete: bool
    family: FamilyDescriptor | None
    method: str


def _pair_partner(cp: CoeffPoly) -> CoeffPoly:
    """Swap-rule partner of a degree-2 coefficient triple (sign +1)."""
    c0, c1, c2 = cp.coeffs
    return CoeffPoly(2, [c2.conjugate(), -c1.conjugate(), c0.conjugate()])


def _ztype_coords(cp: CoeffPoly, tol: float = 1e-8):
    """(Re c0, Im c0, c1) for a z-type triple; checks the type identity."""
    c0, c1, c2 = cp.coeffs
    scale = 1.0 + abs(c0) + abs(c1) + abs(c2)
    if abs(c2 + c0.conjugate()) > tol * scale or abs(c1.imag) > tol * scale:
        raise ModelError("polynomial is not of z-type")
    return np.array([c0.real, c0.imag, c1.real], dtype=float)


def _quadric_incidence(pt: P1Point, values):
    """Incidence rows, particular solutions and the pinned-pair factor."""
    z = pt.value
    x_val, y_val, z_val = values
    if pt.chart == "std":
        e1 = np.array([1.0, z, z * z])
        e2 = np.array([np.conj(z) ** 2, -np.conj(z), 1.0])
        nu = CoeffPoly(2, [-z, 1.0 - abs(z) ** 2, np.conj(z)])
        col_a, col_b, col_r = 1.0 - z * z, 1j * (1.0 + z * z), z
    else:
        e1 = np.array([z * z, z, 1.0])
        e2 = np.array([1.0, -np.conj(z), np.conj(z) ** 2])
        nu = CoeffPoly(2, [np.conj(z), 1.0 - abs(z) ** 2, -z])
        col_a, col_b, col_r = z * z - 1.0, 1j * (z * z + 1.0), z
    x_part, *_ = np.linalg.lstsq(np.vstack([e1, e2]),
                                 np.array([x_val, np.conj(y_val)]), rcond=None)
    zmat = np.array([[col_a.real, col_b.real, col_r.real],
                     [col_a.imag, col_b.imag, col_r.imag]])
    zpart, *_ = np.linalg.lstsq(zmat, np.array([z_val.real, z_val.imag]),
                                rcond=None)
    z0_p = complex(zpart[0], zpart[1])
    r_p = float(zpart[2])
    return x_part, z0_p, r_p, nu


def _quadric_reduce(model: TwistorModel, pt: P1Point, values, cfg: SolveConfig):
    """Closed-form fiber solver for x*y = z^2 + mu.

    Incidence at the point and its antipodal image restricts the parameters
    to (w, t) in C x R; the remaining conditions collapse to one quadric on
    the kernel of a small linear system, so the fiber is two points, one
    point, empty, or an ellipsoid family.
    """
    x_part, z0_p, r_p, nu = _quadric_incidence(pt, values)
    x_p = CoeffPoly(2, list(x_part))
    y_p = _pair_partner(x_p)
    z_p = CoeffPoly(2, [z0_p, r_p, -np.conj(z0_p)])
    g_p = x_p * y_p - z_p * z_p - model.mu
    # g_p = nu * h_p with deg h_p <= 2: one least-squares solve against the
    # Toeplitz matrix of nu, which stays well conditioned over the whole base
    toeplitz = np.zeros((5, 3), dtype=complex)
    for j in range(3):
        toeplitz[j:j + 3, j] = nu.coeffs
    g = np.array(g_p.coeffs, dtype=complex)
    h, *_ = np.linalg.lstsq(toeplitz, g, rcond=None)
    if np.linalg.norm(toeplitz @ h - g) > 1e-7 * (1.0 + np.abs(g).max()):
        raise FiberError("incidence data is inconsistent with the fiber equation")
    h_p = CoeffPoly(2, list(h))
    i_unit = 1j
    col_rew = _ztype_coords(y_p - x_p)
    col_imw = _ztype_coords((y_p + x_p).scale(i_unit))
    col_t = _ztype_coords(z_p.scale(-2.0))
    col_rho = -_ztype_coords(nu)
    tmat = np.column_stack([col_rew, col_imw, col_t, col_rho])
    rhs = -_ztype_coords(h_p)
    base, *_ = np.linalg.lstsq(tmat, rhs, rcond=None)
    resid_scale = 1.0 + np.linalg.norm(rhs) + np.linalg.norm(tmat)
    if np.linalg.norm(tmat @ base - rhs) > 1e-8 * resid_scale:
        return [], None  # linear stage inconsistent: no real section hits the target
    kernel = _num_nullspace(tmat, cfg.rank_rtol)
    kdim = kernel.shape[0]
    dmask = np.array([1.0, 1.0, 1.0, 0.0])
    pmat = kernel @ np.diag(dmask) @ kernel.T
    qvec = 2.0 * kernel @ (dmask * base) - kernel[:, 3]
    cval = float(base[:3] @ base[:3] - base[3])
    center, *_ = np.linalg.lstsq(pmat, -qvec / 2.0, rcond=None)
    val = cval + qvec @ center + center @ pmat @ center
    vtol = cfg.tol * (1.0 + abs(cval) + np.linalg.norm(base) ** 2)

    def wt_to_params(full):
        w = complex(full[0], full[1])
        t = float(full[2])
        x = [x_part[m] + w * nu.coeffs[m] for m in range(3)]
        z0 = z0_p + t * nu.coeffs[0]
        r = r_p + t * nu.coeffs[1].real
        lead = {0: x, 2: [z0, r]}
        return np.array(model.section_basis.params_from_lead(lead), dtype=float)

    if val > vtol:
        return [], None
    if abs(val) <= vtol:
        return [wt_to_params(base + center @ kernel)], None
    if kdim == 1:
        root = math.sqrt(-val / pmat[0, 0])
        sols = [wt_to_params(base + (center[0] + s * root) * kernel[0])
                for s in (1.0, -1.0)]
        return sols, None
    # positive-dimensional family: an ellipsoid of dimension kdim-1
    center_params = wt_to_params(base + center @ kernel)
    basis_params = np.array([wt_to_params(base + kernel[i]) - wt_to_params(base)
                             for i in range(kdim)])
    fam = FamilyDescriptor(dim=kdim - 1, center_params=center_params,
                           basis_params=basis_params, shape=pmat,
                           radius_sq=float(-val))
    rng = np.random.default_rng(cfg.seed)
    return fam.sample(_FAMILY_SAMPLES, rng), fam


def _linear_reduce(model: TwistorModel, pt: P1Point, values, cfg: SolveConfig):
    """Fiber solver for equation-free bundles: one real-linear solve."""
    amat = incidence_rows(model, pt)
    b = _incidence_rhs(values)
    sol, *_ = np.linalg.lstsq(amat, b, rcond=None)
    if np.linalg.norm(amat @ sol - b) > 1e-8 * (1.0 + np.linalg.norm(b)):
        return [], None
    kernel = _num_nullspace(amat, cfg.rank_rtol)
    if kernel.shape[0] == 0:
        return [np.asarray(sol, dtype=float)], None
    fam = FamilyDescriptor(dim=kernel.shape[0], center_params=np.asarray(sol),
                           basis_params=kernel,
                           shape=np.eye(kernel.shape[0]), radius_sq=1.0)
    rng = np.random.default_rng(cfg.seed)
    return fam.sample(_FAMILY_SAMPLES, rng), fam


def _lstsq_steps(jac: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Minimum-norm solutions of jac[k] @ step[k] = -r[k], by one stacked SVD
    with the cutoff of np.linalg.lstsq(rcond=None)."""
    u, svals, vh = np.linalg.svd(jac, full_matrices=False)
    keep = svals > np.finfo(float).eps * max(jac.shape[1:]) * svals[:, :1]
    inv = np.divide(1.0, svals, out=np.zeros_like(svals), where=keep)
    coef = np.einsum("kmj,km->kj", u, -r) * inv
    return np.einsum("kji,kj->ki", vh, coef)


def _converged(r: np.ndarray, x: np.ndarray, cfg: SolveConfig) -> np.ndarray:
    scale = 1.0 + (x * x).sum(axis=1)
    return np.abs(r).max(axis=1, initial=0.0) <= cfg.newton_tol * scale


def _incidence_slice(amats, rhs, rtol: float):
    """The solutions of each incidence block amats[k] @ x = rhs[k], (k, r, n)
    and (k, r), as a slice base[k] + kernel[k]·y, for _gauss_newton.

    One stacked SVD with the numerical_rank cutoff gives the minimum-norm
    solutions base (k, n) and orthonormal kernel bases (k, d, n); a basis of
    smaller dimension is padded with zero rows up to the largest one.
    """
    u, svals, vh = np.linalg.svd(amats)
    p = svals.shape[1]
    ranks = np.array([numerical_rank(sv, rtol) for sv in svals])
    inv = np.divide(1.0, svals, out=np.zeros_like(svals),
                    where=np.arange(p) < ranks[:, None])
    coef = np.einsum("krj,kr->kj", u[:, :, :p], rhs) * inv
    base = np.einsum("kjn,kj->kn", vh[:, :p], coef)
    low = ranks.min()
    kernel = vh[:, low:] * (np.arange(low, vh.shape[1]) >= ranks[:, None])[..., None]
    return base, kernel


def _gauss_newton(sys, base, kernel, x0, cfg: SolveConfig):
    """Gauss-Newton for the system on incidence slices, on every row of
    ``x0`` at once; rows never interact.

    Each start row is projected onto its slice base + kernel·y (see
    _incidence_slice; one slice of shape (1, n), (1, d, n) is shared by every
    row) and stepped inside it: the residual is the system's, the Jacobian
    the reduced J(x)·kernelᵀ, and each minimum-norm step is lifted back by
    the kernel.  Only unconverged rows are stepped; a row stops when its
    residual is within newton_tol*(1+|x|^2) or its step stalls.  Returns the
    final rows and a mask of the converged ones.
    """
    x = np.array(x0, dtype=float)
    kernel = np.broadcast_to(kernel, (len(x),) + kernel.shape[1:])
    x = base + np.einsum("kd,kdn->kn", np.einsum("kn,kdn->kd", x - base, kernel),
                         kernel)
    active = np.arange(len(x))
    for _ in range(cfg.max_iter):
        r = sys.residuals(x[active])
        moving = ~_converged(r, x[active], cfg)
        active, r = active[moving], r[moving]
        if not len(active):
            break
        basis = kernel[active]
        jac = np.einsum("kmn,kdn->kmd", sys.jacobian_at(x[active]), basis)
        step = np.einsum("kd,kdn->kn", _lstsq_steps(jac, r), basis)
        x[active] += step
        stalled = (np.linalg.norm(step, axis=1)
                   <= 1e-15 * (1.0 + np.linalg.norm(x[active], axis=1)))
        active = active[~stalled]
    return x, _converged(sys.residuals(x), x, cfg)


def _dedup(points, radius):
    out = []
    for p in points:
        if all(np.linalg.norm(p - q) > radius for q in out):
            out.append(p)
    return out


def _sorted_solutions(points):
    """Sort by entries rounded to 9 decimals after dividing every point by the
    power of two above the largest entry, so the key cannot overflow."""
    peak = max((float(np.abs(p).max(initial=0.0)) for p in points), default=0.0)
    shift = -math.frexp(peak)[1]
    return sorted(points, key=lambda p: tuple(np.round(np.ldexp(p, shift), 9)))


def _newton_multistart(model, pt, values, cfg: SolveConfig):
    sys = real_section_system(model)
    base, kernel = _incidence_slice(incidence_rows(model, pt)[None],
                                    _incidence_rhs(values)[None], cfg.rank_rtol)
    rng = np.random.default_rng(cfg.seed)
    scale = 1.0 + math.sqrt(sum(abs2(v) for v in values))
    x, ok = _gauss_newton(sys, base, kernel,
                          rng.standard_normal((cfg.multistart, sys.nvars)) * scale,
                          cfg)
    return _dedup(list(x[ok]), cfg.dedup_radius)


def _newton_reduce(model, pt, values, cfg: SolveConfig):
    return _newton_multistart(model, pt, values, cfg), None


def solve_fiber(model: TwistorModel, zeta, target,
                cfg: SolveConfig | None = None) -> FiberSolveResult:
    """All real sections of the model meeting a given fiber point.

    Closed-form families use their reducer (complete); other models use
    multistart Newton with heuristic completeness.  The solve runs in the
    canonical chart of the point: values given in the other chart are
    multiplied by w**k_i, w the new chart value.  On a homogeneous model the
    solve is scale covariant, solve_fiber(s*v) = s*solve_fiber(v) for real
    s > 0 (bit for bit when s is a power of two): the target is divided by the
    power of two nearest its largest entry, solved at unit scale, and the
    solutions and family are multiplied back.
    """
    cfg = cfg or DEFAULT_CONFIG
    model = model.float_view()
    if isinstance(target, FiberPoint):
        zeta, target = target.zeta, target.values
    given = _float_point(zeta if isinstance(zeta, P1Point) else P1Point.std(zeta))
    values = tuple(complex(v) for v in target)
    if len(values) != len(model.degrees):
        raise DimensionError("fiber value count differs from coordinate count")
    pt = given.canonical()
    if pt is not given:
        values = tuple(v * pt.value ** k for v, k in zip(values, model.degrees))
    peak = max(abs(v) for v in values)
    rescale = model.homogeneous and 0.0 < peak < math.inf
    scale = 2.0 ** min(round(math.log2(peak)), 1023) if rescale else 1.0
    values = tuple(v / scale for v in values)
    if not _point_on_fiber(model, pt, values, cfg):
        raise FiberError("target does not satisfy the fiber equations")
    family = _FAMILIES[model.family]
    sys = real_section_system(model)
    sols, fam = family.reduce(model, pt, values, cfg)
    kept = [np.asarray(s, dtype=float) for s in sols]
    kept = [s for s, ok in zip(kept, sys.members(kept, cfg.member_tol)) if ok]
    sols = [s * scale for s in _dedup(kept, cfg.dedup_radius)]
    if fam is not None:
        fam.center_params = fam.center_params * scale
        fam.basis_params = fam.basis_params * scale
    return FiberSolveResult(_sorted_solutions(sols), family.complete, fam,
                            family.method)


@dataclass
class BranchReport:
    verdict: str            # "unbranched" | "branched"
    rank: int
    nvars: int


def branch_test(model: TwistorModel, params, zeta,
                cfg: SolveConfig | None = None) -> BranchReport:
    """Multiplicity-one test of a section inside its incidence fiber.

    The section is unbranched at the base point when the defining system
    plus the incidence conditions pinning its fiber value has full-rank
    Jacobian there (an isolated simple solution).
    """
    cfg = cfg or DEFAULT_CONFIG
    model = model.float_view()
    sys = real_section_system(model)
    p = np.array([float(v) for v in params])
    if not sys.membership(p, tol=cfg.member_tol).passed:
        raise ModelError("branch test requires a point of the section space")
    pt = _float_point(as_p1(zeta))
    amat = incidence_rows(model, pt)
    aug = np.vstack([sys.jacobian_at(p), amat])
    rank = _num_rank(aug, cfg.rank_rtol)
    verdict = "unbranched" if rank == sys.nvars else "branched"
    return BranchReport(verdict, rank, sys.nvars)


@dataclass
class NormalBundleReport:
    splitting: SplittingType | None
    h0: int | None
    h0_minus2: int | None
    degenerate: list
    regular_point: bool


def normal_splitting(model: TwistorModel, params,
                     cfg: SolveConfig | None = None) -> NormalBundleReport:
    """Splitting type of the kernel of the linearized fiber equations.

    Each equation row is its gradient along the embedded section; the kernel
    subsheaf of the coordinate bundle is the normal sheaf of the section.
    An exact model with exact parameters certifies the splitting exactly;
    otherwise it is computed on the float view.
    """
    cfg = cfg or DEFAULT_CONFIG
    params = list(params)
    exact = certifies(model.exact, params)
    if not exact:
        model = model.float_view()
        params = [float(v) for v in params]
    sys = real_section_system(model)
    membership = sys.membership(params, tol=cfg.member_tol)
    if not membership.passed:
        raise ModelError("normal splitting requires a point of the section space")
    polys = model.section_basis.embed(params)
    regular = True
    if sys.expected_regular_rank is not None and len(sys):
        regular = sys.jacobian_rank(params, cfg.rank_rtol) == sys.expected_regular_rank
    rows = []
    degenerate = []
    for jdx, eq in enumerate(model.equations):
        row = []
        for i in range(len(model.degrees)):
            part = eq.partial(i, model.degrees)
            entry = part.compose_sections(polys)
            row.append(entry)
        rows.append(row)
        locs = _row_common_zeros(row, cfg)
        if locs:
            degenerate.append({"equation": jdx, "locations": locs})
    if degenerate:
        return NormalBundleReport(None, None, None, degenerate, regular)
    splitting = kernel_splitting(rows, list(model.degrees),
                                 [eq.twist for eq in model.equations],
                                 exact=exact, rank_rtol=cfg.rank_rtol)
    return NormalBundleReport(splitting, splitting.h0(0), splitting.h0(-2),
                              [], regular)


def _row_common_zeros(row, cfg: SolveConfig):
    """Base points where every entry of a linearization row vanishes."""
    floats = [e.to_float() for e in row]
    scale = max((max(abs(c) for c in e.coeffs) for e in floats
                 if e.coeffs), default=0.0)
    if scale == 0.0:
        return ["everywhere"]
    tol = 1e-8 * (1.0 + scale)
    locs = []
    lead = None
    for e in floats:
        if not e.is_zero(tol):
            lead = e
            break
    if lead is None:
        return ["everywhere"]
    trimmed = lead.trimmed(tol)
    if len(trimmed) > 1:
        for root in np.roots(list(reversed(trimmed))):
            if all(abs(e.eval_std(root)) <= tol * (1.0 + abs(root)) ** e.degree_bound
                   for e in floats):
                locs.append(("std", complex(root)))
    if all(abs(e.coeffs[-1]) <= tol for e in floats):
        locs.append(("inf", 0j))
    return locs


@dataclass
class ScanEntry:
    params: np.ndarray
    rank: int
    deficient: bool


@dataclass
class SingularReport:
    entries: list
    singular: list
    clusters: list
    regular_count: int
    skipped: int


def singular_scan(model: TwistorModel, points,
                  cfg: SolveConfig | None = None) -> SingularReport:
    """Classify candidate sections by Jacobian rank and cluster the deficient ones."""
    cfg = cfg or DEFAULT_CONFIG
    sys = real_section_system(model.float_view())
    expected = sys.expected_regular_rank
    pts = np.asarray(points, dtype=float)[sys.members(points, cfg.member_tol)]
    skipped = len(points) - len(pts)
    ranks = [0] * len(pts)
    if len(sys):
        svals = np.linalg.svd(sys.jacobian_at(pts), compute_uv=False)
        ranks = [numerical_rank(s, cfg.rank_rtol) for s in svals]
    entries = [ScanEntry(p, rank, expected is not None and rank < expected)
               for p, rank in zip(pts, ranks)]
    singular = [e for e in entries if e.deficient]
    clusters = _cluster([e.params for e in singular], cfg.cluster_radius)
    cluster_info = []
    for members in clusters:
        pts = [singular[i] for i in members]
        rep = pts[0].params
        diam = max((float(np.linalg.norm(a.params - b.params))
                    for a in pts for b in pts), default=0.0)
        cluster_info.append({
            "size": len(pts),
            "representative": [float(v) for v in rep],
            "ranks": sorted({e.rank for e in pts}),
            "diameter": diam,
        })
    return SingularReport(entries, singular, cluster_info,
                          sum(1 for e in entries if not e.deficient), skipped)


def _cluster(points, radius):
    n = len(points)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(points[i] - points[j]) <= radius:
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[ra] = rb
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def sample_sections(model: TwistorModel, n: int, rng,
                    cfg: SolveConfig | None = None):
    """Random points of the section space, by whatever route the model allows."""
    model = model.float_view()
    return _FAMILIES[model.family].sample(model, n, rng, cfg or DEFAULT_CONFIG)


def _quadric_sample(model: TwistorModel, n: int, rng, cfg: SolveConfig):
    """Squared rank-two sections on the cone; fiber solves through random
    points of the fiber when mu is nonzero."""
    if model.mu.is_zero(0.0):
        out = []
        for _ in range(n):
            a = complex(rng.standard_normal(), rng.standard_normal())
            b = complex(rng.standard_normal(), rng.standard_normal())
            variant = "minus" if rng.random() < 0.5 else "plus"
            out.append(squaring_section(a, b, variant))
        return out
    mu = model.mu
    out = []
    attempts = 0
    while len(out) < n and attempts < 6 * n:
        attempts += 1
        zeta = P1Point.std(complex(rng.standard_normal(),
                                   rng.standard_normal()) * 0.5).canonical()
        x = complex(rng.standard_normal(), rng.standard_normal())
        z = complex(rng.standard_normal(), rng.standard_normal())
        if abs(x) < 0.2:
            continue
        muval = mu.eval_point(zeta)
        y = (z * z + muval) / x
        try:
            res = solve_fiber(model, zeta, (x, y, z), cfg)
        except FiberError:
            continue
        out.extend(res.solutions)
    return out[:n]


def _linear_sample(model: TwistorModel, n: int, rng, cfg: SolveConfig):
    return [rng.standard_normal(model.nparams) for _ in range(n)]


def _no_sample(model: TwistorModel, n: int, rng, cfg: SolveConfig):
    return []


def _section_zero_points(poly: CoeffPoly, bound: int):
    """Zeros of a section, as P1 points with multiplicity (infinity included)."""
    trimmed = poly.trimmed(1e-13)
    roots = []
    if len(trimmed) > 1:
        roots = [as_p1(complex(r)) for r in np.roots(list(reversed(trimmed)))]
    return roots + [P1Point.inf(0j)] * (bound - (len(trimmed) - 1))


def _chart_value(target: P1Point, p: P1Point) -> complex:
    v = p.value
    if p.chart == target.chart:
        return v
    return 1.0 / v  # only used for points near the chart overlap


def _polish_double_zero(poly: CoeffPoly, pt: P1Point) -> P1Point:
    """Newton-polish a double zero of the section against its derivative."""
    coeffs = poly.coeffs
    if pt.chart != "std":
        coeffs = list(reversed(coeffs))
    deriv = [m * c for m, c in enumerate(coeffs)][1:]
    dderiv = [m * c for m, c in enumerate(deriv)][1:]
    z = pt.value
    for _ in range(4):
        fp = sum(c * z ** m for m, c in enumerate(deriv))
        fpp = sum(c * z ** m for m, c in enumerate(dderiv))
        if abs(fpp) < 1e-12:
            break
        z = z - fp / fpp
    return P1Point(pt.chart, z)


def _collapse_double_zeros(points, poly: CoeffPoly):
    """Average clustered root pairs and polish them as double zeros."""
    groups = []
    for p in points:
        for g in groups:
            if g[0].same_point(p, tol=1e-4):
                g.append(p)
                break
        else:
            groups.append([p])
    out = []
    for g in groups:
        ref = g[0]
        mean = sum(_chart_value(ref, p) for p in g) / len(g)
        pt = P1Point(ref.chart, mean)
        if len(g) > 1:
            pt = _polish_double_zero(poly, pt)
        out.append(pt)
    return out


def _quadric_singular_pairs(model: TwistorModel):
    """Representative antipodal pairs of singular fiber points.

    Returns (pairs, notes); each pair is (point, values) with the antipodal
    partner implied.  For the quadric family these are the cone vertices over
    the zeros of mu (over every base point when mu vanishes identically).
    """
    notes = []
    vertex = (0j,) * len(model.degrees)
    mu = model.mu
    if mu.is_zero(1e-13):
        notes.append("fiberwise cone vertex is singular over the whole base; "
                     "sampling representative base points")
        pts = [P1Point.std(0j), P1Point.std(0.62 + 0.31j),
               P1Point.inf(0.41 - 0.27j)]
        return [(p, vertex) for p in pts], notes
    if model.lam is not None:
        points = _section_zero_points(model.lam, 2)
    else:
        points = _collapse_double_zeros(
            _section_zero_points(mu, 4), mu)
    reps = []
    used = [False] * len(points)
    for i, p in enumerate(points):
        if used[i]:
            continue
        used[i] = True
        anti = p.antipodal()
        for j in range(i + 1, len(points)):
            if not used[j] and points[j].same_point(anti, tol=1e-5):
                used[j] = True
                break
        if not any(p.same_point(q, tol=1e-5) for q, _ in reps):
            reps.append((p, vertex))
    notes.append(f"total-space singular points over {len(reps)} "
                 "antipodal zero pair(s) of the deformation term")
    return reps, notes


def _linear_singular_pairs(model: TwistorModel):
    return [], []


def _cone_singular_pairs(model: TwistorModel):
    """The zero section is fiberwise singular when no equation has constant
    or linear monomials; otherwise no locator applies (pairs None)."""
    has_low = any(sum(exps) < 2 and not coeff.is_zero(1e-13)
                  for eq in model.equations for exps, coeff in eq.monomials)
    if not has_low:
        vertex = (0j,) * len(model.degrees)
        pts = [P1Point.std(0j), P1Point.std(0.62 + 0.31j)]
        return [(p, vertex) for p in pts], [
            "zero section is fiberwise singular (no low-order monomials); "
            "sampling representative base points"]
    return None, ["no registered singular-point locator for this model"]


class _Family(NamedTuple):
    """Per-family fiber reducer, section sampler and singular-pair locator."""

    reduce: Callable      # (model, pt, values, cfg) -> (solutions, family)
    method: str
    complete: bool
    sample: Callable      # (model, n, rng, cfg) -> list of parameter vectors
    singular_pairs: Callable  # model -> (pairs or None, notes)


_FAMILIES = {
    "quadric": _Family(_quadric_reduce, "closed-form", True, _quadric_sample,
                       _quadric_singular_pairs),
    "linear": _Family(_linear_reduce, "linear", True, _linear_sample,
                      _linear_singular_pairs),
    None: _Family(_newton_reduce, "newton-multistart", False, _no_sample,
                  _cone_singular_pairs),
}


@dataclass
class HCClassification:
    verdict: str           # "Hypercomplex" | "WeaklyHypercomplex" | "Undetermined"
    evidence: dict


def classify_hypercomplex(model: TwistorModel,
                          cfg: SolveConfig | None = None) -> HCClassification:
    """Dichotomy test: positive-dimensional section families through singular
    fiber points force the weak verdict; otherwise isolated singular sections
    plus unbranched incidence maps give the strong one."""
    cfg = cfg or DEFAULT_CONFIG
    model = model.float_view()
    rng = np.random.default_rng(cfg.seed)
    sys = real_section_system(model)
    evidence = {"model": model.name, "seed": cfg.seed}
    pairs, notes = _FAMILIES[model.family].singular_pairs(model)
    evidence["notes"] = notes
    if pairs is None:
        evidence["singular_fiber_points"] = "unknown"
        return HCClassification("Undetermined", evidence)
    evidence["singular_fiber_points"] = [
        {"chart": p.chart, "value": [p.value.real, p.value.imag]}
        for p, _ in pairs]
    fibers = []
    for pt, values in pairs:
        try:
            fibers.append((pt, values, solve_fiber(model, pt, values, cfg)))
        except FiberError:
            continue
    families = [e for e in _examine_pairs(model, fibers, cfg) if e]
    evidence["families"] = families
    certified = [f for f in families if f["certified"]]
    if certified:
        evidence["family_dimension"] = max(f["dim"] for f in certified)
        return HCClassification("WeaklyHypercomplex", evidence)
    samples = sample_sections(model, cfg.scan_samples, rng, cfg)
    if not samples and model.equations:
        evidence["scan"] = "no sampler available"
        return HCClassification("Undetermined", evidence)
    zero = np.zeros(model.nparams)
    if sys.membership(zero, tol=cfg.member_tol).passed:
        samples = list(samples) + [zero]
    scan = singular_scan(model, samples, cfg)
    evidence["scan"] = {
        "samples": len(scan.entries),
        "singular_clusters": scan.clusters,
        "regular": scan.regular_count,
    }
    isolated = all(c["diameter"] <= cfg.dedup_radius or c["size"] == 1
                   for c in scan.clusters)
    branch_ok = True
    checks = []
    regular = [e.params for e in scan.entries if not e.deficient]
    rng2 = np.random.default_rng(cfg.seed + 1)
    for _ in range(min(cfg.branch_checks, len(regular))):
        p = regular[int(rng2.integers(len(regular)))]
        zeta = complex(rng2.standard_normal(), rng2.standard_normal()) * 0.6
        rep = branch_test(model, p, zeta, cfg)
        checks.append(rep.verdict)
        if rep.verdict != "unbranched":
            branch_ok = False
    evidence["branch_checks"] = checks
    if isolated and branch_ok:
        return HCClassification("Hypercomplex", evidence)
    return HCClassification("Undetermined", evidence)


def _examine_pairs(model, fibers, cfg: SolveConfig):
    """Corank + continuation certificates for the sections through every
    singular pair, one entry (or None) per (point, values, fiber) item.

    Round j examines the j-th candidate of every pair without a certified
    entry: one stacked SVD of the full Jacobians (system plus the incidence
    rows at the point and its antipodal image) gives each corank and kernel,
    and one Gauss-Newton call on the incidence slices of those rows corrects
    a step along up to two kernel directions of every candidate of corank
    >= 1.  A pair keeps its first confirmed candidate, else its first one of
    corank >= 1.
    """
    sys = real_section_system(model)
    amats, rhs = [], []
    for pt, values, _ in fibers:
        anti = pt.antipodal()
        amats.append(np.vstack([incidence_rows(model, pt),
                                incidence_rows(model, anti)]))
        rhs.append(np.concatenate([
            _incidence_rhs(values),
            _incidence_rhs(_sigma_image_values(model, values, pt.chart))]))
    amats, rhs = np.array(amats), np.array(rhs)
    candidates = []
    for _, _, res in fibers:
        cands = list(res.solutions)
        if res.family is not None:
            cands.extend(res.family.sample(2, np.random.default_rng(cfg.seed + 7)))
        candidates.append([np.asarray(c, dtype=float) for c in cands])
    entries = [None] * len(fibers)
    certified = [False] * len(fibers)
    for j in range(max(map(len, candidates), default=0)):
        pairs = [i for i, c in enumerate(candidates)
                 if j < len(c) and not certified[i]]
        if not pairs:
            break
        sols = np.array([candidates[i][j] for i in pairs])
        jacs = np.concatenate([sys.jacobian_at(sols), amats[pairs]], axis=1)
        _, svals, vh = np.linalg.svd(jacs)
        ranks = [numerical_rank(sv, cfg.rank_rtol) for sv in svals]
        steps = [cfg.continuation_step * (1.0 + np.linalg.norm(sol)) for sol in sols]
        owner, starts = [], []  # continuation rows: candidate, start point
        for c, rank in enumerate(ranks):
            for kdir in vh[c, rank:rank + 2]:
                owner.append(c)
                starts.append(sols[c] + steps[c] * kdir)
        confirmed = [False] * len(pairs)
        if owner:
            src = [pairs[c] for c in owner]
            corr, ok = _gauss_newton(
                sys, *_incidence_slice(amats[src], rhs[src], cfg.rank_rtol),
                starts, cfg)
            member = np.zeros(len(corr), dtype=bool)
            member[ok] = sys.members(corr[ok], cfg.member_tol)
            for row, c in enumerate(owner):
                moved = np.linalg.norm(corr[row] - sols[c]) > max(
                    10 * cfg.dedup_radius, steps[c] / 4)
                confirmed[c] = confirmed[c] or bool(member[row] and moved)
        for c, i in enumerate(pairs):
            corank = sys.nvars - ranks[c]
            if corank >= 1 and (confirmed[c] or entries[i] is None):
                entries[i] = _family_entry(fibers[i], corank, confirmed[c],
                                           sols[c], cfg)
                certified[i] = confirmed[c]
    return entries


def _family_entry(fiber, corank, confirmed, sol, cfg: SolveConfig):
    pt, _, res = fiber
    entry = {
        "point": {"chart": pt.chart, "value": [pt.value.real, pt.value.imag]},
        "corank": int(corank),
        "dim": int(corank),
        "certified": bool(confirmed),
        "solution": [float(v) for v in sol],
    }
    if res.family is not None:
        entry["reducer_family_dim"] = res.family.dim
        entry["samples"] = [[float(v) for v in s]
                            for s in res.family.sample(
                                4, np.random.default_rng(cfg.seed + 11))]
    return entry


def _sigma_image_values(model: TwistorModel, values, from_chart: str):
    """Fiber values of the antipodal image point, in the image point's chart.

    Starting from the standard chart the image lands in the other chart with
    values sign * conj(v_partner); starting from the other chart an extra
    (-1)^degree appears from the transition.
    """
    out = [None] * len(values)
    for i, rule in enumerate(model.rules):
        src = values[rule.partner].conjugate()
        factor = rule.sign if from_chart == "std" else rule.sign * ((-1) ** model.degrees[i])
        out[i] = factor * src
    return tuple(out)


def component_label(params):
    """Sign s with |x0| - |x2| = s*r on the quadric; 'boundary' when both vanish."""
    p = [float(v) for v in params]
    if len(p) != 9:
        raise DimensionError("component labels require the 9-parameter model")
    scale = 1.0 + math.sqrt(sum(v * v for v in p))
    tol_s = _LABEL_TOL * scale
    if all(abs(v) <= tol_s for v in p):
        raise OriginError("both components meet at the origin")
    d = math.hypot(p[0], p[1]) - math.hypot(p[4], p[5])
    r = p[8]
    if abs(r) <= tol_s and abs(d) <= tol_s:
        return "boundary"
    plus = abs(d - r)
    minus = abs(d + r)
    best = 1 if plus <= minus else -1
    if min(plus, minus) > 1e-6 * scale:
        raise ModelError("point does not satisfy the component dichotomy")
    return best


def _hypot_scalar(re, im, exact):
    if exact:
        val = exact_sqrt(re * re + im * im)
        if val is None:
            raise ModelError("modulus is not an exact rational square")
        return val
    return math.hypot(float(re), float(im))


def sym_matrix_model(params, label: int, exact: bool = False):
    """Traceless symmetric matrix pair (B, t) recovered from a quadric section.

    The section determines all pairwise products and square differences of a
    real 4-vector q; the label fixes the trace sign, A = B + (t/4)Id has rank
    at most one, and tr B = 0.
    """
    if label not in (1, -1):
        raise ModelError("label must be +1 or -1")
    p = list(params)
    if len(p) != 9:
        raise DimensionError("matrix model requires the 9-parameter model")
    p = [Fraction(v) for v in p] if exact else [float(v) for v in p]
    x0r, x0i, x1r, x1i, x2r, x2i, z0r, z0i, _ = p
    s = label
    m0 = _hypot_scalar(x0r, x0i, exact)
    m2 = _hypot_scalar(x2r, x2i, exact)
    t = s * (m0 + m2)
    a = [[None] * 4 for _ in range(4)]
    a[0][0] = s * (m0 + x0r) / 2
    a[1][1] = s * (m0 - x0r) / 2
    a[2][2] = s * (m2 + x2r) / 2
    a[3][3] = s * (m2 - x2r) / 2
    a[0][1] = s * x0i / 2
    a[2][3] = -s * x2i / 2
    a[0][2] = (2 * s * z0r - x1r) / 2 / 2
    a[1][3] = (-x1r - 2 * s * z0r) / 2 / 2
    a[1][2] = (2 * s * z0i - x1i) / 2 / 2
    a[0][3] = (2 * s * z0i + x1i) / 2 / 2
    for i in range(4):
        for j in range(i + 1, 4):
            a[j][i] = a[i][j]
    _check_rank_one(a, exact)
    b = [[a[i][j] - (t / 4 if i == j else 0) for j in range(4)]
         for i in range(4)]
    if exact:
        return b, t
    return np.array(b, dtype=float), float(t)


def _check_rank_one(a, exact):
    if exact:
        if exact_rank(a) > 1:
            raise ModelError("recovered products are inconsistent (2x2 minor != 0)")
        return
    scale = max(abs(a[i][j]) for i in range(4) for j in range(4))
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(4):
                for m in range(k + 1, 4):
                    minor = a[i][k] * a[j][m] - a[i][m] * a[j][k]
                    if abs(minor) > _MATRIX_TOL * (1.0 + scale) ** 2:
                        raise ModelError(
                            "recovered products are inconsistent beyond tolerance")


@dataclass
class MatrixOracleReport:
    a: object
    t: object
    b: object
    trace_b: object
    rank_a: int
    displayed_residual: object       # B(B + t/4 Id), equals (3t/4) A
    displayed_residual_norm: float
    product_identity_residual: object  # (B + t/4 Id)(B - 3t/4 Id)
    product_identity_norm: float


def rank_one_matrix_oracle(q) -> MatrixOracleReport:
    """Independent identities for A = q q^T, t = tr A, B = A - (t/4) Id."""
    exact = certifies(True, q)
    n = 4
    if len(q) != n:
        raise DimensionError("oracle expects a real 4-vector")
    q = [Fraction(v) for v in q] if exact else [float(v) for v in q]
    a = [[q[i] * q[j] for j in range(n)] for i in range(n)]
    t = sum(a[i][i] for i in range(n))
    quarter = t / 4
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    b = [[a[i][j] - quarter * ident[i][j] for j in range(n)] for i in range(n)]

    def mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    def add_scaled(x, c):
        return [[x[i][j] + c * ident[i][j] for j in range(n)] for i in range(n)]

    def frob(x):
        return math.sqrt(sum(float(x[i][j]) ** 2 for i in range(n) for j in range(n)))

    displayed = mul(b, add_scaled(b, quarter))
    fixed = mul(add_scaled(b, quarter), add_scaled(b, -3 * quarter))
    rank_a = 0 if all(v == 0 for v in q) else 1
    return MatrixOracleReport(
        a=a, t=t, b=b, trace_b=sum(b[i][i] for i in range(n)),
        rank_a=rank_a,
        displayed_residual=displayed, displayed_residual_norm=frob(displayed),
        product_identity_residual=fixed, product_identity_norm=frob(fixed))
