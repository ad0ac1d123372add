"""Section-level analysis of twistor models.

Membership, fiber incidence, fiber solving, Jacobian rank scans, branch
tests, normal-sheaf splitting and the hypercomplex/weakly-hypercomplex
classification pipeline.  The family table ``_FAMILIES`` holds closed-form
fiber solvers for the quadric family (x*y = z^2 + mu) and for equation-free
bundles; everything else falls back to seeded multistart Newton.
``solve_fibers`` solves a stack of targets on one model in one pass, and
``solve_fiber`` is its one-target view.  Each target is sliced once, to
x0 + y·N (``_incidence_slice``), and a target off its slice meets no real
section, for every solver; Newton steps inside the slices, an
equation-free bundle's fiber is the slice, and the quadric reducer solves
its fiber rows there.  Every stacked product is a gufunc, one matrix or
vector per row (``np.vecdot``, ``np.matvec`` and ``np.vecmat`` round as
the 1-D ``@`` does), so a target's result equals its one-target solve bit
for bit.

Numeric ops (``solve_fiber(s)``, ``branch_test``, ``singular_scan``,
``sample_sections``, ``classify_hypercomplex`` and the float branch of
``normal_splitting``) take the model's float view and float inputs once, at
entry; the helpers below them see floats only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import (DimensionError, FiberError, ModelError, OriginError)
from .exactla import _integer_rank, common_denominator, numerical_rank
from .models import TwistorModel, squaring_sections
from .projline import (CoeffPoly, P1Point, SplittingType, as_p1,
                       kernel_splitting)
from .scalars import abs2, certifies
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

    def __post_init__(self):
        # Newton rows stop within newton_tol and solve_fiber keeps those
        # within member_tol, so a looser newton_tol would drop every row
        if self.newton_tol > self.member_tol:
            raise ValueError(f"newton_tol {self.newton_tol!r} exceeds member_tol = "
                             f"max(tol, 1e-8) = {self.member_tol!r}: solve_fiber "
                             "would drop every Newton section")

    @property
    def member_tol(self) -> float:
        """Membership tolerance of solver output; never tighter than 1e-8."""
        return max(self.tol, 1e-8)


DEFAULT_CONFIG = SolveConfig()

# sections drawn from a positive-dimensional fiber family as its solutions
_FAMILY_SAMPLES = 8
_LABEL_TOL = 1e-9   # relative zero test of component_label
_MATRIX_TOL = 1e-9  # rank cutoff of A in the float sym_matrix_model
# Gauss-Newton step norm ratios read as a halving (linear convergence)
_HALVING_BAND = (0.45, 0.55)
_EPS = float(np.finfo(float).eps)
# det G / (tr G)^d above _CERT_MARGIN * c^2 certifies a Gram whose trace lies
# in _TRACE_RANGE full rank (derived in _slice_steps)
_CERT_MARGIN = 1e3
_TRACE_RANGE = (2.0 ** -400, 2.0 ** 400)
_SIGNS = np.array([1.0, -1.0])  # the two points of a one-dimensional fiber quadric
# bits of the float range the fiber test keeps free above (1 + Σ|v|²)^(D/2):
# coefficients, term counts and the spread of the Newton starts
_RANGE_HEADROOM = 64


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


def _unit_scale(values, homogeneous: bool, exact: bool = False):
    """The values divided by 2^k, and k.  On a homogeneous model, whose
    fibers are cones, 2^k is the power of two nearest the largest |v| (its
    rounded log2, at most 1023 for floats), so the division is exact; else,
    or at a zero or non-finite peak, k = 0.  All-exact values are divided
    exactly, kept exact when ``exact`` and else made floats."""
    values = list(values)
    if certifies(True, values):
        k = 0
        if homogeneous and any(values):
            re, im, den = common_denominator(values)
            k = round(math.log2(max(map(abs, re + im))) - math.log2(den))
        unit = Fraction(2) ** -k
        values = [v * unit for v in values]
        return (values if exact else [float(v) for v in values]), k
    peak = max(map(abs, values), default=0.0)
    k = min(round(math.log2(peak)), 1023) if homogeneous and 0.0 < peak < math.inf else 0
    scale = 2.0 ** k
    return [v / scale for v in values], k


def _norms(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each a[k], bit for bit (the root of its dot)."""
    flat = a.reshape(len(a), -1)
    return np.sqrt(np.vecdot(flat, flat))


def _wide_norms(a: np.ndarray) -> np.ndarray:
    """_norms without overflow, called under np.errstate(over="ignore"): when
    some square overflows, a row whose largest entry is 2^e, e > 500, is
    scaled by 2^(500 - e) and its norm scaled back (both exact); rows with
    smaller entries keep their bits."""
    flat = a.reshape(len(a), -1)
    norms = _norms(flat)
    if math.isinf(sum(norms.tolist())):
        shift = np.maximum(np.frexp(np.abs(flat).max(axis=1, initial=0.0))[1] - 500, 0)
        norms = np.ldexp(_norms(np.ldexp(flat, -shift[:, None])), shift)
    return norms


def _point_on_fiber(model: TwistorModel, pt: P1Point, values, cfg: SolveConfig,
                    degree: int):
    scale = 1.0 + sum(abs2(v) for v in values)
    # the solvers evaluate forms of degree D (the system's, at least 2) at
    # points about √scale in size
    if not degree / 2 * math.log2(scale) <= 1024 - _RANGE_HEADROOM:
        raise FiberError(f"the fiber values are too large: (1 + sum |v|^2)^(D/2) at the "
                         f"system degree D = {degree} comes within 2^{_RANGE_HEADROOM} of "
                         "the float range")
    for eq, coeff_scale in zip(model.equations, model.equation_scales):
        val = eq.eval_at(pt, values)
        if abs(val) > cfg.fiber_tol * scale * coeff_scale:
            return False
    return True


def _incidence(model: TwistorModel, pts, targets):
    """Stacked incidence blocks at pts[k], (k, r, n), and the (re, im) values
    of targets[k], (k, r): the slices of solve_fibers and _examine_pairs and
    the pinned fiber values of _branch_reports.  Coordinate i of degree d at
    z is the vector of z^m, m <= d (z^(d-m) in the chart at infinity), each
    Python's own power, times its embedding matrix: one vector-matrix
    product per point, in one call per coordinate for the whole stack."""
    mats = model.section_basis.complex_matrices()
    degrees = model.degrees
    shape = (len(pts), 2 * len(degrees))
    powvecs = []
    for pt in pts:
        powers = [pt.value ** m for m in range(max(degrees, default=0) + 1)]
        powvecs.append([p for k in degrees
                        for p in (powers[:k + 1] if pt.chart == "std" else powers[k::-1])])
    powvecs = np.array(powvecs, dtype=complex).reshape(len(pts), sum(degrees) + len(degrees))
    crows = np.empty((len(pts), len(degrees), model.nparams), dtype=complex)
    start = 0
    for i, k in enumerate(degrees):  # a stack of (1, d + 1) @ (d + 1, n): gemv, as 1-D @
        np.matmul(powvecs[:, None, start:start + k + 1], mats[i], out=crows[:, i:i + 1])
        start += k + 1
    # the (re, im) rows of each coordinate, in one copy
    amats = crows.view(float).reshape(crows.shape + (2,)).transpose(0, 1, 3, 2)
    values = np.asarray(targets, dtype=complex).view(float).reshape(shape)
    return amats.reshape(shape + (model.nparams,)), values


@dataclass
class FamilyDescriptor:
    """Positive-dimensional solution family (an ellipsoid in kernel coordinates)."""

    dim: int
    center_params: np.ndarray
    basis_params: np.ndarray   # rows: parameter-space directions
    shape: np.ndarray          # (u - u*)^T shape (u - u*) = radius_sq on the family
    radius_sq: float

    def sample(self, n: int, rng) -> np.ndarray:
        """n points of the family, (n, nparams), from one draw of n unit
        directions; row j is the point of the j-th direction."""
        evals, evecs = np.linalg.eigh(self.shape)
        half = evecs @ np.diag(1.0 / np.sqrt(evals)) * math.sqrt(self.radius_sq)
        s = rng.standard_normal((n, len(evals)))
        s /= np.sqrt(np.vecdot(s, s))[:, None]
        return self.center_params + np.vecmat(np.matvec(half, s), self.basis_params)


@dataclass
class FiberSolveResult:
    solutions: list
    complete: bool
    family: FamilyDescriptor | None
    method: str


def _quadric_reduce(model: TwistorModel, x0, nmat, values, cfg: SolveConfig):
    """Closed-form fiber solver for x*y = z^2 + mu, on a stack of targets.

    On a target's incidence slice x0 + y·N the fiber equation is nu·h,
    where nu vanishes at the point and at its antipodal image, and its
    quadratic part is -q(y)·nu^2 for a positive definite q; so every
    fiber-row Hessian is a multiple c_r of one form Q, and the fiber rows
    read F0 + L·y + c·rho with rho = y^T Q y / 2, all read from the slice
    form (on_slice, one call for the stack): the system is quadratic, so
    fiber row r is ỹ^T M_r ỹ, ỹ = (y, 1).  The rows are linear in
    (y, rho), and on their solutions rho = y^T Q y / 2 is one quadric,
    centred by _incidence_slice: two points, one point, empty, or an
    ellipsoid family, the four outcomes read as masks over the stack.  The
    centres are found per kernel dimension of the linear stage, each group
    on its unpadded kernels.  Returns (points, family) per target; the
    component rows are left to solve_fibers' membership filter.
    """
    sys, (k, d) = real_section_system(model), nmat.shape[:2]
    coeffs = sys.on_slice(x0, nmat).coeffs.reshape(k, d + 1, len(sys), d + 1)
    mats = coeffs[:, :, sys.fiber_rows].transpose(0, 2, 1, 3)  # M_r, see SliceSystem
    hess = 2.0 * mats[:, :, :d, :d]
    form = hess[np.arange(k), np.argmax((hess * hess).sum(axis=(2, 3)), axis=1)]
    form = form * np.sign(np.trace(form, axis1=1, axis2=2))[:, None, None]  # Q
    rho = np.einsum("krij,kij->kr", hess, form) / (form * form).sum(axis=(1, 2))[:, None]
    tmat = np.concatenate([2.0 * mats[:, :, :d, d], rho[:, :, None]], axis=2)
    rhs = -mats[:, :, d, d]
    base, kernel = _incidence_slice(tmat, rhs, cfg.rank_rtol)
    with np.errstate(over="ignore"):  # norms of about |v|^2 on a non-cone
        resid_scale = 1.0 + _wide_norms(rhs) + _wide_norms(tmat)
        # an inconsistent linear stage: no real section hits the target
        live = ~(_wide_norms(np.matvec(tmat, base) - rhs) > 1e-8 * resid_scale)
    out = [(np.empty((0, x0.shape[1])), None)] * k
    for group, rows, kern in _kernel_groups(kernel, live):
        b, x0g, ng = base[group], x0[group], nmat[group]

        def to_params(j, u):  # x0 + u[:d]·N on the group's rows j
            return x0g[j] + np.vecmat(u[..., :d], ng[j])

        dmat = np.zeros((len(rows), d + 1, d + 1))
        dmat[:, :d, :d] = form[group] / 2.0
        pmat = kern @ dmat @ kern.transpose(0, 2, 1)
        qvec = np.matvec(2.0 * kern @ dmat, b) - kern[:, :, d]
        cval = np.vecdot(np.vecmat(b, dmat), b) - b[:, d]
        center, _ = _incidence_slice(pmat, -qvec / 2.0, cfg.rank_rtol)
        val = cval + np.vecdot(qvec, center) + np.vecdot(np.vecmat(center, pmat), center)
        vtol = cfg.tol * (1.0 + np.abs(cval) + _norms(b) ** 2)
        empty, point = val > vtol, np.abs(val) <= vtol
        one, rest = np.flatnonzero(point), np.flatnonzero(~empty & ~point)
        if len(one):
            sols = to_params(one, b[one] + np.vecmat(center[one], kern[one]))
            for j, sol in zip(one, sols):
                out[rows[j]] = (sol[None], None)
        if not len(rest):
            continue
        if kern.shape[1] == 1:  # two points, centre ± root along the kernel
            root = np.sqrt(-val[rest] / pmat[rest, 0, 0])
            u = b[rest, None] + (center[rest] + _SIGNS * root[:, None])[:, :, None] * kern[rest]
            for j, pair in zip(rest, to_params(rest[:, None], u)):
                out[rows[j]] = (pair, None)
            continue
        # positive-dimensional families: ellipsoids of dimension kdim-1
        mids = to_params(rest, b[rest] + np.vecmat(center[rest], kern[rest]))
        for j, mid, basis in zip(rest, mids, kern[rest][:, :, :d] @ ng[rest]):
            out[rows[j]] = (np.empty((0, x0.shape[1])), FamilyDescriptor(
                dim=kern.shape[1] - 1, center_params=mid, basis_params=basis,
                shape=pmat[j], radius_sq=float(-val[j])))
    return out


def _kernel_groups(kernel: np.ndarray, mask: np.ndarray) -> list:
    """The rows of ``mask`` grouped by their kernel dimension, lowest first,
    as (index, rows, kernels): the index takes the group from a stack (a
    slice, no copy, when the group is every row), and the kernels come
    without the zero rows that _incidence_slice pads them with."""
    full = kernel.shape[1]
    if mask.all() and (full == 0 or kernel[:, 0].any(axis=1).all()):
        return [(slice(None), np.arange(len(kernel)), kernel)]  # nothing masked or padded
    dims = (kernel != 0).any(axis=2).sum(axis=1)
    groups = []
    for dim in sorted(set(dims[mask].tolist())):
        rows = np.flatnonzero(mask & (dims == dim))
        groups.append((rows, rows, kernel[rows, full - dim:]))
    return groups


def _linear_reduce(model: TwistorModel, x0, nmat, values, cfg: SolveConfig):
    """Fiber solver for equation-free bundles: each incidence slice itself."""
    if nmat.shape[1] == 0:
        return [(x[None], None) for x in x0]
    eye = np.eye(nmat.shape[1])
    return [(np.empty((0, x0.shape[1])),
             FamilyDescriptor(dim=len(n), center_params=x, basis_params=n,
                              shape=eye, radius_sq=1.0))
            for x, n in zip(x0, nmat)]


def _gram_steps(jac: np.ndarray, r: np.ndarray, rtol: float) -> np.ndarray:
    """Minimum-norm least-squares solutions of jac[k] @ step[k] = -r[k],
    (k, m, d) and (k, m), by one stacked eigh: the rows _slice_steps does not
    certify.  Each system is first divided by its largest |jac[k]| entry (1
    if jac[k] is zero), which keeps its solution and its Gram G = J^T J
    finite.  A direction is kept when its σ = √λ of G passes numerical_rank
    at c = max(rtol, √(eps·max(m, d))), the floor being the Gram's own
    resolution, since the Gram squares the condition number.  A system with
    a non-finite peak is zeroed: its row stalls and fails _gauss_newton."""
    peak = np.abs(jac).max(axis=(1, 2), initial=0.0)
    finite = np.isfinite(peak)
    peak[(peak == 0.0) | ~finite] = 1.0
    jac, r = jac / peak[:, None, None], r / peak[:, None]
    if not finite.all():
        jac[~finite], r[~finite] = 0.0, 0.0
    jact = jac.transpose(0, 2, 1)
    # matmul computes J^T J from one buffer by syrk, about twice as slow on
    # these stacks as gemm from a copy of J^T, with the same bits
    lam, vec = np.linalg.eigh(jact.copy() @ jac)  # ascending; numerical_rank reads descending
    d = lam.shape[1]
    rank = numerical_rank(np.sqrt(np.maximum(lam[:, ::-1], 0.0)),
                          max(rtol, math.sqrt(_EPS * max(jac.shape[1:]))))
    inv = np.divide(-1.0, lam, out=np.zeros_like(lam),
                    where=np.arange(d) >= d - rank[:, None])
    coef = inv[:, :, None] * (vec.transpose(0, 2, 1) @ (jact @ r[:, :, None]))
    return (vec @ coef)[:, :, 0]


def _slice_steps(half: np.ndarray, y1: np.ndarray, r: np.ndarray, degree: int,
                 rtol: float, certify=None):
    """Minimum-norm least-squares steps of J[k] @ step[k] = -r[k] and the
    mask of the rows certified full rank, from the blocks H = half
    (k, m, d + 1) of SliceSystem.values at y1 = ỹ: J = D·H[:, :, :d] with
    D = degree, and r = H·ỹ as that call returned it.

    The rows in ``certify`` (every row if None) first try a certificate on
    P = H[:, :d]^T·H, whose g = P[:, :d] is G/D² for the Gram G = J^T J.  For
    a positive semidefinite g, λ_min/λ_max ≥ det g/(tr g)^d, as λ_max ≤ tr g
    and det g ≤ λ_min·λ_max^(d-1); the ratio is scale invariant, so g needs
    no normalising.  A row whose tr g lies in [2^-400, 2^400], where g
    neither overflows nor underflows below eps·tr g, is certified when
    det(g/tr g) > _CERT_MARGIN·c², c being _gram_steps' cutoff.  The margin
    covers rounding: the LU determinant is the exact one of g/tr g + E,
    ‖E‖ ≤ p·eps, and eigh's eigenvalues lie within q·eps·λ_max of G's, p and
    q of order d² (Björck 1996).  If eigh finds rank < d, λ_min ≤
    (c² + 2q·eps)·λ_max, so |det(g/tr g + E)| ≤ (1 + 2q + p)·c² as c² ≥ eps,
    and _CERT_MARGIN bounds 1 + 2q + p with room: eigh keeps every certified
    row at full rank.  The bound is nearly tight at d = 2 (rows eigh calls
    rank deficient reach 1.01·c²) and below 0.15·c² for d ≥ 3.  A certified
    row steps by -g⁻¹·(P·ỹ)/D from one stacked LU solve; P·ỹ = J^T r/D, and
    both carry a rounding error of about eps·|H|²·|ỹ| (r = H·ỹ errs by
    eps·|H|·|ỹ|).  Every other row (a zero-padded kernel direction, a zero
    or non-finite H, a scale out of range, an ill-conditioned Gram) steps by
    _gram_steps on (J, r).  Each product and factorization is a stacked
    gufunc, one matrix at a time, so rows never interact.
    """
    k, m, width = half.shape
    d = width - 1
    tried = k if certify is None else np.count_nonzero(certify)
    if not tried:
        return _gram_steps(degree * half[:, :, :d], r, rtol), np.zeros(k, dtype=bool)
    h = half if tried == k else half[certify]
    with np.errstate(over="ignore", invalid="ignore"):  # a huge H falls out of range
        top = h[:, :, :d].transpose(0, 2, 1) @ h  # P, (tried, d, d + 1)
    gram = top[:, :, :d]
    trace = gram.trace(axis1=1, axis2=2)
    passed = (trace >= _TRACE_RANGE[0]) & (trace <= _TRACE_RANGE[1])  # NaN fails
    bound = _CERT_MARGIN * max(rtol, math.sqrt(_EPS * max(m, d))) ** 2
    if np.count_nonzero(passed) == tried:
        passed = np.linalg.det(gram / trace[:, None, None]) > bound
    else:
        passed[passed] = np.linalg.det(gram[passed] / trace[passed, None, None]) > bound
    if np.count_nonzero(passed) == k:
        return np.linalg.solve(gram, top @ y1[:, :, None])[:, :, 0] / -degree, passed
    certified = np.zeros(k, dtype=bool)
    certified[slice(None) if certify is None else certify] = passed
    step = np.empty((k, d))
    if np.count_nonzero(passed):
        rhs = top[passed] @ y1[certified][:, :, None]
        step[certified] = np.linalg.solve(gram[passed], rhs)[:, :, 0] / -degree
    rest = ~certified
    step[rest] = _gram_steps(degree * half[rest, :, :d], r[rest], rtol)
    return step, certified


def _incidence_slice(amats, rhs, rtol: float):
    """The solutions of each incidence block amats[k] @ x = rhs[k], (k, r, n)
    and (k, r), as a slice base[k] + kernel[k]·y: the fiber targets of
    solve_fibers, the singular pairs of _examine_pairs and the quadric
    reducer's linear stages and centres.

    One stacked SVD with the numerical_rank cutoff gives the minimum-norm
    solutions base (k, n) and orthonormal kernel bases (k, d, n); a basis of
    smaller dimension is padded with zero rows up to the largest one.
    """
    u, svals, vh = np.linalg.svd(amats)
    p = svals.shape[1]
    ranks = numerical_rank(svals, rtol)
    low = ranks.min()
    if low == p:  # every block of full rank: no value to cut
        inv = 1.0 / svals
    else:
        inv = np.divide(1.0, svals, out=np.zeros_like(svals),
                        where=np.arange(p) < ranks[:, None])
    coef = np.einsum("krj,kr->kj", u[:, :, :p], rhs) * inv
    base = np.einsum("kjn,kj->kn", vh[:, :p], coef)
    if low == ranks.max():  # one kernel dimension: no row to pad
        return base, vh[:, low:].copy()
    return base, vh[:, low:] * (np.arange(low, vh.shape[1]) >= ranks[:, None])[..., None]


def _gauss_newton(sys, base, kernel, x0, cfg: SolveConfig, slices):
    """Gauss-Newton for the system on incidence slices, on every row of
    ``x0`` at once; rows never interact.

    Row k starts projected onto its slice base + y·kernel (see
    _incidence_slice), slice slices[k]; one slice of shape (1, n), (1, d, n)
    is shared by every row.  It iterates in the slice coordinates y: the
    system restricted to the slices once (RealEquationSystem.on_slice, one
    build per slice, not per row) gives the residuals r and their slice form
    H (SliceSystem.values), and _slice_steps the minimum-norm step in y.
    Only unconverged rows are stepped; a row stops when its residual is
    within newton_tol*(1+|x|^2), kept from the pass that formed its x, or
    its step stalls.  The per-row state is compacted by one index array only
    on a pass where some row stops.  Each pass forms x = base + y·kernel of
    the rows it stepped, for their thresholds and the stall test.  At the
    end every row's x is formed, and only the rows stopped by the stall test
    and those still moving after max_iter passes are evaluated once more,
    for the converged mask; a row stopped by its residual is converged as
    that pass decided, which a fresh evaluation repeats bit for bit.  A row
    whose step norm halved on two consecutive iterations, as at a singular
    root where Newton only halves the error, takes a double step (Griewank
    1985).  Each row tries the full-rank certificate of _slice_steps, made
    on its unnormalised Gram H^T H with no Jacobian stack (one LU solve
    instead of an eigh), until its Gram fails it or its scale leaves the
    certificate's range once; from then on it steps by the normalised eigh
    alone, so rows near a rank drop, as on the A2 and A3 cones, do not pay
    for a determinant on every pass.  Returns the final rows and a mask of
    the converged ones.
    """
    x = np.array(x0, dtype=float)
    restricted = sys.on_slice(base, kernel)
    owner = np.asarray(slices)
    if len(base) > 1:
        base, kernel = base[owner], kernel[owner]
    y = np.ones((len(x), kernel.shape[1] + 1))  # (y, 1) per row
    y[:, :-1] = np.einsum("kn,kdn->kd", x - base, kernel)
    xa = restricted.points(y, owner)
    tol = cfg.newton_tol * (1.0 + (xa * xa).sum(axis=1))
    # per moving row: its index, its slice, its (y, 1) (written back to y
    # when it stops), its last step norm, whether that step halved, and
    # whether every step so far was certified
    active, rows, ya = np.arange(len(x)), owner, y
    last = np.full(len(x), np.inf)
    halved = np.zeros(len(x), dtype=bool)
    certify = np.ones(len(x), dtype=bool)
    undecided = []  # the rows stopped by a stall, then those cut off by max_iter
    lo, hi = _HALVING_BAND
    for _ in range(cfg.max_iter):
        r, half = restricted.values(ya, rows)
        moving = ~(np.abs(r).max(axis=1, initial=0.0) <= tol)  # NaN keeps moving
        left = np.count_nonzero(moving)
        if not left:
            break
        if left < len(moving):
            y[active] = ya
            keep = np.flatnonzero(moving)
            active, rows, ya = active[keep], rows[keep], ya[keep]
            r, half = r[keep], half[keep]
            last, halved, certify = last[keep], halved[keep], certify[keep]
        step, certify = _slice_steps(half, ya, r, restricted.degree, cfg.rank_rtol, certify)
        norm = np.sqrt((step * step).sum(axis=1))  # np.linalg.norm, less overhead
        halving = (lo * last < norm) & (norm < hi * last)
        double = halving & halved
        if np.count_nonzero(double):
            step[double] *= 2.0
        ya[:, :-1] += step
        xa = restricted.points(ya, rows)
        sq = (xa * xa).sum(axis=1)
        last, halved, tol = norm, halving, cfg.newton_tol * (1.0 + sq)
        moved = norm > 1e-15 * (1.0 + np.sqrt(sq))
        if np.count_nonzero(moved) < len(moved):
            y[active] = ya
            undecided.append(active[~moved])
            keep = np.flatnonzero(moved)
            active, rows, ya, tol = active[keep], rows[keep], ya[keep], tol[keep]
            last, halved, certify = last[keep], halved[keep], certify[keep]
    else:
        undecided.append(active)
    y[active] = ya
    x = restricted.points(y, owner)
    ok = np.ones(len(x), dtype=bool)
    if undecided:
        idx = np.concatenate(undecided)
        r, _ = restricted.values(y[idx], owner[idx])
        tol = cfg.newton_tol * (1.0 + (x[idx] * x[idx]).sum(axis=1))
        ok[idx] = np.abs(r).max(axis=1, initial=0.0) <= tol
    return x, ok


def _dedup(stack: np.ndarray, radius) -> list:
    """Indices of the rows of a (k, n) stack farther than radius from every
    earlier kept one, in input order: each kept row drops the remaining
    rows within radius of it, so the cost is one distance pass per kept
    row.  Up to _FAMILY_SAMPLES rows are first tested all pairwise at once
    (a family's samples are all kept); the distances are the loop's own, so
    both routes keep the same rows."""
    if len(stack) <= _FAMILY_SAMPLES:
        gaps = stack[:, None] - stack[None]
        if np.count_nonzero(np.sqrt((gaps * gaps).sum(axis=2)) > radius) == \
                len(stack) * (len(stack) - 1):
            return list(range(len(stack)))
    rest, out = np.arange(len(stack)), []
    while len(rest):
        first, rest = rest[0], rest[1:]
        out.append(first)
        gaps = stack[rest] - stack[first]
        rest = rest[np.sqrt((gaps * gaps).sum(axis=1)) > radius]
    return out


def _sorted_solutions(points: np.ndarray) -> list:
    """The rows of a (k, n) stack sorted by their entries rounded to 9
    decimals after dividing by the power of two above the largest entry, so
    the keys cannot overflow; one lexsort of the key array, stable, as a
    sort on the row tuples is."""
    shift = -math.frexp(float(np.abs(points).max(initial=0.0)))[1]
    keys = np.ldexp(points, shift).round(9)
    return list(points[np.lexsort(keys.T[::-1])])


def _newton_multistart(model, x0, nmat, values, cfg: SolveConfig):
    """Converged rows of multistart Gauss-Newton on each slice x0[k] + y·N[k],
    from starts of the target's scale, one array per target; solve_fibers
    deduplicates them.  Every target draws the same starts from the seed,
    and every start of every target runs in one _gauss_newton call."""
    sys = real_section_system(model)
    starts = np.random.default_rng(cfg.seed).standard_normal((cfg.multistart, sys.nvars))
    scales = np.array([1.0 + math.sqrt(sum(abs2(v) for v in vals)) for vals in values])
    x, ok = _gauss_newton(sys, x0, nmat,
                          (starts * scales[:, None, None]).reshape(-1, sys.nvars), cfg,
                          np.repeat(np.arange(len(x0)), cfg.multistart))
    x, ok = x.reshape(len(x0), cfg.multistart, -1), ok.reshape(len(x0), -1)
    return [(rows[mask], None) for rows, mask in zip(x, ok)]


def _fiber_target(model: TwistorModel, zeta, target, cfg: SolveConfig, degree: int):
    """A target's canonical base point, its fiber values there divided by
    the solve's scale, and that scale; FiberError refuses a target that is
    not finite, too large for the fiber test at the system degree, or off
    the fiber."""
    if isinstance(target, FiberPoint):
        zeta, target = target.zeta, target.values
    try:
        given = _float_point(zeta if isinstance(zeta, P1Point) else P1Point.std(zeta))
        values = tuple(complex(v) for v in target)
    except OverflowError:  # an exact number beyond the float range
        raise FiberError("the base point and the fiber values must be finite") from None
    if len(values) != len(model.degrees):
        raise DimensionError("fiber value count differs from coordinate count")
    if not all(map(cmath.isfinite, (given.value,) + values)):
        raise FiberError("the base point and the fiber values must be finite")
    pt = given.canonical()
    if pt is not given:
        values = tuple(v * pt.value ** k for v, k in zip(values, model.degrees))
    values, k = _unit_scale(values, model.homogeneous)
    if not _point_on_fiber(model, pt, values, cfg, degree):
        raise FiberError("target does not satisfy the fiber equations")
    return pt, values, 2.0 ** k


def solve_fibers(model: TwistorModel, points, targets,
                 cfg: SolveConfig | None = None) -> list:
    """solve_fiber on a stack of targets on one model, in one pass.

    Entry k is the FiberSolveResult of base point points[k] and fiber values
    targets[k] (or of the FiberPoint targets[k], its point given as None),
    or the FiberError that refuses that target; a wrong value count raises
    DimensionError.  The targets share one incidence slice call, one
    reducer call per kernel dimension (one in practice), one membership
    test of every candidate section and one deduplication per target, and
    each entry equals the one-target solve bit for bit: every stacked
    product is a gufunc, one matrix or vector per row.
    """
    cfg = cfg or DEFAULT_CONFIG
    model = model.float_view()
    if len(points) != len(targets):
        raise DimensionError("solve_fibers takes one base point per target")
    family, sys = _FAMILIES[model.family], real_section_system(model)
    results, parsed = [None] * len(targets), []
    for k, (zeta, target) in enumerate(zip(points, targets)):
        try:
            parsed.append((k,) + _fiber_target(model, zeta, target, cfg,
                                               max(sys.degree, 2)))
        except FiberError as exc:
            results[k] = exc
    if not parsed:
        return results
    live, pts, vals, scales = zip(*parsed)
    amats, rhs = _incidence(model, pts, vals)
    x0, nmat = _incidence_slice(amats, rhs, cfg.rank_rtol)
    # off its slice, a target meets no real section
    sliced = _norms(np.matvec(amats, x0) - rhs) <= 1e-8 * (1.0 + _norms(rhs))
    found = [(np.empty((0, sys.nvars)), None)] * len(live)
    for group, rows, kernel in _kernel_groups(nmat, sliced):
        solved = family.reduce(model, x0[group], kernel, [vals[i] for i in rows], cfg)
        for i, out in zip(rows, solved):
            found[i] = out
    found = [(fam.sample(_FAMILY_SAMPLES, np.random.default_rng(cfg.seed))
              if fam is not None else sols, fam) for sols, fam in found]
    member = sys.members(np.concatenate([sols for sols, _ in found]), cfg.member_tol)
    radius = cfg.dedup_radius
    if family.reduce is _newton_multistart:
        radius = max(radius, math.sqrt(cfg.newton_tol))
    end = 0
    for k, (sols, fam), scale in zip(live, found, scales):
        start, end = end, end + len(sols)
        sols = sols[member[start:end]]
        sols = sols[_dedup(sols, radius)]
        # exact, as scale is a power of two; scaling down never overflows
        limit = np.finfo(float).max / max(scale, 1.0)
        scaled = [sols] + ([fam.center_params, fam.basis_params] if fam is not None else [])
        if any(np.abs(a).max(initial=0.0) > limit for a in scaled):
            results[k] = FiberError("the solutions overflow the float range once "
                                    "scaled back")
            continue
        if fam is not None:
            fam.center_params = fam.center_params * scale
            fam.basis_params = fam.basis_params * scale
        results[k] = FiberSolveResult(_sorted_solutions(sols * scale), family.complete,
                                      fam, family.method)
    return results


def solve_fiber(model: TwistorModel, zeta, target,
                cfg: SolveConfig | None = None) -> FiberSolveResult:
    """All real sections of the model meeting a given fiber point: the
    one-target view of solve_fibers, raising the FiberError that refuses
    the target.

    The target is sliced once, for every family: the incidence rows at the
    point cut the parameters to x0 + y·N, and a target off that slice (rows
    inconsistent beyond 1e-8 relative) has no solutions.  On the slice,
    closed-form families use their reducer (complete); other models use
    multistart Newton with heuristic completeness.  The solve runs in the
    canonical chart of the point: values given in the other chart are
    multiplied by w**k_i, w the new chart value.  On a homogeneous model the
    solve is scale covariant, solve_fiber(s*v) = s*solve_fiber(v) for real
    s > 0 (bit for bit when s is a power of two): the target is solved at
    unit size (_unit_scale) and the solutions and family multiplied back.
    On any other model a target whose (1 + Σ|v|²)^(D/2), D the system
    degree (at least 2), comes within 2^64 of the float range is refused
    before any solver runs.  A family's
    points stay one stacked array through one membership test and the
    deduplication; only the kept ones are scaled and sorted.  Newton points
    are deduplicated at max(dedup_radius, √newton_tol): a row stops once its
    residual is within newton_tol, which leaves it about newton_tol/σ_min(J)
    from its root (√newton_tol at a double root), so with a loose newton_tol
    two rows of one root can lie farther apart than dedup_radius.
    √1e-12 is the default dedup_radius, 1e-6.
    """
    (res,) = solve_fibers(model, [zeta], [target], cfg)
    if isinstance(res, FiberError):
        raise res
    return res


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
    Jacobian there (an isolated simple solution).  On a homogeneous model it
    is tested at unit size (_unit_scale), exact beyond the float range too.
    """
    cfg = cfg or DEFAULT_CONFIG
    model = model.float_view()
    p = np.array(_unit_scale(params, model.homogeneous)[0])
    if not real_section_system(model).membership(p, tol=cfg.member_tol).passed:
        raise ModelError("branch test requires a point of the section space")
    return _branch_reports(model, [p], [zeta], cfg)[0]


def _branch_reports(model: TwistorModel, params, zetas, cfg: SolveConfig):
    """Branch verdicts of sections params[k] (members) at base points
    zetas[k], from one stacked SVD of [J(p); A(zeta)], each J(p) divided by
    the power of two nearest its peak, so the cutoff does not move with |p|."""
    sys = real_section_system(model)
    params = np.reshape(params, (len(zetas), sys.nvars))
    amats, _ = _incidence(model, [_float_point(as_p1(z)) for z in zetas],
                          np.zeros((len(zetas), len(model.degrees))))
    jac = sys.jacobian_at(params)
    peak = np.abs(jac).max(axis=(1, 2), initial=0.0)
    shift = np.round(np.log2(peak, out=np.zeros_like(peak), where=peak > 0.0)).astype(int)
    jacs = np.concatenate([np.ldexp(jac, -shift[:, None, None]), amats], axis=1)
    ranks = numerical_rank(np.linalg.svd(jacs, compute_uv=False), cfg.rank_rtol)
    return [BranchReport("unbranched" if rank == sys.nvars else "branched",
                         rank, sys.nvars) for rank in ranks.tolist()]


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
    otherwise it is computed on the float view.  On a homogeneous model the
    section is taken at unit size (_unit_scale), exactly on the exact path.
    """
    cfg = cfg or DEFAULT_CONFIG
    params = list(params)
    exact = certifies(model.exact, params)
    if not exact:
        model = model.float_view()
    params, _ = _unit_scale(params, model.homogeneous, exact)
    sys = real_section_system(model)
    membership = sys.membership(params, tol=cfg.member_tol)
    if not membership.passed:
        raise ModelError("normal splitting requires a point of the section space")
    polys = model.section_basis.embed(params)
    regular = True
    if model.expected_regular_rank is not None and len(sys):
        regular = sys.jacobian_rank(params, cfg.rank_rtol) == model.expected_regular_rank
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
    """Classify candidate sections (a list or a stacked array, taken as
    given) by Jacobian rank and cluster the deficient ones."""
    cfg = cfg or DEFAULT_CONFIG
    sys = real_section_system(model.float_view())
    expected = model.expected_regular_rank
    points = np.asarray(points, dtype=float)
    pts = points[sys.members(points, cfg.member_tol)]
    skipped = len(points) - len(pts)
    svals = np.linalg.svd(sys.jacobian_at(pts), compute_uv=False)
    ranks = numerical_rank(svals, cfg.rank_rtol).tolist()
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
                    cfg: SolveConfig | None = None) -> np.ndarray:
    """Random points of the section space, by whatever route the model
    allows, as one (m, nparams) array, m <= n (m = 0 without a sampler)."""
    model = model.float_view()
    return _FAMILIES[model.family].sample(model, n, rng, cfg or DEFAULT_CONFIG)


def _quadric_sample(model: TwistorModel, n: int, rng, cfg: SolveConfig):
    """Squared rank-two sections on the cone, from one draw of (a, b) and
    the variant; fiber solves through random points of the fiber when mu is
    nonzero, in batches of targets, at most 6n attempts in all."""
    if model.mu.is_zero(0.0):
        draw = rng.standard_normal((n, 5))
        return squaring_sections(draw[:, 0] + 1j * draw[:, 1],
                                 draw[:, 2] + 1j * draw[:, 3], draw[:, 4] < 0.0)
    mu = model.mu
    out = []
    attempts = 0
    while len(out) < n and attempts < 6 * n:
        # a target meets at most two real sections and mostly two: half the
        # missing count, and two more for the targets that meet none
        batch = min((n - len(out) + 1) // 2 + 2, 6 * n - attempts)
        attempts += batch
        draw = rng.standard_normal((batch, 6))
        x, z = draw[:, 2] + 1j * draw[:, 3], draw[:, 4] + 1j * draw[:, 5]
        keep = np.abs(x) >= 0.2
        pts = [P1Point.std(complex(w)).canonical()
               for w in (draw[keep, 0] + 1j * draw[keep, 1]) * 0.5]
        targets = [(xv, (zv * zv + mu.eval_point(pt)) / xv, zv)
                   for pt, xv, zv in zip(pts, x[keep].tolist(), z[keep].tolist())]
        for res in solve_fibers(model, pts, targets, cfg):
            if not isinstance(res, FiberError):
                out.extend(res.solutions)
    return np.array(out[:n]).reshape(-1, model.nparams)


def _linear_sample(model: TwistorModel, n: int, rng, cfg: SolveConfig):
    return rng.standard_normal((n, model.nparams))


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


def _collapse_double_zeros(points):
    """Average clustered root pairs: the mean of the two roots of a double
    zero is exact to O(eps), where each root alone is off by O(sqrt(eps))."""
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
        out.append(P1Point(ref.chart, mean))
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
        points = _collapse_double_zeros(_section_zero_points(mu, 4))
    reps = []
    for p in points:  # one zero of each antipodal pair
        if not any(p.same_point(q, tol=1e-5) or p.same_point(q.antipodal(), tol=1e-5)
                   for q, _ in reps):
            reps.append((p, vertex))
    notes.append(f"total-space singular points over {len(reps)} "
                 "antipodal zero pair(s) of the deformation term")
    return reps, notes


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

    # (model, x0s, Ns, values, cfg) -> per target (points, None) or (no points, family)
    reduce: Callable
    method: str
    complete: bool
    sample: Callable      # (model, n, rng, cfg) -> (m, nparams) array, m <= n
    singular_pairs: Callable  # model -> (pairs or None, notes)


_FAMILIES = {
    "quadric": _Family(_quadric_reduce, "closed-form", True, _quadric_sample,
                       _quadric_singular_pairs),
    "linear": _Family(_linear_reduce, "linear", True, _linear_sample,
                      lambda model: ([], [])),
    None: _Family(_newton_multistart, "newton-multistart", False,
                  lambda model, n, rng, cfg: np.empty((0, model.nparams)),
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
    evidence = {"model": model.name, "seed": cfg.seed}
    pairs, notes = _FAMILIES[model.family].singular_pairs(model)
    evidence["notes"] = notes
    if pairs is None:
        evidence["singular_fiber_points"] = "unknown"
        return HCClassification("Undetermined", evidence)
    evidence["singular_fiber_points"] = [
        {"chart": p.chart, "value": [p.value.real, p.value.imag]}
        for p, _ in pairs]
    solved = solve_fibers(model, [pt for pt, _ in pairs], [values for _, values in pairs],
                          cfg)
    fibers = [(pt, values, res) for (pt, values), res in zip(pairs, solved)
              if not isinstance(res, FiberError)]
    families = [e for e in _examine_pairs(model, fibers, cfg) if e]
    evidence["families"] = families
    certified = [f for f in families if f["certified"]]
    if certified:
        evidence["family_dimension"] = max(f["dim"] for f in certified)
        return HCClassification("WeaklyHypercomplex", evidence)
    samples = sample_sections(model, cfg.scan_samples, rng, cfg)
    if not len(samples) and model.equations:
        evidence["scan"] = "no sampler available"
        return HCClassification("Undetermined", evidence)
    # the zero section, kept by the scan's member filter when it is a member
    scan = singular_scan(model, np.concatenate([samples, np.zeros((1, model.nparams))]),
                         cfg)
    evidence["scan"] = {
        "samples": len(scan.entries),
        "singular_clusters": scan.clusters,
        "regular": scan.regular_count,
    }
    isolated = all(c["diameter"] <= cfg.dedup_radius or c["size"] == 1
                   for c in scan.clusters)
    regular = [e.params for e in scan.entries if not e.deficient]
    rng2 = np.random.default_rng(cfg.seed + 1)
    picks, zetas = [], []
    for _ in range(min(cfg.branch_checks, len(regular))):
        picks.append(regular[int(rng2.integers(len(regular)))])
        zetas.append(complex(rng2.standard_normal(), rng2.standard_normal()) * 0.6)
    checks = evidence["branch_checks"] = [
        rep.verdict for rep in _branch_reports(model, picks, zetas, cfg)]
    if isolated and all(v == "unbranched" for v in checks):
        return HCClassification("Hypercomplex", evidence)
    return HCClassification("Undetermined", evidence)


def _examine_pairs(model, fibers, cfg: SolveConfig):
    """Corank + continuation certificates for the sections through every
    singular pair, one entry (or None) per (point, values, fiber) item.

    A pair's candidates are its fiber solutions, then two samples of its
    family.  Two stages examine the first candidate of every pair, then the
    others of the pairs left uncertified: each takes every corank and kernel
    of [J(p); A(zeta)], the system plus the incidence rows at the point
    (rows at the antipodal point add nothing), from one stacked SVD, and
    corrects a step from each candidate along up to two kernel directions
    in one Gauss-Newton call, each row on its pair's incidence slice, the
    system restricted to the slices of that stage's pairs only.  A pair
    keeps its first confirmed candidate, else its first of corank >= 1.
    """
    sys, entries, cands = real_section_system(model), [None] * len(fibers), []
    for _, _, res in fibers:
        found = list(res.solutions)
        if res.family is not None:
            found.extend(res.family.sample(2, np.random.default_rng(cfg.seed + 7)))
        cands.append(np.array(found, dtype=float).reshape(len(found), sys.nvars))
    owner = np.repeat(np.arange(len(fibers)), [len(c) for c in cands])
    if not len(owner):
        return entries
    amats, rhs = _incidence(model, *zip(*[fiber[:2] for fiber in fibers]))
    base, kernel = _incidence_slice(amats, rhs, cfg.rank_rtol)
    sols, first = np.concatenate(cands), np.concatenate([[True], owner[1:] != owner[:-1]])
    coranks, confirmed = np.zeros(len(owner), dtype=int), np.zeros(len(owner), dtype=bool)

    def examine(stage):
        rows = np.flatnonzero(stage)
        jacs = np.concatenate([sys.jacobian_at(sols[rows]), amats[owner[rows]]], axis=1)
        _, svals, vh = np.linalg.svd(jacs)
        ranks = numerical_rank(svals, cfg.rank_rtol)
        coranks[rows] = sys.nvars - ranks
        dirs = ranks[:, None] + np.arange(2)
        cand, which = np.nonzero(dirs < sys.nvars)  # continuation rows
        src = rows[cand]
        if len(src):
            steps = cfg.continuation_step * (1.0 + _norms(sols[src]))
            starts = sols[src] + steps[:, None] * vh[cand, dirs[cand, which]]
            pairs, slots = np.unique(owner[src], return_inverse=True)
            corr, ok = _gauss_newton(sys, base[pairs], kernel[pairs], starts, cfg, slots)
            member = np.zeros(len(corr), dtype=bool)
            member[ok] = sys.members(corr[ok], cfg.member_tol)
            moved = _norms(corr - sols[src]) > np.maximum(10 * cfg.dedup_radius, steps / 4)
            confirmed[src[member & moved]] = True

    examine(first)
    certified = np.zeros(len(fibers), dtype=bool)
    certified[owner[confirmed]] = True
    later = ~first & ~certified[owner]
    if later.any():
        examine(later)
    score = 2 * confirmed + (coranks >= 1)  # each pair keeps its first best candidate
    for i in set(owner.tolist()):
        rows = np.flatnonzero(owner == i)
        c = rows[np.argmax(score[rows])]
        if score[c]:
            entries[i] = _family_entry(fibers[i], coranks[c], confirmed[c], sols[c], cfg)
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


def component_label(params):
    """Sign s with |x0| - |x2| = s*r on the quadric; 'boundary' when both vanish.

    The test runs in floats at unit size (_unit_scale), exact sections beyond
    the float range included, with tolerances scaled by 1 + |p|.
    """
    p, _ = _unit_scale(params, True)
    if len(p) != 9:
        raise DimensionError("component labels require the 9-parameter model")
    scale = 1.0 + math.hypot(*p)
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


def sym_matrix_model(params, label: int, exact: bool = False):
    """Traceless symmetric matrix pair (B, t) recovered from a quadric section.

    The section determines all pairwise products and square differences of a
    real 4-vector q; the label fixes the trace sign, A = B + (t/4)Id has rank
    at most one, and tr B = 0.  The float pair is computed at unit size and
    multiplied back, so s·p gives exactly (s·B, s·t) for s = 2^j.
    """
    if label not in (1, -1):
        raise ModelError("label must be +1 or -1")
    p = list(params)
    if len(p) != 9:
        raise DimensionError("matrix model requires the 9-parameter model")
    if exact:
        (x0r, x0i, x1r, x1i, x2r, x2i, z0r, z0i, _), _, den = common_denominator(
            [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in p])
        modulus = _integer_modulus
    else:
        (x0r, x0i, x1r, x1i, x2r, x2i, z0r, z0i, _), k = _unit_scale(p, True)
        den, modulus = 1, math.hypot
    # a is 4*den*A; with the section written as n / den, den*|x0|, den*|x2|
    # and the entries of a are integers on the exact backend (den = 1 on floats)
    s = label
    m0 = modulus(x0r, x0i)
    m2 = modulus(x2r, x2i)
    a = [[None] * 4 for _ in range(4)]
    a[0][0] = 2 * s * (m0 + x0r)
    a[1][1] = 2 * s * (m0 - x0r)
    a[2][2] = 2 * s * (m2 + x2r)
    a[3][3] = 2 * s * (m2 - x2r)
    a[0][1] = 2 * s * x0i
    a[2][3] = -2 * s * x2i
    a[0][2] = 2 * s * z0r - x1r
    a[1][3] = -x1r - 2 * s * z0r
    a[1][2] = 2 * s * z0i - x1i
    a[0][3] = 2 * s * z0i + x1i
    for i in range(4):
        for j in range(i + 1, 4):
            a[j][i] = a[i][j]
    trace = s * (m0 + m2)  # den*t, which is 4*den times t/4
    b = [[a[i][j] - trace if i == j else a[i][j] for j in range(4)]
         for i in range(4)]
    if exact:
        if _integer_rank(a) > 1:
            raise ModelError("recovered products are inconsistent (2x2 minor != 0)")
        quarter = [[None] * 4 for _ in range(4)]  # b / (4 den), one Fraction per pair
        for i in range(4):
            for j in range(i, 4):
                quarter[i][j] = quarter[j][i] = Fraction(b[i][j], 4 * den)
        return quarter, Fraction(trace, den)
    if numerical_rank(np.linalg.svd(np.array(a, dtype=float), compute_uv=False),
                      _MATRIX_TOL) > 1:
        raise ModelError("recovered products are inconsistent beyond tolerance")
    return np.ldexp(np.array(b, dtype=float) / 4, k), math.ldexp(float(trace), k)


def _integer_modulus(re: int, im: int) -> int:
    """|re + i*im|; it must be an integer for |(re + i*im) / den| to be rational."""
    n = re * re + im * im
    root = math.isqrt(n)
    if root * root != n:
        raise ModelError("modulus is not an exact rational square")
    return root


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
