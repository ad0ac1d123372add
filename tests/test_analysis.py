"""Fiber solving, loci detection, classification and the matrix model."""

import inspect
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twistorcheck import (DimensionError, FiberError, GaussianRational, ModelError,
                          OriginError,
                          P1Point, SolveConfig, branch_test,
                          build_deformed, build_quadric, build_smooth_o11,
                          classify_hypercomplex,
                          component_label, evaluate_section, normal_splitting,
                          quadric_params, quadric_tuple, rank_one_matrix_oracle,
                          singular_scan, solve_fiber, solve_fibers,
                          squaring_section, sym_matrix_model)
from twistorcheck.exactla import numerical_rank
from twistorcheck.analysis import (_FAMILIES, FamilyDescriptor, FiberSolveResult,
                                  _examine_pairs,
                                  _gauss_newton, _incidence,
                                  _incidence_slice, _newton_multistart,
                                  sample_sections)
from twistorcheck.projline import SplittingType
from twistorcheck import analysis, models, serialize, systems
from twistorcheck.serialize import jsonable
from twistorcheck.systems import real_section_system
from conftest import ANTIREAL_LAMBDA, double_coefficients, with_real_constant

CFG = SolveConfig(seed=7)


def test_evaluate_section_examples(quadric):
    fp = evaluate_section(quadric, quadric_params(1, -2, 1, 1, 0), 0j)
    assert np.allclose(fp.values, (1, 1, 1))
    fp = evaluate_section(quadric, quadric_params(1, 0, 0, 0, 1), 0j)
    assert np.allclose(fp.values, (1, 0, 0))
    fp = evaluate_section(quadric, np.zeros(9), 0.3 + 0.8j)
    assert np.allclose(fp.values, (0, 0, 0))


def _sigma_image_values(model, values, from_chart: str):
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


def test_evaluate_section_matches_sigma_symmetry(quadric, rng):
    # value at the antipodal point is the rule image of the value at the point
    for _ in range(10):
        p = rng.standard_normal(9)
        z = P1Point("std" if rng.random() < 0.5 else "inf",
                    complex(rng.standard_normal(), rng.standard_normal()))
        fp = evaluate_section(quadric, p, z)
        fq = evaluate_section(quadric, p, z.antipodal())
        expect = _sigma_image_values(quadric, fp.values, fp.zeta.chart)
        assert np.allclose(fq.values, expect, atol=1e-9 * (1 + np.abs(fq.values).max()))


def test_solve_fiber_two_to_one_examples(quadric):
    res = solve_fiber(quadric, 0j, (1, 1, 1), CFG)
    assert len(res.solutions) == 2 and res.complete
    tuples = sorted(quadric_tuple(s)[1].real for s in res.solutions)
    assert tuples == pytest.approx([-2.0, 2.0])
    assert all(abs(quadric_tuple(s)[4]) < 1e-9 for s in res.solutions)

    res = solve_fiber(quadric, 0j, (0, 1, 0), CFG)
    assert len(res.solutions) == 2
    rs = sorted(quadric_tuple(s)[4] for s in res.solutions)
    assert rs == pytest.approx([-1.0, 1.0])

    res = solve_fiber(quadric, 0j, (0, 0, 0), CFG)
    assert len(res.solutions) == 1
    assert np.allclose(res.solutions[0], np.zeros(9))


def test_solve_fiber_rejects_off_fiber(quadric):
    with pytest.raises(FiberError):
        solve_fiber(quadric, 0j, (1, 1, 0.5), CFG)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1, math.nan),
                                 complex(0, -math.inf)])
def test_solve_fiber_rejects_non_finite_values(quadric, deformed, doubled, bad):
    # NaN or infinite values used to give "0 sections, complete", as if the
    # target were off its slice
    for model in (quadric, deformed, doubled):
        for i in range(3):
            values = [1, 1, 1]
            values[i] = bad
            with pytest.raises(FiberError, match="finite"):
                solve_fiber(model, 0.4 - 0.3j, values, CFG)


@pytest.mark.parametrize("zeta", [math.nan, complex(0, math.nan), math.inf,
                                  complex(-math.inf, 1), P1Point.inf(complex(math.nan, 0)),
                                  P1Point.std(complex(1, math.inf))])
def test_solve_fiber_rejects_a_non_finite_zeta(quadric, doubled, zeta):
    # a NaN base point used to end in a LinAlgError from the incidence SVD
    for model in (quadric, doubled):
        with pytest.raises(FiberError, match="finite"):
            solve_fiber(model, zeta, (1, 1, 1), CFG)


def test_solve_fiber_refuses_solutions_beyond_the_float_range(quadric, smooth):
    # the target rescales to unit size, but its two sections have entries of
    # about 2·1e308, which do not fit once scaled back; no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FiberError, match="overflow"):
            solve_fiber(quadric, 0j, (1e308, 1e308, 1e308), CFG)
        # entries up to the largest float are still returned
        assert len(solve_fiber(quadric, 0j, (1e307, 1e307, 1e307), CFG).solutions) == 2
        res = solve_fiber(smooth, 0j, (1e308, -1e308), CFG)
        assert np.abs(res.solutions[0]).max() == 1e308


@pytest.mark.parametrize("values", [(1e200, 1e200, 3e200), (1e160, 1e160, 1e160)])
def test_solve_fiber_refuses_values_beyond_the_fiber_test(deformed, values):
    # the deformed model is not a cone, so the target is tested at its own
    # scale, where 1 + sum |v|^2 overflows; the suite turns numpy's overflow
    # warnings into errors, so none is raised before the refusal
    with pytest.raises(FiberError, match="too large"):
        solve_fiber(deformed, 0.3, values, CFG)
    (refused,) = solve_fibers(deformed, [0.3], [values], CFG)
    assert isinstance(refused, FiberError)


def test_closed_form_norms_do_not_overflow(deformed):
    # the deformed model is not a cone, so its targets keep their scale; the
    # linear stage's residual scale squared entries of about t^2 and warned
    # "overflow encountered in vecdot" from t = 1e80 on (the suite turns
    # the warning into an error); 1e140 is near the fiber bound
    for exponent in range(8, 141, 4):
        t = 10.0 ** exponent
        res = solve_fiber(deformed, 0.3, (t, t, t), CFG)
        assert res.method == "closed-form" and res.solutions == []
        (same,) = solve_fibers(deformed, [0.3], [(t, t, t)], CFG)
        assert _same_result(same, res)


@pytest.mark.parametrize("name,values", [
    ("a2_cone", (2e102, 4e102, 2e68)), ("a2_cone", (2e105, 4e105, 2e70)),
    ("a3_cone", (1e80, 1.6e81, 2e40))])
def test_newton_targets_beyond_the_degree_bound_are_refused(name, values, request):
    # the A2 and A3 cones are not homogeneous, so Newton starts at the
    # target's own scale, where forms of degree 3 or 4 overflow although
    # 1 + sum |v|^2 does not: these used to warn "overflow encountered in
    # matmul" and report no section
    model = request.getfixturevalue(name)
    with pytest.raises(FiberError, match="too large"):
        solve_fiber(model, 0.4 - 0.3j, values, CFG)
    (refused,) = solve_fibers(model, [0.4 - 0.3j], [values], CFG)
    assert isinstance(refused, FiberError)


def test_newton_targets_within_the_degree_bound_are_solved(a2_cone):
    # 2e60 stays well inside the bound for the degree-3 A2 system
    res = solve_fiber(a2_cone, 0.4 - 0.3j, (2e60, 4e60, 2e40), CFG)
    assert res.method == "newton-multistart"


def _same_result(a, b):
    """Bit-for-bit equal FiberSolveResults, family included."""
    if (a.method, a.complete, len(a.solutions)) != (b.method, b.complete,
                                                      len(b.solutions)):
        return False
    if not all(np.array_equal(x, y) for x, y in zip(a.solutions, b.solutions)):
        return False
    if a.family is None or b.family is None:
        return a.family is b.family
    fa, fb = a.family, b.family
    return (fa.dim == fb.dim and fa.radius_sq == fb.radius_sq
            and all(np.array_equal(getattr(fa, f), getattr(fb, f))
                    for f in ("center_params", "basis_params", "shape")))


def _fiber_stack(model, rng, kind):
    """Targets of one model at seeded base points in both charts: planted
    sections, random fiber points off the cone, or the given target on a
    model without a sampler; the named special target is third."""
    out = []
    for _ in range(6):
        zeta = P1Point("std" if rng.random() < 0.5 else "inf",
                       complex(*rng.standard_normal(2)))
        if model.family == "quadric" and not model.mu.is_zero(0.0):
            x, z = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
            pt = zeta.canonical()
            out.append((pt, (x, (z * z + model.mu.eval_point(pt)) / x, z)))
            continue
        if model.nparams == 9:
            planted = squaring_section(complex(*rng.standard_normal(2)),
                                       complex(*rng.standard_normal(2)),
                                       "minus" if rng.random() < 0.5 else "plus")
        elif model.equations:
            out.append((zeta, kind))
            continue
        else:
            planted = sample_sections(model, 1, rng, CFG)[0]
        target = evaluate_section(model, planted, zeta)
        out.append((target.zeta, target.values))
    special = {"vertex": (0j,) * len(model.degrees), "family": (0j, 0j, 0j)}.get(kind)
    if special is not None:
        out.insert(2, (P1Point.std(1 + 0j), special))
    return out


@pytest.mark.parametrize("name,kind", [
    ("quadric", "vertex"), ("deformed", "family"), ("smooth", None),
    ("doubled", "vertex"), ("a2_cone", (2, 4, 2))])
def test_solve_fibers_rows_equal_one_target_solves(name, kind, request):
    # every solver through one stack: the quadric at regular targets and at a
    # vertex, the deformed antireal family over a zero of lambda, smooth-o11,
    # multistart Newton on the doubled and the A2 cone; an off-fiber target in
    # the middle is refused alone
    model = request.getfixturevalue(name)
    stack = _fiber_stack(model, np.random.default_rng(31), kind)
    off = (P1Point.std(0.4 - 0.3j), (1, 1, 0.5) if len(model.degrees) == 3 else (1, 1))
    if model.equations:
        stack.insert(len(stack) // 2, off)
    got = solve_fibers(model, [pt for pt, _ in stack], [v for _, v in stack], CFG)
    assert len(got) == len(stack)
    for (pt, values), res in zip(stack, got):
        if (pt, values) == off:
            assert isinstance(res, FiberError)
            with pytest.raises(FiberError):
                solve_fiber(model, pt, values, CFG)
            continue
        assert isinstance(res, FiberSolveResult)
        assert _same_result(res, solve_fiber(model, pt, values, CFG))
    if kind == "family":
        assert any(r.family is not None for r in got if isinstance(r, FiberSolveResult))


def test_solve_fibers_takes_one_point_per_target(quadric):
    with pytest.raises(DimensionError):
        solve_fibers(quadric, [0j, 1j], [(1, 1, 1)], CFG)
    assert solve_fibers(quadric, [], [], CFG) == []


def _family_sample_loop(family, n, rng):
    """Reference: the per-row sampler that FamilyDescriptor.sample stacks."""
    evals, evecs = np.linalg.eigh(family.shape)
    half = evecs @ np.diag(1.0 / np.sqrt(evals)) * math.sqrt(family.radius_sq)
    out = []
    for _ in range(n):
        s = rng.standard_normal(family.shape.shape[0])
        s /= np.linalg.norm(s)
        out.append(family.center_params + (half @ s) @ family.basis_params)
    return out


def test_stacked_family_sample_equals_the_per_row_loop(deformed, smooth):
    families = [solve_fiber(deformed, 1 + 0j, (0, 0, 0), CFG).family,
                solve_fiber(smooth, 0j, (0.3, 0.5j), CFG).family]
    rng = np.random.default_rng(5)
    for _ in range(40):
        k = int(rng.integers(1, 5))
        families.append(FamilyDescriptor(
            dim=k - 1, center_params=rng.standard_normal(9),
            basis_params=rng.standard_normal((k, 9)),
            shape=(lambda a: a @ a.T + 0.1 * np.eye(k))(rng.standard_normal((k, k))),
            radius_sq=float(rng.uniform(0.1, 10.0))))
    for fam in families:
        if fam is None:
            continue
        for n, seed in ((1, 0), (8, 7), (13, 11)):
            got = fam.sample(n, np.random.default_rng(seed))
            want = _family_sample_loop(fam, n, np.random.default_rng(seed))
            assert got.shape == (n, len(fam.center_params))
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(parts=st.lists(st.tuples(*[st.floats(-1e3, 1e3)] * 4, st.booleans()),
                      min_size=1, max_size=12))
def test_stacked_squaring_sections_are_regular_members_with_their_label(quadric, parts):
    a = np.array([complex(p[0], p[1]) for p in parts])
    b = np.array([complex(p[2], p[3]) for p in parts])
    assume(np.all(np.abs(a) + np.abs(b) > 1e-3))
    minus = np.array([p[4] for p in parts])
    secs = models.squaring_sections(a, b, minus)
    sys = real_section_system(quadric)
    assert secs.shape == (len(parts), 9)
    assert sys.members(secs, CFG.member_tol).all()
    for sec, m in zip(secs, minus):
        assert sys.jacobian_rank(sec, CFG.rank_rtol) == 5
        label = component_label(sec)
        assert label == "boundary" or label == (1 if m else -1)


def test_samplers_return_one_array(quadric, deformed, smooth, doubled):
    for model, n in ((quadric, 12), (deformed, 12), (smooth, 5), (doubled, 0)):
        got = sample_sections(model, max(n, 5), np.random.default_rng(3), CFG)
        assert isinstance(got, np.ndarray) and got.shape == (n, model.nparams)
    # the cone sampler's squaring sections: every variant, from one draw
    got = sample_sections(quadric, 200, np.random.default_rng(4), CFG)
    assert {component_label(p) for p in got} == {1, -1}


def test_classify_and_samplers_make_no_one_target_solve(quadric, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a per-target solve_fiber call")

    monkeypatch.setattr(analysis, "solve_fiber", refuse)
    real = build_deformed([0, 1, 0], "real")
    assert classify_hypercomplex(real, SolveConfig(seed=1)).verdict == "Hypercomplex"
    assert classify_hypercomplex(quadric, CFG).verdict == "Hypercomplex"
    assert len(sample_sections(real, 30, np.random.default_rng(2), CFG)) == 30


def test_model_facts_are_computed_once_with_their_values(quadric, deformed, a2_cone):
    for model in (quadric, deformed, a2_cone, build_quadric(exact=True)):
        sys = real_section_system(model)
        assert sys.fiber_rows == [i for i, label in enumerate(sys.labels)
                                  if label.rsplit(".", 2)[1].startswith("eq")]
        view = model.float_view()
        assert view.equation_scales == tuple(
            1.0 + max((max(abs(c) for c in g.coeffs) for _, g in eq.monomials),
                      default=0.0)
            for eq in view.equations)
    assert real_section_system(quadric).fiber_rows == [0, 1, 2, 3, 4]


def test_solve_fiber_counts_with_labels(quadric, rng):
    for _ in range(50):
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        sec = squaring_section(a, b, "minus")
        target = evaluate_section(quadric, sec, 0j)
        res = solve_fiber(quadric, None, target, CFG)
        assert len(res.solutions) == 2
        labels = {component_label(s) for s in res.solutions}
        assert labels == {1, -1}
        assert min(np.linalg.norm(np.asarray(s) - sec)
                   for s in res.solutions) < 1e-8


def test_solve_fiber_rotation_covariance(quadric, rng):
    # the fiber count and branch verdict seen at 0 persist at random points
    for _ in range(10):
        z = complex(rng.standard_normal(), rng.standard_normal())
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        sec = squaring_section(a, b, "plus")
        target = evaluate_section(quadric, sec, z)
        res = solve_fiber(quadric, None, target, CFG)
        assert len(res.solutions) == 2
        assert branch_test(quadric, sec, z, CFG).verdict == "unbranched"
    origin = np.zeros(9)
    for _ in range(3):
        z = complex(rng.standard_normal(), rng.standard_normal())
        assert branch_test(quadric, origin, z, CFG).verdict == "branched"
        res = solve_fiber(quadric, z, (0, 0, 0), CFG)
        assert len(res.solutions) == 1


def _su2_pullback(model, params, alpha, beta):
    """Parameters of the section g*s, (g*s)_i(z) = f(z)^k_i s_i(m(z)) with
    m(z) = (alpha z - conj(beta)) / f(z) and f(z) = beta z + conj(alpha):
    an SU(2) rotation of the base, lifted to O(k), which commutes with the
    antipodal map, so g*s is again a real section."""
    P = np.polynomial.polynomial
    num, den = [-np.conj(beta), alpha], [np.conj(alpha), beta]
    coeffs = []
    for poly in model.section_basis.embed(list(params)):
        k = poly.degree_bound
        acc = np.zeros(k + 1, dtype=complex)
        for j, c in enumerate(poly.coeffs):
            term = P.polymul(P.polypow(num, j), P.polypow(den, k - j))
            acc[:len(term)] += complex(c) * term
        coeffs.extend(acc)
    # embed is real linear: invert it by least squares on its matrix
    n = model.section_basis.nparams
    cols = [np.concatenate([np.asarray(q.coeffs, dtype=complex)
                            for q in model.section_basis.embed(list(e))])
            for e in np.eye(n)]
    mat = np.vstack([np.real(cols).T, np.imag(cols).T])
    rhs = np.concatenate([np.real(coeffs), np.imag(coeffs)])
    out, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    assert np.linalg.norm(mat @ out - rhs) <= 1e-10 * (1.0 + np.linalg.norm(rhs))
    return out


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(["quadric", "smooth"]),
       q=st.tuples(*[st.floats(-2.0, 2.0)] * 4),
       g=st.tuples(*[st.floats(-1.0, 1.0)] * 4),
       zeta=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       variant=st.sampled_from(["minus", "plus"]))
def test_solve_fiber_is_su2_covariant(quadric, smooth, name, q, g, zeta, variant):
    assume(math.hypot(*q) >= 0.1 and math.hypot(*g) >= 0.1)
    model = {"quadric": quadric, "smooth": smooth}[name]
    planted = (squaring_section(complex(q[0], q[1]), complex(q[2], q[3]), variant)
               if name == "quadric" else np.array(q))
    _check_su2_covariance(model, planted, g, complex(*zeta))


def _check_su2_covariance(model, planted, g, z):
    """Rotating the base by g in SU(2) carries the fiber over m(z) to the
    fiber over z: the same count, the solutions moved by g*.  Returns the
    two fiber solves."""
    norm = math.hypot(*g)
    alpha, beta = complex(g[0], g[1]) / norm, complex(g[2], g[3]) / norm
    assume(abs(beta * z + alpha.conjugate()) >= 0.2)
    image = (alpha * z - beta.conjugate()) / (beta * z + alpha.conjugate())
    there = solve_fiber(model, None, evaluate_section(model, planted, image), CFG)
    moved = _su2_pullback(model, planted, alpha, beta)
    here = solve_fiber(model, None, evaluate_section(model, moved, z), CFG)
    assert len(here.solutions) == len(there.solutions) >= 1
    tol = 1e-8 * (1.0 + np.linalg.norm(planted)) * (1.0 + abs(z)) ** 2
    for sol in there.solutions:
        rotated = _su2_pullback(model, sol, alpha, beta)
        assert min(np.linalg.norm(rotated - other)
                   for other in here.solutions) <= tol
    return there, here


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(q=st.tuples(*[st.floats(-2.0, 2.0)] * 4),
       g=st.tuples(*[st.floats(-1.0, 1.0)] * 4),
       zeta=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       variant=st.sampled_from(["minus", "plus"]))
def test_newton_solve_fiber_is_su2_covariant(doubled, q, g, zeta, variant):
    # the doubled cone, solved by multistart Newton: two sections through
    # every fiber point off the vertex, before and after the rotation
    assume(math.hypot(*q) >= 0.1 and math.hypot(*g) >= 0.1)
    planted = squaring_section(complex(q[0], q[1]), complex(q[2], q[3]), variant)
    for res in _check_su2_covariance(doubled, planted, g, complex(*zeta)):
        assert res.method == "newton-multistart" and len(res.solutions) == 2


def test_newton_refuses_targets_off_the_incidence_slice(doubled):
    # c is a real constant on every real section, so no section meets
    # c = 0.5i; Newton's least-squares slice would put c = 0 and return the
    # two sections through (4, 1, 2, 0)
    model = with_real_constant(doubled)
    zeta = 0.4 - 0.3j
    off = solve_fiber(model, zeta, (4, 1, 2, 0.5j), CFG)
    assert off.method == "newton-multistart" and off.solutions == []
    on = solve_fiber(model, zeta, (4, 1, 2, 0.5), CFG)
    assert len(on.solutions) == 2
    for sol in on.solutions:
        values = evaluate_section(model, sol, zeta).values
        assert np.allclose(values, (4, 1, 2, 0.5), rtol=0, atol=1e-9)


def test_newton_tol_above_the_membership_tolerance_is_refused(doubled):
    # Newton rows stop within newton_tol*(1+|x|^2) and solve_fiber keeps the
    # rows within member_tol = max(tol, 1e-8): a looser newton_tol would
    # drop every Newton section, so the config refuses it; equal is allowed
    with pytest.raises(ValueError, match=r"newton_tol 0\.0001 exceeds member_tol.*1e-08"):
        SolveConfig(newton_tol=1e-4)
    with pytest.raises(ValueError, match="newton_tol"):
        SolveConfig(tol=1e-7, newton_tol=2e-7)
    for cfg in (SolveConfig(newton_tol=1e-8), SolveConfig(tol=1e-7, newton_tol=1e-7)):
        assert cfg.newton_tol == cfg.member_tol
        res = solve_fiber(doubled, 0.4 - 0.3j, (4, 1, 2), cfg)
        assert res.method == "newton-multistart" and len(res.solutions) == 2


def test_newton_duplicates_merge_at_a_loose_newton_tol(doubled):
    # at newton_tol 1e-6 rows of one root stop 4-6e-6 apart, beyond
    # dedup_radius 1e-6: Newton points are deduplicated at √newton_tol, so
    # every seed finds the two sections once each
    for seed in range(4):
        cfg = SolveConfig(tol=1e-6, newton_tol=1e-6, seed=seed)
        res = solve_fiber(doubled, 0.4 - 0.3j, (4, 1, 2), cfg)
        assert res.method == "newton-multistart" and len(res.solutions) == 2


def test_solve_fiber_matches_newton_multistart(quadric, rng):
    cfg = SolveConfig(seed=3, multistart=60)
    for _ in range(3):
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        sec = squaring_section(a, b, "minus")
        target = evaluate_section(quadric, sec, 0j)
        closed = solve_fiber(quadric, None, target, cfg)
        x0s, nmats = _incidence_slice(
            *_incidence(quadric, [target.zeta], [target.values]), cfg.rank_rtol)
        ((newton, family),) = _newton_multistart(quadric, x0s, nmats, [target.values], cfg)
        assert family is None and len(newton)
        for sol in newton:
            assert min(np.linalg.norm(sol - np.asarray(c))
                       for c in closed.solutions) < 1e-6


@pytest.mark.parametrize("lam,reality", [(ANTIREAL_LAMBDA, "antireal"),
                                         ([0, 1, 0], "real")])
def test_closed_form_matches_newton_far_from_unit_size(lam, reality):
    # seeded fiber points with |values| log-uniform over 1e-3..1e3 and |zeta|
    # over 1e-4..1 in both charts; the deformed model is not a cone, so its
    # targets are solved at their own scale, and the coefficient-doubled copy
    # has the same fibers but is solved by multistart Newton
    model = build_deformed(lam, reality)
    doubled = double_coefficients(model)
    rng = np.random.default_rng(18)
    roots = 0
    for k in range(40):
        pt = P1Point("std" if k % 2 else "inf",
                     10.0 ** rng.uniform(-4, 0) * np.exp(2j * np.pi * rng.random()))
        x, z = 10.0 ** rng.uniform(-3, 3) * np.exp(2j * np.pi * rng.random(2))
        values = (x, (z * z + model.mu.eval_point(pt)) / x, z)
        closed = solve_fiber(model, pt, values, CFG)
        newton = solve_fiber(doubled, pt, values, CFG)
        assert (closed.method, newton.method) == ("closed-form", "newton-multistart")
        assert len(newton.solutions) == len(closed.solutions), k
        for sol in newton.solutions:
            assert min(np.linalg.norm(sol - c) for c in closed.solutions) \
                <= 1e-8 * np.linalg.norm(sol), k
        roots += len(newton.solutions)
    assert roots >= 40


def _on_incidence(x, amats, rhs):
    """Every row of x satisfies its block amats[k] @ x[k] = rhs[k] (one block
    of shape (1, r, n) is shared) to 1e-12 relative."""
    gap = np.abs(np.einsum("krn,kn->kr", amats, x) - rhs).max(axis=1)
    return bool((gap <= 1e-12 * (1.0 + np.abs(rhs).max(axis=1))).all())


@pytest.mark.parametrize("max_iter", [50, 5])
def test_batched_gauss_newton_rows_do_not_interact(doubled, max_iter):
    # the doubled cone's 40 multistart rows, at a target and at the vertex;
    # with 5 iterations some rows stop unconverged
    cfg = SolveConfig(seed=7, max_iter=max_iter)
    sys = real_section_system(doubled)
    planted = squaring_section(0.3 + 0.7j, -1.1 + 0.2j, "minus")
    pt = P1Point.std(0.4 - 0.3j)
    converged = []
    for values in (evaluate_section(doubled, planted, pt).values, (0j, 0j, 0j)):
        amat, b = _incidence(doubled, [pt], [values])
        base, kernel = _incidence_slice(amat, b, cfg.rank_rtol)
        starts = np.random.default_rng(cfg.seed).standard_normal(
            (cfg.multistart, sys.nvars)) * 2.0
        x, ok = _gauss_newton(sys, base, kernel, starts, cfg, np.zeros(len(starts), int))
        converged.extend(ok)
        assert _on_incidence(x, amat, b)
        for i, start in enumerate(starts):
            alone, alone_ok = _gauss_newton(sys, base, kernel, [start], cfg, [0])
            assert np.array_equal(alone[0], x[i]) and alone_ok[0] == ok[i]
    assert any(converged) and all(converged) == (max_iter == 50)
    # rows with their own incidence blocks: a base point per row, the planted
    # target on odd rows and the vertex on even ones; each row equals its
    # start run alone against its block as a shared one
    pts, targets = [], []
    for i, (re, im) in enumerate(np.random.default_rng(1).standard_normal((len(starts), 2))):
        pts.append(P1Point.std(complex(re, im)))
        targets.append(evaluate_section(doubled, planted, pts[-1]).values if i % 2
                       else (0j,) * 3)
    amats, rhs = _incidence(doubled, pts, targets)
    x, ok = _gauss_newton(sys, *_incidence_slice(amats, rhs, cfg.rank_rtol),
                          starts, cfg, np.arange(len(starts)))
    assert _on_incidence(x, amats, rhs)
    for i, start in enumerate(starts):
        block = _incidence_slice(amats[i:i + 1], rhs[i:i + 1], cfg.rank_rtol)
        alone, alone_ok = _gauss_newton(sys, *block, [start], cfg, [0])
        assert np.array_equal(alone[0], x[i]) and alone_ok[0] == ok[i]
    assert ok[1::2].any()


def _shipped_models():
    """Every builtin model and every model file under tests/data."""
    data = Path(__file__).parent / "data"
    return ([build_quadric(), build_deformed(ANTIREAL_LAMBDA, "antireal"),
             build_deformed([0, 1, 0], "real"), build_smooth_o11()]
            + [serialize.model_from_dict(json.loads(path.read_text()))
               for path in sorted(data.glob("*.json"))])


def test_incidence_blocks_equal_one_product_per_point_and_coordinate():
    # the stacked incidence blocks, against the vector of powers z^m of each
    # coordinate (reversed in the chart at infinity) times its embedding
    # matrix, one point at a time: bit for bit on every shipped model, the
    # A2 and A3 cones (coordinate degrees 3, 3, 2 and 4, 4, 2) among them,
    # in both charts, with real, tiny and zero base points
    rng = np.random.default_rng(28)
    degrees = set()
    for model in _shipped_models():
        model = model.float_view()
        mats = model.section_basis.complex_matrices()
        pts = [P1Point(chart, complex(*rng.standard_normal(2)) * 10.0 ** rng.uniform(-3, 0))
               for chart in ("std", "inf") for _ in range(20)]
        pts += [P1Point.std(0j), P1Point.inf(-0.5 + 0j), P1Point.std(1e-120j)]
        targets = rng.standard_normal((len(pts), len(model.degrees), 2)).view(complex)[..., 0]
        amats, rhs = _incidence(model, pts, targets)
        assert amats.shape == (len(pts), 2 * len(model.degrees), model.nparams)
        assert np.array_equal(rhs.view(complex), targets)
        for amat, pt in zip(amats, pts):
            rows = []
            for i, k in enumerate(model.degrees):
                exps = range(k + 1) if pt.chart == "std" else range(k, -1, -1)
                crow = np.array([pt.value ** m for m in exps]) @ mats[i]
                rows += [crow.real, crow.imag]
            assert amat.tobytes() == np.array(rows).tobytes()
        degrees.add(tuple(model.degrees))
        # an empty stack, as _branch_reports takes when there is nothing to check
        empty, _ = _incidence(model, [], np.zeros((0, len(model.degrees))))
        assert empty.shape == (0, 2 * len(model.degrees), model.nparams)
    assert {(3, 3, 2), (4, 4, 2), (2, 2, 2)} <= degrees


def _fresh_convergence(sys, base, kernel, x, slices, cfg):
    """Each row of x projected to its slice's coordinates and evaluated on a
    fresh restriction, against newton_tol*(1+|x|^2)."""
    owner = np.asarray(slices)
    y1 = np.ones((len(x), kernel.shape[1] + 1))
    y1[:, :-1] = np.einsum("kn,kdn->kd", x - base[owner], kernel[owner])
    r, _ = sys.on_slice(base, kernel).values(y1, owner)
    return np.abs(r).max(axis=1) <= cfg.newton_tol * (1.0 + (x * x).sum(axis=1))


@pytest.mark.parametrize("max_iter", [50, 2])
def test_gauss_newton_converged_mask_matches_a_fresh_evaluation(doubled, a2_cone, max_iter,
                                                                 monkeypatch):
    # rows stopped by their residual are converged as the loop decided it;
    # the mask must still read as a fresh evaluation of every returned row.
    # Every third row of every call takes a zero first step, so it stops by
    # the stall test; at max_iter 2 rows are cut off still stepping.  The
    # doubled cone's rows share one slice, the A2 cone's are a stack of two
    cfg = SolveConfig(seed=7, max_iter=max_iter)
    original, passes = analysis._slice_steps, []

    def stalling(half, y1, r, degree, rtol, certify=None):
        step, certified = original(half, y1, r, degree, rtol, certify)
        if not passes:
            step[::3] = 0.0
        passes.append(len(half))
        return step, certified

    monkeypatch.setattr(analysis, "_slice_steps", stalling)
    pt = P1Point.std(0.4 - 0.3j)
    planted = squaring_section(0.3 + 0.7j, -1.1 + 0.2j, "minus")
    cases = [(doubled, [pt], [evaluate_section(doubled, planted, pt).values], [0] * 40),
             (a2_cone, [pt, P1Point.inf(0.2 + 0.5j)], [(2, 4, 2), (0j, 0j, 0j)],
              [0, 1] * 20)]
    for model, pts, targets, slices in cases:
        model = model.float_view()
        sys = real_section_system(model)
        base, kernel = _incidence_slice(*_incidence(model, pts, targets), cfg.rank_rtol)
        starts = np.random.default_rng(cfg.seed).standard_normal((40, sys.nvars))
        passes.clear()
        x, ok = _gauss_newton(sys, base, kernel, starts, cfg, slices)
        assert passes[0] == 40 and len(passes) <= max_iter
        assert np.array_equal(ok, _fresh_convergence(sys, base, kernel, x, slices, cfg))
        # stalled rows never converge here; the others converge given passes
        assert not ok[::3].any()
        assert ok.any() == (max_iter == 50)


def test_incidence_slice_pads_smaller_kernels_with_zero_rows(doubled):
    # the second block repeats one incidence row, so its kernel has one more
    # dimension; the first block's basis gets one zero row, which changes
    # neither its slice nor the Gauss-Newton steps taken in it
    cfg = SolveConfig(seed=7)
    sys = real_section_system(doubled)
    pt = P1Point.std(0.4 - 0.3j)
    planted = squaring_section(0.3 + 0.7j, -1.1 + 0.2j, "minus")
    target = evaluate_section(doubled, planted, pt)
    (amat,), (b,) = _incidence(doubled, [pt], [target.values])
    low, low_b = amat.copy(), b.copy()
    low[5], low_b[5] = low[4], low_b[4]
    base, kernel = _incidence_slice(np.array([amat, low]), np.array([b, low_b]),
                                    cfg.rank_rtol)
    assert kernel.shape == (2, 4, sys.nvars)
    assert np.count_nonzero(np.abs(kernel[0]).max(axis=1)) == 3
    alone_base, alone_kernel = _incidence_slice(amat[None], b[None], cfg.rank_rtol)
    assert np.allclose(base[0], alone_base[0], atol=1e-12)
    assert np.allclose(kernel[0].T @ kernel[0], alone_kernel[0].T @ alone_kernel[0],
                       atol=1e-12)
    assert _on_incidence(base, np.array([amat, low]), np.array([b, low_b]))
    start = np.random.default_rng(cfg.seed).standard_normal(sys.nvars) * 2.0
    x, ok = _gauss_newton(sys, base, kernel, [start, start], cfg, [0, 1])
    alone, alone_ok = _gauss_newton(sys, alone_base, alone_kernel, [start], cfg, [0])
    assert ok[0] and alone_ok[0]
    assert np.allclose(x[0], alone[0], atol=1e-9)


def _pinv_steps(jac, r):
    """Reference steps: the SVD pseudo-inverse of each system."""
    return np.array([-np.linalg.pinv(j) @ v for j, v in zip(jac, r)])


def _relative_gap(got, want):
    return (np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)).max()


def _conditioned_stack(rng, m, d, ratios):
    """Systems J = U·diag(σ)·V^T (len(ratios), m, d) with σ_max = 1 and
    σ_min = ratios[k], the rest log-uniform between, at scales 1e-3..1e3."""
    k = len(ratios)
    u = np.linalg.qr(rng.standard_normal((k, m, d)))[0]
    v = np.linalg.qr(rng.standard_normal((k, d, d)))[0]
    svals = np.asarray(ratios)[:, None] ** rng.uniform(0, 1, (k, d))
    svals[:, 0], svals[:, -1] = 1.0, ratios
    scale = 10.0 ** rng.uniform(-3, 3, (k, 1, 1))
    return (u * svals[:, None, :]) @ v.transpose(0, 2, 1) * scale


def _steps(jac, r, certify=None):
    """_slice_steps on the slice form of the systems jac @ step = -r:
    H = [J | r], ỹ = e_{d+1} and D = 1, so that J = D·H[:, :, :d] and r = H·ỹ."""
    y1 = np.zeros((len(jac), jac.shape[2] + 1))
    y1[:, -1] = 1.0
    return analysis._slice_steps(np.concatenate([jac, r[:, :, None]], axis=2), y1, r, 1,
                                 CFG.rank_rtol, certify)


def _eigh_ranks(jac, rtol):
    """The rank the eigh rule reads off each system's Gram, scaled and cut
    as _gram_steps scales and cuts it."""
    peak = np.abs(jac).max(axis=(1, 2), initial=0.0)
    peak[peak == 0.0] = 1.0
    jac = jac / peak[:, None, None]
    lam = np.linalg.eigh(jac.transpose(0, 2, 1) @ jac)[0][:, ::-1]
    cut = max(rtol, math.sqrt(np.finfo(float).eps * max(jac.shape[1:])))
    return numerical_rank(np.sqrt(np.maximum(lam, 0.0)), cut)


@pytest.mark.parametrize("m,d", [(7, 3), (9, 4), (6, 2)])
def test_gram_steps_equal_the_pseudo_inverse(m, d):
    # random full-rank stacks of the tall shapes Gauss-Newton steps on, at
    # scales 1e-3..1e3, with inconsistent right-hand sides: every row is
    # certified full rank
    rng = np.random.default_rng(19)
    for _ in range(20):
        jac = rng.standard_normal((20, m, d)) * 10.0 ** rng.uniform(-3, 3, (20, 1, 1))
        r = rng.standard_normal((20, m)) * 10.0 ** rng.uniform(-3, 3, (20, 1))
        got, certified = _steps(jac, r)
        assert certified.all()
        assert _relative_gap(got, _pinv_steps(jac, r)) <= 1e-12
    # well-conditioned rows mixed with rows whose σ_min/σ_max straddles the
    # cutoff rank_rtol = 1e-7 and the certificate's own edge (1e-9..1e-4):
    # no row is certified unless eigh keeps it at full rank, and every other
    # row takes the eigh step itself, bit for bit
    full = certified_full = 0
    for _ in range(20):
        ratios = np.where(rng.random(40) < 0.5, 10.0 ** rng.uniform(-9, -4, 40),
                          10.0 ** rng.uniform(-2, 0, 40))
        jac = _conditioned_stack(rng, m, d, ratios)
        r = rng.standard_normal((40, m)) * 10.0 ** rng.uniform(-3, 3, (40, 1))
        got, certified = _steps(jac, r)
        eigh, none = _steps(jac, r, np.zeros(40, dtype=bool))
        ranks = _eigh_ranks(jac, CFG.rank_rtol)
        assert not none.any() and not (certified & (ranks < d)).any()
        assert np.array_equal(got[~certified], eigh[~certified])
        assert _relative_gap(got[certified], eigh[certified]) <= 1e-3
        full += (ranks == d).sum()
        certified_full += certified.sum()
    # both paths and both rank decisions are exercised
    assert 0 < certified_full < full < 20 * 40


def test_gram_steps_of_a_mixed_stack_equal_one_row_calls():
    # certified and eigh rows, zero columns and a zero Jacobian in one stack,
    # with every row tried or some: each row's step and certificate are its
    # one-row call's, bit for bit, and only tried rows are certified
    rng = np.random.default_rng(19)
    jac = _conditioned_stack(rng, 7, 3, 10.0 ** rng.uniform(-9, 0, 30))
    jac[::5, :, 2] = 0.0
    jac[7] = 0.0
    r = rng.standard_normal((30, 7))
    tried = rng.random(30) < 0.7
    for certify in (None, tried):
        got, certified = _steps(jac, r, certify)
        assert certified.any() and not certified.all()
        assert not certified[::5].any() and not certified[7]
        for i in range(30):
            one = None if certify is None else certify[i:i + 1]
            alone, cert = _steps(jac[i:i + 1], r[i:i + 1], one)
            assert np.array_equal(alone[0], got[i]) and cert[0] == certified[i]
    assert not (certified & ~tried).any()


def test_gram_steps_on_zero_columns_and_zero_jacobians():
    # a zero-padded kernel row of _incidence_slice is a zero column of the
    # reduced Jacobian: the step has no component along it, and neither it
    # nor a zero Jacobian is certified
    rng = np.random.default_rng(19)
    jac, r = rng.standard_normal((20, 7, 4)), rng.standard_normal((20, 7))
    jac[:, :, 3] = 0.0
    got, certified = _steps(jac, r)
    assert not got[:, 3].any() and not certified.any()
    assert _relative_gap(got[:, :3], _pinv_steps(jac[:, :, :3], r)) <= 1e-12
    zero, certified = _steps(np.zeros((3, 7, 3)), r[:3])
    assert zero.shape == (3, 3) and not zero.any() and not certified.any()
    # no slice directions, and no rows
    none, certified = _steps(np.zeros((3, 7, 0)), r[:3])
    assert none.shape == (3, 0) and certified.shape == (3,)
    empty, certified = _steps(np.zeros((0, 7, 3)), np.zeros((0, 7)))
    assert empty.shape == (0, 3) and certified.shape == (0,)


def test_a_non_finite_row_takes_a_zero_step():
    # one NaN in H at d = 4 used to make eigh raise LinAlgError for the
    # whole stack; now its row steps by zero, so _gauss_newton's stall test
    # stops it, and every other row keeps its step bit for bit
    rng = np.random.default_rng(19)
    jac = _conditioned_stack(rng, 7, 4, 10.0 ** rng.uniform(-9, 0, 12))
    r = rng.standard_normal((12, 7))
    clean, _ = _steps(jac, r)
    for bad in (np.nan, np.inf):
        jac_bad, r_bad = jac.copy(), r.copy()
        jac_bad[5, 2, 1] = bad
        r_bad[5, 2] = np.nan
        got, certified = _steps(jac_bad, r_bad)
        assert not got[5].any() and not certified[5]
        assert np.array_equal(np.delete(got, 5, axis=0), np.delete(clean, 5, axis=0))


@pytest.mark.parametrize("scale", [1e150, 1e-150, 1e300, 1e-300])
def test_gram_steps_are_scale_invariant(scale):
    # J and r scaled together keep the step; unscaled, the Gram of a
    # Jacobian with entries near 1e300 would overflow
    rng = np.random.default_rng(19)
    jac, r = rng.standard_normal((20, 7, 3)), rng.standard_normal((20, 7))
    got, _ = _steps(jac * scale, r * scale)
    assert _relative_gap(got, _steps(jac, r)[0]) <= 1e-12


def _normalised_eigh_steps(jac, r, rtol):
    """Reference: each system divided by its largest |entry| (1 if zero), its
    Gram J^T J from a copy of J^T, one stacked eigh cut at numerical_rank's
    c = max(rtol, √(eps·max(m, d))), and -G⁺·J^T r."""
    peak = np.abs(jac).max(axis=(1, 2), initial=0.0)
    peak[peak == 0.0] = 1.0
    jac, r = jac / peak[:, None, None], r / peak[:, None]
    jact = jac.transpose(0, 2, 1)
    gram, rhs = jact.copy() @ jac, jact @ r[:, :, None]
    lam, vec = np.linalg.eigh(gram)
    d = lam.shape[1]
    cut = max(rtol, math.sqrt(np.finfo(float).eps * max(jac.shape[1:])))
    rank = numerical_rank(np.sqrt(np.maximum(lam[:, ::-1], 0.0)), cut)
    inv = np.divide(-1.0, lam, out=np.zeros_like(lam),
                    where=np.arange(d) >= d - rank[:, None])
    return (vec @ (inv[:, :, None] * (vec.transpose(0, 2, 1) @ rhs)))[:, :, 0]


def test_slice_steps_of_a_mixed_stack_equal_one_row_calls_and_the_eigh_route():
    # one stack of slice forms H (k, m, d + 1) at degree D = 3 and a general
    # ỹ: well-conditioned rows, rows straddling the certificate's edge, a
    # zero-padded kernel column, a zero H, rows at 2^±450 (out of the trace
    # range) and 2^±600 (P overflows or underflows) and a row with a NaN
    # residual.  Each row's step and certificate are its one-row call's, bit
    # for bit, every rejected row takes the normalised eigh step on
    # (D·H[:, :, :d], H·ỹ), bit for bit, and no RuntimeWarning is raised
    rng = np.random.default_rng(29)
    m, d, degree = 9, 4, 3
    ratios = np.where(rng.random(24) < 0.5, 10.0 ** rng.uniform(-9, -4, 24),
                      10.0 ** rng.uniform(-2, 0, 24))
    ratios[7:11] = 0.5  # the scaled rows would pass the certificate at unit scale
    half = _conditioned_stack(rng, m, d + 1, ratios)
    half[3, :, 1] = 0.0
    half[5] = 0.0
    for i, scale in zip((7, 8, 9, 10), (2.0 ** 450, 2.0 ** -450, 2.0 ** 600, 2.0 ** -600)):
        half[i] *= scale
    half[11, 2, d] = np.nan
    y1 = np.ones((24, d + 1))
    y1[:, :-1] = rng.standard_normal((24, d))
    r = (half @ y1[:, :, None])[:, :, 0]
    tried = rng.random(24) < 0.8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eigh = _normalised_eigh_steps(degree * half[:, :, :d], r, CFG.rank_rtol)
        for certify in (None, tried):
            got, certified = analysis._slice_steps(half, y1, r, degree, CFG.rank_rtol,
                                                   certify)
            assert certified.any() and not certified[[3, 5, 7, 8, 9, 10]].any()
            assert certify is None or not (certified & ~certify).any()
            assert got[~certified].tobytes() == eigh[~certified].tobytes()
            for i in range(24):
                one = None if certify is None else certify[i:i + 1]
                alone, cert = analysis._slice_steps(half[i:i + 1], y1[i:i + 1], r[i:i + 1],
                                                    degree, CFG.rank_rtol, one)
                assert alone.tobytes() == got[i:i + 1].tobytes() and cert[0] == certified[i]
    assert np.isnan(got[11]).all()
    # the edge rows fall on both sides of the certificate
    assert 0 < certified.sum() < tried.sum() - 6


def _dedup_loop(points, radius):
    """Reference: each point kept when it is farther than radius from every
    point kept before it."""
    out = []
    for p in points:
        if all(np.linalg.norm(p - q) > radius for q in out):
            out.append(p)
    return out


def test_dedup_keeps_the_points_of_the_loop_in_order():
    # clouds around a few centres, each point 0.5 to 1.5 radii from its
    # centre, so pairwise distances fall on both sides of the radius; some
    # points repeat exactly
    rng = np.random.default_rng(19)
    radius = CFG.dedup_radius
    assert analysis._dedup(np.empty((0, 9)), radius) == []
    for _ in range(200):
        centres = rng.standard_normal((rng.integers(1, 6), 9))
        n = int(rng.integers(1, 40))
        dirs = rng.standard_normal((n, 9))
        dirs *= radius * rng.uniform(0.5, 1.5, (n, 1)) / np.linalg.norm(dirs, axis=1,
                                                                          keepdims=True)
        cloud = list(centres[rng.integers(len(centres), size=n)] + dirs)
        cloud += [cloud[i] for i in rng.integers(n, size=n // 4)]
        got = [cloud[i] for i in analysis._dedup(np.array(cloud), radius)]
        want = _dedup_loop(cloud, radius)
        assert len(got) == len(want) and all(g is w for g, w in zip(got, want))
    # a family's shape, 8 samples all kept, takes the pairwise route
    assert analysis._dedup(rng.standard_normal((8, 9)), radius) == list(range(8))


def test_newton_rows_stay_on_their_incidence_blocks(doubled, deformed, smooth,
                                                    monkeypatch):
    # Gauss-Newton's callers: multistart (one shared block) at a target and
    # at the vertex, and the continuation rows of classify (a block per
    # singular pair, each row on its pair's); solve_fibers slices every stack
    # of fiber targets once, and the quadric reducer slices the stack's
    # linear stages
    calls = []
    slice_, newton = analysis._incidence_slice, analysis._gauss_newton

    def slicing(amats, rhs, rtol):
        base, kernel = slice_(amats, rhs, rtol)
        caller = inspect.currentframe().f_back.f_code.co_name
        calls.append([caller, amats, rhs, base, kernel])
        return base, kernel

    def stepping(sys, base, kernel, x0, cfg, slices):
        x, ok = newton(sys, base, kernel, x0, cfg, slices)
        calls[-1].append((x, slices))
        return x, ok

    monkeypatch.setattr(analysis, "_incidence_slice", slicing)
    monkeypatch.setattr(analysis, "_gauss_newton", stepping)
    planted = squaring_section(0.3 + 0.7j, -1.1 + 0.2j, "minus")
    target = evaluate_section(doubled, planted, 0.4 - 0.3j)
    solve_fiber(doubled, target.zeta, target.values, CFG)
    solve_fiber(doubled, target.zeta, (0j, 0j, 0j), CFG)
    solve_fiber(build_quadric(), target.zeta, target.values, CFG)
    solve_fiber(smooth, None, evaluate_section(smooth, [0.2, -1.0, 0.5, 0.9], 2j), CFG)
    classify_hypercomplex(build_quadric(), CFG)
    classify_hypercomplex(deformed, CFG)
    newton_calls = [c for c in calls if len(c) == 6]  # a slice Newton stepped in
    assert [c[0] for c in newton_calls] == ["solve_fibers"] * 2 + ["_examine_pairs"] * 2
    # the quadric's three vertex pairs and the deformed model's one, two
    # continuation rows per pair
    assert [(len(c[1]), len(c[5][0])) for c in newton_calls] == [
        (1, 40), (1, 40), (3, 6), (1, 2)]
    for _, amats, rhs, _, _, (x, slices) in newton_calls:
        assert _on_incidence(x, amats[slices], rhs[slices])
    closed = [c for c in calls if len(c) == 5]
    # each quadric solve slices its stack three times: the targets in the 9
    # parameters, their linear stages in (y, rho) on those slices, and the
    # centres of their quadrics on those stages' kernels (1 direction at a
    # target's two points, 3 at a vertex family); the solves are the target,
    # the smooth-o11 target (4 parameters, the equation-free reducer), the
    # quadric classify's three vertex pairs in one stack and the deformed one
    quadric = [("solve_fibers", 9), ("_quadric_reduce", 4), ("_quadric_reduce", 3)]
    assert [(c[0], c[1].shape[-1], len(c[1])) for c in closed] == (
        [(name, width, 1) for name, width in quadric[:2]]
        + [("_quadric_reduce", 1, 1), ("solve_fibers", 4, 1)]
        + [(name, width, 3) for name, width in quadric]
        + [(name, width, 1) for name, width in quadric])
    for _, amats, rhs, base, kernel in closed:
        # every block here comes from a target on a real section: consistent
        assert _on_incidence(base, amats, rhs)
        for amat, rows in zip(amats, kernel):
            assert np.allclose(rows @ rows.T, np.eye(len(rows)), rtol=0, atol=1e-12)
            assert np.abs(amat @ rows.T).max(initial=0.0) <= 1e-12 * (
                1.0 + np.abs(amat).max())


def _finds_planted(res, planted):
    """Two sections, one of them the planted one to 1e-9 relative."""
    return len(res.solutions) == 2 and min(
        np.linalg.norm(np.asarray(s) - planted)
        for s in res.solutions) <= 1e-9 * np.linalg.norm(planted)


@pytest.mark.parametrize("chart", ["std", "inf"])
def test_closed_form_fiber_over_the_whole_base(quadric, rng, chart):
    for exponent in range(-12, 13, 2):
        for variant in ("minus", "plus"):
            a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            planted = squaring_section(a, b, variant)
            zeta = 10.0 ** exponent * np.exp(2j * np.pi * rng.random())
            target = evaluate_section(quadric, planted, P1Point(chart, zeta))
            res = solve_fiber(quadric, target.zeta, target.values, CFG)
            assert _finds_planted(res, planted), (exponent, variant)


def test_deformed_closed_form_fiber_over_the_whole_base(deformed, rng):
    for planted in sample_sections(deformed, 3, rng, CFG):
        for exponent in range(-12, 13, 4):
            for chart in ("std", "inf"):
                zeta = 10.0 ** exponent * np.exp(2j * np.pi * rng.random())
                target = evaluate_section(deformed, planted, P1Point(chart, zeta))
                res = solve_fiber(deformed, target.zeta, target.values, CFG)
                assert min(np.linalg.norm(s - planted) for s in res.solutions) \
                    <= 1e-9 * np.linalg.norm(planted), (exponent, chart)


@pytest.mark.parametrize("chart", ["std", "inf"])
def test_closed_form_fiber_at_every_scale(quadric, rng, chart):
    for exponent in range(-10, 11, 2):
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        planted = squaring_section(a, b, "minus") * 10.0 ** exponent
        zeta = complex(rng.standard_normal(), rng.standard_normal())
        target = evaluate_section(quadric, planted, P1Point(chart, zeta))
        res = solve_fiber(quadric, target.zeta, target.values, CFG)
        assert _finds_planted(res, planted), exponent


def test_newton_fiber_on_the_doubled_cone_at_every_scale(quadric):
    doubled = double_coefficients(quadric)
    unit = squaring_section(0.3 + 0.7j, -1.1 + 0.2j, "minus")
    for exponent in range(-8, 9, 2):
        planted = unit * 10.0 ** exponent
        target = evaluate_section(doubled, planted, 0.4 - 0.3j)
        res = solve_fiber(doubled, target.zeta, target.values, CFG)
        assert res.method == "newton-multistart"
        assert _finds_planted(res, planted), exponent
    assert doubled.family is None and doubled.homogeneous


def test_off_fiber_targets_are_rejected_at_every_scale(quadric):
    for exponent in range(-12, 13, 2):
        t = 10.0 ** exponent
        with pytest.raises(FiberError):
            solve_fiber(quadric, 0j, (t, t, t / 2), CFG)


def test_affine_component_equation_is_solved_at_its_own_scale(quadric):
    # the cone with the affine constraint p0 = planted[0]: no longer a cone
    planted = squaring_section(0.3 + 0.7j, -1.1 + 0.2j, "minus") * 1e3
    doc = serialize.model_to_dict(quadric)
    n = quadric.nparams
    doc["componentEquations"].append(
        [{"exponents": [1] + [0] * (n - 1), "coeff": 1.0},
         {"exponents": [0] * n, "coeff": -float(planted[0])}])
    pinned = serialize.model_from_dict(doc)
    assert pinned.family == "quadric" and not pinned.homogeneous
    target = evaluate_section(pinned, planted, 0.4 - 0.3j)
    res = solve_fiber(pinned, target.zeta, target.values, CFG)
    assert len(res.solutions) == 1
    assert np.linalg.norm(res.solutions[0] - planted) \
        <= 1e-9 * np.linalg.norm(planted)


def test_cone_fiber_near_the_largest_float(quadric):
    unit = squaring_section(0.3 + 0.7j, -1.1 + 0.2j, "minus")
    target = evaluate_section(quadric, unit, 0.4 - 0.3j)
    # max |v| lands above 2**1023.5, where the nearest power of two overflows
    f = 2.0 ** 1023.75 / max(abs(v) for v in target.values)
    res = solve_fiber(quadric, target.zeta,
                      tuple(f * v for v in target.values), CFG)
    assert len(res.solutions) == 2
    assert min(np.linalg.norm(s / f - unit) for s in res.solutions) \
        <= 1e-9 * np.linalg.norm(unit)


_unit = st.floats(-2.0, 2.0)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(a=st.tuples(_unit, _unit), b=st.tuples(_unit, _unit),
       zeta=st.tuples(_unit, _unit), exponent=st.floats(-8.0, 8.0))
def test_cone_fiber_is_scale_covariant(quadric, a, b, zeta, exponent):
    s = 10.0 ** exponent
    planted = squaring_section(complex(*a), complex(*b), "plus")
    target = evaluate_section(quadric, planted, complex(*zeta))
    base = solve_fiber(quadric, target.zeta, target.values, CFG)
    scaled = solve_fiber(quadric, target.zeta,
                         tuple(s * v for v in target.values), CFG)
    assert len(scaled.solutions) == len(base.solutions)
    tol = 1e-9 * s * (1.0 + np.linalg.norm(planted))
    for sol in base.solutions:
        assert min(np.linalg.norm(s * sol - other)
                   for other in scaled.solutions) <= tol


_decade = st.floats(-2.0, 2.0)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(a=st.tuples(_unit, _unit), b=st.tuples(_unit, _unit),
       log_zeta=_decade, turn=st.floats(0.0, 1.0), log_scale=_decade,
       chart=st.sampled_from(["std", "inf"]),
       variant=st.sampled_from(["minus", "plus"]))
def test_newton_fiber_of_the_doubled_cone(doubled, quadric, a, b, log_zeta, turn,
                                          log_scale, chart, variant):
    # the doubled cone has the quadric cone's sections, two through every
    # point off the vertex; |zeta| and scale over 1e-2..1e2, as in the
    # benchmark's fiber workload
    assume(math.hypot(*a, *b) >= 0.1)
    planted = squaring_section(complex(*a), complex(*b), variant) * 10.0 ** log_scale
    pt = P1Point(chart, 10.0 ** log_zeta * np.exp(2j * np.pi * turn))
    target = evaluate_section(quadric, planted, pt)
    res = solve_fiber(doubled, target.zeta, target.values, CFG)
    assert res.method == "newton-multistart" and len(res.solutions) == 2
    assert min(np.linalg.norm(s - planted) for s in res.solutions) \
        <= 1e-6 * (1.0 + np.linalg.norm(planted))
    vtol = 1e-6 * (1.0 + max(abs(v) for v in target.values))
    for sol in res.solutions:
        got = evaluate_section(doubled, sol, target.zeta)
        assert max(abs(g - v) for g, v in zip(got.values, target.values)) <= vtol


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(log_zeta=_decade, turn=st.floats(0.0, 1.0),
       chart=st.sampled_from(["std", "inf"]), seed=st.integers(0, 2 ** 32 - 1))
def test_newton_fiber_of_the_doubled_cone_at_the_vertex(doubled, log_zeta, turn,
                                                        chart, seed):
    # the vertex target is a singular root, where Newton only halves the
    # error each step; the double step finishes every start at the zero
    # section, so it is returned once
    pt = P1Point(chart, 10.0 ** log_zeta * np.exp(2j * np.pi * turn))
    res = solve_fiber(doubled, pt, (0j, 0j, 0j), SolveConfig(seed=seed))
    assert res.method == "newton-multistart" and len(res.solutions) == 1
    assert np.abs(res.solutions[0]).max() <= SolveConfig().dedup_radius


def test_newton_fiber_of_the_a2_cone_finds_planted_regular_sections(a2_cone):
    # ROADMAP item 1's targets: regular points (Jacobian rank 7 of 11) of the
    # A2 section system, reached by Gauss-Newton on the whole system from
    # seeded starts, evaluated at random base points.  The fiber is not
    # certified (item 1), so only the planted section is checked, not the
    # count; every one of these eight was found by the stacked-SVD steps too
    cfg = SolveConfig()
    sys = real_section_system(a2_cone)
    n = sys.nvars
    rng = np.random.default_rng(0)
    x, ok = _gauss_newton(sys, np.zeros((1, n)), np.eye(n)[None],
                          rng.standard_normal((200, n)), cfg, np.zeros(200, int))
    planted = [p for p in x[ok] if sys.jacobian_rank(p, cfg.rank_rtol) == 7][:8]
    assert len(planted) == 8
    for p in planted:
        target = evaluate_section(a2_cone, p, complex(*rng.standard_normal(2)))
        res = solve_fiber(a2_cone, target.zeta, target.values, cfg)
        assert res.method == "newton-multistart"
        assert min(np.linalg.norm(s - p) for s in res.solutions) \
            <= 1e-8 * np.linalg.norm(p)


def _same_solutions(res, other, planted):
    tol = 1e-8 * (1.0 + np.linalg.norm(planted))
    return len(res.solutions) == len(other.solutions) and all(
        min(np.linalg.norm(s - t) for t in other.solutions) <= tol
        for s in res.solutions)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(["quadric", "deformed"]), seed=st.integers(0, 2 ** 32),
       exponent=st.floats(-6.0, 6.0), turn=st.floats(0.0, 1.0))
def test_fiber_is_chart_and_antipodal_covariant(quadric, deformed, name, seed,
                                                 exponent, turn):
    model = {"quadric": quadric, "deformed": deformed}[name]
    planted = sample_sections(model, 1, np.random.default_rng(seed), CFG)[0]
    zeta = 10.0 ** exponent * np.exp(2j * np.pi * turn)
    # values from the embedded polynomials in the standard chart, as given
    polys = model.section_basis.embed(list(planted))
    values = tuple(s.eval_point(P1Point.std(zeta)) for s in polys)
    chart_image = tuple(v / zeta ** k for v, k in zip(values, model.degrees))
    std = solve_fiber(model, P1Point.std(zeta), values, CFG)
    inf = solve_fiber(model, P1Point.inf(1 / zeta), chart_image, CFG)
    sigma = solve_fiber(model, None,
                        evaluate_section(model, planted, P1Point.std(zeta).antipodal()),
                        CFG)
    assert min(np.linalg.norm(s - planted) for s in std.solutions) \
        <= 1e-9 * np.linalg.norm(planted)
    assert _same_solutions(std, inf, planted) and _same_solutions(inf, std, planted)
    assert _same_solutions(std, sigma, planted) and _same_solutions(sigma, std, planted)


def test_smooth_fiber_unique(smooth, rng):
    for _ in range(10):
        z = complex(rng.standard_normal(), rng.standard_normal())
        p = rng.standard_normal(4)
        target = evaluate_section(smooth, p, z)
        res = solve_fiber(smooth, None, target, CFG)
        assert len(res.solutions) == 1
        assert np.allclose(res.solutions[0], p, atol=1e-9)


def test_deformed_fiber_counts(deformed, rng):
    mu = deformed.mu.to_float()
    hits = 0
    for _ in range(20):
        z = complex(rng.standard_normal(), rng.standard_normal()) * 0.6
        pt = P1Point.std(z)
        x = complex(rng.standard_normal(), rng.standard_normal())
        zz = complex(rng.standard_normal(), rng.standard_normal())
        if abs(x) < 0.3:
            continue
        y = (zz * zz + mu.eval_point(pt)) / x
        res = solve_fiber(deformed, pt, (x, y, zz), CFG)
        assert len(res.solutions) <= 2
        hits += len(res.solutions)
    assert hits > 0


def test_deformed_singular_vertex_family(deformed):
    res = solve_fiber(deformed, 1 + 0j, (0, 0, 0), CFG)
    assert res.family is not None and res.family.dim == 2
    rng = np.random.default_rng(0)
    sys = real_section_system(deformed)
    for p in res.family.sample(20, rng):
        assert sys.membership(p, tol=1e-8).passed
        x0 = complex(p[0], p[1])
        z0 = complex(p[6], p[7])
        assert abs(p[2]) < 1e-9 and abs(p[3]) < 1e-9      # x1 = 0
        assert abs(complex(p[4], p[5]) + x0) < 1e-9       # x2 = -x0
        assert abs(p[8]) < 1e-9                           # r = 0
        assert abs(z0.imag) < 1e-9
        assert abs(x0.real ** 2 + x0.imag ** 2 + z0.real ** 2 - 1) < 1e-9
        for zeta in (1 + 0j, -1 + 0j):
            fp = evaluate_section(deformed, p, zeta)
            assert np.allclose(fp.values, 0, atol=1e-9)


def test_deformed_taureal_vertex_empty():
    from twistorcheck import build_deformed
    model = build_deformed([0, 1, 0], "real")
    res = solve_fiber(model, 0j, (0, 0, 0), CFG)
    assert res.solutions == [] and res.family is None


def test_jacobian_rank_examples(quadric_system):
    assert quadric_system.jacobian_rank(quadric_params(1, 0, 0, 0, 1)) == 5
    assert quadric_system.jacobian_rank(np.zeros(9)) == 0
    assert quadric_system.jacobian_rank(quadric_params(1, -2, 1, 1, 0)) == 5


def test_singular_scan_quadric(quadric, rng):
    points = [squaring_section(complex(rng.standard_normal(), rng.standard_normal()),
                               complex(rng.standard_normal(), rng.standard_normal()),
                               "minus") for _ in range(200)]
    points.append(np.zeros(9))
    rep = singular_scan(quadric, points, CFG)
    assert len(rep.singular) == 1
    assert np.allclose(rep.singular[0].params, 0)
    assert rep.singular[0].rank == 0
    assert len(rep.clusters) == 1


def test_singular_scan_deformed_family(deformed):
    # structured grid on the singular two-sphere |x0|^2 + z0^2 = 1
    points = []
    for i in range(12):
        theta = math.pi * (i + 0.5) / 12
        for j in range(24):
            phi = 2 * math.pi * j / 24
            x0 = math.sin(theta) * complex(math.cos(phi), math.sin(phi))
            points.append(quadric_params(x0, 0, -x0, math.cos(theta), 0))
    cfg = SolveConfig(seed=7, cluster_radius=0.5)
    rep = singular_scan(deformed, points, cfg)
    assert len(rep.singular) == len(points)
    assert all(e.rank == 3 for e in rep.singular)
    assert len(rep.clusters) == 1


def test_singular_scan_smooth(smooth, rng):
    points = [rng.standard_normal(4) for _ in range(30)]
    rep = singular_scan(smooth, points, CFG)
    assert not rep.singular and rep.regular_count == 30


def test_branch_examples(quadric):
    assert branch_test(quadric, quadric_params(1, 0, 0, 0, 1), 0j).verdict \
        == "unbranched"
    assert branch_test(quadric, np.zeros(9), 0j).verdict == "branched"
    assert branch_test(quadric, quadric_params(0, 0, 1, 0, 1), 0j).verdict \
        == "unbranched"


def test_normal_splitting_examples(quadric):
    rep = normal_splitting(quadric, quadric_params(1, 0, 0, 0, 1))
    assert rep.splitting.degrees == (1, 1)
    assert rep.h0 == 4 and rep.h0_minus2 == 0
    rep = normal_splitting(quadric, quadric_params(0, 0, 1, 0, 1))
    assert rep.splitting.degrees == (1, 1)
    rep = normal_splitting(quadric, np.zeros(9))
    assert rep.splitting is None
    assert rep.degenerate and rep.degenerate[0]["locations"] == ["everywhere"]


def test_normal_splitting_smooth(smooth, rng):
    rep = normal_splitting(smooth, rng.standard_normal(4))
    assert rep.splitting.degrees == (1, 1)
    assert rep.h0 == 4 and rep.h0_minus2 == 0


def test_classify_all_three(quadric, deformed, smooth):
    cfg = SolveConfig(seed=11)
    assert classify_hypercomplex(quadric, cfg).verdict == "Hypercomplex"
    cls = classify_hypercomplex(deformed, cfg)
    assert cls.verdict == "WeaklyHypercomplex"
    assert cls.evidence["family_dimension"] == 2
    assert classify_hypercomplex(smooth, cfg).verdict == "Hypercomplex"


@pytest.mark.parametrize("name,verdict", [
    ("quadric", "Hypercomplex"), ("deformed", "WeaklyHypercomplex"),
    ("smooth", "Hypercomplex"), ("doubled", "Undetermined"),
    ("a2_cone", "WeaklyHypercomplex"), ("a3_cone", "WeaklyHypercomplex")])
def test_batched_examination_equals_each_pair_alone(name, verdict, request):
    model = request.getfixturevalue(name).float_view()
    pairs, _ = _FAMILIES[model.family].singular_pairs(model)
    fibers = [(pt, values, solve_fiber(model, pt, values, CFG))
              for pt, values in pairs]
    entries = _examine_pairs(model, fibers, CFG)
    assert entries == [_examine_pairs(model, [f], CFG)[0] for f in fibers]
    cls = classify_hypercomplex(model, CFG)
    assert cls.verdict == verdict
    assert cls.evidence["families"] == [e for e in entries if e]


def _antipodal_rows_add_no_rank(model, p, pt):
    """Numerical rank of [J(p); A(zeta)] against [J(p); A(zeta); A(sigma zeta)]."""
    jac = real_section_system(model).jacobian_at(np.asarray(p, dtype=float))
    amats, _ = _incidence(model, [pt, pt.antipodal()], np.zeros((2, len(model.degrees))))
    single = np.vstack([jac, amats[0]])
    both = np.vstack([single, amats[1]])
    ranks = [numerical_rank(np.linalg.svd(m, compute_uv=False), CFG.rank_rtol)
             for m in (single, both)]
    return ranks[0] == ranks[1]


@pytest.mark.parametrize("name", ["quadric", "deformed", "doubled", "a2_cone"])
def test_antipodal_rows_add_no_rank_at_examined_candidates(name, request):
    # every candidate _examine_pairs sees: the fiber solutions at each
    # singular pair, then two samples of the fiber family
    model = request.getfixturevalue(name).float_view()
    pairs, _ = _FAMILIES[model.family].singular_pairs(model)
    seen = 0
    for pt, values in pairs:
        res = solve_fiber(model, pt, values, CFG)
        cands = list(res.solutions)
        if res.family is not None:
            cands.extend(res.family.sample(2, np.random.default_rng(CFG.seed + 7)))
        for cand in cands:
            assert _antipodal_rows_add_no_rank(model, cand, pt)
            seen += 1
    assert seen >= len(pairs) > 0


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(["quadric", "deformed"]), seed=st.integers(0, 2 ** 32),
       chart=st.sampled_from(["std", "inf"]), exponent=st.floats(-3.0, 3.0),
       turn=st.floats(0.0, 1.0))
def test_antipodal_rows_add_no_rank_at_sampled_sections(quadric, deformed, name, seed,
                                                        chart, exponent, turn):
    model = {"quadric": quadric, "deformed": deformed}[name]
    planted = sample_sections(model, 1, np.random.default_rng(seed), CFG)[0]
    pt = P1Point(chart, 10.0 ** exponent * np.exp(2j * np.pi * turn))
    assert _antipodal_rows_add_no_rank(model, planted, pt)


@pytest.mark.parametrize("lam,reality,verdict", [
    ([1j, 0j, -1j], "antireal", "WeaklyHypercomplex"),
    ([1.0, 0.0, -1.0], "real", "Hypercomplex")])
def test_quadric_family_without_lambda(lam, reality, verdict):
    # saved without lambda, the singular points come from the double zeros
    # of mu = lambda^2 instead of the zeros of lambda
    builtin = build_deformed(lam, reality)
    doc = serialize.model_to_dict(builtin)
    del doc["lambda"], doc["reality"]
    model = serialize.model_from_dict(doc)
    assert model.lam is None and model.family == "quadric"
    cls = classify_hypercomplex(model, CFG)
    assert cls.verdict == verdict
    if verdict == "WeaklyHypercomplex":
        assert cls.evidence["family_dimension"] == 2
    (got,) = cls.evidence["singular_fiber_points"]
    (want, _), = _FAMILIES["quadric"].singular_pairs(builtin)[0]
    assert P1Point(got["chart"], complex(*got["value"])).same_point(want, tol=1e-12)


@pytest.fixture()
def newton_rows(monkeypatch):
    """Row counts of the _gauss_newton calls made while the test runs."""
    rows = []
    original = analysis._gauss_newton

    def counting(sys, base, kernel, x0, cfg, slices):
        rows.append(len(x0))
        return original(sys, base, kernel, x0, cfg, slices)

    monkeypatch.setattr(analysis, "_gauss_newton", counting)
    return rows


def test_examination_rounds_walk_past_regular_candidates(deformed, newton_rows):
    # the second copy of the vertex pair starts with a generic point of
    # corank 0, so the first stage certifies only the first copy (two
    # continuation rows), and the second stage examines the ten other
    # candidates of the second copy (two rows each); it keeps the first
    # confirmed one, the first copy's candidate
    model = deformed.float_view()
    (pt, values), = _FAMILIES[model.family].singular_pairs(model)[0]
    res = solve_fiber(model, pt, values, CFG)
    generic = np.random.default_rng(3).standard_normal(model.nparams)
    late = FiberSolveResult([generic] + res.solutions, res.complete, res.family,
                            res.method)
    first, second = _examine_pairs(model, [(pt, values, res), (pt, values, late)], CFG)
    assert newton_rows == [2, 20] and first["certified"] and first == second


def test_classify_runs_one_gauss_newton_call(newton_rows):
    # the quadric cone: 3 vertex pairs x 2 kernel directions, one batched call
    classify_hypercomplex(build_quadric())
    assert newton_rows == [6]


def _called_from(name: str) -> bool:
    frame = inspect.currentframe()
    while frame is not None and frame.f_code.co_name != name:
        frame = frame.f_back
    return frame is not None


def _examined(a3_cone, monkeypatch, seed):
    """classify on the A3 cone at a seed, counting the _gauss_newton calls
    and on_slice builds of _examine_pairs and the slices of each build."""
    calls, built = {"_gauss_newton": 0, "on_slice": 0}, []
    newton, on_slice = analysis._gauss_newton, systems.RealEquationSystem.on_slice

    def stepping(*args):
        calls["_gauss_newton"] += _called_from("_examine_pairs")
        return newton(*args)

    def building(self, base, kernel):
        if _called_from("_examine_pairs"):
            calls["on_slice"] += 1
            built.append(len(base))
        return on_slice(self, base, kernel)

    monkeypatch.setattr(analysis, "_gauss_newton", stepping)
    monkeypatch.setattr(systems.RealEquationSystem, "on_slice", building)
    return classify_hypercomplex(a3_cone, SolveConfig(seed=seed)), calls, built


def test_a3_classify_examines_its_pairs_in_two_stages(a3_cone, monkeypatch):
    # the A3 cone at seed 0: the first stage takes the first candidate of
    # both pairs in one Gauss-Newton call; neither certifies there, so the
    # second stage takes the other 39 candidates of both pairs in one more.
    # Each call builds the system once, on the slices of the pairs it
    # examines: both, twice
    cls, calls, built = _examined(a3_cone, monkeypatch, 0)
    assert cls.verdict == "WeaklyHypercomplex"
    assert cls.evidence["family_dimension"] == 4
    assert [f["certified"] for f in cls.evidence["families"]] == [False, True]
    assert calls == {"_gauss_newton": 2, "on_slice": 2}
    assert built == [2, 2]


def test_a3_second_stage_builds_only_the_uncertified_pairs_slices(a3_cone, monkeypatch):
    # at seed 6 the first pair certifies on its first candidate, so the
    # second stage builds the system on the other pair's slice alone
    cls, calls, built = _examined(a3_cone, monkeypatch, 6)
    assert cls.verdict == "WeaklyHypercomplex"
    assert cls.evidence["family_dimension"] == 2
    assert [f["certified"] for f in cls.evidence["families"]] == [True, False]
    assert calls == {"_gauss_newton": 2, "on_slice": 2}
    assert built == [2, 1]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the A3 verdict depends on the "
                   "seed; at seed 2 neither pair certifies (corank 4 at both)")
def test_a3_classify_verdict_does_not_depend_on_the_seed(a3_cone):
    verdicts = [classify_hypercomplex(a3_cone, SolveConfig(seed=seed)).verdict
                for seed in (0, 2)]
    assert verdicts[0] == verdicts[1]


@pytest.fixture()
def corrector_steps(monkeypatch):
    """Row counts of the Gauss-Newton steps taken while the test runs."""
    rows = []
    original = analysis._slice_steps

    def counting(half, y1, r, degree, rtol, certify=None):
        rows.append(len(half))
        return original(half, y1, r, degree, rtol, certify)

    monkeypatch.setattr(analysis, "_slice_steps", counting)
    return rows


@pytest.fixture()
def step_certificates(monkeypatch):
    """Per Gauss-Newton step: the rows stepped, tried and certified."""
    calls = []
    original = analysis._slice_steps

    def recording(half, y1, r, degree, rtol, certify=None):
        step, certified = original(half, y1, r, degree, rtol, certify)
        tried = len(half) if certify is None else int(certify.sum())
        calls.append((len(half), tried, int(certified.sum())))
        return step, certified

    monkeypatch.setattr(analysis, "_slice_steps", recording)
    return calls


@pytest.mark.parametrize("name,values,seed", [
    ("doubled", "planted", 7), ("doubled", (0j, 0j, 0j), 7), ("a2_cone", (2, 4, 2), 0)])
def test_gauss_newton_steps_only_moving_rows(name, values, seed, corrector_steps,
                                             request):
    # multistart Newton at the doubled cone's planted target, where rows
    # only converge, at its vertex, and at a target of the A2 cone, where
    # rows also stall: each pass steps the rows still moving, so no step
    # gets an empty stack and the stepped row counts never increase
    model = request.getfixturevalue(name)
    pt = P1Point.std(0.4 - 0.3j)
    if values == "planted":
        planted = squaring_section(0.3 + 0.7j, -1.1 + 0.2j, "minus")
        values = evaluate_section(model, planted, pt).values
    res = solve_fiber(model, pt, values, SolveConfig(seed=seed))
    assert res.method == "newton-multistart" and res.solutions
    assert corrector_steps and min(corrector_steps) > 0
    assert all(a >= b for a, b in zip(corrector_steps, corrector_steps[1:]))


@pytest.mark.parametrize("name,values", [
    ("doubled", "planted"), ("a2_cone", (2, 4, 2)), ("a3_cone", (1, 16, 2))])
def test_gauss_newton_retries_no_row_that_failed_its_certificate(
        name, values, step_certificates, request):
    # every step on the doubled cone is certified; on the A2 and A3 cones
    # rows fail the certificate and take eigh from then on, so a pass tries
    # at most the rows certified on the pass before
    model = request.getfixturevalue(name)
    pt = P1Point.std(0.4 - 0.3j)
    if values == "planted":
        planted = squaring_section(0.3 + 0.7j, -1.1 + 0.2j, "minus")
        values = evaluate_section(model, planted, pt).values
    res = solve_fiber(model, pt, values, SolveConfig(seed=7))
    assert res.method == "newton-multistart" and res.solutions
    rows, tried, certified = zip(*step_certificates)
    assert tried[0] == rows[0] and all(c <= t for t, c in zip(tried, certified))
    assert all(t <= c for t, c in zip(tried[1:], certified))
    assert (certified == rows) == (name == "doubled")


def test_double_step_finishes_classify_at_the_singular_root(deformed, corrector_steps,
                                                            monkeypatch):
    # the quadric's continuation rows fall back to the zero section, a
    # singular root, in a few steps with the double step and in many without
    # it (an empty halving band); the deformed model's rows converge
    # quadratically, and both evidences are the same either way
    runs = {}
    for double, band in ((True, analysis._HALVING_BAND), (False, (1.0, 1.0))):
        monkeypatch.setattr(analysis, "_HALVING_BAND", band)
        for name, model in (("quadric", build_quadric()), ("deformed", deformed)):
            corrector_steps.clear()
            evidence = jsonable(classify_hypercomplex(model, CFG).evidence)
            runs[name, double] = len(corrector_steps), evidence
    steps = {key: count for key, (count, _) in runs.items()}
    assert steps["quadric", True] <= 4 < 10 < steps["quadric", False]
    assert steps["deformed", True] == steps["deformed", False] == 3
    for name in ("quadric", "deformed"):
        assert runs[name, True][1] == runs[name, False][1]
    assert runs["deformed", True][1]["families"][0]["certified"]


def test_classify_branch_checks_equal_branch_test_one_by_one(quadric, smooth,
                                                             monkeypatch):
    # the same rng2 draws over the scan's regular entries as branch_test
    # calls one at a time; the stacked helper also agrees on the zero
    # section, branched on the quadric cone and unbranched on smooth-o11
    scans = []
    scan = analysis.singular_scan

    def recording(*args):
        scans.append(scan(*args))
        return scans[-1]

    monkeypatch.setattr(analysis, "singular_scan", recording)
    for model in (quadric, smooth):
        cls = classify_hypercomplex(model, CFG)
        assert cls.verdict == "Hypercomplex"
        regular = [e.params for e in scans[-1].entries if not e.deficient]
        rng2 = np.random.default_rng(CFG.seed + 1)
        picks, zetas = [], []
        for _ in range(min(CFG.branch_checks, len(regular))):
            picks.append(regular[int(rng2.integers(len(regular)))])
            zetas.append(complex(rng2.standard_normal(), rng2.standard_normal()) * 0.6)
        alone = [branch_test(model, p, z, CFG) for p, z in zip(picks, zetas)]
        assert cls.evidence["branch_checks"] == [r.verdict for r in alone]
        assert len(alone) == CFG.branch_checks
        picks.append(np.zeros(model.nparams))
        zetas.append(0.3 - 0.2j)
        alone.append(branch_test(model, picks[-1], zetas[-1], CFG))
        assert analysis._branch_reports(model, picks, zetas, CFG) == alone
        assert alone[-1].verdict == ("branched" if model is quadric else "unbranched")


def test_classify_deterministic(deformed):
    from twistorcheck.serialize import jsonable
    cfg = SolveConfig(seed=11)
    a = classify_hypercomplex(deformed, cfg)
    b = classify_hypercomplex(deformed, cfg)
    assert jsonable(a.evidence) == jsonable(b.evidence)


def test_component_label_examples():
    assert component_label(quadric_params(1, 0, 0, 0, 1)) == 1
    assert component_label(squaring_section(1, 0, "plus")) == -1
    assert component_label(quadric_params(1, -2, 1, 1, 0)) == "boundary"
    with pytest.raises(OriginError):
        component_label(np.zeros(9))


def test_component_label_scales_without_overflow():
    # the norm of [1e200, 0, 0, 0, 1e200, ...] used to overflow to inf, and
    # with it the zero test, which reported the origin
    assert component_label([1e200, 0, 0, 0, 1e200, 0, 0, 0, 0]) == "boundary"
    assert component_label([1e100, 0, 0, 0, 1e100, 0, 0, 0, 0]) == "boundary"
    for exponent in (100, 150, 200, 300):
        for variant, label in (("minus", 1), ("plus", -1)):
            sec = squaring_section(0.3 + 0.7j, -1.1 + 0.2j, variant) * 10.0 ** exponent
            assert component_label(sec) == label
    # an exact section beyond the float range is labelled at unit size (it
    # used to raise ModelError)
    assert component_label([Fraction(10 ** 400)] + [Fraction(0)] * 3
                           + [Fraction(10 ** 400)] + [Fraction(0)] * 4) == "boundary"


def test_float_matrix_model_near_the_float_range():
    # its rank-one test squared 1 + max|a| and raised OverflowError at 1e200
    unit = quadric_params(1, 0, 0, 0, 1)
    b1, t1 = sym_matrix_model(unit, 1)
    for exponent in (100, 200, 300):
        b, t = sym_matrix_model(unit * 10.0 ** exponent, 1)
        assert t == pytest.approx(t1 * 10.0 ** exponent, rel=1e-15)
        assert np.allclose(b / 10.0 ** exponent, b1, rtol=1e-15, atol=0)
    with pytest.raises(ModelError, match="inconsistent"):
        sym_matrix_model(quadric_params(1e200, 2e200, 0, 0, 1e200), 1)


def _section_verdicts(model, p, zeta):
    """branch_test's verdict and rank, normal_splitting's splitting and
    degenerate flag, and component_label off the origin in the quadric layout."""
    rep, normal = branch_test(model, p, zeta, CFG), normal_splitting(model, p, CFG)
    label = component_label(p) if model.quadric_layout and any(p) else None
    return (rep.verdict, rep.rank, normal.splitting, bool(normal.degenerate), label)


@pytest.fixture(scope="module")
def doubled_file():
    return serialize.load_model_file(str(Path(__file__).parent / "data"
                                         / "doubled-quadric.json"))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(a=st.tuples(_unit, _unit), b=st.tuples(_unit, _unit), zeta=st.tuples(_unit, _unit),
       variant=st.sampled_from(["minus", "plus"]), k=st.integers(-1000, 1000))
def test_section_verdicts_do_not_depend_on_scale(quadric, smooth, doubled_file, a, b,
                                                 zeta, variant, k):
    # the quadric and the doubled cone are cones, smooth-o11 has no
    # equations: every verdict belongs to the section's ray (ROADMAP item
    # 17); the suite turns numpy's RuntimeWarnings into errors
    s, zeta = 2.0 ** k, complex(*zeta)
    planted = squaring_section(complex(*a), complex(*b), variant)
    free = np.array(a + b)
    for model, p in ((quadric, planted), (doubled_file, planted), (smooth, free)):
        assume(np.array_equal(p * s / s, p))  # s·p is exact
        assert _section_verdicts(model, s * p, zeta) == _section_verdicts(model, p, zeta)
    label = 1 if variant == "minus" else -1  # also on the boundary, r = 0
    b1, t1 = sym_matrix_model(planted, label)
    bs, ts = sym_matrix_model(s * planted, label)
    assert np.array_equal(bs, s * b1) and ts == s * t1


def test_exact_sections_beyond_the_float_range_take_the_unit_verdicts(quadric_exact):
    # an exact section of size 1e400 is divided exactly to unit size; these
    # raised OverflowError converting it to floats
    unit = squaring_section(GaussianRational(Fraction(3, 10), Fraction(7, 10)),
                            GaussianRational(-1, Fraction(1, 5)), "minus", exact=True)
    huge = [v * 10 ** 400 for v in unit]
    assert _section_verdicts(quadric_exact, huge, 0.3) \
        == _section_verdicts(quadric_exact, unit, 0.3)
    assert normal_splitting(quadric_exact, huge).splitting.degrees == (1, 1)


def test_deformed_branch_verdicts_of_large_sections(deformed):
    # the deformed model is no cone, so its sections keep their size; J(p)
    # of size t beside incidence rows of size 1 used to fall below the one
    # relative cutoff and read "branched" (rank 5 to 7)
    zeta, rng = 0.3 + 0.2j, np.random.default_rng(3)
    lam = deformed.lam.eval_point(P1Point.std(zeta))
    for t in (1e6, 1e8, 1e10):
        x, z = (complex(*rng.standard_normal(2)) * t for _ in range(2))
        res = solve_fiber(deformed, zeta, (x, (z * z + lam * lam) / x, z), CFG)
        assert len(res.solutions) == 2
        for sol in res.solutions:
            assert branch_test(deformed, sol, 0.5 - 0.1j, CFG) == analysis.BranchReport(
                "unbranched", 9, 9)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: the deformed closed form "
                   "returns no section, complete, for targets of size 1e16")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_deformed_closed_form_at_very_large_targets(deformed, seed):
    zeta, rng = 0.3 + 0.2j, np.random.default_rng(seed)
    lam = deformed.lam.eval_point(P1Point.std(zeta))
    x, z = (complex(*rng.standard_normal(2)) for _ in range(2))
    for t in (1e14, 1e16):
        target = (x * t, ((z * t) ** 2 + lam * lam) / (x * t), z * t)
        assert len(solve_fiber(deformed, zeta, target, CFG).solutions) == 2, t


def test_sym_matrix_model_examples():
    b, t = sym_matrix_model(quadric_params(1, 0, 0, 0, 1), 1)
    assert t == pytest.approx(1.0)
    assert np.allclose(b, np.diag([0.75, -0.25, -0.25, -0.25]))
    b, t = sym_matrix_model(quadric_params(-1, 0, 0, 0, 1), 1)
    assert t == pytest.approx(1.0)
    assert np.allclose(b, np.diag([-0.25, 0.75, -0.25, -0.25]))
    b, t = sym_matrix_model(np.zeros(9), 1)
    assert t == 0 and np.allclose(b, 0)


def test_sym_matrix_model_recovers_outer_product(rng):
    for _ in range(25):
        q = rng.standard_normal(4)
        a = complex(q[0], q[1])
        bb = complex(q[2], q[3])
        sec = squaring_section(a, bb, "minus")
        label = component_label(sec)
        label = 1 if label == "boundary" else label
        b, t = sym_matrix_model(sec, label)
        assert abs(np.trace(b)) < 1e-9 * (1 + abs(t))
        amat = b + (t / 4.0) * np.eye(4)
        assert np.allclose(amat, np.outer(q, q), atol=1e-8 * (1 + abs(t)))


def test_sym_matrix_model_rejects_off_variety():
    for exact in (False, True):
        with pytest.raises(ModelError):
            sym_matrix_model(quadric_params(1, 1, 1, 1, 1, exact=exact), 1, exact=exact)


def _fraction_matrix_model(params, s):
    """The exact (B, t) by the Fraction formulas: moduli by square roots of
    reduced fractions, rank one by all 2x2 minors."""
    x0r, x0i, x1r, x1i, x2r, x2i, z0r, z0i, _ = [Fraction(v) for v in params]

    def modulus(re, im):
        f = re * re + im * im
        n, d = math.isqrt(f.numerator), math.isqrt(f.denominator)
        if n * n != f.numerator or d * d != f.denominator:
            raise ModelError("modulus is not an exact rational square")
        return Fraction(n, d)

    m0, m2 = modulus(x0r, x0i), modulus(x2r, x2i)
    t = s * (m0 + m2)
    a = [[None] * 4 for _ in range(4)]
    a[0][0], a[1][1] = s * (m0 + x0r) / 2, s * (m0 - x0r) / 2
    a[2][2], a[3][3] = s * (m2 + x2r) / 2, s * (m2 - x2r) / 2
    a[0][1], a[2][3] = s * x0i / 2, -s * x2i / 2
    a[0][2] = (2 * s * z0r - x1r) / 2 / 2
    a[1][3] = (-x1r - 2 * s * z0r) / 2 / 2
    a[1][2] = (2 * s * z0i - x1i) / 2 / 2
    a[0][3] = (2 * s * z0i + x1i) / 2 / 2
    for i in range(4):
        for j in range(i + 1, 4):
            a[j][i] = a[i][j]
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    if any(a[i][k] * a[j][m] != a[i][m] * a[j][k] for i, j in pairs for k, m in pairs):
        raise ModelError("recovered products are inconsistent (2x2 minor != 0)")
    return [[a[i][j] - (t / 4 if i == j else 0) for j in range(4)]
            for i in range(4)], t


def _matrix_model_outcome(call, params, label):
    try:
        return call(params, label)
    except ModelError as exc:
        return ModelError, str(exc)


_gaussian_rational = st.builds(
    GaussianRational, st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.fractions(min_value=-9, max_value=9, max_denominator=12))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(a=_gaussian_rational, b=_gaussian_rational,
       variant=st.sampled_from(["minus", "plus"]), label=st.sampled_from([1, -1]),
       shift=st.integers(0, 8), by=st.fractions(min_value=-2, max_value=2,
                                                max_denominator=5))
def test_exact_matrix_model_equals_the_fraction_formulas(a, b, variant, label,
                                                          shift, by):
    # planted sections with either label (the wrong one is refused), the
    # same with one coordinate moved, and the integer scaling of each
    sec = squaring_section(a, b, variant, exact=True)
    moved = list(sec)
    moved[shift] += by
    for params in (sec, moved, [v * 6 for v in sec], [Fraction(v) for v in moved]):
        got = _matrix_model_outcome(
            lambda p, s: sym_matrix_model(p, s, exact=True), params, label)
        want = _matrix_model_outcome(_fraction_matrix_model, params, label)
        assert got == want
        if got[0] is not ModelError:
            assert all(type(v) is Fraction for row in got[0] for v in row)
            assert type(got[1]) is Fraction
    planted = 1 if variant == "minus" else -1
    if a or b:
        assert _matrix_model_outcome(
            lambda p, s: sym_matrix_model(p, s, exact=True), sec, planted)[0] \
            is not ModelError


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(a=_gaussian_rational, b=_gaussian_rational,
       variant=st.sampled_from(["minus", "plus"]))
def test_matrix_model_backends_agree(a, b, variant):
    # one rational squaring section through both backends, under both labels:
    # the float (B, t) is the exact one to 1e-12 relative, and both refuse
    # the wrong label unless a = 0 or b = 0 (x0 = 0 or x2 = 0: A has rank
    # one under either label)
    sec = squaring_section(a, b, variant, exact=True)
    planted = 1 if variant == "minus" else -1
    for label in (planted, -planted):
        exact = _matrix_model_outcome(
            lambda p, s: sym_matrix_model(p, s, exact=True), sec, label)
        got = _matrix_model_outcome(sym_matrix_model, [float(v) for v in sec], label)
        if label != planted and a and b:
            assert exact[0] is ModelError and got[0] is ModelError
        assert (exact[0] is ModelError) == (got[0] is ModelError)
        if got[0] is not ModelError:
            want = np.array(exact[0], dtype=float)
            scale = 1.0 + np.abs(want).max()
            assert np.abs(got[0] - want).max() <= 1e-12 * scale
            assert abs(got[1] - float(exact[1])) <= 1e-12 * scale


def test_exact_matrix_model_refusals():
    # |x0|^2 = 2 is not a rational square; off-variety points give A of
    # rank 2 (A = diag(1, 0, 1, 0) up to sign) and of rank 3 or more
    cases = [(quadric_params(1 + 1j, 0, 0, 0, 0), "modulus is not an exact"),
             (quadric_params(1, 0, 1 + 1j, 0, 0), "modulus is not an exact"),
             (quadric_params(1, 0, 1, 0, 0), "inconsistent"),
             (quadric_params(1, 1, 1, 1, 1, exact=True), "inconsistent")]
    for params, message in cases:
        exact = [Fraction(v).limit_denominator() for v in params]
        for label in (1, -1):
            with pytest.raises(ModelError, match=message):
                sym_matrix_model(exact, label, exact=True)
            assert _matrix_model_outcome(_fraction_matrix_model, exact, label)[0] \
                is ModelError


def test_matrix_oracle_examples():
    rep = rank_one_matrix_oracle([1.0, 0.0, 0.0, 0.0])
    assert rep.rank_a == 1 and abs(rep.trace_b) < 1e-15
    rep = rank_one_matrix_oracle([1.0, 1.0, 0.0, 0.0])
    assert rep.product_identity_norm < 1e-12
    rep = rank_one_matrix_oracle([1.0, 2.0, 3.0, 4.0])
    a = np.array(rep.a, dtype=float)
    want = 0.75 * rep.t * np.linalg.norm(a)
    assert rep.displayed_residual_norm == pytest.approx(want, rel=1e-12)
    assert rep.displayed_residual_norm > 1.0


def test_sample_sections_deformed(deformed, rng):
    pts = sample_sections(deformed, 10, rng, CFG)
    sys = real_section_system(deformed)
    assert len(pts) == 10
    assert all(sys.membership(p, tol=1e-8).passed for p in pts)


# exact backend: numeric ops run on the float view, certificates stay exact
G = GaussianRational
EXACT_SECTIONS = [(G(Fraction(1, 2), Fraction(-3, 5)), G(Fraction(2, 7), Fraction(1, 3))),
                  (G(1, 2), G(Fraction(-1, 3), 0))]


@pytest.mark.parametrize("name", ["quadric", "deformed"])
def test_exact_classify_evidence_equals_float(name):
    if name == "quadric":
        exact, floats = build_quadric(exact=True), build_quadric()
    else:
        exact = build_deformed([G(0, 1), 0, G(0, -1)], "antireal", exact=True)
        floats = build_deformed([1j, 0j, -1j], "antireal")
    cfg = SolveConfig(seed=3)
    a = classify_hypercomplex(exact, cfg)
    b = classify_hypercomplex(floats, cfg)
    assert a.verdict == b.verdict
    assert json.dumps(jsonable(a.evidence), sort_keys=True) == \
        json.dumps(jsonable(b.evidence), sort_keys=True)


def test_exact_quadric_fiber_at_a_rational_target(quadric_exact):
    for a, b in EXACT_SECTIONS:
        sec = squaring_section(a, b, "minus", exact=True)
        target = evaluate_section(quadric_exact, sec, G(Fraction(1, 3), Fraction(1, 4)))
        res = solve_fiber(quadric_exact, target.zeta, target.values)
        assert len(res.solutions) == 2 and res.method == "closed-form"
        assert min(np.linalg.norm(s - np.array([float(v) for v in sec]))
                   for s in res.solutions) < 1e-9


def test_exact_normal_splitting_of_rational_sections(quadric_exact):
    for a, b in EXACT_SECTIONS:
        for variant in ("minus", "plus"):
            sec = squaring_section(a, b, variant, exact=True)
            rep = normal_splitting(quadric_exact, sec)
            assert rep.splitting == SplittingType((1, 1))
            assert rep.h0 == 4 and rep.h0_minus2 == 0 and rep.regular_point


@pytest.fixture()
def system_builds(monkeypatch):
    """Count of RealEquationSystem constructions while the test runs."""
    builds = []
    original = systems.RealEquationSystem

    def counting(*args, **kwargs):
        builds.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(systems, "RealEquationSystem", counting)
    return builds


def test_ops_on_one_model_share_one_system(system_builds):
    quadric = build_quadric()
    sec = quadric_params(1, 0, 0, 0, 1)
    solve_fiber(quadric, 0j, (1, 1, 1), CFG)
    branch_test(quadric, sec, 0j, CFG)
    normal_splitting(quadric, sec, CFG)
    singular_scan(quadric, [sec, np.zeros(9)], CFG)
    classify_hypercomplex(quadric, CFG)
    assert len(system_builds) == 1
    assert real_section_system(quadric) is real_section_system(quadric)


def test_sampling_by_fiber_solves_builds_one_system(system_builds):
    deformed = build_deformed(ANTIREAL_LAMBDA, "antireal")
    samples = sample_sections(deformed, 60, np.random.default_rng(1), CFG)
    assert len(samples) == 60
    assert len(system_builds) <= 1
