"""Fiber solving, loci detection, classification and the matrix model."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twistorcheck import (FiberError, GaussianRational, ModelError, OriginError,
                          P1Point, SolveConfig, branch_test,
                          build_deformed, build_quadric, classify_hypercomplex,
                          component_label, evaluate_section, normal_splitting,
                          quadric_params, quadric_tuple, rank_one_matrix_oracle,
                          singular_scan, solve_fiber, squaring_section,
                          sym_matrix_model)
from twistorcheck.analysis import (_FAMILIES, FiberSolveResult, _examine_pairs,
                                  _gauss_newton, _incidence_rhs,
                                  _incidence_slice, _newton_multistart,
                                  incidence_rows, sample_sections)
from twistorcheck.projline import SplittingType
from twistorcheck import analysis, serialize, systems
from twistorcheck.serialize import jsonable
from twistorcheck.systems import real_section_system
from conftest import ANTIREAL_LAMBDA

CFG = SolveConfig(seed=7)


def test_evaluate_section_examples(quadric):
    fp = evaluate_section(quadric, quadric_params(1, -2, 1, 1, 0), 0j)
    assert np.allclose(fp.values, (1, 1, 1))
    fp = evaluate_section(quadric, quadric_params(1, 0, 0, 0, 1), 0j)
    assert np.allclose(fp.values, (1, 0, 0))
    fp = evaluate_section(quadric, np.zeros(9), 0.3 + 0.8j)
    assert np.allclose(fp.values, (0, 0, 0))


def test_evaluate_section_matches_sigma_symmetry(quadric, rng):
    # value at the antipodal point is the rule image of the value at the point
    from twistorcheck.analysis import _sigma_image_values
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


def test_solve_fiber_matches_newton_multistart(quadric, rng):
    cfg = SolveConfig(seed=3, multistart=60)
    for _ in range(3):
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        sec = squaring_section(a, b, "minus")
        target = evaluate_section(quadric, sec, 0j)
        closed = solve_fiber(quadric, None, target, cfg)
        newton = _newton_multistart(quadric, target.zeta, target.values, cfg)
        for sol in newton:
            assert min(np.linalg.norm(sol - np.asarray(c))
                       for c in closed.solutions) < 1e-6


def _on_incidence(x, amats, rhs):
    """Every row of x satisfies its block amats[k] @ x[k] = rhs[k] (one block
    of shape (1, r, n) is shared) to 1e-12 relative."""
    gap = np.abs(np.einsum("krn,kn->kr", amats, x) - rhs).max(axis=1)
    return bool((gap <= 1e-12 * (1.0 + np.abs(rhs).max(axis=1))).all())


@pytest.mark.parametrize("max_iter", [50, 8])
def test_batched_gauss_newton_rows_do_not_interact(doubled, max_iter):
    # the doubled cone's 40 multistart rows, at a target and at the vertex;
    # with 8 iterations some rows stop unconverged
    cfg = SolveConfig(seed=7, max_iter=max_iter)
    sys = real_section_system(doubled)
    planted = squaring_section(0.3 + 0.7j, -1.1 + 0.2j, "minus")
    pt = P1Point.std(0.4 - 0.3j)
    converged = []
    for values in (evaluate_section(doubled, planted, pt).values, (0j, 0j, 0j)):
        amat, b = incidence_rows(doubled, pt)[None], _incidence_rhs(values)[None]
        base, kernel = _incidence_slice(amat, b, cfg.rank_rtol)
        starts = np.random.default_rng(cfg.seed).standard_normal(
            (cfg.multistart, sys.nvars)) * 2.0
        x, ok = _gauss_newton(sys, base, kernel, starts, cfg)
        converged.extend(ok)
        assert _on_incidence(x, amat, b)
        for i, start in enumerate(starts):
            alone, alone_ok = _gauss_newton(sys, base, kernel, [start], cfg)
            assert np.array_equal(alone[0], x[i]) and alone_ok[0] == ok[i]
    assert any(converged) and all(converged) == (max_iter == 50)
    # rows with their own incidence blocks: a base point per row, the planted
    # target on odd rows and the vertex on even ones; each row equals its
    # start run alone against its block as a shared one
    amats, rhs = [], []
    for i, (re, im) in enumerate(np.random.default_rng(1).standard_normal((len(starts), 2))):
        pt_i = P1Point.std(complex(re, im))
        values = evaluate_section(doubled, planted, pt_i).values if i % 2 else (0j,) * 3
        amats.append(incidence_rows(doubled, pt_i))
        rhs.append(_incidence_rhs(values))
    amats, rhs = np.array(amats), np.array(rhs)
    x, ok = _gauss_newton(sys, *_incidence_slice(amats, rhs, cfg.rank_rtol),
                          starts, cfg)
    assert _on_incidence(x, amats, rhs)
    for i, start in enumerate(starts):
        block = _incidence_slice(amats[i:i + 1], rhs[i:i + 1], cfg.rank_rtol)
        alone, alone_ok = _gauss_newton(sys, *block, [start], cfg)
        assert np.array_equal(alone[0], x[i]) and alone_ok[0] == ok[i]
    assert ok[1::2].any()


def test_incidence_slice_pads_smaller_kernels_with_zero_rows(doubled):
    # the second block repeats one incidence row, so its kernel has one more
    # dimension; the first block's basis gets one zero row, which changes
    # neither its slice nor the Gauss-Newton steps taken in it
    cfg = SolveConfig(seed=7)
    sys = real_section_system(doubled)
    pt = P1Point.std(0.4 - 0.3j)
    planted = squaring_section(0.3 + 0.7j, -1.1 + 0.2j, "minus")
    amat = incidence_rows(doubled, pt)
    b = _incidence_rhs(evaluate_section(doubled, planted, pt).values)
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
    x, ok = _gauss_newton(sys, base, kernel, [start, start], cfg)
    alone, alone_ok = _gauss_newton(sys, alone_base, alone_kernel, [start], cfg)
    assert ok[0] and alone_ok[0]
    assert np.allclose(x[0], alone[0], atol=1e-9)


def test_newton_rows_stay_on_their_incidence_blocks(doubled, deformed, monkeypatch):
    # both callers: multistart (one shared block) at a target and at the
    # vertex, and the continuation rows of classify (a block per row)
    calls = []
    slice_, newton = analysis._incidence_slice, analysis._gauss_newton

    def slicing(amats, rhs, rtol):
        calls.append([amats, rhs])
        return slice_(amats, rhs, rtol)

    def stepping(*args):
        x, ok = newton(*args)
        calls[-1].append(x)
        return x, ok

    monkeypatch.setattr(analysis, "_incidence_slice", slicing)
    monkeypatch.setattr(analysis, "_gauss_newton", stepping)
    planted = squaring_section(0.3 + 0.7j, -1.1 + 0.2j, "minus")
    target = evaluate_section(doubled, planted, 0.4 - 0.3j)
    solve_fiber(doubled, target.zeta, target.values, CFG)
    solve_fiber(doubled, target.zeta, (0j, 0j, 0j), CFG)
    classify_hypercomplex(build_quadric(), CFG)
    classify_hypercomplex(deformed, CFG)
    assert len(calls) == 4
    for amats, rhs, x in calls:
        assert _on_incidence(x, amats, rhs)


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
    doc = serialize.model_to_dict(quadric)
    for eq in doc["equations"]:
        for mono in eq["monomials"]:
            mono["coeffs"] = [[2 * re, 2 * im] for re, im in mono["coeffs"]]
    doubled = serialize.model_from_dict(doc)
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
    from twistorcheck.analysis import _sigma_image_values
    model = {"quadric": quadric, "deformed": deformed}[name]
    planted = sample_sections(model, 1, np.random.default_rng(seed), CFG)[0]
    zeta = 10.0 ** exponent * np.exp(2j * np.pi * turn)
    # values from the embedded polynomials in the standard chart, as given
    polys = model.section_basis.embed(list(planted))
    values = tuple(s.eval_point(P1Point.std(zeta)) for s in polys)
    chart_image = tuple(v / zeta ** k for v, k in zip(values, model.degrees))
    std = solve_fiber(model, P1Point.std(zeta), values, CFG)
    inf = solve_fiber(model, P1Point.inf(1 / zeta), chart_image, CFG)
    sigma = solve_fiber(model, P1Point.std(zeta).antipodal(),
                        _sigma_image_values(model, values, "std"), CFG)
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
    ("a2_cone", "WeaklyHypercomplex")])
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


@pytest.fixture()
def newton_rows(monkeypatch):
    """Row counts of the _gauss_newton calls made while the test runs."""
    rows = []
    original = analysis._gauss_newton

    def counting(sys, base, kernel, x0, cfg):
        rows.append(len(x0))
        return original(sys, base, kernel, x0, cfg)

    monkeypatch.setattr(analysis, "_gauss_newton", counting)
    return rows


def test_examination_rounds_walk_past_regular_candidates(deformed, newton_rows):
    # the second copy of the vertex pair starts with a generic point of
    # corank 0, so its certified candidate comes one round later
    model = deformed.float_view()
    (pt, values), = _FAMILIES[model.family].singular_pairs(model)[0]
    res = solve_fiber(model, pt, values, CFG)
    generic = np.random.default_rng(3).standard_normal(model.nparams)
    late = FiberSolveResult([generic] + res.solutions, res.complete, res.family,
                            res.method)
    first, second = _examine_pairs(model, [(pt, values, res), (pt, values, late)], CFG)
    assert newton_rows == [2, 2] and first["certified"] and first == second


def test_classify_runs_one_gauss_newton_call(newton_rows):
    # the quadric cone: 3 vertex pairs x 2 kernel directions, one batched call
    classify_hypercomplex(build_quadric())
    assert newton_rows == [6]


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
