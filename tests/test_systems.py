"""Induced real systems: equation counts, membership, Jacobians."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistorcheck import (DimensionError, ModelError, SigmaCoordRule,
                          build_deformed, build_quadric, build_smooth_o11,
                          glue_cone_twistor, quadric_params)
from twistorcheck.scalars import GaussianRational as GR
from twistorcheck.systems import real_section_system

from conftest import fd_jacobian


def test_quadric_equation_count(quadric_system):
    assert len(quadric_system) == 7
    assert quadric_system.nvars == 9
    # low coefficients split re/im, the middle one is a single real scalar
    mids = [lab for lab in quadric_system.labels if "z^2" in lab]
    assert len(mids) == 1


def test_deformed_equation_count():
    model = build_deformed([1j, 0, -1j], "antireal")
    system = real_section_system(model)
    assert len(system) == 5


def test_deformed_constant_shift():
    # lambda = i - i z^2 shifts the lowest coefficient equation by -1
    model = build_deformed([1j, 0, -1j], "antireal")
    system = real_section_system(model)
    const = {lab: eq.terms.get((0,) * 9, 0.0)
             for lab, eq in zip(system.labels, system.equations)}
    re0 = [lab for lab in system.labels if lab.endswith("[z^0].re")][0]
    assert const[re0] == pytest.approx(1.0)  # x0*conj(x2) - z0^2 + 1 = 0


def test_smooth_system_empty(smooth):
    assert len(real_section_system(smooth)) == 0


def test_membership_examples(quadric_system):
    assert quadric_system.membership(quadric_params(1, 0, 0, 0, 1)).passed
    assert quadric_system.membership(quadric_params(1, -2, 1, 1, 0)).passed
    rep = quadric_system.membership(quadric_params(1, 0, 0, 0, 1.1))
    assert not rep.passed
    res = dict(zip(rep.labels, rep.residuals))
    assert abs(res["quadric.eq0[z^2].re"]) == pytest.approx(0.21, abs=1e-12)


def test_membership_dimension_error(quadric_system):
    with pytest.raises(DimensionError):
        quadric_system.membership([0.0] * 5)


def test_residuals_iff_sections_satisfy_equations(quadric, quadric_system, rng):
    # coefficient equations vanish exactly when the embedded section satisfies
    # the fiber equation at (many) sample base points
    from twistorcheck import evaluate_section, squaring_section
    eq = quadric.equations[0]
    for _ in range(10):
        on = rng.random() < 0.5
        if on:
            a = complex(rng.standard_normal(), rng.standard_normal())
            b = complex(rng.standard_normal(), rng.standard_normal())
            p = squaring_section(a, b, "minus")
        else:
            p = rng.standard_normal(9)
        res_ok = quadric_system.membership(p).passed
        zeros = []
        for _ in range(20):
            z = complex(rng.standard_normal(), rng.standard_normal())
            fp = evaluate_section(quadric, p, z)
            val = eq.eval_at(fp.zeta, fp.values)
            zeros.append(abs(val) < 1e-8 * (1 + sum(abs(v) ** 2
                                                    for v in fp.values)))
        # component conditions are extra: residual pass implies evaluation pass
        if res_ok:
            assert all(zeros)
        if not all(zeros):
            assert not res_ok


def test_jacobian_matches_finite_differences(quadric_system, rng):
    for _ in range(25):
        p = rng.standard_normal(9) * 1.5
        jac = np.asarray(quadric_system.jacobian_at(p), dtype=float)
        ref = fd_jacobian(quadric_system, p)
        denom = 1.0 + np.abs(ref).max()
        assert np.abs(jac - ref).max() / denom < 1e-6


def test_expected_rank_metadata(quadric_system):
    assert quadric_system.expected_regular_rank == 5


def test_exact_jacobian_rank(quadric_exact):
    from fractions import Fraction
    from twistorcheck import squaring_section
    from twistorcheck.scalars import GaussianRational

    system = real_section_system(quadric_exact)
    sec = squaring_section(GaussianRational(1), GaussianRational(0),
                           "minus", exact=True)
    assert system.jacobian_rank(sec) == 5
    assert system.jacobian_rank([Fraction(0)] * 9) == 0


@pytest.mark.parametrize("name", ["quadric", "deformed", "smooth", "doubled",
                                  "a2_cone"])
def test_compiled_form_matches_mpoly(name, request):
    # reference: the MPoly equations and their per-entry MPoly.diff Jacobian
    system = real_section_system(request.getfixturevalue(name).float_view())
    jacobian = _mpoly_jacobian(system)
    points = np.random.default_rng(20240811).standard_normal((50, system.nvars))
    res = system.residuals(points)
    jac = system.jacobian_at(points)
    assert res.shape == (50, len(system))
    assert jac.shape == (50, len(system), system.nvars)
    for p, r, j in zip(points, res, jac):
        vals = p.tolist()
        ref_r = np.array([eq.evaluate(vals) for eq in system.equations], dtype=float)
        ref_j = np.array([[e.evaluate(vals) for e in row] for row in jacobian],
                         dtype=float).reshape(j.shape)
        assert np.abs(r - ref_r).max(initial=0.0) \
            <= 1e-13 * max(1.0, np.abs(ref_r).max(initial=0.0))
        assert np.abs(j - ref_j).max(initial=0.0) \
            <= 1e-14 * max(1.0, np.abs(ref_j).max(initial=0.0))
        # a single point gives the row of the stacked evaluation, bit for bit
        assert np.array_equal(system.residuals(p), r)
        assert np.array_equal(system.jacobian_at(p), j)


def _mpoly_jacobian(system):
    return [[eq.diff(i) for i in range(system.nvars)] for eq in system.equations]


def _exact_a2_cone():
    rules = (SigmaCoordRule(1, -1, 3), SigmaCoordRule(0, 1, 3),
             SigmaCoordRule(2, -1, 2))
    return glue_cone_twistor([[((1, 1, 0), 1), ((0, 0, 3), -1)]],
                             (3, 3, 2), 1, rules, exact=True)


@pytest.mark.parametrize("build", [
    lambda: build_quadric(exact=True),
    lambda: build_deformed([GR(0, 1), GR(0), GR(0, -1)], "antireal", exact=True),
    lambda: build_smooth_o11(exact=True),
    _exact_a2_cone,
], ids=["quadric", "deformed", "smooth-o11", "a2_cone"])
def test_exact_compiled_form_equals_mpoly(build):
    system = real_section_system(build())
    jacobian = _mpoly_jacobian(system)
    rng = random.Random(20240811)
    for _ in range(20):
        p = [Fraction(rng.randint(-50, 50), rng.randint(1, 12))
             for _ in range(system.nvars)]
        assert system.residuals(p) == [eq.evaluate(p) for eq in system.equations]
        assert system.jacobian_at(p) == [[e.evaluate(p) for e in row]
                                         for row in jacobian]


def test_exact_parameters_must_be_real(quadric_exact):
    system = real_section_system(quadric_exact)
    with pytest.raises(ModelError):
        system.residuals([GR(0, 1)] + [Fraction(0)] * 8)
    assert system.residuals([GR(1)] + [Fraction(0)] * 8) \
        == system.residuals([Fraction(1)] + [Fraction(0)] * 8)


def test_float_parameters_must_be_real(quadric):
    # a complex array is refused, not cast to its real part
    system = real_section_system(quadric)
    point = np.zeros(9, dtype=complex)
    for call in (system.residuals, system.jacobian_at, system.members,
                 system.membership):
        for p in (point, np.stack([point, point]), list(point)):
            with pytest.raises(ModelError, match="section parameters are real"):
                call(p)


_rational = st.fractions(min_value=-4, max_value=4, max_denominator=30)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(p=st.lists(_rational, min_size=9, max_size=9))
def test_float_residuals_agree_with_exact_at_rational_points(quadric_exact, p):
    system = real_section_system(quadric_exact)
    exact_res = system.residuals(p)
    exact_jac = system.jacobian_at(p)
    assert all(isinstance(r, (int, Fraction)) for r in exact_res)
    x = np.array([float(v) for v in p])
    tol = 1e-14 * (1.0 + float(x @ x))
    assert np.abs(system.residuals(x) - np.array(exact_res, dtype=float)).max() <= tol
    assert np.abs(system.jacobian_at(x) - np.array(exact_jac, dtype=float)).max() \
        <= 1e-14 * (1.0 + np.abs(x).max())
