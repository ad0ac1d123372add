"""Model builders, validation, squaring sections and serialization."""

from fractions import Fraction

import numpy as np
import pytest

from twistorcheck import (CoeffPoly, DegreeError, GaussianRational,
                          NonInvolutiveError, RealityError, ScenarioError,
                          SigmaCoordRule, TwistorModel,
                          WeightError, build_deformed, build_quadric,
                          build_smooth_o11, glue_cone_twistor,
                          lambda_reality_type, models_structurally_equal,
                          quadric_params, squaring_section, validate_model)
from twistorcheck.models import sigma_transform
from twistorcheck.serialize import decode_scalar, model_from_dict, model_to_dict
from twistorcheck.systems import real_section_system

QUADRIC_RULES = (SigmaCoordRule(1, 1, 2), SigmaCoordRule(0, 1, 2),
                 SigmaCoordRule(2, -1, 2))


def test_quadric_shape(quadric):
    assert quadric.degrees == (2, 2, 2)
    assert quadric.nparams == 9
    assert len(quadric.equations) == 1
    assert quadric.equations[0].twist == 4
    assert len(quadric.component_equations) == 1


def test_quadric_component_equation_is_double_zero_condition(quadric, rng):
    comp = quadric.component_equations[0]
    for _ in range(20):
        p = rng.standard_normal(9)
        x0 = complex(p[0], p[1])
        x1 = complex(p[2], p[3])
        x2 = complex(p[4], p[5])
        want = x1 * x1 - 4 * x0 * x2
        assert abs(comp.evaluate(p) - want) < 1e-12 * (1 + abs(want))


def test_quadric_validates(quadric):
    rep = validate_model(quadric)
    assert rep.passed and not rep.failures
    assert rep.equation_signs[0]["kappa"] == 1


def test_sigma_transform_preserves_quadric_equation(quadric):
    eq = quadric.equations[0]
    pulled = sigma_transform(eq, quadric.degrees, quadric.rules)
    got = {exps: tuple(c.coeffs) for exps, c in pulled.monomials}
    want = {exps: tuple(c.coeffs) for exps, c in eq.monomials}
    assert got == want


def test_flipped_z_sign_is_another_legal_real_structure(quadric):
    rules = (SigmaCoordRule(1, 1, 2), SigmaCoordRule(0, 1, 2),
             SigmaCoordRule(2, 1, 2))
    model = TwistorModel("quadric", quadric.degrees, quadric.coordinates,
                         rules, quadric.equations)
    rep = validate_model(model)
    assert rep.passed
    assert any("differ from the builtin" in n for n in rep.notes)


def test_self_paired_odd_degree_rejected():
    rules = (SigmaCoordRule(0, 1, 1),)
    with pytest.raises(NonInvolutiveError):
        TwistorModel("bad", (1,), ("u",), rules, ()).section_basis


def test_deformed_antireal_accepted():
    model = build_deformed([1j, 0, -1j], "antireal")
    assert lambda_reality_type(model.lam) == "antireal"
    assert validate_model(model).passed
    assert model.component_equations == ()


def test_deformed_taureal_accepted():
    model = build_deformed([0, 1, 0], "real")
    assert lambda_reality_type(model.lam) == "real"
    assert validate_model(model).passed


def test_deformed_rejects_nonreal_lambda():
    for reality in ("real", "antireal"):
        with pytest.raises(RealityError):
            build_deformed([1, 1, 1], reality)


def test_deformed_rejects_wrong_degree():
    with pytest.raises(DegreeError):
        build_deformed(CoeffPoly(3, [1j, 0, -1j, 0]), "antireal")
    with pytest.raises(RealityError):
        build_deformed([0, 0, 0], "antireal")


def test_smooth_model(smooth):
    assert smooth.nparams == 4
    assert validate_model(smooth).passed
    assert len(real_section_system(smooth)) == 0


def test_glue_reproduces_smooth():
    rules = (SigmaCoordRule(1, -1, 1), SigmaCoordRule(0, 1, 1))
    glued = glue_cone_twistor([], (1, 1), 1, rules)
    assert models_structurally_equal(glued, build_smooth_o11())


def test_glue_reproduces_quadric_without_components(quadric):
    eqs = [[((1, 1, 0), 1), ((0, 0, 2), -1)]]
    glued = glue_cone_twistor(eqs, (1, 1, 1), 2, QUADRIC_RULES)
    assert models_structurally_equal(glued, quadric,
                                     ignore_component_equations=True)
    assert glued.family == "quadric"
    assert glued.component_equations == ()


def test_glue_rejects_inhomogeneous():
    eqs = [[((1, 1, 0), 1), ((0, 0, 1), -1)]]
    with pytest.raises(WeightError):
        glue_cone_twistor(eqs, (1, 1, 1), 2, QUADRIC_RULES)


def test_glue_doubles_degrees():
    rules = (SigmaCoordRule(1, -1, 1), SigmaCoordRule(0, 1, 1))
    # even target degrees force an even sign product on the swapped pair
    rules2 = (SigmaCoordRule(1, 1, 2), SigmaCoordRule(0, 1, 2))
    assert glue_cone_twistor([], (1, 1), 1, rules).degrees == (1, 1)
    assert glue_cone_twistor([], (1, 1), 2, rules2).degrees == (2, 2)


def test_squaring_examples():
    assert np.allclose(squaring_section(1, 0, "minus"),
                       quadric_params(1, 0, 0, 0, 1))
    assert np.allclose(squaring_section(1, 1, "minus"),
                       quadric_params(1, -2, 1, 1, 0))
    assert np.allclose(squaring_section(0, 0, "minus"), np.zeros(9))
    assert np.allclose(squaring_section(0, 0, "plus"), np.zeros(9))
    assert np.allclose(squaring_section(1, 0, "plus"),
                       quadric_params(1, 0, 0, 0, -1))


def test_squaring_lands_on_quadric(quadric_system, rng):
    for _ in range(50):
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        for variant in ("minus", "plus"):
            assert quadric_system.membership(
                squaring_section(a, b, variant)).passed


def test_model_serialization_roundtrip(quadric):
    doc = model_to_dict(quadric)
    back = model_from_dict(doc)
    assert models_structurally_equal(back, quadric,
                                     ignore_component_equations=False)
    assert back.family == "quadric"


def test_deformed_serialization_roundtrip():
    model = build_deformed([1j, 0, -1j], "antireal")
    back = model_from_dict(model_to_dict(model))
    assert models_structurally_equal(back, model)
    assert back.lam is not None and back.reality == "antireal"
    assert back.family == "quadric"


def test_exact_model_serialization_roundtrip():
    model = build_quadric(exact=True)
    back = model_from_dict(model_to_dict(model))
    assert back.exact
    assert models_structurally_equal(back, model,
                                     ignore_component_equations=False)


def test_exact_pairs_decode_each_part_by_the_scalar_rule():
    with pytest.raises(ScenarioError):
        decode_scalar([0.1, 0], exact=True)
    assert decode_scalar(["1/2", 3], exact=True) == GaussianRational(
        Fraction(1, 2), 3)
    assert decode_scalar([0.1, "1/2"], exact=False) == complex(0.1, 0.5)


def test_float_view_converts_coefficients_once():
    fmodel = build_quadric()
    assert fmodel.float_view() is fmodel
    model = build_deformed([GaussianRational(0, 1), 0, GaussianRational(0, -1)],
                           "antireal", exact=True)
    view = model.float_view()
    assert not view.exact and view.float_view() is view
    assert (view.name, view.degrees, view.rules, view.family) == (
        model.name, model.degrees, model.rules, model.family)
    coeffs = [c for eq in view.equations for _, g in eq.monomials
              for c in g.coeffs] + view.lam.coeffs
    assert all(type(c) is complex for c in coeffs)
    assert models_structurally_equal(
        view, build_deformed([1j, 0, -1j], "antireal"), tol=1e-15)
