"""Model builders, validation, squaring sections and serialization."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistorcheck import (CoeffPoly, DegreeError, FiberEquation, GaussianRational,
                          ModelError, NonInvolutiveError, RealityError, ScenarioError,
                          SectionBasis, SigmaCoordRule, TwistorModel,
                          WeightError, build_deformed, build_quadric,
                          build_smooth_o11, glue_cone_twistor,
                          lambda_reality_type, models_structurally_equal,
                          quadric_params, squaring_section, validate_model)
from twistorcheck.models import _equations_match, sigma_transform
from twistorcheck.mpoly import MPoly
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


@pytest.mark.parametrize("degrees", [(-2,), (2, -1), (-4, -4)])
def test_negative_bundle_degrees_are_refused(degrees):
    # O(k) with k < 0 has no sections; the basis used to fail with an
    # IndexError, outside TwistorCheckError
    rules = tuple(SigmaCoordRule(i, 1, k) for i, k in enumerate(degrees))
    names = [f"u{i}" for i in range(len(degrees))]
    with pytest.raises(DegreeError, match="negative"):
        TwistorModel("bad", degrees, names, rules, ())
    with pytest.raises(DegreeError, match="negative"):
        SectionBasis(degrees, rules)
    doc = {"degrees": list(degrees),
           "rules": [{"target": r.partner, "sign": r.sign} for r in rules]}
    for comps in ([], [[{"exponents": [], "coeff": 1}]]):  # the basis is built first
        with pytest.raises(DegreeError, match="negative"):
            model_from_dict({**doc, "componentEquations": comps})


def test_validate_model_reports_a_parity_failure(quadric):
    # validate_model never raises: a rule set that is no involution is a
    # failed "parity" check, and no later check runs
    for rules, why in (((SigmaCoordRule(1, -1, 2), SigmaCoordRule(0, 1, 2),
                         SigmaCoordRule(2, -1, 2)), "sign parity"),
                       ((SigmaCoordRule(1, 1, 2), SigmaCoordRule(0, 1, 2)),
                        "one rule per coordinate")):
        model = TwistorModel("bad", quadric.degrees, quadric.coordinates, rules,
                             quadric.equations)
        rep = validate_model(model)
        assert not rep.passed and len(rep.failures) == 1
        assert rep.failures[0]["check"] == "parity" and why in rep.failures[0]["message"]
        assert rep.equation_signs == [] and rep.info == {}


def test_validate_model_reports_each_twist_inconsistent_equation(quadric):
    # z of degree 2 has weight 2, so z·1 has degree 2 + 0 in an equation of
    # twist 4; each such equation is reported, and the sigma check is skipped
    one = CoeffPoly.const(0, 1.0)
    short = FiberEquation(4, (((1, 1, 0), one), ((0, 0, 1), one)))
    wrong_length = FiberEquation(4, (((1, 1), one),))
    model = TwistorModel("bad", quadric.degrees, quadric.coordinates, quadric.rules,
                         (quadric.equations[0], short, wrong_length))
    rep = validate_model(model)
    assert not rep.passed
    assert [f["check"] for f in rep.failures] == ["twist_consistency"] * 2
    assert rep.failures[0]["message"].startswith("equation 1: monomial (0, 0, 1)")
    assert rep.failures[1]["message"] == "equation 2: monomial exponent length mismatch"
    assert rep.equation_signs == []


def test_equations_match_a_monomial_of_one_equation_only(quadric):
    eq = quadric.equations[0]
    negated = FiberEquation(4, tuple((e, c.scale(-1)) for e, c in eq.monomials))
    zero = FiberEquation(4, eq.monomials + (((0, 0, 0), CoeffPoly.zero(4)),))
    mu = FiberEquation(4, eq.monomials + (((0, 0, 0), CoeffPoly(4, [1, 0, 0, 0, 0])),))
    # a monomial with a zero coefficient in one equation only is absent
    assert _equations_match(zero, eq, 1e-12) == _equations_match(eq, zero, 1e-12) == 1
    assert _equations_match(zero, negated, 1e-12) == -1
    # a nonzero one, on either side, matches no sign
    assert _equations_match(mu, eq, 1e-12) is None
    assert _equations_match(eq, mu, 1e-12) is None
    assert _equations_match(negated, mu, 1e-12) is None
    assert not models_structurally_equal(build_deformed([1j, 0, -1j], "antireal"),
                                         quadric)


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


def test_exact_glue_rejects_float_coefficients():
    eqs = [[((1, 1, 0), 1.0), ((0, 0, 2), -1.0)]]
    with pytest.raises(ModelError, match="exact coefficients"):
        glue_cone_twistor(eqs, (1, 1, 1), 2, QUADRIC_RULES, exact=True)
    assert glue_cone_twistor(eqs, (1, 1, 1), 2, QUADRIC_RULES).family == "quadric"


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


_CONES = {  # weights, gluing exponent, rules and monomials of a glued cone
    "quadric": ((1, 1, 1), 2, QUADRIC_RULES,
                [(1, 1, 0), (0, 0, 2), (2, 0, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1)]),
    "a2": ((3, 3, 2), 1, (SigmaCoordRule(1, -1, 3), SigmaCoordRule(0, 1, 3),
                          SigmaCoordRule(2, -1, 2)), [(1, 1, 0), (0, 0, 3)]),
    "a3": ((4, 4, 2), 1, (SigmaCoordRule(1, 1, 4), SigmaCoordRule(0, 1, 4),
                          SigmaCoordRule(2, -1, 2)),
           [(1, 1, 0), (0, 0, 4), (2, 0, 0), (1, 0, 2), (0, 1, 2)]),
}
_BUILTINS = {
    "quadric": build_quadric,
    "deformed-antireal": lambda exact: build_deformed(
        [GaussianRational(0, 1), 0, GaussianRational(0, -1)] if exact
        else [1j, 0, -1j], "antireal", exact=exact),
    "deformed-real": lambda exact: build_deformed(
        [GaussianRational(1, 2), Fraction(1, 3), GaussianRational(-1, 2)] if exact
        else [1 + 2j, 0.5, -1 + 2j], "real", exact=exact),
    "smooth-o11": build_smooth_o11,
}
_SMALL = st.integers(-12, 12)
_COEFFS = {"int": _SMALL,
           "Fraction": st.builds(Fraction, _SMALL, st.integers(1, 12)),
           "float": st.floats(-12, 12, allow_nan=False),
           "complex": st.complex_numbers(max_magnitude=12, allow_nan=False,
                                         allow_infinity=False)}


@st.composite
def _models(draw):
    """A builtin or a glued cone with int, Fraction, float or complex
    coefficients, in either mode (an exact model takes only exact kinds)."""
    exact = draw(st.booleans())
    if draw(st.booleans()):
        return draw(st.sampled_from(sorted(_BUILTINS)).map(lambda n: _BUILTINS[n](exact)))
    weights, l, rules, monomials = _CONES[draw(st.sampled_from(sorted(_CONES)))]
    kinds = ["int", "Fraction"] if exact else sorted(_COEFFS)
    equation = [(e, draw(_COEFFS[draw(st.sampled_from(kinds))])) for e in monomials]
    return glue_cone_twistor([equation], weights, l, rules, exact=exact)


def _coefficient_spellings(doc):
    yield from (c for eq in doc["equations"] for mono in eq["monomials"]
                for c in mono["coeffs"])
    yield from (term["coeff"] for comp in doc["componentEquations"] for term in comp)
    yield from doc.get("lambda", [])


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(model=_models())
def test_model_documents_are_canonical(model):
    # one spelling per mode, so saving a loaded document gives it back
    doc = model_to_dict(model)
    part = str if model.exact else float
    assert all(type(c) is list and len(c) == 2 and all(type(v) is part for v in c)
               for c in _coefficient_spellings(doc))
    back = model_from_dict(json.loads(json.dumps(doc)))
    assert model_to_dict(back) == doc
    assert models_structurally_equal(back, model, ignore_component_equations=False)


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


def test_quadric_layout_is_the_parameter_layout_of_quadric_params():
    # degrees (2, 2, 2) with the swap/minus rules, whatever the equations;
    # nine parameters in another layout do not qualify
    assert build_quadric().quadric_layout and build_quadric(exact=True).quadric_layout
    assert build_deformed([0, 1, 0], "real").quadric_layout
    assert TwistorModel("bundle", (2, 2, 2), ("x", "y", "z"), QUADRIC_RULES,
                        ()).quadric_layout
    self_paired = TwistorModel("self-paired", (2, 2, 2), ("x", "y", "z"),
                               tuple(SigmaCoordRule(i, 1, 2) for i in range(3)), ())
    assert self_paired.nparams == 9 and not self_paired.quadric_layout
    assert not build_smooth_o11().quadric_layout


def test_quadric_family_needs_a_quadratic_system(quadric):
    # the closed form reads each fiber row as a quadratic form on the slice,
    # so a component equation of degree 3 sends the model to Newton; one of
    # degree at most 2, like the quadric's own, keeps the family
    x0, r = (MPoly(9, {tuple(int(i == j) for i in range(9)): 1}) for j in (0, 8))
    for comp, family in ((x0 * r, "quadric"), (x0 * r * r, None)):
        model = TwistorModel("q", quadric.degrees, quadric.coordinates, quadric.rules,
                             quadric.equations, component_equations=(comp,))
        assert model.family == family
