"""Induced real systems: equation counts, membership, Jacobians."""

import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twistorcheck import (DimensionError, ModelError, SigmaCoordRule,
                          build_deformed, build_quadric, build_smooth_o11,
                          glue_cone_twistor, quadric_params, serialize,
                          squaring_section)
from twistorcheck.analysis import _incidence, _incidence_slice
from twistorcheck.exactla import exact_rank
from twistorcheck.models import FiberEquation, TwistorModel, _coeff_form
from twistorcheck.mpoly import MPoly
from twistorcheck.projline import CoeffPoly, P1Point
from twistorcheck.scalars import GaussianRational as GR
from twistorcheck.systems import real_section_system

from conftest import block_exps, fd_jacobian, mpoly_diff, system_equations


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
             for lab, eq in zip(system.labels, system_equations(system))}
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


def test_expected_rank_metadata(quadric):
    assert quadric.expected_regular_rank == 5


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
    equations, jacobian = system_equations(system), _mpoly_jacobian(system)
    points = np.random.default_rng(20240811).standard_normal((50, system.nvars))
    res = system.residuals(points)
    jac = system.jacobian_at(points)
    assert res.shape == (50, len(system))
    assert jac.shape == (50, len(system), system.nvars)
    for p, r, j in zip(points, res, jac):
        vals = p.tolist()
        ref_r = np.array([eq.evaluate(vals) for eq in equations], dtype=float)
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
    return [[mpoly_diff(eq, i) for i in range(system.nvars)]
            for eq in system_equations(system)]


def _exact_a2_cone():
    rules = (SigmaCoordRule(1, -1, 3), SigmaCoordRule(0, 1, 3),
             SigmaCoordRule(2, -1, 2))
    return glue_cone_twistor([[((1, 1, 0), 1), ((0, 0, 3), -1)]],
                             (3, 3, 2), 1, rules, exact=True)


_exact_builds = pytest.mark.parametrize("build", [
    lambda: build_quadric(exact=True),
    lambda: build_deformed([GR(0, 1), GR(0), GR(0, -1)], "antireal", exact=True),
    lambda: build_smooth_o11(exact=True),
    _exact_a2_cone,
], ids=["quadric", "deformed", "smooth-o11", "a2_cone"])


@_exact_builds
def test_exact_compiled_form_equals_mpoly(build):
    system = real_section_system(build())
    equations, jacobian = system_equations(system), _mpoly_jacobian(system)
    rng = random.Random(20240811)
    for _ in range(20):
        p = [Fraction(rng.randint(-50, 50), rng.randint(1, 12))
             for _ in range(system.nvars)]
        assert system.residuals(p) == [eq.evaluate(p) for eq in equations]
        assert system.jacobian_at(p) == [[e.evaluate(p) for e in row]
                                         for row in jacobian]


@_exact_builds
def test_integer_certificates_equal_the_fraction_route(build):
    # membership and rank decided on integer numerators agree with the
    # Fraction residuals and exactla.exact_rank of the Fraction Jacobian
    model = build()
    system = real_section_system(model)
    rng = random.Random(20240812)

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    points = [[Fraction(0)] * system.nvars]
    if system.nvars == 9:  # squaring sections, and each with one coordinate moved
        for variant in ("minus", "plus"):
            for _ in range(6):
                sec = squaring_section(GR(frac(), frac()), GR(frac(), frac()),
                                       variant, exact=True)
                moved = list(sec)
                moved[rng.randrange(9)] += Fraction(1, rng.randint(1, 9))
                points += [sec, moved]
    points += [[frac() for _ in range(system.nvars)] for _ in range(10)]
    verdicts = set()
    for p in points:
        res = system.residuals(p)
        rep = system.membership(p)
        assert rep.passed == all(r == 0 for r in res)
        assert rep.residuals == res
        assert rep.max_residual == max((abs(float(r)) for r in res), default=0.0)
        assert system.jacobian_rank(p) == exact_rank(system.jacobian_at(p))
        verdicts.add(rep.passed)
    # the deformed model's shift keeps the zero section and the squares off it
    assert (True in verdicts) == (model.name != "deformed")
    assert (False in verdicts) == (len(system) > 0)


def test_exact_membership_past_the_float_range(quadric_exact):
    # residuals of about 1e400 used to raise OverflowError computing
    # max_residual; the verdict is read from the integers, the maximum saturates
    system = real_section_system(quadric_exact)
    big = Fraction(10 ** 200)
    far = [big] + [Fraction(0)] * 3 + [big] + [Fraction(0)] * 4
    rep = system.membership(far)
    assert not rep.passed and rep.max_residual == math.inf
    assert rep.residuals == system.residuals(far) \
        == [eq.evaluate(far) for eq in system_equations(system)]
    member = squaring_section(GR(big, 3), GR(Fraction(1, 7), -big), "plus", exact=True)
    rep = system.membership(member)
    assert rep.passed and rep.max_residual == 0.0
    assert system.jacobian_rank(member) == 5


_EXACT_BUILTINS = {
    "quadric": lambda: build_quadric(exact=True),
    "smooth-o11": lambda: build_smooth_o11(exact=True),
    "deformed": lambda: build_deformed([GR(0, 1), GR(0), GR(0, -1)], "antireal",
                                       exact=True),
}


@functools.cache
def _exact_oracle(name):
    """A builtin's exact system with its residuals and Jacobian as MPolys."""
    system = real_section_system(_EXACT_BUILTINS[name]())
    return system, system_equations(system), _mpoly_jacobian(system)


# Gaussian rationals on the real line, in each exact spelling, with zeros and
# denominators up to 1e30
_exact_real = st.one_of(
    st.just(Fraction(0)), st.integers(-9, 9),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 30),
    st.builds(GR, st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 9)))


def _as_fraction(v):
    return v.re if isinstance(v, GR) else Fraction(v)


_exact_complex = st.builds(GR, _exact_real.map(_as_fraction), _exact_real.map(_as_fraction))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(_EXACT_BUILTINS)), data=st.data())
def test_exact_paths_equal_independent_oracles(name, data):
    # at a point, or at a planted squaring section on the 9-parameter
    # models: residuals equal the MPoly evaluation and the rank sympy's rank
    # of the MPoly Jacobian
    system, equations, jacobian = _exact_oracle(name)
    if system.nvars == 9 and data.draw(st.booleans()):
        p = squaring_section(data.draw(_exact_complex), data.draw(_exact_complex),
                             data.draw(st.sampled_from(["minus", "plus"])), exact=True)
    else:
        p = data.draw(st.lists(_exact_real, min_size=system.nvars, max_size=system.nvars))
    q = [_as_fraction(v) for v in p]
    res = system.residuals(p)
    assert res == [eq.evaluate(q) for eq in equations]
    assert all(type(r) is Fraction for r in res)
    rep = system.membership(p)
    assert rep.residuals == res and rep.passed == (not any(res))
    values = [[sympy.Rational(e.evaluate(q)) for e in row] for row in jacobian]
    want = sympy.Matrix(len(values), system.nvars, sum(values, [])).rank()
    assert system.jacobian_rank(p) == want


def _gaussian_squaring_section(a, b, variant):
    """squaring_section on the GaussianRational arithmetic: the oracle."""
    sign = -1 if variant == "minus" else 1
    x0, x2, z0 = a * a, b.conjugate() * b.conjugate(), a * b
    x1 = 2 * sign * (a * b.conjugate())
    r = -sign * ((a * a.conjugate()).re - (b * b.conjugate()).re)
    return [x0.re, x0.im, x1.re, x1.im, x2.re, x2.im, z0.re, z0.im, r]


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(a=_exact_complex, b=_exact_complex, variant=st.sampled_from(["minus", "plus"]))
def test_exact_squaring_section_equals_the_gaussian_formula(quadric_exact, a, b, variant):
    got = squaring_section(a, b, variant, exact=True)
    assert got == _gaussian_squaring_section(a, b, variant)
    assert all(type(v) is Fraction for v in got)
    assert real_section_system(quadric_exact).membership(got).passed


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_stacked_object_arrays_take_the_float_path(exact):
    # an (S, n) object array of Fractions is a stack of points, as a float
    # array of the same points is, never one point of S parameters
    system = real_section_system(build_quadric(exact=exact))
    member = squaring_section(GR(1, 2), GR(Fraction(1, 3), -1), "minus", exact=True)
    other = list(member)
    other[8] += 1
    stack = np.array([member, other], dtype=object)
    floats = stack.astype(float)
    assert np.array_equal(system.residuals(stack), system.residuals(floats))
    assert np.array_equal(system.jacobian_at(stack), system.jacobian_at(floats))
    assert system.residuals(stack).shape == (2, 7)
    assert system.members(stack).tolist() == [True, False]
    assert system.jacobian_rank(stack).tolist() == [
        system.jacobian_rank(floats[0]), system.jacobian_rank(floats[1])] == [5, 7]
    with pytest.raises(DimensionError, match="membership takes one point"):
        system.membership(stack)
    with pytest.raises(DimensionError, match="membership takes one point"):
        system.membership(floats)
    # one row of the object array is one point, exact on an exact model
    assert system.membership(stack[0]).passed
    assert not system.membership(stack[1]).passed
    assert (system.membership(stack[1]).scaled_tol == 0.0) == exact


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


def test_mixed_float_parameters_must_be_real(quadric):
    # a list mixing Fractions with complex or GaussianRational entries: a
    # nonzero imaginary part is refused, a real one is converted
    system = real_section_system(quadric)
    planted = quadric_params(1, 0, 0, 0, 1)
    mixed = [Fraction(v).limit_denominator() for v in planted]
    real = [mixed[:2] + [complex(mixed[2])] + mixed[3:],
            mixed[:4] + [GR(mixed[4])] + mixed[5:]]
    imaginary = [mixed[:2] + [0.5j] + mixed[3:],
                 mixed[:4] + [GR(0, Fraction(1, 2))] + mixed[5:]]
    for call in (system.residuals, system.jacobian_at, system.members,
                 system.membership):
        for p in imaginary:
            with pytest.raises(ModelError, match="section parameters are real"):
                call(p)
    with pytest.raises(ModelError, match="section parameters are real"):
        system.members(imaginary)
    for p in real:
        assert np.array_equal(system.residuals(p), system.residuals(planted))
        assert np.array_equal(system.jacobian_at(p), system.jacobian_at(planted))
        assert system.membership(p).passed
    assert system.members(real).all()


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


def _reference_system(model):
    """(equations, labels) of the induced system by MPoly substitution: each
    section coefficient is a complex-linear MPoly, every fiber monomial is
    multiplied out as a polynomial in z, and the low coefficients are split
    into real and imaginary parts."""
    basis = model.section_basis
    n = basis.nparams
    coord_polys = [[_coeff_form(basis, i, m) for m in range(k + 1)]
                   for i, k in enumerate(model.degrees)]

    def times(a, b):
        out = [MPoly(n) for _ in range(len(a) + len(b) - 1)]
        for i, pa in enumerate(a):
            for j, pb in enumerate(b):
                out[i + j] = out[i + j] + pa * pb
        return out

    def split(poly):
        return (MPoly(n, {e: c.real for e, c in poly.terms.items()}),
                MPoly(n, {e: c.imag for e, c in poly.terms.items()}))

    equations, labels = [], []
    for idx, eq in enumerate(model.equations):
        d = eq.twist
        coeffs = [MPoly(n) for _ in range(d + 1)]
        for exps, gpoly in eq.monomials:
            term = [MPoly.const(n, c) for c in gpoly.coeffs]
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = times(term, coord_polys[i])
            assert all(extra.is_zero() for extra in term[d + 1:])
            for m, poly in enumerate(term[:d + 1]):
                coeffs[m] = coeffs[m] + poly
        for m in range(d // 2 + 1):
            for poly, tag in zip(split(coeffs[m]), ("re", "im")):
                if 2 * m < d or not poly.is_zero(1e-12):
                    equations.append(poly)
                    labels.append(f"{model.name}.eq{idx}[z^{m}].{tag}")
    for cdx, comp in enumerate(model.component_equations):
        for poly, tag in zip(split(comp), ("re", "im")):
            equations.append(poly)
            labels.append(f"{model.name}.component{cdx}.{tag}")
    return equations, labels


def _doubled(exact):
    quadric = build_quadric(exact=exact)
    eq = quadric.equations[0]
    doubled = FiberEquation(eq.twist, tuple((e, c.scale(2)) for e, c in eq.monomials))
    return TwistorModel("doubled", quadric.degrees, quadric.coordinates, quadric.rules,
                        (doubled,), quadric.component_equations, exact=exact)


_A2_RULES = (SigmaCoordRule(1, -1, 3), SigmaCoordRule(0, 1, 3), SigmaCoordRule(2, -1, 2))
_A3_RULES = (SigmaCoordRule(1, 1, 4), SigmaCoordRule(0, 1, 4), SigmaCoordRule(2, -1, 2))


def _cone(k, exact):
    """The A_{k-1} cone uv = w^k with weights (k, k, 2) and l = 1."""
    one = 1 if exact else 1.0
    return glue_cone_twistor([[((1, 1, 0), one), ((0, 0, k), -one)]], (k, k, 2), 1,
                             _A3_RULES if k == 4 else _A2_RULES, exact=exact,
                             name=f"a{k - 1}_cone")


_NAMED = {
    "quadric": lambda exact: build_quadric(exact=exact),
    "deformed": lambda exact: build_deformed(
        [GR(0, 1), GR(0), GR(0, -1)] if exact else [1j, 0, -1j], "antireal", exact=exact),
    "smooth-o11": lambda exact: build_smooth_o11(exact=exact),
    "doubled": _doubled,
    "a2_cone": lambda exact: _cone(3, exact),
    "a3_cone": lambda exact: _cone(4, exact),
}


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("name", list(_NAMED))
def test_assembled_system_equals_the_mpoly_substitution(name, exact):
    model = _NAMED[name](exact)
    system = real_section_system(model)
    equations, labels = _reference_system(model)
    assert system.labels == labels
    assert system_equations(system) == equations
    assert len(system) == len(labels)


@pytest.mark.parametrize("name", list(_NAMED))
def test_float_view_matrices_are_the_integer_columns_over_the_denominator(name):
    model = _NAMED[name](True)
    exact, floats = real_section_system(model), real_section_system(model.float_view())
    for ints, flts in ((exact._res, floats._res), (exact._jac, floats._jac)):
        assert np.array_equal(block_exps(flts), block_exps(ints)) and flts.den == 1
        want = np.zeros((len(ints.keys), len(ints.columns)))
        for j, col in enumerate(ints.columns):
            assert all(type(c) is int for _, c in col)
            for m, c in col:
                want[m, j] = Fraction(c, ints.den)
        assert np.array_equal(flts.matrix, want)
        assert np.array_equal(ints.matrix, want)


_ratio = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
_gaussian = st.builds(GR, _ratio, _ratio)


@st.composite
def _exact_models(draw):
    """An exact deformed model (lambda tau-real or tau-antireal) or a glued
    cone, with Gaussian-rational coefficients of denominators 1 to 12."""
    kind = draw(st.sampled_from(["deformed", "quadric-cone", "a2", "a3"]))
    if kind == "deformed":
        reality = draw(st.sampled_from(["real", "antireal"]))
        c0, c1 = draw(_gaussian), draw(_ratio)
        # the z-type pullback sends (c0, c1, c2) to (-conj c2, conj c1, -conj c0)
        if reality == "real":
            lam = [c0, GR(c1), -c0.conjugate()]
        else:
            lam = [c0, GR(0, c1), c0.conjugate()]
        assume(any(lam))
        return build_deformed(lam, reality, exact=True)
    if kind == "quadric-cone":
        weights, l, rules = (1, 1, 1), 2, build_quadric().rules
        monomials = [(1, 1, 0), (0, 0, 2), (2, 0, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1)]
    elif kind == "a2":
        weights, l, rules = (3, 3, 2), 1, _A2_RULES
        monomials = [(1, 1, 0), (0, 0, 3)]
    else:
        weights, l, rules = (4, 4, 2), 1, _A3_RULES
        monomials = [(1, 1, 0), (0, 0, 4), (2, 0, 0), (1, 0, 2), (0, 1, 2)]
    equation = [(e, draw(_gaussian)) for e in monomials]
    return glue_cone_twistor([equation], weights, l, rules, exact=True)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(model=_exact_models())
def test_assembled_system_equals_the_mpoly_substitution_on_random_models(model):
    system = real_section_system(model)
    equations, labels = _reference_system(model)
    assert system.labels == labels
    assert system_equations(system) == equations


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_a_monomial_above_its_twist_is_refused(exact):
    # x*y has weight 4 in twist 4, so its coefficient must be a constant
    quadric = build_quadric(exact=exact)
    one = GR(1) if exact else 1.0

    def model(top):
        eq = FiberEquation(4, (((1, 1, 0), CoeffPoly(1, [one, top])),))
        return TwistorModel("bad", quadric.degrees, quadric.coordinates,
                            quadric.rules, (eq,), exact=exact)

    with pytest.raises(ModelError, match="overflows its twist"):
        real_section_system(model(one))
    system = real_section_system(model(0))
    assert system_equations(system) == _reference_system(model(0))[0]


def _power_table_values(system, x, block):
    """Reference: each monomial as a product of powers of (x, 1), the ones
    column raised to the degree the monomial lacks, read from a table of
    the powers of every variable."""
    x = np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)
    exps = block_exps(block)
    exps = np.column_stack([exps, block.degree - exps.sum(axis=1)])
    table = np.empty(x.shape + (int(exps.max(initial=0)) + 1,))
    table[..., 0] = 1.0
    for k in range(1, table.shape[-1]):
        table[..., k] = table[..., k - 1] * x
    mono = table[..., np.arange(system.nvars + 1), exps].prod(axis=-1)
    return np.einsum("...m,me->...e", mono, block.matrix)


@pytest.mark.parametrize("name", ["quadric", "deformed", "smooth", "doubled",
                                  "a2_cone"])
def test_factor_gather_equals_the_power_table(name, request):
    # up to degree 2 the factors multiply in the power table's order, bit for
    # bit; the A2 cone's cubic monomials keep the MPoly tolerance
    system = real_section_system(request.getfixturevalue(name).float_view())
    rng = np.random.default_rng(19)
    points = rng.standard_normal((50, system.nvars)) * 10.0 ** rng.uniform(-3, 3, (50, 1))
    res, jac = system.residuals(points), system.jacobian_at(points)
    ref_res = _power_table_values(system, points, system._res)
    ref_jac = _power_table_values(system, points, system._jac).reshape(
        jac.shape[:-1] + (system.nvars + 1,))[..., :-1]
    if name != "a2_cone":
        assert system._res.degree <= 2
        assert np.array_equal(res, ref_res) and np.array_equal(jac, ref_jac)
        return
    assert system._res.degree == 3
    for got, want, rtol in ((res, ref_res, 1e-13), (jac, ref_jac, 1e-14)):
        gap = np.abs(got - want).reshape(50, -1).max(axis=1)
        assert (gap <= rtol * np.maximum(1.0, np.abs(want).reshape(50, -1).max(axis=1))).all()


def _component_only(*equations):
    """The quadric's section space cut by component equations alone, given as
    lists of (exponents, coefficient): blocks of degree 1 or 0."""
    doc = serialize.model_to_dict(build_quadric())
    doc["equations"] = []
    doc["componentEquations"] = [[{"exponents": list(e), "coeff": [c.real, c.imag]}
                                  for e, c in eq] for eq in equations]
    return serialize.model_from_dict(doc)


_SLICED = {**{name: _NAMED[name] for name in ("quadric", "deformed", "doubled",
                                              "a2_cone", "a3_cone")},
           "linear": lambda _: _component_only(
               [((1,) + (0,) * 8, 1.0), ((0,) * 8 + (1,), 2j), ((0,) * 9, 0.5 - 1j)]),
           "constant": lambda _: _component_only([((0,) * 9, 2.0 + 1j)])}


@functools.cache
def _sliced_system(name):
    model = _SLICED[name](False)
    return model, real_section_system(model)


def _incidence_slices(model, layout, rng):
    """Incidence slices of the model at random base points and right-hand
    sides: one shared, one per row (4 or 40), or the two blocks of
    test_incidence_slice_pads_smaller_kernels_with_zero_rows, where the
    second repeats an incidence row, so the first kernel gets a zero row."""
    count = {"shared": 1, "per-row": 4, "per-row-40": 40, "padded": 1}[layout]
    pts = [P1Point.std(complex(*rng.standard_normal(2))) for _ in range(count)]
    amats = list(_incidence(model, pts, np.zeros((count, len(model.degrees))))[0])
    rhs = [rng.standard_normal(len(a)) for a in amats]
    if layout == "padded":
        low, low_b = amats[0].copy(), rhs[0].copy()
        low[5], low_b[5] = low[4], low_b[4]
        amats.append(low)
        rhs.append(low_b)
    base, kernel = _incidence_slice(np.array(amats), np.array(rhs), 1e-7)
    if layout == "padded":
        assert np.count_nonzero(np.abs(kernel[0]).max(axis=1)) == len(kernel[0]) - 1
    return base, kernel


def _within(got, want, rtol):
    scale = max(1.0, np.abs(want).max(initial=0.0))
    return np.abs(got - want).max(initial=0.0) <= rtol * scale


@pytest.mark.parametrize("name, layout", [
    (name, layout) for name in _SLICED for layout in ("shared", "per-row", "padded")
] + [("a3_cone", "per-row-40")])
@settings(max_examples=6, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), log_scale=st.floats(-1.0, 1.0))
def test_on_slice_equals_the_system_on_the_slice(name, layout, seed, log_scale):
    # degrees 0 to 4, mixed degrees and component rows, and the A3 cone
    # (degree 4, d = 7) on 40 slices; the rows of y are spread over the
    # slices at random (all on the one slice when shared)
    model, system = _sliced_system(name)
    rng = np.random.default_rng(seed)
    base, kernel = _incidence_slices(model, layout, rng)
    count = max(6, len(base))
    rows = rng.integers(len(base), size=count)
    y = rng.standard_normal((count, kernel.shape[1])) * 10.0 ** log_scale
    y1 = np.column_stack([y, np.ones(count)])
    x = base[rows] + np.einsum("kd,kdn->kn", y, kernel[rows])
    restricted = system.on_slice(base, kernel)
    res, half = restricted.values(y1, rows)
    assert np.array_equal(res, (half @ y1[:, :, None])[:, :, 0])
    jac = restricted.degree * half[:, :, :-1]
    assert _within(restricted.points(y1, rows), x, 1e-12)
    assert _within(res, system.residuals(x), 1e-12)
    assert _within(jac, np.einsum("ken,kdn->ked", system.jacobian_at(x), kernel[rows]),
                   1e-12)
