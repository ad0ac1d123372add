"""Twistor models: bundle degrees, fiber equations and real structure.

A model is a direct sum of line bundles over the projective line together
with polynomial fiber equations (cutting out a subvariety of the total
space) and an antiholomorphic coordinate rule set covering the antipodal
map.  Builders for the quadric cone model, its quadratic deformation, the
smooth rank-two model and weighted-cone gluings live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

import numpy as np

from .errors import (DegreeError, ModelError, NonInvolutiveError, RealityError,
                     WeightError)
from .exactla import numerical_rank
from .mpoly import MPoly
from .projline import (CoeffPoly, P1Point, SectionBasis, SigmaCoordRule,
                       check_bundle_degrees, check_rule_parity, reality_fixed_space,
                       tau_pullback)
from .scalars import GaussianRational, exact_parts, is_exact, make_complex


@dataclass(frozen=True)
class FiberEquation:
    """Polynomial in the fiber coordinates whose coefficients vary over the base.

    Each monomial with exponents e and coefficient of degree bound g
    satisfies sum(e_i * k_i) + g = twist, so the equation cuts a twisted
    section out of every section of the bundle.
    """

    twist: int
    monomials: tuple  # ((exponents, CoeffPoly), ...)

    def check_degrees(self, degrees):
        for exps, coeff in self.monomials:
            if len(exps) != len(degrees):
                raise DegreeError("monomial exponent length mismatch")
            weighted = sum(e * k for e, k in zip(exps, degrees))
            if weighted + coeff.degree_bound != self.twist:
                raise DegreeError(
                    f"monomial {exps}: {weighted} + {coeff.degree_bound} != twist {self.twist}")

    def partial(self, i: int, degrees) -> "FiberEquation":
        """Derivative in fiber coordinate i; twist drops by the coordinate degree."""
        monos = []
        for exps, coeff in self.monomials:
            if exps[i] == 0:
                continue
            e2 = list(exps)
            e2[i] -= 1
            monos.append((tuple(e2), coeff.scale(exps[i])))
        return FiberEquation(self.twist - degrees[i], tuple(monos))

    def compose_sections(self, polys) -> CoeffPoly:
        """Substitute section polynomials for the fiber coordinates."""
        acc = CoeffPoly.zero(self.twist)
        for exps, coeff in self.monomials:
            term = coeff
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = term * polys[i]
            acc = acc + term.with_bound(self.twist)
        return acc

    def eval_at(self, point: P1Point, values):
        """Evaluate at a fiber point given in the chart of ``point``."""
        acc = 0
        for exps, coeff in self.monomials:
            t = coeff.eval_point(point)
            for i, e in enumerate(exps):
                for _ in range(e):
                    t = t * values[i]
            acc = acc + t
        return acc


class TwistorModel:
    """Bundle degrees + fiber equations + real structure (+ optional extras).

    ``quadric_layout`` tells whether the section parameters are laid out as
    quadric_params writes them: degrees (2, 2, 2) with the swap/minus rules.
    The closed-form family (``family``, ``mu``, ``expected_regular_rank``) is
    recognised here from that layout and the equations, and so is
    ``homogeneous``: every fiber equation is a form of degree >= 1 in the
    fiber coordinates and every component equation one in the section
    parameters (vacuously so without equations), hence fibers are cones and
    fiber(s*v) = s*fiber(v) for real s > 0.  ``equation_scales`` holds, per
    fiber equation, 1 plus its largest coefficient modulus, the scale of its
    fiber-membership test.  Nothing on a model changes after construction
    apart from the lazily built section basis and induced real system.  An
    exact model keeps its exact coefficients; numeric ops run on
    :meth:`float_view`.
    """

    def __init__(self, name, degrees, coordinates, rules, equations,
                 component_equations=(), exact=False, lam=None, reality=None):
        check_bundle_degrees(degrees)
        self.name = name
        self.degrees = tuple(degrees)
        self.coordinates = tuple(coordinates)
        self.rules = tuple(rules)
        self.equations = tuple(equations)
        self.component_equations = tuple(component_equations)
        self.exact = exact
        self.lam = lam
        self.reality = reality
        self.quadric_layout = self.degrees == (2, 2, 2) and self.rules == _QUADRIC_RULES
        self.family, self.mu, self.expected_regular_rank = _recognise_family(
            self.quadric_layout, self.equations, self.component_equations)
        form_degrees = [{sum(exps) for exps, _ in eq.monomials}
                        for eq in self.equations]
        form_degrees += [{sum(exps) for exps in comp.terms}
                         for comp in self.component_equations]
        self.homogeneous = all(len(d) == 1 and 0 not in d for d in form_degrees)
        self.equation_scales = tuple(
            1.0 + max((max(abs(complex(c)) for c in g.coeffs) for _, g in eq.monomials),
                      default=0.0)
            for eq in self.equations)
        self._basis = None
        self._system = None

    def float_view(self) -> "TwistorModel":
        """The model with complex coefficients, the input of every numeric op.

        A float model is its own view.  The view is not cached: building it
        is cheap, and ops nested inside an op are handed the view already.
        """
        if not self.exact:
            return self
        return TwistorModel(
            self.name, self.degrees, self.coordinates, self.rules, self.float_equations(),
            [c.map_coeffs(complex) for c in self.component_equations],
            lam=None if self.lam is None else self.lam.to_float(),
            reality=self.reality)

    def float_equations(self) -> tuple:
        """The fiber equations of :meth:`float_view`, without the model."""
        if not self.exact:
            return self.equations
        return tuple(FiberEquation(eq.twist, tuple((e, c.to_float()) for e, c in eq.monomials))
                     for eq in self.equations)

    @property
    def section_basis(self) -> SectionBasis:
        if self._basis is None:
            self._basis = reality_fixed_space(
                self.degrees, self.rules, names=self.coordinates, exact=self.exact)
        return self._basis

    @property
    def nparams(self) -> int:
        return self.section_basis.nparams

    def __repr__(self):
        return (f"TwistorModel({self.name!r}, degrees={self.degrees}, "
                f"{len(self.equations)} equation(s))")


_QUADRIC_RULES = (SigmaCoordRule(1, 1, 2), SigmaCoordRule(0, 1, 2),
                  SigmaCoordRule(2, -1, 2))


def _recognise_family(quadric_layout: bool, equations, component_equations):
    """(family, mu, expected_regular_rank) of a model's closed-form family.

    Equation-free bundles are "linear"; a model in the quadric layout with
    the single equation x*y = z^2 + mu (coefficients exactly 1 and -1) and a
    quadratic real system (component equations of degree <= 2) is
    "quadric"; anything else is (None, None, None) and falls back to Newton.
    """
    if not equations:
        return "linear", None, 0
    if not quadric_layout or len(equations) != 1 or any(
            sum(exps) > 2 for comp in component_equations for exps in comp.terms):
        return None, None, None
    eq = equations[0]
    if eq.twist != 4:
        return None, None, None
    mu = CoeffPoly.zero(4)
    seen = set()
    for exps, coeff in eq.monomials:
        if exps == (1, 1, 0) and coeff.coeffs[0] == 1:
            seen.add("xy")
        elif exps == (0, 0, 2) and coeff.coeffs[0] == -1:
            seen.add("z2")
        elif exps == (0, 0, 0):
            mu = (-coeff).with_bound(4)
        else:
            return None, None, None
    if {"xy", "z2"} <= seen:
        return "quadric", mu, 5
    return None, None, None


def _coeff_form(basis: SectionBasis, coord: int, power: int) -> MPoly:
    """Section coefficient as a complex-linear polynomial in the real parameters."""
    coeffs = [0] * basis.nparams
    for p, unit in basis.slots[coord][power]:
        coeffs[p] = coeffs[p] + unit
    return MPoly.linear(basis.nparams, coeffs)


def _quadric_family_model(name, exact, mu=None, **extras) -> TwistorModel:
    """x*y = z^2 (+ mu) on O(2)+O(2)+O(2) with the swap/minus rules."""
    one = make_complex(1, 0, exact)
    monos = (((1, 1, 0), CoeffPoly.const(0, one)),
             ((0, 0, 2), CoeffPoly.const(0, -one)))
    if mu is not None:
        monos += (((0, 0, 0), -mu),)
    return TwistorModel(name, (2, 2, 2), ("x", "y", "z"), _QUADRIC_RULES,
                        (FiberEquation(4, monos),), exact=exact, **extras)


def build_quadric(exact: bool = False) -> TwistorModel:
    """Rank-three model with the cone equation x*y = z^2 and swap/minus rules."""
    basis = reality_fixed_space((2, 2, 2), _QUADRIC_RULES, names=("x", "y", "z"),
                                exact=exact)
    x0 = _coeff_form(basis, 0, 0)
    x1 = _coeff_form(basis, 0, 1)
    x2 = _coeff_form(basis, 0, 2)
    # double-zero condition on the x coordinate, as a complex equation
    component = x1 * x1 - (x0 * x2) * 4
    model = _quadric_family_model("quadric", exact,
                                  component_equations=(component,))
    model._basis = basis
    return model


_Z_TYPE_RULE = SigmaCoordRule(0, -1, 2)
_REALITY_TOL = 1e-12


def lambda_reality_type(lam: CoeffPoly):
    """'real', 'antireal', or None for a degree-two coefficient polynomial."""
    pulled = tau_pullback(lam, _Z_TYPE_RULE)
    if (pulled - lam).is_zero(_REALITY_TOL):
        return "real"
    if (pulled + lam).is_zero(_REALITY_TOL):
        return "antireal"
    return None


def build_deformed(lam, reality: str, exact: bool = False) -> TwistorModel:
    """Deformation x*y = z^2 + lam(z)^2 of the quadric model.

    ``reality`` declares whether lam is fixed ('real') or negated
    ('antireal') by the z-type pullback; the declaration is verified.
    """
    if not isinstance(lam, CoeffPoly):
        lam = CoeffPoly(2, list(lam))
    if lam.degree_bound != 2:
        raise DegreeError("deformation coefficient must have degree bound 2")
    if lam.is_zero(0.0):
        raise RealityError("deformation coefficient must be nonzero")
    if reality not in ("real", "antireal"):
        raise RealityError(f"unknown reality type {reality!r}")
    actual = lambda_reality_type(lam)
    if actual != reality:
        raise RealityError(
            f"coefficient is not tau-{reality}; pullback does not match")
    return _quadric_family_model("deformed", exact, mu=lam * lam, lam=lam,
                                 reality=reality)


_SMOOTH_RULES = (SigmaCoordRule(1, -1, 1), SigmaCoordRule(0, 1, 1))


def build_smooth_o11(exact: bool = False) -> TwistorModel:
    """Total space of O(1)+O(1) with the quaternionic pair rule; no equations."""
    return TwistorModel("smooth-o11", (1, 1), ("a", "b"), _SMOOTH_RULES, (), exact=exact)


def glue_cone_twistor(equations, weights, l: int, rules,
                      coordinates=None, exact: bool = False,
                      name: str = "cone") -> TwistorModel:
    """Twistor model of a weighted affine cone glued over the two charts.

    Coordinates of weight w become sections of O(l*w); a weighted-homogeneous
    equation of weighted degree D becomes a fiber equation of twist l*D.
    """
    weights = tuple(int(w) for w in weights)
    if l not in (1, 2):
        raise ModelError("gluing exponent must be 1 or 2")
    if any(w < 1 for w in weights):
        raise WeightError("weights must be positive integers")
    degrees = tuple(l * w for w in weights)
    fiber_eqs = []
    for eq in equations:
        monos = []
        wdeg = None
        for exps, coeff in eq:
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(weights):
                raise WeightError("monomial length differs from weight count")
            d = sum(e * w for e, w in zip(exps, weights))
            if wdeg is None:
                wdeg = d
            elif d != wdeg:
                raise WeightError(
                    f"equation is not weighted-homogeneous: degrees {wdeg} and {d}")
            if exact and not is_exact(coeff):
                raise ModelError(f"an exact model needs exact coefficients, got {coeff!r}")
            monos.append((exps, CoeffPoly.const(0, coeff)))
        if wdeg is None:
            raise WeightError("empty equation")
        fiber_eqs.append(FiberEquation(l * wdeg, tuple(monos)))
    check_rule_parity(degrees, rules)
    coordinates = tuple(coordinates) if coordinates else tuple(
        f"u{i}" for i in range(len(weights)))
    return TwistorModel(name, degrees, coordinates, rules, tuple(fiber_eqs),
                        exact=exact)


def squaring_section(a, b, variant: str = "minus", exact: bool = False):
    """Real parameter vector of the squared rank-two section.

    minus: squares (a - conj(b) z, b + conj(a) z); plus squares
    (a + conj(b) z, b - conj(a) z).  The result always satisfies the quadric
    equations.  Floats go through squaring_sections; exact values take
    its formulas in integers, one Fraction per parameter.
    """
    if variant not in ("minus", "plus"):
        raise ModelError(f"unknown squaring variant {variant!r}")
    if not exact:
        return squaring_sections(complex(a), complex(b), variant == "minus")
    # the parts of squaring_sections over a = (ar + ai i)/da, b = (br + bi i)/db
    ar, ai, da = exact_parts(GaussianRational(a))
    br, bi, db = exact_parts(GaussianRational(b))
    minus = variant == "minus"
    sign = -2 if minus else 2
    aa, bb, ab = da * da, db * db, da * db
    gap = (ar * ar + ai * ai) * bb - (br * br + bi * bi) * aa
    return [Fraction(ar * ar - ai * ai, aa), Fraction(2 * ar * ai, aa),
            Fraction(sign * (ar * br + ai * bi), ab), Fraction(sign * (ai * br - ar * bi), ab),
            Fraction(br * br - bi * bi, bb), Fraction(-2 * br * bi, bb),
            Fraction(ar * br - ai * bi, ab), Fraction(ar * bi + ai * br, ab),
            Fraction(gap if minus else -gap, aa * bb)]


def squaring_sections(a, b, minus) -> np.ndarray:
    """Squared sections of complex a, b and variant flags ``minus`` (minus
    where true, plus elsewhere): one row of parameters (9,) for scalars,
    (k, 9) for arrays of shape (k,).

    Written in real parts, as complex products round: x0 = a², x2 = conj(b)²,
    z0 = a·b, x1 = ∓2·a·conj(b), r = ±(|a|² − |b|²); the signs are the
    exact products 2 − 4·minus and 2·minus − 1, so scalars stay cheap.
    """
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    sign = 2.0 - 4.0 * minus
    gap = (ar * ar + ai * ai) - (br * br + bi * bi)
    return np.ascontiguousarray(np.array([
        ar * ar - ai * ai, ar * ai + ai * ar,
        sign * (ar * br + ai * bi), sign * (ai * br - ar * bi),
        br * br - bi * bi, -(br * bi) - bi * br,
        ar * br - ai * bi, ar * bi + ai * br,
        gap * (2.0 * minus - 1.0)]).T)


def quadric_params(x0, x1, x2, z0, r, exact: bool = False):
    """Parameter vector from the coefficient tuple (x0, x1, x2, z0, r)."""
    vals = [x0.real, x0.imag, x1.real, x1.imag, x2.real, x2.imag,
            z0.real, z0.imag, r.real]
    if exact:
        return vals
    return np.array([float(v) for v in vals])


def quadric_tuple(params):
    """Inverse of quadric_params (float view)."""
    p = [float(v) for v in params]
    return (complex(p[0], p[1]), complex(p[2], p[3]), complex(p[4], p[5]),
            complex(p[6], p[7]), p[8])


@dataclass
class ValidationReport:
    """Structured outcome of validate_model; never raises."""

    passed: bool = True
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    equation_signs: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def fail(self, check, message):
        self.passed = False
        self.failures.append({"check": check, "message": message})


def sigma_transform(eq: FiberEquation, degrees, rules) -> FiberEquation:
    """Pullback of an equation under the coordinate rules + antipodal map.

    The model is sigma-compatible when the result is a scalar multiple of a
    model equation; the conjugate-twisted image of the equation ideal then
    equals the ideal itself.
    """
    d = eq.twist
    monos = {}
    for exps, coeff in eq.monomials:
        gamma = coeff.degree_bound
        perm = tuple(exps[rules[i].partner] for i in range(len(exps)))
        sign = 1
        for i, e in enumerate(exps):
            if e % 2 and rules[i].sign == -1:
                sign = -sign
        if (d - gamma) % 2:
            sign = -sign
        pulled = tau_pullback(coeff, SigmaCoordRule(0, 1, gamma)).scale(sign)
        if perm in monos:
            monos[perm] = monos[perm] + pulled
        else:
            monos[perm] = pulled
    return FiberEquation(d, tuple(sorted(monos.items())))


def _equations_match(e1: FiberEquation, e2: FiberEquation, tol: float):
    """Scalar kappa in {1,-1} with e1 == kappa * e2, else None."""
    m1 = {exps: coeff for exps, coeff in e1.monomials}
    m2 = {exps: coeff for exps, coeff in e2.monomials}
    for kappa in (1, -1):
        ok = True
        for exps in set(m1) | set(m2):
            a = m1.get(exps)
            b = m2.get(exps)
            if a is None or b is None:
                blank = a if a is not None else b
                if not blank.is_zero(tol):
                    ok = False
                    break
                continue
            if not (a - b.scale(kappa)).is_zero(tol):
                ok = False
                break
        if ok:
            return kappa
    return None


_BUILTIN_RULES = {
    "quadric": _QUADRIC_RULES,
    "deformed": _QUADRIC_RULES,
    "smooth-o11": _SMOOTH_RULES,
}


@cache
def _probe_points(ncoord: int) -> np.ndarray:
    """u[b, k]: the k-th of four seeded random fiber points over base point
    b of the generic-rank probe, (4, 4, ncoord), read-only."""
    z = np.random.default_rng(20240901).standard_normal((4, 4, 2, ncoord))
    u = z[:, :, 0] + 1j * z[:, :, 1]
    u.flags.writeable = False
    return u


def validate_model(model: TwistorModel) -> ValidationReport:
    """Check involutivity, sigma-compatibility, twists and generic fiber rank."""
    report = ValidationReport()
    tol = 1e-12
    try:
        check_rule_parity(model.degrees, model.rules)
    except NonInvolutiveError as exc:
        report.fail("parity", str(exc))
        return report
    for idx, eq in enumerate(model.equations):
        try:
            eq.check_degrees(model.degrees)
        except DegreeError as exc:
            report.fail("twist_consistency", f"equation {idx}: {exc}")
    if not report.passed:
        return report
    for idx, eq in enumerate(model.equations):
        pulled = sigma_transform(eq, model.degrees, model.rules)
        matched = None
        for jdx, other in enumerate(model.equations):
            if other.twist != pulled.twist:
                continue
            kappa = _equations_match(pulled, other, tol)
            if kappa is not None:
                matched = (jdx, kappa)
                break
        if matched is None:
            report.fail("sigma_compatibility",
                        f"equation {idx} is not preserved by the real structure")
        else:
            report.equation_signs.append(
                {"equation": idx, "maps_to": matched[0], "kappa": matched[1]})
    # generic fiber rank: the equations stay independent over generic base points
    if model.equations:
        ncoord = len(model.degrees)
        expected = min(len(model.equations), ncoord)
        partials = [[eq.partial(c, model.degrees) for c in range(ncoord)]
                    for eq in model.float_equations()]
        base_points = [P1Point.std(0.37 - 0.21j), P1Point.std(0.61 + 0.4j),
                       P1Point.inf(0.152 + 0.73j), P1Point.inf(-0.5 + 0.12j)]
        u = _probe_points(ncoord)
        jacs = np.empty((len(base_points), len(partials), ncoord, 4), dtype=complex)
        for b, pt in enumerate(base_points):
            for r, row in enumerate(partials):
                for c, part in enumerate(row):
                    jacs[b, r, c] = part.eval_at(pt, u[b].T)
        # one SVD per fiber point; a base point's rank is the best of its four
        svals = np.linalg.svd(jacs.transpose(0, 3, 1, 2), compute_uv=False)
        ranks = numerical_rank(svals, 1e-7).max(axis=1).tolist()
        if len(set(ranks)) != 1:
            report.fail("generic_fiber_rank",
                        f"generic equation rank varies over the base: {ranks}")
        elif ranks[0] != expected:
            report.notes.append(
                f"generic equation rank {ranks[0]} (coordinates {ncoord}, "
                f"equations {len(model.equations)})")
        report.info["generic_equation_rank"] = ranks[0]
    builtin = _BUILTIN_RULES.get(model.name)
    if builtin is not None and model.rules != builtin:
        report.notes.append(
            f"rules differ from the builtin '{model.name}' convention")
    report.info["real_parameter_dimension"] = model.nparams
    report.info["coordinates"] = list(model.coordinates)
    return report


def models_structurally_equal(m1: TwistorModel, m2: TwistorModel,
                              ignore_component_equations: bool = True,
                              tol: float = 0.0) -> bool:
    """Equality of degrees, rules and equations (names are ignored)."""
    if m1.degrees != m2.degrees or m1.rules != m2.rules:
        return False
    if len(m1.equations) != len(m2.equations):
        return False
    for e1, e2 in zip(m1.equations, m2.equations):
        if e1.twist != e2.twist:
            return False
        if _equations_match(e1, e2, tol) != 1:
            return False
    if not ignore_component_equations:
        if len(m1.component_equations) != len(m2.component_equations):
            return False
        for c1, c2 in zip(m1.component_equations, m2.component_equations):
            if not (c1 - c2).is_zero(tol):
                return False
    return True
