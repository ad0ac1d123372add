from fractions import Fraction

import numpy as np
import pytest

from twistorcheck import (SigmaCoordRule, analysis, build_deformed, build_quadric,
                          build_smooth_o11, glue_cone_twistor, serialize)
from twistorcheck.models import FiberEquation, TwistorModel
from twistorcheck.mpoly import MPoly
from twistorcheck.systems import real_section_system

ANTIREAL_LAMBDA = [1j, 0.0, -1j]


@pytest.fixture(scope="session")
def quadric():
    return build_quadric()


@pytest.fixture(scope="session")
def quadric_system(quadric):
    return real_section_system(quadric)


@pytest.fixture(scope="session")
def quadric_exact():
    return build_quadric(exact=True)


@pytest.fixture(scope="session")
def deformed():
    return build_deformed(ANTIREAL_LAMBDA, "antireal")


@pytest.fixture(scope="session")
def smooth():
    return build_smooth_o11()


def double_coefficients(model):
    """The model with doubled fiber coefficients: the same fibers, but no
    closed-form family, so it is solved by Newton."""
    doc = serialize.model_to_dict(model)
    for eq in doc["equations"]:
        for mono in eq["monomials"]:
            mono["coeffs"] = [np.multiply(2, c).tolist() for c in mono["coeffs"]]
    return serialize.model_from_dict(doc)


def with_real_constant(model):
    """The model with one more coordinate c of degree 0, self-paired with
    sign +1, so every real section has a real constant c, and without
    component equations."""
    equations = [FiberEquation(eq.twist, tuple((exps + (0,), coeff)
                                               for exps, coeff in eq.monomials))
                 for eq in model.equations]
    return TwistorModel(model.name, model.degrees + (0,), model.coordinates + ("c",),
                        model.rules + (SigmaCoordRule(len(model.degrees), 1, 0),),
                        equations)


@pytest.fixture(scope="session")
def doubled(quadric):
    """The quadric cone with doubled fiber coefficients: solved by Newton."""
    return double_coefficients(quadric)


@pytest.fixture(scope="session")
def a2_cone():
    """H/Z3 as the glued cone uv = w^3 with weights (3, 3, 2) and l = 1."""
    rules = (SigmaCoordRule(1, -1, 3), SigmaCoordRule(0, 1, 3),
             SigmaCoordRule(2, -1, 2))
    return glue_cone_twistor([[((1, 1, 0), 1.0), ((0, 0, 3), -1.0)]],
                             (3, 3, 2), 1, rules)


@pytest.fixture(scope="session")
def a3_cone():
    """H/Z4 as the glued cone uv = w^4 with weights (4, 4, 2) and l = 1."""
    rules = (SigmaCoordRule(1, 1, 4), SigmaCoordRule(0, 1, 4),
             SigmaCoordRule(2, -1, 2))
    return glue_cone_twistor([[((1, 1, 0), 1.0), ((0, 0, 4), -1.0)]],
                             (4, 4, 2), 1, rules)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def force_generic_examination(monkeypatch):
    """Let classify examine the singular pairs of the closed-form families
    by the Gauss-Newton continuation of Newton models: their family entries
    read complete=False while _examine_pairs runs, and only then, so fiber
    solves keep reporting complete=True."""
    examine = analysis._examine_pairs

    def generic(model, fibers, cfg):
        entry = analysis._FAMILIES[model.family]
        with monkeypatch.context() as patch:
            patch.setitem(analysis._FAMILIES, model.family, entry._replace(complete=False))
            return examine(model, fibers, cfg)

    monkeypatch.setattr(analysis, "_examine_pairs", generic)


def fd_jacobian(system, p, h=1e-6):
    """Central finite differences, the reference for the analytic Jacobian."""
    p = np.asarray(p, dtype=float)
    out = np.zeros((len(system), len(p)))
    for i in range(len(p)):
        step = np.zeros(len(p))
        step[i] = h * (1.0 + abs(p[i]))
        fp = np.array([float(v) for v in system.residuals(p + step)])
        fm = np.array([float(v) for v in system.residuals(p - step)])
        out[:, i] = (fp - fm) / (2.0 * step[i])
    return out


def block_exps(block):
    """(M, nvars) exponents of the monomials of a compiled block."""
    return np.array([[f.count(i) for i in range(block.nvars)] for f in block.factors],
                    dtype=np.intp).reshape(len(block.factors), block.nvars)


def system_equations(system):
    """The residuals of an induced system as MPolys, with Fraction
    coefficients when exact: the oracle view of its compiled block."""
    res = system._res
    exps = [tuple(e) for e in block_exps(res).tolist()]
    coeff = (lambda c: Fraction(c, res.den)) if system.exact else float
    return [MPoly(system.nvars, {exps[m]: coeff(c) for m, c in col})
            for col in res.columns]


def mpoly_diff(poly, i):
    """The derivative of an MPoly along its variable i."""
    return MPoly(poly.nvars, {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                              for e, c in poly.terms.items() if e[i]})
