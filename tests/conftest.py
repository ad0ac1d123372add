import numpy as np
import pytest

from twistorcheck import (SigmaCoordRule, build_deformed, build_quadric,
                          build_smooth_o11, glue_cone_twistor, serialize)
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


@pytest.fixture(scope="session")
def doubled(quadric):
    """The quadric cone with doubled fiber coefficients: solved by Newton."""
    doc = serialize.model_to_dict(quadric)
    for eq in doc["equations"]:
        for mono in eq["monomials"]:
            mono["coeffs"] = [[2 * re, 2 * im] for re, im in mono["coeffs"]]
    return serialize.model_from_dict(doc)


@pytest.fixture(scope="session")
def a2_cone():
    """H/Z3 as the glued cone uv = w^3 with weights (3, 3, 2) and l = 1."""
    rules = (SigmaCoordRule(1, -1, 3), SigmaCoordRule(0, 1, 3),
             SigmaCoordRule(2, -1, 2))
    return glue_cone_twistor([[((1, 1, 0), 1.0), ((0, 0, 3), -1.0)]],
                             (3, 3, 2), 1, rules)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


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
