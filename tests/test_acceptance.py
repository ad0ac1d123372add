"""Acceptance suite: one test per criterion, tolerances pinned inline.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines and timings).  Exact-identity criteria run on the
rational backend; counting and locus criteria run in float mode with the
stated tolerances.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from twistorcheck import (SolveConfig, branch_test, build_deformed,
                          build_quadric, build_smooth_o11,
                          classify_hypercomplex, cyclic_group,
                          evaluate_section, glue_cone_twistor,
                          closure_equals_quotient, component_count,
                          kernel_splitting, models_structurally_equal,
                          normal_splitting, quadric_tuple,
                          quaternion_group_q8, rank_one_matrix_oracle,
                          singular_scan, solve_fiber, squaring_section,
                          sym_matrix_model, SigmaCoordRule)
from twistorcheck.mpoly import MPoly
from twistorcheck.projline import CoeffPoly
from twistorcheck.scalars import GaussianRational
from twistorcheck.systems import real_section_system

from conftest import fd_jacobian, system_equations
from test_projline import _brute_twist_nullity

SEED = 20240811

# pinned tolerances
MEMBERSHIP_TOL = 1e-9
RANK_RTOL = 1e-7
FD_REL_TOL = 1e-6
COORD_ATOL = 1e-9


class _criterion:
    def __init__(self, number, name, budget):
        self.number, self.name, self.budget = number, name, budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} ({self.name}): {status} "
              f"in {elapsed:.2f}s (budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, \
                f"criterion {self.number} exceeded its {self.budget}s budget"
        return False


def _freeze(poly: MPoly):
    """The terms of poly, scaled by -1 if the coefficient of its smallest
    exponent is negative, so an equation and its negative compare equal."""
    lead = poly.terms[min(poly.terms)] if poly.terms else 0
    if lead.real < 0 or (lead.real == 0 and lead.imag < 0):
        poly = -poly
    return frozenset(poly.terms.items())


def _expected_quadric_equations():
    """The seven real coefficient equations, written out by hand.

    Parameters: 0 x0.re, 1 x0.im, 2 x1.re, 3 x1.im, 4 x2.re, 5 x2.im,
    6 z0.re, 7 z0.im, 8 r (middle z coefficient).
    """
    def mono(spec):
        terms = {}
        for coeff, *vars_ in spec:
            e = [0] * 9
            for v in vars_:
                e[v] += 1
            terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + Fraction(coeff)
        return MPoly(9, terms)

    return [
        mono([(1, 0, 4), (1, 1, 5), (-1, 6, 6), (1, 7, 7)]),
        mono([(1, 1, 4), (-1, 0, 5), (-2, 6, 7)]),
        mono([(1, 2, 4), (1, 3, 5), (-1, 0, 2), (-1, 1, 3), (-2, 8, 6)]),
        mono([(1, 3, 4), (-1, 2, 5), (-1, 1, 2), (1, 0, 3), (-2, 8, 7)]),
        mono([(1, 0, 0), (1, 1, 1), (1, 4, 4), (1, 5, 5), (-1, 2, 2),
              (-1, 3, 3), (-1, 8, 8), (2, 6, 6), (2, 7, 7)]),
        mono([(1, 2, 2), (-1, 3, 3), (-4, 0, 4), (4, 1, 5)]),
        mono([(2, 2, 3), (-4, 0, 5), (-4, 1, 4)]),
    ]


def test_criterion_01_equation_reproduction():
    with _criterion(1, "equation reproduction", 1.0):
        system = real_section_system(build_quadric(exact=True))
        assert len(system) == 7 and system.nvars == 9
        got = {_freeze(eq.map_coeffs(Fraction)) for eq in system_equations(system)}
        want = {_freeze(eq) for eq in _expected_quadric_equations()}
        assert got == want


def test_criterion_02_veronese_consistency():
    with _criterion(2, "squaring consistency", 2.0):
        rng = np.random.default_rng(SEED)
        system = real_section_system(build_quadric(exact=True))
        for _ in range(100):
            a = GaussianRational(Fraction(int(rng.integers(-9, 10)), 4),
                                 Fraction(int(rng.integers(-9, 10)), 3))
            b = GaussianRational(Fraction(int(rng.integers(-9, 10)), 5),
                                 Fraction(int(rng.integers(-9, 10)), 2))
            for variant in ("minus", "plus"):
                sec = squaring_section(a, b, variant, exact=True)
                assert all(r == 0 for r in system.residuals(sec))
                neg = squaring_section(-a, -b, variant, exact=True)
                assert all(x == y for x, y in zip(sec, neg))


def test_criterion_03_two_to_one():
    with _criterion(3, "two-to-one fiber counts", 5.0):
        model = build_quadric()
        cfg = SolveConfig(seed=SEED, tol=MEMBERSHIP_TOL, rank_rtol=RANK_RTOL)
        res = solve_fiber(model, 0j, (1, 1, 1), cfg)
        assert len(res.solutions) == 2 and res.complete
        x1s = sorted(quadric_tuple(s)[1].real for s in res.solutions)
        assert x1s == pytest.approx([-2.0, 2.0], abs=COORD_ATOL)
        assert all(abs(quadric_tuple(s)[4]) < COORD_ATOL for s in res.solutions)
        res = solve_fiber(model, 0j, (0, 1, 0), cfg)
        assert len(res.solutions) == 2
        assert sorted(quadric_tuple(s)[4] for s in res.solutions) == \
            pytest.approx([-1.0, 1.0], abs=COORD_ATOL)
        res = solve_fiber(model, 0j, (0, 0, 0), cfg)
        assert len(res.solutions) == 1
        rng = np.random.default_rng(SEED)
        for _ in range(50):
            a = complex(rng.standard_normal(), rng.standard_normal())
            b = complex(rng.standard_normal(), rng.standard_normal())
            sec = squaring_section(a, b, "minus")
            target = evaluate_section(model, sec, 0j)
            res = solve_fiber(model, None, target, cfg)
            assert len(res.solutions) == 2


def test_criterion_04_singular_locus():
    with _criterion(4, "singular locus", 5.0):
        model = build_quadric()
        rng = np.random.default_rng(SEED)
        points = [squaring_section(
            complex(rng.standard_normal(), rng.standard_normal()),
            complex(rng.standard_normal(), rng.standard_normal()),
            "minus" if rng.random() < 0.5 else "plus") for _ in range(200)]
        points.append(np.zeros(9))
        rep = singular_scan(model, points,
                            SolveConfig(seed=SEED, rank_rtol=RANK_RTOL))
        assert len(rep.singular) == 1
        assert np.allclose(rep.singular[0].params, 0)
        assert rep.singular[0].rank == 0
        assert rep.regular_count == 200
        assert all(e.rank == 5 for e in rep.entries if not e.deficient)


def test_criterion_05_branch_locus():
    with _criterion(5, "branch locus", 10.0):
        model = build_quadric()
        cfg = SolveConfig(seed=SEED, rank_rtol=RANK_RTOL)
        rng = np.random.default_rng(SEED)
        zetas = [complex(rng.standard_normal(), rng.standard_normal())
                 for _ in range(5)]
        for _ in range(100):
            a = complex(rng.standard_normal(), rng.standard_normal())
            b = complex(rng.standard_normal(), rng.standard_normal())
            sec = squaring_section(a, b, "minus")
            zeta = zetas[int(rng.integers(5))]
            assert branch_test(model, sec, zeta, cfg).verdict == "unbranched"
        for zeta in zetas:
            assert branch_test(model, np.zeros(9), zeta, cfg).verdict \
                == "branched"


def test_criterion_06_normal_bundle():
    with _criterion(6, "normal bundle splitting", 10.0):
        model = build_quadric()
        cfg = SolveConfig(seed=SEED, rank_rtol=RANK_RTOL)
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            a = complex(rng.standard_normal(), rng.standard_normal())
            b = complex(rng.standard_normal(), rng.standard_normal())
            rep = normal_splitting(model, squaring_section(a, b, "minus"), cfg)
            assert rep.splitting is not None
            assert rep.splitting.degrees == (1, 1)
            assert rep.h0 == 4 and rep.h0_minus2 == 0


def test_criterion_07_classification_dichotomy():
    with _criterion(7, "classification dichotomy", 20.0):
        cfg = SolveConfig(seed=SEED)
        assert classify_hypercomplex(build_quadric(), cfg).verdict \
            == "Hypercomplex"
        deformed = build_deformed([1j, 0.0, -1j], "antireal")
        cls = classify_hypercomplex(deformed, cfg)
        assert cls.verdict == "WeaklyHypercomplex"
        assert cls.evidence["family_dimension"] == 2
        fam = [f for f in cls.evidence["families"] if f["certified"]][0]
        assert fam["corank"] == 2
        # certified members lie on the unit sphere |x0|^2 + z0^2 = 1 and pass
        # through the singular fiber points over the pinned antipodal pair
        system = real_section_system(deformed)
        for sample in fam["samples"]:
            p = np.array(sample)
            assert system.membership(p, tol=MEMBERSHIP_TOL * 10).passed
            x0 = complex(p[0], p[1])
            assert abs(abs(x0) ** 2 + p[6] ** 2 - 1) < 1e-8
            for zeta in (1 + 0j, -1 + 0j):
                fp = evaluate_section(deformed, p, zeta)
                assert np.allclose(fp.values, 0, atol=1e-8)
        assert classify_hypercomplex(build_smooth_o11(), cfg).verdict \
            == "Hypercomplex"
        # deterministic under the fixed seed
        again = classify_hypercomplex(deformed, cfg)
        assert again.verdict == cls.verdict
        assert again.evidence["family_dimension"] == 2


def test_criterion_08_matrix_model():
    with _criterion(8, "symmetric matrix model", 2.0):
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            q = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
                 for _ in range(4)]
            if all(v == 0 for v in q):
                q[0] = Fraction(1)
            a = GaussianRational(q[0], q[1])
            b = GaussianRational(q[2], q[3])
            sec = squaring_section(a, b, "minus", exact=True)
            bmat, t = sym_matrix_model(sec, 1, exact=True)
            assert sum(bmat[i][i] for i in range(4)) == 0
            assert t == sum(v * v for v in q)
            amat = [[bmat[i][j] + (t / 4 if i == j else 0) for j in range(4)]
                    for i in range(4)]
            for i in range(4):
                for j in range(4):
                    assert amat[i][j] == q[i] * q[j]
            oracle = rank_one_matrix_oracle(q)
            assert oracle.rank_a == 1
            # oracle identity holds exactly; the displayed form leaves (3t/4)A
            assert all(v == 0 for row in oracle.product_identity_residual
                       for v in row)
            for i in range(4):
                for j in range(4):
                    assert oracle.displayed_residual[i][j] == \
                        Fraction(3, 4) * t * q[i] * q[j]
            assert oracle.displayed_residual_norm > 0


def test_criterion_09_quotient_counts():
    with _criterion(9, "quotient component counts", 1.0):
        assert component_count(cyclic_group(2))[0] == 2
        for k in (3, 5):
            group = cyclic_group(k)
            assert component_count(group)[0] == 1
            assert closure_equals_quotient(group)
        assert not closure_equals_quotient(cyclic_group(2))
        assert component_count(quaternion_group_q8())[0] == 2
        assert not closure_equals_quotient(quaternion_group_q8())


def test_criterion_10_cone_gluing():
    with _criterion(10, "cone gluing", 1.0):
        rules = (SigmaCoordRule(1, 1, 2), SigmaCoordRule(0, 1, 2),
                 SigmaCoordRule(2, -1, 2))
        glued = glue_cone_twistor([[((1, 1, 0), 1), ((0, 0, 2), -1)]],
                                  (1, 1, 1), 2, rules)
        assert models_structurally_equal(glued, build_quadric(),
                                         ignore_component_equations=True)
        assert glued.degrees == (2, 2, 2)
        rules11 = (SigmaCoordRule(1, -1, 1), SigmaCoordRule(0, 1, 1))
        flat = glue_cone_twistor([], (1, 1), 1, rules11)
        assert models_structurally_equal(flat, build_smooth_o11())


def test_criterion_11_oracle_suites():
    with _criterion(11, "oracle suites", 10.0):
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            nt = int(rng.integers(1, 4))
            ns = int(rng.integers(1, 5))
            src = [int(rng.integers(0, 4)) for _ in range(ns)]
            tgt = [int(rng.integers(0, 4)) for _ in range(nt)]
            entries = []
            for j in range(nt):
                row = []
                for i in range(ns):
                    bound = tgt[j] - src[i]
                    if bound < 0 or rng.random() < 0.2:
                        row.append(None)
                    else:
                        row.append(CoeffPoly(bound, list(
                            rng.integers(-3, 4, size=bound + 1).astype(complex))))
                entries.append(row)
            split = kernel_splitting(entries, src, tgt, rank_rtol=RANK_RTOL)
            for m in range(-4, 5):
                assert split.h0(m) == _brute_twist_nullity(entries, src, tgt, m)
        for model in (build_quadric(), build_deformed([1j, 0.0, -1j], "antireal")):
            system = real_section_system(model)
            for _ in range(100):
                p = rng.standard_normal(9) * 1.5
                jac = np.asarray(system.jacobian_at(p), dtype=float)
                ref = fd_jacobian(system, p)
                denom = 1.0 + np.abs(ref).max()
                assert np.abs(jac - ref).max() / denom < FD_REL_TOL
