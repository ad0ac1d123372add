"""Quaternion group census, component counts, squaring consistency."""

from fractions import Fraction

import numpy as np
import pytest

from twistorcheck import (GroupAxiomError, ModelError, binary_dihedral,
                          builtin_group, closure_equals_quotient,
                          component_count,
                          cyclic_group, involution_census,
                          quaternion_group_q8, veronese_quotient_check)
from twistorcheck.quotients import FiniteQuaternionGroup, quat_mul
from twistorcheck.scalars import GaussianRational


def test_census_z2():
    census = involution_census(cyclic_group(2))
    assert len(census.involutions) == 2
    assert census.class_count == 2


def test_census_z3():
    census = involution_census(cyclic_group(3))
    assert census.involutions == [0]
    assert census.class_count == 1


def test_census_q8():
    g = quaternion_group_q8()
    census = involution_census(g)
    assert len(census.involutions) == 2          # identity and its negative
    assert census.class_count == 2
    orders = sorted(g.element_order(i) for i in range(g.order))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_component_counts():
    assert component_count(cyclic_group(2))[0] == 2
    assert component_count(cyclic_group(3))[0] == 1
    assert component_count(cyclic_group(5))[0] == 1
    assert component_count(quaternion_group_q8())[0] == 2


def test_predicate():
    assert closure_equals_quotient(cyclic_group(5))
    assert not closure_equals_quotient(cyclic_group(2))
    assert not closure_equals_quotient(quaternion_group_q8())


@pytest.mark.parametrize("k", range(1, 13))
def test_cyclic_count_parity(k):
    g = cyclic_group(k)
    count, _ = component_count(g)
    assert count == (2 if k % 2 == 0 else 1)
    assert closure_equals_quotient(g) == (count == 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_binary_dihedral_counts(n):
    g = binary_dihedral(n)
    assert g.order == 4 * n
    count, _ = component_count(g)
    assert count == 2          # the unique involution is -1, plus the identity
    assert not closure_equals_quotient(g)


def test_census_conjugation_invariant(rng):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    for make in (lambda: cyclic_group(4), quaternion_group_q8,
                 lambda: binary_dihedral(3)):
        g = make()
        rotated = [quat_mul(quat_mul(tuple(q), e), (q[0], -q[1], -q[2], -q[3]))
                   for e in g.elements]
        g2 = FiniteQuaternionGroup.from_quaternions(rotated, tol=1e-9)
        c1 = involution_census(g)
        c2 = involution_census(g2)
        assert sorted(map(len, c1.classes)) == sorted(map(len, c2.classes))


def test_group_axiom_error_witness():
    els = [(1.0, 0, 0, 0), (0.0, 1.0, 0, 0)]  # i*i = -1 missing
    with pytest.raises(GroupAxiomError) as err:
        FiniteQuaternionGroup.from_quaternions(els)
    assert err.value.witness is not None


def test_table_group_associativity_guard():
    table = [[0, 1], [1, 1]]   # 1*1 = 1 breaks inverses/associativity
    with pytest.raises(GroupAxiomError):
        FiniteQuaternionGroup.from_table(table)


def test_builtin_group_names():
    assert builtin_group("Z7").order == 7
    assert builtin_group("q8").order == 8
    assert builtin_group("BD12").order == 12


@pytest.mark.parametrize("name", ["Z²", "BD⁸", "Z٣", "Z+3", "BD", "Q8x"])
def test_builtin_group_rejects_names_outside_the_rules(name):
    # superscript and other non-ASCII digits pass str.isdigit() but are not
    # an order in the name rules
    with pytest.raises(ModelError, match="unknown builtin group"):
        builtin_group(name)


def test_veronese_check_exact(rng):
    samples = []
    for _ in range(20):
        samples.append((
            GaussianRational(Fraction(int(rng.integers(-5, 6)), 3),
                             Fraction(int(rng.integers(-5, 6)), 2)),
            GaussianRational(Fraction(int(rng.integers(-5, 6)), 4),
                             Fraction(int(rng.integers(-5, 6)), 5))))
    for variant in ("minus", "plus"):
        rep = veronese_quotient_check(samples, variant, exact=True,
                                      fiber_check=4)
        assert rep.all_members and rep.collapse_ok
        for count in rep.fiber_counts.values():
            assert count == 2
