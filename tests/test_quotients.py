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


def _element_order(g: FiniteQuaternionGroup, i: int) -> int:
    k, acc = 1, i
    while acc != g.identity:
        acc = g.mul(acc, i)
        k += 1
    return k


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
    orders = sorted(_element_order(g, i) for i in range(g.order))
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


def test_elements_that_are_not_quaternions_are_refused():
    # four unit 3-vectors hold twelve numbers, which must not be read as
    # three quaternions
    with pytest.raises(GroupAxiomError, match="not a unit quaternion"):
        FiniteQuaternionGroup.from_quaternions([(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                                (-1, 0, 0)])


def _loop_closure(elements, tol):
    """Reference: the first element within tol of each product, in row order,
    or the (a, b, a*b) witness of the first product that has none."""
    table = []
    for a in elements:
        row = []
        for b in elements:
            prod = quat_mul(a, b)
            match = [k for k, e in enumerate(elements)
                     if sum((x - y) ** 2 for x, y in zip(prod, e)) <= tol * tol]
            if not match:
                return None, (a, b, prod)
            row.append(match[0])
        table.append(row)
    return table, None


def _loop_associativity_witness(table):
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return (a, b, c)
    return None


def test_closure_and_associativity_witnesses_match_the_loop_reference():
    els = [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0),
           (0.0, 0.0, 1.0, 0.0)]    # i*j = k and j*i = -k are missing
    with pytest.raises(GroupAxiomError, match="closure fails") as err:
        FiniteQuaternionGroup.from_quaternions(els)
    assert err.value.witness == _loop_closure(
        [tuple(map(float, e)) for e in els], 1e-12)[1]
    # a Latin square with a two-sided identity that is not associative
    table = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    witness = _loop_associativity_witness(table)
    assert witness is not None
    with pytest.raises(GroupAxiomError, match="associativity fails") as err:
        FiniteQuaternionGroup.from_table(table)
    assert err.value.witness == witness


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
