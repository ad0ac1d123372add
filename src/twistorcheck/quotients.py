"""Finite groups of unit quaternions and quotient component bookkeeping.

For a finite group acting by left multiplication on a quaternionic vector
space, the regular components of the closure quotient are counted by the
conjugacy classes of square roots of the identity: each such class carries
one connected fixed set of the twisted involution (a real form of the flat
complexification, hence connected).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import GroupAxiomError, ModelError

MATCH_TOL = 1e-12


def quat_mul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def quat_norm_sq(a):
    return sum(float(v) * float(v) for v in a)


class FiniteQuaternionGroup:
    """Finite group given by unit quaternions or an abstract multiplication table."""

    def __init__(self, table, identity: int, elements=None, name: str = "group"):
        self.table = [list(row) for row in table]
        self.identity = identity
        self.elements = list(elements) if elements is not None else None
        self.name = name
        self.order = len(self.table)
        self._check_axioms()

    @classmethod
    def from_quaternions(cls, elements, name: str = "group",
                         tol: float = MATCH_TOL) -> "FiniteQuaternionGroup":
        elements = [tuple(float(x) for x in e) for e in elements]
        for e in elements:
            if len(e) != 4 or abs(quat_norm_sq(e) - 1.0) > 1e-9:
                raise GroupAxiomError(f"element {e} is not a unit quaternion")
        tol_sq = tol * tol
        identity = None
        for i, (e0, e1, e2, e3) in enumerate(elements):
            if (e0 - 1.0) ** 2 + e1 ** 2 + e2 ** 2 + e3 ** 2 <= tol_sq:
                identity = i
                break
        if identity is None:
            raise GroupAxiomError("identity quaternion missing from the element list")
        table = []
        for a in elements:
            row = []
            for b in elements:
                p0, p1, p2, p3 = prod = quat_mul(a, b)
                for k, (e0, e1, e2, e3) in enumerate(elements):  # the first match
                    if (p0 - e0) ** 2 + (p1 - e1) ** 2 + (p2 - e2) ** 2 + (p3 - e3) ** 2 \
                            <= tol_sq:
                        row.append(k)
                        break
                else:
                    raise GroupAxiomError(
                        "product leaves the element list (closure fails)",
                        witness=(a, b, prod))
            table.append(row)
        return cls(table, identity, elements=elements, name=name)

    @classmethod
    def from_table(cls, table, identity: int = 0,
                   name: str = "group") -> "FiniteQuaternionGroup":
        return cls(table, identity, name=name)

    def _check_axioms(self):
        n = self.order
        e = self.identity
        if not (0 <= e < n):
            raise GroupAxiomError("identity index out of range")
        for i in range(n):
            if len(self.table[i]) != n:
                raise GroupAxiomError("multiplication table is not square")
            for v in self.table[i]:
                if not isinstance(v, int) or not (0 <= v < n):
                    raise GroupAxiomError("table entry out of range",
                                          witness=(i, v))
            if self.table[e][i] != i or self.table[i][e] != i:
                raise GroupAxiomError("identity row/column fails",
                                      witness=(e, i, self.table[e][i]))
        for i in range(n):
            if e not in self.table[i]:
                raise GroupAxiomError("element has no inverse", witness=(i,))
        if n <= 48:
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        if self.table[self.table[a][b]][c] != \
                                self.table[a][self.table[b][c]]:
                            raise GroupAxiomError(
                                "associativity fails", witness=(a, b, c))

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        return self.table[i].index(self.identity)

    def conjugate(self, h: int, g: int) -> int:
        return self.mul(self.mul(h, g), self.inverse(h))

    def conjugacy_class(self, g: int):
        return sorted({self.conjugate(h, g) for h in range(self.order)})


@dataclass
class InvolutionCensus:
    """Square roots of the identity, grouped into conjugacy classes."""

    involutions: list
    classes: list
    identity: int

    @property
    def class_count(self) -> int:
        return len(self.classes)


def involution_census(group: FiniteQuaternionGroup) -> InvolutionCensus:
    """All g with g*g = identity (the identity included), by conjugacy class."""
    invs = [g for g in range(group.order)
            if group.mul(g, g) == group.identity]
    seen = set()
    classes = []
    for g in invs:
        if g in seen:
            continue
        cls = group.conjugacy_class(g)
        seen.update(cls)
        classes.append(cls)
    return InvolutionCensus(invs, classes, group.identity)


def closure_equals_quotient(group: FiniteQuaternionGroup) -> bool:
    """True when the group has no element of order two (census is just {e})."""
    return all(group.mul(g, g) != group.identity or g == group.identity
               for g in range(group.order))


def component_count(group: FiniteQuaternionGroup):
    """Number of regular components of the closure quotient, with assumptions.

    Counts conjugacy classes of square roots of the identity.  For left
    multiplication on a quaternionic vector space each twisted fixed set is
    connected and the action is free away from the origin.
    """
    flags = {
        "action": "left-multiplication",
        "connected_fixed_sets_assumed": True,
        "free_away_from_origin": True,
        "lower_bound": False,
    }
    return involution_census(group).class_count, flags


def cyclic_group(k: int) -> FiniteQuaternionGroup:
    """Rotations by multiples of 2*pi/k in a fixed complex plane of H."""
    if k < 1:
        raise ModelError("cyclic order must be positive")
    els = [(math.cos(2 * math.pi * j / k), math.sin(2 * math.pi * j / k), 0.0, 0.0)
           for j in range(k)]
    return FiniteQuaternionGroup.from_quaternions(els, name=f"Z{k}")


def quaternion_group_q8() -> FiniteQuaternionGroup:
    els = [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
           (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1)]
    return FiniteQuaternionGroup.from_quaternions(els, name="Q8")


def binary_dihedral(n: int) -> FiniteQuaternionGroup:
    """Binary dihedral group of order 4n: <exp(i*pi/n), j>."""
    if n < 1:
        raise ModelError("binary dihedral index must be positive")
    els = []
    for jdx in range(2 * n):
        ang = math.pi * jdx / n
        els.append((math.cos(ang), math.sin(ang), 0.0, 0.0))
        els.append((0.0, 0.0, math.cos(ang), math.sin(ang)))
    return FiniteQuaternionGroup.from_quaternions(els, name=f"BD{4 * n}")


def builtin_group(name: str) -> FiniteQuaternionGroup:
    """The group a name gives: Z<n>, Q8 or BD<4n> (any letter case, n in
    ASCII digits)."""
    key = name.upper()
    if key == "Q8":
        return quaternion_group_q8()
    rule = re.fullmatch(r"(Z|BD)([0-9]+)", key)
    if rule is None:
        raise ModelError(f"unknown builtin group {name!r}")
    order = int(rule[2])
    if rule[1] == "Z":
        return cyclic_group(order)
    if order % 4:
        raise ModelError("binary dihedral order must be a multiple of 4")
    return binary_dihedral(order // 4)


@dataclass
class VeroneseReport:
    samples: int
    all_members: bool
    collapse_ok: bool
    fiber_counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def veronese_quotient_check(samples, variant: str = "minus",
                            exact: bool = True,
                            fiber_check: int = 0) -> VeroneseReport:
    """Squared sections satisfy the quadric system; +-(a,b) collapse to one section.

    Optionally cross-checks the two-to-one fiber count through the squared
    sections' fiber values.
    """
    from .analysis import evaluate_section, solve_fiber
    from .models import build_quadric, squaring_section
    from .systems import real_section_system

    model = build_quadric(exact=exact)
    system = real_section_system(model)
    failures = []
    all_members = True
    collapse_ok = True
    for a, b in samples:
        sec = squaring_section(a, b, variant, exact=exact)
        rep = system.membership(sec)
        if not rep.passed:
            all_members = False
            failures.append({"sample": str((a, b)), "issue": "membership",
                             "max_residual": rep.max_residual})
        neg = squaring_section(-a, -b, variant, exact=exact)
        same = all(x == y for x, y in zip(sec, neg)) if exact else \
            max(abs(float(x) - float(y)) for x, y in zip(sec, neg)) <= 1e-12
        if not same:
            collapse_ok = False
            failures.append({"sample": str((a, b)), "issue": "collapse"})
    counts = {}
    if fiber_check:
        fmodel = model.float_view()
        for a, b in samples[:fiber_check]:
            af, bf = complex(a), complex(b)
            if abs(af) + abs(bf) < 1e-9:
                continue
            sec = squaring_section(af, bf, variant)
            target = evaluate_section(fmodel, sec, 0j)
            res = solve_fiber(fmodel, None, target)
            counts[str((af, bf))] = len(res.solutions)
    return VeroneseReport(len(samples), all_members, collapse_ok, counts, failures)
