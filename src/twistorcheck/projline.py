"""Polynomial algebra on the projective line.

Sections of O(k) are polynomials of degree <= k in the standard affine
coordinate; in the other chart a section evaluates as
``s~(w) = w^k * s(1/w)``.  The antipodal map is ``z -> -1/conj(z)`` and the
induced pullback on sections is

    (tau s)(z) = sign * z^k * conj(s(-1/conj(z)))

whose coefficient form is ``(tau s)_j = sign * (-1)^(k-j) * conj(s_{k-j})``.
Real (antipodally invariant) sections are the tau-fixed ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegreeError, NonInvolutiveError
from .exactla import exact_rank, numerical_rank
from .scalars import abs2, make_complex, negligible

STD = "std"
INF = "inf"


@dataclass(frozen=True)
class P1Point:
    """Point of P^1 as an affine coordinate in one of two charts."""

    chart: str
    value: object  # complex or GaussianRational

    @staticmethod
    def std(z) -> "P1Point":
        return P1Point(STD, z)

    @staticmethod
    def inf(w) -> "P1Point":
        return P1Point(INF, w)

    def antipodal(self) -> "P1Point":
        """Antipodal image; never divides, just swaps chart."""
        other = INF if self.chart == STD else STD
        return P1Point(other, -self.value.conjugate())

    def canonical(self) -> "P1Point":
        """Representative with |value| <= 1 (prefers the current chart on ties)."""
        if abs2(self.value) > 1:
            other = INF if self.chart == STD else STD
            return P1Point(other, 1 / self.value)
        return self

    def same_point(self, other: "P1Point", tol: float = 1e-12) -> bool:
        a, b = self.canonical(), other.canonical()
        av, bv = complex(a.value), complex(b.value)
        if a.chart == b.chart:
            return abs(av - bv) <= tol
        if abs(av) < 1e-30 or abs(bv) < 1e-30:
            return False
        return abs(av - 1 / bv) <= tol


def as_p1(zeta) -> P1Point:
    """Coerce a complex number or P1Point to a canonical P1Point."""
    if isinstance(zeta, P1Point):
        return zeta.canonical()
    return P1Point.std(zeta).canonical()


class CoeffPoly:
    """Coefficient vector of a section of O(k); coefficient of z^j at index j."""

    __slots__ = ("degree_bound", "coeffs")

    def __init__(self, degree_bound: int, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) > degree_bound + 1:
            for extra in coeffs[degree_bound + 1:]:
                if extra != 0:
                    raise DegreeError(
                        f"coefficients exceed degree bound {degree_bound}")
            coeffs = coeffs[:degree_bound + 1]
        while len(coeffs) < degree_bound + 1:
            coeffs.append(0)
        self.degree_bound = degree_bound
        self.coeffs = coeffs

    @staticmethod
    def zero(degree_bound: int) -> "CoeffPoly":
        return CoeffPoly(degree_bound, [0] * (degree_bound + 1))

    @staticmethod
    def const(degree_bound: int, c) -> "CoeffPoly":
        return CoeffPoly(degree_bound, [c] + [0] * degree_bound)

    def eval_std(self, z):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def eval_inf(self, w):
        acc = 0
        for c in self.coeffs:
            acc = acc * w + c
        return acc

    def eval_point(self, p: P1Point):
        return self.eval_std(p.value) if p.chart == STD else self.eval_inf(p.value)

    def __add__(self, other: "CoeffPoly") -> "CoeffPoly":
        k = max(self.degree_bound, other.degree_bound)
        a = self.coeffs + [0] * (k + 1 - len(self.coeffs))
        b = other.coeffs + [0] * (k + 1 - len(other.coeffs))
        return CoeffPoly(k, [x + y for x, y in zip(a, b)])

    def __sub__(self, other: "CoeffPoly") -> "CoeffPoly":
        return self + (-other)

    def __neg__(self) -> "CoeffPoly":
        return CoeffPoly(self.degree_bound, [-c for c in self.coeffs])

    def __mul__(self, other: "CoeffPoly") -> "CoeffPoly":
        k = self.degree_bound + other.degree_bound
        out = [0] * (k + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return CoeffPoly(k, out)

    def scale(self, c) -> "CoeffPoly":
        return CoeffPoly(self.degree_bound, [c * a for a in self.coeffs])

    def with_bound(self, k: int) -> "CoeffPoly":
        return CoeffPoly(k, list(self.coeffs))

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(negligible(c, tol) for c in self.coeffs)

    def trimmed(self, tol: float = 0.0):
        """Coefficients with the zero tail removed (honest degree view)."""
        cs = list(self.coeffs)
        while len(cs) > 1 and negligible(cs[-1], tol):
            cs.pop()
        return cs

    def to_float(self) -> "CoeffPoly":
        return CoeffPoly(self.degree_bound, [complex(c) for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        if self.degree_bound != other.degree_bound:
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self):
        return f"CoeffPoly({self.degree_bound}, {self.coeffs})"


@dataclass(frozen=True)
class SigmaCoordRule:
    """Antiholomorphic coordinate rule: (tau u)_i = sign * z^twist * conj(u_partner(-1/conj(z)))."""

    partner: int
    sign: int
    twist: int


def tau_pullback(s: CoeffPoly, rule: SigmaCoordRule) -> CoeffPoly:
    """Pullback of a section under the antipodal map, per the rule."""
    k = rule.twist
    if s.degree_bound != k:
        raise DegreeError(f"degree bound {s.degree_bound} != rule twist {k}")
    out = []
    for j in range(k + 1):
        c = s.coeffs[k - j].conjugate()
        if (k - j) % 2:
            c = -c
        out.append(c * rule.sign)
    return CoeffPoly(k, out)


def check_bundle_degrees(degrees):
    """Refuse a negative bundle degree, which has no sections; raises DegreeError."""
    for k in degrees:
        if k < 0:
            raise DegreeError(f"bundle degree {k} is negative")


def check_rule_parity(degrees, rules):
    """Validate that the rules define an involution; raises NonInvolutiveError."""
    n = len(degrees)
    if len(rules) != n:
        raise NonInvolutiveError("one rule per coordinate required")
    for i, rule in enumerate(rules):
        j = rule.partner
        if not (0 <= j < n):
            raise NonInvolutiveError(f"rule {i} points outside the coordinate range")
        if rules[j].partner != i:
            raise NonInvolutiveError(f"coordinate pairing {i}<->{j} is not involutive")
        if degrees[i] != degrees[j]:
            raise NonInvolutiveError(
                f"paired coordinates {i},{j} have different degrees")
        if rule.twist != degrees[i]:
            raise NonInvolutiveError(
                f"rule twist {rule.twist} differs from bundle degree {degrees[i]}")
        if rule.sign not in (1, -1):
            raise NonInvolutiveError("rule sign must be +1 or -1")
        parity = (-1) ** degrees[i] * rule.sign * rules[j].sign
        if parity != 1:
            if i == j:
                raise NonInvolutiveError(
                    f"self-paired coordinate {i} of odd degree {degrees[i]}")
            raise NonInvolutiveError(
                f"pair {i}<->{j} violates the sign parity (-1)^k*s_i*s_j = 1")


class SectionBasis:
    """Real basis of the tau-fixed subspace with its embedding into coefficients.

    Parameters are ordered orbit by orbit: for a swapped pair the lead
    coordinate contributes re/im of every coefficient; for a self-paired
    coordinate the low coefficients contribute re/im and the middle one a
    single real parameter.
    """

    def __init__(self, degrees, rules, names=None, exact: bool = False):
        check_bundle_degrees(degrees)
        check_rule_parity(degrees, rules)
        self.degrees = tuple(degrees)
        self.rules = tuple(rules)
        self.exact = exact
        self.coordinates = tuple(names) if names else tuple(
            f"u{i}" for i in range(len(degrees)))
        # slots[i][m] = list of (param_index, unit complex factor)
        self.slots = [[None] * (k + 1) for k in degrees]
        self.param_names = []
        seen = set()
        unit = lambda re, im: make_complex(re, im, exact)
        for i, k in enumerate(degrees):
            if i in seen:
                continue
            j = rules[i].partner
            seen.update({i, j})
            if i == j:
                half = k // 2
                for m in range(half):
                    self._add_complex_param(i, m, unit)
                # middle coefficient: real or purely imaginary depending on parity
                factor_real = rules[i].sign * ((-1) ** half) == 1
                p = len(self.param_names)
                self.param_names.append(f"{self.coordinates[i]}{half}")
                self.slots[i][half] = [(p, unit(1, 0) if factor_real else unit(0, 1))]
                for m in range(half + 1, k + 1):
                    self._mirror(i, i, m, rules[i].sign, k)
            else:
                lead, dep = (i, j) if i < j else (j, i)
                for m in range(k + 1):
                    self._add_complex_param(lead, m, unit)
                for m in range(k + 1):
                    self._mirror(dep, lead, m, rules[dep].sign, k)
        self.nparams = len(self.param_names)
        self._float_cache = None

    def _add_complex_param(self, i, m, unit):
        p = len(self.param_names)
        self.param_names.append(f"{self.coordinates[i]}{m}.re")
        self.param_names.append(f"{self.coordinates[i]}{m}.im")
        self.slots[i][m] = [(p, unit(1, 0)), (p + 1, unit(0, 1))]

    def _mirror(self, i, src, m, sign, k):
        # u_{i,m} = sign * (-1)^(k-m) * conj(u_{src,k-m})
        factor = sign * ((-1) ** (k - m))
        out = []
        for p, unit_c in self.slots[src][k - m]:
            out.append((p, unit_c.conjugate() * factor))
        self.slots[i][m] = out

    def embed(self, params):
        """Parameter vector -> tuple of CoeffPoly, one per coordinate."""
        if len(params) != self.nparams:
            raise DegreeError(
                f"expected {self.nparams} parameters, got {len(params)}")
        polys = []
        for i, k in enumerate(self.degrees):
            coeffs = []
            for m in range(k + 1):
                acc = 0
                for p, c in self.slots[i][m]:
                    acc = acc + c * params[p]
                coeffs.append(acc)
            polys.append(CoeffPoly(k, coeffs))
        return tuple(polys)

    def complex_matrices(self):
        """Per-coordinate complex embedding matrices (numpy, float mode)."""
        if self._float_cache is None:
            mats = []
            for i, k in enumerate(self.degrees):
                m = np.zeros((k + 1, self.nparams), dtype=complex)
                for row in range(k + 1):
                    for p, c in self.slots[i][row]:
                        m[row, p] += complex(c)
                mats.append(m)
            self._float_cache = mats
        return self._float_cache

    def describe(self):
        """Human-readable section forms, coordinate by coordinate."""
        lines = []
        for i, k in enumerate(self.degrees):
            terms = []
            for m in range(k + 1):
                parts = []
                for p, c in self.slots[i][m]:
                    cc = complex(c)
                    name = self.param_names[p].replace(".re", "'").replace(".im", "''")
                    if cc == 1:
                        parts.append(name)
                    elif cc == -1:
                        parts.append(f"-{name}")
                    elif cc == 1j:
                        parts.append(f"i*{name}")
                    elif cc == -1j:
                        parts.append(f"-i*{name}")
                    else:
                        parts.append(f"({cc})*{name}")
                term = " + ".join(parts).replace("+ -", "- ")
                if m:
                    term = f"({term})*zeta^{m}" if len(parts) > 1 else f"{term}*zeta^{m}"
                elif len(parts) > 1:
                    term = f"({term})"
                terms.append(term)
            lines.append(f"{self.coordinates[i]}(zeta) = " + " + ".join(terms))
        return lines


def reality_fixed_space(degrees, rules, names=None, exact: bool = False) -> SectionBasis:
    """Real basis of the tau-fixed subspace of the coefficient space."""
    return SectionBasis(degrees, rules, names=names, exact=exact)


@dataclass(frozen=True)
class SplittingType:
    """Multiset of degrees of a direct sum of line bundles, sorted descending."""

    degrees: tuple

    def __init__(self, degrees):
        object.__setattr__(self, "degrees", tuple(sorted(degrees, reverse=True)))

    def h0(self, m: int = 0) -> int:
        return sum(max(0, c + m + 1) for c in self.degrees)

    @property
    def rank(self) -> int:
        return len(self.degrees)

    def __str__(self):
        return "{" + ", ".join(str(c) for c in self.degrees) + "}"


_GENERIC_EVAL_POINTS = [0.7 + 0.31j, -0.43 + 0.85j, 1.9 - 0.3j]
_GENERIC_EXACT_POINTS = [Fraction(2), Fraction(1, 3), Fraction(-3, 5)]


def _entry_matrix(entries, source_degrees, target_degrees):
    """Normalize optional entries into CoeffPoly with the exact degree bounds."""
    nt, ns = len(target_degrees), len(source_degrees)
    if len(entries) != nt:
        raise DegreeError("row count differs from target count")
    out = []
    for j in range(nt):
        if len(entries[j]) != ns:
            raise DegreeError("column count differs from source count")
        row = []
        for i in range(ns):
            bound = target_degrees[j] - source_degrees[i]
            e = entries[j][i]
            if e is None:
                e = CoeffPoly.zero(max(bound, 0))
            if not isinstance(e, CoeffPoly):
                e = CoeffPoly(bound if bound >= 0 else 0, list(e))
            if bound < 0:
                if not e.is_zero():
                    raise DegreeError(
                        f"entry ({j},{i}) must vanish: negative twist {bound}")
                row.append(None)
                continue
            if e.degree_bound > bound:
                trimmed = e.trimmed()
                if len(trimmed) - 1 > bound:
                    raise DegreeError(
                        f"entry ({j},{i}) exceeds degree bound {bound}")
                e = CoeffPoly(bound, trimmed)
            elif e.degree_bound < bound:
                e = e.with_bound(bound)
            row.append(e)
        out.append(row)
    return out


def _nullity_at_twist(mat, source_degrees, target_degrees, m, exact, rank_rtol):
    cols = [max(0, k + m + 1) for k in source_degrees]
    rows = [max(0, d + m + 1) for d in target_degrees]
    ncols = sum(cols)
    nrows = sum(rows)
    if ncols == 0:
        return 0
    if nrows == 0:
        return ncols
    big = [[0] * ncols for _ in range(nrows)]
    col0 = 0
    for i, k in enumerate(source_degrees):
        row0 = 0
        for j, d in enumerate(target_degrees):
            entry = mat[j][i]
            if entry is not None and cols[i]:
                for cpow in range(cols[i]):
                    for epow, coeff in enumerate(entry.coeffs):
                        if coeff == 0:
                            continue
                        r = cpow + epow
                        if r >= rows[j]:
                            continue
                        big[row0 + r][col0 + cpow] += coeff
            row0 += rows[j]
        col0 += cols[i]
    return ncols - _rank(big, exact, rank_rtol)


def _rank(rows, exact, rank_rtol):
    if exact:
        return exact_rank(rows)
    svals = np.linalg.svd(np.array(rows, dtype=complex), compute_uv=False)
    return numerical_rank(svals, rank_rtol)


def kernel_splitting(entries, source_degrees, target_degrees,
                     exact: bool = False, rank_rtol: float = 1e-7) -> SplittingType:
    """Splitting type of the kernel subsheaf of a polynomial matrix.

    The matrix maps (+)O(source_i) -> (+)O(target_j); ``entries[j][i]`` is a
    CoeffPoly of degree bound ``target_j - source_i`` (or None/zero).  Section
    counts of kernel twists are computed per twist and decoded into degrees
    from the step function of their differences; ``exact`` computes every
    rank exactly, for entries with rational coefficients.
    """
    source_degrees = list(source_degrees)
    target_degrees = list(target_degrees)
    mat = _entry_matrix(entries, source_degrees, target_degrees)
    nsrc = len(source_degrees)
    # generic rank of the evaluated matrix fixes the kernel rank
    grank = 0
    if target_degrees:
        points = _GENERIC_EXACT_POINTS if exact else _GENERIC_EVAL_POINTS
        for z in points:
            rows = [[e.eval_std(z) if e is not None else 0 for e in row]
                    for row in mat]
            grank = max(grank, _rank(rows, exact, rank_rtol))
    kernel_rank = nsrc - grank
    if kernel_rank == 0:
        return SplittingType(())
    m = -max(source_degrees) - 1
    d_prev = 0
    delta_prev = 0
    degrees = []
    safety = max(source_degrees) + 3
    while m <= safety:
        d = _nullity_at_twist(mat, source_degrees, target_degrees, m, exact, rank_rtol)
        delta = d - d_prev
        if delta < delta_prev:
            raise DegreeError("section counts are not concave; inconsistent matrix data")
        degrees.extend([-m] * (delta - delta_prev))
        if delta == kernel_rank:
            d2 = _nullity_at_twist(mat, source_degrees, target_degrees, m + 1,
                                   exact, rank_rtol)
            if d2 - d != kernel_rank:
                raise DegreeError("kernel growth failed the affinity confirmation")
            return SplittingType(degrees)
        d_prev, delta_prev = d, delta
        m += 1
    raise DegreeError("splitting scan did not terminate; inconsistent degree data")
