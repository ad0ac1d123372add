"""Sparse multivariate polynomials over a scalar domain.

Terms live in a dict keyed by exponent tuples.  Coefficients may be float,
complex, Fraction or GaussianRational; the arithmetic only needs ring
operations, so one class serves both backends.
"""

from __future__ import annotations

from operator import add

from .scalars import negligible


class MPoly:
    """Polynomial in ``nvars`` real variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for exps, c in terms.items():
                if c != 0:
                    self.terms[tuple(exps)] = self.terms.get(tuple(exps), 0) + c
            self._prune()

    def _prune(self):
        dead = [e for e, c in self.terms.items() if c == 0]
        for e in dead:
            del self.terms[e]

    @staticmethod
    def const(nvars: int, c) -> "MPoly":
        return MPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def linear(nvars: int, coeffs, const=0) -> "MPoly":
        """sum coeffs[i] * x_i + const"""
        terms = {}
        for i, c in enumerate(coeffs):
            if c != 0:
                e = [0] * nvars
                e[i] = 1
                terms[tuple(e)] = c
        if const != 0:
            terms[(0,) * nvars] = const
        return MPoly(nvars, terms)

    def __add__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(self.nvars, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                s = out[e] + c
                if s != 0:
                    out[e] = s
                else:
                    del out[e]
            else:
                out[e] = c
        return _mpoly(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, MPoly) else MPoly.const(self.nvars, -other))

    def __neg__(self):
        return _mpoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            return _mpoly(self.nvars, _nonzero(
                {e: c * other for e, c in self.terms.items()}))
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                t = c1 * c2
                out[e] = out[e] + t if e in out else t
        return _mpoly(self.nvars, _nonzero(out))

    def __rmul__(self, other):
        return self * other

    def evaluate(self, vals):
        acc = 0
        for e, c in self.terms.items():
            t = c
            for i, p in enumerate(e):
                if p:
                    v = vals[i]
                    for _ in range(p):
                        t = t * v
            acc = acc + t
        return acc

    def map_coeffs(self, fn) -> "MPoly":
        return MPoly(self.nvars, {e: fn(c) for e, c in self.terms.items()})

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(negligible(c, tol) for c in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        if self.nvars != other.nvars or set(self.terms) != set(other.terms):
            return False
        return all(self.terms[e] == other.terms[e] for e in self.terms)

    def __repr__(self):
        if not self.terms:
            return "MPoly(0)"
        bits = []
        for e in sorted(self.terms):
            mono = "*".join(f"p{i}^{p}" if p > 1 else f"p{i}"
                            for i, p in enumerate(e) if p)
            c = self.terms[e]
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "MPoly(" + " + ".join(bits) + ")"


def _nonzero(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c != 0}


def _mpoly(nvars: int, terms: dict) -> MPoly:
    """MPoly over ``terms`` as given: tuple exponents, no zero coefficient."""
    poly = object.__new__(MPoly)
    poly.nvars = nvars
    poly.terms = terms
    return poly
