"""Sparse multivariate polynomials over a scalar domain.

Terms live in a dict keyed by exponent tuples.  Coefficients may be float,
complex, Fraction or GaussianRational; the arithmetic only needs ring
operations, so one class serves both backends.
"""

from __future__ import annotations

from .scalars import imag_of, is_exact, real_of


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
    def zero(nvars: int) -> "MPoly":
        return MPoly(nvars)

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
            out[e] = out.get(e, 0) + c
        return MPoly(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, MPoly) else MPoly.const(self.nvars, -other))

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            return MPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MPoly(self.nvars, out)

    def __rmul__(self, other):
        return self * other

    def diff(self, i: int) -> "MPoly":
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = out.get(tuple(e2), 0) + c * e[i]
        return MPoly(self.nvars, out)

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

    def split_real_imag(self):
        """(real part, imaginary part) of a complex-coefficient polynomial."""
        re = {e: real_of(c) for e, c in self.terms.items()}
        im = {e: imag_of(c) for e, c in self.terms.items()}
        return MPoly(self.nvars, re), MPoly(self.nvars, im)

    def is_zero(self, tol: float = 0.0) -> bool:
        for c in self.terms.values():
            if is_exact(c):
                if c != 0:
                    return False
            elif abs(c) > tol:
                return False
        return True

    def normalized_sign(self) -> "MPoly":
        """Scale by -1 if the coefficient of the smallest exponent is negative."""
        if not self.terms:
            return self
        lead = self.terms[min(self.terms)]
        s = real_of(lead)
        if s < 0 or (s == 0 and imag_of(lead) < 0):
            return -self
        return self

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
