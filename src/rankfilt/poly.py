"""Integer-coefficient graded polynomials and truncated power series in one variable.

A ``Poly`` is a sparse map ``degree -> coefficient``.  ``truncation=None``
means the polynomial is known exactly in every degree; ``truncation=D``
means coefficients are only known for degrees ``<= D`` (power-series mode).
Coefficients are ints: an average over a group sums with class counts and
ends in one :meth:`Poly.divide` by the group order, exact or an error.
"""

from __future__ import annotations

import math


class Poly:
    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs=None, truncation=None):
        cs = {}
        if coeffs:
            for d, c in coeffs.items():
                if c == 0:
                    continue
                if truncation is not None and d > truncation:
                    continue
                cs[int(d)] = c
        self.coeffs = cs
        self.truncation = truncation

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(truncation=None):
        return Poly({}, truncation)

    @staticmethod
    def one(truncation=None):
        return Poly({0: 1}, truncation)

    @staticmethod
    def one_minus(degree):
        """1 - x^degree, exact."""
        return Poly({0: 1, degree: -1})

    @staticmethod
    def geometric(degree, truncation):
        """1/(1 - x^degree) as a series truncated at ``truncation``."""
        if degree <= 0:
            raise ValueError("geometric series needs a positive degree")
        return Poly({d: 1 for d in range(0, truncation + 1, degree)}, truncation)

    @staticmethod
    def from_map(m, truncation=None):
        return Poly({int(d): int(c) for d, c in m.items()}, truncation)

    # -- basic structure ----------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, degree):
        if self.truncation is not None and degree > self.truncation:
            raise KeyError("degree %d beyond truncation %d" % (degree, self.truncation))
        return self.coeffs.get(degree, 0)

    def degree(self):
        """Top degree with a nonzero coefficient, or -1 for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else -1

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _common_truncation(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def __add__(self, other):
        other = _promote(other)
        t = self._common_truncation(self.truncation, other.truncation)
        cs = dict(self.coeffs)
        for d, c in other.coeffs.items():
            cs[d] = cs.get(d, 0) + c
        return Poly(cs, t)

    __radd__ = __add__

    def __neg__(self):
        return Poly({d: -c for d, c in self.coeffs.items()}, self.truncation)

    def __sub__(self, other):
        return self + (-_promote(other))

    def __rsub__(self, other):
        return _promote(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly({d: c * other for d, c in self.coeffs.items()}, self.truncation)
        other = _promote(other)
        t = self._common_truncation(self.truncation, other.truncation)
        cs = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                if t is not None and d > t:
                    continue
                cs[d] = cs.get(d, 0) + c1 * c2
        return Poly(cs, t)

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            other = _promote(other)
        except TypeError:
            return NotImplemented
        return self.coeffs == other.coeffs and self.truncation == other.truncation

    def __hash__(self):
        return hash((frozenset(self.coeffs.items()), self.truncation))

    def substitute_power(self, e):
        """Replace the variable x by x^e (regrades degree d to d*e)."""
        t = None if self.truncation is None else self.truncation * e
        return Poly({d * e: c for d, c in self.coeffs.items()}, t)

    def truncate(self, cutoff):
        t = cutoff if self.truncation is None else min(cutoff, self.truncation)
        return Poly({d: c for d, c in self.coeffs.items() if d <= t}, t)

    def agrees(self, other, through=None):
        """Coefficientwise equality in every degree both sides know about."""
        other = _promote(other)
        limit = self._common_truncation(self.truncation, other.truncation)
        limit = self._common_truncation(limit, through)
        if limit is None:
            return self.coeffs == other.coeffs
        for d in range(limit + 1):
            if self.coeffs.get(d, 0) != other.coeffs.get(d, 0):
                return False
        return True

    # -- shape checks ---------------------------------------------------

    def divide(self, n):
        """Every coefficient divided by the positive integer ``n``;
        ArithmeticError, naming the reduced fraction, on a remainder."""
        cs = {}
        for d, c in self.coeffs.items():
            q, r = divmod(c, n)
            if r:
                g = math.gcd(c, n)
                raise ArithmeticError(
                    "non-integral coefficient %d/%d in degree %d" % (c // g, n // g, d))
            cs[d] = q
        return Poly(cs, self.truncation)

    def is_palindromic(self):
        """P(x) == x^d P(1/x) for d the top degree.  Zero counts as palindromic."""
        if not self.coeffs:
            return True
        d = self.degree()
        return all(self.coeffs.get(i, 0) == self.coeffs.get(d - i, 0) for i in range(d + 1))

    # -- formatting ------------------------------------------------------

    def pretty(self):
        if not self.coeffs:
            return "0"
        terms = []
        for d in sorted(self.coeffs):
            c = self.coeffs[d]
            if d == 0:
                body = str(abs(c))
            else:
                mag = abs(c)
                power = "t" if d == 1 else "t^%d" % d
                body = power if mag == 1 else "%d%s" % (mag, power)
            if not terms:
                terms.append(body if c > 0 else "-" + body)
            else:
                terms.append(("+ " if c > 0 else "- ") + body)
        return " ".join(terms)

    def to_map(self):
        """JSON-friendly map keyed by degree as a string.  The keys are
        inserted in numeric order, but JSON output sorts them as strings
        ("11" before "2")."""
        return {str(d): self.coeffs[d] for d in sorted(self.coeffs)}

    def __repr__(self):
        tail = "" if self.truncation is None else " (through degree %d)" % self.truncation
        return "<Poly %s%s>" % (self.pretty(), tail)


def _promote(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, int):
        return Poly({0: x})
    raise TypeError("cannot interpret %r as a polynomial" % (x,))


def prod(polys, truncation=None):
    acc = Poly.one(truncation)
    for p in polys:
        acc = acc * p
    return acc
