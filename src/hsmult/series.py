"""Truncatable power-series generators.

Three flavours cover everything the engine accepts: plain polynomials,
rational expansions p/q with q(0) invertible, and scalar linear combinations
of other oracles (used for the generic parameter combinations).  The one
contract that matters downstream: truncations are consistent, i.e. the
degree-<=D part of ``truncate(D')`` equals ``truncate(D)`` for D <= D'.
"""

from __future__ import annotations

from .errors import NonUnitDenominator
from .poly import SparsePoly


class SeriesOracle:
    """Base class; subclasses provide exact truncations by total degree."""

    field = None
    nvars = None

    def truncate(self, degree):
        raise NotImplementedError

    def support_upto(self, degree):
        return self.truncate(degree).support()

    def is_polynomial(self):
        return False


class PolySeries(SeriesOracle):
    """A polynomial viewed as a (finite) series."""

    def __init__(self, poly):
        self.poly = poly
        self.field = poly.field
        self.nvars = poly.nvars

    def truncate(self, degree):
        if degree < 0:
            raise ValueError("truncation degree must be >= 0")
        return self.poly.truncated(degree)

    def is_polynomial(self):
        return True

    def exact_poly(self):
        return self.poly

    def __eq__(self, other):
        return isinstance(other, PolySeries) and other.poly == self.poly

    def __hash__(self):
        return hash(("PolySeries", self.poly))


class RationalSeries(SeriesOracle):
    """The power-series expansion of p/q, where q has a unit constant term."""

    def __init__(self, num, den):
        num._check(den)
        if not den.constant_term():
            raise NonUnitDenominator(
                "denominator has no invertible constant term; not expandable"
            )
        self.num = num
        self.den = den
        self.field = num.field
        self.nvars = num.nvars
        self._parts = []  # homogeneous components of the expansion, by degree

    def _extend(self, degree):
        # out_k = (num_k - sum_{j=1..k} den_j * out_{k-j}) / den_0
        c0 = self.den.constant_term()
        field, n = self.field, self.nvars
        den_parts = {}
        for e, c in self.den.coeffs.items():
            d = sum(e)
            den_parts.setdefault(d, {})[e] = c
        num_parts = {}
        for e, c in self.num.coeffs.items():
            num_parts.setdefault(sum(e), {})[e] = c
        while len(self._parts) <= degree:
            k = len(self._parts)
            acc = SparsePoly(field, n, num_parts.get(k, {}))
            for j, dj in den_parts.items():
                if 0 < j <= k:
                    acc = acc - SparsePoly(field, n, dj) * self._parts[k - j]
            self._parts.append(acc.scale(field.one() / c0))

    def truncate(self, degree):
        if degree < 0:
            raise ValueError("truncation degree must be >= 0")
        self._extend(degree)
        parts = self._parts[: degree + 1]
        total = SparsePoly.zero(self.field, self.nvars)
        for part in parts:
            total = total + part
        return total

    def __eq__(self, other):
        return (
            isinstance(other, RationalSeries)
            and other.num == self.num
            and other.den == self.den
        )

    def __hash__(self):
        return hash(("RationalSeries", self.num, self.den))


def as_oracle(gen):
    """Wrap a SparsePoly as an oracle; pass oracles through."""
    if isinstance(gen, SeriesOracle):
        return gen
    return PolySeries(gen)


class LinearCombination(SeriesOracle):
    """sum_i scalar_i * lift(oracle_i), truncation-by-truncation."""

    def __init__(self, field, terms):
        self.field = field
        self.terms = tuple(terms)
        self.nvars = self.terms[0][1].nvars

    def truncate(self, degree):
        from .poly import lift_poly

        total = SparsePoly.zero(self.field, self.nvars)
        for scalar, oracle in self.terms:
            part = oracle.truncate(degree)
            if part.field != self.field:
                part = lift_poly(part, self.field)
            total = total + part.scale(scalar)
        return total

    def is_polynomial(self):
        return all(o.is_polynomial() for _, o in self.terms)

    def exact_poly(self):
        from .poly import lift_poly

        total = SparsePoly.zero(self.field, self.nvars)
        for scalar, oracle in self.terms:
            part = oracle.exact_poly()
            if part.field != self.field:
                part = lift_poly(part, self.field)
            total = total + part.scale(scalar)
        return total


def truncate(oracle, degree):
    """Sum of all series terms of total degree <= degree."""
    return as_oracle(oracle).truncate(degree)
