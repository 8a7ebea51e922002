"""Sparse multivariate polynomials over an exact scalar field.

Exponents are plain tuples of non-negative ints.  Coefficient maps never store
zeros and keep the order they were built in: there is no canonical
iteration.  Equality, hashing and printing ignore that order (``to_str``
sorts the terms graded-lex descending), so equal polynomials print and
serialize identically.
"""

from __future__ import annotations

import math

from .errors import RingMismatch
from .scalars import FunctionField, pp_key, pp_scale, terms_to_str


def exp_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def exp_sub_nonneg(a, b):
    """a - b componentwise, or None if any entry would go negative."""
    out = []
    for x, y in zip(a, b):
        d = x - y
        if d < 0:
            return None
        out.append(d)
    return tuple(out)


class SparsePoly:
    """Immutable sparse polynomial with exact scalar coefficients."""

    __slots__ = ("field", "nvars", "coeffs")

    def __init__(self, field, nvars, coeffs):
        clean = {e: c for e, c in coeffs.items() if c}
        for e in clean:
            if len(e) != nvars:
                raise RingMismatch("exponent length does not match variable count")
            if any(x < 0 for x in e):
                raise ValueError("negative exponent")
        self.field = field
        self.nvars = nvars
        self.coeffs = clean

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars, scalar):
        return cls(field, nvars, {(0,) * nvars: scalar})

    @classmethod
    def variable(cls, field, nvars, i):
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(field, nvars, {e: field.one()})

    @classmethod
    def monomial(cls, field, exponent, scalar=None):
        c = field.one() if scalar is None else scalar
        return cls(field, len(exponent), {tuple(exponent): c})

    def _check(self, other):
        if self.nvars != other.nvars or self.field != other.field:
            raise RingMismatch("polynomials live in different rings")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            if e in out:
                s = out[e] + c
                if s:
                    out[e] = s
                else:
                    del out[e]
            else:
                out[e] = c
        return SparsePoly(self.field, self.nvars, out)

    def __neg__(self):
        return SparsePoly(self.field, self.nvars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                e = exp_add(ea, eb)
                if e in out:
                    s = out[e] + ca * cb
                    if s:
                        out[e] = s
                    else:
                        del out[e]
                else:
                    out[e] = ca * cb
        return SparsePoly(self.field, self.nvars, out)

    def scale(self, scalar):
        if not scalar:
            return SparsePoly.zero(self.field, self.nvars)
        return SparsePoly(
            self.field, self.nvars, {e: c * scalar for e, c in self.coeffs.items()}
        )

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = SparsePoly.constant(self.field, self.nvars, self.field.one())
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SparsePoly)
            and other.field == self.field
            and other.nvars == self.nvars
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.coeffs)))

    def __bool__(self):
        return bool(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def support(self):
        return set(self.coeffs)

    def total_degree(self):
        return max((sum(e) for e in self.coeffs), default=-1)

    def min_degree(self):
        return min((sum(e) for e in self.coeffs), default=-1)

    def constant_term(self):
        return self.coeffs.get((0,) * self.nvars, self.field.zero())

    def truncated(self, degree):
        """Terms of total degree <= degree."""
        return SparsePoly(
            self.field,
            self.nvars,
            {e: c for e, c in self.coeffs.items() if sum(e) <= degree},
        )

    def map_coefficients(self, fn, field):
        return SparsePoly(self.field if field is None else field, self.nvars,
                          {e: fn(c) for e, c in self.coeffs.items()})

    def to_str(self, names):
        if not self.coeffs:
            return "0"
        terms = []
        for e in sorted(self.coeffs, key=pp_key, reverse=True):
            cs = self.field.to_str(self.coeffs[e])
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            if cs != "1" and any(e) and ("/" in cs or " " in cs or "+" in cs or "-" in cs):
                cs = f"({cs})"
            terms.append((e, cs, neg))
        return terms_to_str(terms, names)

    def __repr__(self):
        return self.to_str([f"x{i}" for i in range(self.nvars)])


def lift_poly(p, ff):
    """Lift a base-field polynomial into a function field over the same base."""
    if p.field == ff:
        return p
    if p.field != ff.base:
        raise RingMismatch("polynomial base field does not match function field")
    return p.map_coefficients(ff.lift, ff)


def substitute_params(p, assignment):
    """Evaluate each K[t]-coefficient of p at a parameter point.

    ``assignment`` maps parameter names to base-field scalars and must cover
    every parameter of the coefficient field.
    """
    ff = p.field
    if not isinstance(ff, FunctionField):
        raise RingMismatch("polynomial has no parameters to substitute")
    missing = [name for name in ff.params if name not in assignment]
    if missing:
        raise ValueError(f"assignment misses parameters {missing}")
    values = tuple(assignment[name] for name in ff.params)
    base = ff.base
    out = {}
    for e, c in p.coeffs.items():
        v = c.evaluate(values)
        if v:
            out[e] = v
    return SparsePoly(base, p.nvars, out)


def clear_row_denominators(field, cells, ncols):
    """Scale a row of parameter-ring scalars to polynomial (denominator 1) form.

    The row has ncols cells and is given by its nonzero ones, as a
    collection of (column, scalar) pairs.  Returns the tuple of numerator
    ppoly dicts after multiplying the row by the integer lcm of the
    denominators (1 in characteristic p); every zero entry is the row's one
    empty dict.  Kernels and ranks are invariant under this.
    """
    lcm = math.lcm(*(a.den for _, a in cells))
    out = [{}] * ncols
    for k, a in cells:
        out[k] = a.num if a.den == lcm else pp_scale(a.num, lcm // a.den, field.char)
    return tuple(out)
