"""Monomial orders on exponent vectors (and hence on inverse-monomial terms).

A term 1/x^(a+1) of the dual module compares exactly as the monomial x^a does,
so one order type serves both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RingMismatch

ORDER_KINDS = ("glex", "grevlex", "lex")


@dataclass(frozen=True)
class MonomialOrder:
    """A term order: graded lex, graded reverse lex, or pure lex.

    ``precedence`` lists variable indices from the most significant to the
    least; ``None`` means the ambient order of the variables.
    """

    kind: str = "glex"
    precedence: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ORDER_KINDS:
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.precedence is not None:
            p = tuple(self.precedence)
            if sorted(p) != list(range(len(p))):
                raise ValueError("precedence must be a permutation of 0..n-1")
            object.__setattr__(self, "precedence", p)

    def _prec(self, n):
        if self.precedence is None:
            return range(n)
        if len(self.precedence) != n:
            raise RingMismatch("precedence length does not match exponent length")
        return self.precedence

    def key(self, alpha):
        """Sort key: ascending in this order."""
        prec = self._prec(len(alpha))
        if self.kind == "lex":
            return tuple(alpha[i] for i in prec)
        if self.kind == "glex":
            return (sum(alpha), tuple(alpha[i] for i in prec))
        # grevlex: higher degree wins; ties broken by the *last* variable in
        # precedence having the smaller exponent.
        return (sum(alpha), tuple(-alpha[i] for i in reversed(list(prec))))

    def compare(self, a, b):
        """Total order: -1 if a < b, 0 if equal, +1 if a > b."""
        if len(a) != len(b):
            raise RingMismatch("exponent length mismatch")
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)

    def min(self, exps):
        return min(exps, key=self.key)
