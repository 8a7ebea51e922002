"""Inverse-monomial dual space and its staircase combinatorics.

A dual term is the exponent alpha of 1/x^(alpha+1); dual elements are finite
scalar combinations of dual terms.  The contraction action is

    x^gamma . 1/x^(beta+1) = 1/x^(beta-gamma+1)   if beta - gamma >= 0,
                             0                    otherwise,

extended bilinearly.  A finite order ideal of exponents (a "staircase") keeps
its point set and the minimal generators of its complement, and nothing
else: membership is a set lookup, and the colon by the maximal ideal adds
the minimal generators, the upper neighbours of points that lie outside
while all their lower neighbours lie inside.  Its corners (pairwise
incomparable maxima) are derived when read.
"""

from __future__ import annotations

from .errors import (
    CapExceeded,
    InternalInconsistency,
    NotZeroDimensional,
    RingMismatch,
    ZeroElement,
)
from .poly import exp_sub_nonneg
from .scalars import pp_key


class DualElement:
    """Finite scalar combination of dual terms, keyed by exponent."""

    __slots__ = ("field", "nvars", "coeffs")

    def __init__(self, field, nvars, coeffs):
        self.field = field
        self.nvars = nvars
        self.coeffs = {e: c for e, c in coeffs.items() if c}

    @classmethod
    def term(cls, field, alpha, scalar=None):
        c = field.one() if scalar is None else scalar
        return cls(field, len(alpha), {tuple(alpha): c})

    def _check(self, other):
        if self.nvars != other.nvars or self.field != other.field:
            raise RingMismatch("dual elements live in different modules")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return DualElement(self.field, self.nvars, out)

    def __neg__(self):
        return DualElement(self.field, self.nvars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        if not scalar:
            return DualElement(self.field, self.nvars, {})
        return DualElement(
            self.field, self.nvars, {e: c * scalar for e, c in self.coeffs.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, DualElement)
            and other.field == self.field
            and other.nvars == self.nvars
            and other.coeffs == self.coeffs
        )

    def __bool__(self):
        return bool(self.coeffs)

    def terms(self):
        return set(self.coeffs)

    def to_pairs(self, order=None):
        """Serialization form: [(exponent list, coefficient string), ...]."""
        keys = sorted(self.coeffs, key=pp_key if order is None else order.key, reverse=True)
        return [(list(e), self.field.to_str(self.coeffs[e])) for e in keys]

    def __repr__(self):
        return " + ".join(
            f"({self.field.to_str(c)})/x^{tuple(x + 1 for x in e)}"
            for e, c in self.coeffs.items()
        ) or "0"


def act(f, eta):
    """Contraction action of a polynomial on a dual element (exact, bilinear)."""
    if isinstance(eta, tuple):
        eta = DualElement.term(f.field, eta)
    if f.nvars != eta.nvars or f.field != eta.field:
        raise RingMismatch("action across different rings")
    out = {}
    for gamma, c in f.coeffs.items():
        for beta, d in eta.coeffs.items():
            rest = exp_sub_nonneg(beta, gamma)
            if rest is None:
                continue
            s = out.get(rest)
            prod = c * d
            if s is None:
                if prod:
                    out[rest] = prod
            else:
                s = s + prod
                if s:
                    out[rest] = s
                else:
                    del out[rest]
    return DualElement(f.field, f.nvars, out)


def leading(eta, order):
    """(leading term, leading coefficient) of a nonzero dual element."""
    if not eta:
        raise ZeroElement("zero element has no leading term")
    lt = max(eta.coeffs, key=order.key)
    return lt, eta.coeffs[lt]


def _below(p, i):
    return p[:i] + (p[i] - 1,) + p[i + 1 :]


def _above(p, i):
    return p[:i] + (p[i] + 1,) + p[i + 1 :]


def _down_closure(tops, known, nvars, limit=None):
    """Points at or below some top that are not in the order ideal known."""
    seen = {t for t in tops if t not in known}
    stack = list(seen)
    while stack:
        p = stack.pop()
        for i in range(nvars):
            if p[i]:
                q = _below(p, i)
                if q not in known and q not in seen:
                    seen.add(q)
                    stack.append(q)
        if limit is not None and len(seen) > limit:
            raise CapExceeded("staircase size", limit)
    return seen


def _outer_border(points, members, nvars):
    """Upper neighbours of points that lie outside members while all their
    lower neighbours lie inside."""
    out = set()
    for p in points:
        for i in range(nvars):
            q = _above(p, i)
            if q not in members and q not in out and all(
                _below(q, j) in members for j in range(nvars) if q[j]
            ):
                out.add(q)
    return out


class Staircase:
    """A finite order ideal of Z_{>=0}^n: its point set, enumerated on first
    use from the corners it was given, and the frozenset of minimal
    generators of the complement.  ``extended`` carries both over to a
    larger staircase, enumerating only the new points; the corners are
    derived when read.
    """

    __slots__ = ("nvars", "_tops", "_members", "_min_gens")

    def __init__(self, nvars, corners=()):
        self.nvars = nvars
        self._tops = {tuple(c) for c in corners}
        self._members = None
        self._min_gens = None

    @classmethod
    def _made(cls, nvars, members, min_gens):
        st = cls(nvars)
        st._members = members
        st._min_gens = min_gens
        return st

    def members(self, limit=None):
        """The set of points.  Raises CapExceeded past limit."""
        if self._members is None:
            self._members = frozenset(
                _down_closure(self._tops, frozenset(), self.nvars, limit)
            )
        if limit is not None and len(self._members) > limit:
            raise CapExceeded("staircase size", limit)
        return self._members

    @property
    def corners(self):
        """The points with no upper neighbour inside."""
        members = self.members()
        return frozenset(
            p
            for p in members
            if all(_above(p, i) not in members for i in range(self.nvars))
        )

    def contains(self, beta):
        return tuple(beta) in self.members()

    def with_corner(self, beta):
        return self.extended([tuple(beta)])

    def extended(self, terms):
        """The staircase spanned by this one and the given terms.

        A minimal generator stays one unless it became a point; new ones are
        upper neighbours of new points.
        """
        n = self.nvars
        old = self.members()
        new = _down_closure(terms, old, n)
        if not new:
            return self
        members = old | new
        gens = (self.min_generators() - new) | _outer_border(new, members, n)
        return Staircase._made(n, members, gens)

    def size(self, limit=None):
        return len(self.members(limit))

    def min_generators(self):
        """Minimal monomial generators of the complementary monomial ideal,
        as a frozenset.

        A nonzero minimal generator lies outside while each of its lower
        neighbours lies inside, so it is an upper neighbour of some point.
        """
        if self._min_gens is None:
            members = self.members()
            if members:
                gens = _outer_border(members, members, self.nvars)
            else:
                gens = {(0,) * self.nvars}
            self._min_gens = frozenset(gens)
        return self._min_gens

    def __eq__(self, other):
        return (
            isinstance(other, Staircase)
            and other.nvars == self.nvars
            and other.members() == self.members()
        )

    def __hash__(self):
        return hash((self.nvars, self.members()))

    def __repr__(self):
        return f"Staircase({sorted(self.corners)})"


def initial_staircase(supports, nvars, max_size=None):
    """Standard-monomial staircase of the monomial ideal spanned by supports.

    ``supports`` is an iterable of exponent sets (one per generator).  Returns
    (staircase, points) where points is the full dual-term enumeration.
    Raises NotZeroDimensional when some variable has no pure-power bound.
    """
    gens = set()
    for sup in supports:
        gens.update(tuple(e) for e in sup)
    zero = (0,) * nvars
    if zero in gens:
        return Staircase(nvars), []
    bounds = []
    for i in range(nvars):
        pure = [g[i] for g in gens if g[i] and g.count(0) == nvars - 1]
        if not pure:
            raise NotZeroDimensional(i)
        bounds.append(min(pure))
    # the staircase contains every axis point below its pure-power bound
    if max_size is not None and any(b > max_size for b in bounds):
        raise CapExceeded("staircase size", max_size)
    # walk up from the origin one degree at a time.  A point is reached once
    # from each lower neighbour inside; reached from all of them, it lies
    # outside exactly when it is a generator, and then a minimal one
    pts = []
    min_gens = []
    level = [zero]
    while level:
        pts.extend(level)
        if max_size is not None and len(pts) > max_size:
            raise CapExceeded("staircase size", max_size)
        reached = {}
        for p in level:
            for i in range(nvars):
                q = p[:i] + (p[i] + 1,) + p[i + 1 :]
                reached[q] = reached.get(q, 0) + 1
        nxt = []
        for q, k in reached.items():
            if k == nvars - q.count(0):
                (min_gens if q in gens else nxt).append(q)
        level = sorted(nxt)
    return Staircase._made(nvars, frozenset(pts), frozenset(min_gens)), pts


def socle_candidates(st):
    """Dual terms of the minimal generators of the staircase's monomial ideal.

    Exactly the terms of (N :_E m) \\ N when N is the staircase's term module.
    """
    return st.min_generators()


def span_of_terms(elements, nvars=None):
    """Smallest staircase containing every term appearing in the elements."""
    exps = set()
    for eta in elements:
        nvars = eta.nvars
        exps.update(eta.coeffs)
    if nvars is None:
        raise ValueError("cannot infer variable count from an empty family")
    return Staircase(nvars, exps)


def gamma_candidates(t2, ltn, order, tau0, limit=None, key=None):
    """Dual terms in (T2 :_E m) outside LT(N) and strictly below tau0, descending.

    The colon of a term module adds exactly the minimal generators of the
    complementary monomial ideal to the staircase itself.  ``key`` stands in
    for ``order.key``: a run passes its memoized one.
    """
    lt_members = ltn.members(limit)
    if tau0 in lt_members:
        raise InternalInconsistency("tau0 must lie outside the LT staircase")
    key = key or order.key
    k0 = key(tau0)
    out = [
        p
        for part in (t2.members(limit), t2.min_generators())
        for p in part
        if p not in lt_members and key(p) < k0
    ]
    out.sort(key=key, reverse=True)
    return out
