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

Staircases hold packed terms, the ints of one ``Terms`` layout.  With n
variables and a field width w, a term alpha is

    |alpha| << n(w + 1)  +  sum over k of alpha[prec[k]] << (n - 1 - k)(w + 1),

prec the order's precedence, most significant first: the total degree in
the top field, unbounded, and below it one field of w bits per variable,
each with a guard bit above it (G, the mask of the guard bits, is
``Terms.guards``).  So the int order is glex (degree, then the exponents in
precedence order), a neighbour alpha +- e_i is alpha plus or minus the unit
of x_i (1 in its field and in the degree: ``Terms.steps``), and e divides
tau exactly when D = (tau | G) - e has D & G == G: each field subtracts into
its own guard bit, which stays set iff that field of e is at most tau's,
and then tau - e is D ^ G.  The width is set
once per run, from its caps and its generators' largest exponent, so that
every term the run meets fits (``matlis.run_terms``).  Exponent tuples come
back only at the edges: ``DualElement`` keys, and what a run returns.
"""

from __future__ import annotations

from operator import lshift

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


def _down_closure(tops, known, terms, limit=None):
    """Points at or below some top that are not in the order ideal known."""
    steps = terms.steps
    seen = {t for t in tops if t not in known}
    stack = list(seen)
    while stack:
        p = stack.pop()
        for unit, field in steps:
            if p & field:
                q = p - unit
                if q not in known and q not in seen:
                    seen.add(q)
                    stack.append(q)
        if limit is not None and len(seen) > limit:
            raise CapExceeded("staircase size", limit)
    return seen


def _outer_border(points, members, terms):
    """Upper neighbours of points that lie outside members while all their
    lower neighbours lie inside."""
    steps = terms.steps
    out = set()
    for p in points:
        for unit, _ in steps:
            q = p + unit
            if q in members or q in out:
                continue
            for u, field in steps:
                if q & field and q - u not in members:
                    break
            else:
                out.add(q)
    return out


class Terms:
    """The packed layout of the dual terms of one run (see the module
    docstring): n fields of ``width`` bits, each able to hold every exponent
    up to ``top``, in the precedence of ``order``.

    ``steps`` pairs each variable's unit with the mask of its field, in the
    ambient variable order, and ``ones`` is 1 in every variable field:
    (p | G) - ones keeps the guard bits of exactly the positive fields of p.
    ``int_order`` tells whether the int order is the order (glex); else
    ``order_key`` is its sort key on packed terms.  Layouts compare equal,
    and hash alike, when they pack every term alike: the same nvars, order
    and width.
    """

    __slots__ = (
        "nvars", "order", "top", "width", "guards", "ones", "steps", "int_order",
        "_shifts", "_degree", "_ambient",
    )

    def __init__(self, nvars, order, top):
        self.nvars = nvars
        self.order = order
        self.top = top
        w = self.width = max(top.bit_length(), 1)
        prec = tuple(order._prec(nvars))
        rank = {v: k for k, v in enumerate(prec)}
        self._shifts = shifts = tuple((nvars - 1 - rank[i]) * (w + 1) for i in range(nvars))
        self._degree = nvars * (w + 1)
        self._ambient = prec == tuple(range(nvars))
        self.guards = sum(1 << (s + w) for s in shifts)
        self.ones = sum(1 << s for s in shifts)
        degree = 1 << self._degree
        self.steps = tuple((degree + (1 << s), ((1 << w) - 1) << s) for s in shifts)
        self.int_order = order.kind == "glex"

    def __eq__(self, other):
        return isinstance(other, Terms) and (
            (self.nvars, self.order, self.width) == (other.nvars, other.order, other.width)
        )

    def __hash__(self):
        return hash((self.nvars, self.order, self.width))

    def pack(self, alpha):
        """The packed term of an exponent vector, each entry at most top."""
        if len(alpha) != self.nvars:
            raise RingMismatch("exponent length does not match the packed layout")
        if alpha and max(alpha) > self.top:
            raise InternalInconsistency("exponent beyond the packed field width")
        return sum(map(lshift, alpha, self._shifts)) + (sum(alpha) << self._degree)

    def unpack(self, p):
        """The exponent tuple of a packed term."""
        field = (1 << self.width) - 1
        return tuple([p >> s & field for s in self._shifts])

    def degree(self, p):
        return p >> self._degree

    def order_key(self, p):
        """``order.key`` of the unpacked term."""
        return self.order.key(self.unpack(p))

    def quotients(self, tau, cells):
        """The cells (tau - e, c, v) of those cells (e, c, v) whose e divides
        tau: x^e . tau, by the guard-bit test of the module docstring."""
        guards = self.guards
        tg = tau | guards
        return [(d ^ guards, c, v) for e, c, v in cells if (d := tg - e) & guards == guards]

    def sorted_ambient(self, points):
        """Points of one degree, ascending as their exponent tuples sort."""
        return sorted(points) if self._ambient else sorted(points, key=self.unpack)


class Staircase:
    """A finite order ideal of Z_{>=0}^n on the packed terms of ``terms``:
    its point set, enumerated on first use from the corners it was given,
    and the frozenset of minimal generators of the complement.
    ``extended`` carries both over to a larger staircase, enumerating only
    the new points; the corners are derived when read.  Staircases compare
    equal when their layouts do and they have the same points; the same
    points packed in unequal layouts are different ints, so such staircases
    compare, and hash, apart.
    """

    __slots__ = ("terms", "_tops", "_members", "_min_gens")

    def __init__(self, terms, corners=()):
        self.terms = terms
        self._tops = set(corners)
        self._members = None
        self._min_gens = None

    @classmethod
    def _made(cls, terms, members, min_gens):
        st = cls(terms)
        st._members = members
        st._min_gens = min_gens
        return st

    def members(self, limit=None):
        """The set of points.  Raises CapExceeded past limit."""
        if self._members is None:
            self._members = frozenset(
                _down_closure(self._tops, frozenset(), self.terms, limit)
            )
        if limit is not None and len(self._members) > limit:
            raise CapExceeded("staircase size", limit)
        return self._members

    @property
    def corners(self):
        """The points with no upper neighbour inside."""
        members = self.members()
        units = [unit for unit, _ in self.terms.steps]
        return frozenset(p for p in members if all(p + u not in members for u in units))

    def contains(self, beta):
        return beta in self.members()

    def with_corner(self, beta):
        return self.extended([beta])

    def extended(self, terms):
        """The staircase spanned by this one and the given terms.

        A minimal generator stays one unless it became a point; new ones are
        upper neighbours of new points.
        """
        layout = self.terms
        old = self.members()
        new = _down_closure(terms, old, layout)
        if not new:
            return self
        members = old | new
        gens = (self.min_generators() - new) | _outer_border(new, members, layout)
        return Staircase._made(layout, members, gens)

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
                gens = _outer_border(members, members, self.terms)
            else:
                gens = {0}
            self._min_gens = frozenset(gens)
        return self._min_gens

    def __eq__(self, other):
        return (
            isinstance(other, Staircase)
            and other.terms == self.terms
            and other.members() == self.members()
        )

    def __hash__(self):
        return hash(self.members())

    def __repr__(self):
        return f"Staircase({sorted(map(self.terms.unpack, self.corners))})"


def initial_staircase(supports, terms, max_size=None):
    """Standard-monomial staircase of the monomial ideal spanned by supports.

    ``supports`` is an iterable of sets of packed terms (one per generator).
    Returns (staircase, points) where points is the full dual-term
    enumeration, by degree and within one degree as the exponent tuples sort.
    Raises NotZeroDimensional when some variable has no pure-power bound.
    """
    gens = set()
    for sup in supports:
        gens.update(sup)
    if 0 in gens:
        return Staircase(terms), []
    bounds = []
    steps = terms.steps
    guards, ones = terms.guards, terms.ones
    units = [unit for unit, _ in steps]
    every = sum(field for _, field in steps)
    for i, (_, field) in enumerate(steps):
        pure = [g for g in gens if (g & every) == (g & field) != 0]
        if not pure:
            raise NotZeroDimensional(i)
        bounds.append(terms.degree(min(pure)))
    # the staircase contains every axis point below its pure-power bound
    if max_size is not None and any(b > max_size for b in bounds):
        raise CapExceeded("staircase size", max_size)
    # walk up from the origin one degree at a time.  A point is reached once
    # from each lower neighbour inside; reached from all of them, it lies
    # outside exactly when it is a generator, and then a minimal one
    pts = []
    min_gens = []
    level = [0]
    while level:
        pts.extend(level)
        if max_size is not None and len(pts) > max_size:
            raise CapExceeded("staircase size", max_size)
        reached = {}
        count = reached.get
        for p in level:
            for u in units:
                q = p + u
                reached[q] = count(q, 0) + 1
        nxt = []
        for q, k in reached.items():
            if k == ((q | guards) - ones & guards).bit_count():  # q's nonzero fields
                (min_gens if q in gens else nxt).append(q)
        level = terms.sorted_ambient(nxt)
    return Staircase._made(terms, frozenset(pts), frozenset(min_gens)), pts


def socle_candidates(st):
    """Dual terms of the minimal generators of the staircase's monomial ideal.

    Exactly the terms of (N :_E m) \\ N when N is the staircase's term module.
    """
    return st.min_generators()


def span_of_terms(elements, terms):
    """Smallest staircase containing every term appearing in the elements,
    on the packed terms of ``terms``."""
    return Staircase(terms, {terms.pack(e) for eta in elements for e in eta.coeffs})


def gamma_candidates(t2, ltn, tau0, limit=None, key=None):
    """Dual terms in (T2 :_E m) outside LT(N) and strictly below tau0, descending.

    The colon of a term module adds exactly the minimal generators of the
    complementary monomial ideal to the staircase itself.  ``key`` stands in
    for ``Terms.order_key``: a run passes its memoized one, and None where
    the int order is the order.
    """
    lt_members = ltn.members(limit)
    if tau0 in lt_members:
        raise InternalInconsistency("tau0 must lie outside the LT staircase")
    if key is None and not t2.terms.int_order:
        key = t2.terms.order_key
    parts = (t2.members(limit), t2.min_generators())
    if key is None:
        out = [p for part in parts for p in part if p < tau0 and p not in lt_members]
    else:
        k0 = key(tau0)
        out = [p for part in parts for p in part if key(p) < k0 and p not in lt_members]
    out.sort(key=key, reverse=True)
    return out
