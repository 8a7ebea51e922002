"""A frozen copy of the staircase code on exponent tuples that ran every
composition-series run before dual terms were packed into ints, kept as
the reference the packed staircases are checked against."""

from hsmult.errors import CapExceeded, InternalInconsistency, NotZeroDimensional


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


class FrozenStaircase:
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
        return FrozenStaircase._made(n, members, gens)

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
            isinstance(other, FrozenStaircase)
            and other.nvars == self.nvars
            and other.members() == self.members()
        )

    def __hash__(self):
        return hash((self.nvars, self.members()))

    def __repr__(self):
        return f"FrozenStaircase({sorted(self.corners)})"


def frozen_initial_staircase(supports, nvars, max_size=None):
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
        return FrozenStaircase(nvars), []
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
    return FrozenStaircase._made(nvars, frozenset(pts), frozenset(min_gens)), pts


def frozen_gamma_candidates(t2, ltn, order, tau0, limit=None, key=None):
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
