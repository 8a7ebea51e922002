"""Dual-basis computation: composition series of (S/<F>)^vee by term order.

Starting from the staircase dual of the support monomial ideal, the engine
repeatedly picks the smallest candidate leading term tau0 not yet settled,
decides the kernel of the annihilation matrix over the colon candidates
below tau0, and either accepts a new basis element xi (one-dimensional
kernel) or records the rejection.  The candidates come from the point sets
of the staircases, and the matrix cells are looked up in the generators'
coefficients.  A run's steps share one ``RunMemo``, which ends with the run.
Every dual term of a run is one int of its ``dual.Terms`` layout
(``run_terms``).  Exponent tuples come back only at the boundary:
``t1_points`` (unpacked when first read), ``accepted_lts``, and the
``DualElement`` of an accepted step, made from the nonzero entries of its
solve.

A step's matrix has the columns of tau0 and of the candidate set C (the
terms of (T2 :_E m) outside LT(N) and below tau0), and C never loses a term
from one step to the next: T2 only grows, tau0 strictly rises, and an
accepted tau0 was never in C (it is the only term LT(N) gains).  The columns
of C are independent, or the step's kernel would have a vector with leading
entry 0.  So every run keeps one echelon basis of span(C)
(``linalg.ColumnSpan``): a step inserts the columns of the terms new to C,
reduces tau0's column, and the step's kernel is nontrivial exactly when it
reduces to zero, that is when col(tau0) = sum_k lambda_k col(c_k) over C.  A
rejected tau0 is a minimal generator of LT(N) with its lower neighbours in
T2, so it is a candidate of every later step, and its reduced column is
inserted at once.  Should the basis hold a term outside C, the span
restarts from empty.

Over a base field the span holds the columns themselves, on the plain
numbers of a base-field matrix, and no matrix is built: an accepted step's
kernel vector is (1, -lambda), the one ``kernel`` would return, read off the
span's nonzero coordinates, and a dependent candidate column raises
UnexpectedNullity.  Over a parameter field
K(t) the span holds the columns' images at the run's point
(``modp.point_span``, in GF(p) or GF(q)).  An image of tau0 independent of
the span rejects the step: evaluation is a ring map, so a nonzero minor of
the image is a nonzero minor over K(t).  An image that reduces to zero
gives the support S of the image's kernel vector; the exact ``kernel`` of
the matrix on the columns of S is the step's vector, since the image has
rank |S| - 1 there, which bounds the exact nullity by 1.  The span cannot
decide a step when a candidate image is dependent, when over QQ the run's
prime divides a coefficient's integer denominator, or when a support solve
finds no vector.  The run then moves to its next hashed point, with a new
memo and an empty span, and decides the step there; at the last point of
``modp.DEFAULT_PRIMES`` the exact ``kernel`` of the whole matrix decides it,
and the run stays there.  So ``build_matrix`` runs over K(t) for the support
solves, the rejected steps whose matrices the certificate keeps, and those
exact steps.

The accepted xi's and staircase terms together form a K-basis of the dual
module, so the basis size is the colength of <F>.  An accepted xi is kept as
the kernel vector that found it, and ``xis`` and ``basis()`` read it as is:
over a base field it is 1 at its leading term (the span's coordinates), and
over K[t] it is the primitive polynomial vector of the kernel contract.
On a parameter field, the leading-coefficient numerators of accepted xi's and
the rejected matrices are the genericity certificate used by the reduction
engine.  A rejected matrix is kept as built (grid-only, every zero cell of a
row one shared empty dict); ``matlist`` makes those grids canonical when
first read, so a run whose certificate nobody reads never canonicalizes.

The engine has no tuning settings.  Every step counts one ``dispatched``
solve in the run's ``stats`` and one on the path that decided it: a
base-field step counts as the ``direct`` solve it stands for, a K(t) step
as ``trivial_by_modp`` or ``accepted_by_support`` when a point decided it,
else as one of the ``fallbacks``; ``retries`` counts the point moves.
Series generators are truncated from a fixed start degree (see
``_initial_data``).  Neither changes the basis of a run that finishes: the
kernel vector is canonical on every path, and the staircase is certified
exact whatever the truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dual import (
    DualElement,
    Terms,
    gamma_candidates,
    initial_staircase,
    socle_candidates,
)
from .errors import (
    CapExceeded,
    DenominatorVanishes,
    InternalInconsistency,
    NotZeroDimensional,
    UnexpectedNullity,
)
from .linalg import ColumnSpan, ExactMatrix, kernel
from .modp import DEFAULT_PRIMES, ModpStats, coefficient_images, point_span
from .poly import SparsePoly, clear_row_denominators
from .scalars import FunctionField, pp_primitive, pp_primitive_row
from .series import SeriesOracle


@dataclass(frozen=True)
class ResourceCaps:
    """Termination safety net; m-primality itself is not decidable."""

    max_terms: int = 5000
    max_degree: int = 64
    max_iterations: int = 10000

    def __post_init__(self):
        if min(self.max_terms, self.max_degree, self.max_iterations) <= 0:
            raise ValueError("resource caps must be positive")


DEFAULT_CAPS = ResourceCaps()


def _gen_exact_poly(g):
    if isinstance(g, SparsePoly):
        return g
    if isinstance(g, SeriesOracle) and g.is_polynomial():
        return g.exact_poly()
    return None


class _OrderKeys(dict):
    """order.key of each exponent, computed on first lookup and kept.

    Read through ``__getitem__``, so a key already made costs no Python call.
    """

    __slots__ = ("_key",)

    def __init__(self, key):
        super().__init__()
        self._key = key

    def __missing__(self, alpha):
        k = self[alpha] = self._key(alpha)
        return k


def run_terms(exact, order, nvars, caps):
    """The packed layout of a run's terms (``dual.Terms``), with fields for
    the largest exponent of its polynomial generators and for every term
    the caps let the run meet.

    A staircase of at most max_terms points has exponents below max_terms,
    and ``step`` takes no tau0 of degree above max_degree, so a candidate
    term has exponents at most max(max_terms, max_degree + 1), and an upper
    neighbour one more.  A series generator is truncated at degree at most
    max(max_terms, max_degree) + nvars (``_initial_data``, ``RunMemo``).
    """
    top = max(caps.max_terms, caps.max_degree) + nvars + 2
    for p in exact:
        if p is not None:
            top = max([top] + [max(e) for e in p.coeffs])
    return Terms(nvars, order, top)


def _plain_terms(field, p, pack):
    """p's (packed exponent, coefficient) pairs; over a base field the
    coefficients are the plain numbers of a base-field ExactMatrix (see
    ``linalg``)."""
    if isinstance(field, FunctionField) or not field.char:
        return [(pack(e), c) for e, c in p.coeffs.items()]
    return [(pack(e), c.v) for e, c in p.coeffs.items()]


class RunMemo:
    """What the steps of one run share, dropped with the run.

    ``terms`` is the run's packed layout (``run_terms``), and every dual
    term below is packed in it.  ``key`` is the order's sort key on packed
    terms, memoized per term, or None where the int order is the order
    (glex).  Each generator keeps its term list, packed once, and for each
    gamma term tau its column: the triples (s, c, v) with c the coefficient
    of x^(tau - s), i.e. the nonzero entries of generator . tau, and v the
    image of c at the run's ``point`` (see ``modp.coefficient_images``; None
    for zero and without a point).  A series generator's terms are exact up
    to the degree it was last truncated at, and a column needs the terms of
    degree at most |tau| only, so a column stays exact once made.  Each
    coefficient is evaluated at the point once; should the point's prime
    divide an integer denominator (over QQ), the memo keeps the error in
    ``vanished`` and evaluates no more.
    """

    __slots__ = (
        "field", "gens", "terms", "key", "point", "vanished", "_terms", "_exact_to",
        "_columns", "_images",
    )

    def __init__(self, gens, order, nvars, caps, exact=None, point=None):
        if exact is None:
            exact = [_gen_exact_poly(g) for g in gens]
        self.field = field = gens[0].field
        self.gens = gens
        self.terms = terms = run_terms(exact, order, nvars, caps)
        self.key = None if terms.int_order else _OrderKeys(terms.order_key).__getitem__
        self.point = point
        self.vanished = None
        self._images = [{} for _ in gens]
        self._terms = [
            None if p is None else self._with_images(i, _plain_terms(field, p, terms.pack))
            for i, p in enumerate(exact)
        ]
        self._exact_to = [-1 if p is None else math.inf for p in exact]
        self._columns = [{} for _ in gens]

    def supports(self, degree):
        """Each generator's packed support, a series generator's up to degree."""
        pack = self.terms.pack
        return [
            {pack(e) for e in g.support_upto(degree)} if terms is None else [e for e, _, _ in terms]
            for g, terms in zip(self.gens, self._terms)
        ]

    def _with_images(self, i, pairs):
        """Generator i's (exponent, coefficient) pairs with their images."""
        images = self._images[i]
        if self.point is not None and self.vanished is None:
            new = [(e, c) for e, c in pairs if e not in images]
            try:
                values = coefficient_images([c for _, c in new], self.point)
                images.update(zip([e for e, _ in new], values))
            except DenominatorVanishes as err:
                self.vanished = err
        return [(e, c, images.get(e)) for e, c in pairs]

    def _exact_for(self, gamma):
        """Each generator's terms, exact up to the largest degree in gamma.

        A series generator is truncated again only when some gamma term lies
        above the degree its terms are exact to, and then at max|gamma| +
        nvars.
        """
        layout = self.terms
        top = layout.degree(max(gamma))
        for i, g in enumerate(self.gens):
            if self._exact_to[i] < top:
                depth = top + layout.nvars
                pairs = _plain_terms(self.field, g.truncate(depth), layout.pack)
                self._terms[i] = self._with_images(i, pairs)
                self._exact_to[i] = depth
        return self._terms

    def columns(self, gamma):
        """Per generator, the list of its columns of the gamma terms
        (``Terms.quotients``)."""
        quotients = self.terms.quotients
        out = []
        for terms, known in zip(self._exact_for(gamma), self._columns):
            cols = []
            for tau in gamma:
                col = known.get(tau)
                if col is None:
                    col = known[tau] = quotients(tau, terms)
                cols.append(col)
            out.append(cols)
        return out

    def column_maps(self, terms):
        """Per term tau, its column of a step's matrix as a map from row keys
        to the nonzero cells, where dual term s of generator i's block has
        the row key s * (number of generators) + i.  The maps are made from
        the generators' terms and not kept: a base-field run, the only
        caller, builds no matrix, and on the closure-member workload it
        meets every column once."""
        quotients = self.terms.quotients
        k = len(self.gens)
        gens = list(enumerate(self._exact_for(terms)))
        return [
            {s * k + i: c for i, cells in gens for s, c, _ in quotients(tau, cells)}
            for tau in terms
        ]

    def image_maps(self, terms):
        """``column_maps`` at the point: the cells' nonzero images there.
        Raises the memo's DenominatorVanishes, if it has one."""
        maps = [{} for _ in terms]
        k = len(self.gens)
        for i, cols in enumerate(self.columns(terms)):
            for m, col in zip(maps, cols):
                for s, _, v in col:
                    if v is not None:
                        m[s * k + i] = v
        if self.vanished is not None:
            raise self.vanished
        return maps


def build_matrix(memo, gamma):
    """Annihilation matrix: block rows per generator, columns indexed by gamma.

    Within a block, rows are indexed by the dual terms appearing in the images
    of the gamma terms, sorted descending; entry (s, k) is the coefficient of
    s in generator . gamma_k.  That is the generator's coefficient at
    x^(gamma_k - s), so every cell is looked up in the generator, with no
    product; the generators, columns and sort keys come from the run's memo,
    and gamma holds terms packed in its layout.  All-zero rows never appear.
    Over a base field the cells are plain numbers, the int 0 where zero; over
    a function field each row is cleared of denominators here, from its
    nonzero cells, into the grid of a grid-only matrix.
    """
    field = memo.field
    ncols = len(gamma)
    rows = []
    for cols in memo.columns(gamma):
        block = {}
        for k, col in enumerate(cols):
            for s, c, _ in col:
                cells = block.get(s)
                if cells is None:
                    cells = block[s] = {}
                cells[k] = c
        rows.extend(block[s] for s in sorted(block, key=memo.key, reverse=True))
    if isinstance(field, FunctionField):
        grid = tuple(clear_row_denominators(field, cells.items(), ncols) for cells in rows)
        return ExactMatrix.of_grid(field, grid, ncols)
    dense = []
    for cells in rows:
        row = [0] * ncols
        for k, c in cells.items():
            row[k] = c
        dense.append(tuple(row))
    return ExactMatrix(field, tuple(dense), ncols)


def canonical_cleared_matrix(M):
    """M's cleared grid, canonically scaled, as a grid-only matrix over K[t].

    Only constant row scalings (``scalars.pp_primitive_row``) are applied
    beyond the clearing: scaling a row by a polynomial would move the locus
    where the specialized matrix drops rank, breaking condition (b) checks.
    """
    char = M.field.char
    grid = tuple(tuple(pp_primitive_row(nums, char)) for nums in M.grid)
    return ExactMatrix.of_grid(M.field, grid, M.ncols)


class _DualBasis:
    """The basis shared by a running state and its finished result; the T1
    points are kept packed (``_t1``) and unpacked when first read."""

    @property
    def length(self):
        return len(self._t1) + len(self.elements)

    @property
    def t1_size(self):
        return len(self._t1)

    @property
    def t1_points(self):
        """The T1 staircase points as exponent tuples, in enumeration order."""
        if self._t1_points is None:
            self._t1_points = list(map(self.terms.unpack, self._t1))
        return self._t1_points

    @property
    def matlist(self):
        """The MatList: the rejected matrices made canonical, each on first read."""
        made = self._matlist
        made.extend(canonical_cleared_matrix(M) for M in self.rejected[len(made):])
        return made

    @property
    def xis(self):
        """The accepted xi's in acceptance order, as found: 1 at the leading
        term over a base field, primitive over K[t]."""
        return list(self.elements)

    def basis(self):
        """T1 terms ascending in the order, then xi's in acceptance order."""
        t1 = sorted(self.t1_points, key=self.order.key)
        return [DualElement.term(self.field, e) for e in t1] + self.xis


class DualBasisState(_DualBasis):
    """Single-owner state of one composition-series run, with its memo and
    the span of the candidate columns (over a parameter field at the point
    ``modp.point_span`` gives for the run's retry).  The staircases, the
    sets l1 and l2 and the span's names hold terms packed in the memo's
    layout (``terms``); ``accepted_lts`` holds exponent tuples."""

    def __init__(self, gens, order, caps, stats=None):
        if not gens:
            raise ValueError("empty generator list")
        field = gens[0].field
        nvars = gens[0].nvars
        for g in gens:
            if g.field != field or g.nvars != nvars:
                raise InternalInconsistency("generators live in different rings")
        self.gens = list(gens)
        self.order = order
        self.caps = caps
        self.field = field
        self.nvars = nvars
        self.stats = ModpStats() if stats is None else stats
        self.track_certificates = isinstance(field, FunctionField) and bool(field.params)
        self.retry = 0
        if isinstance(field, FunctionField):
            point, self.span = point_span(field, 0)
        else:
            point, self.span = None, ColumnSpan(field.char)
        exact = [_gen_exact_poly(g) for g in self.gens]
        self.memo = RunMemo(self.gens, order, nvars, caps, exact, point)
        self.terms = self.memo.terms
        t1, self._t1 = _initial_data(self.memo, exact, caps)
        self._t1_points = None
        self.ltn = t1
        self.t2 = t1
        self.l1 = set()
        self.l2 = socle_candidates(t1)
        self.elements = []
        self.accepted_lts = []
        self.polylist = []
        self._polyset = set()
        self.rejected = []
        self._matlist = []
        self.iterations = 0

    def done(self):
        return self.l1 == self.l2


def _initial_data(memo, exact, caps):
    """T1 staircase; oracle generators are truncated until the result is certified.

    A point survives only while no generator monomial of degree <= its own
    degree divides it, so once every staircase point has degree <= the
    truncation degree the staircase is exact.  The truncation starts at
    degree 4, or the largest degree of a polynomial generator, and doubles
    while the truncated ideal is not m-primary.
    """
    terms = memo.terms
    if all(p is not None for p in exact):
        return initial_staircase(memo.supports(0), terms, caps.max_terms)
    degree = max([4] + [p.total_degree() for p in exact if p is not None])
    last_error = None
    while degree <= caps.max_degree:
        try:
            st, pts = initial_staircase(memo.supports(degree), terms, caps.max_terms)
        except NotZeroDimensional as err:
            last_error = err
            degree = degree * 2
            continue
        maxdeg = terms.degree(max(pts, default=0))
        if maxdeg <= degree:
            return st, pts
        degree = maxdeg
    if last_error is not None:
        raise last_error
    raise CapExceeded("truncation degree", caps.max_degree)


def _span_coordinates(state, gamma, column_maps):
    """Insert the columns of the candidates new to the run's span, then
    reduce tau0's: its coordinates when it lies in the span, else None, its
    residual inserted (see the module docstring).  UnexpectedNullity when a
    candidate column is dependent."""
    tau0, cands = gamma[0], gamma[1:]
    span = state.span
    if not span.names.issubset(cands):
        span.clear()
    new = [c for c in cands if c not in span.names]
    cols = column_maps([tau0] + new)
    for c, col in zip(new, cols[1:]):
        residual, coords = span.reduce(c, col)
        if not residual:  # the candidates' columns are dependent
            raise UnexpectedNullity(2)
        span.insert(c, residual, coords)
    residual, coords = span.reduce(tau0, cols[0])
    if residual:
        span.insert(tau0, residual, coords)
        return None
    return coords


def _span_kernel(state, gamma):
    """The kernel ``kernel`` would give for the step's matrix over a base
    field, from the run's span of the candidate columns: its nonzero
    entries, as field scalars by packed term."""
    state.stats.direct += 1
    coords = _span_coordinates(state, gamma, state.memo.column_maps)
    if coords is None:
        return None
    field = state.field
    if field.char:
        return {g: field.from_int(c) for g, c in coords.items()}
    return coords


def _parameter_kernel(state, gamma):
    """The kernel of the step's matrix over K(t), decided on the run's span
    at its point, as the nonzero entries by packed term; a rejected step's
    matrix is kept as the certificate needs.  When the span cannot decide
    (see the module docstring), the run moves to its next point, and at the
    last one the exact ``kernel`` of the whole matrix decides."""
    stats = state.stats
    while True:
        try:
            coords = _span_coordinates(state, gamma, state.memo.image_maps)
        except (UnexpectedNullity, DenominatorVanishes):
            coords = {}  # no support: the span cannot decide
        if coords is None:
            stats.trivial_by_modp += 1
            M = build_matrix(state.memo, gamma) if state.track_certificates else None
            break
        support = [g for g in gamma if g in coords]
        if support:
            v = kernel(build_matrix(state.memo, support))
            if v is not None:
                stats.accepted_by_support += 1
                return {g: a for g, a in zip(support, v) if a}
        if state.retry + 1 == len(DEFAULT_PRIMES):
            stats.fallbacks += 1
            M = build_matrix(state.memo, gamma)
            v = kernel(M)
            if v is not None:
                return {g: a for g, a in zip(gamma, v) if a}
            break
        state.retry += 1
        stats.retries += 1
        point, state.span = point_span(state.field, state.retry)
        state.memo = RunMemo(state.gens, state.order, state.nvars, state.caps, point=point)
    if state.track_certificates:
        state.rejected.append(M)
    return None


def step(state):
    """One loop iteration: accept a xi or move tau0 to the rejected set."""
    if state.done():
        raise InternalInconsistency("step called on a finished state")
    caps = state.caps
    key = state.memo.key
    tau0 = min(state.l2 - state.l1, key=key)
    if state.terms.degree(tau0) > caps.max_degree:
        raise CapExceeded("candidate degree", caps.max_degree)
    cands = gamma_candidates(state.t2, state.ltn, tau0, limit=caps.max_terms, key=key)
    gamma = [tau0] + cands
    state.stats.dispatched += 1
    if isinstance(state.field, FunctionField):
        vec = _parameter_kernel(state, gamma)
    else:
        vec = _span_kernel(state, gamma)
    if vec is None:
        state.l1.add(tau0)
        return False
    c0 = vec.get(tau0)
    if not c0:
        raise InternalInconsistency(
            "kernel vector with vanishing leading coefficient"
        )
    unpack = state.terms.unpack
    lt = unpack(tau0)
    order_key = state.order.key
    if state.accepted_lts and order_key(lt) <= order_key(state.accepted_lts[-1]):
        raise InternalInconsistency("leading terms of accepted elements not increasing")
    eta = DualElement(state.field, state.nvars, {unpack(g): a for g, a in vec.items()})
    state.elements.append(eta)
    state.accepted_lts.append(lt)
    if state.track_certificates:
        entry = pp_primitive(c0.num, state.field.char)
        entry_key = frozenset(entry.items())
        if entry_key not in state._polyset:
            state._polyset.add(entry_key)
            state.polylist.append(entry)
    state.ltn = state.ltn.with_corner(tau0)
    state.t2 = state.t2.extended(vec)
    state.l2 = socle_candidates(state.ltn)
    return True


@dataclass
class DualBasisResult(_DualBasis):
    """A finished run; ``_t1`` holds the T1 points packed in ``terms``.

    Results compare field by field, the layout by value (``dual.Terms``), so
    two runs of one input on equal caps compare equal; runs whose layouts
    differ compare apart even where their points agree.
    """

    field: object
    nvars: int
    order: object
    terms: Terms
    _t1: list
    elements: list
    accepted_lts: list
    polylist: list
    rejected: list
    iterations: int
    complete: bool

    def __post_init__(self):
        self._matlist = []
        self._t1_points = None


def compute_dual_basis(gens, order, caps=None, budget=None, stats=None):
    """Run the full composition-series loop; the basis size is the colength.

    With a budget the loop also stops once the basis has that many elements:
    a length below the budget is then the colength, and a length at or above
    it shows only that the colength is at least the budget.  ``complete``
    tells whether the loop ran to its end, so that the basis spans the dual.
    ``stats`` (a ``modp.ModpStats``) counts the run's solves.
    """
    caps = caps or DEFAULT_CAPS
    state = DualBasisState(gens, order, caps, stats=stats)
    while not state.done() and (budget is None or state.length < budget):
        state.iterations += 1
        if state.iterations > caps.max_iterations:
            raise CapExceeded("loop iterations", caps.max_iterations)
        step(state)
    return DualBasisResult(
        field=state.field,
        nvars=state.nvars,
        order=order,
        terms=state.terms,
        _t1=state._t1,
        elements=list(state.elements),
        accepted_lts=list(state.accepted_lts),
        polylist=list(state.polylist),
        rejected=list(state.rejected),
        iterations=state.iterations,
        complete=state.done(),
    )
