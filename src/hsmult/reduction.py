"""Multiplicity over a generic parameter field, reductions, and membership.

The first d ideal generators are combined with the remaining ones through
fresh parameters t_i_j; the colength of the combined ideal over K(t) is the
Hilbert-Samuel multiplicity, and the run leaves behind an explicit genericity
certificate: PolyList (polynomials that must not vanish at a specialization)
and MatList (matrices that must keep full column rank).  A coefficient matrix
passing both checks yields a reduction with those coefficients; an exhaustive
small-coefficient search and an independent length-recomputation check are
built on top.  A coefficient matrix holds ints or base-field scalars, read
row by row as the parameters t_i_j.  Every kernel over K(t) goes through
``modp.kernel_via_modp`` at fixed points, so a result and its mod-p counters
depend on the instance alone, which is the multiplicity cache's key.

Integral-closure membership: h lies in the integral closure of J exactly when
e(J + (h)) = e(J) (Rees; R formally equidimensional, e.g. Cohen-Macaulay).
``membership`` tries three paths in order.

In the ideal.  Every element of J is integral over J, and whether h lies in
J + I is decided by Matlis duality.  For an m-primary ideal L of S = K[[x]],
the functionals on S that vanish on L form the inverse system L^perp, a
K-space of dimension l(S/L), and L is exactly the set of elements at which
every functional of L^perp vanishes.  The dual basis computed for the
generators of L (T1 terms and accepted xi's) is a basis of L^perp, and a
functional xi = sum_g xi_g / x^(g+1) takes at h the value sum_g xi_g [x^g]h.
So h is in J + I exactly when each basis functional vanishes at h.  Only a
complete basis decides: a run stopped by a budget spans part of L^perp, and
the functional it misses may be the one that does not vanish, so a
non-member would pass.  With m == d the run behind e(J) is that of J + I
over the base field, unbudgeted, and its basis is reused; otherwise J + I is
run once over the base field, without a budget and under the query's caps,
and the functionals are kept on J's cache entry.  When the caps end that
run, or h is not a polynomial over the base field, the check is skipped.

At a point.  At a coefficient point a, Q_a = (f_i + sum_j a_ij g_j) + I with
g_j running over the remaining generators of J + (h); when Q_a is m-primary,

    l(R/Q_a) >= e(Q_a) >= e(J + (h)),

the first by Serre's bound for a parameter ideal, the second because
Q_a is inside J + (h).  So a colength l(R/Q_a) < e(J) proves that h is not
integral.  The point is hashed from the instance, with entries in 1..30, and
its colength is computed only until it reaches e(J).

Over QQ the point run is made on residues: the instance, h and the point are
reduced mod P = ``modp.DEFAULT_PRIMES[0]`` = 2^31 - 1, and l_P is the
colength over GF(P).  This is sound for every P, with no genericity
assumption.  Let A = Z_(P)[x]_(P,x) / (Q_a + I).  If A/PA has finite length,
then dim A <= 1 (so Q_a is m-primary over QQ as well), and

    l_QQ(R/Q_a) = l(A_(x)) <= e(P; A) <= l(A/PA) = l_P

by the associativity formula and then Serre's bound, so l_P < e(J) proves
non-membership too.  A series p/q generates (p) on both sides and is
reduced as (p mod P)/(q mod P).  When P divides a coefficient's denominator
or q(0), there is no point run.  ``verify_reduction_by_length`` tests an
equality, so it stays over QQ.

Over K(t).  When the point colength reaches e(J), or the caps end the run or
Q_a (or its residues) is not m-primary, or P divides a denominator, e(J + (h))
is computed over K(t) and compared; members
outside J + I take this path.  The result names the path in decided_by
("in-ideal", "point-length" or "multiplicity") and carries point_length or
e_extended to match; the CLI's member report uses the same keys.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import CapExceeded, NonUnitDenominator, NotZeroDimensional, SearchExhausted
from .linalg import nonsingular_at
from .matlis import DEFAULT_CAPS, compute_dual_basis
from .modp import DEFAULT_PRIMES, ModpStats, sha256
from .orders import MonomialOrder
from .poly import SparsePoly, lift_poly
from .scalars import GF, FunctionField, GFElement, pp_eval_rows, pp_to_str
from .series import LinearCombination, PolySeries, RationalSeries, as_oracle


def generator_to_str(gen, names):
    if isinstance(gen, SparsePoly):
        return gen.to_str(names)
    if isinstance(gen, PolySeries):
        return gen.poly.to_str(names)
    if isinstance(gen, RationalSeries):
        return f"({gen.num.to_str(names)})/({gen.den.to_str(names)})"
    if isinstance(gen, LinearCombination):
        one = gen.field.one()
        terms = [
            ("" if s == one else f"({gen.field.to_str(s)})*")
            + f"({generator_to_str(o, names)})"
            for s, o in gen.terms
            if s
        ]
        return " + ".join(terms) or "0"
    raise TypeError(f"cannot serialize generator {gen!r}")


@dataclass(frozen=True)
class ProblemInstance:
    """One computation setup: R = S/I, J inside R, with dim R supplied."""

    base: object
    nvars: int
    var_names: tuple
    i_gens: tuple
    j_gens: tuple
    d: int
    order: MonomialOrder = MonomialOrder("glex")
    caps: object = DEFAULT_CAPS

    def __post_init__(self):
        if len(self.var_names) != self.nvars:
            raise ValueError("variable name count does not match nvars")
        if not (0 <= self.d <= self.nvars):
            raise ValueError("dim must satisfy 0 <= dim <= variable count")
        if not self.j_gens:
            raise ValueError("the ideal needs at least one generator")
        if self.d > 0 and len(self.j_gens) < self.d:
            raise ValueError("need at least dim generators")

    @property
    def m(self):
        return len(self.j_gens)

    def check_dimension(self):
        """Raise ValueError unless dim fits the quotient ideal I of S = K[[x]].

        S is a regular local domain, so by Krull's height theorem k nonzero
        generators of I give n - k <= dim S/I <= n - 1, and dim S/I = n when
        k = 0.  Multiplicities rest on dim; colengths ignore it.
        """
        n = self.nvars
        k = sum(1 for g in self.i_gens if (g.num if isinstance(g, RationalSeries) else g))
        if k == 0 and self.d != n:
            raise ValueError(f"dim must be {n}: there is no quotient ideal")
        if k and not (n - k <= self.d <= n - 1):
            raise ValueError(
                f"dim must satisfy {max(n - k, 0)} <= dim <= {n - 1} for a quotient "
                f"ideal with {k} nonzero generators"
            )

    def with_extra_generator(self, h):
        return dataclasses.replace(self, j_gens=self.j_gens + (h,))

    def canonical_key(self):
        order = self.order
        prec = "" if order.precedence is None else ",".join(map(str, order.precedence))
        parts = [
            f"char={self.base.char}",
            "vars=" + ",".join(self.var_names),
            f"order={order.kind}[{prec}]",
            f"dim={self.d}",
            "I=" + ";".join(generator_to_str(g, self.var_names) for g in self.i_gens),
            "J=" + ";".join(generator_to_str(g, self.var_names) for g in self.j_gens),
        ]
        return "|".join(parts)


@cache
def param_names(d, m):
    """t_i_j for row i <= d and source generator j in d+1..m; one per shape."""
    return tuple(f"t_{i}_{j}" for i in range(1, d + 1) for j in range(d + 1, m + 1))


def _combination(field, head, tail):
    """head + sum(s * g for s, g in tail) over field, lazy if a part is a series."""
    parts = [(field.one(), as_oracle(head))] + [(s, as_oracle(g)) for s, g in tail]
    if not all(o.is_polynomial() for _, o in parts):
        return LinearCombination(field, parts)
    total = lift_poly(parts[0][1].exact_poly(), field)
    for s, o in parts[1:]:
        total = total + lift_poly(o.exact_poly(), field).scale(s)
    return total


def generic_generators(inst):
    """(generator list, working field): d parameter combinations plus I.

    With m == d no parameters are introduced and the base field is kept.
    """
    d, m = inst.d, inst.m
    if m == d:
        return list(inst.j_gens) + list(inst.i_gens), inst.base
    ff = FunctionField(inst.base, param_names(d, m))
    gens = []
    for i in range(d):
        tail = [
            (ff.param(f"t_{i + 1}_{j + 1}"), inst.j_gens[j]) for j in range(d, m)
        ]
        gens.append(_combination(ff, inst.j_gens[i], tail))
    for g in inst.i_gens:
        gens.append(_combination(ff, g, ()))
    return gens, ff


@dataclass
class MultiplicityResult:
    """e plus the certificate data from the generic run."""

    e: int
    d: int
    m: int
    params: tuple
    field: object
    base: object
    t1_size: int
    xi_count: int
    polylist: list
    dual: object
    instance: ProblemInstance
    modp_stats: ModpStats
    # (T1 points, xi coefficient maps) spanning the inverse system of J + I;
    # set by the first membership query whose run of J + I ends
    ideal_dual: tuple | None = None

    @property
    def matlist(self):
        """The MatList, made canonical when first read (see DualBasisResult)."""
        return self.dual.matlist

    def polylist_strings(self):
        return [pp_to_str(p, self.params) for p in self.polylist]

    def matlist_grids(self):
        """Entry strings per MatList matrix, as immutable rows like ExactMatrix.rows.

        Reports are kept by long-running callers; the entries, rows and whole
        grids repeat across matrices and runs, so the entries are interned
        and equal rows, and equal grids, are one tuple (``_shared``).
        """
        return [
            _shared(
                tuple(
                    _shared(tuple(sys.intern(pp_to_str(a, self.params)) for a in row))
                    for row in M.grid
                )
            )
            for M in self.matlist
        ]


# least recently used first; a hit moves its entry to the end
_MULT_CACHE: OrderedDict = OrderedDict()
_MULT_CACHE_SIZE = 256

# MatList rows and grids of recent reports, least recently used first; the
# bound holds the distinct rows and grids of many instances (about 1,900 for
# the 48 requests of a generic-reduce benchmark pass)
_SHARED: OrderedDict = OrderedDict()
_SHARED_SIZE = 4096


def _shared(t):
    """The kept tuple equal to t, which t becomes when there is none."""
    kept = _SHARED.get(t)
    if kept is None:
        _SHARED[t] = kept = t
        if len(_SHARED) > _SHARED_SIZE:
            _SHARED.popitem(last=False)
    else:
        _SHARED.move_to_end(t)
    return kept


def multiplicity(inst, use_cache=True):
    """Hilbert-Samuel multiplicity of J in R = S/I, with certificates.

    R must be Cohen-Macaulay of the supplied dimension and J primary for the
    maximal ideal; neither is decidable from the input, so the resource caps
    are the safety net for bad inputs.  A dim that contradicts I raises
    ValueError.  With use_cache, results are kept for the last 256 distinct
    instances.
    """
    key = inst.canonical_key()
    if use_cache and key in _MULT_CACHE:
        _MULT_CACHE.move_to_end(key)
        return _MULT_CACHE[key]
    inst.check_dimension()
    if inst.d == 0:
        gens, field = _dim_zero_generators(inst), inst.base
    else:
        gens, field = generic_generators(inst)
    stats = ModpStats()
    dual = compute_dual_basis(gens, inst.order, inst.caps, stats=stats)
    res = MultiplicityResult(
        e=dual.length,
        d=inst.d,
        m=inst.m,
        params=field.params if isinstance(field, FunctionField) else (),
        field=field,
        base=inst.base,
        t1_size=len(dual.t1_points),
        xi_count=len(dual.elements),
        polylist=list(dual.polylist),
        dual=dual,
        instance=inst,
        modp_stats=stats,
    )
    if use_cache:
        _MULT_CACHE[key] = res
        if len(_MULT_CACHE) > _MULT_CACHE_SIZE:
            _MULT_CACHE.popitem(last=False)
    return res


def _dim_zero_generators(inst):
    """dim 0: J must contain a unit, and e is the length of R, generated by I."""
    has_unit = False
    for g in inst.j_gens:
        p = g if isinstance(g, SparsePoly) else g.truncate(0)
        if p.constant_term():
            has_unit = True
            break
    if not has_unit:
        raise ValueError("dim 0 requires the ideal to contain a unit")
    if not inst.i_gens:
        raise ValueError("dim 0 with R = S has infinite length")
    return list(inst.i_gens)


def _plain_point(res, a):
    """The d x (m - d) matrix a row by row as plain numbers: ints mod p over
    GF(p); over QQ ints, or Fractions where not integral.  ValueError unless
    every entry is an int (not a bool) or a scalar of the base field."""
    p = res.base.char
    rows = [tuple(row) for row in a]
    if len(rows) != res.d or any(len(row) != res.m - res.d for row in rows):
        raise ValueError(f"coefficient matrix must be {res.d} x {res.m - res.d}")
    out = []
    for v in itertools.chain.from_iterable(rows):
        if isinstance(v, int) and not isinstance(v, bool):
            out.append(v % p if p else v)
        elif p and isinstance(v, GFElement) and v.p == p:
            out.append(v.v)
        elif not p and isinstance(v, Fraction):
            out.append(v.numerator if v.denominator == 1 else v)
        else:
            raise ValueError(f"coefficient {v!r} is neither an int nor in {res.base}")
    return out


def _coerce_matrix(res, a):
    """a as a d x (m - d) tuple of base scalars (see _plain_point)."""
    flat = [res.base.from_int(v) for v in _plain_point(res, a)]
    cols = res.m - res.d
    return tuple(tuple(flat[i * cols : (i + 1) * cols]) for i in range(res.d))


def certify(a, res):
    """Check conditions (a) and (b) of the genericity certificate at a.

    a is a d x (m - d) matrix of ints or base scalars (ValueError otherwise).
    True guarantees the combination with coefficients a generates a reduction
    (hence has colength e).  False proves nothing: the conditions are
    sufficient only, and verify_reduction_by_length stays the decisive test.
    """
    values = _plain_point(res, a)
    if not res.params:
        return True
    if not all(pp_eval_rows((res.polylist,), values, res.base.char)[0]):
        return False
    return all(nonsingular_at(M, values) for M in res.matlist)


def _shell_values(s):
    """0, 1, -1, 2, -2, ... up to magnitude s."""
    out = [0]
    for v in range(1, s + 1):
        out.extend((v, -v))
    return out


def _shell_matrices(d, cols, s):
    """Integer matrices with max-norm exactly s, lexicographic in shell order."""
    values = _shell_values(s)
    size = d * cols
    for flat in itertools.product(values, repeat=size):
        if max((abs(v) for v in flat), default=0) != s:
            continue
        yield tuple(tuple(flat[i * cols : (i + 1) * cols]) for i in range(d))


@dataclass(frozen=True)
class ReductionCertificate:
    """Coefficients a, how they were validated, and the reduction generators."""

    a: tuple
    mode: str  # "symbolic" | "length-verified"
    generators: tuple
    e: int


def reduction_generators(inst, rows):
    """The d combined generators f_i + sum_j a_ij f_j over the base field."""
    d = inst.d
    return tuple(
        _combination(inst.base, inst.j_gens[i], zip(rows[i], inst.j_gens[d:]))
        for i in range(d)
    )


def find_reduction(res, bound=5):
    """First certified coefficient matrix in the deterministic shell order.

    Integer entries are enumerated by max-norm shells starting at the all-zero
    matrix, ordering values 0, 1, -1, 2, -2, ... and tuples lexicographically
    within a shell.  Over a small finite field the search can exhaust the
    schedule, which raises SearchExhausted.  With no parameters (m == d, or
    d == 0) the one matrix of shell 0 has empty rows and certifies at once,
    so the bound must be at least 0.

    Over GF(p) with parameters, integer matrices with equal residues get the
    same verdict, so a matrix whose residue point was certified already is
    skipped, and the search is exhausted as soon as all p^(d(m-d)) residue
    points have failed.  The first certified matrix is the one the search
    without the skip finds.
    """
    inst = res.instance
    cols = res.m - res.d
    p = res.base.char
    seen = set() if p and res.params else None
    for s in range(bound + 1):
        for a in _shell_matrices(res.d, cols, s):
            if seen is not None:
                point = tuple(_plain_point(res, a))
                if point in seen:
                    continue
                seen.add(point)
            if certify(a, res):
                rows = _coerce_matrix(res, a)
                return ReductionCertificate(
                    a=rows,
                    mode="symbolic",
                    generators=reduction_generators(inst, rows),
                    e=res.e,
                )
            if seen is not None and len(seen) == p ** len(res.params):
                raise SearchExhausted(bound)
    raise SearchExhausted(bound)


def length_verified_certificate(inst, a, res=None):
    """Certificate for a user-chosen a, validated by length recomputation.

    Use when the symbolic conditions fail (they are sufficient only) but a is
    still expected to generate a reduction.  Raises ValueError when the
    recomputed colength differs from e.
    """
    if res is None:
        res = multiplicity(inst)
    rows = _coerce_matrix(res, a)
    if not verify_reduction_by_length(inst, rows, res):
        raise ValueError("coefficients do not generate a reduction (length differs)")
    return ReductionCertificate(
        a=rows,
        mode="length-verified",
        generators=reduction_generators(inst, rows),
        e=res.e,
    )


def verify_reduction_by_length(inst, a, res=None):
    """Decisive reduction test: recompute the colength at the specialized point.

    Independent of the symbolic certificate.  A degenerate point can make the
    specialized ideal lose m-primarity or blow past the caps; when that happens
    at a point already failing certify, the answer is False.
    """
    if res is None:
        res = multiplicity(inst)
    rows = _coerce_matrix(res, a)
    try:
        length = _colength_at(inst, rows, ModpStats())
    except (CapExceeded, NotZeroDimensional):
        if not certify(rows, res):
            return False
        raise
    return length == res.e


def _colength_at(inst, rows, stats, budget=None):
    """Colength of the d combinations with coefficients rows, plus I.

    Runs over the base field; with a budget, a result at or above it is only
    a lower bound (see compute_dual_basis).
    """
    gens = list(reduction_generators(inst, rows)) + list(inst.i_gens)
    dual = compute_dual_basis(
        gens, inst.order, inst.caps, budget=budget, stats=stats
    )
    return dual.length


def _member_point(ext):
    """A d x (m - d) coefficient matrix for ext, entries in 1..30 hashed from it."""
    d, cols = ext.d, ext.m - ext.d
    key = ext.canonical_key().encode()
    values = []
    counter = 0
    while len(values) < d * cols:
        values.extend(1 + b % 30 for b in sha256(key + b"|%d" % counter).digest())
        counter += 1
    return tuple(
        tuple(ext.base.from_int(v) for v in values[i * cols : (i + 1) * cols])
        for i in range(d)
    )


def _mod_prime(inst, rows, p):
    """inst and the coefficient rows reduced mod the prime p, or None when
    the reduction is not defined: p divides a coefficient's denominator or
    the constant term of a series denominator, or a generator is neither a
    polynomial nor a series p/q."""
    if not all(
        isinstance(g, (SparsePoly, PolySeries, RationalSeries))
        for g in inst.i_gens + inst.j_gens
    ):
        return None
    field = GF(p)

    def residue(c):
        if not c.denominator % p:
            raise NonUnitDenominator(f"{p} divides the denominator of {c}")
        return field.from_int(c.numerator * pow(c.denominator, -1, p))

    def gen(g):
        if isinstance(g, PolySeries):
            return PolySeries(gen(g.poly))
        if isinstance(g, RationalSeries):  # p | q(0) raises here
            return RationalSeries(gen(g.num), gen(g.den))
        return g.map_coefficients(residue, field)

    try:
        reduced = dataclasses.replace(
            inst,
            base=field,
            i_gens=tuple(map(gen, inst.i_gens)),
            j_gens=tuple(map(gen, inst.j_gens)),
        )
        return reduced, tuple(tuple(map(residue, row)) for row in rows)
    except NonUnitDenominator:
        return None


def _point_length(ext, budget, stats):
    """The colength at ext's hashed point, found only up to budget; over QQ
    the colength of the residues mod P (see the module docstring).  None
    when the point decides nothing: P divides a denominator, or the caps or
    a non m-primary ideal end the run."""
    rows = _member_point(ext)
    if not ext.base.char:
        reduced = _mod_prime(ext, rows, DEFAULT_PRIMES[0])
        if reduced is None:
            return None
        ext, rows = reduced
    try:
        return _colength_at(ext, rows, stats, budget)
    except (CapExceeded, NotZeroDimensional):
        return None


@dataclass(frozen=True)
class Membership:
    """Verdict on h in the integral closure of J, and how it was reached.

    decided_by is "in-ideal" when h lies in J + I, "point-length" when the
    colength point_length at the hashed point (over QQ, that of the residues
    mod 2^31 - 1) was below e, and "multiplicity"
    when e_extended = e(J + (h)) was computed.  modp_stats sums the mod-p
    counters of the multiplicity and point runs made, in a ModpStats of its
    own.
    """

    member: bool
    e: int
    decided_by: str
    modp_stats: ModpStats
    point_length: int | None = None
    e_extended: int | None = None


def _inverse_system(dual):
    """(T1 points, xi coefficient maps) of a complete dual basis, else None."""
    if not dual.complete:
        return None
    return frozenset(dual.t1_points), [xi.coeffs for xi in dual.elements]


def _ideal_dual(res, caps):
    """The inverse system of J + I for res's instance, kept on res once found;
    None when the caps end its run."""
    if res.ideal_dual is None:
        inst = res.instance
        if inst.m == inst.d:
            res.ideal_dual = _inverse_system(res.dual)
        else:
            gens = list(inst.j_gens) + list(inst.i_gens)
            try:
                dual = compute_dual_basis(gens, inst.order, caps)
            except (CapExceeded, NotZeroDimensional):
                return None
            res.ideal_dual = _inverse_system(dual)
    return res.ideal_dual


def _in_ideal(ideal_dual, h):
    """Whether every functional of the inverse system vanishes at h."""
    t1, xis = ideal_dual
    coeffs = h.coeffs
    if not t1.isdisjoint(coeffs):
        return False
    zero = h.field.zero()
    return not any(
        sum((c * coeffs[e] for e, c in xi.items() if e in coeffs), zero) for xi in xis
    )


def membership(inst, h):
    """Membership of h in the integral closure of J (see the module docstring).

    Requires R equidimensional (implied by Cohen-Macaulay).  e(J) and the
    inverse system of J + I come from the multiplicity cache.  Exceptions
    other than the caps and a non m-primary ideal propagate.
    """
    res = multiplicity(inst)
    if isinstance(h, SparsePoly) and h.field == inst.base:
        ideal_dual = _ideal_dual(res, inst.caps)
        if ideal_dual is not None and _in_ideal(ideal_dual, h):
            stats = dataclasses.replace(res.modp_stats)
            return Membership(True, res.e, "in-ideal", stats)
    ext = inst.with_extra_generator(h)
    point_stats = ModpStats()
    length = _point_length(ext, res.e, point_stats)
    stats = res.modp_stats + point_stats
    if length is not None and length < res.e:
        return Membership(False, res.e, "point-length", stats, point_length=length)
    res2 = multiplicity(ext)
    return Membership(
        res.e == res2.e, res.e, "multiplicity", stats + res2.modp_stats, e_extended=res2.e
    )


def is_in_integral_closure(inst, h):
    """Whether h is integral over J; see membership for the verdict's details."""
    return membership(inst, h).member


def clear_multiplicity_cache():
    _MULT_CACHE.clear()
