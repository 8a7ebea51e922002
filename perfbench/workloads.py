"""Seeded request generators for the three benchmark workloads.

A request carries the instance JSON text the program sees, the command, an
optional member expression, a dict of sliceable properties and reference
data that never reaches the program.  The checks in ``references.py`` use
the reference data: facts known by construction (pure-power initial forms,
membership witnesses) or inputs for independent recomputation.

Each workload is a fixed list of request shapes (which monomials occur in
which generator, the characteristic, the number of generators and
parameters), drawn once from a structure stream that does not depend on the
seed.  The seed draws every coefficient and the send order.  Costs therefore
stay comparable from seed to seed while the inputs the program sees differ.
(Relabeling the variables as well was tried: it moves the staircases
against the fixed term order and doubled the seed-to-seed spread of a
pass's cost.)

Generation uses ``random.Random`` seeded by strings and never iterates over
an unordered container, so the same seed gives byte-identical requests
whatever the interpreter's hash seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field, replace

from polyutil import poly_add, poly_mul, poly_str, poly_substitute_last, weighted_order

# dual-length is not listed in BENCHMARK.json: on a shared 2-vCPU host its
# run-to-run spread of solve_tail_s (interquartile range over ten runs)
# reached 0.25-0.30 of the median in three of five sets, against 0.21 at most
# for the other two.  It stays here for traced and by-name runs.
WORKLOADS = ("generic-reduce", "dual-length", "closure-member")
NAMES = ("x", "y", "z", "w")


@dataclass
class Request:
    rid: int
    command: str
    text: str
    expr: str | None
    props: dict
    ref: dict

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class Series:
    """A generator given as the expansion of num/den (den(0) = 1)."""

    num: dict
    den: dict


@dataclass
class Shape:
    """The seed-independent structure of one request.

    Polynomials are dicts {exponent: coefficient}; coefficients here are
    placeholders that `_realize_instance` redraws from the seed, except in
    a quotient R = S/(z - q(x, y)), whose generator is kept as written.
    """

    command: str
    kind: str
    char: int
    nvars: int
    dim: int
    ideal: list
    quotient: list = field(default_factory=list)
    options: dict | None = None
    ref: dict = field(default_factory=dict)
    member: dict | None = None
    substitution: dict | None = None  # q in R = S/(z - q(x, y)), z the last variable


def _axis(i, a, n):
    return tuple(a if k == i else 0 for k in range(n))


def _box(bounds):
    out = [()]
    for b in bounds:
        out = [u + (v,) for u in out for v in range(b)]
    return out


def _coef(rng, char):
    """A coefficient that is nonzero in the given characteristic."""
    if char in (2, 3, 5):
        return rng.randint(1, char - 1)
    return rng.choice((1, 2, 3, 5, 7, -1, -2, -3))


def _mixed_below(s, powers, count):
    """Distinct monomials in >= 2 variables on or below the pure-power Newton boundary."""
    cands = [
        u
        for u in _box(powers)
        if sum(1 for v in u if v) >= 2 and sum(v / a for v, a in zip(u, powers)) <= 1
    ]
    return s.sample(cands, count)


def _hot_terms(s, n, lo, hi, count):
    """`count` distinct terms of degree in [lo, hi] involving >= 2 variables.

    With count None, all such terms, in canonical order.
    """
    cands = [
        e for e in _box([hi + 1] * n) if lo <= sum(e) <= hi and sum(1 for v in e if v) >= 2
    ]
    if count is None:
        return cands
    return {e: 1 for e in sorted(s.sample(cands, count))}


def _ci(s, powers, hot_count):
    """x_i^a_i plus terms of degree a_i + 1 or a_i + 2: pure-power initial forms."""
    n = len(powers)
    gens = []
    for i, a in enumerate(powers):
        g = {_axis(i, a, n): 1}
        g.update(_hot_terms(s, n, a + 1, a + 2, hot_count))
        gens.append(g)
    return gens


# ---------------------------------------------------------------------------
# generic-reduce: `reduce` on 3-variable ideals with m = d+1 or d+2
# ---------------------------------------------------------------------------

# Homogeneous quadrics over GF(2) (e = 2^3) on which the deterministic search
# up to bound 2 finds no point passing the PolyList/MatList conditions
# (relabeling their variables can make the search succeed).
EXHAUSTED_GF2 = (
    ("x^2", "y*z", "y^2+x*y+z^2", "z^2+x*y+x*z"),
    ("x^2", "z*y", "z^2+x*z+y^2", "y^2+x*z+x*y"),
    ("y^2", "z*x", "z^2+y*z+x^2", "x^2+y*z+y*x"),
    ("z^2", "y*x", "y^2+z*y+x^2", "x^2+z*y+z*x"),
    ("z^2+y*z", "y^2+y*z+x*y", "z^2+x*y", "x^2+y*z"),
    ("y^2+z*y", "z^2+z*y+x*z", "y^2+x*z", "x^2+z*y"),
)


def _parse_quadric(text):
    out = {}
    for term in text.split("+"):
        e = [0, 0, 0]
        for factor in term.split("*"):
            name, _, power = factor.partition("^")
            e["xyz".index(name)] += int(power) if power else 1
        out[tuple(e)] = 1
    return out


def _reduce_monomial(s, char, extra, bound=2):
    powers = [s.choice((2, 3) if extra > 1 else (2, 3, 4)) for _ in range(3)]
    exps = [_axis(i, a, 3) for i, a in enumerate(powers)] + _mixed_below(s, powers, extra)
    return Shape(
        "reduce", "monomial", char, 3, 3, [{e: 1} for e in exps],
        options={"search_bound": bound},
        ref={"monomial_exponents": [list(e) for e in exps]},
    )


def _reduce_perturbed(s, char):
    powers = [s.choice((2, 3)) for _ in range(3)]
    gens = _ci(s, powers, 1)
    u = _mixed_below(s, powers, 1)[0]
    tail = {u: 1}
    tail.update(_hot_terms(s, 3, sum(u) + 2, sum(u) + 2, 1))
    gens.append(tail)
    return Shape("reduce", "perturbed", char, 3, 3, gens, options={"search_bound": 2})


def _reduce_polynomial(s, char):
    powers = [s.choice((2, 3)) for _ in range(3)]
    gens = _ci(s, powers, 1)
    # a binomial of two mixed monomials plus a higher-order term
    tail = {u: 1 for u in _mixed_below(s, powers, 2)}
    tail.update(_hot_terms(s, 3, max(powers) + 1, max(powers) + 1, 1))
    gens.append(tail)
    return Shape("reduce", "polynomial", char, 3, 3, gens, options={"search_bound": 2})


def _reduce_quotient(s, char):
    """R = S/(f), f = z^c + higher terms; J = (x^a, y^b + ..., a mixed monomial)."""
    c = s.choice((2, 3))
    f = {(0, 0, c): 1}
    f.update(_hot_terms(s, 3, c + 1, c + 1, 2))
    a, b = s.choice((2, 3)), s.choice((2, 3))
    gens = [{(a, 0, 0): 1}, {(0, b, 0): 1, **_hot_terms(s, 3, b + 1, b + 1, 1)}]
    gens.append({_mixed_below(s, (a, b, c), 1)[0]: 1})
    return Shape("reduce", "quotient", char, 3, 2, gens, [f], options={"search_bound": 2})


def _reduce_series(s, char):
    """As `_reduce_quotient`, with f sent as the expansion of f/(1 - v).

    1/(1 - v) is a unit of the power series ring, so the ideal is still (f).

    The series sits in the quotient ideal: `reduce` prints the reduction
    generators, which it cannot do for a series generator of J.
    """
    shape = _reduce_quotient(s, char)
    den = {(0, 0, 0): 1, _axis(s.randrange(3), 1, 3): -1}
    return replace(shape, kind="series", quotient=[Series(shape.quotient[0], den)])


def _reduce_exhausted(s):
    gens = [_parse_quadric(g) for g in s.choice(EXHAUSTED_GF2)]
    # quadratic forms without common zeros: e = 2^d
    return Shape(
        "reduce", "quadrics", 2, 3, 3, gens, options={"search_bound": 2},
        ref={"e": 8},
    )


def _generic_reduce(s):
    """Two rounds of the mix, so a pass averages over two shapes of each kind."""
    shapes = []
    for _ in range(2):
        shapes += (
            [_reduce_monomial(s, char, 1) for char in (0, 0, 32003, 32003)]
            + [_reduce_monomial(s, 0, 2) for _ in range(2)]
            + [_reduce_perturbed(s, char) for char in (0, 0, 32003, 32003)]
            + [_reduce_polynomial(s, char) for char in (0, 0, 32003)]
            + [_reduce_quotient(s, char) for char in (0, 32003, 0)]
            + [_reduce_series(s, char) for char in (0, 32003, 0)]
            + [_reduce_monomial(s, p, 1, (p - 1) // 2) for p in (3, 5)]
            + [_reduce_perturbed(s, 3)]
            + [_reduce_exhausted(s) for _ in range(2)]
        )
    return shapes


# ---------------------------------------------------------------------------
# dual-length: `length` of base-field ideals with pure-power initial forms
# ---------------------------------------------------------------------------

# Orders of the pure powers; the colength is their product (80 .. 576).
LENGTH_POWERS = (
    (4, 4, 5),
    (4, 5, 5),
    (4, 5, 6),
    (5, 5, 5),
    (5, 5, 6),
    (5, 6, 6),
    (6, 6, 7),
    (7, 8, 9),
    (8, 8, 9),
    (9, 10),
    (3, 3, 3, 4),
)


def _standard_count(monomials, bounds):
    """Number of exponents in the box divisible by none of the monomials."""
    return sum(
        1
        for u in _box(bounds)
        if not any(all(a <= b for a, b in zip(g, u)) for g in monomials)
    )


def _length_shape(s, powers, char, gap):
    """x_i^a_i plus one mixed higher-order term per generator.

    The higher-order terms cut the staircase of the support monomials below
    the colength; the engine has to find the missing dual elements one by
    one, so ``gap`` (their number) sets the cost of the request.  A term u
    alone cuts prod(a_i - u_i) points from the box, so terms are drawn among
    those that cut at most half the largest gap.
    """
    n = len(powers)
    target = math.prod(powers)

    def cut(u):
        return math.prod(max(a - v, 0) for a, v in zip(powers, u))

    top = sum(powers) - n  # the degree of the box's far corner
    terms = [
        [u for u in _hot_terms(s, n, a + 1, top, None) if 0 < cut(u) <= gap[1] // 2]
        for a in powers
    ]
    for _ in range(1000):
        gens = [{_axis(i, a, n): 1, s.choice(terms[i]): 1} for i, a in enumerate(powers)]
        support = sorted({e for g in gens for e in g})
        missing = target - _standard_count(support, powers)
        if gap[0] <= missing <= gap[1]:
            # tangent-cone formula: the initial forms are a regular sequence
            ref = {"e": target, "staircase_gap": missing}
            return Shape("length", "complete-intersection", char, n, 0, gens, ref=ref)
    raise RuntimeError(f"no generator set with staircase gap in {gap} for {powers}")


def _dual_length(s):
    return [
        _length_shape(s, powers, char, (12, 30))
        for powers in LENGTH_POWERS
        for char in (0, 32003)
    ]


# ---------------------------------------------------------------------------
# closure-member: `member` queries against a few base ideals
# ---------------------------------------------------------------------------

MEMBER_QUERIES_PER_BASE = 24


def _member_bases(s):
    """A monomial, a perturbed and a quotient-ring base ideal."""
    monomial = Shape(
        "member", "monomial", 0, 3, 3, [{_axis(i, a, 3): 1} for i, a in enumerate((3, 3, 4))]
    )
    perturbed = Shape("member", "perturbed", 32003, 3, 3, _ci(s, (3, 3, 3), 1))
    # R = S/(z - q(x, y)) with ord q = 2 is regular of dimension 2
    q = {e: 1 for e in sorted(s.sample([(2, 0, 0), (1, 1, 0), (0, 2, 0)], 2))}
    f = {(0, 0, 1): 1, **{e: -1 for e in q}}
    gens = [{(3, 0, 0): 1}, {(0, 4, 0): 1, (1, 0, 3): 1}, {(1, 2, 0): 1}]
    quotient = Shape("member", "quotient", 0, 3, 2, gens, [f], substitution=q)
    return [monomial, perturbed, quotient]


def _newton_weights(images, n):
    """Integer weights proportional to 1/order of the pure powers in the images."""
    axes = []
    for i in range(n):
        pure = [e[i] for g in images for e in g if e[i] and sum(e) == e[i]]
        axes.append(min(pure) if pure else None)
    lcm = math.lcm(*[a for a in axes if a])
    return [lcm // a if a else lcm for a in axes]


def _member_queries(s, base):
    """Member shapes against one base: alternately a non-member and a member.

    A non-member is c*u plus an element of J, where the monomial u lies
    strictly below the Newton boundary of the generators' supports: the
    monomial valuation with weights w then gives h a smaller value than J.
    A member is an element of J, or (for monomial bases) a monomial u with
    2u >= alpha + beta for two generator exponents, so that u^2 lies in J^2.
    """
    n = 3
    images = base.ideal
    if base.substitution is not None:
        images = [poly_substitute_last(g, base.substitution, 0) for g in base.ideal]
    w = _newton_weights(images, n)
    vj = min(weighted_order(g, w) for g in images)
    free = n - 1 if base.substitution is not None else n
    below = [
        u + (0,) * (n - free)
        for u in _box([6] * free)
        if any(u) and vj <= 2 * sum(a * b for a, b in zip(u, w)) < 2 * vj
    ]
    monomials = [next(iter(g)) for g in base.ideal] if base.kind == "monomial" else []

    def cofactors():
        return [
            {tuple(s.randint(0, 1) for _ in range(n)): 1} if s.random() < 0.6 else {}
            for _ in base.ideal
        ]

    out = []
    seen = set()
    while len(out) < MEMBER_QUERIES_PER_BASE:
        if len(out) % 2 == 0:
            member = {"member": False, "witness": "below-newton", "monomial": s.choice(below),
                      "weights": w, "cofactors": cofactors()}
        elif monomials and s.random() < 0.5:
            g1, g2 = s.sample(monomials, 2)
            u = tuple((a + b + 1) // 2 for a, b in zip(g1, g2))
            member = {"member": True, "witness": "square-in-J2", "monomial": u, "pair": [g1, g2]}
        else:
            member = {"member": True, "witness": "in-J", "cofactors": cofactors()}
            if not any(member["cofactors"]):
                continue
        key = repr(member)
        if key not in seen:
            seen.add(key)
            out.append(replace(base, member=member))
    return out


# ---------------------------------------------------------------------------
# realizing shapes: coefficients and text
# ---------------------------------------------------------------------------


def _redraw(p, rng, char):
    return {e: _coef(rng, char) for e in sorted(p)}


def _gen_text(g, names):
    if isinstance(g, Series):
        return f"({poly_str(g.num, names)})/({poly_str(g.den, names)})"
    return poly_str(g, names)


def _jsonable_poly(p):
    return [[list(e), c] for e, c in sorted(p.items())]


def _realize_instance(shape, rng):
    """Draw the coefficients: (ideal, instance text, ring_ref).

    ring_ref holds the realized generators of J and I as exact polynomials
    for the reference checks (a series generator num/den is recorded as num,
    which spans the same ideal).
    """
    char = shape.char
    names = NAMES[: shape.nvars]
    ideal = [_redraw(g, rng, char) for g in shape.ideal]
    quotient = []
    for f in shape.quotient:
        if isinstance(f, Series):
            quotient.append(Series(_redraw(f.num, rng, char), f.den))
        elif shape.substitution is not None:
            quotient.append(f)  # z - q(x, y) as written: the references substitute q
        else:
            quotient.append(_redraw(f, rng, char))
    mapping = {
        "characteristic": char,
        "variables": list(names),
        "order": "glex",
        "ideal": [_gen_text(g, names) for g in ideal],
        "dim": shape.dim,
    }
    if quotient:
        mapping["quotient_ideal"] = [_gen_text(f, names) for f in quotient]
    if shape.options:
        mapping["options"] = shape.options
    ring_ref = {
        "gens": [_jsonable_poly(g) for g in ideal],
        "quotient": [_jsonable_poly(f.num if isinstance(f, Series) else f) for f in quotient],
    }
    return ideal, json.dumps(mapping, sort_keys=True), ring_ref


def _props(shape, index):
    m = len(shape.ideal)
    return {
        "shape": index,
        "nvars": shape.nvars,
        "d": shape.dim,
        "m": m,
        "params": shape.dim * (m - shape.dim),
        "characteristic": shape.char,
        "kind": shape.kind,
        "quotient": bool(shape.quotient),
        "ref_e": shape.ref.get("e"),
        # dual elements the engine must find beyond the support staircase
        "staircase_gap": shape.ref.get("staircase_gap"),
    }


def _realize(shape, rng, index):
    """(command, text, expr, props, ref) for a shape without a member query."""
    _, text, ring_ref = _realize_instance(shape, rng)
    ref = {**shape.ref, **ring_ref}
    return shape.command, text, None, _props(shape, index), ref


def _realize_member(shape, index, ideal, text, ring_ref, rng):
    member = shape.member
    char = shape.char
    ref = {"member": member["member"], "witness": member["witness"], **ring_ref}
    if shape.substitution is not None:
        ref["substitution"] = _jsonable_poly(shape.substitution)
    if shape.kind == "monomial":
        ref["monomial_exponents"] = [list(next(iter(g))) for g in ideal]
    h = {member["monomial"]: _coef(rng, char)} if "monomial" in member else {}
    if "cofactors" in member:
        cofactors = [_redraw(cof, rng, char) if cof else {} for cof in member["cofactors"]]
        for cof, g in zip(cofactors, ideal):
            h = poly_add(h, poly_mul(cof, g, char), char)
        ref["cofactors"] = [_jsonable_poly(cof) for cof in cofactors]
    if not h:
        raise RuntimeError("generator combination cancelled to zero")
    if "weights" in member:
        ref["weights"] = list(member["weights"])
    if "pair" in member:
        ref["pair"] = [list(g) for g in member["pair"]]
    ref["h"] = _jsonable_poly(h)
    return shape.command, text, poly_str(h, NAMES[: shape.nvars]), _props(shape, index), ref


def generate(workload, seed):
    """The workload's requests for this seed, in send order."""
    s = random.Random(f"hsmult-bench|{workload}|shape")
    rng = random.Random(f"hsmult-bench|{workload}|seed={seed}")
    if workload in ("generic-reduce", "dual-length"):
        shapes = _generic_reduce(s) if workload == "generic-reduce" else _dual_length(s)
        items = [_realize(shape, rng, k) for k, shape in enumerate(shapes)]
        rng.shuffle(items)
    elif workload == "closure-member":
        queues = []
        for b, base in enumerate(_member_bases(s)):
            # one realization of the base ideal, shared by all its queries
            ideal, text, ring_ref = _realize_instance(base, rng)
            queue = [
                _realize_member(shape, b * MEMBER_QUERIES_PER_BASE + k, ideal, text, ring_ref, rng)
                for k, shape in enumerate(_member_queries(s, base))
            ]
            rng.shuffle(queue)
            queues.append(queue)
        # interleave the base ideals round-robin
        items = [q[k] for k in range(MEMBER_QUERIES_PER_BASE) for q in queues]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [Request(k, *item) for k, item in enumerate(items)]
