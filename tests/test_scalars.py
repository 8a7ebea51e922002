import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmult import GF, QQ, FunctionField, RationalFunction, RingMismatch
from hsmult.scalars import (
    PRIME_CHECK_LIMIT,
    _as_uni,
    _from_uni,
    _pp_unit_normalize,
    _uni_prem,
    is_prime,
    pp_add,
    pp_const,
    pp_divexact,
    pp_eval_rows,
    pp_gcd,
    pp_mul,
    pp_primitive,
    pp_to_str,
)
from tests.conftest import naive_pp_eval


@pytest.fixture
def ff():
    return FunctionField(QQ, ("a", "b"))


def test_gf_field_ops():
    F = GF(7)
    a, b = F.from_int(3), F.from_int(5)
    assert (a + b).v == 1
    assert (a * b).v == 1
    assert (a / b).v == (3 * pow(5, 5, 7)) % 7
    assert (a / b) * b == a
    assert -a == F.from_int(4)
    assert not F.zero()
    with pytest.raises(ZeroDivisionError):
        a / F.zero()


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(6)
    GF(32003)  # fine


def _trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(-3, 10**5) if is_prime(n)] == [
        n for n in range(-3, 10**5) if _trial_division_is_prime(n)
    ]


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # Carmichael 561, the least strong pseudoprimes to base 2, to 2..7 and
    # to 2..37 (which base 41 exposes), and 2^61 + 1, a multiple of 3
    for n in (561, 2047, 3215031751, 2**61 + 1, 318665857834031151167461):
        assert not is_prime(n)
    for n in (2**61 - 1, 10**14 + 31, 2**31 - 1, 32003):
        assert is_prime(n)
    assert (PRIME_CHECK_LIMIT - 2) % 17 == 0 and not is_prime(PRIME_CHECK_LIMIT - 2)


def test_prime_field_rejects_characteristics_past_the_check():
    with pytest.raises(ValueError, match=str(PRIME_CHECK_LIMIT)):
        GF(PRIME_CHECK_LIMIT)
    assert GF(2**61 - 1).char == 2**61 - 1


def test_mixed_prime_fields_rejected():
    with pytest.raises(RingMismatch):
        GF(5).one() + GF(7).one()


def test_rational_function_canonical_form(ff):
    a, b = ff.param("a"), ff.param("b")
    # an int denominator, positive and coprime to the numerator's content
    x = (ff.from_int(4) * a + ff.from_int(6)) / ff.from_int(-8)
    assert x.num == {(1, 0): -2, (0, 0): -3}
    assert x.den == 4
    y = ff.one() / ff.from_int(-2)
    assert (y.num, y.den) == ({(0, 0): -1}, 2)
    assert (x - x).den == 1
    # only a constant divides
    with pytest.raises(ArithmeticError, match="non-constant"):
        (a * a - b * b) / (a - b)
    with pytest.raises(ZeroDivisionError):
        a / ff.zero()


def test_rational_function_equality_representation_independent(ff):
    a, b = ff.param("a"), ff.param("b")
    lhs = a / ff.from_int(2) + b / ff.from_int(3)
    rhs = (ff.from_int(3) * a + ff.from_int(2) * b) / ff.from_int(6)
    assert lhs == rhs
    assert hash(lhs) == hash(rhs)
    assert lhs == RationalFunction(ff, {(1, 0): 9, (0, 1): 6}, 18)


def test_fraction_sum_recanonicalizes(ff):
    # a/4 + 3/6 == (a + 2)/4 after normalization, on concrete entries
    a = ff.param("a")
    f1 = a / ff.from_int(4)
    f2 = ff.from_int(3) / ff.from_int(6)
    assert f1 + f2 == (a + ff.from_int(2)) / ff.from_int(4)
    assert (f1 + f2).den == 4


def test_lift_and_evaluate(ff):
    x = ff.lift(Fraction(-3, 4))
    assert x.evaluate((Fraction(0), Fraction(0))) == Fraction(-3, 4)
    a = ff.param("a")
    g = (a + ff.one()) / ff.from_int(3)
    assert g.evaluate((Fraction(1), Fraction(9))) == Fraction(2, 3)
    assert type(g.evaluate((Fraction(-1), Fraction(1)))) is Fraction


def test_pp_eval_rows_matches_term_by_term_evaluation():
    a, b = {(1, 0): 1}, {(0, 1): 1}
    assert pp_eval_rows(((a, b, {}),), (2, -1), 0) == [[Fraction(2), Fraction(-1), 0]]
    rng = random.Random(67)
    for base in (QQ, GF(2), GF(3), GF(7), GF(2**31 - 1)):
        p = base.char
        pool = [0, 0, 1, -1, 2, -3, 5, -11, 2**40 + 1]
        if not p:
            pool += [Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5)]

        def poly(r):
            out = {}
            for _ in range(rng.randint(0, 4)):
                c = rng.randint(-9, 9) % p if p else rng.randint(-9, 9)
                if c:
                    out[tuple(rng.randint(0, 3) for _ in range(r))] = c
            return out

        for _ in range(40):
            r = rng.randint(1, 3)
            rows = [[poly(r) for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(1, 3))]
            values = [rng.choice(pool) for _ in range(r)]
            scalars = [base.from_int(v) for v in values]
            got = pp_eval_rows(rows, values, p)
            expected = [[naive_pp_eval(e, scalars, base) for e in row] for row in rows]
            assert got == [[e.v if p else e for e in row] for row in expected]
            for v in (v for row in got for v in row):
                if p:
                    assert type(v) is int and 0 <= v < p
                else:
                    assert type(v) is (Fraction if v else int)
            ff = FunctionField(base, ("a", "b", "c")[:r])
            num = ff.from_ppoly(rows[0][0])
            assert num.evaluate(scalars) == naive_pp_eval(rows[0][0], scalars, base)
            if not p:  # an int denominator
                assert (num / ff.from_int(6)).evaluate(scalars) == naive_pp_eval(
                    rows[0][0], scalars, base
                ) / 6


def test_function_field_over_prime_field():
    F = GF(5)
    ff = FunctionField(F, ("t",))
    t = ff.param("t")
    x = (t + ff.one()) / ff.from_int(2)
    # a unit divides into the numerator: the denominator stays 1
    assert x.den == 1
    assert x.num == {(1,): 3, (0,): 3}
    assert x.evaluate((F.from_int(1),)) == F.from_int(1)


def test_pp_gcd_includes_content():
    assert pp_gcd({(1, 0): 2}, {(2, 0): 4}, 0) == {(1, 0): 2}
    assert pp_gcd({(1, 0): 6}, {(0, 1): 1}, 0) == {(0, 0): 1}
    sq = pp_mul({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): 1}, 0)
    assert pp_gcd(sq, {(1, 0): 1, (0, 1): 1}, 0) == {(1, 0): 1, (0, 1): 1}
    assert pp_gcd({}, {(1, 0): -2}, 0) == {(1, 0): 2}


def _frozen_uni_content(u, char):
    c = {}
    one = None
    for poly in u.values():
        c = _frozen_pp_gcd(c, poly, char)
        if one is None:
            one = pp_const(1, len(next(iter(c))), char) if c else None
        if c == one:
            break
    return c


def _frozen_pp_gcd(a, b, char):
    """pp_gcd as it was before single-term arguments returned at once: the
    primitive PRS on every input, recursing into itself."""
    if not a:
        return _pp_unit_normalize(b, char)
    if not b:
        return _pp_unit_normalize(a, char)
    active = set()
    for e in a:
        active.update(i for i, d in enumerate(e) if d)
    for e in b:
        active.update(i for i, d in enumerate(e) if d)
    r = len(next(iter(a)))
    if not active:
        if char:
            return pp_const(1, r, char)
        ca = next(iter(a.values()))
        cb = next(iter(b.values()))
        return pp_const(math.gcd(abs(ca), abs(cb)), r, 0)
    v = max(active)
    A = _as_uni(a, v)
    B = _as_uni(b, v)
    if max(A) < max(B):
        A, B = B, A
    ca = _frozen_uni_content(A, char)
    cb = _frozen_uni_content(B, char)
    cont = _frozen_pp_gcd(ca, cb, char)
    A = {d: pp_divexact(c, ca, char) for d, c in A.items()}
    B = {d: pp_divexact(c, cb, char) for d, c in B.items()}
    while True:
        R = _uni_prem(A, B, v, char)
        if not R:
            g_uni = B
            break
        if max(R) == 0:
            return _pp_unit_normalize(cont, char)
        cr = _frozen_uni_content(R, char)
        A, B = B, {d: pp_divexact(c, cr, char) for d, c in R.items()}
    g = pp_mul(cont, _from_uni(g_uni, v), char)
    return _pp_unit_normalize(g, char)


def _draw_pp(rng, kind, r, char):
    """A parameter polynomial of the given kind, coefficients reduced mod char."""

    def coeff():
        c = rng.choice([-1, 1]) * rng.choice([1, 2, 3, 4, 6, 9, 12, 30])
        return c % char if char else c

    def expo():
        return tuple(rng.randint(0, 2) for _ in range(r))

    if kind == "zero":
        return {}
    if kind == "constant":
        c = coeff()
        return {(0,) * r: c} if c else {}
    if kind == "monomial":
        c = coeff()
        return {expo(): c} if c else {}
    if kind == "negative term":
        c = -rng.choice([1, 2, 6, 10])
        if char:
            c %= char
        return {expo(): c} if c else {}
    out = {}
    for _ in range(rng.randint(2, 4)):
        c = coeff()
        if c:
            out[expo()] = c
    return out


@pytest.mark.parametrize("char", [0, 2, 3, 32003])
def test_pp_gcd_matches_the_full_recursion(char):
    kinds = ["zero", "constant", "monomial", "negative term", "general"]
    rng = random.Random(1500 + char)
    single = with_content = 0
    for r in range(1, 7):
        for _ in range(40):
            a = _draw_pp(rng, rng.choice(kinds), r, char)
            b = _draw_pp(rng, rng.choice(kinds), r, char)
            if rng.random() < 0.5:
                # a common factor, so that gcds are not all trivial
                f = _draw_pp(rng, rng.choice(kinds[1:]), r, char)
                a, b = pp_mul(a, f, char), pp_mul(b, f, char)
            expected = _frozen_pp_gcd(a, b, char)
            assert pp_gcd(a, b, char) == expected, (a, b)
            assert pp_gcd(b, a, char) == expected, (b, a)
            if a and b and 1 in (len(a), len(b)) and max(len(a), len(b)) > 1:
                single += 1
                with_content += max(expected.values()) > 1
    # the draws reach the single-term return against a longer argument, and
    # over QQ with a nontrivial integer content
    assert single >= 5
    assert char or with_content >= 5


@pytest.mark.parametrize("char", [0, 11, 32003])
def test_pp_gcd_single_term_content_and_normalization(char):
    def red(a):
        return {e: c % char for e, c in a.items()} if char else a

    cases = [
        # (a, b, gcd over QQ)
        ({(1, 2): 6}, {(2, 0): 4, (0, 1): 10}, {(0, 0): 2}),
        ({(1, 2): -6}, {(2, 1): -9, (1, 3): 3}, {(1, 1): 3}),
        ({(1, 1): -4}, {(0, 0): -8}, {(0, 0): 4}),
        ({(2, 0): -5}, {}, {(2, 0): 5}),
        ({(3, 1): 7}, {(1, 4): 14}, {(1, 1): 7}),
    ]
    for a, b, over_q in cases:
        a, b = red(a), red(b)
        got = pp_gcd(a, b, char)
        assert got == pp_gcd(b, a, char) == _frozen_pp_gcd(a, b, char)
        if char:
            # monic: only the term survives
            assert got == {e: 1 for e in over_q}
        else:
            assert got == over_q


def test_pp_divexact_raises_when_not_exact():
    with pytest.raises(ArithmeticError):
        pp_divexact({(1,): 1}, {(0,): 2}, 0)
    with pytest.raises(ArithmeticError):
        pp_divexact({(2,): 1, (0,): 1}, {(1,): 1}, 0)
    t0, t1 = {(1, 0): 1}, {(0, 1): 1}
    cases = [
        ({(1, 0): 1, (0, 0): 1}, {(1, 0): 1, (0, 0): 2}),  # (t0 + 1) / (t0 + 2)
        (t0, t1),
        ({(1, 0): 3}, {(0, 0): 2}),  # 3*t0 / 2 over QQ
    ]
    for a, b in cases:
        with pytest.raises(ArithmeticError):
            pp_divexact(a, b, 0)


def _random_pp(rng, r, char, nterms):
    out = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, 3) for _ in range(r))
        c = rng.choice([-7, -3, -2, -1, 1, 2, 4, 9])
        out[e] = c % char if char else c
    return {e: c for e, c in out.items() if c}


def _schoolbook_mul(a, b, char):
    """Every term product, grouped by exponent after sorting."""
    products = sorted(
        (tuple(x + y for x, y in zip(ea, eb)), ca * cb)
        for ea, ca in a.items()
        for eb, cb in b.items()
    )
    out = {}
    for e, group in itertools.groupby(products, key=lambda t: t[0]):
        c = sum(c for _, c in group)
        c = c % char if char else c
        if c:
            out[e] = c
    return out


@pytest.mark.parametrize("char", [0, 2, 3, 32003])
def test_pp_mul_and_divexact_on_random_exact_products(char):
    rng = random.Random(900 + char)
    one_term = 0
    for _ in range(200):
        r = rng.randint(1, 3)
        q = _random_pp(rng, r, char, rng.randint(1, 6))
        b = _random_pp(rng, r, char, rng.choice([1, 1, 2, 3, 5]))
        if not q or not b:
            continue
        a = pp_mul(q, b, char)
        assert a == _schoolbook_mul(q, b, char)
        assert all(c for c in a.values())
        if char:
            assert all(0 < c < char for c in a.values())
        assert pp_divexact(a, b, char) == q
        one_term += len(b) == 1
        # an inexact quotient raises: a + 1 over a divisor with a parameter
        if any(map(any, b)):
            with pytest.raises(ArithmeticError):
                pp_divexact(pp_add(a, pp_const(1, r, char), char), b, char)
    assert one_term >= 30


def test_pp_to_str_canonical():
    assert pp_to_str({}, ("t",)) == "0"
    assert pp_to_str({(2, 0): 1, (0, 0): -3, (1, 1): -2}, ("a", "b")) == (
        "a^2 - 2*a*b - 3"
    )


_smallpoly = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(-4, 4).filter(bool),
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(_smallpoly, _smallpoly, _smallpoly)
def test_gcd_divides_and_lcm_consistent(a, b, c):
    # gcd(ac, bc) is divisible by (primitive-normalized) c
    ac = pp_mul(a, c, 0)
    bc = pp_mul(b, c, 0)
    g = pp_gcd(ac, bc, 0)
    if ac and bc:
        pp_divexact(ac, g, 0)
        pp_divexact(bc, g, 0)
        if c:
            assert pp_divexact(g, pp_gcd(c, g, 0), 0) is not None
        lcm = pp_mul(ac, pp_divexact(bc, g, 0), 0)
        pp_divexact(lcm, ac, 0)
        pp_divexact(lcm, bc, 0)


@settings(max_examples=60, deadline=None)
@given(_smallpoly, _smallpoly)
def test_field_axioms_random(fa, fb):
    ff = FunctionField(QQ, ("a", "b"))
    x = ff.from_ppoly(fa)
    y = ff.from_ppoly(fb)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) - y == x
    if y and set(fb) == {(0, 0)}:
        assert (x / y) * y == x
    elif y:
        with pytest.raises(ArithmeticError, match="non-constant"):
            x / y
    z = ff.from_int(3)
    assert (x + y) * z == x * z + y * z


def test_primitive_part():
    assert pp_primitive({(1, 0): -4, (0, 0): -6}, 0) == {(1, 0): 2, (0, 0): 3}
    assert pp_primitive({(1,): 3}, 7) == {(1,): 1}



def _ref_add(x, y, char):
    out = dict(x)
    for e, c in y.items():
        v = out.get(e, 0) + c
        v = v % char if char else v
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _ref_scale(x, k, char):
    return _ref_add({}, {e: c * k for e, c in x.items()}, char)


def _ref_mul(x, y, char):
    out = {}
    for ex, cx in x.items():
        for ey, cy in y.items():
            out = _ref_add(out, {tuple(map(sum, zip(ex, ey))): cx * cy}, char)
    return out


def _ref_of(x):
    """A parameter-ring scalar as the reference holds it."""
    return {e: Fraction(c, x.den) for e, c in x.num.items()}


@pytest.mark.parametrize("base", [QQ, GF(2), GF(3), GF(32003)], ids=repr)
def test_parameter_ring_matches_fraction_dicts(base):
    """Add, sub, mul, neg, division by a unit, equality, hash and evaluate
    against dicts {exponent: Fraction} (ints mod p over GF(p)), on seeded
    draws; a non-constant divisor raises, and every result is canonical:
    an int denominator, positive and coprime to the numerator's content,
    and 1 over GF(p)."""
    char = base.char
    rng = random.Random(2300 + char)
    ff = FunctionField(base, ("a", "b"))

    def coefficient():
        if char:
            return rng.randint(-6, 6) % char
        return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6]))

    def draw():
        """(reference, scalar), the scalar built from a multiple of its
        lowest terms over QQ."""
        ref = {}
        for _ in range(rng.randint(0, 3)):
            ref = _ref_add(ref, {(rng.randint(0, 2), rng.randint(0, 2)): coefficient()}, char)
        den = 1 if char else rng.choice([1, 2, -3]) * math.lcm(
            *(c.denominator for c in ref.values())
        )
        return ref, RationalFunction(ff, {e: int(c * den) for e, c in ref.items()}, den)

    def canonical(x):
        assert x.den >= 1 and (x.den == 1 or not char)
        assert math.gcd(x.den, *x.num.values()) == 1
        return x

    units = 0
    for _ in range(150):
        (rx, x), (ry, y) = draw(), draw()
        assert _ref_of(canonical(x)) == rx
        assert _ref_of(canonical(x + y)) == _ref_add(rx, ry, char)
        assert _ref_of(canonical(x - y)) == _ref_add(rx, _ref_scale(ry, -1, char), char)
        assert _ref_of(canonical(x * y)) == _ref_mul(rx, ry, char)
        assert _ref_of(canonical(-x)) == _ref_scale(rx, -1, char)
        assert (x == y) == (rx == ry) and x + y == y + x
        same = RationalFunction(ff, dict(x.num), x.den)
        assert same == x and hash(same) == hash(x)
        if ry and set(ry) == {(0, 0)}:
            units += 1
            c = ry[(0, 0)]
            inv = pow(c, -1, char) if char else 1 / c
            assert _ref_of(canonical(x / y)) == _ref_scale(rx, inv, char)
        else:
            # ZeroDivisionError is an ArithmeticError too: the message tells them apart
            with pytest.raises(ArithmeticError, match="non-constant" if ry else "zero"):
                x / y
        values = [coefficient() for _ in range(2)]
        expected = sum(
            (c * values[0] ** e[0] * values[1] ** e[1] for e, c in rx.items()), Fraction(0)
        )
        got = x.evaluate([base.from_int(v) for v in values])
        if char:
            assert got == base.from_int(int(expected))
        else:
            assert type(got) is Fraction and got == expected
    assert units >= 5
