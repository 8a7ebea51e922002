import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmult import GF, QQ, DenominatorVanishes, FunctionField, RingMismatch
from hsmult.scalars import (
    pp_const,
    pp_divexact,
    pp_eval_rows,
    pp_gcd,
    pp_lcm,
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


def test_mixed_prime_fields_rejected():
    with pytest.raises(RingMismatch):
        GF(5).one() + GF(7).one()


def test_rational_function_canonical_form(ff):
    a, b = ff.param("a"), ff.param("b")
    x = (a * a - b * b) / (a - b)
    assert x == a + b
    # denominator sign fixed: positive leading coefficient
    y = ff.one() / (ff.from_int(2) - a)
    assert y.den == {(1, 0): 1, (0, 0): -2}
    assert y.num == {(0, 0): -1}


def test_rational_function_equality_representation_independent(ff):
    a, b = ff.param("a"), ff.param("b")
    lhs = a / b + b / a
    rhs = (a * a + b * b) / (a * b)
    assert lhs == rhs
    assert hash(lhs) == hash(rhs)


def test_fraction_sum_recanonicalizes(ff):
    # a/b + c/d == (ad + bc)/bd after normalization, on concrete entries
    a, b = ff.param("a"), ff.param("b")
    two = ff.from_int(2)
    f1 = a / (b * b)
    f2 = two / b
    assert f1 + f2 == (a + two * b) / (b * b)


def test_lift_and_evaluate(ff):
    x = ff.lift(Fraction(-3, 4))
    assert x.evaluate((Fraction(0), Fraction(0))) == Fraction(-3, 4)
    a = ff.param("a")
    g = (a + ff.one()) / a
    assert g.evaluate((Fraction(1), Fraction(9))) == 2
    with pytest.raises(DenominatorVanishes):
        g.evaluate((Fraction(0), Fraction(1)))


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
            num, den = rows[0][0], poly(r)
            if den and naive_pp_eval(den, scalars, base):
                ff = FunctionField(base, ("a", "b", "c")[:r])
                assert ff.from_ppoly(num, den).evaluate(scalars) == naive_pp_eval(
                    num, scalars, base
                ) / naive_pp_eval(den, scalars, base)


def test_function_field_over_prime_field():
    F = GF(5)
    ff = FunctionField(F, ("t",))
    t = ff.param("t")
    x = (t + ff.one()) / (ff.from_int(2) * t)
    # denominator monic
    assert x.den == {(1,): 1}
    assert x.num == {(1,): 3, (0,): 3}
    assert x.evaluate((F.from_int(1),)) == F.from_int(1)


def test_pp_gcd_includes_content():
    assert pp_gcd({(1, 0): 2}, {(2, 0): 4}, 0) == {(1, 0): 2}
    assert pp_gcd({(1, 0): 6}, {(0, 1): 1}, 0) == {(0, 0): 1}
    sq = pp_mul({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): 1}, 0)
    assert pp_gcd(sq, {(1, 0): 1, (0, 1): 1}, 0) == {(1, 0): 1, (0, 1): 1}
    assert pp_gcd({}, {(1, 0): -2}, 0) == {(1, 0): 2}


def test_pp_divexact_raises_when_not_exact():
    with pytest.raises(ArithmeticError):
        pp_divexact({(1,): 1}, {(0,): 2}, 0)
    with pytest.raises(ArithmeticError):
        pp_divexact({(2,): 1, (0,): 1}, {(1,): 1}, 0)


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
        lcm = pp_lcm(ac, bc, 0)
        pp_divexact(lcm, ac, 0)
        pp_divexact(lcm, bc, 0)


@settings(max_examples=60, deadline=None)
@given(_smallpoly, _smallpoly)
def test_field_axioms_random(fa, fb):
    ff = FunctionField(QQ, ("a", "b"))
    one = pp_const(1, 2, 0)
    x = ff.from_ppoly(fa, one)
    y = ff.from_ppoly(fb, one)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) - y == x
    if y:
        assert (x / y) * y == x
    z = ff.from_int(3)
    assert (x + y) * z == x * z + y * z


def test_primitive_part():
    assert pp_primitive({(1, 0): -4, (0, 0): -6}, 0) == {(1, 0): 2, (0, 0): 3}
    assert pp_primitive({(1,): 3}, 7) == {(1,): 1}
