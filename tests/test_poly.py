from fractions import Fraction

import pytest

from hsmult import (
    GF,
    QQ,
    DualElement,
    FunctionField,
    RingMismatch,
    SparsePoly,
    lift_poly,
    substitute_params,
)


def test_add_cancels(P):
    x = SparsePoly.variable(QQ, 2, 0)
    y = SparsePoly.variable(QQ, 2, 1)
    assert (x + y) + (-x) == y


def test_mul(P):
    x = SparsePoly.variable(QQ, 2, 0)
    y = SparsePoly.variable(QQ, 2, 1)
    assert (x * y).coeffs == {(1, 1): Fraction(1)}


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_zero_scalar_makes_a_zero_term(field):
    """A zero scalar, also 5 over GF(5), gives zero; no scalar gives 1."""
    for zero in (field.zero(), field.from_int(5 if field.char else 0)):
        assert SparsePoly.monomial(field, (1, 2), zero).coeffs == {}
        assert DualElement.term(field, (1, 2), zero).coeffs == {}
    assert SparsePoly.monomial(field, (1, 2)).coeffs == {(1, 2): field.one()}
    assert DualElement.term(field, (1, 2)).coeffs == {(1, 2): field.one()}


def test_scalar_mul_over_function_field():
    ff = FunctionField(QQ, ("t",))
    t = ff.param("t")
    x2 = SparsePoly.monomial(ff, (2,))
    assert x2.scale(t).coeffs == {(2,): t}


def test_zero_pruning_and_insertion_order(P):
    """There is no canonical iteration: polynomials built in different
    insertion orders are equal, hash equal and print the same."""
    p = P(QQ, 2, {(1, 0): 1, (0, 1): 0, (2, 0): 2})
    assert (0, 1) not in p.coeffs
    terms = {(0, 0): -1, (1, 0): 1, (2, 0): 2, (1, 2): Fraction(-3, 4), (0, 3): 5}
    orders = [list(terms), list(reversed(terms)), sorted(terms, key=lambda e: e[::-1])]
    polys = [P(QQ, 2, {e: terms[e] for e in keys}) for keys in orders]
    assert [list(q.coeffs) for q in polys] == orders
    assert all(q == polys[0] and hash(q) == hash(polys[0]) for q in polys)
    assert {q.to_str(["x", "y"]) for q in polys} == {"-(3/4)*x*y^2 + 5*y^3 + 2*x^2 + x - 1"}
    x, y = (SparsePoly.variable(QQ, 2, i) for i in range(2))
    assert (x + y) * (x - y) == x * x - y * y
    assert ((x + y) * (x - y)).to_str(["x", "y"]) == (x * x - y * y).to_str(["x", "y"])


def test_ring_mismatch(P):
    p = P(QQ, 2, {(1, 0): 1})
    q = P(QQ, 3, {(1, 0, 0): 1})
    with pytest.raises(RingMismatch):
        p + q
    r = P(GF(5), 2, {(1, 0): 1})
    with pytest.raises(RingMismatch):
        p + r


def test_pow():
    x = SparsePoly.variable(QQ, 1, 0)
    one = SparsePoly.constant(QQ, 1, Fraction(1))
    assert (one + x) ** 3 == P3()
    assert x**0 == one


def P3():
    return SparsePoly(
        QQ, 1, {(0,): Fraction(1), (1,): Fraction(3), (2,): Fraction(3), (3,): Fraction(1)}
    )


def test_substitute_params_examples(P):
    ff = FunctionField(QQ, ("t",))
    t = ff.param("t")
    p = SparsePoly(ff, 2, {(3, 0): ff.one(), (1, 1): t})
    s1 = substitute_params(p, {"t": Fraction(1)})
    assert s1.coeffs == {(3, 0): Fraction(1), (1, 1): Fraction(1)}
    s0 = substitute_params(p, {"t": Fraction(0)})
    assert s0.coeffs == {(3, 0): Fraction(1)}
    half = SparsePoly(ff, 2, {(1, 0): t / ff.from_int(2)})
    assert substitute_params(half, {"t": Fraction(3)}).coeffs == {(1, 0): Fraction(3, 2)}


def test_lift_poly_round(P):
    ff = FunctionField(QQ, ("t",))
    p = P(QQ, 2, {(1, 0): 1, (0, 1): -2})
    lifted = lift_poly(p, ff)
    assert lifted.field == ff
    back = substitute_params(lifted, {"t": Fraction(5)})
    assert back == p


def test_to_str_and_degrees(P):
    p = P(QQ, 2, {(2, 1): 1, (0, 0): -3, (1, 0): Fraction(1, 2)})
    s = p.to_str(("x", "y"))
    assert s == "x^2*y + (1/2)*x - 3"
    assert p.total_degree() == 3
    assert p.min_degree() == 0
    assert p.constant_term() == Fraction(-3)
