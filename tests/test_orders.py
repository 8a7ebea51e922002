import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmult import MonomialOrder, RingMismatch

_exp = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
_orders = st.sampled_from(
    [
        MonomialOrder("glex"),
        MonomialOrder("grevlex"),
        MonomialOrder("lex"),
        MonomialOrder("glex", (2, 0, 1)),
        MonomialOrder("grevlex", (1, 2, 0)),
        MonomialOrder("lex", (2, 1, 0)),
    ]
)


def test_compare_spec_examples():
    glex = MonomialOrder("glex")
    # 1/xy^3 before 1/x^2y^2, and 1/x^2y^2 before 1/x^4y
    assert glex.compare((0, 2), (1, 1)) == -1
    assert glex.compare((0, 0), (0, 0)) == 0
    assert glex.compare((1, 1), (3, 0)) == -1


def test_precedence_permutation():
    # y stronger than x
    o = MonomialOrder("glex", (1, 0))
    assert o.compare((1, 1), (0, 2)) == -1
    with pytest.raises(ValueError):
        MonomialOrder("glex", (0, 0))
    with pytest.raises(ValueError):
        MonomialOrder("superlex")


def test_length_mismatch():
    with pytest.raises(RingMismatch):
        MonomialOrder("glex").compare((1, 0), (1, 0, 0))
    with pytest.raises(RingMismatch):
        MonomialOrder("glex", (0, 1)).compare((1, 0, 0), (0, 1, 0))


def test_grevlex_vs_glex_differ():
    # x*z vs y^2 under x > y > z: glex says xz > y^2? both deg 2;
    # glex: compare x-exponents: (1,0,1) > (0,2,0). grevlex: last nonzero of
    # difference (1,-2,1) is positive -> (1,0,1) < (0,2,0).
    glex = MonomialOrder("glex")
    grevlex = MonomialOrder("grevlex")
    assert glex.compare((1, 0, 1), (0, 2, 0)) == 1
    assert grevlex.compare((1, 0, 1), (0, 2, 0)) == -1


@settings(max_examples=150, deadline=None)
@given(_orders, _exp, _exp)
def test_totality_antisymmetry(order, a, b):
    c1 = order.compare(a, b)
    c2 = order.compare(b, a)
    assert c1 == -c2
    assert (c1 == 0) == (a == b)


@settings(max_examples=150, deadline=None)
@given(_orders, _exp, _exp, _exp)
def test_transitivity(order, a, b, c):
    if order.compare(a, b) <= 0 and order.compare(b, c) <= 0:
        assert order.compare(a, c) <= 0


@settings(max_examples=150, deadline=None)
@given(_orders, _exp)
def test_one_is_minimal(order, a):
    assert order.compare((0, 0, 0), a) <= 0


@settings(max_examples=150, deadline=None)
@given(_orders, _exp, _exp, _exp)
def test_translation_invariance(order, a, b, gamma):
    shifted_a = tuple(x + g for x, g in zip(a, gamma))
    shifted_b = tuple(x + g for x, g in zip(b, gamma))
    assert order.compare(a, b) == order.compare(shifted_a, shifted_b)


def test_sorted_desc_and_min():
    glex = MonomialOrder("glex")
    exps = [(0, 2), (3, 0), (1, 1)]
    assert sorted(exps, key=glex.key, reverse=True) == [(3, 0), (1, 1), (0, 2)]
    assert glex.min(exps) == (0, 2)
