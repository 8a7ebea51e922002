import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsmult import (
    QQ,
    DualElement,
    FunctionField,
    InternalInconsistency,
    MonomialOrder,
    NotZeroDimensional,
    SparsePoly,
    Staircase,
    ZeroElement,
    act,
    gamma_candidates,
    initial_staircase,
    leading,
    socle_candidates,
    span_of_terms,
)
from hsmult.errors import CapExceeded
from hsmult.oracles import monomial_length


def test_act_spec_examples(P, glex):
    x3 = SparsePoly.monomial(QQ, (3, 0))
    assert act(x3, (3, 0)).coeffs == {(0, 0): Fraction(1)}
    xy = SparsePoly.monomial(QQ, (1, 1))
    assert not act(xy, (3, 0))
    ff = FunctionField(QQ, ("a",))
    a = ff.param("a")
    f = SparsePoly(ff, 2, {(3, 0): ff.one(), (1, 1): a})
    assert act(f, (1, 1)).coeffs == {(0, 0): a}


def test_leading_spec_examples(glex):
    ff = FunctionField(QQ, ("a", "b"))
    a, b = ff.param("a"), ff.param("b")
    eta = DualElement(ff, 2, {(3, 0): a, (1, 1): -ff.one(), (0, 2): b})
    lt, lc = leading(eta, glex)
    assert lt == (3, 0) and lc == a
    single = DualElement(QQ, 2, {(0, 0): Fraction(5)})
    assert leading(single, glex) == ((0, 0), Fraction(5))
    eta2 = DualElement(QQ, 2, {(0, 2): Fraction(1), (1, 1): Fraction(1)})
    assert leading(eta2, glex) == ((1, 1), Fraction(1))
    with pytest.raises(ZeroElement):
        leading(DualElement(QQ, 2, {}), glex)


def test_initial_staircase_spec_examples():
    st1, pts1 = initial_staircase([{(3, 0)}, {(0, 2)}, {(1, 1)}], 2)
    assert set(pts1) == {(0, 0), (1, 0), (2, 0), (0, 1)}
    st2, pts2 = initial_staircase([{(1, 0)}, {(0, 1)}], 2)
    assert pts2 == [(0, 0)]
    st3, pts3 = initial_staircase([{(2, 0)}, {(0, 2)}], 2)
    assert len(pts3) == 4
    with pytest.raises(NotZeroDimensional):
        initial_staircase([{(1, 0)}], 2)


def _box_staircase(supports, nvars):
    """Reference: every point of the pure-power bounding box that no
    generator divides, in canonical order, and the corners among them."""
    gens = {tuple(e) for sup in supports for e in sup}
    bounds = [
        min(g[i] for g in gens if all(g[j] == 0 for j in range(nvars) if j != i))
        for i in range(nvars)
    ]
    pts = [
        p
        for p in itertools.product(*(range(b) for b in bounds))
        if not any(all(a <= b for a, b in zip(g, p)) for g in gens)
    ]
    pts.sort(key=lambda e: (sum(e), e))
    corners = {
        p
        for p in pts
        if all(p[:i] + (p[i] + 1,) + p[i + 1 :] not in pts for i in range(nvars))
    }
    return pts, corners


def test_initial_staircase_matches_the_bounding_box_reference():
    """The walk up from the origin finds the points, their order, the
    corners and the minimal generators that enumerating the box finds."""
    rng = random.Random(61)
    for _ in range(150):
        nvars = rng.choice([1, 2, 3, 4])
        supports = [
            {tuple(rng.randint(2, 6) if j == i else 0 for j in range(nvars))}
            for i in range(nvars)
        ]
        for _ in range(rng.randint(0, 5)):
            supports.append(
                {tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(rng.randint(1, 3))}
            )
        if not any((0,) * nvars in sup for sup in supports):
            st_, pts = initial_staircase(supports, nvars)
            want, corners = _box_staircase(supports, nvars)
            assert pts == want and set(want) == st_.members()
            assert st_.corners == corners
            assert st_.min_generators() == Staircase(nvars, corners).min_generators()
            assert initial_staircase(supports, nvars, len(want))[1] == want
            with pytest.raises(CapExceeded):
                initial_staircase(supports, nvars, len(want) - 1)


def test_socle_candidates_spec_examples():
    st1, _ = initial_staircase([{(3, 0)}, {(0, 2)}, {(1, 1)}], 2)
    assert sorted(socle_candidates(st1)) == sorted([(3, 0), (0, 2), (1, 1)])
    origin = Staircase(2, [(0, 0)])
    assert sorted(socle_candidates(origin)) == [(0, 1), (1, 0)]
    bigger = st1.with_corner((3, 0))
    assert sorted(socle_candidates(bigger)) == sorted([(4, 0), (0, 2), (1, 1)])


def test_span_of_terms_spec_examples():
    single = DualElement(QQ, 2, {(0, 0): Fraction(1)})
    assert span_of_terms([single]).corners == frozenset({(0, 0)})
    ff = FunctionField(QQ, ("a", "b"))
    xi = DualElement(ff, 2, {(3, 0): ff.param("a"), (1, 1): -ff.one(), (0, 2): ff.param("b")})
    assert span_of_terms([xi]).corners == frozenset({(3, 0), (1, 1), (0, 2)})
    assert span_of_terms([], nvars=2).corners == frozenset()
    assert span_of_terms([], nvars=2).size() == 0


def test_gamma_candidates_spec_examples(glex):
    t1, _ = initial_staircase([{(3, 0)}, {(0, 2)}, {(1, 1)}], 2)
    assert gamma_candidates(t1, t1, glex, (3, 0)) == [(1, 1), (0, 2)]
    assert gamma_candidates(t1, t1, glex, (0, 2)) == []
    origin = Staircase(2, [(0, 0)])
    # the empty answer needs y stronger than x; under x-major glex the
    # remaining socle term 1/xy^2 qualifies
    y_major = MonomialOrder("glex", (1, 0))
    assert gamma_candidates(origin, origin, y_major, (1, 0)) == []
    assert gamma_candidates(origin, origin, glex, (1, 0)) == [(0, 1)]


def test_gamma_candidates_requires_tau0_outside():
    origin = Staircase(2, [(0, 0)])
    with pytest.raises(InternalInconsistency):
        gamma_candidates(origin, origin, MonomialOrder("glex"), (0, 0))


def test_staircase_membership_and_size():
    st1 = Staircase(2, [(2, 0), (0, 1)])
    assert st1.contains((1, 0)) and st1.contains((0, 1))
    assert not st1.contains((1, 1))
    assert st1.size() == 4
    assert Staircase(3, [(1, 1, 1)]).size() == 8


def test_staircase_corner_pruning():
    st1 = Staircase(2, [(1, 0), (2, 0), (0, 1)])
    assert st1.corners == frozenset({(2, 0), (0, 1)})


_gens = st.sets(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any), min_size=1, max_size=4
)


@settings(max_examples=80, deadline=None)
@given(_gens)
def test_staircase_size_matches_oracle(gens):
    gens = set(gens) | {(4, 0), (0, 4)}
    st_, pts = initial_staircase([gens], 2)
    assert st_.size() == monomial_length(gens) == len(pts)


@settings(max_examples=80, deadline=None)
@given(_gens)
def test_socle_candidates_are_outer_border(gens):
    gens = set(gens) | {(4, 0), (0, 4)}
    st_, _ = initial_staircase([gens], 2)
    for cand in socle_candidates(st_):
        assert not st_.contains(cand)
        for i in range(2):
            if cand[i]:
                down = cand[:i] + (cand[i] - 1,) + cand[i + 1 :]
                assert st_.contains(down)


def _corner_grid_min_generators(st_):
    """Reference: scan the grid whose coordinates are 0 or corner_i + 1."""
    if not st_.corners:
        return {(0,) * st_.nvars}

    def inside(beta):
        return any(all(b <= c for b, c in zip(beta, corner)) for corner in st_.corners)

    axes = [sorted({0} | {c[i] + 1 for c in st_.corners}) for i in range(st_.nvars)]
    return {
        beta
        for beta in itertools.product(*axes)
        if not inside(beta)
        and all(
            inside(beta[:i] + (beta[i] - 1,) + beta[i + 1 :])
            for i in range(st_.nvars)
            if beta[i]
        )
    }


@settings(max_examples=120, deadline=None)
@example((1, set()))
@example((4, set()))
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.sets(st.tuples(*[st.integers(0, 3)] * n), max_size=4).map(
            lambda corners: (n, corners)
        )
    )
)
def test_min_generators_match_corner_grid_scan(case):
    nvars, corners = case
    st_ = Staircase(nvars, corners)
    assert st_.min_generators() == _corner_grid_min_generators(st_)
    members = {
        beta
        for beta in itertools.product(range(5), repeat=nvars)
        if any(all(b <= c for b, c in zip(beta, corner)) for corner in corners)
    }
    assert st_.members() == members
    assert all(st_.contains(beta) for beta in members)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.tuples(*[st.integers(0, 3)] * n), max_size=3),
            st.lists(st.sets(st.tuples(*[st.integers(0, 3)] * n), max_size=3), max_size=3),
        )
    )
)
def test_extended_staircase_matches_fresh_one(case):
    nvars, corners, batches = case
    grown = Staircase(nvars, corners)
    spanned = set(corners)
    for terms in batches:
        grown = grown.extended(terms)
        spanned |= terms
        fresh = Staircase(nvars, spanned)
        assert grown == fresh
        assert grown.members() == fresh.members()
        assert grown.min_generators() == _corner_grid_min_generators(fresh)
        # the corners are derived, not kept: they are the maxima of the span
        maxima = {
            c
            for c in spanned
            if not any(c != d and all(x <= y for x, y in zip(c, d)) for d in spanned)
        }
        assert grown.corners == fresh.corners == maxima


def _random_poly(rng, field, nvars, maxdeg=3, nterms=3):
    coeffs = {}
    for _ in range(rng.randint(1, nterms)):
        e = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        coeffs[e] = field.from_int(rng.randint(-3, 3))
    return SparsePoly(field, nvars, coeffs)


def _random_dual(rng, field, nvars, maxdeg=3, nterms=3):
    coeffs = {}
    for _ in range(rng.randint(1, nterms)):
        e = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        coeffs[e] = field.from_int(rng.randint(-3, 3))
    return DualElement(field, nvars, coeffs)


def test_act_is_bilinear_and_compatible():
    rng = random.Random(11)
    for _ in range(40):
        f = _random_poly(rng, QQ, 2)
        g = _random_poly(rng, QQ, 2)
        eta = _random_dual(rng, QQ, 2)
        assert act(f + g, eta) == act(f, eta) + act(g, eta)
        gamma = tuple(rng.randint(0, 2) for _ in range(2))
        mono = SparsePoly.monomial(QQ, gamma)
        assert act(mono * f, eta) == act(f, act(mono, eta))


def test_lt_multiplicativity(glex):
    # LT(x_i . eta) = x_i . LT(eta) whenever the action on the LT is nonzero
    rng = random.Random(13)
    for _ in range(60):
        eta = _random_dual(rng, QQ, 2)
        if not eta:
            continue
        lt, _ = leading(eta, glex)
        for i in range(2):
            if lt[i] == 0:
                continue
            xi = SparsePoly.variable(QQ, 2, i)
            moved = act(xi, eta)
            if moved:
                expected = lt[:i] + (lt[i] - 1,) + lt[i + 1 :]
                got, _ = leading(moved, glex)
                assert got == expected
