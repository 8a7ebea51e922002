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
    Terms,
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
from tests.frozen_staircase import frozen_gamma_candidates, frozen_initial_staircase

GLEX = MonomialOrder("glex")


def _layout(nvars, order=GLEX):
    """A packed layout whose fields hold the small exponents of these tests."""
    return Terms(nvars, order, 15)


def _staircase(T, corners):
    """The staircase spanned by exponent-tuple corners, packed by T."""
    return Staircase(T, [T.pack(c) for c in corners])


def _initial(supports, nvars, max_size=None, order=GLEX):
    """initial_staircase on exponent-tuple supports: (layout, staircase,
    points unpacked)."""
    T = _layout(nvars, order)
    st_, pts = initial_staircase([{T.pack(e) for e in sup} for sup in supports], T, max_size)
    return T, st_, [T.unpack(p) for p in pts]


def _tuples(T, packed):
    """A set of packed terms as exponent tuples."""
    return {T.unpack(p) for p in packed}


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
    _, st1, pts1 = _initial([{(3, 0)}, {(0, 2)}, {(1, 1)}], 2)
    assert set(pts1) == {(0, 0), (1, 0), (2, 0), (0, 1)}
    _, st2, pts2 = _initial([{(1, 0)}, {(0, 1)}], 2)
    assert pts2 == [(0, 0)]
    _, st3, pts3 = _initial([{(2, 0)}, {(0, 2)}], 2)
    assert len(pts3) == 4
    with pytest.raises(NotZeroDimensional):
        _initial([{(1, 0)}], 2)


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
            T, st_, pts = _initial(supports, nvars)
            want, corners = _box_staircase(supports, nvars)
            assert pts == want and set(want) == _tuples(T, st_.members())
            assert _tuples(T, st_.corners) == corners
            assert st_.min_generators() == _staircase(T, corners).min_generators()
            assert _initial(supports, nvars, len(want))[2] == want
            with pytest.raises(CapExceeded):
                _initial(supports, nvars, len(want) - 1)


def test_socle_candidates_spec_examples():
    T, st1, _ = _initial([{(3, 0)}, {(0, 2)}, {(1, 1)}], 2)
    assert _tuples(T, socle_candidates(st1)) == {(3, 0), (0, 2), (1, 1)}
    origin = _staircase(T, [(0, 0)])
    assert _tuples(T, socle_candidates(origin)) == {(0, 1), (1, 0)}
    bigger = st1.with_corner(T.pack((3, 0)))
    assert _tuples(T, socle_candidates(bigger)) == {(4, 0), (0, 2), (1, 1)}


def test_span_of_terms_spec_examples():
    T = _layout(2)
    single = DualElement(QQ, 2, {(0, 0): Fraction(1)})
    assert _tuples(T, span_of_terms([single], T).corners) == {(0, 0)}
    ff = FunctionField(QQ, ("a", "b"))
    xi = DualElement(ff, 2, {(3, 0): ff.param("a"), (1, 1): -ff.one(), (0, 2): ff.param("b")})
    assert _tuples(T, span_of_terms([xi], T).corners) == {(3, 0), (1, 1), (0, 2)}
    assert span_of_terms([], T).corners == frozenset()
    assert span_of_terms([], T).size() == 0


def test_gamma_candidates_spec_examples():
    T, t1, _ = _initial([{(3, 0)}, {(0, 2)}, {(1, 1)}], 2)
    assert [T.unpack(p) for p in gamma_candidates(t1, t1, T.pack((3, 0)))] == [(1, 1), (0, 2)]
    assert gamma_candidates(t1, t1, T.pack((0, 2))) == []
    # the empty answer needs y stronger than x; under x-major glex the
    # remaining socle term 1/xy^2 qualifies
    Y = _layout(2, MonomialOrder("glex", (1, 0)))
    y_origin = _staircase(Y, [(0, 0)])
    assert gamma_candidates(y_origin, y_origin, Y.pack((1, 0))) == []
    origin = _staircase(T, [(0, 0)])
    assert [T.unpack(p) for p in gamma_candidates(origin, origin, T.pack((1, 0)))] == [(0, 1)]


def test_gamma_candidates_requires_tau0_outside():
    T = _layout(2)
    origin = _staircase(T, [(0, 0)])
    with pytest.raises(InternalInconsistency):
        gamma_candidates(origin, origin, T.pack((0, 0)))


def test_staircase_membership_and_size():
    T = _layout(2)
    st1 = _staircase(T, [(2, 0), (0, 1)])
    assert st1.contains(T.pack((1, 0))) and st1.contains(T.pack((0, 1)))
    assert not st1.contains(T.pack((1, 1)))
    assert st1.size() == 4
    assert _staircase(_layout(3), [(1, 1, 1)]).size() == 8


def test_staircase_corner_pruning():
    T = _layout(2)
    st1 = _staircase(T, [(1, 0), (2, 0), (0, 1)])
    assert _tuples(T, st1.corners) == {(2, 0), (0, 1)}


def test_staircases_compare_by_layout_value_and_points():
    """Staircases built on separately made layouts that pack alike compare
    equal and hash alike; a layout of another width, order or nvars does not
    pack alike, and its staircase on the same points compares apart."""
    corners = [(2, 0), (0, 1)]
    a, b = _layout(2), _layout(2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert _staircase(a, corners) == _staircase(b, corners)
    assert hash(_staircase(a, corners)) == hash(_staircase(b, corners))
    assert _staircase(a, corners) != _staircase(a, [(1, 0), (0, 1)])
    assert Terms(2, GLEX, 14) == a  # same width: 14 and 15 need four bits
    for other in (Terms(2, GLEX, 16), _layout(2, MonomialOrder("lex")), _layout(3)):
        assert other != a
    wide = Terms(2, GLEX, 16)
    assert _staircase(wide, corners) != _staircase(a, corners)
    assert _tuples(wide, _staircase(wide, corners).members()) == _tuples(
        a, _staircase(a, corners).members()
    )


_gens = st.sets(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any), min_size=1, max_size=4
)


@settings(max_examples=80, deadline=None)
@given(_gens)
def test_staircase_size_matches_oracle(gens):
    gens = set(gens) | {(4, 0), (0, 4)}
    _, st_, pts = _initial([gens], 2)
    assert st_.size() == monomial_length(gens) == len(pts)


@settings(max_examples=80, deadline=None)
@given(_gens)
def test_socle_candidates_are_outer_border(gens):
    gens = set(gens) | {(4, 0), (0, 4)}
    T, st_, _ = _initial([gens], 2)
    for cand in _tuples(T, socle_candidates(st_)):
        assert not st_.contains(T.pack(cand))
        for i in range(2):
            if cand[i]:
                down = cand[:i] + (cand[i] - 1,) + cand[i + 1 :]
                assert st_.contains(T.pack(down))


def _corner_grid_min_generators(st_):
    """Reference: scan the grid whose coordinates are 0 or corner_i + 1;
    exponent tuples."""
    nvars = st_.terms.nvars
    corners = _tuples(st_.terms, st_.corners)
    if not corners:
        return {(0,) * nvars}

    def inside(beta):
        return any(all(b <= c for b, c in zip(beta, corner)) for corner in corners)

    axes = [sorted({0} | {c[i] + 1 for c in corners}) for i in range(nvars)]
    return {
        beta
        for beta in itertools.product(*axes)
        if not inside(beta)
        and all(
            inside(beta[:i] + (beta[i] - 1,) + beta[i + 1 :])
            for i in range(nvars)
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
    T = _layout(nvars)
    st_ = _staircase(T, corners)
    assert _tuples(T, st_.min_generators()) == _corner_grid_min_generators(st_)
    members = {
        beta
        for beta in itertools.product(range(5), repeat=nvars)
        if any(all(b <= c for b, c in zip(beta, corner)) for corner in corners)
    }
    assert _tuples(T, st_.members()) == members
    assert all(st_.contains(T.pack(beta)) for beta in members)


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
    T = _layout(nvars)
    grown = _staircase(T, corners)
    spanned = set(corners)
    for terms in batches:
        grown = grown.extended([T.pack(e) for e in terms])
        spanned |= terms
        fresh = _staircase(T, spanned)
        assert grown == fresh
        assert grown.members() == fresh.members()
        assert _tuples(T, grown.min_generators()) == _corner_grid_min_generators(fresh)
        # the corners are derived, not kept: they are the maxima of the span
        maxima = {
            c
            for c in spanned
            if not any(c != d and all(x <= y for x, y in zip(c, d)) for d in spanned)
        }
        assert grown.corners == fresh.corners
        assert _tuples(T, grown.corners) == maxima


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


def _outcome(fn, *args):
    """(result, None), or (None, (error type, message)) for the errors a
    staircase may raise."""
    try:
        return fn(*args), None
    except (CapExceeded, NotZeroDimensional) as err:
        return None, (type(err), str(err))


def test_packed_staircase_matches_the_frozen_tuple_code():
    """The packed staircase code, unpacked, finds what the tuple code it
    replaced found: the points in their order, the corners, the minimal
    generators, extensions and the order of gamma_candidates, and it raises
    the same CapExceeded and NotZeroDimensional; random supports in 1-4
    variables under glex, grevlex and lex, with and without precedence."""
    rng = random.Random(89)
    compared, raised = 0, set()
    for trial in range(360):
        nvars = rng.randint(1, 4)
        prec = tuple(rng.sample(range(nvars), nvars)) if trial % 2 else None
        order = MonomialOrder(("glex", "grevlex", "lex")[trial // 2 % 3], prec)
        T = _layout(nvars, order)
        supports = [
            {tuple(rng.randint(1, 4) if j == i else 0 for j in range(nvars))}
            for i in range(nvars)
            if trial % 11 or i
        ]
        for _ in range(rng.randint(0, 4)):
            supports.append(
                {tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(rng.randint(1, 3))}
            )
        supports = [sup for sup in supports if any(map(any, sup))]
        max_size = rng.choice([None, None, rng.randint(1, 40)])
        frozen, error = _outcome(frozen_initial_staircase, supports, nvars, max_size)
        packed, packed_error = _outcome(
            initial_staircase, [{T.pack(e) for e in sup} for sup in supports], T, max_size
        )
        assert packed_error == error
        if error:
            raised.add(error[0])
            continue
        (fst, fpts), (st_, pts) = frozen, packed
        assert [T.unpack(p) for p in pts] == fpts
        assert _tuples(T, st_.corners) == fst.corners
        assert _tuples(T, st_.min_generators()) == fst.min_generators()
        # a run's growth: the LT staircase gains minimal generators, T2 gains
        # terms of its colon
        fltn, ft2, ltn, t2 = fst, fst, st_, st_
        for _ in range(3):
            gens = sorted(fltn.min_generators())
            tau0 = rng.choice(gens)
            want = frozen_gamma_candidates(ft2, fltn, order, tau0)
            assert [T.unpack(p) for p in gamma_candidates(t2, ltn, T.pack(tau0))] == want
            extra = rng.sample(want, min(len(want), 2)) + [tau0]
            fltn, ltn = fltn.with_corner(tau0), ltn.with_corner(T.pack(tau0))
            ft2, t2 = ft2.extended(extra), t2.extended([T.pack(e) for e in extra])
            for packed_st, tuple_st in ((ltn, fltn), (t2, ft2)):
                assert _tuples(T, packed_st.members()) == tuple_st.members()
                assert _tuples(T, packed_st.min_generators()) == tuple_st.min_generators()
                assert _tuples(T, packed_st.corners) == tuple_st.corners
            compared += 1
    assert compared >= 600 and raised == {CapExceeded, NotZeroDimensional}, (compared, raised)
