import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmult import (
    GF,
    QQ,
    ExactMatrix,
    FunctionField,
    InternalInconsistency,
    ProblemInstance,
    SearchExhausted,
    SparsePoly,
    certify,
    find_reduction,
    generic_generators,
    is_in_integral_closure,
    length_verified_certificate,
    membership,
    multiplicity,
    rank,
    verify_reduction_by_length,
)
from hsmult.errors import NotStabilized, NotZeroDimensional
from hsmult.exprparse import parse_generator
from hsmult.instance import parse_instance
from hsmult.modp import DEFAULT_PRIMES, ModpStats
from hsmult.oracles import vector_space_length
from hsmult.reduction import _colength_at, _mod_prime, param_names, reduction_generators
from hsmult.scalars import GFElement
from hsmult.series import RationalSeries
from tests.conftest import FIXTURES, load_instance, make_poly, naive_pp_eval, plain


def test_param_names_indexing():
    assert param_names(2, 3) == ("t_1_3", "t_2_3")
    assert param_names(3, 4) == ("t_1_4", "t_2_4", "t_3_4")
    assert param_names(2, 4) == ("t_1_3", "t_1_4", "t_2_3", "t_2_4")
    assert param_names(2, 2) == ()
    # made once per shape, so every instance of it shares the names
    assert param_names(2, 4) is param_names(2, 4)


def test_generic_generators_example1(example1):
    gens, ff = generic_generators(example1)
    assert isinstance(ff, FunctionField)
    assert ff.params == ("t_1_3", "t_2_3")
    a, b = ff.param("t_1_3"), ff.param("t_2_3")
    assert gens[0].coeffs == {(3, 0): ff.one(), (1, 1): a}
    assert gens[1].coeffs == {(0, 2): ff.one(), (1, 1): b}
    assert len(gens) == 2


def test_generic_generators_m_equals_d(glex):
    x = SparsePoly.variable(QQ, 2, 0)
    y = SparsePoly.variable(QQ, 2, 1)
    inst = ProblemInstance(
        base=QQ, nvars=2, var_names=("x", "y"), i_gens=(), j_gens=(x, y), d=2, order=glex
    )
    gens, field = generic_generators(inst)
    assert field is QQ
    assert gens == [x, y]


def test_generic_generators_four_gens_dim3(example2):
    gens, ff = generic_generators(example2)
    assert ff.params == ("t_1_4", "t_2_4", "t_3_4")
    # each combined generator is f_i + t_i_4 * f_4
    f4 = example2.j_gens[3]
    for i in range(3):
        t = ff.param(f"t_{i + 1}_4")
        for e, c in f4.coeffs.items():
            got = gens[i].coeffs[e] if e in gens[i].coeffs else ff.zero()
            assert got == t * ff.lift(c) or (e in example2.j_gens[i].coeffs)


def test_multiplicity_example1(example1):
    res = multiplicity(example1)
    assert res.e == 5
    assert res.polylist_strings() == ["t_1_3"]
    assert len(res.matlist) == 3


def test_multiplicity_trivial_maximal_ideal(glex):
    x = SparsePoly.variable(QQ, 2, 0)
    y = SparsePoly.variable(QQ, 2, 1)
    inst = ProblemInstance(
        base=QQ, nvars=2, var_names=("x", "y"), i_gens=(), j_gens=(x, y), d=2, order=glex
    )
    res = multiplicity(inst)
    assert res.e == 1
    assert res.polylist == [] and res.matlist == []


def test_multiplicity_m_squared(glex):
    gens = tuple(SparsePoly.monomial(QQ, e) for e in [(2, 0), (1, 1), (0, 2)])
    inst = ProblemInstance(
        base=QQ, nvars=2, var_names=("x", "y"), i_gens=(), j_gens=gens, d=2, order=glex
    )
    assert multiplicity(inst).e == 4


def test_multiplicity_examples_2_3_4(example2, example3, example4):
    assert multiplicity(example2).e == 18
    assert multiplicity(example3).e == 10
    assert multiplicity(example4).e == 24


def test_certify_example1(example1):
    res = multiplicity(example1)
    assert certify(((1,), (1,)), res) is True
    assert certify(((0,), (5,)), res) is False
    # the third rejected matrix has determinant -a^2 b: b = 0 is degenerate
    assert certify(((1,), (0,)), res) is False


def _reference_certify(a, res):
    """certify recomputed term by term: PolyList values, then the rank of each
    MatList matrix evaluated entry by entry."""
    base = res.base
    values = [base.from_int(v) for row in a for v in row]
    if not all(naive_pp_eval(q, values, base) for q in res.polylist):
        return False
    for M in res.matlist:
        rows = tuple(
            tuple(plain(naive_pp_eval(e, values, base)) for e in row) for row in M.grid
        )
        if rank(ExactMatrix(base, rows, M.ncols)) != M.ncols:
            return False
    return True


def test_certify_matches_term_by_term_reference():
    rng = random.Random(71)
    verdicts = set()
    names = sorted(f.name for f in FIXTURES.glob("*.json") if f.name != "series_geometric.json")
    chars = set()
    for name in names:
        inst = load_instance(name)[0]
        res = multiplicity(inst)
        assert res.params, name
        chars.add(res.base.char)
        d, cols = res.d, res.m - res.d
        size = d * cols
        flats = [(0,) * size, (1,) * size, (-1,) * size]
        flats += [tuple(v if k == i else 0 for k in range(size)) for i in range(size) for v in (1, -2)]
        while len(flats) < 40:
            flats.append(tuple(rng.randint(-3, 3) for _ in range(size)))
        for flat in flats[:40]:
            a = tuple(flat[i * cols : (i + 1) * cols] for i in range(d))
            expected = _reference_certify(a, res)
            assert certify(a, res) is expected, (name, a)
            scalars = tuple(tuple(map(res.base.from_int, row)) for row in a)
            assert certify(scalars, res) is expected, (name, a)
            verdicts.add(expected)
    assert verdicts == {True, False}
    assert chars == {0, 2, 3, 32003}


def test_coefficient_matrices_must_be_exact(example1, example1_gf):
    res_qq, res_gf = multiplicity(example1), multiplicity(example1_gf)
    bad = [
        (example1, res_qq, ((1.5,), (0.5,))),
        (example1, res_qq, ((True,), (1,))),
        (example1, res_qq, ((GFElement(1, 7),), (1,))),
        (example1_gf, res_gf, ((Fraction(1, 2),), (1,))),
        (example1_gf, res_gf, ((Fraction(1),), (1,))),
        (example1_gf, res_gf, ((GFElement(1, 7),), (1,))),
        (example1_gf, res_gf, ((1.0,), (1,))),
        (example1_gf, res_gf, ((1,), (False,))),
    ]
    for inst, res, a in bad:
        with pytest.raises(ValueError):
            certify(a, res)
        with pytest.raises(ValueError):
            verify_reduction_by_length(inst, a, res)
        with pytest.raises(ValueError):
            length_verified_certificate(inst, a, res)
    # ints and scalars of the base field itself are accepted
    assert certify(((Fraction(2, 2),), (1,)), res_qq) is True
    assert certify(((GFElement(1, 32003),), (1,)), res_gf) is True


def test_certify_m_equals_d_is_trivially_true(glex):
    x = SparsePoly.variable(QQ, 2, 0)
    y = SparsePoly.variable(QQ, 2, 1)
    inst = ProblemInstance(
        base=QQ, nvars=2, var_names=("x", "y"), i_gens=(), j_gens=(x, y), d=2, order=glex
    )
    res = multiplicity(inst)
    assert certify(((), ()), res) is True


def test_find_reduction_example1(example1):
    res = multiplicity(example1)
    cert = find_reduction(res)
    # shell order tries (0,0), (0,1), (0,-1), (1,0), then (1,1): the first
    # point satisfying both PolyList (a != 0) and the -a^2 b matrix condition
    assert cert.a == ((Fraction(1),), (Fraction(1),))
    assert cert.mode == "symbolic"
    assert [g.to_str(("x", "y")) for g in cert.generators] == [
        "x^3 + x*y",
        "x*y + y^2",
    ]
    assert verify_reduction_by_length(example1, cert.a, res) is True


def test_find_reduction_m_equals_d(glex):
    x = SparsePoly.variable(QQ, 2, 0)
    y = SparsePoly.variable(QQ, 2, 1)
    inst = ProblemInstance(
        base=QQ, nvars=2, var_names=("x", "y"), i_gens=(), j_gens=(x, y), d=2, order=glex
    )
    cert = find_reduction(multiplicity(inst))
    assert cert.a == ((), ())
    assert cert.generators == (x, y)


def test_find_reduction_exhausts_over_gf2(glex):
    # J = <x^3+x^2+y^2, x^2+y^2, x^2y> over F_2: every point of F_2^2 fails
    # the symbolic certificate (PolyList forces t_1_3 != t_2_3, the rejected
    # matrices kill the rest), and shells only ever hit F_2 points
    F = GF(2)
    gens = (
        make_poly(F, 2, {(3, 0): 1, (2, 0): 1, (0, 2): 1}),
        make_poly(F, 2, {(2, 0): 1, (0, 2): 1}),
        make_poly(F, 2, {(2, 1): 1}),
    )
    inst = ProblemInstance(
        base=F, nvars=2, var_names=("x", "y"), i_gens=(), j_gens=gens, d=2, order=glex
    )
    res = multiplicity(inst)
    for a in range(2):
        for b in range(2):
            assert certify(((a,), (b,)), res) is False
    with pytest.raises(SearchExhausted):
        find_reduction(res, bound=4)


def _counting_certify(monkeypatch):
    """Make find_reduction count its certify calls; returns the list of points."""
    from hsmult import reduction

    points = []

    def counted(a, res):
        points.append(a)
        return certify(a, res)

    monkeypatch.setattr(reduction, "certify", counted)
    return points


def test_find_reduction_certifies_each_residue_point_once(monkeypatch):
    # (x^2, yz, y^2 + xy + z^2, z^2 + xy + xz) over GF(2): no point of GF(2)^3
    # passes, and the 125 matrices of max-norm <= 2 hit only those 8 points
    inst, _ = parse_instance(
        json.dumps(
            {
                "characteristic": 2,
                "variables": ["x", "y", "z"],
                "dim": 3,
                "ideal": ["x^2", "y*z", "y^2+x*y+z^2", "z^2+x*y+x*z"],
            }
        )
    )
    res = multiplicity(inst)
    points = _counting_certify(monkeypatch)
    with pytest.raises(SearchExhausted) as err:
        find_reduction(res, bound=2)
    assert err.value.bound == 2
    assert len(points) == 8
    assert {tuple(v % 2 for row in a for v in row) for a in points} == set(
        itertools.product(range(2), repeat=3)
    )


@pytest.mark.parametrize(
    "name", sorted(p.name for p in FIXTURES.glob("*.json") if p.name != "series_geometric.json")
)
def test_find_reduction_matches_the_search_without_the_skip(name):
    from hsmult.reduction import _shell_matrices

    inst, options = load_instance(name)
    res = multiplicity(inst)
    assert res.params
    bound = options["search_bound"]
    expected = next(
        (
            a
            for s in range(bound + 1)
            for a in _shell_matrices(res.d, res.m - res.d, s)
            if certify(a, res)
        ),
        None,
    )
    if expected is None:
        with pytest.raises(SearchExhausted):
            find_reduction(res, bound)
    else:
        cert = find_reduction(res, bound)
        assert cert.a == tuple(tuple(map(inst.base.from_int, row)) for row in expected)


def test_verify_reduction_by_length_examples(example1):
    res = multiplicity(example1)
    assert verify_reduction_by_length(example1, ((1,), (1,)), res) is True
    # <x^3, y^2> has colength 6, not 5
    assert verify_reduction_by_length(example1, ((0,), (0,)), res) is False
    # b = 0 fails too: <x^3+xy, y^2> has colength 6
    assert verify_reduction_by_length(example1, ((1,), (0,)), res) is False


def test_verify_reduction_monomial_complete_intersection(glex):
    gens = (SparsePoly.monomial(QQ, (2, 0)), SparsePoly.monomial(QQ, (0, 3)))
    inst = ProblemInstance(
        base=QQ, nvars=2, var_names=("x", "y"), i_gens=(), j_gens=gens, d=2, order=glex
    )
    res = multiplicity(inst)
    assert res.e == 6
    assert verify_reduction_by_length(inst, ((), ()), res) is True


def test_verify_reduction_degenerate_point_hits_caps_then_false(glex):
    # a = (0, 0) for J = m^2 leaves <x^2, y^2>... actually <x^2, xy> is not
    # m-primary: NotZeroDimensional at a certify-failing point means False
    gens = (
        SparsePoly.monomial(QQ, (2, 0)),
        SparsePoly.monomial(QQ, (1, 1)),
        SparsePoly.monomial(QQ, (0, 2)),
    )
    inst = ProblemInstance(
        base=QQ, nvars=2, var_names=("x", "y"), i_gens=(), j_gens=gens, d=2, order=glex
    )
    res = multiplicity(inst)
    assert res.e == 4
    assert certify(((0,), (0,)), res) is False
    assert verify_reduction_by_length(inst, ((0,), (0,)), res) is False


def test_specialization_coherence_on_fixtures(example1, example2, example3, example4):
    for inst in (example1, example2, example3, example4):
        res = multiplicity(inst)
        cert = find_reduction(res)
        assert verify_reduction_by_length(inst, cert.a, res) is True


def test_membership_examples(example3, glex):
    xz = make_poly(QQ, 3, {(1, 0, 1): 1})
    assert is_in_integral_closure(example3, xz) is True
    # h in J trivially
    assert is_in_integral_closure(example3, example3.j_gens[0]) is True
    # classic: J = <x^2, y^2>, xy integral, x not
    gens = (SparsePoly.monomial(QQ, (2, 0)), SparsePoly.monomial(QQ, (0, 2)))
    inst = ProblemInstance(
        base=QQ, nvars=2, var_names=("x", "y"), i_gens=(), j_gens=gens, d=2, order=glex
    )
    assert is_in_integral_closure(inst, SparsePoly.monomial(QQ, (1, 1))) is True
    assert is_in_integral_closure(inst, SparsePoly.monomial(QQ, (1, 0))) is False


def test_membership_monotone_on_ideal_elements(example1):
    # every element of J is integral over J
    x = SparsePoly.variable(QQ, 2, 0)
    for g in example1.j_gens:
        assert is_in_integral_closure(example1, g) is True
        assert is_in_integral_closure(example1, g * x) is True


def _in_ideal_by_oracle(inst, h):
    """h in J + I by the oracle: adjoining h leaves the colength unchanged."""
    gens = list(inst.j_gens) + list(inst.i_gens)
    return vector_space_length(gens) == vector_space_length(gens + [h])


def _check_membership(inst, h):
    """membership agrees with the oracle on J + I, and otherwise with
    comparing fresh generic multiplicities."""
    got = membership(inst, h)
    e = multiplicity(inst, use_cache=False).e
    assert got.e == e
    assert (got.decided_by == "in-ideal") == _in_ideal_by_oracle(inst, h)
    if got.decided_by == "in-ideal":
        assert got.member and got.point_length is None and got.e_extended is None
        return got
    e2 = multiplicity(inst.with_extra_generator(h), use_cache=False).e
    assert got.member == (e == e2)
    if got.decided_by == "point-length":
        assert got.point_length < e and got.e_extended is None
    else:
        assert got.decided_by == "multiplicity"
        assert got.e_extended == e2 and got.point_length is None
    return got


# Exponents stay at most 2, so e(J) <= 4. The generic K(t) multiplicity of
# J + (h) grows steeply with e and the parameter count: with exponents up to
# 3 or 4, some draws with h in J did not finish in 20 s, e.g.
# J = (x^3, y^3, -3xy^2, -3xy^2) over GF(32003), and
# J = (x^4, y^4, -x^3 y) over QQ, which ran past 200 s.
_exponents = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any)
_small_polys = st.dictionaries(_exponents, st.integers(-3, 3).filter(bool), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([QQ, GF(32003)]),
    st.integers(1, 2),
    st.integers(1, 2),
    st.lists(_small_polys, max_size=2),
    st.permutations(range(4)),
    _small_polys,
    st.lists(_small_polys, min_size=4, max_size=4),
    st.booleans(),
)
def test_membership_agrees_with_multiplicities(
    field, a, b, extra, perm, h_coeffs, cofactors, h_in_j
):
    # J holds pure powers of x and y, so it is m-primary in K[[x, y]]
    gens = [{(a, 0): 1}, {(0, b): 1}] + extra
    gens = [make_poly(field, 2, gens[i]) for i in perm if i < len(gens)]
    inst = ProblemInstance(
        base=field, nvars=2, var_names=("x", "y"), i_gens=(), j_gens=tuple(gens), d=2
    )
    if h_in_j:
        h = make_poly(field, 2, {})
        for g, c in zip(gens, cofactors):
            h = h + g * make_poly(field, 2, {**c, (0, 0): 1})
    else:
        h = make_poly(field, 2, h_coeffs)
    got = _check_membership(inst, h)
    if h_in_j:
        # an element of J is decided from J's inverse system
        assert got.member and got.decided_by == "in-ideal"


@pytest.mark.parametrize(
    "h", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1), (0, 2, 0), (1, 1, 0), (0, 3, 0)]
)
def test_membership_in_a_quotient_ring(example3, h):
    got = _check_membership(example3, make_poly(QQ, 3, {h: 1}))
    # x*y lies in J, and y^3 in J + I (I = (x^2 + y^3 + z^4)) but not in J;
    # the other monomials lie outside J + I and take a run of J + (h)
    if h in ((1, 1, 0), (0, 3, 0)):
        assert got.decided_by == "in-ideal"
    else:
        assert got.decided_by == ("multiplicity" if got.member else "point-length")


@pytest.mark.parametrize(
    "j, h, rows, member, point_runs",
    [
        # Q_a = (x^3, x^2): no pure power of y, so the run stops at once
        ([{(3, 0): 1}, {(0, 3): 1}], {(2, 0): 1, (0, 3): -1}, ((0,), (1,)), False, []),
        # Q_a = (x(x + y), y(x + y)): the run ends at the budget e(J) = 4
        ([{(2, 0): 1}, {(0, 2): 1}], {(1, 1): 1}, ((1,), (1,)), True, [(4, 4)]),
    ],
)
def test_membership_falls_back_at_a_degenerate_point(
    monkeypatch, glex, j, h, rows, member, point_runs
):
    from hsmult import reduction
    from hsmult.matlis import ResourceCaps, compute_dual_basis

    gens = tuple(make_poly(QQ, 2, g) for g in j)
    inst = ProblemInstance(
        base=QQ, nvars=2, var_names=("x", "y"), i_gens=(), j_gens=gens, d=2, order=glex,
        caps=ResourceCaps(max_terms=300, max_degree=20),
    )
    point = tuple(tuple(QQ.from_int(v) for v in row) for row in rows)
    monkeypatch.setattr(reduction, "_member_point", lambda ext: point)
    runs = []

    def recording(*args, **kwargs):
        dual = compute_dual_basis(*args, **kwargs)
        runs.append((kwargs.get("budget"), dual.length))
        return dual

    monkeypatch.setattr(reduction, "compute_dual_basis", recording)
    got = _check_membership(inst, make_poly(QQ, 2, h))
    assert (got.member, got.decided_by) == (member, "multiplicity")
    # (budget, length) of the finished point runs
    assert [r for r in runs if r[0] is not None] == point_runs


def test_membership_propagates_other_errors(monkeypatch, example1):
    from hsmult import reduction

    def broken(*args, **kwargs):
        raise InternalInconsistency("broken point run")

    multiplicity(example1)
    monkeypatch.setattr(reduction, "compute_dual_basis", broken)
    with pytest.raises(InternalInconsistency):
        membership(example1, make_poly(QQ, 2, {(1, 0): 1}))


@pytest.mark.parametrize(
    "char, ideal, h",
    [
        # over K(t), J + (h) has four (six) parameters and e = 16; that run
        # did not finish in 200 s, and members of J used to take it
        (0, ["x^4", "y^4", "-x^3*y"],
         "x^4 - x^3*y + y^4 + 3*x^3*y^2 + x^4*y^2 - 2*x^2*y^4 + 2*x^4*y^3 - x^3*y^4"),
        (32003, ["x^4", "y^4", "3*x*y^3", "3*x*y^3"], "x^4 + 2*y^4 + x*y^3 + x^5*y"),
    ],
)
def test_members_of_j_skip_the_run_over_k_t(char, ideal, h):
    import json
    import time

    from hsmult.instance import parse_instance, parse_member_expression

    payload = {"characteristic": char, "variables": ["x", "y"], "ideal": ideal, "dim": 2}
    inst, _ = parse_instance(json.dumps(payload))
    start = time.perf_counter()
    got = membership(inst, parse_member_expression(h, inst))
    assert (got.member, got.decided_by, got.e) == (True, "in-ideal", 16)
    assert time.perf_counter() - start < 2.0


def _mixed_generators(rng, gens):
    """gens after two elementary operations g_i += c * u * g_j: same ideal."""
    gens = list(gens)
    field, nvars = gens[0].field, gens[0].nvars
    for _ in range(2):
        i, j = rng.sample(range(len(gens)), 2)
        u = tuple(rng.randint(0, 1) for _ in range(nvars))
        gens[i] = gens[i] + gens[j] * make_poly(field, nvars, {u: rng.randint(1, 3)})
    return gens


def _element_of(rng, gens):
    """sum of cofactors times generators, each cofactor a small random poly."""
    field, nvars = gens[0].field, gens[0].nvars
    h = SparsePoly(field, nvars, {})
    for g in gens:
        if rng.random() < 0.7:
            e = tuple(rng.randint(0, 1) for _ in range(nvars))
            h = h + g * make_poly(field, nvars, {e: rng.randint(-3, 3), (0,) * nvars: 1})
    return h


def _draws(rng, gens, bounds):
    """An element of J, an element of J plus a staircase monomial, and 0."""
    field, nvars = gens[0].field, gens[0].nvars
    u = tuple(rng.randint(0, b - 1) for b in bounds)
    return [
        _element_of(rng, gens),
        _element_of(rng, gens) + make_poly(field, nvars, {u: 1}),
        SparsePoly(field, nvars, {}),
    ]


@pytest.mark.parametrize("field", [QQ, GF(32003), GF(3)], ids=["QQ", "GF32003", "GF3"])
@pytest.mark.parametrize("seed", range(3))
def test_in_ideal_check_agrees_with_the_oracle(field, seed):
    from hsmult import reduction

    rng = random.Random(seed)
    verdicts = set()
    for _ in range(4):
        a, b = rng.randint(2, 3), rng.randint(2, 3)
        # a binomial inside the box a x b makes J + I non-monomial
        box = [(i, j) for i in range(a) for j in range(b) if i or j]
        extra = [
            {u: rng.randint(1, 2), v: -rng.randint(1, 2)}
            for u, v in [rng.sample(box, 2)][: rng.randint(0, 1)]
        ]
        base = [make_poly(field, 2, g) for g in [{(a, 0): 1}, {(0, b): 1}] + extra]
        gens = _mixed_generators(rng, base)
        inst = ProblemInstance(
            base=field, nvars=2, var_names=("x", "y"), i_gens=(), j_gens=tuple(gens), d=2
        )
        ideal_dual = reduction._ideal_dual(multiplicity(inst), inst.caps)
        for h in _draws(rng, gens, (a, b)):
            in_ideal = _in_ideal_by_oracle(inst, h)
            assert reduction._in_ideal(ideal_dual, h) == in_ideal
            if in_ideal:
                assert membership(inst, h).decided_by == "in-ideal"
            verdicts.add(in_ideal)
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", range(4))
def test_in_ideal_check_agrees_with_the_oracle_in_a_quotient_ring(example3, seed):
    from hsmult import reduction

    rng = random.Random(seed)
    gens = _mixed_generators(rng, example3.j_gens)
    inst = ProblemInstance(
        base=QQ, nvars=3, var_names=example3.var_names, i_gens=example3.i_gens,
        j_gens=tuple(gens), d=2,
    )
    ideal_dual = reduction._ideal_dual(multiplicity(inst), inst.caps)
    for h in _draws(rng, gens, (2, 3, 2)) + _draws(rng, list(example3.i_gens), (2, 3, 2)):
        assert reduction._in_ideal(ideal_dual, h) == _in_ideal_by_oracle(inst, h)


def test_in_ideal_check_falls_back_when_the_caps_end_its_run(example3):
    import dataclasses

    from hsmult import reduction
    from hsmult.errors import CapExceeded
    from hsmult.matlis import ResourceCaps

    res = multiplicity(example3)  # e(J) cached under the default caps
    # the run of J + I takes 4 iterations, the point run for x takes 3
    small = dataclasses.replace(example3, caps=ResourceCaps(max_iterations=3))
    with pytest.raises(CapExceeded):
        reduction.compute_dual_basis(
            list(example3.j_gens) + list(example3.i_gens), example3.order, small.caps
        )
    x = make_poly(QQ, 3, {(1, 0, 0): 1})
    got = membership(small, x)
    assert (got.member, got.decided_by, got.point_length) == (False, "point-length", 6)
    # the cut run left nothing on the cache entry; a run that ends does
    assert res.ideal_dual is None
    assert got == membership(example3, x)
    assert res.ideal_dual is not None
    xy = make_poly(QQ, 3, {(1, 1, 0): 1})
    assert membership(example3, xy).decided_by == "in-ideal"


def test_a_budgeted_dual_basis_is_never_read(glex):
    from hsmult import reduction
    from hsmult.matlis import compute_dual_basis

    xy = make_poly(QQ, 2, {(1, 1): 1})
    g = make_poly(QQ, 2, {(2, 0): 1, (0, 2): -1})
    x2 = make_poly(QQ, 2, {(2, 0): 1})
    # J = (xy, x^2 - y^2) has colength 4: the T1 terms 1, x, y and one xi
    # pairing with x^2 and y^2; x^2 is not in J, but is integral over it
    partial = compute_dual_basis([xy, g], glex, budget=3)
    assert (partial.length, partial.complete) == (3, False)
    assert all(x2.coeffs.get(e) is None for e in partial.t1_points)
    assert reduction._inverse_system(partial) is None
    full = compute_dual_basis([xy, g], glex, budget=5)
    assert (full.length, full.complete) == (4, True)
    assert not reduction._in_ideal(reduction._inverse_system(full), x2)
    inst = ProblemInstance(
        base=QQ, nvars=2, var_names=("x", "y"), i_gens=(), j_gens=(xy, g), d=2, order=glex
    )
    got = _check_membership(inst, x2)
    assert (got.member, got.decided_by) == (True, "multiplicity")


def test_dim_zero_contract(glex, P):
    unit = P(QQ, 2, {(0, 0): 1, (1, 0): 1})
    quot = (SparsePoly.monomial(QQ, (2, 0)), SparsePoly.monomial(QQ, (0, 2)))
    inst = ProblemInstance(
        base=QQ, nvars=2, var_names=("x", "y"), i_gens=quot, j_gens=(unit,), d=0, order=glex
    )
    res = multiplicity(inst)
    assert res.e == 4  # the length of R itself
    cert = find_reduction(res)
    assert cert.a == ()
    # J is the whole ring, so every element lies in it
    got = membership(inst, SparsePoly.variable(QQ, 2, 0))
    assert (got.member, got.decided_by, got.e) == (True, "in-ideal", 4)
    no_unit = ProblemInstance(
        base=QQ,
        nvars=2,
        var_names=("x", "y"),
        i_gens=quot,
        j_gens=(SparsePoly.monomial(QQ, (1, 0)),),
        d=0,
        order=glex,
    )
    with pytest.raises(ValueError):
        multiplicity(no_unit)


def test_instance_validation(glex):
    x = SparsePoly.variable(QQ, 2, 0)
    with pytest.raises(ValueError):
        ProblemInstance(base=QQ, nvars=2, var_names=("x",), i_gens=(), j_gens=(x,), d=1)
    with pytest.raises(ValueError):
        ProblemInstance(
            base=QQ, nvars=2, var_names=("x", "y"), i_gens=(), j_gens=(x,), d=3
        )
    with pytest.raises(ValueError):
        ProblemInstance(
            base=QQ, nvars=2, var_names=("x", "y"), i_gens=(), j_gens=(), d=1
        )
    with pytest.raises(ValueError):
        ProblemInstance(
            base=QQ, nvars=2, var_names=("x", "y"), i_gens=(), j_gens=(x,), d=2
        )


def test_multiplicity_cache_reuse(example3):
    r1 = multiplicity(example3)
    r2 = multiplicity(example3)
    assert r1 is r2


def test_perturbation_stability(example1):
    # terms of degree above (max corner degree + n) change nothing
    res = multiplicity(example1)
    bumped = list(example1.j_gens)
    bumped[0] = bumped[0] + make_poly(QQ, 2, {(9, 9): 1})
    import dataclasses

    inst2 = dataclasses.replace(example1, j_gens=tuple(bumped))
    res2 = multiplicity(inst2)
    assert res2.e == res.e
    assert res2.polylist == res.polylist
    assert [m.grid for m in res2.matlist] == [m.grid for m in res.matlist]


def test_reduction_generators_match_oracle_lengths(example1):
    res = multiplicity(example1)
    rows = ((Fraction(1),), (Fraction(1),))
    gens = reduction_generators(example1, rows)
    assert vector_space_length(list(gens)) == 5


def test_length_verified_certificate(example1):
    from hsmult import length_verified_certificate

    res = multiplicity(example1)
    # (1, 0) fails the sufficient symbolic conditions and really is not a
    # reduction (colength 6): the length check must reject it
    with pytest.raises(ValueError):
        length_verified_certificate(example1, ((1,), (0,)), res)
    cert = length_verified_certificate(example1, ((2,), (1,)), res)
    assert cert.mode == "length-verified"
    assert cert.e == 5


def test_substitute_params_requires_full_assignment(example1):
    from hsmult import substitute_params

    gens, ff = generic_generators(example1)
    with pytest.raises(ValueError):
        substitute_params(gens[0], {"t_1_3": Fraction(1)})


def test_multiplicity_rejects_dim_that_contradicts_the_quotient():
    import json

    from hsmult import length_verified_certificate
    from hsmult.instance import parse_instance

    # small caps: without the check the run ends in CapExceeded, not ValueError
    payload = {"variables": ["x", "y"], "ideal": ["x^2", "y", "x*y"], "dim": 1,
               "options": {"max_terms": 300, "max_iterations": 60}}
    inst, _ = parse_instance(json.dumps(payload))
    h = SparsePoly.variable(QQ, 2, 0)
    with pytest.raises(ValueError, match="dim must be 2"):
        multiplicity(inst)
    with pytest.raises(ValueError, match="dim must be 2"):
        is_in_integral_closure(inst, h)
    with pytest.raises(ValueError, match="dim must be 2"):
        length_verified_certificate(inst, ((0, 0),))
    ok, _ = parse_instance(json.dumps(dict(payload, dim=2)))
    assert multiplicity(ok).e == 2


def _cheap_instance(c):
    """J = (x + c*x^2) in one variable: e = 1, no parameters."""
    x = SparsePoly.variable(QQ, 1, 0)
    g = x + x * x.scale(QQ.from_int(c))
    return ProblemInstance(base=QQ, nvars=1, var_names=("x",), i_gens=(), j_gens=(g,), d=1)


def test_multiplicity_cache_is_lru(monkeypatch):
    from hsmult import reduction

    monkeypatch.setattr(reduction, "_MULT_CACHE_SIZE", 2)
    i1, i2, i3 = (_cheap_instance(c) for c in (1, 2, 3))
    r1, r2 = multiplicity(i1), multiplicity(i2)
    assert multiplicity(i1) is r1  # the hit makes i2 the oldest
    r3 = multiplicity(i3)
    assert list(reduction._MULT_CACHE) == [i1.canonical_key(), i3.canonical_key()]
    assert multiplicity(i1) is r1 and multiplicity(i3) is r3
    assert multiplicity(i2) is not r2  # evicted, so recomputed; i1 goes now
    assert list(reduction._MULT_CACHE) == [i3.canonical_key(), i2.canonical_key()]
    # use_cache=False neither reads nor refreshes nor inserts
    assert multiplicity(i3, use_cache=False) is not r3
    assert multiplicity(i1, use_cache=False) is not r1
    assert list(reduction._MULT_CACHE) == [i3.canonical_key(), i2.canonical_key()]
    reduction.clear_multiplicity_cache()
    assert not reduction._MULT_CACHE
    assert multiplicity(i3) is not r3


def test_multiplicity_cache_keeps_256_entries():
    from hsmult import reduction

    first = multiplicity(_cheap_instance(0))
    for c in range(1, 256):
        multiplicity(_cheap_instance(c))
    assert len(reduction._MULT_CACHE) == 256
    assert multiplicity(_cheap_instance(0)) is first
    multiplicity(_cheap_instance(256))  # evicts c = 1, not the refreshed c = 0
    assert len(reduction._MULT_CACHE) == 256
    assert _cheap_instance(1).canonical_key() not in reduction._MULT_CACHE
    assert multiplicity(_cheap_instance(0)) is first


def _point_instance(base, nvars, j_gens, glex):
    names = ("x", "y", "z")[:nvars]
    return ProblemInstance(
        base=base, nvars=nvars, var_names=names, i_gens=(), j_gens=tuple(j_gens),
        d=nvars, order=glex,
    )


def test_point_length_of_the_seed_7_member_query(glex):
    """J = (-3x^3, 2y^3, 3z^4) + (5xyz) over QQ at the point (30, 13, 3): all
    coefficients integral, so only Fraction arithmetic keeps the base-field
    elimination exact."""
    gens = [
        make_poly(QQ, 3, {(3, 0, 0): -3}),
        make_poly(QQ, 3, {(0, 3, 0): 2}),
        make_poly(QQ, 3, {(0, 0, 4): 3}),
        make_poly(QQ, 3, {(1, 1, 1): 5}),
    ]
    inst = _point_instance(QQ, 3, gens, glex)
    rows = tuple((QQ.from_int(v),) for v in (30, 13, 3))
    assert vector_space_length(list(reduction_generators(inst, rows))) == 33
    assert _colength_at(inst, rows, ModpStats()) == 33


@pytest.mark.parametrize("base", [QQ, GF(3), GF(32003)], ids=["QQ", "GF3", "GF32003"])
def test_point_lengths_match_the_oracle(base, glex):
    """The budget-free base-field run at a point gives the colength that
    linear algebra on truncations gives, for seeded integer-coefficient ideals:
    pure powers plus mixed terms, and one extra generator combined in."""
    rng = random.Random(f"point-{base.char}")
    checked = 0
    lengths = set()
    for _ in range(40):
        nvars = rng.choice([2, 2, 3])
        gens = []
        for i in range(nvars):
            power = tuple(rng.randint(2, 3) if j == i else 0 for j in range(nvars))
            coeffs = {power: rng.choice([-1, 1, 2, 4, -5])}
            for _ in range(rng.randint(0, 2)):
                e = tuple(rng.randint(0, 2) for _ in range(nvars))
                if sum(e) >= 2:
                    coeffs[e] = rng.randint(-4, 4)
            gens.append(make_poly(base, nvars, coeffs))
        extra = {tuple(rng.randint(0, 2) for _ in range(nvars)): rng.randint(-5, 5)}
        extra[tuple(rng.randint(1, 2) for _ in range(nvars))] = rng.randint(-5, 5)
        gens.append(make_poly(base, nvars, extra))
        inst = _point_instance(base, nvars, gens, glex)
        rows = tuple((base.from_int(rng.randint(1, 30)),) for _ in range(nvars))
        try:
            want = vector_space_length(list(reduction_generators(inst, rows)), 12)
        except NotStabilized:
            continue
        assert _colength_at(inst, rows, ModpStats()) == want
        checked += 1
        lengths.add(want)
    assert checked >= 35 and len(lengths) >= 10


P = DEFAULT_PRIMES[0]


def _rational(rng):
    return Fraction(rng.choice([-5, -3, -1, 1, 2, 4, 7]), rng.choice([1, 1, 2, 3, 10]))


def test_point_lengths_mod_p_match_qq(glex):
    """On seeded ideals with integer and rational coefficients, some with a
    series generator and some in a quotient ring, the colength of the
    residues mod P at a point is never below the colength over QQ there, and
    here equals it."""
    rng = random.Random("residue-points")
    checked = quotient = series = 0
    for trial in range(40):
        nvars = rng.choice([2, 2, 3])
        gens = []
        for i in range(nvars):
            power = tuple(rng.randint(2, 3) if j == i else 0 for j in range(nvars))
            coeffs = {power: _rational(rng)}
            for _ in range(rng.randint(0, 2)):
                e = tuple(rng.randint(0, 2) for _ in range(nvars))
                if sum(e) >= 2:
                    coeffs[e] = _rational(rng)
            gens.append(make_poly(QQ, nvars, coeffs))
        gens.append(make_poly(QQ, nvars, {
            tuple(rng.randint(0, 2) for _ in range(nvars)): _rational(rng),
            tuple(rng.randint(1, 2) for _ in range(nvars)): _rational(rng),
        }))
        if trial % 5 == 1:
            # the same ideal, with the first generator times a unit series
            one_minus = make_poly(QQ, nvars, {(0,) * nvars: 1, (1,) + (0,) * (nvars - 1): -2})
            gens[0] = RationalSeries(gens[0], one_minus)
        d, i_gens = nvars, ()
        if trial % 4 == 3:
            # R = S/(x_0 x_1 - x_1^2 + ...), of dimension nvars - 1
            d = nvars - 1
            i_gens = (make_poly(QQ, nvars, {
                (1, 1) + (0,) * (nvars - 2): 1,
                (0, 2) + (0,) * (nvars - 2): _rational(rng),
                (3,) + (0,) * (nvars - 1): _rational(rng),
            }),)
        inst = ProblemInstance(
            base=QQ, nvars=nvars, var_names=("x", "y", "z")[:nvars], i_gens=i_gens,
            j_gens=tuple(gens), d=d, order=glex,
        )
        rows = tuple(
            tuple(_rational(rng) for _ in range(inst.m - d)) for _ in range(d)
        )
        try:
            want = _colength_at(inst, rows, ModpStats())
        except NotZeroDimensional:
            continue
        reduced = _mod_prime(inst, rows, P)
        assert reduced is not None and reduced[0].base == GF(P)
        got = _colength_at(*reduced, ModpStats())
        assert got >= want
        assert got == want
        checked += 1
        quotient += bool(i_gens)
        series += trial % 5 == 1
    assert checked >= 35 and quotient >= 5 and series >= 5


@pytest.mark.parametrize(
    "ideal, h, member",
    [
        # P divides a denominator of h
        (["x^2", "y^2"], f"x/{P}", False),
        (["x^2", "y^2"], f"x*y/{P}", True),
        # P divides q(0) of a series h = x / (P + x), which generates (x)
        (["x^2", "y^2"], f"x/({P} + x)", False),
        # P divides the coefficient of h: its residue is 0, Q_a mod P is J,
        # and the point run reaches e(J)
        (["x^2", "y^2"], f"{P}*x", False),
        # the residues of Q_a are not m-primary: P*y^2 vanishes mod P
        (["x^2", f"{P}*y^2"], "x", False),
        (["x^2", f"{P}*y^2"], "x*y", True),
    ],
)
def test_membership_mod_p_falls_back_to_the_run_over_k_t(glex, ideal, h, member):
    """Where the residues mod P give no point colength below e(J), the run
    over K(t) decides, with the right verdict."""
    names = ("x", "y")
    inst = ProblemInstance(
        base=QQ, nvars=2, var_names=names, i_gens=(),
        j_gens=tuple(parse_generator(g, QQ, names) for g in ideal), d=2, order=glex,
    )
    got = membership(inst, parse_generator(h, QQ, names))
    assert (got.member, got.e, got.decided_by, got.point_length) == (
        member, 4, "multiplicity", None
    )


def test_member_point_seam_runs_on_residues(monkeypatch, glex):
    """A point given through _member_point is reduced mod P with the
    instance; a point entry whose denominator P divides skips the point run."""
    from hsmult import reduction
    from hsmult.matlis import compute_dual_basis

    gens = (make_poly(QQ, 2, {(2, 0): 1}), make_poly(QQ, 2, {(0, 2): 1}))
    inst = ProblemInstance(
        base=QQ, nvars=2, var_names=("x", "y"), i_gens=(), j_gens=gens, d=2, order=glex,
    )
    fields = []

    def recording(gens, *args, **kwargs):
        if kwargs.get("budget") is not None:
            fields.append(gens[0].field)
        return compute_dual_basis(gens, *args, **kwargs)

    monkeypatch.setattr(reduction, "compute_dual_basis", recording)
    x = make_poly(QQ, 2, {(1, 0): 1})
    for entry, decided_by in ((Fraction(1, 2), "point-length"), (Fraction(1, P), "multiplicity")):
        point = ((entry,), (Fraction(3),))
        monkeypatch.setattr(reduction, "_member_point", lambda ext: point)
        got = membership(inst, x)
        assert (got.member, got.decided_by) == (False, decided_by)
    # the first query's point run was over GF(P); the second made none
    assert fields == [GF(P)]


def test_reports_of_one_instance_share_their_matlist_rows():
    from hsmult.cli import run_command

    inst, options = load_instance("params_gf3.json")
    first, _ = run_command("reduce", inst, options)
    inst, options = load_instance("params_gf3.json")
    second, _ = run_command("reduce", inst, options)
    assert first == second and first["matlist"]
    for a, b in zip(first["matlist"], second["matlist"]):
        assert a is b
        assert all(ra is rb for ra, rb in zip(a, b))


def test_shared_matlist_table_stays_within_its_bound(monkeypatch):
    from hsmult import reduction

    monkeypatch.setattr(reduction, "_SHARED_SIZE", 3)
    monkeypatch.setattr(reduction, "_SHARED", reduction.OrderedDict())
    kept = [reduction._shared((str(i),)) for i in range(5)]
    assert len(reduction._SHARED) == 3
    assert list(reduction._SHARED) == [("2",), ("3",), ("4",)]
    # a hit returns the kept tuple and makes it the most recent
    assert reduction._shared(("2",)) is kept[2]
    reduction._shared(("5",))
    assert list(reduction._SHARED) == [("4",), ("2",), ("5",)]
    # every MatList row and grid of a report goes through the table
    res = multiplicity(load_instance("params_gf2.json")[0], use_cache=False)
    res.matlist_grids()
    assert len(reduction._SHARED) == 3


def test_membership_sums_stats_into_its_own_modp_stats(example1):
    """Every verdict carries a ModpStats of its own; summing the runs never
    writes into the cached multiplicity result's counts."""
    res = multiplicity(example1)
    before = res.modp_stats.as_dict()
    x, y = (SparsePoly.variable(QQ, 2, i) for i in range(2))
    for h in (example1.j_gens[0], x, x * y + y * y):
        got = membership(example1, h)
        assert isinstance(got.modp_stats, ModpStats)
        assert got.modp_stats is not res.modp_stats
        assert membership(example1, h).modp_stats == got.modp_stats
    assert res.modp_stats.as_dict() == before
    assert multiplicity(example1) is res
    total = ModpStats(1, 2, 3, 4, 5, 6) + ModpStats(6, 5, 4, 3, 2, 1)
    assert total == ModpStats(7, 7, 7, 7, 7, 7)
