import gc
import json
import math
import random
import types
from fractions import Fraction

import pytest

from hsmult import (
    GF,
    QQ,
    DualBasisState,
    FunctionField,
    MonomialOrder,
    NotZeroDimensional,
    ResourceCaps,
    SparsePoly,
    act,
    build_matrix,
    compute_dual_basis,
    leading,
    step,
)
from hsmult.errors import CapExceeded
from hsmult.linalg import kernel
from hsmult import matlis, modp, reduction
from hsmult.cli import run_command
from hsmult.exprparse import parse_generator, parse_polynomial
from hsmult.instance import parse_instance
from hsmult.matlis import DEFAULT_CAPS, DualBasisResult, RunMemo, canonical_cleared_matrix
from hsmult.modp import DEFAULT_PRIMES
from hsmult.dual import gamma_candidates
from hsmult.oracles import monomial_length, vector_space_length
from hsmult.poly import clear_row_denominators
from hsmult.scalars import GFElement
from hsmult.reduction import (
    clear_multiplicity_cache,
    generic_generators,
    membership,
    multiplicity,
)
from hsmult.series import PolySeries, RationalSeries
from tests.conftest import FIXTURES, is_kernel_vector, load_instance, plain
from tests.frozen_elimination import frozen_plain_kernel


@pytest.fixture
def ff():
    return FunctionField(QQ, ("a", "b"))


def example1_gens(ff):
    a, b = ff.param("a"), ff.param("b")
    f1 = SparsePoly(ff, 2, {(3, 0): ff.one(), (1, 1): a})
    f2 = SparsePoly(ff, 2, {(0, 2): ff.one(), (1, 1): b})
    return [f1, f2]


def _fresh_build(gens, gamma, order, nvars):
    """build_matrix on the exponent tuples gamma, packed through a fresh memo."""
    memo = RunMemo(gens, order, nvars, DEFAULT_CAPS)
    return build_matrix(memo, [memo.terms.pack(g) for g in gamma])


def test_build_matrix_example1(ff, glex):
    a, b = ff.param("a"), ff.param("b")
    gens = example1_gens(ff)
    gamma = [(3, 0), (1, 1), (0, 2)]
    M = _fresh_build(gens, gamma, glex, 2)
    assert M.rows is None
    entries = ((ff.one(), a, ff.zero()), (ff.zero(), b, ff.one()))
    assert M.grid == tuple(tuple(e.num for e in row) for row in entries)


def test_build_matrix_prunes_zero_rows(glex):
    x = SparsePoly.variable(QQ, 2, 0)
    y = SparsePoly.variable(QQ, 2, 1)
    M = _fresh_build([x, y], [(1, 0)], glex, 2)
    # the y-block contributes nothing: y kills 1/x^2y
    assert M.rows == ((Fraction(1),),)
    M0 = _fresh_build([x], [(0, 1)], glex, 2)
    assert M0.nrows == 0 and M0.ncols == 1


def _act_build(gens, gamma, order, nvars):
    """Reference: images by act, truncating a series generator per column."""
    field = gens[0].field
    rows = []
    for g in gens:
        images = []
        for tau in gamma:
            p = g if isinstance(g, SparsePoly) else g.truncate(sum(tau) + nvars)
            images.append(act(p, tau))
        terms = set().union(*(img.coeffs for img in images))
        for s in sorted(terms, key=order.key, reverse=True):
            rows.append(tuple(img.coeffs.get(s, field.zero()) for img in images))
    grid = None
    if isinstance(field, FunctionField):
        grid = tuple(
            clear_row_denominators(field, [(j, a) for j, a in enumerate(row) if a], len(row))
            for row in rows
        )
    return tuple(rows), grid


def test_build_matrix_matches_act_build(glex):
    rng = random.Random(29)
    qq_t = FunctionField(QQ, ("a", "b"))
    gf_t = FunctionField(GF(7), ("a",))
    fields = [qq_t, gf_t, QQ, GF(7)]

    def scalar(field):
        if field is qq_t:
            a, b = qq_t.param("a"), qq_t.param("b")
            pool = [qq_t.from_int(3) / qq_t.from_int(2), a / qq_t.from_int(3),
                    (a + qq_t.one()) / qq_t.from_int(-4), a * b - qq_t.one(), -b]
        elif field is gf_t:
            a = gf_t.param("a")
            pool = [gf_t.from_int(3), a, a + gf_t.from_int(2), a * a]
        else:
            pool = [field.from_int(k) for k in (1, 2, -3)]
            if field is QQ:
                pool.append(Fraction(2, 3))
        return rng.choice(pool)

    def poly(field, nvars):
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 3) for _ in range(nvars))
            coeffs[e] = scalar(field)
        return SparsePoly(field, nvars, coeffs)

    fractional = 0
    for trial in range(40):
        field = fields[trial % len(fields)]
        nvars = rng.choice([2, 3])
        gens = [poly(field, nvars) for _ in range(rng.randint(1, 3))]
        if trial % 5 == 0:
            # a series generator: p/(1 - x_0)
            den = SparsePoly(field, nvars, {(0,) * nvars: field.one(),
                                            (1,) + (0,) * (nvars - 1): -field.one()})
            gens.append(RationalSeries(poly(field, nvars), den))
        gamma = sorted(
            {tuple(rng.randint(0, 4) for _ in range(nvars)) for _ in range(rng.randint(1, 5))},
            key=glex.key,
            reverse=True,
        )
        M = _fresh_build(gens, gamma, glex, nvars)
        rows, grid = _act_build(gens, gamma, glex, nvars)
        assert M.ncols == len(gamma)
        if grid is None:
            # plain numbers: ints mod p, Fractions over QQ, the int 0 where zero
            assert M.rows == tuple(tuple(map(plain, row)) for row in rows)
            assert all(
                type(a) is (Fraction if a and not field.char else int)
                for row in M.rows
                for a in row
            )
        else:
            assert M.rows is None and M.grid == grid
        if field is qq_t:
            fractional += any(c.den != 1 for row in rows for c in row if c)
    assert fractional


def _unpacked(memo_or_state, packed):
    """Packed terms of a run as exponent tuples, in their order."""
    return [memo_or_state.terms.unpack(g) for g in packed]


def _check_memo_build(M, gens, gamma, order, nvars):
    """M, built through a memo, equals a fresh build and the act reference
    on the exponent tuples gamma."""
    fresh = _fresh_build(gens, gamma, order, nvars)
    assert (M.field, M.rows, M.ncols) == (fresh.field, fresh.rows, fresh.ncols)
    rows, grid = _act_build(gens, gamma, order, nvars)
    if grid is None:
        assert M.rows == tuple(tuple(map(plain, row)) for row in rows)
    else:
        assert M.grid == fresh.grid == grid


def test_every_matrix_of_a_run_matches_a_fresh_build(monkeypatch, glex):
    """Every matrix a function-field run builds through its memo equals a
    build from scratch, with series generators whose memoized truncation must
    deepen as the gamma lists reach higher degrees.  Base-field runs build no
    matrices; their steps are checked against fresh builds in
    test_every_base_field_step_matches_a_fresh_solve."""
    original = matlis.build_matrix
    memos, tops = [], []  # per run: its memo, the top gamma degrees it met

    def checked(memo, gamma):
        assert isinstance(memo, RunMemo)
        M = original(memo, gamma)
        gamma = _unpacked(memo, gamma)
        _check_memo_build(M, memo.gens, gamma, memo.terms.order, memo.terms.nvars)
        if not memos or memos[-1] is not memo:
            memos.append(memo)
            tops.append(set())
        tops[-1].add(max(map(sum, gamma)))
        return M

    names = ("x", "y")
    exprs = ["x^3 - y^2/(1 - x)", "y^3 + 2*x^2*y/(1 - x*y)"]
    inst, _ = parse_instance(json.dumps(
        {"variables": list(names), "ideal": exprs + ["x^2*y"], "dim": 2}
    ))
    gens, ff = generic_generators(inst)
    assert isinstance(ff, FunctionField) and not any(g.is_polynomial() for g in gens)
    runs = [(gens, multiplicity(inst, use_cache=False).e)]
    monkeypatch.setattr(matlis, "build_matrix", checked)
    for gens, length in runs:
        assert compute_dual_basis(gens, glex).length == length
    assert len(tops) == len(runs)
    # the first build truncates at its top degree + nvars; a later gamma
    # term above that makes the memo truncate again
    assert all(max(degrees) > min(degrees) + len(names) for degrees in tops), tops


def _fresh_plain_kernel(gens, gamma, order, nvars):
    """The step's matrix built from scratch on the exponent tuples gamma,
    and the frozen plain_kernel of its rows."""
    M = _fresh_build(gens, gamma, order, nvars)
    rows, _ = _act_build(gens, gamma, order, nvars)
    assert M.rows == tuple(tuple(map(plain, row)) for row in rows)
    return frozen_plain_kernel([list(row) for row in M.rows], M.ncols, M.field.char)


def _full_vector(vec, gamma):
    """A step's kernel, its nonzero entries by packed term, as the plain
    numbers of the whole vector over gamma."""
    return None if vec is None else [plain(vec[g]) if g in vec else 0 for g in gamma]


def _checked_span_steps(monkeypatch):
    """Wrap the base-field step solve: each call must give the vector a fresh
    build_matrix + the frozen plain_kernel gives, and the columns the run's memo holds
    must make the fresh matrix.  Returns the per-run list of the top gamma
    degrees seen."""
    original = matlis._span_kernel
    memos, tops = [], []

    def checked(state, gamma):
        assert isinstance(state.memo, RunMemo)
        vec = original(state, gamma)
        tuples = _unpacked(state, gamma)
        want = _fresh_plain_kernel(state.gens, tuples, state.order, state.nvars)
        assert _full_vector(vec, gamma) == want
        # field scalars, as `kernel` returns them
        assert vec is None or all(
            type(a) is (GFElement if state.field.char else Fraction) for a in vec.values()
        )
        _check_memo_build(
            build_matrix(state.memo, gamma),
            state.gens, tuples, state.order, state.nvars,
        )
        gamma = tuples
        if not memos or memos[-1] is not state.memo:
            memos.append(state.memo)
            tops.append(set())
        tops[-1].add(max(map(sum, gamma)))
        return vec

    monkeypatch.setattr(matlis, "_span_kernel", checked)
    return tops


def test_every_base_field_step_matches_a_fresh_solve(monkeypatch, glex):
    """At every step of a base-field run, the solve from the run's span of
    candidate columns returns the vector build_matrix + the frozen plain_kernel
    return,
    over QQ, GF(7) and GF(32003): series generators whose memoized truncation
    must deepen, and seeded polynomial ideals."""
    names = ("x", "y")
    exprs = ["x^3 - y^2/(1 - x)", "y^3 + 2*x^2*y/(1 - x*y)"]
    series_runs = []
    for base in (QQ, GF(7), GF(32003)):
        gens = [parse_generator(e, base, names) for e in exprs]
        assert all(isinstance(g, RationalSeries) for g in gens)
        series_runs.append((gens, vector_space_length([g.truncate(12) for g in gens])))
    tops = _checked_span_steps(monkeypatch)
    for gens, length in series_runs:
        assert compute_dual_basis(gens, glex).length == length
    assert len(tops) == len(series_runs)
    # the first solve truncates at its top degree + nvars; a later gamma
    # term above that makes the memo truncate again
    assert all(max(degrees) > min(degrees) + len(names) for degrees in tops), tops
    rng = random.Random(53)
    for trial in range(18):
        base = (QQ, GF(7), GF(32003))[trial % 3]
        nvars = rng.choice([2, 3])
        gens = []
        for i in range(nvars):
            power = tuple(rng.randint(2, 3) if j == i else 0 for j in range(nvars))
            coeffs = {power: base.one()}
            for _ in range(rng.randint(1, 3)):
                e = tuple(rng.randint(1, 2) for _ in range(nvars))
                coeffs[e] = base.from_int(rng.choice([-3, -1, 2, 5]))
            gens.append(SparsePoly(base, nvars, coeffs))
        assert compute_dual_basis(gens, glex).length == vector_space_length(gens)
    assert len(tops) == len(series_runs) + 18


def test_span_restarts_when_an_old_candidate_is_gone(glex):
    """A candidate list that drops a term the span holds empties the span,
    and the solve still equals a fresh one.  With x - y and y^3 the steps
    accept, reject (keeping the span), then restart and accept."""
    gens = [parse_polynomial(e, QQ, ("x", "y")) for e in ("x - y", "y^3")]
    state = DualBasisState(gens, glex, DEFAULT_CAPS)
    span = state.span
    verdicts = []
    for tuples in ([(1, 1), (2, 0), (0, 2)], [(0, 1), (2, 0), (0, 2)], [(1, 0), (0, 1)]):
        gamma = [state.terms.pack(g) for g in tuples]
        before = set(span.names)
        vec = matlis._span_kernel(state, gamma)
        want = _fresh_plain_kernel(state.gens, tuples, glex, 2)
        assert _full_vector(vec, gamma) == want
        kept = before <= set(gamma[1:])
        # a rejected tau0 joins the span; a restart drops the old terms
        assert span.names == (before if kept else set()) | set(gamma[1:]) | (
            {gamma[0]} if vec is None else set()
        )
        verdicts.append((vec is not None, kept))
    assert verdicts == [(True, True), (False, True), (True, False)]


def test_span_raises_on_a_dependent_candidate_column(glex):
    """(x + y) sends 1/x^2 and 1/y^2 to the same dual term: two equal
    candidate columns, so the step's matrix has a kernel vector with leading
    entry 0, and the solve raises UnexpectedNullity."""
    from hsmult import UnexpectedNullity

    gens = [parse_polynomial(e, GF(7), ("x", "y")) for e in ("x + y", "x^2")]
    state = DualBasisState(gens, glex, DEFAULT_CAPS)
    with pytest.raises(UnexpectedNullity):
        matlis._span_kernel(state, [state.terms.pack(g) for g in [(2, 0), (1, 0), (0, 1)]])


def test_one_memo_across_growing_gamma_lists(glex):
    """One memo fed gamma lists of rising top degree: each matrix equals a
    fresh build and the reference, so columns made from a shallower
    truncation stay exact and deeper terms are fetched when needed."""
    rng = random.Random(17)
    qq_t = FunctionField(QQ, ("t_1_1",))
    for field in (QQ, GF(7), qq_t):
        if field is qq_t:
            # (x + t*y^2)/(1 - x - t*y)
            x, y = (SparsePoly.variable(field, 2, i) for i in range(2))
            t = SparsePoly.constant(field, 2, field.param("t_1_1"))
            one = SparsePoly.constant(field, 2, field.one())
            series = RationalSeries(x + t * y * y, one - x - t * y)
        else:
            series = parse_generator("(x + 2*y^2)/(1 - x - 3*y)", field, ("x", "y"))
        gens = [series, parse_polynomial("x^2 - y", field, ("x", "y"))]
        memo = RunMemo(gens, glex, 2, DEFAULT_CAPS)
        for top in (1, 2, 2, 4, 3, 7, 5, 9):
            pool = [(i, d - i) for d in range(top + 1) for i in range(d + 1)]
            gamma = {(top, 0), (0, top)} | set(rng.sample(pool, min(len(pool), 6)))
            gamma = sorted(gamma, key=glex.key, reverse=True)
            M = build_matrix(memo, [memo.terms.pack(g) for g in gamma])
            _check_memo_build(M, gens, gamma, glex, 2)


def test_column_maps_and_image_maps_agree_with_the_kept_columns(glex):
    """column_maps makes its maps straight from the generators' terms and
    image_maps from the kept columns; both hold the cells of ``columns`` at
    the row keys s * (number of generators) + i."""
    rng = random.Random(41)
    qq_t = FunctionField(QQ, ("a",))
    for field in (QQ, GF(7), qq_t):
        gens = [parse_polynomial(e, field, ("x", "y")) for e in ("x^3 - 2*y^2", "x*y^2 + 3*y^3 + x^2")]
        if field is qq_t:
            point, _ = modp.point_span(field, 0)
            gens.append(SparsePoly.constant(field, 2, field.param("a")) * gens[0])
        else:
            point = None
        memo = RunMemo(gens, glex, 2, DEFAULT_CAPS, point=point)
        pool = [(i, d - i) for d in range(6) for i in range(d + 1)]
        terms = [memo.terms.pack(g) for g in rng.sample(pool, 9)]
        k = len(gens)
        want = [{} for _ in terms]
        images = [{} for _ in terms]
        for i, cols in enumerate(memo.columns(terms)):
            for m, im, col in zip(want, images, cols):
                for s, c, v in col:
                    m[s * k + i] = c
                    if v is not None:
                        im[s * k + i] = v
        assert memo.column_maps(terms) == want
        assert any(want)
        if point is not None:
            assert memo.image_maps(terms) == images and any(images)


def test_results_of_one_input_compare_equal(glex):
    """Two runs of one input on equal caps give equal results, their layouts
    made apart but equal by value."""
    x, y = (SparsePoly.variable(QQ, 2, i) for i in range(2))
    gens = [x * x * x - y * y, x * y]
    first, second = (compute_dual_basis(gens, glex) for _ in range(2))
    assert first.terms is not second.terms and first.terms == second.terms
    assert first == second


def _reaches(root, cls):
    """Whether an instance of cls is reachable from root through references,
    not counting classes, modules and functions (their globals reach
    everything)."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen = {id(root)}
    stack = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, cls):
            return True
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, skip):
                seen.add(id(ref))
                stack.append(ref)
    return False


def test_results_do_not_keep_the_run_memo(monkeypatch, glex):
    """The memo lives as long as its run: no DualBasisResult, and no cached
    MultiplicityResult, after member queries too, holds one.  The
    integral-equation check is turned off, so that the member x*y takes the
    K(t) run of J + (h)."""
    monkeypatch.setattr(reduction, "_integral_equation", lambda inst, h, stats: False)
    ff = FunctionField(QQ, ("a", "b"))
    state = DualBasisState(example1_gens(ff), glex, DEFAULT_CAPS)
    assert _reaches(state, RunMemo)  # the walk does find a memo that is kept
    clear_multiplicity_cache()
    inst, _ = parse_instance(
        json.dumps({"variables": ["x", "y"], "ideal": ["x^2", "y^2"], "dim": 2})
    )
    verdicts = {
        membership(inst, parse_polynomial(expr, inst.base, inst.var_names)).decided_by
        for expr in ("x*y", "x", "x^2 + y^3")
    }
    assert verdicts == {"multiplicity", "point-length", "in-ideal"}
    results = list(reduction._MULT_CACHE.values())
    assert len(results) == 2
    for res in results:
        assert isinstance(res.dual, DualBasisResult)
        assert not _reaches(res, RunMemo)
    assert not _reaches(compute_dual_basis(example1_gens(ff), glex), RunMemo)


def test_step_trace_example1(ff, glex):
    state = DualBasisState(example1_gens(ff), glex, DEFAULT_CAPS)
    assert set(_unpacked(state, state.l2)) == {(3, 0), (1, 1), (0, 2)}
    # 1/xy^3: matrix [[1]] from the y^2-block, trivial kernel -> rejected
    assert step(state) is False
    assert set(_unpacked(state, state.l1)) == {(0, 2)}
    assert state.matlist[-1].grid == (({(0, 0): 1},),)
    # 1/x^2y^2: [[a,0],[b,1]] rejected
    assert step(state) is False
    assert set(_unpacked(state, state.l1)) == {(0, 2), (1, 1)}
    assert state.matlist[-1].grid == (({(1, 0): 1}, {}), ({(0, 1): 1}, {(0, 0): 1}))
    # 1/x^4y: accepts xi_1, polylist gains the primitive numerator of a
    assert step(state) is True
    assert state.polylist == [{(1, 0): 1}]
    a, b = ff.param("a"), ff.param("b")
    assert state.xis[0].coeffs == {(3, 0): a, (1, 1): -ff.one(), (0, 2): b}
    assert set(_unpacked(state, state.l2)) == {(4, 0), (1, 1), (0, 2)}
    # 1/x^5y rejected, loop finishes
    assert step(state) is False
    assert state.done()
    assert state.length == 5


def test_compute_dual_basis_examples(ff, glex, P):
    res = compute_dual_basis(example1_gens(ff), glex)
    assert res.length == 5
    trivial = compute_dual_basis(
        [SparsePoly.variable(QQ, 2, 0), SparsePoly.variable(QQ, 2, 1)], glex
    )
    assert trivial.length == 1
    assert [eta.coeffs for eta in trivial.basis()] == [{(0, 0): Fraction(1)}]
    # specialization a=1, b=0: the spec sheet says 5, but the independent
    # oracle (and a hand run of the loop) give 6 -- the b=0 point is exactly
    # the degenerate locus excluded by the third rejected matrix.
    g1 = P(QQ, 2, {(3, 0): 1, (1, 1): 1})
    g2 = P(QQ, 2, {(0, 2): 1})
    assert vector_space_length([g1, g2]) == 6
    assert compute_dual_basis([g1, g2], glex).length == 6
    # the generic point a=1, b=1 does give 5
    g2b = P(QQ, 2, {(0, 2): 1, (1, 1): 1})
    assert compute_dual_basis([g1, g2b], glex).length == 5
    # Example 3 over QQ(a,b): length 10 with T1 of size 8 plus 2 xi's
    ff3 = FunctionField(QQ, ("a", "b"))
    a, b = ff3.param("a"), ff3.param("b")
    h1 = SparsePoly(ff3, 3, {(2, 0, 0): ff3.one(), (0, 0, 2): a})
    h2 = SparsePoly(ff3, 3, {(1, 1, 0): ff3.one(), (0, 0, 2): b})
    h3 = SparsePoly(ff3, 3, {(2, 0, 0): ff3.one(), (0, 3, 0): ff3.one(), (0, 0, 4): ff3.one()})
    res3 = compute_dual_basis([h1, h2, h3], glex)
    assert res3.length == 10
    assert len(res3.t1_points) == 8 and len(res3.xis) == 2


def test_invariants_on_example1(ff, glex):
    gens = example1_gens(ff)
    res = compute_dual_basis(gens, glex)
    # annihilation of the full dual basis
    for f in gens:
        for eta in res.basis():
            assert not act(f, eta)
    # strict LT chain and primitive polynomial vectors
    keys = [glex.key(leading(xi, glex)[0]) for xi in res.xis]
    assert keys == sorted(keys)
    for xi, lt in zip(res.xis, res.accepted_lts):
        assert leading(xi, glex)[0] == lt
        assert is_kernel_vector(xi, lt)


def test_order_independence_of_length(ff):
    gens = example1_gens(ff)
    lengths = {
        compute_dual_basis(gens, MonomialOrder(kind)).length
        for kind in ("glex", "grevlex", "lex")
    }
    assert lengths == {5}


def test_reduced_form_of_xis(ff, glex):
    # no term of a stored xi lies in the LT staircase at its acceptance
    state = DualBasisState(example1_gens(ff), glex, DEFAULT_CAPS)
    while not state.done():
        ltn_before = state.ltn
        accepted = step(state)
        if accepted:
            for term in state.xis[-1].terms():
                assert not ltn_before.contains(state.terms.pack(term))


def test_series_generators(glex):
    # <x^2/(1-x), y> has the colength of <x^2, y>
    one = SparsePoly.constant(QQ, 1, Fraction(1))
    x1 = SparsePoly.variable(QQ, 1, 0)
    # build in 2 vars
    num = SparsePoly(QQ, 2, {(2, 0): Fraction(1)})
    den = SparsePoly(QQ, 2, {(0, 0): Fraction(1), (1, 0): Fraction(-1)})
    oracle = RationalSeries(num, den)
    y = SparsePoly.variable(QQ, 2, 1)
    res = compute_dual_basis([oracle, PolySeries(y)], glex)
    assert res.length == 2


def test_series_staircase_needs_growth(glex):
    # numerator of high order: truncation must iterate before certifying T1
    num = SparsePoly(QQ, 2, {(6, 0): Fraction(1)})
    den = SparsePoly(QQ, 2, {(0, 0): Fraction(1), (1, 0): Fraction(1)})
    oracle = RationalSeries(num, den)  # x^6 - x^7 + ...
    y = SparsePoly.variable(QQ, 2, 1)
    res = compute_dual_basis([oracle, PolySeries(y)], glex)
    assert res.length == 6


def test_not_zero_dimensional_and_caps(glex, P):
    with pytest.raises(NotZeroDimensional):
        compute_dual_basis([SparsePoly.variable(QQ, 2, 0)], glex)
    small = ResourceCaps(max_terms=3, max_degree=64, max_iterations=10000)
    with pytest.raises(CapExceeded):
        compute_dual_basis(
            [SparsePoly.monomial(QQ, (5, 0)), SparsePoly.monomial(QQ, (0, 5))],
            glex,
            caps=small,
        )


def test_unit_ideal_has_zero_length(glex, P):
    gen = P(QQ, 2, {(0, 0): 1, (1, 0): 1})
    res = compute_dual_basis([gen], glex)
    assert res.length == 0
    assert res.basis() == []


def test_random_monomial_lengths_agree_with_oracle(glex):
    rng = random.Random(101)
    for _ in range(60):
        n = rng.choice([2, 3])
        gens = {
            tuple(b if i == j else 0 for j in range(n))
            for i, b in enumerate(rng.randint(1, 4) for _ in range(n))
        }
        for _ in range(rng.randint(0, 2)):
            gens.add(tuple(rng.randint(0, 3) for _ in range(n)))
        gens = {g for g in gens if any(g)}
        expected = monomial_length(gens)
        if expected > 40:
            continue
        polys = [SparsePoly.monomial(QQ, g) for g in sorted(gens)]
        assert compute_dual_basis(polys, glex).length == expected


def test_finite_field_run(glex):
    F = GF(32003)
    gens = [SparsePoly.monomial(F, g) for g in [(3, 0), (0, 2), (1, 1)]]
    assert compute_dual_basis(gens, glex).length == 4


def test_budget_stops_the_loop_at_that_length(glex):
    from hsmult.errors import InternalInconsistency

    x3, y2, xy = (SparsePoly.monomial(QQ, e) for e in [(3, 0), (0, 2), (1, 1)])
    gens = [x3 + xy, y2 + xy]  # 4 staircase terms and 1 element
    full = compute_dual_basis(gens, glex)
    assert full.length == 5
    for budget in range(1, 7):
        run = compute_dual_basis(gens, glex, budget=budget)
        assert run.length == min(5, max(4, budget))
        assert run.iterations <= full.iterations
    state = DualBasisState(gens, glex, DEFAULT_CAPS)
    while not state.done():
        step(state)
    with pytest.raises(InternalInconsistency, match="finished state"):
        step(state)


def test_injected_solver_inconsistencies(ff, glex, monkeypatch):
    """A solve that claims a kernel vector with vanishing first entry is an
    InternalInconsistency, and an UnexpectedNullity from a solve propagates,
    on both exact solves of a K(t) step: the one on the support the span
    proposes, and the one on the whole matrix at the run's last point, here
    a point whose span never decides."""
    from hsmult.errors import InternalInconsistency
    from hsmult import UnexpectedNullity

    gens = example1_gens(ff)

    def bad_kernel(M, *args, **kwargs):  # a vector with vanishing first entry
        return tuple([M.field.zero()] + [M.field.one()] * (M.ncols - 1))

    def nullity_kernel(M, *args, **kwargs):
        raise UnexpectedNullity(2)

    for route in ("support", "whole matrix"):
        for fake, error in (
            (bad_kernel, InternalInconsistency), (nullity_kernel, UnexpectedNullity),
        ):
            with monkeypatch.context() as m:
                m.setattr(matlis, "kernel", fake)
                state = DualBasisState(gens, glex, DEFAULT_CAPS)
                if route == "whole matrix":
                    state.retry = len(DEFAULT_PRIMES) - 1
                    m.setattr(matlis, "_span_coordinates", nullity_kernel)
                with pytest.raises(error):
                    while not state.done():
                        step(state)
                assert state.stats.fallbacks == (route == "whole matrix")
                assert state.stats.retries == 0


FIXTURE_NAMES = sorted(p.name for p in FIXTURES.glob("*.json"))


def _eager_run(gens, order, caps):
    """The run, step by step, with each step checked against a fresh
    build_matrix + kernel on its full gamma: the same verdict, and on
    acceptance the same vector.  Returns the finished state and the rejected
    matrices made canonical when they are rejected, from the fresh ones."""
    state = DualBasisState(gens, order, caps)
    key = state.memo.key
    eager = []
    while not state.done():
        tau0 = min(state.l2 - state.l1, key=key)
        gamma = [tau0] + gamma_candidates(
            state.t2, state.ltn, tau0, limit=caps.max_terms, key=key
        )
        tuples = _unpacked(state, gamma)
        M = _fresh_build(gens, tuples, order, state.nvars)
        v = kernel(M)
        assert step(state) is (v is not None)
        if v is not None:
            assert state.elements[-1].coeffs == {g: a for g, a in zip(tuples, v) if a}
        elif state.track_certificates:
            eager.append(canonical_cleared_matrix(M))
    return state, eager


def _assert_one_zero_per_row(matrices):
    for M in matrices:
        for row in M.grid:
            assert len({id(a) for a in row if not a}) <= 1


def _random_parameter_gens(rng, field, pool):
    """A pure power of each of 2 or 3 variables plus up to 3 terms below
    degree 3 with coefficients drawn from pool."""
    one = field.one()
    nvars = rng.choice([2, 3])
    gens = []
    for i in range(nvars):
        power = tuple(rng.randint(2, 3) if j == i else 0 for j in range(nvars))
        coeffs = {power: one}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in range(nvars))
            if sum(e) >= 1 and e != power:
                coeffs[e] = rng.choice(pool)
        gens.append(SparsePoly(field, nvars, coeffs))
    return gens


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_matlist_on_read_equals_eager_canonical_forms(name):
    inst = load_instance(name)[0]
    if inst.d == 0:
        return
    gens, _ = generic_generators(inst)
    res, eager = _eager_run(gens, inst.order, inst.caps)
    assert res.matlist == [] or res.matlist[0].rows is None
    assert [M.grid for M in res.matlist] == [M.grid for M in eager]
    assert all(M.rows is None for M in res.matlist + res.rejected)
    _assert_one_zero_per_row(res.matlist + res.rejected)
    # a second read returns the very same matrices, made once
    for result in (res, multiplicity(inst, use_cache=False)):
        first = list(result.matlist)
        assert [M.grid for M in first] == [M.grid for M in eager]
        assert all(a is b for a, b in zip(first, result.matlist, strict=True))


def test_matlist_on_read_equals_eager_on_random_parameter_ideals(glex):
    rng = random.Random(41)
    qq_t = FunctionField(QQ, ("a", "b"))
    gf_t = FunctionField(GF(7), ("a", "b"))
    caps = ResourceCaps(max_terms=400, max_degree=16, max_iterations=400)
    compared = 0
    for trial in range(24):
        field = qq_t if trial % 2 else gf_t
        a, b = field.param("a"), field.param("b")
        one = field.one()
        pool = [a, b, a + one, (a + one) / field.from_int(3), a * b - one, field.from_int(3),
                a / field.from_int(2) if not field.char else a * a]
        gens = _random_parameter_gens(rng, field, pool)
        res, eager = _eager_run(gens, glex, caps)
        # read after every step too: the matrices read before are not remade
        state = DualBasisState(gens, glex, caps)
        while not state.done():
            before = list(state.matlist)
            step(state)
            assert all(x is y for x, y in zip(before, state.matlist))
        assert [M.grid for M in state.matlist] == [M.grid for M in eager]
        assert [M.grid for M in res.matlist] == [M.grid for M in eager]
        _assert_one_zero_per_row(res.matlist + res.rejected)
        compared += len(eager)
    assert compared >= 20


def test_every_parameter_step_matches_a_fresh_solve(glex):
    """Every step of a K(t) run, decided on the run's span at its point,
    gives the verdict and vector of a fresh build_matrix + kernel on its
    full gamma, and the MatList is the one built eagerly: seeded ideals over
    QQ(t), GF(32003)(t) and GF(3)(t), the last with its point in GF(3^8)."""
    rng = random.Random(71)
    caps = ResourceCaps(max_terms=400, max_degree=16, max_iterations=400)
    steps = {}
    for trial in range(36):
        field = FunctionField((QQ, GF(32003), GF(3))[trial % 3], ("a", "b"))
        a, b = field.param("a"), field.param("b")
        one = field.one()
        pool = [a, b, a + one, (a + one) / field.from_int(2), a * b - one, field.from_int(2) * b,
                a * a]
        gens = _random_parameter_gens(rng, field, pool)
        state, eager = _eager_run(gens, glex, caps)
        assert state.retry == 0  # the first point decided every step
        assert [M.grid for M in state.matlist] == [M.grid for M in eager]
        stats = state.stats
        assert (stats.retries, stats.fallbacks) == (0, 0)
        assert stats.dispatched == stats.trivial_by_modp + stats.accepted_by_support
        assert stats.accepted_by_support == len(state.elements)
        steps[field.char] = steps.get(field.char, 0) + stats.dispatched
    assert min(steps.values()) >= 40, steps


def _rejected_column_sets(monkeypatch):
    """Record the column set (tau0 and its candidates) of every rejected
    K(t) step, one list per run, keyed by the run's state (kept alive, so
    that no two runs share a key)."""
    runs = {}
    real = matlis._parameter_kernel

    def recording(state, gamma):
        vec = real(state, gamma)
        if vec is None:
            runs.setdefault(state, []).append(frozenset(gamma))
        return vec

    monkeypatch.setattr(matlis, "_parameter_kernel", recording)
    return runs


def _chain_pairs(runs):
    """The number of consecutive rejected steps; AssertionError unless each
    step's column set contains the one before it."""
    pairs = 0
    for sets in runs.values():
        for before, after in zip(sets, sets[1:]):
            assert before <= after, sorted(before - after)
            pairs += 1
    return pairs


def test_rejected_column_sets_form_a_chain(monkeypatch, glex):
    """Over K(t), the candidate set C never loses a term and a rejected tau0
    is a candidate of every later step, so each rejected step's columns
    contain those of the rejected step before it: on the fixtures and on
    seeded ideals over QQ(t), GF(32003)(t) and GF(3)(t)."""
    runs = _rejected_column_sets(monkeypatch)
    for name in FIXTURE_NAMES:
        inst = load_instance(name)[0]
        if inst.d:
            multiplicity(inst, use_cache=False)
    fixture_pairs = _chain_pairs(runs)
    runs.clear()
    rng = random.Random(73)
    caps = ResourceCaps(max_terms=400, max_degree=16, max_iterations=400)
    for trial in range(36):
        field = FunctionField((QQ, GF(32003), GF(3))[trial % 3], ("a", "b"))
        a, b = field.param("a"), field.param("b")
        one = field.one()
        pool = [a, b, a + one, a * b - one, field.from_int(2) * b, a * a]
        state = DualBasisState(_random_parameter_gens(rng, field, pool), glex, caps)
        while not state.done():
            step(state)
    assert fixture_pairs >= 20 and _chain_pairs(runs) >= 60


P = DEFAULT_PRIMES[0]


def _force_point(monkeypatch, point, every_retry=False):
    """Make point the first hashed point of every field over QQ, or with
    every_retry each hashed point of every field."""
    real = modp._hashed_point
    monkeypatch.setattr(
        modp, "_hashed_point",
        lambda retry, nparams, char: (
            point if retry == 0 or every_retry else real(retry, nparams, char)
        ),
    )


def _forbid_the_one_matrix_route(monkeypatch):
    """Make ``modp.kernel_via_modp`` and ``modp.specialize`` raise: no
    composition-series run evaluates a whole matrix at a point."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a run reached the one-matrix route")

    monkeypatch.setattr(modp, "kernel_via_modp", forbidden)
    monkeypatch.setattr(modp, "specialize", forbidden)


def _degenerate_gens(ff, case):
    """Example 1's shape, with a generator coefficient that makes the run's
    first point degenerate in the given way."""
    a, b = ff.param("a"), ff.param("b")
    x3, y2, xy = (SparsePoly.monomial(ff, e) for e in ((3, 0), (0, 2), (1, 1)))
    g2 = y2 + xy.scale(b)
    if case == "prime denominator":
        return [x3 + xy.scale(a / ff.from_int(P)), g2]
    if case == "every prime denominator":
        return [x3 + xy.scale(a / ff.from_int(math.prod(DEFAULT_PRIMES))), g2]
    return [x3.scale(a - ff.one()) + xy.scale(a), g2]  # at a = 1 1/x^3's column vanishes


def test_no_run_reaches_the_one_matrix_route(monkeypatch):
    """No fixture's ``mult`` evaluates a whole matrix at a point (the
    degenerate-point runs below are checked the same way)."""
    _forbid_the_one_matrix_route(monkeypatch)
    ran = 0
    for name in FIXTURE_NAMES:
        inst, options = load_instance(name)
        if inst.d:
            stats = run_command("mult", inst, options)[1]
            ran += stats.dispatched > stats.direct
    assert ran == 9  # the fixtures whose mult runs over K(t)


@pytest.mark.parametrize("case", ["prime denominator", "no support vector"])
def test_degenerate_points_move_the_run_to_its_next_point(monkeypatch, glex, case):
    """At a point whose prime divides a generator coefficient's integer
    denominator (over QQ), or where tau0's image lies in the span but the
    exact solve on its support finds no vector, the span cannot decide: the
    run moves to its next hashed point, with one retry, and decides that
    step and every later one there.  The length, PolyList and MatList are
    those of the run decided at that point from the start, and so are the
    counts of each path."""
    ff = FunctionField(QQ, ("a", "b"))
    gens = _degenerate_gens(ff, case)
    with monkeypatch.context() as m:
        _force_point(m, modp._hashed_point(1, 2, 0))
        ref, _ = _eager_run(gens, glex, DEFAULT_CAPS)
    assert (ref.retry, ref.stats.retries, ref.stats.fallbacks) == (0, 0, 0)
    if case == "no support vector":
        _force_point(monkeypatch, (P, (1, 5)))
    _forbid_the_one_matrix_route(monkeypatch)
    state, eager = _eager_run(gens, glex, DEFAULT_CAPS)
    assert state.retry == 1
    assert (state.length, state.polylist) == (ref.length, ref.polylist)
    grids = [M.grid for M in state.matlist]
    assert grids == [M.grid for M in ref.matlist] == [M.grid for M in eager]
    assert state.stats.dispatched == len(state.l1) + len(state.elements)
    assert state.stats.as_dict() == dict(ref.stats.as_dict(), retries=1)


def test_a_step_no_point_decides_takes_the_exact_kernel(monkeypatch, glex):
    """Over QQ(a, b) with the coefficient a / (P0 P1 P2), every point's prime
    divides a denominator.  The run moves once per point it leaves, then
    stays at its last point, and the exact ``kernel`` of the whole matrix
    decides every step, with the verdicts, PolyList and MatList of the exact
    reference."""
    ff = FunctionField(QQ, ("a", "b"))
    _forbid_the_one_matrix_route(monkeypatch)
    state, eager = _eager_run(_degenerate_gens(ff, "every prime denominator"), glex, DEFAULT_CAPS)
    good = compute_dual_basis(example1_gens(ff), glex)
    assert (state.length, len(state.polylist)) == (good.length, len(good.polylist))
    assert [M.grid for M in state.matlist] == [M.grid for M in eager]
    steps = len(state.l1) + len(state.elements)
    assert (state.retry, steps) == (len(DEFAULT_PRIMES) - 1, 4)
    assert state.stats.as_dict() == dict(
        dispatched=steps, direct=0, trivial_by_modp=0, accepted_by_support=0,
        retries=2, fallbacks=steps,
    )


def test_degenerate_points_over_gf2_give_the_verdicts_of_good_points(monkeypatch, glex):
    """Over GF(2)(a, b), with a = 1 at every point the run meets, the span
    cannot decide some step at any point: the run makes two retries, and
    the exact kernel decides what its last point cannot.  Every verdict,
    the PolyList and the MatList are those of the run at its own points."""
    ff = FunctionField(GF(2), ("a", "b"))
    gens = _degenerate_gens(ff, "no support vector")
    good, _ = _eager_run(gens, glex, DEFAULT_CAPS)
    assert (good.stats.retries, good.stats.fallbacks) == (0, 0)
    _force_point(monkeypatch, (2, (1, 5)), every_retry=True)
    _forbid_the_one_matrix_route(monkeypatch)
    state, eager = _eager_run(gens, glex, DEFAULT_CAPS)
    assert (state.length, state.polylist) == (good.length, good.polylist)
    assert [M.grid for M in state.matlist] == [M.grid for M in good.matlist] == [
        M.grid for M in eager
    ]
    assert state.stats.as_dict() == dict(
        dispatched=4, direct=0, trivial_by_modp=2, accepted_by_support=0, retries=2, fallbacks=2
    )


def test_dependent_candidate_columns_at_the_point_leave_the_span(monkeypatch, glex):
    """The columns of 1/x and 1/y under (x + a y, x + y) are independent over
    K(t) and equal at a = 1.  A step that meets them there moves the run to
    its next point, with a span of the columns' images there, which gives
    the exact verdict.  The step is made directly: in the runs tried, such
    a point always made an earlier step move first, through a support solve
    with no vector."""
    ff = FunctionField(QQ, ("a",))
    x, y = (SparsePoly.variable(ff, 2, i) for i in range(2))
    gens = [x + y.scale(ff.param("a")), x + y]
    _force_point(monkeypatch, (P, (1,)))
    _forbid_the_one_matrix_route(monkeypatch)
    state = DualBasisState(gens, glex, DEFAULT_CAPS)
    first = state.span
    gamma = [(2, 0), (1, 0), (0, 1)]
    M = _fresh_build(gens, gamma, glex, 2)
    assert kernel(M) is None
    assert matlis._parameter_kernel(state, [state.terms.pack(g) for g in gamma]) is None
    assert state.span is not first and state.memo.point == modp._hashed_point(1, 1, 0)
    assert [R.grid for R in state.rejected] == [M.grid]
    # the next point decides the step on its span
    assert state.stats.as_dict() == dict(
        dispatched=0, direct=0, trivial_by_modp=1, accepted_by_support=0, retries=1, fallbacks=0
    )


WIDE_TWO = ["x^2", "y^2 + x^70000"]
WIDE_THREE = ["x^2", "y^2 + x^70000", "z^2", "x*y*z + y^65537"]
WIDE_THREE_MULT = {
    "e": 8,
    "matlist": [[["1"]], [["1", "0"], ["0", "1"]], [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
    "params": ["t_1_4", "t_2_4", "t_3_4"],
    "polylist": ["1"],
    "t1_size": 7,
    "xi_count": 1,
}


@pytest.mark.parametrize("char", [0, 3])
@pytest.mark.parametrize(
    "names, ideal, length, mult",
    [
        (["x", "y"], WIDE_TWO, {"length": 4, "t1_size": 4, "xi_count": 0},
         {"e": 4, "matlist": [], "params": [], "polylist": [], "t1_size": 4, "xi_count": 0}),
        (["x", "y", "z"], WIDE_THREE, {"length": 7, "t1_size": 7, "xi_count": 0}, WIDE_THREE_MULT),
    ],
)
def test_exponents_wider_than_any_fixed_field(char, names, ideal, length, mult):
    """Generator exponents of 2^16 and more beside a small staircase: the
    length and mult reports are those recorded when dual terms were exponent
    tuples, over QQ and GF(3); the 3-variable mult runs over K(t)."""
    inst, options = parse_instance(
        json.dumps({"characteristic": char, "variables": names, "ideal": ideal, "dim": len(names)})
    )
    assert run_command("length", inst, options)[0] == length
    report, stats = run_command("mult", inst, options)
    report = json.loads(json.dumps(report))
    assert {k: v for k, v in report.items() if k in mult} == mult
    assert stats.dispatched == len(names) * 2 - 2
