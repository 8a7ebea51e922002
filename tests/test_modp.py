import random
from fractions import Fraction

import pytest

from hsmult import (
    GF,
    QQ,
    ExactMatrix,
    FunctionField,
    ModpPolicy,
    ModpStats,
    SpecPoint,
    UnexpectedNullity,
    kernel,
    kernel_via_modp,
    multiplicity,
    nonsingular_at,
    rank,
    solve_dispatch,
    specialize,
)
from tests.conftest import naive_pp_eval, plain


@pytest.fixture
def ff():
    return FunctionField(QQ, ("a", "b"))


def test_specialize_spec_examples(ff):
    a, b = ff.param("a"), ff.param("b")
    one, zero = ff.one(), ff.zero()
    M2 = ExactMatrix(ff, ((a, zero), (b, one)), 2)
    S = specialize(M2, SpecPoint(5, (2, 3)))
    assert [list(row) for row in S] == [[2, 0], [3, 1]]
    M3 = ExactMatrix(ff, ((one, a, zero), (zero, b, one)), 3)
    S3 = specialize(M3, SpecPoint(5, (2, 3)))
    assert [list(row) for row in S3] == [[1, 2, 0], [0, 3, 1]]
    Z = ExactMatrix(ff, ((zero, zero),), 2)
    SZ = specialize(Z, SpecPoint(7, (1, 1)))
    assert all(not e for row in SZ for e in row)


def test_kernel_via_modp_spec_examples(ff):
    a, b = ff.param("a"), ff.param("b")
    one, zero = ff.one(), ff.zero()
    assert kernel_via_modp(ExactMatrix(ff, ((a, zero), (b, one)), 2)) is None
    M = ExactMatrix(ff, ((one, a, zero), (zero, b, one)), 3)
    assert kernel_via_modp(M) == (a, -one, b)
    M0 = ExactMatrix(ff, ((zero,),), 1)
    assert kernel_via_modp(M0) == (one,)


def test_forced_bad_points_recover(ff):
    a, b = ff.param("a"), ff.param("b")
    one, zero = ff.one(), ff.zero()
    # trivial-kernel matrix, bad point (a=0) makes the image singular
    M2 = ExactMatrix(ff, ((a, zero), (b, one)), 2)
    stats = ModpStats()
    policy = ModpPolicy(forced_points=((5, (0, 3)),))
    assert kernel_via_modp(M2, policy, stats) is None
    assert stats.retries >= 1
    # kernel matrix, bad point truncates the support
    M = ExactMatrix(ff, ((one, a, zero), (zero, b, one)), 3)
    stats2 = ModpStats()
    assert kernel_via_modp(M, ModpPolicy(forced_points=((5, (0, 3)),)), stats2) == (
        a,
        -one,
        b,
    )
    assert stats2.retries >= 1


def test_exact_fallback_after_all_retries(ff):
    a, b = ff.param("a"), ff.param("b")
    one, zero = ff.one(), ff.zero()
    M = ExactMatrix(ff, ((one, a, zero), (zero, b, one)), 3)
    bad = (5, (0, 0))
    stats = ModpStats()
    policy = ModpPolicy(forced_points=(bad, bad, bad))
    assert kernel_via_modp(M, policy, stats) == (a, -one, b)
    assert stats.fallbacks == 1


def test_determinism(ff):
    a, b = ff.param("a"), ff.param("b")
    one, zero = ff.one(), ff.zero()
    M = ExactMatrix(ff, ((one, a, zero), (zero, b, one)), 3)
    policy = ModpPolicy()
    p1 = policy.point(b"serial", 0, 2, 0)
    p2 = policy.point(b"serial", 0, 2, 0)
    assert p1 == p2
    assert policy.point(b"serial", 1, 2, 0) != p1
    assert kernel_via_modp(M, policy) == kernel_via_modp(M, policy)


def _upper_unitriangular(ff, n):
    """An n x n parameter matrix with a trivial kernel."""
    one, zero, a = ff.one(), ff.zero(), ff.param("a")
    return ExactMatrix(
        ff,
        tuple(
            tuple(one if i == j else (a if j > i else zero) for j in range(n))
            for i in range(n)
        ),
        n,
    )


def test_dispatch_rules(ff):
    # parameter matrices with at most 4 columns are solved directly
    stats = ModpStats()
    assert solve_dispatch(_upper_unitriangular(ff, 4), stats) is None
    assert (stats.dispatched, stats.direct, stats.trivial_by_modp) == (1, 1, 0)
    # a 5-column one goes through its mod-p image
    stats = ModpStats()
    assert solve_dispatch(_upper_unitriangular(ff, 5), stats) is None
    assert (stats.dispatched, stats.direct, stats.trivial_by_modp) == (1, 0, 1)
    # no parameters: always direct, however wide
    one, zero = Fraction(1), Fraction(0)
    rows = tuple(tuple(one if j in (i, i + 1) else zero for j in range(6)) for i in range(5))
    stats = ModpStats()
    assert solve_dispatch(ExactMatrix(QQ, rows, 6), stats) == (1, -1, 1, -1, 1, -1)
    assert (stats.dispatched, stats.direct) == (1, 1)


def test_modp_over_prime_base_field():
    F = GF(32003)
    ff = FunctionField(F, ("a", "b"))
    a, b = ff.param("a"), ff.param("b")
    one, zero = ff.one(), ff.zero()
    M = ExactMatrix(ff, ((one, a, zero), (zero, b, one)), 3)
    assert kernel_via_modp(M) == (a, -one, b)


def test_modp_agrees_with_exact_on_fixture_matlists(
    example1, example2, example3, example4
):
    for inst in (example1, example2, example3, example4):
        res = multiplicity(inst)
        for M in res.matlist:
            exact = kernel(M)
            modular = kernel_via_modp(M)
            assert exact is None and modular is None or exact == modular
            # forced-bad-point injection still converges
            policy = ModpPolicy(forced_points=((5, (0,) * len(M.field.params)),))
            assert kernel_via_modp(M, policy) == exact


def _random_param_matrix(field, rng, nrows, ncols):
    one = field.one()
    params = [field.param(name) for name in field.params]
    pool = [field.zero(), field.zero(), one, -one, field.from_int(2)] + params
    pool += [t + one for t in params] + [t * t - one for t in params]
    pool += [params[0] * params[-1], one / (params[0] + one)]
    return ExactMatrix(
        field,
        tuple(tuple(rng.choice(pool) for _ in range(ncols)) for _ in range(nrows)),
        ncols,
    )


def _kernel_or_nullity(solve, M):
    try:
        return solve(M)
    except UnexpectedNullity:
        return "nullity > 1"


def test_kernel_via_modp_agrees_with_kernel_on_random_matrices():
    rng = random.Random(5)
    fields = (
        (FunctionField(QQ, ("a", "b")), ((5, (0, 0)), (3, (1, 2)))),
        (FunctionField(GF(7), ("a",)), ((7, (0,)), (7, (6,)))),
    )
    seen = {"vector": 0, "trivial": 0, "nullity > 1": 0}
    stats = ModpStats()
    for field, degenerate in fields:
        for _ in range(60):
            # near-square shapes keep most kernels trivial or one-dimensional
            ncols = rng.randint(2, 4)
            M = _random_param_matrix(field, rng, ncols + rng.choice((-2, -1, 1)), ncols)
            exact = _kernel_or_nullity(kernel, M)
            for forced in ((), degenerate[:1], degenerate):
                policy = ModpPolicy(forced_points=forced)
                got = _kernel_or_nullity(lambda A: kernel_via_modp(A, policy, stats), M)
                assert got == exact
            seen["vector" if isinstance(exact, tuple) else "trivial" if exact is None else exact] += 1
    assert min(seen.values()) >= 5
    assert stats.retries and stats.fallbacks
    assert stats.accepted_by_support and stats.trivial_by_modp


def test_nonsingular_at_grid_only_matlist_matches_entrywise_rank(
    example1, example2, example3, example4
):
    rng = random.Random(3)
    verdicts = set()
    for inst in (example1, example2, example3, example4):
        res = multiplicity(inst, use_cache=False)
        ff = res.field
        for M in res.matlist:
            assert M.rows is None
            for _ in range(6):
                values = tuple(rng.randint(-2, 2) for _ in ff.params)
                scalars = tuple(map(Fraction, values))
                rows = tuple(
                    tuple(plain(naive_pp_eval(a, scalars, ff.base)) for a in row)
                    for row in M.grid
                )
                expected = rank(ExactMatrix(ff.base, rows, M.ncols)) == M.ncols
                got = nonsingular_at(M, values)
                assert got == expected
                verdicts.add(got)
    assert verdicts == {True, False}
