import random
from fractions import Fraction

import pytest

from hsmult import (
    GF,
    QQ,
    ExactMatrix,
    FunctionField,
    ModpStats,
    MonomialOrder,
    SparsePoly,
    UnexpectedNullity,
    compute_dual_basis,
    kernel,
    kernel_via_modp,
    multiplicity,
    nonsingular_at,
    rank,
    specialize,
)
from hsmult import modp
from hsmult.linalg import ColumnSpan, span_kernel
from hsmult.modp import DEFAULT_PRIMES, _PRIMITIVE, _Extension, _point_field, point_field_order
from hsmult.scalars import pp_add, pp_mul
from tests.conftest import naive_pp_eval, plain


@pytest.fixture
def ff():
    return FunctionField(QQ, ("a", "b"))


def _from_logs(p, rows):
    """Rows of logarithms over the point field of p (-1 for zero), as the
    ints of their elements."""
    F = _point_field(p)
    return [[F.exp[v] if v >= 0 else 0 for v in row] for row in rows]


def test_specialize_spec_examples(ff):
    a, b = ff.param("a"), ff.param("b")
    one, zero = ff.one(), ff.zero()
    M2 = ExactMatrix(ff, ((a, zero), (b, one)), 2)
    # the point fields of 5 and 7 are GF(5^5) and GF(7^4): logarithms
    S = specialize(M2, (5, (2, 3)))
    assert _from_logs(5, S) == [[2, 0], [3, 1]]
    M3 = ExactMatrix(ff, ((one, a, zero), (zero, b, one)), 3)
    S3 = specialize(M3, (5, (2, 3)))
    assert _from_logs(5, S3) == [[1, 2, 0], [0, 3, 1]]
    Z = ExactMatrix(ff, ((zero, zero),), 2)
    SZ = specialize(Z, (7, (1, 1)))
    assert all(e == -1 for row in SZ for e in row)
    assert specialize(M2, (DEFAULT_PRIMES[0], (2, 3))) == [[2, 0], [3, 1]]


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
    assert kernel_via_modp(M2, ((5, (0, 3)),), stats) is None
    assert stats.retries >= 1
    # kernel matrix, bad point truncates the support
    M = ExactMatrix(ff, ((one, a, zero), (zero, b, one)), 3)
    stats2 = ModpStats()
    assert kernel_via_modp(M, ((5, (0, 3)),), stats2) == (
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
    assert kernel_via_modp(M, (bad, bad, bad), stats) == (a, -one, b)
    assert stats.fallbacks == 1


def test_determinism(ff):
    a, b = ff.param("a"), ff.param("b")
    one, zero = ff.one(), ff.zero()
    M = ExactMatrix(ff, ((one, a, zero), (zero, b, one)), 3)
    p1 = modp._hashed_point(0, 2, 0)
    p2 = modp._hashed_point(0, 2, 0)
    assert p1 == p2
    assert modp._hashed_point(1, 2, 0) != p1
    assert kernel_via_modp(M) == kernel_via_modp(M)


def test_points_are_seeded_per_field_not_per_matrix(ff, monkeypatch):
    """Two different matrices over one field meet the same point; the
    retries give distinct points, in retry order; forced points come first,
    their values taken mod their prime, and the hashed points follow."""
    a, b = ff.param("a"), ff.param("b")
    one, zero = ff.one(), ff.zero()
    seen = []
    real = modp.specialize
    monkeypatch.setattr(modp, "specialize", lambda M, pt: seen.append(pt) or real(M, pt))
    kernel_via_modp(ExactMatrix(ff, ((one, a, zero), (zero, b, one)), 3))
    kernel_via_modp(_upper_unitriangular(ff, 5))
    assert seen[0] == seen[1] == modp._hashed_point(0, 2, 0)
    for char in (0, 2, 3, 32003):
        points = [modp._hashed_point(retry, 2, char) for retry in range(len(DEFAULT_PRIMES))]
        assert len({values for _, values in points}) == len(points)
        assert [p for p, _ in points] == [char or q for q in DEFAULT_PRIMES]
    # singular at a = 0 (mod 5) and at a = -1 (mod 7), so all three points are met
    seen.clear()
    degenerate = ExactMatrix(ff, ((a, zero), (zero, a + one)), 2)
    assert kernel_via_modp(degenerate, ((5, (0, 8)), (7, (-1, 3)))) is None
    assert seen == [(5, (0, 3)), (7, (6, 3)), modp._hashed_point(2, 2, 0)]


@pytest.mark.parametrize("char", [0, 2, 3, 5, 97, 101, 127, 32003])
def test_hashed_points_have_no_zero_coordinate(char):
    """A zero coordinate kills every monomial in its parameter, so such a
    point would be degenerate for every matrix over its field."""
    for retry in range(3):
        for nparams in range(1, 9):
            p, values = modp._hashed_point(retry, nparams, char)
            assert len(values) == nparams
            assert all(0 < v < point_field_order(p) for v in values)


def test_three_parameter_run_over_gf97_needs_no_retry():
    """The first hashed point of three parameters over GF(97) had a zero
    coordinate, which made it degenerate and cost 7 retries on this run."""
    from hsmult.instance import build_instance

    inst, _ = build_instance({
        "characteristic": 97, "variables": ["x", "y", "z"], "order": "glex",
        "ideal": ["x^2 + y^3", "y^2 + z^3", "x*y*z", "z^4 + x*y"], "dim": 3,
    })
    res = multiplicity(inst, use_cache=False)
    assert len(res.params) == 3 and res.e == 15
    assert res.modp_stats.accepted_by_support + res.modp_stats.trivial_by_modp > 0
    assert (res.modp_stats.retries, res.modp_stats.fallbacks) == (0, 0)


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


def test_parameter_matrices_of_few_columns_are_decided_by_their_image(ff):
    """kernel_via_modp decides every matrix over K(t), however narrow,
    through its mod-p image; only base-field steps count as direct."""
    a, b = ff.param("a"), ff.param("b")
    one, zero = ff.one(), ff.zero()
    stats = ModpStats()

    def solve(M):
        return kernel_via_modp(M, stats=stats)

    for n in range(1, 5):
        assert solve(_upper_unitriangular(ff, n)) is None
    assert solve(ExactMatrix(ff, ((zero,),), 1)) == (one,)
    assert solve(ExactMatrix(ff, ((a, -one),), 2)) == (one, a)
    assert solve(ExactMatrix(ff, ((one, a, zero), (zero, b, one)), 3)) == (a, -one, b)
    assert solve(_upper_unitriangular(ff, 4).columns((0, 1, 2, 3, 3))) == (
        zero, zero, zero, one, -one,
    )
    assert (stats.direct, stats.trivial_by_modp, stats.accepted_by_support) == (0, 4, 4)
    assert (stats.retries, stats.fallbacks) == (0, 0)
    # a base-field run solves every step from its span, as a direct solve
    stats = ModpStats()
    res = compute_dual_basis(
        [SparsePoly.monomial(QQ, e) for e in ((3, 0), (0, 2), (1, 1))],
        MonomialOrder("glex"), stats=stats,
    )
    assert res.iterations > 0
    assert stats.dispatched == stats.direct == res.iterations


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
            assert kernel_via_modp(M, ((5, (0,) * len(M.field.params)),)) == exact


def _random_param_matrix(field, rng, nrows, ncols, squares=True):
    one = field.one()
    params = [field.param(name) for name in field.params]
    pool = [field.zero(), field.zero(), one, -one, field.from_int(2)] + params
    pool += [t + one for t in params] + [t * t - one for t in params if squares]
    # over QQ a cell with an integer denominator; over GF(p) a polynomial
    pool += [
        params[0] * params[-1],
        (params[0] + one) / field.from_int(2) if not field.char else params[0] * params[-1] + one,
    ]
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


def _annihilated_by_grid(M, v):
    """Every row of M's cleared grid times v is zero; v has denominator 1."""
    char = M.field.char
    assert all(a.den == 1 for a in v)
    for row in M.grid:
        acc = {}
        for a, b in zip(row, v):
            if a and b:
                acc = pp_add(acc, pp_mul(a, b.num, char), char)
        if acc:
            return False
    return True


def test_kernel_via_modp_agrees_with_kernel_on_random_matrices():
    """1 to 6 columns, with and without a forced degenerate first point (every
    parameter 0); the grid times every returned vector is zero."""
    rng = random.Random(5)
    # (trivial_by_modp, accepted_by_support, retries, fallbacks) per base field
    counts = {
        QQ: (50, 54, 54, 16),
        GF(32003): (54, 46, 60, 20),
        GF(3): (34, 54, 81, 32),
        GF(2): (56, 34, 81, 30),
    }
    for base, names in ((QQ, "ab"), (GF(32003), "ab"), (GF(3), "a"), (GF(2), "ab")):
        field = FunctionField(base, tuple(names))
        degenerate = ((base.char or 5, (0,) * len(names)),)
        seen = {"vector": 0, "trivial": 0, "nullity > 1": 0}
        stats = ModpStats()
        for _ in range(60):
            # near-square shapes keep most kernels trivial or one-dimensional;
            # quadratic entries past 4 columns make the exact reference slow
            ncols = rng.randint(1, 6)
            nrows = max(1, ncols + rng.choice((-2, -1, 1)))
            M = _random_param_matrix(field, rng, nrows, ncols, squares=ncols <= 4)
            exact = _kernel_or_nullity(kernel, M)
            for forced in ((), degenerate):
                got = _kernel_or_nullity(lambda A: kernel_via_modp(A, forced, stats), M)
                assert got == exact
                if isinstance(got, tuple):
                    assert _annihilated_by_grid(M, got)
            seen["vector" if isinstance(exact, tuple) else "trivial" if exact is None else exact] += 1
        assert min(seen.values()) >= 5, (base, seen)
        assert stats == ModpStats(0, 0, *counts[base]), base


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


class NaiveGF:
    """GF(p^k) = GF(p)[x] / (x^k - _PRIMITIVE[p]) by schoolbook arithmetic on
    coefficient lists, elements encoded as ints with base-p digits lowest
    first; shares only the polynomial with the engine's Zech tables."""

    def __init__(self, p):
        self.p, self.q = p, point_field_order(p)
        self.k = next(k for k in range(1, 14) if p**k == self.q)
        self.red = self.digits(_PRIMITIVE[p])

    def digits(self, x):
        return [x // self.p**i % self.p for i in range(self.k)]

    def encode(self, ds):
        return sum(d * self.p**i for i, d in enumerate(ds))

    def add(self, x, y):
        return self.encode([(a + b) % self.p for a, b in zip(self.digits(x), self.digits(y))])

    def neg(self, x):
        return self.encode([-a % self.p for a in self.digits(x)])

    def mul(self, x, y):
        k, p = self.k, self.p
        prod = [0] * (2 * k - 1)
        for i, a in enumerate(self.digits(x)):
            for j, b in enumerate(self.digits(y)):
                prod[i + j] = (prod[i + j] + a * b) % p
        for top in range(2 * k - 2, k - 1, -1):
            c, prod[top] = prod[top], 0
            for i, r in enumerate(self.red):
                prod[top - k + i] = (prod[top - k + i] + c * r) % p
        return self.encode(prod[:k])

    def power(self, x, n):
        out = 1
        for _ in range(n):
            out = self.mul(out, x)
        return out

    def inverse(self, x):
        out, base, n = 1, x, self.q - 2
        while n:
            if n & 1:
                out = self.mul(out, base)
            base, n = self.mul(base, base), n >> 1
        return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_zech_tables_agree_with_polynomial_arithmetic(p):
    F, N = _point_field(p), NaiveGF(p)
    q, m, exp, log = N.q, N.q - 1, F.exp, F.log
    assert (F.p, F.m, exp[0], exp[1]) == (p, m, 1, p)
    # powers of the root a = the int p, so log and exp are inverse maps
    x = 1
    for n in range(m):
        assert exp[n] == x and log[x] == n
        x = N.mul(x, p)
    assert x == 1 and log[0] == -1
    # every Zech entry: a^n + 1
    for n in range(m):
        assert F.zech[n] == log[N.add(exp[n], 1)]
    rng = random.Random(p)
    for _ in range(300):
        x, y = rng.randrange(q), rng.randrange(1, q)
        assert F.add(log[x], log[y]) == log[N.add(x, y)]
        assert exp[(log[y] + F.minus_one) % m] == N.neg(y)
        assert exp[-log[y] % m] == N.inverse(y)
        if x:
            assert exp[(log[x] + log[y]) % m] == N.mul(x, y)
    # GF(p) sits in GF(q) as the ints [0, p), with its own arithmetic
    for c in range(1, p):
        for d in range(1, p):
            assert exp[(log[c] + log[d]) % m] == c * d % p
            assert F.add(log[c], log[d]) == log[(c + d) % p]


def test_point_fields_build_for_every_small_prime():
    assert point_field_order(2) == 2**13 and point_field_order(3) == 3**8
    assert point_field_order(89) == 89**2 and point_field_order(97) == 97
    assert point_field_order(32003) == 32003
    assert _point_field(97) is None and _point_field(2147483647) is None
    # each table is checked to list q - 1 distinct powers when it is built
    for p in _PRIMITIVE:
        F = _Extension(p, point_field_order(p))
        assert sorted(F.exp) == list(range(1, F.m + 1))


def _naive_kernel(N, rows, ncols):
    """The kernel by reduced row echelon form in NaiveGF arithmetic: None,
    the vector whose first nonzero entry is 1, or "nullity > 1"."""
    rows = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = N.inverse(rows[r][c])
        rows[r] = [N.mul(inv, a) for a in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = N.neg(row[c])
                rows[i] = [N.add(a, N.mul(f, b)) for a, b in zip(row, rows[r])]
        pivots.append(c)
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) > 1:
        return "nullity > 1"
    if not free:
        return None
    v = [0] * ncols
    v[free[0]] = 1
    for r, c in enumerate(pivots):
        v[c] = N.neg(rows[r][free[0]])
    inv = N.inverse(next(a for a in v if a))
    return [N.mul(inv, a) for a in v]


def _extension_span_kernel(F, rows, ncols):
    """span_kernel over GF(q) on rows of GF(q) ints, as a list of them."""
    cols = [{i: F.log[row[j]] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]
    v = span_kernel(cols, F.p, F)
    return None if v is None else [F.exp[v[j]] if j in v else 0 for j in range(ncols)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_extension_kernel_matches_naive_elimination(p):
    F, N, rng = _point_field(p), NaiveGF(p), random.Random(p)
    seen = {"vector": 0, "trivial": 0, "nullity > 1": 0}
    for _ in range(60):
        ncols = rng.randint(2, 6)
        nrows = ncols + rng.choice((-1, 0, 1))
        rows = [[rng.randrange(N.q) if rng.random() < 0.6 else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        # up to two trailing columns combinations of the first two
        for j in range(ncols - min(rng.choice((0, 1, 1, 2)), ncols - 2), ncols):
            a, b = rng.randrange(N.q), rng.randrange(N.q)
            for row in rows:
                row[j] = N.add(N.mul(a, row[0]), N.mul(b, row[1]))
        expected = _naive_kernel(N, rows, ncols)
        got = _kernel_or_nullity(lambda R: _extension_span_kernel(F, R, ncols), rows)
        assert got == expected
        seen["vector" if isinstance(expected, list) else "trivial" if expected is None else expected] += 1
    assert min(seen.values()) >= 5


@pytest.mark.parametrize("p", [2, 3, 5])
def test_column_span_over_an_extension_gives_the_naive_kernel(p):
    """A ColumnSpan over GF(q) holds logarithms and uses the arithmetic of
    _Extension: columns are inserted while they stay independent, and the
    first dependent one reduces to zero with the coordinates of the naive
    kernel vector of [that column | the inserted ones]."""
    F, N, rng = _point_field(p), NaiveGF(p), random.Random(10 + p)
    dependent = 0
    for _ in range(80):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.randrange(N.q) if rng.random() < 0.6 else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        if ncols > 2 and rng.random() < 0.5:  # the last column a combination of the first two
            a, b = rng.randrange(N.q), rng.randrange(N.q)
            for row in rows:
                row[-1] = N.add(N.mul(a, row[0]), N.mul(b, row[1]))
        span = ColumnSpan(p, F)
        for j in range(ncols):
            col = {i: F.log[row[j]] for i, row in enumerate(rows) if row[j]}
            residual, coords = span.reduce(j, col)
            if residual:
                span.insert(j, residual, coords)
                continue
            order = [j] + list(range(j))
            want = _naive_kernel(N, [[row[k] for k in order] for row in rows], j + 1)
            assert [F.exp[coords[k]] if k in coords else 0 for k in order] == want
            dependent += 1
            break
    assert dependent >= 20


@pytest.mark.parametrize("p", [2, 3, 5])
def test_specialize_into_extension_matches_naive_evaluation(p):
    ff = FunctionField(GF(p), ("a", "b"))
    N, rng = NaiveGF(p), random.Random(p)
    M = _random_param_matrix(ff, rng, 4, 5)
    values = (rng.randrange(N.q), rng.randrange(N.q))
    # specialize gives the logarithms a span over GF(q) holds, -1 for zero
    got = _from_logs(p, specialize(M, (p, values)))
    for row, out in zip(M.grid, got):
        for a, v in zip(row, out):
            acc = 0
            for expo, c in a.items():
                term = c
                for x, d in zip(values, expo):
                    term = N.mul(term, N.power(x, d))
                acc = N.add(acc, term)
            assert v == acc


def test_kernel_via_modp_agrees_with_kernel_over_small_characteristic():
    rng = random.Random(11)
    seen = {"vector": 0, "trivial": 0, "nullity > 1": 0}
    stats = ModpStats()
    for p in (2, 3, 5):
        for nparams in (1, 2):
            field = FunctionField(GF(p), ("a", "b")[:nparams])
            for _ in range(20):
                ncols = rng.randint(2, 5)
                M = _random_param_matrix(field, rng, ncols + rng.choice((-2, -1, 1)), ncols)
                exact = _kernel_or_nullity(kernel, M)
                got = _kernel_or_nullity(lambda A: kernel_via_modp(A, stats=stats), M)
                assert got == exact
                seen["vector" if isinstance(exact, tuple) else "trivial" if exact is None else exact] += 1
    assert min(seen.values()) >= 5
    # only a matrix whose exact kernel has dimension > 1 reaches the fallback
    assert stats.fallbacks == seen["nullity > 1"]
    assert stats == ModpStats(
        trivial_by_modp=40, accepted_by_support=45, retries=70, fallbacks=35
    )


def _singular_at_every_gf2_point():
    """A 5 x 5 matrix over GF(2)(t) of determinant t^2 + t, and that matrix
    with a sixth column, the sum of the others."""
    ff = FunctionField(GF(2), ("t",))
    t, one, zero = ff.param("t"), ff.one(), ff.zero()
    rows = [[t * t + t, one, zero, zero, zero]]
    rows += [[zero] * i + [one, t] + [zero] * (3 - i) for i in range(1, 4)]
    rows += [[zero] * 4 + [one]]
    A = ExactMatrix(ff, tuple(map(tuple, rows)), 5)
    col = [sum(row, zero) for row in rows]
    B = ExactMatrix(ff, tuple(tuple(row) + (s,) for row, s in zip(rows, col)), 6)
    return A, B


def test_full_rank_matrix_singular_at_every_gf2_point_is_decided_at_a_point():
    A, B = _singular_at_every_gf2_point()
    assert rank(A) == 5 and kernel(A) is None
    for t in (0, 1):
        assert not nonsingular_at(A, (t,))
    stats = ModpStats()
    assert kernel_via_modp(A, stats=stats) is None
    assert kernel_via_modp(B, stats=stats) == kernel(B)
    assert (stats.trivial_by_modp, stats.accepted_by_support) == (1, 1)
    assert (stats.retries, stats.fallbacks) == (0, 0)
    # the two points of GF(2), forced, fail; the third point, in GF(2^13),
    # decides
    stats = ModpStats()
    points = ((2, (0,)), (2, (1,)))
    assert kernel_via_modp(A, points, stats) is None
    assert kernel_via_modp(B, points, stats) == kernel(B)
    assert (stats.retries, stats.fallbacks) == (4, 0)
