import random
from fractions import Fraction

import pytest

from hsmult import (
    GF,
    QQ,
    ExactMatrix,
    FunctionField,
    InternalInconsistency,
    UnexpectedNullity,
    kernel,
    nonsingular_at,
    rank,
)
from hsmult.linalg import ColumnSpan
from hsmult.scalars import GFElement, pp_const, pp_gcd, pp_leading
from tests.conftest import plain
from tests.frozen_elimination import frozen_plain_kernel


def matvec(M, v):
    """M v in field scalars, for a function-field matrix given by its rows."""
    out = []
    for row in M.rows:
        s = M.field.zero()
        for a, b in zip(row, v):
            if a and b:
                s = s + a * b
        out.append(s)
    return out


@pytest.fixture
def ff():
    return FunctionField(QQ, ("a", "b"))


def test_kernel_spec_examples(ff):
    a, b = ff.param("a"), ff.param("b")
    one, zero = ff.one(), ff.zero()
    M = ExactMatrix(ff, ((one, a, zero), (zero, b, one)), 3)
    assert kernel(M) == (a, -one, b)
    M2 = ExactMatrix(ff, ((a, zero), (b, one)), 2)
    assert kernel(M2) is None
    M3 = ExactMatrix(QQ, ((Fraction(0),),), 1)
    assert kernel(M3) == (Fraction(1),)


def test_rank_spec_examples(ff):
    a, b = ff.param("a"), ff.param("b")
    I3 = ExactMatrix(
        QQ,
        tuple(
            tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)
        ),
        3,
    )
    assert rank(I3) == 3
    Z = ExactMatrix(QQ, ((Fraction(0),) * 3, (Fraction(0),) * 3), 3)
    assert rank(Z) == 0
    M = ExactMatrix(ff, ((a, ff.zero()), (b, ff.one())), 2)
    assert rank(M) == 2


def test_nonsingular_at_spec_examples(ff):
    a, b = ff.param("a"), ff.param("b")
    M = ExactMatrix(ff, ((a, ff.zero()), (b, ff.one())), 2)
    assert nonsingular_at(M, (1, 0)) is True
    assert nonsingular_at(M, (0, 1)) is False
    assert nonsingular_at(M, (Fraction(1, 2), 0)) is True
    one1 = ExactMatrix(ff, ((ff.one(),),), 1)
    assert nonsingular_at(one1, (3, 11)) is True


def test_kernel_vector_is_annihilated_and_rank_stable(ff):
    a, b = ff.param("a"), ff.param("b")
    one, zero = ff.one(), ff.zero()
    M = ExactMatrix(ff, ((one, a, zero), (zero, b, one)), 3)
    v = kernel(M)
    assert all(not s for s in matvec(M, v))
    widened = ExactMatrix(
        ff, tuple(row + (s,) for row, s in zip(M.rows, matvec(M, v))), 4
    )
    assert rank(widened) == rank(M)


def test_unexpected_nullity(ff):
    zero = ff.zero()
    M = ExactMatrix(ff, ((zero, zero),), 2)
    with pytest.raises(UnexpectedNullity):
        kernel(M)


def test_no_columns_rejected(ff):
    with pytest.raises(InternalInconsistency):
        kernel(ExactMatrix(ff, ((),), 0))


def _random_ff_matrix(ff, rng, nrows, ncols):
    a, b = ff.param("a"), ff.param("b")
    pool = [
        ff.zero(),
        ff.one(),
        -ff.one(),
        a,
        b,
        a + b,
        a - ff.one(),
        ff.from_int(2),
        a * b,
        a * a + ff.one(),
        a / ff.from_int(2),
    ]
    return ExactMatrix(
        ff,
        tuple(tuple(rng.choice(pool) for _ in range(ncols)) for _ in range(nrows)),
        ncols,
    )


def _assert_canonical(ff, v):
    """Denominator 1, entries with gcd 1, lead positive (char 0) or monic (char p)."""
    char = ff.char
    one = pp_const(1, len(ff.params), char)
    assert all(x.den == 1 for x in v)
    g = {}
    for x in v:
        g = pp_gcd(g, x.num, char)
    assert g == one
    _, lc = pp_leading(next(x.num for x in v if x))
    assert lc == 1 if char else lc > 0


def _naive_kernel(M):
    """Plain elimination by cross-multiplication, for cross-checking: each
    row below a pivot becomes pivot * row - entry * pivot row, and the
    vector is scaled by each pivot it is solved through, so nothing is
    divided (over K[t] only constants divide); no gcds."""
    field = M.field
    rows = [list(r) for r in M.rows]
    if not isinstance(field, FunctionField):
        # a base-field matrix holds plain numbers: compute in field scalars
        rows = [[field.from_int(a) for a in r] for r in rows]
    ncols = M.ncols
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [piv * x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
    free = [c for c in range(ncols) if c not in {c for _, c in pivots}]
    if len(free) != 1:
        return len(free)
    v = [field.zero()] * ncols
    v[free[0]] = field.one()
    for pr, pc in reversed(pivots):
        s = field.zero()
        for j in range(pc + 1, ncols):
            if rows[pr][j] and v[j]:
                s = s + rows[pr][j] * v[j]
        v = [rows[pr][pc] * x for x in v]
        v[pc] = -s
    return v


def _scaled(row, c):
    return tuple(x * c for x in row)


def test_fraction_free_agrees_with_naive_elimination(ff):
    rng = random.Random(7)
    for field in (ff, FunctionField(GF(7), ("a", "b"))):
        checked_vectors = 0
        scalars = [field.from_int(k) for k in (2, -3, 5)]
        for _ in range(60):
            M = _random_ff_matrix(field, rng, rng.randint(1, 4), rng.randint(1, 4))
            naive = _naive_kernel(M)
            if isinstance(naive, int):  # nullity count
                if naive == 0:
                    assert kernel(M) is None
                else:
                    with pytest.raises(UnexpectedNullity):
                        kernel(M)
                assert rank(M) == M.ncols - naive
                continue
            v = kernel(M)
            assert v is not None
            assert all(not s for s in matvec(M, v))
            # same one-dimensional space: cross-multiplication proportionality
            k = next(i for i, s in enumerate(naive) if s)
            for i in range(M.ncols):
                assert naive[k] * v[i] == v[k] * naive[i]
            assert rank(M) == M.ncols - 1
            _assert_canonical(field, v)
            # the canonical vector ignores row order and constant row scalings
            rows = [_scaled(row, rng.choice(scalars)) for row in M.rows]
            rng.shuffle(rows)
            assert kernel(ExactMatrix(field, tuple(rows), M.ncols)) == v
            checked_vectors += 1
        assert checked_vectors >= 5


def _random_base_matrix(field, rng, nrows, ncols):
    """Plain numbers, as build_matrix makes them: ints mod p, Fractions, int 0."""

    def entry():
        if rng.random() < 0.4:
            return 0
        if field.char:
            return rng.randrange(field.char)
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) or 0

    return ExactMatrix(
        field, tuple(tuple(entry() for _ in range(ncols)) for _ in range(nrows)), ncols
    )


def test_base_kernel_agrees_with_naive_elimination():
    """Base-field kernels (decided on a ColumnSpan) and ranks (by row
    elimination) against elimination in field elements, and kernels against
    the frozen row elimination on plain numbers that once decided them."""
    rng = random.Random(11)
    for field in (QQ, GF(2), GF(3), GF(7), GF(2147483647)):
        seen = {"trivial": 0, "line": 0, "many": 0}
        for _ in range(300):
            M = _random_base_matrix(field, rng, rng.randint(1, 5), rng.randint(1, 5))
            naive = _naive_kernel(M)
            nullity = naive if isinstance(naive, int) else 1
            assert rank(M) == M.ncols - nullity
            if nullity > 1:
                with pytest.raises(UnexpectedNullity) as err:
                    kernel(M)
                assert str(err.value) == str(UnexpectedNullity(nullity))
                seen["many"] += 1
                continue
            v = kernel(M)
            if nullity == 0:
                assert v is None
                seen["trivial"] += 1
                continue
            first = next(a for a in naive if a)
            assert v == tuple(a / first for a in naive)
            # field elements, never bare ints: an int would let DualElement
            # arithmetic skip the reduction mod p
            assert all(type(a) is (GFElement if field.char else Fraction) for a in v)
            rows = [list(row) for row in M.rows]
            assert frozen_plain_kernel(rows, M.ncols, field.char) == list(map(plain, v))
            seen["line"] += 1
        assert min(seen.values()) >= 20, (field, seen)


def test_column_span_dependencies_are_the_plain_kernel():
    """Insert columns while they stay independent; the first dependent one
    reduces to zero, and its coordinates are the vector the frozen
    plain_kernel gives for the matrix [that column | the inserted ones]."""
    rng = random.Random(19)
    for field in (QQ, GF(2), GF(7), GF(2147483647)):
        p = field.char
        dependent = 0
        for _ in range(120):
            nrows = rng.randint(1, 5)
            M = _random_base_matrix(field, rng, nrows, rng.randint(1, 6))
            cols = [{i: row[j] for i, row in enumerate(M.rows) if row[j]} for j in range(M.ncols)]
            span = ColumnSpan(p)
            for j, col in enumerate(cols):
                residual, coords = span.reduce(j, col)
                if residual:
                    span.insert(j, residual, coords)
                    assert span.names == set(range(j + 1))
                    continue
                order = [j] + list(range(j))
                rows = [[M.rows[i][k] for k in order] for i in range(nrows)]
                want = frozen_plain_kernel(rows, j + 1, p)
                assert [coords.get(k, 0) for k in order] == want
                dependent += 1
                break
        assert dependent >= 20, field


def test_polynomial_operations_never_write_into_their_inputs():
    """Zero cells of a grid row share one dict, and grids share polynomials
    with the matrices they came from, so an in-place write anywhere would
    corrupt other cells."""
    import copy

    from hsmult.linalg import _strip_row_content
    from hsmult.matlis import canonical_cleared_matrix
    from hsmult.scalars import (
        pp_add, pp_divexact, pp_mul, pp_neg, pp_primitive_row, pp_scale, pp_sub,
    )

    rng = random.Random(53)

    def poly(char):
        out = {}
        for _ in range(rng.randint(0, 4)):
            c = rng.randint(-6, 6) % char if char else rng.randint(-6, 6)
            if c:
                out[(rng.randint(0, 2), rng.randint(0, 2))] = c
        return out

    def row(char, ncols, content):
        """A row with a common factor; its zero cells are one shared dict."""
        zero = {}
        cells = [pp_mul(content, poly(char), char) for _ in range(ncols)]
        return [a if a and rng.random() < 0.6 else zero for a in cells]

    def snapshot(*objs):
        return [(o, copy.deepcopy(o)) for o in objs]

    def unchanged(snaps):
        return all(o == saved for o, saved in snaps)

    for trial in range(300):
        char = (0, 2, 3, 7)[trial % 4]
        a, b, c = poly(char), poly(char), poly(char)
        ab = pp_mul(a, b, char)
        snaps = snapshot(a, b, c, ab)
        pp_add(a, b, char), pp_sub(a, b, char), pp_mul(a, c, char)
        pp_scale(a, rng.randint(-3, 3), char), pp_neg(a, char)
        pp_gcd(a, b, char), pp_gcd(pp_mul(a, c, char), pp_mul(b, c, char), char)
        if b:
            assert pp_divexact(ab, b, char) == a
        assert unchanged(snaps)

        ncols = rng.randint(1, 5)
        content = poly(char) or pp_const(1, 2, char)
        rows = [row(char, ncols, content) for _ in range(rng.randint(1, 4))]
        ff = FunctionField(GF(char) if char else QQ, ("a", "b"))
        M = ExactMatrix.of_grid(ff, tuple(tuple(rw) for rw in rows), ncols)
        snaps = snapshot(*(cell for rw in rows for cell in rw))
        canonical = canonical_cleared_matrix(M)
        for rw in rows:
            pp_primitive_row(rw, char)
            slots = list(rw)
            _strip_row_content(rw, char, 2)
            # only nonzero slots may be replaced
            assert all(new is old for new, old in zip(rw, slots) if not old)
        assert unchanged(snaps)
        for crow in canonical.grid:
            assert len({id(x) for x in crow if not x}) <= 1


# ---------------------------------------------------------------------------
# the pivot rule of the exact elimination over K(t)
# ---------------------------------------------------------------------------


def _frozen_first_nonzero_eliminate_ff(grid, ncols, char, r):
    """``linalg._eliminate_ff`` as it was when it pivoted on the first row
    with a nonzero entry, kept verbatim apart from its name."""
    from hsmult.linalg import _strip_row_content
    from hsmult.scalars import pp_mul, pp_sub

    pivots = []
    rank_row = 0
    for c in range(ncols):
        pr = next((i for i in range(rank_row, len(grid)) if grid[i][c]), None)
        if pr is None:
            continue
        grid[rank_row], grid[pr] = grid[pr], grid[rank_row]
        prow = grid[rank_row]
        piv = prow[c]
        for i in range(rank_row + 1, len(grid)):
            a = grid[i][c]
            if not a:
                continue
            row = grid[i]
            new = [
                pp_sub(pp_mul(piv, row[j], char), pp_mul(a, prow[j], char), char)
                if (row[j] or prow[j])
                else {}
                for j in range(ncols)
            ]
            new[c] = {}
            _strip_row_content(new, char, r)
            grid[i] = new
        pivots.append((rank_row, c))
        rank_row += 1
        if rank_row == len(grid):
            break
    return pivots


def _random_grid(rng, r, char, nrows, ncols):
    """Sparse rows shaped like support-solve matrices: about two nonzero
    cells a row, each a constant, a constant times one parameter, or the sum
    of two such terms.  Denser rows of this kind can take minutes in the
    row-content gcds, whichever the pivot rule."""
    zero = {}
    density = min(0.4, 2 / ncols)

    def term():
        e = [0] * r
        if rng.random() < 0.6:
            e[rng.randrange(r)] = 1
        c = rng.choice([-3, -2, -1, 1, 1, 2, 5])
        return tuple(e), c % char if char else c

    def cell():
        if rng.random() >= density:
            return zero
        out = dict(term() for _ in range(1 if rng.random() < 0.7 else 2))
        return {e: c for e, c in out.items() if c} or zero

    return tuple(tuple(cell() for _ in range(ncols)) for _ in range(nrows))


@pytest.mark.parametrize("char", [0, 3, 32003])
def test_smallest_entry_pivots_give_the_first_nonzero_pivot_results(monkeypatch, char):
    """The kernel contract makes the vector unique (a line, primitive, unit
    first entry), so the pivot rule cannot change a vector or a rank: check
    both against the frozen first-nonzero-pivot elimination, on full-rank
    matrices and matrices of nullity 1, and under row permutations."""
    from hsmult import linalg

    rng = random.Random(2000 + char)
    base = GF(char) if char else QQ
    seen = {"full rank": 0, "nullity 1": 0, "other pivots": 0}
    for _ in range(120):
        r = rng.randint(1, 4)
        field = FunctionField(base, tuple(f"t{i}" for i in range(r)))
        ncols = rng.randint(2, 8)
        nrows = ncols - 1 if rng.random() < 0.4 else ncols + rng.randint(0, 1)
        grid = _random_grid(rng, r, char, nrows, ncols)
        M = ExactMatrix.of_grid(field, grid, ncols)
        frozen = list(grid)
        pivots = _frozen_first_nonzero_eliminate_ff(frozen, ncols, char, r)
        if ncols - len(pivots) > 1:
            continue
        with monkeypatch.context() as m:
            m.setattr(linalg, "_eliminate_ff", _frozen_first_nonzero_eliminate_ff)
            expected = kernel(M)
        assert rank(M) == len(pivots)
        assert kernel(M) == expected
        rows = list(grid)
        rng.shuffle(rows)
        assert kernel(ExactMatrix.of_grid(field, tuple(rows), ncols)) == expected
        seen["full rank" if expected is None else "nullity 1"] += 1
        reduced = list(grid)
        linalg._eliminate_ff(reduced, ncols, char, r)
        seen["other pivots"] += reduced != frozen
    assert min(seen.values()) >= 20, seen
