"""Exact rank and kernel computation over any field of the scalar tower.

A function-field matrix is read through its ``grid``: every row cleared of
denominators once into parameter polynomials.  Elimination on the grid is
fraction-free (Bareiss-style two-term cross products, stripping the full
content of every updated row, which keeps entry degrees linear in the pivot
count), and so is back-substitution.  Columns are taken left to right; the
pivot for a column is the row whose entry there has the smallest total
degree, then the fewest terms, then the lowest index, so the cross products
and row-content gcds work on small polynomials.  The pivot order cannot
change a result: a rank is a rank, and the kernel contract below makes a
kernel vector unique.  Base-field matrices, the mod-p images of ``modp`` and
the grids ``nonsingular_at`` evaluates at a point share one ordinary
Gaussian elimination and back-substitution on plain numbers
(``plain_kernel``): ints in [0, p) over GF(p), Fractions over QQ, the int 0
for zero.  A base-field ``ExactMatrix`` already holds its cells that way, so
its kernel only copies the rows; over QQ a nonzero cell is a Fraction, never
an int, so every division stays exact.  It pivots on the first row with a
nonzero entry in the current column, columns left to right.

A base-field composition-series run solves its steps without a matrix, on
one ``ColumnSpan``: an echelon basis of the span of its candidate columns,
each stored as a map from row keys to plain numbers, kept across the steps
with the coordinates that express every basis vector in the inserted
columns.  Reducing a column leaves zero exactly when it lies in the span,
and then its coordinates are the canonical kernel vector below, the one
``plain_kernel`` returns for [that column | the independent inserted ones].
``plain_kernel`` and its ``_eliminate`` stay for matrices met once, whose
coordinates no later step reads: on the 1,101 ``nonsingular_at`` matrices of
a generic-reduce pass a span took 40 ms, ``_eliminate`` 29 (CPython 3.11).

Kernel contract (the PolyList/MatList certificate strings rest on it): a
one-dimensional kernel is returned as one canonical vector.  Over a function
field its entries have denominator 1 and gcd 1, and ``scalars.pp_primitive_row``
makes the leading coefficient of the first nonzero entry positive
(characteristic 0) or 1 (characteristic p).  Over a base field the first
nonzero entry is 1.  Either way a line has exactly one such vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InternalInconsistency, UnexpectedNullity
from .poly import clear_row_denominators
from .scalars import (
    FunctionField,
    map_nonzero,
    pp_add,
    pp_const,
    pp_divexact,
    pp_eval_rows,
    pp_gcd,
    pp_mul,
    pp_neg,
    pp_primitive_row,
    pp_sub,
)


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable rectangular matrix over a field of the scalar tower.

    A base-field matrix holds the plain numbers ``plain_kernel`` takes: ints
    in [0, p) over GF(p), Fractions over QQ, and the int 0 in zero cells; its
    kernel vector comes back in field scalars.  A function-field matrix holds
    its scalars, or it may be grid-only (``rows`` is None): it is given
    by its polynomial grid alone, as every matrix ``build_matrix`` makes over
    a function field is, and is read only through that grid.  Grid
    polynomials are shared, within a row (one empty dict per row for its zero
    cells) and with the matrices a grid was made from, so nothing may write
    into them.
    """

    field: object
    rows: tuple | None
    ncols: int

    @property
    def nrows(self):
        return len(self.grid if self.rows is None else self.rows)

    @cached_property
    def grid(self):
        """Function-field rows as parameter polynomials, cleared on first use.

        Each grid row is the entry row times a nonzero polynomial, so ranks and
        kernels read the grid in place of the rows.
        """
        return tuple(
            tuple(clear_row_denominators(self.field, row)) for row in self.rows
        )

    @classmethod
    def of_grid(cls, field, grid, ncols):
        """A grid-only function-field matrix."""
        M = cls(field, None, ncols)
        M.__dict__["grid"] = grid
        return M

    def columns(self, cols):
        """The grid-only submatrix of a function-field matrix on the given columns."""
        grid = tuple(tuple(row[j] for j in cols) for row in self.grid)
        return ExactMatrix.of_grid(self.field, grid, len(cols))


def _strip_row_content(row, char, r):
    one = pp_const(1, r, char)
    g = {}
    for e in row:
        g = pp_gcd(g, e, char)
        if g == one:
            return
    if g and g != one:
        for j, e in enumerate(row):
            if e:
                row[j] = pp_divexact(e, g, char)


def _eliminate_ff(grid, ncols, char, r):
    pivots = []
    rank_row = 0
    for c in range(ncols):
        rows = [i for i in range(rank_row, len(grid)) if grid[i][c]]
        if not rows:
            continue
        # the smallest entry: total degree, then number of terms, then row
        pr = min(rows, key=lambda i: (max(map(sum, grid[i][c])), len(grid[i][c]), i))
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


def _eliminate(rows, ncols, p):
    """Row-reduce a list of row lists in place; return the pivots (row, column).

    Entries are plain numbers: ints reduced into [0, p) over GF(p), Fractions
    over QQ (p == 0).  Each row below the pivot subtracts row[c] / pivot times
    the pivot row, on the pivot row's nonzero columns only; column c itself is
    never read again, so it is left as it is.
    """
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        piv = prow[c]
        inv = pow(piv, -1, p) if p else None
        cols = [j for j in range(c + 1, ncols) if prow[j]]
        for row in rows[r + 1 :]:
            a = row[c]
            if not a:
                continue
            if p:
                f = a * inv % p
                for j in cols:
                    row[j] = (row[j] - f * prow[j]) % p
            else:
                f = a / piv
                for j in cols:
                    row[j] -= f * prow[j]
        pivots.append((r, c))
        if len(pivots) == len(rows):
            break
    return pivots


def _free_column(pivots, ncols):
    """The one non-pivot column, or None; UnexpectedNullity when there are more."""
    pivot_cols = {c for _, c in pivots}
    free = [c for c in range(ncols) if c not in pivot_cols]
    if len(free) > 1:
        raise UnexpectedNullity(len(free))
    return free[0] if free else None


def plain_kernel(rows, ncols, p):
    """Kernel of a matrix of plain numbers (see ``_eliminate``), reducing its
    row lists in place: None when trivial, the vector whose first nonzero
    entry is 1 when it is a line, and UnexpectedNullity beyond that.
    """
    pivots = _eliminate(rows, ncols, p)
    free = _free_column(pivots, ncols)
    if free is None:
        return None
    v = [0] * ncols
    v[free] = 1 if p else Fraction(1)
    for r, c in reversed(pivots):
        row = rows[r]
        s = sum(row[j] * v[j] for j in range(c + 1, ncols) if row[j] and v[j])
        if s:
            v[c] = -s * pow(row[c], -1, p) % p if p else -s / row[c]
    first = next(a for a in v if a)
    if p:
        inv = pow(first, -1, p)
        return [a * inv % p for a in v]
    return [a / first for a in v]


def _add_multiple(target, f, src, p):
    """target += f * src on sparse maps of plain numbers, dropping zeros."""
    get = target.get
    for k, a in src.items():
        s = get(k, 0) + f * a
        if p:
            s %= p
        if s:
            target[k] = s
        else:
            del target[k]


class ColumnSpan:
    """An echelon basis of the span of named columns, on plain numbers.

    A column is a map from row keys to the nonzero plain numbers of a
    base-field matrix (ints in [0, p), or Fractions over QQ).  Each basis
    vector is kept with its pivot key, where it is 1, and with its
    coordinates: the combination of inserted columns, by name, that it
    equals.  It is zero at the pivots of the vectors inserted before it, so
    ``reduce`` clears the pivots in insertion order in one pass, and its
    residual is zero exactly when the column lies in the span.  The residual's
    coordinates, with the reduced column's own at 1, are then a dependency
    whose entry at that column is 1: on columns that are independent, the
    canonical kernel vector ``plain_kernel`` would return.
    """

    __slots__ = ("p", "names", "_basis")

    def __init__(self, p):
        self.p = p
        self.names = set()
        self._basis = []  # (pivot key, vector, coordinates)

    def clear(self):
        self.names.clear()
        self._basis.clear()

    def reduce(self, name, col):
        """(residual, coordinates) of the column col named name."""
        p = self.p
        w = dict(col)
        coords = {name: 1 if p else Fraction(1)}
        for piv, vec, vcoords in self._basis:
            f = w.get(piv)
            if f:
                f = p - f if p else -f
                _add_multiple(w, f, vec, p)
                _add_multiple(coords, f, vcoords, p)
        return w, coords

    def insert(self, name, residual, coords):
        """Add the nonzero residual ``reduce`` left of the column named name."""
        p = self.p
        piv = next(iter(residual))
        a = residual[piv]
        if a != 1:
            inv = pow(a, -1, p) if p else 1 / a
            for part in (residual, coords):
                for k, v in part.items():
                    part[k] = v * inv % p if p else v * inv
        self._basis.append((piv, residual, coords))
        self.names.add(name)


def kernel(M):
    """Trivial kernel -> None; one-dimensional kernel -> its canonical vector.

    Raises UnexpectedNullity when the nullity exceeds 1 (the composition-series
    context guarantees it cannot, so this signals a degenerate input).
    """
    if M.ncols < 1:
        raise InternalInconsistency("kernel of a matrix with no columns")
    field = M.field
    if not isinstance(field, FunctionField):
        v = plain_kernel([list(row) for row in M.rows], M.ncols, field.char)
        return v if v is None else tuple(map(field.from_int, v) if field.char else v)
    char = field.char
    r = len(field.params)
    grid = list(M.grid)
    pivots = _eliminate_ff(grid, M.ncols, char, r)
    free = _free_column(pivots, M.ncols)
    if free is None:
        return None
    # back-substitute in polynomials: before solving a pivot row, scale the
    # solved entries by pivot / gcd(pivot, row sum) so the division is exact
    one = pp_const(1, r, char)
    v = [{}] * M.ncols
    v[free] = one
    for pr, pc in reversed(pivots):
        row = grid[pr]
        s = {}
        for j in range(pc + 1, M.ncols):
            if row[j] and v[j]:
                s = pp_add(s, pp_mul(row[j], v[j], char), char)
        if not s:
            continue
        g = pp_gcd(s, row[pc], char)
        factor = pp_divexact(row[pc], g, char)
        if factor != one:
            v = map_nonzero(lambda a: pp_mul(a, factor, char), v)
        v[pc] = pp_neg(pp_divexact(s, g, char), char)
    _strip_row_content(v, char, r)
    return tuple(map(field.from_ppoly, pp_primitive_row(v, char)))


def rank(M):
    """Exact rank over the entry field."""
    field = M.field
    if isinstance(field, FunctionField):
        return len(_eliminate_ff(list(M.grid), M.ncols, field.char, len(field.params)))
    return len(_eliminate([list(row) for row in M.rows], M.ncols, field.char))


def nonsingular_at(M, values):
    """True iff M keeps full column rank at a parameter point.

    ``values`` holds one plain number per parameter of M's field (see
    ``scalars.pp_eval_rows``).  Each grid row is the entry row times a
    polynomial (1 for a MatList matrix, whose grid is its entries), so this is
    the entry-wise specialization wherever those polynomials do not vanish.
    """
    p = M.field.char
    return len(_eliminate(pp_eval_rows(M.grid, values, p), M.ncols, p)) == M.ncols
