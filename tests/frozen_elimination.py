"""A frozen copy of the row elimination and back-substitution that once
decided every base-field kernel and every mod-p image (``plain_kernel``),
kept as the reference the span kernels are checked against."""

from fractions import Fraction

from hsmult.errors import UnexpectedNullity


def _frozen_eliminate(rows, ncols, p):
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


def frozen_plain_kernel(rows, ncols, p):
    """Kernel of a matrix of plain numbers (ints in [0, p) over GF(p),
    Fractions over QQ), reducing its row lists in place: None when trivial,
    the vector whose first nonzero entry is 1 when it is a line, and
    UnexpectedNullity beyond that."""
    pivots = _frozen_eliminate(rows, ncols, p)
    pivot_cols = {c for _, c in pivots}
    free = [c for c in range(ncols) if c not in pivot_cols]
    if len(free) > 1:
        raise UnexpectedNullity(len(free))
    if not free:
        return None
    v = [0] * ncols
    v[free[0]] = 1 if p else Fraction(1)
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
