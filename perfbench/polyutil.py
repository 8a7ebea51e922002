"""Small exact polynomial helpers, independent of the hsmult package.

Polynomials are dicts {exponent tuple: int}, reduced mod ``char`` when it is
nonzero, with no zero coefficients.  The generators build instances with
them and the reference checks recompute construction witnesses with them,
so none of the engine's own arithmetic is involved in either.
"""

from __future__ import annotations

import re


def _norm(c, char):
    return c % char if char else c


def poly_add(a, b, char):
    out = dict(a)
    for e, c in b.items():
        v = _norm(out.get(e, 0) + c, char)
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def poly_scale(a, c, char):
    out = {}
    for e, v in a.items():
        w = _norm(v * c, char)
        if w:
            out[e] = w
    return out


def poly_mul(a, b, char):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            v = _norm(out.get(e, 0) + ca * cb, char)
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def poly_pow(a, k, char):
    n = len(next(iter(a)))
    out = {(0,) * n: 1}
    for _ in range(k):
        out = poly_mul(out, a, char)
    return out


def poly_substitute_last(p, q, char):
    """p(x_1..x_{n-1}, q) for q free of the last variable."""
    out = {}
    for e, c in p.items():
        head = {e[:-1] + (0,): c}
        term = poly_mul(head, poly_pow(q, e[-1], char), char) if e[-1] else head
        out = poly_add(out, term, char)
    return out


def weighted_order(p, w):
    """Order of p for the monomial valuation with positive weights w."""
    return min(sum(a * b for a, b in zip(e, w)) for e in p)


def _term_key(e):
    return (-sum(e), tuple(-v for v in e))


def poly_str(p, names):
    """Deterministic expression text: terms by descending degree, then lex."""
    if not p:
        return "0"
    parts = []
    for e in sorted(p, key=_term_key):
        c = p[e]
        factors = [n if d == 1 else f"{n}^{d}" for n, d in zip(names, e) if d]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else []) + factors)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


_TERM = re.compile(r"\s*([+-]?)\s*([^+-]+)")


def parse_param_poly(text, names):
    """Parse the engine's parameter-polynomial text (integer coefficients).

    Accepts sums of products of integers and names with optional ``^k``,
    e.g. ``t_1_4^2*t_2_4 - 3*t_1_4 + 1``.
    """
    index = {n: i for i, n in enumerate(names)}
    r = len(names)
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for sign, body in _TERM.findall(text):
        coef = -1 if sign == "-" else 1
        expo = [0] * r
        for factor in body.strip().split("*"):
            factor = factor.strip()
            if factor.isdigit():
                coef *= int(factor)
                continue
            name, _, power = factor.partition("^")
            if name not in index:
                raise ValueError(f"unknown parameter {name!r} in {text!r}")
            expo[index[name]] += int(power) if power else 1
        key = tuple(expo)
        out[key] = out.get(key, 0) + coef
    return {e: c for e, c in out.items() if c}


def eval_mod(p, values, prime):
    acc = 0
    for e, c in p.items():
        term = c % prime
        for v, d in zip(values, e):
            term = term * pow(v, d, prime) % prime
        acc = (acc + term) % prime
    return acc


def rank_mod(rows, prime):
    """Rank of an integer matrix mod prime, by plain Gaussian elimination."""
    rows = [[v % prime for v in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], prime - 2, prime)
        prow = [v * inv % prime for v in rows[rank]]
        rows[rank] = prow
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(v - f * pv) % prime for v, pv in zip(rows[i], prow)]
        rank += 1
    return rank
