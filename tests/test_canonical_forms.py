"""The normal and printed forms of ``scalars`` against frozen copies of the
code they replaced.

Each certificate convention used to be written out where it was used: the
leading-coefficient unit in ``_pp_unit_normalize``, ``pp_primitive``,
``RationalFunction.__init__`` and ``linalg.normalize_row_unit``, the integer
content in ``pp_primitive`` and ``matlis.canonical_cleared_matrix``, the term
printer in ``pp_to_str`` and ``SparsePoly.to_str``.  The copies below are
those versions, kept verbatim apart from names, so that the one owner of each
convention (``pp_unit``, ``pp_primitive_row``, ``terms_to_str``) is checked
to give the same dicts, rows and strings.  Scalars of the parameter ring
have int denominators, so the frozen ``RationalFunction`` normal form and
the frozen ``pp_lcm`` row clearing are checked on constant denominators.
"""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from hsmult import GF, QQ, FunctionField, RationalFunction, SparsePoly
from hsmult.linalg import _strip_row_content
from hsmult.poly import clear_row_denominators
from hsmult.scalars import (
    _modinv,
    _pp_unit_normalize,
    pp_const,
    pp_divexact,
    pp_gcd,
    pp_key,
    pp_leading,
    pp_mul,
    pp_neg,
    pp_primitive,
    pp_primitive_row,
    pp_scale,
    pp_to_str,
    pp_unit,
)

CHARS = [0, 2, 3, 32003]

# ---------------------------------------------------------------------------
# frozen copies
# ---------------------------------------------------------------------------


def _frozen_pp_int_content(a):
    g = 0
    for c in a.values():
        g = math.gcd(g, abs(c))
        if g == 1:
            break
    return g


def _frozen_pp_unit_normalize(a, char):
    """Scale by a unit: monic in char p, positive leading coefficient in char 0."""
    if not a:
        return {}
    if char:
        _, lc = pp_leading(a)
        return pp_scale(a, _modinv(lc, char), char) if lc != 1 else a
    _, lc = pp_leading(a)
    return pp_neg(a, 0) if lc < 0 else a


def _frozen_pp_primitive(a, char):
    """Primitive part: integer content removed (char 0) or monic (char p)."""
    if not a:
        return {}
    if char:
        return _frozen_pp_unit_normalize(a, char)
    g = _frozen_pp_int_content(a)
    _, lc = pp_leading(a)
    if lc < 0:
        g = -g
    if g != 1:
        a = {e: c // g for e, c in a.items()}
    return a


def _frozen_map_nonzero(fn, row):
    zero = {}
    return [fn(a) if a else zero for a in row]


def _frozen_normalize_row_unit(nums, char):
    """Scale polynomials by the unit that makes the leading coefficient of the
    first nonzero one positive (characteristic 0) or 1 (characteristic p)."""
    first = next((nm for nm in nums if nm), None)
    if first is None:
        return nums
    _, lc = pp_leading(first)
    if char and lc != 1:
        inv = pow(lc, char - 2, char)
        return _frozen_map_nonzero(lambda nm: pp_scale(nm, inv, char), nums)
    if not char and lc < 0:
        return _frozen_map_nonzero(lambda nm: pp_neg(nm, 0), nums)
    return nums


def _frozen_canonical_row(nums, char):
    """One pass of the row loop of ``matlis.canonical_cleared_matrix``, before
    the loop made the row a tuple."""
    if not char:
        g = math.gcd(*(c for nm in nums for c in nm.values()))
        if g > 1:
            nums = _frozen_map_nonzero(lambda nm: {e: c // g for e, c in nm.items()}, nums)
    return _frozen_normalize_row_unit(nums, char)


def _frozen_rational_function(field, num, den):
    """(num, den) as ``RationalFunction.__init__`` made them canonical."""
    char = field.char
    r = len(field.params)
    if not num:
        return {}, pp_const(1, r, char)
    g = pp_gcd(num, den, char)
    if g != pp_const(1, r, char):
        num = pp_divexact(num, g, char)
        den = pp_divexact(den, g, char)
    if char:
        _, lc = pp_leading(den)
        if lc != 1:
            inv = _modinv(lc, char)
            num = pp_scale(num, inv, char)
            den = pp_scale(den, inv, char)
    else:
        _, lc = pp_leading(den)
        if lc < 0:
            num = pp_neg(num, 0)
            den = pp_neg(den, 0)
    return num, den


def _frozen_pp_lcm(a, b, char):
    if not a or not b:
        return {}
    g = pp_gcd(a, b, char)
    return pp_mul(a, pp_divexact(b, g, char), char)


def _frozen_clear_row_denominators(field, cells, ncols):
    """``poly.clear_row_denominators`` as it was when denominators were
    parameter polynomials, folded by ``pp_lcm``."""
    char = field.char
    lcm = pp_const(1, len(field.params), char)
    for _, a in cells:
        if a.den != lcm:
            lcm = _frozen_pp_lcm(lcm, a.den, char)
    out = [{}] * ncols
    for k, a in cells:
        out[k] = a.num if a.den == lcm else pp_mul(a.num, pp_divexact(lcm, a.den, char), char)
    return tuple(out)


def _frozen_pp_to_str(a, names):
    """Canonical human-readable form: terms descending in (degree, lex)."""
    if not a:
        return "0"
    parts = []
    for e in sorted(a, key=pp_key, reverse=True):
        c = a[e]
        factors = [
            names[i] if d == 1 else f"{names[i]}^{d}" for i, d in enumerate(e) if d
        ]
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


def _frozen_sparse_to_str(p, names):
    if not p.coeffs:
        return "0"
    parts = []
    for e in sorted(p.coeffs, key=lambda e: (sum(e), e), reverse=True):
        c = p.coeffs[e]
        factors = [
            names[i] if d == 1 else f"{names[i]}^{d}" for i, d in enumerate(e) if d
        ]
        cs = p.field.to_str(c)
        neg = cs.startswith("-")
        if neg:
            cs = cs[1:]
        if not factors:
            body = cs
        elif cs == "1":
            body = "*".join(factors)
        else:
            if "/" in cs or " " in cs or "+" in cs or "-" in cs:
                cs = f"({cs})"
            body = "*".join([cs] + factors)
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)


# ---------------------------------------------------------------------------
# seeded draws
# ---------------------------------------------------------------------------


def _draw(rng, r, char, kind=None):
    """A parameter polynomial: zero, a constant, a single term, or two to
    four terms; over QQ its leading coefficient is negative about half the
    time, and its integer content is often above 1."""
    kind = kind or rng.choice(["zero", "constant", "term", "general", "general"])
    if kind == "zero":
        return {}
    scale = rng.choice([1, 1, 2, 3, 6])
    out = {}
    for _ in range(rng.randint(2, 4) if kind == "general" else 1):
        e = (0,) * r if kind == "constant" else tuple(rng.randint(0, 2) for _ in range(r))
        c = scale * rng.choice([-5, -3, -2, -1, 1, 2, 4, 7])
        c = c % char if char else c
        if c:
            out[e] = c
    return out


def _draw_row(rng, r, char):
    """A row whose zero cells share one empty dict, with a common integer
    factor and a common polynomial factor some of the time."""
    zero = {}
    ncols = rng.randint(1, 5)
    k = rng.choice([1, 1, -1, 2, -4, 6])
    f = _draw(rng, r, char, "general") if rng.random() < 0.3 else pp_const(1, r, char)
    row = []
    for _ in range(ncols):
        a = _draw(rng, r, char) if rng.random() < 0.7 else {}
        a = pp_scale(pp_mul(a, f, char), k, char) if a else {}
        row.append(a or zero)
    return row


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def _same_row(got, expected, row):
    """Equal entries, the row itself returned exactly when the frozen copy
    returned it, and the zeros of a new row its one empty dict."""
    assert list(got) == list(expected)
    assert (got is row) == (expected is row)
    assert len({id(a) for a in got if not a}) <= 1


@pytest.mark.parametrize("char", CHARS)
def test_unit_and_primitive_forms_match_the_frozen_copies(char):
    rng = random.Random(1800 + char)
    seen = {"negative lead": 0, "content": 0, "zero row": 0, "scaled": 0, "as is": 0}
    for _ in range(400):
        r = rng.randint(1, 4)
        a = _draw(rng, r, char)
        assert _pp_unit_normalize(a, char) == _frozen_pp_unit_normalize(a, char)
        assert pp_primitive(a, char) == _frozen_pp_primitive(a, char)
        if a:
            seen["negative lead"] += pp_leading(a)[1] < 0
            lc = pp_leading(pp_scale(a, pp_unit(a, char), char))[1]
            assert lc == 1 if char else lc > 0

        row = _draw_row(rng, r, char)
        expected = _frozen_canonical_row(row, char)
        got = pp_primitive_row(row, char)
        _same_row(got, expected, row)
        seen["content"] += math.gcd(*(c for x in row for c in x.values())) > 1
        seen["zero row"] += not any(row)
        seen["scaled" if got is not row else "as is"] += 1

        # the last step of linalg.kernel: the row's content stripped first
        _strip_row_content(row, char, r)
        _same_row(pp_primitive_row(row, char), _frozen_normalize_row_unit(row, char), row)
    # over GF(p) no coefficient is negative and no content is removed, and
    # over GF(2) the one unit is 1
    if char:
        del seen["negative lead"], seen["content"]
    if char == 2:
        del seen["scaled"]
    assert min(seen.values()) >= 5


@pytest.mark.parametrize("char", CHARS)
def test_rational_functions_match_the_frozen_denominator_unit(char):
    """Division by a constant, the only divisor of the parameter ring, and
    the int denominator it leaves, against the frozen normal form of a
    fraction over that constant."""
    rng = random.Random(1810 + char)
    negative = 0
    for _ in range(300):
        r = rng.randint(1, 3)
        field = FunctionField(GF(char) if char else QQ, ("a", "b", "c")[:r])
        num = _draw(rng, r, char)
        den = _draw(rng, r, char, "constant")
        if not den:
            continue
        (c,) = den.values()
        negative += c < 0
        got = field.from_ppoly(num) / field.from_int(c)
        exp_num, exp_den = _frozen_rational_function(field, num, den)
        assert list(got.num.items()) == list(exp_num.items())
        assert pp_const(got.den, r, char) == exp_den
        if not char:
            assert RationalFunction(field, num, c) == got
    assert char or negative >= 20


@pytest.mark.parametrize("char", CHARS)
def test_row_clearing_matches_the_frozen_lcm_clearing(char):
    """Rows of scalars with int denominators (1 over GF(p)) clear to the
    grid rows the pp_lcm clearing made of the same denominators as
    constant polynomials."""
    rng = random.Random(1830 + char)
    cleared = 0
    for _ in range(200):
        r = rng.randint(1, 3)
        field = FunctionField(GF(char) if char else QQ, ("a", "b", "c")[:r])
        ncols = rng.randint(1, 5)
        cells = []
        for k in range(ncols):
            num = _draw(rng, r, char)
            if num and rng.random() < 0.8:
                den = 1 if char else rng.choice([1, 1, 2, 3, 4, 6, 10])
                cells.append((k, field.from_ppoly(num) / field.from_int(den)))
        as_polys = [
            (k, SimpleNamespace(num=a.num, den=pp_const(a.den, r, char))) for k, a in cells
        ]
        got = clear_row_denominators(field, cells, ncols)
        assert got == _frozen_clear_row_denominators(field, as_polys, ncols)
        assert len({id(a) for a in got if not a}) <= 1
        cleared += any(a.den != 1 for _, a in cells)
    assert char or cleared >= 50


@pytest.mark.parametrize("char", CHARS)
def test_pp_to_str_matches_the_frozen_copy(char):
    rng = random.Random(1820 + char)
    names = ("t_1_1", "t_1_2", "t_2_1", "t_2_2")
    for _ in range(300):
        r = rng.randint(1, 4)
        a = _draw(rng, r, char)
        assert pp_to_str(a, names[:r]) == _frozen_pp_to_str(a, names[:r])


def _scalar_pool(field):
    """Coefficients for SparsePoly: 1 and -1, integers, and over QQ
    fractions; over a function field parameter polynomials (over QQ with
    integer denominators) whose text needs parentheses."""
    pool = [field.one(), -field.one(), field.from_int(2), field.from_int(-7)]
    if field == QQ:
        pool += [Fraction(3, 4), Fraction(-1, 6), Fraction(12, 5)]
    if isinstance(field, FunctionField):
        a, b = field.param("a"), field.param("b")
        one = field.one()
        pool += [a, -b, a + one, a * b - one, (a + b) / field.from_int(2), -(a / field.from_int(5)),
                 a * a]
    return pool


@pytest.mark.parametrize(
    "field",
    [QQ, GF(2), GF(3), GF(32003), FunctionField(QQ, ("a", "b")), FunctionField(GF(3), ("a", "b"))],
    ids=["QQ", "GF(2)", "GF(3)", "GF(32003)", "QQ(a,b)", "GF(3)(a,b)"],
)
def test_sparse_poly_to_str_matches_the_frozen_copy(field):
    rng = random.Random(repr(field))
    pool = _scalar_pool(field)
    names = ("x", "y", "z")
    parenthesized = 0
    for _ in range(300):
        nvars = rng.randint(1, 3)
        coeffs = {}
        for _ in range(rng.randint(0, 5)):
            e = (0,) * nvars if rng.random() < 0.2 else tuple(rng.randint(0, 3) for _ in range(nvars))
            coeffs[e] = rng.choice(pool)
        p = SparsePoly(field, nvars, coeffs)
        got = p.to_str(names[:nvars])
        assert got == _frozen_sparse_to_str(p, names[:nvars])
        parenthesized += "(" in got
    if field == QQ or isinstance(field, FunctionField):
        assert parenthesized >= 20
