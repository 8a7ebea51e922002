"""The one-pass expression parser against a frozen copy of the parser it
replaced.

``exprparse`` used to tokenize with a match per position and to build every
factor, integer and variable alike, as a SparsePoly pair.  The copy below is
that version, kept verbatim apart from names, so that the new parser is
checked to give the same (numerator, denominator) pair, the same ParseError
message, line and column, and the same CapExceeded on seeded expressions.
"""

import math
import random
import re
import time

import pytest

from hsmult.cli import main
from hsmult.errors import CapExceeded, ParseError
from hsmult.exprparse import parse_rational
from hsmult.poly import SparsePoly, exp_add
from hsmult.scalars import GF, QQ
from tests.conftest import FIXTURES

# ---------------------------------------------------------------------------
# frozen copy
# ---------------------------------------------------------------------------

_FROZEN_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([()+\-*/^]))")


def _frozen_tokenize(text):
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        if text[pos] == "\n":
            line += 1
            line_start = pos + 1
            pos += 1
            continue
        m = _FROZEN_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = pos - line_start + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", line, col)
        col = m.start(1 if m.group(1) else 2 if m.group(2) else 3) - line_start + 1
        if m.group(1):
            tokens.append(("int", int(m.group(1)), line, col))
        elif m.group(2):
            tokens.append(("name", m.group(2), line, col))
        else:
            tokens.append(("op", m.group(3), line, col))
        pos = m.end()
    tokens.append(("end", None, line, len(text) - line_start + 1))
    return tokens


def _frozen_scalar_pow(c, k):
    """c^k for k >= 1 by squaring, in the field's own products (GFElement
    has no __pow__)."""
    out = None
    while True:
        if k & 1:
            out = c if out is None else out * c
        k >>= 1
        if not k:
            return out
        c = c * c


class _FrozenParser:
    def __init__(self, tokens, field, nvars, var_index, max_terms):
        self.tokens = tokens
        self.max_terms = max_terms
        self.i = 0
        self.field = field
        self.nvars = nvars
        self.var_index = var_index
        self.one = SparsePoly.constant(field, nvars, field.one())
        self._one_coeffs = self.one.coeffs

    def _mul(self, a, b):
        """a * b, skipping the product when a factor is the constant 1, and
        bounded by max_terms (see the module docstring)."""
        if b.coeffs == self._one_coeffs:
            return a
        if a.coeffs == self._one_coeffs:
            return b
        cap = self.max_terms
        if cap is not None and len(a.coeffs) * len(b.coeffs) > cap:
            sums = set()
            for ea in a.coeffs:
                sums.update([exp_add(ea, eb) for eb in b.coeffs])
                if len(sums) > cap:
                    raise CapExceeded("expression terms", cap)
        return a * b

    def _pow(self, a, k):
        """a^k; the constant 1 and a^1 are a itself, a single term is raised
        directly, exponent and coefficient, and a sum by the multinomial
        theorem (``_multinomial_pow``)."""
        if k == 1 or a.coeffs == self._one_coeffs:
            return a
        t = len(a.coeffs)
        if k == 0 or t == 0:
            return a**k
        if t == 1:
            ((e, c),) = a.coeffs.items()
            return SparsePoly(
                self.field, self.nvars, {tuple(x * k for x in e): _frozen_scalar_pow(c, k)}
            )
        cap = self.max_terms
        # C(k + t - 1, t - 1) >= k + 1 when t > 1
        if cap is not None and (k >= cap or math.comb(k + t - 1, t - 1) > cap):
            raise CapExceeded("expression terms", cap)
        return self._multinomial_pow(a, k)

    def _multinomial_pow(self, a, k):
        """a^k for a sum a = c_1 m_1 + ... + c_t m_t: the sum over k_1 + ... +
        k_t = k of k! / (k_1! ... k_t!) (c_1 m_1)^k_1 ... (c_t m_t)^k_t, one
        term per composition of k, so C(k + t - 1, t - 1) of them.  The
        compositions are extended one term at a time, and the multinomial
        coefficient is the product of the binomials C(rest, k_j), made in
        ints and reduced mod p over GF(p), where a partial product that is 0
        drops the partial composition."""
        field = self.field
        p = field.char
        powers = []  # per term, (m_j^i, c_j^i) for i = 0..k
        for e, c in a.coeffs.items():
            row = [((0,) * self.nvars, field.one())]
            for _ in range(k):
                m, b = row[-1]
                row.append((exp_add(m, e), b * c))
            powers.append(row)
        # partial compositions: (what is left of k, coefficient, monomial, scalar)
        partial = [(k, 1, (0,) * self.nvars, field.one())]
        for row in powers[:-1]:
            longer = []
            for rest, mult, m, c in partial:
                binom = 1  # C(rest, i)
                for i in range(rest + 1):
                    coef = mult * binom % p if p else mult * binom
                    if coef:
                        longer.append((rest - i, coef, exp_add(m, row[i][0]), c * row[i][1]))
                    binom = binom * (rest - i) // (i + 1)
            partial = longer
        out = {}
        last = powers[-1]
        for rest, mult, m, c in partial:
            key = exp_add(m, last[rest][0])
            value = field.from_int(mult) * c * last[rest][1]
            out[key] = out[key] + value if key in out else value
        return SparsePoly(field, self.nvars, out)

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def error(self, message, token=None):
        t = token or self.peek()
        raise ParseError(message, t[2], t[3])

    def _const(self, n):
        return (
            SparsePoly.constant(self.field, self.nvars, self.field.from_int(n)),
            self.one,
        )

    def parse(self):
        value = self.expr()
        kind, _, _, _ = self.peek()
        if kind != "end":
            self.error("unexpected trailing input")
        return value

    def expr(self):
        mul = self._mul
        num, den = self.term()
        while True:
            kind, val, _, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                n2, d2 = self.term()
                if val == "+":
                    num, den = mul(num, d2) + mul(n2, den), mul(den, d2)
                else:
                    num, den = mul(num, d2) - mul(n2, den), mul(den, d2)
            else:
                return num, den

    def term(self):
        mul = self._mul
        num, den = self.unary()
        while True:
            kind, val, _, _ = self.peek()
            if kind == "op" and val in "*/":
                tok = self.next()
                n2, d2 = self.unary()
                if val == "*":
                    num, den = mul(num, n2), mul(den, d2)
                else:
                    if n2.is_zero():
                        self.error("division by zero", tok)
                    num, den = mul(num, d2), mul(den, n2)
            else:
                return num, den

    def unary(self):
        sign = 1
        while True:
            kind, val, _, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                if val == "-":
                    sign = -sign
            else:
                break
        num, den = self.power()
        if sign < 0:
            num = -num
        return num, den

    def power(self):
        num, den = self.atom()
        kind, val, _, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind2, k, _, _ = self.peek()
            if kind2 != "int":
                self.error("exponent must be an integer literal")
            self.next()
            num, den = self._pow(num, k), self._pow(den, k)
        return num, den

    def atom(self):
        kind, val, line, col = self.next()
        if kind == "int":
            return self._const(val)
        if kind == "name":
            idx = self.var_index.get(val)
            if idx is not None:
                return SparsePoly.variable(self.field, self.nvars, idx), self.one
            raise ParseError(f"unknown variable {val!r}", line, col)
        if kind == "op" and val == "(":
            value = self.expr()
            kind2, val2, line2, col2 = self.next()
            if kind2 != "op" or val2 != ")":
                raise ParseError("expected ')'", line2, col2)
            return value
        raise ParseError(
            "expected a number, a variable, or '('"
            if kind != "end"
            else "unexpected end of expression",
            line,
            col,
        )


def frozen_parse_rational(text, field, var_names, max_terms=None):
    """Parse to an exact pair (numerator, denominator) of SparsePoly, with
    expansion bounded by max_terms when it is set."""
    tokens = _frozen_tokenize(text)
    var_index = {name: i for i, name in enumerate(var_names)}
    parser = _FrozenParser(tokens, field, len(var_names), var_index, max_terms)
    return parser.parse()


# ---------------------------------------------------------------------------
# seeded expressions
# ---------------------------------------------------------------------------

FIELDS = {"QQ": QQ, "GF2": GF(2), "GF3": GF(3), "GF32003": GF(32003)}
NAMES = ("x", "y", "z")
_INTS = [0, 1, 2, 3, 7, 32002, 32003, 10**30 + 7, 2**64]
_SIGNS = ["", "", "", "-", "+", "- -", "--", "-+"]
_BLANKS = ["", "", " ", "  ", "\n", " \n ", "\t"]


def _atom(rng, depth):
    kind = rng.random()
    if kind < 0.3:
        return str(rng.choice(_INTS))
    if kind < 0.65 or depth == 0:
        v = rng.choice(NAMES)
        return f"{v}^{rng.randint(0, 5)}" if rng.random() < 0.5 else v
    if kind < 0.75:
        return f"{rng.choice(_INTS[:5])}^{rng.randint(0, 4)}"
    inner = f"({_expr(rng, depth - 1)})"
    return f"{inner}^{rng.randint(0, 3)}" if rng.random() < 0.4 else inner


def _term(rng, depth):
    out = rng.choice(_SIGNS) + _atom(rng, depth)
    for _ in range(rng.randint(0, 3)):
        op = "/" if rng.random() < 0.15 else "*"
        out += rng.choice(_BLANKS) + op + rng.choice(_BLANKS)
        out += rng.choice(_SIGNS) + _atom(rng, depth)
    return out


def _expr(rng, depth):
    out = _term(rng, depth)
    for _ in range(rng.randint(0, 4)):
        out += rng.choice(_BLANKS) + rng.choice("+-") + rng.choice(_BLANKS) + _term(rng, depth)
    return out


def _outcome(parse, text, field, max_terms):
    """The pair, or the error's class, message, line and column."""
    try:
        return parse(text, field, NAMES, max_terms)
    except ParseError as err:
        return ("ParseError", str(err), err.line, err.column)
    except CapExceeded as err:
        return ("CapExceeded", str(err))


FIXED = [
    "3/4", "3/4*x - 1/2", "-x + - - y", "x^0", "(2*x)^3", "-x^2", "1/2*x",
    "(x + y)/(1 - x*z)^2", "32002*x + x", "32003*x*y", "0*x + y", "x - x",
    "2^3*x", "0^0", "(x-x)^3", "(1+x+y)^5/(1-x)", "x*(1+y) + z", "1/(-1) + 1/(-1)",
    "(x + y)^2 - x^2 - 2*x*y", "100000000000000000000000000000007*x^3*y - 5",
    "x*y*z*x*y*z", "  x ^ 2\n+ y", "-(x + y)*(x - y)", "x/(1 + y) + z*x^2",
    # a digit of another script is an integer too
    "x + ٣",
]


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_seeded_expressions_parse_as_the_frozen_parser_did(field_name):
    field = FIELDS[field_name]
    rng = random.Random(f"parse-{field_name}")
    texts = FIXED + [_expr(rng, 2) for _ in range(400)]
    kinds = set()
    for text in texts:
        # a small term cap, and one that bounds the work of the longest texts
        for cap in (6, 400):
            want = _outcome(frozen_parse_rational, text, field, cap)
            assert _outcome(parse_rational, text, field, cap) == want, text
            kinds.add(want[0] if isinstance(want[0], str) else "pair")
    assert kinds == {"pair", "ParseError", "CapExceeded"}


MALFORMED = [
    "", " ", "\n", "x +", "x + $", "x $", "x \n$", "x\n  $", "x * w", "x ^ y", "x^-1",
    "(x", "(x + y", "x)", "x / 0", "x/(y - y)", "x^2^3", "2 x", "x y", "*x", "x**2",
    "+", "-", "()", "x + (y * )", "x +\n\n  @", "x\r\ny $", "x^", "3/", "1/0*x",
    "x + y +\n", "\n\n(x\n", "x^(2)", "x.5", "é",
]


@pytest.mark.parametrize("field_name", ["QQ", "GF3"])
def test_malformed_inputs_raise_the_same_parse_errors(field_name):
    field = FIELDS[field_name]
    for text in MALFORMED:
        want = _outcome(frozen_parse_rational, text, field, None)
        assert want[0] == "ParseError"
        assert _outcome(parse_rational, text, field, None) == want, repr(text)


def test_runaway_power_still_exits_3(capsys):
    code = main(["member", str(FIXTURES / "example1.json"), "(1+x+y)^200"])
    assert code == 3
    assert "expression terms > 5000" in capsys.readouterr().err


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_power_of_a_sum_parses_fast_to_the_same_polynomial(field_name):
    field = FIELDS[field_name]
    started = time.perf_counter()
    got = parse_rational("(1+x+y)^97", field, NAMES, 5000)
    assert time.perf_counter() - started < 1
    assert got == frozen_parse_rational("(1+x+y)^97", field, NAMES, 5000)
