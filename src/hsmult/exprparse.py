"""Recursive-descent parser for the polynomial expression grammar.

Grammar (whitespace-insensitive):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := ('+'|'-')* power
    power  := atom ('^' INTEGER)?
    atom   := INTEGER | NAME | '(' expr ')'

Names resolve to declared variables.  The text is tokenized in one pass.
Division builds an exact rational pair of polynomials, so both rational
literals (3/4) and series generators (1/(1-x)) come out of one grammar; the
caller decides whether a non-constant denominator is acceptable.

Most expressions are sums of monomial terms, and those build no pair: a
term of signed integers, variables and variable powers is carried as (int
coefficient, exponents), added into one coefficient dict while the sum's
denominator is 1 (``term``, ``expr``).  Only parentheses, '/' and powers of
integers build SparsePoly pairs.  The constant 1, every denominator of a
polynomial expression, is never multiplied by, and a single term is raised
to a power directly.  The pair, every ParseError and every CapExceeded are
those the plain SparsePoly arithmetic of each factor and term would give.

With ``max_terms`` set, expansion is bounded: a power a^k of t > 1 terms
raises CapExceeded("expression terms", max_terms) before it is expanded
when its multinomial bound C(k + t - 1, t - 1) exceeds max_terms, and so
does a product whose factors' exponents have more than max_terms distinct
sums, the bound on its terms before any cancel.  Those sums are counted
only for products of more than max_terms coefficient pairs, and the count
stops past max_terms.  A power within the bound is expanded by the
multinomial theorem, one term per composition of k, so its work is linear
in the bound and no expansion runs away.

A literal, or over QQ a coefficient of the polynomial or series a parse
returns, with more decimal digits than ``sys.get_int_max_str_digits``
allows (0: no limit) is a ParseError, since no report could print it.
"""

from __future__ import annotations

import math
import re
import sys

from .errors import CapExceeded, ParseError
from .poly import SparsePoly, exp_add
from .scalars import QQ

# one match per newline, token or end of input: a newline (counted for the
# line numbers), a token after any blanks, or the rest of the text when no
# token starts here, which is blank or holds a stray character
_TOKEN = re.compile(
    r"(\n)|\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([()+\-*/^]))|(.*)", re.DOTALL
)
_KINDS = (None, None, "int", "name", "op")
_TOO_LONG = "a number has more than {} decimal digits (sys.get_int_max_str_digits())"
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _tokenize(text):
    """(kind, value, line, column) per token, in one pass, and an "end"."""
    tokens = []
    line = 1
    line_start = 0
    limit = _digit_limit()
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group == 1:
            line += 1
            line_start = m.end()
        elif group == 5:
            stray = m.group(5).lstrip()
            if stray:
                col = m.start() - line_start + 1
                raise ParseError(f"unexpected character {stray[0]!r}", line, col)
            break
        else:
            value, col = m.group(group), m.start(group) - line_start + 1
            if group == 2 and 0 < limit < len(value):
                raise ParseError(_TOO_LONG.format(limit), line, col)
            tokens.append((_KINDS[group], int(value) if group == 2 else value, line, col))
    tokens.append(("end", None, line, len(text) - line_start + 1))
    return tokens


def _checked_digits(g, *polys):
    """g, unless a coefficient of g or polys is past the digit limit."""
    limit = _digit_limit()
    if limit and g.field == QQ:
        bits = 3 * limit  # an int of at most 3 * limit bits has at most limit digits
        for c in [c for p in (g, *polys) for c in p.coeffs.values()]:
            n, d = c.numerator, c.denominator
            if (n.bit_length() > bits or d.bit_length() > bits) and max(abs(n), d) >= 10**limit:
                raise ParseError(_TOO_LONG.format(limit))
    return g


def bound_product(a, b, cap):
    """CapExceeded("expression terms", cap) when the product a * b of two
    SparsePolys has more than cap distinct exponent sums, the bound on its
    terms before any cancel.  The sums are counted only when a and b have
    more than cap coefficient pairs, and the count stops past cap; no cap
    (None) bounds nothing."""
    if cap is not None and len(a.coeffs) * len(b.coeffs) > cap:
        sums = set()
        for ea in a.coeffs:
            sums.update([exp_add(ea, eb) for eb in b.coeffs])
            if len(sums) > cap:
                raise CapExceeded("expression terms", cap)


def _scalar_pow(c, k):
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


class _Parser:
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
        bound_product(a, b, self.max_terms)
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
                self.field, self.nvars, {tuple(x * k for x in e): _scalar_pow(c, k)}
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
        """(num, den) of a sum of terms.  While den is 1 the numerator is
        one dict, and each term is added into it in place; the zeros it may
        hold are dropped when it becomes a SparsePoly."""
        mul = self._mul
        field = self.field
        acc = {}
        num = den = None  # the pair, once a term's denominator is not 1
        val = "+"
        while True:
            n2, d2 = self.term()
            neg = val == "-"
            if d2 is None and num is None:
                c, e = n2
                c = field.from_int(-c if neg else c)
                acc[e] = acc[e] + c if e in acc else c
            else:
                if d2 is None:
                    n2, d2 = self._monomial(*n2), self.one
                if num is None and d2.coeffs == self._one_coeffs:
                    for e, c in n2.coeffs.items():
                        c = -c if neg else c
                        acc[e] = acc[e] + c if e in acc else c
                else:
                    if num is None:
                        num, den = SparsePoly(field, self.nvars, acc), self.one
                    if neg:
                        num, den = mul(num, d2) - mul(n2, den), mul(den, d2)
                    else:
                        num, den = mul(num, d2) + mul(n2, den), mul(den, d2)
            kind, val, _, _ = self.peek()
            if kind != "op" or val not in "+-":
                if num is None:
                    return SparsePoly(field, self.nvars, acc), self.one
                return num, den
            self.next()

    def term(self):
        """A product of factors.  While every factor is a signed integer, a
        variable or a variable power (``_monomial_factor``), the product is
        (coefficient, exponents) and den is None; the first other factor,
        or a '/', makes it a pair (num, den), into which the rest of the
        term is multiplied."""
        mul = self._mul
        coeff = 1
        exps = [0] * self.nvars
        num = None
        val = "*"
        while True:
            c = None if num is not None or val == "/" else self._monomial_factor(exps)
            if c is not None:
                coeff *= c
            else:
                if num is None:
                    num, den = self._monomial(coeff, tuple(exps)), self.one
                n2, d2 = self.unary()
                if val == "*":
                    num, den = mul(num, n2), mul(den, d2)
                else:
                    if n2.is_zero():
                        self.error("division by zero", tok)
                    num, den = mul(num, d2), mul(den, n2)
            kind, val, _, _ = self.peek()
            if kind != "op" or val not in "*/":
                if num is None:
                    return (coeff, tuple(exps)), None
                return num, den
            tok = self.next()

    def _monomial_factor(self, exps):
        """The integer of the factor at the cursor, when it is a signed
        integer, or a signed variable or variable power (then 1 or -1, and
        the exponent is added into exps), moving past it; otherwise None,
        with the cursor left where it was."""
        tokens = self.tokens
        i = self.i
        sign = 1
        kind, val, _, _ = tokens[i]
        while kind == "op" and (val == "-" or val == "+"):
            if val == "-":
                sign = -sign
            i += 1
            kind, val, _, _ = tokens[i]
        if kind == "int":
            if tokens[i + 1][1] == "^":
                return None
            self.i = i + 1
            return sign * val
        if kind != "name" or val not in self.var_index:
            return None
        if tokens[i + 1][1] == "^":
            kind, k, _, _ = tokens[i + 2]
            if kind != "int":
                return None
            exps[self.var_index[val]] += k
            self.i = i + 3
        else:
            exps[self.var_index[val]] += 1
            self.i = i + 1
        return sign

    def _monomial(self, c, e):
        return SparsePoly(self.field, self.nvars, {e: self.field.from_int(c)})

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


def parse_rational(text, field, var_names, max_terms=None):
    """Parse to an exact pair (numerator, denominator) of SparsePoly, with
    expansion bounded by max_terms when it is set."""
    tokens = _tokenize(text)
    var_index = {name: i for i, name in enumerate(var_names)}
    parser = _Parser(tokens, field, len(var_names), var_index, max_terms)
    return parser.parse()


def parse_polynomial(text, field, var_names, max_terms=None):
    """Parse an expression that must denote a polynomial (constant denominator)."""
    num, den = parse_rational(text, field, var_names, max_terms)
    c = den.constant_term()
    if den.total_degree() > 0 or not c:
        raise ParseError(f"expression {text!r} is not a polynomial")
    one = field.one()
    return _checked_digits(num if c == one else num.scale(one / c))


def parse_generator(text, field, var_names, max_terms=None):
    """Parse a generator: a polynomial, or a rational series when the
    denominator is a non-constant power series with unit constant term."""
    from .series import RationalSeries

    num, den = parse_rational(text, field, var_names, max_terms)
    c = den.constant_term()
    if den.total_degree() <= 0:
        if not c:
            raise ParseError(f"zero denominator in {text!r}")
        one = field.one()
        return _checked_digits(num if c == one else num.scale(one / c))
    return RationalSeries(_checked_digits(num, den), den)
