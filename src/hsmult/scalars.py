"""Exact scalar tower: rationals, prime fields, and polynomials in parameters.

Coefficient fields come in three layers:

* ``QQ`` -- exact rationals, elements are ``fractions.Fraction``;
* ``GF(p)`` -- prime fields, elements are ``GFElement``;
* ``FunctionField(base, params)`` -- the parameter ring K[t] in a fixed
  tuple of parameter names over either base, elements are
  ``RationalFunction``.  The engine works over K(t), but every scalar it
  builds there is a parameter polynomial, and nothing divides by one.

Parameter polynomials are plain dicts ``{exponent tuple: coefficient}`` with
integer coefficients (reduced to ``[1, p-1]`` in characteristic p) and no zero
entries.  Each convention the PolyList/MatList strings rest on has one owner
here: the term order ``pp_key``, the unit ``pp_unit``, the primitive row
``pp_primitive_row`` (kernel vectors and MatList rows) and the term printer
``terms_to_str`` (``pp_to_str`` and ``poly.SparsePoly.to_str``).  A
``RationalFunction`` is num/den with num a parameter polynomial and den a
positive int coprime to num's integer content (1 in characteristic p), so
over QQ an input coefficient like 1/2 keeps its value.  Division is by
nonzero constants only, the units of K[t].  Equality is a dict comparison,
and certificate output is reproducible.
``pp_eval_rows`` is the one evaluator of parameter polynomials at a point
of QQ or GF(p); ``modp`` evaluates them at points of GF(p^k).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add, sub

from .errors import RingMismatch

# ---------------------------------------------------------------------------
# parameter polynomials (internal representation)
# ---------------------------------------------------------------------------

PPoly = dict  # {tuple[int, ...]: int}, no zero coefficients


def pp_key(expo):
    """Canonical (graded, then lex) sort key for parameter exponents."""
    return (sum(expo), expo)


def pp_const(c, r, char):
    if char:
        c %= char
    return {} if c == 0 else {(0,) * r: c}


def pp_add(a, b, char):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if char:
            v %= char
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def pp_neg(a, char):
    if char:
        return {e: (char - c) % char for e, c in a.items()}
    return {e: -c for e, c in a.items()}


def pp_sub(a, b, char):
    return pp_add(a, pp_neg(b, char), char)


def pp_mul(a, b, char):
    """a * b; the products are summed first, and zero sums (mod p) dropped once."""
    out = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = get(e, 0) + ca * cb
    if char:
        return {e: w for e, v in out.items() if (w := v % char)}
    return {e: v for e, v in out.items() if v}


def pp_scale(a, c, char):
    if char:
        c %= char
    if c == 0:
        return {}
    out = {}
    for e, v in a.items():
        w = v * c
        if char:
            w %= char
        if w:
            out[e] = w
    return out


def pp_leading(a):
    """(exponent, coefficient) of the canonical leading term."""
    e = max(a, key=pp_key)
    return e, a[e]


def pp_divexact(a, b, char):
    """Exact multivariate division a / b; raises ArithmeticError when not exact.

    A one-term divisor divides term by term.  Otherwise the leading term of
    the remainder, kept in place, gives the next quotient term, and only the
    divisor's other terms are subtracted from it.
    """
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return {}
    eb, cb = pp_leading(b)
    cb_inv = _modinv(cb, char) if char else None

    def quotient_term(e, c):
        de = tuple(map(sub, e, eb))
        if min(de, default=0) < 0:
            raise ArithmeticError("division not exact")
        if char:
            return de, c * cb_inv % char
        if c % cb:
            raise ArithmeticError("division not exact")
        return de, c // cb

    if len(b) == 1:
        return dict(quotient_term(e, c) for e, c in a.items())
    rest = [(e, c) for e, c in b.items() if e != eb]
    q = {}
    r = dict(a)
    while r:
        er = max(r, key=pp_key)
        de, qc = quotient_term(er, r.pop(er))
        q[de] = qc
        for e, c in rest:
            k = tuple(map(add, de, e))
            v = r.get(k, 0) - qc * c
            if char:
                v %= char
            if v:
                r[k] = v
            else:
                r.pop(k, None)
    return q


def _modinv(c, p):
    return pow(c % p, p - 2, p)


def pp_unit(a, char):
    """The int u that makes the leading coefficient of u * a 1 (characteristic
    p) or positive (characteristic 0); 1 for zero."""
    if not a:
        return 1
    _, lc = pp_leading(a)
    if char:
        return 1 if lc == 1 else _modinv(lc, char)
    return -1 if lc < 0 else 1


def _pp_unit_normalize(a, char):
    """a times its unit ``pp_unit``."""
    u = pp_unit(a, char)
    return a if u == 1 else pp_scale(a, u, char)


def map_nonzero(fn, row):
    """fn applied to the nonzero polynomials of a row; every zero becomes the
    new row's one empty dict."""
    zero = {}
    return [fn(a) if a else zero for a in row]


def pp_primitive_row(nums, char):
    """A row of polynomials over its canonical constant: in characteristic 0
    divided by the integer content of all its coefficients, then times the
    unit (``pp_unit``) of its first nonzero entry.  A scaled row is a new
    list whose zeros are its one empty dict; otherwise nums comes back."""
    first = next((a for a in nums if a), None)
    if first is None:
        return nums
    u = pp_unit(first, char)
    if char:
        return nums if u == 1 else map_nonzero(lambda a: pp_scale(a, u, char), nums)
    d = u * math.gcd(*(c for a in nums for c in a.values()))
    return nums if d == 1 else map_nonzero(lambda a: {e: c // d for e, c in a.items()}, nums)


def pp_primitive(a, char):
    """Primitive part: integer content removed (char 0) or monic (char p)."""
    return pp_primitive_row([a], char)[0]


def _as_uni(a, v):
    """View a as univariate in parameter #v with parameter-poly coefficients."""
    out = {}
    for e, c in a.items():
        d = e[v]
        e0 = e[:v] + (0,) + e[v + 1 :]
        out.setdefault(d, {})[e0] = c
    return out


def _from_uni(u, v):
    out = {}
    for d, poly in u.items():
        for e, c in poly.items():
            out[e[:v] + (d,) + e[v + 1 :]] = c
    return out


def _uni_content(u, char):
    c = {}
    one = None
    for poly in u.values():
        c = pp_gcd(c, poly, char)
        if one is None:
            one = pp_const(1, len(next(iter(c))), char) if c else None
        if c == one:
            break
    return c


def _uni_prem(A, B, v, char):
    """Pseudo-remainder of A by B (both univariate views in #v)."""
    dB = max(B)
    lb = B[dB]
    R = dict(A)
    while R and max(R) >= dB:
        dR = max(R)
        lr = R[dR]
        newR = {}
        for d, c in R.items():
            if d != dR:
                newR[d] = pp_mul(lb, c, char)
        for d, c in B.items():
            if d == dB:
                continue
            nd = d + dR - dB
            t = pp_mul(lr, c, char)
            acc = pp_sub(newR.get(nd, {}), t, char)
            if acc:
                newR[nd] = acc
            else:
                newR.pop(nd, None)
        R = {d: c for d, c in newR.items() if c}
    return R


def pp_gcd(a, b, char):
    """Multivariate gcd, unit-normalized (positive lead over Z, monic over F_p).

    When one argument is a single term the gcd is a term too, and it is
    returned at once: the exponent-wise minima over both arguments' terms,
    times the integer gcd of all coefficients in characteristic 0 (1 in
    characteristic p).  Otherwise a primitive PRS in the last active
    parameter, whose contents recurse through ``pp_gcd``.
    """
    if not a:
        return _pp_unit_normalize(b, char)
    if not b:
        return _pp_unit_normalize(a, char)
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        ((m, g),) = a.items()
        for e in b:
            m = tuple(map(min, m, e))
        if char:
            return {m: 1}
        for c in b.values():
            g = math.gcd(g, c)
        return {m: g}
    active = set()
    for e in a:
        active.update(i for i, d in enumerate(e) if d)
    for e in b:
        active.update(i for i, d in enumerate(e) if d)
    # both arguments have two terms or more, so some parameter occurs
    v = max(active)
    A = _as_uni(a, v)
    B = _as_uni(b, v)
    if max(A) < max(B):
        A, B = B, A
    ca = _uni_content(A, char)
    cb = _uni_content(B, char)
    cont = pp_gcd(ca, cb, char)
    A = {d: pp_divexact(c, ca, char) for d, c in A.items()}
    B = {d: pp_divexact(c, cb, char) for d, c in B.items()}
    while True:
        R = _uni_prem(A, B, v, char)
        if not R:
            g_uni = B
            break
        if max(R) == 0:
            # primitive parts coprime in #v: only the content survives
            return _pp_unit_normalize(cont, char)
        cr = _uni_content(R, char)
        A, B = B, {d: pp_divexact(c, cr, char) for d, c in R.items()}
    g = pp_mul(cont, _from_uni(g_uni, v), char)
    return _pp_unit_normalize(g, char)


def pp_eval_rows(rows, values, p):
    """Rows of parameter polynomials at a point, as new lists of plain numbers:
    ints in [0, p) over GF(p); over QQ (p == 0) a Fraction, or the int 0.

    ``values`` holds one int (or, over QQ, Fraction) per parameter.  Each
    monomial is evaluated once per call; a zero cell, the common case in a
    grid, costs no arithmetic.
    """
    monomials = {}
    out = []
    for row in rows:
        new = []
        for a in row:
            if not a:
                new.append(0)
                continue
            acc = 0
            for expo, c in a.items():
                m = monomials.get(expo)
                if m is None:
                    m = 1
                    for v, d in zip(values, expo):
                        if d:
                            m = m * pow(v, d, p) % p if p else m * v**d
                    monomials[expo] = m
                acc += c * m
            new.append(acc % p if p else Fraction(acc) if acc else 0)
        out.append(new)
    return out


def terms_to_str(terms, names):
    """The printed form of (exponent, unsigned coefficient text, negative)
    terms, in the order given: ``3*a^2*b - b + 1``, a coefficient "1"
    left out before a monomial."""
    parts = []
    for e, cs, neg in terms:
        factors = [
            names[i] if d == 1 else f"{names[i]}^{d}" for i, d in enumerate(e) if d
        ]
        if not factors:
            body = cs
        elif cs == "1":
            body = "*".join(factors)
        else:
            body = "*".join([cs] + factors)
        sign = (" - " if neg else " + ") if parts else "-" if neg else ""
        parts.append(sign + body)
    return "".join(parts)


def pp_to_str(a, names):
    """Canonical human-readable form: terms descending in ``pp_key``."""
    if not a:
        return "0"
    keys = sorted(a, key=pp_key, reverse=True)
    return terms_to_str([(e, str(abs(a[e])), a[e] < 0) for e in keys], names)


# ---------------------------------------------------------------------------
# base fields
# ---------------------------------------------------------------------------


class RationalField:
    """The field of exact rationals; elements are fractions.Fraction."""

    char = 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def to_str(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class GFElement:
    """Element of a prime field, stored reduced to [0, p)."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _check(self, other):
        if not isinstance(other, GFElement) or other.p != self.p:
            raise RingMismatch("mixed prime-field arithmetic")

    def __add__(self, other):
        self._check(other)
        return GFElement(self.v + other.v, self.p)

    def __sub__(self, other):
        self._check(other)
        return GFElement(self.v - other.v, self.p)

    def __mul__(self, other):
        self._check(other)
        return GFElement(self.v * other.v, self.p)

    def __truediv__(self, other):
        self._check(other)
        if other.v == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return GFElement(self.v * pow(other.v, self.p - 2, self.p), self.p)

    def __neg__(self):
        return GFElement(-self.v, self.p)

    def __eq__(self, other):
        return isinstance(other, GFElement) and other.p == self.p and other.v == self.v

    def __bool__(self):
        return self.v != 0

    def __hash__(self):
        return hash((self.p, self.v))

    def __repr__(self):
        return f"{self.v}"


# the least strong pseudoprime to all the prime bases 2..41 (OEIS A014233)
PRIME_CHECK_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Miller-Rabin to the bases 2..41, exact below PRIME_CHECK_LIMIT; at or
    above it, ValueError."""
    if n >= PRIME_CHECK_LIMIT:
        raise ValueError(f"primality is decided only below {PRIME_CHECK_LIMIT}")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * odd
    for b in bases:
        x = pow(b, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


class PrimeField:
    def __init__(self, p):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p

    def zero(self):
        return GFElement(0, self.p)

    def one(self):
        return GFElement(1, self.p)

    def from_int(self, n):
        return GFElement(n, self.p)

    def to_str(self, a):
        return str(a.v)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


# the entries a process-lifetime cache keeps (GF, modp's points and point
# fields, reduction.param_names); one rebuilt after eviction is equal
CACHE_SIZE = 64


@lru_cache(maxsize=CACHE_SIZE)
def GF(p):
    return PrimeField(p)


# ---------------------------------------------------------------------------
# the parameter ring K[t]
# ---------------------------------------------------------------------------


class RationalFunction:
    """An element num/den of the parameter ring K[t]: num a parameter
    polynomial, den a positive int coprime to num's integer content, and 1
    in characteristic p.  A constant is the only divisor."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den=1):
        if den != 1:
            if not den:
                raise ZeroDivisionError("zero denominator")
            g = math.gcd(den, *num.values())
            if den < 0:
                g = -g
            num = {e: c // g for e, c in num.items()} if g != 1 else num
            den //= g
        self.field = field
        self.num = num
        self.den = den

    def _check(self, other):
        if not isinstance(other, RationalFunction) or other.field != self.field:
            raise RingMismatch("mixed function-field arithmetic")

    def __add__(self, other):
        self._check(other)
        ch = self.field.char
        den = math.lcm(self.den, other.den)
        a = self.num if den == self.den else pp_scale(self.num, den // self.den, ch)
        b = other.num if den == other.den else pp_scale(other.num, den // other.den, ch)
        return RationalFunction(self.field, pp_add(a, b, ch), den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        ch = self.field.char
        return RationalFunction(
            self.field, pp_mul(self.num, other.num, ch), self.den * other.den
        )

    def __truediv__(self, other):
        """Division by a nonzero constant, a unit of K[t]; ArithmeticError
        for any other divisor."""
        self._check(other)
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        c = other.num.get((0,) * len(self.field.params))
        if c is None or len(other.num) > 1:
            raise ArithmeticError("division by a non-constant parameter polynomial")
        ch = self.field.char
        if ch:
            return RationalFunction(self.field, pp_scale(self.num, _modinv(c, ch), ch))
        num = self.num if other.den == 1 else pp_scale(self.num, other.den, 0)
        return RationalFunction(self.field, num, self.den * c)

    def __neg__(self):
        return RationalFunction(self.field, pp_neg(self.num, self.field.char), self.den)

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and other.field == self.field
            and other.num == self.num
            and other.den == self.den
        )

    def __bool__(self):
        return bool(self.num)

    def __hash__(self):
        return hash((self.field, frozenset(self.num.items()), self.den))

    def evaluate(self, values):
        """Evaluate at base-field scalars, one per parameter of the field."""
        base = self.field.base
        p = base.char
        point = [v.v for v in values] if p else values
        ((num,),) = pp_eval_rows(((self.num,),), point, p)
        return base.from_int(num) if p else Fraction(num, self.den)

    def __repr__(self):
        return self.field.to_str(self)


class FunctionField:
    """The parameter ring K[t] in a fixed ordered tuple of parameter names;
    the name is the field of fractions the paper works over."""

    def __init__(self, base, params):
        self.base = base
        self.params = tuple(params)
        self.char = base.char

    def zero(self):
        return RationalFunction(self, {})

    def one(self):
        return RationalFunction(self, pp_const(1, len(self.params), self.char))

    def from_int(self, n):
        return self.lift(self.base.from_int(n))

    def lift(self, a):
        """Embed a base-field scalar."""
        r = len(self.params)
        if self.char:
            return RationalFunction(self, pp_const(a.v, r, self.char))
        return RationalFunction(self, pp_const(a.numerator, r, 0), a.denominator)

    def param(self, name):
        i = self.params.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(self.params)))
        return RationalFunction(self, {e: 1})

    def from_ppoly(self, num):
        """The parameter polynomial num, taken as is."""
        return RationalFunction(self, num)

    def to_str(self, a):
        num = pp_to_str(a.num, self.params)
        return num if a.den == 1 else f"({num})/({a.den})"

    def __eq__(self, other):
        return (
            isinstance(other, FunctionField)
            and other.base == self.base
            and other.params == self.params
        )

    def __hash__(self):
        return hash(("FF", self.base, self.params))

    def __repr__(self):
        return f"{self.base}({', '.join(self.params)})"
