"""Kernel decisions for parameter-polynomial matrices at points.

A composition-series run over a parameter field decides its steps at a
point (``point_span``), and at its next one when a step is degenerate there:
``matlis`` keeps the images of its candidate columns in a
``linalg.ColumnSpan`` over the point field, from each generator
coefficient's image (``coefficient_images``): its numerator's image, over
QQ times the inverse of its integer denominator mod p.  Evaluation at a
point is a ring map, so it can only lower the rank: a column independent of
the others at the point is independent over K(t).  ``kernel_via_modp``
decides one whole matrix at points, for callers of the library; no run
calls it.

The point field.  Over GF(p)(t) a point lies in GF(q), q = p^k with k the
largest exponent such that q <= 2^13 (``point_field_order``), so k = 1 for
p > 90 and for the primes of ``DEFAULT_PRIMES``: over QQ and GF(32003) the
images are ints mod p.  Over GF(2), GF(3) or GF(5) a point of GF(p)^r is too
small a sample: t^2 + t vanishes at every point of GF(2), so a full-rank
matrix can be singular at all of them.  By Schwartz-Zippel, a nonzero
maximal minor of total degree D vanishes at a uniform point of GF(q)^r with
probability at most D / q, and D <= ncols when every grid entry has degree
at most 1.  GF(p) is a subfield of GF(q), so forced points keep their
meaning.  GF(q) is ``_Extension``: Zech logarithms of a root of a fixed
primitive polynomial (``_PRIMITIVE``), whose tables, of at most 2^13 entries
each, are built for a prime when its first run needs them; a span over
GF(q) holds the logarithms of its nonzero elements.

A point is a plain pair (prime, values).  The retry-th point is hashed from
(retry, number of parameters, characteristic) alone, and kept
(``_hashed_point``), so every run over one field meets the same points.
Its coordinates are nonzero: a zero coordinate kills every monomial in that
parameter, so one such point would be degenerate for every matrix over its
field.  Over a prime point field, grids and coefficients are evaluated by
``scalars.pp_eval_rows``, the one evaluator of parameter polynomials at a
point of a prime field, and over GF(q) by ``_Extension``, into the plain
numbers of a ``linalg.ColumnSpan`` over the point field: ints mod p or, over
GF(q), logarithms.  No field element or rational function is built for an
image.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache

# CPython's built-in SHA-256 gives the same digests as hashlib's without
# loading OpenSSL's libcrypto (3.7 MB resident with CPython 3.11 on Linux)
try:
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .errors import DenominatorVanishes, InternalInconsistency, UnexpectedNullity
from .linalg import ColumnSpan, kernel, span_kernel
from .scalars import CACHE_SIZE, pp_eval_rows

# largest primes below 2^31, descending: the retry-th point is taken mod the
# retry-th prime, so their number is the number of points tried
DEFAULT_PRIMES = (2147483647, 2147483629, 2147483587)

# the largest point field over a small prime
POINT_FIELD_MAX = 1 << 13

# x^k modulo a primitive polynomial of degree k over GF(p), k as in
# point_field_order, as the int whose base-p digits are its coefficients,
# lowest first: the smallest such int, e.g. 27 for x^13 + x^4 + x^3 + x + 1
# over GF(2); one per prime whose point field is an extension (p <= 90)
_PRIMITIVE = {
    2: 27, 3: 28, 5: 7, 7: 60, 11: 18, 13: 32, 17: 20, 19: 34,
    23: 27, 29: 44, 31: 38, 37: 52, 41: 48, 43: 52, 47: 55, 53: 58,
    59: 62, 61: 68, 67: 77, 71: 74, 73: 78, 79: 83, 83: 104, 89: 104,
}


def point_field_order(p):
    """q = p^k for the largest k with q <= 2^13, or p itself when p > 90."""
    q = p
    while q * p <= POINT_FIELD_MAX:
        q *= p
    return q


class _Extension:
    """GF(q), q = p^k > p, on Zech logarithms of a root a of ``_PRIMITIVE[p]``.

    Elements come in and go out as ints in [0, q) whose base-p digits are
    their coefficients on 1, a, ..., a^(k-1), so GF(p) is [0, p) with its own
    int arithmetic.  Inside, a nonzero element is its logarithm n in
    [0, q - 1), standing for a^n, and zero is -1; a^m a^n = a^(m + n), and
    a^m + a^n = a^(m + zech[n - m]) with zech[n] the logarithm of 1 + a^n.
    The three tables are arrays of q - 1 or q 16-bit ints.
    """

    __slots__ = ("p", "m", "exp", "log", "zech", "minus_one")

    def __init__(self, p, q):
        red = _PRIMITIVE[p]
        # a * (low + hi a^(k-1)) = low shifted up one digit + hi * red
        red_digits = []
        place = 1
        while place <= red:
            if red // place % p:
                red_digits.append((place, red // place % p))
            place *= p
        top = q // p
        exp = [1] * (q - 1)
        v = 1
        for n in range(1, q - 1):
            hi, low = divmod(v, top)
            v = low * p
            for place, d in red_digits if hi else ():
                digit = v // place % p
                v += ((digit + hi * d) % p - digit) * place
            exp[n] = v
        log = [-1] * q
        for n, v in enumerate(exp):
            log[v] = n
        if log.count(-1) > 1:
            raise InternalInconsistency(f"_PRIMITIVE[{p}] is not primitive")
        # 1 + v changes only the constant digit of v
        zech = [log[v - v % p + (v + 1) % p] for v in exp]
        self.p, self.m = p, q - 1
        self.exp = array("H", exp)
        self.log, self.zech = array("h", log), array("h", zech)
        self.minus_one = (q - 1) // 2 if p > 2 else 0

    def add(self, x, y):
        """x + y on logarithms."""
        if x < 0:
            return y
        if y < 0:
            return x
        z = self.zech[(y - x) % self.m]
        return z if z < 0 else (x + z) % self.m

    def sub_multiple(self, target, f, src):
        """target -= f * src on maps of logarithms, dropping zeros: the
        update of ``linalg.ColumnSpan`` over GF(q)."""
        m, zech = self.m, self.zech
        f += self.minus_one
        get = target.get
        for k, a in src.items():
            t = (f + a) % m
            b = get(k)
            if b is None:
                target[k] = t
            else:
                z = zech[(t - b) % m]
                if z < 0:
                    del target[k]
                else:
                    target[k] = (b + z) % m

    def _monomial(self, logs, expo):
        """The logarithm of the monomial expo at the point with these
        logarithms (-1 when it is zero)."""
        n = 0
        for lv, d in zip(logs, expo):
            if d:
                if lv < 0:
                    return -1
                n += lv * d
        return n % self.m

    def eval_rows(self, grid, values):
        """``scalars.pp_eval_rows`` into GF(q): the grid at values (elements
        of GF(q) as ints), as new lists of the logarithms of the entries,
        -1 for zero, as a ``linalg.ColumnSpan`` over GF(q) holds them."""
        p, m, log = self.p, self.m, self.log
        logs = [log[v] for v in values]
        monomials = {}
        out = []
        for row in grid:
            new = []
            for a in row:
                acc = -1
                for expo, c in a.items():
                    mono = monomials.get(expo)
                    if mono is None:
                        mono = monomials[expo] = self._monomial(logs, expo)
                    c %= p
                    if mono >= 0 and c:
                        acc = self.add(acc, (log[c] + mono) % m)
                new.append(acc)
            out.append(new)
        return out


@lru_cache(maxsize=CACHE_SIZE)
def _point_field(p):
    """GF(point_field_order(p)) as an ``_Extension``, or None when that is
    GF(p); built on first use, one per prime."""
    q = point_field_order(p)
    return None if q == p else _Extension(p, q)


@lru_cache(maxsize=CACHE_SIZE)
def _hashed_point(retry, nparams, char):
    """The retry-th hashed point for nparams parameters in characteristic
    char, made once: (prime, values), every value a nonzero element of the
    point field of the prime (see ``_Extension`` for their ints)."""
    p = char if char else DEFAULT_PRIMES[retry]
    q = point_field_order(p)
    values = []
    counter = 0
    while len(values) < nparams:
        h = sha256(b"%d|%d|%d|%d" % (retry, nparams, char, counter)).digest()
        for k in range(0, len(h) - 7, 8):
            if len(values) == nparams:
                break
            values.append(1 + int.from_bytes(h[k : k + 8], "big") % (q - 1))
        counter += 1
    return p, tuple(values)


def point_span(ff, retry):
    """The retry-th point of a run over the parameter field ff, its retry-th
    hashed point, and an empty ``linalg.ColumnSpan`` over the point field."""
    point = _hashed_point(retry, len(ff.params), ff.char)
    return point, ColumnSpan(point[0], _point_field(point[0]))


def coefficient_images(coeffs, point):
    """Parameter-ring scalars at a point (prime, values), each as the
    ``linalg.ColumnSpan`` over the point field holds it: an int in [0, p),
    or over GF(q) its logarithm (see ``_Extension``); None for zero.
    DenominatorVanishes when, over QQ, the prime divides an integer
    denominator."""
    p, values = point
    F = _point_field(p)
    nums = [[a.num for a in coeffs]]
    if F is not None:  # characteristic p: every denominator is 1
        return [None if v < 0 else v for v in F.eval_rows(nums, values)[0]]
    out = []
    for num, a in zip(pp_eval_rows(nums, values, p)[0], coeffs):
        if a.den != 1:
            if not a.den % p:
                raise DenominatorVanishes(str(a), point)
            num = num * pow(a.den, -1, p) % p
        out.append(num or None)
    return out


@dataclass
class ModpStats:
    """Solves by path: ``dispatched`` all, ``direct`` base-field ones,
    ``trivial_by_modp`` K(t) rejections at a point, ``accepted_by_support``
    exact solves on a point's support, ``fallbacks`` exact solves of a whole
    matrix, and ``retries`` the points tried after the first."""

    dispatched: int = 0
    direct: int = 0
    trivial_by_modp: int = 0
    accepted_by_support: int = 0
    retries: int = 0
    fallbacks: int = 0

    def as_dict(self):
        return dict(self.__dict__)

    def __add__(self, other):
        """The counts of both, in a new ModpStats."""
        return ModpStats(**{k: v + getattr(other, k) for k, v in self.__dict__.items()})


def specialize(M, point):
    """The grid evaluated at a point (prime, values): a new list of int rows
    of the plain numbers a ``linalg.ColumnSpan`` over the point field holds,
    ints in [0, prime) from ``scalars.pp_eval_rows`` when that is GF(prime),
    and over GF(q) logarithms, -1 for zero (``_Extension.eval_rows``)."""
    p, values = point
    F = _point_field(p)
    return pp_eval_rows(M.grid, values, p) if F is None else F.eval_rows(M.grid, values)


def _restricted_solve(M, cols):
    """The exact kernel on those columns, embedded back with zeros; its
    nullity is at most the image's on them, 1."""
    v = kernel(M.columns(cols))
    if v is None:
        return None
    full = [M.field.zero()] * M.ncols
    for j, a in zip(cols, v):
        full[j] = a
    return tuple(full)


def kernel_via_modp(M, points=(), stats=None):
    """Exact kernel of a parameter matrix, decided at up to three points
    (one per prime of ``DEFAULT_PRIMES`` over QQ), then by ``kernel``.

    A trivial image kernel (``specialize``, ``linalg.span_kernel``) is
    conclusive.  A one-dimensional one proposes its support S for an exact
    solve that keeps every row, so a vector v found has M v = M_S v_S = 0,
    and as rank(image) = ncols - 1 <= rank(M), v is ``kernel(M)``'s vector.
    Any other image costs a retry.  ``points``, (prime, values) pairs with
    the values taken mod the prime, replace the first hashed points; tests
    use them to inject degenerate points.
    """
    stats = ModpStats() if stats is None else stats
    nparams, char = len(M.field.params), M.field.char
    for retry in range(len(DEFAULT_PRIMES)):
        if retry:
            stats.retries += 1
        if retry < len(points):
            p, values = points[retry]
            values = tuple(v % p for v in values)
        else:
            p, values = _hashed_point(retry, nparams, char)
        rows = specialize(M, (p, values))
        F = _point_field(p)
        zero = -1 if F else 0
        cols = [{i: r[j] for i, r in enumerate(rows) if r[j] != zero} for j in range(M.ncols)]
        try:
            image = span_kernel(cols, p, F)
        except UnexpectedNullity:
            continue
        if image is None:
            stats.trivial_by_modp += 1
            return None
        v = _restricted_solve(M, sorted(image))
        if v is not None:
            stats.accepted_by_support += 1
            return v
    stats.fallbacks += 1
    return kernel(M)

