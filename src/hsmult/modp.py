"""Modular acceleration of kernel decisions for parameter-polynomial matrices.

Specializing the parameters at a point of a large prime field can only lower
the rank, so a full-column-rank image certifies a trivial exact kernel
outright.  When the image does have a kernel vector, its support is used to
restrict the exact solve to few columns; the result is confirmed exactly, and
a failed confirmation costs only a retry with the next deterministic point
(falling back to the full exact kernel after that).  Correctness therefore
never depends on the specialization point being generic, and the kernel
vector is the canonical one on either path.

The policy is fixed: a matrix over a parameter field with more than
``DIRECT_MAX_COLUMNS`` (4) columns goes through ``kernel_via_modp``, which tries
up to three points (one per prime of ``DEFAULT_PRIMES``, or three points of
GF(p) over a prime base field); every other matrix goes to ``kernel``.

Every step reads the matrix's cleared grid (``ExactMatrix.grid``): the points
are hashed from its text, the image is its evaluation mod p as rows of
machine ints, the restricted solve takes its columns, and the confirmation
multiplies it by the kernel vector, whose entries have denominator 1 by the
kernel contract of ``linalg``.  The image is made by ``scalars.pp_eval_rows``,
the one evaluator of parameter polynomials at a point, and eliminated by
``linalg.plain_kernel``, the one base-field eliminator, on its ints mod p: no
prime-field element or rational function is built for it.
"""

from __future__ import annotations

from dataclasses import dataclass

# CPython's built-in SHA-256 gives the same digests as hashlib's without
# loading OpenSSL's libcrypto (3.7 MB resident with CPython 3.11 on Linux)
try:
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .errors import UnexpectedNullity
from .linalg import kernel, plain_kernel
from .scalars import FunctionField, pp_add, pp_eval_rows, pp_mul, pp_to_str

# largest primes below 2^31, descending: the retry-th point is taken mod the
# retry-th prime, so their number is the number of points tried
DEFAULT_PRIMES = (2147483647, 2147483629, 2147483587)

# parameter matrices with at most this many columns are solved directly
DIRECT_MAX_COLUMNS = 4


@dataclass(frozen=True)
class SpecPoint:
    """A specialization target: reduce mod p after evaluating t at the values."""

    prime: int
    values: tuple
    retry: int = 0


@dataclass(frozen=True)
class ModpPolicy:
    """Deterministic point selection: counter-based hashing, never randomness.

    forced_points, (prime, values) pairs, replace the first hashed points;
    tests use them to inject degenerate points.
    """

    forced_points: tuple = ()

    def point(self, serial, retry, nparams, char):
        """The retry-th specialization point for a matrix with this serialization."""
        if retry < len(self.forced_points):
            p, values = self.forced_points[retry]
            return SpecPoint(p, tuple(v % p for v in values), retry)
        p = char if char else DEFAULT_PRIMES[retry]
        values = []
        counter = 0
        while len(values) < nparams:
            h = sha256(
                serial + b"|" + str(retry).encode() + b"|" + str(counter).encode()
            ).digest()
            for k in range(0, len(h) - 7, 8):
                if len(values) == nparams:
                    break
                values.append(int.from_bytes(h[k : k + 8], "big") % p)
            counter += 1
        return SpecPoint(p, tuple(values), retry)


@dataclass
class ModpStats:
    dispatched: int = 0
    direct: int = 0
    trivial_by_modp: int = 0
    accepted_by_support: int = 0
    retries: int = 0
    fallbacks: int = 0

    def as_dict(self):
        return dict(self.__dict__)


def _serial(M):
    """The cleared grid as text: the seed of the deterministic points."""
    params = M.field.params
    rows = (",".join(pp_to_str(e, params) for e in row) for row in M.grid)
    return ";".join(rows).encode()


def specialize(M, pt):
    """The grid evaluated at pt.values mod pt.prime: a new list of int rows,
    reduced into [0, pt.prime) by ``scalars.pp_eval_rows``."""
    return pp_eval_rows(M.grid, pt.values, pt.prime)


def _restricted_solve(M, cols):
    """Exact kernel on the column-restricted system, embedded back with zeros."""
    try:
        v = kernel(M.columns(cols))
    except UnexpectedNullity:
        return None
    if v is None:
        return None
    full = [M.field.zero()] * M.ncols
    for j, a in zip(cols, v):
        full[j] = a
    return tuple(full)


def _annihilates(M, v):
    """M v == 0, read on the grid; kernel vectors have denominator 1."""
    char = M.field.char
    nums = [a.num for a in v]
    for row in M.grid:
        acc = {}
        for a, b in zip(row, nums):
            if a and b:
                acc = pp_add(acc, pp_mul(a, b, char), char)
        if acc:
            return False
    return True


def kernel_via_modp(M, policy=None, stats=None):
    """Exact kernel of a parameter matrix, decided through mod-p images.

    A trivial mod-p kernel is conclusive.  A nontrivial one proposes a column
    support for the exact solve; the candidate vector is confirmed against the
    full matrix, and on failure the next point is tried, then the exact path.
    """
    policy = policy or ModpPolicy()
    ff = M.field
    serial = _serial(M)
    nparams = len(ff.params)
    for retry in range(len(DEFAULT_PRIMES)):
        if retry and stats is not None:
            stats.retries += 1
        pt = policy.point(serial, retry, nparams, ff.char)
        try:
            image = plain_kernel(specialize(M, pt), M.ncols, pt.prime)
        except UnexpectedNullity:
            continue
        if image is None:
            if stats is not None:
                stats.trivial_by_modp += 1
            return None
        v = _restricted_solve(M, [j for j, a in enumerate(image) if a])
        if v is not None and _annihilates(M, v):
            if stats is not None:
                stats.accepted_by_support += 1
            return v
    if stats is not None:
        stats.fallbacks += 1
    return kernel(M)


def solve_dispatch(M, stats=None):
    """Route parameter matrices past DIRECT_MAX_COLUMNS columns to the modular path."""
    if stats is not None:
        stats.dispatched += 1
    ff = M.field
    if isinstance(ff, FunctionField) and ff.params and M.ncols > DIRECT_MAX_COLUMNS:
        return kernel_via_modp(M, stats=stats)
    if stats is not None:
        stats.direct += 1
    return kernel(M)
