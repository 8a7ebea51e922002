"""Independent brute-force oracles for lengths and multiplicities.

Everything here is deliberately naive -- box enumeration, k-th power
generator expansion, truncated linear algebra with its own row reduction --
so that agreement with the main engine is meaningful evidence.  None of this
is used on the main computation path.
"""

from __future__ import annotations

import itertools
import math

from .errors import NotStabilized
from .poly import exp_add

INFINITE = math.inf


def _pure_power_bounds(gens, nvars):
    bounds = []
    for i in range(nvars):
        pure = [
            g[i]
            for g in gens
            if g[i] > 0 and all(g[j] == 0 for j in range(nvars) if j != i)
        ]
        if not pure:
            return None
        bounds.append(min(pure))
    return bounds


def _count_standard(gens, bounds):
    """Standard monomials inside the box, by a divisibility sieve.

    A point is in the ideal when it is a generator or a point one step below
    it is.  The box is swept one layer of the first coordinate at a time, and
    only the standard points of the current and the previous layer are kept.
    """
    if not bounds:
        return 0  # no variables: the generator () is the unit
    gens = set(gens)
    inner = [range(b) for b in bounds[1:]]
    count = 0
    below = set()
    for a0 in range(bounds[0]):
        layer = set()
        for rest in itertools.product(*inner):
            if (a0,) + rest in gens or (a0 and rest not in below):
                continue
            steps = (rest[:i] + (d - 1,) + rest[i + 1 :] for i, d in enumerate(rest) if d)
            if all(s in layer for s in steps):
                layer.add(rest)
        count += len(layer)
        below = layer
    return count


def monomial_length(gens):
    """Number of standard monomials of the monomial ideal, or INFINITE.

    ``gens`` is an iterable of exponent tuples; the ideal has finite colength
    exactly when it bounds a pure power of every variable.
    """
    gens = [tuple(g) for g in gens]
    if not gens:
        raise ValueError("empty generator set")
    nvars = len(gens[0])
    if (0,) * nvars in gens:
        return 0
    bounds = _pure_power_bounds(gens, nvars)
    if bounds is None:
        return INFINITE
    return _count_standard(gens, bounds)


def _minimalize(gens):
    out = []
    for g in sorted(set(gens), key=sum):
        if not any(all(h[i] <= g[i] for i in range(len(g))) for h in out):
            out.append(g)
    return out


def monomial_power_length(gens, k):
    """Colength of the k-th power, by expanding the power's generators."""
    gens = _minimalize(tuple(g) for g in gens)
    power = set()
    for combo in itertools.combinations_with_replacement(gens, k):
        e = combo[0]
        for f in combo[1:]:
            e = exp_add(e, f)
        power.add(e)
    power = _minimalize(power)
    nvars = len(gens[0])
    bounds = _pure_power_bounds(power, nvars)
    if bounds is None:
        return INFINITE
    return _count_standard(power, bounds)


def monomial_multiplicity_fit(gens, d, k_max=10):
    """d! times the leading coefficient of k -> colength of the k-th power.

    Computed as the d-th finite difference of the tail; requires the last two
    difference values to agree, else NotStabilized.
    """
    gens = [tuple(g) for g in gens]
    if monomial_length(gens) is INFINITE:
        raise ValueError("ideal is not zero-dimensional")
    values = [monomial_power_length(gens, k) for k in range(1, k_max + 1)]
    diffs = values
    for _ in range(d):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    if len(diffs) < 2 or diffs[-1] != diffs[-2]:
        raise NotStabilized(k_max)
    return diffs[-1]


def _monomials_below(nvars, degree):
    """All exponents of total degree < degree."""
    out = []
    for total in range(degree):
        for cuts in itertools.combinations(range(total + nvars - 1), nvars - 1):
            prev = -1
            e = []
            for c in cuts:
                e.append(c - prev - 1)
                prev = c
            e.append(total + nvars - 1 - prev - 1)
            out.append(tuple(e))
    if nvars == 1:
        out = [(t,) for t in range(degree)]
    return out


def _codim_at(gens, degree):
    """dim of K[x]/(<gens> + m^degree), with a local sparse row reduction."""
    field = gens[0].field
    nvars = gens[0].nvars
    monomials = _monomials_below(nvars, degree)
    pivots = {}  # leading exponent -> reduced row dict
    rank = 0
    for f in gens:
        ordf = f.min_degree()
        if ordf < 0:
            continue
        for gamma in _monomials_below(nvars, max(degree - ordf, 0)):
            row = {}
            for e, c in f.coeffs.items():
                shifted = exp_add(e, gamma)
                if sum(shifted) < degree:
                    row[shifted] = c
            # reduce against existing pivots (largest exponent first)
            while row:
                lead = max(row, key=lambda e: (sum(e), e))
                piv = pivots.get(lead)
                if piv is None:
                    inv = field.one() / row[lead]
                    row = {e: c * inv for e, c in row.items()}
                    pivots[lead] = row
                    rank += 1
                    break
                factor = row[lead]
                for e, c in piv.items():
                    s = row.get(e, field.zero()) - factor * c
                    if s:
                        row[e] = s
                    else:
                        row.pop(e, None)
    return len(monomials) - rank


def vector_space_length(gens, max_degree=24):
    """Colength of the ideal generated by polynomial gens, by truncation.

    Computes dim K[x]/(<gens> + m^D) for growing D until two consecutive
    values agree; raises NotStabilized past max_degree.
    """
    if not gens:
        raise ValueError("empty generator list")
    prev = None
    for degree in range(1, max_degree + 1):
        dim = _codim_at(gens, degree)
        if prev is not None and prev == dim:
            return dim
        prev = dim
    raise NotStabilized(max_degree)
