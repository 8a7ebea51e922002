import itertools
import random
import tracemalloc

import pytest

from hsmult import QQ, NotStabilized, SparsePoly
from hsmult.oracles import (
    INFINITE,
    _count_standard,
    monomial_length,
    monomial_multiplicity_fit,
    monomial_power_length,
    vector_space_length,
)


def test_monomial_length_spec_examples():
    assert monomial_length([(3, 0), (0, 2), (1, 1)]) == 4
    assert monomial_length([(2, 0), (0, 2)]) == 4
    assert monomial_length([(1, 0)]) is INFINITE


def test_monomial_length_edge_cases():
    assert monomial_length([(1, 0), (0, 1)]) == 1
    assert monomial_length([(0, 0)]) == 0
    with pytest.raises(ValueError):
        monomial_length([])


def test_monomial_power_length_closed_form():
    # m^2 in two variables: colength of m^(2k) is k(2k+1)
    m2 = [(2, 0), (1, 1), (0, 2)]
    for k in range(1, 6):
        assert monomial_power_length(m2, k) == k * (2 * k + 1)


def test_monomial_multiplicity_fit_spec_examples():
    assert monomial_multiplicity_fit([(2, 0), (1, 1), (0, 2)], 2) == 4
    assert monomial_multiplicity_fit([(2, 0, 0), (1, 1, 1), (0, 3, 0), (0, 0, 4)], 3) == 24
    assert monomial_multiplicity_fit([(1, 0), (0, 1)], 2) == 1


def test_monomial_multiplicity_fit_not_stabilized():
    with pytest.raises(NotStabilized):
        monomial_multiplicity_fit([(2, 0), (1, 1), (0, 2)], 2, k_max=2)
    with pytest.raises(ValueError):
        monomial_multiplicity_fit([(1, 0)], 1)


def test_vector_space_length_spec_examples(P):
    g1 = P(QQ, 2, {(3, 0): 1, (1, 1): 1})
    g2 = P(QQ, 2, {(0, 2): 1})
    # the spec sheet's expected 5 is a typo: 6 is the oracle's own stable
    # value, confirmed by the engine and by hand (x^4 survives in S/<F>)
    assert vector_space_length([g1, g2]) == 6
    g2b = P(QQ, 2, {(0, 2): 1, (1, 1): 1})
    assert vector_space_length([g1, g2b]) == 5
    assert vector_space_length([P(QQ, 2, {(1, 0): 1}), P(QQ, 2, {(0, 1): 1})]) == 1
    spec3 = [
        P(QQ, 3, {(2, 0, 0): 1, (0, 3, 0): 1, (0, 0, 4): 1}),
        P(QQ, 3, {(2, 0, 0): 1, (0, 0, 2): 1}),
        P(QQ, 3, {(1, 1, 0): 1}),
    ]
    assert vector_space_length(spec3) == 10


def test_vector_space_length_not_stabilized(P):
    with pytest.raises(NotStabilized):
        vector_space_length([P(QQ, 2, {(9, 0): 1}), P(QQ, 2, {(0, 9): 1})], max_degree=5)
    with pytest.raises(ValueError):
        vector_space_length([])


def test_vector_space_length_monomial_cross_check(P):
    gens = [(3, 0), (0, 2), (1, 1)]
    polys = [SparsePoly.monomial(QQ, g) for g in gens]
    assert vector_space_length(polys) == monomial_length(gens) == 4


def _full_box_length(gens):
    """Colength of a monomial ideal by the sieve over the whole pure-power
    box, every point's verdict kept: the reference for the layered sieve."""
    nvars = len(gens[0])
    bounds = []
    for i in range(nvars):
        pure = [g[i] for g in gens if g[i] and sum(g) == g[i]]
        if not pure:
            return INFINITE
        bounds.append(min(pure))
    in_ideal = {}
    count = 0
    for alpha in itertools.product(*(range(b) for b in bounds)):
        hit = alpha in gens or any(
            alpha[i] and in_ideal[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]]
            for i in range(nvars)
        )
        in_ideal[alpha] = hit
        count += not hit
    return count


def _random_monomial_ideal(rng, nvars):
    gens = set()
    for i in range(nvars):
        if rng.random() < 0.85:  # else that pure power is missing
            gens.add(tuple(rng.randint(1, 5) if j == i else 0 for j in range(nvars)))
    for _ in range(rng.randint(0, 4)):
        gens.add(tuple(rng.choice([0, 0, 1, 2, 3]) for _ in range(nvars)))
    if rng.random() < 0.03:
        gens.add((0,) * nvars)
    return sorted(gens) or [(1,) * nvars]


def test_layered_sieve_matches_the_full_box():
    rng = random.Random(47)
    kinds = set()
    for n in range(200):
        nvars = 1 + n % 4
        gens = _random_monomial_ideal(rng, nvars)
        expected = 0 if (0,) * nvars in gens else _full_box_length(gens)
        assert monomial_length(gens) == expected, gens
        kinds.add("infinite" if expected is INFINITE else "zero" if expected == 0 else "finite")
        if expected is not INFINITE and expected and sum(map(sum, gens)) < 12:
            square = sorted({tuple(a + b for a, b in zip(g, h)) for g in gens for h in gens})
            assert monomial_power_length(gens, 2) == _full_box_length(square), gens
    assert kinds == {"infinite", "zero", "finite"}


def test_layered_sieve_edge_cases():
    assert _count_standard([(2,)], [2]) == 2
    assert _count_standard([(0, 0)], [1, 1]) == 0
    # generators below the box and non-minimal ones
    gens = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 1, 1)]
    assert _count_standard(gens, [2, 2, 2]) == _full_box_length(gens) == 6
    assert monomial_length([(2, 0), (1, 1)]) is INFINITE
    assert monomial_power_length([(2, 0), (1, 1)], 2) is INFINITE


def test_multiplicity_fit_memory_is_one_layer():
    tracemalloc.start()
    try:
        assert monomial_multiplicity_fit([(3, 0, 0), (0, 3, 0), (0, 0, 4)], 3) == 36
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 10th power's box has 30 x 30 x 40 points; a full-box sieve peaks
    # near 3.6 MB, two 30 x 40 layers near 0.25 MB
    assert peak < 0.5e6
