"""Acceptance criteria, one test per criterion, exact tolerances.

Run as `pytest tests/test_acceptance.py -v -s` for the per-criterion lines.
"""

import random
import time

from hsmult import (
    GF,
    QQ,
    MonomialOrder,
    ProblemInstance,
    SparsePoly,
    act,
    certify,
    compute_dual_basis,
    find_reduction,
    kernel,
    kernel_via_modp,
    leading,
    multiplicity,
    verify_reduction_by_length,
)
from hsmult.matlis import DEFAULT_CAPS, DualBasisState, step
from hsmult.oracles import INFINITE, monomial_length, monomial_multiplicity_fit
from hsmult.reduction import generic_generators
from tests.conftest import is_kernel_vector

GLEX = MonomialOrder("glex")


def _passed(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_example1(example1):
    started = time.perf_counter()
    res = multiplicity(example1, use_cache=False)
    elapsed = time.perf_counter() - started
    assert res.e == 5
    # accepted xi_1 is the paper's a/x^4y - 1/x^2y^2 + b/xy^3 as it is
    ff = res.field
    a, b = ff.param("t_1_3"), ff.param("t_2_3")
    assert res.xi_count == 1
    assert res.dual.elements[0].coeffs == {(3, 0): a, (1, 1): -ff.one(), (0, 2): b}
    # PolyList evaluation enforces a != 0
    assert res.polylist_strings() == ["t_1_3"]
    assert certify(((0,), (1,)), res) is False
    assert certify(((1,), (1,)), res) is True
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _passed(1, f"e=5, xi_1 matches, PolyList enforces a != 0 ({elapsed:.3f}s < 1s)")


def test_criterion_2_example2(example2):
    started = time.perf_counter()
    res = multiplicity(example2, use_cache=False)
    elapsed = time.perf_counter() - started
    assert res.e == 18
    assert res.t1_size == 14
    assert res.xi_count == 4
    assert elapsed < 10.0, f"took {elapsed:.3f}s"
    _passed(2, f"e=18 with T1 of size 14 and 4 accepted elements ({elapsed:.3f}s < 10s)")


def test_criterion_3_example3(example3):
    started = time.perf_counter()
    res1 = multiplicity(example3, use_cache=False)
    xz = SparsePoly.monomial(QQ, (1, 0, 1))
    res2 = multiplicity(example3.with_extra_generator(xz), use_cache=False)
    elapsed = time.perf_counter() - started
    assert (res1.e, res1.t1_size, res1.xi_count) == (10, 8, 2)
    assert (res2.e, res2.t1_size, res2.xi_count) == (10, 7, 3)
    assert res1.e == res2.e  # member xz -> true
    assert elapsed < 10.0, f"took {elapsed:.3f}s"
    _passed(3, f"e(J1)=10 (8+2), e(J1+<xz>)=10 (7+3), xz in the closure ({elapsed:.3f}s < 10s)")


def test_criterion_4_example4(example4, example4_perturbed):
    started = time.perf_counter()
    res = multiplicity(example4, use_cache=False)
    first = time.perf_counter() - started
    assert res.e == 24
    assert first < 30.0
    started = time.perf_counter()
    res_p = multiplicity(example4_perturbed, use_cache=False)
    second = time.perf_counter() - started
    assert second < 30.0
    assert res_p.e == 24
    assert res_p.polylist == res.polylist
    assert len(res_p.matlist) == len(res.matlist)
    for A, B in zip(res.matlist, res_p.matlist):
        assert A.grid == B.grid and A.ncols == B.ncols
    _passed(4, f"e=24, perturbed run identical e/PolyList/MatList ({first:.3f}s, {second:.3f}s < 30s)")


def test_criterion_5_oracle_equivalence():
    rng = random.Random(20240811)
    length_checked = 0
    fit_checked = 0
    trials = 0
    while (length_checked < 100 or fit_checked < 20) and trials < 2000:
        trials += 1
        n = rng.choice([1, 2, 2, 3, 3])
        gens = {
            tuple(b if i == j else 0 for j in range(n))
            for i, b in enumerate(rng.randint(1, 5) for _ in range(n))
        }
        for _ in range(rng.randint(0, 3)):
            gens.add(tuple(rng.randint(0, 4) for _ in range(n)))
        gens = {g for g in gens if any(g)}
        expected = monomial_length(gens)
        if expected is INFINITE or expected > 40 or expected == 0:
            continue
        polys = [SparsePoly.monomial(QQ, g) for g in sorted(gens)]
        got = compute_dual_basis(polys, GLEX).length
        assert got == expected, (sorted(gens), got, expected)
        length_checked += 1
        if fit_checked < 20:
            try:
                e_fit = monomial_multiplicity_fit(sorted(gens), n)
            except Exception:
                continue
            if e_fit > 30:
                continue
            inst = ProblemInstance(
                base=QQ,
                nvars=n,
                var_names=tuple(f"x{i}" for i in range(n)),
                i_gens=(),
                j_gens=tuple(polys),
                d=n,
                order=GLEX,
            )
            e = multiplicity(inst, use_cache=False).e
            assert e == e_fit, (sorted(gens), e, e_fit)
            fit_checked += 1
    assert length_checked >= 100 and fit_checked >= 20
    _passed(5, f"lengths agree on {length_checked} random ideals, multiplicities on {fit_checked}")


def test_criterion_6_specialization_coherence(
    example1, example2, example3, example4, example1_gf
):
    checked = []
    for name, inst in (
        ("ex1", example1),
        ("ex2", example2),
        ("ex3", example3),
        ("ex4", example4),
        ("ex1/F32003", example1_gf),
    ):
        res = multiplicity(inst, use_cache=False)
        cert = find_reduction(res)
        assert verify_reduction_by_length(inst, cert.a, res) is True, name
        checked.append(name)
    _passed(6, f"every find_reduction output re-verified by length on {checked}")


def test_criterion_7_modular_soundness(example1, example2, example3, example4):
    matrices = 0
    for inst in (example1, example2, example3, example4):
        res = multiplicity(inst, use_cache=False)
        for M in res.matlist:
            exact = kernel(M)
            assert kernel_via_modp(M) == exact
            nparams = len(M.field.params)
            bad = ((5, (0,) * nparams),)
            assert kernel_via_modp(M, bad) == exact
            matrices += 1
    assert matrices > 0
    _passed(7, f"modular and exact kernels identical on {matrices} MatList matrices, bad points recovered")


def test_criterion_8_invariant_suite(
    example1, example2, example3, example4, example1_gf
):
    runs = 0
    for inst in (example1, example2, example3, example4, example1_gf):
        gens, _ = generic_generators(inst)
        order = inst.order
        state = DualBasisState(gens, order, DEFAULT_CAPS)
        accepted_keys = []
        while not state.done():
            ltn_before = state.ltn
            if step(state):  # kernel() inside raises on nullity > 1
                xi = state.xis[-1]
                assert is_kernel_vector(xi, state.accepted_lts[-1]), "xi not primitive"
                for term in xi.terms():
                    assert not ltn_before.contains(state.terms.pack(term)), "reduced form violated"
                accepted_keys.append(order.key(leading(xi, order)[0]))
        assert accepted_keys == sorted(accepted_keys), "LT chain not increasing"
        assert len(set(accepted_keys)) == len(accepted_keys), "LT chain not strict"
        for f in gens:
            for eta in state.basis():
                assert not act(f, eta), "basis element not annihilated"
        runs += 1
    _passed(8, f"strict LT chain, reduced form, primitive xi's, annihilation, nullity <= 1 on {runs} fixture runs")


def test_criterion_9_finite_field(example1_gf):
    assert example1_gf.base == GF(32003)
    res = multiplicity(example1_gf, use_cache=False)
    assert res.e == 5
    cert = find_reduction(res)
    assert cert.mode == "symbolic"
    assert certify(cert.a, res) is True
    assert verify_reduction_by_length(example1_gf, cert.a, res) is True
    _passed(9, f"F_32003 run: e=5, certified reduction a={[[v.v for v in r] for r in cert.a]}")
