"""The benchmark's tracer must still find every function it wraps.

``perfbench/tracing.py`` patches engine functions by name; a refactor that
renames or removes one fails here, not only in a traced benchmark run.
"""

from pathlib import Path

import pytest

import hsmult.linalg
from hsmult.cli import run_command
from tests.conftest import FIXTURES, load_instance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    original = hsmult.linalg.kernel
    tracer = Tracer()
    tracer.install()
    try:
        assert hsmult.linalg.kernel is not original
        inst, options = load_instance("example1.json")
        run_command("mult", inst, options)
    finally:
        tracer.uninstall()
    assert hsmult.linalg.kernel is original
    assert tracer.calls["linalg.kernel_ff"] > 0
    assert tracer.calls["matlis.canonical_cleared_matrix"] > 0
    # the work of one example1 run: 4 steps over 8 colon candidates; the
    # matrices are the 3 rejected steps' and the accepted step's support
    # matrix, whose support is its whole gamma, so the cells are as many as
    # when every step built its matrix
    assert tracer.calls["matlis.step"] == 4
    assert tracer.counts["dual.gamma_candidates.terms"] == 8
    assert tracer.counts["matlis.build_matrix.cells"] == 47


def test_reduce_example1_keeps_its_decisions(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        inst, options = load_instance("example1.json")
        _, stats = run_command("reduce", inst, options)
    finally:
        tracer.uninstall()
    # certify calls as recorded when the mod-p image and the MatList matrices
    # were still built from scalar objects; every matrix over K(t) is decided
    # through its image
    assert tracer.calls["reduction.certify"] == 5
    # condition (b) is decided on the last MatList matrix alone, one call per
    # certify call that passes the PolyList; checking every matrix made 6
    assert tracer.calls["linalg.nonsingular_at"] == 2
    assert stats.as_dict() == {
        "dispatched": 4,
        "direct": 0,
        "trivial_by_modp": 3,
        "accepted_by_support": 1,
        "retries": 0,
        "fallbacks": 0,
    }
    # that build created 63 rational functions per run
    assert tracer.counts["scalars.rational_function.created"] < 63
    # the MatList is made canonical once, when certify first reads it
    assert tracer.calls["matlis.canonical_cleared_matrix"] == 3


def test_member_never_canonicalizes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        inst, options = load_instance("example3.json")
        result, _ = run_command("member", inst, options, "x")
    finally:
        tracer.uninstall()
    # membership compares multiplicities; nothing reads the MatList
    assert result["e"] == 10
    assert tracer.calls["matlis.step"] > 0
    assert tracer.calls["matlis.canonical_cleared_matrix"] == 0


def test_member_example3_x_is_decided_at_a_point(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        inst, options = load_instance("example3.json")
        result, _ = run_command("member", inst, options, "x")
    finally:
        tracer.uninstall()
    assert (result["member"], result["decided_by"], result["point_length"]) == (False, "point-length", 6)
    # one generic K(t) run, for J alone (6 steps, each decided through its
    # image; the 2 accepted ones make the only exact kernels over K(t));
    # J + (x) is not run over K(t).  m > d, so the first query also runs
    # J + I over the base field for its inverse system (4 steps), and x is
    # not in it; then x costs one point run of 3 steps, on the residues mod
    # 2^31 - 1.
    # Base-field steps solve from their run's span of candidate columns, so
    # those 4 + 3 steps call no kernel and build no matrix
    assert tracer.calls["reduction.multiplicity"] == 1
    assert tracer.calls["matlis.compute_dual_basis"] == 3
    assert tracer.calls["linalg.kernel_ff"] == 2
    assert tracer.calls["matlis.step"] == 6 + 4 + 3
    assert tracer.calls["linalg.kernel_base"] == 0
    assert tracer.calls["matlis.build_matrix"] == 6


def test_member_gf32003_images_stay_off_kernel(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        inst, options = load_instance("example1_gf32003.json")
        result, _ = run_command("member", inst, options, "x")
    finally:
        tracer.uninstall()
    assert (result["member"], result["decided_by"]) == (False, "point-length")
    # only exact solves count as kernels; the base-field steps, the run of
    # J + I (3) and the point run (2), solve from their run's span of
    # candidate columns and call no kernel; the K(t) run of J makes the
    # other 4 steps, each decided on its run's span at the point, and its
    # one accepted step makes the one exact kernel.  None goes to
    # modp.kernel_via_modp: all 4 did (4 calls) while every K(t) step
    # specialized its whole matrix
    assert tracer.calls["modp.kernel_via_modp"] == 0
    assert tracer.calls["linalg.kernel_ff"] == 1
    assert tracer.calls["linalg.kernel_base"] == 0
    assert tracer.calls["matlis.step"] == 4 + 3 + 2


def test_member_in_j_makes_no_point_run_and_no_k_t_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        inst, options = load_instance("series_geometric.json")
        result, _ = run_command("member", inst, options, "y")
    finally:
        tracer.uninstall()
    assert (result["member"], result["decided_by"]) == (True, "in-ideal")
    # m == d: the one run is that of J over the base field (2 steps), and its
    # dual basis decides y; no point run and no run of J + (y) over K(t)
    assert tracer.calls["reduction.multiplicity"] == 1
    assert tracer.calls["matlis.compute_dual_basis"] == 1
    assert tracer.calls["matlis.step"] == 2
    assert tracer.calls["linalg.kernel_ff"] == 0


# linalg.nonsingular_at calls now that condition (b) is decided on the last
# MatList matrix alone: one per certify call that passes the PolyList
LAST_MATRIX_CHECKS = {
    "example1.json": 2,
    "params_gf2.json": 1,
    "params_gf3.json": 1,
    "example2_rational.json": 1,
    "example4.json": 1,
}


@pytest.mark.parametrize(
    "name, at_point, nonsingular, certify, points",
    [
        ("example1.json", 4, 6, 5, 5),
        ("params_gf2.json", 7, 4, 7, 7),
        ("params_gf3.json", 11, 5, 2, 2),
        ("example2_rational.json", 7, 3, 2, 2),
        ("example4.json", 12, 6, 4, 4),
    ],
)
def test_reduce_keeps_its_point_evaluations(monkeypatch, name, at_point, nonsingular, certify, points):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        inst, options = load_instance(name)
        _, stats = run_command("reduce", inst, options)
    finally:
        tracer.uninstall()
    # MatList checks and certify calls as recorded while each had an
    # evaluator of its own; the tracer tells them apart by name, so
    # modp.specialize must stay a function of its own.  Every K(t) step is
    # decided at the point, over GF(2) and GF(3) one in GF(2^13) and GF(3^8),
    # on its run's span of column images, so no step specializes a matrix:
    # modp.specialize made one call per step (at_point: 4, 7, 11, 7 and 12)
    # while every step specialized its whole matrix.  Over GF(p) each
    # residue point is certified once, so certify calls equal distinct
    # points (params_gf2 made 13 calls for its 7 before).  nonsingular is
    # the nonsingular_at count while certify checked every MatList matrix
    assert stats.trivial_by_modp + stats.accepted_by_support == at_point
    assert tracer.calls["modp.specialize"] == 0
    assert tracer.calls["linalg.nonsingular_at"] == LAST_MATRIX_CHECKS[name] <= nonsingular
    assert tracer.calls["reduction.certify"] == certify
    assert tracer.distinct_certify_points() == points


@pytest.mark.parametrize("name, gcds", [("params_gf2.json", 27), ("example4.json", 163)])
def test_reduce_gcd_work(monkeypatch, name, gcds):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        inst, options = load_instance(name)
        run_command("reduce", inst, options)
    finally:
        tracer.uninstall()
    # every pp_gcd call, nested ones included; a single-term argument returns
    # at once (the full recursion made 547 and 488 calls).  params_gf2 made
    # 220 while its points were drawn from GF(2), when two matrices fell back
    # to the exact kernel.  example4 made 164 while the support solve kept
    # every row of the step's matrix: the support matrix keeps only the rows
    # that meet the support, each cleared by the lcm of its own cells.  They
    # made 43 and 172 while RationalFunction.__init__ reduced every fraction
    # by a pp_gcd of its numerator and denominator; scalars of the parameter
    # ring have int denominators, reduced by an integer gcd
    assert tracer.counts["scalars.pp_gcd.calls"] == gcds


@pytest.mark.parametrize("name, kernels", [("params_gf2.json", 3), ("params_gf3.json", 6)])
def test_small_characteristic_points_decide_every_matrix(monkeypatch, name, kernels):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        inst, options = load_instance(name)
        _, stats = run_command("reduce", inst, options)
    finally:
        tracer.uninstall()
    # a point of GF(2^13) or GF(3^8) decides every matrix at the first try,
    # so the exact kernels are the accepted steps' restricted solves;
    # points of GF(p) took 4 and 6 retries and 2 exact fallbacks each, and
    # 9 and 14 exact kernels
    assert (stats.retries, stats.fallbacks) == (0, 0)
    assert tracer.calls["linalg.kernel_ff"] == kernels


@pytest.mark.parametrize("command", ["mult", "reduce"])
@pytest.mark.parametrize(
    "name", sorted(p.name for p in FIXTURES.iterdir() if p.is_file())
)
def test_every_step_takes_one_route(monkeypatch, command, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        inst, options = load_instance(name)
        _, stats = run_command(command, inst, options)
    finally:
        tracer.uninstall()
    # each step ends on exactly one path, and the exact kernels over K(t)
    # are the accepted steps' restricted solves and the fallbacks, no more
    assert stats.dispatched == (
        stats.direct + stats.trivial_by_modp + stats.accepted_by_support + stats.fallbacks
    )
    assert tracer.calls["linalg.kernel_ff"] == stats.accepted_by_support + stats.fallbacks


TRACED_ON_THE_PATH = (
    "dual.initial_staircase",
    "dual.socle_candidates",
    "dual.gamma_candidates",
    "matlis.compute_dual_basis",
    "matlis.step",
    "matlis.build_matrix",
)


def test_traced_names_stay_on_the_engine_path(monkeypatch):
    """A base-field run and a K(t) run call the traced staircase and loop
    functions, so a refactor that routes the engine around one of them fails
    here, not only in a traced benchmark that reads 0 for it.  Base-field
    steps solve on their run's span and build no matrix."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        inst, options = load_instance("example1_gf32003.json")
        run_command("length", inst, options)
        base = {n: tracer.calls[n] for n in TRACED_ON_THE_PATH}
        inst, options = load_instance("example1.json")
        run_command("mult", inst, options)
    finally:
        tracer.uninstall()
    parameter = {n: tracer.calls[n] - base[n] for n in TRACED_ON_THE_PATH}
    assert base.pop("matlis.build_matrix") == 0
    assert min(base.values()) > 0, base
    assert min(parameter.values()) > 0, parameter
