"""The benchmark's tracer must still find every function it wraps.

``perfbench/tracing.py`` patches engine functions by name; a refactor that
renames or removes one fails here, not only in a traced benchmark run.
"""

from pathlib import Path

import hsmult.linalg
from hsmult.cli import run_command
from tests.conftest import load_instance

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
    # the work of one example1 run: 4 steps over 8 colon candidates
    assert tracer.calls["matlis.step"] == 4
    assert tracer.counts["dual.gamma_candidates.terms"] == 8
    assert tracer.counts["matlis.build_matrix.cells"] == 47
