"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import run
from polyutil import parse_param_poly
from references import EXHAUSTED, ReferenceBook
from workloads import WORKLOADS, Request, generate

run._import_program()

FIXTURES = run.ROOT / "tests" / "fixtures"


def _emit(workload, seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--emit-requests",
           "--workload", workload, "--seed", str(seed)]
    return subprocess.run(cmd, cwd=run.ROOT, env=env, capture_output=True, check=True).stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_requests(workload):
    first = _emit(workload, 7, 0)
    assert first
    assert _emit(workload, 7, 12345) == first
    in_process = "".join(r.to_json() + "\n" for r in generate(workload, 7)).encode()
    assert in_process == first


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeds_change_the_inputs_not_the_shapes(workload):
    a, b = generate(workload, 1), generate(workload, 2)
    assert [r.text for r in a] != [r.text for r in b]
    kinds = lambda reqs: sorted((r.props["kind"], r.props["m"], r.props["characteristic"]) for r in reqs)
    assert kinds(a) == kinds(b)


def test_requests_carry_their_properties():
    for workload in WORKLOADS:
        for req in generate(workload, 3):
            props = req.props
            assert props["params"] == props["d"] * (props["m"] - props["d"])
            assert set(props) >= {"nvars", "d", "m", "params", "characteristic", "kind", "quotient", "ref_e"}


def test_member_workload_is_balanced():
    verdicts = [r.ref["member"] for r in generate("closure-member", 5)]
    assert 2 * sum(verdicts) == len(verdicts)


def _fixture_request(name, rid):
    text = (FIXTURES / name).read_text()
    mapping = json.loads(text)
    names = mapping["variables"]
    gens = [parse_param_poly(g.replace(" ", ""), names) for g in mapping["ideal"]]
    quotient = [parse_param_poly(f.replace(" ", ""), names) for f in mapping.get("quotient_ideal", [])]
    jsonable = lambda p: [[list(e), c] for e, c in sorted(p.items())]
    ref = {"gens": [jsonable(g) for g in gens], "quotient": [jsonable(f) for f in quotient]}
    if all(len(g) == 1 for g in gens) and not quotient:
        ref["monomial_exponents"] = [list(next(iter(g))) for g in gens]
    props = {"nvars": len(names), "d": mapping["dim"], "m": len(gens),
             "characteristic": mapping.get("characteristic", 0), "kind": name}
    return Request(rid, "reduce", text, None, props, ref)


@pytest.mark.parametrize(
    "name, e",
    [("example1.json", 5), ("example2.json", 18), ("example3.json", 10), ("example4.json", 24)],
)
def test_fixture_smoke(name, e):
    """The loop and the references on the repository's own fixtures."""
    req = _fixture_request(name, 0)
    session = run.Session([req], run._parse_all([req]))
    session.run(0, run._send_plain)
    (_, _, _, outcome), = session.records
    assert session.failed == 0 and outcome != EXHAUSTED
    assert outcome["e"] == e
    assert ReferenceBook().check(req, outcome) == (True, "")


def test_reference_rejects_a_wrong_answer():
    req = _fixture_request("example1.json", 0)
    session = run.Session([req], run._parse_all([req]))
    session.run(0, run._send_plain)
    outcome = dict(session.records[0][3], e=6)
    ok, detail = ReferenceBook().check(req, outcome)
    assert not ok and "reference 5" in detail


def test_exact_counts_repeat_for_a_seed():
    def counts():
        cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "closure-member",
               "--seed", "4", "--seconds", "0.01", "--trace", "1"]
        out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True).stdout
        line = next(ln for ln in out.splitlines() if ln.startswith("exact_counts ="))
        return json.loads(line.split("=", 1)[1])

    first = counts()
    assert first["matlis.steps"] > 0
    assert counts() == first


def test_tail_percentile_depends_on_the_pool_only():
    # two passes of 60 requests: p90 leaves 12 of 120 beyond; p95 would leave 6
    times = [float(k) for k in range(1, 121)]
    assert run._tail(times, 60) == (90.0, 108.0, 12)
    # a run that fits three passes reports the same percentile
    pct, _, beyond = run._tail(times + times[:60], 60)
    assert (pct, beyond) == (90.0, 18)
    pct, _, _ = run._tail(times, 30)
    assert pct == 75.0
