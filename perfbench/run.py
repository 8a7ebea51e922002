"""hsmult benchmark: one seeded workload in one process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A request is `hsmult.cli.run_command` on an
instance parsed from generated JSON text: one CLI command without process
start and printing.  The loop sends the workload's requests in order, pass
after pass, each after the previous answer, and stops at the end of the pass
during which S seconds of request time have passed.  Every pass starts from
a fresh session: the multiplicity cache is cleared and the instances are
parsed again (outside the clock), so every pass does the same work and a run
measures whole passes only.  Answers are checked against independent references
after the clock stops (see references.py).

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced run (see tracing.py) and the tracing overhead.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 unless an answer was wrong or the
program could not be run.

Other modes: --emit-requests prints the generated requests as JSON lines;
--requests-out FILE writes one JSON line per request sent (its properties,
verdict and seconds); --spans-out FILE writes the traced spans.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES = 9
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The tail percentile is the highest one that leaves ten samples beyond it
# in a run of this many passes.  Fixing it by the pool size keeps it the
# same percentile when a faster or slower program fits more or fewer passes
# into the run.
TAIL_PASSES = 2


def _import_program():
    """Import hsmult from this checkout's src/, or exit without a result."""
    if not (SRC / "hsmult" / "__init__.py").is_file():
        print(f"error: no hsmult package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import hsmult

    if Path(hsmult.__file__).resolve().parent != (SRC / "hsmult").resolve():
        print(f"error: imported hsmult from {hsmult.__file__}", file=sys.stderr)
        sys.exit(2)
    return hsmult


def _parse_all(requests):
    from hsmult.instance import parse_instance

    return [parse_instance(r.text) for r in requests]


def _setup_probe(workload, seed):
    """Child side of the set-up measurement: import, generate, parse."""
    _import_program()
    from workloads import generate

    _parse_all(generate(workload, seed))


class SetupProbes:
    """Wall times of fresh interpreters that import, generate and parse.

    The first probe, made on construction, warms the file cache and the
    bytecode cache and is not kept.  The run takes one probe after each pass
    and the rest at its end, so the probes sample the host over the whole
    run, as the requests do, and not only over the seconds before it.
    """

    def __init__(self, workload, seed):
        self.cmd = [
            sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed),
        ]
        self.times = []
        self._probe()
        self.times.clear()

    def _probe(self):
        # With a timeout and no pipe, subprocess polls for the child's exit
        # in sleeps of up to 50 ms, which rounds the time up to that step.
        # Waiting for end of file on the child's stdout returns at its exit.
        start = time.perf_counter()
        subprocess.run(self.cmd, check=True, cwd=ROOT, timeout=120, stdout=subprocess.PIPE)
        self.times.append(time.perf_counter() - start)

    def take(self):
        if len(self.times) < SETUP_PROBES:
            self._probe()

    def median(self):
        while len(self.times) < SETUP_PROBES:
            self._probe()
        return statistics.median(self.times)


class Session:
    """The closed loop: one client sending the workload's requests in passes."""

    def __init__(self, requests, parsed):
        self.requests = requests
        self.parsed = parsed
        self.records = []  # (request, pass index, seconds, outcome)
        self.failed = 0
        self.stats = {}
        self.passes = 0

    def run(self, seconds, send, on_pass_end=None):
        """Send whole passes until `seconds` of request time; returns the busy time.

        At least one pass is sent; on_pass_end is called after every pass.
        """
        from hsmult.errors import SearchExhausted
        from hsmult.reduction import clear_multiplicity_cache

        from references import EXHAUSTED

        busy = 0.0
        while True:
            if self.passes:
                self.parsed = _parse_all(self.requests)
            clear_multiplicity_cache()
            self.passes += 1
            for req, (inst, options) in zip(self.requests, self.parsed):
                start = time.perf_counter()
                try:
                    outcome, stats = send(req, inst, options)
                except SearchExhausted:
                    outcome, stats = EXHAUSTED, None
                except Exception as err:  # a failed request; the loop goes on
                    outcome, stats = err, None
                    if not self.failed:
                        traceback.print_exc(file=sys.stderr)
                elapsed = time.perf_counter() - start
                busy += elapsed
                if isinstance(outcome, Exception):
                    self.failed += 1
                if stats is not None:
                    for key, value in stats.as_dict().items():
                        self.stats[key] = self.stats.get(key, 0) + value
                self.records.append((req, self.passes, elapsed, outcome))
            if on_pass_end is not None:
                on_pass_end()
            if busy >= seconds:
                return busy


def _send_plain(req, inst, options):
    from hsmult.cli import run_command

    return run_command(req.command, inst, options, req.expr)


def _tail(times, pool):
    """(percentile, value, samples beyond) for a run over a pool of `pool` requests.

    The percentile is the highest ladder rung that leaves at least ten of
    TAIL_PASSES * pool samples beyond it; its value is the nearest-rank
    percentile of the samples the run has.
    """
    expected = TAIL_PASSES * pool
    p = next(
        (p for p in TAIL_LADDER if expected - math.ceil(expected * p / 100) >= 10),
        TAIL_LADDER[-1],
    )
    ordered = sorted(times)
    rank = max(1, math.ceil(len(ordered) * p / 100))
    return p, ordered[rank - 1], len(ordered) - rank


def _check(records, book):
    """Number of wrong answers; prints the first few."""
    wrong = 0
    for req, _, _, outcome in records:
        if isinstance(outcome, Exception):
            continue
        ok, detail = book.check(req, outcome)
        if not ok:
            wrong += 1
            if wrong <= 5:
                print(f"wrong answer: request {req.rid} ({req.props['kind']}): {detail}")
    return wrong


def _write_requests(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for req, pass_index, seconds, outcome in records:
            if isinstance(outcome, Exception):
                verdict = f"failed: {type(outcome).__name__}"
            elif isinstance(outcome, str):
                verdict = outcome
            else:
                verdict = {k: outcome[k] for k in ("e", "length", "member") if k in outcome}
            line = {"rid": req.rid, "pass": pass_index, "seconds": seconds,
                    "verdict": verdict, **req.props}
            fh.write(json.dumps(line, sort_keys=True) + "\n")


def _end_to_end(args, requests, parsed):
    probes = SetupProbes(args.workload, args.seed)
    session = Session(requests, parsed)
    busy = session.run(args.seconds, _send_plain, on_pass_end=probes.take)
    setup_s = probes.median()
    times = [sec for _, _, sec, outcome in session.records if not isinstance(outcome, Exception)]
    attempted = len(session.records)
    completed = len(times)
    from references import ReferenceBook

    wrong = _check(session.records, ReferenceBook())
    if args.requests_out:
        _write_requests(args.requests_out, session.records)
    pct, tail, beyond = _tail(times, len(requests)) if times else (50.0, float("nan"), 0)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "solve_p50_s": (statistics.median(times) if times else float("nan"), "s"),
        "solve_tail_s": (tail, "s"),
        "throughput_rps": (completed / busy, "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"solve_tail_s is p{pct:g}: {beyond} of {completed} samples beyond it")
    print(f"failed_frac = {session.failed / attempted:.6g} ({session.failed} of {attempted} attempted)")
    print(f"wrong_answers = {wrong}")
    print(f"passes = {session.passes}, request seconds = {busy:.3f}")
    return wrong, attempted, session.failed, metrics


def _exact_counts(tracer, stats):
    """Work counts that repeat exactly for a seed: the basis for count-based claims."""
    return {
        "matlis.steps": tracer.calls["matlis.step"],
        "matlis.build_matrix.cells": tracer.counts["matlis.build_matrix.cells"],
        "linalg.kernel_ff.calls": tracer.calls["linalg.kernel_ff"],
        "linalg.kernel_base.calls": tracer.calls["linalg.kernel_base"],
        "reduction.certify.calls": tracer.calls["reduction.certify"],
        "dual.act.calls": tracer.counts["dual.act.calls"],
        "scalars.pp_gcd.calls": tracer.counts["scalars.pp_gcd.calls"],
        **{f"modp.{key}": value for key, value in stats.items()},
    }


def _per_layer(args, requests, parsed, parse_seconds):
    from tracing import Tracer

    # one pass first, so that both timed phases run warm
    warm = Session(requests, parsed)
    warm.run(0, _send_plain)
    plain = Session(requests, _parse_all(requests))
    plain_busy = plain.run(args.seconds / 2, _send_plain)
    plain_rps = len(plain.records) / plain_busy

    tracer = Tracer()
    from hsmult import cli

    def send(req, inst, options):
        return tracer.request(req.rid, cli.run_command, req.command, inst, options, req.expr)

    traced = Session(requests, _parse_all(requests))
    first_pass = {}

    def snapshot():
        if not first_pass:
            first_pass.update(_exact_counts(tracer, traced.stats))

    tracer.install()
    try:
        traced_busy = traced.run(args.seconds / 2, send, on_pass_end=snapshot)
    finally:
        tracer.uninstall()
    traced_rps = len(traced.records) / traced_busy

    from references import ReferenceBook

    sessions = (warm, plain, traced)
    wrong = _check([r for s in sessions for r in s.records], ReferenceBook())
    failed = sum(s.failed for s in sessions)
    attempted = sum(len(s.records) for s in sessions)
    if args.spans_out:
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    passes = traced.passes
    calls, counts, selft = tracer.calls, tracer.counts, tracer.self_time

    def per_pass(value):
        return value / passes

    stats = traced.stats
    dispatched_modp = stats.get("dispatched", 0) - stats.get("direct", 0)
    useful = stats.get("trivial_by_modp", 0) + stats.get("accepted_by_support", 0)
    steps = calls["matlis.step"]
    mult_calls = calls["reduction.multiplicity"]
    certify_calls = calls["reduction.certify"]
    layers = tracer.layer_self_seconds()
    request_seconds = sum(layers.values())
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("reduction.cache_hit_ratio", counts["reduction.cache_hits"] / mult_calls if mult_calls else 0.0, "ratio")
    for name in ("reduction.generic_generators", "reduction.find_reduction", "reduction.certify"):
        put(f"{name}.self_s", per_pass(selft[name]), "s")
    put("reduction.certify.calls", per_pass(certify_calls), "count")
    put("reduction.certify.useful_ratio",
        tracer.distinct_certify_points() / certify_calls if certify_calls else 0.0, "ratio")
    put("matlis.steps", per_pass(steps), "count")
    put("matlis.accept_ratio", counts["matlis.accepted"] / steps if steps else 0.0, "ratio")
    for name in ("matlis.step", "matlis.build_matrix", "matlis.canonical_cleared_matrix"):
        put(f"{name}.self_s", per_pass(selft[name]), "s")
    put("matlis.build_matrix.cells", per_pass(counts["matlis.build_matrix.cells"]), "count")
    for name in ("dual.gamma_candidates", "dual.socle_candidates", "dual.initial_staircase"):
        put(f"{name}.self_s", per_pass(selft[name]), "s")
    put("dual.gamma_candidates.terms", per_pass(counts["dual.gamma_candidates.terms"]), "count")
    put("dual.act.calls", per_pass(counts["dual.act.calls"]), "count")
    for name in ("linalg.kernel_ff", "linalg.kernel_base", "linalg.nonsingular_at"):
        put(f"{name}.calls", per_pass(calls[name]), "count")
        put(f"{name}.self_s", per_pass(selft[name]), "s")
    for key in ("dispatched", "direct", "trivial_by_modp", "accepted_by_support", "retries", "fallbacks"):
        put(f"modp.{key}", per_pass(stats.get(key, 0)), "count")
    put("modp.useful_ratio", useful / dispatched_modp if dispatched_modp else 0.0, "ratio")
    for name in ("modp.kernel_via_modp", "modp.specialize"):
        put(f"{name}.self_s", per_pass(selft[name]), "s")
    put("scalars.pp_gcd.calls", per_pass(counts["scalars.pp_gcd.calls"]), "count")
    put("scalars.pp_gcd.s", per_pass(tracer.gcd_seconds), "s")
    put("scalars.pp_mul.calls", per_pass(counts["scalars.pp_mul.calls"]), "count")
    put("scalars.rational_function.created", per_pass(counts["scalars.rational_function.created"]), "count")
    put("series.truncate.calls", per_pass(calls["series.truncate"]), "count")
    put("series.truncate.self_s", per_pass(selft["series.truncate"]), "s")
    put("instance.parse_instance.s", parse_seconds, "s")
    for layer, seconds in layers.items():
        put(f"layer.{layer}.self_share", seconds / request_seconds if request_seconds else 0.0, "ratio")
    put("trace.overhead_ratio", traced_rps / plain_rps, "ratio")
    for name, (value, unit) in m.items():
        print(f"{name} = {value:.6g} {unit}")
    print("exact_counts = " + json.dumps(first_pass, sort_keys=True))
    print(f"traced passes = {passes}, spans kept = {len(tracer.spans)}, wrong_answers = {wrong}")
    return wrong, attempted, failed, m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--emit-requests", action="store_true")
    parser.add_argument("--requests-out")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    _import_program()
    from workloads import WORKLOADS, generate

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    requests = generate(args.workload, args.seed)
    if args.emit_requests:
        for req in requests:
            print(req.to_json())
        return 0
    start = time.perf_counter()
    parsed = _parse_all(requests)
    parse_seconds = time.perf_counter() - start

    if args.trace:
        wrong, attempted, failed, metrics = _per_layer(args, requests, parsed, parse_seconds)
    else:
        wrong, attempted, failed, metrics = _end_to_end(args, requests, parsed)
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
