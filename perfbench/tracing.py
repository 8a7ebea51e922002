"""Tracing from outside the program: spans and counters at layer boundaries.

`Tracer.install()` replaces public functions of the hsmult modules with
wrappers, in every module that bound the original object (``kernel`` is
bound in ``linalg``, ``matlis``, ``modp`` and the package, ``pp_gcd`` in
``scalars`` and ``linalg``, and so on), and `Tracer.uninstall()` puts the
originals back.  Layer functions record spans: name, start, end, parent and
request id, kept in memory until the run ends.  The hot scalar functions
record counts only (plus the time of outermost ``pp_gcd`` calls), because a
span per call would dominate what it measures.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, attribute, span name); kernel is split by field kind at call time
SPANS = (
    ("reduction", "multiplicity", "reduction.multiplicity"),
    ("reduction", "generic_generators", "reduction.generic_generators"),
    ("reduction", "find_reduction", "reduction.find_reduction"),
    ("reduction", "certify", "reduction.certify"),
    ("matlis", "compute_dual_basis", "matlis.compute_dual_basis"),
    ("matlis", "step", "matlis.step"),
    ("matlis", "build_matrix", "matlis.build_matrix"),
    ("matlis", "canonical_cleared_matrix", "matlis.canonical_cleared_matrix"),
    ("dual", "gamma_candidates", "dual.gamma_candidates"),
    ("dual", "socle_candidates", "dual.socle_candidates"),
    ("dual", "initial_staircase", "dual.initial_staircase"),
    ("linalg", "kernel", None),
    ("linalg", "nonsingular_at", "linalg.nonsingular_at"),
    ("modp", "kernel_via_modp", "modp.kernel_via_modp"),
    ("modp", "specialize", "modp.specialize"),
)

# series oracles truncate through methods, so the classes are wrapped
SERIES_CLASSES = ("PolySeries", "RationalSeries", "LinearCombination")

LAYERS = ("reduction", "matlis", "dual", "linalg", "modp", "series")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request id]
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.gcd_seconds = 0.0
        self._stack = []  # [span index, child time]
        self._gcd_depth = 0
        self._points = set()
        self._patches = []
        self.rid = None
        self._seq = 0  # one number per request sent, for per-request point sets

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.rid])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _close(self):
        index, child = self._stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        duration = span[2] - span[1]
        self.self_time[span[0]] += duration - child
        self.calls[span[0]] += 1
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def request(self, rid, fn, *args):
        """Run one request under a root span."""
        self.rid = rid
        self._seq += 1
        self._open("request")
        try:
            return fn(*args)
        finally:
            self._close()

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _kernel_wrapper(self, fn):
        from hsmult.scalars import FunctionField

        def wrapper(M, *args, **kwargs):
            ff = isinstance(M.field, FunctionField)
            self._open("linalg.kernel_ff" if ff else "linalg.kernel_base")
            try:
                return fn(M, *args, **kwargs)
            finally:
                self._close()

        return wrapper

    def _multiplicity_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            runs = self.calls["matlis.compute_dual_basis"]
            self._open("reduction.multiplicity")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
                if self.calls["matlis.compute_dual_basis"] == runs:
                    self.counts["reduction.cache_hits"] += 1

        return wrapper

    def _gcd_wrapper(self, fn):
        def wrapper(*args):
            self.counts["scalars.pp_gcd.calls"] += 1
            if self._gcd_depth:
                return fn(*args)
            self._gcd_depth = 1
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.gcd_seconds += time.perf_counter() - start
                self._gcd_depth = 0

        return wrapper

    def _count_wrapper(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_step(self, args, accepted):
        if accepted:
            self.counts["matlis.accepted"] += 1

    def _after_build(self, args, M):
        self.counts["matlis.build_matrix.cells"] += M.nrows * M.ncols

    def _after_gamma(self, args, cands):
        self.counts["dual.gamma_candidates.terms"] += len(cands)

    def _after_certify(self, args, _):
        a, res = args[0], args[1]
        point = tuple(
            tuple(res.base.from_int(v) if isinstance(v, int) else v for v in row) for row in a
        )
        self._points.add((self._seq, point))

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "hsmult" or name.startswith("hsmult.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def install(self):
        after = {
            "matlis.step": self._after_step,
            "matlis.build_matrix": self._after_build,
            "dual.gamma_candidates": self._after_gamma,
            "reduction.certify": self._after_certify,
        }
        for module_name, attr, name in SPANS:
            module = importlib.import_module(f"hsmult.{module_name}")
            original = getattr(module, attr)
            if attr == "kernel":
                wrapper = self._kernel_wrapper(original)
            elif attr == "multiplicity":
                wrapper = self._multiplicity_wrapper(original)
            else:
                wrapper = self._span_wrapper(name, original, after.get(name))
            self._replace_everywhere(original, wrapper)
        dual = importlib.import_module("hsmult.dual")
        self._replace_everywhere(dual.act, self._count_wrapper("dual.act.calls", dual.act))
        scalars = importlib.import_module("hsmult.scalars")
        self._replace_everywhere(scalars.pp_gcd, self._gcd_wrapper(scalars.pp_gcd))
        self._replace_everywhere(
            scalars.pp_mul, self._count_wrapper("scalars.pp_mul.calls", scalars.pp_mul)
        )
        rf = scalars.RationalFunction
        self._patch_attr(
            rf, "__init__", self._count_wrapper("scalars.rational_function.created", rf.__init__)
        )
        series = importlib.import_module("hsmult.series")
        for cls_name in SERIES_CLASSES:
            cls = getattr(series, cls_name)
            self._patch_attr(
                cls, "truncate", self._span_wrapper("series.truncate", cls.__dict__["truncate"])
            )

    def _patch_attr(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def layer_self_seconds(self):
        """Self time per layer; the request span's own self time is 'other'."""
        out = {layer: 0.0 for layer in LAYERS}
        out["other"] = 0.0
        for name, seconds in self.self_time.items():
            layer = name.split(".", 1)[0]
            out[layer if layer in out else "other"] += seconds
        return out

    def distinct_certify_points(self):
        return len(self._points)
