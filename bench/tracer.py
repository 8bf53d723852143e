"""Per-layer tracing of acsgeo from outside the package.

Layers are the ``acsgeo`` modules.  ``Tracer.install`` wraps the public
functions each layer metric needs and rebinds *every* binding of each
wrapped function across ``acsgeo.*``: ``from .x import y`` copies a
function into several module namespaces, and a binding left unwrapped
would hide its calls.  Function-local imports resolve at call time, so
they see the wrapped binding without extra work.

Timed wrappers record a span (name, start, end, parent) per call; spans of
one op share the op's root span and are kept in memory until the run ends.
The hottest leaves get call counters only.  A CPU-time sampler attributes
run time to the module of the innermost ``acsgeo`` frame, which gives
each layer's self-time share, including time in code the wrappers never
see (expression-tree evaluation and ``Dual`` arithmetic).
"""

from __future__ import annotations

import json
import os
import sys
import signal
import time
from collections import Counter, defaultdict

import acsgeo
from acsgeo.expressions import Dual

# (module, attribute) -> metric name; "Class.method" patches the class.
SPANS = {
    ("metric", "gamma_jet"): "metric.gamma_jet",
    ("metric", "field_first_derivatives"): "metric.field_first_derivatives",
    ("metric", "riemann"): "metric.riemann",
    ("metric", "nabla_g"): "metric.nabla_g",
    ("metric", "covariant_derivative_11"): "metric.covariant_derivative",
    ("metric", "covariant_derivative_vector"): "metric.covariant_derivative",
    ("manifold", "ChartManifold.frame_at"): "manifold.frame_at",
    ("contact", "validate_structure"): "contact.validate_structure",
    ("contact", "nabla0_phi"): "contact.nabla0_phi",
    ("statistical", "validate_statistical"): "statistical.validate",
    ("statistical", "validate_acs"): "statistical.validate",
    ("curvature", "statistical_curvature"): "curvature.statistical_curvature",
    ("curvature", "theorem_5_8_audit"): "curvature.thm_5_8",
    ("curvature", "phi_compat_check"): "curvature.phi_compat",
    ("curvature", "psi_check"): "curvature.psi",
    ("report", "AuditReport.to_json_lines"): "report.to_json_lines",
    ("specfile", "load_spec"): "specfile.load_spec",
    ("zoo", "get_entry"): "zoo.get_entry",
    ("cli", "resolve_input"): "cli.resolve_input",
    ("cli", "emit"): "cli.emit",
}
COUNTERS = {
    ("expressions", "parse_expression"): "expressions.parse_calls",
    ("metric", "inv_generic"): "metric.inv_generic_calls",
    ("metric", "christoffel_values"): "metric.christoffel_values_calls",
    ("metric", "fields_constant"): "metric.fields_constant_calls",
    ("manifold", "PointFrame.inner"): "manifold.inner_calls",
    ("contact", "phi_basis"): "contact.phi_basis_calls",
    ("statistical", "lambda_of"): "statistical.lambda_of_calls",
    ("curvature", "phi_sectional_k_curvature"): "curvature.phi_sectional_calls",
    ("curvature", "sweep_sections"): "curvature.sweep_sections_calls",
    ("report", "AuditReport.add"): "report.records",
}
LAYERS = ("expressions", "metric", "manifold", "contact", "statistical",
          "curvature", "report", "specfile", "zoo", "cli")

SAMPLE_INTERVAL = 0.001   # seconds of process CPU time between samples
_PKG_DIR = os.path.dirname(os.path.abspath(acsgeo.__file__)) + os.sep
_SELF_FILE = os.path.abspath(__file__)


class AccountingError(RuntimeError):
    """Span self times do not add up to the op's duration."""


class Tracer:
    """Spans, counters and self-time samples of the ops run while installed."""

    def __init__(self):
        self.ops = []                 # per op: (argv, spans)
        self.counts = Counter()
        self.frame_misses = 0
        self.samples = Counter()      # layer -> sampler hits
        self._spans = None            # spans of the running op, or None
        self._stack = []
        self._manifold = None
        self._restore = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        clock = time.perf_counter_ns
        stack = self._stack

        def wrapper(*args, **kwargs):
            spans = self._spans
            if spans is None:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self._spans is not None:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _eval_scalar_counter(self, fn):
        counts = self.counts

        def eval_scalar(field, env):
            if self._spans is not None:
                counts["expressions.eval_calls"] += 1
                if env and isinstance(env[0], Dual):
                    counts["expressions.dual_eval_calls"] += 1
            return fn(field, env)
        return eval_scalar

    def _resolve_wrapper(self, fn):
        def resolve_input(ref):
            m = fn(ref)
            self._manifold = m
            return m
        return resolve_input

    # -- install / uninstall -------------------------------------------------

    def install(self):
        """Wrap every target and rebind all its bindings; raises if a binding
        of a wrapped function is left behind anywhere in ``acsgeo``."""
        from acsgeo.expressions import ScalarField

        plan = {}   # id(original function) -> (original, wrapper)
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for (mod, attr), name in table.items():
                orig = _lookup(mod, attr)
                if id(orig) in plan:
                    raise RuntimeError(f"{mod}.{attr} is wrapped twice")
                if (mod, attr) == ("cli", "resolve_input"):
                    wrapped = make(name, self._resolve_wrapper(orig))
                else:
                    wrapped = make(name, orig)
                plan[id(orig)] = (orig, wrapped)
        orig = ScalarField.eval_scalar
        plan[id(orig)] = (orig, self._eval_scalar_counter(orig))

        def bindings():
            for ns in _namespaces():
                for key, val in list(vars(ns).items()):
                    hit = plan.get(id(val))
                    if hit is not None and hit[0] is val:
                        yield ns, key, val, hit[1]

        for ns, key, val, wrapped in bindings():
            setattr(ns, key, wrapped)
            self._restore.append((ns, key, val))
        left = [f"{getattr(ns, '__name__', ns)}.{key}" for ns, key, _, _ in bindings()]
        if left:
            self.uninstall()
            raise RuntimeError(f"unwrapped bindings remain: {left}")

    def uninstall(self):
        for ns, key, val in reversed(self._restore):
            setattr(ns, key, val)
        self._restore = []

    # -- ops ---------------------------------------------------------------

    def run_op(self, argv, call):
        """Run ``call()`` as one traced op under a root span."""
        spans = [["op", 0, 0, -1]]
        self._stack[:] = [0]
        self._manifold = None
        self._spans = spans
        spans[0][1] = time.perf_counter_ns()
        try:
            return call()
        finally:
            spans[0][2] = time.perf_counter_ns()
            self._spans = None
            self._stack[:] = []
            check_accounting(spans)
            cache = getattr(self._manifold, "_frame_cache", {})
            self.frame_misses += len(cache)
            self._manifold = None
            self.ops.append((argv, spans))

    # -- sampler -----------------------------------------------------------

    def start_sampler(self):
        """Sample the running frame on a CPU-time interval timer.  The
        handler runs between bytecodes of the main thread, so time in C
        code (numpy) is charged to the Python frame that called it."""
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL, SAMPLE_INTERVAL)

    def stop_sampler(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _sample(self, signum, frame):
        if self._spans is not None:
            self.samples[_layer_of(frame)] += 1

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics, averaged per traced op."""
        n_ops = max(len(self.ops), 1)
        ns = Counter()
        calls = Counter()
        hits = 0
        for _, spans in self.ops:
            parents = {s[3] for s in spans}
            for i, (name, start, end, _) in enumerate(spans):
                ns[name] += end - start
                calls[name] += 1
                if name == "curvature.statistical_curvature" and i not in parents:
                    hits += 1   # a cache hit returns without calling a traced layer
        out = {}
        for name in sorted(set(SPANS.values())):
            out[f"{name}_s"] = (ns[name] / 1e9 / n_ops, "s/op")
        for name in ("metric.gamma_jet", "curvature.statistical_curvature",
                     "manifold.frame_at"):
            out[f"{name}_calls"] = (calls[name] / n_ops, "calls/op")
        for name in sorted(set(COUNTERS.values())):
            out[name] = (self.counts[name] / n_ops,
                         "records/op" if name == "report.records" else "calls/op")
        for name in ("expressions.eval_calls", "expressions.dual_eval_calls"):
            out[name] = (self.counts[name] / n_ops, "calls/op")
        frames = calls["manifold.frame_at"]
        out["manifold.frame_misses"] = (self.frame_misses / n_ops, "calls/op")
        out["manifold.frame_hit_ratio"] = (
            1.0 - self.frame_misses / frames if frames else 0.0, "ratio")
        sc = calls["curvature.statistical_curvature"]
        out["curvature.statistical_curvature_hit_ratio"] = (
            hits / sc if sc else 0.0, "ratio")
        total = sum(self.samples.values())
        for layer in LAYERS + ("trace",):
            out[f"{layer}.self_share"] = (
                self.samples[layer] / total if total else 0.0, "ratio")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for op_id, (argv, spans) in enumerate(self.ops):
                fh.write(json.dumps({"op": op_id, "argv": argv,
                                     "spans": spans}) + "\n")


def check_accounting(spans):
    """Self times (duration minus the part covered by child spans) must sum
    to the root span's duration.  A child that leaks out of its parent, or
    overlaps a sibling, breaks the sum and raises AccountingError."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    total_self = 0
    for i, (name, start, end, _) in enumerate(spans):
        if end < start:
            raise AccountingError(f"span {name} never closed")
        covered, cursor = 0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        total_self += end - start - covered
    root = spans[0][2] - spans[0][1]
    if total_self != root:
        raise AccountingError(
            f"span self times sum to {total_self} ns, op took {root} ns")


def _lookup(mod, attr):
    obj = sys.modules[f"acsgeo.{mod}"]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _namespaces():
    """Every module and class namespace of the acsgeo package."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name == "acsgeo" or name.startswith("acsgeo."):
            out.append(mod)
            out.extend(v for v in vars(mod).values()
                       if isinstance(v, type) and v.__module__ == name)
    return out


def _layer_of(frame) -> str:
    """Module of the innermost acsgeo frame; 'trace' for wrapper code."""
    while frame is not None:
        path = frame.f_code.co_filename
        if path.startswith(_PKG_DIR):
            return os.path.splitext(path[len(_PKG_DIR):])[0]
        if path == _SELF_FILE:
            return "trace"
        frame = frame.f_back
    return "bench"
