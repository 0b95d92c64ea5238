"""In-memory span tracer that instruments lpcoreset from the outside.

Wrappers are installed at the names the calling module binds, for example
``pipeline.solve_lp_regression`` or ``conditioning.pnorm``, and removed
again after each traced iteration, so nothing under ``src/`` changes and
untraced calls run the library untouched.

Two kinds of wrapper exist:

* span wrappers record (id, name, parent, call, start, end); ``call`` is
  the id of the root span, so all spans of one benchmark call share it;
* count wrappers (the kernels) only add counts and computed bytes, so
  their time stays in the self time of the layer that called them.

Counts are recorded at the same boundaries, keyed by the root call.
"""
import contextlib
import functools
import math
import os
import time
from collections import Counter, defaultdict

import numpy as np

from lpcoreset import cli, conditioning, errors, io, kernels, pipeline, sampling, solver


class Span:
    __slots__ = ("id", "name", "parent", "call", "start", "end")

    def __init__(self, span_id, name, parent, call, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.call = call
        self.start = start
        self.end = None

    @property
    def duration(self):
        return self.end - self.start


def _nbytes(x):
    return int(np.asarray(x).nbytes)


# Kernel bytes are computed from argument and result sizes (reads plus
# writes), not measured; cache misses are not included.
_KERNEL_BYTES = {
    "pnorm": lambda a, r: _nbytes(a[0]),
    "row_pnorms": lambda a, r: _nbytes(a[0]) + _nbytes(r),
    "powsum_ratios": lambda a, r: _nbytes(a[0]) * 2
    + (_nbytes(a[2]) if len(a) > 2 and a[2] is not None else 0),
    "counter_uniforms": lambda a, r: _nbytes(r),
    "smoothed_power_weights": lambda a, r: _nbytes(a[0]) + _nbytes(r),
}


class Tracer:
    """Records spans and counts while installed; restores every binding on
    :meth:`uninstall`.

    full_rows is the row count of the workload's full problem: a
    ``solve_lp_regression`` call on fewer rows is a sampled subproblem
    solve, one on all rows is a direct solve.
    """

    def __init__(self, full_rows):
        self.full_rows = int(full_rows)
        self.spans = []
        self.sums = defaultdict(Counter)
        self.peaks = defaultdict(dict)
        self._stack = []
        self._saved = []
        self._stage_of = {}
        self._failures_seen = {}

    # -- recording -------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(
            len(self.spans),
            name,
            None if parent is None else parent.id,
            None if parent is None else parent.call,
            time.perf_counter(),
        )
        if parent is None:
            span.call = span.id
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if not self._stack:
            self._stage_of.clear()
            self._failures_seen.clear()

    @contextlib.contextmanager
    def span(self, name):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def add(self, call, key, value=1):
        self.sums[call][key] += value

    def peak(self, call, key, value):
        peaks = self.peaks[call]
        peaks[key] = max(peaks.get(key, -math.inf), value)

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, fn, name, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(tracer, args) if callable(name) else name
            span = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            except errors.StageFailureError as exc:
                # the same failure passes several wrappers on its way out;
                # holding it until the root span closes keeps its id unique
                if id(exc) not in tracer._failures_seen:
                    tracer._failures_seen[id(exc)] = exc
                    tracer.add(span.call, "pipeline.stage_failures")
                raise
            finally:
                tracer.close(span)
            # counts are recorded after the span closed, so their cost lands
            # in the caller's self time, not in the layer being measured
            tracer.add(span.call, f"{label}.calls")
            if after is not None:
                after(tracer, span.call, label, args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, kernel, site_keys):
        tracer = self
        nbytes = _KERNEL_BYTES[kernel]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer._stack:
                call = tracer._stack[-1].call
                size = nbytes(args, result)
                tracer.add(call, f"kernels.{kernel}.calls")
                tracer.add(call, f"kernels.{kernel}.bytes", size)
                for key in site_keys:
                    tracer.add(call, key, size if key.endswith(".bytes") else 1)
            return result

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, after in SPAN_SITES:
            self._patch(module, attr, self._span_wrapper(getattr(module, attr), name, after))
        for module, attr, site_keys in COUNT_SITES:
            self._patch(module, attr, self._count_wrapper(getattr(module, attr), attr, site_keys))

    def _patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- summaries -------------------------------------------------------

    def self_times(self):
        """Self time per span id: duration minus the time its children cover."""
        child = Counter()
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return {s.id: s.duration - child[s.id] for s in self.spans}

    def root_summaries(self, root_name):
        """Per root span called root_name: (self seconds by span name, sums, peaks)."""
        selfs = self.self_times()
        by_call = defaultdict(Counter)
        for s in self.spans:
            by_call[s.call][s.name] += selfs[s.id]
        return [
            (by_call[s.id], self.sums[s.id], self.peaks[s.id])
            for s in self.spans
            if s.parent is None and s.name == root_name
        ]


def original_bindings():
    """Identity of every binding the tracer patches, for the restore check."""
    sites = [(m, a) for m, a, _, _ in SPAN_SITES] + [(m, a) for m, a, _ in COUNT_SITES]
    return {(m.__name__, a): getattr(m, a) for m, a in sites}


# -- hooks recording counts at layer boundaries ---------------------------


def _after_rounding(tracer, call, label, args, rr):
    d = rr.G.shape[0]
    tracer.add(call, "conditioning.fw_iterations", rr.iterations)
    tracer.add(call, "conditioning.converged_calls", int(rr.converged))
    tracer.peak(call, "conditioning.kappa_over_sqrt_d", rr.kappa / math.sqrt(d))


def _after_qr(tracer, call, label, args, result):
    tracer.add(call, "linalg.qr.bytes", _nbytes(args[0]))


def _after_probabilities(stage):
    def hook(tracer, call, label, args, probs):
        # keep the array alive so its id cannot be reused within the call
        tracer._stage_of[id(probs)] = (stage, probs)

    return hook


def _after_realize(tracer, call, label, args, plan):
    stage = tracer._stage_of.get(id(args[0]), (None, None))[0]
    if stage is None:
        return
    key = f"stage{stage}"
    tracer.add(call, f"sampling.plans.{key}")
    tracer.add(call, f"sampling.expected_rows.{key}", plan.expected_count)
    tracer.add(call, f"sampling.realized_rows.{key}", plan.actual_count)
    n = max(1, len(plan))
    tracer.add(call, f"sampling.saturated_share.{key}", np.count_nonzero(plan.probs >= 1.0) / n)


def _solve_name(tracer, args):
    rows = np.shape(args[0])[0]
    return "solver.direct" if rows >= tracer.full_rows else "solver.sampled"


def _after_solve(tracer, call, label, args, res):
    tracer.add(call, f"{label}.iterations", res.iterations)
    tracer.add(call, f"{label}.converged_calls", int(res.converged))


def _after_load(tracer, call, label, args, result):
    tracer.add(call, "io.load_matrix.bytes", os.path.getsize(args[0]))


def _after_emit(tracer, call, label, args, text):
    tracer.add(call, "io.report.bytes", len(text.encode("utf-8")))


# (module, attribute, span name, hook).  The span name may be a function of
# the tracer and the positional arguments.
SPAN_SITES = [
    (cli, "run_cli", "cli.run_cli", None),
    (cli, "two_stage_solve", "pipeline.two_stage_solve", None),
    (cli, "load_matrix", "io.load_matrix", _after_load),
    (io, "load_matrix", "io.load_matrix", _after_load),
    (cli, "emit_report", "io.emit_report", _after_emit),
    (cli, "generate_instance", "io.generate_instance", None),
    (io, "save_matrix_csv", "io.save_matrix_csv", None),
    (pipeline, "two_stage_solve", "pipeline.two_stage_solve", None),
    (pipeline, "stage_one", "pipeline.stage_one", None),
    (pipeline, "stage_two", "pipeline.stage_two", None),
    (pipeline, "well_conditioned_basis", "conditioning.basis", None),
    (conditioning, "lowner_john_round", "conditioning.rounding", _after_rounding),
    (conditioning, "qr_thin", "linalg.qr_thin", _after_qr),
    (pipeline, "numeric_rank", "linalg.numeric_rank", _after_qr),
    (pipeline, "stage1_probabilities", "sampling.probabilities", _after_probabilities(1)),
    (pipeline, "stage2_probabilities", "sampling.probabilities", _after_probabilities(2)),
    (pipeline, "realize_sample", "sampling.realize", _after_realize),
    (pipeline, "apply_plan", "sampling.apply", None),
    (pipeline, "solve_lp_regression", _solve_name, _after_solve),
    (solver, "solve_lp_regression", _solve_name, _after_solve),
]

# (module, kernel name, extra per-site keys).  linalg reaches the kernels
# through the ``kernels`` module attribute, the other layers through names
# imported at load time; each call passes exactly one of these bindings.
COUNT_SITES = [
    (kernels, "pnorm", ()),
    (kernels, "row_pnorms", ()),
    (conditioning, "pnorm", ("conditioning.pnorm.calls",)),
    (conditioning, "row_pnorms", ("conditioning.row_pnorms.bytes",)),
    (sampling, "row_pnorms", ()),
    (sampling, "powsum_ratios", ()),
    (sampling, "counter_uniforms", ()),
    (solver, "smoothed_power_weights", ("solver.weights.calls",)),
]


# -- per-layer metrics ----------------------------------------------------


def _self(span_name):
    return lambda selfs, sums, peaks: selfs[span_name]


def _count(key):
    return lambda selfs, sums, peaks: sums[key]


def _ratio(num, den):
    return lambda selfs, sums, peaks: sums[num] / sums[den] if sums[den] else 0.0


def _pipeline_self(selfs, sums, peaks):
    return sum(v for k, v in selfs.items() if k.startswith("pipeline."))


def _kappa(selfs, sums, peaks):
    return peaks.get("conditioning.kappa_over_sqrt_d", 0.0)


# (name, unit, additive, value of one root call).  An additive metric is the
# median over traced set-ups plus the median over traced iterations, so work
# done at set-up (the rank QR of RegressionInstance) shows; the others are
# medians over traced iterations.
LAYER_METRICS = [
    ("linalg.qr_thin.s", "s", True, _self("linalg.qr_thin")),
    ("linalg.numeric_rank.s", "s", True, _self("linalg.numeric_rank")),
    ("linalg.numeric_rank.calls", "count", True, _count("linalg.numeric_rank.calls")),
    ("linalg.qr.bytes", "bytes", True, _count("linalg.qr.bytes")),
    ("conditioning.basis.s", "s", True, _self("conditioning.basis")),
    ("conditioning.rounding.s", "s", True, _self("conditioning.rounding")),
    ("conditioning.fw_iterations", "count", True, _count("conditioning.fw_iterations")),
    ("conditioning.pnorm.calls", "count", True, _count("conditioning.pnorm.calls")),
    ("conditioning.row_pnorms.bytes", "bytes", True, _count("conditioning.row_pnorms.bytes")),
    ("conditioning.kappa_over_sqrt_d", "ratio", False, _kappa),
    (
        "conditioning.converged",
        "share",
        False,
        _ratio("conditioning.converged_calls", "conditioning.rounding.calls"),
    ),
    ("sampling.probabilities.s", "s", True, _self("sampling.probabilities")),
    ("sampling.realize.s", "s", True, _self("sampling.realize")),
    ("sampling.apply.s", "s", True, _self("sampling.apply")),
]
for _stage in ("stage1", "stage2"):
    LAYER_METRICS += [
        (
            f"sampling.{kind}.{_stage}",
            unit,
            False,
            _ratio(f"sampling.{kind}.{_stage}", f"sampling.plans.{_stage}"),
        )
        for kind, unit in (
            ("expected_rows", "count"),
            ("realized_rows", "count"),
            ("saturated_share", "share"),
        )
    ]
LAYER_METRICS += [
    ("sampling.attempts", "share", False, _ratio("solver.sampled.calls", "sampling.realize.calls")),
    ("solver.sampled.s", "s", True, _self("solver.sampled")),
    ("solver.sampled.calls", "count", True, _count("solver.sampled.calls")),
    ("solver.irls_iterations", "count", True, _count("solver.sampled.iterations")),
    (
        "solver.converged_share",
        "share",
        False,
        _ratio("solver.sampled.converged_calls", "solver.sampled.calls"),
    ),
    ("solver.weights.calls", "count", True, _count("solver.weights.calls")),
    ("solver.direct.s", "s", True, _self("solver.direct")),
    ("solver.direct.iterations", "count", True, _count("solver.direct.iterations")),
    ("pipeline.self.s", "s", True, _pipeline_self),
    ("pipeline.stage_failures", "count", True, _count("pipeline.stage_failures")),
]
for _kernel in _KERNEL_BYTES:
    LAYER_METRICS += [
        (f"kernels.{_kernel}.calls", "count", True, _count(f"kernels.{_kernel}.calls")),
        (f"kernels.{_kernel}.bytes", "bytes", True, _count(f"kernels.{_kernel}.bytes")),
    ]
LAYER_METRICS += [
    ("io.load_matrix.s", "s", True, _self("io.load_matrix")),
    ("io.load_matrix.bytes", "bytes", True, _count("io.load_matrix.bytes")),
    ("io.emit_report.s", "s", True, _self("io.emit_report")),
    ("io.report.bytes", "bytes", True, _count("io.report.bytes")),
    ("io.save_matrix_csv.s", "s", True, _self("io.save_matrix_csv")),
    ("cli.self.s", "s", True, _self("cli.run_cli")),
]


def _median(values):
    return float(np.median(values)) if values else 0.0


def layer_metrics(tracer):
    """Every LAYER_METRICS value as {name: (value, unit)}."""
    setups = tracer.root_summaries("bench.setup")
    iters = tracer.root_summaries("bench.iteration")
    out = {}
    for name, unit, additive, fn in LAYER_METRICS:
        value = _median([fn(*r) for r in iters])
        if additive:
            value += _median([fn(*r) for r in setups])
        out[name] = (value, unit)
    return out


def self_seconds(tracer):
    """Median self time of every span name, per set-up and per iteration."""
    names = sorted({s.name for s in tracer.spans})
    out = {}
    for kind in ("setup", "iteration"):
        roots = tracer.root_summaries(f"bench.{kind}")
        out[kind] = {name: _median([r[0][name] for r in roots]) for name in names}
    return out
