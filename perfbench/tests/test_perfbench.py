"""Tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest perfbench/tests -q
"""
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lpcoreset import errors  # noqa: E402
from workloads import CliCsvWorkload, TallWorkload  # noqa: E402

NAMES = ("tall-p1.5", "tall-p2", "cli-csv")


def tiny(name, workdir):
    return {
        "tall-p1.5": lambda: TallWorkload(
            "tall-p1.5", n=1500, d=3, p=1.5, epsilon=0.1, targets=(100.0, 200.0)
        ),
        "tall-p2": lambda: TallWorkload(
            "tall-p2", n=3000, d=4, p=2.0, epsilon=0.1, targets=(100.0, 200.0)
        ),
        "cli-csv": lambda: CliCsvWorkload(
            "cli-csv", n=1000, d=3, p=2.0, epsilon=0.1, targets=(100.0, 200.0),
            workdir=str(workdir),
        ),
    }[name]()


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_untraced(name, tmp_path):
    r, tracer = run.measure(tiny(name, tmp_path), seed=3, seconds=0, trace=False)
    assert tracer is None
    assert r.failures == []
    assert r.attempted == 1 + run.MIN_TIMED
    metrics = run.end_to_end(r)
    assert all(value > 0 for value, _ in metrics.values()), metrics


@pytest.mark.parametrize("name", NAMES)
def test_traced_spans_nest_and_wrappers_are_removed(name, tmp_path):
    before = tracing.original_bindings()
    r, tracer = run.measure(tiny(name, tmp_path), seed=3, seconds=0, trace=True)
    assert tracing.original_bindings() == before
    assert r.failures == []
    assert len(r.traced_solve_s) == len(r.solve_s) == run.MIN_TIMED

    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        assert s.end >= s.start
        if s.parent is None:
            assert s.call == s.id
            assert s.name in ("bench.setup", "bench.iteration")
        else:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
            assert s.call == parent.call
    assert min(tracer.self_times().values()) >= -1e-9

    metrics = tracing.layer_metrics(tracer)
    assert [m[0] for m in tracing.LAYER_METRICS] == list(metrics)
    assert metrics["solver.sampled.calls"][0] > 0
    assert metrics["solver.direct.s"][0] > 0
    assert metrics["sampling.attempts"][0] == 1.0


def test_cli_workload_traces_io_and_cli(tmp_path):
    _, tracer = run.measure(tiny("cli-csv", tmp_path), seed=3, seconds=0, trace=True)
    selfs = tracing.self_seconds(tracer)
    assert selfs["setup"]["io.save_matrix_csv"] > 0
    for name in ("io.load_matrix", "io.emit_report", "cli.run_cli"):
        assert selfs["iteration"][name] > 0, name
    metrics = tracing.layer_metrics(tracer)
    for name in ("io.load_matrix.s", "io.load_matrix.bytes", "io.emit_report.s",
                 "io.report.bytes", "io.save_matrix_csv.s", "cli.self.s"):
        assert metrics[name][0] > 0, name


def test_each_stage_failure_counts_once():
    tracer = tracing.Tracer(full_rows=1)

    def stage():
        raise errors.StageFailureError("stage failed")

    inner = tracer._span_wrapper(stage, "pipeline.stage_one", None)
    outer = tracer._span_wrapper(inner, "pipeline.two_stage_solve", None)
    with tracer.span("bench.iteration") as root:
        for _ in range(3):  # each failure is freed before the next is raised
            with pytest.raises(errors.StageFailureError):
                outer()
    assert tracer.sums[root.call]["pipeline.stage_failures"] == 3


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly_at_one_seed(name, tmp_path):
    def counts():
        r, tracer = run.measure(tiny(name, tmp_path), seed=5, seconds=0, trace=True)
        # the report's length varies with the digits of its timing fields
        varying = ("derived.trace_overhead", "io.report.bytes")
        layer = {
            k: v
            for k, (v, unit) in tracing.layer_metrics(tracer).items()
            if unit != "s" and k not in varying
        }
        return layer, r.approx_ratio, r.coreset_rows

    first, second = counts(), counts()
    assert first == second
    layer = first[0]
    for key in ("solver.irls_iterations", "sampling.realized_rows.stage2"):
        assert layer[key] > 0


def test_output_contract(tmp_path, monkeypatch, capsys):
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(NAMES)
    assert list(workloads.make_workloads(str(tmp_path))) == list(NAMES)
    monkeypatch.setattr(
        workloads, "make_workloads", lambda workdir: {n: tiny(n, tmp_path) for n in NAMES}
    )
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code = run.main(
            ["--workload", "tall-p2", "--seed", "2", "--seconds", "0", "--trace", str(trace)]
        )
        assert code == 0
        last = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == declared


def test_missing_sources_fail_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "tall-p2", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
