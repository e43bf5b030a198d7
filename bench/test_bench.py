"""Tests of the benchmark itself, on bundles small enough to run in seconds.

    python3 -m pytest bench/test_bench.py

Run from the root of the checkout, like the benchmark.
"""
from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402

TINY = {"comparison": (60, 40), "train": (60, 30), "predict": (60, 30)}


def test_tracer_restores_originals_and_skips_absent_names():
    import adoptnet.experiments
    import adoptnet.solver

    original = adoptnet.solver.fit_mle
    targets = spans.TARGETS + (
        ("solver.gone", "adoptnet.solver", "no_such_function"),
        ("gone", "adoptnet.no_such_module", "anything"),
    )
    tracer = spans.Tracer("t", targets)
    tracer.install()
    try:
        assert adoptnet.solver.fit_mle is not original
        assert adoptnet.experiments.fit_mle is adoptnet.solver.fit_mle
    finally:
        tracer.restore()
    assert adoptnet.solver.fit_mle is original
    assert adoptnet.experiments.fit_mle is original
    assert tracer.absent == [
        "adoptnet.solver.no_such_function",
        "adoptnet.no_such_module.anything",
    ]


def test_metrics_of_a_deleted_function_read_as_absent():
    assert run.absent_layers(["adoptnet.solver.fit_regression"]) == {"solver.reg"}
    assert run.absent_layers(["adoptnet.data.load_adoptions"]) == set()
    assert run.metric_layer("solver.reg.fits") == "solver.reg"
    assert run.metric_layer("predict.csv_s") == "predict.csv"
    assert run.metric_layer("experiments.self_s") == "experiments.run"


def test_private_names_are_refused():
    tracer = spans.Tracer("t", (("x", "adoptnet.solver", "_projected_ascent"),))
    with pytest.raises(ValueError):
        tracer.install()


def test_self_times_partition_the_root_span():
    recorded = [
        spans.Span("cli", 0.0, 10.0, -1, "r", {}),
        spans.Span("solver.mle", 1.0, 7.0, 0, "r", {}),
        spans.Span("model.obj", 2.0, 3.0, 1, "r", {}),
        spans.Span("model.obj", 4.0, 6.0, 1, "r", {}),
        spans.Span("metrics", 8.0, 9.0, 0, "r", {}),
    ]
    assert spans.self_times(recorded) == [3.0, 3.0, 1.0, 2.0, 1.0]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_and_untraced_runs_write_identical_bytes(name, tmp_path):
    users, apps = TINY[name]
    workload = dataclasses.replace(run.WORKLOADS[name], users=users, apps=apps, bundles=1)
    bench = run.Run(BENCH_DIR.parent, workload, seed=3, work=tmp_path)
    bundles = [bench.make_bundle(0)]
    metrics = run.trace(bench, bundles, seconds=0.0)
    assert bench.problems == []
    assert bench.attempted == 2
    assert set(metrics) == set(run.PER_LAYER_NAMES) - {"synth.generate_s"}
    assert 0.0 <= metrics["proc.outside_s"] < metrics["trace.wall_s"]
    parts = sum(metrics[k] for k in run.LAYER_SELF_TIMES)
    parts += metrics["proc.import_s"] + metrics["proc.outside_s"]
    assert parts == pytest.approx(metrics["trace.wall_s"])
