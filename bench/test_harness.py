"""Fast self-test of the benchmark harness on toy-sized workloads."""

import json
import math
from pathlib import Path

import pytest

import harness
from corules import colgen
from spans import Span, Tracer

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TOY = (
    harness.TrainingWorkload(
        "machine-toy", rows=24, draws=1, params=(colgen.Params(max_degree=2),)
    ),
    harness.TrainingWorkload(
        "soft-toy",
        rows=60,
        draws=1,
        params=(
            colgen.Params(mode=colgen.MODE_SOFT, max_degree=1),
            colgen.Params(complexity_budget=15, mode=colgen.MODE_SOFT, max_degree=1),
        ),
        with_truth=True,
        exact_budget=24,
    ),
    harness.ScoringWorkload("score-toy", rows=500),
)

# per-layer times each toy workload must spend; a layer it does not use reads 0
USED = {
    "machine-toy": ("colgen.price_s", "colgen.train_self_s", "solver.lp_s", "solver.mip_s"),
    "soft-toy": ("colgen.price_s", "colgen.train_self_s", "solver.lp_s", "solver.mip_s"),
    "score-toy": ("dataset.apply_columns_s", "ruledsl.bind_s", "ruledsl.covers_s",
                  "metrics.self_s"),
}


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", TOY, ids=[w.name for w in TOY])
def test_toy_run_emits_every_metric(workload, trace):
    result = harness.run(workload, seed=3, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert math.isfinite(value["value"])
        if not trace or metric["name"] in USED[workload.name] + ("trace.draw_s",):
            assert value["value"] > 0, metric["name"]


def test_trace_check_catches_a_bypassed_wrapper():
    report = colgen.TrainReport(mode="machine", n_samples=1, params=colgen.Params())
    report.rounds = [{}, {}]
    report.mip_nodes = 3
    tracer = Tracer()
    tracer.spans = [
        Span("colgen.train", None, 0.0, 1.0, info={"report": report}),
        Span("colgen.price", 0, 0.1, 0.2),
        Span("solver.mip", 0, 0.3, 1.5, info={"nodes": 3}),
    ]
    problems = harness.check_trace(tracer)
    assert any("1 price spans for 2 rounds" in p for p in problems)
    assert any("child spans take" in p for p in problems)


def test_later_draws_time_but_leave_quality_alone():
    machine = TOY[0]
    short = harness.run(machine, seed=3, seconds=0, trace=False)
    longer = harness.run(machine, seed=3, seconds=1.0, trace=False)
    assert short["attempted"] == machine.draws
    assert longer["correct"] and longer["attempted"] > machine.draws
    quality = [r["metrics"]["holdout_accuracy"]["value"] for r in (short, longer)]
    assert quality[0] == quality[1]
