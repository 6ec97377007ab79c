"""E1 — model-based vs handcrafted Broker overhead (paper Sec. VII-A).

Paper: "In terms of raw performance, the model-based version spent, on
average, 17 % more time to execute the scenarios than the original
version," over eight multimedia scenarios, excluding middleware-model
load time.

Regenerates: per-scenario timings for both Brokers plus the average
overhead row.  Shape asserted: overhead strictly positive and within a
generous band around the paper's 17 % (5 %–60 % — our substrate is a
simulator, not the authors' testbed).
"""

from __future__ import annotations

import pytest

from repro.bench.harness import (
    ResultTable,
    e1_quick_bench,
    fresh_handcrafted_broker,
    fresh_model_based_broker,
)
from repro.bench.workloads import COMMUNICATION_SCENARIOS


def _model_based_runner():
    broker, _service, runner = fresh_model_based_broker()
    return runner


def _handcrafted_runner():
    _broker, _service, runner = fresh_handcrafted_broker()
    return runner


@pytest.mark.parametrize("scenario", sorted(COMMUNICATION_SCENARIOS))
def test_model_based_scenario(benchmark, scenario):
    """Per-scenario latency of the model-based Broker (load excluded)."""
    steps = COMMUNICATION_SCENARIOS[scenario]

    def run():
        # brokers accumulate session state; fresh broker per round,
        # but construction happens outside the timed section via setup
        runner.run(steps)

    def setup():
        nonlocal runner
        runner = _model_based_runner()

    runner = None
    benchmark.group = f"e1-{scenario}"
    benchmark.pedantic(run, setup=setup, rounds=5, iterations=1)


@pytest.mark.parametrize("scenario", sorted(COMMUNICATION_SCENARIOS))
def test_handcrafted_scenario(benchmark, scenario):
    steps = COMMUNICATION_SCENARIOS[scenario]
    runner = None

    def run():
        runner.run(steps)

    def setup():
        nonlocal runner
        runner = _handcrafted_runner()

    benchmark.group = f"e1-{scenario}"
    benchmark.pedantic(run, setup=setup, rounds=5, iterations=1)


def test_e1_average_overhead(benchmark, report):
    """The headline number: average model-based overhead across the
    eight-scenario suite (each scenario's median paired ratio, cold
    brokers, calibrated service cost)."""
    table = ResultTable(
        "E1: Broker overhead, model-based vs handcrafted "
        "(paper: +17 % on average)",
        ["scenario", "model-based ms", "handcrafted ms", "overhead %"],
    )
    e1 = benchmark.pedantic(e1_quick_bench, rounds=1, iterations=1)
    for row in e1["scenarios"]:
        table.add(row["scenario"], row["model_ms"], row["handcrafted_ms"],
                  row["overhead_pct"])
    average = e1["mean_overhead_pct"]
    table.add("AVERAGE", "-", "-", average)
    report.append(table)
    # Shape: model-based is consistently slower, in a band around 17 %.
    assert average > 0.0, "model-based Broker should cost more than handcrafted"
    assert 5.0 < average < 60.0, f"overhead {average:.1f}% outside expected band"
