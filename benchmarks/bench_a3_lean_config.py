"""A3 (ablation) — leaner middleware-model configurations.

Paper Sec. VII-A: "The flexibility of the model-based approach would
enable us to model leaner configurations for each of the layers,
featuring only the strictly required components, thus contributing to
compensate for the extra overhead."

Regenerates: the eight-scenario suite on the full model-based Broker
vs a lean configuration (autonomic manager and state snapshots
disabled in the middleware model).  Shape asserted: lean is at least
as fast and narrows the gap to the handcrafted baseline.
"""

from __future__ import annotations

import statistics
import time

from repro.bench.harness import (
    ResultTable,
    fresh_handcrafted_broker,
    fresh_model_based_broker,
    paired_rounds,
)
from repro.bench.workloads import COMMUNICATION_SCENARIOS

#: The failure-recovery scenario needs the autonomic path disabled for
#: an apples-to-apples run (recovery is an explicit step in E1 anyway).
SUITE = {
    name: steps for name, steps in COMMUNICATION_SCENARIOS.items()
}


def _suite_sample(factory) -> float:
    """Seconds for one pass of the suite on a freshly built broker."""
    _broker, _service, runner = factory()
    start = time.perf_counter()
    for steps in SUITE.values():
        runner.run(steps)
    return time.perf_counter() - start


def test_full_config_suite(benchmark):
    benchmark.group = "a3-suite"

    def run():
        _b, _s, runner = fresh_model_based_broker(lean=False)
        for steps in SUITE.values():
            runner.run(steps)

    benchmark.pedantic(run, rounds=5, iterations=1)


def test_lean_config_suite(benchmark):
    benchmark.group = "a3-suite"

    def run():
        _b, _s, runner = fresh_model_based_broker(lean=True)
        for steps in SUITE.values():
            runner.run(steps)

    benchmark.pedantic(run, rounds=5, iterations=1)


def test_a3_lean_narrows_the_gap(benchmark, report):
    rounds: list[tuple[float, ...]] = []

    def run():
        # Warmed, alternating-order rounds of (full, lean, hand): the
        # suite time drifts on a shared host between blocks of samples,
        # so the gates use the median of per-round ratios.  A single
        # round's lean/full ratio spreads by ~±5%, hence 31 rounds.
        rounds.extend(paired_rounds(
            lambda: _suite_sample(
                lambda: fresh_model_based_broker(lean=False)),
            lambda: _suite_sample(
                lambda: fresh_model_based_broker(lean=True)),
            lambda: _suite_sample(fresh_handcrafted_broker),
            rounds=31,
        ))

    benchmark.pedantic(run, rounds=1, iterations=1)

    full, lean, hand = (statistics.median(side) for side in zip(*rounds))
    lean_vs_full = statistics.median(l / f for f, l, _h in rounds)
    full_overhead = 100.0 * (
        statistics.median(f / h for f, _l, h in rounds) - 1.0
    )
    lean_overhead = 100.0 * (
        statistics.median(l / h for _f, l, h in rounds) - 1.0
    )
    table = ResultTable(
        "A3: lean middleware-model configuration "
        "(paper: leaner configs compensate the overhead)",
        ["configuration", "suite ms", "overhead vs handcrafted %"],
    )
    table.add("model-based (full managers)", full * 1000, full_overhead)
    table.add("model-based (lean)", lean * 1000, lean_overhead)
    table.add("handcrafted", hand * 1000, 0.0)
    report.append(table)

    # Shape: lean <= full (it does strictly less per call), and the
    # remaining overhead stays positive (flexibility is not free).
    assert lean_vs_full <= 1.05
    assert lean_overhead > 0.0
