"""Bus routing scaling — indexed routing vs subscriber population.

The PR-1 tentpole replaced the event bus's per-publish linear scan
with a topic index (exact dict + wildcard trie).  This benchmark
asserts the property the index exists for: per-publish routing cost
must not grow with the number of *non-matching* subscriptions, so the
indexed bus beats a linear-scan reference by a growing margin as cold
subscribers are added.

Regenerates: the ``bus_scaling`` rows of ``BENCH_PR1.json``
(``repro bench fabric``).
"""

from __future__ import annotations

import pytest

from repro.bench.harness import ResultTable, bus_scaling_bench
from repro.runtime.events import Event, EventBus
from repro.runtime.metrics import MetricsRegistry


def _quiet_bus(cold_subscribers: int) -> EventBus:
    metrics = MetricsRegistry()
    metrics.enabled = False
    bus = EventBus(name="bench", metrics=metrics)
    for i in range(cold_subscribers):
        bus.subscribe(f"cold.topic.{i}", lambda _s: None)
    bus.subscribe("hot.topic", lambda _s: None)
    bus.subscribe("hot.*", lambda _s: None)
    return bus


@pytest.mark.parametrize("cold", [0, 100, 1000])
def test_publish_latency_by_population(benchmark, cold):
    """Per-publish latency with ``cold`` non-matching subscriptions."""
    bus = _quiet_bus(cold)
    signal = Event(topic="hot.topic")
    benchmark(bus.publish, signal)


def test_routing_inspects_only_matches():
    """Candidate count is flat in the cold population."""
    for cold in (0, 100, 1000):
        bus = _quiet_bus(cold)
        assert bus.publish(Event(topic="hot.topic")) == 2
        assert bus.routing_candidates == 2


def test_indexed_bus_scales_better_than_linear_scan():
    """Speedup over the linear-scan reference grows with population.

    Shape asserted: at 1000 subscribers the indexed bus must win by at
    least 5x, and the speedup at 1000 must exceed the speedup at 10
    (the index's advantage grows with the cold population).
    """
    rows = bus_scaling_bench(subscriber_counts=(10, 1000), publishes=500)
    table = ResultTable(
        "bus routing: indexed vs linear scan",
        ["subscribers", "indexed µs", "linear µs", "speedup"],
    )
    by_count = {}
    for row in rows:
        table.add(
            row["subscribers"], row["indexed_us"],
            row["linear_scan_us"], row["speedup"],
        )
        by_count[row["subscribers"]] = row["speedup"]
    table.print()
    assert by_count[1000] >= 5.0
    assert by_count[1000] > by_count[10]
