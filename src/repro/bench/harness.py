"""Shared benchmark harness: scenario replay, timing, result tables.

The pytest-benchmark modules under ``benchmarks/`` use these helpers
to replay workloads against either Broker implementation, time code
paths consistently, and print the rows that EXPERIMENTS.md records.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.baselines.handcrafted_broker import HandcraftedBroker
from repro.bench.gates import Check
from repro.bench.workloads import Step
from repro.middleware.broker.layer import BrokerLayer
from repro.runtime.metrics import MetricsRegistry
from repro.sim.network import CommService

__all__ = [
    "ScenarioRunner",
    "Measurement",
    "measure",
    "least_noise",
    "paired_rounds",
    "ResultTable",
    "fresh_model_based_broker",
    "fresh_handcrafted_broker",
    "bus_scaling_bench",
    "e1_quick_bench",
    "e1_paired_bench",
    "run",
    "check",
]


def least_noise(samples: Iterable[Any], *, key: Callable[[Any], float] | None = None):
    """The least scheduler-noise-contaminated sample of a repeat set.

    On a shared box, preemption and frequency drift only ever *inflate*
    a wall-clock sample (or a latency-keyed run summary) — they never
    make code look faster than it is — so the minimum over repeats is
    the closest estimate of the machine-independent figure.  This is
    the single sampling discipline every bench module shares (the PR 4
    min-of-samples precedent); pass ``key`` to select among structured
    run summaries instead of raw floats.
    """
    picked = list(samples)
    if not picked:
        raise ValueError("least_noise() requires at least one sample")
    if key is None:
        return min(picked)
    return min(picked, key=key)


class ScenarioRunner:
    """Replays a workload scenario against one Broker implementation.

    The runner needs to resolve symbolic connection ids to live
    session ids for failure injection; ``session_lookup`` abstracts
    over the two Brokers' state representations.
    """

    def __init__(
        self,
        broker: Any,
        service: CommService,
        session_lookup: Callable[[str], str],
    ) -> None:
        self.broker = broker
        self.service = service
        self.session_lookup = session_lookup
        self.steps_run = 0

    def run(self, steps: Sequence[Step]) -> None:
        for step in steps:
            tag = step[0]
            if tag == "api":
                _tag, api, args = step
                self.broker.call_api(api, **args)
            elif tag == "fail":
                self.service.inject_failure(self.session_lookup(step[1]))
            elif tag == "recover":
                # Recovery is itself a broker responsibility.
                self.broker.call_api(
                    "ncb.recover_session", session=self.session_lookup(step[1])
                )
            else:
                raise ValueError(f"unknown scenario step tag {tag!r}")
            self.steps_run += 1


def fresh_model_based_broker(
    *,
    lean: bool = False,
    autonomic: bool | None = None,
    aot: bool = False,
    op_cost: float | None = None,
) -> tuple[BrokerLayer, CommService, ScenarioRunner]:
    """A model-based Broker layer loaded from the CVM middleware model.

    Only the Broker layer is loaded (the E1 experiment compares Broker
    implementations below an identical upper stack).  Autonomic
    recovery is disabled by default so both Brokers execute recovery
    through the same explicit API step.  ``aot=True`` generates and
    installs the Tier-3 broker dispatch tables (no synthesis layer is
    running here, so the program is built directly from the broker's
    installed action table).
    """
    from repro.domains.communication.cml import cml_metamodel
    from repro.domains.communication.cvm import build_middleware_model
    from repro.middleware.loader import DomainKnowledge, load_platform

    service = CommService("net0", op_cost=op_cost)
    model = build_middleware_model(lean=lean)
    knowledge = DomainKnowledge(dsml=cml_metamodel(), resources=[service])
    # A dedicated single-writer registry: the metrics concurrency model
    # (PR 4) gives each single-threaded platform its own lock-free
    # registry; falling back to the process-wide default would add a
    # mutex acquire per counter bump that no deployment configured this
    # way would pay.
    platform = load_platform(
        model, knowledge, start=False, metrics=MetricsRegistry()
    )
    broker = platform.broker
    assert broker is not None
    if autonomic is None:
        autonomic = False
    broker.autonomic.enabled = autonomic
    # Start only the broker (upper layers are not under test here).
    broker.start()
    if aot:
        from repro.middleware.synthesis.aot import build_program

        program = build_program(
            rules={},  # broker-only stack: no synthesis dispatch needed
            actions=list(broker.calls._actions),
            dsml=knowledge.dsml,
            domain="communication",
        )
        broker.install_aot(program.broker_calls)

    def lookup(connection: str) -> str:
        return broker.state.get(f"session:{connection}")

    return broker, service, ScenarioRunner(broker, service, lookup)


def fresh_handcrafted_broker(
    *, op_cost: float | None = None
) -> tuple[HandcraftedBroker, CommService, ScenarioRunner]:
    service = CommService("net0", op_cost=op_cost)
    broker = HandcraftedBroker(service)

    def lookup(connection: str) -> str:
        return broker.sessions[connection]

    return broker, service, ScenarioRunner(broker, service, lookup)


@dataclass
class Measurement:
    """Timing statistics over repeated runs of a callable."""

    label: str
    samples: list[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    @property
    def minimum(self) -> float:
        return least_noise(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    def ratio_to(self, other: "Measurement") -> float:
        """mean(self) / mean(other)."""
        return self.mean / other.mean

    def __repr__(self) -> str:
        return (
            f"Measurement({self.label!r}, n={len(self.samples)}, "
            f"mean={self.mean * 1000:.3f}ms)"
        )


def measure(
    label: str,
    fn: Callable[[], Any],
    *,
    repeat: int = 5,
    warmup: int = 1,
) -> Measurement:
    """Time ``fn`` ``repeat`` times (after ``warmup`` discarded runs)."""
    for _ in range(warmup):
        fn()
    measurement = Measurement(label)
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        measurement.samples.append(time.perf_counter() - start)
    return measurement


def paired_rounds(
    *sides: Callable[[], float], rounds: int = 15
) -> list[tuple[float, ...]]:
    """Interleaved timing rounds over competing configurations.

    Each side is a callable returning one timed sample (seconds).
    After two discarded warm-up rounds, every round takes one sample per
    side back to back — in argument order on even rounds, reversed on
    odd ones — and yields them as a tuple in argument order.  Host
    drift slower than a round cancels out of per-round ratios, and the
    alternating order cancels drift *within* a round, so compare sides
    by the median of per-round ratios rather than by statistics of
    sample blocks taken seconds apart.
    """
    for _ in range(2):
        for side in sides:
            side()
    order = range(len(sides))
    samples = []
    for index in range(rounds):
        sample = [0.0] * len(sides)
        for pos in order if index % 2 == 0 else reversed(order):
            sample[pos] = sides[pos]()
        samples.append(tuple(sample))
    return samples


class ResultTable:
    """Plain-text result table matching EXPERIMENTS.md formatting."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: list[list[str]] = []

    def add(self, *cells: Any) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append([_fmt(cell) for cell in cells])

    def render(self) -> str:
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in self.rows))
            if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        def line(cells: Iterable[str]) -> str:
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths))

        parts = [f"== {self.title} ==", line(self.columns),
                 line("-" * w for w in widths)]
        parts += [line(row) for row in self.rows]
        return "\n".join(parts)

    def print(self) -> None:
        print("\n" + self.render())


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


# -- signal-fabric micro-benchmarks (BENCH_PR1.json) ----------------------


class _LinearScanBus:
    """Reference implementation of the pre-index routing strategy:
    a list copy per publish plus a full scan over all subscriptions.
    Used as the baseline the indexed bus is compared against."""

    def __init__(self) -> None:
        from repro.runtime.topics import TopicMatcher

        self._matcher = TopicMatcher
        self._subs: list[tuple[str, Callable[[], None]]] = []

    def subscribe(self, pattern: str, callback: Callable[[], None]) -> None:
        self._subs.append((pattern, callback))

    def publish(self, topic: str) -> int:
        delivered = 0
        for pattern, callback in list(self._subs):
            if not self._matcher.matches(pattern, topic):
                continue
            delivered += 1
            callback()
        return delivered


def bus_scaling_bench(
    subscriber_counts: Sequence[int] = (1, 10, 100, 1000),
    *,
    publishes: int = 2000,
) -> list[dict[str, Any]]:
    """Per-publish routing cost vs subscriber population.

    Each configuration registers ``n`` exact-topic subscribers plus one
    wildcard subscriber, then publishes to a single hot topic (one
    exact + one wildcard match per publish).  The indexed bus should be
    flat in ``n``; the linear-scan reference grows with ``n``.
    """
    from repro.runtime.events import EventBus
    from repro.runtime.metrics import MetricsRegistry

    rows: list[dict[str, Any]] = []
    sink = lambda *_: None  # noqa: E731
    quiet = MetricsRegistry()
    quiet.enabled = False
    for count in subscriber_counts:
        bus = EventBus(name="bench", metrics=quiet)
        for i in range(count):
            bus.subscribe(f"cold.topic.{i}", sink)
        bus.subscribe("hot.topic", sink)
        bus.subscribe("hot.*", sink)
        linear = _LinearScanBus()
        for i in range(count):
            linear.subscribe(f"cold.topic.{i}", sink)
        linear.subscribe("hot.topic", sink)
        linear.subscribe("hot.*", sink)

        from repro.runtime.events import Event

        signal = Event(topic="hot.topic")

        def run_indexed() -> None:
            for _ in range(publishes):
                bus.publish(signal)

        def run_linear() -> None:
            for _ in range(publishes):
                linear.publish("hot.topic")

        indexed = measure(f"indexed[{count}]", run_indexed, repeat=5)
        scan = measure(f"linear[{count}]", run_linear, repeat=5)
        indexed_us = indexed.minimum / publishes * 1e6
        linear_us = scan.minimum / publishes * 1e6
        rows.append({
            "subscribers": count,
            "publishes": publishes,
            "indexed_us": indexed_us,
            "linear_scan_us": linear_us,
            "speedup": linear_us / indexed_us if indexed_us else 0.0,
        })
    return rows


def e1_quick_bench(*, repeat: int = 5) -> dict[str, Any]:
    """A quick E1 pass: mean broker-overhead latency across the
    communication scenarios (middleware-model load excluded)."""
    from repro.bench.workloads import COMMUNICATION_SCENARIOS

    scenarios: list[dict[str, Any]] = []
    model_total = 0.0
    hand_total = 0.0
    for scenario, steps in COMMUNICATION_SCENARIOS.items():
        def timed(factory: Callable[[], Any]) -> float:
            samples = []
            for _ in range(repeat):
                _broker, _service, runner = factory()
                start = time.perf_counter()
                runner.run(steps)
                samples.append(time.perf_counter() - start)
            return least_noise(samples)

        model_s = timed(fresh_model_based_broker)
        hand_s = timed(fresh_handcrafted_broker)
        model_total += model_s
        hand_total += hand_s
        scenarios.append({
            "scenario": scenario,
            "model_ms": model_s * 1000,
            "handcrafted_ms": hand_s * 1000,
            "overhead_pct": 100.0 * (model_s / hand_s - 1.0),
        })
    mean_overhead = (
        sum(row["overhead_pct"] for row in scenarios) / len(scenarios)
    )
    return {
        "scenarios": scenarios,
        "model_ms": model_total * 1000,
        "handcrafted_ms": hand_total * 1000,
        "mean_overhead_pct": mean_overhead,
    }


def e1_paired_bench(*, repeat: int = 15, aot: bool = False) -> dict[str, Any]:
    """E1 overhead via per-scenario noise-floor sampling, with Tier-3.

    Runs the eight communication scenarios on one warm broker pair per
    regime and reports the summed *per-scenario floors* (minimum over
    ``repeat`` samples, each timing ``passes`` steady passes) for each
    side, model-based minus handcrafted.  On a shared box, timing noise
    is strictly additive — preemption, cache eviction by neighbours,
    frequency dips all make a sample *slower*, never faster — so the
    minimum converges on the true cost while means and medians track
    whatever else the machine is doing (the rationale behind
    ``timeit``'s repeat/min idiom).  Sample order alternates per
    scenario so monotone drift cannot systematically favour one side's
    floor, and the per-scenario *median* of paired deltas is kept as a
    cross-check (``median_overhead_pct``): when the box is quiet the
    two estimators agree; when they diverge, ``delta_iqr_us`` and
    ``hand_spread_pct`` say why.

    Both sides run warm (an untimed full pass over every scenario
    first): every scenario tears its sessions down, so repeats start
    from equivalent state with route caches, metric instruments, and
    interned topic strings filled.  E1 compares the per-request price
    of a *running* middleware platform against the handcrafted
    baseline — charging the model-based side its one-time cache fills
    (which the cacheless handcrafted broker structurally cannot pay)
    would fold platform cold-start into a steady-state number.

    Two regimes, same contract as the PR 7 bench:

    * ``calibrated`` — ``CommService.DEFAULT_OP_COST``, the op-cost
      ratio fixed for E1/E3/E5 so simulated service work dominates the
      way real communication-framework calls did on the paper's
      testbed.  This is the **gated** number (the ISSUE's <=5% bar).
    * ``structural`` — ``op_cost=0``, the raw CPU price of the
      model-based dispatch machinery with nothing to hide behind.
      Diagnostic, not gated.
    """
    from repro.bench.workloads import COMMUNICATION_SCENARIOS

    scenario_steps = list(COMMUNICATION_SCENARIOS.values())
    n_steps = sum(len(steps) for steps in scenario_steps)

    #: steady passes timed per sample — stretches the timed region so
    #: perf_counter granularity and entry/exit jitter amortize.
    passes = 3

    def sweep(*, op_cost: float) -> dict[str, Any]:
        _b, _s, model_runner = fresh_model_based_broker(
            aot=aot, op_cost=op_cost
        )
        _hb, _hs, hand_runner = fresh_handcrafted_broker(op_cost=op_cost)
        for steps in scenario_steps:  # untimed warm-up, both sides
            model_runner.run(steps)
            hand_runner.run(steps)

        def sample(runner: ScenarioRunner, steps: Sequence[Step]) -> float:
            start = time.perf_counter()
            for _ in range(passes):
                runner.run(steps)
            return (time.perf_counter() - start) / passes

        hand_floor = model_floor = 0.0
        hand_med = delta_med = 0.0
        all_deltas: list[list[float]] = []
        all_hands: list[list[float]] = []
        for j, steps in enumerate(scenario_steps):
            models = [0.0] * repeat
            hands = [0.0] * repeat
            for i in range(repeat):
                # The two sides of a pair run milliseconds apart, so
                # slow drift cancels in the paired delta; alternating
                # order keeps drift within a pair unbiased.
                if (i + j) % 2 == 0:
                    hands[i] = sample(hand_runner, steps)
                    models[i] = sample(model_runner, steps)
                else:
                    models[i] = sample(model_runner, steps)
                    hands[i] = sample(hand_runner, steps)
            hand_floor += min(hands)
            model_floor += min(models)
            hand_med += statistics.median(hands)
            delta_med += statistics.median(
                m - h for m, h in zip(models, hands)
            )
            all_deltas.append([m - h for m, h in zip(models, hands)])
            all_hands.append(hands)
        delta_floor = model_floor - hand_floor
        sweep_deltas = sorted(
            sum(row[i] for row in all_deltas) for i in range(repeat)
        )
        quarter = max(1, len(sweep_deltas) // 4)
        sweep_hands = [sum(row[i] for row in all_hands) for i in range(repeat)]
        return {
            "op_cost": op_cost,
            "pairs_sampled": repeat,
            "timed_passes": passes,
            "handcrafted_ms": hand_floor * 1000,
            "model_ms": model_floor * 1000,
            "per_step_overhead_us": delta_floor / n_steps * 1e6,
            "overhead_pct": 100.0 * delta_floor / hand_floor,
            # cross-check estimator: per-scenario medians of paired
            # deltas (the PR 7 discipline).  Agrees with the floor on a
            # quiet box; diverges upward under contention.
            "median_overhead_pct": 100.0 * delta_med / hand_med,
            # measurement-quality indicators: noise shows up here.
            "delta_iqr_us": (
                sweep_deltas[-quarter - 1] - sweep_deltas[quarter]
            ) * 1e6,
            "hand_spread_pct": (
                100.0 * (max(sweep_hands) - min(sweep_hands)) / hand_floor
            ),
        }

    calibrated = sweep(op_cost=CommService.DEFAULT_OP_COST)
    structural = sweep(op_cost=0.0)
    return {
        "aot": aot,
        "steps_per_sweep": n_steps,
        "calibrated": calibrated,
        "structural": structural,
        "mean_overhead_pct": calibrated["overhead_pct"],
    }


def run(quick: bool = False) -> dict[str, Any]:
    """The signal-fabric report (``BENCH_PR1.json``); one size, so
    ``quick`` is ignored."""
    return {
        "bench": "PR1-signal-fabric",
        "python": sys.version.split()[0],
        "bus_scaling": bus_scaling_bench(),
        "e1": e1_quick_bench(),
    }


def check(report: dict[str, Any]) -> list[Check]:
    """The fabric report is a measurement record; it carries no gate."""
    return []
