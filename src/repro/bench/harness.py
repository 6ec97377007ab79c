"""Shared benchmark harness: scenario replay, timing, result tables.

The pytest-benchmark modules under ``benchmarks/`` and the report
modules beside this one use these helpers to replay workloads against
either Broker implementation, compare timed configurations through one
statistic (:func:`paired_overhead`: the median of per-round ratios,
with their interquartile range as its noise indicator), and print the
rows that EXPERIMENTS.md records.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Any, Callable, Iterable, Sequence

from repro.baselines.handcrafted_broker import HandcraftedBroker
from repro.bench.gates import Check
from repro.bench.workloads import Step
from repro.middleware.broker.layer import BrokerLayer
from repro.runtime.metrics import MetricsRegistry
from repro.sim.network import CommService

__all__ = [
    "BLOCKING_SECONDS_PER_UNIT",
    "ScenarioRunner",
    "blocking_work",
    "op_log_bytes",
    "timer",
    "paired_rounds",
    "overhead_stats",
    "paired_overhead",
    "ResultTable",
    "fresh_model_based_broker",
    "fresh_handcrafted_broker",
    "fresh_cvm_platform",
    "bus_scaling_bench",
    "e1_quick_bench",
    "e1_paired_bench",
    "run",
    "check",
]

#: seconds of blocking service time per op-cost unit.  With the
#: default op cost of 6.0 this is ~300 µs per service call — service
#: time dominates middleware CPU (the paper's Sec. VII-A regime) while
#: staying far below real network latencies, so full runs finish in
#: seconds.
BLOCKING_SECONDS_PER_UNIT = 50e-6


def blocking_work(
    cost: float, *, unit: float = BLOCKING_SECONDS_PER_UNIT
) -> None:
    """Simulated service work that *blocks* (sleeps, releasing the GIL)
    for ``cost`` op-cost units — pass as ``CommService(work=...)`` where
    parallel sessions must overlap their service time."""
    if cost > 0:
        time.sleep(cost * unit)


def op_log_bytes(op_log: Sequence[str]) -> bytes:
    """A service ``op_log`` as bytes: the byte-identity witness every
    correctness gate compares against its golden run."""
    return "\n".join(op_log).encode("utf-8")


class ScenarioRunner:
    """Replays workload scenario steps against one Broker implementation.

    The runner resolves symbolic connection ids to live session ids for
    failure injection; ``session_lookup`` abstracts over the two
    Brokers' state representations and defaults to the model-based
    Broker's (read through ``self.broker``, so a caller that swaps in a
    restored platform's broker keeps resolving against it).
    """

    def __init__(
        self,
        broker: Any,
        service: CommService,
        session_lookup: Callable[[str], str] | None = None,
    ) -> None:
        self.broker = broker
        self.service = service
        self.session_lookup = session_lookup
        self.steps_run = 0

    def _session(self, connection: str) -> str:
        if self.session_lookup is not None:
            return self.session_lookup(connection)
        return self.broker.state.get(f"session:{connection}")

    def run_step(self, step: Step) -> None:
        tag = step[0]
        if tag == "api":
            _tag, api, args = step
            self.broker.call_api(api, **args)
        elif tag == "fail":
            self.service.inject_failure(self._session(step[1]))
        elif tag == "recover":
            # Recovery is itself a broker responsibility.
            self.broker.call_api(
                "ncb.recover_session", session=self._session(step[1])
            )
        else:
            raise ValueError(f"unknown scenario step tag {tag!r}")
        self.steps_run += 1

    def run(self, steps: Sequence[Step]) -> None:
        for step in steps:
            self.run_step(step)


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
    return broker, service, ScenarioRunner(broker, service)


def fresh_handcrafted_broker(
    *, op_cost: float | None = None
) -> tuple[HandcraftedBroker, CommService, ScenarioRunner]:
    service = CommService("net0", op_cost=op_cost)
    broker = HandcraftedBroker(service)

    def lookup(connection: str) -> str:
        return broker.sessions[connection]

    return broker, service, ScenarioRunner(broker, service, lookup)


def fresh_cvm_platform(
    *,
    op_cost: float | None = None,
    work: Callable[[float], None] | None = None,
) -> tuple[Any, Any, ScenarioRunner]:
    """``(platform, dsk, runner)``: a started, full four-layer CVM
    platform and a runner driving its Broker.

    The fabric benches (checkpointing, the WAL, rebalancing) need the
    whole platform — snapshots capture every layer — rather than
    :func:`fresh_model_based_broker`'s broker-only stack.  The service
    takes ``op_cost`` (``None``: E1's calibrated cost) or a ``work``
    function (e.g. :func:`blocking_work`).  Autonomic recovery is off,
    as in E1: recovery runs through the explicit scenario step, keeping
    op_logs deterministic.
    """
    from repro.domains.communication.cml import cml_metamodel
    from repro.domains.communication.cvm import (
        build_middleware_model,
        default_context,
    )
    from repro.middleware.loader import DomainKnowledge, load_platform

    service = CommService("net0", op_cost=op_cost, work=work)
    dsk = DomainKnowledge(dsml=cml_metamodel(), resources=[service])
    platform = load_platform(build_middleware_model(), dsk)
    platform.broker.autonomic.enabled = False
    platform.controller.context.update(default_context())
    return platform, dsk, ScenarioRunner(platform.broker, service)


def timer(fn: Callable[[], Any]) -> Callable[[], float]:
    """A :func:`paired_rounds` side that times one call of ``fn``."""

    def side() -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    return side


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
    by :func:`overhead_stats` of the rounds rather than by statistics
    of sample blocks taken seconds apart.
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


def overhead_stats(pairs: Iterable[tuple[float, float]]) -> dict[str, Any]:
    """The one overhead statistic every paired timing check reports.

    ``pairs`` holds one ``(base, variant)`` sample per round, as
    :func:`paired_rounds` yields them.  ``overhead_pct`` is the median
    of the per-round ``variant / base - 1`` ratios, in percent; its
    noise indicator ``iqr_pct`` is their interquartile range, in
    percentage points.  ``base_s``/``variant_s`` are the per-side
    median samples, for tables.  Needs at least two rounds.
    """
    pairs = list(pairs)
    ratios = [100.0 * (variant / base - 1.0) for base, variant in pairs]
    q1, _q2, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {
        "overhead_pct": statistics.median(ratios),
        "iqr_pct": q3 - q1,
        "rounds": len(pairs),
        "base_s": statistics.median(base for base, _variant in pairs),
        "variant_s": statistics.median(variant for _base, variant in pairs),
    }


def paired_overhead(
    base: Callable[[], float],
    variant: Callable[[], float],
    *,
    rounds: int = 15,
) -> dict[str, Any]:
    """:func:`overhead_stats` of ``variant`` against ``base`` over
    :func:`paired_rounds` (two discarded warm-up rounds, then
    ``rounds`` alternating-order pairs).  Each side returns one timed
    sample in seconds; whatever it builds before starting its clock
    sets the regime (a fresh broker per sample is cold, a long-lived
    one warm)."""
    return overhead_stats(paired_rounds(base, variant, rounds=rounds))


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

        routing = paired_overhead(
            timer(run_indexed), timer(run_linear), rounds=5
        )
        rows.append({
            "subscribers": count,
            "publishes": publishes,
            "indexed_us": routing["base_s"] / publishes * 1e6,
            "linear_scan_us": routing["variant_s"] / publishes * 1e6,
            "speedup": 1.0 + routing["overhead_pct"] / 100.0,
            "iqr_pct": routing["iqr_pct"],
        })
    return rows


def e1_quick_bench(*, rounds: int = 15) -> dict[str, Any]:
    """E1 cold, in the calibrated regime: per scenario, the model-based
    Broker's :func:`paired_overhead` against the handcrafted one.

    Each sample replays one scenario on a freshly built broker, with
    construction outside the clock (the paper excludes middleware-model
    load time).  ``mean_overhead_pct`` averages the eight scenarios'
    medians — the paper's "on average" figure.  Each row also records
    whether the two Brokers left equal op_logs (E5).
    """
    from repro.bench.workloads import COMMUNICATION_SCENARIOS

    scenarios: list[dict[str, Any]] = []
    for scenario, steps in COMMUNICATION_SCENARIOS.items():
        op_logs: dict[str, list[str]] = {}

        def side(
            label: str, factory: Callable[[], Any]
        ) -> Callable[[], float]:
            def sample() -> float:
                _broker, service, runner = factory()
                start = time.perf_counter()
                runner.run(steps)
                elapsed = time.perf_counter() - start
                op_logs[label] = service.op_log
                return elapsed

            return sample

        row = paired_overhead(
            side("handcrafted", fresh_handcrafted_broker),
            side("model", fresh_model_based_broker),
            rounds=rounds,
        )
        scenarios.append({
            "scenario": scenario,
            "model_ms": row["variant_s"] * 1000,
            "handcrafted_ms": row["base_s"] * 1000,
            "overhead_pct": row["overhead_pct"],
            "iqr_pct": row["iqr_pct"],
            "op_logs_equal": op_logs["model"] == op_logs["handcrafted"],
        })
    return {
        "rounds": rounds,
        "scenarios": scenarios,
        "model_ms": sum(row["model_ms"] for row in scenarios),
        "handcrafted_ms": sum(row["handcrafted_ms"] for row in scenarios),
        "mean_overhead_pct": statistics.fmean(
            row["overhead_pct"] for row in scenarios
        ),
    }


def e1_paired_bench(*, rounds: int = 25, aot: bool = False) -> dict[str, Any]:
    """E1 warm: :func:`paired_overhead` of a model-based Broker (with
    Tier-3 installed when ``aot``) against the handcrafted one, each
    sample one pass over all eight scenarios on a long-lived broker.

    Both sides run warm — the two discarded warm-up rounds fill route
    caches, metric instruments and interned topic strings, and every
    scenario tears its sessions down, so passes start from equivalent
    state.  E1 here prices a *running* platform per request; charging
    the model side its one-time cache fills (which the cacheless
    handcrafted broker cannot pay) would fold cold start into a
    steady-state number.

    Two regimes: ``calibrated`` (``CommService.DEFAULT_OP_COST``, the
    op-cost ratio fixed for E1/E3/E5 so simulated service work
    dominates the way real communication-framework calls did on the
    paper's testbed) is the gated figure; ``structural``
    (``op_cost=0``) is the raw CPU price of model-based dispatch,
    diagnostic only.
    """
    from repro.bench.workloads import COMMUNICATION_SCENARIOS

    scenario_steps = list(COMMUNICATION_SCENARIOS.values())
    n_steps = sum(len(steps) for steps in scenario_steps)

    def sweep(*, op_cost: float) -> dict[str, Any]:
        _b, _s, model = fresh_model_based_broker(aot=aot, op_cost=op_cost)
        _hb, _hs, hand = fresh_handcrafted_broker(op_cost=op_cost)

        def side(runner: ScenarioRunner) -> Callable[[], float]:
            def sweep_pass() -> None:
                for steps in scenario_steps:
                    runner.run(steps)

            return timer(sweep_pass)

        result = paired_overhead(side(hand), side(model), rounds=rounds)
        return {
            "op_cost": op_cost,
            **result,
            "per_step_overhead_us": (
                (result["variant_s"] - result["base_s"]) / n_steps * 1e6
            ),
        }

    calibrated = sweep(op_cost=CommService.DEFAULT_OP_COST)
    return {
        "aot": aot,
        "steps_per_sweep": n_steps,
        "calibrated": calibrated,
        "structural": sweep(op_cost=0.0),
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
