"""PR 4 scale benchmark: the sharded session fabric under load.

Replays a multi-session CVM workload — ``--sessions`` (default 200)
concurrent communication sessions, each running one of the eight E1
scenarios against its own model-based NCB Broker over a simulated
service — on :class:`~repro.runtime.sharded.ShardedRuntime` fabrics of
1/2/4/8 shards, and reports aggregate throughput (sessions/sec and
signals/sec) per shard count.

Fidelity rules:

* Sessions are *interleaved*, not run-to-completion: every session's
  steps are posted round-robin, so hundreds of sessions are genuinely
  in flight at once on each shard (strict per-session ordering is
  guaranteed by shard-mailbox FIFO plus key affinity).
* The simulated service charges a *blocking* per-operation cost
  (``time.sleep``), modeling the paper's testbed where real
  communication-framework calls dominate — the regime in which a
  session fabric must scale.  Python-side middleware work still
  contends on the GIL, so the measured speedup is an honest composite.
* Correctness is checked before speed is reported: the per-session
  ``op_log``s of every sharded run must be byte-identical to the
  single-shard *inline* (deterministic, no threads) run.
* Each session completion is routed to an aggregator shard through the
  batched cross-shard forwarding channel, so the channel is exercised
  under full load and completions are double-counted against futures.

``repro bench scale`` writes ``BENCH_PR4.json`` and checks it
(``--quick`` shrinks the workload for CI).
"""

from __future__ import annotations

import sys
import time
from typing import Any

from repro.bench.gates import Check, bound, compare, holds
from repro.bench.harness import ScenarioRunner, blocking_work, op_log_bytes
from repro.bench.workloads import COMMUNICATION_SCENARIOS, Step

__all__ = [
    "SessionSpec",
    "build_workload",
    "run_fabric",
    "scale_bench",
    "run",
    "check",
]

#: the shard counts the scale curve is measured at.
SHARD_COUNTS = (1, 2, 4, 8)

#: session key whose shard aggregates cross-shard completion signals.
AGGREGATOR_KEY = "fabric-aggregator"


class SessionSpec:
    """One platform session: a key and the scenario it replays."""

    __slots__ = ("key", "scenario", "steps")

    def __init__(self, key: str, scenario: str, steps: list[Step]) -> None:
        self.key = key
        self.scenario = scenario
        self.steps = steps


def build_workload(sessions: int) -> list[SessionSpec]:
    """``sessions`` session specs cycling through the eight scenarios."""
    names = list(COMMUNICATION_SCENARIOS)
    return [
        SessionSpec(
            key=f"session-{index:04d}",
            scenario=names[index % len(names)],
            steps=COMMUNICATION_SCENARIOS[names[index % len(names)]],
        )
        for index in range(sessions)
    ]


class _SessionState(ScenarioRunner):
    """A live session: its own blocking service + model-based Broker.

    The service and broker are private per session (isolated
    ``op_log``, no cross-session ``resource.*`` cross-talk); the
    broker's metrics registry is the owning *shard's*, so fabric-wide
    aggregation needs no extra synchronization on the hot path.
    """

    def __init__(self, spec: SessionSpec, metrics: Any) -> None:
        from repro.domains.communication.cml import cml_metamodel
        from repro.domains.communication.cvm import build_middleware_model
        from repro.middleware.loader import DomainKnowledge, load_platform
        from repro.sim.network import CommService

        service = CommService("net0", work=blocking_work)
        knowledge = DomainKnowledge(dsml=cml_metamodel(), resources=[service])
        platform = load_platform(
            build_middleware_model(),
            knowledge,
            start=False,
            metrics=metrics,
        )
        broker = platform.broker
        assert broker is not None
        # Same configuration as the E1 harness: recovery runs through
        # the explicit scenario step, keeping op_logs deterministic.
        broker.autonomic.enabled = False
        broker.start()
        super().__init__(broker, service)
        self.spec = spec
        self.done = False


def run_fabric(
    specs: list[SessionSpec], *, shards: int, inline: bool = False
) -> dict[str, Any]:
    """Execute ``specs`` on a fabric of ``shards`` shards.

    Returns timing plus the per-session op_logs.  Session state is
    prepared (brokers loaded) outside the timed region — the fabric is
    measured on steady-state signal processing, the load the paper's
    middleware serves, not on middleware-model bootstrapping.
    """
    from repro.runtime.sharded import ShardedRuntime

    runtime = ShardedRuntime(shards, name="bench-scale", inline=inline)
    states = {
        spec.key: _SessionState(
            spec, runtime.shard_for(spec.key).metrics
        )
        for spec in specs
    }
    completions: list[Any] = []
    aggregator = runtime.shard_for(AGGREGATOR_KEY)
    aggregator.bus.subscribe("fabric.session.done", completions.append)

    published_before = 0  # preparation publishes resource registrations
    runtime.start()
    try:
        published_before = _published(runtime)
        start = time.perf_counter()
        max_steps = max(len(spec.steps) for spec in specs)
        # Round-robin posting: step k of every session enqueues before
        # step k+1 of any — hundreds of sessions genuinely in flight.
        for step_index in range(max_steps):
            for spec in specs:
                if step_index >= len(spec.steps):
                    continue
                state = states[spec.key]
                step = spec.steps[step_index]
                last = step_index == len(spec.steps) - 1
                runtime.post(
                    spec.key,
                    lambda s=state, st=step, last=last: _run_step(
                        runtime, s, st, last
                    ),
                )
        if inline:
            runtime.drain()
        runtime.stop()  # deterministic drain: joins all shard pumps
        elapsed = time.perf_counter() - start
    finally:
        if runtime.started:
            runtime.stop()
    published = _published(runtime) - published_before

    failures = [s for s in states.values() if not s.done]
    if failures:
        raise RuntimeError(
            f"{len(failures)} session(s) did not complete: "
            f"{[s.spec.key for s in failures[:5]]}"
        )
    if len(completions) != len(specs):
        raise RuntimeError(
            f"aggregator saw {len(completions)} completions for "
            f"{len(specs)} sessions"
        )
    task_errors = sum(len(s.task_errors) for s in runtime.shards)
    if task_errors:
        raise RuntimeError(f"{task_errors} shard task error(s)")
    steps_total = sum(len(spec.steps) for spec in specs)
    return {
        "shards": shards,
        "inline": inline,
        "sessions": len(specs),
        "steps": steps_total,
        "elapsed_s": elapsed,
        "sessions_per_s": len(specs) / elapsed,
        "signals_per_s": published / elapsed,
        "published_signals": published,
        "channel": runtime.channel.stats(),
        "op_logs": {
            key: op_log_bytes(s.service.op_log) for key, s in states.items()
        },
    }


def _run_step(runtime: Any, state: _SessionState, step: Step, last: bool) -> None:
    state.run_step(step)
    if last:
        state.done = True
        from repro.runtime.events import Event

        done = Event(
            topic="fabric.session.done",
            payload={"session": state.spec.key,
                     "scenario": state.spec.scenario},
            origin=state.spec.key,
        )
        # Cross-shard signals ride the batched forwarding channel;
        # same-shard completions publish directly.
        runtime.route_signal(done, key=AGGREGATOR_KEY)


def _published(runtime: Any) -> int:
    """Total signals published across all shard buses and session
    buses (every session bus reports into its shard's registry)."""
    total = 0
    for shard in runtime.shards:
        for name, _label, value in shard.metrics.counters():
            if name == "bus.publish":
                total += value
    return total


def scale_bench(
    *,
    sessions: int = 200,
    shard_counts: tuple[int, ...] = SHARD_COUNTS,
) -> dict[str, Any]:
    """The scale curve: inline baseline + threaded runs per shard count."""
    specs = build_workload(sessions)

    # Deterministic single-shard inline run: the golden op_logs.
    baseline = run_fabric(specs, shards=1, inline=True)
    golden = baseline.pop("op_logs")

    rows: list[dict[str, Any]] = []
    for shards in shard_counts:
        result = run_fabric(specs, shards=shards)
        op_logs = result.pop("op_logs")
        mismatched = [
            key for key in golden if op_logs.get(key) != golden[key]
        ]
        if mismatched:
            raise RuntimeError(
                f"op_log divergence at {shards} shard(s): "
                f"{mismatched[:5]} (of {len(mismatched)})"
            )
        result["op_logs_identical"] = True
        rows.append(result)

    by_shards = {row["shards"]: row for row in rows}
    speedup_4x = None
    if 1 in by_shards and 4 in by_shards:
        speedup_4x = (
            by_shards[4]["signals_per_s"] / by_shards[1]["signals_per_s"]
        )
    baseline.pop("inline", None)
    return {
        "sessions": sessions,
        "scenarios": len(COMMUNICATION_SCENARIOS),
        "inline_baseline": baseline,
        "runs": rows,
        "speedup_signals_4_shards_vs_1": speedup_4x,
        "meets_2x_at_4_shards": (
            speedup_4x is not None and speedup_4x >= 2.0
        ),
    }


def run(quick: bool = False) -> dict[str, Any]:
    """The sharded-fabric scale report (``BENCH_PR4.json``)."""
    return {
        "bench": "PR4-sharded-fabric",
        "python": sys.version.split()[0],
        "quick": quick,
        "scale": scale_bench(
            sessions=64 if quick else 200,
            shard_counts=(1, 2, 4) if quick else SHARD_COUNTS,
        ),
    }


def check(report: dict[str, Any]) -> list[Check]:
    """Every sharded run matches the inline op_logs and drains its
    forwarding channel; 4 shards reach 2x the 1-shard signal throughput
    (1.3x on ``--quick``: shared runners may be core-limited)."""
    runs = report["scale"]["runs"]
    return [
        holds("every run's op_logs identical to inline",
              all(run["op_logs_identical"] for run in runs)),
        compare("signals left in forwarding channels",
                sum(run["channel"]["pending"] for run in runs), "==", 0),
        compare(
            "signal throughput at 4 shards vs 1 (x)",
            report["scale"]["speedup_signals_4_shards_vs_1"], ">=",
            bound(report, quick=1.3, full=2.0),
        ),
    ]
