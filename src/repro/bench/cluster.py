"""PR 9 cluster benchmark: the multi-process session fabric.

Four sections, correctness gated before speed is reported:

* **throughput** — the 200-interleaved-session communication workload
  (the PR 4 scale bench's shape) replayed against a
  :class:`~repro.runtime.cluster.ProcessCluster` of 1/2/4 worker
  processes, with the per-session ``op_log``s of every cluster run
  required to be byte-identical to a deterministic in-process run of
  the *same* worker backend.  The headline gate: >= 3x session-step
  throughput at 4 workers vs 1.
* **migration** — each of the four shipped domains' two-phase session
  is live-migrated *across the process boundary* between the phases
  (quiesce -> capture -> restore on the other worker -> drop), and
  must finish with an op_log byte-identical to the uninterrupted
  in-process golden run.
* **fault** — one worker is SIGKILLed mid-workload: every in-flight
  future must resolve with a *typed* REJECTED outcome
  (``ShedReason.WORKER_DEAD``), never hang or leak a raw
  ``ConnectionError``; the supervisor respawns the worker, lost
  sessions are restored from their pre-fault captures, the interrupted
  phase is resubmitted, and the final op_logs must equal the golden.
* **determinism** — a seeded shuffle of the cross-session submission
  order (per-session order preserved) run twice must produce op_logs
  identical to each other and to the golden: frame ordering across
  sessions is free, per-session FIFO is what determinism rests on.

``repro bench cluster`` writes ``BENCH_PR9.json`` and checks it
(``--quick`` shrinks the workload for CI).
"""

from __future__ import annotations

import random
import sys
import time
from functools import partial
from typing import Any

from repro.bench.gates import Check, compare, holds, is_quick
from repro.bench.harness import (
    BLOCKING_SECONDS_PER_UNIT,
    blocking_work,
    op_log_bytes,
)
from repro.bench.scale import build_workload
from repro.bench.workloads import Step

__all__ = [
    "backend",
    "step_doc",
    "inline_golden",
    "throughput_bench",
    "cross_process_migration_bench",
    "fault_bench",
    "determinism_bench",
    "run",
    "check",
]

#: throughput acceptance bar at 4 worker processes vs 1.
SPEEDUP_GATE = 3.0

#: the domain name the throughput/fault/determinism sessions run in.
BENCH_DOMAIN = "bench-comm"

#: open doc shared by every bench session: autonomic recovery off so
#: op_logs are deterministic (recovery runs through explicit steps).
OPEN_DOC = {"domain": BENCH_DOMAIN, "autonomic": False}

#: blocking seconds per op-cost unit for the cluster bench service.
#: Four times the scale bench's unit (~1.2 ms per service call at the
#: default op cost): service time must dominate the coordinator's
#: per-frame cost for the scaling claim to be about the fabric, not
#: about JSON encoding — this is still far below the real network
#: latencies of the paper's testbed regime.
CLUSTER_SECONDS_PER_UNIT = 4 * BLOCKING_SECONDS_PER_UNIT


class _BenchCommEntry:
    """DSK registry entry for the blocking-service communication domain."""

    name = BENCH_DOMAIN

    @property
    def context(self) -> dict[str, Any]:
        from repro.domains.communication.cvm import default_context

        return default_context()

    def service(self) -> Any:
        from repro.sim.network import CommService

        return CommService(
            "net0", work=partial(blocking_work, unit=CLUSTER_SECONDS_PER_UNIT)
        )

    def knowledge(self, service: Any) -> Any:
        from repro.domains.communication.cml import cml_metamodel
        from repro.middleware.loader import DomainKnowledge

        return DomainKnowledge(dsml=cml_metamodel(), resources=[service])

    def middleware(self) -> Any:
        from repro.domains.communication.cvm import build_middleware_model

        return build_middleware_model()


def backend():
    """Worker backend factory: the ``"repro.bench.cluster:backend"`` spec.

    The four shipped domains plus the blocking-service bench domain.
    """
    from repro.middleware.cluster import RegistryBackend, default_registry

    registry = default_registry()
    registry.register(_BenchCommEntry())
    return RegistryBackend(registry)


def step_doc(step: Step) -> dict[str, Any]:
    """One scenario step as a portable session-op doc."""
    tag = step[0]
    if tag == "api":
        return {"op": "api", "api": step[1], "args": step[2]}
    if tag == "fail":
        return {"op": "fail", "conn": step[1]}
    if tag == "recover":
        return {"op": "recover", "conn": step[1]}
    raise ValueError(f"unknown scenario step tag {tag!r}")


def _describe_log(target: Any, key: str) -> bytes:
    """The op_log witness of one session's ``describe`` (one service)."""
    (log,) = target.describe(key)["op_logs"].values()
    return op_log_bytes(log)


def inline_golden(specs: list) -> dict[str, bytes]:
    """Deterministic in-process run of the worker backend itself.

    Same backend class, same docs, same round-robin interleaving — no
    processes, no sockets, no threads.  The cluster runs must reproduce
    these op_logs byte for byte.
    """
    target = backend()
    try:
        for spec in specs:
            target.open(spec.key, OPEN_DOC)
        max_steps = max(len(spec.steps) for spec in specs)
        for step_index in range(max_steps):
            for spec in specs:
                if step_index < len(spec.steps):
                    target.apply(spec.key, step_doc(spec.steps[step_index]))
        return {spec.key: _describe_log(target, spec.key) for spec in specs}
    finally:
        for spec in specs:
            target.close(spec.key)


def _open_all(cluster, specs, *, timeout: float = 300.0) -> None:
    futures = [cluster.open_session(spec.key, OPEN_DOC) for spec in specs]
    for future in futures:
        future.result(timeout).unwrap()


def _collect_logs(cluster, specs) -> dict[str, bytes]:
    return {spec.key: _describe_log(cluster, spec.key) for spec in specs}


def _check_logs(op_logs: dict[str, bytes], golden: dict[str, bytes],
                label: str) -> None:
    mismatched = [key for key in golden if op_logs.get(key) != golden[key]]
    if mismatched:
        raise RuntimeError(
            f"op_log divergence ({label}): {mismatched[:5]} "
            f"(of {len(mismatched)})"
        )


# -- throughput ---------------------------------------------------------------


def _cluster_run(specs: list, workers: int) -> dict[str, Any]:
    """Replay ``specs`` round-robin on a cluster of ``workers`` processes."""
    from repro.runtime.cluster import ProcessCluster

    cluster = ProcessCluster(
        workers, backend="repro.bench.cluster:backend",
        name=f"bench-cluster-{workers}w",
    ).start()
    try:
        _open_all(cluster, specs)
        start = time.perf_counter()
        futures = []
        max_steps = max(len(spec.steps) for spec in specs)
        # Round-robin pipelined posting, the scale bench's interleaving:
        # step k of every session is framed before step k+1 of any.
        for step_index in range(max_steps):
            for spec in specs:
                if step_index < len(spec.steps):
                    futures.append(cluster.submit(
                        spec.key, step_doc(spec.steps[step_index])
                    ))
        outcomes = [future.result(600) for future in futures]
        elapsed = time.perf_counter() - start
        failed = [outcome for outcome in outcomes if not outcome.ok]
        if failed:
            raise RuntimeError(
                f"{len(failed)} step(s) failed at {workers} worker(s); "
                f"first: {failed[0].summary()}"
            )
        op_logs = _collect_logs(cluster, specs)
        stats = cluster.stats()
    finally:
        cluster.stop()
    steps_total = sum(len(spec.steps) for spec in specs)
    return {
        "workers": workers,
        "sessions": len(specs),
        "steps": steps_total,
        "elapsed_s": elapsed,
        "steps_per_s": steps_total / elapsed,
        "sessions_per_s": len(specs) / elapsed,
        "restarts": stats["restarts"],
        "op_logs": op_logs,
    }


def throughput_bench(
    *, sessions: int = 200, worker_counts: tuple[int, ...] = (1, 2, 4)
) -> dict[str, Any]:
    """The cluster scale curve, gated on op_log byte-equivalence."""
    specs = build_workload(sessions)
    golden = inline_golden(specs)

    rows: list[dict[str, Any]] = []
    for workers in worker_counts:
        result = _cluster_run(specs, workers)
        _check_logs(result.pop("op_logs"), golden, f"{workers} worker(s)")
        result["op_logs_identical"] = True
        rows.append(result)

    by_workers = {row["workers"]: row for row in rows}
    speedup = None
    if 1 in by_workers and 4 in by_workers:
        speedup = by_workers[4]["steps_per_s"] / by_workers[1]["steps_per_s"]
    return {
        "sessions": sessions,
        "runs": rows,
        "speedup_steps_4_workers_vs_1": speedup,
        "meets_3x_at_4_workers": speedup is not None and speedup >= SPEEDUP_GATE,
    }


# -- cross-process live migration --------------------------------------------


def cross_process_migration_bench() -> dict[str, Any]:
    """Migrate each domain's session across the process boundary."""
    from repro.bench.migrate import golden_logs
    from repro.cases import domain_cases
    from repro.modeling.serialize import model_to_dict
    from repro.runtime.cluster import ProcessCluster

    cases = domain_cases()
    golden = golden_logs(cases)

    rows: list[dict[str, Any]] = []
    cluster = ProcessCluster(
        2, backend="repro.middleware.cluster:default_backend",
        name="bench-xmigrate",
    ).start()
    try:
        for case in cases:
            key = f"{case.name}-session"
            target = 1 - cluster.worker_for(key)
            cluster.open_session(key, {"domain": case.name}).result(120).unwrap()
            cluster.call(
                key,
                {"op": "run_model", "model": model_to_dict(case.phase1())},
                timeout=120,
            )
            start = time.perf_counter()
            cluster.migrate(key, target, timeout=120)
            pause = time.perf_counter() - start
            if cluster.worker_for(key) != target:
                raise RuntimeError(
                    f"domain {case.name!r}: route did not re-point "
                    f"{key!r} to worker {target}"
                )
            cluster.call(
                key,
                {"op": "run_model", "model": model_to_dict(case.phase2())},
                timeout=120,
            )
            log = _describe_log(cluster, key)
            if log != golden[case.name]:
                raise RuntimeError(
                    f"domain {case.name!r}: op_log after cross-process "
                    f"migration diverged from the uninterrupted run"
                )
            cluster.close_session(key)
            rows.append({
                "domain": case.name,
                "op_log_identical": True,
                "pause_ms": pause * 1000,
            })
    finally:
        cluster.stop()
    return {"domains": rows, "all_identical": True}


# -- kill-a-worker fault injection -------------------------------------------


def fault_bench(*, sessions: int = 8) -> dict[str, Any]:
    """SIGKILL a worker mid-workload; recover to byte-identical logs."""
    from repro.runtime.cluster import ProcessCluster
    from repro.runtime.faults import InvocationOutcome
    from repro.runtime.ingress import IngressRejected, ShedReason

    specs = build_workload(sessions)
    golden = inline_golden(specs)
    split = {
        spec.key: (spec.steps[: len(spec.steps) // 2],
                   spec.steps[len(spec.steps) // 2:])
        for spec in specs
    }

    cluster = ProcessCluster(
        2, backend="repro.bench.cluster:backend", name="bench-fault",
    ).start()
    unresolved = 0
    untyped: list[str] = []
    try:
        _open_all(cluster, specs)
        # Phase A, then a barrier, then capture every session.
        phase_a = []
        for spec in specs:
            for step in split[spec.key][0]:
                phase_a.append(cluster.submit(spec.key, step_doc(step)))
        for future in phase_a:
            future.result(300).unwrap()
        captures = {spec.key: cluster.capture(spec.key, timeout=300)
                    for spec in specs}

        # Kill whichever worker hosts the most sessions.
        homes = [cluster.worker_for(spec.key) for spec in specs]
        victim = max(set(homes), key=homes.count)
        victim_keys = [spec.key for spec in specs
                       if cluster.worker_for(spec.key) == victim]

        # Phase B pipelined, kill the victim mid-stream.
        phase_b: dict[str, list] = {spec.key: [] for spec in specs}
        max_b = max(len(parts[1]) for parts in split.values())
        for step_index in range(max_b):
            for spec in specs:
                steps = split[spec.key][1]
                if step_index < len(steps):
                    phase_b[spec.key].append(
                        cluster.submit(spec.key, step_doc(steps[step_index]))
                    )
        cluster.kill_worker(victim)

        rejected = 0
        for key, futures in phase_b.items():
            for future in futures:
                try:
                    outcome = future.result(120)
                except Exception:  # a hung or raising future: the failure mode
                    unresolved += 1
                    continue
                if outcome.status == InvocationOutcome.REJECTED:
                    error = outcome.error
                    if (isinstance(error, IngressRejected)
                            and error.reason == ShedReason.WORKER_DEAD):
                        rejected += 1
                    else:
                        untyped.append(repr(error))
                elif not outcome.ok:
                    untyped.append(repr(outcome.error))
        if unresolved or untyped:
            raise RuntimeError(
                f"kill-a-worker fault leaked: {unresolved} unresolved "
                f"future(s), {len(untyped)} untyped failure(s): {untyped[:3]}"
            )

        # Supervisor respawns the victim; restore its sessions from the
        # pre-fault captures and resubmit their phase B exactly once.
        if not cluster.wait_worker(victim, timeout=60):
            raise RuntimeError("victim worker did not respawn")
        for key in victim_keys:
            cluster.restore_session(key, captures[key], worker=victim,
                                    timeout=300)
            for step in split[key][1]:
                cluster.call(key, step_doc(step), timeout=300)

        _check_logs(_collect_logs(cluster, specs), golden, "fault recovery")
        stats = cluster.stats()
    finally:
        cluster.stop()
    return {
        "sessions": sessions,
        "victim_sessions": len(victim_keys),
        "rejected_worker_dead": rejected,
        "unresolved_futures": 0,
        "untyped_failures": 0,
        "deaths": stats["deaths"],
        "restarts": stats["restarts"],
        "op_logs_identical": True,
    }


# -- seeded frame-ordering determinism ---------------------------------------


def determinism_bench(*, sessions: int = 8, seed: int = 20260808,
                      runs: int = 2) -> dict[str, Any]:
    """Shuffle cross-session frame order (seeded); op_logs must not move."""
    from repro.runtime.cluster import ProcessCluster

    specs = build_workload(sessions)
    golden = inline_golden(specs)

    # A seeded multiset shuffle of session keys: per-session step order
    # is preserved (each occurrence submits that session's next step),
    # cross-session interleaving is randomized but reproducible.
    order = [spec.key for spec in specs for _ in spec.steps]
    random.Random(seed).shuffle(order)
    steps_by_key = {spec.key: list(spec.steps) for spec in specs}

    logs: list[dict[str, bytes]] = []
    for _ in range(runs):
        cluster = ProcessCluster(
            2, backend="repro.bench.cluster:backend", name="bench-seeded",
        ).start()
        try:
            _open_all(cluster, specs)
            cursors = {key: 0 for key in steps_by_key}
            futures = []
            for key in order:
                step = steps_by_key[key][cursors[key]]
                cursors[key] += 1
                futures.append(cluster.submit(key, step_doc(step)))
            for future in futures:
                future.result(300).unwrap()
            logs.append(_collect_logs(cluster, specs))
        finally:
            cluster.stop()

    for index, run_logs in enumerate(logs):
        _check_logs(run_logs, golden, f"seeded run {index}")
    if any(run_logs != logs[0] for run_logs in logs[1:]):
        raise RuntimeError("seeded runs diverged from each other")
    return {
        "sessions": sessions,
        "seed": seed,
        "runs": runs,
        "op_logs_identical": True,
    }


# -- report ------------------------------------------------------------------


def run(quick: bool = False) -> dict[str, Any]:
    """The process-fabric report (``BENCH_PR9.json``)."""
    return {
        "bench": "PR9-process-fabric",
        "python": sys.version.split()[0],
        "quick": quick,
        "throughput": throughput_bench(
            sessions=24 if quick else 200,
            worker_counts=(1, 2) if quick else (1, 2, 4),
        ),
        "migration": cross_process_migration_bench(),
        "fault": fault_bench(sessions=6 if quick else 8),
        "determinism": determinism_bench(sessions=6 if quick else 8),
    }


def check(report: dict[str, Any]) -> list[Check]:
    """Every cluster run byte-identical to the inline run, cross-process
    migration in all four domains, a SIGKILLed worker surfacing only as
    typed rejections with one restart, and seeded reordering changing
    nothing.  The 4-worker speedup gate holds on full runs only (shared
    two-core runners cannot show it)."""
    runs = report["throughput"]["runs"]
    migration = report["migration"]
    fault = report["fault"]
    lines = [
        holds("every run's op_logs identical to inline",
              all(run["op_logs_identical"] for run in runs)),
        compare("worker restarts during throughput runs",
                sum(run["restarts"] for run in runs), "==", 0),
        holds("op_logs identical after cross-process migration",
              migration["all_identical"]),
        compare("domains migrated", len(migration["domains"]), "==", 4),
        holds("worker kill: op_logs identical", fault["op_logs_identical"]),
        compare("worker kill: unresolved futures",
                fault["unresolved_futures"], "==", 0),
        compare("worker kill: untyped failures",
                fault["untyped_failures"], "==", 0),
        compare("worker kill: typed WORKER_DEAD rejections",
                fault["rejected_worker_dead"], ">", 0),
        compare("worker kill: (deaths, restarts)",
                (fault["deaths"], fault["restarts"]), "==", (1, 1)),
        holds("seeded frame reordering: op_logs identical",
              report["determinism"]["op_logs_identical"]),
    ]
    if not is_quick(report):
        lines.append(compare(
            "step throughput at 4 workers vs 1 (x)",
            report["throughput"]["speedup_steps_4_workers_vs_1"], ">=",
            SPEEDUP_GATE,
        ))
    return lines
