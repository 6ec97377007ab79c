"""PR 10 benchmark: durability by default across the fabric.

Three sections, correctness gated before anything is reported:

* **adoption** — a 4-worker cluster with default (WAL-on) worker
  durability and segment log shipping runs a mixed workload: one
  two-phase ``run_model`` session per shipped domain plus a block of
  multi-step communication sessions.  One worker is SIGKILLed
  mid-phase-B; the coordinator's :class:`LogShipper` must adopt every
  lost session onto a standby from the shipped checkpoint + WAL tail,
  unacknowledged in-flight steps must surface as *typed* REJECTED
  outcomes (resubmitted exactly once), and the final op_logs must be
  byte-identical to an uninterrupted inline run — across all four
  domains.
* **e1** — the durable shard's E1 overhead at the default policy,
  from the same function as ``repro bench wal``'s E1 line
  (:func:`repro.bench.wal.e1_overhead_bench`).  Gate: <= 5% on full
  runs.  Beside it, a diagnostic end-to-end pair: a default-durability
  :class:`PlatformPool` against a ``durability="off"`` one.
* **slice** — sessions on a durable pool emit cross-shard events
  derived from their write-ahead entries (``doc["emit"]``); every
  logged multi-signal trace is reassembled from the union of
  per-shard logs and re-executed, and the replay must reproduce each
  logged sub-DAG exactly (see :mod:`repro.runtime.walslice`).

``repro bench walfabric`` writes ``BENCH_PR10.json`` and checks it
(``--quick`` shrinks the workload for CI).
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.bench.cluster import (
    OPEN_DOC,
    _check_logs,
    _collect_logs,
    _describe_log,
    backend,
    step_doc,
)
from repro.bench.gates import Check, compare, holds, is_quick
from repro.bench.harness import paired_overhead
from repro.bench.scale import build_workload
from repro.bench.wal import OVERHEAD_GATE_PCT, e1_overhead_bench

__all__ = [
    "adoption_bench",
    "pool_fabric_bench",
    "slice_replay_bench",
    "run",
    "check",
]


# -- standby adoption after SIGKILL ------------------------------------------


def _mixed_workload(comm_sessions: int) -> list[tuple[str, dict, list, list]]:
    """``(key, open_doc, phase_a_docs, phase_b_docs)`` per session:
    one two-phase model session per shipped domain, plus
    ``comm_sessions`` multi-step communication sessions."""
    from repro.cases import domain_cases
    from repro.modeling.serialize import model_to_dict

    items: list[tuple[str, dict, list, list]] = []
    for case in domain_cases():
        items.append((
            f"{case.name}-dur",
            {"domain": case.name, "autonomic": False},
            [{"op": "run_model", "model": model_to_dict(case.phase1())}],
            [{"op": "run_model", "model": model_to_dict(case.phase2())}],
        ))
    for spec in build_workload(comm_sessions):
        half = len(spec.steps) // 2
        items.append((
            spec.key,
            OPEN_DOC,
            [step_doc(step) for step in spec.steps[:half]],
            [step_doc(step) for step in spec.steps[half:]],
        ))
    return items


def _inline_golden(workload: list) -> dict[str, bytes]:
    """Uninterrupted single-process run of the same backend and docs."""
    target = backend()
    try:
        for key, open_doc, _a, _b in workload:
            target.open(key, open_doc)
        for phase in (2, 3):
            max_steps = max(len(item[phase]) for item in workload)
            for step_index in range(max_steps):
                for item in workload:
                    docs = item[phase]
                    if step_index < len(docs):
                        target.apply(item[0], docs[step_index])
        return {item[0]: _describe_log(target, item[0]) for item in workload}
    finally:
        for item in workload:
            target.close(item[0])


def adoption_bench(*, comm_sessions: int = 8) -> dict[str, Any]:
    """SIGKILL a worker mid-workload; a standby must adopt every lost
    session from the shipped WAL + checkpoint, byte-identically."""
    from repro.runtime.cluster import ProcessCluster
    from repro.runtime.faults import InvocationOutcome
    from repro.runtime.ingress import IngressRejected, ShedReason

    workload = _mixed_workload(comm_sessions)
    golden = _inline_golden(workload)
    keys = [item[0] for item in workload]

    cluster = ProcessCluster(
        4, backend="repro.bench.cluster:backend", name="bench-walfabric",
    )
    cluster.build_shipper()
    cluster.start()
    unresolved = 0
    untyped: list[str] = []
    rejected = resubmitted = 0
    try:
        opens = [
            cluster.open_session(key, open_doc)
            for key, open_doc, _a, _b in workload
        ]
        for future in opens:
            future.result(300).unwrap()

        # Phase A, then a barrier: every session has shipped frames.
        phase_a = []
        for key, _open, docs_a, _b in workload:
            for doc in docs_a:
                phase_a.append(cluster.submit(key, doc))
        for future in phase_a:
            future.result(300).unwrap()

        homes = [cluster.worker_for(key) for key in keys]
        victim = max(set(homes), key=homes.count)
        victim_keys = [
            key for key in keys if cluster.worker_for(key) == victim
        ]

        # Phase B pipelined, kill the victim mid-stream.
        phase_b: dict[str, list] = {key: [] for key in keys}
        max_b = max(len(item[3]) for item in workload)
        for step_index in range(max_b):
            for key, _open, _a, docs_b in workload:
                if step_index < len(docs_b):
                    doc = docs_b[step_index]
                    phase_b[key].append((doc, cluster.submit(key, doc)))
        cluster.kill_worker(victim)

        report = cluster.wait_adoption(120)
        if report is None:
            raise RuntimeError("no adoption ran after the kill")
        bad = {
            key: row for key, row in report["sessions"].items()
            if "skipped" in row or "error" in row
        }
        if bad:
            raise RuntimeError(f"standby failed to adopt: {bad}")
        missing = sorted(set(victim_keys) - set(report["sessions"]))
        if missing:
            raise RuntimeError(
                f"adoption left {missing} of the victim's sessions behind"
            )

        # Drain phase B: survivors resolve OK; the victim's unshipped
        # in-flight steps come back as typed WORKER_DEAD rejections and
        # are resubmitted — in order — onto the adopted route.
        for key in keys:
            for doc, future in phase_b[key]:
                try:
                    outcome = future.result(300)
                except Exception:  # a hung/raising future: the failure mode
                    unresolved += 1
                    continue
                if outcome.status == InvocationOutcome.REJECTED:
                    error = outcome.error
                    if (isinstance(error, IngressRejected)
                            and error.reason == ShedReason.WORKER_DEAD):
                        rejected += 1
                        cluster.call(key, doc, timeout=300)
                        resubmitted += 1
                    else:
                        untyped.append(repr(error))
                elif not outcome.ok:
                    untyped.append(repr(outcome.error))
        if unresolved or untyped:
            raise RuntimeError(
                f"adoption leaked: {unresolved} unresolved future(s), "
                f"{len(untyped)} untyped failure(s): {untyped[:3]}"
            )

        _check_logs(
            _collect_logs(cluster, [type("S", (), {"key": key})()
                                    for key in keys]),
            golden, "standby adoption",
        )
        stats = cluster.stats()
    finally:
        cluster.stop()
    replayed = sum(
        row.get("replayed", 0) for row in report["sessions"].values()
    )
    errors = [
        err for row in report["sessions"].values()
        for err in row.get("errors", ())
    ]
    if errors:
        raise RuntimeError(f"adoption replay errors: {errors[:3]}")
    return {
        "sessions": len(keys),
        "domains": 4,
        "victim_sessions": len(victim_keys),
        "adopted_sessions": len(report["sessions"]),
        "adoption_target": report["target"],
        "replayed_entries": replayed,
        "rejected_worker_dead": rejected,
        "resubmitted": resubmitted,
        "unresolved_futures": 0,
        "untyped_failures": 0,
        "deaths": stats["deaths"],
        "restarts": stats["restarts"],
        "adoptions": stats["adoptions"],
        "op_logs_identical": True,
    }


# -- E1 overhead through a real durable pool --------------------------------


def pool_fabric_bench(*, rounds: int = 7) -> dict[str, Any]:
    """End-to-end wall-clock price of a default-durability pool against
    a ``durability="off"`` one: diagnostic, not gated.

    Each sample builds a fresh 2-shard pool (untimed), warms it with
    one pass, then times three passes of the E1 API steps submitted to
    one session per shard.  Pump-thread placement jitter between pool
    instances (tens of µs per step, both signs) dwarfs the machinery
    cost itself, so the gated E1 line is :func:`e1_overhead_bench`'s
    in-thread shard path; this row shows the noise floor beside it.
    """
    from repro.bench.wal import _e1_docs
    from repro.domains.communication.cvm import build_cvm
    from repro.middleware.platform import PlatformPool
    from repro.runtime.durability import DurabilityPolicy
    from repro.sim.network import CommService

    step_docs = _e1_docs()
    passes = 3

    def apply_pool_doc(platform: Any, key: str, doc: dict) -> Any:
        return platform.broker.call_api(doc["api"], **doc.get("args", {}))

    def sample(durability: Any) -> float:
        pool = PlatformPool(
            lambda shard: build_cvm(
                service=CommService("net0"), bus=shard.bus,
                clock=shard.clock, metrics=shard.metrics,
            ),
            name="bench-e1-pool", shards=2, durability=durability,
        )
        pool.start()
        pool.attach_cluster(None, apply=apply_pool_doc)
        # exactly one session per shard: the sweep's stateful scenario
        # ops must not interleave on a shared shard platform.
        sessions: dict[int, str] = {}
        for candidate in (f"e1-conn-{n}" for n in range(10_000)):
            sessions.setdefault(pool.shard_for(candidate).index, candidate)
            if len(sessions) == 2:
                break
        try:
            def run_pass() -> None:
                futures = [
                    pool.submit_doc(key, doc)
                    for doc in step_docs
                    for key in sessions.values()
                ]
                for future in futures:
                    future.result(120).unwrap()

            run_pass()  # warm dispatch paths and shard pumps
            start = time.perf_counter()
            for _ in range(passes):
                run_pass()
            return time.perf_counter() - start
        finally:
            pool.stop()

    result = paired_overhead(
        lambda: sample("off"), lambda: sample(DurabilityPolicy()),
        rounds=rounds,
    )
    steps = passes * 2 * len(step_docs)
    return {
        "sessions": 2,
        "shards": 2,
        **result,
        "per_step_delta_us": (
            (result["variant_s"] - result["base_s"]) / steps * 1e6
        ),
    }


# -- causal-slice replay across per-shard logs --------------------------------


def slice_replay_bench(*, sessions: int = 3) -> dict[str, Any]:
    """Cross-shard traces logged by a durable pool must replay exactly.

    Every session's final step emits a ``fabric.session.done`` event
    derived from its write-ahead entry, routed to an aggregator key on
    another shard — so each trace's frames span two shard logs.  Each
    multi-signal trace is then reassembled from the union of logs and
    re-executed on a fresh platform; :func:`verify_slice` must report
    an exact structural reproduction for all of them.
    """
    from repro.cases import domain_cases
    from repro.bench.wal import apply_entry
    from repro.domains.communication.cvm import build_cvm
    from repro.middleware.platform import PlatformPool
    from repro.middleware.snapshot import recover_session
    from repro.runtime import walslice
    from repro.runtime.clock import VirtualClock
    from repro.runtime.durability import DurabilityPolicy
    from repro.runtime.trace import TraceRecorder
    from repro.runtime.wal import WriteAheadLog
    from repro.sim.network import CommService

    root = Path(tempfile.mkdtemp(prefix="bench-walslice-")) / "walroot"
    pool = PlatformPool(
        lambda shard: build_cvm(
            service=CommService("net0", op_cost=0.0), bus=shard.bus,
            clock=shard.clock, metrics=shard.metrics,
        ),
        name="bench-slice-pool", shards=2,
        durability=DurabilityPolicy(log_root=str(root)),
    )
    pool.start()
    pool.attach_cluster(
        None,
        apply=lambda platform, key, doc: platform.broker.call_api(
            doc["api"], **doc.get("args", {})
        ),
    )
    keys = [f"slice-conn-{index}" for index in range(sessions)]
    try:
        for key in keys:
            pool.submit_doc(key, {
                "op": "api", "api": "ncb.open_session",
                "args": {"connection": key},
            }).result(60).unwrap()
        pool.build_checkpoints(interval=3600.0)
        pool.checkpoint_now()
        for key in keys:
            # the aggregator lives on the *other* shard, so the emitted
            # event's entry frame lands in a different per-shard log
            # than its parent call's.
            home = pool.shard_for(key).index
            agg = next(
                candidate
                for candidate in (f"slice-agg-{n}" for n in range(10_000))
                if pool.shard_for(candidate).index != home
            )
            pool.submit_doc(key, {
                "op": "api", "api": "ncb.add_party",
                "args": {"connection": key, "party": "alice"},
            }).result(60).unwrap()
            pool.submit_doc(key, {
                "op": "api", "api": "ncb.add_party",
                "args": {"connection": key, "party": "bob"},
                "emit": [{"topic": "fabric.session.done", "key": agg,
                          "payload": {"session": key}}],
            }).result(60).unwrap()
    finally:
        pool.stop()

    case = next(c for c in domain_cases() if c.name == "communication")
    workdir = walslice.staging_dir()
    rows: list[dict[str, Any]] = []
    try:
        logs = walslice.stage_logs(root, workdir)
        census = walslice.trace_census(logs)
        targets = sorted(t for t, info in census.items() if info["nodes"] > 1)
        cross = [t for t in targets if census[t]["logs"] > 1]
        if len(cross) < sessions:
            raise RuntimeError(
                f"expected {sessions} cross-log traces, found {len(cross)} "
                f"in census {census}"
            )
        for trace_id in targets:
            nodes = walslice.collect_slice(logs, trace_id)
            roots = [n for n in nodes if n.parent_seq is None]
            if not roots:
                raise RuntimeError(f"trace {trace_id}: no logged root")
            session = roots[0].session
            home = next(
                log for log in logs
                if any(
                    doc.get("k") == "entry"
                    and (doc.get("sig") or {}).get("seq") == roots[0].seq
                    for doc in log.frames
                )
            )
            frames = walslice.session_replay_frames(home, session)
            scratch = WriteAheadLog(
                Path(workdir) / f"replay-{trace_id}", name="slice",
                fsync=False,
            )
            try:
                for doc in frames:
                    scratch.append(doc, strict=False)
                with TraceRecorder() as recorder:
                    report = recover_session(
                        scratch,
                        session=session,
                        apply_entry=apply_entry,
                        dsk=case.knowledge(case.service()),
                        clock=VirtualClock(),
                    )
                report.platform.stop()
            finally:
                scratch.close()
            if report.errors:
                raise RuntimeError(
                    f"trace {trace_id}: replay errors {report.errors[:3]}"
                )
            verdict = walslice.verify_slice(
                nodes, recorder.chain_for(trace_id)
            )
            if not verdict.ok:
                raise RuntimeError(
                    f"trace {trace_id} NOT reproduced: {verdict.missing}"
                )
            rows.append({
                "trace_id": trace_id,
                "logged_nodes": verdict.logged_nodes,
                "cross_log": trace_id in cross,
                "replayed_entries": report.replayed_entries,
                "surplus_derivations": verdict.surplus,
                "reproduced": True,
            })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(root.parent, ignore_errors=True)
    return {
        "sessions": sessions,
        "traces_checked": len(rows),
        "cross_log_traces": len(cross),
        "all_reproduced": True,
        "traces": rows,
    }


# -- report ------------------------------------------------------------------


def run(quick: bool = False) -> dict[str, Any]:
    """The durable-fabric report (``BENCH_PR10.json``)."""
    return {
        "bench": "PR10-durable-fabric",
        "python": sys.version.split()[0],
        "quick": quick,
        "adoption": adoption_bench(comm_sessions=4 if quick else 8),
        "e1_pool_overhead": e1_overhead_bench(),
        "e1_pool_fabric": pool_fabric_bench(rounds=3 if quick else 7),
        "slice_replay": slice_replay_bench(sessions=2 if quick else 3),
    }


def check(report: dict[str, Any]) -> list[Check]:
    """Every lost session adopted from the shipped WAL byte-identically
    with only typed failures, one death and one restart across all four
    domains, and every logged causal slice reproduced.  The durable-pool
    E1 gate holds on full runs only (shared two-core runners are too
    noisy for it)."""
    adoption = report["adoption"]
    slices = report["slice_replay"]
    lines = [
        holds("adoption: op_logs identical", adoption["op_logs_identical"]),
        compare("adoption: unresolved futures",
                adoption["unresolved_futures"], "==", 0),
        compare("adoption: untyped failures",
                adoption["untyped_failures"], "==", 0),
        compare("sessions adopted", adoption["adopted_sessions"], ">", 0),
        compare("worker deaths", adoption["deaths"], "==", 1),
        compare("worker restarts", adoption["restarts"], "==", 1),
        compare("domains in the workload", adoption["domains"], "==", 4),
        holds("every causal slice reproduced", slices["all_reproduced"]),
        compare("slices spanning more than one shard log",
                slices["cross_log_traces"], ">", 0),
    ]
    if not is_quick(report):
        lines.append(compare(
            "durable-pool E1 overhead %",
            report["e1_pool_overhead"]["overhead_pct"], "<=",
            OVERHEAD_GATE_PCT,
        ))
    return lines
