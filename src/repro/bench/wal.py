"""PR 7 durability benchmark: write-ahead log + exactly-once recovery.

Exercises :mod:`repro.runtime.wal` end to end and produces
``BENCH_PR7.json``:

* **kill_recovery** — for each of the four shipped domains, a session
  runs the two-phase workload durably (entry frames written before
  dispatch, resource effects memoized, checkpoint frames embedded
  snapshot-then-truncate).  The session is killed two
  ways — after the tail entry was applied but not checkpointed
  (recovery must *replay* the tail with memoized effects), and right
  after a checkpoint (recovery restores and the remaining work runs
  live) — and in both cases the domain service's ``op_log`` must come
  out byte-identical to the uninterrupted golden run.  A second
  immediate kill-and-recover (double recovery) checks idempotence.
* **fabric_kill** — the same discipline on a threaded 2-shard
  :class:`~repro.runtime.sharded.ShardedRuntime`: the session executes
  on its owning shard's pump thread, the whole fabric is hard-stopped
  mid-workload (the shard kill), and recovery rebuilds the session on
  a fresh fabric from nothing but the log + DSK.
* **e1_overhead** — the E1 scenario sweep with every step logged as
  a durable entry at the default :class:`DurabilityPolicy` versus bare,
  through :func:`~repro.bench.harness.paired_overhead`; the acceptance
  gate is WAL-on overhead ≤ 5%.  ``sync_profiles`` prices three
  group-commit cadences per entry beside it.
* **recovery_latency** — recovery wall time versus tail length
  (entries logged since the last checkpoint), showing the
  snapshot-then-truncate knob: more frequent checkpoints buy shorter
  recovery.

Every durable session here is a one-session use of
:class:`~repro.runtime.durability.ShardDurability` over its own
:class:`~repro.runtime.wal.WriteAheadLog`, and every recovery goes
through :func:`~repro.middleware.snapshot.recover_session` — the same
front door the durable fabric uses.

``repro bench wal`` writes ``BENCH_PR7.json`` and checks it
(``--quick`` shortens the recovery-latency tails for CI).
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from functools import partial
from pathlib import Path
from typing import Any

from repro.bench.gates import Check, bound, compare, holds
from repro.bench.harness import (
    fresh_cvm_platform,
    op_log_bytes,
    paired_overhead,
    timer,
)
from repro.bench.migrate import golden_logs
from repro.bench.workloads import COMMUNICATION_SCENARIOS, Step
from repro.cases import DomainCase, domain_cases, fresh_session

__all__ = [
    "OVERHEAD_GATE_PCT",
    "apply_entry",
    "execute_entry",
    "checkpoint_platform",
    "kill_recovery_bench",
    "fabric_kill_bench",
    "e1_overhead_bench",
    "sync_profiles_bench",
    "recovery_latency_bench",
    "run",
    "check",
]

#: WAL-on overhead admitted on the E1 hot path (acceptance gate, %).
OVERHEAD_GATE_PCT = 5.0


# -- the durable entry vocabulary -------------------------------------------
#
# Entries are self-describing JSON documents so the same apply function
# runs live and during replay: ``run_model`` carries the serialized
# application model, ``api`` a broker API invocation.  Environment
# faults (service.inject_failure) are *not* entries — they are the
# world failing, not session work, and must not replay.


def apply_entry(platform: Any, signal: Any) -> Any:
    """Apply one logged entry signal to a platform (live or replay).

    Re-derives the entry's declared cross-session emissions
    (``doc["emit"]``) after the op applies, exactly as the live fabric
    does (:meth:`PlatformPool.submit_doc`), so a replayed entry mints
    the same causal children the fabric routed — and logged — the
    first time.
    """
    from repro.modeling.serialize import model_from_dict

    doc = signal.payload
    op = doc.get("op")
    if op == "run_model":
        model = model_from_dict(doc["model"], platform.dsml)
        value = platform.run_model(model)
    elif op == "api":
        value = platform.broker.call_api(doc["api"], **doc.get("args", {}))
    else:
        raise ValueError(f"unknown durable entry op {op!r}")
    emits = doc.get("emit") or ()
    if emits:
        from repro.middleware.platform import emit_event

        for spec in emits:
            emit_event(spec, signal.origin or "", signal)
    return value


class _PlainEntry:
    """Bare-baseline stand-in for a logged signal: payload, no log."""

    __slots__ = ("payload",)

    def __init__(self, payload: dict[str, Any]) -> None:
        self.payload = payload


def _model_entry(model: Any) -> dict[str, Any]:
    from repro.modeling.serialize import model_to_dict

    return {"op": "run_model", "model": model_to_dict(model)}


def _api_steps(steps: list[Step]) -> list[dict[str, Any]]:
    return [
        {"op": "api", "api": step[1], "args": dict(step[2])}
        for step in steps
        if step[0] == "api"
    ]


def _e1_docs() -> list[dict[str, Any]]:
    """The E1 scenarios' API steps (71) as durable entry docs."""
    return _api_steps(
        [step for steps in COMMUNICATION_SCENARIOS.values() for step in steps]
    )


# -- kill-mid-workload recovery ---------------------------------------------


def _durable_session(
    case: DomainCase, wal_dir: Path
) -> tuple[Any, Any, Any, Any]:
    """(service, dsk, platform, ShardDurability) with a fresh platform
    + log."""
    from repro.runtime.durability import ShardDurability
    from repro.runtime.wal import WriteAheadLog

    service, dsk, platform = fresh_session(case)
    durability = ShardDurability(WriteAheadLog(wal_dir))
    return service, dsk, platform, durability


def execute_entry(
    durability: Any, session: str, platform: Any, doc: dict[str, Any]
) -> Any:
    """One durable entry of ``session``, applied to ``platform``."""
    return durability.execute(
        session, doc, partial(apply_entry, platform),
        resources=platform.broker.resources,
    )


def checkpoint_platform(
    durability: Any, session: str, platform: Any
) -> None:
    from repro.middleware.snapshot import capture_snapshot

    durability.checkpoint(session, capture_snapshot(platform).to_dict())


def kill_recovery_bench(
    cases: list[DomainCase], golden: dict[str, bytes]
) -> dict[str, Any]:
    """Kill each domain's session mid-workload; recover exactly-once."""
    from repro.middleware.snapshot import recover_session
    from repro.runtime.durability import ShardDurability
    from repro.runtime.wal import WriteAheadLog

    rows: list[dict[str, Any]] = []
    for case in cases:
        session = case.name
        wal_dir = Path(tempfile.mkdtemp(prefix=f"wal-{case.name}-"))
        try:
            # -- scenario A: checkpoint, apply phase 2, kill before the
            # next checkpoint.  The tail entry must REPLAY with
            # memoized effects: the service op_log already contains
            # phase 2's operations, so re-executing any of them would
            # diverge from golden.
            service, dsk, platform, durable = _durable_session(case, wal_dir)
            execute_entry(
                durable, session, platform, _model_entry(case.phase1())
            )
            checkpoint_platform(durable, session, platform)
            execute_entry(
                durable, session, platform, _model_entry(case.phase2())
            )
            platform.stop()       # the kill: platform state is gone,
            durable.wal.close()   # only the log + external world survive
            log_at_kill = op_log_bytes(service.op_log)

            wal = WriteAheadLog(wal_dir)
            start = time.perf_counter()
            report = recover_session(
                wal, session=session, apply_entry=apply_entry, dsk=dsk
            )
            replay_recover_ms = (time.perf_counter() - start) * 1000
            replay_identical = (
                op_log_bytes(service.op_log) == golden[case.name]
            )
            replay_untouched = op_log_bytes(service.op_log) == log_at_kill
            if report.errors:
                raise AssertionError(
                    f"{case.name}: replay errors {report.errors}"
                )

            # -- double recovery: kill again immediately; a second
            # replay must also leave the op_log untouched.
            report.platform.stop()
            wal.close()
            wal = WriteAheadLog(wal_dir)
            report2 = recover_session(
                wal, session=session, apply_entry=apply_entry, dsk=dsk
            )
            double_identical = (
                op_log_bytes(service.op_log) == golden[case.name]
            )
            report2.platform.stop()
            wal.close()

            row = {
                "domain": case.name,
                "replay_tail_identical": replay_identical,
                "replay_no_reexecution": replay_untouched,
                "double_recovery_identical": double_identical,
                "effects_memoized": report.effects_memoized,
                "replayed_entries": report.replayed_entries,
                "recover_ms": replay_recover_ms,
            }

            # -- scenario B: kill right after the checkpoint; recovery
            # restores the snapshot and phase 2 then runs LIVE on the
            # recovered platform through the reopened log.
            shutil.rmtree(wal_dir)
            wal_dir.mkdir()
            service, dsk, platform, durable = _durable_session(case, wal_dir)
            execute_entry(
                durable, session, platform, _model_entry(case.phase1())
            )
            checkpoint_platform(durable, session, platform)
            platform.stop()
            durable.wal.close()

            wal = WriteAheadLog(wal_dir)
            start = time.perf_counter()
            report = recover_session(
                wal, session=session, apply_entry=apply_entry, dsk=dsk
            )
            clean_recover_ms = (time.perf_counter() - start) * 1000
            execute_entry(
                ShardDurability(wal), session, report.platform,
                _model_entry(case.phase2()),
            )
            resume_identical = (
                op_log_bytes(service.op_log) == golden[case.name]
            )
            report.platform.stop()
            wal.close()

            row.update({
                "resume_live_identical": resume_identical,
                "clean_recover_ms": clean_recover_ms,
            })
            rows.append(row)
        finally:
            shutil.rmtree(wal_dir, ignore_errors=True)

    all_identical = all(
        row["replay_tail_identical"]
        and row["replay_no_reexecution"]
        and row["double_recovery_identical"]
        and row["resume_live_identical"]
        for row in rows
    )
    return {
        "domains": rows,
        "all_identical": all_identical,
        "median_recover_ms": statistics.median(
            row["recover_ms"] for row in rows
        ),
    }


# -- shard-kill on the threaded fabric --------------------------------------


def fabric_kill_bench(*, shards: int = 2) -> dict[str, Any]:
    """Kill a threaded fabric mid-workload; recover the session cold.

    The communication session executes its durable entries on its
    owning shard's pump thread.  Mid-workload the whole fabric is
    hard-stopped and every platform object discarded — for the session
    this is indistinguishable from its shard dying.  Recovery rebuilds
    it on a fresh fabric from the log + DSK and the workload finishes;
    the op_log must match the uninterrupted golden run.
    """
    from repro.middleware.snapshot import recover_session
    from repro.runtime.durability import ShardDurability
    from repro.runtime.sharded import ShardedRuntime
    from repro.runtime.wal import WriteAheadLog

    case = next(c for c in domain_cases() if c.name == "communication")
    steps = _api_steps(
        list(COMMUNICATION_SCENARIOS["basic-session"])
        + list(COMMUNICATION_SCENARIOS["conference-setup"])
    )
    cut = len(steps) // 2

    # Golden: the same entry sequence, uninterrupted, single-threaded.
    service, _dsk, platform = fresh_session(case)
    platform.run_model(case.phase1())
    for doc in steps:
        platform.broker.call_api(doc["api"], **doc["args"])
    platform.stop()
    golden = op_log_bytes(service.op_log)

    key = "wal-fabric-session"
    wal_dir = Path(tempfile.mkdtemp(prefix="wal-fabric-"))
    try:
        runtime = ShardedRuntime(shards, name="bench-wal-fabric")
        runtime.start()
        service = case.service()
        dsk = case.knowledge(service)
        holder: dict[str, Any] = {}

        def build() -> None:
            from repro.middleware.loader import load_platform

            platform = load_platform(case.middleware(), dsk)
            if platform.controller is not None and case.context:
                platform.controller.context.update(case.context)
            holder["platform"] = platform
            holder["durable"] = ShardDurability(WriteAheadLog(wal_dir))

        def execute(doc: dict[str, Any]) -> Any:
            return execute_entry(
                holder["durable"], key, holder["platform"], doc
            )

        runtime.submit(key, build).result(timeout=30)
        runtime.submit(
            key, lambda: execute(_model_entry(case.phase1()))
        ).result(timeout=30)
        runtime.submit(
            key,
            lambda: checkpoint_platform(
                holder["durable"], key, holder["platform"]
            ),
        ).result(timeout=30)
        for doc in steps[:cut]:
            runtime.submit(key, lambda d=doc: execute(d)).result(timeout=30)

        # The shard kill: stop the fabric, discard the platform, keep
        # only the log (flushed by stop) and the external service.
        start = time.perf_counter()
        runtime.stop()
        holder.pop("platform").stop()
        holder.pop("durable").wal.close()
        kill_ms = (time.perf_counter() - start) * 1000

        runtime = ShardedRuntime(shards, name="bench-wal-fabric2")
        runtime.start()

        def recover() -> None:
            wal = WriteAheadLog(wal_dir)
            report = recover_session(
                wal, session=key, apply_entry=apply_entry, dsk=dsk
            )
            holder["platform"] = report.platform
            holder["durable"] = ShardDurability(wal)
            holder["report"] = report

        start = time.perf_counter()
        runtime.submit(key, recover).result(timeout=30)
        recover_ms = (time.perf_counter() - start) * 1000
        for doc in steps[cut:]:
            runtime.submit(key, lambda d=doc: execute(d)).result(timeout=30)
        runtime.stop()
        holder["platform"].stop()
        holder["durable"].wal.close()

        identical = op_log_bytes(service.op_log) == golden
        report = holder["report"]
        return {
            "shards": shards,
            "steps": len(steps),
            "killed_after": cut,
            "op_log_identical": identical,
            "replayed_entries": report.replayed_entries,
            "effects_memoized": report.effects_memoized,
            "kill_ms": kill_ms,
            "recover_ms": recover_ms,
        }
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)


# -- E1 overhead -------------------------------------------------------------


def e1_overhead_bench(*, rounds: int = 45) -> dict[str, Any]:
    """E1 price of durability: :func:`paired_overhead` of a durable
    shard session against a bare one, at the shipped policy.

    The durable side runs exactly the code a durable
    :class:`~repro.middleware.platform.PlatformPool` shard adds per
    step — :meth:`ShardDurability.execute` (signal minting, entry
    framing, the effect journal, the ``applied`` seal, group commit)
    around the broker dispatch — on a shard log opened by
    ``DurabilityPolicy().open_shard``, so its cadence is the default
    one (recorded as ``fsync``/``sync_every``).  The bare side runs
    the same dispatcher over plain envelopes.  Both platforms live for
    the whole sweep (warm); each sample is one pass over the 71 API
    steps of the E1 scenarios.

    The **gate** is the ``calibrated`` regime —
    ``CommService.DEFAULT_OP_COST``, the op-cost ratio fixed for
    E1/E3/E5 (see EXPERIMENTS.md) so simulated service work dominates
    the way real communication-framework calls did on the paper's
    testbed.  ``structural`` (``op_cost=0``) is the raw CPU price of
    the machinery with nothing to hide behind: diagnostic, not gated.
    ``repro bench wal`` and ``repro bench walfabric`` both report it.

    One round's ratio spreads by 10–20 points (IQR, 2 vCPUs: a pass
    seals two or three fsync groups, and fsync latency varies), so the
    median needs ~45 rounds to settle within a couple of points.
    """
    from repro.runtime.durability import DurabilityPolicy
    from repro.sim.network import CommService

    step_docs = _e1_docs()
    policy = DurabilityPolicy()

    def sweep(*, op_cost: float) -> dict[str, Any]:
        bare, _dsk, _runner = fresh_cvm_platform(op_cost=op_cost)
        durable, _dsk, _runner = fresh_cvm_platform(op_cost=op_cost)
        durability = policy.open_shard(0)

        def bare_pass() -> None:
            for doc in step_docs:
                apply_entry(bare, _PlainEntry(doc))

        def durable_pass() -> None:
            for doc in step_docs:
                execute_entry(durability, "e1", durable, doc)

        try:
            result = paired_overhead(
                timer(bare_pass), timer(durable_pass), rounds=rounds
            )
        finally:
            bare.stop()
            durable.stop()
            durability.wal.close()
            policy.discard_ephemeral_root()
        return {
            "op_cost": op_cost,
            **result,
            "per_step_overhead_us": (
                (result["variant_s"] - result["base_s"])
                / len(step_docs) * 1e6
            ),
        }

    calibrated = sweep(op_cost=CommService.DEFAULT_OP_COST)
    overhead_pct = calibrated["overhead_pct"]
    return {
        "steps": len(step_docs),
        "fsync": policy.fsync,
        "sync_every": policy.sync_every,
        "calibrated": calibrated,
        "structural": sweep(op_cost=0.0),
        "overhead_pct": overhead_pct,
        "gate_pct": OVERHEAD_GATE_PCT,
        "meets_gate": overhead_pct <= OVERHEAD_GATE_PCT,
    }


def sync_profiles_bench() -> list[dict[str, Any]]:
    """The price of real durability per entry, at three group-commit
    cadences: fsync per entry, the default group of 64, and page-cache
    only every 256 entries."""
    from repro.runtime.durability import ShardDurability
    from repro.runtime.wal import WriteAheadLog

    step_docs = _e1_docs()
    profiles = []
    for sync_every, fsync in ((1, True), (64, True), (256, False)):
        wal_dir = Path(tempfile.mkdtemp(prefix="wal-sync-"))
        try:
            platform, _dsk, _runner = fresh_cvm_platform(op_cost=0.0)
            wal = WriteAheadLog(
                wal_dir, fsync=fsync, sync_every=sync_every
            )
            durable = ShardDurability(wal)
            start = time.perf_counter()
            for doc in step_docs:
                execute_entry(durable, "e1", platform, doc)
            elapsed = time.perf_counter() - start
            profiles.append({
                "sync_every": sync_every,
                "fsync": fsync,
                "total_ms": elapsed * 1000,
                "per_entry_us": elapsed * 1e6 / max(1, len(step_docs)),
                "fsyncs": wal.syncs,
            })
            wal.close()
            platform.stop()
        finally:
            shutil.rmtree(wal_dir, ignore_errors=True)
    return profiles


# -- recovery latency vs tail length ----------------------------------------


def recovery_latency_bench(
    *, tail_lengths: tuple[int, ...] = (0, 40, 160)
) -> dict[str, Any]:
    """Recovery wall time as a function of un-checkpointed tail length."""
    from repro.middleware.snapshot import recover_session
    from repro.runtime.wal import WriteAheadLog

    case = next(c for c in domain_cases() if c.name == "communication")
    base_docs = _e1_docs()
    rows = []
    for tail in tail_lengths:
        wal_dir = Path(tempfile.mkdtemp(prefix="wal-tail-"))
        try:
            service, dsk, platform, durable = _durable_session(case, wal_dir)
            session = case.name
            execute_entry(
                durable, session, platform, _model_entry(case.phase1())
            )
            checkpoint_platform(durable, session, platform)
            for index in range(tail):
                execute_entry(
                    durable, session, platform,
                    base_docs[index % len(base_docs)],
                )
            platform.stop()
            durable.wal.close()
            log_at_kill = op_log_bytes(service.op_log)

            wal = WriteAheadLog(wal_dir)
            start = time.perf_counter()
            report = recover_session(
                wal, session=session, apply_entry=apply_entry, dsk=dsk
            )
            recover_ms = (time.perf_counter() - start) * 1000
            assert op_log_bytes(service.op_log) == log_at_kill, (
                "recovery re-executed external effects"
            )
            report.platform.stop()
            wal.close()
            rows.append({
                "tail_entries": tail,
                "recover_ms": recover_ms,
                "effects_memoized": report.effects_memoized,
            })
        finally:
            shutil.rmtree(wal_dir, ignore_errors=True)
    base_ms = rows[0]["recover_ms"]
    longest = rows[-1]
    per_entry_us = (
        (longest["recover_ms"] - base_ms) * 1000 / longest["tail_entries"]
        if longest["tail_entries"]
        else 0.0
    )
    return {
        "rows": rows,
        "snapshot_only_ms": base_ms,
        "per_tail_entry_us": per_entry_us,
    }


# -- report ------------------------------------------------------------------


def run(quick: bool = False) -> dict[str, Any]:
    """The durability report (``BENCH_PR7.json``)."""
    cases = domain_cases()
    golden = golden_logs(cases)
    return {
        "bench": "wal",
        "quick": quick,
        "kill_recovery": kill_recovery_bench(cases, golden),
        "fabric_kill": fabric_kill_bench(),
        "e1_overhead": e1_overhead_bench(),
        "sync_profiles": sync_profiles_bench(),
        "recovery_latency": recovery_latency_bench(
            tail_lengths=(0, 20) if quick else (0, 40, 160)
        ),
    }


def check(report: dict[str, Any]) -> list[Check]:
    """Exactly-once recovery in all four domains and on a killed
    fabric, memoized effects on the longest tail, and the WAL-on E1
    overhead bound (25% on ``--quick``: shared runners are noisy)."""
    kill = report["kill_recovery"]
    fabric = report["fabric_kill"]
    return [
        holds("op_logs identical after kill + recover",
              kill["all_identical"]),
        compare("domains recovered", len(kill["domains"]), "==", 4),
        holds("replay re-executed no external effect",
              all(row["replay_no_reexecution"] for row in kill["domains"])),
        compare("fewest effects memoized in a domain",
                min((row["effects_memoized"] for row in kill["domains"]),
                    default=0),
                ">", 0),
        holds("fabric kill: op_log identical", fabric["op_log_identical"]),
        compare("fabric kill: entries replayed",
                fabric["replayed_entries"], ">", 0),
        compare(
            "WAL-on E1 overhead %", report["e1_overhead"]["overhead_pct"],
            "<=", bound(report, quick=25.0, full=OVERHEAD_GATE_PCT),
        ),
        compare(
            "effects memoized on the longest tail",
            report["recovery_latency"]["rows"][-1]["effects_memoized"],
            ">", 0,
        ),
    ]
