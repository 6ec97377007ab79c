"""api-steps and recover: the broker + effect-journal + WAL path.

api-steps is a closed loop of 8 clients over a 2-shard PlatformPool at
the shipped durability defaults, CVM shard platforms at structural
service cost.  recover writes half of ~500 sessions to a named log
root, stops the pool, and times a fresh pool's ``recover_session`` of
every open session on the same root and the same (surviving) services.
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path
from typing import Any

import gen
from common import (BenchError, Report, StepLog, add_e2e_rows, closed_loop, median, peak_rss_mb,
                    submitted_docs)
from pool import Fabric, check_logs, log_bytes, reference_logs, replay_entry

CLIENTS = 8
WARMUP_S = 0.5
#: the measured window is cut into rounds with set-up samples taken
#: between them, so ``setup_s`` sees the whole run rather than its
#: first moment (the host's CPU speed drifts on a scale of seconds).
ROUNDS = 5
SETUPS_PER_ROUND = 5
#: a throwaway session whose first step is the "first accepted
#: operation" closing each timed set-up.
SETUP_DOC = {"op": "api", "api": "ncb.open_session", "args": {"connection": "setup.c1"}}


def timed_setup(ctx: Any, make: Any) -> tuple[Any, float, float]:
    """Build a fabric with ``make(log_root)`` and run one step on it;
    returns the fabric, the seconds from construction to the step's
    accepted outcome, and the seconds of that first step alone."""
    start = time.perf_counter()
    fabric = make(ctx.fresh_dir("wal"))
    first = time.perf_counter()
    fabric.submit("setup", SETUP_DOC).result(60).unwrap()
    end = time.perf_counter()
    return fabric, end - start, end - first


def setup_samples(ctx: Any, repeats: int) -> list[float]:
    """``repeats`` timed set-ups of throwaway pools."""
    samples = []
    for _ in range(repeats):
        fabric, seconds, _first = timed_setup(ctx, lambda root: Fabric(log_root=root))
        fabric.stop()
        samples.append(seconds)
    return samples


def _window(ctx: Any, seconds: float, sessions: Any, tracer: Any,
            setups: list[float]) -> dict[str, Any]:
    """One measured closed-loop window on a fresh fabric, in
    :data:`ROUNDS` rounds; untraced, set-ups are sampled between them."""
    root_holder: dict[str, Any] = {}

    def make(root: Any) -> Fabric:
        root_holder["root"] = root
        return Fabric(log_root=root, before_start=tracer.instrument_pool if tracer else None)

    fabric, setup_s, first_s = timed_setup(ctx, make)
    setups.append(setup_s)
    issued: dict[str, int] = {}
    submit = tracer.wrap_submit(fabric.submit) if tracer else fabric.submit
    log = StepLog()
    elapsed = 0.0
    try:
        closed_loop(clients=CLIENTS, seconds=WARMUP_S, sessions=sessions,
                    submit=submit, close=fabric.pool.close_session, log=None,
                    issued=issued)
        if tracer:
            tracer.begin_window()
        for _round in range(ROUNDS):
            if not tracer:
                setups += setup_samples(ctx, SETUPS_PER_ROUND)
            elapsed += closed_loop(clients=CLIENTS, seconds=seconds / ROUNDS,
                                   sessions=sessions, submit=submit,
                                   close=fabric.pool.close_session, log=log, issued=issued)
        if tracer:
            tracer.end_window()
        rss = peak_rss_mb()
    finally:
        fabric.stop()
    docs = {"setup": [SETUP_DOC], **submitted_docs(issued, gen.api_sessions(ctx.seed))}
    check_logs("api-steps", fabric.services, reference_logs(docs, fabric.shard_of))
    return {"log": log, "elapsed": elapsed, "first_s": first_s, "rss": rss,
            "wal_bytes": log_bytes(root_holder["root"]),
            "steps": sum(len(session) for session in docs.values())}


def _e2e(report: Report, window: dict[str, Any], setups: list[float]) -> None:
    add_e2e_rows(report, setups=setups, log=window["log"], elapsed=window["elapsed"],
                 wal_bytes=window["wal_bytes"], steps=window["steps"], rss=window["rss"])


def run_api_steps(ctx: Any) -> tuple[Report, int, int]:
    report = Report("api-steps", ctx.seed)
    sessions = gen.api_sessions(ctx.seed)
    setups: list[float] = []
    if not ctx.trace:
        window = _window(ctx, ctx.seconds, sessions, None, setups)
        _e2e(report, window, setups)
        return report, window["log"].attempted, window["log"].failed
    from spans import PoolTracer

    plain = _window(ctx, ctx.seconds / 2, sessions, None, setups)
    _e2e(report, plain, setups)
    tracer = PoolTracer()
    traced_setups: list[float] = []
    traced = _window(ctx, ctx.seconds / 2, sessions, tracer, traced_setups)
    traced_report = Report("api-steps", ctx.seed)
    _e2e(traced_report, traced, traced_setups)
    tracer.layer_rows(report.layers, {"setup.open_session_ms": traced["first_s"] * 1e3})
    report.overhead(traced_report)
    return report, traced["log"].attempted, traced["log"].failed


# -- recover -------------------------------------------------------------------

RECOVER_SESSIONS = 500


def _recover_cycle(ctx: Any, seed: int, tracer: Any) -> dict[str, Any]:
    """Write half of every session, crash, recover them all (timed),
    finish the rest; the witness compares against an uninterrupted
    run of the same docs."""
    sessions = list(itertools.islice(gen.api_sessions(seed, prefix="r"), RECOVER_SESSIONS))
    first, setup_s, _first_s = timed_setup(ctx, lambda root: Fabric(log_root=root))
    root = first.policy.log_root
    halves = [(key, docs[: len(docs) // 2]) for key, docs in sessions]
    for index in range(max(len(docs) for _key, docs in halves)):
        futures = [first.submit(key, docs[index]) for key, docs in halves if index < len(docs)]
        for future in futures:
            future.result(60).unwrap()
    first.stop()  # the crash: nothing of the first pool survives but its logs

    start = time.perf_counter()
    second = Fabric(log_root=root, services=first.services,
                    before_start=tracer.instrument_recovery if tracer else None)
    per_session = []
    for key, _docs in sessions:
        began = time.perf_counter()
        report = second.pool.recover_session(key, apply_entry=replay_entry)
        per_session.append(time.perf_counter() - began)
        if report.errors:
            second.stop()
            raise BenchError(f"recover: {key}: replayed entries raised {report.errors[:2]}")
    recover_s = time.perf_counter() - start
    rss = peak_rss_mb()
    try:
        futures = []
        for key, docs in sessions:
            futures += [second.submit(key, doc) for doc in docs[len(docs) // 2:]]
        for future in futures:
            future.result(60).unwrap()
    finally:
        second.stop()
    issued = {"setup": [SETUP_DOC], **dict(sessions)}
    check_logs("recover", second.services, reference_logs(issued, second.shard_of))
    steps = sum(len(docs) for docs in issued.values())
    return {"recover_s": recover_s, "per_session": per_session, "setup_s": setup_s,
            "rss": rss, "wal_bytes": log_bytes(Path(root)), "steps": steps}


def _recover_rows(report: Report, cycles: list[dict], setups: list[float]) -> None:
    log = StepLog()
    log.latencies = [s for c in cycles for s in c["per_session"]]
    log.ok = log.good = len(log.latencies)
    add_e2e_rows(report, setups=setups, log=log, elapsed=sum(c["recover_s"] for c in cycles),
                 wal_bytes=sum(c["wal_bytes"] for c in cycles),
                 steps=sum(c["steps"] for c in cycles),
                 rss=max(c["rss"] for c in cycles), rss_samples=len(cycles))
    report.add("recover_s", median([c["recover_s"] for c in cycles]), "s", len(cycles))


def run_recover(ctx: Any) -> tuple[Report, int, int]:
    """Crash/recover cycles, each on a fresh seed derived from ``--seed``,
    until ``--seconds`` have passed (traced and plain cycles alternate
    in the traced pass); set-ups are sampled before every cycle."""
    report = Report("recover", ctx.seed)
    setups: list[float] = []
    tracer = None
    if ctx.trace:
        from spans import RecoveryTracer

        tracer = RecoveryTracer()
    plain: list[dict] = []
    traced: list[dict] = []
    deadline = time.perf_counter() + ctx.seconds
    while not plain or (tracer and not traced) or time.perf_counter() < deadline:
        seed = ctx.seed * 1000 + len(plain) + len(traced)
        setups += setup_samples(ctx, SETUPS_PER_ROUND)
        if tracer and len(traced) < len(plain):
            traced.append(_recover_cycle(ctx, seed, tracer))
        else:
            plain.append(_recover_cycle(ctx, seed, None))
    _recover_rows(report, plain, setups + [c["setup_s"] for c in plain + traced])
    report.notes["cycles"] = len(plain) + len(traced)
    recovered = sum(len(c["per_session"]) for c in plain + traced)
    if tracer:
        tracer.layer_rows(report.layers)
        traced_report = Report("recover", ctx.seed)
        _recover_rows(traced_report, traced, [c["setup_s"] for c in traced])
        report.overhead(traced_report)
    return report, recovered, 0
