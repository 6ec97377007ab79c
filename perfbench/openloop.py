"""ingress-open: Poisson session arrivals into ``build_ingress()``.

Sessions arrive on a seeded Poisson schedule at one fixed rate (set
once, near half of the measured capacity, never adapted at run time)
into the admission-controlled front door of a 2-shard PlatformPool at
its defaults.  Every step of a session is offered when the session
arrives; its latency counts from that due time, so a stall also delays
the steps queued behind it.  Each service operation sleeps 300 µs.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any

from repro.runtime.faults import InvocationOutcome

import gen
from apisteps import ROUNDS, SETUP_DOC, SETUPS_PER_ROUND
from common import BenchError, Report, StepLog, add_e2e_rows, peak_rss_mb, percentile
from pool import Fabric, apply_doc, check_logs, log_bytes, reference_logs

WARMUP_S = 0.5
#: an untraced run is invalid when the generator's p99 lag exceeds this.
LAG_LIMIT_MS = 50.0
#: a step that completes later than this after it was due counts as
#: late: it is not a good step in ``steps_per_s``, so the open loop's
#: throughput reacts to shedding, failures and latency blow-ups rather
#: than only echoing the offered rate.
STEP_LIMIT_MS = 50.0


def _step(key: str, doc: dict) -> Any:
    return lambda platform: apply_doc(platform, key, doc)


class OpenLoop:
    """One fabric, its ingress tier, and the generator driving it."""

    def __init__(self, ctx: Any, tracer: Any = None) -> None:
        self.tracer = tracer
        self.root = ctx.fresh_dir("wal")
        start = time.perf_counter()
        self.fabric = Fabric(log_root=self.root, blocking=True,
                             before_start=tracer.instrument_pool if tracer else None)
        self.tier = self.fabric.pool.build_ingress()
        if tracer:
            tracer.tier = self.tier
        first_op = time.perf_counter()
        first = self.tier.submit("setup", _step("setup", SETUP_DOC), entry=True)
        self.tier.pump()
        first.result(60).unwrap()
        end = time.perf_counter()
        self.setup_s, self.first_s = end - start, end - first_op
        self.issued: dict[str, list[dict]] = {"setup": [SETUP_DOC]}
        self.wake = threading.Event()
        self.tier.on_work = self.wake.set

    def run(self, seed: int, seconds: float) -> dict[str, Any]:
        schedule = gen.poisson_arrivals(seed, gen.OPEN_RATE, WARMUP_S + seconds)
        sessions = gen.api_sessions(seed, prefix="o")
        done: queue.SimpleQueue = queue.SimpleQueue()
        remaining: dict[str, int] = {}
        log = StepLog(limit=STEP_LIMIT_MS / 1000.0)
        lags: list[float] = []
        busy = 0.0
        tier, wake = self.tier, self.wake
        submit = self.tracer.wrap_tier(tier) if self.tracer else tier.submit
        origin = time.perf_counter() + 0.01
        measured_from = origin + WARMUP_S
        measured_to = measured_from + seconds
        index = outstanding = 0
        last_done = measured_from
        while index < len(schedule) or outstanding:
            began = time.perf_counter()
            while index < len(schedule) and began >= origin + schedule[index]:
                due = origin + schedule[index]
                key, docs = next(sessions)
                self.issued[key] = []
                remaining[key] = len(docs)
                if due >= measured_from:
                    lags.append(began - due)
                if self.tracer:
                    self.tracer.due = due
                for position, doc in enumerate(docs):
                    future = submit(key, _step(key, doc), entry=position == 0)
                    future.add_done_callback(lambda fut, k=key, d=due, s=doc: done.put(
                        (k, d, s, time.perf_counter(), fut)))
                outstanding += len(docs)
                index += 1
                began = time.perf_counter()
            while True:
                try:
                    key, due, doc, finished, future = done.get_nowait()
                except queue.Empty:
                    break
                outstanding -= 1
                if future.result().status != InvocationOutcome.REJECTED:
                    # executed steps complete in session order; the
                    # witness replays exactly those.
                    self.issued[key].append(doc)
                if due >= measured_from:
                    log.record(finished - due, future.result())
                    last_done = max(last_done, finished)
                remaining[key] -= 1
                if not remaining[key]:
                    del remaining[key]
                    self.fabric.pool.close_session(key)
            tier.pump()
            now = time.perf_counter()
            busy += now - began if now < measured_to else 0.0
            wait = origin + schedule[index] - now if index < len(schedule) else 0.002
            if wait > 0:
                wake.wait(wait)
            wake.clear()
        return {"log": log, "lags": lags, "busy": busy, "seconds": seconds,
                "elapsed": last_done - measured_from, "rss": peak_rss_mb()}

    def finish(self) -> dict[str, Any]:
        self.fabric.stop()
        check_logs("ingress-open", self.fabric.services,
                   reference_logs(self.issued, self.fabric.shard_of))
        steps = sum(len(docs) for docs in self.issued.values())
        return {"wal_bytes": log_bytes(self.root), "steps": steps,
                "shed": self.tier.stats()["shed"]}


def _rows(report: Report, setups: list[float], window: dict[str, Any],
          tail: dict[str, Any]) -> None:
    add_e2e_rows(report, setups=setups, log=window["log"], elapsed=window["elapsed"],
                 wal_bytes=tail["wal_bytes"], steps=tail["steps"], rss=window["rss"])
    lags = [lag * 1000.0 for lag in window["lags"]]
    report.add("loadgen.lag_ms.p99", percentile(lags, 0.99), "ms", len(lags))
    report.add("loadgen.busy_frac", window["busy"] / window["seconds"], "1", 1)
    report.notes["rate_sessions_per_s"] = gen.OPEN_RATE
    report.notes["shed"] = tail["shed"]


def _window(ctx: Any, seconds: float, tracer: Any) -> tuple[OpenLoop, dict, dict]:
    loop = OpenLoop(ctx, tracer)
    try:
        if tracer:
            tracer.begin_window()
        window = loop.run(ctx.seed, seconds)
        if tracer:
            tracer.end_window()
    finally:
        tail = loop.finish()
    lag_p99 = percentile([lag * 1000.0 for lag in window["lags"]], 0.99)
    if tracer is None and lag_p99 > LAG_LIMIT_MS:
        raise BenchError(
            f"ingress-open: invalid run, the generator fell behind its schedule "
            f"(lag p99 {lag_p99:.2f} ms > {LAG_LIMIT_MS} ms)")
    return loop, window, tail


def _setups(ctx: Any, repeats: int) -> list[float]:
    samples = []
    for _ in range(repeats):
        loop = OpenLoop(ctx)
        samples.append(loop.setup_s)
        loop.finish()
    return samples


def run_ingress_open(ctx: Any) -> tuple[Report, int, int]:
    """Set-ups are sampled before and after the measured window."""
    report = Report("ingress-open", ctx.seed)
    half = ROUNDS * SETUPS_PER_ROUND // 2
    setups = _setups(ctx, half)
    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    loop, window, tail = _window(ctx, seconds, None)
    setups += [loop.setup_s] + _setups(ctx, half)
    _rows(report, setups, window, tail)
    if not ctx.trace:
        return report, window["log"].attempted, window["log"].failed
    from spans import PoolTracer

    tracer = PoolTracer()
    traced_loop, traced, traced_tail = _window(ctx, ctx.seconds / 2, tracer)
    traced_report = Report("ingress-open", ctx.seed)
    _rows(traced_report, [traced_loop.setup_s], traced, traced_tail)
    # the generator's validity figures come from the untraced window,
    # the one its lag limit guards.
    extra = {name: report.rows.pop(name)[0]
             for name in ("loadgen.lag_ms.p99", "loadgen.busy_frac")}
    extra["setup.open_session_ms"] = traced_loop.first_s * 1e3
    tracer.layer_rows(report.layers, extra)
    report.overhead(traced_report)
    return report, traced["log"].attempted, traced["log"].failed
