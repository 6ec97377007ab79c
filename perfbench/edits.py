"""model-edits: run_model edit sessions on a 2-worker ProcessCluster.

A closed loop of 2 clients.  Each session opens on the cluster (one of
the four shipped domains in turn), submits a base application model of
about 32 entities and then 8 one-entity edits as ``run_model`` docs,
and closes.  Workers run at their default durability (a WAL per
worker) with the coordinator's log shipping on.  This is the workload
where UI -> Synthesis -> Controller do most of the work and where large
docs cross the cluster framing and the shipped log.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable

import gen
from common import (BenchError, Report, StepLog, add_e2e_rows, closed_loop, peak_rss_mb,
                    submitted_docs)
from pool import log_bytes

WORKERS = 2
CLIENTS = 2
WARMUP_S = 1.0
SETUP_SESSION = {"domain": "communication", "autonomic": False}

perf = time.perf_counter


def _open_doc(domain: str) -> dict:
    # autonomic adaptation off: op_logs must not depend on timing.
    return {"domain": domain, "autonomic": False}


class Cluster:
    """A started ProcessCluster with log shipping, timed to its first
    accepted operation."""

    def __init__(self, ctx: Any, *, traced: bool = False) -> None:
        from repro.runtime.cluster import ProcessCluster

        self.root = ctx.fresh_dir("wal")
        self.out = ctx.fresh_dir("workers")
        start = perf()
        self.cluster = ProcessCluster(
            WORKERS, backend="edit_backend:backend", name="bench",
            options={"wal_dir": str(self.root), "perfbench_out": str(self.out),
                     "perfbench_trace": traced})
        self.cluster.build_shipper()
        try:
            self.cluster.start()
            self.spawn_s = perf() - start
            self.cluster.open_session("setup", SETUP_SESSION).result(60).unwrap()
            self.cluster.submit("setup", {"op": "noop"}).result(60).unwrap()
        except BaseException:
            self.cluster.stop()
            raise
        self.setup_s = perf() - start

    def stop(self) -> list[dict]:
        """Stop the workers; their end-of-life reports."""
        self.cluster.stop()
        return [json.loads(path.read_text(encoding="utf-8"))
                for path in sorted(self.out.glob("worker-*.json"))]


def reference_logs(issued: dict[str, list[dict]], domains: dict[str, str]) -> dict[str, dict]:
    """Every session replayed on an in-process RegistryBackend."""
    from repro.middleware.cluster import default_backend

    target = default_backend()
    logs = {}
    for key, docs in issued.items():
        target.open(key, _open_doc(domains[key]))
        for doc in docs:
            target.apply(key, doc)
        logs[key] = target.describe(key)["op_logs"]
        target.close(key)
    return logs


def check_logs(issued: dict[str, list[dict]], domains: dict[str, str],
               reports: list[dict]) -> None:
    live: dict[str, dict] = {}
    for report in reports:
        live.update(report["logs"])
    expected = reference_logs(issued, domains)
    wrong = sorted(key for key in expected if live.get(key) != expected[key])
    if wrong:
        raise BenchError(f"model-edits: {len(wrong)} session op_log(s) differ from "
                         f"the in-process replay, first {wrong[:3]}")


def _window(ctx: Any, seconds: float, tracer: Any) -> dict[str, Any]:
    fabric = Cluster(ctx, traced=tracer is not None)
    cluster = fabric.cluster
    issued: dict[str, int] = {}
    domains: dict[str, str] = {}
    opens: list[float] = []

    def sessions(stream: Any) -> Any:
        for key, domain, docs in stream:
            began = perf()
            cluster.open_session(key, _open_doc(domain)).result(60).unwrap()
            opens.append(perf() - began)
            domains[key] = domain
            yield key, docs

    def close(key: str) -> None:
        cluster.close_session(key).unwrap()

    submit: Callable = cluster.submit
    if tracer:
        submit = tracer.wrap_submit(cluster)
    stream = sessions(gen.edit_sessions(ctx.seed))
    try:
        closed_loop(clients=CLIENTS, seconds=WARMUP_S, sessions=stream, submit=submit,
                    close=close, log=None, issued=issued)
        if tracer:
            tracer.begin_window(cluster)
        opens.clear()
        log = StepLog()
        elapsed = closed_loop(clients=CLIENTS, seconds=seconds, sessions=stream,
                              submit=submit, close=close, log=log, issued=issued)
        if tracer:
            tracer.end_window(cluster, opens)
        rss = peak_rss_mb()
    finally:
        reports = fabric.stop()
    if len(reports) != WORKERS:
        raise BenchError(f"model-edits: {len(reports)} of {WORKERS} workers reported")
    docs = submitted_docs(issued, ((key, session) for key, _domain, session
                                   in gen.edit_sessions(ctx.seed)))
    check_logs(docs, domains, reports)
    return {"log": log, "elapsed": elapsed, "setup_s": fabric.setup_s,
            "spawn_s": fabric.spawn_s, "opens": opens, "reports": reports,
            "rss": rss + sum(report["rss_mb"] for report in reports),
            "wal_bytes": log_bytes(fabric.root),
            "steps": sum(len(session) for session in docs.values())}


def _rows(report: Report, window: dict[str, Any], setups: list[float]) -> None:
    add_e2e_rows(report, setups=setups, log=window["log"], elapsed=window["elapsed"],
                 wal_bytes=window["wal_bytes"], steps=window["steps"], rss=window["rss"],
                 rss_samples=1 + WORKERS)


def _setup_s(ctx: Any) -> float:
    throwaway = Cluster(ctx)
    throwaway.stop()
    return throwaway.setup_s


def run_model_edits(ctx: Any) -> tuple[Report, int, int]:
    """Three cluster set-ups are timed: before, for and after the
    measured window."""
    report = Report("model-edits", ctx.seed)
    before = _setup_s(ctx)
    plain = _window(ctx, ctx.seconds / 2 if ctx.trace else ctx.seconds, None)
    _rows(report, plain, [before, plain["setup_s"], _setup_s(ctx)])
    if not ctx.trace:
        return report, plain["log"].attempted, plain["log"].failed
    from spans import ClusterTracer

    tracer = ClusterTracer()
    traced = _window(ctx, ctx.seconds / 2, tracer)
    traced_report = Report("model-edits", ctx.seed)
    _rows(traced_report, traced, [traced["setup_s"]])
    tracer.layer_rows(report.layers, traced)
    report.overhead(traced_report)
    return report, traced["log"].attempted, traced["log"].failed
