"""Shared pieces: statistics, the closed-loop load generator, the run report."""

from __future__ import annotations

import math
import queue
import resource
import time
from statistics import median
from typing import Any, Callable, Iterator


class BenchError(RuntimeError):
    """The run cannot produce valid numbers (failed witness, bad set-up)."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


#: step latency quantiles every workload reports.
QUANTILES = (("step_p50_ms", 0.50), ("step_p75_ms", 0.75), ("step_p90_ms", 0.90),
             ("step_p99_ms", 0.99))


def stop_child_processes() -> None:
    """Stop and reap every process this run started.

    ``ProcessCluster.stop`` joins its workers, but the spawn start
    method also starts multiprocessing's resource tracker, which lives
    until every holder of its pipe has gone and is otherwise reaped by
    nobody once this process exits.  Any worker still alive is killed
    first so that the tracker's pipe closes.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (MiB; Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Report:
    """Named metrics with unit and sample count, printed as a table."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.rows: dict[str, tuple[float, str, int]] = {}
        self.layers: dict[str, tuple[float, str, int]] = {}
        self.notes: dict[str, Any] = {}

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.rows[name] = (float(value), unit, int(samples))

    def overhead(self, traced: "Report") -> None:
        """Tracing overhead: each traced end-to-end figure over the
        untraced one of the same run."""
        for name in ("steps_per_s", *(name for name, _q in QUANTILES)):
            value, _unit, samples = traced.rows[name]
            self.layers[f"trace.overhead.{name}"] = (value / self.rows[name][0], "ratio", samples)

    def render(self, title: str) -> str:
        from gen import fingerprint

        lines = [f"== {self.workload} seed={self.seed} inputs={fingerprint(self.seed)} {title}"]
        for key, value in self.notes.items():
            lines.append(f"   {key}: {value}")
        rows = {**self.rows, **self.layers}
        width = max((len(name) for name in rows), default=10)
        for name, (value, unit, samples) in rows.items():
            lines.append(f"   {name:<{width}}  {value:>14.6g} {unit:<8} n={samples}")
        return "\n".join(lines)


class StepLog:
    """Latency samples of one measured window.

    With a latency ``limit`` (seconds; open loop) only OK steps that
    completed within it count as ``good``; otherwise every OK step does.
    """

    def __init__(self, limit: float | None = None) -> None:
        self.limit = limit
        self.latencies: list[float] = []
        self.ok = 0
        self.good = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, seconds: float, outcome: Any) -> None:
        self.latencies.append(seconds)
        if outcome.ok:
            self.ok += 1
            if self.limit is None or seconds <= self.limit:
                self.good += 1
        else:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(repr(outcome.error))

    @property
    def attempted(self) -> int:
        return self.ok + self.failed

    def add_latency_rows(self, report: Report) -> None:
        samples = [s * 1000.0 for s in self.latencies]
        for name, q in QUANTILES:
            report.add(name, percentile(samples, q), "ms", len(samples))
        report.add("failed_frac", self.failed / max(1, self.attempted), "1",
                   self.attempted)
        if self.limit is not None:
            report.add("late_frac", (self.ok - self.good) / max(1, self.attempted), "1",
                       self.attempted)
        if self.errors:
            report.notes["first failures"] = "; ".join(self.errors)


def add_e2e_rows(report: Report, *, setups: list[float], log: StepLog, elapsed: float,
                 wal_bytes: int, steps: int, rss: float, rss_samples: int = 1) -> None:
    """The end-to-end rows every workload reports: ``steps_per_s`` is
    the window's good steps over ``elapsed``, ``wal_bytes_per_step`` the
    log bytes over every step issued (warm-up and witness steps too)."""
    report.add("setup_s", median(setups), "s", len(setups))
    report.add("steps_per_s", log.good / elapsed, "1/s", log.good)
    log.add_latency_rows(report)
    report.add("wal_bytes_per_step", wal_bytes / steps, "B", steps)
    report.add("peak_rss_mb", rss, "MiB", rss_samples)


def submitted_docs(counts: dict[str, int],
                   stream: Iterator[tuple[str, list[dict]]]) -> dict[str, list[dict]]:
    """The docs behind :func:`closed_loop`'s prefix counts, regenerated
    from a fresh copy of the seeded session stream.  A run keeps only
    counts, so its memory does not grow with the docs it has sent and
    ``peak_rss_mb`` does not rise with throughput."""
    docs: dict[str, list[dict]] = {}
    for key, session in stream:
        if len(docs) == len(counts):
            break
        if key in counts:
            docs[key] = session[: counts[key]]
    return docs


def closed_loop(
    *,
    clients: int,
    seconds: float,
    sessions: Iterator[tuple[str, list[dict]]],
    submit: Callable[[str, dict], Any],
    close: Callable[[str], None],
    log: StepLog | None,
    issued: dict[str, int],
) -> float:
    """Drive ``clients`` closed-loop clients from this one thread.

    Each client runs a session's docs one at a time (the next step is
    submitted only after the previous outcome resolved), closes it, and
    takes the next session while time remains.  Completions arrive
    through the futures' done-callbacks; this thread does all
    submitting, so load comes from one process and one thread.  Every
    doc submitted is counted in ``issued[key]`` (the length of the
    session's submitted prefix) for the witness.
    Returns the elapsed wall time of the window.
    """
    done: queue.SimpleQueue = queue.SimpleQueue()
    cursor: list[list[Any]] = []

    def fire(client: int) -> None:
        key, docs, index = cursor[client]
        issued[key] = index + 1
        started = time.perf_counter()
        future = submit(key, docs[index])
        future.add_done_callback(
            lambda fut, c=client, t=started: done.put((c, t, time.perf_counter(), fut))
        )

    start = time.perf_counter()
    deadline = start + seconds
    for client in range(clients):
        key, docs = next(sessions)
        cursor.append([key, docs, 0])
        fire(client)
    running = clients
    while running:
        client, started, finished, future = done.get()
        outcome = future.result()
        if log is not None:
            log.record(finished - started, outcome)
        slot = cursor[client]
        slot[2] += 1
        if slot[2] == len(slot[1]):
            close(slot[0])
            if finished >= deadline:
                running -= 1
                continue
            key, docs = next(sessions)
            cursor[client] = slot = [key, docs, 0]
        elif finished >= deadline:
            # a session cut by the deadline still closes cleanly; its
            # prefix is what the witness replays.
            close(slot[0])
            running -= 1
            continue
        fire(client)
    return time.perf_counter() - start
