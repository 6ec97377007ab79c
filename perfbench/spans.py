"""Tracing from outside the program: spans recorded by timing shims.

The traced pass wraps the public entry points of each layer on the
live instances (and a few module functions) with shims that record a
span ``(trace, span_id, parent_id, name, start, end)``.  Spans of one
step share its trace id; a thread-local stack links each span to the
one that caused it, and a step's work on a shard thread inherits the
submitting span explicitly.  Spans stay in memory and are reduced to
per-layer metrics when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import collections
import itertools
import sys
import threading
import time
from typing import Any, Callable, Iterable

from common import median, percentile

perf = time.perf_counter

#: every per-layer metric, in the order it is printed.  A workload
#: that does not run a layer reports 0 for it (see NOTES.md).
LAYER_METRICS = (
    ("sharded.wait_ms.p50", "ms"), ("sharded.wait_ms.p99", "ms"),
    ("sharded.busy_frac", "1"),
    ("ingress.admit_us.p50", "us"), ("ingress.wait_ms.p50", "ms"),
    ("ingress.wait_ms.p99", "ms"), ("ingress.shed", "count"),
    ("ingress.handoff_batch", "1/batch"),
    ("wal.append.count", "1/step"), ("wal.append_us.self", "us"),
    ("journal.log_call_us", "us"), ("journal.end_entry_us", "us"),
    ("journal.around_invoke_us.self", "us"), ("wal.sync.count", "1/step"),
    ("wal.sync_ms.p99", "ms"), ("wal.bytes", "B/step"),
    ("recover.frames_scanned", "1/session"), ("recover.useful_frac", "1"),
    ("recover.replay_us", "us"),
    ("modeling.model_from_dict_ms", "ms/step"), ("modeling.validate_model_ms", "ms/step"),
    ("modeling.diff_ms", "ms/step"), ("modeling.clone_ms", "ms/step"),
    ("ui.submit_ms.self", "ms"), ("synthesis.synthesize_ms.self", "ms"),
    ("synthesis.compare_ms", "ms"), ("synthesis.interpret_ms", "ms"),
    ("synthesis.promote_ms", "ms"), ("synthesis.commands_per_edit", "1/step"),
    ("controller.submit_script_ms.self", "ms"),
    ("controller.execute_command.count", "1/step"),
    ("controller.im_cache_hit_frac", "1"),
    ("broker.call_api.count", "1/step"), ("broker.call_api_us.self", "us"),
    ("resource.invoke_us.self", "us"), ("sim.service_us", "us"),
    ("cluster.rtt_ms.p50", "ms"), ("cluster.overhead_ms.p50", "ms"),
    ("cluster.frame_bytes_per_step", "B/step"), ("cluster.ship_frames_per_step", "1/step"),
    ("setup.load_platform_ms", "ms"), ("setup.spawn_s", "s"),
    ("setup.open_session_ms", "ms"),
    ("loadgen.lag_ms.p99", "ms"), ("loadgen.busy_frac", "1"),
    ("unattributed_us_per_step", "us/step"),
    ("trace.overhead.steps_per_s", "ratio"), ("trace.overhead.step_p50_ms", "ratio"),
    ("trace.overhead.step_p75_ms", "ratio"), ("trace.overhead.step_p90_ms", "ratio"),
    ("trace.overhead.step_p99_ms", "ratio"),
)

#: spans whose self time counts as a listed layer's; the rest of a
#: step (client-side submit, shard task glue, pool and backend
#: dispatch code) is reported as ``unattributed_us_per_step``.
LISTED = frozenset({
    "sharded.wait", "ingress.admit", "ingress.wait",
    "journal.log_call", "journal.end_entry", "journal.around_invoke",
    "wal.append", "wal.sync", "broker.call_api", "resource.invoke",
    "sim.service", "modeling.model_from_dict", "modeling.validate_model",
    "modeling.diff", "modeling.clone", "ui.submit", "synthesis.synthesize",
    "synthesis.compare", "synthesis.interpret", "synthesis.promote",
    "controller.submit_script", "controller.execute_command",
    "cluster.overhead", "recover.replay",
})

#: module functions of the modeling layer (and neighbours) wrapped
#: wherever a ``repro`` module bound them by name.
MODULE_FUNCTIONS = (
    ("repro.modeling.serialize", "model_from_dict", "modeling.model_from_dict"),
    ("repro.modeling.constraints", "validate_model", "modeling.validate_model"),
    ("repro.modeling.diff", "diff_models", "modeling.diff"),
    ("repro.modeling.serialize", "clone_model", "modeling.clone"),
    ("repro.middleware.loader", "load_platform", "setup.load_platform"),
)


class Recorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: collections.Counter = collections.Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def new_id(self) -> int:
        return next(self._ids)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, trace: Any, sid: int, parent: int | None, name: str,
            start: float, end: float) -> None:
        self.spans.append((trace, sid, parent, name, start, end))

    def run_in(self, context: tuple | None, sid: int, fn: Callable, *args: Any) -> Any:
        """Run ``fn`` as span ``sid`` of ``context``'s trace."""
        stack = self._stack()
        stack.append((context[0] if context else None, sid))
        try:
            return fn(*args)
        finally:
            stack.pop()

    def wrap(self, fn: Callable, name: str,
             note: Callable[..., None] | None = None) -> Callable:
        """``fn`` recording a ``name`` span, child of the current one."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def shim(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            context = stack[-1] if stack else (None, None)
            sid = next(ids)
            stack.append((context[0], sid))
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans.append((context[0], sid, context[1], name, start, end))
            if note is not None:
                note(result, *args, **kwargs)
            return result

        shim.__wrapped__ = fn  # type: ignore[attr-defined]
        return shim

    def patch(self, obj: Any, attr: str, name: str,
              note: Callable[..., None] | None = None) -> None:
        setattr(obj, attr, self.wrap(getattr(obj, attr), name, note))

    def patch_functions(self) -> None:
        """Wrap :data:`MODULE_FUNCTIONS` in every loaded ``repro`` module
        that holds them (``from x import f`` binds by name)."""
        import importlib

        for module_name, attr, name in MODULE_FUNCTIONS:
            current = getattr(importlib.import_module(module_name), attr)
            original = getattr(current, "__wrapped__", current)
            shim = self.wrap(original, name)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and \
                        getattr(loaded, attr, None) in (current, original):
                    setattr(loaded, attr, shim)


def self_times(spans: Iterable[tuple]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = collections.defaultdict(list)
    for _trace, _sid, parent, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = {}
    for _trace, sid, _parent, _name, start, end in spans:
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children.get(sid, ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[sid] = (end - start) - covered
    return result


class Layers:
    """Per-layer reductions over the spans of a set of steps."""

    def __init__(self, spans: list[tuple], steps: set, step_count: int) -> None:
        self.spans = [span for span in spans if span[0] in steps]
        self.steps = max(1, step_count)
        self.selves = self_times(self.spans)
        self.by_name: dict[str, list[tuple]] = collections.defaultdict(list)
        for span in self.spans:
            self.by_name[span[3]].append(span)

    def durations(self, name: str) -> list[float]:
        return [span[5] - span[4] for span in self.by_name.get(name, ())]

    def self_list(self, name: str) -> list[float]:
        return [self.selves[span[1]] for span in self.by_name.get(name, ())]

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def mean(self, values: list[float], scale: float) -> float:
        return sum(values) / len(values) * scale if values else 0.0

    def per_step(self, name: str, scale: float = 1000.0) -> float:
        return sum(self.durations(name)) / self.steps * scale

    def pct(self, values: list[float], q: float, scale: float) -> float:
        return percentile(values, q) * scale if values else 0.0

    def unattributed_us(self, step_total: float) -> float:
        listed = sum(self.selves[span[1]] for span in self.spans if span[3] in LISTED)
        return (step_total - listed) / self.steps * 1e6

    def common_rows(self, out: dict[str, float]) -> None:
        """Metrics of the layers every fabric shares."""
        out["wal.append.count"] = self.count("wal.append") / self.steps
        out["wal.append_us.self"] = self.mean(self.self_list("wal.append"), 1e6)
        out["journal.log_call_us"] = self.mean(self.durations("journal.log_call"), 1e6)
        out["journal.end_entry_us"] = self.mean(self.durations("journal.end_entry"), 1e6)
        out["journal.around_invoke_us.self"] = self.mean(
            self.self_list("journal.around_invoke"), 1e6)
        out["wal.sync.count"] = self.count("wal.sync") / self.steps
        out["wal.sync_ms.p99"] = self.pct(self.durations("wal.sync"), 0.99, 1e3)
        out["broker.call_api.count"] = self.count("broker.call_api") / self.steps
        out["broker.call_api_us.self"] = self.mean(self.self_list("broker.call_api"), 1e6)
        out["resource.invoke_us.self"] = self.mean(self.self_list("resource.invoke"), 1e6)
        out["sim.service_us"] = self.mean(self.durations("sim.service"), 1e6)


def emit(layers: dict, values: dict[str, float], samples: int) -> None:
    """Store every :data:`LAYER_METRICS` entry (0 where not measured;
    the ``trace.overhead.*`` rows are filled in by the caller)."""
    for name, unit in LAYER_METRICS:
        layers[name] = (float(values.get(name, 0.0)), unit, samples)


def instrument_durability(rec: Recorder, durability: Any) -> None:
    """Shims on one ShardDurability: its WAL writes and syncs, and the
    journal of every session it hands out from now on."""
    wal = durability.wal

    def note_write(_result: Any, payload: bytes) -> None:
        rec.counters["wal.bytes"] += len(payload) + 8

    rec.patch(wal, "_write_locked", "wal.append", note_write)
    rec.patch(wal, "_sync_locked", "wal.sync")
    inner = durability.journal

    def journal(session: str) -> Any:
        found = inner(session)
        if not getattr(found, "_traced", False):
            rec.patch(found, "log_call", "journal.log_call")
            rec.patch(found, "end_entry", "journal.end_entry")
            rec.patch(found, "around_invoke", "journal.around_invoke")
            found._traced = True
        return found

    durability.journal = journal


def instrument_broker(rec: Recorder, platform: Any, services: Iterable[Any]) -> None:
    rec.patch(platform.broker, "call_api", "broker.call_api")
    rec.patch(platform.broker.resources, "invoke", "resource.invoke")
    for service in services:
        rec.patch(service, "invoke", "sim.service")


def step_window(spans: list[tuple], lo: float, hi: float) -> tuple[set, float]:
    """Traces of the steps that started in ``[lo, hi]`` and their total time."""
    steps = [span for span in spans if span[3] == "step" and lo <= span[4] <= hi]
    return {span[0] for span in steps}, sum(span[5] - span[4] for span in steps)


def setup_rows(spans: list[tuple], out: dict[str, float]) -> None:
    loads = [span[5] - span[4] for span in spans if span[3] == "setup.load_platform"]
    out["setup.load_platform_ms"] = sum(loads) / len(loads) * 1e3 if loads else 0.0


# -- the in-process pool -----------------------------------------------------------


class PoolTracer:
    """Shims for a PlatformPool: shard mailboxes, durability, broker,
    service, and (for ingress-open) the ingress tier."""

    def __init__(self) -> None:
        self.rec = Recorder()
        self.rec.patch_functions()
        self.local = threading.local()
        self.window = (0.0, 0.0)
        self.shards = 0
        #: due time of the step being submitted (set by the open-loop
        #: generator) and the ingress tier it submits to.
        self.due = 0.0
        self.tier: Any = None
        self.shed: collections.Counter = collections.Counter()

    def instrument_pool(self, fabric: Any) -> None:
        rec = self.rec
        runtime = fabric.pool.runtime
        self.shards = len(runtime.shards)
        inner_submit = runtime.submit

        def submit(key: str, fn: Callable, *args: Any) -> Any:
            return inner_submit(key, self._on_shard(fn), *args)

        runtime.submit = submit
        for shard in runtime.shards:
            self._patch_post(shard)
            instrument_durability(rec, shard.durability)
        for platform, service in zip(fabric.pool.platforms, fabric.services):
            instrument_broker(rec, platform, [service])

    def _patch_post(self, shard: Any) -> None:
        rec, local = self.rec, self.local
        inner_post = shard.post

        def post(task: Callable) -> None:
            posted = perf()

            def timed() -> None:
                local.posted = posted
                start = perf()
                try:
                    task()
                finally:
                    rec.add(None, rec.new_id(), None, "sharded.task", start, perf())

            inner_post(timed)

        shard.post = post

    def _on_shard(self, fn: Callable) -> Callable:
        """``fn`` run on a shard thread inside the submitting trace."""
        rec, local = self.rec, self.local
        context = rec.current()
        submitted = perf()

        def run(*args: Any) -> Any:
            start = perf()
            trace = context[0] if context else None
            parent = context[1] if context else None
            posted = getattr(local, "posted", submitted)
            if self.tier is not None:
                rec.add(trace, rec.new_id(), parent, "ingress.wait", submitted, posted)
            rec.add(trace, rec.new_id(), parent, "sharded.wait", posted, start)
            sid = rec.new_id()
            try:
                return rec.run_in(context, sid, fn, *args)
            finally:
                rec.add(trace, sid, parent, "sharded.run", start, perf())

        return run

    def wrap_submit(self, submit: Callable) -> Callable:
        """Closed-loop submit opening one trace (and root span) per step."""
        rec = self.rec

        def traced(key: str, doc: dict) -> Any:
            sid = rec.new_id()
            started = perf()
            future = rec.run_in((sid, sid), sid, submit, key, doc)
            future.add_done_callback(lambda _f: rec.add(sid, sid, None, "step", started, perf()))
            return future

        return traced

    def wrap_tier(self, tier: Any) -> Callable:
        """Open-loop ``tier.submit``: the step span starts at the due
        time the generator set in ``due``; admission is timed; the request
        runs inside the step's trace."""
        rec = self.rec

        def traced(key: str, fn: Callable, **kwargs: Any) -> Any:
            sid = rec.new_id()
            due = self.due
            run = rec.run_in((sid, sid), sid, self._on_shard, fn)
            start = perf()
            future = tier.submit(key, run, **kwargs)
            rec.add(sid, rec.new_id(), sid, "ingress.admit", start, perf())
            future.add_done_callback(lambda f: self._tier_done(sid, due, f))
            return future

        return traced

    def _tier_done(self, sid: int, due: float, future: Any) -> None:
        outcome = future.result()
        if outcome.status == outcome.REJECTED:
            self.shed[getattr(outcome.error, "reason", "unknown")] += 1
        self.rec.add(sid, sid, None, "step", due, perf())

    def begin_window(self) -> None:
        self.window = (perf(), 0.0)

    def end_window(self) -> None:
        self.window = (self.window[0], perf())

    def layer_rows(self, layers: dict, extra: dict[str, float]) -> None:
        lo, hi = self.window
        spans = self.rec.spans
        steps, step_total = step_window(spans, lo, hi)
        view = Layers(spans, steps, len(steps))
        out: dict[str, float] = dict(extra)
        view.common_rows(out)
        waits = view.durations("sharded.wait")
        out["sharded.wait_ms.p50"] = view.pct(waits, 0.50, 1e3)
        out["sharded.wait_ms.p99"] = view.pct(waits, 0.99, 1e3)
        busy = sum(min(end, hi) - max(start, lo) for _t, _s, _p, name, start, end
                   in spans if name == "sharded.task" and end > lo and start < hi)
        out["sharded.busy_frac"] = busy / ((hi - lo) * max(1, self.shards))
        out["wal.bytes"] = self.rec.counters["wal.bytes"] / max(1, len(steps))
        if self.tier is not None:
            admits = view.durations("ingress.admit")
            out["ingress.admit_us.p50"] = view.pct(admits, 0.50, 1e6)
            ingress_waits = view.durations("ingress.wait")
            out["ingress.wait_ms.p50"] = view.pct(ingress_waits, 0.50, 1e3)
            out["ingress.wait_ms.p99"] = view.pct(ingress_waits, 0.99, 1e3)
            out["ingress.shed"] = sum(self.shed.values())
            counter = self.tier.metrics.counter_value
            names = [shard.name for shard in self.tier.runtime.shards]
            handed = sum(counter("ingress.handoff_requests", name) for name in names)
            batches = sum(counter("ingress.handoff_batches", name) for name in names)
            out["ingress.handoff_batch"] = handed / max(1, batches)
            for reason, count in sorted(self.shed.items()):
                layers[f"ingress.shed.{reason}"] = (count, "count", len(steps))
        setup_rows(spans, out)
        out["unattributed_us_per_step"] = view.unattributed_us(step_total)
        emit(layers, out, len(steps))


# -- recovery ----------------------------------------------------------------------


class RecoveryTracer:
    """Shims on a freshly started pool that recovers sessions: its
    log scans, replayed entries and the broker."""

    def __init__(self) -> None:
        self.rec = Recorder()
        self.rec.patch_functions()
        self.key: str | None = None
        self.scanned = 0
        self.useful = 0
        self.scan_s = 0.0
        self.sessions = 0

    def instrument_recovery(self, fabric: Any) -> None:
        rec = self.rec
        for shard in fabric.pool.runtime.shards:
            shard.durability.wal.replay = self._scan(shard.durability.wal.replay)
        for platform, service in zip(fabric.pool.platforms, fabric.services):
            instrument_broker(rec, platform, [service])
        inner = fabric.pool.recover_session

        def recover_session(key: str, *, apply_entry: Callable) -> Any:
            sid = rec.new_id()
            self.key = key
            self.sessions += 1
            replay = rec.wrap(apply_entry, "recover.replay")
            start = perf()
            try:
                return rec.run_in((sid, sid), sid, lambda: inner(key, apply_entry=replay))
            finally:
                rec.add(sid, sid, None, "step", start, perf())

        fabric.pool.recover_session = recover_session

    def _scan(self, replay: Callable) -> Callable:
        def scan(*args: Any, **kwargs: Any) -> Any:
            frames = replay(*args, **kwargs)
            while True:
                start = perf()
                try:
                    item = next(frames)
                except StopIteration:
                    self.scan_s += perf() - start
                    return
                self.scan_s += perf() - start
                self.scanned += 1
                if str(item[1].get("session", "")) == self.key:
                    self.useful += 1
                yield item

        return scan

    def layer_rows(self, layers: dict) -> None:
        spans = self.rec.spans
        steps, step_total = step_window(spans, float("-inf"), float("inf"))
        view = Layers(spans, steps, len(steps))
        out: dict[str, float] = {}
        view.common_rows(out)
        sessions = max(1, self.sessions)
        out["recover.frames_scanned"] = self.scanned / sessions
        out["recover.useful_frac"] = self.useful / max(1, self.scanned)
        out["recover.replay_us"] = view.mean(view.durations("recover.replay"), 1e6)
        setup_rows(spans, out)
        # the log scan is the WAL's read path: a listed layer, timed
        # inside the replay generator rather than as a span.
        out["unattributed_us_per_step"] = view.unattributed_us(step_total - self.scan_s)
        emit(layers, out, len(steps))


# -- the process cluster -----------------------------------------------------------


class ClusterTracer:
    """Coordinator-side shims: one trace per step, keyed
    ``session#n`` like the worker-side spans the benchmark's backend
    records, and the bytes of every frame the coordinator sends or
    reads."""

    def __init__(self) -> None:
        self.rec = Recorder()
        self.frames: list[int] = []
        self.calls: collections.Counter = collections.Counter()
        self.marks: dict[str, Any] = {}
        import repro.runtime.cluster as transport

        encode, read = transport.encode_frame_doc, transport._read_exactly

        def counted_encode(doc: Any, **kwargs: Any) -> bytes:
            data = encode(doc, **kwargs)
            self.frames.append(len(data))
            return data

        def counted_read(sock: Any, size: int) -> bytes:
            data = read(sock, size)
            self.frames.append(size)
            return data

        transport.encode_frame_doc = counted_encode
        transport._read_exactly = counted_read

    def wrap_submit(self, cluster: Any) -> Callable:
        rec = self.rec

        def traced(key: str, doc: dict) -> Any:
            trace = f"{key}#{self.calls[key]}"
            self.calls[key] += 1
            started = perf()
            future = cluster.submit(key, doc)
            future.add_done_callback(
                lambda _f: rec.add(trace, trace, None, "step", started, perf()))
            return future

        return traced

    def begin_window(self, cluster: Any) -> None:
        self.marks.update(lo=perf(), frames=len(self.frames),
                          ship=cluster.shipper.frames_received)

    def end_window(self, cluster: Any, opens: list[float]) -> None:
        self.marks.update(hi=perf(), frames_end=len(self.frames),
                          ship_end=cluster.shipper.frames_received, opens=list(opens))

    def layer_rows(self, layers: dict, window: dict[str, Any]) -> None:
        marks = self.marks
        steps, step_total = step_window(self.rec.spans, marks["lo"], marks["hi"])
        spans = [span for span in self.rec.spans if span[3] == "step"]
        counters: collections.Counter = collections.Counter()
        intent = [0, 0]
        for report in window["reports"]:
            worker = report["worker"]
            spans += [(trace, (worker, sid), None if parent is None else (worker, parent),
                       name, start, end)
                      for trace, sid, parent, name, start, end in report["spans"]]
            counters.update(report["counters"])
            intent = [intent[0] + report["intent"][0], intent[1] + report["intent"][1]]
        applied = {span[0]: span[5] - span[4] for span in spans if span[3] == "worker.apply"}
        rtts = {span[0]: span[5] - span[4] for span in spans
                if span[3] == "step" and span[0] in steps}
        overheads = [rtts[trace] - applied[trace] for trace in rtts if trace in applied]
        spans += [(trace, ("overhead", trace), None, "cluster.overhead", 0.0,
                   rtts[trace] - applied[trace]) for trace in rtts if trace in applied]
        view = Layers(spans, steps, len(steps))
        n = view.steps
        out: dict[str, float] = {}
        view.common_rows(out)
        out["wal.bytes"] = counters["wal.bytes"] / n
        for name, metric in (("modeling.model_from_dict", "modeling.model_from_dict_ms"),
                             ("modeling.validate_model", "modeling.validate_model_ms"),
                             ("modeling.diff", "modeling.diff_ms"),
                             ("modeling.clone", "modeling.clone_ms")):
            out[metric] = view.per_step(name)
        out["ui.submit_ms.self"] = view.mean(view.self_list("ui.submit"), 1e3)
        out["synthesis.synthesize_ms.self"] = view.mean(
            view.self_list("synthesis.synthesize"), 1e3)
        for name in ("compare", "interpret", "promote"):
            out[f"synthesis.{name}_ms"] = view.mean(view.durations(f"synthesis.{name}"), 1e3)
        out["synthesis.commands_per_edit"] = counters["commands"] / n
        out["controller.submit_script_ms.self"] = view.mean(
            view.self_list("controller.submit_script"), 1e3)
        out["controller.execute_command.count"] = view.count("controller.execute_command") / n
        out["controller.im_cache_hit_frac"] = intent[0] / max(1, intent[1])
        out["cluster.rtt_ms.p50"] = view.pct(list(rtts.values()), 0.5, 1e3)
        out["cluster.overhead_ms.p50"] = view.pct(overheads, 0.5, 1e3)
        out["cluster.frame_bytes_per_step"] = sum(
            self.frames[marks["frames"]:marks["frames_end"]]) / n
        out["cluster.ship_frames_per_step"] = (marks["ship_end"] - marks["ship"]) / n
        setup_rows(spans, out)
        out["setup.spawn_s"] = window["spawn_s"]
        out["setup.open_session_ms"] = median(marks["opens"]) * 1e3 if marks["opens"] else 0.0
        out["unattributed_us_per_step"] = view.unattributed_us(step_total)
        emit(layers, out, len(steps))
