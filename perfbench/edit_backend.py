"""Worker backend factory for the model-edits cluster.

``ProcessCluster(backend="edit_backend:backend")`` resolves this in
each spawned worker.  It is the shipped ``RegistryBackend`` over the
four shipped domains, plus what the benchmark needs from inside the
worker: each session's ``describe()`` op_logs taken just before it
closes (the witness), the worker's peak RSS, and — when the cluster
options carry ``perfbench_trace`` — timing shims on the worker's
layers whose spans are written out when the worker shuts down.
"""

from __future__ import annotations

import collections
import json
import os
import resource
import time
from pathlib import Path
from typing import Any

from spans import Recorder, instrument_broker, instrument_durability

perf = time.perf_counter


class BenchBackend:
    """Delegates to a RegistryBackend; records what the benchmark needs."""

    def __init__(self, inner: Any) -> None:
        self.inner = inner
        self.rec: Recorder | None = None
        self.out: Path | None = None
        self.worker_id = -1
        self.logs: dict[str, dict] = {}
        self.applies: collections.Counter = collections.Counter()
        self.intent = [0, 0]  # Intent Model cache hits, requests

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    def configure(self, worker_id: int, options: dict) -> None:
        self.worker_id = worker_id
        self.out = Path(options["perfbench_out"])
        if options.get("perfbench_trace"):
            self.rec = Recorder()
            self.rec.patch_functions()
        self.inner.configure(worker_id, {
            key: value for key, value in options.items()
            if not key.startswith("perfbench_")})
        if self.rec is not None:
            instrument_durability(self.rec, self.inner.durability)

    def open(self, session: str, doc: dict) -> Any:
        if self.rec is None:
            return self.inner.open(session, doc)
        value = self.rec.wrap(self.inner.open, "setup.open_session")(session, doc)
        self._instrument(self.inner.sessions[session])
        return value

    def _instrument(self, host: Any) -> None:
        rec, platform = self.rec, host.platform
        if platform.ui is not None:
            rec.patch(platform.ui, "submit", "ui.submit")
        synthesis = platform.synthesis
        if synthesis is not None:
            def commands(script: Any, *_args: Any, **_kwargs: Any) -> None:
                rec.counters["commands"] += len(script)

            rec.patch(synthesis, "synthesize", "synthesis.synthesize")
            rec.patch(synthesis.comparator, "compare", "synthesis.compare")
            rec.patch(synthesis.interpreter, "interpret", "synthesis.interpret", commands)
            rec.patch(synthesis.dispatcher, "promote", "synthesis.promote")
        if platform.controller is not None:
            rec.patch(platform.controller, "submit_script", "controller.submit_script")
            rec.patch(platform.controller, "execute_command", "controller.execute_command")
        if platform.broker is not None:
            instrument_broker(rec, platform, host.dsk.resources)

    def apply(self, session: str, doc: dict) -> Any:
        index = self.applies[session]
        self.applies[session] += 1
        if self.rec is None:
            return self.inner.apply(session, doc)
        trace, sid = f"{session}#{index}", self.rec.new_id()
        start = perf()
        try:
            return self.rec.run_in((trace, sid), sid, self.inner.apply, session, doc)
        finally:
            self.rec.add(trace, sid, None, "worker.apply", start, perf())

    def close(self, session: str) -> Any:
        host = self.inner.sessions.get(session)
        if host is not None:
            self.logs[session] = self.inner.describe(session)["op_logs"]
            handler = getattr(host.platform.controller, "intent_handler", None)
            if handler is not None:
                self.intent[0] += handler.generator.stats.cache_hits
                self.intent[1] += handler.generator.stats.requests
        self.applies.pop(session, None)
        return self.inner.close(session)

    def shutdown(self) -> None:
        self.inner.shutdown()
        report = {
            "worker": self.worker_id,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "logs": self.logs,
            "intent": self.intent,
            "counters": dict(self.rec.counters) if self.rec else {},
            "spans": self.rec.spans if self.rec else [],
        }
        path = self.out / f"worker-{self.worker_id}-{os.getpid()}.json"
        path.write_text(json.dumps(report), encoding="utf-8")


def backend() -> BenchBackend:
    from repro.middleware.cluster import default_backend

    return BenchBackend(default_backend())
