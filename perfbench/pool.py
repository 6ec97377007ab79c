"""The in-process PlatformPool fabric the api-steps, recover and
ingress-open workloads drive, plus their op_log witnesses."""

from __future__ import annotations

import collections
import time
from pathlib import Path
from typing import Any, Callable

from common import BenchError

SHARDS = 2

#: seconds of blocking service time per op-cost unit; with the
#: service's default op cost of 6 units one operation sleeps 300 µs
#: (the ``bench-scale`` testbed regime).  A copy of that bench's private
#: constant and work function, so the benchmark's service cost stays
#: fixed when the program's own benches change.
BLOCKING_SECONDS_PER_UNIT = 50e-6


def blocking_work(cost: float) -> None:
    if cost > 0:
        time.sleep(cost * BLOCKING_SECONDS_PER_UNIT)


def make_service(blocking: bool) -> Any:
    from repro.sim.network import CommService

    if blocking:
        return CommService("net0", work=blocking_work)
    return CommService("net0", op_cost=0.0)


def build_platform(service: Any, shard: Any = None) -> Any:
    """A CVM platform over ``service``, autonomic recovery off (as in
    E1: recovery runs through the scenarios' explicit steps)."""
    from repro.domains.communication.cvm import build_cvm

    wiring = {}
    if shard is not None:
        wiring = {"bus": shard.bus, "clock": shard.clock, "metrics": shard.metrics}
    platform = build_cvm(service=service, **wiring)
    platform.broker.autonomic.enabled = False
    return platform


def apply_doc(platform: Any, key: str, doc: dict) -> Any:
    """Apply one ``api``/``fail``/``recover`` doc to a CVM platform."""
    broker = platform.broker
    op = doc["op"]
    if op == "api":
        return broker.call_api(doc["api"], **doc["args"])
    session = broker.state.get(f"session:{doc['conn']}")
    if op == "fail":
        broker.resources.require("net0").inject_failure(session)
        return None
    if op == "recover":
        return broker.call_api("ncb.recover_session", session=session)
    raise BenchError(f"unknown doc op {op!r}")


def replay_entry(platform: Any, signal: Any) -> Any:
    """Recovery's ``apply_entry``: a logged ``fail`` is the world
    failing, which the surviving service already remembers, so it is
    not re-injected; everything else replays as it ran."""
    doc = signal.payload
    if doc["op"] == "fail":
        return None
    return apply_doc(platform, signal.origin, doc)


class Fabric:
    """One PlatformPool at the shipped defaults over known services."""

    def __init__(self, *, log_root: Path, blocking: bool = False,
                 services: list[Any] | None = None,
                 before_start: Callable[["Fabric"], None] | None = None) -> None:
        from repro.middleware.platform import PlatformPool
        from repro.runtime.durability import DurabilityPolicy

        self.services = services or [make_service(blocking) for _ in range(SHARDS)]
        self.policy = DurabilityPolicy(log_root=str(log_root))
        self.pool = PlatformPool(
            lambda shard: build_platform(self.services[shard.index], shard),
            shards=SHARDS, name="bench", durability=self.policy,
        )
        if before_start is not None:
            before_start(self)
        self.pool.start()
        self.pool.attach_cluster(None, apply=apply_doc)

    def submit(self, key: str, doc: dict) -> Any:
        return self.pool.submit_doc(key, doc)

    def shard_of(self, key: str) -> int:
        return self.pool.shard_for(key).index

    def stop(self) -> None:
        self.pool.stop()


def log_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*.log"))


def reference_logs(issued: dict[str, list[dict]],
                   shard_of: Callable[[str], int]) -> list[collections.Counter]:
    """Per-shard op_log multisets of a synchronous, thread-free run.

    One plain platform per shard (no pool, no WAL, no threads) applies
    each session's executed docs in order; sessions share a shard's
    platform and service exactly as in the fabric.  A doc that failed
    in the fabric fails here the same way, so errors are not fatal.
    """
    services = [make_service(False) for _ in range(SHARDS)]
    platforms = [build_platform(service) for service in services]
    try:
        for key, docs in issued.items():
            platform = platforms[shard_of(key)]
            for doc in docs:
                try:
                    apply_doc(platform, key, doc)
                except Exception:  # noqa: BLE001 - mirrors a failed step
                    pass
    finally:
        for platform in platforms:
            platform.stop()
    return [collections.Counter(service.op_log) for service in services]


def check_logs(label: str, live: list[Any], reference: list[collections.Counter]) -> None:
    """The witness: per-shard op_log multisets must be equal."""
    for index, (service, expected) in enumerate(zip(live, reference)):
        got = collections.Counter(service.op_log)
        if got != expected:
            diff = (got - expected) + (expected - got)
            raise BenchError(
                f"{label}: shard {index} op_log differs from the synchronous "
                f"run by {sum(diff.values())} operation(s): {dict(diff)}"
            )
