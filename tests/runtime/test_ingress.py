"""Tests for the async ingress tier (PR 6 tentpole).

Covers typed reject outcomes for every shed reason, strict priority
scheduling with per-session FIFO, per-shard in-flight backpressure,
breaker-feedback shedding, seeded overload determinism under a
VirtualClock, the asyncio facade, and admitted-work op_log equivalence
against the synchronous fabric path.
"""

import asyncio
import random

import pytest

from repro.runtime.clock import VirtualClock
from repro.runtime.events import Event, EventBus
from repro.runtime.faults import FaultError, InvocationOutcome
from repro.runtime.ingress import (
    BATCH,
    INTERACTIVE,
    AdmissionPolicy,
    AsyncIngress,
    IngressError,
    IngressRejected,
    IngressTier,
    ShedReason,
)
from repro.runtime.sharded import ShardedRuntime


def make_tier(shards=2, *, policy=None, **kwargs):
    runtime = ShardedRuntime(shards, name="ingress-test", inline=True)
    runtime.start()
    tier = IngressTier(
        runtime, policy=policy, clock=VirtualClock(), **kwargs
    )
    return runtime, tier


def run_all(runtime, tier):
    """Pump + drain until nothing is outstanding (inline fabrics)."""
    while tier.backlog:
        tier.pump()
        runtime.drain()


class TestAdmissionPolicy:
    def test_defaults_validate(self):
        AdmissionPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"session_queue_limit": 0},
            {"max_pending": 0},
            {"entry_interactive_headroom": 0.0},
            {"entry_batch_headroom": 1.5},
            {"shard_backlog_limit": -1},
            {"max_inflight_per_shard": 0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(IngressError):
            AdmissionPolicy(**kwargs)

    def test_class_specific_knobs(self):
        policy = AdmissionPolicy(
            entry_interactive_headroom=0.9, entry_batch_headroom=0.4
        )
        assert policy.entry_headroom(INTERACTIVE) == 0.9
        assert policy.entry_headroom(BATCH) == 0.4
        assert policy.sheds_on_breaker(BATCH)
        assert not policy.sheds_on_breaker(INTERACTIVE)


class TestTypedRejects:
    def _assert_rejected(self, future, reason, *, session=None):
        assert future.done(), "sheds resolve synchronously"
        outcome = future.result()
        assert outcome.status == InvocationOutcome.REJECTED
        assert outcome.attempts == 0
        assert isinstance(outcome.error, IngressRejected)
        assert isinstance(outcome.error, FaultError)
        assert outcome.error.reason == reason
        if session is not None:
            assert outcome.error.session == session
        return outcome

    def test_session_queue_limit_sheds_queue_full(self):
        runtime, tier = make_tier(
            1, policy=AdmissionPolicy(session_queue_limit=2)
        )
        with runtime:
            a = tier.submit("s1", lambda: "a")
            b = tier.submit("s1", lambda: "b")
            c = tier.submit("s1", lambda: "c")
            assert not a.done() and not b.done()
            self._assert_rejected(c, ShedReason.QUEUE_FULL, session="s1")
            run_all(runtime, tier)
            assert a.result().value == "a"
            assert b.result().value == "b"
            assert tier.stats()["shed"] == 1

    def test_max_pending_sheds_overload_regardless_of_class(self):
        runtime, tier = make_tier(1, policy=AdmissionPolicy(max_pending=2))
        with runtime:
            tier.submit("s1", lambda: None)
            tier.submit("s2", lambda: None)
            interactive = tier.submit("s3", lambda: None)
            batch = tier.submit("s4", lambda: None, priority=BATCH)
            self._assert_rejected(interactive, ShedReason.OVERLOAD)
            self._assert_rejected(batch, ShedReason.OVERLOAD)
            run_all(runtime, tier)

    def test_entry_headroom_sheds_batch_before_interactive(self):
        policy = AdmissionPolicy(
            max_pending=10,
            entry_interactive_headroom=0.8,
            entry_batch_headroom=0.3,
        )
        runtime, tier = make_tier(1, policy=policy)
        with runtime:
            for i in range(3):  # pending == 3 == batch headroom
                tier.submit(f"s{i}", lambda: None)
            batch_entry = tier.submit(
                "new-batch", lambda: None, priority=BATCH, entry=True
            )
            self._assert_rejected(batch_entry, ShedReason.ENTRY_HEADROOM)
            # Interactive entry survives deeper into the overload, and
            # continuations of admitted sessions are untouched.
            assert not tier.submit(
                "new-inter", lambda: None, entry=True
            ).done()
            assert not tier.submit(
                "s0", lambda: None, priority=BATCH
            ).done()
            run_all(runtime, tier)

    def test_shard_backlog_sheds_entry_for_deep_shards(self):
        policy = AdmissionPolicy(shard_backlog_limit=1)
        runtime, tier = make_tier(1, policy=policy)
        with runtime:
            tier.submit("s1", lambda: None)
            tier.pump()  # in flight but not drained: depth == 1
            entry = tier.submit("s2", lambda: None, entry=True)
            self._assert_rejected(entry, ShedReason.SHARD_BACKLOG)
            assert not tier.submit("s3", lambda: None).done()
            run_all(runtime, tier)

    def test_closed_tier_sheds_but_finishes_accepted_work(self):
        runtime, tier = make_tier(1)
        with runtime:
            accepted = tier.submit("s1", lambda: "done")
            tier.close()
            late = tier.submit("s2", lambda: None)
            self._assert_rejected(late, ShedReason.CLOSED)
            run_all(runtime, tier)
            assert accepted.result().value == "done"

    def test_unknown_priority_is_an_error(self):
        runtime, tier = make_tier(1)
        with runtime:
            with pytest.raises(IngressError):
                tier.submit("s1", lambda: None, priority="urgent")


class TestBreakerFeedback:
    def test_open_breaker_sheds_batch_entry_until_it_closes(self):
        runtime, tier = make_tier(1)
        bus = EventBus()
        tier.watch_bus(bus)
        with runtime:
            bus.publish(Event(topic="resource.net0.breaker_open"))
            assert tier.stats()["open_breakers"] == ["net0"]
            shed = tier.submit(
                "b1", lambda: None, priority=BATCH, entry=True
            )
            outcome = shed.result()
            assert outcome.status == InvocationOutcome.REJECTED
            assert outcome.error.reason == ShedReason.BREAKER_OPEN
            # Default policy keeps interactive entry and continuations.
            assert not tier.submit("i1", lambda: None, entry=True).done()
            assert not tier.submit(
                "b1", lambda: None, priority=BATCH
            ).done()
            bus.publish(Event(topic="resource.net0.breaker_closed"))
            assert tier.stats()["open_breakers"] == []
            assert not tier.submit(
                "b2", lambda: None, priority=BATCH, entry=True
            ).done()
            run_all(runtime, tier)

    def test_interactive_shedding_is_opt_in(self):
        policy = AdmissionPolicy(shed_interactive_on_breaker=True)
        runtime, tier = make_tier(1, policy=policy)
        with runtime:
            tier.note_breaker("net0", True)
            outcome = tier.submit("i1", lambda: None, entry=True).result()
            assert outcome.error.reason == ShedReason.BREAKER_OPEN
            tier.note_breaker("net0", False)
            assert not tier.submit("i2", lambda: None, entry=True).done()
            run_all(runtime, tier)

    def test_close_cancels_bus_subscriptions(self):
        runtime, tier = make_tier(1)
        bus = EventBus()
        tier.watch_bus(bus)
        with runtime:
            tier.close()
            bus.publish(Event(topic="resource.net0.breaker_open"))
            assert tier.stats()["open_breakers"] == []


class TestScheduling:
    def test_interactive_dispatches_before_batch(self):
        runtime, tier = make_tier(1)
        order = []
        with runtime:
            tier.submit("b1", lambda: order.append("b1"), priority=BATCH)
            tier.submit("b2", lambda: order.append("b2"), priority=BATCH)
            tier.submit("i1", lambda: order.append("i1"))
            tier.submit("i2", lambda: order.append("i2"))
            run_all(runtime, tier)
        assert order == ["i1", "i2", "b1", "b2"]

    def test_per_session_fifo_survives_mixed_priorities(self):
        # A session's batch head must not be overtaken by its own
        # later interactive request: only heads dispatch, in order.
        runtime, tier = make_tier(1)
        order = []
        with runtime:
            tier.submit("s", lambda: order.append(1), priority=BATCH)
            tier.submit("s", lambda: order.append(2))
            tier.submit("s", lambda: order.append(3), priority=BATCH)
            run_all(runtime, tier)
        assert order == [1, 2, 3]

    def test_inflight_cap_applies_backpressure_per_shard(self):
        policy = AdmissionPolicy(max_inflight_per_shard=1)
        runtime, tier = make_tier(1, policy=policy)
        order = []
        with runtime:
            futures = [
                tier.submit(f"s{i}", lambda i=i: order.append(i))
                for i in range(3)
            ]
            assert tier.pump() == 1
            assert tier.pump() == 0  # cap reached, nothing moves
            assert tier.queued == 2
            runtime.drain()  # completes the in-flight request
            assert tier.pump() == 1  # stalled session served first
            run_all(runtime, tier)
        assert order == [0, 1, 2]
        assert all(f.result().ok for f in futures)

    def test_batched_handoff_is_one_mailbox_task_per_shard(self):
        runtime, tier = make_tier(2)
        with runtime:
            for i in range(16):
                tier.submit(f"s{i}", lambda: None)
            tier.pump()
            posted = sum(
                shard.mailbox.pending for shard in runtime.shards
            )
            # 16 requests across 2 shards ride exactly 2 mailbox tasks.
            assert posted == len(
                [s for s in runtime.shards if s.mailbox.pending]
            )
            assert posted <= 2
            run_all(runtime, tier)
            assert tier.stats()["completed"] == 16

    def test_failures_become_failed_outcomes(self):
        runtime, tier = make_tier(1)
        with runtime:
            def boom():
                raise ValueError("exploded")

            future = tier.submit("s1", boom)
            run_all(runtime, tier)
            outcome = future.result()
            assert outcome.status == InvocationOutcome.FAILED
            assert isinstance(outcome.error, ValueError)
            assert outcome.attempts == 1
            with pytest.raises(ValueError):
                outcome.unwrap()

    def test_resolve_binds_positional_arguments(self):
        runtime, tier = make_tier(
            1, resolve=lambda key: (key.upper(),)
        )
        with runtime:
            future = tier.submit("abc", lambda bound: bound)
            run_all(runtime, tier)
            assert future.result().value == "ABC"


class TestSheddingDeterminism:
    """Seeded arrival pattern + VirtualClock => identical shed/admit
    traces on every run (the benchmark's determinism sub-check)."""

    def _run(self, seed):
        policy = AdmissionPolicy(
            session_queue_limit=3,
            max_pending=12,
            entry_interactive_headroom=0.75,
            entry_batch_headroom=0.4,
            max_inflight_per_shard=2,
        )
        runtime, tier = make_tier(2, policy=policy)
        rng = random.Random(seed)
        trace = []
        executed = []
        opened = set()
        with runtime:
            for i in range(240):
                key = f"s{rng.randrange(10)}"
                priority = BATCH if rng.random() < 0.4 else INTERACTIVE
                entry = key not in opened
                future = tier.submit(
                    key,
                    lambda i=i: executed.append(i),
                    priority=priority,
                    entry=entry,
                )
                if future.done():
                    trace.append(
                        (i, key, future.result().error.reason)
                    )
                else:
                    opened.add(key)
                    trace.append((i, key, "admitted"))
                if i % 8 == 7:
                    tier.pump()
                    runtime.drain()
                tier.clock.advance(0.001)
            run_all(runtime, tier)
        sheds = [t for t in trace if t[2] != "admitted"]
        assert sheds, "workload must overload the tier"
        assert len(sheds) < len(trace), "workload must admit work too"
        return trace, executed

    def test_same_seed_same_trace(self):
        first_trace, first_exec = self._run(1234)
        second_trace, second_exec = self._run(1234)
        assert first_trace == second_trace
        assert first_exec == second_exec

    def test_different_seeds_differ(self):
        # Sanity: the trace actually depends on the arrival pattern.
        assert self._run(1)[0] != self._run(2)[0]


class TestAsyncFacade:
    def test_await_submit_returns_typed_outcomes(self):
        runtime = ShardedRuntime(2, name="ingress-async").start()
        tier = IngressTier(
            runtime, policy=AdmissionPolicy(session_queue_limit=4)
        )

        async def main():
            async with AsyncIngress(tier, poll_interval=0.002) as ingress:
                outcomes = await asyncio.gather(
                    *(
                        ingress.submit(f"s{i % 8}", lambda i=i: i * 2)
                        for i in range(32)
                    )
                )
                return outcomes

        try:
            outcomes = asyncio.run(main())
        finally:
            runtime.stop()
        assert len(outcomes) == 32
        assert all(o.ok for o in outcomes)
        assert sorted(o.value for o in outcomes) == [
            i * 2 for i in range(32)
        ]
        assert tier.stats()["completed"] == 32

    def test_awaited_shed_resolves_immediately(self):
        runtime = ShardedRuntime(1, name="ingress-async-shed").start()
        tier = IngressTier(runtime, policy=AdmissionPolicy(max_pending=1))

        async def main():
            async with AsyncIngress(tier) as ingress:
                import threading

                gate = threading.Event()
                slow = asyncio.ensure_future(
                    ingress.submit("s1", gate.wait)
                )
                await asyncio.sleep(0.05)  # dispatcher hands it off
                shed = await ingress.submit("s2", lambda: None)
                gate.set()
                first = await slow
                return first, shed

        try:
            first, shed = asyncio.run(main())
        finally:
            runtime.stop()
        assert first.ok
        assert shed.status == InvocationOutcome.REJECTED
        assert shed.error.reason == ShedReason.OVERLOAD

    def test_stop_drains_then_sheds_late_arrivals(self):
        runtime = ShardedRuntime(1, name="ingress-async-stop").start()
        tier = IngressTier(runtime)

        async def main():
            ingress = await AsyncIngress(tier).start()
            done = await ingress.submit("s1", lambda: "ran")
            await ingress.stop()
            late = await ingress.submit("s2", lambda: None)
            return done, late

        try:
            done, late = asyncio.run(main())
        finally:
            runtime.stop()
        assert done.value == "ran"
        assert late.error.reason == ShedReason.CLOSED


class TestOpLogEquivalence:
    def test_admitted_sessions_match_synchronous_fabric_run(self):
        # Same workload, same per-session interleaving, two paths:
        # the PR 4 synchronous fabric (golden) and the ingress tier.
        # Admitted sessions must produce byte-identical op_logs.
        from repro.bench.harness import op_log_bytes
        from repro.bench.scale import (
            _SessionState,
            build_workload,
            run_fabric,
        )

        specs = build_workload(8)
        golden = run_fabric(specs, shards=1, inline=True)["op_logs"]

        runtime = ShardedRuntime(2, name="ingress-eq", inline=True)
        runtime.start()
        tier = IngressTier(runtime)  # default policy: nothing sheds
        states = {
            spec.key: _SessionState(
                spec, runtime.shard_for(spec.key).metrics
            )
            for spec in specs
        }
        max_steps = max(len(spec.steps) for spec in specs)
        for step_index in range(max_steps):
            for spec in specs:
                if step_index >= len(spec.steps):
                    continue
                state = states[spec.key]
                step = spec.steps[step_index]
                future = tier.submit(
                    spec.key,
                    lambda s=state, st=step: s.run_step(st),
                    entry=step_index == 0,
                )
                assert not future.done(), "nothing may shed"
            tier.pump()
            runtime.drain()
        run_all(runtime, tier)
        runtime.stop()
        assert tier.stats()["shed"] == 0
        for spec in specs:
            log = states[spec.key].service.op_log
            assert op_log_bytes(log) == golden[spec.key]


class TestCloseSession:
    """Closing a session must shed its queued backlog as typed rejects
    (PR 7 satellite): nothing may dispatch into a released session, and
    no waiter may hang on a queue nobody will pump."""

    def test_queued_requests_shed_as_session_closed(self):
        runtime, tier = make_tier(
            1, policy=AdmissionPolicy(max_inflight_per_shard=1)
        )
        with runtime:
            first = tier.submit("s1", lambda: "first")
            second = tier.submit("s1", lambda: "second")
            third = tier.submit("s1", lambda: "third")
            tier.pump()  # dispatches "first" only (inflight limit 1)
            assert tier.close_session("s1") == 2
            for future in (second, third):
                assert future.done(), "shed resolves immediately"
                outcome = future.result()
                assert outcome.status == InvocationOutcome.REJECTED
                assert isinstance(outcome.error, IngressRejected)
                assert outcome.error.reason == ShedReason.SESSION_CLOSED
                assert outcome.error.session == "s1"
            # past the point of no return: the dispatched request
            # still completes normally
            runtime.drain()
            tier.pump()
            assert first.result().value == "first"
            assert tier.stats()["shed"] == 2
            assert tier.stats()["queued"] == 0

    def test_close_session_without_backlog_is_noop(self):
        runtime, tier = make_tier(1)
        with runtime:
            assert tier.close_session("ghost") == 0
            assert tier.stats()["shed"] == 0

    def test_other_sessions_unaffected(self):
        runtime, tier = make_tier(
            1, policy=AdmissionPolicy(max_inflight_per_shard=1)
        )
        with runtime:
            victim = tier.submit("victim", lambda: "v")
            survivor = tier.submit("other", lambda: "ok")
            assert tier.close_session("victim") == 1
            assert victim.done() and not survivor.done()
            run_all(runtime, tier)
            assert survivor.result().value == "ok"
