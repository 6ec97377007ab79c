"""Tests for the per-session read index of the write-ahead log.

``WriteAheadLog.session_frames`` must yield exactly what filtering a
full ``replay()`` yields (the differential property below, over random
multi-session logs with rotation, checkpoints, truncation, imports,
forgets and torn tails), recovery must read O(one pass + the session's
own frames) rather than O(sessions x log), and corruption must surface
as ``WalError`` exactly where the full scan surfaced it.
"""

import random
import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.runtime.wal as wal_module
from repro.middleware.snapshot import recover_session
from repro.runtime.events import Signal
from repro.runtime.wal import EffectJournal, WalError, WriteAheadLog

SESSIONS = ["a", "b", "c"]
OWNER = "shard"


def filtered_replay(wal, session, owner=None):
    """The full-scan filter recovery used before the index existed."""
    owner = session if owner is None else owner
    out = []
    for position, doc in wal.replay():
        who = str(doc.get("session", ""))
        if doc.get("k") == "checkpoint":
            if who not in (session, owner) and not doc.get("covers_all"):
                continue
        elif who != session:
            continue
        out.append((position, doc))
    return out


def outcome(read):
    try:
        return read()
    except WalError:
        return "WalError"


def assert_index_matches(wal):
    for session in SESSIONS + [OWNER]:
        for owner in (None, OWNER, "a"):
            expected = outcome(lambda: filtered_replay(wal, session, owner))
            got = outcome(lambda: list(wal.session_frames(session, owner)))
            assert got == expected, (session, owner)


def tear(wal):
    """A crash mid-append: half a frame at the end of the last segment."""
    wal.sync()
    path = wal._segment_path(wal.segments()[-1])
    with open(path, "ab") as handle:
        handle.write(wal_module._HEADER.pack(500, 0) + b'{"k":"ent')


session_ids = st.sampled_from(SESSIONS)
operations = st.one_of(
    st.tuples(st.just("entry"), session_ids, st.integers(0, 40)),
    st.tuples(st.just("seal"), session_ids),
    st.tuples(st.just("event"), session_ids),
    st.tuples(
        st.just("checkpoint"),
        st.sampled_from(SESSIONS + [OWNER]),
        st.sampled_from(["full", "delta", "cover_all"]),
        st.booleans(),
    ),
    st.tuples(st.just("import"), session_ids, st.integers(0, 3)),
    st.tuples(st.just("forget"), session_ids),
    st.tuples(st.just("truncate")),
    st.tuples(st.just("read"), session_ids),
    st.tuples(st.just("crash")),
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=st.lists(operations, min_size=1, max_size=40),
    segment_max_bytes=st.sampled_from([200, 400, 4096]),
    torn_at_end=st.booleans(),
)
def test_session_frames_equal_filtered_replay(ops, segment_max_bytes, torn_at_end):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "wal"

        def reopen():
            return WriteAheadLog(
                directory, fsync=False, segment_max_bytes=segment_max_bytes
            )

        wal = reopen()
        seq = 0
        for op in ops:
            kind = op[0]
            if kind == "entry":
                seq += 1
                signal = Signal(
                    topic="t", payload={"pad": "x" * op[2]}, origin=op[1], seq=seq
                )
                wal.append_entry(signal, session=op[1])
            elif kind == "seal":
                effects = [["x", "ok", seq]]
                wal.seal_entry(session=op[1], entry_seq=seq, effects=effects)
            elif kind == "event":
                wal.append({"k": "close", "session": op[1]}, strict=False)
            elif kind == "checkpoint":
                _, session, mode, truncate = op
                wal.checkpoint(
                    {"state": seq, "layers": {"l": seq}},
                    session=session,
                    truncate=truncate,
                    delta=mode == "delta",
                    cover_all=mode == "cover_all",
                )
            elif kind == "import":
                key = op[1]
                tail = [{"k": "checkpoint", "session": key, "snapshot": {}}]
                for i in range(op[2]):
                    seq += 1
                    sig = {"seq": seq, "i": i}
                    tail.append({"k": "entry", "session": key, "sig": sig})
                wal.import_session(tail, session=op[1])
            elif kind == "forget":
                wal.forget_session(op[1])
            elif kind == "truncate":
                wal.truncate()
            elif kind == "read":
                # the first read builds the index; later ops append past it
                assert outcome(lambda: list(wal.session_frames(op[1]))) == outcome(
                    lambda: filtered_replay(wal, op[1])
                )
            elif kind == "crash":
                tear(wal)
                assert_index_matches(wal)
                wal.close()
                wal = reopen()
                assert wal.torn_tail_repaired
        if torn_at_end:
            tear(wal)
        assert_index_matches(wal)
        wal.close()


def test_concurrent_readers_and_a_writer_keep_the_index_exact(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal", fsync=False, segment_max_bytes=2048)
    done = threading.Event()
    failures = []

    def write():
        rng = random.Random(1)
        try:
            for i in range(400):
                key = rng.choice(SESSIONS)
                signal = Signal(topic="t", payload={"i": i}, origin=key)
                wal.append_entry(signal, session=key)
                if i % 50 == 49:
                    wal.checkpoint({"layers": {}}, session=OWNER, delta=True)
        finally:
            done.set()

    def read(seed):
        rng = random.Random(seed)
        while not done.is_set():
            key = rng.choice(SESSIONS)
            frames = list(wal.session_frames(key, OWNER))
            positions = [position for position, _doc in frames]
            # a frame indexed twice, or out of order, breaks this
            if positions != sorted(set(positions)):
                failures.append(positions)
            if any(doc["session"] not in (key, OWNER) for _pos, doc in frames):
                failures.append(frames)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=write)]
        threads += [threading.Thread(target=read, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not failures
    assert wal.rotations > 0
    for key in SESSIONS:
        expected = filtered_replay(wal, key, OWNER)
        assert list(wal.session_frames(key, OWNER)) == expected
    wal.close()


# -- recovery through the index ----------------------------------------------


class _Resources:
    def __init__(self):
        self.effect_journal = None

    def install_effect_journal(self, journal):
        self.effect_journal = journal


def _stub_platform():
    return SimpleNamespace(broker=SimpleNamespace(resources=_Resources()))


def _noop(platform, signal):
    return None


def _recover(wal, session, apply_entry=_noop):
    return recover_session(
        wal, session=session, apply_entry=apply_entry, platform=_stub_platform()
    )


def test_second_recovery_sees_the_seals_the_first_appended(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal", fsync=False, segment_max_bytes=512)
    executed = []

    def effect(platform, signal):
        journal = platform.broker.resources.effect_journal
        return journal.around(
            "op", lambda: executed.append(signal.payload["i"]) or signal.payload["i"]
        )

    journals = {key: EffectJournal(wal, session=key) for key in SESSIONS}
    live = SimpleNamespace(broker=SimpleNamespace(resources=_Resources()))
    for i in range(6):
        for key, journal in journals.items():
            live.broker.resources.effect_journal = journal
            effect(live, journal.log_call("t", {"i": i}))
            if not (key == "b" and i >= 4):  # b crashes before two seals
                journal.end_entry()
            else:
                journal.active = False
    assert len(executed) == 18

    first = _recover(wal, "b", effect)
    assert first.replayed_entries == 6 and not first.errors
    assert first.effects_memoized == 4 and first.effects_live == 2
    assert len(executed) == 20  # the two unsealed entries ran once more

    appends = wal.appends
    second = _recover(wal, "b", effect)
    # the index caught up with the seals the first recovery appended:
    # every effect replays memoized and nothing is sealed twice.
    assert second.effects_memoized == 6 and second.effects_live == 0
    assert len(executed) == 20
    assert wal.appends == appends
    assert list(wal.session_frames("b")) == filtered_replay(wal, "b")
    wal.close()


def _api(api, **args):
    return {"op": "api", "api": api, "args": args}


def _apply_doc(platform, key, doc):
    return platform.broker.call_api(doc["api"], **(doc.get("args") or {}))


def test_recovering_every_session_reads_one_pass_plus_own_frames(
    tmp_path, monkeypatch
):
    from repro.domains.communication.cvm import build_cvm
    from repro.middleware.platform import PlatformPool
    from repro.runtime.durability import DurabilityPolicy
    from repro.sim.network import CommService

    def factory(shard):
        return build_cvm(
            service=CommService("net0", op_cost=0.0),
            bus=shard.bus,
            clock=shard.clock,
            metrics=shard.metrics,
        )

    def make_pool():
        policy = DurabilityPolicy(log_root=str(tmp_path / "root"), fsync=False)
        return PlatformPool(
            factory, shards=2, inline=True, name="idx", durability=policy
        )

    keys = [f"s{i:03d}" for i in range(200)]
    with make_pool() as pool:
        pool.attach_cluster(None, apply=_apply_doc)
        for key in keys:
            pool.submit_doc(key, _api("ncb.open_session", connection=key))
            pool.submit_doc(key, _api("ncb.add_party", connection=key, party="p"))
        pool.drain()

    with make_pool() as pool:
        logged = 0  # every frame, segment headers included
        own: dict[str, int] = {}
        for shard in pool.runtime.shards:
            logged += len(shard.durability.wal.segments())
            for _position, doc in shard.durability.wal.replay():
                logged += 1
                own[doc.get("session")] = own.get(doc.get("session"), 0) + 1
        decoded = 0
        loads = wal_module._loads

        def counting_loads(payload):
            nonlocal decoded
            decoded += 1
            return loads(payload)

        monkeypatch.setattr(wal_module, "_loads", counting_loads)
        for key in keys:
            report = pool.recover_session(
                key,
                apply_entry=lambda platform, signal: _apply_doc(
                    platform, signal.origin, signal.payload
                ),
            )
            assert report.replayed_entries == 2 and not report.errors
        monkeypatch.setattr(wal_module, "_loads", loads)

    own_frames = sum(own[key] for key in keys)
    assert own_frames == 4 * len(keys)  # two entries + two seals each
    # one full pass per shard log to build the index, then each
    # session's own frames read back by position -- never a rescan of
    # the log per session (which would be ~len(keys) * logged / 2).
    assert decoded <= logged + own_frames
    assert decoded < 3 * logged


# -- corruption ---------------------------------------------------------------


def _two_session_log(directory):
    wal = WriteAheadLog(directory, fsync=False)
    for key in ("a", "b"):
        for i in range(3):
            signal = Signal(topic="t", payload={"i": i}, origin=key)
            wal.append_entry(signal, session=key)
    wal.rotate()
    wal.append_entry(Signal(topic="t", payload={}, origin="b"), session="b")
    return wal


def _flip(wal, position):
    path = wal._segment_path(position.segment)
    raw = bytearray(path.read_bytes())
    raw[position.offset + wal_module.FRAME_HEADER_SIZE + 2] ^= 0xFF
    path.write_bytes(bytes(raw))


def test_corrupt_frame_of_another_session_mid_log_still_raises(tmp_path):
    wal = _two_session_log(tmp_path / "wal")
    wal.sync()
    victim = next(pos for pos, doc in wal.replay() if doc["session"] == "a")
    _flip(wal, victim)  # in segment 0, no longer the final segment
    with pytest.raises(WalError, match="corrupt frame mid-log"):
        _recover(wal, "b")
    with pytest.raises(WalError, match="corrupt frame mid-log"):
        list(wal.session_frames("b"))  # a failed build is not kept
    wal.close()
    with pytest.raises(WalError, match="corrupt frame mid-log"):
        WriteAheadLog(tmp_path / "wal", fsync=False)


def test_indexed_frame_corrupted_after_indexing_fails_its_crc(tmp_path):
    wal = _two_session_log(tmp_path / "wal")
    assert _recover(wal, "b").replayed_entries == 4
    victim = [pos for pos, doc in wal.session_frames("b")][-1]  # final segment
    _flip(wal, victim)
    with pytest.raises(WalError, match="corrupt frame"):
        list(wal.session_frames("b"))
    with pytest.raises(WalError, match="corrupt frame"):
        _recover(wal, "b")
    wal.close()


def test_truncated_segments_are_pruned_from_the_index(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal", fsync=False)
    wal.append_entry(Signal(topic="t", payload={}, origin="a"), session="a")
    wal.append_entry(Signal(topic="t", payload={}, origin="lag"), session="lag")
    assert len(list(wal.session_frames("a"))) == 1
    wal.checkpoint({"layers": {}}, session="a")  # segment 0 pinned by "lag"
    assert wal.truncated_segments == 0
    assert len(list(wal.session_frames("a"))) == 2
    wal.forget_session("lag")
    assert wal.truncate() == 1  # a truncation with nothing appended after it
    frames = list(wal.session_frames("a"))
    assert [doc["k"] for _pos, doc in frames] == ["checkpoint"]
    assert all(position.segment == 1 for position, _doc in frames)
    assert frames == filtered_replay(wal, "a")
    assert list(wal.session_frames("lag")) == filtered_replay(wal, "lag") == []
    wal.close()
