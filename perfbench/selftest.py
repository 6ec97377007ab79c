"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py            # plain runner
    python3 -m pytest perfbench/selftest.py  # or under pytest

A tiny run of every workload must pass its correctness witness, a
corrupted op_log must fail each witness, the generators must be
reproducible, the open loop must count only on-time steps as good,
self-time arithmetic must come out right on a synthetic span tree, and
a model-edits run must stop and reap every process it started.
"""

from __future__ import annotations

import collections
import itertools
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
for entry in (str(HERE), str(HERE.parent / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import gen  # noqa: E402
from common import BenchError  # noqa: E402
from spans import LAYER_METRICS, self_times  # noqa: E402


def _run(workload: str, trace: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_tiny_runs_pass_their_witness() -> None:
    for workload in ("api-steps", "model-edits", "recover", "ingress-open"):
        result = _run(workload)
        assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
        assert all(metric["value"] > 0 for metric in result["metrics"].values()), result


def test_traced_pass_reports_every_layer_metric() -> None:
    result = _run("api-steps", trace=1)
    assert list(result["metrics"]) == [name for name, _unit in LAYER_METRICS]
    assert result["metrics"]["wal.append.count"]["value"] > 0
    assert result["metrics"]["broker.call_api_us.self"]["value"] > 0


#: runs model-edits in a child interpreter and reports, once the run
#: has returned, its exit code, how many worker processes are still
#: known to multiprocessing, and which of the resource trackers it
#: started still exist (a tracker nobody reaped stays as a zombie,
#: which ``os.kill(pid, 0)`` still finds).
_REAP_PROBE = """
import json, multiprocessing, os
from multiprocessing import resource_tracker
import run
tracker, pids = resource_tracker._resource_tracker, []
ensure = tracker.ensure_running
def ensure_running():
    ensure()
    pids.append(tracker._pid)
tracker.ensure_running = ensure_running
code = run.main(["--workload", "model-edits", "--seed", "3", "--seconds", "0.5"])
alive = []
for pid in sorted(set(pids)):
    try:
        os.kill(pid, 0)
        alive.append(pid)
    except ProcessLookupError:
        pass
print(json.dumps({"code": code, "trackers": len(set(pids)), "alive": alive,
                  "children": len(multiprocessing.active_children())}))
"""


def test_model_edits_stops_and_reaps_every_process() -> None:
    done = subprocess.run([sys.executable, "-c", _REAP_PROBE], capture_output=True,
                          text=True, timeout=300, cwd=HERE)
    assert done.returncode == 0, done.stderr[-2000:]
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    assert probe["code"] == 0 and probe["trackers"] >= 1, probe
    assert probe["children"] == 0 and probe["alive"] == [], probe


def test_pool_witness_rejects_a_corrupted_op_log() -> None:
    from pool import check_logs, reference_logs

    issued = dict(itertools.islice(gen.api_sessions(5), 12))
    shard_of = {key: index % 2 for index, key in enumerate(issued)}.__getitem__
    expected = reference_logs(issued, shard_of)
    live = [types.SimpleNamespace(op_log=list(counter.elements())) for counter in expected]
    check_logs("selftest", live, expected)
    live[1].op_log[0] = "close_stream" if live[1].op_log[0] != "close_stream" else "add_party"
    try:
        check_logs("selftest", live, expected)
    except BenchError:
        return
    raise AssertionError("a corrupted op_log passed the pool witness")


def test_cluster_witness_rejects_a_corrupted_op_log() -> None:
    from edits import check_logs, reference_logs

    stream = gen.edit_sessions(5, edits=2)
    sessions = list(itertools.islice(stream, 4))
    issued = {key: docs for key, _domain, docs in sessions}
    domains = {key: domain for key, domain, _docs in sessions}
    logs = reference_logs(issued, domains)
    check_logs(issued, domains, [{"logs": logs}])
    corrupted = json.loads(json.dumps(logs))
    (service_log,) = corrupted["m00002"].values()
    service_log.pop()
    try:
        check_logs(issued, domains, [{"logs": corrupted}])
    except BenchError:
        return
    raise AssertionError("a corrupted op_log passed the cluster witness")


def test_generators_are_reproducible() -> None:
    assert gen.fingerprint(7) == gen.fingerprint(7)
    assert gen.fingerprint(7) != gen.fingerprint(8)


def test_open_loop_counts_only_on_time_steps_as_good() -> None:
    from common import StepLog

    ok, failed = types.SimpleNamespace(ok=True), types.SimpleNamespace(ok=False, error="x")
    log = StepLog(limit=0.05)
    for seconds, outcome in ((0.01, ok), (0.05, ok), (0.2, ok), (0.01, failed)):
        log.record(seconds, outcome)
    assert (log.ok, log.good, log.failed, log.attempted) == (3, 2, 1, 4)
    closed = StepLog()
    closed.record(0.2, ok)
    assert closed.good == 1


def test_self_time_arithmetic() -> None:
    # root [0, 10] with children [1, 3] and [2, 5] (overlapping) and
    # [8, 12] (running past the root's end); [2, 5] has a child [3, 4].
    spans = [
        ("t", 1, None, "root", 0.0, 10.0),
        ("t", 2, 1, "a", 1.0, 3.0),
        ("t", 3, 1, "b", 2.0, 5.0),
        ("t", 4, 1, "c", 8.0, 12.0),
        ("t", 5, 3, "d", 3.0, 4.0),
    ]
    selves = self_times(spans)
    assert selves == {1: 10.0 - 4.0 - 2.0, 2: 2.0, 3: 2.0, 4: 4.0, 5: 1.0}


def test_known_defect_recover_after_shard_checkpoint() -> None:
    """Characterizes a program defect the recover workload steps around.

    ``PlatformPool.recover_session`` restores the shard's latest
    ``cover_all`` checkpoint onto the shared shard platform for *each*
    session it recovers, wiping the post-checkpoint state of sessions
    recovered before it on that shard.  With one ``checkpoint_now()``
    midway the witness fails, so the recover workload takes no
    checkpoint and the snapshot restore layer is not measured.  When
    this test starts failing the defect is fixed: take the checkpoint
    midway in ``apisteps._recover_cycle`` again and report a
    ``snapshot.apply_ms`` metric.
    """
    from pool import Fabric, check_logs, reference_logs, replay_entry

    work = HERE.parent / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        sessions = list(itertools.islice(gen.api_sessions(5, prefix="k"), 40))
        first = Fabric(log_root=work)
        first.pool.build_checkpoints(interval=3600.0)
        halves = [(key, docs[: len(docs) // 2]) for key, docs in sessions]
        depth = max(len(docs) for _key, docs in halves)
        for index in range(depth):
            if index == depth // 2:
                first.pool.checkpoint_now()
            futures = [first.submit(key, docs[index]) for key, docs in halves
                       if index < len(docs)]
            for future in futures:
                future.result(60).unwrap()
        first.stop()
        second = Fabric(log_root=work, services=first.services)
        for key, _docs in sessions:
            second.pool.recover_session(key, apply_entry=replay_entry)
        outcomes = collections.Counter()
        for key, docs in sessions:
            for doc in docs[len(docs) // 2:]:
                outcomes[second.submit(key, doc).result(60).ok] += 1
        second.stop()
        try:
            check_logs("recover", second.services,
                       reference_logs(dict(sessions), second.shard_of))
        except BenchError:
            return
        raise AssertionError(
            f"recovery after a shard checkpoint now passes the witness "
            f"(step outcomes {dict(outcomes)}): the defect is fixed")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    failed = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
            except Exception as exc:  # noqa: BLE001 - report every failure
                failed += 1
                print(f"FAIL {name}: {exc!r}")
            else:
                print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
