"""``repro bench NAME``: one front door for every benchmark report.

Each report module pairs ``run(quick)`` with ``check(report)``.  The
committed ``BENCH_PRn.json`` reports are read-only history: every gate
must pass on them, and pushing any single gated field past its bound
must turn exactly one check line into a FAIL.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

from repro.cli import BENCHES, main

ROOT = Path(__file__).resolve().parents[2]


def committed(name: str) -> dict:
    _module, path = BENCHES[name]
    return json.loads((ROOT / path).read_text(encoding="utf-8"))


def check(name: str, report: dict) -> list[tuple[str, bool]]:
    module, _path = BENCHES[name]
    return importlib.import_module(module).check(report)


def drop_last(rows: list) -> list:
    return rows[:-1]


def sized(name: str, *, quick: bool) -> dict:
    """The committed report, relabelled as a quick or a full run."""
    return committed(name) | {"quick": quick}


def mutated(name: str, path: tuple, value, *, quick: bool) -> dict:
    """The committed report with one field replaced (or transformed)."""
    report = sized(name, quick=quick)
    *parents, leaf = path
    node = report
    for key in parents:
        node = node[key]
    node[leaf] = value(node[leaf]) if callable(value) else value
    return report


@pytest.mark.parametrize("name", list(BENCHES))
def test_committed_report_passes_every_gate(name):
    lines = check(name, committed(name))
    assert [line for line, ok in lines if not ok] == []


#: (bench, path to the gated field, bad value or transform, quick run)
FLIPS = [
    ("faults", ("recovery", "failure_rate"), 0.05, False),
    ("faults", ("recovery", "unhandled_exceptions"), 1, False),
    ("faults", ("recovery", "recovery_latency"), {}, False),
    ("faults", ("determinism", "replay_matches"), False, False),
    ("faults", ("breaker_outage", "final_state"), "open", False),
    ("synthesis", ("template_microbench", "compiled_us"), 1e9, True),
    ("synthesis", ("synthesis_stress", "compiled_ms"), 1e9, True),
    ("synthesis", ("synthesis_stress", "scripts_identical"), False, True),
    ("synthesis", ("e1", "mean_overhead_pct"), 40.0, True),
    ("aot", ("tier_equivalence", "all_identical"), False, True),
    ("aot", ("tier_equivalence", "domains"), drop_last, True),
    ("aot", ("tier_equivalence", "domains", 0, "broker_skipped"),
     ["ncb.open"], True),
    ("aot", ("tier_equivalence", "domains", 1, "syn_skipped"),
     ["Device"], True),
    ("aot", ("tier_equivalence", "edit_cycle", "dropped_on_edit"),
     False, True),
    ("aot", ("tier_equivalence", "edit_cycle", "regenerated_after_cycle"),
     False, True),
    ("aot", ("synthesis_stress", "scripts_identical"), False, False),
    ("aot", ("e1", "mean_overhead_pct"), 26.0, True),
    ("aot", ("e1", "mean_overhead_pct"), 5.5, False),
    ("scale", ("scale", "runs", 1, "op_logs_identical"), False, True),
    ("scale", ("scale", "runs", 1, "channel", "pending"), 3, True),
    ("scale", ("scale", "speedup_signals_4_shards_vs_1"), 1.2, True),
    ("scale", ("scale", "speedup_signals_4_shards_vs_1"), 1.9, False),
    ("scale", ("scale", "speedup_signals_4_shards_vs_1"), None, False),
    ("migrate", ("recovery", "all_identical"), False, True),
    ("migrate", ("migration", "all_identical"), False, True),
    ("migrate", ("recovery", "domains"), drop_last, True),
    ("migrate", ("checkpoint", "overhead_pct"), 26.0, True),
    ("migrate", ("checkpoint", "overhead_pct"), 5.5, False),
    ("migrate", ("rebalance", "moves"), 0, True),
    ("migrate", ("rebalance", "imbalance_after"), 500.0, True),
    ("ingress", ("ingress", "unhandled_exceptions"), 2, True),
    ("ingress", ("ingress", "op_log_mismatches"), ["s-0001"], True),
    ("ingress", ("ingress", "determinism", "deterministic"), False, True),
    ("ingress", ("ingress", "overload_shed_on", "shed_entry_sessions"),
     0, True),
    ("ingress", ("ingress", "overload_shed_on", "completed_sessions"),
     0, True),
    ("ingress", ("ingress", "p99_ratio_shed_on_vs_unloaded"), 3.5, False),
    ("ingress", ("ingress", "goodput_fraction_of_capacity"), 0.7, False),
    ("wal", ("kill_recovery", "all_identical"), False, True),
    ("wal", ("kill_recovery", "domains"), drop_last, True),
    ("wal", ("kill_recovery", "domains", 2, "replay_no_reexecution"),
     False, True),
    ("wal", ("kill_recovery", "domains", 2, "effects_memoized"), 0, True),
    ("wal", ("fabric_kill", "op_log_identical"), False, True),
    ("wal", ("fabric_kill", "replayed_entries"), 0, True),
    ("wal", ("e1_overhead", "overhead_pct"), 26.0, True),
    ("wal", ("e1_overhead", "overhead_pct"), 5.5, False),
    ("wal", ("recovery_latency", "rows", -1, "effects_memoized"), 0, True),
    ("cluster", ("throughput", "runs", 0, "op_logs_identical"), False, True),
    ("cluster", ("throughput", "runs", 1, "restarts"), 1, True),
    ("cluster", ("migration", "all_identical"), False, True),
    ("cluster", ("migration", "domains"), drop_last, True),
    ("cluster", ("fault", "op_logs_identical"), False, True),
    ("cluster", ("fault", "unresolved_futures"), 1, True),
    ("cluster", ("fault", "untyped_failures"), 1, True),
    ("cluster", ("fault", "rejected_worker_dead"), 0, True),
    ("cluster", ("fault", "deaths"), 2, True),
    ("cluster", ("fault", "restarts"), 0, True),
    ("cluster", ("determinism", "op_logs_identical"), False, True),
    ("cluster", ("throughput", "speedup_steps_4_workers_vs_1"), 2.5, False),
    ("walfabric", ("adoption", "op_logs_identical"), False, True),
    ("walfabric", ("adoption", "unresolved_futures"), 1, True),
    ("walfabric", ("adoption", "untyped_failures"), 1, True),
    ("walfabric", ("adoption", "adopted_sessions"), 0, True),
    ("walfabric", ("adoption", "deaths"), 2, True),
    ("walfabric", ("adoption", "restarts"), 2, True),
    ("walfabric", ("adoption", "domains"), 3, True),
    ("walfabric", ("slice_replay", "all_reproduced"), False, True),
    ("walfabric", ("slice_replay", "cross_log_traces"), 0, True),
    ("walfabric", ("e1_pool_overhead", "overhead_pct"), 5.5, False),
]


@pytest.mark.parametrize(
    "name, path, value, quick", FLIPS,
    ids=[f"{f[0]}-{'.'.join(map(str, f[1]))}-{'quick' if f[3] else 'full'}"
         for f in FLIPS],
)
def test_one_field_past_its_bound_fails_one_line(name, path, value, quick):
    intact = check(name, sized(name, quick=quick))
    assert all(ok for _line, ok in intact)
    lines = check(name, mutated(name, path, value, quick=quick))
    assert len(lines) == len(intact)
    assert [ok for _line, ok in lines].count(False) == 1, lines


@pytest.mark.parametrize("name, path, value", [
    ("aot", ("e1", "mean_overhead_pct"), 20.0),
    ("scale", ("scale", "speedup_signals_4_shards_vs_1"), 1.5),
    ("migrate", ("checkpoint", "overhead_pct"), 20.0),
    ("wal", ("e1_overhead", "overhead_pct"), 20.0),
    ("ingress", ("ingress", "p99_ratio_shed_on_vs_unloaded"), 10.0),
    ("cluster", ("throughput", "speedup_steps_4_workers_vs_1"), 1.2),
    ("walfabric", ("e1_pool_overhead", "overhead_pct"), 20.0),
])
def test_quick_runs_hold_the_looser_bound(name, path, value):
    full = check(name, mutated(name, path, value, quick=False))
    quick = check(name, mutated(name, path, value, quick=True))
    assert not all(ok for _line, ok in full)
    assert all(ok for _line, ok in quick)


def test_failing_gate_exits_1_with_the_report_written(
    tmp_path, capsys, monkeypatch
):
    report = mutated(
        "scale", ("scale", "speedup_signals_4_shards_vs_1"), 1.1, quick=False
    )
    monkeypatch.setattr("repro.bench.scale.run", lambda quick: report)
    out = tmp_path / "BENCH_PR4.json"
    assert main(["bench", "scale", "--output", str(out)]) == 1
    assert json.loads(out.read_text(encoding="utf-8")) == report
    printed = capsys.readouterr().out
    assert "FAIL  signal throughput at 4 shards vs 1 (x): 1.10 >= 2.00" \
        in printed
    assert printed.index(f"wrote {out}") < printed.index("FAIL")


def test_quick_flag_reaches_run(tmp_path, monkeypatch):
    seen = []

    def run(quick):
        seen.append(quick)
        return sized("scale", quick=quick)

    monkeypatch.setattr("repro.bench.scale.run", run)
    out = tmp_path / "r.json"
    assert main(["bench", "scale", "--quick", "--output", str(out)]) == 0
    assert seen == [True]


@pytest.mark.parametrize("argv", [
    ["bench", "nosuch"],
    ["bench", "synthesis", "--tier", "aot"],
    ["bench-faults"],
    ["bench"],
])
def test_parser_rejects(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
