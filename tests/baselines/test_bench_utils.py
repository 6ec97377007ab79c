"""Tests for the benchmark harness utilities themselves."""

import json

import pytest

from repro.bench.harness import (
    ResultTable,
    fresh_handcrafted_broker,
    fresh_model_based_broker,
    overhead_stats,
    paired_overhead,
)
from repro.bench.loc import (
    comment_ratio,
    count_callable_loc,
    count_source_loc,
    count_source_tokens,
    loc_report,
)
from repro.bench.repo_factory import (
    ROOT_CLASSIFIER,
    build_generator,
    build_repository,
)
from repro.bench.workloads import (
    COMMUNICATION_SCENARIOS,
    adaptation_wiring,
    adaptation_wiring_reliable,
    scenario_names,
)


class TestWorkloads:
    def test_eight_scenarios(self):
        assert len(COMMUNICATION_SCENARIOS) == 8
        assert scenario_names() == list(COMMUNICATION_SCENARIOS)

    def test_scenarios_are_well_formed(self):
        for name, steps in COMMUNICATION_SCENARIOS.items():
            assert steps, name
            for step in steps:
                assert step[0] in ("api", "fail", "recover"), (name, step)

    def test_failure_scenario_has_recovery(self):
        tags = [s[0] for s in COMMUNICATION_SCENARIOS["failure-recovery"]]
        assert "fail" in tags and "recover" in tags
        assert tags.index("fail") < tags.index("recover")

    def test_reliable_wiring_extends_fast_wiring(self):
        fast = adaptation_wiring()
        reliable = adaptation_wiring_reliable()
        assert set(fast) == set(reliable)
        assert len(reliable["comm.stream.open"]) > len(fast["comm.stream.open"])
        assert reliable["comm.stream.open"][0][0] == "ncb.probe"


class TestRunners:
    def test_both_factories_replay_all_scenarios(self):
        for factory in (fresh_model_based_broker, fresh_handcrafted_broker):
            broker, service, runner = factory()
            service.op_cost = 0.0
            for steps in COMMUNICATION_SCENARIOS.values():
                runner.run(steps)
            assert runner.steps_run == sum(
                len(s) for s in COMMUNICATION_SCENARIOS.values()
            )

    def test_unknown_step_tag_rejected(self):
        _b, _s, runner = fresh_handcrafted_broker()
        with pytest.raises(ValueError, match="unknown scenario step"):
            runner.run([("explode",)])

    def test_model_based_lean_flag(self):
        broker, _service, _runner = fresh_model_based_broker(lean=True)
        assert broker.autonomic.enabled is False


def scripted(label, values, calls):
    """A timing side that returns ``values`` in turn, logging each call."""
    samples = iter(values)

    def side():
        calls.append(label)
        return next(samples)

    return side


class TestPairedOverhead:
    def test_median_and_iqr_of_per_round_ratios(self):
        calls = []
        # The first two samples per side are the discarded warm-ups;
        # kept, they would move both the median and the IQR.
        result = paired_overhead(
            scripted("base", [50.0, 50.0, 1.0, 1.0, 1.0, 1.0, 1.0], calls),
            scripted("variant",
                     [99.0, 99.0, 1.10, 1.20, 1.05, 1.40, 1.10], calls),
            rounds=5,
        )
        # ratios: +10, +20, +5, +40, +10 %
        assert result["overhead_pct"] == pytest.approx(10.0)
        assert result["iqr_pct"] == pytest.approx(10.0)
        assert result["rounds"] == 5
        assert result["base_s"] == pytest.approx(1.0)
        assert result["variant_s"] == pytest.approx(1.10)
        assert len(calls) == 2 * (2 + 5)

    def test_two_warmups_then_alternating_order(self):
        calls = []
        paired_overhead(
            scripted("b", [1.0] * 7, calls),
            scripted("v", [1.0] * 7, calls),
            rounds=5,
        )
        assert calls == [
            "b", "v", "b", "v",  # warm-up rounds, discarded
            "b", "v", "v", "b", "b", "v", "v", "b", "b", "v",
        ]

    def test_statistic_over_recorded_pairs(self):
        result = overhead_stats([(2.0, 1.0), (2.0, 3.0), (1.0, 1.0)])
        assert result["overhead_pct"] == pytest.approx(0.0)
        assert result["iqr_pct"] == pytest.approx(50.0)
        assert result["rounds"] == 3


class TestE1Baselines:
    def test_synthesis_gate_ignores_reports_in_the_working_directory(
        self, tmp_path, monkeypatch
    ):
        from repro.bench import synthesis

        (tmp_path / "BENCH_PR1.json").write_text(
            json.dumps({"e1": {"mean_overhead_pct": 1.0}}), encoding="utf-8"
        )
        monkeypatch.chdir(tmp_path)
        micro = {"compiled_us": 1.0, "interpreted_us": 2.0}
        stress = {"compiled_ms": 1.0, "interpreted_ms": 2.0,
                  "scripts_identical": True}
        monkeypatch.setattr(
            synthesis, "run_tiers", lambda quick: (micro, stress)
        )
        monkeypatch.setattr(
            "repro.bench.harness.e1_quick_bench",
            lambda **_kw: {"mean_overhead_pct": 20.0},
        )
        lines = synthesis.check(synthesis.run(quick=True))
        (line,) = [text for text, _ok in lines if text.startswith("E1 ")]
        assert line.endswith("20.00 <= 31.95")
        assert all(ok for _text, ok in lines)

    def test_wal_e1_runs_at_the_default_durability_policy(self):
        from repro.bench.wal import e1_overhead_bench
        from repro.runtime.durability import DurabilityPolicy

        report = e1_overhead_bench(rounds=2)
        policy = DurabilityPolicy()
        assert (report["fsync"], report["sync_every"]) == (
            policy.fsync, policy.sync_every
        )
        assert report["calibrated"]["rounds"] == 2


class TestResultTable:
    def test_render(self):
        table = ResultTable("T", ["name", "value"])
        table.add("x", 1.23456)
        table.add("longer-name", 2)
        text = table.render()
        assert "== T ==" in text
        assert "1.235" in text  # float formatting
        assert "longer-name" in text

    def test_cell_count_checked(self):
        table = ResultTable("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add("only-one")

    def test_empty_table_renders(self):
        assert "== T ==" in ResultTable("T", ["a"]).render()


class TestLocAccounting:
    def test_count_source_loc_excludes_noise(self):
        source = (
            '"""module docstring\nspanning lines\n"""\n'
            "\n"
            "# a comment\n"
            "x = 1\n"
            "def f():\n"
            '    """doc"""\n'
            "    return x\n"
        )
        assert count_source_loc(source) == 3  # x = 1, def, return

    def test_tokens_are_formatting_independent(self):
        dense = "d = {'a': 1, 'b': 2}\n"
        sparse = "d = {\n    'a': 1,\n    'b': 2\n}\n"
        assert count_source_tokens(dense) == count_source_tokens(sparse)
        assert count_source_loc(dense) != count_source_loc(sparse)

    def test_count_callable(self):
        assert count_callable_loc(scenario_names) >= 2

    def test_comment_ratio(self):
        assert comment_ratio("# only a comment\n") > 0
        assert comment_ratio("x = 1\n") == 0

    def test_loc_report_shape(self):
        report = loc_report()
        assert set(report) == {
            "handcrafted_loc", "model_based_loc", "reduction_loc",
            "handcrafted_tokens", "model_based_tokens", "reduction_tokens",
        }
        # E4's asserted shape: token reduction positive
        assert report["reduction_tokens"] > 0


class TestRepoFactory:
    def test_exact_count_and_closure(self):
        for count in (24, 100, 250):
            repository = build_repository(procedures=count)
            assert len(repository) == count
            assert repository.check_closure() == []

    def test_root_resolvable(self):
        generator = build_generator(build_repository(procedures=100))
        model = generator.generate(ROOT_CLASSIFIER)
        assert model.size() >= 1

    def test_too_few_procedures_rejected(self):
        with pytest.raises(ValueError):
            build_repository(procedures=3, depth=4)

    def test_deterministic(self):
        a = build_repository(procedures=60)
        b = build_repository(procedures=60)
        assert sorted(p.name for p in a) == sorted(p.name for p in b)
