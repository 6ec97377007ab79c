"""A1 (ablation) — Case 1 predefined actions vs Case 2 dynamic IMs.

Paper Sec. VI motivates the coexistence of both approaches: "we may
define a Controller layer that relies solely on predefined action
handlers for domains where efficiency is more important than
flexibility ... In cases where memory footprint needs to be reduced,
dynamic IM generation avoids having to store a large number of
predefined actions for each available command."

Regenerates: per-command latency of the same operation executed via
Case 1 and Case 2 (cold and cached), and the resident-table footprint
trade-off.  Shapes asserted: Case 1 is faster per command; Case 2's
resident footprint is smaller than a full per-command action table.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.harness import ResultTable, paired_overhead
from repro.domains.communication.cvm import build_cvm
from repro.middleware.synthesis.scripts import Command
from repro.sim.network import CommService


def _platform(default_case: str):
    platform = build_cvm(
        service=CommService("net0", op_cost=0.5), default_case=default_case
    )
    platform.controller.execute_command(
        Command("comm.session.establish", args={"connection": "c1"})
    )
    return platform


def _stream_command(index: int) -> Command:
    return Command(
        "comm.stream.open",
        args={"connection": "c1", "medium": f"m{index}",
              "kind": "audio", "quality": "standard"},
    )


def test_case1_per_command(benchmark):
    platform = _platform("actions")
    counter = iter(range(10_000))
    benchmark.group = "a1-per-command"
    benchmark(lambda: platform.controller.execute_command(
        _stream_command(next(counter))
    ))
    platform.stop()


def test_case2_per_command(benchmark):
    platform = _platform("intent")
    counter = iter(range(10_000))
    benchmark.group = "a1-per-command"
    benchmark(lambda: platform.controller.execute_command(
        _stream_command(next(counter))
    ))
    platform.stop()


def test_a1_tradeoff(benchmark, report):
    results: dict[str, float] = {}

    def sample(case: str) -> float:
        """Seconds per command over 100 commands on a fresh platform."""
        platform = _platform(case)
        commands = [_stream_command(i) for i in range(100)]
        start = time.perf_counter()
        for command in commands:
            outcome = platform.controller.execute_command(command)
            assert outcome.ok
            assert outcome.case == case
        elapsed = time.perf_counter() - start
        if case == "actions":
            results["action_table"] = (
                platform.controller.actions.table_size_estimate()
            )
        else:
            # Case 2's resident domain knowledge for this command:
            # the procedures of the generated IM (cached once).
            results["im_entries"] = platform.controller.generator.cache_entries
        platform.stop()
        return elapsed / len(commands)

    latency = benchmark.pedantic(
        paired_overhead,
        args=(lambda: sample("intent"), lambda: sample("actions")),
        rounds=1, iterations=1,
    )
    actions_vs_intent = 1.0 + latency["overhead_pct"] / 100.0

    table = ResultTable(
        "A1: Case 1 (predefined actions) vs Case 2 (dynamic IMs)",
        ["metric", "Case 1", "Case 2"],
    )
    table.add("per-command latency ms",
              latency["variant_s"] * 1000, latency["base_s"] * 1000)
    table.add("resident entries (action steps vs cached IMs)",
              results["action_table"], results["im_entries"])
    report.append(table)

    # Case 1 is the efficiency-first configuration.
    assert actions_vs_intent <= 1.05
    # Case 2 keeps a single cached configuration for a repeated command
    # instead of a full predefined action table.
    assert results["im_entries"] < results["action_table"]
