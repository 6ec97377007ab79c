"""Tier-3 (AOT) synthesis report: generated modules against Tier-2.

``run`` produces ``BENCH_PR8.json``: the compiled-tier report's
template microbench and stress synthesis (:mod:`repro.bench.synthesis`)
plus

* ``tier_equivalence`` — all four domains' op_logs byte-identical
  between Tier-2 and Tier-3, with nothing silently skipped, and a
  runtime rule edit that drops the installed program and regenerates
  it at the end of the next synthesis cycle;
* the paired-delta E1 sweep with Tier-3 installed
  (:func:`repro.bench.harness.e1_paired_bench`), gated at <= 5% in the
  calibrated regime on full runs.

``check`` holds the report to its gates; ``repro bench aot [--quick]``
runs both.
"""

from __future__ import annotations

import sys
from typing import Any

from repro.bench.gates import Check, bound, compare, holds
from repro.bench.synthesis import pr_baseline, run_tiers

__all__ = ["AOT_E1_GATE_PCT", "tier_equivalence", "run", "check"]

#: E1 overhead admitted in the calibrated regime with Tier-3 active
#: (acceptance gate on full runs, percent).
AOT_E1_GATE_PCT = 5.0


def tier_equivalence(*, edit_cycle: bool = True) -> dict[str, Any]:
    """Tier-3 vs Tier-2 op_log equality across all four domains.

    Each domain runs its two-phase session twice — once on Tier-2
    (the compiled closures) and once with the AOT program installed
    — and the external services' op_logs must be byte-identical:
    Tier-3 may only change cost, never behaviour.  With ``edit_cycle``
    the communication domain additionally replaces a rule mid-session:
    the edit drops the installed program (that synthesis cycle falls
    back to Tier-2), the end of the next cycle regenerates it, and the
    op_log must still match the pure Tier-2 run.
    """
    from repro.bench.migrate import _log_bytes
    from repro.cases import domain_cases, fresh_session

    domains: list[dict[str, Any]] = []
    edit_result: dict[str, Any] | None = None
    for case in domain_cases():
        service2, _dsk, tier2 = fresh_session(case)
        try:
            tier2.run_model(case.phase1())
            tier2.run_model(case.phase2())
        finally:
            tier2.stop()
        golden = _log_bytes(service2)
        if not golden:
            raise RuntimeError(f"{case.name}: empty golden op_log")

        service3, _dsk, tier3 = fresh_session(case)
        try:
            program = tier3.enable_aot()
            tier3.run_model(case.phase1())
            tier3.run_model(case.phase2())
        finally:
            tier3.stop()
        domains.append({
            "domain": case.name,
            "op_log_bytes": len(golden),
            "broker_apis": len(program.broker_calls),
            "syn_classes": len(program.syn_classes),
            "broker_skipped": list(program.broker_skipped),
            "syn_skipped": list(program.syn_skipped),
            "identical": _log_bytes(service3) == golden,
        })

        if edit_cycle and case.name == "communication":
            service_e, _dsk, edited = fresh_session(case)
            try:
                edited.enable_aot()
                interpreter = edited.synthesis.interpreter
                edited.run_model(case.phase1())
                # Replace a live rule: semantics are unchanged (the
                # same rule goes back in) but the installed program
                # must be dropped and lazily rebuilt.
                rule = next(iter(interpreter._rules.values()))
                interpreter.add_rule(rule, replace=True)
                dropped = interpreter._aot is None
                edited.run_model(case.phase2())
                regenerated = interpreter._aot is not None
            finally:
                edited.stop()
            edit_result = {
                "dropped_on_edit": dropped,
                "regenerated_after_cycle": regenerated,
                "identical": _log_bytes(service_e) == golden,
            }

    return {
        "domains": domains,
        "edit_cycle": edit_result,
        "all_identical": (
            all(row["identical"] for row in domains)
            and (edit_result is None
                 or (edit_result["identical"]
                     and edit_result["dropped_on_edit"]
                     and edit_result["regenerated_after_cycle"]))
        ),
    }


def run(quick: bool = False) -> dict[str, Any]:
    """The Tier-3 report (``BENCH_PR8.json``)."""
    from repro.bench.harness import e1_paired_bench

    micro, stress = run_tiers(quick)
    equivalence = tier_equivalence()
    e1 = e1_paired_bench(repeat=3 if quick else 25, aot=True)
    return {
        "bench": "PR8-aot-synthesis",
        "python": sys.version.split()[0],
        "quick": quick,
        "template_microbench": micro,
        "synthesis_stress": stress,
        "tier_equivalence": equivalence,
        "e1": e1,
        # The E1 trajectory baseline, report-only: the min-of-samples
        # sweep in BENCH_PR4.json was the last committed
        # model-vs-handcrafted number.
        "baseline_e1_mean_overhead_pct": pr_baseline(
            "BENCH_PR4.json", "e1", "mean_overhead_pct"
        ),
        "gate_pct": AOT_E1_GATE_PCT,
        "meets_e1_gate": e1["mean_overhead_pct"] <= AOT_E1_GATE_PCT,
    }


def check(report: dict[str, Any]) -> list[Check]:
    """Tier-3 may change cost, never behaviour: identical op_logs in all
    four domains, no skipped entry, an edit cycle that drops and
    regenerates the program, identical stress scripts, and E1 within
    the calibrated bound."""
    equivalence = report["tier_equivalence"]
    domains = equivalence["domains"]
    cycle = equivalence["edit_cycle"] or {}
    return [
        holds("Tier-3 op_logs identical to Tier-2",
              equivalence["all_identical"]),
        compare("domains compared", len(domains), "==", 4),
        compare(
            "broker APIs skipped by Tier-3",
            [name for row in domains for name in row["broker_skipped"]],
            "==", [],
        ),
        compare(
            "synthesis entries skipped by Tier-3",
            [name for row in domains for name in row["syn_skipped"]],
            "==", [],
        ),
        holds("rule edit drops the program", cycle.get("dropped_on_edit")),
        holds("next cycle regenerates it",
              cycle.get("regenerated_after_cycle")),
        holds("stress scripts identical across tiers",
              report["synthesis_stress"]["scripts_identical"]),
        compare(
            "E1 calibrated overhead % (Tier-3)",
            report["e1"]["mean_overhead_pct"], "<=",
            bound(report, quick=25.0, full=AOT_E1_GATE_PCT),
        ),
    ]
