"""PR 3 synthesis benchmarks: compiled vs interpreted execution tiers.

Measures the interpretation-overhead gap the compilation layer closes:

* ``template_microbench`` — renders one representative command
  template through the compiled plan (:class:`_CompiledTemplate`) and
  through the reference string-``evaluate()`` path; the acceptance
  bar is a >=2x compiled speedup.
* ``synthesis_stress`` — synthesizes a large (>=5k objects) model from
  empty through both interpreter tiers, asserting the two scripts are
  identical before reporting the speedup.
* the eight E1 communication scenarios (broker-level overhead vs the
  handcrafted baseline), re-run for the BENCH_PR1 -> BENCH_PR3
  trajectory.

``run`` bundles all three into the ``BENCH_PR3.json`` report and
``check`` holds it to its gates; ``repro bench synthesis [--quick]``
runs both (``--quick`` shrinks the workloads for CI).  The Tier-3
report reuses the first two sections (:mod:`repro.bench.aot`).
"""

from __future__ import annotations

import sys
import time
from typing import Any

from repro.bench.gates import Check, compare, holds
from repro.bench.harness import paired_overhead, timer

__all__ = [
    "PR1_E1_OVERHEAD_PCT",
    "PR4_E1_OVERHEAD_PCT",
    "template_microbench",
    "synthesis_stress",
    "run",
    "check",
]

#: mean E1 overhead of the interpreted tier (``BENCH_PR1.json``
#: ``e1.mean_overhead_pct``, committed history): the compiled tier's
#: E1 line is held to it plus 5 points.
PR1_E1_OVERHEAD_PCT = 26.95

#: mean E1 overhead of the compiled tier on the sharded fabric
#: (``BENCH_PR4.json``): the Tier-3 report's trajectory baseline.
PR4_E1_OVERHEAD_PCT = 14.33


#: representative of the CVM command templates: literal args, several
#: safe expressions over the change env, a guard, a computed target.
_MICROBENCH_TEMPLATE: dict[str, Any] = {
    "operation": "comm.session.establish",
    "args": {"kind": "session", "quality": "standard"},
    "args_expr": {
        "connection": "obj.id",
        "label": "name + '-session'",
        "capacity": "max(1, replicas * 2)",
    },
    "target_expr": "obj.id",
    "when": "replicas > 0",
    "classifier": "comm.control",
}


def _stress_metamodel():
    from repro.modeling.meta import Metamodel

    metamodel = Metamodel("bench-synthesis")
    root = metamodel.new_class("Root")
    root.attribute("name", "string")
    root.reference("items", "Item", containment=True, many=True)
    item = metamodel.new_class("Item")
    item.attribute("name", "string")
    item.attribute("replicas", "int", default=1)
    item.attribute("tier", "string", default="standard")
    return metamodel.resolve()


def _stress_rules():
    from repro.middleware.synthesis.interpreter import EntityRule
    from repro.modeling.lts import LTS

    item = LTS("bench-item")
    item.add_transition(
        "initial", "add", "running",
        actions=(
            {
                "operation": "item.deploy",
                "args": {"kind": "item"},
                "args_expr": {
                    "id": "obj.id",
                    "label": "name + '/' + tier",
                    "capacity": "max(1, replicas * 2)",
                },
                "target_expr": "obj.id",
            },
        ),
    )
    item.add_transition(
        "running", "set:replicas", "running",
        actions=(
            {
                "operation": "item.scale",
                "args_expr": {"id": "obj.id", "to": "new"},
                "when": "new != old",
            },
        ),
    )
    item.add_transition("running", "remove", "initial")
    root = LTS("bench-root")
    root.add_transition("initial", "add", "up")
    root.add_transition("up", "remove", "initial")
    return [EntityRule("Item", item), EntityRule("Root", root)]


def _stress_model(objects: int):
    """A Root with ``objects`` Item children, in a private ModelSpace so
    repeated benchmark runs mint identical (golden-trace) ids."""
    from repro.modeling.model import Model, ModelSpace

    metamodel = _stress_metamodel()
    model = Model(
        metamodel, name="stress", space=ModelSpace("bench-synthesis")
    )
    root = model.create("Root", name="root")
    model.add_root(root)
    for index in range(objects):
        root.items.append(
            model.create(
                "Item",
                name=f"item-{index}",
                replicas=(index % 4) + 1,
                tier="premium" if index % 7 == 0 else "standard",
            )
        )
    return metamodel, model


def template_microbench(
    *, iterations: int = 20_000, rounds: int = 5
) -> dict[str, Any]:
    """Per-render cost of one command template, compiled vs interpreted."""
    from repro.middleware.synthesis.interpreter import (
        ChangeInterpreter,
        _CompiledTemplate,
    )
    from repro.modeling.model import Model

    metamodel = _stress_metamodel()
    model = Model(metamodel, name="micro")
    obj = model.create("Item", name="svc", replicas=3)
    env = {"obj": obj, "name": "svc", "replicas": 3, "object_id": obj.id}

    compiled = _CompiledTemplate(_MICROBENCH_TEMPLATE)
    render_interpreted = ChangeInterpreter._render_command

    def run_compiled() -> None:
        for _ in range(iterations):
            compiled.render(env)

    def run_interpreted() -> None:
        for _ in range(iterations):
            render_interpreted(_MICROBENCH_TEMPLATE, env)

    # Equivalence sanity check before timing anything.
    assert compiled.render(env) == render_interpreted(
        _MICROBENCH_TEMPLATE, env
    )
    tiers = paired_overhead(
        timer(run_compiled), timer(run_interpreted), rounds=rounds
    )
    return {
        "iterations": iterations,
        "rounds": tiers["rounds"],
        "compiled_us": tiers["base_s"] / iterations * 1e6,
        "interpreted_us": tiers["variant_s"] / iterations * 1e6,
        "speedup": 1.0 + tiers["overhead_pct"] / 100.0,
        "iqr_pct": tiers["iqr_pct"],
    }


def synthesis_stress(
    *, objects: int = 5000, rounds: int = 3
) -> dict[str, Any]:
    """Synthesize ``objects`` adds through both tiers; identical scripts
    are asserted, then the interpretation time is compared."""
    from repro.middleware.synthesis.interpreter import ChangeInterpreter
    from repro.modeling.diff import diff_models
    from repro.modeling.model import Model

    metamodel, model = _stress_model(objects)
    empty = Model(metamodel, name="empty")

    diff_start = time.perf_counter()
    changes = diff_models(empty, model)
    diff_s = time.perf_counter() - diff_start

    scripts: dict[bool, Any] = {}

    def interpret(compiled: bool) -> float:
        # Fresh interpreter per sample: LTS executions are stateful,
        # so replaying the same change list needs a clean slate.
        interpreter = ChangeInterpreter(compiled=compiled)
        for rule in _stress_rules():
            interpreter.add_rule(rule)
        start = time.perf_counter()
        scripts[compiled] = interpreter.interpret(
            changes, script_name="stress"
        )
        return time.perf_counter() - start

    tiers = paired_overhead(
        lambda: interpret(True), lambda: interpret(False), rounds=rounds
    )
    operations = [
        (c.operation, dict(c.args), c.target, c.classifier)
        for c in scripts[True]
    ]
    identical = operations == [
        (c.operation, dict(c.args), c.target, c.classifier)
        for c in scripts[False]
    ]
    return {
        "objects": objects,
        "changes": len(changes),
        "commands": len(scripts[True]),
        "diff_ms": diff_s * 1000,
        "rounds": tiers["rounds"],
        "compiled_ms": tiers["base_s"] * 1000,
        "interpreted_ms": tiers["variant_s"] * 1000,
        "speedup": 1.0 + tiers["overhead_pct"] / 100.0,
        "iqr_pct": tiers["iqr_pct"],
        "scripts_identical": identical,
    }


def run_tiers(quick: bool) -> tuple[dict[str, Any], dict[str, Any]]:
    """The template microbench and the stress synthesis, sized for
    ``quick``; both the compiled-tier and the Tier-3 reports carry them."""
    micro = template_microbench(
        iterations=5_000 if quick else 20_000, rounds=3 if quick else 5
    )
    stress = synthesis_stress(
        objects=1_000 if quick else 5_000, rounds=2 if quick else 3
    )
    return micro, stress


def run(quick: bool = False) -> dict[str, Any]:
    """The compiled-tier (Tier-2) synthesis report (``BENCH_PR3.json``)."""
    from repro.bench.harness import e1_quick_bench

    micro, stress = run_tiers(quick)
    e1 = e1_quick_bench()
    return {
        "bench": "PR3-compiled-synthesis",
        "python": sys.version.split()[0],
        "quick": quick,
        "template_microbench": micro,
        "synthesis_stress": stress,
        "e1": e1,
        "baseline_e1_mean_overhead_pct": PR1_E1_OVERHEAD_PCT,
        "e1_overhead_improvement_pct_points": (
            PR1_E1_OVERHEAD_PCT - e1["mean_overhead_pct"]
        ),
    }


def check(report: dict[str, Any]) -> list[Check]:
    """The compiled tier must not lose to the interpreted reference
    tier, must synthesize identical scripts, and must keep E1 within a
    few points of the interpreted tier's committed BENCH_PR1 figure
    (the slack absorbs shared-box noise)."""
    micro = report["template_microbench"]
    stress = report["synthesis_stress"]
    return [
        compare(
            "template render, compiled us (vs interpreted)",
            micro["compiled_us"], "<=", micro["interpreted_us"],
        ),
        compare(
            "stress synthesis, compiled ms (vs interpreted)",
            stress["compiled_ms"], "<=", stress["interpreted_ms"],
        ),
        holds("stress scripts identical across tiers",
              stress["scripts_identical"]),
        compare(
            "E1 mean overhead % (BENCH_PR1 baseline + 5)",
            report["e1"]["mean_overhead_pct"], "<=",
            PR1_E1_OVERHEAD_PCT + 5.0,
        ),
    ]
