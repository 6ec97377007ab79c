"""A2 (ablation) — layer suppression per node role (paper Secs. IV-C/D).

The 2SVM runs suppressed stacks on its nodes: the central device keeps
the top layers, smart objects keep the bottom two.  This ablation
measures what suppression buys: per-command cost on a bottom-only
object node vs pushing the same work through a full four-layer stack,
and the component-footprint difference.
"""

from __future__ import annotations

import statistics
import time

from repro.bench.harness import ResultTable, paired_rounds
from repro.domains.assembly import assemble_middleware_model
from repro.domains.smartspace import build_object_node
from repro.domains.smartspace import dsk as ss_dsk
from repro.domains.smartspace.ssml import ssml_metamodel
from repro.middleware.loader import DomainKnowledge, load_platform
from repro.middleware.synthesis.scripts import Command, ControlScript
from repro.sim.space import SmartSpace


def _full_stack_platform():
    """A smart-space platform with all four layers on one node."""
    model = assemble_middleware_model("2svm-full", "smartspace", ss_dsk)
    space = SmartSpace(ss_dsk.RESOURCE_NAME, op_cost=0.5)
    return load_platform(
        model, DomainKnowledge(dsml=ssml_metamodel(), resources=[space])
    )


def _configure_script(count: int) -> ControlScript:
    script = ControlScript(name="configure")
    for index in range(count):
        script.add(Command(
            "ss.object.configure",
            args={"object": "obj0", "capability": "light",
                  "value": index, "node": "node0"},
        ))
    return script


def _register(platform):
    platform.run_script(ControlScript(commands=[
        Command("ss.object.register",
                args={"object": "obj0", "kind": "lamp",
                      "capabilities": {"light": 0}, "node": "node0"}),
    ]))


def test_suppressed_node_script_execution(benchmark):
    node = build_object_node("bench", space=SmartSpace("space0", op_cost=0.5))
    _register(node)
    script = _configure_script(20)
    benchmark.group = "a2-script"
    benchmark(lambda: node.run_script(script))
    node.stop()


def test_full_stack_script_execution(benchmark):
    platform = _full_stack_platform()
    _register(platform)
    script = _configure_script(20)
    benchmark.group = "a2-script"
    benchmark(lambda: platform.run_script(script))
    platform.stop()


def _script_sample(platform, script) -> float:
    start = time.perf_counter()
    platform.run_script(script)
    return time.perf_counter() - start


def test_a2_footprint_and_latency(benchmark, report):
    results: dict[str, float] = {}

    def run():
        node = build_object_node(
            "bench", space=SmartSpace("space0", op_cost=0.5)
        )
        _register(node)
        full = _full_stack_platform()
        _register(full)
        script = _configure_script(50)

        # Warmed, alternating-order (suppressed, full) pairs; the gate
        # uses the median of per-pair ratios, which host drift between
        # samples cancels out of.
        pairs = paired_rounds(
            lambda: _script_sample(node, script),
            lambda: _script_sample(full, script),
        )
        results["suppressed_s"] = statistics.median(s for s, _f in pairs)
        results["full_s"] = statistics.median(f for _s, f in pairs)
        results["ratio"] = statistics.median(s / f for s, f in pairs)

        results["suppressed_layers"] = len(node.layers)
        results["full_layers"] = len(full.layers)
        node.stop()
        full.stop()

    benchmark.pedantic(run, rounds=1, iterations=1)

    table = ResultTable(
        "A2: layer suppression (2SVM object node vs full stack)",
        ["configuration", "layers", "50-command script ms"],
    )
    table.add("object node (controller+broker)",
              int(results["suppressed_layers"]),
              results["suppressed_s"] * 1000)
    table.add("full 4-layer stack",
              int(results["full_layers"]), results["full_s"] * 1000)
    report.append(table)

    # Footprint: the suppressed node instantiates half the layers.
    assert results["suppressed_layers"] == 2
    assert results["full_layers"] == 4
    # Script execution cost on the shared path is comparable (the
    # suppressed node gives up no throughput by dropping upper layers).
    assert results["ratio"] <= 1.25
