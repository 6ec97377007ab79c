"""A5 (ablation) — Synthesis-layer scaling with application-model size.

Paper Sec. IX lists performance tuning per domain as open work; the
Synthesis layer's model-comparison approach is the obvious scaling
concern ("comparing two models at runtime", Sec. V-B).  This ablation
measures:

* initial synthesis cost vs model size (every element is an addition),
* *incremental* cost of a single-attribute edit on models of growing
  size — the models@runtime hot path,
* emitted-command counts (proportional to the change, not the model).
"""

from __future__ import annotations

import time

import pytest

from repro.bench.harness import ResultTable, paired_overhead
from repro.domains.communication.cml import CmlBuilder, cml_metamodel
from repro.domains.communication.cvm import build_cvm
from repro.modeling.serialize import clone_model
from repro.sim.network import CommService

SIZES = (4, 16, 64, 256)


def _scenario(connections: int):
    """A CML model with ``connections`` two-party audio connections."""
    builder = CmlBuilder(f"scale-{connections}")
    people = [builder.person(f"u{i}") for i in range(connections + 1)]
    media = []
    for index in range(connections):
        connection = builder.connection(
            f"c{index}", [people[index], people[index + 1]], media=["audio"]
        )
        media.append(connection)
    return builder


@pytest.mark.parametrize("connections", SIZES)
def test_initial_synthesis_by_size(benchmark, connections):
    builder = _scenario(connections)
    benchmark.group = "a5-initial-synthesis"

    def run():
        platform = build_cvm(service=CommService("net0", op_cost=0.0))
        platform.run_model(clone_model(builder.build()))
        platform.stop()

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_a5_scaling_table(benchmark, report):
    rows = []

    def run():
        rows.clear()
        for connections in SIZES:
            builder = _scenario(connections)
            scripts = {}

            def initial() -> float:
                platform = build_cvm(service=CommService("net0", op_cost=0.0))
                start = time.perf_counter()
                result = platform.run_model(clone_model(builder.build()))
                elapsed = time.perf_counter() - start
                scripts["initial"] = result.script
                platform.stop()
                return elapsed

            def one_edit() -> float:
                # a single-attribute edit on the large running model
                platform = build_cvm(service=CommService("net0", op_cost=0.0))
                platform.run_model(clone_model(builder.build()))
                edited = platform.ui.checkout()
                medium = next(iter(edited.objects_by_class("Medium")))
                medium.quality = "high"
                start = time.perf_counter()
                result = platform.ui.submit(platform.ui.put_model(edited))
                elapsed = time.perf_counter() - start
                scripts["edit"] = result.script
                platform.stop()
                return elapsed

            # base: initial synthesis; variant: one edit of the same
            # model, so the gate reads the median per-round edit/initial
            # ratio (one slow round cannot flip it).
            edit = paired_overhead(initial, one_edit, rounds=5)
            rows.append((
                connections, len(builder.build()), edit["base_s"] * 1000,
                len(scripts["initial"]), edit["variant_s"] * 1000,
                len(scripts["edit"]), 1.0 + edit["overhead_pct"] / 100.0,
            ))

    benchmark.pedantic(run, rounds=1, iterations=1)

    table = ResultTable(
        "A5: synthesis scaling with application-model size",
        ["connections", "model elements", "initial ms", "initial cmds",
         "1-edit ms", "1-edit cmds", "edit/initial"],
    )
    for row in rows:
        table.add(*row)
    report.append(table)

    # Emitted commands track the change, not the model: one edit ->
    # exactly one command at every size.
    assert all(row[5] == 1 for row in rows)
    # Incremental cycles stay far below the initial synthesis of the
    # same model (the models@runtime hot path is change-proportional
    # in command work even though comparison is model-proportional).
    largest = rows[-1]
    assert largest[6] < 0.5
    # Initial synthesis grows with model size (sanity on the harness).
    assert rows[-1][2] > rows[0][2]
