"""The repository benchmark: four seeded workloads at the shipped defaults.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``api-steps``, ``model-edits``, ``recover``, ``ingress-open``
(see ``perfbench/NOTES.md`` for why each exists and which layers it
loads).  Each run checks its correctness witness before reporting:
if the witness fails, no numbers are printed and the exit code is 1.

``--trace 0`` measures end to end; ``--trace 1`` runs the traced pass
(timing shims around each layer's entry points on the live instances)
and reports per-layer metrics plus the tracing overhead.  A human
readable table goes to standard output first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Run from the root of a source checkout: the program is imported from
``src/`` and every file the run writes stays under ``.perfbench_work/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
for entry in (str(HERE), str(SRC)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

#: metrics printed on the last line, by pass.
END_TO_END = ("setup_s", "steps_per_s", "wal_bytes_per_step", "peak_rss_mb")


class Context:
    """Per-run arguments and the scratch directory under the checkout."""

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = ROOT / ".perfbench_work"
        self._dirs = 0

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.work / f"{stem}-{self._dirs:03d}"
        path.mkdir(parents=True)
        return path


def main(argv: list[str] | None = None) -> int:
    import argparse
    import json
    import os
    import shutil
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("api-steps", "model-edits", "recover", "ingress-open"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    ctx = Context(args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(ctx.work, ignore_errors=True)
    tmp = ctx.work / "tmp"
    tmp.mkdir(parents=True)
    # the program's own temporary directories (ephemeral log roots,
    # adoption scratch logs) land inside the checkout too, in this
    # process and in the workers it spawns.
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)

    from common import BenchError, stop_child_processes

    if args.workload == "api-steps":
        from apisteps import run_api_steps as run
    elif args.workload == "recover":
        from apisteps import run_recover as run
    elif args.workload == "model-edits":
        from edits import run_model_edits as run
    else:
        from openloop import run_ingress_open as run
    try:
        report, attempted, failed = run(ctx)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        stop_child_processes()
        shutil.rmtree(ctx.work, ignore_errors=True)

    print(report.render("traced pass" if ctx.trace else "end to end"))
    if ctx.trace:
        from spans import LAYER_METRICS

        rows, names = report.layers, [name for name, _unit in LAYER_METRICS]
    else:
        rows, names = report.rows, END_TO_END
    metrics = {name: {"value": rows[name][0], "unit": rows[name][1]} for name in names}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
