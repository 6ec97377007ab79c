"""Gate lines for the bench reports.

Every report module under :mod:`repro.bench` pairs ``run(quick)``,
which measures and returns the report, with ``check(report)``, which
returns one ``(line, ok)`` per gate.  Each line names the measured
value and the bound it is held to, so a failing run says by how much.
A gate with a looser bound on ``--quick`` runs (shared CI boxes are
noisy) picks it with :func:`bound`; a gate that holds only on full
runs is emitted only when :func:`is_quick` is false.
"""

from __future__ import annotations

import operator
from typing import Any, Mapping

__all__ = ["Check", "bound", "compare", "holds", "is_quick"]

#: one gate verdict: the printable line and whether it passed.
Check = tuple[str, bool]

_OPS = {
    "<=": operator.le,
    "<": operator.lt,
    ">=": operator.ge,
    ">": operator.gt,
    "==": operator.eq,
}


def is_quick(report: Mapping[str, Any]) -> bool:
    return bool(report.get("quick", False))


def bound(report: Mapping[str, Any], *, quick: float, full: float) -> float:
    """The bound a gate is held to for this report's run size."""
    return quick if is_quick(report) else full


def compare(what: str, value: Any, op: str, limit: Any) -> Check:
    """``value op limit``; a missing (``None``) value fails."""
    ok = value is not None and _OPS[op](value, limit)
    return f"{what}: {_show(value)} {op} {_show(limit)}", ok


def holds(what: str, value: Any) -> Check:
    """A correctness flag that must be truthy."""
    return f"{what}: {_show(value)}", bool(value)


def _show(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
