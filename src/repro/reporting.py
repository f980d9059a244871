"""Common report surface shared by every result object.

The CLI, tests and downstream tooling used to special-case each report
shape (``ServeResult`` vs ``LatencyReport`` vs ``FaultStats``).  The
:class:`Report` protocol unifies them: anything reportable exposes

* ``summary() -> dict`` — flat, JSON-ready headline numbers, and
* ``to_json(path)``     — write the full report to disk.

Implementations: :class:`~repro.serve.result.ServeResult`,
:class:`~repro.serve.slo.LatencyReport`,
:class:`~repro.faults.recovery.FaultStats`.  Use
``isinstance(obj, Report)`` (runtime-checkable) to accept any of them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Protocol, runtime_checkable


@runtime_checkable
class Report(Protocol):
    """Structural type of every report object in the library."""

    def summary(self) -> dict:
        """Flat dict of headline numbers (JSON-ready, deterministic)."""
        ...  # pragma: no cover - protocol body

    def to_json(self, path) -> None:
        """Write the full report (summary + detail records) to ``path``."""
        ...  # pragma: no cover - protocol body


def dump_json(path: str | Path, payload: dict) -> None:
    """Write ``payload`` with the library-wide JSON convention.

    ``indent=2`` and insertion-ordered keys: two runs that build the
    same payload produce byte-identical files (the CI determinism
    checks diff these directly).
    """
    Path(path).write_text(json.dumps(payload, indent=2))
