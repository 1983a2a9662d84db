"""Result records for experiments: rows + shape checks + JSON export."""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence


class ShapeCheck:
    """One mechanically-verified claim about an experiment's shape."""

    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name = name
        self.passed = passed
        self.detail = detail

    def __repr__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"ShapeCheck({self.name!r}: {mark} {self.detail})"


class ExperimentResult:
    """Everything one experiment produced."""

    def __init__(
        self,
        experiment_id: str,
        title: str,
        headers: Sequence[str],
        rows: Sequence[Sequence],
        checks: Optional[List[ShapeCheck]] = None,
        notes: str = "",
        paper_claim: str = "",
    ):
        self.experiment_id = experiment_id
        self.title = title
        self.headers = list(headers)
        self.rows = [list(row) for row in rows]
        self.checks = checks or []
        self.notes = notes
        self.paper_claim = paper_claim
        #: optional figure series rendered as a text bar chart:
        #: (labels, values, unit)
        self.figure = None
        #: optional :class:`~repro.obs.manifest.RunManifest` describing the
        #: run that produced this result (attached by ``run_experiment``)
        self.manifest = None

    def set_figure(self, labels: Sequence[str], values: Sequence[float],
                   unit: str = "") -> None:
        """Attach a per-benchmark series rendered as the paper's figure."""
        self.figure = (list(labels), list(values), unit)

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def add_check(self, name: str, passed: bool, detail: str = "") -> None:
        """Record one shape check outcome."""
        self.checks.append(ShapeCheck(name, passed, detail))

    def check_range(self, name: str, value: float, low: float, high: float) -> None:
        """Convenience: check ``low <= value <= high``."""
        self.add_check(
            name,
            low <= value <= high,
            f"value={value:.4g}, expected in [{low:g}, {high:g}]",
        )

    def as_dict(self) -> Dict:
        """JSON-ready representation of the whole result."""
        payload = {
            "experiment": self.experiment_id,
            "title": self.title,
            "paper_claim": self.paper_claim,
            "headers": self.headers,
            "rows": self.rows,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "notes": self.notes,
        }
        if self.manifest is not None:
            payload["manifest"] = self.manifest.as_dict()
        return payload

    def to_json(self, indent: int = 2) -> str:
        """The result as a JSON string."""
        return json.dumps(self.as_dict(), indent=indent)

    def render(self) -> str:
        """Human-readable report block."""
        from repro.harness.tables import ascii_table, bar_series

        lines = [f"== {self.experiment_id}: {self.title} =="]
        if self.paper_claim:
            lines.append(f"paper claim: {self.paper_claim}")
        lines.append(ascii_table(self.headers, self.rows))
        if self.figure is not None:
            labels, values, unit = self.figure
            lines.append(bar_series(labels, values, unit=unit))
        for check in self.checks:
            mark = "PASS" if check.passed else "FAIL"
            lines.append(f"  [{mark}] {check.name}: {check.detail}")
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        status = "ok" if self.all_passed else "FAILING"
        return (
            f"ExperimentResult({self.experiment_id}, {len(self.rows)} rows, "
            f"{len(self.checks)} checks, {status})"
        )
