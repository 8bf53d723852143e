"""Pass/fail audit records with residual magnitudes, and their JSON-lines
and table renderings."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional


def fmt(x: float) -> str:
    """Numeric formatting used everywhere in reports: 17 significant digits."""
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class CheckRecord:
    check: str
    point: tuple
    residual: float
    passed: bool
    value: Optional[float] = None  # measured value, when the check reports one

    def to_json(self) -> str:
        d = {
            "check": self.check,
            "point": [float(x) for x in self.point],
            "residual": float(self.residual),
            "pass": bool(self.passed),
        }
        if self.value is not None:
            d["value"] = float(self.value)
        return json.dumps(d)


@dataclass
class AuditReport:
    records: List[CheckRecord] = field(default_factory=list)
    flags: List[str] = field(default_factory=list)

    def add(self, check, point, residual, tol=None, passed=None, value=None):
        if passed is None:
            passed = abs(residual) <= tol
        self.records.append(CheckRecord(check=check, point=tuple(float(x) for x in point),
                                        residual=float(residual), passed=bool(passed),
                                        value=value))
        return passed

    def flag(self, message: str):
        self.flags.append(message)

    def extend(self, other: "AuditReport"):
        self.records.extend(other.records)
        self.flags.extend(other.flags)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records) and not self.flags

    def max_residual(self, check_prefix: str = "") -> float:
        vals = [abs(r.residual) for r in self.records if r.check.startswith(check_prefix)]
        return max(vals) if vals else 0.0

    def worst_by_check(self):
        worst = {}
        for r in self.records:
            w = worst.get(r.check)
            if w is None or abs(r.residual) > abs(w.residual):
                worst[r.check] = r
        return worst

    def failures(self) -> List[CheckRecord]:
        return [r for r in self.records if not r.passed]

    def to_json_lines(self) -> str:
        return "\n".join(r.to_json() for r in self.records)

    def to_table(self) -> str:
        """The worst record of each check, then the flags."""
        rows = list(self.worst_by_check().values())
        name_w = max([len(r.check) for r in rows] + [5])
        lines = [f"{'check':<{name_w}}  {'residual':>24}  result"]
        for r in rows:
            lines.append(f"{r.check:<{name_w}}  {fmt(r.residual):>24}  "
                         f"{'pass' if r.passed else 'FAIL'}")
        for msg in self.flags:
            lines.append(f"flag: {msg}")
        return "\n".join(lines)
