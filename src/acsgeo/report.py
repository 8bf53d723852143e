"""Pass/fail audit records with residual magnitudes, and their JSON-lines
and table renderings.

An ``AuditReport`` is columnar: one plain list per field, one entry per
record.  A point is kept as the bytes of its float64 coordinates, so a
record keeps the point's value at ``add`` time and equal points share one
key.  ``to_json_lines`` writes the same text as one ``json.dumps`` per
record, but renders each distinct check name, each distinct point and
each distinct float once.

A batched check gives one ``Column`` per check name: its residuals, pass
flags and values at P points, each of length P or of length 1 when all
points share the entry (the checks of a constant chart run on one lane).
``AuditReport.add_columns`` writes them point-major, one ``add`` per
record.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional

import numpy as np


def fmt(x: float) -> str:
    """Numeric formatting of the table: 17 significant digits."""
    return f"{float(x):.17g}"


# json's spelling of the floats that have no JSON literal, keyed by repr
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _num(x: float) -> str:
    """A Python float as ``json.dumps`` writes it: shortest round-trip repr."""
    r = repr(x)
    return _NON_FINITE.get(r, r)


def _spellings(floats) -> List[str]:
    """``_num`` of each of a list of floats, each distinct float (by its
    bits, so -0.0 is not 0.0) formatted once."""
    if len(floats) < 2:
        return [_num(x) for x in floats]
    bits, inverse = np.unique(np.array(floats, dtype=float).view(np.int64),
                              return_inverse=True)
    text = [_num(x) for x in bits.view(np.float64).tolist()]
    return [text[i] for i in inverse.tolist()]


@dataclass(frozen=True)
class CheckRecord:
    check: str
    point: tuple
    residual: float
    passed: bool
    value: Optional[float] = None  # measured value, when the check reports one


class Column(NamedTuple):
    """One check at P points: residuals, pass flags and, when the check
    reports one, values; ``at`` masks the points that get a record (all of
    them when None).  Each array has length P, or length 1 when all P
    points share its entry."""

    check: str
    residual: np.ndarray
    passed: np.ndarray
    value: Optional[np.ndarray] = None
    at: Optional[np.ndarray] = None


def within(check: str, residual, tol: float) -> Column:
    """The column of a check that passes where |residual| <= tol, so never
    where the residual is NaN."""
    return Column(check, residual, np.abs(residual) <= tol)


def max_abs(a: np.ndarray) -> np.ndarray:
    """max |a| over every axis after the leading point axis, (P,); NaN where
    a holds a NaN."""
    return np.max(np.abs(a), axis=tuple(range(1, a.ndim)))


def raise_first(error, points, residual, tol: float, text: str):
    """Raise ``error`` at the first of ``points`` whose residual exceeds
    ``tol`` (never a NaN one), naming the residual and the point; a
    residual of one lane is every point's."""
    bad = np.flatnonzero(residual > tol)
    if bad.size:
        raise error(f"{text} {float(residual[bad[0]])} at {list(map(float, points[bad[0]]))}")


class AuditReport:
    """Records as columns (``checks``, ``points``, ``residuals``, ``passed``,
    ``values``), then the flags."""

    def __init__(self):
        self.checks: List[str] = []
        self.points: List[bytes] = []         # float64 coordinates of each point
        self.residuals: List[float] = []
        self.passed: List[bool] = []
        self.values: List[Optional[float]] = []
        self.flags: List[str] = []

    def add(self, check, point, residual, tol=None, passed=None, value=None):
        """One record; ``point`` is coordinates or, as it is kept, their
        float64 bytes."""
        if passed is None:
            passed = abs(residual) <= tol
        self.checks.append(check)
        self.points.append(point if isinstance(point, bytes)
                           else np.asarray(point, dtype=float).tobytes())
        self.residuals.append(float(residual))
        self.passed.append(bool(passed))
        self.values.append(None if value is None else float(value))
        return passed

    @classmethod
    def from_columns(cls, points, columns) -> "AuditReport":
        rep = cls()
        rep.add_columns(points, columns)
        return rep

    def add_columns(self, points, columns):
        """One record per point and column, point-major: every column at the
        first point, then at the next; an entry of length 1 is every
        point's.  Each record is one ``add`` call, the count the
        benchmark's tracer reports as ``report.records``, given the point's
        bytes, taken once per point."""
        def full(a):
            return None if a is None else np.broadcast_to(a, (len(points),)).tolist()
        lists = [(c.check, full(c.residual), full(c.passed), full(c.value), full(c.at))
                 for c in columns]
        keys = [np.asarray(p, dtype=float).tobytes() for p in points]
        for i, p in enumerate(keys):
            for check, residual, passed, value, at in lists:
                if at is None or at[i]:
                    self.add(check, p, residual[i], passed=passed[i],
                             value=None if value is None else value[i])

    def flag(self, message: str):
        self.flags.append(message)

    def extend(self, other: "AuditReport"):
        self.checks += other.checks
        self.points += other.points
        self.residuals += other.residuals
        self.passed += other.passed
        self.values += other.values
        self.flags += other.flags

    def _record(self, i: int) -> CheckRecord:
        return CheckRecord(self.checks[i], tuple(np.frombuffer(self.points[i]).tolist()),
                           self.residuals[i], self.passed[i], self.values[i])

    @property
    def records(self) -> List[CheckRecord]:
        """Every record as a ``CheckRecord``, built on each access."""
        return [self._record(i) for i in range(len(self.checks))]

    @property
    def point_count(self) -> int:
        """The number of distinct points of the records, not counting the
        empty point of point-free checks."""
        return len(set(self.points) - {b""})

    @property
    def all_passed(self) -> bool:
        return all(self.passed) and not self.flags

    def max_residual(self, check_prefix: str = "") -> float:
        """max |residual| of the checks named ``check_prefix...`` (0 without
        any); NaN when one of them is NaN."""
        return float(np.max([abs(r) for c, r in zip(self.checks, self.residuals)
                             if c.startswith(check_prefix)], initial=0.0))

    def worst_by_check(self) -> Dict[str, CheckRecord]:
        """The first record of each check with the largest |residual|; a NaN
        residual is worse than any number."""
        def badness(r):
            return math.isnan(r), abs(r)

        worst = {}
        for i, (c, r) in enumerate(zip(self.checks, self.residuals)):
            w = worst.get(c)
            if w is None or badness(r) > badness(self.residuals[w]):
                worst[c] = i
        return {c: self._record(i) for c, i in worst.items()}

    def failures(self) -> List[CheckRecord]:
        return [self._record(i) for i, ok in enumerate(self.passed) if not ok]

    def to_json_lines(self) -> str:
        heads = {c: f'{{"check": {json.dumps(c)}, "point": [' for c in set(self.checks)}
        mids = {k: ", ".join(map(_num, np.frombuffer(k).tolist())) + '], "residual": '
                for k in set(self.points)}
        values = iter(_spellings([v for v in self.values if v is not None]))
        return "\n".join([
            f'{heads[c]}{mids[k]}{r}, "pass": {"true" if ok else "false"}'
            + ("}" if v is None else f', "value": {next(values)}}}')
            for c, k, r, ok, v in zip(self.checks, self.points, _spellings(self.residuals),
                                      self.passed, self.values)])

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
