"""Pass/fail audit records with residual magnitudes, and their JSON-lines
and table renderings.

A batched check gives one ``Column`` per check name: its residuals, pass
flags and values at P points, each of length P, of length 1 when all
points share the entry, or one entry per lane of a frame stack, which the
points' ``lane`` index reads (a check runs once per distinct value of the
coordinates the chart's fields read).

An ``AuditReport`` keeps two stores of the same records.  The queries
read plain lists, one per field and one entry per record, which ``add``
writes; a point is kept as the bytes of its float64 coordinates.
``add_columns`` writes its columns point-major, one ``add`` per record,
because the benchmark's tracer counts ``add`` calls as the records of an
op; it also keeps its block, which ``to_json_lines`` renders: the bytes
of the points, the lists of each column's entries at the points that the
``add`` calls read, and a copy of ``lane``.  Both stores copy, so a
record keeps its values at ``add`` time, and only a JSON rendering reads
the block's lists into a float64 table.

``to_json_lines`` writes the same text as one ``json.dumps`` per record,
from the blocks.  The points of a lane (every point, without a ``lane``)
share the text after their point when every entry of the block has the
same float64 bits at each of them as at the first (an entry of one value
per lane always has); otherwise the block's groups are its points.  Each
group's text around the point is rendered once, as a template, and each
point's lines are one join of its coordinates with that template.  Each
distinct float of a block's entries is spelled once, and the lanes and
the coordinates of each point set once per rendering.  A record ``add``
wrote outside any block renders as a block of one point and one column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from .metric import at_points


def fmt(x: float) -> str:
    """Numeric formatting of the table: 17 significant digits."""
    return f"{float(x):.17g}"


# json's spelling of the floats that have no JSON literal, keyed by repr
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _num(x: float) -> str:
    """A Python float as ``json.dumps`` writes it: shortest round-trip repr."""
    r = repr(x)
    return _NON_FINITE.get(r, r)


def _spellings(floats: np.ndarray) -> List[str]:
    """``_num`` of each entry of a float64 array, each distinct float (by its
    bits, so -0.0 is not 0.0) formatted once."""
    if len(floats) <= 128:      # measured: a dict is faster up to 128 floats, np.unique from 160
        seen = {}
        return [seen[b] if b in seen else seen.setdefault(b, _num(x))
                for b, x in zip(floats.view(np.int64).tolist(), floats.tolist())]
    bits, inverse = np.unique(floats.view(np.int64), return_inverse=True)
    text = [_num(x) for x in bits.view(np.float64).tolist()]
    return np.array(text, dtype=object)[inverse].tolist()


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
    them when None).  Each array has length P, length 1 when all P points
    share its entry, or one entry per lane of the points."""

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


def raise_first(error, points, residual, tol: float, text: str, lane=None):
    """Raise ``error`` at the first of ``points`` whose residual exceeds
    ``tol`` (never a NaN one), naming the residual and the point, which it
    keeps as its ``lane`` (``curvature.replay`` reruns the points before it);
    a residual of one lane is every point's, and one per lane is read at
    the points through their ``lane``."""
    residual = at_points(residual, lane, len(points))
    bad = np.flatnonzero(residual > tol)
    if bad.size:
        at = list(map(float, points[bad[0]]))
        exc = error(f"{text} {float(residual[bad[0]])} at {at}")
        exc.lane = at
        raise exc


def _render(raw: bytes, shape, columns, lane, seen: dict) -> str:
    """The JSON lines of one block, point-major.  ``raw`` holds the float64
    coordinates of its ``shape`` (P, dim) points, and ``columns`` gives each
    column's check and its residual, pass flag, value and mask at each point
    (lists, None when it has none), read into one float64 table with a row
    per entry.  The points of a lane (``lane``, None for one lane) are one
    group when every row has, at each of them, the float64 bits it has at
    the lane's first point; else each point is its own group.  ``seen``
    keeps the lanes of each lane array and the coordinate text of each
    point set met, for the next block."""
    count = shape[0]
    if not count or not columns:
        return ""
    _, residuals, passed, values, masks = zip(*columns)
    values, masks = ([a for a in arrays if a is not None] for arrays in (values, masks))
    spelled_rows = len(residuals) + len(values)      # the rows spelled, then the flags
    table = np.array([*residuals, *values, *passed, *masks], dtype=float)
    if lane is None:
        first, group = np.zeros(1, dtype=np.intp), np.zeros(count, dtype=np.intp)
    else:
        key = "lane", lane.tobytes()
        if key not in seen:
            seen[key] = np.unique(lane, return_index=True, return_inverse=True)[1:]
        first, group = seen[key]
    bits = table.view(np.int64)
    if not (bits == bits[:, first][:, group]).all():
        first = group = np.arange(count)
    groups, at_groups = len(first), table[:, first]
    text = _spellings(at_groups[:spelled_rows].ravel())
    spelled = [text[i:i + groups] for i in range(0, len(text), groups)]
    flags = at_groups[spelled_rows:].tolist()
    values, masks = iter(spelled[len(residuals):]), iter(flags[len(residuals):])
    cols = []
    for (check, _, _, value, at), res, oks in zip(columns, spelled, flags):
        head = f'{{"check": {encode_basestring_ascii(check)}, "point": ['   # as json.dumps
        tails = [f'], "residual": {r}, "pass": {"true" if ok else "false"}'
                 for r, ok in zip(res, oks)]
        tails = [t + "}" for t in tails] if value is None else \
            [f'{t}, "value": {v}}}' for t, v in zip(tails, next(values))]
        cols.append((head, "\n" + head, tails, None if at is None else next(masks)))
    templates = []
    for g in range(groups):
        parts, tail = [], None
        for head, next_head, tails, keep in cols:
            if keep is None or keep[g]:
                parts.append(head if tail is None else tail + next_head)
                tail = tails[g]
        if tail is not None:
            parts.append(tail)
        templates.append(parts)
    key = shape, raw
    if key not in seen:
        text = _spellings(np.frombuffer(raw))
        seen[key] = [", ".join(text[i * shape[1]:(i + 1) * shape[1]]) for i in range(count)]
    return "\n".join(filter(None, [
        mid.join(templates[g]) for mid, g in zip(seen[key], group.tolist())]))


class AuditReport:
    """Records as columns (``checks``, ``points``, ``residuals``, ``passed``,
    ``values``), then the flags; and the blocks of ``add_columns``, which
    ``to_json_lines`` renders.  The per-record lists stay while the
    benchmark's tracer counts ``add`` calls as its records."""

    def __init__(self):
        self.checks: List[str] = []
        self.points: List[bytes] = []         # float64 coordinates of each point
        self.residuals: List[float] = []
        self.passed: List[bool] = []
        self.values: List[Optional[float]] = []
        self.flags: List[str] = []
        self._blocks = []      # (first record, end record, _render's block)

    def add(self, check, point, residual, passed, value=None):
        """One record; ``point`` is coordinates or, as it is kept, their
        float64 bytes."""
        self.checks.append(check)
        self.points.append(point if isinstance(point, bytes)
                           else np.asarray(point, dtype=float).tobytes())
        self.residuals.append(float(residual))
        self.passed.append(bool(passed))
        self.values.append(None if value is None else float(value))

    @classmethod
    def from_columns(cls, points, columns, lane=None) -> "AuditReport":
        rep = cls()
        rep.add_columns(points, columns, lane)
        return rep

    def add_columns(self, points, columns, lane=None):
        """One record per point and column, point-major: every column at the
        first point, then at the next; an entry of length 1 is every
        point's, and an array of one entry per lane is read at each point
        through the points' ``lane``.  Each record is one ``add`` call, the
        count the benchmark's tracer reports as ``report.records``, given the
        point's bytes, cut from the bytes of the (P, dim) points.  The block
        is kept for ``to_json_lines``: those bytes, the lists of each
        column's entries at the points that the ``add`` calls read, and a
        copy of ``lane``."""
        pts = np.ascontiguousarray(points, dtype=float)
        count = len(pts)

        def full(a):
            if a is None:
                return None
            a = np.ravel(a)
            return a.tolist() * count if len(a) == 1 else at_points(a, lane, count).tolist()
        lists = [(c.check, full(c.residual), full(c.passed), full(c.value), full(c.at))
                 for c in columns]
        start = len(self.checks)
        raw, width = pts.tobytes(), pts[0].nbytes if count else 0
        add = self.add
        for i in range(count):
            p = raw[i * width:(i + 1) * width]
            for check, residual, passed, value, at in lists:
                if at is None or at[i]:
                    add(check, p, residual[i], passed[i],
                        None if value is None else value[i])
        lane = None if lane is None else np.array(lane, dtype=np.intp)
        self._blocks.append((start, len(self.checks), (raw, (count, width // 8), lists, lane)))

    def flag(self, message: str):
        self.flags.append(message)

    def extend(self, other: "AuditReport"):
        shift = len(self.checks)
        self._blocks += [(start + shift, end + shift, block)
                         for start, end, block in other._blocks]
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

    def to_json_lines(self) -> str:
        """One ``json.dumps`` line per record, rendered per block; a record
        ``add`` wrote outside any block is a block of one point and one
        column."""
        texts, done, seen = [], 0, {}
        for start, end, block in self._blocks + [(len(self.checks), None, None)]:
            for i in range(done, start):
                raw, value = self.points[i], self.values[i]
                texts.append(_render(raw, (1, len(raw) // 8), [
                    (self.checks[i], [self.residuals[i]], [self.passed[i]],
                     None if value is None else [value], None)], None, seen))
            if block is not None:
                texts.append(_render(*block, seen))
            done = end
        return "\n".join(filter(None, texts))

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
