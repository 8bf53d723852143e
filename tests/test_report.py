"""The columnar report renders exactly what one ``json.dumps`` per record
writes, and keeps each record's values as they were at ``add`` time."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acsgeo import AuditReport, CheckRecord
from acsgeo.report import Column

SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
           -2.2250738585072014e-308, 1e16, -1.2345678901234567e16, 1.7976931348623157e308,
           0.1, 1 / 3]


def reference_line(check, point, residual, passed, value) -> str:
    """One record as the JSON line of the row-per-object report."""
    d = {"check": check, "point": [float(x) for x in point],
         "residual": float(residual), "pass": bool(passed)}
    if value is not None:
        d["value"] = float(value)
    return json.dumps(d)


def doubles():
    return st.one_of(st.sampled_from(SPECIAL),
                     st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


def numbers():
    """A Python float, a numpy float64 or a numpy float32 scalar."""
    return st.one_of(doubles(), doubles().map(np.float64),
                     st.floats(width=32).map(np.float32))


def points():
    coords = st.lists(doubles(), max_size=7)
    return st.one_of(
        st.just(()),
        coords.map(tuple),
        coords.map(lambda c: np.array(c, dtype=float)),
        st.lists(st.floats(width=32), max_size=7).map(lambda c: np.array(c, dtype=np.float32)),
        st.lists(numbers(), max_size=7))


rows = st.tuples(
    st.one_of(st.sampled_from(["phi_squared", "thm_5_8/c1_kphi_zero",
                               "curvature/constancy_gap/k_phi"]), st.text()),
    points(), numbers(),
    st.one_of(st.booleans(), st.booleans().map(np.bool_)),
    st.one_of(st.none(), numbers(), st.booleans()))


@settings(max_examples=200, deadline=None)
@given(st.lists(rows, max_size=12), st.integers(0, 12))
def test_render_matches_one_dumps_per_record(rows, cut):
    """Rows added to two reports, then joined with ``extend``, render as
    the reference lines; so do the ``records`` built back from the columns."""
    first, second = AuditReport(), AuditReport()
    for i, (check, point, residual, passed, value) in enumerate(rows):
        rep = first if i < cut else second
        rep.add(check, point, residual, passed=passed, value=value)
    first.extend(second)
    expected = "\n".join(reference_line(*row) for row in rows)
    assert first.to_json_lines() == expected
    assert all(isinstance(r, CheckRecord) for r in first.records)
    assert "\n".join(reference_line(r.check, r.point, r.residual, r.passed, r.value)
                     for r in first.records) == expected


@st.composite
def column_blocks(draw):
    """P points of one dimension and columns over them, each array of length
    P or of length 1 (shared by every point), with and without values and
    ``at`` masks."""
    n = draw(st.integers(0, 5))
    pts = draw(st.lists(st.lists(doubles(), min_size=2, max_size=2), min_size=n, max_size=n))

    def array(elements, dtype):
        size = draw(st.sampled_from([1, n] if n else [1]))
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)), dtype=dtype)
    columns = [Column(draw(st.sampled_from(["a", "b/c", "thm_5_8/c1_kphi_zero"])),
                      array(doubles(), float), array(st.booleans(), bool),
                      array(doubles(), float) if draw(st.booleans()) else None,
                      array(st.booleans(), bool) if draw(st.booleans()) else None)
               for _ in range(draw(st.integers(0, 4)))]
    return np.array(pts, dtype=float).reshape(n, 2), columns


@settings(max_examples=200, deadline=None)
@given(column_blocks(), st.lists(rows, max_size=3))
def test_columns_render_and_query_as_their_records(block, rows):
    """Columns, broadcast and masked, render as one ``json.dumps`` per
    record, point-major, and answer every query as the same records added
    one at a time; a report of columns extended by single records too."""
    pts, columns = block
    ref = AuditReport()
    lines = []
    for i, p in enumerate(pts):
        for c in columns:
            def at(a):
                return None if a is None else np.broadcast_to(a, (len(pts),))[i]
            if c.at is None or at(c.at):
                ref.add(c.check, p, at(c.residual), passed=at(c.passed), value=at(c.value))
                lines.append(reference_line(c.check, p, at(c.residual), at(c.passed),
                                            at(c.value)))
    rep = AuditReport.from_columns(pts, columns)
    for check, point, residual, passed, value in rows:
        for r in (rep, ref):
            r.add(check, point, residual, passed=passed, value=value)
        lines.append(reference_line(check, point, residual, passed, value))
    assert rep.to_json_lines() == "\n".join(lines)
    assert repr(rep.records) == repr(ref.records)       # repr: nan is not nan
    for prefix in ("", "a", "b/", "thm"):
        assert repr(rep.max_residual(prefix)) == repr(ref.max_residual(prefix))
    assert repr(rep.worst_by_check()) == repr(ref.worst_by_check())
    assert rep.point_count == ref.point_count and rep.all_passed == ref.all_passed


def test_columns_add_one_record_at_a_time(monkeypatch):
    """add_columns writes each record through ``add``: one call per record,
    the count the benchmark's tracer reads."""
    calls = []
    orig = AuditReport.add
    monkeypatch.setattr(AuditReport, "add", lambda self, *a, **k: calls.append(a[0])
                        or orig(self, *a, **k))
    pts = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    rep = AuditReport.from_columns(pts, [
        Column("a", np.zeros(1), np.ones(1, dtype=bool)),
        Column("b", np.arange(3.0), np.ones(3, dtype=bool), np.ones(1),
               np.array([True, False, True]))])
    assert calls == ["a", "b", "a", "a", "b"] == rep.checks


@pytest.mark.parametrize("count", [0, 1, 3])
def test_one_row_columns_repeat_their_special_floats(count):
    """A one-row column is every point's, -0.0, NaN and +-inf as they are;
    beside it a column of one entry per lane reads each point's lane."""
    pts = np.arange(2.0 * count).reshape(count, 2)
    lane = np.array([0, 1, 0])[:count]
    special = [-0.0, float("nan"), float("inf"), float("-inf")]
    columns = [Column(f"c{i}", np.array([x]), np.array([i % 2 == 0]), np.array([-x]))
               for i, x in enumerate(special)]
    columns.append(Column("lanes", np.array([-0.0, float("nan")]), np.array([True, False]),
                          np.array([float("inf"), -0.0])))
    rep = AuditReport.from_columns(pts, columns, lane)
    lines = []
    for p, k in zip(pts, lane):
        lines += [reference_line(f"c{i}", p, x, i % 2 == 0, -x) for i, x in enumerate(special)]
        lines.append(reference_line("lanes", p, [-0.0, float("nan")][k], k == 0,
                                    [float("inf"), -0.0][k]))
    assert rep.to_json_lines() == "\n".join(lines)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(points(), st.one_of(doubles(), doubles().map(np.float64))),
                max_size=8), doubles())
def test_passed_from_tolerance(rows, tol):
    """A record passes as its ``passed`` says: here ``abs(residual) <= tol``,
    which a NaN residual never meets."""
    rep = AuditReport()
    for point, residual in rows:
        rep.add("check", point, residual, passed=abs(residual) <= tol)
    assert rep.passed == [bool(abs(r) <= tol) for _, r in rows]
    assert rep.to_json_lines() == "\n".join(
        reference_line("check", p, r, abs(r) <= tol, None) for p, r in rows)


def test_point_is_kept_at_add_time():
    """The report copies the point: mutating the array afterwards changes
    neither the rendered record nor the records added later."""
    p = np.array([0.5, -1.0, 2.0])
    rep = AuditReport()
    rep.add("a", p, 0.0, passed=True)
    rep.add("b", p, 1e-12, passed=True)
    p[0] = 7.0
    rep.add("c", p, 0.0, passed=True, value=1.0)
    assert rep.to_json_lines() == "\n".join([
        reference_line("a", [0.5, -1.0, 2.0], 0.0, True, None),
        reference_line("b", [0.5, -1.0, 2.0], 1e-12, True, None),
        reference_line("c", [7.0, -1.0, 2.0], 0.0, True, 1.0)])
    assert rep.point_count == 2


def test_signed_zero_points_stay_distinct():
    """0.0 == -0.0, but a point with -0.0 renders its own sign."""
    rep = AuditReport()
    rep.add("a", [0.0], 0.0, passed=True)
    rep.add("a", [-0.0], 0.0, passed=True)
    assert rep.to_json_lines().splitlines() == [
        reference_line("a", [0.0], 0.0, True, None),
        reference_line("a", [-0.0], 0.0, True, None)]


def test_queries_read_the_columns():
    rep = AuditReport()
    for point, r in (([0.0, 1.0], 1e-3), ([1.0, 1.0], -2e-3)):
        rep.add("x/a", point, r, passed=abs(r) <= 1e-9)
    rep.add("x/b", [0.0, 1.0], 0.0, passed=True, value=0.0)
    rep.add("y", (), 5.0, passed=True, value=5.0)
    assert not rep.all_passed
    assert rep.max_residual("x/") == 2e-3 and rep.max_residual() == 5.0
    assert rep.max_residual("z") == 0.0
    assert rep.worst_by_check() == {
        "x/a": CheckRecord("x/a", (1.0, 1.0), -2e-3, False),
        "x/b": CheckRecord("x/b", (0.0, 1.0), 0.0, True, 0.0),
        "y": CheckRecord("y", (), 5.0, True, 5.0)}
    assert [r.point for r in rep.records if not r.passed] == [(0.0, 1.0), (1.0, 1.0)]
    assert rep.point_count == 2
    empty = AuditReport()
    assert empty.all_passed and empty.to_json_lines() == "" and empty.records == []
    empty.flag("disagreement")
    assert not empty.all_passed


def test_nan_residual_is_the_worst():
    rep = AuditReport()
    for check, point, r in (("c", [0.0], 0.5), ("c", [1.0], float("nan")), ("c", [2.0], 2.0),
                            ("d", [0.0], float("nan")), ("d", [1.0], float("nan"))):
        rep.add(check, point, r, passed=abs(r) <= 1.0)
    worst = rep.worst_by_check()
    assert worst["c"].point == (1.0,) and worst["d"].point == (0.0,)
    assert np.isnan(rep.max_residual("c")) and np.isnan(rep.max_residual())
    assert rep.to_table().splitlines()[1:] == [
        f"{name:<5}  {'nan':>24}  FAIL" for name in "cd"]
