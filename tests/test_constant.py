"""Constant charts: when g, phi, xi, eta and K are all constant, the frame
and curvature passes evaluate the first point's lane alone and every point
shares it.  Each record of a point must then be, bit for bit, the record
a run at that point alone gives; a chart with a
non-constant field takes one lane per distinct value of the coordinates
its fields read."""

import json
import logging

import numpy as np
import pytest

from acsgeo import cli, contact, curvature, get_entry, manifold, metric, statistical
from acsgeo.expressions import parse_expression
from acsgeo.specfile import manifold_from_dict

from test_invariance import WARPED
from test_lanes import ROTATING5
from test_read_lanes import distinct_read_rows

CONSTANT = [("example_r3_negative", {})] + [
    ("example_flat_acs", {"n": n}) for n in (1, 2, 3)] + [
    ("random", {"dim": dim, "seed": 0, "family": family})
    for dim in (3, 5, 7) for family in ("planar-block", "mixed")]
# cosymplectic, which the audit reports once, at its first point
PER_RUN = {"cosymplectic"}


def _lines_by_point(rep):
    by_point = {}
    for line in rep.to_json_lines().splitlines():
        rec = json.loads(line)
        if rec["check"] not in PER_RUN:
            by_point.setdefault(tuple(rec["point"]), []).append(line)
    return by_point


@pytest.mark.parametrize("name,params", CONSTANT, ids=[
    f"{name}:{','.join(f'{k}={v}' for k, v in params.items())}" for name, params in CONSTANT])
def test_shared_lane_records_match_one_point_runs(name, params):
    m = get_entry(name, **params).manifold
    assert m.is_constant
    pts = m.grid_points(2)
    grid = _lines_by_point(cli.audit_report(m, pts, 1e-9, cli.CHECK_GROUPS))
    assert len(grid) == len(pts)
    alone = get_entry(name, **params).manifold
    for p in pts:
        rep = cli.audit_report(alone, [p], 1e-9, cli.CHECK_GROUPS)
        assert grid[tuple(p.tolist())] == _lines_by_point(rep)[tuple(p.tolist())]


def test_constancy_is_reading_no_coordinate():
    """A field is constant when its expression holds no coordinate, like the
    quotients of example_r3_negative's connection table; 0*x reads one."""
    assert get_entry("example_r3_negative").manifold.is_constant
    xyz = ["x", "y", "z"]
    assert metric.fields_constant([parse_expression(text, xyz)
                                   for text in ("-1/2", "2/2", "exp(0)/3", "-(3)^2")])
    assert not metric.fields_constant(parse_expression("0*x", xyz))
    flat = dict(ROTATING5, phi=[["0", "-1", "0", "0", "0"], ["1", "0", "0", "0", "0"],
                                ["0", "0", "0", "-1", "0"], ["0", "0", "1", "0", "0"],
                                ["0", "0", "0", "0", "0"]])
    assert manifold_from_dict(dict(flat, K={"z,z,z": "-1/2"})).is_constant
    assert not manifold_from_dict(dict(flat, K={"z,z,z": "-1/2 + 0*x1"})).is_constant


def _count_lanes(monkeypatch):
    """The lanes of every field_jet call (frame and curvature passes) and of
    every riemann call (the curvature pass)."""
    seen = {"field_jet": [], "riemann": []}

    def counted(name, fn, lanes):
        def wrapper(*args):
            seen[name].append(lanes(*args))
            return fn(*args)
        return wrapper
    for mod in (manifold, metric, statistical):
        monkeypatch.setattr(mod, "field_jet", counted(
            "field_jet", mod.field_jet, lambda fields, coords, order: len(coords[0])))
    monkeypatch.setattr(curvature, "riemann", counted(
        "riemann", curvature.riemann, lambda gamma, dgamma: len(gamma)))
    return seen


def _audit(m, grid):
    """The distinct points of an audit of ``m`` on ``grid`` points per axis."""
    rep = cli.audit_report(m, m.grid_points(grid), 1e-9, cli.CHECK_GROUPS)
    return {tuple(np.frombuffer(k)) for k in rep.points} - {()}


@pytest.mark.parametrize("ref", [("example_flat_acs", {"n": 2}),
                                 ("random", {"dim": 7, "seed": 3, "family": "mixed"})])
def test_constant_chart_takes_one_lane(monkeypatch, ref):
    m = get_entry(ref[0], **ref[1]).manifold
    seen = _count_lanes(monkeypatch)
    assert len(_audit(m, 3)) == min(3 ** m.dim, 243)
    assert seen["field_jet"] and set(seen["field_jet"]) == {1}
    assert seen["riemann"] and set(seen["riemann"]) == {1}


@pytest.mark.parametrize("spec", ["trivial-lambda", "rotating5", "warped"])
def test_one_varying_field_takes_every_lane(monkeypatch, spec):
    """trivial-lambda has a constant g and a varying K, ROTATING5 a
    constant g and a varying phi, WARPED a varying g and K: every pass
    takes a lane per distinct value of the coordinates the fields read (2
    of 5, 2 of 5 and 2 of 3 here), and R^0 is taken where the metric
    varies, and only there."""
    m = get_entry("random", dim=5, seed=0, family=spec).manifold \
        if spec == "trivial-lambda" else manifold_from_dict(
            ROTATING5 if spec == "rotating5" else WARPED)
    assert m.metric.is_constant == (spec != "warped") and not m.is_constant
    seen = _count_lanes(monkeypatch)
    points = len(_audit(m, 2))
    assert points == 2 ** m.dim
    lanes = distinct_read_rows(m, m.grid_points(2))
    assert lanes == 4 < points
    assert set(seen["field_jet"]) == {lanes}
    # R and R-bar, and R^0 where the metric varies, 16 lanes at a time
    assert sum(seen["riemann"]) == (2 if m.metric.is_constant else 3) * lanes


@pytest.mark.parametrize("argv", [
    ["zoo:example_flat_acs:n=1"], ["zoo:random:dim=5,seed=2,family=trivial-lambda"],
    ["zoo:example_flat_acs:n=2", "--checks", "psi"],
    ["zoo:example_r3_negative", "--checks", "cosymplectic,lemma_5_6"]])
def test_nabla0_phi_once_per_audit(monkeypatch, capsys, argv):
    """One pass over every point: one lane per distinct value of the
    coordinates the fields read, so one on a constant chart."""
    calls = []
    orig = contact.covariant_derivative_11

    def counted(gamma, *fields):    # contact calls it in the nabla^0 phi pass only
        calls.append(len(gamma))
        return orig(gamma, *fields)
    monkeypatch.setattr(contact, "covariant_derivative_11", counted)
    assert cli.main(["audit"] + argv + ["--grid", "2", "--format", "json"]) == 0
    out = capsys.readouterr().out
    points = {tuple(json.loads(line)["point"]) for line in out.splitlines()}
    assert calls == [distinct_read_rows(cli.resolve_input(argv[0]), list(points))]


@pytest.mark.parametrize("dim", [3, 7])
def test_shared_lane_sweep_reads_one_row_at_every_point(dim):
    """The sections of a one-lane stack, its legs and mixtures, are one
    row, which the sweep reads at every point."""
    m = get_entry("random", dim=dim, seed=1, family="mixed").manifold
    pts = m.grid_points(2)
    fs = m.frame_stack(pts)
    assert len(fs.point) == len(pts) and len(fs.g) == 1
    kept = m.kept(curvature.plain_sweep, pts)
    assert len(kept.basis) == len(kept.value) == 1
    sweep = curvature.phi_sweep(kept, fs)
    plain = m.n * (m.n + 3) // 2        # n legs and n (n + 1) / 2 mixtures
    assert sweep.value.shape == sweep.status.shape == (len(pts), plain)
    assert all(len(x) == 1 for x, _ in sweep.blocks())
    assert (sweep.value == sweep.value[:1]).all() and (sweep.status == curvature.OK).all()


def test_shared_lane_failure_is_not_bisected(caplog, capsys, tmp_path):
    """A constant chart fails in its one shared lane, its first point's: the
    error a per-point loop meets first, raised without a second pass."""
    spec = {"coordinates": ["x", "y", "z"], "grid": 5,
            "metric_lower": [["0"], ["0", "1"], ["0", "0", "1"]],
            "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
            "xi": ["0", "0", "1"], "K": {}}
    path = tmp_path / "flat_singular.json"
    path.write_text(json.dumps(spec))
    caplog.set_level(logging.DEBUG, logger="acsgeo")
    assert cli.main(["audit", str(path)]) == 1
    error = "matrix is numerically singular at [-1.0, -1.0, -1.0]"
    assert capsys.readouterr().err == f"audit failure: {error}\n"
    assert [r.getMessage() for r in caplog.records if "grid pass" in r.getMessage()] == [
        f"frame grid pass: failed: {error}"]
