"""Lanes keyed by the coordinates the fields read: the frame and curvature
passes take one lane per distinct float64 value of the coordinates that
g, phi, xi, eta and K (or the connection table) read, and every point
reads its lane.  Each point's frame and curvature must be, bit for bit,
what a pass of that point alone gives; -0.0 and 0.0 take two lanes, and a
constant chart takes one."""

import json
import re

import numpy as np
import pytest

from acsgeo import curvature as curv
from acsgeo import get_entry
from acsgeo.manifold import ChartManifold, lane_rows
from acsgeo.specfile import manifold_from_dict, manifold_to_dict

from test_invariance import WARPED, WARPED_CONNECTION
from test_lanes import ROTATING5

FLAT = {"coordinates": ["x", "y", "z"], "grid": 3,
        "metric_lower": [["1"], ["0", "1"], ["0", "0", "1"]],
        "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
        "xi": ["0", "0", "1"]}
# the one coordinate read sits under a function call inside a power
SIN_SQUARED = dict(FLAT, K={"z,z,z": "0.5 + sin(y)^2"})
CHARTS = {f"trivial-lambda:dim={dim},seed={seed}": ("random", dim, seed)
          for dim, seed in ((3, 0), (5, 0), (5, 1), (7, 1))}
CHARTS.update({"warped": WARPED, "warped_connection": WARPED_CONNECTION,
               "rotating5": ROTATING5, "sin_squared": SIN_SQUARED})


def chart(name):
    spec = CHARTS[name]
    if isinstance(spec, tuple):
        return get_entry(spec[0], dim=spec[1], seed=spec[2], family="trivial-lambda").manifold
    return manifold_from_dict(spec)


def named_coordinates(m):
    """The coordinates whose names occur in the text of a field of ``m``:
    the coordinates its fields read, found apart from expression trees."""
    spec = manifold_to_dict(m)
    texts = [spec[key] for key in ("metric_lower", "phi", "xi", "eta") if key in spec]
    texts += list(spec.get("K", {}).values()) + list(spec.get("connection", {}).values())
    text = json.dumps(texts)
    return [i for i, c in enumerate(m.coords)
            if re.search(rf"(?<!\w){re.escape(c)}(?!\w)", text)]


def distinct_read_rows(m, pts):
    """The number of distinct float64 byte rows of ``pts`` in the
    coordinates named in the fields of ``m``: the lanes a pass takes."""
    return len({p[named_coordinates(m)].tobytes() for p in np.asarray(pts, dtype=float)})


def assert_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def assert_rows_are_one_point_passes(m, pts, frames, curvatures):
    """Each point's rows of ``frames`` and ``curvatures`` against the
    passes of that point alone, on a chart of the same spec."""
    alone = manifold_from_dict(manifold_to_dict(m))
    for i, p in enumerate(pts):
        one = alone.frame_stack([p])
        one_curvatures = curv.statistical_curvatures(alone, [p])
        assert len(one.g) == len(one_curvatures.s) == 1
        for got, want in zip(frames[1:-1], one[1:-1]):
            assert_bits(got[frames.lane[i]], want[0])
        for got, want in zip(curvatures[1:-1], one_curvatures[1:-1]):
            assert_bits(got[curvatures.lane[i]], want[0])


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_reads_are_the_named_coordinates(name):
    m = chart(name)
    assert list(m.reads) == named_coordinates(m)
    assert 0 < len(m.reads) < m.dim and not m.is_constant


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_each_point_reads_its_one_point_pass(name):
    m = chart(name)
    pts = m.grid_points(2 if m.dim == 7 else 3)[:128]
    frames = m.frame_stack(pts)
    curvatures = curv.statistical_curvatures(m, pts)
    lanes = distinct_read_rows(m, pts)
    assert lanes < len(pts)
    assert len(frames.g) == len(frames.K) == len(curvatures.s) == len(curvatures.cross) == lanes
    assert np.array_equal(frames.lane, curvatures.lane) and frames.lane[0] == 0
    # lanes are numbered in the order the points meet them
    firsts = [int(np.flatnonzero(frames.lane == u)[0]) for u in range(lanes)]
    assert firsts == sorted(firsts)
    assert_rows_are_one_point_passes(m, pts, frames, curvatures)


def test_row_reads_keep_the_lanes_they_use():
    """Rows of the kept grid take no pass and keep only their own lanes,
    renumbered in the order the rows meet them."""
    m = manifold_from_dict(WARPED)
    pts = m.grid_points(4)
    kept = m.frame_stack(pts)
    curvatures = curv.statistical_curvatures(m, pts)
    assert len(kept.g) == 16 and len(pts) == 64
    rows = [63, 1, 0, 62, 5]        # lanes 15, 0, 0, 15, 1
    sub = m.frame_stack(pts[rows])
    assert np.array_equal(sub.lane, [0, 1, 1, 0, 2]) and len(sub.g) == 3
    assert m.frame_stack(pts) is kept       # the store kept the grid
    assert_rows_are_one_point_passes(m, pts[rows], sub,
                                     curv.statistical_curvatures(m, pts[rows]))
    assert curv.statistical_curvatures(m, pts) is curvatures


def test_row_reads_match_lane_rows_of_the_whole_part():
    """The store indexes its kept points once per point set: every request
    for some of them, one row at a time or several in any order, gives
    ``lane_rows`` of the whole kept part, bit for bit, and takes no pass."""
    m = manifold_from_dict(WARPED)
    pts = m.grid_points(4)
    parts = {ChartManifold._frames: m.frame_stack(pts),
             curv._curvature_parts: curv.statistical_curvatures(m, pts)}
    lane = m.lanes(pts)[1]
    requests = [[i] for i in range(len(pts))] + [[63, 1, 0, 62, 5], list(range(63, -1, -1))]
    index = None
    for rows in requests:
        for pass_fn, part in parts.items():
            got, want = m.kept(pass_fn, pts[rows]), lane_rows(part, rows, lane)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
        index = index or m._kept_index
        assert m._kept_index is index
    assert all(m.kept(pass_fn, pts) is part for pass_fn, part in parts.items())


def test_signed_zeros_take_two_lanes():
    m = manifold_from_dict(dict(FLAT, K={"z,z,z": "0.5 + x*y"}))
    pts = np.array([[0.0, 1.0, 0.0], [-0.0, 1.0, 0.0], [0.0, 1.0, 5.0], [-0.0, 1.0, -0.0]])
    first, lane = m.lanes(pts)
    assert first.tolist() == [0, 1] and lane.tolist() == [0, 1, 0, 1]
    frames = m.frame_stack(pts)
    curvatures = curv.statistical_curvatures(m, pts)
    assert len(frames.g) == len(curvatures.s) == 2
    assert_rows_are_one_point_passes(m, pts, frames, curvatures)


@pytest.mark.parametrize("ref", [("example_flat_acs", {"n": 2}), ("example_r3_negative", {}),
                                 ("random", {"dim": 5, "seed": 1, "family": "mixed"})])
def test_a_constant_chart_takes_one_lane(ref):
    m = get_entry(ref[0], **ref[1]).manifold
    assert m.reads == () and m.is_constant
    pts = m.grid_points(2)
    first, lane = m.lanes(pts)
    assert first.tolist() == [0] and not lane.any()
    frames = m.frame_stack(pts)
    curvatures = curv.statistical_curvatures(m, pts)
    assert len(frames.g) == len(curvatures.s) == 1
    assert_rows_are_one_point_passes(m, pts[:4], m.frame_stack(pts[:4]),
                                     curv.statistical_curvatures(m, pts[:4]))
