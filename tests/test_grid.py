"""The sample grid: ``ChartManifold.grid_points`` against the list-building
grid it replaced, bit for bit, and a ``--grid`` too large to hold as axes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from acsgeo.manifold import GRID_CAP, ChartManifold
from acsgeo.zoo import example_flat_acs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def ref_grid_points(box, k):
    """The grid as the axes of ``np.linspace`` read point by point: one
    array per point, the product order capped at GRID_CAP evenly spaced
    positions."""
    dim = len(box)
    axes = {}       # one linspace per interval, told apart by bits (-0.0 is not 0.0)
    for lo, hi in box:
        key = np.array([lo, hi]).tobytes()
        if key not in axes:
            axes[key] = np.linspace(lo, hi, k)
    axes = [axes[np.array([lo, hi]).tobytes()] for lo, hi in box]
    total = k ** dim
    picks = range(total) if total <= GRID_CAP else \
        [i * (total - 1) // (GRID_CAP - 1) for i in range(GRID_CAP)]
    return [np.array([axis[q // k ** (dim - 1 - n) % k] for n, axis in enumerate(axes)])
            for q in picks]


def chart(dim, box):
    m = example_flat_acs((dim - 1) // 2).manifold
    return ChartManifold(m.coords, m.metric, m.phi, m.xi, m.difference, box=box)


BOXES = {
    "unit": lambda dim: [(-1.0, 1.0)] * dim,
    "shifted": lambda dim: [(0.1 * n - 0.3, 2.7 + 0.5 * n) for n in range(dim)],
    "reversed": lambda dim: [(1.0, -1.0)] * dim,
    "degenerate": lambda dim: [(2.5, 2.5)] + [(-1.0, 1.0)] * (dim - 1),
    "signed_zeros": lambda dim: [(-0.0, 0.0), (0.0, -0.0)] + [(-3.0, -0.0)] * (dim - 2),
    "denormal_step": lambda dim: ([(0.0, 5e-324), (-5e-324, 5e-324)]
                                  + [(1e-308, 3e-308)] * (dim - 2)),
}


def assert_bits(got, ref, dim):
    ref = np.array(ref, dtype=float).reshape(len(ref), dim)
    assert isinstance(got, np.ndarray) and got.dtype == float
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()       # sign bits of zeros included


@pytest.mark.parametrize("dim", [3, 5, 7])
@pytest.mark.parametrize("k", [1, 2, 3, 7, 1000, 10 ** 6])
@pytest.mark.parametrize("box", list(BOXES))
def test_grid_matches_linspace_axes(dim, k, box):
    interval = BOXES[box](dim)
    assert_bits(chart(dim, interval).grid_points(k), ref_grid_points(interval, k), dim)


def test_grid_positions_stay_exact_beyond_int64():
    # (2^21 + 1)^3 > 2^63: the positions of the capped grid are Python integers
    k = 2 ** 21 + 1
    assert k ** 3 > 2 ** 63
    for box in (BOXES["unit"](3), BOXES["shifted"](3)):
        pts = chart(3, box).grid_points(k)
        assert_bits(pts, ref_grid_points(box, k), 3)
        assert pts.shape == (GRID_CAP, 3) and len(np.unique(pts, axis=0)) == GRID_CAP
        assert pts[0].tolist() == [lo for lo, _ in box]
        assert pts[-1].tolist() == [hi for _, hi in box]


def test_grid_defaults_and_empty_counts():
    m = chart(3, BOXES["shifted"](3))
    assert_bits(m.grid_points(), ref_grid_points(m.box, m.grid), 3)
    assert m.grid_points(0).shape == (0, 3)
    with pytest.raises(ValueError):
        m.grid_points(-1)


@pytest.mark.parametrize("verb", ["validate", "audit"])
def test_huge_grid_runs_on_capped_points(verb):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "acsgeo.cli", verb, "zoo:example_flat_acs",
                           "--grid", "1000000000000", "--format", "json"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    points = {tuple(json.loads(line).get("point", ())) for line in proc.stdout.splitlines()}
    assert len(points - {()}) == GRID_CAP
