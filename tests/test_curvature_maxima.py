"""The curvature pass keeps S and R0 and three maxima per lane: max |S - R0 -
[K,K]| (Proposition 5.2), max |[K,K]| (Theorem 5.8 c4) and the conjugate
duality of R and R-bar in the lane's metric.  Each maximum must be, bit
for bit, what the readers of the five tensors computed: their formulas on
the tensors ``statistical_curvature`` gives at the lane's first point, in
the metric of that point's frame.  The kept stack holds one curvature
stack, not four."""

import tracemalloc

import numpy as np
import pytest

from acsgeo import cli, get_entry
from acsgeo import curvature as curv
from acsgeo.expressions import NonFiniteError
from acsgeo.report import max_abs
from acsgeo.specfile import manifold_from_dict

from decision_corpus import SPECS

ZOO = {f"{family}:dim={dim}": ("random", {"dim": dim, "seed": 0, "family": family})
       for family in ("trivial-lambda", "planar-block", "mixed") for dim in (3, 5, 7)}
ZOO.update({"example_r3_negative": ("example_r3_negative", {}),
            "example_flat_acs:n=2": ("example_flat_acs", {"n": 2})})
CORPUS = ["warped", "warped_connection_table", "pulled_mixed3", "pulled_planar5",
          "pulled_warped", "poly3"]


def chart(name):
    if name in ZOO:
        return get_entry(ZOO[name][0], **ZOO[name][1]).manifold
    return manifold_from_dict(SPECS[name])


def readers(m, p):
    """(cross, max |[K,K]|, duality) at ``p`` as the readers of the five
    kept tensors computed them: on one-lane stacks of the tensors of
    ``statistical_curvature`` and of the metric of the point's frame."""
    s, r0, kk, r, r_bar = (t[None] for t in curv.statistical_curvature(m, p))
    g = m.frame_at(p).g[None]
    low = np.einsum("...am,...mjkl->...ajkl", g, r)
    low_bar = np.einsum("...am,...mjkl->...ajkl", g, r_bar)
    return (max_abs(s - r0 - kk)[0], max_abs(kk)[0],
            max_abs(low + np.einsum("...jakl->...ajkl", low_bar))[0])


def assert_lane(stack, lane, want):
    got = (stack.cross[lane], stack.kk_max[lane], stack.duality[lane])
    assert np.array(got).tobytes() == np.array(want).tobytes(), (got, want)


@pytest.mark.parametrize("name", list(ZOO) + CORPUS)
def test_grid_maxima_are_the_readers_bits(name):
    m, alone = chart(name), chart(name)
    pts = m.grid_points()
    stack = curv.statistical_curvatures(m, pts)
    first = m.frame_stack(pts).lane_points
    assert stack.cross.shape == stack.kk_max.shape == stack.duality.shape == (len(first),)
    for lane, p in enumerate(first):
        assert_lane(stack, lane, readers(alone, p))


def test_the_charts_exercise_every_maximum():
    """Some chart above has a non-zero residual of each kind, so the bit
    comparisons compare more than zeros."""
    seen = np.zeros(3)
    for name in list(ZOO) + CORPUS:
        m = chart(name)
        stack = curv.statistical_curvatures(m, m.grid_points())
        seen = np.maximum(seen, [stack.cross.max(), stack.kk_max.max(), stack.duality.max()])
    assert (seen > 0.0).all()


@pytest.mark.parametrize("name", ["poly3", "warped", "trivial-lambda:dim=7"])
def test_one_point_after_a_grid_pass_reads_its_own_frame(name):
    """After the grid's frame pass, the curvature of one grid point is a
    pass over that point alone, whose frame is a row of the grid's; after
    the grid's curvature pass it is a row of the kept stack."""
    m, alone = chart(name), chart(name)
    pts = m.grid_points()
    m.frame_stack(pts)
    for i in (len(pts) - 1, len(pts) // 2):
        stack = curv.statistical_curvatures(m, [pts[i]])
        assert curv._curvature_parts not in m._kept_parts
        assert_lane(stack, 0, readers(alone, pts[i]))
    curv.statistical_curvatures(m, pts)
    for i in (len(pts) - 1, len(pts) // 2):
        assert_lane(curv.statistical_curvatures(m, [pts[i]]), 0, readers(alone, pts[i]))


def test_a_prefix_rerun_reads_its_own_frames():
    """poly3 (27 lanes, a duality residual that varies with the metric)
    whose K^z_zz overflows the curvature at x = 1: the grid's pass fails,
    its lanes run alone, and ``replay`` reruns the 18 points before the
    first failing one, a pass over them whose frames are rows of the
    grid's."""
    spec = dict(SPECS["poly3"], K={"z,z,z": "0.5 + 0.3*x*y + 1e-10*exp(709*x)"})
    m, alone = manifold_from_dict(spec), manifold_from_dict(spec)
    pts = m.grid_points()
    with pytest.raises(NonFiniteError, match=r" at \[1\.0, -1\.0, -1\.0\]$"):
        cli.pointwise_checks(m, pts, 1e-9, {"prop_5_2"})
    key, parts = m._subset
    assert key == pts[:18].tobytes()
    stack = parts[curv._curvature_parts]
    first = m.frame_stack(pts[:18]).lane_points
    assert len(first) == 18 and len(np.unique(stack.duality)) > 2
    for lane, p in enumerate(first):
        assert_lane(stack, lane, readers(alone, p))


def test_the_kept_stack_holds_one_curvature_stack():
    """The 243 lanes of a dim-7 trivial-lambda chart at grid 3: the kept
    stack holds S, a broadcast zero R0 and three (243,) maxima, and the
    pass, after the frame pass, peaks below 3.5 curvature stacks."""
    m = get_entry("random", dim=7, seed=0, family="trivial-lambda").manifold
    pts = m.grid_points(3)
    m.frame_stack(pts)
    one = 243 * 7 ** 4 * 8     # bytes of one (243, 7, 7, 7, 7) float64 stack
    tracemalloc.start()
    try:
        stack = curv.statistical_curvatures(m, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(stack.s) == 243 and stack.r0.strides[0] == 0
    held = sum(a.nbytes for a in stack[1:-1] if a.strides[0])
    assert held <= one + 3 * 243 * 8
    assert peak <= 3.5 * one
