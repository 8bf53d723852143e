"""Lanes: a coordinate may be a (P,) array with one lane per sample point.
Every lane must give bit-identical results, sign bits included, to
evaluating its point on plain floats, and an input must fail on the lanes
exactly when it fails at one of its points."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acsgeo import curvature as curv
from acsgeo.expressions import Dual, ExpressionError, parse_expression
from acsgeo.metric import (MetricField, christoffel_jet, gamma_jet, inv_generic,
                           lane_count, riemann)
from acsgeo.specfile import manifold_from_dict

from conftest import poly3_metric

XYZ = ["x", "y", "z"]


def assert_same(lane_value, point_values):
    """A lane result (float or (P,) array) against the per-point results."""
    want = np.array(point_values, dtype=float)
    got = np.broadcast_to(np.asarray(lane_value, dtype=float), want.shape)
    assert np.array_equal(got, want, equal_nan=True)
    real = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[real]), np.signbit(want[real]))


def parts(x, depth):
    """The 2**depth components of a (nested) Dual; plain floats have zero
    tangents."""
    if depth == 0:
        return [x]
    val, dot = (x.val, x.dot) if isinstance(x, Dual) else (x, 0.0)
    return parts(val, depth - 1) + parts(dot, depth - 1)


def seeded(coords, depth, m=0, i=1):
    """Coordinates seeded for value (0), d_m (1) or d_i d_m (2) evaluation."""
    env = list(coords)
    for axis in (m, i)[:depth]:
        env = [Dual(c, 1.0 if n == axis else 0.0) for n, c in enumerate(env)]
    return env


# ---------------------------------------------------------------------------
# expression trees

_LEAVES = st.sampled_from(["x", "y", "z", "0.5", "2.0", "3", "0.0", "1e-3", "1e200"])


def _extend(sub):
    return st.one_of(
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        sub.map(lambda a: f"-({a})"),
        st.tuples(sub, st.integers(-3, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "log", "sqrt"]), sub)
        .map(lambda t: f"{t[0]}({t[1]})"),
    )


EXPRESSIONS = st.recursive(_LEAVES, _extend, max_leaves=10)
COORD = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0]),
                  st.floats(-3.0, 3.0, allow_nan=False))
POINTS = st.lists(st.tuples(COORD, COORD, COORD), min_size=2, max_size=7)


def _evaluate(field, env):
    try:
        return field.eval_scalar(env), None
    except ExpressionError as exc:
        return None, type(exc)


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS, POINTS, st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
def test_expression_lanes_match_points(text, points, depth, m, i):
    field = parse_expression(text, XYZ)
    per_point = [_evaluate(field, seeded(p, depth, m, i)) for p in points]
    lanes = [np.array(c) for c in zip(*points)]
    with np.errstate(all="ignore"):
        lane_out, lane_err = _evaluate(field, seeded(lanes, depth, m, i))
    errors = {err for _, err in per_point if err is not None}
    if errors:
        # the lanes stop at the first node where some lane fails; that
        # lane's point fails there too, with the same exception class
        assert lane_err in errors
        return
    assert lane_err is None
    got = parts(lane_out, depth)
    want = [parts(out, depth) for out, _ in per_point]
    for k, lane_value in enumerate(got):
        assert_same(lane_value, [w[k] for w in want])


def test_lane_domain_errors_name_a_failing_lane():
    field = parse_expression("log(x)", XYZ)
    with pytest.raises(ExpressionError, match="-0.5"):
        field.eval_scalar([np.array([1.0, -0.5, -1.0]), np.zeros(3), np.zeros(3)])


# ---------------------------------------------------------------------------
# inv_generic with per-lane pivots


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 5), st.integers(2, 9))
def test_inv_generic_lanes_pivot_per_lane(seed, n, lanes):
    rng = np.random.default_rng(seed)
    mats = []
    for p in range(lanes):
        chol = np.tril(rng.uniform(-1.0, 1.0, (n, n)))
        np.fill_diagonal(chol, rng.uniform(0.5, 1.5, n))
        # in column 0, lanes 1, 4, ... pivot on row 1, lanes 2, 5, ... on
        # another row, and lanes 0, 3, ... tie rows 0 and 1 exactly (the first
        # of equal magnitudes wins)
        scale = (chol[0, 0], 2.0, 0.25)[p % 3]
        chol[1, 0] = scale * rng.choice([-1.0, 1.0])
        mats.append(chol @ chol.T)
    a = np.array(mats)
    da = rng.uniform(-1.0, 1.0, a.shape)
    da = da + da.transpose(0, 2, 1)

    want = [inv_generic(mat.tolist()) for mat in a]
    got = inv_generic([[a[:, r, c] for c in range(n)] for r in range(n)])
    for r in range(n):
        for c in range(n):
            assert_same(got[r][c], [w[r][c] for w in want])

    want = [inv_generic([[Dual(mat[r, c], dmat[r, c]) for c in range(n)] for r in range(n)])
            for mat, dmat in zip(a, da)]
    got = inv_generic([[Dual(a[:, r, c], da[:, r, c]) for c in range(n)] for r in range(n)])
    for r in range(n):
        for c in range(n):
            for k in range(2):
                assert_same(parts(got[r][c], 1)[k], [parts(w[r][c], 1)[k] for w in want])


# ---------------------------------------------------------------------------
# jets, curvature and the grid pass


def lane_coords(points):
    pts = np.array(points)
    return [np.ascontiguousarray(pts[:, n]) for n in range(pts.shape[1])]


def grid(box, k):
    return [np.array(p) for p in itertools.product(*(np.linspace(lo, hi, k) for lo, hi in box))]


METRICS = {
    "poly3": poly3_metric(),
    # the constant 1 and the Dual x trade places in column 0 where |x| > 1,
    # so the lanes are evaluated in two groups
    "mixed_type_pivot": MetricField.from_lower_triangle(
        [["1"], ["x", "4"], ["0", "0", "1"]], XYZ),
    "mixed_pivot_transcendental": MetricField.from_lower_triangle(
        [["1.2 + 0.5*sin(x)"], ["x*exp(0.1*y)", "4 + cos(y) + log(2 + z^2)"],
         ["0.1*sqrt(2 + x)", "0.2*x*y", "3 + 0.1*z^2"]], XYZ),
}


@pytest.mark.parametrize("name", sorted(METRICS))
def test_christoffel_jet_and_riemann_lanes_match_points(name):
    g = METRICS[name]
    points = grid([(-1.5, 1.5), (-1.0, 1.0), (-1.0, 1.0)], 4)
    coords = lane_coords(points)
    assert lane_count(coords) == len(points)
    gamma, dgamma = christoffel_jet(g, coords)
    r = riemann(g, coords)
    for p, point in enumerate(points):
        want = christoffel_jet(g, point)
        assert_same(gamma[p], want[0])
        assert_same(dgamma[p], want[1])
        assert_same(r[p], riemann(g, point))


def test_constant_jet_lanes_are_broadcast_zeros():
    k, dk = gamma_jet(lambda c: [[[0.5] * 3] * 3] * 3, lane_coords(grid([(0, 1)] * 3, 2)),
                      3, constant=True)
    assert k.shape == (8, 3, 3, 3) and dk.shape == (8, 3, 3, 3, 3)
    assert dk.strides[0] == 0 and not dk.any()


F = "exp(0.1*((u + 3*v)^2 + v^2))"
PULLED_BACK = {
    "coordinates": ["u", "v", "w"], "grid": 4,
    "metric_lower": [[F], [f"3*{F}", f"10*{F}"], ["0", "0", "1"]],
    "phi": [["-3", "-10", "0"], ["1", "3", "0"], ["0", "0", "0"]],
    "xi": ["0", "0", "1"], "K": {},
}
LAMBDA_K = {
    "coordinates": ["x", "y", "z"], "grid": 3,
    "metric_lower": [["1 + 0.3*(x^2 + y^2)"], ["0", "1 + 0.3*(x^2 + y^2)"], ["0", "0", "1"]],
    "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
    "xi": ["0", "0", "1"], "K": {"z,z,z": "0.5 + 0.3*x*y"},
}


@pytest.mark.parametrize("spec", [PULLED_BACK, LAMBDA_K], ids=["pulled_back", "lambda_k"])
def test_grid_pass_matches_statistical_curvature(spec):
    m = manifold_from_dict(spec)
    pts = m.grid_points()
    curv.statistical_curvature_grid(m, pts)
    assert len(m._curvature_cache) == len(pts)
    single = manifold_from_dict(spec)
    for p in pts:
        for got, want in zip(curv.statistical_curvature(m, p),
                             curv.statistical_curvature(single, p)):
            assert_same(got, want)


def test_grid_pass_caches_nothing_on_error():
    spec = dict(LAMBDA_K, metric_lower=[["x + 1 + 0*log(0.5 - x)"], ["0", "1"],
                                        ["0", "0", "1"]])
    m = manifold_from_dict(spec)
    with pytest.raises(ExpressionError):
        curv.statistical_curvature_grid(m, m.grid_points())
    assert m._curvature_cache == {}


def test_cache_read_applies_the_cross_check():
    m = manifold_from_dict(LAMBDA_K)
    p = m.grid_points()[0]
    curv.statistical_curvature_grid(m, [p])
    key = tuple(float(x) for x in p)
    s, r0, kk, r, r_bar = m._curvature_cache[key]
    m._curvature_cache[key] = (s + 1.0, r0, kk, r, r_bar)
    with pytest.raises(curv.CrossCheckError):
        curv.statistical_curvature(m, p)
