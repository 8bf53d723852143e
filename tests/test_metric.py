"""Riemannian machinery against independent oracles: the round sphere with
closed-form Christoffel symbols and unit sectional curvature, a curved
polynomial metric family, and the curvature identity suite."""

import math

import numpy as np
import pytest

from acsgeo import (DegeneratePlaneError, MetricField, SingularMetricError,
                    christoffel, nabla_g, riemann, sectional_curvature)
from acsgeo.curvature import curvature_like_symmetry_residuals
from acsgeo.metric import (FieldArray, _as_fields, covariant_derivative_vector,
                           field_first_derivatives, plane_q, pow2)

from conftest import (POLY3_COORDS, fd_riemann, poly3_metric, sphere_metric,
                      sphere_metric_at)

P_SPHERE = np.array([np.pi / 3, 0.0])


def test_sphere_christoffel_closed_form():
    gam = christoffel(sphere_metric(), P_SPHERE)
    th = np.pi / 3
    assert gam[0, 1, 1] == pytest.approx(-np.sin(th) * np.cos(th), abs=1e-12)
    assert gam[1, 0, 1] == pytest.approx(np.cos(th) / np.sin(th), abs=1e-12)
    assert gam[1, 1, 0] == pytest.approx(np.cos(th) / np.sin(th), abs=1e-12)
    assert gam[0, 0, 0] == pytest.approx(0.0, abs=1e-12)


def test_sphere_sectional_curvature_is_one():
    g = sphere_metric()
    r = riemann(g, P_SPHERE)
    k = sectional_curvature(g.array_at(P_SPHERE), r, [1.0, 0.0], [0.0, 1.0])
    assert k == pytest.approx(1.0, abs=1e-9)


def test_sphere_against_finite_difference_oracle():
    """The dual-number curvature must agree with a pure finite-difference
    pipeline that never touches the Dual class."""
    r_engine = riemann(sphere_metric(), P_SPHERE)
    r_oracle = fd_riemann(sphere_metric_at, P_SPHERE, 2, h=1e-4)
    assert np.max(np.abs(r_engine - r_oracle)) < 1e-6


POLY_POINTS = [np.array(p) for p in
               ([0.0, 0.0, 0.0], [0.5, -0.3, 0.8], [-0.9, 0.7, -0.2],
                [1.0, 1.0, 1.0], [-0.4, -0.6, 0.1])]


@pytest.mark.parametrize("point", POLY_POINTS)
def test_levi_civita_metricity(point):
    g = poly3_metric()
    gam = christoffel(g, point)
    assert np.max(np.abs(nabla_g(gam, g.array_at(point), g.derivatives_at(point)))) < 1e-9


@pytest.mark.parametrize("point", POLY_POINTS)
def test_riemann_symmetries_polynomial_metric(point):
    g = poly3_metric()
    r = riemann(g, point)
    res = curvature_like_symmetry_residuals(r, g.array_at(point))
    for name, val in res.items():
        assert val < 1e-9, f"{name} residual {val} at {point}"


def test_poly_metric_against_fd_oracle():
    g = poly3_metric()
    fields = g.components

    def metric_at(p):
        return np.array([[f(list(p)) for f in row] for row in fields])

    p = np.array([0.4, -0.2, 0.6])
    r_engine = riemann(g, p)
    r_oracle = fd_riemann(metric_at, p, 3, h=1e-4)
    assert np.max(np.abs(r_engine - r_oracle)) < 1e-6


def test_sectional_curvature_basis_invariance():
    """The sectional value depends only on the plane: replacing (X, Y) by
    another basis of the same span leaves it unchanged."""
    g = poly3_metric()
    p = np.array([0.3, 0.2, -0.5])
    garr = g.array_at(p)
    r = riemann(g, p)
    x = np.array([1.0, 0.2, 0.0])
    y = np.array([0.0, 1.0, -0.3])
    k0 = sectional_curvature(garr, r, x, y)
    for a, b, c, d in [(2.0, 0.0, 1.0, 1.0), (1.0, -1.0, 0.5, 3.0),
                       (-3.0, 2.0, 0.0, 0.25)]:
        if abs(a * d - b * c) < 1e-6:
            continue
        k1 = sectional_curvature(garr, r, a * x + b * y, c * x + d * y)
        assert k1 == pytest.approx(k0, abs=1e-9, rel=1e-9)


def test_flat_metric_curvature_vanishes():
    coords = ["x", "y", "z"]
    g = MetricField.from_lower_triangle([["1"], ["0", "2"], ["0", "0", "1"]],
                                        coords)
    assert np.max(np.abs(riemann(g, [0.1, 0.2, 0.3]))) == 0.0


def test_singular_metric_rejected():
    coords = ["x", "y"]
    # det g = x^2 - x^2 = 0 everywhere, but the field is not constant so the
    # inversion path actually runs
    g = MetricField.from_lower_triangle([["x^2"], ["x", "1"]], coords)
    with pytest.raises(SingularMetricError):
        christoffel(g, [1.0, 0.5])


def test_degenerate_plane_rejected():
    g = np.eye(2)
    r = np.zeros((2, 2, 2, 2))
    with pytest.raises(DegeneratePlaneError):
        sectional_curvature(g, r, [1.0, 0.0], [2.0, 0.0])
    assert plane_q(g, np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 4.0


@pytest.mark.parametrize("scale", [1.4e154, 1e160, 1e300])
def test_plane_q_of_an_overflowing_square_is_not_finite(scale):
    """g(X, Y) above 1.4e154 squares past the largest float: Q(X, Y) is
    inf - inf = nan, alone and stacked, as numpy's square would give,
    where Python's ``** 2`` raises OverflowError."""
    g = np.eye(2)
    x, y = np.array([scale, 0.0]), np.array([1.0, 1.0])
    with np.errstate(all="ignore"):
        assert np.isnan(plane_q(g, x, y))
        q = plane_q(g, np.array([x, [1.0, 0.0]]), np.array([y, [0.0, 2.0]]))
    assert np.isnan(q[0]) and q[1] == 4.0
    assert pow2(np.array([scale, -scale, 3.0])).tolist() == [math.inf, math.inf, 9.0]


def test_covariant_derivative_of_coordinate_field():
    """nabla_i of a constant vector field is Gamma^j_im v^m."""
    g = poly3_metric()
    p = np.array([0.2, -0.1, 0.4])
    gam = christoffel(g, p)
    from acsgeo import parse_expression
    v_fields = [parse_expression(s, POLY3_COORDS) for s in ("1", "0", "0")]
    dv = covariant_derivative_vector(gam, np.array([f(p) for f in v_fields]),
                                     field_first_derivatives(v_fields, p))
    assert np.max(np.abs(dv - gam[:, :, 0].T)) < 1e-12


@pytest.mark.parametrize("rows", [
    [["x", "y", "1"], ["0", "1"], ["1", "0", "0", "1"]],    # 9 entries, as a 3x3 holds
    [["x", "y"], ["0", "1", "1"]],
    [["x", "y"], "1"],
    [["x", ["y"]], ["0", "1"]]], ids=["ragged_nine", "ragged", "shallow", "deep"])
def test_a_ragged_field_array_is_refused(rows):
    """A nested array whose rows at some depth differ from its first row's
    lengths, or whose entries are not all ScalarFields, is a ValueError when
    it is built, never read in another layout."""
    with pytest.raises(ValueError, match="field array of shape"):
        FieldArray(_as_fields(rows, ["x", "y", "z"]))
