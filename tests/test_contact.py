"""Almost contact metric structure validation, phi-adapted frames, and the
cosymplectic test."""

import numpy as np
import pytest

from acsgeo import AuditReport, MetricField, is_cosymplectic, phi_basis, validate_structure
from acsgeo.manifold import ChartManifold
from acsgeo.statistical import zero_difference_tensor

from conftest import sample_points


def gram_residual(g, basis):
    """max |B^T g B - I|: how far the columns of ``basis`` are from g-orthonormal."""
    return float(np.max(np.abs(basis.T @ g @ basis - np.eye(basis.shape[1]))))


@pytest.mark.parametrize("entry_fixture", ["flat3", "flat5", "r3", "warped"])
def test_structure_axioms_hold(entry_fixture, request):
    m = request.getfixturevalue(entry_fixture)
    for p in sample_points(m):
        rep = AuditReport.from_columns([p], validate_structure(m, m.frame_stack([p]), 1e-9))
        assert rep.all_passed, rep.to_table()


def test_derived_metric_identities(flat5):
    """phi xi = 0, eta after phi = 0, g(X, phi X) = 0 and
    g(phi^2 X, Y) = -g(phi X, phi Y) on all frame vectors."""
    from acsgeo.curvature import frame_vectors
    fr = flat5.frame_at(np.zeros(5))
    assert np.max(np.abs(fr.phi @ fr.xi)) < 1e-12
    assert np.max(np.abs(fr.eta @ fr.phi)) < 1e-12
    phi2 = fr.phi @ fr.phi
    for x in frame_vectors(5):
        assert abs(fr.inner(x, fr.phi @ x)) < 1e-9
        for y in frame_vectors(5):
            lhs = fr.inner(phi2 @ x, y)
            rhs = -fr.inner(fr.phi @ x, fr.phi @ y)
            assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("entry_fixture", ["flat3", "flat5", "warped"])
def test_phi_basis_orthonormal(entry_fixture, request):
    m = request.getfixturevalue(entry_fixture)
    n = m.n
    for p in sample_points(m, 3):
        fr = m.frame_at(p)
        fs = m.frame_stack([p])
        (basis,), errors = phi_basis(fs.g, fs.phi, fs.xi)
        assert errors == [None]
        assert basis.shape == (m.dim, m.dim)
        assert gram_residual(fr.g, basis) < 1e-9
        # columns n..2n-1 are phi of columns 0..n-1; last column is xi
        for i in range(n):
            assert np.max(np.abs(basis[:, n + i] - fr.phi @ basis[:, i])) < 1e-9
        assert np.max(np.abs(basis[:, -1] - fr.xi)) < 1e-12
        # all non-xi columns are horizontal
        for i in range(2 * n):
            assert abs(fr.eta @ basis[:, i]) < 1e-9


def test_broken_structure_is_reported_not_raised():
    """eta(xi) != 1 must surface as failing report records."""
    coords = ["x", "y", "z"]
    g = MetricField.from_lower_triangle([["1"], ["0", "1"], ["0", "0", "1"]],
                                        coords)
    phi = [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]]
    m = ChartManifold(coords, g, phi, ["0", "0", "2"],
                      zero_difference_tensor(coords))
    columns = validate_structure(m, m.frame_stack([np.zeros(3)]), 1e-9)
    failed = {c.check for c in columns if not c.passed[0]}
    assert "eta_of_xi" in failed


def test_z_warped_metric_is_not_cosymplectic():
    """Warping the horizontal metric along xi breaks nabla^0 phi = 0."""
    coords = ["x", "y", "z"]
    f = "1 + 0.25*(x^2 + y^2) + 0.5*z"
    g = MetricField.from_lower_triangle([[f], ["0", f], ["0", "0", "1"]],
                                        coords)
    phi = [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]]
    m = ChartManifold(coords, g, phi, ["0", "0", "1"],
                      zero_difference_tensor(coords))
    assert all(c.passed[0] for c in validate_structure(m, m.frame_stack([[0.3, 0.2, 0.4]]), 1e-9))
    flag, res = is_cosymplectic(m, sample_points(m, 4))
    assert not flag and res > 1e-6


@pytest.mark.parametrize("entry_fixture", ["flat3", "flat5", "r3", "warped"])
def test_cosymplectic_structures(entry_fixture, request):
    m = request.getfixturevalue(entry_fixture)
    flag, res = is_cosymplectic(m, sample_points(m, 4))
    assert flag and res < 1e-12
