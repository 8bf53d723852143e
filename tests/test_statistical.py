"""Difference tensors, statistical/ACS validation, lambda extraction, the
conjugate connection, and the pointwise K-identities on validated structures."""

import numpy as np
import pytest

from acsgeo import (AcsViolatedError, AuditReport, MetricField, lambda_of, manifold_from_dict,
                    validate_acs, validate_statistical)
from acsgeo.curvature import frame_vectors
from acsgeo.manifold import ChartManifold
from acsgeo.statistical import (ExplicitDifferenceTensor, conjugate_connections,
                                cubic_form, total_symmetry_residual)

from conftest import inadmissible_k_manifold, sample_points


def apply_k(fr, x, y):
    """The vector K(X, Y) = K^i_jk X^j Y^k at a frame."""
    return (fr.K @ np.asarray(y)) @ np.asarray(x)


@pytest.mark.parametrize("entry_fixture", ["flat3", "flat5", "r3", "warped"])
def test_statistical_validation(entry_fixture, request):
    m = request.getfixturevalue(entry_fixture)
    for p in sample_points(m):
        rep = AuditReport.from_columns([p], validate_statistical(m.frame_stack([p]), 1e-9))
        assert rep.all_passed, rep.to_table()


@pytest.mark.parametrize("entry_fixture", ["flat3", "flat5", "r3", "warped"])
def test_acs_validation(entry_fixture, request):
    m = request.getfixturevalue(entry_fixture)
    for p in sample_points(m):
        rep = AuditReport.from_columns([p], validate_acs(m.frame_stack([p]), 1e-9))
        assert rep.all_passed, rep.to_table()


def test_connection_table_normalization(r3):
    """The flat-metric connection table turns into K with
    K(dx, dx) = -1/2 dx + 1/2 dy and the other listed values."""
    k = r3.frame_at(np.zeros(3)).K
    assert k[:, 0, 0] == pytest.approx([-0.5, 0.5, 0.0], abs=1e-15)
    assert k[:, 0, 1] == pytest.approx([0.5, 0.5, 0.0], abs=1e-15)
    assert k[:, 1, 0] == pytest.approx([0.5, 0.5, 0.0], abs=1e-15)
    assert k[:, 1, 1] == pytest.approx([0.5, -0.5, 0.0], abs=1e-15)
    assert np.max(np.abs(k[:, 2, :])) == 0.0
    assert np.max(np.abs(k[:, :, 2])) == 0.0


def test_torsion_fails_k_lower_symmetry():
    """A connection table with torsion builds; its asymmetric lower index
    pair shows in K and fails K_lower_symmetry at every grid point."""
    m = manifold_from_dict({
        "coordinates": ["x", "y", "z"],
        "metric_lower": [["1"], ["0", "1"], ["0", "0", "1"]],
        "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
        "xi": ["0", "0", "1"], "connection": {"x,x,y": "1"}})
    for p in m.grid_points():
        col, = [c for c in validate_statistical(m.frame_stack([p]), 1e-9)
                if c.check == "K_lower_symmetry"]
        assert col.residual[0] == 1.0 and not col.passed[0]


def test_cubic_form_symmetry(r3):
    fr = r3.frame_at(np.zeros(3))
    c = cubic_form(fr.g, fr.K)
    assert total_symmetry_residual(c) < 1e-15
    # the skewed tensor is caught
    bad = c.copy()
    bad[0, 1, 2] += 1.0
    assert total_symmetry_residual(bad) > 0.5


def test_lambda_values(flat3, flat5, r3):
    for m, lam in ((flat3, 1.0), (flat5, 1.0), (r3, 0.0)):
        for p in sample_points(m, 3):
            assert lambda_of(m.frame_stack([p]), 1e-9)[0] == pytest.approx(lam, abs=1e-12)


def test_lambda_rejects_inadmissible_k():
    m = inadmissible_k_manifold()
    with pytest.raises(AcsViolatedError):
        lambda_of(m.frame_stack([np.zeros(3)]), 1e-9)


def test_inadmissible_k_fails_acs_validation():
    m = inadmissible_k_manifold()
    assert not all(c.passed.all() for c in validate_acs(m.frame_stack([np.zeros(3)]), 1e-9))


@pytest.mark.parametrize("entry_fixture", ["flat3", "r3", "warped"])
def test_conjugate_connection_duality(entry_fixture, request):
    m = request.getfixturevalue(entry_fixture)
    for p in sample_points(m, 3):
        gamma_bar, res = conjugate_connections(m.frame_stack([p]), 1e-9)
        assert res[0] < 1e-9
        fr = m.frame_at(p)
        assert np.max(np.abs(gamma_bar[0] - (fr.gamma0 - fr.K))) < 1e-12


# ---------------------------------------------------------------------------
# pointwise K-identities forced by the ACS condition


@pytest.mark.parametrize("entry_fixture", ["flat3", "flat5", "r3"])
def test_k_identities_on_frames(entry_fixture, request):
    """On a validated structure: K(phi X, xi) = 0 and
    K(phi^2 X, Y) = K(X, phi^2 Y) = K(phi X, phi Y) = phi^2 K(X, Y)."""
    m = request.getfixturevalue(entry_fixture)
    fr = m.frame_at(np.zeros(m.dim))
    phi2 = fr.phi @ fr.phi
    for x in frame_vectors(m.dim):
        assert np.max(np.abs(apply_k(fr, fr.phi @ x, fr.xi))) < 1e-9
        for y in frame_vectors(m.dim):
            a = apply_k(fr, phi2 @ x, y)
            b = apply_k(fr, x, phi2 @ y)
            c = apply_k(fr, fr.phi @ x, fr.phi @ y)
            d = phi2 @ apply_k(fr, x, y)
            for other in (b, c, d):
                assert np.max(np.abs(a - other)) < 1e-9


@pytest.mark.parametrize("entry_fixture", ["flat3", "r3"])
def test_k_vertical_equivalences(entry_fixture, request):
    """phi K(X,Y) = 0 iff K(X,Y) is parallel to xi, and
    K(X, phi Y) = 0 iff phi K(X,Y) = 0, as agreeing booleans per pair."""
    m = request.getfixturevalue(entry_fixture)
    fr = m.frame_at(np.zeros(m.dim))
    for x in frame_vectors(m.dim):
        for y in frame_vectors(m.dim):
            kxy = apply_k(fr, x, y)
            phi_k_zero = np.max(np.abs(fr.phi @ kxy)) < 1e-9
            parallel = np.max(np.abs(kxy - (fr.eta @ kxy) * fr.xi)) < 1e-9
            k_phi_zero = np.max(np.abs(apply_k(fr, x, fr.phi @ y))) < 1e-9
            assert phi_k_zero == parallel
            assert k_phi_zero == phi_k_zero


def test_k_polarization():
    """If K(X,X) vanishes on all frame vectors and their pairwise sums and
    differences, then K vanishes identically."""
    coords = ["x", "y", "z"]
    g = MetricField.from_lower_triangle([["1"], ["0", "1"], ["0", "0", "1"]],
                                        coords)
    phi = [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]]
    k = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    k[0][1][2] = k[0][2][1] = "1"   # off-diagonal only: K(X,X) misses it on
    k[1][0][2] = k[1][2][0] = "-1"  # pure coordinate vectors...
    m = ChartManifold(coords, g, phi, ["0", "0", "1"],
                      ExplicitDifferenceTensor(k, coords))
    fr = m.frame_at(np.zeros(3))
    # ...but not on the polarization family
    worst = max(float(np.max(np.abs(apply_k(fr, v, v))))
                for v in frame_vectors(3))
    assert worst > 0.5
    diag_only = max(float(np.max(np.abs(apply_k(fr, e, e))))
                    for e in np.eye(3))
    assert diag_only == 0.0


def test_total_symmetry_residual_propagates_nan():
    t = np.zeros((3, 3, 3))
    t[0, 1, 2] = np.nan
    assert np.isnan(total_symmetry_residual(t))
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = rng.standard_normal((4, 4, 4))
        loop = max(float(np.max(np.abs(t - np.transpose(t, perm))))
                   for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)))
        assert total_symmetry_residual(t) == loop
