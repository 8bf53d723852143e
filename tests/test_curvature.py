"""[K,K] bracket, phi-sectional K-curvature, statistical curvature, and the
executable theorem audits on the built-in structures."""

import math

import numpy as np
import pytest

from acsgeo import contact, curvature, get_entry
from acsgeo import (NotHorizontalError, PreconditionNotMetError,
                    geodesic_xi_check, kk_bracket, kk_tensor, lemma_5_6_check,
                    phi_compat_check, phi_sectional_k_curvature,
                    phi_sectional_triple, psi_check, statistical_curvature,
                    theorem_5_8_audit)
from acsgeo.contact import is_cosymplectic
from acsgeo.curvature import (audit_branch, curvature_like_symmetry_residuals,
                              is_phi_compatible, sweep_sections)

from conftest import sample_points

ORIGIN3 = np.zeros(3)


# ---------------------------------------------------------------------------
# the bracket


def test_kk_bracket_example(r3):
    """[K,K](dx, dy)dy = K(dx, K(dy,dy)) - K(dy, K(dx,dy)) = -dx."""
    k = r3.frame_at(ORIGIN3).K
    ex, ey = np.eye(3)[0], np.eye(3)[1]
    out = kk_bracket(k, ex, ey, ey)
    assert out == pytest.approx([-1.0, 0.0, 0.0], abs=1e-15)
    # and the tensor layout agrees with the pointwise bracket
    t = kk_tensor(k)
    assert np.max(np.abs(t[:, 1, 0, 1] - out)) < 1e-15


def test_kk_bracket_vanishes_for_trivial_k(flat3):
    k = flat3.frame_at(ORIGIN3).K
    assert np.max(np.abs(kk_tensor(k))) == 0.0


@pytest.mark.parametrize("entry_fixture", ["flat3", "flat5", "r3"])
def test_kk_symmetries(entry_fixture, request):
    m = request.getfixturevalue(entry_fixture)
    fr = m.frame_at(np.zeros(m.dim))
    res = curvature_like_symmetry_residuals(kk_tensor(fr.K), fr.g)
    for name, val in res.items():
        assert val < 1e-9, f"{name}: {val}"


# ---------------------------------------------------------------------------
# phi-sectional K-curvature


def test_r3_value_minus_one(r3):
    fr = r3.frame_at(ORIGIN3)
    v = phi_sectional_k_curvature(fr, [1.0, 0.0, 0.0])
    assert v.value == pytest.approx(-1.0, abs=1e-12)


def test_r3_value_general_section(r3):
    """X = 3 dx - 4 dy at (1,1,1): the closed form gives
    -2 * (1/2)(f1^2+f2^2)^2 / (f1^2+f2^2)^2 = -1 for any (f1, f2) != 0."""
    fr = r3.frame_at(np.ones(3))
    v = phi_sectional_k_curvature(fr, [3.0, -4.0, 0.0])
    assert v.value == pytest.approx(-1.0, abs=1e-12)
    # hand check of the ingredients
    x = np.array([3.0, -4.0, 0.0])
    kxx = fr.apply_k(x, x)
    f_sq = 25.0
    assert fr.inner(kxx, kxx) == pytest.approx(0.5 * f_sq ** 2, abs=1e-9)


def test_flat_value_zero(flat5):
    fr = flat5.frame_at(np.zeros(5))
    for x in sweep_sections(flat5, fr, rng=np.random.default_rng(0)):
        assert abs(phi_sectional_k_curvature(fr, x).value) < 1e-12


def test_section_scaling_invariance(r3):
    fr = r3.frame_at(ORIGIN3)
    x = np.array([1.0, 2.0, 0.0])
    base = phi_sectional_k_curvature(fr, x).value
    for c in (-3.0, 0.5, 7.0):
        assert phi_sectional_k_curvature(fr, c * x).value == \
            pytest.approx(base, abs=1e-9, rel=1e-9)
    # swapping X -> phi X selects the same section
    assert phi_sectional_k_curvature(fr, fr.phi @ x).value == \
        pytest.approx(base, abs=1e-9, rel=1e-9)


def test_non_horizontal_rejected(r3):
    fr = r3.frame_at(ORIGIN3)
    with pytest.raises(NotHorizontalError):
        phi_sectional_k_curvature(fr, fr.xi)
    with pytest.raises(NotHorizontalError):
        phi_sectional_k_curvature(fr, [1.0, 0.0, 0.5])


# ---------------------------------------------------------------------------
# statistical curvature


def test_r3_statistical_curvature_lowered(r3):
    """g(S(dx, dy)dy, dx) = -1 with flat R^0: S = [K,K]."""
    s, r0, kk, r, r_bar = statistical_curvature(r3, ORIGIN3)
    assert np.max(np.abs(r0)) == 0.0
    fr = r3.frame_at(ORIGIN3)
    ex, ey = np.eye(3)[0], np.eye(3)[1]
    from acsgeo.metric import apply_curvature
    val = fr.inner(apply_curvature(s, ex, ey, ey), ex)
    assert val == pytest.approx(-1.0, abs=1e-12)
    assert np.max(np.abs(s - r0 - kk)) < 1e-12


@pytest.mark.parametrize("entry_fixture", ["flat3", "r3", "warped"])
def test_conjugate_curvature_duality(entry_fixture, request):
    """g(R(X,Y)Z, W) = -g(R-bar(X,Y)W, Z) on all frame quadruples."""
    m = request.getfixturevalue(entry_fixture)
    for p in sample_points(m, 3):
        _, _, _, r, r_bar = statistical_curvature(m, p)
        fr = m.frame_at(p)
        low = np.einsum("am,mjkl->ajkl", fr.g, r)
        low_bar = np.einsum("am,mjkl->ajkl", fr.g, r_bar)
        assert np.max(np.abs(low + np.einsum("jakl->ajkl", low_bar))) < 1e-6


def test_triple_additivity(r3, flat3, warped):
    k_s, k_0, k_phi = phi_sectional_triple(r3, ORIGIN3, [1.0, 0.0, 0.0])
    assert (k_s, k_0, k_phi) == pytest.approx((-1.0, 0.0, -1.0), abs=1e-12)
    k_s, k_0, k_phi = phi_sectional_triple(flat3, ORIGIN3, [1.0, 0.0, 0.0])
    assert (k_s, k_0, k_phi) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
    # curved metric with K = 0: statistical and Riemannian values coincide
    p = np.array([0.4, 0.1, 0.0])
    k_s, k_0, k_phi = phi_sectional_triple(warped, p, [1.0, 0.0, 0.0])
    assert k_phi == 0.0
    assert k_s == pytest.approx(k_0, abs=1e-12)
    assert abs(k_0) > 1e-3   # genuinely curved section


# ---------------------------------------------------------------------------
# theorem audits


def test_audit_all_true_branch(flat3):
    rep = theorem_5_8_audit(flat3, sample_points(flat3, 4),
                            rng=np.random.default_rng(1))
    assert rep.all_passed
    assert not rep.flags
    assert audit_branch(rep) == "all-true"


def test_audit_all_false_branch(r3):
    rep = theorem_5_8_audit(r3, sample_points(r3, 4),
                            rng=np.random.default_rng(1))
    assert rep.all_passed          # unanimity holds, so the audit passes
    assert not rep.flags
    assert audit_branch(rep) == "all-false"


def test_audit_zero_k_all_true(warped):
    rep = theorem_5_8_audit(warped, sample_points(warped, 3))
    assert rep.all_passed and audit_branch(rep) == "all-true"
    # Corollary: all-true with lambda = 0 forces K = 0
    for r in rep.records:
        if r.check == "thm_5_8/lambda":
            assert r.value == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(warped.frame_at(np.zeros(3)).K)) == 0.0


@pytest.mark.parametrize("entry_fixture", ["flat3", "flat5", "r3", "warped"])
def test_lemma_5_6(entry_fixture, request):
    m = request.getfixturevalue(entry_fixture)
    for p in sample_points(m, 3):
        assert lemma_5_6_check(m, p) < 1e-9


def test_geodesic_pairs(flat3, flat5, r3, warped):
    for m, expected in ((flat3, (0.0, 1.0)), (flat5, (0.0, 1.0)),
                        (r3, (0.0, 0.0)), (warped, (0.0, 0.0))):
        for p in sample_points(m, 3):
            assert geodesic_xi_check(m, p) == pytest.approx(expected, abs=1e-9)


def test_phi_compatibility(flat3, flat5, r3, warped):
    for m, expected in ((flat3, True), (flat5, True), (r3, False),
                        (warped, True)):
        rep = phi_compat_check(m, sample_points(m, 3))
        assert not rep.flags      # the three formulations must agree
        assert is_phi_compatible(rep) is expected
        assert rep.all_passed


def test_psi_identities(flat3, flat5):
    for m in (flat3, flat5):
        for p in sample_points(m, 2):
            rep = psi_check(m, p)
            assert rep.all_passed, rep.to_table()


def test_psi_requires_compatibility(r3):
    with pytest.raises(PreconditionNotMetError):
        psi_check(r3, ORIGIN3)


def test_psi_zero_k(warped):
    """K = 0 on a cosymplectic structure: nabla g = 0 so Psi vanishes."""
    rep = psi_check(warped, np.array([0.3, -0.2, 0.5]))
    assert rep.all_passed
    assert rep.max_residual("psi/psi_zero") < 1e-12


def test_no_points_give_empty_reports(flat3):
    """An empty point list is no points, not one point of dimension 0."""
    for rep in (psi_check(flat3, []), psi_check(flat3, np.empty((0, 3))),
                theorem_5_8_audit(flat3, []), phi_compat_check(flat3, [])):
        assert rep.records == [] and not rep.flags and rep.all_passed
    lams, triples, keep = curvature.phi_sectional_triples(flat3, [])
    assert (lams.shape, triples.shape, keep.shape) == ((0,), (0, 0, 3), (0, 0))


def test_phi_compat_takes_nabla0_phi_once_per_point(flat3, monkeypatch):
    """phi_compat_check takes nabla^0 phi once per point, in one batched call
    over all its points, kept in the chart's store; the cosymplectic
    consequence reads the array formulation (c) built, and gives the
    residual is_cosymplectic gives."""
    calls = []
    orig = contact.covariant_derivative_11      # called in the nabla^0 phi pass only
    monkeypatch.setattr(contact, "covariant_derivative_11",
                        lambda *args: calls.append(args) or orig(*args))
    pts = flat3.grid_points(2)
    rep = phi_compat_check(flat3, pts)
    assert len(calls) == 1 and np.array_equal(flat3._kept_points, pts)
    assert rep.failures() == [] and is_phi_compatible(rep)
    consequences = [r.residual for r in rep.records
                    if r.check == "phi_compat/cosymplectic_consequence"]
    assert consequences == [is_cosymplectic(flat3, [p])[1] for p in pts]


# ---------------------------------------------------------------------------
# replay


def _failing_from(k, runs):
    """A batched run that draws one normal per point and fails at every point
    from ``k`` on; a batch names its last failing point, so only a run of
    one point names the point the per-point loop meets first."""
    def run(points, rng):
        runs.append(list(points))
        draws = rng.standard_normal(len(points))
        bad = [(p, d) for p, d in zip(points, draws) if p >= k]
        if bad:
            raise ValueError(f"point {bad[-1][0]} fails after drawing {bad[-1][1]}")
        return draws
    return run


@pytest.mark.parametrize("P, k", [(1, 0), (2, 0), (2, 1), (7, 3), (243, 0), (243, 162),
                                  (243, 242)])
def test_replay_bisects_to_the_per_point_error(P, k):
    runs = []
    run = _failing_from(k, runs)
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError) as loop:
        for p in range(P):
            run([p], rng)
    runs.clear()
    replay_rng = np.random.default_rng(3)
    with pytest.raises(ValueError) as replayed:
        curvature.replay(run, list(range(P)), replay_rng)
    assert str(replayed.value) == str(loop.value)
    # the rng ends where the loop left it, and the failing point runs alone once
    assert replay_rng.bit_generator.state == rng.bit_generator.state
    assert runs.count([k]) == 1 and len(runs) <= math.ceil(math.log2(P)) + 2


def test_replay_keeps_the_batch_error_when_no_point_fails_alone():
    runs = []

    def run(points, rng):
        runs.append(len(points))
        if len(points) > 1:
            raise ValueError(f"batch of {len(points)}")

    with pytest.raises(ValueError, match="^batch of 9$"):
        curvature.replay(run, list(range(9)), None)
    assert runs[-1] == 1 and len(runs) <= 2 * math.ceil(math.log2(9)) + 1


def test_flat_r0_is_one_broadcast_zero():
    """The kept R^0 of a constant metric holds no memory of its own."""
    m = get_entry("random", dim=7, seed=5, family="trivial-lambda").manifold
    pts = m.grid_points(3)
    r0 = curvature.statistical_curvatures(m, pts).r0
    assert r0.shape == (len(pts),) + (7,) * 4 and r0.strides == (0,) * 5 and not r0.any()
    r0 = curvature.statistical_curvature(m, pts[0])[1]
    assert r0.shape == (7,) * 4 and r0.strides == (0,) * 4 and not r0.any()


@pytest.mark.parametrize("name,params", [("example_flat_acs", {"n": 1}),
                                         ("random", {"dim": 5, "seed": 0,
                                                     "family": "trivial-lambda"})])
def test_no_points_sweep_to_empty_results(name, params):
    """The batched sweep runs on zero points, on a constant chart and on a
    varying one: each entry gives an empty result and draws nothing."""
    m = get_entry(name, **params).manifold
    assert m.is_constant == (name == "example_flat_acs")
    rng = np.random.default_rng(0)
    frames = m.frame_stack([])
    sweep, keep = curvature.phi_sweep(frames, rng)
    sweep = sweep.with_curvatures(frames.g, curvature.statistical_curvatures(m, []))
    sections = curvature.plain_sections(m.n) + 2
    assert keep.shape == sweep.k_s.shape == sweep.value.shape == (0, sections)
    compat, k_plain = curvature.phi_compat_audit(m, [], rng=rng)
    assert k_plain.shape == (0,)
    for rep in (theorem_5_8_audit(m, [], rng=rng), compat, psi_check(m, [])):
        assert not rep.checks and not rep.flags and rep.to_json_lines() == ""
    lams, triples, keep = curvature.phi_sectional_triples(m, [], rng=rng)
    assert (lams.shape, triples.shape, keep.shape) == ((0,), (0, 0, 3), (0, 0))
    assert is_cosymplectic(m, []) == (True, 0.0)
    assert rng.standard_normal() == np.random.default_rng(0).standard_normal()
