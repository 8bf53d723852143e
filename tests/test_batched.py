"""The batched per-point checks against the per-point loops they replaced.

Each check used to run point by point on one ``PointFrame``; the
formulas below are those loops, kept as the reference.  A batched
einsum or matmul may sum in another order than a single point's, so the
residuals and values agree to 1e-12, absolute or relative."""

import itertools

import numpy as np
import pytest

from acsgeo import cli, curvature
from acsgeo.curvature import frame_vectors, horizontal_projections
from acsgeo.manifold import FrameStack
from acsgeo.specfile import manifold_from_dict
from acsgeo.zoo import get_entry

from decision_corpus import SPECS

TOL = 1e-9


def _max(a):
    return float(np.max(np.abs(a)))


def _sym(t):
    return max(_max(t - np.transpose(t, p)) for p in itertools.permutations(range(3)))


def _nabla_g(gamma, g, dg):
    return dg - np.einsum("mij,mk->ijk", gamma, g) - np.einsum("mik,jm->ijk", gamma, g)


def _cov11(gamma, phi, dphi):
    return dphi + np.einsum("jim,mk->ijk", gamma, phi) - np.einsum("mik,jm->ijk", gamma, phi)


def reference(m, fr):
    """{check: residual (the value of lambda and of the geodesic norms)} at
    one point, from the per-point loops."""
    g, phi, xi, eta, k = fr.g, fr.phi, fr.xi, fr.eta, fr.K
    gphi = g @ phi
    sv = np.linalg.svd(phi, compute_uv=False)
    c = np.einsum("im,mjk->ijk", g, k)
    ng, ng_bar = _nabla_g(fr.gamma0 + k, g, fr.dg), _nabla_g(fr.gamma0 - k, g, fr.dg)
    k_phi = np.einsum("ijm,mk->ijk", k, phi)
    phi_k = np.einsum("im,mjk->ijk", phi, k)
    d0 = _cov11(fr.gamma0, phi, fr.dphi)
    phi_k2 = np.einsum("im,mak->aik", phi, k)
    dxi0 = fr.dxi + np.einsum("jim,m->ij", fr.gamma0, xi)
    v0 = np.einsum("ij,i->j", dxi0, xi)
    v1 = v0 + (k @ xi) @ xi
    lhs = np.einsum("mz,mxy->xyz", g, fr.gamma0 + k) + np.einsum("ym,mxz->xyz", g, fr.gamma0 - k)
    out = {
        "phi_squared": _max(phi @ phi + np.eye(len(xi)) - np.outer(xi, eta)),
        "eta_of_xi": eta @ xi - 1.0, "phi_of_xi": _max(phi @ xi),
        "eta_after_phi": _max(eta @ phi), "phi_rank": sv[-1],
        "metric_compatibility": _max(phi.T @ g @ phi - g + np.outer(eta, eta)),
        "xi_unit": xi @ g @ xi - 1.0, "eta_is_g_xi": _max(eta - g @ xi),
        "phi_g_antisymmetric": _max(gphi + gphi.T),
        "K_lower_symmetry": _max(k - np.swapaxes(k, 1, 2)), "cubic_form_symmetry": _sym(c),
        "nabla_g_symmetry": _sym(ng), "nabla_g_cross_identity": _max(ng + 2.0 * c),
        "conjugate_nabla_g_symmetry": _sym(ng_bar),
        "acs_defining_condition": _max(k_phi + phi_k),
        "acs_swap_condition": _max(k_phi - np.einsum("imk,mj->ijk", k, phi)),
        "lemma_5_6": _max(d0 - _cov11(fr.gamma0 + k, phi, fr.dphi) - 2.0 * phi_k2),
        "geodesic/nabla0_xi_xi": np.sqrt(max(v0 @ g @ v0, 0.0)),
        "geodesic/nabla_xi_xi": np.sqrt(max(v1 @ g @ v1, 0.0)),
        "connection_duality": _max(lhs - fr.dg),
        "phi_compat/nabla_phi_zero": _max(_cov11(fr.gamma0 + k, phi, fr.dphi)),
        "phi_compat/nabla_commutes_with_phi": _max(
            fr.dphi + np.einsum("iam,mk->aik", fr.gamma0 + k, phi)
            - np.einsum("im,mak->aik", phi, fr.gamma0 + k)),
        "phi_compat/nabla0_phi_is_2phiK": _max(d0 - 2.0 * phi_k2),
    }
    lam = ((k @ xi) @ xi) @ g @ xi
    vecs = np.array(frame_vectors(len(xi)))
    kvv = np.einsum("ijk,aj,ak->ai", k, vecs, vecs)
    horiz, keep = horizontal_projections(FrameStack.of([fr]))
    h = horiz[0][keep[0]]
    out.update({
        "thm_5_8/lambda": lam,
        "thm_5_8/c3_K_is_lambda_eta_eta_xi": _max(k - lam * np.einsum("i,j,k->ijk", xi, eta, eta)),
        "thm_5_8/c6_K_XX_zero_horizontal": _max(np.einsum("ijk,aj,ak->ai", k, h, h)) if len(h) else 0.0,
        "thm_5_8/c7_K_X_phiX_zero": _max(np.einsum("ijk,aj,ak->ai", k, vecs, vecs @ phi.T)),
        "thm_5_8/c8_phi_K_XX_zero": _max(kvv @ phi.T),
        "thm_5_8/c9_K_XX_parallel_xi": _max(kvv - np.outer(kvv @ eta, xi)),
    })
    s, r0, kk, r, r_bar = curvature.statistical_curvature(m, fr.point)
    low, low_bar = (np.einsum("am,mjkl->ajkl", g, t) for t in (r, r_bar))
    out.update({"prop_5_2": _max(s - r0 - kk),
                "conjugate_duality": _max(low + np.einsum("jakl->ajkl", low_bar)),
                "thm_5_8/c4_kk_bracket_zero": _max(kk), "thm_5_8/c5_S_equals_R0": _max(s - r0)})
    psi = np.einsum("xym,mz->xyz", _nabla_g(fr.gamma0 + k, g, fr.dg), phi)
    out.update({
        "psi/antisymmetry_YZ": _max(psi + np.einsum("xzy->xyz", psi)),
        "psi/equals_2g_phiK": _max(psi - 2.0 * np.einsum("xi,iyz->xyz", g, phi_k)),
        "psi/slot_symmetry_XY": _max(psi - np.einsum("yxz->xyz", psi)),
        "psi/slot_symmetry_XZ": _max(psi - np.einsum("zyx->xyz", psi)),
        "psi/phi_slot_flip": _max(np.einsum("xmz,my->xyz", psi, phi)
                                  + np.einsum("xym,mz->xyz", psi, phi)),
        "psi/phi_slot_double": _max(np.einsum("xmn,my,nz->xyz", psi, phi, phi) - psi),
        "psi/psi_zero": _max(psi)})
    return out


CHARTS = ["warped_connection", "exp_frame", "pulled_mixed3", "pulled_planar5",
          "pulled_warped", "pulled_back_warped", "zoo:random:dim=7,seed=4,family=mixed"]


@pytest.mark.parametrize("name", CHARTS)
def test_batched_checks_match_the_per_point_loops(name):
    m = get_entry("random", dim=7, seed=4, family="mixed").manifold if name.startswith("zoo:") \
        else manifold_from_dict(SPECS[name])
    pts = m.grid_points(2)
    rep = cli.audit_report(m, pts, TOL, {"structure", "statistical", "acs", "lemma_5_6",
                                         "geodesic", "prop_5_2", "duality"})
    rep.extend(curvature.theorem_5_8_audit(m, pts, tol=TOL, rng=np.random.default_rng(0)))
    rep.extend(curvature.phi_compat_check(m, pts, tol=TOL))
    rep.extend(curvature._psi(m, pts, TOL))
    got = {}
    for check, point, residual, value in zip(rep.checks, rep.points, rep.residuals, rep.values):
        got[check, point] = value if check.endswith(("/lambda", "_xi_xi")) else residual
    for p in pts:
        for check, want in reference(m, m.frame_at(p)).items():
            assert got[check, np.asarray(p, dtype=float).tobytes()] == \
                pytest.approx(want, rel=1e-12, abs=1e-12), check
