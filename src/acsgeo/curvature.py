"""Curvature of almost contact statistical structures: the [K,K] bracket,
phi-sectional K-curvature, the statistical curvature tensor, and executable
audits of the equivalence and compatibility theorems."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contact import is_cosymplectic, nabla0_phi, phi_basis
from .expressions import NonFiniteError
from .manifold import ChartManifold, PointFrame
from .metric import (christoffel_jet, covariant_derivative_11,
                     covariant_derivative_vector, field_first_derivatives,
                     gamma_jet, nabla_g, plane_q, riemann, riemann_from_jet,
                     sectional_curvature)
from .report import AuditReport
from .statistical import lambda_of


class CurvatureError(Exception):
    pass


class NotHorizontalError(CurvatureError):
    pass


class DegenerateSectionError(CurvatureError):
    pass


class CrossCheckError(CurvatureError):
    """Two independent evaluation paths of the same quantity disagree."""


class PreconditionNotMetError(CurvatureError):
    pass


# ---------------------------------------------------------------------------
# the [K,K] bracket


def kk_bracket(k: np.ndarray, x, y, z) -> np.ndarray:
    """[K,K](X,Y)Z = K(X, K(Y,Z)) - K(Y, K(X,Z)) as a vector."""
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    kz = k @ z
    return (k @ (kz @ y)) @ x - (k @ (kz @ x)) @ y


def kk_tensor(k: np.ndarray) -> np.ndarray:
    """[K,K] in the same R^i_jkl component layout as the curvature tensors:
    [K,K](e_k, e_l) e_j = T^i_jkl e_i."""
    return (np.einsum("ikm,mlj->ijkl", k, k)
            - np.einsum("ilm,mkj->ijkl", k, k))


def curvature_like_symmetry_residuals(t: np.ndarray, g: np.ndarray):
    """Residuals of the four curvature-like identities for a tensor in
    R^i_jkl layout: first-Bianchi cyclic sum, antisymmetry in the plane
    slots, lowered antisymmetry in the value slots, and pair exchange."""
    low = np.einsum("am,mjkl->ajkl", g, t)  # T_ajkl = g(T(e_k,e_l)e_j, e_a)
    cyc = (np.einsum("ijkl->ijkl", t)
           + np.einsum("iklj->ijkl", t)
           + np.einsum("iljk->ijkl", t))
    return {
        "first_bianchi": float(np.max(np.abs(cyc))),
        "plane_antisymmetry": float(np.max(np.abs(t + np.einsum("ijlk->ijkl", t)))),
        "value_antisymmetry": float(np.max(np.abs(low + np.einsum("jakl->ajkl", low)))),
        "pair_exchange": float(np.max(np.abs(low - np.einsum("klaj->ajkl", low)))),
    }


# ---------------------------------------------------------------------------
# phi-sectional K-curvature


@dataclass(frozen=True)
class PhiSectionalValue:
    value: float
    section: tuple
    point: tuple


def _check_horizontal(fr: PointFrame, x, tol=1e-9):
    x = np.asarray(x, dtype=float)
    if abs(fr.eta_of(x)) > tol:
        raise NotHorizontalError(f"eta(X) = {fr.eta_of(x)} beyond tolerance {tol}")
    if fr.norm(x) <= 1e-10:
        raise NotHorizontalError("X has negligible norm")
    return x


def phi_sectional_k_curvature(fr: PointFrame, x, cross_tol: float = 1e-9) -> PhiSectionalValue:
    """Definition-level quotient g([K,K](X, phi X) phi X, X) / Q(X, phi X),
    cross-checked against the closed form -2 ||K(X,X)||^2 / ||X||^4 computed
    on an independent path."""
    x = _check_horizontal(fr, x)
    px = fr.phi @ x
    q = plane_q(fr.g, x, px)
    if q <= 1e-12:
        raise DegenerateSectionError(f"Q(X, phi X) = {q} below threshold")
    value = fr.inner(kk_bracket(fr.K, x, px, px), x) / q

    kxx = fr.apply_k(x, x)
    closed = -2.0 * fr.inner(kxx, kxx) / fr.inner(x, x) ** 2
    scale = max(1.0, abs(value), abs(closed))
    if abs(value - closed) > cross_tol * scale:
        raise CrossCheckError(
            f"phi-sectional quotient {value} vs closed form {closed}")
    return PhiSectionalValue(value=float(value),
                             section=(tuple(x), tuple(px)),
                             point=tuple(fr.point))


def _statistical_parts(gamma0, dgamma0, k, dk, r0, kk):
    """(S, R^0, [K,K], R, R-bar) at one point from the jets of Gamma^0 and K:
    nabla = nabla^0 + K and nabla-bar = nabla^0 - K."""
    r = riemann_from_jet(gamma0 + k, dgamma0 + dk)
    r_bar = riemann_from_jet(gamma0 - k, dgamma0 - dk)
    return 0.5 * (r + r_bar), r0, kk, r, r_bar


def statistical_curvature(m: ChartManifold, point, prop_tol: float = 1e-6):
    """S = (R + R-bar)/2 from the two statistical connections, with the
    decomposition S = R^0 + [K,K] asserted as an internal cross-check.

    nabla = nabla^0 + K and nabla-bar = nabla^0 - K are formed from one jet
    of Gamma^0 and one of K; R^0 comes from its own ``riemann`` call.
    A point that ``statistical_curvature_grid`` cached is read from the
    cache (the cross-check is applied there too).
    Returns (S, R^0, [K,K], R, R-bar).
    """
    cache = m._curvature_cache
    key = tuple(float(x) for x in point)
    out = cache.get(key)
    if out is None:
        gamma0, dgamma0 = christoffel_jet(m.metric, point)
        k, dk = gamma_jet(m.difference.components, point, m.dim,
                          constant=m.difference.is_constant)
        out = _statistical_parts(gamma0, dgamma0, k, dk, riemann(m.metric, point),
                                 kk_tensor(m.frame_at(point).K))
    s, r0, kk = out[:3]
    res = float(np.max(np.abs(s - r0 - kk)))
    if res > prop_tol:
        raise CrossCheckError(f"S - R0 - [K,K] residual {res} at {list(point)}")
    if key not in cache and len(cache) < 4096:
        cache[key] = out
    return out


def statistical_curvature_grid(m: ChartManifold, points) -> None:
    """Fill the curvature cache of ``m`` for all ``points`` in one pass.

    The jets of Gamma^0 and K are taken once over all points, one lane per
    point (``gamma_jet`` on lane coordinates), and R^0 from one lane
    ``riemann`` call; R, R-bar, S and [K,K] follow point by point from
    views of those arrays.  Every value is bit-identical to
    ``statistical_curvature`` at the single point.  Raises the jets'
    errors, or NonFiniteError for a non-finite jet, and then caches nothing.
    """
    if len(points) == 0:
        return
    pts = np.array(points, dtype=float).reshape(len(points), m.dim)
    coords = [np.ascontiguousarray(pts[:, n]) for n in range(m.dim)]
    gamma0, dgamma0 = christoffel_jet(m.metric, coords)
    k, dk = gamma_jet(m.difference.components, coords, m.dim,
                      constant=m.difference.is_constant)
    for name, arr in (("Levi-Civita", gamma0), ("Levi-Civita derivative", dgamma0),
                      ("K", k), ("K derivative", dk)):
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"{name} jet is not finite on the grid")
    r0 = riemann(m.metric, coords)
    out = {tuple(p): _statistical_parts(gamma0[i], dgamma0[i], k[i], dk[i], r0[i],
                                        kk_tensor(k[i]))
           for i, p in enumerate(pts.tolist())}
    cache = m._curvature_cache
    for key, parts in out.items():
        if key not in cache and len(cache) < 4096:
            cache[key] = parts


def phi_sectional_triple(m: ChartManifold, point, x, sum_tol: float = 1e-6):
    """(statistical, Riemannian, K) sectional values on the phi-section of X,
    with the additivity K^S = K^0 + K asserted."""
    fr = m.frame_at(point)
    x = _check_horizontal(fr, x)
    px = fr.phi @ x
    s, r0, kk, _, _ = statistical_curvature(m, point)
    k_s = sectional_curvature(fr.g, s, x, px)
    k_0 = sectional_curvature(fr.g, r0, x, px)
    k_phi = phi_sectional_k_curvature(fr, x).value
    if abs(k_s - (k_0 + k_phi)) > sum_tol * max(1.0, abs(k_s)):
        raise CrossCheckError(
            f"sectional additivity fails: {k_s} vs {k_0} + {k_phi}")
    return k_s, k_0, k_phi


# ---------------------------------------------------------------------------
# quantifier discharge helpers


def frame_vectors(dim: int):
    """Coordinate frame plus all pairwise sums and differences: a
    polarization-complete test family for the bilinear identities."""
    eye = np.eye(dim)
    vecs = [eye[i] for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            vecs.append(eye[i] + eye[j])
            vecs.append(eye[i] - eye[j])
    return vecs


def horizontal_vectors(fr: PointFrame, min_norm: float = 1e-8):
    """Projections of the frame_vectors family onto ker(eta)."""
    out = []
    for v in frame_vectors(fr.dim):
        h = v - fr.eta_of(v) * fr.xi
        if fr.norm(h) > min_norm:
            out.append(h)
    return out


def sweep_sections(m: ChartManifold, fr: PointFrame, rng=None, extra: int = 2):
    """Horizontal section vectors for a phi-basis sweep at a point: the
    phi-basis legs e_1..e_n, their pairwise mixtures, and a few random
    horizontal combinations."""
    n = (fr.dim - 1) // 2
    basis = phi_basis(m, fr.point, frame=fr)
    legs = [basis[:, i] for i in range(n)]
    out = list(legs)
    for i in range(n):
        for j in range(i + 1, n):
            out.append(legs[i] + legs[j])
        out.append(legs[i] + basis[:, n + i])  # mix in phi e_i
    if rng is not None:
        for _ in range(extra):
            coef = rng.standard_normal(2 * n)
            v = basis[:, :2 * n] @ coef
            if fr.norm(v) > 1e-6:
                out.append(v)
    return out


def max_abs_k_phi(m: ChartManifold, fr: PointFrame, rng=None) -> float:
    """max |K_phi| over the sweep_sections of a point (0 when there are none)."""
    worst = 0.0
    for x in sweep_sections(m, fr, rng=rng):
        worst = max(worst, abs(phi_sectional_k_curvature(fr, x).value))
    return worst


# ---------------------------------------------------------------------------
# theorem audits


def theorem_5_8_audit(m: ChartManifold, points=None, tol: float = 1e-9,
                      rng=None) -> AuditReport:
    """Evaluate the nine equivalent vanishing conditions independently at
    every sample point and flag any disagreement (which would falsify the
    equivalence, i.e. signal an engine bug or inadmissible input)."""
    pts = points if points is not None else m.grid_points()
    rep = AuditReport()
    for p in pts:
        fr = m.frame_at(p)
        lam = lambda_of(m, p, tol=max(tol, 1e-6))
        rep.add("thm_5_8/lambda", p, 0.0, passed=True, value=lam)
        flags = {}

        worst = max_abs_k_phi(m, fr, rng=rng)
        flags["c1_kphi_zero"] = (worst, worst <= tol)

        s, r0, kk, _, _ = statistical_curvature(m, p)
        worst = 0.0
        for x in sweep_sections(m, fr, rng=None):
            px = fr.phi @ x
            worst = max(worst, abs(sectional_curvature(fr.g, s, x, px)
                                   - sectional_curvature(fr.g, r0, x, px)))
        flags["c2_statistical_equals_riemannian"] = (worst, worst <= tol)

        target = lam * np.einsum("i,j,k->ijk", fr.xi, fr.eta, fr.eta)
        res = float(np.max(np.abs(fr.K - target)))
        flags["c3_K_is_lambda_eta_eta_xi"] = (res, res <= tol)

        res = float(np.max(np.abs(kk)))
        flags["c4_kk_bracket_zero"] = (res, res <= tol)

        res = float(np.max(np.abs(s - r0)))
        flags["c5_S_equals_R0"] = (res, res <= tol)

        vecs = np.array(frame_vectors(fr.dim))
        horiz = np.array(horizontal_vectors(fr))
        kvv_h = np.einsum("ijk,aj,ak->ai", fr.K, horiz, horiz)
        res = float(np.max(np.abs(kvv_h))) if len(horiz) else 0.0
        flags["c6_K_XX_zero_horizontal"] = (res, res <= tol)

        phiv = vecs @ fr.phi.T
        res = float(np.max(np.abs(np.einsum("ijk,aj,ak->ai", fr.K, vecs, phiv))))
        flags["c7_K_X_phiX_zero"] = (res, res <= tol)

        kvv = np.einsum("ijk,aj,ak->ai", fr.K, vecs, vecs)
        res = float(np.max(np.abs(kvv @ fr.phi.T)))
        flags["c8_phi_K_XX_zero"] = (res, res <= tol)

        res = float(np.max(np.abs(kvv - np.outer(kvv @ fr.eta, fr.xi))))
        flags["c9_K_XX_parallel_xi"] = (res, res <= tol)

        booleans = []
        for name, (residual, ok) in flags.items():
            rep.add(f"thm_5_8/{name}", p, residual, passed=True, value=float(ok))
            booleans.append(ok)
        unanimous = len(set(booleans)) == 1
        rep.add("thm_5_8/unanimity", p, 0.0 if unanimous else 1.0, passed=unanimous)
        if not unanimous:
            rep.flag(f"EquivalenceViolation at {list(map(float, p))}: "
                     + ", ".join(f"{n}={ok}" for n, (_, ok) in flags.items()))
    return rep


def audit_branch(report: AuditReport) -> str:
    """'all-true', 'all-false' or 'mixed' summary of a theorem_5_8_audit."""
    vals = {bool(r.value) for r in report.records
            if r.check.startswith("thm_5_8/c")}
    if vals == {True}:
        return "all-true"
    if vals == {False}:
        return "all-false"
    return "mixed"


def lemma_5_6_check(m: ChartManifold, point) -> float:
    """Max residual of (nabla^0_X phi)Y = (nabla_X phi)Y + 2 phi K(X,Y) over
    all frame pairs."""
    fr = m.frame_at(point)
    d0 = nabla0_phi(m, point)
    d1 = covariant_derivative_11(fr.gamma0 + fr.K, m.phi, point)
    phi_k = np.einsum("im,mak->aik", fr.phi, fr.K)
    return float(np.max(np.abs(d0 - d1 - 2.0 * phi_k)))


def geodesic_xi_check(m: ChartManifold, point):
    """(||nabla^0_xi xi||, ||nabla_xi xi||) at a point."""
    fr = m.frame_at(point)
    dxi = covariant_derivative_vector(fr.gamma0, m.xi, point)  # [i, j]
    v0 = np.einsum("ij,i->j", dxi, fr.xi)
    v1 = v0 + fr.apply_k(fr.xi, fr.xi)
    return fr.norm(v0), fr.norm(v1)


def phi_compat_check(m: ChartManifold, points=None, tol: float = 1e-9,
                     rng=None) -> AuditReport:
    """phi-compatibility of the statistical connection, decided by three
    independent formulations that must agree; when compatible, the forced
    consequences (cosymplectic, vanishing phi-sectional K-curvature, and
    xi-parallel covariant derivatives of xi) are asserted as well."""
    pts = points if points is not None else m.grid_points()
    rep = AuditReport()
    compatible_everywhere = True
    for p in pts:
        fr = m.frame_at(p)
        gamma = fr.gamma0 + fr.K

        # (a) nabla phi = 0 componentwise
        d_phi = covariant_derivative_11(gamma, m.phi, p)
        res_a = float(np.max(np.abs(d_phi)))

        # (b) nabla_X (phi Y) = phi nabla_X Y on coordinate fields, computed
        # without forming the covariant derivative of phi
        dim = fr.dim
        dphi_raw = np.array(field_first_derivatives(m.phi, [float(x) for x in p], dim),
                            dtype=float)
        lhs = dphi_raw + np.einsum("iam,mk->aik", gamma, fr.phi)
        rhs = np.einsum("im,mak->aik", fr.phi, gamma)
        res_b = float(np.max(np.abs(lhs - rhs)))

        # (c) (nabla^0_X phi)Y = 2 phi K(X,Y)
        d0_phi = nabla0_phi(m, p)
        phi_k = np.einsum("im,mak->aik", fr.phi, fr.K)
        res_c = float(np.max(np.abs(d0_phi - 2.0 * phi_k)))

        oks = [res <= tol for res in (res_a, res_b, res_c)]
        for name, res in (("nabla_phi_zero", res_a),
                          ("nabla_commutes_with_phi", res_b),
                          ("nabla0_phi_is_2phiK", res_c)):
            rep.add(f"phi_compat/{name}", p, res, passed=True,
                    value=float(res <= tol))
        if len(set(oks)) != 1:
            rep.flag(f"phi-compatibility formulations disagree at {list(map(float, p))}")
        compatible = all(oks)
        rep.add("phi_compat/compatible", p, min(res_a, res_b, res_c),
                passed=True, value=float(compatible))
        compatible_everywhere = compatible_everywhere and compatible

        if compatible:
            # Theorem 6.8 consequences
            _, cos_res = is_cosymplectic(m, [p], tol)
            rep.add("phi_compat/cosymplectic_consequence", p, cos_res, tol)
            rep.add("phi_compat/kphi_zero_consequence", p,
                    max_abs_k_phi(m, fr, rng=rng), tol)
            # nabla_X xi and nabla^0_X xi parallel to xi
            dxi0 = covariant_derivative_vector(fr.gamma0, m.xi, p)
            dxi1 = dxi0 + np.einsum("ijm,m->ji", fr.K, fr.xi)
            for name, dxi in (("nabla0_xi_parallel", dxi0),
                              ("nabla_xi_parallel", dxi1)):
                horiz = dxi - np.outer(dxi @ fr.eta, fr.xi)
                rep.add(f"phi_compat/{name}", p, float(np.max(np.abs(horiz))), tol)
    return rep


def is_phi_compatible(report: AuditReport) -> bool:
    return all(bool(r.value) for r in report.records
               if r.check == "phi_compat/compatible")


def psi_check(m: ChartManifold, point, tol: float = 1e-9,
              compat_report: AuditReport = None) -> AuditReport:
    """The 2-form family Psi_X(Y,Z) = (nabla_X g)(Y, phi Z) and its identities
    under phi-compatibility.  Raises PreconditionNotMetError when the
    structure is not phi-compatible at the point."""
    if compat_report is None:
        compat_report = phi_compat_check(m, [point], tol=max(tol, 1e-9))
    if not is_phi_compatible(compat_report):
        raise PreconditionNotMetError("structure is not phi-compatible")

    fr = m.frame_at(point)
    ng = nabla_g(fr.gamma0 + fr.K, m.metric, point)          # (nabla_X g)_xyz
    psi = np.einsum("xym,mz->xyz", ng, fr.phi)               # Psi_X(Y, Z)
    rep = AuditReport()
    p = fr.point

    rep.add("psi/antisymmetry_YZ", p,
            np.max(np.abs(psi + np.einsum("xzy->xyz", psi))), tol)
    # Psi_X(Y,Z) = 2 g(phi K(Y,Z), X)
    phi_k = np.einsum("im,mjk->ijk", fr.phi, fr.K)
    target = 2.0 * np.einsum("x i, iyz -> xyz", fr.g, phi_k)
    rep.add("psi/equals_2g_phiK", p, np.max(np.abs(psi - target)), tol)
    # slot symmetries
    rep.add("psi/slot_symmetry_XY", p,
            np.max(np.abs(psi - np.einsum("yxz->xyz", psi))), tol)
    rep.add("psi/slot_symmetry_XZ", p,
            np.max(np.abs(psi - np.einsum("zyx->xyz", psi))), tol)
    # phi-slot rules
    psi_phiY = np.einsum("xmz,my->xyz", psi, fr.phi)
    psi_phiZ = np.einsum("xym,mz->xyz", psi, fr.phi)
    rep.add("psi/phi_slot_flip", p, np.max(np.abs(psi_phiY + psi_phiZ)), tol)
    psi_phi_both = np.einsum("xmn,my,nz->xyz", psi, fr.phi, fr.phi)
    rep.add("psi/phi_slot_double", p, np.max(np.abs(psi_phi_both - psi)), tol)
    # Propositions 6.6/6.7: under phi-compatibility both Psi and the
    # phi-sectional K-curvature vanish
    rep.add("psi/psi_zero", p, np.max(np.abs(psi)), tol)
    rep.add("psi/kphi_zero", p, max_abs_k_phi(m, fr), tol)
    return rep
