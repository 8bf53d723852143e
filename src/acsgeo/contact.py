"""Validation of almost contact metric structures, phi-adapted orthonormal
frames, and the cosymplectic test."""

from __future__ import annotations

import numpy as np

from .manifold import ChartManifold, PointFrame
from .metric import covariant_derivative_11
from .report import AuditReport


class FrameError(Exception):
    pass


class DegenerateSeedError(FrameError):
    pass


class ExhaustedCandidatesError(FrameError):
    pass


def validate_structure(m: ChartManifold, point, tol: float = 1e-9) -> AuditReport:
    """Residuals of the almost contact metric axioms and their derived
    identities at one point.  Failures are report entries, never exceptions.
    """
    fr = m.frame_at(point)
    dim = fr.dim
    rep = AuditReport()
    p = fr.point

    eye = np.eye(dim)
    rep.add("phi_squared", p, np.max(np.abs(fr.phi @ fr.phi + eye
                                            - np.outer(fr.xi, fr.eta))), tol)
    rep.add("eta_of_xi", p, fr.eta @ fr.xi - 1.0, tol)
    rep.add("phi_of_xi", p, np.max(np.abs(fr.phi @ fr.xi)), tol)
    rep.add("eta_after_phi", p, np.max(np.abs(fr.eta @ fr.phi)), tol)

    # rank(phi) = 2n via the two-threshold singular value rule: exactly one
    # vanishing singular value
    sv = np.linalg.svd(fr.phi, compute_uv=False)
    rank_ok = sv[-1] < 1e-9 and sv[-2] > 1e-6
    rep.add("phi_rank", p, sv[-1], passed=rank_ok)

    # metric compatibility g(phi X, phi Y) = g(X,Y) - eta(X) eta(Y)
    rep.add("metric_compatibility", p,
            np.max(np.abs(fr.phi.T @ fr.g @ fr.phi - fr.g + np.outer(fr.eta, fr.eta))),
            tol)

    # derived metric identities
    rep.add("xi_unit", p, fr.inner(fr.xi, fr.xi) - 1.0, tol)
    rep.add("eta_is_g_xi", p, np.max(np.abs(fr.eta - fr.g @ fr.xi)),
            1e-12 if m.eta is not None else tol)
    gphi = fr.g @ fr.phi
    rep.add("phi_g_antisymmetric", p, np.max(np.abs(gphi + gphi.T)), tol)
    return rep


def phi_basis(m: ChartManifold, point, seed=None, frame: PointFrame = None) -> np.ndarray:
    """Orthonormal frame (e_1..e_n, phi e_1..phi e_n, xi) at a point, built by
    Gram-Schmidt adapted to phi.  Returns a (dim, 2n+1) array of columns.
    """
    fr = frame if frame is not None else m.frame_at(point)
    dim, n = fr.dim, (fr.dim - 1) // 2

    def project_out(v, span):
        for w in span:
            v = v - fr.inner(v, w) * w
        return v

    if seed is None:
        seed = np.eye(dim)[0]
    seed = np.asarray(seed, dtype=float)

    built = [fr.xi]
    pairs = []
    h = project_out(seed, built)
    if fr.norm(h) < 1e-10:
        raise DegenerateSeedError("seed has no component in ker(eta)")
    candidates = [h] + [np.eye(dim)[i] for i in range(dim)]
    for cand in candidates:
        if len(pairs) == n:
            break
        v = project_out(np.asarray(cand, dtype=float), built)
        nv = fr.norm(v)
        if nv < 1e-8:
            continue
        e = v / nv
        fe = fr.phi @ e
        built.extend([e, fe])
        pairs.append((e, fe))
    if len(pairs) < n:
        raise ExhaustedCandidatesError(
            "could not complete a phi-adapted frame; structure is degenerate")
    cols = [e for e, _ in pairs] + [fe for _, fe in pairs] + [fr.xi]
    return np.column_stack(cols)


def gram_residual(fr: PointFrame, basis: np.ndarray) -> float:
    return float(np.max(np.abs(basis.T @ fr.g @ basis - np.eye(basis.shape[1]))))


def nabla0_phi(m: ChartManifold, point) -> np.ndarray:
    """(nabla^0 phi)^j_{i,k} with the Levi-Civita connection, shape [i,j,k]."""
    fr = m.frame_at(point)
    return covariant_derivative_11(fr.gamma0, fr.phi, fr.dphi)


def is_cosymplectic(m: ChartManifold, points=None, tol: float = 1e-9):
    """True iff max |nabla^0 phi| over the sample points is within ``tol``.
    Returns (flag, max_residual)."""
    pts = points if points is not None else m.grid_points()
    worst = 0.0
    for p in pts:
        worst = max(worst, float(np.max(np.abs(nabla0_phi(m, p)))))
    return worst <= tol, worst
