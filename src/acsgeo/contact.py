"""Validation of almost contact metric structures, phi-adapted orthonormal
frames, and the cosymplectic test."""

from __future__ import annotations

import numpy as np

from .manifold import ChartManifold, FrameStack, PointFrame
from .metric import contract, covariant_derivative_11, inner, norms, outer
from .report import AuditReport, Column, max_abs, within


class FrameError(Exception):
    pass


class DegenerateSeedError(FrameError):
    pass


class ExhaustedCandidatesError(FrameError):
    pass


@np.errstate(all="ignore")
def structure_columns(m: ChartManifold, fs: FrameStack, tol: float):
    """The almost contact metric axioms and their derived identities at the
    points of ``fs``, one column each; a residual that is not finite fails."""
    gphi = fs.g @ fs.phi
    sv = np.linalg.svd(fs.phi, compute_uv=False)
    return [
        within("phi_squared", max_abs(fs.phi @ fs.phi + np.eye(fs.phi.shape[-1])
                                      - outer(fs.xi, fs.eta)), tol),
        within("eta_of_xi", (fs.eta[:, None] @ fs.xi[..., None])[:, 0, 0] - 1.0, tol),
        within("phi_of_xi", max_abs(contract(fs.phi, fs.xi)), tol),
        within("eta_after_phi", max_abs(fs.eta[:, None] @ fs.phi), tol),
        # rank(phi) = 2n via the two-threshold singular value rule: exactly
        # one vanishing singular value
        Column("phi_rank", sv[:, -1], (sv[:, -1] < 1e-9) & (sv[:, -2] > 1e-6)),
        # metric compatibility g(phi X, phi Y) = g(X,Y) - eta(X) eta(Y)
        within("metric_compatibility", max_abs(np.swapaxes(fs.phi, 1, 2) @ fs.g @ fs.phi
                                               - fs.g + outer(fs.eta, fs.eta)), tol),
        # derived metric identities
        within("xi_unit", inner(fs.g, fs.xi, fs.xi) - 1.0, tol),
        within("eta_is_g_xi", max_abs(fs.eta - contract(fs.g, fs.xi)),
               1e-12 if m.eta is not None else tol),
        within("phi_g_antisymmetric", max_abs(gphi + np.swapaxes(gphi, 1, 2)), tol),
    ]


def validate_structure(m: ChartManifold, point, tol: float = 1e-9) -> AuditReport:
    """Residuals of the almost contact metric axioms and their derived
    identities at one point.  Failures are report entries, never exceptions.
    """
    fs = m.frame_stack([point])
    return AuditReport.from_columns(fs.point, structure_columns(m, fs, tol))


def phi_bases(g, phi, xi):
    """phi_basis at P points at once, from stacked g, phi (P, dim, dim) and
    xi (P, dim): the bases as a (P, dim, 2n+1) array, and per point None or
    the FrameError that phi_basis raises there.

    The seed of a point is its first coordinate vector with a component in
    ker(eta).  The Gram-Schmidt runs on all points in lockstep with the
    float operations of one point; a point that skips a candidate, or has
    all its pairs, keeps its vectors through ``np.where``, so every basis is
    bit-identical to phi_basis at its point.
    """
    P, dim = xi.shape
    n = (dim - 1) // 2
    eye = np.eye(dim)
    with np.errstate(all="ignore"):
        hs = eye - inner(g[:, None], eye, xi[:, None])[..., None] * xi[:, None]
        usable = ~(norms(g[:, None], hs) < 1e-10)
        h = hs[np.arange(P), np.argmax(usable, axis=1)]
        degenerate = ~usable.any(axis=1)

        built = np.zeros((P, dim, dim))     # rows xi, e_1, phi e_1, e_2, ...
        built[:, 0] = xi
        pairs = np.zeros(P, dtype=int)
        for cand in [h] + [np.broadcast_to(e, (P, dim)) for e in eye]:
            active = pairs < n
            if not active.any():
                break
            v = cand
            for slot in range(1 + 2 * pairs.max()):     # project out what it built
                w = built[:, slot]
                v = np.where((slot < 1 + 2 * pairs)[:, None],
                             v - inner(g, v, w)[:, None] * w, v)
            nv = norms(g, v)
            take = np.flatnonzero(active & ~(nv < 1e-8))
            e = v[take] / nv[take, None]
            built[take, 1 + 2 * pairs[take]] = e
            built[take, 2 + 2 * pairs[take]] = contract(phi[take], e)
            pairs[take] += 1

    basis = np.empty((P, dim, 2 * n + 1))
    basis[:, :, :n] = built[:, 1::2].transpose(0, 2, 1)
    basis[:, :, n:2 * n] = built[:, 2::2].transpose(0, 2, 1)
    basis[:, :, 2 * n] = xi
    errors = [DegenerateSeedError("no coordinate vector has a component in ker(eta)")
              if degenerate[i] else
              ExhaustedCandidatesError(
                  "could not complete a phi-adapted frame; structure is degenerate")
              if pairs[i] < n else None
              for i in range(P)]
    return basis, errors


def phi_basis(m: ChartManifold, point, frame: PointFrame = None) -> np.ndarray:
    """Orthonormal frame (e_1..e_n, phi e_1..phi e_n, xi) at a point, built by
    Gram-Schmidt adapted to phi from the first coordinate vector with a
    component in ker(eta) and then the coordinate vectors.  Returns a
    (dim, 2n+1) array of columns; a one-point ``phi_bases``.
    """
    fr = frame if frame is not None else m.frame_at(point)
    basis, errors = phi_bases(fr.g[None], fr.phi[None], fr.xi[None])
    if errors[0] is not None:
        raise errors[0]
    return basis[0]


@np.errstate(all="ignore")
def nabla0_phi_pass(m: ChartManifold, pts) -> np.ndarray:
    """nabla^0 phi with the Levi-Civita connection at the lanes of the frame
    pass of ``pts``, (L, dim, dim, dim) indexed [lane, i, j, k]: the part of
    the chart's store (``ChartManifold.kept``) that its checks read."""
    fs = m.frame_stack(pts)
    return covariant_derivative_11(fs.gamma0, fs.phi, fs.dphi)


def nabla0_phi(m: ChartManifold, point) -> np.ndarray:
    """(nabla^0 phi)^j_{i,k} with the Levi-Civita connection, shape [i,j,k]."""
    return m.kept(nabla0_phi_pass, [point])[0]


def is_cosymplectic(m: ChartManifold, points=None, tol: float = 1e-9):
    """True iff max |nabla^0 phi| over the sample points is within ``tol``
    (a point where it is NaN does not count), from the chart's kept nabla^0
    phi of the points.  A frame pass over several points that fails raises
    the pass's error; a caller that must name the first failing point runs
    it under ``curvature.replay``.  Returns (flag, max_residual)."""
    pts = points if points is not None else m.grid_points()
    worst = float(np.fmax.reduce(max_abs(m.kept(nabla0_phi_pass, pts)), initial=0.0))
    return worst <= tol, worst
