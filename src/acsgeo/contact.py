"""Validation of almost contact metric structures, phi-adapted orthonormal
frames, and the cosymplectic test."""

from __future__ import annotations

import numpy as np

from .manifold import ChartManifold, FrameStack
from .metric import contract, covariant_derivative_11, inner, norms, outer
from .report import Column, max_abs, within


class FrameError(Exception):
    pass


class DegenerateSeedError(FrameError):
    pass


class ExhaustedCandidatesError(FrameError):
    pass


@np.errstate(all="ignore")
def validate_structure(m: ChartManifold, fs: FrameStack, tol: float):
    """The almost contact metric axioms and their derived identities at the
    lanes of ``fs``, one column each; a residual that is not finite fails.
    Failures are report entries, never exceptions."""
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


def phi_basis(g, phi, xi):
    """The orthonormal frames (e_1..e_n, phi e_1..phi e_n, xi) at P points,
    built by Gram-Schmidt adapted to phi, from stacked g, phi (P, dim, dim)
    and xi (P, dim): the bases as a (P, dim, 2n+1) array of columns, and
    per point None or the FrameError met there.

    The seed of a point is its first coordinate vector with a component in
    ker(eta); the coordinate vectors follow.  The Gram-Schmidt runs on all
    points in lockstep with the float operations of one point; a point that
    skips a candidate, or has all its pairs, keeps its vectors through
    ``np.where``, so every basis is bit-identical to a stack of that point
    alone.
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


@np.errstate(all="ignore")
def nabla0_phi(m: ChartManifold, pts) -> np.ndarray:
    """nabla^0 phi with the Levi-Civita connection at the lanes of the frame
    pass of ``pts``, (L, dim, dim, dim) indexed [lane, i, j, k]: the part of
    the chart's store (``ChartManifold.kept``) that its checks read."""
    fs = m.frame_stack(pts)
    return covariant_derivative_11(fs.gamma0, fs.phi, fs.dphi)


def is_cosymplectic(m: ChartManifold, points, tol: float = 1e-9):
    """True iff max |nabla^0 phi| over ``points`` is within ``tol``
    (a point where it is NaN does not count), from the chart's kept nabla^0
    phi of the points.  A frame pass that fails raises the error of its
    first failing point (``manifold.lane_pass``).  Returns (flag,
    max_residual)."""
    worst = float(np.fmax.reduce(max_abs(m.kept(nabla0_phi, points)), initial=0.0))
    return worst <= tol, worst
