"""Curvature of almost contact statistical structures: the [K,K] bracket,
phi-sectional K-curvature, the statistical curvature tensor, and executable
audits of the equivalence and compatibility theorems.

The statistical curvature of some points is one lane pass, a part of the
chart's store (``ChartManifold.kept``).  The sweeps over sections (phi-basis
legs, their mixtures and random horizontal combinations) are one
``section_sweep`` per audit over the stacked frames of its points; the
per-point functions (``phi_sectional_k_curvature``, ...) are one-point calls
of that kernel.

An audit takes each of its steps for all points at once and raises at the
first failure; ``replay`` then runs it again one point at a time, so the
error it reports is the one a per-point loop meets first."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .contact import nabla0_phi_pass, phi_bases, phi_basis
from .expressions import NonFiniteError
from .manifold import ChartManifold, FrameStack, PointFrame, lane_pass, lane_rows
from .metric import (DegeneratePlaneError, apply_curvature, at_points,
                     christoffel_jet, contract, covariant_derivative_11,
                     covariant_derivative_vector, first_slot, inner, nabla_g, norms, outer,
                     per_16_lanes, plane_q, point_lanes, pow2, riemann)
from .report import AuditReport, Column, max_abs, raise_first, within
from .statistical import lambdas

log = logging.getLogger(__name__)


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
    """[K,K](X,Y)Z = K(X, K(Y,Z)) - K(Y, K(X,Z)) as a vector, for one triple
    of vectors or stacked (..., dim) vectors, whose leading axes broadcast
    against those of ``k`` (see ``metric.contract``)."""
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    kz = contract(k, z)
    return contract(contract(k, contract(kz, y)), x) - contract(contract(k, contract(kz, x)), y)


def kk_tensor(k: np.ndarray) -> np.ndarray:
    """[K,K] in the same R^i_jkl component layout as the curvature tensors:
    [K,K](e_k, e_l) e_j = T^i_jkl e_i (any leading axes): K^i_km K^m_lj less
    its k <-> l swap, taken as a view."""
    t = np.einsum("...ikm,...mlj->...ijkl", k, k)
    return t - t.swapaxes(-1, -2)


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
# phi-sectional K-curvature: the section-sweep kernel


@dataclass(frozen=True)
class PhiSectionalValue:
    value: float
    section: tuple
    point: tuple


# the status of a (point, section) pair: the first check it fails, in the
# order phi_sectional_k_curvature runs them
OK, NOT_HORIZONTAL, NEGLIGIBLE, DEGENERATE, NON_FINITE, MISMATCH = range(6)
HORIZONTAL_TOL = 1e-9


@dataclass(frozen=True)
class SectionSweep:
    """The results of ``section_sweep``, one entry per (point, section) pair:
    the sections ``x`` and ``px`` = phi X, (P, S, dim), and (P, S) arrays of
    eta(X), Q(X, phi X), the K_phi quotient ``value``, its closed form
    ``closed`` and the ``status``.  ``k_s`` and ``k_0``, the S and R^0
    sectional curvatures of span{X, phi X}, are None until
    ``with_curvatures`` adds them from ``blocks``, the (X, phi X) of each
    section block with the strides of its vectors, and ``lane``, the lane
    of each point in the frames the sweep read (None: one per point)."""

    point: np.ndarray
    x: np.ndarray
    px: np.ndarray
    eta: np.ndarray
    q: np.ndarray
    value: np.ndarray
    closed: np.ndarray
    k_s: Optional[np.ndarray]
    k_0: Optional[np.ndarray]
    status: np.ndarray
    blocks: list
    lane: Optional[np.ndarray] = None

    def error(self, i, j, plane: bool = False) -> Optional[Exception]:
        """The error phi_sectional_k_curvature raises for pair (i, j), or
        None.  With ``plane`` a degenerate section is the
        DegeneratePlaneError of ``sectional_curvature``, which callers of
        the sectional curvatures meet first."""
        code = self.status[i, j]
        if code == NOT_HORIZONTAL:
            return NotHorizontalError(
                f"eta(X) = {float(self.eta[i, j])} beyond tolerance {HORIZONTAL_TOL}")
        if code == NEGLIGIBLE:
            return NotHorizontalError("X has negligible norm")
        if code == DEGENERATE:
            q = float(self.q[i, j])
            return (DegeneratePlaneError(f"Q(X,Y) = {q} below threshold") if plane
                    else DegenerateSectionError(f"Q(X, phi X) = {q} below threshold"))
        if code == NON_FINITE:
            return NonFiniteError("phi-sectional curvature is not finite at "
                                  f"{list(map(float, self.point[i]))}")
        if code == MISMATCH:
            return CrossCheckError(f"phi-sectional quotient {float(self.value[i, j])} "
                                   f"vs closed form {float(self.closed[i, j])}")
        return None

    def with_curvatures(self, g, curvatures) -> "SectionSweep":
        """The sweep with ``k_s`` and ``k_0`` from the metrics ``g`` and the
        ``CurvatureStack`` of its points' lanes: the numerators
        g(R(X, phi X) phi X, X) of each block 16 rows at a time
        (``per_16_lanes``) with its sections as a batch axis, so a block of
        one row per lane (the plain sections) is evaluated once per lane and
        a block of one row per point (the random sections) reads the lane
        of each of its rows, over the sweep's own Q(X, phi X), the
        ``plane_q`` of ``sectional_values`` on the same operands; a pair
        that is OK or MISMATCH becomes NON_FINITE where one of them is not
        finite."""
        def numerator(r, g, x, px):
            return inner(g[:, None], x, apply_curvature(r[:, None], x, px, px))
        points, lane = len(self.point), self.lane
        with np.errstate(all="ignore"):
            k_s, k_0 = (_points_concat(points, lane, [
                per_16_lanes(numerator, r, g, x, px, lane=lane if len(x) == points else None)
                for x, px in self.blocks]) / self.q for r in (curvatures.s, curvatures.r0))
        status = np.where(np.isin(self.status, (OK, MISMATCH))
                          & ~(np.isfinite(k_s) & np.isfinite(k_0)), NON_FINITE, self.status)
        return replace(self, k_s=k_s, k_0=k_0, status=status)


def section_sweep(frames: FrameStack, sections) -> SectionSweep:
    """phi-sectional K-curvature g([K,K](X, phi X) phi X, X) / Q(X, phi X)
    and its closed form -2 ||K(X,X)||^2 / ||X||^4 on an independent path,
    for every section X of every point of ``frames``.

    ``sections`` is a list of section blocks, joined along the section
    axis: a block of one row per lane of the stack (or of one row, shared
    by all P points) is evaluated once per lane, and a block of P rows
    reads the fields of each row's lane.  Each pair gets the operand
    shapes of one vector (see ``metric.inner``), so every value is
    bit-identical to the per-point functions, and a block keeps the
    strides of its vectors: the legs of a phi-basis are strided columns,
    which BLAS may sum in another order than contiguous vectors.
    Intermediates stay O(P S dim^2).

    Nothing is raised: a pair that fails gets a status, the first of
    NOT_HORIZONTAL, NEGLIGIBLE, DEGENERATE, NON_FINITE (a value is inf or
    nan) and MISMATCH (quotient and closed form differ by more than 1e-9,
    relative); ``SectionSweep.error`` gives the exception.
    """
    start = time.perf_counter()
    points, lane = len(frames.point), frames.lane
    blocks = []
    with np.errstate(all="ignore"):
        for x in sections:
            g, phi, k, eta = (at_points(a, lane, points) if len(x) == points else a
                              for a in (frames.g, frames.phi, frames.K, frames.eta))
            g, k = g[:, None], k[:, None]
            px = contract(phi[:, None], x)
            sq = inner(g, x, x)
            q = plane_q(g, x, px)
            kxx = contract(contract(k, x), x)
            blocks.append([x, px, (eta[:, None, None, :] @ x[..., :, None])[..., 0, 0],
                           sq, q, inner(g, kk_bracket(k, x, px, px), x) / q,
                           -2.0 * inner(g, kxx, kxx) / pow2(sq)])
        x, px, eta, sq, q, value, closed = (
            _points_concat(points, lane, parts) for parts in zip(*blocks))
        blocks = [block[:2] for block in blocks]

        finite = np.isfinite(eta) & np.isfinite(q) & np.isfinite(value) & np.isfinite(closed)
        scale = np.maximum(np.maximum(1.0, np.abs(value)), np.abs(closed))
        status = np.select(
            [np.abs(eta) > HORIZONTAL_TOL, np.sqrt(np.maximum(sq, 0.0)) <= 1e-10,
             q <= 1e-12, ~finite, np.abs(value - closed) > 1e-9 * scale],
            [NOT_HORIZONTAL, NEGLIGIBLE, DEGENERATE, NON_FINITE, MISMATCH], OK)
    log.debug("section sweep: %d points, %d sections in %.4f s",
              x.shape[0], x.shape[1], time.perf_counter() - start)
    return SectionSweep(frames.point, x, px, eta, q, value, closed, None, None, status,
                        blocks, lane)


def _points_concat(points: int, lane, parts) -> np.ndarray:
    """Arrays of 1 row, one row per lane or one per point, read at each of
    ``points`` points (``at_points``) and joined along the section axis."""
    return np.concatenate([np.broadcast_to(at_points(a, lane, points), (points,) + a.shape[1:])
                           for a in parts], axis=1)


def phi_sectional_k_curvature(fr: PointFrame, x) -> PhiSectionalValue:
    """Definition-level quotient g([K,K](X, phi X) phi X, X) / Q(X, phi X),
    cross-checked against the closed form -2 ||K(X,X)||^2 / ||X||^4 computed
    on an independent path: a one-pair ``section_sweep``."""
    x = np.asarray(x, dtype=float)
    sweep = section_sweep(FrameStack.of([fr]), [x[None, None]])
    error = sweep.error(0, 0)
    if error is not None:
        raise error
    return PhiSectionalValue(value=float(sweep.value[0, 0]),
                             section=(tuple(x), tuple(sweep.px[0, 0])),
                             point=tuple(fr.point))


# ---------------------------------------------------------------------------
# the statistical curvature


def _statistical_parts(gamma0, dgamma0, k, dk, flat: bool = False):
    """(S, R^0, [K,K], R, R-bar) from the jets of Gamma^0 and K (any leading
    axes): nabla = nabla^0 + K and nabla-bar = nabla^0 - K.  R^0 is None
    when ``flat``: the metric is constant, so Gamma^0 and its jet vanish."""
    r = riemann(gamma0 + k, dgamma0 + dk)
    r_bar = riemann(gamma0 - k, dgamma0 - dk)
    r0 = None if flat else riemann(gamma0, dgamma0)
    return 0.5 * (r + r_bar), r0, kk_tensor(k), r, r_bar


class CurvatureStack(NamedTuple):
    """The statistical curvature of the (P, dim) ``point`` from one pass,
    read-only: S = (R + R-bar)/2, R^0, [K,K], R and R-bar, (U, dim, dim,
    dim, dim), and ``cross`` = max |S - R^0 - [K,K]|, (U,), on the U lanes
    of the points (``ChartManifold.lanes``), and ``lane`` (P,), the lane of
    each point."""

    point: np.ndarray
    s: np.ndarray
    r0: np.ndarray
    kk: np.ndarray
    r: np.ndarray
    r_bar: np.ndarray
    cross: np.ndarray
    lane: Optional[np.ndarray] = None


def _curvature_parts(m: ChartManifold, pts) -> CurvatureStack:
    """The CurvatureStack of the (P, dim) ``pts`` from one pass over their
    lanes: one second-order walk of g gives the Gamma^0 jet in closed form, one
    first-order walk of the K table (or of the connection table, less
    Gamma^0) the K jet, and the parts and residuals follow 16 lanes at a
    time.  R^0 of a constant metric is one broadcast zero, never computed.
    A jet entry that is not finite makes a part non-finite, the one gate:
    NonFiniteError.  The pass is logged at info level."""
    first, lane = m.lanes(pts)
    lanes = pts[first]
    coords = point_lanes(lanes)
    shape = (len(lanes),) + (m.dim,) * 4
    flat = m.metric.is_constant
    parts = [np.broadcast_to(0.0, shape) if flat and n == 1 else np.empty(shape)
             for n in range(5)]
    cross = np.empty(len(lanes))
    with lane_pass(log, logging.INFO, "curvature", pts, lanes):
        levi_civita = christoffel_jet(m.metric, coords)
        jets = levi_civita + m.difference.jet(coords, levi_civita)
        for c in range(0, len(lanes), 16):    # 16 lanes at a time bounds the temporaries
            rows = slice(c, c + 16)
            for n, value in enumerate(_statistical_parts(*(a[rows] for a in jets), flat)):
                if value is not None:
                    parts[n][rows] = value
            cross[rows] = max_abs(parts[0][rows] - parts[1][rows] - parts[2][rows])
        if not all(np.isfinite(a).all() for a in parts):
            raise NonFiniteError("statistical curvature is not finite")
    return CurvatureStack(pts, *parts, cross, lane)


def statistical_curvatures(m: ChartManifold, points) -> CurvatureStack:
    """The CurvatureStack of ``points``: S = (R + R-bar)/2 from nabla =
    nabla^0 + K and nabla-bar = nabla^0 - K, with S = R^0 + [K,K] asserted
    (to 1e-6) as an internal cross-check, which raises CrossCheckError at
    the first point where it fails.  The stack is the chart's kept part of
    ``_curvature_parts`` (``ChartManifold.kept``); a pass that fails raises
    its own error and keeps nothing."""
    stack = m.kept(_curvature_parts, points)
    raise_first(CrossCheckError, stack.point, stack.cross, 1e-6, "S - R0 - [K,K] residual",
                stack.lane)
    return stack


def statistical_curvature(m: ChartManifold, point):
    """``statistical_curvatures`` at one point: (S, R^0, [K,K], R, R-bar)."""
    return tuple(a[0] for a in statistical_curvatures(m, [point])[1:6])


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


def horizontal_projections(frames: FrameStack):
    """The projections v - eta(v) xi of the frame_vectors family onto
    ker(eta) at P points, (P, V, dim), and the (P, V) mask of those with
    norm above 1e-8."""
    vecs = np.array(frame_vectors(frames.xi.shape[1]))
    with np.errstate(all="ignore"):
        eta_v = (frames.eta[:, None, None, :] @ vecs[:, :, None])[..., 0, 0]
        h = vecs - eta_v[..., None] * frames.xi[:, None]
        keep = norms(frames.g[:, None], h) > 1e-8
    return h, keep


def plain_sections(n: int) -> int:
    """The number of sweep sections that draw no random numbers: the n legs
    and their n (n + 1) / 2 mixtures."""
    return n * (n + 3) // 2


def _sweep_blocks(g, basis, points: int, rng=None, extra: int = 2, lane=None):
    """The sections of ``sweep_sections`` at P = ``points`` points from the
    metrics and phi-bases (U, dim, 2n+1) of their lanes, ``lane`` (P,), as
    section blocks (the legs and their mixtures, one row per lane, and,
    with ``rng``, the random combinations, one row per point) and the
    (P, S) mask of the sections each point keeps.  The legs are strided
    views of the basis columns, as in one point's loop; the random
    combinations draw ``extra`` times 2n normals per point, in point order,
    from one block of ``rng``, and a point keeps those with norm above
    1e-3, whose plane form Q(X, phi X) = |X|^4 clears the kernel's 1e-12
    gate."""
    P, dim = points, basis.shape[1]
    n = (dim - 1) // 2
    legs = basis[:, :, :n].transpose(0, 2, 1)
    mixtures = []
    for i in range(n):
        for j in range(i + 1, n):
            mixtures.append(legs[:, i] + legs[:, j])
        mixtures.append(legs[:, i] + basis[:, :, n + i])  # mix in phi e_i
    blocks = [legs, np.stack(mixtures, axis=1)]
    keep = [np.ones((P, plain_sections(n)), dtype=bool)]
    if rng is not None:
        coef = rng.standard_normal((P, extra, 2 * n))
        g, basis = (at_points(a, lane, P) for a in (g, basis))
        with np.errstate(all="ignore"):
            blocks.append(contract(basis[:, None, :, :2 * n], coef))
            keep.append(norms(g[:, None], blocks[-1]) > 1e-3)
    return blocks, np.concatenate(keep, axis=1)


def sweep_sections(m: ChartManifold, fr: PointFrame, rng=None, extra: int = 2):
    """Horizontal section vectors for a phi-basis sweep at a point: the
    phi-basis legs e_1..e_n, their pairwise mixtures, and a few random
    horizontal combinations."""
    basis = phi_basis(m, fr.point, frame=fr)
    blocks, keep = _sweep_blocks(fr.g[None], basis[None], 1, rng, extra)
    vectors = [v for block in blocks for v in block[0]]
    return [v for v, kept in zip(vectors, keep[0]) if kept]


def phi_sweep(frames: FrameStack, rng=None):
    """The ``section_sweep`` of the sweep sections of every point of
    ``frames`` and the (P, S) mask of the sections each point keeps; the
    plain sections are one row per lane, and the random ones are drawn for
    every point.  Raises the first point's ``phi_bases`` error: the error
    of the first lane, as lanes are numbered in point order."""
    basis, errors = phi_bases(frames.g, frames.phi, frames.xi)
    for error in filter(None, errors):
        raise error
    blocks, keep = _sweep_blocks(frames.g, basis, len(frames.point), rng, lane=frames.lane)
    return section_sweep(frames, blocks), keep


def _k_phi(sweep: SectionSweep, keep) -> np.ndarray:
    """max |K_phi| over the kept sections of each point (0 without any), or
    the error of the first kept pair that fails, in point order."""
    failed = np.argwhere(keep & (sweep.status != OK))
    if len(failed):
        raise sweep.error(*failed[0])
    return np.max(np.abs(np.where(keep, sweep.value, 0.0)), axis=1, initial=0.0)


def replay(run, points, rng):
    """``run(points, rng)``, an audit that takes each step for all points
    at once and raises at the first failure.  When it raises, the error
    that surfaces is the one a per-point loop meets first: the run over
    that loop's first failing point alone.  The stores raise the error of
    a failing pass, so every multi-point caller of the CLI runs here.

    Each step acts on each point alone, so a run fails when one of its
    points fails alone, and a run that passes draws from ``rng`` what the
    per-point runs of its points draw.  A run that fails in a pass of one
    lane, the lane of its first point (``manifold.lane_pass`` keeps it on
    the error), has met that point's own error and raises it: a pass of
    points that all share one lane, such as every pass of a constant chart,
    is such a pass.  Otherwise the points are bisected: from the rng state
    before them, run the first half; if it fails, the failure lies there
    (rewind; a half of one point raises, as does a half that fails in the
    lane of its first point, so a half whose points share one lane is
    located at once), else go on with the second half from the state the
    first half left, and a point left runs alone: at most ceil(log2 P) + 2
    runs, none of a point alone twice.  If that passes, no point fails
    alone and the batch's own error surfaces."""
    def located(exc, points):
        return getattr(exc, "lane", None) == np.asarray(points[0], dtype=float).tolist()

    state = None if rng is None else rng.bit_generator.state
    try:
        return run(points, rng)
    except Exception as exc:
        if len(points) < 2 or located(exc, points):
            raise
        log.debug("replay: %d points one at a time after %s", len(points), exc)
        while len(points) > 1:
            if rng is not None:
                rng.bit_generator.state = state
            half = len(points) // 2
            try:
                run(points[:half], rng)
            except Exception as half_exc:
                if half == 1 or located(half_exc, points):
                    raise       # the first point that fails alone
                points = points[:half]
                continue
            points = points[half:]
            state = None if rng is None else rng.bit_generator.state
        run(points, rng)        # from the state the passing half left
        raise       # no point fails alone: the batch's own error


def _section_triples(m: ChartManifold, frames: FrameStack, sweep: SectionSweep, keep):
    """(K^S, K^0, K_phi) of each section of each point, (P, S, 3), with the
    checks of a sectional triple at the sections ``keep`` holds: the
    horizontality of the first section, the statistical curvature of the
    point, and for each section the plane check of ``sectional_curvature``,
    the K_phi checks and the additivity K^S = K^0 + K_phi (to 1e-6 relative)."""
    vertical = np.flatnonzero(np.isin(sweep.status[:, 0], (NOT_HORIZONTAL, NEGLIGIBLE)))
    if vertical.size:
        raise sweep.error(vertical[0], 0)
    sweep = sweep.with_curvatures(frames.g, statistical_curvatures(m, frames.point))
    k_s, k_0, k_phi = sweep.k_s, sweep.k_0, sweep.value
    with np.errstate(all="ignore"):
        additive = np.abs(k_s - (k_0 + k_phi)) <= 1e-6 * np.maximum(1.0, np.abs(k_s))
    failed = np.argwhere(keep & ((sweep.status != OK) | ~additive))
    if len(failed):
        i, j = failed[0]
        if sweep.status[i, j] != OK:
            raise sweep.error(i, j, plane=True)
        raise CrossCheckError(f"sectional additivity fails: {float(k_s[i, j])} vs "
                              f"{float(k_0[i, j])} + {float(k_phi[i, j])}")
    return np.stack([k_s, k_0, k_phi], axis=-1)


def phi_sectional_triples(m: ChartManifold, points, rng=None, section=None,
                          lambda_tol: float = 1e-6):
    """(lambda (P,), triples (P, S, 3), keep (P, S)): the (K^S, K^0, K_phi)
    of the sweep sections of each point, or of the one vector per point
    that ``section(frames)`` gives, (P, dim), from one ``section_sweep``,
    and the mask of the sections each point keeps.  Steps: frames,
    ``lambdas``, ``section``, then ``_section_triples``; a failure raises
    through ``replay``."""
    def run(points, rng):
        stack = m.frame_stack(points)
        lams = np.broadcast_to(at_points(lambdas(stack, lambda_tol), stack.lane, len(points)),
                               (len(points),))
        if section is None:
            sweep, keep = phi_sweep(stack, rng)
        else:
            sweep = section_sweep(stack, [section(stack)[:, None]])
            keep = np.ones((len(points), 1), dtype=bool)
        return lams, _section_triples(m, stack, sweep, keep), keep
    if not len(points):     # no points, no sections: not the (0, S, 3) of a sweep
        return np.zeros(0), np.zeros((0, 0, 3)), np.zeros((0, 0), dtype=bool)
    return replay(run, points, rng)


# ---------------------------------------------------------------------------
# theorem audits


def theorem_5_8_audit(m: ChartManifold, points=None, tol: float = 1e-9,
                      rng=None) -> AuditReport:
    """Evaluate the nine equivalent vanishing conditions independently at
    every sample point and flag any disagreement (which would falsify the
    equivalence, i.e. signal an engine bug or inadmissible input).

    c1 and c2 read one section sweep over all points, and c6 one stack of
    horizontal projections.  Steps, through ``replay``: frames, lambda,
    phi-bases, section statuses, statistical curvature (when it raises, the
    statuses come first, without the sectional values)."""
    pts = m.grid_points() if points is None else points
    return replay(lambda pts, rng: _theorem_5_8(m, pts, tol, rng), pts, rng)


def _theorem_5_8(m: ChartManifold, pts, tol, rng) -> AuditReport:
    fs = m.frame_stack(pts)
    points, lane = len(pts), fs.lane
    lams = lambdas(fs, max(tol, 1e-6))
    sweep, keep = phi_sweep(fs, rng)
    try:
        curvatures = statistical_curvatures(m, pts)
    except Exception:
        _k_phi(sweep, keep)     # the statuses come first
        raise
    sweep = sweep.with_curvatures(fs.g, curvatures)
    k_phi = _k_phi(sweep, keep)
    plain = plain_sections(m.n)        # the legs and mixtures, not the random sections
    horiz, keep_h = horizontal_projections(fs)
    vecs = np.array(frame_vectors(m.dim))
    with np.errstate(all="ignore"):
        kvv = _k_pairs(fs.K, vecs, vecs)
        kvv_h = _k_pairs(fs.K, horiz, horiz)
        phiv = vecs @ np.swapaxes(fs.phi, 1, 2)
        residuals = {
            "c1_kphi_zero": k_phi,
            "c2_statistical_equals_riemannian": np.max(np.abs(
                sweep.k_s[:, :plain] - sweep.k_0[:, :plain]), axis=1, initial=0.0),
            "c3_K_is_lambda_eta_eta_xi": max_abs(fs.K - lams[:, None, None, None] * np.einsum(
                "...i,...j,...k->...ijk", fs.xi, fs.eta, fs.eta)),
            "c4_kk_bracket_zero": per_16_lanes(max_abs, curvatures.kk),
            "c5_S_equals_R0": per_16_lanes(lambda s, r0: max_abs(s - r0),
                                           curvatures.s, curvatures.r0),
            "c6_K_XX_zero_horizontal": np.max(np.abs(np.where(keep_h[..., None], kvv_h, 0.0)),
                                              axis=(1, 2), initial=0.0),
            "c7_K_X_phiX_zero": max_abs(_k_pairs(fs.K, vecs, phiv)),
            "c8_phi_K_XX_zero": max_abs(kvv @ np.swapaxes(fs.phi, 1, 2)),
            "c9_K_XX_parallel_xi": max_abs(kvv - outer(contract(kvv, fs.eta), fs.xi)),
        }
    residuals = {name: at_points(res, lane, points) for name, res in residuals.items()}
    oks = {name: res <= tol for name, res in residuals.items()}
    stacked = np.array(np.broadcast_arrays(*oks.values()))
    unanimous = stacked.all(axis=0) | ~stacked.any(axis=0)
    zero, yes = np.zeros(1), np.ones(1, dtype=bool)
    rep = AuditReport.from_columns(fs.point, [Column("thm_5_8/lambda", zero, yes, lams)] + [
        Column(f"thm_5_8/{name}", res, yes, oks[name].astype(float))
        for name, res in residuals.items()] + [
        Column("thm_5_8/unanimity", np.where(unanimous, 0.0, 1.0), unanimous)], lane)
    for i in np.flatnonzero(~unanimous):
        rep.flag(f"EquivalenceViolation at {list(map(float, pts[i]))}: "
                 + ", ".join(f"{name}={bool(ok[i])}" for name, ok in zip(oks, stacked)))
    return rep


def _k_pairs(k: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """K(X_a, Y_a) at the lanes of ``k`` for a (V, dim) family of pairs or
    an (L, V, dim) one, (L, V, dim): K @ Y^T, the family axis moved forward,
    then @ X, so one lane takes the same (dim x dim) @ (dim x V) and
    (dim x dim) @ (dim x 1) products alone as in a stack, 16 lanes at a
    time."""
    def pairs(k, x, y):
        ky = k @ np.swapaxes(y, -1, -2)[:, None]        # K(e_j, Y_a)^i as [l, i, j, a]
        return (ky.transpose(0, 3, 1, 2) @ x[..., None])[..., 0]
    return per_16_lanes(pairs, k, *(v if v.ndim == 3 else v[None] for v in (x, y)))


def audit_branch(report: AuditReport) -> str:
    """'all-true', 'all-false' or 'mixed' summary of a theorem_5_8_audit."""
    vals = {bool(v) for c, v in zip(report.checks, report.values)
            if c.startswith("thm_5_8/c")}
    if vals == {True}:
        return "all-true"
    if vals == {False}:
        return "all-false"
    return "mixed"


@np.errstate(all="ignore")
def lemma_5_6_residuals(fs: FrameStack, nabla0_phi) -> np.ndarray:
    """Max residual of (nabla^0_X phi)Y = (nabla_X phi)Y + 2 phi K(X,Y) over
    all frame pairs at each lane of ``fs``, (L,), from ``nabla0_phi``,
    nabla^0 phi at those lanes (``contact.nabla0_phi_pass``)."""
    d1 = covariant_derivative_11(fs.gamma0 + fs.K, fs.phi, fs.dphi)
    phi_k = np.swapaxes(first_slot(fs.phi, fs.K), -3, -2)        # phi K(e_a, e_k) as [a, i, k]
    return max_abs(nabla0_phi - d1 - 2.0 * phi_k)


@np.errstate(all="ignore")
def geodesic_norms(fs: FrameStack):
    """(||nabla^0_xi xi||, ||nabla_xi xi||) at each lane of ``fs``, two (U,)."""
    dxi = covariant_derivative_vector(fs.gamma0, fs.xi, fs.dxi)   # [p, i, j]
    v0 = np.einsum("...ij,...i->...j", dxi, fs.xi)
    v1 = v0 + contract(contract(fs.K, fs.xi), fs.xi)
    return norms(fs.g, v0), norms(fs.g, v1)


def prop_5_2_residuals(m: ChartManifold, fs: FrameStack):
    """At each lane of ``fs``, (L,) each: max |S - R^0 - [K,K]|
    (Proposition 5.2, the residual the curvature pass keeps beside the
    parts) and max |g(R(e_k, e_l) e_j, e_a) + g(e_j, R-bar(e_k, e_l) e_a)|
    (the conjugate duality of the curvatures).  The statistical curvature
    raises as in ``statistical_curvatures``."""
    curvatures = statistical_curvatures(m, fs.point)

    def duality(r, r_bar, g):
        low = np.einsum("...am,...mjkl->...ajkl", g, r)
        low_bar = np.einsum("...am,...mjkl->...ajkl", g, r_bar)
        return max_abs(low + np.einsum("...jakl->...ajkl", low_bar))
    return curvatures.cross, per_16_lanes(duality, curvatures.r, curvatures.r_bar, fs.g)


@np.errstate(all="ignore")
def _compat_residuals(fs: FrameStack, d0_phi):
    """The residuals of the three formulations of phi-compatibility at the
    lanes of ``fs``, (3, L); (c) reads ``d0_phi``, nabla^0 phi there."""
    gamma = fs.gamma0 + fs.K
    phi_k = np.swapaxes(first_slot(fs.phi, fs.K), -3, -2)        # phi K(e_a, e_k) as [a, i, k]
    return np.stack([
        # (a) nabla phi = 0 componentwise
        max_abs(covariant_derivative_11(gamma, fs.phi, fs.dphi)),
        # (b) nabla_X (phi Y) = phi nabla_X Y on coordinate fields, computed
        # without forming the covariant derivative of phi
        max_abs(fs.dphi + np.swapaxes(gamma @ fs.phi[:, None], -3, -2)
                - np.swapaxes(first_slot(fs.phi, gamma), -3, -2)),
        # (c) (nabla^0_X phi)Y = 2 phi K(X,Y)
        max_abs(d0_phi - 2.0 * phi_k)])


def phi_compat_check(m: ChartManifold, points=None, tol: float = 1e-9,
                     rng=None) -> AuditReport:
    """phi-compatibility of the statistical connection, decided by three
    independent formulations that must agree; when compatible, the forced
    consequences (cosymplectic, vanishing phi-sectional K-curvature, and
    xi-parallel covariant derivatives of xi) are asserted as well.  The
    K_phi consequence of all compatible points is one section sweep.
    Steps, through ``replay``: frames, then the phi-bases and section
    statuses of the compatible points."""
    return phi_compat_audit(m, points, tol, rng)[0]


def phi_compat_audit(m: ChartManifold, points=None, tol: float = 1e-9, rng=None):
    """``phi_compat_check`` and, per point, max |K_phi| over the plain
    sections of its sweep (0 where it is not compatible), which
    ``psi_check`` reads."""
    pts = m.grid_points() if points is None else points
    return replay(lambda pts, rng: _phi_compat(m, pts, tol, rng), pts, rng)


def _phi_compat(m: ChartManifold, pts, tol, rng):
    fs = m.frame_stack(pts)
    points, lane = len(pts), fs.lane
    d0_phi = m.kept(nabla0_phi_pass, pts)
    res = _compat_residuals(fs, d0_phi)
    oks = res <= tol
    compatible = oks.all(axis=0)
    at = np.broadcast_to(at_points(compatible, lane, points), (points,))
    k_phi, k_plain = np.zeros(points), np.zeros(points)
    if at.any():
        sweep, keep = phi_sweep(lane_rows(fs, np.flatnonzero(at), lane), rng)
        k_phi[at] = _k_phi(sweep, keep)
        k_plain[at] = np.max(np.abs(sweep.value[:, :plain_sections(m.n)]), axis=1, initial=0.0)
    with np.errstate(all="ignore"):
        # nabla_X xi and nabla^0_X xi parallel to xi
        dxi0 = covariant_derivative_vector(fs.gamma0, fs.xi, fs.dxi)
        dxi1 = dxi0 + np.einsum("...ijm,...m->...ji", fs.K, fs.xi)
        parallel = [max_abs(dxi - outer(contract(dxi, fs.eta), fs.xi)) for dxi in (dxi0, dxi1)]
    least = res[0]
    for r in res[1:]:
        least = np.where(r < least, r, least)       # min(a, b, c) as floats take it
    yes = np.ones(1, dtype=bool)
    columns = [Column(f"phi_compat/{name}", r, yes, ok.astype(float)) for name, r, ok in zip(
        ("nabla_phi_zero", "nabla_commutes_with_phi", "nabla0_phi_is_2phiK"), res, oks)]
    columns.append(Column("phi_compat/compatible", least, yes, compatible.astype(float)))
    # Theorem 6.8 consequences, at the compatible points
    consequences = (("cosymplectic_consequence", max_abs(d0_phi)), ("kphi_zero_consequence", k_phi),
                    ("nabla0_xi_parallel", parallel[0]), ("nabla_xi_parallel", parallel[1]))
    columns += [within(f"phi_compat/{name}", r, tol)._replace(at=compatible)
                for name, r in consequences]
    rep = AuditReport.from_columns(fs.point, columns, lane)
    disagree = at_points(oks.any(axis=0) & ~compatible, lane, points)
    for i in np.flatnonzero(np.broadcast_to(disagree, (points,))):
        rep.flag(f"phi-compatibility formulations disagree at {list(map(float, pts[i]))}")
    return rep, k_plain


def is_phi_compatible(report: AuditReport) -> bool:
    return all(bool(v) for c, v in zip(report.checks, report.values)
               if c == "phi_compat/compatible")


def psi_check(m: ChartManifold, point, tol: float = 1e-9,
              compat_report: AuditReport = None, k_phi=None) -> AuditReport:
    """The 2-form family Psi_X(Y,Z) = (nabla_X g)(Y, phi Z) and its identities
    under phi-compatibility, at one point or, for a (P, dim) sequence of
    points, at each of them with one section sweep (no points give an
    empty report).  ``k_phi`` is the plain-section K_phi of the points from
    the ``phi_compat_audit`` that gave ``compat_report``, which then takes
    no sweep of its own.  Raises PreconditionNotMetError when the structure
    is not phi-compatible at the points; then the steps, through
    ``replay``, are frames, phi-bases and section statuses."""
    points = [point] if np.ndim(point) == 1 and len(point) else point
    if compat_report is None:
        compat_report = phi_compat_check(m, points, tol=max(tol, 1e-9))
    if not is_phi_compatible(compat_report):
        raise PreconditionNotMetError("structure is not phi-compatible")
    return replay(lambda pts, _: _psi(m, pts, tol, k_phi if len(pts) == len(points) else None),
                  points, None)


def _psi(m: ChartManifold, points, tol, k_phi=None) -> AuditReport:
    fs = m.frame_stack(points)
    if k_phi is None:
        k_phi = _k_phi(*phi_sweep(fs))
    with np.errstate(all="ignore"):
        ng = nabla_g(fs.gamma0 + fs.K, fs.g, fs.dg)                  # (nabla_X g)_xyz
        psi = ng @ fs.phi[:, None]                                   # Psi_X(Y, Z)
        # Psi_X(Y,Z) = 2 g(phi K(Y,Z), X)
        target = 2.0 * first_slot(fs.g, first_slot(fs.phi, fs.K))
        # phi-slot rules
        psi_phi_y = np.swapaxes(fs.phi, 1, 2)[:, None] @ psi
        psi_phi_z = psi @ fs.phi[:, None]
        psi_phi_both = psi_phi_y @ fs.phi[:, None]
        columns = [
            within("psi/antisymmetry_YZ", max_abs(psi + np.einsum("...xzy->...xyz", psi)), tol),
            within("psi/equals_2g_phiK", max_abs(psi - target), tol),
            # slot symmetries
            within("psi/slot_symmetry_XY", max_abs(psi - np.einsum("...yxz->...xyz", psi)), tol),
            within("psi/slot_symmetry_XZ", max_abs(psi - np.einsum("...zyx->...xyz", psi)), tol),
            within("psi/phi_slot_flip", max_abs(psi_phi_y + psi_phi_z), tol),
            within("psi/phi_slot_double", max_abs(psi_phi_both - psi), tol),
            # Propositions 6.6/6.7: under phi-compatibility both Psi and the
            # phi-sectional K-curvature vanish
            within("psi/psi_zero", max_abs(psi), tol),
            within("psi/kphi_zero", k_phi, tol)]
    return AuditReport.from_columns(fs.point, columns, fs.lane)
