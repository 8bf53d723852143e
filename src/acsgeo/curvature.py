"""Curvature of almost contact statistical structures: the [K,K] bracket,
phi-sectional K-curvature, the statistical curvature tensor, and executable
audits of the equivalence and compatibility theorems.

The statistical curvature of some points is one lane pass, a part of the
chart's store (``ChartManifold.kept``), and so is the ``section_sweep`` of
their phi-basis legs and mixtures with a certificate of every other
horizontal section (``plain_sweep``), which every sweeping check reads at
its own points; only ``sweep_sections`` draws, given an rng.  The per-point
functions (``phi_sectional_k_curvature``, ...) are one-point calls of it.

An audit takes each of its steps for all points at once and raises at the
first failure, at its first failing point; ``replay`` reruns the points
before it, so the error is the one a per-point loop meets first."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .contact import nabla0_phi, phi_basis
from .expressions import NonFiniteError
from .manifold import ChartManifold, FrameStack, PointFrame, lane_pass, lane_rows
from .metric import (DegeneratePlaneError, apply_curvature, at_points,
                     christoffel_jet, contract, covariant_derivative_11,
                     covariant_derivative_vector, first_slot, inner, nabla_g, norms, outer,
                     per_16_lanes, plane_q, point_lanes, pow2, riemann)
from .report import AuditReport, Column, max_abs, raise_first, within
from .statistical import lambda_of

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
# order phi_sectional_k_curvature runs them; UNCERTIFIED marks the first
# section of a lane whose sections pass and whose ``quartic_gaps`` fails
OK, NOT_HORIZONTAL, NEGLIGIBLE, DEGENERATE, NON_FINITE, MISMATCH, UNCERTIFIED = range(7)
HORIZONTAL_TOL = 1e-9


@dataclass(frozen=True)
class SectionSweep:
    """The results of ``section_sweep``, one entry per (row, section) pair,
    a row per row of the fields it read (per point in ``phi_sweep``'s):
    arrays of eta(X), Q(X, phi X), the K_phi quotient ``value``, its
    closed form ``closed`` and the ``status``.  ``k_s`` and ``k_0``, the S
    and R^0 sectional curvatures of span{X, phi X}, are None until
    ``with_curvatures`` adds them.  ``blocks()`` gives the sections, which
    ``phi_sweep`` builds when asked: the (X, phi X) of each section block,
    with its rows (one per lane or one per point) and the strides of its
    vectors; ``lane`` is the lane of each point in the frames the sweep
    read (None: one per point)."""

    point: np.ndarray
    eta: np.ndarray
    q: np.ndarray
    value: np.ndarray
    closed: np.ndarray
    k_s: Optional[np.ndarray]
    k_0: Optional[np.ndarray]
    status: np.ndarray
    blocks: Callable[[], list]
    lane: Optional[np.ndarray] = None

    def error(self, i, j, plane: bool = False) -> Optional[Exception]:
        """The error phi_sectional_k_curvature raises for pair (i, j), with
        row i's point as its ``lane`` (see ``replay``), or None.  With
        ``plane`` a degenerate section is the DegeneratePlaneError of
        ``sectional_curvature``, which callers of it meet first."""
        code, point = self.status[i, j], self.point[i].tolist()
        if code == NOT_HORIZONTAL:
            exc = NotHorizontalError(
                f"eta(X) = {float(self.eta[i, j])} beyond tolerance {HORIZONTAL_TOL}")
        elif code == NEGLIGIBLE:
            exc = NotHorizontalError("X has negligible norm")
        elif code == DEGENERATE:
            q = float(self.q[i, j])
            exc = (DegeneratePlaneError(f"Q(X,Y) = {q} below threshold") if plane
                   else DegenerateSectionError(f"Q(X, phi X) = {q} below threshold"))
        elif code == NON_FINITE:
            exc = NonFiniteError(f"phi-sectional curvature is not finite at {point}")
        elif code == MISMATCH:
            exc = CrossCheckError(f"phi-sectional quotient {float(self.value[i, j])} "
                                  f"vs closed form {float(self.closed[i, j])}")
        elif code == UNCERTIFIED:
            exc = CrossCheckError(f"K_phi fails its quartic-form certificate at {point}")
        else:
            return None
        exc.lane = point
        return exc

    def with_curvatures(self, g, curvatures) -> "SectionSweep":
        """The sweep with ``k_s`` and ``k_0`` from the metrics ``g`` and the
        ``CurvatureStack`` of its points' lanes: the numerators
        g(R(X, phi X) phi X, X) of each block 16 rows at a time
        (``per_16_lanes``) with its sections as a batch axis, once per lane
        for a block of a row per lane and at the lane of each row for one of
        a row per point, over the sweep's own Q(X, phi X), the ``plane_q`` of
        ``sectional_values`` on the same operands; a pair that is OK or
        MISMATCH becomes NON_FINITE where one of them is not finite."""
        def numerator(r, g, x, px):
            return inner(g[:, None], x, apply_curvature(r[:, None], x, px, px))
        points, lane, blocks = len(self.point), self.lane, self.blocks()

        def sectional(r):
            return np.concatenate([at_points(per_16_lanes(
                numerator, r, g, x, px, lane=lane if len(x) == points else None), lane, points)
                for x, px in blocks], axis=1) / self.q
        with np.errstate(all="ignore"):
            k_s, k_0 = sectional(curvatures.s), sectional(curvatures.r0)
        status = np.where(np.isin(self.status, (OK, MISMATCH))
                          & ~(np.isfinite(k_s) & np.isfinite(k_0)), NON_FINITE, self.status)
        return replace(self, k_s=k_s, k_0=k_0, status=status)


def section_sweep(frames: FrameStack, sections) -> SectionSweep:
    """phi-sectional K-curvature g([K,K](X, phi X) phi X, X) / Q(X, phi X)
    and its closed form -2 ||K(X,X)||^2 / ||X||^4 on an independent path,
    for every section X of every row of the fields of ``frames``.

    ``sections`` is a list of section blocks, joined along the section
    axis, each with a row per row of the fields (a lane, or a point of
    ``_point_rows``).  Each pair gets the operand shapes of one vector (see
    ``metric.inner``), so every value is bit-identical to the per-point
    functions, and a block keeps the strides of its vectors: the legs of a
    phi-basis are strided columns, which BLAS may sum in another order.

    Nothing is raised: a pair that fails gets a status, the first of
    NOT_HORIZONTAL, NEGLIGIBLE, DEGENERATE, NON_FINITE (a value is inf or
    nan) and MISMATCH (quotient and closed form differ by more than 1e-9,
    relative); ``SectionSweep.error`` gives the exception.
    """
    start = time.perf_counter()
    g, k, eta = frames.g[:, None], frames.K[:, None], frames.eta[:, None, None, :]
    blocks, parts = [], []
    with np.errstate(all="ignore"):
        for x in sections:
            px = contract(frames.phi[:, None], x)
            sq = inner(g, x, x)
            q = plane_q(g, x, px)
            kxx = contract(contract(k, x), x)
            blocks.append((x, px))
            parts.append([(eta @ x[..., :, None])[..., 0, 0], sq, q,
                          inner(g, kk_bracket(k, x, px, px), x) / q,
                          -2.0 * inner(g, kxx, kxx) / pow2(sq)])
        eta, sq, q, value, closed = (np.concatenate(arrays, axis=1) for arrays in zip(*parts))

        finite = np.isfinite(eta) & np.isfinite(q) & np.isfinite(value) & np.isfinite(closed)
        scale = np.maximum(np.maximum(1.0, np.abs(value)), np.abs(closed))
        status = np.select(
            [np.abs(eta) > HORIZONTAL_TOL, np.sqrt(np.maximum(sq, 0.0)) <= 1e-10,
             q <= 1e-12, ~finite, np.abs(value - closed) > 1e-9 * scale],
            [NOT_HORIZONTAL, NEGLIGIBLE, DEGENERATE, NON_FINITE, MISMATCH], OK)
    log.debug("section sweep: %d rows, %d sections in %.4f s",
              value.shape[0], value.shape[1], time.perf_counter() - start)
    return SectionSweep(frames.point, eta, q, value, closed, None, None, status,
                        lambda: blocks, frames.lane)


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
                             section=(tuple(x), tuple(sweep.blocks()[0][1][0, 0])),
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


def _jets(m: ChartManifold, lanes):
    """(Gamma^0, dGamma^0, K, dK) at the (U, dim) ``lanes``: one second-order
    walk of g gives the Gamma^0 jet in closed form, one first-order walk of
    the K table (or of the connection table, less Gamma^0) the K jet."""
    coords = point_lanes(lanes)
    levi_civita = christoffel_jet(m.metric, coords)
    return levi_civita + m.difference.jet(coords, levi_civita)


def _duality(r, r_bar, g):
    """max |g(R(e_k, e_l) e_j, e_a) + g(e_j, R-bar(e_k, e_l) e_a)| at each
    lane: the conjugate duality of the curvatures."""
    low = np.einsum("...am,...mjkl->...ajkl", g, r)
    low_bar = np.einsum("...am,...mjkl->...ajkl", g, r_bar)
    return max_abs(low + np.einsum("...jakl->...ajkl", low_bar))


class CurvatureStack(NamedTuple):
    """The statistical curvature of the (P, dim) ``point`` from one pass,
    read-only, on the U lanes of the points (``ChartManifold.lanes``): S =
    (R + R-bar)/2 and R^0, (U, dim, dim, dim, dim), and three maxima of the
    parts the pass does not keep, (U,) each: ``cross`` = max |S - R^0 -
    [K,K]| (Proposition 5.2), ``kk_max`` = max |[K,K]| (Theorem 5.8 c4) and
    ``duality``, the conjugate duality of R and R-bar in the lane's metric;
    ``lane`` (P,) is the lane of each point.  ``statistical_curvature``
    recomputes [K,K], R and R-bar at one point."""

    point: np.ndarray
    s: np.ndarray
    r0: np.ndarray
    cross: np.ndarray
    kk_max: np.ndarray
    duality: np.ndarray
    lane: Optional[np.ndarray] = None


def _curvature_parts(m: ChartManifold, pts) -> CurvatureStack:
    """The CurvatureStack of the (P, dim) ``pts`` from one pass over the lanes
    of their frames (``frame_stack``, whose error it raises): the jets of
    every lane (``_jets``), then the five parts of ``_statistical_parts`` 16
    lanes at a time, of which each chunk keeps S and R^0 and reduces S - R^0
    - [K,K], [K,K] and the duality of R and R-bar, in the metric of each
    lane's own frame (also when ``run_lanes`` runs a lane alone), to their
    maxima.  R^0 of a constant metric is one broadcast zero, never computed.
    A part that is not finite fails the one gate: NonFiniteError.  The pass
    is logged at info level."""
    fs = m.frame_stack(pts)
    flat, first = m.metric.is_constant, fs.lane_points
    row = {p.tobytes(): i for i, p in enumerate(first)}

    def parts_of(lanes):
        g = fs.g[[row[p.tobytes()] for p in lanes]]     # each lane's own, also run alone
        shape = (len(lanes),) + (m.dim,) * 4
        s = np.empty(shape)
        r0 = np.broadcast_to(0.0, shape) if flat else np.empty(shape)
        cross, kk_max, duality = np.empty((3, len(lanes)))
        jets = _jets(m, lanes)
        for c in range(0, len(lanes), 16):    # 16 lanes at a time bounds the temporaries
            rows = slice(c, c + 16)
            parts = _statistical_parts(*(a[rows] for a in jets), flat)
            if not all(np.isfinite(a).all() for a in parts if a is not None):
                raise NonFiniteError("statistical curvature is not finite")
            s[rows], r0_rows, kk, r, r_bar = parts
            if not flat:
                r0[rows] = r0_rows
            cross[rows] = max_abs(s[rows] - r0[rows] - kk)
            kk_max[rows] = max_abs(kk)
            duality[rows] = _duality(r, r_bar, g[rows])
        return s, r0, cross, kk_max, duality
    return CurvatureStack(pts, *lane_pass(log, logging.INFO, "curvature", pts, first, parts_of),
                          fs.lane)


def statistical_curvatures(m: ChartManifold, points) -> CurvatureStack:
    """The CurvatureStack of ``points``: S = (R + R-bar)/2 from nabla =
    nabla^0 + K and nabla-bar = nabla^0 - K, with S = R^0 + [K,K] asserted
    (to 1e-6) as an internal cross-check, which raises CrossCheckError at
    the first point where it fails.  The stack is the chart's kept part of
    ``_curvature_parts`` (``ChartManifold.kept``): S, R^0 and the per-lane
    maxima; a pass that fails raises its own error and keeps nothing."""
    stack = m.kept(_curvature_parts, points)
    raise_first(CrossCheckError, stack.point, stack.cross, 1e-6, "S - R0 - [K,K] residual",
                stack.lane)
    return stack


def statistical_curvature(m: ChartManifold, point):
    """(S, R^0, [K,K], R, R-bar) at one point: S and R^0 of
    ``statistical_curvatures``, which raises its errors, and [K,K], R and
    R-bar recomputed by ``_statistical_parts`` on the jets of the point's
    lane: the pass's kernel, so the pass's bits."""
    stack = statistical_curvatures(m, [point])
    kk, r, r_bar = _statistical_parts(*_jets(m, stack.point), m.metric.is_constant)[2:]
    return stack.s[0], stack.r0[0], kk[0], r[0], r_bar[0]


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


def _plain_blocks(basis):
    """The legs of the phi-bases (U, dim, 2n+1), strided views of the basis
    columns as in one point's loop, and their mixtures: two section blocks."""
    n = (basis.shape[1] - 1) // 2
    legs = basis[:, :, :n].transpose(0, 2, 1)
    mixtures = []
    for i in range(n):
        for j in range(i + 1, n):
            mixtures.append(legs[:, i] + legs[:, j])
        mixtures.append(legs[:, i] + basis[:, :, n + i])  # mix in phi e_i
    return [legs, np.stack(mixtures, axis=1)]


def sweep_sections(m: ChartManifold, fr: PointFrame, rng=None, extra: int = 2):
    """Horizontal section vectors for a phi-basis sweep at a point: the
    phi-basis legs e_1..e_n, their pairwise mixtures and, with ``rng``,
    ``extra`` random combinations of the horizontal legs (2n normals each)
    of norm above 1e-3, whose Q(X, phi X) = |X|^4 clears the 1e-12 gate."""
    basis, errors = phi_basis(fr.g[None], fr.phi[None], fr.xi[None])
    if errors[0] is not None:
        raise errors[0]
    vectors = [v for block in _plain_blocks(basis) for v in block[0]]
    if rng is not None:
        horizontal = basis.shape[-1] - 1
        x = contract(basis[:, None, :, :horizontal],
                     rng.standard_normal((1, extra, horizontal)))[0]
        vectors += [v for v, kept in zip(x, norms(fr.g, x) > 1e-3) if kept]
    return vectors


def _in_basis(t, mats):
    """t[l, ..., i_1, .., i_r] M_1[l, i_1, a_1] .. M_r[l, i_r, a_r] of the lane
    tensors ``t`` and (L, dim, m) ``mats`` as [l, a_1, .., a_r, ...], by matmuls."""
    for mat in reversed(mats):
        t = np.moveaxis(t @ np.expand_dims(mat, tuple(range(1, t.ndim - 2))), -1, 1)
    return t


def quartic_gaps(fs: FrameStack, basis) -> np.ndarray:
    """The certificate of the K_phi identity at each lane of ``fs``, (U,), 16
    lanes at a time: in the horizontal legs h_a of its phi-basis (U, dim,
    2n+1), N_abcd = g([K,K](h_a, phi h_b) phi h_c, h_d) from ``kk_tensor``,
    C_abcd = -2 g(K(h_a, h_b), K(h_c, h_d)) from K alone, and the gap
    max |Sym^4 (N - C)| / max(1, max |C|).  As Q(X, phi X) = |X|^4 there, a
    gap within 1e-9 makes K_phi its closed form -2 |K(X,X)|^2 / |X|^4 <= 0 at
    every horizontal X.  A NaN gap (an overflowing [K,K]) decides nothing."""
    def gaps(g, phi, k, h):
        ph, m = phi @ h, h.shape[-1]
        n = _in_basis(kk_tensor(k), (g @ h, ph, h, ph))         # N as [d, c, a, b]
        kh = _in_basis(k, (h, h)).reshape(len(k), m * m, k.shape[-1])     # K(h_a, h_b) as [ab, i]
        c = -2.0 * (kh @ g @ np.swapaxes(kh, -1, -2)).reshape(n.shape)
        sym = n - c
        for r in (2, 3, 4):     # Sym^4 as coset sums: the last two axes, three, four
            sym = sum(sym.swapaxes(-r, j - r) for j in range(r))
        return max_abs(sym) / 24.0 / np.maximum(1.0, max_abs(c))
    return per_16_lanes(gaps, fs.g, fs.phi, fs.K, basis[..., :-1])


class PlainSweep(NamedTuple):
    """Per lane of the (P, dim) ``point``, read-only: its phi-basis (U, dim,
    2n+1), its FrameError or None, and the sweep of its legs and mixtures
    with its certificate, (U, S) each; ``lane`` (P,) is each point's lane."""

    point: np.ndarray
    basis: np.ndarray
    error: np.ndarray
    eta: np.ndarray
    q: np.ndarray
    value: np.ndarray
    closed: np.ndarray
    status: np.ndarray
    lane: Optional[np.ndarray] = None


def plain_sweep(m: ChartManifold, pts) -> PlainSweep:
    """The PlainSweep of ``pts`` from one pass over the lanes of their frames,
    a part of the chart's store (``ChartManifold.kept``); a lane whose
    sections pass and whose ``quartic_gaps`` exceeds 1e-9 is UNCERTIFIED at
    its first.  It raises nothing and is logged at debug level."""
    fs, start = m.frame_stack(pts), time.perf_counter()
    with np.errstate(all="ignore"):
        basis, errors = phi_basis(fs.g, fs.phi, fs.xi)
        sweep = section_sweep(fs, _plain_blocks(basis))
        status = sweep.status
        status[(status == OK).all(axis=1) & (quartic_gaps(fs, basis) > 1e-9), 0] = UNCERTIFIED
    log.debug("plain sweep grid pass: %d points on %d lanes in %.3f s", len(pts), len(basis),
              time.perf_counter() - start)
    return PlainSweep(pts, basis, np.array(errors, dtype=object), sweep.eta, sweep.q,
                      sweep.value, sweep.closed, status, fs.lane)


def phi_sweep(plain: PlainSweep, fs: FrameStack) -> SectionSweep:
    """The sweep of every point of ``fs``: ``plain``, the kept ``plain_sweep``
    of those points, read at each point, whose ``blocks()`` builds the legs
    and mixtures of each lane when called.  Raises the first basis error of
    those points, with its lane's first point as its ``lane``."""
    for error, point in zip(plain.error, fs.lane_points):
        if error is not None:
            exc = type(error)(*error.args)      # the kept error never holds a traceback
            exc.lane = point.tolist()
            raise exc
    eta, q, value, closed, status = (at_points(a, fs.lane, len(fs.point)) for a in plain[3:8])

    def blocks():
        return [(x, contract(fs.phi[:, None], x)) for x in _plain_blocks(plain.basis)]
    return SectionSweep(fs.point, eta, q, value, closed, None, None, status, blocks, fs.lane)


def _k_phi(sweep: SectionSweep) -> np.ndarray:
    """max |K_phi| over the sections of each point, or the error of the first
    pair that fails, in point order."""
    failed = np.argwhere(sweep.status != OK)
    if len(failed):
        raise sweep.error(*failed[0])
    return np.max(np.abs(sweep.value), axis=1)


def replay(run, points):
    """``run(points)``, an audit that takes each step for all points at once
    and raises at the first step that fails, naming as the error's ``lane``
    the first point where it fails (``manifold.lane_pass``,
    ``report.raise_first``, ``SectionSweep.error``).  The error that
    surfaces is the one a per-point loop meets first: when it names
    ``points[i]``, i > 0, ``replay`` runs the points before it, whose error,
    if any, surfaces instead; an error naming no point surfaces as it is.
    Each step acts on each point alone, so a point before i fails, if at
    all, at a later step: each rerun fails at a later step or passes."""
    try:
        return run(points)
    except Exception as exc:
        keys = [np.asarray(p, dtype=float).tobytes() for p in points]
        at = np.asarray(getattr(exc, "lane", []), dtype=float).tobytes()    # b"": no point
        i = keys.index(at) if at in keys else 0
        if i:
            log.debug("replay: the %d points before %s after %s", i, exc.lane, exc)
            replay(run, points[:i])
        raise


def _section_triples(m: ChartManifold, frames: FrameStack, sweep: SectionSweep):
    """(K^S, K^0, K_phi) of each section of each point, (P, S, 3), with the
    checks of a sectional triple: the horizontality of the first section,
    the statistical curvature of the point, and for each section the plane
    check of ``sectional_curvature``, the K_phi checks and the additivity
    K^S = K^0 + K_phi (to 1e-6 relative)."""
    vertical = np.flatnonzero(np.isin(sweep.status[:, 0], (NOT_HORIZONTAL, NEGLIGIBLE)))
    if vertical.size:
        raise sweep.error(vertical[0], 0)
    sweep = sweep.with_curvatures(frames.g, statistical_curvatures(m, frames.point))
    k_s, k_0, k_phi = sweep.k_s, sweep.k_0, sweep.value
    with np.errstate(all="ignore"):
        additive = np.abs(k_s - (k_0 + k_phi)) <= 1e-6 * np.maximum(1.0, np.abs(k_s))
    failed = np.argwhere((sweep.status != OK) | ~additive)
    if len(failed):
        i, j = failed[0]
        if sweep.status[i, j] != OK:
            raise sweep.error(i, j, plane=True)
        exc = CrossCheckError(f"sectional additivity fails: {float(k_s[i, j])} vs "
                              f"{float(k_0[i, j])} + {float(k_phi[i, j])}")
        exc.lane = sweep.point[i].tolist()
        raise exc
    return np.stack([k_s, k_0, k_phi], axis=-1)


def phi_sectional_triples(m: ChartManifold, points, section=None, lambda_tol: float = 1e-6):
    """(lambda (P,), triples (P, S, 3)): the (K^S, K^0, K_phi) of the legs
    and mixtures of each point's phi-basis, or of the one vector per point
    that ``section(frames)`` gives, (P, dim), from one ``section_sweep``.
    Steps: frames, ``lambda_of``, the kept ``plain_sweep`` (its basis
    errors, then its statuses and certificate) or ``section``, then
    ``_section_triples``; a failure raises through ``replay``."""
    def run(points):
        stack = m.frame_stack(points)
        lams = at_points(lambda_of(stack, lambda_tol), stack.lane, len(points))
        if section is None:
            sweep = phi_sweep(m.kept(plain_sweep, stack.point), stack)
        else:
            rows = stack._replace(**{f: at_points(getattr(stack, f), stack.lane, len(points))
                                     for f in ("g", "phi", "K", "eta")})
            sweep = section_sweep(rows, [section(stack)[:, None]])
        return lams, _section_triples(m, stack, sweep)
    if not len(points):     # no points, no sections: not the (0, S, 3) of a sweep
        return np.zeros(0), np.zeros((0, 0, 3))
    return replay(run, points)


# ---------------------------------------------------------------------------
# theorem audits


def theorem_5_8_audit(m: ChartManifold, points, tol: float = 1e-9, rng=None) -> AuditReport:
    """Evaluate the nine equivalent vanishing conditions independently at
    every sample point and flag any disagreement (which would falsify the
    equivalence, i.e. signal an engine bug or inadmissible input).

    c1 (max |K_phi| over the legs and mixtures, which polarize K(X,X) on
    ker(eta) under the conditions c3-c9 check) and c2 read the kept
    ``plain_sweep``, and c6 one stack of horizontal projections.  Steps,
    through ``replay``: frames, lambda, phi-bases, section statuses and
    certificates, statistical curvature (when it raises, the statuses come
    first, without the sectional values).  ``rng`` is ignored."""
    return replay(lambda pts: _theorem_5_8(m, pts, tol), points)


def _theorem_5_8(m: ChartManifold, pts, tol) -> AuditReport:
    fs = m.frame_stack(pts)
    points, lane = len(pts), fs.lane
    lams = lambda_of(fs, max(tol, 1e-6))
    sweep = phi_sweep(m.kept(plain_sweep, fs.point), fs)
    try:
        curvatures = statistical_curvatures(m, pts)
    except Exception:
        _k_phi(sweep)     # the statuses come first
        raise
    sweep = sweep.with_curvatures(fs.g, curvatures)
    k_phi = _k_phi(sweep)
    horiz, keep_h = horizontal_projections(fs)
    vecs = np.array(frame_vectors(m.dim))
    with np.errstate(all="ignore"):
        kvv = _k_pairs(fs.K, vecs, vecs)
        kvv_h = _k_pairs(fs.K, horiz, horiz)
        phiv = vecs @ np.swapaxes(fs.phi, 1, 2)
        residuals = {
            "c1_kphi_zero": k_phi,
            "c2_statistical_equals_riemannian": np.max(np.abs(sweep.k_s - sweep.k_0),
                                                       axis=1, initial=0.0),
            "c3_K_is_lambda_eta_eta_xi": max_abs(fs.K - lams[:, None, None, None] * np.einsum(
                "...i,...j,...k->...ijk", fs.xi, fs.eta, fs.eta)),
            "c4_kk_bracket_zero": curvatures.kk_max,
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
    stacked = np.array(list(oks.values()))
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
def lemma_5_6_residuals(fs: FrameStack, d0_phi) -> np.ndarray:
    """Max residual of (nabla^0_X phi)Y = (nabla_X phi)Y + 2 phi K(X,Y) over
    all frame pairs at each lane of ``fs``, (L,), from ``d0_phi``, nabla^0
    phi at those lanes (``contact.nabla0_phi``)."""
    d1 = covariant_derivative_11(fs.gamma0 + fs.K, fs.phi, fs.dphi)
    phi_k = np.swapaxes(first_slot(fs.phi, fs.K), -3, -2)        # phi K(e_a, e_k) as [a, i, k]
    return max_abs(d0_phi - d1 - 2.0 * phi_k)


@np.errstate(all="ignore")
def geodesic_norms(fs: FrameStack):
    """(||nabla^0_xi xi||, ||nabla_xi xi||) at each lane of ``fs``, two (U,)."""
    dxi = covariant_derivative_vector(fs.gamma0, fs.xi, fs.dxi)   # [p, i, j]
    v0 = np.einsum("...ij,...i->...j", dxi, fs.xi)
    v1 = v0 + contract(contract(fs.K, fs.xi), fs.xi)
    return norms(fs.g, v0), norms(fs.g, v1)


def prop_5_2_residuals(m: ChartManifold, fs: FrameStack):
    """At each lane of ``fs``, (L,) each: max |S - R^0 - [K,K]|
    (Proposition 5.2) and max |g(R(e_k, e_l) e_j, e_a) + g(e_j, R-bar(e_k,
    e_l) e_a)| (the conjugate duality of the curvatures), the maxima the
    curvature pass keeps beside S and R^0 (``_curvature_parts``).  The
    statistical curvature raises as in ``statistical_curvatures``."""
    curvatures = statistical_curvatures(m, fs.point)
    return curvatures.cross, curvatures.duality


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


def phi_compat_check(m: ChartManifold, points, tol: float = 1e-9, rng=None) -> AuditReport:
    """phi-compatibility of the statistical connection, decided by three
    independent formulations that must agree; when compatible, the forced
    consequences (cosymplectic, vanishing phi-sectional K-curvature, and
    xi-parallel covariant derivatives of xi) are asserted as well.  The
    K_phi consequence of the compatible points reads their rows of the
    kept ``plain_sweep``.  Steps, through ``replay``: frames, then the
    phi-bases, statuses and certificates of the compatible points.  ``rng``
    is ignored."""
    return replay(lambda pts: _phi_compat(m, pts, tol), points)


def _phi_compat(m: ChartManifold, pts, tol) -> AuditReport:
    fs = m.frame_stack(pts)
    points, lane = len(pts), fs.lane
    d0_phi = m.kept(nabla0_phi, pts)
    res = _compat_residuals(fs, d0_phi)
    oks = res <= tol
    compatible = oks.all(axis=0)
    at = at_points(compatible, lane, points)
    k_phi = np.zeros(points)
    if at.any():
        rows = np.flatnonzero(at)
        k_phi[at] = _k_phi(phi_sweep(lane_rows(m.kept(plain_sweep, fs.point), rows, lane),
                                     lane_rows(fs, rows, lane)))
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
    for i in np.flatnonzero(disagree):
        rep.flag(f"phi-compatibility formulations disagree at {list(map(float, pts[i]))}")
    return rep


def is_phi_compatible(report: AuditReport) -> bool:
    return all(bool(v) for c, v in zip(report.checks, report.values)
               if c == "phi_compat/compatible")


def psi_check(m: ChartManifold, point, tol: float = 1e-9,
              compat_report: AuditReport = None) -> AuditReport:
    """The 2-form family Psi_X(Y,Z) = (nabla_X g)(Y, phi Z) and its identities
    under phi-compatibility, at one point or, for a (P, dim) sequence of
    points, at each of them (no points give an empty report), K_phi from
    the plain sections of the kept ``plain_sweep``.  Raises
    PreconditionNotMetError when the structure is not phi-compatible at the
    points (``compat_report``, else a ``phi_compat_check`` of them); then the
    steps, through ``replay``, are frames, phi-bases and section statuses."""
    points = [point] if np.ndim(point) == 1 and len(point) else point
    if compat_report is None:
        compat_report = phi_compat_check(m, points, tol=max(tol, 1e-9))
    if not is_phi_compatible(compat_report):
        raise PreconditionNotMetError("structure is not phi-compatible")
    return replay(lambda pts: _psi(m, pts, tol), points)


def _psi(m: ChartManifold, points, tol) -> AuditReport:
    fs = m.frame_stack(points)
    k_phi = _k_phi(phi_sweep(m.kept(plain_sweep, fs.point), fs))
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
