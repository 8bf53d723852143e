"""Coordinate-chart manifolds carrying an almost contact metric structure
and a difference tensor, plus the evaluation frames of their points."""

from __future__ import annotations

import logging
import operator
import time
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .expressions import ExpressionError, NonFiniteError
from .metric import (GeometryError, MetricField, NotPositiveDefiniteError, christoffel_from,
                     contract, distinct_rows, field_array, field_jet, inner, inv_generic,
                     point_lanes, take_lanes)

log = logging.getLogger(__name__)

GRID_CAP = 243      # the most points a sample grid keeps


def _finite(name, arr) -> np.ndarray:
    """NonFiniteError if any entry of an evaluated field array is inf or nan
    (checked once per array, not per scalar)."""
    if np.count_nonzero(np.isfinite(arr)) < arr.size:   # cheaper than .all()
        raise NonFiniteError(f"{name} is not finite")
    return arr


def _linspace_at(lo: float, hi: float, k: int, idx: np.ndarray) -> np.ndarray:
    """``np.linspace(lo, hi, k)[idx]`` at the integer indices ``idx`` alone:
    the float operations linspace takes on those entries (its branch for a
    step that underflows to zero and its exact endpoint included), so the
    same bits."""
    start, stop = np.float64(lo), np.float64(hi)
    delta = stop - start
    y = idx.astype(float)
    div = k - 1
    if div > 0:
        step = delta / div
        y = y / div * delta if step == 0 else y * step
        y += start
        y[idx == div] = stop
    else:
        y = y * delta + start
    return y


def run_lanes(body, lanes):
    """``body(lanes)`` of the (U, dim) ``lanes`` under ``np.errstate(all="ignore")``.
    On an ExpressionError or GeometryError the lanes run alone in lane
    order, each with the bits it has in the batch, and the first that fails
    raises its own error with the lane as its ``lane``; else the batch's."""
    try:
        with np.errstate(all="ignore"):
            return body(lanes)
    except (ExpressionError, GeometryError) as exc:
        if len(lanes) == 1:
            exc.lane = lanes[0].tolist()
            raise
        for lane in lanes:
            run_lanes(body, lane[None])
        raise


def lane_pass(logger, level, what, points, lanes, body):
    """``run_lanes(body, lanes)``, a pass over the (P, dim) ``points`` at
    their (U, dim) ``lanes``, each at its first point.  Its error ends ``at
    [p]`` for the ``lane`` p it names, the first point that fails the pass
    (lanes are numbered in point order), else ``on the grid``.  The pass is
    logged to ``logger`` at ``level``: ``<what> grid pass: failed: <error>``,
    or its points, lanes and seconds."""
    start = time.perf_counter()
    try:
        out = run_lanes(body, lanes)
    except (ExpressionError, GeometryError) as exc:
        exc.args = (f"{exc} " + (f"at {exc.lane}" if hasattr(exc, "lane") else "on the grid"),)
        logger.log(level, "%s grid pass: failed: %s", what, exc)
        raise
    logger.log(level, "%s grid pass: %d points on %d lanes in %.3f s", what, len(points),
               len(lanes), time.perf_counter() - start)
    return out


class PointFrame(NamedTuple):
    """All structure tensors evaluated at one chart point, with the first
    derivatives of g, phi and xi (derivative index first); as a
    ``FrameStack``, the frames of P points, which the batched checks and
    the section sweep read: ``point`` is (P, dim), every field is stacked
    on a leading axis of U lanes, one per distinct value of the coordinates
    the chart's fields read (``ChartManifold.lanes``), and ``lane`` (P,) is
    the lane of each point.  A check over a stack gives one entry per lane,
    which ``report.AuditReport`` reads at each point through ``lane``.  A
    stack built by hand may leave ``lane`` None: one lane per point, or one
    that every point shares.

    The arrays are read-only.
    """

    point: np.ndarray
    g: np.ndarray        # metric, (dim, dim)
    g_inv: np.ndarray
    phi: np.ndarray      # phi^i_j
    xi: np.ndarray       # xi^i
    eta: np.ndarray      # eta_i
    gamma0: np.ndarray   # Levi-Civita Gamma^i_jk
    K: np.ndarray        # difference tensor K^i_jk
    dg: np.ndarray       # d_i g_jk, (dim, dim, dim)
    dphi: np.ndarray     # d_i phi^j_k, (dim, dim, dim)
    dxi: np.ndarray      # d_i xi^j, (dim, dim)
    lane: Optional[np.ndarray] = None   # the lane of each point of a stack

    @classmethod
    def of(cls, frames) -> "FrameStack":
        """The frames stacked on a leading point axis, a lane per point."""
        return cls(*(np.stack(field) for field in zip(*(fr[:-1] for fr in frames))))

    @property
    def dim(self):
        return self.point.shape[-1]

    @property
    def lane_points(self) -> np.ndarray:
        """The (U, dim) first point of each lane, where the passes evaluate it."""
        return self.point[np.unique(self.lane, return_index=True)[1]]

    def inner(self, x, y) -> float:
        return float(inner(self.g, x, y))


FrameStack = PointFrame


def lane_rows(part, rows, lane):
    """The point ``rows`` of ``part``, a pass's lane arrays of points whose
    lanes are ``lane`` (P,): one lane array, or a NamedTuple of them that
    starts with the points and ends with their ``lane``.  The rows keep the
    lanes they use, numbered in the order they meet them; every array is a
    read-only view, and a stride-0 broadcast, such as the flat R^0, stays one."""
    first, sub = distinct_rows(lane[rows])
    used = lane[rows][first]

    def of(a):
        return np.broadcast_to(take_lanes(a, used), (len(used),) + a.shape[1:])
    if isinstance(part, np.ndarray):
        return of(part)
    sub.flags.writeable = False
    point = np.broadcast_to(part.point[rows], (len(sub),) + part.point.shape[1:])
    return type(part)(point, *map(of, part[1:-1]), sub)


def _read_only(part):
    """``part``, one array or a NamedTuple of them, with every array made
    read-only."""
    for a in [part] if isinstance(part, np.ndarray) else part:
        a.flags.writeable = False
    return part


class ChartManifold:
    """An odd-dimensional chart with fields (g, phi, xi, eta, K) attached.

    ``difference`` must expose ``jet(coords, levi_civita)``, K at lane
    coordinates to the order of the Levi-Civita jet it is given, and
    ``reads``, the coordinates its components read, found when it was
    built; see :mod:`acsgeo.statistical`.

    ``kept`` stores one part per pass of the last points asked for, each
    array of it read-only: the frames of ``frame_stack``, the curvatures of
    ``curvature.statistical_curvatures`` (S, R^0 and three maxima per lane;
    the one-point ``statistical_curvature`` recomputes [K,K], R and R-bar
    at its lane), ``contact.nabla0_phi`` and the ``curvature.plain_sweep``
    of the phi-bases' legs and mixtures, one row per lane.
    A request for some of those points reads the rows of a kept part, so
    ``frame_at`` and the one-point functions after a grid run take no pass;
    one for a part that is not kept runs its pass over them alone and keeps
    it beside the kept parts, as a part of the last such points, so a
    ``replay`` rerun of the points before a failing one reads the kept
    frames and a repeated request takes no second pass.  A failing pass
    keeps nothing and names its first failing point (``lane_pass``).

    ``reads`` is found once, when the chart is built: the sorted indices
    of the coordinates that g, phi, xi, eta (when given) and K, or the
    connection table behind it, read.  The fields at a point, and so its
    curvatures, depend on those coordinates alone, so the passes evaluate
    one lane per distinct value of them, at the first point that takes it,
    and their stacks carry the lane of each point.  The frame pass finds
    the lanes (``lanes``); every other pass and every row read of a kept
    part takes them from the frames.  A point alone gets the bits it gets
    in a grid, so a lane serves each of its points bit for bit.  A chart
    that reads no coordinate is constant (``is_constant``): one lane serves
    every point.
    """

    def __init__(self, coord_names: Sequence[str], metric: MetricField,
                 phi, xi, difference, eta=None, box=None, grid: int = 3,
                 name: str = ""):
        self.coords = tuple(coord_names)
        dim = len(self.coords)
        if dim % 2 == 0 or dim < 3:
            raise ValueError(f"chart dimension must be odd and >= 3, got {dim}")
        if metric.dim != dim:
            raise ValueError("metric dimension mismatch")
        self.metric = metric
        memo = {}       # phi, xi and eta parse each distinct text once
        self.phi = field_array(phi, self.coords, memo)
        self.xi = field_array(xi, self.coords, memo)
        self.eta = None if eta is None else field_array(eta, self.coords, memo)
        self.difference = difference
        self.box = [(float(lo), float(hi)) for lo, hi in box] if box is not None \
            else [(-1.0, 1.0)] * dim
        if len(self.box) != dim:
            raise ValueError("sampling box must have one interval per coordinate")
        self.grid = int(grid)
        self.name = name
        self.reads = tuple(sorted(set(metric.reads).union(
            self.phi.reads, self.xi.reads, difference.reads,
            self.eta.reads if self.eta is not None else ())))
        self._kept_points = np.empty((0, dim))     # the points of the kept parts
        self._kept_index = None      # their bytes -> row, once a subset request needs it
        self._kept_parts = {}        # pass function -> its part of those points
        self._subset = b"", {}       # some of them: their bytes and the parts not kept above

    @property
    def dim(self):
        return len(self.coords)

    @property
    def is_constant(self) -> bool:
        """No field reads a coordinate: one lane serves every point."""
        return not self.reads

    def lanes(self, pts):
        """(first, lane) of the (P, dim) ``pts``: points share a lane when the
        coordinates the fields read (``reads``) have the same float64 bytes,
        so -0.0 and 0.0 take two.  ``first`` (U,) is the first point of each
        lane, where the passes evaluate it, and ``lane`` (P,) the lane of
        each point; lanes are numbered in the order the points meet them, so
        lane 0 is point 0's."""
        return distinct_rows(pts[:, list(self.reads)])

    @property
    def n(self):
        return (self.dim - 1) // 2

    def grid_points(self, per_axis: Optional[int] = None) -> np.ndarray:
        """The (P, dim) uniform sample grid over the box, ``per_axis`` points
        per coordinate (default ``grid``), in product order or, above
        GRID_CAP points, GRID_CAP of them at evenly spaced positions of that
        order, which meet every value of every axis.  Coordinates are
        computed at the kept points alone, each bit for bit the entry of
        ``np.linspace(lo, hi, per_axis)`` it takes, so any grid costs at most
        GRID_CAP points; the positions are exact integers at any size."""
        k = operator.index(self.grid if per_axis is None else per_axis)
        if k < 0:
            raise ValueError(f"a grid needs a non-negative count per axis, got {k}")
        total = k ** self.dim
        if total <= GRID_CAP:
            picks = np.arange(total)
        else:
            # int64 while the products fit, else Python integers
            exact = np.int64 if (GRID_CAP - 1) * total < 2 ** 63 else object
            picks = np.arange(GRID_CAP, dtype=exact) * (total - 1) // (GRID_CAP - 1)
        pts = np.empty((len(picks), self.dim))
        for n, (lo, hi) in enumerate(self.box):
            pts[:, n] = _linspace_at(lo, hi, k, picks // k ** (self.dim - 1 - n) % k)
        return pts

    def _fields(self, coords):
        """The PointFrame fields after ``point`` at the (P,) lane coordinates
        ``coords``, as read-only float arrays with the lane axis first: one
        first-order walk of g, phi and xi and one value walk of eta and K.
        The fields are checked in a fixed order, values first and then the
        derivatives and Gamma^0, so the first error is the one the failing
        point raises alone."""
        metric = self.metric
        g, dg = field_jet(metric.components, coords, 1)
        _finite("metric", g)
        g_inv = inv_generic(g)      # the only singularity gate when the metric is constant
        if (np.linalg.eigvalsh(g)[:, 0] <= 0.0).any():
            raise NotPositiveDefiniteError("metric is not positive definite")
        phi, dphi = field_jet(self.phi, coords, 1)
        _finite("phi", phi)
        xi, dxi = field_jet(self.xi, coords, 1)
        _finite("xi", xi)
        if self.eta is not None:
            eta = _finite("eta", field_jet(self.eta, coords, 0)[0])
        else:
            eta = contract(g, xi)
        gamma0 = np.broadcast_to(0.0, (len(g),) + (self.dim,) * 3) if metric.is_constant \
            else christoffel_from(g_inv, dg)
        k = _finite("K", self.difference.jet(coords, (gamma0,))[0])
        for name, arr in (("metric derivative", dg), ("Levi-Civita connection", gamma0),
                          ("phi derivative", dphi), ("xi derivative", dxi)):
            _finite(name, arr)
        return g, g_inv, phi, xi, eta, gamma0, k, dg, dphi, dxi

    def _frames(self, pts) -> FrameStack:
        """The FrameStack of the (P, dim) ``pts`` from one pass over their
        ``lanes``, logged at debug level.  Raises the fields' errors
        (``lane_pass``)."""
        first, lane = self.lanes(pts)
        fields = lane_pass(log, logging.DEBUG, "frame", pts, pts[first],
                           lambda lanes: self._fields(point_lanes(lanes)))
        return FrameStack(pts, *fields, lane)

    @property
    def _frame_cache(self) -> dict:
        """The points of the kept frame part, each once in row order, as the
        keys of a dict; {} when no frame part is kept.  Only bench/tracer.py
        reads it, for its length."""
        frames = self._kept_parts.get(ChartManifold._frames)
        return {} if frames is None else dict.fromkeys(map(tuple, frames.point.tolist()))

    def frame_at(self, point) -> PointFrame:
        """The frame of one point: row 0 of ``frame_stack([point])``."""
        return PointFrame(*(a[0] for a in self.frame_stack([point])[:-1]))

    def kept(self, pass_fn, points):
        """``pass_fn(self, pts)`` of the (P, dim) ``pts`` of ``points``, made read-only: the
        part kept for them, its ``lane_rows`` when all are kept points (matched by bytes,
        through an index built once per kept point set, read at the lanes of the kept
        frames), else a new pass.  A pass over kept points whose part is not kept, such as a
        ``replay`` rerun of the points before a failing one, is kept beside the kept parts,
        as a part of the last such points asked for; any other is kept beside their parts or
        in place of other points'.  A pass that raises keeps nothing."""
        pts = np.array(points, dtype=float).reshape(len(points), self.dim)
        key = pts.tobytes()
        if key != self._kept_points.tobytes():
            if self._kept_parts:
                if self._kept_index is None:
                    self._kept_index = {p.tobytes(): i for i, p in enumerate(self._kept_points)}
                rows = [self._kept_index.get(p.tobytes()) for p in pts]
                if None not in rows:
                    if pass_fn in self._kept_parts:
                        return lane_rows(self._kept_parts[pass_fn], rows,
                                         self._kept_parts[ChartManifold._frames].lane)
                    if self._subset[0] != key:
                        self._subset = key, {}
                    parts = self._subset[1]
                    if pass_fn not in parts:
                        parts[pass_fn] = _read_only(pass_fn(self, pts))
                    return parts[pass_fn]
            self._kept_points, self._kept_parts = pts, {}
            self._kept_index, self._subset = None, (b"", {})
        if pass_fn not in self._kept_parts:
            self._kept_parts[pass_fn] = _read_only(pass_fn(self, self._kept_points))
        return self._kept_parts[pass_fn]

    def frame_stack(self, points) -> FrameStack:
        """The FrameStack of ``points``, the part of ``_frames`` that ``kept``
        gives.  A pass that fails raises the error of its first failing point;
        a caller that must raise what a per-point loop meets first, over this
        and later steps, runs under ``curvature.replay``."""
        return self.kept(ChartManifold._frames, points)
