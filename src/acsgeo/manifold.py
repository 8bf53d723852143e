"""Coordinate-chart manifolds carrying an almost contact metric structure
and a difference tensor, plus the evaluation frames of their points."""

from __future__ import annotations

import logging
import operator
import time
from contextlib import contextmanager
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .expressions import ExpressionError, NonFiniteError
from .metric import (FieldArray, GeometryError, MetricField, NotPositiveDefiniteError, _as_fields,
                     christoffel_from, contract, field_jet, inner, inv_generic, point_lanes)

log = logging.getLogger(__name__)

GRID_CAP = 243      # the most points a sample grid keeps
FRAME_CACHE_CAP = 4096      # the most points ``_frame_cache`` holds


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


@contextmanager
def named_pass(lanes):
    """A pass over the (L, dim) ``lanes``: an ExpressionError or GeometryError
    it raises ends with ``at [p]`` for one lane, which it keeps as its
    ``lane`` attribute, else ``on the grid``."""
    try:
        yield
    except (ExpressionError, GeometryError) as exc:
        where = "on the grid"
        if len(lanes) == 1:
            exc.lane = lanes[0].tolist()
            where = f"at {exc.lane}"
        exc.args = (f"{exc} {where}",)
        raise


class PointFrame(NamedTuple):
    """All structure tensors evaluated at one chart point, with the first
    derivatives of g, phi and xi (derivative index first); as a
    ``FrameStack``, the frames of P points, which the batched checks and
    the section sweep read: ``point`` is (P, dim) and every field is
    stacked on a leading lane axis, with one lane per point or, on a
    constant chart, one lane that all P points share.  A check over a
    stack gives one entry per lane, and ``report.AuditReport`` broadcasts
    a one-lane column to the points.

    The arrays are read-only: the frames of a pass are views of one lane
    array per field.
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

    @classmethod
    def of(cls, frames) -> "FrameStack":
        """The frames stacked on a leading point axis."""
        return cls(*(np.stack(field) for field in zip(*frames)))

    @property
    def dim(self):
        return self.point.shape[-1]

    def inner(self, x, y) -> float:
        return float(inner(self.g, x, y))

    def norm(self, x) -> float:
        return float(np.sqrt(max(self.inner(x, x), 0.0)))

    def eta_of(self, x) -> float:
        return float(self.eta @ np.asarray(x))

    def apply_k(self, x, y) -> np.ndarray:
        return (self.K @ np.asarray(y)) @ np.asarray(x)


FrameStack = PointFrame


def lane_rows(part, rows, points: int):
    """The point ``rows`` of ``part``, a pass's lane arrays of ``points`` points
    (a NamedTuple of them, or one), read-only; a lane the points share stays one."""
    def of(a):
        if len(a) != points:        # the one lane of a constant chart
            return a[:min(len(rows), 1)]
        # a read-only view; a stride-0 broadcast, such as the flat R^0, stays one
        return np.broadcast_to(a[rows] if a.strides[0] else a[:1], (len(rows),) + a.shape[1:])
    return of(part) if isinstance(part, np.ndarray) else type(part)(*map(of, part))


class ChartManifold:
    """An odd-dimensional chart with fields (g, phi, xi, eta, K) attached.

    ``difference`` must expose ``jet(coords, levi_civita)``, K at lane
    coordinates to the order of the Levi-Civita jet it is given, and
    ``is_constant``, the constancy of its components decided when it was
    built; see :mod:`acsgeo.statistical`.

    ``kept`` stores one part per pass of the last points asked for: the
    frames of ``frame_stack``, the curvatures of
    ``curvature.statistical_curvatures`` and ``contact.nabla0_phi_pass``.
    A request for some of those points reads the rows of a kept part, so
    ``frame_at`` and the one-point functions after a grid run take no pass.
    A failing pass keeps nothing and ``curvature.replay`` localises it.

    ``is_constant`` is decided once, when the chart is built, from the
    build-time constancy of g, phi, xi, eta (when given) and K.  The
    fields of a constant chart, and so its curvatures, are the same at
    every point: its frame and curvature passes evaluate the first point's
    lane alone, and their stacks carry that one lane for all their points.
    A point alone gets the bits it gets in a grid, so the lane serves
    every point bit for bit.
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
        self.phi = FieldArray(_as_fields(phi, self.coords, memo))
        self.xi = FieldArray(_as_fields(xi, self.coords, memo))
        self.eta = FieldArray(_as_fields(eta, self.coords, memo)) if eta is not None else None
        self.difference = difference
        self.box = [(float(lo), float(hi)) for lo, hi in box] if box is not None \
            else [(-1.0, 1.0)] * dim
        if len(self.box) != dim:
            raise ValueError("sampling box must have one interval per coordinate")
        self.grid = int(grid)
        self.name = name
        self.is_constant = (metric.is_constant and self.phi.is_constant
                            and self.xi.is_constant and difference.is_constant
                            and (self.eta is None or self.eta.is_constant))
        self._frame_passes = []      # the (P, dim) points of the passes not yet in _frame_dict
        self._frame_pass_points = 0  # how many points those are
        self._frame_dict = {}        # point -> None, the first FRAME_CACHE_CAP points met
        self._kept_points = np.empty((0, dim))     # the points of the kept parts
        self._kept_parts = {}        # pass function -> its part of those points

    @property
    def dim(self):
        return len(self.coords)

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
        fields = (g, g_inv, phi, xi, eta, gamma0, k, dg, dphi, dxi)
        for arr in fields:
            arr.flags.writeable = False
        return fields

    def _frames(self, pts) -> FrameStack:
        """The FrameStack of the (P, dim) ``pts`` from one pass, one lane per
        point (on a constant chart, the first point's lane alone).  The points
        of a pass that passes are recorded for ``_frame_cache`` until it is
        full.  Raises the fields' errors (``named_pass``)."""
        lanes = pts[:1] if self.is_constant else pts
        # Python floats overflow silently; so do the lanes
        with named_pass(lanes), np.errstate(all="ignore"):
            fields = self._fields(point_lanes(lanes))
        pts.flags.writeable = False
        if len(self._frame_dict) < FRAME_CACHE_CAP:
            self._frame_passes.append(pts)
            self._frame_pass_points += len(pts)
            if len(self._frame_dict) + self._frame_pass_points >= FRAME_CACHE_CAP:
                self._fold_frame_passes()
        return FrameStack(pts, *fields)

    def _fold_frame_passes(self):
        """Adds the points of the recorded passes to ``_frame_dict``, in pass
        order, while it holds fewer than FRAME_CACHE_CAP."""
        for pts in self._frame_passes:
            for key in map(tuple, pts.tolist()):
                if len(self._frame_dict) == FRAME_CACHE_CAP:
                    break
                self._frame_dict[key] = None    # a point met before keeps its place
        self._frame_passes, self._frame_pass_points = [], 0

    @property
    def _frame_cache(self) -> dict:
        """The points the passes of ``_frames`` met, each once, at most
        FRAME_CACHE_CAP in the order met, as the keys of a dict; built when
        read.  Only bench/tracer.py reads it, for its length."""
        self._fold_frame_passes()
        return self._frame_dict

    def frame_at(self, point) -> PointFrame:
        """The frame of one point: row 0 of ``frame_stack([point])``."""
        return PointFrame(*(a[0] for a in self.frame_stack([point])))

    def kept(self, pass_fn, points):
        """``pass_fn(self, pts)`` of the (P, dim) ``pts`` of ``points``: the part kept for
        them, its ``lane_rows`` when all are kept points (matched by bytes), else a new pass,
        kept beside their parts or in place of other points'; a pass that raises keeps nothing."""
        pts = np.array(points, dtype=float).reshape(len(points), self.dim)
        if pts.tobytes() != self._kept_points.tobytes():
            if pass_fn in self._kept_parts:
                index = {p.tobytes(): i for i, p in enumerate(self._kept_points)}
                rows = [index.get(p.tobytes()) for p in pts]
                if None not in rows:
                    return lane_rows(self._kept_parts[pass_fn], rows, len(self._kept_points))
            self._kept_points, self._kept_parts = pts, {}
        if pass_fn not in self._kept_parts:
            self._kept_parts[pass_fn] = pass_fn(self, self._kept_points)
        return self._kept_parts[pass_fn]

    def frame_stack(self, points) -> FrameStack:
        """The FrameStack of ``points``, the part of ``_frame_pass`` that ``kept``
        gives.  A pass that fails raises its own error; a caller that must name
        the point a per-point loop meets first runs under ``curvature.replay``."""
        return self.kept(ChartManifold._frame_pass, points)

    def _frame_pass(self, pts) -> FrameStack:
        """``_frames`` of ``pts``, logged at debug level."""
        start = time.perf_counter()
        try:
            stack = self._frames(pts)
        except (ExpressionError, GeometryError) as exc:
            log.debug("frame grid pass: failed: %s", exc)
            raise
        log.debug("frame grid pass: %d points in %.3f s", len(pts), time.perf_counter() - start)
        return stack
