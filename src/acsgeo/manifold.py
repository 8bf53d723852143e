"""Coordinate-chart manifolds carrying an almost contact metric structure
and a difference tensor, plus the evaluation frames of their points."""

from __future__ import annotations

import logging
import time
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .expressions import ExpressionError, NonFiniteError, ScalarField, parse_expression
from .metric import (FieldArray, GeometryError, MetricField, NotPositiveDefiniteError,
                     SingularMetricError, christoffel_from, field_jet, inner, inv_generic,
                     point_lanes)

log = logging.getLogger(__name__)

GRID_CAP = 243      # the most points a sample grid keeps


def _as_fields(entries, coord_names):
    """Recursively convert a nested array of strings/numbers to ScalarFields."""
    if isinstance(entries, ScalarField):
        return entries
    if isinstance(entries, str):
        return parse_expression(entries, coord_names)
    if isinstance(entries, (int, float)):
        return parse_expression(repr(float(entries)), coord_names)
    return [_as_fields(e, coord_names) for e in entries]


def _finite(name, arr, where) -> np.ndarray:
    """NonFiniteError if any entry of an evaluated field array is inf or nan
    (checked once per array, not per scalar)."""
    if np.count_nonzero(np.isfinite(arr)) < arr.size:   # cheaper than .all()
        raise NonFiniteError(f"{name} is not finite {where}")
    return arr


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

    def select(self, mask) -> "FrameStack":
        """The frames of the points where the (P,) ``mask`` holds; a shared
        lane stays shared."""
        lanes = len(self.g) == len(self.point)
        return FrameStack(self.point[mask], *(a[mask] if lanes else a for a in self[1:]))

    def inner(self, x, y) -> float:
        return float(inner(self.g, x, y))

    def norm(self, x) -> float:
        return float(np.sqrt(max(self.inner(x, x), 0.0)))

    def eta_of(self, x) -> float:
        return float(self.eta @ np.asarray(x))

    def apply_k(self, x, y) -> np.ndarray:
        return (self.K @ np.asarray(y)) @ np.asarray(x)


FrameStack = PointFrame


class ChartManifold:
    """An odd-dimensional chart with fields (g, phi, xi, eta, K) attached.

    ``difference`` must expose ``jet(coords, levi_civita)``, K at lane
    coordinates to the order of the Levi-Civita jet it is given, and
    ``is_constant``, the constancy of its components decided when it was
    built; see :mod:`acsgeo.statistical`.

    ``frame_stack`` evaluates the fields of a list of points in one lane
    pass and keeps it; ``frame_at`` is a pass of one lane, so a point alone
    gets the same frame.  ``curvature.statistical_curvatures`` keeps the
    statistical curvature of its last pass the same way.

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
        self.phi = FieldArray(_as_fields(phi, self.coords))
        self.xi = FieldArray(_as_fields(xi, self.coords))
        self.eta = FieldArray(_as_fields(eta, self.coords)) if eta is not None else None
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
        self._frame_cache = {}       # the frame of each point a pass evaluated
        self._stack = None           # the FrameStack of the last frame pass
        self._curvatures = None      # the CurvatureStack of the last curvature pass

    @property
    def dim(self):
        return len(self.coords)

    @property
    def n(self):
        return (self.dim - 1) // 2

    def grid_points(self, per_axis: Optional[int] = None):
        """Uniform sample grid over the box in product order or, above
        GRID_CAP points, GRID_CAP of them at evenly spaced positions of that
        order, which meet every value of every axis."""
        k = self.grid if per_axis is None else per_axis
        axes = [np.linspace(lo, hi, k) for lo, hi in self.box]
        total = k ** self.dim
        picks = range(total) if total <= GRID_CAP else \
            [i * (total - 1) // (GRID_CAP - 1) for i in range(GRID_CAP)]
        return [np.array([axis[q // k ** (self.dim - 1 - n) % k] for n, axis in enumerate(axes)])
                for q in picks]

    def _fields(self, coords, where):
        """The PointFrame fields after ``point`` at the (P,) lane coordinates
        ``coords``, as read-only float arrays with the lane axis first: one
        first-order walk of g, phi and xi and one value walk of eta and K.
        The fields are checked in a fixed order, values first and then the
        derivatives and Gamma^0, so the first error is the one the failing
        point raises alone."""
        metric = self.metric
        g, dg = field_jet(metric.components, coords, 1)
        _finite("metric", g, where)
        # the only singularity gate when the metric is constant
        try:
            g_inv = inv_generic(g)
        except SingularMetricError as exc:
            raise SingularMetricError(f"{exc} {where}") from None
        if (np.linalg.eigvalsh(g)[:, 0] <= 0.0).any():
            raise NotPositiveDefiniteError(f"metric is not positive definite {where}")
        phi, dphi = field_jet(self.phi, coords, 1)
        _finite("phi", phi, where)
        xi, dxi = field_jet(self.xi, coords, 1)
        _finite("xi", xi, where)
        if self.eta is not None:
            eta = _finite("eta", field_jet(self.eta, coords, 0)[0], where)
        else:
            eta = np.array([gp @ xp for gp, xp in zip(g, xi)])
        gamma0 = np.broadcast_to(0.0, (len(g),) + (self.dim,) * 3) if metric.is_constant \
            else christoffel_from(g_inv, dg)
        k = _finite("K", self.difference.jet(coords, (gamma0,))[0], where)
        for name, arr in (("metric derivative", dg), ("Levi-Civita connection", gamma0),
                          ("phi derivative", dphi), ("xi derivative", dxi)):
            _finite(name, arr, where)
        fields = (g, g_inv, phi, xi, eta, gamma0, k, dg, dphi, dxi)
        for arr in fields:
            arr.flags.writeable = False
        return fields

    def _frames(self, pts, where) -> FrameStack:
        """The FrameStack of the (P, dim) ``pts`` from one pass, one lane per
        point (on a constant chart, the first point's lane alone).  Each
        point's frame, views of its lane, is cached while ``_frame_cache``
        holds fewer than 4096.  Raises the fields' errors, naming ``where``."""
        coords = point_lanes(pts[:1] if self.is_constant else pts)
        # Python floats overflow silently; so do the lanes
        with np.errstate(all="ignore"):
            fields = self._fields(coords, where)
        pts.flags.writeable = False
        frames = zip(pts, *(np.broadcast_to(a, (len(pts),) + a.shape[1:]) for a in fields))
        for key, frame in zip(map(tuple, pts.tolist()), frames):
            if key not in self._frame_cache and len(self._frame_cache) < 4096:
                self._frame_cache[key] = PointFrame(*frame)
        return FrameStack(pts, *fields)

    def frame_at(self, point) -> PointFrame:
        """The frame of one point: the cached one, or a pass of one lane."""
        key = tuple(float(x) for x in point)
        cached = self._frame_cache.get(key)
        return cached if cached is not None else PointFrame(
            *(a[0] for a in self._frames(np.array([key]), f"at {list(key)}")))

    def frame_stack(self, points) -> FrameStack:
        """The FrameStack of the last pass when ``points`` are its points,
        else that of a new pass over them, kept and logged at debug level.
        A pass that fails is not kept: its points run one at a time through
        ``frame_at``, and the first that fails alone raises (if none does,
        the pass's own error)."""
        pts = np.array(points, dtype=float).reshape(len(points), self.dim)
        if self._stack is None or not np.array_equal(pts, self._stack.point):
            self._stack = None
            start = time.perf_counter()
            try:
                self._stack = self._frames(pts, "on the grid")
            except (ExpressionError, GeometryError) as exc:
                log.debug("frame grid pass: fallback to per-point: %s", exc)
                for p in pts:
                    self.frame_at(p)
                raise
            log.debug("frame grid pass: %d points in %.3f s", len(pts), time.perf_counter() - start)
        return self._stack
