"""Coordinate-chart manifolds carrying an almost contact metric structure
and a difference tensor, plus pointwise evaluation frames."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .expressions import NonFiniteError, ScalarField, parse_expression
from .metric import (FieldArray, MetricField, NotPositiveDefiniteError,
                     christoffel_from, field_first_derivatives, field_values,
                     inner, inv_generic, lane_array, lane_zeros)

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


def _derivatives(fields, coords, lanes):
    """d_i of a FieldArray as a float array, derivative index first after
    the lane axis; zeros when the fields are constant."""
    dim = len(coords)
    if fields.is_constant:
        return lane_zeros((dim,) + np.shape(fields), lanes)
    return lane_array(field_first_derivatives(fields, coords, dim), lanes)


@dataclass(frozen=True)
class PointFrame:
    """All structure tensors evaluated at one chart point, with the first
    derivatives of g, phi and xi (derivative index first).

    The arrays are read-only: the frames that ``ChartManifold.frame_grid``
    caches are views of one lane array per field.
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

    @property
    def dim(self):
        return len(self.point)

    def inner(self, x, y) -> float:
        return float(inner(self.g, x, y))

    def norm(self, x) -> float:
        return float(np.sqrt(max(self.inner(x, x), 0.0)))

    def eta_of(self, x) -> float:
        return float(self.eta @ np.asarray(x))

    def apply_k(self, x, y) -> np.ndarray:
        return (self.K @ np.asarray(y)) @ np.asarray(x)


class FrameStack(NamedTuple):
    """The fields of P frames that a section sweep reads, stacked on a
    leading point axis."""

    point: np.ndarray    # (P, dim)
    g: np.ndarray        # (P, dim, dim)
    phi: np.ndarray      # (P, dim, dim)
    xi: np.ndarray       # (P, dim)
    eta: np.ndarray      # (P, dim)
    K: np.ndarray        # (P, dim, dim, dim)

    @classmethod
    def of(cls, frames) -> "FrameStack":
        return cls(*(np.stack([getattr(fr, name) for fr in frames])
                     for name in cls._fields))


class ChartManifold:
    """An odd-dimensional chart with fields (g, phi, xi, eta, K) attached.

    ``difference`` must expose ``components(coords)`` (generic scalars:
    floats, lane arrays or Duals) and ``is_constant``, the constancy of its
    components decided when it was built; see :mod:`acsgeo.statistical`.

    ``frame_grid`` evaluates the fields of a whole sample grid into
    ``PointFrame``s in one lane pass and caches them; ``frame_at`` is a pass
    of one lane, so a point alone gets the same frame.  Every CLI verb runs
    the frame pass; ``audit`` and ``curvature`` also fill
    ``_curvature_cache`` in one pass (``curvature.statistical_curvature_grid``).
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
        self._frame_cache = {}       # filled by frame_at and frame_grid
        self._curvature_cache = {}   # filled by curvature.statistical_curvature

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
        ``coords``, as read-only float arrays with the lane axis first.  The
        fields are evaluated, and checked for finiteness, in a fixed order,
        so the first error is the one the failing point raises alone."""
        lanes = len(coords[0])
        metric = self.metric
        g_rows = metric.matrix_at(coords)
        g = _finite("metric", lane_array(g_rows, lanes), where)
        # the only singularity gate when the metric is constant
        g_inv_rows = inv_generic(g_rows)
        if (np.linalg.eigvalsh(g)[:, 0] <= 0.0).any():
            raise NotPositiveDefiniteError(f"metric is not positive definite {where}")
        phi = _finite("phi", lane_array(field_values(self.phi, coords), lanes), where)
        xi = _finite("xi", lane_array(field_values(self.xi, coords), lanes), where)
        if self.eta is not None:
            eta = _finite("eta", lane_array(field_values(self.eta, coords), lanes), where)
        else:
            eta = np.array([gp @ xp for gp, xp in zip(g, xi)])
        dg = _derivatives(metric.components, coords, lanes)
        if metric.is_constant:
            gamma0 = lane_zeros((self.dim,) * 3, lanes)
        else:
            # dg[j][l][k] as lane arrays
            gamma0 = lane_array(christoffel_from(g_inv_rows, np.moveaxis(dg, 0, -1)), lanes)
        k = _finite("K", lane_array(self.difference.components(coords), lanes), where)
        fields = (g, lane_array(g_inv_rows, lanes), phi, xi, eta, gamma0, k, dg,
                  _derivatives(self.phi, coords, lanes), _derivatives(self.xi, coords, lanes))
        for arr in fields:
            arr.flags.writeable = False
        return fields

    def _frames(self, points, where):
        """The frames of ``points`` from one pass, one lane per point: every
        field and the first derivatives of g, phi and xi are evaluated once
        over all points, and each frame holds views of those arrays.  New
        frames are cached while the cache holds fewer than 4096.  Raises the
        fields' evaluation errors, ``where`` naming the points, and then
        caches nothing."""
        pts = np.array(points, dtype=float).reshape(len(points), self.dim)
        coords = [np.ascontiguousarray(pts[:, n]) for n in range(self.dim)]
        # Python floats overflow silently; so do the lanes
        with np.errstate(all="ignore"):
            fields = self._fields(coords, where)
        pts.flags.writeable = False
        frames = [PointFrame(p, *f) for p, *f in zip(pts, *fields)]
        for key, fr in zip(map(tuple, pts.tolist()), frames):
            if key not in self._frame_cache and len(self._frame_cache) < 4096:
                self._frame_cache[key] = fr
        return frames

    def frame_at(self, point) -> PointFrame:
        """The frame of one point: the cached one, or a pass of one lane."""
        key = tuple(float(x) for x in point)
        cached = self._frame_cache.get(key)
        return cached if cached is not None else self._frames([key], f"at {list(key)}")[0]

    def frame_grid(self, points) -> None:
        """Cache the frames of all ``points`` from one pass (``_frames``)."""
        if len(points):
            self._frames(points, "on the grid")
