"""Coordinate-chart manifolds carrying an almost contact metric structure
and a difference tensor, plus pointwise evaluation frames."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .expressions import NonFiniteError, ScalarField, parse_expression
from .metric import FieldArray, MetricField, christoffel, field_values, inv_generic


def _as_fields(entries, coord_names):
    """Recursively convert a nested array of strings/numbers to ScalarFields."""
    if isinstance(entries, ScalarField):
        return entries
    if isinstance(entries, str):
        return parse_expression(entries, coord_names)
    if isinstance(entries, (int, float)):
        return parse_expression(repr(float(entries)), coord_names)
    return [_as_fields(e, coord_names) for e in entries]


def _finite(name, values, point) -> np.ndarray:
    """An evaluated field array as floats; NonFiniteError if any entry is
    inf or nan (checked once per array, not per scalar)."""
    arr = np.asarray(values, dtype=float)
    if np.count_nonzero(np.isfinite(arr)) < arr.size:   # cheaper than .all()
        raise NonFiniteError(f"{name} is not finite at {list(point)}")
    return arr


@dataclass(frozen=True)
class PointFrame:
    """All structure tensors evaluated at one chart point."""

    point: np.ndarray
    g: np.ndarray        # metric, (dim, dim)
    g_inv: np.ndarray
    phi: np.ndarray      # phi^i_j
    xi: np.ndarray       # xi^i
    eta: np.ndarray      # eta_i
    gamma0: np.ndarray   # Levi-Civita Gamma^i_jk
    K: np.ndarray        # difference tensor K^i_jk

    @property
    def dim(self):
        return len(self.point)

    def inner(self, x, y) -> float:
        return float(np.asarray(x) @ self.g @ np.asarray(y))

    def norm(self, x) -> float:
        return float(np.sqrt(max(self.inner(x, x), 0.0)))

    def eta_of(self, x) -> float:
        return float(self.eta @ np.asarray(x))

    def apply_k(self, x, y) -> np.ndarray:
        return (self.K @ np.asarray(y)) @ np.asarray(x)


class ChartManifold:
    """An odd-dimensional chart with fields (g, phi, xi, eta, K) attached.

    ``difference`` must expose ``components(coords)`` (generic scalars),
    ``array_at(point)`` and ``is_constant``, the constancy of its components
    decided when it was built; see :mod:`acsgeo.statistical`.
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
        self._frame_cache = {}
        self._curvature_cache = {}   # filled by curvature.statistical_curvature

    @property
    def dim(self):
        return len(self.coords)

    @property
    def n(self):
        return (self.dim - 1) // 2

    def grid_points(self, per_axis: Optional[int] = None, cap: int = 243):
        """Uniform sample grid over the box, capped in total size."""
        k = per_axis or self.grid
        axes = [np.linspace(lo, hi, k) for lo, hi in self.box]
        pts = [np.array(p) for p in itertools.product(*axes)]
        return pts[:cap]

    def frame_at(self, point) -> PointFrame:
        key = tuple(float(x) for x in point)
        cached = self._frame_cache.get(key)
        if cached is not None:
            return cached
        p = np.array(key)
        coords = list(key)
        g = _finite("metric", self.metric.array_at(p), key)
        # the only singularity gate when the metric is constant
        g_inv = np.array(inv_generic(g.tolist()), dtype=float)
        phi = _finite("phi", field_values(self.phi, coords), key)
        xi = _finite("xi", field_values(self.xi, coords), key)
        if self.eta is not None:
            eta = _finite("eta", field_values(self.eta, coords), key)
        else:
            eta = g @ xi
        gamma0 = christoffel(self.metric, p)
        k = _finite("K", self.difference.array_at(p), key)
        fr = PointFrame(point=p, g=g, g_inv=g_inv, phi=phi, xi=xi, eta=eta,
                        gamma0=gamma0, K=k)
        if len(self._frame_cache) < 4096:
            self._frame_cache[key] = fr
        return fr
