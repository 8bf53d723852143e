"""Difference tensors K = nabla - nabla^0, statistical and almost-contact
statistical validation, and the conjugate connection."""

from __future__ import annotations

import itertools

import numpy as np

from .manifold import ChartManifold, FrameStack, _as_fields
from .metric import (FieldArray, MetricField, christoffel_values, contract, field_jet,
                     inner, lanes_of, nabla_g, outer, per_16_lanes, point_lanes)
from .report import AuditReport, max_abs, raise_first, within


class StatisticalError(Exception):
    pass


class TorsionPresentError(StatisticalError):
    pass


class AcsViolatedError(StatisticalError):
    pass


# ---------------------------------------------------------------------------
# difference tensors


class DifferenceTensor:
    """Base of the difference tensors: ``jet(coords, levi_civita)`` gives
    K^i_jk at (P,) lane coordinates and, when ``levi_civita`` is the jet
    (Gamma, dGamma) of the Levi-Civita connection there rather than
    (Gamma,), its derivatives dK[P, m, i, j, k] = d_m K^i_jk; ``is_constant``
    says whether K is independent of the point."""


class ExplicitDifferenceTensor(DifferenceTensor):
    """K^i_jk given directly as component ScalarFields."""

    def __init__(self, fields, coord_names=None):
        if coord_names is not None:
            fields = _as_fields(fields, coord_names)
        self.fields = FieldArray(fields)
        self.dim = len(fields)
        self.is_constant = self.fields.is_constant

    def jet(self, coords, levi_civita):
        return field_jet(self.fields, coords, len(levi_civita) - 1)

    def array_at(self, point) -> np.ndarray:
        with np.errstate(all="ignore"):
            return field_jet(self.fields, lanes_of(point)[0], 0)[0][0]


class ConnectionDifferenceTensor(DifferenceTensor):
    """K obtained as a user connection table minus the Levi-Civita symbols of
    the metric, whose jet the caller passes in."""

    def __init__(self, gamma_fields, metric: MetricField, coord_names=None):
        if coord_names is not None:
            gamma_fields = _as_fields(gamma_fields, coord_names)
        self.gamma_fields = FieldArray(gamma_fields)
        self.metric = metric
        self.dim = len(gamma_fields)
        self.is_constant = metric.is_constant and self.gamma_fields.is_constant

    def jet(self, coords, levi_civita):
        user = field_jet(self.gamma_fields, coords, len(levi_civita) - 1)
        return tuple(u - lc for u, lc in zip(user, levi_civita))

    def array_at(self, point) -> np.ndarray:
        coords = lanes_of(point)[0]
        with np.errstate(all="ignore"):
            return self.jet(coords, (christoffel_values(self.metric, coords),))[0][0]


def zero_difference_tensor(coord_names) -> ExplicitDifferenceTensor:
    d = len(coord_names)
    zeros = [[["0"] * d for _ in range(d)] for _ in range(d)]
    return ExplicitDifferenceTensor(zeros, coord_names)


def difference_from_connection(gamma_fields, metric: MetricField,
                               sample_points=None, coord_names=None) -> ConnectionDifferenceTensor:
    """Normalize a full connection table into a difference tensor.

    The user connection must be torsion-free; asymmetry of the lower index
    pair beyond 1e-12 at any sample point raises TorsionPresentError.
    """
    k = ConnectionDifferenceTensor(gamma_fields, metric, coord_names)
    if sample_points is not None and len(sample_points):
        pts = np.array(sample_points, dtype=float).reshape(len(sample_points), k.dim)
        with np.errstate(all="ignore"):
            gam = field_jet(k.gamma_fields, point_lanes(pts), 0)[0]
        raise_first(TorsionPresentError, pts, max_abs(gam - np.swapaxes(gam, 2, 3)),
                    1e-12, "connection has torsion residual")
    return k


# ---------------------------------------------------------------------------
# validation


def cubic_form(g: np.ndarray, k: np.ndarray) -> np.ndarray:
    """C_ijk = g(e_i, K(e_j, e_k)) (any leading axes)."""
    return np.einsum("...im,...mjk->...ijk", g, k)


def total_symmetry_residual(t: np.ndarray):
    """max |t - t permuted| over the permutations of the last three slots:
    a float for one tensor, an array for tensors stacked on leading axes;
    NaN where t holds a NaN."""
    lead, slots = tuple(range(t.ndim - 3)), tuple(range(t.ndim - 3, t.ndim))
    res = np.maximum.reduce([np.max(np.abs(t - np.transpose(t, lead + perm)), axis=slots)
                             for perm in itertools.permutations(slots)])
    return float(res) if res.ndim == 0 else res


@np.errstate(all="ignore")
def statistical_columns(fs: FrameStack, tol: float):
    """The statistical-structure conditions at the lanes of ``fs``, one
    column each: lower-index symmetry of K, total symmetry of the cubic
    form C, total symmetry of nabla g (for both nabla and the conjugate),
    and the cross identity (nabla_X g)(Y,Z) = -2 g(X, K(Y,Z)), 16 lanes at
    a time."""
    def residuals(g, gamma0, k, dg):
        c = cubic_form(g, k)
        ng = nabla_g(gamma0 + k, g, dg)
        ng_bar = nabla_g(gamma0 - k, g, dg)
        return np.stack([max_abs(k - np.swapaxes(k, 2, 3)), total_symmetry_residual(c),
                         total_symmetry_residual(ng), max_abs(ng + 2.0 * c),
                         total_symmetry_residual(ng_bar)], axis=1)
    res = per_16_lanes(residuals, fs.g, fs.gamma0, fs.K, fs.dg).T
    return [within("K_lower_symmetry", res[0], 1e-12),
            within("cubic_form_symmetry", res[1], tol),
            within("nabla_g_symmetry", res[2], tol),
            within("nabla_g_cross_identity", res[3], tol),
            within("conjugate_nabla_g_symmetry", res[4], tol)]


def validate_statistical(m: ChartManifold, point, tol: float = 1e-9) -> AuditReport:
    """Residuals of the statistical-structure conditions at one point (see
    ``statistical_columns``)."""
    fs = m.frame_stack([point])
    return AuditReport.from_columns(fs.point, statistical_columns(fs, tol))


@np.errstate(all="ignore")
def acs_columns(fs: FrameStack, tol: float):
    """The almost-contact statistical condition K(X, phi Y) + phi K(X, Y) = 0
    and its equivalent form K(X, phi Y) = K(phi X, Y), over all basis
    pairs, at the lanes of ``fs``, 16 lanes at a time."""
    def residuals(k, phi):
        k_phi = np.einsum("...ijm,...mk->...ijk", k, phi)       # K(e_j, phi e_k)
        phi_k = np.einsum("...im,...mjk->...ijk", phi, k)       # phi K(e_j, e_k)
        k_phi_first = np.einsum("...imk,...mj->...ijk", k, phi)  # K(phi e_j, e_k)
        return np.stack([max_abs(k_phi + phi_k), max_abs(k_phi - k_phi_first)], axis=1)
    defining, swap = per_16_lanes(residuals, fs.K, fs.phi).T
    return [within("acs_defining_condition", defining, tol),
            within("acs_swap_condition", swap, tol)]


def validate_acs(m: ChartManifold, point, tol: float = 1e-9) -> AuditReport:
    """The almost-contact statistical conditions at one point (see
    ``acs_columns``)."""
    fs = m.frame_stack([point])
    return AuditReport.from_columns(fs.point, acs_columns(fs, tol))


@np.errstate(all="ignore")
def lambdas(fs: FrameStack, tol: float) -> np.ndarray:
    """lambda = g(K(xi, xi), xi) at the points of ``fs``, (P,); verifies
    K(xi,xi) = lambda xi and K(X, xi) = lambda eta(X) xi on the coordinate
    frame and raises AcsViolatedError at the first point where they fail."""
    k_xi = contract(fs.K, fs.xi)                      # K(e_j, xi)^i as [p, i, j]
    k_xi_xi = contract(k_xi, fs.xi)
    lam = inner(fs.g, k_xi_xi, fs.xi)
    res = max_abs(k_xi_xi - lam[:, None] * fs.xi)
    res_x = max_abs(k_xi - lam[:, None, None] * outer(fs.xi, fs.eta))
    res = np.where(res_x > res, res_x, res)              # max(res, res_x) as floats take it
    raise_first(AcsViolatedError, fs.point, res, tol,
                "K(X, xi) = lambda eta(X) xi fails with residual")
    return lam


def lambda_of(m: ChartManifold, point, tol: float = 1e-9) -> float:
    """lambda = g(K(xi, xi), xi) at one point; also verifies K(xi,xi) =
    lambda xi and K(X, xi) = lambda eta(X) xi on the coordinate frame."""
    return float(lambdas(m.frame_stack([point]), tol)[0])


@np.errstate(all="ignore")
def conjugate_connections(fs: FrameStack, tol: float):
    """Coefficients of the conjugate connection at the points of ``fs``, with
    the defining duality g(nabla_X Y, Z) + g(Y, nabla-bar_X Z) = X . g(Y, Z)
    re-checked on all coordinate triples; raises StatisticalError at the
    first point where it fails.  Returns (gamma_bar, duality_residual)."""
    gamma_bar = fs.gamma0 - fs.K
    lhs = (np.einsum("...mz,...mxy->...xyz", fs.g, fs.gamma0 + fs.K)
           + np.einsum("...ym,...mxz->...xyz", fs.g, gamma_bar))
    res = max_abs(lhs - fs.dg)
    raise_first(StatisticalError, fs.point, res, tol, "conjugate duality residual")
    return gamma_bar, res


def conjugate_connection(m: ChartManifold, point, tol: float = 1e-9):
    """``conjugate_connections`` at one point: (gamma_bar, duality_residual)."""
    gamma_bar, res = conjugate_connections(m.frame_stack([point]), tol)
    return gamma_bar[0], float(res[0])
