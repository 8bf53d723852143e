"""Difference tensors K = nabla - nabla^0, statistical and almost-contact
statistical validation, and the conjugate connection."""

from __future__ import annotations

import itertools

import numpy as np

from .manifold import ChartManifold, _as_fields
from .metric import (FieldArray, MetricField, christoffel_values, field_jet,
                     field_values, lanes_of, nabla_g)
from .report import AuditReport


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
    if sample_points is not None:
        for p in sample_points:
            gam = np.array(field_values(k.gamma_fields, [float(x) for x in p]),
                           dtype=float)
            asym = float(np.max(np.abs(gam - np.swapaxes(gam, 1, 2))))
            if asym > 1e-12:
                raise TorsionPresentError(
                    f"connection has torsion residual {asym} at {list(map(float, p))}")
    return k


# ---------------------------------------------------------------------------
# validation


def cubic_form(g: np.ndarray, k: np.ndarray) -> np.ndarray:
    """C_ijk = g(e_i, K(e_j, e_k))."""
    return np.einsum("im,mjk->ijk", g, k)


def total_symmetry_residual(t: np.ndarray) -> float:
    """max |t - t permuted| over the permutations of the three slots; NaN
    when t holds a NaN."""
    permuted = np.stack([np.transpose(t, perm) for perm in itertools.permutations(range(3))])
    return float(np.max(np.abs(t - permuted)))


def validate_statistical(m: ChartManifold, point, tol: float = 1e-9) -> AuditReport:
    """Residuals of the statistical-structure conditions at one point:
    lower-index symmetry of K, total symmetry of the cubic form C, total
    symmetry of nabla g (for both nabla and the conjugate), and the cross
    identity (nabla_X g)(Y,Z) = -2 g(X, K(Y,Z))."""
    fr = m.frame_at(point)
    rep = AuditReport()
    p = fr.point

    rep.add("K_lower_symmetry", p,
            np.max(np.abs(fr.K - np.swapaxes(fr.K, 1, 2))), 1e-12)
    c = cubic_form(fr.g, fr.K)
    rep.add("cubic_form_symmetry", p, total_symmetry_residual(c), tol)

    gamma = fr.gamma0 + fr.K
    ng = nabla_g(gamma, fr.g, fr.dg)
    rep.add("nabla_g_symmetry", p, total_symmetry_residual(ng), tol)
    rep.add("nabla_g_cross_identity", p, np.max(np.abs(ng + 2.0 * c)), tol)

    gamma_bar = fr.gamma0 - fr.K
    ng_bar = nabla_g(gamma_bar, fr.g, fr.dg)
    rep.add("conjugate_nabla_g_symmetry", p, total_symmetry_residual(ng_bar), tol)
    return rep


def validate_acs(m: ChartManifold, point, tol: float = 1e-9) -> AuditReport:
    """The almost-contact statistical condition K(X, phi Y) + phi K(X, Y) = 0
    and its equivalent form K(X, phi Y) = K(phi X, Y), over all basis pairs."""
    fr = m.frame_at(point)
    rep = AuditReport()
    p = fr.point
    k_phi = np.einsum("ijm,mk->ijk", fr.K, fr.phi)      # K(e_j, phi e_k)
    phi_k = np.einsum("im,mjk->ijk", fr.phi, fr.K)      # phi K(e_j, e_k)
    rep.add("acs_defining_condition", p, np.max(np.abs(k_phi + phi_k)), tol)
    k_phi_first = np.einsum("imk,mj->ijk", fr.K, fr.phi)  # K(phi e_j, e_k)
    rep.add("acs_swap_condition", p, np.max(np.abs(k_phi - k_phi_first)), tol)
    return rep


def lambda_of(m: ChartManifold, point, tol: float = 1e-9) -> float:
    """lambda = g(K(xi, xi), xi); also verifies K(xi,xi) = lambda xi and
    K(X, xi) = lambda eta(X) xi on the coordinate frame."""
    fr = m.frame_at(point)
    k_xi_xi = fr.apply_k(fr.xi, fr.xi)
    lam = fr.inner(k_xi_xi, fr.xi)
    res = float(np.max(np.abs(k_xi_xi - lam * fr.xi)))
    k_dot_xi = np.einsum("ijk,k->ij", fr.K, fr.xi)        # K(e_j, xi)^i
    res = max(res, float(np.max(np.abs(k_dot_xi - lam * np.outer(fr.xi, fr.eta)))))
    if res > tol:
        raise AcsViolatedError(
            f"K(X, xi) = lambda eta(X) xi fails with residual {res} "
            f"at {list(map(float, point))}")
    return float(lam)


def conjugate_connection(m: ChartManifold, point, tol: float = 1e-9):
    """Coefficients of the conjugate connection at a point, with the defining
    duality g(nabla_X Y, Z) + g(Y, nabla-bar_X Z) = X . g(Y, Z) re-checked on
    all coordinate triples.  Returns (gamma_bar, duality_residual)."""
    fr = m.frame_at(point)
    gamma = fr.gamma0 + fr.K
    gamma_bar = fr.gamma0 - fr.K
    lhs = np.einsum("mz,mxy->xyz", fr.g, gamma) + np.einsum("ym,mxz->xyz", fr.g, gamma_bar)
    res = float(np.max(np.abs(lhs - fr.dg)))
    if res > tol:
        raise StatisticalError(
            f"conjugate duality residual {res} at {list(map(float, point))}")
    return gamma_bar, res
