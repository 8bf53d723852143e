"""Difference tensors K = nabla - nabla^0, statistical and almost-contact
statistical validation, and the conjugate connection."""

from __future__ import annotations

import numpy as np

from .manifold import FrameStack
from .metric import (MetricField, contract, field_array, field_jet, first_slot, inner, nabla_g,
                     outer, per_16_lanes)
from .report import max_abs, raise_first, within


class StatisticalError(Exception):
    pass


class AcsViolatedError(StatisticalError):
    pass


# ---------------------------------------------------------------------------
# difference tensors: ``jet(coords, levi_civita)`` gives K^i_jk at (P,) lane
# coordinates and, when ``levi_civita`` is the jet (Gamma, dGamma) of the
# Levi-Civita connection there rather than (Gamma,), its derivatives
# dK[P, m, i, j, k] = d_m K^i_jk; ``reads`` is the sorted indices of the
# coordinates its fields read.


class ExplicitDifferenceTensor:
    """K^i_jk given directly as component ScalarFields."""

    def __init__(self, fields, coord_names=None):
        self.fields = field_array(fields, coord_names)
        self.reads = self.fields.reads

    def jet(self, coords, levi_civita):
        return field_jet(self.fields, coords, len(levi_civita) - 1)


class ConnectionDifferenceTensor:
    """K obtained as a user connection table minus the Levi-Civita symbols of
    the metric, whose jet the caller passes in.  The table is not checked for
    torsion here: a lower-index asymmetry shows in K and fails the
    ``K_lower_symmetry`` check of ``validate_statistical``."""

    def __init__(self, gamma_fields, metric: MetricField):
        self.gamma_fields = field_array(gamma_fields)
        self.reads = tuple(sorted(set(metric.reads) | set(self.gamma_fields.reads)))

    def jet(self, coords, levi_civita):
        user = field_jet(self.gamma_fields, coords, len(levi_civita) - 1)
        return tuple(u - lc for u, lc in zip(user, levi_civita))


def zero_difference_tensor(coord_names) -> ExplicitDifferenceTensor:
    d = len(coord_names)
    zeros = [[["0"] * d for _ in range(d)] for _ in range(d)]
    return ExplicitDifferenceTensor(zeros, coord_names)


# ---------------------------------------------------------------------------
# validation


def cubic_form(g: np.ndarray, k: np.ndarray) -> np.ndarray:
    """C_ijk = g(e_i, K(e_j, e_k)) (any leading axes)."""
    return first_slot(g, k)


def total_symmetry_residual(t: np.ndarray):
    """max |t - t permuted| over the permutations of the last three slots:
    a float for one tensor, an array for tensors stacked on leading axes;
    NaN where t holds a NaN or an inf.  Four permutations give that maximum:
    the three transpositions and one 3-cycle, as the other 3-cycle gives
    the same differences negated.  The identity adds 0, or NaN where t holds
    an inf (inf - inf), where the other permutations give inf or NaN: so an
    inf maximum of a tensor holding an inf becomes NaN."""
    n = t.ndim - 3
    lead, slots = tuple(range(n)), (n, n + 1, n + 2)
    res = np.maximum.reduce([np.max(np.abs(t - np.transpose(t, lead + perm)), axis=slots)
                             for perm in ((n + 1, n, n + 2), (n, n + 2, n + 1),
                                          (n + 2, n + 1, n), (n + 1, n + 2, n))])
    over = np.isinf(res)
    if over.any():
        res = np.where(over & ~np.isfinite(t).all(axis=slots), np.nan, res)
    return float(res) if res.ndim == 0 else res


@np.errstate(all="ignore")
def validate_statistical(fs: FrameStack, tol: float):
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


@np.errstate(all="ignore")
def validate_acs(fs: FrameStack, tol: float):
    """The almost-contact statistical condition K(X, phi Y) + phi K(X, Y) = 0
    and its equivalent form K(X, phi Y) = K(phi X, Y), over all basis
    pairs, at the lanes of ``fs``, 16 lanes at a time."""
    def residuals(k, phi):
        k_phi = k @ phi[:, None]                                # K(e_j, phi e_k)
        phi_k = first_slot(phi, k)                              # phi K(e_j, e_k)
        k_phi_first = np.swapaxes(phi, 1, 2)[:, None] @ k       # K(phi e_j, e_k)
        return np.stack([max_abs(k_phi + phi_k), max_abs(k_phi - k_phi_first)], axis=1)
    defining, swap = per_16_lanes(residuals, fs.K, fs.phi).T
    return [within("acs_defining_condition", defining, tol),
            within("acs_swap_condition", swap, tol)]


@np.errstate(all="ignore")
def lambda_of(fs: FrameStack, tol: float) -> np.ndarray:
    """lambda = g(K(xi, xi), xi) at the lanes of ``fs``, (U,); verifies
    K(xi,xi) = lambda xi and K(X, xi) = lambda eta(X) xi on the coordinate
    frame and raises AcsViolatedError at the first point where they fail."""
    k_xi = contract(fs.K, fs.xi)                      # K(e_j, xi)^i as [p, i, j]
    k_xi_xi = contract(k_xi, fs.xi)
    lam = inner(fs.g, k_xi_xi, fs.xi)
    res = max_abs(k_xi_xi - lam[:, None] * fs.xi)
    res_x = max_abs(k_xi - lam[:, None, None] * outer(fs.xi, fs.eta))
    res = np.where(res_x > res, res_x, res)              # max(res, res_x) as floats take it
    raise_first(AcsViolatedError, fs.point, res, tol,
                "K(X, xi) = lambda eta(X) xi fails with residual", fs.lane)
    return lam


@np.errstate(all="ignore")
def conjugate_connections(fs: FrameStack, tol: float):
    """Coefficients of the conjugate connection at the lanes of ``fs``, with
    the defining duality g(nabla_X Y, Z) + g(Y, nabla-bar_X Z) = X . g(Y, Z)
    re-checked on all coordinate triples; raises StatisticalError at the
    first point where it fails.  Returns (gamma_bar, duality_residual)."""
    gamma_bar = fs.gamma0 - fs.K
    g_gamma = first_slot(np.swapaxes(fs.g, 1, 2), fs.gamma0 + fs.K)     # [z, x, y]
    lhs = (np.swapaxes(np.swapaxes(g_gamma, 1, 2), 2, 3)
           + np.swapaxes(first_slot(fs.g, gamma_bar), 1, 2))
    res = max_abs(lhs - fs.dg)
    raise_first(StatisticalError, fs.point, res, tol, "conjugate duality residual", fs.lane)
    return gamma_bar, res
