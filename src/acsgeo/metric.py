"""Riemannian machinery on a coordinate chart.

A field is a nested array of expression fields.  ``field_jet`` evaluates
one at (P,) lane coordinates, one lane per sample point, with one Taylor
walk of each distinct expression tree: the values and, to the order asked,
the gradients and Hessians, as float arrays with the lane axis first.  The
Levi-Civita connection and its derivatives follow in closed form
(``christoffel_from``, ``gamma_jet``) from g^-1, which ``inv_generic``
takes in one batched call behind a singularity gate, and curvature
(``riemann``) follows from a connection's jet.  Every step acts on each
lane alone, so a point evaluated alone (a pass of one lane) gets the bits
it gets inside a grid.  Functions that take a ``point`` accept one point
of floats or (P,) lane coordinates.

``nabla_g`` and the covariant derivatives take the values and first
derivatives the frames carry, stacked on any leading axes, evaluating no
fields.  ``inner``, ``contract``, ``plane_q``, ``apply_curvature`` and
``sectional_values`` take vectors stacked on leading axes, and a stack goes
through the products of one vector: ``inner`` a (1 x dim) @ (dim x dim)
and a (1 x dim) @ (dim x 1) product per pair, ``contract`` one
(rows x dim) @ (dim x 1) product per vector, with all the rows of its
tensor merged.  The vectors keep their strides.  So one vector or pair and
a stack of them get the same floats, which is how the section sweep of
:mod:`acsgeo.curvature` stays bit-identical to one section and one point
at a time.  ``riemann`` takes its k <-> l halves (the second derivative
term and the Gamma Gamma term) as transposed views of the first.
"""

from __future__ import annotations

import math

import numpy as np

from .expressions import Jet, Num, ScalarField, Var, parse_expression


class GeometryError(Exception):
    pass


class SingularMetricError(GeometryError):
    pass


class NotPositiveDefiniteError(GeometryError):
    pass


class DegeneratePlaneError(GeometryError):
    pass


def lanes_of(point):
    """The coordinates of one point (floats) or of lanes ((P,) arrays) as a
    list of (P,) float arrays, and whether they were one point."""
    single = np.ndim(point[0]) == 0
    return [np.atleast_1d(np.asarray(c, dtype=float)) for c in point], single


def point_lanes(points: np.ndarray):
    """The coordinates of (P, dim) points as a list of dim (P,) lanes."""
    return list(np.ascontiguousarray(points.T))


def per_16_lanes(fn, *arrays):
    """``fn`` of the lanes of ``arrays``, 16 at a time, joined on the lane
    axis, so no temporary holds more than 16 lanes of a (L, dim, dim, dim,
    dim) curvature stack; an argument of one lane is shared by every lane.
    Without lanes, ``fn`` runs once, on none."""
    with np.errstate(all="ignore"):
        return np.concatenate([fn(*(a if len(a) == 1 else a[c:c + 16] for a in arrays))
                               for c in range(0, max(map(len, arrays)) or 1, 16)])


def inv_generic(mat):
    """Inverses of a stack of square matrices (..., n, n) in one batched
    call, behind a singularity gate: SingularMetricError when a matrix is
    singular (its LU determinant is 0) or the magnitude of its determinant
    is below 1e-12."""
    det = np.linalg.det(mat)
    if (det == 0.0).any():
        raise SingularMetricError("matrix is numerically singular")
    small = np.abs(det) < 1e-12
    if small.any():
        raise SingularMetricError(f"metric determinant {det[small][0]} below threshold")
    return np.linalg.inv(mat)


# ---------------------------------------------------------------------------
# nested arrays of scalar fields


def field_values(fields, env):
    """Evaluate a nested array of ScalarFields at one environment of
    generic scalars (floats, lane arrays or Duals); returns nested python
    lists of the same shape."""
    if isinstance(fields, ScalarField):
        return fields.eval_scalar(env)
    if isinstance(fields[0], ScalarField):
        return [f.eval_scalar(env) for f in fields]
    return [field_values(sub, env) for sub in fields]


def fields_constant(fields) -> bool:
    """True when no ScalarField in a nested array reads a coordinate: its
    expression tree holds no Var."""
    if isinstance(fields, ScalarField):
        # a bare constant, the common entry, skips the walk
        return isinstance(fields.body, Num) or not _reads_coordinate(fields.body)
    return all(fields_constant(sub) for sub in fields)


def _reads_coordinate(node) -> bool:
    if isinstance(node, (Num, Var)):
        return isinstance(node, Var)
    return any(_reads_coordinate(getattr(node, child))
               for child in ("arg", "left", "right", "base") if hasattr(node, child))


class FieldArray(list):
    """A nested array of ScalarFields (a list of rows) whose constancy is
    decided once, when it is built, so derivative calls never re-walk it."""

    def __init__(self, rows):
        super().__init__(rows)
        self.is_constant = fields_constant(self)


def _flat(fields):
    if isinstance(fields[0], ScalarField):
        return list(fields)
    return [f for sub in fields for f in _flat(sub)]


def field_jet(fields, coords, order: int):
    """The jet of a nested array of ScalarFields at the (P,) lane coordinates
    ``coords``: the values (P, *shape) and, up to ``order`` (0, 1 or 2), the
    gradients (P, dim, *shape) and Hessians (P, dim, dim, *shape), from one
    walk of each distinct field (a metric's mirrored entries share one).
    The derivatives of a constant array are broadcast zeros.  Run it under
    ``np.errstate(all="ignore")``: lanes overflow as Python floats do."""
    lanes, dim = len(coords[0]), len(coords)
    flat = _flat(fields)
    shape = np.shape(fields)
    constant = fields.is_constant if isinstance(fields, FieldArray) else fields_constant(fields)
    out = [np.empty((lanes, len(flat)))]
    if not constant:
        out += [np.zeros((lanes,) + (dim,) * k + (len(flat),)) for k in range(1, order + 1)]
    env = Jet.variables(coords, order) if len(out) > 1 else coords
    first = {}
    for i, f in enumerate(flat):
        j = first.setdefault(id(f), i)
        if j < i:
            for a in out:
                a[..., i] = a[..., j]
            continue
        jet = f.eval_scalar(env)
        if isinstance(jet, Jet):
            out[0][:, i] = jet.val
            out[1][..., i] = jet.grad.T
            if order == 2:
                out[2][..., i] = jet.hess.transpose(2, 0, 1)
        else:
            out[0][:, i] = jet
    if constant:
        out += [np.broadcast_to(0.0, (lanes,) + (dim,) * k + (len(flat),))
                for k in range(1, order + 1)]
    return tuple(a.reshape(a.shape[:-1] + shape) for a in out)


def field_first_derivatives(fields, point):
    """d_i of a nested array of ScalarFields at a point, or at lanes with the
    lane axis first, derivative index first."""
    coords, single = lanes_of(point)
    with np.errstate(all="ignore"):
        d = field_jet(fields, coords, 1)[1]
    return d[0] if single else d


# ---------------------------------------------------------------------------
# metric fields


class MetricField:
    """Symmetric dim x dim array of ScalarFields g_ij."""

    def __init__(self, components):
        dim = len(components)
        for row in components:
            if len(row) != dim:
                raise ValueError("metric component array must be square")
        self.components = FieldArray(list(row) for row in components)
        self.dim = dim
        # constant metrics short-circuit every derivative evaluation
        self.is_constant = self.components.is_constant

    @classmethod
    def from_lower_triangle(cls, entries, coord_names):
        """Build from rows of expression strings giving the lower triangle
        (row i has i+1 entries); the upper triangle is mirrored, so symmetry
        holds exactly by construction."""
        dim = len(entries)
        comp = [[None] * dim for _ in range(dim)]
        for i, row in enumerate(entries):
            if len(row) < i + 1:
                raise ValueError(f"row {i} of lower triangle needs {i + 1} entries")
            for j in range(i + 1):
                f = row[j]
                if isinstance(f, str):
                    f = parse_expression(f, coord_names)
                comp[i][j] = f
                comp[j][i] = f
        return cls(comp)

    def matrix_at(self, coords):
        """Evaluate g as a nested list; generic in the scalar type."""
        return field_values(self.components, coords)

    def array_at(self, point) -> np.ndarray:
        return np.array(self.matrix_at([float(x) for x in point]), dtype=float)

    def derivatives_at(self, point) -> np.ndarray:
        """d_i g_jk at a point, shape (dim, dim, dim)."""
        return field_first_derivatives(self.components, point)

    def check_point(self, point):
        """Symmetry (to 1e-12) and positive definiteness (leading principal
        minors above 1e-10) at one point; raises on failure."""
        g = self.array_at(point)
        asym = float(np.max(np.abs(g - g.T)))
        if asym > 1e-12:
            raise GeometryError(f"metric asymmetry {asym} at {list(point)}")
        for k in range(1, self.dim + 1):
            minor = float(np.linalg.det(g[:k, :k]))
            if minor <= 1e-10:
                raise NotPositiveDefiniteError(
                    f"leading principal minor {k} is {minor} at {list(point)}")
        return g


# ---------------------------------------------------------------------------
# Christoffel symbols and curvature


def christoffel_from(ginv, dg):
    """Levi-Civita symbols Gamma[..., i, j, k] from g^-1 and dg[..., i, j, k]
    = d_i g_jk (any leading axes):

        Gamma^i_jk = 1/2 g^il (d_j g_lk + d_k g_jl - d_l g_jk).
    """
    t = dg + np.einsum("...kjl->...jlk", dg) - np.einsum("...ljk->...jlk", dg)
    return 0.5 * np.einsum("...il,...jlk->...ijk", ginv, t)


def gamma_jet(ginv, dg, ddg):
    """The Levi-Civita symbols and their derivatives, (Gamma[..., i, j, k],
    dGamma[..., m, i, j, k] = d_m Gamma^i_jk), in closed form from g^-1, dg
    and ddg[..., m, i, j, k] = d_m d_i g_jk.  As d_m g^-1 = -g^-1 (d_m g) g^-1,

        d_m Gamma^i_jk = -g^ia (d_m g_ab) Gamma^b_jk
                         + 1/2 g^il d_m (d_j g_lk + d_k g_jl - d_l g_jk).
    """
    gamma = christoffel_from(ginv, dg)
    ginv_dg = np.einsum("...ia,...mab->...mib", ginv, dg)
    dgamma = (christoffel_from(ginv[..., None, :, :], ddg)
              - np.einsum("...mib,...bjk->...mijk", ginv_dg, gamma))
    return gamma, dgamma


def christoffel_values(g: MetricField, point) -> np.ndarray:
    """Levi-Civita symbols Gamma^i_jk of ``g`` at a point (dim, dim, dim), or
    at lanes with the lane axis first, from one first-order walk of g."""
    coords, single = lanes_of(point)
    if g.is_constant:
        gamma = np.zeros((len(coords[0]),) + (g.dim,) * 3)
    else:
        with np.errstate(all="ignore"):
            gv, dg = field_jet(g.components, coords, 1)
            gamma = christoffel_from(inv_generic(gv), dg)
    return gamma[0] if single else gamma


christoffel = christoffel_values


def christoffel_jet(g: MetricField, point):
    """(Gamma, dGamma) of the Levi-Civita connection of ``g`` at a point, or
    at lanes with the lane axis first, from one second-order walk of g and
    ``gamma_jet``; zeros for a constant metric."""
    coords, single = lanes_of(point)
    if g.is_constant:
        jet = tuple(np.broadcast_to(0.0, (len(coords[0]),) + (g.dim,) * k) for k in (3, 4))
    else:
        with np.errstate(all="ignore"):
            gv, dg, ddg = field_jet(g.components, coords, 2)
            jet = gamma_jet(inv_generic(gv), dg, ddg)
    return tuple(a[0] for a in jet) if single else jet


def riemann(gamma, dgamma) -> np.ndarray:
    """Curvature R^i_jkl, with R(e_k, e_l) e_j = R^i_jkl e_i, of a connection
    from its coefficients Gamma[..., i, j, k] and their derivatives
    dGamma[..., m, i, j, k] = d_m Gamma^i_jk (any leading axes):

        R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj
                  + Gamma^i_km Gamma^m_lj - Gamma^i_lm Gamma^m_kj.

    ``riemann(g, point)`` with a MetricField ``g`` is the curvature of its
    Levi-Civita connection at a point or at lanes (``christoffel_jet``).
    """
    if isinstance(gamma, MetricField):
        gamma, dgamma = christoffel_jet(gamma, dgamma)
    d = np.einsum("...kilj->...ijkl", dgamma)       # a view: d_k Gamma^i_lj
    r = d - d.swapaxes(-1, -2)
    t = np.einsum("...ikm,...mlj->...ijkl", gamma, gamma)
    r += t
    r -= t.swapaxes(-1, -2)     # Gamma^i_lm Gamma^m_kj, the k <-> l swap of t
    return r


def inner(g: np.ndarray, x, y):
    """g(X, Y) = (x @ g) @ y, for one pair of vectors or for vectors stacked
    on leading axes (``x``, ``y``: (..., dim); ``g`` broadcasts against
    (..., dim, dim)).

    Every pair multiplies a (1, dim) row by g and the result by a (dim, 1)
    column, the operand shapes numpy gives two 1-D vectors, so a stacked
    call is bit-identical to a loop over the pairs.  The vectors keep their
    strides: BLAS may sum a strided vector in another order than a
    contiguous one, so a section that is a column of a basis stays one.
    """
    x, y = np.asarray(x), np.asarray(y)
    return ((x[..., None, :] @ g) @ y[..., :, None])[..., 0, 0]


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The outer products a^i b^j of vectors stacked on leading axes."""
    return a[..., :, None] * b[..., None, :]


def norms(g: np.ndarray, v) -> np.ndarray:
    """sqrt(max(g(v, v), 0)) of stacked vectors: ``PointFrame.norm`` of each
    (a zero norm may lose its sign, so compare it, do not print it)."""
    return np.sqrt(np.maximum(inner(g, v, v), 0.0))


def contract(a: np.ndarray, v) -> np.ndarray:
    """a[..., r_1, ..., r_m, i] v[..., i]: the last axis of tensors ``a``
    contracted with a (dim,) vector or stacked (..., dim) vectors, whose
    leading axes broadcast against the first ``v.ndim - 1`` axes of ``a``;
    the axes between are the rows, (..., r_1, ..., r_m) comes back.

    Each vector takes one (rows x dim) @ (dim x 1) product, the rows of its
    tensor merged into one matrix, the same product for one vector as in a
    stack; the vectors keep their strides (see ``inner``).  A matrix ``a``
    is ``a @ v`` as numpy computes it for one vector."""
    v = np.asarray(v)
    lead = v.ndim - 1
    rows = a.shape[lead:-1]
    out = np.reshape(a, a.shape[:lead] + (math.prod(rows), a.shape[-1])) @ v[..., :, None]
    return out.reshape(out.shape[:-2] + rows)


def pow2(a: np.ndarray) -> np.ndarray:
    """a ** 2 of every entry as a Python float computes it: libm ``pow``,
    which is not always the rounded ``a * a`` that numpy squares with."""
    return np.array([v ** 2 for v in a.ravel().tolist()]).reshape(a.shape)


def apply_curvature(r: np.ndarray, x, y, z) -> np.ndarray:
    """The vector R(X,Y)Z = R^i_jkl Z^j X^k Y^l for a curvature-like tensor
    in R^i_jkl layout, for one triple of vectors or stacked (..., dim)
    vectors, whose leading axes broadcast against those of ``r`` (one
    ``contract`` per slot: Y, then X, then Z)."""
    return contract(contract(contract(r, y), x), z)


def plane_q(g: np.ndarray, x, y):
    """Q(X,Y) = g(X,X) g(Y,Y) - g(X,Y)^2: a float for one pair of vectors,
    an array for stacked vectors (see ``inner``)."""
    q = inner(g, x, x) * inner(g, y, y) - pow2(inner(g, x, y))
    return float(q) if q.ndim == 0 else q


def sectional_values(g: np.ndarray, r: np.ndarray, x, y):
    """(g(R(X,Y)Y, X) / Q(X,Y), Q(X,Y)) for stacked (..., dim) vectors, with
    no threshold on Q: the arrays behind ``sectional_curvature``.  Run it
    under ``np.errstate`` where Q may vanish."""
    q = plane_q(g, x, y)
    return inner(g, x, apply_curvature(r, x, y, y)) / q, q


def sectional_curvature(g: np.ndarray, r: np.ndarray, x, y) -> float:
    """Sectional curvature g(R(X,Y)Y,X)/Q(X,Y) of the plane span{X, Y}.

    ``g`` and ``r`` are evaluated arrays at the point of interest.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        k, q = sectional_values(g, r, x, y)
    if q <= 1e-12:
        raise DegeneratePlaneError(f"Q(X,Y) = {q} below threshold")
    return float(k)


def nabla_g(gamma: np.ndarray, g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """(nabla g)_ijk = d_i g_jk - Gamma^m_ij g_mk - Gamma^m_ik g_jm for an
    arbitrary connection, from its coefficients, g and dg[..., i, j, k] =
    d_i g_jk (any leading axes)."""
    out = dg - np.einsum("...mij,...mk->...ijk", gamma, g)
    out -= np.einsum("...mik,...jm->...ijk", gamma, g)
    return out


def covariant_derivative_11(gamma: np.ndarray, phi: np.ndarray,
                            dphi: np.ndarray) -> np.ndarray:
    """Covariant derivative of a (1,1) tensor field from its values
    phi[..., j, k] and first derivatives dphi[..., i, j, k] = d_i phi^j_k
    (any leading axes):

        (nabla_i phi)^j_k = d_i phi^j_k + Gamma^j_im phi^m_k - Gamma^m_ik phi^j_m

    Returns shape (..., dim, dim, dim) indexed [..., i, j, k].
    """
    out = dphi + np.einsum("...jim,...mk->...ijk", gamma, phi)
    out -= np.einsum("...mik,...jm->...ijk", gamma, phi)
    return out


def covariant_derivative_vector(gamma: np.ndarray, v: np.ndarray,
                                dv: np.ndarray) -> np.ndarray:
    """(nabla_i v)^j = d_i v^j + Gamma^j_im v^m from the values v[..., j] and
    first derivatives dv[..., i, j] = d_i v^j (any leading axes), shape
    (..., dim, dim)."""
    return dv + np.einsum("...jim,...m->...ij", gamma, v)
