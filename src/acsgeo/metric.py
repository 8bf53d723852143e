"""Riemannian machinery on a coordinate chart.

Evaluation of nested arrays of expression fields, Levi-Civita connection,
Riemann curvature, covariant derivatives and sectional curvature, all
evaluated pointwise with exact dual-number derivatives of the components.
Every function here is generic in the scalar type where it needs to be:
Christoffel symbols can be evaluated with Dual coordinates, which is how
curvature obtains the exact first derivatives of the symbols (nested
seeding).

A coordinate may be a float or a ``(P,)`` float array with one lane per
sample point (vector-mode forward differentiation).  ``field_values``,
``field_first_derivatives``, ``inv_generic``, ``christoffel_values``,
``gamma_jet`` and ``riemann`` accept lanes and give every lane the same
float operations as a single point, so their results are bit-identical to
a loop over the points; arrays they return put the lane axis first.
"""

from __future__ import annotations

import numpy as np

from .expressions import (Dual, Num, ScalarField, any_lane, first_lane,
                          parse_expression, primal, tangent)


class GeometryError(Exception):
    pass


class SingularMetricError(GeometryError):
    pass


class NotPositiveDefiniteError(GeometryError):
    pass


class DegeneratePlaneError(GeometryError):
    pass


# ---------------------------------------------------------------------------
# lanes


class LaneSplit(Exception):
    """Lanes that need different float operations: a per-lane choice would
    pair a Dual with a plain float, whose arithmetic differs.  ``gamma_jet``
    evaluates the lanes of ``mask`` and the others apart."""

    def __init__(self, mask):
        super().__init__("lanes take different operations")
        self.mask = mask


def lane_select(mask, x, y):
    """Per lane, ``x`` where ``mask`` holds and ``y`` elsewhere."""
    if isinstance(x, Dual) and isinstance(y, Dual):
        return Dual(lane_select(mask, x.val, y.val), lane_select(mask, x.dot, y.dot))
    if isinstance(x, Dual) or isinstance(y, Dual):
        raise LaneSplit(mask)
    return np.where(mask, x, y)


def lane_count(coords):
    """P when the coordinates are (P,) lane arrays, None at a single point."""
    first = coords[0]
    return len(first) if isinstance(first, np.ndarray) else None


def lane_array(values, lanes=None):
    """Nested lists of floats or lane arrays as one float array, with the
    lane axis first when ``lanes`` is given."""
    if lanes is None:
        return np.array(values, dtype=float)
    shape = []
    flat = [values]
    while isinstance(flat[0], list):
        shape.append(len(flat[0]))
        flat = [v for sub in flat for v in sub]
    out = np.empty((lanes, len(flat)))
    for i, v in enumerate(flat):
        out[:, i] = v
    return out.reshape([lanes] + shape)


def lane_zeros(shape, lanes=None):
    """Zeros of ``shape``, per lane as a broadcast view (no memory per lane)."""
    z = np.zeros(shape)
    return z if lanes is None else np.broadcast_to(z, (lanes,) + z.shape)


# ---------------------------------------------------------------------------
# generic linear algebra (works on floats, lanes and Duals)


def _lane_pivot(mags, col):
    """Per lane, the row of the first largest of the primal magnitudes
    ``mags`` of column ``col`` from row ``col`` down (a later row wins only
    when strictly larger, as with ``max``): an int when all lanes agree and
    a (P,) int array otherwise."""
    piv, best = col, mags[0]
    for r, m in enumerate(mags[1:], col + 1):
        larger = m > best
        piv = np.where(larger, r, piv)
        best = np.where(larger, m, best)
    if (best < 1e-300).any():
        raise SingularMetricError("matrix is numerically singular")
    piv = np.broadcast_to(piv, best.shape)
    return int(piv[0]) if (piv == piv[0]).all() else piv


def inv_generic(mat):
    """Inverse of a small square matrix by Gauss-Jordan elimination.

    Entries may be floats, lane arrays or (nested) Duals of either; pivoting
    is on the magnitude of the primal part, lane by lane.  Raises
    SingularMetricError when the primal determinant magnitude falls below
    1e-12 (in any lane).
    """
    n = len(mat)
    a = [list(row) for row in mat]
    inv = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    det = 1.0
    for col in range(n):
        mags = [abs(primal(a[r][col])) for r in range(col, n)]
        if np.ndarray in map(type, mags):
            piv = _lane_pivot(mags, col)
        else:
            piv = max(range(col, n), key=lambda r: mags[r - col])
            if mags[piv - col] < 1e-300:
                raise SingularMetricError("matrix is numerically singular")
        if isinstance(piv, int):
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                inv[col], inv[piv] = inv[piv], inv[col]
                det = -det
        else:
            for r in range(col + 1, n):
                swap = piv == r
                if swap.any():
                    for rows in (a, inv):
                        for j in range(n):
                            x, y = rows[col][j], rows[r][j]
                            rows[col][j] = lane_select(swap, y, x)
                            rows[r][j] = lane_select(swap, x, y)
            det = np.where(piv != col, -det, det)
        pivot = a[col][col]
        det *= primal(pivot)
        for j in range(n):
            a[col][j] = a[col][j] / pivot
            inv[col][j] = inv[col][j] / pivot
        for r in range(n):
            if r == col:
                continue
            f = a[r][col]
            if not isinstance(f, Dual):
                # a plain zero factor leaves the row alone, lane by lane
                zero = f == 0.0
                if not isinstance(zero, np.ndarray):
                    if zero:
                        continue
                elif zero.all():
                    continue
                elif zero.any():
                    for rows in (a, inv):
                        for j in range(n):
                            rows[r][j] = lane_select(zero, rows[r][j],
                                                     rows[r][j] - f * rows[col][j])
                    continue
            for j in range(n):
                a[r][j] = a[r][j] - f * a[col][j]
                inv[r][j] = inv[r][j] - f * inv[col][j]
    small = abs(det) < 1e-12
    if any_lane(small):
        raise SingularMetricError(
            f"metric determinant {first_lane(det, small)} below threshold")
    return inv


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
    """True when every ScalarField in a nested array is a bare constant."""
    if isinstance(fields, ScalarField):
        return isinstance(fields.body, Num)
    return all(fields_constant(sub) for sub in fields)


class FieldArray(list):
    """A nested array of ScalarFields (a list of rows) whose constancy is
    decided once, when it is built, so derivative calls never re-walk it."""

    def __init__(self, rows):
        super().__init__(rows)
        self.is_constant = fields_constant(self)


def _tangents(values):
    """tangent() of every entry of nested lists."""
    if not isinstance(values[0], list):
        return [tangent(v) for v in values]
    return [_tangents(sub) for sub in values]


def field_first_derivatives(fields, coords, dim):
    """d_i of a nested array of ScalarFields, derivative index first, as
    nested lists; a zero array when the fields are constant."""
    if isinstance(fields, FieldArray):
        constant = fields.is_constant
    else:
        constant = fields_constant(fields)
    if constant:
        return np.zeros((dim,) + np.shape(fields))
    out = []
    for i in range(dim):
        env = [Dual(coords[n], 1.0 if n == i else 0.0) for n in range(dim)]
        out.append(_tangents(field_values(fields, env)))
    return out


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

    def check_point(self, point, sym_tol=1e-12, minor_floor=1e-10):
        """Symmetry and positive definiteness at one point; raises on failure."""
        g = self.array_at(point)
        asym = float(np.max(np.abs(g - g.T)))
        if asym > sym_tol:
            raise GeometryError(f"metric asymmetry {asym} at {list(point)}")
        for k in range(1, self.dim + 1):
            minor = float(np.linalg.det(g[:k, :k]))
            if minor <= minor_floor:
                raise NotPositiveDefiniteError(
                    f"leading principal minor {k} is {minor} at {list(point)}")
        return g


# ---------------------------------------------------------------------------
# Christoffel symbols and curvature


def christoffel_values(g: MetricField, coords):
    """Levi-Civita symbols Gamma^i_jk at generic coordinates.

    Gamma^i_jk = 1/2 g^il (d_j g_lk + d_k g_jl - d_l g_jk).
    """
    dim = g.dim
    if g.is_constant:
        return [[[0.0] * dim for _ in range(dim)] for _ in range(dim)]
    dg = field_first_derivatives(g.components, coords, dim)
    ginv = inv_generic(g.matrix_at(coords))
    gamma = [[[None] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(j, dim):
                s = 0.0
                for l in range(dim):
                    s = s + ginv[i][l] * (dg[j][l][k] + dg[k][j][l] - dg[l][j][k])
                val = 0.5 * s
                gamma[i][j][k] = val
                gamma[i][k][j] = val
    return gamma


def christoffel(g: MetricField, point) -> np.ndarray:
    """Levi-Civita connection coefficients at a point, shape (dim,dim,dim),
    symmetric in the lower pair."""
    return np.array(christoffel_values(g, [float(x) for x in point]), dtype=float)


def gamma_jet(gamma_fn, point, dim, constant=False):
    """Value and exact coordinate derivatives of a connection field.

    ``gamma_fn(coords)`` must return nested-list Gamma^i_jk for generic
    scalar coords.  Returns (Gamma[i,j,k], dGamma[m,i,j,k] = d_m Gamma^i_jk).
    ``constant=True`` promises the coefficients do not depend on the point
    and skips the derivative passes (dGamma is then zeros).

    ``point`` may hold (P,) lane arrays, one lane per sample point: then
    both arrays get a leading lane axis and the lanes are evaluated together
    under ``np.errstate(all="ignore")``, because Python float arithmetic
    overflows silently.  Lanes that would need different float operations
    (``LaneSplit``) are evaluated in groups.
    """
    lanes = lane_count(point)
    if lanes is None:
        return _jet([float(x) for x in point], gamma_fn, dim, constant, None)
    coords = [np.asarray(x, dtype=float) for x in point]
    try:
        with np.errstate(all="ignore"):
            return _jet(coords, gamma_fn, dim, constant, lanes)
    except LaneSplit as split:
        gamma = np.empty((lanes,) + (dim,) * 3)
        dgamma = np.empty((lanes,) + (dim,) * 4)
        for rows in (split.mask, ~split.mask):
            gamma[rows], dgamma[rows] = gamma_jet(
                gamma_fn, [c[rows] for c in coords], dim, constant)
        return gamma, dgamma


def _jet(p, gamma_fn, dim, constant, lanes):
    """gamma_jet at coordinates ``p`` (floats, or arrays of ``lanes`` lanes)."""
    gamma = lane_array(gamma_fn(p), lanes)
    if constant:
        return gamma, lane_zeros((dim,) * 4, lanes)
    dgamma = np.empty(gamma.shape[:-3] + (dim,) * 4)
    for m in range(dim):
        coords = [Dual(p[n], 1.0 if n == m else 0.0) for n in range(dim)]
        gm = gamma_fn(coords)
        dgamma[..., m, :, :, :] = lane_array(
            [[[primal(tangent(v)) for v in row] for row in mat] for mat in gm], lanes)
    return gamma, dgamma


def christoffel_jet(g: MetricField, point):
    """gamma_jet of the Levi-Civita symbols of ``g``."""
    return gamma_jet(lambda c: christoffel_values(g, c), point, g.dim,
                     constant=g.is_constant)


def riemann_from_jet(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """Curvature of a connection from its coefficients Gamma[i,j,k] and their
    derivatives dGamma[m,i,j,k] at a point, components R^i_jkl with
    R(e_k, e_l) e_j = R^i_jkl e_i:

        R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj
                  + Gamma^i_km Gamma^m_lj - Gamma^i_lm Gamma^m_kj.

    With a leading lane axis the contraction runs point by point, so every
    sum is taken in the order of a single point.
    """
    if gamma.ndim == 4:
        return np.stack([riemann_from_jet(*jet) for jet in zip(gamma, dgamma)])
    # dGamma[k,i,l,j] = d_k Gamma^i_lj
    r = np.einsum("kilj->ijkl", dgamma) - np.einsum("likj->ijkl", dgamma)
    r += np.einsum("ikm,mlj->ijkl", gamma, gamma)
    r -= np.einsum("ilm,mkj->ijkl", gamma, gamma)
    return r


def riemann(g: MetricField, point) -> np.ndarray:
    """Riemann curvature of the Levi-Civita connection at a point (or at
    every lane of lane coordinates, lane axis first)."""
    if g.is_constant:
        return lane_zeros((g.dim,) * 4, lane_count(point))
    return riemann_from_jet(*christoffel_jet(g, point))


def apply_curvature(r: np.ndarray, x, y, z) -> np.ndarray:
    """The vector R(X,Y)Z for a curvature-like tensor in R^i_jkl layout."""
    return ((r @ np.asarray(y)) @ np.asarray(x)) @ np.asarray(z)


def plane_q(g: np.ndarray, x, y) -> float:
    return float((x @ g @ x) * (y @ g @ y) - (x @ g @ y) ** 2)


def sectional_curvature(g: np.ndarray, r: np.ndarray, x, y) -> float:
    """Sectional curvature g(R(X,Y)Y,X)/Q(X,Y) of the plane span{X, Y}.

    ``g`` and ``r`` are evaluated arrays at the point of interest.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    q = plane_q(g, x, y)
    if q <= 1e-12:
        raise DegeneratePlaneError(f"Q(X,Y) = {q} below threshold")
    return float(x @ g @ apply_curvature(r, x, y, y)) / q


def nabla_g(gamma: np.ndarray, g: MetricField, point) -> np.ndarray:
    """(nabla g)_ijk = d_i g_jk - Gamma^m_ij g_mk - Gamma^m_ik g_jm for an
    arbitrary connection given by its coefficients at the point."""
    p = [float(x) for x in point]
    out = np.array(field_first_derivatives(g.components, p, g.dim), dtype=float)
    gm = g.array_at(p)
    out -= np.einsum("mij,mk->ijk", gamma, gm)
    out -= np.einsum("mik,jm->ijk", gamma, gm)
    return out


def covariant_derivative_11(gamma: np.ndarray, phi_fields, point) -> np.ndarray:
    """Covariant derivative of a (1,1) tensor field:

        (nabla_i phi)^j_k = d_i phi^j_k + Gamma^j_im phi^m_k - Gamma^m_ik phi^j_m

    Returns shape (dim, dim, dim) indexed [i, j, k].
    """
    dim = gamma.shape[0]
    p = [float(x) for x in point]
    out = np.array(field_first_derivatives(phi_fields, p, dim), dtype=float)
    phi = np.array(field_values(phi_fields, p), dtype=float)
    out += np.einsum("jim,mk->ijk", gamma, phi)
    out -= np.einsum("mik,jm->ijk", gamma, phi)
    return out


def covariant_derivative_vector(gamma: np.ndarray, v_fields, point) -> np.ndarray:
    """(nabla_i v)^j = d_i v^j + Gamma^j_im v^m, shape (dim, dim)."""
    dim = gamma.shape[0]
    p = [float(x) for x in point]
    dv = np.array(field_first_derivatives(v_fields, p, dim), dtype=float)
    v = np.array(field_values(v_fields, p), dtype=float)
    return dv + np.einsum("jim,m->ij", gamma, v)
