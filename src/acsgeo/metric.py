"""Riemannian machinery on a coordinate chart.

A field is a nested array of expression fields, a ``FieldArray``, indexed
once, when it is built, and never mutated after.  ``field_jet`` evaluates
one at (P,) lane coordinates, one lane per evaluated point, with one Taylor
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
derivatives the frames carry, stacked on leading axes, evaluating no
fields.  ``first_slot`` applies a matrix to the first slot of a tensor as
one (dim x dim) @ (dim x dim^r) product per lane; ``nabla_g``, the
covariant derivative of a (1,1) field and the checks' contractions are
such products, or (dim x dim) @ (dim x dim) ones per matrix, read through
transposed views.  ``inner``, ``contract``, ``plane_q``, ``apply_curvature`` and
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

from .expressions import Jet, ScalarField, parse_expression


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


def per_16_lanes(fn, *arrays, lane=None):
    """``fn`` of the lanes of ``arrays``, 16 at a time, joined on the lane
    axis, so no temporary holds more than 16 lanes of a (L, dim, dim, dim,
    dim) curvature stack; an argument of one lane is shared by every lane.
    With ``lane``, the (P,) lane of each of P points, ``fn`` runs on the
    points: an argument of P rows is read 16 rows at a time and one of
    other lanes at the lanes of those rows (``take_lanes``).  Without
    lanes, ``fn`` runs once, on none."""
    rows = max(map(len, arrays)) if lane is None else len(lane)

    def at(a, c):
        if len(a) == 1:
            return a
        return a[c:c + 16] if lane is None or len(a) == rows else take_lanes(a, lane[c:c + 16])
    with np.errstate(all="ignore"):
        return np.concatenate([fn(*(at(a, c) for a in arrays)) for c in range(0, rows or 1, 16)])


def take_lanes(a: np.ndarray, lanes) -> np.ndarray:
    """The rows ``lanes`` of the lane array ``a``; a stride-0 broadcast, such
    as the flat R^0, stays one."""
    if a.strides[0]:
        return a[lanes]
    return np.broadcast_to(a[:1], (len(lanes),) + a.shape[1:])


def at_points(a, lane, points: int):
    """A lane array read at each of ``points`` points, (points, ...): ``a``
    itself when it has a row per point, a read-only broadcast view of its
    row when it has one that every point shares, else the row of each
    point's lane, ``lane`` (P,) (``take_lanes``)."""
    a = np.asarray(a)
    if len(a) == points:
        return a
    return np.broadcast_to(a, (points,) + a.shape[1:]) if len(a) == 1 else take_lanes(a, lane)


def distinct_rows(a: np.ndarray):
    """(first, index) of the rows of ``a``, (P, ...), by the bytes of their
    entries, so -0.0 is not 0.0: the position of the first row of each
    distinct row, in the order the rows meet them, and the (P,) number of
    each row's, so row 0 has number 0."""
    raw = np.ascontiguousarray(a).tobytes()
    width = len(raw) // len(a) if len(a) else 0
    seen, first, index = {}, [], []
    for i in range(len(a)):
        key = raw[i * width:(i + 1) * width]
        n = seen.get(key)
        if n is None:
            n = seen[key] = len(first)
            first.append(i)
        index.append(n)
    return np.array(first, dtype=np.intp), np.array(index, dtype=np.intp)


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


def fields_constant(fields) -> bool:
    """True when no ScalarField of ``fields`` (a field or a nested array) reads a coordinate."""
    return not FieldArray([fields]).reads


def _as_fields(entries, coord_names, memo=None):
    """A nested array of expression strings, numbers and ScalarFields as one
    of ScalarFields; a number is read as its float repr.  Each distinct
    text is parsed once per ``memo`` (text -> field), so its entries share
    one field, which ``field_jet`` walks once.  A builder passes one memo
    for all the fields of its input and drops it when the input is built;
    without one, the call keeps its own."""
    memo = {} if memo is None else memo

    def field(entry):
        if isinstance(entry, str):
            parsed = memo.get(entry)
            if parsed is None:
                parsed = memo[entry] = parse_expression(entry, coord_names)
            return parsed
        if isinstance(entry, ScalarField):
            return entry
        if isinstance(entry, (int, float)):
            return field(repr(float(entry)))
        return [field(e) for e in entry]
    return field(entries)


def _flat(fields, shape):
    """The ScalarFields of a nested array in row-major order; ValueError
    unless it holds a ScalarField at each index of ``shape``."""
    level = [fields]
    for n in shape:     # a row of another length is dropped, and so missed
        level = [f for r in level if isinstance(r, (list, tuple)) and len(r) == n for f in r]
    if len(level) != math.prod(shape) or not all(isinstance(f, ScalarField) for f in level):
        raise ValueError(f"a field array of shape {shape} must hold a ScalarField at each index")
    return level


class FieldArray(list):
    """A nested array of ScalarFields (a list of rows), indexed once, when it
    is built, and never mutated after: its ``shape``, read from the
    nesting; its ``distinct`` fields; the ``column`` of each entry among
    them, in row-major order, or None when no two entries share a field;
    and ``reads``, the sorted indices of the coordinates those fields read
    (``ScalarField.reads``), so its constancy.  ``field_jet`` reads this
    index and walks no table."""

    def __init__(self, rows):
        super().__init__(rows)
        shape, row = [], self
        while isinstance(row, (list, tuple)):
            shape.append(len(row))
            row = row[0]
        self.shape = tuple(shape)
        flat = _flat(self, self.shape)
        # ScalarFields hash and compare by identity
        column = {f: i for i, f in enumerate(dict.fromkeys(flat))}
        self.distinct = list(column)
        self.column = np.array([column[f] for f in flat], dtype=np.intp) \
            if len(column) < len(flat) else None
        self.reads = tuple(sorted(set().union(*(f.reads for f in self.distinct))))
        self.is_constant = not self.reads


def field_array(entries, coord_names=None, memo=None) -> FieldArray:
    """``entries`` as a FieldArray: itself when it is one, else its expression
    strings and numbers parsed over ``coord_names`` (``_as_fields``, with
    ``memo``) and the array indexed once."""
    if isinstance(entries, FieldArray):
        return entries
    return FieldArray(entries if coord_names is None else _as_fields(entries, coord_names, memo))


def field_jet(fields, coords, order: int):
    """The jet of a FieldArray at the (P,) lane coordinates ``coords``: the
    values (P, *shape) and, up to ``order`` (0, 1 or 2), the gradients
    (P, dim, *shape) and Hessians (P, dim, dim, *shape).  A plain nested
    list is indexed first, at each call.  Each distinct field is walked
    once into a (..., n_distinct) array, which one ``np.take`` per array
    expands to the entries (a metric's mirrored entries share one field);
    ``take`` returns C-contiguous arrays, whose products sum in the order a
    filled array's do.  The derivatives of a constant array are broadcast
    zeros.  Run it under ``np.errstate(all="ignore")``: lanes overflow as
    Python floats do."""
    fields = field_array(fields)
    lanes, dim = len(coords[0]), len(coords)
    distinct, constant = fields.distinct, fields.is_constant
    out = [np.empty((lanes, len(distinct)))]
    if not constant:
        out += [np.zeros((lanes,) + (dim,) * k + (len(distinct),)) for k in range(1, order + 1)]
    env = Jet.variables(coords, order) if len(out) > 1 else coords
    for i, f in enumerate(distinct):
        jet = f.eval_scalar(env)
        if isinstance(jet, Jet):
            out[0][:, i] = jet.val
            out[1][..., i] = jet.grad.T
            if order == 2:
                out[2][..., i] = jet.hess.transpose(2, 0, 1)
        else:
            out[0][:, i] = jet
    if fields.column is not None:
        out = [np.take(a, fields.column, axis=-1) for a in out]
    if constant:
        size = out[0].shape[-1]
        out += [np.broadcast_to(0.0, (lanes,) + (dim,) * k + (size,)) for k in range(1, order + 1)]
    return tuple(a.reshape(a.shape[:-1] + fields.shape) for a in out)


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
    """Symmetric dim x dim array of ScalarFields g_ij, kept as the FieldArray
    it is given or indexed once."""

    def __init__(self, components):
        dim = len(components)
        for row in components:
            if len(row) != dim:
                raise ValueError("metric component array must be square")
        self.components = field_array(components)
        self.dim = dim
        self.reads = self.components.reads
        # constant metrics short-circuit every derivative evaluation
        self.is_constant = self.components.is_constant

    @classmethod
    def from_lower_triangle(cls, entries, coord_names):
        """Build from rows of expression strings (or ScalarFields) giving the
        lower triangle (row i has i+1 entries), each distinct text parsed
        once; the upper triangle is mirrored, so symmetry holds exactly by
        construction."""
        for i, row in enumerate(entries):
            if len(row) < i + 1:
                raise ValueError(f"row {i} of lower triangle needs {i + 1} entries")
        low = _as_fields([row[:i + 1] for i, row in enumerate(entries)], coord_names)
        return cls([[low[max(i, j)][min(i, j)] for j in range(len(low))] for i in range(len(low))])

    def array_at(self, point) -> np.ndarray:
        """g_ij at one point, (dim, dim): a one-lane, order-0 ``field_jet``."""
        with np.errstate(all="ignore"):
            return field_jet(self.components, lanes_of(point)[0], 0)[0][0]

    def derivatives_at(self, point) -> np.ndarray:
        """d_i g_jk at a point, shape (dim, dim, dim)."""
        return field_first_derivatives(self.components, point)


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
    """sqrt(max(g(v, v), 0)) of stacked vectors, the norm of each (a zero
    norm may lose its sign, so compare it, do not print it)."""
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


def first_slot(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(a t)[..., i, j, ...] = sum_m a[..., i, m] t[..., m, j, ...]: the matrix
    ``a`` applied to the first slot of the tensor ``t``, both with the same
    number of leading axes.  Each lane takes one (dim x dim) @ (dim x dim^r)
    product, the other slots of ``t`` merged into columns, so a lane alone
    and a stack get the same floats."""
    lead = a.ndim - 2
    slots = t.shape[lead + 1:]
    out = a @ t.reshape(t.shape[:lead + 1] + (math.prod(slots),))
    return out.reshape(out.shape[:-1] + slots)


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
    d_i g_jk (the same number of leading axes).  Each Gamma g term is one
    ``first_slot`` product per lane, (dim x dim) @ (dim x dim^2), read
    through a transposed view."""
    gamma_g = first_slot(np.swapaxes(g, -1, -2), gamma)              # [k, i, j]
    out = dg - np.swapaxes(np.swapaxes(gamma_g, -3, -2), -2, -1)
    out -= np.swapaxes(first_slot(g, gamma), -3, -2)
    return out


def covariant_derivative_11(gamma: np.ndarray, phi: np.ndarray,
                            dphi: np.ndarray) -> np.ndarray:
    """Covariant derivative of a (1,1) tensor field from its values
    phi[..., j, k] and first derivatives dphi[..., i, j, k] = d_i phi^j_k
    (the same number of leading axes):

        (nabla_i phi)^j_k = d_i phi^j_k + Gamma^j_im phi^m_k - Gamma^m_ik phi^j_m

    Returns shape (..., dim, dim, dim) indexed [..., i, j, k].  The Gamma phi
    terms are (dim x dim) @ (dim x dim) products per matrix of Gamma and
    one ``first_slot`` product per lane, read through transposed views.
    """
    out = dphi + np.swapaxes(gamma @ phi[..., None, :, :], -3, -2)
    out -= np.swapaxes(first_slot(phi, gamma), -3, -2)
    return out


def covariant_derivative_vector(gamma: np.ndarray, v: np.ndarray,
                                dv: np.ndarray) -> np.ndarray:
    """(nabla_i v)^j = d_i v^j + Gamma^j_im v^m from the values v[..., j] and
    first derivatives dv[..., i, j] = d_i v^j (any leading axes), shape
    (..., dim, dim)."""
    return dv + np.einsum("...jim,...m->...ij", gamma, v)
