"""JSON manifold spec files: ingestion and export.

A spec file declares the chart (dimension, coordinate names, sampling box,
grid count) and all structure fields as expression strings.  The metric may
be given by its lower triangle; exactly one of a difference-tensor table or
a full connection table must be present.  Sparse tensor tables use keys of
comma-separated coordinate names, e.g. ``"z,z,z": "1"``.
"""

from __future__ import annotations

import json
import sys

from .manifold import ChartManifold
from .metric import MetricField, _as_fields
from .statistical import ConnectionDifferenceTensor, ExplicitDifferenceTensor

# the largest dimension a chart takes: its tables hold dim^3 strings and an
# audit's frame and curvature stacks dim^4 floats per point
MAX_DIM = 15


class SpecFormatError(ValueError):
    pass


def _require(cond, message):
    if not cond:
        raise SpecFormatError(message)


def _number(x) -> bool:
    """A JSON number that is a finite double."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and \
        abs(x) <= sys.float_info.max


def _scalars(value, shape, name):
    """``value`` as nested lists of ``shape`` whose entries are expression
    strings (numbers become their float repr); SpecFormatError otherwise."""
    if not shape:
        _require(isinstance(value, str) or _number(value),
                 f"{name} must be an expression string or a finite number")
        return value if isinstance(value, str) else repr(float(value))
    _require(isinstance(value, list) and len(value) == shape[0],
             f"{name} must be a list of {shape[0]} entries")
    return [_scalars(v, shape[1:], f"{name}[{i}]") for i, v in enumerate(value)]


def _sparse_tensor3(table, coords, name):
    _require(isinstance(table, dict), f"{name!r} must be an object of tensor entries")
    dim = len(coords)
    index = {c: i for i, c in enumerate(coords)}
    out = [[["0"] * dim for _ in range(dim)] for _ in range(dim)]
    seen = {}       # (i, j, k) -> the key that names it
    for key, expr in table.items():
        parts = [s.strip() for s in key.split(",")]
        _require(len(parts) == 3, f"tensor key {key!r} must have three indices")
        for s in parts:
            _require(s in index, f"tensor key {key!r} uses unknown coordinate {s!r}")
        i, j, k = (index[s] for s in parts)
        first = seen.setdefault((i, j, k), key)
        _require(first == key, f"tensor key {key!r} names the entry of {first!r} again")
        out[i][j][k] = _scalars(expr, (), f"{name}[{key!r}]")
    return out


def manifold_from_dict(data: dict) -> ChartManifold:
    """The manifold of a spec; every field is checked for its type and
    shape first, so a malformed spec raises SpecFormatError."""
    _require(isinstance(data, dict), "spec must be a JSON object")
    for key in ("coordinates", "metric_lower", "phi", "xi"):
        _require(key in data, f"spec is missing required field {key!r}")

    coords = data["coordinates"]
    _require(isinstance(coords, list) and all(isinstance(c, str) for c in coords),
             "coordinates must be a list of names")
    dim = len(coords)
    _require(dim % 2 == 1 and dim >= 3,
             f"dimension must be odd and >= 3, got {dim}")
    _require(dim <= MAX_DIM, f"dimension must be at most {MAX_DIM}, got {dim}")
    if "dimension" in data:
        _require(data["dimension"] == dim and not isinstance(data["dimension"], bool),
                 "declared dimension disagrees with the coordinate list")
    _require(len(set(coords)) == dim, "coordinate names must be distinct")

    box = data.get("box", [[-1.0, 1.0]] * dim)
    _require(isinstance(box, list) and len(box) == dim and all(
        isinstance(iv, list) and len(iv) == 2 and all(map(_number, iv)) for iv in box),
        "box must have one [lo, hi] interval of finite numbers per coordinate")
    grid = data.get("grid", 3)
    _require(isinstance(grid, int) and not isinstance(grid, bool), "grid must be an integer")

    memo = {}       # each distinct expression of the spec is parsed once

    def fields(table):
        return _as_fields(table, coords, memo)

    rows = data["metric_lower"]
    _require(isinstance(rows, list) and len(rows) == dim,
             f"metric_lower must be a list of {dim} rows")
    metric = MetricField.from_lower_triangle(fields(
        [_scalars(row, (i + 1,), f"metric_lower[{i}]") for i, row in enumerate(rows)]), coords)
    phi = _scalars(data["phi"], (dim, dim), "phi")
    xi = _scalars(data["xi"], (dim,), "xi")
    eta = data.get("eta")
    if eta is not None:
        eta = _scalars(eta, (dim,), "eta")

    has_k = "K" in data and data["K"] is not None
    has_conn = "connection" in data and data["connection"] is not None
    _require(has_k != has_conn,
             "exactly one of 'K' and 'connection' must be present")
    if has_k:
        diff = ExplicitDifferenceTensor(fields(_sparse_tensor3(data["K"], coords, "K")))
    else:
        diff = ConnectionDifferenceTensor(
            fields(_sparse_tensor3(data["connection"], coords, "connection")), metric)

    return ChartManifold(coords, metric, fields(phi), fields(xi), diff,
                         eta=None if eta is None else fields(eta), box=box, grid=grid,
                         name=str(data.get("name", "")))


def _object(pairs) -> dict:
    """A JSON object's dict; a name it repeats is a SpecFormatError, where
    ``json`` would keep the last value."""
    out = {}
    for key, value in pairs:
        _require(key not in out, f"spec object repeats the name {key!r}")
        out[key] = value
    return out


def load_spec(path) -> ChartManifold:
    with open(path) as fh:
        try:
            data = json.load(fh, object_pairs_hook=_object)
        except SpecFormatError:
            raise
        # a JSONDecodeError, an integer of too many digits, or nesting deeper
        # than the recursion limit
        except (ValueError, RecursionError) as exc:
            raise SpecFormatError(f"invalid JSON in {path}: {exc}") from exc
    return manifold_from_dict(data)


# ---------------------------------------------------------------------------
# export

_ZERO_STRINGS = {"0", "0.0", "-0.0"}


def _dense_to_sparse(fields, coords):
    out = {}
    dim = len(coords)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                s = fields[i][j][k].to_string()
                if s not in _ZERO_STRINGS:
                    out[f"{coords[i]},{coords[j]},{coords[k]}"] = s
    return out


def manifold_to_dict(m: ChartManifold) -> dict:
    coords = list(m.coords)
    data = {
        "name": m.name,
        "dimension": m.dim,
        "coordinates": coords,
        "box": [list(iv) for iv in m.box],
        "grid": m.grid,
        "metric_lower": [[m.metric.components[i][j].to_string()
                          for j in range(i + 1)] for i in range(m.dim)],
        "phi": [[f.to_string() for f in row] for row in m.phi],
        "xi": [f.to_string() for f in m.xi],
    }
    if m.eta is not None:
        data["eta"] = [f.to_string() for f in m.eta]
    diff = m.difference
    if isinstance(diff, ExplicitDifferenceTensor):
        data["K"] = _dense_to_sparse(diff.fields, coords)
    elif isinstance(diff, ConnectionDifferenceTensor):
        data["connection"] = _dense_to_sparse(diff.gamma_fields, coords)
    else:
        raise SpecFormatError(f"cannot export difference tensor {type(diff).__name__}")
    return data


def dump_spec(m: ChartManifold, path):
    with open(path, "w") as fh:
        json.dump(manifold_to_dict(m), fh, indent=2)
        fh.write("\n")
