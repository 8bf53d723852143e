"""JSON manifold spec files: ingestion and export.

A spec file declares the chart (dimension, coordinate names, sampling box,
grid count) and all structure fields as expression strings.  The metric may
be given by its lower triangle; exactly one of a difference-tensor table or
a full connection table must be present.  Sparse tensor tables use keys of
comma-separated coordinate names, e.g. ``"z,z,z": "1"``; a coordinate name
is an identifier that names no function, so keys and expressions can name it.
"""

from __future__ import annotations

import itertools
import json
import sys

from .expressions import ExpressionError, coordinate_name
from .manifold import ChartManifold
from .metric import FieldArray, MetricField, _as_fields, _flat
from .statistical import ConnectionDifferenceTensor, ExplicitDifferenceTensor

# the largest dimension a chart takes: its tables hold dim^3 strings and an
# audit's frame and curvature stacks dim^4 floats per point
MAX_DIM = 15
# the fields a spec may hold, in the order ``manifold_to_dict`` writes them
FIELDS = ("name", "dimension", "coordinates", "box", "grid", "metric_lower", "phi", "xi",
          "eta", "K", "connection")


class SpecFormatError(ValueError):
    pass


def _require(cond, message, *args):
    """SpecFormatError of ``message.format(*args)``, formatted only when ``cond`` fails."""
    if not cond:
        raise SpecFormatError(message.format(*args))


def _number(x) -> bool:
    """A JSON number that is a finite double."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and \
        abs(x) <= sys.float_info.max


def _scalars(value, shape, name, at=()):
    """``value`` as nested lists of ``shape`` whose entries are expression
    strings (numbers become their float repr); SpecFormatError naming the
    first entry, depth first, that is not.  An entry's name,
    ``name[at_0][at_1]...``, is formatted only when it fails."""
    if shape and isinstance(value, list) and len(value) == shape[0]:
        return [v if isinstance(v, str) and len(shape) == 1 else
                _scalars(v, shape[1:], name, at + (i,)) for i, v in enumerate(value)]
    if not shape and (isinstance(value, str) or _number(value)):
        return value if isinstance(value, str) else repr(float(value))
    what = f"a list of {shape[0]} entries" if shape else "an expression string or a finite number"
    raise SpecFormatError(name + "".join(f"[{i!r}]" for i in at) + f" must be {what}")


def _sparse_tensor3(table, coords, name):
    _require(isinstance(table, dict), "{!r} must be an object of tensor entries", name)
    dim = len(coords)
    index = {c: i for i, c in enumerate(coords)}
    out = [[["0"] * dim for _ in range(dim)] for _ in range(dim)]
    seen = {}       # (i, j, k) -> the key that names it
    for key, expr in table.items():
        parts = [s.strip() for s in key.split(",")]
        _require(len(parts) == 3, "tensor key {!r} must have three indices", key)
        for s in parts:
            _require(s in index, "tensor key {!r} uses unknown coordinate {!r}", key, s)
        i, j, k = ijk = tuple(index[s] for s in parts)
        first = seen.setdefault(ijk, key)
        _require(first == key, "tensor key {!r} names the entry of {!r} again", key, first)
        out[i][j][k] = expr if isinstance(expr, str) else _scalars(expr, (), name, (key,))
    return out, seen


def _entries(table, at=()):
    """(index, text) of each entry of nested lists of strings, row-major."""
    if isinstance(table, str):
        yield at, table
    else:
        for i, row in enumerate(table):
            yield from _entries(row, at + (i,))


def manifold_from_dict(data: dict) -> ChartManifold:
    """The manifold of a spec; every field is checked for its type and
    shape first, so a malformed spec raises SpecFormatError, then each table
    is parsed into the FieldArray the chart keeps.  An expression that does
    not parse is a SpecFormatError that names its entry."""
    _require(isinstance(data, dict), "spec must be a JSON object")
    unknown = [key for key in data if key not in FIELDS]
    _require(not unknown, "spec has unknown field {}; valid fields: {}",
             ", ".join(map(repr, unknown)), ", ".join(FIELDS))
    for key in ("coordinates", "metric_lower", "phi", "xi"):
        _require(key in data, "spec is missing required field {!r}", key)

    coords = data["coordinates"]
    _require(isinstance(coords, list) and all(isinstance(c, str) for c in coords),
             "coordinates must be a list of names")
    dim = len(coords)
    _require(dim % 2 == 1 and dim >= 3, "dimension must be odd and >= 3, got {}", dim)
    _require(dim <= MAX_DIM, "dimension must be at most {}, got {}", MAX_DIM, dim)
    if "dimension" in data:
        _require(data["dimension"] == dim and not isinstance(data["dimension"], bool),
                 "declared dimension disagrees with the coordinate list")
    _require(len(set(coords)) == dim, "coordinate names must be distinct")
    for c in coords:
        _require(coordinate_name(c), "coordinate {!r} must be an identifier "
                 "that is not a function name", c)

    box = data.get("box", [[-1.0, 1.0]] * dim)
    _require(isinstance(box, list) and len(box) == dim and all(
        isinstance(iv, list) and len(iv) == 2 and all(map(_number, iv)) for iv in box),
        "box must have one [lo, hi] interval of finite numbers per coordinate")
    grid = data.get("grid", 3)
    _require(isinstance(grid, int) and not isinstance(grid, bool), "grid must be an integer")

    rows = data["metric_lower"]
    _require(isinstance(rows, list) and len(rows) == dim,
             "metric_lower must be a list of {} rows", dim)
    lower = [_scalars(row, (i + 1,), "metric_lower", (i,)) for i, row in enumerate(rows)]
    phi = _scalars(data["phi"], (dim, dim), "phi")
    xi = _scalars(data["xi"], (dim,), "xi")
    eta = data.get("eta")
    if eta is not None:
        eta = _scalars(eta, (dim,), "eta")
    has_k = "K" in data and data["K"] is not None
    has_conn = "connection" in data and data["connection"] is not None
    _require(has_k != has_conn,
             "exactly one of 'K' and 'connection' must be present")
    table = "K" if has_k else "connection"
    tensor, keys = _sparse_tensor3(data[table], coords, table)

    memo = {}       # each distinct expression of the spec is parsed once

    def parsed(entries, name, keys=None):
        """``entries`` parsed (``metric._as_fields``); the entry whose text
        does not parse is the first, row-major, that the memo lacks."""
        try:
            return _as_fields(entries, coords, memo)
        except ExpressionError as exc:
            at = next(at for at, text in _entries(entries) if text not in memo)
            entry = f"[{keys[at]!r}]" if keys else "".join(f"[{i!r}]" for i in at)
            raise SpecFormatError(f"{name}{entry}: {exc}") from exc

    metric = MetricField.from_lower_triangle(parsed(lower, "metric_lower"), coords)
    tensor = FieldArray(parsed(tensor, table, keys))
    diff = ExplicitDifferenceTensor(tensor) if has_k else \
        ConnectionDifferenceTensor(tensor, metric)
    return ChartManifold(coords, metric, FieldArray(parsed(phi, "phi")),
                         FieldArray(parsed(xi, "xi")), diff,
                         eta=None if eta is None else FieldArray(parsed(eta, "eta")),
                         box=box, grid=grid, name=str(data.get("name", "")))


def _object(pairs) -> dict:
    """A JSON object's dict; a name it repeats is a SpecFormatError, where
    ``json`` would keep the last value."""
    out = {}
    for key, value in pairs:
        _require(key not in out, "spec object repeats the name {!r}", key)
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
    """The non-zero entries of a dim^3 table, keyed in row-major order."""
    flat = _flat(fields, fields.shape)
    texts = zip(itertools.product(coords, repeat=3), (f.to_string() for f in flat))
    return {",".join(key): s for key, s in texts if s not in _ZERO_STRINGS}


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
