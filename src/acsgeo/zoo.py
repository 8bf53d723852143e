"""Built-in example structures and deterministic random generators of
admissible almost contact statistical structures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .manifold import ChartManifold
from .metric import MetricField, _as_fields
from .statistical import ExplicitDifferenceTensor, difference_from_connection


class UnsupportedDimensionError(ValueError):
    pass


# the largest dimension a zoo structure takes: its tables hold dim^3 strings
# and an audit's frame and curvature stacks dim^4 floats per point
MAX_DIM = 15


@dataclass
class ZooEntry:
    name: str
    manifold: ChartManifold
    expected: Dict = field(default_factory=dict)


def _flat_chart(n: int):
    """Coordinates, flat metric (lower triangle) and the standard block
    phi / xi / eta for R^(2n+1) with coordinate order (x1, y1, ..., xn, yn,
    z), as expression strings."""
    coords = []
    for i in range(1, n + 1):
        coords += [f"x{i}", f"y{i}"]
    coords.append("z")
    dim = 2 * n + 1
    lower = [["1" if j == i else "0" for j in range(i + 1)] for i in range(dim)]
    phi = [["0"] * dim for _ in range(dim)]
    for b in range(n):
        xi_idx, yi_idx = 2 * b, 2 * b + 1
        phi[yi_idx][xi_idx] = "1"    # phi(d/dx_i) = d/dy_i
        phi[xi_idx][yi_idx] = "-1"   # phi(d/dy_i) = -d/dx_i
    xi = ["0"] * (dim - 1) + ["1"]
    return coords, lower, phi, xi


def _zero_tensor3(dim):
    return [[["0"] * dim for _ in range(dim)] for _ in range(dim)]


def _chart(name, coords, lower, phi, xi, k=None, gamma=None) -> ChartManifold:
    """The chart over the box [-1, 1]^dim of an entry's expression tables:
    the metric's lower triangle, phi, xi and either the difference tensor
    ``k`` or a connection table ``gamma`` (torsion-free at the origin).
    Each distinct expression of the entry is parsed once."""
    memo = {}

    def fields(table):
        return _as_fields(table, coords, memo)

    g = MetricField.from_lower_triangle(fields(lower), coords)
    dim = len(coords)
    diff = ExplicitDifferenceTensor(fields(k)) if gamma is None else \
        difference_from_connection(fields(gamma), g, sample_points=[(0.0,) * dim])
    return ChartManifold(coords, g, fields(phi), fields(xi), diff, box=[(-1.0, 1.0)] * dim,
                         name=name)


def example_flat_acs(n: int = 1) -> ZooEntry:
    """Flat R^(2n+1) with the standard block structure and the difference
    tensor supported on K(xi, xi) = xi only.  Cosymplectic, phi-compatible,
    vanishing phi-sectional K-curvature, lambda = 1."""
    if n < 1:
        raise UnsupportedDimensionError("n must be >= 1")
    if 2 * n + 1 > MAX_DIM:
        raise UnsupportedDimensionError(f"n must be at most {(MAX_DIM - 1) // 2}, got {n}")
    coords, lower, phi, xi = _flat_chart(n)
    dim = 2 * n + 1
    k = _zero_tensor3(dim)
    k[dim - 1][dim - 1][dim - 1] = "1"
    name = f"example_flat_acs(n={n})"
    return ZooEntry(
        name=name,
        manifold=_chart(name, coords, lower, phi, xi, k=k),
        expected={
            "lambda": 1.0,
            "k_phi": 0.0,
            "cosymplectic": True,
            "phi_compatible": True,
            "thm_5_8_branch": "all-true",
            "geodesic_pair": (0.0, 1.0),
        },
    )


def example_r3_negative() -> ZooEntry:
    """Flat R^3 with the standard structure and a non-trivial statistical
    connection supported on the (x, y) plane; constant phi-sectional
    K-curvature -1 and not phi-compatible."""
    _, lower, phi, xi = _flat_chart(1)
    gamma = _zero_tensor3(3)
    x, y = 0, 1
    gamma[x][x][x] = "-1/2"
    gamma[y][x][x] = "1/2"
    gamma[x][x][y] = gamma[x][y][x] = "1/2"
    gamma[y][x][y] = gamma[y][y][x] = "1/2"
    gamma[x][y][y] = "1/2"
    gamma[y][y][y] = "-1/2"
    return ZooEntry(
        name="example_r3_negative",
        manifold=_chart("example_r3_negative", ["x", "y", "z"], lower, phi, xi, gamma=gamma),
        expected={
            "lambda": 0.0,
            "k_phi": -1.0,
            "cosymplectic": True,
            "phi_compatible": False,
            "thm_5_8_branch": "all-false",
            "geodesic_pair": (0.0, 0.0),
        },
    )


FAMILIES = ("trivial-lambda", "planar-block", "mixed")


def _fmt(x: float) -> str:
    return repr(float(x))


def _block_k(k, b: int, a: float):
    """Write the magnitude-``a`` planar difference-tensor block on the
    coordinate pair (x_b, y_b); the pattern is the R^3 example scaled by a."""
    x, y = 2 * b, 2 * b + 1
    k[x][x][x] = _fmt(-0.5 * a)
    k[y][x][x] = _fmt(0.5 * a)
    k[x][x][y] = k[x][y][x] = _fmt(0.5 * a)
    k[y][x][y] = k[y][y][x] = _fmt(0.5 * a)
    k[x][y][y] = _fmt(0.5 * a)
    k[y][y][y] = _fmt(-0.5 * a)


def generate_random_acs(dim: int, seed: int, family: str) -> ZooEntry:
    """Deterministic-per-seed admissible structure from one of three closed
    families:

    - ``trivial-lambda``: K = lambda(p) eta (x) eta (x) xi with a random
      degree-2 polynomial lambda; realizes the all-true equivalence branch
      with non-constant lambda.
    - ``planar-block``: the scaled R^3-example pattern on one coordinate
      block, plus a constant lambda term; all-false branch with
      phi-sectional K-curvature -a^2 on that block's sections.
    - ``mixed``: a direct sum of planar blocks with distinct magnitudes
      (plus a lambda term); exercises non-constant curvature across
      sections when dim >= 5.
    """
    if dim % 2 == 0 or dim < 3:
        raise UnsupportedDimensionError(f"dimension must be odd and >= 3, got {dim}")
    if dim > MAX_DIM:
        raise UnsupportedDimensionError(f"dimension must be at most {MAX_DIM}, got {dim}")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    n = (dim - 1) // 2
    stable = (dim * 1000003 + int(seed) * 7919 + FAMILIES.index(family)) % 2 ** 32
    rng = np.random.default_rng(stable)
    coords, lower, phi, xi = _flat_chart(n)
    k = _zero_tensor3(dim)
    expected = {"family": family, "seed": int(seed)}

    if family == "trivial-lambda":
        terms = ["{:.6f}".format(rng.uniform(0.2, 2.0))]
        for c in coords:
            if rng.random() < 0.6:
                terms.append("{:.6f} * {}".format(rng.uniform(-0.5, 0.5), c))
        if rng.random() < 0.5:
            c1, c2 = rng.choice(coords, size=2, replace=False)
            terms.append("{:.6f} * {} * {}".format(rng.uniform(-0.3, 0.3), c1, c2))
        k[dim - 1][dim - 1][dim - 1] = " + ".join(terms)
        expected.update({"thm_5_8_branch": "all-true", "k_phi": 0.0,
                         "phi_compatible": True})
    elif family == "planar-block":
        a = float(rng.uniform(0.5, 2.5))
        b = int(rng.integers(0, n))
        _block_k(k, b, a)
        lam = float(rng.uniform(-1.0, 1.0)) if rng.random() < 0.5 else 0.0
        if lam:
            k[dim - 1][dim - 1][dim - 1] = _fmt(lam)
        expected.update({"thm_5_8_branch": "all-false", "block": b,
                         "block_magnitude": a, "block_k_phi": -a * a,
                         "lambda": lam, "phi_compatible": False})
    else:  # mixed
        base = float(rng.uniform(0.5, 1.5))
        mags = [base * (1.0 + 0.7 * i) for i in range(n)]
        for b, a in enumerate(mags):
            _block_k(k, b, a)
        lam = float(rng.uniform(-1.0, 1.0))
        k[dim - 1][dim - 1][dim - 1] = _fmt(lam)
        expected.update({"thm_5_8_branch": "all-false",
                         "block_magnitudes": mags, "lambda": lam,
                         "constant_k_phi": n == 1, "phi_compatible": False})

    name = f"random:{family}:dim={dim}:seed={seed}"
    return ZooEntry(name=name, manifold=_chart(name, coords, lower, phi, xi, k=k),
                    expected=expected)


# ---------------------------------------------------------------------------
# registry


# the parameters each entry takes
PARAMETERS = {"example_flat_acs": ("n",), "example_r3_negative": (),
              "random": ("dim", "seed", "family")}


def list_zoo():
    return list(PARAMETERS)


def get_entry(name: str, **params) -> ZooEntry:
    """The zoo entry ``name`` built with ``params``; a parameter the entry
    does not take is a ValueError that lists the ones it does."""
    if name not in PARAMETERS:
        raise KeyError(f"unknown zoo entry {name!r}; available: {list_zoo()}")
    unknown = sorted(set(params) - set(PARAMETERS[name]))
    if unknown:
        raise ValueError(f"unknown parameter {', '.join(map(repr, unknown))} for zoo entry "
                         f"{name!r}; valid keys: {', '.join(PARAMETERS[name]) or 'none'}")
    if name == "example_flat_acs":
        return example_flat_acs(int(params.get("n", 1)))
    if name == "example_r3_negative":
        return example_r3_negative()
    return generate_random_acs(int(params.get("dim", 3)), int(params.get("seed", 0)),
                               str(params.get("family", "trivial-lambda")))
