"""Built-in example structures and deterministic random generators of
admissible almost contact statistical structures.  Each entry is a spec
dict, as a spec file holds, that ``specfile.manifold_from_dict`` builds."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .manifold import ChartManifold
from .specfile import MAX_DIM, manifold_from_dict


class UnsupportedDimensionError(ValueError):
    pass


@dataclass
class ZooEntry:
    name: str
    manifold: ChartManifold
    expected: Dict = field(default_factory=dict)


def _flat_spec(name: str, n: int) -> dict:
    """The spec ``name`` of flat R^(2n+1) with the standard block phi / xi
    and coordinate order (x1, y1, ..., xn, yn, z), before its difference
    tensor or connection table is added."""
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
    return {"name": name, "coordinates": coords, "metric_lower": lower, "phi": phi, "xi": xi}


def _entry(spec: dict, expected: Dict) -> ZooEntry:
    """The entry of ``spec`` over the box [-1, 1]^dim, built by the spec
    builder like any spec file."""
    return ZooEntry(name=spec["name"], manifold=manifold_from_dict(spec), expected=expected)


def example_flat_acs(n: int = 1) -> ZooEntry:
    """Flat R^(2n+1) with the standard block structure and the difference
    tensor supported on K(xi, xi) = xi only.  Cosymplectic, phi-compatible,
    vanishing phi-sectional K-curvature, lambda = 1."""
    if n < 1:
        raise UnsupportedDimensionError("n must be >= 1")
    if 2 * n + 1 > MAX_DIM:
        raise UnsupportedDimensionError(f"n must be at most {(MAX_DIM - 1) // 2}, got {n}")
    spec = dict(_flat_spec(f"example_flat_acs(n={n})", n), K={"z,z,z": "1"})
    return _entry(spec, {
        "lambda": 1.0,
        "k_phi": 0.0,
        "cosymplectic": True,
        "phi_compatible": True,
        "thm_5_8_branch": "all-true",
        "geodesic_pair": (0.0, 1.0),
    })


def _block(x: str, y: str, neg: str, pos: str) -> Dict[str, str]:
    """The planar block of a difference tensor or connection table on the
    coordinate pair (x, y), as sparse spec entries: ``neg`` at (x, x, x) and
    (y, y, y), ``pos`` at the other six non-zero entries of the R^3
    example's pattern."""
    return {f"{x},{x},{x}": neg, f"{y},{x},{x}": pos,
            f"{x},{x},{y}": pos, f"{x},{y},{x}": pos,
            f"{y},{x},{y}": pos, f"{y},{y},{x}": pos,
            f"{x},{y},{y}": pos, f"{y},{y},{y}": neg}


def example_r3_negative() -> ZooEntry:
    """Flat R^3 with the standard structure and a non-trivial statistical
    connection supported on the (x, y) plane; constant phi-sectional
    K-curvature -1 and not phi-compatible."""
    spec = dict(_flat_spec("example_r3_negative", 1), coordinates=["x", "y", "z"],
                connection=_block("x", "y", "-1/2", "1/2"))
    return _entry(spec, {
        "lambda": 0.0,
        "k_phi": -1.0,
        "cosymplectic": True,
        "phi_compatible": False,
        "thm_5_8_branch": "all-false",
        "geodesic_pair": (0.0, 0.0),
    })


FAMILIES = ("trivial-lambda", "planar-block", "mixed")


def _fmt(x: float) -> str:
    return repr(float(x))


def _block_k(b: int, a: float) -> Dict[str, str]:
    """The magnitude-``a`` planar difference-tensor block on the coordinate
    pair (x_b, y_b), numbered from 0: the R^3 example scaled by a."""
    return _block(f"x{b + 1}", f"y{b + 1}", _fmt(-0.5 * a), _fmt(0.5 * a))


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
    spec = _flat_spec(f"random:{family}:dim={dim}:seed={seed}", n)
    coords = spec["coordinates"]
    k = spec["K"] = {}
    expected = {"family": family, "seed": int(seed)}

    if family == "trivial-lambda":
        terms = ["{:.6f}".format(rng.uniform(0.2, 2.0))]
        for c in coords:
            if rng.random() < 0.6:
                terms.append("{:.6f} * {}".format(rng.uniform(-0.5, 0.5), c))
        if rng.random() < 0.5:
            c1, c2 = rng.choice(coords, size=2, replace=False)
            terms.append("{:.6f} * {} * {}".format(rng.uniform(-0.3, 0.3), c1, c2))
        k["z,z,z"] = " + ".join(terms)
        expected.update({"thm_5_8_branch": "all-true", "k_phi": 0.0,
                         "phi_compatible": True})
    elif family == "planar-block":
        a = float(rng.uniform(0.5, 2.5))
        b = int(rng.integers(0, n))
        k.update(_block_k(b, a))
        lam = float(rng.uniform(-1.0, 1.0)) if rng.random() < 0.5 else 0.0
        if lam:
            k["z,z,z"] = _fmt(lam)
        expected.update({"thm_5_8_branch": "all-false", "block": b,
                         "block_magnitude": a, "block_k_phi": -a * a,
                         "lambda": lam, "phi_compatible": False})
    else:  # mixed
        base = float(rng.uniform(0.5, 1.5))
        mags = [base * (1.0 + 0.7 * i) for i in range(n)]
        for b, a in enumerate(mags):
            k.update(_block_k(b, a))
        lam = float(rng.uniform(-1.0, 1.0))
        k["z,z,z"] = _fmt(lam)
        expected.update({"thm_5_8_branch": "all-false",
                         "block_magnitudes": mags, "lambda": lam,
                         "constant_k_phi": n == 1, "phi_compatible": False})
    return _entry(spec, expected)


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
