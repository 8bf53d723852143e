"""Curved contact charts with exact answers, as spec dicts (the format of
``acsgeo.specfile``, as ``export-zoo`` writes it).  They are test inputs,
not zoo entries.  Coordinates are x1, y1, .., xn, yn and then z (or t).

``sasakian(n, lam)`` is the Sasakian space form R^{2n+1}(-3) (Blair,
*Riemannian Geometry of Contact and Symplectic Manifolds*, 2nd ed., 2010):

    eta = (dz - sum y_i dx_i) / 2,   xi = 2 d/dz,
    g = eta (x) eta + (sum dx_i^2 + dy_i^2) / 4,
    phi d/dx_i = -d/dy_i,   phi d/dy_i = d/dx_i + y_i d/dz,

with the statistical K = lam eta (x) eta (x) xi, whose entries K^z_ab are
2 lam eta_a eta_b.  Its phi-sections have K^0 = K^S = -3 and K_phi = 0, and
lambda is ``lam``.

``warped_cone(n)`` is dt^2 + t^2 sum(dx_i^2 + dy_i^2) on t in [1, 2], with
xi = d/dt, eta = dt, the rotation phi d/dx_i = d/dy_i of the flat fiber and
K = 0.  Its phi-sections lie in the fiber, so K^0 = -f'^2 / f^2 = -1/t^2 at
the point's t (f = t), K^S = K^0 and K_phi = 0.
"""

LAMBDA = 0.7


def _coords(n, last):
    return [c for i in range(1, n + 1) for c in (f"x{i}", f"y{i}")] + [last]


def _lower(g):
    """The lower triangle of a dict {(a, b): text} of symmetric entries."""
    dim = 1 + max(a for a, _ in g)
    return [[g.get((a, b), g.get((b, a), "0")) for b in range(a + 1)] for a in range(dim)]


def sasakian(n: int, lam: float = 0.0) -> dict:
    """The spec of Sasakian R^{2n+1}(-3) with K = lam eta (x) eta (x) xi."""
    coords = _coords(n, "z")
    dim, z = len(coords), len(coords) - 1
    # eta_a times 2: -y_i on x_i, 1 on z; products of two are 4 eta_a eta_b
    eta2 = {2 * i: f"-y{i + 1}" for i in range(n)}
    eta2[z] = "1"

    def times(c, a, b):
        """c eta_a eta_b as text, for a, b with eta2 entries."""
        factors = [f for f in (eta2[a], eta2[b]) if f != "1"]
        sign = "-" if sum(f.startswith("-") for f in factors) % 2 else ""
        return sign + "*".join([repr(c / 4)] + [f.lstrip("-") for f in factors])
    g = {(a, b): times(1.0, a, b) for a in eta2 for b in eta2 if b <= a}
    for a in range(dim - 1):
        g[(a, a)] = "0.25" if a not in eta2 else f"0.25 + {g[(a, a)]}"
    phi = [["0"] * dim for _ in range(dim)]
    for i in range(n):
        x, y = 2 * i, 2 * i + 1
        phi[y][x] = "-1"
        phi[x][y] = "1"
        phi[z][y] = f"y{i + 1}"
    K = {} if lam == 0.0 else {f"z,{coords[a]},{coords[b]}": times(2.0 * lam, a, b)
                               for a in eta2 for b in eta2}
    return {"name": f"sasakian(n={n},lambda={lam!r})", "coordinates": coords, "grid": 2,
            "metric_lower": _lower(g), "phi": phi, "xi": ["0"] * z + ["2"], "K": K}


def warped_cone(n: int) -> dict:
    """The spec of the cone dt^2 + t^2 sum(dx_i^2 + dy_i^2), t in [1, 2]."""
    coords = _coords(n, "t")
    dim = len(coords)
    phi = [["0"] * dim for _ in range(dim)]
    for i in range(n):
        phi[2 * i + 1][2 * i] = "1"
        phi[2 * i][2 * i + 1] = "-1"
    g = {(a, a): "t^2" for a in range(dim - 1)}
    g[(dim - 1, dim - 1)] = "1"
    return {"name": f"warped_cone(n={n})", "coordinates": coords, "grid": 2,
            "box": [[-1.0, 1.0]] * (dim - 1) + [[1.0, 2.0]],
            "metric_lower": _lower(g), "phi": phi, "xi": ["0"] * (dim - 1) + ["1"], "K": {}}
