"""Chart invariance: an audit must not depend on the chart it runs in.

``pull_back`` rewrites a spec in the chart u with x = A u + b: each
coordinate of every expression string becomes its affine expression in u,
and g, phi, xi, eta and K (or a connection table) transform as tensors.
Every zoo structure has g = I in its own chart, so only a pulled-back chart
with A non-orthogonal can tell an upper index of K from a lower one.  At
corresponding points both charts must give the same lambda, Theorem 5.8
branch, cosymplectic flag, phi-compatibility decision, axiom decisions and
S and R^0 sectional curvatures of corresponding planes.

Two sign flips give another almost contact metric structure with the same
g and K: phi -> -phi, and (xi, eta) -> (-xi, -eta).  An audit of either
keeps every verdict and value, except lambda, which K(xi, xi) = lambda xi
turns into -lambda under the second."""

import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acsgeo import cli, generate_random_acs
from acsgeo import curvature as curv
from acsgeo.contact import is_cosymplectic, validate_structure
from acsgeo.metric import sectional_curvature
from acsgeo.specfile import manifold_from_dict, manifold_to_dict
from acsgeo.statistical import lambda_of, validate_acs, validate_statistical

_IDENT = re.compile(r"(?<![\w.])[A-Za-z_]\w*")


def _combine(terms):
    """The expression sum(c * text) of (c, text) pairs, numeric texts folded
    into one constant and zero terms left out."""
    const, parts = 0.0, []
    for c, text in terms:
        c = float(c)
        if c == 0.0:
            continue
        try:
            const += c * float(text)
        except ValueError:
            parts.append(f"{c!r}*({text})")
    if const or not parts:
        parts.append(repr(const))
    return " + ".join(parts)


def _dense3(table, coords):
    index = {c: i for i, c in enumerate(coords)}
    out = {}
    for key, text in table.items():
        out[tuple(index[s.strip()] for s in key.split(","))] = text
    return out


def pull_back(spec, a, b):
    """``spec`` in the chart u with x = a u + b (the coordinates keep their
    names): g_ab = A^i_a A^j_b g_ij, phi^a_b = (A^-1)^a_i phi^i_j A^j_b,
    xi^a = (A^-1)^a_i xi^i, eta_a = eta_i A^i_a and K (or the connection
    table, whose affine change adds no second-derivative term) as a
    (1,2) tensor."""
    coords = spec["coordinates"]
    d = len(coords)
    ainv = np.linalg.inv(a)
    affine = {c: "(" + " + ".join([f"{float(a[i, j])!r}*{coords[j]}" for j in range(d)]
                                  + [repr(float(b[i]))]) + ")"
              for i, c in enumerate(coords)}

    def sub(text):
        text = str(text)
        try:
            return repr(float(text))
        except ValueError:
            return _IDENT.sub(lambda m: affine.get(m.group(0), m.group(0)), text)

    lower = spec["metric_lower"]
    g = [[sub(lower[max(i, j)][min(i, j)]) for j in range(d)] for i in range(d)]
    phi = [[sub(v) for v in row] for row in spec["phi"]]
    xi = [sub(v) for v in spec["xi"]]
    out = dict(spec, name=f"pulled back {spec.get('name', '')}",
               box=[[-1.0, 1.0]] * d,
               metric_lower=[[_combine((a[i, p] * a[j, q], g[i][j])
                                       for i in range(d) for j in range(d))
                              for q in range(p + 1)] for p in range(d)],
               phi=[[_combine((ainv[p, i] * a[j, q], phi[i][j])
                              for i in range(d) for j in range(d))
                     for q in range(d)] for p in range(d)],
               xi=[_combine((ainv[p, i], xi[i]) for i in range(d)) for p in range(d)])
    if spec.get("eta") is not None:
        eta = [sub(v) for v in spec["eta"]]
        out["eta"] = [_combine((a[i, p], eta[i]) for i in range(d)) for p in range(d)]
    for key in ("K", "connection"):
        if spec.get(key) is not None:
            t = {ijk: sub(v) for ijk, v in _dense3(spec[key], coords).items()}
            table = {}
            for p, q, r in itertools.product(range(d), repeat=3):
                text = _combine((ainv[p, i] * a[j, q] * a[k, r], v)
                                for (i, j, k), v in t.items())
                if text != "0.0":
                    table[f"{coords[p]},{coords[q]},{coords[r]}"] = text
            out[key] = table
    return out


def chart(d, seed):
    """A non-orthogonal A = I + N with |N_ij| <= 0.4 and cond(A) < 8, and b."""
    rng = np.random.default_rng(seed)
    while True:
        a = np.eye(d) + rng.uniform(-0.4, 0.4, (d, d))
        if np.linalg.cond(a) < 8.0:
            return a, rng.uniform(-0.3, 0.3, d)


def _close(x, y, tol):
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def _decisions(columns):
    return [(c.check, bool(c.passed[0])) for c in columns]


def check_invariance(spec, seed, points=2):
    """Audit ``spec`` at ``points`` points x_k = A u_k + b and its pull-back
    at the u_k, and compare what must not depend on the chart."""
    m = manifold_from_dict(spec)
    d = m.dim
    a, b = chart(d, seed)
    pulled = manifold_from_dict(pull_back(spec, a, b))
    rng = np.random.default_rng(seed + 1)
    us = [rng.uniform(-0.8, 0.8, d) for _ in range(points)]
    xs = [a @ u + b for u in us]

    for x, u in zip(xs, us):
        fs, fs_u = m.frame_stack([x]), pulled.frame_stack([u])
        assert _close(lambda_of(fs, 1e-9)[0], lambda_of(fs_u, 1e-9)[0], 1e-9)
        assert _decisions(validate_structure(m, fs, 1e-9)) == _decisions(
            validate_structure(pulled, fs_u, 1e-9))
        for check in (validate_statistical, validate_acs):
            assert _decisions(check(fs, 1e-9)) == _decisions(check(fs_u, 1e-9)), check.__name__
        s, r0 = curv.statistical_curvature(m, x)[:2]
        s_u, r0_u = curv.statistical_curvature(pulled, u)[:2]
        g, g_u = m.frame_at(x).g, pulled.frame_at(u).g
        for _ in range(3):
            vx, vy = rng.standard_normal((2, d))
            ux, uy = np.linalg.solve(a, vx), np.linalg.solve(a, vy)
            for t, t_u in ((s, s_u), (r0, r0_u)):
                assert _close(sectional_curvature(g, t, vx, vy),
                              sectional_curvature(g_u, t_u, ux, uy), 1e-8)

    branch = curv.audit_branch(curv.theorem_5_8_audit(m, xs, rng=np.random.default_rng(0)))
    assert branch == curv.audit_branch(
        curv.theorem_5_8_audit(pulled, us, rng=np.random.default_rng(0)))
    assert is_cosymplectic(m, xs)[0] == is_cosymplectic(pulled, us)[0]
    assert (curv.is_phi_compatible(curv.phi_compat_check(m, xs))
            == curv.is_phi_compatible(curv.phi_compat_check(pulled, us)))
    return branch


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["trivial-lambda", "planar-block", "mixed"]), st.sampled_from([3, 5]),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_generated_structures_are_chart_invariant(family, dim, seed, chart_seed):
    entry = generate_random_acs(dim, seed, family)
    branch = check_invariance(manifold_to_dict(entry.manifold), chart_seed)
    assert branch == entry.expected["thm_5_8_branch"]


F = "1 + 0.3*(x^2 + y^2)"
WARPED = {
    "coordinates": ["x", "y", "z"],
    "metric_lower": [[F], ["0", F], ["0", "0", "1"]],
    "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
    "xi": ["0", "0", "1"], "K": {"z,z,z": "0.5 + 0.3*x*y"},
}
# the same structure given by its connection: the Levi-Civita table of g
# plus lambda on Gamma^z_zz
WARPED_CONNECTION = {key: val for key, val in WARPED.items() if key != "K"}
WARPED_CONNECTION["connection"] = {
    "x,x,x": f"0.3*x/({F})", "x,x,y": f"0.3*y/({F})", "x,y,x": f"0.3*y/({F})",
    "x,y,y": f"-0.3*x/({F})", "y,x,x": f"-0.3*y/({F})", "y,x,y": f"0.3*x/({F})",
    "y,y,x": f"0.3*x/({F})", "y,y,y": f"0.3*y/({F})", "z,z,z": "0.5 + 0.3*x*y"}


@settings(max_examples=6, deadline=None)
@given(st.sampled_from(["K", "connection"]), st.integers(0, 10 ** 6))
def test_warped_chart_is_chart_invariant(given_by, chart_seed):
    spec = WARPED if given_by == "K" else WARPED_CONNECTION
    assert check_invariance(spec, chart_seed) == "all-true"


def test_pull_back_of_the_identity_chart_is_the_chart():
    spec = manifold_to_dict(generate_random_acs(3, 2, "mixed").manifold)
    m, same = manifold_from_dict(spec), manifold_from_dict(pull_back(spec, np.eye(3),
                                                                     np.zeros(3)))
    p = np.array([0.2, -0.4, 0.7])
    for name in ("g", "phi", "xi", "eta", "K", "gamma0"):
        assert np.array_equal(getattr(m.frame_at(p), name), getattr(same.frame_at(p), name))


def _negated(spec, *fields):
    """``spec`` with every expression of the given ``fields`` negated."""
    def negate(v):
        return [negate(x) for x in v] if isinstance(v, list) else _combine([(-1.0, v)])
    return dict(spec, **{f: negate(spec[f]) for f in fields if spec.get(f) is not None})


def _audit_records(spec):
    """The (check, point, pass, value) records and the flags of a full audit
    of ``spec`` at grid 2."""
    m = manifold_from_dict(spec)
    rep = cli.audit_report(m, m.grid_points(2), 1e-9, cli.CHECK_GROUPS)
    records = [json.loads(line) for line in rep.to_json_lines().splitlines()]
    return [(r["check"], r["point"], r["pass"], r.get("value")) for r in records], rep.flags


@pytest.mark.parametrize("ref", ["example_r3_negative", "example_flat_acs:n=2"] + [
    f"random:dim={dim},seed=1,family={family}" for dim in (5, 7)
    for family in ("trivial-lambda", "planar-block", "mixed")])
def test_sign_flips_keep_every_verdict(ref):
    spec = manifold_to_dict(cli.resolve_input(f"zoo:{ref}"))
    want, flags = _audit_records(spec)
    for fields in (("phi",), ("xi", "eta")):
        got, got_flags = _audit_records(_negated(spec, *fields))
        assert got_flags == flags
        assert [r[:3] for r in got] == [r[:3] for r in want], fields
        for (check, _, _, value), (_, _, _, expected) in zip(got, want):
            if expected is None:
                assert value is None
                continue
            if fields[0] == "xi" and check == "thm_5_8/lambda":
                expected = -expected
            assert _close(value, expected, 1e-9), (fields, check, value, expected)
