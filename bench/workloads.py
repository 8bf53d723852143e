"""Workload inputs and the per-op correctness oracle.

A workload is a list of rounds; a round is a fixed mix of ops and every op
is one CLI verb on one input.  Rounds repeat the same mix with fresh inputs
derived from the workload seed, so no input string repeats within a run and
a memo kept across CLI calls cannot show a gain that a CLI user never gets.

Each op carries its own check.  A check receives the exit code and the
parsed JSON-lines records of the op and returns a list of problems; an empty
list means the op is correct.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from acsgeo.specfile import manifold_to_dict
from acsgeo.zoo import get_entry

TOL = 1e-9
FAMILIES = ("trivial-lambda", "planar-block", "mixed")

# The checks every audited point must report, and every validated point.
THM_5_8_CHECKS = tuple(f"thm_5_8/{c}" for c in (
    "lambda", "c1_kphi_zero", "c2_statistical_equals_riemannian",
    "c3_K_is_lambda_eta_eta_xi", "c4_kk_bracket_zero", "c5_S_equals_R0",
    "c6_K_XX_zero_horizontal", "c7_K_X_phiX_zero", "c8_phi_K_XX_zero",
    "c9_K_XX_parallel_xi", "unanimity"))
VALIDATE_CHECKS = (
    "phi_squared", "eta_of_xi", "phi_of_xi", "eta_after_phi", "phi_rank",
    "metric_compatibility", "xi_unit", "eta_is_g_xi", "phi_g_antisymmetric",
    "K_lower_symmetry", "cubic_form_symmetry", "nabla_g_symmetry",
    "nabla_g_cross_identity", "conjugate_nabla_g_symmetry",
    "acs_defining_condition", "acs_swap_condition")
CURVATURE_CHECKS = ("curvature/lambda", "curvature/k_phi_S",
                    "curvature/k_phi_0", "curvature/k_phi")


@dataclass
class Op:
    """One CLI invocation and the oracle for its output."""

    kind: str           # the input family, shared by the op in every round
    argv: List[str]
    check: Callable[[int, List[dict]], List[str]]


def distinct_points(records) -> int:
    """Grid points an op evaluated: distinct non-empty ``point`` values."""
    return len({tuple(r["point"]) for r in records if r["point"]})


def _close(a, b) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def _missing_checks(records, required) -> List[str]:
    """Problems for points that lack one of the ``required`` check names."""
    seen = {}
    for r in records:
        if r["point"]:
            seen.setdefault(tuple(r["point"]), set()).add(r["check"])
    if not seen:
        return ["no point was evaluated"]
    problems = []
    for p, names in seen.items():
        lost = [c for c in required if c not in names]
        if lost:
            problems.append(f"point {list(p)} lacks {lost}")
    return problems


def _values(records, check):
    return [r["value"] for r in records if r["check"] == check]


def check_audit(code, records, expected) -> List[str]:
    """Audit output against a zoo-style ``expected`` dict: lambda, the
    theorem 5.8 branch, phi-compatibility, cosymplecticity and a constant
    phi-sectional K-curvature, each only where the dict states it."""
    if code != 0:
        return [f"exit code {code}"]
    problems = _missing_checks(records, THM_5_8_CHECKS)
    if "lambda" in expected:
        lam = expected["lambda"]
        bad = [v for v in _values(records, "thm_5_8/lambda") if not _close(v, lam)]
        if bad:
            problems.append(f"lambda {bad[0]!r} != expected {lam!r}")
    if "thm_5_8_branch" in expected:
        flags = {bool(r["value"]) for r in records
                 if r["check"].startswith("thm_5_8/c")}
        branch = {frozenset([True]): "all-true",
                  frozenset([False]): "all-false"}.get(frozenset(flags), "mixed")
        if branch != expected["thm_5_8_branch"]:
            problems.append(f"thm 5.8 branch {branch} != {expected['thm_5_8_branch']}")
    if "phi_compatible" in expected:
        vals = _values(records, "phi_compat/compatible")
        compatible = bool(vals) and all(v == 1.0 for v in vals)
        if compatible != expected["phi_compatible"]:
            problems.append(f"phi_compatible {compatible} != {expected['phi_compatible']}")
    if "cosymplectic" in expected:
        vals = _values(records, "cosymplectic")
        if vals != [float(expected["cosymplectic"])]:
            problems.append(f"cosymplectic {vals} != {expected['cosymplectic']}")
    if "k_phi" in expected:
        # the c1 residual is max |K_phi| over the swept sections
        target = abs(expected["k_phi"])
        bad = [r["residual"] for r in records
               if r["check"] == "thm_5_8/c1_kphi_zero" and not _close(r["residual"], target)]
        if bad:
            problems.append(f"max |k_phi| {bad[0]!r} != {target!r}")
    return problems


def check_validate(code, records) -> List[str]:
    if code != 0:
        return [f"exit code {code}"]
    problems = _missing_checks(records, VALIDATE_CHECKS)
    failed = [r["check"] for r in records if not r["pass"]]
    if failed:
        problems.append(f"failed checks {sorted(set(failed))}")
    return problems


def check_warped_curvature(code, records, c, lam) -> List[str]:
    """Curvature output on the warped chart g = diag(f, f, 1),
    f = 1 + c (x^2 + y^2): the phi-section of every horizontal X is the
    (x, y) plane, whose Gauss curvature is -2c/f^3 in closed form."""
    if code != 0:
        return [f"exit code {code}"]
    problems = _missing_checks(records, CURVATURE_CHECKS)
    for r in records:
        if r["check"] == "curvature/k_phi_0":
            x, y, _ = r["point"]
            gauss = -2.0 * c / (1.0 + c * (x * x + y * y)) ** 3
            if not _close(r["value"], gauss):
                problems.append(f"k_phi_0 {r['value']!r} != {gauss!r} at {r['point']}")
                break
    if any(abs(v) > TOL for v in _values(records, "curvature/k_phi")):
        problems.append("k_phi is not 0")
    if not all(_close(v, lam) for v in _values(records, "curvature/lambda")):
        problems.append(f"lambda differs from {lam!r}")
    return problems


# ---------------------------------------------------------------------------
# input generation


def _generator_ref(dim, seed, family):
    return f"zoo:random:dim={dim},seed={seed},family={family}"


def _generator_expected(dim, seed, family):
    return get_entry("random", dim=dim, seed=seed, family=family).expected


def _warped_spec(name, c, lam, grid, connection):
    """Spec of g = diag(f, f, 1), f = 1 + c (x^2 + y^2), the standard block
    phi and xi = d/dz.  With ``connection`` the file gives the exact
    Levi-Civita table plus lam on Gamma^z_zz, so K = lam eta(x)eta(x)xi;
    otherwise it gives K = 0 explicitly."""
    f = f"1 + {c!r}*(x^2 + y^2)"
    spec = {"name": name, "coordinates": ["x", "y", "z"], "grid": grid,
            "metric_lower": [[f], ["0", f], ["0", "0", "1"]],
            "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
            "xi": ["0", "0", "1"]}
    if connection:
        fx = f"{c!r}*x/({f})"     # f_x / (2 f)
        fy = f"{c!r}*y/({f})"     # f_y / (2 f)
        spec["connection"] = {
            "x,x,x": fx, "x,x,y": fy, "x,y,x": fy, "x,y,y": f"-1*{fx}",
            "y,x,x": f"-1*{fy}", "y,x,y": fx, "y,y,x": fx, "y,y,y": fy,
            "z,z,z": repr(lam)}
    else:
        spec["K"] = {}
    return spec


class Workload:
    """Base: subclasses build one round of ops from a seeded generator."""

    name = ""
    max_rounds = 0      # rounds generated in set-up; a run stops when used up

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.workdir = workdir
        self._next_gen_seed = int(self.rng.integers(0, 2 ** 30))
        self._specs = {}    # path -> file content

    def gen_seed(self) -> int:
        self._next_gen_seed += 1
        return self._next_gen_seed

    def write_spec(self, spec) -> str:
        path = os.path.join(self.workdir, f"{self.name}-{len(self._specs)}.json")
        text = json.dumps(spec)
        with open(path, "w") as fh:
            fh.write(text)
        self._specs[path] = text
        return path

    def rounds(self) -> List[List[Op]]:
        out = [self.round() for _ in range(self.max_rounds)]
        inputs = [self._specs.get(op.argv[1], op.argv[1]) for r in out for op in r]
        if len(set(inputs)) != len(inputs):
            raise RuntimeError("generated inputs repeat within a run")
        return out

    def round(self) -> List[Op]:
        raise NotImplementedError


class ZooAudit(Workload):
    """`audit` on constant-metric structures: the two worked examples (as
    spec files whose sampling box is shifted each round; the structures are
    translation invariant) and one generator structure per family at dims
    3, 5 (grid 2) and 7 (grid 3)."""

    name = "zoo-audit"
    max_rounds = 60
    EXAMPLES = (("example_r3_negative", {}), ("example_flat_acs", {"n": 1}),
                ("example_flat_acs", {"n": 2}), ("example_flat_acs", {"n": 3}))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.examples = []
        for zoo_name, params in self.EXAMPLES:
            entry = get_entry(zoo_name, **params)
            self.examples.append((entry.name, manifold_to_dict(entry.manifold),
                                  entry.expected))

    def round(self):
        ops = []
        for label, spec, expected in self.examples:
            shift = self.rng.uniform(-0.5, 0.5, size=len(spec["box"]))
            spec = dict(spec, box=[[lo + s, hi + s] for (lo, hi), s in zip(spec["box"], shift)])
            ops.append(Op(f"audit:{label}",
                          ["audit", self.write_spec(spec), "--format", "json",
                           "--seed", str(self.gen_seed())],
                          lambda code, recs, e=expected: check_audit(code, recs, e)))
        for dim, grid in ((3, 2), (5, 2), (7, 3)):
            for family in FAMILIES:
                s = self.gen_seed()
                ops.append(Op(f"audit:random:{family}:dim={dim}",
                              ["audit", _generator_ref(dim, s, family), "--grid",
                               str(grid), "--format", "json", "--seed", str(s)],
                              lambda code, recs, a=(dim, s, family):
                              check_audit(code, recs, _generator_expected(*a))))
        return ops


class CurvedAudit(Workload):
    """`audit` and `curvature` on spec files of the warped family at grids
    4 and 5, half with explicit K = 0 and half with a connection table
    (K = lam eta(x)eta(x)xi); c and lam are fresh for every file."""

    name = "curved-audit"
    max_rounds = 60

    def round(self):
        ops = []
        for connection in (False, True):
            for grid, verb in itertools.product((4, 5), ("audit", "curvature")):
                c = float(self.rng.uniform(0.05, 0.6))
                lam = float(self.rng.uniform(-1.0, 1.0)) if connection else 0.0
                kind = f"{verb}:warped:{'connection' if connection else 'K0'}:grid={grid}"
                path = self.write_spec(_warped_spec(kind, c, lam, grid, connection))
                argv = [verb, path, "--format", "json", "--seed", str(self.gen_seed())]
                if verb == "audit":
                    expected = {"lambda": lam, "k_phi": 0.0, "cosymplectic": True,
                                "phi_compatible": True, "thm_5_8_branch": "all-true"}
                    check = (lambda code, recs, e=expected: check_audit(code, recs, e))
                else:
                    check = (lambda code, recs, c=c, lam=lam:
                             check_warped_curvature(code, recs, c, lam))
                ops.append(Op(kind, argv, check))
        return ops


class ValidateBatch(Workload):
    """`validate` on one generator structure per family at dims 3, 5 and 7,
    default grid: value-only evaluation, small ops."""

    name = "validate-batch"
    max_rounds = 600

    def round(self):
        ops = []
        for dim in (3, 5, 7):
            for family in FAMILIES:
                ops.append(Op(f"validate:random:{family}:dim={dim}",
                              ["validate", _generator_ref(dim, self.gen_seed(), family),
                               "--format", "json"],
                              check_validate))
        return ops


WORKLOADS = {w.name: w for w in (ZooAudit, CurvedAudit, ValidateBatch)}


# ---------------------------------------------------------------------------
# negative controls: ops the oracle must count as failed


def inadmissible_spec():
    """Flat R^3 with the standard structure and K(xi, xi) = d/dx, which
    breaks K(X, xi) = lambda eta(X) xi: ``audit`` exits 1 on it."""
    return {"name": "inadmissible_k", "coordinates": ["x", "y", "z"], "grid": 2,
            "metric_lower": [["1"], ["0", "1"], ["0", "0", "1"]],
            "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
            "xi": ["0", "0", "1"], "K": {"x,z,z": "1"}}


def negative_controls(workdir) -> List[Op]:
    """An inadmissible structure and a correct run with a wrong expectation
    (lambda off by one); a working oracle fails both."""
    path = os.path.join(workdir, "inadmissible_k.json")
    with open(path, "w") as fh:
        json.dump(inadmissible_spec(), fh)
    r3 = get_entry("example_r3_negative").expected
    wrong = dict(r3, **{"lambda": r3["lambda"] + 1.0})
    return [Op("audit:inadmissible_k", ["audit", path, "--format", "json"],
               lambda code, recs: check_audit(code, recs, r3)),
            Op("audit:example_r3_negative:wrong_lambda",
               ["audit", "zoo:example_r3_negative", "--grid", "2", "--format", "json"],
               lambda code, recs: check_audit(code, recs, wrong))]
