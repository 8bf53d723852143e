"""Acceptance suite: one criterion per test, each emitting a single
pass/fail summary line (collected in the terminal summary).

The criteria pin down: exact reproduction of the two built-in example
structures, the non-positivity and closed-form agreement of the
phi-sectional K-curvature over the generator families, unanimity of the
nine-way equivalence audit, the curvature decomposition and duality
residuals, the curvature-like symmetry suite, the compatibility composite,
and the numerical infrastructure oracles.
"""

import json
import time

import numpy as np

import conftest
from acsgeo import (generate_random_acs, kk_tensor, parse_expression,
                    phi_sectional_k_curvature, statistical_curvature,
                    theorem_5_8_audit)
from acsgeo.cli import main
from acsgeo.curvature import (audit_branch, curvature_like_symmetry_residuals,
                              is_phi_compatible, phi_compat_check, psi_check,
                              sweep_sections)
from acsgeo.metric import christoffel, nabla_g, riemann, sectional_curvature
from acsgeo.zoo import FAMILIES, example_r3_negative

from conftest import (central_difference, fd_riemann, poly3_metric,
                      sphere_metric, sphere_metric_at, warped_acs_manifold)


def record(num, desc, ok, detail=""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def audit_json(capsys, ref, *extra):
    start = time.perf_counter()
    code = main(["audit", ref, "--format", "json", *extra])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    recs = [json.loads(line) for line in out.strip().splitlines()]
    return code, recs, elapsed


def values_of(recs, check):
    return [r["value"] for r in recs if r["check"] == check and "value" in r]


def spread_points(m, count):
    pts = m.grid_points()
    step = max(1, len(pts) // count)
    return pts[::step][:count]


def test_criterion_1_example_r3(capsys):
    code, recs, elapsed = audit_json(capsys, "zoo:example_r3_negative")
    code_c = main(["curvature", "zoo:example_r3_negative", "--format", "json"])
    out = capsys.readouterr().out
    k_phi = [json.loads(l)["value"] for l in out.strip().splitlines()
             if json.loads(l)["check"] == "curvature/k_phi"]
    ok = (code == 0 and code_c == 0 and len(k_phi) >= 27
          and max(abs(v + 1.0) for v in k_phi) <= 1e-9
          and elapsed < 1.0)
    record(1, "example_r3_negative audit: K_phi = -1 on every grid point "
              "and section (tol 1e-9), audit runtime < 1 s", ok,
           f"sections={len(k_phi)}, max|K_phi+1|={max(abs(v + 1.0) for v in k_phi):.2e}, "
           f"audit {elapsed:.2f}s")


def test_criterion_2_example_flat(capsys):
    details, ok = [], True
    for n in (1, 2):
        code, recs, elapsed = audit_json(capsys, f"zoo:example_flat_acs:n={n}")
        lam = values_of(recs, "thm_5_8/lambda")
        c1 = [r["residual"] for r in recs if r["check"] == "thm_5_8/c1_kphi_zero"]
        cosym = values_of(recs, "cosymplectic")
        compat = values_of(recs, "phi_compat/compatible")
        g0 = values_of(recs, "geodesic/nabla0_xi_xi")
        g1 = values_of(recs, "geodesic/nabla_xi_xi")
        run_ok = (code == 0
                  and lam and all(abs(v - 1.0) <= 1e-12 for v in lam)
                  and c1 and max(c1) <= 1e-9
                  and cosym == [1.0]
                  and compat and all(v == 1.0 for v in compat)
                  and g0 and max(abs(v) for v in g0) <= 1e-9
                  and g1 and max(abs(v - 1.0) for v in g1) <= 1e-9
                  and elapsed < 2.0)
        details.append(f"n={n}: {elapsed:.2f}s")
        ok = ok and run_ok
    record(2, "example_flat_acs (n=1,2) audit: K_phi = 0, lambda = 1, "
              "cosymplectic and phi-compatible, geodesic pair (0,1), "
              "runtime < 2 s each", ok, ", ".join(details))


def test_criterion_3_nonpositivity_property_suite():
    start = time.perf_counter()
    n_structures = 0
    n_evals = 0
    worst = -np.inf
    rng = np.random.default_rng(2024)
    for family in FAMILIES:
        for dim in (3, 5):
            for seed in range(34):
                m = generate_random_acs(dim, seed, family).manifold
                n_structures += 1
                for p in spread_points(m, 8):
                    fr = m.frame_at(p)
                    for x in sweep_sections(m, fr, rng=rng, extra=4):
                        # each call also cross-checks the Definition quotient
                        # against -2||K(X,X)||^2/||X||^4 at 1e-9
                        v = phi_sectional_k_curvature(fr, x).value
                        n_evals += 1
                        worst = max(worst, v)
    elapsed = time.perf_counter() - start
    ok = (n_structures >= 200 and n_evals >= 10_000
          and worst <= 1e-9 and elapsed < 60.0)
    record(3, "non-positivity across >= 200 generated structures with "
              "quotient/closed-form agreement on >= 10^4 sections, < 60 s",
           ok, f"{n_structures} structures, {n_evals} evaluations, "
               f"max K_phi = {worst:.2e}, {elapsed:.1f}s")


EXPECTED_BRANCH = {"trivial-lambda": "all-true",
                   "planar-block": "all-false",
                   "mixed": "all-false"}


def _generated_set(seeds):
    for family in FAMILIES:
        for dim in (3, 5):
            for seed in seeds:
                yield family, generate_random_acs(dim, seed, family).manifold


def test_criterion_4_unanimity():
    bad = []
    count = 0
    for family, m in _generated_set(range(5)):
        rep = theorem_5_8_audit(m, spread_points(m, 2), tol=1e-6,
                                rng=np.random.default_rng(3))
        count += 1
        if rep.flags or not rep.all_passed:
            bad.append(f"{m.name}: flags={rep.flags}")
        elif audit_branch(rep) != EXPECTED_BRANCH[family]:
            bad.append(f"{m.name}: branch {audit_branch(rep)}")
    record(4, "theorem-audit booleans unanimous on every generated "
              "structure, with the family-expected branch", not bad,
           f"{count} structures" + (f"; failures: {bad[:3]}" if bad else ""))


def test_criterion_5_decomposition_and_duality():
    worst_dec, worst_dual = 0.0, 0.0
    structures = [m for _, m in _generated_set(range(2))]
    structures.append(warped_acs_manifold())   # curved metric, K = 0
    for m in structures:
        for p in spread_points(m, 2):
            s, r0, kk, r, r_bar = statistical_curvature(m, p)
            worst_dec = max(worst_dec, float(np.max(np.abs(s - r0 - kk))))
            fr = m.frame_at(p)
            low = np.einsum("am,mjkl->ajkl", fr.g, r)
            low_bar = np.einsum("am,mjkl->ajkl", fr.g, r_bar)
            worst_dual = max(worst_dual, float(np.max(np.abs(
                low + np.einsum("jakl->ajkl", low_bar)))))
    ok = worst_dec <= 1e-6 and worst_dual <= 1e-6
    record(5, "S = R0 + [K,K] and conjugate curvature duality within 1e-6 "
              "on generated structures and the curved zero-K chart", ok,
           f"decomposition {worst_dec:.2e}, duality {worst_dual:.2e}")


def test_criterion_6_symmetry_suite():
    worst_kk, worst_s = 0.0, 0.0
    for _, m in _generated_set(range(2)):
        for p in spread_points(m, 2):
            fr = m.frame_at(p)
            for name, val in curvature_like_symmetry_residuals(
                    kk_tensor(fr.K), fr.g).items():
                worst_kk = max(worst_kk, val)
            s, _, _, _, _ = statistical_curvature(m, p)
            for name, val in curvature_like_symmetry_residuals(s, fr.g).items():
                worst_s = max(worst_s, val)
    ok = worst_kk <= 1e-9 and worst_s <= 1e-6
    record(6, "curvature-like symmetry identities: [K,K] within 1e-9 and S "
              "within 1e-6 on generated structures", ok,
           f"[K,K] {worst_kk:.2e}, S {worst_s:.2e}")


def test_criterion_7_compatibility_composite():
    worst = 0.0
    count = 0
    rng = np.random.default_rng(5)
    for dim in (3, 5):
        for seed in range(4):
            m = generate_random_acs(dim, seed, "trivial-lambda").manifold
            pts = spread_points(m, 2)
            rep = phi_compat_check(m, pts, tol=1e-6, rng=rng)
            assert is_phi_compatible(rep) and not rep.flags
            count += 1
            worst = max(worst, rep.max_residual("phi_compat/cosymplectic"),
                        rep.max_residual("phi_compat/kphi_zero"))
            for p in pts:
                psi_rep = psi_check(m, p, tol=1e-6, compat_report=rep)
                worst = max(worst, psi_rep.max_residual("psi/psi_zero"))
    r3 = example_r3_negative().manifold
    r3_rep = phi_compat_check(r3, spread_points(r3, 2))
    r3_incompatible = not is_phi_compatible(r3_rep)
    # exact-constant structures: consequences hold at the tight tolerance
    ok = worst <= 1e-9 and r3_incompatible and count == 8
    record(7, "every phi-compatible generated structure is cosymplectic "
              "with K_phi = 0 and Psi = 0 (<= 1e-9); example_r3_negative "
              "is reported non-phi-compatible", ok,
           f"{count} compatible structures, worst residual {worst:.2e}")


def test_criterion_8_numerical_infrastructure():
    # (a) dual derivatives vs central differences on 10^3 random polynomials
    rng = np.random.default_rng(8)
    coords = ["x", "y", "z"]
    worst_fd = 0.0
    for _ in range(1000):
        terms = []
        for _ in range(rng.integers(1, 5)):
            exps = rng.integers(0, 3, size=3)
            factors = [f"{rng.uniform(-2, 2):.6f}"]
            factors += [f"{c}^{e}" for c, e in zip(coords, exps) if e]
            terms.append("*".join(factors))
        f = parse_expression(" + ".join(terms), coords)
        p = rng.uniform(-1, 1, size=3)
        j = int(rng.integers(0, 3))
        from acsgeo import eval_with_derivative
        _, der = eval_with_derivative(f, p, j)
        fd = central_difference(lambda q: f(list(q)), p, j, h=1e-5)
        worst_fd = max(worst_fd, abs(der - fd))

    # (b) Levi-Civita metricity on the curved polynomial metric
    g = poly3_metric()
    worst_metricity = 0.0
    for p in ([0.0, 0.0, 0.0], [0.5, -0.3, 0.8], [-0.9, 0.7, -0.2]):
        worst_metricity = max(worst_metricity, float(np.max(np.abs(
            nabla_g(christoffel(g, p), g.array_at(p), g.derivatives_at(p))))))

    # (c) round-sphere sectional curvature via the finite-difference oracle
    gs = sphere_metric()
    p = np.array([np.pi / 3, 0.0])
    r_oracle = fd_riemann(sphere_metric_at, p, 2, h=1e-4)
    k_oracle = sectional_curvature(gs.array_at(p), r_oracle,
                                   [1.0, 0.0], [0.0, 1.0])
    k_engine = sectional_curvature(gs.array_at(p), riemann(gs, p),
                                   [1.0, 0.0], [0.0, 1.0])
    ok = (worst_fd <= 1e-6 and worst_metricity <= 1e-9
          and abs(k_oracle - 1.0) <= 1e-6 and abs(k_engine - 1.0) <= 1e-6)
    record(8, "dual derivatives match central differences (10^3 fields, "
              "1e-6); metricity <= 1e-9; unit-sphere curvature = 1 by an "
              "independent oracle", ok,
           f"fd {worst_fd:.2e}, metricity {worst_metricity:.2e}, "
           f"sphere {k_oracle:.9f}")


def test_criterion_9_scope_statement():
    """General classification results for whole manifold classes are not
    checkable pointwise at desk scale; the engine substitutes the property
    suites of criteria 3-7 and ships no such constructions."""
    from acsgeo import list_zoo
    names = set(list_zoo())
    ok = names == {"example_flat_acs", "example_r3_negative", "random"}
    record(9, "general classification claims are out of scope; replaced by "
              "the property suites (criteria 3-7)", ok,
           "zoo limited to the two worked examples and the three generator "
           "families")
