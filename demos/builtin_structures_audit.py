"""Tour of the two built-in structures.

The first lives on R^(2n+1) with a flat metric and a difference tensor
supported only on K(xi, xi) = xi: everything vanishes that can vanish
(phi-sectional K-curvature 0, lambda = 1, phi-compatible).  The second
lives on R^3 with a nontrivial statistical connection on the (x, y) plane:
constant phi-sectional K-curvature -1 and not phi-compatible.

Run with:  python3 demos/builtin_structures_audit.py
"""

import numpy as np

from acsgeo import (AuditReport, example_flat_acs, example_r3_negative, is_cosymplectic,
                    lambda_of, psi_check, theorem_5_8_audit, validate_acs,
                    validate_statistical, validate_structure)
from acsgeo.curvature import (audit_branch, geodesic_norms, is_phi_compatible,
                              phi_compat_check, phi_sectional_triples)


def tour(entry):
    m = entry.manifold
    print("=" * 72)
    print(entry.name, f"(dim {m.dim})")
    p = np.zeros(m.dim)

    # the batched checks on a stack of the one point p
    fs = m.frame_stack([p])
    rep = AuditReport.from_columns([p], validate_structure(m, fs, 1e-9)
                                   + validate_statistical(fs, 1e-9) + validate_acs(fs, 1e-9))
    print("validators:", "all pass" if rep.all_passed else "FAIL")

    print("lambda           =", float(lambda_of(fs, 1e-9)[0]))
    cos, res = is_cosymplectic(m, [p])
    print("cosymplectic     =", cos, f"(residual {res:.2e})")

    x = np.eye(m.dim)[0]
    # the batched triples at one point, on the one section span(x, phi x)
    _, triples = phi_sectional_triples(m, [p], section=lambda frames: x[None])
    k_s, k_0, k_phi = triples[0, 0].tolist()
    print(f"sectional triple = (S {k_s: .6f}, Riemannian {k_0: .6f}, "
          f"K {k_phi: .6f}) on span(d1, phi d1)")

    audit = theorem_5_8_audit(m, [p])
    print("equivalence audit:", audit_branch(audit), "branch,",
          "unanimous" if not audit.flags else f"FLAGS {audit.flags}")

    compat = phi_compat_check(m, [p])
    print("phi-compatible   =", is_phi_compatible(compat))
    if is_phi_compatible(compat):
        psi = psi_check(m, p, compat_report=compat)
        print("Psi form         = vanishes" if psi.all_passed
              else f"Psi checks fail: {psi.to_table()}")

    n0, n1 = (float(n[0]) for n in geodesic_norms(fs))
    print(f"geodesic pair    = (|nabla0_xi xi| {n0:.3f}, |nabla_xi xi| {n1:.3f})")
    print("expected table   =", entry.expected)


tour(example_flat_acs(1))
tour(example_flat_acs(2))
tour(example_r3_negative())
