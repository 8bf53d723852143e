"""Classic sanity check of the Riemannian machinery: the unit round sphere
in (theta, phi) coordinates has Gamma^theta_phiphi = -sin(theta)cos(theta),
Gamma^phi_thetaphi = cot(theta), and constant sectional curvature 1.

Run with:  python3 demos/sphere_curvature.py
"""

import numpy as np

from acsgeo import MetricField, christoffel, nabla_g, riemann, sectional_curvature

g = MetricField.from_lower_triangle([["1"], ["0", "sin(theta)^2"]],
                                    ["theta", "phi"])

for theta in (np.pi / 6, np.pi / 3, np.pi / 2, 2.1):
    p = np.array([theta, 0.3])
    gam = christoffel(g, p)
    print(f"theta = {theta:.4f}")
    print(f"  Gamma^th_phph = {gam[0, 1, 1]: .12f}   "
          f"(closed form {-np.sin(theta) * np.cos(theta): .12f})")
    print(f"  Gamma^ph_thph = {gam[1, 0, 1]: .12f}   "
          f"(closed form {np.cos(theta) / np.sin(theta): .12f})")

    r = riemann(g, p)
    k = sectional_curvature(g.array_at(p), r, [1.0, 0.0], [0.0, 1.0])
    print(f"  sectional curvature = {k:.15f}")

    # metric compatibility of the Levi-Civita connection, as a residual
    ng = nabla_g(gam, g.array_at(p), g.derivatives_at(p))
    print(f"  max |nabla g|       = {np.max(np.abs(ng)):.3e}")
