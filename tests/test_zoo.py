"""Built-in examples and the random structure generators: validator
invariants, determinism, and the expected audit outcomes per family."""

import json

import numpy as np
import pytest

from acsgeo import (AuditReport, generate_random_acs, get_entry, lambda_of, list_zoo,
                    phi_sectional_k_curvature, theorem_5_8_audit, validate_acs,
                    validate_statistical, validate_structure)
from acsgeo.curvature import audit_branch, sweep_sections
from acsgeo.specfile import manifold_from_dict, manifold_to_dict
from acsgeo.zoo import FAMILIES, MAX_DIM, UnsupportedDimensionError, example_flat_acs

from conftest import sample_points


def all_validators_pass(m, points):
    for p in points:
        fs = m.frame_stack([p])
        rep = AuditReport.from_columns([p], validate_structure(m, fs, 1e-9)
                                       + validate_statistical(fs, 1e-9) + validate_acs(fs, 1e-9))
        assert rep.all_passed, f"{m.name}: {rep.to_table()}"


@pytest.mark.parametrize("name,params", [
    ("example_flat_acs", {"n": 1}),
    ("example_flat_acs", {"n": 2}),
    ("example_r3_negative", {}),
])
def test_examples_pass_validators(name, params):
    entry = get_entry(name, **params)
    all_validators_pass(entry.manifold, sample_points(entry.manifold))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("dim", [3, 5])
def test_generated_structures_pass_validators(family, dim):
    for seed in range(3):
        entry = generate_random_acs(dim, seed, family)
        all_validators_pass(entry.manifold, sample_points(entry.manifold, 3))


@pytest.mark.parametrize("family", FAMILIES)
def test_generator_determinism(family):
    a = generate_random_acs(5, 11, family)
    b = generate_random_acs(5, 11, family)
    assert manifold_to_dict(a.manifold) == manifold_to_dict(b.manifold)
    c = generate_random_acs(5, 12, family)
    assert manifold_to_dict(a.manifold) != manifold_to_dict(c.manifold)


def test_trivial_lambda_branch():
    entry = generate_random_acs(3, 42, "trivial-lambda")
    m = entry.manifold
    rep = theorem_5_8_audit(m, sample_points(m, 3),
                            rng=np.random.default_rng(0))
    assert rep.all_passed and not rep.flags
    assert audit_branch(rep) == "all-true"
    # [K,K] = 0 and S = R0 by construction
    from acsgeo import kk_tensor, statistical_curvature
    p = sample_points(m, 1)[0]
    assert np.max(np.abs(kk_tensor(m.frame_at(p).K))) < 1e-6
    s, r0, _, _, _ = statistical_curvature(m, p)
    assert np.max(np.abs(s - r0)) < 1e-6


def test_planar_block_branch():
    entry = generate_random_acs(3, 7, "planar-block")
    m = entry.manifold
    a = entry.expected["block_magnitude"]
    rep = theorem_5_8_audit(m, sample_points(m, 3),
                            rng=np.random.default_rng(0))
    assert rep.all_passed and not rep.flags
    assert audit_branch(rep) == "all-false"
    # the block section carries curvature -a^2, via the definition quotient
    fr = m.frame_at(np.zeros(3))
    e = np.eye(3)[2 * entry.expected["block"]]
    val = phi_sectional_k_curvature(fr, e).value
    assert val == pytest.approx(-a * a, abs=1e-9, rel=1e-9)
    assert lambda_of(m.frame_stack([np.zeros(3)]), 1e-9)[0] == pytest.approx(
        entry.expected["lambda"], abs=1e-9)


def test_mixed_family_nonconstant_curvature():
    entry = generate_random_acs(5, 1, "mixed")
    m = entry.manifold
    fr = m.frame_at(np.zeros(5))
    vals = [phi_sectional_k_curvature(fr, x).value
            for x in sweep_sections(m, fr)]
    assert max(vals) - min(vals) > 1e-3   # distinct block magnitudes
    assert all(v <= 1e-9 for v in vals)   # but never positive
    rep = theorem_5_8_audit(m, sample_points(m, 2),
                            rng=np.random.default_rng(0))
    assert rep.all_passed and audit_branch(rep) == "all-false"


def test_dimension_validation():
    with pytest.raises(UnsupportedDimensionError):
        generate_random_acs(4, 0, "mixed")
    with pytest.raises(UnsupportedDimensionError):
        generate_random_acs(1, 0, "mixed")
    # the tables grow as dim^3: dimensions above 15 are refused before any is built
    for dim in (17, 9999):
        with pytest.raises(UnsupportedDimensionError, match="at most 15"):
            generate_random_acs(dim, 0, "mixed")
    for n in (8, 5000):
        with pytest.raises(UnsupportedDimensionError, match="at most 7"):
            example_flat_acs(n)
    assert generate_random_acs(15, 0, "mixed").manifold.dim == 15
    assert example_flat_acs(7).manifold.dim == 15
    with pytest.raises(ValueError):
        generate_random_acs(3, 0, "no-such-family")


def test_export_rebuilds_every_entry():
    """The chart rebuilt from a zoo entry's exported spec exports the same
    spec: an entry is a spec that the spec builder builds."""
    entries = [example_flat_acs(n) for n in range(1, (MAX_DIM + 1) // 2)]
    entries += [get_entry("example_r3_negative")]
    entries += [generate_random_acs(dim, seed, family) for dim in range(3, MAX_DIM + 1, 2)
                for seed in range(2) for family in FAMILIES]
    for entry in entries:
        data = manifold_to_dict(entry.manifold)
        assert manifold_to_dict(manifold_from_dict(json.loads(json.dumps(data)))) == data, \
            entry.name


def test_registry():
    names = list_zoo()
    assert set(names) == {"example_flat_acs", "example_r3_negative", "random"}
    with pytest.raises(KeyError):
        get_entry("nonexistent")


def test_r3_constancy_over_grid():
    entry = get_entry("example_r3_negative")
    m = entry.manifold
    vals = []
    for p in m.grid_points(5):
        fr = m.frame_at(p)
        vals.append(phi_sectional_k_curvature(fr, [1.0, 0.0, 0.0]).value)
        vals.append(phi_sectional_k_curvature(fr, [0.3, 0.7, 0.0]).value)
    assert max(vals) - min(vals) < 1e-9
    assert vals[0] == pytest.approx(-1.0, abs=1e-12)


def test_capped_grid_samples_every_axis_value():
    # 3^7 = 2187 points keep 243 spread over the product order; a prefix
    # would fix x1 = y1 = -1
    m = generate_random_acs(7, 4, "mixed").manifold
    pts = np.array(m.grid_points(3))
    assert pts.shape == (243, 7) and len(np.unique(pts, axis=0)) == 243
    for n in range(7):
        assert set(pts[:, n]) == {-1.0, 0.0, 1.0}
    assert (pts[0] == -1.0).all() and (pts[-1] == 1.0).all()
    # up to the cap the grid is the whole product, in order
    assert np.array_equal(generate_random_acs(5, 4, "mixed").manifold.grid_points(3),
                          [[a, b, c, d, e] for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)
                           for c in (-1.0, 0.0, 1.0) for d in (-1.0, 0.0, 1.0)
                           for e in (-1.0, 0.0, 1.0)])
