"""Curved contact charts with exact answers (``contact_forms.py``): the
phi-sectional curvatures of Sasakian R^{2n+1}(-3), with and without a
statistical K = lambda eta eta xi, and of the warped cone, at every swept
section and at seeded horizontal ``--section`` vectors.

The bound is stated before any value was read: every curvature is within
1e-14 of its closed form (a seeded section reads -2.999999999999999, two
ulps of 3 off), and lambda within 1e-14 of the spec's."""

import numpy as np
import pytest

from acsgeo import curvature
from acsgeo.cli import section_reader
from acsgeo.specfile import manifold_from_dict

from contact_forms import LAMBDA, sasakian, warped_cone

BOUND = 1e-14

SASAKIAN = [(n, lam) for n in (1, 2, 3) for lam in (0.0, LAMBDA)]


def seeded_section(m, seed, last):
    """``--section`` text of a horizontal vector: seeded components on the
    x_i and y_i, and ``last`` (the z or t component) from them."""
    a = np.random.default_rng(seed).standard_normal((m.n, 2))
    text = ",".join(f"{x!r},{y!r}" for x, y in a.tolist())
    return text + "," + last(a)


def triples(m, pts, section=None):
    lams, k = curvature.phi_sectional_triples(
        m, pts, section=None if section is None else section_reader(m, section))
    assert k.shape[:2] == (len(pts), 1 if section else m.n * (m.n + 3) // 2)
    return lams, k


def assert_sasakian(lams, k, lam):
    assert np.max(np.abs(lams - lam)) <= BOUND
    assert np.max(np.abs(k[..., :2] + 3.0)) <= BOUND       # K^S and K^0
    assert np.max(np.abs(k[..., 2])) <= BOUND              # K_phi


@pytest.mark.parametrize("n, lam", SASAKIAN)
def test_sasakian_space_form_reads_minus_three(n, lam):
    m = manifold_from_dict(sasakian(n, lam))
    assert_sasakian(*triples(m, m.grid_points(2)), lam)


@pytest.mark.parametrize("n, lam", SASAKIAN)
@pytest.mark.parametrize("seed", [0, 1])
def test_sasakian_seeded_sections_read_minus_three(n, lam, seed):
    """X = sum a_i d/dx_i + b_i d/dy_i + (sum a_i y_i) d/dz lies in ker eta."""
    m = manifold_from_dict(sasakian(n, lam))
    section = seeded_section(m, seed, lambda a: " + ".join(
        f"{x!r}*y{i + 1}" for i, x in enumerate(a[:, 0].tolist())))
    assert_sasakian(*triples(m, m.grid_points(2), section), lam)


def assert_cone(pts, lams, k):
    t = pts[:, -1]
    assert not lams.any()
    assert np.max(np.abs(k[..., :2] + 1.0 / t[:, None, None] ** 2)) <= BOUND
    assert np.max(np.abs(k[..., 2])) <= BOUND


@pytest.mark.parametrize("n, grid", [(1, 3), (2, 2)])
def test_warped_cone_reads_minus_one_over_t_squared(n, grid):
    m = manifold_from_dict(warped_cone(n))
    pts = m.grid_points(grid)
    assert sorted(set(pts[:, -1])) == sorted(np.linspace(1.0, 2.0, grid))
    assert_cone(pts, *triples(m, pts))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("seed", [0, 1])
def test_warped_cone_seeded_sections(n, seed):
    """X in the flat fiber, dt(X) = 0."""
    m = manifold_from_dict(warped_cone(n))
    pts = m.grid_points(2)
    assert_cone(pts, *triples(m, pts, seeded_section(m, seed, lambda a: "0")))
