"""The per-lane curvature kernels against the formulas they replaced.

The references below are the old forms, kept here and nowhere in the
package: R(X,Y)Z and [K,K](X,Y)Z as chains of (dim, dim) @ (dim, 1)
products, one per matrix of the tensor; ``riemann`` and ``kk_tensor`` with
a second Gamma Gamma (K K) einsum for the k <-> l term; and the sectional
curvatures of a sweep taken one section at a time.  Every value must be
bit-identical, sign bits included, on dense random tensors, on strided
vectors (the columns of a phi-basis), with a one-lane tensor shared by
every lane, with the broadcast zero R^0 of a flat metric, and with NaN,
inf and -0.0 entries."""

import numpy as np
import pytest

from acsgeo import curvature as curv
from acsgeo import get_entry
from acsgeo.curvature import CurvatureStack, SectionSweep, kk_bracket, kk_tensor
from acsgeo.metric import (apply_curvature, contract, inner, per_16_lanes, plane_q,
                           riemann, sectional_values)
from acsgeo.specfile import manifold_from_dict

from test_invariance import WARPED

DIMS = [3, 5, 7]


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    real = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[real]), np.signbit(want[real]))


# ---------------------------------------------------------------------------
# the replaced forms


def ref_matvec(a, v):
    return (a @ np.asarray(v)[..., :, None])[..., 0]


def ref_apply_curvature(r, x, y, z):
    y = np.asarray(y)
    return ref_matvec(ref_matvec(ref_matvec(r, y[..., None, None, :]),
                                 np.asarray(x)[..., None, :]), z)


def ref_kk_bracket(k, x, y, z):
    kz = ref_matvec(k, z[..., None, :])
    return (ref_matvec(ref_matvec(k, ref_matvec(kz, y)[..., None, :]), x)
            - ref_matvec(ref_matvec(k, ref_matvec(kz, x)[..., None, :]), y))


def ref_kxx(k, x):
    return ref_matvec(ref_matvec(k, x[..., None, :]), x)


def ref_riemann(gamma, dgamma):
    r = np.einsum("...kilj->...ijkl", dgamma) - np.einsum("...likj->...ijkl", dgamma)
    r += np.einsum("...ikm,...mlj->...ijkl", gamma, gamma)
    r -= np.einsum("...ilm,...mkj->...ijkl", gamma, gamma)
    return r


def ref_kk_tensor(k):
    return (np.einsum("...ikm,...mlj->...ijkl", k, k)
            - np.einsum("...ilm,...mkj->...ijkl", k, k))


def ref_sectional_values(g, r, x, y):
    return inner(g, x, ref_apply_curvature(r, x, y, y)) / plane_q(g, x, y)


def ref_with_curvatures(sweep, g, curvatures):
    """(k_s, k_0) of ``SectionSweep.with_curvatures`` one section at a time."""
    def one_section(r, g, x, px):
        return ref_sectional_values(g, r, x, px)
    return tuple(np.concatenate([np.broadcast_to(
        per_16_lanes(one_section, r, g, x[:, j], px[:, j]), (len(sweep.point),))[:, None]
        for x, px in sweep.blocks for j in range(x.shape[1])], axis=1)
        for r in (curvatures.s, curvatures.r0))


# ---------------------------------------------------------------------------
# inputs


def spiked(a, rng):
    """``a`` with a NaN, +inf, -inf and -0.0 each at a random entry."""
    a = a.copy()
    flat = a.reshape(-1)
    for value in (np.nan, np.inf, -np.inf, -0.0):
        flat[rng.integers(flat.size)] = value
    return a


def legs(rng, lanes, dim):
    """(lanes, n, dim) strided vectors: the legs of random phi-bases, as
    the sweep takes them, columns of a (dim, 2n + 1) basis."""
    basis = rng.standard_normal((lanes, dim, dim))
    return basis[:, :, :(dim - 1) // 2].transpose(0, 2, 1)


def vector_sets(rng, lanes, dim):
    """Dense, strided, and special-valued stacks of (lanes, S, dim) vectors."""
    dense = rng.standard_normal((lanes, 4, dim))
    strided = legs(rng, lanes, dim)
    return {"dense": (dense, dense[:, ::-1], -dense),
            "strided": (strided, strided[:, ::-1], strided + 0.5),
            "special": (spiked(dense, rng), dense, spiked(dense[:, ::-1], rng))}


def tensors(rng, lanes, dim, rank):
    """Dense, special-valued, shared one-lane and broadcast-zero tensors of
    ``rank`` dim axes on ``lanes`` lanes."""
    dense = rng.standard_normal((lanes,) + (dim,) * rank)
    return {"dense": dense, "special": spiked(dense, rng), "shared": dense[:1],
            "zero": np.broadcast_to(0.0, (lanes,) + (dim,) * rank)}


# ---------------------------------------------------------------------------
# the chains of products


@pytest.mark.parametrize("dim", DIMS)
def test_apply_curvature_matches_matvec_chain(dim):
    rng = np.random.default_rng(dim)
    for r in tensors(rng, 6, dim, 4).values():
        for x, y, z in vector_sets(rng, 6, dim).values():
            with np.errstate(all="ignore"):
                got = apply_curvature(r[:, None], x, y, z)
                assert_bits(got, ref_apply_curvature(r[:, None], x, y, z))
                for j in range(x.shape[1]):     # one section, and one triple
                    assert_bits(apply_curvature(r, x[:, j], y[:, j], z[:, j]), got[:, j])
                    assert_bits(apply_curvature(r[0], x[0, j], y[0, j], z[0, j]), got[0, j])


@pytest.mark.parametrize("dim", DIMS)
def test_kk_bracket_and_kxx_match_matvec_chains(dim):
    rng = np.random.default_rng(10 + dim)
    for k in tensors(rng, 6, dim, 3).values():
        for x, y, z in vector_sets(rng, 6, dim).values():
            with np.errstate(all="ignore"):
                got = kk_bracket(k[:, None], x, y, z)
                assert_bits(got, ref_kk_bracket(k[:, None], x, y, z))
                kxx = contract(contract(k[:, None], x), x)
                assert_bits(kxx, ref_kxx(k[:, None], x))
                for j in range(x.shape[1]):
                    assert_bits(kk_bracket(k[0], x[0, j], y[0, j], z[0, j]), got[0, j])
                    assert_bits(contract(contract(k[0], x[0, j]), x[0, j]), kxx[0, j])


# ---------------------------------------------------------------------------
# one product einsum and its k <-> l swap


@pytest.mark.parametrize("dim", DIMS)
def test_riemann_and_kk_tensor_match_two_einsums(dim):
    rng = np.random.default_rng(20 + dim)
    gammas = tensors(rng, 5, dim, 3)
    dgammas = tensors(rng, 5, dim, 4)
    for name in gammas:
        gamma, dgamma = gammas[name], dgammas[name]
        with np.errstate(all="ignore"):
            r = riemann(gamma, dgamma)
            assert_bits(r, ref_riemann(gamma, dgamma))
            assert_bits(riemann(gamma[0], dgamma[0]), r[0])      # a lane alone
            t = kk_tensor(gamma)
            assert_bits(t, ref_kk_tensor(gamma))
            assert_bits(kk_tensor(gamma[0]), t[0])


# ---------------------------------------------------------------------------
# the sectional curvatures of a sweep: one product per block, not per section


def sweep_of(blocks, lanes):
    """A SectionSweep that holds only what ``with_curvatures`` reads."""
    points = max(lanes, *(len(x) for x, _ in blocks))
    shape = (points, sum(x.shape[1] for x, _ in blocks))
    status = np.full(shape, curv.OK)
    return SectionSweep(np.zeros((points, 3)), *(None,) * 8, status, blocks)


@pytest.mark.parametrize("dim", DIMS)
def test_with_curvatures_matches_section_loop(dim):
    rng = np.random.default_rng(30 + dim)
    lanes = 20      # two chunks of 16 lanes
    g = np.eye(dim) + 0.1 * rng.standard_normal((lanes, dim, dim))
    g = g @ np.swapaxes(g, 1, 2)
    s = tensors(rng, lanes, dim, 4)
    for r0 in (s["dense"], s["zero"], s["special"]):
        for shared in (False, True):
            lane = slice(0, 1) if shared else slice(None)
            curvatures = CurvatureStack(None, s["dense"][lane], r0[lane], *(None,) * 4)
            blocks = [(x, px) for x, px, _ in vector_sets(rng, lanes, dim).values()]
            blocks.append(tuple(a[:1] for a in blocks[0]))       # a shared block
            sweep = sweep_of(blocks, lanes)
            with np.errstate(all="ignore"):
                got = sweep.with_curvatures(g[lane], curvatures)
                k_s, k_0 = ref_with_curvatures(sweep, g[lane], curvatures)
            assert_bits(got.k_s, k_s)
            assert_bits(got.k_0, k_0)
            bad = ~(np.isfinite(k_s) & np.isfinite(k_0))
            assert np.array_equal(got.status == curv.NON_FINITE, bad)
            with np.errstate(all="ignore"):
                one = sectional_values(g[0], s["dense"][0], blocks[1][0][0, 0], blocks[1][1][0, 0])
            assert_bits(one[0], k_s[0, blocks[0][0].shape[1]])


@pytest.mark.parametrize("chart", ["warped", "trivial-lambda", "planar-block"])
def test_sweep_curvatures_match_section_loop_on_charts(chart):
    """Real sweeps: phi-basis legs and mixtures, random sections, and the
    curvatures of a varying metric, of a flat one (broadcast zero R^0) and
    of a constant chart (one shared lane)."""
    m = manifold_from_dict(WARPED) if chart == "warped" else \
        get_entry("random", dim=7 if chart == "trivial-lambda" else 5, seed=2,
                  family=chart).manifold
    pts = m.grid_points(2)[:40]
    frames = m.frame_stack(pts)
    sweep, _ = curv.phi_sweep(frames, np.random.default_rng(1))
    curvatures = curv.statistical_curvatures(m, pts)
    assert sweep.blocks[0][0].strides[-1] != 8      # the legs: basis columns
    got = sweep.with_curvatures(frames.g, curvatures)
    k_s, k_0 = ref_with_curvatures(sweep, frames.g, curvatures)
    assert_bits(got.k_s, k_s)
    assert_bits(got.k_0, k_0)

