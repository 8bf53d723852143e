"""The per-lane curvature kernels against the formulas they replaced.

The references below are the old forms, kept here and nowhere in the
package: R(X,Y)Z and [K,K](X,Y)Z as chains of (dim, dim) @ (dim, 1)
products, one per matrix of the tensor; ``riemann`` and ``kk_tensor`` with
a second Gamma Gamma (K K) einsum for the k <-> l term; and the sectional
curvatures of a sweep taken one section at a time.  Every value must be
bit-identical, sign bits included, on dense random tensors, on strided
vectors (the columns of a phi-basis), with a one-lane tensor shared by
every lane, with the broadcast zero R^0 of a flat metric, and with NaN,
inf and -0.0 entries.

The matrix products of the audit bodies (nabla g, nabla phi, Psi, K(X, Y)
over a vector family, phi K, the cubic form, the conjugate connection) sum in
another order than the einsums they replaced, kept below as references:
they must agree within 1e-12 relative to max(1, |reference|), with NaN and
inf where the reference has them, and a lane alone must give the bits of
that lane in a stack."""

from types import SimpleNamespace

import numpy as np
import pytest

from acsgeo import curvature as curv
from acsgeo import get_entry
from acsgeo.curvature import CurvatureStack, SectionSweep, kk_bracket, kk_tensor
from acsgeo.manifold import FrameStack
from acsgeo.metric import (apply_curvature, at_points, contract, covariant_derivative_11,
                           first_slot, inner, nabla_g, per_16_lanes, plane_q, riemann,
                           sectional_values)
from acsgeo.report import max_abs
from acsgeo.specfile import manifold_from_dict
from acsgeo.statistical import (conjugate_connections, total_symmetry_residual, validate_acs,
                                validate_statistical)

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


def ref_with_curvatures(blocks, g, curvatures, lane=None):
    """(k_s, k_0) of ``SectionSweep.with_curvatures`` one section at a time;
    with ``lane``, a block of one row per point reads the curvature of each
    point's lane."""
    def one_section(r, g, x, px):
        return ref_sectional_values(g, r, x, px)
    return tuple(np.concatenate([
        per_16_lanes(one_section, r, g, x[:, j], px[:, j], lane=lane)[:, None]
        for x, px in blocks for j in range(x.shape[1])], axis=1)
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


def sweep_of(blocks, lanes, g):
    """A SectionSweep that holds only what ``with_curvatures`` reads: the
    Q(X, phi X) of its section ``blocks`` under the metrics ``g`` as
    ``section_sweep`` takes it, and the statuses."""
    shape = (lanes, sum(x.shape[1] for x, _ in blocks))
    status = np.full(shape, curv.OK)
    with np.errstate(all="ignore"):
        q = np.concatenate([np.broadcast_to(plane_q(g[:, None], x, px), shape[:1] + x.shape[1:2])
                            for x, px in blocks], axis=1)
    return SectionSweep(np.zeros((lanes, 3)), None, None, eta=None, q=q, value=None,
                        closed=None, status=status)


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
            curvatures = CurvatureStack(None, s["dense"][lane], r0[lane], *(None,) * 3)
            blocks = [(x, px) for x, px, _ in vector_sets(rng, lanes, dim).values()]
            if not shared:
                blocks.append(tuple(a[:1] for a in blocks[0]))       # a shared block
            sweep = sweep_of(blocks, lanes, g[lane])
            with np.errstate(all="ignore"):
                got = sweep.with_curvatures(blocks, g[lane], curvatures)
                k_s, k_0 = ref_with_curvatures(blocks, g[lane], curvatures)
            assert_bits(got[0], k_s)
            assert_bits(got[1], k_0)
            bad = ~(np.isfinite(k_s) & np.isfinite(k_0))
            assert np.array_equal(got[2] == curv.NON_FINITE, bad)
            with np.errstate(all="ignore"):
                one = sectional_values(g[0], s["dense"][0], blocks[1][0][0, 0], blocks[1][1][0, 0])
            assert_bits(one[0], k_s[0, blocks[0][0].shape[1]])


@pytest.mark.parametrize("chart", ["warped", "trivial-lambda", "planar-block"])
def test_sweep_curvatures_match_section_loop_on_charts(chart):
    """Real sweeps: phi-basis legs and mixtures, and the curvatures of a
    varying metric, of a flat one (broadcast zero R^0) and of a constant
    chart (one shared lane); and the same sections read at each point, a
    block of a row per point, as ``--section`` gives, with g and R read at
    each point's lane."""
    m = manifold_from_dict(WARPED) if chart == "warped" else \
        get_entry("random", dim=7 if chart == "trivial-lambda" else 5, seed=2,
                  family=chart).manifold
    pts = m.grid_points(2)[:40]
    frames = m.frame_stack(pts)
    sweep = m.kept(curv.plain_sweep, pts)
    curvatures = curv.statistical_curvatures(m, pts)
    blocks = sweep.sections(frames.phi)
    assert blocks[0][0].strides[-1] != 8      # the legs: basis columns
    got = sweep.with_curvatures(blocks, frames.g, curvatures)
    k_s, k_0 = ref_with_curvatures(blocks, frames.g, curvatures)
    assert_bits(got[0], k_s)
    assert_bits(got[1], k_0)
    at = [tuple(a[frames.lane] for a in block) for block in blocks]
    rows = sweep._replace(lane=None, **{f: at_points(getattr(sweep, f), frames.lane, len(pts))
                                        for f in ("q", "status")})
    got = rows.with_curvatures(at, frames.g, curvatures, frames.lane)
    k_s, k_0 = ref_with_curvatures(at, frames.g, curvatures, frames.lane)
    assert got[0].shape == (len(pts), sweep.q.shape[1])
    assert_bits(got[0], k_s)
    assert_bits(got[1], k_0)


# ---------------------------------------------------------------------------
# the audit bodies' products against the einsums they replaced: within a
# bound (they sum in another order), NaN and inf where the einsum puts them,
# and a lane alone bit-identical to that lane in a stack

BOUND = 1e-12


def assert_close(got, want, exact=True):
    """Within BOUND relative to max(1, |want|), with every NaN, +inf and
    -inf where ``want`` has one; not ``exact``, with a NaN or an inf
    wherever ``want`` has one of them."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    for where in (np.isnan, np.isposinf, np.isneginf) if exact else (np.isfinite,):
        assert np.array_equal(where(got), where(want))
    real = np.isfinite(want)
    assert np.all(np.abs(got[real] - want[real]) <= BOUND * np.maximum(1.0, np.abs(want[real])))


def lane(a, i):
    """Lane ``i`` of a stack alone; a shared one-lane array stays as it is."""
    return a if len(a) == 1 else a[i:i + 1]


def assert_lanes_alone(fn, *arrays):
    """``fn`` of each lane alone gives that lane's bits of ``fn`` of the stack."""
    stack = fn(*arrays)
    for i in range(max(map(len, arrays))):
        assert_bits(fn(*(lane(a, i) for a in arrays))[0], stack[i if len(stack) > 1 else 0])


def ref_nabla_g(gamma, g, dg):
    out = dg - np.einsum("...mij,...mk->...ijk", gamma, g)
    out -= np.einsum("...mik,...jm->...ijk", gamma, g)
    return out


def ref_covariant_derivative_11(gamma, phi, dphi):
    out = dphi + np.einsum("...jim,...mk->...ijk", gamma, phi)
    out -= np.einsum("...mik,...jm->...ijk", gamma, phi)
    return out


def ref_first_slot(a, t):
    return np.einsum("...im,...mjk->...ijk" if t.ndim == a.ndim + 1 else
                     "...am,...mjkl->...ajkl", a, t)


def ref_k_pairs(k, x, y):
    """K(X_a, Y_a) as the three einsums of the theorem 5.8 audit wrote it."""
    spec = {(2, 2): "...ijk,aj,ak->...ai", (2, 3): "...ijk,aj,...ak->...ai",
            (3, 3): "...ijk,...aj,...ak->...ai"}[x.ndim, y.ndim]
    return np.einsum(spec, k, x, y)


def strided(a):
    """``a`` as a non-contiguous view: its last two axes transposed."""
    return np.swapaxes(np.ascontiguousarray(np.swapaxes(a, -1, -2)), -1, -2)


def matrices(rng, lanes, dim):
    """Dense, strided, special-valued and shared one-lane (dim, dim) stacks."""
    dense = rng.standard_normal((lanes, dim, dim))
    return {"dense": dense, "strided": strided(dense), "special": spiked(dense, rng),
            "shared": dense[:1]}


@pytest.mark.parametrize("dim", DIMS)
def test_first_slot_matches_einsum(dim):
    rng = np.random.default_rng(40 + dim)
    for rank in (3, 4):
        for t in tensors(rng, 20, dim, rank).values():
            for a in matrices(rng, 20, dim).values():
                with np.errstate(all="ignore"):
                    assert_close(first_slot(a, t), ref_first_slot(a, t))
                    assert_lanes_alone(first_slot, a, t)
                    assert_bits(first_slot(a[0], t[0]), first_slot(a, t)[0])   # no lane axis


@pytest.mark.parametrize("dim", DIMS)
def test_nabla_g_and_covariant_derivative_match_einsums(dim):
    rng = np.random.default_rng(50 + dim)
    gammas, dgs = tensors(rng, 20, dim, 3), tensors(rng, 20, dim, 3)
    for name, gamma in gammas.items():
        for g in matrices(rng, 20, dim).values():
            dg = dgs[name]
            with np.errstate(all="ignore"):
                assert_close(nabla_g(gamma, g, dg), ref_nabla_g(gamma, g, dg))
                assert_lanes_alone(nabla_g, gamma, g, dg)
                assert_close(covariant_derivative_11(gamma, g, dg),
                             ref_covariant_derivative_11(gamma, g, dg))
                assert_lanes_alone(covariant_derivative_11, gamma, g, dg)


@pytest.mark.parametrize("dim", DIMS)
def test_k_pairs_matches_the_three_einsums(dim):
    """The frame-vector family shared by every lane, per-lane families
    (dense, phi-basis legs, special-valued), and one lane of each.  An inf
    in X, which the chain takes last, meets the finite sum K(e_j, Y_a) and
    gives +-inf where the einsum adds +inf and -inf terms to NaN; the
    frame pass keeps every vector of an audit finite."""
    rng = np.random.default_rng(60 + dim)
    vecs = np.array(curv.frame_vectors(dim))
    families = [(vecs, vecs)]
    for x, y, _ in vector_sets(rng, 20, dim).values():
        families += [(x, y), (y, x), (vecs[:x.shape[1]], x), (x[:1], y)]
    for k in tensors(rng, 20, dim, 3).values():
        for x, y in families:
            with np.errstate(all="ignore"):
                got = curv._k_pairs(k, x, y)
                assert_close(got, np.broadcast_to(ref_k_pairs(k, x, y), got.shape),
                             exact=not np.isinf(x).any())
                if x.ndim == 3:
                    assert_lanes_alone(curv._k_pairs, k, x, y)
                else:
                    assert_lanes_alone(lambda k, y: curv._k_pairs(k, x, y), k,
                                       y if y.ndim == 3 else y[None])


# the columns of the audit bodies on synthetic frames


def frame_stacks(rng, lanes, dim):
    """FrameStacks of random fields: every field per lane; g, phi and the
    connection shared by every lane while K varies; and K, or phi, with
    NaN and inf entries."""
    def field(*shape):
        return rng.standard_normal((lanes,) + shape)
    fs = FrameStack(np.arange(lanes * dim, dtype=float).reshape(lanes, dim),
                    field(dim, dim), None, field(dim, dim), field(dim), field(dim),
                    field(dim, dim, dim), field(dim, dim, dim), field(dim, dim, dim),
                    field(dim, dim, dim), field(dim, dim))
    shared = fs._replace(**{name: getattr(fs, name)[:1]
                            for name in ("g", "phi", "xi", "eta", "gamma0", "dg", "dphi")})
    return {"dense": fs, "shared": shared, "special": fs._replace(K=spiked(fs.K, rng)),
            "special phi": fs._replace(phi=spiked(fs.phi, rng))}


def ref_psi_residuals(fs):
    ng = ref_nabla_g(fs.gamma0 + fs.K, fs.g, fs.dg)
    psi = np.einsum("...xym,...mz->...xyz", ng, fs.phi)
    phi_k = np.einsum("...im,...mjk->...ijk", fs.phi, fs.K)
    target = 2.0 * np.einsum("...xi,...iyz->...xyz", fs.g, phi_k)
    psi_phi_y = np.einsum("...xmz,...my->...xyz", psi, fs.phi)
    psi_phi_z = np.einsum("...xym,...mz->...xyz", psi, fs.phi)
    psi_phi_both = np.einsum("...xmn,...my,...nz->...xyz", psi, fs.phi, fs.phi)
    return {"psi/antisymmetry_YZ": max_abs(psi + np.einsum("...xzy->...xyz", psi)),
            "psi/equals_2g_phiK": max_abs(psi - target),
            "psi/slot_symmetry_XY": max_abs(psi - np.einsum("...yxz->...xyz", psi)),
            "psi/slot_symmetry_XZ": max_abs(psi - np.einsum("...zyx->...xyz", psi)),
            "psi/phi_slot_flip": max_abs(psi_phi_y + psi_phi_z),
            "psi/phi_slot_double": max_abs(psi_phi_both - psi),
            "psi/psi_zero": max_abs(psi)}


def psi_residuals(fs):
    """The residual columns of ``curvature._psi`` on the frames ``fs``, with
    a kept plain sweep whose bases pass and whose K_phi is 0."""
    points = fs.point if len(fs.K) > 1 else fs.point[:1]
    lanes, dim = fs.g.shape[:2]
    n = (dim - 1) // 2
    zero = np.zeros((lanes, n * (n + 3) // 2))
    plain = curv.SectionSweep(fs.point, np.zeros((lanes, dim, dim)), np.full(lanes, None),
                              zero, zero, zero, zero, np.full(zero.shape, curv.OK), fs.lane)
    rep = curv._psi(SimpleNamespace(frame_stack=lambda _: fs, kept=lambda *_: plain), points,
                    1e-9)
    return {check: np.array([r for c, r in zip(rep.checks, rep.residuals) if c == check])
            for check in ref_psi_residuals(lane_stack(fs, 0))}


def ref_acs_residuals(fs):
    k_phi = np.einsum("...ijm,...mk->...ijk", fs.K, fs.phi)
    phi_k = np.einsum("...im,...mjk->...ijk", fs.phi, fs.K)
    k_phi_first = np.einsum("...imk,...mj->...ijk", fs.K, fs.phi)
    return np.stack([max_abs(k_phi + phi_k), max_abs(k_phi - k_phi_first)])


def ref_conjugate_residual(fs):
    lhs = (np.einsum("...mz,...mxy->...xyz", fs.g, fs.gamma0 + fs.K)
           + np.einsum("...ym,...mxz->...xyz", fs.g, fs.gamma0 - fs.K))
    return max_abs(lhs - fs.dg)


def ref_statistical_residuals(fs):
    c = np.einsum("...im,...mjk->...ijk", fs.g, fs.K)
    ng = ref_nabla_g(fs.gamma0 + fs.K, fs.g, fs.dg)
    ng_bar = ref_nabla_g(fs.gamma0 - fs.K, fs.g, fs.dg)
    return np.stack([max_abs(fs.K - np.swapaxes(fs.K, 2, 3)), total_symmetry_residual(c),
                     total_symmetry_residual(ng), max_abs(ng + 2.0 * c),
                     total_symmetry_residual(ng_bar)])


def ref_compat_residuals(fs, d0_phi):
    gamma = fs.gamma0 + fs.K
    phi_k = np.einsum("...im,...mak->...aik", fs.phi, fs.K)
    return np.stack([
        max_abs(ref_covariant_derivative_11(gamma, fs.phi, fs.dphi)),
        max_abs(fs.dphi + np.einsum("...iam,...mk->...aik", gamma, fs.phi)
                - np.einsum("...im,...mak->...aik", fs.phi, gamma)),
        max_abs(d0_phi - 2.0 * phi_k),
        max_abs(d0_phi - ref_covariant_derivative_11(gamma, fs.phi, fs.dphi) - 2.0 * phi_k)])


def lane_stack(fs, i):
    return type(fs)(*(a if a is None else lane(a, i) for a in fs))


def body_residuals(fs, d0_phi):
    """The residuals of every audit body that takes these products, (C, L)."""
    columns = validate_statistical(fs, 1e-9) + validate_acs(fs, 1e-9)
    return np.concatenate([
        np.stack([np.broadcast_to(c.residual, (len(fs.K),)) for c in columns]),
        conjugate_connections(fs, np.inf)[1][None],
        curv._compat_residuals(fs, d0_phi), curv.lemma_5_6_residuals(fs, d0_phi)[None]])


@pytest.mark.parametrize("dim", DIMS)
def test_audit_bodies_match_einsums_on_synthetic_frames(dim):
    """validate_statistical, validate_acs, conjugate_connections,
    _compat_residuals, lemma_5_6_residuals and _psi against their einsum forms, and each lane alone against the stack."""
    rng = np.random.default_rng(70 + dim)
    for fs in frame_stacks(rng, 20, dim).values():
        d0_phi = rng.standard_normal(fs.K.shape)
        with np.errstate(all="ignore"):
            want = np.concatenate([
                ref_statistical_residuals(fs), ref_acs_residuals(fs),
                ref_conjugate_residual(fs)[None], ref_compat_residuals(fs, d0_phi)])
            got = body_residuals(fs, d0_phi)
            assert_close(got, want)
            psi, ref_psi = psi_residuals(fs), ref_psi_residuals(fs)
            for check in ref_psi:
                assert_close(psi[check], ref_psi[check])
            for i in (0, 7, 19):
                alone = lane_stack(fs, i)
                assert_bits(body_residuals(alone, d0_phi[i:i + 1])[:, 0], got[:, i])
                psi_alone = psi_residuals(alone)
                for check in ref_psi:
                    assert_bits(psi_alone[check][0], psi[check][i])
