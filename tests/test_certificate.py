"""The quartic-form certificate of the K_phi identity: on ker(eta),
g([K,K](X, phi X) phi X, X) = -2 g(K(X,X), K(X,X)) as quartic forms
(``curvature.quartic_gaps``), checked once per lane in the plain sweep
instead of at random sections."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from acsgeo import curvature, get_entry
from acsgeo.cli import main
from acsgeo.contact import phi_basis
from acsgeo.specfile import manifold_from_dict
from acsgeo.zoo import FAMILIES, _block_k, _flat_spec

from decision_corpus import SPECS as CORPUS_SPECS
from test_golden import SPECS as GOLDEN_SPECS


def gaps(m, pts):
    """The certificate's relative gap at each lane of the frames of ``pts``."""
    fs = m.frame_stack(pts)
    basis, errors = phi_basis(fs.g, fs.phi, fs.xi)
    assert not any(errors)
    return curvature.quartic_gaps(fs, basis)


@st.composite
def block_charts(draw):
    """A flat dim-3 or dim-5 block chart with a small K table: planar blocks
    and a lambda term, which satisfy the identity, and a few entries drawn
    from a short list of values, which mostly break it."""
    n = draw(st.sampled_from([1, 2]))
    spec = _flat_spec("block", n)
    coords = spec["coordinates"]
    k = {}
    for b in range(n):
        a = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
        if a:
            k.update(_block_k(b, a))
    if draw(st.booleans()):
        k["z,z,z"] = repr(draw(st.sampled_from([-1.0, 0.5, 1.5])))
    values = st.sampled_from([-1.0, -0.5, 0.5, 1.0, 2.0])
    for i, j, l, v in draw(st.lists(st.tuples(*[st.integers(0, 2 * n)] * 3, values),
                                    max_size=3)):
        k[f"{coords[i]},{coords[j]},{coords[l]}"] = repr(v)
    return manifold_from_dict(dict(spec, K=k))


@settings(max_examples=150, deadline=None)
@given(block_charts(), st.integers(0, 2 ** 32 - 1))
def test_certificate_fails_exactly_when_a_random_section_mismatches(m, seed):
    """The K tables take a few values, so a gap is round-off or far above
    1e-9, and 64 random horizontal sections find a quotient that misses
    its closed form exactly when the certificate fails."""
    fs = m.frame_stack([np.zeros(m.dim)])
    basis, _ = phi_basis(fs.g, fs.phi, fs.xi)
    gap = curvature.quartic_gaps(fs, basis)[0]
    horizontal = basis[0, :, :2 * m.n]
    x = np.random.default_rng(seed).standard_normal((64, 2 * m.n)) @ horizontal.T
    sweep = curvature.section_sweep(fs, [x[None]])
    assert set(sweep.status.ravel()) <= {curvature.OK, curvature.MISMATCH}
    assert (gap > 1e-9) == (sweep.status == curvature.MISMATCH).any(), gap
    assert gap <= 1e-14 or gap > 1e-3


def test_certificate_gap_is_round_off_on_the_zoo():
    """Every generator family at dims 3-11, both worked examples, and the
    curved, connection-table and pulled-back charts of the corpus."""
    charts = [get_entry("random", dim=dim, seed=seed, family=family).manifold
              for family in FAMILIES for dim in (3, 5, 7, 9, 11) for seed in (0, 1)]
    charts += [get_entry("example_r3_negative").manifold] + [
        get_entry("example_flat_acs", n=n).manifold for n in (1, 2, 3)]
    charts += [manifold_from_dict(CORPUS_SPECS[name]) for name in (
        "warped", "warped_connection_table", "pulled_mixed3", "pulled_planar5",
        "pulled_warped")]
    charts += [manifold_from_dict(GOLDEN_SPECS[name])
               for name in ("warped_connection", "pulled_back_warped")]
    worst = max(float(np.max(gaps(m, m.grid_points(2)))) for m in charts)
    assert worst <= 1e-14


def test_uncertified_lane_fails_at_its_first_point(tmp_path, capsys, monkeypatch):
    """K^y_yy = -1 and K^y_xy = 1 on the flat R^3: lambda = 0, and the legs
    and mixture of every point pass (K_phi = 0 = the closed form there),
    but the identity fails at other sections.  Every lane is UNCERTIFIED,
    and both verbs name the first point in one run of each check."""
    spec = dict(_flat_spec("uncertified", 1), coordinates=["x", "y", "z"], grid=2,
                K={"y,y,y": "-1", "y,x,y": "1"})
    m = manifold_from_dict(spec)
    kept = m.kept(curvature.plain_sweep, m.grid_points())
    assert (kept.value == 0.0).all() and (kept.status[:, 0] == curvature.UNCERTIFIED).all()
    assert (kept.status[:, 1:] == curvature.OK).all() and (gaps(m, m.grid_points()) > 0.1).all()
    path = tmp_path / "uncertified.json"
    path.write_text(json.dumps(spec))
    runs = []
    replay = curvature.replay

    def counted(run, points):
        return replay(lambda pts: runs.append(len(pts)) or run(pts), points)
    monkeypatch.setattr(curvature, "replay", counted)
    for verb in ("curvature", "audit"):
        runs.clear()
        assert main([verb, str(path), "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "audit failure: K_phi fails its quartic-form certificate at [-1.0, -1.0, -1.0]\n")
        assert set(runs) == {8}
