"""Work that no output reads, left out bit for bit.

The references below are the forms the package replaced, kept here and
nowhere in it: argument parsing by the full parser of every verb,
``field_jet`` copying each duplicate entry one column at a time, and the
total symmetry residual over all six permutations.  Each must agree with
the package exactly: the same output text and exit code, and the same
array bits and layout, sign bits and NaN included.  ``_frame_cache``, once
a record of every frame pass, is now a read of the chart's kept frame part,
and its tests pin that read."""

import itertools

import numpy as np
import pytest

from acsgeo import cli
from acsgeo import curvature as curv
from acsgeo import get_entry
from acsgeo.contact import is_cosymplectic, nabla0_phi
from acsgeo.expressions import Jet
from acsgeo.metric import FieldArray, _as_fields, _flat, field_jet, fields_constant, point_lanes
from acsgeo.specfile import manifold_from_dict
from acsgeo.statistical import total_symmetry_residual

from test_golden import SPECS
from test_invariance import WARPED


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# one parser per verb


def outcome(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def full_parser_outcome(capsys, monkeypatch, argv):
    """``main(argv)`` with every verb's parser built, as it parsed before."""
    full = cli.build_parser
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", lambda verb=None: full())
        return outcome(capsys, argv)


RUN_VERB_ARGVS = [
    [verb] + tail for verb in ("validate", "curvature", "audit")
    for tail in (["-h"], [], ["zoo:example_flat_acs", "--format", "xml"],
                 ["zoo:example_flat_acs", "--bogus"], ["zoo:example_flat_acs", "extra"],
                 ["zoo:example_flat_acs", "--tol"], ["zoo:example_flat_acs", "--grid", "x"],
                 ["zoo:example_flat_acs:n=1", "--grid", "1", "--format", "json"])]
OTHER_ARGVS = [
    ["export-zoo", "-h"], ["export-zoo"], ["export-zoo", "example_flat_acs", "--bogus"],
    ["export-zoo", "example_flat_acs", "extra"], ["export-zoo", "example_flat_acs", "-o"],
    ["export-zoo", "example_flat_acs"],
    ["list-zoo", "-h"], ["list-zoo", "extra"], ["list-zoo", "--bogus"], ["list-zoo"],
    [], ["-h"], ["bogus"], ["--tol", "1", "validate", "x"], ["validat", "x"]]


@pytest.mark.parametrize("argv", RUN_VERB_ARGVS + OTHER_ARGVS, ids=" ".join)
def test_verb_parser_matches_full_parser(capsys, monkeypatch, argv):
    want = full_parser_outcome(capsys, monkeypatch, argv)
    assert outcome(capsys, argv) == want


def test_verb_parser_holds_one_verb():
    for verb in cli.VERBS:
        sub = cli.build_parser(verb)._subparsers._group_actions[0]
        assert list(sub.choices) == [verb]
    assert tuple(cli.build_parser()._subparsers._group_actions[0].choices) == cli.VERBS


def test_unrecognized_argument_prints_full_usage(capsys):
    code, _, err = outcome(capsys, ["validate", "zoo:example_flat_acs", "--bogus"])
    assert code == 2
    assert err.splitlines()[0] == \
        "usage: acsgeo [-h] {validate,curvature,audit,export-zoo,list-zoo} ..."


# ---------------------------------------------------------------------------
# the frame cache, a read of the kept frame part


def points_of(pts):
    return list(map(tuple, pts.tolist()))


def test_frame_cache_after_one_grid_pass():
    """The grid passes keep the grid's parts; one-point reads of its points
    take no pass, so the cache stays the grid's points."""
    m = manifold_from_dict(WARPED)
    pts = m.grid_points()
    stack = m.frame_stack(pts)
    assert list(m._frame_cache) == points_of(pts)
    curv.statistical_curvatures(m, pts)
    is_cosymplectic(m, pts)
    for p in pts[::-1]:
        m.frame_at(p)
        nabla0_phi(m, p)
        curv.statistical_curvature(m, p)
    assert m.frame_stack(pts) is stack
    assert list(m._frame_cache) == points_of(pts)


@pytest.mark.parametrize("shift", [0, -9], ids=["grid_order", "x0_first"])
def test_frame_cache_after_replay_bisection(shift):
    """The bisection of ``replay`` on a chart singular at x = -1 with a log
    domain error at x = 1 ends in the failing pass of the first point that
    fails alone, which keeps nothing."""
    m = manifold_from_dict(SPECS["two_failures"])
    pts = np.roll(m.grid_points(), shift, axis=0)
    m.frame_stack(pts[9:18] if shift == 0 else pts[:9])     # the x = 0 points pass
    assert len(m._frame_cache) == 9
    with pytest.raises(Exception):
        curv.replay(lambda points, _: m.frame_stack(points), list(pts), None)
    assert m._frame_cache == {}


@pytest.mark.parametrize("spec", [WARPED, SPECS["two_failures"], None],
                         ids=["warped", "two_failures", "constant"])
def test_frame_cache_after_repeated_passes(spec):
    """Each pass over new points replaces the kept points; a request for
    kept points, in any order, reads their rows and keeps them."""
    m = get_entry("example_flat_acs").manifold if spec is None else manifold_from_dict(spec)
    pts = m.grid_points()[9:18]
    for rows, kept in ((slice(0, 5), slice(0, 5)), (slice(3, 9), slice(3, 9)),
                       (slice(0, 5), slice(0, 5)), (slice(None), slice(None)),
                       (slice(None, None, -1), slice(None)), (slice(2, 4), slice(None))):
        m.frame_stack(pts[rows])
        assert list(m._frame_cache) == points_of(pts[kept])


# ---------------------------------------------------------------------------
# duplicate jet entries


def ref_field_jet(fields, coords, order):
    """``field_jet`` copying each duplicate entry one column at a time."""
    lanes, dim = len(coords[0]), len(coords)
    flat = _flat(fields)
    shape = np.shape(fields)
    constant = fields.is_constant if isinstance(fields, FieldArray) else fields_constant(fields)
    out = [np.empty((lanes, len(flat)))]
    if not constant:
        out += [np.zeros((lanes,) + (dim,) * k + (len(flat),)) for k in range(1, order + 1)]
    env = Jet.variables(coords, order) if len(out) > 1 else coords
    first = {}
    for i, f in enumerate(flat):
        j = first.setdefault(id(f), i)
        if j < i:
            for a in out:
                a[..., i] = a[..., j]
            continue
        jet = f.eval_scalar(env)
        if isinstance(jet, Jet):
            out[0][:, i] = jet.val
            out[1][..., i] = jet.grad.T
            if order == 2:
                out[2][..., i] = jet.hess.transpose(2, 0, 1)
        else:
            out[0][:, i] = jet
    if constant:
        out += [np.broadcast_to(0.0, (lanes,) + (dim,) * k + (len(flat),))
                for k in range(1, order + 1)]
    return tuple(a.reshape(a.shape[:-1] + shape) for a in out)


def jet_tables():
    warped = manifold_from_dict(WARPED)
    trivial = get_entry("random", dim=7, seed=4, family="trivial-lambda").manifold
    coords = ("x", "y", "z")
    varying = FieldArray(_as_fields(
        [[["x*y", "0", "x*y"], ["0", "sin(z)", "0"], ["x*y", "0", "1 + x^2"]]] * 3,
        coords, {}))
    return {"warped_metric": (warped.metric.components, warped),
            "warped_phi": (warped.phi, warped),
            "dim7_K": (trivial.difference.fields, trivial),
            "constant_mirrored": (FieldArray(_as_fields(
                [["2", "0.5", "0"], ["0.5", "2", "0"], ["0", "0", "1"]], coords, {})), warped),
            "varying_K": (varying, warped),
            "plain_list": (_as_fields([["x", "y*z"], ["y*z", "x"]], coords, {}), warped)}


@pytest.mark.parametrize("lanes", [1, 243])
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("table", sorted(jet_tables()))
def test_field_jet_matches_column_copies(table, order, lanes):
    fields, m = jet_tables()[table]
    pts = np.random.default_rng(lanes).uniform(-1, 1, (lanes, m.dim))
    coords = point_lanes(pts)
    with np.errstate(all="ignore"):
        got, want = field_jet(fields, coords, order), ref_field_jet(fields, coords, order)
    assert len(got) == len(want) == order + 1
    for a, b in zip(got, want):
        assert_bits(a, b)
        assert a.flags.c_contiguous == b.flags.c_contiguous
        assert a.strides == b.strides


# ---------------------------------------------------------------------------
# total symmetry


def ref_total_symmetry_residual(t):
    lead, slots = tuple(range(t.ndim - 3)), tuple(range(t.ndim - 3, t.ndim))
    res = np.maximum.reduce([np.max(np.abs(t - np.transpose(t, lead + perm)), axis=slots)
                             for perm in itertools.permutations(slots)])
    return float(res) if res.ndim == 0 else res


SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.7e308, -1.7e308])


@pytest.mark.parametrize("lead", [(), (5,), (2, 3)], ids=["one", "stacked", "two_axes"])
@pytest.mark.parametrize("dim", [1, 3, 5])
def test_total_symmetry_four_permutations(lead, dim):
    rng = np.random.default_rng(dim + len(lead))
    shape = lead + (dim,) * 3
    for share in (0.0, 0.02, 0.2, 1.0):
        for _ in range(40):
            t = rng.normal(size=shape)
            if rng.random() < 0.5:      # symmetric up to the special entries
                t = sum(np.transpose(t, tuple(range(len(lead))) + tuple(len(lead) + np.array(p)))
                        for p in itertools.permutations(range(3)))
            special = rng.random(shape) < share
            t[special] = rng.choice(SPECIAL, size=special.sum())
            with np.errstate(all="ignore"):
                got, want = total_symmetry_residual(t), ref_total_symmetry_residual(t)
            assert type(got) is type(want)
            assert_bits(got, want)


def test_total_symmetry_of_one_infinite_entry_is_nan():
    """The identity's inf - inf is the only NaN of a tensor with one inf."""
    t = np.zeros((2, 3, 3, 3))
    t[1, 0, 1, 2] = np.inf
    with np.errstate(invalid="ignore"):
        got, want = total_symmetry_residual(t), ref_total_symmetry_residual(t)
    assert got[0] == 0.0 and np.isnan(got[1])
    assert_bits(got, want)
