"""Lanes: a coordinate may be a (P,) array with one lane per sample point.
Every lane must give bit-identical results, sign bits included, to
evaluating its point alone (as floats or as a pass of one lane), and an
input must fail on the lanes exactly when it fails at one of its points."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acsgeo import (AuditReport, ConnectionDifferenceTensor, cli, contact, generate_random_acs,
                    get_entry, is_cosymplectic, lambda_of, phi_basis, statistical_curvature,
                    validate_acs, validate_statistical, validate_structure)
from acsgeo import curvature as curv
from acsgeo.contact import DegenerateSeedError, ExhaustedCandidatesError, FrameError, nabla0_phi
from acsgeo.expressions import ExpressionError, Jet, NonFiniteError, ScalarField, parse_expression
from acsgeo.manifold import ChartManifold, FrameStack
from acsgeo.metric import (DegeneratePlaneError, GeometryError, MetricField,
                           SingularMetricError, christoffel, christoffel_jet,
                           field_first_derivatives, inv_generic, riemann)
from acsgeo.statistical import conjugate_connections
from acsgeo.specfile import manifold_from_dict

import dual_reference as ref
from conftest import poly3_metric, sphere_metric

XYZ = ["x", "y", "z"]


def assert_same(lane_value, point_values):
    """A lane result (float or (P,) array) against the per-point results."""
    want = np.array(point_values, dtype=float)
    got = np.broadcast_to(np.asarray(lane_value, dtype=float), want.shape)
    assert np.array_equal(got, want, equal_nan=True)
    real = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[real]), np.signbit(want[real]))


def parts(x, order, lanes):
    """Value, gradient and Hessian of an evaluation, as many as ``order``
    asks for, lane axis first; a plain value has zero derivatives."""
    if not isinstance(x, Jet):
        x = Jet(np.full(lanes, x), np.zeros((3, lanes)), np.zeros((3, 3, lanes)))
    return [np.moveaxis(np.broadcast_to(a, a.shape[:-1] + (lanes,)), -1, 0)
            for a in (np.atleast_1d(x.val), x.grad, x.hess)[:order + 1]]


def seeded(coords, order):
    """Coordinates seeded for values (order 0) or for Jets of ``order``."""
    return list(coords) if order == 0 else Jet.variables(
        [np.atleast_1d(np.asarray(c, dtype=float)) for c in coords], order)


# ---------------------------------------------------------------------------
# expression trees

_LEAVES = st.sampled_from(["x", "y", "z", "0.5", "2.0", "3", "0.0", "1e-3", "1e200"])


def _extend(sub):
    return st.one_of(
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        sub.map(lambda a: f"-({a})"),
        st.tuples(sub, st.integers(-3, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "log", "sqrt"]), sub)
        .map(lambda t: f"{t[0]}({t[1]})"),
    )


EXPRESSIONS = st.recursive(_LEAVES, _extend, max_leaves=10)
COORD = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0]),
                  st.floats(-3.0, 3.0, allow_nan=False))
POINTS = st.lists(st.tuples(COORD, COORD, COORD), min_size=2, max_size=7)


def _evaluate(field, env, walk=None):
    try:
        return (walk or field.eval_scalar)(env), None
    except ExpressionError as exc:
        return None, type(exc)


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS, POINTS, st.integers(0, 2))
def test_expression_lanes_match_points(text, points, order):
    field = parse_expression(text, XYZ)
    lanes = [np.array(c) for c in zip(*points)]
    with np.errstate(all="ignore"):     # one-point jets are lanes too
        per_point = [_evaluate(field, seeded(p, order)) for p in points]
        lane_out, lane_err = _evaluate(field, seeded(lanes, order))
    floats = [_evaluate(field, list(p)) for p in points]
    # a jet's value is the float value, and it fails where the float fails
    assert [err for _, err in per_point] == [err for _, err in floats]
    errors = {err for _, err in per_point if err is not None}
    if errors:
        # the lanes stop at the first node where some lane fails; that
        # lane's point fails there too, with the same exception class
        assert lane_err in errors
        return
    assert lane_err is None
    got = parts(lane_out, order, len(points))
    want = [parts(out, order, 1) for out, _ in per_point]
    for k, lane_value in enumerate(got):
        assert_same(lane_value, [w[k][0] for w in want])
    assert_same(got[0], [out for out, _ in floats])


@settings(max_examples=150, deadline=None)
@given(EXPRESSIONS, st.tuples(COORD, COORD, COORD))
def test_jet_matches_nested_duals(text, point):
    """The gradient and Hessian of one Taylor walk against d_m and d_i d_m
    from nested Dual seeding in ``tests/dual_reference.py``, an independent
    reference with its own arithmetic, rules and walk."""
    field = parse_expression(text, XYZ)
    with np.errstate(all="ignore"):
        jet, error = _evaluate(field, seeded(point, 2))
        for m, i in itertools.product(range(3), repeat=2):
            env = [ref.Dual(ref.Dual(c, float(n == m)), float(n == i))
                   for n, c in enumerate(point)]
            out, dual_error = _evaluate(field, env, lambda env: ref.evaluate(field.body, env))
            assert dual_error == error
            if error is not None:
                return
            grad, hess = parts(jet, 2, 1)[1:]
            d_m = ref.primal(ref.tangent(out.val)) if isinstance(out, ref.Dual) else 0.0
            for got, want in ((grad[0, m], d_m), (hess[0, i, m], ref.tangent(ref.tangent(out)))):
                if np.isfinite(got) and np.isfinite(want):
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_lane_domain_errors_name_a_failing_lane():
    field = parse_expression("log(x)", XYZ)
    with pytest.raises(ExpressionError, match="-0.5"):
        field.eval_scalar([np.array([1.0, -0.5, -1.0]), np.zeros(3), np.zeros(3)])


# ---------------------------------------------------------------------------
# inv_generic: one batched call behind a singularity gate


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 5), st.integers(2, 9))
def test_inv_generic_stack_matches_one_at_a_time(seed, n, lanes):
    rng = np.random.default_rng(seed)
    chol = np.tril(rng.uniform(-1.0, 1.0, (lanes, n, n)))
    chol[:, range(n), range(n)] = rng.uniform(0.5, 1.5, (lanes, n))
    a = chol @ chol.transpose(0, 2, 1)
    got = inv_generic(a)
    assert_same(got, [inv_generic(mat[None])[0] for mat in a])
    assert np.allclose(got @ a, np.eye(n), atol=1e-9)


@pytest.mark.parametrize("mat, message", [
    (np.diag([0.0, 1.0, 1.0]), "^matrix is numerically singular$"),
    (np.diag([1e-7, 1e-7, 1.0]), r"^metric determinant 9\.9999999999999\d*e-15 below threshold$")])
def test_inv_generic_gate(mat, message):
    with pytest.raises(SingularMetricError, match=message):
        inv_generic(np.stack([np.eye(3), mat]))


# ---------------------------------------------------------------------------
# jets, curvature and the grid pass


def lane_coords(points):
    pts = np.array(points)
    return [np.ascontiguousarray(pts[:, n]) for n in range(pts.shape[1])]


def grid(box, k):
    return [np.array(p) for p in itertools.product(*(np.linspace(lo, hi, k) for lo, hi in box))]


METRICS = {
    "poly3": poly3_metric(),
    # the constant 1 and x trade places as the larger entry of column 0
    # where |x| > 1
    "mixed_type_pivot": MetricField.from_lower_triangle(
        [["1"], ["x", "4"], ["0", "0", "1"]], XYZ),
    "mixed_pivot_transcendental": MetricField.from_lower_triangle(
        [["1.2 + 0.5*sin(x)"], ["x*exp(0.1*y)", "4 + cos(y) + log(2 + z^2)"],
         ["0.1*sqrt(2 + x)", "0.2*x*y", "3 + 0.1*z^2"]], XYZ),
}


@pytest.mark.parametrize("name", sorted(METRICS))
def test_christoffel_jet_and_riemann_lanes_match_points(name):
    g = METRICS[name]
    points = grid([(-1.5, 1.5), (-1.0, 1.0), (-1.0, 1.0)], 4)
    coords = lane_coords(points)
    gamma, dgamma = christoffel_jet(g, coords)
    r = riemann(g, coords)
    for p, point in enumerate(points):
        want = christoffel_jet(g, point)
        assert_same(gamma[p], want[0])
        assert_same(dgamma[p], want[1])
        assert_same(r[p], riemann(g, point))


def test_constant_jet_lanes_are_broadcast_zeros():
    g = MetricField.from_lower_triangle([["2"], ["0.5", "1"], ["0", "0", "1"]], XYZ)
    gamma, dgamma = christoffel_jet(g, lane_coords(grid([(0, 1)] * 3, 2)))
    assert gamma.shape == (8, 3, 3, 3) and dgamma.shape == (8, 3, 3, 3, 3)
    assert dgamma.strides[0] == 0 and not dgamma.any() and not gamma.any()


F = "exp(0.1*((u + 3*v)^2 + v^2))"
PULLED_BACK = {
    "coordinates": ["u", "v", "w"], "grid": 4,
    "metric_lower": [[F], [f"3*{F}", f"10*{F}"], ["0", "0", "1"]],
    "phi": [["-3", "-10", "0"], ["1", "3", "0"], ["0", "0", "0"]],
    "xi": ["0", "0", "1"], "K": {},
}
LAMBDA_K = {
    "coordinates": ["x", "y", "z"], "grid": 3,
    "metric_lower": [["1 + 0.3*(x^2 + y^2)"], ["0", "1 + 0.3*(x^2 + y^2)"], ["0", "0", "1"]],
    "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
    "xi": ["0", "0", "1"], "K": {"z,z,z": "0.5 + 0.3*x*y"},
}


@pytest.mark.parametrize("spec", [PULLED_BACK, LAMBDA_K], ids=["pulled_back", "lambda_k"])
def test_grid_pass_matches_statistical_curvature(spec):
    m = manifold_from_dict(spec)
    pts = m.grid_points()
    stack = curv.statistical_curvatures(m, pts)
    assert curv.statistical_curvatures(m, pts) is stack        # the kept pass
    assert len(stack.s) == len(stack.cross) == stack.lane.max() + 1
    single = manifold_from_dict(spec)
    for i, p in enumerate(pts):
        alone = curv.statistical_curvatures(single, [p])
        for got, want in zip(stack[1:-1], alone[1:-1]):
            assert_same(got[stack.lane[i]], want[0])


def test_grid_pass_caches_nothing_on_error():
    spec = dict(LAMBDA_K, metric_lower=[["x + 1 + 0*log(0.5 - x)"], ["0", "1"],
                                        ["0", "0", "1"]])
    m = manifold_from_dict(spec)
    pts = m.grid_points()
    curv.statistical_curvatures(m, [p for p in pts if p[0] == 0.0])
    # the batched frame pass meets the log at x = 1; the first point that
    # fails alone is singular, at x = -1
    with pytest.raises(SingularMetricError, match=r" at \[-1\.0, -1\.0, -1\.0\]$") as info:
        curv.statistical_curvatures(m, pts)
    assert info.value.lane == [-1.0, -1.0, -1.0]
    assert curv._curvature_parts not in m._kept_parts


def test_cache_read_applies_the_cross_check():
    """The pass keeps max |S - R0 - [K,K]| beside S and R0, that of the
    one-point function's tensors, and a read of the kept pass gates on it."""
    m = manifold_from_dict(LAMBDA_K)
    p = m.grid_points()[0]
    stack = curv.statistical_curvatures(m, [p])
    s, r0, kk = curv.statistical_curvature(m, p)[:3]
    assert stack.cross[0] == float(np.max(np.abs(s - r0 - kk)))
    m._kept_parts[curv._curvature_parts] = stack._replace(cross=np.ones(1))
    with pytest.raises(curv.CrossCheckError, match=r"^S - R0 - \[K,K\] residual 1\.0 at "):
        curv.statistical_curvature(m, p)


def test_store_keeps_the_parts_of_one_point_set():
    """The chart keeps one part per pass for the last points asked for:
    other points drop every kept part, and a part whose pass fails keeps
    nothing while the other parts of the same points stay."""
    m = manifold_from_dict(dict(LAMBDA_K, K={"z,z,z": "1e-10*exp(709*x)"}))
    pts = m.grid_points()
    head = [p for p in pts if p[0] < 1.0]

    def parts(points):
        return [m.frame_stack(points), curv.statistical_curvatures(m, points),
                m.kept(nabla0_phi, points)]
    kept = parts(head)
    assert all(a is b for a, b in zip(parts(head), kept))
    frames = m.frame_stack(pts)
    assert list(m._kept_parts) == [ChartManifold._frames]
    # the curvature of x = 1 is not finite
    with pytest.raises(NonFiniteError, match=r" at \[1\.0, -1\.0, -1\.0\]$") as info:
        curv.statistical_curvatures(m, pts)
    assert info.value.lane == [1.0, -1.0, -1.0]
    d0_phi = m.kept(nabla0_phi, pts)
    assert list(m._kept_parts) == [ChartManifold._frames, nabla0_phi]
    assert m.frame_stack(pts) is frames and m.kept(nabla0_phi, pts) is d0_phi
    assert not any(a is b for a, b in zip(parts(head), kept))


# ---------------------------------------------------------------------------
# the frame pass

FRAME_FIELDS = ("point", "g", "g_inv", "phi", "xi", "eta", "gamma0", "K",
                "dg", "dphi", "dxi")
EXP_FRAME = {
    "coordinates": ["x", "y", "z"], "grid": 3,
    "metric_lower": [["exp(2*z)"], ["0", "1"], ["0", "0", "exp(2*x)"]],
    "phi": [["0", "-1*exp(-1*z)", "0"], ["exp(z)", "0", "0"], ["0", "0", "0"]],
    "xi": ["0", "0", "exp(-1*x)"], "eta": ["0", "0", "exp(x)"], "K": {},
}
POLY3_CHART = dict(LAMBDA_K, metric_lower=[
    ["1 + 0.1*x^2"], ["0.1*x*y", "1 + 0.1*(y^2 + z^2)"],
    ["0.05*z", "0.1*x*z", "1 + 0.1*(x^2 + y^2)"]], xi=["0", "0.1*x", "1 + 0.2*y*z"])
F_W = "1 + 0.3*(x^2 + y^2)"
CONNECTION = {key: val for key, val in LAMBDA_K.items() if key != "K"}
CONNECTION.update(metric_lower=[[F_W], ["0", F_W], ["0", "0", "1"]],
                  connection={"x,x,x": f"0.3*x/({F_W})", "y,y,y": f"0.3*y/({F_W})",
                              "x,y,y": f"-0.3*x/({F_W})", "z,z,z": "0.5 + 0.3*x*y"})


@pytest.mark.parametrize("spec", [POLY3_CHART, EXP_FRAME, CONNECTION, PULLED_BACK],
                         ids=["poly3", "exp_frame", "connection", "pulled_back"])
def test_frame_grid_matches_frame_at(spec):
    m = manifold_from_dict(spec)
    pts = m.grid_points()
    stack = m.frame_stack(pts)
    assert m.frame_stack(pts) is stack         # the kept pass
    assert list(m._frame_cache) == list(map(tuple, pts.tolist()))
    single = manifold_from_dict(spec)
    for i, p in enumerate(pts):
        got, want = m.frame_at(p), single.frame_at(p)
        for name in FRAME_FIELDS:
            assert getattr(got, name).shape == getattr(want, name).shape, name
            assert_same(getattr(got, name), getattr(want, name))
            row = i if name == "point" else stack.lane[i]
            assert_same(getattr(stack, name)[row], getattr(want, name))


FRAME_CHARTS = pytest.mark.parametrize(
    "spec", [POLY3_CHART, EXP_FRAME, CONNECTION, PULLED_BACK],
    ids=["poly3", "exp_frame", "connection", "pulled_back"])


def float_walk(fields, x):
    """A nested array of ScalarFields evaluated field by field at one point
    of Python floats: the reference of the lane paths."""
    if isinstance(fields, ScalarField):
        return fields.eval_scalar(x)
    return [float_walk(f, x) for f in fields]


@FRAME_CHARTS
def test_metric_array_at_is_the_float_walk(spec):
    """MetricField.array_at, a one-lane order-0 field_jet, has the bits of
    the metric evaluated field by field at Python floats."""
    metrics = [(manifold_from_dict(spec).metric, manifold_from_dict(spec).grid_points()),
               (sphere_metric(), [[0.3, -1.2], [np.pi / 3, 0.0], [-0.0, 2.5]])]
    for metric, points in metrics:
        for p in points:
            want = np.array(float_walk(metric.components, [float(c) for c in p]))
            got = metric.array_at(p)
            assert got.shape == want.shape == (metric.dim, metric.dim)
            assert_same(got, want)


@FRAME_CHARTS
def test_point_frame_matches_float_paths(spec):
    """A point alone is a pass of one lane; the functions of metric that
    take one point are the reference."""
    m = manifold_from_dict(spec)
    for p in m.grid_points():
        x = [float(c) for c in p]
        g = np.array(float_walk(m.metric.components, x))
        xi = np.array(float_walk(m.xi, x))
        gamma0 = christoffel(m.metric, p)
        if isinstance(m.difference, ConnectionDifferenceTensor):
            k = np.array(float_walk(m.difference.gamma_fields, x)) - gamma0
        else:
            k = float_walk(m.difference.fields, x)
        want = {"point": p, "g": g, "g_inv": inv_generic(g),
                "phi": float_walk(m.phi, x), "xi": xi,
                "eta": g @ xi if m.eta is None else float_walk(m.eta, x),
                "gamma0": gamma0, "K": k,
                "dg": m.metric.derivatives_at(p),
                "dphi": field_first_derivatives(m.phi, x),
                "dxi": field_first_derivatives(m.xi, x)}
        fr = m.frame_at(p)
        for name in FRAME_FIELDS:
            assert getattr(fr, name).shape == np.shape(want[name]), name
            assert_same(getattr(fr, name), want[name])


@FRAME_CHARTS
def test_point_curvature_matches_float_jets(spec):
    m = manifold_from_dict(spec)
    for p in m.grid_points():
        levi_civita = christoffel_jet(m.metric, p)
        k, dk = (a[0] for a in m.difference.jet(lane_coords([p]), christoffel_jet(
            m.metric, lane_coords([p]))))
        want = curv._statistical_parts(*levi_civita, k, dk)
        for got, ref in zip(curv.statistical_curvature(m, p), want):
            assert_same(got, ref)


# K is inf at x = 1, which fails the frame pass that the curvature pass
# reads; K is finite there but its derivative is not
NON_FINITE_PARTS = {"exp(400*x)*exp(400*x)": "K",
                    "1e-10*exp(709*x)": "statistical curvature"}


@pytest.mark.parametrize("k", NON_FINITE_PARTS)
def test_non_finite_jets_fail_the_parts_gate(k):
    m = manifold_from_dict(dict(LAMBDA_K, K={"z,z,z": k}))
    with pytest.raises(NonFiniteError, match=f"^{NON_FINITE_PARTS[k]} is not finite "
                                             r"at \[1\.0, -1\.0, -1\.0\]$") as info:
        curv.statistical_curvatures(m, m.grid_points())
    assert info.value.lane == [1.0, -1.0, -1.0]
    assert curv._curvature_parts not in m._kept_parts
    with pytest.raises(NonFiniteError, match=r"not finite at \[1.0, -1.0, -1.0\]$"):
        curv.statistical_curvature(m, [1.0, -1.0, -1.0])


FAILING = {
    # singular at x = 0 only
    "singular_lane": dict(LAMBDA_K, metric_lower=[["x^2"], ["0", "1"], ["0", "0", "1"]]),
    # log of a non-positive argument at x = 1
    "domain_error": dict(LAMBDA_K, phi=[["0", "-1", "0"], ["1", "0", "0"],
                                        ["0", "0", "0*log(0.5 - x)"]]),
    # inf at x = 1
    "non_finite_K": dict(LAMBDA_K, K={"z,z,z": "exp(400*x)*exp(400*x)"}),
}


def _first_failure(m, pts):
    for i, p in enumerate(pts):
        try:
            m.frame_at(p)
        except (ExpressionError, GeometryError) as exc:
            return i, type(exc), str(exc)
    return None


def _replayed_frames(m, pts):
    """The frame passes of ``pts`` under ``replay``, as a checked run
    over several points takes them."""
    return curv.replay(lambda points: m.frame_stack(points), list(pts))


@pytest.mark.parametrize("name", sorted(FAILING))
def test_frame_grid_caches_nothing_on_error(name):
    """A failing pass is not kept and raises the error of its first point
    that fails alone, which it names as its ``lane``; under ``replay`` the
    points before it pass, and theirs is the frame part kept."""
    m = manifold_from_dict(FAILING[name])
    pts = m.grid_points()
    alone = _first_failure(manifold_from_dict(FAILING[name]), pts)
    assert alone is not None and alone[0] > 0
    m.frame_stack(pts[:1])
    with pytest.raises(alone[1]) as info:
        m.frame_stack(pts)
    assert str(info.value) == alone[2] and info.value.lane == pts[alone[0]].tolist()
    assert str(info.value).endswith(f" at {pts[alone[0]].tolist()}")
    assert m._kept_parts == {}
    with pytest.raises(alone[1]) as info:
        _replayed_frames(m, pts)
    assert str(info.value) == alone[2]
    assert list(m._frame_cache) == list(map(tuple, pts[:alone[0]].tolist()))
    assert _first_failure(m, pts) == alone


def test_pass_error_surfaces_when_no_point_fails_alone(monkeypatch):
    """A pass that fails while each of its lanes passes alone raises its
    own error, on the grid, which names no point: ``replay`` raises it as
    it is, after one scan of the lanes."""
    m = manifold_from_dict(LAMBDA_K)
    fields = ChartManifold._fields
    passes = []

    def batch_fails(self, coords):
        passes.append(len(coords[0]))
        if len(coords[0]) > 1:
            raise GeometryError(f"batch of {len(coords[0])}")
        return fields(self, coords)
    monkeypatch.setattr(ChartManifold, "_fields", batch_fails)
    with pytest.raises(GeometryError, match="^batch of 9 on the grid$") as info:
        _replayed_frames(m, m.grid_points())
    assert not hasattr(info.value, "lane")
    assert passes == [9] + [1] * 9         # the 27 points take 9 lanes
    assert m._kept_parts == {}


def test_frame_arrays_are_read_only():
    m = manifold_from_dict(EXP_FRAME)
    pts = m.grid_points()
    stack = m.frame_stack(pts[:-1])
    curvatures = curv.statistical_curvatures(m, pts[:-1])
    # the frames from the pass and alone, the stack and the curvature stack
    for fr in (m.frame_at(pts[0]), m.frame_at(pts[-1]), stack):
        for name in FRAME_FIELDS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(fr, name)[...] = 0.0
    for part in curvatures:
        with pytest.raises(ValueError, match="read-only"):
            part[...] = 0.0


def test_every_kept_array_is_read_only():
    """The store freezes every array of each part it keeps, nabla^0 phi
    included: a caller's write raises and every later read keeps the bits."""
    m = get_entry("random", dim=5, seed=1, family="trivial-lambda").manifold
    pts = m.grid_points(2)
    want = is_cosymplectic(m, pts)
    cli.audit_report(m, pts, 1e-9, cli.CHECK_GROUPS)
    assert set(m._kept_parts) == {ChartManifold._frames, curv._curvature_parts, nabla0_phi,
                                  curv.plain_sweep}
    for part in m._kept_parts.values():
        for a in [part] if isinstance(part, np.ndarray) else part:
            assert not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        m.kept(nabla0_phi, pts)[0, 0, 0, 0] = 123.0
    assert is_cosymplectic(m, pts) == want and want[1] != 123.0


def test_full_request_after_a_replay_gets_the_grid_bits():
    """A replay over points of the kept grid reads their rows and leaves
    the grid's parts kept; the next request for the whole grid gets the
    grid pass's bits."""
    m = manifold_from_dict(LAMBDA_K)
    pts = m.grid_points()
    grid = [np.array(a) for a in m.frame_stack(pts) + curv.statistical_curvatures(m, pts)]

    def run(points):
        m.frame_stack(points)
        curv.statistical_curvatures(m, points)
        if any(p[0] == 1.0 for p in points):
            raise ValueError("fails at x = 1")
    with pytest.raises(ValueError):
        curv.replay(run, list(pts))
    assert [len(part.point) for part in m._kept_parts.values()] == [len(pts)] * 2
    again = m.frame_stack(pts) + curv.statistical_curvatures(m, pts)
    for got, want in zip(again, grid):
        assert_same(got, want)


def _bits(result):
    """A result as its shapes and bytes, sign bits included."""
    if isinstance(result, AuditReport):
        return result.to_json_lines()
    if isinstance(result, tuple):
        return tuple(map(_bits, result))
    a = np.asarray(result)
    return a.shape, a.dtype.str, a.tobytes()


def _one_point_functions(m, p):
    """The bits of every batched body on a stack of the one point ``p``, and
    of the one-point functions at ``p``."""
    fs = m.frame_stack([p])
    basis = phi_basis(fs.g, fs.phi, fs.xi)[0]
    d0_phi = m.kept(nabla0_phi, [p])
    return [_bits(r) for r in (
        AuditReport.from_columns(fs.point, validate_structure(m, fs, 1e-9)
                                 + validate_statistical(fs, 1e-9) + validate_acs(fs, 1e-9)),
        basis, lambda_of(fs, 1e-9), conjugate_connections(fs, 1e-9),
        is_cosymplectic(m, [p]), d0_phi, curv.lemma_5_6_residuals(fs, d0_phi),
        curv.geodesic_norms(fs), statistical_curvature(m, p),
        curv.phi_sectional_triples(m, [p], section=lambda fs: basis[:, :, 0]), m.frame_at(p))]


@pytest.mark.parametrize("name,params", [("example_flat_acs", {"n": 1}),
                                         ("random", {"dim": 5, "seed": 0,
                                                     "family": "trivial-lambda"})])
def test_one_point_functions_read_the_kept_grid(name, params, monkeypatch):
    """After a grid audit, the one-point functions at the grid's points (and
    at none) read the rows of the kept parts: no frame, curvature or
    nabla^0 phi pass runs, each result has the bits of a chart that runs
    them alone, and the grid's parts stay kept for the next audit."""
    m = get_entry(name, **params).manifold
    pts = m.grid_points(2)
    alone = get_entry(name, **params).manifold
    want = [_one_point_functions(alone, p) for p in pts]
    counts = Counter()

    def counted(key, fn):
        def call(*args):
            counts[key] += 1
            return fn(*args)
        return call
    monkeypatch.setattr(ChartManifold, "_frames", counted("frames", ChartManifold._frames))
    monkeypatch.setattr(curv, "_curvature_parts", counted("curvature", curv._curvature_parts))
    monkeypatch.setattr(contact, "covariant_derivative_11",
                        counted("nabla0_phi", contact.covariant_derivative_11))

    def passes(run):
        counts.clear()
        result = run()
        return [counts["frames"], counts["curvature"], counts["nabla0_phi"]], result

    def audit():
        return cli.audit_report(m, pts, 1e-9, cli.CHECK_GROUPS).to_json_lines()
    taken, first = passes(audit)
    assert taken == [1, 1, 1]
    taken, got = passes(lambda: ([_one_point_functions(m, p) for p in pts],
                                 is_cosymplectic(m, [])))
    assert taken == [0, 0, 0] and got == (want, (True, 0.0))
    assert m._kept_points.tobytes() == np.array(pts).tobytes()
    assert passes(audit) == ([0, 0, 0], first)


def test_points_match_by_the_bytes_of_their_coordinates():
    """-0.0 and 0.0 are different points: neither the request for the kept
    points nor a row of them serves one for the other, so a report names
    the coordinates it was asked for."""
    def chart():
        return get_entry("example_flat_acs", n=1).manifold
    minus = [-0.0, 0.0, 0.0]

    def structure(m):
        fs = m.frame_stack([minus])
        return AuditReport.from_columns(fs.point, validate_structure(m, fs, 1e-9)).to_json_lines()
    want = structure(chart())
    assert '"point": [-0.0, 0.0, 0.0]' in want
    for kept in ([[0.0, 0.0, 0.0]], chart().grid_points()):
        m = chart()
        m.frame_stack(kept)
        assert structure(m) == want
        assert np.signbit(m.frame_at(minus).point[0])


# ---------------------------------------------------------------------------
# the section sweep: the per-point loop it replaced is the reference


def ref_inner(fr, x, y):
    return float(np.asarray(x) @ fr.g @ np.asarray(y))


def ref_norm(fr, x):
    return float(np.sqrt(max(ref_inner(fr, x, x), 0.0)))


def ref_phi_basis(fr):
    """phi_basis as a loop over one point, seeded with the first coordinate
    vector that has a component in ker(eta)."""
    dim, n = fr.dim, (fr.dim - 1) // 2

    def project_out(v, span):
        for w in span:
            v = v - ref_inner(fr, v, w) * w
        return v

    for seed in np.eye(dim):
        h = project_out(seed, [fr.xi])
        if not ref_norm(fr, h) < 1e-10:
            break
    else:
        raise FrameError("no coordinate vector has a component in ker(eta)")
    built, pairs = [fr.xi], []
    for cand in [h] + [np.eye(dim)[i] for i in range(dim)]:
        if len(pairs) == n:
            break
        v = project_out(np.asarray(cand, dtype=float), built)
        nv = ref_norm(fr, v)
        if nv < 1e-8:
            continue
        e = v / nv
        fe = fr.phi @ e
        built.extend([e, fe])
        pairs.append((e, fe))
    if len(pairs) < n:
        raise FrameError("could not complete a phi-adapted frame")
    return np.column_stack([e for e, _ in pairs] + [fe for _, fe in pairs] + [fr.xi])


def ref_sweep_sections(fr, basis):
    n = (fr.dim - 1) // 2
    legs = [basis[:, i] for i in range(n)]
    out = list(legs)
    for i in range(n):
        for j in range(i + 1, n):
            out.append(legs[i] + legs[j])
        out.append(legs[i] + basis[:, n + i])
    return out


def ref_plane_q(g, x, y):
    return float((x @ g @ x) * (y @ g @ y) - (x @ g @ y) ** 2)


def ref_sectional(g, r, x, y):
    return float(x @ g @ (((r @ y) @ x) @ y)) / ref_plane_q(g, x, y)


def ref_k_phi(fr, x):
    """(status, eta, q, value, closed) of phi_sectional_k_curvature at X."""
    eta = float(fr.eta @ x)
    if abs(eta) > 1e-9:
        return curv.NOT_HORIZONTAL, eta, None, None, None
    if ref_norm(fr, x) <= 1e-10:
        return curv.NEGLIGIBLE, eta, None, None, None
    px = fr.phi @ x
    q = ref_plane_q(fr.g, x, px)
    if q <= 1e-12:
        return curv.DEGENERATE, eta, q, None, None
    with np.errstate(all="ignore"):     # the loop let an overflow pass as nan
        kz = fr.K @ px
        kk = (fr.K @ (kz @ px)) @ x - (fr.K @ (kz @ x)) @ px
        value = ref_inner(fr, kk, x) / q
        kxx = (fr.K @ x) @ x
        closed = -2.0 * ref_inner(fr, kxx, kxx) / ref_inner(fr, x, x) ** 2
    if not np.isfinite([value, closed]).all():
        return curv.NON_FINITE, eta, q, value, closed
    if abs(value - closed) > 1e-9 * max(1.0, abs(value), abs(closed)):
        return curv.MISMATCH, eta, q, value, closed
    return curv.OK, eta, q, value, closed


ROTATING5 = {   # phi turns with y1 in the (x1, x2) plane: the basis skips a candidate at y1 = 0 only
    "coordinates": ["x1", "y1", "x2", "y2", "z"], "grid": 3,
    "metric_lower": [["1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"],
                     ["0", "0", "0", "0", "1"]],
    "phi": [["0", "-1*cos(y1)", "0", "sin(y1)", "0"],
            ["cos(y1)", "0", "-1*sin(y1)", "0", "0"],
            ["0", "-1*sin(y1)", "0", "-1*cos(y1)", "0"],
            ["sin(y1)", "0", "cos(y1)", "0", "0"],
            ["0", "0", "0", "0", "0"]],
    "xi": ["0", "0", "0", "0", "1"], "K": {"z,z,z": "0.5 + 0.1*x1"},
}
CHARTS = {"lambda_k": LAMBDA_K, "pulled_back": PULLED_BACK, "exp_frame": EXP_FRAME,
          "rotating5": ROTATING5, "xi_dx": dict(
              LAMBDA_K, metric_lower=[["1"], ["0", "1"], ["0", "0", "1"]],
              phi=[["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]],
              xi=["1", "0", "0"], K={})}


def check_sweep_matches_loop(m, pts):
    """The sweep of the frame stack of ``pts``, whose bases and projections
    are per lane, against a loop over the frames of the points alone."""
    frames = [m.frame_at(p) for p in pts]      # a one-point pass each
    stack = m.frame_stack(pts)
    curvatures = curv.statistical_curvatures(m, pts)
    sweep = m.kept(curv.plain_sweep, pts)
    blocks = sweep.sections(stack.phi)
    k_s, k_0, status = sweep.with_curvatures(blocks, stack.g, curvatures)
    bases, errors = phi_basis(stack.g, stack.phi, stack.xi)
    horiz, keep_h = curv.horizontal_projections(stack)
    # the (X, phi X) of each point and section, read by plain indexing from
    # blocks of a row per lane
    xs, pxs = (np.concatenate([block[n][stack.lane] for block in blocks], axis=1)
               for n in (0, 1))
    for i, fr in enumerate(frames):
        basis = ref_phi_basis(fr)
        lane = stack.lane[i]
        assert errors[lane] is None and sweep.basis_error[lane] is None
        assert_same(bases[lane], basis)
        assert_same(sweep.basis[lane], basis)
        sections = ref_sweep_sections(fr, basis)
        assert sweep.value.shape[1] == len(sections)
        s, r0 = curv.statistical_curvature(m, fr.point)[:2]      # the point alone
        for j, x in enumerate(sections):
            assert_same(xs[i, j], x)
            px = fr.phi @ x
            assert_same(pxs[i, j], px)
            code, eta, q, value, closed = ref_k_phi(fr, x)
            assert status[lane, j] == code
            assert_same(sweep.eta[lane, j], eta)
            assert_same(sweep.q[lane, j], q)
            assert_same(sweep.value[lane, j], value)
            assert_same(sweep.closed[lane, j], closed)
            assert_same(k_s[lane, j], ref_sectional(fr.g, s, x, px))
            assert_same(k_0[lane, j], ref_sectional(fr.g, r0, x, px))
        ref_h = [v - float(fr.eta @ v) * fr.xi for v in curv.frame_vectors(fr.dim)]
        ref_h = np.array([h for h in ref_h if ref_norm(fr, h) > 1e-8])
        assert_same(horiz[lane][keep_h[lane]], ref_h)


def rotated(m, seed):
    """The constant structure of ``m`` turned by a random rotation R (R phi
    R^T, R xi, K rotated), so that its phi-basis legs are dense vectors."""
    fr = m.frame_at(np.zeros(m.dim))
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((m.dim, m.dim)))
    rot = q * np.sign(np.diag(r))
    k = np.einsum("ia,abc,jb,kc->ijk", rot, fr.K, rot, rot)
    c = m.coords
    return manifold_from_dict({
        "coordinates": list(c),
        "metric_lower": [["1" if i == j else "0" for j in range(i + 1)] for i in range(m.dim)],
        "phi": [[repr(float(v)) for v in row] for row in rot @ fr.phi @ rot.T],
        "xi": [repr(float(v)) for v in rot @ fr.xi],
        "K": {f"{c[i]},{c[j]},{c[l]}": repr(float(k[i, j, l]))
              for i, j, l in itertools.product(range(m.dim), repeat=3) if k[i, j, l]}})


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.integers(0, 10 ** 6),
       st.sampled_from(["trivial-lambda", "planar-block", "mixed"]), st.booleans())
def test_sweep_matches_loop_on_generated_structures(dim, seed, family, turn):
    m = generate_random_acs(dim, seed, family).manifold
    if turn:
        m = rotated(m, seed)
    pts = m.grid_points(2)[::max(1, 2 ** dim // 6)]
    check_sweep_matches_loop(m, pts)


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_sweep_matches_loop_on_charts(name):
    m = manifold_from_dict(CHARTS[name])
    pts = m.grid_points()
    check_sweep_matches_loop(m, pts)
    # some of the points read their rows of the kept parts, as phi_compat does
    check_sweep_matches_loop(m, pts[1::2])
    assert m._kept_points.tobytes() == pts.tobytes()


def test_phi_bases_report_the_loop_errors():
    # unit vectors of norm 1e-9 pass the seed test (1e-10) and fail the
    # candidate test (1e-8); at norm 1e-15 no coordinate vector is a seed
    g = np.eye(3)[None] * np.array([1.0, 1e-18, 1e-30])[:, None, None]
    phi = np.array([[[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]] * 3)
    xi = np.array([[0.0, 0.0, 1.0]] * 3)
    _, errors = phi_basis(g, phi, xi)
    assert errors[0] is None
    assert type(errors[1]) is ExhaustedCandidatesError
    assert type(errors[2]) is DegenerateSeedError


def test_a_basis_error_names_its_lanes_first_point():
    """The kept sweep's basis errors are per lane: ``check_bases`` raises the
    first of the rows it reads, in row order, as a copy naming the first
    point of its lane, and ``_k_phi`` reads the bases of its rows only."""
    point = np.arange(12.0).reshape(4, 3)
    zero = np.zeros((3, 2))
    errors = np.array([None, ExhaustedCandidatesError("exhausted"), DegenerateSeedError("seed")],
                      dtype=object)
    sweep = curv.SectionSweep(point, np.zeros((3, 3, 3)), errors, zero, zero, zero, zero,
                              np.full(zero.shape, curv.OK), np.array([0, 0, 1, 2]))
    with pytest.raises(ExhaustedCandidatesError, match="exhausted") as info:
        sweep.check_bases()
    assert info.value.lane == [6.0, 7.0, 8.0] and info.value is not errors[1]
    with pytest.raises(DegenerateSeedError) as info:
        curv._k_phi(sweep, np.array([0, 2]))
    assert info.value.lane == [9.0, 10.0, 11.0]
    assert curv._k_phi(sweep, np.array([0])).tolist() == [0.0]


def test_sweep_statuses_match_loop():
    """Every status of the kernel against the loop: a horizontal and a
    vertical section, the zero vector, a section too short for the Q
    threshold, an asymmetric K whose quotient misses the closed form, and
    a K whose bracket overflows."""
    flat = dict(LAMBDA_K, metric_lower=[["1"], ["0", "1"], ["0", "0", "1"]])
    specs = [dict(flat, K={"x,x,y": "0.5"}), dict(flat, K={"x,x,x": "1e200"}), flat]
    frames = [manifold_from_dict(spec).frame_at(np.zeros(3)) for spec in specs]
    xs = np.array([[1.0, 2.0, 0.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1e-7, 0.0, 0.0]])
    sweep = curv.section_sweep(FrameStack.of(frames), [np.array([xs] * 3)])
    seen = set()
    for i, fr in enumerate(frames):
        for j, x in enumerate(xs):
            code = ref_k_phi(fr, x)[0]
            assert sweep.status[i, j] == code
            seen.add(code)
            error = sweep.error(i, j)
            try:
                curv.phi_sectional_k_curvature(fr, x)
            except Exception as exc:       # the one-pair sweep raises the same
                assert (type(exc), str(exc)) == (type(error), str(error))
            else:
                assert error is None
    assert seen == {curv.OK, curv.NOT_HORIZONTAL, curv.NEGLIGIBLE, curv.DEGENERATE,
                    curv.NON_FINITE, curv.MISMATCH}
    plane = sweep.error(2, 3, plane=True)
    assert type(plane) is DegeneratePlaneError and str(plane).startswith("Q(X,Y) = ")
