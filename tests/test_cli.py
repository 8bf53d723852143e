"""Command line front-end: exit codes, JSON-lines schema, section handling,
and the export/import round trip."""

import contextlib
import io
import json
import logging
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from acsgeo import contact, curvature, get_entry, manifold
from acsgeo.cli import main
from acsgeo.expressions import MAX_DEPTH, ExpressionError, parse_expression
from acsgeo.metric import GeometryError
from acsgeo.specfile import manifold_from_dict, manifold_to_dict
from acsgeo.zoo import _flat_spec

from test_invariance import WARPED

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_records(out):
    recs = [json.loads(line) for line in out.strip().splitlines() if line]
    for r in recs:
        assert set(r) >= {"check", "point", "residual", "pass"}
        assert isinstance(r["pass"], bool)
    return recs


def test_list_zoo(capsys):
    code, out, _ = run(capsys, "list-zoo")
    assert code == 0
    assert {"example_flat_acs", "example_r3_negative", "random"} <= \
        set(out.split())


def test_validate_r3_json(capsys):
    code, out, _ = run(capsys, "validate", "zoo:example_r3_negative",
                       "--format", "json")
    assert code == 0
    recs = json_records(out)
    assert recs and all(r["pass"] for r in recs)
    assert max(abs(r["residual"]) for r in recs) <= 1e-9


def test_validate_broken_structure_exits_one(capsys, tmp_path):
    spec = {
        "coordinates": ["x", "y", "z"],
        "metric_lower": [["1"], ["0", "1"], ["0", "0", "1"]],
        "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
        "xi": ["0", "0", "2"],          # eta(xi) = 4 != 1
        "K": {},
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "validate", str(path), "--format", "json")
    assert code == 1
    failing = {r["check"] for r in json_records(out) if not r["pass"]}
    assert "eta_of_xi" in failing


def test_malformed_expression_exits_two(capsys, tmp_path):
    # a syntax error, a negative power of zero, an exp overflow, an entry
    # that overflows to inf without an error, sin/cos of an infinite
    # argument (in g, and in K) on the grid, and a finite K whose products
    # K K overflow in the curvature (validate never forms them)
    for entry, k, verbs in (("x +", {}, ("validate", "audit")),
                            ("1 + x^-2", {}, ("validate", "audit")),
                            ("1 + exp(1000*x)", {}, ("validate", "audit")),
                            ("1 + exp(400*x)*exp(400*x)", {}, ("validate", "audit")),
                            ("2 + sin(1e200*1e200*x)", {}, ("validate", "audit")),
                            ("1", {"z,z,z": "cos(1e200*1e200*x)"}, ("validate", "audit")),
                            ("1", {"z,z,z": "exp(300*x)*exp(300*x)"},
                             ("curvature", "audit"))):
        spec = {
            "coordinates": ["x", "y", "z"],
            "metric_lower": [[entry], ["0", "1"], ["0", "0", "1"]],
            "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
            "xi": ["0", "0", "1"],
            "K": k,
        }
        path = tmp_path / "syntax.json"
        path.write_text(json.dumps(spec))
        for verb in verbs:
            code, out, err = run(capsys, verb, str(path))
            assert code == 2, (verb, entry, k)
            assert "position" in err or "expected" in err or "error" in err
            assert "NaN" not in out and "Traceback" not in err


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "validate", "/no/such/spec.json")
    assert code == 2


def test_invalid_json_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, "validate", str(path))
    assert code == 2


def test_both_k_and_connection_exits_two(capsys, tmp_path):
    spec = {
        "coordinates": ["x", "y", "z"],
        "metric_lower": [["1"], ["0", "1"], ["0", "0", "1"]],
        "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
        "xi": ["0", "0", "1"],
        "K": {}, "connection": {},
    }
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(spec))
    code, _, _ = run(capsys, "validate", str(path))
    assert code == 2


def test_curvature_sweep_flat(capsys):
    code, out, _ = run(capsys, "curvature", "zoo:example_flat_acs:n=1",
                       "--format", "json")
    assert code == 0
    recs = json_records(out)
    k_phi = [r["value"] for r in recs if r["check"] == "curvature/k_phi"]
    lam = [r["value"] for r in recs if r["check"] == "curvature/lambda"]
    assert k_phi and max(abs(v) for v in k_phi) <= 1e-9
    assert lam and all(abs(v - 1.0) <= 1e-12 for v in lam)
    gaps = [r["value"] for r in recs
            if r["check"].startswith("curvature/constancy_gap")]
    assert gaps and max(gaps) <= 1e-9


def test_curvature_sweep_r3(capsys):
    code, out, _ = run(capsys, "curvature", "zoo:example_r3_negative",
                       "--format", "json")
    assert code == 0
    recs = json_records(out)
    k_phi = [r["value"] for r in recs if r["check"] == "curvature/k_phi"]
    assert k_phi and max(abs(v + 1.0) for v in k_phi) <= 1e-9


def test_curvature_xi_section_exits_two(capsys):
    code, _, err = run(capsys, "curvature", "zoo:example_r3_negative",
                       "--section", "0,0,1")
    assert code == 2


def test_curvature_wrong_section_arity_exits_two(capsys):
    code, _, _ = run(capsys, "curvature", "zoo:example_r3_negative",
                     "--section", "1,0")
    assert code == 2


def test_malformed_zoo_ref_exits_two(capsys):
    code, _, err = run(capsys, "audit", "zoo:nonexistent")
    assert code == 2
    assert err == ("error: unknown zoo entry 'nonexistent'; available: "
                   "['example_flat_acs', 'example_r3_negative', 'random']\n")
    code, _, _ = run(capsys, "validate", "zoo:random:family=bogus")
    assert code == 2


@pytest.mark.parametrize("ref", ["zoo:random:dim=3,dim=5", "zoo:random:seed=1, dim=5 ,dim=5",
                                 "zoo:example_flat_acs:n=1,n=1"])
def test_duplicate_zoo_parameter_exits_two(capsys, ref):
    code, out, err = run(capsys, "validate", ref)
    key = ref.rsplit(",", 1)[1].split("=")[0].strip()
    assert (code, out, err) == (2, "", f"error: duplicate zoo parameter {key!r}\n")


def test_audit_table_format(capsys):
    code, out, _ = run(capsys, "audit", "zoo:example_r3_negative",
                       "--grid", "2", "--checks", "thm_5_8,geodesic")
    assert code == 0
    assert "thm_5_8/unanimity" in out
    assert "pass" in out


def test_audit_checks_selection(capsys):
    code, out, _ = run(capsys, "audit", "zoo:example_flat_acs:n=1",
                       "--grid", "2", "--checks", "geodesic",
                       "--format", "json")
    assert code == 0
    recs = json_records(out)
    assert {r["check"] for r in recs} == {"geodesic/nabla0_xi_xi",
                                          "geodesic/nabla_xi_xi"}


def test_export_import_round_trip(capsys, tmp_path):
    """Every verb writes the same bytes for a zoo entry and for the spec
    file it exports: both are the chart of one spec."""
    refs = ["zoo:example_flat_acs", "zoo:example_r3_negative"] + [
        f"zoo:random:dim={dim},family={family}" for dim in (3, 7)
        for family in ("trivial-lambda", "planar-block", "mixed")]
    for ref in refs:
        path = tmp_path / "entry.json"
        code, out, _ = run(capsys, "export-zoo", ref, "-o", str(path))
        assert code == 0 and path.exists()
        for verb in ("validate", "curvature", "audit"):
            code_a, out_a, _ = run(capsys, verb, ref, "--format", "json")
            code_b, out_b, _ = run(capsys, verb, str(path), "--format", "json")
            assert code_a == code_b == 0 and json_records(out_a), (ref, verb)
            assert out_a == out_b, (ref, verb)


def test_export_stdout_is_valid_spec(capsys):
    code, out, _ = run(capsys, "export-zoo", "example_flat_acs")
    assert code == 0
    data = json.loads(out)
    from acsgeo import manifold_from_dict
    m = manifold_from_dict(data)
    assert m.dim == 3


def test_seventeen_digit_output(capsys):
    """Residual formatting keeps full double precision in table output."""
    from acsgeo.report import fmt
    x = 1.0 / 3.0
    assert float(fmt(x)) == x
    assert fmt(-1.0) == "-1"


# the pass lines of the two stores: a frame pass at debug level, a
# curvature pass at info level
PASS_LINES = {("acsgeo.manifold", logging.DEBUG), ("acsgeo.curvature", logging.INFO)}
TWO_FAILURES = {
    "coordinates": ["x", "y", "z"], "grid": 3,
    "metric_lower": [["x + 1 + 0*log(0.5 - x)"], ["0", "1"], ["0", "0", "1"]],
    "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
    "xi": ["0", "0", "1"], "K": {},
}


def _logged(caplog, capsys, *argv):
    caplog.clear()
    code, out, _ = run(capsys, *argv)
    return code, out, [r.getMessage() for r in caplog.records
                       if (r.name, r.levelno) in PASS_LINES]


def test_grid_pass_logs_at_info(capsys, caplog, tmp_path):
    quiet = run(capsys, "audit", "zoo:example_r3_negative", "--grid", "2")
    caplog.set_level(logging.INFO, logger="acsgeo")
    code, out, lines = _logged(caplog, capsys, "audit", "zoo:example_r3_negative",
                               "--grid", "2")
    assert (code, out) == quiet[:2]        # logging never touches stdout
    assert len(lines) == 1 and lines[0].startswith("curvature grid pass: 8 points on 1 lanes in ")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), ACSM_LOG="info")
    proc = subprocess.run([sys.executable, "-m", "acsgeo.cli", "audit", "zoo:example_r3_negative",
                           "--grid", "2"], capture_output=True, text=True, env=env, timeout=120)
    lines = [line for line in proc.stderr.splitlines() if "grid pass" in line]
    assert proc.returncode == 0 and len(lines) == 1
    assert lines[0].startswith(
        "INFO:acsgeo.curvature:curvature grid pass: 8 points on 1 lanes in ")

    # K K overflows from x = 1 on: the pass fails at its first point with
    # x = 1, and the replay's pass over the 18 points before it passes
    spec = dict(TWO_FAILURES, metric_lower=[["1"], ["0", "1"], ["0", "0", "1"]],
                K={"z,z,z": "1e-10*exp(709*x)"})
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(spec))
    code, _, lines = _logged(caplog, capsys, "curvature", str(path))
    assert code == 2
    assert lines[0] == "curvature grid pass: failed: statistical curvature is not finite " \
                       "at [1.0, -1.0, -1.0]"
    assert len(lines) == 2 and lines[1].startswith("curvature grid pass: 18 points on 2 lanes in ")
    assert all(re.fullmatch(
        r"curvature grid pass: (\d+ points on \d+ lanes in \d+\.\d{3} s|failed: .*)", line)
        for line in lines)


def test_frame_pass_logs_at_debug(capsys, caplog, tmp_path):
    quiet = run(capsys, "validate", "zoo:example_r3_negative", "--grid", "2")
    caplog.set_level(logging.DEBUG, logger="acsgeo")
    code, out, lines = _logged(caplog, capsys, "validate", "zoo:example_r3_negative",
                               "--grid", "2")
    assert (code, out) == quiet[:2]
    assert len(lines) == 1 and lines[0].startswith("frame grid pass: 8 points on 1 lanes in ")

    code, _, lines = _logged(caplog, capsys, "audit", "zoo:example_r3_negative",
                             "--grid", "2")
    assert code == 0
    assert [line.split(":")[0] for line in lines] == ["frame grid pass",
                                                      "curvature grid pass"]

    # the grid pass meets the log at x = 1 first; its lane of x = -1, the
    # first, is singular alone, and names the first point: no replay
    path = tmp_path / "two_failures.json"
    path.write_text(json.dumps(TWO_FAILURES))
    code, _, lines = _logged(caplog, capsys, "validate", str(path))
    assert code == 1
    assert lines == ["frame grid pass: failed: matrix is numerically singular "
                     "at [-1.0, -1.0, -1.0]"]


TRIVIAL3 = "zoo:random:dim=3,seed=1,family=trivial-lambda"     # phi-compatible at every point


FLAT2 = "zoo:example_flat_acs:n=2"


@pytest.mark.parametrize("argv, passes", [
    (["validate", TRIVIAL3], (1, 0, 0, 0, 1, 0)), (["curvature", TRIVIAL3], (1, 1, 0, 1, 1, 2)),
    (["audit", TRIVIAL3], (1, 1, 1, 1, 1, 2)),
    (["audit", TRIVIAL3, "--checks", "structure"], (1, 0, 0, 0, 1, 0)),
    (["audit", TRIVIAL3, "--checks", "cosymplectic,lemma_5_6,phi_compat"], (1, 0, 1, 1, 1, 1)),
    (["audit", FLAT2], (1, 1, 1, 1, 1, 2)),
    (["audit", TRIVIAL3, "--checks", "psi"], (1, 0, 1, 1, 1, 1)),
    # no point is phi-compatible: no sweep reads a phi-basis
    (["audit", "zoo:example_r3_negative", "--checks", "phi_compat"], (1, 0, 1, 0, 1, 0)),
    (["audit", FLAT2, "--checks", "phi_compat,psi"], (1, 0, 1, 1, 1, 1)),
    (["audit", FLAT2, "--checks", "psi"], (1, 0, 1, 1, 1, 1)),
    (["curvature", FLAT2], (1, 1, 0, 1, 1, 2))])
def test_one_pass_per_store(monkeypatch, capsys, argv, passes):
    """A passing run evaluates its frames and finds their lanes once, and
    its curvature, nabla^0 phi and phi-bases at most once, however many
    checks read them.  The plain section blocks are built by the plain
    sweep and by each sweep whose sectional curvatures are read, and by no
    other."""
    counts = {"frames": 0, "curvature": 0, "nabla0_phi": 0, "phi_basis": 0, "lanes": 0,
              "plain_blocks": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(manifold.ChartManifold, "_frames",
                        counted("frames", manifold.ChartManifold._frames))
    monkeypatch.setattr(curvature, "_curvature_parts",
                        counted("curvature", curvature._curvature_parts))
    # contact calls covariant_derivative_11 in the nabla^0 phi pass only
    monkeypatch.setattr(contact, "covariant_derivative_11",
                        counted("nabla0_phi", contact.covariant_derivative_11))
    monkeypatch.setattr(curvature, "phi_basis", counted("phi_basis", curvature.phi_basis))
    monkeypatch.setattr(manifold.ChartManifold, "lanes",
                        counted("lanes", manifold.ChartManifold.lanes))
    monkeypatch.setattr(curvature, "_plain_blocks",
                        counted("plain_blocks", curvature._plain_blocks))
    code, out, _ = run(capsys, *argv, "--grid", "2", "--format", "json")
    assert code == 0 and out
    assert tuple(counts.values()) == passes


def test_a_replayed_run_finds_each_point_sets_lanes_once(monkeypatch, capsys, tmp_path):
    """A failing audit whose replay reruns the points before its failing
    one finds the lanes of each point set it passes once: the frame pass finds them, and the
    curvature pass and the row reads take them from it."""
    spec = dict(TWO_FAILURES, metric_lower=[["1"], ["0", "1"], ["0", "0", "1"]],
                K={"z,z,z": "1e-10*exp(709*(x + 1))"})
    path = tmp_path / "replayed.json"
    path.write_text(json.dumps(spec))
    point_sets = []
    lanes = manifold.ChartManifold.lanes

    def recorded(self, pts):
        point_sets.append(pts.tobytes())
        return lanes(self, pts)
    monkeypatch.setattr(manifold.ChartManifold, "lanes", recorded)
    assert run(capsys, "audit", str(path), "--checks", "thm_5_8") == (
        2, "", "error: statistical curvature is not finite at [0.0, -1.0, -1.0]\n")
    assert len(point_sets) > 2 and len(set(point_sets)) == len(point_sets)


def test_a_later_group_keeps_the_first_error(capsys, tmp_path):
    """The selected groups run in ``CHECK_GROUPS`` order, so a group that
    reads nabla^0 phi does not move thm_5_8's first error (the curvature at
    x = 0) to its own (K overflows at x = 1)."""
    spec = dict(TWO_FAILURES, metric_lower=[["1"], ["0", "1"], ["0", "0", "1"]],
                K={"z,z,z": "1e-10*exp(709*(x + 1))"})
    path = tmp_path / "order.json"
    path.write_text(json.dumps(spec))
    curvature_first = (2, "", "error: statistical curvature is not finite at [0.0, -1.0, -1.0]\n")
    for checks in ("thm_5_8", "thm_5_8,lemma_5_6", "thm_5_8,psi"):
        assert run(capsys, "audit", str(path), "--checks", checks) == curvature_first
    assert run(capsys, "audit", str(path), "--checks", "lemma_5_6") == (
        2, "", "error: exp(1418.0) overflows at [1.0, -1.0, -1.0]\n")


def test_singular_metric_names_its_point(capsys, tmp_path):
    spec = dict(TWO_FAILURES, metric_lower=[["x + 1"], ["0", "1"], ["0", "0", "1"]])
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(spec))
    for verb in ("validate", "curvature", "audit"):
        assert run(capsys, verb, str(path)) == (
            1, "", "audit failure: matrix is numerically singular at [-1.0, -1.0, -1.0]\n")


def test_grid_below_one_exits_two(capsys, tmp_path):
    spec = {
        "coordinates": ["x", "y", "z"], "grid": 0,
        "metric_lower": [["1"], ["0", "1"], ["0", "0", "1"]],
        "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
        "xi": ["0", "0", "1"], "K": {},
    }
    path = tmp_path / "grid0.json"
    path.write_text(json.dumps(spec))
    cases = [(["zoo:example_r3_negative", "--grid", "0"], 0),
             (["zoo:example_r3_negative", "--grid", "-1"], -1),
             ([str(path)], 0)]
    for verb in ("validate", "audit", "curvature"):
        for argv, k in cases:
            code, out, err = run(capsys, verb, *argv)
            assert (code, out) == (2, ""), (verb, argv)
            assert err == f"error: grid must be at least 1 point per coordinate, got {k}\n"


def test_bad_seed_and_tol_exit_two(capsys):
    """A negative seed and a NaN, infinite or negative tolerance are input
    errors on every verb that samples points."""
    tol = "tol must be finite and non-negative, got"
    cases = [(["--seed", "-1"], "seed must be non-negative, got -1"),
             (["--tol", "nan"], f"{tol} nan"), (["--tol", "inf"], f"{tol} inf"),
             (["--tol=-inf"], f"{tol} -inf"), (["--tol", "-1"], f"{tol} -1.0"),
             (["--tol=-1e-300"], f"{tol} -1e-300")]
    for verb in ("validate", "audit", "curvature"):
        for argv, message in cases:
            assert run(capsys, verb, "zoo:example_flat_acs", *argv) == (
                2, "", f"error: {message}\n"), (verb, argv)
        assert run(capsys, verb, "zoo:example_flat_acs", "--tol", "0", "--seed", "0")[0] == 0


def test_no_verb_draws(capsys, tmp_path, monkeypatch):
    """audit and curvature print the same bytes whatever --seed, and no
    random generator is made: the certificate of each lane stands in for
    random sections.  The generated structure is read from its exported
    spec, since the zoo seeds a generator to build it."""
    refs = ["zoo:example_r3_negative"]
    for name, spec in (("mixed5", manifold_to_dict(get_entry(
            "random", dim=5, seed=1, family="mixed").manifold)), ("warped", WARPED)):
        refs.append(str(tmp_path / f"{name}.json"))
        with open(refs[-1], "w") as fh:
            json.dump(spec, fh)

    def no_draws(*args, **kwargs):
        raise AssertionError("a verb made a random generator")
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for ref in refs:
        for verb in ("audit", "curvature"):
            outs = {run(capsys, verb, ref, "--grid", "2", "--format", "json", "--seed", seed)
                    for seed in ("0", "1", "7")}
            assert len(outs) == 1 and next(iter(outs))[0] == 0, (verb, ref)


@pytest.mark.parametrize("verb", ["validate", "audit", "curvature"])
@pytest.mark.parametrize("value, shown", [("-1e-5", "-1e-05"), ("-inf", "-inf"),
                                          ("-2.5E+3", "-2500.0")])
def test_negative_tol_is_one_error_line_in_either_spelling(capsys, verb, value, shown):
    """A negative tolerance in exponent form or -inf, given as a separate
    word or after '=', ends in the tolerance check's one line, not in
    argparse's usage block."""
    for argv in (["--tol", value], [f"--tol={value}"]):
        assert run(capsys, verb, "zoo:example_flat_acs", *argv) == (
            2, "", f"error: tol must be finite and non-negative, got {shown}\n"), argv


def test_failure_messages_print_plain_floats(capsys, tmp_path):
    spec = {
        "coordinates": ["x", "y", "z"], "grid": 2,
        "metric_lower": [["1"], ["0", "1"], ["0", "0", "1"]],
        "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
        "xi": ["0", "0", "1"], "K": {"x,z,z": "1"},
    }
    path = tmp_path / "inadmissible_k.json"
    path.write_text(json.dumps(spec))
    for verb in ("audit", "curvature"):
        assert run(capsys, verb, str(path), "--format", "json") == (
            1, "", "audit failure: K(X, xi) = lambda eta(X) xi fails with residual "
                   "1.0 at [-1.0, -1.0, -1.0]\n")


XI_DX = {   # xi = d/dx: the first coordinate vector has no horizontal component
    "coordinates": ["x", "y", "z"],
    "metric_lower": [["1"], ["0", "1"], ["0", "0", "1"]],
    "phi": [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]],
    "xi": ["1", "0", "0"], "K": {},
}


def test_xi_along_first_coordinate_runs_every_verb(capsys, tmp_path):
    path = tmp_path / "xi_dx.json"
    path.write_text(json.dumps(XI_DX))
    for verb in ("validate", "curvature", "audit"):
        code, out, err = run(capsys, verb, str(path), "--format", "json")
        assert (code, err) == (0, ""), verb
        assert json_records(out)


def test_frame_error_exits_one(capsys, tmp_path):
    # g = diag(2^-56, 2^-56, 2^80) and the unit xi = 2^-40 d/dz: every
    # horizontal coordinate vector has norm 2^-28, enough to seed the
    # phi-basis (1e-10) and too short to join it (1e-8), so no phi-adapted
    # frame exists
    tiny, big = repr(2.0 ** -56), repr(2.0 ** 80)
    spec = dict(XI_DX, metric_lower=[[tiny], ["0", tiny], ["0", "0", big]],
                phi=[["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
                xi=["0", "0", repr(2.0 ** -40)])
    path = tmp_path / "tiny_metric.json"
    path.write_text(json.dumps(spec))
    for argv in (["curvature"], ["audit", "--checks", "thm_5_8"]):
        code, _, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, err) == (1, "audit failure: could not complete a phi-adapted "
                                  "frame; structure is degenerate\n"), argv


def test_section_sweep_logs_at_debug(capsys, caplog):
    """One line per kernel call and per plain-sweep pass: the plain sections
    (a leg and its phi-mixture) of the one lane, kept for every check that
    reads them, so a full audit sweeps nothing else; and a --section run."""
    def sweeps(*argv):
        caplog.clear()
        code, out, _ = run(capsys, *argv)
        return code, out, [r.getMessage() for r in caplog.records
                           if (r.name, r.levelno) == ("acsgeo.curvature", logging.DEBUG)]

    quiet = run(capsys, "audit", "zoo:example_flat_acs:n=1", "--grid", "2")
    caplog.set_level(logging.DEBUG, logger="acsgeo")
    code, out, lines = sweeps("audit", "zoo:example_flat_acs:n=1", "--grid", "2")
    assert (code, out) == quiet[:2]
    plain = ["section sweep: 1 rows, 2 sections", "plain sweep grid pass: 8 points on 1 lanes"]
    assert [line.split(" in ")[0] for line in lines] == plain
    assert all(line.endswith(" s") for line in lines)
    _, _, lines = sweeps("curvature", "zoo:example_r3_negative", "--grid", "2",
                         "--section", "1,2,0")
    assert [line.split(" in ")[0] for line in lines] == ["section sweep: 8 rows, 1 sections"]
    # Psi alone: the plain sweep the verdict kept serves it
    _, _, lines = sweeps("audit", "zoo:example_flat_acs:n=1", "--grid", "2", "--checks", "psi")
    assert [line.split(" in ")[0] for line in lines] == plain


def test_render_logs_at_debug(capsys, caplog):
    """One line per run on acsgeo.report: the records, the distinct points
    (the point-free constancy gaps not counted) and the render time."""
    def rendered(*argv):
        caplog.clear()
        code, out, _ = run(capsys, *argv)
        return code, out, [r.getMessage() for r in caplog.records
                           if r.name == "acsgeo.report"]

    argv = ("zoo:example_flat_acs:n=1", "--grid", "2")
    quiet = run(capsys, "audit", *argv, "--format", "json")
    assert rendered("audit", *argv)[2] == []          # nothing at warning level
    caplog.set_level(logging.DEBUG, logger="acsgeo")
    code, out, lines = rendered("audit", *argv, "--format", "json")
    assert (code, out) == quiet[:2]
    assert len(lines) == 1
    assert re.fullmatch(rf"report: {len(json_records(out))} records at 8 points "
                        r"rendered in \d+\.\d{3} s", lines[0])
    for verb in ("validate", "curvature", "audit"):
        code, out, lines = rendered(verb, *argv)
        assert code == 0 and len(lines) == 1
        assert re.fullmatch(r"report: \d+ records at 8 points rendered in \d+\.\d{3} s",
                            lines[0]), lines


def test_capped_grid_logs_its_counts_at_info(capsys, caplog):
    """A grid the cap cuts says so at info level, with its nominal and kept
    counts; stdout is the same with the log on, and an uncut grid logs
    nothing."""
    def logged(*argv):
        caplog.clear()
        code, out, _ = run(capsys, *argv)
        return code, out, [r.getMessage() for r in caplog.records if r.name == "acsgeo.cli"]

    capped = ("validate", "zoo:example_flat_acs:n=3", "--grid", "3", "--format", "json")
    quiet = logged(*capped)
    assert quiet[0] == 0 and quiet[2] == []         # nothing at warning level
    caplog.set_level(logging.INFO, logger="acsgeo")
    code, out, lines = logged(*capped)
    assert (code, out) == quiet[:2]
    assert lines == ["sample grid: 243 of 2187 points kept (grid cap 243)"]
    code, _, lines = logged("validate", "zoo:example_flat_acs", "--grid", "1000000000000")
    assert code == 0 and lines == [f"sample grid: 243 of {10 ** 36} points kept (grid cap 243)"]
    assert logged("validate", "zoo:example_flat_acs:n=2", "--grid", "3")[2] == []   # 3^5 = 243


def test_closed_stdout_pipe_is_not_an_error():
    """A reader that stops after one line (``| head -1``) is not an input
    error: the verb exits with its own code and stderr stays empty.  The
    output (about 1.4 MB) is far above a pipe buffer."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("ACSM_LOG", None)
    proc = subprocess.Popen([sys.executable, "-m", "acsgeo.cli", "audit",
                             "zoo:example_flat_acs:n=2", "--format", "json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""
    assert json.loads(first)["check"] == "phi_squared"


def test_section_is_parsed_once(capsys, monkeypatch):
    import acsgeo.cli as cli
    calls = []

    def counting(text, coords):
        calls.append(text)
        return parse(text, coords)

    parse = cli.parse_expression
    monkeypatch.setattr(cli, "parse_expression", counting)
    code, _, _ = run(capsys, "curvature", "zoo:example_r3_negative", "--grid", "2",
                     "--section", "1,y,0")
    assert code == 0 and calls == ["1", "y", "0"]


@pytest.mark.parametrize("checks", ["thm58", ",", "", "thm_5_8,bogus"])
def test_unknown_check_group_exits_two(capsys, checks):
    for verb in ("validate", "audit"):
        code, out, err = run(capsys, verb, "zoo:example_r3_negative", "--grid", "2",
                             "--checks", checks)
        assert (code, out) == (2, ""), verb
        assert err.startswith("error: unknown check group "), verb
        assert err.endswith("; valid groups: structure, statistical, acs, cosymplectic, "
                            "thm_5_8, phi_compat, lemma_5_6, geodesic, prop_5_2, "
                            "duality, psi\n")


def test_psi_alone_decides_phi_compatibility(capsys):
    flat = ("zoo:example_flat_acs:n=1", "--grid", "2", "--format", "json")
    code, out, _ = run(capsys, "audit", *flat, "--checks", "psi")
    both = json_records(run(capsys, "audit", *flat, "--checks", "phi_compat,psi")[1])
    assert code == 0
    recs = json_records(out)
    assert recs and recs == [r for r in both if r["check"].startswith("psi/")]
    # not phi-compatible: no Psi records, as with phi_compat,psi
    code, out, _ = run(capsys, "audit", "zoo:example_r3_negative", "--grid", "2",
                       "--checks", "psi")
    assert code == 0 and out.splitlines()[1:] == []


STRUCTURE_CHECKS = ["phi_squared", "eta_of_xi", "phi_of_xi", "eta_after_phi", "phi_rank",
                    "metric_compatibility", "xi_unit", "eta_is_g_xi", "phi_g_antisymmetric"]


def test_validate_runs_the_selected_groups(capsys):
    flat = ("zoo:example_flat_acs:n=1", "--grid", "2", "--format", "json")
    full = json_records(run(capsys, "validate", *flat)[1])
    code, out, _ = run(capsys, "validate", *flat, "--checks", "structure")
    recs = json_records(out)
    assert code == 0 and [r["check"] for r in recs] == STRUCTURE_CHECKS * 8
    # per point, in the order of a full run
    code, out, _ = run(capsys, "validate", *flat, "--checks", "acs,structure")
    assert code == 0 and json_records(out) == [
        r for r in full if r["check"] in STRUCTURE_CHECKS or r["check"].startswith("acs_")]
    assert json_records(run(capsys, "validate", *flat, "--checks",
                            "structure,statistical,acs")[1]) == full


VALIDATE_INPUTS = [f"zoo:random:dim={dim},seed=1,family={family}" for dim in (3, 5)
                   for family in ("trivial-lambda", "planar-block", "mixed")]
VALIDATE_SPECS = {
    "warped": WARPED,
    # eta(xi) = 4: failing records
    "long_xi": {"coordinates": ["x", "y", "z"], "grid": 2,
                "metric_lower": [["1"], ["0", "1"], ["0", "0", "1"]],
                "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
                "xi": ["0", "0", "2"], "K": {}},
    # g11 = x + 1 vanishes at x = -1: an audit failure that names its point
    "singular": {"coordinates": ["x", "y", "z"], "grid": 3,
                 "metric_lower": [["x + 1"], ["0", "1"], ["0", "0", "1"]],
                 "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
                 "xi": ["0", "0", "1"], "K": {}}}


@pytest.mark.parametrize("ref", VALIDATE_INPUTS + [f"@{name}" for name in VALIDATE_SPECS])
def test_validate_is_the_audit_of_its_groups(capsys, tmp_path, ref):
    """``validate REF [--checks G]`` prints the bytes and exits with the code
    of ``audit REF --checks G``, where G is the three axiom groups when
    ``--checks`` is not given, in either format."""
    failing = ref in ("@long_xi", "@singular")
    if ref.startswith("@"):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(VALIDATE_SPECS[ref[1:]]))
        ref = str(path)
    codes = set()
    for fmt in ("json", "table"):
        for given, groups in ((None, "structure,statistical,acs"), ("structure", "structure"),
                              ("acs,statistical", "acs,statistical")):
            argv = (ref, "--grid", "2", "--format", fmt)
            validate = run(capsys, "validate", *argv, *(["--checks", given] if given else []))
            assert validate == run(capsys, "audit", *argv, "--checks", groups), (fmt, given)
            codes.add(validate[0])
    assert codes <= {0, 1} and (1 in codes) == failing


@pytest.mark.parametrize("checks", ["cosymplectic", "structure,thm_5_8"])
def test_validate_rejects_audit_groups(capsys, checks):
    code, out, err = run(capsys, "validate", "zoo:example_flat_acs:n=1", "--grid", "2",
                         "--checks", checks)
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown check group ")
    assert err.endswith("; valid groups: structure, statistical, acs\n")


def test_indefinite_metric_exits_one(capsys, tmp_path):
    path = tmp_path / "indefinite.json"
    path.write_text(json.dumps(dict(XI_DX, metric_lower=[["-1"], ["0", "-1"], ["0", "0", "1"]],
                                    phi=[["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
                                    xi=["0", "0", "1"])))
    for verb in ("validate", "curvature", "audit"):
        code, out, err = run(capsys, verb, str(path))
        assert (code, out) == (1, ""), verb
        assert err == "audit failure: metric is not positive definite at [-1.0, -1.0, -1.0]\n"


@pytest.mark.parametrize("value", ["basic_format", "verbose", ""])
def test_unknown_log_level_exits_two(capsys, monkeypatch, value):
    monkeypatch.setenv("ACSM_LOG", value)
    code, out, err = run(capsys, "validate", "zoo:example_r3_negative", "--grid", "2")
    assert (code, out) == (2, "")
    assert err == ("error: ACSM_LOG must be one of debug, info, warning, error, "
                   f"critical, got {value!r}\n")


@pytest.mark.parametrize("value", ["debug", "INFO", "Warning", "error", "critical"])
def test_log_levels_are_accepted(capsys, monkeypatch, value):
    monkeypatch.setenv("ACSM_LOG", value)
    assert run(capsys, "validate", "zoo:example_r3_negative", "--grid", "2")[0] == 0


LEVEL_CALLS = """
import contextlib, io, logging, os, sys
from acsgeo.cli import main
counts = []
for level in sys.argv[1:]:
    os.environ["ACSM_LOG"] = level
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        main(["audit", "zoo:example_r3_negative", "--grid", "2"])
    counts.append(sum("grid pass" in line for line in err.getvalue().splitlines()))
print(counts, len(logging.getLogger().handlers))
"""


def test_each_call_logs_at_its_own_level():
    """``ACSM_LOG`` applies to each call of ``main`` in one process, and a
    call's pass lines go to the stderr it runs with.  In a subprocess: the
    root logger starts with no handler there, as it does outside pytest."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    levels = ["warning", "debug", "debug", "info", "warning", "debug"]
    proc = subprocess.run([sys.executable, "-c", LEVEL_CALLS, *levels], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # a frame, a curvature and a plain-sweep pass at debug level, the
    # curvature pass at info
    assert proc.stdout == "[0, 3, 3, 1, 0, 3] 1\n"



def test_non_finite_derivatives_exit_two(capsys, tmp_path):
    """g stays finite at x = 1 while d g overflows: every verb stops at the
    frame gate and names the field and the point."""
    f = "1 + exp(709*x)"
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(dict(XI_DX, metric_lower=[[f], ["0", f], ["0", "0", "1"]],
                                    phi=[["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
                                    xi=["0", "0", "1"])))
    for verb in ("validate", "curvature", "audit"):
        code, out, err = run(capsys, verb, str(path))
        assert (code, out) == (2, ""), verb
        assert err == "error: metric derivative is not finite at [1.0, -1.0, -1.0]\n"


@pytest.mark.parametrize("ref, valid", [
    ("zoo:random:dim=5,sed=3", "dim, seed, family"),
    ("zoo:random:dim=3,famly=mixed", "dim, seed, family"),
    ("zoo:example_r3_negative:n=4", "none"),
    ("zoo:example_flat_acs:m=2", "n")])
def test_unknown_zoo_parameter_exits_two(capsys, ref, valid):
    code, out, err = run(capsys, "validate", ref)
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown parameter ")
    assert err.endswith(f"; valid keys: {valid}\n")


def test_short_random_section_is_not_kept(capsys, tmp_path):
    """A random section with |X| just above 1e-6 (Q(X, phi X) = 1.8e-14) is
    dropped like a shorter one, not failed by the sweep kernel."""
    f = "1 + 0.501545214639704*(x^2 + y^2)"
    path = tmp_path / "warped.json"
    path.write_text(json.dumps(dict(XI_DX, grid=5, K={},
                                    metric_lower=[[f], ["0", f], ["0", "0", "1"]],
                                    phi=[["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
                                    xi=["0", "0", "1"])))
    code, _, err = run(capsys, "audit", str(path), "--seed", "676207198", "--format", "json")
    assert (code, err) == (0, "")


def test_overflowing_residuals_are_failing_records(capsys, tmp_path):
    """K of 1e308 overflows the nabla g residuals: validate reports failing
    records and audit stops at the non-finite curvature, with no numpy
    warning on either."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(FLAT_BLOCK, K={"z,z,z": "1", "x,z,x": "1e308"})))
    code, out, err = run(capsys, "validate", str(path), "--format", "json")
    assert (code, err) == (1, "")
    assert not all(r["pass"] for r in json_records(out))
    assert run(capsys, "audit", str(path))[::2] == (
        2, "error: statistical curvature is not finite at [-1.0, -1.0, -1.0]\n")


# ---------------------------------------------------------------------------
# malformed spec fields end in exit 2, never in a traceback

FLAT_BLOCK = {
    "coordinates": ["x", "y", "z"], "grid": 2,
    "metric_lower": [["1"], ["0", "1"], ["0", "0", "1"]],
    "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
    "xi": ["0", "0", "1"], "K": {"z,z,z": "1"},
}


def _run_quiet(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _exits_two_everywhere(spec):
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        for verb in ("validate", "curvature", "audit"):
            code, out, err = _run_quiet(verb, path)
            assert (code, out) == (2, ""), (verb, err)
            assert err.startswith("error: ") and err.count("\n") == 1, (verb, err)


_UNPARSED = [["sin("], ["0", "1"], ["0", "0", "1"]]
_PARSE_ERROR = "expected a number, identifier or '(' (at position {})"


@pytest.mark.parametrize("fields, message", [
    ({"metric_lower": _UNPARSED}, "metric_lower[0][0]: " + _PARSE_ERROR.format(4)),
    ({"K": {"x, y,z": "1 +"}}, "K['x, y,z']: " + _PARSE_ERROR.format(3)),
    ({"K": None, "connection": {"z,x,y": "q"}},
     "connection['z,x,y']: unknown identifier 'q' (at position 0)"),
    ({"phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "x y"]]},
     "phi[2][2]: unexpected token 'y' (at position 2)"),
    ({"xi": ["0", "0", ")"]}, "xi[2]: " + _PARSE_ERROR.format(0)),
    ({"eta": ["0", "0", "1 +"]}, "eta[2]: " + _PARSE_ERROR.format(3)),
    # every field is checked before an expression is parsed
    ({"metric_lower": _UNPARSED, "phi": None}, "phi must be a list of 3 entries"),
    ({"metric_lower": _UNPARSED, "eta": ["0"]}, "eta must be a list of 3 entries"),
    ({"metric_lower": _UNPARSED, "K": {"x,y": "1"}}, "tensor key 'x,y' must have three indices"),
    ({"metric_lower": _UNPARSED, "connection": {}},
     "exactly one of 'K' and 'connection' must be present"),
    # a field that is not part of the spec format
    ({"gird": 5}, "spec has unknown field 'gird'; valid fields: name, dimension, coordinates, "
                  "box, grid, metric_lower, phi, xi, eta, K, connection"),
    ({"Eta": ["0", "0", "1"], "metric_lower": _UNPARSED},
     "spec has unknown field 'Eta'; valid fields: name, dimension, coordinates, box, grid, "
     "metric_lower, phi, xi, eta, K, connection")],
    ids=["metric entry", "K entry", "connection entry", "phi entry", "xi entry", "eta entry",
         "phi shape first", "eta shape first", "K key first", "K and connection first",
         "unknown field", "unknown field first"])
def test_spec_errors_name_their_field_or_entry(tmp_path, fields, message):
    """A spec expression that does not parse names its entry, a K or
    connection entry by its key as the spec writes it; the type, shape and
    key checks of every field come before any expression is parsed; and a
    field that is not part of the spec format exits 2."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(FLAT_BLOCK, **fields)))
    for verb in ("validate", "curvature", "audit"):
        assert _run_quiet(verb, str(path)) == (2, "", f"error: {message}\n"), verb


@pytest.mark.parametrize("field, value", [
    ("phi", None), ("grid", "a"), ("xi", ["1"]), ("connection", "x"),
    ("box", [[-1, 1, 2]] * 3), ("metric_lower", [[]])])
def test_malformed_field_exits_two(field, value):
    spec = dict(FLAT_BLOCK, **{field: value})
    if field == "connection":
        del spec["K"]
    _exits_two_everywhere(spec)


def _run_bounded(argv, memory=1536 << 20, seconds=60):
    """``acsgeo argv`` in a child process limited to ``memory`` bytes of
    address space and ``seconds`` of wall time, so that an input whose cost
    is unbounded fails the test instead of exhausting the host."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("ACSM_LOG", None)
    return subprocess.run(
        [sys.executable, "-m", "acsgeo.cli", *argv], capture_output=True, text=True, env=env,
        timeout=seconds, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (memory,) * 2))


@pytest.mark.parametrize("argv, message", [
    (["validate", "zoo:random:dim=9999"], "dimension must be at most 15, got 9999"),
    (["audit", "zoo:example_flat_acs:n=5000"], "n must be at most 7, got 5000"),
    (["validate", "x^1000000000"], "integer exponent beyond 64 in magnitude (at position 8)"),
    (["validate", "x^" + "9" * 5000], "integer exponent beyond 64 in magnitude (at position 8)"),
    (["validate", "grid"], "Exceeds the limit (4300 digits) for integer string conversion"),
    (["validate", "K:" + "(" * 3000 + "x" + ")" * 3000],
     "expression nested deeper than 100 (at position 100)"),
    (["validate", "K:" + "-" * 3000 + "x"], "expression nested deeper than 100 (at position 100)"),
    (["validate", "K:" + "+".join(["x"] * 20000)],
     "expression nested deeper than 100 (at position 201)"),
    (["curvature", "zoo:example_r3_negative", "--section", "(" * 3000 + "1" + ")" * 3000 + ",0,0"],
     "expression nested deeper than 100 (at position 100)"),
    (["validate", "phi"], "maximum recursion depth exceeded"),
    (["audit", "coordinates:101"], "dimension must be at most 15, got 101"),
], ids=["dim 9999", "n 5000", "exponent 1e9", "exponent of 5000 digits", "grid of 5000 digits",
        "3000 parentheses", "3000 unary minuses", "20000-term sum", "3000 parentheses in a section",
        "phi of 100000 nested lists", "spec of 101 coordinates"])
def test_unbounded_inputs_exit_two(tmp_path, argv, message):
    """A zoo or spec dimension, an integer exponent, a spec integer, an
    expression's nesting or a spec's JSON nesting whose cost has no bound is rejected
    before any work scales with it (or a walk recurses past the recursion
    limit): exit 2 with one line on stderr, no traceback."""
    verb, what, *options = argv
    if not what.startswith("zoo:"):
        path = tmp_path / "spec.json"
        if what == "grid":
            path.write_text(json.dumps(FLAT_BLOCK).replace('"grid": 2', '"grid": ' + "9" * 5000))
        elif what == "phi":
            path.write_text(json.dumps(dict(FLAT_BLOCK, phi=None)).replace(
                "null", "[" * 100000 + "]" * 100000))
        elif what.startswith("K:"):
            path.write_text(json.dumps(dict(FLAT_BLOCK, K={"z,z,z": what[2:]})))
        elif what.startswith("coordinates:"):
            n = (int(what[12:]) - 1) // 2
            path.write_text(json.dumps(dict(_flat_spec("flat", n), K={})))
        else:
            metric = [["1 + 0*" + what], ["0", "1"], ["0", "0", "1"]]
            path.write_text(json.dumps(dict(FLAT_BLOCK, metric_lower=metric)))
        what = str(path)
    proc = _run_bounded([verb, what, *options])
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr[-2000:]
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr[-2000:]
    assert message in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("text", [
    "(" * MAX_DEPTH + "+".join(["z"] * (MAX_DEPTH + 1)) + ")" * MAX_DEPTH,
    "-" * MAX_DEPTH + "z", "sin(" * MAX_DEPTH + "z" + ")" * MAX_DEPTH],
    ids=["parentheses around a sum", "unary minuses", "calls"])
def test_expression_at_the_depth_bound_runs_every_verb(tmp_path, text):
    """A K entry nested MAX_DEPTH deep is evaluated by every verb in-process,
    within the default recursion limit."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(FLAT_BLOCK, K={"z,z,z": text})))
    for verb in ("validate", "curvature", "audit"):
        code, out, err = _run_quiet(verb, str(path), "--format", "json")
        assert code in (0, 1) and out and "Recursion" not in err, err


NOT_LIST = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
                     st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
NOT_SCALAR = st.one_of(st.none(), st.booleans(), st.lists(st.integers(), max_size=2),
                       st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
                       st.sampled_from([float("nan"), float("inf"), -float("inf"), 10 ** 400]))


def _valid(shape):
    return "0" if not shape else [_valid(shape[1:]) for _ in range(shape[0])]


def _wrong(shape):
    """Values that are not nested lists of ``shape`` with expression-string
    or number entries: not a list, a list of another length, or one entry
    of the wrong type or shape."""
    if not shape:
        return NOT_SCALAR
    n = shape[0]
    return st.one_of(
        NOT_LIST,
        st.integers(0, 5).filter(lambda k: k != n).map(lambda k: [_valid(shape[1:])] * k),
        st.tuples(st.integers(0, n - 1), _wrong(shape[1:])).map(
            lambda bad: [bad[1] if i == bad[0] else _valid(shape[1:]) for i in range(n)]))


WRONG_FIELDS = st.one_of(
    st.tuples(st.just("coordinates"), st.one_of(
        NOT_LIST, st.tuples(st.integers(0, 2), NOT_SCALAR | st.integers()).map(
            lambda bad: [bad[1] if i == bad[0] else c for i, c in enumerate("xyz")]))),
    st.tuples(st.just("metric_lower"), st.one_of(
        NOT_LIST,
        st.integers(0, 5).filter(lambda k: k != 3).map(lambda k: [["1"]] * k),
        st.integers(0, 2).flatmap(lambda i: _wrong((i + 1,)).map(
            lambda row: [row if j == i else ["0"] * j + ["1"] for j in range(3)])))),
    st.tuples(st.just("phi"), _wrong((3, 3))),
    st.tuples(st.just("xi"), _wrong((3,))),
    st.tuples(st.just("eta"), _wrong((3,)).filter(lambda v: v is not None)),
    st.tuples(st.just("K"), st.one_of(
        NOT_LIST.filter(lambda v: not isinstance(v, dict)), st.lists(st.integers(), max_size=2),
        NOT_SCALAR.map(lambda v: {"z,z,z": v}))),
    st.tuples(st.just("connection"), st.one_of(
        NOT_LIST.filter(lambda v: v is not None and not isinstance(v, dict)),
        st.lists(st.integers(), max_size=2), NOT_SCALAR.map(lambda v: {"z,z,z": v}))),
    st.tuples(st.just("grid"), st.one_of(
        st.none(), st.booleans(), st.floats(), st.text(max_size=3), st.lists(st.integers(), max_size=2))),
    st.tuples(st.just("box"), st.one_of(
        NOT_LIST.filter(lambda v: v is not None),
        st.integers(0, 5).filter(lambda k: k != 3).map(lambda k: [[-1, 1]] * k),
        st.tuples(st.integers(0, 2), st.one_of(
            NOT_LIST, st.lists(st.floats(), max_size=4).filter(lambda v: len(v) != 2),
            NOT_SCALAR.map(lambda v: [v, 1]), st.text(max_size=2).map(lambda v: [-1, v]))).map(
            lambda bad: [bad[1] if i == bad[0] else [-1, 1] for i in range(3)]))))

EXPRESSION_TEXT = st.one_of(
    st.text(alphabet="xyz0123456789.+-*/^() eE,", max_size=30),
    st.lists(st.sampled_from(["x", "y", "z", "1", "2.5", "1e3", "e", ".", "+", "-", "*", "/",
                              "^", "(", ")", " ", "sin", "cos", "exp", "log", "sqrt", ","]),
             max_size=25).map("".join))


@settings(max_examples=150, deadline=None)
@given(field_value=WRONG_FIELDS, text=EXPRESSION_TEXT)
def test_wrong_field_types_and_shapes_exit_two(field_value, text):
    """One field of a valid spec replaced by a value of the wrong type or
    shape: every verb exits 2 with one ``error:`` line.  And
    ``parse_expression`` on any text of its alphabet returns or raises
    ExpressionError."""
    field, value = field_value
    spec = dict(FLAT_BLOCK, **{field: value})
    if field == "connection":
        del spec["K"]
    _exits_two_everywhere(spec)
    try:
        parse_expression(text, ["x", "y", "z"])
    except ExpressionError:
        pass


SPEC_FIELDS = ("name", "dimension", "coordinates", "box", "grid", "metric_lower", "phi", "xi",
               "eta", "K", "connection")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["x", "y", "z", "1", "x*y", "z,z,z"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.text(max_size=4) | st.sampled_from(["z,z,z", "x,y,z"]), inner, max_size=3),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(values=st.dictionaries(st.sampled_from(SPEC_FIELDS), JSON_VALUES, max_size=4),
       missing=st.sets(st.sampled_from(SPEC_FIELDS), max_size=2),
       extra=st.dictionaries(st.text(max_size=5).filter(lambda k: k not in SPEC_FIELDS),
                             JSON_VALUES, max_size=2),
       verb=st.sampled_from(["validate", "curvature", "audit"]))
def test_any_spec_structure_ends_in_a_documented_outcome(values, missing, extra, verb):
    """Any JSON value in any field of a valid spec, with fields missing and
    unknown fields added: the run exits 0, 1 or 2 with at most one line on
    stderr and no traceback."""
    spec = {k: v for k, v in dict(FLAT_BLOCK, **values).items() if k not in missing}
    spec.update(extra)
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        code, _, err = _run_quiet(verb, path)
    assert code in (0, 1, 2) and err.count("\n") <= 1 and "Traceback" not in err, err


@pytest.mark.parametrize("name", ["K", "{}", "{0}", "{x}", "{", "}"])
@pytest.mark.parametrize("where", ["top", "K"])
def test_a_repeated_name_exits_two_with_one_line(name, where):
    """A name repeated in one JSON object, braces and all, is named in the
    one-line exit-2 message."""
    body = json.dumps(dict(FLAT_BLOCK, K={}))[1:-1]
    pair = json.dumps(name) + ': "1"'
    text = ("{" + body + ", " + pair + ", " + pair + "}" if where == "top" else
            "{" + body.replace('"K": {}', '"K": {' + pair + ", " + pair + "}") + "}")
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "spec.json")
        with open(path, "w") as fh:
            fh.write(text)
        for verb in ("validate", "curvature", "audit"):
            assert _run_quiet(verb, path) == (
                2, "", f"error: spec object repeats the name {name!r}\n")


# ---------------------------------------------------------------------------
# specs valid in shape whose expressions fail on part of the grid end in one
# message, the one a per-point loop meets first, from O(log P) frame passes

FAILING_VERBS = (["validate"], ["curvature"], ["audit"], ["audit", "--checks", "thm_5_8"],
                 ["audit", "--checks", "psi"], ["audit", "--checks", "cosymplectic"])


def _failing_on_part(kind, a, c, grid):
    """A flat structure with K = 0 on the box [-1, 2]^3 whose one entry fails
    where s = a . (x, y, z) reaches c: the log of c - s in g (a domain error
    where s >= c), exp(709 (s - c)) in phi (an overflow of the value or of
    its derivative where s - c >= 1), or g_zz = (c - s)^2 (a singular metric
    where s = c)."""
    s = " + ".join(f"{ai}*{v}" for ai, v in zip(a, "xyz"))
    g_zz, phi_zz = "1", "0"
    if kind == "domain":
        g_zz = f"1 + 0*log({c} - ({s}))"
    elif kind == "overflow":
        phi_zz = f"0*exp(709*({s} - {c}))"
    else:
        g_zz = f"({c} - ({s}))^2"
    return dict(FLAT_BLOCK, grid=grid, box=[[-1, 2]] * 3, K={},
                metric_lower=[["1"], ["0", "1"], ["0", "0", g_zz]],
                phi=[["0", "-1", "0"], ["1", "0", "0"], ["0", "0", phi_zz]])


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["domain", "overflow", "singular"]),
       a=st.tuples(*[st.sampled_from([-1, 0, 1])] * 3).filter(any),
       c=st.sampled_from([-2.5, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.5]),
       grid=st.integers(1, 3))
def test_expressions_failing_on_part_of_the_grid(kind, a, c, grid):
    spec = _failing_on_part(kind, a, c, grid)
    fresh = manifold_from_dict(spec)
    points = fresh.grid_points()
    expected = None
    for p in points:
        try:
            fresh.frame_at(p)
        except (ExpressionError, GeometryError) as exc:
            expected = (2, f"error: {exc}\n") if isinstance(exc, ExpressionError) \
                else (1, f"audit failure: {exc}\n")
            break
    assume(expected is not None)
    bound = math.ceil(math.log2(len(points))) + 2
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        for verb in FAILING_VERBS:
            with mock.patch.object(manifold.ChartManifold, "_frames", autospec=True,
                                   side_effect=manifold.ChartManifold._frames) as frames:
                code, out, err = _run_quiet(verb[0], path, *verb[1:])
            assert (code, out, err) == (expected[0], "", expected[1]), verb
            assert frames.call_count <= bound, verb
