"""Command line front-end: exit codes, JSON-lines schema, section handling,
and the export/import round trip."""

import json
import logging

import pytest

from acsgeo.cli import main


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
    # that overflows to inf without an error, and sin/cos of an infinite
    # argument (in g, and in K) on the grid
    for entry, k in (("x +", {}), ("1 + x^-2", {}), ("1 + exp(1000*x)", {}),
                     ("1 + exp(400*x)*exp(400*x)", {}),
                     ("2 + sin(1e200*1e200*x)", {}),
                     ("1", {"z,z,z": "cos(1e200*1e200*x)"})):
        spec = {
            "coordinates": ["x", "y", "z"],
            "metric_lower": [[entry], ["0", "1"], ["0", "0", "1"]],
            "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
            "xi": ["0", "0", "1"],
            "K": k,
        }
        path = tmp_path / "syntax.json"
        path.write_text(json.dumps(spec))
        for verb in ("validate", "audit"):
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
    code, _, _ = run(capsys, "audit", "zoo:nonexistent")
    assert code == 2
    code, _, _ = run(capsys, "validate", "zoo:random:family=bogus")
    assert code == 2


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
    path = tmp_path / "r3.json"
    code, out, _ = run(capsys, "export-zoo", "zoo:example_r3_negative",
                       "-o", str(path))
    assert code == 0 and path.exists()

    code_a, out_a, _ = run(capsys, "audit", "zoo:example_r3_negative",
                           "--format", "json")
    code_b, out_b, _ = run(capsys, "audit", str(path), "--format", "json")
    assert code_a == code_b == 0
    recs_a, recs_b = json_records(out_a), json_records(out_b)
    assert len(recs_a) == len(recs_b)
    for a, b in zip(recs_a, recs_b):
        assert a["check"] == b["check"]
        assert a["pass"] == b["pass"]
        assert a["point"] == pytest.approx(b["point"], abs=1e-15)
        assert a["residual"] == pytest.approx(b["residual"], abs=1e-12)
        assert ("value" in a) == ("value" in b)
        if "value" in a:
            assert a["value"] == pytest.approx(b["value"], abs=1e-12)


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


def _logged(caplog, capsys, *argv):
    caplog.clear()
    code, out, _ = run(capsys, *argv)
    return code, out, [r.getMessage() for r in caplog.records if r.name == "acsgeo"]


def test_grid_pass_logs_at_info(capsys, caplog, tmp_path):
    quiet = run(capsys, "audit", "zoo:example_r3_negative", "--grid", "2")
    caplog.set_level(logging.INFO, logger="acsgeo")
    code, out, lines = _logged(caplog, capsys, "audit", "zoo:example_r3_negative",
                               "--grid", "2")
    assert (code, out) == quiet[:2]        # logging never touches stdout
    assert len(lines) == 1 and lines[0].startswith("curvature grid pass: 8 points in ")

    spec = {
        "coordinates": ["x", "y", "z"], "grid": 3,
        "metric_lower": [["x + 1 + 0*log(0.5 - x)"], ["0", "1"], ["0", "0", "1"]],
        "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
        "xi": ["0", "0", "1"], "K": {},
    }
    path = tmp_path / "two_failures.json"
    path.write_text(json.dumps(spec))
    code, _, lines = _logged(caplog, capsys, "curvature", str(path))
    assert code == 1
    assert lines == ["curvature grid pass: fallback to per-point: "
                     "log of non-positive argument -0.5"]
