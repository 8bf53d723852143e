"""Checks of the benchmark itself: the oracle is not vacuous, the tracer
sees every binding and its spans add up, and the output matches
BENCHMARK.json.  Run with ``python3 -m pytest bench -q``."""

import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import acsgeo  # noqa: E402
from acsgeo import cli  # noqa: E402

import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import (WORKLOADS, check_audit, check_warped_curvature,  # noqa: E402
                       negative_controls, _warped_spec)


def _run(argv, tr=None):
    code, _, out, _ = worker.run_op(cli, argv, tr)
    return code, [json.loads(line) for line in out.splitlines() if line]


def _measure(rounds, trace=0):
    args = argparse.Namespace(workload="curved-audit", seconds=0.0, trace=trace)
    return worker.measure(cli, args, rounds)


def test_negative_controls_count_as_failed(tmp_path):
    controls = negative_controls(str(tmp_path))
    code, records = _run(controls[0].argv)
    assert code == 1
    assert controls[0].check(code, records)
    result = _measure([controls] * 5)
    assert result["attempted"] == result["failed"] > 0
    assert result["metrics"]["passed_op_ratio"][0] == 0.0


def test_correct_expectation_passes():
    expected = acsgeo.get_entry("example_r3_negative").expected
    code, records = _run(["audit", "zoo:example_r3_negative", "--grid", "2",
                          "--format", "json"])
    assert check_audit(code, records, expected) == []
    for key, wrong in (("thm_5_8_branch", "all-true"), ("k_phi", 0.0),
                       ("phi_compatible", True), ("cosymplectic", False)):
        assert check_audit(code, records, dict(expected, **{key: wrong}))


def test_warped_curvature_oracle(tmp_path):
    path = tmp_path / "warped.json"
    path.write_text(json.dumps(_warped_spec("w", 0.3, 0.25, 2, True)))
    code, records = _run(["curvature", str(path), "--format", "json"])
    assert check_warped_curvature(code, records, 0.3, 0.25) == []
    assert check_warped_curvature(code, records, 0.31, 0.25)
    assert check_warped_curvature(code, records, 0.3, 0.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rounds_repeat_one_mix_with_fresh_inputs(name, tmp_path):
    rounds = WORKLOADS[name](7, str(tmp_path)).rounds()   # raises on a repeat
    assert len({tuple(op.kind for op in r) for r in rounds}) == 1


def test_tracer_rebinds_every_binding():
    originals = {"curvature.riemann": acsgeo.curvature.riemann,
                 "riemann": acsgeo.riemann,
                 "contact.covariant_derivative_11": acsgeo.contact.covariant_derivative_11,
                 "statistical.nabla_g": acsgeo.statistical.nabla_g,
                 "cli.load_spec": acsgeo.cli.load_spec}
    tr = tracer.Tracer()
    tr.install()
    try:
        for name, orig in originals.items():
            mod = acsgeo
            for part in name.split(".")[:-1]:
                mod = getattr(mod, part)
            assert getattr(mod, name.split(".")[-1]) is not orig, name
        code, records = _run(["audit", "zoo:example_flat_acs:n=1", "--grid", "2",
                              "--format", "json"], tr)
    finally:
        tr.uninstall()
    for name, orig in originals.items():
        mod = acsgeo
        for part in name.split(".")[:-1]:
            mod = getattr(mod, part)
        assert getattr(mod, name.split(".")[-1]) is orig, name
    assert code == 0
    assert check_audit(code, records, acsgeo.get_entry("example_flat_acs").expected) == []
    m = tr.metrics()
    assert m["report.records"][0] == len(records)
    assert m["metric.riemann_s"][0] > 0
    assert m["manifold.frame_misses"][0] == 8


def test_accounting_catches_a_leaking_span():
    good = [["op", 0, 100, -1], ["a", 10, 40, 0], ["b", 20, 30, 1], ["c", 50, 90, 0]]
    tracer.check_accounting(good)
    for bad in ([["op", 0, 100, -1], ["a", 10, 40, 0], ["b", 30, 60, 0]],   # overlap
                [["op", 0, 100, -1], ["a", 10, 40, 0], ["b", 20, 50, 1]],   # leaks
                [["op", 0, 100, -1], ["a", 10, 0, 0]]):                      # open
        with pytest.raises(tracer.AccountingError):
            tracer.check_accounting(bad)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "validate-batch",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = bench["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "zoo-audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
