"""The names the benchmark's tracer binds are the code a CLI run calls: run
in-process under ``bench/tracer.Tracer``, the per-layer metrics of the
batched checks read above 0 on the verbs that run them."""

import contextlib
import io
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))

from acsgeo import cli  # noqa: E402

import tracer  # noqa: E402

REF = "zoo:random:dim=5,seed=1,family=trivial-lambda"
VALIDATE = ("contact.validate_structure_s", "statistical.validate_s")
AUDIT = VALIDATE + ("contact.nabla0_phi_s", "statistical.lambda_of_calls",
                    "contact.phi_basis_calls", "curvature.phi_compat_s",
                    "curvature.thm_5_8_s", "curvature.psi_s")
CURVATURE = ("contact.phi_basis_calls", "statistical.lambda_of_calls")


def traced(argv):
    """The exit code and per-layer metrics of one traced run of ``argv``."""
    tr = tracer.Tracer()
    tr.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = tr.run_op(argv, lambda: cli.main(argv))
    finally:
        tr.uninstall()
    return code, tr.metrics()


@pytest.mark.parametrize("verb,names", [("audit", AUDIT), ("validate", VALIDATE),
                                        ("curvature", CURVATURE)])
def test_traced_names_run(verb, names):
    code, metrics = traced([verb, REF, "--grid", "2", "--format", "json"])
    assert code == 0
    assert {name: metrics[name][0] for name in names if not metrics[name][0] > 0} == {}
