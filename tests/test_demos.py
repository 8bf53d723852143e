"""The demos call the sweep API directly (phi_sectional_triples,
theorem_5_8_audit, psi_check, sweep_sections, ...): each must run to the
end, without a warning, and print exactly its pinned output (sha256 of
stdout)."""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEMOS = {
    "builtin_structures_audit":
        "47d7ca3e6b902854b901debd37561bcc3e21ea020de4781767950d37f79e496f",
    "expression_autodiff_walkthrough":
        "7b47af3adfa941868b9e5efa634c53ae6aee38a6daa7110943547ae3bd8a2121",
    "random_structure_gallery":
        "27e97a969d13d887c0140cb22571bc30a4da836a587a118412a0a265c4761df3",
    "sphere_curvature":
        "794baac84b0bb47c1d88742a21142603752bc894a17868421cb61cae3ac9d940",
}


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_output(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("ACSM_LOG", None)
    run = subprocess.run([sys.executable, "-W", "error", os.path.join(ROOT, "demos", f"{name}.py")],
                         capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == DEMOS[name]
