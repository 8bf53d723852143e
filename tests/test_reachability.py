"""Every function of src/acsgeo either runs in some CLI run or has a stated
reason to exist: ``reachability.py --check`` against ``never_called.txt``."""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_never_called_functions_match_the_allowlist():
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
    env.pop("ACSM_LOG", None)
    run = subprocess.run([sys.executable, os.path.join(HERE, "reachability.py"), "--check"],
                         capture_output=True, text=True, env=env, timeout=600)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
