"""acsgeo benchmark: one workload, closed loop, one client.

    python3 bench/run.py --workload zoo-audit --seed 1 --seconds 20 --trace 0

Each run starts fresh worker processes (``worker.py``) with numpy's thread
pools pinned to one thread.  Set-up (interpreter start, ``import acsgeo``
and generating the inputs) is measured in several processes and reported
as the median.  The last line of stdout is one JSON object; with
``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-layer ones.  Workloads are defined in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 5          # set-up samples per run, the measured worker included
TIME_LIMIT = 170.0      # seconds for the whole run, set-up samples included


def spawn(args, extra, deadline):
    """Run a worker; returns (parsed last stdout line, monotonic start)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - started, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT

    try:
        setups, host = [], []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                host.append(hostspeed.sample())
                out, started = spawn(args, ["--setup-only"], deadline)
                setups.append(out["ready_at"] - started)
        host.append(hostspeed.sample())
        result, started = spawn(args, [], deadline)
        setups.append(result["ready_at"] - started)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        slow = hostspeed.slowdown(host)
        metrics["setup_s"] = [statistics.median(setups) / slow, "s"]
        result["raw"]["setup_s"] = statistics.median(setups)
        print(f"# host slowdown vs nominal: {result['host_slowdown']:.3f} in the run, "
              f"{slow:.3f} in set-up; raw: " + ", ".join(
                  f"{k}={v:.6g}" for k, v in sorted(result["raw"].items())))
    for p in result["problems"]:
        print(f"FAILED op {' '.join(p['argv'])}: {p['problems']} {p['stderr']}")
    print(f"# {args.workload} seed={args.seed}: {result['attempted']} ops in "
          f"{result['rounds']} rounds of {result['ops_per_round']}"
          + (f"; op_s_tail is p{result['tail_percentile']}" if not args.trace else ""))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:<44} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
