"""Record the benchmark baseline of the current code in bench/baseline.json.

    python3 bench/baseline.py [--seed 0] [--seconds 20]

Prints every end-to-end metric, with its unit, for each workload (and the
traced per-layer metrics), and records with them: the machine, the latency
of the inputs that carry acceptance runtime budgets, the effective point
count of every op kind of one round, and the negative controls' outcome.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
from acsgeo import cli  # noqa: E402
from worker import run_op  # noqa: E402
from workloads import WORKLOADS, distinct_points, negative_controls  # noqa: E402

BUDGET_INPUTS = ("zoo:example_r3_negative", "zoo:example_flat_acs:n=1",
                 "zoo:example_flat_acs:n=2")
REPEATS = 5             # runs of each budget input


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__}


def budget_latencies(repeats):
    """Median of ``repeats`` runs of `audit` on each budget input, raw and
    rescaled to the nominal host speed as the benchmark's time metrics are."""
    out = {}
    for ref in BUDGET_INPUTS:
        argv = ["audit", ref, "--format", "json"]
        times, host = [], []
        for _ in range(repeats):
            host.append(hostspeed.sample())
            code, dt, text, _ = run_op(cli, argv)
            if code != 0:
                raise RuntimeError(f"{argv} exited with {code}")
            times.append(dt)
        points = distinct_points([json.loads(x) for x in text.splitlines() if x])
        slow = hostspeed.slowdown(host)
        out[" ".join(argv)] = {"median_s": statistics.median(times),
                               "host_slowdown": slow,
                               "median_s_at_nominal": statistics.median(times) / slow,
                               "samples_s": times, "points": points}
    return out


def point_counts(seed, workdir):
    """Effective vs. nominal (grid^dim) points for one round of each workload."""
    out = {}
    for name, cls in WORKLOADS.items():
        for op in cls(seed, workdir).round():
            code, dt, text, _ = run_op(cli, op.argv)
            records = [json.loads(x) for x in text.splitlines() if x]
            m = cli.resolve_input(op.argv[1])
            grid = int(op.argv[op.argv.index("--grid") + 1]) if "--grid" in op.argv else m.grid
            out[f"{name} {op.kind}"] = {
                "seconds": dt, "points": distinct_points(records),
                "nominal_points": grid ** m.dim, "passed": not op.check(code, records)}
    return out


def bench(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args(argv)

    record = {"machine": machine(), "seed": args.seed, "seconds": args.seconds}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
        controls = {}
        for op in negative_controls(tmp):
            code, _, text, _ = run_op(cli, op.argv)
            problems = op.check(code, [json.loads(x) for x in text.splitlines() if x])
            controls[op.kind] = {"exit_code": code, "counted_failed": bool(problems),
                                 "problems": problems}
        record["negative_controls"] = controls
        record["budget_inputs"] = budget_latencies(REPEATS)
        record["round_point_counts"] = point_counts(args.seed, tmp)
    record["workloads"] = {
        w: {"end_to_end": bench(w, args.seed, args.seconds, 0),
            "per_layer": bench(w, args.seed, args.seconds, 1)}
        for w in WORKLOADS}

    for kind, c in record["negative_controls"].items():
        print(f"negative control {kind}: exit {c['exit_code']}, "
              f"{'counted as failed' if c['counted_failed'] else 'NOT COUNTED'}")
    for argv, b in record["budget_inputs"].items():
        print(f"{argv:<55} {b['median_s']:.3f} s raw, {b['median_s_at_nominal']:.3f} s "
              f"at nominal host speed, {b['points']} points")
    for w, r in record["workloads"].items():
        for name, m in sorted(r["end_to_end"]["metrics"].items()):
            print(f"{w:<15} {name:<16} {m['value']:>14.6g} {m['unit']}")
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
