"""One workload in one fresh process: set up, then run ops in a closed loop.

Started by ``run.py``; not meant to be run by hand.  Prints one JSON line:
with ``--setup-only`` right after set-up, otherwise after the run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import sys
import time

import numpy as np

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")

# Tail latency is reported at a fixed percentile per workload so that runs
# stay comparable.  An untraced run lasts at least the rounds that leave ten
# ops beyond it, unless twice --seconds have passed (a slow host must not
# stretch a run without bound); a traced run needs one untraced and one
# traced round.
TAIL_PERCENTILE = {"zoo-audit": 75, "curved-audit": 75, "validate-batch": 90}


def run_op(cli, argv, tracer=None):
    """One CLI run in-process with its output captured:
    (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()

    def call():
        try:
            return cli.main(argv)
        except SystemExit as exc:   # argparse rejects its input this way
            return exc.code if isinstance(exc.code, int) else 2

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = call() if tracer is None else tracer.run_op(argv, call)
        dt = time.perf_counter() - t0
    return code, dt, out.getvalue(), err.getvalue()


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a Beta(q(n+1), (1-q)(n+1))
    weighted mean of all order statistics.  Op latencies of a mixed round
    cluster by op kind; a single order statistic jumps between clusters
    from run to run, this average does not."""
    x = np.sort(values)
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    t = np.linspace(0.0, 1.0, 20001)[1:-1]
    pdf = np.exp((a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
                 + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    cdf = np.concatenate(([0.0], np.cumsum(pdf), [pdf.sum()])) / pdf.sum()
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, 20001), cdf)
    return float(np.diff(edges) @ x)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import acsgeo
    if not os.path.abspath(acsgeo.__file__).startswith(src + os.sep):
        print(f"acsgeo imported from {acsgeo.__file__}, not from {src}", file=sys.stderr)
        return 2
    from acsgeo import cli
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        rounds = workload.rounds()
        ready_at = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready_at": ready_at}))
            return 0
        result = measure(cli, args, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["ready_at"] = ready_at
    print(json.dumps(result))
    return 0


def measure(cli, args, rounds):
    """Run whole rounds until ``args.seconds`` have passed; returns counts,
    metrics and the first few failures."""
    from workloads import distinct_points
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    q = TAIL_PERCENTILE[args.workload]
    min_ops = 10 * 100 // (100 - q)
    min_rounds = 2 if tracer else -(-min_ops // len(rounds[0]))

    latencies, problems, host = [], [], []
    by_mode = {False: [0.0, 0], True: [0.0, 0]}   # traced? -> [seconds, points]
    attempted = failed = done = 0
    start = time.monotonic()
    for i, ops in enumerate(rounds):
        elapsed = time.monotonic() - start
        enough = i >= min_rounds or (i and tracer is None and elapsed >= 2 * args.seconds)
        if enough and elapsed >= args.seconds:
            break
        done += 1
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
            tracer.start_sampler()
        try:
            for op in ops:
                host.append(hostspeed.sample())
                code, dt, out, err = run_op(cli, op.argv, tracer if traced else None)
                records = [json.loads(line) for line in out.splitlines() if line]
                bad = op.check(code, records)
                attempted += 1
                if bad:
                    failed += 1
                    problems.append({"argv": op.argv, "problems": bad,
                                     "stderr": err.strip()[-500:]})
                latencies.append(dt)
                by_mode[traced][0] += dt
                by_mode[traced][1] += distinct_points(records)
        finally:
            if traced:
                tracer.stop_sampler()
                tracer.uninstall()

    result = {"attempted": attempted, "failed": failed, "problems": problems[:5],
              "rounds": done, "ops_per_round": len(rounds[0])}
    if tracer is None:
        secs, points = by_mode[False]
        raw = {"points_per_s": points / secs, "op_s_p50": quantile(latencies, 0.5),
               "op_s_tail": quantile(latencies, q / 100)}
        slow = hostspeed.slowdown(host)
        result["metrics"] = {
            "points_per_s": (raw["points_per_s"] * slow, "1/s"),
            "op_s_p50": (raw["op_s_p50"] / slow, "s"),
            "op_s_tail": (raw["op_s_tail"] / slow, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "passed_op_ratio": ((attempted - failed) / attempted, "ratio"),
        }
        result.update(tail_percentile=q, raw=raw, host_slowdown=slow)
    else:
        metrics = tracer.metrics()
        (t_s, t_p), (u_s, u_p) = by_mode[True], by_mode[False]
        metrics["trace.overhead_ratio"] = ((t_s / t_p) / (u_s / u_p), "ratio")
        result["metrics"] = metrics
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl"))
    return result


if __name__ == "__main__":
    sys.exit(main())
