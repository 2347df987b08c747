"""Benchmark of the torusbvp solvers and CLI.

    python3 perfbench/run.py --workload newton --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Set-up time is measured in fresh processes started with
``--setup-probe``.  The timed phase runs ``round(seconds / nominal)``
rounds, where the nominal round time was measured on the reference machine,
so a faster program shows as a shorter ``wall_s``.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` each round runs once untraced and once traced, and it
holds the per-layer metrics.  Run records and spans go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_PROBES = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set the workload up, print 'ready' and exit")
    return ap.parse_args(argv)


def _probe_setup(args):
    """Seconds from process start until the workload is ready, in a fresh process."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait()
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError("set-up probe failed (exit %d)" % rc)
    return elapsed


def _timed_phase(rounds, tracer):
    """Run every round; returns (per-op results, per-round seconds, wall, cpu)."""
    results, round_s = [], []
    cpu0, t0 = time.process_time(), time.perf_counter()
    for ops in rounds:
        r0 = time.perf_counter()
        for op in ops:
            try:
                results.append((op, op.execute(tracer), None))
            except Exception as exc:  # a failed op is counted, the run goes on
                results.append((op, None, exc))
        round_s.append(time.perf_counter() - r0)
    return results, round_s, time.perf_counter() - t0, time.process_time() - cpu0


def _check(results):
    """Failure messages of each op; an op fails on an exception or a failed check."""
    failures = []
    for op, out, exc in results:
        if exc is None:
            try:
                msgs = op.check(out)
            except Exception as check_exc:  # a check that cannot run fails the op
                msgs = ["check raised %r" % check_exc]
        else:
            msgs = ["raised %r" % exc]
        if msgs:
            failures.append("%s: %s" % (op.name, "; ".join(msgs)))
    return failures


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None  # not a git checkout
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(args, n_rounds):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": n_rounds,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _summary(value, unit, samples):
    """A metric with the median and quartiles of its samples (inclusive, so a
    few samples never extrapolate)."""
    if len(samples) > 1:
        q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = med = q3 = value
    return {"value": value, "unit": unit, "median": med, "q1": q1, "q3": q3, "n": max(1, len(samples))}


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "torusbvp" / "__init__.py").is_file():
        print("error: no torusbvp source tree at %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (%s)" % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    make_rounds, nominal = workloads.WORKLOADS[args.workload]
    n_rounds = max(1, round(args.seconds / nominal))
    WORK.mkdir(exist_ok=True)
    if args.setup_probe:
        make_rounds(args.seed, n_rounds, workloads.NullTracer(), str(WORK))
        print("ready", flush=True)
        return 0

    failures = []  # one message per failed op
    harness = []   # failures of the benchmark's own machinery
    metrics = {}
    if args.trace:
        harness += ["self-test: %s" % msg for msg in tracing.self_test()]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            rounds = make_rounds(args.seed, n_rounds, tracer, str(WORK))
        finally:
            tracer.restore()
        # rounds alternate which of the two modes runs first, so drift and the
        # first round's cold start fall on both sides alike
        walls = {False: 0.0, True: 0.0}
        attempted = 0
        for i, ops in enumerate(rounds):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                try:
                    results, _, wall, _ = _timed_phase([ops], tracer if traced else workloads.NullTracer())
                finally:
                    tracer.restore()
                walls[traced] += wall
                attempted += len(results)
                failures += _check(results)
        if not tracing.restored():
            harness.append("tracer left a patched name behind")
        tracer.write(WORK / ("spans-%s-%d.jsonl" % (args.workload, args.seed)))
        for name, (value, unit, samples) in tracing.layer_metrics(tracer.spans, workloads.SCAN_THREADS).items():
            metrics[name] = _summary(value, unit, samples)
        metrics["trace.overhead_frac"] = _summary(walls[True] / walls[False] - 1.0, "ratio", [])
    else:
        setup = [_probe_setup(args) for _ in range(SETUP_PROBES)]
        rounds = make_rounds(args.seed, n_rounds, workloads.NullTracer(), str(WORK))
        results, round_s, wall, cpu = _timed_phase(rounds, workloads.NullTracer())
        failures += _check(results)
        attempted = len(results)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": _summary(statistics.median(setup), "s", setup),
            "wall_s": _summary(wall, "s", []),
            "op_s_p50": _summary(statistics.median(round_s), "s", round_s),
            "cpu_s": _summary(cpu, "s", []),
            "peak_rss_mb": _summary(rss_mb, "MB", []),
            "ok_frac": _summary(1.0 - len(failures) / attempted, "ratio", []),
        }
        for q in (99, 90):  # a tail percentile only with at least ten rounds beyond it
            if len(round_s) * (100 - q) / 100 >= 10:
                print("op_s_p%d %.6g s" % (q, statistics.quantiles(round_s, n=100)[q - 1]))
                break

    record = {"environment": _environment(args, n_rounds), "metrics": metrics,
              "failures": failures + harness}
    (WORK / "records").mkdir(exist_ok=True)
    with open(WORK / "records" / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)

    for msg in failures + harness:
        print("FAIL %s" % msg)
    for name, m in metrics.items():
        print("%-34s %14.6g %-6s (n=%d, q1 %.6g, q3 %.6g)" % (name, m["value"], m["unit"], m["n"], m["q1"], m["q3"]))
    print(json.dumps({"correct": not (failures or harness), "attempted": attempted, "failed": len(failures),
                      "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
