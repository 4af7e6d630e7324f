"""coarsecover benchmark: time to a checked verdict, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed gives the workload's instance set (workloads.py).  Each worker
process (worker.py) sets up, that is starts the interpreter, imports the
library, generates the instance set and runs one untimed warm-up instance,
and then runs the instances one at a time with no threads: a closed loop
with one client.  Workers run one after another, never two at once.

With ``--trace 0`` the instance set is timed in separate workers, one pass
each, as many passes as fill ``--seconds`` on the reference machine and at
least MIN_PASSES, so every commit does the same work.  Every verdict of
every pass is one sample of the timing metrics.  Workers that only set up are
interleaved with them until there are SETUP_RUNS set-up samples;
``setup_s`` is their median.

Timings are reported in reference seconds: the host is shared, and a
neighbour can slow the same code by half for minutes at a time, which no
longer run would average out.  So each worker times a speed probe, a
fixed piece of pure-Python graph work outside the library, inside and
around every verdict and right after its set-up, and scales the times by
it (worker.py).

With ``--trace 1`` a last worker runs the instance set untraced and then
traced, and the per-layer metrics are printed; those are not scaled, and
``--seconds`` is then not used.  Every verdict is checked either way.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give each metric with
its unit, the environment stamp and the checks skipped.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
MIN_PASSES = 3
# The stages that led the cProfile baseline in ROADMAP.md.  A traced run
# says whether they still lead its hot spots (one place of slack, for a
# stage such as build_cf_theta that contains a leader).
BASELINE_LEADERS = {
    "tree-ladder": ("covers.verify_cover", "flow.cover_cf",
                    "flow.cf_doubling_report"),
    "flow-doubling": ("angles.theta3", "graphs.slimness_constant"),
}
TIMEOUT_S = 170  # a run must end within 180 s; all its workers share this


def tail(samples):
    """The highest whole percentile with at least ten samples beyond it.

    Returns (value, percentile); nearest-rank, so at least ten samples lie
    strictly above the returned rank.  Fewer than eleven samples give the
    minimum at percentile 0.
    """
    xs = sorted(samples)
    n = len(xs)
    pct = max(0, math.floor(100 * (n - 10) / n))
    rank = max(1, math.ceil(pct * n / 100))
    return xs[rank - 1], pct


def environment():
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    commit = None  # a checkout without .git has none; src_sha256 stands in
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "coarsecover").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "networkx": version("networkx"),
        "numpy": version("numpy"),
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


def run_worker(args, go, deadline):
    """Start a worker, time its set-up; return (setup_s in reference
    seconds, result or None).  The worker is killed at the deadline."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline().strip()
        setup_s = time.perf_counter() - start
        setup_s *= float(proc.stdout.readline() or "nan")
        out, _ = proc.communicate("go\n" if go else "exit\n",
                                  timeout=max(1, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready != "ready" or proc.returncode != 0:
        raise RuntimeError("worker failed (exit %s)" % proc.returncode)
    return setup_s, json.loads(out.splitlines()[-1]) if go else None


def measuring_workers(passes, workers):
    """Indices of the workers that measure, spread evenly over all of them."""
    if passes == 1:
        return {workers - 1}
    return {round(k * (workers - 1) / (passes - 1)) for k in range(passes)}


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True,
                    help="tree-ladder, equivariant, flow-doubling or "
                    "rips-contract (see workloads.py)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "coarsecover" / "__init__.py").is_file():
        print("error: no coarsecover sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2

    passes = 1 if args.trace else max(
        MIN_PASSES, round(args.seconds / WORKLOADS[args.workload].pass_s))
    workers = max(passes, SETUP_RUNS)
    measuring = measuring_workers(passes, workers)
    setups, results = [], []
    deadline = time.monotonic() + TIMEOUT_S
    for i in range(workers):
        try:
            setup_s, result = run_worker(args, i in measuring, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        setups.append(setup_s)
        if result is not None:
            results.append(result)

    result = results[-1]
    ids = result["ids"]
    failures = [f for r in results for f in r["failures"]]
    attempted = sum(r["attempted"] for r in results)
    env = environment()
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env, "setup_runs_s": setups,
              "failed_frac": len(failures) / attempted}
    lines = ["# env %s" % json.dumps(env, sort_keys=True)]
    if args.trace:
        metrics = result["metrics"]
        lines.append("# %s seed %d: %d instances run untraced, then traced"
                     % (args.workload, args.seed, len(ids)))
        lines.append("# tracing overhead %.3f s (traced %.3f s, untraced "
                     "%.3f s)" % (metrics["trace.overhead_s"]["value"],
                                  result["wall_s"], result["untraced_wall_s"]))
        lines.append("# hot spots (inclusive s): " + ", ".join(
            "%s %.3f" % (name, t) for name, t in result["hot_spots"]))
        report["hot_spots"] = result["hot_spots"]
        leaders = BASELINE_LEADERS.get(args.workload)
        if leaders:
            top = [name for name, _ in result["hot_spots"][:len(leaders) + 1]]
            report["baseline_reproduced"] = set(leaders) <= set(top)
            lines.append("# baseline hot spots %s lead: %s" % (
                ", ".join(leaders),
                "yes" if report["baseline_reproduced"] else "no"))
    else:
        samples = [w for r in results for w in r["walls"] if w is not None]
        if not samples:
            print("error: every instance raised", file=sys.stderr)
            return 1
        tail_s, tail_pct = tail(samples)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "instances_per_s": {"value": len(samples) / sum(samples),
                                "unit": "1/s"},
            "verdict_p50_s": {"value": statistics.median(samples),
                              "unit": "s"},
            "verdict_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in results),
                            "unit": "MB"},
        }
        lines.append("# %s seed %d: %d instances, %d passes; "
                     "passes took %s s, mean probe %s ms" % (
                         args.workload, args.seed, len(ids), passes,
                         " ".join("%.2f" % r["wall_s"] for r in results),
                         " ".join("%.3f" % (1e3 * r["probe_mean_s"])
                                  for r in results)))
        report["verdict_tail"] = {"percentile": tail_pct,
                                  "samples": len(samples)}
        report["passes"] = [
            {k: r[k] for k in ("wall_s", "walls", "probe_mean_s")}
            for r in results]
    for name, m in metrics.items():
        note = ""
        if name == "verdict_tail_s":
            note = "  (p%d of %d samples)" % (tail_pct, len(samples))
        lines.append("# %s %.6g %s%s" % (name, m["value"], m["unit"], note))
    lines.append("# failed_frac %.6g ratio (%d of %d instances)"
                 % (report["failed_frac"], len(failures), attempted))
    for case_id, why in failures[:10]:
        lines.append("# FAILED %s: %s" % (case_id, why))
    checked = result["digests_checked"]
    lines.append("# checks: properties and output digests on every verdict"
                 if checked else
                 "# checks: properties on every verdict; output digests "
                 "skipped, none recorded for seed %d" % args.seed)
    report.update(metrics=metrics, failures=failures, attempted=attempted,
                  digests_checked=checked)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / ("result-%s-seed%d-trace%d.json"
                % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(report, indent=1, sort_keys=True))

    print("\n".join(lines))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
