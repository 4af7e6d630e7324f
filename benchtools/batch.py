"""Alternating parent/change benchmark pairs, and their summary.

    python3 benchtools/batch.py PARENT_ROOT CHANGE_ROOT OUT.json PAIRS WORKLOAD...
    python3 benchtools/batch.py --summary OUT.json

The first form runs, for each workload and pair i,

    python3 perfbench/run.py --workload W --seed 1 --seconds 16 --trace 0

once from each checkout, with PYTHONDONTWRITEBYTECODE=1 and no PYTHONPATH;
the parent runs first when i is even and the change first when i is odd.
The last stdout line of a run is read as JSON.  OUT.json keeps the pairs
by workload and is written after every pair, so a stopped batch resumes
where it stopped.  The host's speed drifts, so only runs made in
alternation compare.

The second form prints, per workload and end-to-end metric, the medians
of both sides, the parent's quartiles, the median change, the pairs the
change wins and the margin against the metric's bound in BENCHMARK.json;
"gain" says whether the change won at least 9 of 10 pairs by a median
change larger than the distance between the parent's quartiles.  With
--json it prints the summaries as one JSON object, the form a BENCH file
records.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KEYS = ("setup_s", "instances_per_s", "verdict_p50_s", "verdict_tail_s",
        "peak_rss_mb")


def run(root, workload):
    """One perfbench run from the checkout at root: the end-to-end metrics
    and the run's counts."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        workload, "--seed", "1", "--seconds", "16",
                        "--trace", "0"], cwd=root, env=env,
                       capture_output=True, text=True, check=True)
    doc = json.loads(p.stdout.strip().splitlines()[-1])
    out = {k: doc["metrics"][k]["value"] for k in KEYS}
    out.update(correct=doc["correct"], attempted=doc["attempted"],
               failed=doc["failed"])
    return out


def batch(parent, change, out_path, pairs, workloads):
    try:
        results = json.loads(Path(out_path).read_text())
    except FileNotFoundError:
        results = {}
    for w in workloads:
        rows = results.setdefault(w, [])
        for i in range(len(rows), pairs):
            order = [("parent", parent), ("current", change)]
            if i % 2:
                order.reverse()
            rec = {"pair": i, "first": order[0][0]}
            for side, root in order:
                rec[side] = run(root, w)
            rows.append(rec)
            Path(out_path).write_text(json.dumps(results, indent=1))
            print(w, i, round(rec["parent"]["instances_per_s"], 1),
                  round(rec["current"]["instances_per_s"], 1), flush=True)


def summary(pairs, end_to_end):
    """The statistics of one workload's pairs, per metric of end_to_end
    (BENCHMARK.json's list): change is current over parent less 1, and
    worse_by is the change in the metric's worse direction, 0 if better."""
    out = {"pair_count": len(pairs)}
    for m in end_to_end:
        name, higher = m["name"], m["better"] == "higher"
        parent = [r["parent"][name] for r in pairs]
        current = [r["current"][name] for r in pairs]
        pm, cm = statistics.median(parent), statistics.median(current)
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        change = cm / pm - 1
        wins = sum(c > p if higher else c < p
                   for p, c in zip(parent, current))
        worse_by = max(0.0, -change if higher else change)
        out[name] = {
            "parent_median": pm, "current_median": cm,
            "change": round(change, 4), "parent_quartiles": [q1, q3],
            "current_better_in": wins, "worse_by": round(worse_by, 4),
            "bound": m["bound"], "within_bound": worse_by <= m["bound"],
            "gain": wins >= 0.9 * len(pairs)
            and abs(cm - pm) > q3 - q1 and (cm > pm) == higher,
        }
    out["failed"] = [sum(r[side]["failed"] for r in pairs)
                     for side in ("parent", "current")]
    out["attempted_per_run"] = [pairs[0][side]["attempted"]
                                for side in ("parent", "current")]
    return out


def summaries(results, end_to_end):
    return {w: summary(pairs, end_to_end) for w, pairs in results.items()}


def table(summed):
    """The summaries as text, one line per workload and metric."""
    lines = []
    for w, s in summed.items():
        lines.append("%s: %d pairs, failed runs parent %d, change %d"
                     % (w, s["pair_count"], *s["failed"]))
        for name, m in s.items():
            if not isinstance(m, dict):
                continue
            q1, q3 = m["parent_quartiles"]
            lines.append(
                "  %-16s %12.6g -> %12.6g  %+7.2f %%  parent IQR "
                "[%.6g, %.6g]  wins %d  %s%s"
                % (name, m["parent_median"], m["current_median"],
                   100 * m["change"], q1, q3, m["current_better_in"],
                   "within bound" if m["within_bound"] else "PAST BOUND",
                   ", gain" if m["gain"] else ""))
    return "\n".join(lines)


def main(argv):
    if argv[:1] == ["--summary"]:
        results = json.loads(Path(argv[1]).read_text())
        end_to_end = json.loads(
            (ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        summed = summaries(results, end_to_end)
        print(json.dumps(summed, indent=1) if "--json" in argv[2:]
              else table(summed))
        return 0
    parent, change, out_path, pairs, *workloads = argv
    batch(parent, change, out_path, int(pairs), workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
