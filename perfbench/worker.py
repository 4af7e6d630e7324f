"""One benchmark process: set up a workload, then run it when told to.

Started by run.py with the same arguments.  It imports the library from
``src/``, generates the seed's instance set, runs one untimed warm-up
instance and prints ``ready``.  run.py times the set-up from the process
start to that line.  The worker then prints the set-up's scale factor (see
below) and reads one line from stdin: ``go`` runs one timed pass over the
instance set (with ``--trace 1``: one untraced and one traced pass) and
prints its result as one JSON line; anything else exits at once.

A speed probe is a fixed piece of pure-Python graph work, about 0.15 ms,
that does not touch the library.  The host is shared, and a neighbour can
make the same code run half again as long, changing from one tenth of a
second to the next and for minutes at a time.  So during a timed pass a
SIGALRM timer runs a probe every PROBE_INTERVAL_S of wall time, inside
the verdicts as well as between them: the probes see the same slowdowns
as the verdict they interrupt.  A verdict's time is its wall time minus
the probes run inside it, divided by the mean probe time around it and
multiplied by REFERENCE_PROBE_S: reference seconds.  A change to the
library changes no probe, so the scaling is the same on every commit.
The set-up is scaled the same way by a burst of probes right after it.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer, hot_spots, layer_metrics
from workloads import ROOT, WORKLOADS, digest, seed_cases

DIGESTS = Path(__file__).resolve().parent / "digests.json"
PROBE_INTERVAL_S = 0.01
# mean probe time on 2 x86 vCPUs, Python 3.11, with the host otherwise idle
REFERENCE_PROBE_S = 0.00015
SETUP_BURST_S = 0.25  # probes timed right after the set-up


def _probe_graph(n=120, extra=60, seed=5):
    rng = random.Random(seed)
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u].add(v)
        adj[v].add(u)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


PROBE_GRAPH = _probe_graph()


def probe():
    """Start and wall time of one speed probe: breadth-first search from
    three sources of a fixed 120-vertex graph."""
    start = time.perf_counter()
    for source in range(0, len(PROBE_GRAPH), 40):
        dist = {source: 0}
        queue = [source]
        for x in queue:
            for y in PROBE_GRAPH[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
    return start, time.perf_counter() - start


class ProbeTimer:
    """Runs a probe every PROBE_INTERVAL_S of wall time from a SIGALRM
    handler, between bytecodes of whatever code is running, and keeps the
    (start, wall time) of each in ``probes``."""

    def __init__(self):
        self.probes = []

    def _tick(self, signum, frame):
        self.probes.append(probe())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def setup_scale():
    """REFERENCE_PROBE_S over the mean time of a burst of probes."""
    times = []
    end = time.perf_counter() + SETUP_BURST_S
    while time.perf_counter() < end:
        times.append(probe()[1])
    return REFERENCE_PROBE_S / statistics.mean(times)


def scaled(walls, spans, probes):
    """Verdict times in reference seconds.

    walls[i] is verdict i's wall time less the probes run inside it, or
    None; spans[i] = (k0, k1) are the indices into probes of the first probe
    after its start and the first after its end.  Its scale comes from the
    probes inside it and two on either side, so a verdict shorter than the
    probe interval is scaled too.
    """
    out = []
    for wall, (k0, k1) in zip(walls, spans):
        near = [d for _, d in probes[max(0, k0 - 2):k1 + 2]]
        out.append(wall and wall * REFERENCE_PROBE_S / statistics.mean(near))
    return out


class Checker:
    """Output checks of one workload and seed.

    Properties are checked on every verdict.  The output digest is compared
    only for the seeds whose digests were recorded; elsewhere that check is
    skipped and the result says so.
    """

    def __init__(self, workload, recorded):
        self.workload = workload
        # digests in case order; empty for an unrecorded seed
        self.expected = recorded.split() if recorded else []

    @classmethod
    def recorded(cls, name, seed):
        table = json.loads(DIGESTS.read_text())["digests"]
        return cls(WORKLOADS[name], table.get(name, {}).get(str(seed)))

    def failures(self, case, out, position):
        failed = self.workload.properties(case, out)
        if self.expected and self.expected[position] != digest(
                self.workload.digest_text(out)):
            failed.append("digest")
        return failed


def run_pass(workload, checker, cases, tracer=None, timer=None):
    """Time each verdict of a pass, then check it.

    Returns each case's wall time from the call to the verdict (None where
    it raised) and the failures as (case id, reason) pairs.  Given a
    running ProbeTimer, the probes run inside a verdict are taken out of its
    wall time, and its times are returned scaled to reference seconds.
    """
    walls, spans, failures = [], [], []
    for position, case in enumerate(cases):
        if tracer is not None:
            tracer.instance = case.id
        k0 = len(timer.probes) if timer else 0
        start = time.perf_counter()
        try:
            out = workload.verdict(case)
        except Exception as exc:  # counted as a failed instance; run goes on
            out = exc
        end = time.perf_counter()
        wall = end - start
        if timer:
            k1 = len(timer.probes)
            wall -= sum(d for t, d in timer.probes[k0:k1] if start <= t < end)
            spans.append((k0, k1))
        if isinstance(out, Exception):
            walls.append(None)
            failures.append((case.id, "raised %s: %s"
                             % (type(out).__name__, out)))
            continue
        walls.append(wall)
        bad = checker.failures(case, out, position)
        if bad:
            failures.append((case.id, ",".join(bad)))
    if timer:
        walls = scaled(walls, spans, timer.probes)
    return walls, failures


def traced_pass(workload, checker, cases):
    """One pass with the tracer installed; return the tracer, each
    instance's wall time by id, and the failures."""
    with Tracer() as tracer:
        walls, failures = run_pass(workload, checker, cases, tracer)
    return tracer, {c.id: w for c, w in zip(cases, walls) if w}, failures


def write_trace(tracer, path):
    names = sorted({s[0] for s in tracer.spans})
    code = {n: i for i, n in enumerate(names)}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "names": names,
        "fields": ["name", "start", "end", "parent", "instance"],
        "spans": [[code[n], round(a, 7), round(b, 7), p, i]
                  for n, a, b, p, i in tracer.spans],
    }))


def traced_phase(workload, checker, cases, trace_path):
    """The instance set untraced, then traced."""
    start = time.perf_counter()
    walls, failures = run_pass(workload, checker, cases)
    untraced = time.perf_counter() - start
    start = time.perf_counter()
    tracer, traced_walls, traced_failures = traced_pass(workload, checker,
                                                        cases)
    traced = time.perf_counter() - start
    write_trace(tracer, trace_path)
    return {"wall_s": traced, "untraced_wall_s": untraced,
            "attempted": 2 * len(cases), "walls": walls,
            "failures": failures + traced_failures,
            "metrics": layer_metrics(tracer, traced_walls, traced - untraced),
            "hot_spots": hot_spots(tracer.spans)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    checker = Checker.recorded(args.workload, args.seed)
    cases = seed_cases(workload, args.seed)
    _, warm_failures = run_pass(workload, checker, cases[:1])
    print("ready", flush=True)
    print(setup_scale(), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    if args.trace:
        trace_path = (ROOT / ".perfbench_out"
                      / ("trace-%s-seed%d.json" % (args.workload, args.seed)))
        result = traced_phase(workload, checker, cases, trace_path)
    else:
        start = time.perf_counter()
        with ProbeTimer() as timer:
            walls, failures = run_pass(workload, checker, cases, timer=timer)
        result = {"wall_s": time.perf_counter() - start,
                  "attempted": len(cases), "walls": walls,
                  "failures": failures,
                  "probe_mean_s": statistics.mean(
                      d for _, d in timer.probes)}
    result["failures"] = warm_failures + result["failures"]
    result["attempted"] += 1
    result["ids"] = [c.id for c in cases]
    result["digests_checked"] = bool(checker.expected)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
