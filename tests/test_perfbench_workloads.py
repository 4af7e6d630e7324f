"""The benchmark's call forms still work against the library.

perfbench/workloads.py and perfbench/tracing.py are loaded as they stand
(they are not modified here) and each workload's verdict runs on the
smallest case of seed 1, once plainly and once inside a Tracer.  Both runs
must pass the verdict's own checks and reproduce the digest recorded for
that case, so a signature change that breaks the benchmark, or a deleted
or renamed function that the tracer wraps, fails this suite too.  Every
seed-1 case also runs once plainly against its recorded digest, so a byte
change in any benchmark case fails here before the benchmark runs.
"""

import json
from pathlib import Path

import pytest

from oracles import perfbench_module

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1

workloads = perfbench_module("workloads")
tracing = perfbench_module("tracing")
RECORDED = json.loads((PERFBENCH / "digests.json").read_text())["digests"]


def _check_smallest_case(name, run):
    workload = workloads.WORKLOADS[name]
    cases = workloads.seed_cases(workload, SEED)
    position = min(range(len(cases)),
                   key=lambda i: (cases[i].graph.vertex_count, i))
    case = cases[position]
    out = run(lambda: workload.verdict(case))
    assert workload.properties(case, out) == []
    expected = RECORDED[name][str(SEED)].split()[position]
    assert workloads.digest(workload.digest_text(out)) == expected, case.id


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smallest_case_passes_with_the_recorded_digest(name):
    _check_smallest_case(name, lambda verdict: verdict())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smallest_case_traced_keeps_the_recorded_digest(name):
    def traced(verdict):
        with tracing.Tracer() as tracer:
            out = verdict()
        assert tracer.spans
        return out

    _check_smallest_case(name, traced)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_seed_case_keeps_the_recorded_digest(name):
    workload = workloads.WORKLOADS[name]
    cases = workloads.seed_cases(workload, SEED)
    expected = RECORDED[name][str(SEED)].split()
    assert len(expected) == len(cases)
    for case, want in zip(cases, expected):
        out = workload.verdict(case)
        assert workload.properties(case, out) == [], case.id
        assert workloads.digest(workload.digest_text(out)) == want, case.id
