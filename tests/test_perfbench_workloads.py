"""The benchmark's call forms still work against the library.

perfbench/workloads.py is loaded as it stands (it is not modified here) and
each workload's verdict runs on the smallest case of seed 1.  The verdict
must pass its own checks and reproduce the digest recorded for that case,
so a signature change that breaks the benchmark fails this suite too.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
RECORDED = json.loads((PERFBENCH / "digests.json").read_text())["digests"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smallest_case_passes_with_the_recorded_digest(name):
    workload = workloads.WORKLOADS[name]
    cases = workloads.seed_cases(workload, SEED)
    position = min(range(len(cases)),
                   key=lambda i: (cases[i].graph.vertex_count, i))
    case = cases[position]
    out = workload.verdict(case)
    assert workload.properties(case, out) == []
    expected = RECORDED[name][str(SEED)].split()[position]
    assert workloads.digest(workload.digest_text(out)) == expected, case.id
