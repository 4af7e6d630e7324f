"""Self-test of the benchmark's tracing and output checks.

    python3 -m pytest -q perfbench/test_perfbench.py

It is not part of the library's test suite (pytest's testpaths is tests/).
"""

from __future__ import annotations

import json

import pytest

from tracing import LAYER_METRICS, layer_metrics, self_times
from worker import (DIGESTS, REFERENCE_PROBE_S, Checker, ProbeTimer, run_pass,
                    scaled, traced_pass)
from workloads import ROOT, WORKLOADS, seed_cases

SEED = 1
# ratios of exact counts, so they repeat exactly too
EXACT_RATIOS = ("graphs.dag_cache_hit_ratio", "angles.theta3.dags_per_corner",
                "flow.wideness_scan.taus_tried")


def _traced(name):
    workload = WORKLOADS[name]
    tracer, walls, failures = traced_pass(
        workload, Checker(workload, None), seed_cases(workload, SEED))
    assert not failures
    return tracer, layer_metrics(tracer, walls, 0.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_repeats_nests_and_has_no_negative_self_time(name):
    (tracer, first), (_, second) = _traced(name), _traced(name)
    exact = [m for m, unit in LAYER_METRICS
             if unit == "count" or m in EXACT_RATIOS]
    assert {m: first[m] for m in exact} == {m: second[m] for m in exact}
    assert any(first[m]["value"] for m in exact if m.endswith(".calls"))

    spans = tracer.spans
    for _, start, end, parent, instance in spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _, p_instance = spans[parent]
            assert p_start <= start and end <= p_end
            assert p_instance == instance
    assert min(self_times(spans)) >= 0


def test_recorded_digests_pass_and_a_planted_one_fails():
    name = "rips-contract"
    workload = WORKLOADS[name]
    cases = seed_cases(workload, SEED)[:4]
    recorded = json.loads(DIGESTS.read_text())["digests"][name][str(SEED)]
    _, failures = run_pass(workload, Checker(workload, recorded), cases)
    assert not failures

    row = recorded.split()
    row[1] = "0" * len(row[1])
    _, failures = run_pass(workload, Checker(workload, " ".join(row)), cases)
    assert failures == [(cases[1].id, "digest")]


def test_scaling_uses_the_probes_around_each_verdict():
    slow, fast = 2 * REFERENCE_PROBE_S, REFERENCE_PROBE_S
    probes = [(0.0, slow)] * 6 + [(0.0, fast)] * 6
    out = scaled([1.0, 1.0, None], [(0, 2), (8, 10), (10, 10)], probes)
    assert out[0] == pytest.approx(0.5)
    assert out[1] == pytest.approx(1.0)
    assert out[2] is None


def test_probes_run_inside_verdicts_and_are_taken_out():
    workload = WORKLOADS["rips-contract"]
    cases = [c for c in seed_cases(workload, SEED) if c.id == "c10-0"]
    with ProbeTimer() as timer:
        walls, failures = run_pass(workload, Checker(workload, None), cases,
                                   timer=timer)
    assert not failures and walls[0] > 0
    assert len(timer.probes) >= 3


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
