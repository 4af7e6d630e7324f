"""Timing spans around the public functions of each coarsecover layer.

A ``Tracer`` is installed only for a traced run.  It replaces, from outside
the package, the module attributes through which the layers call each other
(and two methods of ``GeodesicIndex``), and restores them on exit; nothing
under ``src/`` changes and an untraced run executes the library untouched.

Each span records its name, start, end, parent span and instance id.  Spans
stay in memory until the run ends.  A layer's self time is its spans'
duration minus the part covered by their child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# Functions that get a span, by layer.  Per-element hot methods such as
# ThetaMetric.d, PairSpace.d and SmallnessOracle.turn_ok are left alone: a
# span around each of their millions of calls would swamp the timings.
SPANS = {
    "graphs": ("geodesic_dag", "slimness_constant"),
    "symmetry": ("close_group", "subdivided_group", "is_F_subset"),
    "angles": ("theta3", "d_theta"),
    "covers": ("doubling_check", "greedy_cover", "verify_cover",
               "cover_order", "fiber_basis"),
    "flow": ("build_cf_theta", "cf_doubling_report", "cf_pair_space",
             "cover_cf", "theta_for_wideness", "ball_closed_targets",
             "wideness_scan", "pullback_cover"),
    "cones": ("seed_theta0", "cone_cover", "dichotomy_check",
              "combined_cover"),
    "rips": ("contract_subcomplex", "build_rips", "homology_oracle"),
    "pipeline": ("run_pipeline",),
}


def _cf_sizes(counters, cf):
    counters["flow.fibers"] += len(cf.fibers)
    counters["flow.triples"] += len(cf.triples)


# size counters taken from a span's return value
SIZES = {
    "angles.theta3": lambda c, t3: c.update({"theta3.nontrivial": len(t3)}),
    "covers.greedy_cover": lambda c, cov: c.update(
        {"covers.greedy_cover.members": len(cov)}),
    "flow.build_cf_theta": _cf_sizes,
    "flow.wideness_scan": lambda c, scan: c.update(
        {"wideness_scan.passed": int(scan.ok)}),
    "cones.cone_cover": lambda c, res: c.update({"cones.cone_sets": len(res[0])}),
    "rips.contract_subcomplex": lambda c, tr: c.update(
        {"rips.moves": len(tr.moves)}),
    "rips.build_rips": lambda c, cx: c.update(
        {"rips.simplices": len(cx.maximal_simplices)}),
}

# The per-layer metrics a traced run reports, with their units, in the
# order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("graphs.GeodesicIndex.self_s", "s"),
    ("graphs.geodesic_dag.calls", "count"),
    ("graphs.geodesic_dag.self_s", "s"),
    ("graphs.dag_cache_hit_ratio", "ratio"),
    ("graphs.slimness_constant.calls", "count"),
    ("graphs.slimness_constant.self_s", "s"),
    ("angles.theta3.calls", "count"),
    ("angles.theta3.self_s", "s"),
    ("angles.theta3.dags_per_corner", "ratio"),
    ("angles.d_theta.self_s", "s"),
    ("covers.doubling_check.calls", "count"),
    ("covers.doubling_check.self_s", "s"),
    ("covers.greedy_cover.self_s", "s"),
    ("covers.greedy_cover.members", "count"),
    ("covers.verify_cover.self_s", "s"),
    ("covers.cover_order.self_s", "s"),
    ("covers.fiber_basis.self_s", "s"),
    ("symmetry.close_group.self_s", "s"),
    ("symmetry.subdivided_group.calls", "count"),
    ("symmetry.subdivided_group.self_s", "s"),
    ("symmetry.is_F_subset.calls", "count"),
    ("symmetry.is_F_subset.self_s", "s"),
    ("flow.build_cf_theta.self_s", "s"),
    ("flow.fibers", "count"),
    ("flow.triples", "count"),
    ("flow.cf_doubling_report.self_s", "s"),
    ("flow.cf_pair_space.calls", "count"),
    ("flow.cf_pair_space.self_s", "s"),
    ("flow.cover_cf.self_s", "s"),
    ("flow.theta_for_wideness.self_s", "s"),
    ("flow.ball_closed_targets.self_s", "s"),
    ("flow.wideness_scan.self_s", "s"),
    ("flow.wideness_scan.taus_tried", "ratio"),
    ("flow.pullback_cover.self_s", "s"),
    ("cones.seed_theta0.self_s", "s"),
    ("cones.cone_cover.self_s", "s"),
    ("cones.cone_sets", "count"),
    ("cones.dichotomy_check.self_s", "s"),
    ("cones.combined_cover.self_s", "s"),
    ("rips.contract_subcomplex.self_s", "s"),
    ("rips.moves", "count"),
    ("rips.build_rips.self_s", "s"),
    ("rips.simplices", "count"),
    ("rips.homology_oracle.self_s", "s"),
    ("pipeline.run_pipeline.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.top_span_coverage", "ratio"),
)


class Tracer:
    """Context manager that records spans while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, instance]
        self.counters = Counter()
        self.instance = None
        self._stack = []
        self._undo = []

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "coarsecover" or name.startswith("coarsecover.")]
        for layer, names in SPANS.items():
            module = sys.modules["coarsecover." + layer]
            for fname in names:
                original = getattr(module, fname)
                wrapped = self._span(layer + "." + fname, original)
                # rebind every module-level reference, so calls made through
                # a `from .x import f` binding are traced as well
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._replace(m, attr, wrapped)
        index_cls = sys.modules["coarsecover.graphs"].GeodesicIndex
        self._replace(index_cls, "__init__",
                      self._span("graphs.GeodesicIndex", index_cls.__init__))
        self._replace(index_cls, "dag", self._count_dag(index_cls.dag))
        return self

    def __exit__(self, *exc):
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    def _replace(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _span(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        size = SIZES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else -1,
                      self.instance]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if size is not None:
                size(counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_dag(self, fn):
        """Count GeodesicIndex.dag calls; a call that opens a geodesic_dag
        span is a cache miss, every other call a hit."""
        spans, counters = self.spans, self.counters

        def dag(index, u, v):
            before = len(spans)
            result = fn(index, u, v)
            counters["index.dag.calls"] += 1
            if len(spans) == before:
                counters["index.dag.hits"] += 1
            return result

        dag.__wrapped__ = fn
        return dag


def self_times(spans):
    """Self time of each span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_, start, end, _, _) in enumerate(spans)]


def _children_named(spans, name, parent_name):
    return sum(1 for s in spans
               if s[0] == name and s[3] >= 0 and spans[s[3]][0] == parent_name)


def layer_metrics(tracer, instance_walls, overhead_s):
    """Every metric of LAYER_METRICS from one traced pass.

    instance_walls maps each instance id to its traced wall time from the
    call to the verdict; overhead_s is traced minus untraced pass time.
    """
    spans, counters = tracer.spans, tracer.counters
    calls = Counter(s[0] for s in spans)
    own = Counter()
    for s, t in zip(spans, self_times(spans)):
        own[s[0]] += t
    top = Counter()
    for _, start, end, parent, inst in spans:
        if parent < 0:
            top[inst] += end - start
    values = dict(counters)
    for name in calls:
        values[name + ".calls"] = calls[name]
        values[name + ".self_s"] = own[name]
    dag_calls = counters["index.dag.calls"]
    values["graphs.dag_cache_hit_ratio"] = (
        counters["index.dag.hits"] / dag_calls if dag_calls else 0.0)
    values["angles.theta3.dags_per_corner"] = (
        _children_named(spans, "graphs.geodesic_dag", "angles.theta3")
        / max(1, counters["theta3.nontrivial"]))
    values["flow.wideness_scan.taus_tried"] = (
        _children_named(spans, "flow.pullback_cover", "flow.wideness_scan")
        / max(1, counters["wideness_scan.passed"]))
    values["trace.overhead_s"] = overhead_s
    values["trace.top_span_coverage"] = min(
        (top[i] / wall for i, wall in instance_walls.items() if wall > 0),
        default=0.0)
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in LAYER_METRICS}


def hot_spots(spans, limit=8):
    """Span names ranked by inclusive time, the pipeline entry point aside."""
    total = Counter()
    for name, start, end, _, _ in spans:
        if name != "pipeline.run_pipeline":
            total[name] += end - start
    return total.most_common(limit)
