"""Seeded inputs, verdict chains and output checks of the four workloads.

Every chain calls the library through its module attributes
(``angles.theta3(...)``, not a name imported from ``coarsecover.angles``), so
the traced run's wrappers see each call.  The library receives only the
generated graphs and groups; the seed never reaches it.

A seed gives one instance set: random trees and caterpillar blooms are drawn
from it and fixed shapes get a seeded vertex labelling, while the shipped
corpus instances are the same for every seed.  Sizes are kept small enough
that a run can time every instance several times (see run.py) and still
hold some thirty instances, so the median and the tail fall inside classes
of several similar instances.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # the library is imported from source

from coarsecover import angles, corpus, flow, graphs, pipeline, rips  # noqa: E402


@dataclass(frozen=True)
class Case:
    """One instance: a graph plus the parameters its chain needs."""

    id: str
    graph: graphs.Graph
    generators: tuple = ()
    theta0_mode: str = "all"
    alpha: int = 1
    tau_max: int = 4
    use_all: bool = True  # flow chain: all angles, else the doubled corner size
    d: int = 0  # rips chain: Rips scale


@dataclass(frozen=True)
class Workload:
    pass_s: float  # one pass over the instance set on 2 x86 vCPUs, Python 3.11
    make: Callable  # rng -> the instance set, a list of Cases
    verdict: Callable  # Case -> output
    properties: Callable  # (Case, output) -> names of failed properties
    digest_text: Callable  # output -> canonical text whose hash is recorded


def relabelled(rng, g, gens):
    """g and its automorphisms gens under a random renaming of vertices."""
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    h = graphs.make_graph(g.vertex_count,
                          [(perm[u], perm[v]) for u, v in g.edges],
                          cone_vertices=[perm[c] for c in g.cone_vertices])
    moved = []
    for gen in gens:
        out = [0] * len(perm)
        for v, w in enumerate(gen):
            out[perm[v]] = perm[w]
        moved.append(tuple(out))
    return h, tuple(moved)


def seed_cases(workload, seed):
    """The instance set of a seed; the same seed gives the same cases."""
    return workload.make(random.Random("coarsecover-%d" % seed))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:8]


# ---------------------------------------------------------------------------
# Pipeline workloads: tree-ladder and equivariant
# ---------------------------------------------------------------------------

# size -> trees.  Over three passes the median falls in the middle of the
# ten n = 20 trees and the tail (the eleventh largest sample) in the middle
# of the seven n = 26 trees, so each is an order statistic of many trees of
# one size, not of the shape of one or two random trees.
TREE_LADDER = {12: 5, 16: 5, 20: 10, 24: 3, 26: 7}

SPIDERS = ((3, 4), (4, 3), (3, 5), (4, 4), (5, 3), (6, 2), (6, 3), (5, 4))
SPIDER_LABELLINGS = 2

CYCLES = (16, 18, 20)  # dihedral groups of order 32, 36 and 40


def tree_ladder(rng):
    cases = []
    for n, count in TREE_LADDER.items():
        for k in range(count):
            cases.append(Case("tree%d-%d" % (n, k),
                              corpus.random_tree(n, rng.randrange(2**31))))
    return cases


def equivariant(rng):
    cases = [Case(name, g, tuple(tuple(p) for p in gens), mode, alpha, tau)
             for name, g, gens, mode, alpha, tau in corpus.pipeline_instances()]
    for k in range(SPIDER_LABELLINGS):
        for legs, leg_len in SPIDERS:
            g, gens = relabelled(rng, corpus.spider(legs, leg_len),
                                  [corpus.spider_rotation(legs, leg_len)])
            cases.append(Case("spider%d-%d-%d" % (legs, leg_len, k), g, gens,
                              "all", 1, 6))
    for k, n in enumerate(CYCLES):
        g, gens = relabelled(rng, corpus.cycle_graph(n),
                              [corpus.cyclic_rotation(n),
                               corpus.cycle_reflection(n)])
        cases.append(Case("c%d-dihedral-%d" % (n, k), g, gens, "seed", 1, 6))
    return cases


def pipeline_verdict(case):
    return pipeline.run_pipeline(case.graph, case.generators,
                                 alpha=case.alpha, tau_max=case.tau_max,
                                 theta0_mode=case.theta0_mode)


def pipeline_properties(case, res):
    return [] if res.ok else ["ok"]


def pipeline_digest_text(res):
    return pipeline.report_json(res.summary())


# ---------------------------------------------------------------------------
# flow-doubling: the criterion-02 chain
# ---------------------------------------------------------------------------


# ladders without gaps, so that no percentile sits between two distant
# clusters of times
FLOW_PATHS = range(16, 41, 2)
FLOW_TREES = range(26, 41, 2)
FLOW_SPINES = range(18, 33, 2)


def flow_doubling(rng):
    cases = [Case(name, g, use_all=use_all)
             for name, g, use_all in corpus.flow_graphs()
             if g.vertex_count < 20]
    for n in FLOW_PATHS:
        cases.append(Case("path%d" % n, corpus.path_graph(n)))
    for n in FLOW_TREES:
        cases.append(Case("tree%d" % n,
                          corpus.random_tree(n, rng.randrange(2**31))))
    for spine in FLOW_SPINES:
        blooms = sorted(rng.sample(range(spine), 3))
        cases.append(Case("caterpillar%d" % spine,
                          corpus.triangle_caterpillar(spine, blooms)))
    return cases


def flow_verdict(case):
    g = case.graph
    sub = graphs.barycentric_subdivision(g)
    index = graphs.GeodesicIndex(sub.graph)
    t3 = angles.theta3(sub, index=index)
    theta = angles.all_angles(g) if case.use_all else angles.k_fold_sum(t3, 2)
    ve = sub.ve_vertices()
    endpoints = ve[::max(1, len(ve) // 8)][:10]
    cf = flow.build_cf_theta(sub, theta, endpoints, index=index,
                             theta3_set=t3)
    return cf, flow.cf_doubling_report(cf, compute_tightest=False)


def flow_properties(case, out):
    cf, rep = out
    m = len(cf.endpoints)
    failed = []
    if not rep["ok"]:
        failed.append("ok")
    if rep["D"] != 5:
        failed.append("D")
    if rep["R"] != 24 * cf.delta_prime + 12:
        failed.append("R")
    if not rep["fibers"] == len(cf.fibers) == m * (m - 1):
        failed.append("fibers")
    return failed


def flow_digest_text(out):
    cf, _ = out
    return repr(sorted(cf.triples))


# ---------------------------------------------------------------------------
# rips-contract: the criterion-06 chain
# ---------------------------------------------------------------------------

# cycle-rich graphs at scales where the complex has hundreds of simplices,
# so build_rips and homology_oracle carry real work
CYCLE_RICH = (
    ("wedge2-8", lambda: corpus.wedge_of_cycles(2, 8), 8),
    ("wedge3-6", lambda: corpus.wedge_of_cycles(3, 6), 6),
    ("barbell8-6", lambda: corpus.barbell(8, 6), 8),
    ("tail8-12", lambda: corpus.cycle_with_tail(8, 12), 8),
    ("theta3-3-4", lambda: corpus.theta_graph(3, 3, 4), 6),
    ("q3", corpus.hypercube3, 4),
    ("grid3", lambda: corpus.grid_graph(3, 3), 8),
    ("c10", lambda: corpus.cycle_graph(10), 8),
)


CYCLE_RICH_LABELLINGS = 2
RIPS_TREES = {32: 2, 40: 2, 48: 2, 64: 1}


def rips_contract(rng):
    cases = [Case(name, g, d=d) for name, g, d in corpus.rips_instances()]
    for k in range(CYCLE_RICH_LABELLINGS):
        for name, make, d in CYCLE_RICH:
            g, _ = relabelled(rng, make(), ())
            cases.append(Case("%s-%d" % (name, k), g, d=d))
    for n, count in RIPS_TREES.items():
        for k in range(count):
            cases.append(Case("tree%d-%d" % (n, k),
                              corpus.random_tree(n, rng.randrange(2**31)),
                              d=4))
    cases.append(Case("path32", corpus.path_graph(32), d=5))
    cases.append(Case("path48", corpus.path_graph(48), d=5))
    for k in range(2):
        blooms = sorted(rng.sample(range(30), 5))
        cases.append(Case("caterpillar30-%d" % k,
                          corpus.triangle_caterpillar(30, blooms), d=4))
    return cases


def rips_verdict(case):
    g = case.graph
    index = graphs.GeodesicIndex(g)
    theta = angles.k_fold_sum(angles.theta3(g, index=index), 7)
    delta = graphs.slimness_constant(g).delta
    trace = rips.contract_subcomplex(sorted(g.vertices), g, case.d, theta,
                                     delta, index=index)
    complex_ = rips.build_rips(g, case.d, theta, index=index)
    betti = rips.homology_oracle(complex_, max(complex_.dimension, 0),
                                 cap=5000)
    return trace, betti


def rips_properties(case, out):
    trace, betti = out
    failed = []
    if not all(m.measure_after < m.measure_before for m in trace.moves):
        failed.append("measure-decreases")
    if betti[0] != 1 or any(betti[1:]):
        failed.append("betti")
    return failed


def rips_digest_text(out):
    trace, betti = out
    moves = [(m.vertex, m.replacement, m.case, m.measure_before,
              m.measure_after) for m in trace.moves]
    return repr((moves, betti))


WORKLOADS = {
    "tree-ladder": Workload(5.8, tree_ladder, pipeline_verdict,
                            pipeline_properties, pipeline_digest_text),
    "equivariant": Workload(5.5, equivariant, pipeline_verdict,
                            pipeline_properties, pipeline_digest_text),
    "flow-doubling": Workload(5.6, flow_doubling, flow_verdict,
                              flow_properties, flow_digest_text),
    "rips-contract": Workload(5.5, rips_contract, rips_verdict,
                              rips_properties, rips_digest_text),
}
