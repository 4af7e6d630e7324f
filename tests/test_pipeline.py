import pytest

from coarsecover import graphs
from coarsecover.angles import k_fold_sum, lemma_battery, theta3
from coarsecover.corpus import (
    battery_graphs,
    cycle_graph,
    grid_graph,
    path_graph,
    pipeline_instances,
    random_tree,
    rips_instances,
    spider,
    spider_rotation,
)
from coarsecover.covers import PairSpace, wide_failures
from coarsecover.graphs import GeodesicIndex, make_graph, slimness_constant
from coarsecover.pipeline import PipelineError, run_pipeline
from coarsecover.rips import contract_subcomplex


class TestPipeline:
    def test_tree_flow_dominated(self):
        res = run_pipeline(path_graph(12), alpha=1, tau_max=4,
                           theta0_mode="all")
        assert res.ok
        assert res.stages["wideness_scan"]["targets"] > 0
        assert res.stages["combined"]["order"] <= \
            res.stages["combined"]["flow_order"] + 3

    def test_spider_cone_dominated(self):
        res = run_pipeline(spider(3, 5), [spider_rotation(3, 5)], alpha=1,
                           tau_max=4)
        assert res.ok
        assert res.stages["dichotomy"]["clauses"]["cone"] > 0

    def test_equivariant_cycle(self):
        res = run_pipeline(cycle_graph(12),
                           [tuple((i + 3) % 12 for i in range(12))],
                           alpha=1, tau_max=6)
        assert res.ok
        assert res.stages["setup"]["group_order"] == 4
        assert res.stages["wideness_scan"]["targets"] > 0
        assert res.stages["flow_space"]["triples"] == \
            len(res.artifacts["cf"].triples)

    def test_marked_cone_vertex(self):
        g = make_graph(9, spider(2, 4).edges, cone_vertices=[0])
        res = run_pipeline(g, alpha=1, tau_max=4, theta0_mode="all")
        assert res.ok
        assert res.stages["dichotomy"]["clauses"]["cone"] > 0

    def test_combined_check_fails_without_a_wide_member(self):
        """Negative control for the final wideness check: dropping the
        members that hold one pair's ball slice makes that pair fail."""
        alpha = 1
        res = run_pipeline(spider(3, 5), [spider_rotation(3, 5)],
                           alpha=alpha, tau_max=4)
        assert res.ok
        G = res.instance.sub_group
        domain = [(ge, xi) for ge in G.elements
                  for xi in res.instance.cone_targets()]
        sets = res.artifacts["combined"].member_sets()
        assert list(wide_failures(sets, G, alpha, domain)) == []
        ge, xi = domain[-1]
        need = {(h, xi) for h in G.ball(alpha, center=ge)}
        assert len(need) > 1
        kept = [m for m in sets if not need <= m]
        assert len(kept) < len(sets)
        assert (ge, xi) in wide_failures(kept, G, alpha, domain)

    def test_disconnected_rejected(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(PipelineError, match="disconnected"):
            run_pipeline(g)

    def test_bad_theta0_mode(self):
        with pytest.raises(ValueError, match="theta0_mode"):
            run_pipeline(path_graph(4), theta0_mode="bogus")

    def test_stage_reports_are_complete(self):
        res = run_pipeline(random_tree(10, seed=4), theta0_mode="all",
                           tau_max=3)
        assert res.ok
        for key in ("setup", "theta3", "cone", "dichotomy", "flow_space",
                    "flow_doubling", "flow_cover", "wideness_scan",
                    "combined"):
            assert key in res.stages
        assert res.stages["flow_space"]["triples"] == \
            len(res.artifacts["cf"].triples)


def test_pipeline_never_builds_the_pair_set(monkeypatch):
    """The flow cover and its verification read the pair space's fibers:
    run_pipeline never derives PairSpace.pairs, on a tree or under a
    group."""
    def refuse(space):
        raise AssertionError("the pair set was built")

    monkeypatch.setattr(PairSpace, "pairs", property(refuse))
    res = run_pipeline(random_tree(14, seed=5), alpha=1, tau_max=4,
                       theta0_mode="all")
    assert res.ok and res.stages["flow_cover"]["members"] > 0
    name, g, gens, mode, alpha, tau = next(
        c for c in pipeline_instances() if c[0] == "marked-cone-rot")
    res = run_pipeline(g, gens, alpha=alpha, tau_max=tau, theta0_mode=mode)
    assert res.ok and res.stages["flow_cover"]["members"] > 0


def test_pipeline_and_contraction_build_no_geodesic_dag(monkeypatch):
    """Geodesics are read off distance rows: the pipeline under a group,
    the contraction, through its angle, far and base folds, and the lemma
    battery on every battery graph never build a geodesic DAG."""
    def refuse(*args):
        raise AssertionError("a geodesic DAG was built")

    monkeypatch.setattr(GeodesicIndex, "dag", refuse)
    monkeypatch.setattr(graphs, "geodesic_dag", refuse)
    name, g, gens, mode, alpha, tau = next(
        c for c in pipeline_instances() if c[0] == "marked-cone-rot")
    assert run_pipeline(g, gens, alpha=alpha, tau_max=tau,
                        theta0_mode=mode).ok
    tree = next(c for c in rips_instances() if c[0] == "tree")
    # the ladder makes far folds, the tree angle folds
    cases = set()
    for g, d in (tree[1:], (grid_graph(2, 8), 4)):
        theta = k_fold_sum(theta3(g), 7)
        trace = contract_subcomplex(sorted(g.vertices), g, d, theta,
                                    slimness_constant(g).delta)
        cases |= {m.case for m in trace.moves}
    assert cases == {"angle-fold", "far-fold", "base-fold"}
    for name, g in battery_graphs():
        assert lemma_battery(g, theta3(g), 200, seed=1).ok, name
