import random
from dataclasses import fields
from pathlib import Path

import pytest

from coarsecover import angles, flow, graphs, pipeline, symmetry
from coarsecover.angles import all_angles, k_fold_sum, lemma_battery, theta3
from coarsecover.cones import seed_theta0
from coarsecover.corpus import (
    battery_graphs,
    cycle_graph,
    cycle_reflection,
    cyclic_rotation,
    dihedral_group,
    grid_graph,
    path_graph,
    pipeline_instances,
    random_tree,
    rips_instances,
    spider,
    spider_rotation,
)
from coarsecover.covers import CoverMember, PairSpace, Slices, wide_failures
from coarsecover.flow import build_cf_theta
from coarsecover.graphs import GeodesicIndex, barycentric_subdivision, \
    canon_edge, make_graph, slimness_constant
from coarsecover.pipeline import PipelineError, build_instance, run_pipeline, \
    select_theta0
from coarsecover.rips import contract_subcomplex
from oracles import ball_tuples, encoded


class TestPipeline:
    def test_tree_flow_dominated(self):
        res = run_pipeline(path_graph(12), (), alpha=1, tau_max=4,
                           theta0_mode="all")
        assert res.ok
        assert res.stages["wideness_scan"]["targets"] > 0
        assert res.stages["combined"]["order"] <= \
            res.stages["combined"]["flow_order"] + 3

    def test_spider_cone_dominated(self):
        res = run_pipeline(spider(3, 5), [spider_rotation(3, 5)], alpha=1,
                           tau_max=4, theta0_mode="seed")
        assert res.ok
        assert res.stages["dichotomy"]["clauses"]["cone"] > 0

    def test_equivariant_cycle(self):
        res = run_pipeline(cycle_graph(12),
                           [tuple((i + 3) % 12 for i in range(12))],
                           alpha=1, tau_max=6, theta0_mode="seed")
        assert res.ok
        assert res.stages["setup"]["group_order"] == 4
        assert res.stages["wideness_scan"]["targets"] > 0
        assert res.stages["flow_space"]["triples"] == \
            len(res.artifacts["cf"].triples)

    def test_marked_cone_vertex(self):
        g = make_graph(9, spider(2, 4).edges, cone_vertices=[0])
        res = run_pipeline(g, (), alpha=1, tau_max=4, theta0_mode="all")
        assert res.ok
        assert res.stages["dichotomy"]["clauses"]["cone"] > 0

    def test_combined_check_fails_without_a_wide_member(self):
        """Negative control for the final wideness check: dropping the
        members that hold one pair's ball slice makes that pair fail."""
        alpha = 1
        res = run_pipeline(spider(3, 5), [spider_rotation(3, 5)],
                           alpha=alpha, tau_max=4, theta0_mode="seed")
        assert res.ok
        G = res.instance.sub_group
        domain = [(ge, xi) for ge in G.elements
                  for xi in res.instance.cone_targets()]
        sets = res.artifacts["combined"].member_slices()
        assert list(wide_failures(sets, G, alpha, domain)) == []
        ge, xi = domain[-1]
        ball = frozenset(ball_tuples(G, alpha, ge))
        assert len(ball) > 1
        need = encoded(G.elements, {xi: ball})[xi]
        kept = [m for m in sets if need & ~m.get(xi, 0)]
        assert len(kept) < len(sets)
        assert (ge, xi) in wide_failures(kept, G, alpha, domain)

    def test_disconnected_rejected(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(PipelineError, match="disconnected"):
            run_pipeline(g, (), alpha=1, tau_max=8, theta0_mode="seed")

    def test_bad_theta0_mode(self):
        with pytest.raises(ValueError, match="theta0_mode"):
            run_pipeline(path_graph(4), (), alpha=1, tau_max=8,
                         theta0_mode="bogus")

    @pytest.mark.parametrize("case", pipeline_instances(),
                             ids=[c[0] for c in pipeline_instances()])
    def test_theta0_mode_all_is_every_angle(self, case):
        """Mode 'all' gives every angle without the seed, which every angle
        contains, so the union the mode stands for is every angle."""
        name, g, gens, mode, alpha, tau = case
        inst = build_instance(g, gens)
        theta0 = select_theta0(inst, 1, "all")
        assert theta0 == all_angles(g)
        assert seed_theta0(inst, 1) <= theta0

    def test_stage_reports_are_complete(self):
        res = run_pipeline(random_tree(10, seed=4), (), alpha=1, tau_max=3,
                           theta0_mode="all")
        assert res.ok
        for key in ("setup", "theta3", "cone", "dichotomy", "flow_space",
                    "flow_doubling", "flow_cover", "wideness_scan",
                    "combined"):
            assert key in res.stages
        assert res.stages["flow_space"]["triples"] == \
            len(res.artifacts["cf"].triples)


def test_pipeline_never_builds_the_pair_set(monkeypatch):
    """The flow cover, its verification, the pullback and the combined
    cover read fibers and slices: a pair space has no pair set, and
    run_pipeline never derives a member's pairs (v, z), on a tree or under
    a group.  Every member it keeps holds slices {z: mask of v}: over a
    fiber class, a mask of midpoint positions inside the class's fiber,
    and on the group side a mask over the group's elements."""
    def refuse(member, v_points):
        raise AssertionError("a member's pairs were built")

    assert not hasattr(PairSpace, "pairs")
    assert [f.name for f in fields(CoverMember)] == \
        ["slices", "stabilizer", "orbit_rep"]
    monkeypatch.setattr(CoverMember, "points", refuse)
    name, g, gens, mode, alpha, tau = next(
        c for c in pipeline_instances() if c[0] == "marked-cone-rot")
    for res in (run_pipeline(random_tree(14, seed=5), (), alpha=1,
                             tau_max=4, theta0_mode="all"),
                run_pipeline(g, gens, alpha=alpha, tau_max=tau,
                             theta0_mode=mode)):
        assert res.ok and res.stages["flow_cover"]["members"] > 0
        # class number -> its fiber
        fibers = {r: f for f, r in res.artifacts["cf"].classes.items()}
        shift = res.instance.sub.original.vertex_count
        for m in res.artifacts["flow_cover"].members:
            assert isinstance(m.slices, Slices) and m.slices
            assert all(vs and vs & ~(fibers[z] >> shift) == 0
                       for z, vs in m.slices.items())
        group = 1 << len(res.instance.sub_group.elements)
        for m in res.artifacts["combined"].members:
            assert isinstance(m.slices, Slices)
            assert all(0 < vs < group for vs in m.slices.values())


def test_covers_close_no_group_by_permutations(monkeypatch):
    """greedy_cover and verify_cover read the group by number: a C20
    dihedral pipeline composes no permutation inside either, while the
    wrapper sees the products close_group composes."""
    compose, stack, calls = symmetry.compose, [], []

    def counted(p, q):
        calls.append(stack[-1] if stack else None)
        return compose(p, q)

    def inside(name, fn):
        def run(*args, **kwargs):
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return run

    monkeypatch.setattr(symmetry, "compose", counted)
    monkeypatch.setattr(flow, "greedy_cover",
                        inside("greedy_cover", flow.greedy_cover))
    monkeypatch.setattr(pipeline, "verify_cover",
                        inside("verify_cover", pipeline.verify_cover))
    res = run_pipeline(cycle_graph(20),
                       [cyclic_rotation(20), cycle_reflection(20)],
                       alpha=1, tau_max=6, theta0_mode="seed")
    assert res.ok and res.stages["flow_cover"]["members"] > 0
    assert calls and set(calls) == {None}


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
        theta = k_fold_sum(theta3(g, GeodesicIndex(g)), 7)
        trace = contract_subcomplex(sorted(g.vertices), g, d, theta,
                                    slimness_constant(g).delta,
                                    GeodesicIndex(g))
        cases |= {m.case for m in trace.moves}
    assert cases == {"angle-fold", "far-fold", "base-fold"}
    for name, g in battery_graphs():
        index = GeodesicIndex(g)
        assert lemma_battery(g, theta3(g, index), 200, seed=1,
                             index=index).ok, name


def test_slimness_scans_only_blocks_of_more_than_3_vertices(monkeypatch):
    """Slimness is measured block by block: on a tree the pipeline and the
    flow space's slimness fallback compute no maximin column, and on a C8
    glued to a long path the delta computes columns on the C8 alone, from
    the two ends of its first side."""
    columns = []
    maximin_columns = graphs._maximin_columns

    def spy(g, dist, x):
        columns.append((g.vertex_count, x))
        return maximin_columns(g, dist, x)

    monkeypatch.setattr(graphs, "_maximin_columns", spy)
    tree = random_tree(24, 5)
    assert run_pipeline(tree, (), alpha=1, tau_max=8, theta0_mode="seed").ok
    sub = barycentric_subdivision(tree)
    index = GeodesicIndex(sub.graph)
    t3 = theta3(sub, index=index)
    build_cf_theta(sub, k_fold_sum(t3, 2), sub.ve_vertices()[::6],
                   index=index, theta3_set=t3)
    assert columns == []
    c8_path = make_graph(24, [(v, (v + 1) % 8) for v in range(8)]
                         + [(v, v + 1) for v in range(7, 23)])
    assert slimness_constant(c8_path).delta == 2
    assert columns == [(8, 0), (8, 4)]


def test_theta3_makes_one_dominator_sweep_per_corner(monkeypatch):
    """Under the dihedral group of the 20-cycle, theta3 sweeps once from
    each of the 40 corners of the subdivided block, and counts no
    geodesics: no module of the package names geodesic_counts."""
    sources = []
    sweep = angles.geodesic_dominators

    def spy(g, dp, vertices, bit):
        sources.append(dp.index(0))
        return sweep(g, dp, vertices, bit)

    monkeypatch.setattr(angles, "geodesic_dominators", spy)
    build_instance(cycle_graph(20), dihedral_group(20).generators)
    assert sorted(sources) == list(range(40))
    assert [p.name for p in Path(angles.__file__).parent.glob("*.py")
            if "geodesic_counts" in p.read_text()] == []


def test_theta3_runs_one_apex_per_orbit(monkeypatch):
    """Under the dihedral group of the 20-cycle, theta3 runs its apex loop
    at the one orbit representative, vertex 0; with no group, at all 20
    vertices.  The corner size is the same."""
    apexes = []
    corner_angles = angles._corner_angles

    def spy(sub, g, dist, block_apexes, corners):
        apexes.extend(block_apexes)
        return corner_angles(sub, g, dist, block_apexes, corners)

    monkeypatch.setattr(angles, "_corner_angles", spy)
    g = cycle_graph(20)
    t3 = build_instance(g, dihedral_group(20).generators).t3
    assert apexes == [0]
    apexes.clear()
    assert build_instance(g, ()).t3 == t3
    assert apexes == list(range(20))


# ---------------------------------------------------------------------------
# Renaming the vertices
# ---------------------------------------------------------------------------

# the corpus runs, and random trees and spiders with their groups, as
# (name, graph, generators, theta0_mode, alpha, tau_max)
RENAMED_CASES = pipeline_instances() + [
    ("tree14-s4", random_tree(14, 4), [], "all", 1, 4),
    ("tree20-s11", random_tree(20, 11), [], "all", 1, 4),
    ("spider3-4", spider(3, 4), [spider_rotation(3, 4)], "seed", 1, 4),
    ("spider5-3", spider(5, 3), [spider_rotation(5, 3)], "all", 1, 4),
]
# the stages up to the flow space's doubling report, which read no choice
# that follows the labels but the base vertex, the least edge's midpoint
STAGES_THROUGH_DOUBLING = ("setup", "theta3", "cone", "dichotomy",
                           "flow_space", "flow_doubling")


def renamed(g, gens, perm):
    """g and its generators under the renaming v -> perm[v]."""
    h = make_graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges],
                   [perm[c] for c in g.cone_vertices],
                   {perm[v]: label for v, label in g.labels.items()})
    moved = []
    for gen in gens:
        out = [0] * len(perm)
        for v, w in enumerate(gen):
            out[perm[v]] = perm[w]
        moved.append(tuple(out))
    return h, moved


@pytest.mark.parametrize("name, g, gens, mode, alpha, tau_max",
                         RENAMED_CASES, ids=[c[0] for c in RENAMED_CASES])
def test_renaming_the_vertices(name, g, gens, mode, alpha, tau_max):
    """A renaming that sends the ends of the least edge to 0 and 1 keeps
    the base vertex the least edge's midpoint: every stage through the
    flow doubling report is the same, the base vertex mapped.  A free
    renaming moves the base vertex, and the verdict is the same."""
    rng = random.Random(name)

    def run(h, hgens):
        return run_pipeline(h, hgens, alpha=alpha, tau_max=tau_max,
                            theta0_mode=mode)

    res = run(g, gens)
    a, b = min(g.edges)
    for _ in range(2):
        rest = [v for v in g.vertices if v not in (a, b)]
        rng.shuffle(rest)
        perm = [0] * g.vertex_count
        for k, v in enumerate([a, b] + rest):
            perm[v] = k
        moved = run(*renamed(g, gens, perm))
        u, w = res.instance.sub.edge_of_midpoint[res.instance.v0]
        want = {k: res.stages.get(k) for k in STAGES_THROUGH_DOUBLING}
        want["setup"] = dict(want["setup"], base_vertex=moved.instance.sub
                             .midpoint_of_edge[canon_edge(perm[u], perm[w])])
        assert {k: moved.stages.get(k) for k in STAGES_THROUGH_DOUBLING} \
            == want
        assert moved.ok == res.ok
        free = list(g.vertices)
        rng.shuffle(free)
        assert run(*renamed(g, gens, free)).ok == res.ok


# ---------------------------------------------------------------------------
# Reordering the generators
# ---------------------------------------------------------------------------


def _twice(p):
    return tuple(p[p[v]] for v in range(len(p)))


# cycles under [rotation, reflection] and spiders under [r, r^2], as
# (name, graph, generators)
REORDERED_CASES = [
    ("c%d" % n, cycle_graph(n), [cyclic_rotation(n), cycle_reflection(n)])
    for n in (8, 12, 16)] + [
    ("spider%d-%d" % (legs, leg_len), spider(legs, leg_len),
     [spider_rotation(legs, leg_len),
      _twice(spider_rotation(legs, leg_len))])
    for legs, leg_len in ((3, 4), (4, 3))]


@pytest.mark.parametrize("name, g, gens", REORDERED_CASES,
                         ids=[c[0] for c in REORDERED_CASES])
def test_reordering_the_generators(name, g, gens):
    """The same generators in the reverse order close the same group and
    give the same word metric, so every stage is the same."""
    def run(order):
        return run_pipeline(g, order, alpha=1, tau_max=8,
                            theta0_mode="seed").summary()

    assert run(gens) == run(gens[::-1])
