import random
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from coarsecover.angles import (
    SmallnessOracle,
    all_angles,
    angle_set_from_triples,
    angle_sum,
    cone_sweep,
    k_fold_sum,
    small_steps,
    trivial_only,
)
from coarsecover import cones as cones_module
from coarsecover.cones import (
    cone_cover,
    cone_sets_as_cover,
    combined_cover,
    dichotomy_check,
    interior_certificate,
    seed_theta0,
)
from coarsecover.corpus import (
    cycle_graph,
    cycle_reflection,
    cyclic_rotation,
    path_graph,
    pipeline_instances,
    random_tree,
    spider,
    spider_rotation,
    triangle_caterpillar,
    wedge_of_cycles,
)
from coarsecover.covers import Cover, CoverMember, slices_of, wide_failures
from coarsecover import pipeline
from coarsecover.graphs import INF, GeodesicIndex, barycentric_subdivision, \
    make_graph
from coarsecover.pipeline import build_instance, run_pipeline, \
    select_theta0
from coarsecover.symmetry import compose
from oracles import cone_cover_per_apex, cone_member_brute, \
    cone_sweep_reference, interior_certificate_brute, leg_reflection, \
    perfbench_module, rank, seed_theta0_reference

workloads = perfbench_module("workloads")


def setup(g, gens=()):
    inst = build_instance(g, gens)
    return inst, inst.sub, inst.sub_group, inst.v0


def big_size(inst, theta):
    """interior_certificate's big size for the size theta: theta with the
    doubled corner size."""
    return angle_sum(theta, k_fold_sum(inst.t3_sums[1], 2))


class TestVplus:
    def test_apex_endpoint_with_small_approach(self):
        g = path_graph(5)
        inst, sub, Gs, v0 = setup(g)
        e = 0
        # v0 = midpoint of (0,1); apex 1 is half a unit away
        assert cone_member_brute(inst, e, 1, 1, trivial_only(g))

    def test_all_angles_never_large(self):
        g = wedge_of_cycles(2, 6)
        inst, sub, Gs, v0 = setup(g)
        e = 0
        xi = sub.midpoint_of_edge[(6, 7)]
        assert not cone_member_brute(inst, e, xi, 0, all_angles(g))

    def test_planted_cut_vertex(self):
        g = wedge_of_cycles(2, 6)
        inst, sub, Gs, v0 = setup(g)
        theta = k_fold_sum(inst.t3_sums[1], 2)
        e = 0
        xi = sub.midpoint_of_edge[(6, 7)]  # inside the far cycle
        assert cone_member_brute(inst, e, xi, 0, theta)

    def test_blocked_approach_fails_first_clause(self):
        g = wedge_of_cycles(2, 6)
        inst, sub, Gs, v0 = setup(g)
        theta = k_fold_sum(inst.t3_sums[1], 2)
        e = 0
        # reaching an apex inside the far cycle crosses the cut vertex with
        # a large angle, so the first clause fails
        assert not cone_member_brute(inst, e, 0, 7, theta)


class TestInteriorCertificate:
    def test_large_by_margin_fires_first_condition(self):
        g = wedge_of_cycles(2, 6)
        inst, sub, Gs, v0 = setup(g)
        theta = k_fold_sum(inst.t3_sums[1], 2)
        e = 0
        xi = sub.midpoint_of_edge[(6, 7)]
        # the crossing angle at the cut vertex avoids theta + 2 corners
        assert interior_certificate(inst, e, xi, 0, theta,
                                    big_size(inst, theta))

    def test_second_condition_with_two_large_turns(self):
        g = triangle_caterpillar(6, [1, 3])
        inst, sub, Gs, v0 = setup(g)
        bloom1 = 7  # bloom vertex of the triangle at spine position 1
        theta = angle_set_from_triples(g, [(0, 1, bloom1)])
        e = 0
        xi = sub.midpoint_of_edge[(5, 6)]
        # spine angle at apex 1 is theta-large but (theta + 2 corners)-small,
        # and the spine angle at 3 on the same flow line is twice-corner-large
        assert cone_member_brute(inst, e, xi, 1, theta)
        assert interior_certificate(inst, e, xi, 1, theta,
                                    big_size(inst, theta))

    def test_the_apex_turn_is_not_a_later_turn(self):
        # the reach clause decides here (hypothesis's shrunk case for the
        # mutant that drops it): the one geodesic from v0, the midpoint of
        # (0, 1), to 3 turns (1, 0, 3) at the apex 0, theta-large and
        # twice-corner-large, but no original vertex lies beyond the apex
        g = make_graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4)])
        inst, sub, Gs, v0 = setup(g)
        theta = angle_set_from_triples(g, [(2, 0, 3)])
        e = 0
        assert sub.edge_of_midpoint[v0] == (0, 1)
        assert cone_member_brute(inst, e, 3, 0, theta)
        assert not interior_certificate_brute(inst, e, 3, 0, theta)
        assert not interior_certificate(inst, e, 3, 0, theta,
                                        big_size(inst, theta))

    def test_no_geodesic_no_certificate(self):
        g = path_graph(5)
        inst, sub, Gs, v0 = setup(g)
        e = 0
        xi = sub.midpoint_of_edge[(3, 4)]
        theta = all_angles(g)
        assert not interior_certificate(inst, e, xi, 2, theta,
                                        big_size(inst, theta))


SEED_CASES = [case[:3] for case in pipeline_instances()] + [
    ("c%d-dihedral" % n, cycle_graph(n),
     [cyclic_rotation(n), cycle_reflection(n)]) for n in (12, 16, 20)] + [
    ("spider%d-%d-rot" % legs, spider(*legs), [spider_rotation(*legs)])
    for legs in ((3, 4), (4, 3), (5, 2))]


@pytest.mark.parametrize("name, g, gens", SEED_CASES,
                         ids=[c[0] for c in SEED_CASES])
def test_seed_theta0_from_v0_matches_every_ball_translate(name, g, gens):
    inst = setup(g, gens)[0]
    for alpha in (1, 2):
        assert seed_theta0(inst, alpha) == seed_theta0_reference(inst, alpha)


def build_cones(g, gens=(), alpha=1, theta0=None):
    inst, sub, Gs, v0 = setup(g, gens)
    if theta0 is None:
        theta0 = seed_theta0(inst, alpha)
    xi_set = tuple(sorted(set(g.cone_vertices) | set(sub.ve_vertices())))
    cones, oracle = cone_cover(inst, theta0, xi_set)
    return inst, sub, Gs, v0, xi_set, cones, oracle


class TestConeCover:
    def test_tree_order_bound(self):
        g = random_tree(10, seed=6)
        inst, sub, Gs, v0, xi, cones, oracle = build_cones(g)
        dom = [(ge, x) for ge in range(len(Gs)) for x in xi]
        cov = cone_sets_as_cover(cones, Gs, dom)
        assert cov.order <= 2

    def test_spider_nontrivial_cones(self):
        g = spider(3, 4)
        inst, sub, Gs, v0, xi, cones, oracle = build_cones(
            g, [spider_rotation(3, 4)])
        assert cones
        dom = [(ge, x) for ge in range(len(Gs)) for x in xi]
        cov = cone_sets_as_cover(cones, Gs, dom)
        assert cov.order <= 2

    def test_same_layer_distinct_apexes_disjoint(self):
        g = triangle_caterpillar(8, [2, 5])
        inst, sub, Gs, v0, xi, cones, oracle = build_cones(g)
        by_layer = {}
        for c in cones:
            by_layer.setdefault(c.layer, []).append(c)
        for layer, group_ in by_layer.items():
            for i, a in enumerate(group_):
                for b in group_[i + 1:]:
                    assert a.apex != b.apex
                    assert not (a.members & b.members)

    def test_translate_overlap_forces_fixed_apex(self):
        g = spider(3, 4)
        inst, sub, Gs, v0, xi, cones, oracle = build_cones(
            g, [spider_rotation(3, 4)])
        number = rank(Gs)
        for c in cones:
            for h in Gs.elements:
                moved = {(number[compose(h, Gs.elements[ge])], h[x])
                         for (ge, x) in c.members}
                peers = [d for d in cones
                         if d.layer == c.layer and d.apex == h[c.apex]]
                if h[c.apex] != c.apex:
                    assert not (moved & c.members) or peers
                for d in cones:
                    if d.layer == c.layer and moved == d.members:
                        assert d.apex == h[c.apex]

    def test_base_vertex_translation_covariance(self):
        g = spider(3, 4)
        gens = [spider_rotation(3, 4)]
        inst, sub, Gs, v0, xi, cones, oracle = build_cones(g, gens)
        r, number = Gs.elements[1], rank(Gs)
        moved = replace(inst, v0=r[v0])
        theta0 = seed_theta0(moved, 1)
        cones2, _ = cone_cover(moved, theta0, xi)
        expect = {
            (c.apex, c.layer):
            frozenset((number[compose(Gs.elements[ge], r)], x)
                      for (ge, x) in c.members)
            for c in cones}
        got = {(c.apex, c.layer): c.members for c in cones2}
        assert got == expect


CONE_PARITY_CASES = [
    ("path5", path_graph(5), [], "seed"),
    ("tree9", random_tree(9, seed=8), [], "seed"),
    ("wedge2-4", wedge_of_cycles(2, 4), [], "seed"),
    ("caterpillar6", triangle_caterpillar(6, [1, 3]), [], "seed"),
    ("spider3-3-rot", spider(3, 3), [spider_rotation(3, 3)], "seed"),
    # no cone set on a cycle: everything turns small
    ("c8-dihedral", cycle_graph(8), [cyclic_rotation(8), cycle_reflection(8)],
     "seed"),
    # the reflection fixes the first leg: apexes with stabilisers of order
    # 2 and 6, and translates by reflections
    ("spider3-3-dihedral", spider(3, 3),
     [spider_rotation(3, 3), leg_reflection(3, 3)], "seed"),
    ("spider3-4-rot-relabelled", *workloads.relabelled(
        random.Random(1), spider(3, 4), [spider_rotation(3, 4)]), "seed"),
] + [(name, g, gens, mode)
     for name, g, gens, mode, _alpha, _tau in pipeline_instances()
     if g.vertex_count <= 16]


@pytest.mark.parametrize("name, g, gens, mode", CONE_PARITY_CASES,
                         ids=[c[0] for c in CONE_PARITY_CASES])
def test_cone_layers_match_the_definition(name, g, gens, mode):
    """Each layer's member set is exactly the pairs meeting both clauses
    of the cone-set definition at that layer's size, and its certified
    pairs are exactly the members meeting the interior certificate, at
    alpha 0 and 1.  At alpha 0 the seeded theta0 is smallest, so the most
    pairs turn large."""
    inst = build_instance(g, gens)
    xi_set = inst.cone_targets()
    for alpha in (0, 1):
        theta0 = select_theta0(inst, alpha, mode)
        cones, _ = cone_cover(inst, theta0, xi_set)
        x = angle_sum(theta0, k_fold_sum(inst.t3_sums[1], 3))
        got = {(c.apex, c.layer): c for c in cones}
        for apex in inst.sub.v_vertices():
            for layer, k in ((1, 2), (2, 5), (3, 6)):
                size = k_fold_sum(x, k)
                want = frozenset(
                    (g, xi) for g in range(len(inst.sub_group))
                    for xi in xi_set
                    if cone_member_brute(inst, g, xi, apex, size))
                c = got.get((apex, layer))
                assert (c.members if c else frozenset()) == want, \
                    (alpha, apex, layer)
                if c:
                    assert c.certified_interior == frozenset(
                        (g, xi) for g, xi in c.members
                        if interior_certificate_brute(
                            inst, g, xi, apex, size)), (alpha, apex, layer)


C16_DIHEDRAL = next(c for c in workloads.seed_cases(
    workloads.WORKLOADS["equivariant"], 1) if c.id == "c16-dihedral-0")
PER_APEX_CASES = CONE_PARITY_CASES + [
    ("c16-dihedral-0", C16_DIHEDRAL.graph, C16_DIHEDRAL.generators,
     C16_DIHEDRAL.theta0_mode)]


@pytest.mark.parametrize("name, g, gens, mode", PER_APEX_CASES,
                         ids=[c[0] for c in PER_APEX_CASES])
def test_cone_cover_matches_the_per_apex_construction(name, g, gens, mode):
    """Reading each vertex's base row from v0 and translating it by every
    group element gives the same list, in the same order, with the same
    companion size, as building every apex and every group element on its
    own, at alpha 0 and 1."""
    inst = build_instance(g, gens)
    xi_set = inst.cone_targets()
    for alpha in (0, 1):
        theta0 = select_theta0(inst, alpha, mode)
        cones, oracle = cone_cover(inst, theta0, xi_set)
        assert (cones, oracle.size) == \
            cone_cover_per_apex(inst, theta0, xi_set), alpha


def test_cone_cover_refuses_a_size_or_targets_the_group_moves():
    g = spider(3, 3)
    inst = build_instance(g, [spider_rotation(3, 3)])
    theta0 = seed_theta0(inst, 1)
    xi_set = inst.cone_targets()
    assert cone_cover(inst, theta0, xi_set)[0]
    # the rotation takes the turn at the first leg's inner vertex elsewhere
    with pytest.raises(ValueError, match="theta0 is not invariant"):
        cone_cover(inst, angle_set_from_triples(g, [(0, 1, 2)]), xi_set)
    moved = next(xi for xi in xi_set
                 if inst.sub_group.generators[0][xi] != xi)
    with pytest.raises(ValueError, match="targets are not invariant"):
        cone_cover(inst, theta0, (moved,))


@pytest.mark.parametrize("name, g, gens, mode", CONE_PARITY_CASES,
                         ids=[c[0] for c in CONE_PARITY_CASES])
def test_interior_certificates_match_the_definition(name, g, gens, mode):
    """At each layer's size, the certificate of every pair and apex is
    exactly its two conditions read off every geodesic."""
    inst = build_instance(g, gens)
    x = angle_sum(select_theta0(inst, 1, mode), k_fold_sum(inst.t3_sums[1], 3))
    for k in (2, 5, 6):
        size = k_fold_sum(x, k)
        big = big_size(inst, size)
        for apex in inst.sub.v_vertices():
            for g in range(len(inst.sub_group)):
                for xi in inst.cone_targets():
                    assert interior_certificate(
                        inst, g, xi, apex, size, big) == \
                        interior_certificate_brute(inst, g, xi, apex, size), \
                        (k, apex, xi)


@st.composite
def graphs_with_sizes(draw):
    """A connected graph on at most 7 vertices and a random size on it."""
    n = draw(st.integers(2, 7))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    edges |= draw(st.sets(st.sampled_from(list(combinations(range(n), 2))),
                          max_size=4))
    g = make_graph(n, edges)
    angles = sorted(all_angles(g).nontrivial)
    chosen = draw(st.sets(st.sampled_from(angles))) if angles else set()
    return g, angle_set_from_triples(g, chosen)


@settings(max_examples=60, deadline=None)
@given(graphs_with_sizes())
def test_interior_certificate_matches_the_definition_on_random_graphs(gt):
    g, theta = gt
    inst = build_instance(g, ())
    e = 0
    big = big_size(inst, theta)
    for apex in inst.sub.v_vertices():
        for xi in inst.sub.graph.vertices:
            assert interior_certificate(inst, e, xi, apex, theta, big) == \
                interior_certificate_brute(inst, e, xi, apex, theta)


@settings(max_examples=60, deadline=None)
@given(graphs_with_sizes(), st.booleans(), st.randoms())
def test_cone_sweep_matches_a_turn_scan_per_target(gt, subdivided, rng):
    """clean and large of the sweep from every source agree, at every
    vertex and apex, with geodesic_turns read target by target, on the
    graph or on its subdivision, for every target and for a random mask
    of targets."""
    g, theta = gt
    sub = barycentric_subdivision(g) if subdivided else None
    index = GeodesicIndex(sub.graph if sub else g)
    oracle = SmallnessOracle(sub or g, theta)
    every = (1 << index.graph.vertex_count) - 1
    for x in index.graph.vertices:
        clean, large = cone_sweep_reference(index, sub, theta, x)
        assert cone_sweep(index, oracle, x, every) == (clean, large), x
        mask = rng.getrandbits(index.graph.vertex_count)
        assert cone_sweep(index, oracle, x, mask) == \
            (clean, [m & mask for m in large]), (x, mask)


def spy(monkeypatch, name):
    """Record the arguments of every call the cones module makes to name."""
    calls, real = [], getattr(cones_module, name)

    def wrapped(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(cones_module, name, wrapped)
    return calls


@pytest.mark.parametrize("g, gens, mode", [
    (random_tree(12, seed=3), [], "all"),
    (spider(3, 4), [spider_rotation(3, 4)], "seed")],
    ids=["tree12-all", "spider3-4-rot-seed"])
def test_cone_cover_sweeps_once_per_size_from_v0(monkeypatch, g, gens, mode):
    """One cone_sweep per distinct layer size, every one from v0, the
    layer sizes read off one partial_sums run over X, the corner sums off
    the instance, and certificates checked at the identity only.  Under
    theta0 all no pair turns large, so no geodesic is scanned."""
    inst = build_instance(g, gens)
    theta0 = select_theta0(inst, 1, mode)
    x = angle_sum(theta0, k_fold_sum(inst.t3_sums[1], 3))
    sizes = {size.nontrivial: size
             for size in (k_fold_sum(x, k) for k in (2, 5, 6))}
    exits = [SmallnessOracle(inst.sub, size).exits for size in sizes.values()]
    sweeps = spy(monkeypatch, "cone_sweep")
    turns = spy(monkeypatch, "geodesic_turns")
    runs = spy(monkeypatch, "partial_sums")
    certs = spy(monkeypatch, "interior_certificate")
    cones, _ = cone_cover(inst, theta0, inst.cone_targets())
    assert [src for _, _, src, _ in sweeps] == [inst.v0] * len(sizes)
    assert sorted(oracle.exits for _, oracle, _, _ in sweeps) == sorted(exits)
    assert {args[1] for args in certs} <= {0}
    assert runs == [(x,)]
    if mode == "all":
        assert not turns
        assert not certs
        assert not any(c.certified_interior for c in cones)
    else:
        assert certs
        assert any(c.certified_interior for c in cones)


@pytest.mark.parametrize("name, g, gens, mode", CONE_PARITY_CASES,
                         ids=[c[0] for c in CONE_PARITY_CASES])
def test_dichotomy_matches_a_sweep_per_translate(monkeypatch, name, g, gens,
                                                 mode):
    """With every other cone set left out, or all of them, each pair the
    kept sets do not cover passes exactly when a sweep from its own g v0
    finds a small geodesic to xi, and fails in order otherwise; a call
    sweeps at most once, from v0.  Every midpoint is a target, so a sweep
    read at g xi in place of g^-1 xi changes some verdict."""
    inst = build_instance(g, gens)
    elements, v0 = inst.sub_group.elements, inst.v0
    xi_set = tuple(sorted(set(g.cone_vertices) | set(inst.sub.ve_vertices())))
    cones, handed = cone_cover(inst, select_theta0(inst, 1, mode), xi_set)
    oracle = SmallnessOracle(inst.sub, handed.size)
    for kept in (cones[::2], []):
        sweeps = spy(monkeypatch, "small_steps")
        built = spy(monkeypatch, "SmallnessOracle")
        rep = dichotomy_check(inst, handed, 1, kept, xi_set)
        # the sweep reads the oracle cone_cover handed over, and none is
        # built again
        assert [(o, src) for o, src, _ in sweeps] in ([], [(handed, v0)])
        assert built == []
        uncovered = list(wide_failures(
            [slices_of(c.members) for c in kept], inst.sub_group, 1,
            [(g, xi) for g in range(len(elements)) for xi in xi_set]))
        assert rep["failures"] == [
            (g, xi) for g, xi in uncovered
            if elements[g][v0] != xi
            and not small_steps(oracle, elements[g][v0], INF)[0][xi]]
        assert rep["clauses"] == {
            "cone": len(elements) * len(xi_set) - len(uncovered),
            "small-geodesic": len(uncovered) - len(rep["failures"])}
        monkeypatch.undo()


class TestDichotomy:
    def test_all_angles_everything_small(self):
        g = random_tree(9, seed=8)
        inst, sub, Gs, v0, xi, cones, oracle = build_cones(
            g, theta0=all_angles(g))
        rep = dichotomy_check(inst, oracle, 1, cones, xi)
        assert rep["ok"]
        assert rep["clauses"]["small-geodesic"] > 0

    def test_spider_passes(self):
        g = spider(3, 4)
        inst, sub, Gs, v0, xi, cones, oracle = build_cones(
            g, [spider_rotation(3, 4)])
        rep = dichotomy_check(inst, oracle, 1, cones, xi)
        assert rep["ok"]
        assert rep["clauses"]["cone"] > 0

    def test_deleted_layers_are_witnessed(self):
        g = spider(3, 4)
        inst, sub, Gs, v0, xi, cones, oracle = build_cones(
            g, [spider_rotation(3, 4)])
        rep = dichotomy_check(inst, oracle, 1, [], xi)
        assert not rep["ok"] and rep["failures"]


class TestCombined:
    def test_empty_cone_side_is_identity(self):
        g = path_graph(5)
        inst, sub, Gs, v0 = setup(g)
        dom = [(0, "x")]
        flow = Cover((CoverMember(slices_of(dom),
                                  frozenset([0]), True),), 1, 0)
        empty = Cover((), None, -1)
        out = combined_cover(empty, flow, dom)
        assert out.member_slices() == flow.member_slices()
        assert out.order == 0

    def test_order_is_additive_at_worst(self):
        dom = [(g, "xi") for g in range(10)]
        def mk(gs):
            return CoverMember(slices_of((g, "xi") for g in gs),
                               frozenset(), True)
        flow = Cover(tuple(mk(range(10)) for _ in range(5)), 1, 4)
        cone = Cover(tuple(mk(range(10)) for _ in range(3)), None, 2)
        out = combined_cover(cone, flow, dom)
        assert out.order == 7 <= flow.order + 3

    def test_cone_sets_of_order_three_break_the_bound(self, monkeypatch):
        # negative control: on spider-rot the pullback is empty and the
        # cone sets meet in at most three, order 2 = pull.order + 3; one
        # more cone member holding every cone pair makes both orders 3,
        # and run_pipeline's own combined-order check then fails
        _, g, gens, mode, alpha, tau_max = next(
            case for case in pipeline_instances() if case[0] == "spider-rot")
        res = run_pipeline(g, gens, alpha=alpha, tau_max=tau_max,
                           theta0_mode=mode)
        inst, pull = res.instance, res.artifacts["pullback"]
        Gs, xi = inst.sub_group, inst.cone_targets()
        domain = [(ge, x) for ge in range(len(Gs)) for x in xi]
        cones, _ = cone_cover(inst, select_theta0(inst, alpha, mode), xi)
        assert res.ok and not pull.members
        assert res.artifacts["combined"].order == 2 == pull.order + 3
        union = replace(cones[0], members=frozenset().union(
            *(c.members for c in cones)))
        cone_cov = cone_sets_as_cover(list(cones) + [union], Gs, domain)
        combined = combined_cover(cone_cov, pull, domain)
        assert cone_cov.order == combined.order == 3
        assert not combined.order <= pull.order + 3

        def with_union(*args):
            sets, oracle = cone_cover(*args)
            return list(sets) + [union], oracle

        monkeypatch.setattr(pipeline, "cone_cover", with_union)
        bad = run_pipeline(g, gens, alpha=alpha, tau_max=tau_max,
                           theta0_mode=mode)
        stage = bad.stages["combined"]
        assert not bad.ok and not stage["order_ok"]
        assert stage["order"] == stage["flow_order"] + 4
