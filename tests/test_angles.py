import random

import pytest

from coarsecover.angles import (
    SmallnessOracle,
    all_angles,
    angle_set_from_triples,
    canonical_angle,
    angle_sum,
    angles_of_geodesic,
    angleset_to_document,
    d_theta,
    d_theta_definitional_oracle,
    k_fold_sum,
    lemma_battery,
    load_angleset,
    observer_set_all,
    observer_set_exists,
    theta3,
    theta3_circuit_bound_check,
    theta_ball,
    theta_small_geodesics,
    trivial_only,
)
from coarsecover.corpus import (
    battery_graphs,
    complete_graph,
    cycle_graph,
    dihedral_group,
    path_graph,
    random_tree,
    rotation_group,
    spider,
    star_graph,
    theta_graph,
    wedge_of_cycles,
)
from coarsecover.graphs import (
    INF,
    GeodesicIndex,
    barycentric_subdivision,
    slimness_constant,
)
from coarsecover.symmetry import trivial_group
from oracles import angle_sum_brute, theta3_brute, theta3_subdivision_brute, \
    theta_small_paths_brute

C6 = cycle_graph(6)


class TestAngleBasics:
    def test_angles_of_geodesic(self):
        p3 = path_graph(3)
        assert angles_of_geodesic(p3, [0, 1]) == []
        assert angles_of_geodesic(p3, [0, 1, 2]) == [(0, 1, 2)]
        assert len(angles_of_geodesic(C6, [0, 1, 2, 3])) == 2

    def test_non_geodesic_rejected(self):
        with pytest.raises(ValueError, match="not a geodesic"):
            angles_of_geodesic(C6, [0, 1, 0])
        with pytest.raises(ValueError, match="not an edge"):
            angles_of_geodesic(C6, [0, 2])

    def test_trivial_membership_implicit(self):
        t = trivial_only(C6)
        assert t.contains(1, 0, 1)
        assert not t.contains(1, 0, 5)

    def test_file_roundtrip(self):
        t = angle_set_from_triples(C6, [(0, 1, 2), (2, 1, 0)])
        doc = angleset_to_document(t)
        assert doc == [[0, 1, 2]]
        assert load_angleset(doc, C6) == t

    def test_invariance_and_saturation(self):
        G = rotation_group(6)
        one = angle_set_from_triples(C6, [(0, 1, 2)])
        assert not one.is_invariant(G)
        sat = one.saturate(G)
        assert sat.is_invariant(G) and len(sat) == 6


class TestTheta3:
    def test_tree_is_trivial_only(self):
        for seed in range(6):
            g = random_tree(10, seed=seed)
            t3 = theta3(g)
            assert len(t3) == 0
            assert t3.nontrivial == theta3_brute(g)

    def test_p3_trivial(self):
        assert len(theta3(path_graph(3))) == 0

    def test_c6_contains_consecutive_angle(self):
        t3 = theta3(C6)
        assert t3.contains(0, 1, 2)
        assert t3.nontrivial == theta3_brute(C6)

    def test_against_brute_oracle(self):
        for g in (cycle_graph(4), cycle_graph(5), complete_graph(4),
                  wedge_of_cycles(2, 4), theta_graph(1, 2, 2),
                  star_graph(4), spider(3, 2)):
            assert theta3(g).nontrivial == theta3_brute(g)

    def test_wedge_cut_vertex_angles_are_large(self):
        g = wedge_of_cycles(2, 6)
        t3 = theta3(g)
        # angles crossing the cut vertex 0 between the two cycles
        n1, n2 = 1, 6  # first vertices of each cycle
        assert not t3.contains(n1, 0, n2)

    def test_invariant_under_group(self):
        t3 = theta3(C6)
        assert t3.is_invariant(dihedral_group(6))

    def test_cone_completion_flag(self):
        from coarsecover.graphs import make_graph
        g = make_graph(6, cycle_graph(6).edges, cone_vertices=[3])
        with_c = theta3(g, include_cone_completion=True)
        without = theta3(g, include_cone_completion=False)
        assert without.nontrivial <= with_c.nontrivial

    def test_subdivision_apexes_are_original(self):
        sub = barycentric_subdivision(C6)
        t3 = theta3(sub)
        assert t3.graph == C6
        for (u, apex, w) in t3.nontrivial:
            assert apex < 6


class TestCircuitBound:
    def test_tree_vacuous(self):
        g = random_tree(12, seed=0)
        rep = theta3_circuit_bound_check(g, theta3(g), 0)
        assert rep["ok"] and rep["angles_checked"] == 0

    def test_c6(self):
        rep = theta3_circuit_bound_check(C6, theta3(C6), 1)
        assert rep["ok"]
        assert rep["max_circuit_needed"] == 6 <= rep["bound"] == 16

    def test_k4_uses_positive_delta(self):
        g = complete_graph(4)
        delta = slimness_constant(g).delta
        assert delta == 0
        rep = theta3_circuit_bound_check(g, theta3(g), delta)
        assert rep["ok"] and rep["delta_effective"] == 1
        assert rep["max_circuit_needed"] == 3

    def test_corpus(self):
        for name, g in battery_graphs():
            delta = slimness_constant(g).delta
            rep = theta3_circuit_bound_check(g, theta3(g), delta)
            assert rep["ok"], name


class TestAngleSum:
    def test_identity(self):
        t3 = theta3(C6)
        triv = trivial_only(C6)
        assert angle_sum(t3, triv).nontrivial == t3.nontrivial
        assert angle_sum(triv, t3).nontrivial == t3.nontrivial

    def test_definitional_oracle(self):
        t3 = theta3(C6)
        got = angle_sum(t3, t3)
        assert got.nontrivial == angle_sum_brute(t3.nontrivial, t3.nontrivial)
        k4 = complete_graph(4)
        a = theta3(k4)
        b = angle_set_from_triples(k4, [(1, 0, 2)])
        assert angle_sum(a, b).nontrivial == \
            angle_sum_brute(a.nontrivial, b.nontrivial)

    def test_associative_and_monotone(self):
        g = wedge_of_cycles(2, 4)
        t3 = theta3(g)
        a = angle_set_from_triples(g, list(sorted(t3.nontrivial))[:2])
        b = t3
        c = all_angles(g)
        left = angle_sum(angle_sum(a, b), c)
        right = angle_sum(a, angle_sum(b, c))
        assert left.nontrivial == right.nontrivial
        assert angle_sum(a, b).nontrivial <= angle_sum(c, b).nontrivial
        assert a.nontrivial <= angle_sum(a, b).nontrivial

    def test_commutative(self):
        g = complete_graph(4)
        a = theta3(g)
        b = angle_set_from_triples(g, [(1, 0, 3)])
        assert angle_sum(a, b) == angle_sum(b, a)

    def test_k_fold(self):
        t3 = theta3(C6)
        assert k_fold_sum(t3, 0).nontrivial == frozenset()
        assert k_fold_sum(t3, 1) == t3
        assert k_fold_sum(t3, 2) == angle_sum(t3, t3)


class TestSmallGeodesics:
    def test_adjacent_always_small(self):
        got = theta_small_geodesics(C6, trivial_only(C6), 0, 1, 10)
        assert got == [[0, 1]]

    def test_square_all_angles(self):
        c4 = cycle_graph(4)
        got = theta_small_geodesics(c4, all_angles(c4), 0, 2, 10)
        assert got == [[0, 1, 2], [0, 3, 2]]

    def test_square_trivial_only_empty(self):
        c4 = cycle_graph(4)
        assert theta_small_geodesics(c4, trivial_only(c4), 0, 2, 10) == []

    def test_against_brute(self):
        rng = random.Random(11)
        for g in (C6, wedge_of_cycles(2, 4), complete_graph(4),
                  theta_graph(2, 2, 2)):
            t3 = theta3(g)
            for theta in (trivial_only(g), t3, all_angles(g)):
                for _ in range(6):
                    u = rng.randrange(g.vertex_count)
                    v = rng.randrange(g.vertex_count)
                    if u == v:
                        continue
                    got = theta_small_geodesics(g, theta, u, v, 1000)
                    assert got == theta_small_paths_brute(g, theta, u, v)


class TestDTheta:
    def test_all_angles_recovers_graph_metric(self):
        sub = barycentric_subdivision(C6)
        tm = d_theta(sub, all_angles(C6))
        idx = GeodesicIndex(sub.graph)
        for v in sub.ve_vertices():
            for w in sub.ve_vertices():
                assert tm.d(v, w) == idx.d(v, w) // 2

    def test_diagonal_zero(self):
        sub = barycentric_subdivision(C6)
        tm = d_theta(sub, trivial_only(C6))
        m = sub.ve_vertices()[0]
        assert tm.d(m, m) == 0

    def test_c4_trivial_only_disconnects(self):
        # every unit hop crosses a nontrivial angle, so nothing is joined
        c4 = cycle_graph(4)
        sub = barycentric_subdivision(c4)
        tm = d_theta(sub, trivial_only(c4))
        m01 = sub.midpoint_of_edge[(0, 1)]
        m23 = sub.midpoint_of_edge[(2, 3)]
        assert tm.d(m01, m23) is INF
        oracle = d_theta_definitional_oracle(sub, trivial_only(c4))
        assert oracle[(m01, m23)] is INF

    def test_dominates_graph_metric_with_equality_on_small(self):
        g = wedge_of_cycles(2, 4)
        t3 = theta3(g)
        sub = barycentric_subdivision(g)
        tm = d_theta(sub, t3)
        idx = GeodesicIndex(sub.graph)
        oracle = SmallnessOracle(sub, t3)
        from coarsecover.angles import exists_small_geodesic
        for v in sub.ve_vertices():
            for w in sub.ve_vertices():
                dg = idx.d(v, w) // 2
                assert tm.d(v, w) >= dg
                if v != w and exists_small_geodesic(idx.dag(v, w), oracle):
                    assert tm.d(v, w) == dg

    def test_matches_definitional_oracle(self):
        for g in (cycle_graph(5), wedge_of_cycles(2, 4), path_graph(6),
                  theta_graph(2, 2, 2)):
            sub = barycentric_subdivision(g)
            for theta in (theta3(g), all_angles(g)):
                tm = d_theta(sub, theta)
                oracle = d_theta_definitional_oracle(sub, theta)
                for v in sub.ve_vertices():
                    for w in sub.ve_vertices():
                        assert tm.d(v, w) == oracle[(v, w)]


class TestThetaBall:
    def test_radius_zero(self):
        assert theta_ball(C6, all_angles(C6), 0, (0, 1), 0) == frozenset({0})

    def test_radius_one_filters_by_initial_edge(self):
        t = trivial_only(C6)
        assert theta_ball(C6, t, 0, (0, 1), 1) == frozenset({0, 1})

    def test_c6_trivial_only(self):
        # the initial-edge clause pins the direction and the smallness
        # clause stops the walk after one step
        got = theta_ball(C6, trivial_only(C6), 0, (0, 1), 3)
        assert got == frozenset({0, 1})

    def test_c6_all_angles(self):
        got = theta_ball(C6, all_angles(C6), 0, (0, 1), 3)
        assert got == frozenset(range(6))

    def test_size_constant_on_orbits(self):
        G = dihedral_group(6)
        t3 = theta3(C6)
        sizes = set()
        for p in G.elements:
            v = p[0]
            e = tuple(sorted((p[0], p[1])))
            sizes.add(len(theta_ball(C6, t3, v, e, 2)))
        assert len(sizes) == 1


class TestLemmaBattery:
    def test_tree_instance_clean(self):
        g = random_tree(10, seed=1)
        rep = lemma_battery(g, trivial_group(g), trivial_only(g), 300, seed=4)
        assert rep.ok

    def test_c6_thousand_trials(self):
        rep = lemma_battery(C6, trivial_group(C6), trivial_only(C6), 1000,
                            seed=0)
        assert rep.ok
        assert rep.lemmas["geodesic_2_gons"].nonvacuous >= 1

    def test_planted_large_angle_nonvacuous(self):
        g = wedge_of_cycles(2, 6)
        rep = lemma_battery(g, trivial_group(g), trivial_only(g), 2500,
                            seed=2)
        assert rep.ok
        assert rep.lemmas["large_angles"].nonvacuous >= 1
        assert rep.lemmas["large_angles_in_triangles"].nonvacuous >= 1

    def test_summary_shape(self):
        rep = lemma_battery(C6, trivial_group(C6), theta3(C6), 200, seed=3)
        assert rep.ok
        assert set(rep.summary()) == {
            "geodesic_2_gons", "large_angles",
            "large_angles_in_triangles_no_c", "tripod",
            "large_angles_in_triangles", "geodesics_between_geodesics"}


class TestObserverSets:
    def test_all_subset_of_exists(self):
        g = wedge_of_cycles(2, 6)
        for xi in (1, 3):
            strict = observer_set_all(g, xi, {0})
            loose = observer_set_exists(g, xi, {0})
            assert strict <= loose

    def test_against_path_enumeration(self):
        from oracles import all_simple_shortest_paths
        for g in (wedge_of_cycles(2, 6), cycle_graph(6), theta_graph(2, 2, 2)):
            for xi in (0, 1):
                for v0_set in ({0}, {2, 3}):
                    avoid = set(v0_set) - {xi}
                    want_all, want_ex = set(), set()
                    for x2 in g.vertices:
                        paths = ([[xi]] if x2 == xi
                                 else all_simple_shortest_paths(g, xi, x2))
                        if all(not (set(p) & avoid) for p in paths):
                            want_all.add(x2)
                        if any(not (set(p) & avoid) for p in paths):
                            want_ex.add(x2)
                    assert observer_set_all(g, xi, v0_set) == want_all
                    assert observer_set_exists(g, xi, v0_set) == want_ex

    def test_cut_vertex_blocks(self):
        g = wedge_of_cycles(2, 6)
        # vertices of the far cycle are unreachable without crossing 0
        reach = observer_set_exists(g, 1, {0})
        assert 6 not in reach
        assert 2 in reach
        # one escape route suffices for the loose set but not the strict one
        assert 4 in observer_set_exists(g, 1, {2})
        strict = observer_set_all(g, 1, {2})
        assert 3 not in strict and 2 not in strict


class TestCaps:
    def test_theta3_pair_cap(self):
        import pytest
        from coarsecover.graphs import CapExceeded
        with pytest.raises(CapExceeded):
            theta3(C6, pair_cap=4)

    def test_small_geodesic_cap(self):
        import pytest
        from coarsecover.graphs import CapExceeded
        c4 = cycle_graph(4)
        with pytest.raises(CapExceeded):
            theta_small_geodesics(c4, all_angles(c4), 0, 2, cap=1)

    def test_subdivision_matches_direct_brute(self):
        # run the raw triangle oracle on the subdivided graph itself, keep
        # apexes at original vertices, translate midpoints back to edges
        from coarsecover.graphs import barycentric_subdivision
        for g in (cycle_graph(5), wedge_of_cycles(2, 4), star_graph(3)):
            sub = barycentric_subdivision(g)
            assert theta3(sub).nontrivial == theta3_subdivision_brute(sub)


class TestCarrierSets:
    def test_vertices_on_small_geodesics_matches_enumeration(self):
        from coarsecover.angles import vertices_on_small_geodesics
        from coarsecover.corpus import hypercube3
        from coarsecover.graphs import GeodesicIndex
        from oracles import theta_small_paths_brute
        for g in (cycle_graph(6), wedge_of_cycles(2, 4),
                  theta_graph(2, 2, 2), hypercube3()):
            idx = GeodesicIndex(g)
            for theta in (trivial_only(g), theta3(g), all_angles(g)):
                oracle = SmallnessOracle(g, theta)
                for u in g.vertices:
                    for v in g.vertices:
                        if u == v:
                            continue
                        got = vertices_on_small_geodesics(idx.dag(u, v), oracle)
                        want = set()
                        for p in theta_small_paths_brute(g, theta, u, v):
                            want.update(p)
                        assert got == frozenset(want), (u, v)
