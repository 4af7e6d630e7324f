import random
from functools import reduce
from itertools import combinations, permutations
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from coarsecover import angles
from coarsecover.angles import (
    SmallnessOracle,
    all_angles,
    angle_set_from_triples,
    canonical_angle,
    angle_sum,
    angleset_to_document,
    d_theta,
    geodesic_angles,
    k_fold_sum,
    lemma_battery,
    load_angleset,
    small_lines,
    small_steps,
    theta3,
    theta3_circuit_bound_check,
    trivial_only,
)
from coarsecover.corpus import (
    barbell,
    battery_graphs,
    complete_graph,
    cycle_graph,
    cycle_with_tail,
    dihedral_group,
    path_graph,
    random_tree,
    rotation_group,
    spider,
    spider_rotation,
    star_graph,
    theta_graph,
    wedge_of_cycles,
)
from coarsecover.graphs import (
    INF,
    GeodesicIndex,
    barycentric_subdivision,
    make_graph,
    slimness_constant,
)
from coarsecover.symmetry import close_group, is_automorphism
from oracles import angle_sum_brute, d_theta_definitional_oracle, \
    mask_neighbours, mask_vertices, observer_set_all, observer_set_exists, \
    saturate_over_elements, small_carriers, theta3_brute, \
    theta3_subdivision_brute, theta_small_paths_brute, validate_angle_set

C6 = cycle_graph(6)


class TestAngleBasics:
    def test_trivial_membership_implicit(self):
        t = trivial_only(C6)
        assert t.contains(1, 0, 1)
        assert not t.contains(1, 0, 5)

    def test_file_roundtrip(self):
        t = angle_set_from_triples(C6, [(0, 1, 2), (2, 1, 0)])
        doc = angleset_to_document(t)
        assert doc == [[0, 1, 2]]
        assert load_angleset(doc, C6) == t

    def test_an_unrealized_triple_is_refused_where_it_enters(self):
        # vertices 1 and 3 of C4 are not adjacent; a trivial triple stays
        # implicit whatever its apex, and an unordered one is made canonical
        c4 = cycle_graph(4)
        with pytest.raises(ValueError, match="not realized"):
            angle_set_from_triples(c4, [(0, 1, 3)])
        with pytest.raises(ValueError, match="not realized"):
            load_angleset([[0, 1, 3]], c4)
        assert angle_set_from_triples(c4, [(2, 0, 2), (3, 0, 1)]) == \
            angle_set_from_triples(c4, [(1, 0, 3)])

    def test_invariance_and_saturation(self):
        G = rotation_group(6)
        one = angle_set_from_triples(C6, [(0, 1, 2)])
        assert not one.is_invariant(G)
        sat = one.saturate(G)
        assert sat.is_invariant(G) and len(sat) == 6

    @pytest.mark.parametrize("seed", range(4))
    def test_saturation_along_the_generators_covers_every_element(self,
                                                                  seed):
        rng = random.Random(seed)
        groups = [(cycle_graph(n), dihedral_group(n)) for n in (5, 8, 12)]
        groups.append((spider(3, 4), close_group(spider(3, 4), [
            spider_rotation(3, 4)])))
        for g, G in groups:
            every = sorted(all_angles(g).nontrivial)
            some = angle_set_from_triples(g, rng.sample(every, 3))
            assert some.saturate(G) == saturate_over_elements(some, G)


class TestTheta3:
    def test_tree_is_trivial_only(self):
        for seed in range(6):
            g = random_tree(10, seed=seed)
            t3 = theta3(g, GeodesicIndex(g))
            assert len(t3) == 0
            assert t3.nontrivial == theta3_brute(g)

    def test_p3_trivial(self):
        p3 = path_graph(3)
        assert len(theta3(p3, GeodesicIndex(p3))) == 0

    def test_c6_contains_consecutive_angle(self):
        t3 = theta3(C6, GeodesicIndex(C6))
        assert t3.contains(0, 1, 2)
        assert t3.nontrivial == theta3_brute(C6)

    def test_against_brute_oracle(self):
        for g in (cycle_graph(4), cycle_graph(5), complete_graph(4),
                  wedge_of_cycles(2, 4), theta_graph(1, 2, 2),
                  star_graph(4), spider(3, 2)):
            assert theta3(g, GeodesicIndex(g)).nontrivial == theta3_brute(g)

    @pytest.mark.parametrize("g", [cycle_with_tail(8, 12), barbell(8, 6)],
                             ids=["tail", "barbell"])
    def test_blocks_short_of_the_graph_fill_no_index_row(self, g):
        # each block misses a vertex of the graph, so it is measured on
        # rows that never leave it: plain and subdivided, no row of the
        # index is filled, and the oracle still agrees
        sub = barycentric_subdivision(g)
        for base, index, want in (
                (g, GeodesicIndex(g), theta3_brute(g)),
                (sub, GeodesicIndex(sub.graph),
                 theta3_subdivision_brute(sub))):
            assert theta3(base, index).nontrivial == want
            assert len(index.dist) == 0

    def test_a_block_spanning_the_graph_fills_the_index_rows(self):
        # C8 is one block holding every vertex: theta3 reads index.dist,
        # whose rows later readers of the index share
        g = cycle_graph(8)
        sub = barycentric_subdivision(g)
        plain, subdivided = GeodesicIndex(g), GeodesicIndex(sub.graph)
        assert theta3(g, plain).nontrivial == theta3_brute(g)
        assert theta3(sub, subdivided).nontrivial == \
            theta3_subdivision_brute(sub)
        assert (len(plain.dist), len(subdivided.dist)) == (8, 16)

    def test_wedge_cut_vertex_angles_are_large(self):
        g = wedge_of_cycles(2, 6)
        t3 = theta3(g, GeodesicIndex(g))
        # angles crossing the cut vertex 0 between the two cycles
        n1, n2 = 1, 6  # first vertices of each cycle
        assert not t3.contains(n1, 0, n2)

    def test_invariant_under_group(self):
        t3 = theta3(C6, GeodesicIndex(C6))
        assert t3.is_invariant(dihedral_group(6))

    def test_kept_per_reading_and_group(self):
        # each (reading, group) is one memo entry, keyed by value: a group
        # closed again from the same generators finds the entry
        g = cycle_graph(8)
        sub = barycentric_subdivision(g)
        plain, subdivided = GeodesicIndex(g), GeodesicIndex(sub.graph)
        reads = [(g, plain, None), (sub, subdivided, None),
                 (sub.graph, subdivided, None)]
        reads += [(base, index, group) for base, index in
                  ((g, plain), (sub, subdivided))
                  for group in (rotation_group(8), dihedral_group(8))]
        for _ in range(2):
            for base, index, group in reads:
                fresh = GeodesicIndex(index.graph)
                assert theta3(base, index, group=group) == theta3(
                    base, fresh, group=group)
        assert theta3(g, plain, group=rotation_group(8)) == theta3(
            g, GeodesicIndex(g))
        assert (len(plain.memo), len(subdivided.memo)) == (3, 4)

    def test_pair_cap_is_checked_before_the_memo(self):
        from coarsecover.graphs import CapExceeded
        index = GeodesicIndex(C6)
        assert theta3(C6, index).contains(0, 1, 2)
        with pytest.raises(CapExceeded):
            theta3(C6, index, pair_cap=4)

    def test_an_index_of_another_graph_is_refused(self):
        sub = barycentric_subdivision(C6)
        for base, other in ((C6, cycle_graph(7)), (sub, C6),
                            (sub.graph, C6)):
            with pytest.raises(ValueError, match="graph measured"):
                theta3(base, GeodesicIndex(other))

    def test_subdivision_apexes_are_original(self):
        sub = barycentric_subdivision(C6)
        t3 = theta3(sub, GeodesicIndex(sub.graph))
        assert t3.graph == C6
        for (u, apex, w) in t3.nontrivial:
            assert apex < 6


class TestCircuitBound:
    def test_tree_vacuous(self):
        g = random_tree(12, seed=0)
        rep = theta3_circuit_bound_check(g, theta3(g, GeodesicIndex(g)), 0)
        assert rep["ok"] and rep["angles_checked"] == 0

    def test_c6(self):
        rep = theta3_circuit_bound_check(C6, theta3(C6, GeodesicIndex(C6)), 1)
        assert rep["ok"]
        assert rep["max_circuit_needed"] == 6 <= rep["bound"] == 16

    def test_k4_uses_positive_delta(self):
        g = complete_graph(4)
        delta = slimness_constant(g).delta
        assert delta == 0
        rep = theta3_circuit_bound_check(g, theta3(g, GeodesicIndex(g)), delta)
        assert rep["ok"] and rep["delta_effective"] == 1
        assert rep["max_circuit_needed"] == 3

    def test_corpus(self):
        for name, g in battery_graphs():
            delta = slimness_constant(g).delta
            rep = theta3_circuit_bound_check(g, theta3(g, GeodesicIndex(g)),
                                             delta)
            assert rep["ok"], name

    def test_long_cycle_misses_every_angle(self):
        # negative control: the one circuit of C20 is longer than 16
        c20 = cycle_graph(20)
        t3 = theta3(c20, GeodesicIndex(c20))
        rep = theta3_circuit_bound_check(c20, t3, 1)
        assert len(t3) == 20
        assert not rep["ok"] and rep["max_circuit_needed"] == 0
        assert rep["missing"] == sorted(t3.nontrivial)


class TestAngleSum:
    def test_identity(self):
        t3 = theta3(C6, GeodesicIndex(C6))
        triv = trivial_only(C6)
        assert angle_sum(t3, triv).nontrivial == t3.nontrivial
        assert angle_sum(triv, t3).nontrivial == t3.nontrivial

    def test_definitional_oracle(self):
        t3 = theta3(C6, GeodesicIndex(C6))
        got = angle_sum(t3, t3)
        assert got.nontrivial == angle_sum_brute(t3.nontrivial, t3.nontrivial)
        k4 = complete_graph(4)
        a = theta3(k4, GeodesicIndex(k4))
        b = angle_set_from_triples(k4, [(1, 0, 2)])
        assert angle_sum(a, b).nontrivial == \
            angle_sum_brute(a.nontrivial, b.nontrivial)

    def test_associative_and_monotone(self):
        g = wedge_of_cycles(2, 4)
        t3 = theta3(g, GeodesicIndex(g))
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
        a = theta3(g, GeodesicIndex(g))
        b = angle_set_from_triples(g, [(1, 0, 3)])
        assert angle_sum(a, b) == angle_sum(b, a)

    def test_k_fold(self):
        t3 = theta3(C6, GeodesicIndex(C6))
        assert k_fold_sum(t3, 0).nontrivial == frozenset()
        assert k_fold_sum(t3, 1) == t3
        assert k_fold_sum(t3, 2) == angle_sum(t3, t3)

    def test_k_fold_stops_once_a_sum_adds_nothing(self, monkeypatch):
        import coarsecover.angles as angles_mod
        g = wedge_of_cycles(2, 6)
        t3 = theta3(g, GeodesicIndex(g))
        calls = []

        def counted(a, b):
            calls.append(1)
            return angle_sum(a, b)

        monkeypatch.setattr(angles_mod, "angle_sum", counted)
        fixed = k_fold_sum(t3, 50)
        used = len(calls)
        assert used < 50
        # one more sum than it took to reach the fixed point adds nothing
        assert angle_sum(fixed, t3) == fixed
        assert k_fold_sum(t3, used - 1) == fixed
        assert k_fold_sum(t3, used - 2) != fixed
        calls.clear()
        assert k_fold_sum(t3, 10_000) == fixed
        assert len(calls) == used


class TestSmallGeodesics:
    """Whether some geodesic between two vertices is small, read off the
    small-step sweep from the first."""

    @staticmethod
    def small(g, theta, u, v):
        return bool(small_steps(SmallnessOracle(g, theta), u, INF)[0][v])

    def test_adjacent_always_small(self):
        assert self.small(C6, trivial_only(C6), 0, 1)

    def test_square_all_angles(self):
        c4 = cycle_graph(4)
        index, oracle = GeodesicIndex(c4), SmallnessOracle(c4, all_angles(c4))
        steps = [small_steps(oracle, x, INF) for x in (0, 2)]
        assert mask_neighbours(c4, 2, steps[0][0][2]) == {1, 3}
        got = small_carriers(index, *steps, 0, 2)
        assert got == frozenset({0, 1, 2, 3})

    def test_square_trivial_only_empty(self):
        c4 = cycle_graph(4)
        assert not self.small(c4, trivial_only(c4), 0, 2)

    def test_against_brute(self):
        for g in (C6, wedge_of_cycles(2, 4), complete_graph(4),
                  theta_graph(2, 2, 2)):
            t3 = theta3(g, GeodesicIndex(g))
            for theta in (trivial_only(g), t3, all_angles(g)):
                for u in g.vertices:
                    for v in g.vertices:
                        if u != v:
                            assert self.small(g, theta, u, v) == bool(
                                theta_small_paths_brute(g, theta, u, v))


def chain_rows(sub, theta):
    """d_theta's rows for theta, its balls left unread."""
    return d_theta(sub, SmallnessOracle(sub, theta), 0)[0]


class TestDTheta:
    def test_all_angles_recovers_graph_metric(self):
        sub = barycentric_subdivision(C6)
        tm = chain_rows(sub, all_angles(C6))
        idx = GeodesicIndex(sub.graph)
        for v in sub.ve_vertices():
            for w in sub.ve_vertices():
                assert tm[v][w] == idx.dist[v][w] // 2

    def test_diagonal_zero(self):
        sub = barycentric_subdivision(C6)
        tm = chain_rows(sub, trivial_only(C6))
        m = sub.ve_vertices()[0]
        assert tm[m][m] == 0

    def test_c4_trivial_only_disconnects(self):
        # every unit hop crosses a nontrivial angle, so nothing is joined
        c4 = cycle_graph(4)
        sub = barycentric_subdivision(c4)
        tm = chain_rows(sub, trivial_only(c4))
        m01 = sub.midpoint_of_edge[(0, 1)]
        m23 = sub.midpoint_of_edge[(2, 3)]
        assert tm[m01][m23] is INF
        oracle = d_theta_definitional_oracle(sub, trivial_only(c4))
        assert oracle[(m01, m23)] is INF

    def test_dominates_graph_metric_with_equality_on_small(self):
        g = wedge_of_cycles(2, 4)
        t3 = theta3(g, GeodesicIndex(g))
        sub = barycentric_subdivision(g)
        tm = chain_rows(sub, t3)
        idx = GeodesicIndex(sub.graph)
        oracle = SmallnessOracle(sub, t3)
        for v in sub.ve_vertices():
            into, _ = small_steps(oracle, v, INF)
            for w in sub.ve_vertices():
                dg = idx.dist[v][w] // 2
                assert tm[v][w] >= dg
                if into[w]:
                    assert tm[v][w] == dg

    def test_an_oracle_of_another_graph_is_refused(self):
        # the hops are read off the subdivision's exit masks, so an oracle
        # on the original graph has none to give
        sub = barycentric_subdivision(C6)
        with pytest.raises(ValueError, match="turns of sub"):
            d_theta(sub, SmallnessOracle(C6, all_angles(C6)), 1)

    def test_matches_definitional_oracle(self):
        for g in (cycle_graph(5), wedge_of_cycles(2, 4), path_graph(6),
                  theta_graph(2, 2, 2)):
            sub = barycentric_subdivision(g)
            for theta in (theta3(g, GeodesicIndex(g)), all_angles(g)):
                tm = chain_rows(sub, theta)
                oracle = d_theta_definitional_oracle(sub, theta)
                for v in sub.ve_vertices():
                    for w in sub.ve_vertices():
                        assert tm[v][w] == oracle[(v, w)]


# lemma_battery(g, theta0(g, index), 600, seed, index).summary() for
# every battery graph: (checked, nonvacuous) per lemma in name order, and no
# violations
BATTERY_THETA0 = {"trivial": lambda g, index: trivial_only(g),
                  "theta3": theta3}
BATTERY_SUMMARIES = {
    "c6": {
        ("trivial", 0): ((116, 14), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
        ("trivial", 1): ((116, 15), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
        ("theta3", 0): ((111, 12), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
        ("theta3", 1): ((122, 15), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
    },
    "c5": {
        ("trivial", 0): ((80, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
        ("trivial", 1): ((74, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
        ("theta3", 0): ((87, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
        ("theta3", 1): ((74, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
    },
    "k4": {
        ("trivial", 0): ((80, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
        ("trivial", 1): ((68, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
        ("theta3", 0): ((80, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
        ("theta3", 1): ((68, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
    },
    "q3": {
        ("trivial", 0): ((250, 88), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
        ("trivial", 1): ((240, 87), (1, 1), (0, 0), (0, 0), (0, 0), (0, 0)),
        ("theta3", 0): ((248, 84), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
        ("theta3", 1): ((210, 71), (1, 1), (0, 0), (0, 0), (0, 0), (0, 0)),
    },
    "tree": {
        ("trivial", 0): ((114, 0), (0, 0), (138, 138), (14, 14), (61, 61), (30, 30)),
        ("trivial", 1): ((93, 0), (0, 0), (148, 148), (11, 11), (39, 39), (44, 44)),
        ("theta3", 0): ((114, 0), (0, 0), (138, 138), (14, 14), (61, 61), (30, 30)),
        ("theta3", 1): ((93, 0), (0, 0), (148, 148), (11, 11), (39, 39), (44, 44)),
    },
    "wedge": {
        ("trivial", 0): ((125, 12), (0, 0), (39, 39), (6, 6), (16, 16), (9, 9)),
        ("trivial", 1): ((124, 13), (0, 0), (27, 27), (5, 5), (18, 18), (8, 8)),
        ("theta3", 0): ((136, 18), (0, 0), (35, 35), (19, 19), (16, 16), (10, 10)),
        ("theta3", 1): ((132, 15), (0, 0), (29, 29), (14, 14), (15, 15), (7, 7)),
    },
    "theta": {
        ("trivial", 0): ((107, 7), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
        ("trivial", 1): ((95, 12), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
        ("theta3", 0): ((105, 9), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
        ("theta3", 1): ((95, 11), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
    },
    "tail": {
        ("trivial", 0): ((127, 15), (0, 0), (99, 99), (9, 9), (46, 46), (1, 1)),
        ("trivial", 1): ((99, 10), (0, 0), (83, 83), (20, 20), (37, 37), (6, 6)),
        ("theta3", 0): ((125, 13), (0, 0), (95, 95), (21, 21), (39, 39), (2, 2)),
        ("theta3", 1): ((99, 11), (0, 0), (96, 96), (30, 30), (35, 35), (6, 6)),
    },
    "caterpillar": {
        ("trivial", 0): ((89, 0), (0, 0), (124, 124), (21, 21), (73, 73), (0, 0)),
        ("trivial", 1): ((84, 0), (0, 0), (145, 145), (33, 33), (59, 59), (0, 0)),
        ("theta3", 0): ((89, 0), (0, 0), (124, 124), (21, 21), (73, 73), (0, 0)),
        ("theta3", 1): ((84, 0), (0, 0), (145, 145), (33, 33), (59, 59), (0, 0)),
    },
    "book": {
        ("trivial", 0): ((120, 16), (1, 1), (67, 67), (7, 7), (25, 25), (0, 0)),
        ("trivial", 1): ((109, 16), (1, 1), (53, 53), (12, 12), (24, 24), (1, 1)),
        ("theta3", 0): ((122, 16), (1, 1), (65, 65), (11, 11), (25, 25), (0, 0)),
        ("theta3", 1): ((106, 16), (1, 1), (56, 56), (20, 20), (20, 20), (1, 1)),
    },
}


class TestLemmaBattery:
    @pytest.mark.parametrize("name", list(BATTERY_SUMMARIES))
    def test_summaries_pinned(self, name):
        graphs = dict(battery_graphs())
        assert list(graphs) == list(BATTERY_SUMMARIES)
        g = graphs[name]
        for (theta0, seed), counts in BATTERY_SUMMARIES[name].items():
            index = GeodesicIndex(g)
            rep = lemma_battery(g, BATTERY_THETA0[theta0](g, index), 600,
                                seed, index)
            assert rep.summary() == {
                lemma: {"checked": c, "nonvacuous": n, "violations": 0}
                for lemma, (c, n) in zip(sorted(rep.lemmas), counts)
            }, (theta0, seed)

    def test_tree_instance_clean(self):
        g = random_tree(10, seed=1)
        rep = lemma_battery(g, trivial_only(g), 300, seed=4,
                            index=GeodesicIndex(g))
        assert rep.ok

    def test_c6_thousand_trials(self):
        rep = lemma_battery(C6, trivial_only(C6), 1000, seed=0,
                            index=GeodesicIndex(C6))
        assert rep.ok
        assert rep.lemmas["geodesic_2_gons"].nonvacuous >= 1

    def test_planted_large_angle_nonvacuous(self):
        g = wedge_of_cycles(2, 6)
        rep = lemma_battery(g, trivial_only(g), 2500, seed=2,
                            index=GeodesicIndex(g))
        assert rep.ok
        assert rep.lemmas["large_angles"].nonvacuous >= 1
        assert rep.lemmas["large_angles_in_triangles"].nonvacuous >= 1

    def test_trivial_corner_size_is_caught(self, monkeypatch):
        # with theta3 trivial every turn of C6 counts as large, and the
        # row reads must then find the conclusions false
        monkeypatch.setattr(angles, "theta3",
                            lambda g, index: trivial_only(g))
        rep = lemma_battery(C6, trivial_only(C6), 600, seed=0,
                            index=GeodesicIndex(C6))
        assert rep.lemmas["large_angles_in_triangles_no_c"].violations
        assert rep.lemmas["large_angles_in_triangles"].violations

    def test_summary_shape(self):
        index = GeodesicIndex(C6)
        rep = lemma_battery(C6, theta3(C6, index), 200, seed=3, index=index)
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
            theta3(C6, GeodesicIndex(C6), pair_cap=4)

    def test_theta3_pair_cap_counts_every_corner(self):
        # every block of a path is a bridge and makes no angle, but the cap
        # still counts all 9 * 9 corner pairs of the subdivided P5
        import pytest
        from coarsecover.graphs import CapExceeded, barycentric_subdivision
        sub = barycentric_subdivision(path_graph(5))
        with pytest.raises(CapExceeded):
            theta3(sub, GeodesicIndex(sub.graph), pair_cap=80)
        assert len(theta3(sub, GeodesicIndex(sub.graph), pair_cap=81)) == 0

    def test_subdivision_matches_direct_brute(self):
        # run the raw triangle oracle on the subdivided graph itself, keep
        # apexes at original vertices, translate midpoints back to edges.
        # C4, C6, the grid, Q3 and the bowtie (two triangles at 0, and the
        # path 1-5-3 closing a 5-cycle) have corners with two or more
        # predecessors in a geodesic DAG, whose dominator is where their
        # dominator chains meet; the first predecessor in its place loses
        # (2, 0, 4) on the bowtie
        from coarsecover.corpus import grid_graph, hypercube3
        from coarsecover.graphs import barycentric_subdivision, make_graph
        bowtie = make_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2),
                                (1, 5), (3, 4), (3, 5)])
        for g in (cycle_graph(5), wedge_of_cycles(2, 4), star_graph(3),
                  cycle_graph(4), cycle_graph(6), grid_graph(3, 3),
                  hypercube3(), bowtie):
            sub = barycentric_subdivision(g)
            assert theta3(sub, GeodesicIndex(sub.graph)).nontrivial == \
                theta3_subdivision_brute(sub)


class TestCarrierSets:
    def test_small_carriers_match_enumeration(self):
        from coarsecover.corpus import hypercube3
        for g in (cycle_graph(6), wedge_of_cycles(2, 4),
                  theta_graph(2, 2, 2), hypercube3()):
            idx = GeodesicIndex(g)
            rng = random.Random(g.vertex_count)
            weight = [rng.randrange(1 << 16) for _ in g.vertices]
            for theta in (trivial_only(g), theta3(g, GeodesicIndex(g)),
                          all_angles(g)):
                oracle = SmallnessOracle(g, theta)
                steps = [small_steps(oracle, x, INF) for x in g.vertices]
                for u in g.vertices:
                    lines = small_lines(oracle, u, g.vertices,
                                        [1 << v for v in g.vertices])
                    ors = small_lines(oracle, u, g.vertices, weight)
                    assert u not in lines and u not in ors
                    for v in g.vertices:
                        got = small_carriers(idx, steps[u], steps[v], u, v)
                        want = set()
                        for p in theta_small_paths_brute(g, theta, u, v):
                            want.update(p)
                        assert got == frozenset(want), (u, v)
                        if v != u:
                            assert mask_vertices(lines[v]) == got, (u, v)
                            assert ors[v] == reduce(
                                or_, (weight[w] for w in want), 0), (u, v)


@st.composite
def graphs_with_angles(draw):
    """A connected graph on at most 6 vertices, its automorphism group,
    two drawn sizes on it and drawn vertex pairs of its subdivision."""
    n = draw(st.integers(2, 6))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    edges |= draw(st.sets(st.sampled_from(list(combinations(range(n), 2))),
                          max_size=4))
    g = make_graph(n, edges)
    G = close_group(g, [p for p in permutations(range(n))
                        if is_automorphism(g, p)])
    every = sorted(all_angles(g).nontrivial)
    a, b = (angle_set_from_triples(g, draw(st.sets(st.sampled_from(every))))
            if every else trivial_only(g) for _ in range(2))
    sub = barycentric_subdivision(g)
    vertices = st.sampled_from(sub.graph.vertices)
    pairs = draw(st.lists(st.tuples(vertices, vertices), max_size=6))
    return g, G, a, b, sub, pairs


@settings(max_examples=80, deadline=None)
@given(graphs_with_angles(), st.integers(0, 4))
def test_every_size_made_inside_the_library_is_valid(case, k):
    """Sums, unions, saturations, all_angles, theta3 and geodesic_angles
    make canonical, realized angles by construction, so AngleSet checks
    none of them; validate_angle_set is the check it once made."""
    g, G, a, b, sub, pairs = case
    index = GeodesicIndex(sub.graph)
    for theta in (angle_sum(a, b), a.union(b), a.saturate(G),
                  k_fold_sum(a, k), all_angles(g),
                  theta3(g, GeodesicIndex(g)), theta3(sub, index=index),
                  theta3(sub, index=GeodesicIndex(sub.graph), group=G),
                  geodesic_angles(index, sub, pairs)):
        validate_angle_set(theta)
