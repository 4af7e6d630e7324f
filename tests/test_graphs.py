import json
import random

import pytest

from coarsecover.corpus import (
    complete_graph,
    cycle_graph,
    hypercube3,
    path_graph,
    random_tree,
    star_graph,
    theta_graph,
    wedge_of_cycles,
)
from coarsecover.graphs import (
    INF,
    CapExceeded,
    GeodesicIndex,
    GraphFormatError,
    barycentric_subdivision,
    circuits_through_edge,
    dag_to_dot,
    distance_matrix,
    enumerate_geodesics,
    fineness_profile,
    geodesic_counts,
    geodesic_dag,
    graph_to_dot,
    load_graph,
    make_graph,
    slimness_constant,
)
from oracles import all_simple_shortest_paths, slimness_brute, \
    slimness_min_over_sides


class TestLoadGraph:
    def test_path_document(self):
        g = load_graph('{"vertices": 3, "edges": [[0, 1], [1, 2]]}')
        assert g.vertex_count == 3
        assert len(g.edges) == 2

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            load_graph({"vertices": 2, "edges": [[1, 1]]})

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            load_graph({"vertices": 2, "edges": [[0, 1], [1, 0]]})

    def test_malformed_document(self):
        with pytest.raises(GraphFormatError):
            load_graph("not json at all {")
        with pytest.raises(GraphFormatError):
            load_graph({"edges": []})

    def test_cone_threshold_star(self):
        doc = {"vertices": 6, "edges": [[0, i] for i in range(1, 6)]}
        g = load_graph(doc, cone_threshold=5)
        assert g.cone_vertices == frozenset({0})
        g2 = load_graph(doc, cone_threshold=6)
        assert g2.cone_vertices == frozenset()

    def test_adjacent_cones_warn_then_refuse(self):
        doc = {"vertices": 2, "edges": [[0, 1]], "cone_vertices": [0, 1]}
        g = load_graph(doc)
        assert g.cone_vertices_adjacent() == [(0, 1)]
        with pytest.raises(GraphFormatError, match="adjacent cone"):
            g.require_cone_separation()

    def test_roundtrip(self):
        from coarsecover.graphs import graph_to_document
        g = load_graph({"vertices": 4, "edges": [[0, 1], [2, 3]],
                        "labels": {"0": "a"}})
        doc = graph_to_document(g)
        g2 = load_graph(json.dumps(doc))
        assert g2.edges == g.edges and g2.labels == g.labels


class TestDistances:
    def test_cycle_antipodal(self):
        d = distance_matrix(cycle_graph(6))
        assert d[0][3] == 3

    def test_disconnected_pair(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        d = distance_matrix(g)
        assert d[0][2] is INF

    def test_path(self):
        assert distance_matrix(path_graph(3))[0][2] == 2

    def test_metric_coherence(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randrange(4, 12)
            edges = {(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.4}
            g = make_graph(n, edges)
            d = distance_matrix(g)
            for u in range(n):
                for v in range(n):
                    for w in range(n):
                        if d[u][v] is INF:
                            continue
                        if d[u][w] is INF or d[v][w] is INF:
                            assert (d[u][w] is INF) and (d[v][w] is INF) or \
                                d[u][v] is INF or True
                            continue
                        assert abs(d[u][w] - d[v][w]) <= d[u][v]


class TestGeodesicDag:
    def test_square_two_paths(self):
        index = GeodesicIndex(cycle_graph(4))
        assert enumerate_geodesics(index, 0, 2, 10) == [[0, 1, 2], [0, 3, 2]]

    def test_tree_single_path(self):
        g = random_tree(14, seed=2)
        paths = enumerate_geodesics(GeodesicIndex(g), 0, 13, 5)
        assert len(paths) == 1

    def test_c6_two_geodesics(self):
        got = enumerate_geodesics(GeodesicIndex(cycle_graph(6)), 0, 3, 10)
        assert got == all_simple_shortest_paths(cycle_graph(6), 0, 3)
        assert len(got) == 2

    def test_hypercube_six_paths(self):
        index = GeodesicIndex(hypercube3())
        assert len(enumerate_geodesics(index, 0, 7, 10)) == 6

    def test_cap_exceeded(self):
        index = GeodesicIndex(hypercube3())
        with pytest.raises(CapExceeded):
            enumerate_geodesics(index, 0, 7, 3)

    def test_disconnected_raises(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            geodesic_dag(GeodesicIndex(g), 0, 2)

    def test_dag_matches_dfs_oracle(self):
        rng = random.Random(9)
        for _ in range(8):
            n = rng.randrange(5, 11)
            edges = {(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.45}
            g = make_graph(n, edges)
            index = GeodesicIndex(g)
            d = index.dist
            for u in range(n):
                for v in range(n):
                    if u == v or d[u][v] is INF:
                        continue
                    got = enumerate_geodesics(index, u, v, 10000)
                    assert got == all_simple_shortest_paths(g, u, v)
                    for path in got:
                        assert len(path) - 1 == d[u][v]

    def test_layer_invariant(self):
        g = wedge_of_cycles(2, 6)
        index = GeodesicIndex(g)
        d = index.dist
        for u, w in geodesic_dag(index, 1, 7):
            assert d[1][w] == d[1][u] + 1
            assert d[w][7] == d[u][7] - 1

    def test_mandatory_vertices(self):
        # w lies on every u-v geodesic exactly when it lies on one and
        # sigma(u, w) * sigma(w, v) = sigma(u, v)
        def mandatory(g, u, v):
            d = distance_matrix(g)
            sigma = geodesic_counts(g, d)
            return frozenset(w for w in g.vertices
                             if d[u][w] + d[w][v] == d[u][v]
                             and sigma[u][w] * sigma[w][v] == sigma[u][v])

        g = wedge_of_cycles(2, 6)  # 0 is a cut vertex
        assert 0 in mandatory(g, 1, 6)
        assert mandatory(cycle_graph(6), 0, 3) == frozenset({0, 3})


class TestSlimness:
    def test_trees_are_zero_slim(self):
        for seed in range(50):
            g = random_tree(3 + seed % 14, seed=seed)
            assert slimness_constant(g).delta == 0

    def test_c6(self):
        assert slimness_constant(cycle_graph(6)).delta == 1

    def test_c4(self):
        assert slimness_constant(cycle_graph(4)).delta == 1

    def test_against_brute_oracle(self):
        for g in (cycle_graph(4), cycle_graph(5), cycle_graph(6),
                  complete_graph(4), wedge_of_cycles(2, 4),
                  theta_graph(1, 2, 2), star_graph(4)):
            assert slimness_constant(g).delta == slimness_brute(g)

    def test_disconnected_raises(self):
        with pytest.raises(ValueError):
            slimness_constant(make_graph(3, [(0, 1)]))

    def test_min_over_sides_diagnostic(self):
        # favourable sides can do strictly better than adversarial ones
        g = cycle_graph(4)
        assert slimness_min_over_sides(g) <= slimness_constant(g).delta


class TestCircuits:
    def test_tree_has_none(self):
        g = random_tree(10, seed=4)
        e = sorted(g.edges)[0]
        assert circuits_through_edge(g, e, 10) == []

    def test_c6_unique_circuit(self):
        got = circuits_through_edge(cycle_graph(6), (0, 1), 6)
        assert got == [(0, 1, 2, 3, 4, 5)]
        assert circuits_through_edge(cycle_graph(6), (0, 1), 5) == []

    def test_k4_two_triangles(self):
        got = circuits_through_edge(complete_graph(4), (0, 1), 3)
        assert got == [(0, 1, 2), (0, 1, 3)]

    def test_canonical_form_deduplicates(self):
        got = circuits_through_edge(cycle_graph(5), (1, 2), 5)
        assert got == [(0, 1, 2, 3, 4)]

    def test_fineness_profile(self):
        prof = fineness_profile(complete_graph(4), 4)
        assert prof[3] == 2 and prof[4] == 2


class TestSubdivision:
    def test_single_edge(self):
        sub = barycentric_subdivision(path_graph(2))
        assert sub.graph.vertex_count == 3
        assert sub.is_midpoint(2)
        assert len(sub.graph.neighbors(2)) == 2

    def test_triangle_becomes_hexagon(self):
        sub = barycentric_subdivision(cycle_graph(3))
        assert sub.graph.vertex_count == 6
        kinds = [sub.is_midpoint(v) for v in range(6)]
        assert kinds.count(False) == 3 and kinds.count(True) == 3
        d = distance_matrix(sub.graph)
        # hop diameter 3: opposite midpoints sit 1.5 original units apart
        assert max(x for row in d for x in row) == 3

    def test_star(self):
        sub = barycentric_subdivision(star_graph(3))
        assert sub.graph.vertex_count == 7
        assert sum(1 for v in sub.graph.vertices if sub.is_midpoint(v)) == 3

    def test_distances_double_exactly(self):
        rng = random.Random(3)
        graphs = [random_tree(20, seed=1), cycle_graph(9),
                  wedge_of_cycles(2, 5), theta_graph(2, 2, 3)]
        n_total = sum(g.vertex_count for g in graphs)
        assert n_total <= 50
        for g in graphs:
            d_old = distance_matrix(g)
            sub = barycentric_subdivision(g)
            d_new = distance_matrix(sub.graph)
            for u in g.vertices:
                for v in g.vertices:
                    assert d_new[u][v] == 2 * d_old[u][v]

    def test_midpoints_have_valency_two(self):
        sub = barycentric_subdivision(wedge_of_cycles(2, 6))
        for m in sub.ve_vertices():
            assert len(sub.graph.neighbors(m)) == 2


class TestDot:
    def test_graph_dot(self):
        text = graph_to_dot(make_graph(2, [(0, 1)], cone_vertices=[1]))
        assert "0 -- 1" in text and "doublecircle" in text

    def test_dag_dot(self):
        text = dag_to_dot(geodesic_dag(GeodesicIndex(cycle_graph(4)), 0, 2))
        assert "0 -> 1" in text and "3 -> 2" in text
