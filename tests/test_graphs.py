import json
import random
from itertools import combinations

import networkx as nx
import pytest

from coarsecover import graphs
from coarsecover.corpus import (
    barbell,
    complete_graph,
    cycle_graph,
    grid_graph,
    hypercube3,
    path_graph,
    random_tree,
    star_graph,
    theta_graph,
    wedge_of_cycles,
)
from coarsecover.graphs import (
    INF,
    GeodesicIndex,
    GraphFormatError,
    barycentric_subdivision,
    dag_to_dot,
    fineness_profile,
    geodesic_dag,
    geodesic_steps,
    graph_to_dot,
    load_graph,
    make_graph,
    slimness_constant,
)
from oracles import _canonical_circuit, all_simple_shortest_paths, \
    circuits_through_edge, distance_matrix, geodesic_counts, \
    graph_to_document, slimness_brute, slimness_min_over_sides


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


def next_vertices(paths, u):
    """The vertices that follow u on the given paths, ascending."""
    return sorted({p[p.index(u) + 1] for p in paths if u in p[:-1]})


class TestGeodesicDag:
    """geodesic_steps against the next vertices of every geodesic that
    all_simple_shortest_paths enumerates."""

    def test_square_two_paths(self):
        g = cycle_graph(4)
        index = GeodesicIndex(g)
        assert geodesic_steps(index, 0, 2, 0) == [1, 3] \
            == next_vertices(all_simple_shortest_paths(g, 0, 2), 0)
        assert geodesic_steps(index, 0, 2, 1) == [2]

    def test_tree_single_path(self):
        g = random_tree(14, seed=2)
        index = GeodesicIndex(g)
        [path] = all_simple_shortest_paths(g, 0, 13)
        for u, w in zip(path, path[1:]):
            assert geodesic_steps(index, 0, 13, u) == [w]

    def test_c6_two_geodesics(self):
        g = cycle_graph(6)
        index = GeodesicIndex(g)
        paths = all_simple_shortest_paths(g, 0, 3)
        assert len(paths) == 2 == geodesic_counts(g, index.dist)[0][3]
        assert geodesic_steps(index, 0, 3, 0) == [1, 5] \
            == next_vertices(paths, 0)

    def test_hypercube_six_paths(self):
        g = hypercube3()
        index = GeodesicIndex(g)
        assert geodesic_counts(g, index.dist)[0][7] == 6
        assert geodesic_steps(index, 0, 7, 0) == [1, 2, 4]

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
            for s in range(n):
                for t in range(n):
                    if s == t or d[s][t] is INF:
                        continue
                    paths = all_simple_shortest_paths(g, s, t)
                    for u in {u for p in paths for u in p[:-1]}:
                        assert geodesic_steps(index, s, t, u) \
                            == next_vertices(paths, u)

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

    @pytest.mark.parametrize("g", [path_graph(2), path_graph(12),
                                   star_graph(6), random_tree(30, seed=4)],
                             ids=["edge", "path12", "star6", "tree30"])
    def test_a_tree_makes_one_bfs(self, monkeypatch, g):
        # the connectivity check from vertex 0; a connected graph with
        # fewer edges than vertices is a tree, so no block is searched
        calls, bfs_row = [], graphs.bfs_row

        def counted(h, source):
            calls.append(source)
            return bfs_row(h, source)

        monkeypatch.setattr(graphs, "bfs_row", counted)
        monkeypatch.setattr(graphs, "biconnected_blocks", None)
        rep = slimness_constant(g)
        assert (rep.delta, rep.witness_triangle) == (0, (0, 0, 0))
        assert calls == [0]

    def test_barbell_searches_stay_in_its_blocks(self, monkeypatch):
        # past the connectivity check from vertex 0, every search runs on
        # one C8 relabelled 0..7, at most once from each of its vertices;
        # given rows, the blocks are cut from them instead
        g = barbell(8, 6)
        index = GeodesicIndex(g)
        assert slimness_constant(g, index.dist).delta == 2
        assert len(index.dist) == 16
        reached, bfs_row = [], graphs.bfs_row

        def counted(h, source):
            row = bfs_row(h, source)
            reached.append((h is g, h.vertex_count,
                            sum(d is not INF for d in row)))
            return row

        monkeypatch.setattr(graphs, "bfs_row", counted)
        assert slimness_constant(g).delta == 2
        assert reached[0] == (True, 21, 21)
        assert set(reached[1:]) == {(False, 8, 8)} and len(reached) <= 17

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

    @staticmethod
    def _record_columns(monkeypatch):
        # the (vertex count, source) of every maximin sweep
        columns = []
        maximin_columns = graphs._maximin_columns

        def spy(g, dist, x):
            columns.append((g.vertex_count, x))
            return maximin_columns(g, dist, x)

        monkeypatch.setattr(graphs, "_maximin_columns", spy)
        return columns

    def test_witness_is_found_when_read(self, monkeypatch):
        # the barbell's blocks of more than 3 vertices are its two C8s: the
        # delta sweeps the first C8 from the two ends of its first side,
        # where the defect reaches 2, and no side of the second C8 is longer
        # than 2 * 2 + 1, so it sweeps nothing; the witness, which may span
        # blocks, sweeps every vertex of the whole graph once on each read
        columns = self._record_columns(monkeypatch)
        g = barbell(8, 6)
        rep = slimness_constant(g)
        assert rep.delta == 2
        assert columns == [(8, 0), (8, 4)]
        del columns[:]
        assert rep.witness_triangle == (0, 1, 4)
        assert sorted(columns) == [(21, x) for x in range(21)]

    def test_one_block_witness_reads_the_block_scan(self, monkeypatch):
        # the block is the whole graph, and reading the witness still runs
        # one more whole-graph scan, from its first side again: no scan
        # outlives the delta
        columns = self._record_columns(monkeypatch)
        rep = slimness_constant(cycle_graph(6))
        assert columns == [(6, 0), (6, 3)]
        assert (rep.delta, rep.witness_triangle) == (1, (0, 1, 3))
        assert columns[:4] == [(6, 0), (6, 3)] * 2
        assert sorted(columns[2:]) == [(6, x) for x in range(6)]

    def test_delta_sweeps_only_the_endpoints_it_reads(self, monkeypatch):
        # on C20 the first side, an antipodal pair, already has defect 5,
        # and no side is longer than 2 * 5 + 1: two sweeps, not twenty
        columns = self._record_columns(monkeypatch)
        assert slimness_constant(cycle_graph(20)).delta == 5
        assert columns == [(20, 0), (20, 10)]

    def test_thin_grid_sweeps_each_source_at_most_once(self, monkeypatch):
        # on the 2 x 30 grid delta stays 1 and the scan reads every side
        # longer than 3, so it reads every endpoint; each one's columns are
        # swept once however often its sides are read
        columns = self._record_columns(monkeypatch)
        assert slimness_constant(grid_graph(2, 30)).delta == 1
        assert sorted(columns) == [(60, x) for x in range(60)]


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

    def test_circuits_and_fineness_match_networkx(self):
        # with no dedup set, each circuit through an edge must still be
        # listed once; the profile counts the same circuits by length
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(3, 8)
            g = make_graph(n, [e for e in combinations(range(n), 2)
                               if rng.random() < 0.45])
            max_len = rng.randint(3, 8)
            cycles = [tuple(c) for c in nx.simple_cycles(
                nx.Graph(list(g.edges)), length_bound=max_len)
                if len(c) >= 3]
            want_profile = dict.fromkeys(range(3, max_len + 1), 0)
            for u, v in sorted(g.edges):
                want = sorted(_canonical_circuit(c) for c in cycles
                              if any({c[i - 1], c[i]} == {u, v}
                                     for i in range(len(c))))
                got = circuits_through_edge(g, (u, v), max_len)
                assert got == want and len(set(got)) == len(got)
                for k in range(3, max_len + 1):
                    want_profile[k] = max(want_profile[k], sum(
                        1 for c in got if len(c) == k))
            assert fineness_profile(g, max_len) == want_profile


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
