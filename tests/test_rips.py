import re
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from coarsecover import graphs, rips
from coarsecover.angles import AngleSet, all_angles, k_fold_sum, theta3, \
    trivial_only
from coarsecover.corpus import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_tree,
    rips_instances,
    triangle_caterpillar,
    wedge_of_cycles,
)
from coarsecover.graphs import CapExceeded, GeodesicIndex, make_graph, \
    slimness_constant
from coarsecover.rips import (
    build_rips,
    complex_stats,
    contract_subcomplex,
    ContractionError,
    FACE_CAP,
    homology_oracle,
    SimplicialComplex,
)
from oracles import complex_stats_brute, contraction_measure, \
    large_angle_vertices, rational_rank


def near_map(edges):
    """near(v) for the relation given by an edge list."""
    near = {}
    for u, v in edges:
        near.setdefault(u, set()).add(v)
        near.setdefault(v, set()).add(u)
    return lambda v: near.get(v, ())


def simplex_set(P):
    return {s for ss in P.faces(FACE_CAP).values() for s in ss}


class TestBuildRips:
    def test_scale_one_is_clique_complex(self):
        g = cycle_graph(6)
        P = build_rips(g, 1, trivial_only(g), GeodesicIndex(g))
        assert sorted(sorted(s) for s in P.maximal_simplices) == \
            [[0, 1], [0, 5], [1, 2], [2, 3], [3, 4], [4, 5]]
        k4 = complete_graph(4)
        Pk = build_rips(k4, 1, trivial_only(k4), GeodesicIndex(k4))
        assert Pk.maximal_simplices == (frozenset({0, 1, 2, 3}),)

    def test_tree_at_diameter_is_one_simplex(self):
        g = random_tree(8, seed=1)
        P = build_rips(g, 10, all_angles(g), GeodesicIndex(g))
        assert len(P.maximal_simplices) == 1
        assert P.dimension == 7

    def test_c6_scale_two(self):
        g = cycle_graph(6)
        P = build_rips(g, 2, all_angles(g), GeodesicIndex(g))
        got = sorted(sorted(s) for s in P.maximal_simplices)
        assert got == [[0, 1, 2], [0, 1, 5], [0, 2, 4], [0, 4, 5],
                       [1, 2, 3], [1, 3, 5], [2, 3, 4], [3, 4, 5]]

    def test_monotone_in_scale_and_size(self):
        g = wedge_of_cycles(2, 5)
        t3 = theta3(g)
        small = build_rips(g, 2, t3, GeodesicIndex(g))
        bigger_d = build_rips(g, 3, t3, GeodesicIndex(g))
        bigger_t = build_rips(g, 2, all_angles(g), GeodesicIndex(g))
        s0 = simplex_set(small)
        assert s0 <= simplex_set(bigger_d)
        assert s0 <= simplex_set(bigger_t)

    def test_adjacent_cone_vertices_refused(self):
        g = make_graph(3, [(0, 1), (1, 2)], cone_vertices=[0, 1])
        with pytest.raises(Exception, match="adjacent cone"):
            build_rips(g, 1, trivial_only(g), GeodesicIndex(g))


@st.composite
def labelled_graphs(draw, max_n=12):
    """(vertices, edges): up to max_n vertices with sparse distinct labels,
    so the bit positions of the clique masks are not the labels."""
    vertices = sorted(draw(st.sets(st.integers(0, 40), max_size=max_n)))
    pairs = list(combinations(vertices, 2))
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    return vertices, edges


class TestCliques:
    @settings(max_examples=200, deadline=None)
    @given(labelled_graphs())
    @example(([], []))
    @example(([3, 7, 9], []))
    @example((list(range(6)), list(combinations(range(6), 2))))
    @example((list(range(7)), [(i, (i + 1) % 7) for i in range(7)]))
    def test_maximal_cliques_match_networkx(self, case):
        vertices, edges = case
        G = nx.Graph()
        G.add_nodes_from(vertices)
        G.add_edges_from(edges)
        want = sorted((frozenset(c) for c in nx.find_cliques(G)),
                      key=lambda s: sorted(s))
        P = rips._clique_complex(vertices, near_map(edges))
        assert P.vertices == tuple(vertices)
        assert P.maximal_simplices == tuple(want)

    @settings(max_examples=100, deadline=None)
    @given(labelled_graphs(), st.data())
    def test_near_sets_are_cut_to_the_vertex_set(self, case, data):
        # the relation reaches past the vertex set; the complex is that of
        # the induced subgraph
        vertices, edges = case
        kept = sorted(data.draw(st.sets(st.sampled_from(vertices)))
                      if vertices else [])
        G = nx.Graph(edges)
        G.add_nodes_from(vertices)
        H = G.subgraph(kept)
        want = sorted((frozenset(c) for c in nx.find_cliques(H)),
                      key=lambda s: sorted(s))
        P = rips._clique_complex(kept, near_map(edges))
        assert P.maximal_simplices == tuple(want)

    def test_empty_vertex_set_has_no_simplex(self):
        P = rips._clique_complex([], near_map([]))
        assert P.maximal_simplices == () and P.dimension == -1


class TestStats:
    def test_single_simplex(self):
        g = path_graph(3)
        P = build_rips(g, 4, all_angles(g), GeodesicIndex(g))
        st = complex_stats(P)
        assert st["dimension"] == 2
        assert st["simplices_by_dim"] == {0: 3, 1: 3, 2: 1}

    def test_empty(self):
        P = SimplicialComplex((), ())
        assert P.dimension == -1
        assert complex_stats(P)["dimension"] == -1

    def test_c6_scale_two_dimension(self):
        g = cycle_graph(6)
        st = complex_stats(build_rips(g, 2, all_angles(g), GeodesicIndex(g)))
        assert st["dimension"] == 2
        assert st["simplices_by_dim"][2] == 8


class TestHomology:
    def test_single_simplex(self):
        g = path_graph(4)
        P = build_rips(g, 5, all_angles(g), GeodesicIndex(g))
        assert homology_oracle(P, 3) == (1, 0, 0, 0)

    def test_circle(self):
        g = cycle_graph(6)
        P = build_rips(g, 1, trivial_only(g), GeodesicIndex(g))
        assert homology_oracle(P, 1) == (1, 1)

    def test_c6_scale_two_is_a_sphere(self):
        g = cycle_graph(6)
        P = build_rips(g, 2, all_angles(g), GeodesicIndex(g))
        assert homology_oracle(P, 2) == (1, 0, 1)

    def test_two_circles(self):
        g = wedge_of_cycles(2, 6)
        P = build_rips(g, 1, trivial_only(g), GeodesicIndex(g))
        assert homology_oracle(P, 2) == (1, 2, 0)


def contraction_setup(g, d):
    index = GeodesicIndex(g)
    t3 = theta3(g, index=index)
    theta = k_fold_sum(t3, 7)
    delta = slimness_constant(g).delta
    return index, theta, delta


class TestContraction:
    @pytest.mark.parametrize("g, d", [(path_graph(32), 5),
                                      (random_tree(40, seed=3), 4)],
                             ids=["path32", "tree40"])
    def test_the_chain_fills_no_relation_row(self, monkeypatch, g, d):
        # the perfbench rips chain on a tree: theta3 finds no block, so it
        # reads no row; slimness makes its connectivity check from 0 and
        # contract_subcomplex reads the base row of vertex 0; the folds
        # are angle-folds and base-folds, so no far-fold reads a row, and
        # K0 holds every replacement.  The relation's sweeps read none
        calls, bfs_row = [], graphs.bfs_row

        def counted(h, source):
            calls.append(source)
            return bfs_row(h, source)

        monkeypatch.setattr(graphs, "bfs_row", counted)
        index, theta, delta = contraction_setup(g, d)
        trace = contract_subcomplex(sorted(g.vertices), g, d, theta, delta,
                                    index=index)
        P = build_rips(g, d, theta, index=index)
        assert homology_oracle(P, max(P.dimension, 0)) == (1, 0)
        assert {m.case for m in trace.moves} == {"angle-fold", "base-fold"}
        assert len(trace.moves) == g.vertex_count - 1
        assert calls == [0, 0]
        assert list(index.dist.keys()) == [0]

    def test_single_vertex(self):
        g = path_graph(6)
        index, theta, delta = contraction_setup(g, 4)
        trace = contract_subcomplex([3], g, 4, theta, delta, index=index)
        assert trace.moves == () and trace.final_vertex == 3

    def test_tree_edge(self):
        g = random_tree(10, seed=2)
        index, theta, delta = contraction_setup(g, 4)
        pair = sorted(sorted(g.edges)[0])
        trace = contract_subcomplex(pair, g, 4, theta, delta, index=index)
        assert len(trace.moves) >= 1
        assert trace.final_vertex == trace.basepoint == pair[0]

    def test_hypothesis_checks(self):
        g = cycle_graph(6)
        index, theta, delta = contraction_setup(g, 4)
        with pytest.raises(ValueError, match="4 \\* delta"):
            contract_subcomplex([0, 1], g, 2, theta, delta, index=index)
        with pytest.raises(ValueError, match="sevenfold"):
            contract_subcomplex([0, 1], g, 4, trivial_only(g), delta,
                                index=index)

    def test_measure_strictly_decreases(self):
        g = triangle_caterpillar(8, [2, 5])
        index, theta, delta = contraction_setup(g, None)
        d = 4 * max(1, delta)
        trace = contract_subcomplex(sorted(g.vertices), g, d, theta, delta,
                                    index=index)
        for m in trace.moves:
            assert m.measure_after < m.measure_before

    def test_corpus_contracts_and_homology_agrees(self):
        for name, g, d in rips_instances():
            index = GeodesicIndex(g)
            t3 = theta3(g, index=index)
            theta = k_fold_sum(t3, 7)
            delta = slimness_constant(g).delta
            assert d >= 4 * max(1, delta), name
            trace = contract_subcomplex(sorted(g.vertices), g, d, theta,
                                        delta, index=index)
            assert trace.final_vertex == trace.basepoint
            P = build_rips(g, d, theta, index=index)
            betti = homology_oracle(P, max(P.dimension, 0))
            assert betti[0] == 1 and all(b == 0 for b in betti[1:]), name

    def test_moves_act_simplicially(self):
        # after a fold, the image of every simplex through the moved vertex
        # is again a simplex on surviving vertices
        g = wedge_of_cycles(2, 6)
        index = GeodesicIndex(g)
        t3 = theta3(g, index=index)
        theta = k_fold_sum(t3, 7)
        delta = slimness_constant(g).delta
        d = 4 * max(1, delta) + 2
        from coarsecover.rips import SmallPairRelation
        rel = SmallPairRelation(g, d, theta)
        K = set(g.vertices)
        trace = contract_subcomplex(sorted(K), g, d, theta, delta, index=index)
        for m in trace.moves:
            for u in K:
                if u != m.vertex and rel.joined(u, m.vertex):
                    assert rel.joined(u, m.replacement) or u == m.replacement
            K = (K - {m.vertex}) | {m.replacement}

    def test_fold_preserves_homotopy_type(self):
        # span(K + replacement) and span(K after the fold) agree in homology
        g = triangle_caterpillar(6, [1, 4])
        index = GeodesicIndex(g)
        t3 = theta3(g, index=index)
        theta = k_fold_sum(t3, 7)
        delta = slimness_constant(g).delta
        d = 4 * max(1, delta)
        K = sorted(g.vertices)
        trace = contract_subcomplex(K, g, d, theta, delta, index=index)
        current = set(K)
        from coarsecover.rips import SmallPairRelation, _clique_complex
        rel = SmallPairRelation(g, d, theta)
        for m in trace.moves[:6]:
            union_vs = sorted(current | {m.replacement})
            after_vs = sorted((current - {m.vertex}) | {m.replacement})
            cu = _clique_complex(union_vs, rel.near)
            ca = _clique_complex(after_vs, rel.near)
            dim = max(cu.dimension, 0)
            assert homology_oracle(cu, dim) == homology_oracle(ca, dim)
            current = (current - {m.vertex}) | {m.replacement}

    @pytest.mark.parametrize("g", [wedge_of_cycles(2, 6),
                                   triangle_caterpillar(8, [2, 5])],
                             ids=["wedge2-6", "caterpillar8"])
    def test_one_depth_sweep_per_contraction(self, monkeypatch, g):
        calls = []
        real = rips._large_turn_depths

        def counted(index, small, v0):
            calls.append(v0)
            return real(index, small, v0)

        monkeypatch.setattr(rips, "_large_turn_depths", counted)
        index, theta, delta = contraction_setup(g, None)
        trace = contract_subcomplex(sorted(g.vertices), g, 4 * max(1, delta),
                                    theta, delta, index=index)
        assert trace.moves
        assert calls == [0]

    def test_replacements_stay_in_span(self):
        g = wedge_of_cycles(2, 6)
        index = GeodesicIndex(g)
        t3 = theta3(g, index=index)
        theta = k_fold_sum(t3, 7)
        delta = slimness_constant(g).delta
        d = 4 * max(1, delta)
        K = [1, 4, 8]
        span = set(K)
        for u in K:
            for v in K:
                span.update(index.geodesic_vertex_set(u, v))
        trace = contract_subcomplex(K, g, d, theta, delta, index=index)
        for m in trace.moves:
            assert m.replacement in span


@st.composite
def subcomplexes(draw, proper=False):
    """(g, K0, extra, all_sizes): a connected graph on up to 10 vertices, a
    vertex set (a proper one when asked, else the whole set half the time),
    the scale above 4 * delta and whether theta is every angle."""
    n = draw(st.integers(2 if proper else 1, 10))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = list(combinations(range(n), 2))
    if pairs:
        edges |= draw(st.sets(st.sampled_from(pairs), max_size=5))
    if not proper and draw(st.booleans()):
        K0 = list(range(n))
    else:
        K0 = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1,
                                 max_size=n - 1 if proper else n)))
    return (make_graph(n, edges), K0, draw(st.integers(0, 2)),
            draw(st.booleans()))


class TestContractionClauses:
    @settings(max_examples=100, deadline=None)
    @given(subcomplexes())
    @example((grid_graph(2, 8), list(range(16)), 0, False))
    @example((wedge_of_cycles(2, 6), [1, 4, 8], 0, False))
    def test_fold_measure_matches_the_rescan(self, case):
        # the kept measure against oracles.contraction_measure, which
        # rescans K, on every move; the trace's sums must be the rescan's
        g, K0, extra, all_sizes = case
        index = GeodesicIndex(g)
        t3 = theta3(g, index=index)
        theta = all_angles(g) if all_sizes else k_fold_sum(t3, 7)
        delta = slimness_constant(g, index.dist).delta
        trace = contract_subcomplex(K0, g, 4 * max(1, delta) + extra, theta,
                                    delta, index=index)
        t3_2 = k_fold_sum(t3, 2)
        v0 = K0[0]
        d0 = index.dist[v0]

        def large_at(v):
            return large_angle_vertices(index, t3_2, v0, v)

        K = set(K0)
        depth, _ = rips._large_turn_depths(index, t3_2, v0)
        measure = rips._FoldMeasure(d0, depth.__getitem__, K)
        want = contraction_measure(d0, large_at, K)
        for m in trace.moves:
            assert measure.value() == want
            assert m.measure_before == (want[0] + want[1], want[2] + want[3])
            measure.fold(m.vertex, m.replacement, K)
            K = (K - {m.vertex}) | {m.replacement}
            want = contraction_measure(d0, large_at, K)
            assert m.measure_after == (want[0] + want[1], want[2] + want[3])
        assert measure.value() == want
        assert K == {v0} and want[0] == 0

    @settings(max_examples=100, deadline=None)
    @given(subcomplexes(), st.data())
    def test_depth_sweep_matches_the_per_vertex_scan(self, case, data):
        # for every vertex v, the sweep's (depth, witness) is the largest
        # distance and the least vertex at it of the reference's per-vertex
        # scan, under each size: the graph's angles (every turn small), the
        # contraction's twofold and the sevenfold corner size, the trivial
        # angles (every turn large) and a drawn set of angles, which can
        # hold one turn at a vertex and not another
        g, K0, _, _ = case
        index = GeodesicIndex(g)
        t3 = theta3(g, index=index)
        v0 = K0[0]
        angles = sorted(all_angles(g).nontrivial)
        keep = data.draw(st.lists(st.booleans(), min_size=len(angles),
                                  max_size=len(angles)))
        drawn = [t for t, k in zip(angles, keep) if k]
        for small in (all_angles(g), k_fold_sum(t3, 2), k_fold_sum(t3, 7),
                      trivial_only(g), AngleSet(g, frozenset(drawn))):
            depth, witness = rips._large_turn_depths(index, small, v0)
            for v in g.vertices:
                large = large_angle_vertices(index, small, v0, v)
                beta = max(large.values(), default=0)
                assert depth[v] == beta
                assert witness[v] == min(
                    (w for w, dw in large.items() if dw == beta),
                    default=None)

    @settings(max_examples=100, deadline=None)
    @given(subcomplexes(proper=True))
    def test_span_predicate_is_the_geodesic_hull(self, case):
        g, K0, _, _ = case
        index = GeodesicIndex(g)
        hull = set(K0)
        for u, v in combinations(K0, 2):
            hull.update(index.geodesic_vertex_set(u, v))
        assert {w for w in g.vertices
                if rips._in_span(index.dist, K0, w)} == hull

    @staticmethod
    def _witness_moved(monkeypatch, old, new):
        # every large-angle witness old is reported as new instead, so an
        # angle-fold onto old is forced onto new
        real = rips._large_turn_depths

        def moved(index, small, v0):
            depth, witness = real(index, small, v0)
            return depth, [new if w == old else w for w in witness]

        monkeypatch.setattr(rips, "_large_turn_depths", moved)

    def test_replacement_off_the_hull_is_refused(self, monkeypatch):
        # the star 0-1-2, 1-3: K0 = {0, 2} folds 2 -> 1 at the angle at 1;
        # forced onto the leaf 3, the fold keeps 2's neighbors (d = 4 joins
        # every pair) and only the span clause can refuse it
        g = make_graph(4, [(0, 1), (1, 2), (1, 3)])
        index = GeodesicIndex(g)
        trace = contract_subcomplex([0, 2], g, 4, all_angles(g), 0,
                                    index=index)
        assert (trace.moves[0].vertex, trace.moves[0].replacement) == (2, 1)
        self._witness_moved(monkeypatch, 1, 3)
        with pytest.raises(ContractionError,
                           match="replacement 3 leaves the span"):
            contract_subcomplex([0, 2], g, 4, all_angles(g), 0, index=index)

    def test_dropped_neighbor_is_named(self, monkeypatch):
        # on the path 0..8 at d = 4, K0 = {0, 2, 4} folds 4 -> 3; forced
        # onto 8, the fold loses 4's neighbors 0 and 2, and the smallest
        # is named
        g = path_graph(9)
        index = GeodesicIndex(g)
        trace = contract_subcomplex([0, 2, 4], g, 4, all_angles(g), 0,
                                    index=index)
        assert (trace.moves[0].vertex, trace.moves[0].replacement) == (4, 3)
        self._witness_moved(monkeypatch, 3, 8)
        with pytest.raises(ContractionError,
                           match="fold 4 -> 8 drops the neighbor 0$"):
            contract_subcomplex([0, 2, 4], g, 4, all_angles(g), 0,
                                index=index)

    def test_fold_back_up_is_refused(self, monkeypatch):
        # on the path 0..5 at d = 4, K0 = {0, 3} folds 3 -> 2 -> 1 -> 0;
        # with the witness 1 moved to 3 the second fold sends 2 back to 3,
        # which keeps every other clause and raises the measure
        g = path_graph(6)
        index = GeodesicIndex(g)
        trace = contract_subcomplex([0, 3], g, 4, all_angles(g), 0,
                                    index=index)
        assert [(m.vertex, m.replacement) for m in trace.moves] == \
            [(3, 2), (2, 1), (1, 0)]
        self._witness_moved(monkeypatch, 1, 3)
        with pytest.raises(ContractionError, match=re.escape(
                "measure did not decrease: (3, 2) -> (5, 2)")):
            contract_subcomplex([0, 3], g, 4, all_angles(g), 0, index=index)


def count_ranks(monkeypatch):
    """Patch rips._rank, the rational rank, to count its calls; the list it
    returns gains one entry per call."""
    calls = []
    real_rank = rips._rank

    def counted(columns):
        calls.append(1)
        return real_rank(columns)

    monkeypatch.setattr(rips, "_rank", counted)
    return calls


class TestHomologyExactness:
    def test_projective_plane_over_the_rationals(self, monkeypatch):
        # closed nonorientable surface: mod-2 ranks would report a onefold
        # first Betti number, the rational ranks must not
        faces = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
                 (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5)]
        P = SimplicialComplex(tuple(range(6)),
                              tuple(frozenset(f) for f in faces))
        # acyclic but not contractible, so no strong collapse answers it:
        # the rational ranks must
        ranks = count_ranks(monkeypatch)
        assert homology_oracle(P, 2) == (1, 0, 0)
        assert ranks

    def test_torus_like_band(self):
        # two disjoint circles wedge-free: independent cycles add up
        g = wedge_of_cycles(3, 5)
        P = build_rips(g, 1, trivial_only(g), GeodesicIndex(g))
        assert homology_oracle(P, 1) == (1, 3)


def rational_betti(P, max_dim):
    """Betti numbers from Fraction elimination alone."""
    by_dim = P.faces(FACE_CAP)
    ranks = {}
    for k, ss in by_dim.items():
        if k > 0:
            lower = {f: i for i, f in enumerate(by_dim[k - 1])}
            ranks[k] = rational_rank(
                [{lower[s[:j] + s[j + 1:]]: Fraction(-1 if j % 2 else 1)
                  for j in range(len(s))} for s in ss])
    return tuple(len(by_dim.get(k, [])) - ranks.get(k, 0)
                 - ranks.get(k + 1, 0) for k in range(max_dim + 1))


@st.composite
def flag_complexes(draw):
    n = draw(st.integers(1, 9))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k]
    if draw(st.booleans()):
        # a cone over the rest: contractible, so the fast path answers
        edges += [(0, v) for v in range(1, n)]
    P = rips._clique_complex(range(n), near_map(edges))
    return P, draw(st.integers(0, P.dimension + 1))


def test_homology_matches_the_rational_reference(monkeypatch):
    check_rational_reference(monkeypatch)


def test_homology_matches_the_rational_reference_without_collapse(
        monkeypatch):
    # the rational ranks alone must then answer every complex
    monkeypatch.setattr(rips, "_strongly_collapsible", lambda P: False)
    check_rational_reference(monkeypatch)


def check_rational_reference(monkeypatch):
    # the ranks run exactly when the strong collapse does not answer
    ranks = count_ranks(monkeypatch)
    seen = set()

    @settings(max_examples=150, deadline=None)
    @given(flag_complexes())
    def check(case):
        P, max_dim = case
        want = rational_betti(P, max_dim)
        before = len(ranks)
        assert homology_oracle(P, max_dim) == want
        assert (len(ranks) == before) == rips._strongly_collapsible(P)
        seen.add(want == (1,) + (0,) * max_dim)

    check()
    assert seen == {True, False}


@st.composite
def unequal_complexes(draw):
    """Complexes on up to 8 vertices given by 2 to 5 maximal simplices of
    unequal sizes; not flag complexes in general.  L, the first k of a
    vertex order, and a smaller S holding the next vertex are incomparable,
    and each of up to 3 further sets loses a vertex of L and one of S, so
    no set drawn strictly holds L or S: both stay maximal.  Sets are drawn
    as lists, since sets of distinct draws from 8 values are often
    rejected."""
    vertex = st.integers(0, 7)
    order = draw(st.permutations(range(8)))
    k = draw(st.integers(2, 7))
    L = frozenset(order[:k])
    S = frozenset([order[k]]
                  + draw(st.lists(st.sampled_from(order), max_size=k - 2)))
    drawn = [L, S]
    for f in draw(st.lists(st.lists(vertex, min_size=1), max_size=3)):
        drawn.append(frozenset(f) - {draw(st.sampled_from(sorted(L))),
                                     draw(st.sampled_from(sorted(S)))})
    maximal = {s for s in drawn if not any(s < t for t in drawn)}
    return SimplicialComplex(tuple(sorted(frozenset().union(*maximal))),
                             tuple(sorted(maximal, key=sorted)))


@settings(max_examples=150, deadline=None)
@given(unequal_complexes(), st.data())
def test_homology_off_flag_complexes_matches_the_rational_reference(P, data):
    max_dim = data.draw(st.integers(-1, P.dimension + 1))
    assert homology_oracle(P, max_dim) == rational_betti(P, max_dim)


def complex_of(*maximal, vertices=None):
    """The complex with the given maximal simplices, on their union unless
    vertices are given."""
    if vertices is None:
        vertices = sorted(set().union(*maximal))
    return SimplicialComplex(tuple(vertices),
                             tuple(frozenset(s) for s in maximal))


OCTAHEDRON = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]


class TestStrongCollapse:
    @pytest.mark.parametrize("P, max_dim, want, collapses", [
        (complex_of((0, 1, 2)), -1, (), True),
        (complex_of((0, 1), (1, 2)), 1, (1, 0), True),
        (complex_of((0, 1, 2), (0, 2, 3), (0, 3, 1)), 2, (1, 0, 0), True),
        (complex_of(vertices=(0,)), 1, (0, 0), False),
        (complex_of(), 1, (0, 0), False),
        (complex_of(), -1, (), False),
        (complex_of((0, 1), (2, 3)), 1, (2, 0), False),
        (complex_of((0, 1), (1, 2), (0, 2)), 1, (1, 1), False),
        (complex_of(*OCTAHEDRON), 2, (1, 0, 1), False),
    ], ids=["simplex-below-0", "path", "cone-on-circle", "lone-vertex",
            "empty", "empty-below-0", "two-edges", "hollow-triangle",
            "octahedron"])
    def test_pins(self, P, max_dim, want, collapses):
        assert rips._strongly_collapsible(P) == collapses
        assert homology_oracle(P, max_dim) == want
        assert rational_betti(P, max_dim) == want

    def test_criterion_06_complexes_need_no_reduction(self, monkeypatch):
        ranks = count_ranks(monkeypatch)
        for name, g, d in rips_instances():
            index = GeodesicIndex(g)
            theta = k_fold_sum(theta3(g, index=index), 7)
            P = build_rips(g, d, theta, index=index)
            max_dim = max(P.dimension, 0)
            assert homology_oracle(P, max_dim, cap=5000) == \
                (1,) + (0,) * max_dim, name
        assert ranks == []


class TestStatsParity:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(flag_complexes().map(lambda case: case[0]),
                     unequal_complexes()))
    @example(SimplicialComplex((), ()))
    def test_stats_match_the_enumeration(self, P):
        assert complex_stats(P) == complex_stats_brute(P)

    def test_cap_counts_distinct_simplices(self):
        # three triangles in a strip share edges: 15 distinct simplices,
        # 7 in each triangle, so only the union can pass the cap
        P = SimplicialComplex(tuple(range(5)), (
            frozenset({0, 1, 2}), frozenset({1, 2, 3}), frozenset({2, 3, 4})))
        assert complex_stats_brute(P)["total_simplices"] == 15
        assert sum(map(len, P.faces(cap=15).values())) == 15
        with pytest.raises(CapExceeded, match="more than 14 simplices"):
            P.faces(cap=14)


class TestCaps:
    def test_simplex_expansion_cap(self):
        g = random_tree(25, seed=5)
        # one simplex on 25 vertices
        P = build_rips(g, 30, all_angles(g), GeodesicIndex(g))
        with pytest.raises(CapExceeded):
            P.faces(cap=1000)
        with pytest.raises(CapExceeded):
            homology_oracle(P, 2, cap=1000)
