"""Property tests: the geodesic-triangle kernels, the geodesic turn
iterator, the small-geodesic sweeps and the Rips pair relation built on
them against the brute-force oracles.

Random graphs have at most 9 vertices: a random forest (a spanning tree
when connectivity is required) plus a few extra edges, with up to two
cone vertices.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from coarsecover.angles import AngleSet, SmallnessOracle, all_angles, \
    canonical_angle, geodesic_turns, small_carriers, small_steps, theta3
from coarsecover.graphs import (
    INF,
    GeodesicIndex,
    barycentric_subdivision,
    canon_edge,
    distance_matrix,
    geodesic_counts,
    make_graph,
    slimness_constant,
)
from coarsecover.rips import SmallPairRelation
from oracles import (
    all_simple_shortest_paths,
    theta3_brute,
    theta3_subdivision_brute,
    theta_small_paths_brute,
    triangle_defects_brute,
)

SETTINGS = settings(max_examples=100, deadline=None)


@st.composite
def graphs(draw, max_n=9, max_extra=8, connected=False):
    n = draw(st.integers(1, max_n))
    edges = set()
    for v in range(1, n):
        # a parent of -1 starts a new component
        u = draw(st.integers(0 if connected else -1, v - 1))
        if u >= 0:
            edges.add((u, v))
    pairs = list(combinations(range(n), 2))
    if pairs:
        edges |= draw(st.sets(st.sampled_from(pairs), max_size=max_extra))
    cones = draw(st.sets(st.integers(0, n - 1), max_size=2))
    return make_graph(n, edges, cones)


@SETTINGS
@given(graphs())
def test_geodesic_counts_match_enumeration(g):
    sigma = geodesic_counts(g, distance_matrix(g))
    for s in g.vertices:
        for w in g.vertices:
            assert sigma[s][w] == len(all_simple_shortest_paths(g, s, w))


@SETTINGS
@given(graphs())
def test_theta3_matches_brute(g):
    assert theta3(g).nontrivial == theta3_brute(g)


@SETTINGS
@given(graphs(max_n=6, max_extra=4))
def test_theta3_on_subdivision_matches_brute(g):
    sub = barycentric_subdivision(g)
    assert theta3(sub).nontrivial == theta3_subdivision_brute(sub)


def _check_slimness(g):
    rep = slimness_constant(g)
    defects = triangle_defects_brute(g)
    assert rep.delta == max(defects.values(), default=0)
    # the witness is the first triple, in combinations order, at delta
    first = next((t for t, d in defects.items() if d == rep.delta > 0),
                 (0, 0, 0))
    assert rep.witness_triangle == first


@SETTINGS
@given(graphs(connected=True))
def test_slimness_matches_brute(g):
    _check_slimness(g)


@SETTINGS
@given(graphs(max_n=6, max_extra=4, connected=True))
def test_slimness_on_subdivision_matches_brute(g):
    _check_slimness(barycentric_subdivision(g).graph)


def _check_geodesic_turns(g, sub=None):
    """geodesic_turns against the turns read off every geodesic that the
    exhaustive DFS all_simple_shortest_paths finds, each with the canonical
    angle of its two original edges, in (w, p, s) order.  No yielded angle
    has equal far ends, and a disconnected pair raises ValueError."""
    if sub is None:
        graph = g

        def step(a, b):
            return canon_edge(a, b)
    else:
        graph = sub.graph

        def step(a, b):
            return sub.edge_of_midpoint[a if sub.is_midpoint(a) else b]
    index = GeodesicIndex(graph)
    dist = index.dist
    for u in graph.vertices:
        for v in graph.vertices:
            if dist[u][v] is INF:
                with pytest.raises(ValueError):
                    list(geodesic_turns(index, sub, u, v))
                continue
            want = set()
            for path in all_simple_shortest_paths(graph, u, v):
                for p, w, s in zip(path, path[1:], path[2:]):
                    if sub is None or not sub.is_midpoint(w):
                        (x,), (y,) = set(step(p, w)) - {w}, set(step(w, s)) - {w}
                        want.add((w, p, s, canonical_angle(x, w, y)))
            got = list(geodesic_turns(index, sub, u, v))
            assert got == sorted(set(got))
            assert set(got) == want
            assert all(x != y for *_, (x, _, y) in got)
            for at in graph.vertices:
                assert list(geodesic_turns(index, sub, u, v, at=at)) == \
                    [t for t in got if t[0] == at]


@SETTINGS
@given(graphs())
def test_geodesic_turns_match_enumerated_geodesics(g):
    _check_geodesic_turns(g)


@SETTINGS
@given(graphs())
def test_geodesic_turns_on_subdivision_match_enumerated_geodesics(g):
    _check_geodesic_turns(g, barycentric_subdivision(g))


@st.composite
def graphs_with_theta(draw, **kw):
    """A random graph and a random size: any subset of its angles."""
    g = draw(graphs(**kw))
    angles = sorted(all_angles(g).nontrivial)
    chosen = draw(st.sets(st.sampled_from(angles))) if angles else ()
    return g, AngleSet(g, frozenset(chosen))


def _check_small_geodesics(g, theta, sub=None):
    """The small-step sweeps and the carriers built from them against the
    theta-small geodesics found by DFS, on every ordered pair."""
    graph = g if sub is None else sub.graph
    oracle = SmallnessOracle(g if sub is None else sub, theta)
    index = GeodesicIndex(graph)
    steps = [small_steps(index, oracle, x) for x in graph.vertices]
    for u in graph.vertices:
        for v in graph.vertices:
            paths = theta_small_paths_brute(graph, theta, u, v, sub)
            assert steps[u][v] == {p[-2] for p in paths if len(p) > 1}
            assert small_carriers(index, oracle, steps[u], steps[v], u, v) \
                == frozenset(w for p in paths for w in p)


@SETTINGS
@given(graphs_with_theta())
def test_small_geodesic_scans_match_brute(case):
    _check_small_geodesics(*case)


@SETTINGS
@given(graphs_with_theta(max_n=6, max_extra=4))
def test_small_geodesic_scans_on_subdivision_match_brute(case):
    g, theta = case
    _check_small_geodesics(g, theta, barycentric_subdivision(g))


@SETTINGS
@given(graphs_with_theta(), st.integers(1, 4))
def test_small_pair_relation_is_symmetric_and_matches_brute(case, d):
    g, theta = case
    rel = SmallPairRelation(g, d, theta)
    for u in g.vertices:
        for v in g.vertices:
            paths = theta_small_paths_brute(g, theta, u, v)
            want = bool(paths) and len(paths[0]) - 1 <= d
            assert rel.joined(u, v) == rel.joined(v, u) == want, (u, v)
