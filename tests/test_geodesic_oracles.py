"""Property tests: the geodesic-triangle kernels against the brute-force
oracles.

Random graphs have at most 9 vertices: a random forest (a spanning tree
when connectivity is required) plus a few extra edges, with up to two
cone vertices.
"""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from coarsecover.angles import theta3
from coarsecover.graphs import (
    barycentric_subdivision,
    distance_matrix,
    geodesic_counts,
    make_graph,
    slimness_constant,
)
from oracles import (
    all_simple_shortest_paths,
    theta3_brute,
    theta3_subdivision_brute,
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


def _corners(g):
    return [p for p in g.vertices if p not in g.cone_vertices]


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
    assert theta3(g, include_cone_completion=False).nontrivial == \
        theta3_brute(g, _corners(g))


@SETTINGS
@given(graphs(max_n=6, max_extra=4))
def test_theta3_on_subdivision_matches_brute(g):
    sub = barycentric_subdivision(g)
    assert theta3(sub).nontrivial == theta3_subdivision_brute(sub)
    assert theta3(sub, include_cone_completion=False).nontrivial == \
        theta3_subdivision_brute(sub, _corners(sub.graph))


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
