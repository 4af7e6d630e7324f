"""Property tests: the geodesic-triangle kernels, the geodesic dominators
against the geodesic counts, the block decomposition,
the geodesic turn iterator, the small-turn table and the small-geodesic
sweeps, the chain metric d_theta with its balls, angle sums, the
Rips pair relation, the theta3 circuit bound and the lemma battery's
connector test built on them against the brute-force oracles (networkx's for the blocks),
and theta3 under a group against theta3 with every apex.

Random graphs have at most 9 vertices: a random forest (a spanning tree
when connectivity is required) plus a few extra edges, with up to two
cone vertices.  The sweeps also run on explicit graphs with a hub of
degree 12 or more.
"""

import random
from functools import reduce
from itertools import combinations, permutations
from operator import or_

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from coarsecover.angles import AngleSet, SmallnessOracle, _joined_inside, \
    all_angles, angle_sum, canonical_angle, d_theta, geodesic_dominators, \
    geodesic_turns, k_fold_sum, small_lines, small_steps, theta3, \
    theta3_circuit_bound_check
from coarsecover.corpus import barbell, cycle_graph, dihedral_group, \
    grid_graph, path_graph, spider, spider_rotation, star_graph
from coarsecover.flow import build_cf_theta
from coarsecover.graphs import (
    INF,
    GeodesicIndex,
    barycentric_subdivision,
    biconnected_blocks,
    canon_edge,
    make_graph,
    slimness_constant,
)
from coarsecover.pipeline import build_instance
from coarsecover.rips import SmallPairRelation
from coarsecover.symmetry import close_group, is_automorphism
from oracles import (
    all_simple_shortest_paths,
    angle_sum_brute,
    d_theta_definitional_oracle,
    distance_matrix,
    exit_table_definitional,
    geodesic_counts,
    mask_neighbours,
    mask_vertices,
    small_carriers,
    theta3_brute,
    theta3_circuit_bound_brute,
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
@given(graphs(), st.booleans())
def test_dominators_match_the_geodesic_counts(g, subdivided):
    """From each source p, v has bit q in the dominator mask exactly when
    it lies on every p-q geodesic by the counts: d(p,v) + d(v,q) = d(p,q)
    and sigma(p,v) * sigma(v,q) = sigma(p,q), for every q that p reaches,
    on the graph or on its subdivision."""
    if subdivided:
        g = barycentric_subdivision(g).graph
    dist = distance_matrix(g)
    sigma = geodesic_counts(g, dist)
    bit = [1 << v for v in g.vertices]
    for p in g.vertices:
        reached = [q for q in g.vertices if dist[p][q] is not INF]
        below = geodesic_dominators(g, dist[p], reached, bit)
        for v in g.vertices:
            assert [below[v] >> q & 1 for q in reached] == [
                dist[p][v] + dist[v][q] == dist[p][q]
                and sigma[p][v] * sigma[v][q] == sigma[p][q] for q in reached]


@SETTINGS
@given(graphs(), st.data())
def test_rows_filled_on_first_read_match_the_eager_reference(g, data):
    reference = distance_matrix(g)
    index = GeodesicIndex(g)
    for u in data.draw(st.permutations(list(g.vertices))):
        row = index.dist[u]
        assert row == reference[u]
        assert [d is INF for d in row] == [d is INF for d in reference[u]]
    with pytest.raises(TypeError):
        for _ in index.dist:
            pass
    if g.is_connected():
        assert slimness_constant(g).delta == \
            slimness_constant(g, reference).delta
    else:
        with pytest.raises(ValueError, match="connected"):
            slimness_constant(g)


@SETTINGS
@given(graphs())
def test_theta3_matches_brute(g):
    assert theta3(g).nontrivial == theta3_brute(g)


@SETTINGS
@given(graphs(max_n=6, max_extra=4))
# the bowtie: triangles 0-1-2 and 0-3-4 closed by the path 1-5-3; with the
# first geodesic predecessor of a corner taken as its dominator, theta3 of
# its subdivision loses the angle (2, 0, 4)
@example(make_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 5),
                        (3, 4), (3, 5)]))
def test_theta3_on_subdivision_matches_brute(g):
    sub = barycentric_subdivision(g)
    assert theta3(sub).nontrivial == theta3_subdivision_brute(sub)


@settings(max_examples=60, deadline=None)
@given(st.one_of(graphs(max_n=7, max_extra=5),
                 st.integers(3, 7).map(cycle_graph)), st.data())
def test_theta3_with_a_group_matches_without(g, data):
    """Under a group closed from some of the graph's automorphisms, theta3
    runs its apexes at orbit representatives and closes the result; it
    equals theta3 with every apex, on the graph and on its subdivision."""
    autos = [p for p in permutations(g.vertices) if is_automorphism(g, p)]
    G = close_group(g, data.draw(st.lists(st.sampled_from(autos),
                                          max_size=2)))
    sub = barycentric_subdivision(g)
    assert theta3(g, group=G) == theta3(g)
    assert theta3(sub, group=G) == theta3(sub)


@pytest.mark.parametrize("n", [16, 18, 20])
def test_theta3_with_a_dihedral_group_matches_without(n):
    g = cycle_graph(n)
    G = dihedral_group(n)
    assert theta3(g, group=G) == theta3(g)
    sub = barycentric_subdivision(g)
    assert theta3(sub, group=G) == theta3(sub)
    with pytest.raises(ValueError, match="original graph"):
        theta3(sub, group=dihedral_group(n + 1))


@pytest.mark.parametrize("g, gens", [
    (spider(3, 3), [spider_rotation(3, 3)]),
    (grid_graph(3, 3), []),
], ids=["rotated-spider", "grid-3x3"])
def test_flow_lines_match_the_per_pair_reference(g, gens):
    """build_cf_theta sweeps from the lesser end of each unordered pair;
    its lines equal the carriers built pair by pair from both ends, under
    the least size it admits, under every angle, and under that size
    joined with every angle not at vertex 0 (the spider's centre; on the
    grid every size it admits is every angle)."""
    inst = build_instance(g, gens)
    index = inst.index
    least, every = k_fold_sum(inst.t3, 2), all_angles(g)
    for theta in (least, every, least.union(AngleSet(g, frozenset(
            a for a in every.nontrivial if a[1] != 0)))):
        cf = build_cf_theta(inst.sub, theta, inst.sub.ve_vertices(),
                            group=inst.sub_group, index=index,
                            theta3_set=inst.t3)
        oracle = SmallnessOracle(inst.sub, theta)
        steps = {x: small_steps(oracle, x, INF) for x in cf.endpoints}
        assert {key: mask_vertices(m) for key, m in cf.lines.items()} == {
            (a, b): small_carriers(index, steps[a], steps[b], a, b)
            for a in cf.endpoints for b in cf.endpoints if a != b}

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
# the barbell's first C8 sets delta 2, so no side of its second C8 is read
@example(barbell(8, 6))
# one scan: delta rises from 0 to 1 at its first side, and to 2 at a later
# side longer than 2 * 1 + 1
@example(make_graph(9, [(0, 1), (0, 2), (1, 3), (2, 5), (3, 4), (3, 6),
                        (4, 5), (4, 8), (6, 7), (7, 8)]))
def test_slimness_matches_brute(g):
    _check_slimness(g)


@SETTINGS
@given(graphs(max_n=6, max_extra=4, connected=True))
def test_slimness_on_subdivision_matches_brute(g):
    _check_slimness(barycentric_subdivision(g).graph)


@st.composite
def glued_blocks(draw, max_blocks=5, max_size=6):
    """2 to max_blocks random blocks of 3 to max_size vertices, each a
    cycle through its vertices plus random chords (triangles and K4 among
    them).  Each block after the first hangs at a vertex drawn from the
    graph so far, glued there or joined to it by a path of 1 or 2 edges;
    the labels are shuffled, so cut vertices and block vertices mix."""
    n, edges = 1, []
    for k in range(draw(st.integers(2, max_blocks))):
        size = draw(st.integers(3, max_size))
        at = draw(st.integers(0, n - 1))
        for _ in range(draw(st.integers(0, 2)) if k else 0):
            edges.append((at, n))
            at, n = n, n + 1
        vs = [at] + list(range(n, n + size - 1))
        n += size - 1
        edges += [(vs[i - 1], vs[i]) for i in range(size)]
        chords = [(vs[i], vs[j]) for i, j in combinations(range(size), 2)
                  if 1 < j - i < size - 1]
        if chords:
            edges += draw(st.sets(st.sampled_from(chords)))
    perm = draw(st.permutations(range(n)))
    return make_graph(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=20, deadline=None)
@given(glued_blocks())
def test_glued_blocks_match_brute(g):
    """Slimness is the largest delta of the blocks, and the corner size is
    the union over the blocks of at least 3 vertices, triangles included;
    the witness triple may span blocks."""
    assert theta3(g).nontrivial == theta3_brute(g)
    _check_slimness(g)


@settings(max_examples=25, deadline=None)
@given(glued_blocks(max_blocks=3, max_size=4))
def test_glued_blocks_on_subdivision_match_brute(g):
    sub = barycentric_subdivision(g)
    assert theta3(sub).nontrivial == theta3_subdivision_brute(sub)


def _blocks(pairs):
    """Blocks as comparable values: (vertices, edges), both sorted."""
    return sorted((sorted({v for e in es for v in e}), sorted(es))
                  for es in pairs)


@SETTINGS
@given(st.one_of(graphs(max_n=12, max_extra=12), glued_blocks()))
def test_biconnected_blocks_match_networkx(g):
    """The blocks holding a cycle: networkx's blocks of more than one
    edge, as bridges are left out."""
    nxg = nx.Graph()
    nxg.add_edges_from(g.edges)
    want = _blocks([canon_edge(u, v) for u, v in es]
                   for es in nx.biconnected_component_edges(nxg)
                   if len(es) > 1)
    blocks = biconnected_blocks(g)
    assert _blocks(es for _, es in blocks) == want
    for vs, es in blocks:
        assert vs == sorted({v for e in es for v in e})
        assert all(e == canon_edge(*e) for e in es)


@pytest.mark.parametrize("g, want", [
    (path_graph(6), []),
    (barbell(8, 6), [list(range(8)), list(range(13, 21))]),
    (make_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]), [[0, 1, 2]])],
    ids=["path6", "barbell8-6", "triangle-with-tail"])
def test_biconnected_blocks_keep_only_cycle_blocks(g, want):
    blocks = biconnected_blocks(g)
    assert sorted(vs for vs, _ in blocks) == want
    assert all(sorted(es) == sorted(e for e in g.edges if set(e) <= set(vs))
               for vs, es in blocks)


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
def long_circuits(draw):
    """A cycle of 17 to 22 vertices with up to two chords and one pendant
    vertex: the circuits through its angles fall on both sides of the
    bound 16 that delta 0 or 1 sets, and the pendant edge's angles have
    none."""
    n = draw(st.integers(17, 22))
    edges = {canon_edge(i, (i + 1) % n) for i in range(n)}
    edges |= draw(st.sets(st.sampled_from(list(combinations(range(n), 2))),
                          max_size=2))
    edges.add((draw(st.integers(0, n - 1)), n))
    return make_graph(n + 1, edges)


def _c20_with_chord():
    return make_graph(21, [(i, (i + 1) % 20) for i in range(20)]
                      + [(0, 10), (0, 20)])


@settings(max_examples=40, deadline=None)
@given(st.one_of(graphs(connected=True), long_circuits()), st.integers(0, 2))
@example(_c20_with_chord(), 1)
@example(cycle_graph(20), 1)
def test_circuit_bound_matches_circuit_enumeration(g, delta):
    for theta in (theta3(g), all_angles(g)):
        assert theta3_circuit_bound_check(g, theta, delta) \
            == theta3_circuit_bound_brute(g, theta, delta)


def test_circuit_bound_finds_long_and_absent_circuits():
    # C20 with the chord 0-10 and the pendant edge 0-20: angles on either
    # 11-circuit pass, the angle 1-0-19 needs a circuit of 20 > 16 and the
    # pendant's angles have no circuit at all
    g = _c20_with_chord()
    rep = theta3_circuit_bound_check(g, all_angles(g), 1)
    assert rep == theta3_circuit_bound_brute(g, all_angles(g), 1)
    assert rep["max_circuit_needed"] == 11
    assert {(1, 0, 19), (1, 0, 20), (10, 0, 20)} <= set(rep["missing"])
    assert (0, 1, 2) not in rep["missing"]


@SETTINGS
@given(graphs(connected=True), st.data())
def test_joined_inside_matches_enumerated_geodesics(g, data):
    """Whether some v -> v2 geodesic stays on the edges of two xm -> xp
    geodesics ca and cb, as the battery's union-edge BFS decides it and as
    every enumerated v -> v2 geodesic shows it."""
    xm, xp = (data.draw(st.integers(0, g.vertex_count - 1)) for _ in "ab")
    geodesics = all_simple_shortest_paths(g, xm, xp)
    ca, cb = (data.draw(st.sampled_from(geodesics)) for _ in "ab")
    inside = {canon_edge(a, b) for c in (ca, cb) for a, b in zip(c, c[1:])}
    index = GeodesicIndex(g)
    for v in ca:
        for v2 in cb:
            want = any(all(canon_edge(a, b) in inside for a, b in zip(p, p[1:]))
                       for p in all_simple_shortest_paths(g, v, v2))
            assert _joined_inside(index, (ca, cb), v, v2) == want


@st.composite
def graphs_with_theta(draw, **kw):
    """A random graph and a random size: any subset of its angles."""
    g = draw(graphs(**kw))
    angles = sorted(all_angles(g).nontrivial)
    chosen = draw(st.sets(st.sampled_from(angles))) if angles else ()
    return g, AngleSet(g, frozenset(chosen))


def _check_small_geodesics(g, theta, sub=None):
    """The small-step sweeps, the carriers built from them and the lines
    of the sweep from each vertex against the theta-small geodesics found
    by DFS, on every ordered pair.  The sweep runs twice: under the
    weights 1 << v its lines are the carriers' bitmasks, and under random
    weights, half of them 0, each line is the OR of its carriers'
    weights."""
    graph = g if sub is None else sub.graph
    oracle = SmallnessOracle(g if sub is None else sub, theta)
    index = GeodesicIndex(graph)
    steps = [small_steps(oracle, x, INF) for x in graph.vertices]
    rng = random.Random(graph.vertex_count)
    weight = [rng.choice((0, rng.randrange(1 << 12))) for _ in graph.vertices]
    for u in graph.vertices:
        others = [v for v in graph.vertices if v != u]
        lines = small_lines(oracle, u, others,
                            [1 << v for v in graph.vertices])
        ors = small_lines(oracle, u, others, weight)
        for v in graph.vertices:
            paths = theta_small_paths_brute(graph, theta, u, v, sub)
            assert mask_neighbours(graph, v, steps[u][0][v]) \
                == {p[-2] for p in paths if len(p) > 1}
            carriers = frozenset(w for p in paths for w in p)
            assert small_carriers(index, steps[u], steps[v], u, v) \
                == carriers
            if v != u:
                assert mask_vertices(lines[v]) == carriers
                assert ors[v] == reduce(
                    or_, (weight[w] for w in carriers), 0), (u, v)


def _wide(g, seed):
    """g with a seeded random half of its angles as the size."""
    angles = sorted(all_angles(g).nontrivial)
    return g, AngleSet(g, frozenset(
        random.Random(seed).sample(angles, len(angles) // 2)))


# a hub 0 of degree 13 (wheel) or 12 (star): the masks at the hub are wider
# than a byte, which the random graphs above never reach
WIDE = [_wide(g, seed) for seed in (0, 1) for g in (
    make_graph(14, [(0, i) for i in range(1, 14)]
               + [(i, i % 13 + 1) for i in range(1, 14)]),
    star_graph(12))]


def wide_examples(test):
    for case in WIDE:
        test = example(case)(test)
    return test


# C7 with the angle at 1 large: from 0, vertex 3's one geodesic turns
# there, and only the unsmall vertex 2 gives 3 its layer; a sweep that does
# not advance layers from 2 reaches 3 one layer late, from 4
C7 = cycle_graph(7)
C7_AT_1_LARGE = (C7, AngleSet(C7, all_angles(C7).nontrivial - {(0, 1, 2)}))


@SETTINGS
@given(graphs_with_theta())
@wide_examples
@example(C7_AT_1_LARGE)
def test_small_geodesic_scans_match_brute(case):
    _check_small_geodesics(*case)


@SETTINGS
@given(graphs_with_theta(max_n=6, max_extra=4))
@wide_examples
def test_small_geodesic_scans_on_subdivision_match_brute(case):
    g, theta = case
    _check_small_geodesics(g, theta, barycentric_subdivision(g))


def _check_small_steps_radius(g, theta, sub=None):
    """small_steps bounded at each radius r from 0 to the diameter + 1
    against the theta-small geodesics of length at most r found by DFS:
    into[v] has the last steps of those geodesics, and reach[v] ORs the
    definitional exits of those steps, every bit at the start; both are 0
    at a vertex that no such geodesic reaches."""
    graph = g if sub is None else sub.graph
    base = g if sub is None else sub
    oracle = SmallnessOracle(base, theta)
    exits = exit_table_definitional(base, theta)[0]
    diameter = max(d for row in distance_matrix(graph) for d in row
                   if d is not INF)
    for x in graph.vertices:
        paths = [theta_small_paths_brute(graph, theta, x, v, sub)
                 for v in graph.vertices]
        for r in range(diameter + 2):
            into, reach = small_steps(oracle, x, r)
            assert reach[x] == (1 << len(graph.neighbors(x))) - 1
            for v in graph.vertices:
                ends = {p[-2] for p in paths[v] if 0 < len(p) - 1 <= r}
                assert mask_neighbours(graph, v, into[v]) == ends, (x, v, r)
                if v != x:
                    assert reach[v] == reduce(or_, (
                        exits[v][i] for i, w in enumerate(graph.neighbors(v))
                        if w in ends), 0), (x, v, r)


@SETTINGS
@given(graphs_with_theta())
@wide_examples
@example(C7_AT_1_LARGE)
def test_small_steps_radius_matches_brute(case):
    _check_small_steps_radius(*case)


@SETTINGS
@given(graphs_with_theta(max_n=6, max_extra=4))
def test_small_steps_radius_on_subdivision_matches_brute(case):
    g, theta = case
    _check_small_steps_radius(g, theta, barycentric_subdivision(g))


@st.composite
def graphs_with_size(draw, **kw):
    """A random graph and a size drawn as every angle, no angle, every
    angle but one, theta3 or a random subset of the angles."""
    g = draw(graphs(**kw))
    every = sorted(all_angles(g).nontrivial)
    kind = draw(st.sampled_from(("every", "none", "every but one", "theta3",
                                 "random")))
    if kind == "every":
        chosen = every
    elif kind == "none" or not every:
        chosen = ()
    elif kind == "every but one":
        chosen = set(every) - {draw(st.sampled_from(every))}
    elif kind == "theta3":
        chosen = theta3(g).nontrivial
    else:
        chosen = draw(st.sets(st.sampled_from(every)))
    return g, AngleSet(g, frozenset(chosen))


@SETTINGS
@given(graphs_with_size(), st.booleans())
@example(C7_AT_1_LARGE, False)
@example(C7_AT_1_LARGE, True)
def test_smallness_oracle_matches_the_definitional_exit_table(case,
                                                              subdivide):
    """SmallnessOracle's exit masks and split flags against their
    definition, on the graph or its subdivision; C7 less one angle is a
    size one angle short of every angle, which is no full size."""
    g, theta = case
    base = barycentric_subdivision(g) if subdivide else g
    oracle = SmallnessOracle(base, theta)
    assert (oracle.exits, oracle.split) == \
        exit_table_definitional(base, theta)


@SETTINGS
@given(graphs_with_size(max_n=8, max_extra=5, connected=True),
       st.integers(0, 4))
def test_d_theta_matches_the_definitional_metric(case, radius):
    """d_theta's rows against the Dijkstra over small hops at every pair
    of midpoints, INF at every original vertex, and its balls, at the
    graph's delta' and at a random radius, against the balls of the
    definitional metric."""
    g, theta = case
    sub = barycentric_subdivision(g)
    want = d_theta_definitional_oracle(sub, theta)
    mids = sub.ve_vertices()
    oracle = SmallnessOracle(sub, theta)
    for r in (slimness_constant(g).delta + 1, radius):
        rows, balls = d_theta(sub, oracle, r)
        assert list(rows) == list(mids)
        for v in mids:
            assert all(rows[v][w] is INF for w in sub.v_vertices())
            assert [rows[v][w] for w in mids] == [want[v, w] for w in mids]
            assert balls[v] == sum(1 << w for w in mids if want[v, w] <= r)
        assert balls[:g.vertex_count] == [0] * g.vertex_count


@SETTINGS
@given(graphs_with_theta(), st.booleans(), st.data())
def test_small_lines_toward_some_targets_cut_the_sweep_toward_all(
        case, subdivide, data):
    """small_lines from each vertex toward a random list of targets, in
    random order and the source among them or not, equals the sweep toward
    every vertex cut down to that list, on the graph or its subdivision:
    neither stop rule (every target has its layer; a layer no small
    geodesic reaches) loses a step into a target."""
    g, theta = case
    base = barycentric_subdivision(g) if subdivide else g
    graph = base.graph if subdivide else g
    oracle = SmallnessOracle(base, theta)
    weight = [1 << v for v in graph.vertices]
    targets = data.draw(st.lists(st.sampled_from(graph.vertices),
                                 unique=True))
    for u in graph.vertices:
        every = small_lines(oracle, u, graph.vertices, weight)
        assert small_lines(oracle, u, targets, weight) \
            == {b: every[b] for b in targets if b != u}


@SETTINGS
@given(graphs_with_theta())
def test_angle_sum_matches_brute_and_keeps_every_angle(case):
    """angle_sum on a random size and its complement against the
    definitional composition; a sum whose summands hold every angle
    between them is every angle."""
    g, theta = case
    every = all_angles(g)
    rest = AngleSet(g, every.nontrivial - theta.nontrivial)
    for a, b in ((theta, theta), (theta, rest), (every, theta),
                 (theta, every)):
        assert angle_sum(a, b).nontrivial == angle_sum_brute(
            a.nontrivial, b.nontrivial)
    for a, b in ((theta, rest), (rest, theta), (every, theta),
                 (theta, every), (every, every)):
        assert angle_sum(a, b) == every


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
