"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's geodesic machinery: plain DFS
over the graph, exhaustive triangle enumeration, direct definitional
scans.  They are slow and only ever run on small instances.
"""

import heapq
import importlib.util
import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, product
from operator import and_
from pathlib import Path
from types import SimpleNamespace

from coarsecover.angles import AngleSet, angle_sum, geodesic_angles, \
    geodesic_turns, k_fold_sum, theta3
from coarsecover.cones import ConeSet, interior_certificate
from coarsecover.covers import Cover, CoverMember, Slices, cover_order, \
    doubling_check, minimal_doubling_constant, minimal_doubling_radius, \
    pair_space
from coarsecover.flow import build_cf_theta
from coarsecover.graphs import INF, CapExceeded, GeodesicIndex, Graph, \
    Subdivision, _closing_paths, bfs_row, canon_edge, make_graph
from coarsecover.symmetry import GroupModel, act_angle, close_group, \
    compose, invert


# ---------------------------------------------------------------------------
# The group algebra on permutation tuples: symmetry's closures, orbits,
# conjugates and balls as they were before the elements were numbered, one
# new tuple per product
# ---------------------------------------------------------------------------


def subgroup_generated_tuples(G: GroupModel, seed) -> frozenset:
    elems = {G.identity}
    frontier = [G.identity]
    seed = list(seed)
    for s in seed:
        if s not in G.rank:
            raise ValueError("seed element not in group")
    if len(set(seed)) == len(G.elements):
        return frozenset(G.elements)
    gens = seed + [invert(s) for s in seed]
    while frontier:
        nxt = []
        for a in frontier:
            for s in gens:
                b = compose(a, s)
                if b not in elems:
                    elems.add(b)
                    nxt.append(b)
        frontier = nxt
    return frozenset(elems)


def is_subgroup_tuples(G: GroupModel, subset) -> bool:
    sub = frozenset(subset)
    if G.identity not in sub:
        return False
    if len(sub) == len(G.elements) and all(a in G.rank for a in sub):
        return True  # the whole group
    for a in sub:
        if invert(a) not in sub:
            return False
        for b in sub:
            if compose(a, b) not in sub:
                return False
    return True


def conjugate_tuples(g, H):
    """The conjugate subgroup g H g^-1."""
    gi = invert(g)
    return frozenset(compose(compose(g, h), gi) for h in H)


def set_orbit_tuples(U, G: GroupModel, translate):
    """set_orbit with the transversals and Schreier generators composed
    as permutations."""
    orbit = {U: G.identity}
    queue = [U]
    schreier = set()
    for W in queue:
        t = orbit[W]
        for s in G.generators:
            sW, st = translate(s, W), compose(s, t)
            if sW in orbit:
                schreier.add(compose(invert(orbit[sW]), st))
            else:
                orbit[sW] = st
                queue.append(sW)
    return orbit, subgroup_generated_tuples(G, schreier)


def ball_tuples(G: GroupModel, alpha, center):
    """The elements within word distance alpha of center."""
    return tuple(compose(center, h)
                 for h, n in zip(G.elements, G.word_length) if n <= alpha)


def saturate_over_elements(angles: AngleSet, G: GroupModel) -> AngleSet:
    """The images of every angle under every element of G."""
    return AngleSet(angles.graph, frozenset(
        act_angle(p, t) for t in angles.nontrivial for p in G.elements))


def validate_angle_set(theta: AngleSet):
    """ValueError unless every angle (u, apex, w) of theta is canonical,
    u < w, and realized, both ends joined to the apex by edges of its
    graph: the check every AngleSet once made on construction."""
    g = theta.graph
    for (u, apex, w) in theta.nontrivial:
        if u >= w:
            raise ValueError("angle %r not canonical" % ((u, apex, w),))
        if not (g.has_edge(u, apex) and g.has_edge(apex, w)):
            raise ValueError("angle %r not realized by edges"
                             % ((u, apex, w),))


def seed_theta0_reference(inst, alpha):
    """seed_theta0 read from every ball translate of the base point: the
    angles on the geodesics from each translate a to each vertex on a
    geodesic between two translates, saturated over every element."""
    index, sub_group = inst.index, inst.sub_group
    ball = sorted({p[inst.v0] for p, n in zip(sub_group.elements,
                                              sub_group.word_length)
                   if n <= alpha})
    mids = set()
    for a in ball:
        for b in ball:
            mids.update(index.geodesic_vertex_set(a, b))
    pairs = [(a, w) for a in ball for w in mids]
    return saturate_over_elements(geodesic_angles(index, inst.sub, pairs),
                                  sub_group)


def perfbench_module(name):
    """perfbench/<name>.py as it stands, loaded once per process."""
    key = "perfbench_" + name
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            key, Path(__file__).resolve().parent.parent / "perfbench"
            / (name + ".py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules[key]


def flow_space(sub, theta, endpoints, *, index=None, theta3_set=None, **kw):
    """build_cf_theta, with the subdivision's geodesic index and theta3
    built here unless given."""
    if index is None:
        index = GeodesicIndex(sub.graph)
    if theta3_set is None:
        theta3_set = theta3(sub, index=index)
    return build_cf_theta(sub, theta, endpoints, index=index,
                          theta3_set=theta3_set, **kw)


def distance_matrix(g):
    """All-pairs hop distances, one bfs_row per vertex, all computed up
    front; disconnected pairs map to math.inf.  The eager reference for
    GeodesicIndex's rows, which are filled on first read."""
    return [bfs_row(g, s) for s in g.vertices]


def geodesic_counts(g: Graph, dist):
    """sigma[s][w]: the number of s-w geodesics (0 when disconnected).

    One pass per source in BFS order sums the counts of the predecessors
    (Brandes, J. Math. Sociol. 25, 2001); counts are exact integers.  v
    lies on every s-w geodesic exactly when d(s,v) + d(v,w) = d(s,w) and
    sigma(s,v) * sigma(v,w) = sigma(s,w): the reference for
    angles.geodesic_dominators.
    """
    sigma = []
    for s in g.vertices:
        ds = dist[s]
        row = [0] * g.vertex_count
        row[s] = 1
        for w in sorted((w for w in g.vertices if ds[w] is not INF),
                        key=ds.__getitem__)[1:]:
            dw = ds[w] - 1
            row[w] = sum(row[u] for u in g.neighbors(w) if ds[u] == dw)
        sigma.append(row)
    return sigma


def graph_to_document(g: Graph) -> dict:
    doc = {
        "vertices": g.vertex_count,
        "edges": [list(e) for e in sorted(g.edges)],
        "cone_vertices": sorted(g.cone_vertices),
    }
    if g.labels:
        doc["labels"] = {str(k): v for k, v in sorted(g.labels.items())}
    return doc


def all_simple_shortest_paths(g, u, v):
    """Every geodesic u -> v by exhaustive DFS on the raw graph."""
    dist = distance_matrix(g)
    target_len = dist[u][v]
    if target_len is INF:
        return []
    out = []
    path = [u]

    def walk(x):
        if len(path) - 1 > target_len:
            return
        if x == v and len(path) - 1 == target_len:
            out.append(list(path))
            return
        for w in g.neighbors(x):
            if w not in path:
                path.append(w)
                walk(w)
                path.pop()

    walk(u)
    return sorted(out)


def triangle_defects_brute(g):
    """Adversarial slimness defect of every vertex triple, in combinations
    order, by full geodesic enumeration."""
    dist = distance_matrix(g)
    paths = {pair: all_simple_shortest_paths(g, *pair)
             for pair in combinations(range(g.vertex_count), 2)}
    defects = {}
    for a, b, c in combinations(range(g.vertex_count), 3):
        sides = {pair: paths[pair] for pair in ((a, b), (a, c), (b, c))}
        worst = 0
        for (p, q), (r, s) , (t, u) in (
                ((a, b), (a, c), (b, c)),
                ((a, c), (a, b), (b, c)),
                ((b, c), (a, b), (a, c))):
            for side in sides[(p, q)]:
                for v in side:
                    # adversary maximizes over the two other sides separately
                    m1 = max(min(dist[v][w] for w in other)
                             for other in sides[(r, s)])
                    m2 = max(min(dist[v][w] for w in other)
                             for other in sides[(t, u)])
                    worst = max(worst, min(m1, m2))
        defects[(a, b, c)] = worst
    return defects


def slimness_brute(g):
    """Adversarial slimness: the largest defect of any triple."""
    return max(triangle_defects_brute(g).values(), default=0)


def slimness_min_over_sides(g):
    """Diagnostic variant of slimness_brute: sides chosen favourably
    instead of adversarially, the best over side choices of the worst
    triple."""
    dist = distance_matrix(g)
    worst = 0
    for a, b, c in combinations(range(g.vertex_count), 3):
        sides = [all_simple_shortest_paths(g, x, y)
                 for (x, y) in ((a, b), (b, c), (a, c))]
        best = None
        for tri in product(*sides):
            val = 0
            for i in range(3):
                others = set(tri[(i + 1) % 3]) | set(tri[(i + 2) % 3])
                for v in tri[i]:
                    val = max(val, min(dist[v][w] for w in others))
            if best is None or val < best:
                best = val
        worst = max(worst, best)
    return worst


def theta3_brute(g):
    """Corner angles of triangles whose third side avoids the corner,
    by exhaustive triple and geodesic enumeration."""
    out = set()
    n = g.vertex_count
    dist = distance_matrix(g)
    paths = {}

    def geodesics(u, v):
        if (u, v) not in paths:
            paths[u, v] = all_simple_shortest_paths(g, u, v)
        return paths[u, v]

    for v in range(n):
        for p in range(n):
            if p == v or dist[v][p] is INF:
                continue
            for q in range(n):
                if q == v or dist[p][q] is INF:
                    continue
                third = geodesics(p, q)
                if not any(v not in side for side in third):
                    continue
                for c1 in geodesics(v, p):
                    for c2 in geodesics(v, q):
                        e1 = canon_edge(v, c1[1])
                        e2 = canon_edge(v, c2[1])
                        if e1 != e2:
                            shared = (set(e1) & set(e2)).pop()
                            x = e1[0] if e1[1] == shared else e1[1]
                            y = e2[0] if e2[1] == shared else e2[1]
                            out.add((min(x, y), shared, max(x, y)))
    return frozenset(out)


def theta3_subdivision_brute(sub):
    """theta3_brute on the subdivided graph itself, apexes kept at original
    vertices and midpoints translated back to the original edges."""
    n = sub.original.vertex_count
    out = set()
    for (u, apex, w) in theta3_brute(sub.graph):
        if apex >= n:
            continue  # midpoint apexes carry a single passable angle
        e1 = sub.edge_of_midpoint[u]
        e2 = sub.edge_of_midpoint[w]
        a = e1[0] if e1[1] == apex else e1[1]
        b = e2[0] if e2[1] == apex else e2[1]
        out.add((min(a, b), apex, max(a, b)))
    return frozenset(out)


def angle_sum_brute(a_triples, b_triples):
    """Definitional two-hop composition of nontrivial angle triples."""
    out = set(a_triples) | set(b_triples)
    for (u, apex, x) in a_triples:
        for (p, apex2, q) in b_triples:
            if apex2 != apex:
                continue
            for (s, t) in ((u, x), (x, u)):
                for (pp, qq) in ((p, q), (q, p)):
                    if t == pp and s != qq:
                        out.add((min(s, qq), apex, max(s, qq)))
    return frozenset(out)


def _turn_small(theta, path, i, sub):
    """Whether the path turns theta-small at its internal position i.

    Given sub, the path runs in the subdivided graph: midpoint apexes carry
    a single passable angle, and the midpoints beside an original apex
    stand for the far ends of their original edges.
    """
    x, apex, y = path[i - 1], path[i], path[i + 1]
    if sub is None:
        return theta.contains(x, apex, y)
    if sub.is_midpoint(apex):
        return True

    def far(m):
        a, b = sub.edge_of_midpoint[m]
        return b if a == apex else a

    return theta.contains(far(x), apex, far(y))


def exit_table_definitional(base, theta):
    """SmallnessOracle(base, theta)'s (exits, split) by their definition,
    on a graph or a subdivision: bit j of exits[v][i] is set when the turn
    from v's i-th to its j-th neighbour is small as _turn_small reads it,
    that is when i = j, when v is a midpoint, or when theta holds the
    angle of the two steps' far ends; split[v] when some turn at v is
    not small."""
    sub = base if isinstance(base, Subdivision) else None
    g = base if sub is None else sub.graph
    exits, split = [], []
    for v in g.vertices:
        nbrs = g.neighbors(v)
        small = [[_turn_small(theta, (u, v, w), 1, sub) for w in nbrs]
                 for u in nbrs]
        exits.append([sum(1 << j for j, ok in enumerate(row) if ok)
                      for row in small])
        split.append(not all(map(all, small)))
    return exits, split


def theta_small_paths_brute(g, theta, u, v, sub=None):
    """Geodesics whose internal angles all lie in theta, by raw DFS.

    Given sub, g is its subdivided graph and turns are read as in
    _turn_small.
    """
    return [path for path in all_simple_shortest_paths(g, u, v)
            if all(_turn_small(theta, path, i, sub)
                   for i in range(1, len(path) - 1))]


def mask_neighbours(g, v, mask):
    """The neighbours of v whose bits are set in a neighbour bitmask of v,
    such as small_steps' into[v]: bit i stands for g.neighbors(v)[i]."""
    return {w for i, w in enumerate(g.neighbors(v)) if mask >> i & 1}


def mask_vertices(mask):
    """The vertices whose bits are set in a vertex bitmask, such as a line
    of angles.small_lines under the weights 1 << v, or a line of
    CoarseFlowSpace.lines."""
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def small_carriers(index, steps_a, steps_b, a, b):
    """The vertices on small a -> b geodesics, from the small_steps sweeps
    of a and b, by one scan of every vertex: the reference for
    angles.small_lines.

    Angles are unordered, so a reversed small geodesic is small, and the
    carriers are symmetric in a and b.  An internal v qualifies exactly
    when d(a,v) + d(v,b) = d(a,b) and reach_a[v] & into_b[v] is nonzero,
    that is some small geodesic a -> v ending p -> v and some small b -> v
    ending s -> v make a small turn p -> v -> s: reversed, the second is a
    small v -> b starting v -> s, and the two halves meet at v with
    distances that add up, so their concatenation is a small a -> b
    geodesic; every small a -> b geodesic through v splits so.  A small
    a -> b geodesic exists iff into_a[b] is nonzero.
    """
    if a == b:
        return frozenset([a])
    (into_a, reach_a), (into_b, _) = steps_a, steps_b
    if not into_a[b]:
        return frozenset()
    da, db, total = index.dist[a], index.dist[b], index.dist[a][b]
    return frozenset([a, b]).union(
        v for v in compress(index.graph.vertices, map(and_, reach_a, into_b))
        if da[v] + db[v] == total)


@lru_cache(maxsize=8192)
def _geodesics(g, u, v):
    """all_simple_shortest_paths, memoized; callers must not mutate it."""
    return all_simple_shortest_paths(g, u, v)


def cone_member_brute(inst, g, xi, apex, theta):
    """Both clauses of the cone-set definition, read off every geodesic:
    every geodesic from g v0 to the apex is theta-small and, unless xi is
    the apex, some geodesic from g v0 to xi turns theta-large at the apex."""
    sub, gv0 = inst.sub, g[inst.v0]
    to_apex = _geodesics(sub.graph, gv0, apex)
    if not to_apex or not all(_turn_small(theta, path, i, sub)
                              for path in to_apex
                              for i in range(1, len(path) - 1)):
        return False
    if xi == apex:
        return True
    return any(not _turn_small(theta, path, path.index(apex), sub)
               for path in _geodesics(sub.graph, gv0, xi)
               if apex in path[1:-1])


def interior_certificate_brute(inst, g, xi, apex, theta):
    """Both conditions of the interior certificate, read off every geodesic
    from g v0 to xi through the apex: it turns (theta + doubled corner
    size)-large there, or it turns theta-large there and twice-corner-large
    at a later internal vertex."""
    sub, gv0 = inst.sub, g[inst.v0]
    t3_2 = k_fold_sum(inst.t3, 2)
    big = angle_sum(theta, t3_2)
    for path in _geodesics(sub.graph, gv0, xi):
        if apex not in path[1:-1]:
            continue
        i = path.index(apex)
        if not _turn_small(big, path, i, sub):
            return True
        if not _turn_small(theta, path, i, sub) and any(
                not _turn_small(t3_2, path, j, sub)
                for j in range(i + 1, len(path) - 1)):
            return True
    return False


def cone_cover_per_apex(inst, theta0, xi_set):
    """cone_cover built apex by apex and element by element, with no group
    translation: every pair's turns are read again at every apex."""
    inst.graph.require_cone_separation()
    sub, index, sub_group, v0 = inst.sub, inst.index, inst.sub_group, inst.v0
    x = angle_sum(theta0, k_fold_sum(inst.t3, 3))
    powers = {1: x}
    for k in (2, 3, 4, 5, 6):
        powers[k] = angle_sum(powers[k - 1], x)
    layer_sizes = {1: powers[2], 2: powers[5], 3: powers[6]}
    t3_2 = k_fold_sum(inst.t3, 2)
    sums = {layer: (t3_2, angle_sum(size, t3_2))
            for layer, size in layer_sizes.items()}

    def large(size, *key):  # some geodesic of key turns size-large
        return not {angle for *_, angle in geodesic_turns(index, sub, *key)} \
            <= size.nontrivial

    cones = []
    for apex in sub.v_vertices():
        for layer, size in sorted(layer_sizes.items()):
            members = set()
            certified = set()
            for g, ge in enumerate(sub_group.elements):
                gv0 = ge[v0]
                if large(size, gv0, apex):
                    continue
                for xi in xi_set:
                    if xi == apex:
                        members.add((g, xi))
                    elif large(size, gv0, xi, apex):
                        members.add((g, xi))
                        if interior_certificate(inst, ge, xi, apex, size,
                                                sums[layer]):
                            certified.add((g, xi))
            if members:
                cones.append(ConeSet(apex, layer, frozenset(members),
                                     frozenset(certified)))
    return cones, powers[6]


def cone_sweep_reference(index, sub, theta, x):
    """angles.cone_sweep read off one geodesic_turns scan per target y:
    y is clean when no x -> y geodesic turns outside theta, and bit y of
    large[w] is set when some x -> y geodesic turns outside theta at w."""
    clean = [False] * index.graph.vertex_count
    large = [0] * index.graph.vertex_count
    for y in index.graph.vertices:
        turns = list(geodesic_turns(index, sub, x, y))
        clean[y] = all(angle in theta.nontrivial for *_, angle in turns)
        for w, _, _, angle in turns:
            if angle not in theta.nontrivial:
                large[w] |= 1 << y
    return clean, large


def separated_sets_brute(points, dist_fn, alpha, size):
    """All size-subsets pairwise farther than alpha."""
    pts = sorted(points)
    return [list(s) for s in combinations(pts, size)
            if all(dist_fn(a, b) > alpha for a, b in combinations(s, 2))]


def violating_set_unpruned(pts, dist, size, R):
    """covers._violating_set with its subset search over every point, not
    only the far graph's core: the reference for the pruned search."""
    found = []

    def rec(cands, sel, sep, radii):
        if sel:
            rad = min(radii)
            if rad >= 2 * sep:
                return
            if len(sel) == size:
                center = pts[radii.index(rad)]
                found.append(([pts[i] for i in sel], sep, rad, center))
                return
        need = size - len(sel)
        for k, i in enumerate(cands):
            if len(cands) - k < need:
                return
            row = dist[i]
            nsep = min([sep] + [row[j] for j in sel])
            rec([j for j in cands[k + 1:] if row[j] > R], sel + [i], nsep,
                list(map(max, radii, row)))
            if found:
                return

    rec(range(len(pts)), [], INF, [0] * len(pts))
    return found[0] if found else None


def doubling_scan_oracle(points, dist_fn, D, R):
    """Direct definitional doubling check: scan every relevant scale,
    every center, and search separated subsets by brute force."""
    pts = sorted(points)
    realized = set()
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            d = dist_fn(a, b)
            if d is not INF:
                realized.add(d)
    cands = {R} | {d for d in realized if d >= R} | \
        {d / 2 for d in realized if d / 2 >= R}

    def find_separated(cands_pts, alpha, need, sel):
        if len(sel) == need:
            return list(sel)
        if len(sel) + len(cands_pts) < need:
            return None
        for i, p in enumerate(cands_pts):
            rest = [q for q in cands_pts[i + 1:] if dist_fn(p, q) > alpha]
            got = find_separated(rest, alpha, need, sel + [p])
            if got is not None:
                return got
        return None

    for alpha in sorted(cands):
        for center in pts:
            ball = [p for p in pts if dist_fn(center, p) <= 2 * alpha]
            if len(ball) <= D:
                continue
            bad = find_separated(ball, alpha, D + 1, [])
            if bad is not None:
                return False, (alpha, center, tuple(bad))
    return True, None


def star_metric(w):
    """The path metric among the leaves of a star, leaf a at length w[a],
    as rows a -> {b: d(a, b)}: a stand-in for the chain metric of a flow
    space."""
    leaves = range(len(w))
    return {a: {b: 0 if a == b else w[a] + w[b] for b in leaves}
            for a in leaves}


def cf_doubling_report_brute(cf, compute_tightest=False):
    """flow.cf_doubling_report by one doubling check per fiber key.

    Reads only cf.delta_prime, cf.fibers and the rows cf.metric.
    """
    R = 24 * cf.delta_prime + 12

    def d(a, b):
        return cf.metric[a][b]

    failures = []
    tightest_d = 0
    tightest_r = 0
    for key in sorted(cf.fibers):
        fiber = sorted(cf.fibers[key])
        rep = doubling_check(fiber, d, 5, R)
        if not rep.ok:
            failures.append((key, rep.witness))
        if compute_tightest and fiber:
            tightest_d = max(tightest_d, minimal_doubling_constant(
                fiber, d, R))
            tightest_r = max(tightest_r, minimal_doubling_radius(
                fiber, d, 5))
    return {
        "ok": not failures,
        "D": 5,
        "R": R,
        "fibers": len(cf.fibers),
        "tightest_D": tightest_d if compute_tightest else None,
        "tightest_R": tightest_r if compute_tightest else None,
        "failures": failures,
    }


def fibers_of(z_points, pairs):
    """The z-fibers of a pair set: each z-point -> the v-points over it."""
    fibers = {z: set() for z in z_points}
    for v, z in pairs:
        fibers[z].add(v)
    return fibers


def encoded(v_points, sets):
    """Sets of v-points {z: v-points}, such as fibers, as masks over the
    sequence v_points, bit i for v_points[i]: the one way the tests put a
    v-set into the library's form."""
    position = {v: i for i, v in enumerate(v_points)}
    return {z: sum(1 << position[v] for v in set(vs))
            for z, vs in sets.items()}


def slices_of(pairs, v_points) -> Slices:
    """covers.slices_of's positional form: the slices of pairs (v, z),
    each v-set a mask over the sequence v_points, bit i for v_points[i]."""
    position = {v: i for i, v in enumerate(v_points)}
    over = {}
    for v, z in pairs:
        over[z] = over.get(z, 0) | 1 << position[v]
    return Slices(over)


def decoded_sets(v_points, masks):
    """Masks {z: mask} over v_points as frozensets of v-points, read bit
    by bit."""
    return {z: frozenset(v for i, v in enumerate(v_points) if m >> i & 1)
            for z, m in masks.items()}


def decoded(space):
    """The pair space with its fibers as frozensets of v-points, the form
    the set-based references here read; every other part is kept."""
    return replace(space, fibers=decoded_sets(space.v_points, space.fibers))


def set_cover(cover, v_points):
    """The cover with each slice a frozenset of v-points over v_points,
    as greedy_cover_reference builds its covers."""
    return Cover(tuple(CoverMember(Slices(decoded_sets(v_points, m.slices)),
                                   m.stabilizer, m.orbit_rep)
                       for m in cover.members), cover.alpha, cover.order)


def trivial_pair_space(v_points, fibers, dist):
    """A pair space under the trivial group, whose identity permutation
    fixes every v-point (the v-points are nonnegative integers); fibers
    are sets of v-points."""
    v_points = tuple(v_points)
    G = close_group(make_graph(max(v_points, default=0) + 1, []), ())
    return pair_space(v_points, encoded(v_points, fibers), dist, G,
                      {G.identity: {z: z for z in fibers}})


def stand_in_flow_space(delta_prime, metric, fibers):
    """A stand-in for a CoarseFlowSpace as cf_doubling_report reads it:
    delta_prime, the metric's rows, the fibers and their classes, each
    distinct fiber numbered as it first appears."""
    classes = {}
    for f in fibers.values():
        classes.setdefault(f, len(classes))
    return SimpleNamespace(delta_prime=delta_prime, metric=metric,
                           fibers=fibers, classes=classes)


def least_pairs(cf):
    """Class number -> the least endpoint pair of its class, the first of
    the class in a sorted scan of every pair."""
    least = {}
    for z in sorted(cf.fibers):
        least.setdefault(cf.classes[cf.fibers[z]], z)
    return [least[r] for r in range(len(cf.classes))]


def pullback_on_pairs(cf, cover, tau, targets, v0):
    """pullback_cover from the definition, on a cover whose slices sit
    over endpoint pairs, as expand_cover's do: (g, xi) lands in the
    pullback of W when the midpoints at distance tau from g v0 on the
    small g v0 -> xi geodesics lie in W's slice over the pair (g v0, xi)
    itself.  The same member order, stabilizers and flags; empty and
    repeated pullbacks are left out."""
    v_points = cf.sub.ve_vertices()
    members, seen = [], set()
    for m in cover.members:
        held = decoded_sets(v_points, m.slices)
        pulled = set()
        for g, xi in targets:
            gv0 = cf.group.elements[g][v0]
            d0 = cf.index.dist[gv0]
            if d0[xi] < 2 * tau:
                continue
            at_tau = {v for v in mask_vertices(cf.lines[gv0, xi])
                      if d0[v] == 2 * tau}
            if at_tau <= held.get((gv0, xi), set()):
                pulled.add((g, xi))
        slices = slices_of(pulled, range(len(cf.group)))
        if slices and slices not in seen:
            seen.add(slices)
            members.append(CoverMember(slices, m.stabilizer, m.orbit_rep))
    order = cover_order([m.slices for m in members],
                        slices_of(targets, range(len(cf.group))))
    return Cover(tuple(members), cover.alpha, order)


def endpoint_pair_space(cf):
    """The flow space as a pair space with one z-point per ordered endpoint
    pair, whose z-fibers are cf's fibers: the reference for
    cf_pair_space's fiber classes."""
    act_z = {p: {z: (p[z[0]], p[z[1]]) for z in cf.fibers}
             for p in cf.group.elements}
    v_points = cf.sub.ve_vertices()
    fibers = {z: mask_vertices(f) for z, f in cf.fibers.items()}
    return pair_space(v_points, encoded(v_points, fibers), cf.metric,
                      cf.group, act_z)


def pairs_of(space):
    """The admitted pairs (v, z) of a pair space, read off its fibers."""
    return frozenset((v, z) for z, fiber in space.fibers.items()
                     for v in fiber)


def default_basis(space):
    """One triple per orbit of admitted pairs: a singleton z-set with the
    stabilizer of the z-point.  Always satisfies the separation condition."""
    from coarsecover.covers import BasisTriple

    seen = set()
    triples = []
    for pair in sorted(pairs_of(space)):
        if pair in seen:
            continue
        v, z = pair
        seen |= {(p[v], space.act_z[p][z])
                 for p in space.group.elements}
        stab = frozenset(p for p in space.group.elements
                         if space.act_z[p][z] == z)
        triples.append(BasisTriple(v, frozenset([z]), stab))
    return triples


def cover_order_brute(member_sets, domain_points):
    """Most members containing one domain point, less one; -1 when the
    domain is empty."""
    return max((sum(1 for m in member_sets if x in m) for x in domain_points),
               default=0) - 1


def verify_cover_definitional(members, space, alpha, family):
    """Order, longness, invariance and F-subsetness straight from the
    definitions, on a pair space given by its parts.

    members is a list of sets of pairs.  Returns (order, first pair
    that is not alpha-long or None, invariant, index of the first member
    that is not an F-subset or None).
    """
    G = space.group

    def act(p, pair):
        return (p[pair[0]], space.act_z[p][pair[1]])

    pairs = pairs_of(space)
    order = cover_order_brute(members, pairs)
    not_long = None
    for (v, z) in sorted(pairs):
        needed = {(w, z) for w in space.v_points
                  if space.dist[v][w] <= alpha and (w, z) in pairs}
        if not any(needed <= set(m) for m in members):
            not_long = (v, z)
            break
    pool = [set(m) for m in members]
    invariant = all({act(p, x) for x in m} in pool
                    for p in G.elements for m in members)
    not_f = None
    for idx, m in enumerate(members):
        m = set(m)
        stab = set()
        meets = False
        for p in G.elements:
            pm = {act(p, x) for x in m}
            if pm == m:
                stab.add(p)
            elif pm & m:
                meets = True
        if meets or (m and not family.contains(frozenset(stab), G)):
            not_f = idx
            break
    return order, not_long, invariant, not_f


def fiber_basis_brute(space, alpha):
    """fiber_basis with Z_v found by scanning every z-fiber for each v-point
    and the overlap tested on the whole moved z-set."""
    from coarsecover.covers import BasisTriple

    G = space.group
    seen = set()
    triples = []
    for v in sorted(space.v_points):
        if v in seen:
            continue
        seen |= {p[v] for p in G.elements}
        zset = frozenset(z for z, vs in space.fibers.items() if v in vs)
        if not zset:
            continue
        gens = [p for p in G.elements
                if space.dist[p[v]][v] <= 4 * alpha
                and {space.act_z[p][z] for z in zset} & zset]
        triples.append(BasisTriple(v, zset,
                                   subgroup_generated_tuples(G, gens)))
    return triples


def greedy_cover_reference(space, alpha, basis):
    """greedy_cover with one translate per group element: the subtraction,
    the saturation by every element of the annotated subgroup, and the
    members from every translate of the saturated set, annotated with the
    first element (in G.elements order) reaching each new set.  No
    precondition checks; basis is a list of BasisTriple.  The sets are
    sets of pairs; only the returned members hold them as slices.
    """
    from coarsecover.covers import Cover, CoverMember, Slices

    G = space.group
    act_z = space.act_z
    pairs = pairs_of(space)

    def translate(p, points):
        return frozenset((p[v], act_z[p][z]) for v, z in points)

    reduced = []
    for i, t in enumerate(basis):
        zset = set(t.zset)
        for j in range(i):
            for p in G.elements:
                if space.dist[t.v][p[basis[j].v]] <= alpha:
                    zset.difference_update(act_z[p][z] for z in reduced[j])
        reduced.append(frozenset(zset))

    members = []
    seen_sets = set()
    for i, t in enumerate(basis):
        core = frozenset((w, z) for z in reduced[i] for w in space.v_points
                         if (w, z) in pairs
                         and space.dist[t.v][w] <= 2 * alpha)
        saturated = frozenset().union(*(translate(a, core)
                                        for a in t.subgroup))
        if not saturated:
            continue
        first = True
        for p in G.elements:
            translated = translate(p, saturated)
            if translated in seen_sets:
                continue
            seen_sets.add(translated)
            stab = frozenset(compose(compose(p, a), invert(p))
                             for a in t.subgroup)
            members.append((translated, stab, first))
            first = False
    order = cover_order_brute([m for m, _, _ in members], pairs)

    def as_slices(m):
        over = fibers_of({z for _, z in m}, m)
        return Slices((z, frozenset(vs)) for z, vs in over.items())

    return Cover(tuple(CoverMember(as_slices(m), stab, first)
                       for m, stab, first in members), alpha, order)


def failed(report):
    """The failure kinds of a CoverReport, as a set."""
    return {kind for kind, _ in report.failures}


# ---------------------------------------------------------------------------
# Metric extension of open sets and covers
# ---------------------------------------------------------------------------


def extend_open(U, X0, X, dist_fn):
    """U+ = points of X strictly closer to U than to the rest of X0.

    Distances to the empty set are infinite, and an infinite distance never
    wins the strict comparison, so points infinitely far from everything
    stay outside.  Restricting U+ to X0 recovers U, and the construction
    commutes with intersections.
    """
    U = frozenset(U)
    X0 = frozenset(X0)
    if not U <= X0:
        raise ValueError("U must be a subset of X0")
    comp = X0 - U
    out = set()
    for x in X:
        du = min((dist_fn(x, u) for u in U), default=INF)
        dc = min((dist_fn(x, c) for c in comp), default=INF)
        if du < dc:
            out.add(x)
    return frozenset(out)


def extend_cover(cover: Cover, X0, X, dist_fn, G: GroupModel, act) -> Cover:
    """Member-wise extension from X0 to X; order is preserved exactly.

    X0 and X are sets of v-points.  Z is discrete, so a member is extended
    slice by slice, each v-set along the metric of V.
    """
    X = frozenset(X)
    for p in G.elements:
        for x in X:
            for y in X:
                if dist_fn(x, y) != dist_fn(act(p, x), act(p, y)):
                    raise ValueError("metric is not invariant under %r" % (p,))
    members = tuple(
        CoverMember(Slices((z, extend_open(vs, X0, X, dist_fn))
                           for z, vs in m.slices.items()),
                    m.stabilizer, m.orbit_rep)
        for m in cover.members)
    order = cover_order([m.slices for m in members],
                        {z: X for m in members for z in m.slices})
    return Cover(members, cover.alpha, order)


# ---------------------------------------------------------------------------
# The chain metric by its definition, over geodesics found by DFS, and the
# observer basis sets (finite shadows) on the library's distance rows
# ---------------------------------------------------------------------------


def d_theta_definitional_oracle(sub, theta, index=None):
    """Slow reference: Dijkstra over hops of every length.

    Hop (w, w') is admitted whenever some small geodesic joins w and w',
    with weight equal to the graph distance.  Used to cross-check d_theta.
    """
    if index is None:
        index = GeodesicIndex(sub.graph)
    order = sub.ve_vertices()
    hops = {w: [] for w in order}
    for i, w in enumerate(order):
        for w2 in order[i + 1:]:
            dg = index.dist[w][w2]
            if dg is INF:
                continue
            if theta_small_paths_brute(sub.graph, theta, w, w2, sub):
                units = dg // 2
                hops[w].append((w2, units))
                hops[w2].append((w, units))
    out = {}
    for src in order:
        dist = {src: 0}
        heap = [(0, src)]
        while heap:
            dv, u = heapq.heappop(heap)
            if dv > dist.get(u, INF):
                continue
            for (w, wt) in hops[u]:
                nd = dv + wt
                if nd < dist.get(w, INF):
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))
        for w in order:
            out[(src, w)] = dist.get(w, INF)
    return out


def observer_set_all(g, xi, v0_set, index=None):
    """Vertices xi' whose every geodesic to xi misses v0_set minus {xi}.

    Every geodesic vertex lies on some geodesic, so the condition is that
    the whole geodesic vertex set avoids the forbidden vertices.
    """
    if index is None:
        index = GeodesicIndex(g)
    avoid = frozenset(v0_set) - {xi}
    out = set()
    for x2 in g.vertices:
        if index.dist[xi][x2] is INF:
            continue
        if x2 == xi:
            out.add(x2)
            continue
        if not (set(index.geodesic_vertex_set(xi, x2)) & avoid):
            out.add(x2)
    return frozenset(out)


def observer_set_exists(g, xi, v0_set, index=None):
    """Vertices xi' joined to xi by some geodesic missing v0_set minus {xi}."""
    if index is None:
        index = GeodesicIndex(g)
    avoid = frozenset(v0_set) - {xi}
    out = set()
    for x2 in g.vertices:
        if index.dist[xi][x2] is INF:
            continue
        if x2 == xi:
            out.add(x2)
            continue
        if _reachable_avoiding(index, xi, x2, avoid):
            out.add(x2)
    return frozenset(out)


def _reachable_avoiding(index, s, t, avoid):
    """Whether some s -> t geodesic misses avoid, by a search along the
    steps u -> w with d(s,w) = d(s,u) + 1 and d(w,t) = d(u,t) - 1."""
    if s in avoid or t in avoid:
        return False
    ds, dt = index.dist[s], index.dist[t]
    stack = [s]
    seen = {s}
    while stack:
        u = stack.pop()
        if u == t:
            return True
        for w in index.graph.neighbors(u):
            if ds[w] == ds[u] + 1 and dt[w] == dt[u] - 1 \
                    and w not in seen and w not in avoid:
                seen.add(w)
                stack.append(w)
    return False


def validate_pair_space(space):
    """Check the fiber index, the metric, the action and their invariance.
    z_over must be Z_v = {z : v in V_z} of the stored fibers, which
    dataclasses.replace(space, fibers=...) would leave stale.  Elements
    act on v-points as the permutations they are; an action on z-points
    fixing them under the identity and composing with each generator is a
    homomorphism, and close_group's generators generate its elements, so
    invariance per generator is G-invariance."""
    z_over = {v: frozenset(z for z, f in space.fibers.items() if v in f)
              for fiber in space.fibers.values() for v in fiber}
    if space.z_over != z_over:
        raise ValueError("z_over is not the Z_v grouping of the fibers")
    for v in space.v_points:
        if space.dist[v][v] != 0:
            raise ValueError("metric has nonzero diagonal")
        for w in space.v_points:
            if space.dist[v][w] != space.dist[w][v]:
                raise ValueError("metric not symmetric")
    G = space.group
    act = space.act_z
    if any(act[G.identity][z] != z for z in space.fibers):
        raise ValueError("the identity moves a point")
    for p in G.elements:
        for s in G.generators:
            sp = compose(s, p)
            if any(act[sp][z] != act[s][act[p][z]] for z in space.fibers):
                raise ValueError("the action does not respect composition")
    for s in G.generators:
        az = act[s]
        for z, fiber in space.fibers.items():
            if not {s[v] for v in fiber} <= space.fibers.get(az[z], set()):
                raise ValueError("pair set is not group invariant")
        for v in space.v_points:
            for w in space.v_points:
                if space.dist[v][w] != space.dist[s[v]][s[w]]:
                    raise ValueError("metric is not group invariant")


def all_subgroups(G, cap=4096):
    """Every subgroup of G, found by closing generated subsets."""
    found = {frozenset([G.identity])}
    frontier = [frozenset([G.identity])]
    while frontier:
        nxt = []
        for H in frontier:
            for x in G.elements:
                if x in H:
                    continue
                H2 = subgroup_generated_tuples(G, list(H) + [x])
                if H2 not in found:
                    if len(found) >= cap:
                        raise CapExceeded("subgroup lattice exceeds cap")
                    found.add(H2)
                    nxt.append(H2)
        frontier = nxt
    return sorted(found, key=lambda H: (len(H), sorted(H)))


def validate_family(family, G):
    """An explicit list must be closed under conjugation and under passing
    to subgroups; the other kinds are closed by construction."""
    if family.kind != "explicit-list":
        return
    listed = set(frozenset(H) for H in family.members)
    for H in listed:
        if not is_subgroup_tuples(G, H):
            raise ValueError("family member is not a subgroup")
        for g in G.elements:
            if conjugate_tuples(g, H) not in listed:
                raise ValueError("family not conjugation closed")
    for H in listed:
        for K in all_subgroups(close_group(G.graph, H)):
            if K not in listed:
                raise ValueError("family not closed under subgroups")


def _canonical_circuit(cycle):
    """Minimal rotation of the lexicographically smaller orientation."""
    best = None
    k = len(cycle)
    for seq in (cycle, cycle[::-1]):
        for i in range(k):
            rot = tuple(seq[(i + j) % k] for j in range(k))
            if best is None or rot < best:
                best = rot
    return best


def circuits_through_edge(g: Graph, e, max_len: int):
    """All embedded cycles of length <= max_len containing the edge e.

    Each circuit is reported once, canonicalized by minimal rotation of its
    lexicographically smaller orientation.
    """
    u, v = canon_edge(*e)
    if (u, v) not in g.edges:
        raise ValueError("edge %r not in graph" % ((u, v),))
    return sorted(_canonical_circuit(p + (u,))
                  for p in _closing_paths(g, u, v, max_len))


def theta3_circuit_bound_brute(g, theta3set, delta):
    """theta3_circuit_bound_check by listing every circuit of length at
    most 16 * max(1, delta) through each angle's first edge and keeping the
    shortest whose two edges at the apex are the angle's."""
    delta_eff = max(1, int(delta))
    bound = 16 * delta_eff
    missing = []
    max_needed = 0
    for (u, apex, w) in sorted(theta3set.nontrivial):
        best = None
        for circ in circuits_through_edge(g, (u, apex), bound):
            k = len(circ)
            i = circ.index(apex)
            if {circ[i - 1], circ[(i + 1) % k]} == {u, w}:
                best = k if best is None else min(best, k)
        if best is None:
            missing.append((u, apex, w))
        else:
            max_needed = max(max_needed, best)
    return {
        "ok": not missing,
        "bound": bound,
        "delta_effective": delta_eff,
        "max_circuit_needed": max_needed,
        "missing": missing,
        "angles_checked": len(theta3set.nontrivial),
    }


def large_angle_vertices(index, small, v0, v):
    """Internal vertices through which some geodesic v0 -> v turns outside
    small, each mapped to its distance from v0: every turn of every
    geodesic, scanned for this v alone."""
    out = {}
    for w, _, _, angle in geodesic_turns(index, None, v0, v):
        if w not in out and angle not in small.nontrivial:
            out[w] = index.dist[v0][w]
    return out


def contraction_measure(d0, large_at, K):
    """The measure (alpha, beta, a, b) of contract_subcomplex, rescanned
    over all of K: alpha the largest distance from the basepoint and a the
    number of vertices of K at it, beta the largest large-angle depth and
    b the number of vertices of K at it (0 when beta is 0)."""
    alpha = max(d0[v] for v in K)
    a = sum(1 for v in K if d0[v] == alpha)
    beta = 0
    b = 0
    for v in K:
        bw = large_at(v)
        best = max(bw.values(), default=0)
        if best > beta:
            beta, b = best, 1
        elif best == beta and best > 0:
            b += 1
    return alpha, beta, a, b


def rational_rank(columns):
    """Rank of a sparse matrix given as columns {row: Fraction}, by plain
    elimination on the smallest row (rips._rank reduces on the largest)."""
    pivots = {}
    rank = 0
    for col in columns:
        col = dict(col)
        while col:
            r = min(col)
            if r in pivots:
                p = pivots[r]
                factor = col[r] / p[r]
                for rr, vv in p.items():
                    nv = col.get(rr, Fraction(0)) - factor * vv
                    if nv:
                        col[rr] = nv
                    else:
                        col.pop(rr, None)
            else:
                pivots[r] = col
                rank += 1
                break
    return rank


def complex_stats_brute(P):
    """complex_stats by enumeration: every face of every maximal simplex,
    and for each simplex a count of the simplices strictly containing it,
    taken over every proper face of every simplex."""
    sims = {frozenset(c) for m in P.maximal_simplices
            for k in range(1, len(m) + 1) for c in combinations(sorted(m), k)}
    counts = {}
    for s in sims:
        counts[len(s) - 1] = counts.get(len(s) - 1, 0) + 1
    coface = {s: 0 for s in sims}
    for s in sims:
        ms = sorted(s)
        for k in range(1, len(ms)):
            for c in combinations(ms, k):
                coface[frozenset(c)] += 1
    return {
        "dimension": P.dimension,
        "simplices_by_dim": dict(sorted(counts.items())),
        "total_simplices": len(sims),
        "max_coface_count": max(coface.values(), default=0),
    }
