"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's geodesic machinery: plain DFS
over the graph, exhaustive triangle enumeration, direct definitional
scans.  They are slow and only ever run on small instances.
"""

import heapq
from functools import lru_cache
from itertools import combinations, product

from coarsecover.angles import angle_sum, k_fold_sum
from coarsecover.covers import doubling_check, minimal_doubling_constant, \
    minimal_doubling_radius
from coarsecover.graphs import INF, CapExceeded, GeodesicIndex, canon_edge, \
    distance_matrix
from coarsecover.symmetry import GroupModel, compose, conjugate, is_subgroup, \
    subgroup_generated


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


def theta_small_paths_brute(g, theta, u, v, sub=None):
    """Geodesics whose internal angles all lie in theta, by raw DFS.

    Given sub, g is its subdivided graph and turns are read as in
    _turn_small.
    """
    return [path for path in all_simple_shortest_paths(g, u, v)
            if all(_turn_small(theta, path, i, sub)
                   for i in range(1, len(path) - 1))]


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


def separated_sets_brute(points, dist_fn, alpha, size):
    """All size-subsets pairwise farther than alpha."""
    pts = sorted(points)
    return [list(s) for s in combinations(pts, size)
            if all(dist_fn(a, b) > alpha for a, b in combinations(s, 2))]


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
        return (space.act_v[p][pair[0]], space.act_z[p][pair[1]])

    pairs = space.pairs
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
    from coarsecover.symmetry import subgroup_generated

    G = space.group
    seen = set()
    triples = []
    for v in sorted(space.v_points):
        if v in seen:
            continue
        seen |= {space.act_v[p][v] for p in G.elements}
        zset = frozenset(z for z, vs in space.fibers.items() if v in vs)
        if not zset:
            continue
        gens = [p for p in G.elements
                if space.dist[space.act_v[p][v]][v] <= 4 * alpha
                and {space.act_z[p][z] for z in zset} & zset]
        triples.append(BasisTriple(v, zset, subgroup_generated(G, gens)))
    return triples


def greedy_cover_reference(space, alpha, basis):
    """greedy_cover with one translate per group element: the subtraction,
    the saturation by every element of the annotated subgroup, and the
    members from every translate of the saturated set, annotated with the
    first element (in G.elements order) reaching each new set.  No
    precondition checks; basis is a list of BasisTriple.
    """
    from coarsecover.covers import Cover, CoverMember, cover_order
    from coarsecover.symmetry import compose, invert

    G = space.group
    act_v, act_z = space.act_v, space.act_z
    pairs = space.pairs

    def translate(p, points):
        return frozenset((act_v[p][v], act_z[p][z]) for v, z in points)

    reduced = []
    for i, t in enumerate(basis):
        zset = set(t.zset)
        for j in range(i):
            for p in G.elements:
                if space.dist[t.v][act_v[p][basis[j].v]] <= alpha:
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
            members.append(CoverMember(translated, stab, first))
            first = False
    order = cover_order([m.points for m in members], pairs)
    return Cover(tuple(members), alpha, order)


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
            dg = index.d(w, w2)
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
        if index.d(xi, x2) is INF:
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
        if index.d(xi, x2) is INF:
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
    """Check the metric, the action and their invariance.  An action
    fixing points under the identity and composing with each generator is
    a homomorphism, so invariance per generator is G-invariance."""
    for v in space.v_points:
        if space.dist[v][v] != 0:
            raise ValueError("metric has nonzero diagonal")
        for w in space.v_points:
            if space.dist[v][w] != space.dist[w][v]:
                raise ValueError("metric not symmetric")
    G = space.group
    if subgroup_generated(G, G.generators) != frozenset(G.elements):
        raise ValueError("the group's generators do not generate its elements")
    maps = ((space.act_v, space.v_points), (space.act_z, space.fibers))
    if any(act[G.identity][x] != x for act, xs in maps for x in xs):
        raise ValueError("the identity moves a point")
    for p in G.elements:
        for s in G.generators:
            sp = compose(s, p)
            if any(act[sp][x] != act[s][act[p][x]]
                   for act, xs in maps for x in xs):
                raise ValueError("the action does not respect composition")
    for s in G.generators:
        av, az = space.act_v[s], space.act_z[s]
        for z, fiber in space.fibers.items():
            if not {av[v] for v in fiber} <= space.fibers.get(az[z], set()):
                raise ValueError("pair set is not group invariant")
        for v in space.v_points:
            for w in space.v_points:
                if space.dist[v][w] != space.dist[av[v]][av[w]]:
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
                H2 = subgroup_generated(G, list(H) + [x])
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
        if not is_subgroup(G, H):
            raise ValueError("family member is not a subgroup")
        for g in G.elements:
            if conjugate(g, H) not in listed:
                raise ValueError("family not conjugation closed")
    for H in listed:
        elements = tuple(sorted(H))
        sub_model = GroupModel(G.graph, elements, elements, G.identity,
                               {h: 0 for h in H})
        for K in all_subgroups(sub_model):
            if K not in listed:
                raise ValueError("family not closed under subgroups")
