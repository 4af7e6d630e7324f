"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's DAG machinery: plain DFS over the
graph, exhaustive triangle enumeration, direct definitional scans.  They
are slow and only ever run on small instances.
"""

from itertools import combinations, product

from coarsecover.graphs import INF, canon_edge, distance_matrix


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


def theta3_brute(g, corners=None):
    """Corner angles of triangles whose third side avoids the corner,
    by exhaustive triple and geodesic enumeration.  The far corners p, q
    run over `corners` (default: every vertex)."""
    out = set()
    n = g.vertex_count
    dist = distance_matrix(g)
    corners = range(n) if corners is None else sorted(corners)
    paths = {}

    def geodesics(u, v):
        if (u, v) not in paths:
            paths[u, v] = all_simple_shortest_paths(g, u, v)
        return paths[u, v]

    for v in range(n):
        for p in corners:
            if p == v or dist[v][p] is INF:
                continue
            for q in corners:
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


def theta3_subdivision_brute(sub, corners=None):
    """theta3_brute on the subdivided graph itself, apexes kept at original
    vertices and midpoints translated back to the original edges."""
    n = sub.original.vertex_count
    out = set()
    for (u, apex, w) in theta3_brute(sub.graph, corners):
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


def theta_small_paths_brute(g, theta, u, v):
    """Geodesics whose internal angles all lie in theta, by raw DFS."""
    out = []
    for path in all_simple_shortest_paths(g, u, v):
        ok = True
        for i in range(1, len(path) - 1):
            x, apex, y = path[i - 1], path[i], path[i + 1]
            if not theta.contains(x, apex, y):
                ok = False
                break
        if ok:
            out.append(path)
    return out


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


def cover_order_brute(member_sets, domain_points):
    """Most members containing one domain point, less one; -1 when the
    domain is empty."""
    return max((sum(1 for m in member_sets if x in m) for x in domain_points),
               default=0) - 1


def verify_cover_definitional(members, space, alpha, family):
    """Order, longness, invariance and F-subsetness straight from the
    definitions, on a pair space given by its parts.

    members is a list of sets of pairs.  Returns (order, first pair
    that is not alpha-long or None, invariant, f_subsets).
    """
    G = space.group

    def act(p, pair):
        return (space.act_v[p][pair[0]], space.act_z[p][pair[1]])

    order = cover_order_brute(members, space.pairs)
    not_long = None
    for (v, z) in sorted(space.pairs):
        needed = {(w, z) for w in space.v_points
                  if space.dist[v][w] <= alpha and (w, z) in space.pairs}
        if not any(needed <= set(m) for m in members):
            not_long = (v, z)
            break
    pool = [set(m) for m in members]
    invariant = all({act(p, x) for x in m} in pool
                    for p in G.elements for m in members)
    f_subsets = True
    for m in members:
        m = set(m)
        stab = set()
        for p in G.elements:
            pm = {act(p, x) for x in m}
            if pm == m:
                stab.add(p)
            elif pm & m:
                f_subsets = False
        if m and not family.contains(frozenset(stab), G):
            f_subsets = False
    return order, not_long, invariant, f_subsets
