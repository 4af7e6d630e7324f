"""Angle sets on finite graphs and everything built from them.

An angle is an unordered pair of edges sharing a vertex (the apex), stored
canonically as a triple (u, apex, w) listing the two far endpoints with
u <= w.  Trivial angles (an edge paired with itself) are members of every
angle set and are kept implicit.  A step out of the apex starts an
original edge; far_end names that edge's other end, so every turn of a
path, on a graph or on its subdivision, is read as a canonical angle.

A size for angles is a group-invariant angle set.  Geodesics all of whose
internal angles lie in a size Theta are Theta-small; length <= 1 geodesics
are always small.  On a barycentric subdivision only angles at original
(class "V") vertices are inspected; midpoint vertices have valency 2 and
their unique angle never counts against smallness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .graphs import (
    INF,
    CapExceeded,
    GeodesicIndex,
    Graph,
    GraphFormatError,
    Subdivision,
    canon_edge,
    circuits_through_edge,
    enumerate_geodesics,
    geodesic_counts,
    geodesic_steps,
    parse_document,
)
from .symmetry import GroupModel, act_angle


def canonical_angle(u, apex, w):
    return (u, apex, w) if u <= w else (w, apex, u)


@dataclass(frozen=True)
class AngleSet:
    """A set of angles of one graph, trivial angles implicit.

    The graph reference is to the graph whose edges are being paired; for a
    subdivision this is the original graph.
    """

    graph: Graph
    nontrivial: frozenset

    def __post_init__(self):
        for (u, apex, w) in self.nontrivial:
            if u > w or u == w:
                raise ValueError("angle %r not canonical" % ((u, apex, w),))
            if not (self.graph.has_edge(u, apex) and self.graph.has_edge(apex, w)):
                raise ValueError("angle %r not realized by edges" % ((u, apex, w),))

    def contains(self, u, apex, w) -> bool:
        if u == w:
            return True
        return canonical_angle(u, apex, w) in self.nontrivial

    def union(self, other) -> "AngleSet":
        self._check_base(other)
        return AngleSet(self.graph, self.nontrivial | other.nontrivial)

    def _check_base(self, other):
        if other.graph is not self.graph and other.graph != self.graph:
            raise ValueError("angle sets live on different graphs")

    def is_invariant(self, G: GroupModel) -> bool:
        # invariance under each generator is invariance under the group
        return all(act_angle(p, t) in self.nontrivial
                   for p in G.generators for t in self.nontrivial)

    def saturate(self, G: GroupModel) -> "AngleSet":
        closed = set()
        for t in self.nontrivial:
            for p in G.elements:
                closed.add(act_angle(p, t))
        return AngleSet(self.graph, frozenset(closed))

    def __len__(self):
        return len(self.nontrivial)

    def __le__(self, other):
        self._check_base(other)
        return self.nontrivial <= other.nontrivial


def trivial_only(g: Graph) -> AngleSet:
    return AngleSet(g, frozenset())


def all_angles(g: Graph) -> AngleSet:
    out = set()
    for apex in g.vertices:
        nbrs = g.neighbors(apex)
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                out.add(canonical_angle(nbrs[i], apex, nbrs[j]))
    return AngleSet(g, frozenset(out))


def angle_set_from_triples(g: Graph, triples) -> AngleSet:
    return AngleSet(g, frozenset(canonical_angle(u, a, w) for (u, a, w) in triples
                                 if u != w))


def load_angleset(document, g: Graph) -> AngleSet:
    """Angle set file: array of [u, apex, w] triples, trivial angles
    implicit.  Any other shape is a GraphFormatError."""
    doc = parse_document(document)
    if not isinstance(doc, (list, tuple)) or not all(
            isinstance(t, (list, tuple)) and len(t) == 3 and all(
                isinstance(x, int) and not isinstance(x, bool) for x in t)
            for t in doc):
        raise GraphFormatError("an angle set must be a list of [u, apex, w] "
                               "integer triples")
    return angle_set_from_triples(g, [tuple(t) for t in doc])


def angleset_to_document(theta: AngleSet):
    return [list(t) for t in sorted(theta.nontrivial)]


def angle_sum(a: AngleSet, b: AngleSet) -> AngleSet:
    """All angles (e, e'') split by some e' with (e,e') in a, (e',e'') in b.

    Contains both summands (via trivial middle edges) and is again
    group invariant whenever both summands are.
    """
    a._check_base(b)
    g = a.graph
    out = set(a.nontrivial) | set(b.nontrivial)
    by_apex_a = {}
    for (u, apex, w) in a.nontrivial:
        by_apex_a.setdefault(apex, []).append((u, w))
    by_apex_b = {}
    for (u, apex, w) in b.nontrivial:
        by_apex_b.setdefault(apex, {}).setdefault(u, set()).add(w)
        by_apex_b.setdefault(apex, {}).setdefault(w, set()).add(u)
    for apex, pairs in by_apex_a.items():
        nb = by_apex_b.get(apex)
        if not nb:
            continue
        for (u, x) in pairs:
            for (p, q) in ((u, x), (x, u)):
                for w in nb.get(q, ()):
                    if p != w:
                        out.add(canonical_angle(p, apex, w))
    return AngleSet(g, frozenset(out))


def k_fold_sum(a: AngleSet, k: int) -> AngleSet:
    """The sum of k copies of a.  Once a sum adds nothing, every later sum
    is equal too, so the loop stops there."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    acc = trivial_only(a.graph)
    for _ in range(k):
        nxt = angle_sum(acc, a)
        if nxt.nontrivial == acc.nontrivial:
            break
        acc = nxt
    return acc


# ---------------------------------------------------------------------------
# Smallness of geodesics
# ---------------------------------------------------------------------------


def far_end(sub, apex, w):
    """The other end of the original edge that the step apex -> w starts:
    w itself on a plain graph (sub None), and on a subdivision, where w is
    a midpoint, the far end of w's edge."""
    return w if sub is None else sum(sub.edge_of_midpoint[w]) - apex


class SmallnessOracle:
    """Turn-by-turn smallness test for paths in a graph or a subdivision."""

    def __init__(self, base, theta: AngleSet):
        if isinstance(base, Subdivision):
            self.sub = base
            if theta.graph != base.original:
                raise ValueError("theta must pair edges of the original graph")
        else:
            self.sub = None
            if theta.graph != base:
                raise ValueError("theta must pair edges of this graph")
        self.theta = theta

    def turn_ok(self, prev, cur, nxt) -> bool:
        sub = self.sub
        if sub is not None and sub.is_midpoint(cur):
            return True
        return self.theta.contains(far_end(sub, cur, prev), cur,
                                   far_end(sub, cur, nxt))


def geodesic_turns(index: GeodesicIndex, sub: Subdivision, a, b, at=None):
    """The turns of the a -> b geodesics at internal vertices, on a plain
    graph (sub None) or on a subdivision, where only original vertices turn.

    A step pair p -> w -> s lies on some a -> b geodesic exactly when
    d(a,w) + d(w,b) = d(a,b), d(a,p) = d(a,w) - 1 and d(s,b) = d(w,b) - 1,
    so the distance rows of a and b decide every turn.  Yields
    (w, p, s, angle) with angle the canonical angle of the two steps'
    original edges, w ascending, then p and s in neighbour order; given at,
    only the turns at that vertex.  No angle is trivial: p = s would give
    d(a,p) + d(p,b) = d(a,b) - 2, so a size theta holds the turn exactly
    when angle is in theta.nontrivial.  A disconnected pair is a ValueError.
    """
    da, db = index.dist[a], index.dist[b]
    total = da[b]
    if total is INF:
        raise ValueError("vertices %d and %d are disconnected" % (a, b))
    g = index.graph
    for w in g.vertices if at is None else (at,):
        if w == a or w == b or da[w] + db[w] != total \
                or sub is not None and sub.is_midpoint(w):
            continue
        nbrs = g.neighbors(w)
        ss = [(s, far_end(sub, w, s)) for s in nbrs if db[s] == db[w] - 1]
        for p in nbrs:
            if da[p] == da[w] - 1:
                u = far_end(sub, w, p)
                for s, x in ss:
                    yield w, p, s, canonical_angle(u, w, x)


def geodesic_angles(index: GeodesicIndex, sub: Subdivision, pairs) -> AngleSet:
    """Every angle at which some a -> b geodesic of the subdivision turns,
    over the given (a, b) pairs, as an angle set of the original graph."""
    return AngleSet(sub.original, frozenset(
        angle for a, b in pairs
        for *_, angle in geodesic_turns(index, sub, a, b)))


def small_steps(index: GeodesicIndex, oracle: SmallnessOracle, x):
    """steps[v]: each p for which some small geodesic x -> v ends p -> v.

    One sweep from x in BFS order.  Every prefix of a geodesic is a
    geodesic, so a small geodesic x -> v ending p -> v is a small geodesic
    x -> p followed by the step p -> v with a small turn at p; the step
    out of x has no turn.  BFS order settles steps[p] before the steps out
    of p are tried.  The sets are empty for v = x and for v unreachable
    from x.
    """
    g, dx = index.graph, index.dist[x]
    steps = [set() for _ in g.vertices]
    for u in sorted((v for v in g.vertices if dx[v] is not INF),
                    key=dx.__getitem__):
        for w in g.neighbors(u):
            if dx[w] == dx[u] + 1 and (u == x or any(
                    oracle.turn_ok(p, u, w) for p in steps[u])):
                steps[w].add(u)
    return steps


def small_carriers(index: GeodesicIndex, oracle: SmallnessOracle,
                   steps_a, steps_b, a, b):
    """The vertices on small a -> b geodesics, from the sweeps of a and b.

    An internal v qualifies exactly when d(a,v) + d(v,b) = d(a,b) and some
    p in steps_a[v], s in steps_b[v] give turn_ok(p, v, s): reversed, a
    small geodesic b -> v ending s -> v is a small one v -> b starting
    v -> s, since angles are unordered, and the two halves meet at v with
    distances that add up, so their concatenation is a small a -> b
    geodesic; every small a -> b geodesic through v splits so.  A small
    a -> b geodesic exists iff steps_a[b] is nonempty.
    """
    if a == b:
        return frozenset([a])
    if not steps_a[b]:
        return frozenset()
    da, db, total = index.dist[a], index.dist[b], index.dist[a][b]
    return frozenset([a, b]) | frozenset(
        v for v in index.graph.vertices
        if v != a and v != b and da[v] + db[v] == total
        and any(oracle.turn_ok(p, v, s)
                for p in steps_a[v] for s in steps_b[v]))


# ---------------------------------------------------------------------------
# Theta^(3): angles seen at triangle corners whose opposite side misses them
# ---------------------------------------------------------------------------


def theta3(base, index: GeodesicIndex = None,
           pair_cap: int = 2_000_000) -> AngleSet:
    """All angles realized at a triangle corner avoided by the third side.

    For a subdivision, apexes run over original vertices and corners over
    all subdivision vertices; the returned set pairs original edges.
    """
    if isinstance(base, Subdivision):
        sub, g, original = base, base.graph, base.original
        apexes = [v for v in g.vertices if not base.is_midpoint(v)]
    else:
        sub, g, original = None, base, base
        apexes = list(g.vertices)
    if index is None:
        index = GeodesicIndex(g)
    dist = index.dist
    corners = list(g.vertices)
    if len(corners) * len(corners) > pair_cap:
        raise CapExceeded("corner pair count exceeds cap")

    # The first steps from v toward p, as the far ends of original edges.
    # Equal sets are one object, so they compare by identity.
    far_ends = {v: [(w, far_end(sub, v, w)) for w in g.neighbors(v)]
                for v in apexes}
    interned = {}

    def first_steps(v, p):
        if dist[v][p] is INF:
            return frozenset()
        d = dist[v][p] - 1
        steps = frozenset(x for w, x in far_ends[v] if dist[w][p] == d)
        return interned.setdefault(steps, steps)

    # The third side p-q avoids v unless v lies on every p-q geodesic, that
    # is d(p,v) + d(v,q) = d(p,q) and sigma(p,v) * sigma(v,q) = sigma(p,q)
    # (a q outside p's component passes too, as inf = inf and 0 = 0).  Per
    # apex the test runs over the rows cut down to the corners, and the
    # corners are grouped by their first steps: each pair of groups counts
    # once, and a single first step paired with itself makes no angle.
    sigma = geodesic_counts(g, dist)
    dist_c = [[row[q] for q in corners] for row in dist]
    sigma_c = [[row[q] for q in corners] for row in sigma]
    result = set()
    for v in apexes:
        dv, dv_c, sv_c = dist[v], dist_c[v], sigma_c[v]
        steps = [first_steps(v, q) for q in corners]
        groups = set()
        for i, p in enumerate(corners):
            dpv, spv = dv[p], sigma[p][v]
            if p == v or dpv is INF:
                continue
            own = steps[i]
            bare = own if len(own) == 1 else None
            groups.update((own, s) for s in {s for s, a, b, x, y in zip(
                steps[i:], dv_c[i:], dist_c[p][i:], sv_c[i:], sigma_c[p][i:])
                if s is not bare and (dpv + a != b or spv * x != y)})
        for s1, s2 in groups:
            for x in s1:
                for y in s2:
                    if x != y:
                        result.add(canonical_angle(x, v, y))
    return AngleSet(original, frozenset(result))


def theta3_circuit_bound_check(g: Graph, theta3set: AngleSet, delta: int) -> dict:
    """Every nontrivial theta3 angle must sit on a circuit of length <= 16*delta.

    Hyperbolicity constants are positive integers by convention, so delta is
    raised to 1 when the measured slimness is 0 (trees are vacuous anyway,
    and graphs like K4 have slimness 0 with nontrivial theta3).
    """
    delta_eff = max(1, int(delta))
    bound = 16 * delta_eff
    missing = []
    max_needed = 0
    circuits_cache = {}
    for (u, apex, w) in sorted(theta3set.nontrivial):
        e = canon_edge(u, apex)
        circs = circuits_cache.get(e)
        if circs is None:
            circs = circuits_cache[e] = circuits_through_edge(g, e, bound)
        best = None
        for circ in circs:
            k = len(circ)
            i = circ.index(apex)
            nbrs = {circ[i - 1], circ[(i + 1) % k]}
            if nbrs == {u, w}:
                if best is None or k < best:
                    best = k
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


# ---------------------------------------------------------------------------
# The d_Theta metric on midpoint vertices
# ---------------------------------------------------------------------------


def d_theta(sub: Subdivision, theta: AngleSet) -> dict:
    """Chain metric on midpoint vertices of a subdivision, as rows:
    midpoint -> {midpoint: distance}, both in ve_vertices order.

    d(w, w') minimizes the summed graph length of chains of small-geodesic
    hops.  Any hop of length >= 2 passes an intermediate midpoint whose two
    halves are again small, so unit hops suffice: the metric is the path
    metric of the graph on midpoints joining (e, e') whenever that angle
    lies in theta.  Distances are in original units (integers, inf allowed).
    """
    order = sub.ve_vertices()
    adj = {v: [] for v in order}
    for apex in sub.v_vertices():
        mids = sub.graph.neighbors(apex)
        ends = [far_end(sub, apex, m) for m in mids]
        for i in range(len(mids)):
            for j in range(i + 1, len(mids)):
                if theta.contains(ends[i], apex, ends[j]):
                    adj[mids[i]].append(mids[j])
                    adj[mids[j]].append(mids[i])
    dist = {}
    for src in order:
        row = dist[src] = dict.fromkeys(order, INF)
        row[src] = 0
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if row[w] is INF:
                        row[w] = d
                        nxt.append(w)
            frontier = nxt
    return dist


# ---------------------------------------------------------------------------
# Lemma battery
# ---------------------------------------------------------------------------


@dataclass
class LemmaCounter:
    checked: int = 0
    nonvacuous: int = 0
    violations: list = field(default_factory=list)


@dataclass
class BatteryReport:
    lemmas: dict

    @property
    def ok(self):
        return all(not c.violations for c in self.lemmas.values())

    @property
    def total_checked(self):
        return sum(c.checked for c in self.lemmas.values())

    def summary(self):
        return {
            name: {"checked": c.checked, "nonvacuous": c.nonvacuous,
                   "violations": len(c.violations)}
            for name, c in sorted(self.lemmas.items())
        }


def _random_geodesic(index: GeodesicIndex, s, t, rng):
    path = [s]
    while path[-1] != t:
        path.append(rng.choice(geodesic_steps(index, s, t, path[-1])))
    return path


def _angle_at(path, i):
    return canonical_angle(path[i - 1], path[i], path[i + 1])


# the most geodesics a lemma enumerates between two sampled vertices
_GEODESIC_CAP = 64


def lemma_battery(g: Graph, theta0: AngleSet, trials: int,
                  seed: int) -> BatteryReport:
    """Sample configurations satisfying the large-angle lemma hypotheses and
    assert the conclusions.

    Conclusions are theorems for any hyperbolic graph, so a violation
    indicts the theta3 or geodesic machinery, not the sampled instance.
    All corners are vertices; endpoints on rays have no finite counterpart
    and configurations involving them are simply never sampled.
    """
    rng = random.Random(seed)
    index = GeodesicIndex(g)
    sigma = geodesic_counts(g, index.dist)
    t3 = theta3(g, index=index)
    x_pass = angle_sum(theta0, k_fold_sum(t3, 2))
    x_trans = angle_sum(theta0, k_fold_sum(t3, 3))
    tripod_bound = angle_sum(theta0, angle_sum(theta0, k_fold_sum(t3, 3)))
    t3_2 = k_fold_sum(t3, 2)
    transfer_pairs = [(th, angle_sum(th, x_trans))
                      for th in (theta0, t3, t3_2)]
    counters = {name: LemmaCounter() for name in (
        "geodesic_2_gons", "large_angles", "large_angles_in_triangles_no_c",
        "tripod", "large_angles_in_triangles", "geodesics_between_geodesics")}
    comps = [sorted(c) for c in g.components() if len(c) >= 2]
    if not comps:
        return BatteryReport(counters)

    def sample_vertices(k):
        comp = comps[rng.randrange(len(comps))]
        return [rng.choice(comp) for _ in range(k)]

    def all_geodesics(u, v):
        return enumerate_geodesics(index, u, v, _GEODESIC_CAP)

    oracle_t3_2 = SmallnessOracle(g, t3_2)

    for _ in range(trials):
        which = rng.randrange(6)

        if which == 0:
            # two geodesics with the same endpoints: initial angle is t3-small
            v, xi = sample_vertices(2)
            if v == xi:
                continue
            c = counters["geodesic_2_gons"]
            inits = geodesic_steps(index, v, xi, v)
            for i in range(len(inits)):
                for j in range(i, len(inits)):
                    c.checked += 1
                    if inits[i] != inits[j]:
                        c.nonvacuous += 1
                    if not t3.contains(inits[i], v, inits[j]):
                        c.violations.append(("geodesic_2_gons", v, xi,
                                             inits[i], inits[j]))

        elif which == 1:
            # a t3-large internal angle forces every geodesic through it:
            # w, on a geodesic, lies on all of them exactly when
            # sigma(xm, w) * sigma(w, xp) = sigma(xm, xp)
            xm, xp = sample_vertices(2)
            if xm == xp:
                continue
            c = counters["large_angles"]
            path = _random_geodesic(index, xm, xp, rng)
            for i in range(1, len(path) - 1):
                if t3.contains(*_angle_at(path, i)):
                    continue
                c.checked += 1
                c.nonvacuous += 1
                w = path[i]
                if sigma[xm][w] * sigma[w][xp] != sigma[xm][xp]:
                    c.violations.append(("large_angles", xm, xp, w))

        elif which == 2:
            # triangle with the large angle away from the opposite side
            xi, x1, x2 = sample_vertices(3)
            if len({xi, x1, x2}) < 2 or xi == x1:
                continue
            c = counters["large_angles_in_triangles_no_c"]
            c1 = _random_geodesic(index, xi, x1, rng)
            if x1 == x2:
                side = [x1]
            else:
                side = _random_geodesic(index, x1, x2, rng)
            side_set = set(side)
            for i in range(1, len(c1) - 1):
                v = c1[i]
                if v in side_set or x2 == v:
                    continue
                if x_pass.contains(*_angle_at(c1, i)):
                    continue
                c.checked += 1
                c.nonvacuous += 1
                for c2 in all_geodesics(x2, xi):
                    if v not in c2[1:-1]:
                        c.violations.append(("no_c_pass", xi, x1, x2, v))
                        continue
                    k = c2.index(v)
                    if theta0.contains(*_angle_at(c2, k)):
                        c.violations.append(("no_c_angle", xi, x1, x2, v))

        elif which == 3:
            # tripod: large middle angle forces a large angle on a leg
            xi, x1, x2 = sample_vertices(3)
            if len({xi, x1, x2}) < 3:
                continue
            c = counters["tripod"]
            cc = _random_geodesic(index, x1, x2, rng)
            c1 = _random_geodesic(index, x1, xi, rng)
            c2 = _random_geodesic(index, x2, xi, rng)
            for i in range(1, len(cc) - 1):
                v = cc[i]
                if v not in c1[1:-1] or v not in c2[1:-1]:
                    continue
                if tripod_bound.contains(*_angle_at(cc, i)):
                    continue
                c.checked += 1
                c.nonvacuous += 1
                a1 = _angle_at(c1, c1.index(v))
                a2 = _angle_at(c2, c2.index(v))
                if theta0.contains(*a1) and theta0.contains(*a2):
                    c.violations.append(("tripod", xi, x1, x2, v))

        elif which == 4:
            # small base side: large angles transfer across the triangle
            x1, x2, xi = sample_vertices(3)
            if len({x1, x2, xi}) < 3:
                continue
            c = counters["large_angles_in_triangles"]
            base_small = None
            for cand in all_geodesics(x1, x2):
                if all(theta0.contains(*_angle_at(cand, i))
                       for i in range(1, len(cand) - 1)):
                    base_small = cand
                    break
            if base_small is None:
                continue
            c1 = _random_geodesic(index, x1, xi, rng)
            for i in range(1, len(c1) - 1):
                v = c1[i]
                if v == x2:
                    continue
                a1 = _angle_at(c1, i)
                if x_pass.contains(*a1):
                    continue
                c.checked += 1
                c.nonvacuous += 1
                geos2 = all_geodesics(x2, xi)
                for c2 in geos2:
                    if v not in c2:
                        c.violations.append(("lait_pass", x1, x2, xi, v))
                if x_trans.contains(*a1):
                    continue
                for c2 in geos2:
                    if v not in c2[1:-1]:
                        continue
                    a2 = _angle_at(c2, c2.index(v))
                    for th, th_x in transfer_pairs:
                        if th.contains(*a1) and not th_x.contains(*a2):
                            c.violations.append(("lait_small", x1, x2, xi, v))
                        if not th_x.contains(*a1) and th.contains(*a2):
                            c.violations.append(("lait_large", x1, x2, xi, v))

        else:
            # points on a 2-gon not joined inside it: a 2*t3-small connector
            xm, xp = sample_vertices(2)
            if xm == xp:
                continue
            c = counters["geodesics_between_geodesics"]
            ca = _random_geodesic(index, xm, xp, rng)
            cb = _random_geodesic(index, xm, xp, rng)
            union_edges = {canon_edge(a, b) for a, b in zip(ca, ca[1:])}
            union_edges |= {canon_edge(a, b) for a, b in zip(cb, cb[1:])}
            v = rng.choice(ca)
            v2 = rng.choice(cb)
            if v == v2:
                continue
            contained = False
            try:
                for geo in all_geodesics(v, v2):
                    if all(canon_edge(a, b) in union_edges
                           for a, b in zip(geo, geo[1:])):
                        contained = True
                        break
            except CapExceeded:
                continue
            if contained:
                continue
            c.checked += 1
            c.nonvacuous += 1
            if not small_steps(index, oracle_t3_2, v)[v2]:
                c.violations.append(("between", xm, xp, v, v2))

    return BatteryReport(counters)
