"""Angle sets on finite graphs and everything built from them.

An angle is an unordered pair of edges sharing a vertex (the apex), stored
canonically as a triple (u, apex, w) listing the two far endpoints with
u <= w.  Trivial angles (an edge paired with itself) are members of every
angle set and are kept implicit.

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
    GeodesicDag,
    GeodesicIndex,
    Graph,
    Subdivision,
    canon_edge,
    enumerate_geodesics,
    geodesic_counts,
    geodesic_dag,
    mandatory_vertices,
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

    def contains_edges(self, e1, e2) -> bool:
        if e1 == e2:
            return True
        shared = set(e1) & set(e2)
        if len(shared) != 1:
            raise ValueError("edges %r, %r do not form an angle" % (e1, e2))
        apex = shared.pop()
        u = e1[0] if e1[1] == apex else e1[1]
        w = e2[0] if e2[1] == apex else e2[1]
        return self.contains(u, apex, w)

    def union(self, other) -> "AngleSet":
        self._check_base(other)
        return AngleSet(self.graph, self.nontrivial | other.nontrivial)

    def _check_base(self, other):
        if other.graph is not self.graph and other.graph != self.graph:
            raise ValueError("angle sets live on different graphs")

    def is_invariant(self, G: GroupModel) -> bool:
        return all(act_angle(p, t) in self.nontrivial
                   for t in self.nontrivial for p in G.elements)

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
    """Angle set file: array of [u, apex, w] triples, trivial angles implicit."""
    import json
    doc = json.loads(document) if isinstance(document, str) else document
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
    if k < 0:
        raise ValueError("k must be nonnegative")
    acc = trivial_only(a.graph)
    for _ in range(k):
        acc = angle_sum(acc, a)
    return acc


# ---------------------------------------------------------------------------
# Smallness of geodesics
# ---------------------------------------------------------------------------


class SmallnessOracle:
    """Turn-by-turn smallness test for paths in a graph or a subdivision."""

    def __init__(self, base, theta: AngleSet):
        if isinstance(base, Subdivision):
            self.sub = base
            self.graph = base.graph
            if theta.graph != base.original:
                raise ValueError("theta must pair edges of the original graph")
        else:
            self.sub = None
            self.graph = base
            if theta.graph != base:
                raise ValueError("theta must pair edges of this graph")
        self.theta = theta

    def is_checked(self, v) -> bool:
        return self.sub is None or not self.sub.is_midpoint(v)

    def turn_ok(self, prev, cur, nxt) -> bool:
        if self.sub is None:
            return self.theta.contains_edges(canon_edge(prev, cur),
                                             canon_edge(cur, nxt))
        if self.sub.is_midpoint(cur):
            return True
        e1 = self.sub.edge_of_midpoint[prev]
        e2 = self.sub.edge_of_midpoint[nxt]
        return self.theta.contains_edges(e1, e2)

    def step_edge(self, a, b):
        """Original edge traversed by the step a -> b."""
        if self.sub is None:
            return canon_edge(a, b)
        m = b if self.sub.is_midpoint(b) else a
        return self.sub.edge_of_midpoint[m]


def angles_of_geodesic(g: Graph, path, index: GeodesicIndex = None):
    """One angle per internal vertex of a geodesic; raises off geodesics."""
    if len(path) == 0:
        raise ValueError("empty path")
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            raise ValueError("path step (%r,%r) is not an edge" % (a, b))
    d = (index.d(path[0], path[-1]) if index is not None
         else len(_shortest(g, path[0], path[-1])) - 1)
    if d != len(path) - 1:
        raise ValueError("path is not a geodesic")
    return [canonical_angle(path[i - 1], path[i], path[i + 1])
            for i in range(1, len(path) - 1)]


def _shortest(g: Graph, u, v):
    from collections import deque
    pred = {u: None}
    q = deque([u])
    while q:
        x = q.popleft()
        if x == v:
            break
        for w in g.neighbors(x):
            if w not in pred:
                pred[w] = x
                q.append(w)
    if v not in pred:
        raise ValueError("disconnected pair")
    path = [v]
    while pred[path[-1]] is not None:
        path.append(pred[path[-1]])
    return path[::-1]


def _forward_states(dag: GeodesicDag, oracle: SmallnessOracle):
    """fwd[v] = set of predecessors p such that some small prefix ends p->v."""
    order = sorted(dag.layer, key=lambda w: dag.layer[w])
    fwd = {v: set() for v in dag.layer}
    for u in order:
        if u == dag.source:
            for w in dag.succ[u]:
                fwd[w].add(u)
            continue
        for prev in fwd[u]:
            for w in dag.succ[u]:
                if oracle.turn_ok(prev, u, w):
                    fwd[w].add(u)
    return fwd


def _backward_states(dag: GeodesicDag, oracle: SmallnessOracle):
    """bwd[v] = set of successors s such that some small suffix starts v->s."""
    pred = dag.pred()
    order = sorted(dag.layer, key=lambda w: -dag.layer[w])
    bwd = {v: set() for v in dag.layer}
    for u in order:
        if u == dag.target:
            for p in pred[u]:
                bwd[p].add(u)
            continue
        for nxt in bwd[u]:
            for p in pred[u]:
                if oracle.turn_ok(p, u, nxt):
                    bwd[p].add(u)
    return bwd


def exists_small_geodesic(dag: GeodesicDag, oracle: SmallnessOracle,
                          init_ok=None) -> bool:
    if dag.source == dag.target:
        return True
    if dag.length() == 1:
        return init_ok is None or init_ok(dag.target)
    fwd = _forward_states(dag, oracle)
    bwd = _backward_states(dag, oracle)
    for w in dag.succ[dag.source]:
        if init_ok is not None and not init_ok(w):
            continue
        if w == dag.target:
            return True
        for nxt in bwd[w]:
            if oracle.turn_ok(dag.source, w, nxt):
                return True
    return False


def vertices_on_small_geodesics(dag: GeodesicDag, oracle: SmallnessOracle):
    """Vertices lying on at least one small geodesic of the DAG."""
    if dag.source == dag.target:
        return frozenset([dag.source])
    fwd = _forward_states(dag, oracle)
    bwd = _backward_states(dag, oracle)
    out = set()
    if bwd[dag.source] or dag.length() == 1:
        out.add(dag.source)
        out.add(dag.target)
    for v in dag.layer:
        if v in (dag.source, dag.target):
            continue
        done = False
        for p in fwd[v]:
            if done:
                break
            for s in bwd[v]:
                if oracle.turn_ok(p, v, s):
                    out.add(v)
                    done = True
                    break
    return frozenset(out)


def enumerate_small_geodesics(dag: GeodesicDag, oracle: SmallnessOracle,
                              cap: int, init_ok=None):
    out = []
    path = [dag.source]

    def walk(u):
        if u == dag.target:
            if len(out) >= cap:
                raise CapExceeded("more than %d small geodesics" % cap)
            out.append(list(path))
            return
        for w in dag.succ[u]:
            if len(path) == 1 and init_ok is not None and not init_ok(w):
                continue
            if len(path) >= 2 and not oracle.turn_ok(path[-2], u, w):
                continue
            path.append(w)
            walk(w)
            path.pop()

    walk(dag.source)
    return out


def theta_small_geodesics(base, theta: AngleSet, u, v, cap: int,
                          index: GeodesicIndex = None):
    """Exactly the geodesics u -> v whose internal angles all lie in theta."""
    oracle = SmallnessOracle(base, theta)
    g = oracle.graph
    dag = index.dag(u, v) if index is not None else geodesic_dag(g, u, v)
    return enumerate_small_geodesics(dag, oracle, cap)


def theta_ball(base, theta: AngleSet, v, e, alpha,
               index: GeodesicIndex = None) -> frozenset:
    """Vertices reachable from v by a small geodesic of length <= alpha whose
    initial edge e' pairs with e inside theta."""
    oracle = SmallnessOracle(base, theta)
    g = oracle.graph
    e = canon_edge(*e)
    if v not in e:
        raise ValueError("edge %r not incident to %r" % (e, v))
    if index is None:
        index = GeodesicIndex(g)
    out = {v}
    for w in g.vertices:
        if w == v or not (0 < index.d(v, w) <= alpha):
            continue
        dag = index.dag(v, w)

        def init_ok(first, _v=v):
            return theta.contains_edges(e, oracle.step_edge(_v, first))

        if exists_small_geodesic(dag, oracle, init_ok=init_ok):
            out.add(w)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Theta^(3): angles seen at triangle corners whose opposite side misses them
# ---------------------------------------------------------------------------


def theta3(base, include_cone_completion: bool = True,
           index: GeodesicIndex = None, pair_cap: int = 2_000_000) -> AngleSet:
    """All angles realized at a triangle corner avoided by the third side.

    For a subdivision, apexes run over original vertices and corners over
    all subdivision vertices; the returned set pairs original edges.  With
    include_cone_completion=False, cone vertices are not allowed as the two
    far corners (they stand in for ideal points of larger models).
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
    corners = [p for p in g.vertices
               if include_cone_completion or p not in g.cone_vertices]
    if len(corners) * len(corners) > pair_cap:
        raise CapExceeded("corner pair count exceeds cap")

    # The first steps from v toward p, as the far ends of original edges
    # (a midpoint's other end).  Equal sets are one object, so they
    # compare by identity.
    far_ends = {v: [(w, w if sub is None else sum(sub.edge_of_midpoint[w]) - v)
                    for w in g.neighbors(v)] for v in apexes}
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


def _angle_from_edges(e1, e2):
    shared = set(e1) & set(e2)
    apex = shared.pop()
    u = e1[0] if e1[1] == apex else e1[1]
    w = e2[0] if e2[1] == apex else e2[1]
    return canonical_angle(u, apex, w)


def theta3_circuit_bound_check(g: Graph, theta3set: AngleSet, delta: int) -> dict:
    """Every nontrivial theta3 angle must sit on a circuit of length <= 16*delta.

    Hyperbolicity constants are positive integers by convention, so delta is
    raised to 1 when the measured slimness is 0 (trees are vacuous anyway,
    and graphs like K4 have slimness 0 with nontrivial theta3).
    """
    from .graphs import circuits_through_edge
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


@dataclass(frozen=True)
class ThetaMetric:
    """Chain metric on midpoint vertices of a subdivision.

    d(w, w') minimizes the summed graph length of chains of small-geodesic
    hops.  Any hop of length >= 2 passes an intermediate midpoint whose two
    halves are again small, so unit hops suffice: the metric is the path
    metric of the graph on midpoints joining (e, e') whenever that angle
    lies in theta.  Distances are in original units (integers, inf allowed).
    """

    sub: Subdivision
    theta: AngleSet
    order: tuple
    dist: tuple
    pos: dict  # vertex -> its index in order, hence its row in dist

    def d(self, w, w2):
        return self.dist[self.pos[w]][self.pos[w2]]

    def ball(self, w, radius):
        row = self.dist[self.pos[w]]
        return frozenset(self.order[i] for i, dv in enumerate(row)
                         if dv <= radius)

    def submatrix(self, points):
        """Dense distances among points, indexed by their position in it."""
        idx = [self.pos[p] for p in points]
        return [[row[j] for j in idx] for row in (self.dist[i] for i in idx)]

    def diameter(self):
        best = 0
        for row in self.dist:
            for dv in row:
                if dv is not INF and dv > best:
                    best = dv
        return best


def d_theta(sub: Subdivision, theta: AngleSet) -> ThetaMetric:
    order = sub.ve_vertices()
    pos = {v: i for i, v in enumerate(order)}
    n = len(order)
    adj = {v: [] for v in order}
    for apex in sub.v_vertices():
        mids = [m for m in sub.graph.neighbors(apex)]
        for i in range(len(mids)):
            e1 = sub.edge_of_midpoint[mids[i]]
            for j in range(i + 1, len(mids)):
                e2 = sub.edge_of_midpoint[mids[j]]
                if theta.contains_edges(e1, e2):
                    adj[mids[i]].append(mids[j])
                    adj[mids[j]].append(mids[i])
    rows = []
    for src in order:
        row = [INF] * n
        row[pos[src]] = 0
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if row[pos[w]] is INF:
                        row[pos[w]] = d
                        nxt.append(w)
            frontier = nxt
        rows.append(tuple(row))
    return ThetaMetric(sub, theta, order, tuple(rows), pos)


def d_theta_definitional_oracle(sub: Subdivision, theta: AngleSet,
                                index: GeodesicIndex = None):
    """Slow reference: Dijkstra over hops of every length.

    Hop (w, w') is admitted whenever some small geodesic joins w and w',
    with weight equal to the graph distance.  Used to cross-check d_theta.
    """
    import heapq
    oracle = SmallnessOracle(sub, theta)
    if index is None:
        index = GeodesicIndex(sub.graph)
    order = sub.ve_vertices()
    hops = {w: [] for w in order}
    for i, w in enumerate(order):
        for w2 in order[i + 1:]:
            dg = index.d(w, w2)
            if dg is INF:
                continue
            if exists_small_geodesic(index.dag(w, w2), oracle):
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


def _random_geodesic(dag: GeodesicDag, rng):
    path = [dag.source]
    while path[-1] != dag.target:
        path.append(rng.choice(dag.succ[path[-1]]))
    return path


def _angle_at(path, i):
    return canonical_angle(path[i - 1], path[i], path[i + 1])


def lemma_battery(g: Graph, G: GroupModel, theta0: AngleSet,
                  trials: int, seed: int,
                  geodesic_cap: int = 64) -> BatteryReport:
    """Sample configurations satisfying the large-angle lemma hypotheses and
    assert the conclusions.

    Conclusions are theorems for any hyperbolic graph, so a violation
    indicts the theta3 or geodesic machinery, not the sampled instance.
    All corners are vertices; endpoints on rays have no finite counterpart
    and configurations involving them are simply never sampled.
    """
    rng = random.Random(seed)
    if not theta0.is_invariant(G):
        raise ValueError("theta0 must be invariant under the supplied group")
    index = GeodesicIndex(g)
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
        return enumerate_geodesics(index.dag(u, v), geodesic_cap)

    oracle_t3_2 = SmallnessOracle(g, t3_2)

    for _ in range(trials):
        which = rng.randrange(6)

        if which == 0:
            # two geodesics with the same endpoints: initial angle is t3-small
            v, xi = sample_vertices(2)
            if v == xi:
                continue
            c = counters["geodesic_2_gons"]
            dag = index.dag(v, xi)
            inits = dag.succ[v]
            for i in range(len(inits)):
                for j in range(i, len(inits)):
                    c.checked += 1
                    if inits[i] != inits[j]:
                        c.nonvacuous += 1
                    if not t3.contains(inits[i], v, inits[j]):
                        c.violations.append(("geodesic_2_gons", v, xi,
                                             inits[i], inits[j]))

        elif which == 1:
            # a t3-large internal angle forces every geodesic through it
            xm, xp = sample_vertices(2)
            if xm == xp:
                continue
            c = counters["large_angles"]
            dag = index.dag(xm, xp)
            path = _random_geodesic(dag, rng)
            mand = None
            for i in range(1, len(path) - 1):
                if t3.contains(*_angle_at(path, i)):
                    continue
                c.checked += 1
                c.nonvacuous += 1
                if mand is None:
                    mand = mandatory_vertices(dag)
                if path[i] not in mand:
                    c.violations.append(("large_angles", xm, xp, path[i]))

        elif which == 2:
            # triangle with the large angle away from the opposite side
            xi, x1, x2 = sample_vertices(3)
            if len({xi, x1, x2}) < 2 or xi == x1:
                continue
            c = counters["large_angles_in_triangles_no_c"]
            c1 = _random_geodesic(index.dag(xi, x1), rng)
            if x1 == x2:
                side = [x1]
            else:
                side = _random_geodesic(index.dag(x1, x2), rng)
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
            cc = _random_geodesic(index.dag(x1, x2), rng)
            c1 = _random_geodesic(index.dag(x1, xi), rng)
            c2 = _random_geodesic(index.dag(x2, xi), rng)
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
            c1 = _random_geodesic(index.dag(x1, xi), rng)
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
            dag = index.dag(xm, xp)
            ca = _random_geodesic(dag, rng)
            cb = _random_geodesic(dag, rng)
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
            if not exists_small_geodesic(index.dag(v, v2), oracle_t3_2):
                c.violations.append(("between", xm, xp, v, v2))

    return BatteryReport(counters)


# ---------------------------------------------------------------------------
# Observer basis sets (finite shadows; used by tests only)
# ---------------------------------------------------------------------------


def observer_set_all(g: Graph, xi, v0_set, index: GeodesicIndex = None):
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


def observer_set_exists(g: Graph, xi, v0_set, index: GeodesicIndex = None):
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
        if _reachable_avoiding(index.dag(xi, x2), avoid):
            out.add(x2)
    return frozenset(out)


def _reachable_avoiding(dag: GeodesicDag, avoid):
    if dag.source in avoid or dag.target in avoid:
        return False
    stack = [dag.source]
    seen = {dag.source}
    while stack:
        u = stack.pop()
        if u == dag.target:
            return True
        for w in dag.succ[u]:
            if w not in seen and w not in avoid:
                seen.add(w)
                stack.append(w)
    return False
