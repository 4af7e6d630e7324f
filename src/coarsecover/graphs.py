"""Finite simple graphs with distances, geodesic structure and slimness.

Vertices are integers 0..n-1.  Edges are canonical sorted 2-tuples.  A graph
may carry a set of marked "cone" vertices (stand-ins for infinite-valency
vertices of larger models).  All distances are hop counts of the graph at
hand; a barycentric subdivision therefore measures in half-units of the
original graph (two subdivided hops per original edge), which keeps every
metric quantity an exact integer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations

INF = math.inf

DEFAULT_CONE_THRESHOLD = 8


class CapExceeded(RuntimeError):
    """An enumeration grew past its configured cap; shrink the instance."""


class GraphFormatError(ValueError):
    """The graph document violates the file schema or a graph invariant."""


def canon_edge(u, v):
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph with optional cone vertices."""

    vertex_count: int
    edges: frozenset
    cone_vertices: frozenset = frozenset()
    labels: dict = field(default_factory=dict, compare=False)
    cone_adjacency_warning: bool = field(default=False, compare=False)

    def __post_init__(self):
        adj = {v: [] for v in range(self.vertex_count)}
        for (u, v) in self.edges:
            if u == v:
                raise GraphFormatError("self-loop at vertex %d" % u)
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise GraphFormatError("edge (%d,%d) out of range" % (u, v))
            if (u, v) != canon_edge(u, v):
                raise GraphFormatError("edge (%d,%d) not canonical" % (u, v))
            adj[u].append(v)
            adj[v].append(u)
        for v in self.cone_vertices:
            if not (0 <= v < self.vertex_count):
                raise GraphFormatError("cone vertex %d out of range" % v)
        object.__setattr__(self, "_adj", {v: tuple(sorted(ws)) for v, ws in adj.items()})

    @property
    def vertices(self):
        return range(self.vertex_count)

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def has_edge(self, u, v):
        return canon_edge(u, v) in self.edges

    def cone_vertices_adjacent(self):
        return [
            (u, v) for (u, v) in sorted(self.edges)
            if u in self.cone_vertices and v in self.cone_vertices
        ]

    def require_cone_separation(self):
        """Cone operations assume no two cone vertices are adjacent."""
        bad = self.cone_vertices_adjacent()
        if bad:
            raise GraphFormatError("adjacent cone vertices: %s" % (bad,))

    def components(self):
        seen = set()
        comps = []
        for s in self.vertices:
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            while stack:
                u = stack.pop()
                for w in self._adj[u]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def is_connected(self):
        return self.vertex_count <= 1 or len(self.components()) == 1


def make_graph(n, edges, cone_vertices=(), labels=None, warn_adjacent_cones=False):
    es = frozenset(canon_edge(u, v) for (u, v) in edges)
    g = Graph(n, es, frozenset(cone_vertices), dict(labels or {}),
              cone_adjacency_warning=warn_adjacent_cones)
    return g


def load_graph(document, cone_threshold=DEFAULT_CONE_THRESHOLD):
    """Parse a graph document (JSON text or dict).

    Schema: ``vertices`` (int), ``edges`` (list of [u, v]), optional
    ``cone_vertices`` (list), optional ``labels`` (map vertex -> string).
    When ``cone_vertices`` is absent, vertices of valency >= cone_threshold
    are marked as cone vertices.  Adjacent cone vertices are legal at load
    time but recorded as a warning; cone and Rips operations refuse them.
    """
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as e:
            raise GraphFormatError("malformed document: %s" % e) from None
    else:
        doc = document
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise GraphFormatError("document must carry 'vertices' and 'edges'")
    n = doc["vertices"]
    if not isinstance(n, int) or n < 0:
        raise GraphFormatError("'vertices' must be a nonnegative integer")
    if not isinstance(doc["edges"], (list, tuple)):
        raise GraphFormatError("'edges' must be a list")
    edges = []
    seen = set()
    for pair in doc["edges"]:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2 or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in pair):
            raise GraphFormatError("bad edge entry %r" % (pair,))
        u, v = pair
        if u == v:
            raise GraphFormatError("self-loop at vertex %r" % u)
        e = canon_edge(u, v)
        if e in seen:
            raise GraphFormatError("duplicate edge %r" % (e,))
        seen.add(e)
        edges.append(e)
    if "cone_vertices" in doc and doc["cone_vertices"] is not None:
        cones = frozenset(doc["cone_vertices"])
    else:
        deg = {v: 0 for v in range(n)}
        for (u, v) in edges:
            deg[u] += 1
            deg[v] += 1
        cones = frozenset(v for v in range(n) if deg[v] >= cone_threshold)
    labels = {int(k): str(v) for k, v in (doc.get("labels") or {}).items()}
    g = make_graph(n, edges, cones, labels)
    if g.cone_vertices_adjacent():
        g = make_graph(n, edges, cones, labels, warn_adjacent_cones=True)
    return g


def graph_to_document(g: Graph) -> dict:
    doc = {
        "vertices": g.vertex_count,
        "edges": [list(e) for e in sorted(g.edges)],
        "cone_vertices": sorted(g.cone_vertices),
    }
    if g.labels:
        doc["labels"] = {str(k): v for k, v in sorted(g.labels.items())}
    return doc


# ---------------------------------------------------------------------------
# Distances and geodesics
# ---------------------------------------------------------------------------


def _bfs(g: Graph, source):
    dist = [INF] * g.vertex_count
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if dist[w] is INF:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def distance_matrix(g: Graph):
    """All-pairs hop distances; disconnected pairs map to math.inf."""
    return [_bfs(g, s) for s in g.vertices]


@dataclass(frozen=True)
class GeodesicDag:
    """All geodesics from source to target, as a layered DAG.

    succ[u] lists the vertices w adjacent to u with
    layer[w] = layer[u] + 1 lying on at least one geodesic.
    """

    source: int
    target: int
    layer: dict
    succ: dict

    def length(self):
        return self.layer[self.target]

    def vertices(self):
        return sorted(self.layer)

    def edges(self):
        for u in sorted(self.succ):
            for w in self.succ[u]:
                yield (u, w)

    def pred(self):
        p = {v: [] for v in self.layer}
        for u, ws in self.succ.items():
            for w in ws:
                p[w].append(u)
        return {v: tuple(sorted(us)) for v, us in p.items()}


def geodesic_dag(g: Graph, u, v, dist=None) -> GeodesicDag:
    """The DAG of all geodesic edges from u to v.

    An edge (a, b) is kept exactly when d(u,a) + 1 + d(b,v) = d(u,v).
    """
    du = dist[u] if dist is not None else _bfs(g, u)
    dv = dist[v] if dist is not None else _bfs(g, v)
    if du[v] is INF:
        raise ValueError("vertices %d and %d are disconnected" % (u, v))
    total = du[v]
    layer = {}
    succ = {}
    # A vertex is on some geodesic iff d(u,w) + d(w,v) = d(u,v).
    for w in g.vertices:
        if du[w] is not INF and du[w] + dv[w] == total:
            layer[w] = du[w]
    for a in layer:
        outs = tuple(sorted(b for b in g.neighbors(a)
                            if b in layer and layer[b] == layer[a] + 1))
        succ[a] = outs
    return GeodesicDag(u, v, layer, succ)


def enumerate_geodesics(dag: GeodesicDag, cap: int):
    """All maximal source-to-target paths of the DAG in lexicographic order."""
    out = []
    path = [dag.source]

    def walk(u):
        if u == dag.target:
            if len(out) >= cap:
                raise CapExceeded("more than %d geodesics" % cap)
            out.append(list(path))
            return
        for w in dag.succ[u]:
            path.append(w)
            walk(w)
            path.pop()

    walk(dag.source)
    return out


def mandatory_vertices(dag: GeodesicDag) -> frozenset:
    """Vertices lying on every geodesic of the DAG (path-count argument)."""
    from_source = {dag.source: 1}
    for u in sorted(dag.layer, key=lambda x: dag.layer[x]):
        for w in dag.succ[u]:
            from_source[w] = from_source.get(w, 0) + from_source[u]
    to_target = {dag.target: 1}
    for u in sorted(dag.layer, key=lambda x: -dag.layer[x]):
        if u == dag.target:
            continue
        to_target[u] = sum(to_target[w] for w in dag.succ[u])
    total = from_source[dag.target]
    return frozenset(v for v in dag.layer
                     if from_source.get(v, 0) * to_target.get(v, 0) == total)


def geodesic_vertices(g: Graph, u, v, dist):
    """Vertices on at least one geodesic between u and v."""
    du, dv = dist[u], dist[v]
    total = du[v]
    if total is INF:
        raise ValueError("disconnected pair")
    return [w for w in g.vertices if du[w] is not INF and du[w] + dv[w] == total]


def is_geodesic(g: Graph, path, dist=None) -> bool:
    if len(path) == 0:
        return False
    if len(path) == 1:
        return True
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            return False
    if dist is None:
        dist = {path[0]: _bfs(g, path[0])}
    d0 = dist[path[0]]
    return d0[path[-1]] == len(path) - 1


class GeodesicIndex:
    """Shared cache of distances and geodesic DAGs for one graph."""

    def __init__(self, g: Graph):
        self.graph = g
        self.dist = distance_matrix(g)
        self._dags = {}

    def d(self, u, v):
        return self.dist[u][v]

    def dag(self, u, v) -> GeodesicDag:
        key = (u, v)
        dag = self._dags.get(key)
        if dag is None:
            dag = geodesic_dag(self.graph, u, v, self.dist)
            self._dags[key] = dag
        return dag

    def geodesic_vertex_set(self, u, v):
        return geodesic_vertices(self.graph, u, v, self.dist)


# ---------------------------------------------------------------------------
# Slimness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlimnessReport:
    delta: int
    witness_triangle: tuple


def _maximin_side_distance(g: Graph, dist, x, y):
    """For every v: the largest min-distance from v achieved by an x-y geodesic.

    m[v] = max over geodesics c from x to y of min_{w in c} d(w, v).
    Computed as a vectorised DAG dynamic program over all v at once.
    """
    dag = geodesic_dag(g, x, y, dist)
    order = sorted(dag.layer, key=lambda w: dag.layer[w])
    n = g.vertex_count
    best = {x: list(dist[x])}
    for u in order:
        bu = best.get(u)
        if bu is None:
            continue
        for w in dag.succ[u]:
            dw = dist[w]
            cand = [bu[i] if bu[i] < dw[i] else dw[i] for i in range(n)]
            bw = best.get(w)
            if bw is None:
                best[w] = cand
            else:
                best[w] = [a if a > b else b for a, b in zip(bw, cand)]
    return best[dag.target]


def slimness_constant(g: Graph, dist=None) -> SlimnessReport:
    """Minimal delta such that every geodesic triangle is delta-slim.

    Sides are chosen adversarially: for each vertex triple the three side
    geodesics maximizing the slimness defect are taken into account, so the
    result bounds all geodesic triangles of the graph.
    """
    if not g.is_connected():
        raise ValueError("slimness requires a connected graph")
    if dist is None:
        dist = distance_matrix(g)
    n = g.vertex_count
    maximin = {}
    for x in range(n):
        for y in range(x, n):
            maximin[(x, y)] = _maximin_side_distance(g, dist, x, y)

    def m(x, y):
        return maximin[(x, y) if x <= y else (y, x)]

    delta = 0
    witness = (0, 0, 0)
    for a, b, c in combinations(range(n), 3):
        for (p, q, r) in ((a, b, c), (b, c, a), (a, c, b)):
            # side p-q against the adversarial union of sides p-r and q-r
            m1 = m(p, r)
            m2 = m(q, r)
            dp, dq = dist[p], dist[q]
            total = dp[q]
            for v in range(n):
                if dp[v] + dq[v] == total:
                    gap = m1[v] if m1[v] < m2[v] else m2[v]
                    if gap > delta:
                        delta = gap
                        witness = (a, b, c)
    return SlimnessReport(int(delta), witness)


def slimness_min_over_sides(g: Graph, cap=200, dist=None) -> int:
    """Diagnostic variant: sides chosen favourably instead of adversarially.

    Enumerates geodesic side combinations (capped) and reports the best
    achievable slimness over the worst triple.  Only useful on small graphs.
    """
    if dist is None:
        dist = distance_matrix(g)
    n = g.vertex_count
    worst = 0
    for a, b, c in combinations(range(n), 3):
        sides = []
        for (x, y) in ((a, b), (b, c), (a, c)):
            sides.append(enumerate_geodesics(geodesic_dag(g, x, y, dist), cap))
        best = None
        for c1 in sides[0]:
            for c2 in sides[1]:
                for c3 in sides[2]:
                    tri = (c1, c2, c3)
                    val = 0
                    for i in range(3):
                        others = set(tri[(i + 1) % 3]) | set(tri[(i + 2) % 3])
                        for v in tri[i]:
                            val = max(val, min(dist[v][w] for w in others))
                    if best is None or val < best:
                        best = val
        worst = max(worst, best)
    return worst


# ---------------------------------------------------------------------------
# Circuits and fineness
# ---------------------------------------------------------------------------


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
    if max_len < 3:
        return []
    found = set()
    # simple paths from v back to u of length <= max_len - 1, avoiding e
    path = [v]
    on_path = {v}

    def walk(w):
        if len(path) > max_len - 1:
            return
        for x in g.neighbors(w):
            if x == u and w != v:
                found.add(_canonical_circuit(tuple(path) + (u,)))
                continue
            if x in on_path or x == u:
                continue
            path.append(x)
            on_path.add(x)
            walk(x)
            on_path.discard(x)
            path.pop()

    walk(v)
    return sorted(found)


def fineness_profile(g: Graph, max_len: int) -> dict:
    """Max number of circuits of each length <= max_len through any edge."""
    per_len = {k: 0 for k in range(3, max_len + 1)}
    for e in sorted(g.edges):
        counts = {}
        for circ in circuits_through_edge(g, e, max_len):
            counts[len(circ)] = counts.get(len(circ), 0) + 1
        for k, c in counts.items():
            per_len[k] = max(per_len[k], c)
    return per_len


# ---------------------------------------------------------------------------
# Barycentric subdivision
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subdivision:
    """First barycentric subdivision with vertex classes.

    The subdivided graph measures in half-units: two hops per original
    edge.  Original vertices keep their ids (class "V"); each original edge
    e gets a midpoint vertex (class "V_E").
    """

    graph: Graph
    classes: dict
    midpoint_of_edge: dict
    edge_of_midpoint: dict
    original: Graph

    def ve_vertices(self):
        return tuple(sorted(self.edge_of_midpoint))

    def v_vertices(self):
        return tuple(range(self.original.vertex_count))

    def is_midpoint(self, v):
        return v in self.edge_of_midpoint


def barycentric_subdivision(g: Graph) -> Subdivision:
    n = g.vertex_count
    mids = {}
    edges = []
    for i, e in enumerate(sorted(g.edges)):
        m = n + i
        mids[e] = m
        edges.append((e[0], m))
        edges.append((e[1], m))
    sub = make_graph(n + len(mids), edges, cone_vertices=g.cone_vertices,
                     labels=g.labels, warn_adjacent_cones=g.cone_adjacency_warning)
    classes = {v: "V" for v in range(n)}
    classes.update({m: "V_E" for m in mids.values()})
    inv = {m: e for e, m in mids.items()}
    return Subdivision(sub, classes, dict(mids), inv, g)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def graph_to_dot(g: Graph, name="g") -> str:
    lines = ["graph %s {" % name]
    for v in g.vertices:
        attrs = []
        if v in g.cone_vertices:
            attrs.append('shape=doublecircle')
        if v in g.labels:
            attrs.append('label="%s"' % g.labels[v])
        lines.append("  %d%s;" % (v, (" [" + ", ".join(attrs) + "]") if attrs else ""))
    for (u, v) in sorted(g.edges):
        lines.append("  %d -- %d;" % (u, v))
    lines.append("}")
    return "\n".join(lines) + "\n"


def dag_to_dot(dag: GeodesicDag, name="dag") -> str:
    lines = ["digraph %s {" % name]
    for u, w in dag.edges():
        lines.append("  %d -> %d;" % (u, w))
    lines.append("}")
    return "\n".join(lines) + "\n"
