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
from array import array
from dataclasses import dataclass, field
from itertools import combinations, compress, repeat
from operator import add, eq

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
    _adj: dict = field(init=False, compare=False, repr=False)

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


def make_graph(n, edges, cone_vertices=(), labels=None):
    es = frozenset(canon_edge(u, v) for (u, v) in edges)
    return Graph(n, es, frozenset(cone_vertices), dict(labels or {}))


def parse_document(document):
    """A JSON document given as text or already parsed; malformed text is a
    GraphFormatError."""
    if not isinstance(document, str):
        return document
    try:
        return json.loads(document)
    except json.JSONDecodeError as e:
        raise GraphFormatError("malformed document: %s" % e) from None


def load_graph(document, cone_threshold=DEFAULT_CONE_THRESHOLD):
    """Parse a graph document (JSON text or dict).

    Schema: ``vertices`` (int), ``edges`` (list of [u, v]), optional
    ``cone_vertices`` (list), optional ``labels`` (map vertex -> string).
    When ``cone_vertices`` is absent, vertices of valency >= cone_threshold
    are marked as cone vertices.  Adjacent cone vertices are legal at load
    time (cone_vertices_adjacent lists them); cone and Rips operations
    refuse them.
    """
    doc = parse_document(document)
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise GraphFormatError("document must carry 'vertices' and 'edges'")
    n = doc["vertices"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
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
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError("edge %r out of range" % (pair,))
        if u == v:
            raise GraphFormatError("self-loop at vertex %r" % u)
        e = canon_edge(u, v)
        if e in seen:
            raise GraphFormatError("duplicate edge %r" % (e,))
        seen.add(e)
        edges.append(e)
    if doc.get("cone_vertices") is not None:
        cones = doc["cone_vertices"]
        if not isinstance(cones, (list, tuple)) or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in cones):
            raise GraphFormatError("'cone_vertices' must be a list of "
                                   "integers")
        cones = frozenset(cones)
    else:
        deg = {v: 0 for v in range(n)}
        for (u, v) in edges:
            deg[u] += 1
            deg[v] += 1
        cones = frozenset(v for v in range(n) if deg[v] >= cone_threshold)
    labels = doc.get("labels") or {}
    if not isinstance(labels, dict):
        raise GraphFormatError("'labels' must be an object")
    labels = {int(k): str(v) for k, v in labels.items()}
    return make_graph(n, edges, cones, labels)


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


def geodesic_counts(g: Graph, dist):
    """sigma[s][w]: the number of s-w geodesics (0 when disconnected).

    One pass per source in BFS order sums the counts of the predecessors
    (Brandes, J. Math. Sociol. 25, 2001); counts are exact integers.
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


def geodesic_steps(index, s, t, u):
    """The neighbours b of u, in neighbour order, for which u -> b is a
    step of an s -> t geodesic: d(s,b) = d(s,u) + 1 and d(b,t) = d(u,t) - 1.
    u must lie on an s -> t geodesic."""
    ds, dt = index.dist[s], index.dist[t]
    return [b for b in index.graph.neighbors(u)
            if ds[b] == ds[u] + 1 and dt[b] == dt[u] - 1]


def geodesic_dag(index, u, v):
    """The edges (a, b) of all u -> v geodesics, a ascending, then b in
    neighbour order.  A disconnected pair is a ValueError."""
    du, dv = index.dist[u], index.dist[v]
    if du[v] is INF:
        raise ValueError("vertices %d and %d are disconnected" % (u, v))
    return tuple((a, b) for a in index.graph.vertices if du[a] + dv[a] == du[v]
                 for b in geodesic_steps(index, u, v, a))


def enumerate_geodesics(index, u, v, cap: int):
    """All u -> v geodesics in lexicographic order; more than cap of them
    is CapExceeded."""
    out = []
    path = [u]

    def walk(a):
        if a == v:
            if len(out) >= cap:
                raise CapExceeded("more than %d geodesics" % cap)
            out.append(list(path))
            return
        for b in geodesic_steps(index, u, v, a):
            path.append(b)
            walk(b)
            path.pop()

    walk(u)
    return out


class GeodesicIndex:
    """The distance matrix of one graph.

    The rows dist[a] and dist[b] answer every question about the a -> b
    geodesics: their steps (geodesic_steps) and their turns
    (angles.geodesic_turns).
    """

    def __init__(self, g: Graph):
        self.graph = g
        self.dist = distance_matrix(g)

    def d(self, u, v):
        return self.dist[u][v]

    def dag(self, u, v):
        # kept only because perfbench's tracer patches it by name; it goes
        # with geodesic_dag's span in the benchmark revision (ROADMAP item 2)
        return geodesic_dag(self, u, v)

    def geodesic_vertex_set(self, u, v):
        """Vertices on at least one geodesic between u and v."""
        du, dv = self.dist[u], self.dist[v]
        total = du[v]
        if total is INF:
            raise ValueError("disconnected pair")
        return [w for w in self.graph.vertices
                if du[w] is not INF and du[w] + dv[w] == total]


# ---------------------------------------------------------------------------
# Slimness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlimnessReport:
    delta: int
    witness_triangle: tuple


def _maximin_columns(g: Graph, dist, x):
    """cols[v][y] = max over x-y geodesics c of min_{w in c} d(w, v).

    One sweep from x in BFS order of y: the row of y (over v) is the
    elementwise max of its predecessors' rows, the neighbours one step
    closer to x, capped by d(y, .).  The rows are returned as columns of
    unsigned 16-bit values; no graph the cubic slimness scan can handle has
    a distance of 2**16.
    """
    dx = dist[x]
    best = [None] * g.vertex_count
    best[x] = dist[x]
    for y in sorted(g.vertices, key=dx.__getitem__)[1:]:
        dy = dx[y] - 1
        rows = [best[u] for u in g.neighbors(y) if dx[u] == dy]
        top = rows[0] if len(rows) == 1 else list(map(max, *rows))
        best[y] = list(map(min, top, dist[y]))
    return [array("H", col) for col in zip(*best)]


def slimness_constant(g: Graph, dist=None) -> SlimnessReport:
    """Minimal delta such that every geodesic triangle is delta-slim.

    Sides are chosen adversarially: for each vertex triple the three side
    geodesics maximizing the slimness defect are taken into account, so the
    result bounds all geodesic triangles of the graph.  The witness is the
    first triple, in combinations order, whose defect is delta.
    """
    if not g.is_connected():
        raise ValueError("slimness requires a connected graph")
    if dist is None:
        dist = distance_matrix(g)
    # The defect of v on side p-q of the triangle p, q, r is
    # min(m(p,r)[v], m(q,r)[v]): how far v stays from the adversarial sides
    # p-r and q-r.  Sets of third corners r are byte masks, byte r 0 or 1.
    n = g.vertex_count
    cols = [_maximin_columns(g, dist, x) for x in range(n)]
    corner = [1 << 8 * r for r in range(n)]

    def above(t):
        # byte r of above(t)[x][v] is 1 iff m(x, r)[v] > t
        return [[int.from_bytes(bytes(map(t.__lt__, col)), "little")
                 for col in xcols] for xcols in cols]

    def side(p, q):
        dp, dq = dist[p], dist[q]
        return compress(range(n), map(eq, map(add, dp, dq), repeat(dp[q])))

    def thirds(masks, p, q):
        # the corners r for which some v on side p-q has a defect above the
        # masks' threshold
        mp, mq = masks[p], masks[q]
        found = 0
        for v in side(p, q):
            found |= mp[v] & mq[v]
        found &= ~(corner[p] | corner[q])
        return [r for r in range(n) if found >> 8 * r & 1] if found else []

    # A defect on side p-q is at most d(p,q) // 2: sides are taken longest
    # first, and the scan ends at the first side too short to raise delta.
    pairs = sorted(combinations(range(n), 2),
                   key=lambda pq: -dist[pq[0]][pq[1]])
    delta = 0
    masks = above(delta)
    for p, q in pairs:
        if dist[p][q] <= 2 * delta + 1:
            break
        rs = thirds(masks, p, q)
        if rs:
            cp, cq = cols[p], cols[q]
            delta = max(min(cp[v][r], cq[v][r])
                        for v in side(p, q) for r in rs)
            masks = above(delta)
    if delta == 0:
        return SlimnessReport(0, (0, 0, 0))
    # The witness is the least triple with a side of defect delta; for one
    # side p < q, the least such triple has the least third corner.
    masks = above(delta - 1)
    witness = None
    for p, q in pairs:
        if dist[p][q] < 2 * delta:
            break
        rs = thirds(masks, p, q)
        if rs:
            tri = tuple(sorted((p, q, rs[0])))
            if witness is None or tri < witness:
                witness = tri
    return SlimnessReport(delta, witness)


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
    """First barycentric subdivision.

    The subdivided graph measures in half-units: two hops per original
    edge.  Original vertices keep their ids (class "V"); each original edge
    e gets a midpoint vertex (class "V_E"), which is_midpoint recognizes.
    """

    graph: Graph
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
                     labels=g.labels)
    inv = {m: e for e, m in mids.items()}
    return Subdivision(sub, dict(mids), inv, g)


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
            label = g.labels[v].replace("\\", "\\\\").replace('"', '\\"')
            attrs.append('label="%s"' % label)
        lines.append("  %d%s;" % (v, (" [" + ", ".join(attrs) + "]") if attrs else ""))
    for (u, v) in sorted(g.edges):
        lines.append("  %d -- %d;" % (u, v))
    lines.append("}")
    return "\n".join(lines) + "\n"


def dag_to_dot(edges, name="dag") -> str:
    lines = ["digraph %s {" % name]
    for u, w in edges:
        lines.append("  %d -> %d;" % (u, w))
    lines.append("}")
    return "\n".join(lines) + "\n"
