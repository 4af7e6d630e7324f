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
    angle_count: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        adj = {}  # the vertices with an edge; the others get () below
        for (u, v) in self.edges:
            if u == v:
                raise GraphFormatError("self-loop at vertex %d" % u)
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise GraphFormatError("edge (%d,%d) out of range" % (u, v))
            if u > v:
                raise GraphFormatError("edge (%d,%d) not canonical" % (u, v))
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        for v in self.cone_vertices:
            if not (0 <= v < self.vertex_count):
                raise GraphFormatError("cone vertex %d out of range" % v)
        full = dict.fromkeys(range(self.vertex_count), ())
        full.update(zip(adj, map(tuple, map(sorted, adj.values()))))
        object.__setattr__(self, "_adj", full)
        object.__setattr__(self, "angle_count", sum(  # edge pairs at a vertex
            len(ws) * (len(ws) - 1) // 2 for ws in adj.values()))

    @property
    def vertices(self):
        return range(self.vertex_count)

    def neighbors(self, v):
        return self._adj[v]

    def cone_vertices_adjacent(self):
        cones = self.cone_vertices
        return sorted((u, v) for (u, v) in self.edges
                      if u in cones and v in cones)

    def require_cone_separation(self):
        """Cone operations assume no two cone vertices are adjacent."""
        bad = self.cone_vertices_adjacent()
        if bad:
            raise GraphFormatError("adjacent cone vertices: %s" % (bad,))

    def is_connected(self):
        return self.vertex_count <= 1 or INF not in bfs_row(self, 0)


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
    ``cone_vertices`` (list), optional ``labels`` (map from the decimal id
    of a vertex to a string).
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
    ids = {str(v): v for v in range(n)} if labels else {}
    for k, label in labels.items():
        if str(k) not in ids:
            raise GraphFormatError("label key %r names no vertex" % (k,))
        if not isinstance(label, str):
            raise GraphFormatError("label of vertex %s must be a string" % k)
    return make_graph(n, edges, cones,
                      {ids[str(k)]: label for k, label in labels.items()})


# ---------------------------------------------------------------------------
# Distances and geodesics
# ---------------------------------------------------------------------------


def bfs_row(g, source):
    """The hop distances from source in g, a Graph or an adjacency (the
    neighbours of each vertex 0..n-1, by vertex); unreachable vertices map
    to math.inf."""
    adj = g._adj if isinstance(g, Graph) else g
    dist = [INF] * len(adj)
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if dist[w] is INF:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


class DistanceRows(dict):
    """Hop distance rows by source vertex of g, a Graph or an adjacency,
    each one bfs_row run on first read; iterating raises TypeError, as it
    would see only rows filled."""

    def __init__(self, g):
        self.graph = g

    def __missing__(self, source):
        row = self[source] = bfs_row(self.graph, source)
        return row

    def __iter__(self):
        raise TypeError("distance rows are read by vertex, not iterated")


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


class GeodesicIndex:
    """The distance rows of one graph, dist[u] filled on first read.

    The rows dist[a] and dist[b] answer every question about the a -> b
    geodesics: their steps (geodesic_steps) and their turns
    (angles.geodesic_turns).

    memo keeps, by value, facts that several callers read (theta3, the Rips
    relation); it dies with the index, made per verdict, not per Graph.
    """

    def __init__(self, g: Graph):
        self.graph = g
        self.dist = DistanceRows(g)
        self.memo = {}

    def dag(self, u, v):
        # perfbench's tracer patches it by name (ROADMAP item 2)
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
    """delta, and witness_triangle found on each read: the first triple, in
    combinations order, of defect delta, or (0, 0, 0) at delta 0.  It can
    span blocks, so each read runs a new whole-graph scan, which sweeps
    only the endpoints of the sides it reads, those at least 2 * delta
    long."""

    delta: int
    graph: Graph = field(repr=False, compare=False)
    dist: object = field(repr=False, compare=False)

    @property
    def witness_triangle(self):
        if self.delta == 0:
            return (0, 0, 0)
        return _DefectScan(self.graph, self.dist).witness(self.delta)


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


class _DefectScan:
    """The slimness defects of one connected graph, read off its maximin
    columns.

    The defect of v on side p-q of the triangle p, q, r is
    min(m(p,r)[v], m(q,r)[v]): how far v stays from the adversarial sides
    p-r and q-r.  Sets of third corners r are byte masks, byte r 0 or 1.
    A defect on side p-q is at most d(p,q) // 2, so both scans take the
    sides longest first and end at the first side too short to matter.
    A side reads only its two endpoints' columns and masks, so each
    endpoint's columns are swept on first read, and its masks at the
    current threshold are made on first read and dropped when the
    threshold moves: a scan sweeps only the endpoints it reads.
    """

    def __init__(self, g: Graph, dist):
        n = self.n = g.vertex_count
        self.graph = g
        self.dist = dist
        self.cols = [None] * n
        self.corner = [1 << 8 * r for r in range(n)]
        self.pairs = sorted(combinations(range(n), 2),
                            key=lambda pq: -dist[pq[0]][pq[1]])

    def columns(self, x):
        cols = self.cols[x]
        if cols is None:
            cols = self.cols[x] = _maximin_columns(self.graph, self.dist, x)
        return cols

    def above(self, t):
        # byte r of mask(x)[v] is 1 iff m(x, r)[v] > t
        self.t = t
        self.masks = [None] * self.n

    def mask(self, x):
        masks = self.masks[x]
        if masks is None:
            masks = self.masks[x] = [
                int.from_bytes(bytes(map(self.t.__lt__, col)), "little")
                for col in self.columns(x)]
        return masks

    def side(self, p, q):
        dp, dq = self.dist[p], self.dist[q]
        return compress(range(self.n),
                        map(eq, map(add, dp, dq), repeat(dp[q])))

    def thirds(self, p, q):
        # the corners r for which some v on side p-q has a defect above the
        # masks' threshold
        mp, mq = self.mask(p), self.mask(q)
        found = 0
        for v in self.side(p, q):
            found |= mp[v] & mq[v]
        found &= ~(self.corner[p] | self.corner[q])
        return [r for r in range(self.n) if found >> 8 * r & 1] if found else []

    def delta(self, floor):
        """The largest defect, or floor if no defect exceeds it."""
        delta = floor
        self.above(delta)
        for p, q in self.pairs:
            if self.dist[p][q] <= 2 * delta + 1:
                break
            rs = self.thirds(p, q)
            if rs:
                cp, cq = self.columns(p), self.columns(q)
                delta = max(min(cp[v][r], cq[v][r])
                            for v in self.side(p, q) for r in rs)
                self.above(delta)
        return delta

    def witness(self, delta):
        """The least triple, in combinations order, with a side of defect
        delta (the largest defect, at least 1); for one side p < q, the
        least such triple has the least third corner."""
        self.above(delta - 1)
        triples = []
        for p, q in self.pairs:
            if self.dist[p][q] < 2 * delta:
                break
            triples += [tuple(sorted((p, q, r)))
                        for r in self.thirds(p, q)[:1]]
        return min(triples)


def biconnected_blocks(g: Graph):
    """The biconnected blocks of g that hold a cycle, each as (vertices,
    edges) with the vertices sorted and the edges canonical, in no fixed
    block order.  A block is the subgraph its vertices induce; a block of
    one edge, a bridge, holds no cycle and is left out, as is an isolated
    vertex, so every block returned has at least 3 vertices.

    Every geodesic between two vertices of a block stays in the block, so
    a block is an isometric subgraph with the global distances, and
    slimness_constant and theta3, with its geodesic dominators, work block
    by block, on rows of the block alone (theta3's block_rows, slimness's
    relabelled block) or on the global rows cut down to it.  Their block
    arguments are arguments, not proofs; the oracle tests check them
    against full geodesic enumeration on blocks glued at cut vertices.

    One iterative Hopcroft-Tarjan pass: a depth-first search stacks each
    vertex it finds until the vertex joins a block, and when a child u of
    p has low(u) >= disc(p), no edge below u reaches above p, so p and the
    vertices stacked from u up are one block, a bridge when u is alone.
    low(u) may take disc(p) through the tree edge u-p, which leaves that
    test unchanged.  A block's edges are those its vertices induce.
    """
    adj = g._adj
    disc = [0] * g.vertex_count  # discovery time from 1; 0 is unvisited
    low = [0] * g.vertex_count
    blocks = []
    clock = 0
    for root in g.vertices:
        if disc[root]:
            continue
        clock += 1
        disc[root] = low[root] = clock
        found = []
        # (vertex, parent, neighbours left, vertices found before it)
        stack = [(root, -1, iter(adj[root]), 0)]
        while stack:
            u, parent, rest, mark = stack[-1]
            for w in rest:
                if not disc[w]:
                    clock += 1
                    disc[w] = low[w] = clock
                    stack.append((w, u, iter(adj[w]), len(found)))
                    found.append(w)
                    break
                if disc[w] < low[u]:
                    low[u] = disc[w]
            else:
                stack.pop()
                if parent < 0:
                    continue
                if low[u] < low[parent]:
                    low[parent] = low[u]
                if low[u] >= disc[parent]:
                    if len(found) > mark + 1:
                        vs = found[mark:] + [parent]
                        inside = set(vs)
                        blocks.append((sorted(vs), [
                            (a, b) for a in vs for b in adj[a]
                            if a < b and b in inside]))
                    del found[mark:]
    return blocks


def block_rows(g: Graph, vertices, edges, rows):
    """The distance rows that measure a block of g, given by its vertices
    and edges (or, on a subdivision, the halves of a block's edges): rows,
    g's own, when the block holds every vertex of g, and else the rows of
    the graph on g's vertex ids with only the block's edges, each bfs_row
    run on first read.  A block is isometric, so from a block vertex these
    are g's distances within the block, found by a search that never
    leaves it; a vertex off the block is at math.inf."""
    if len(vertices) == g.vertex_count:
        return rows
    return DistanceRows(make_graph(g.vertex_count, edges))


def slimness_constant(g: Graph, dist=None) -> SlimnessReport:
    """Minimal delta such that every geodesic triangle is delta-slim.

    Sides are chosen adversarially: for each vertex triple the three side
    geodesics maximizing the slimness defect are taken into account, so the
    result bounds all geodesic triangles of the graph.

    delta is the largest delta of the biconnected blocks, which are
    isometric (see biconnected_blocks): a geodesic triangle splits into a
    tripod along the block tree plus one triangle or bigon in each block
    it crosses.  A block of at most 3 vertices, an edge or a triangle, has
    slimness 0; the others are scanned one at a time, largest first, each
    relabelled 0..k-1 with the running maximum as the floor.  Given rows,
    the block is measured on them, cut down to it; given none, on the
    rows of the relabelled block itself, filled on first read by searches
    that never leave it, and the report gets rows of its own, filled only
    if the witness is read.  A connected graph with fewer edges than
    vertices is a tree, every block an edge, so delta is 0 with no block
    search.
    """
    if not g.is_connected():
        raise ValueError("slimness requires a connected graph")
    delta = 0
    if len(g.edges) >= g.vertex_count:
        for vs, es in sorted((b for b in biconnected_blocks(g)
                              if len(b[0]) > 3), key=lambda b: -len(b[0])):
            local = {v: i for i, v in enumerate(vs)}
            block = make_graph(len(vs), [(local[u], local[v]) for u, v in es])
            rows = DistanceRows(block) if dist is None else [
                [dist[u][v] for v in vs] for u in vs]
            delta = _DefectScan(block, rows).delta(delta)
    return SlimnessReport(delta, g, DistanceRows(g) if dist is None else dist)


# ---------------------------------------------------------------------------
# Circuits and fineness
# ---------------------------------------------------------------------------


def _closing_paths(g: Graph, u, v, max_len: int):
    """The simple paths from v, avoiding u, of at most max_len - 1 vertices
    that end at a neighbor of u other than v.

    With u each closes one embedded cycle through the edge uv, and each
    such cycle of length <= max_len is closed by exactly one of them: the
    cycle without the edge.  Depth-first, one tuple per path.
    """
    path, on_path = [v], {v}
    stack = [iter(g.neighbors(v))]
    while stack:
        for x in stack[-1]:
            if x == u:
                if len(path) > 1:
                    yield tuple(path)
            elif x not in on_path and len(path) < max_len - 1:
                path.append(x)
                on_path.add(x)
                stack.append(iter(g.neighbors(x)))
                break
        else:
            stack.pop()
            on_path.discard(path.pop())


def fineness_profile(g: Graph, max_len: int) -> dict:
    """Max number of circuits of each length <= max_len through any edge."""
    per_len = {k: 0 for k in range(3, max_len + 1)}
    for u, v in sorted(g.edges):
        counts = {}
        for p in _closing_paths(g, u, v, max_len):
            counts[len(p) + 1] = counts.get(len(p) + 1, 0) + 1
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


def graph_to_dot(g: Graph) -> str:
    lines = ["graph g {"]
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


def dag_to_dot(edges) -> str:
    lines = ["digraph dag {"]
    for u, w in edges:
        lines.append("  %d -> %d;" % (u, w))
    lines.append("}")
    return "\n".join(lines) + "\n"
