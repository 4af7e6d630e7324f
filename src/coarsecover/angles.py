"""Angle sets on finite graphs and everything built from them.

An angle is an unordered pair of edges sharing a vertex (the apex).  An
angle set holds an exit mask per vertex v and neighbour: bit j of v's i-th
mask is set when the angle of the edges to v's i-th and j-th neighbours,
in neighbors(v) order, is in the set.  Trivial angles (an edge paired with
itself, i = j) are in every angle set.  Triples (u, apex, w) name angles
only where documents are read and written.

A size for angles is a group-invariant angle set.  Geodesics all of whose
internal angles lie in a size Theta are Theta-small; length <= 1 geodesics
are always small.  On a barycentric subdivision only angles at original
(class "V") vertices are inspected; a midpoint has valency 2 and its one
angle never counts against smallness.  barycentric_subdivision numbers the
midpoints in sorted edge order, so those at an original vertex v come in
the order of v's neighbours: a size's masks serve on the subdivision too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce
from itertools import chain, combinations, islice, repeat
from operator import ne, or_

from .graphs import (
    INF,
    CapExceeded,
    DistanceRows,
    GeodesicIndex,
    Graph,
    GraphFormatError,
    Subdivision,
    bfs_row,
    biconnected_blocks,
    block_rows,
    geodesic_steps,
    make_graph,
    parse_document,
)
from .symmetry import GroupModel


def canonical_angle(u, apex, w):
    return (u, apex, w) if u <= w else (w, apex, u)


def _through(x, rows):
    """The OR of rows[j] over the bits j of x."""
    out = 0
    while x:
        low = x & -x
        out |= rows[low.bit_length() - 1]
        x ^= low
    return out


@cache
def _unit(degree):  # the masks at a vertex of that degree with no angle
    return tuple(1 << i for i in range(degree))


@cache
def _full(degree):  # and with every angle
    return ((1 << degree) - 1,) * degree


@dataclass(frozen=True)
class AngleSet:
    """A set of angles of one graph as exit masks (see the module
    docstring): rows[v][i] has bit j when the angle of v's i-th and j-th
    neighbours is in the set, and bit i always.

    The graph is the one whose edges are paired; for a subdivision, the
    original graph.  A mask names only neighbours, so every angle is
    realized by two edges at its apex; angle_set_from_triples checks that
    where outside triples become a size.  nontrivial derives the canonical
    triples (u, apex, w), u < w, for documents and reports.
    """

    graph: Graph
    rows: tuple

    def contains(self, u, apex, w) -> bool:
        """Whether the angle of the edges apex-u and apex-w is in the set."""
        at = self.graph.neighbors(apex).index  # a neighbour's place
        return u == w or self.rows[apex][at(u)] >> at(w) & 1 == 1

    def union(self, other) -> "AngleSet":
        self._check_base(other)
        if not len(other):
            return self
        return AngleSet(self.graph, tuple(
            x if x == y else tuple(map(or_, x, y))
            for x, y in zip(self.rows, other.rows)))

    def _check_base(self, other):
        if other.graph is not self.graph and other.graph != self.graph:
            raise ValueError("angle sets live on different graphs")

    def is_invariant(self, G: GroupModel) -> bool:
        return self.saturate(G) == self

    def saturate(self, G: GroupModel) -> "AngleSet":
        """The least G-invariant angle set containing this one: each row's
        images along the generators, again whenever a row grows, which is
        the union over every element (see the symmetry module)."""
        if not G.generators:
            return self  # the trivial group moves no angle
        g, rows = self.graph, list(self.rows)
        # the vertices with an angle; the queue grows while it is walked
        queue = [v for v, row in enumerate(rows) if row != _unit(len(row))]
        for v in queue:
            for p in G.generators:
                # v's one angle goes to w's when v has two neighbours or
                # fewer, else p carries v's i-th neighbour to bit to[i] at w
                w, grown = p[v], rows[v]
                if len(grown) > 2:
                    to = [1 << g.neighbors(w).index(p[u])
                          for u in g.neighbors(v)]
                    image = [0] * len(to)
                    for t, x in zip(to, rows[v]):
                        image[t.bit_length() - 1] = _through(x, to)
                    grown = tuple(map(or_, rows[w], image))
                if grown != rows[w]:
                    rows[w] = grown
                    queue.append(w)
        return AngleSet(g, tuple(rows))

    @cached_property
    def nontrivial(self) -> frozenset:
        return frozenset(
            (nbrs[i], v, nbrs[j]) for v, row in enumerate(self.rows)
            for nbrs in (self.graph.neighbors(v),) for i, x in enumerate(row)
            for j in range(i + 1, len(nbrs)) if x >> j & 1)

    @cached_property
    def _size(self):
        # each angle sets two bits, and each edge sets one bit at each end
        return sum(map(int.bit_count, chain.from_iterable(self.rows))) // 2 \
            - len(self.graph.edges)

    def __len__(self):
        return self._size

    def __le__(self, other):
        self._check_base(other)
        masks = list(chain.from_iterable(other.rows))
        return masks == list(map(or_, chain.from_iterable(self.rows), masks))


def trivial_only(g: Graph) -> AngleSet:
    return AngleSet(g, tuple(map(_unit, map(len, map(g.neighbors,
                                                     g.vertices)))))


def all_angles(g: Graph) -> AngleSet:
    return AngleSet(g, tuple(map(_full, map(len, map(g.neighbors,
                                                     g.vertices)))))


def angle_set_from_triples(g: Graph, triples) -> AngleSet:
    """The size holding the triples (u, apex, w), in either order, a
    trivial one, u == w, left implicit.  This is the one path by which
    triples, as load_angleset and geodesic_angles give them, become a
    size, so an angle whose ends are not both joined to its apex by edges
    of g is a ValueError here (see AngleSet)."""
    rows = list(trivial_only(g).rows)
    for u, apex, w in {(u, a, w) for u, a, w in triples if u != w}:
        try:  # the places of u and w among apex's neighbours
            nbrs = g.neighbors(apex)
            i, j, row = nbrs.index(u), nbrs.index(w), list(rows[apex])
        except (KeyError, ValueError):
            raise ValueError("angle %r not realized by edges"
                             % ((u, apex, w),)) from None
        row[i], row[j] = row[i] | 1 << j, row[j] | 1 << i
        rows[apex] = tuple(row)
    return AngleSet(g, tuple(rows))


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
    """All angles (e, e'') split by some e' with (e,e') in a, (e',e'') in b:
    row i at an apex ORs b's rows over the bits of a's row i, and a's over
    b's, as angles are unordered.  It contains both summands (via trivial
    middle edges) and is group invariant whenever both summands are."""
    a._check_base(b)
    for s, t in ((a, b), (b, a)):
        if len(s) == a.graph.angle_count:
            return s  # every angle of the graph, and a sum holds no more
        if not len(s):
            return t  # trivial angles only, which add nothing to t

    def apex_sum(ra, rb):
        if len(ra) <= 2:  # each row the unit or full, the sum the greater
            return max(ra, rb)
        return tuple(_through(x, rb) | _through(y, ra)
                     for x, y in zip(ra, rb))

    return AngleSet(a.graph, tuple(map(apex_sum, a.rows, b.rows)))


def partial_sums(a: AngleSet):
    """The sums of 0, 1, 2, ... copies of a, each made from the one before
    on first read.  Once a sum adds nothing, every later sum is equal too,
    so that sum is repeated with no more work."""
    acc = AngleSet(a.graph, tuple(map(_unit, map(len, a.rows))))  # trivial
    while True:
        yield acc
        nxt = angle_sum(acc, a)
        if nxt == acc:
            break
        acc = nxt
    yield from repeat(acc)


def k_fold_sum(a: AngleSet, k: int) -> AngleSet:
    """The sum of k copies of a, the k-th of its partial_sums."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return next(islice(partial_sums(a), k, None))


# ---------------------------------------------------------------------------
# Smallness of geodesics
# ---------------------------------------------------------------------------


class SmallnessOracle:
    """The small turns of a graph or a subdivision, as neighbour bitmasks.

    exits[v][i] has bit j when the turn from the i-th to the j-th
    neighbour of v (in neighbors(v) order) is small: at an original vertex
    that is theta.rows[v][i], on a subdivision too (see the module
    docstring), and at a midpoint every bit is set.
    links[v][j] is (w, the bit of v among w's neighbours) for the j-th
    neighbour w of v, so a step v -> w is recorded at w without a search.
    The sweeps only combine masks.  split[v] is True when some turn at v
    is large, that is, some exit mask of v lacks a bit.  size is theta,
    the size whose turns are decided.
    """

    def __init__(self, base, theta: AngleSet):
        g, original = (base.graph, base.original) \
            if isinstance(base, Subdivision) else (base, base)
        if theta.graph != original:
            raise ValueError("theta must pair edges of the graph, or of the "
                             "original graph of a subdivision")
        # the midpoints, if any, are numbered after the original vertices
        self.size, rows = theta, theta.rows
        midpoints = g.vertex_count - len(rows)
        self.exits = list(map(list, rows)) + [[3, 3]] * midpoints
        self.split = list(map(ne, rows, map(_full, map(len, rows)))) \
            + [False] * midpoints
        # w ascending appends to links[v] in neighbors(v) order, which is
        # sorted
        self.links = links = [[] for _ in g.vertices]
        for w in g.vertices:
            for j, v in enumerate(g.neighbors(w)):
                links[v].append((w, 1 << j))


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
    when theta.contains(*angle).  A disconnected pair is a ValueError.
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
        # the far ends of the steps' original edges, in the same order
        nbrs = g.neighbors(w)
        ends = nbrs if sub is None else sub.original.neighbors(w)
        ss = [(s, x) for s, x in zip(nbrs, ends) if db[s] == db[w] - 1]
        for p, u in zip(nbrs, ends):
            if da[p] == da[w] - 1:
                for s, x in ss:
                    yield w, p, s, canonical_angle(u, w, x)


def geodesic_angles(index: GeodesicIndex, sub: Subdivision, pairs) -> AngleSet:
    """Every angle at which some a -> b geodesic of the subdivision turns,
    over the given (a, b) pairs, as an angle set of the original graph."""
    return angle_set_from_triples(sub.original, (
        angle for a, b in pairs
        for *_, angle in geodesic_turns(index, sub, a, b)))


def small_steps(oracle: SmallnessOracle, x, radius):
    """(into, reach): the last steps of the small geodesics from x of
    length at most radius, and the steps that may follow them, as
    neighbour bitmasks per vertex.

    into[v] has bit i when some small geodesic x -> v ends with the step
    from v's i-th neighbour; reach[v] is the OR of oracle.exits[v][i] over
    those i, the steps out of v that some small geodesic x -> v turns into
    smally, with every bit set at x, where nothing turns.  One sweep from x
    in BFS order, which finds each vertex's layer itself.  Every prefix of
    a geodesic is a geodesic, so a small geodesic x -> w ending v -> w is a
    small geodesic x -> v followed by the step v -> w with a small turn at
    v, which is the bit of w in reach[v].  BFS order settles into[v], and
    so reach[v], before the steps out of v are tried.  into[v] is 0 for
    v = x, for v unreachable from x and for v farther than radius; within
    radius, a small geodesic x -> v exists exactly when into[v] is nonzero.

    The sweep stops after layer radius (INF for none), or after a layer
    that no small geodesic reaches, as then none reaches a later one.  A
    vertex no small geodesic reaches only advances the layers.
    """
    exits, links = oracle.exits, oracle.links
    n = len(exits)
    # dist[w] is n, beyond every layer, until w has one
    dist, into, reach = [n] * n, [0] * n, [0] * n
    dist[x], reach[x] = 0, (1 << len(exits[x])) - 1
    layer, d, small = [x], 0, True
    while small and d < radius:
        reached, d, small = [], d + 1, False
        for u in layer:
            r = reach[u]
            for w, bit in links[u]:
                dw = dist[w]
                if dw >= d:
                    if dw > d:
                        dist[w] = d
                        reached.append(w)
                    if r & 1:
                        into[w] |= bit
                r >>= 1
        for w in reached:
            m, ex, r = into[w], exits[w], 0
            small = small or m != 0
            while m:
                low = m & -m
                r |= ex[low.bit_length() - 1]
                m ^= low
            reach[w] = r
        layer = reached
    return into, reach


def small_lines(oracle: SmallnessOracle, a, targets, weight):
    """For each b in targets other than a, the OR of weight[w] over the
    vertices w on small a -> b geodesics (0 when there is none); with
    weight[w] = 1 << w it is the bitmask of those vertices.

    One sweep from a in BFS order, which finds each vertex's layer itself.
    A small geodesic a -> w ending v -> w is a small geodesic a -> v,
    ending some u -> v, followed by the step v -> w with a small turn
    u -> v -> w (every prefix of a geodesic is a geodesic), and every such
    concatenation is one.  So the set of the vertices on small a -> w
    geodesics ending v -> w is {w} joined with the sets of the steps
    u -> v turning smally into w, the step a -> w holding a and w; BFS
    order settles every step into v before the steps out of v.  The line
    of b is the union over the steps into b, and a step v -> w into which
    every step u -> v turns smally carries v's whole line: at a vertex
    with no large turn (not oracle.split) every step out does, so only a
    split vertex keeps the ORs of the steps into it.  OR distributes over
    these unions, so each step carries the OR of the weights of its set in
    place of the set.  Angles are unordered, so a reversed small geodesic
    is small and the line of (a, b) is the line of (b, a).

    The sweep stops once every target has its layer, as later layers hold
    no step into a target, or once a layer has no vertex that a small
    geodesic reaches: every prefix of a geodesic is a geodesic, so no
    later vertex is reached either.  A vertex no small geodesic reaches
    only advances the layers.
    """
    exits, links, split = oracle.exits, oracle.links, oracle.split
    n = len(exits)
    # dist[w] is n, beyond every layer, until w has one; small counts the
    # vertices of the newest layer that small geodesics reach; ends[w], for
    # a split w, maps the bit of v among w's neighbours to the OR of the
    # step v -> w, into[w] ORs those bits and line[w] those ORs; exits are
    # symmetric, so exits[v][j] has the bits of the steps into v turning
    # smally into v's j-th step, and -1 admits every step
    dist, into, line = [n] * n, [0] * n, [0] * n
    dist[a], into[a], line[a] = 0, -1, weight[a]
    ends = {a: {-1: weight[a]}}
    layer, d, small, found = [a], 0, 1, 0
    while small:
        while found < len(targets) and dist[targets[found]] <= d:
            found += 1
        if found == len(targets):
            break
        reached, d, small = [], d + 1, 0
        for v in layer:
            iv = into[v]
            if not iv:
                for w, _ in links[v]:
                    if dist[w] > d:
                        dist[w] = d
                        reached.append(w)
            elif split[v]:
                steps, lv = ends[v], line[v]
                for (w, bit), x in zip(links[v], exits[v]):
                    dw = dist[w]
                    if dw < d:
                        continue
                    if dw > d:
                        dist[w] = d
                        reached.append(w)
                    if x & iv:
                        m = weight[w]
                        if iv & ~x:  # some step into v turns largely into w
                            for ub, um in steps.items():
                                if x & ub:
                                    m |= um
                        else:
                            m |= lv
                        if not into[w]:
                            small += 1
                        into[w] |= bit
                        line[w] |= m
                        if split[w]:
                            ends.setdefault(w, {})[bit] = m
            else:  # every step out of v carries v's whole line
                lv = line[v]
                for w, bit in links[v]:
                    dw = dist[w]
                    if dw < d:
                        continue
                    m = lv | weight[w]
                    if dw > d:  # the first step into w
                        dist[w], into[w], line[w] = d, bit, m
                        reached.append(w)
                        small += 1
                    else:
                        if not into[w]:
                            small += 1
                        into[w] |= bit
                        line[w] |= m
                    if split[w]:
                        ends.setdefault(w, {})[bit] = m
        layer = reached
    return {b: line[b] for b in targets if b != a}


def cone_sweep(index: GeodesicIndex, oracle: SmallnessOracle, x, targets):
    """(clean, large): clean[v] is True when every x -> v geodesic is
    small; large[a] has bit y, for y in the bitmask targets, when some
    x -> y geodesic turns large at a.  A sweep from x in BFS order, and one
    back unless targets is 0.  Every prefix of a geodesic is one, so v is
    clean exactly when each predecessor u of v (one step nearer x) is clean
    and turns smally into v from each of its own predecessors, the bits
    pm[u]: pm[u] & ~exits[u][j] == 0 for v u's j-th neighbour.  desc[s] has
    the targets y with d(x, y) = d(x, s) + d(s, y); large[a] ORs desc[s]
    over the successors s of a into which some predecessor turn is large.
    """
    dx, exits, links = index.dist[x], oracle.exits, oracle.links
    pm, desc, large = [0] * len(exits), [0] * len(exits), [0] * len(exits)
    clean = [True] * len(exits)
    layers, layer = [], [x]
    while layer:
        layers.append(layer)
        reached, d = [], len(layers)
        for u in layer:
            p, ok = pm[u], clean[u]
            for (w, bit), ex in zip(links[u], exits[u]):
                if dx[w] == d:
                    if not pm[w]:
                        reached.append(w)
                    pm[w] |= bit
                    clean[w] &= ok and not p & ~ex
        layer = reached
    while targets and layers:
        for a in layers.pop():
            m, p = 1 << a & targets, pm[a]
            for (s, _), ex in zip(links[a], exits[a]):
                if dx[s] == len(layers) + 1:
                    m |= desc[s]
                    if p & ~ex:
                        large[a] |= desc[s]
            desc[a] = m
    return clean, large


# ---------------------------------------------------------------------------
# Theta^(3): angles seen at triangle corners whose opposite side misses them
# ---------------------------------------------------------------------------


def theta3(base, index: GeodesicIndex, pair_cap: int = 2_000_000,
           group: GroupModel = None) -> AngleSet:
    """All angles realized at a triangle corner avoided by the third side.

    For a subdivision, apexes run over original vertices and corners over
    all subdivision vertices; the returned set pairs original edges.
    pair_cap bounds the corner pairs of the whole graph.  Given a group
    acting on the original graph, apexes run over the least vertex of each
    orbit and the result is closed under the group: automorphisms preserve
    distances and geodesics, so the angles at p.v are the p-images of the
    angles at v.  The set is kept in index.memo by reading and group.

    The set is the union over the biconnected blocks that hold a cycle
    (see biconnected_blocks; a block of a subdivision is the subdivision
    of a block of the original graph).  A block is isometric, so one that
    misses a vertex of the graph is measured on its block_rows, which
    never leave it, and one that holds every vertex on index.dist, whose
    rows later readers of the index share.  If the first steps from apex
    v toward corners p and q go into different blocks, v is a cut vertex
    on every p-q geodesic and makes no angle.  If both go into block B,
    the p-q geodesics pass the gates of p and q in B, so one avoids v
    exactly when v does not dominate q's gate in the geodesic DAG from p's
    gate (see geodesic_dominators).  A bridge makes no angle, but a
    triangle does.
    """
    if isinstance(base, Subdivision):
        sub, g, original = base, base.graph, base.original
    else:
        sub, g, original = None, base, base
    if group is not None and group.graph != original:
        raise ValueError("the group must act on the original graph")
    if g.vertex_count * g.vertex_count > pair_cap:
        raise CapExceeded("corner pair count exceeds cap")
    if index.graph != g:
        raise ValueError("the index must be of the graph measured")
    key = ("theta3", sub is None, None if group is None else group.generators)
    if key not in index.memo:
        rows = list(trivial_only(original).rows)
        for vs, es in biconnected_blocks(original):
            apexes = vs if group is None else [
                v for v in vs if all(p[v] >= v for p in group.elements)]
            if sub is not None:  # the subdivided block: its edges' halves
                mids = [sub.midpoint_of_edge[e] for e in es]
                vs, es = sorted(vs + mids), [
                    (x, m) for e, m in zip(es, mids) for x in e]
            _corner_angles(g, block_rows(g, vs, es, index.dist), apexes, vs,
                           rows)
        t3 = AngleSet(original, tuple(rows))
        index.memo[key] = t3 if group is None else t3.saturate(group)
    return index.memo[key]


def geodesic_dominators(g: Graph, dp, vertices, bit):
    """below[v]: the OR of bit[q] over the q in vertices for which v lies
    on every p -> q geodesic, with dp the distance row of p.  vertices
    holds p and every geodesic from p to its vertices, as a component or
    a block does (see biconnected_blocks); below is indexed like bit.

    The geodesics from p are the paths of the DAG of the steps u -> q with
    dp[u] = dp[q] - 1, so v lies on every p -> q geodesic exactly when v
    dominates q.  A sweep in BFS order (Cooper, Harvey and Kennedy 2001)
    takes for q's immediate dominator the meeting point of the dominator
    chains of its predecessors, climbing from the one farther from p, and
    a sweep back ORs each vertex's mask into its dominator's.
    """
    order = sorted(vertices, key=dp.__getitem__)
    idom = [order[0]] * len(bit)
    for q in order[1:]:
        d, a = dp[q] - 1, -1
        for u in g.neighbors(q):
            if dp[u] == d:
                while 0 <= a != u:
                    if dp[a] < dp[u]:
                        u = idom[u]
                    else:
                        a = idom[a]
                a = u
        idom[q] = a
    below = [0] * len(bit)
    for q in reversed(order):
        below[q] |= bit[q]
        below[idom[q]] |= below[q]
    return below


def _corner_angles(g, dist, apexes, corners, rows):
    """Add theta3's angles at the apexes of one block, with corners its
    vertices in g, to rows, an angle set's masks."""
    # corner q is bit[q], 1 << its place in corners; below[i][v] has the
    # corners q with v on every corners[i] -> q geodesic
    bit = [0] * g.vertex_count
    for i, q in enumerate(corners):
        bit[q] = 1 << i
    below = [geodesic_dominators(g, dist[p], corners, bit) for p in corners]
    for v in apexes:
        # The side p-q avoids v unless v lies on every p-q geodesic.  Per
        # step v -> w into the block, reach has the corners q with w a first
        # step toward q, and avoid the corners joined to one of those by a
        # geodesic avoiding v; steps w, w' make an angle exactly when
        # avoid(w) meets reach(w'), which is symmetric in w and w'.
        dv, steps, missed = dist[v], [], [~col[v] for col in below]
        for i, w in enumerate(g.neighbors(v)):
            if bit[w]:
                dw, reach, avoid = dist[w], 0, 0
                for q, m in zip(corners, missed):
                    if dw[q] < dv[q]:
                        reach |= bit[q]
                        avoid |= m
                steps.append((i, reach, avoid))
        row = list(rows[v])
        for (i, _, avoid), (j, reach, _) in combinations(steps, 2):
            if avoid & reach:
                row[i], row[j] = row[i] | 1 << j, row[j] | 1 << i
        rows[v] = tuple(row)


def theta3_circuit_bound_check(g: Graph, theta3set: AngleSet, delta: int) -> dict:
    """Every nontrivial theta3 angle must sit on a circuit of length <= 16*delta.

    Hyperbolicity constants are positive integers by convention, so delta is
    raised to 1 when the measured slimness is 0 (trees are vacuous anyway,
    and graphs like K4 have slimness 0 with nontrivial theta3).

    The shortest circuit through (u, apex, w) has length 2 + d(u, w) in g
    without the apex: one BFS row per (apex, u).
    """
    delta_eff = max(1, int(delta))
    bound = 16 * delta_eff
    missing = []
    max_needed = 0
    cut = {}  # apex -> g without the apex's edges
    rows = {}  # (apex, u) -> the distances from u in cut[apex]
    for (u, apex, w) in sorted(theta3set.nontrivial):
        if (apex, u) not in rows:
            if apex not in cut:
                cut[apex] = make_graph(
                    g.vertex_count, [e for e in g.edges if apex not in e])
            rows[apex, u] = bfs_row(cut[apex], u)
        length = 2 + rows[apex, u][w]
        if length > bound:
            missing.append((u, apex, w))
        else:
            max_needed = max(max_needed, length)
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


def d_theta(sub: Subdivision, oracle: SmallnessOracle, radius):
    """The chain metric of oracle's size on the midpoints of sub, oracle
    being SmallnessOracle(sub, theta), and its balls of the given radius:
    (rows, balls).  rows maps each midpoint to a list by vertex, INF at
    the original vertices, filled on first read and read by midpoint, as
    GeodesicIndex.dist is; balls[v] is the bitmask of the midpoints within
    radius of v (0 at an original vertex), all made here.

    d(w, w') minimizes the summed graph length of chains of small-geodesic
    hops.  Any hop of length >= 2 passes an intermediate midpoint whose two
    halves are again small, so unit hops suffice: the path metric of the
    graph joining the i-th and j-th midpoints at an original vertex v when
    bit j of oracle.exits[v][i] is set, in original units.  A row is one
    BFS of it; the balls grow from the midpoints' own bits, one hop per
    unit of radius.
    """
    exits = oracle.exits
    if len(exits) != sub.graph.vertex_count:
        raise ValueError("the oracle must decide the turns of sub")
    hops = [[] for _ in exits]
    for v in sub.v_vertices():
        mids = sub.graph.neighbors(v)
        for i, x in enumerate(exits[v]):
            hops[mids[i]] += [w for j, w in enumerate(mids)
                              if x >> j & 1 and j != i]
    balls = [0] * len(exits)
    for w in sub.ve_vertices():
        balls[w] = 1 << w
    for _ in range(radius):
        balls = [reduce(or_, map(balls.__getitem__, ws), ball)
                 for ball, ws in zip(balls, hops)]
    return DistanceRows(hops), balls


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


def _joined_inside(index: GeodesicIndex, paths, v, v2):
    """Whether some v -> v2 geodesic uses only edges of the given paths: a
    BFS over those edges reaches v2 at the distance of the graph."""
    inside = make_graph(index.graph.vertex_count,
                        [e for path in paths for e in zip(path, path[1:])])
    return bfs_row(inside, v)[v2] == index.dist[v][v2]


def lemma_battery(g: Graph, theta0: AngleSet, trials: int, seed: int,
                  index: GeodesicIndex) -> BatteryReport:
    """Sample configurations satisfying the large-angle lemma hypotheses and
    assert the conclusions, on the rows and theta3 of index, an index of g,
    so a caller that sized theta0 from theta3(g, index=index) shares both.

    Conclusions are theorems for any hyperbolic graph, so a violation
    indicts the theta3 or geodesic machinery, not the sampled instance.
    All corners are vertices; endpoints on rays have no finite counterpart
    and configurations involving them are simply never sampled.  Questions
    about all geodesics are read off distance rows and dominators; a failing
    configuration is recorded once per conclusion it breaks.
    """
    rng = random.Random(seed)
    dist, bits = index.dist, [1 << v for v in g.vertices]
    t3 = theta3(g, index=index)
    _, _, t3_2, t3_3 = islice(partial_sums(t3), 4)
    x_pass = angle_sum(theta0, t3_2)
    x_trans = angle_sum(theta0, t3_3)
    tripod_bound = angle_sum(theta0, x_trans)
    transfer_pairs = [(th, angle_sum(th, x_trans))
                      for th in (theta0, t3, t3_2)]
    counters = {name: LemmaCounter() for name in (
        "geodesic_2_gons", "large_angles", "large_angles_in_triangles_no_c",
        "tripod", "large_angles_in_triangles", "geodesics_between_geodesics")}
    # the components of 2 or more vertices, ordered by their least vertex
    comps = sorted(c for c in {tuple(v for v, d in enumerate(dist[u]) if d < INF)
                               for u in g.vertices} if len(c) > 1)
    if not comps:
        return BatteryReport(counters)

    def sample_vertices(k):
        comp = comps[rng.randrange(len(comps))]
        return [rng.choice(comp) for _ in range(k)]

    @cache
    def dominated(a):
        # dominated(a)[v] has bit b when v lies on every a -> b geodesic
        return geodesic_dominators(
            g, dist[a], [v for v in g.vertices if dist[a][v] is not INF], bits)

    def on_every_geodesic(v, a, b):
        return dominated(a)[v] >> b & 1

    def angles_at(v, a, b):
        # the angles at v of the a -> b geodesics through v
        return {angle for *_, angle in geodesic_turns(index, None, a, b, at=v)}

    oracle_theta0 = SmallnessOracle(g, theta0)
    oracle_t3_2 = SmallnessOracle(g, t3_2)

    @cache
    def small_into(oracle, a):
        # into[b] is nonzero when some oracle-small a -> b geodesic exists
        return small_steps(oracle, a, INF)[0]

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
            # a t3-large internal angle forces every geodesic through it
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
                if not on_every_geodesic(path[i], xm, xp):
                    c.violations.append(("large_angles", xm, xp, path[i]))

        elif which == 2:
            # triangle with the large angle away from the opposite side
            xi, x1, x2 = sample_vertices(3)
            if len({xi, x1, x2}) < 2 or xi == x1:
                continue
            c = counters["large_angles_in_triangles_no_c"]
            c1 = _random_geodesic(index, xi, x1, rng)
            side = set(_random_geodesic(index, x1, x2, rng))
            for i in range(1, len(c1) - 1):
                v = c1[i]
                if v in side or x2 == v:
                    continue
                if x_pass.contains(*_angle_at(c1, i)):
                    continue
                c.checked += 1
                c.nonvacuous += 1
                if not on_every_geodesic(v, x2, xi):
                    c.violations.append(("no_c_pass", xi, x1, x2, v))
                if angles_at(v, x2, xi) & theta0.nontrivial:
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
            if not small_into(oracle_theta0, x1)[x2]:
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
                if not on_every_geodesic(v, x2, xi):
                    c.violations.append(("lait_pass", x1, x2, xi, v))
                if x_trans.contains(*a1):
                    continue
                a2s = angles_at(v, x2, xi)
                if any(th.contains(*a1) and not a2s <= th_x.nontrivial
                       for th, th_x in transfer_pairs):
                    c.violations.append(("lait_small", x1, x2, xi, v))
                if any(not th_x.contains(*a1) and a2s & th.nontrivial
                       for th, th_x in transfer_pairs):
                    c.violations.append(("lait_large", x1, x2, xi, v))

        else:
            # points on a 2-gon not joined inside it: a 2*t3-small connector
            xm, xp = sample_vertices(2)
            if xm == xp:
                continue
            c = counters["geodesics_between_geodesics"]
            ca = _random_geodesic(index, xm, xp, rng)
            cb = _random_geodesic(index, xm, xp, rng)
            v = rng.choice(ca)
            v2 = rng.choice(cb)
            if v == v2 or _joined_inside(index, (ca, cb), v, v2):
                continue
            c.checked += 1
            c.nonvacuous += 1
            if not small_into(oracle_t3_2, v)[v2]:
                c.violations.append(("between", xm, xp, v, v2))

    return BatteryReport(counters)
