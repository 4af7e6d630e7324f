"""Relative Rips complexes, their contraction procedure and homology.

A vertex set spans a simplex when every pair is joined by a small geodesic
of length at most d, so the complex is the clique complex of that pair
relation and is stored by maximal simplices.  The contraction walks a
finite subcomplex down to a single vertex by validated vertex folds; Betti
numbers over the rationals give the independent contractibility check
(homology_oracle).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress, count, islice

from .angles import AngleSet, SmallnessOracle, partial_sums, small_steps, \
    theta3
from .graphs import INF, CapExceeded, GeodesicIndex, Graph

FACE_CAP = 200000  # the most distinct simplices a face enumeration holds


@dataclass(frozen=True)
class SimplicialComplex:
    vertices: tuple
    maximal_simplices: tuple

    @property
    def dimension(self):
        if not self.maximal_simplices:
            return -1
        return max(len(s) for s in self.maximal_simplices) - 1

    def face_masks(self, cap):
        """(vs, masks): the sorted vertices of the maximal simplices, and
        every simplex once as the mask of its vertices' positions in vs,
        enumerated as the nonempty submasks of each maximal simplex's mask.
        CapExceeded is raised at the first simplex past cap."""
        vs = sorted(set().union(*self.maximal_simplices))
        bit = {v: i for i, v in enumerate(vs)}
        masks = set()
        for m in self.maximal_simplices:
            top = sub = sum(1 << bit[v] for v in m)
            while sub:
                masks.add(sub)
                if len(masks) > cap:
                    raise CapExceeded("more than %d simplices" % cap)
                sub = (sub - 1) & top
        return vs, masks

    def faces(self, cap):
        """Each dimension k mapped to the sorted list of the sorted
        (k+1)-tuples spanning a simplex, read off face_masks(cap)."""
        vs, masks = self.face_masks(cap)
        out = {}
        for m in masks:
            out.setdefault(m.bit_count() - 1, []).append(
                tuple(vs[i] for i in _bits(m)))
        return {k: sorted(ss) for k, ss in sorted(out.items())}


def _bits(mask):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _maximal_cliques(nbr, R, P, X, out):
    """Bron-Kerbosch with Tomita's pivot on neighbour bitmasks: append to
    out every maximal clique that extends R by vertices of P and meets no
    vertex of X.  The pivot u is the first vertex of P | X, lowest bit
    first, with the most neighbours in P; each such clique holds u or a
    non-neighbour of u, else u would extend it, so only the vertices of
    P - nbr[u] are branched on.  Both loops walk their bits inline, low =
    x & -x, as this runs at every node of the search."""
    if not P:
        if not X:
            out.append(R)
        return
    most, rest = -1, P | X
    while rest:
        low = rest & -rest
        rest ^= low
        k = (P & nbr[low.bit_length() - 1]).bit_count()
        if k > most:
            most, u = k, low
    branch = P & ~nbr[u.bit_length() - 1]
    while branch:
        low = branch & -branch
        branch ^= low
        near = nbr[low.bit_length() - 1]
        _maximal_cliques(nbr, R | low, P & near, X & near, out)
        P ^= low
        X |= low


def _clique_complex(vertices, near) -> SimplicialComplex:
    """The clique complex on vertices of a symmetric relation, given as
    near(v), the vertices other than v related to v (any vertex outside
    vertices is ignored)."""
    vs = sorted(vertices)
    bit = {v: i for i, v in enumerate(vs)}
    nbr = [sum(1 << bit[w] for w in near(v) if w in bit) for v in vs]
    masks = []
    if vs:  # with no vertex, the empty set would count as a maximal clique
        _maximal_cliques(nbr, 0, (1 << len(vs)) - 1, 0, masks)
    # vs is sorted and _bits ascends, so each clique's list is sorted
    maximal = sorted([vs[i] for i in _bits(m)] for m in masks)
    return SimplicialComplex(tuple(vs), tuple(map(frozenset, maximal)))


class SmallPairRelation:
    """The symmetric relation 'joined by a small geodesic of length <= d'.

    The vertices joined to u come from one small-step sweep from u bounded
    at d, taken on first use, which fills no distance row; the sweep from
    either end decides a pair, since a reversed small geodesic is small
    (see angles.small_lines).
    """

    def __init__(self, g: Graph, d, theta: AngleSet):
        self.d = d
        self.oracle = SmallnessOracle(g, theta)
        self._near = {}  # u -> the vertices other than u joined to it

    def near(self, u) -> frozenset:
        """The vertices other than u joined to u."""
        near = self._near.get(u)
        if near is None:
            into = small_steps(self.oracle, u, self.d)[0]
            # the w with into[w] nonzero
            near = self._near[u] = frozenset(compress(count(), into))
        return near

    def joined(self, u, v) -> bool:
        return u == v or v in self.near(u)


def _pair_relation(g: Graph, d, theta: AngleSet, index: GeodesicIndex):
    """The SmallPairRelation of g at (d, theta), kept in index.memo."""
    if index.graph != g:
        raise ValueError("the index must be of the graph measured")
    key = ("pairs", d, theta.rows)
    if key not in index.memo:
        index.memo[key] = SmallPairRelation(g, d, theta)
    return index.memo[key]


def build_rips(g: Graph, d, theta: AngleSet,
               index: GeodesicIndex) -> SimplicialComplex:
    """The relative Rips complex at scale d for the given size for angles,
    the clique complex of the relation kept on index (_pair_relation)."""
    g.require_cone_separation()
    return _clique_complex(g.vertices, _pair_relation(g, d, theta, index).near)


def complex_stats(P: SimplicialComplex) -> dict:
    """Dimension, simplex counts per dimension, and the largest number of
    simplices strictly containing any single simplex.  A simplex strictly
    containing s contains each vertex of s and is not that vertex, so the
    largest count is reached at a vertex: the simplices holding it, less
    the vertex itself.  Both counts are read off face_masks(FACE_CAP), by
    bit count and by bit."""
    masks = P.face_masks(FACE_CAP)[1]
    by_dim = Counter(m.bit_count() - 1 for m in masks)
    holding = Counter(i for m in masks for i in _bits(m))
    return {
        "dimension": P.dimension,
        "simplices_by_dim": dict(sorted(by_dim.items())),
        "total_simplices": len(masks),
        "max_coface_count": max(holding.values(), default=1) - 1,
    }


# ---------------------------------------------------------------------------
# Contraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Move:
    vertex: int
    replacement: int
    case: str
    measure_before: tuple
    measure_after: tuple


@dataclass(frozen=True)
class ContractionTrace:
    moves: tuple
    final_vertex: int
    basepoint: int


class ContractionError(RuntimeError):
    """A fold failed validation; this indicts the implementation."""


def _large_turn_depths(index: GeodesicIndex, small: AngleSet, v0):
    """(depth, witness): for each v reachable from v0, the largest distance
    from v0 of a vertex where some geodesic v0 -> v turns outside small,
    and the least vertex at it; 0 and None when there is none.

    One sweep from v0 in BFS order.  The geodesics v0 -> v are those
    v0 -> u, u a predecessor of v (one step closer to v0), followed by
    u -> v.  So u gives v its own pair, or (d(v0, u), u) when some turn
    p -> u -> v, p a predecessor of u, is large: u lies deeper than the
    turns before it.  v's pair is the largest its predecessors give, the
    greater depth and at equal depth the lesser vertex.
    """
    g, d0 = index.graph, index.dist[v0]
    depth, witness = [0] * g.vertex_count, [None] * g.vertex_count
    preds = {v0: ()}
    for v in sorted((v for v in g.vertices if d0[v] is not INF),
                    key=d0.__getitem__)[1:]:
        ps = preds[v] = [u for u in g.neighbors(v) if d0[u] == d0[v] - 1]
        for u in ps:
            large = any(not small.contains(p, u, v) for p in preds[u])
            du, wu = (d0[u], u) if large else (depth[u], witness[u])
            if du > depth[v] or du == depth[v] and du and wu < witness[v]:
                depth[v], witness[v] = du, wu
    return depth, witness


def _in_span(dist, K0: frozenset, w):
    """Whether w is in K0 or on a geodesic between two vertices of K0; a
    w in K0 reads no distance row."""
    if w in K0:
        return True
    dw = dist[w]
    return any(dw[u] + dw[v] == dist[u][v] for u, v in combinations(K0, 2))


class _FoldMeasure:
    """The measure (alpha, beta, a, b) of a vertex set K, kept as folds
    change K.

    alpha is the largest distance from v0 over K and a the number of
    vertices of K at it; beta is the largest large-angle depth over K and
    b the number of vertices of K at it, 0 when beta is 0.  Both are read
    off buckets of K, the vertices at each distance and at each depth, and
    a fold moves each vertex it moves between buckets.  A fold picks its
    vertex from the bucket at alpha or at beta.
    """

    def __init__(self, d0, depth, K):
        self.d0, self.depth = d0, depth
        self.at_dist, self.at_depth = {}, {}
        for v in K:
            self._add(v)

    def _keys(self, v):
        return (self.at_dist, self.d0[v]), (self.at_depth, self.depth(v))

    def _add(self, v):
        for buckets, key in self._keys(v):
            buckets.setdefault(key, set()).add(v)

    def fold(self, v, vt, K):
        """Move the fold of v in K to vt, before K itself changes."""
        for buckets, key in self._keys(v):
            bucket = buckets[key]
            bucket.remove(v)
            if not bucket:
                del buckets[key]
        if vt not in K:
            self._add(vt)

    def value(self):
        alpha, beta = max(self.at_dist), max(self.at_depth)
        return (alpha, beta, len(self.at_dist[alpha]),
                len(self.at_depth[beta]) if beta else 0)


def contract_subcomplex(K_vertices, g: Graph, d, theta: AngleSet, delta,
                        index: GeodesicIndex) -> ContractionTrace:
    """Fold a finite subcomplex down to its basepoint, validating each move.

    Hypotheses (checked): no two cone vertices are adjacent, d >= 4 * delta
    with delta a positive integer hyperbolicity constant (slimness 0 is
    raised to 1, matching the standing convention that the constant is
    positive), and theta contains the sevenfold corner size.  Every fold
    (v -> v~) is validated against four clauses: a small short geodesic
    joins v and v~; the neighbors of v in K under the pair relation are
    neighbors of v~, a difference of near sets; v~ lies in the span of the
    original subcomplex K0, tested per vertex: v~ is in K0 or on a geodesic
    between two of its vertices; and the measure (alpha + beta, a + b) of
    the folded K strictly decreases lexicographically.  The measure is kept
    by _FoldMeasure as K changes, not rescanned, but every move still
    compares it before and after.
    """
    g.require_cone_separation()
    delta_eff = max(1, int(delta))
    if d < 4 * delta_eff:
        raise ValueError("need d >= 4 * delta (delta taken as %d)" % delta_eff)
    t3 = theta3(g, index=index)
    sums = list(islice(partial_sums(t3), 8))  # 0 to 7 corner sizes
    if not sums[7] <= theta:
        raise ValueError("theta must contain the sevenfold corner size")
    t3_2 = sums[2]
    rel = _pair_relation(g, d, theta, index)

    K0 = frozenset(K_vertices)
    if not K0:
        raise ValueError("empty subcomplex")
    v0 = min(K0)
    d0 = index.dist[v0]
    if any(d0[v] is INF for v in K0):
        raise ValueError("subcomplex spans several components")
    depth, witness = _large_turn_depths(index, t3_2, v0)

    K = set(K0)
    moves = []
    measure = _FoldMeasure(d0, depth.__getitem__, K)
    alpha, beta, a, b = measure.value()
    move_cap = 4 * len(K0) * (alpha + 2) + 16
    while alpha:
        if len(moves) > move_cap:
            raise ContractionError("fold count exceeded cap; no progress")
        if alpha >= beta + d:
            v = min(measure.at_dist[alpha])
            vt = min(w for w in index.geodesic_vertex_set(v0, v)
                     if d0[w] == alpha - 2 * delta_eff)
            case = "far-fold"
        elif beta == 0:
            v = min(measure.at_dist[alpha])
            vt = v0
            case = "base-fold"
        else:
            v = min(measure.at_depth[beta])
            vt = witness[v]
            case = "angle-fold"

        # clause validation
        if v == vt:
            raise ContractionError("fold does not move the vertex")
        if not rel.joined(v, vt):
            raise ContractionError("fold %r -> %r: no small short geodesic"
                                   % (v, vt))
        dropped = (K & rel.near(v)) - rel.near(vt) - {vt}
        if dropped:
            raise ContractionError("fold %r -> %r drops the neighbor %r"
                                   % (v, vt, min(dropped)))
        if not _in_span(index.dist, K0, vt):
            raise ContractionError("replacement %r leaves the span" % (vt,))
        measure.fold(v, vt, K)
        K.discard(v)
        K.add(vt)
        m_next = measure.value()
        before = (alpha + beta, a + b)
        after = (m_next[0] + m_next[1], m_next[2] + m_next[3])
        if not after < before:
            raise ContractionError(
                "measure did not decrease: %r -> %r" % (before, after))
        moves.append(Move(v, vt, case, before, after))
        alpha, beta, a, b = m_next
    if K != {v0}:
        raise ContractionError("terminated away from the basepoint")
    return ContractionTrace(tuple(moves), v0, v0)


# ---------------------------------------------------------------------------
# Homology over the rationals
# ---------------------------------------------------------------------------


def _rank(columns):
    """The rank over the rationals of a sparse integer matrix given as
    columns {row: int}.  Each column is reduced on its largest row until
    that row is new, and the rank is the number of rows so reached."""
    pivots = {}
    for col in columns:
        col = {r: Fraction(v) for r, v in col.items()}
        while col:
            r = max(col)
            piv = pivots.get(r)
            if piv is None:
                pivots[r] = {rr: vv / col[r] for rr, vv in col.items()}
                break
            f = col[r]
            for rr, vv in piv.items():
                nv = col.get(rr, 0) - f * vv
                if nv:
                    col[rr] = nv
                else:
                    del col[rr]
    return len(pivots)


def _strongly_collapsible(P):
    """Whether P strong-collapses to one vertex (Barmak and Minian, Strong
    homotopy types, nerves and collapses, Discrete Comput. Geom. 47, 2012).

    A vertex v is dominated when every maximal simplex holding v holds some
    w != v.  Sending v to w is then a simplicial retraction onto P - v
    contiguous to the identity, as each simplex and its image lie in one
    maximal simplex: P - v is a deformation retract of P, with the same
    Betti numbers over every field.  The maximal simplices of P - v are
    those without v and each s - v that no other contains.  The core left
    when no vertex is dominated is unique up to isomorphism, so the order
    of removal does not change whether it is a single vertex.
    """
    holding = {}  # each vertex -> the maximal simplices holding it
    for m in map(frozenset, P.maximal_simplices):
        for v in m:
            holding.setdefault(v, set()).add(m)
    left, todo = len(holding), set(holding)
    while todo:
        v = todo.pop()
        held = list(holding[v])
        if frozenset.intersection(*held) == {v}:
            continue
        around = frozenset.union(*held)
        for w in around:
            holding[w].difference_update(held)
        for m in held:
            m = m - {v}
            # a simplex holding m holds its least vertex
            if not any(m <= t for t in holding[min(m)]):
                for w in m:
                    holding[w].add(m)
        todo.update(around - {v})
        left -= 1
    return left == 1


def homology_oracle(P: SimplicialComplex, max_dim, cap=FACE_CAP):
    """The rational Betti numbers b_0, ..., b_max_dim of P, once the face
    cap holds: a maximal simplex m has 2^|m| - 1 faces, so the sum of
    these bounds the distinct faces, and face_masks(cap) runs, to raise
    CapExceeded exactly when the faces pass cap, only if the sum does.

    A complex that strong-collapses to a vertex has those of a point, found
    with no face listing and no boundary matrix.  Any other is answered by
    one exact rank over the rationals per boundary map, from dimension
    max_dim + 1, the highest a Betti number up to max_dim reads, down.
    """
    if sum((1 << len(m)) - 1 for m in P.maximal_simplices) > cap:
        P.face_masks(cap)
    if max_dim >= 0 and _strongly_collapsible(P):
        return (1,) + (0,) * max_dim
    faces = P.faces(cap)
    rank = {0: 0}
    for k in range(max_dim + 1, 0, -1):
        lower = {s: i for i, s in enumerate(faces.get(k - 1, []))}
        rank[k] = _rank([{lower[s[:j] + s[j + 1:]]: -1 if j % 2 else 1
                          for j in range(len(s))}
                         for s in faces.get(k, [])])
    return tuple(len(faces.get(k, [])) - rank[k] - rank[k + 1]
                 for k in range(max_dim + 1))
