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
from functools import cache
from itertools import combinations

from .angles import AngleSet, SmallnessOracle, canonical_angle, k_fold_sum, \
    small_steps, theta3
from .graphs import INF, CapExceeded, GeodesicIndex, Graph


@dataclass(frozen=True)
class SimplicialComplex:
    vertices: tuple
    maximal_simplices: tuple

    @property
    def dimension(self):
        if not self.maximal_simplices:
            return -1
        return max(len(s) for s in self.maximal_simplices) - 1

    def check_face_cap(self, cap):
        """Raise CapExceeded past cap distinct simplices, counted as the
        nonempty submasks of each maximal simplex's vertex bitmask, at the
        first simplex past the cap."""
        bit = {v: i for i, v in
               enumerate(set().union(*self.maximal_simplices))}
        masks = set()
        for m in self.maximal_simplices:
            top = sub = sum(1 << bit[v] for v in m)
            while sub:
                masks.add(sub)
                if len(masks) > cap:
                    raise CapExceeded("more than %d simplices" % cap)
                sub = (sub - 1) & top

    def faces(self, cap=200000):
        """Each dimension k mapped to the sorted list of the sorted
        (k+1)-tuples spanning a simplex, after check_face_cap(cap)."""
        self.check_face_cap(cap)
        seen = {s for m in self.maximal_simplices for k in range(1, len(m) + 1)
                for s in combinations(sorted(m), k)}
        out = {}
        for s in sorted(seen):
            out.setdefault(len(s) - 1, []).append(s)
        return out


def _bits(mask):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _maximal_cliques(nbr, R, P, X, out):
    """Bron-Kerbosch with Tomita's pivot on neighbour bitmasks: append to
    out every maximal clique that extends R by vertices of P and meets no
    vertex of X.  The pivot u in P | X has the most neighbours in P; each
    such clique holds u or a non-neighbour of u, else u would extend it,
    so only the vertices of P - nbr[u] are branched on."""
    if not P:
        if not X:
            out.append(R)
        return
    u = max(_bits(P | X), key=lambda i: (P & nbr[i]).bit_count())
    for i in _bits(P & ~nbr[u]):
        _maximal_cliques(nbr, R | 1 << i, P & nbr[i], X & nbr[i], out)
        P &= ~(1 << i)
        X |= 1 << i


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
    maximal = sorted((frozenset(vs[i] for i in _bits(m)) for m in masks),
                     key=lambda s: sorted(s))
    return SimplicialComplex(tuple(vs), tuple(maximal))


class SmallPairRelation:
    """The symmetric relation 'joined by a small geodesic of length <= d'.

    The vertices joined to u come from one small-step sweep from u, taken
    on first use; the sweep from either end decides a pair, since a
    reversed small geodesic is small (see angles.small_carriers).
    """

    def __init__(self, g: Graph, d, theta: AngleSet, index: GeodesicIndex):
        self.graph = g
        self.d = d
        self.index = index
        self.oracle = SmallnessOracle(g, theta)
        self._near = {}  # u -> the vertices other than u joined to it

    def near(self, u) -> frozenset:
        """The vertices other than u joined to u."""
        near = self._near.get(u)
        if near is None:
            into = small_steps(self.index, self.oracle, u)[0]
            du = self.index.dist[u]
            near = self._near[u] = frozenset(
                w for w in self.graph.vertices if into[w] and du[w] <= self.d)
        return near

    def joined(self, u, v) -> bool:
        return u == v or v in self.near(u)


def build_rips(g: Graph, d, theta: AngleSet,
               index: GeodesicIndex) -> SimplicialComplex:
    """The relative Rips complex at scale d for the given size for angles."""
    g.require_cone_separation()
    rel = SmallPairRelation(g, d, theta, index)
    return _clique_complex(g.vertices, rel.near)


def complex_stats(P: SimplicialComplex, cap=200000) -> dict:
    """Dimension, simplex counts per dimension, and the largest number of
    simplices strictly containing any single simplex.  A simplex strictly
    containing s contains each vertex of s and is not that vertex, so the
    largest count is reached at a vertex: the simplices holding it, less
    the vertex itself."""
    faces = P.faces(cap)
    holding = Counter(v for ss in faces.values() for s in ss for v in s)
    return {
        "dimension": P.dimension,
        "simplices_by_dim": {k: len(ss) for k, ss in sorted(faces.items())},
        "total_simplices": sum(map(len, faces.values())),
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
            large = any(canonical_angle(p, u, v) not in small.nontrivial
                        for p in preds[u])
            du, wu = (d0[u], u) if large else (depth[u], witness[u])
            if du > depth[v] or du == depth[v] and du and wu < witness[v]:
                depth[v], witness[v] = du, wu
    return depth, witness


def _in_span(dist, K0, w):
    """Whether w is in K0 or on a geodesic between two vertices of K0."""
    dw = dist[w]
    return w in K0 or any(dw[u] + dw[v] == dist[u][v]
                          for u, v in combinations(K0, 2))


class _FoldMeasure:
    """The measure (alpha, beta, a, b) of a vertex set K, kept as folds
    change K.

    alpha is the largest distance from v0 over K and a the number of
    vertices of K at it; beta is the largest large-angle depth over K and
    b the number of vertices of K at it, 0 when beta is 0.  Both are read
    off counters over K, of the distances and of the depths, and a fold
    changes one entry of each per vertex it moves.
    """

    def __init__(self, d0, depth, K):
        self.d0, self.depth = d0, depth
        self.at_dist, self.at_depth = {}, {}
        for v in K:
            self._count(v, 1)

    def _count(self, v, step):
        for counter, key in ((self.at_dist, self.d0[v]),
                             (self.at_depth, self.depth(v))):
            n = counter.get(key, 0) + step
            if n:
                counter[key] = n
            else:
                del counter[key]

    def fold(self, v, vt, K):
        """Count the fold of v in K to vt, before K itself changes."""
        self._count(v, -1)
        if vt not in K:
            self._count(vt, 1)

    def value(self):
        alpha, beta = max(self.at_dist), max(self.at_depth)
        return (alpha, beta, self.at_dist[alpha],
                self.at_depth[beta] if beta else 0)


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
    if not k_fold_sum(t3, 7) <= theta:
        raise ValueError("theta must contain the sevenfold corner size")
    t3_2 = k_fold_sum(t3, 2)
    rel = SmallPairRelation(g, d, theta, index)

    K0 = sorted(set(K_vertices))
    if not K0:
        raise ValueError("empty subcomplex")
    v0 = K0[0]
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
            v = min(v for v in K if d0[v] == alpha)
            vt = min(w for w in index.geodesic_vertex_set(v0, v)
                     if d0[w] == alpha - 2 * delta_eff)
            case = "far-fold"
        elif beta == 0:
            v = min(v for v in K if d0[v] == alpha)
            vt = v0
            case = "base-fold"
        else:
            v = min((c for c in K if depth[c] == beta), default=None)
            if v is None:
                raise ContractionError("no witness for the recorded beta")
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


_P = 2**31 - 1


def _pivot_rows(columns, cleared, p):
    """Pivot rows of a sparse integer matrix reduced over F_p, or over the
    rationals when p is 0.

    Columns are {row: int}; those whose index is in cleared are skipped.
    Each column is reduced on its largest row index, so a reduced column
    is a combination of the original ones whose largest row is its pivot.
    The number of pivot rows is the rank of the columns not skipped.
    """
    pivots = {}
    for j, col in enumerate(columns):
        if j in cleared:
            continue
        col = {r: v % p if p else Fraction(v) for r, v in col.items()}
        while col:
            r = max(col)
            piv = pivots.get(r)
            if piv is None:
                inv = pow(col[r], -1, p) if p else 1 / col[r]
                pivots[r] = {rr: vv * inv % p if p else vv * inv
                             for rr, vv in col.items()}
                break
            f = col[r]
            for rr, vv in piv.items():
                nv = col.get(rr, 0) - f * vv
                if p:
                    nv %= p
                if nv:
                    col[rr] = nv
                else:
                    del col[rr]
    return pivots.keys()


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


def homology_oracle(P: SimplicialComplex, max_dim, cap=200000):
    """Betti numbers over the rationals by exact boundary-matrix ranks.

    A complex that strong-collapses to a vertex is answered after the face
    cap, with no face listing and no boundary matrix.  Otherwise the faces
    are listed and the ranks are first taken over F_p, p = 2**31 - 1.  For
    every integer matrix the rank over F_p is at most the rank over Q, so
    every F_p Betti number is at least the rational one.  When the F_p Betti
    numbers are (1, 0, ..., 0) the rational ones are therefore the same,
    since b_0 >= 1 on a nonempty complex, and they are returned.  Any other
    answer, including that of the empty complex, is recomputed by exact
    elimination over Q.

    Both passes reduce from dimension max_dim + 1, the highest rank a Betti
    number up to max_dim reads (above the dimension of P the boundary maps
    have no columns), down with clearing: a reduced column of the
    boundary of (k+1)-chains with pivot row i is a k-cycle whose largest
    simplex is i, so column i of the boundary of k-chains depends on
    earlier columns and is skipped.  That holds over any field.
    """
    P.check_face_cap(cap)
    acyclic = (1,) + (0,) * max_dim
    if max_dim >= 0 and _strongly_collapsible(P):
        return acyclic
    faces = P.faces(cap)
    pos = {k: {s: i for i, s in enumerate(ss)} for k, ss in faces.items()}

    @cache
    def boundary_columns(k):
        # columns of the boundary map from k-chains to (k-1)-chains
        lower = pos.get(k - 1, {})
        return [{lower[s[:j] + s[j + 1:]]: -1 if j % 2 else 1
                 for j in range(len(s))}
                for s in faces.get(k, [])]

    def betti(p):
        ranks = {}
        cleared = ()
        for k in range(max_dim + 1, 0, -1):
            pivot_rows = _pivot_rows(boundary_columns(k), cleared, p)
            ranks[k] = len(pivot_rows)
            cleared = set(pivot_rows)
        return tuple(len(faces.get(k, [])) - ranks.get(k, 0)
                     - ranks.get(k + 1, 0) for k in range(max_dim + 1))

    if betti(_P) == acyclic:
        return acyclic
    return betti(0)
