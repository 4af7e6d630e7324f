"""Relative Rips complexes, their contraction procedure and homology.

A vertex set spans a simplex when every pair is joined by a small geodesic
of length at most d, so the complex is the clique complex of that pair
relation and is stored by maximal simplices.  The contraction walks a
finite subcomplex down to a single vertex by validated vertex folds; Betti
numbers over the rationals give the independent contractibility check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import networkx as nx

from .angles import AngleSet, SmallnessOracle, exists_small_geodesic, \
    k_fold_sum
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

    def all_simplices(self, cap=200000):
        out = set()
        for m in self.maximal_simplices:
            ms = sorted(m)
            for k in range(1, len(ms) + 1):
                for c in combinations(ms, k):
                    out.add(frozenset(c))
                    if len(out) > cap:
                        raise CapExceeded("more than %d simplices" % cap)
        return out


def _clique_complex(vertices, relation_pairs) -> SimplicialComplex:
    G = nx.Graph()
    G.add_nodes_from(vertices)
    G.add_edges_from(relation_pairs)
    maximal = sorted((frozenset(c) for c in nx.find_cliques(G)),
                     key=lambda s: sorted(s))
    return SimplicialComplex(tuple(sorted(vertices)), tuple(maximal))


class SmallPairRelation:
    """The symmetric relation 'joined by a small geodesic of length <= d'."""

    def __init__(self, g: Graph, d, theta: AngleSet,
                 index: GeodesicIndex = None):
        self.graph = g
        self.d = d
        self.theta = theta
        self.index = index if index is not None else GeodesicIndex(g)
        self.oracle = SmallnessOracle(g, theta)
        self._memo = {}

    def joined(self, u, v) -> bool:
        if u == v:
            return True
        key = (u, v) if u < v else (v, u)
        hit = self._memo.get(key)
        if hit is None:
            dd = self.index.d(u, v)
            if dd is INF or dd > self.d:
                hit = False
            else:
                hit = exists_small_geodesic(self.index.dag(*key), self.oracle)
            self._memo[key] = hit
        return hit

    def pairs(self, vertices):
        vs = sorted(vertices)
        return [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]
                if self.joined(u, v)]


def build_rips(g: Graph, d, theta: AngleSet,
               index: GeodesicIndex = None) -> SimplicialComplex:
    """The relative Rips complex at scale d for the given size for angles."""
    g.require_cone_separation()
    rel = SmallPairRelation(g, d, theta, index)
    return _clique_complex(list(g.vertices), rel.pairs(g.vertices))


def complex_stats(P: SimplicialComplex, cap=200000) -> dict:
    """Dimension, simplex counts per dimension, and the largest number of
    simplices strictly containing any single simplex."""
    sims = P.all_simplices(cap)
    counts = {}
    for s in sims:
        counts[len(s) - 1] = counts.get(len(s) - 1, 0) + 1
    coface = {s: 0 for s in sims}
    for s in sims:
        ms = sorted(s)
        for k in range(1, len(ms)):
            for c in combinations(ms, k):
                coface[frozenset(c)] += 1
    return {
        "dimension": P.dimension,
        "simplices_by_dim": dict(sorted(counts.items())),
        "total_simplices": len(sims),
        "max_coface_count": max(coface.values(), default=0),
    }


def span_L(K_vertices, g: Graph, d, theta: AngleSet,
           index: GeodesicIndex = None) -> SimplicialComplex:
    """Full subcomplex on every vertex of a geodesic between two K-vertices."""
    if index is None:
        index = GeodesicIndex(g)
    verts = set()
    ks = sorted(set(K_vertices))
    for u in ks:
        verts.add(u)
        for v in ks:
            if u < v and index.d(u, v) is not INF:
                verts.update(index.geodesic_vertex_set(u, v))
    rel = SmallPairRelation(g, d, theta, index)
    return _clique_complex(sorted(verts), rel.pairs(verts))


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


def _large_angle_vertices(index: GeodesicIndex, oracle: SmallnessOracle,
                          small: AngleSet, v0, v):
    """Internal vertices through which some geodesic v0 -> v turns large."""
    if v0 == v:
        return {}
    dag = index.dag(v0, v)
    pred = dag.pred()
    out = {}
    for w in dag.layer:
        if w in (v0, v) or not oracle.is_checked(w):
            continue
        hit = False
        for p in pred[w]:
            e1 = oracle.step_edge(p, w)
            for s in dag.succ[w]:
                e2 = oracle.step_edge(w, s)
                if e1 != e2 and not small.contains_edges(e1, e2):
                    hit = True
                    break
            if hit:
                break
        if hit:
            out[w] = dag.layer[w]
    return out


def _measure(index, oracle, t3_2, v0, K):
    alpha = max(index.d(v0, v) for v in K)
    a = sum(1 for v in K if index.d(v0, v) == alpha)
    beta = 0
    b = 0
    for v in K:
        bw = _large_angle_vertices(index, oracle, t3_2, v0, v)
        best = max(bw.values(), default=0)
        if best > beta:
            beta, b = best, 1
        elif best == beta and best > 0:
            b += 1
    return alpha, beta, a, b


def contract_subcomplex(K_vertices, g: Graph, d, theta: AngleSet, delta,
                        index: GeodesicIndex = None,
                        move_cap=None) -> ContractionTrace:
    """Fold a finite subcomplex down to its basepoint, validating each move.

    Hypotheses (checked): d >= 4 * delta with delta a positive integer
    hyperbolicity constant (slimness 0 is raised to 1, matching the standing
    convention that the constant is positive), and theta contains the
    sevenfold corner size.  Every fold (v -> v~) is validated against the
    three clauses: a small short geodesic joins v and v~; neighbors of v in
    the pair relation are neighbors of v~; the recomputed measure
    (alpha + beta, a + b) strictly decreases lexicographically.  The
    replacement vertex always lies on a geodesic from the basepoint to a
    vertex of the original subcomplex.
    """
    from .angles import theta3
    if index is None:
        index = GeodesicIndex(g)
    delta_eff = max(1, int(delta))
    if d < 4 * delta_eff:
        raise ValueError("need d >= 4 * delta (delta taken as %d)" % delta_eff)
    t3 = theta3(g, index=index)
    if not k_fold_sum(t3, 7) <= theta:
        raise ValueError("theta must contain the sevenfold corner size")
    t3_2 = k_fold_sum(t3, 2)
    oracle = SmallnessOracle(g, theta)
    rel = SmallPairRelation(g, d, theta, index)

    K0 = sorted(set(K_vertices))
    if not K0:
        raise ValueError("empty subcomplex")
    for u in K0:
        for v in K0:
            if index.d(u, v) is INF:
                raise ValueError("subcomplex spans several components")
    v0 = K0[0]
    L_verts = set()
    for u in K0:
        L_verts.add(u)
        for v in K0:
            if u < v:
                L_verts.update(index.geodesic_vertex_set(u, v))

    K = set(K0)
    moves = []
    if move_cap is None:
        alpha0 = max(index.d(v0, v) for v in K)
        move_cap = 4 * len(K0) * (alpha0 + 2) + 16
    while True:
        alpha, beta, a, b = _measure(index, oracle, t3_2, v0, K)
        if alpha == 0:
            break
        if len(moves) > move_cap:
            raise ContractionError("fold count exceeded cap; no progress")
        if alpha >= beta + d:
            far = sorted(v for v in K if index.d(v0, v) == alpha)
            v = far[0]
            dag = index.dag(v0, v)
            layer_want = alpha - 2 * delta_eff
            vt = min(w for w in dag.layer if dag.layer[w] == layer_want)
            case = "far-fold"
        elif beta == 0:
            far = sorted(v for v in K if index.d(v0, v) == alpha)
            v = far[0]
            vt = v0
            case = "base-fold"
        else:
            v = None
            for cand in sorted(K):
                bw = _large_angle_vertices(index, oracle, t3_2, v0, cand)
                wits = sorted(w for w, dw in bw.items() if dw == beta)
                if wits:
                    v = cand
                    vt = wits[0]
                    break
            if v is None:
                raise ContractionError("no witness for the recorded beta")
            case = "angle-fold"

        # clause validation
        if v == vt:
            raise ContractionError("fold does not move the vertex")
        if not rel.joined(v, vt):
            raise ContractionError("fold %r -> %r: no small short geodesic"
                                   % (v, vt))
        for u in K:
            if u != v and rel.joined(v, u) and not rel.joined(vt, u):
                raise ContractionError(
                    "fold %r -> %r drops the neighbor %r" % (v, vt, u))
        if vt not in L_verts:
            raise ContractionError("replacement %r leaves the span" % (vt,))
        K_next = (K - {v}) | {vt}
        m_next = _measure(index, oracle, t3_2, v0, K_next)
        before = (alpha + beta, a + b)
        after = (m_next[0] + m_next[1], m_next[2] + m_next[3])
        if not after < before:
            raise ContractionError(
                "measure did not decrease: %r -> %r" % (before, after))
        moves.append(Move(v, vt, case, before, after))
        K = K_next
    if K != {v0}:
        raise ContractionError("terminated away from the basepoint")
    return ContractionTrace(tuple(moves), v0, v0)


# ---------------------------------------------------------------------------
# Homology over the rationals
# ---------------------------------------------------------------------------


def _rank(columns):
    """Rank of a sparse matrix given as columns {row: Fraction}."""
    pivots = {}
    rank = 0
    for col in columns:
        col = dict(col)
        while col:
            r = min(col)
            if r in pivots:
                p = pivots[r]
                factor = col[r] / p[r]
                for rr, vv in p.items():
                    nv = col.get(rr, Fraction(0)) - factor * vv
                    if nv:
                        col[rr] = nv
                    else:
                        col.pop(rr, None)
            else:
                pivots[r] = col
                rank += 1
                break
    return rank


def homology_oracle(P: SimplicialComplex, max_dim=None, cap=200000):
    """Betti numbers over the rationals by exact boundary-matrix ranks."""
    sims = P.all_simplices(cap)
    dim = P.dimension
    if max_dim is None:
        max_dim = max(dim, 0)
    by_dim = {}
    for s in sims:
        by_dim.setdefault(len(s) - 1, []).append(tuple(sorted(s)))
    for k in by_dim:
        by_dim[k].sort()
    pos = {k: {s: i for i, s in enumerate(ss)} for k, ss in by_dim.items()}

    def boundary_columns(k):
        # columns of the boundary map from k-chains to (k-1)-chains
        cols = []
        lower = pos.get(k - 1, {})
        for s in by_dim.get(k, []):
            col = {}
            for j in range(len(s)):
                face = s[:j] + s[j + 1:]
                col[lower[face]] = Fraction(-1 if j % 2 else 1)
            cols.append(col)
        return cols

    ranks = {0: 0}
    for k in range(1, dim + 2):
        ranks[k] = _rank(boundary_columns(k)) if by_dim.get(k) else 0
    betti = []
    for k in range(0, max_dim + 1):
        nk = len(by_dim.get(k, []))
        betti.append(nk - ranks.get(k, 0) - ranks.get(k + 1, 0))
    return tuple(betti)
