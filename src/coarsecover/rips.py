"""Relative Rips complexes, their contraction procedure and homology.

A vertex set spans a simplex when every pair is joined by a small geodesic
of length at most d, so the complex is the clique complex of that pair
relation and is stored by maximal simplices.  The contraction walks a
finite subcomplex down to a single vertex by validated vertex folds; Betti
numbers over the rationals give the independent contractibility check.
Those are computed first over the prime field F_p, p = 2**31 - 1, with
clearing; an F_p answer of (1, 0, ..., 0) certifies the rational one, and
every other complex falls back to exact elimination over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import networkx as nx

from .angles import AngleSet, SmallnessOracle, geodesic_turns, k_fold_sum, \
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
        self._joined = {}  # u -> the vertices other than u joined to it

    def joined(self, u, v) -> bool:
        if u == v:
            return True
        near = self._joined.get(u)
        if near is None:
            into = small_steps(self.index, self.oracle, u)[0]
            du = self.index.dist[u]
            near = self._joined[u] = frozenset(
                w for w in self.graph.vertices if into[w] and du[w] <= self.d)
        return v in near

    def pairs(self, vertices):
        vs = sorted(vertices)
        return [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]
                if self.joined(u, v)]


def build_rips(g: Graph, d, theta: AngleSet,
               index: GeodesicIndex) -> SimplicialComplex:
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


def _large_angle_vertices(index: GeodesicIndex, small: AngleSet, v0, v):
    """Internal vertices through which some geodesic v0 -> v turns large,
    each mapped to its distance from v0."""
    out = {}
    for w, _, _, angle in geodesic_turns(index, None, v0, v):
        if w not in out and angle not in small.nontrivial:
            out[w] = index.dist[v0][w]
    return out


def _measure(d0, large_at, K):
    alpha = max(d0[v] for v in K)
    a = sum(1 for v in K if d0[v] == alpha)
    beta = 0
    b = 0
    for v in K:
        bw = large_at(v)
        best = max(bw.values(), default=0)
        if best > beta:
            beta, b = best, 1
        elif best == beta and best > 0:
            b += 1
    return alpha, beta, a, b


def contract_subcomplex(K_vertices, g: Graph, d, theta: AngleSet, delta,
                        index: GeodesicIndex) -> ContractionTrace:
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
    # the large-angle vertices of v depend only on v: v0, the index and
    # t3_2 are fixed for the whole contraction
    large = {}

    def large_at(v):
        hit = large.get(v)
        if hit is None:
            hit = large[v] = _large_angle_vertices(index, t3_2, v0, v)
        return hit

    if any(d0[v] is INF for v in K0):
        raise ValueError("subcomplex spans several components")
    L_verts = set()
    for u in K0:
        L_verts.add(u)
        for v in K0:
            if u < v:
                L_verts.update(index.geodesic_vertex_set(u, v))

    K = set(K0)
    moves = []
    measure = _measure(d0, large_at, K)
    move_cap = 4 * len(K0) * (measure[0] + 2) + 16
    while True:
        alpha, beta, a, b = measure
        if alpha == 0:
            break
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
            v = None
            for cand in sorted(K):
                bw = large_at(cand)
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
        m_next = _measure(d0, large_at, K_next)
        before = (alpha + beta, a + b)
        after = (m_next[0] + m_next[1], m_next[2] + m_next[3])
        if not after < before:
            raise ContractionError(
                "measure did not decrease: %r -> %r" % (before, after))
        moves.append(Move(v, vt, case, before, after))
        K, measure = K_next, m_next
    if K != {v0}:
        raise ContractionError("terminated away from the basepoint")
    return ContractionTrace(tuple(moves), v0, v0)


# ---------------------------------------------------------------------------
# Homology over the rationals
# ---------------------------------------------------------------------------


_P = 2**31 - 1


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


def _pivot_rows_mod_p(columns, cleared):
    """Pivot rows of a sparse integer matrix reduced over F_p.

    Columns are {row: int}; those whose index is in cleared are skipped.
    Each column is reduced on its largest row index, so a reduced column
    is a combination of the original ones whose largest row is its pivot.
    The number of pivot rows is the rank of the columns not skipped.
    """
    pivots = {}
    for j, col in enumerate(columns):
        if j in cleared:
            continue
        col = {r: v % _P for r, v in col.items()}
        while col:
            r = max(col)
            piv = pivots.get(r)
            if piv is None:
                inv = pow(col[r], -1, _P)
                pivots[r] = {rr: vv * inv % _P for rr, vv in col.items()}
                break
            f = col[r]
            for rr, vv in piv.items():
                nv = (col.get(rr, 0) - f * vv) % _P
                if nv:
                    col[rr] = nv
                else:
                    del col[rr]
    return pivots.keys()


def homology_oracle(P: SimplicialComplex, max_dim, cap=200000):
    """Betti numbers over the rationals by exact boundary-matrix ranks.

    The ranks are first taken over F_p, p = 2**31 - 1.  For every integer
    matrix the rank over F_p is at most the rank over Q, so every F_p Betti
    number is at least the rational one.  When the F_p Betti numbers are
    (1, 0, ..., 0) the rational ones are therefore the same, since b_0 >= 1
    on a nonempty complex, and they are returned.  Any other answer,
    including that of the empty complex, is recomputed by exact elimination
    over the rationals.

    The F_p ranks are reduced from the top dimension down with clearing: a
    reduced column of the boundary of (k+1)-chains with pivot row i is a
    k-cycle whose largest simplex is i, so column i of the boundary of
    k-chains depends on earlier columns and is skipped.
    """
    sims = P.all_simplices(cap)
    dim = P.dimension
    by_dim = {}
    for s in sims:
        by_dim.setdefault(len(s) - 1, []).append(tuple(sorted(s)))
    for k in by_dim:
        by_dim[k].sort()
    pos = {k: {s: i for i, s in enumerate(ss)} for k, ss in by_dim.items()}
    columns = {}

    def boundary_columns(k):
        # columns of the boundary map from k-chains to (k-1)-chains
        if k not in columns:
            lower = pos.get(k - 1, {})
            columns[k] = [{lower[s[:j] + s[j + 1:]]: -1 if j % 2 else 1
                           for j in range(len(s))}
                          for s in by_dim.get(k, [])]
        return columns[k]

    def betti(ranks):
        return tuple(len(by_dim.get(k, [])) - ranks.get(k, 0)
                     - ranks.get(k + 1, 0) for k in range(max_dim + 1))

    ranks = {}
    cleared = ()
    for k in range(min(dim, max_dim + 1), 0, -1):
        pivot_rows = _pivot_rows_mod_p(boundary_columns(k), cleared)
        ranks[k] = len(pivot_rows)
        cleared = set(pivot_rows)
    acyclic = (1,) + (0,) * max_dim
    if betti(ranks) == acyclic:
        return acyclic
    return betti({k: _rank([{r: Fraction(v) for r, v in col.items()}
                            for col in boundary_columns(k)])
                  for k in range(1, dim + 2)})
