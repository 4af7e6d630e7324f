"""Equivariant long thin covers of subspaces of V x Z with Z finite discrete.

The ambient object is a PairSpace: a finite metric set of v-points (metric
may take the value infinity), a finite discrete set of z-points, a set of
admitted (v, z) pairs invariant under a finite group acting diagonally.

Because Z is finite and discrete, closures and boundaries are trivial and
the greedy construction needs a single induction step: subtract earlier
basis sets along nearby translates, fatten in the v-direction, saturate by
the annotated subgroup and by the whole group.  The order of the result is
bounded by D - 1 whenever every z-fiber of the pair set has the
(D, R)-doubling property and alpha >= R.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graphs import INF
from .symmetry import GroupModel, SubgroupFamily, compose, invert, \
    is_F_subset, is_subgroup, subgroup_generated, trivial_group


@dataclass(frozen=True)
class PairSpace:
    """A finite G-invariant pair set X inside V x Z with a metric on V."""

    v_points: tuple
    z_points: tuple
    pairs: frozenset
    dist: dict
    group: GroupModel
    act_v: dict
    act_z: dict
    by_z: dict  # z -> V_z, filled by pair_space()
    by_v: dict  # v -> Z_v, filled by pair_space()

    def d(self, a, b):
        return self.dist[a][b]

    def fiber_v(self, z):
        """V_z, the v-points admitted over z."""
        return self.by_z.get(z, frozenset())

    def fiber_z(self, v):
        """Z_v, the z-points admitted over v."""
        return self.by_v.get(v, frozenset())

    def ball_v(self, v, alpha):
        """The v-points within alpha of v."""
        row = self.dist[v]
        return frozenset(w for w in self.v_points if row[w] <= alpha)

    def pair_action(self):
        act_v, act_z = self.act_v, self.act_z
        return lambda p, pair: (act_v[p][pair[0]], act_z[p][pair[1]])

    def translate(self, p, points):
        """p applied to a set of pairs; the identity returns it unchanged."""
        if p == self.group.identity:
            return frozenset(points)
        av, az = self.act_v[p], self.act_z[p]
        return frozenset((av[v], az[z]) for v, z in points)

    def validate(self):
        for v in self.v_points:
            if self.dist[v][v] != 0:
                raise ValueError("metric has nonzero diagonal")
            for w in self.v_points:
                if self.dist[v][w] != self.dist[w][v]:
                    raise ValueError("metric not symmetric")
        act = self.pair_action()
        for p in self.group.elements:
            for pair in self.pairs:
                if act(p, pair) not in self.pairs:
                    raise ValueError("pair set is not group invariant")
            for v in self.v_points:
                for w in self.v_points:
                    if self.dist[v][w] != self.dist[self.act_v[p][v]][self.act_v[p][w]]:
                        raise ValueError("metric is not group invariant")


def pair_space(v_points, z_points, pairs, dist, group=None,
               act_v=None, act_z=None, base_graph=None) -> PairSpace:
    """Assemble a PairSpace; the trivial group is used when none is given."""
    v_points = tuple(v_points)
    z_points = tuple(z_points)
    pairs = frozenset(pairs)
    if group is None:
        from .graphs import make_graph
        group = trivial_group(base_graph if base_graph is not None
                              else make_graph(1, []))
    if act_v is None:
        act_v = {p: {v: v for v in v_points} for p in group.elements}
    if act_z is None:
        act_z = {p: {z: z for z in z_points} for p in group.elements}
    by_z, by_v = {}, {}
    for v, z in pairs:
        by_z.setdefault(z, set()).add(v)
        by_v.setdefault(v, set()).add(z)
    return PairSpace(v_points, z_points, pairs, dist, group, act_v, act_z,
                     {z: frozenset(vs) for z, vs in by_z.items()},
                     {v: frozenset(zs) for v, zs in by_v.items()})


# ---------------------------------------------------------------------------
# Doubling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoublingReport:
    ok: bool
    D: int
    R: float
    witness: tuple = None  # (alpha, center, separated_points) on failure


def _dense_distances(points, dist_fn):
    """Dense distances among points, indexed by their position in it."""
    return [[dist_fn(a, b) for b in points] for a in points]


def _violating_set(pts, dist, size, R):
    """A size-subset with pairwise gaps above R fitting a ball of radius
    strictly below twice its minimum gap, or None.

    pts is sorted and dist its dense distance matrix.  Such a set is
    exactly a doubling violation: with s its minimum pairwise gap and r its
    covering radius, every scale alpha in [max(R, r/2), s) separates it
    inside a 2*alpha ball.  The search prunes on the coupling: adding
    points only shrinks the gap and grows the radius.  Each node keeps the
    positions still more than R from every selected point, and the
    distance from each center to its farthest selected point.
    """
    found = []

    def rec(cands, sel, sep, radii):
        if sel:
            rad = min(radii)
            if rad >= 2 * sep:
                return
            if len(sel) == size:
                center = pts[radii.index(rad)]
                found.append(([pts[i] for i in sel], sep, rad, center))
                return
        need = size - len(sel)
        for k, i in enumerate(cands):
            if len(cands) - k < need:
                return
            row = dist[i]
            nsep = min([sep] + [row[j] for j in sel])
            rec([j for j in cands[k + 1:] if row[j] > R], sel + [i], nsep,
                list(map(max, radii, row)))
            if found:
                return

    rec(range(len(pts)), [], INF, [0] * len(pts))
    return found[0] if found else None


def doubling_check(points, dist_fn, D, R, dist=None) -> DoublingReport:
    """Verify the (D, R)-doubling property of a finite metric set.

    For every alpha >= R, every alpha-separated subset (pairwise distances
    strictly above alpha) of every closed 2*alpha ball centered at a point
    of the set must have at most D points.  Scanning scales is equivalent
    to one subset search, see _violating_set.  dist, when given, is the
    dense distance matrix of the sorted points and replaces dist_fn.
    """
    pts = sorted(points)
    if dist is None:
        dist = _dense_distances(pts, dist_fn)
    hit = _violating_set(pts, dist, D + 1, R)
    if hit is None:
        return DoublingReport(True, D, R)
    sel, sep, rad, center = hit
    alpha = max(R, rad / 2)
    return DoublingReport(False, D, R, (alpha, center, tuple(sel)))


def minimal_doubling_constant(points, dist_fn, R, dist=None) -> int:
    """The smallest D for which the (D, R)-doubling property holds."""
    pts = sorted(points)
    if not pts:
        return 0
    if dist is None:
        dist = _dense_distances(pts, dist_fn)
    best = 1
    while _violating_set(pts, dist, best + 1, R) is not None:
        best += 1
    return best


def minimal_doubling_radius(points, dist_fn, D, dist=None):
    """The smallest R for which the (D, R)-doubling property holds.

    The property only weakens as R grows, so a binary search over realized
    gaps finds the tightest passing threshold.
    """
    pts = sorted(points)
    if dist is None:
        dist = _dense_distances(pts, dist_fn)
    cands = [0]
    for i, row in enumerate(dist):
        for d in row[i + 1:]:
            if d is not INF:
                cands.append(d)
    cands = sorted(set(cands))
    lo, hi = 0, len(cands) - 1
    if doubling_check(pts, dist_fn, D, cands[lo], dist).ok:
        return cands[lo]
    if not doubling_check(pts, dist_fn, D, cands[hi], dist).ok:
        return INF
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if doubling_check(pts, dist_fn, D, cands[mid], dist).ok:
            hi = mid
        else:
            lo = mid
    return cands[hi]


# ---------------------------------------------------------------------------
# Covers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverMember:
    points: frozenset
    stabilizer: frozenset
    orbit_rep: bool


@dataclass(frozen=True)
class Cover:
    members: tuple
    alpha: float
    order: int

    def member_sets(self):
        return [m.points for m in self.members]

    def __len__(self):
        return len(self.members)


def cover_order(member_sets, domain_points) -> int:
    """The most members sharing one domain point, less one (-1 when the
    domain is empty)."""
    counts = Counter()
    for m in member_sets:
        counts.update(m)
    return max((counts[x] for x in domain_points), default=0) - 1


@dataclass(frozen=True)
class BasisTriple:
    v: object
    zset: frozenset
    subgroup: frozenset


class BasisError(ValueError):
    pass


def default_basis(space: PairSpace):
    """One triple per orbit of admitted pairs: a singleton z-set with the
    stabilizer of the z-point.  Always satisfies the separation condition."""
    act = space.pair_action()
    seen = set()
    triples = []
    for pair in sorted(space.pairs):
        if pair in seen:
            continue
        orbit = {act(p, pair) for p in space.group.elements}
        seen |= orbit
        v, z = pair
        stab = frozenset(p for p in space.group.elements
                         if space.act_z[p][z] == z)
        triples.append(BasisTriple(v, frozenset([z]), stab))
    return triples


def fiber_basis(space: PairSpace, alpha):
    """One triple per orbit of v-points carrying the full z-fiber.

    The annotated subgroup is generated by every element moving the v-point
    at most 4*alpha while overlapping the fiber, which is exactly what the
    separation condition requires.  Coarser in the z-direction than the
    default basis, which pullbacks along flows need.
    """
    seen = set()
    triples = []
    for v in sorted(space.v_points):
        if v in seen:
            continue
        orbit = {space.act_v[p][v] for p in space.group.elements}
        seen |= orbit
        fiber = space.fiber_z(v)
        if not fiber:
            continue
        gens = []
        for p in space.group.elements:
            if space.dist[space.act_v[p][v]][v] <= 4 * alpha:
                moved = {space.act_z[p][z] for z in fiber}
                if moved & fiber:
                    gens.append(p)
        triples.append(BasisTriple(v, fiber, subgroup_generated(space.group, gens)))
    return triples


def _check_alpha(alpha):
    # longness is read off the pair's own holders, which needs (v, z) in
    # its own alpha-neighbourhood; a negative scale makes every check vacuous
    if alpha < 0:
        raise ValueError("alpha must be nonnegative, got %r" % (alpha,))


def greedy_cover(space: PairSpace, alpha, basis=None) -> Cover:
    """The packing-driven equivariant cover of the pair set.

    Basis z-sets are subtracted along earlier nearby translates, fattened to
    closed 2*alpha balls in the v-direction, intersected with the pair set
    and saturated.  Determinism: ties follow basis order and sorted group
    elements.
    """
    _check_alpha(alpha)
    G = space.group
    act_v, act_z = space.act_v, space.act_z
    if basis is None:
        basis = default_basis(space)
    # precondition: each basis block sits inside the pair set
    for i, t in enumerate(basis):
        if not t.zset <= space.fiber_z(t.v):
            raise BasisError("basis %d: z-set leaves the fiber of %r" % (i, t.v))
        if not is_subgroup(G, t.subgroup):
            raise BasisError("basis %d: annotation is not a subgroup" % i)
    # precondition: separation condition at scale 4*alpha
    for i, t in enumerate(basis):
        for p in G.elements:
            if space.dist[act_v[p][t.v]][t.v] <= 4 * alpha:
                moved = {act_z[p][z] for z in t.zset}
                if moved & t.zset and p not in t.subgroup:
                    raise BasisError(
                        "basis %d: element %r moves the block onto itself" % (i, p))
    # precondition: translated basis blocks cover the pair set
    covered = set()
    for t in basis:
        for p in G.elements:
            pv, az = act_v[p][t.v], act_z[p]
            covered.update((pv, az[z]) for z in t.zset)
    if not space.pairs <= covered:
        missing = sorted(space.pairs - covered)[:3]
        raise BasisError("basis does not cover the pair set, e.g. %r" % (missing,))

    # greedy subtraction along earlier nearby translates
    reduced = []
    for i, t in enumerate(basis):
        zset = set(t.zset)
        row = space.dist[t.v]
        for j in range(i):
            if not reduced[j]:
                continue
            vj = basis[j].v
            for p in G.elements:
                if row[act_v[p][vj]] <= alpha:
                    az = act_z[p]
                    zset.difference_update(az[z] for z in reduced[j])
        reduced.append(frozenset(zset))

    members = []
    seen_sets = set()
    for i, t in enumerate(basis):
        if not reduced[i]:
            continue
        ball = space.ball_v(t.v, 2 * alpha)
        core = frozenset((w, z) for z in reduced[i]
                         for w in space.fiber_v(z) & ball)
        saturated = set()
        for a in t.subgroup:  # one translate alive at a time
            saturated |= space.translate(a, core)
        saturated = frozenset(saturated)
        if not saturated:
            continue
        first = True
        for p in G.elements:
            translated = space.translate(p, saturated)
            if translated in seen_sets:
                continue
            seen_sets.add(translated)
            stab = frozenset(compose(compose(p, a), invert(p))
                             for a in t.subgroup)
            members.append(CoverMember(translated, stab, first))
            first = False
    order = cover_order([m.points for m in members], space.pairs)
    return Cover(tuple(members), alpha, order)


@dataclass(frozen=True)
class CoverReport:
    ok: bool
    order: int
    long: bool
    invariant: bool
    f_subsets: bool
    failures: tuple


def verify_cover(cover: Cover, space: PairSpace, alpha,
                 family: SubgroupFamily) -> CoverReport:
    """Independent check of order, longness, invariance and F-subsetness.

    Longness asks every pair (v, z) for a member holding all of X's pairs
    over z within alpha of v.  That set contains (v, z) itself, so only
    the members holding (v, z) need testing, and each is tested on its
    slice over z.
    """
    _check_alpha(alpha)
    failures = []
    sets = cover.member_sets()
    order = cover_order(sets, space.pairs)

    slices = {}  # z -> the v-sets of the members over z
    for m in sets:
        over = {}
        for v, z in m:
            over.setdefault(z, set()).add(v)
        for z, vs in over.items():
            slices.setdefault(z, []).append(vs)
    balls = {v: space.ball_v(v, alpha) for v in space.by_v}
    long_ok = True
    for (v, z) in sorted(space.pairs):
        needed = space.fiber_v(z) & balls[v]
        if not any(v in vs and needed <= vs for vs in slices.get(z, ())):
            long_ok = False
            failures.append(("not-long", (v, z)))
            break

    inv_ok = True
    set_pool = set(sets)
    for p in space.group.elements:
        for m in sets:
            if space.translate(p, m) not in set_pool:
                inv_ok = False
                failures.append(("not-invariant", p))
                break
        if not inv_ok:
            break

    f_ok = True
    action = space.pair_action()
    for idx, m in enumerate(cover.members):
        ok, witness = is_F_subset(m.points, space.group, family, action)
        if not ok:
            f_ok = False
            failures.append(("not-f-subset", idx))
            break

    return CoverReport(long_ok and inv_ok and f_ok, order, long_ok,
                       inv_ok, f_ok, tuple(failures))


# ---------------------------------------------------------------------------
# Metric extension of open sets and covers
# ---------------------------------------------------------------------------


def extend_open(U, X0, X, dist_fn):
    """U+ = points of X strictly closer to U than to the rest of X0.

    Distances to the empty set are infinite, and an infinite distance never
    wins the strict comparison, so points infinitely far from everything
    stay outside.  Restricting U+ to X0 recovers U, and the construction
    commutes with intersections.
    """
    U = frozenset(U)
    X0 = frozenset(X0)
    if not U <= X0:
        raise ValueError("U must be a subset of X0")
    comp = X0 - U
    out = set()
    for x in X:
        du = min((dist_fn(x, u) for u in U), default=INF)
        dc = min((dist_fn(x, c) for c in comp), default=INF)
        if du < dc:
            out.add(x)
    return frozenset(out)


def extend_cover(cover: Cover, X0, X, dist_fn, G: GroupModel, act) -> Cover:
    """Member-wise extension from X0 to X; order is preserved exactly."""
    for p in G.elements:
        for x in X:
            for y in X:
                if dist_fn(x, y) != dist_fn(act(p, x), act(p, y)):
                    raise ValueError("metric is not invariant under %r" % (p,))
    members = tuple(
        CoverMember(extend_open(m.points, X0, X, dist_fn), m.stabilizer,
                    m.orbit_rep)
        for m in cover.members)
    order = cover_order([m.points for m in members], X)
    return Cover(members, cover.alpha, order)
