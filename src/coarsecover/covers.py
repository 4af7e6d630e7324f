"""Equivariant long thin covers of subspaces of V x Z with Z finite discrete.

The ambient object is a PairSpace: a finite metric set of v-points (metric
may take the value infinity), a finite discrete set of z-points, and a set
of admitted (v, z) pairs invariant under a finite group acting diagonally.
The pairs are stored once, as the z-fibers V_z: each z-point maps to the
v-points admitted over it.

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

from .graphs import INF, make_graph
from .symmetry import GroupModel, SubgroupFamily, compose, conjugate, \
    is_subgroup, set_orbit, subgroup_generated, trivial_group


@dataclass(frozen=True)
class PairSpace:
    """A finite G-invariant pair set X inside V x Z with a metric on V,
    stored as its z-fibers V_z = {v : (v, z) in X}."""

    v_points: tuple
    fibers: dict  # every z-point -> V_z, empty fibers included
    dist: dict  # v -> {w: d(v, w)}
    group: GroupModel
    act_v: dict  # p -> its map on v-points, indexed by v-point
    act_z: dict  # p -> {z: p z}

    @property
    def pairs(self):
        """The admitted pairs (v, z), read off the fibers."""
        return frozenset(_points(self))

    def d(self, a, b):
        return self.dist[a][b]

    def translate(self, p, points):
        """p applied to a set of pairs; the identity returns it unchanged."""
        if p == self.group.identity:
            return frozenset(points)
        av, az = self.act_v[p], self.act_z[p]
        return frozenset((av[v], az[z]) for v, z in points)


def _points(space: PairSpace):
    """The pairs (v, z) of the space, fiber by fiber."""
    return ((v, z) for z, fiber in space.fibers.items() for v in fiber)


def _check_generators(G: GroupModel):
    """Raise ValueError unless G.generators generate G.elements; the orbit
    walks of this module reach the whole group only along generators."""
    if subgroup_generated(G, G.generators) != frozenset(G.elements):
        raise ValueError("the group's generators do not generate its elements")


def pair_space(v_points, fibers, dist, group=None, act_v=None,
               act_z=None) -> PairSpace:
    """Assemble a PairSpace from its z-fibers (each z-point -> the v-points
    over it); the trivial group is used when none is given."""
    v_points = tuple(v_points)
    fibers = {z: frozenset(vs) for z, vs in fibers.items()}
    if group is None:
        group = trivial_group(make_graph(1, []))
    if act_v is None:
        act_v = {p: {v: v for v in v_points} for p in group.elements}
    if act_z is None:
        act_z = {p: {z: z for z in fibers} for p in group.elements}
    return PairSpace(v_points, fibers, dist, group, act_v, act_z)


# ---------------------------------------------------------------------------
# Doubling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoublingReport:
    ok: bool
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


def doubling_check(points, dist_fn, D, R) -> DoublingReport:
    """Verify the (D, R)-doubling property of a finite metric set.

    For every alpha >= R, every alpha-separated subset (pairwise distances
    strictly above alpha) of every closed 2*alpha ball centered at a point
    of the set must have at most D points.  Scanning scales is equivalent
    to one subset search, see _violating_set, on the distances dist_fn
    gives among the sorted points.
    """
    pts = sorted(points)
    hit = _violating_set(pts, _dense_distances(pts, dist_fn), D + 1, R)
    if hit is None:
        return DoublingReport(True)
    sel, sep, rad, center = hit
    alpha = max(R, rad / 2)
    return DoublingReport(False, (alpha, center, tuple(sel)))


def minimal_doubling_constant(points, dist_fn, R) -> int:
    """The smallest D for which the (D, R)-doubling property holds."""
    pts = sorted(points)
    if not pts:
        return 0
    dist = _dense_distances(pts, dist_fn)
    best = 1
    while _violating_set(pts, dist, best + 1, R) is not None:
        best += 1
    return best


def minimal_doubling_radius(points, dist_fn, D):
    """The smallest R for which the (D, R)-doubling property holds.

    The property only weakens as R grows, so a binary search over realized
    gaps finds the tightest passing threshold.
    """
    pts = sorted(points)
    dist = _dense_distances(pts, dist_fn)
    cands = [0]
    for i, row in enumerate(dist):
        for d in row[i + 1:]:
            if d is not INF:
                cands.append(d)
    cands = sorted(set(cands))

    def ok(R):
        return _violating_set(pts, dist, D + 1, R) is None

    lo, hi = 0, len(cands) - 1
    if ok(cands[lo]):
        return cands[lo]
    if not ok(cands[hi]):
        return INF
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(cands[mid]):
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


def wide_failures(member_sets, group: GroupModel, alpha, pairs):
    """Yield, in input order, each pair (g, x) whose ball slice
    {(h, x) : h in group.ball(alpha, center=g)} no member holds: the pairs
    at which the members fail to be alpha-wide.  Each ball is computed
    once per call."""
    balls = {}
    for g, x in pairs:
        if g not in balls:
            balls[g] = group.ball(alpha, center=g)
        need = {(h, x) for h in balls[g]}
        if not any(need <= m for m in member_sets):
            yield g, x


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
    seen = set()
    triples = []
    for pair in sorted(space.pairs):
        if pair in seen:
            continue
        v, z = pair
        seen |= {(space.act_v[p][v], space.act_z[p][z])
                 for p in space.group.elements}
        stab = frozenset(p for p in space.group.elements
                         if space.act_z[p][z] == z)
        triples.append(BasisTriple(v, frozenset([z]), stab))
    return triples


def fiber_basis(space: PairSpace, alpha):
    """One triple per orbit of v-points carrying the full z-fiber.

    The annotated subgroup is generated by every element moving the v-point
    at most 4*alpha while overlapping the fiber, which is exactly what the
    separation condition requires.  Coarser in the z-direction than the
    default basis, which pullbacks along flows need.  The z-fibers Z_v
    come from one pass over the fibers V_z.
    """
    z_over = {}  # v -> Z_v, the z-points admitted over v
    for z, vs in space.fibers.items():
        for v in vs:
            z_over.setdefault(v, set()).add(z)
    seen = set()
    triples = []
    for v in sorted(space.v_points):
        if v in seen:
            continue
        orbit = {space.act_v[p][v] for p in space.group.elements}
        seen |= orbit
        if v not in z_over:
            continue
        fiber = frozenset(z_over[v])
        gens = [p for p in space.group.elements
                if space.dist[space.act_v[p][v]][v] <= 4 * alpha
                and any(space.act_z[p][z] in fiber for z in fiber)]
        triples.append(BasisTriple(v, fiber, subgroup_generated(space.group, gens)))
    return triples


def _sifted_generators(G: GroupModel, H):
    """A generating set of the subgroup H: each element of sorted(H) not
    yet generated by those kept before it."""
    gens, span = [], {G.identity}
    for a in sorted(H):
        if a not in span:
            gens.append(a)
            span = subgroup_generated(G, gens)
    return gens


def _saturate(space: PairSpace, core, gens):
    """The union of the translates a.core over the subgroup generated by
    gens: core closed point by point under gens."""
    if not gens:
        return core
    acts = [(space.act_v[s], space.act_z[s]) for s in gens]
    out, queue = set(core), list(core)
    for v, z in queue:  # the queue grows while it is walked
        for av, az in acts:
            x = (av[v], az[z])
            if x not in out:
                out.add(x)
                queue.append(x)
    return frozenset(out)


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

    Each saturated set contributes its orbit, walked along the generators
    (which must generate the group); orbits are equal or disjoint.  The
    member W = p.saturated, p in the coset t_W.Stab, is annotated with the
    first such p in G.elements order, and members come in that order.
    """
    _check_alpha(alpha)
    G = space.group
    _check_generators(G)
    act_v, act_z = space.act_v, space.act_z
    if basis is None:
        basis = default_basis(space)
    # precondition: each basis block sits inside the pair set
    for i, t in enumerate(basis):
        if not all(t.v in space.fibers.get(z, ()) for z in t.zset):
            raise BasisError("basis %d: z-set leaves the fiber of %r" % (i, t.v))
        if not is_subgroup(G, t.subgroup):
            raise BasisError("basis %d: annotation is not a subgroup" % i)
    # precondition: separation condition at scale 4*alpha
    for i, t in enumerate(basis):
        for p in G.elements:
            if p in t.subgroup or space.dist[act_v[p][t.v]][t.v] > 4 * alpha:
                continue
            if any(act_z[p][z] in t.zset for z in t.zset):
                raise BasisError(
                    "basis %d: element %r moves the block onto itself" % (i, p))
    # precondition: translated basis blocks cover every fiber
    covered = {}  # z -> the v-points the translated blocks put over z
    for t in basis:
        for p in G.elements:
            pv, az = act_v[p][t.v], act_z[p]
            for z in t.zset:
                covered.setdefault(az[z], set()).add(pv)
    missing = sorted((v, z) for z, fiber in space.fibers.items()
                     for v in fiber - covered.get(z, set()))
    if missing:
        raise BasisError("basis does not cover the pair set, e.g. %r"
                         % (missing[:3],))

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

    rank = {p: k for k, p in enumerate(G.elements)}
    members = []
    seen_sets = set()
    for i, t in enumerate(basis):
        if not reduced[i]:
            continue
        row = space.dist[t.v]
        core = frozenset((w, z) for z in reduced[i] for w in space.fibers[z]
                         if row[w] <= 2 * alpha)
        saturated = _saturate(space, core, _sifted_generators(G, t.subgroup))
        if not saturated or saturated in seen_sets:
            continue
        orbit, stab = set_orbit(saturated, G, space.translate)
        seen_sets.update(orbit)
        firsts = sorted((min(rank[compose(tw, h)] for h in stab), W)
                        for W, tw in orbit.items())
        for k, (r, W) in enumerate(firsts):
            members.append(CoverMember(W, conjugate(G.elements[r], t.subgroup),
                                       k == 0))
    order = cover_order([m.points for m in members], _points(space))
    return Cover(tuple(members), alpha, order)


def _check_fiber(dist, fiber, slices, alpha):
    """The order over one fiber and its v that are not long, ascending;
    slices maps each member's v-set over the fiber to its multiplicity."""
    order = max((sum(n for vs, n in slices.items() if v in vs)
                 for v in fiber), default=0) - 1
    bad = []
    for v in fiber:
        row = dist[v]
        needed = {w for w in fiber if row[w] <= alpha}
        if not any(v in vs and needed <= vs for vs in slices):
            bad.append(v)
    return order, sorted(bad)


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

    Order and longness are read fiber by fiber off the members' slices
    (v-sets) over each z-point, each slice counted with the members having
    it.  Longness asks every pair (v, z) for a member holding all of X's
    pairs over z within alpha of v; that set holds (v, z), so only slices
    holding v are tested.  Both depend only on V_z and the counted slices
    over z, so each distinct such key is checked once and its verdict
    reused; the least pair (v, z) that is not long is reported.  An order
    other than the stated cover.order fails.

    Invariance and F-subsetness walk the generators, which must generate
    the group (ValueError otherwise).  A generator maps the finite pool of
    member sets injectively, so a pool each generator maps into itself is
    G-invariant.  The first member m of each orbit, in cover order, gets
    the check of is_F_subset on the orbit set_orbit walks.  It transfers
    to m' = g.m: m' meets h.m' exactly when m meets (g^-1 h g).m, and
    Stab(m') = g Stab(m) g^-1 is tested against the family directly, which
    need not be closed under conjugation.  Failures name the first failing
    generator or member; the members' annotations are not read.
    """
    _check_alpha(alpha)
    failures = []
    sets = cover.member_sets()
    slices = {}  # z -> {a member's v-set over z: the members having it}
    for m in sets:
        over = {}
        for v, z in m:
            over.setdefault(z, []).append(v)
        for z, vs in over.items():
            slices.setdefault(z, Counter())[frozenset(vs)] += 1
    order, least = -1, None
    memo = {}  # (V_z, its slices) -> (order over z, the v not long over z)
    for z, fiber in space.fibers.items():
        held = slices.get(z, {})
        key = (fiber, frozenset(held.items()))
        if key not in memo:
            memo[key] = _check_fiber(space.dist, fiber, held, alpha)
        at, bad = memo[key]
        order = max(order, at)
        if bad and (least is None or (bad[0], z) < least):
            least = (bad[0], z)
    long_ok = least is None
    if not long_ok:
        failures.append(("not-long", least))

    G = space.group
    _check_generators(G)
    inv_ok = True
    set_pool = set(sets)
    for s in G.generators:
        if any(space.translate(s, m) not in set_pool for m in set_pool):
            inv_ok = False
            failures.append(("not-invariant", s))
            break

    f_ok = True
    checked = {}  # translate of a checked member -> (t, member's stabilizer)
    for idx, m in enumerate(sets):
        if not m:
            continue
        if m in checked:
            ok = family.contains(conjugate(*checked[m]), G)
        else:
            orbit, stab = set_orbit(m, G, space.translate)
            ok = (not any(W & m for W in orbit if W != m)
                  and family.contains(stab, G))
            checked.update((W, (t, stab)) for W, t in orbit.items())
        if not ok:
            f_ok = False
            failures.append(("not-f-subset", idx))
            break

    if order != cover.order:
        failures.append(("order-mismatch", (cover.order, order)))
    return CoverReport(long_ok and inv_ok and f_ok and order == cover.order,
                       order, long_ok, inv_ok, f_ok, tuple(failures))


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
