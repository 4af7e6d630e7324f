"""Equivariant long thin covers of subspaces of V x Z with Z finite discrete.

The ambient object is a PairSpace: a finite metric set of v-points (metric
may take the value infinity), a finite discrete set of z-points, and a set
of admitted (v, z) pairs invariant under a finite group acting diagonally.
The v-points are numbered in ascending order and a set of them is an int
mask, bit i for the i-th, so that order, longness and translates are int
algebra; masked decodes a mask only where a v-point is named.  The pairs
are stored as the z-fibers V_z, each z-point -> the mask of the v-points
over it, and indexed by Z_v, each v-point -> the z-points over it.  A cover
member has the shape of the fibers: its slices map each z-point it meets to
its v-set over that point, so the cover is built, counted and verified
slice by slice, one z-point at a time.

Because Z is finite and discrete, closures and boundaries are trivial and
the greedy construction (greedy_cover) needs a single induction step.  The
order of the result is bounded by D - 1 whenever every z-fiber of the pair
set has the (D, R)-doubling property and alpha >= R.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import compress, count

from .graphs import INF
from .symmetry import GroupModel, SubgroupFamily, conjugate, is_subgroup, \
    set_orbit, sifted_generators, subgroup_generated

_EMPTY = frozenset()
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def masked(seq, mask):
    """The items of seq at the bits set in mask, lowest bit first: the
    digits of bin(mask), read from the end, select from seq."""
    return compress(seq, bin(mask)[:1:-1].encode().translate(_DIGITS))


class _BitImages(dict):
    """mask -> its image under a bit permutation, made on first read."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        super().__init__()
        self.bits = bits  # bit i -> the bit of its image

    def __missing__(self, mask):
        self[mask] = image = sum(masked(self.bits, mask))
        return image


class _ElementImages(dict):
    """p -> the _BitImages of the group element p on masks over the
    v-points, made on first read: the translates read only the generators
    and the sifted subgroup generators."""

    __slots__ = ("v_points", "position")

    def __init__(self, v_points):
        super().__init__()
        self.v_points = v_points
        self.position = {v: i for i, v in enumerate(v_points)}

    def __missing__(self, p):
        position = self.position
        self[p] = images = _BitImages([1 << position[p[v]]
                                       for v in self.v_points])
        return images


@dataclass(frozen=True)
class PairSpace:
    """A finite G-invariant pair set X inside V x Z with a metric on V,
    stored as its z-fibers V_z = {v : (v, z) in X}, each a mask over
    v_points."""

    v_points: tuple  # ascending; bit i of a mask stands for v_points[i]
    fibers: dict  # every z-point -> the mask of V_z, empty fibers included
    dist: dict  # v -> its row, row[w] = d(v, w): a dict, or a list by vertex
    group: GroupModel  # p acts on the v-points as the permutation it is
    act_z: dict  # p -> {z: p z}, a list when the z-points are 0..k-1
    z_over: dict  # every v-point in some fiber -> Z_v = {z : (v, z) in X}
    # p -> {mask: p.mask}, made on first read, one memo that every cover of
    # the space shares
    images: dict = field(compare=False, repr=False)


class Slices(dict):
    """A set of pairs (v, z) as its slices {z: nonzero mask of its v}.

    Hashable, so it must not change once in use; equal slices are equal
    pair sets.
    """

    __slots__ = ("_hash",)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self.items()))
            return self._hash


def slices_of(pairs) -> Slices:
    """The slices of a collection of pairs (i, z), i a v-point's position,
    so bit i of z's mask: for a pair (g, x) of a group element and a
    point, the element's number."""
    over = {}
    for i, z in pairs:
        over[z] = over.get(z, 0) | 1 << i
    return Slices(over)


def _translate(space: PairSpace, p, slices):
    """p.slices; each v-set's image is made once per element and kept in
    space.images, so translates of slices sharing a v-set share it."""
    if p == space.group.identity:
        return slices
    image, az = space.images[p], space.act_z[p]
    return Slices([(az[z], image[vs]) for z, vs in slices.items()])


def pair_space(v_points, fibers, dist, group: GroupModel,
               act_z) -> PairSpace:
    """Assemble a PairSpace from its ascending v-points and its z-fibers,
    each z-point -> the mask of the v-points over it, with Z_v read off
    them."""
    v_points = tuple(v_points)
    if list(v_points) != sorted(v_points):
        raise ValueError("the v-points must be ascending")
    over = [[] for _ in v_points]  # position -> the z-points over it
    adds = [zs.append for zs in over]
    for z, fiber in fibers.items():
        for add in masked(adds, fiber):
            add(z)
    return PairSpace(v_points, fibers, dist, group, act_z,
                     {v: frozenset(zs) for v, zs in zip(v_points, over)
                      if zs}, _ElementImages(v_points))


def _ball(space: PairSpace, v, radius):
    """The mask of the v-points within radius of v."""
    row = space.dist[v]
    return sum(compress(map((1).__lshift__, count()),
                        [row[w] <= radius for w in space.v_points]))


# ---------------------------------------------------------------------------
# Doubling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoublingReport:
    witness: tuple = None  # (alpha, center, separated_points) on failure

    @property
    def ok(self):
        return self.witness is None


def _dense_distances(points, dist):
    """Dense distances among points, indexed by their position in it.
    dist is the metric as a function dist(a, b), or as rows, dist[a][b] =
    d(a, b), each row a dict or a list by vertex, read once at the points."""
    if callable(dist):
        return [[dist(a, b) for b in points] for a in points]
    return [list(map(dist[a].__getitem__, points)) for a in points]


def _far_core(dist, k, R):
    """The positions of the k-core of the far graph, whose edges join
    positions more than R apart, ascending.  A position with fewer than k
    far neighbours left is in no k + 1 pairwise far positions; peeling it
    lowers its neighbours' counts (Batagelj and Zaversnik's peel)."""
    far = [[j for j, d in enumerate(row) if d > R and j != i]
           for i, row in enumerate(dist)]
    deg = list(map(len, far))
    low = [i for i, n in enumerate(deg) if n < k]
    while low:
        for j in far[low.pop()]:
            deg[j] -= 1
            if deg[j] == k - 1:
                low.append(j)
    return [i for i, n in enumerate(deg) if n >= k]


def _violating_set(pts, dist, size, R):
    """A size-subset with pairwise gaps above R fitting a ball of radius
    strictly below twice its minimum gap, or None.

    pts is sorted and dist its dense distance matrix.  Such a set is
    exactly a doubling violation: with s its minimum pairwise gap and r its
    covering radius, every scale alpha in [max(R, r/2), s) separates it
    inside a 2*alpha ball.  The search prunes on the coupling: adding
    points only shrinks the gap and grows the radius.  Each node keeps the
    positions still more than R from every selected point, and the
    distance from each center to its farthest selected point.  The
    points of such a set are pairwise far, so the search selects only
    positions of the far graph's (size - 1)-core; the centers still range
    over every point.
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

    rec(_far_core(dist, size - 1, R), [], INF, [0] * len(pts))
    return found[0] if found else None


def doubling_check(points, dist, D, R) -> DoublingReport:
    """Verify the (D, R)-doubling property of a finite metric set.

    For every alpha >= R, every alpha-separated subset (pairwise distances
    strictly above alpha) of every closed 2*alpha ball centered at a point
    of the set must have at most D points.  Scanning scales is equivalent
    to one subset search, see _violating_set, on the distances dist gives
    among the sorted points (a function or rows, see _dense_distances).
    """
    pts = sorted(points)
    hit = _violating_set(pts, _dense_distances(pts, dist), D + 1, R)
    if hit is None:
        return DoublingReport()
    sel, sep, rad, center = hit
    alpha = max(R, rad / 2)
    return DoublingReport((alpha, center, tuple(sel)))


def minimal_doubling_constant(points, dist, R) -> int:
    """The smallest D for which the (D, R)-doubling property holds."""
    pts = sorted(points)
    if not pts:
        return 0
    dist = _dense_distances(pts, dist)
    best = 1
    while _violating_set(pts, dist, best + 1, R) is not None:
        best += 1
    return best


def minimal_doubling_radius(points, dist, D):
    """The smallest R for which the (D, R)-doubling property holds.

    The property only weakens as R grows, so a binary search over realized
    gaps finds the tightest passing threshold.
    """
    pts = sorted(points)
    dist = _dense_distances(pts, dist)
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
    slices: Slices  # z -> the mask of the member's v-set over z
    stabilizer: frozenset
    orbit_rep: bool

    def points(self, v_points):
        """The member's pairs (v, z), its slices decoded over v_points."""
        return frozenset((v, z) for z, vs in self.slices.items()
                         for v in masked(v_points, vs))


@dataclass(frozen=True)
class Cover:
    members: tuple
    alpha: float
    order: int

    def member_slices(self):
        return [m.slices for m in self.members]

    def __len__(self):
        return len(self.members)


def _held(member_slices):
    """Each z-point some member meets -> the members' slices over it, in
    member order."""
    held = {}
    for slices in member_slices:
        for z, vs in slices.items():
            held.setdefault(z, []).append(vs)
    return held


def _fiber_order(fiber, held):
    """The most of the slices held sharing one point of the fiber, less
    one: -1 when they hold none of its points."""
    if len(held) == 1:
        return 0 if fiber & held[0] else -1
    # levels[k] holds the points of the fiber in more than k of the slices
    # seen so far: each slice adds its points to a level and carries those
    # already there up to the next, as in a carry-save counter
    levels = []
    for vs in held:
        m = fiber & vs
        for k in range(len(levels)):
            levels[k], m = levels[k] | m, levels[k] & m
        if m:
            levels.append(m)
    return len(levels) - 1


def cover_order(member_slices, fibers) -> int:
    """The most members sharing one point of the domain, less one (-1 when
    the domain is empty); the domain is given by its fibers {z: mask of
    v}, and the count is made one z-point at a time."""
    held = _held(member_slices)
    return max((_fiber_order(fiber, held.get(z, ()))
                for z, fiber in fibers.items()), default=-1)


def wide_failures(member_slices, group: GroupModel, alpha, pairs):
    """Yield, in input order, each pair (g, x) whose ball slice
    {(g h, x) : h in group.ball(alpha)} no member holds: the pairs at which
    the members fail to be alpha-wide.  g is an element's number, and the
    v-sets are masks over group.elements, bit i for the element numbered
    i.  Each ball is made once per call, g h read off row h at g, and
    tested, ball & ~slice == 0, against the slices over x alone, which one
    index of the members by z-point lists."""
    rows = list(map(group.products.__getitem__, group.ball(alpha)))
    outside = {x: [~vs for vs in held]
               for x, held in _held(member_slices).items()}
    balls = {}
    for g, x in pairs:
        ball = balls.get(g)
        if ball is None:
            ball = balls[g] = sum(1 << row[g] for row in rows)
        if all(map(ball.__and__, outside.get(x, ()))):
            yield g, x


@dataclass(frozen=True)
class BasisTriple:
    v: object
    zset: frozenset
    subgroup: frozenset


class BasisError(ValueError):
    pass


def fiber_basis(space: PairSpace, alpha):
    """One triple per orbit of v-points carrying the full z-fiber.

    The annotated subgroup is generated by every element moving the v-point
    at most 4*alpha while overlapping the fiber, which is exactly what the
    separation condition requires.  Coarser in the z-direction than one
    triple per orbit of pairs, which pullbacks along flows need.  The
    z-set of v is Z_v, read off space.z_over.
    """
    seen = set()
    triples = []
    for v in sorted(space.v_points):
        if v in seen:
            continue
        seen.update(p[v] for p in space.group.elements)
        fiber = space.z_over.get(v)
        if fiber is None:
            continue
        gens = [p for p in space.group.elements
                if space.dist[p[v]][v] <= 4 * alpha
                and any(space.act_z[p][z] in fiber for z in fiber)]
        triples.append(BasisTriple(v, fiber, subgroup_generated(space.group, gens)))
    return triples


def _saturate(space: PairSpace, core, gens):
    """The union of the translates a.core over the subgroup generated by
    gens: core closed under gens, a batch of new v-points over one z-point
    at a time, returned as slices."""
    if not gens:
        return core
    acts = [(space.images[s], space.act_z[s]) for s in gens]
    out = Slices(core)
    queue = list(core.items())
    for z, vs in queue:  # the queue grows while it is walked
        for image, az in acts:
            sz = az[z]
            over = out.get(sz, 0)
            new = image[vs] & ~over
            if new:
                out[sz] = over | new
                queue.append((sz, new))
    return out


def _check_alpha(alpha):
    # longness is read off the pair's own holders, which needs (v, z) in
    # its own alpha-neighbourhood; a negative scale makes every check vacuous
    if alpha < 0:
        raise ValueError("alpha must be nonnegative, got %r" % (alpha,))


def _uncovered(space: PairSpace, basis, at):
    """The pairs (v, z), v in at, that no translated basis block holds;
    a translate p.t holds pairs over p.t.v alone."""
    G, covered = space.group, {}  # v -> the z-points translates put v over
    for t in basis:
        for p in G.elements:
            if p[t.v] in at:
                az = space.act_z[p]
                covered.setdefault(p[t.v], set()).update(
                    t.zset if p == G.identity else [az[z] for z in t.zset])
    return sorted((v, z) for v in at
                  for z in space.z_over[v] - covered.get(v, _EMPTY))


def greedy_cover(space: PairSpace, alpha, basis) -> Cover:
    """The packing-driven equivariant cover of the pair set.

    Basis z-sets are subtracted along earlier nearby translates, fattened to
    closed 2*alpha balls in the v-direction, intersected with the pair set
    and saturated.  Determinism: ties follow basis order and sorted group
    elements.

    Coverage is checked at the least v-point of each orbit, and a gap is
    reported from a scan of every v-point: the pair set and the translated
    blocks are G-invariant, so a gap at (v, z) gives one at each p.(v, z).

    Each saturated set contributes its orbit, walked along the generators
    (which generate the group, see the symmetry module); orbits are equal
    or disjoint.  The member W = p.saturated, p in the coset t_W.Stab, is
    annotated with the first such p in G.elements order, and members come
    in that order.
    """
    _check_alpha(alpha)
    G = space.group
    act_z, identity, z_over = space.act_z, G.identity, space.z_over
    # precondition: each basis block sits inside the pair set
    for i, t in enumerate(basis):
        if not t.zset <= z_over.get(t.v, _EMPTY):
            raise BasisError("basis %d: z-set leaves the fiber of %r" % (i, t.v))
        if not is_subgroup(G, t.subgroup):
            raise BasisError("basis %d: annotation is not a subgroup" % i)
    # precondition: separation condition at scale 4*alpha
    for i, t in enumerate(basis):
        for p in G.elements:
            if p in t.subgroup or space.dist[p[t.v]][t.v] > 4 * alpha:
                continue
            if any(act_z[p][z] in t.zset for z in t.zset):
                raise BasisError(
                    "basis %d: element %r moves the block onto itself" % (i, p))
    # precondition: translated basis blocks cover every fiber
    reps = z_over if len(G) == 1 else {
        v for v in z_over if all(p[v] >= v for p in G.elements)}
    if _uncovered(space, basis, reps):
        raise BasisError("basis does not cover the pair set, e.g. %r"
                         % (_uncovered(space, basis, z_over)[:3],))

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
                if row[p[vj]] <= alpha:
                    if p == identity:
                        zset -= reduced[j]
                    else:
                        az = act_z[p]
                        zset.difference_update([az[z] for z in reduced[j]])
        reduced.append(frozenset(zset))

    translate = partial(_translate, space)
    rank, products = G.rank, G.products
    members = []
    seen_sets = set()
    for i, t in enumerate(basis):
        if not reduced[i]:
            continue
        ball = _ball(space, t.v, 2 * alpha)
        core = Slices((z, space.fibers[z] & ball) for z in reduced[i])
        saturated = _saturate(space, core, sifted_generators(G, t.subgroup))
        if saturated in seen_sets:
            continue
        orbit, stab = set_orbit(saturated, G, translate)
        seen_sets.update(orbit)
        # the first element of each coset t_W Stab: t_W h is row h at t_W
        rows, firsts = [products[rank[h]] for h in stab], []
        for W, tw in orbit.items():
            c = rank[tw]
            firsts.append((min(row[c] for row in rows), W))
        firsts.sort(key=lambda f: f[0])
        for k, (r, W) in enumerate(firsts):
            members.append(CoverMember(
                W, conjugate(G, G.elements[r], t.subgroup) if r
                else t.subgroup, k == 0))
    order = cover_order([m.slices for m in members], space.fibers)
    return Cover(tuple(members), alpha, order)


def _not_long(space: PairSpace, alpha, balls, fiber, held):
    """The least position of one fiber whose v is not long, or -1: (v, z)
    is long when a slice held holds need, v and the fiber's points within
    alpha of v, as a slice holding the whole fiber does.  balls keeps the
    alpha-ball mask of each position made so far."""
    outside = [~vs for vs in held]
    if not all(map(fiber.__and__, outside)):
        return -1
    for i in masked(count(), fiber):
        ball = balls.get(i)
        if ball is None:
            ball = balls[i] = _ball(space, space.v_points[i], alpha)
        need = ball & fiber | 1 << i
        if all(map(need.__and__, outside)):
            return i
    return -1


def _meets(a, b):
    """Whether the pair sets of two slices meet."""
    return any(z in b and vs & b[z] for z, vs in a.items())


@dataclass(frozen=True)
class CoverReport:
    failures: tuple  # (kind, detail), at most one of each kind

    @property
    def ok(self):
        return not self.failures


def verify_cover(cover: Cover, space: PairSpace, alpha,
                 family: SubgroupFamily) -> CoverReport:
    """Independent check of order, longness, invariance and F-subsetness.

    Order and longness are checked one z-point at a time, on the members'
    slices over it (_fiber_order, _not_long), as int algebra on the masks.
    The least pair (v, z) that is not long is reported, and an order other
    than the stated cover.order fails.  Translates share the space's memo
    of images with greedy_cover.

    Invariance and F-subsetness walk the generators, which generate the
    group (see the symmetry module).  A generator maps the finite pool of
    member sets injectively, so a pool each generator maps into itself is
    G-invariant.  The first member m of each orbit, in cover order, gets
    the check of is_F_subset on the orbit set_orbit walks.  It transfers
    to m' = g.m: m' meets h.m' exactly when m meets (g^-1 h g).m, and
    Stab(m') = g Stab(m) g^-1 is tested against the family directly, which
    need not be closed under conjugation.
    Failures name the first failing generator or member; the members'
    annotations are not read.
    """
    _check_alpha(alpha)
    failures = []
    sets = cover.member_slices()
    held = _held(sets)
    order, least, balls = -1, None, {}
    for z, fiber in space.fibers.items():
        over = held.get(z, ())
        order = max(order, _fiber_order(fiber, over))
        bad = _not_long(space, alpha, balls, fiber, over)
        if bad >= 0 and (least is None or (space.v_points[bad], z) < least):
            least = (space.v_points[bad], z)
    if least is not None:
        failures.append(("not-long", least))

    G = space.group
    translate = partial(_translate, space)
    set_pool = set(sets)
    for s in G.generators:
        if any(translate(s, m) not in set_pool for m in set_pool):
            failures.append(("not-invariant", s))
            break

    checked = {}  # translate of a checked member -> (t, member's stabilizer)
    for idx, m in enumerate(sets):
        if not m:
            continue
        if m in checked:
            ok = family.contains(conjugate(G, *checked[m]), G)
        else:
            orbit, stab = set_orbit(m, G, translate)
            ok = (not any(_meets(W, m) for W in orbit if W != m)
                  and family.contains(stab, G))
            checked.update((W, (t, stab)) for W, t in orbit.items())
        if not ok:
            failures.append(("not-f-subset", idx))
            break

    if order != cover.order:
        failures.append(("order-mismatch", (cover.order, order)))
    return CoverReport(tuple(failures))
