"""Coarse flow spaces on barycentric subdivisions and their covers.

A flow-space point is a triple (v, xi-, xi+): a midpoint vertex v together
with an ordered pair of endpoint surrogates, admitted when v lies within
chain-metric distance delta' = delta + 1 of a midpoint on some small
geodesic between the endpoints.  Endpoint surrogates are midpoint vertices
standing in for ideal points; distances between midpoints are integers in
original units, so every bound here is exact integer arithmetic.

The points are stored once, fiber by fiber: fibers maps (xi-, xi+) to the
mask of admitted v (bit v for vertex v), and classes groups the pairs by
equal fiber, numbering each distinct fiber in the order of its least pair,
which least keeps.  The doubling report checks their union, and each
distinct fiber only when the union fails; the cover works on the pair
space whose z-points are the class numbers, on which the group acts by
lists composed along its generators, and the pullback reads it through
each pair's class number.
A fiber is decoded only where its points are read: once per class for
Z_v, in the union the doubling report checks, and where they are named;
the class numbers are decoded to endpoint pairs only for a document.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import count
from operator import or_
from typing import TYPE_CHECKING

from .angles import (
    AngleSet,
    SmallnessOracle,
    angle_sum,
    d_theta,
    geodesic_angles,
    k_fold_sum,
    small_lines,
)
from .covers import (
    Cover,
    CoverMember,
    PairSpace,
    Slices,
    cover_order,
    doubling_check,
    fiber_basis,
    greedy_cover,
    masked,
    minimal_doubling_constant,
    minimal_doubling_radius,
    pair_space,
    slices_of,
    wide_failures,
)
from .graphs import GeodesicIndex, Subdivision, slimness_constant
from .symmetry import GroupModel, close_group

if TYPE_CHECKING:
    from .pipeline import Instance


@dataclass(frozen=True)
class CoarseFlowSpace:
    sub: Subdivision
    delta: int
    endpoints: tuple
    fibers: dict  # (xi-, xi+) -> bitmask of the admitted midpoints v
    metric: dict  # d_theta's rows: midpoint -> a list by vertex, see there
    group: GroupModel
    index: GeodesicIndex
    lines: dict  # (xi-, xi+) -> bitmask of the small xi- -> xi+ carriers
    classes: dict  # a fiber's bitmask -> its class number
    least: tuple  # class number -> the least endpoint pair of the class

    @property
    def delta_prime(self):
        return self.delta + 1

    @property
    def triples(self):
        """The points (v, xi-, xi+), each distinct fiber decoded once."""
        decoded = {f: tuple(masked(count(), f)) for f in self.classes}
        return frozenset((v, xm, xp) for (xm, xp), f in self.fibers.items()
                         for v in decoded[f])


def build_cf_theta(sub: Subdivision, theta: AngleSet, endpoint_set,
                   group: GroupModel = None, delta: int = None, *,
                   index: GeodesicIndex,
                   theta3_set: AngleSet) -> CoarseFlowSpace:
    """Materialize the coarse flow space over ordered endpoint pairs.

    Requires theta to contain the doubled triangle-corner size of the
    subdivision and to be invariant under the group, which must act on the
    subdivided graph (default trivial); the endpoint set is saturated under
    the group so that the point set is invariant; index and theta3_set are
    the subdivision's, as pipeline.Instance holds them.  Equal endpoint
    pairs mean constant flow lines and are excluded.  Each pair's line, the
    vertices on its small geodesics, and its fiber, the delta'-ball around
    the line's midpoints, come from one small_lines sweep from the pair's
    lesser end: with n vertices, the weight of v is v's bit joined with
    the bitmask of v's delta'-ball shifted by n (no ball at an original
    vertex), so the low n bits of a target's OR are its line and the rest
    its fiber; d_theta gives the balls with the metric, off the sweeps'
    oracle.  Lines and fibers are kept as bitmasks, and the pairs are
    grouped by equal fiber as they come.  Each unordered pair is built once
    and its line and fiber stored under both orders, since a line is
    symmetric in its two ends.  The sweeps find their own layers, so no
    distance row of index is filled here.

    classes numbers each distinct fiber as it first appears, and least
    records the pair it appears at.  The pairs come in lexicographic
    order, xm ascending and xp ascending after it (small_lines keeps the
    order of its targets), and the least pair over a fiber has xm < xp, as
    (xm, xp) < (xp, xm) then.  So a fiber first appears at its least pair,
    and the numbers ascend with the least pairs: no pair needs comparing.
    """
    g = sub.graph
    if not g.is_connected():
        raise ValueError("subdivided graph must be connected")
    if group is None:
        group = close_group(g, ())
    elif group.graph != g:
        raise ValueError("the group must act on the subdivided graph")
    if not k_fold_sum(theta3_set, 2) <= theta:
        raise ValueError("theta must contain the doubled corner size")
    if delta is None:
        delta = slimness_constant(sub.original).delta
    if not theta.is_invariant(group):
        raise ValueError("theta is not invariant under the group")
    endpoints = set(endpoint_set)
    for v in endpoint_set:
        if not sub.is_midpoint(v):
            raise ValueError("endpoint %r is not a midpoint vertex" % (v,))
        for p in group.elements:
            endpoints.add(p[v])
    endpoints = tuple(sorted(endpoints))

    oracle = SmallnessOracle(sub, theta)
    metric, balls = d_theta(sub, oracle, delta + 1)
    n = g.vertex_count
    weight = [1 << v | ball << n for v, ball in enumerate(balls)]
    lines, fibers, classes, least = {}, {}, {}, []
    for i, xm in enumerate(endpoints):
        for xp, m in small_lines(oracle, xm, endpoints[i + 1:],
                                 weight).items():
            f = m >> n
            lines[xm, xp] = lines[xp, xm] = m & (1 << n) - 1
            fibers[xm, xp] = fibers[xp, xm] = f
            if f not in classes:
                classes[f] = len(least)
                least.append((xm, xp))
    return CoarseFlowSpace(sub, delta, endpoints, fibers, metric,
                           group, index, lines, classes, tuple(least))


def cf_doubling_report(cf: CoarseFlowSpace, compute_tightest) -> dict:
    """Doubling certificates for every fiber in the chain metric.

    The required constants are D = 5 and R = 24 * delta' + 12.  Doubling is
    hereditary: a violation in a fiber, D + 1 points pairwise farther than
    some alpha >= R inside a 2 * alpha ball around a point of the fiber, is
    a violation in every larger set, since all fibers share the chain
    metric.  So one passing check of the union of the fibers certifies
    every fiber; only when the union fails is each distinct fiber, each
    key of cf.classes, checked, and failures lists every failing fiber
    key, in key order, with its own witness.  With compute_tightest, the
    report also carries the tightest (D, R) realized across fibers; both
    grow with the fiber, so they are maxima over the fibers maximal under
    inclusion.
    """
    R = 24 * cf.delta_prime + 12
    rows = cf.metric

    def points(fiber):
        return list(masked(count(), fiber))

    distinct = cf.classes
    failures = []
    if not doubling_check(points(reduce(or_, distinct, 0)), rows, 5, R).ok:
        reports = {fiber: doubling_check(points(fiber), rows, 5, R)
                   for fiber in distinct}
        failures = [(key, reports[fiber].witness)
                    for key, fiber in sorted(cf.fibers.items())
                    if not reports[fiber].ok]
    tightest_d = tightest_r = None
    if compute_tightest:
        tightest_d = tightest_r = 0
        for fiber in [f for f in distinct
                      if not any(f != m and f & ~m == 0 for m in distinct)]:
            tightest_d = max(tightest_d, minimal_doubling_constant(
                points(fiber), rows, R))
            tightest_r = max(tightest_r, minimal_doubling_radius(
                points(fiber), rows, 5))
    return {
        "ok": not failures,
        "D": 5,
        "R": R,
        "fibers": len(cf.fibers),
        "tightest_D": tightest_d,
        "tightest_R": tightest_r,
        "failures": failures,
    }


def cf_pair_space(cf: CoarseFlowSpace) -> PairSpace:
    """The flow space as a pair space over the midpoints, with the chain
    metric's rows.  Its z-points are the numbers of cf.classes, the
    classes of endpoint pairs with equal fibers: class r carries its
    fiber, shifted down to midpoint positions (the midpoints are the
    vertices from the original vertex count on), and act_z[p] is the list
    whose entry r is the class of p.z, z any pair of class r, well defined
    since fibers are equivariant, V_{p.z} = p.V_z.  A generator's list is
    looked up at each class's least pair, cf.least; every other element's is
    composed along the group's walk, act_z[a s] = act_z[a] read along
    act_z[s], s a generator; the walk reaches every element (see the
    symmetry module).

    Nothing is lost against one z-point per pair.  fiber_basis's Z_v is a
    union of whole classes, and subtraction along translates, the cores
    (which read V_z alone), saturation and the orbit walk each keep a set
    a union of whole classes.  So every member of the flow cover is
    constant on each class, and its order, longness, invariance and
    F-subset verdicts are the same on classes as on pairs; as the class
    numbers ascend with the least pairs, the least failing (v, r) of a
    not-long failure names the least failing pair, v over r's least pair.
    pullback_cover reads a class cover through each pair's class number;
    expand_cover places it on the endpoint pairs for a document.
    """
    G, names, fibers = cf.group, cf.classes, cf.fibers
    step = {G.rank[s]: [names[fibers[s[xm], s[xp]]] for xm, xp in cf.least]
            for s in G.generators}
    act = [list(range(len(names)))] + [None] * (len(G) - 1)
    for b, (a, s) in G.products.via.items():  # parents come first
        act[b] = list(map(act[a].__getitem__, step[s]))
    shift = cf.sub.original.vertex_count
    return pair_space(cf.sub.ve_vertices(),
                      {r: f >> shift for f, r in names.items()}, cf.metric,
                      G, dict(zip(G.elements, act)))


def cover_cf(space: PairSpace, alpha_prime) -> Cover:
    """Long thin cover of the flow space, alpha'-long in the chain metric.

    space is cf_pair_space(cf), built once by a caller that also verifies
    the cover; the cover is on its fiber classes.
    """
    return greedy_cover(space, alpha_prime, fiber_basis(space, alpha_prime))


def expand_cover(cf: CoarseFlowSpace, cover: Cover) -> Cover:
    """A cover on cf_pair_space(cf)'s fiber classes as a cover on endpoint
    pairs, as a cover document names them: each member's slice over a
    class number is placed on every pair of the class.  Order, stabilizers
    and orbit_rep flags carry over."""
    pairs = {}  # class -> the endpoint pairs in it
    for z, fiber in cf.fibers.items():
        pairs.setdefault(cf.classes[fiber], []).append(z)
    return Cover(tuple(
        CoverMember(Slices((z, vs) for r, vs in m.slices.items()
                           for z in pairs[r]),
                    m.stabilizer, m.orbit_rep)
        for m in cover.members), cover.alpha, cover.order)


# ---------------------------------------------------------------------------
# Pullback to pairs (group element, endpoint)
# ---------------------------------------------------------------------------


def _line(cf: CoarseFlowSpace, gv0, xi):
    """The bitmask of the small carriers from gv0 to xi, two distinct
    endpoints of cf."""
    line = cf.lines.get((gv0, xi))
    if line is None:
        raise ValueError("(%r, %r) is not a pair of distinct flow-space "
                         "endpoints" % (gv0, xi))
    return line


def eligible_targets(cf: CoarseFlowSpace, v0, xi_set):
    """Pairs (g, xi), g an element's number and xi in xi_set, admitting a
    nonconstant small geodesic from g v0 to xi."""
    out = []
    for g, p in enumerate(cf.group.elements):
        gv0 = p[v0]
        for xi in xi_set:
            if gv0 != xi and _line(cf, gv0, xi):
                out.append((g, xi))
    return tuple(out)


def ball_closed_targets(cf: CoarseFlowSpace, v0, alpha, xi_set):
    """Eligible pairs whose whole word-metric ball stays eligible.

    Ideal endpoints of the infinite picture are never orbit points of the
    base vertex, so their finite surrogates must keep clear of the ball
    translates; pairs violating that are dropped here rather than silently
    failing every scan.
    """
    eligible = frozenset(eligible_targets(cf, v0, xi_set))
    pairs = sorted(eligible, key=lambda t: (t[1], t[0]))
    dropped = set(wide_failures([slices_of(eligible)], cf.group, alpha,
                                pairs))
    return tuple(t for t in pairs if t not in dropped)


def pullback_cover(cf: CoarseFlowSpace, cover: Cover, tau, targets, v0) -> Cover:
    """Pull a flow-space cover back through time-tau flow lines.

    A pair (g, xi) lands in the pullback of W when every small geodesic c
    from g v0 to xi has its midpoint vertex at distance tau in W's slice
    over (g v0, xi).  Pairs with flow lines shorter than tau are excluded
    from every pullback member.  Intersections commute with the operation,
    so the order never grows.  cover is on cf_pair_space(cf)'s class
    numbers and is read through the class number of (g v0, xi), the
    pair's own slice in the cover expand_cover places on the endpoint
    pairs.  g is an element's number, and a pulled-back member is held as
    slices with z = xi and v = g, bit g of a mask over the group's
    elements.
    """
    if tau != int(tau) or tau < 0:
        raise ValueError("tau must be a nonnegative integer in original units")
    tau = int(tau)
    if not cf.sub.is_midpoint(v0):
        raise ValueError("base vertex must be a midpoint vertex")
    # layer 2*tau in the subdivision is distance tau in original units; the
    # vertices there are midpoints, from the original vertex count on
    shift, elements = cf.sub.original.vertex_count, cf.group.elements
    tau_sets = []  # (g's bit, xi, (g v0, xi)'s class number, its tau-set)
    spheres = {}  # g v0 -> the bitmask of the vertices at 2 tau from it
    for (g, xi) in targets:
        gv0 = elements[g][v0]
        if gv0 == xi:
            raise ValueError("target (%r, %r) has a constant flow line" % (g, xi))
        line = _line(cf, gv0, xi)
        if not line:
            raise ValueError("target pair admits no small geodesic")
        d0 = cf.index.dist[gv0]
        if d0[xi] >= 2 * tau:  # shorter lines are excluded everywhere
            if gv0 not in spheres:
                spheres[gv0] = sum(1 << v for v, dv in enumerate(d0)
                                   if dv == 2 * tau)
            tau_sets.append((1 << g, xi,
                             cf.classes[cf.fibers[gv0, xi]],
                             (line & spheres[gv0]) >> shift))
    members = []
    seen = set()
    for m in cover.members:
        over = {}
        slices = m.slices
        for bit, xi, r, tv in tau_sets:
            if tv & ~slices.get(r, 0) == 0:
                over[xi] = over.get(xi, 0) | bit
        pulled = Slices(over)
        if not pulled or pulled in seen:
            continue
        seen.add(pulled)
        members.append(CoverMember(pulled, m.stabilizer, m.orbit_rep))
    order = cover_order([m.slices for m in members], slices_of(targets))
    return Cover(tuple(members), cover.alpha, order)


@dataclass(frozen=True)
class ScanReport:
    passing_tau: int
    witness: tuple  # failing (tau, pair) samples on exhaustion
    cover: Cover  # the pullback at passing_tau, None on exhaustion

    @property
    def ok(self):
        return self.passing_tau is not None


def wideness_scan(cf: CoarseFlowSpace, cover: Cover, alpha, targets,
                  tau_range, v0) -> ScanReport:
    """Find the smallest tau making the pulled-back cover alpha-wide.

    For each tau: every target pair must have one pulled-back member
    containing its whole word-metric ball slice; the first failing target,
    g by its number, is the witness for that tau.  On finite models the
    scan may exhaust; that outcome is reported, not asserted away.
    """
    G = cf.group
    failures = [(None, t, "ball leaves eligible pairs") for t in
                wide_failures([slices_of(targets)], G, alpha, targets)]
    if failures:
        return ScanReport(None, tuple(failures[:8]), None)
    for tau in tau_range:
        pull = pullback_cover(cf, cover, tau, targets, v0)
        bad = next(wide_failures(pull.member_slices(), G, alpha, targets),
                   None)
        if bad is None:
            return ScanReport(tau, (), pull)
        failures.append((tau, bad, "no wide member"))
    return ScanReport(None, tuple(failures[:8]), None)


# ---------------------------------------------------------------------------
# Producing a size for angles that survives word-ball wobble
# ---------------------------------------------------------------------------


def theta_for_wideness(inst: Instance, alpha, theta0: AngleSet) -> AngleSet:
    """Enlarge theta0 so geodesics from word-ball translates of the base
    point to a common endpoint stay small, as do geodesics between them.

    Realized as a search: saturate all angles on geodesics among ball
    translates of the base vertex, then pad with composition room.  The
    p v0 -> q v0 geodesics are p applied to the v0 -> p^-1 q v0 ones, and
    p^-1 q runs over ball(2 alpha) as p, q run over ball(alpha), the word
    metric's generators being closed under inverses: after saturation the
    pairs (v0, r v0), r in ball(2 alpha), give the same angles.  The result
    also contains the doubled corner size, so it is ready for the flow
    space hypothesis.  Its fitness is checked extensionally by the wideness
    scan, never assumed.
    """
    sub_group, v0 = inst.sub_group, inst.v0
    elements = sub_group.elements
    pairs = [(v0, elements[h][v0]) for h in sub_group.ball(2 * alpha)]
    theta1 = geodesic_angles(inst.index, inst.sub, pairs).saturate(sub_group)
    t3_2 = k_fold_sum(inst.t3, 2)
    x = angle_sum(theta0.union(theta1), k_fold_sum(inst.t3, 3))
    out = angle_sum(theta1, angle_sum(x, x))
    out = out.union(angle_sum(theta0, x))
    out = out.union(angle_sum(theta0, t3_2))
    return out.union(t3_2)
