"""Coarse flow spaces on barycentric subdivisions and their covers.

A flow-space point is a triple (v, xi-, xi+): a midpoint vertex v together
with an ordered pair of endpoint surrogates, admitted when v lies within
chain-metric distance delta' = delta + 1 of a midpoint on some small
geodesic between the endpoints.  Endpoint surrogates are midpoint vertices
standing in for ideal points; distances between midpoints are integers in
original units, so every bound here is exact integer arithmetic.

The points are stored once, fiber by fiber: fibers maps (xi-, xi+) to the
set of admitted v.  Both uses read them that way, the doubling report per
fiber and the cover on the pair space whose z-fibers are these sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .angles import (
    AngleSet,
    SmallnessOracle,
    angle_sum,
    d_theta,
    geodesic_angles,
    k_fold_sum,
    small_carriers,
    small_steps,
    theta3,
)
from .covers import (
    Cover,
    CoverMember,
    PairSpace,
    cover_order,
    doubling_check,
    fiber_basis,
    greedy_cover,
    minimal_doubling_constant,
    minimal_doubling_radius,
    pair_space,
    wide_failures,
)
from .graphs import GeodesicIndex, Subdivision, slimness_constant
from .symmetry import GroupModel, trivial_group

if TYPE_CHECKING:
    from .pipeline import Instance


@dataclass(frozen=True)
class CoarseFlowSpace:
    sub: Subdivision
    theta: AngleSet
    delta: int
    endpoints: tuple
    fibers: dict  # (xi-, xi+) -> the admitted midpoints v
    metric: dict  # the chain metric d_theta, midpoint -> {midpoint: distance}
    group: GroupModel
    index: GeodesicIndex
    lines: dict  # (xi-, xi+) -> the vertices on small xi- -> xi+ geodesics

    @property
    def delta_prime(self):
        return self.delta + 1

    @property
    def triples(self):
        """The points (v, xi-, xi+), read off the fibers."""
        return frozenset((v, xm, xp) for (xm, xp), fiber in self.fibers.items()
                         for v in fiber)


def build_cf_theta(sub: Subdivision, theta: AngleSet, endpoint_set,
                   group: GroupModel = None, delta: int = None,
                   index: GeodesicIndex = None,
                   theta3_set: AngleSet = None) -> CoarseFlowSpace:
    """Materialize the coarse flow space over ordered endpoint pairs.

    Requires theta to contain the doubled triangle-corner size of the
    subdivision and to be invariant under the group, which must act on the
    subdivided graph (default trivial); the endpoint set is saturated under
    the group so that the point set is invariant.  Equal endpoint pairs
    mean constant flow lines and are excluded.  Each pair's line, the
    vertices on its small geodesics, comes from one small-step sweep per
    endpoint; its fiber is the delta'-ball around the line's midpoints.
    Each unordered pair is swept once and its line and fiber stored under
    both orders: a reversed small geodesic is small, since angles are
    unordered, so small_carriers is symmetric in its two ends.
    """
    g = sub.graph
    if not g.is_connected():
        raise ValueError("subdivided graph must be connected")
    if group is None:
        group = trivial_group(g)
    elif group.graph != g:
        raise ValueError("the group must act on the subdivided graph")
    if index is None:
        index = GeodesicIndex(g)
    if theta3_set is None:
        theta3_set = theta3(sub, index=index)
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

    metric = d_theta(sub, theta)
    oracle = SmallnessOracle(sub, theta)
    balls = {v: frozenset(w for w, dw in row.items() if dw <= delta + 1)
             for v, row in metric.items()}
    steps = {x: small_steps(index, oracle, x) for x in endpoints}
    lines = {}
    fibers = {}
    for i, xm in enumerate(endpoints):
        for xp in endpoints[i + 1:]:
            line = small_carriers(index, oracle, steps[xm], steps[xp], xm, xp)
            fiber = frozenset().union(
                *(balls[v] for v in line if sub.is_midpoint(v)))
            for key in ((xm, xp), (xp, xm)):
                lines[key] = line
                fibers[key] = fiber
    return CoarseFlowSpace(sub, theta, delta, endpoints, fibers, metric,
                           group, index, lines)


def cf_doubling_report(cf: CoarseFlowSpace, compute_tightest=False) -> dict:
    """Doubling certificates for every fiber in the chain metric.

    The required constants are D = 5 and R = 24 * delta' + 12.  Doubling is
    hereditary: a violation in a fiber, D + 1 points pairwise farther than
    some alpha >= R inside a 2 * alpha ball around a point of the fiber, is
    a violation in every larger fiber, since all fibers share the chain
    metric.  So each distinct fiber set gets a home, the first maximal set
    under inclusion that contains it, largest first; every maximal set is
    checked once, and a fiber is checked on its own only when its home
    fails.  failures lists every failing fiber key, in key order, with its
    own witness.  With compute_tightest, the report also carries the
    tightest (D, R) realized across fibers; both grow with the fiber, so
    they are maxima over the maximal sets.
    """
    R = 24 * cf.delta_prime + 12
    keys = sorted(cf.fibers)
    home = {}
    maximal = []
    for fiber in sorted(dict.fromkeys(cf.fibers[k] for k in keys),
                        key=len, reverse=True):
        home[fiber] = next((m for m in maximal if fiber <= m), fiber)
        if home[fiber] is fiber:
            maximal.append(fiber)
    reports = {}
    rows = cf.metric

    def d(a, b):
        return rows[a][b]

    def check(fiber):
        if fiber not in reports:
            reports[fiber] = doubling_check(fiber, d, 5, R)
        return reports[fiber]

    failures = []
    for key in keys:
        fiber = cf.fibers[key]
        if not check(home[fiber]).ok:
            rep = check(fiber)
            if not rep.ok:
                failures.append((key, rep.witness))
    tightest_d = tightest_r = None
    if compute_tightest:
        tightest_d = tightest_r = 0
        for fiber in maximal:
            tightest_d = max(tightest_d, minimal_doubling_constant(
                fiber, d, R))
            tightest_r = max(tightest_r, minimal_doubling_radius(
                fiber, d, 5))
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
    """The flow space as pairs (v, (xi-, xi+)) over the midpoints, with the
    chain metric's rows; its z-fibers are cf's fibers.  A group element acts
    on the midpoints as the permutation it is."""
    act_v = {p: p for p in cf.group.elements}
    act_z = {p: {z: (p[z[0]], p[z[1]]) for z in cf.fibers}
             for p in cf.group.elements}
    return pair_space(cf.sub.ve_vertices(), cf.fibers, cf.metric,
                      group=cf.group, act_v=act_v, act_z=act_z)


def cover_cf(space: PairSpace, alpha_prime) -> Cover:
    """Long thin cover of the flow space, alpha'-long in the chain metric.

    space is cf_pair_space(cf), built once by a caller that also verifies
    the cover or pulls it back.
    """
    return greedy_cover(space, alpha_prime, fiber_basis(space, alpha_prime))


# ---------------------------------------------------------------------------
# Pullback to pairs (group element, endpoint)
# ---------------------------------------------------------------------------


def _line(cf: CoarseFlowSpace, gv0, xi):
    """The small carriers from gv0 to xi, two distinct endpoints of cf."""
    line = cf.lines.get((gv0, xi))
    if line is None:
        raise ValueError("(%r, %r) is not a pair of distinct flow-space "
                         "endpoints" % (gv0, xi))
    return line


def eligible_targets(cf: CoarseFlowSpace, v0, xi_set=None):
    """Pairs (g, xi) admitting a nonconstant small geodesic from g v0 to xi."""
    xi_set = cf.endpoints if xi_set is None else tuple(xi_set)
    out = []
    for g in cf.group.elements:
        gv0 = g[v0]
        for xi in xi_set:
            if gv0 != xi and _line(cf, gv0, xi):
                out.append((g, xi))
    return tuple(out)


def ball_closed_targets(cf: CoarseFlowSpace, v0, alpha, xi_set=None):
    """Eligible pairs whose whole word-metric ball stays eligible.

    Ideal endpoints of the infinite picture are never orbit points of the
    base vertex, so their finite surrogates must keep clear of the ball
    translates; pairs violating that are dropped here rather than silently
    failing every scan.
    """
    eligible = frozenset(eligible_targets(cf, v0, xi_set))
    pairs = sorted(eligible, key=lambda t: (t[1], t[0]))
    dropped = set(wide_failures([eligible], cf.group, alpha, pairs))
    return tuple(t for t in pairs if t not in dropped)


def pullback_cover(cf: CoarseFlowSpace, cover: Cover, tau, targets, v0) -> Cover:
    """Pull a flow-space cover back through time-tau flow lines.

    A pair (g, xi) lands in the pullback of W when every small geodesic c
    from g v0 to xi has its midpoint vertex at distance tau in W's slice
    over (g v0, xi).  Pairs with flow lines shorter than tau are excluded
    from every pullback member.  Intersections commute with the operation,
    so the order never grows.
    """
    if tau != int(tau) or tau < 0:
        raise ValueError("tau must be a nonnegative integer in original units")
    tau = int(tau)
    if not cf.sub.is_midpoint(v0):
        raise ValueError("base vertex must be a midpoint vertex")
    # layer 2*tau in the subdivision is distance tau in original units
    tau_sets = {}
    for (g, xi) in targets:
        gv0 = g[v0]
        if gv0 == xi:
            raise ValueError("target (%r, %r) has a constant flow line" % (g, xi))
        line = _line(cf, gv0, xi)
        if not line:
            raise ValueError("target pair admits no small geodesic")
        d0 = cf.index.dist[gv0]
        if d0[xi] < 2 * tau:
            tau_sets[(g, xi)] = None  # too short: excluded everywhere
        else:
            tau_sets[(g, xi)] = frozenset(v for v in line if d0[v] == 2 * tau)
    members = []
    seen = set()
    for m in cover.members:
        pts = set()
        for (g, xi) in targets:
            tv = tau_sets[(g, xi)]
            if tv is None:
                continue
            z = (g[v0], xi)
            if all((v, z) in m.points for v in tv):
                pts.add((g, xi))
        pts = frozenset(pts)
        if not pts or pts in seen:
            continue
        seen.add(pts)
        members.append(CoverMember(pts, m.stabilizer, m.orbit_rep))
    order = cover_order([m.points for m in members], targets)
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
    containing its whole word-metric ball slice; the first failing target
    is the witness for that tau.  On finite models the scan may exhaust;
    that outcome is reported, not asserted away.
    """
    G = cf.group
    failures = [(None, t, "ball leaves eligible pairs")
                for t in wide_failures([frozenset(targets)], G, alpha, targets)]
    if failures:
        return ScanReport(None, tuple(failures[:8]), None)
    for tau in tau_range:
        pull = pullback_cover(cf, cover, tau, targets, v0)
        bad = next(wide_failures(pull.member_sets(), G, alpha, targets), None)
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
    result also contains the doubled corner size, so it is ready for the
    flow space hypothesis.  Its fitness is checked extensionally by the
    wideness scan, never assumed.
    """
    sub_group = inst.sub_group
    ball = [p[inst.v0] for p in sub_group.ball(alpha)]
    pairs = [(a, b) for a in ball for b in ball]
    theta1 = geodesic_angles(inst.index, inst.sub, pairs).saturate(sub_group)
    t3_2 = k_fold_sum(inst.t3, 2)
    x = angle_sum(theta0.union(theta1), k_fold_sum(inst.t3, 3))
    out = angle_sum(theta1, angle_sum(x, x))
    out = out.union(angle_sum(theta0, x))
    out = out.union(angle_sum(theta0, t3_2))
    return out.union(t3_2)
