"""Cone-point covers around original vertices and the covering dichotomy.

A pair (g, xi) belongs to the cone set of an apex vertex v at size theta
when every geodesic from g v0 to v is theta-small and, for xi != v, some
geodesic from g v0 to xi turns theta-large at v.  Distinct apexes give
disjoint cone sets at the same size, so the three-layer collection built
here has order at most 2.  On finite targets every set is open; the
interior certificates track the sufficient condition for interiorness
separately instead of inventing a topology.

A pair names g by its number, its position in the lifted group's
elements, which is also its bit in every slice: the cone sets, their
certificates, the dichotomy's pairs and failures and the combined domain
hold numbers, and a permutation is read off elements only where g v0 or
g y is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from typing import TYPE_CHECKING

from .angles import AngleSet, SmallnessOracle, angle_sum, cone_sweep, \
    geodesic_angles, geodesic_turns, partial_sums, small_steps
from .covers import Cover, CoverMember, cover_order, masked, slices_of, \
    wide_failures
from .graphs import INF
from .symmetry import GroupModel

if TYPE_CHECKING:
    from .pipeline import Instance


def interior_certificate(inst: Instance, g, xi, apex, theta: AngleSet,
                         big: AngleSet) -> bool:
    """Sufficient condition for the pair (g, xi), g an element's number, to
    sit in the cone set's interior.

    Either some geodesic to xi turns (theta + doubled corner size)-large at
    the apex, or a single geodesic turns theta-large at the apex and twice-
    corner-large at a strictly later internal vertex.  A geodesic leaving
    the apex at x can make the turn p -> w -> s exactly when x reaches p
    along a geodesic, d(g v0, x) + d(x, p) = d(g v0, p); w then lies
    beyond x.  big is theta + t3_2, t3_2 the doubled corner size.
    """
    index = inst.index
    gv0 = inst.sub_group.elements[g][inst.v0]
    if xi == apex:
        return False
    t3_2 = inst.t3_sums[2]
    large_apex_exits = set()
    for _, _, s, angle in geodesic_turns(index, inst.sub, gv0, xi, at=apex):
        if not big.contains(*angle):
            return True
        if not theta.contains(*angle):
            large_apex_exits.add(s)
    if not large_apex_exits:
        return False
    d0 = index.dist[gv0]
    return any(not t3_2.contains(*angle) and any(
        d0[x] + index.dist[x][p] == d0[p] for x in large_apex_exits)
        for _, p, _, angle in geodesic_turns(index, inst.sub, gv0, xi))


@dataclass(frozen=True)
class ConeSet:
    apex: int
    layer: int
    members: frozenset  # pairs (g, xi), g an element's number
    certified_interior: frozenset  # the members certified interior


def seed_theta0(inst: Instance, alpha) -> AngleSet:
    """All angles on geodesics from a ball translate of the base point to a
    vertex on a geodesic between two other ball translates, saturated.

    Read from v0 alone, as theta_for_wideness is: the p v0 -> w geodesics
    are p applied to the v0 -> p^-1 w ones, and p^-1 runs over the ball as
    p does, the word metric's generators being closed under inverses.  So
    after saturation the pairs (v0, q w), q in the ball and w a vertex on
    a geodesic between ball translates, give the same angles.
    """
    index, v0, elements = inst.index, inst.v0, inst.sub_group.elements
    ball = [elements[h] for h in inst.sub_group.ball(alpha)]
    points = sorted({p[v0] for p in ball})
    mids = set()
    for a in points:
        for b in points:
            mids.update(index.geodesic_vertex_set(a, b))
    pairs = {(v0, q[w]) for q in ball for w in mids}
    return geodesic_angles(index, inst.sub, pairs).saturate(inst.sub_group)


def cone_cover(inst: Instance, theta0: AngleSet, xi_set):
    """Three layers of cone sets over all original apexes.

    Layers use sizes 2X, 5X and 6X where X pads theta0 with three corner
    summands; the companion size is 6X, returned as the SmallnessOracle
    the third layer was swept with (its size is 6X), which
    dichotomy_check reads.  Each layer has order 0, so the collection has
    order at most 2.  Sets come apex ascending, then layer; an empty set
    is left out.

    theta0 must be invariant under the lifted group and xi_set closed
    under it, or ValueError.  Then every layer size is invariant, since
    theta3 is, and g^-1 carries the g v0 -> a and g v0 -> xi geodesics to
    the v0 -> g^-1 a and v0 -> g^-1 xi ones, turns to turns.  So (g, xi) is
    in the cone set at a, or certified there, exactly when (e, g^-1 xi) is
    at g^-1 a.  The base row of an original vertex b holds the targets y
    with (e, y) in the cone set at b, and the cone set at g b holds
    (g, g y), g by its number, for each y of it.  One cone_sweep from v0
    per distinct size reads every row: clean[b] and (y == b or bit y of
    large[b]).  Certificates are checked at the identity only; an empty
    row adds nothing.
    """
    inst.graph.require_cone_separation()
    sub, index, sub_group, v0 = inst.sub, inst.index, inst.sub_group, inst.v0
    if not theta0.is_invariant(sub_group):
        raise ValueError("theta0 is not invariant under the group")
    targets = frozenset(xi_set)
    if any(p[xi] not in targets for p in sub_group.generators
           for xi in xi_set):
        raise ValueError("the cone targets are not invariant under the group")
    # powers[k] is the sum of k copies of X
    powers = list(islice(partial_sums(angle_sum(theta0, inst.t3_sums[3])), 7))
    layer_sizes = ((1, powers[2]), (2, powers[5]), (3, powers[6]))
    # equal sizes are built once, each under its place in distinct
    distinct = list(dict.fromkeys(size for _, size in layer_sizes))
    mask = sum(1 << xi for xi in targets)
    built = {}  # (a size's place in distinct, apex) -> (members, certified)
    for key, size in enumerate(distinct):
        oracle = SmallnessOracle(sub, size)  # the last is 6X's
        clean, large = cone_sweep(index, oracle, v0, mask)
        big = angle_sum(size, inst.t3_sums[2])
        for b in sub.v_vertices():
            # b's base row: the targets y with (e, y) in the cone set at b
            row = list(masked(count(), large[b] | 1 << b & mask)) \
                if clean[b] else ()
            if not row:
                continue
            certified = [y for y in row if y != b and interior_certificate(
                inst, 0, y, b, size, big)]
            for g, p in enumerate(sub_group.elements):
                members, certs = built.setdefault((key, p[b]), (set(), set()))
                members.update((g, p[y]) for y in row)
                certs.update((g, p[y]) for y in certified)
    cones = []
    places = [(layer, distinct.index(size)) for layer, size in layer_sizes]
    for apex in sub.v_vertices():
        for layer, key in places:
            members, certified = built.get((key, apex), ((), ()))
            if members:
                cones.append(ConeSet(apex, layer, frozenset(members),
                                     frozenset(certified)))
    return cones, oracle


def dichotomy_check(inst: Instance, oracle: SmallnessOracle, alpha, cones,
                    xi_set) -> dict:
    """Every eligible pair is widely cone-covered or flows small.

    Vertex endpoints are tried under the covering clause first.  oracle is
    cone_cover's, for its invariant size, so a small g v0 -> xi geodesic
    exists exactly when a small v0 -> g^-1 xi one does: the small
    geodesics from v0 are swept once, when a pair first reaches the second
    clause.  The report records which clause fired for each pair, and a
    failure names g by its number.
    """
    sub_group, v0 = inst.sub_group, inst.v0
    elements, inverse = sub_group.elements, sub_group.inverse
    pairs = [(g, xi) for g in range(len(elements)) for xi in xi_set]
    into, last, small, failures = None, None, 0, []
    for g, xi in wide_failures([slices_of(c.members) for c in cones],
                               sub_group, alpha, pairs):
        if g != last:  # g^-1 once per element reaching this clause
            last, back = g, elements[inverse[g]]
        if into is None:
            into = small_steps(oracle, v0, INF)[0]
        if elements[g][v0] == xi or into[back[xi]]:
            small += 1
        else:
            failures.append((g, xi))
    return {
        "ok": not failures,
        "clauses": {"cone": len(pairs) - small - len(failures),
                    "small-geodesic": small},
        "pairs_checked": len(pairs),
        "failures": failures,
    }


def cone_sets_as_cover(cones, sub_group: GroupModel, domain) -> Cover:
    """The cone sets as cover members, slices with z = xi and v = g, bit g
    of a mask over sub_group.elements; domain holds pairs (g, xi) too."""
    members = []
    for c in cones:
        stab = frozenset(k for k, p in enumerate(sub_group.elements)
                         if p[c.apex] == c.apex)
        members.append(CoverMember(slices_of(c.members), stab, True))
    order = cover_order([m.slices for m in members], slices_of(domain))
    return Cover(tuple(members), None, order)


def combined_cover(cone_cover_obj: Cover, flow_pullback: Cover,
                   domain) -> Cover:
    """Union of the cone collection and the pulled-back flow cover.

    The cone side contributes at most three members at any point, so the
    order is bounded by the flow order plus three.  Both sides must be
    built over the same group, base vertex and word scale, and domain's
    pairs (g, xi) name g by its number, as the slices' masks do.
    """
    members = tuple(cone_cover_obj.members) + tuple(flow_pullback.members)
    order = cover_order([m.slices for m in members], slices_of(domain))
    return Cover(members, flow_pullback.alpha, order)
