"""End-to-end chain: subdivision, sizes, cones, flow space, covers, checks.

The covering is assembled from two branches: cone layers handle pairs
against marked cone vertices and peripheral directions, the coarse flow
space covers pairs flowing to far endpoint surrogates along small
geodesics, and the union must be wide at the requested word-metric scale
with order at most the flow order plus three.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .angles import AngleSet, all_angles, theta3
from .cones import cone_cover, cone_sets_as_cover, combined_cover, \
    dichotomy_check, seed_theta0
from .covers import Cover, verify_cover, wide_failures
from .flow import (
    ball_closed_targets,
    build_cf_theta,
    cf_doubling_report,
    cf_pair_space,
    cover_cf,
    theta_for_wideness,
    wideness_scan,
)
from .graphs import GeodesicIndex, Graph, INF, Subdivision, \
    barycentric_subdivision, slimness_constant
from .symmetry import ALL_SUBGROUPS, GroupModel, close_group, \
    subdivided_group


class PipelineError(RuntimeError):
    def __init__(self, stage, message):
        super().__init__("stage %s: %s" % (stage, message))


@dataclass(frozen=True)
class Instance:
    """A graph model measured on its barycentric subdivision.

    Every cover is built from this one object: the graph, the lift of its
    group to the subdivision with the subdivision's geodesic index, the
    base vertex v0, the boundary surrogates standing in for ideal endpoints,
    the corner size t3 and the slimness delta of the graph.
    """

    graph: Graph
    sub: Subdivision
    index: GeodesicIndex
    sub_group: GroupModel
    v0: int
    boundary: tuple
    t3: AngleSet
    delta: int

    def cone_targets(self):
        """Endpoints of the cone sets: cone vertices and boundary surrogates."""
        return tuple(sorted(set(self.graph.cone_vertices)
                            | set(self.boundary)))

    def flow_endpoints(self):
        """Endpoints of the flow space: the boundary surrogates and the orbit
        of the base vertex, since pullback slices sit over pairs (g v0, xi)."""
        return tuple(sorted(set(self.boundary)
                            | {p[self.v0] for p in self.sub_group.elements}))


def build_instance(g: Graph, generators) -> Instance:
    """Close the generators (none for the trivial group), check that the
    graph model is connected and has an edge, subdivide it and lift the
    group; the base vertex is the midpoint of the least edge.  Cone
    separation is left to cone_cover, since the flow space does not need
    it."""
    group = close_group(g, generators)
    if not g.is_connected():
        raise PipelineError("load", "graph is disconnected")
    if not g.edges:
        raise PipelineError("load", "graph has no edges")
    sub = barycentric_subdivision(g)
    index = GeodesicIndex(sub.graph)
    sub_group = subdivided_group(group, sub)
    v0 = sub.midpoint_of_edge[min(sub.midpoint_of_edge)]
    # Finite stand-ins for ideal endpoints must never collide with an orbit
    # translate of the base vertex, or flow lines degenerate to points.
    orbit = {p[v0] for p in sub_group.elements}
    boundary = tuple(v for v in sub.ve_vertices() if v not in orbit)
    return Instance(g, sub, index, sub_group, v0, boundary,
                    theta3(sub, index, group=group),
                    slimness_constant(g).delta)


def select_theta0(inst: Instance, alpha, mode) -> AngleSet:
    """seed_theta0 under mode 'seed'; under mode 'all' every angle, which
    routes every boundary direction through the flow branch (any size
    containing the seed is legal, and every angle contains it)."""
    if mode not in ("seed", "all"):
        raise ValueError("theta0_mode must be 'seed' or 'all'")
    if mode == "all":
        return all_angles(inst.graph)
    return seed_theta0(inst, alpha)


@dataclass
class PipelineResult:
    ok: bool
    stages: dict
    instance: Instance
    artifacts: dict

    def summary(self):
        return {"ok": self.ok, "stages": self.stages}


def run_pipeline(g: Graph, generators, *, alpha, tau_max,
                 theta0_mode) -> PipelineResult:
    stages = {}
    artifacts = {}
    inst = build_instance(g, generators)
    sub, index, sub_group, v0 = inst.sub, inst.index, inst.sub_group, inst.v0
    t3, delta = inst.t3, inst.delta

    def result(ok):
        return PipelineResult(ok, stages, inst, artifacts)

    stages["setup"] = {
        "vertices": g.vertex_count, "edges": len(g.edges),
        "group_order": len(sub_group), "delta": delta, "base_vertex": v0,
    }
    stages["theta3"] = {"nontrivial": len(t3)}

    theta0 = select_theta0(inst, alpha, theta0_mode)
    xi_cone = inst.cone_targets()
    cones, oracle = cone_cover(inst, theta0, xi_cone)
    theta_out = oracle.size
    stages["cone"] = {"cone_sets": len(cones), "theta_out": len(theta_out),
                      "theta0": len(theta0)}

    dich = dichotomy_check(inst, oracle, alpha, cones, xi_cone)
    stages["dichotomy"] = {"ok": dich["ok"], "clauses": dich["clauses"],
                           "failures": dich["failures"][:4]}
    if not dich["ok"]:
        return result(False)

    theta_cf = theta_for_wideness(inst, alpha, theta_out)
    cf = build_cf_theta(sub, theta_cf, inst.flow_endpoints(),
                        group=sub_group, delta=delta, index=index,
                        theta3_set=t3)
    stages["flow_space"] = {"fibers": len(cf.fibers),
                            "triples": sum(map(int.bit_count,
                                               cf.fibers.values())),
                            "theta_cf": len(theta_cf)}
    artifacts["cf"] = cf

    doubling = cf_doubling_report(cf, compute_tightest=False)
    stages["flow_doubling"] = {"ok": doubling["ok"], "R": doubling["R"]}
    if not doubling["ok"]:
        return result(False)

    elements = sub_group.elements
    reach = max(index.dist[v0][elements[h][v0]]
                for h in sub_group.ball(alpha)) // 2
    alpha_prime = reach + 2 * (delta + 1)
    space = cf_pair_space(cf)
    flow_cover = cover_cf(space, alpha_prime)
    flow_report = verify_cover(flow_cover, space, alpha_prime, ALL_SUBGROUPS)
    stages["flow_cover"] = {
        "alpha_prime": alpha_prime, "members": len(flow_cover),
        "order": flow_cover.order, "verified": flow_report.ok,
    }
    artifacts["flow_cover"] = flow_cover  # on the fiber classes
    if not flow_report.ok:
        return result(False)

    targets = ball_closed_targets(cf, v0, alpha, inst.boundary)
    if targets:
        scan = wideness_scan(cf, flow_cover, alpha, targets,
                             range(0, tau_max + 1), v0)
        stages["wideness_scan"] = {"targets": len(targets),
                                   "tau": scan.passing_tau,
                                   "witness": scan.witness[:2]}
        if not scan.ok:
            return result(False)
        pull = scan.cover
    else:
        stages["wideness_scan"] = {"targets": 0, "tau": None, "witness": ()}
        pull = Cover((), alpha_prime, -1)
    artifacts["pullback"] = pull

    domain = [(g, xi) for g in range(len(elements)) for xi in xi_cone]
    cone_cov = cone_sets_as_cover(cones, sub_group, domain)
    combined = combined_cover(cone_cov, pull, domain)
    artifacts["combined"] = combined
    order_ok = combined.order <= pull.order + 3

    # final wideness: every eligible pair is fully ball-covered by a member
    missed = list(wide_failures(combined.member_slices(), sub_group, alpha,
                                domain))
    stages["combined"] = {
        "members": len(combined), "order": combined.order,
        "flow_order": pull.order, "order_ok": order_ok,
        "wide_failures": missed[:4],
    }
    return result(order_ok and not missed)


# ---------------------------------------------------------------------------
# Artifact serialization
# ---------------------------------------------------------------------------


def cover_to_document(cover: Cover, group: GroupModel, v_points=None) -> dict:
    """The cover's members as sorted points, each v decoded over v_points,
    a flow cover's midpoints; without v_points the v are the numbers of
    group elements, written ["g", number]."""
    if v_points is None:
        v_points = [("g", g) for g in range(len(group))]

    def enc(x):
        return list(x) if isinstance(x, tuple) else x

    members = []
    for m in cover.members:
        members.append({
            "points": sorted([enc(a), enc(b)]
                             for (a, b) in m.points(v_points)),
            "stabilizer": sorted(group.rank[p] for p in m.stabilizer),
            "orbit_rep": m.orbit_rep,
        })
    return {"alpha": cover.alpha, "order": cover.order, "members": members}


def report_json(data) -> str:
    def default(x):
        if isinstance(x, frozenset):
            return sorted(x, key=repr)
        if x is INF:
            return "inf"
        return repr(x)

    return json.dumps(data, indent=2, sort_keys=True, default=default)
