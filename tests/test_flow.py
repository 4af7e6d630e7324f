from types import SimpleNamespace

import pytest

from coarsecover.angles import (
    SmallnessOracle,
    all_angles,
    angle_set_from_triples,
    k_fold_sum,
    small_carriers,
    small_steps,
    theta3,
    trivial_only,
)
from coarsecover.corpus import (
    cycle_graph,
    cycle_reflection,
    cyclic_rotation,
    flow_graphs,
    path_graph,
    random_tree,
    spider,
    spider_rotation,
    wedge_of_cycles,
)
from coarsecover.covers import Cover, CoverMember, doubling_check
from coarsecover.flow import (
    ball_closed_targets,
    build_cf_theta,
    cf_doubling_report,
    cf_pair_space,
    cover_cf,
    eligible_targets,
    pullback_cover,
    theta_for_wideness,
    wideness_scan,
)
from coarsecover.graphs import INF, barycentric_subdivision
from coarsecover.pipeline import build_instance
from coarsecover.symmetry import close_group
from oracles import star_metric, theta_small_paths_brute


def tree_cf(n=12, seed=None):
    g = path_graph(n) if seed is None else random_tree(n, seed=seed)
    sub = barycentric_subdivision(g)
    theta = all_angles(g)
    return g, sub, build_cf_theta(sub, theta, sub.ve_vertices())


class TestBuildCfTheta:
    def test_tree_fiber_is_metric_band(self):
        g, sub, cf = tree_cf(10, seed=2)
        idx = cf.index
        for (xm, xp), fiber in cf.fibers.items():
            geo_mids = [w for w in idx.geodesic_vertex_set(xm, xp)
                        if sub.is_midpoint(w)]
            band = {v for v in sub.ve_vertices()
                    if min(cf.metric[v][w] for w in geo_mids)
                    <= cf.delta_prime}
            assert fiber == band

    def test_empty_endpoint_set(self):
        g = path_graph(5)
        sub = barycentric_subdivision(g)
        cf = build_cf_theta(sub, all_angles(g), ())
        assert cf.triples == frozenset()

    def test_blocked_direction_gives_empty_fiber(self):
        g = spider(3, 3)
        sub = barycentric_subdivision(g)
        # only the angles at the center are small; legs force large turns
        center_angles = [(1, 0, 4), (1, 0, 7), (4, 0, 7)]
        theta = angle_set_from_triples(g, center_angles)
        tips = [sub.midpoint_of_edge[(2, 3)], sub.midpoint_of_edge[(5, 6)]]
        cf = build_cf_theta(sub, theta, tips)
        assert all(not f for f in cf.fibers.values())

    def test_theta_hypothesis_checked(self):
        g = cycle_graph(4)  # every angle is a corner angle here
        sub = barycentric_subdivision(g)
        with pytest.raises(ValueError, match="corner size"):
            build_cf_theta(sub, trivial_only(g), sub.ve_vertices())

    def test_non_midpoint_endpoint_rejected(self):
        g = path_graph(4)
        sub = barycentric_subdivision(g)
        with pytest.raises(ValueError, match="midpoint"):
            build_cf_theta(sub, all_angles(g), (0,))

    def test_unlifted_group_rejected(self):
        g = cycle_graph(12)
        G = close_group(g, [tuple((i + 3) % 12 for i in range(12))])
        sub = barycentric_subdivision(g)
        with pytest.raises(ValueError, match="subdivided graph"):
            build_cf_theta(sub, all_angles(g), sub.ve_vertices(), group=G)

    def test_equivariance_of_fibers(self):
        g = cycle_graph(12)
        inst = build_instance(g, close_group(g, [tuple((i + 3) % 12
                                                      for i in range(12))]))
        sub = inst.sub
        cf = build_cf_theta(sub, all_angles(g), sub.ve_vertices(),
                            group=inst.sub_group)
        for p in cf.group.elements:
            for (v, xm, xp) in cf.triples:
                assert (p[v], p[xm], p[xp]) in cf.triples

    def test_fiber_hugs_one_small_geodesic(self):
        # every fiber vertex sits within 2 delta' + 1 of the midpoints of a
        # single small geodesic between the endpoints
        g = wedge_of_cycles(2, 4)
        sub = barycentric_subdivision(g)
        t3 = theta3(sub)
        theta = k_fold_sum(t3, 2).union(all_angles(g))
        cf = build_cf_theta(sub, theta, sub.ve_vertices())
        for (xm, xp), fiber in cf.fibers.items():
            if not fiber:
                continue
            smalls = theta_small_paths_brute(sub.graph, theta, xm, xp, sub)
            assert smalls
            bound = 2 * cf.delta_prime + 1
            best = max(
                min(min(cf.metric[v][w] for w in c if sub.is_midpoint(w))
                    for c in smalls)
                for v in fiber)
            assert best <= bound

    def test_fiber_stabilizers_respect_pair_stabilizers(self):
        g = cycle_graph(12)
        inst = build_instance(g, close_group(g, [tuple((i + 3) % 12
                                                      for i in range(12))]))
        sub = inst.sub
        cf = build_cf_theta(sub, all_angles(g), sub.ve_vertices(),
                            group=inst.sub_group)
        for (xm, xp), fiber in list(cf.fibers.items())[:20]:
            stab = [p for p in cf.group.elements
                    if (p[xm], p[xp]) == (xm, xp)]
            for p in stab:
                assert frozenset(p[v] for v in fiber) == fiber

    @pytest.mark.parametrize("g, gens, triples", [
        (cycle_graph(8), [cyclic_rotation(8), cycle_reflection(8)], None),
        # the legs turn large everywhere but at the center
        (spider(3, 3), [spider_rotation(3, 3)],
         [(1, 0, 4), (1, 0, 7), (4, 0, 7)]),
    ])
    def test_lines_match_brute_carriers(self, g, gens, triples):
        inst = build_instance(g, close_group(g, gens))
        sub = inst.sub
        theta = k_fold_sum(inst.t3, 2)
        if triples is not None:
            theta = theta.union(angle_set_from_triples(g, triples))
        cf = build_cf_theta(sub, theta, inst.flow_endpoints(),
                            group=inst.sub_group, index=inst.index)
        ends = cf.endpoints
        assert set(cf.lines) == {(a, b) for a in ends for b in ends if a != b}
        for (a, b), line in cf.lines.items():
            paths = theta_small_paths_brute(sub.graph, theta, a, b, sub)
            assert line == frozenset(w for p in paths for w in p), (a, b)


class TestFiberSymmetry:
    @pytest.mark.parametrize("name, g, use_all", flow_graphs())
    def test_corpus_fibers_are_symmetric(self, name, g, use_all):
        # criterion 02's flow spaces
        sub = barycentric_subdivision(g)
        t3 = theta3(sub)
        theta = all_angles(g) if use_all else k_fold_sum(t3, 2)
        ve = sub.ve_vertices()
        self.check(build_cf_theta(sub, theta, ve[::max(1, len(ve) // 8)][:10],
                                  theta3_set=t3))

    def test_group_instance_fibers_are_symmetric(self):
        g = cycle_graph(8)
        inst = build_instance(g, close_group(
            g, [cyclic_rotation(8), cycle_reflection(8)]))
        self.check(build_cf_theta(inst.sub, k_fold_sum(inst.t3, 2),
                                  inst.sub.ve_vertices(),
                                  group=inst.sub_group, index=inst.index))

    @staticmethod
    def check(cf):
        for (a, b), fiber in cf.fibers.items():
            assert fiber == cf.fibers[(b, a)]
            assert cf.lines[(a, b)] == cf.lines[(b, a)]
        # built on each ordered pair on its own
        oracle = SmallnessOracle(cf.sub, cf.theta)
        steps = {x: small_steps(cf.index, oracle, x) for x in cf.endpoints}
        lines = {(a, b): small_carriers(cf.index, oracle, steps[a], steps[b],
                                        a, b)
                 for a in cf.endpoints for b in cf.endpoints if a != b}
        fibers = {key: frozenset(v for w in line if cf.sub.is_midpoint(w)
                                 for v, dv in cf.metric[w].items()
                                 if dv <= cf.delta_prime)
                  for key, line in lines.items()}
        assert cf.lines == lines
        assert cf.fibers == fibers
        assert cf.triples == {(v, a, b) for (a, b), fiber in fibers.items()
                              for v in fiber}
        space = cf_pair_space(cf)
        assert space.pairs == {(v, key) for key, fiber in fibers.items()
                               for v in fiber}
        assert space.fibers == fibers
        assert all(space.fibers[key] is cf.fibers[key] for key in fibers)
        assert space.dist is cf.metric


class TestDoubling:
    def test_planted_violation_lists_exactly_the_failing_fibers(self):
        # six heavy leaves fail D = 5: pairwise 40 or more apart, far above
        # R = 12, all within 31 of the light leaf 0; light leaves are at
        # most 6 apart, so a fiber with at most four heavy leaves passes
        metric = star_metric((1, 20, 25, 30, 20, 25, 30, 2, 1, 2, 3, 1, 2))
        failing = frozenset(range(8))
        heavy = frozenset(range(1, 7))  # inside failing, fails on its own
        light = frozenset((0, 1, 2, 3, 5))  # inside failing, passes
        # larger than failing but not around it, and passes
        wide = frozenset(range(13)) - {5, 6}
        cf = SimpleNamespace(delta_prime=0, metric=metric, fibers={
            (0, 1): failing, (0, 2): heavy, (1, 0): light, (2, 0): wide})
        rep = cf_doubling_report(cf)
        assert rep["ok"] is False and rep["R"] == 12 and rep["fibers"] == 4
        checks = {key: doubling_check(sorted(f), lambda a, b: metric[a][b],
                                      5, 12)
                  for key, f in cf.fibers.items()}
        assert [key for key in sorted(checks) if not checks[key].ok] == \
            [(0, 1), (0, 2)]
        assert rep["failures"] == [(key, checks[key].witness)
                                   for key in ((0, 1), (0, 2))]

    def test_tree_passes_d5(self):
        g, sub, cf = tree_cf(30)
        rep = cf_doubling_report(cf)
        assert rep["ok"]
        assert rep["R"] == 24 * cf.delta_prime + 12

    def test_tightest_constants(self):
        g, sub, cf = tree_cf(12)
        rep = cf_doubling_report(cf, compute_tightest=True)
        assert rep["ok"] and rep["tightest_D"] <= 5
        assert rep["tightest_R"] <= rep["R"]

    def test_single_point_fiber(self):
        g = path_graph(3)
        sub = barycentric_subdivision(g)
        cf = build_cf_theta(sub, all_angles(g), sub.ve_vertices())
        rep = cf_doubling_report(cf)
        assert rep["ok"]


class TestCoverCf:
    def test_diameter_cover_partitions(self):
        g, sub, cf = tree_cf(9)
        diam = max(dv for row in cf.metric.values()
                   for dv in row.values() if dv is not INF)
        cov = cover_cf(cf_pair_space(cf), diam)
        assert cov.order == 0
        sets = cov.member_sets()
        for z in sorted(cf.fibers):
            for v in cf.fibers[z]:
                assert sum(1 for m in sets if (v, z) in m) == 1

    def test_c6_cover_verified(self):
        g = cycle_graph(6)
        sub = barycentric_subdivision(g)
        cf = build_cf_theta(sub, all_angles(g), sub.ve_vertices())
        space = cf_pair_space(cf)
        cov = cover_cf(space, 1)
        from coarsecover.covers import verify_cover
        from coarsecover.symmetry import ALL_SUBGROUPS
        rep = verify_cover(cov, space, 1, ALL_SUBGROUPS)
        assert rep.ok
        assert cov.order <= 4

    def test_empty_flow_space(self):
        g = path_graph(4)
        sub = barycentric_subdivision(g)
        cf = build_cf_theta(sub, all_angles(g), ())
        cov = cover_cf(cf_pair_space(cf), 1)
        assert len(cov) == 0


class TestPullback:
    def test_everything_member_pulls_to_all_eligible(self):
        g, sub, cf = tree_cf(8)
        v0 = sub.midpoint_of_edge[min(sub.midpoint_of_edge)]
        targets = eligible_targets(cf, v0)
        member = CoverMember(frozenset((v, z) for (v, *z_) in []) |
                             frozenset((v, (a, b)) for (v, a, b) in cf.triples),
                             frozenset([cf.group.identity]), True)
        cov = Cover((member,), 1, 0)
        pull = pullback_cover(cf, cov, 0, targets, v0)
        assert pull.member_sets() == [frozenset(targets)]

    def test_tree_tau_zero_is_evaluation_at_base(self):
        g, sub, cf = tree_cf(8)
        v0 = sub.midpoint_of_edge[min(sub.midpoint_of_edge)]
        targets = eligible_targets(cf, v0)
        cov = cover_cf(cf_pair_space(cf), 2)
        pull = pullback_cover(cf, cov, 0, targets, v0)
        sets = cov.member_sets()
        for i, m in enumerate(sets):
            pulled = {(gg, xi) for (gg, xi) in targets
                      if (gg[v0], (gg[v0], xi)) in m}
            assert pulled in ([p.points for p in pull.members] + [set()]) \
                or not pulled

    def test_universal_quantifier_over_flow_lines(self):
        # two small geodesics, a member holding only one tau-vertex
        g = cycle_graph(6)
        sub = barycentric_subdivision(g)
        cf = build_cf_theta(sub, all_angles(g), sub.ve_vertices())
        v0 = sub.midpoint_of_edge[(0, 1)]
        xi = sub.midpoint_of_edge[(3, 4)]  # antipodal midpoint: two flow lines
        e = cf.group.identity
        idx = cf.index
        layer1 = [v for v in idx.geodesic_vertex_set(v0, xi)
                  if idx.d(v0, v) == 2 and sub.is_midpoint(v)]
        assert len(layer1) == 2
        taken = layer1[0]
        member = CoverMember(
            frozenset((v, (a, b)) for (v, a, b) in cf.triples
                      if v != layer1[1]),
            frozenset([e]), True)
        pull = pullback_cover(cf, Cover((member,), 1, 0), 1, [(e, xi)], v0)
        assert all((e, xi) not in m for m in pull.member_sets())

    def test_short_flow_lines_excluded(self):
        g, sub, cf = tree_cf(6)
        v0 = sub.midpoint_of_edge[min(sub.midpoint_of_edge)]
        targets = eligible_targets(cf, v0)
        full = CoverMember(frozenset((v, (a, b)) for (v, a, b) in cf.triples),
                           frozenset([cf.group.identity]), True)
        big_tau = 1 + max(cf.index.d(g_[v0], xi) // 2 for (g_, xi) in targets)
        pull = pullback_cover(cf, Cover((full,), 1, 0), big_tau, targets, v0)
        assert not pull.members

    @staticmethod
    def two_ended_cf():
        # a path whose flow space has only its two end midpoints as endpoints
        g = path_graph(6)
        sub = barycentric_subdivision(g)
        ve = sub.ve_vertices()
        return ve, build_cf_theta(sub, all_angles(g), (ve[0], ve[-1]))

    def test_eligible_targets_reject_foreign_endpoints(self):
        ve, cf = self.two_ended_cf()
        with pytest.raises(ValueError, match="endpoints"):
            eligible_targets(cf, ve[0], [ve[2]])
        with pytest.raises(ValueError, match="endpoints"):
            eligible_targets(cf, ve[2])

    def test_pullback_rejects_foreign_endpoints(self):
        ve, cf = self.two_ended_cf()
        e, empty = cf.group.identity, Cover((), 1, -1)
        with pytest.raises(ValueError, match="endpoints"):
            pullback_cover(cf, empty, 0, [(e, ve[2])], ve[0])
        with pytest.raises(ValueError, match="endpoints"):
            pullback_cover(cf, empty, 0, [(e, ve[-1])], ve[2])

    def test_bad_tau_rejected(self):
        g, sub, cf = tree_cf(6)
        v0 = sub.midpoint_of_edge[min(sub.midpoint_of_edge)]
        with pytest.raises(ValueError, match="tau"):
            pullback_cover(cf, Cover((), 1, -1), 0.5,
                           eligible_targets(cf, v0), v0)

    def test_order_never_grows(self):
        for seed in (1, 4):
            g, sub, cf = tree_cf(10, seed=seed)
            v0 = sub.midpoint_of_edge[min(sub.midpoint_of_edge)]
            targets = eligible_targets(cf, v0)
            cov = cover_cf(cf_pair_space(cf), 3)
            for tau in (0, 1, 2):
                pull = pullback_cover(cf, cov, tau, targets, v0)
                assert pull.order <= cov.order


class TestWidenessScan:
    def test_trivial_group_passes_at_zero(self):
        g, sub, cf = tree_cf(10, seed=7)
        v0 = sub.midpoint_of_edge[min(sub.midpoint_of_edge)]
        targets = ball_closed_targets(cf, v0, 0)
        cov = cover_cf(cf_pair_space(cf), 2)
        scan = wideness_scan(cf, cov, 0, targets, range(0, 3), v0)
        assert scan.passing_tau == 0
        assert scan.cover == pullback_cover(cf, cov, scan.passing_tau,
                                            targets, v0)

    def test_shrunk_cover_reports_exhaustion(self):
        g, sub, cf = tree_cf(10)
        v0 = sub.midpoint_of_edge[min(sub.midpoint_of_edge)]
        targets = ball_closed_targets(cf, v0, 0)
        empty = Cover((), 2, -1)
        scan = wideness_scan(cf, empty, 0, targets, range(0, 2), v0)
        assert not scan.ok and scan.witness
        assert scan.cover is None

    def test_equivariant_cycle_scan(self):
        g = cycle_graph(12)
        G = close_group(g, [tuple((i + 3) % 12 for i in range(12))])
        inst = build_instance(g, G)
        sub, idx, Gs = inst.sub, inst.index, inst.sub_group
        v0 = sub.midpoint_of_edge[(0, 1)]
        theta = all_angles(g)
        orbit = {p[v0] for p in Gs.elements}
        endpoints = tuple(sorted(set(sub.ve_vertices())))
        cf = build_cf_theta(sub, theta, endpoints, group=Gs, index=idx)
        boundary = tuple(v for v in sub.ve_vertices() if v not in orbit)
        targets = ball_closed_targets(cf, v0, 1, boundary)
        assert targets
        cov = cover_cf(cf_pair_space(cf), 8)
        scan = wideness_scan(cf, cov, 1, targets, range(0, 6), v0)
        assert scan.ok
        assert scan.cover == pullback_cover(cf, cov, scan.passing_tau,
                                            targets, v0)


class TestThetaForWideness:
    def test_ball_translate_geodesics_become_small(self):
        g = cycle_graph(12)
        G = close_group(g, [tuple((i + 3) % 12 for i in range(12))])
        inst = build_instance(g, G)
        sub, idx, Gs, v0, t3 = inst.sub, inst.index, inst.sub_group, \
            inst.v0, inst.t3
        theta0 = k_fold_sum(t3, 1)
        theta = theta_for_wideness(inst, 1, theta0)
        assert k_fold_sum(t3, 2) <= theta
        oracle = SmallnessOracle(sub, theta)
        ball = [p for p in Gs.elements if Gs.word_length[p] <= 1]
        for p in ball:
            a = p[v0]
            steps = small_steps(idx, oracle, a)
            for xi in sub.ve_vertices():
                # geodesics between ball translates and endpoints stay small
                # whenever the base translate flows small (theta0 = corner
                # size makes every cycle geodesic qualify)
                assert a == xi or steps[xi]


class TestEqualEndpoints:
    def test_tightest_constants_reported(self):
        g = path_graph(20)
        sub = barycentric_subdivision(g)
        ve = sub.ve_vertices()
        cf = build_cf_theta(sub, all_angles(g), (ve[0], ve[-1]))
        rep = cf_doubling_report(cf, compute_tightest=True)
        assert rep["ok"]
        assert 1 <= rep["tightest_D"] <= 5
        assert rep["tightest_R"] <= rep["R"]
