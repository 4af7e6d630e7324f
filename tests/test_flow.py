from types import SimpleNamespace

import pytest

from coarsecover.angles import (
    SmallnessOracle,
    all_angles,
    angle_set_from_triples,
    k_fold_sum,
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
    pipeline_instances,
    random_tree,
    spider,
    spider_rotation,
    wedge_of_cycles,
)
from coarsecover import flow, graphs
from coarsecover.covers import Cover, CoverMember, Slices, cover_order, \
    doubling_check, fiber_basis, greedy_cover, slices_of, verify_cover
from coarsecover.flow import (
    ball_closed_targets,
    cf_doubling_report,
    cf_pair_space,
    cover_cf,
    eligible_targets,
    expand_cover,
    pullback_cover,
    theta_for_wideness,
    wideness_scan,
)
from coarsecover.graphs import INF, GeodesicIndex, barycentric_subdivision
from coarsecover.pipeline import build_instance, run_pipeline, \
    select_theta0
from coarsecover.symmetry import ALL_SUBGROUPS, close_group, set_orbit
from oracles import decoded, decoded_sets, encoded, endpoint_pair_space, \
    failed, flow_space, least_pairs, mask_vertices, pullback_on_pairs, \
    small_carriers, star_metric, theta_small_paths_brute


def fiber_sets(cf):
    """cf's fibers as frozensets of midpoints, read bit by bit."""
    return {key: mask_vertices(f) for key, f in cf.fibers.items()}


def on_classes(cf, triples):
    """The points (v, xi-, xi+) as pairs (v, r), r the class number of
    (xi-, xi+): the z-points of cf_pair_space(cf)."""
    return ((v, cf.classes[cf.fibers[a, b]]) for (v, a, b) in triples)


def tree_cf(n=12, seed=None):
    g = path_graph(n) if seed is None else random_tree(n, seed=seed)
    sub = barycentric_subdivision(g)
    theta = all_angles(g)
    return g, sub, flow_space(sub, theta, sub.ve_vertices())


def count_doubling_checks(monkeypatch):
    """Record the point set of every doubling check the flow layer runs."""
    checked = []

    def counted(points, *args):
        checked.append(frozenset(points))
        return doubling_check(points, *args)

    monkeypatch.setattr(flow, "doubling_check", counted)
    return checked


class TestBuildCfTheta:
    def test_tree_fiber_is_metric_band(self):
        g, sub, cf = tree_cf(10, seed=2)
        idx = cf.index
        for (xm, xp), fiber in fiber_sets(cf).items():
            geo_mids = [w for w in idx.geodesic_vertex_set(xm, xp)
                        if sub.is_midpoint(w)]
            band = {v for v in sub.ve_vertices()
                    if min(cf.metric[v][w] for w in geo_mids)
                    <= cf.delta_prime}
            assert fiber == band

    def test_fills_no_distance_row(self, monkeypatch):
        # the small_lines sweeps find their own layers; the only two BFS
        # are the connectivity checks of build_cf_theta and of
        # slimness_constant, on the subdivided and the original graph
        g = path_graph(40)
        sub = barycentric_subdivision(g)
        ends = [sub.ve_vertices()[0], sub.ve_vertices()[-1]]
        calls, bfs_row = [], graphs.bfs_row

        def counted(h, source):
            calls.append((h, source))
            return bfs_row(h, source)

        monkeypatch.setattr(graphs, "bfs_row", counted)
        index = GeodesicIndex(sub.graph)
        assert calls == []
        flow_space(sub, all_angles(g), ends, index=index)
        assert index.dist == {}
        assert calls == [(sub.graph, 0), (g, 0)]

    def test_classes_number_each_distinct_fiber_by_its_least_pair(self):
        # a random tree of the tree-ladder workload's sizes, where many
        # endpoint pairs share a fiber; the class numbers ascend with the
        # least pairs
        g, sub, cf = tree_cf(16, seed=5)
        distinct = set(cf.fibers.values())
        assert len(distinct) < len(cf.fibers)
        least = {f: min(key for key, h in cf.fibers.items() if h == f)
                 for f in distinct}
        assert cf.classes == {f: r for r, f in enumerate(
            sorted(distinct, key=least.__getitem__))}

    def test_empty_endpoint_set(self):
        g = path_graph(5)
        sub = barycentric_subdivision(g)
        cf = flow_space(sub, all_angles(g), ())
        assert cf.triples == frozenset()

    def test_blocked_direction_gives_empty_fiber(self):
        g = spider(3, 3)
        sub = barycentric_subdivision(g)
        # only the angles at the center are small; legs force large turns
        center_angles = [(1, 0, 4), (1, 0, 7), (4, 0, 7)]
        theta = angle_set_from_triples(g, center_angles)
        tips = [sub.midpoint_of_edge[(2, 3)], sub.midpoint_of_edge[(5, 6)]]
        cf = flow_space(sub, theta, tips)
        assert all(not f for f in cf.fibers.values())

    def test_theta_hypothesis_checked(self):
        g = cycle_graph(4)  # every angle is a corner angle here
        sub = barycentric_subdivision(g)
        with pytest.raises(ValueError, match="corner size"):
            flow_space(sub, trivial_only(g), sub.ve_vertices())

    def test_non_midpoint_endpoint_rejected(self):
        g = path_graph(4)
        sub = barycentric_subdivision(g)
        with pytest.raises(ValueError, match="midpoint"):
            flow_space(sub, all_angles(g), (0,))

    def test_unlifted_group_rejected(self):
        g = cycle_graph(12)
        G = close_group(g, [tuple((i + 3) % 12 for i in range(12))])
        sub = barycentric_subdivision(g)
        with pytest.raises(ValueError, match="subdivided graph"):
            flow_space(sub, all_angles(g), sub.ve_vertices(), group=G)

    def test_equivariance_of_fibers(self):
        g = cycle_graph(12)
        inst = build_instance(g, [tuple((i + 3) % 12 for i in range(12))])
        sub = inst.sub
        cf = flow_space(sub, all_angles(g), sub.ve_vertices(),
                        group=inst.sub_group)
        for p in cf.group.elements:
            for (v, xm, xp) in cf.triples:
                assert (p[v], p[xm], p[xp]) in cf.triples

    def test_fiber_hugs_one_small_geodesic(self):
        # every fiber vertex sits within 2 delta' + 1 of the midpoints of a
        # single small geodesic between the endpoints
        g = wedge_of_cycles(2, 4)
        sub = barycentric_subdivision(g)
        t3 = theta3(sub, GeodesicIndex(sub.graph))
        theta = k_fold_sum(t3, 2).union(all_angles(g))
        cf = flow_space(sub, theta, sub.ve_vertices())
        for (xm, xp), fiber in fiber_sets(cf).items():
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
        inst = build_instance(g, [tuple((i + 3) % 12 for i in range(12))])
        sub = inst.sub
        cf = flow_space(sub, all_angles(g), sub.ve_vertices(),
                        group=inst.sub_group)
        for (xm, xp), fiber in list(fiber_sets(cf).items())[:20]:
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
        inst = build_instance(g, gens)
        sub = inst.sub
        theta = k_fold_sum(inst.t3, 2)
        if triples is not None:
            theta = theta.union(angle_set_from_triples(g, triples))
        cf = flow_space(sub, theta, inst.flow_endpoints(),
                        group=inst.sub_group, index=inst.index,
                        theta3_set=inst.t3)
        ends = cf.endpoints
        assert set(cf.lines) == {(a, b) for a in ends for b in ends if a != b}
        for (a, b), line in cf.lines.items():
            paths = theta_small_paths_brute(sub.graph, theta, a, b, sub)
            assert mask_vertices(line) == frozenset(
                w for p in paths for w in p), (a, b)


class TestFiberSymmetry:
    @pytest.mark.parametrize("name, g, use_all", flow_graphs())
    def test_corpus_fibers_are_symmetric(self, name, g, use_all):
        # criterion 02's flow spaces
        sub = barycentric_subdivision(g)
        t3 = theta3(sub, GeodesicIndex(sub.graph))
        theta = all_angles(g) if use_all else k_fold_sum(t3, 2)
        ve = sub.ve_vertices()
        self.check(flow_space(sub, theta, ve[::max(1, len(ve) // 8)][:10],
                              theta3_set=t3), theta)

    def test_group_instance_fibers_are_symmetric(self):
        g = cycle_graph(8)
        inst = build_instance(g, [cyclic_rotation(8), cycle_reflection(8)])
        theta = k_fold_sum(inst.t3, 2)
        self.check(flow_space(inst.sub, theta, inst.sub.ve_vertices(),
                              group=inst.sub_group, index=inst.index,
                              theta3_set=inst.t3), theta)

    @staticmethod
    def check(cf, theta):
        for (a, b), fiber in cf.fibers.items():
            assert fiber == cf.fibers[(b, a)]
            assert cf.lines[(a, b)] == cf.lines[(b, a)]
        # built on each ordered pair on its own
        oracle = SmallnessOracle(cf.sub, theta)
        steps = {x: small_steps(oracle, x, INF) for x in cf.endpoints}
        lines = {(a, b): small_carriers(cf.index, steps[a], steps[b], a, b)
                 for a in cf.endpoints for b in cf.endpoints if a != b}
        mids = cf.sub.ve_vertices()
        fibers = {key: frozenset(v for w in line if cf.sub.is_midpoint(w)
                                 for v in mids
                                 if cf.metric[w][v] <= cf.delta_prime)
                  for key, line in lines.items()}
        assert {key: mask_vertices(m) for key, m in cf.lines.items()} \
            == lines
        assert fiber_sets(cf) == fibers
        assert cf.triples == {(v, a, b) for (a, b), fiber in fibers.items()
                              for v in fiber}
        # one z-point per fiber class, numbered in the order of its least
        # pair; act_z, composed along the generators, is the lookup at the
        # least pairs for every element
        space = cf_pair_space(cf)
        names = {}
        for key in sorted(fibers):
            names.setdefault(fibers[key], key)
        least = sorted(names.values())  # class number -> its least pair
        number = {key: r for r, key in enumerate(least)}
        space_fibers = decoded(space).fibers
        assert {least[r]: f for r, f in space_fibers.items()} == \
            {r: f for f, r in names.items()}
        assert all(fibers[key] == space_fibers[number[names[fibers[key]]]]
                   for key in fibers)
        assert space.act_z == {
            p: [number[names[fibers[p[r[0]], p[r[1]]]]] for r in least]
            for p in cf.group.elements}
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
        fibers = {(0, 1): failing, (0, 2): heavy, (1, 0): light, (2, 0): wide}
        cf = SimpleNamespace(delta_prime=0, metric=metric,
                             fibers=encoded(range(13), fibers))
        rep = cf_doubling_report(cf, compute_tightest=False)
        assert rep["ok"] is False and rep["R"] == 12 and rep["fibers"] == 4
        checks = {key: doubling_check(sorted(f), lambda a, b: metric[a][b],
                                      5, 12)
                  for key, f in fibers.items()}
        assert [key for key in sorted(checks) if not checks[key].ok] == \
            [(0, 1), (0, 2)]
        assert rep["failures"] == [(key, checks[key].witness)
                                   for key in ((0, 1), (0, 2))]

    def test_fibers_pass_though_their_union_fails(self, monkeypatch):
        # each fiber holds three heavy leaves and passes; their union
        # holds all six within 31 of leaf 0 and fails, so the report
        # checks both fibers on their own and finds no failure
        metric = star_metric((1, 20, 25, 30, 20, 25, 30))
        fibers = {(0, 1): frozenset((0, 1, 2, 3)),
                  (1, 0): frozenset((0, 4, 5, 6))}
        cf = SimpleNamespace(delta_prime=0, metric=metric,
                             fibers=encoded(range(7), fibers))
        checked = count_doubling_checks(monkeypatch)
        rep = cf_doubling_report(cf, compute_tightest=False)
        assert rep["ok"] is True and rep["failures"] == []
        assert len(checked) == 3 and checked[0] == frozenset(range(7))
        assert set(checked[1:]) == set(fibers.values())

    def test_tree_passes_d5(self, monkeypatch):
        g, sub, cf = tree_cf(30)
        checked = count_doubling_checks(monkeypatch)
        rep = cf_doubling_report(cf, compute_tightest=False)
        assert rep["ok"]
        assert rep["R"] == 24 * cf.delta_prime + 12
        # the union passes, so it is the only set checked
        assert checked == [frozenset().union(*fiber_sets(cf).values())]

    def test_tightest_constants(self):
        g, sub, cf = tree_cf(12)
        rep = cf_doubling_report(cf, compute_tightest=True)
        assert rep["ok"] and rep["tightest_D"] <= 5
        assert rep["tightest_R"] <= rep["R"]

    def test_single_point_fiber(self):
        g = path_graph(3)
        sub = barycentric_subdivision(g)
        cf = flow_space(sub, all_angles(g), sub.ve_vertices())
        rep = cf_doubling_report(cf, compute_tightest=False)
        assert rep["ok"]


class TestCoverCf:
    def test_diameter_cover_partitions(self):
        g, sub, cf = tree_cf(9)
        diam = max(row[w] for row in cf.metric.values()
                   for w in sub.ve_vertices() if row[w] is not INF)
        cov = expand_cover(cf, cover_cf(cf_pair_space(cf), diam))
        assert cov.order == 0
        sets = [m.points(sub.ve_vertices()) for m in cov.members]
        for z in sorted(cf.fibers):
            for v in fiber_sets(cf)[z]:
                assert sum(1 for m in sets if (v, z) in m) == 1

    def test_c6_cover_verified(self):
        g = cycle_graph(6)
        sub = barycentric_subdivision(g)
        cf = flow_space(sub, all_angles(g), sub.ve_vertices())
        space = cf_pair_space(cf)
        cov = cover_cf(space, 1)
        assert verify_cover(cov, space, 1, ALL_SUBGROUPS).ok
        assert verify_cover(expand_cover(cf, cov), endpoint_pair_space(cf),
                            1, ALL_SUBGROUPS).ok
        assert cov.order <= 4

    def test_empty_flow_space(self):
        g = path_graph(4)
        sub = barycentric_subdivision(g)
        cf = flow_space(sub, all_angles(g), ())
        space = cf_pair_space(cf)
        assert space.fibers == {}
        cov = expand_cover(cf, cover_cf(space, 1))
        assert len(cov) == 0 and cov.order == -1


class TestFiberClassParity:
    """The flow cover built on fiber classes, expanded to endpoint pairs,
    is the cover built on one z-point per pair, and verify_cover reports
    the same failures on both spaces."""

    CASES = {
        "trivial-path": (path_graph(9), (), "all"),
        "trivial-tree": (random_tree(10, seed=5), (), "all"),
        "dihedral-cycle": (cycle_graph(12),
                           (cyclic_rotation(12), cycle_reflection(12)),
                           "seed"),
        "quarter-turn-cycle": (cycle_graph(12),
                               (tuple((i + 3) % 12 for i in range(12)),),
                               "all"),
        "rotated-spider": (spider(3, 4), (spider_rotation(3, 4),), "all"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_expanded_cover_and_reports_match_the_pair_space(self, name):
        g, gens, mode = self.CASES[name]
        res = run_pipeline(g, gens, alpha=1, tau_max=4, theta0_mode=mode)
        cf = res.artifacts["cf"]
        space, ref = cf_pair_space(cf), endpoint_pair_space(cf)
        assert len(space.fibers) < len(ref.fibers)
        pipeline_ap = res.stages["flow_cover"]["alpha_prime"]
        for ap in (1, pipeline_ap):
            classes = cover_cf(space, ap)
            cov = expand_cover(cf, classes)
            assert cov == greedy_cover(ref, ap, fiber_basis(ref, ap))
            if ap == pipeline_ap:
                assert expand_cover(cf, res.artifacts["flow_cover"]) == cov
            self.check_reports(classes, space, cov, ref, ap, least_pairs(cf))

    @staticmethod
    def on_pairs(failures, least):
        """Failures on the class space with the class number a not-long
        failure names read as its least pair."""
        return tuple((kind, (detail[0], least[detail[1]]))
                     if kind == "not-long" else (kind, detail)
                     for kind, detail in failures)

    def check_reports(self, classes, space, cov, ref, ap, least):
        """The same failures on the cover, on every cover with one member
        dropped (stated order recounted on the pairs) and on the cover
        with its order plus one."""
        def failures(order, drop=None):
            out = [verify_cover(Cover(tuple(m for i, m in enumerate(c.members)
                                            if i != drop), ap, order),
                                sp, ap, ALL_SUBGROUPS).failures
                   for c, sp in ((classes, space), (cov, ref))]
            assert self.on_pairs(out[0], least) == out[1]
            return out[1]

        assert failures(cov.order) == ()
        assert failures(cov.order + 1) == (
            ("order-mismatch", (cov.order + 1, cov.order)),)
        dropped = [failures(cover_order([m.slices for i, m in enumerate(
            cov.members) if i != k], ref.fibers), drop=k)
            for k in range(len(cov))]
        assert any(dropped)

    @pytest.fixture(scope="class")
    def spider_covers(self):
        """The rotated spider's flow cover at alpha' = 1, as (cover, space)
        on the class space and, expanded, on the endpoint pair space, with
        the least pair of each class."""
        g, gens, mode = self.CASES["rotated-spider"]
        res = run_pipeline(g, gens, alpha=1, tau_max=4, theta0_mode=mode)
        cf = res.artifacts["cf"]
        space = cf_pair_space(cf)
        classes = cover_cf(space, 1)
        assert len(classes) == 8
        return [(classes, space),
                (expand_cover(cf, classes), endpoint_pair_space(cf))], \
            least_pairs(cf)

    @staticmethod
    def recounted(members, space):
        return verify_cover(Cover(members, 1, cover_order(
            [m.slices for m in members], space.fibers)), space, 1,
            ALL_SUBGROUPS).failures

    def test_dropping_a_member_fails_longness_or_invariance(self,
                                                            spider_covers):
        """Negative control: the failure kinds of each cover with one
        member dropped, its order recounted, on both spaces."""
        expected = [{"not-long"}, set()] \
            + [{"not-long", "not-invariant"}] * 3 + [{"not-invariant"}] * 3
        covers, least = spider_covers
        reports = [[self.recounted(c.members[:k] + c.members[k + 1:], sp)
                    for k in range(len(c))] for c, sp in covers]
        assert [self.on_pairs(f, least) for f in reports[0]] == reports[1]
        assert [{kind for kind, _ in f} for f in reports[0]] == expected

    def test_an_orbit_of_overlapping_members_fails_f_subset(self,
                                                           spider_covers):
        """Negative control: adding the orbit of m2 | s.m2, s the generator,
        keeps the cover invariant and long but makes it no F-subset."""
        reports = []
        covers, least = spider_covers
        for c, sp in covers:
            (s,) = sp.group.generators

            def translate(p, slices):
                sets = decoded_sets(sp.v_points, slices)
                return Slices(encoded(sp.v_points, {
                    sp.act_z[p][z]: {p[v] for v in vs}
                    for z, vs in sets.items()}))

            m2 = c.members[2].slices
            sm2 = translate(s, m2)
            union = Slices((z, m2.get(z, 0) | sm2.get(z, 0))
                           for z in {*m2, *sm2})
            orbit, stab = set_orbit(union, sp.group, translate)
            reports.append(self.recounted(c.members + tuple(
                CoverMember(W, stab, False) for W in orbit), sp))
        assert self.on_pairs(reports[0], least) == reports[1]
        assert [kind for kind, _ in reports[0]] == ["not-f-subset"]


class TestPullback:
    def test_everything_member_pulls_to_all_eligible(self):
        g, sub, cf = tree_cf(8)
        v0 = sub.midpoint_of_edge[min(sub.midpoint_of_edge)]
        targets = eligible_targets(cf, v0, cf.endpoints)
        member = CoverMember(
            slices_of(on_classes(cf, cf.triples), sub.ve_vertices()),
            frozenset([cf.group.identity]), True)
        cov = Cover((member,), 1, 0)
        pull = pullback_cover(cf, cov, 0, targets, v0)
        assert [m.points(cf.group.elements) for m in pull.members] == \
            [frozenset(targets)]

    def test_tree_tau_zero_is_evaluation_at_base(self):
        g, sub, cf = tree_cf(8)
        v0 = sub.midpoint_of_edge[min(sub.midpoint_of_edge)]
        targets = eligible_targets(cf, v0, cf.endpoints)
        classes = cover_cf(cf_pair_space(cf), 2)
        cov = expand_cover(cf, classes)
        pull = pullback_cover(cf, classes, 0, targets, v0)
        sets = [m.points(sub.ve_vertices()) for m in cov.members]
        for i, m in enumerate(sets):
            pulled = {(gg, xi) for (gg, xi) in targets
                      if (gg[v0], (gg[v0], xi)) in m}
            assert pulled in ([p.points(cf.group.elements)
                               for p in pull.members] + [set()]) \
                or not pulled

    def test_universal_quantifier_over_flow_lines(self):
        # two small geodesics, a member holding only one tau-vertex
        g = cycle_graph(6)
        sub = barycentric_subdivision(g)
        cf = flow_space(sub, all_angles(g), sub.ve_vertices())
        v0 = sub.midpoint_of_edge[(0, 1)]
        xi = sub.midpoint_of_edge[(3, 4)]  # antipodal midpoint: two flow lines
        e = cf.group.identity
        idx = cf.index
        layer1 = [v for v in idx.geodesic_vertex_set(v0, xi)
                  if idx.dist[v0][v] == 2 and sub.is_midpoint(v)]
        assert len(layer1) == 2
        taken = layer1[0]
        member = CoverMember(
            slices_of(on_classes(cf, [t for t in cf.triples
                                      if t[0] != layer1[1]]),
                      sub.ve_vertices()),
            frozenset([e]), True)
        pull = pullback_cover(cf, Cover((member,), 1, 0), 1, [(e, xi)], v0)
        assert all((e, xi) not in m.points(cf.group.elements)
                   for m in pull.members)

    def test_only_the_tau_sphere_of_a_line_is_read(self):
        # the slice holds the line's vertices at distance tau and none
        # nearer to the base: the pair is pulled back all the same
        g, sub, cf = tree_cf(8)
        v0 = sub.midpoint_of_edge[min(sub.midpoint_of_edge)]
        e = cf.group.identity
        d0 = cf.index.dist[v0]
        xi = max(cf.endpoints, key=d0.__getitem__)
        assert d0[xi] > 2
        at_tau = [v for v in cf.index.geodesic_vertex_set(v0, xi)
                  if d0[v] == 2]
        # a member of the class cover, held over the class of (v0, xi)
        member = CoverMember(slices_of(
            ((v, cf.classes[cf.fibers[v0, xi]]) for v in at_tau),
            sub.ve_vertices()), frozenset([e]), True)
        pull = pullback_cover(cf, Cover((member,), 1, 0), 1, [(e, xi)], v0)
        assert [m.points(cf.group.elements) for m in pull.members] == \
            [frozenset([(e, xi)])]

    def test_short_flow_lines_excluded(self):
        g, sub, cf = tree_cf(6)
        v0 = sub.midpoint_of_edge[min(sub.midpoint_of_edge)]
        targets = eligible_targets(cf, v0, cf.endpoints)
        full = CoverMember(slices_of(on_classes(cf, cf.triples),
                                     sub.ve_vertices()),
                           frozenset([cf.group.identity]), True)
        big_tau = 1 + max(cf.index.dist[g_[v0]][xi] // 2
                          for (g_, xi) in targets)
        pull = pullback_cover(cf, Cover((full,), 1, 0), big_tau, targets, v0)
        assert not pull.members

    @staticmethod
    def two_ended_cf():
        # a path whose flow space has only its two end midpoints as endpoints
        g = path_graph(6)
        sub = barycentric_subdivision(g)
        ve = sub.ve_vertices()
        return ve, flow_space(sub, all_angles(g), (ve[0], ve[-1]))

    def test_eligible_targets_reject_foreign_endpoints(self):
        ve, cf = self.two_ended_cf()
        with pytest.raises(ValueError, match="endpoints"):
            eligible_targets(cf, ve[0], [ve[2]])
        with pytest.raises(ValueError, match="endpoints"):
            eligible_targets(cf, ve[2], cf.endpoints)

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
                           eligible_targets(cf, v0, cf.endpoints), v0)

    def test_order_never_grows(self):
        for seed in (1, 4):
            g, sub, cf = tree_cf(10, seed=seed)
            v0 = sub.midpoint_of_edge[min(sub.midpoint_of_edge)]
            targets = eligible_targets(cf, v0, cf.endpoints)
            cov = cover_cf(cf_pair_space(cf), 3)
            for tau in (0, 1, 2):
                pull = pullback_cover(cf, cov, tau, targets, v0)
                assert pull.order <= cov.order


PULLBACK_CLASS_CASES = [case[:4] + case[5:] for case in pipeline_instances()] + [
    ("c%d-dihedral" % n, cycle_graph(n),
     [cyclic_rotation(n), cycle_reflection(n)], "seed", 6)
    for n in (16, 18, 20)] + [
    ("spider%d-%d-rot" % legs, spider(*legs), [spider_rotation(*legs)],
     "all", 6) for legs in ((3, 4), (4, 3))]


@pytest.mark.parametrize("name, g, gens, mode, tau_max",
                         PULLBACK_CLASS_CASES,
                         ids=[c[0] for c in PULLBACK_CLASS_CASES])
def test_pullback_over_classes_matches_the_expanded_cover(name, g, gens,
                                                          mode, tau_max):
    """pullback_cover reads the pipeline's flow cover, on fiber classes,
    through each pair's class number: it equals the pullback, from the
    definition, of the cover placed on every endpoint pair, at every tau
    up to tau_max, over every eligible target of the flow space."""
    res = run_pipeline(g, gens, alpha=1, tau_max=tau_max, theta0_mode=mode)
    cf, v0 = res.artifacts["cf"], res.instance.v0
    classes = res.artifacts["flow_cover"]
    expanded = expand_cover(cf, classes)
    assert {z for m in classes.members for z in m.slices} <= \
        set(cf.classes.values())
    targets = eligible_targets(cf, v0, cf.endpoints)
    assert targets
    for tau in range(tau_max + 1):
        assert pullback_cover(cf, classes, tau, targets, v0) == \
            pullback_on_pairs(cf, expanded, tau, targets, v0), tau


@pytest.mark.parametrize("name, g, gens, mode, tau_max",
                         PULLBACK_CLASS_CASES,
                         ids=[c[0] for c in PULLBACK_CLASS_CASES])
def test_composed_act_z_is_the_lookup_on_every_element(name, g, gens, mode,
                                                       tau_max):
    """cf_pair_space composes act_z along the group's generators; on every
    element it is the lookup of each endpoint pair's class, and the class
    numbers ascend with the least pairs."""
    inst = build_instance(g, gens)
    cf = flow_space(inst.sub, all_angles(g), inst.flow_endpoints(),
                    group=inst.sub_group, index=inst.index,
                    theta3_set=inst.t3)
    least = least_pairs(cf)
    assert least == sorted(set(least))
    act_z = cf_pair_space(cf).act_z
    assert list(act_z) == list(cf.group.elements)
    for p, act in act_z.items():
        assert act == [cf.classes[cf.fibers[p[a], p[b]]] for a, b in least]
        assert all(act[cf.classes[f]] == cf.classes[cf.fibers[p[a], p[b]]]
                   for (a, b), f in cf.fibers.items())


class TestWidenessScan:
    def test_trivial_group_passes_at_zero(self):
        g, sub, cf = tree_cf(10, seed=7)
        v0 = sub.midpoint_of_edge[min(sub.midpoint_of_edge)]
        targets = ball_closed_targets(cf, v0, 0, cf.endpoints)
        cov = cover_cf(cf_pair_space(cf), 2)
        scan = wideness_scan(cf, cov, 0, targets, range(0, 3), v0)
        assert scan.passing_tau == 0
        assert scan.cover == pullback_cover(cf, cov, scan.passing_tau,
                                            targets, v0)

    def test_shrunk_cover_reports_exhaustion(self):
        g, sub, cf = tree_cf(10)
        v0 = sub.midpoint_of_edge[min(sub.midpoint_of_edge)]
        targets = ball_closed_targets(cf, v0, 0, cf.endpoints)
        empty = Cover((), 2, -1)
        scan = wideness_scan(cf, empty, 0, targets, range(0, 2), v0)
        assert not scan.ok and scan.witness
        assert scan.cover is None

    def test_dropping_one_flow_cover_member(self):
        # the pipeline's 9-member flow cover of path_graph(10): dropping
        # member 0 breaks longness and wideness at every tau, members 3-6
        # longness alone, and members 1, 2, 7 and 8 are redundant
        res = run_pipeline(path_graph(10), (), alpha=1, tau_max=4,
                           theta0_mode="all")
        inst, cf = res.instance, res.artifacts["cf"]
        classes = res.artifacts["flow_cover"]
        cov = expand_cover(cf, classes)
        space = endpoint_pair_space(cf)
        targets = ball_closed_targets(cf, inst.v0, 1, inst.boundary)
        assert len(cov) == 9 and len(targets) == 8
        outcomes = []
        for i in range(len(cov)):
            kept = cov.members[:i] + cov.members[i + 1:]
            pruned = Cover(kept, cov.alpha, cover_order(
                [m.slices for m in kept], space.fibers))
            rep = verify_cover(pruned, space, cov.alpha, ALL_SUBGROUPS)
            # the scan reads the class cover, the same member dropped
            scan = wideness_scan(cf, Cover(
                classes.members[:i] + classes.members[i + 1:], cov.alpha,
                pruned.order), 1, targets, range(0, 5), inst.v0)
            outcomes.append((failed(rep), scan.passing_tau,
                             {why for _, _, why in scan.witness}))
        long_only = ({"not-long"}, 0, set())
        redundant = (set(), 0, set())
        assert outcomes == [({"not-long"}, None, {"no wide member"}),
                            redundant, redundant,
                            long_only, long_only, long_only, long_only,
                            redundant, redundant]

    def test_equivariant_cycle_scan(self):
        g = cycle_graph(12)
        inst = build_instance(g, [tuple((i + 3) % 12 for i in range(12))])
        sub, idx, Gs = inst.sub, inst.index, inst.sub_group
        v0 = sub.midpoint_of_edge[(0, 1)]
        theta = all_angles(g)
        orbit = {p[v0] for p in Gs.elements}
        endpoints = tuple(sorted(set(sub.ve_vertices())))
        cf = flow_space(sub, theta, endpoints, group=Gs, index=idx)
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
        inst = build_instance(g, [tuple((i + 3) % 12 for i in range(12))])
        sub, idx, Gs, v0, t3 = inst.sub, inst.index, inst.sub_group, \
            inst.v0, inst.t3
        theta0 = k_fold_sum(t3, 1)
        theta = theta_for_wideness(inst, 1, theta0)
        assert k_fold_sum(t3, 2) <= theta
        oracle = SmallnessOracle(sub, theta)
        ball = [p for p in Gs.elements if Gs.word_length[p] <= 1]
        for p in ball:
            a = p[v0]
            into, _ = small_steps(oracle, a, INF)
            for xi in sub.ve_vertices():
                # geodesics between ball translates and endpoints stay small
                # whenever the base translate flows small (theta0 = corner
                # size makes every cycle geodesic qualify)
                assert a == xi or into[xi]


WIDENESS_PARITY_CASES = [
    ("c12-dihedral", cycle_graph(12),
     [cyclic_rotation(12), cycle_reflection(12)]),
    ("c12-r3", cycle_graph(12), [tuple((i + 3) % 12 for i in range(12))]),
    ("c9-rot", cycle_graph(9), [cyclic_rotation(9)]),
    ("spider3-4-rot", spider(3, 4), [spider_rotation(3, 4)]),
    ("spider4-3-rot", spider(4, 3), [spider_rotation(4, 3)]),
    # at alpha 1 under the trivial theta0, ball(alpha) alone from v0 misses
    # the angles between legs two apart
    ("spider8-2-rot", spider(8, 2), [spider_rotation(8, 2)]),
]


@pytest.mark.parametrize("name, g, gens", WIDENESS_PARITY_CASES,
                         ids=[c[0] for c in WIDENESS_PARITY_CASES])
def test_theta_for_wideness_matches_the_ball_pairs(monkeypatch, name, g,
                                                   gens):
    """The pairs (v0, r v0), r in ball(2 alpha), give the same size as every
    pair of ball(alpha) translates of v0, at alpha 0 to 3, from the seeded
    and from the trivial theta0."""
    inst = build_instance(g, gens)
    Gs, v0 = inst.sub_group, inst.v0
    real = flow.geodesic_angles
    for alpha in range(4):
        ball = [p[v0] for p in Gs.ball(alpha)]
        for theta0 in (select_theta0(inst, alpha, "seed"), trivial_only(g)):
            got = theta_for_wideness(inst, alpha, theta0)
            monkeypatch.setattr(flow, "geodesic_angles", lambda index, sub, _:
                                real(index, sub, [(a, b) for a in ball
                                                  for b in ball]))
            assert got == theta_for_wideness(inst, alpha, theta0), alpha
            monkeypatch.setattr(flow, "geodesic_angles", real)


class TestEqualEndpoints:
    def test_tightest_constants_reported(self):
        g = path_graph(20)
        sub = barycentric_subdivision(g)
        ve = sub.ve_vertices()
        cf = flow_space(sub, all_angles(g), (ve[0], ve[-1]))
        rep = cf_doubling_report(cf, compute_tightest=True)
        assert rep["ok"]
        assert 1 <= rep["tightest_D"] <= 5
        assert rep["tightest_R"] <= rep["R"]
