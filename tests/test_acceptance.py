"""Acceptance suite: every shipped guarantee, one pass line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  Every
tolerance is exact; runtime budgets follow the stated limits.
"""

import random
import time

from coarsecover.angles import (
    all_angles,
    k_fold_sum,
    lemma_battery,
    theta3,
    theta3_circuit_bound_check,
)
from coarsecover.cones import cone_cover, cone_sets_as_cover, dichotomy_check, \
    seed_theta0
from coarsecover.corpus import (
    battery_graphs,
    cycle_graph,
    flow_graphs,
    grid_graph,
    path_graph,
    pipeline_instances,
    random_tree,
    rips_instances,
    rotation_group,
)
from coarsecover.covers import (
    Cover,
    CoverMember,
    Slices,
    cover_order,
    doubling_check,
    greedy_cover,
    minimal_doubling_constant,
    pair_space,
    verify_cover,
)
from coarsecover.flow import build_cf_theta, cf_doubling_report
from coarsecover.graphs import (
    GeodesicIndex,
    barycentric_subdivision,
    slimness_constant,
)
from coarsecover.pipeline import build_instance, run_pipeline
from coarsecover.rips import build_rips, contract_subcomplex, homology_oracle
from coarsecover.symmetry import ALL_SUBGROUPS, close_group
from oracles import decoded, default_basis, distance_matrix, encoded, \
    extend_cover, extend_open, fibers_of, flow_space, mask_vertices, \
    pairs_of, trivial_pair_space, validate_pair_space


def report(number, detail):
    print("ACCEPTANCE %02d PASS: %s" % (number, detail))


def _random_pair_space(rng):
    kind = rng.randrange(4)
    if kind == 3:
        # rotation subgroup acting on both coordinates: the generator also
        # swaps the two z-levels, so member stabilizers mix coordinates
        n = rng.choice((8, 12))
        g = cycle_graph(n)
        G = close_group(g, [tuple((i + 2) % n for i in range(n))])
        dm = distance_matrix(g)
        dist = {v: {w: dm[v][w] for w in range(n)} for v in range(n)}
        zs = ("a", "b")
        act_z = {}
        for p in G.elements:
            steps = (p[0] // 2) % 2  # generator power parity drives the swap
            act_z[p] = {"a": "ab"[steps], "b": "ba"[steps]}
        pairs = set()
        for _ in range(rng.randrange(1, 3)):
            v, z = rng.randrange(n), rng.choice(zs)
            for p in G.elements:
                pairs.add((p[v], act_z[p][z]))
        sp = pair_space(tuple(range(n)),
                        encoded(range(n), fibers_of(zs, pairs)), dist, G,
                        act_z)
        validate_pair_space(decoded(sp))
        return sp
    if kind == 0:
        # interval with holes, path metric
        n = rng.randrange(6, 16)
        pts = tuple(sorted(rng.sample(range(2 * n), n)))
        dist = {a: {b: abs(a - b) for b in pts} for a in pts}
        zs = tuple(range(rng.randrange(1, 4)))
        pairs = frozenset((v, z) for v in pts for z in zs
                          if rng.random() < 0.85)
        return trivial_pair_space(pts, fibers_of(zs, pairs), dist)
    if kind == 1:
        # small grid chunk with the L1 metric
        rows, cols = rng.randrange(2, 5), rng.randrange(2, 5)
        pts = tuple(range(rows * cols))

        def l1(a, b):
            return abs(a // cols - b // cols) + abs(a % cols - b % cols)

        dist = {a: {b: l1(a, b) for b in pts} for a in pts}
        zs = ("z",)
        pairs = frozenset((v, "z") for v in pts if rng.random() < 0.9)
        return trivial_pair_space(pts, fibers_of(zs, pairs), dist)
    # rotation action on a cycle, invariant pair set
    n = rng.choice((6, 8, 12))
    g = cycle_graph(n)
    G = rotation_group(n)
    dm = distance_matrix(g)
    dist = {v: {w: dm[v][w] for w in range(n)} for v in range(n)}
    zs = tuple(range(rng.randrange(1, 3)))
    act_z = {p: {z: z for z in zs} for p in G.elements}
    pairs = set()
    for z in zs:
        seedv = rng.randrange(n)
        for p in G.elements:
            pairs.add((p[seedv], z))
        if rng.random() < 0.5:
            other = rng.randrange(n)
            for p in G.elements:
                pairs.add((p[other], z))
    return pair_space(tuple(range(n)), encoded(range(n), fibers_of(zs, pairs)),
                      dist, G, act_z)


def test_criterion_01_greedy_cover_order_bound():
    t0 = time.time()
    rng = random.Random(2024)
    instances = 0
    while instances < 100:
        sp = _random_pair_space(rng)
        if not pairs_of(decoded(sp)):
            continue
        def d(a, b, rows=sp.dist):
            return rows[a][b]

        ds = []
        for fiber in decoded(sp).fibers.values():
            fib = sorted(fiber)
            if fib:
                ds.append(minimal_doubling_constant(fib, d, 1))
        d_cert = max(ds)
        for fiber in decoded(sp).fibers.values():
            fib = sorted(fiber)
            if fib:
                assert doubling_check(fib, d, d_cert, 1).ok
        alpha = rng.choice((1, 2))
        cov = greedy_cover(sp, alpha, default_basis(decoded(sp)))
        assert cov.order <= d_cert - 1, (instances, cov.order, d_cert)
        rep = verify_cover(cov, sp, alpha, ALL_SUBGROUPS)
        assert rep.ok
        instances += 1
    elapsed = time.time() - t0
    assert elapsed < 60
    report(1, "order <= D-1 on %d certified instances (%.1fs)"
           % (instances, elapsed))


def test_criterion_02_flow_space_doubling():
    t0 = time.time()
    fibers_checked = 0
    for name, g, use_all in flow_graphs():
        sub = barycentric_subdivision(g)
        assert sub.graph.vertex_count <= 200
        index = GeodesicIndex(sub.graph)
        t3 = theta3(sub, index=index)
        theta = all_angles(g) if use_all else k_fold_sum(t3, 2)
        ve = sub.ve_vertices()
        endpoints = ve[::max(1, len(ve) // 8)][:10]
        cf = build_cf_theta(sub, theta, endpoints, index=index, theta3_set=t3)
        rep = cf_doubling_report(cf, compute_tightest=False)
        assert rep["ok"], name
        assert rep["D"] == 5 and rep["R"] == 24 * cf.delta_prime + 12
        fibers_checked += rep["fibers"]
    elapsed = time.time() - t0
    assert elapsed < 120
    report(2, "%d fibers pass (D=5, R=24*delta'+12) (%.1fs)"
           % (fibers_checked, elapsed))


def test_criterion_03_theta3_circuit_bound():
    t0 = time.time()
    angles_checked = 0
    for name, g in battery_graphs():
        delta = slimness_constant(g).delta
        rep = theta3_circuit_bound_check(g, theta3(g, GeodesicIndex(g)), delta)
        assert rep["ok"], name
        angles_checked += rep["angles_checked"]
    elapsed = time.time() - t0
    assert elapsed < 60
    assert angles_checked > 0
    report(3, "%d corner angles on circuits within 16*delta (%.1fs)"
           % (angles_checked, elapsed))


def _cone_setup(name, g, gens, mode, alpha):
    inst = build_instance(g, gens)
    theta0 = seed_theta0(inst, alpha)
    if mode == "all":
        theta0 = theta0.union(all_angles(g))
    xi = inst.cone_targets()
    cones, oracle = cone_cover(inst, theta0, xi)
    return inst, xi, cones, oracle


def test_criterion_04_cone_cover_order():
    worst = -1
    for name, g, gens, mode, alpha, _tau in pipeline_instances():
        inst, xi, cones, oracle = _cone_setup(name, g, gens, mode, alpha)
        sub_group = inst.sub_group
        dom = [(ge, x) for ge in sub_group.elements for x in xi]
        cov = cone_sets_as_cover(cones, sub_group, dom)
        assert cov.order <= 2, name
        worst = max(worst, cov.order)
    report(4, "cone collections of order <= 2 everywhere (worst %d)" % worst)


def test_criterion_05_dichotomy():
    pairs = 0
    for name, g, gens, mode, alpha, _tau in pipeline_instances():
        inst, xi, cones, oracle = _cone_setup(name, g, gens, mode, alpha)
        rep = dichotomy_check(inst, oracle, alpha, cones, xi)
        assert rep["ok"], (name, rep["failures"][:2])
        pairs += rep["pairs_checked"]
    report(5, "wide-or-small dichotomy holds on %d pairs" % pairs)


def test_criterion_06_rips_contractibility():
    t0 = time.time()
    total_moves = 0
    cases = set()
    # the rips corpus makes no far fold; the 2 x 8 grid at d = 4 does
    instances = rips_instances() + [("grid-2x8", grid_graph(2, 8), 4)]
    for name, g, d in instances:
        index = GeodesicIndex(g)
        t3 = theta3(g, index=index)
        theta = k_fold_sum(t3, 7)
        delta = slimness_constant(g).delta
        assert d >= 4 * max(1, delta), name
        trace = contract_subcomplex(sorted(g.vertices), g, d, theta, delta,
                                    index=index)
        for m in trace.moves:
            assert m.measure_after < m.measure_before
        total_moves += len(trace.moves)
        cases |= {m.case for m in trace.moves}
        P = build_rips(g, d, theta, index=index)
        betti = homology_oracle(P, max(P.dimension, 0), cap=5000)
        assert betti[0] == 1 and all(b == 0 for b in betti[1:]), (name, betti)
    assert cases == {"angle-fold", "far-fold", "base-fold"}
    elapsed = time.time() - t0
    assert elapsed < 300
    report(6, "traces valid, Betti (1,0,...) on %d instances, %d moves (%.1fs)"
           % (len(instances), total_moves, elapsed))


def test_criterion_07_extension_identities():
    rng = random.Random(77)
    g1 = path_graph(1)
    G = close_group(g1, ())
    checked = 0
    for _ in range(1000):
        n = rng.randrange(3, 12)
        pts = list(range(n))

        def d(a, b):
            return abs(a - b)

        x0 = frozenset(p for p in pts if rng.random() < 0.7)
        u = frozenset(p for p in x0 if rng.random() < 0.5)
        v = frozenset(p for p in x0 if rng.random() < 0.5)
        up = extend_open(u, x0, pts, d)
        vp = extend_open(v, x0, pts, d)
        assert x0 & up == u
        assert extend_open(u & v, x0, pts, d) == up & vp
        # sets of points over one z-point, the form extend_cover reads and
        # cover_order counts alike
        subsets = [frozenset(p for p in x0 if rng.random() < 0.5)
                   for _ in range(rng.randrange(1, 4))]
        members = tuple(
            CoverMember(Slices({0: s} if s else {}), frozenset([G.identity]),
                        True)
            for s in subsets)
        cov = Cover(members, 1, cover_order([m.slices for m in members],
                                            {0: x0}))
        ext = extend_cover(cov, x0, pts, d, G, lambda p, x: x)
        assert ext.order == cov.order
        checked += 1
    report(7, "extension identities hold on %d random instances" % checked)


def test_criterion_08_lemma_battery():
    total = 0
    nonvacuous = {}
    for name, g in battery_graphs():
        index = GeodesicIndex(g)
        rep = lemma_battery(g, theta3(g, index), 4800, seed=len(name) * 101,
                            index=index)
        assert rep.ok, (name, {k: v.violations[:1]
                               for k, v in rep.lemmas.items() if v.violations})
        total += rep.total_checked
        for lemma, c in rep.lemmas.items():
            nonvacuous[lemma] = nonvacuous.get(lemma, 0) + c.nonvacuous
    assert total >= 10_000, total
    assert all(v >= 1 for v in nonvacuous.values()), nonvacuous
    report(8, "zero violations over %d configurations; every lemma hit "
              "non-vacuously" % total)


def test_criterion_09_tree_sanity():
    for seed in range(5):
        g = random_tree(12 + seed, seed=seed)
        assert slimness_constant(g).delta == 0
        assert len(theta3(g, GeodesicIndex(g))) == 0
        sub = barycentric_subdivision(g)
        cf = flow_space(sub, all_angles(g), sub.ve_vertices())
        idx = cf.index
        for (xm, xp), mask in cf.fibers.items():
            fiber = mask_vertices(mask)
            mids = [w for w in idx.geodesic_vertex_set(xm, xp)
                    if sub.is_midpoint(w)]
            band = {v for v in sub.ve_vertices()
                    if min(cf.metric[v][w] for w in mids) <= cf.delta_prime}
            assert fiber == band
    report(9, "trees: slimness 0, trivial corner size, fibers are geodesic "
              "bands")


def test_criterion_10_headline_pipeline():
    results = []
    for name, g, gens, mode, alpha, tau_max in pipeline_instances():
        res = run_pipeline(g, gens, alpha=alpha, tau_max=tau_max,
                           theta0_mode=mode)
        assert res.ok, (name, res.stages)
        comb = res.stages["combined"]
        assert comb["order"] <= comb["flow_order"] + 3, name
        assert not comb["wide_failures"], name
        results.append((name, comb["order"]))
    report(10, "pipeline passes end to end on %d corpus instances: %s"
           % (len(results), results))
