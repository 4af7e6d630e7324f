import random
from dataclasses import replace

import pytest

from coarsecover.corpus import (
    cycle_graph,
    cycle_reflection,
    dihedral_group,
    path_graph,
    rotation_group,
)
from coarsecover.covers import (
    BasisError,
    BasisTriple,
    Cover,
    CoverMember,
    _far_core,
    _violating_set,
    cover_order,
    doubling_check,
    fiber_basis,
    greedy_cover,
    minimal_doubling_constant,
    pair_space,
    slices_of,
    verify_cover,
)
from coarsecover.graphs import INF, make_graph
from coarsecover.symmetry import ALL_SUBGROUPS, TRIVIAL_ONLY, \
    SubgroupFamily, close_group, compose
from coarsecover.covers import Slices
from oracles import cover_order_brute, decoded, decoded_sets, \
    default_basis, distance_matrix, encoded, extend_cover, extend_open, \
    failed, fibers_of, greedy_cover_reference, pairs_of, \
    separated_sets_brute, set_cover, trivial_pair_space, validate_family, \
    validate_pair_space, verify_cover_definitional, violating_set_unpruned


def line_metric(n):
    return lambda a, b: abs(a - b)


def l1_metric(cols):
    def d(a, b):
        return abs(a // cols - b // cols) + abs(a % cols - b % cols)
    return d


class TestDoubling:
    def test_single_point(self):
        assert doubling_check([0], line_metric(1), 1, 0).ok

    def test_line_segment(self):
        rep = doubling_check(range(30), line_metric(30), 5, 1)
        assert rep.ok
        assert minimal_doubling_constant(range(30), line_metric(30), 1) == 4

    def test_grid_fails_d5(self):
        pts = list(range(100))
        rep = doubling_check(pts, l1_metric(10), 5, 1)
        assert not rep.ok
        alpha, center, sep = rep.witness
        d = l1_metric(10)
        assert len(sep) == 6
        assert all(d(center, p) <= 2 * alpha for p in sep)
        assert all(d(a, b) > alpha for i, a in enumerate(sep)
                   for b in sep[i + 1:])

    def test_witness_agrees_with_brute(self):
        pts = list(range(12))
        d = line_metric(12)
        for alpha in (1, 1.5, 2, 3):
            brute_best = max((k for k in range(1, 13)
                              if any(max(d(c, p) for p in s) <= 2 * alpha
                                     for c in pts
                                     for s in separated_sets_brute(
                                         pts, d, alpha, k))),
                             default=0)
            got = minimal_doubling_constant(pts, d, alpha)
            # minimal constant scans all alpha >= R, so it dominates
            assert got >= brute_best

    def test_inf_distances_partition(self):
        def d(a, b):
            if (a < 3) != (b < 3):
                return INF
            return abs(a - b)
        rep = doubling_check(range(6), d, 3, 1)
        assert rep.ok

    def test_peeling_one_point_drops_its_neighbour_from_the_core(self):
        # far pairs (10 apart): the triangle 0-1-2 and the path 2-3-4;
        # 3 has two far neighbours, but peeling 4 leaves it one; the
        # centre of the least radius, 4, is outside the core
        far = {(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)}
        d = [[0 if i == j else 10 if (min(i, j), max(i, j)) in far else 1
              for j in range(5)] for i in range(5)]
        assert sum(x > 5 for x in d[3]) == 2
        assert _far_core(d, 2, 5) == [0, 1, 2]
        assert _violating_set(list(range(5)), d, 3, 5) \
            == violating_set_unpruned(list(range(5)), d, 3, 5) \
            == ([0, 1, 2], 10, 1, 4)


def build_space(n_points, alpha=1, z_points=("z",), pairs=None):
    dist = {v: {w: abs(v - w) for w in range(n_points)}
            for v in range(n_points)}
    if pairs is None:
        pairs = [(v, z) for v in range(n_points) for z in z_points]
    return trivial_pair_space(range(n_points), fibers_of(z_points, pairs),
                              dist)


class TestGreedyCover:
    def test_single_point(self):
        sp = build_space(1)
        cov = greedy_cover(sp, 2, default_basis(decoded(sp)))
        assert len(cov) == 1 and cov.order == 0

    def test_line_order_bound(self):
        sp = build_space(9)
        cov = greedy_cover(sp, 1, default_basis(decoded(sp)))
        assert cov.order <= 4
        rep = verify_cover(cov, sp, 1, ALL_SUBGROUPS)
        assert rep.ok

    def test_rotation_orbit_expansion(self):
        g = cycle_graph(6)
        G = rotation_group(6)
        dm = distance_matrix(g)
        dist = {v: {w: dm[v][w] for w in range(6)} for v in range(6)}
        act_z = {p: {"z": "z"} for p in G.elements}
        sp = pair_space(tuple(range(6)), encoded(range(6), {"z": range(6)}),
                        dist, G, act_z)
        validate_pair_space(decoded(sp))
        cov = greedy_cover(sp, 1, default_basis(decoded(sp)))
        rep = verify_cover(cov, sp, 1, ALL_SUBGROUPS)
        assert failed(rep) == set()

    def test_determinism(self):
        sp = build_space(9)
        basis = default_basis(decoded(sp))
        c1 = greedy_cover(sp, 1, basis)
        c2 = greedy_cover(sp, 1, basis)
        assert [m.points(sp.v_points) for m in c1.members] == \
            [m.points(sp.v_points) for m in c2.members]

    def test_metamorphic_basis_permutation(self):
        sp = build_space(9)
        rng = random.Random(6)
        base = default_basis(decoded(sp))
        for _ in range(5):
            basis = list(base)
            rng.shuffle(basis)
            cov = greedy_cover(sp, 1, basis)
            rep = verify_cover(cov, sp, 1, ALL_SUBGROUPS)
            assert rep.ok and cov.order <= 4

    def test_v_points_must_ascend(self):
        # bit i of a mask is the i-th v-point, and the least bit of a
        # not-long fiber names the least v only when they ascend
        dist = {v: {w: abs(v - w) for w in range(3)} for v in range(3)}
        G = close_group(make_graph(3, []), ())
        with pytest.raises(ValueError, match="ascending"):
            pair_space((2, 0, 1), {"z": 0b111}, dist, G,
                       {G.identity: {"z": "z"}})

    def test_basis_must_cover(self):
        sp = build_space(4)
        basis = default_basis(decoded(sp))[:-1]
        with pytest.raises(BasisError, match="cover"):
            greedy_cover(sp, 1, basis)

    def test_basis_uncovered_pairs_are_listed_sorted(self):
        sp = build_space(5, z_points=("a", "b"),
                         pairs=[(v, z) for v in range(5) for z in "ab"
                                if (v, z) != (3, "b")])
        basis = [t for t in default_basis(decoded(sp)) if t.v not in (1, 4)]
        with pytest.raises(BasisError) as err:
            greedy_cover(sp, 1, basis)
        assert str(err.value) == ("basis does not cover the pair set, e.g. "
                                  "[(1, 'a'), (1, 'b'), (4, 'a')]")

    def test_basis_blocks_must_sit_inside_the_fibers(self):
        sp = build_space(5, z_points=("a", "b"),
                         pairs=[(v, z) for v in range(5) for z in "ab"
                                if (v, z) != (3, "b")])
        identity = frozenset([sp.group.identity])
        for zset in ("ab", "c"):
            bad = default_basis(decoded(sp)) + [BasisTriple(3, frozenset(zset),
                                                   identity)]
            with pytest.raises(BasisError) as err:
                greedy_cover(sp, 1, bad)
            assert str(err.value) == \
                "basis 9: z-set leaves the fiber of 3", zset

    def test_basis_annotation_must_be_a_subgroup(self):
        # {e, r}, with r the rotation of order 6, is not closed under
        # composition
        g = cycle_graph(6)
        G = rotation_group(6)
        dm = distance_matrix(g)
        dist = {v: {w: dm[v][w] for w in range(6)} for v in range(6)}
        act_z = {p: {"z": "z"} for p in G.elements}
        sp = pair_space(tuple(range(6)), encoded(range(6), {"z": range(6)}),
                        dist, G, act_z)
        r = tuple((i + 1) % 6 for i in range(6))
        assert r in G.elements
        bad = [BasisTriple(0, frozenset(["z"]), frozenset([G.identity, r]))]
        with pytest.raises(BasisError) as err:
            greedy_cover(sp, 1, bad)
        assert str(err.value) == "basis 0: annotation is not a subgroup"

    def test_basis_separation_condition(self):
        g = cycle_graph(6)
        G = rotation_group(6)
        dm = distance_matrix(g)
        dist = {v: {w: dm[v][w] for w in range(6)} for v in range(6)}
        act_z = {p: {"z": "z"} for p in G.elements}
        sp = pair_space(tuple(range(6)), encoded(range(6), {"z": range(6)}),
                        dist, G, act_z)
        bad = [BasisTriple(0, frozenset(["z"]), frozenset([G.identity]))]
        with pytest.raises(BasisError, match="moves the block"):
            greedy_cover(sp, 1, bad)

    def test_fiber_basis_covers(self):
        sp = build_space(7, z_points=("a", "b"),
                         pairs=[(v, "a") for v in range(7)]
                         + [(v, "b") for v in range(3)])
        cov = greedy_cover(sp, 1, fiber_basis(sp, 1))
        rep = verify_cover(cov, sp, 1, ALL_SUBGROUPS)
        assert rep.ok

    def test_trivial_family_fails_on_stabilized_member(self):
        g = cycle_graph(6)
        G = rotation_group(6)
        dm = distance_matrix(g)
        dist = {v: {w: dm[v][w] for w in range(6)} for v in range(6)}
        act_z = {p: {"z": "z"} for p in G.elements}
        sp = pair_space(tuple(range(6)), encoded(range(6), {"z": range(6)}),
                        dist, G, act_z)
        cov = greedy_cover(sp, 1, fiber_basis(sp, 1))
        rep = verify_cover(cov, sp, 1, TRIVIAL_ONLY)
        assert "not-f-subset" in failed(rep)


class TestVerifyCover:
    def test_whole_space_cover(self):
        sp = build_space(5)
        member = CoverMember(slices_of(pairs_of(decoded(sp)), sp.v_points),
                             frozenset([sp.group.identity]), True)
        cov = Cover((member,), 99, 0)
        rep = verify_cover(cov, sp, 99, ALL_SUBGROUPS)
        assert rep.ok

    def test_deleted_member_breaks_longness(self):
        sp = build_space(9)
        cov = greedy_cover(sp, 1, default_basis(decoded(sp)))
        kept = cov.members[:2] + cov.members[3:]  # drop the middle member
        pruned = Cover(kept, cov.alpha,
                       cover_order([m.slices for m in kept], sp.fibers))
        rep = verify_cover(pruned, sp, 1, ALL_SUBGROUPS)
        assert "not-long" in failed(rep)


    def test_negative_alpha_rejected(self):
        # one member misses (1, z) and (2, z); at alpha = -1 every needed
        # set would be empty and the check would pass it
        sp = build_space(3)
        member = CoverMember(slices_of([(0, "z")], sp.v_points),
                             frozenset([sp.group.identity]), True)
        cov = Cover((member,), 0, 0)
        rep = verify_cover(cov, sp, 0, ALL_SUBGROUPS)
        assert "not-long" in failed(rep)
        with pytest.raises(ValueError, match="nonnegative"):
            verify_cover(cov, sp, -1, ALL_SUBGROUPS)
        with pytest.raises(ValueError, match="nonnegative"):
            greedy_cover(sp, -1, default_basis(decoded(sp)))


    def test_stated_order_must_match(self):
        # negative control: the order is recounted and compared
        sp = build_space(9)
        cov = greedy_cover(sp, 1, default_basis(decoded(sp)))
        assert verify_cover(cov, sp, 1, ALL_SUBGROUPS).ok
        rep = verify_cover(replace(cov, order=cov.order + 1), sp, 1,
                           ALL_SUBGROUPS)
        assert not rep.ok
        assert failed(rep) == {"order-mismatch"}
        assert rep.failures == (("order-mismatch",
                                 (cov.order + 1, cov.order)),)


def cover_of(space, sets):
    """A cover with the given member sets, its true order and unread
    annotations."""
    triv = frozenset([space.group.identity])
    members = tuple(CoverMember(slices_of(m, space.v_points), triv, True)
                    for m in sets)
    return Cover(members, 0, cover_order([m.slices for m in members],
                                         space.fibers))


def over(z, vs):
    return {(v, z) for v in vs}


class TestVerifyCoverPerFiber:
    """verify_cover checks each distinct (fiber, slices) once; the fibers
    below are equal, so only the slices over them tell them apart."""

    def test_least_failing_pair_is_reported(self):
        # both z-points fail at v = 1 and v = 2; "b" is walked first
        sp = build_space(3, z_points=("b", "a"))
        sets = [over("a", (0, 1)) | over("b", (0, 1)),
                over("a", (2,)) | over("b", (2,))]
        rep = verify_cover(cover_of(sp, sets), sp, 1, ALL_SUBGROUPS)
        assert verify_cover_definitional(sets, decoded(sp), 1, ALL_SUBGROUPS)[1] \
            == (1, "a")
        assert rep.failures == (("not-long", (1, "a")),)

    def test_equal_fibers_with_different_slices(self):
        # "a" is long, "b" is not: a check keyed on the fiber alone
        # would reuse the verdict of "a"
        sp = build_space(3, z_points=("a", "b"))
        sets = [over("a", (0, 1, 2)) | over("b", (0, 1)), over("b", (2,))]
        rep = verify_cover(cover_of(sp, sets), sp, 1, ALL_SUBGROUPS)
        assert failed(rep) == {"not-long"}
        assert rep.failures == (("not-long", (1, "b")),)

    def test_two_slices_neither_holding_the_fiber(self):
        # negative control for the class shortcuts: both slices meet the
        # fiber {0, ..., 4} and neither holds it, and at alpha 1 only
        # v = 2 has its neighbours split between them
        sp = build_space(5, z_points=("a",))
        sets = [over("a", (0, 1, 2)), over("a", (2, 3, 4))]
        cov = cover_of(sp, sets)
        assert cov.order == 1
        rep = verify_cover(cov, sp, 1, ALL_SUBGROUPS)
        assert verify_cover_definitional(sets, decoded(sp), 1, ALL_SUBGROUPS)[1] \
            == (2, "a")
        assert rep.failures == (("not-long", (2, "a")),)

    def test_one_slice_missing_its_fiber_adds_no_order(self):
        # over "b" the one slice held misses the fiber {0}, and nothing is
        # held over "a": no point is shared, so the order is -1
        sp = build_space(3, z_points=("a", "b"),
                         pairs=[(0, "a"), (1, "a"), (0, "b")])
        for sets, order in (([{(1, "b")}], -1), ([{(0, "b")}], 0)):
            assert cover_order([slices_of(m, sp.v_points) for m in sets],
                               sp.fibers) \
                == cover_order_brute(sets, pairs_of(decoded(sp))) == order

    def test_equal_slices_with_different_multiplicities(self):
        # two members agree over "b" only: the order is 1, read over "b"
        sp = build_space(3, z_points=("a", "b"))
        sets = [over("a", (0, 1, 2)) | over("b", (0, 1, 2)),
                over("b", (0, 1, 2))]
        cov = cover_of(sp, sets)
        assert cov.order == 1
        rep = verify_cover(cov, sp, 1, ALL_SUBGROUPS)
        assert rep.ok


class TestRandomCorpus:
    def test_order_bound_random_instances(self):
        rng = random.Random(13)
        for trial in range(25):
            n = rng.randrange(5, 14)
            sp = build_space(n, z_points=tuple("ab"[:rng.randrange(1, 3)]))
            pairs = frozenset((v, z) for (v, z) in pairs_of(decoded(sp))
                              if rng.random() < 0.8 or v == 0)
            sp = trivial_pair_space(sp.v_points, fibers_of(sp.fibers, pairs),
                                    sp.dist)
            if not pairs:
                continue
            alpha = rng.choice((1, 2))
            d_cert = 1
            for fiber in decoded(sp).fibers.values():
                fib = sorted(fiber)
                if fib:
                    d_cert = max(d_cert, minimal_doubling_constant(
                        fib, lambda a, b: abs(a - b), 1))
            cov = greedy_cover(sp, alpha, default_basis(decoded(sp)))
            assert cov.order <= d_cert - 1
            rep = verify_cover(cov, sp, alpha, ALL_SUBGROUPS)
            assert rep.ok


class TestExtendOpen:
    def test_three_point_line(self):
        d = line_metric(3)
        got = extend_open({0}, {0, 2}, {0, 1, 2}, d)
        assert got == frozenset({0})  # the middle point is equidistant

    def test_full_subspace_extends_everywhere(self):
        d = line_metric(4)
        got = extend_open({0, 1, 2, 3}, {0, 1, 2, 3}, range(4), d)
        assert got == frozenset(range(4))

    def test_empty(self):
        assert extend_open(set(), {0, 1}, {0, 1, 2}, line_metric(3)) == \
            frozenset()

    def test_restriction_recovers(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randrange(2, 9)
            pts = list(range(n))
            x0 = frozenset(p for p in pts if rng.random() < 0.6)
            u = frozenset(p for p in x0 if rng.random() < 0.5)
            up = extend_open(u, x0, pts, line_metric(n))
            assert x0 & up == u

    def test_intersection_commutes(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randrange(3, 10)
            pts = list(range(n))
            x0 = frozenset(p for p in pts if rng.random() < 0.7)
            u = frozenset(p for p in x0 if rng.random() < 0.5)
            v = frozenset(p for p in x0 if rng.random() < 0.5)
            d = line_metric(n)
            lhs = extend_open(u & v, x0, pts, d)
            rhs = extend_open(u, x0, pts, d) & extend_open(v, x0, pts, d)
            assert lhs == rhs

    def test_boundary_identity_is_vacuous_on_finite_metrics(self):
        # every subset of a finite metric space is clopen in the ball
        # topology, so both boundaries in the stated identity are empty
        d = line_metric(5)
        u = {1, 2}
        up = extend_open(u, {0, 1, 2, 4}, range(5), d)
        assert {x for x in {0, 1, 2, 4} if x in u} == u & up | (u - up) | u

    def test_not_subset_raises(self):
        with pytest.raises(ValueError):
            extend_open({3}, {0, 1}, range(4), line_metric(4))


def plain_member(points, G):
    """A member over a plain metric set: its points sit over one z-point,
    as a set, the form extend_cover reads and cover_order counts alike."""
    return CoverMember(Slices({0: frozenset(points)} if points else {}),
                       frozenset([G.identity]), True)


def plain_points(member):
    return set(member.slices.get(0, ()))


class TestExtendCover:
    def test_singleton(self):
        g = path_graph(1)
        G = close_group(g, ())
        member = plain_member({0, 1}, G)
        cov = Cover((member,), 1, 0)
        out = extend_cover(cov, {0, 1}, {0, 1, 2, 3}, line_metric(4), G,
                           lambda p, x: x)
        assert out.order == 0

    def test_disjoint_members_stay_disjoint(self):
        g = path_graph(1)
        G = close_group(g, ())
        m1 = plain_member({0}, G)
        m2 = plain_member({9}, G)
        cov = Cover((m1, m2), 1, 0)
        out = extend_cover(cov, {0, 9}, range(10), line_metric(10), G,
                           lambda p, x: x)
        assert out.order == 0
        assert not (plain_points(out.members[0])
                    & plain_points(out.members[1]))

    def test_order_preserved_randomized(self):
        g = path_graph(1)
        G = close_group(g, ())
        rng = random.Random(21)
        for _ in range(50):
            n = rng.randrange(4, 12)
            pts = list(range(n))
            x0 = sorted(p for p in pts if rng.random() < 0.6)
            if not x0:
                continue
            members = []
            for _ in range(rng.randrange(1, 4)):
                u = frozenset(p for p in x0 if rng.random() < 0.5)
                members.append(plain_member(u, G))
            cov = Cover(tuple(members), 1,
                        cover_order([m.slices for m in members],
                                    {0: frozenset(x0)}))
            out = extend_cover(cov, x0, pts, line_metric(n), G,
                               lambda p, x: x)
            assert out.order == cov.order
            for before, after in zip(cov.members, out.members):
                assert plain_points(after) & set(x0) == plain_points(before)

    def test_non_invariant_metric_rejected(self):
        g = cycle_graph(3)
        G = close_group(g, [(1, 2, 0)])

        def skew(a, b):
            return abs(2 ** a - 2 ** b)

        member = plain_member({0}, G)
        with pytest.raises(ValueError, match="not invariant"):
            extend_cover(Cover((member,), 1, 0), {0, 1, 2}, {0, 1, 2}, skew,
                         G, lambda p, x: p[x])


def dihedral_space(n, *seeds):
    """Z/n with the cyclic gap metric under its dihedral group.

    With seed pairs (v, (a, b)) the pairs are their orbits, z-points being
    ordered pairs of vertices; otherwise every vertex sits over one fixed
    z-point.
    """
    G = dihedral_group(n)
    g = cycle_graph(n)
    dm = distance_matrix(g)
    dist = {v: {w: dm[v][w] for w in range(n)} for v in range(n)}
    if seeds:
        pairs = {(p[v], (p[a], p[b])) for v, (a, b) in seeds
                 for p in G.elements}
        z_points = tuple(sorted({z for _, z in pairs}))
        act_z = {p: {z: (p[z[0]], p[z[1]]) for z in z_points}
                 for p in G.elements}
    else:
        pairs = {(v, "z") for v in range(n)}
        z_points = ("z",)
        act_z = {p: {"z": "z"} for p in G.elements}
    return pair_space(tuple(range(n)),
                      encoded(range(n), fibers_of(z_points, pairs)), dist, G,
                      act_z)


FREE = (0, (0, 1))  # its orbit under a dihedral group is free


def singleton_cover(space, points):
    """One member per point, annotated as one orbit with trivial
    stabilizers; verify_cover must not read the annotations."""
    triv = frozenset([space.group.identity])
    members = tuple(CoverMember(slices_of([x], space.v_points), triv, k == 0)
                    for k, x in enumerate(points))
    return Cover(members, 0, cover_order([m.slices for m in members],
                                         space.fibers))


class TestOrbitWalks:
    """Negative controls for the generator-only invariance check and the
    orbit-wise F-subset check, and the annotations of greedy members."""

    def test_members_annotated_with_the_first_element_of_each_coset(self):
        # an orbit set's breadth-first transversal element is not always
        # the first element of its coset here
        sp = dihedral_space(5, (0, (2, 2)))
        basis = default_basis(decoded(sp))
        assert set_cover(greedy_cover(sp, 0, basis), sp.v_points) == \
            greedy_cover_reference(decoded(sp), 0, basis)

    def test_equal_fibers_keep_their_own_core_slices_under_a_group(self):
        # every fiber is {0, 1}, but the swap s carries the first block's
        # z1 to z3, so the second block keeps z2 and loses z3: whether a
        # z-point keeps its core slice is not read off its fiber here; s
        # swaps the vertices 2 and 3 and fixes the v-points 0 and 1
        G = close_group(make_graph(4, [(2, 3)]), [(0, 1, 3, 2)])
        e, s = G.identity, G.generators[0]
        swap = {"z1": "z3", "z3": "z1", "z2": "z4", "z4": "z2"}
        sp = pair_space((0, 1), encoded((0, 1), {z: (0, 1) for z in swap}),
                        {0: {0: 0, 1: 1}, 1: {0: 1, 1: 0}}, G,
                        {e: {z: z for z in swap}, s: swap})
        validate_pair_space(decoded(sp))
        triv = frozenset([e])
        basis = [BasisTriple(1, frozenset(["z1"]), triv),
                 BasisTriple(0, frozenset(["z2", "z3"]), triv),
                 BasisTriple(1, frozenset(["z2"]), triv)]
        cov = greedy_cover(sp, 1, basis)
        assert set_cover(cov, sp.v_points) == \
            greedy_cover_reference(decoded(sp), 1, basis)
        both = frozenset([0, 1])
        assert [decoded_sets(sp.v_points, s) for s in cov.member_slices()] \
            == [{"z1": both}, {"z3": both}, {"z2": both}, {"z4": both}]
        assert verify_cover(cov, sp, 1, ALL_SUBGROUPS).ok

    def test_uncovered_pairs_listed_over_every_v_point(self):
        # two orbits of pairs, one basis triple each; dropping one leaves
        # its whole orbit uncovered.  The check runs at the representative
        # v = 0, the message lists the least pairs over every v-point, as a
        # scan of every translate of every block finds them
        sp = dihedral_space(6, FREE, (0, (0, 3)))
        validate_pair_space(decoded(sp))
        basis = default_basis(decoded(sp))
        assert len(basis) == 2
        greedy_cover(sp, 1, basis)
        for kept in ([basis[0]], [basis[1]]):
            covered = {(p[t.v], sp.act_z[p][z]) for t in kept
                       for p in sp.group.elements for z in t.zset}
            missing = sorted(pairs_of(decoded(sp)) - covered)
            assert any(v != 0 for v, _ in missing[:3])
            with pytest.raises(BasisError) as err:
                greedy_cover(sp, 1, kept)
            assert str(err.value) == \
                "basis does not cover the pair set, e.g. %r" % (missing[:3],)

    def test_validate_rejects_an_action_off_the_generators(self):
        sp = dihedral_space(6, FREE)
        G = sp.group
        r2 = compose(G.generators[0], G.generators[0])
        act_z = dict(sp.act_z)
        act_z[r2] = {z: z for z in sp.fibers}  # not r applied twice
        bad = pair_space(sp.v_points, sp.fibers, sp.dist, G, act_z)
        validate_pair_space(decoded(sp))
        with pytest.raises(ValueError, match="composition"):
            validate_pair_space(decoded(bad))

    def test_free_orbit_of_singletons_passes(self):
        sp = dihedral_space(6, FREE)
        validate_pair_space(decoded(sp))
        rep = verify_cover(singleton_cover(sp, sorted(pairs_of(decoded(sp)))), sp, 0,
                           TRIVIAL_ONLY)
        assert rep.ok and len(pairs_of(decoded(sp))) == 12

    def test_one_translate_removed(self):
        sp = dihedral_space(6, FREE)
        points = sorted(pairs_of(decoded(sp)))
        rep = verify_cover(singleton_cover(sp, points[:4] + points[5:]), sp,
                           0, ALL_SUBGROUPS)
        assert "not-invariant" in failed(rep)
        (named,) = [p for kind, p in rep.failures if kind == "not-invariant"]
        assert named in sp.group.generators

    def test_rotation_orbit_alone_fails_on_the_reflection(self):
        # invariant under the first generator, the rotation, only
        sp = dihedral_space(6, FREE)
        points = [(k, (k, (k + 1) % 6)) for k in range(6)]
        rep = verify_cover(singleton_cover(sp, points), sp, 0, ALL_SUBGROUPS)
        assert "not-invariant" in failed(rep)
        assert ("not-invariant", cycle_reflection(6)) in rep.failures

    def test_member_meeting_its_translate_at_a_non_representative_slot(self):
        sp = dihedral_space(6, FREE)
        cov = singleton_cover(sp, sorted(pairs_of(decoded(sp))))
        r = sp.group.generators[0]
        x = cov.members[5].points(sp.v_points)
        moved = {(r[v], sp.act_z[r][z]) for v, z in x}
        overlapping = x | moved  # meets its r-translate
        members = list(cov.members)
        members[5] = CoverMember(slices_of(overlapping, sp.v_points),
                                 members[5].stabilizer, False)
        order = cover_order([m.slices for m in members], sp.fibers)
        rep = verify_cover(Cover(tuple(members), 0, order), sp, 0,
                           ALL_SUBGROUPS)
        assert "not-f-subset" in failed(rep)
        assert ("not-f-subset", 5) in rep.failures

    def test_unclosed_family_fails_on_a_non_representative(self):
        # Stab{(k, z)} = {e, v -> 2k - v}: the list holds the stabilizer of
        # the first member only, so only the second member leaves it
        sp = dihedral_space(6)
        G = sp.group
        fix0 = frozenset([G.identity, cycle_reflection(6)])
        family = SubgroupFamily("explicit-list",
                                members=(frozenset([G.identity]), fix0))
        with pytest.raises(ValueError, match="conjugation"):
            validate_family(family, G)
        cov = singleton_cover(sp, [(v, "z") for v in range(6)])
        rep = verify_cover(cov, sp, 0, family)
        assert failed(rep) == {"not-f-subset"}
        assert rep.failures == (("not-f-subset", 1),)
        assert verify_cover(cov, sp, 0, ALL_SUBGROUPS).ok


def _plant(sp, defect):
    """The dihedral space sp with one defect planted in a copy of a part."""
    dist = {v: dict(row) for v, row in sp.dist.items()}
    e = sp.group.identity
    if defect == "missing-translate":
        # (0, (0, 1)) leaves the free orbit; its translates stay.  Rebuilt
        # through pair_space, so that z_over matches the fibers.
        return pair_space(sp.v_points, {**sp.fibers, (0, 1): 0},
                          sp.dist, sp.group, sp.act_z)
    if defect == "stale-index":
        # the fibers are intact; Z_0 has lost (0, 1)
        return replace(sp, z_over={**sp.z_over,
                                   0: sp.z_over[0] - {(0, 1)}})
    if defect == "identity-moves":
        act_z = dict(sp.act_z)
        act_z[e] = {**act_z[e], (0, 1): (1, 2)}
        return replace(sp, act_z=act_z)
    if defect == "metric-not-invariant":
        dist[0][3] = dist[3][0] = 2  # no rotation keeps this shortcut
    elif defect == "nonzero-diagonal":
        dist[2][2] = 1
    elif defect == "not-symmetric":
        dist[0][1] = 2
    return replace(sp, dist=dist)


class TestValidateRejects:
    """Negative controls: validate_pair_space names each planted defect of
    a valid pair space."""

    @pytest.mark.parametrize("defect, message", [
        ("missing-translate", "pair set is not group invariant"),
        ("stale-index", "z_over is not the Z_v grouping"),
        ("identity-moves", "the identity moves a point"),
        ("metric-not-invariant", "metric is not group invariant"),
        ("nonzero-diagonal", "nonzero diagonal"),
        ("not-symmetric", "not symmetric"),
    ])
    def test_planted_defect(self, defect, message):
        sp = dihedral_space(6, FREE)
        validate_pair_space(decoded(sp))
        with pytest.raises(ValueError, match=message):
            validate_pair_space(decoded(_plant(sp, defect)))


class TestDoublingOracleAgreement:
    def test_subset_search_matches_scan(self):
        from oracles import doubling_scan_oracle
        rng = random.Random(31)
        for _ in range(120):
            n = rng.randrange(3, 11)
            kind = rng.randrange(2)
            if kind == 0:
                pts = sorted(rng.sample(range(3 * n), n))
                d = lambda a, b: abs(a - b)
            else:
                cols = rng.randrange(2, 4)
                pts = list(range(n))
                d = lambda a, b, c=cols: abs(a // c - b // c) + abs(a % c - b % c)
            for D in (1, 2, 3, 5):
                for R in (0, 1, 2):
                    got = doubling_check(pts, d, D, R)
                    want_ok, _ = doubling_scan_oracle(pts, d, D, R)
                    assert got.ok == want_ok, (pts, D, R)
                    if not got.ok:
                        alpha, center, sep = got.witness
                        assert alpha >= R
                        assert all(d(center, p) <= 2 * alpha for p in sep)
                        assert all(d(a, b) > alpha for i, a in enumerate(sep)
                                   for b in sep[i + 1:])
