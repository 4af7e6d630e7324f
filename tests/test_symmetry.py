import pytest
from hypothesis import given, settings, strategies as st

from coarsecover.corpus import (
    cycle_graph,
    cycle_reflection,
    cyclic_rotation,
    dihedral_group,
    path_graph,
    rotation_group,
    spider,
    spider_rotation,
)
from coarsecover.covers import Slices, wide_failures
from coarsecover.graphs import CapExceeded, barycentric_subdivision
from coarsecover.symmetry import (
    ALL_SUBGROUPS,
    TRIVIAL_ONLY,
    NotAutomorphism,
    act_edge,
    SubgroupFamily,
    close_group,
    compose,
    conjugate,
    invert,
    is_F_subset,
    is_subgroup,
    set_orbit,
    sifted_generators,
    subdivided_group,
    subgroup_generated,
)
from oracles import act_angle, all_subgroups, ball_tuples, conjugate_tuples, \
    decoded_sets, encoded, is_subgroup_tuples, numbered, permuted, rank, \
    set_orbit_tuples, leg_reflection, subgroup_generated_tuples, \
    validate_family


class TestCloseGroup:
    def test_cyclic_six(self):
        G = rotation_group(6)
        assert len(G) == 6
        r3 = tuple((i + 3) % 6 for i in range(6))
        assert G.word_length[rank(G)[r3]] == 3

    def test_dihedral_twelve(self):
        assert len(dihedral_group(6)) == 12

    def test_non_automorphism_rejected(self):
        g = path_graph(3)
        with pytest.raises(NotAutomorphism):
            close_group(g, [(1, 0, 2)])  # breaks edge (1,2)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            close_group(cycle_graph(12), [cyclic_rotation(12)], cap=5)

    def test_word_metric_left_invariant(self):
        G = dihedral_group(5)
        number = rank(G)
        for h in G.elements:
            for a in G.elements:
                for b in G.elements:
                    ha, hb = compose(h, a), compose(h, b)
                    assert G.word_length[number[compose(invert(a), b)]] == \
                        G.word_length[number[compose(invert(ha), hb)]]

    def test_cone_vertices_preserved(self):
        from coarsecover.graphs import make_graph
        g = make_graph(3, [(0, 1), (1, 2)], cone_vertices=[0])
        with pytest.raises(NotAutomorphism):
            close_group(g, [(2, 1, 0)])  # swaps the cone vertex away


class TestActions:
    def test_dihedral_edge_orbit(self):
        g = cycle_graph(6)
        G = dihedral_group(6)
        assert {act_edge(p, (0, 1)) for p in G.elements} == set(g.edges)

    def test_angle_action(self):
        from coarsecover.angles import canonical_angle
        G = rotation_group(6)
        angles = {canonical_angle((a - 1) % 6, a, (a + 1) % 6)
                  for a in range(6)}
        assert {act_angle(p, (0, 1, 2)) for p in G.elements} == angles


class TestSubgroups:
    def test_generated(self):
        G = rotation_group(6)
        r2 = tuple((i + 2) % 6 for i in range(6))
        H = subgroup_generated(G, numbered(G, [r2]))
        assert len(H) == 3 and is_subgroup(G, H)

    def test_all_subgroups_cyclic_six(self):
        # one subgroup per divisor of 6
        assert len(all_subgroups(rotation_group(6))) == 4

    def test_family_membership(self):
        G = rotation_group(6)
        r3 = tuple((i + 3) % 6 for i in range(6))
        H = subgroup_generated(G, numbered(G, [r3]))
        assert ALL_SUBGROUPS.contains(H, G)
        assert not TRIVIAL_ONLY.contains(H, G)
        fam = SubgroupFamily("stabilizer-closed", seeds=(H,))
        assert fam.contains(H, G)
        assert fam.contains(frozenset([0]), G)
        r2 = tuple((i + 2) % 6 for i in range(6))
        assert not fam.contains(subgroup_generated(G, numbered(G, [r2])), G)

    def test_explicit_list_validation(self):
        G = rotation_group(4)
        r2 = tuple((i + 2) % 4 for i in range(4))
        H = subgroup_generated(G, numbered(G, [r2]))
        triv = frozenset([0])
        validate_family(SubgroupFamily("explicit-list", members=(triv, H)), G)
        with pytest.raises(ValueError, match="subgroups"):
            validate_family(SubgroupFamily("explicit-list", members=(H,)), G)


def vertex_action(G):
    """act(k, v): the element numbered k applied to the vertex v."""
    return lambda k, v: G.elements[k][v]


class TestFSubsets:
    def test_whole_set(self):
        G = rotation_group(6)
        ok, wit = is_F_subset(set(range(6)), G, ALL_SUBGROUPS,
                              vertex_action(G))
        assert ok and len(wit) == 6

    def test_free_orbit_singleton(self):
        G = rotation_group(5)
        ok, wit = is_F_subset({2}, G, TRIVIAL_ONLY, vertex_action(G))
        assert ok and wit == frozenset([0])

    def test_rotation_invariant_triple(self):
        G = rotation_group(6)
        ok, wit = is_F_subset({0, 2, 4}, G, TRIVIAL_ONLY, vertex_action(G))
        assert not ok

    def test_overlapping_translates(self):
        G = rotation_group(6)
        ok, _ = is_F_subset({0, 1}, G, ALL_SUBGROUPS, vertex_action(G))
        assert not ok  # r{0,1} = {1,2} meets {0,1} without fixing it

    def test_empty_set(self):
        G = rotation_group(3)
        ok, wit = is_F_subset(set(), G, TRIVIAL_ONLY, vertex_action(G))
        assert ok


@st.composite
def subsets_under_cycle_groups(draw):
    """A vertex subset of a cycle, its rotation or dihedral group, and a
    family of each of the four kinds (the explicit list unvalidated)."""
    n = draw(st.integers(3, 9))
    G = draw(st.sampled_from((rotation_group, dihedral_group)))(n)
    U = draw(st.frozensets(st.integers(0, n - 1)))
    subgroups = [numbered(G, H) for H in all_subgroups(G)]
    some = st.lists(st.sampled_from(subgroups), unique=True, max_size=3)
    family = draw(st.one_of(
        st.sampled_from((TRIVIAL_ONLY, ALL_SUBGROUPS)),
        some.map(lambda hs: SubgroupFamily("explicit-list",
                                           members=tuple(hs))),
        some.map(lambda hs: SubgroupFamily("stabilizer-closed",
                                           seeds=tuple(hs)))))
    return U, G, family


@settings(max_examples=150, deadline=None)
@given(subsets_under_cycle_groups())
def test_is_F_subset_matches_an_all_of_G_scan(case):
    U, G, family = case
    translates = {k: frozenset(p[x] for x in U)
                  for k, p in enumerate(G.elements)}
    stab = frozenset(k for k, kU in translates.items() if kU == U)
    disjoint = all(not (kU & U) for k, kU in translates.items()
                   if k not in stab)
    ok = not U or (disjoint and family.contains(stab, G))
    want = (ok, (stab if U else frozenset([0])) if ok else None)
    assert is_F_subset(U, G, family, vertex_action(G)) == want

    orbit, orbit_stab = set_orbit(
        U, G, lambda k, S: frozenset(G.elements[k][x] for x in S))
    assert orbit_stab == stab
    assert set(orbit) == set(translates.values())
    assert all(translates[t] == W for W, t in orbit.items())


class TestSubdividedAction:
    def test_lift_is_automorphism_with_same_metric(self):
        g = spider(3, 4)
        G = close_group(g, [spider_rotation(3, 4)])
        sub = barycentric_subdivision(g)
        Gs = subdivided_group(G, sub)
        assert len(Gs) == len(G)
        from coarsecover.symmetry import is_automorphism
        for p in Gs.elements:
            assert is_automorphism(sub.graph, p)
        for p in G.elements:
            lifted = [q for q in Gs.elements
                      if q[:g.vertex_count] == p]
            assert len(lifted) == 1
            assert Gs.word_length[rank(Gs)[lifted[0]]] == \
                G.word_length[rank(G)[p]]

    def test_group_of_another_graph_rejected(self):
        g = spider(3, 4)
        sub = barycentric_subdivision(g)
        Gs = subdivided_group(close_group(g, [spider_rotation(3, 4)]), sub)
        for G in (Gs, close_group(sub.graph, ()),
                  close_group(spider(3, 5), ())):
            with pytest.raises(ValueError, match="original graph"):
                subdivided_group(G, sub)


# ---------------------------------------------------------------------------
# The group by number
# ---------------------------------------------------------------------------


def _numbered_groups():
    """Dihedral groups of cycles up to 12, rotated spiders, the spider with
    four legs under its dihedral group of order 8, and the lift of a
    dihedral group to the subdivided cycle."""
    groups = [dihedral_group(n) for n in range(3, 13)]
    groups += [close_group(spider(*legs), [spider_rotation(*legs)])
               for legs in ((3, 2), (3, 4), (4, 3), (5, 2))]
    groups.append(close_group(spider(4, 3), [spider_rotation(4, 3),
                                             leg_reflection(4, 3)]))
    groups.append(subdivided_group(dihedral_group(6),
                                   barycentric_subdivision(cycle_graph(6))))
    return groups


NUMBERED_GROUPS = _numbered_groups()
FAMILY_KINDS = ("trivial-only", "all-subgroups", "explicit-list",
                "stabilizer-closed")


def contains_tuples(G, kind, listed, K):
    """SubgroupFamily.contains on permutation tuples: listed holds the
    members of an explicit list or the seeds of a stabilizer-closed
    family."""
    trivial = frozenset([G.elements[0]])
    if kind == "trivial-only":
        return K == trivial
    if kind == "all-subgroups":
        return is_subgroup_tuples(G, K)
    if kind == "explicit-list":
        return K in listed
    return K == trivial or any(K <= conjugate_tuples(p, S)
                               for S in listed for p in G.elements)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(NUMBERED_GROUPS), st.data())
def test_numbered_algebra_matches_the_tuple_algebra(G, data):
    # each number form against its tuple reference; most of the groups
    # are not abelian, so a conjugate taken from the wrong side is another
    # subgroup
    number = rank(G)
    elements = st.sampled_from(G.elements)
    seeds = data.draw(st.lists(elements, max_size=4))
    H, H_t = subgroup_generated(G, numbered(G, seeds)), \
        subgroup_generated_tuples(G, seeds)
    assert permuted(G, H) == H_t
    assert is_subgroup(G, H) and is_subgroup_tuples(G, H_t)
    subset = data.draw(st.frozensets(elements, max_size=6)) \
        | {G.elements[0]}
    assert is_subgroup(G, numbered(G, subset)) == \
        is_subgroup_tuples(G, subset)
    g = data.draw(elements)
    assert permuted(G, conjugate(G, number[g], H)) == conjugate_tuples(g, H_t)
    sifted = [G.elements[a] for a in sifted_generators(G, H)]
    assert subgroup_generated_tuples(G, sifted) == H_t
    assert all(a not in subgroup_generated_tuples(G, sifted[:k])
               for k, a in enumerate(sifted))
    U = data.draw(st.frozensets(st.integers(0, G.graph.vertex_count - 1)))

    def translate(p, S):
        return frozenset(p[x] for x in S)

    orbit, stab = set_orbit(U, G, lambda k, S: translate(G.elements[k], S))
    assert ({W: G.elements[t] for W, t in orbit.items()}, permuted(G, stab)) \
        == set_orbit_tuples(U, G, translate)
    others = [subgroup_generated_tuples(G, data.draw(st.lists(
        elements, max_size=2))) for _ in range(2)]
    listed = (H_t, *others)
    candidates = (H_t, conjugate_tuples(g, H_t), subset, *others)
    for kind in FAMILY_KINDS:
        numbers = tuple(numbered(G, S) for S in listed)
        family = SubgroupFamily(kind, members=numbers, seeds=numbers)
        for K in candidates:
            assert family.contains(numbered(G, K), G) == \
                contains_tuples(G, kind, listed, K)
    for alpha in range(4):
        assert G.ball(alpha) == tuple(
            map(number.__getitem__, ball_tuples(G, alpha, G.elements[0])))


def test_a_conjugate_depends_on_its_side():
    # in the dihedral group of the hexagon, the rotation r and its inverse
    # move the reflection's subgroup to different subgroups, so the parity
    # above tells the sides apart
    G = dihedral_group(6)
    number = rank(G)
    r, H = cyclic_rotation(6), numbered(G, [G.elements[0],
                                             cycle_reflection(6)])
    assert conjugate(G, number[r], H) != conjugate(G, number[invert(r)], H)
    assert permuted(G, conjugate(G, number[r], H)) == \
        conjugate_tuples(r, permuted(G, H))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(NUMBERED_GROUPS), st.data())
def test_wide_failures_match_the_definition(G, data):
    # each member's v-set over a z-point is a ball about one of a few
    # centers, of radius alpha - 1 to 3, with a few elements dropped and
    # added, and most pairs sit at those centers, so pairs pass and fail;
    # a pair (g, x) fails when no member's slice over x holds the ball of g
    elements, zs = st.sampled_from(G.elements), st.integers(0, 2)
    alpha = data.draw(st.integers(0, 3))
    radii = st.integers(max(alpha - 1, 0), 3)
    centers = st.sampled_from(data.draw(st.lists(elements, min_size=1,
                                                 max_size=3)))
    members = []
    for _ in range(data.draw(st.integers(0, 5))):
        sets = {}
        for z in data.draw(st.frozensets(zs, min_size=1)):
            ball = ball_tuples(G, data.draw(radii), data.draw(centers))
            vs = (frozenset(ball)
                  - data.draw(st.frozensets(elements, max_size=2))) \
                | data.draw(st.frozensets(elements, max_size=2))
            if vs:
                sets[z] = vs
        if sets:
            members.append(Slices(encoded(G.elements, sets)))
    pairs = data.draw(st.lists(st.tuples(st.one_of(centers, elements), zs),
                               max_size=10))
    held = [decoded_sets(G.elements, m) for m in members]
    want = [(rank(G)[g], x) for g, x in pairs
            if not any(set(ball_tuples(G, alpha, g)) <= vs.get(x, set())
                       for vs in held)]
    assert list(wide_failures(members, G, alpha, [
        (rank(G)[g], x) for g, x in pairs])) == want


@pytest.mark.parametrize("G", NUMBERED_GROUPS[::3] + NUMBERED_GROUPS[-1:],
                         ids=lambda G: "order%d" % len(G))
def test_product_table_matches_composition(G):
    # every row, each made along the generators on first read
    number = rank(G)
    assert G.generator_numbers == tuple(map(number.__getitem__,
                                            G.generators))
    assert G.inverse == tuple(number[invert(p)] for p in G.elements)
    for b in G.elements:
        assert list(G.products[number[b]]) == \
            [number[compose(a, b)] for a in G.elements]


def test_every_model_walks_to_every_element():
    # generation holds by construction: the walk of a model made by
    # close_group or subdivided_group reaches every element but the
    # identity, each once
    g = spider(3, 4)
    G = close_group(g, [spider_rotation(3, 4)])
    for model in (close_group(cycle_graph(4), ()), dihedral_group(6), G,
                  subdivided_group(G, barycentric_subdivision(g))):
        assert sorted(model.products.via) == list(range(1, len(model)))


def test_the_lift_keeps_every_number():
    # a lift begins with the permutation it lifts, so the lifts ascend as
    # the elements do, and the lift shares the product table
    g = spider(3, 4)
    G = close_group(g, [spider_rotation(3, 4)])
    Gs = subdivided_group(G, barycentric_subdivision(g))
    assert list(Gs.elements) == sorted(Gs.elements)
    assert [q[:g.vertex_count] for q in Gs.elements] == list(G.elements)
    assert Gs.products is G.products and Gs.inverse == G.inverse
    assert Gs.generator_numbers == G.generator_numbers
