import pytest
from hypothesis import given, settings, strategies as st

from coarsecover.corpus import (
    cycle_graph,
    cyclic_rotation,
    dihedral_group,
    path_graph,
    rotation_group,
    spider,
    spider_rotation,
)
from coarsecover.graphs import CapExceeded, barycentric_subdivision
from coarsecover.symmetry import (
    ALL_SUBGROUPS,
    TRIVIAL_ONLY,
    NotAutomorphism,
    act_angle,
    act_edge,
    SubgroupFamily,
    close_group,
    compose,
    invert,
    is_F_subset,
    is_subgroup,
    set_orbit,
    subdivided_group,
    subgroup_generated,
    trivial_group,
)
from oracles import all_subgroups, validate_family


class TestCloseGroup:
    def test_cyclic_six(self):
        G = rotation_group(6)
        assert len(G) == 6
        r3 = tuple((i + 3) % 6 for i in range(6))
        assert G.word_length[r3] == 3

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
        for h in G.elements:
            for a in G.elements:
                for b in G.elements:
                    ha, hb = compose(h, a), compose(h, b)
                    assert G.word_length[compose(invert(a), b)] == \
                        G.word_length[compose(invert(ha), hb)]

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
        H = subgroup_generated(G, [r2])
        assert len(H) == 3 and is_subgroup(G, H)

    def test_all_subgroups_cyclic_six(self):
        # one subgroup per divisor of 6
        assert len(all_subgroups(rotation_group(6))) == 4

    def test_family_membership(self):
        G = rotation_group(6)
        r3 = tuple((i + 3) % 6 for i in range(6))
        H = subgroup_generated(G, [r3])
        assert ALL_SUBGROUPS.contains(H, G)
        assert not TRIVIAL_ONLY.contains(H, G)
        fam = SubgroupFamily("stabilizer-closed", seeds=(H,))
        assert fam.contains(H, G)
        assert fam.contains(frozenset([G.identity]), G)
        r2 = tuple((i + 2) % 6 for i in range(6))
        assert not fam.contains(subgroup_generated(G, [r2]), G)

    def test_explicit_list_validation(self):
        G = rotation_group(4)
        r2 = tuple((i + 2) % 4 for i in range(4))
        H = subgroup_generated(G, [r2])
        triv = frozenset([G.identity])
        validate_family(SubgroupFamily("explicit-list", members=(triv, H)), G)
        with pytest.raises(ValueError, match="subgroups"):
            validate_family(SubgroupFamily("explicit-list", members=(H,)), G)


def act_vertex(p, v):
    return p[v]


class TestFSubsets:
    def test_whole_set(self):
        G = rotation_group(6)
        ok, wit = is_F_subset(set(range(6)), G, ALL_SUBGROUPS, act_vertex)
        assert ok and len(wit) == 6

    def test_free_orbit_singleton(self):
        G = rotation_group(5)
        ok, wit = is_F_subset({2}, G, TRIVIAL_ONLY, act_vertex)
        assert ok and wit == frozenset([G.identity])

    def test_rotation_invariant_triple(self):
        G = rotation_group(6)
        ok, wit = is_F_subset({0, 2, 4}, G, TRIVIAL_ONLY, act_vertex)
        assert not ok

    def test_overlapping_translates(self):
        G = rotation_group(6)
        ok, _ = is_F_subset({0, 1}, G, ALL_SUBGROUPS, act_vertex)
        assert not ok  # r{0,1} = {1,2} meets {0,1} without fixing it

    def test_empty_set(self):
        G = rotation_group(3)
        ok, wit = is_F_subset(set(), G, TRIVIAL_ONLY, act_vertex)
        assert ok


@st.composite
def subsets_under_cycle_groups(draw):
    """A vertex subset of a cycle, its rotation or dihedral group, and a
    family of each of the four kinds (the explicit list unvalidated)."""
    n = draw(st.integers(3, 9))
    G = draw(st.sampled_from((rotation_group, dihedral_group)))(n)
    U = draw(st.frozensets(st.integers(0, n - 1)))
    subgroups = all_subgroups(G)
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
    translates = {p: frozenset(p[x] for x in U) for p in G.elements}
    stab = frozenset(p for p, pU in translates.items() if pU == U)
    disjoint = all(not (pU & U) for p, pU in translates.items()
                   if p not in stab)
    ok = not U or (disjoint and family.contains(stab, G))
    want = (ok, (stab if U else frozenset([G.identity])) if ok else None)
    assert is_F_subset(U, G, family, act_vertex) == want

    orbit, orbit_stab = set_orbit(
        U, G, lambda p, S: frozenset(p[x] for x in S))
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
            assert Gs.word_length[lifted[0]] == G.word_length[p]

    def test_group_of_another_graph_rejected(self):
        g = spider(3, 4)
        sub = barycentric_subdivision(g)
        Gs = subdivided_group(close_group(g, [spider_rotation(3, 4)]), sub)
        for G in (Gs, trivial_group(sub.graph), trivial_group(spider(3, 5))):
            with pytest.raises(ValueError, match="original graph"):
                subdivided_group(G, sub)
