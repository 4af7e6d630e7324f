"""Property tests: the cover kernels against the brute-force oracles.

Random metric sets have at most 10 points, integer or infinite distances,
and either the trivial group, rotations of Z/n acting on the v-points, or
the dihedral group of Z/n acting on the v-points and either fixing the
z-points or moving z-points that are ordered pairs of vertices.
"""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from coarsecover.corpus import dihedral_group, rotation_group
from coarsecover.covers import (
    Cover,
    CoverMember,
    _translate,
    _violating_set,
    cover_order,
    doubling_check,
    fiber_basis,
    greedy_cover,
    pair_space,
    verify_cover,
)
from coarsecover.graphs import INF
from coarsecover.symmetry import ALL_SUBGROUPS, TRIVIAL_ONLY, SubgroupFamily
from oracles import all_subgroups, cover_order_brute, decoded, \
    decoded_sets, default_basis, doubling_scan_oracle, encoded, failed, \
    fiber_basis_brute, fibers_of, greedy_cover_reference, pairs_of, \
    set_cover, slices_of, trivial_pair_space, verify_cover_definitional, \
    violating_set_unpruned

SETTINGS = settings(max_examples=150, deadline=None)
gaps = st.one_of(st.integers(1, 8), st.just(INF))


@st.composite
def distance_tables(draw, n):
    """A symmetric n x n distance table with zero diagonal."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = draw(gaps)
    return d


@st.composite
def metric_sets(draw):
    """Points 0..n-1 with their distance table."""
    n = draw(st.integers(1, 10))
    return list(range(n)), draw(distance_tables(n))


@SETTINGS
@given(metric_sets(), st.integers(1, 5), st.sampled_from((0, 1, 2, 3.5, 5)))
def test_doubling_check_matches_scan_oracle(points_dist, D, R):
    pts, d = points_dist
    dist_fn = lambda a, b: d[a][b]
    got = doubling_check(pts, dist_fn, D, R)
    want_ok, _ = doubling_scan_oracle(pts, dist_fn, D, R)
    assert got.ok == want_ok
    if not got.ok:
        alpha, center, sep = got.witness
        assert alpha >= R and len(sep) == D + 1
        assert all(d[center][p] <= 2 * alpha for p in sep)
        assert all(d[a][b] > alpha for a in sep for b in sep if a != b)


@st.composite
def planted_tables(draw):
    """A distance table on 1 to 10 points; in about half of those with 7
    or more, six points are pairwise 9 to 12 apart and a seventh is 4 or
    5 from each of them, so the far graph has a non-empty core and the
    least radius is at a point outside it."""
    n = draw(st.integers(1, 10))
    d = draw(distance_tables(n))
    if n >= 7 and draw(st.booleans()):
        *six, hub = draw(st.permutations(range(n)))[:7]
        for a, b in combinations(six, 2):
            d[a][b] = d[b][a] = draw(st.integers(9, 12))
        for a in six:
            d[a][hub] = d[hub][a] = draw(st.integers(4, 5))
    return d


@SETTINGS
@given(planted_tables(), st.integers(1, 7),
       st.sampled_from((0, 1, 2, 3.5, 5, 8)))
def test_core_search_matches_the_unpruned_search(d, size, R):
    """The search over the far graph's core finds the same set, gap,
    radius and centre as the search over every point."""
    pts = list(range(len(d)))
    assert _violating_set(pts, d, size, R) \
        == violating_set_unpruned(pts, d, size, R)


@SETTINGS
@given(st.lists(st.frozensets(st.integers(0, 12)), max_size=8),
       st.frozensets(st.integers(0, 12)))
def test_cover_order_matches_brute_count(members, domain):
    # the points of a plain set sit over one z-point
    def over_one(points):
        return slices_of(((x, 0) for x in points), range(13))

    assert cover_order([over_one(m) for m in members],
                       encoded(range(13), {0: domain})) == \
        cover_order_brute(members, domain)


@st.composite
def pair_spaces(draw, kinds=("trivial", "rotation", "dihedral")):
    """A pair space over Z/n, invariant under the drawn group.

    Under rotations and reflections the metric depends on the cyclic gap
    only.  A group fixing the z-points admits a union of z-fibers.  A
    dihedral group may also move the z-points: a z-point is then an ordered
    pair of vertices, moved as cf_pair_space moves flow-line endpoints, and
    the pair set is the union of the orbits of a few drawn pairs.
    """
    n = draw(st.integers(1 if "trivial" in kinds else 3, 10))
    kind = draw(st.sampled_from(kinds)) if n >= 3 else "trivial"
    if kind == "trivial":
        d = draw(distance_tables(n))
        dist = {v: {w: d[v][w] for w in range(n)} for v in range(n)}
        return trivial_pair_space(range(n), fibers_of(("a", "b"), draw(
            st.sets(st.tuples(st.integers(0, n - 1), st.sampled_from("ab")),
                    min_size=1))), dist)
    half = [0] + [draw(gaps) for _ in range(n // 2)]
    dist = {v: {w: half[min((w - v) % n, (v - w) % n)] for w in range(n)}
            for v in range(n)}
    group = (rotation_group if kind == "rotation" else dihedral_group)(n)
    if kind == "dihedral" and draw(st.booleans()):
        vertex = st.integers(0, n - 1)
        seeds = draw(st.lists(st.tuples(vertex, st.tuples(vertex, vertex)),
                              min_size=1, max_size=3))
        pairs = {(p[v], (p[a], p[b])) for v, (a, b) in seeds
                 for p in group.elements}
        z_points = tuple(sorted({z for _, z in pairs}))
        act_z = {p: {z: (p[z[0]], p[z[1]]) for z in z_points}
                 for p in group.elements}
    else:
        zs = draw(st.sampled_from((("a",), ("b",), ("a", "b"))))
        pairs = [(v, z) for v in range(n) for z in zs]
        z_points = ("a", "b")
        act_z = {p: {"a": "a", "b": "b"} for p in group.elements}
    return pair_space(range(n), encoded(range(n), fibers_of(z_points, pairs)),
                      dist, group, act_z)


def _members(space, sets):
    stab = frozenset([space.group.identity])
    members = tuple(CoverMember(slices_of(s, space.v_points), stab, True)
                    for s in sets)
    return Cover(members, 0, cover_order([m.slices for m in members],
                                         space.fibers))


def _agrees(cover, space, alpha, family):
    rep = verify_cover(cover, space, alpha, family)
    kinds = failed(rep)
    sets = [m.points(space.v_points) for m in cover.members]
    order, not_long, invariant, not_f = verify_cover_definitional(
        sets, decoded(space), alpha, family)
    assert cover.order == order
    assert "order-mismatch" not in kinds
    assert ("not-long" not in kinds) == (not_long is None)
    if not_long is not None:
        assert ("not-long", not_long) in rep.failures
    assert ("not-invariant" not in kinds) == invariant
    if not invariant:
        (s,) = [p for kind, p in rep.failures if kind == "not-invariant"]
        assert s in space.group.generators
    assert ("not-f-subset" not in kinds) == (not_f is None)
    if not_f is not None:
        assert ("not-f-subset", not_f) in rep.failures
    assert rep.ok == (not_long is None and invariant and not_f is None)


@st.composite
def families(draw, group):
    """A fixed family, or an unvalidated list of subgroups of the group,
    which need not be closed under conjugation."""
    listed = st.lists(st.sampled_from(all_subgroups(group)), unique=True)
    return draw(st.one_of(st.sampled_from((ALL_SUBGROUPS, TRIVIAL_ONLY)),
                          listed.map(lambda hs: SubgroupFamily(
                              "explicit-list", members=tuple(hs)))))


@SETTINGS
@given(pair_spaces(), st.integers(0, 3), st.data())
def test_verify_cover_matches_definition_on_random_covers(space, alpha, data):
    family = data.draw(families(space.group))
    pairs = sorted(pairs_of(decoded(space)))
    sets = data.draw(st.lists(st.sets(st.sampled_from(pairs), min_size=1),
                              max_size=5))
    if data.draw(st.booleans()):
        # saturate under the group, so invariance can hold
        sets = list({frozenset((p[v], space.act_z[p][z]) for v, z in s)
                     for s in sets for p in space.group.elements})
    _agrees(_members(space, sets), space, alpha, family)


@SETTINGS
@given(pair_spaces(), st.integers(0, 3), st.booleans())
def test_verify_cover_matches_definition_on_greedy_covers(space, alpha,
                                                          fibers):
    basis = fiber_basis(space, alpha) if fibers else default_basis(decoded(space))
    cover = greedy_cover(space, alpha, basis)
    for family in (ALL_SUBGROUPS, TRIVIAL_ONLY):
        _agrees(cover, space, alpha, family)


@SETTINGS
@given(pair_spaces(kinds=("rotation", "dihedral")), st.integers(0, 3),
       st.booleans())
def test_greedy_cover_matches_the_translate_per_element_reference(space, alpha,
                                                                  fibers):
    basis = fiber_basis(space, alpha) if fibers else default_basis(decoded(space))
    assert set_cover(greedy_cover(space, alpha, basis), space.v_points) == \
        greedy_cover_reference(decoded(space), alpha, basis)



@SETTINGS
@given(pair_spaces(), st.integers(0, 3), st.booleans())
def test_greedy_cover_matches_the_reference_on_every_kind(space, alpha,
                                                          fibers):
    # the trivial kind is the path the tree-ladder pipelines take
    basis = fiber_basis(space, alpha) if fibers else default_basis(decoded(space))
    assert set_cover(greedy_cover(space, alpha, basis), space.v_points) == \
        greedy_cover_reference(decoded(space), alpha, basis)


@SETTINGS
@given(pair_spaces())
def test_z_over_is_the_z_points_over_each_v_point(space):
    # keyed by exactly the v-points lying in some fiber
    pairs = pairs_of(decoded(space))
    assert space.z_over == {v: frozenset(z for w, z in pairs if w == v)
                            for v, _ in pairs}


@SETTINGS
@given(pair_spaces(), st.integers(0, 3), st.data())
def test_mask_translates_match_the_set_translates(space, alpha, data):
    # a translate moves the bits of a mask as p moves the v-points; every
    # image greedy_cover and verify_cover leave in the space's one memo
    # is the set image, and so is the translate of random slices
    cover = greedy_cover(space, alpha, fiber_basis(space, alpha))
    verify_cover(cover, space, alpha, ALL_SUBGROUPS)
    v_points = space.v_points

    def points(mask):
        return decoded_sets(v_points, {0: mask})[0]

    for p, images in space.images.items():
        for mask, image in images.items():
            assert points(image) == {p[v] for v in points(mask)}
    pts = data.draw(st.sets(st.sampled_from(sorted(pairs_of(decoded(space))))))
    slices = slices_of(pts, v_points)
    for p in space.group.elements:
        moved = _translate(space, p, slices)
        assert CoverMember(moved, frozenset(), True).points(v_points) == \
            {(p[v], space.act_z[p][z]) for v, z in pts}


@SETTINGS
@given(pair_spaces(), st.data())
def test_cover_order_matches_brute_count_on_pair_spaces(space, data):
    pairs = sorted(pairs_of(decoded(space)))
    sets = data.draw(st.lists(st.sets(st.sampled_from(pairs)), max_size=6))
    assert cover_order([slices_of(m, space.v_points) for m in sets],
                       space.fibers) == cover_order_brute(sets, pairs)


@SETTINGS
@given(pair_spaces(), st.integers(0, 3))
def test_fiber_basis_matches_the_per_point_scan(space, alpha):
    assert fiber_basis(space, alpha) == fiber_basis_brute(decoded(space),
                                                          alpha)
