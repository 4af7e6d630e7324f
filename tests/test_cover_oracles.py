"""Property tests: the cover kernels against the brute-force oracles.

Random metric sets have at most 10 points, integer or infinite distances,
and either the trivial group, rotations of Z/n acting on the v-points, or
the dihedral group of Z/n acting on the v-points and either fixing the
z-points or moving z-points that are ordered pairs of vertices.
"""

from hypothesis import given, settings, strategies as st

from coarsecover.corpus import dihedral_group, rotation_group
from coarsecover.covers import (
    Cover,
    CoverMember,
    cover_order,
    default_basis,
    doubling_check,
    fiber_basis,
    greedy_cover,
    pair_space,
    verify_cover,
)
from coarsecover.graphs import INF
from coarsecover.symmetry import ALL_SUBGROUPS, TRIVIAL_ONLY, SubgroupFamily
from oracles import all_subgroups, cover_order_brute, doubling_scan_oracle, \
    fiber_basis_brute, fibers_of, greedy_cover_reference, \
    verify_cover_definitional

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


@SETTINGS
@given(st.lists(st.frozensets(st.integers(0, 12)), max_size=8),
       st.frozensets(st.integers(0, 12)))
def test_cover_order_matches_brute_count(members, domain):
    assert cover_order(members, domain) == cover_order_brute(members, domain)


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
        return pair_space(range(n), fibers_of(("a", "b"), draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.sampled_from("ab")),
            min_size=1))), dist)
    half = [0] + [draw(gaps) for _ in range(n // 2)]
    dist = {v: {w: half[min((w - v) % n, (v - w) % n)] for w in range(n)}
            for v in range(n)}
    group = (rotation_group if kind == "rotation" else dihedral_group)(n)
    act_v = {p: {v: p[v] for v in range(n)} for p in group.elements}
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
    return pair_space(range(n), fibers_of(z_points, pairs), dist,
                      group=group, act_v=act_v, act_z=act_z)


def _members(space, sets):
    stab = frozenset([space.group.identity])
    return Cover(tuple(CoverMember(frozenset(s), stab, True) for s in sets), 0,
                 cover_order(sets, space.pairs))


def _agrees(cover, space, alpha, family):
    rep = verify_cover(cover, space, alpha, family)
    sets = [m.points for m in cover.members]
    order, not_long, invariant, not_f = verify_cover_definitional(
        sets, space, alpha, family)
    assert rep.order == order
    assert rep.long == (not_long is None)
    if not_long is not None:
        assert ("not-long", not_long) in rep.failures
    assert rep.invariant == invariant
    if not invariant:
        (s,) = [p for kind, p in rep.failures if kind == "not-invariant"]
        assert s in space.group.generators
    assert rep.f_subsets == (not_f is None)
    if not_f is not None:
        assert ("not-f-subset", not_f) in rep.failures
    assert rep.ok == (rep.long and invariant and not_f is None)


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
    pairs = sorted(space.pairs)
    sets = data.draw(st.lists(st.sets(st.sampled_from(pairs), min_size=1),
                              max_size=5))
    if data.draw(st.booleans()):
        # saturate under the group, so invariance can hold
        sets = list({frozenset((space.act_v[p][v], space.act_z[p][z])
                               for v, z in s)
                     for s in sets for p in space.group.elements})
    _agrees(_members(space, sets), space, alpha, family)


@SETTINGS
@given(pair_spaces(), st.integers(0, 3), st.booleans())
def test_verify_cover_matches_definition_on_greedy_covers(space, alpha,
                                                          fibers):
    basis = fiber_basis(space, alpha) if fibers else None
    cover = greedy_cover(space, alpha, basis)
    for family in (ALL_SUBGROUPS, TRIVIAL_ONLY):
        _agrees(cover, space, alpha, family)


@SETTINGS
@given(pair_spaces(kinds=("rotation", "dihedral")), st.integers(0, 3),
       st.booleans())
def test_greedy_cover_matches_the_translate_per_element_reference(space, alpha,
                                                                  fibers):
    basis = fiber_basis(space, alpha) if fibers else default_basis(space)
    assert greedy_cover(space, alpha, basis) == \
        greedy_cover_reference(space, alpha, basis)



@SETTINGS
@given(pair_spaces(), st.integers(0, 3), st.booleans())
def test_greedy_cover_matches_the_reference_on_every_kind(space, alpha,
                                                          fibers):
    # the trivial kind is the path the tree-ladder pipelines take
    basis = fiber_basis(space, alpha) if fibers else default_basis(space)
    assert greedy_cover(space, alpha, basis) == \
        greedy_cover_reference(space, alpha, basis)


@SETTINGS
@given(pair_spaces(), st.integers(0, 3))
def test_fiber_basis_matches_the_per_point_scan(space, alpha):
    assert fiber_basis(space, alpha) == fiber_basis_brute(space, alpha)
