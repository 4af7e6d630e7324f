"""Property tests: the flow-space doubling report against one doubling check
per fiber key (oracles.cf_doubling_report_brute).

Two kinds of input.  Real flow spaces come from build_cf_theta on random
connected graphs of at most 6 vertices, with theta the doubled corner size
plus random angles and random endpoints; on these every fiber passes.
Stand-in flow spaces carry random fibers over a star metric, d(a, b) =
w(a) + w(b) with weights in {1, 2, 3, 20, 25, 30}, and R = 12: six points
pairwise farther than R fit a ball around a light point, so fibers with
enough heavy points fail.  Their fibers are near-copies of a few base sets,
so failing and passing fibers nest inside each other, or sets of at most
five points, which pass however heavy, while their union may fail.
"""

from itertools import combinations
from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st

from coarsecover.angles import angle_set_from_triples, k_fold_sum
from coarsecover.covers import doubling_check
from coarsecover.flow import build_cf_theta, cf_doubling_report
from coarsecover.graphs import make_graph
from coarsecover.pipeline import build_instance
from oracles import cf_doubling_report_brute, encoded, mask_vertices, \
    stand_in_flow_space, star_metric

SETTINGS = settings(max_examples=150, deadline=None)


def with_fibers(cf, fibers):
    """A stand-in for cf with other fibers: the report and its reference
    read delta_prime, metric, fibers and their classes alone."""
    return stand_in_flow_space(cf.delta_prime, cf.metric, fibers)

# one light point and six heavy ones: the seven points fail (the heavy six
# are pairwise 40 apart, within 2 * 12 of the light one), four points pass
PLANTED_W = (1, 20, 20, 20, 20, 20, 20)
ALL_FAIL = SimpleNamespace(
    delta_prime=0, metric=star_metric(PLANTED_W),
    fibers={(0, 1): frozenset(range(7)), (1, 0): frozenset(range(7))})
SOME_FAIL = SimpleNamespace(
    delta_prime=0, metric=star_metric(PLANTED_W),
    fibers={(0, 1): frozenset(range(7)), (1, 0): frozenset(range(4)),
            (2, 3): frozenset(range(1, 7))})
# each fiber holds three heavy points and passes; the union holds six and
# fails
UNION_FAILS = SimpleNamespace(
    delta_prime=0, metric=star_metric((1, 20, 25, 30, 20, 25, 30)),
    fibers={(0, 1): frozenset(range(4)), (1, 0): frozenset((0, 4, 5, 6))})


@st.composite
def flow_spaces(draw):
    n = draw(st.integers(2, 6))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    edges |= draw(st.sets(st.sampled_from(list(combinations(range(n), 2))),
                          max_size=4))
    g = make_graph(n, edges, ())
    inst = build_instance(g, ())
    corners = [(u, apex, w) for apex in g.vertices
               for u, w in combinations(sorted(g.neighbors(apex)), 2)]
    extra = draw(st.sets(st.sampled_from(corners))) if corners else ()
    theta = inst.t3_sums[2].union(angle_set_from_triples(g, extra))
    ends = draw(st.sets(st.sampled_from(inst.sub.ve_vertices()), max_size=5))
    return build_cf_theta(inst.sub, theta, ends, index=inst.index,
                          theta3_set=inst.t3_sums[1])


@st.composite
def planted_flow_spaces(draw):
    w = tuple(draw(st.lists(st.sampled_from((1, 2, 3, 20, 25, 30)),
                            min_size=6, max_size=12)))
    points = st.sampled_from(range(len(w)))
    everything = frozenset(range(len(w)))
    bases = [everything - draw(st.frozensets(points, max_size=4))
             for _ in range(draw(st.integers(1, 3)))]
    small = draw(st.booleans())
    fibers = {}
    for key in draw(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                            max_size=10)):
        if small:
            fibers[key] = draw(st.frozensets(points, max_size=5))
        else:
            base = draw(st.sampled_from(bases))
            fibers[key] = base - draw(st.frozensets(points, max_size=2))
    return SimpleNamespace(delta_prime=0, fibers=fibers, metric=star_metric(w))


@SETTINGS
@given(flow_spaces(), st.booleans())
def test_report_matches_per_fiber_checks_on_flow_spaces(cf, tightest):
    sets = {key: mask_vertices(f) for key, f in cf.fibers.items()}
    assert cf_doubling_report(cf, tightest) == \
        cf_doubling_report_brute(with_fibers(cf, sets), tightest)


def test_report_matches_per_fiber_checks_on_planted_violations():
    outcomes = []

    @SETTINGS
    @given(planted_flow_spaces(), st.booleans())
    @example(ALL_FAIL, False)
    @example(SOME_FAIL, True)
    @example(UNION_FAILS, False)
    def check(cf, tightest):
        # the stand-ins hold their fibers as sets of the star's leaves
        want = cf_doubling_report_brute(cf, tightest)
        masks = encoded(range(len(cf.metric)), cf.fibers)
        assert cf_doubling_report(with_fibers(cf, masks), tightest) == want
        union = frozenset().union(*cf.fibers.values())
        union_ok = doubling_check(union, lambda a, b: cf.metric[a][b], 5,
                                  12).ok
        outcomes.append((want["ok"], len(want["failures"]), want["fibers"],
                         union_ok))

    check()
    # the parity must have been tested on failing reports, on reports
    # where passing fibers sit beside failing ones, and on passing reports
    # whose union fails
    assert any(not ok for ok, _, _, _ in outcomes)
    assert any(0 < failed < fibers for _, failed, fibers, _ in outcomes)
    assert any(ok and not union_ok for ok, _, _, union_ok in outcomes)
