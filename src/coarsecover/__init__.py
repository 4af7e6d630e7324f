"""Combinatorial long thin covers on finite graph models.

Modules
-------
graphs    finite graphs, distance rows and geodesics, biconnected blocks,
          slimness, fineness, subdivision
symmetry  automorphism groups, word metrics, families, equivariant subsets
angles    angle sets, corner sizes, chain metrics, the lemma battery
covers    pair spaces, doubling checks, greedy covers and their verification
flow      coarse flow spaces, their covers, pullbacks and wideness scans
cones     cone-point covers and the covering dichotomy
rips      relative Rips complexes, contraction traces, rational homology
corpus    seeded instance generators
cli       command line front end
"""

from .graphs import (
    CapExceeded,
    GeodesicIndex,
    Graph,
    GraphFormatError,
    SlimnessReport,
    Subdivision,
    barycentric_subdivision,
    geodesic_dag,
    load_graph,
    make_graph,
    slimness_constant,
)
from .symmetry import (
    GroupModel,
    SubgroupFamily,
    ALL_SUBGROUPS,
    TRIVIAL_ONLY,
    close_group,
    is_F_subset,
)
from .angles import (
    AngleSet,
    all_angles,
    angle_sum,
    d_theta,
    k_fold_sum,
    lemma_battery,
    theta3,
    theta3_circuit_bound_check,
    trivial_only,
)
from .covers import (
    Cover,
    PairSpace,
    doubling_check,
    greedy_cover,
    minimal_doubling_constant,
    pair_space,
    verify_cover,
)
from .flow import (
    CoarseFlowSpace,
    build_cf_theta,
    cf_doubling_report,
    cover_cf,
    eligible_targets,
    expand_cover,
    pullback_cover,
    theta_for_wideness,
    wideness_scan,
)
from .cones import (
    ConeSet,
    combined_cover,
    cone_cover,
    dichotomy_check,
    interior_certificate,
)
from .rips import (
    ContractionTrace,
    SimplicialComplex,
    build_rips,
    complex_stats,
    contract_subcomplex,
    homology_oracle,
)
