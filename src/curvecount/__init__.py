"""Exact curve counts on Calabi-Yau threefolds via Schubert calculus.

The package computes intersection numbers in the Chow rings of
Grassmannians and of projective bundles over them, and by torus
localization, entirely over the integers, and packages the classical counting computations (lines and
conics on hypersurfaces, equivalences of degenerate families) as pipelines
with reproducible traces.
"""

from .chern import (
    ChernVector,
    clear_universal_cache,
    dual,
    dual_universal_vector,
    segre_from_chern,
    sym_power,
    tensor_line,
    trivial_vector,
    whitney_quotient,
    whitney_sum,
)
from .errors import (
    CurveCountError,
    InternalCheckError,
    PreconditionError,
    RingMismatchError,
)
from .grassmannian import (
    ChowClass,
    GrassmannianRing,
    dual_partition,
    giambelli,
    integrate,
    multiply,
    pieri,
    universal_dual_chern,
)
from .partitions import Partition, partitions_in_box, partitions_of_weight
from .pipelines import (
    CountReport,
    DimensionCount,
    H0Count,
    NormalBundleType,
    count_conics_quintic,
    count_curves,
    count_lines_complete_intersection,
    count_lines_hypersurface,
    degeneration_split_report,
    equivalence_lines_on_factor,
    naive_dimension_count,
    normal_bundle_h0,
    tally_checks,
)
from .projbundle import (
    ProjBundleElement,
    ProjBundleRing,
    pb_integrate,
    pb_multiply,
    pb_pushforward,
    pullback_vector,
)
from .symfunc import SymmetricPoly, elementary, reduce_to_elementary

__version__ = "0.1.0"

__all__ = [
    "ChernVector",
    "ChowClass",
    "CountReport",
    "CurveCountError",
    "DimensionCount",
    "GrassmannianRing",
    "H0Count",
    "InternalCheckError",
    "NormalBundleType",
    "Partition",
    "PreconditionError",
    "ProjBundleElement",
    "ProjBundleRing",
    "RingMismatchError",
    "SymmetricPoly",
    "clear_universal_cache",
    "count_conics_quintic",
    "count_curves",
    "count_lines_complete_intersection",
    "count_lines_hypersurface",
    "degeneration_split_report",
    "dual",
    "dual_partition",
    "dual_universal_vector",
    "elementary",
    "equivalence_lines_on_factor",
    "giambelli",
    "integrate",
    "multiply",
    "naive_dimension_count",
    "normal_bundle_h0",
    "partitions_in_box",
    "partitions_of_weight",
    "pb_integrate",
    "pb_multiply",
    "pb_pushforward",
    "pieri",
    "pullback_vector",
    "reduce_to_elementary",
    "segre_from_chern",
    "sym_power",
    "tally_checks",
    "tensor_line",
    "trivial_vector",
    "universal_dual_chern",
    "whitney_quotient",
    "whitney_sum",
]
