"""Multipartite entanglement tests from normally ordered moments.

The package builds Hermitian matrices of moments of partially transposed
states, searches their principal minors for negativity, and certifies full
multipartite entanglement when every canonical bipartition shows it.
"""

from .certify import (
    BipartitionOutcome,
    CertificationReport,
    SearchBudget,
    certify_full,
    four_mode_pair_groups,
    sweep,
    sweep_to_csv,
    test_bipartition,
)
from .errors import (
    ExponentLimitError,
    MomentDataError,
    NumericError,
    ResourceLimitError,
    TruncationError,
    UnresolvedMomentsError,
)
from .matrix import (
    MinorResult,
    MomentMatrix,
    Selection,
    build_matrix,
    determinant,
    eigen_negativity_scan,
    named_minor,
    principal_minor,
)
from .moments import (
    CoherentProductMoments,
    FockStateMoments,
    MomentProvider,
    TableMoments,
    TmsvMoments,
    WStateMoments,
    WStateParams,
    load_moment_table,
    moment_table_to_json,
    table_from_provider,
)
from .multiindex import (
    MonomialIndex,
    count_up_to_weight,
    monomial_at,
    nth_multiindex,
    position_of,
)
from .operator_algebra import (
    entry_expression_pt,
    normal_order_single_mode,
)
from .transpositions import (
    Decomposition,
    TranspositionSet,
    all_decompositions,
    bipartitions_coarsening,
    canonical_bipartitions,
)

__version__ = "0.1.0"

__all__ = [
    "BipartitionOutcome",
    "CertificationReport",
    "CoherentProductMoments",
    "Decomposition",
    "ExponentLimitError",
    "FockStateMoments",
    "MinorResult",
    "MomentDataError",
    "MomentMatrix",
    "MomentProvider",
    "MonomialIndex",
    "NumericError",
    "ResourceLimitError",
    "SearchBudget",
    "Selection",
    "TableMoments",
    "TmsvMoments",
    "TranspositionSet",
    "TruncationError",
    "UnresolvedMomentsError",
    "WStateMoments",
    "WStateParams",
    "all_decompositions",
    "bipartitions_coarsening",
    "build_matrix",
    "canonical_bipartitions",
    "certify_full",
    "count_up_to_weight",
    "determinant",
    "eigen_negativity_scan",
    "entry_expression_pt",
    "four_mode_pair_groups",
    "load_moment_table",
    "moment_table_to_json",
    "monomial_at",
    "named_minor",
    "normal_order_single_mode",
    "nth_multiindex",
    "position_of",
    "principal_minor",
    "sweep",
    "sweep_to_csv",
    "table_from_provider",
    "test_bipartition",
]
