"""Strong metric dimension toolkit.

Computes strong resolving graphs and strong metric dimension (exhaustively
and through the minimum-vertex-cover reduction), and verifies the known
closed forms for generalized Jahangir graphs against those computations.
"""

from .graphs import (
    UNREACHABLE,
    DisconnectedGraphError,
    Graph,
    GraphError,
    ParseError,
    SizeLimitError,
    all_pairs_distances,
    build_graph,
    complete_graph,
    cycle_graph,
    diameter,
    distance_balls,
    is_connected,
    parse,
    path_graph,
    serialize,
)
from .jahangir import (
    Discrepancy,
    JahangirParams,
    VerificationReport,
    build_jahangir,
    extremal_distance_pairs,
    measured_distance_pairs,
    predicted_cover,
    regime,
    sdim_formula,
    srg_edge_families,
    verify_predictions,
)
from .strong_metric import (
    InternalInconsistencyError,
    StrongBasisResult,
    brute_force_sdim,
    is_maximally_distant,
    is_strong_resolving_set,
    sdim_via_cover,
    strong_resolving_graph,
    strongly_resolves,
)
from .vertex_cover import (
    CoverResult,
    exact_min_vertex_cover,
    greedy_cover,
    is_vertex_cover,
    matching_lower_bound,
)

__version__ = "0.1.0"

__all__ = [
    "UNREACHABLE",
    "CoverResult",
    "DisconnectedGraphError",
    "Discrepancy",
    "Graph",
    "GraphError",
    "InternalInconsistencyError",
    "JahangirParams",
    "ParseError",
    "SizeLimitError",
    "StrongBasisResult",
    "VerificationReport",
    "all_pairs_distances",
    "build_graph",
    "build_jahangir",
    "brute_force_sdim",
    "complete_graph",
    "cycle_graph",
    "diameter",
    "distance_balls",
    "exact_min_vertex_cover",
    "extremal_distance_pairs",
    "greedy_cover",
    "is_connected",
    "is_maximally_distant",
    "is_strong_resolving_set",
    "is_vertex_cover",
    "matching_lower_bound",
    "measured_distance_pairs",
    "parse",
    "path_graph",
    "predicted_cover",
    "regime",
    "sdim_formula",
    "sdim_via_cover",
    "serialize",
    "srg_edge_families",
    "strong_resolving_graph",
    "strongly_resolves",
    "verify_predictions",
]
