"""mdd: discovery of similarity-threshold matching rules over string relations.

Given a relation and a suggested lhs -> rhs attribute split, the package
computes the statistical distribution of pairwise similarity levels and finds
every lhs threshold pattern whose rule meets minimum support and confidence,
either exactly (with lossless pruning) or approximately with a bounded
relative error.
"""

from .discovery import (
    ApproxBound,
    ap,
    api,
    aps,
    apsi,
    compute_prefix_k,
    ea,
    eps,
    epsc,
    run_request,
)
from .distribution import (
    build_distribution,
    group_by_rhs,
    load_distribution,
    pattern_mask,
    project,
    save_distribution,
    sort_by_probability_desc,
)
from .errors import (
    CandidateBudgetError,
    DistributionIOError,
    InsufficientDataError,
    MddError,
    SchemaMismatchError,
    ValidationError,
)
from .lattice import DEFAULT_CANDIDATE_BUDGET, CandidateLattice
from .model import (
    Algorithm,
    AttributeId,
    DiscoveredMd,
    DiscoveryRequest,
    EvalCounters,
    EvaluationMode,
    LevelDomain,
    Relation,
    StatDistribution,
    ThresholdPattern,
    strip_zero_levels,
    to_fraction,
)
from .oracle import oracle_discover, oracle_measures
from .simkit import MetricKind, discretize, similarity

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "ApproxBound",
    "AttributeId",
    "CandidateBudgetError",
    "CandidateLattice",
    "DEFAULT_CANDIDATE_BUDGET",
    "DiscoveredMd",
    "DiscoveryRequest",
    "DistributionIOError",
    "EvalCounters",
    "EvaluationMode",
    "InsufficientDataError",
    "LevelDomain",
    "MddError",
    "MetricKind",
    "Relation",
    "SchemaMismatchError",
    "StatDistribution",
    "ThresholdPattern",
    "ValidationError",
    "ap",
    "api",
    "aps",
    "apsi",
    "build_distribution",
    "compute_prefix_k",
    "discretize",
    "ea",
    "eps",
    "epsc",
    "group_by_rhs",
    "load_distribution",
    "oracle_discover",
    "oracle_measures",
    "pattern_mask",
    "project",
    "run_request",
    "save_distribution",
    "similarity",
    "sort_by_probability_desc",
    "strip_zero_levels",
    "to_fraction",
]
