"""Exact moments and CLT diagnostics for vincular permutation pattern
statistics."""

from .depgraph import (
    DependencyGraphSummary,
    cumulant_bound,
    graph_summary,
    saulis_bound,
    stein_bound,
)
from .errors import VincstatError
from .moments import (
    VariancePolynomial,
    conditional_block_expectation,
    exact_variance_at,
    expectation,
    joint_probability,
    variance_polynomial,
)
from .montecarlo import (
    MonteCarloReport,
    RateFit,
    empirical_kolmogorov,
    fit_rate,
    run_experiment,
    sample_cumulants,
)
from .oracle import (
    brute_force_distribution,
    brute_force_moments,
    conditional_formula_check,
    total_variance_check,
)
from .patterns import (
    Permutation,
    VincularPattern,
    adjacencies_to_composition,
    composition_to_adjacencies,
    format_pattern,
    iter_patterns,
    parse_pattern,
    reduce_sequence,
)
from .positions import (
    PositionSet,
    count_occurrences,
    enumerate_position_sets,
    occurs_at,
    position_count,
    shift_bijection,
    shift_bijection_inverse,
)
from .sampling import sample_by_reduction, sample_uniform

__version__ = "0.1.0"
