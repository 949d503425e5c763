"""matchbias: matching without replacement on scalar scores.

Sampling lab for the ATT matching estimator: populations and seeded
sampling, optimal matchers on the line with and without replacement, the
weighting view of the estimator, the asymptotic-bias theory (partition
point, closed forms, transport distance), and a deterministic Monte Carlo
engine.
"""

__version__ = "0.1.0"

from .estimators import (
    AttEstimate,
    ControlWeights,
    att_caliper,
    att_matching,
    att_true_sample,
    att_weighted,
    control_weights,
    diagnose_overlap,
    match_sample,
)
from .matching import (
    InfeasibleError,
    Matching,
    MatchConfig,
    MatchingError,
    apply_caliper,
    brute_force_match,
    has_crossing,
    match_banded,
    match_capacitated,
    match_optimal_exact,
    match_scores,
    match_with_replacement,
)
from .population import (
    PopulationSpec,
    Sample,
    derive_seed,
    make_categorical_spec,
    make_prognostic_spec,
    make_uniform_propensity_spec,
    sample,
    sample_from_csv,
)
from .simulation import (
    SimConfig,
    SimRow,
    SimulationError,
    compare_methods,
    rows_to_csv,
    rows_to_markdown,
    run_cell,
    run_table,
)
from .theory import (
    BiasReport,
    PStarResult,
    SStarNotFoundError,
    asymptotic_bias_propensity,
    asymptotic_bias_score,
    pi_bar,
    prognostic_bias_closed_form,
    prognostic_sstar_lower,
    pstar,
    sstar_threshold,
    wasserstein_1d,
    weighted_wasserstein_objective,
)

__all__ = [name for name in dir() if not name.startswith("_")]
