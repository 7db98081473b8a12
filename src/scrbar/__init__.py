"""Penalized variable selection for semi-competing risks illness-death
models with a shared gamma frailty.

Submodules
----------
domain       core record/parameter types, validation
baselines    Weibull and Bernstein-sieve baseline hazards
likelihood   frailty-marginalized log-likelihood, derivatives, pseudo-data
estimation   unpenalized maximum likelihood, BIC degree selection
selection    BAR / LASSO / ALASSO solvers and GCV tuning
datagen      simulation of semi-competing risks datasets
metrics      TP/FP/MCV/MSE/GES replicate summaries
cli          CSV front end and replication harness
"""

from .baselines import (
    BernsteinBaselineSet,
    WeibullBaselineSet,
    cumulative_hazard,
    weibull_inverse_cumhaz,
)
from .domain import (
    Dataset,
    ModelParameters,
    NuisanceParameters,
    RegressionCoefficients,
    SubjectRecord,
    validate_dataset,
)
from .estimation import FitConfig, FitResult, bic_degree_select, fit_unpenalized
from .likelihood import (
    BetaLikelihood,
    PseudoData,
    RiskTerms,
    frailty_integral_oracle,
    log_likelihood,
    pseudo_data,
    risk_terms,
)
from .metrics import AggregateReport, ReplicateMetrics, aggregate, confusion_counts, ges, mse
from .selection import (
    GcvResult,
    PenaltyConfig,
    PenalizedEstimate,
    alasso_weights,
    bar_step,
    default_lambda_grid,
    effective_params,
    gcv_select,
    penalized_solve,
)
from .datagen import (
    ReplicateSeedPlan,
    SimulationScenario,
    calibrate_censoring,
    calibrate_truncation,
    derived_dims,
    gen_covariates_ar1,
    gen_covariates_grouped,
    scenario_diverging_p,
    scenario_grouped,
    simulate_dataset,
)

__version__ = "0.1.0"
