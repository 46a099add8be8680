"""Desk-scale numerics for the p-spin mean-field model.

Exact finite-size enumeration of the partition function, combinatorial
moment identities, overlap-covariance tables, limiting CLT constants,
and a deterministic disorder-replica Monte Carlo harness.
"""

from .errors import (
    DataError,
    IdentityCheckError,
    InvalidParametersError,
    NumericalError,
    PspinError,
    ResourceLimitError,
)
from .multiindex import (
    Disorder,
    ModelParams,
    derive_seed,
    mask_table,
    sample_disorder,
)
from .model import (
    ENUMERATION_BUDGET,
    EnergyLedger,
    field_chunks,
    field_table,
    free_energy,
    gaussian_field,
    gray_sweep,
    j_term,
    log_partition,
)
from .covariance import (
    MomentPolynomial,
    OverlapGrid,
    covariance_numerator,
    d_coefficient,
    exact_covariance,
    expansion_approx,
    hermite,
    hermite_scaling_gap,
    overlap_grid,
    overlap_pmf,
    overlap_pmf_gaussian,
)
from .theory import (
    REM_BETA,
    LimitConstants,
    beta_p,
    clt_variance,
    gaussian_moment,
    limit_constants,
)
from .momentlab import (
    QuenchedMoments,
    exact_first_moment,
    first_moment_mc,
    free_energy_and_moments,
    h3_representation,
    h4_direct,
    h4_statistic,
    j_mgf,
    j_mgf_mc,
    pair_moment_paths,
    pair_statistic_moment,
    pair_sums,
    quenched_moments,
)
from .harness import (
    CSV_HEADER,
    MODES,
    ExperimentConfig,
    ExperimentReport,
    FluctuationSample,
    SummaryStats,
    run_experiment,
    summarize,
    tabulate_covariance,
)

__version__ = "0.1.0"
