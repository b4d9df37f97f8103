"""Differentially private synthetic count data via a Poisson-gamma mechanism.

Synthetic count vectors are drawn from the posterior predictive of a
Poisson model with conjugate Gamma priors, conditioned on the public
total. The prior hyperparameters are calibrated so the release satisfies
epsilon-differential privacy against unit transfers between strata;
prior predictive truncation shrinks the required prior weight by
restricting counts to public Poisson-quantile boxes.

Typical flow: load a StrataTable and RatesTable, build_prior, optionally
compute_bounds, solve_hyperparameters, then sample_counts_matrix for a
(replicates, strata) matrix and write_replicates_csv to store it.
pgsynth.audit.audit exhaustively verifies the privacy bound on enumerable
instances; the utility module scores replicates against the confidential
table. No name exported here is also a submodule's name, so
`import pgsynth.audit` always binds the module.
"""

from .calibration import (
    Calibration,
    MODE_TRUNCATED,
    MODE_UNTRUNCATED,
    solve_hyperparameters,
)
from .errors import (
    CalibrationError,
    DegeneratePriorError,
    DomainError,
    DominanceError,
    EnumerationCapError,
    InfeasibilityError,
    PgsynthError,
    SchemaError,
    UndefinedRateError,
)
from .audit import (
    AuditReport,
    exact_joint_pmf,
    ratio_curve,
)
from .fixtures import FixtureSpec, Fixture, generate_fixture
from .strata import (
    PriorSpec,
    RatesTable,
    StrataTable,
    TruncationBounds,
    build_prior,
    check_dominance,
    compute_bounds,
    joint_feasible_bounds,
)
from .synthesizer import (
    read_replicates_csv,
    sample_counts_matrix,
    write_replicates_csv,
)
from .utility import (
    DisparityEstimate,
    StandardPopulation,
    age_adjusted_rate,
    disparity_ratio,
    urban_rural_classify,
)

__version__ = "1.0.0"

__all__ = [
    "Calibration",
    "MODE_TRUNCATED",
    "MODE_UNTRUNCATED",
    "solve_hyperparameters",
    "PgsynthError",
    "DomainError",
    "SchemaError",
    "InfeasibilityError",
    "DegeneratePriorError",
    "DominanceError",
    "CalibrationError",
    "EnumerationCapError",
    "UndefinedRateError",
    "AuditReport",
    "exact_joint_pmf",
    "ratio_curve",
    "FixtureSpec",
    "Fixture",
    "generate_fixture",
    "PriorSpec",
    "RatesTable",
    "StrataTable",
    "TruncationBounds",
    "build_prior",
    "check_dominance",
    "compute_bounds",
    "joint_feasible_bounds",
    "read_replicates_csv",
    "sample_counts_matrix",
    "write_replicates_csv",
    "DisparityEstimate",
    "StandardPopulation",
    "age_adjusted_rate",
    "disparity_ratio",
    "urban_rural_classify",
    "__version__",
]
