"""Differentially private synthetic count data via a Poisson-gamma mechanism.

Synthetic count vectors are drawn from the posterior predictive of a
Poisson model with conjugate Gamma priors, conditioned on the public
total. The prior hyperparameters are calibrated so the release satisfies
epsilon-differential privacy against unit transfers between strata;
prior predictive truncation shrinks the required prior weight by
restricting counts to public Poisson-quantile boxes.

Typical flow: load a strata.StrataTable and strata.RatesTable,
strata.build_prior, optionally strata.compute_bounds,
calibration.solve_hyperparameters, then synthesizer.sample_counts_matrix
for a (replicates, strata) matrix and synthesizer.write_replicates_csv to
store it. audit.audit exhaustively verifies the privacy bound on
enumerable instances; the utility module scores replicates against the
confidential table. Each module's __all__ is its public surface.
"""

__version__ = "1.0.0"
