"""Simulation and numerical-verification toolkit for statistics of randomly
weighted d-dimensional simplicial complexes."""

# Defined before the submodule imports: harness reads it while the package
# is still initializing.
__version__ = "0.1.0"

from .bounds import (BoundInputs, bound_add_one, bound_corollary, bound_main,
                     gamma_bound, nn_cov_asymptote, nn_cov_exact,
                     nn_variance_asymptote, rho_bound, truncation_level,
                     variance_lower_unweighted, variance_upper_efron_stein)
from .cohomology import cocycle_dim, coboundary_matrix
from .harness import (ExperimentConfig, RunSummary, kolmogorov_distance,
                      normal_cdf, run_clt, run_cov_nn, run_stabilization,
                      run_variance_check)
from .perturbation import (StabilizationEstimate, add_one_cost,
                           estimate_delta_tilde, estimate_gamma,
                           estimate_rho_probe, estimate_variance_and_J,
                           local_add_one_cost, randomized_derivative)
from .sampling import (ForcedBits, ModelParams, PairedSample,
                       WeightDistribution, exp_mean_n, sample_complex,
                       truncated_params)
from .simplices import (WeightedComplex, faces, rank_colex, read_complex,
                        unrank_colex, write_complex)
from .statistics import (Statistic, betti_bounded, cocycle_count_bounded,
                         f_alpha, isolated_count, local_statistic,
                         make_statistic, nn_total)
from .topology import (ball_k, components, connected_within, gamma_exact,
                       m_ball)
