"""Gibbs-type predictive weights, alpha-diversity diffusions, and
Moran-type particle systems for generalized-gamma / normalized
inverse-Gaussian random measures."""

from .errors import (DomainError, InternalConsistencyError,
                     KernelCompileError, NigdiffError, NumericalError,
                     PrecisionLossError, UnsupportedParameterError)
from .gibbs import (GGParams, PDParams, WeightPair, conditional_pair_probability,
                    conditional_phi2_mean, eppf, eppf_log, integer_partitions,
                    m1_factorial_moment, m1_pmf, shape_count,
                    weights_batch, weights_gg_asymptotic, weights_gg_exact,
                    weights_gg_quadrature, weights_pd)
from .specfun import (alpha_diversity_density, exp_integral_ei,
                      gen_factorial_coeff, pochhammer, stable_half_density,
                      upper_incomplete_gamma)
from .urn import (GemWeights, PartitionState, ordered_frequencies,
                  sample_gem, sample_k_batch, sample_partition)
from .diffusion import (ChainState, DiversityPath, SimplexPoint,
                        chain_increment_moments, chain_transition_probs,
                        generator_action_power_sum, scale_function, sde_step,
                        simulate_chain, simulate_sde, speed_measure,
                        stationary_density_candidate)
from .particle import (ParticleSystem, balanced_sizes,
                       conditioned_phi2_average, moran_ensemble,
                       moran_phi2_drift, particle_run, simulate_rescaled)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
