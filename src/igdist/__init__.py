"""Distances in multitype random intersection graphs.

Samplers for the typed bipartite model, the alternating branching
process with its labeled coupling, coincidence-probability machinery,
and the defective Gumbel-mixture approximation of typical distances.
"""

__version__ = "0.1.0"

from .model import (
    ModelParams,
    Rank1Params,
    SpectralData,
    degree_bound,
    derived_scalars,
    identity_report,
    mean_matrices,
    perron,
    rank1_build,
    second_modulus,
)
from .graphgen import (
    BipartiteGraph,
    DistanceLaw,
    empirical_distance_law,
    pair_distance,
    sample_bipartite,
)
from .bpsim import (
    LabeledForest,
    conditioned_w_pool,
    extinction_frequency,
    ghost_scaling,
    labeled_growth,
    survival_prob,
    w_sample,
)
from .coincidence import (
    SamplingScheme,
    bounds,
    lambda_value,
    p_no_collision_exact,
    p_no_collision_mc,
    poisson_check,
)
from .approx import (
    ApproxLaw,
    WPools,
    build_approx_law,
    cdf_U_prime,
    compare,
    delta_error_scale,
    exceed_prob,
    sample_U_tilde,
)
from .config import ExperimentConfig, load_config
from .seeding import derive_seed

__all__ = [
    "ModelParams",
    "Rank1Params",
    "SpectralData",
    "mean_matrices",
    "perron",
    "second_modulus",
    "derived_scalars",
    "identity_report",
    "rank1_build",
    "degree_bound",
    "BipartiteGraph",
    "DistanceLaw",
    "sample_bipartite",
    "pair_distance",
    "empirical_distance_law",
    "LabeledForest",
    "w_sample",
    "survival_prob",
    "extinction_frequency",
    "conditioned_w_pool",
    "labeled_growth",
    "ghost_scaling",
    "SamplingScheme",
    "lambda_value",
    "bounds",
    "p_no_collision_exact",
    "p_no_collision_mc",
    "poisson_check",
    "WPools",
    "ApproxLaw",
    "exceed_prob",
    "cdf_U_prime",
    "sample_U_tilde",
    "delta_error_scale",
    "build_approx_law",
    "compare",
    "ExperimentConfig",
    "load_config",
    "derive_seed",
]
