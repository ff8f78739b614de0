"""Truncated Markov shifts, Henon-family checks, periodic-orbit censuses,
and word-combinatorics dimension bounds.

Five submodules:

- markov: loop censuses, Gurevich entropy, the entropy-maximizing chain,
  strong-positive-recurrence tests, cylinder equidistribution.
- words: the two-symbols-per-order alphabet, word counting recursions,
  divisibility order, covering sums and dimension upper bounds.
- henon: the quadratic family with small perturbations, tangent cocycles,
  cone-field and expansion checks, Lyapunov exponents.
- orbits: periodic-orbit censuses (1-D bisection and 2-D batched
  Newton), entropy fits, equidistribution against the arcsine law.
- stats: samplers for the invariant law, covariance-decay and CLT tests,
  Young's dimension formula, box-counting, return-time decay.
"""

from .params import Params
from .markov import (
    AnalysisError,
    CylinderWord,
    LoopCensus,
    MarkovGraph,
    MaxEntropyChain,
    SpectralData,
    SprReport,
    build_mme,
    chain_entropy,
    count_loops,
    cycle_graph,
    equidistribution_cylinder,
    full_shift_graph,
    golden_mean_graph,
    graph_from_dict,
    graph_to_dict,
    gurevich_entropy,
    is_mixing,
    is_spr,
    load_graph,
    perron,
    radii,
    return_time_tail,
    self_loop_graph,
    shift_periodic_census,
)
from .words import (
    SuitabilityModel,
    Symbol,
    Word,
    UNIT_WORD,
    aleph,
    block_sum,
    canonical_spellings,
    count_prime_words,
    count_sharp,
    covering_sum,
    dimension_upper_bound,
    divides,
    enumerate_words,
    full_model,
    is_xi_regular,
    model_from_dict,
    model_to_dict,
    simple_only_model,
    synthetic_census,
    validate_common_sequence,
    zstar_from_model,
)
from .henon import (
    ConeField,
    HenonMap,
    check_G6,
    check_expansion_G4,
    h_times_check,
    horizontal_cone,
    iterate,
    lyapunov,
    map_from_dict,
    map_to_dict,
    most_contracted_direction,
    pce_check,
    region_sample_U,
    tangent_cocycle,
)
from .orbits import (
    PeriodicCensus,
    PeriodicOrbit,
    arcsine_cdf,
    census_to_csv,
    chebyshev_fixed_points,
    entropy_from_census,
    equidistribution_test,
    exceptional_bound,
    fixed_points_1d,
    k_square_entropy,
    periodic_orbits_2d,
)
from .stats import (
    EmpiricalMeasure,
    box_dimension,
    clt_test,
    coboundary,
    covariance_decay,
    lipschitz_bump,
    return_decay_check,
    sample_mme_1d,
    young_dimension,
)

__version__ = "0.1.0"
