"""Truncated Markov shifts, Henon-family checks, periodic-orbit censuses,
and word-combinatorics dimension bounds.

Five library submodules, re-exported here, beside params (M, b and the
constants derived from them) and cli (the henonshift command line):

- markov: loop censuses, Gurevich entropy, the entropy-maximizing chain,
  strong-positive-recurrence tests, cylinder equidistribution.
- words: the two-symbols-per-order alphabet, word counting recursions,
  divisibility order, covering sums and dimension upper bounds.
- henon: the quadratic family with small perturbations, tangent cocycles,
  cone-field and expansion checks, Lyapunov exponents.
- orbits: periodic-orbit censuses (1-D by inverse-branch sweeps for
  a <= -2 and bisection above, 2-D by batched Newton), entropy fits,
  equidistribution against the arcsine law.
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
    equidistribution_cylinder,
    full_shift_graph,
    golden_mean_graph,
    graph_from_dict,
    graph_to_dict,
    gurevich_entropy,
    is_spr,
    perron,
    radii,
    shift_periodic_census,
)
from .words import (
    SuitabilityModel,
    Symbol,
    Word,
    UNIT_WORD,
    block_sum,
    canonical_spellings,
    count_prime_words,
    count_sharp,
    covering_sum,
    dimension_upper_bound,
    divides,
    enumerate_words,
    full_model,
    model_from_dict,
    synthetic_census,
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
    most_contracted_direction,
    pce_check,
    region_sample_U,
    tangent_cocycle,
)
from .orbits import (
    PeriodicCensus,
    PeriodicOrbit,
    arcsine_cdf,
    chebyshev_fixed_points,
    entropy_from_census,
    equidistribution_test,
    exceptional_bound,
    fixed_points_1d,
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
