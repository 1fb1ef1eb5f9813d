"""meanlab: bivariate means, Seiffert functions, and mean inequalities.

A numerics library around the correspondence between symmetric
homogeneous means M and their Seiffert functions f_M(z) = z/M(1-z, 1+z),
the integral operator I(f)(z) = int_0^z f(u)/u du, harmonic
representations 1/M = int_0^1 dt/N^{t}, the AGM/elliptic-integral
machinery behind the AGM mean's representation, and grid verification of
the resulting Hermite-Hadamard-type inequality chains.
"""

from .calculus import (
    GridSpec,
    ShapeVerdict,
    apply_i_operator,
    derivative_estimate,
    i_envelope,
    i_operator_on,
    integrate,
    probe_shape,
)
from .elliptic import (
    agm,
    agm_coefficient,
    agm_coefficient_exact,
    agm_coefficient_ratio,
    agm_seiffert,
    agm_seiffert_prime,
    ellip_e,
    ellip_k,
    ellip_k_prime,
    v_mean,
)
from .errors import (
    DomainError,
    MeanLabError,
    NonConvergenceError,
    SeiffertBoundError,
    UnknownMeanError,
)
from .harmonic import (
    NON_REPRESENTABLE_IDS,
    PAIR_CATALOG,
    PairCatalogEntry,
    RepresentationVerdict,
    check_representable,
    construct_candidate,
    default_pairs,
    log_envelope_check,
    make_envelope_gap_example,
    verify_identity,
)
from .inequalities import (
    CHAIN_NAMES,
    ChainReport,
    ChainSpec,
    builtin_chain,
    default_pair_grid,
    envelope_lemma,
    hh_bounds,
    hh_refined_lower,
    run_chain_suite,
)
from .means import (
    CATALOG,
    MEAN_IDS,
    MeanDescriptor,
    SeiffertFunction,
    deform,
    deform_mean,
    eval_mean,
    get_mean,
    mean_of_seiffert,
    relative_half_spread,
    seiffert_bounds,
    seiffert_of_mean,
)
from .reporting import TOOL_VERSION as __version__
from .suite import run_full_suite

__all__ = [
    "__version__",
    # errors
    "MeanLabError", "DomainError", "UnknownMeanError", "SeiffertBoundError",
    "NonConvergenceError",
    # means
    "MeanDescriptor", "SeiffertFunction", "CATALOG", "MEAN_IDS",
    "get_mean", "eval_mean", "relative_half_spread", "seiffert_bounds",
    "seiffert_of_mean", "mean_of_seiffert", "deform", "deform_mean",
    # calculus
    "GridSpec", "ShapeVerdict", "integrate", "apply_i_operator", "i_envelope", "derivative_estimate",
    "i_operator_on", "probe_shape",
    # elliptic
    "agm", "ellip_k", "ellip_e", "ellip_k_prime",
    "agm_seiffert", "agm_seiffert_prime", "agm_coefficient",
    "agm_coefficient_exact", "agm_coefficient_ratio", "v_mean",
    # harmonic
    "RepresentationVerdict", "PairCatalogEntry", "PAIR_CATALOG",
    "NON_REPRESENTABLE_IDS", "construct_candidate", "check_representable",
    "verify_identity", "log_envelope_check", "default_pairs",
    "make_envelope_gap_example",
    # inequalities
    "ChainSpec", "ChainReport", "CHAIN_NAMES", "hh_bounds",
    "hh_refined_lower", "envelope_lemma", "run_chain_suite", "builtin_chain",
    "default_pair_grid",
    # suite
    "run_full_suite",
]
