"""meanlab: bivariate means, Seiffert functions, and mean inequalities.

A numerics library around the correspondence between symmetric
homogeneous means M and their Seiffert functions f_M(z) = z/M(1-z, 1+z),
the integral operator I(f)(z) = int_0^z f(u)/u du, harmonic
representations 1/M = int_0^1 dt/N^{t}, the AGM/elliptic-integral
machinery behind the AGM mean's representation, and grid verification of
the resulting Hermite-Hadamard-type inequality chains.
"""

import importlib

#: Home submodule -> the public names it exports.  `__getattr__` (PEP 562)
#: imports a submodule the first time one of its names is used.
_EXPORTS = {
    "errors": ("MeanLabError", "DomainError", "UnknownMeanError", "SeiffertBoundError",
               "NonConvergenceError"),
    "means": ("MeanDescriptor", "SeiffertFunction", "CATALOG", "MEAN_IDS",
              "get_mean", "eval_mean", "relative_half_spread", "seiffert_bounds",
              "seiffert_of_mean", "mean_of_seiffert", "deform_mean", "agm",
              "v_mean"),
    "_pairs": ("GridSpec",),
    "calculus": ("integrate", "apply_i_operator", "i_envelope", "derivative_estimate"),
    "elliptic": ("ellip_k", "ellip_e", "ellip_k_prime", "agm_seiffert_prime",
                 "agm_coefficient", "agm_coefficient_ratio"),
    "harmonic": ("RepresentationVerdict", "PairCatalogEntry", "PAIR_CATALOG",
                 "construct_candidate", "check_representable", "verify_identity",
                 "log_envelope_check", "default_pairs", "make_envelope_gap_example"),
    "inequalities": ("ChainSpec", "ChainReport", "CHAIN_NAMES", "hh_bounds",
                     "hh_refined_lower", "envelope_lemma", "run_chain_suite",
                     "builtin_chain", "default_pair_grid"),
    "suite": ("run_full_suite",),
}

#: Public name -> (home submodule, name there).
_HOMES = {name: (module, name) for module, names in _EXPORTS.items() for name in names}
_HOMES["__version__"] = ("reporting", "TOOL_VERSION")

__all__ = list(_HOMES)


def __getattr__(name: str):
    try:
        module, attr = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), attr)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
