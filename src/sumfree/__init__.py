"""Sum-free subset bounds and the supporting additive-combinatorics toolkit.

The package revolves around one question: how large a sum-free subset must
a set of positive integers contain, and how sets with only small sum-free
subsets can be constructed.  `solver` holds the exact and certified
machinery, `spectral` the Fourier-side diagnostics, `structure` the
additive-structure scanners, `weights` the mass-concentrating iteration
and sampler the construction rests on, and `equidist` the orbit
equidistribution checks behind its error terms.  `reference` holds the
slow oracles the fast paths are checked against.  `sumfree.cli:main` is
the command line entry point and `checks.run_suite` the randomized
property suites.
"""

from .core import (
    SCHEMA_VERSION,
    VERSION,
    CyclicSignal,
    GridOverflowError,
    IntegerSet,
    SetFormatError,
    SumFreeConvention,
    embed_signal,
    indicator_vector,
    interval_signal,
    load_set,
    rng_from_seed,
    save_set,
)
from .solver import (
    ALLOW_EQUAL,
    DISTINCT_ONLY,
    catalog,
    compose,
    compose_iterate,
    dilation_select,
    dilation_sweep,
    heuristic_sum_free,
    is_sum_free,
    max_sum_free_subset,
)
from .spectral import (
    fourier_decompose,
    pollard_check,
    popular_differences,
    t_count,
    t_stability_gap,
    u2_group_norm,
    u2_norm,
)
from .structure import (
    AlphaGrid,
    GridSet,
    Progression,
    alpha_tilde,
    avoid_zero_diagnostic,
    check_doubling_hypothesis,
    difference_set,
    find_dense_progression,
    lev_check,
)
from .weights import (
    GridWeight,
    IterationParams,
    alpha_schedule,
    build_weight,
    density_experiment,
    load_weight,
    pushforward_step,
    riemann_error,
    sample_probabilities,
    sample_set,
    save_weight,
    uniform_weight,
)
from .equidist import (
    LipschitzTestFunction,
    Theta,
    TrigTerm,
    equidist_error,
    golden_theta,
    irrationality_check,
)
__version__ = VERSION

# The oracle and the property suites load on first use (PEP 562), so that
# importing the package, or the CLI, does not compile them.
_LAZY = {"exhaustive_max_sum_free": "reference", "SUITE_NAMES": "checks", "run_suite": "checks"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "ALLOW_EQUAL",
    "AlphaGrid",
    "CyclicSignal",
    "DISTINCT_ONLY",
    "GridOverflowError",
    "GridSet",
    "GridWeight",
    "IntegerSet",
    "IterationParams",
    "LipschitzTestFunction",
    "Progression",
    "SCHEMA_VERSION",
    "SUITE_NAMES",
    "SetFormatError",
    "SumFreeConvention",
    "Theta",
    "TrigTerm",
    "VERSION",
    "alpha_schedule",
    "alpha_tilde",
    "avoid_zero_diagnostic",
    "build_weight",
    "catalog",
    "check_doubling_hypothesis",
    "compose",
    "compose_iterate",
    "density_experiment",
    "difference_set",
    "dilation_select",
    "dilation_sweep",
    "embed_signal",
    "equidist_error",
    "exhaustive_max_sum_free",
    "find_dense_progression",
    "fourier_decompose",
    "golden_theta",
    "heuristic_sum_free",
    "indicator_vector",
    "interval_signal",
    "irrationality_check",
    "is_sum_free",
    "lev_check",
    "load_set",
    "load_weight",
    "max_sum_free_subset",
    "pollard_check",
    "popular_differences",
    "pushforward_step",
    "riemann_error",
    "rng_from_seed",
    "run_suite",
    "sample_probabilities",
    "sample_set",
    "save_set",
    "save_weight",
    "t_count",
    "t_stability_gap",
    "u2_group_norm",
    "u2_norm",
    "uniform_weight",
]
