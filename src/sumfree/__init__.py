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

`import sumfree` loads no submodule: a submodule, or the module that
defines one of the names below, is loaded when it is first used (PEP 562).
"""

from importlib import import_module

# Each submodule, with each public name it defines listed once.
_EXPORTS = {
    "core": """SCHEMA_VERSION VERSION CyclicSignal GridOverflowError IntegerSet SetFormatError
        SumFreeConvention embed_signal indicator_vector interval_signal load_set rng_from_seed save_set""",
    "solver": """ALLOW_EQUAL DISTINCT_ONLY catalog compose compose_iterate dilation_select dilation_sweep
        heuristic_sum_free is_sum_free max_sum_free_subset""",
    "spectral": "fourier_decompose pollard_check popular_differences t_count t_stability_gap u2_group_norm u2_norm",
    "structure": """AlphaGrid GridSet Progression alpha_tilde avoid_zero_diagnostic check_doubling_hypothesis
        difference_set find_dense_progression lev_check""",
    "weights": """GridWeight IterationParams alpha_schedule build_weight density_experiment load_weight
        pushforward_step riemann_error sample_probabilities sample_set save_weight uniform_weight""",
    "equidist": "LipschitzTestFunction Theta TrigTerm equidist_error golden_theta irrationality_check",
    "reference": "exhaustive_max_sum_free",
    "checks": "SUITE_NAMES run_suite",
    "cli": "",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    # not cached here: a name reads its module's binding of the moment, patched or not
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name == "__version__":
        name = "VERSION"
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__, "__version__"})
