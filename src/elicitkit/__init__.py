"""Exact-rational toolkit for information elicitation with experiments.

Core objects: finite statistical experiments with exact Markov kernels,
beliefs over their parameters, statistic families representing information
partitions, payment mechanisms with exactly computed incentives, and the
comparison orders between experiments. See the module docstrings for the
mathematics; everything is exact rational arithmetic.

``import elicitkit`` loads no submodule. The first use of a public name
(``elicitkit.ic_verify``) or of a submodule (``elicitkit.orders``) imports
its home module, so a CLI subcommand pays only for the modules it runs.
"""

from importlib import import_module

# home submodule -> the public names it exports
_EXPORTS = {
    "exactcore": "Matrix format_rational parse_rational",
    "model": """Belief CovariateMixture Experiment belief_grid garble is_complete
        is_identified load_experiment mean_outcome_distribution mixture
        product_many power replacement_garbling_channel_inverse uniform_garble""",
    "elicit": """ElicitabilityReport StatisticFamily complete_elicitation
        indistinguishable is_coarser maximal_partition mode_elicitable
        moment_weights unbiased_weights""",
    "mechanisms": """Mechanism TableMechanism compound_mechanism expected_payoff
        ic_verify level_set_transform mean_mechanism pushforward
        quadratic_mechanism value_function""",
    "orders": """DominanceResult EventWeightMatrix blackwell_dominates
        bounded_dominates elicitation_dominates nonneg_dominates
        order_consistency_audit uniform_garbling_decomposition""",
}
__all__ = [name for names in _EXPORTS.values() for name in names.split()]
# every lazily resolved name: the public ones, and each submodule as its own home
_HOME = {name: home for home, names in _EXPORTS.items() for name in (home, *names.split())}
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = import_module(f"{__name__}.{_HOME[name]}")
    value = home if name == _HOME[name] else getattr(home, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
