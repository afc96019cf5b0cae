"""Exact-rational toolkit for information elicitation with experiments.

Core objects: finite statistical experiments with exact Markov kernels,
beliefs over their parameters, statistic families representing information
partitions, payment mechanisms with exactly computed incentives, and the
comparison orders between experiments. See the module docstrings for the
mathematics; everything outside demo quadrature is exact rational
arithmetic.
"""

from .exactcore import Matrix, format_rational, parse_rational
from .model import (
    Belief,
    CovariateMixture,
    Experiment,
    belief_grid,
    garble,
    is_complete,
    is_identified,
    load_experiment,
    mean_outcome_distribution,
    mixture,
    product_many,
    power,
    uniform_garble,
)
from .elicit import (
    ElicitabilityReport,
    StatisticFamily,
    complete_elicitation,
    indistinguishable,
    is_coarser,
    maximal_partition,
    mode_elicitable,
    moment_weights,
    unbiased_weights,
)
from .mechanisms import (
    Mechanism,
    TableMechanism,
    compound_mechanism,
    evaluate,
    expected_payoff,
    ic_verify,
    level_set_transform,
    mean_mechanism,
    pushforward,
    quadratic_mechanism,
    value_function,
)
from .orders import (
    DominanceResult,
    EventWeightMatrix,
    blackwell_dominates,
    bounded_dominates,
    elicitation_dominates,
    nonneg_dominates,
    order_consistency_audit,
    uniform_garbling_decomposition,
)

__version__ = "0.1.0"
