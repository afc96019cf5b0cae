"""Statistical experiments over finite parameter and outcome sets.

An experiment pairs a finite outcome set with a row-stochastic kernel: one
row per parameter value, giving that parameter's outcome distribution. A
belief is a probability vector over the parameters. Both carry exact
rationals, so every derived quantity (mean outcome distributions, products,
mixtures, garblings) is exact as well.

Parameter and outcome sets are ordered lists, and every matrix follows that
order; this keeps serialization and pivoting reproducible. All values are
immutable and operations are pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .exactcore import (
    Matrix, Span, _scaled_ints, format_rational, kron, parse_rational, require_distinct,
    require_distribution, require_int, require_keys, require_labels, require_length, require_tuple,
    require_vector,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

# A product experiment holds one kernel entry per parameter and outcome tuple,
# so its outcome count is capped: power(e, 15) of a 2-outcome experiment on 11
# parameters (32,768 outcomes) takes about 3 s and 67 MB peak RSS (Python 3.11,
# one core of a shared 2-CPU machine).
MAX_PRODUCT_OUTCOMES = 32_768


@dataclass(frozen=True)
class Experiment:
    """Finite parameter set, finite outcome set, and an exact Markov kernel."""

    parameters: tuple[str, ...]
    outcomes: tuple[str, ...]
    kernel: Matrix

    def __post_init__(self) -> None:
        require_tuple(self.parameters, "parameter labels", str)
        require_tuple(self.outcomes, "outcome labels", str)
        if not self.parameters:
            raise ValueError("experiment needs at least one parameter")
        if not self.outcomes:
            raise ValueError("experiment needs at least one outcome")
        require_distinct(self.parameters, "parameter labels")
        require_distinct(self.outcomes, "outcome labels")
        require_length(self.kernel.rows, len(self.parameters), "kernel row count", "parameter set")
        require_length(self.kernel.cols, len(self.outcomes), "kernel column count", "outcome set")
        for i, label in enumerate(self.parameters):
            require_distribution(self.kernel.row(i), f"kernel row for parameter {label!r}")

    @cached_property
    def _kernel_ints(self) -> tuple[list[list[int]], int]:
        """The kernel's columns as integer rows over one scale, built on first use."""
        return _scaled_ints([self.kernel.col(y) for y in range(self.kernel.cols)])

    @cached_property
    def span(self) -> Span:
        """The kernel columns' span, built on first use: no payment separates beliefs
        differing by an annihilator vector, and there is none iff rank K = n."""
        return Span.of(self._kernel_ints[0], len(self.parameters))


@dataclass(frozen=True)
class Belief:
    """Exact probability vector over an experiment's parameters."""

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        require_distribution(self.weights, "belief weights")

    @staticmethod
    def uniform(n: int) -> "Belief":
        require_int(n, "n", 1)
        return Belief((Fraction(1, n),) * n)

    @staticmethod
    def point_mass(n: int, index: int) -> "Belief":
        require_int(n, "n", 1)
        require_int(index, "index", 0, n - 1)
        return Belief(tuple(_ONE if i == index else _ZERO for i in range(n)))

    def modes(self) -> tuple[int, ...]:
        """Indices attaining the maximal weight."""
        top = max(self.weights)
        return tuple(i for i, w in enumerate(self.weights) if w == top)

    def to_doc(self) -> list[str]:
        return [format_rational(w) for w in self.weights]


@dataclass(frozen=True)
class CovariateMixture:
    """One component experiment per covariate, plus covariate weights.

    The induced experiment first draws the covariate, then an outcome from
    that covariate's component. All components share the parameter set.
    """

    covariates: tuple[str, ...]
    weights: tuple[Fraction, ...]
    components: tuple[Experiment, ...]

    def __post_init__(self) -> None:
        require_tuple(self.covariates, "covariate labels", str)
        require_distribution(self.weights, "covariate weights")
        require_tuple(self.components, "mixture components", Experiment)
        require_distinct(self.covariates, "covariate labels")
        require_length(len(self.weights), len(self.covariates), "weight count", "covariates")
        require_length(len(self.components), len(self.covariates), "component count", "covariates")
        params = self.components[0].parameters
        for comp in self.components[1:]:
            if comp.parameters != params:
                raise ValueError("all components must share the parameter set")

    @property
    def parameters(self) -> tuple[str, ...]:
        return self.components[0].parameters


def product_many(experiments: Sequence[Experiment]) -> Experiment:
    """Product experiment: independent draws, one per factor.

    Outcomes are tuples in ``kron`` order (first factor slowest); the kernel
    entry for a tuple is the product of the factor probabilities. Zero
    factors raise ValueError, since there is no parameter set to take; use
    ``power(e, 0)`` for the single dummy outcome of probability 1. More than
    ``MAX_PRODUCT_OUTCOMES`` outcomes raise ValueError before any product.
    """
    if not require_tuple(experiments, "experiments", Experiment, (list, tuple)):
        raise ValueError("product of zero experiments needs a parameter set")
    params = experiments[0].parameters
    for e in experiments[1:]:
        if e.parameters != params:
            raise ValueError("product requires identical parameter sets")
    require_product_size(len(e.outcomes) for e in experiments)
    return _product(params, experiments)


def power(e: Experiment, copies: int) -> Experiment:
    """``copies`` independent observations from the same experiment.

    Capped at ``MAX_PRODUCT_OUTCOMES`` outcomes, as ``product_many`` is; the
    cap is checked before the ``copies`` factors are listed.
    """
    require_int(copies, "copies", 0)
    require_product_size(itertools.repeat(len(e.outcomes), copies))
    return _product(e.parameters, (e,) * copies)


def require_product_size(outcome_counts: Iterable[int]) -> None:
    """Refuse independent draws with more than ``MAX_PRODUCT_OUTCOMES`` outcomes.

    The count is checked draw by draw, so a huge product is refused early.
    """
    total = 1
    for draws, count in enumerate(outcome_counts, 1):
        total *= count
        if total > MAX_PRODUCT_OUTCOMES:
            raise ValueError(
                f"{draws} independent draws already have {total} outcomes, above "
                f"the cap of {MAX_PRODUCT_OUTCOMES} (MAX_PRODUCT_OUTCOMES)"
            )


def _product(params: tuple[str, ...], factors: Sequence[Experiment]) -> Experiment:
    """Independent draws from ``factors`` over ``params``; no factors give the
    single outcome ``"()"`` of probability 1."""
    labels = itertools.product(*(e.outcomes for e in factors))
    rows = [kron([e.kernel.row(t) for e in factors]) for t in range(len(params))]
    return Experiment(
        params, tuple(f"({','.join(c)})" for c in labels), Matrix.from_rows(rows)
    )


def mixture(m: CovariateMixture) -> Experiment:
    """Experiment producing (covariate, outcome) pairs.

    The kernel entry for pair (x, y) given a parameter is the covariate
    weight of x times the component probability of y.
    """
    pairs = list(zip(m.weights, m.covariates, m.components))
    labels = tuple(f"({x},{y})" for _, x, comp in pairs for y in comp.outcomes)
    rows = [
        [w * p for w, _, comp in pairs for p in comp.kernel.row(t)]
        for t in range(len(m.parameters))
    ]
    return Experiment(m.parameters, labels, Matrix.from_rows(rows))


def garble(e: Experiment, channel: Matrix) -> Experiment:
    """Post-compose the experiment with a Markov channel on outcomes.

    The new kernel is ``kernel @ channel``. A square channel keeps the
    outcome labels; any other channel's outcomes are ``g0``, ``g1``, ...
    """
    require_length(channel.rows, len(e.outcomes), "Markov channel row count", "outcome set")
    for i in range(channel.rows):
        require_distribution(channel.row(i), f"Markov channel row {i}")
    square = channel.cols == len(e.outcomes)
    labels = e.outcomes if square else tuple(f"g{j}" for j in range(channel.cols))
    return Experiment(e.parameters, labels, e.kernel @ channel)


def _replacement_matrix(
    replacement: Sequence[Fraction], noise: Fraction, inverse: bool
) -> Matrix:
    """(1-a) I + a P, every row of P being ``replacement``.

    The channel takes a = noise. P is idempotent, so a = -noise/(1-noise)
    gives its inverse. Both check the noise and the replacement alike.
    """
    noise = parse_rational(noise)
    if not 0 <= noise < 1:
        raise ValueError("noise probability must lie in [0, 1)")
    probs = require_vector(replacement, "replacement distribution")
    require_distribution(probs, "replacement distribution")
    a = -noise / (1 - noise) if inverse else noise
    n = len(probs)
    return Matrix.from_rows(
        [
            [(1 - a) * (_ONE if i == j else _ZERO) + a * probs[j] for j in range(n)]
            for i in range(n)
        ]
    )


def replacement_garbling_channel(
    replacement: Sequence[Fraction], noise: Fraction
) -> Matrix:
    """Channel keeping the outcome with probability 1-noise, else redrawing it.

    The redraw follows ``replacement``; with the uniform replacement this is
    the uniform-noise channel ``(1-noise) I + (noise/n) J``.
    """
    return _replacement_matrix(replacement, noise, inverse=False)


def replacement_garbling_channel_inverse(
    replacement: Sequence[Fraction], noise: Fraction
) -> Matrix:
    """Closed-form inverse of the replacement channel.

    With P the rank-one Markov matrix whose rows all equal ``replacement``,
    the channel is (1-noise) I + noise P and P is idempotent, so the inverse
    is (I - noise P) / (1-noise).
    """
    return _replacement_matrix(replacement, noise, inverse=True)


def replacement_garble(
    e: Experiment, noise: Fraction, replacement: Sequence[Fraction]
) -> Experiment:
    """Garble by redrawing the outcome from ``replacement`` with probability ``noise``."""
    return garble(e, replacement_garbling_channel(replacement, noise))


def uniform_garble(e: Experiment, noise: Fraction) -> Experiment:
    """Garble by replacing the outcome with a uniform draw with probability ``noise``."""
    n = len(e.outcomes)
    return replacement_garble(e, noise, [Fraction(1, n)] * n)


def mean_outcome_distribution(e: Experiment, p: Belief) -> tuple[Fraction, ...]:
    """Outcome distribution induced by a belief: the belief-weighted kernel rows.

    This is the only feature of a belief that outcome-contingent payments can
    respond to.
    """
    require_length(len(p.weights), len(e.parameters), "belief length", "parameter set")
    return e.kernel.left_mul_vec(p.weights)


def is_identified(e: Experiment) -> bool:
    """True when distinct parameters induce distinct kernel rows."""
    rows = {e.kernel.row(i) for i in range(len(e.parameters))}
    return len(rows) == len(e.parameters)


def is_complete(e: Experiment) -> bool:
    """True when every outcome distribution is a belief's mean outcome distribution.

    That holds exactly when every kernel column contains the entry 1, i.e.
    each outcome is certain under some parameter, so no LP is needed. The
    reachable distributions form the convex hull of the kernel rows, which
    lies inside the outcome simplex; it is the whole simplex iff it holds
    every simplex vertex. A vertex lies in that hull only if it is one of the
    rows, and a row holding a 1 is that vertex, because rows lie in [0, 1]
    and sum to 1.
    """
    return all(_ONE in e.kernel.col(j) for j in range(len(e.outcomes)))


def grid_counts(n_parameters: int, denominator: int) -> Iterator[tuple[int, ...]]:
    """Every nonnegative integer vector of the given length summing to
    ``denominator``, in lexicographic order.

    Count vector k stands for the belief k/denominator, so these run over
    the 1/denominator belief grid; ``belief_grid`` builds its beliefs from
    them, so both share one order.
    """
    require_int(n_parameters, "n_parameters", 1)
    return _compositions(require_int(denominator, "denominator", 1), n_parameters)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # a vector's running sums are nondecreasing cuts, listed in its own order
    for cuts in itertools.combinations_with_replacement(range(total + 1), parts - 1):
        counts, last = [], 0
        for cut in cuts:
            counts.append(cut - last)
            last = cut
        yield (*counts, total - last)


def belief_grid(n_parameters: int, denominator: int) -> tuple[Belief, ...]:
    """All beliefs whose weights are multiples of 1/denominator.

    Enumerated in lexicographic order of the weight tuples; deterministic, so
    grid-based checks and reported witnesses are reproducible.
    """
    return tuple(
        grid_belief(counts, denominator)
        for counts in grid_counts(n_parameters, denominator)
    )


def grid_belief(counts: Sequence[int], denominator: int) -> Belief:
    """The belief counts/denominator of one ``grid_counts`` vector."""
    return Belief(tuple(Fraction(k, denominator) for k in counts))


def load_experiment(doc: Mapping) -> Experiment:
    """Build a validated experiment from its JSON document.

    Schema: ``{"parameters": [...], "outcomes": [...], "kernel": [[...]]}``
    with kernel rows in parameter order and entries as rational strings.
    """
    require_keys(doc, ("parameters", "outcomes", "kernel"), "experiment document")
    parameters = require_labels(doc["parameters"], "parameters")
    outcomes = require_labels(doc["outcomes"], "outcomes")
    return Experiment(parameters, outcomes, Matrix.from_rows(doc["kernel"]))


def experiment_to_doc(e: Experiment) -> dict:
    return {
        "parameters": list(e.parameters),
        "outcomes": list(e.outcomes),
        "kernel": e.kernel.to_doc(),
    }


def load_mixture(doc: Mapping) -> CovariateMixture:
    """Build a covariate mixture from its JSON document.

    Schema: ``{"covariates": [...], "weights": {cov: "1/2", ...},
    "components": {cov: <experiment document>, ...}}``; the covariate list is
    optional and defaults to the component key order.
    """
    require_keys(doc, ("components", "weights"), "mixture document")
    components_doc = doc["components"]
    # a JSON object first, since its keys name the covariates by default
    require_keys(components_doc, (), "mixture components")
    covariates_doc = doc.get("covariates", list(components_doc))
    covariates = require_labels(covariates_doc, "covariates")
    require_keys(components_doc, covariates, "mixture components")
    require_keys(doc["weights"], covariates, "mixture weights")
    weights = tuple(parse_rational(doc["weights"][x]) for x in covariates)
    components = tuple(load_experiment(components_doc[x]) for x in covariates)
    return CovariateMixture(covariates, weights, components)


def mixture_to_doc(m: CovariateMixture) -> dict:
    return {
        "covariates": list(m.covariates),
        "weights": {
            x: format_rational(w) for x, w in zip(m.covariates, m.weights)
        },
        "components": {
            x: experiment_to_doc(comp)
            for x, comp in zip(m.covariates, m.components)
        },
    }
