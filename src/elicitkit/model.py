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
from typing import Iterable, Mapping, Optional, Sequence

from .exactcore import (
    Matrix,
    format_rational,
    lp_feasible,
    parse_rational,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Experiment:
    """Finite parameter set, finite outcome set, and an exact Markov kernel."""

    parameters: tuple[str, ...]
    outcomes: tuple[str, ...]
    kernel: Matrix

    def __post_init__(self) -> None:
        if not self.parameters:
            raise ValueError("experiment needs at least one parameter")
        if not self.outcomes:
            raise ValueError("experiment needs at least one outcome")
        if len(set(self.parameters)) != len(self.parameters):
            raise ValueError("duplicate parameter labels")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError("duplicate outcome labels")
        if self.kernel.rows != len(self.parameters) or self.kernel.cols != len(
            self.outcomes
        ):
            raise ValueError("kernel shape does not match label counts")
        for i, label in enumerate(self.parameters):
            row = self.kernel.row(i)
            for x in row:
                if x < 0 or x > 1:
                    raise ValueError(
                        f"kernel entry {format_rational(x)} for parameter "
                        f"{label!r} lies outside [0, 1]"
                    )
            total = sum(row, _ZERO)
            if total != 1:
                raise ValueError(
                    f"kernel row for parameter {label!r} sums to "
                    f"{format_rational(total)}, expected 1"
                )

    def outcome_index(self, label: str) -> int:
        try:
            return self.outcomes.index(label)
        except ValueError:
            raise ValueError(f"unknown outcome {label!r}") from None


@dataclass(frozen=True)
class Belief:
    """Exact probability vector over an experiment's parameters."""

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("belief needs at least one weight")
        for w in self.weights:
            if w < 0:
                raise ValueError("belief weights must be nonnegative")
        if sum(self.weights, _ZERO) != 1:
            raise ValueError("belief weights must sum to exactly 1")

    @staticmethod
    def uniform(n: int) -> "Belief":
        return Belief((Fraction(1, n),) * n)

    @staticmethod
    def point_mass(n: int, index: int) -> "Belief":
        if not 0 <= index < n:
            raise ValueError("point-mass index out of range")
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
        if not self.covariates:
            raise ValueError("mixture needs at least one covariate")
        if len(set(self.covariates)) != len(self.covariates):
            raise ValueError("duplicate covariate labels")
        if len(self.weights) != len(self.covariates) or len(self.components) != len(
            self.covariates
        ):
            raise ValueError("covariates, weights, and components must align")
        for w in self.weights:
            if w < 0:
                raise ValueError("covariate weights must be nonnegative")
        if sum(self.weights, _ZERO) != 1:
            raise ValueError("covariate weights must sum to exactly 1")
        params = self.components[0].parameters
        for comp in self.components[1:]:
            if comp.parameters != params:
                raise ValueError("all components must share the parameter set")

    @property
    def parameters(self) -> tuple[str, ...]:
        return self.components[0].parameters


def product_many(experiments: Sequence[Experiment]) -> Experiment:
    """Product experiment: independent draws, one per factor.

    Outcomes are tuples in lexicographic order (first factor slowest); the
    kernel entry for a tuple is the product of the factor probabilities. With
    zero factors this degenerates to a single dummy outcome of probability 1.
    """
    if not experiments:
        raise ValueError("product of zero experiments needs a parameter set")
    params = experiments[0].parameters
    for e in experiments[1:]:
        if e.parameters != params:
            raise ValueError("product requires identical parameter sets")
    labels = [
        "(" + ",".join(combo) + ")"
        for combo in itertools.product(*(e.outcomes for e in experiments))
    ]
    rows: list[list[Fraction]] = []
    for t in range(len(params)):
        factor_rows = [e.kernel.row(t) for e in experiments]
        row = []
        for combo in itertools.product(*(range(len(e.outcomes)) for e in experiments)):
            p = _ONE
            for fr, idx in zip(factor_rows, combo):
                p *= fr[idx]
            row.append(p)
        rows.append(row)
    return Experiment(params, tuple(labels), Matrix.from_rows(rows))


def product(e1: Experiment, e2: Experiment) -> Experiment:
    """Two independent observations, one from each experiment."""
    return product_many((e1, e2))


def power(e: Experiment, copies: int) -> Experiment:
    """``copies`` independent observations from the same experiment."""
    if copies < 0:
        raise ValueError("copies must be nonnegative")
    if copies == 0:
        return Experiment(
            e.parameters, ("()",), Matrix.from_rows([[1]] * len(e.parameters))
        )
    return product_many((e,) * copies)


def mixture(m: CovariateMixture) -> Experiment:
    """Experiment producing (covariate, outcome) pairs.

    The kernel entry for pair (x, y) given a parameter is the covariate
    weight of x times the component probability of y.
    """
    labels: list[str] = []
    for x, comp in zip(m.covariates, m.components):
        labels.extend(f"({x},{y})" for y in comp.outcomes)
    rows: list[list[Fraction]] = []
    for t in range(len(m.parameters)):
        row: list[Fraction] = []
        for w, comp in zip(m.weights, m.components):
            row.extend(w * p for p in comp.kernel.row(t))
        rows.append(row)
    return Experiment(m.parameters, tuple(labels), Matrix.from_rows(rows))


def _check_markov(channel: Matrix) -> None:
    for i in range(channel.rows):
        row = channel.row(i)
        if any(x < 0 for x in row):
            raise ValueError("channel has a negative entry; not Markov")
        if sum(row, _ZERO) != 1:
            raise ValueError("channel row does not sum to 1; not Markov")


def garble(
    e: Experiment,
    channel: Matrix,
    outcome_labels: Optional[Sequence[str]] = None,
) -> Experiment:
    """Post-compose the experiment with a Markov channel on outcomes.

    The new kernel is ``kernel @ channel``. With a square channel the
    original outcome labels are kept; otherwise labels must be supplied (or
    are generated).
    """
    if channel.rows != len(e.outcomes):
        raise ValueError("channel rows must be indexed by the experiment outcomes")
    _check_markov(channel)
    if outcome_labels is None:
        if channel.cols == len(e.outcomes):
            outcome_labels = e.outcomes
        else:
            outcome_labels = tuple(f"g{j}" for j in range(channel.cols))
    return Experiment(e.parameters, tuple(outcome_labels), e.kernel @ channel)


def replacement_garbling_channel(
    replacement: Sequence[Fraction], noise: Fraction
) -> Matrix:
    """Channel keeping the outcome with probability 1-noise, else redrawing it.

    The redraw follows ``replacement``; with the uniform replacement this is
    the uniform-noise channel ``(1-noise) I + (noise/n) J``.
    """
    noise = Fraction(noise)
    if not 0 <= noise < 1:
        raise ValueError("noise probability must lie in [0, 1)")
    probs = [Fraction(p) for p in replacement]
    if any(p < 0 for p in probs) or sum(probs, _ZERO) != 1:
        raise ValueError("replacement distribution must be a probability vector")
    n = len(probs)
    return Matrix.from_rows(
        [
            [
                (1 - noise) * (_ONE if i == j else _ZERO) + noise * probs[j]
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def replacement_garbling_channel_inverse(
    replacement: Sequence[Fraction], noise: Fraction
) -> Matrix:
    """Closed-form inverse of the replacement channel.

    With P the rank-one Markov matrix whose rows all equal ``replacement``,
    the channel is (1-noise) I + noise P and P is idempotent, so the inverse
    is (I - noise P) / (1-noise).
    """
    noise = Fraction(noise)
    if not 0 <= noise < 1:
        raise ValueError("noise probability must lie in [0, 1)")
    probs = [Fraction(p) for p in replacement]
    n = len(probs)
    scale = 1 / (1 - noise)
    return Matrix.from_rows(
        [
            [
                scale * ((_ONE if i == j else _ZERO) - noise * probs[j])
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


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
    if len(p.weights) != len(e.parameters):
        raise ValueError("belief length does not match the parameter set")
    return e.kernel.left_mul_vec(p.weights)


def is_identified(e: Experiment) -> bool:
    """True when distinct parameters induce distinct kernel rows."""
    rows = {e.kernel.row(i) for i in range(len(e.parameters))}
    return len(rows) == len(e.parameters)


def is_complete(e: Experiment) -> bool:
    """True when every outcome distribution is a belief's mean outcome distribution.

    The achievable distributions form the convex hull of the kernel rows, so
    it suffices that every vertex of the outcome simplex is achievable; each
    vertex is one feasibility problem over beliefs.
    """
    n = len(e.parameters)
    m = len(e.outcomes)
    transposed = e.kernel.transpose()  # one equality per outcome coordinate
    ones_row = Matrix.from_rows([[1] * n])
    system = Matrix(
        m + 1, n, transposed.entries + ones_row.entries
    )
    for target in range(m):
        rhs = [_ONE if j == target else _ZERO for j in range(m)] + [_ONE]
        if lp_feasible(system, rhs) is None:
            return False
    return True


def belief_grid(n_parameters: int, denominator: int) -> tuple[Belief, ...]:
    """All beliefs whose weights are multiples of 1/denominator.

    Enumerated in lexicographic order of the weight tuples; deterministic, so
    grid-based checks and reported witnesses are reproducible.
    """
    if denominator < 1:
        raise ValueError("denominator must be at least 1")

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    return tuple(
        Belief(tuple(Fraction(k, denominator) for k in combo))
        for combo in compositions(denominator, n_parameters)
    )


def require_keys(doc: object, keys: Iterable[str], what: str) -> None:
    """Raise ValueError unless ``doc`` is a JSON object holding every key."""
    if not isinstance(doc, Mapping):
        raise ValueError(f"{what} must be a JSON object")
    missing = set(keys) - set(doc)
    if missing:
        raise ValueError(f"{what} missing keys: {sorted(missing)}")


def require_list(value: object, what: str) -> Sequence:
    """Return ``value`` unless it is not a JSON list, else raise ValueError."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a JSON list")
    return value


def load_experiment(doc: Mapping) -> Experiment:
    """Build a validated experiment from its JSON document.

    Schema: ``{"parameters": [...], "outcomes": [...], "kernel": [[...]]}``
    with kernel rows in parameter order and entries as rational strings.
    """
    require_keys(doc, ("parameters", "outcomes", "kernel"), "experiment document")
    parameters = tuple(str(x) for x in require_list(doc["parameters"], "parameters"))
    outcomes = tuple(str(x) for x in require_list(doc["outcomes"], "outcomes"))
    kernel_doc = doc["kernel"]
    if not isinstance(kernel_doc, Sequence) or len(kernel_doc) != len(parameters):
        raise ValueError("kernel must have one row per parameter")
    return Experiment(parameters, outcomes, Matrix.from_rows(kernel_doc))


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
    covariates = tuple(str(x) for x in require_list(covariates_doc, "covariates"))
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
