"""What an experiment lets you elicit.

A statistic family represents an information partition intensionally: two
beliefs fall in the same cell exactly when every member statistic has the
same mean under both. Cells are therefore translated linear spaces, and all
elicitability questions reduce to exact linear algebra over the kernel:

* a statistic's mean is elicitable from one observation iff some outcome
  weighting is an unbiased estimator of it, i.e. the statistic lies in the
  span of the kernel columns;
* products of unbiased weightings over independent observations estimate
  powers and mixed moments;
* the full belief is recoverable iff the kernel columns span everything,
  and never needs more than (number of parameters - 1) observations;
* mode (and median) reports are strictly harder: they are elicitable only
  when the full belief already is.

Failures come with machine-checkable witnesses: a pair of beliefs that no
outcome-contingent payment can separate but whose target values differ.
Every such pair steps from uniform along one integer annihilator vector of
the kernel columns' span, which the experiment keeps (``Experiment.span``, an
``exactcore.Span`` built by one elimination); ``Span.outside`` answers every
"no" with no ``Fraction`` null space or rank of the kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .exactcore import (
    Matrix,
    Span,
    _scaled_ints,
    determinant,
    format_rational,
    kron,
    parse_rational,
    rank,
    require_distinct,
    require_exact,
    require_int,
    require_keys,
    require_labels,
    require_length,
    require_list,
    require_tuple,
    require_vector,
    solve_linear,
)
from .model import Belief, Experiment, is_identified, power, require_product_size

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class StatisticFamily:
    """A finite family of real statistics of the parameter.

    Each function is a rational vector indexed by the parameters. The family
    induces the partition in which two beliefs are indistinguishable iff all
    member means agree; the empty family induces the trivial partition.
    """

    parameters: tuple[str, ...]
    functions: tuple[tuple[Fraction, ...], ...]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        require_tuple(self.parameters, "parameter labels", str)
        for g in require_tuple(self.functions, "statistic functions", tuple):
            require_length(len(g), len(self.parameters), "statistic length", "parameter set")
            require_exact(g, "statistic entries")
        if self.labels is not None:
            labels = require_tuple(self.labels, "labels", str)
            require_length(len(labels), len(self.functions), "label count", "functions")

    @cached_property
    def _ints(self) -> list[list[int]]:
        """The functions as integer rows over one scale, built on first use."""
        return _scaled_ints(self.functions)[0]


@dataclass(frozen=True)
class ElicitabilityReport:
    """Outcome of an unbiased-weights query.

    Exactly one of ``weights`` (success) and ``witness`` (failure) is
    present. A failure witness is a pair of beliefs with identical mean
    outcome distributions but different target means, certifying that no
    mechanism for the experiment separates them.
    """

    elicitable: bool
    weights: Optional[tuple[Fraction, ...]] = None
    witness: Optional[tuple[Belief, Belief]] = None

    def __post_init__(self) -> None:
        require_exact(() if self.weights is None else self.weights, "weights")
        if self.elicitable and (self.weights is None or self.witness is not None):
            raise ValueError("a positive report carries weights only")
        if not self.elicitable and (self.witness is None or self.weights is not None):
            raise ValueError("a negative report carries a witness only")


@dataclass(frozen=True)
class ModeReport:
    """Mode/median elicitability answer with an optional impossibility witness.

    When not elicitable, the witness beliefs share a mean outcome
    distribution while their sets of modal parameters (index sets) are
    disjoint, so no mechanism can reward correct mode reports.
    """

    elicitable: bool
    witness: Optional[tuple[Belief, Belief]] = None
    witness_modes: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None


@dataclass(frozen=True)
class VandermondeCertificate:
    """Constructive proof that n-1 observations recover the full belief.

    ``statistic`` is injective over parameters and unbiasedly estimated by
    ``outcome_weights``; its powers up to n-1 are estimated on the product
    experiment, and the power-map matrix (a Vandermonde matrix in the
    statistic values) having nonzero determinant pins the belief down.
    """

    statistic: tuple[Fraction, ...]
    outcome_weights: tuple[Fraction, ...]
    copies: int
    vandermonde: Matrix
    determinant: Fraction
    product_full_belief_elicitable: bool


@dataclass(frozen=True)
class CompleteElicitationReport:
    full_belief_elicitable: bool
    min_copies_bound: int
    impossible_by_dimension: bool
    vandermonde_certificate: Optional[VandermondeCertificate]


def maximal_partition(e: Experiment) -> StatisticFamily:
    """The finest partition any mechanism for the experiment can elicit.

    Its statistics are the kernel columns (outcome probabilities as functions
    of the parameter): two beliefs are indistinguishable iff they induce the
    same mean outcome distribution.
    """
    return StatisticFamily(
        parameters=e.parameters,
        functions=tuple(e.kernel.col(j) for j in range(len(e.outcomes))),
        labels=e.outcomes,
    )


def statistic_mean(g: Sequence[Fraction], p: Belief) -> Fraction:
    require_length(len(g), len(p.weights), "statistic length", "belief")
    return sum((gi * wi for gi, wi in zip(g, p.weights)), _ZERO)


def indistinguishable(family: StatisticFamily, p: Belief, q: Belief) -> bool:
    """True when every statistic in the family has equal means under p and q."""
    for weights in (p.weights, q.weights):
        require_length(len(weights), len(family.parameters), "belief length", "family's parameters")
    diff = [a - b for a, b in zip(p.weights, q.weights)]
    return all(
        sum((gi * di for gi, di in zip(g, diff)), _ZERO) == 0
        for g in family.functions
    )


def is_coarser(coarse: StatisticFamily, fine: StatisticFamily) -> bool:
    """True when the first family's partition is (weakly) coarser.

    Equivalent to every coarse statistic lying in the span of the fine
    statistics together with the constant function: any belief pair the fine
    family cannot separate then agrees on every coarse statistic too.
    """
    if coarse.parameters != fine.parameters:
        raise ValueError("families must share the parameter set")
    n = len(fine.parameters)
    return Span.of([*fine._ints, [1] * n], n).outside(coarse._ints) is None


def _indistinguishable_witness(direction: Sequence[int]) -> tuple[Belief, Belief]:
    """Belief pair uniform +/- a*direction, strictly inside the simplex.

    ``direction`` must annihilate the kernel columns (then it sums to zero,
    since the columns sum to the constant 1), so both beliefs induce the same
    mean outcome distribution. ``a`` is half the largest feasible step, which
    keeps the pair off the boundary and deterministic; a*direction is the
    same for every positive multiple of the direction.
    """
    u = Fraction(1, len(direction))
    alpha = min(u / abs(v) for v in direction if v) / 2
    plus = Belief(tuple(u + alpha * v for v in direction))
    minus = Belief(tuple(u - alpha * v for v in direction))
    return plus, minus


def unbiased_weights(e: Experiment, statistic: Sequence[Fraction]) -> ElicitabilityReport:
    """Outcome weights whose kernel average reproduces the statistic exactly.

    The statistic's mean is elicitable iff it lies in the kernel columns'
    kept span (``Experiment.span``). The first annihilator vector it is not
    orthogonal to builds the report's witness belief pair with no
    elimination; otherwise one solve of ``kernel @ w == statistic`` does.
    """
    g = require_vector(statistic, "statistic")
    require_length(len(g), len(e.parameters), "statistic length", "parameter set")
    if (v := e.span.outside([g])) is not None:
        return ElicitabilityReport(elicitable=False, witness=_indistinguishable_witness(v))
    solution = solve_linear(e.kernel, [g])[0]
    if solution is None:  # g is orthogonal to every annihilator vector, so spanned
        raise RuntimeError("inconsistent solve/null-space answers; invariant broken")
    return ElicitabilityReport(elicitable=True, weights=solution)


def moment_weights(
    e: Experiment, copies: int, statistic: Sequence[Fraction], exponent: int
) -> ElicitabilityReport:
    """Weights on the product of ``copies`` observations estimating a power.

    The ``kron`` product of the single-observation unbiased weights over the
    first ``exponent`` coordinates (constant 1 on the rest), so its outcomes
    line up with ``power(e, copies)``; by independence the kernel average is
    the statistic raised to ``exponent``. Fixing the leading coordinates
    makes the output canonical; any choice of coordinates would be unbiased
    by exchangeability. A failed base solve is propagated unchanged, witness
    and all. A product past ``model.MAX_PRODUCT_OUTCOMES`` outcomes raises
    ValueError before any work.
    """
    # the exponent-th power needs at least that many independent copies
    require_int(copies, "copies", require_int(exponent, "exponent", 0))
    require_product_size(itertools.repeat(len(e.outcomes), copies))
    base = unbiased_weights(e, statistic)
    if not base.elicitable:
        return base
    ones = (_ONE,) * len(e.outcomes)
    weights = kron([base.weights] * exponent + [ones] * (copies - exponent))
    return ElicitabilityReport(elicitable=True, weights=tuple(weights))


def mode_elicitable(e: Experiment, parameter_values: Sequence[Fraction]) -> ModeReport:
    """Whether correct mode reports can be strictly rewarded.

    The mode is elicitable iff the whole belief already is, that is, iff the
    experiment's span has no annihilator vector (rank K = n). Otherwise
    its first annihilator vector yields two beliefs around uniform
    that no mechanism separates. Their modal index sets (where the direction
    peaks and where it bottoms out) are disjoint, so their modes provably
    differ under any distinct real parameter values. The median has the same answer: the
    criterion and the witness pair are the same.
    """
    values = require_vector(parameter_values, "parameter values")
    require_length(len(values), len(e.parameters), "parameter value count", "parameter set")
    require_distinct(values, "parameter values")
    if not e.span.annihilator:  # rank K = n: the full belief is elicitable
        return ModeReport(elicitable=True)
    plus, minus = _indistinguishable_witness(e.span.annihilator[0])
    return ModeReport(False, (plus, minus), (plus.modes(), minus.modes()))


def _injective_statistic(e: Experiment) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """An injective statistic inside the kernel-column span, with its weights.

    Tries weight vectors (1, t, t^2, ...) over outcomes for t = 1, 2, ...;
    for an identified experiment each parameter pair disagrees on some
    outcome, so only finitely many t produce collisions and the scan
    terminates. The scan order makes the output canonical.
    """
    m = len(e.outcomes)
    t = 1
    while True:
        weights = tuple(Fraction(t) ** j for j in range(m))
        g = e.kernel.mul_vec(weights)
        if len(set(g)) == len(g):
            return g, weights
        t += 1


def complete_elicitation(e: Experiment) -> CompleteElicitationReport:
    """Can the full belief be elicited, and with how many observations?

    One observation suffices iff the kernel has rank n, the number of
    parameters, that is, iff the experiment's span has no annihilator
    vector; with fewer outcomes than parameters that is impossible
    by dimension count. For an identified experiment, a certificate is built:
    an injective statistic from the kernel-column span whose first n-1
    powers, estimated on the (n-1)-fold product, determine the belief through
    an invertible Vandermonde matrix. n-1 observations are thus always
    enough.

    The (n-1)-fold power is materialised and rank-checked only for a
    rank-deficient kernel at desk scale. Otherwise the Vandermonde
    determinant decides; for a full-rank kernel it is nonzero, as rank K = n
    already forces full rank on the product.
    """
    n = len(e.parameters)
    m = len(e.outcomes)
    single = not e.span.annihilator
    impossible = m < n
    if not is_identified(e):
        return CompleteElicitationReport(single, n - 1, impossible, None)
    statistic, outcome_weights = _injective_statistic(e)
    copies = n - 1
    vandermonde = Matrix.from_rows(
        [[statistic[i] ** k for i in range(n)] for k in range(n)]
    )
    det = determinant(vandermonde)
    if not single and n * m**copies <= 20_000:
        # desk scale: materialize the product kernel and rank-check directly.
        # A full-rank kernel skips this: summed over the other draws, the
        # power's columns are K's columns, so rank K = n forces rank n.
        product_ok = rank(power(e, copies).kernel) == n
    else:
        # the power map factors through the product's mean outcome
        # distribution, so an invertible power map forces full rank
        product_ok = det != 0
    certificate = VandermondeCertificate(
        statistic=statistic,
        outcome_weights=outcome_weights,
        copies=copies,
        vandermonde=vandermonde,
        determinant=det,
        product_full_belief_elicitable=product_ok,
    )
    return CompleteElicitationReport(single, n - 1, impossible, certificate)


def load_statistic_family(doc: Mapping) -> StatisticFamily:
    """Schema: ``{"parameters": [...], "functions": {name: [...], ...}}``."""
    require_keys(doc, ("parameters", "functions"), "statistic family document")
    require_keys(doc["functions"], (), "statistic family functions")
    parameters = require_labels(doc["parameters"], "parameters")
    labels = tuple(str(name) for name in doc["functions"])
    functions = tuple(
        tuple(parse_rational(x) for x in require_list(g, f"function {name!r}"))
        for name, g in doc["functions"].items()
    )
    return StatisticFamily(parameters, functions, labels)


def statistic_family_to_doc(family: StatisticFamily) -> dict:
    labels = family.labels or tuple(f"g{i}" for i in range(len(family.functions)))
    return {
        "parameters": list(family.parameters),
        "functions": {
            label: [format_rational(x) for x in g]
            for label, g in zip(labels, family.functions)
        },
    }
