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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .exactcore import (
    Matrix,
    determinant,
    format_rational,
    null_space_basis,
    parse_rational,
    rank,
    solve_linear,
)
from .model import Belief, Experiment, is_identified, power, require_keys, require_list

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
        for g in self.functions:
            if len(g) != len(self.parameters):
                raise ValueError("statistic length does not match the parameter set")
        if self.labels is not None and len(self.labels) != len(self.functions):
            raise ValueError("labels must align with functions")


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
    if len(g) != len(p.weights):
        raise ValueError("statistic length does not match the belief")
    return sum((gi * wi for gi, wi in zip(g, p.weights)), _ZERO)


def indistinguishable(family: StatisticFamily, p: Belief, q: Belief) -> bool:
    """True when every statistic in the family has equal means under p and q."""
    if len(p.weights) != len(family.parameters) or len(q.weights) != len(
        family.parameters
    ):
        raise ValueError("belief length does not match the family's parameter set")
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
    if not coarse.functions:
        return True
    n = len(fine.parameters)
    span_cols = list(fine.functions) + [(_ONE,) * n]
    span_matrix = Matrix.from_cols(span_cols)
    return all(solve_linear(span_matrix, g) is not None for g in coarse.functions)


def _indistinguishable_witness(
    e: Experiment, direction: Sequence[Fraction]
) -> tuple[Belief, Belief]:
    """Belief pair uniform +/- a*direction, strictly inside the simplex.

    ``direction`` must annihilate the kernel columns (then it sums to zero,
    since the columns sum to the constant 1), so both beliefs induce the same
    mean outcome distribution. ``a`` is half the largest feasible step, which
    keeps the pair off the boundary and deterministic.
    """
    n = len(e.parameters)
    u = Fraction(1, n)
    step = min(u / abs(v) for v in direction if v != 0)
    alpha = step / 2
    plus = Belief(tuple(u + alpha * v for v in direction))
    minus = Belief(tuple(u - alpha * v for v in direction))
    return plus, minus


def unbiased_weights(e: Experiment, statistic: Sequence[Fraction]) -> ElicitabilityReport:
    """Outcome weights whose kernel average reproduces the statistic exactly.

    Solves ``kernel @ w == statistic``. When no solution exists the
    statistic's mean is not elicitable, and the report carries a witness
    belief pair built from a kernel-transpose null direction.
    """
    g = [Fraction(x) for x in statistic]
    if len(g) != len(e.parameters):
        raise ValueError("statistic length does not match the parameter set")
    solution = solve_linear(e.kernel, g)
    if solution is not None:
        return ElicitabilityReport(elicitable=True, weights=solution)
    basis = null_space_basis(e.kernel.transpose())
    direction = next(
        (
            v
            for v in basis
            if sum((gi * vi for gi, vi in zip(g, v)), _ZERO) != 0
        ),
        None,
    )
    if direction is None:  # solve failed, so some null direction must separate g
        raise RuntimeError("inconsistent solve/null-space answers; invariant broken")
    return ElicitabilityReport(
        elicitable=False, witness=_indistinguishable_witness(e, direction)
    )


def moment_weights(
    e: Experiment, copies: int, statistic: Sequence[Fraction], exponent: int
) -> ElicitabilityReport:
    """Weights on the product of ``copies`` observations estimating a power.

    Multiplies the single-observation unbiased weights over the first
    ``exponent`` coordinates (constant 1 on the rest); by independence the
    kernel average is the statistic raised to ``exponent``. Fixing the
    leading coordinates makes the output canonical; any choice of coordinates
    would be unbiased by exchangeability. A failed base solve is propagated
    unchanged, witness and all.
    """
    if copies < 0 or not 0 <= exponent <= copies:
        raise ValueError("need 0 <= exponent <= copies")
    base = unbiased_weights(e, statistic)
    if not base.elicitable:
        return base
    w = base.weights
    m = len(e.outcomes)
    out: list[Fraction] = []
    for combo in itertools.product(range(m), repeat=copies):
        value = _ONE
        for j in range(exponent):
            value *= w[combo[j]]
        out.append(value)
    return ElicitabilityReport(elicitable=True, weights=tuple(out))


def _full_belief_recoverable(e: Experiment) -> bool:
    # Kernel-transpose null directions automatically sum to zero (the columns
    # sum to the constant 1), so triviality of the kernel row space's
    # annihilator is a plain rank condition.
    return rank(e.kernel) == len(e.parameters)


def mode_elicitable(
    e: Experiment, parameter_values: Sequence[Fraction]
) -> ModeReport:
    """Whether correct mode reports can be strictly rewarded.

    The mode is elicitable iff the whole belief already is (a plain rank
    condition). Otherwise any kernel-transpose null direction yields two
    beliefs around uniform that no mechanism separates, whose modal index
    sets (argmax of +/- the direction) are disjoint, so their modes provably
    differ under any distinct real parameter values. The median has the same
    answer: the rank criterion and the witness pair are the same.
    """
    values = [Fraction(v) for v in parameter_values]
    if len(values) != len(e.parameters):
        raise ValueError("parameter values must align with the parameter set")
    if len(set(values)) != len(values):
        raise ValueError("parameter values must be distinct")
    if _full_belief_recoverable(e):
        return ModeReport(elicitable=True)
    direction = null_space_basis(e.kernel.transpose())[0]
    plus, minus = _indistinguishable_witness(e, direction)
    top = max(direction)
    bottom = min(direction)
    high = tuple(i for i, v in enumerate(direction) if v == top)
    low = tuple(i for i, v in enumerate(direction) if v == bottom)
    return ModeReport(
        elicitable=False, witness=(plus, minus), witness_modes=(high, low)
    )


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

    One observation suffices iff the kernel has full row-population rank;
    with fewer outcomes than parameters that is impossible by dimension
    count. For an identified experiment, a certificate is built: an injective
    statistic from the kernel-column span whose first n-1 powers, estimated
    on the (n-1)-fold product, determine the belief through an invertible
    Vandermonde matrix. n-1 observations are thus always enough.
    """
    n = len(e.parameters)
    m = len(e.outcomes)
    single = _full_belief_recoverable(e)
    impossible = m < n
    if not is_identified(e):
        return CompleteElicitationReport(single, n - 1, impossible, None)
    statistic, outcome_weights = _injective_statistic(e)
    copies = n - 1
    vandermonde = Matrix.from_rows(
        [[statistic[i] ** k for i in range(n)] for k in range(n)]
    )
    det = determinant(vandermonde)
    if n * m**copies <= 20_000:
        # desk scale: materialize the product kernel and rank-check directly
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
    parameters = tuple(str(x) for x in require_list(doc["parameters"], "parameters"))
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
