"""Payment mechanisms and their exact verification.

A mechanism maps (report, outcome) to a rational payoff. Direct mechanisms
take a belief as the report; the mean-score mechanism takes a scalar. All
expected payoffs are computed exactly by enumeration, never by sampling, so
incentive properties are decided, not estimated:

* the quadratic panel scores the reported mean outcome distribution against
  the realized outcome, one squared term per outcome; truthful reporting is
  optimal and strictly beats any report with a different mean outcome
  distribution;
* the mean-score mechanism turns unbiased outcome weights into a strictly
  proper quadratic score for a statistic's mean;
* compound mechanisms apply a per-covariate sub-mechanism to mixture
  outcomes;
* pushforward and the level-set transform transport a table mechanism along
  a dominance witness, preserving expected payoffs belief by belief (the
  level-set version also preserves the [0, 1] payoff range).

``ic_verify`` is the brute-force oracle: it enumerates an exact belief grid
and asserts weak incentive compatibility everywhere, strict gaps exactly on
target-distinguishable pairs, and indifference inside cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Mapping, Optional, Sequence, Union

from .exactcore import Matrix, format_rational, parse_rational
from .elicit import StatisticFamily, statistic_mean
from .model import (
    Belief,
    CovariateMixture,
    Experiment,
    belief_grid,
    experiment_to_doc,
    load_experiment,
    load_mixture,
    mean_outcome_distribution,
    mixture,
    mixture_to_doc,
    require_keys,
    require_list,
)
from .orders import EventWeightMatrix

_ZERO = Fraction(0)
_ONE = Fraction(1)

Report = Union[Belief, Fraction, str, int]


class Mechanism:
    """Common surface: exact payoffs, expected payoffs, report plumbing."""

    kind: str = "abstract"
    experiment: Experiment

    def payoff(self, report: Report, outcome: Union[int, str]) -> Fraction:
        raise NotImplementedError

    def payoff_vector(self, report: Report) -> tuple[Fraction, ...]:
        """Payoffs across all outcomes for one report."""
        return tuple(
            self.payoff(report, y) for y in range(len(self.experiment.outcomes))
        )

    def report_for_belief(self, p: Belief) -> Report:
        """The report a truthful analyst holding belief p submits."""
        raise ValueError(f"{self.kind} mechanism has no belief-to-report rule")

    def payoff_range(self) -> Optional[tuple[Fraction, Fraction]]:
        """Certified payoff bounds, when statically known."""
        return None

    def _outcome_index(self, outcome: Union[int, str]) -> int:
        if isinstance(outcome, str):
            return self.experiment.outcome_index(outcome)
        if not 0 <= outcome < len(self.experiment.outcomes):
            raise ValueError(f"outcome index {outcome} out of range")
        return outcome


def evaluate(m: Mechanism, report: Report, outcome: Union[int, str]) -> Fraction:
    """Exact payoff of one (report, outcome) pair."""
    return m.payoff(report, outcome)


def expected_payoff(m: Mechanism, belief: Belief, report: Report) -> Fraction:
    """Expected payoff under a belief: outcome-distribution-weighted payoffs."""
    lam = mean_outcome_distribution(m.experiment, belief)
    vec = m.payoff_vector(report)
    return sum((li * vi for li, vi in zip(lam, vec)), _ZERO)


class QuadraticPanelMechanism(Mechanism):
    """Brier-style panel over singleton outcome events.

    The report is a full belief p; the payoff on outcome y is
    ``1 - sum_y' weight(y') * (lambda_p(y') - 1{y'=y})^2`` where lambda_p is
    the reported belief's mean outcome distribution. With positive weights
    summing to 1, payoffs stay in [0, 1], truthful reporting is optimal, and
    the expected score strictly drops whenever the reported mean outcome
    distribution differs from the believed one.
    """

    kind = "quadratic_panel"

    def __init__(
        self,
        experiment: Experiment,
        event_weights: Optional[Sequence[Fraction]] = None,
    ) -> None:
        m = len(experiment.outcomes)
        if event_weights is None:
            event_weights = [Fraction(1, m)] * m
        weights = tuple(Fraction(w) for w in event_weights)
        if len(weights) != m:
            raise ValueError("one event weight per outcome is required")
        if any(w <= 0 for w in weights) or sum(weights, _ZERO) != 1:
            raise ValueError("event weights must be positive and sum to 1")
        self.experiment = experiment
        self.event_weights = weights

    def report_for_belief(self, p: Belief) -> Belief:
        return p

    def payoff(self, report: Report, outcome: Union[int, str]) -> Fraction:
        y = self._outcome_index(outcome)
        return self.payoff_vector(report)[y]

    def payoff_vector(self, report: Report) -> tuple[Fraction, ...]:
        if not isinstance(report, Belief):
            raise ValueError("a direct mechanism takes a belief as the report")
        return self.payoff_vector_for_distribution(
            mean_outcome_distribution(self.experiment, report)
        )

    def payoff_vector_for_distribution(
        self, lam: Sequence[Fraction]
    ) -> tuple[Fraction, ...]:
        m = len(self.experiment.outcomes)
        base = sum(
            (w * l * l for w, l in zip(self.event_weights, lam)), _ZERO
        )
        out = []
        for y in range(m):
            # (lam - 1{y})^2 expands to lam^2 + 1 - 2 lam on the realized event
            penalty = base + self.event_weights[y] * (1 - 2 * lam[y])
            out.append(_ONE - penalty)
        return tuple(out)

    def payoff_range(self) -> tuple[Fraction, Fraction]:
        return (_ZERO, _ONE)


class MeanScoreMechanism(Mechanism):
    """Strictly proper quadratic score for the mean of one statistic.

    ``weights`` must satisfy ``kernel @ weights == statistic``, so the
    weighted outcome is an unbiased estimate of the statistic. The report is
    the scalar mean estimate mu. Two payoff shapes are supported; both are
    maximized exactly at the believed mean, and a report nu costs
    (mu - nu)^2 in expectation relative to the truth:

    * "brier": ``1 - (mu - w(y))^2``
    * "linear": ``2 mu w(y) - mu^2``
    """

    kind = "mean_score"

    def __init__(
        self,
        experiment: Experiment,
        statistic: Sequence[Fraction],
        weights: Sequence[Fraction],
        variant: str = "brier",
        check_unbiased: bool = True,
    ) -> None:
        if variant not in ("brier", "linear"):
            raise ValueError("variant must be 'brier' or 'linear'")
        statistic = tuple(Fraction(x) for x in statistic)
        weights = tuple(Fraction(x) for x in weights)
        if len(statistic) != len(experiment.parameters):
            raise ValueError("statistic length does not match the parameter set")
        if len(weights) != len(experiment.outcomes):
            raise ValueError("weights length does not match the outcome set")
        if check_unbiased and experiment.kernel.mul_vec(weights) != statistic:
            raise ValueError("weights are not unbiased for the statistic")
        self.experiment = experiment
        self.statistic = statistic
        self.weights = weights
        self.variant = variant

    def report_for_belief(self, p: Belief) -> Fraction:
        return statistic_mean(self.statistic, p)

    def payoff(self, report: Report, outcome: Union[int, str]) -> Fraction:
        y = self._outcome_index(outcome)
        try:
            mu = Fraction(report)
        except TypeError:
            raise ValueError(
                "a mean-score mechanism takes a scalar mean estimate as the report"
            ) from None
        w = self.weights[y]
        if self.variant == "brier":
            return _ONE - (mu - w) ** 2
        return 2 * mu * w - mu * mu


class TableMechanism(Mechanism):
    """Finitely many reports with explicitly tabulated payoffs.

    When the table was produced by freezing a direct mechanism over a belief
    menu, ``report_beliefs`` remembers which belief each report stands for,
    so belief-based checks still apply; the mapping is a session construct
    and is not serialized.
    """

    kind = "table"

    def __init__(
        self,
        experiment: Experiment,
        reports: Sequence[str],
        payoffs: Matrix,
        report_beliefs: Optional[Sequence[Belief]] = None,
    ) -> None:
        if len(set(reports)) != len(reports):
            raise ValueError("duplicate report labels")
        if payoffs.rows != len(reports) or payoffs.cols != len(experiment.outcomes):
            raise ValueError("payoff table shape must be reports x outcomes")
        if report_beliefs is not None and len(report_beliefs) != len(reports):
            raise ValueError("one belief per report label is required")
        self.experiment = experiment
        self.reports = tuple(reports)
        self.payoffs = payoffs
        self.report_beliefs = None if report_beliefs is None else tuple(report_beliefs)

    def report_for_belief(self, p: Belief) -> str:
        if self.report_beliefs is None:
            raise ValueError("table mechanism has no belief-to-report rule")
        try:
            return self.reports[self.report_beliefs.index(p)]
        except ValueError:
            raise ValueError("belief is not on the tabulated report menu") from None

    def report_index(self, report: Report) -> int:
        if isinstance(report, str):
            try:
                return self.reports.index(report)
            except ValueError:
                raise ValueError(f"unknown report {report!r}") from None
        if isinstance(report, int) and 0 <= report < len(self.reports):
            return report
        raise ValueError(f"unknown report {report!r}")

    def payoff(self, report: Report, outcome: Union[int, str]) -> Fraction:
        return self.payoffs.at(self.report_index(report), self._outcome_index(outcome))

    def payoff_vector(self, report: Report) -> tuple[Fraction, ...]:
        return self.payoffs.row(self.report_index(report))

    def payoff_range(self) -> tuple[Fraction, Fraction]:
        return (min(self.payoffs.entries), max(self.payoffs.entries))


class PushforwardMechanism(TableMechanism):
    """Table mechanism obtained by pushing payoffs along a factorization."""

    kind = "pushforward"

    def __init__(
        self,
        experiment: Experiment,
        base: TableMechanism,
        matrix: Matrix,
        payoffs: Matrix,
    ) -> None:
        super().__init__(experiment, base.reports, payoffs, base.report_beliefs)
        self.base = base
        self.matrix = matrix


class CompoundMechanism(Mechanism):
    """Per-covariate sub-mechanisms glued over a mixture experiment.

    On outcome (x, y) the payoff is covariate x's sub-mechanism payoff at y;
    incentives aggregate across covariates with the mixture weights, so a
    pair of beliefs separated by any positive-weight covariate's elicitable
    information earns a strict gap overall.
    """

    kind = "compound"

    def __init__(
        self, mixture_spec: CovariateMixture, subs: Sequence[Mechanism]
    ) -> None:
        if len(subs) != len(mixture_spec.covariates):
            raise ValueError("one sub-mechanism per covariate is required")
        for sub, comp in zip(subs, mixture_spec.components):
            if sub.experiment != comp:
                raise ValueError(
                    "sub-mechanism experiment must match its mixture component"
                )
            bounds = sub.payoff_range()
            if bounds is None or bounds[0] < 0 or bounds[1] > 1:
                raise ValueError("sub-mechanism payoffs must be certified in [0, 1]")
        self.mixture = mixture_spec
        self.subs = tuple(subs)
        self.experiment = mixture(mixture_spec)

    def report_for_belief(self, p: Belief) -> Belief:
        return p

    def payoff(self, report: Report, outcome: Union[int, str]) -> Fraction:
        return self.payoff_vector(report)[self._outcome_index(outcome)]

    def payoff_vector(self, report: Report) -> tuple[Fraction, ...]:
        """Each covariate's sub-mechanism payoffs, in covariate order."""
        if not isinstance(report, Belief):
            raise ValueError("a direct mechanism takes a belief as the report")
        return tuple(x for sub in self.subs for x in sub.payoff_vector(report))

    def payoff_range(self) -> tuple[Fraction, Fraction]:
        return (_ZERO, _ONE)


def quadratic_mechanism(
    e: Experiment, event_weights: Optional[Sequence[Fraction]] = None
) -> QuadraticPanelMechanism:
    """Direct mechanism eliciting the mean outcome distribution exactly."""
    return QuadraticPanelMechanism(e, event_weights)


def mean_mechanism(
    e: Experiment,
    statistic: Sequence[Fraction],
    weights: Sequence[Fraction],
    variant: str = "brier",
    check_unbiased: bool = True,
) -> MeanScoreMechanism:
    """Scalar-report mechanism whose optimal report is the statistic's mean."""
    return MeanScoreMechanism(e, statistic, weights, variant, check_unbiased)


def compound_mechanism(
    mixture_spec: CovariateMixture, subs: Sequence[Mechanism]
) -> CompoundMechanism:
    return CompoundMechanism(mixture_spec, subs)


def pushforward(
    base: TableMechanism, matrix: Matrix, experiment: Experiment
) -> PushforwardMechanism:
    """Transport a table mechanism along ``kernel_Y @ matrix == kernel_Z``.

    The new payoff on outcome y is the matrix-weighted combination of the
    base payoffs; whenever the factorization holds, expected payoffs agree
    with the base mechanism's for every belief and every report.
    """
    if matrix.rows != len(experiment.outcomes):
        raise ValueError("matrix rows must match the new experiment's outcomes")
    if matrix.cols != len(base.experiment.outcomes):
        raise ValueError("matrix columns must match the base experiment's outcomes")
    payoffs = base.payoffs @ matrix.transpose()
    return PushforwardMechanism(experiment, base, matrix, payoffs)


def _upper_level_decomposition(
    values: Sequence[Fraction],
) -> list[tuple[int, Fraction]]:
    """Write a [0,1] vector as a convex combination of set indicators.

    Sorting descending (ties by index) and differencing successive values
    yields weights on the nested upper-level sets, plus the leftover weight
    on the empty set. Returns (bitmask, weight) pairs with positive weight.
    """
    k = len(values)
    order = sorted(range(k), key=lambda z: (-values[z], z))
    out: list[tuple[int, Fraction]] = []
    top = values[order[0]] if k else _ZERO
    if _ONE - top > 0:
        out.append((0, _ONE - top))
    mask = 0
    for i, z in enumerate(order):
        mask |= 1 << z
        nxt = values[order[i + 1]] if i + 1 < k else _ZERO
        weight = values[z] - nxt
        if weight > 0:
            out.append((mask, weight))
    return out


def level_set_transform(
    base: TableMechanism,
    event_weights: EventWeightMatrix,
    experiment: Experiment,
) -> TableMechanism:
    """Transport a [0,1] table mechanism along an event-weight witness.

    Each report's payoff vector is decomposed over nested upper-level sets;
    the event weights then reassemble a payoff vector on the new experiment.
    Outputs stay in [0, 1] (convex combinations of [0, 1] entries), and
    expected payoffs match the base mechanism under every belief whenever the
    event-weight matrix satisfies its defining equalities.
    """
    lo, hi = base.payoff_range()
    if lo < 0 or hi > 1:
        raise ValueError("base payoffs must lie in [0, 1]")
    if event_weights.source_outcomes != experiment.outcomes:
        raise ValueError("event-weight rows must match the new experiment")
    if event_weights.target_outcomes != base.experiment.outcomes:
        raise ValueError("event-weight subsets must cover the base outcomes")
    ny = len(experiment.outcomes)
    rows: list[list[Fraction]] = []
    for r in range(len(base.reports)):
        decomposition = _upper_level_decomposition(base.payoffs.row(r))
        row = []
        for y in range(ny):
            row.append(
                sum(
                    (
                        weight * event_weights.entries.at(y, mask)
                        for mask, weight in decomposition
                    ),
                    _ZERO,
                )
            )
        rows.append(row)
    return TableMechanism(experiment, base.reports, Matrix.from_rows(rows))


def tabulate(
    m: Mechanism, beliefs: Sequence[Belief], labels: Optional[Sequence[str]] = None
) -> TableMechanism:
    """Freeze a mechanism's payoffs over a finite belief menu into a table."""
    if labels is None:
        labels = ["(" + ",".join(format_rational(w) for w in p.weights) + ")" for p in beliefs]
    rows = [list(m.payoff_vector(m.report_for_belief(p))) for p in beliefs]
    return TableMechanism(m.experiment, labels, Matrix.from_rows(rows), beliefs)


@dataclass(frozen=True)
class ICViolation:
    check: str  # "weak_ic", "strictness", or "indifference"
    belief: Belief
    deviation: Belief
    gap: Fraction


@dataclass(frozen=True)
class ICReport:
    """Verdict of the exhaustive incentive-compatibility oracle."""

    incentive_compatible: bool
    elicits_target: bool
    violation: Optional[ICViolation]
    grid_denominator: int
    pairs_checked: int

    def to_doc(self) -> dict:
        doc: dict = {
            "incentive_compatible": self.incentive_compatible,
            "elicits_target": self.elicits_target,
            "grid_denominator": self.grid_denominator,
            "pairs_checked": self.pairs_checked,
        }
        if self.violation is not None:
            doc["violation"] = {
                "check": self.violation.check,
                "belief": self.violation.belief.to_doc(),
                "deviation": self.violation.deviation.to_doc(),
                "gap": format_rational(self.violation.gap),
            }
        return doc


def _scaled_ints(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Rational rows as integers over their least common denominator."""
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows], scale


def _scaled_means(
    counts: Sequence[Sequence[int]], functions: Sequence[Sequence[Fraction]]
) -> tuple[list[tuple[int, ...]], int]:
    """Each count vector's weighted sums of the functions, as integers.

    For belief k/d the sums are its means of the functions times
    d * scale, the same positive factor for every belief.
    """
    scaled, scale = _scaled_ints(functions)
    return [tuple(sum(map(mul, k, g)) for g in scaled) for k in counts], scale


def _class_ids(keys: Sequence[tuple[int, ...]]) -> list[int]:
    """One small integer per distinct key, so equality tests compare ints."""
    ids: dict[tuple[int, ...], int] = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


def ic_verify(
    m: Mechanism,
    target: StatisticFamily,
    grid_denominator: int,
    max_pairs: int = 1_000_000,
) -> ICReport:
    """Enumerate all grid belief pairs and check incentives exactly.

    For every ordered pair (p, q) of beliefs with weights on the 1/d grid:

    * weak incentive compatibility: truth never loses to deviating to q;
    * strictness: if the target family separates p and q, truth wins
      strictly;
    * indifference: if p and q induce the same mean outcome distribution,
      the payoffs coincide exactly (payoffs can only respond to beliefs
      through that distribution).

    An indifference failure in one direction is a weak-IC failure in the
    other, so ``incentive_compatible`` covers both; the report carries the
    lexicographically first violating pair (beliefs ordered by their weight
    tuples, truth before deviation).

    Cost: the grid has G = C(d+n-1, n-1) beliefs for n parameters. The
    kernel, the payoff vectors and the target statistics are scaled once to
    integers, so belief p = k/d has mean outcome distribution k @ K_int over
    a common scale. For each belief one row of G integer expected payoffs
    is formed (m multiply-adds per entry for m outcomes), and every gap is
    a difference of two entries of that row; only the reported gap goes
    back to a Fraction. Memory is O(G*m) whatever the number of
    violations: only the first is kept. The scan stops at the first
    weak-IC or indifference violation, since nothing later can change the
    report; strictness violations alone do not stop it. ``pairs_checked``
    is always G(G-1). When G(G-1) exceeds ``max_pairs`` the call raises
    ``ValueError`` before enumerating anything.
    """
    if grid_denominator < 1:
        raise ValueError("grid denominator must be at least 1")
    e = m.experiment
    if target.parameters != e.parameters:
        raise ValueError("target family must share the experiment's parameters")
    n, d = len(e.parameters), grid_denominator
    size = math.comb(d + n - 1, n - 1)
    pairs = size * (size - 1)
    if pairs > max_pairs:
        raise ValueError(
            f"a denominator-{d} grid over {n} parameters has {size} beliefs and "
            f"{pairs} ordered pairs, above the cap of {max_pairs} (max_pairs)"
        )
    beliefs = belief_grid(n, d)
    counts = [[w.numerator * (d // w.denominator) for w in p.weights] for p in beliefs]
    # a belief's mean outcome distribution is its means of the kernel columns
    lambdas, kernel_scale = _scaled_means(
        counts, [e.kernel.col(y) for y in range(len(e.outcomes))]
    )
    vectors, payoff_scale = _scaled_ints(
        [m.payoff_vector(m.report_for_belief(p)) for p in beliefs]
    )
    lambda_ids = _class_ids(lambdas)
    target_ids = _class_ids(_scaled_means(counts, target.functions)[0])
    scale = d * kernel_scale * payoff_scale

    first: Optional[ICViolation] = None
    weak_ok = strict_ok = True
    for i, p in enumerate(beliefs):
        row = [sum(map(mul, lambdas[i], v)) for v in vectors]
        truth, lam_id, target_id = row[i], lambda_ids[i], target_ids[i]
        for j, value in enumerate(row):
            if value > truth:
                check = "weak_ic"
            elif value == truth:
                if target_ids[j] == target_id:
                    continue
                check = "strictness"
            elif lambda_ids[j] == lam_id:
                check = "indifference"
            else:
                continue
            if first is None:
                first = ICViolation(
                    check, p, beliefs[j], Fraction(truth - value, scale)
                )
            if check == "strictness":
                strict_ok = False
            else:
                weak_ok = False
                break
        if not weak_ok:
            break
    return ICReport(
        incentive_compatible=weak_ok,
        elicits_target=weak_ok and strict_ok,
        violation=first,
        grid_denominator=grid_denominator,
        pairs_checked=pairs,
    )


def value_function(
    m: Mechanism, belief: Belief, report_grid: Sequence[Report]
) -> Fraction:
    """Best expected payoff over a finite report menu."""
    if not report_grid:
        raise ValueError("report grid must be nonempty")
    return max(expected_payoff(m, belief, r) for r in report_grid)


@dataclass(frozen=True)
class EnvelopeReport:
    """Outcome of comparing two mechanisms' value functions on a grid.

    When the value functions agree everywhere on the grid, incentive
    compatibility forces all cross payoffs (believe p, report as q) to agree
    as well; when they differ the comparison is reported as not applicable.
    """

    values_agree: bool
    cross_payoffs_agree: Optional[bool]
    detail: str = ""


def envelope_check(
    m1: Mechanism, m2: Mechanism, beliefs: Sequence[Belief]
) -> EnvelopeReport:
    reports1 = [m1.report_for_belief(p) for p in beliefs]
    reports2 = [m2.report_for_belief(p) for p in beliefs]
    for i, p in enumerate(beliefs):
        v1 = max(expected_payoff(m1, p, r) for r in reports1)
        v2 = max(expected_payoff(m2, p, r) for r in reports2)
        if v1 != v2:
            return EnvelopeReport(
                values_agree=False,
                cross_payoffs_agree=None,
                detail=(
                    "value functions differ at belief "
                    f"({','.join(format_rational(w) for w in p.weights)}): "
                    f"{format_rational(v1)} vs {format_rational(v2)}"
                ),
            )
    for p in beliefs:
        for j in range(len(beliefs)):
            lhs = expected_payoff(m1, p, reports1[j])
            rhs = expected_payoff(m2, p, reports2[j])
            if lhs != rhs:
                return EnvelopeReport(
                    values_agree=True,
                    cross_payoffs_agree=False,
                    detail="cross payoffs differ despite equal value functions",
                )
    return EnvelopeReport(values_agree=True, cross_payoffs_agree=True)


def mechanism_to_doc(m: Mechanism) -> dict:
    """Kind-tagged JSON document for a mechanism."""
    if isinstance(m, QuadraticPanelMechanism):
        return {
            "kind": m.kind,
            "experiment": experiment_to_doc(m.experiment),
            "event_weights": [format_rational(w) for w in m.event_weights],
        }
    if isinstance(m, MeanScoreMechanism):
        return {
            "kind": m.kind,
            "experiment": experiment_to_doc(m.experiment),
            "statistic": [format_rational(x) for x in m.statistic],
            "weights": [format_rational(x) for x in m.weights],
            "variant": m.variant,
        }
    if isinstance(m, PushforwardMechanism):
        return {
            "kind": m.kind,
            "experiment": experiment_to_doc(m.experiment),
            "base": mechanism_to_doc(m.base),
            "matrix": m.matrix.to_doc(),
        }
    if isinstance(m, TableMechanism):
        return {
            "kind": m.kind,
            "experiment": experiment_to_doc(m.experiment),
            "reports": list(m.reports),
            "payoffs": m.payoffs.to_doc(),
        }
    if isinstance(m, CompoundMechanism):
        return {
            "kind": m.kind,
            "mixture": mixture_to_doc(m.mixture),
            "subs": {
                x: mechanism_to_doc(sub)
                for x, sub in zip(m.mixture.covariates, m.subs)
            },
        }
    raise ValueError(f"cannot serialize mechanism of kind {m.kind!r}")


_MECHANISM_KEYS = {
    "quadratic_panel": ("experiment",),
    "mean_score": ("experiment", "statistic", "weights"),
    "table": ("experiment", "reports", "payoffs"),
    "pushforward": ("base", "matrix", "experiment"),
    "compound": ("mixture", "subs"),
}


def _rationals(doc: Mapping, key: str) -> list[Fraction]:
    return [parse_rational(x) for x in require_list(doc[key], key)]


def load_mechanism(doc: Mapping) -> Mechanism:
    """Rebuild a mechanism from its kind-tagged JSON document."""
    require_keys(doc, ("kind",), "mechanism document")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _MECHANISM_KEYS:
        raise ValueError(f"unknown mechanism kind {kind!r}")
    require_keys(doc, _MECHANISM_KEYS[kind], f"{kind} mechanism document")
    if kind == "quadratic_panel":
        return QuadraticPanelMechanism(
            load_experiment(doc["experiment"]),
            _rationals(doc, "event_weights") if "event_weights" in doc else None,
        )
    if kind == "mean_score":
        return MeanScoreMechanism(
            load_experiment(doc["experiment"]),
            _rationals(doc, "statistic"),
            _rationals(doc, "weights"),
            variant=doc.get("variant", "brier"),
        )
    if kind == "table":
        return TableMechanism(
            load_experiment(doc["experiment"]),
            [str(r) for r in require_list(doc["reports"], "reports")],
            Matrix.from_rows(doc["payoffs"]),
        )
    if kind == "pushforward":
        base = load_mechanism(doc["base"])
        if not isinstance(base, TableMechanism):
            raise ValueError("pushforward base must be a table mechanism")
        return pushforward(
            base,
            Matrix.from_rows(doc["matrix"]),
            load_experiment(doc["experiment"]),
        )
    mixture_spec = load_mixture(doc["mixture"])  # kind == "compound"
    require_keys(doc["subs"], mixture_spec.covariates, "compound subs")
    subs = [load_mechanism(doc["subs"][x]) for x in mixture_spec.covariates]
    return CompoundMechanism(mixture_spec, subs)
