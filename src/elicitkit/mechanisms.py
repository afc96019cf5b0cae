"""Payment mechanisms and their exact verification.

A mechanism maps (report, outcome) to a rational payoff. Every kind gives its
truthful payoffs on a belief grid as integer rows (``grid_payoffs``). Direct
mechanisms take a belief as the report and read its payoffs from that row;
the mean-score mechanism takes a scalar, a table a label. All expected
payoffs are exact, never sampled, so incentive properties are decided:

* the quadratic panel scores the reported mean outcome distribution against
  the realized outcome, one squared term per outcome; truthful reporting is
  optimal and strictly beats any report with a different mean outcome
  distribution;
* the mean-score mechanism turns unbiased outcome weights into a strictly
  proper quadratic score for a statistic's mean;
* compound mechanisms pay each covariate's outcomes by its sub-mechanism at
  the sub's report for the belief, composing the subs' integer rows;
* pushforward and the level-set transform transport a table mechanism along
  a dominance witness, preserving expected payoffs belief by belief (the
  level-set version also preserves the [0, 1] payoff range).

``ic_verify`` is the brute-force oracle: it enumerates an exact belief grid
and asserts weak incentive compatibility everywhere, strict gaps exactly on
target-distinguishable pairs, and indifference inside cells. A kind that is
proper by construction (the quadratic panel, a mean score with unbiased
weights, a compound whose positive-weight subs are proper) names the integer
rows it scores (``_scored_rows``). A target in the ``Span`` of those rows and
the constants, kept on the mechanism (``_scored_span``), is settled for the
whole simplex with no grid built; otherwise classes of scored means decide
its grid in O(G). Other kinds'
grid payoffs are certified in packed integers. Every class of equal means
comes from the grid's count columns, packed once per call into G-slot
integers; ``pairs_checked`` is always G(G-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

from .exactcore import (
    Matrix, Span, _scaled_ints, format_rational, parse_rational, require_distinct,
    require_distribution, require_index, require_int, require_keys, require_labels,
    require_length, require_list, require_tuple, require_vector,
)
from .elicit import StatisticFamily, statistic_mean
from .model import (
    Belief,
    CovariateMixture,
    Experiment,
    experiment_to_doc,
    grid_belief,
    grid_counts,
    load_experiment,
    load_mixture,
    mean_outcome_distribution,
    mixture,
    mixture_to_doc,
)
if TYPE_CHECKING:  # only an annotation here; verify need not load orders
    from .orders import EventWeightMatrix

_ZERO = Fraction(0)
_ONE = Fraction(1)

# ic_verify certifies every ordered belief pair, G(G-1) for a grid of G
# beliefs, in G rows of G packed slots, so the number of pairs is capped.
MAX_PAIRS = 1_000_000

Report = Union[Belief, Fraction, str, int]


class Mechanism:
    """Common surface: exact payoffs, expected payoffs, report plumbing."""

    kind: str = "abstract"
    experiment: Experiment

    def payoff(self, report: Report, outcome: Union[int, str]) -> Fraction:
        payoffs = self.payoff_vector(report)
        return payoffs[require_index(outcome, self.experiment.outcomes, "outcome")]

    def payoff_vector(self, report: Report) -> tuple[Fraction, ...]:
        """Payoffs across all outcomes for one report: a direct kind's report is
        a belief, paid its row of ``grid_payoffs``."""
        if not isinstance(report, Belief):
            raise ValueError("a direct mechanism takes a belief as the report")
        require_length(len(report.weights), len(self.experiment.parameters), "belief length",
                       "parameter set")
        (counts,), d = _scaled_ints([report.weights])
        (row,), scale = self.grid_payoffs([counts], d)
        return tuple(Fraction(x, scale) for x in row)

    def report_for_belief(self, p: Belief) -> Report:
        """The report a truthful analyst holding belief p submits; a direct kind's is p."""
        return p

    def grid_payoffs(
        self, counts: Sequence[Sequence[int]], d: int
    ) -> tuple[list[list[int]], int]:
        """Truthful payoff vectors of the beliefs k/d as integer rows over one positive
        scale: row i is ``payoff_vector(report_for_belief(counts[i] / d))``. Every
        kind gives them in closed form, building no belief."""
        raise NotImplementedError

    def payoff_range(self) -> Optional[tuple[Fraction, Fraction]]:
        """Certified payoff bounds, when statically known."""
        return None

    def _scored_rows(self) -> Optional[list[list[int]]]:
        """Rows whose means alone set a proper kind's gains; None if not proper."""
        return None

    @cached_property
    def _scored_span(self) -> Optional[Span]:
        """The span of [scored rows; 1], kept for the span certificate; None if not proper."""
        if (scored := self._scored_rows()) is None:
            return None
        n = len(self.experiment.parameters)
        return Span.of([*scored, [1] * n], n)


def expected_payoff(m: Mechanism, belief: Belief, report: Report) -> Fraction:
    """Expected payoff under a belief: outcome-distribution-weighted payoffs."""
    lam = mean_outcome_distribution(m.experiment, belief)
    return _dot(lam, m.payoff_vector(report))


def _dot(lam: Sequence[Fraction], vec: Sequence[Fraction]) -> Fraction:
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
        weights = require_vector(event_weights, "event weights")
        require_distribution(weights, "event weights")
        require_length(len(weights), m, "event weight count", "outcome set")
        if 0 in weights:
            raise ValueError("event weights must be positive")
        self.experiment = experiment
        self.event_weights = weights
        self._columns, self._kernel_scale = experiment._kernel_ints
        (self._weights,), self._weight_scale = _scaled_ints([weights])

    def grid_payoffs(
        self, counts: Sequence[Sequence[int]], d: int
    ) -> tuple[list[list[int]], int]:
        """The payoff formula in integers.

        Belief k/d has mean outcome distribution L/S with L = k @ K_int
        and S = d * (kernel scale); the event weights are W/w. Expanding
        (L/S - 1{y})^2, the payoff on outcome y is
        ``w S^2 - sum(W L^2) - W_y (S^2 - 2 L_y S)`` over ``w S^2``.
        """
        s = d * self._kernel_scale
        s2, w = s * s, self._weight_scale
        rows = []
        for k in counts:
            lam = [sum(map(mul, k, col)) for col in self._columns]
            base = w * s2 - sum(wy * ly * ly for wy, ly in zip(self._weights, lam))
            rows.append(
                [base - wy * (s2 - 2 * ly * s) for wy, ly in zip(self._weights, lam)]
            )
        return rows, w * s2

    def payoff_range(self) -> tuple[Fraction, Fraction]:
        return (_ZERO, _ONE)

    def _scored_rows(self) -> list[list[int]]:
        return self._columns  # the gain is sum W_y (lambda_p - lambda_q)_y^2


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
        statistic = require_vector(statistic, "statistic")
        weights = require_vector(weights, "weights")
        require_length(len(statistic), len(experiment.parameters), "statistic length",
                       "parameter set")
        require_length(len(weights), len(experiment.outcomes), "weights length", "outcome set")
        self._unbiased = experiment.kernel.mul_vec(weights) == statistic
        if check_unbiased and not self._unbiased:
            raise ValueError("weights are not unbiased for the statistic")
        self.experiment = experiment
        self.statistic = statistic
        self.weights = weights
        self.variant = variant
        (self._statistic,), self._statistic_scale = _scaled_ints([statistic])
        (self._weights,), self._weight_scale = _scaled_ints([weights])

    def report_for_belief(self, p: Belief) -> Fraction:
        return statistic_mean(self.statistic, p)

    def _scored_rows(self) -> Optional[list[list[int]]]:
        # unbiased weights make the gain (mu_p - mu_q)^2 in both variants
        return [self._statistic] if self._unbiased else None

    def payoff_vector(self, report: Report) -> tuple[Fraction, ...]:
        try:  # floats and bools are not exact mean estimates
            mu = parse_rational(report)
        except ValueError:
            raise ValueError(
                "a mean-score mechanism takes a scalar mean estimate as the report"
            ) from None
        (row,), scale = self._payoffs([mu.numerator], mu.denominator)
        return tuple(Fraction(x, scale) for x in row)

    def grid_payoffs(
        self, counts: Sequence[Sequence[int]], d: int
    ) -> tuple[list[list[int]], int]:
        means = [sum(map(mul, k, self._statistic)) for k in counts]
        return self._payoffs(means, d * self._statistic_scale)

    def _payoffs(self, means: Sequence[int], b: int) -> tuple[list[list[int]], int]:
        """Payoff rows of the reports a/b, one per a in ``means``.

        With weights W/sw, brier ``1 - (a/b - W_y/sw)^2`` is
        ``(b sw)^2 - (a sw - W_y b)^2`` and linear ``2 (a/b) W_y/sw - (a/b)^2``
        is ``2 a W_y b sw - a^2 sw^2``, both over ``(b sw)^2``.
        """
        sw = self._weight_scale
        bsw = b * sw
        weights = [wy * b for wy in self._weights]
        if self.variant == "brier":
            rows = [[bsw * bsw - (a * sw - wb) ** 2 for wb in weights] for a in means]
        else:
            rows = [[2 * a * sw * wb - (a * sw) ** 2 for wb in weights] for a in means]
        return rows, bsw * bsw


class TableMechanism(Mechanism):
    """Finitely many reports with explicitly tabulated payoffs.

    When the table was produced by freezing a direct mechanism over a belief
    menu, ``report_beliefs`` remembers which belief each report stands for,
    so belief-based checks still apply; its document carries them as
    ``report_beliefs``.
    """

    kind = "table"

    def __init__(
        self,
        experiment: Experiment,
        reports: Sequence[str],
        payoffs: Matrix,
        report_beliefs: Optional[Sequence[Belief]] = None,
    ) -> None:
        reports = require_tuple(reports, "reports", str, (list, tuple))
        require_distinct(reports, "report labels")
        require_length(payoffs.rows, len(reports), "payoff row count", "report labels")
        require_length(payoffs.cols, len(experiment.outcomes), "payoff column count", "outcome set")
        if report_beliefs is not None:
            report_beliefs = require_tuple(report_beliefs, "report beliefs", Belief, (list, tuple))
            require_length(len(report_beliefs), len(reports), "belief menu size", "report labels")
            for p in report_beliefs:
                require_length(len(p.weights), len(experiment.parameters), "report belief length",
                               "parameter set")
        self.experiment = experiment
        self.reports = reports
        self.payoffs = payoffs
        self.report_beliefs = report_beliefs
        # a belief's key is its weights as coprime ints; the first report wins
        self._report_rows: dict[tuple[int, ...], int] = {}
        for r, row in enumerate(_scaled_ints([p.weights for p in self.report_beliefs or ()])[0]):
            g = math.gcd(*row)
            self._report_rows.setdefault(tuple(row) if g == 1 else tuple(x // g for x in row), r)

    def report_for_belief(self, p: Belief) -> str:
        (weights,), d = _scaled_ints([p.weights])
        return self.reports[self._report_row(weights, d)]

    @cached_property
    def _int_rows(self) -> tuple[list[list[int]], int]:
        """The payoff table as integer rows over one scale, built on first use."""
        (flat,), scale = _scaled_ints([self.payoffs.entries])
        m = self.payoffs.cols
        return [flat[r * m : (r + 1) * m] for r in range(self.payoffs.rows)], scale

    def grid_payoffs(
        self, counts: Sequence[Sequence[int]], d: int
    ) -> tuple[list[list[int]], int]:
        """Each grid belief's row of the table, scaled once per mechanism."""
        rows, scale = self._int_rows
        return [rows[self._report_row(k, d)] for k in counts], scale

    def _report_row(self, weights: Sequence[int], d: int) -> int:
        """Index of the first report whose belief is the counts ``weights`` over d."""
        if self.report_beliefs is None:
            raise ValueError("table mechanism has no belief-to-report rule")
        g = math.gcd(*weights)
        try:
            return self._report_rows[tuple(weights) if g == 1 else tuple(x // g for x in weights)]
        except KeyError:  # every menu key has one entry per parameter
            require_length(len(weights), len(self.experiment.parameters), "belief length",
                           "parameter set")
            belief = ",".join(format_rational(Fraction(k, d)) for k in weights)
            raise ValueError(
                f"belief ({belief}) is not on the tabulated report menu (grid denominator {d})"
            ) from None

    def payoff_vector(self, report: Report) -> tuple[Fraction, ...]:
        return self.payoffs.row(require_index(report, self.reports, "report"))

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

    def __init__(self, mixture_spec: CovariateMixture, subs: Sequence[Mechanism]) -> None:
        subs = require_tuple(subs, "sub-mechanisms", Mechanism, (list, tuple))
        require_length(len(subs), len(mixture_spec.covariates), "sub-mechanism count", "covariates")
        for sub, comp in zip(subs, mixture_spec.components):
            if sub.experiment != comp:
                raise ValueError("sub-mechanism experiment must match its mixture component")
            bounds = sub.payoff_range()
            if bounds is None or bounds[0] < 0 or bounds[1] > 1:
                raise ValueError("sub-mechanism payoffs must be certified in [0, 1]")
        self.mixture = mixture_spec
        self.subs = subs
        self.experiment = mixture(mixture_spec)

    def grid_payoffs(
        self, counts: Sequence[Sequence[int]], d: int
    ) -> tuple[list[list[int]], int]:
        """Each covariate's sub-mechanism rows side by side, over the lcm of their scales."""
        forms = [sub.grid_payoffs(counts, d) for sub in self.subs]
        scale = math.lcm(*(s for _, s in forms))
        parts = [[[x * (scale // s) for x in row] for row in rows] for rows, s in forms]
        return [[x for row in part for x in row] for part in zip(*parts)], scale

    def _scored_rows(self) -> Optional[list[list[int]]]:
        # the gain is the covariate-weighted sum of the subs' gains
        scored = [sub._scored_rows() for w, sub in zip(self.mixture.weights, self.subs) if w > 0]
        if any(rows is None for rows in scored):
            return None
        return [row for rows in scored for row in rows]

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
    require_length(matrix.rows, len(experiment.outcomes), "matrix row count", "new outcomes")
    require_length(matrix.cols, len(base.experiment.outcomes), "matrix column count",
                   "base outcomes")
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
        rows.append([
            sum((w * event_weights.entries.at(y, mask) for mask, w in decomposition), _ZERO)
            for y in range(ny)
        ])
    return TableMechanism(experiment, base.reports, Matrix.from_rows(rows), base.report_beliefs)


def tabulate(m: Mechanism, beliefs: Sequence[Belief]) -> TableMechanism:
    """Freeze a mechanism's payoffs over a finite belief menu into a table."""
    labels = ["(" + ",".join(format_rational(w) for w in p.weights) + ")" for p in beliefs]
    rows = [list(m.payoff_vector(m.report_for_belief(p))) for p in beliefs]
    return TableMechanism(m.experiment, labels, Matrix.from_rows(rows), beliefs)


@dataclass(frozen=True, slots=True)
class ICViolation:
    check: str  # "weak_ic", "strictness", or "indifference"
    belief: Belief
    deviation: Belief
    gap: Fraction


@dataclass(frozen=True, slots=True)
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


def _pack_counts(counts: Sequence[Sequence[int]], d: int, width: int) -> list[int]:
    """Each parameter's counts as one int of width-byte slots, the first lowest."""
    columns = []
    for column in zip(*counts):
        data = bytearray(len(counts) * width)
        for lane in range((d.bit_length() + 7) // 8):  # counts are at most d
            data[lane::width] = bytes(column if d < 256 else (k >> 8 * lane & 255 for k in column))
        columns.append(int.from_bytes(data, "little"))
    return columns


def _grid_classes(
    counts: Sequence[Sequence[int]], d: int, families: Sequence[Sequence[Sequence[int]]]
) -> list[list[int]]:
    """Each belief's class of equal means under each family of integer rows.

    The count columns are packed once, in slots wide enough for every
    family. Row r of a family, less its least entry, fills sub-slot r:
    belief k gets k @ row - d * min(row), so equal slot bytes are equal
    means, and a family costs n multiply-adds and one ``to_bytes``."""
    shifted = [[[x - low for x in row] for row, low in zip(f, map(min, f))] for f in families]
    # a sub-slot holds d times a shifted row's largest entry; a count needs d
    steps = [((d * max(map(max, f), default=0)).bit_length() + 7) // 8 for f in shifted]
    width = max([(d.bit_length() + 7) // 8] + [len(f) * s for f, s in zip(shifted, steps)])
    columns = _pack_counts(counts, d, width)
    slots = range(0, len(counts) * width, width)
    classes = []
    for rows, step in zip(shifted, steps):
        weights = [sum(x << 8 * r * step for r, x in enumerate(xs)) for xs in zip(*rows)]
        data = sum(map(mul, weights, columns)).to_bytes(slots.stop, "little")
        ids: dict[bytes, int] = {}
        classes.append([ids.setdefault(data[j : j + width], len(ids)) for j in slots])
    return classes


def _pack(values: Sequence[int], width: int) -> int:
    """Nonnegative ints as the width-byte slots of one int, the first lowest."""
    return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")


def _unpack(packed: int, size: int, width: int) -> list[int]:
    data = packed.to_bytes(size * width, "little")
    return [int.from_bytes(data[j : j + width], "little") for j in range(0, len(data), width)]


class _ClassMasks(dict):
    """Per class, its members' slot top bits (0 for a class of one), built on first ask."""

    def __init__(self, ids: Sequence[int], bits: int) -> None:
        self.ids, self.bits, self.members = ids, bits, None

    def __missing__(self, c: int) -> int:
        if self.members is None:  # the first ask lists every class's members
            self.members = {}
            for j, x in enumerate(self.ids):
                self.members.setdefault(x, []).append(j)
            self.update((x, 0) for x, js in self.members.items() if len(js) == 1)
        return self.setdefault(c, sum(1 << ((j + 1) * self.bits - 1) for j in self.members[c]))


def _first_violation(
    row: Sequence[int], i: int, lambda_ids: Sequence[int], target_ids: Sequence[int]
) -> tuple[str, int]:
    """The check and index of the first deviation that belief i's row violates."""
    truth, lam_id, target_id = row[i], lambda_ids[i], target_ids[i]
    for j, value in enumerate(row):
        if value > truth:
            return "weak_ic", j
        if value == truth:
            if target_ids[j] != target_id:
                return "strictness", j
        elif lambda_ids[j] == lam_id:
            return "indifference", j
    raise RuntimeError("row certificate failed on a clean row; invariant broken")


def ic_verify(
    m: Mechanism,
    target: StatisticFamily,
    grid_denominator: int,
    max_pairs: int = MAX_PAIRS,
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

    Cost: the grid has G = C(d+n-1, n-1) beliefs for n parameters, each an
    integer count vector k (belief k/d); ``pairs_checked`` is always
    G(G-1), and above ``max_pairs`` the call raises ``ValueError`` before
    enumerating anything. What depends on one input alone is built at its
    first use and kept on it (the integer kernel columns, target rows and
    table payoffs; a proper kind's ``_scored_span`` of [scored rows; 1]),
    so a call does only the grid's work. A kind whose ``_scored_rows`` is not
    None (a compound's are its positive-weight subs' rows) gains a weighted
    sum of squared distances between scored means, so weak IC and
    indifference hold; if ``outside`` finds no target row leaving that span
    (a few dot products, none at full rank), every target mean is a
    function of the scored means and the answer is yes with no grid built.
    Otherwise the n count columns are packed once into G-slot ints, so a
    family's means over the grid are n multiply-adds and its classes are the
    distinct slot bytes (``_grid_classes``). A proper kind then needs one
    O(G) pass for the first scored class holding two targets. Any other kind
    gives its truthful payoffs as integer rows (``grid_payoffs``; a compound
    sets its subs' rows side by side), each outcome's column shifted by the
    least entry (no gap changes) and packed into one int of G slots; belief
    k's row of G expected payoffs is m multiply-adds weighted by k @ K_int,
    and a few whole-row int operations certify its G pairs. Only the first
    failing row is scanned pair by pair, and the pass stops at the first
    weak-IC or indifference failure. Memory is O(G*m) plus a G-slot mask per
    class a row asks for, whatever the violations.
    """
    require_int(grid_denominator, "grid_denominator", 1)
    require_int(max_pairs, "max_pairs", 1)
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
    span, targets = m._scored_span, target._ints
    # a spanned target is a function of the scored means: no pair splits
    if span is not None and span.outside(targets) is None:
        return ICReport(True, True, None, grid_denominator, pairs)
    counts = list(grid_counts(n, d))
    if span is not None:
        # only strictness fails: first at the least i (a class's first member)
        # whose scored class holds another target, against the first such j
        target_ids, scored_ids = _grid_classes(counts, d, (targets, m._scored_rows()))
        firsts: dict[int, int] = {}
        split: Optional[tuple[int, int]] = None
        for j, c in enumerate(scored_ids):
            i = firsts.setdefault(c, j)
            if target_ids[j] != target_ids[i] and (split is None or i < split[0]):
                split = i, j
        if split is None:
            return ICReport(True, True, None, grid_denominator, pairs)
        first = ICViolation("strictness", *(grid_belief(counts[x], d) for x in split), _ZERO)
        return ICReport(True, False, first, grid_denominator, pairs)
    # a belief's mean outcome distribution is its means of the kernel columns
    kernel, kernel_scale = e._kernel_ints
    target_ids, lambda_ids = _grid_classes(counts, d, (targets, kernel))
    vectors, payoff_scale = m.grid_payoffs(counts, d)
    # shifted rows lie in [0, d * kernel_scale * spread]; a slot keeps its top two bits spare
    low = min(map(min, vectors))
    width = ((d * kernel_scale * (max(map(max, vectors)) - low)).bit_length() + 9) // 8
    bits = 8 * width
    packed = [_pack([x - low for x in col], width) for col in zip(*vectors)]
    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * size, "little")
    half, highs = 1 << (bits - 1), ones << (bits - 1)
    lambda_masks, target_masks = _ClassMasks(lambda_ids, bits), _ClassMasks(target_ids, bits)

    first: Optional[ICViolation] = None
    weak_ok = strict_ok = True
    for i, k in enumerate(counts):
        row = sum(sum(map(mul, k, col)) * p for col, p in zip(kernel, packed))
        # slot j holds half + truth - row[j]: its top bit is set iff truth
        # wins weakly, and then it is half exactly iff the two tie. A class
        # with mask 0 is belief i alone, and its own slot always ties.
        slack = (((row >> i * bits) & (2 * half - 1)) + half) * ones - row
        ties = ~(slack - ones) & highs
        row_weak = slack & highs == highs and not lambda_masks[lambda_ids[i]] & ~ties
        if row_weak and not ties & ~(target_masks[target_ids[i]] or half << i * bits):
            continue
        if first is None:
            values = _unpack(row, size, width)
            check, j = _first_violation(values, i, lambda_ids, target_ids)
            gap = Fraction(values[i] - values[j], d * kernel_scale * payoff_scale)
            first = ICViolation(check, grid_belief(counts[i], d), grid_belief(counts[j], d), gap)
        if not row_weak:
            weak_ok = False
            break
        strict_ok = False
    return ICReport(weak_ok, weak_ok and strict_ok, first, grid_denominator, pairs)


def value_function(
    m: Mechanism, belief: Belief, report_grid: Sequence[Report]
) -> Fraction:
    """Best expected payoff over a finite report menu."""
    if not require_tuple(report_grid, "report grid", object, (list, tuple)):
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


def envelope_check(m1: Mechanism, m2: Mechanism, beliefs: Sequence[Belief]) -> EnvelopeReport:
    vecs1 = [m1.payoff_vector(m1.report_for_belief(p)) for p in beliefs]
    vecs2 = [m2.payoff_vector(m2.report_for_belief(p)) for p in beliefs]
    lams = [[mean_outcome_distribution(m.experiment, p) for m in (m1, m2)] for p in beliefs]
    for p, (lam1, lam2) in zip(beliefs, lams):
        v1 = max(_dot(lam1, v) for v in vecs1)
        v2 = max(_dot(lam2, v) for v in vecs2)
        if v1 != v2:
            belief = ",".join(format_rational(w) for w in p.weights)
            detail = f"({belief}): {format_rational(v1)} vs {format_rational(v2)}"
            return EnvelopeReport(False, None, "value functions differ at belief " + detail)
    for lam1, lam2 in lams:
        if any(_dot(lam1, v1) != _dot(lam2, v2) for v1, v2 in zip(vecs1, vecs2)):
            return EnvelopeReport(True, False, "cross payoffs differ despite equal value functions")
    return EnvelopeReport(values_agree=True, cross_payoffs_agree=True)


def mechanism_to_doc(m: Mechanism) -> dict:
    """Kind-tagged JSON document for a mechanism."""
    if isinstance(m, CompoundMechanism):
        subs = {x: mechanism_to_doc(sub) for x, sub in zip(m.mixture.covariates, m.subs)}
        return {"kind": m.kind, "mixture": mixture_to_doc(m.mixture), "subs": subs}
    if not isinstance(m, (QuadraticPanelMechanism, MeanScoreMechanism, TableMechanism)):
        raise ValueError(f"cannot serialize mechanism of kind {m.kind!r}")
    doc = {"kind": m.kind, "experiment": experiment_to_doc(m.experiment)}
    if isinstance(m, QuadraticPanelMechanism):
        doc["event_weights"] = [format_rational(w) for w in m.event_weights]
    elif isinstance(m, MeanScoreMechanism):
        doc["statistic"] = [format_rational(x) for x in m.statistic]
        doc["weights"] = [format_rational(x) for x in m.weights]
        doc["variant"] = m.variant
    elif isinstance(m, PushforwardMechanism):
        doc.update(base=mechanism_to_doc(m.base), matrix=m.matrix.to_doc())
    else:
        doc.update(reports=list(m.reports), payoffs=m.payoffs.to_doc())
        if m.report_beliefs is not None:
            doc["report_beliefs"] = [p.to_doc() for p in m.report_beliefs]
    return doc


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
        menu = require_list(doc.get("report_beliefs", ()), "report_beliefs")
        return TableMechanism(
            load_experiment(doc["experiment"]),
            require_labels(doc["reports"], "reports"),
            Matrix.from_rows(doc["payoffs"]),
            [Belief(require_vector(p, "report belief")) for p in menu]
            if "report_beliefs" in doc else None,
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
