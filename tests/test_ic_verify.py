"""``ic_verify`` against a pair-by-pair reference on a seeded corpus.

``reference_ic_verify`` is the original oracle: it computes every gap in
``Fraction``s, keeps every violation and reports the smallest pair. The
integer oracle must give an identical ``ICReport`` on every instance.
"""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction as F

import pytest

from elicitkit import mechanisms, model
from elicitkit.catalog import random_experiment
from elicitkit.elicit import StatisticFamily, maximal_partition, statistic_mean
from elicitkit.exactcore import Matrix
from elicitkit.mechanisms import (
    ICReport,
    ICViolation,
    Mechanism,
    TableMechanism,
    compound_mechanism,
    ic_verify,
    mean_mechanism,
    pushforward,
    quadratic_mechanism,
    tabulate,
)
from elicitkit.model import (
    CovariateMixture,
    Experiment,
    belief_grid,
    garble,
    grid_counts,
    mean_outcome_distribution,
)
from elicitkit.orders import elicitation_dominates

_ZERO = F(0)


def reference_ic_verify(
    m: Mechanism, target: StatisticFamily, grid_denominator: int
) -> ICReport:
    if grid_denominator < 1:
        raise ValueError("grid denominator must be at least 1")
    e = m.experiment
    if target.parameters != e.parameters:
        raise ValueError("target family must share the experiment's parameters")
    beliefs = belief_grid(len(e.parameters), grid_denominator)
    lambdas = [mean_outcome_distribution(e, p) for p in beliefs]
    vectors = []
    for p in beliefs:
        vectors.append(m.payoff_vector(m.report_for_belief(p)))
    target_means = [
        tuple(statistic_mean(g, p) for g in target.functions) for p in beliefs
    ]

    def gap(i: int, j: int) -> F:
        lam = lambdas[i]
        truth, dev = vectors[i], vectors[j]
        return sum((l * (a - b) for l, a, b in zip(lam, truth, dev)), _ZERO)

    violations: list[ICViolation] = []
    for i, p in enumerate(beliefs):
        for j, q in enumerate(beliefs):
            if i == j:
                continue
            g = gap(i, j)
            if g < 0:
                violations.append(ICViolation("weak_ic", p, q, g))
                continue
            if target_means[i] != target_means[j]:
                if g == 0:
                    violations.append(ICViolation("strictness", p, q, g))
            if lambdas[i] == lambdas[j] and g != 0:
                violations.append(ICViolation("indifference", p, q, g))

    weak_ok = not any(v.check in ("weak_ic", "indifference") for v in violations)
    strict_ok = not any(v.check == "strictness" for v in violations)
    worst = (
        min(violations, key=lambda v: (v.belief.weights, v.deviation.weights))
        if violations
        else None
    )
    return ICReport(
        incentive_compatible=weak_ok,
        elicits_target=weak_ok and strict_ok,
        violation=worst,
        grid_denominator=grid_denominator,
        pairs_checked=len(beliefs) * (len(beliefs) - 1),
    )


KINDS = (
    "quadratic",
    "brier",
    "linear",
    "constant",
    "biased",
    "anti_proper",
    "compound",
    "pushforward",
)


def _random_family(rng, e):
    functions = tuple(
        tuple(F(rng.randrange(-2, 3), rng.randrange(1, 4)) for _ in e.parameters)
        for _ in range(rng.randrange(3))
    )
    return StatisticFamily(e.parameters, functions)


def _instance(rng, kind, n, d):
    """One (mechanism, target) pair of the given kind on n parameters."""
    params = tuple(f"t{i}" for i in range(n))
    e = random_experiment(rng, n, rng.randint(2, 3), 4, params)
    target = maximal_partition(e)
    outcomes = len(e.outcomes)
    if kind == "quadratic":
        raw = [rng.randint(1, 5) for _ in range(outcomes)]
        m = quadratic_mechanism(e, [F(w, sum(raw)) for w in raw])
        if rng.random() < 0.5:
            target = _random_family(rng, e)
        return m, target
    if kind in ("brier", "linear", "biased"):
        weights = [F(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(outcomes)]
        statistic = list(e.kernel.mul_vec(weights))
        if kind == "biased":
            statistic[rng.randrange(n)] += F(rng.choice((-1, 1)), 2)
        variant = "linear" if kind == "linear" else rng.choice(("brier", "linear"))
        m = mean_mechanism(e, statistic, weights, variant, check_unbiased=False)
        if rng.random() < 0.5:
            target = StatisticFamily(e.parameters, (tuple(statistic),))
        return m, target
    if kind == "constant":
        ones = [F(1)] * outcomes
        return mean_mechanism(e, [F(1)] * n, ones), target
    if kind == "anti_proper":
        beliefs = belief_grid(n, d)
        proper = quadratic_mechanism(e)
        rows = [[1 - x for x in proper.payoff_vector(p)] for p in beliefs]
        labels = [str(i) for i in range(len(beliefs))]
        return TableMechanism(e, labels, Matrix.from_rows(rows), beliefs), target
    if kind == "compound":
        other = random_experiment(rng, n, rng.randint(1, 3), 4, params)
        w = F(rng.randint(1, 3), 4)
        mix = CovariateMixture(("a", "b"), (w, 1 - w), (e, other))
        m = compound_mechanism(mix, (quadratic_mechanism(e), quadratic_mechanism(other)))
        return m, maximal_partition(m.experiment)
    assert kind == "pushforward"
    # a table on a garbling of e, pushed back onto e along the channel
    channel = random_experiment(rng, outcomes, rng.randint(1, 3), 3)
    ez = garble(e, channel.kernel)
    base = tabulate(quadratic_mechanism(ez), belief_grid(n, d))
    witness = elicitation_dominates(e, ez).witness
    return pushforward(base, witness, e), target


def _corpus():
    rng = random.Random(20240)
    for n in (2, 3, 4):
        for d in range(1, 7):
            for kind in KINDS:
                m, target = _instance(rng, kind, n, d)
                yield f"{kind}-n{n}-d{d}", m, target, d


def test_matches_reference_on_seeded_corpus():
    seen = {"weak_ic": 0, "strictness": 0, "indifference": 0, None: 0}
    for label, m, target, d in _corpus():
        report = ic_verify(m, target, d)
        expected = reference_ic_verify(m, target, d)
        assert report == expected, label
        assert report.to_doc() == expected.to_doc(), label
        seen[None if report.violation is None else report.violation.check] += 1
    # every verdict the oracle can give occurs in the corpus
    assert all(count > 0 for count in seen.values()), seen


def test_grid_payoffs_are_the_truthful_payoff_vectors():
    for label, m, _, d in _corpus():
        n = len(m.experiment.parameters)
        rows, scale = m.grid_payoffs(list(grid_counts(n, d)), d)
        beliefs = belief_grid(n, d)
        assert scale > 0 and len(rows) == len(beliefs), label
        for row, p in zip(rows, beliefs):
            expected = m.payoff_vector(m.report_for_belief(p))
            assert tuple(F(x, scale) for x in row) == expected, label


def _counting(monkeypatch, holder, name, calls):
    original = getattr(holder, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(holder, name, counted)


def test_closed_form_kinds_build_no_fraction_per_belief(monkeypatch):
    calls = []
    for holder, name in (
        (model, "belief_grid"),
        (model, "mean_outcome_distribution"),
        (mechanisms, "belief_grid"),
        (mechanisms, "mean_outcome_distribution"),
        (mechanisms.Mechanism, "payoff_vector"),
        (mechanisms.QuadraticPanelMechanism, "payoff_vector"),
        (mechanisms.MeanScoreMechanism, "payoff_vector"),
    ):
        if hasattr(holder, name):
            _counting(monkeypatch, holder, name, calls)
    rng = random.Random(5)
    for kind in ("quadratic", "brier", "linear", "constant"):
        m, target = _instance(rng, kind, 3, 4)
        ic_verify(m, target, 4)
    assert calls == []


def test_strictness_violation_before_weak_ic_is_reported_first():
    # identity kernel on two parameters: beliefs (0,1), (1/2,1/2), (1,0)
    e = Experiment(("a", "b"), ("0", "1"), Matrix.identity(2))
    beliefs = belief_grid(2, 2)
    table = TableMechanism(
        e,
        ("x", "y", "z"),
        # x and y pay alike: a strict gap is missing at pair (0, 1);
        # z tempts belief (1/2,1/2) away from y: weak IC fails at (1, 2)
        Matrix.from_rows([[0, 1], [0, 1], [2, 0]]),
        beliefs,
    )
    report = ic_verify(table, maximal_partition(e), 2)
    assert report == reference_ic_verify(table, maximal_partition(e), 2)
    assert not report.incentive_compatible and not report.elicits_target
    assert report.violation == ICViolation("strictness", beliefs[0], beliefs[1], F(0))


def test_pair_budget_refuses_before_building_the_grid(monkeypatch):
    built = []
    monkeypatch.setattr(mechanisms, "grid_counts", lambda *args: built.append(args))
    e = random_experiment(random.Random(1), 4, 3)
    m = quadratic_mechanism(e)
    # d = 6 on 4 parameters: 84 beliefs, 6,972 ordered pairs
    with pytest.raises(ValueError, match="6972 ordered pairs, above the cap of 6971"):
        ic_verify(m, maximal_partition(e), 6, max_pairs=6971)
    assert built == []


def _peak_bytes(m, target, d) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        ic_verify(m, target, d)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_violations():
    rng = random.Random(3)
    e = random_experiment(rng, 4, 3, 6)
    target = maximal_partition(e)
    proper = quadratic_mechanism(e)
    beliefs = belief_grid(4, 6)
    anti = TableMechanism(
        e,
        [str(i) for i in range(len(beliefs))],
        Matrix.from_rows([[1 - x for x in proper.payoff_vector(p)] for p in beliefs]),
        beliefs,
    )
    assert ic_verify(anti, target, 6).violation.check == "weak_ic"
    assert _peak_bytes(anti, target, 6) <= 2 * _peak_bytes(proper, target, 6)
