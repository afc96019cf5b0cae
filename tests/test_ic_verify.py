"""``ic_verify`` against a pair-by-pair reference on a seeded corpus.

``reference_ic_verify`` is the original oracle: it computes every gap in
``Fraction``s, keeps every violation and reports the smallest pair. The
integer oracle must give an identical ``ICReport`` on every instance.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
import tracemalloc
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elicitkit import elicit, exactcore, mechanisms, model
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
    Belief,
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
    _counting(monkeypatch, exactcore.Span, "outside", built)
    e = random_experiment(random.Random(1), 4, 3)
    weights = [F(1), F(-2), F(1, 2)]
    statistic = e.kernel.mul_vec(weights)
    # spanned targets, which the span certificate would settle: it never runs
    cases = (
        (quadratic_mechanism(e), maximal_partition(e)),
        (mean_mechanism(e, statistic, weights), StatisticFamily(e.parameters, (statistic,))),
    )
    for m, target in cases:
        # d = 6 on 4 parameters: 84 beliefs, 6,972 ordered pairs
        with pytest.raises(ValueError, match="6972 ordered pairs, above the cap of 6971"):
            ic_verify(m, target, 6, max_pairs=6971)
    assert built == []
    # within the cap the certificate runs and settles both with no grid
    for m, target in cases:
        assert ic_verify(m, target, 6).elicits_target
    assert built == ["outside", "outside"]


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
    # a tabulated proper mechanism still packs and scans its rows
    scanned = tabulate(proper, beliefs)
    assert _peak_bytes(anti, target, 6) <= 2 * _peak_bytes(scanned, target, 6)


def _table(e, rows, d):
    """A table mechanism whose reports are the 1/d grid beliefs, in order."""
    beliefs = belief_grid(len(e.parameters), d)
    labels = [str(i) for i in range(len(beliefs))]
    return TableMechanism(e, labels, Matrix.from_rows(rows), beliefs)


def _verified(m, target, d) -> tuple[ICReport, int]:
    """The report, checked against the reference, and how often the pair scan ran."""
    scan = mock.patch.object(
        mechanisms, "_first_violation", wraps=mechanisms._first_violation
    )
    with scan as helper:
        report = ic_verify(m, target, d)
    expected = reference_ic_verify(m, target, d)
    assert report == expected
    assert report.to_doc() == expected.to_doc()
    # a proper kind never scans; any other kind scans once, and only to
    # locate the reported violation
    if m._scored_rows() is not None:
        assert helper.call_count == 0
    else:
        assert helper.call_count == (report.violation is not None)
    return report, helper.call_count


@pytest.mark.parametrize("name", ["grid_denominator", "max_pairs"])
@pytest.mark.parametrize("value", [True, False, 2.5, 3.0, F(3), "3", None])
def test_sizes_must_be_ints(name, value):
    e = random_experiment(random.Random(2), 2, 2)
    args = {"grid_denominator": 2, "max_pairs": 100, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
        ic_verify(quadratic_mechanism(e), maximal_partition(e), **args)


def test_one_parameter_has_no_pairs():
    e = random_experiment(random.Random(4), 1, 3)
    for d in (1, 5):
        report, _ = _verified(quadratic_mechanism(e), maximal_partition(e), d)
        assert report.pairs_checked == 0 and report.elicits_target


def test_denominator_one_grid_is_the_point_masses():
    rng = random.Random(6)
    for kind in KINDS:
        m, target = _instance(rng, kind, 3, 1)
        assert _verified(m, target, 1)[0].pairs_checked == 6


def test_constant_mean_score_fails_only_on_strictness():
    rng = random.Random(8)
    for n, d in ((2, 5), (3, 4), (4, 3)):
        m, target = _instance(rng, "constant", n, d)
        report, _ = _verified(m, target, d)
        assert report.incentive_compatible and not report.elicits_target
        assert report.violation.check == "strictness"


def test_linear_variant_pays_negative_amounts():
    rng = random.Random(10)
    e = random_experiment(rng, 3, 3)
    weights = [F(-3), F(1, 2), F(2)]
    m = mean_mechanism(e, list(e.kernel.mul_vec(weights)), weights, "linear")
    assert min(m.payoff_vector(F(1))) < 0
    report, _ = _verified(m, StatisticFamily(e.parameters, (m.statistic,)), 5)
    assert report.elicits_target


@pytest.mark.parametrize("sign", [1, -1])
def test_payoffs_near_ten_to_the_thirty_need_wide_slots(sign):
    rng = random.Random(12)
    e = random_experiment(rng, 3, 3)
    beliefs = belief_grid(3, 4)
    proper = quadratic_mechanism(e)
    big = sign * 10**30
    for flip in (1, -1):  # proper, then anti-proper
        rows = [[big + flip * x for x in proper.payoff_vector(p)] for p in beliefs]
        _verified(_table(e, rows, 4), maximal_partition(e), 4)
    rows = [[big + rng.randrange(-2, 3) * 10**29 for _ in e.outcomes] for _ in beliefs]
    _verified(_table(e, rows, 4), maximal_partition(e), 4)


@pytest.mark.parametrize("power", range(25))
def test_spread_at_a_power_of_two_fills_the_slot(power):
    # identity kernel: belief (1, 0) puts all of S = d on outcome 0, so its
    # payoff for report 0 is S * spread, a power of two in integers (the
    # payoff scale is one too). The sweep steps the slot width from one byte
    # up to four, each step at such a power.
    e = Experiment(("a", "b"), ("0", "1"), Matrix.identity(2))
    d = 4
    spread = F(2**power, d)
    rng = random.Random(power)
    rows = [[spread, 0]] + [
        [spread * F(rng.randrange(5), 4), spread * F(rng.randrange(5), 4)]
        for _ in range(d)
    ]
    for sign in (1, -1):
        table = _table(e, [[sign * x for x in row] for row in rows], d)
        _verified(table, maximal_partition(e), d)


@st.composite
def _table_instances(draw):
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    outcomes = draw(st.integers(1, 3))
    kernel = []
    for _ in range(n):
        raw = draw(st.lists(st.integers(0, 2), min_size=outcomes, max_size=outcomes))
        raw[draw(st.integers(0, outcomes - 1))] += 1
        kernel.append([F(x, sum(raw)) for x in raw])
    e = Experiment(
        tuple(f"t{i}" for i in range(n)),
        tuple(f"o{j}" for j in range(outcomes)),
        Matrix.from_rows(kernel),
    )
    size = len(belief_grid(n, d))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(
        st.lists(entry, min_size=outcomes, max_size=outcomes), min_size=size, max_size=size
    ))
    factor = draw(st.sampled_from([1, F(1, 3), 10**30]))
    offset = draw(st.sampled_from([0, 10**30, -(10**30)]))
    rows = [[x * factor + offset for x in row] for row in rows]
    functions = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple), max_size=2
    ))
    return _table(e, rows, d), StatisticFamily(e.parameters, tuple(functions)), d


@settings(max_examples=300, deadline=None)
@given(_table_instances())
def test_random_tables_and_targets_match_reference(instance):
    _verified(*instance)


def test_the_pair_scan_runs_only_on_a_row_that_holds_a_violation():
    rng = random.Random(14)
    e = random_experiment(rng, 4, 3)
    assert _verified(quadratic_mechanism(e), maximal_partition(e), 6)[1] == 0
    anti, target = _instance(rng, "anti_proper", 4, 6)
    assert _verified(anti, target, 6)[1] == 1
    constant, target = _instance(rng, "constant", 4, 6)
    # proper by construction: decided by identity, no row is scanned
    assert _verified(constant, target, 6)[1] == 0
    # every row fails, on strictness only: only the first is scanned
    assert _verified(tabulate(constant, belief_grid(4, 6)), target, 6)[1] == 1


PROPER_KINDS = ("quadratic", "brier", "linear", "constant")


def _same_on_both_paths(m, target, d) -> ICReport:
    """The identity path's report, checked against the scan of m's own table."""
    assert m._scored_rows() is not None
    report = ic_verify(m, target, d)
    scanned = ic_verify(tabulate(m, belief_grid(len(m.experiment.parameters), d)), target, d)
    assert report == scanned
    assert report.to_doc() == scanned.to_doc()
    return report


def test_proper_kinds_of_the_corpus_match_the_scan():
    proper = [(m, target, d) for _, m, target, d in _corpus() if m._scored_rows() is not None]
    assert len(proper) == 5 * 3 * 6  # quadratic, brier, linear, constant and compound
    for m, target, d in proper:
        _same_on_both_paths(m, target, d)


def test_random_proper_instances_match_the_scan():
    rng = random.Random(17)
    seen = {"strictness": 0, None: 0}
    for _ in range(1000):
        n, d = rng.randint(1, 5), rng.randint(1, 7)
        m, target = _instance(rng, rng.choice(PROPER_KINDS), n, d)
        report = _same_on_both_paths(m, target, d)
        assert report.incentive_compatible
        seen[None if report.violation is None else report.violation.check] += 1
    assert all(count > 0 for count in seen.values()), seen


def _random_compound(rng, params, d, depth=0):
    """A compound of one to three covariates on ``params``, some at weight 0.

    A sub is a panel, a table over the 1/d grid (a panel's or an anti-proper
    one's) or, at the top level, a nested compound."""
    subs = []
    for _ in range(rng.randint(1, 3)):
        e = random_experiment(rng, len(params), rng.randint(1, 3), 4, params)
        draw, panel = rng.random(), quadratic_mechanism(e)
        if draw < 0.15 and depth == 0:
            subs.append(_random_compound(rng, params, d, 1))
        elif draw < 0.35:
            beliefs = belief_grid(len(params), d)
            if draw < 0.2:
                rows = [[1 - x for x in panel.payoff_vector(p)] for p in beliefs]
                subs.append(_table(e, rows, d))
            else:
                subs.append(tabulate(panel, beliefs))
        else:
            raw = [rng.randint(1, 5) for _ in e.outcomes]
            subs.append(quadratic_mechanism(e, [F(w, sum(raw)) for w in raw]))
    raw = [rng.choice((0, 0, 1, 2, 3)) for _ in subs]
    raw[rng.randrange(len(raw))] += 1
    mix = CovariateMixture(
        tuple(f"x{i}" for i in range(len(subs))),
        tuple(F(w, sum(raw)) for w in raw),
        tuple(sub.experiment for sub in subs),
    )
    return compound_mechanism(mix, subs)


def test_random_compounds_match_the_scan_and_the_reference():
    # a compound is proper when every positive-weight sub is: those take the
    # identity path, the rest pack their composed rows
    rng = random.Random(53)
    seen = dict.fromkeys(("zero weight", "nested", "table", "packed", "weak_ic", "strictness"), 0)
    proper = 0
    while proper < 500:
        n, d = rng.randint(1, 4), rng.randint(1, 3)
        m = _random_compound(rng, tuple(f"t{i}" for i in range(n)), d)
        e = m.experiment
        target = maximal_partition(e) if rng.random() < 0.3 else _random_family(rng, e)
        if m._scored_rows() is None:
            report, _ = _verified(m, target, d)
            seen["packed"] += 1
        else:
            report = _same_on_both_paths(m, target, d)
            assert report == reference_ic_verify(m, target, d)
            proper += 1
        seen["zero weight"] += 0 in m.mixture.weights
        seen["nested"] += any(sub.kind == "compound" for sub in m.subs)
        seen["table"] += any(sub.kind == "table" for sub in m.subs)
        if report.violation is not None:
            seen[report.violation.check] += 1
    assert all(count >= 40 for count in seen.values()), seen


def test_a_compound_pays_each_covariate_at_its_subs_report():
    # a panel and its table over the grid: the table sub is paid at the
    # report its menu names for the belief
    e = random_experiment(random.Random(59), 3, 3)
    panel = quadratic_mechanism(e)
    mix = CovariateMixture(("a", "b"), (F(1, 2), F(1, 2)), (e, e))
    m = compound_mechanism(mix, (panel, tabulate(panel, belief_grid(3, 4))))
    p = Belief((F(1, 4), F(1, 2), F(1, 4)))
    assert m.payoff_vector(p) == panel.payoff_vector(p) * 2
    report, _ = _verified(m, maximal_partition(m.experiment), 4)
    assert report == ICReport(True, True, None, 4, 210)


def test_only_unbiased_mean_scores_take_the_identity_path():
    rng = random.Random(19)
    e = random_experiment(rng, 3, 3)
    weights = [F(1), F(-2), F(1, 2)]
    statistic = list(e.kernel.mul_vec(weights))
    for check in (True, False):
        m = mean_mechanism(e, statistic, weights, check_unbiased=check)
        assert m._scored_rows() == [m._statistic]
    biased, target = _instance(rng, "biased", 3, 4)
    assert biased._scored_rows() is None
    # a biased mean score can lose to a lie, and only the scan finds it
    report, scans = _verified(biased, target, 4)
    assert report.violation.check == "weak_ic" and scans == 1


def test_proper_kinds_form_no_payoff_rows(monkeypatch):
    calls = []
    for holder, name in (
        (mechanisms, "_pack"),
        (mechanisms, "_first_violation"),
        (mechanisms.Mechanism, "grid_payoffs"),
        (mechanisms.QuadraticPanelMechanism, "grid_payoffs"),
        (mechanisms.MeanScoreMechanism, "grid_payoffs"),
    ):
        _counting(monkeypatch, holder, name, calls)
    rng = random.Random(21)
    verdicts = set()
    for kind in PROPER_KINDS:
        for n, d in ((2, 5), (3, 4), (4, 3)):
            m, target = _instance(rng, kind, n, d)
            verdicts.add(ic_verify(m, target, d).elicits_target)
    assert calls == [] and verdicts == {True, False}


def test_table_rows_follow_the_first_report_of_each_belief():
    e = Experiment(("a", "b"), ("0", "1"), Matrix.identity(2))
    half, left = Belief((F(1, 2), F(1, 2))), Belief.point_mass(2, 0)
    rows = [[0, F(1, 3)], [1, 0], [5, 5]]
    table = TableMechanism(e, ("x", "y", "z"), Matrix.from_rows(rows), [half, left, half])
    assert table.report_for_belief(half) == "x"
    assert table.report_for_belief(Belief((1, 0))) == "y"
    # (1,1)/2 and (3,3)/6 are the same belief: both get the first report's row
    assert table.grid_payoffs([[1, 1], [2, 0]], 2) == ([[0, 1], [3, 0]], 3)
    assert table.grid_payoffs([[3, 3]], 6) == ([[0, 1]], 3)
    for call, d in (
        (lambda: table.report_for_belief(Belief.point_mass(2, 1)), 1),
        (lambda: table.grid_payoffs([[2, 0], [0, 2]], 2), 2),
    ):
        # the error names the missing belief and the grid it was asked on
        message = rf"^belief \(0,1\) is not on the tabulated report menu \(grid denominator {d}\)$"
        with pytest.raises(ValueError, match=message):
            call()
    bare = TableMechanism(e, ("x", "y"), Matrix.from_rows(rows[:2]))
    for call in (lambda: bare.report_for_belief(half), lambda: bare.grid_payoffs([[1, 1]], 2)):
        with pytest.raises(ValueError, match="^table mechanism has no belief-to-report rule$"):
            call()


def test_reports_survive_pickling_and_replace():
    rng = random.Random(23)
    m, target = _instance(rng, "constant", 3, 4)
    report = ic_verify(m, target, 4)
    assert report.violation is not None
    copy = pickle.loads(pickle.dumps(report))
    assert copy == report and hash(copy) == hash(report)
    assert copy.to_doc() == report.to_doc()
    fewer = dataclasses.replace(report, pairs_checked=report.pairs_checked - 1)
    assert fewer != report and fewer.violation == report.violation
    assert fewer.to_doc() == {**report.to_doc(), "pairs_checked": report.pairs_checked - 1}
    gap = dataclasses.replace(report.violation, gap=F(1))
    assert gap != report.violation and (gap.belief, gap.gap) == (report.violation.belief, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.pairs_checked = 0
    assert not hasattr(report, "__dict__") and not hasattr(report.violation, "__dict__")


def _grid_calls(monkeypatch) -> list:
    calls = []
    _counting(monkeypatch, mechanisms, "grid_counts", calls)
    _counting(monkeypatch, mechanisms, "_grid_classes", calls)
    return calls


def test_one_call_enumerates_the_grid_and_packs_its_counts_once(monkeypatch):
    calls = []
    for name in ("grid_counts", "_pack_counts", "_grid_classes"):
        _counting(monkeypatch, mechanisms, name, calls)
    rng = random.Random(29)
    e = Experiment(("a", "b", "c"), ("0", "1", "2"), Matrix.identity(3))
    unspanned = (mean_mechanism(e, [0, 1, 2], [0, 1, 2]), maximal_partition(e), 4)
    # a compound with a table sub is not proper: it packs its composed rows
    mix = CovariateMixture(("a", "b"), (F(1, 2), F(1, 2)), (e, e))
    subs = (quadratic_mechanism(e), tabulate(quadratic_mechanism(e), belief_grid(3, 4)))
    tabled = (compound_mechanism(mix, subs), maximal_partition(e), 4)
    others = (_instance(rng, kind, 3, 4) + (4,) for kind in KINDS[4:] if kind != "compound")
    for m, target, d in (*others, unspanned, tabled):
        calls.clear()
        ic_verify(m, target, d)
        assert sorted(calls) == ["_grid_classes", "_pack_counts", "grid_counts"], m.kind
    # a compound of panels against its maximal partition builds no grid
    calls.clear()
    assert ic_verify(*_instance(rng, "compound", 3, 4), 4).elicits_target
    assert calls == []


def test_spanned_targets_are_settled_without_the_grid(monkeypatch):
    calls = _grid_calls(monkeypatch)
    e = random_experiment(random.Random(25), 4, 3)
    weights = [F(1), F(-2), F(1, 2)]
    statistic = e.kernel.mul_vec(weights)
    mean = mean_mechanism(e, statistic, weights)
    for m, target in (
        (quadratic_mechanism(e), maximal_partition(e)),
        (mean, StatisticFamily(e.parameters, (statistic,))),
        (quadratic_mechanism(e), StatisticFamily(e.parameters, ())),
        (mean, StatisticFamily(e.parameters, ())),
    ):
        assert ic_verify(m, target, 6) == ICReport(True, True, None, 6, 84 * 83)
    assert calls == []


def test_unspanned_targets_take_the_class_pass(monkeypatch):
    calls = _grid_calls(monkeypatch)
    # mean (0,1,2) on the point masses: it cannot tell (1,0,1)/2 from (0,1,0)
    e = Experiment(("a", "b", "c"), ("0", "1", "2"), Matrix.identity(3))
    m = mean_mechanism(e, [0, 1, 2], [0, 1, 2])
    target = maximal_partition(e)
    # the denominator-1 grid holds only point masses, whose means differ
    assert ic_verify(m, target, 1) == ICReport(True, True, None, 1, 6)
    assert calls
    calls.clear()
    report = ic_verify(m, target, 2)
    assert calls
    assert report == reference_ic_verify(m, target, 2)
    half, middle = Belief((F(1, 2), 0, F(1, 2))), Belief.point_mass(3, 1)
    assert report.violation == ICViolation("strictness", middle, half, F(0))


def _spanned_family(rng, m, extra: bool) -> StatisticFamily:
    """Integer combinations of m's scored rows plus a constant, and with
    ``extra`` one random row besides (which is mostly outside their span)."""
    scored = m._scored_rows()
    n = len(m.experiment.parameters)
    functions = []
    for _ in range(rng.randint(1, 2)):
        coefficients = [rng.randint(-3, 3) for _ in scored]
        constant = rng.randint(-3, 3)
        scale = F(1, rng.randint(1, 4))
        functions.append(tuple(
            scale * (sum(a * row[i] for a, row in zip(coefficients, scored)) + constant)
            for i in range(n)
        ))
    if extra:
        functions.insert(rng.randrange(len(functions) + 1),
                         tuple(F(rng.randint(-2, 2)) for _ in range(n)))
    return StatisticFamily(m.experiment.parameters, tuple(functions))


def test_span_certificate_matches_the_scan(monkeypatch):
    calls = _grid_calls(monkeypatch)
    rng = random.Random(27)
    branches = {"span": 0, "class pass": 0}
    for i in range(600):
        n, d = rng.randint(1, 5), rng.randint(1, 7)
        m, _ = _instance(rng, rng.choice(PROPER_KINDS), n, d)
        target = _spanned_family(rng, m, extra=i % 2 == 1)
        calls.clear()
        report = ic_verify(m, target, d)
        branches["class pass" if calls else "span"] += 1
        if not calls:
            assert report == ICReport(True, True, None, d, report.pairs_checked)
        scanned = ic_verify(tabulate(m, belief_grid(n, d)), target, d)
        assert report == scanned and report.to_doc() == scanned.to_doc()
    assert all(count >= 100 for count in branches.values()), branches


def test_the_kept_annihilator_is_built_once(monkeypatch):
    calls = []
    _counting(monkeypatch, exactcore.Span, "of", calls)
    rng = random.Random(31)
    # mean (0,1,2) on the point masses: (1,0,1)/2 and (0,1,0) share it
    e = Experiment(("a", "b", "c"), ("0", "1", "2"), Matrix.identity(3))
    proper = mean_mechanism(e, [0, 1, 2], [0, 1, 2])
    anti = _table(e, [[1 - x for x in quadratic_mechanism(e).payoff_vector(p)]
                      for p in belief_grid(3, 2)], 2)
    spanned = StatisticFamily(e.parameters, ((0, 1, 2), (5, 3, 1)))
    targets = (maximal_partition(e), spanned, *(_random_family(rng, e) for _ in range(4)))
    first = [ic_verify(proper, target, d) for d in (1, 2, 3) for target in targets]
    assert {r.elicits_target for r in first} == {True, False}
    assert calls == ["of"] and proper._scored_span.annihilator == ((1, -2, 1),)
    assert [ic_verify(proper, target, d) for d in (1, 2, 3) for target in targets] == first
    ic_verify(anti, maximal_partition(e), 2)
    assert calls == ["of"] and anti._scored_span is None


def test_a_panel_reads_its_experiments_kept_null_directions():
    rng = random.Random(37)
    deficient = 0
    for n in range(1, 6):
        for m in range(1, 6):
            e = random_experiment(rng, n, m)
            panel = quadratic_mechanism(e)
            assert panel._scored_span == e.span
            # the kernel columns sum to the constant row, so [columns; 1] spans what they span
            columns = e._kernel_ints[0]
            assert e.span == exactcore.Span.of([*columns, [1] * n], n)
            deficient += bool(e.span.annihilator)
            for target in (maximal_partition(e), _random_family(rng, e)):
                assert ic_verify(panel, target, 2) == reference_ic_verify(panel, target, 2)
    assert deficient >= 10


def test_a_full_rank_scored_basis_elicits_any_target_with_no_grid(monkeypatch):
    calls = _grid_calls(monkeypatch)
    rng = random.Random(33)
    # point masses: the panel scores every parameter's weight
    e = Experiment(("a", "b", "c"), ("0", "1", "2"), Matrix.identity(3))
    # two parameters: [statistic; 1] has full rank for any nonconstant statistic
    e2 = random_experiment(rng, 2, 3)
    weights = [F(1), F(-2), F(1, 2)]
    mean = mean_mechanism(e2, e2.kernel.mul_vec(weights), weights)
    for m, ex in ((quadratic_mechanism(e), e), (mean, e2)):
        assert m._scored_span.annihilator == ()
        for target in (maximal_partition(ex), *(_random_family(rng, ex) for _ in range(10))):
            for d in (1, 2, 4):
                report = ic_verify(m, target, d)
                assert report.elicits_target and report.violation is None
                assert report == reference_ic_verify(m, target, d)
    assert calls == []


def test_zero_columns_and_constant_targets_span():
    e = Experiment(
        ("a", "b", "c"),
        ("0", "1", "2"),
        Matrix.from_rows([[F(1, 2), 0, F(1, 2)], [F(1, 4), 0, F(3, 4)], [1, 0, 0]]),
    )
    trivial = StatisticFamily(e.parameters, ((0, 0, 0), (F(2, 3),) * 3))
    for target in (trivial, maximal_partition(e)):
        report = _same_on_both_paths(quadratic_mechanism(e), target, 4)
        assert report == ICReport(True, True, None, 4, 15 * 14)
    # the zero and constant rows add nothing to a statistic the score misses
    m = mean_mechanism(e, [1, 1, 1], [1, 1, 1])
    assert not _same_on_both_paths(m, maximal_partition(e), 4).elicits_target
    assert _same_on_both_paths(m, trivial, 4).elicits_target


def _first_seen_ids(keys) -> list[int]:
    ids: dict = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


@pytest.mark.parametrize("n, d", [(1, 10**6), (2, 300), (3, 7), (4, 5), (5, 3)])
def test_grid_classes_match_the_per_belief_means(n, d):
    # the packed classes against each belief's exact integer sums; d = 300
    # needs two bytes per count, and 10^6 entries need wide sub-slots
    rng = random.Random(31 * n + d)
    counts = list(grid_counts(n, d))
    entries = (-(10**6), -3, -1, 0, 0, 2, 7, 10**6)
    families = [
        [],
        [[0] * n, [5] * n, [-2] * n],
        [[rng.choice(entries) for _ in range(n)] for _ in range(3)],
        [[rng.randint(-2, 2) for _ in range(n)] for _ in range(2)],
        [[t % 2 for t in range(n)], [0] * n],
    ]
    expected = [
        _first_seen_ids(tuple(sum(a * b for a, b in zip(k, row)) for row in rows) for k in counts)
        for rows in families
    ]
    assert mechanisms._grid_classes(counts, d, families) == expected
    if n > 2:  # ties occur, so the classes are not all singletons
        assert len(set(expected[4])) < len(counts)


def test_counts_wider_than_a_byte_keep_their_reports():
    # reports pinned from per-belief sums; each violation lies past count
    # 255, where a count takes two bytes
    e = Experiment(
        ("a", "b"),
        ("0", "1", "2"),
        Matrix.from_rows([[F(1, 2), F(1, 3), F(1, 6)], [F(1, 4), 0, F(3, 4)]]),
    )
    beliefs = belief_grid(2, 300)
    rows = [list(quadratic_mechanism(e).payoff_vector(p)) for p in beliefs]
    rows[290] = [x + F(1, 10**5) for x in rows[290]]  # report (29/30, 1/30) tempts its neighbours
    report = ic_verify(_table(e, rows, 300), maximal_partition(e), 300)
    near, tempting = Belief((F(24, 25), F(1, 25))), Belief((F(29, 30), F(1, 30)))
    violation = ICViolation("weak_ic", near, tempting, F(-29, 12150000))
    assert report == ICReport(False, False, violation, 300, 301 * 300)
    # the class pass: mean k1 + 300 k2 ties (0, 300, 0) with (299, 0, 1)
    e3 = Experiment(("a", "b", "c"), ("0", "1", "2"), Matrix.identity(3))
    m = mean_mechanism(e3, [0, 1, 300], [0, 1, 300])
    report = ic_verify(m, maximal_partition(e3), 300, max_pairs=3 * 10**9)
    pair = Belief.point_mass(3, 1), Belief((F(299, 300), 0, F(1, 300)))
    assert report == ICReport(True, False, ICViolation("strictness", *pair, F(0)), 300, 2065747950)


def test_one_parameter_at_a_million():
    e = random_experiment(random.Random(33), 1, 3)
    negative = StatisticFamily(e.parameters, ((F(-5, 2),), (0,)))
    biased = mean_mechanism(e, [F(1, 3)], [0, 1, 2], check_unbiased=False)
    table = tabulate(quadratic_mechanism(e), belief_grid(1, 10**6))
    for m in (biased, table, quadratic_mechanism(e)):
        for target in (negative, maximal_partition(e)):
            assert _verified(m, target, 10**6)[0] == ICReport(True, True, None, 10**6, 0)


def test_odd_targets_and_a_zero_column_match_the_reference():
    # outcome "1" never occurs, and the targets hold negative, zero and
    # constant rows; quadratic panels reach the class pass, since the kernel's
    # columns span only two directions
    e = Experiment(
        ("a", "b", "c"),
        ("0", "1", "2"),
        Matrix.from_rows([[F(1, 2), 0, F(1, 2)], [F(1, 4), 0, F(3, 4)], [1, 0, 0]]),
    )
    targets = (
        StatisticFamily(e.parameters, ((-3, 0, F(5, 2)), (0, 0, 0), (F(-7, 3),) * 3)),
        StatisticFamily(e.parameters, ((-1, -1, F(-1, 2)),)),
        maximal_partition(e),
    )
    rng = random.Random(35)
    other = random_experiment(rng, 3, 2, 4, e.parameters)
    mix = CovariateMixture(("x", "y"), (F(1, 3), F(2, 3)), (e, other))
    compound = compound_mechanism(mix, (quadratic_mechanism(e), quadratic_mechanism(other)))
    proper = quadratic_mechanism(e)
    garbled = garble(e, Matrix.from_rows([[F(2, 3), F(1, 3)], [0, 1], [F(1, 2), F(1, 2)]]))
    witness = elicitation_dominates(e, garbled).witness
    biased = mean_mechanism(e, [1, F(1, 2), -2], [0, 5, 1], check_unbiased=False)
    seen = set()
    for d in (1, 2, 3, 4):
        beliefs = belief_grid(3, d)
        anti = _table(e, [[1 - x for x in proper.payoff_vector(p)] for p in beliefs], d)
        pushed = pushforward(tabulate(quadratic_mechanism(garbled), beliefs), witness, e)
        for m in (proper, tabulate(proper, beliefs), anti, pushed, biased):
            for target in targets:
                report, _ = _verified(m, target, d)
                seen.add(None if report.violation is None else report.violation.check)
        for target in targets:
            family = StatisticFamily(compound.experiment.parameters, target.functions)
            _verified(compound, family, d)
    assert seen == {None, "weak_ic", "strictness"}, seen


def _shared_inputs(seed, n):
    """Mechanisms of every kind on one experiment, and targets they all take;
    each call builds them anew, so they share no kept form with another."""
    rng = random.Random(seed)
    params = tuple(f"t{i}" for i in range(n))
    e = random_experiment(rng, n, 3, 4, params)
    weights = [F(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in e.outcomes]
    statistic = list(e.kernel.mul_vec(weights))
    biased = statistic[:-1] + [statistic[-1] + F(1, 2)]
    proper, menu = quadratic_mechanism(e), belief_grid(n, 6)
    other = random_experiment(rng, n, 2, 4, params)
    mix = CovariateMixture(("a", "b"), (F(1, 3), F(2, 3)), (e, other))
    garbled = garble(e, random_experiment(rng, 3, 2, 3).kernel)
    witness = elicitation_dominates(e, garbled).witness
    built = (
        proper,
        mean_mechanism(e, statistic, weights, rng.choice(("brier", "linear"))),
        mean_mechanism(e, biased, weights, check_unbiased=False),
        tabulate(proper, menu),
        _table(e, [[1 - x for x in proper.payoff_vector(p)] for p in menu], 6),
        pushforward(tabulate(quadratic_mechanism(garbled), menu), witness, e),
        compound_mechanism(mix, (proper, quadratic_mechanism(other))),
    )
    targets = (
        maximal_partition(e),
        StatisticFamily(params, (tuple(statistic),)),
        _random_family(rng, e),
        _random_family(rng, e),
        StatisticFamily(params, ()),
    )
    return built, targets


def test_kept_forms_answer_like_fresh_objects():
    # every mechanism of one experiment verified against targets they share,
    # at varied denominators, in random order: each report is what fresh
    # objects and the reference give, so nothing kept on an input leaks
    # from one call into the next
    rng = random.Random(41)
    seen = set()
    for n in (2, 3):
        seed = rng.randrange(10**6)
        kept, targets = _shared_inputs(seed, n)
        # the tables answer on the grids their denominator-6 menu covers
        calls = [(i, j, d) for i in range(len(kept)) for j in range(len(targets))
                 for d in (1, 2, 3, 6)]
        rng.shuffle(calls)
        for i, j, d in calls:
            report = ic_verify(kept[i], targets[j], d)
            fresh, fresh_targets = _shared_inputs(seed, n)
            assert report == ic_verify(fresh[i], fresh_targets[j], d), (i, j, d)
            assert report == reference_ic_verify(kept[i], targets[j], d), (i, j, d)
            seen.add(None if report.violation is None else report.violation.check)
    assert seen == {None, "weak_ic", "strictness"}, seen


def test_repeated_calls_scale_nothing_again(monkeypatch):
    e = random_experiment(random.Random(43), 4, 3)
    weights = [F(1), F(-2), F(1, 2)]
    statistic = tuple(e.kernel.mul_vec(weights))
    proper = quadratic_mechanism(e)
    anti = _table(e, [[1 - x for x in proper.payoff_vector(p)] for p in belief_grid(4, 3)], 3)
    mean = mean_mechanism(e, statistic, weights)
    cases = (
        (proper, maximal_partition(e)),  # the span certificate
        (proper, StatisticFamily(e.parameters, ((1, 0, 0, 0),))),  # the class pass
        (anti, maximal_partition(e)),  # the packed-row scan
        (mean, StatisticFamily(e.parameters, (statistic,))),
        (mean, maximal_partition(e)),
    )
    first = [ic_verify(m, target, 3) for m, target in cases]
    assert {r.elicits_target for r in first} == {True, False}
    calls = []
    for holder in (exactcore, model, elicit, mechanisms):
        _counting(monkeypatch, holder, "_scaled_ints", calls)
    for _ in range(3):
        assert [ic_verify(m, target, 3) for m, target in cases] == first
    assert calls == []
    # fresh inputs scale theirs on their first call, and only then
    fresh = Experiment(e.parameters, e.outcomes, e.kernel)
    target = StatisticFamily(e.parameters, maximal_partition(e).functions)
    ic_verify(quadratic_mechanism(fresh), target, 3)
    assert calls
    calls.clear()
    ic_verify(quadratic_mechanism(fresh), target, 3)
    assert calls == ["_scaled_ints"]  # the new panel's event weights
