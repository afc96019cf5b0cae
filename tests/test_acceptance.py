"""Acceptance criteria, one test per criterion, exact unless stated.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. Every assertion is exact rational equality except the density
criterion's, which compare the correctly rounded floats of exact values.

Criterion 10 is known red in its last clause: it requires the degree-weighted
approximation error of the exponential density to stay within a factor 10 of
its median across degrees 1..8. The exponential density is analytic, so its
orthogonal-expansion error decays super-polynomially (the computed sweep
spans eighteen orders of magnitude); no faithful implementation can keep the
degree-weighted error inside a two-sided factor-10 band. The check is kept
as stated rather than weakened; the strict-decrease and exact-reproduction
clauses pass.
"""

from __future__ import annotations

import json
import statistics
import time
from fractions import Fraction as F

from elicitkit.catalog import (
    bernoulli_experiment,
    german_tank_experiment,
    limited_liability_separation_pair,
    noisy_bernoulli_experiment,
    random_experiment_pairs,
)
from elicitkit.cli import main
from elicitkit.exactcore import Matrix, rank
from elicitkit.model import (
    Belief,
    Experiment,
    belief_grid,
    mean_outcome_distribution,
    power,
    uniform_garble,
)
from elicitkit.elicit import (
    complete_elicitation,
    maximal_partition,
    mode_elicitable,
    statistic_mean,
    unbiased_weights,
)
from elicitkit.mechanisms import (
    TableMechanism,
    envelope_check,
    expected_payoff,
    ic_verify,
    level_set_transform,
    mean_mechanism,
    pushforward,
    quadratic_mechanism,
    tabulate,
    value_function,
)
from elicitkit.orders import (
    blackwell_dominates,
    bounded_dominates,
    elicitation_dominates,
    nonneg_dominates,
    order_consistency_audit,
    uniform_garbling_decomposition,
)

GRID = (F(0), F(1, 2), F(1))
MIXING = [["19/20", "1/20"], ["1/20", "19/20"]]


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {name}: {status}{suffix}")


def _write_experiments(tmp_path, **experiments):
    from elicitkit.model import experiment_to_doc

    paths = {}
    for name, e in experiments.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(experiment_to_doc(e)))
        paths[name] = str(path)
    return paths


def test_criterion_01_noisy_trial_comparisons(tmp_path, capsys):
    """Blackwell one way with the exact mixing witness; elicitation both ways."""
    started = time.perf_counter()
    paths = _write_experiments(
        tmp_path, clean=bernoulli_experiment(), noisy=noisy_bernoulli_experiment()
    )
    ok = True

    assert main(["compare", "blackwell", paths["clean"], paths["noisy"]]) == 0
    forward = json.loads(capsys.readouterr().out)
    ok &= forward == {"relation": "blackwell", "holds": True, "witness": MIXING}

    assert main(["compare", "blackwell", paths["noisy"], paths["clean"]]) == 0
    backward = json.loads(capsys.readouterr().out)
    ok &= backward["holds"] is False

    for src, dst in (("clean", "noisy"), ("noisy", "clean")):
        assert main(["compare", "elicitation", paths[src], paths[dst]]) == 0
        ok &= json.loads(capsys.readouterr().out)["holds"] is True

    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    with capsys.disabled():
        _report(1, "noisy-trial comparisons", ok, f"{elapsed:.3f}s")
    assert ok


def test_criterion_02_separation_pair_relations(tmp_path, capsys):
    """Blackwell fails, nonneg and bounded hold, witnesses verify exactly."""
    started = time.perf_counter()
    ey, ez = limited_liability_separation_pair()
    paths = _write_experiments(tmp_path, wide=ey, narrow=ez)
    ok = True

    assert main(["compare", "blackwell", paths["wide"], paths["narrow"]]) == 0
    ok &= json.loads(capsys.readouterr().out)["holds"] is False

    assert main(["compare", "nonneg", paths["wide"], paths["narrow"]]) == 0
    nonneg_doc = json.loads(capsys.readouterr().out)
    ok &= nonneg_doc["holds"] is True
    witness = Matrix.from_rows(nonneg_doc["witness"])
    ok &= ey.kernel @ witness == ez.kernel
    ok &= all(v >= 0 for v in witness.entries)

    assert main(["compare", "bounded", paths["wide"], paths["narrow"]]) == 0
    bounded_doc = json.loads(capsys.readouterr().out)
    ok &= bounded_doc["holds"] is True

    elapsed = time.perf_counter() - started
    ok &= elapsed < 5.0
    with capsys.disabled():
        _report(2, "separation-pair relations", ok, f"{elapsed:.3f}s")
    assert ok


def test_criterion_03_garbling_decomposition(capsys):
    """Noise level exactly 1/10, identity transition, exact round trip."""
    clean = bernoulli_experiment()
    noisy = noisy_bernoulli_experiment()
    decomposition = uniform_garbling_decomposition(noisy, clean)
    ok = decomposition.noise == F(1, 10)
    ok &= decomposition.transition == Matrix.identity(2)
    ok &= uniform_garble(clean, F(1, 10)).kernel == noisy.kernel
    with capsys.disabled():
        _report(3, "uniform garbling decomposition", ok)
    assert ok


def test_criterion_04_serial_number_weights(capsys):
    """Closed-form threshold weights and one-observation full-belief recovery."""
    ok = True
    for n_max in (3, 5, 8):
        e = german_tank_experiment(n_max)
        for m in range(1, n_max):
            statistic = [F(1) if size <= m else F(0) for size in range(1, n_max + 1)]
            report = unbiased_weights(e, statistic)
            expected = tuple(
                F(1) if k <= m else (F(-m) if k == m + 1 else F(0))
                for k in range(1, n_max + 1)
            )
            ok &= report.elicitable and report.weights == expected
        ok &= complete_elicitation(e).full_belief_elicitable
    with capsys.disabled():
        _report(4, "serial-number closed-form weights", ok)
    assert ok


def test_criterion_05_ic_oracle(capsys):
    """Exhaustive incentive check of the quadratic panel at grid 1/6."""
    started = time.perf_counter()
    e = bernoulli_experiment()
    mechanism = quadratic_mechanism(e)
    report = ic_verify(mechanism, maximal_partition(e), 6)
    ok = report.incentive_compatible and report.elicits_target
    ok &= report.pairs_checked == 28 * 27

    # strict gap exactly when the mean outcome distributions differ
    beliefs = belief_grid(3, 6)
    lambdas = {p: mean_outcome_distribution(e, p) for p in beliefs}
    for p in beliefs:
        truth = expected_payoff(mechanism, p, p)
        for q in beliefs:
            gap = truth - expected_payoff(mechanism, p, q)
            if lambdas[p] == lambdas[q]:
                ok &= gap == 0
            else:
                ok &= gap > 0

    documented_p = Belief((F(1, 2), F(0), F(1, 2)))
    documented_q = Belief((F(1, 6), F(2, 3), F(1, 6)))
    ok &= expected_payoff(mechanism, documented_p, documented_p) == expected_payoff(
        mechanism, documented_p, documented_q
    )
    elapsed = time.perf_counter() - started
    ok &= elapsed < 30.0
    with capsys.disabled():
        _report(5, "exhaustive incentive oracle", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_06_mode_impossibility(capsys):
    """Mode witness with equal outcome distributions and disjoint mode sets."""
    e = bernoulli_experiment()
    single = mode_elicitable(e, GRID)
    ok = not single.elicitable
    plus, minus = single.witness
    ok &= mean_outcome_distribution(e, plus) == mean_outcome_distribution(e, minus)
    ok &= not set(plus.modes()) & set(minus.modes())
    high, low = single.witness_modes
    ok &= set(high) == set(plus.modes()) and set(low) == set(minus.modes())

    doubled = power(e, 2)
    ok &= mode_elicitable(doubled, GRID).elicitable
    with capsys.disabled():
        _report(6, "mode impossibility witness", ok)
    assert ok


def test_criterion_07_observation_counts(capsys):
    """n-1 observations always suffice; fewer outcomes than parameters never do."""
    ok = True
    for n in (2, 3, 4):
        rates = [F(i, n - 1) for i in range(n)]
        e = bernoulli_experiment(rates)
        report = complete_elicitation(e)
        cert = report.vandermonde_certificate
        ok &= cert is not None and cert.copies == n - 1
        ok &= cert.determinant != 0
        ok &= cert.product_full_belief_elicitable
        ok &= rank(power(e, n - 1).kernel) == n

        if n == 2:
            small = Experiment(
                ("a", "b"), ("y",), Matrix.from_rows([[1], [1]])
            )
        else:
            small = e  # two outcomes, n > 2 parameters
        single = complete_elicitation(small)
        ok &= single.impossible_by_dimension
        ok &= not single.full_belief_elicitable
    with capsys.disabled():
        _report(7, "observation-count bounds", ok)
    assert ok


def test_criterion_08_payoff_transfer(capsys):
    """Every earlier witness transports a 3-report table with exact expectations."""
    clean = bernoulli_experiment()
    noisy = noisy_bernoulli_experiment()
    ey, ez = limited_liability_separation_pair()
    ok = True

    def transfer_matches(base, matrix, target, grid):
        moved = pushforward(base, matrix, target)
        return all(
            expected_payoff(moved, p, r) == expected_payoff(base, p, r)
            for p in grid
            for r in base.reports
        )

    def binary_table(e):
        return TableMechanism(
            e,
            ("low", "mid", "high"),
            Matrix.from_rows([[F(0), F(1)], [F(1, 2), F(1, 2)], [F(1), F(0)]]),
        )

    grid3 = belief_grid(3, 4)

    # witnesses from the noisy-trial fixture, both directions
    ok &= transfer_matches(
        binary_table(noisy), blackwell_dominates(clean, noisy).witness, clean, grid3
    )
    ok &= transfer_matches(
        binary_table(noisy), elicitation_dominates(clean, noisy).witness, clean, grid3
    )
    ok &= transfer_matches(
        binary_table(clean), elicitation_dominates(noisy, clean).witness, noisy, grid3
    )

    # witnesses from the separation pair
    three_table = TableMechanism(
        ez,
        ("low", "mid", "high"),
        Matrix.from_rows(
            [[F(1), F(1, 2), F(0)], [F(1, 2), F(1, 2), F(1, 2)], [F(0), F(1, 2), F(1)]]
        ),
    )
    ok &= transfer_matches(
        three_table, nonneg_dominates(ey, ez).witness, ey, grid3
    )
    ok &= transfer_matches(
        three_table, elicitation_dominates(ey, ez).witness, ey, grid3
    )

    event_witness = bounded_dominates(ey, ez).event_weights
    moved = level_set_transform(three_table, event_witness, ey)
    ok &= all(F(0) <= v <= F(1) for v in moved.payoffs.entries)
    ok &= all(
        expected_payoff(moved, p, r) == expected_payoff(three_table, p, r)
        for p in grid3
        for r in three_table.reports
    )
    state = Belief.point_mass(3, 0)
    ok &= expected_payoff(three_table, state, "low") == F(3, 4)
    ok &= expected_payoff(moved, state, "low") == F(3, 4)
    with capsys.disabled():
        _report(8, "payoff-equivalent transport", ok)
    assert ok


def test_criterion_09_envelope_property(capsys):
    """Value function is the squared mean; the pushforward twin matches it."""
    clean = bernoulli_experiment()
    noisy = noisy_bernoulli_experiment()
    m = mean_mechanism(clean, GRID, (F(0), F(1)), variant="linear")
    grid = belief_grid(3, 8)
    reports = [m.report_for_belief(p) for p in grid]
    ok = all(
        value_function(m, p, reports) == statistic_mean(GRID, p) ** 2 for p in grid
    )

    table = tabulate(m, grid)
    twin = pushforward(
        table, elicitation_dominates(noisy, clean).witness, noisy
    )
    verdict = envelope_check(table, twin, grid)
    ok &= verdict.values_agree and verdict.cross_payoffs_agree
    ok &= all(
        expected_payoff(table, p, table.report_for_belief(q))
        == expected_payoff(twin, p, twin.report_for_belief(q))
        for p in grid
        for q in grid
    )
    with capsys.disabled():
        _report(9, "envelope property", ok)
    assert ok


def test_criterion_10_density_rate(capsys):
    """Exact reproduction plus sweep behavior; see module docstring.

    The factor-10-of-median clause is unattainable for an analytic density
    and is expected to fail; it is asserted as stated rather than weakened.
    """
    from elicitkit.demos import demo_density

    started = time.perf_counter()
    quadratic = demo_density("quadratic", 8)
    mise_quadratic = [
        quadratic.artifacts["mise_by_degree"][str(n)] for n in range(1, 9)
    ]
    exact_ok = all(value == 0.0 for value in mise_quadratic[1:])

    exponential = demo_density("exponential", 8)
    mise_exp = [exponential.artifacts["mise_by_degree"][str(n)] for n in range(1, 9)]
    decreasing_ok = all(b < a for a, b in zip(mise_exp, mise_exp[1:]))

    weighted = [n * mise_exp[n - 1] for n in range(1, 9)]
    median = statistics.median(weighted)
    band_ok = all(median / 10 <= value <= median * 10 for value in weighted)

    elapsed = time.perf_counter() - started
    time_ok = elapsed < 10.0
    ok = exact_ok and decreasing_ok and band_ok and time_ok
    detail = (
        f"exact={exact_ok} decreasing={decreasing_ok} band={band_ok} "
        f"span={max(weighted) / min(weighted):.1e} {elapsed:.2f}s"
    )
    with capsys.disabled():
        _report(10, "density approximation rate", ok, detail)
    assert exact_ok and decreasing_ok and time_ok
    assert band_ok, (
        "degree-weighted error spans "
        f"{max(weighted) / min(weighted):.1e} across the sweep; an analytic "
        "density cannot stay within a factor 10 of the median"
    )


def test_criterion_11_order_chain_audit(capsys):
    """No chain violations across fixtures plus a 50-pair random corpus."""
    started = time.perf_counter()
    clean = bernoulli_experiment()
    noisy = noisy_bernoulli_experiment()
    pairs = [
        (clean, noisy),
        (noisy, clean),
        limited_liability_separation_pair(),
    ]
    pairs += random_experiment_pairs(seed=2026, count=50)
    report = order_consistency_audit(pairs)
    ok = report.violations == ()
    ok &= report.pair_count == 53
    ok &= report.found_elicitation_without_nonneg
    ok &= report.found_nonneg_without_blackwell
    elapsed = time.perf_counter() - started
    ok &= elapsed < 120.0
    with capsys.disabled():
        _report(11, "order-chain audit", ok, f"{elapsed:.2f}s")
    assert ok
