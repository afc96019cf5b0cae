"""Mechanism payoffs, incentive verification, and payoff-equivalent transforms."""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from elicitkit.catalog import (
    bernoulli_experiment,
    german_tank_experiment,
    limited_liability_separation_pair,
    noisy_bernoulli_experiment,
    random_experiment,
)
from elicitkit.exactcore import Matrix, _scaled_ints
from elicitkit.model import (
    Belief,
    CovariateMixture,
    Experiment,
    belief_grid,
    mean_outcome_distribution,
)
from elicitkit.elicit import maximal_partition, statistic_mean
from elicitkit.mechanisms import (
    QuadraticPanelMechanism,
    TableMechanism,
    _upper_level_decomposition,
    compound_mechanism,
    envelope_check,
    expected_payoff,
    ic_verify,
    level_set_transform,
    load_mechanism,
    mean_mechanism,
    mechanism_to_doc,
    pushforward,
    quadratic_mechanism,
    tabulate,
    value_function,
)
from elicitkit.orders import (
    bounded_dominates,
    elicitation_dominates,
    nonneg_dominates,
)

GRID = (F(0), F(1, 2), F(1))


class TestEvaluate:
    def test_quadratic_point_mass_perfect_score(self):
        m = quadratic_mechanism(bernoulli_experiment())
        assert m.payoff(Belief.point_mass(3, 2), "1") == F(1)

    def test_mean_score_half_report(self):
        m = mean_mechanism(bernoulli_experiment(), GRID, (F(0), F(1)))
        assert m.payoff(F(1, 2), "1") == F(3, 4)

    def test_table_lookup(self):
        m = TableMechanism(
            bernoulli_experiment(),
            ("a", "b"),
            Matrix.from_rows([[0, 1], ["1/2", "1/2"]]),
        )
        assert m.payoff("b", "0") == F(1, 2)
        with pytest.raises(ValueError):
            m.payoff("missing", "0")
        with pytest.raises(ValueError):
            m.payoff("a", "missing")


class TestQuadraticPanel:
    def test_degenerate_experiment_scores_one(self):
        e = Experiment(("a", "b"), ("y",), Matrix.from_rows([[1], [1]]))
        m = quadratic_mechanism(e)
        for p in belief_grid(2, 3):
            assert m.payoff_vector(p) == (F(1),)

    def test_truthful_point_mass_expected_payoff(self):
        m = quadratic_mechanism(bernoulli_experiment())
        p = Belief.point_mass(3, 2)
        assert expected_payoff(m, p, p) == F(1)

    def test_within_cell_indifference(self):
        m = quadratic_mechanism(bernoulli_experiment())
        p = Belief((F(1, 2), F(0), F(1, 2)))
        q = Belief((F(1, 6), F(2, 3), F(1, 6)))
        assert expected_payoff(m, p, p) == expected_payoff(m, p, q)
        assert m.payoff_vector(p) == m.payoff_vector(q)

    def test_expected_score_maximized_at_own_distribution(self):
        e = bernoulli_experiment()
        m = quadratic_mechanism(e)
        grid = belief_grid(3, 4)
        for p in grid:
            lam_p = mean_outcome_distribution(e, p)
            truth = expected_payoff(m, p, p)
            for q in grid:
                gap = truth - expected_payoff(m, p, q)
                if mean_outcome_distribution(e, q) == lam_p:
                    assert gap == 0
                else:
                    assert gap > 0

    def test_payoffs_stay_in_unit_interval(self):
        m = quadratic_mechanism(bernoulli_experiment())
        for p in belief_grid(3, 3):
            assert all(F(0) <= v <= F(1) for v in m.payoff_vector(p))

    def test_event_weights_validated(self):
        with pytest.raises(ValueError):
            QuadraticPanelMechanism(bernoulli_experiment(), [F(1, 2), F(1, 4)])


class TestMeanScore:
    def test_best_report_is_the_mean(self):
        e = bernoulli_experiment()
        m = mean_mechanism(e, GRID, (F(0), F(1)))
        p = Belief((F(1, 6), F(2, 3), F(1, 6)))
        mu = statistic_mean(GRID, p)
        reports = [F(k, 8) for k in range(9)]
        best = max(reports, key=lambda r: expected_payoff(m, p, r))
        assert best == mu == F(1, 2)
        # truthful expected payoff is 1 - Var of the weighted outcome
        lam = mean_outcome_distribution(e, p)
        variance = sum(l * (w - mu) ** 2 for l, w in zip(lam, (F(0), F(1))))
        assert expected_payoff(m, p, mu) == 1 - variance

    def test_deviation_cost_is_squared_distance(self):
        e = bernoulli_experiment()
        for variant in ("brier", "linear"):
            m = mean_mechanism(e, GRID, (F(0), F(1)), variant=variant)
            p = Belief((F(1, 6), F(2, 3), F(1, 6)))
            mu = m.report_for_belief(p)
            for nu in (F(0), F(1, 4), F(7, 8)):
                cost = expected_payoff(m, p, mu) - expected_payoff(m, p, nu)
                assert cost == (mu - nu) ** 2

    def test_serial_threshold_report(self):
        e = german_tank_experiment(5)
        statistic = (F(1), F(1), F(1), F(0), F(0))
        weights = (F(1), F(1), F(1), F(-3), F(0))
        m = mean_mechanism(e, statistic, weights)
        p = Belief((F(1, 5),) * 5)
        assert m.report_for_belief(p) == statistic_mean(statistic, p) == F(3, 5)

    def test_rejects_biased_weights(self):
        with pytest.raises(ValueError, match="unbiased"):
            mean_mechanism(bernoulli_experiment(), GRID, (F(0), F(3, 2)))

    def test_payoff_vector_matches_payoffs(self):
        e = german_tank_experiment(5)
        statistic = (F(1), F(1), F(1), F(0), F(0))
        weights = (F(1), F(1), F(1), F(-3), F(0))
        formulas = {
            "brier": lambda mu, w: 1 - (mu - w) ** 2,
            "linear": lambda mu, w: 2 * mu * w - mu * mu,
        }
        for variant, formula in formulas.items():
            m = mean_mechanism(e, statistic, weights, variant=variant)
            for mu in (F(0), F(3, 5), F(-2, 7), "1/3"):
                vec = m.payoff_vector(mu)
                assert vec == tuple(m.payoff(mu, y) for y in range(5))
                assert vec == tuple(formula(F(mu), w) for w in weights)
            with pytest.raises(ValueError, match="scalar mean estimate"):
                m.payoff_vector(Belief.uniform(5))

    def test_rejects_inexact_reports(self):
        m = mean_mechanism(bernoulli_experiment(), GRID, (F(0), F(1)))
        for report in (0.1, 0.5, True, False):
            with pytest.raises(ValueError, match="scalar mean estimate"):
                m.payoff_vector(report)
        assert m.payoff_vector(1) == m.payoff_vector(F(1)) == m.payoff_vector(" 1 ")

    def test_linear_variant_value(self):
        m = mean_mechanism(
            bernoulli_experiment(), GRID, (F(0), F(1)), variant="linear"
        )
        assert m.payoff(F(1, 2), "1") == F(3, 4)  # 2*(1/2)*1 - 1/4
        assert m.payoff(F(1, 2), "0") == F(-1, 4)


class TestCompound:
    def make_components(self):
        base = bernoulli_experiment()
        detector = Experiment(
            base.parameters,
            ("0", "1"),
            Matrix.from_rows([[1, 0], [1, 0], [0, 1]]),
        )
        return base, detector

    def test_single_covariate_matches_sub(self):
        base, _ = self.make_components()
        mix = CovariateMixture(("x",), (F(1),), (base,))
        sub = quadratic_mechanism(base)
        comp = compound_mechanism(mix, (sub,))
        for p in belief_grid(3, 2):
            assert comp.payoff_vector(p) == sub.payoff_vector(p)

    def test_expected_payoff_weights_covariates(self):
        base, detector = self.make_components()
        mix = CovariateMixture(("a", "b"), (F(1, 3), F(2, 3)), (base, detector))
        subs = (quadratic_mechanism(base), quadratic_mechanism(detector))
        comp = compound_mechanism(mix, subs)
        for p in belief_grid(3, 3):
            combined = expected_payoff(comp, p, p)
            split = F(1, 3) * expected_payoff(subs[0], p, p) + F(2, 3) * (
                expected_payoff(subs[1], p, p)
            )
            assert combined == split

    def test_strict_gap_when_either_component_separates(self):
        base, detector = self.make_components()
        mix = CovariateMixture(("a", "b"), (F(1, 2), F(1, 2)), (base, detector))
        comp = compound_mechanism(
            mix, (quadratic_mechanism(base), quadratic_mechanism(detector))
        )
        p = Belief((F(1, 2), F(0), F(1, 2)))
        q = Belief((F(1, 4), F(1, 2), F(1, 4)))
        # same mean success rate, so the binary trial alone is indifferent
        assert mean_outcome_distribution(base, p) == mean_outcome_distribution(
            base, q
        )
        assert mean_outcome_distribution(detector, p) != mean_outcome_distribution(
            detector, q
        )
        assert expected_payoff(comp, p, p) > expected_payoff(comp, p, q)

    def test_payoff_vector_matches_per_outcome_payoffs(self):
        base, detector = self.make_components()
        mix = CovariateMixture(("a", "b"), (F(1, 3), F(2, 3)), (base, detector))
        comp = compound_mechanism(
            mix, (quadratic_mechanism(base), quadratic_mechanism(detector))
        )
        for p in belief_grid(3, 3):
            assert comp.payoff_vector(p) == tuple(
                comp.payoff(p, y) for y in range(len(comp.experiment.outcomes))
            )
        with pytest.raises(ValueError, match="belief"):
            comp.payoff_vector(F(1, 2))

    def test_payoff_vector_scores_each_covariate_once(self, monkeypatch):
        import random

        from elicitkit.catalog import random_experiment

        rng = random.Random(7)
        params = ("t0", "t1", "t2")
        comps = (
            random_experiment(rng, 3, 4, 4, params),
            random_experiment(rng, 3, 5, 4, params),
        )
        mix = CovariateMixture(("a", "b"), (F(1, 2), F(1, 2)), comps)
        comp = compound_mechanism(mix, tuple(map(quadratic_mechanism, comps)))
        calls = []
        original = QuadraticPanelMechanism.grid_payoffs

        def counted(self, counts, d):
            calls.append((counts, d))
            return original(self, counts, d)

        monkeypatch.setattr(QuadraticPanelMechanism, "grid_payoffs", counted)
        vector = comp.payoff_vector(Belief.uniform(3))
        assert len(vector) == 9
        # one row of each sub's integer form, at the belief's counts
        assert calls == [([[1, 1, 1]], 3)] * 2

    def test_rejects_uncertified_sub_payoffs(self):
        base, _ = self.make_components()
        mix = CovariateMixture(("x",), (F(1),), (base,))
        unbounded = mean_mechanism(base, GRID, (F(0), F(1)))
        with pytest.raises(ValueError, match="certified"):
            compound_mechanism(mix, (unbounded,))

    def test_rejects_component_mismatch(self):
        base, detector = self.make_components()
        mix = CovariateMixture(("x",), (F(1),), (base,))
        with pytest.raises(ValueError, match="match"):
            compound_mechanism(mix, (quadratic_mechanism(detector),))


def three_report_table(experiment):
    return TableMechanism(
        experiment,
        ("low", "mid", "high"),
        Matrix.from_rows(
            [[F(0), F(1)], [F(1, 2), F(1, 2)], [F(1), F(0)]]
        )
        if len(experiment.outcomes) == 2
        else Matrix.from_rows(
            [
                [F(0), F(1, 2), F(1)][: len(experiment.outcomes)]
                + [F(0)] * (len(experiment.outcomes) - 3),
                [F(1, 2)] * len(experiment.outcomes),
                [F(1), F(1, 2), F(0)][: len(experiment.outcomes)]
                + [F(1)] * (len(experiment.outcomes) - 3),
            ]
        ),
    )


class TestPushforward:
    def test_identity_matrix_is_noop(self):
        e = bernoulli_experiment()
        table = three_report_table(e)
        pushed = pushforward(table, Matrix.identity(2), e)
        assert pushed.payoffs == table.payoffs

    def test_inverse_channel_preserves_expectations(self):
        clean = bernoulli_experiment()
        noisy = noisy_bernoulli_experiment()
        witness = elicitation_dominates(noisy, clean).witness
        assert witness == Matrix.from_rows(
            [[F(19, 18), F(-1, 18)], [F(-1, 18), F(19, 18)]]
        )
        score = TableMechanism(
            clean, ("pay-rate",), Matrix.from_rows([[F(0), F(1)]])
        )
        pushed = pushforward(score, witness, noisy)
        assert min(pushed.payoffs.entries) < 0  # leaves the unit interval
        for p in belief_grid(3, 4):
            assert expected_payoff(pushed, p, 0) == expected_payoff(score, p, 0)

    def test_nonnegative_witness_keeps_nonnegativity(self):
        ey, ez = limited_liability_separation_pair()
        witness = nonneg_dominates(ey, ez).witness
        table = TableMechanism(
            ez,
            ("r0", "r1"),
            Matrix.from_rows([[F(1), F(1, 2), F(0)], [F(0), F(2), F(1)]]),
        )
        pushed = pushforward(table, witness, ey)
        assert all(v >= 0 for v in pushed.payoffs.entries)
        for p in belief_grid(3, 3):
            for r in table.reports:
                assert expected_payoff(pushed, p, r) == expected_payoff(table, p, r)

    def test_dimension_checks(self):
        e = bernoulli_experiment()
        table = three_report_table(e)
        with pytest.raises(ValueError):
            pushforward(table, Matrix.identity(3), e)


class TestLevelSetTransform:
    def test_decomposition_of_descending_vector(self):
        parts = _upper_level_decomposition((F(1), F(1, 2), F(0)))
        assert parts == [(0b001, F(1, 2)), (0b011, F(1, 2))]

    def test_decomposition_of_constant(self):
        parts = _upper_level_decomposition((F(1, 3), F(1, 3)))
        assert parts == [(0b00, F(2, 3)), (0b11, F(1, 3))]

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=6),
            min_size=1,
            max_size=5,
        )
    )
    def test_decomposition_reconstructs(self, values):
        values = tuple(F(v) for v in values)
        parts = _upper_level_decomposition(values)
        assert sum((w for _, w in parts), F(0)) == 1
        for z in range(len(values)):
            rebuilt = sum(
                (w for mask, w in parts if mask >> z & 1), F(0)
            )
            assert rebuilt == values[z]

    def test_transfers_bounded_payoffs(self):
        ey, ez = limited_liability_separation_pair()
        witness = bounded_dominates(ey, ez).event_weights
        table = TableMechanism(
            ez, ("r",), Matrix.from_rows([[F(1), F(1, 2), F(0)]])
        )
        moved = level_set_transform(table, witness, ey)
        assert all(F(0) <= v <= F(1) for v in moved.payoffs.entries)
        for p in belief_grid(3, 3):
            assert expected_payoff(moved, p, "r") == expected_payoff(table, p, "r")
        # state-by-state check for the first parameter: 0.5 * (1 + 1/2)
        state = Belief.point_mass(3, 0)
        assert expected_payoff(moved, state, "r") == F(3, 4)
        assert expected_payoff(table, state, "r") == F(3, 4)

    def test_keeps_the_report_menu(self):
        clean, noisy = bernoulli_experiment(), noisy_bernoulli_experiment()
        table = tabulate(quadratic_mechanism(noisy), belief_grid(3, 4))
        moved = level_set_transform(table, bounded_dominates(clean, noisy).event_weights, clean)
        assert moved.report_beliefs == table.report_beliefs
        # expected payoffs move belief by belief, so the verdict moves too
        target = maximal_partition(clean)
        assert ic_verify(moved, target, 4) == ic_verify(table, target, 4)

    def test_rejects_payoffs_outside_unit_interval(self):
        ey, ez = limited_liability_separation_pair()
        witness = bounded_dominates(ey, ez).event_weights
        table = TableMechanism(
            ez, ("r",), Matrix.from_rows([[F(2), F(1, 2), F(0)]])
        )
        with pytest.raises(ValueError, match="0, 1"):
            level_set_transform(table, witness, ey)


class TestIcVerify:
    def test_repeated_report_belief_answers_with_the_first_report(self):
        e = bernoulli_experiment()
        p, q = Belief.uniform(3), Belief.point_mass(3, 0)
        table = TableMechanism(
            e,
            ("a", "b", "c"),
            Matrix.from_rows([[0, 1], [1, 0], [1, 1]]),
            (p, q, Belief((F(1, 3), F(2, 6), F(1, 3)))),
        )
        assert table.report_for_belief(p) == "a"
        assert table.report_for_belief(q) == "b"
        with pytest.raises(ValueError, match="not on the tabulated report menu"):
            table.report_for_belief(Belief.point_mass(3, 2))

    def test_menu_keys_match_the_per_belief_rows(self):
        rng = random.Random(47)
        for _ in range(60):
            n = rng.randint(1, 4)
            menu = list(belief_grid(n, rng.randint(1, 5)))
            for _ in range(rng.randint(0, 6)):  # off the grid: mixed denominators
                raw = [rng.randint(0, 9) for _ in range(n - 1)] + [rng.randint(1, 9)]
                menu.append(Belief(tuple(F(x, sum(raw)) for x in raw)))
            menu += rng.choices(menu, k=rng.randint(0, 4))  # duplicates
            rng.shuffle(menu)
            e = random_experiment(rng, n, 2)
            labels = [str(i) for i in range(len(menu))]
            table = TableMechanism(e, labels, Matrix(len(menu), 2, (F(0),) * 2 * len(menu)), menu)
            # the keys one _scaled_ints call per belief gives, in the same order
            keys = [tuple(_scaled_ints([p.weights])[0][0]) for p in menu]
            expected: dict = {}
            for r, key in enumerate(keys):
                expected.setdefault(key, r)
            assert list(table._report_rows.items()) == list(expected.items())
            for p, key in zip(menu, keys):
                assert table.report_for_belief(p) == labels[expected[key]]

    def test_report_beliefs_must_match_the_parameters(self):
        e = bernoulli_experiment()
        short = (Belief.uniform(2), Belief.point_mass(2, 0))
        with pytest.raises(ValueError, match="^report belief length does not match"):
            TableMechanism(e, ("a", "b"), Matrix.from_rows([[0, 1], [1, 0]]), short)

    def test_payoff_entries_must_be_exact(self):
        e = Experiment(("a", "b"), ("0", "1"), Matrix.identity(2))
        beliefs = (Belief.point_mass(2, 0), Belief.point_mass(2, 1))
        for entry in (0.5, True, "1/2"):
            got = re.escape(repr(entry))
            # the payoff Matrix refuses the entry before any table is built on it
            message = rf"^matrix entries must be ints or Fractions, got {got}$"
            with pytest.raises(ValueError, match=message):
                TableMechanism(e, ("x", "y"), Matrix(2, 2, (entry, 0, 0, 1)), beliefs)
        # a bare int is exact: the table works as its Fraction twin does
        bare = TableMechanism(e, ("x", "y"), Matrix(2, 2, (1, 0, 0, 1)), beliefs)
        twin = TableMechanism(e, ("x", "y"), Matrix.identity(2), beliefs)
        assert bare.payoff_range() == (0, 1)
        target = maximal_partition(e)
        assert ic_verify(bare, target, 1) == ic_verify(twin, target, 1)
        assert ic_verify(bare, target, 1).elicits_target

    def test_quadratic_panel_elicits_maximal_partition(self):
        e = bernoulli_experiment()
        report = ic_verify(quadratic_mechanism(e), maximal_partition(e), 4)
        assert report.incentive_compatible
        assert report.elicits_target
        assert report.violation is None
        assert report.pairs_checked == 15 * 14

    def test_constant_mechanism_fails_strictness(self):
        e = bernoulli_experiment()
        constant = mean_mechanism(e, (F(1), F(1), F(1)), (F(1), F(1)))
        report = ic_verify(constant, maximal_partition(e), 3)
        assert report.incentive_compatible
        assert not report.elicits_target
        assert report.violation is not None
        assert report.violation.check == "strictness"
        assert report.violation.gap == 0

    def test_biased_weights_break_incentives(self):
        e = bernoulli_experiment()
        skewed = mean_mechanism(
            e, GRID, (F(0), F(3, 2)), check_unbiased=False
        )
        report = ic_verify(skewed, maximal_partition(e), 4)
        assert not report.incentive_compatible
        assert report.violation is not None
        assert report.violation.gap < 0

    def test_grid_validation(self):
        e = bernoulli_experiment()
        with pytest.raises(ValueError):
            ic_verify(quadratic_mechanism(e), maximal_partition(e), 0)


class TestValueFunctionAndEnvelope:
    def test_linear_score_value_is_squared_mean(self):
        e = bernoulli_experiment()
        m = mean_mechanism(e, GRID, (F(0), F(1)), variant="linear")
        grid = belief_grid(3, 8)
        reports = [m.report_for_belief(p) for p in grid]
        for p in grid:
            mu = statistic_mean(GRID, p)
            assert value_function(m, p, reports) == mu * mu

    def test_pushforward_twin_has_identical_cross_payoffs(self):
        clean = bernoulli_experiment()
        noisy = noisy_bernoulli_experiment()
        m = mean_mechanism(clean, GRID, (F(0), F(1)), variant="linear")
        grid = belief_grid(3, 4)
        table = tabulate(m, grid)
        witness = elicitation_dominates(noisy, clean).witness
        twin = pushforward(table, witness, noisy)
        report = envelope_check(table, twin, grid)
        assert report.values_agree
        assert report.cross_payoffs_agree

    def test_constant_shift_reported_not_applicable(self):
        e = bernoulli_experiment()
        m = quadratic_mechanism(e)
        grid = belief_grid(3, 3)
        table = tabulate(m, grid)
        shifted = TableMechanism(
            e,
            table.reports,
            Matrix(
                table.payoffs.rows,
                table.payoffs.cols,
                tuple(x + F(1, 7) for x in table.payoffs.entries),
            ),
            report_beliefs=table.report_beliefs,
        )
        report = envelope_check(table, shifted, grid)
        assert not report.values_agree
        assert report.cross_payoffs_agree is None


    def test_permuted_reports_keep_values_but_not_cross_payoffs(self):
        e = bernoulli_experiment()
        grid = belief_grid(3, 3)
        table = tabulate(quadratic_mechanism(e), grid)
        rows = [table.payoffs.row(i) for i in range(table.payoffs.rows)]
        permuted = TableMechanism(
            e,
            table.reports,
            Matrix.from_rows(rows[::-1]),
            report_beliefs=table.report_beliefs,
        )
        report = envelope_check(table, permuted, grid)
        assert report.values_agree
        assert report.cross_payoffs_agree is False
        assert report.detail == "cross payoffs differ despite equal value functions"

    def test_payoff_vectors_are_built_once_per_report(self, monkeypatch):
        e = bernoulli_experiment()
        m = quadratic_mechanism(e)
        grid = belief_grid(3, 4)
        table = tabulate(m, grid)
        calls = []
        for cls in (QuadraticPanelMechanism, TableMechanism):
            original = cls.payoff_vector

            def counting(self, report, _original=original):
                calls.append(report)
                return _original(self, report)

            monkeypatch.setattr(cls, "payoff_vector", counting)
        report = envelope_check(m, table, grid)
        assert report.values_agree
        assert report.cross_payoffs_agree
        assert len(calls) <= 2 * len(grid)


class TestRandomizedTransfer:
    """Payoff transport checked across a seeded corpus, not just fixtures."""

    def test_pushforward_equivalence_on_random_dominant_pairs(self):
        import random

        from elicitkit.catalog import random_experiment

        rng = random.Random(31)
        grid = belief_grid(3, 3)
        exercised = 0
        for _ in range(60):
            params = ("t0", "t1", "t2")
            ey = random_experiment(rng, 3, rng.randint(2, 4), 5, params)
            ez = random_experiment(rng, 3, rng.randint(2, 4), 5, params)
            dominance = elicitation_dominates(ey, ez)
            if not dominance.holds:
                continue
            payoffs = Matrix.from_rows(
                [
                    [F(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in ez.outcomes]
                    for _ in range(2)
                ]
            )
            table = TableMechanism(ez, ("r0", "r1"), payoffs)
            moved = pushforward(table, dominance.witness, ey)
            for p in grid:
                for r in table.reports:
                    assert expected_payoff(moved, p, r) == expected_payoff(
                        table, p, r
                    )
            exercised += 1
        assert exercised > 10

    def test_level_set_equivalence_on_random_bounded_pairs(self):
        import random

        from elicitkit.catalog import random_experiment
        from elicitkit.model import garble

        rng = random.Random(47)
        grid = belief_grid(3, 3)
        exercised = 0
        for _ in range(20):
            params = ("t0", "t1", "t2")
            ey = random_experiment(rng, 3, rng.randint(2, 4), 5, params)
            # garblings are Blackwell-dominated, so the bounded order holds
            nz = rng.randint(2, 3)
            channel_rows = []
            for _ in ey.outcomes:
                raw = [rng.randrange(1, 5) for _ in range(nz)]
                channel_rows.append([F(x, sum(raw)) for x in raw])
            ez = garble(ey, Matrix.from_rows(channel_rows))
            result = bounded_dominates(ey, ez)
            assert result.holds
            payoffs = Matrix.from_rows(
                [
                    [F(rng.randrange(0, 7), 6) for _ in ez.outcomes]
                    for _ in range(2)
                ]
            )
            table = TableMechanism(ez, ("r0", "r1"), payoffs)
            moved = level_set_transform(table, result.event_weights, ey)
            assert all(F(0) <= v <= F(1) for v in moved.payoffs.entries)
            for p in grid:
                for r in table.reports:
                    assert expected_payoff(moved, p, r) == expected_payoff(
                        table, p, r
                    )
            exercised += 1
        assert exercised > 10

    def test_compound_strictness_on_random_mixtures(self):
        import random

        from elicitkit.catalog import random_experiment

        rng = random.Random(53)
        grid = belief_grid(3, 3)
        exercised = 0
        for _ in range(15):
            params = ("t0", "t1", "t2")
            comps = tuple(
                random_experiment(rng, 3, rng.randint(2, 3), 4, params)
                for _ in range(2)
            )
            mix = CovariateMixture(("a", "b"), (F(1, 2), F(1, 2)), comps)
            comp = compound_mechanism(mix, tuple(map(quadratic_mechanism, comps)))
            for p in grid:
                for q in grid:
                    separated = any(
                        mean_outcome_distribution(c, p)
                        != mean_outcome_distribution(c, q)
                        for c in comps
                    )
                    gap = expected_payoff(comp, p, p) - expected_payoff(comp, p, q)
                    if separated:
                        assert gap > 0
                        exercised += 1
                    else:
                        assert gap == 0
        assert exercised > 50


class TestWithinCellIndifference:
    def test_equal_outcome_distributions_pay_equally_for_every_kind(self):
        # payoffs can respond to a belief only through its mean outcome
        # distribution, whatever the mechanism
        e = bernoulli_experiment()
        p = Belief((F(1, 2), F(0), F(1, 2)))
        q = Belief((F(1, 6), F(2, 3), F(1, 6)))
        assert mean_outcome_distribution(e, p) == mean_outcome_distribution(e, q)
        mix = CovariateMixture(("a", "b"), (F(1, 2), F(1, 2)), (e, e))
        mechanisms = [
            quadratic_mechanism(e),
            mean_mechanism(e, GRID, (F(0), F(1))),
            mean_mechanism(e, GRID, (F(0), F(1)), variant="linear"),
            compound_mechanism(
                mix, (quadratic_mechanism(e), quadratic_mechanism(e))
            ),
        ]
        for m in mechanisms:
            truth = expected_payoff(m, p, m.report_for_belief(p))
            deviated = expected_payoff(m, p, m.report_for_belief(q))
            assert truth == deviated, m.kind


class TestDocRoundTrips:
    def test_all_kinds(self):
        e = bernoulli_experiment()
        detector = Experiment(
            e.parameters, ("0", "1"), Matrix.from_rows([[1, 0], [1, 0], [0, 1]])
        )
        mix = CovariateMixture(("a", "b"), (F(1, 2), F(1, 2)), (e, detector))
        table = three_report_table(e)
        mechanisms = [
            quadratic_mechanism(e),
            mean_mechanism(e, GRID, (F(0), F(1)), variant="linear"),
            table,
            pushforward(table, Matrix.identity(2), e),
            compound_mechanism(
                mix, (quadratic_mechanism(e), quadratic_mechanism(detector))
            ),
        ]
        for m in mechanisms:
            doc = mechanism_to_doc(m)
            rebuilt = load_mechanism(doc)
            assert rebuilt.kind == m.kind
            assert mechanism_to_doc(rebuilt) == doc
            if m.kind != "compound":
                assert rebuilt.experiment == m.experiment

    def test_a_table_document_carries_its_menu(self):
        # a tabulated table, and a pushforward of it, load with the same menu
        e = bernoulli_experiment()
        table = tabulate(quadratic_mechanism(e), belief_grid(3, 2))
        for m in (table, pushforward(table, Matrix.identity(2), e)):
            doc = mechanism_to_doc(m)
            rebuilt = load_mechanism(json.loads(json.dumps(doc)))
            assert rebuilt.report_beliefs == table.report_beliefs
            assert mechanism_to_doc(rebuilt) == doc
        assert mechanism_to_doc(table)["report_beliefs"][1] == ["0", "1/2", "1/2"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            load_mechanism({"kind": "mystery"})


def _fraction_quadratic(m, p):
    """The quadratic panel's payoff formula, written in Fractions."""
    lam = mean_outcome_distribution(m.experiment, p)
    base = sum((w * l * l for w, l in zip(m.event_weights, lam)), F(0))
    return tuple(1 - base - w * (1 - 2 * l) for w, l in zip(m.event_weights, lam))


def _fraction_mean_score(m, mu):
    """The mean-score payoff formulas, written in Fractions."""
    if m.variant == "brier":
        return tuple(1 - (mu - w) ** 2 for w in m.weights)
    return tuple(2 * mu * w - mu * mu for w in m.weights)


def _mixed_belief(rng, n):
    """Gaps between sorted cut points of several denominators."""
    denominators = rng.choices((2, 3, 7, 10, 12), k=n - 1)
    cuts = sorted(F(rng.randint(0, q), q) for q in denominators)
    points = [F(0), *cuts, F(1)]
    return Belief(tuple(b - a for a, b in zip(points, points[1:])))


def test_integer_payoffs_match_fraction_formulas_off_grid():
    rng = random.Random(41)
    for _ in range(40):
        n, outcomes = rng.randint(1, 4), rng.randint(1, 4)
        e = random_experiment(rng, n, outcomes, rng.choice((4, 6, 9)))
        raw = [rng.randint(1, 9) for _ in range(outcomes)]
        quad = quadratic_mechanism(e, [F(w, sum(raw)) for w in raw])
        for _ in range(3):
            p = _mixed_belief(rng, n)
            assert quad.payoff_vector(p) == _fraction_quadratic(quad, p)
        weights = [
            F(rng.randrange(-5, 6), rng.randrange(1, 7)) for _ in range(outcomes)
        ]
        for variant in ("brier", "linear"):
            m = mean_mechanism(e, e.kernel.mul_vec(weights), weights, variant)
            for mu in (
                F(-rng.randint(1, 20), rng.randint(1, 13)),
                F(rng.randint(0, 20), rng.randint(1, 13)),
                -3,
            ):
                assert m.payoff_vector(mu) == _fraction_mean_score(m, F(mu))
                assert m.payoff_vector(str(mu)) == m.payoff_vector(mu)


def test_quadratic_payoff_vector_checks_the_belief_length():
    m = quadratic_mechanism(bernoulli_experiment())
    with pytest.raises(ValueError, match="belief length does not match"):
        m.payoff_vector(Belief.uniform(2))
