"""Elicitability queries: unbiased weights, partitions, impossibility witnesses."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from elicitkit import elicit, exactcore
from elicitkit.catalog import (
    bernoulli_experiment,
    german_tank_experiment,
    noisy_bernoulli_experiment,
    random_experiment,
    random_experiment_pairs,
    truncated_poisson_experiment,
)
from elicitkit.exactcore import Matrix, determinant, rank, solve_linear
from elicitkit.model import (
    Belief,
    Experiment,
    is_identified,
    mean_outcome_distribution,
    power,
    product_many,
)
from elicitkit.elicit import (
    ElicitabilityReport,
    StatisticFamily,
    complete_elicitation,
    indistinguishable,
    is_coarser,
    load_statistic_family,
    maximal_partition,
    mode_elicitable,
    moment_weights,
    statistic_family_to_doc,
    statistic_mean,
    unbiased_weights,
)

GRID = (F(0), F(1, 2), F(1))


def family(e, *functions):
    return StatisticFamily(e.parameters, tuple(tuple(map(F, g)) for g in functions))


class TestMaximalPartition:
    def test_binary_grid(self):
        fam = maximal_partition(bernoulli_experiment())
        assert fam.functions == ((F(1), F(1, 2), F(0)), (F(0), F(1, 2), F(1)))
        assert fam.labels == ("0", "1")

    def test_degenerate_single_outcome(self):
        e = Experiment(("a", "b"), ("y",), Matrix.from_rows([[1], [1]]))
        fam = maximal_partition(e)
        assert fam.functions == ((F(1), F(1)),)
        # constant statistics distinguish nothing
        assert indistinguishable(fam, Belief.point_mass(2, 0), Belief.point_mass(2, 1))

    def test_two_trial_product_spans_quadratics(self):
        e = bernoulli_experiment()
        doubled = product_many((e, e))
        fam = maximal_partition(doubled)
        monomials = family(
            doubled, [1, 1, 1], list(GRID), [t * t for t in GRID]
        )
        assert is_coarser(monomials, fam)
        assert is_coarser(fam, monomials)


class TestIndistinguishable:
    def test_equal_beliefs(self):
        fam = maximal_partition(bernoulli_experiment())
        p = Belief.uniform(3)
        assert indistinguishable(fam, p, p)

    def test_documented_pair(self):
        fam = maximal_partition(bernoulli_experiment())
        p = Belief((F(1, 2), F(0), F(1, 2)))
        q = Belief((F(1, 6), F(2, 3), F(1, 6)))
        assert indistinguishable(fam, p, q)

    def test_mode_indicators_distinguish(self):
        e = bernoulli_experiment()
        indicators = family(e, [1, 0, 0], [0, 1, 0], [0, 0, 1])
        p = Belief((F(1, 2), F(0), F(1, 2)))
        q = Belief((F(1, 6), F(2, 3), F(1, 6)))
        assert not indistinguishable(indicators, p, q)


class TestIsCoarser:
    def test_empty_family_is_coarsest(self):
        e = bernoulli_experiment()
        empty = family(e)
        assert is_coarser(empty, maximal_partition(e))
        assert is_coarser(empty, empty)

    def test_mean_is_coarser_than_maximal(self):
        e = bernoulli_experiment()
        assert is_coarser(family(e, list(GRID)), maximal_partition(e))

    def test_square_is_not(self):
        e = bernoulli_experiment()
        squares = family(e, [t * t for t in GRID])
        assert not is_coarser(squares, maximal_partition(e))

    def test_preorder_on_random_families(self):
        rng = random.Random(7)
        e = bernoulli_experiment()
        for _ in range(25):
            fams = [
                family(
                    e,
                    *[
                        [F(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in GRID]
                        for _ in range(rng.randrange(0, 3))
                    ],
                )
                for _ in range(3)
            ]
            for fam in fams:
                assert is_coarser(fam, fam)
            a, b, c = fams
            if is_coarser(a, b) and is_coarser(b, c):
                assert is_coarser(a, c)


    def test_matches_the_fraction_solve(self):
        rng = random.Random(11)
        coarser = 0
        for ey, ez in random_experiment_pairs(17, 40, max_parameters=5, max_outcomes=5):
            n = len(ey.parameters)
            weights = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in ey.outcomes]
            single = [F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)]
            families = [
                maximal_partition(ey),
                maximal_partition(ez),
                family(ey),
                family(ey, single),
                family(ey, ez.kernel.col(0)),
                family(ey, ey.kernel.mul_vec(weights)),
            ]
            for coarse in families:
                for fine in families:
                    expected = solve_linear_is_coarser(coarse, fine)
                    assert is_coarser(coarse, fine) == expected
                    coarser += expected
        assert 400 < coarser < 1200


def solve_linear_is_coarser(coarse, fine):
    """Reference: solve for each coarse statistic over the fine ones and a constant."""
    ones = (F(1),) * len(fine.parameters)
    span_matrix = Matrix.from_cols(list(fine.functions) + [ones])
    return all(x is not None for x in solve_linear(span_matrix, coarse.functions))


class TestUnbiasedWeights:
    def test_success_rate_weights(self):
        report = unbiased_weights(bernoulli_experiment(), list(GRID))
        assert report.elicitable and report.weights == (F(0), F(1))

    def test_serial_threshold_weights(self):
        e = german_tank_experiment(5)
        statistic = [1, 1, 1, 0, 0]
        report = unbiased_weights(e, statistic)
        assert report.weights == (F(1), F(1), F(1), F(-3), F(0))

    def test_square_statistic_witness(self):
        e = bernoulli_experiment()
        squares = [t * t for t in GRID]
        report = unbiased_weights(e, squares)
        assert not report.elicitable
        p, q = report.witness
        assert mean_outcome_distribution(e, p) == mean_outcome_distribution(e, q)
        assert statistic_mean(tuple(map(F, squares)), p) != statistic_mean(
            tuple(map(F, squares)), q
        )
        # strictly interior: the halved step keeps every weight positive
        assert all(w > 0 for w in p.weights) and all(w > 0 for w in q.weights)

    def test_statistic_length_checked(self):
        with pytest.raises(ValueError):
            unbiased_weights(bernoulli_experiment(), [F(1)])


CORPUS = [
    bernoulli_experiment(),
    bernoulli_experiment([F(0), F(1)]),
    noisy_bernoulli_experiment(),
    german_tank_experiment(4),
    truncated_poisson_experiment(6, [F(1, 2), F(1), F(2)]),
    power(bernoulli_experiment(), 2),
    Experiment(  # constant kernel: nothing is elicitable beyond constants
        ("a", "b", "c"),
        ("0", "1"),
        Matrix.from_rows([["1/2", "1/2"]] * 3),
    ),
]


class TestDualityEquivalence:
    def test_weights_exist_iff_span_membership(self):
        # mean elicitability and span membership must agree everywhere
        rng = random.Random(23)
        for e in CORPUS:
            fam = maximal_partition(e)
            for _ in range(6):
                g = [
                    F(rng.randrange(-6, 7), rng.randrange(1, 5))
                    for _ in e.parameters
                ]
                report = unbiased_weights(e, g)
                assert report.elicitable == is_coarser(
                    StatisticFamily(e.parameters, (tuple(g),)), fam
                )
                if report.elicitable:
                    assert e.kernel.mul_vec(report.weights) == tuple(g)
                else:
                    p, q = report.witness
                    assert mean_outcome_distribution(
                        e, p
                    ) == mean_outcome_distribution(e, q)
                    assert statistic_mean(tuple(g), p) != statistic_mean(
                        tuple(g), q
                    )


class TestMomentWeights:
    def test_square_weights_on_two_trials(self):
        e = bernoulli_experiment()
        report = moment_weights(e, 2, list(GRID), 2)
        # outcome order (0,0), (0,1), (1,0), (1,1): weight is the product of
        # the success indicators on both coordinates
        assert report.weights == (F(0), F(0), F(0), F(1))

    def test_power_zero_is_constant(self):
        e = bernoulli_experiment()
        report = moment_weights(e, 2, list(GRID), 0)
        assert report.weights == (F(1),) * 4

    def test_reverifies_on_product_kernel(self):
        e = bernoulli_experiment()
        doubled = power(e, 2)
        for exponent in (0, 1, 2):
            report = moment_weights(e, 2, list(GRID), exponent)
            target = tuple(t**exponent for t in GRID)
            assert doubled.kernel.mul_vec(report.weights) == target

    def test_variance_two_paths_agree(self):
        e = bernoulli_experiment()
        doubled = power(e, 2)
        first = moment_weights(e, 2, list(GRID), 1).weights
        second = moment_weights(e, 2, list(GRID), 2).weights
        squares = [t * t for t in GRID]
        direct = unbiased_weights(doubled, squares)
        assert direct.elicitable
        for p in (Belief.uniform(3), Belief((F(1, 2), F(1, 3), F(1, 6)))):
            lam = mean_outcome_distribution(doubled, p)
            ex = sum(l * w for l, w in zip(lam, first))
            ex2 = sum(l * w for l, w in zip(lam, second))
            ex2_direct = sum(l * w for l, w in zip(lam, direct.weights))
            assert ex2 == ex2_direct
            assert ex2 - ex * ex == statistic_mean(
                tuple(map(F, squares)), p
            ) - statistic_mean(tuple(GRID), p) ** 2

    def test_base_failure_propagates(self):
        e = bernoulli_experiment()
        report = moment_weights(e, 2, [t * t for t in GRID], 1)
        assert not report.elicitable and report.witness is not None

    def test_exponent_bounds(self):
        with pytest.raises(ValueError):
            moment_weights(bernoulli_experiment(), 1, list(GRID), 2)


class TestModeElicitability:
    def test_binary_grid_impossible(self):
        report = mode_elicitable(bernoulli_experiment(), GRID)
        assert not report.elicitable
        plus, minus = report.witness
        e = bernoulli_experiment()
        assert mean_outcome_distribution(e, plus) == mean_outcome_distribution(
            e, minus
        )
        high, low = report.witness_modes
        assert set(high) == set(plus.modes())
        assert set(low) == set(minus.modes())
        assert not set(high) & set(low)

    def test_invertible_kernel_possible(self):
        e = german_tank_experiment(4)
        assert mode_elicitable(e, [F(k) for k in range(1, 5)]).elicitable

    def test_two_trial_product_possible(self):
        doubled = power(bernoulli_experiment(), 2)
        assert mode_elicitable(doubled, GRID).elicitable

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            mode_elicitable(bernoulli_experiment(), [F(0), F(0), F(1)])


def reference_witness(direction):
    """Reference: uniform +/- alpha*direction in ``Fraction`` arithmetic, alpha
    half the largest step that keeps both beliefs in the simplex."""
    u = F(1, len(direction))
    alpha = min(u / abs(v) for v in direction if v) / 2
    return tuple(
        tuple(u + sign * alpha * v for v in direction) for sign in (1, -1)
    )


class TestIndistinguishableWitness:
    def test_matches_the_fraction_reference(self):
        rng = random.Random(34)
        directions = [
            v
            for ey, ez in random_experiment_pairs(34, 400, max_parameters=6, max_outcomes=4)
            for e in (ey, ez)
            for v in e.span.annihilator
        ]
        assert len(directions) > 500
        while len(directions) < 2500:  # zero-sum integer vectors, entries up to 10^12
            head = [rng.choice((0, rng.randint(-9, 9), rng.randint(-10**12, 10**12)))
                    for _ in range(rng.randint(1, 6))]
            if any(head):
                directions.append((*head, -sum(head)))
        for v in directions:
            plus, minus = elicit._indistinguishable_witness(v)
            assert (plus.weights, minus.weights) == reference_witness(v)
            assert all(type(x) is F for x in plus.weights + minus.weights)


class TestCompleteElicitation:
    def test_binary_grid_single_copy(self):
        report = complete_elicitation(bernoulli_experiment())
        assert not report.full_belief_elicitable
        assert report.impossible_by_dimension  # 2 outcomes, 3 parameters
        assert report.min_copies_bound == 2

    def test_binary_grid_certificate(self):
        report = complete_elicitation(bernoulli_experiment())
        cert = report.vandermonde_certificate
        assert cert is not None
        assert cert.copies == 2
        assert len(set(cert.statistic)) == 3
        assert cert.determinant != 0
        assert cert.product_full_belief_elicitable
        e = bernoulli_experiment()
        assert e.kernel.mul_vec(cert.outcome_weights) == cert.statistic

    def test_single_parameter_trivial(self):
        e = Experiment(("only",), ("0", "1"), Matrix.from_rows([["1/2", "1/2"]]))
        report = complete_elicitation(e)
        assert report.full_belief_elicitable
        assert report.min_copies_bound == 0

    def test_unidentified_has_no_certificate(self):
        e = Experiment(
            ("a", "b"), ("0", "1"), Matrix.from_rows([["1/2", "1/2"]] * 2)
        )
        report = complete_elicitation(e)
        assert not report.full_belief_elicitable
        assert report.vandermonde_certificate is None


class TestVandermonde:
    """The certificate's determinant is the product of the statistic's differences."""

    def test_closed_form_matches_the_elimination(self):
        rng = random.Random(33)
        for _ in range(300):
            values = [rng.randint(-20, 20) for _ in range(rng.randint(0, 6))]
            if values and rng.random() < 0.3:  # a repeated value: determinant 0
                values.append(rng.choice(values))
            scale = rng.choice((1, 2, 7, 10**9 + 7))
            matrix, det = elicit._vandermonde(values, scale)
            assert matrix == Matrix.from_rows(
                [[F(a, scale) ** k for a in values] for k in range(len(values))]
            )
            assert det == determinant(matrix)
            assert (det != 0) == (len(set(values)) == len(values))

    def test_complete_elicitation_runs_no_determinant(self, monkeypatch):
        calls = []
        monkeypatch.setattr(exactcore, "determinant", calls.append)
        assert "determinant" not in vars(elicit)
        rng = random.Random(34)
        certificates = [
            complete_elicitation(random_experiment(rng, n, m)).vandermonde_certificate
            for n, m in [(3, 2), (4, 4), (6, 4), (8, 5)]
        ]
        monkeypatch.undo()
        assert calls == []
        for cert in certificates:
            assert cert.determinant == determinant(cert.vandermonde) != 0


class TestFullRankShortcut:
    """A full-rank kernel certifies its power without materialising it."""

    def _forbid_power(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("power materialised for a full-rank kernel")

        monkeypatch.setattr(elicit, "power", refuse)

    def test_german_tank_builds_no_power(self, monkeypatch):
        self._forbid_power(monkeypatch)
        report = complete_elicitation(german_tank_experiment(5))
        assert report.full_belief_elicitable
        assert report.vandermonde_certificate.product_full_belief_elicitable

    def test_random_square_full_rank_builds_no_power(self, monkeypatch):
        rng = random.Random(5)
        e = random_experiment(rng, 4, 4)
        while rank(e.kernel) < 4:
            e = random_experiment(rng, 4, 4)
        self._forbid_power(monkeypatch)
        report = complete_elicitation(e)
        assert report.full_belief_elicitable
        assert report.vandermonde_certificate.product_full_belief_elicitable

    def test_certificate_matches_materialised_rank(self):
        # identified kernels of full rank and below it alike
        rng = random.Random(23)
        corpus = [bernoulli_experiment()]
        while len(corpus) < 24:
            n = rng.randint(2, 5)
            e = random_experiment(rng, n, rng.randint(max(1, n - 2), n + 1))
            if is_identified(e):
                corpus.append(e)
        deficient = [rank(e.kernel) < len(e.parameters) for e in corpus]
        assert any(deficient) and not all(deficient)
        for e in corpus:
            n = len(e.parameters)
            cert = complete_elicitation(e).vandermonde_certificate
            reference = rank(power(e, n - 1).kernel) == n
            assert cert.product_full_belief_elicitable == reference


class TestReportInvariants:
    def test_exactly_one_payload(self):
        with pytest.raises(ValueError):
            ElicitabilityReport(elicitable=True)
        with pytest.raises(ValueError):
            ElicitabilityReport(
                elicitable=True,
                weights=(F(1),),
                witness=(Belief.uniform(1), Belief.uniform(1)),
            )

    @pytest.mark.parametrize("bad", [True, False, 0.5, 1.0, "1/2", "1", None])
    def test_family_entries_must_be_exact(self, bad):
        e = random_experiment(random.Random(0), 3, 3)
        with pytest.raises(ValueError, match="ints or Fractions"):
            StatisticFamily(e.parameters, ((F(1), 0, F(1, 2)), (F(1), bad, 0)))

    def test_family_doc_parses_strings(self):
        doc = {"parameters": ["a", "b"], "functions": {"g": ["1/2", "3"]}}
        assert load_statistic_family(doc).functions == ((F(1, 2), F(3)),)

    def test_family_doc_roundtrip(self):
        fam = StatisticFamily(
            ("a", "b"), ((F(1), F(0)), (F(1, 2), F(1, 3))), ("first", "second")
        )
        assert load_statistic_family(statistic_family_to_doc(fam)) == fam


@given(st.integers(0, 10**6))
def test_witness_soundness_for_random_targets(seed):
    # any failed solve must ship a belief pair the experiment cannot separate
    rng = random.Random(seed)
    e = bernoulli_experiment()
    g = [F(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(3)]
    report = unbiased_weights(e, g)
    if not report.elicitable:
        p, q = report.witness
        assert mean_outcome_distribution(e, p) == mean_outcome_distribution(e, q)
        assert statistic_mean(tuple(g), p) != statistic_mean(tuple(g), q)
