"""Experiments, beliefs, and the product/mixture/garbling algebra."""

from __future__ import annotations

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from elicitkit.catalog import (
    bernoulli_experiment,
    noisy_bernoulli_experiment,
    random_experiment,
    truncated_poisson_experiment,
)
from elicitkit.elicit import mode_elicitable, moment_weights, unbiased_weights
from elicitkit.exactcore import Matrix, lp_feasible
from elicitkit.model import (
    Belief,
    CovariateMixture,
    Experiment,
    belief_grid,
    experiment_to_doc,
    garble,
    grid_counts,
    is_complete,
    is_identified,
    load_experiment,
    load_mixture,
    mean_outcome_distribution,
    mixture,
    mixture_to_doc,
    power,
    product_many,
    replacement_garbling_channel,
    replacement_garbling_channel_inverse,
    uniform_garble,
)
from elicitkit.mechanisms import MeanScoreMechanism, QuadraticPanelMechanism

BERNOULLI_DOC = {
    "parameters": ["0", "1/2", "1"],
    "outcomes": ["0", "1"],
    "kernel": [["1", "0"], ["1/2", "1/2"], ["0", "1"]],
}


class TestLoading:
    def test_bernoulli_grid(self):
        e = load_experiment(BERNOULLI_DOC)
        assert e.kernel.row(1) == (F(1, 2), F(1, 2))
        assert experiment_to_doc(e) == BERNOULLI_DOC

    def test_row_sum_error(self):
        doc = dict(BERNOULLI_DOC, kernel=[["1/2", "1/3"], ["1/2", "1/2"], ["0", "1"]])
        with pytest.raises(ValueError, match="sums to"):
            load_experiment(doc)

    def test_negative_entry(self):
        doc = dict(
            BERNOULLI_DOC, kernel=[["3/2", "-1/2"], ["1/2", "1/2"], ["0", "1"]]
        )
        with pytest.raises(ValueError, match="outside"):
            load_experiment(doc)

    def test_duplicate_labels(self):
        doc = dict(BERNOULLI_DOC, parameters=["a", "a", "b"])
        with pytest.raises(ValueError, match="duplicate"):
            load_experiment(doc)

    def test_malformed_document(self):
        with pytest.raises(ValueError, match="missing"):
            load_experiment({"parameters": ["a"]})

    def test_float_entries_rejected(self):
        doc = dict(BERNOULLI_DOC, kernel=[[0.5, 0.5], ["1/2", "1/2"], ["0", "1"]])
        with pytest.raises(ValueError):
            load_experiment(doc)

    @pytest.mark.parametrize("entry", [0.5, "1/2", True], ids=["float", "str", "bool"])
    def test_kernel_matrix_built_directly_must_be_exact(self, entry):
        # only Matrix.from_rows parses, but a Matrix built directly refuses the
        # entry itself, so no experiment is built on it
        other = F(1, 2) if entry is not True else F(0)
        message = rf"^matrix entries must be ints or Fractions, got {re.escape(repr(entry))}$"
        with pytest.raises(ValueError, match=message):
            Experiment(("a",), ("x", "y"), Matrix(1, 2, (entry, other)))

    def test_int_kernel_entries_accepted(self):
        e = Experiment(("a",), ("x", "y"), Matrix(1, 2, (1, 0)))
        assert e.kernel.row(0) == (1, 0)


class TestBelief:
    def test_validation(self):
        with pytest.raises(ValueError):
            Belief((F(1, 2), F(1, 3)))
        with pytest.raises(ValueError):
            Belief((F(3, 2), F(-1, 2)))

    def test_point_mass_and_uniform(self):
        assert Belief.point_mass(3, 1).weights == (F(0), F(1), F(0))
        assert Belief.uniform(4).weights == (F(1, 4),) * 4

    def test_modes(self):
        assert Belief((F(1, 2), F(0), F(1, 2))).modes() == (0, 2)

    def test_grid_size(self):
        # compositions of d into n nonnegative parts
        assert len(belief_grid(3, 6)) == 28
        assert len(belief_grid(2, 4)) == 5

    @pytest.mark.parametrize(
        "weights", [(0.5, 0.25, 0.25), (F(1, 2), 0.5), (True, False), (1.0,)]
    )
    def test_float_and_bool_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="ints or Fractions"):
            Belief(weights)

    def test_int_weights_accepted(self):
        assert Belief((0, 1)).weights == (0, 1)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: belief_grid(0, 3),
            lambda: grid_counts(-1, 2),
            lambda: Belief.uniform(0),
        ],
        ids=["belief_grid", "grid_counts", "uniform"],
    )
    def test_no_parameters_rejected(self, build):
        with pytest.raises(ValueError, match=r"^n(_parameters)? must be at least 1, got -?\d+$"):
            build()

    @pytest.mark.parametrize("grid", [grid_counts, belief_grid])
    @pytest.mark.parametrize(
        "n, d, name",
        [(True, 2, "n_parameters"), (2.0, 2, "n_parameters"), ("2", 2, "n_parameters"),
         (2, 2.0, "denominator"), (2, True, "denominator"), (2, F(2), "denominator")],
    )
    def test_sizes_must_be_ints(self, grid, n, d, name):
        with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
            grid(n, d)

    def test_grid_counts_run_in_lexicographic_order(self):
        for n in range(1, 5):
            for d in range(1, 6):
                counts = list(grid_counts(n, d))
                assert counts == sorted(counts) and len(set(counts)) == len(counts)
                assert all(min(k) >= 0 and sum(k) == d and len(k) == n for k in counts)
                assert len(counts) == len(belief_grid(n, d))
        assert list(grid_counts(1, 10**6)) == [(10**6,)]



_BERNOULLI = bernoulli_experiment()


class TestExactInputs:
    """Constructors parse their numbers; a float is refused, never converted."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: unbiased_weights(_BERNOULLI, (0.0, 0.5, 1.0)),
            lambda: moment_weights(_BERNOULLI, 2, (0.0, 0.5, 1.0), 2),
            lambda: mode_elicitable(_BERNOULLI, (0.0, 0.5, 1.0)),
            lambda: QuadraticPanelMechanism(_BERNOULLI, (0.5, 0.5)),
            lambda: MeanScoreMechanism(_BERNOULLI, (0.0, 0.5, 1.0), (F(0), F(1))),
            lambda: MeanScoreMechanism(_BERNOULLI, (F(0), F(1, 2), F(1)), (0.0, 1.0)),
            lambda: replacement_garbling_channel((0.5, 0.5), F(1, 10)),
            lambda: replacement_garbling_channel((F(1, 2), F(1, 2)), 0.125),
            lambda: replacement_garbling_channel_inverse((0.5, 0.5), F(1, 10)),
            lambda: replacement_garbling_channel_inverse((F(1, 2), F(1, 2)), 0.125),
            lambda: bernoulli_experiment((0.0, 0.5)),
            lambda: truncated_poisson_experiment(3, (0.5,)),
        ],
        ids=[
            "unbiased_weights",
            "moment_weights",
            "mode_elicitable",
            "quadratic_panel",
            "mean_score_statistic",
            "mean_score_weights",
            "channel_replacement",
            "channel_noise",
            "inverse_replacement",
            "inverse_noise",
            "bernoulli_rates",
            "poisson_rates",
        ],
    )
    def test_float_inputs_rejected(self, build):
        with pytest.raises(ValueError, match="rational values"):
            build()

    def test_mean_outcome_distribution_stays_exact(self):
        with pytest.raises(ValueError):
            mean_outcome_distribution(_BERNOULLI, Belief((0.5, 0.25, 0.25)))
        lam = mean_outcome_distribution(_BERNOULLI, Belief((F(1, 2), F(1, 4), F(1, 4))))
        assert lam == (F(5, 8), F(3, 8))
        assert all(type(x) is F for x in lam)


class TestProduct:
    def test_independent_pair_probability(self):
        e = bernoulli_experiment()
        squared = product_many((e, e))
        t = squared.parameters.index("1/2")
        y = squared.outcomes.index("(1,1)")
        assert squared.kernel.at(t, y) == F(1, 4)

    def test_point_mass_row(self):
        e = bernoulli_experiment()
        squared = product_many((e, e))
        t = squared.parameters.index("0")
        y = squared.outcomes.index("(0,0)")
        assert squared.kernel.at(t, y) == F(1)

    def test_matches_enumeration_oracle(self):
        # independent oracle: enumerate outcome pairs with nested loops
        e = bernoulli_experiment()
        squared = product_many((e, e))
        for t in range(3):
            row = e.kernel.row(t)
            for i, a in enumerate(e.outcomes):
                for j, b in enumerate(e.outcomes):
                    idx = squared.outcomes.index(f"({a},{b})")
                    assert squared.kernel.at(t, idx) == row[i] * row[j]

    def test_parameter_mismatch(self):
        e = bernoulli_experiment()
        other = bernoulli_experiment([F(0), F(1)])
        with pytest.raises(ValueError, match="parameter"):
            product_many((e, other))

    def test_zero_factors_rejected(self):
        with pytest.raises(ValueError, match="zero experiments"):
            product_many(())

    def test_zero_copies_is_degenerate(self):
        e = bernoulli_experiment()
        trivial = power(e, 0)
        assert trivial.outcomes == ("()",)
        assert all(x == 1 for x in trivial.kernel.entries)

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda e: power(e, True), "copies"),
            (lambda e: power(e, 2.0), "copies"),
            (lambda e: moment_weights(e, True, [F(1)] * 3, 1), "copies"),
            (lambda e: moment_weights(e, 2.0, [F(1)] * 3, 1), "copies"),
            (lambda e: moment_weights(e, 2, [F(1)] * 3, True), "exponent"),
            (lambda e: moment_weights(e, 2, [F(1)] * 3, 2.0), "exponent"),
        ],
        ids=["power-bool", "power-float", "moment-copies-bool", "moment-copies-float",
             "moment-exponent-bool", "moment-exponent-float"],
    )
    def test_counts_must_be_ints(self, build, name):
        with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
            build(bernoulli_experiment())


class TestMixture:
    def test_single_covariate_is_component(self):
        e = bernoulli_experiment()
        mixed = mixture(CovariateMixture(("x",), (F(1),), (e,)))
        assert mixed.kernel == e.kernel
        assert mixed.outcomes == ("(x,0)", "(x,1)")

    def test_two_covariates_average(self):
        e = bernoulli_experiment()
        g = uniform_garble(e, F(1, 10))
        mixed = mixture(
            CovariateMixture(("a", "b"), (F(1, 2), F(1, 2)), (e, g))
        )
        t = mixed.parameters.index("1/2")
        assert mixed.kernel.at(t, mixed.outcomes.index("(a,1)")) == F(1, 4)
        assert sum(mixed.kernel.row(t), F(0)) == 1

    def test_zero_weight_covariate_zeroes_columns(self):
        e = bernoulli_experiment()
        mixed = mixture(CovariateMixture(("a", "b"), (F(1), F(0)), (e, e)))
        for t in range(3):
            assert mixed.kernel.at(t, mixed.outcomes.index("(b,0)")) == 0
            assert mixed.kernel.at(t, mixed.outcomes.index("(b,1)")) == 0

    def test_doc_roundtrip(self):
        e = bernoulli_experiment()
        mix = CovariateMixture(("a", "b"), (F(1, 3), F(2, 3)), (e, e))
        assert load_mixture(mixture_to_doc(mix)) == mix

    def test_component_parameter_mismatch(self):
        e = bernoulli_experiment()
        other = bernoulli_experiment([F(0), F(1)])
        with pytest.raises(ValueError, match="share the parameter set"):
            CovariateMixture(("a", "b"), (F(1, 2), F(1, 2)), (e, other))

    @pytest.mark.parametrize(
        "weights", [(True,), (0.5, 0.5), (0.25, F(3, 4))], ids=["bool", "floats", "mixed"]
    )
    def test_weights_must_be_exact(self, weights):
        e = bernoulli_experiment()
        covariates = tuple("ab"[: len(weights)])
        with pytest.raises(ValueError, match="covariate weights must be ints or Fractions"):
            CovariateMixture(covariates, weights, (e,) * len(weights))

    def test_int_weights_accepted(self):
        e = bernoulli_experiment()
        mixed = mixture(CovariateMixture(("a", "b"), (1, 0), (e, e)))
        assert mixed == mixture(CovariateMixture(("a", "b"), (F(1), F(0)), (e, e)))


class TestGarbling:
    def test_zero_noise_is_identity(self):
        e = bernoulli_experiment()
        assert uniform_garble(e, F(0)).kernel == e.kernel

    def test_noisy_kernel_formula(self):
        e = noisy_bernoulli_experiment()
        # success probability becomes 1/20 + (9/10) * rate
        for i, t in enumerate((F(0), F(1, 2), F(1))):
            assert e.kernel.at(i, 1) == F(1, 20) + F(9, 10) * t

    def test_permutation_relabels(self):
        e = bernoulli_experiment()
        swap = Matrix.from_rows([[0, 1], [1, 0]])
        g = garble(e, swap)
        for t in range(3):
            assert sorted(g.kernel.row(t)) == sorted(e.kernel.row(t))
            assert g.kernel.row(t) == tuple(reversed(e.kernel.row(t)))

    def test_non_markov_channel_rejected(self):
        e = bernoulli_experiment()
        with pytest.raises(ValueError, match="Markov"):
            garble(e, Matrix.from_rows([[1, 1], [0, 1]]))

    def test_replacement_channel_inverse(self):
        mu = [F(1, 4), F(3, 4)]
        channel = replacement_garbling_channel(mu, F(1, 3))
        inverse = replacement_garbling_channel_inverse(mu, F(1, 3))
        assert channel @ inverse == Matrix.identity(2)

    @pytest.mark.parametrize(
        "build", [replacement_garbling_channel, replacement_garbling_channel_inverse]
    )
    @pytest.mark.parametrize("replacement", [[1, 1], [F(3, 2), F(-1, 2)]])
    def test_replacement_must_be_a_distribution(self, build, replacement):
        # the inverse of a channel that cannot be built is refused too
        with pytest.raises(ValueError, match="probability vector"):
            build(replacement, F(1, 2))

    @given(
        st.fractions(min_value=F(0), max_value=F(4, 5), max_denominator=5),
        st.fractions(min_value=F(0), max_value=F(4, 5), max_denominator=5),
    )
    def test_composition(self, n1, n2):
        e = bernoulli_experiment()
        c1 = replacement_garbling_channel([F(1, 2), F(1, 2)], F(n1))
        c2 = replacement_garbling_channel([F(1, 3), F(2, 3)], F(n2))
        assert garble(garble(e, c1), c2).kernel == garble(e, c1 @ c2).kernel


class TestMeanOutcomeDistribution:
    def test_point_mass_gives_kernel_row(self):
        e = bernoulli_experiment()
        assert mean_outcome_distribution(e, Belief.point_mass(3, 2)) == e.kernel.row(2)

    def test_documented_indistinguishable_pair(self):
        e = bernoulli_experiment()
        p = Belief((F(1, 2), F(0), F(1, 2)))
        q = Belief((F(1, 6), F(2, 3), F(1, 6)))
        assert mean_outcome_distribution(e, p) == (F(1, 2), F(1, 2))
        assert mean_outcome_distribution(e, q) == (F(1, 2), F(1, 2))

    def test_length_mismatch(self):
        e = bernoulli_experiment()
        with pytest.raises(ValueError):
            mean_outcome_distribution(e, Belief.uniform(2))

    @given(
        st.lists(st.integers(0, 5), min_size=3, max_size=3).filter(
            lambda v: sum(v) > 0
        ),
        st.lists(st.integers(0, 5), min_size=3, max_size=3).filter(
            lambda v: sum(v) > 0
        ),
        st.fractions(min_value=0, max_value=1, max_denominator=6),
    )
    def test_affine_in_the_belief(self, raw_p, raw_q, alpha):
        e = bernoulli_experiment()
        p = Belief(tuple(F(x, sum(raw_p)) for x in raw_p))
        q = Belief(tuple(F(x, sum(raw_q)) for x in raw_q))
        blend = Belief(
            tuple(alpha * a + (1 - alpha) * b for a, b in zip(p.weights, q.weights))
        )
        lam_p = mean_outcome_distribution(e, p)
        lam_q = mean_outcome_distribution(e, q)
        lam_blend = mean_outcome_distribution(e, blend)
        assert lam_blend == tuple(
            alpha * a + (1 - alpha) * b for a, b in zip(lam_p, lam_q)
        )

    def test_product_factorizes_only_under_point_mass(self):
        e = bernoulli_experiment()
        squared = product_many((e, e))
        for t in range(3):
            lam = mean_outcome_distribution(squared, Belief.point_mass(3, t))
            row = e.kernel.row(t)
            expected = tuple(a * b for a in row for b in row)
            assert lam == expected
        uniform = Belief.uniform(3)
        lam = mean_outcome_distribution(squared, uniform)
        single = mean_outcome_distribution(e, uniform)
        factored = tuple(a * b for a in single for b in single)
        assert lam != factored

    @given(st.integers(0, 9))
    def test_mixture_rows_are_distributions(self, seed):
        import random

        rng = random.Random(seed)
        e = bernoulli_experiment()
        w = [rng.randrange(1, 4) for _ in range(2)]
        total = sum(w)
        mix = CovariateMixture(
            ("a", "b"),
            (F(w[0], total), F(w[1], total)),
            (e, uniform_garble(e, F(1, 5))),
        )
        mixed = mixture(mix)
        for t in range(3):
            assert sum(mixed.kernel.row(t), F(0)) == 1


class TestIdentifiedAndComplete:
    def test_binary_grid_identified_and_complete(self):
        e = bernoulli_experiment()
        assert is_identified(e)
        assert is_complete(e)

    def test_equal_rows_not_identified(self):
        e = Experiment(
            ("a", "b"),
            ("0", "1"),
            Matrix.from_rows([["1/2", "1/2"], ["1/2", "1/2"]]),
        )
        assert not is_identified(e)

    def test_matches_lp_reference(self):
        # the LP form: every simplex vertex is some belief's mean distribution
        def complete_by_lp(e):
            n, m = len(e.parameters), len(e.outcomes)
            system = Matrix(m + 1, n, e.kernel.transpose().entries + (F(1),) * n)
            return all(
                lp_feasible(system, [F(j == k) for j in range(m)] + [F(1)])
                is not None
                for k in range(m)
            )

        rng = random.Random(11)
        complete = 0
        for draw in range(1200):
            e = random_experiment(
                rng, rng.randint(1, 4), rng.randint(1, 4), (1, 2, 3, 6)[draw % 4]
            )
            assert is_complete(e) == complete_by_lp(e)
            complete += is_complete(e)
        assert 100 < complete < 1100

    def test_noisy_grid_not_complete(self):
        # no garbled row can reach a simplex vertex: coordinates cap at 19/20
        assert not is_complete(noisy_bernoulli_experiment())
