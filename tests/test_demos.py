"""Demo reports: every claim machine-checked, specific artifacts frozen."""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction as F

import pytest

from elicitkit.catalog import bernoulli_experiment
from elicitkit.model import Belief
from elicitkit.demos import (
    DEMOS,
    MAX_DENSITY_DEGREE,
    MAX_GRID_BELIEFS,
    MAX_POISSON_COUNT,
    MAX_POISSON_POWER,
    MAX_TANK_POPULATION,
    DiscretizedRegression,
    demo_bernoulli_orders,
    demo_density,
    demo_expertise,
    demo_german_tank,
    demo_poisson,
    demo_regression,
)


class TestGermanTank:
    def test_default_run_passes(self):
        report = demo_german_tank(5)
        assert report.passed
        weights = report.artifacts["threshold_weights"]
        assert weights["m=3"] == ["1", "1", "1", "-3", "0"]

    def test_several_population_bounds(self):
        for n in (3, 8):
            assert demo_german_tank(n).passed

    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            demo_german_tank(1)

    def test_population_cap_is_named(self):
        with pytest.raises(ValueError, match=str(MAX_TANK_POPULATION)):
            demo_german_tank(MAX_TANK_POPULATION + 1)

    def test_doc_shape(self):
        doc = demo_german_tank(3).to_doc()
        assert doc["passed"] is True
        assert all(c["passed"] for c in doc["claims"])


class TestPoisson:
    def test_default_run_passes(self):
        report = demo_poisson()
        assert report.passed
        errors = report.artifacts["exact_truncation_errors"]
        assert errors["1"]["power_0"] == "0"
        # exact error strings are reported, not absorbed
        assert F(errors["1"]["power_1"]) < F(1, 10**10)

    def test_tail_bound_enforced(self):
        with pytest.raises(ValueError, match="tail"):
            demo_poisson(k_max=4, rates=[F(3)])

    def test_size_caps_are_named(self):
        with pytest.raises(ValueError, match=str(MAX_POISSON_COUNT)):
            demo_poisson(k_max=MAX_POISSON_COUNT + 1)
        with pytest.raises(ValueError, match=str(MAX_POISSON_POWER)):
            demo_poisson(max_power=MAX_POISSON_POWER + 1)


class TestExpertise:
    def test_default_run_passes(self):
        report = demo_expertise()
        assert report.passed
        assert report.artifacts["uniform_success_variance"] == "1/6"

    def test_rejects_unidentified_experiment(self):
        from elicitkit.exactcore import Matrix
        from elicitkit.model import Experiment

        clone_rows = Experiment(
            ("a", "b"), ("0", "1"), Matrix.from_rows([["1/2", "1/2"]] * 2)
        )
        with pytest.raises(ValueError, match="identified"):
            demo_expertise(clone_rows)

    def test_grid_cap_is_named(self):
        # the default trial has 3 parameters: C(d + 2, 2) grid beliefs
        d = next(d for d in range(1, 1000) if math.comb(d + 2, 2) > MAX_GRID_BELIEFS)
        with pytest.raises(ValueError, match=str(MAX_GRID_BELIEFS)):
            demo_expertise(grid_denominator=d)


class TestDensity:
    def test_quadratic_projection_is_exact_from_degree_two(self):
        report = demo_density("quadratic", 4)
        assert report.passed
        mise = report.artifacts["mise_by_degree"]
        assert mise["1"] > 1e-3  # degree one misses the curvature
        assert all(mise[str(n)] <= 1e-10 for n in (2, 3, 4))

    def test_exponential_sweep(self):
        report = demo_density("exponential", 8)
        assert report.passed
        mise = [report.artifacts["mise_by_degree"][str(n)] for n in range(1, 9)]
        assert all(b < a for a, b in zip(mise, mise[1:]))
        # adaptive-quadrature values for degrees 1-6, to 3 significant figures
        pinned = [1.3345e-3, 9.4278e-6, 3.7171e-8, 9.3466e-11, 1.6291e-13, 2.0839e-16]
        assert mise[:6] == pytest.approx(pinned, rel=5e-3)

    def test_quadratic_passes_past_degree_ten(self):
        report = demo_density("quadratic", 12)
        assert report.passed
        mise = report.artifacts["mise_by_degree"]
        assert all(mise[str(n)] == 0.0 for n in range(2, 13))

    def test_exponential_passes_at_the_degree_cap(self):
        report = demo_density("exponential", MAX_DENSITY_DEGREE)
        assert [c.description for c in report.claims if not c.passed] == []
        mise = [report.artifacts["mise_by_degree"][str(n)] for n in range(1, 15)]
        assert len(mise) == 14
        assert all(b < a for a, b in zip(mise, mise[1:]))

    def test_reported_floats_are_correctly_rounded(self):
        assert demo_density("quadratic", 1).artifacts["mise_by_degree"]["1"] == 0.2
        # MISE(8) of e^(-x) / (1 - u) at u = 1/e, from the closed-form shifted
        # Legendre polynomials and u's series to 60 terms (error far below an ulp)
        u = sum(F((-1) ** i, math.factorial(i)) for i in range(60))
        total = (1 - u * u) / 2  # the integral of e^(-2x) over [0, 1]
        moment = [  # the integral of x^j e^(-x) over [0, 1]
            math.factorial(j)
            * (1 - u * sum(F(1, math.factorial(i)) for i in range(j + 1)))
            for j in range(9)
        ]
        for k in range(9):
            # sum_j (-1)^(k+j) C(k, j) C(k+j, j) x^j, of squared norm 1 / (2k + 1)
            projection = sum(
                (-1) ** (k + j) * math.comb(k, j) * math.comb(k + j, j) * moment[j]
                for j in range(k + 1)
            )
            total -= (2 * k + 1) * projection**2
        exact = total / (1 - u) ** 2
        mise = demo_density("exponential", 8).artifacts["mise_by_degree"]["8"]
        assert mise == float(exact)

    def test_degree_cap_is_named(self):
        with pytest.raises(ValueError, match=str(MAX_DENSITY_DEGREE)):
            demo_density(max_degree=MAX_DENSITY_DEGREE + 1)

    def test_unknown_density_rejected(self):
        with pytest.raises(ValueError, match="unknown density"):
            demo_density("cauchy")


class TestRegression:
    def test_default_recovers_means(self):
        report = demo_regression()
        assert report.passed
        assert report.artifacts["recovered_coefficient_means"] == ["1", "1/2"]

    def test_intercept_only(self):
        reg = DiscretizedRegression(
            coefficient_grid=((F(1),), (F(3),)),
            covariates=((),),
            noise_scale=F(1, 2),
        )
        report = demo_regression(reg, Belief((F(1, 2), F(1, 2))))
        assert report.passed
        assert report.artifacts["recovered_coefficient_means"] == ["2"]

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("noise_scale", "1/2", "^noise scale must be ints or Fractions, got '1/2'$"),
            ("noise_scale", True, "^noise scale must be ints or Fractions, got True$"),
            ("coefficient_grid", [(F(1),)], "^coefficient grid must be a tuple of tuple values"),
            ("coefficient_grid", ((F(1), 0.5),), "^coefficient vector must be ints or Fractions"),
            ("covariates", ((True,),), "^covariate must be ints or Fractions, got True$"),
        ],
    )
    def test_fields_go_through_the_boundary(self, field, value, message):
        fields = dict(coefficient_grid=((F(1), F(0)),), covariates=((F(2),),), noise_scale=F(1))
        DiscretizedRegression(**fields)  # the valid record is built
        with pytest.raises(ValueError, match=message):
            DiscretizedRegression(**{**fields, field: value})

    def test_duplicate_covariates_abort(self):
        reg = DiscretizedRegression(
            coefficient_grid=((F(1), F(0)), (F(1), F(1))),
            covariates=((F(2),), (F(2),)),
            noise_scale=F(1, 2),
        )
        with pytest.raises(ValueError, match="rank-deficient"):
            demo_regression(reg)


class TestBernoulliOrders:
    def test_end_to_end(self):
        report = demo_bernoulli_orders()
        assert report.passed
        assert report.artifacts["blackwell_witness"] == [
            ["19/20", "1/20"],
            ["1/20", "19/20"],
        ]
        assert report.artifacts["garbling_noise"] == "1/10"


def test_registry_names():
    assert set(DEMOS) == {
        "german_tank",
        "poisson",
        "expertise",
        "density",
        "regression",
        "bernoulli_orders",
    }


# Every demo on a fixed corpus, canonical JSON, one hash. Regenerate with
# ``python tests/test_demos.py``.
PINNED_CORPUS = "8e73f19a7cac3b1fb8a1d41f451b44dd493242cb1170a7cc92f3c6acf0424da8"


def corpus_reports():
    yield demo_german_tank()
    yield demo_german_tank(n_max=3)
    yield demo_german_tank(n_max=8)
    yield demo_poisson()
    yield demo_poisson(k_max=30, rates=[F(1, 3), F(5, 2)], max_power=4)
    yield demo_expertise()
    yield demo_expertise(grid_denominator=6)
    yield demo_expertise(bernoulli_experiment([F(0), F(1, 3), F(2, 3), F(1)]))
    yield demo_density()
    yield demo_density("exponential")
    yield demo_density(max_degree=3)
    yield demo_regression()
    yield demo_regression(belief=Belief((F(1, 2), F(1, 4), F(1, 8), F(1, 8))))
    yield demo_bernoulli_orders()


def corpus_digest() -> str:
    docs = [report.to_doc() for report in corpus_reports()]
    text = "\n".join(json.dumps(doc, sort_keys=True) for doc in docs)
    return hashlib.sha256(text.encode()).hexdigest()


def test_corpus_matches_pinned_hash():
    assert corpus_digest() == PINNED_CORPUS


if __name__ == "__main__":
    print(corpus_digest())
