"""Every product of independent draws follows ``exactcore.kron``.

The references below are the nested loops that ``product_many`` and
``moment_weights`` used before they shared ``kron``: each product entry
recomputed from its whole tuple of outcome indices.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import pytest

from elicitkit import demos, elicit, model
from elicitkit.catalog import random_experiment
from elicitkit.elicit import moment_weights, unbiased_weights
from elicitkit.exactcore import Matrix, kron
from elicitkit.model import MAX_PRODUCT_OUTCOMES, Experiment, power, product_many


def reference_product(experiments):
    params = experiments[0].parameters
    labels = [
        "(" + ",".join(combo) + ")"
        for combo in itertools.product(*(e.outcomes for e in experiments))
    ]
    rows = []
    for t in range(len(params)):
        factor_rows = [e.kernel.row(t) for e in experiments]
        row = []
        for combo in itertools.product(*(range(len(e.outcomes)) for e in experiments)):
            p = F(1)
            for fr, idx in zip(factor_rows, combo):
                p *= fr[idx]
            row.append(p)
        rows.append(row)
    return Experiment(params, tuple(labels), Matrix.from_rows(rows))


def reference_moment_weights(w, m, copies, exponent):
    out = []
    for combo in itertools.product(range(m), repeat=copies):
        value = F(1)
        for j in range(exponent):
            value *= w[combo[j]]
        out.append(value)
    return tuple(out)


def corpus(seed=13, count=25):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        params = tuple(f"t{i}" for i in range(n))
        factors = [random_experiment(rng, n, rng.randint(1, 4), 6, params) for _ in range(3)]
        yield rng, factors


def same(a, b):
    assert a.parameters == b.parameters
    assert a.outcomes == b.outcomes
    assert a.kernel.entries == b.kernel.entries
    assert [type(x) for x in a.kernel.entries] == [type(x) for x in b.kernel.entries]


class TestKron:
    def test_no_vectors_give_one(self):
        assert kron([]) == [1]

    def test_an_empty_vector_gives_nothing(self):
        assert kron([[F(1), F(2)], []]) == []

    def test_first_vector_slowest(self):
        assert kron([[1, 2], [3, 5, 7]]) == [3, 5, 7, 6, 10, 14]


class TestMatchesReference:
    def test_power(self):
        for _, (e, _, _) in corpus():
            for k in range(1, 4):
                same(power(e, k), reference_product([e] * k))
            zero = power(e, 0)
            assert zero.outcomes == ("()",)
            assert zero.kernel == Matrix.from_rows([[1]] * len(e.parameters))

    def test_product_many(self):
        for _, (e, f, g) in corpus():
            same(product_many([e, f]), reference_product([e, f]))
            same(product_many([e, f, g]), reference_product([e, f, g]))

    def test_moment_weights(self):
        checked = 0
        for rng, (e, _, _) in corpus():
            statistic = [F(rng.randint(-3, 3)) for _ in e.parameters]
            base = unbiased_weights(e, statistic)
            for copies in range(4):
                for exponent in range(copies + 1):
                    report = moment_weights(e, copies, statistic, exponent)
                    assert report.elicitable == base.elicitable
                    if not report.elicitable:
                        assert report.witness == base.witness
                        continue
                    expected = reference_moment_weights(
                        base.weights, len(e.outcomes), copies, exponent
                    )
                    assert report.weights == expected
                    assert len(report.weights) == len(power(e, copies).outcomes)
                    checked += 1
        assert checked > 50  # the corpus really has elicitable statistics



class TestOutcomeCap:
    """Products past ``model.MAX_PRODUCT_OUTCOMES`` are refused before ``kron``."""

    @pytest.fixture
    def kron_calls(self, monkeypatch):
        monkeypatch.setattr(model, "MAX_PRODUCT_OUTCOMES", 8)
        calls = []
        for module in (model, elicit):
            monkeypatch.setattr(module, "kron", lambda vectors: calls.append(vectors))
        return calls

    @pytest.mark.parametrize(
        "call",
        [
            lambda e: power(e, 2),
            lambda e: product_many([e, e]),
            lambda e: moment_weights(e, 2, [F(1)] * len(e.parameters), 1),
        ],
    )
    def test_nine_outcomes_are_refused(self, kron_calls, call):
        e = random_experiment(random.Random(3), 2, 3)
        with pytest.raises(ValueError, match="2 independent draws already have 9 "
                           "outcomes, above the cap of 8"):
            call(e)
        assert kron_calls == []

    def test_a_huge_power_is_refused_at_once(self, kron_calls):
        # draw by draw: no list of 10**12 factors is ever made
        e = random_experiment(random.Random(3), 2, 2)
        with pytest.raises(ValueError, match="4 independent draws already have 16"):
            power(e, 10**12)
        with pytest.raises(ValueError, match="4 independent draws already have 16"):
            moment_weights(e, 10**12, [F(1), F(0)], 0)
        assert kron_calls == []

    def test_the_cap_itself_is_allowed(self, monkeypatch):
        monkeypatch.setattr(model, "MAX_PRODUCT_OUTCOMES", 8)
        e = random_experiment(random.Random(3), 2, 2)
        assert len(power(e, 3).outcomes) == 8
        assert len(moment_weights(e, 3, list(e.kernel.col(0)), 2).weights) == 8
        with pytest.raises(ValueError, match="above the cap of 8"):
            power(e, 4)

    def test_the_cap_is_above_every_caller_in_the_package(self):
        # the density demo's moments, complete_elicitation's desk-scale power
        # (n * m**copies <= 20,000 with n >= 2) and the expertise demo's square
        assert MAX_PRODUCT_OUTCOMES >= 2**demos.MAX_DENSITY_DEGREE
        assert MAX_PRODUCT_OUTCOMES >= 20_000 // 2
        assert MAX_PRODUCT_OUTCOMES >= len(demos.bernoulli_experiment().outcomes) ** 2
