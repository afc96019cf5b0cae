"""Every product of independent draws follows ``exactcore.kron``.

The references below are the nested loops that ``product_many`` and
``moment_weights`` used before they shared ``kron``: each product entry
recomputed from its whole tuple of outcome indices.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

from elicitkit.catalog import random_experiment
from elicitkit.elicit import moment_weights, unbiased_weights
from elicitkit.exactcore import Matrix, kron
from elicitkit.model import Experiment, power, product_many


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

