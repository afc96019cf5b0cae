"""Each span query eliminates once, whatever the number of columns."""

from __future__ import annotations

from fractions import Fraction as F

from elicitkit import elicit, exactcore, orders
from elicitkit.catalog import (
    bernoulli_experiment,
    german_tank_experiment,
    random_experiment_pairs,
)
from elicitkit.elicit import StatisticFamily, maximal_partition


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_solve_linear_reduces_once_for_all_right_hand_sides(monkeypatch):
    eliminations = _counting(monkeypatch, exactcore, "_bareiss")
    a = exactcore.Matrix.from_rows([[1, 2, 0], [0, 1, 1], [1, 3, 1]])
    for count in (0, 1, 5):
        rhs = [[F(k), F(k + 1), F(2 * k + 1)] for k in range(count)]
        assert len(exactcore.solve_linear(a, rhs)) == count
    assert len(eliminations) == 3


def test_dominance_and_coarseness_solve_once(monkeypatch):
    for ey, ez in random_experiment_pairs(3, 6, max_outcomes=5):
        for first, second in ((ey, ez), (ez, ey)):
            with monkeypatch.context() as patch:
                solves = _counting(patch, orders, "solve_linear")
                eliminations = _counting(patch, exactcore, "_bareiss")
                orders.elicitation_dominates(first, second)
            assert len(solves) == 1 and len(eliminations) == 1
        # coarseness is one integer span test, with no solve at all
        fy = maximal_partition(ey)
        for coarse in (maximal_partition(ez), StatisticFamily(ey.parameters, ())):
            with monkeypatch.context() as patch:
                spans = _counting(patch, exactcore.Span, "of")
                eliminations = _counting(patch, exactcore, "_bareiss")
                solves = _counting(patch, elicit, "solve_linear")
                elicit.is_coarser(coarse, fy)
            assert len(spans) == 1 and len(eliminations) == 1 and solves == []


def test_mode_elicitable_needs_no_rank(monkeypatch):
    ranks = _counting(monkeypatch, elicit, "rank")
    for ey, ez in random_experiment_pairs(4, 6):
        for e in (ey, ez):
            elicit.mode_elicitable(e, range(len(e.parameters)))
    assert ranks == []


def test_the_kept_null_directions_answer_every_no(monkeypatch):
    """One kept integer elimination per experiment serves all four queries;
    a "no" is read off its directions with no solve at all."""
    seen = []
    for e in (bernoulli_experiment(), german_tank_experiment(4)):
        n, m = len(e.parameters), len(e.outcomes)
        spanned = e.kernel.mul_vec([F(j + 1) for j in range(m)])
        with monkeypatch.context() as patch:
            kept = _counting(patch, exactcore.Span, "of")
            ranks = _counting(patch, elicit, "rank")
            solves = _counting(patch, elicit, "solve_linear")
            assert elicit.unbiased_weights(e, spanned).elicitable
            assert len(solves) == 1  # the one solve for the weights
            squares = elicit.unbiased_weights(e, [F(i * i) for i in range(n)])
            mode = elicit.mode_elicitable(e, range(n))
            if not mode.elicitable:
                assert not squares.elicitable and len(solves) == 1
            report = elicit.complete_elicitation(e)
        assert len(kept) == 1
        assert report.full_belief_elicitable == mode.elicitable
        assert all(args[0] is not e.kernel for args in ranks)
        if mode.elicitable:
            assert ranks == []
        seen.append(mode.elicitable)
    assert seen == [False, True]
