"""Ready-made experiments used across demos and tests."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

from .exactcore import Matrix, require_int, require_length, require_tuple, require_vector
from .model import Experiment, uniform_garble

_DEFAULT_GRID = (Fraction(0), Fraction(1, 2), Fraction(1))


def bernoulli_experiment(success_rates: Sequence[Fraction] = _DEFAULT_GRID) -> Experiment:
    """One binary trial; each parameter value is its own success probability.

    Outcomes are labeled "0" and "1" in that order, so the kernel row for a
    success rate t is (1-t, t).
    """
    rates = require_vector(success_rates, "success rates")
    labels = tuple(str(t) for t in rates)
    rows = [[1 - t, t] for t in rates]
    return Experiment(labels, ("0", "1"), Matrix.from_rows(rows))


def noisy_bernoulli_experiment(
    success_rates: Sequence[Fraction] = _DEFAULT_GRID,
    noise: Fraction = Fraction(1, 10),
) -> Experiment:
    """The binary trial with the outcome replaced uniformly at rate ``noise``."""
    return uniform_garble(bernoulli_experiment(success_rates), noise)


def german_tank_experiment(n_max: int) -> Experiment:
    """Uniform draw of one serial number from populations of size 1..n_max.

    The parameter is the population size; observing serial k has probability
    1/size when k <= size and zero otherwise.
    """
    require_int(n_max, "n_max", 1)
    labels = tuple(str(k) for k in range(1, n_max + 1))
    rows = [
        [Fraction(1, size) if k <= size else Fraction(0) for k in range(1, n_max + 1)]
        for size in range(1, n_max + 1)
    ]
    return Experiment(labels, labels, Matrix.from_rows(rows))


def truncated_poisson_experiment(k_max: int, rates: Sequence[Fraction]) -> Experiment:
    """Count experiment with renormalized Poisson-shaped rows.

    Row entries are proportional to rate^k / k! for k = 0..k_max and are
    renormalized to sum to 1, which keeps them exact rationals (the usual
    exponential factor cancels).
    """
    require_int(k_max, "k_max", 0)
    rates = require_vector(rates, "rates")
    labels = tuple(str(k) for k in range(k_max + 1))
    rows = []
    for t in rates:
        raw = [t**k / math.factorial(k) for k in range(k_max + 1)]
        total = sum(raw, Fraction(0))
        rows.append([x / total for x in raw])
    return Experiment(tuple(str(t) for t in rates), labels, Matrix.from_rows(rows))


def limited_liability_separation_pair() -> tuple[Experiment, Experiment]:
    """A pair where nonnegative payments transfer but Blackwell dominance fails.

    Three parameters; the first experiment has four outcomes, the second has
    three, and the second's kernel factors through the first with a 0/1
    matrix that no Markov matrix can replace.
    """
    h = Fraction(1, 2)
    z = Fraction(0)
    params = ("t1", "t2", "t3")
    ey = Experiment(
        params,
        ("y1", "y2", "y3", "y4"),
        Matrix.from_rows([[h, z, z, h], [z, h, z, h], [z, z, h, h]]),
    )
    ez = Experiment(
        params,
        ("z1", "z2", "z3"),
        Matrix.from_rows([[h, h, z], [h, z, h], [z, h, h]]),
    )
    return ey, ez


def random_experiment(
    rng: random.Random,
    n_parameters: int,
    n_outcomes: int,
    denominator: int = 6,
    parameters: Sequence[str] | None = None,
) -> Experiment:
    """Random kernel with entries on the 1/denominator grid, rows summing to 1."""
    require_int(n_parameters, "n_parameters", 1)
    require_int(n_outcomes, "n_outcomes", 1)  # a row of zeros would be redrawn forever
    require_int(denominator, "denominator", 1)
    if parameters is None:
        parameters = tuple(f"t{i}" for i in range(n_parameters))
    parameters = require_tuple(parameters, "parameters", str, (list, tuple))
    require_length(len(parameters), n_parameters, "parameter label count", "n_parameters")
    outcomes = tuple(f"o{j}" for j in range(n_outcomes))
    rows = []
    for _ in range(n_parameters):
        while True:
            raw = [rng.randrange(denominator + 1) for _ in range(n_outcomes)]
            total = sum(raw)
            if total > 0:
                break
        rows.append([Fraction(x, total) for x in raw])
    return Experiment(parameters, outcomes, Matrix.from_rows(rows))


def random_experiment_pairs(
    seed: int,
    count: int,
    max_parameters: int = 4,
    max_outcomes: int = 4,
    denominator: int = 6,
) -> list[tuple[Experiment, Experiment]]:
    """Seeded corpus of experiment pairs sharing parameter sets, for audits."""
    require_int(seed, "seed")
    require_int(count, "count", 0)
    require_int(max_parameters, "max_parameters", 2)  # each pair has at least two parameters
    require_int(max_outcomes, "max_outcomes", 1)
    require_int(denominator, "denominator", 1)
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        n_params = rng.randint(2, max_parameters)
        params = tuple(f"t{i}" for i in range(n_params))
        ey = random_experiment(
            rng, n_params, rng.randint(1, max_outcomes), denominator, params
        )
        ez = random_experiment(
            rng, n_params, rng.randint(1, max_outcomes), denominator, params
        )
        pairs.append((ey, ez))
    return pairs
