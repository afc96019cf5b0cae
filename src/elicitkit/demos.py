"""Desk-scale worked demonstrations, each emitting a machine-checked report.

Every demo builds small exact experiments, runs the library end to end, and
records a list of claims that are asserted by computation, never narrated.
A report with any failed claim makes the CLI exit nonzero. Truncation errors
are computed exactly and reported, not absorbed; the density demo reports the
correctly rounded floats of exact values. The exact arithmetic comes from
``exactcore``, ``model`` and ``elicit``; the demos do not repeat it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .catalog import (
    bernoulli_experiment,
    german_tank_experiment,
    noisy_bernoulli_experiment,
    truncated_poisson_experiment,
)
from .exactcore import (
    Matrix, determinant, format_rational, parse_rational, require_exact, require_int,
    require_length, require_tuple, require_vector, solve_linear,
)
from .model import (
    Belief,
    Experiment,
    belief_grid,
    is_identified,
    mean_outcome_distribution,
    power,
    uniform_garble,
)
from .elicit import (
    complete_elicitation, moment_weights, statistic_mean, unbiased_weights
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Sizes that drive a demo's work are capped before any work: German tank's time
# grows about as n_max**4.5, expertise checks every grid belief, density builds
# a power with 2**max_degree outcomes, and Poisson's exact sums grow with both
# the count truncation and the moment order.
MAX_TANK_POPULATION = 40
MAX_GRID_BELIEFS = 10_000
MAX_DENSITY_DEGREE = 14
MAX_POISSON_COUNT = 1_000
MAX_POISSON_POWER = 10


@dataclass(frozen=True)
class Claim:
    description: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class DemoReport:
    name: str
    inputs: dict
    claims: tuple[Claim, ...]
    artifacts: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "inputs": self.inputs,
            "claims": [
                {"description": c.description, "passed": c.passed, "detail": c.detail}
                for c in self.claims
            ],
            "artifacts": self.artifacts,
            "passed": self.passed,
        }


class _Claims:
    def __init__(self) -> None:
        self.items: list[Claim] = []

    def check(self, description: str, passed: bool, detail: str = "") -> None:
        self.items.append(Claim(description, bool(passed), detail))

    def done(self) -> tuple[Claim, ...]:
        return tuple(self.items)


def demo_german_tank(n_max: int = 5) -> DemoReport:
    """Serial-number experiment: the full belief is elicitable from one draw.

    For every threshold m below the population cap, the indicator statistic
    "population size <= m" admits the closed-form unbiased weights (1 on
    serials up to m, -m on serial m+1, 0 above), so every c.d.f. level of the
    population size, and hence the whole belief, can be elicited at once.
    """
    require_int(n_max, "n_max", 2, MAX_TANK_POPULATION)
    e = german_tank_experiment(n_max)
    claims = _Claims()
    weight_table: dict[str, list[str]] = {}
    for m in range(1, n_max):
        statistic = tuple(
            _ONE if size <= m else _ZERO for size in range(1, n_max + 1)
        )
        report = unbiased_weights(e, statistic)
        expected = tuple(
            _ONE if k <= m else (Fraction(-m) if k == m + 1 else _ZERO)
            for k in range(1, n_max + 1)
        )
        claims.check(
            f"threshold m={m}: unbiased weights exist",
            report.elicitable,
        )
        claims.check(
            f"threshold m={m}: weights match the closed form",
            report.weights == expected,
            detail=str([format_rational(w) for w in report.weights]),
        )
        claims.check(
            f"threshold m={m}: expected weight under population m+1 is 0",
            e.kernel.mul_vec(report.weights)[m] == 0,
        )
        weight_table[f"m={m}"] = [format_rational(w) for w in report.weights]
    full = complete_elicitation(e)
    claims.check(
        "full belief elicitable from a single draw", full.full_belief_elicitable
    )
    claims.check(
        "stated observation bound is population size minus one",
        full.min_copies_bound == n_max - 1,
    )
    return DemoReport(
        name="german_tank",
        inputs={"n_max": n_max},
        claims=claims.done(),
        artifacts={"threshold_weights": weight_table},
    )


def demo_poisson(
    k_max: int = 20,
    rates: Sequence[Fraction] = (Fraction(1, 2), Fraction(1), Fraction(2)),
    max_power: int = 3,
    tail_bound: Fraction = Fraction(1, 10**8),
) -> DemoReport:
    """Truncated count experiment: falling-factorial weights recover rate powers.

    The weights k(k-1)...(k-j+1) average to rate^j exactly under the full
    count distribution; under the truncated, renormalized experiment the
    shortfall is computed exactly and reported. Complex-exponential target
    functions are not used; polynomial moments carry the same point here.
    """
    require_int(k_max, "k_max", 0, MAX_POISSON_COUNT)
    require_int(max_power, "max_power", 0, MAX_POISSON_POWER)
    rates, tail_bound = require_vector(rates, "rates"), parse_rational(tail_bound)
    claims = _Claims()
    partial_sums = []
    for t in rates:
        if t >= k_max + 2:
            raise ValueError("rate too large for the truncation bound")
        # remaining mass after k_max, bounded by a geometric tail
        term = t ** (k_max + 1) / math.factorial(k_max + 1)
        remainder = term / (1 - t / (k_max + 2))
        sums = list(
            itertools.accumulate(t**k / math.factorial(k) for k in range(k_max + 1))
        )
        tail_estimate = remainder / (sums[-1] + remainder)
        if tail_estimate > tail_bound:
            raise ValueError(
                f"truncated tail mass bound {tail_estimate} exceeds {tail_bound}"
            )
        partial_sums.append(sums)
    e = truncated_poisson_experiment(k_max, rates)
    # falling factorials k(k-1)...(k-j+1), averaged under every rate at once
    averages = [
        e.kernel.mul_vec([math.perm(k, j) for k in range(k_max + 1)])
        for j in range(max_power + 1)
    ]
    errors: dict[str, dict[str, str]] = {}
    for i, (t, sums) in enumerate(zip(rates, partial_sums)):
        per_rate: dict[str, str] = {}
        for j in range(max_power + 1):
            elicited = averages[j][i]
            target = t**j
            error = abs(elicited - target)
            per_rate[f"power_{j}"] = format_rational(error)
            closed_form = (
                target * sums[k_max - j] / sums[k_max] if j <= k_max else _ZERO
            )
            claims.check(
                f"rate {t}: power {j} recovery matches its closed form",
                elicited == closed_form,
            )
            if j == 0:
                claims.check(
                    f"rate {t}: power 0 weight is exactly 1 after renormalization",
                    elicited == 1,
                )
            else:
                claims.check(
                    f"rate {t}: power {j} truncation error below 1e-9",
                    error < Fraction(1, 10**9),
                    detail=format_rational(error),
                )
        errors[str(t)] = per_rate
    return DemoReport(
        name="poisson",
        inputs={
            "k_max": k_max,
            "rates": [format_rational(t) for t in rates],
            "max_power": max_power,
        },
        claims=claims.done(),
        artifacts={
            "exact_truncation_errors": errors,
            "method_note": (
                "falling-factorial outcome weights target polynomial moments "
                "of the rate on the truncated count set"
            ),
        },
    )


def demo_expertise(
    e: Optional[Experiment] = None, grid_denominator: int = 4
) -> DemoReport:
    """Two independent draws reveal whether the analyst knows the parameter.

    On the two-fold product, the mean and the second moment of every kernel
    column are elicitable, hence so is each column's variance. All variances
    vanish exactly when the belief is a point mass, in which case the mean
    vector singles out the parameter; any spread belief shows a strictly
    positive variance somewhere.
    """
    if e is None:
        e = bernoulli_experiment()
    if not isinstance(e, Experiment):
        raise ValueError("the expertise demo needs an Experiment")
    if not is_identified(e):
        raise ValueError("experiment must be identified (distinct kernel rows)")
    n = len(e.parameters)
    d = require_int(grid_denominator, "grid_denominator", 1)
    if math.comb(d + n - 1, n - 1) > MAX_GRID_BELIEFS:
        raise ValueError(f"grid_denominator {d} gives more than {MAX_GRID_BELIEFS} grid beliefs")
    claims = _Claims()
    doubled = power(e, 2)
    columns = [e.kernel.col(y) for y in range(len(e.outcomes))]
    # product-experiment weights, (mean, square) per kernel column
    weights = []
    for y, column in enumerate(columns):
        first = moment_weights(e, 2, column, 1)
        second = moment_weights(e, 2, column, 2)
        claims.check(
            f"column {e.outcomes[y]!r}: mean and square weights exist",
            first.elicitable and second.elicitable,
        )
        weights += [first.weights, second.weights]
    moment_matrix = Matrix.from_cols(weights)
    direct_matrix = Matrix.from_cols(
        [g for column in columns for g in (column, tuple(c * c for c in column))]
    )

    def pairs(values: tuple[Fraction, ...]) -> list[tuple[Fraction, Fraction]]:
        return list(zip(values[::2], values[1::2]))

    def elicited_moments(p: Belief) -> list[tuple[Fraction, Fraction]]:
        return pairs(moment_matrix.left_mul_vec(mean_outcome_distribution(doubled, p)))

    for i in range(n):
        p = Belief.point_mass(n, i)
        moments = elicited_moments(p)
        claims.check(
            f"point mass on {e.parameters[i]!r}: all column variances are 0",
            all(sq == mean * mean for mean, sq in moments),
        )
        mean_vector = tuple(mean for mean, _ in moments)
        matches = [t for t in range(n) if e.kernel.row(t) == mean_vector]
        claims.check(
            f"point mass on {e.parameters[i]!r}: parameter recovered from means",
            matches == [i],
        )
    spread = [
        (elicited_moments(p), pairs(direct_matrix.left_mul_vec(p.weights)))
        for p in belief_grid(n, grid_denominator)
        if sum(w > 0 for w in p.weights) >= 2
    ]
    claims.check(
        "elicited moments equal direct moments for every grid belief",
        all(elicited == direct for elicited, direct in spread),
    )
    claims.check(
        "every spread belief has a strictly positive column variance",
        bool(spread)
        and all(any(sq > mean * mean for mean, sq in moments) for moments, _ in spread),
    )
    artifacts: dict = {"grid_denominator": grid_denominator}
    if e.parameters == ("0", "1/2", "1"):
        uniform = Belief.uniform(n)
        moments = elicited_moments(uniform)
        mean, sq = moments[e.outcomes.index("1")]
        variance = sq - mean * mean
        claims.check(
            "uniform belief: variance of the success-column statistic is 1/6",
            variance == Fraction(1, 6),
            detail=format_rational(variance),
        )
        artifacts["uniform_success_variance"] = format_rational(variance)
    return DemoReport(
        name="expertise",
        inputs={"parameters": list(e.parameters), "grid_denominator": grid_denominator},
        claims=claims.done(),
        artifacts=artifacts,
    )


# -- density approximation ---------------------------------------------------


def _inner(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Exact inner product on [0, 1] of two polynomials: <x^i, x^j> = 1/(i+j+1)."""
    return sum(
        (ai * bj / (i + j + 1) for i, ai in enumerate(a) for j, bj in enumerate(b)),
        _ZERO,
    )


def _shifted_legendre(max_degree: int) -> list[tuple[list[Fraction], Fraction]]:
    """Exact orthogonal polynomial basis on [0, 1] up to ``max_degree``.

    Gram-Schmidt over monomials using the exact inner product ``_inner``.
    Returns (ascending coefficients, squared norm) per degree; dividing by
    the square root of the norm would give the shifted Legendre basis, but
    norms are kept separate so everything stays rational.
    """
    basis: list[tuple[list[Fraction], Fraction]] = []
    for k in range(max_degree + 1):
        monomial = [_ZERO] * k + [_ONE]
        coef = monomial
        for prev, norm in basis:
            scale = _inner(prev, monomial) / norm
            coef = [
                c - scale * (prev[j] if j < len(prev) else _ZERO)
                for j, c in enumerate(coef)
            ]
        basis.append((coef, _inner(coef, coef)))
    return basis


def _value_at_inverse_e(num, den=(_ONE,), root=_ONE) -> float:
    """Correctly rounded float, sign included, of sqrt(root) * num(u) / den(u).

    ``num`` and ``den`` (not 0) list rational coefficients of powers of u = 1/e.
    u is transcendental (Hermite 1873): num(u) / den(u) is 0 only if ``num`` is,
    and rational only if ``num`` is a multiple of ``den``. Otherwise the terms
    of u's series double until the value's interval over the bracket they give
    excludes 0 and both its ends round to one float, which is then the value's.
    """
    if not any(num):
        return 0.0
    pairs = list(itertools.zip_longest(num, den, fillvalue=_ZERO))
    if all(a * d == b * c for a, b in pairs for c, d in pairs):
        num, den = (next(a / b for a, b in pairs if b),), (_ONE,)
    terms = 4
    while terms := 2 * terms:
        m = math.factorial(terms)
        # terms is even: u lies between the sums of (-1)^i / i! to terms - 1 and terms
        top = sum((-1) ** i * (m // math.factorial(i)) for i in range(terms + 1))
        low, high = Fraction(top - 1, m), Fraction(top, m)
        # each term c u^i is monotone in u >= 0
        n_ends, d_ends = (
            [sum(c * (a if c > 0 else b) ** i for i, c in enumerate(poly))
             for a, b in ((low, high), (high, low))]
            for poly in (num, den)
        )
        # sqrt(root) = sqrt(pq) / q lies in [s, s + 1] / (m q), at s if s * s hits
        s = math.isqrt(square := root.numerator * root.denominator * m * m)
        roots = [Fraction(s + b, m * root.denominator) for b in (0, s * s != square)]
        if min(d_ends) > 0 or max(d_ends) < 0:
            # multilinear in (num, root, 1 / den): extremes at the box's corners
            corners = [n / d * r for n in n_ends for d in d_ends for r in roots]
            lo, hi = min(corners), max(corners)
            if (lo > 0 or hi < 0) and float(lo) == float(hi):
                return float(lo)


# Each density is g / D on [0, 1]: (moment j of g, D, integral of g^2), each
# given by its rational coefficients of ascending powers of u = 1/e.
_DENSITIES: dict[str, tuple] = {
    # g = 6x(1 - x), D = 1
    "quadratic": (
        lambda j: (Fraction(6, (j + 2) * (j + 3)), 0),
        (_ONE, _ZERO),
        (Fraction(6, 5), 0, 0),
    ),
    # g = e^(-x), D = 1 - u: the integral of x^j e^(-x) is j! (1 - u sum_{i<=j} 1/i!)
    "exponential": (
        lambda j: (math.factorial(j), -sum(math.perm(j, k) for k in range(j + 1))),
        (_ONE, -_ONE),
        (Fraction(1, 2), 0, Fraction(-1, 2)),
    ),
}


def demo_density(density: str = "quadratic", max_degree: int = 8) -> DemoReport:
    """Polynomial approximation of a belief density from elicitable moments.

    Works on the one-dimensional belief simplex of a binary trial. The raw
    moments of the success rate up to degree n are elicitable from n
    independent trials (verified exactly on a rational grid); an exact change
    of basis turns them into coefficients of the orthogonal polynomial
    expansion, giving the L2-best degree-n approximation of the density. The
    mean integrated squared error is exact per degree; claims are decided on
    exact values, and the report holds their correctly rounded floats.
    """
    if density not in _DENSITIES:
        raise ValueError(f"unknown density {density!r}; options: {sorted(_DENSITIES)}")
    require_int(max_degree, "max_degree", 1, MAX_DENSITY_DEGREE)
    moment, d, g_squared = _DENSITIES[density]
    claims = _Claims()
    basis = _shifted_legendre(max_degree)

    claims.check(
        "basis polynomials are exactly orthogonal",
        all(_inner(a, b) == 0 for i, (a, _) in enumerate(basis) for b, _ in basis[:i]),
    )

    # the exact change of basis from the raw moments of g to its projections
    # (P_k, Q_k): the density's k-th coefficient is (P_k + Q_k u) / (D sqrt(N_k))
    projections = [
        tuple(sum(c * moment(j)[i] for j, c in enumerate(coef)) for i in (0, 1))
        for coef, _ in basis
    ]
    coefficients = [
        _value_at_inverse_e(pq, d, 1 / n) for pq, (_, n) in zip(projections, basis)
    ]
    claims.check(
        "degree-0 coefficient is 1 (densities integrate to 1)",
        projections[0] == d,
        detail=f"{coefficients[0]!r}",
    )

    # the moments themselves are elicitable: product weights on a rational grid
    statistic = tuple(Fraction(i, 10) for i in range(11))
    grid = bernoulli_experiment(statistic)

    def raw_moment_ok(j: int) -> bool:
        report = moment_weights(grid, j, statistic, j)
        target = tuple(t**j for t in statistic)
        return report.elicitable and (
            power(grid, j).kernel.mul_vec(report.weights) == target
        )

    claims.check(
        "each raw moment has exact product-experiment weights on a rational grid",
        all(raw_moment_ok(j) for j in range(1, max_degree + 1)),
    )

    # MISE(n) D^2 = (integral of g^2) - sum_{k<=n} (P_k + Q_k u)^2 / N_k, a
    # quadratic in u: three rationals per degree from 1 to max_degree
    errors = [g_squared]
    for (p, q), (_, n) in zip(projections, basis):
        squares = (p * p, 2 * p * q, q * q)
        errors.append([e - t / n for e, t in zip(errors[-1], squares)])
    errors = errors[2:]
    d_squared = (d[0] * d[0], 2 * d[0] * d[1], d[1] * d[1])
    mise = [_value_at_inverse_e(e, d_squared) for e in errors]

    if density == "quadratic":
        claims.check(
            "degree >= 2 reproduces the quadratic density exactly",
            not any(map(any, errors[1:])),
            detail=str(mise),
        )
    else:
        # MISE(n-1) - MISE(n) = (P_n + Q_n u)^2 / (N_n D^2), and u is irrational
        claims.check(
            "error strictly decreases across the degree sweep",
            all(p or q for p, q in projections[2:]),
            detail=str(mise),
        )
    claims.check(
        "degree-weighted error stays bounded along the sweep",
        all(
            _value_at_inverse_e([10 * a - n * b for a, b in zip(errors[0], e)]) >= 0
            for n, e in enumerate(errors, start=1)
        ),
    )
    return DemoReport(
        name="density",
        inputs={"density": density, "max_degree": max_degree},
        claims=claims.done(),
        artifacts={
            "mise_by_degree": {str(n + 1): mise[n] for n in range(len(mise))},
            "degree_weighted_error": {
                str(n): _value_at_inverse_e([n * c for c in e], d_squared)
                for n, e in enumerate(errors, start=1)
            },
            "basis_coefficients": coefficients,
            "exactness_note": (
                "incentives are exact, so the reported error is pure "
                "polynomial approximation error; no statistical estimation "
                "error enters"
            ),
        },
    )


# -- discretized linear regression -------------------------------------------


@dataclass(frozen=True)
class DiscretizedRegression:
    """Finite linear-model instance: coefficient grid, covariates, symmetric noise.

    Outcomes are the linear predictor plus or minus ``noise_scale`` with equal
    probability, so the identity weighting of the outcome is an exactly
    unbiased estimate of the predictor.
    """

    coefficient_grid: tuple[tuple[Fraction, ...], ...]
    covariates: tuple[tuple[Fraction, ...], ...]
    noise_scale: Fraction

    def __post_init__(self) -> None:
        if not require_tuple(self.coefficient_grid, "coefficient grid", tuple):
            raise ValueError("coefficient grid must be nonempty")
        width = len(self.coefficient_grid[0])
        if width < 1:
            raise ValueError("coefficient vectors need an intercept entry")
        for beta in self.coefficient_grid:
            require_exact(beta, "coefficient vector")
            require_length(len(beta), width, "coefficient vector length", "first vector's length")
        for x in require_tuple(self.covariates, "covariates", tuple):
            require_exact(x, "covariate")
            require_length(len(x), width - 1, "covariate length", "slope count")
        require_exact((self.noise_scale,), "noise scale")
        if self.noise_scale < 0:
            raise ValueError("noise scale must be nonnegative")

    @property
    def n_slopes(self) -> int:
        return len(self.coefficient_grid[0]) - 1


def _default_regression() -> DiscretizedRegression:
    h = Fraction(1, 2)
    grid = tuple(
        (b0, b1)
        for b0 in (h, Fraction(3, 2))
        for b1 in (Fraction(0), Fraction(1))
    )
    return DiscretizedRegression(
        coefficient_grid=grid,
        covariates=((Fraction(2),), (Fraction(3),)),
        noise_scale=h,
    )


def _predictor_experiment(
    reg: DiscretizedRegression, x: tuple[Fraction, ...]
) -> tuple[Experiment, tuple[Fraction, ...]]:
    """Experiment observing predictor +/- noise for one covariate draw.

    Returns the experiment and the per-parameter predictor values (the
    statistic whose mean the outcome elicits).
    """
    predictors = Matrix.from_rows(reg.coefficient_grid).mul_vec((1,) + x)
    support: dict[Fraction, None] = {}
    for h in predictors:
        support.setdefault(h - reg.noise_scale)
        support.setdefault(h + reg.noise_scale)
    outcomes = tuple(sorted(support))
    half = Fraction(1, 2)
    rows = []
    for h in predictors:
        row = [_ZERO] * len(outcomes)
        row[outcomes.index(h - reg.noise_scale)] += half
        row[outcomes.index(h + reg.noise_scale)] += half
        rows.append(row)
    labels = tuple(format_rational(v) for v in outcomes)
    params = tuple(
        "b=(" + ",".join(format_rational(b) for b in beta) + ")"
        for beta in reg.coefficient_grid
    )
    return (
        Experiment(params, labels, Matrix.from_rows(rows)),
        predictors,
    )


def demo_regression(
    reg: Optional[DiscretizedRegression] = None,
    belief: Optional[Belief] = None,
) -> DemoReport:
    """Mean regression coefficients from one observation per covariate draw.

    Each covariate draw's experiment elicits the mean linear predictor via
    the identity outcome weighting; with one more draw than slopes and a
    full-rank design matrix, the mean coefficient vector solves the linear
    system exactly.
    """
    if reg is None:
        reg = _default_regression()
    if not isinstance(reg, DiscretizedRegression):
        raise ValueError("the regression demo needs a DiscretizedRegression")
    k = reg.n_slopes
    require_length(len(reg.covariates), k + 1, "covariate draw count", "slope count plus one")
    belief = belief or Belief.uniform(len(reg.coefficient_grid))
    if not isinstance(belief, Belief):
        raise ValueError("the regression demo needs a Belief over the coefficient grid")
    require_length(len(belief.weights), len(reg.coefficient_grid), "belief length",
                   "coefficient grid")
    claims = _Claims()
    design = Matrix.from_rows([(1,) + x for x in reg.covariates])
    if determinant(design) == 0:
        raise ValueError(
            "degenerate covariate draw: the design matrix is rank-deficient "
            "(a probability-zero event under continuous covariates)"
        )
    claims.check("design matrix has full rank", True)

    elicited: list[Fraction] = []
    for x in reg.covariates:
        experiment, predictors = _predictor_experiment(reg, x)
        outcome_values = tuple(Fraction(label) for label in experiment.outcomes)
        claims.check(
            f"covariate {tuple(map(format_rational, x))}: identity weighting is unbiased",
            experiment.kernel.mul_vec(outcome_values) == predictors,
        )
        report = unbiased_weights(experiment, predictors)
        claims.check(
            f"covariate {tuple(map(format_rational, x))}: solver confirms elicitability",
            report.elicitable,
        )
        # the mean outcome distribution is itself a belief, over the outcomes
        lam = Belief(mean_outcome_distribution(experiment, belief))
        via_outcomes = statistic_mean(outcome_values, lam)
        claims.check(
            f"covariate {tuple(map(format_rational, x))}: elicited mean matches direct mean",
            via_outcomes == statistic_mean(predictors, belief),
        )
        elicited.append(via_outcomes)

    recovered = solve_linear(design, [elicited])[0]
    true_means = Matrix.from_rows(reg.coefficient_grid).left_mul_vec(belief.weights)
    claims.check(
        "recovered coefficient means equal the belief's true means",
        recovered == true_means,
        detail=str([format_rational(v) for v in recovered or ()]),
    )
    return DemoReport(
        name="regression",
        inputs={
            "slopes": k,
            "covariates": [[format_rational(v) for v in x] for x in reg.covariates],
            "noise_scale": format_rational(reg.noise_scale),
        },
        claims=claims.done(),
        artifacts={
            "recovered_coefficient_means": [format_rational(v) for v in recovered],
            "elicited_predictor_means": [format_rational(v) for v in elicited],
        },
    )


def demo_bernoulli_orders() -> DemoReport:
    """Clean versus uniformly noisy binary trial, end to end.

    Runs all five comparison queries in both directions, decomposes the
    noisy-dominates-clean direction into a minimal uniform garbling, and
    checks pushforward payoff equivalence on an exact belief grid.
    """
    # the only demo that uses these modules, so only it loads them
    from .mechanisms import TableMechanism, expected_payoff, pushforward
    from .orders import (
        blackwell_dominates, bounded_dominates, elicitation_dominates,
        nonneg_dominates, uniform_garbling_decomposition,
    )

    clean = bernoulli_experiment()
    noisy = noisy_bernoulli_experiment()
    claims = _Claims()

    round_trip = uniform_garble(clean, Fraction(1, 10))
    claims.check(
        "uniform noise at 1/10 reproduces the noisy kernel entry by entry",
        round_trip.kernel == noisy.kernel,
    )

    elic_cn = elicitation_dominates(clean, noisy)
    elic_nc = elicitation_dominates(noisy, clean)
    claims.check("elicitation dominance holds in both directions",
                 elic_cn.holds and elic_nc.holds)

    bw_cn = blackwell_dominates(clean, noisy)
    bw_nc = blackwell_dominates(noisy, clean)
    expected_markov = Matrix.from_rows(
        [[Fraction(19, 20), Fraction(1, 20)], [Fraction(1, 20), Fraction(19, 20)]]
    )
    claims.check(
        "clean Blackwell-dominates noisy with the mixing channel",
        bw_cn.holds and bw_cn.witness == expected_markov,
    )
    claims.check("noisy does not Blackwell-dominate clean", not bw_nc.holds)

    nn_cn = nonneg_dominates(clean, noisy)
    nn_nc = nonneg_dominates(noisy, clean)
    claims.check("nonnegative transfer works from clean to noisy", nn_cn.holds)
    claims.check("nonnegative transfer fails from noisy to clean", not nn_nc.holds)

    bd_cn = bounded_dominates(clean, noisy)
    bd_nc = bounded_dominates(noisy, clean)
    claims.check("[0,1]-bounded transfer works from clean to noisy", bd_cn.holds)
    claims.check("[0,1]-bounded transfer fails from noisy to clean", not bd_nc.holds)

    decomposition = uniform_garbling_decomposition(noisy, clean)
    claims.check(
        "garbling decomposition finds noise level exactly 1/10",
        decomposition.noise == Fraction(1, 10),
        detail=format_rational(decomposition.noise),
    )
    claims.check(
        "garbling transition is the identity channel",
        decomposition.transition == Matrix.identity(2),
    )

    # payoff transfer along both elicitation witnesses
    table = TableMechanism(
        noisy,
        ("low", "mid", "high"),
        Matrix.from_rows(
            [[Fraction(0), Fraction(1)], [Fraction(1, 2), Fraction(1, 2)], [Fraction(1), Fraction(0)]]
        ),
    )
    pushed = pushforward(table, elic_cn.witness, clean)
    grid = belief_grid(len(clean.parameters), 4)
    transfer_ok = all(
        expected_payoff(pushed, p, r) == expected_payoff(table, p, r)
        for p in grid
        for r in table.reports
    )
    claims.check(
        "pushforward preserves expected payoffs at every grid belief and report",
        transfer_ok,
    )
    back_table = TableMechanism(
        clean,
        ("score",),
        Matrix.from_rows([[Fraction(0), Fraction(1)]]),
    )
    pushed_back = pushforward(back_table, elic_nc.witness, noisy)
    claims.check(
        "reverse pushforward leaves [0,1] but still matches expectations",
        (min(pushed_back.payoffs.entries) < 0 or max(pushed_back.payoffs.entries) > 1)
        and all(
            expected_payoff(pushed_back, p, 0) == expected_payoff(back_table, p, 0)
            for p in grid
        ),
    )
    return DemoReport(
        name="bernoulli_orders",
        inputs={},
        claims=claims.done(),
        artifacts={
            "blackwell_witness": bw_cn.witness.to_doc(),
            "elicitation_witness_noisy_over_clean": elic_nc.witness.to_doc(),
            "garbling_noise": format_rational(decomposition.noise),
        },
    )


DEMOS: Mapping[str, Callable[..., DemoReport]] = {
    "german_tank": demo_german_tank,
    "poisson": demo_poisson,
    "expertise": demo_expertise,
    "density": demo_density,
    "regression": demo_regression,
    "bernoulli_orders": demo_bernoulli_orders,
}
