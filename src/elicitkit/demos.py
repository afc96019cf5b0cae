"""Desk-scale worked demonstrations, each emitting a machine-checked report.

Every demo builds small exact experiments, runs the library end to end, and
records a list of claims that are asserted by computation, never narrated.
A report with any failed claim makes the CLI exit nonzero. Truncation errors
are computed exactly and reported, not absorbed. Floating point appears only
inside the density demo's quadrature.
"""

from __future__ import annotations

import functools
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
from .exactcore import Matrix, format_rational, rank, solve_linear
from .model import (
    Belief,
    Experiment,
    belief_grid,
    is_identified,
    mean_outcome_distribution,
    power,
    uniform_garble,
)
from .elicit import complete_elicitation, moment_weights, unbiased_weights
from .mechanisms import TableMechanism, expected_payoff, pushforward
from .orders import (
    blackwell_dominates,
    bounded_dominates,
    elicitation_dominates,
    nonneg_dominates,
    uniform_garbling_decomposition,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    if n_max < 2:
        raise ValueError("need a population bound of at least 2")
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
        boundary_row = e.kernel.row(m)  # population size m+1
        value = sum((a * b for a, b in zip(boundary_row, report.weights)), _ZERO)
        claims.check(
            f"threshold m={m}: expected weight under population m+1 is 0",
            value == 0,
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


def _poisson_partial_sums(rate: Fraction, k_max: int) -> list[Fraction]:
    sums = []
    total = _ZERO
    term = _ONE
    for k in range(k_max + 1):
        if k > 0:
            term = term * rate / k
        total += term
        sums.append(total)
    return sums


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
    rates = [Fraction(t) for t in rates]
    claims = _Claims()
    for t in rates:
        if t >= k_max + 2:
            raise ValueError("rate too large for the truncation bound")
        # remaining mass after k_max, bounded by a geometric tail
        term = _ONE
        for k in range(1, k_max + 2):
            term = term * t / k
        remainder = term / (1 - t / (k_max + 2))
        sums = _poisson_partial_sums(t, k_max)
        tail_estimate = remainder / (sums[-1] + remainder)
        if tail_estimate > tail_bound:
            raise ValueError(
                f"truncated tail mass bound {tail_estimate} exceeds {tail_bound}"
            )
    e = truncated_poisson_experiment(k_max, rates)
    errors: dict[str, dict[str, str]] = {}
    for i, t in enumerate(rates):
        sums = _poisson_partial_sums(t, k_max)
        row = e.kernel.row(i)
        per_rate: dict[str, str] = {}
        for j in range(max_power + 1):
            weights = []
            for k in range(k_max + 1):
                w = _ONE
                for r in range(j):
                    w *= k - r
                weights.append(w)
            elicited = sum((w * p for w, p in zip(weights, row)), _ZERO)
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
    if not is_identified(e):
        raise ValueError("experiment must be identified (distinct kernel rows)")
    claims = _Claims()
    doubled = power(e, 2)
    n = len(e.parameters)
    m = len(e.outcomes)
    mean_w = []
    square_w = []
    for y in range(m):
        column = e.kernel.col(y)
        first = moment_weights(e, 2, column, 1)
        second = moment_weights(e, 2, column, 2)
        claims.check(
            f"column {e.outcomes[y]!r}: mean and square weights exist",
            first.elicitable and second.elicitable,
        )
        mean_w.append(first.weights)
        square_w.append(second.weights)

    def elicited_moments(p: Belief) -> list[tuple[Fraction, Fraction]]:
        lam = mean_outcome_distribution(doubled, p)
        out = []
        for y in range(m):
            mean = sum((l * w for l, w in zip(lam, mean_w[y])), _ZERO)
            square = sum((l * w for l, w in zip(lam, square_w[y])), _ZERO)
            out.append((mean, square))
        return out

    for i in range(n):
        p = Belief.point_mass(n, i)
        moments = elicited_moments(p)
        variances = [sq - mean * mean for mean, sq in moments]
        claims.check(
            f"point mass on {e.parameters[i]!r}: all column variances are 0",
            all(v == 0 for v in variances),
        )
        mean_vector = tuple(mean for mean, _ in moments)
        matches = [
            t for t in range(n) if e.kernel.row(t) == mean_vector
        ]
        claims.check(
            f"point mass on {e.parameters[i]!r}: parameter recovered from means",
            matches == [i],
        )
    spread_found = 0
    for p in belief_grid(n, grid_denominator):
        if len([w for w in p.weights if w > 0]) < 2:
            continue
        moments = elicited_moments(p)
        direct = [
            (
                sum((pw * g for pw, g in zip(p.weights, e.kernel.col(y))), _ZERO),
                sum(
                    (pw * g * g for pw, g in zip(p.weights, e.kernel.col(y))),
                    _ZERO,
                ),
            )
            for y in range(m)
        ]
        if moments != direct:
            claims.check(
                "elicited moments equal direct moments for every grid belief",
                False,
            )
            break
        if any(sq - mean * mean > 0 for mean, sq in moments):
            spread_found += 1
        else:
            claims.check(
                "every spread belief has a strictly positive column variance",
                False,
            )
            break
    else:
        claims.check(
            "elicited moments equal direct moments for every grid belief", True
        )
        claims.check(
            "every spread belief has a strictly positive column variance",
            spread_found > 0,
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


def _orthogonal_polynomials(max_degree: int) -> list[tuple[list[Fraction], Fraction]]:
    """Exact orthogonal polynomial basis on [0, 1] up to ``max_degree``.

    Gram-Schmidt over monomials using the exact inner products
    ``<x^a, x^b> = 1/(a+b+1)``. Returns (ascending coefficients, squared
    norm) per degree; dividing by the square root of the norm would give the
    shifted Legendre basis, but norms are kept separate so everything stays
    rational.
    """
    basis: list[tuple[list[Fraction], Fraction]] = []
    for k in range(max_degree + 1):
        coef = [_ZERO] * (k + 1)
        coef[k] = _ONE
        for prev, norm in basis:
            inner = sum(
                (c * Fraction(1, j + k + 1) for j, c in enumerate(prev)), _ZERO
            )
            scale = inner / norm
            coef = [
                c - scale * (prev[j] if j < len(prev) else _ZERO)
                for j, c in enumerate(coef)
            ]
        norm = sum(
            (
                ci * cj * Fraction(1, i + j + 1)
                for i, ci in enumerate(coef)
                for j, cj in enumerate(coef)
            ),
            _ZERO,
        )
        basis.append((coef, norm))
    return basis


def _orthonormal_values(max_degree: int, x: float) -> list[float]:
    """Stable float evaluation of the orthonormal basis at one point.

    Uses the classical three-term recurrence on [0, 1]. The orthonormal basis
    with positive leading coefficients is unique, so these are exactly the
    normalized Gram-Schmidt polynomials; the recurrence avoids the monomial
    basis cancellation that degrades direct evaluation past degree 6 or so.
    """
    t = 2.0 * x - 1.0
    raw = [1.0]
    if max_degree >= 1:
        raw.append(t)
    for k in range(1, max_degree):
        raw.append(((2 * k + 1) * t * raw[k] - k * raw[k - 1]) / (k + 1))
    return [math.sqrt(2 * k + 1) * raw[k] for k in range(max_degree + 1)]


_QUAD_NODES = 48  # even: the rule is built as mirrored pairs about 1/2


@functools.cache
def _gauss_legendre() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of the Gauss-Legendre rule on [0, 1], ascending.

    The nodes are the roots of P_N(2x - 1), found by Newton steps from the
    guesses cos(pi (i - 1/4) / (N + 1/2)); P_N and P_{N-1} come from
    ``_orthonormal_values`` with its sqrt(2k + 1) factors divided out. The
    rule is exact for polynomials of degree up to 2N - 1 (Golub & Welsch 1969),
    so it integrates the demo's smooth integrands to rounding.
    """
    n = _QUAD_NODES

    def legendre(x: float) -> tuple[float, float, float]:
        """P_n(t) and dP_n/dt at t = 2x - 1, and 1 - t^2 without cancellation."""
        values = _orthonormal_values(n, x)
        p = values[n] / math.sqrt(2 * n + 1)
        q = values[n - 1] / math.sqrt(2 * n - 1)
        one_minus_t2 = 4.0 * x * (1.0 - x)
        return p, n * (q - (2.0 * x - 1.0) * p) / one_minus_t2, one_minus_t2

    pairs = []
    for i in range(1, n // 2 + 1):
        x = (1.0 + math.cos(math.pi * (i - 0.25) / (n + 0.5))) / 2.0
        for _ in range(100):
            p, dp, _ = legendre(x)
            step = p / (2.0 * dp)  # d/dx P_n(2x - 1) = 2 P_n'(t)
            x -= step
            if abs(step) <= 1e-16:
                break
        _, dp, one_minus_t2 = legendre(x)
        weight = 1.0 / (one_minus_t2 * dp * dp)
        pairs += [(x, weight), (1.0 - x, weight)]  # 1 - x is exact for x >= 1/2
    pairs.sort()
    nodes, weights = zip(*pairs)
    return nodes, weights


def _quad(fn: Callable[[float], float]) -> float:
    """Integral of ``fn`` over [0, 1] by the fixed Gauss-Legendre rule."""
    nodes, weights = _gauss_legendre()
    return math.fsum(w * fn(x) for x, w in zip(nodes, weights))


_DENSITIES: dict[str, Callable[[float], float]] = {
    "quadratic": lambda x: 6.0 * x * (1.0 - x),
    "exponential": lambda x: math.exp(-x) / (1.0 - math.exp(-1.0)),
}


def demo_density(density: str = "quadratic", max_degree: int = 8) -> DemoReport:
    """Polynomial approximation of a belief density from elicitable moments.

    Works on the one-dimensional belief simplex of a binary trial. The raw
    moments of the success rate up to degree n are elicitable from n
    independent trials (verified exactly on a rational grid); an exact change
    of basis turns them into coefficients of the orthogonal polynomial
    expansion, giving the L2-best degree-n approximation of the density. The
    mean integrated squared error is reported per degree.
    """
    if density not in _DENSITIES:
        raise ValueError(f"unknown density {density!r}; options: {sorted(_DENSITIES)}")
    if max_degree < 1:
        raise ValueError("need max_degree >= 1")
    f = _DENSITIES[density]
    claims = _Claims()
    basis = _orthogonal_polynomials(max_degree)

    # exact pairwise orthogonality, plus the quadrature view of the same
    exact_ok = True
    for i in range(len(basis)):
        for j in range(i):
            pi, _ = basis[i]
            pj, _ = basis[j]
            inner = sum(
                (
                    ci * cj * Fraction(1, a + b + 1)
                    for a, ci in enumerate(pi)
                    for b, cj in enumerate(pj)
                ),
                _ZERO,
            )
            exact_ok = exact_ok and inner == 0
    claims.check("basis polynomials are exactly orthogonal", exact_ok)
    numeric_worst = 0.0
    for i in range(max_degree + 1):
        for j in range(i):
            numeric = _quad(
                lambda x, a=i, b=j: (
                    lambda vals: vals[a] * vals[b]
                )(_orthonormal_values(max_degree, x))
            )
            numeric_worst = max(numeric_worst, abs(numeric))
    claims.check(
        "quadrature off-diagonal inner products below 1e-12",
        numeric_worst <= 1e-12,
        detail=f"{numeric_worst:.3e}",
    )
    # the normalized exact basis and the recurrence evaluation agree pointwise
    basis_gap = 0.0
    for x in (0.0, 0.31, 0.5, 0.77, 1.0):
        values = _orthonormal_values(max_degree, x)
        for k, (coef, norm) in enumerate(basis):
            direct = sum(float(c) * x**j for j, c in enumerate(coef))
            basis_gap = max(
                basis_gap, abs(direct / math.sqrt(float(norm)) - values[k])
            )
    claims.check(
        "normalized basis matches its recurrence evaluation",
        basis_gap <= 1e-9,
        detail=f"{basis_gap:.3e}",
    )

    # raw moments of the density, and the exact change of basis to coefficients
    moments = [_quad(lambda x, jj=j: x**jj * f(x)) for j in range(max_degree + 1)]
    coefficients = []
    for coef, norm in basis:
        projection = sum(float(c) * moments[j] for j, c in enumerate(coef))
        coefficients.append(projection / math.sqrt(float(norm)))
    claims.check(
        "degree-0 coefficient is 1 (densities integrate to 1)",
        abs(coefficients[0] - 1.0) <= 1e-10,
        detail=f"{coefficients[0]!r}",
    )

    # the moments themselves are elicitable: product weights on a rational grid
    grid = bernoulli_experiment([Fraction(i, 10) for i in range(11)])
    statistic = tuple(Fraction(i, 10) for i in range(11))
    moment_ok = True
    for j in range(1, max_degree + 1):
        report = moment_weights(grid, j, statistic, j)
        if not report.elicitable:
            moment_ok = False
            break
        target = tuple(t**j for t in statistic)
        if power(grid, j).kernel.mul_vec(report.weights) != target:
            moment_ok = False
            break
    claims.check(
        "each raw moment has exact product-experiment weights on a rational grid",
        moment_ok,
    )

    mise: list[float] = []
    for degree in range(1, max_degree + 1):
        coeffs = coefficients[: degree + 1]

        def residual(x: float) -> float:
            values = _orthonormal_values(max_degree, x)
            approx = sum(c * v for c, v in zip(coeffs, values))
            gap = f(x) - approx
            return gap * gap

        mise.append(_quad(residual))

    if density == "quadratic":
        claims.check(
            "degree >= 2 reproduces the quadratic density to quadrature tolerance",
            all(value <= 1e-10 for value in mise[1:]),
            detail=str(mise),
        )
        claims.check(
            "error is non-increasing in the degree",
            all(b <= a + 1e-12 for a, b in zip(mise, mise[1:])),
        )
    else:
        claims.check(
            "error strictly decreases across the degree sweep",
            all(b < a for a, b in zip(mise, mise[1:])),
            detail=str(mise),
        )
    claims.check(
        "degree-weighted error stays bounded along the sweep",
        all(
            (n + 1) * value <= 10 * max(mise[0], 1e-10)
            for n, value in enumerate(mise)
        ),
    )
    return DemoReport(
        name="density",
        inputs={"density": density, "max_degree": max_degree},
        claims=claims.done(),
        artifacts={
            "mise_by_degree": {str(n + 1): mise[n] for n in range(len(mise))},
            "degree_weighted_error": {
                str(n + 1): (n + 1) * mise[n] for n in range(len(mise))
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
        if not self.coefficient_grid:
            raise ValueError("coefficient grid must be nonempty")
        width = len(self.coefficient_grid[0])
        if width < 1:
            raise ValueError("coefficient vectors need an intercept entry")
        for beta in self.coefficient_grid:
            if len(beta) != width:
                raise ValueError("coefficient vectors must share a length")
        for x in self.covariates:
            if len(x) != width - 1:
                raise ValueError("covariate length must match the slope count")
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
    predictors = tuple(
        beta[0] + sum((b * xi for b, xi in zip(beta[1:], x)), _ZERO)
        for beta in reg.coefficient_grid
    )
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
    k = reg.n_slopes
    if len(reg.covariates) != k + 1:
        raise ValueError("need exactly one more covariate draw than slopes")
    belief = belief or Belief.uniform(len(reg.coefficient_grid))
    if len(belief.weights) != len(reg.coefficient_grid):
        raise ValueError("belief must range over the coefficient grid")
    claims = _Claims()
    design = Matrix.from_rows([(1,) + x for x in reg.covariates])
    if rank(design) != k + 1:
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
        lam = mean_outcome_distribution(experiment, belief)
        via_outcomes = sum((l * v for l, v in zip(lam, outcome_values)), _ZERO)
        direct = sum((w * h for w, h in zip(belief.weights, predictors)), _ZERO)
        claims.check(
            f"covariate {tuple(map(format_rational, x))}: elicited mean matches direct mean",
            via_outcomes == direct,
        )
        elicited.append(via_outcomes)

    recovered = solve_linear(design, elicited)
    true_means = tuple(
        sum(
            (w * beta[j] for w, beta in zip(belief.weights, reg.coefficient_grid)),
            _ZERO,
        )
        for j in range(k + 1)
    )
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
