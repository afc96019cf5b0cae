"""Exact linear algebra: products, probability-vector checks, solves, null
spaces, and LP feasibility.

Products and probability-vector checks are compared with term-by-term
``Fraction`` references. Infeasibility answers are cross-checked against an
independent vertex enumeration oracle on small instances; solutions are
always re-verified by substitution.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elicitkit import elicit, exactcore
from elicitkit.catalog import (
    bernoulli_experiment,
    noisy_bernoulli_experiment,
    random_experiment,
)
from elicitkit.exactcore import (
    Matrix,
    determinant,
    format_rational,
    kron,
    lp_feasible,
    null_space_basis,
    parse_rational,
    rank,
    require_distribution,
    require_exact,
    solve_linear,
)
from elicitkit.mechanisms import (
    envelope_check,
    expected_payoff,
    level_set_transform,
    mean_mechanism,
    quadratic_mechanism,
    tabulate,
    value_function,
)
from elicitkit.model import (
    CovariateMixture,
    belief_grid,
    garble,
    mixture,
    power,
    replacement_garbling_channel,
    replacement_garbling_channel_inverse,
)
from elicitkit.orders import (
    blackwell_dominates,
    bounded_dominates,
    elicitation_dominates,
    event_masses,
    uniform_garbling_decomposition,
    verify_event_weights,
)

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def small_matrix(max_rows=3, max_cols=4):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(small_fractions, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(Matrix.from_rows)
        )
    )


class TestRationalRoundTrip:
    def test_parse_variants(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("-7") == F(-7)
        assert parse_rational(".05") == F(1, 20)
        assert parse_rational(5) == F(5)

    def test_format(self):
        assert format_rational(F(3, 4)) == "3/4"
        assert format_rational(F(8, 4)) == "2"

    def test_returns_a_fraction_as_it_is(self):
        x = F(-7, 3)
        assert parse_rational(x) is x
        assert type(parse_rational(2)) is F and parse_rational("2") == 2

    def test_rejects_floats(self):
        with pytest.raises(ValueError):
            parse_rational(0.1)
        with pytest.raises(ValueError):
            parse_rational(True)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("one half")


class TestSolveLinear:
    def test_identity(self):
        x = solve_linear(Matrix.identity(2), [[F(3), F(5)]])[0]
        assert x == (F(3), F(5))

    def test_inconsistent_rows(self):
        a = Matrix.from_rows([[1, 1], [2, 2]])
        assert solve_linear(a, [[F(1), F(3)]]) == [None]

    def test_back_substitution(self):
        # hand oracle: x2 = 1 from the second row, then x1 + 1/2 = 1
        a = Matrix.from_rows([[1, "1/2"], [0, 1]])
        assert solve_linear(a, [[F(1), F(1)]]) == [(F(1, 2), F(1))]

    def test_free_variables_are_zero(self):
        a = Matrix.from_rows([[1, 1]])
        assert solve_linear(a, [[F(1)]]) == [(F(1), F(0))]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_linear(Matrix.identity(2), [[F(1)]])

    @pytest.mark.parametrize("bad", [0.1, True])
    def test_rejects_float_and_bool_right_hand_sides(self, bad):
        with pytest.raises(ValueError):
            solve_linear(Matrix.from_rows([[1, 1]]), [[bad]])

    def test_leaves_the_right_hand_sides_unchanged(self):
        a = Matrix.from_rows([[1, 2, 0], [0, 1, 1], [1, 3, 1]])
        rhs = [[F(1), F(2), F(3)], [F(0), F(1), F(2)]]
        before = [list(b) for b in rhs]
        solve_linear(a, rhs)
        assert rhs == before

    @given(small_matrix(), st.data())
    def test_constructed_systems_solve_exactly(self, a, data):
        x_true = data.draw(
            st.lists(small_fractions, min_size=a.cols, max_size=a.cols)
        )
        b = a.mul_vec([F(v) for v in x_true])
        (x,) = solve_linear(a, [b])
        assert x is not None
        assert a.mul_vec(x) == b

    def test_right_hand_sides_answer_independently(self):
        a = Matrix.from_rows([[1, 1], [2, 2]])
        rhs = [[F(1), F(2)], [F(1), F(3)], [F(0), F(0)]]
        assert solve_linear(a, rhs) == [(F(1), F(0)), None, (F(0), F(0))]
        assert solve_linear(a, []) == []

    @given(small_matrix(), st.data())
    def test_shared_reduction_matches_separate_solves(self, a, data):
        vectors = st.lists(small_fractions, min_size=a.rows, max_size=a.rows)
        rhs = data.draw(st.lists(vectors, min_size=1, max_size=4))
        assert solve_linear(a, rhs) == [solve_linear(a, [b])[0] for b in rhs]


def fraction_row_reduce(rows, pivot_cols):
    """Reference Fraction Gauss-Jordan: in-place reduced row echelon form over
    the first ``pivot_cols`` columns, extra columns riding along. Pivot
    columns run left to right, each on its first nonzero row; returns them."""
    pivots = []
    for c in range(pivot_cols):
        if len(pivots) == len(rows):
            break
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is not None:
            rows[r], rows[p] = rows[p], rows[r]
            rows[:] = dense_pivot(rows, r, c)
            pivots.append(c)
    return pivots


def fraction_solve(a, rhs):
    """The Fraction Gauss-Jordan solve, kept as the oracle for solve_linear:
    None when a row below the pivots is nonzero in b, else the pivot
    variables read off the reduced column and every free variable zero."""
    rows = [list(a.row(i)) + [F(b[i]) for b in rhs] for i in range(a.rows)]
    pivots = fraction_row_reduce(rows, a.cols)
    solutions = []
    for k in range(a.cols, a.cols + len(rhs)):
        if any(row[k] != 0 for row in rows[len(pivots) :]):
            solutions.append(None)
            continue
        x = [F(0)] * a.cols
        for r, c in enumerate(pivots):
            x[c] = rows[r][k]
        solutions.append(tuple(x))
    return solutions


@st.composite
def linear_systems(draw):
    """A matrix up to 6x6, empty shapes included, whose rows often combine
    earlier ones, so its rank falls short; and up to four right-hand sides,
    each in the column span or drawn freely (then mostly inconsistent)."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k = draw(small_fractions)
            rows.append([p + k * q for p, q in zip(x, y)])
        else:
            rows.append(draw(st.lists(small_fractions, min_size=ncols, max_size=ncols)))
    a = Matrix(nrows, ncols, tuple(x for row in rows for x in row))
    free = st.lists(small_fractions, min_size=nrows, max_size=nrows)
    spanned = st.lists(small_fractions, min_size=ncols, max_size=ncols).map(a.mul_vec)
    return a, draw(st.lists(st.one_of(free, spanned), max_size=4))


class TestSolveOracle:
    @given(linear_systems())
    def test_matches_the_fraction_solve(self, system):
        a, rhs = system
        assert solve_linear(a, rhs) == fraction_solve(a, rhs)
        assert rank(a) == len(fraction_row_reduce(a.to_lists(), a.cols))

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0), (0, 0)])
    def test_empty_shapes_match_the_fraction_solve(self, shape):
        a = Matrix(*shape, ())
        rhs = [[F(0)] * shape[0], [F(k + 1) for k in range(shape[0])]]
        assert solve_linear(a, rhs) == fraction_solve(a, rhs)
        assert solve_linear(a, rhs)[0] == (F(0),) * shape[1]

    def test_inconsistent_and_rank_deficient_columns_answer_none(self):
        a = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
        rhs = [[F(1), F(2), F(1)], [F(1), F(3), F(1)], [F(0), F(0), F(1)]]
        assert solve_linear(a, rhs) == fraction_solve(a, rhs)
        assert solve_linear(a, rhs) == [(F(-2), F(0), F(1)), None, (F(-3), F(0), F(1))]


def fraction_null_space_basis(a):
    """The Fraction Gauss-Jordan null-space basis, kept as an oracle."""
    _ZERO, _ONE = F(0), F(1)
    red = a.to_lists()
    pivots = fraction_row_reduce(red, a.cols)
    pivot_set = set(pivots)
    basis: list[tuple[F, ...]] = []
    for free in range(a.cols):
        if free in pivot_set:
            continue
        v = [_ZERO] * a.cols
        v[free] = _ONE
        for r, c in enumerate(pivots):
            v[c] = -red[r][free]
        first = next(x for x in v if x != 0)
        if first < 0:
            v = [-x for x in v]
        basis.append(tuple(v))
    return basis


class TestNullSpace:
    def test_rank_one_kernel(self):
        assert null_space_basis(Matrix.from_rows([[1, 1]])) == [(F(1), F(-1))]

    def test_leaves_the_callers_rows_unchanged(self):
        rows = [[F(1), F(2), F(0)], [F(2), F(4), F(1)]]
        before = [list(row) for row in rows]
        a = Matrix.from_rows(rows)
        assert null_space_basis(a) == [(F(2), F(-1), F(0))]
        assert rows == before and a == Matrix.from_rows(before)

    def test_identity_has_trivial_kernel(self):
        assert null_space_basis(Matrix.identity(2)) == []

    def test_binary_trial_transpose(self):
        # transpose of the three-point binary-trial kernel
        a = Matrix.from_rows([[1, "1/2", 0], [0, "1/2", 1]])
        basis = null_space_basis(a)
        assert basis == [(F(1), F(-2), F(1))]
        assert a.mul_vec(basis[0]) == (F(0), F(0))

    @given(st.one_of(small_matrix(), small_matrix(5, 6)))
    def test_matches_the_fraction_reduction(self, a):
        assert null_space_basis(a) == fraction_null_space_basis(a)

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0), (0, 0)])
    def test_empty_shapes_match_the_fraction_reduction(self, shape):
        a = Matrix(*shape, ())
        assert null_space_basis(a) == fraction_null_space_basis(a)
        assert len(null_space_basis(a)) == shape[1]

    @given(small_matrix())
    def test_kernel_properties(self, a):
        basis = null_space_basis(a)
        for v in basis:
            assert a.mul_vec(v) == (F(0),) * a.rows
        assert rank(a) + len(basis) == a.cols
        if basis:
            stacked = Matrix.from_rows([list(v) for v in basis])
            assert rank(stacked) == len(basis)


class TestDeterminant:
    def test_vandermonde(self):
        a = Matrix.from_rows([[1, 1, 1], [1, 2, 3], [1, 4, 9]])
        assert determinant(a) == F(2)

    def test_singular(self):
        assert determinant(Matrix.from_rows([[1, 2], [2, 4]])) == F(0)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            determinant(Matrix.from_rows([[1, 2]]))

    def test_empty_matrix_is_one(self):
        assert determinant(Matrix(0, 0, ())) == 1

    def test_matches_the_cofactor_expansion(self):
        rng = random.Random(37)
        for _ in range(200):
            n = rng.randint(1, 5)
            rows = [[F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.3:
                rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1])]
            assert determinant(Matrix.from_rows(rows)) == cofactor_determinant(rows), rows

    def test_matches_the_fraction_elimination(self):
        rng = random.Random(31)
        singular = 0
        for _ in range(300):
            n = rng.randint(0, 8)
            rows = [
                [
                    F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7)))
                    if rng.random() < 0.7
                    else F(0)
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            if n > 1 and rng.random() < 0.3:  # one row a combination of two others
                i, j, k = (rng.randrange(n) for _ in range(3))
                a, b = F(rng.randint(-3, 3), rng.randint(1, 3)), F(rng.randint(-3, 3))
                rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
            expected = dense_determinant(Matrix.from_rows(rows))
            assert determinant(Matrix.from_rows(rows)) == expected, rows
            singular += expected == 0
        assert 30 < singular < 200


def cofactor_determinant(rows):
    """Reference: Laplace expansion along the first row, in Fractions."""
    if not rows:
        return F(1)
    return sum(
        (-1) ** j * x * cofactor_determinant([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j, x in enumerate(rows[0])
    )


def dense_determinant(a):
    """Reference: dense Gaussian elimination over Fractions, the sign flipped per swap."""
    mat, n, det = a.to_lists(), a.rows, F(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if pivot_row is None:
            return F(0)
        if pivot_row != c:
            mat[c], mat[pivot_row] = mat[pivot_row], mat[c]
            det = -det
        det *= mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] / mat[c][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[c])]
    return det


def integer_rows(rng, count, cols, pool):
    """Random, zero, repeated and combined rows of ints; each joins ``pool``."""
    size = 10 ** rng.randint(0, 6)
    rows = []
    for _ in range(count):
        kind = rng.randrange(4) if pool else 0
        if kind == 0:
            row = [rng.randint(-size, size) for _ in range(cols)]
        elif kind == 1:
            row = [0] * cols
        elif kind == 2:
            row = list(rng.choice(pool))
        else:  # combinations of a few rows make rank deficits
            picks = rng.sample(pool, min(len(pool), 3))
            row = [sum(rng.randint(-3, 3) * r[j] for r in picks) for j in range(cols)]
        pool.append(row)
        rows.append(row)
    return rows


def rank_of(rows):
    return rank(Matrix.from_rows(rows))


@st.composite
def span_problems(draw):
    """A basis and query rows: random entries up to 10**6 in size, zero,
    repeated and combined rows, so ranks fall short as often as not."""
    cols = draw(st.integers(1, 6))
    pool: list[list[int]] = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(("random", "zero", "repeat", "combine"))) if pool else "random"
        if kind == "random":
            row = draw(st.lists(st.integers(-10**6, 10**6), min_size=cols, max_size=cols))
        elif kind == "zero":
            row = [0] * cols
        elif kind == "repeat":
            row = list(draw(st.sampled_from(pool)))
        else:
            factors = draw(st.lists(st.integers(-3, 3), min_size=len(pool), max_size=len(pool)))
            row = [sum(f * r[j] for f, r in zip(factors, pool)) for j in range(cols)]
        pool.append(row)
    split = draw(st.integers(0, len(pool)))
    return pool[:split], pool[split:]


def outside(basis, rows, n):
    """The first annihilator vector of the basis's span that some row leaves, or None."""
    return exactcore.Span.of(basis, n).outside(rows)


class TestSpan:
    def test_edge_cases(self):
        assert exactcore.Span.of([], 2).annihilator == ((1, 0), (0, 1))
        assert outside([], [], 2) is None
        assert outside([], [[0, 0]], 2) is None
        assert outside([], [[0, 1]], 2) == (0, 1)
        assert outside([[1, 2]], [], 2) is None
        assert outside([[0, 0], [2, 4]], [[1, 2], [1, 2], [0, 0]], 2) is None
        assert outside([[1, 2], [2, 4]], [[1, 2], [0, 1]], 2) == (2, -1)
        assert outside([[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]], 3) == (0, 0, 1)

    def test_matches_rank(self):
        rng = random.Random(29)
        spanned = 0
        for _ in range(400):
            cols, pool = rng.randint(1, 8), []
            basis = integer_rows(rng, rng.randint(0, 6), cols, pool)
            rows = integer_rows(rng, rng.randint(0, 4), cols, pool)
            expected = rank_of(basis + rows) == rank_of(basis)
            span = exactcore.Span.of(basis, cols)
            v = span.outside(rows)
            assert (v is None) == expected, (basis, rows)
            # a "no" names an annihilator vector that some row is not orthogonal to
            assert v is None or v in span.annihilator and any(
                sum(x * y for x, y in zip(row, v)) for row in rows
            )
            echelon = [list(row) for row in basis]
            assert exactcore._bareiss(echelon)[0] == rank_of(basis)
            spanned += expected
        assert 100 < spanned < 300

    @settings(max_examples=300)
    @given(span_problems())
    def test_annihilator_is_a_basis_of_the_orthogonal_complement(self, problem):
        basis, rows = problem
        originals = [list(row) for row in (*basis, *rows)]
        n = len((*basis, *rows)[0]) if basis or rows else 3
        null = exactcore.Span.of(basis, n).annihilator
        assert all(len(v) == n and math.gcd(*v) == 1 for v in null)
        assert all(next(x for x in v if x) > 0 for v in null)
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in basis for v in null)
        # one vector per free column, and independent: the whole complement
        assert len(null) == n - rank_of(basis)
        assert rank_of(null) == len(null)
        expected = rank_of(basis + rows) == rank_of(basis)
        assert (outside(basis, rows, n) is None) == expected
        assert [*basis, *rows] == originals


def dense_pivot(rows, r, c):
    """Reference Gauss-Jordan step: every entry of every touched row, zeros too."""
    pivot_row = [x / rows[r][c] for x in rows[r]]
    return [
        pivot_row if i == r else [a - row[c] * b for a, b in zip(row, pivot_row)]
        for i, row in enumerate(rows)
    ]


@st.composite
def sparse_tableau(draw):
    """A Fraction tableau, at least half zeros, with a nonzero pivot (r, c)."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(2, 8))
    r, c = draw(st.integers(0, nrows - 1)), draw(st.integers(0, ncols - 1))
    size = nrows * ncols
    entries = draw(st.lists(small_fractions, min_size=size, max_size=size))
    others = [k for k in range(size) if k != r * ncols + c]
    for k in draw(st.permutations(others))[: (size + 1) // 2]:
        entries[k] = F(0)
    entries[r * ncols + c] = draw(small_fractions.filter(bool))
    rows = [entries[i * ncols : (i + 1) * ncols] for i in range(nrows)]
    return rows, r, c


class TestPivot:
    @given(sparse_tableau())
    @settings(max_examples=300)
    def test_matches_the_dense_step(self, instance):
        rows, r, c = instance
        assert sum(x == 0 for row in rows for x in row) * 2 >= len(rows) * len(rows[0])
        expected = dense_pivot(rows, r, c)
        exactcore._pivot(rows, r, c)
        assert rows == expected
        assert all(type(x) is F for row in rows for x in row)

    def test_blackwell_pivot_sequence_is_pinned(self, monkeypatch):
        # recorded before the sparse update; Bland's rule must pick the same pivots
        rng = random.Random(5)
        ey = random_experiment(rng, 4, 4)
        ez = garble(ey, random_experiment(rng, 4, 4).kernel)
        seen = []
        pivot = exactcore._pivot

        def recording(rows, r, c):
            seen.append((r, c))
            pivot(rows, r, c)

        monkeypatch.setattr(exactcore, "_pivot", recording)
        result = blackwell_dominates(ey, ez)
        assert seen == [
            (8, 0), (16, 1), (1, 4), (8, 2), (10, 5), (1, 0), (13, 3), (17, 4),
            (0, 8), (17, 9), (2, 10), (18, 11), (18, 12), (1, 4), (1, 6), (14, 13),
            (18, 4), (5, 7), (16, 0), (18, 12), (16, 1), (8, 14), (15, 15), (11, 4),
            (17, 11),
        ]
        assert result.holds and result.witness.to_doc() == [
            ["0", "1/3", "0", "2/3"],
            ["3/13", "6/13", "1/13", "3/13"],
            ["4/9", "0", "4/9", "1/9"],
            ["0", "5/9", "1/9", "1/3"],
        ]


def vertex_oracle(a, b, lower, upper):
    """Independent feasibility oracle: enumerate candidate vertex bases.

    Valid for boxed instances (every variable bounded both sides): the
    feasible set is a polytope, so it is nonempty exactly when some choice of
    variables pinned at a bound leaves a consistent reduced system whose
    free-variables-zero solution respects the bounds.
    """
    n = a.cols
    for fixed_mask in range(1 << n):
        fixed = [j for j in range(n) if fixed_mask >> j & 1]
        free = [j for j in range(n) if not fixed_mask >> j & 1]
        for choice in itertools.product(*([lower[j], upper[j]] for j in fixed)):
            rhs = [
                b[i] - sum(a.at(i, j) * v for j, v in zip(fixed, choice))
                for i in range(a.rows)
            ]
            if free:
                sub = Matrix.from_rows(
                    [[a.at(i, j) for j in free] for i in range(a.rows)]
                )
                (sol,) = solve_linear(sub, [rhs])
                if sol is None:
                    continue
            else:
                if any(v != 0 for v in rhs):
                    continue
                sol = ()
            x = [F(0)] * n
            for j, v in zip(fixed, choice):
                x[j] = F(v)
            for j, v in zip(free, sol):
                x[j] = v
            if a.mul_vec(x) != tuple(F(v) for v in b):
                continue
            if all(lower[j] <= x[j] <= upper[j] for j in range(n)):
                return tuple(x)
    return None


def boxed_lp(a, b, upper):
    """``lp_feasible`` with ``0 <= x <= upper`` via one slack per variable.

    Solves ``[[A, 0], [I, I]] @ (x, s) == (b, upper)`` over x, s >= 0 and
    keeps the first ``a.cols`` entries; ``upper=None`` leaves x unbounded.
    """
    if upper is None:
        return lp_feasible(a, b)
    n = a.cols
    system = Matrix.from_rows(
        [row + [0] * n for row in a.to_lists()]
        + [row + row for row in Matrix.identity(n).to_lists()]
    )
    point = lp_feasible(system, [F(v) for v in b] + [F(u) for u in upper])
    return None if point is None else point[:n]


class TestLpFeasible:
    def test_sign_contradiction(self):
        a = Matrix.from_rows([[1]])
        assert lp_feasible(a, [F(-1)]) is None

    def test_simplex_face(self):
        a = Matrix.from_rows([[1, 1]])
        x = lp_feasible(a, [F(1)])
        assert x is not None
        assert sum(x) == 1 and all(v >= 0 for v in x)

    def test_crossed_bounds(self):
        # x >= 0 and x <= -1
        assert boxed_lp(Matrix.from_rows([[1]]), [0], upper=[-1]) is None

    def test_box_forcing(self):
        a = Matrix.from_rows([[1, 1]])
        x = boxed_lp(a, [F(2)], upper=[F(1), F(1)])
        assert x == (F(1), F(1))

    def test_redundant_rows_keep_an_artificial_basic_at_zero(self):
        a = Matrix.from_rows([[1, 1], [2, 2]])
        assert lp_feasible(a, [F(1), F(2)]) == (F(1), F(0))
        assert lp_feasible(a, [F(1), F(3)]) is None

    @pytest.mark.parametrize(
        "rows, rhs, upper, expected",
        [
            (
                [[1, 1, 1, 0], [1, -1, 0, 1], [2, 0, 1, 1]],
                [1, 0, 1],
                None,
                (F(1, 2), F(1, 2), F(0), F(0)),
            ),
            ([[1, -1, 0], [0, 1, -1]], [0, 0], None, (F(0), F(0), F(0))),
            ([[3, 1, -1], [-1, 2, 1]], [1, 1], None, (F(1, 7), F(4, 7), F(0))),
            ([[1, 1, 1]], [1], [1, 1, 1], (F(0), F(0), F(1))),
            ([[1, -1], [1, 1]], [0, 2], [1, 1], (F(1), F(1))),
            (
                [[2, 1, 0], [0, 1, 2]],
                [1, 1],
                [F(1, 2), 1, F(1, 2)],
                (F(1, 2), F(0), F(1, 2)),
            ),
            (
                [[1, 2, -1], [1, 2, -1]],
                [F(1, 2), F(1, 2)],
                [1, F(1, 4), 1],
                (F(1), F(1, 4), F(1)),
            ),
        ],
    )
    def test_degenerate_outputs_are_pinned(self, rows, rhs, upper, expected):
        # Bland's rule fixes the vertex; these values pin the pivot sequence
        got = boxed_lp(Matrix.from_rows(rows), [F(v) for v in rhs], upper)
        assert got == expected

    @pytest.mark.parametrize("bad", [0.1, True])
    def test_rejects_float_and_bool_right_hand_sides(self, bad):
        with pytest.raises(ValueError):
            lp_feasible(Matrix.from_rows([[1, 1]]), [bad])

    def test_leaves_the_right_hand_side_unchanged(self):
        rhs = [F(-1), F(2)]
        assert lp_feasible(Matrix.from_rows([[-1, 0], [1, 1]]), rhs) == (F(1), F(1))
        assert rhs == [F(-1), F(2)]

    def test_no_rows(self):
        assert lp_feasible(Matrix(0, 3, ()), []) == (F(0), F(0), F(0))

    def test_nonneg_factorization_system(self):
        # joint program: find a nonnegative 4x3 matrix carrying one kernel
        # onto the other (variables flattened row-major)
        h = F(1, 2)
        ky = Matrix.from_rows([[h, 0, 0, h], [0, h, 0, h], [0, 0, h, h]])
        kz = Matrix.from_rows([[h, h, 0], [h, 0, h], [0, h, h]])
        rows = []
        rhs = []
        for t in range(3):
            for z in range(3):
                row = [F(0)] * 12
                for y in range(4):
                    row[y * 3 + z] = ky.at(t, y)
                rows.append(row)
                rhs.append(kz.at(t, z))
        x = lp_feasible(Matrix.from_rows(rows), rhs)
        assert x is not None
        m = Matrix(4, 3, tuple(x))
        assert ky @ m == kz
        assert all(v >= 0 for v in m.entries)

    @given(
        st.integers(1, 2).flatmap(
            lambda r: st.integers(2, 4).flatmap(
                lambda c: st.tuples(
                    st.lists(
                        st.lists(
                            st.fractions(
                                min_value=-2, max_value=2, max_denominator=2
                            ),
                            min_size=c,
                            max_size=c,
                        ),
                        min_size=r,
                        max_size=r,
                    ),
                    st.lists(
                        st.fractions(min_value=-2, max_value=2, max_denominator=2),
                        min_size=r,
                        max_size=r,
                    ),
                )
            )
        )
    )
    @settings(max_examples=80)
    def test_agrees_with_vertex_oracle(self, instance):
        rows, b = instance
        a = Matrix.from_rows(rows)
        lower = [F(0)] * a.cols
        upper = [F(2)] * a.cols
        mine = boxed_lp(a, b, upper)
        oracle = vertex_oracle(a, b, lower, upper)
        assert (mine is None) == (oracle is None)
        if mine is not None:
            assert a.mul_vec(mine) == tuple(F(v) for v in b)
            assert all(F(0) <= v <= F(2) for v in mine)


class TestMatrixBasics:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Matrix(2, 2, (F(1),))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            Matrix.from_rows([[1, 2], [3]])

    @pytest.mark.parametrize("rows", [[1, 1], [[1, 2], "34"], 5])
    def test_rows_must_be_lists(self, rows):
        with pytest.raises(ValueError, match="list of rows"):
            Matrix.from_rows(rows)

    def test_transpose_roundtrip(self):
        a = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert a.transpose().transpose() == a

    def test_doc_roundtrip(self):
        a = Matrix.from_rows([["1/2", "0"], ["1/3", "2/3"]])
        assert Matrix.from_rows(a.to_doc()) == a

    def test_left_mul_vec(self):
        a = Matrix.from_rows([[1, 0], [0, 1], [1, 1]])
        assert a.left_mul_vec([F(1), F(2), F(3)]) == (F(4), F(5))


def reference_product(a, b):
    """Reference: entry (i, j) summed term by term in Fractions."""
    return tuple(
        sum((F(a.at(i, k)) * F(b.at(k, j)) for k in range(a.cols)), F(0))
        for i in range(a.rows)
        for j in range(b.cols)
    )


def reference_distribution(values, what):
    """Reference: the sign of each entry, then one Fraction sum."""
    require_exact(values, what)
    for x in values:
        if x < 0:
            raise ValueError(
                f"{what} must be a probability vector, got entry {format_rational(x)} "
                "outside [0, 1]"
            )
    total = sum(values, F(0))
    if total != 1:
        raise ValueError(
            f"{what} must be a probability vector, but it sums to {format_rational(total)}"
        )
    return values


def reference_mul_vec(a, vec):
    """Reference: each row's dot product with vec, term by term in Fractions."""
    return tuple(
        sum((F(x) * F(v) for x, v in zip(a.row(i), vec)), F(0)) for i in range(a.rows)
    )


def reference_left_mul_vec(a, vec):
    """Reference: vec's dot product with each column, term by term in Fractions."""
    return tuple(
        sum((F(v) * F(x) for v, x in zip(vec, a.col(j))), F(0)) for j in range(a.cols)
    )


def reference_kron(vectors):
    """Reference: every product of one entry per vector, in Fractions."""
    out = [F(1)]
    for vec in vectors:
        out = [x * F(v) for x in out for v in vec]
    return out


def reference_channel(replacement, noise, inverse):
    """Reference: (1-a) I + a P in Fractions, a = noise or -noise/(1-noise)."""
    a = -noise / (1 - noise) if inverse else noise
    n = len(replacement)
    return tuple((1 - a) * (i == j) + a * replacement[j] for i in range(n) for j in range(n))


def random_entry(rng):
    """An int, a small Fraction or one over a large prime, often negative."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-5, 5)
    if kind == 1:
        return F(rng.randint(-9, 9), rng.randint(1, 12))
    if kind == 2:
        return F(rng.randint(-10**9, 10**9), rng.choice((10007, 10009, 2**61 - 1)))
    return F(0)


def outcome(check, values):
    try:
        return "ok", check(values, "row")
    except ValueError as exc:
        return "refused", str(exc)


ARITHMETIC = (
    "__add__", "__radd__", "__mul__", "__rmul__", "__sub__", "__rsub__", "__pow__",
    "__truediv__", "__rtruediv__", "__neg__", "__abs__",
)
COMPARISONS = ("__lt__", "__le__", "__gt__", "__ge__", "__eq__")


def count_fraction_calls(monkeypatch, names):
    """Record the name of every call to one of ``Fraction``'s methods ``names``."""
    calls = []
    for name in names:
        original = getattr(F, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(F, name, counted)
    return calls


class TestExactProducts:
    def test_product_matches_the_fraction_reference(self):
        rng = random.Random(32)
        shapes = set()
        random_shapes = [[rng.randint(0, 5) for _ in range(3)] for _ in range(600)]
        ints = Matrix(2, 2, (1, 2, 3, 4))
        factors = [(ints, ints)] + [
            (
                Matrix(r, n, tuple(random_entry(rng) for _ in range(r * n))),
                Matrix(n, c, tuple(random_entry(rng) for _ in range(n * c))),
            )
            for r, n, c in [*itertools.product((0, 3), repeat=3), *random_shapes]
        ]
        for a, b in factors:
            r, c = a.rows, b.cols
            product = a @ b
            assert (product.rows, product.cols) == (r, c)
            assert product.entries == reference_product(a, b), (a, b)
            assert all(type(x) is F for x in product.entries)
            shapes.add((r > 0, a.cols > 0, c > 0))
        assert len(shapes) == 8  # every side empty and nonempty

    def test_vector_products_match_the_fraction_reference(self):
        rng = random.Random(35)
        big = [F(10**9 - i, 2**61 - 1) for i in range(5)] + [F(-(10**9), 10**9 + 7)]
        random_shapes = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(400)]
        cases = [Matrix(2, 3, (1, -2, 3, 0, 4, -5)), Matrix(3, 2, tuple(big))] + [
            Matrix(r, c, tuple(random_entry(rng) for _ in range(r * c)))
            for r, c in [(0, 0), (0, 3), (3, 0), *random_shapes]
        ]
        shapes = set()
        for a in cases:
            for vec in (
                [random_entry(rng) for _ in range(a.cols)],
                [rng.randint(-9, 9) for _ in range(a.cols)],
                [F(rng.randint(-(10**9), 10**9), 10**9 + 9) for _ in range(a.cols)],
            ):
                got = a.mul_vec(vec)
                assert got == reference_mul_vec(a, vec), (a, vec)
                assert all(type(x) is F for x in got)
            for vec in (
                [random_entry(rng) for _ in range(a.rows)],
                [rng.randint(-9, 9) for _ in range(a.rows)],
                [F(rng.randint(-(10**9), 10**9), 10**9 + 9) for _ in range(a.rows)],
            ):
                got = a.left_mul_vec(vec)
                assert got == reference_left_mul_vec(a, vec), (a, vec)
                assert all(type(x) is F for x in got)
            shapes.add((a.rows > 0, a.cols > 0))
        assert len(shapes) == 4  # every side empty and nonempty

    def test_kron_matches_the_fraction_reference(self):
        rng = random.Random(36)
        big = [F(10**9, 2**61 - 1), F(-3, 10**9 + 7)]
        cases = [[], [[]], [[1, 2], [-3, 5, 7]], [big] * 3] + [
            [[random_entry(rng) for _ in range(rng.randint(0, 4))] for _ in range(rng.randint(0, 4))]
            for _ in range(400)
        ]
        for vectors in cases:
            got = kron(vectors)
            assert got == reference_kron(vectors), vectors
            assert all(type(x) is F for x in got)

    def test_channels_match_the_fraction_reference(self):
        rng = random.Random(37)
        for _ in range(200):
            weights = [rng.randint(0, 6) for _ in range(rng.randint(1, 5))]
            weights[0] += not any(weights)
            replacement = [F(w, sum(weights)) for w in weights]
            noise = rng.choice((F(0), F(rng.randint(0, 9), 10), F(10**9, 10**9 + 7)))
            for inverse, build in enumerate(
                (replacement_garbling_channel, replacement_garbling_channel_inverse)
            ):
                channel = build(replacement, noise)
                assert channel.entries == reference_channel(replacement, noise, inverse)
                assert all(type(x) is F for x in channel.entries)

    def test_product_refuses_mismatched_shapes(self):
        # the integer dot products would stop at the shorter side unchecked
        with pytest.raises(ValueError, match="right factor's row count"):
            Matrix(2, 3, (0,) * 6) @ Matrix(2, 3, (0,) * 6)

    @pytest.mark.parametrize(
        "values",
        [
            (),
            (1,),
            (0, 1, 0),
            (1, 1),
            (0,),
            (F(1, 2), F(1, 3)),  # sums to 5/6
            (F(1, 2), F(-1, 3), F(5, 6), F(-7, 6)),  # the first negative is named
            (-1, 2),
            (F(1, 3), 0, F(2, 3)),
            (F(2**61 - 2, 2**61 - 1), F(1, 2**61 - 1)),
            (F(1, 10007), F(1, 10009)),
        ],
    )
    def test_distribution_check_matches_the_fraction_reference(self, values):
        expected = outcome(reference_distribution, values)
        assert outcome(require_distribution, values) == expected
        if expected[0] == "ok":
            assert require_distribution(values, "row") is values

    def test_distribution_check_matches_on_random_vectors(self):
        rng = random.Random(33)
        kinds = set()
        for _ in range(2000):
            values = [random_entry(rng) for _ in range(rng.randint(0, 6))]
            if values and rng.random() < 0.6:  # make it sum to 1 or nearly
                values[-1] += 1 - sum(values, F(0)) + rng.choice((0, 0, F(1, 10**9)))
                if rng.random() < 0.7:
                    values = [abs(x) for x in values]
                    values[-1] += 1 - sum(values, F(0))
            values = tuple(values)
            expected = outcome(reference_distribution, values)
            assert outcome(require_distribution, values) == expected, values
            kinds.add("ok" if expected[0] == "ok" else "sum" if "sums to" in expected[1] else "sign")
        assert kinds == {"ok", "sign", "sum"}

    def test_products_and_distribution_checks_do_no_fraction_arithmetic(self, monkeypatch):
        rng = random.Random(34)
        a, b = (
            Matrix(5, 5, tuple(F(rng.randint(-9, 9), rng.randint(1, 50)) for _ in range(25)))
            for _ in range(2)
        )
        row = power(random_experiment(rng, 2, 4), 5).kernel.row(0)
        assert len(row) == 1024
        replacement, noise = (F(1, 3), F(1, 6), F(1, 2)), F(2, 7)
        calls = count_fraction_calls(monkeypatch, (*ARITHMETIC, "__lt__"))
        product = a @ b
        require_distribution(row, "row")
        assert calls == []
        vectors = a.mul_vec(b.row(0)), a.left_mul_vec(b.col(1)), kron([a.row(2), b.row(3), row])
        channels = [
            build(replacement, noise)
            for build in (replacement_garbling_channel, replacement_garbling_channel_inverse)
        ]
        monkeypatch.undo()
        assert set(calls) <= {"__lt__"}  # the channels compare the noise with 1
        assert product.entries == reference_product(a, b)
        assert vectors == (
            reference_mul_vec(a, b.row(0)),
            reference_left_mul_vec(a, b.col(1)),
            reference_kron([a.row(2), b.row(3), row]),
        )
        assert [c.entries for c in channels] == [
            reference_channel(replacement, noise, inverse) for inverse in (False, True)
        ]

    def test_dominance_garbling_and_witness_pairs_do_no_fraction_arithmetic(self, monkeypatch):
        rng = random.Random(34)
        clean, noisy = bernoulli_experiment(), noisy_bernoulli_experiment()
        wide = random_experiment(rng, 3, 5)  # free witness rows: nonzero deficits
        pairs = [
            (noisy, clean),  # negative witness entries, noise 1/10
            (clean, noisy),
            (wide, garble(wide, random_experiment(rng, 5, 3).kernel)),
            (clean, garble(clean, Matrix.from_rows([["1/2", "1/2"], ["1/2", "1/2"]]))),
            (garble(clean, Matrix.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])), clean),  # a "no"
        ]
        directions = [*wide.span.annihilator, (3, -1, -2), (10**12, 1, -(10**12 + 1))]
        calls = count_fraction_calls(monkeypatch, ARITHMETIC + COMPARISONS)
        answers = [
            (elicitation_dominates(ey, ez), uniform_garbling_decomposition(ey, ez))
            for ey, ez in pairs
        ]
        witnesses = [elicit._indistinguishable_witness(v) for v in directions]
        monkeypatch.undo()
        assert set(calls) <= set(COMPARISONS)
        assert [d.holds for d, _ in answers] == [True, True, True, True, False]
        assert answers[0][1].noise == F(1, 10) and answers[1][1].noise == 0
        assert len(witnesses) == len(directions) and all(p != m for p, m in witnesses)

    def test_means_payoffs_and_event_masses_do_no_fraction_arithmetic(self, monkeypatch):
        rng = random.Random(35)
        ey = random_experiment(rng, 3, 3)
        ez = garble(ey, random_experiment(rng, 3, 2).kernel)
        witness = bounded_dominates(ey, ez).event_weights  # the LP runs uncounted
        beliefs = belief_grid(3, 2)
        p, q = beliefs[1], beliefs[4]
        g = (F(1, 3), F(-2), F(5, 7))
        panel = quadratic_mechanism(ey)
        table = tabulate(panel, beliefs)
        mean = mean_mechanism(ey, ey.kernel.mul_vec((1, 0, 2)), (1, 0, 2))
        base = tabulate(quadratic_mechanism(ez), beliefs)
        spec = CovariateMixture(("a", "b"), (F(2, 5), F(3, 5)), (ey, ez))
        family, clean = elicit.maximal_partition(ey), bernoulli_experiment()
        calls = count_fraction_calls(monkeypatch, ARITHMETIC)
        unspanned = elicit.unbiased_weights(clean, (F(0), F(1), F(0)))
        answers = (
            elicit.statistic_mean(g, p),
            elicit.indistinguishable(family, p, q),
            elicit.indistinguishable(family, p, p),
            expected_payoff(panel, p, q),
            expected_payoff(mean, p, F(1, 2)),
            value_function(table, p, list(table.reports)),
            envelope_check(panel, table, beliefs),
            envelope_check(panel, mean, beliefs),
        )
        transformed = level_set_transform(base, witness, ey)
        masses, mixed = event_masses(ez), mixture(spec)
        verified = verify_event_weights(ey, ez, witness)
        monkeypatch.undo()
        assert calls == []
        assert not unspanned.elicitable

        def dot(a, b):
            return sum((x * y for x, y in zip(a, b)), F(0))

        lam_p = [dot(p.weights, ey.kernel.col(y)) for y in range(3)]
        assert answers[:2] == (dot(g, p.weights), False) and answers[2]
        assert answers[3] == dot(lam_p, panel.payoff_vector(q))
        assert answers[4] == dot(lam_p, mean.payoff_vector(F(1, 2)))
        assert answers[5] == max(dot(lam_p, table.payoff_vector(r)) for r in table.reports)
        assert [(r.values_agree, r.cross_payoffs_agree) for r in answers[6:]] == [
            (True, True), (False, None)
        ]
        assert verified and masses.entries == tuple(
            sum((ez.kernel.at(t, z) for z in range(2) if mask >> z & 1), F(0))
            for t in range(3) for mask in range(4)
        )
        assert all(
            expected_payoff(transformed, b, r) == expected_payoff(base, b, r)
            for b in beliefs for r in base.reports
        )
        assert mixed.kernel.entries == tuple(
            w * x for t in range(3) for w, e in zip(spec.weights, spec.components)
            for x in e.kernel.row(t)
        )
