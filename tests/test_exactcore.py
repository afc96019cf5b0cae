"""Exact linear algebra: solves, null spaces, and LP feasibility.

Infeasibility answers are cross-checked against an independent vertex
enumeration oracle on small instances; solutions are always re-verified by
substitution.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elicitkit.exactcore import (
    Matrix,
    determinant,
    format_rational,
    lp_feasible,
    null_space_basis,
    parse_rational,
    rank,
    solve_linear,
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

    def test_rejects_floats(self):
        with pytest.raises(ValueError):
            parse_rational(0.1)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("one half")


class TestSolveLinear:
    def test_identity(self):
        x = solve_linear(Matrix.identity(2), [F(3), F(5)])
        assert x == (F(3), F(5))

    def test_inconsistent_rows(self):
        a = Matrix.from_rows([[1, 1], [2, 2]])
        assert solve_linear(a, [F(1), F(3)]) is None

    def test_back_substitution(self):
        # hand oracle: x2 = 1 from the second row, then x1 + 1/2 = 1
        a = Matrix.from_rows([[1, "1/2"], [0, 1]])
        assert solve_linear(a, [F(1), F(1)]) == (F(1, 2), F(1))

    def test_free_variables_are_zero(self):
        a = Matrix.from_rows([[1, 1]])
        assert solve_linear(a, [F(1)]) == (F(1), F(0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_linear(Matrix.identity(2), [F(1)])

    @given(small_matrix(), st.data())
    def test_constructed_systems_solve_exactly(self, a, data):
        x_true = data.draw(
            st.lists(small_fractions, min_size=a.cols, max_size=a.cols)
        )
        b = a.mul_vec([F(v) for v in x_true])
        x = solve_linear(a, b)
        assert x is not None
        assert a.mul_vec(x) == b


class TestNullSpace:
    def test_rank_one_kernel(self):
        assert null_space_basis(Matrix.from_rows([[1, 1]])) == [(F(1), F(-1))]

    def test_identity_has_trivial_kernel(self):
        assert null_space_basis(Matrix.identity(2)) == []

    def test_binary_trial_transpose(self):
        # transpose of the three-point binary-trial kernel
        a = Matrix.from_rows([[1, "1/2", 0], [0, "1/2", 1]])
        basis = null_space_basis(a)
        assert basis == [(F(1), F(-2), F(1))]
        assert a.mul_vec(basis[0]) == (F(0), F(0))

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
                sol = solve_linear(sub, rhs)
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
        assert lp_feasible(Matrix.from_rows([[1]]), [0], upper=[-1]) is None

    def test_upper_bound_length_checked(self):
        with pytest.raises(ValueError, match="one entry per variable"):
            lp_feasible(Matrix.from_rows([[1, 1]]), [F(1)], upper=[F(1)])

    def test_box_forcing(self):
        a = Matrix.from_rows([[1, 1]])
        x = lp_feasible(a, [F(2)], upper=[F(1), F(1)])
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
        got = lp_feasible(Matrix.from_rows(rows), [F(v) for v in rhs], upper=upper)
        assert got == expected

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
        mine = lp_feasible(a, b, upper=upper)
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
