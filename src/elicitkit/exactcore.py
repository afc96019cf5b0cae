"""Exact rational linear algebra.

Dense matrices over :class:`fractions.Fraction`, linear solves, null-space
bases, and linear-programming feasibility via a phase-I simplex with Bland's
rule. LP variables are nonnegative, and optional upper bounds become slack
rows. Everything is exact; no floating point enters. All values are immutable
and all functions are pure, so they are safe to share across threads.

Conventions that make outputs reproducible:

* linear solves pivot on columns strictly left to right and set free
  variables to zero;
* null-space basis vectors are scaled so their first nonzero entry is
  positive;
* the simplex always enters the lowest-index structural column with a
  negative reduced cost and, on ratio ties, leaves the row whose basic
  variable has the lowest index (Bland's rule, which also guarantees
  termination). Artificial columns are not stored: a basic artificial has
  reduced cost zero, and one that leaves never re-enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


def parse_rational(value: object) -> Fraction:
    """Parse ``"p/q"``, ``"k"``, decimal strings, or ints into a Fraction.

    Floats are rejected: binary floats silently misrepresent decimal inputs,
    and every quantity in this package must stay exact.
    """
    if isinstance(value, bool) or isinstance(value, float):
        raise ValueError(f"rational values must be strings or ints, got {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational from {value!r}") from exc
    raise ValueError(f"cannot parse rational from {value!r}")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``"p/q"``, or ``"k"`` when it is an integer."""
    return str(Fraction(value))


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix of Fractions, stored row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"matrix of shape {self.rows}x{self.cols} needs "
                f"{self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(rows: Sequence[Sequence[object]]) -> "Matrix":
        if not isinstance(rows, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in rows
        ):
            raise ValueError("a matrix must be a list of rows, each a list of entries")
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        entries: list[Fraction] = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("all matrix rows must have the same length")
            entries.extend(parse_rational(x) for x in row)
        return Matrix(nrows, ncols, tuple(entries))

    @staticmethod
    def from_cols(cols: Sequence[Sequence[object]]) -> "Matrix":
        ncols = len(cols)
        nrows = len(cols[0]) if ncols else 0
        return Matrix.from_rows(
            [[cols[j][i] for j in range(ncols)] for i in range(nrows)]
        )

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(
            n, n, tuple(_ONE if i == j else _ZERO for i in range(n) for j in range(n))
        )

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("matrix product dimension mismatch")
        out: list[Fraction] = []
        for i in range(self.rows):
            my_row = self.row(i)
            for j in range(other.cols):
                out.append(
                    sum(
                        (my_row[k] * other.at(k, j) for k in range(self.cols)),
                        _ZERO,
                    )
                )
        return Matrix(self.rows, other.cols, tuple(out))

    def mul_vec(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Matrix-vector product ``A @ x``."""
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(
            sum((self.at(i, j) * vec[j] for j in range(self.cols)), _ZERO)
            for i in range(self.rows)
        )

    def left_mul_vec(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Row-vector product ``x^T @ A``."""
        if len(vec) != self.rows:
            raise ValueError("vector length does not match row count")
        return tuple(
            sum((vec[i] * self.at(i, j) for i in range(self.rows)), _ZERO)
            for j in range(self.cols)
        )

    def to_doc(self) -> list[list[str]]:
        return [[format_rational(x) for x in self.row(i)] for i in range(self.rows)]


def _pivot(rows: list[list[Fraction]], r: int, c: int) -> None:
    """In-place Gauss-Jordan step: column ``c`` becomes 1 in row ``r``, 0 elsewhere."""
    inv = rows[r][c]
    pivot_row = rows[r] = [x / inv for x in rows[r]]
    for i, row in enumerate(rows):
        f = row[c]
        if i != r and f != 0:
            rows[i] = [a - f * b for a, b in zip(row, pivot_row)]


def _row_reduce(
    rows: list[list[Fraction]], pivot_cols: int
) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form over the first ``pivot_cols`` columns.

    Extra columns (augmented right-hand sides) ride along. Pivot columns are
    scanned strictly left to right; within a column the first nonzero row is
    chosen, which fixes the result deterministically.
    """
    pivots: list[int] = []
    r = 0
    nrows = len(rows)
    for c in range(pivot_cols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        _pivot(rows, r, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def solve_linear(
    a: Matrix, b: Sequence[Fraction]
) -> Optional[tuple[Fraction, ...]]:
    """Solve ``A @ x == b`` exactly, or return None when inconsistent.

    When the solution space has positive dimension, the free variables (the
    non-pivot columns under left-to-right pivoting) are set to zero, so the
    returned representative is deterministic.
    """
    if len(b) != a.rows:
        raise ValueError("right-hand side length does not match row count")
    aug = [list(a.row(i)) + [Fraction(b[i])] for i in range(a.rows)]
    red, pivots = _row_reduce(aug, a.cols)
    for i in range(len(pivots), a.rows):
        if red[i][a.cols] != 0:
            return None
    x = [_ZERO] * a.cols
    for r, c in enumerate(pivots):
        x[c] = red[r][a.cols]
    return tuple(x)


def null_space_basis(a: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of ``{v : A @ v == 0}``.

    One vector per free column of the reduced form; each is scaled so its
    first nonzero entry is positive. The basis is linearly independent and
    spans the whole kernel (dimension ``cols - rank``).
    """
    red, pivots = _row_reduce(a.to_lists(), a.cols)
    pivot_set = set(pivots)
    basis: list[tuple[Fraction, ...]] = []
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


def rank(a: Matrix) -> int:
    _, pivots = _row_reduce(a.to_lists(), a.cols)
    return len(pivots)


def determinant(a: Matrix) -> Fraction:
    if a.rows != a.cols:
        raise ValueError("determinant requires a square matrix")
    mat = a.to_lists()
    n = a.rows
    det = _ONE
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if pivot_row is None:
            return _ZERO
        if pivot_row != c:
            mat[c], mat[pivot_row] = mat[pivot_row], mat[c]
            det = -det
        det *= mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] / mat[c][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[c])]
    return det


def lp_feasible(
    equalities: Matrix,
    rhs: Sequence[Fraction],
    upper: Optional[Sequence[Fraction]] = None,
) -> Optional[tuple[Fraction, ...]]:
    """Find x >= 0 with ``equalities @ x == rhs`` and, if given, ``x <= upper``.

    Every variable is nonnegative. ``upper``, when given, holds one bound per
    variable; each bound becomes a slack row ``x_k + s_k == upper[k]`` below
    the equalities, with the slacks after the variables. Returns an exact
    feasible point, or None when the system is infeasible. Feasibility only:
    there is no objective.

    The search is a phase-I simplex minimizing the sum of one artificial
    variable per row under Bland's smallest-index rule, so termination is
    guaranteed. Artificial columns are not stored: an artificial is only a
    basis id until it leaves, and it never enters.
    """
    m, n = equalities.rows, equalities.cols
    if len(rhs) != m:
        raise ValueError("right-hand side length does not match row count")
    bounds = [] if upper is None else [Fraction(u) for u in upper]
    if upper is not None and len(bounds) != n:
        raise ValueError("upper bounds must have one entry per variable")

    nbox = len(bounds)
    nvars = n + nbox  # variables plus one slack per box row
    rows = [
        list(equalities.row(i)) + [_ZERO] * nbox + [Fraction(rhs[i])]
        for i in range(m)
    ]
    for k, bound in enumerate(bounds):
        row = [_ZERO] * nvars + [bound]
        row[k] = row[n + k] = _ONE
        rows.append(row)
    tableau = [[-x for x in row] if row[-1] < 0 else row for row in rows]
    nrows = len(tableau)
    # objective row: reduced costs of the artificial sum; last entry -objective
    tableau.append(
        [-sum((row[k] for row in tableau), _ZERO) for k in range(nvars + 1)]
    )
    basis = [nvars + i for i in range(nrows)]  # artificial ids, never stored

    while True:
        objective = tableau[nrows]
        enter = next((j for j in range(nvars) if objective[j] < 0), None)
        if enter is None:
            break
        leave = None
        best: Optional[Fraction] = None
        for i in range(nrows):
            coeff = tableau[i][enter]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave is None:  # phase-I objective is bounded below by zero
            raise RuntimeError("phase-I simplex lost boundedness; invariant broken")
        _pivot(tableau, leave, enter)
        basis[leave] = enter

    if tableau[nrows][-1] != 0:
        return None

    x = [_ZERO] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tableau[i][-1]

    if equalities.mul_vec(x) != tuple(Fraction(v) for v in rhs):
        raise RuntimeError("simplex returned a non-solution; invariant broken")
    if any(v < 0 for v in x):
        raise RuntimeError("simplex returned a negative value; invariant broken")
    if any(v > bound for v, bound in zip(x, bounds)):
        raise RuntimeError("simplex violated an upper bound; invariant broken")
    return tuple(x)
