"""Exact rational linear algebra, and the one boundary every public entry
takes its values through: a rational is an int, a ``Fraction`` or a rational
string (``parse_rational``), a vector a list, tuple or range of them
(``require_vector``), a JSON label a string or number (``require_labels``),
never a bool; a record's fields are tuples (``require_tuple``) whose numbers
are ints or Fractions (``require_exact``). Three value rules sit beside that
type rule: a probability vector has no negative entry and sums to exactly 1,
one integer sum over its least common denominator
(``require_distribution``), a label set repeats no label
(``require_distinct``), and an outcome or report is given by its label or its
int index (``require_index``). Two size rules close it: a count, size, index
or cap is an int within its bounds (``require_int``), and a vector or a
matrix side has one entry per label (``require_length``). Each refusal names
the argument and the bound; all else raises ValueError.

Dense matrices over :class:`fractions.Fraction`, the Kronecker product of
vectors, linear solves, null-space bases, and linear-programming feasibility
via a phase-I simplex with Bland's rule. One forward fraction-free
elimination of integer rows (Bareiss 1968), back-substituted, gives every
linear solve (right-hand sides share one elimination, with None for each
inconsistent one), the determinant and a ``Span``'s integer annihilator: a
row lies in the span exactly when it is orthogonal to it, and a null-space
basis is a ``Fraction`` view of it. A matrix, matrix-vector or
vector-matrix product scales each left row and each right column (a vector
is one of them) to integers over one common denominator, once per call, so
every output entry is one integer dot product and one ``Fraction``; the
Kronecker product multiplies integer vectors under one running scale.
Every dot and matrix product in ``model``, ``elicit``, ``mechanisms`` and
``orders`` goes through these, so outside the worked examples (``catalog``,
``demos``) ``Fraction`` arithmetic serves only ``rank`` and the simplex.
The LP is A @ x == b over nonnegative x and nothing else: a caller that
needs x <= u adds the equality x + s == u with a slack s >= 0.
Everything is exact; no floating point enters. All values are immutable and
all functions are pure, so they are safe to share across threads.

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

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Mapping, Optional, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


def parse_rational(value: object) -> Fraction:
    """Parse ``"p/q"``, ``"k"``, decimal strings, or ints into a Fraction.

    Floats are rejected: binary floats silently misrepresent decimal inputs,
    and every quantity in this package must stay exact. A Fraction is
    returned as it is, since Fractions are immutable.
    """
    if type(value) is Fraction:
        return value
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


def require_exact(values: object, what: str, where: Callable[[int], str] = lambda i: "") -> None:
    """Raise ValueError unless ``values`` is a tuple of ints and Fractions (a
    bool is neither); ``where(i)`` places entry i in the message."""
    require_tuple(values, what)
    if not {*map(type, values)} <= {int, Fraction}:
        i, x = next((i, x) for i, x in enumerate(values) if type(x) not in (int, Fraction))
        raise ValueError(f"{what} must be ints or Fractions, got {x!r}{where(i)}")


def require_vector(values: object, what: str) -> tuple[Fraction, ...]:
    """The entries of a list, tuple or range, each through ``parse_rational``;
    anything else (a str, bytes, a mapping, a scalar) raises ValueError."""
    return tuple(map(parse_rational, require_tuple(values, what, object, (list, tuple, range))))


def require_distribution(values: object, what: str) -> tuple:
    """``values`` if they are a probability vector: a tuple of ints and
    Fractions (``require_exact``), none negative, summing to exactly 1. The
    sign is read off each numerator and the sum is one integer sum over the
    least common denominator (``_require_stochastic``)."""
    require_exact(values, what)
    return _require_stochastic(values, what)


def _require_stochastic(values: tuple, what: str) -> tuple:
    """``values``, already ints and Fractions, if none is negative and they
    sum to exactly 1: ``require_distribution`` without its type check, for
    entries a ``Matrix`` has already checked."""
    if (x := next((x for x in values if x.numerator < 0), None)) is not None:
        raise ValueError(
            f"{what} must be a probability vector, got entry {format_rational(x)} "
            "outside [0, 1]"
        )
    scale = math.lcm(*{x.denominator for x in values})
    if (total := sum(x.numerator * (scale // x.denominator) for x in values)) != scale:
        raise ValueError(
            f"{what} must be a probability vector, but it sums to "
            f"{format_rational(Fraction(total, scale))}"
        )
    return values


def require_distinct(values: Sequence, what: str) -> None:
    """Raise ValueError naming the first of ``values`` that repeats an earlier one."""
    if len(set(values)) != len(values):
        x = next(x for i, x in enumerate(values) if x in values[:i])
        shown = format_rational(x) if isinstance(x, Fraction) else repr(x)
        raise ValueError(f"{what} must be distinct, got duplicate {shown}")


def require_index(value: object, labels: Sequence[str], what: str) -> int:
    """The position of the label ``value`` in ``labels``, or ``value`` itself
    as an int index into them; anything else raises ValueError."""
    if isinstance(value, str):
        try:
            return labels.index(value)
        except ValueError:
            raise ValueError(f"unknown {what} {value!r}") from None
    require_int(value, what)
    if not 0 <= value < len(labels):
        raise ValueError(f"{what} index {value} out of range")
    return value


def require_tuple(values: object, what: str, kind: type = object, types: tuple = (tuple,)) -> tuple:
    """``values`` as a tuple if it is one of ``types`` (a dataclass field takes a
    tuple alone) holding only ``kind`` instances, else raise ValueError."""
    if isinstance(values, types) and (kind is object or all(isinstance(x, kind) for x in values)):
        return tuple(values)
    of = f" of {kind.__name__} values" * (kind is not object)
    raise ValueError(f"{what} must be a {'/'.join(t.__name__ for t in types)}{of}, got {values!r}")


def require_int(
    value: object, what: str, low: Optional[int] = None, high: Optional[int] = None
) -> int:
    """``value`` if it is an int (a bool is not) of at least ``low`` and, when
    ``high`` is given too, at most ``high``; else ValueError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an int, got {value!r}")
    if low is not None and value < low or high is not None and value > high:
        bound = f"at least {low}" if high is None else f"from {low} to {high}"
        raise ValueError(f"{what} must be {bound}, got {value}")
    return value


def require_length(size: int, expected: int, what: str, per: str) -> None:
    """Raise ValueError unless ``size``, a vector's length or a matrix's row or
    column count, is ``expected``: one entry per label of ``per``."""
    if size != expected:
        raise ValueError(f"{what} does not match the {per}: got {size}, need {expected}")


def require_list(value: object, what: str) -> Sequence:
    """Return ``value`` unless it is not a JSON list, else raise ValueError."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a JSON list")
    return value


def require_labels(values: object, what: str) -> tuple[str, ...]:
    """A JSON list of strings and numbers (never a bool) as label strings."""
    if all(type(x) in (str, int, float) for x in require_list(values, what)):
        return tuple(map(str, values))
    raise ValueError(f"{what} must be JSON strings or numbers, got {values!r}")


def require_keys(doc: object, keys: Iterable[str], what: str) -> None:
    """Raise ValueError unless ``doc`` is a JSON object holding every key."""
    if not isinstance(doc, Mapping):
        raise ValueError(f"{what} must be a JSON object")
    missing = set(keys) - set(doc)
    if missing:
        raise ValueError(f"{what} missing keys: {sorted(missing)}")


def format_rational(value: Fraction) -> str:
    """Render a rational as ``"p/q"``, or ``"k"`` when it is an integer."""
    return str(parse_rational(value))


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix of Fractions, stored row-major. A product with
    a matrix (``@``) or a vector (``mul_vec``, ``left_mul_vec``) runs over one
    common denominator per left row and per right column, with one
    ``Fraction`` per output entry; no integer form is kept between calls."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        require_int(self.rows, "rows", 0)
        require_int(self.cols, "cols", 0)
        require_exact(self.entries, "matrix entries")
        require_length(len(self.entries), self.rows * self.cols, "entry count", "rows x cols")

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
            require_length(len(row), ncols, "matrix row length", "first row's length")
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
        require_int(n, "n", 0)
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
        require_length(other.rows, self.cols, "right factor's row count", "left's column count")
        rows = [self.row(i) for i in range(self.rows)]
        return Matrix(self.rows, other.cols, _dots(rows, [other.col(j) for j in range(other.cols)]))

    def mul_vec(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Matrix-vector product ``A @ x``, one integer dot product per row."""
        require_length(len(vec), self.cols, "vector length", "column count")
        return _dots([self.row(i) for i in range(self.rows)], [vec])

    def left_mul_vec(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Row-vector product ``x^T @ A``, one integer dot product per column."""
        require_length(len(vec), self.rows, "vector length", "row count")
        return _dots([vec], [self.col(j) for j in range(self.cols)])

    def to_doc(self) -> list[list[str]]:
        return [[format_rational(x) for x in self.row(i)] for i in range(self.rows)]


def kron(vectors: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """Every product of one entry per vector, first vector slowest.

    Each vector is scaled to integers once, so each entry is one integer
    multiplication on the product of the earlier vectors' entries under one
    running scale, and one ``Fraction`` at the end; no vectors give ``[1]``.
    Product experiments and their weights list outcomes in this order.
    """
    out, scale = [1], 1
    for vec in vectors:
        (ints,), t = _scaled_ints([vec])
        out, scale = [a * b for a in out for b in ints], scale * t
    return [Fraction(x, scale) for x in out]


def _dots(
    lefts: Sequence[Sequence[Fraction]], rights: Sequence[Sequence[Fraction]]
) -> tuple[Fraction, ...]:
    """Every left vector's dot product with every right vector, left slowest.

    Each vector is scaled to integers over its own common denominator once,
    so each product is one integer dot product and one ``Fraction``."""
    lefts = [_scaled_ints([a]) for a in lefts]
    rights = [_scaled_ints([b]) for b in rights]
    return tuple(
        Fraction(sum(map(mul, a, b)), s * t) for (a,), s in lefts for (b,), t in rights
    )


def _pivot(rows: list[list[Fraction]], r: int, c: int) -> None:
    """In-place Gauss-Jordan step: column ``c`` becomes 1 in row ``r``, 0 elsewhere.

    Each touched row costs one multiply-subtract per nonzero of the pivot row
    and changes in place, so every row must be its own private list."""
    inv = rows[r][c]
    pivot_row = rows[r] = [x / inv for x in rows[r]]
    nonzero = [(j, b) for j, b in enumerate(pivot_row) if b]
    for row in rows:
        if row is not pivot_row and (f := row[c]):
            for j, b in nonzero:
                row[j] -= f * b


def solve_linear(
    a: Matrix, rhs: Sequence[Sequence[Fraction]]
) -> list[Optional[tuple[Fraction, ...]]]:
    """Solve ``A @ x == b`` exactly for every ``b`` in ``rhs``, None when inconsistent.

    One ``_bareiss`` elimination of the integer rows [A | rhs] serves every
    column k of rhs: k is inconsistent exactly when a row below A's pivot
    rows is nonzero in it, and otherwise k is back-substituted as the free
    column of an annihilator vector v, so x = -v[:n] / v[k]. Free variables
    are zero, so every answer is the one a separate solve would give."""
    for b in rhs:
        require_length(len(b), a.rows, "right-hand side length", "row count")
    n = a.cols
    rows = [list(a.row(i)) + [parse_rational(b[i]) for b in rhs] for i in range(a.rows)]
    echelon, pivots = _echelon(_scaled_ints(rows)[0])
    solved = sum(c < n for c in pivots)  # A's pivot rows come first
    echelon, pivots, below = echelon[:solved], pivots[:solved], echelon[solved:]
    solutions: list[Optional[tuple[Fraction, ...]]] = []
    for k in range(n, n + len(rhs)):
        if any(row[k] for row in below):
            solutions.append(None)
            continue
        v = _back_substitute(echelon, pivots, [0] * k + [1])
        solutions.append(tuple(Fraction(-x, v[k]) for x in v[:n]))
    return solutions


def null_space_basis(a: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of ``{v : A @ v == 0}``, of dimension ``cols - rank``: the
    annihilator of A's rows' ``Span``, each vector divided by the magnitude
    of its last nonzero entry, the one at its free column."""
    basis = []
    for v in Span.of(_scaled_ints(a.to_lists())[0], a.cols).annihilator:
        free = abs(next(x for x in reversed(v) if x))
        basis.append(tuple(Fraction(x, free) for x in v))
    return basis


def rank(a: Matrix) -> int:
    """The pivots of a ``Fraction`` Gauss-Jordan reduction, left to right."""
    rows, r = a.to_lists(), 0
    for c in range(a.cols):
        if r == a.rows:
            break
        if (p := next((i for i in range(r, a.rows) if rows[i][c]), None)) is not None:
            rows[r], rows[p] = rows[p], rows[r]
            _pivot(rows, r, c)
            r += 1
    return r


def _scaled_ints(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Rational rows as integers over their least common denominator."""
    scale = math.lcm(*{x.denominator for row in rows for x in row})
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows], scale


def _bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """In-place forward fraction-free elimination of integer rows (Bareiss 1968).

    Pivot columns run left to right; the first ``rank`` rows end in echelon
    form and the rest all zero. Entries stay minors of the input, so dividing
    by the previous pivot is exact. Returns the rank and the signed last pivot."""
    rank, sign, previous = 0, 1, 1
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        if p != rank:
            rows[rank], rows[p], sign = rows[p], rows[rank], -sign
        pivot, a = rows[rank], rows[rank][c]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(a * x - f * y) // previous for x, y in zip(rows[i], pivot)]
        rank, previous = rank + 1, a
    return rank, sign * previous


def _echelon(rows: Iterable[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """The nonzero rows of ``_bareiss`` on a copy of ``rows``, and their pivots."""
    rows = list(rows)
    echelon = rows[: _bareiss(rows)[0]]
    return echelon, [next(c for c, x in enumerate(row) if x) for row in echelon]


def _back_substitute(echelon: list[list[int]], pivots: list[int], v: list[int]) -> list[int]:
    """v with its pivot entries set, last row first, so every echelon row is
    orthogonal to it; v is scaled just enough for each entry to be an integer
    coprime to the scale, so gcd(v) is kept. A short v ends the dot products."""
    for row, c in zip(reversed(echelon), reversed(pivots)):
        if s := sum(map(mul, row, v)):
            g = math.gcd(row[c], s)
            v = [x * (row[c] // g) for x in v]
            v[c] = -s // g
    return v


@dataclass(frozen=True)
class Span:
    """The span of integer rows of length n, kept as its annihilator: one primitive
    vector per free column of their ``_bareiss`` echelon form, back-substituted
    and signed so its first nonzero entry is positive (none at full rank)."""

    annihilator: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, rows: Iterable[Sequence[int]], n: int) -> "Span":
        echelon, pivots = _echelon(rows)
        vectors = []
        for free in [j for j in range(n) if j not in pivots]:
            v = _back_substitute(echelon, pivots, [int(j == free) for j in range(n)])
            vectors.append(tuple(v) if next(x for x in v if x) > 0 else tuple(-x for x in v))
        return cls(tuple(vectors))

    def outside(self, rows: Sequence[Sequence]) -> Optional[tuple[int, ...]]:
        """The first annihilator vector some row is not orthogonal to, or None
        when every row lies in the span."""
        for v in self.annihilator:
            for row in rows:
                if sum(map(mul, row, v)):
                    return v
        return None


def determinant(a: Matrix) -> Fraction:
    """Bareiss's signed last pivot over scale**n; zero below full rank."""
    if a.rows != a.cols:
        raise ValueError("determinant requires a square matrix")
    rows, scale = _scaled_ints(a.to_lists())
    rank, last = _bareiss(rows)
    return Fraction(last, scale**a.rows) if rank == a.rows else _ZERO


def lp_feasible(
    equalities: Matrix, rhs: Sequence[Fraction]
) -> Optional[tuple[Fraction, ...]]:
    """Find x >= 0 with ``equalities @ x == rhs``.

    Every variable is nonnegative, and that is the whole contract. Returns an
    exact feasible point, or None when the system is infeasible. Feasibility
    only: there is no objective.

    The search is a phase-I simplex minimizing the sum of one artificial
    variable per row under Bland's smallest-index rule, so termination is
    guaranteed. Artificial columns are not stored: an artificial is only a
    basis id until it leaves, and it never enters.
    """
    m, n = equalities.rows, equalities.cols
    require_length(len(rhs), m, "right-hand side length", "row count")

    b = [parse_rational(v) for v in rhs]
    rows = [list(equalities.row(i)) + [b[i]] for i in range(m)]
    tableau = [[-x for x in row] if row[-1] < 0 else row for row in rows]
    # objective row: reduced costs of the artificial sum; last entry -objective
    tableau.append([-sum((row[k] for row in tableau), _ZERO) for k in range(n + 1)])
    basis = [n + i for i in range(m)]  # artificial ids, never stored

    while True:
        objective = tableau[m]
        enter = next((j for j in range(n) if objective[j] < 0), None)
        if enter is None:
            break
        leave = None
        best: Optional[Fraction] = None
        for i in range(m):
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

    if tableau[m][-1] != 0:
        return None

    x = [_ZERO] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tableau[i][-1]

    if equalities.mul_vec(x) != tuple(b):
        raise RuntimeError("simplex returned a non-solution; invariant broken")
    if any(v < 0 for v in x):
        raise RuntimeError("simplex returned a negative value; invariant broken")
    return tuple(x)
