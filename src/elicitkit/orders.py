"""Comparison orders on experiments, with constructive witnesses.

Four factorization relations between experiments over a shared parameter
set, each asking for a matrix M (or event-weight matrix N) that carries the
dominating kernel onto the dominated one:

* elicitation order: any M with ``kernel_Y @ M == kernel_Z`` (rows are
  renormalized to sum to 1, which is always possible);
* Blackwell order: M Markov (nonnegative, unit row sums);
* nonnegative order: M nonnegative (limited-liability payments transfer);
* bounded order: an event-weight matrix N over subsets of the dominated
  outcomes with entries in [0, 1] ([0, 1]-payments transfer).

Blackwell implies nonnegative implies elicitation, and Blackwell implies
bounded implies elicitation. The elicitation order is also exactly "Blackwell
above some uniform garbling", and one is computed constructively; its noise is
minimal for the witness used, and overall only when the dominating kernel has
full column rank. Both read one solve's witness as integers over one denominator:
one ``Fraction`` per entry, and an integer garbling certificate (no ``Matrix @``).
Witnesses are exact and re-verifiable by multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .exactcore import (
    Matrix, _scaled_ints, format_rational, lp_feasible, require_distribution, require_int,
    require_length, require_tuple, solve_linear,
)
from .model import Experiment, is_complete

_ZERO = Fraction(0)
_ONE = Fraction(1)

# The bounded order solves one LP per event, 2^|Z| in all, so the dominated
# outcome count is capped.
MAX_BOUNDED_OUTCOMES = 12


def event_subsets(labels: Sequence[str]) -> tuple[tuple[str, ...], ...]:
    """All subsets of the outcome labels, in bitmask order.

    Subset index s contains label j exactly when bit j of s is set; the empty
    set is index 0 and the full set is the last index. Event-weight matrices
    use this column order throughout.
    """
    n = len(labels)
    return tuple(
        tuple(labels[j] for j in range(n) if mask >> j & 1)
        for mask in range(1 << n)
    )


def event_masses(e: Experiment) -> Matrix:
    """Mass each parameter puts on each event: parameters x subsets, ``K @ S``.

    S is the 0/1 outcome-by-subset matrix whose column ``mask`` holds a 1 at
    each outcome of that subset, in the bitmask order of
    :func:`event_subsets`; the product is one ``@``, so each entry is one
    integer dot product over the kernel's row scale.
    """
    m = len(e.outcomes)
    subsets = Matrix(m, 1 << m, tuple(mask >> y & 1 for y in range(m) for mask in range(1 << m)))
    return e.kernel @ subsets


@dataclass(frozen=True)
class EventWeightMatrix:
    """Weights from dominating-experiment outcomes to outcome sets.

    Rows follow ``source_outcomes``; columns enumerate all subsets of
    ``target_outcomes`` in bitmask order. Entries lie in [0, 1].
    """

    source_outcomes: tuple[str, ...]
    target_outcomes: tuple[str, ...]
    entries: Matrix

    def __post_init__(self) -> None:
        require_tuple(self.source_outcomes, "source outcomes", str)
        subsets = 1 << len(require_tuple(self.target_outcomes, "target outcomes", str))
        require_length(self.entries.rows, len(self.source_outcomes), "event-weight row count",
                       "source outcomes")
        require_length(self.entries.cols, subsets, "event-weight column count", "target subsets")
        if any(x < 0 or x > 1 for x in self.entries.entries):
            raise ValueError("event weights must lie in [0, 1]")

    @property
    def subsets(self) -> tuple[tuple[str, ...], ...]:
        return event_subsets(self.target_outcomes)

    def to_doc(self) -> dict:
        return {
            "source_outcomes": list(self.source_outcomes),
            "target_outcomes": list(self.target_outcomes),
            "subsets": [list(s) for s in self.subsets],
            "entries": self.entries.to_doc(),
        }


@dataclass(frozen=True)
class DominanceResult:
    """Answer to one dominance query, with its exact witness when it holds."""

    relation: str
    holds: bool
    witness: Optional[Matrix] = None
    event_weights: Optional[EventWeightMatrix] = None
    note: Optional[str] = None

    def __post_init__(self) -> None:
        has_witness = self.witness is not None or self.event_weights is not None
        if self.holds != has_witness:
            raise ValueError("a dominance result holds exactly when it has a witness")

    def to_doc(self) -> dict:
        doc: dict = {"relation": self.relation, "holds": self.holds}
        if self.witness is not None:
            doc["witness"] = self.witness.to_doc()
        if self.event_weights is not None:
            doc["witness"] = self.event_weights.to_doc()
        if self.note is not None:
            doc["note"] = self.note
        return doc


@dataclass(frozen=True)
class GarblingDecomposition:
    """Garbling answer: noise minimal for one witness and channel, or a note."""

    holds: bool
    noise: Optional[Fraction] = None
    transition: Optional[Matrix] = None
    note: Optional[str] = None

    def to_doc(self) -> dict:
        doc: dict = {"relation": "garbling", "holds": self.holds}
        if self.holds:
            doc["noise"] = format_rational(self.noise)
            doc["transition"] = self.transition.to_doc()
        if self.note is not None:
            doc["note"] = self.note
        return doc


def _require_shared_parameters(ey: Experiment, ez: Experiment) -> None:
    if ey.parameters != ez.parameters:
        raise ValueError("experiments must share the parameter set")


def verify_factorization(ey: Experiment, ez: Experiment, m: Matrix) -> bool:
    """Exact check that ``kernel_Y @ M == kernel_Z``."""
    if m.rows != len(ey.outcomes) or m.cols != len(ez.outcomes):
        return False
    return ey.kernel @ m == ez.kernel


def verify_event_weights(
    ey: Experiment, ez: Experiment, n: EventWeightMatrix
) -> bool:
    """Exact check of the defining identity ``kernel_Y @ N == event_masses(ez)``.

    For each subset A the source-weighted column must reproduce the total
    probability mass the dominated experiment puts on A.
    """
    if n.source_outcomes != ey.outcomes or n.target_outcomes != ez.outcomes:
        return False
    return ey.kernel @ n.entries == event_masses(ez)


def _integer_witness(ey: Experiment, ez: Experiment) -> tuple[list[list[int]], int] | str:
    """One solve's row-normalized witness of ``kernel_Y @ M == kernel_Z`` as
    integer columns over one denominator, or the note naming the first
    dominated outcome outside the reachable span.

    The solved columns are read to integers over one denominator L. Each row's
    deficit L - (row sum) is spread evenly over its |Z| entries, so entry
    (y, z) is (|Z|·x + deficit) / (|Z|·L). The factorization is preserved: the
    rows of kernel_Z sum to 1, so the deficits lie in the null space of
    kernel_Y, and with kernel_Y of full column rank they are all zero.
    """
    _require_shared_parameters(ey, ez)
    nz = len(ez.outcomes)
    cols = solve_linear(ey.kernel, [ez.kernel.col(z) for z in range(nz)])
    if None in cols:
        return f"outcome {ez.outcomes[cols.index(None)]!r} is outside the reachable span"
    ints, scale = _scaled_ints(cols)
    deficits = [scale - sum(row) for row in zip(*ints)]
    # the solved columns already give kernel_Y @ M == kernel_Z, so the renormalized
    # witness factorizes exactly when kernel_Y annihilates the deficits
    if any(deficits) and any(ey.kernel.mul_vec(deficits)):
        raise RuntimeError("row renormalization broke the factorization")
    return [[nz * x + d for x, d in zip(col, deficits)] for col in ints], nz * scale


def elicitation_dominates(ey: Experiment, ez: Experiment) -> DominanceResult:
    """Solve ``kernel_Y @ M == kernel_Z`` for every column in one reduction.

    On success the witness has unit row sums, one ``Fraction`` per entry
    (``_integer_witness``); on failure the note names the first unreachable outcome.
    """
    witness = _integer_witness(ey, ez)
    if isinstance(witness, str):
        return DominanceResult("elicitation", False, note=witness)
    cols, scale = witness
    entries = tuple(Fraction(x, scale) for row in zip(*cols) for x in row)
    return DominanceResult("elicitation", True, Matrix(len(ey.outcomes), len(cols), entries))


def blackwell_dominates(ey: Experiment, ez: Experiment) -> DominanceResult:
    """Feasibility of a Markov witness: one joint program over all entries."""
    _require_shared_parameters(ey, ez)
    ny, nz = len(ey.outcomes), len(ez.outcomes)
    # variable y * nz + z is M[y][z]: one row per kernel_Z entry, then per row sum of M
    rows = [
        [ey.kernel.at(t, y) if j == z else _ZERO for y in range(ny) for j in range(nz)]
        for t in range(len(ey.parameters)) for z in range(nz)
    ] + [[_ONE if x == y else _ZERO for x in range(ny) for _ in range(nz)] for y in range(ny)]
    point = lp_feasible(Matrix.from_rows(rows), ez.kernel.entries + (_ONE,) * ny)
    if point is None:
        return DominanceResult(
            "blackwell", False, note="no Markov matrix carries the kernel over"
        )
    witness = Matrix(ny, nz, tuple(point))
    return DominanceResult("blackwell", True, witness=witness)


def nonneg_dominates(ey: Experiment, ez: Experiment) -> DominanceResult:
    """Feasibility of a nonnegative witness.

    Without row-sum constraints the program splits by dominated outcome, so
    each column is a small feasibility problem of its own.
    """
    _require_shared_parameters(ey, ez)
    cols: list[tuple[Fraction, ...]] = []
    for z in range(len(ez.outcomes)):
        point = lp_feasible(ey.kernel, ez.kernel.col(z))
        if point is None:
            return DominanceResult(
                "nonneg",
                False,
                note=f"outcome {ez.outcomes[z]!r} needs a negative weight",
            )
        cols.append(point)
    return DominanceResult("nonneg", True, witness=Matrix.from_cols(cols))


def bounded_dominates(
    ey: Experiment, ez: Experiment, max_outcomes: int = MAX_BOUNDED_OUTCOMES
) -> DominanceResult:
    """Feasibility of an event-weight matrix with entries in [0, 1].

    Each event's column of N solves one system, the same for every event:
    ``[[K_Y, 0], [I, I]] @ (x, s) == (masses, 1)`` with x, s >= 0, so the
    slacks s keep x <= 1. The 2^|Z| events make the subset count exponential
    by nature, hence the hard cap.
    """
    _require_shared_parameters(ey, ez)
    require_int(max_outcomes, "max_outcomes", 1)
    nz = len(ez.outcomes)
    if nz > max_outcomes:
        raise ValueError(
            f"dominated outcome set of size {nz} exceeds the cap {max_outcomes} (max_outcomes)"
        )
    ny = len(ey.outcomes)
    system = Matrix.from_rows(
        [row + [_ZERO] * ny for row in ey.kernel.to_lists()]
        + [row + row for row in Matrix.identity(ny).to_lists()]
    )
    masses = event_masses(ez)
    cols: list[tuple[Fraction, ...]] = []
    for mask in range(1 << nz):
        point = lp_feasible(system, masses.col(mask) + (_ONE,) * ny)
        if point is None:
            subset = ",".join(event_subsets(ez.outcomes)[mask]) or "{}"
            return DominanceResult(
                "bounded",
                False,
                note=f"event {{{subset}}} has no [0,1] representation",
            )
        cols.append(point[:ny])
    witness = EventWeightMatrix(ey.outcomes, ez.outcomes, Matrix.from_cols(cols))
    return DominanceResult("bounded", True, event_weights=witness)


def uniform_garbling_decomposition(
    ey: Experiment, ez: Experiment
) -> GarblingDecomposition:
    """Express elicitation dominance as Blackwell dominance over noisy data.

    Without elicitation dominance the answer is no, with a note. Otherwise,
    with M = W / L the row-normalized elicitation witness and C the
    uniform-noise channel, T = M @ C is M mixed with uniform noise (M's rows
    sum to 1) and carries K_Y exactly onto K_Z @ C. The noise is the least in
    [0, 1) making T nonnegative, each negative entry i / L needing noise
    >= -i·|Z| / (L - i·|Z|), so minimal for M; it is minimal overall only when
    K_Y has full column rank: K_Y = [[1/2,1/4,1/4],[1/4,3/8,3/8]] gives 1/2
    where Blackwell holds. With k = -|Z|·min(W, 0) the noise is k / (L + k),
    T = (|Z|·W + k) / (|Z|·(L + k)) in closed form, and the certificate
    K_Y @ T == K_Z @ C is checked as cross-multiplied integer dot products.
    """
    witness = _integer_witness(ey, ez)
    if isinstance(witness, str):
        return GarblingDecomposition(
            False, note="no elicitation dominance, so no garbling decomposition"
        )
    cols, scale = witness
    nz = len(cols)
    k = -nz * min(0, *map(min, cols))
    t_cols = [[nz * x + k for x in col] for col in cols]
    # K_Y @ T vs K_Z @ C = (L·|Z|·K_Z + k·(row sums)·1^T) / (|Z|·(L + k)), K over sy, sz
    (ky, sy), (kz, sz) = ey._kernel_ints, ez._kernel_ints
    for y_row, z_row in zip(zip(*ky), zip(*kz)):
        total = sum(z_row)
        for col, z in zip(t_cols, z_row):
            if sum(map(mul, y_row, col)) * sz != (scale * nz * z + k * total) * sy:
                raise RuntimeError("garbling decomposition failed its own certificate")
    transition = Matrix(len(ey.outcomes), nz, tuple(
        Fraction(x, nz * (scale + k)) for row in zip(*t_cols) for x in row
    ))
    return GarblingDecomposition(True, Fraction(k, scale + k), transition)


@dataclass(frozen=True)
class PairAudit:
    elicitation: bool
    blackwell: bool
    nonneg: bool
    bounded: Optional[bool]


@dataclass(frozen=True)
class AuditReport:
    """Chain-of-implications audit across a corpus of experiment pairs.

    Checks Blackwell => nonneg => elicitation and Blackwell => bounded =>
    elicitation on every pair, that witnesses re-verify exactly, and that a
    complete dominating experiment collapses the nonneg order onto the
    Blackwell order. The observed nonneg/bounded co-occurrences are recorded
    without asserting either containment between those two orders.
    """

    results: tuple[PairAudit, ...]
    violations: tuple[str, ...]

    @property
    def pair_count(self) -> int:
        return len(self.results)

    @property
    def found_elicitation_without_nonneg(self) -> bool:
        return any(r.elicitation and not r.nonneg for r in self.results)

    @property
    def found_nonneg_without_blackwell(self) -> bool:
        return any(r.nonneg and not r.blackwell for r in self.results)


def order_consistency_audit(pairs: Sequence[tuple[Experiment, Experiment]]) -> AuditReport:
    results: list[PairAudit] = []
    violations: list[str] = []
    for index, pair in enumerate(require_tuple(pairs, "pairs", object, (list, tuple))):
        ey, ez = require_tuple(pair, f"pair {index}", Experiment, (list, tuple))
        elicit_res = elicitation_dominates(ey, ez)
        blackwell_res = blackwell_dominates(ey, ez)
        nonneg_res = nonneg_dominates(ey, ez)
        bounded_res = (
            bounded_dominates(ey, ez)
            if len(ez.outcomes) <= MAX_BOUNDED_OUTCOMES
            else None
        )

        for res in (elicit_res, blackwell_res, nonneg_res):
            if res.holds and not verify_factorization(ey, ez, res.witness):
                violations.append(f"pair {index}: {res.relation} witness fails")
        if blackwell_res.holds:
            w = blackwell_res.witness
            try:
                for y in range(w.rows):
                    require_distribution(w.row(y), "blackwell witness row")
            except ValueError:
                violations.append(f"pair {index}: blackwell witness not Markov")
        if nonneg_res.holds and any(x < 0 for x in nonneg_res.witness.entries):
            violations.append(f"pair {index}: nonneg witness has a negative entry")
        if bounded_res is not None and bounded_res.holds:
            if not verify_event_weights(ey, ez, bounded_res.event_weights):
                violations.append(f"pair {index}: bounded witness fails")

        if blackwell_res.holds and not nonneg_res.holds:
            violations.append(f"pair {index}: blackwell without nonneg")
        if nonneg_res.holds and not elicit_res.holds:
            violations.append(f"pair {index}: nonneg without elicitation")
        if bounded_res is not None:
            if blackwell_res.holds and not bounded_res.holds:
                violations.append(f"pair {index}: blackwell without bounded")
            if bounded_res.holds and not elicit_res.holds:
                violations.append(f"pair {index}: bounded without elicitation")

        if is_complete(ey) and nonneg_res.holds != blackwell_res.holds:
            violations.append(
                f"pair {index}: complete dominating experiment but nonneg and "
                "blackwell disagree"
            )

        bounded = None if bounded_res is None else bounded_res.holds
        results.append(PairAudit(elicit_res.holds, blackwell_res.holds, nonneg_res.holds, bounded))
    return AuditReport(tuple(results), tuple(violations))
