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
full column rank. Witnesses are exact and re-verifiable by multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .exactcore import Matrix, format_rational, lp_feasible, solve_linear
from .model import Experiment, is_complete, uniform_garble

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
        expected_cols = 1 << len(self.target_outcomes)
        if self.entries.rows != len(self.source_outcomes):
            raise ValueError("event-weight rows must match the source outcomes")
        if self.entries.cols != expected_cols:
            raise ValueError("event-weight columns must enumerate all target subsets")
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
    """Uniform-noise level, minimal for one witness, and Markov channel."""

    noise: Fraction
    transition: Matrix

    def to_doc(self) -> dict:
        return {
            "holds": True,
            "noise": format_rational(self.noise),
            "transition": self.transition.to_doc(),
        }


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
    """Exact check of the defining equalities, one per (subset, parameter).

    For each subset A the source-weighted column must reproduce the total
    probability mass the dominated experiment puts on A.
    """
    if n.source_outcomes != ey.outcomes or n.target_outcomes != ez.outcomes:
        return False
    nz = len(ez.outcomes)
    for mask in range(1 << nz):
        col = n.entries.col(mask)
        for t in range(len(ey.parameters)):
            left = sum(
                (ey.kernel.at(t, y) * col[y] for y in range(len(ey.outcomes))),
                _ZERO,
            )
            right = sum(
                (ez.kernel.at(t, z) for z in range(nz) if mask >> z & 1), _ZERO
            )
            if left != right:
                return False
    return True


def elicitation_dominates(ey: Experiment, ez: Experiment) -> DominanceResult:
    """Solve ``kernel_Y @ M == kernel_Z`` column by column.

    On success the witness is renormalized to unit row sums by spreading
    each row's deficit evenly over its |Z| entries. The factorization is
    preserved: the rows of kernel_Z sum to 1, so the deficit vector lies in
    the null space of kernel_Y, and so does the added matrix
    deficit @ ones^T / |Z|. With kernel_Y of full column rank the deficit is
    zero and the solve's witness is returned unchanged.
    """
    _require_shared_parameters(ey, ez)
    ny, nz = len(ey.outcomes), len(ez.outcomes)
    cols: list[tuple[Fraction, ...]] = []
    for z in range(nz):
        solution = solve_linear(ey.kernel, ez.kernel.col(z))
        if solution is None:
            return DominanceResult(
                "elicitation",
                False,
                note=f"outcome {ez.outcomes[z]!r} is outside the reachable span",
            )
        cols.append(solution)
    raw = Matrix.from_cols(cols)
    rows = []
    for y in range(ny):
        row = raw.row(y)
        share = (_ONE - sum(row, _ZERO)) / nz
        rows.append([x + share for x in row])
    witness = Matrix.from_rows(rows)
    if not verify_factorization(ey, ez, witness):
        raise RuntimeError("row renormalization broke the factorization")
    return DominanceResult("elicitation", True, witness=witness)


def blackwell_dominates(ey: Experiment, ez: Experiment) -> DominanceResult:
    """Feasibility of a Markov witness: one joint program over all entries."""
    _require_shared_parameters(ey, ez)
    ny, nz = len(ey.outcomes), len(ez.outcomes)
    nt = len(ey.parameters)
    nvars = ny * nz
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for t in range(nt):
        for z in range(nz):
            row = [_ZERO] * nvars
            for y in range(ny):
                row[y * nz + z] = ey.kernel.at(t, y)
            rows.append(row)
            rhs.append(ez.kernel.at(t, z))
    for y in range(ny):
        row = [_ZERO] * nvars
        for z in range(nz):
            row[y * nz + z] = _ONE
        rows.append(row)
        rhs.append(_ONE)
    point = lp_feasible(Matrix.from_rows(rows), rhs)
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

    One equality per (subset, parameter); the program splits by subset, so
    each of the 2^|Z| columns is a small box-constrained feasibility problem.
    The subset count is exponential by nature, hence the hard cap.
    """
    _require_shared_parameters(ey, ez)
    nz = len(ez.outcomes)
    if nz > max_outcomes:
        raise ValueError(
            f"dominated outcome set of size {nz} exceeds the cap {max_outcomes}"
        )
    ny = len(ey.outcomes)
    nt = len(ey.parameters)
    cols: list[tuple[Fraction, ...]] = []
    for mask in range(1 << nz):
        rhs = [
            sum((ez.kernel.at(t, z) for z in range(nz) if mask >> z & 1), _ZERO)
            for t in range(nt)
        ]
        point = lp_feasible(ey.kernel, rhs, upper=[_ONE] * ny)
        if point is None:
            subset = ",".join(event_subsets(ez.outcomes)[mask]) or "{}"
            return DominanceResult(
                "bounded",
                False,
                note=f"event {{{subset}}} has no [0,1] representation",
            )
        cols.append(point)
    witness = EventWeightMatrix(
        ey.outcomes, ez.outcomes, Matrix.from_cols(cols)
    )
    return DominanceResult("bounded", True, event_weights=witness)


def uniform_garbling_decomposition(
    ey: Experiment, ez: Experiment
) -> GarblingDecomposition:
    """Express elicitation dominance as Blackwell dominance over noisy data.

    Takes the row-normalized elicitation witness M and finds the minimal
    noise level in [0, 1) whose uniform mixing makes every entry nonnegative:
    each negative entry m needs noise >= |m| / (1/|Z| + |m|). The resulting
    Markov channel T carries the dominating kernel exactly onto the uniform
    garbling of the dominated one at that noise level. The noise is minimal
    for M, and overall only when the dominating kernel has full column rank:
    K_Y = [[1/2,1/4,1/4],[1/4,3/8,3/8]] gives 1/2 where Blackwell holds.
    """
    dominance = elicitation_dominates(ey, ez)
    if not dominance.holds:
        raise ValueError(
            "no elicitation dominance, so no garbling decomposition exists"
        )
    m = dominance.witness
    nz = len(ez.outcomes)
    share = Fraction(1, nz)
    noise = _ZERO
    for x in m.entries:
        if x < 0:
            needed = -x / (share - x)
            if needed > noise:
                noise = needed
    transition = Matrix(
        m.rows,
        m.cols,
        tuple((1 - noise) * x + noise * share for x in m.entries),
    )
    garbled = uniform_garble(ez, noise)
    if ey.kernel @ transition != garbled.kernel:
        raise RuntimeError("garbling decomposition failed its own certificate")
    return GarblingDecomposition(noise, transition)


@dataclass(frozen=True)
class PairAudit:
    index: int
    elicitation: bool
    blackwell: bool
    nonneg: bool
    bounded: Optional[bool]
    dominating_complete: bool


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

    def to_doc(self) -> dict:
        return {
            "pairs": self.pair_count,
            "violations": list(self.violations),
            "elicitation_without_nonneg": self.found_elicitation_without_nonneg,
            "nonneg_without_blackwell": self.found_nonneg_without_blackwell,
        }


def order_consistency_audit(
    pairs: Iterable[tuple[Experiment, Experiment]],
) -> AuditReport:
    results: list[PairAudit] = []
    violations: list[str] = []
    for index, (ey, ez) in enumerate(pairs):
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
            rows_ok = all(
                sum(w.row(y), _ZERO) == 1 and all(x >= 0 for x in w.row(y))
                for y in range(w.rows)
            )
            if not rows_ok:
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

        complete_y = is_complete(ey)
        if complete_y and nonneg_res.holds != blackwell_res.holds:
            violations.append(
                f"pair {index}: complete dominating experiment but nonneg and "
                "blackwell disagree"
            )

        results.append(
            PairAudit(
                index=index,
                elicitation=elicit_res.holds,
                blackwell=blackwell_res.holds,
                nonneg=nonneg_res.holds,
                bounded=None if bounded_res is None else bounded_res.holds,
                dominating_complete=complete_y,
            )
        )
    return AuditReport(tuple(results), tuple(violations))
