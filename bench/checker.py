"""Independent answer checks for the benchmark workloads.

Nothing here calls elicitkit. Matrices are plain lists of ``Fraction`` rows
read from the objects under test, and products, ranks and belief grids are
computed by the small routines below. Each check works from a property the
answer must have, never from a stored copy of earlier output:

* a positive answer must carry a witness that re-verifies exactly;
* answers the benchmark knows by construction must come out that way;
* answers must respect the implications between the orders;
* a negative dominance or completeness answer is confirmed by an
  independent floating-point LP (``scipy.optimize.linprog``), run after
  the timed phase.

Every check returns a list of error messages; an empty list means the
answer passed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

_ZERO = Fraction(0)


def rows_of(matrix) -> list[list[Fraction]]:
    """The rows of an elicitkit ``Matrix``, read from its stored entries."""
    entries, cols = matrix.entries, matrix.cols
    return [list(entries[i * cols : (i + 1) * cols]) for i in range(matrix.rows)]


def matmul(a, b) -> list[list[Fraction]]:
    return [
        [sum((x * b[k][j] for k, x in enumerate(row)), _ZERO) for j in range(len(b[0]))]
        for row in a
    ]


def vecmat(v, k) -> list[Fraction]:
    """Row vector times matrix: a belief's mean outcome distribution."""
    return [sum((v[t] * k[t][j] for t in range(len(k))), _ZERO) for j in range(len(k[0]))]


def matvec(k, w) -> list[Fraction]:
    return [sum((x * y for x, y in zip(row, w)), _ZERO) for row in k]


def rank(a) -> int:
    rows = [list(r) for r in a]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def is_markov(m) -> bool:
    return all(x >= 0 for row in m for x in row) and all(sum(row) == 1 for row in m)


def is_belief(weights) -> bool:
    return all(w >= 0 for w in weights) and sum(weights) == 1


def modes(weights) -> tuple[int, ...]:
    top = max(weights)
    return tuple(i for i, w in enumerate(weights) if w == top)


def grid(n: int, d: int) -> list[tuple[Fraction, ...]]:
    """Beliefs on the 1/d grid in lexicographic order."""
    out = []

    def extend(prefix, left, parts):
        if parts == 1:
            out.append(tuple(Fraction(k, d) for k in prefix + [left]))
            return
        for first in range(left + 1):
            extend(prefix + [first], left - first, parts - 1)

    extend([], d, n)
    return out


# ---------------------------------------------------------------- dominance


def factorization_errors(relation: str, a, b, w) -> list[str]:
    """Re-verify the witness ``w`` (rows) of a positive answer of ``a`` over ``b``.

    For the bounded order ``w`` is the event-weight matrix, one column per
    subset of ``b``'s outcomes in bitmask order.
    """
    nb = len(b[0])
    if relation == "bounded":
        if len(w) != len(a[0]) or any(len(row) != 1 << nb for row in w):
            return ["bounded: event-weight matrix has the wrong shape"]
        if any(not 0 <= x <= 1 for row in w for x in row):
            return ["bounded: event weight outside [0, 1]"]
        for mask in range(1 << nb):
            column = [[row[mask]] for row in w]
            mass = [[sum((r[z] for z in range(nb) if mask >> z & 1), _ZERO)] for r in b]
            if matmul(a, column) != mass:
                return [f"bounded: event {mask:b} does not reproduce its mass"]
        return []
    if len(w) != len(a[0]) or any(len(row) != nb for row in w) or matmul(a, w) != b:
        return [f"{relation}: witness does not carry the kernel over"]
    if relation == "blackwell" and not is_markov(w):
        return ["blackwell: witness is not Markov"]
    if relation == "nonneg" and any(x < 0 for row in w for x in row):
        return ["nonneg: witness has a negative entry"]
    if relation == "elicitation" and any(sum(row) != 1 for row in w):
        return ["elicitation: witness rows do not sum to 1"]
    return []


def witness_rows(answer) -> list[list[Fraction]]:
    """The witness of a positive ``DominanceResult`` as rows."""
    if answer.event_weights is not None:
        return rows_of(answer.event_weights.entries)
    return rows_of(answer.witness)


def garbling_errors(dominating, dominated, noise, transition) -> list[str]:
    """A uniform-garbling decomposition: Markov T with K_Y·T equal to the
    dominated kernel mixed with uniform noise, and the noise minimal (some
    entry of T is 0 when the noise is positive)."""
    noisy = [[(1 - noise) * x + noise / len(row) for x in row] for row in dominated]
    if not 0 <= noise < 1 or not is_markov(transition) or matmul(dominating, transition) != noisy:
        return ["garbling decomposition does not re-verify"]
    if noise > 0 and min(x for row in transition for x in row) != 0:
        return ["garbling noise is not minimal: no transition entry is 0"]
    return []


def chain_errors(holds: dict) -> list[str]:
    """Blackwell => nonneg => elicitation and Blackwell => bounded => elicitation."""
    errors = []
    for stronger, weaker in (
        ("blackwell", "nonneg"),
        ("nonneg", "elicitation"),
        ("blackwell", "bounded"),
        ("bounded", "elicitation"),
    ):
        if holds[stronger] and not holds[weaker]:
            errors.append(f"{stronger} holds but {weaker} does not")
    return errors


def check_dominance(inst, result) -> tuple[list[str], list[tuple]]:
    """Exact checks, plus the float-LP claims still to confirm.

    A claim is ``(kind, a, b, feasible)``: the answer says the program of
    ``kind`` for ``a`` over ``b`` is (in)feasible.
    """
    ky, channel = inst["ky"], inst["channel"]
    kz = matmul(ky, channel)
    errors, claims = [], []
    if rows_of(inst["y"].kernel) != ky or rows_of(inst["z"].kernel) != kz:
        errors.append("input kernels differ from the generated ones")
    for direction, a, b in (("forward", ky, kz), ("reverse", kz, ky)):
        answers = result[direction]
        holds = {rel: answers[rel].holds for rel in answers}
        if direction == "forward" and not all(holds.values()):
            errors.append(f"forward garbled pair fails {sorted(r for r in holds if not holds[r])}")
        errors += [f"{direction}: {e}" for e in chain_errors(holds)]
        for relation, answer in answers.items():
            if answer.holds:
                errors += [
                    f"{direction} {e}"
                    for e in factorization_errors(relation, a, b, witness_rows(answer))
                ]
            else:
                claims.append((relation, a, b, False))
    claims.append(("complete", ky, None, result["complete"]))
    return errors, claims


def _float_program(kind: str, a, b):
    """(A_eq, b_eq, bounds) of the feasibility program for one claim."""
    n = len(a)
    if kind == "complete":
        m = len(a[0])
        return [
            (
                [[float(a[t][j]) for t in range(n)] for j in range(m)] + [[1.0] * n],
                [float(j == target) for j in range(m)] + [1.0],
                [(0, None)] * n,
            )
            for target in range(m)
        ]
    p, q = len(a[0]), len(b[0])
    if kind == "bounded":
        masks = 1 << q
        a_eq, b_eq = [], []
        for mask in range(masks):
            for t in range(n):
                row = [0.0] * (p * masks)
                row[mask * p : (mask + 1) * p] = [float(x) for x in a[t]]
                a_eq.append(row)
                b_eq.append(float(sum((b[t][z] for z in range(q) if mask >> z & 1), _ZERO)))
        return [(a_eq, b_eq, [(0, 1)] * (p * masks))]
    a_eq, b_eq = [], []
    for t in range(n):
        for z in range(q):
            row = [0.0] * (p * q)
            for y in range(p):
                row[y * q + z] = float(a[t][y])
            a_eq.append(row)
            b_eq.append(float(b[t][z]))
    if kind == "blackwell":
        for y in range(p):
            a_eq.append([float(y * q <= k < (y + 1) * q) for k in range(p * q)])
            b_eq.append(1.0)
    bound = (None, None) if kind == "elicitation" else (0, None)
    return [(a_eq, b_eq, [bound] * (p * q))]


def float_claim_errors(claims) -> list[str]:
    """Confirm each claimed answer with HiGHS in floating point."""
    import numpy as np
    from scipy.optimize import linprog

    errors = []
    for kind, a, b, feasible in claims:
        verdicts = []
        for a_eq, b_eq, bounds in _float_program(kind, a, b):
            res = linprog(
                np.zeros(len(bounds)), A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                bounds=bounds, method="highs",
            )
            if res.status not in (0, 2):
                errors.append(f"{kind}: float LP gave no verdict ({res.message})")
            verdicts.append(res.status == 0)
        if all(verdicts) != feasible:
            errors.append(f"{kind}: exact answer {feasible} but float LP says {all(verdicts)}")
    return errors


# ------------------------------------------------------------------- ic_grid


def _ic_violation(table, lambdas, i, j) -> bool:
    """The checks of ``ic_verify`` for target = the maximal partition."""
    gap = sum((l * (x - y) for l, x, y in zip(lambdas[i], table[i], table[j])), _ZERO)
    same = lambdas[i] == lambdas[j]
    return gap < 0 or (not same and gap == 0) or (same and gap != 0)


def check_ic(inst, report) -> list[str]:
    n, d = inst["n"], inst["d"]
    size = math.comb(d + n - 1, n - 1)
    errors = []
    if report.pairs_checked != size * (size - 1):
        errors.append(f"pairs_checked {report.pairs_checked} != G(G-1) with G={size}")
    if report.grid_denominator != d:
        errors.append("report names the wrong grid")
    if inst["kind"] != "anti_proper":
        if not (report.incentive_compatible and report.elicits_target) or report.violation:
            errors.append(f"proper {inst['kind']} mechanism not reported IC and eliciting")
        return errors
    if report.incentive_compatible or report.elicits_target or report.violation is None:
        return errors + ["anti-proper mechanism reported IC"]
    k = inst["kernel"]
    table = rows_of(inst["mechanism"].payoffs)
    beliefs = grid(n, d)
    v = report.violation
    p, q = tuple(v.belief.weights), tuple(v.deviation.weights)
    if p not in beliefs or q not in beliefs:
        return errors + ["violation beliefs are off the grid"]
    i, j = beliefs.index(p), beliefs.index(q)
    gap = sum((l * (x - y) for l, x, y in zip(vecmat(p, k), table[i], table[j])), _ZERO)
    if v.check != "weak_ic" or not gap < 0 or gap != v.gap:
        errors.append(f"violation gap {v.gap} ({v.check}) recomputes as {gap}")
    lambdas = [vecmat(b, k) for b in beliefs]
    for a in range(i + 1):
        for b in range(len(beliefs) if a < i else j):
            if a != b and _ic_violation(table, lambdas, a, b):
                return errors + [f"pair ({a},{b}) violates before the reported ({i},{j})"]
    return errors


# ------------------------------------------------------------ elicit_queries


def _witness_errors(label, k, witness, differs) -> list[str]:
    p, q = (tuple(b.weights) for b in witness)
    if not (is_belief(p) and is_belief(q)):
        return [f"{label}: witness is not a pair of beliefs"]
    if vecmat(p, k) != vecmat(q, k):
        return [f"{label}: witness beliefs have different mean outcome distributions"]
    if not differs(p, q):
        return [f"{label}: witness beliefs do not differ on the target"]
    return []


def _weights_errors(label, k, weights, target) -> list[str]:
    if weights is None or matvec(k, weights) != list(target):
        return [f"{label}: K w != g"]
    return []


def _power_rows(k, copies):
    rows = []
    for row in k:
        out = [Fraction(1)]
        for _ in range(copies):
            out = [x * y for x in out for y in row]
        rows.append(out)
    return rows


def check_elicit(inst, res) -> list[str]:
    k, ge, gn = inst["kernel"], inst["ge"], inst["gn"]
    n, m = len(k), len(k[0])
    full = rank(k) == n
    errors = []
    if not res["elicitable"].elicitable:
        errors.append("K w statistic reported not elicitable")
    else:
        errors += _weights_errors("unbiased", k, res["elicitable"].weights, ge)
    other = res["other"]
    if other.elicitable:
        errors += _weights_errors("unbiased", k, other.weights, gn)
    else:
        errors += _witness_errors(
            "unbiased", k, other.witness,
            lambda p, q: sum(a * g for a, g in zip(p, gn)) != sum(a * g for a, g in zip(q, gn)),
        )
    moment = res["moment"]
    if not moment.elicitable:
        errors.append("moment of an elicitable statistic reported not elicitable")
    else:
        errors += _weights_errors("moment", _power_rows(k, 2), moment.weights, [g * g for g in ge])
    ce = res["complete"]
    if (ce.full_belief_elicitable, ce.impossible_by_dimension, ce.min_copies_bound) != (full, m < n, n - 1):
        errors.append("complete_elicitation contradicts rank, dimension or bound")
    identified = len({tuple(row) for row in k}) == n
    cert = ce.vandermonde_certificate
    if (cert is not None) != identified:
        errors.append("Vandermonde certificate present exactly when identified: violated")
    if cert is not None:
        s = list(cert.statistic)
        vdet = math.prod((s[j] - s[i] for i in range(n) for j in range(i + 1, n)), start=Fraction(1))
        if matvec(k, cert.outcome_weights) != s:
            errors.append("certificate statistic is not K times its weights")
        if rows_of(cert.vandermonde) != [[x**p for x in s] for p in range(n)]:
            errors.append("certificate matrix is not the statistic's Vandermonde")
        if cert.determinant != vdet or (vdet != 0) != (len(set(s)) == n):
            errors.append("Vandermonde determinant wrong or not tied to injectivity")
        if not cert.product_full_belief_elicitable or cert.copies != n - 1:
            errors.append("n-1 copies of an identified experiment must recover the belief")
    mode = res["mode"]
    if mode.elicitable != full:
        errors.append("mode elicitability must equal full-belief elicitability")
    elif not full:
        p, q = (tuple(b.weights) for b in mode.witness)
        errors += _witness_errors("mode", k, mode.witness, lambda p, q: not set(modes(p)) & set(modes(q)))
        if tuple(mode.witness_modes) != (modes(p), modes(q)):
            errors.append("mode witness names the wrong modal sets")
    if res["coarser_elicitable"] is not True:
        errors.append("a K w statistic must be coarser than the maximal partition")
    if res["coarser_other"] != other.elicitable:
        errors.append("is_coarser disagrees with unbiased_weights on the same statistic")
    kz = matmul(k, inst["channel"])
    dominance = res["dominance"]
    if not dominance.holds:
        errors.append("garbled copy through an invertible channel must dominate back")
    else:
        errors += factorization_errors("elicitation", kz, k, rows_of(dominance.witness))
    dec = res["garbling"]
    return errors + garbling_errors(kz, k, dec.noise, rows_of(dec.transition))


# ----------------------------------------------------------------------- cli


def check_cli(inst, result) -> list[str]:
    try:
        doc = json.loads(result)
    except ValueError:
        return [f"{inst['label']}: stdout is not JSON"]
    command = inst["command"]
    if command == "demo":
        return [] if doc.get("passed") is True else [f"{inst['label']}: demo claims failed"]
    if command == "verify":
        n, d = inst["n"], inst["d"]
        size = math.comb(d + n - 1, n - 1)
        if doc.get("pairs_checked") != size * (size - 1):
            return [f"{inst['label']}: pairs_checked is not G(G-1)"]
        if not (doc.get("incentive_compatible") and doc.get("elicits_target")):
            return [f"{inst['label']}: proper mechanism not reported IC and eliciting"]
        return []
    ky, kz = inst["ky"], inst["kz"]
    relation = inst["relation"]
    if doc.get("holds") is not True or doc.get("relation") != relation:
        return [f"{inst['label']}: forward garbled pair reported not to hold"]
    if relation == "garbling":
        rows = [[Fraction(x) for x in row] for row in doc["transition"]]
        found = garbling_errors(ky, kz, Fraction(doc["noise"]), rows)
    else:
        witness = doc["witness"]["entries"] if relation == "bounded" else doc["witness"]
        rows = [[Fraction(x) for x in row] for row in witness]
        found = factorization_errors(relation, ky, kz, rows)
    return [f"{inst['label']}: {e}" for e in found]
