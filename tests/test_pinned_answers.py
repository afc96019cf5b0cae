"""Answers pinned byte for byte on a seeded corpus.

Every dominance order in both directions, completeness, unbiased weights and
mode elicitability are serialized to canonical JSON and hashed per seed
(``PINNED``). The span-path answers are hashed per block of seeds
(``SPAN_PINNED``): coarseness both ways, complete elicitation, unbiased
weights of random statistics, and ``ic_verify`` of quadratic panels and mean
scores on targets that the span certificate settles and on targets left to
the class pass. The exact-product answers are hashed per block of seeds too
(``PRODUCT_PINNED``): garbling decompositions both ways, kernels garbled
through random square, non-square and replacement channels with the refusals
of perturbed channels, pushforward payoff tables along every elicitation and
Blackwell witness, and ``verify_factorization`` and ``verify_event_weights``
on every witness and on a perturbed copy of it. A change that moves any
answer, witness or note changes a hash; such a change must be named and
justified, and the hashes below regenerated with
``python tests/test_pinned_answers.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from elicitkit.catalog import random_experiment, random_experiment_pairs
from elicitkit.exactcore import Matrix, format_rational
from elicitkit.model import belief_grid, garble, is_complete, replacement_garbling_channel
from elicitkit.elicit import (
    StatisticFamily,
    complete_elicitation,
    is_coarser,
    maximal_partition,
    mode_elicitable,
    unbiased_weights,
)
from elicitkit.mechanisms import (
    ic_verify,
    mean_mechanism,
    pushforward,
    quadratic_mechanism,
    tabulate,
)
from elicitkit.orders import (
    EventWeightMatrix,
    blackwell_dominates,
    bounded_dominates,
    elicitation_dominates,
    nonneg_dominates,
    uniform_garbling_decomposition,
    verify_event_weights,
    verify_factorization,
)

ORDERS = (
    elicitation_dominates,
    blackwell_dominates,
    nonneg_dominates,
    bounded_dominates,
)

PINNED = {
    0: "0d0e8ed5a8439136a89d6d3bf22f10f3fbe7cd1d4f12516e93153a24c7e53303",
    1: "ea15b58c6e9d9afe055778f419db25bb2269cdb09744021edd6003941c468631",
    2: "16f3b59052aae46e19165bfd5baee6b8f3747c410abc9d10c621beb14d7b2891",
    3: "1ccd26400ab9acf26067e527a328fdf0447cc2730b7004905ca880398d128f4a",
    4: "b06fd770fe9de8f815d174c4e9f6134388d31ef4b511997e6720fc3fbf50d575",
}

# each block hashes SPAN_SEEDS consecutive seeds of span-path answers
SPAN_SEEDS = 12
SPAN_PINNED = {
    0: "8e203537131d3475b39184082193a85f2a6dbbf343f7864fa3da4849d4c5cbf3",
    1: "12a7d76af70bf9ad3986444e729c8b006d22ef8f68ea20ada5dd0ebe219b81d7",
    2: "35218b8eceda6fd168f278b153dda0ae2b98186c2e154a8d49e7564abde49244",
    3: "7a716b5dac6529d94dbb15b7e05319aa61505b890af48de28fc2a14792d28cb8",
    4: "aff4fa3e8a6c983400f03bdf29bff62db2b52f731f9846ddbe9c91abbd15e9a5",
}

# each block hashes PRODUCT_SEEDS consecutive seeds of exact-product answers
PRODUCT_SEEDS = 8
PRODUCT_PINNED = {
    0: "d7b0343432df32935feca20bc2e9afee7459f2d36c4a1279e6f0cef0715d3664",
    1: "5ebfbac7c0915eca35fabea0fdfd71b7a3fe0529cac1827e79e9e8ea10bdc688",
    2: "7731dbf4d9689d9e488c624f572cf4db206b5195c4a8fc72b7aace1fdcad00f5",
    3: "cfb3c7d1575fa66ece932f08576a46006930c29845316f2acd56c187a61fb40d",
    4: "70cb297c2db351cb741e6e752beeb0c3861391ca9dcbad8c269b243837545fdf",
}


def _rationals(values):
    return [format_rational(x) for x in values]


def _report_doc(report) -> dict:
    doc = {"elicitable": report.elicitable}
    if getattr(report, "weights", None) is not None:
        doc["weights"] = _rationals(report.weights)
    if report.witness is not None:
        doc["witness"] = [b.to_doc() for b in report.witness]
    if getattr(report, "witness_modes", None) is not None:
        doc["witness_modes"] = [list(m) for m in report.witness_modes]
    return doc


def corpus(seed: int):
    """The seed's 7 random pairs plus one garbled pair built from the first."""
    pairs = random_experiment_pairs(seed, 7)
    ey = pairs[0][0]
    channel = random_experiment(random.Random(1000 + seed), len(ey.outcomes), 3)
    pairs.append((ey, garble(ey, channel.kernel)))
    return pairs


def answers(seed: int) -> list:
    out = []
    for ey, ez in corpus(seed):
        n = len(ey.parameters)
        out.append(
            {
                "forward": [order(ey, ez).to_doc() for order in ORDERS],
                "reverse": [order(ez, ey).to_doc() for order in ORDERS],
                "complete": [is_complete(ey), is_complete(ez)],
                "unbiased": [
                    _report_doc(unbiased_weights(ey, ez.kernel.col(z)))
                    for z in range(len(ez.outcomes))
                ],
                "mode": [
                    _report_doc(mode_elicitable(e, range(n))) for e in (ey, ez)
                ],
            }
        )
    return out


def digest(seed: int) -> str:
    text = json.dumps(answers(seed), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _complete_doc(report) -> dict:
    doc = {
        "single": report.full_belief_elicitable,
        "bound": report.min_copies_bound,
        "impossible": report.impossible_by_dimension,
    }
    if (c := report.vandermonde_certificate) is not None:
        doc["certificate"] = {
            "statistic": _rationals(c.statistic),
            "outcome_weights": _rationals(c.outcome_weights),
            "copies": c.copies,
            "vandermonde": c.vandermonde.to_doc(),
            "determinant": format_rational(c.determinant),
            "product": c.product_full_belief_elicitable,
        }
    return doc


def span_answers(seed: int) -> list:
    """Span-path answers on the seed's 6 random pairs, each way round."""
    rng = random.Random(2000 + seed)
    out = []
    for ey, ez in random_experiment_pairs(2000 + seed, 6, max_outcomes=3):
        for a, b in ((ey, ez), (ez, ey)):
            n, m = len(a.parameters), len(a.outcomes)
            statistics = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(3)]
            weights = [rng.randint(-2, 2) for _ in range(m)]
            scored = a.kernel.mul_vec(weights)
            families = [
                StatisticFamily(a.parameters, (tuple(map(Fraction, g)),))
                for g in statistics[:2]
            ]
            panel, mean = quadratic_mechanism(a), mean_mechanism(a, scored, weights)
            checks = [
                (panel, maximal_partition(a)),  # always the span certificate
                (panel, maximal_partition(b)),
                (panel, families[0]),
                (mean, StatisticFamily(a.parameters, (scored,))),
                (mean, maximal_partition(b)),
                (mean, families[1]),
            ]
            out.append(
                {
                    "coarser": [
                        is_coarser(maximal_partition(b), maximal_partition(a)),
                        is_coarser(families[0], maximal_partition(a)),
                    ],
                    "complete": _complete_doc(complete_elicitation(a)),
                    "unbiased": [_report_doc(unbiased_weights(a, g)) for g in statistics],
                    "ic": [ic_verify(mech, target, 2 + n % 2).to_doc() for mech, target in checks],
                }
            )
    return out


def span_digest(block: int) -> str:
    seeds = range(block * SPAN_SEEDS, (block + 1) * SPAN_SEEDS)
    text = json.dumps([span_answers(seed) for seed in seeds], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _perturbed(m: Matrix) -> Matrix:
    """``m`` with its first entry x moved to x/2, or to 1 when it is 0."""
    x = m.entries[0]
    return Matrix(m.rows, m.cols, (x / 2 if x else Fraction(1),) + m.entries[1:])


def _garble_refusals(e, channel: Matrix) -> list:
    """The messages of ``garble`` on the channel with its first row summing
    off 1, with that row all negative, and with only its last entry negative."""
    first, rest = channel.entries[: channel.cols], channel.entries[channel.cols :]
    messages = []
    for row in (
        (first[0] + Fraction(1, 7),) + first[1:],
        tuple(x - 2 for x in first),
        first[:-1] + (first[-1] - 2,),
    ):
        try:
            garble(e, Matrix(channel.rows, channel.cols, row + rest))
        except ValueError as exc:
            messages.append(str(exc))
        else:
            messages.append(None)
    return messages


def product_answers(seed: int) -> list:
    """Exact-product answers on the seed's random pair and three garbled
    pairs (square, non-square and replacement channel), each way round."""
    rng = random.Random(3000 + seed)
    (ey, ez), = random_experiment_pairs(3000 + seed, 1, max_parameters=5)
    m = len(ey.outcomes)
    noise = Fraction(rng.randint(1, 5), 6)
    channels = [
        random_experiment(rng, m, m).kernel,
        random_experiment(rng, m, rng.randint(1, 4)).kernel,
        replacement_garbling_channel(random_experiment(rng, 1, m).kernel.row(0), noise),
    ]
    garbled = [garble(ey, c) for c in channels]
    out = [
        {
            "garble": [[g.outcomes, g.kernel.to_doc()] for g in garbled],
            "refused": [_garble_refusals(ey, c) for c in channels],
        }
    ]
    for pair in [(ey, ez)] + [(ey, g) for g in garbled]:
        for a, b in (pair, pair[::-1]):
            n = len(a.parameters)
            base = tabulate(quadratic_mechanism(b), belief_grid(n, 2))
            doc: dict = {
                "garbling": uniform_garbling_decomposition(a, b).to_doc(),
                "factorization": [],
                "pushforward": [],
            }
            for order in (elicitation_dominates, blackwell_dominates, nonneg_dominates):
                w = order(a, b).witness
                if w is not None:
                    doc["factorization"].append(
                        [verify_factorization(a, b, w), verify_factorization(a, b, _perturbed(w))]
                    )
                    if order is not nonneg_dominates:
                        doc["pushforward"].append(pushforward(base, w, a).payoffs.to_doc())
            events = bounded_dominates(a, b).event_weights
            if events is not None:
                bent = EventWeightMatrix(
                    events.source_outcomes, events.target_outcomes, _perturbed(events.entries)
                )
                doc["events"] = [verify_event_weights(a, b, events), verify_event_weights(a, b, bent)]
            out.append(doc)
    return out


def product_digest(block: int) -> str:
    seeds = range(block * PRODUCT_SEEDS, (block + 1) * PRODUCT_SEEDS)
    text = json.dumps([product_answers(seed) for seed in seeds], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_answers_match_pinned_hashes():
    moved = [seed for seed, expected in PINNED.items() if digest(seed) != expected]
    assert not moved, f"answers changed for seeds {moved}"


def test_span_path_answers_match_pinned_hashes():
    moved = [block for block, expected in SPAN_PINNED.items() if span_digest(block) != expected]
    assert not moved, f"span-path answers changed for blocks {moved}"


def test_exact_product_answers_match_pinned_hashes():
    moved = [block for block, expected in PRODUCT_PINNED.items() if product_digest(block) != expected]
    assert not moved, f"exact-product answers changed for blocks {moved}"


if __name__ == "__main__":
    tables = (
        ("PINNED", PINNED, digest),
        ("SPAN_PINNED", SPAN_PINNED, span_digest),
        ("PRODUCT_PINNED", PRODUCT_PINNED, product_digest),
    )
    for name, table, hashed in tables:
        print(f"{name} = {{")
        for key in table:
            print(f"    {key}: \"{hashed(key)}\",")
        print("}")
