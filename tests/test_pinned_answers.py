"""Answers pinned byte for byte on a seeded corpus.

Every dominance order in both directions, completeness, unbiased weights and
mode elicitability are serialized to canonical JSON and hashed per seed. A
change that moves any answer, witness or note changes a hash; such a change
must be named and justified, and the hashes below regenerated with
``python tests/test_pinned_answers.py``.
"""

from __future__ import annotations

import hashlib
import json
import random

from elicitkit.catalog import random_experiment, random_experiment_pairs
from elicitkit.exactcore import format_rational
from elicitkit.model import garble, is_complete
from elicitkit.elicit import mode_elicitable, unbiased_weights
from elicitkit.orders import (
    blackwell_dominates,
    bounded_dominates,
    elicitation_dominates,
    nonneg_dominates,
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


def test_answers_match_pinned_hashes():
    moved = [seed for seed, expected in PINNED.items() if digest(seed) != expected]
    assert not moved, f"answers changed for seeds {moved}"


if __name__ == "__main__":
    for seed in PINNED:
        print(f"    {seed}: \"{digest(seed)}\",")
