"""Dominance relations, garbling decompositions, and the chain audit."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from elicitkit.catalog import (
    bernoulli_experiment,
    limited_liability_separation_pair,
    noisy_bernoulli_experiment,
    random_experiment,
    random_experiment_pairs,
)
from elicitkit import orders
from elicitkit.exactcore import Matrix, solve_linear
from elicitkit.model import (
    Experiment,
    garble,
    is_complete,
    replacement_garble,
    replacement_garbling_channel,
    replacement_garbling_channel_inverse,
    uniform_garble,
)
from elicitkit.orders import (
    EventWeightMatrix,
    blackwell_dominates,
    bounded_dominates,
    elicitation_dominates,
    event_masses,
    event_subsets,
    nonneg_dominates,
    order_consistency_audit,
    uniform_garbling_decomposition,
    verify_event_weights,
    verify_factorization,
)

CLEAN = bernoulli_experiment()
NOISY = noisy_bernoulli_experiment()
MIXING = Matrix.from_rows([[F(19, 20), F(1, 20)], [F(1, 20), F(19, 20)]])
UNMIXING = Matrix.from_rows([[F(19, 18), F(-1, 18)], [F(-1, 18), F(19, 18)]])


class TestElicitationOrder:
    def test_clean_dominates_noisy(self):
        result = elicitation_dominates(CLEAN, NOISY)
        assert result.holds and result.witness == MIXING

    def test_noisy_dominates_clean_with_signed_witness(self):
        result = elicitation_dominates(NOISY, CLEAN)
        assert result.holds and result.witness == UNMIXING
        assert all(sum(result.witness.row(y), F(0)) == 1 for y in range(2))

    def test_coin_flip_garbling_dominates_nothing(self):
        flip = garble(
            CLEAN, Matrix.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
        )
        result = elicitation_dominates(flip, CLEAN)
        assert not result.holds and result.witness is None

    def test_rank_deficient_witness_has_unit_row_sums(self):
        # parameters a and b share a kernel row, so K_Y lacks full column
        # rank and the solve leaves a nonzero row deficit to spread
        ey = Experiment(
            ("a", "b", "c"),
            ("0", "1", "2"),
            Matrix.from_rows([["1/2", "1/2", 0], ["1/2", "1/2", 0], [0, 0, 1]]),
        )
        ez = garble(ey, Matrix.from_rows([[1, 0], [0, 1], [0, 1]]))
        witness = elicitation_dominates(ey, ez).witness
        assert all(sum(witness.row(y), F(0)) == 1 for y in range(3))
        assert verify_factorization(ey, ez, witness)
        transition = uniform_garbling_decomposition(ey, ez).transition
        assert all(x >= 0 for x in transition.entries)
        assert all(sum(transition.row(y), F(0)) == 1 for y in range(3))

    def test_parameter_mismatch_rejected(self):
        with pytest.raises(ValueError, match="parameter"):
            elicitation_dominates(CLEAN, bernoulli_experiment([F(0), F(1)]))


class TestBlackwellOrder:
    def test_clean_over_noisy(self):
        result = blackwell_dominates(CLEAN, NOISY)
        assert result.holds and result.witness == MIXING

    def test_noisy_not_over_clean(self):
        assert not blackwell_dominates(NOISY, CLEAN).holds

    def test_separation_pair_fails(self):
        ey, ez = limited_liability_separation_pair()
        assert not blackwell_dominates(ey, ez).holds


class TestNonnegOrder:
    def test_separation_pair_witness_is_the_zero_one_matrix(self):
        ey, ez = limited_liability_separation_pair()
        result = nonneg_dominates(ey, ez)
        assert result.holds
        assert result.witness == Matrix.from_rows(
            [[1, 1, 0], [1, 0, 1], [0, 1, 1], [0, 0, 0]]
        )
        assert verify_factorization(ey, ez, result.witness)

    def test_noisy_cannot_pay_clean_nonnegatively(self):
        # the factorization is unique and has a negative entry
        assert not nonneg_dominates(NOISY, CLEAN).holds

    def test_reflexive(self):
        result = nonneg_dominates(CLEAN, CLEAN)
        assert result.holds
        assert verify_factorization(CLEAN, CLEAN, result.witness)


class TestBoundedOrder:
    def test_separation_pair_holds(self):
        ey, ez = limited_liability_separation_pair()
        result = bounded_dominates(ey, ez)
        assert result.holds
        assert verify_event_weights(ey, ez, result.event_weights)

    def test_empty_event_column_is_zero_on_full_support(self):
        result = bounded_dominates(CLEAN, NOISY)
        assert result.holds
        empty_col = result.event_weights.entries.col(0)
        assert all(v == 0 for v in empty_col)

    def test_full_event_column_averages_to_one(self):
        ey, ez = limited_liability_separation_pair()
        n = bounded_dominates(ey, ez).event_weights
        full_mask = (1 << len(ez.outcomes)) - 1
        col = n.entries.col(full_mask)
        for t in range(len(ey.parameters)):
            row = ey.kernel.row(t)
            assert sum((a * b for a, b in zip(row, col)), F(0)) == 1
        # the all-ones column is itself feasible for that event
        ones = tuple(F(1) for _ in ey.outcomes)
        for t in range(len(ey.parameters)):
            assert sum(
                (a * b for a, b in zip(ey.kernel.row(t), ones)), F(0)
            ) == 1

    def test_outcome_cap(self):
        ey, ez = limited_liability_separation_pair()
        with pytest.raises(ValueError, match="cap"):
            bounded_dominates(ey, ez, max_outcomes=2)

    def test_subset_order_is_bitmask(self):
        assert event_subsets(("a", "b")) == ((), ("a",), ("b",), ("a", "b"))

    def test_event_masses_match_hand_sums(self):
        # reference: each event's mass summed outcome by outcome
        rng = random.Random(9)
        for _ in range(60):
            e = random_experiment(rng, rng.randint(1, 4), rng.randint(1, 5))
            nz = len(e.outcomes)
            reference = Matrix.from_cols(
                [
                    [
                        sum(
                            (e.kernel.at(t, z) for z in range(nz) if mask >> z & 1),
                            F(0),
                        )
                        for t in range(len(e.parameters))
                    ]
                    for mask in range(1 << nz)
                ]
            )
            assert event_masses(e) == reference

    def test_moved_event_weight_breaks_the_identity(self):
        witness = bounded_dominates(CLEAN, NOISY).event_weights
        assert verify_event_weights(CLEAN, NOISY, witness)
        entries = witness.entries.entries
        for k, x in enumerate(entries):
            other = F(1, 2) if x != F(1, 2) else F(0)
            moved = entries[:k] + (other,) + entries[k + 1 :]
            broken = EventWeightMatrix(
                CLEAN.outcomes,
                NOISY.outcomes,
                Matrix(witness.entries.rows, witness.entries.cols, moved),
            )
            assert not verify_event_weights(CLEAN, NOISY, broken)

    def test_markov_witness_induces_event_weights(self):
        # summing a Markov witness's row mass over each event yields a valid
        # event-weight matrix, so Blackwell dominance implies the bounded order
        m = blackwell_dominates(CLEAN, NOISY).witness
        cols = []
        for mask in range(1 << 2):
            cols.append(
                tuple(
                    sum((m.at(y, z) for z in range(2) if mask >> z & 1), F(0))
                    for y in range(2)
                )
            )
        induced = EventWeightMatrix(
            CLEAN.outcomes, NOISY.outcomes, Matrix.from_cols(cols)
        )
        assert verify_event_weights(CLEAN, NOISY, induced)


class TestGarblingDecomposition:
    def test_markov_witness_needs_no_noise(self):
        decomposition = uniform_garbling_decomposition(CLEAN, NOISY)
        assert decomposition.noise == 0
        assert decomposition.transition == MIXING

    def test_noisy_over_clean_decomposes_at_one_tenth(self):
        decomposition = uniform_garbling_decomposition(NOISY, CLEAN)
        assert decomposition.noise == F(1, 10)
        assert decomposition.transition == Matrix.identity(2)
        assert uniform_garble(CLEAN, F(1, 10)).kernel == NOISY.kernel

    def test_minimal_noise_matches_entry_threshold(self):
        # the most negative witness entry pins the noise level exactly
        decomposition = uniform_garbling_decomposition(NOISY, CLEAN)
        worst = min(UNMIXING.entries)
        share = F(1, 2)
        assert decomposition.noise == -worst / (share - worst)

    def test_synthetic_negative_entry_threshold(self):
        # a replacement garbling has a closed-form inverse witness, so the
        # minimal noise level can be predicted entry by entry
        replacement = [F(1, 4), F(3, 4)]
        noise = F(1, 3)
        garbled = replacement_garble(CLEAN, noise, replacement)
        decomposition = uniform_garbling_decomposition(garbled, CLEAN)
        inverse = replacement_garbling_channel_inverse(replacement, noise)
        worst = min(inverse.entries)
        share = F(1, 2)
        assert worst < 0
        assert decomposition.noise == -worst / (share - worst) == F(3, 7)
        # the mixed channel is Markov and still carries the kernel over
        assert all(v >= 0 for v in decomposition.transition.entries)
        assert garbled.kernel @ decomposition.transition == uniform_garble(
            CLEAN, decomposition.noise
        ).kernel

    def test_no_dominance_no_decomposition(self):
        flip = garble(
            CLEAN, Matrix.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
        )
        decomposition = uniform_garbling_decomposition(flip, CLEAN)
        assert decomposition.holds is False
        assert decomposition.noise is None and decomposition.transition is None
        assert decomposition.note == (
            "no elicitation dominance, so no garbling decomposition"
        )

    def test_doc_of_both_answers(self):
        assert uniform_garbling_decomposition(NOISY, CLEAN).to_doc() == {
            "relation": "garbling",
            "holds": True,
            "noise": "1/10",
            "transition": [["1", "0"], ["0", "1"]],
        }
        flip = garble(
            CLEAN, Matrix.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
        )
        assert uniform_garbling_decomposition(flip, CLEAN).to_doc() == {
            "relation": "garbling",
            "holds": False,
            "note": "no elicitation dominance, so no garbling decomposition",
        }

    def test_matches_entrywise_mixing_formula(self):
        # reference: the least noise making the witness nonnegative, and the
        # witness mixed with uniform noise entry by entry
        checked = noisy = 0
        for seed in range(10):
            for ey, ez in random_experiment_pairs(seed, 12):
                for a, b in ((ey, ez), (ez, ey)):
                    dominance = elicitation_dominates(a, b)
                    if not dominance.holds:
                        continue
                    m = dominance.witness
                    share = F(1, len(b.outcomes))
                    noise = max(
                        [-x / (share - x) for x in m.entries if x < 0], default=F(0)
                    )
                    transition = Matrix(
                        m.rows,
                        m.cols,
                        tuple((1 - noise) * x + noise * share for x in m.entries),
                    )
                    decomposition = uniform_garbling_decomposition(a, b)
                    assert decomposition.holds
                    assert decomposition.noise == noise
                    assert decomposition.transition == transition
                    checked += 1
                    noisy += noise > 0
        assert checked > 100 and noisy > 50

    def test_round_trip_through_blackwell(self):
        # noisy data Blackwell-dominates the matching uniform garbling
        decomposition = uniform_garbling_decomposition(NOISY, CLEAN)
        garbled = uniform_garble(CLEAN, decomposition.noise)
        result = blackwell_dominates(NOISY, garbled)
        assert result.holds
        assert verify_factorization(NOISY, garbled, decomposition.transition)


def reference_elicitation(ey, ez):
    """Reference: the solve, each row's deficit spread over its entries in
    ``Fraction`` arithmetic, and the raw solve's row sums."""
    nz = len(ez.outcomes)
    cols = solve_linear(ey.kernel, [ez.kernel.col(z) for z in range(nz)])
    if None in cols:
        note = f"outcome {ez.outcomes[cols.index(None)]!r} is outside the reachable span"
        return orders.DominanceResult("elicitation", False, note=note), ()
    raw = Matrix.from_cols(cols)
    sums = [sum(raw.row(y), F(0)) for y in range(raw.rows)]
    rows = [[x + (1 - total) / nz for x in raw.row(y)] for y, total in enumerate(sums)]
    return orders.DominanceResult("elicitation", True, Matrix.from_rows(rows)), sums


def reference_garbling(ey, ez):
    """Reference: the least noise making the witness nonnegative, entry by
    entry, and the witness times the uniform-noise channel."""
    dominance, _ = reference_elicitation(ey, ez)
    if not dominance.holds:
        note = "no elicitation dominance, so no garbling decomposition"
        return orders.GarblingDecomposition(False, note=note)
    m, share = dominance.witness, F(1, len(ez.outcomes))
    noise = max((-x / (share - x) for x in m.entries if x < 0), default=F(0))
    channel = replacement_garbling_channel((share,) * len(ez.outcomes), noise)
    return orders.GarblingDecomposition(True, noise, m @ channel)


def parity_pairs(seed, count):
    """Random pairs on shared parameters: independent kernels (mostly "no"),
    a kernel and a garbling of it to another outcome count (always "yes",
    rank-deficient when it has more outcomes than parameters), and a kernel
    and a replacement garbling of it (negative witness entries back)."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 4)
        params = tuple(f"t{i}" for i in range(n))
        ey = random_experiment(rng, n, rng.randint(1, 5), 6, params)
        ny, kind = len(ey.outcomes), rng.randrange(3)
        if kind == 0:
            ez = random_experiment(rng, n, rng.randint(1, 5), 6, params)
        elif kind == 1:
            ez = garble(ey, random_experiment(rng, ny, rng.randint(1, 5)).kernel)
        else:
            replacement = random_experiment(rng, 1, ny).kernel.row(0)
            ez = replacement_garble(ey, F(rng.randrange(1, 6), 6), replacement)
        yield ey, ez


class TestIntegerWitness:
    def test_matches_the_fraction_reference(self):
        seen = dict.fromkeys(("no", "deficit", "unequal", "noisy", "clean"), 0)
        for pair in parity_pairs(34, 2000):
            for ey, ez in (pair, pair[::-1]):
                expected, sums = reference_elicitation(ey, ez)
                dominance = elicitation_dominates(ey, ez)
                garbling = uniform_garbling_decomposition(ey, ez)
                assert dominance.to_doc() == expected.to_doc()
                assert garbling.to_doc() == reference_garbling(ey, ez).to_doc()
                if dominance.holds:
                    assert dominance.witness == expected.witness
                    assert all(type(x) is F for x in dominance.witness.entries)
                    assert type(garbling.noise) is F
                    assert all(type(x) is F for x in garbling.transition.entries)
                seen["no"] += not dominance.holds
                seen["deficit"] += any(total != 1 for total in sums)
                seen["unequal"] += dominance.holds and len(ey.outcomes) != len(ez.outcomes)
                seen["noisy"] += dominance.holds and garbling.noise > 0
                seen["clean"] += dominance.holds and garbling.noise == 0
        assert min(seen.values()) > 500, seen

    @staticmethod
    def _bend_solve(monkeypatch, shift):
        """Make ``orders``' solve add ``shift[z]`` to the first entry of column z."""
        solve = orders.solve_linear

        def bent(a, rhs):
            return [(col[0] + d, *col[1:]) for col, d in zip(solve(a, rhs), shift)]

        monkeypatch.setattr(orders, "solve_linear", bent)

    def test_the_renormalization_check_is_live(self, monkeypatch):
        # moving one entry breaks its row sum and the factorization, so
        # kernel_Y no longer annihilates the deficits
        self._bend_solve(monkeypatch, (1, 0))
        for query in (elicitation_dominates, uniform_garbling_decomposition):
            with pytest.raises(RuntimeError, match="row renormalization broke"):
                query(NOISY, CLEAN)

    def test_the_garbling_certificate_is_live(self, monkeypatch):
        # moving weight between two entries of one row keeps every row sum,
        # so only the certificate sees that the witness no longer factorizes
        self._bend_solve(monkeypatch, (1, -1))
        dominance = elicitation_dominates(NOISY, CLEAN)
        assert dominance.holds and not verify_factorization(NOISY, CLEAN, dominance.witness)
        with pytest.raises(RuntimeError, match="failed its own certificate"):
            uniform_garbling_decomposition(NOISY, CLEAN)


class TestReplacementGarblingVariant:
    def test_garbling_keeps_elicitation_both_ways(self):
        replacement = [F(1, 4), F(3, 4)]
        noisy = replacement_garble(CLEAN, F(1, 3), replacement)
        assert elicitation_dominates(CLEAN, noisy).holds
        back = elicitation_dominates(noisy, CLEAN)
        assert back.holds
        # closed-form inverse channel is itself a valid witness
        inverse = replacement_garbling_channel_inverse(replacement, F(1, 3))
        assert verify_factorization(noisy, CLEAN, inverse)

    def test_channel_inverse_closed_form(self):
        replacement = [F(1, 6), F(1, 3), F(1, 2)]
        channel = replacement_garbling_channel(replacement, F(2, 5))
        inverse = replacement_garbling_channel_inverse(replacement, F(2, 5))
        assert channel @ inverse == Matrix.identity(3)


class TestTransitivity:
    def test_witnesses_compose(self):
        rng = random.Random(11)
        found = 0
        for _ in range(120):
            params = tuple(f"t{i}" for i in range(3))
            e1 = random_experiment(rng, 3, rng.randint(2, 4), 4, params)
            e2 = random_experiment(rng, 3, rng.randint(2, 4), 4, params)
            e3 = random_experiment(rng, 3, rng.randint(2, 4), 4, params)
            for relation in (elicitation_dominates, blackwell_dominates, nonneg_dominates):
                first = relation(e1, e2)
                second = relation(e2, e3)
                if first.holds and second.holds:
                    composed = first.witness @ second.witness
                    assert verify_factorization(e1, e3, composed)
                    if relation is nonneg_dominates:
                        assert all(v >= 0 for v in composed.entries)
                    if relation is blackwell_dominates:
                        assert all(v >= 0 for v in composed.entries)
                        assert all(
                            sum(composed.row(y), F(0)) == 1
                            for y in range(composed.rows)
                        )
                    found += 1
        assert found > 5  # the corpus really exercised compositions


class TestAudit:
    def test_reflexive_singleton_corpus(self):
        report = order_consistency_audit([(CLEAN, CLEAN)])
        assert report.violations == ()
        entry = report.results[0]
        assert entry.elicitation and entry.blackwell and entry.nonneg and entry.bounded

    def test_paper_fixtures_and_random_corpus(self):
        pairs = [
            (CLEAN, NOISY),
            (NOISY, CLEAN),
            limited_liability_separation_pair(),
        ]
        pairs += random_experiment_pairs(seed=5, count=25, max_outcomes=3)
        report = order_consistency_audit(pairs)
        assert report.violations == ()
        assert report.found_elicitation_without_nonneg
        assert report.found_nonneg_without_blackwell

    def test_a_factorizing_witness_that_is_not_markov_is_a_violation(self, monkeypatch):
        # K_Y @ M == K_Z, but M's rows sum to 2 and 0: the audit's check of
        # each witness row is the probability-vector rule itself
        ey = Experiment(("t",), ("a", "b"), Matrix.from_rows([["1/2", "1/2"]]))
        ez = Experiment(("t",), ("z",), Matrix.identity(1))
        witness = Matrix.from_rows([[2], [0]])
        assert verify_factorization(ey, ez, witness)
        monkeypatch.setattr(
            orders, "blackwell_dominates",
            lambda ey, ez: orders.DominanceResult("blackwell", True, witness=witness),
        )
        report = order_consistency_audit([(ey, ez)])
        assert report.violations == ("pair 0: blackwell witness not Markov",)

    @pytest.mark.parametrize(
        "pair, relation, witness, expected",
        [
            ("complete", "elicitation", "identity", ["elicitation witness fails"]),
            ("complete", "blackwell", "identity", ["blackwell witness fails"]),
            ("complete", "nonneg", "identity", ["nonneg witness fails"]),
            ("signed", "nonneg", "unmixing", ["nonneg witness has a negative entry"]),
            ("complete", "bounded", "zeros", ["bounded witness fails"]),
            ("noisy", "nonneg", None, ["blackwell without nonneg"]),
            ("complete", "elicitation", None,
             ["nonneg without elicitation", "bounded without elicitation"]),
            ("noisy", "bounded", None, ["blackwell without bounded"]),
            ("complete", "blackwell", None,
             ["complete dominating experiment but nonneg and blackwell disagree"]),
        ],
    )
    def test_each_contradicting_answer_is_a_violation(
        self, monkeypatch, pair, relation, witness, expected
    ):
        # one relation is patched to a corrupt witness (or to "no"), the rest run
        ey, ez = {
            "complete": (CLEAN, NOISY),  # every relation holds, and CLEAN is complete
            "signed": (NOISY, CLEAN),  # only elicitation holds, by UNMIXING
            "noisy": (NOISY, garble(NOISY, MIXING)),  # every relation holds
        }[pair]
        assert order_consistency_audit([(ey, ez)]).violations == ()
        zeros = EventWeightMatrix(ey.outcomes, ez.outcomes, Matrix(2, 4, (0,) * 8))
        kept = {
            None: {"note": "patched"},
            "identity": {"witness": Matrix.identity(2)},
            "unmixing": {"witness": UNMIXING},
            "zeros": {"event_weights": zeros},
        }[witness]
        answer = orders.DominanceResult(relation, witness is not None, **kept)
        monkeypatch.setattr(orders, f"{relation}_dominates", lambda *_: answer)
        report = order_consistency_audit([(ey, ez)])
        assert report.violations == tuple(f"pair 0: {v}" for v in expected)

    def test_more_outcomes_than_the_bounded_cap_skip_the_bounded_order(self):
        # an uninformative experiment dominates every other uninformative one
        ey = Experiment(("a", "b"), ("*",), Matrix(2, 1, (1, 1)))
        n = orders.MAX_BOUNDED_OUTCOMES + 1  # 13 dominated outcomes
        labels = tuple(f"z{j}" for j in range(n))
        ez = Experiment(("a", "b"), labels, Matrix(2, n, (F(1, n),) * 2 * n))
        report = order_consistency_audit([(ey, ez)])
        assert report.violations == ()
        assert report.results == (orders.PairAudit(True, True, True, None),)

    def test_complete_dominating_side_collapses_nonneg_to_blackwell(self):
        # audited internally; checked directly here on a complete experiment
        assert is_complete(CLEAN)
        rng = random.Random(9)
        for _ in range(12):
            ez = random_experiment(
                rng, 3, rng.randint(1, 4), 5, parameters=CLEAN.parameters
            )
            assert (
                nonneg_dominates(CLEAN, ez).holds
                == blackwell_dominates(CLEAN, ez).holds
            )
