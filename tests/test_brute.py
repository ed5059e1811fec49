import itertools
import random

import pytest

from spincorr import brute, sequences
from spincorr.brute import (
    conserved_quantum_numbers,
    counts_key_to_qn8,
    enumerate_base8_counts,
    map_conservation_report,
    phi_by_enumeration,
    random_bits,
    witness_triples,
)
from spincorr.errors import BudgetExceededError
from spincorr.quantum_numbers import QN8, phi
from spincorr.sequences import ENUM_CAP, CorrSeq, parse


def literal_base8_counts(n):
    """Reference binning: step through all 8^n sequences one by one."""
    bins = {}
    for seq in itertools.product(range(8), repeat=n):
        counts = [0] * 8
        for s in seq:
            counts[s] += 1
        key = tuple(counts)
        bins[key] = bins.get(key, 0) + 1
    return bins


class TestEnumerateBase8Counts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_literal_enumeration(self, n):
        bins = enumerate_base8_counts(n)
        reference = literal_base8_counts(n)
        assert bins == reference
        # Same key order too, so a failing selftest lists the same mismatches.
        assert list(bins) == list(reference)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_covers_every_sequence(self, n):
        assert sum(enumerate_base8_counts(n).values()) == 8**n

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_budget_counts_sequences_covered(self, n, monkeypatch):
        monkeypatch.setattr(sequences, "ENUM_CAP", 8**n - 1)
        with pytest.raises(BudgetExceededError):
            enumerate_base8_counts(n)
        monkeypatch.setattr(sequences, "ENUM_CAP", 8**n)
        assert sum(enumerate_base8_counts(n).values()) == 8**n

    def test_cap_refuses_n9(self):
        # n = 8 covers exactly ENUM_CAP sequences; test_covers_every_sequence runs it
        assert ENUM_CAP == 8**8 == 2**24
        with pytest.raises(BudgetExceededError, match=str(ENUM_CAP)):
            enumerate_base8_counts(9)

    def test_no_factorial_enters_the_oracle(self):
        banned = ("math", "factorial", "comb", "multinomial")
        assert not [name for name in vars(brute) if any(b in name.lower() for b in banned)]


class TestPhiByEnumeration:
    def test_worked_centered_case(self):
        q = QN8(n=6, tj10=2, tj02=2, tm10=0, tm02=0, tj12=2, tl12=-2, k=0)
        assert phi_by_enumeration(q) == 360

    def test_invalid_quantum_numbers(self):
        q = QN8(n=4, tj10=2, tj02=2, tm10=2, tm02=-2, tj12=2, tl12=2, k=3)
        assert phi_by_enumeration(q) == 0

    def test_single_symbol(self):
        q = QN8(n=1, tj10=0, tj02=0, tm10=0, tm02=0, tj12=0, tl12=1, k=0)
        assert phi_by_enumeration(q) == 1

    def test_budget(self):
        q = QN8(n=9, tj10=0, tj02=0, tm10=0, tm02=0, tj12=0, tl12=9, k=0)
        assert phi(q) == 1
        with pytest.raises(BudgetExceededError):
            phi_by_enumeration(q)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_full_grid_equivalence(self, n):
        bins = enumerate_base8_counts(n)
        assert sum(bins.values()) == 8**n
        for key, observed in bins.items():
            assert phi(counts_key_to_qn8(key)) == observed


class TestWitnessTriples:
    def test_overlap_example(self):
        observed = set()
        for s1, s0, s2 in witness_triples(4, tj10=2, tj02=1):
            from spincorr.quantum_numbers import qn4_of_corrseq
            from spincorr.sequences import correlate

            observed.add(qn4_of_corrseq(correlate([s1, s2])).tj)
        assert {1, 3} <= observed

    def test_triangle_violating_constraints_empty(self):
        assert list(witness_triples(3, tj10=1, tj02=1, tj12=6)) == []

    def test_zero_j02_forces_identical_sequences(self):
        triples = list(witness_triples(3, tj02=0))
        assert triples
        for _, s0, s2 in triples:
            assert s0 == s2

    def test_unknown_constraint(self):
        with pytest.raises(ValueError):
            list(witness_triples(2, tj99=0))

    def test_budget(self):
        # 2^27 triples at n = 9; the cap refuses before the first one
        with pytest.raises(BudgetExceededError):
            next(witness_triples(9))


class TestMapConservation:
    def test_identity_map_conserves_all(self):
        x = parse("CADBAC")
        identity = parse("AAAAAA")
        assert conserved_quantum_numbers(x, identity) == frozenset("jmgl")

    def test_appendix_example_conserves_j_and_g_only(self):
        initial = parse("AACBBA")
        mapping = parse("BACAAD")
        assert conserved_quantum_numbers(initial, mapping) == frozenset("jg")

    def test_row_swap_permutation_conserves_all(self):
        initial = parse("CADB")
        swapped = CorrSeq(2, (initial.symbols[1], initial.symbols[0],
                              initial.symbols[3], initial.symbols[2]))
        from spincorr.sequences import apply_map

        mapping = apply_map(initial, swapped)
        assert conserved_quantum_numbers(initial, mapping) == frozenset("jmgl")

    def test_sampled_report_clean(self):
        report = map_conservation_report(n=16, trials=300, seed=42)
        assert report["ok"]
        assert report["mismatches"] == []
        assert report["seed"] == 42
        assert sum(report["conserved_tally"].values()) == 300

    @pytest.mark.parametrize("seed, tally, next_bits", [
        (3, {"gjm": 2, "gjl": 3, "-": 157, "l": 11, "m": 8, "gj": 18, "lm": 1},
         17963031465775921355),
        (41, {"-": 146, "l": 10, "m": 10, "gj": 21, "gjl": 6, "lm": 3, "gjm": 4},
         229969984369150791),
        (2024, {"gj": 22, "-": 153, "gjm": 2, "m": 12, "gjlm": 1, "l": 7, "lm": 2,
                "gjl": 1}, 11815835622383892233),
    ])
    def test_sampled_draws_pinned(self, monkeypatch, seed, tally, next_bits):
        """The tally, its key order and the next 64 bits of the report's own
        generator, recorded before the bits were drawn in bulk."""
        made = []

        class Recorded(random.Random):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(brute.random, "Random", Recorded)
        report = map_conservation_report(32, 200, seed)
        assert report["conserved_tally"] == tally
        assert list(report["conserved_tally"]) == list(tally)
        assert made[0].getrandbits(64) == next_bits


    def test_random_corrseq_draws_pinned(self):
        """Column order is invisible in the tally (swapping both columns of
        a sequence and of its map conserves the same numbers), so the
        sequences themselves are pinned, as recorded before the bulk draw."""
        rng = random.Random(5)
        drawn = [str(brute._random_corrseq(rng, 12)) for _ in range(3)]
        assert drawn == ["CCACDDADCCAB", "AADDADDACBAD", "CABABBCBBDCB"]
        assert rng.getrandbits(64) == 13055835522087669495


class TestRandomBits:
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 64, 5000])
    def test_same_bits_and_state_as_randrange(self, count):
        for seed in range(50):
            rng, reference = random.Random(seed), random.Random(seed)
            bits = random_bits(rng, count)
            assert bits == tuple(reference.randrange(2) for _ in range(count))
            assert rng.getstate() == reference.getstate()
