import itertools

import pytest

from spincorr import brute
from spincorr.brute import (
    conserved_quantum_numbers,
    counts_key_to_qn8,
    enumerate_base8_counts,
    map_conservation_report,
    phi_by_enumeration,
    witness_triples,
)
from spincorr.errors import BudgetExceededError
from spincorr.pathcount import phi
from spincorr.quantum_numbers import QN8
from spincorr.sequences import CorrSeq, parse


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
    def test_budget_counts_sequences_covered(self, n):
        with pytest.raises(BudgetExceededError):
            enumerate_base8_counts(n, budget=8**n - 1)
        assert sum(enumerate_base8_counts(n, budget=8**n).values()) == 8**n

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
        q = QN8(n=10, tj10=0, tj02=0, tm10=0, tm02=0, tj12=0, tl12=10, k=0)
        with pytest.raises(BudgetExceededError):
            phi_by_enumeration(q, budget=1000)

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
        with pytest.raises(BudgetExceededError):
            list(witness_triples(4, budget=100))


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
