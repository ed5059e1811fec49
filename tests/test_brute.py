import itertools
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from spincorr import brute
from spincorr.brute import (
    ENUM_N_MAX,
    base8_count_layers,
    conserved_quantum_numbers,
    enumerate_base8_counts,
    map_conservation_report,
    phi_by_enumeration,
    random_bits,
)
from spincorr.errors import ConstraintError
from spincorr.quantum_numbers import SYMBOLS8, counts8_from_qn8, phi, qn8_from_counts
from spincorr.selftest import check_phi_equivalence
from spincorr.sequences import PAIR_OF_ALIAS, CorrSeq, apply_map, count_symbols


def corr4(text):
    return CorrSeq(2, tuple(PAIR_OF_ALIAS[alias] for alias in text))


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

    @pytest.mark.parametrize("n", range(1, ENUM_N_MAX + 1))
    def test_covers_every_sequence(self, n):
        # C(n + 7, 7) count vectors: 50,388 at the bound, n = 12
        bins = enumerate_base8_counts(n)
        assert len(bins) == comb(n + 7, 7)
        assert sum(bins.values()) == 8**n

    def test_grown_layers_equal_enumeration(self):
        """One pass yields every length's bins, each equal to its own
        enumeration, key order included."""
        layers = list(base8_count_layers(6))
        assert len(layers) == 7
        for i, bins in enumerate(layers):
            reference = enumerate_base8_counts(i)
            assert bins == reference
            assert list(bins) == list(reference)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_layers_budget_counts_last_layer_first(self, n, monkeypatch):
        monkeypatch.setattr(brute, "ENUM_N_MAX", n - 1)
        layers = base8_count_layers(n)
        # the first next() raises, so no layer, not even n = 0, was yielded
        with pytest.raises(ConstraintError):
            next(layers)
        monkeypatch.setattr(brute, "ENUM_N_MAX", n)
        assert [sum(bins.values()) for bins in base8_count_layers(n)] == [
            8**i for i in range(n + 1)
        ]

    def test_bound_refuses_n13(self):
        # n = 12 is the bound; test_covers_every_sequence runs it
        assert ENUM_N_MAX == 12
        with pytest.raises(ConstraintError, match="n = 13 exceeds the bound 12"):
            enumerate_base8_counts(13)

    def test_no_factorial_enters_the_oracle(self):
        banned = ("math", "factorial", "comb", "multinomial")
        assert not [name for name in vars(brute) if any(b in name.lower() for b in banned)]


class TestPhiByEnumeration:
    # each set is (n, tj10, tj02, tm10, tm02, tj12, tl12, k), doubled but for n and k
    def test_worked_centered_case(self):
        q = (6, 2, 2, 0, 0, 2, -2, 0)
        assert phi_by_enumeration(q) == 360

    def test_invalid_quantum_numbers(self):
        q = (4, 2, 2, 2, -2, 2, 2, 3)
        assert phi_by_enumeration(q) == 0

    def test_single_symbol(self):
        q = (1, 0, 0, 0, 0, 0, 1, 0)
        assert phi_by_enumeration(q) == 1

    def test_budget(self):
        q = (13, 0, 0, 0, 0, 0, 13, 0)
        assert phi(q) == 1
        with pytest.raises(ConstraintError):
            phi_by_enumeration(q)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_full_grid_equivalence(self, n):
        bins = enumerate_base8_counts(n)
        assert sum(bins.values()) == 8**n
        for key, observed in bins.items():
            assert phi(qn8_from_counts(key)) == observed

    def test_selftest_check_passes_at_n8(self):
        # the selftest runs this check to n = 6 only
        assert check_phi_equivalence(8) == []

    def test_key_reads_as_the_counts_by_symbol(self):
        """qn8_from_counts reads each of the 3,003 keys up to n = 6 as a
        plain 8-tuple, the empty key (n = 0) included, and every other key
        is the count tuple count_symbols gives for a sequence holding that
        many of each symbol."""
        keys = [key for bins in base8_count_layers(6) for key in bins]
        assert len(keys) == 3003
        for key in keys:
            assert type(qn8_from_counts(key)) is tuple
            if any(key):  # a CorrSeq is never empty
                symbols = [sym for sym, t in zip(SYMBOLS8, key) for _ in range(t)]
                assert count_symbols(CorrSeq(3, tuple(symbols))) == key

    @pytest.mark.parametrize("size", [7, 9])
    def test_key_of_other_than_eight_counts_rejected(self, size):
        with pytest.raises(ValueError):
            qn8_from_counts((1,) * size)
        # so is a set of other than eight quantum numbers
        with pytest.raises(ValueError):
            phi((0,) * size)
        with pytest.raises(ValueError):
            phi_by_enumeration((0,) * size)

    def test_empty_sequence(self):
        # n = 0: the one empty sequence, layer 0 of base8_count_layers
        empty = (0,) * 8
        assert qn8_from_counts(empty) == empty
        assert phi(empty) == phi_by_enumeration(empty) == 1

    @pytest.mark.parametrize(
        "q", [(-1, 0, 0, 0, 0, 0, -1, 0), (-2, 0, 0, 0, 0, 0, 0, 0), (-4, 2, 2, 0, 0, 2, 0, 0)]
    )
    def test_negative_n_counts_no_sequence(self, q):
        # the eight counts sum to n, so at least one is negative
        assert counts8_from_qn8(q) is None
        assert phi(q) == phi_by_enumeration(q) == 0


SRC = str(Path(brute.__file__).resolve().parents[1])

# the report at n = 8 with every second measurement, the mapped sequence's,
# reading j, m and l two units high: each permutation map then seems to
# conserve g only
MISREAD_SCRIPT = """
import itertools
from spincorr import brute, quantum_numbers

calls = itertools.count()

def misread(measure):
    def measured(*args):
        tj, tm, tg, tl = measure(*args)
        shift = 2 * (next(calls) % 2)
        return tj + shift, tm + shift, tg, tl + shift
    return measured

brute.qn4_of_packed = misread(quantum_numbers.qn4_of_packed)
brute.qn4_of_corrseq = misread(quantum_numbers.qn4_of_corrseq)
print("\\n".join(brute.map_conservation_report(8, 3, 0)["mismatches"]))
"""


class TestMapConservation:
    def test_identity_map_conserves_all(self):
        x = corr4("CADBAC")
        identity = corr4("AAAAAA")
        assert conserved_quantum_numbers(x, identity) == frozenset("jmgl")

    def test_appendix_example_conserves_j_and_g_only(self):
        initial = corr4("AACBBA")
        mapping = corr4("BACAAD")
        assert conserved_quantum_numbers(initial, mapping) == frozenset("jg")

    def test_row_swap_permutation_conserves_all(self):
        initial = corr4("CADB")
        swapped = CorrSeq(2, (initial.symbols[1], initial.symbols[0],
                              initial.symbols[3], initial.symbols[2]))
        mapping = apply_map(initial, swapped)
        assert conserved_quantum_numbers(initial, mapping) == frozenset("jmgl")

    def test_sampled_report_clean(self):
        report = map_conservation_report(n=16, trials=300, seed=42)
        assert report["ok"]
        assert report["mismatches"] == []
        assert report["seed"] == 42
        assert sum(report["conserved_tally"].values()) == 300

    @pytest.mark.parametrize("n", [0, -1])
    def test_length_below_one_rejected(self, monkeypatch, n):
        # rejected before the generator is made, so nothing is drawn
        monkeypatch.setattr(brute.random, "Random", None)
        with pytest.raises(ValueError, match=rf"n must be >= 1, got {n}$"):
            map_conservation_report(n, 5, 0)

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

    @pytest.mark.parametrize("seed, lines", [(2024, 1), (3, 0)])
    def test_all_conserving_map_must_permute(self, monkeypatch, seed, lines):
        """A map that conserves all of j, m, g, l is checked to rearrange the
        symbols.  With apply_map giving the all-A sequence instead, the one
        all-conserving map of seed 2024's pinned tally is reported; seed 3
        draws none, so nothing is."""
        apply = brute.apply_map
        monkeypatch.setattr(brute, "apply_map", lambda initial, mapping: apply(mapping, mapping))
        report = map_conservation_report(32, 200, seed)
        assert sum(line.startswith("all-conserving map is not a permutation: ")
                   for line in report["mismatches"]) == lines

    def test_first_trials_compare_the_correlate_route(self, monkeypatch):
        """The first trial of each direction is measured through
        conserved_quantum_numbers too; with the mapped sequence's l read two
        units high there, both report a disagreement with the packed route.
        At seed 10 the first random map conserves l."""
        calls = itertools.count()
        measure = brute.qn4_of_corrseq

        def misread(c):
            tj, tm, tg, tl = measure(c)
            # every second call measures the mapped sequence
            return tj, tm, tg, tl + 2 * (next(calls) % 2)

        monkeypatch.setattr(brute, "qn4_of_corrseq", misread)
        report = map_conservation_report(8, 5, 10)
        assert report["mismatches"] == [
            "packed and correlated measurements differ for ACBDACBC mapped by CDBCBCBB",
            "packed and correlated measurements differ for ABDACCBB mapped by DBBADAAA",
        ]
        assert report["conserved_tally"] == {"l": 3, "-": 2}

    def test_failure_lines_do_not_follow_the_hash_seed(self):
        """A failing report prints the same lines under every hash seed: the
        names a permutation map fails to conserve are sorted."""
        outputs = set()
        for hash_seed in "012":
            done = subprocess.run(
                [sys.executable, "-c", MISREAD_SCRIPT], capture_output=True, text=True,
                timeout=60, env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": hash_seed},
            )
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert outputs == {"permutation map fails to conserve jlm\n" * 3}


class TestRandomBits:
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 64, 5000, 192_000])
    def test_same_bits_and_state_as_randrange(self, count):
        # 192,000 bits is the triple check's draw at n = 64 (3 * 64 * 1000);
        # three seeds keep it fast
        for seed in range(3 if count > 5000 else 50):
            rng, reference = random.Random(seed), random.Random(seed)
            bits = random_bits(rng, count)
            assert bits == bytes(reference.randrange(2) for _ in range(count))
            assert rng.getstate() == reference.getstate()
