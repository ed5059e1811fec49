import functools
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from spincorr.brute import base8_count_layers
from spincorr.errors import InvalidQuantumNumberError
from spincorr.quantum_numbers import (
    SYMBOLS8,
    counts4_from_qn4,
    counts8_from_qn8,
    pair_counts4,
    qn4_from_counts,
    qn4_of_corrseq,
    qn4_of_packed,
    qn8_from_counts,
)
from spincorr.selection import check_projection
from spincorr.sequences import ALIAS_OF_PAIR, BitSeq, CorrSeq, alphabet, correlate, count_symbols

A, B, C, D = (0, 0), (1, 1), (1, 0), (0, 1)


def counts4(a, b, c, d):
    """The counts of A, B, C and D, in the alphabet(2) order qn4_from_counts reads."""
    return (a, d, c, b)


def qn4(tj, tm, tg, tl):
    """The four-number set, a plain tuple, named field by field."""
    return (tj, tm, tg, tl)


def qn8(n, tj10, tj02, tm10, tm02, tj12, tl12, k):
    """The eight-number set, a plain tuple, named field by field."""
    return (n, tj10, tj02, tm10, tm02, tj12, tl12, k)


def counter_counts(c):
    """count_symbols(c) by another route: a Counter read in alphabet order."""
    counter = Counter(c.symbols)
    return tuple(counter[sym] for sym in alphabet(c.order))


class TestAlphabet:
    def test_symbols_come_from_sequences(self):
        assert SYMBOLS8 == alphabet(3)
        assert [ALIAS_OF_PAIR[s] for s in alphabet(2)] == list("ADCB")


class TestCountLength:
    """A count tuple of the wrong length is rejected, not read in part."""

    @pytest.mark.parametrize("size", [3, 5, 7])
    @pytest.mark.parametrize(
        "convert",
        [qn4_from_counts, qn8_from_counts, functools.partial(pair_counts4, pair="10")],
        ids=["qn4_from_counts", "qn8_from_counts", "pair_counts4"],
    )
    def test_wrong_length_rejected(self, convert, size):
        with pytest.raises(ValueError):
            convert((1,) * size)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_count_symbols_gives_one_count_per_symbol(self, order):
        c = CorrSeq(order, alphabet(order)[1:2] * 3)
        counts = count_symbols(c)
        assert len(counts) == 2**order
        assert counts == counter_counts(c)


class TestQN4:
    """The four-number set (tj, tm, tg, tl) of base-4 counts, a plain
    4-tuple; both conversions check the projection rule."""

    def test_figure_example(self):
        assert qn4_from_counts(counts4(2, 1, 2, 1)) == qn4(tj=3, tm=1, tg=3, tl=1)

    def test_identical_sequences(self):
        assert qn4_from_counts(counts4(7, 0, 0, 0)) == qn4(tj=0, tm=0, tg=7, tl=7)

    def test_fully_anti_aligned(self):
        assert qn4_from_counts(counts4(0, 0, 4, 0)) == qn4(tj=4, tm=4, tg=0, tl=0)

    def test_is_a_plain_tuple(self):
        assert type(qn4_from_counts((1, 2, 3, 4))) is tuple

    def test_inverse(self):
        assert counts4_from_qn4(qn4(tj=3, tm=1, tg=3, tl=1)) == counts4(2, 1, 2, 1)
        assert counts4_from_qn4(qn4(tj=0, tm=0, tg=2, tl=-2)) == counts4(0, 2, 0, 0)

    def test_m_beyond_j_rejected(self):
        with pytest.raises(InvalidQuantumNumberError, match="^m must satisfy -j <= m <= j"):
            counts4_from_qn4((1, 2, 1, 1))

    def test_l_beyond_g_rejected(self):
        with pytest.raises(InvalidQuantumNumberError, match="^l must satisfy -g <= l <= g"):
            counts4_from_qn4((0, 0, 2, 3))

    def test_parity_mismatch_rejected(self):
        with pytest.raises(InvalidQuantumNumberError):
            counts4_from_qn4(qn4(tj=2, tm=1, tg=2, tl=0))

    def test_accepts_exactly_the_projection_rule(self):
        for q in itertools.product(range(-3, 4), repeat=4):
            tj, tm, tg, tl = q
            if check_projection(tj, tm) and check_projection(tg, tl):
                assert qn4_from_counts(counts4_from_qn4(q)) == q
            else:
                with pytest.raises(InvalidQuantumNumberError):
                    counts4_from_qn4(q)

    @given(
        parts=st.tuples(*(st.integers(min_value=0, max_value=20),) * 4)
    )
    def test_round_trip(self, parts):
        c = counts4(*parts)
        assert counts4_from_qn4(qn4_from_counts(c)) == c

    @pytest.mark.parametrize("negative", "ABCD")
    def test_negative_count_rejected(self, negative):
        # qn4_from_counts checks the projection rule, so a negative count raises
        c = counts4(*(-1 if alias == negative else 3 for alias in "ABCD"))
        with pytest.raises(InvalidQuantumNumberError):
            qn4_from_counts(c)

    def test_of_corrseq_matches_counter(self):
        """Every order-2 sequence with n <= 5."""
        for n in range(1, 6):
            for symbols in itertools.product((A, B, C, D), repeat=n):
                c = CorrSeq(2, symbols)
                q = qn4_of_corrseq(c)
                assert q == qn4_from_counts(counter_counts(c)), symbols
                assert type(q) is tuple

    def test_of_packed_matches_correlate(self):
        """Every pair of bit tuples with n <= 6 (5,460 pairs), packed one
        byte per bit as the selftest's triple check packs them."""
        for n in range(1, 7):
            seqs = list(itertools.product((0, 1), repeat=n))
            for a, b in itertools.product(seqs, repeat=2):
                q = qn4_of_packed(int.from_bytes(bytes(a), "big"),
                                  int.from_bytes(bytes(b), "big"), n)
                assert q == qn4_of_corrseq(correlate([BitSeq(a), BitSeq(b)])), (a, b)
                assert type(q) is tuple

    def test_of_packed_more_ones_than_bits_rejected(self):
        # three 1s in two bits leave A = -1: not a record of any pair
        with pytest.raises(InvalidQuantumNumberError):
            qn4_of_packed(0b111, 0, 2)

    @pytest.mark.parametrize("x, y", [(-2, 0), (0, -1), (-1, -1)])
    def test_of_packed_negative_int_rejected(self, x, y):
        # bit_count counts the 1s of |x|: -2 read as one 1 in four bits
        with pytest.raises(ValueError):
            qn4_of_packed(x, y, 4)


class TestQN8:
    """The eight-number set (n, tj10, tj02, tm10, tm02, tj12, tl12, k) of
    base-8 counts, a plain 8-tuple."""

    def test_of_corrseq_matches_counter(self):
        """Every order-3 sequence with n <= 3: count_symbols, which derives
        the last count, gives the eight numbers that a Counter gives."""
        for n in range(1, 4):
            for symbols in itertools.product(SYMBOLS8, repeat=n):
                c = CorrSeq(3, symbols)
                q = qn8_from_counts(count_symbols(c))
                assert q == qn8_from_counts(counter_counts(c)), symbols

    def test_non_overlapping_brackets(self):
        # one each of 011, 100, 110 and 111
        n, tj10, tj02, _, _, tj12, _, _ = qn8_from_counts((0, 0, 0, 1, 1, 0, 1, 1))
        assert (tj10, tj02, tj12, n) == (2, 1, 3, 4)

    def test_overlapping_brackets(self):
        # one 010, one 100 and two 111
        n, tj10, tj02, _, _, tj12, _, _ = qn8_from_counts((0, 0, 1, 0, 1, 0, 0, 2))
        assert (tj10, tj02, tj12, n) == (2, 1, 1, 4)

    def test_three_identical_sequences(self):
        n = 5
        assert qn8_from_counts((n,) + (0,) * 7) == qn8(
            n=n, tj10=0, tj02=0, tm10=0, tm02=0, tj12=0, tl12=n, k=0)

    def test_counts_recovery_centered(self):
        q = qn8(n=6, tj10=2, tj02=2, tm10=0, tm02=0, tj12=2, tl12=0, k=0)
        # 000, 001, 010, 011, 100, 101, 110, 111
        assert counts8_from_qn8(q) == (2, 0, 0, 1, 0, 1, 1, 1)

    def test_counts_recovery_stretched_pair(self):
        q = qn8(n=6, tj10=2, tj02=2, tm10=2, tm02=-2, tj12=2, tl12=2, k=0)
        assert counts8_from_qn8(q) == (3, 1, 0, 0, 1, 1, 0, 0)

    def test_counts8_from_qn8_inverts_qn8_from_counts(self):
        """counts8_from_qn8 gives the counts back in the SYMBOLS8 order that
        qn8_from_counts reads, for every count vector with 0 <= n <= 8
        (12,870 keys)."""
        keys = [key for bins in base8_count_layers(8) for key in bins]
        assert len(keys) == 12870
        for key in keys:
            assert counts8_from_qn8(qn8_from_counts(key)) == key

    def test_excessive_k_is_invalid(self):
        # 011-count = j10 - m10 - k goes negative
        q = qn8(n=6, tj10=2, tj02=2, tm10=2, tm02=-2, tj12=2, tl12=2, k=1)
        assert counts8_from_qn8(q) is None

    def test_invalid_exactly_when_a_doubled_count_is_negative_or_odd(self):
        """None exactly when one of the eight doubled counts is negative or
        odd, over a grid that holds both valid and invalid points."""
        seen = set()
        for tj10, tj02, tm10, tm02, tl12, k in itertools.product(
            range(0, 3), range(0, 3), range(-2, 3), range(-2, 3), range(-4, 5), range(0, 2)
        ):
            for tj12 in range(0, 4):
                q = (4, tj10, tj02, tm10, tm02, tj12, tl12, k)
                tk = 2 * k
                doubled = (
                    tk, tj10 + tj02 - tj12 - tk, tm10 - tj02 + tj12 + tk,
                    tj10 - tm10 - tk, tj02 + tm02 - tk, tj12 + tk - tm02 - tj10,
                    4 - tl12 - tj10 - tj02 + tk, 4 - tj12 + tl12 - tk,
                )
                invalid = any(tv < 0 or tv % 2 for tv in doubled)
                counts = counts8_from_qn8(q)
                assert (counts is None) == invalid, q
                if counts is not None:
                    assert sorted(2 * c for c in counts) == sorted(doubled)
                seen.add(invalid)
        assert seen == {True, False}

    def test_table_sum_is_n_identically(self):
        rng = random.Random(7)
        for _ in range(200):
            q = qn8(
                n=rng.randrange(1, 30),
                tj10=rng.randrange(-6, 7),
                tj02=rng.randrange(-6, 7),
                tm10=rng.randrange(-6, 7),
                tm02=rng.randrange(-6, 7),
                tj12=rng.randrange(-6, 7),
                tl12=rng.randrange(-6, 7),
                k=rng.randrange(0, 4),
            )
            counts = counts8_from_qn8(q)
            if counts is not None:
                assert sum(counts) == q[0]

    def test_round_trip_from_counts(self):
        rng = random.Random(3)
        for _ in range(200):
            counts = []
            remaining = rng.randrange(1, 20)
            for _ in SYMBOLS8[:-1]:
                counts.append(rng.randint(0, remaining))
                remaining -= counts[-1]
            counts = (*counts, remaining)
            assert counts8_from_qn8(qn8_from_counts(counts)) == counts


class TestPairwiseAgreement:
    """The eight numbers of a triple agree with its three pairwise
    four-number sets."""

    def test_random_triples(self):
        rng = random.Random(11)
        for n in (3, 8, 21):
            for _ in range(300):
                s1, s0, s2 = (
                    BitSeq(tuple(rng.randrange(2) for _ in range(n)))
                    for _ in range(3)
                )
                n8, tj10, tj02, tm10, tm02, tj12, tl12, _ = qn8_from_counts(
                    count_symbols(correlate([s1, s0, s2])))
                q10 = qn4_of_corrseq(correlate([s1, s0]))
                q02 = qn4_of_corrseq(correlate([s0, s2]))
                tj, tm, _, tl = qn4_of_corrseq(correlate([s1, s2]))
                assert (tj12, tl12) == (tj, tl)
                # the other pairwise numbers, by the relations the triple
                # check tests: m12 = m10 + m02, l12 = l10 + m02, l12 = l02 - m10
                assert tm10 + tm02 == tm
                assert q10 == (tj10, tm10, n8 - tj10, tl12 - tm02)
                assert q02 == (tj02, tm02, n8 - tj02, tl12 + tm10)

    def test_pair_projection_matches_direct_correlation(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randrange(1, 12)
            s1, s0, s2 = (
                BitSeq(tuple(rng.randrange(2) for _ in range(n)))
                for _ in range(3)
            )
            c8 = count_symbols(correlate([s1, s0, s2]))
            assert pair_counts4(c8, "10") == count_symbols(correlate([s1, s0]))
            assert pair_counts4(c8, "02") == count_symbols(correlate([s0, s2]))
            assert pair_counts4(c8, "12") == count_symbols(correlate([s1, s2]))


class TestJMetric:
    def test_metric_properties(self):
        rng = random.Random(13)
        n = 16
        for _ in range(500):
            a, b, c = (
                BitSeq(tuple(rng.randrange(2) for _ in range(n)))
                for _ in range(3)
            )

            def tj(x, y):
                return qn4_of_corrseq(correlate([x, y]))[0]

            assert tj(a, a) == 0
            assert tj(a, b) == tj(b, a)
            assert tj(a, c) <= tj(a, b) + tj(b, c)

    def test_j_is_half_hamming_distance(self):
        a = BitSeq((1, 1, 0, 0, 1, 0))
        b = BitSeq((0, 1, 1, 0, 1, 1))
        hamming = sum(x != y for x, y in zip(a.bits, b.bits))
        assert qn4_of_corrseq(correlate([a, b]))[0] == hamming
