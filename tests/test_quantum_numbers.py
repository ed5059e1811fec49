import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spincorr.errors import InvalidQuantumNumberError
from spincorr.quantum_numbers import (
    QN4,
    QN8,
    SYMBOLS8,
    counts4_from_qn4,
    counts8_from_qn8,
    pair_counts4,
    qn4_from_counts,
    qn4_of_corrseq,
    qn8_from_counts,
    qn8_of_corrseq,
)
from spincorr.sequences import BitSeq, CorrSeq, correlate

A, B, C, D = (0, 0), (1, 1), (1, 0), (0, 1)


def counts4(a, b, c, d):
    return {A: a, B: b, C: c, D: d}


class TestAlphabet:
    def test_symbols_come_from_sequences(self):
        from spincorr import quantum_numbers
        from spincorr.sequences import PAIR_OF_ALIAS, alphabet

        assert SYMBOLS8 == alphabet(3)
        assert [getattr(quantum_numbers, alias) for alias in "ABCD"] == [
            PAIR_OF_ALIAS[alias] for alias in "ABCD"
        ]


class TestQN4:
    def test_figure_example(self):
        q = qn4_from_counts(counts4(2, 1, 2, 1))
        assert (q.j, q.m, q.g, q.l) == (
            Fraction(3, 2), Fraction(1, 2), Fraction(3, 2), Fraction(1, 2)
        )

    def test_identical_sequences(self):
        q = qn4_from_counts(counts4(7, 0, 0, 0))
        assert (q.tj, q.tm) == (0, 0)
        assert q.g == q.l == Fraction(7, 2)

    def test_fully_anti_aligned(self):
        q = qn4_from_counts(counts4(0, 0, 4, 0))
        assert (q.j, q.m, q.g, q.l) == (2, 2, 0, 0)

    def test_inverse(self):
        assert counts4_from_qn4(QN4(tj=3, tm=1, tg=3, tl=1)) == counts4(2, 1, 2, 1)
        assert counts4_from_qn4(QN4(tj=0, tm=0, tg=2, tl=-2)) == counts4(0, 2, 0, 0)

    def test_m_beyond_j_rejected(self):
        with pytest.raises(InvalidQuantumNumberError):
            QN4(tj=1, tm=2, tg=1, tl=1)

    def test_parity_mismatch_rejected(self):
        with pytest.raises(InvalidQuantumNumberError):
            QN4(tj=2, tm=1, tg=2, tl=0)

    @given(
        parts=st.tuples(*(st.integers(min_value=0, max_value=20),) * 4)
    )
    def test_round_trip(self, parts):
        c = counts4(*parts)
        assert counts4_from_qn4(qn4_from_counts(c)) == c

    def test_string_rendering(self):
        q = QN4(tj=3, tm=-1, tg=3, tl=1)
        assert str(q) == "(j=3/2, m=-1/2, g=3/2, l=1/2)"

    def test_of_corrseq_matches_counter(self):
        """Every order-2 sequence with n <= 5."""
        for n in range(1, 6):
            for symbols in itertools.product((A, B, C, D), repeat=n):
                c = CorrSeq(2, symbols)
                assert qn4_of_corrseq(c) == qn4_from_counts(Counter(c.symbols)), symbols


class TestQN8:
    def test_of_corrseq_matches_counter(self):
        """Every order-3 sequence with n <= 3."""
        for n in range(1, 4):
            for symbols in itertools.product(SYMBOLS8, repeat=n):
                c = CorrSeq(3, symbols)
                assert qn8_of_corrseq(c) == qn8_from_counts(Counter(c.symbols)), symbols

    def test_non_overlapping_brackets(self):
        q = qn8_from_counts({(1, 1, 0): 1, (1, 1, 1): 1, (1, 0, 0): 1, (0, 1, 1): 1})
        assert (q.tj10, q.tj02, q.tj12, q.n) == (2, 1, 3, 4)

    def test_overlapping_brackets(self):
        q = qn8_from_counts({(0, 1, 0): 1, (1, 1, 1): 2, (1, 0, 0): 1})
        assert (q.tj10, q.tj02, q.tj12, q.n) == (2, 1, 1, 4)

    def test_three_identical_sequences(self):
        n = 5
        q = qn8_from_counts({(0, 0, 0): n})
        assert (q.tj10, q.tj02, q.tm10, q.tm02, q.tj12, q.k) == (0, 0, 0, 0, 0, 0)
        assert q.tl12 == n and q.n == n

    def test_counts_recovery_centered(self):
        q = QN8(n=6, tj10=2, tj02=2, tm10=0, tm02=0, tj12=2, tl12=0, k=0)
        assert counts8_from_qn8(q) == {
            (0, 1, 0): 0, (1, 0, 1): 1, (1, 0, 0): 0, (0, 1, 1): 1,
            (1, 1, 0): 1, (0, 0, 1): 0, (1, 1, 1): 1, (0, 0, 0): 2,
        }

    def test_counts_recovery_stretched_pair(self):
        q = QN8(n=6, tj10=2, tj02=2, tm10=2, tm02=-2, tj12=2, tl12=2, k=0)
        assert counts8_from_qn8(q) == {
            (0, 1, 0): 0, (1, 0, 1): 1, (1, 0, 0): 1, (0, 1, 1): 0,
            (1, 1, 0): 0, (0, 0, 1): 1, (1, 1, 1): 0, (0, 0, 0): 3,
        }

    def test_excessive_k_is_invalid(self):
        # 011-count = j10 - m10 - k goes negative
        q = QN8(n=6, tj10=2, tj02=2, tm10=2, tm02=-2, tj12=2, tl12=2, k=1)
        assert counts8_from_qn8(q) is None
        assert not q.is_valid()

    def test_m12_is_sum(self):
        q = QN8(n=8, tj10=3, tj02=2, tm10=1, tm02=-2, tj12=3, tl12=0, k=0)
        assert q.tm12 == -1

    def test_table_sum_is_n_identically(self):
        rng = random.Random(7)
        for _ in range(200):
            q = QN8(
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
                assert sum(counts.values()) == q.n

    def test_round_trip_from_counts(self):
        rng = random.Random(3)
        for _ in range(200):
            counts = {}
            remaining = rng.randrange(1, 20)
            syms = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
            for sym in syms[:-1]:
                counts[sym] = rng.randint(0, remaining)
                remaining -= counts[sym]
            counts[syms[-1]] = remaining
            if sum(counts.values()) == 0:
                continue
            assert counts8_from_qn8(qn8_from_counts(counts)) == counts


class TestPairwiseAgreement:
    """The QN8 of a triple agrees with the three pairwise QN4s."""

    def test_random_triples(self):
        rng = random.Random(11)
        for n in (3, 8, 21):
            for _ in range(300):
                s1, s0, s2 = (
                    BitSeq(tuple(rng.randrange(2) for _ in range(n)))
                    for _ in range(3)
                )
                q8 = qn8_of_corrseq(correlate([s1, s0, s2]))
                q10 = qn4_of_corrseq(correlate([s1, s0]))
                q02 = qn4_of_corrseq(correlate([s0, s2]))
                q12 = qn4_of_corrseq(correlate([s1, s2]))
                assert (q8.tj10, q8.tm10) == (q10.tj, q10.tm)
                assert (q8.tj02, q8.tm02) == (q02.tj, q02.tm)
                assert (q8.tj12, q8.tl12) == (q12.tj, q12.tl)
                assert q8.tm12 == q12.tm
                assert (q8.tg10, q8.tl10) == (q10.tg, q10.tl)
                assert (q8.tg02, q8.tl02) == (q02.tg, q02.tl)

    def test_pair_projection_matches_direct_correlation(self):
        rng = random.Random(5)
        from spincorr.sequences import count_symbols

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
                return qn4_of_corrseq(correlate([x, y])).tj

            assert tj(a, a) == 0
            assert tj(a, b) == tj(b, a)
            assert tj(a, c) <= tj(a, b) + tj(b, c)

    def test_j_is_half_hamming_distance(self):
        a = BitSeq.from_string("110010")
        b = BitSeq.from_string("011011")
        hamming = sum(x != y for x, y in zip(a.bits, b.bits))
        assert qn4_of_corrseq(correlate([a, b])).j == Fraction(hamming, 2)
