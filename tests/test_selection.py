import random

import pytest

from spincorr.brute import witness_triples
from spincorr.errors import ConstraintError
from spincorr.quantum_numbers import QN4, qn4_of_corrseq
from spincorr.selection import (
    allowed_m_pairs,
    check_projection,
    check_triangle,
    g12_range,
    j12_bounds_constrained,
    j12_range,
)
from spincorr.sequences import BitSeq, correlate


class TestTriangle:
    def test_paper_bounds(self):
        assert check_triangle(3, 2, 5)
        assert not check_triangle(3, 2, 6)

    def test_degenerate_edge(self):
        for tj in range(0, 9):
            assert check_triangle(tj, 0, tj)

    def test_half_integer_perimeter_rejected(self):
        assert not check_triangle(1, 1, 1)

    def test_negative_rejected(self):
        assert not check_triangle(-1, 1, 1)


class TestProjection:
    def test_table_matches_inline_condition(self):
        for tj in range(-8, 9):
            for tm in range(-8, 9):
                inline = not (tj < 0 or abs(tm) > tj or (tj + tm) % 2)
                assert check_projection(tj, tm) == inline, (tj, tm)


class TestJ12Range:
    def test_examples(self):
        assert j12_range(3, 2) == [1, 3, 5]
        assert j12_range(2, 2) == [0, 2, 4]
        assert j12_range(0, 5) == [5]

    def test_every_value_passes_triangle(self):
        for tj1 in range(0, 6):
            for tj2 in range(0, 6):
                values = j12_range(tj1, tj2)
                assert values, (tj1, tj2)
                for tj12 in values:
                    assert check_triangle(tj1, tj2, tj12)


class TestG12Range:
    def test_example(self):
        assert g12_range(6, 2, 2) == (2, 6)  # g12 in [1, 3]

    def test_tight_n_hits_zero(self):
        tj = 3
        assert g12_range(2 * tj, tj, tj) == (0, 2 * tj)

    def test_too_small_n(self):
        with pytest.raises(ConstraintError):
            g12_range(4, 3, 2)


class TestConstrainedBounds:
    def test_saturated_opposite_m(self):
        # g and l maximal on both relations at n=6
        q10 = QN4(tj=2, tm=2, tg=4, tl=4)
        q02 = QN4(tj=2, tm=-2, tg=4, tl=4)
        lo, hi = j12_bounds_constrained(q10, q02, 6)
        assert lo <= 2 <= hi

    def test_reference_relation_collapses(self):
        q10 = QN4(tj=3, tm=1, tg=5, tl=3)
        q02 = QN4(tj=0, tm=0, tg=8, tl=2)
        assert j12_bounds_constrained(q10, q02, 8) == (3, 3)

    def test_mismatched_n(self):
        q10 = QN4(tj=2, tm=0, tg=4, tl=0)
        q02 = QN4(tj=2, tm=0, tg=2, tl=0)
        with pytest.raises(ConstraintError):
            j12_bounds_constrained(q10, q02, 6)

    def test_unconstrained_reduces_to_triangle(self):
        # capacities non-binding: plenty of A/B room on both sides
        q10 = QN4(tj=2, tm=0, tg=10, tl=0)
        q02 = QN4(tj=2, tm=0, tg=10, tl=0)
        assert j12_bounds_constrained(q10, q02, 12) == (0, 4)

    def _observed_j12(self, n, q10, q02):
        observed = set()
        for s1, s0, s2 in witness_triples(
            n,
            tj10=q10.tj, tm10=q10.tm, tg10=q10.tg, tl10=q10.tl,
            tj02=q02.tj, tm02=q02.tm, tg02=q02.tg, tl02=q02.tl,
        ):
            observed.add(qn4_of_corrseq(correlate([s1, s2])).tj)
        return observed

    def test_bounds_bracket_enumeration_n4(self):
        # overcapacity case from forcing C-counts beyond the A/B room
        q10 = QN4(tj=2, tm=2, tg=2, tl=2)
        q02 = QN4(tj=1, tm=-1, tg=3, tl=3)
        lo, hi = j12_bounds_constrained(q10, q02, 4)
        observed = self._observed_j12(4, q10, q02)
        assert observed
        assert min(observed) >= lo and max(observed) <= hi

    def test_bounds_bracket_enumeration_saturated(self):
        q10 = QN4(tj=2, tm=2, tg=2, tl=2)
        q02 = QN4(tj=2, tm=-2, tg=2, tl=2)
        lo, hi = j12_bounds_constrained(q10, q02, 4)
        observed = self._observed_j12(4, q10, q02)
        assert observed
        assert min(observed) >= lo and max(observed) <= hi

    def test_every_triangle_value_realizable_at_tight_n(self):
        # n = 2(j10 + j02): every j12 admitted by the triangle rule occurs
        tj1, tj2 = 2, 2
        n = tj1 + tj2
        for tj12 in j12_range(tj1, tj2):
            found = next(
                witness_triples(n, tj10=tj1, tj02=tj2, tj12=tj12), None
            )
            assert found is not None, tj12


class TestAllowedMPairs:
    def test_worked_example(self):
        assert allowed_m_pairs(2, 2, 0) == [(2, -2), (0, 0), (-2, 2)]

    def test_stretched(self):
        assert allowed_m_pairs(1, 1, 2) == [(1, 1)]

    def test_exceeds_maximum(self):
        assert allowed_m_pairs(2, 2, 6) == []

    def test_descending_m10(self):
        pairs = allowed_m_pairs(4, 2, 0)
        assert pairs == sorted(pairs, key=lambda p: -p[0])


class TestRandomTripleLaw:
    def test_relations_hold_exactly(self):
        rng = random.Random(29)
        for n in (4, 16, 64):
            for _ in range(500):
                s1, s0, s2 = (
                    BitSeq(tuple(rng.randrange(2) for _ in range(n)))
                    for _ in range(3)
                )
                q10 = qn4_of_corrseq(correlate([s1, s0]))
                q02 = qn4_of_corrseq(correlate([s0, s2]))
                q12 = qn4_of_corrseq(correlate([s1, s2]))
                assert q10.n == q02.n == q12.n == n
                assert q12.tm == q10.tm + q02.tm == q02.tl - q10.tl
                assert q12.tl == q10.tl + q02.tm == q02.tl - q10.tm
                assert check_triangle(q10.tj, q02.tj, q12.tj)
                lo, hi = n - q10.tj - q02.tj, n - abs(q10.tj - q02.tj)
                assert lo <= q12.tg <= hi
