import argparse
import functools
import random

import pytest
from hypothesis import given, strategies as st

from spincorr.brute import base8_count_layers, enumerate_base8_counts
from spincorr.cg import cg_squared
from spincorr.cli import _spins
from spincorr.errors import ConstraintError, InvalidQuantumNumberError
from spincorr.pathcount import Priors
from spincorr.quantum_numbers import (
    counts4_from_qn4, f_factor, j12_bounds_constrained, pair_counts4, qn4_from_counts,
    qn4_of_corrseq, witness_triple,
)
from spincorr.selection import (
    allowed_m_pairs,
    check_projection,
    check_triangle,
    g12_range,
    j12_range,
)
from spincorr.sequences import BitSeq, correlate


def qn4(tj, tm, tg, tl):
    """The four-number set, a plain tuple, named field by field."""
    return (tj, tm, tg, tl)


@pytest.mark.parametrize(
    "raise_it, m, j",
    [
        pytest.param(lambda: _spins(argparse.Namespace(j1="1", j2="1", J="1", M="2")),
                     "M", "J", id="cli-M"),
        pytest.param(lambda: Priors(6, 2, 2, 2, 4), "m12", "j12", id="Priors-m12"),
        pytest.param(lambda: counts4_from_qn4(qn4(tj=2, tm=4, tg=0, tl=0)), "m", "j",
                     id="counts4_from_qn4-m"),
        pytest.param(lambda: counts4_from_qn4(qn4(tj=0, tm=0, tg=2, tl=3)), "l", "g",
                     id="counts4_from_qn4-l"),
        pytest.param(lambda: counts4_from_qn4(qn4(tj=-2, tm=0, tg=4, tl=0)), "m", "j",
                     id="counts4_from_qn4-negative-j"),
        pytest.param(lambda: counts4_from_qn4(qn4(tj=2, tm=0, tg=-2, tl=0)), "l", "g",
                     id="counts4_from_qn4-negative-g"),
        pytest.param(lambda: qn4_from_counts((3, 3, -1, 3)), "m", "j",
                     id="qn4_from_counts-negative-C"),
        pytest.param(lambda: qn4_from_counts((-1, 3, 3, 3)), "l", "g",
                     id="qn4_from_counts-negative-A"),
        # a bad relation beside a valid one of the same n, either way round
        pytest.param(lambda: j12_bounds_constrained(qn4(tj=1, tm=2, tg=1, tl=1),
                                                    qn4(tj=2, tm=0, tg=0, tl=0)),
                     "m", "j", id="j12_bounds_constrained-m"),
        pytest.param(lambda: witness_triple(qn4(tj=2, tm=0, tg=0, tl=0),
                                            qn4(tj=0, tm=0, tg=2, tl=3), 2),
                     "l", "g", id="witness_triple-l"),
        pytest.param(lambda: cg_squared(2, 2, 4, 0, 2, 4), "m1", "j1", id="cg-m1"),
        pytest.param(lambda: cg_squared(2, 2, 0, 1, 2, 1), "m2", "j2", id="cg-m2"),
        pytest.param(lambda: cg_squared(2, 2, 2, 2, 2, 4), "M", "J", id="cg-M"),
        pytest.param(lambda: f_factor(6, 2, 4), "m", "j", id="f_factor"),
    ],
)
def test_projection_rule_raised_in_callers_names(raise_it, m, j):
    """Every caller of the projection rule raises the one error, naming its
    own quantum numbers."""
    with pytest.raises(InvalidQuantumNumberError) as excinfo:
        raise_it()
    assert str(excinfo.value) == f"{m} must satisfy -{j} <= {m} <= {j} in integer steps"


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
        # below the n floor 2(j10 + j02) the bounds hold all the same; the
        # floor is Priors' to enforce
        assert g12_range(4, 3, 2) == (-1, 3)

    @given(
        st.integers(min_value=1, max_value=24).flatmap(
            lambda n: st.lists(st.integers(0, 1), min_size=3 * n, max_size=3 * n)
        )
    )
    def test_measured_g12_in_range_at_every_n(self, bits):
        # random triples sit below the n floor of the closed form all the time
        n = len(bits) // 3
        s1, s0, s2 = (BitSeq(tuple(bits[i : i + n])) for i in (0, n, 2 * n))
        tj10, _, _, _ = qn4_of_corrseq(correlate([s1, s0]))
        tj02, _, _, _ = qn4_of_corrseq(correlate([s0, s2]))
        _, _, tg12, _ = qn4_of_corrseq(correlate([s1, s2]))
        lo, hi = g12_range(n, tj10, tj02)
        assert lo <= tg12 <= hi


class TestConstrainedBounds:
    def test_saturated_opposite_m(self):
        # g and l maximal on both relations at n=6
        q10 = qn4(tj=2, tm=2, tg=4, tl=4)
        q02 = qn4(tj=2, tm=-2, tg=4, tl=4)
        assert j12_bounds_constrained(q10, q02) == (0, 4)

    def test_reference_relation_collapses(self):
        q10 = qn4(tj=3, tm=1, tg=5, tl=3)
        q02 = qn4(tj=0, tm=0, tg=8, tl=4)
        assert j12_bounds_constrained(q10, q02) == (3, 3)

    def test_mismatched_n(self):
        q10 = qn4(tj=2, tm=0, tg=4, tl=0)
        q02 = qn4(tj=2, tm=0, tg=2, tl=0)
        with pytest.raises(ConstraintError):
            j12_bounds_constrained(q10, q02)

    def test_relations_must_share_the_reference(self):
        # equal n, but q10 gives the reference 4 zeros (A10 + C10) and q02
        # gives it 2 (A02 + D02): no triple carries both
        q = qn4(tj=2, tm=2, tg=2, tl=2)
        with pytest.raises(ConstraintError, match="zeros: 4, 2"):
            j12_bounds_constrained(q, q)

    def test_unconstrained_reduces_to_triangle(self):
        # capacities non-binding: plenty of A/B room on both sides
        q10 = qn4(tj=2, tm=0, tg=10, tl=0)
        q02 = qn4(tj=2, tm=0, tg=10, tl=0)
        assert j12_bounds_constrained(q10, q02) == (0, 4)

    def _observed_j12(self, q10, q02):
        # the measured j12 of the witness of every tj12 a length-n triple
        # could have, each witness checked to carry q10 and q02
        tj10, _, tg10, _ = q10
        observed = set()
        for tj12 in range(tj10 + tg10 + 1):
            triple = witness_triple(q10, q02, tj12)
            if triple is not None:
                assert measure(triple) == (q10, q02, tj12)
                observed.add(tj12)
        return observed

    def test_bounds_bracket_enumeration_n4(self):
        # overcapacity case from forcing C-counts beyond the A/B room
        q10 = qn4(tj=2, tm=2, tg=2, tl=2)
        q02 = qn4(tj=1, tm=-1, tg=3, tl=3)
        lo, hi = j12_bounds_constrained(q10, q02)
        observed = self._observed_j12(q10, q02)
        assert observed
        assert min(observed) >= lo and max(observed) <= hi

    def test_bounds_bracket_enumeration_saturated(self):
        q10 = qn4(tj=2, tm=2, tg=2, tl=2)
        q02 = qn4(tj=2, tm=-2, tg=2, tl=2)
        lo, hi = j12_bounds_constrained(q10, q02)
        observed = self._observed_j12(q10, q02)
        assert observed
        assert min(observed) >= lo and max(observed) <= hi

    def test_bounds_exact_over_every_count_vector(self):
        # the j12 that occur for each (q10, q02), over every base-8 count
        # vector with n <= 8, are every value from lo to hi in integer steps
        realized = {}
        for n in range(1, 9):
            for key in enumerate_base8_counts(n):
                q10, q02, q12 = (
                    qn4_from_counts(pair_counts4(key, pair)) for pair in ("10", "02", "12")
                )
                realized.setdefault((q10, q02), set()).add(q12[0])
        for (q10, q02), observed in realized.items():
            lo, hi = j12_bounds_constrained(q10, q02)
            assert observed == set(range(lo, hi + 1, 2)), (q10, q02)
        # as many pairs up to n = 6 as all 8^n bit triples give
        n_of = [tj10 + tg10 for (tj10, _, tg10, _), _ in realized]
        assert sum(n <= 6 for n in n_of) == 2057
        assert sum(n == 8 for n in n_of) == 3333

    def test_every_triangle_value_realizable_at_tight_n(self):
        # n = 2(j10 + j02): every j12 admitted by the triangle rule occurs,
        # here between two relations with m = l = 0
        q = qn4(tj=2, tm=0, tg=2, tl=0)
        for tj12 in j12_range(2, 2):
            triple = witness_triple(q, q, tj12)
            assert triple is not None, tj12
            assert measure(triple) == (q, q, tj12)


def measure(triple):
    """(q10, q02, tj12) of a triple (s1, s0, s2), as qn4_of_corrseq measures it."""
    s1, s0, s2 = triple
    return (qn4_of_corrseq(correlate([s1, s0])), qn4_of_corrseq(correlate([s0, s2])),
            qn4_of_corrseq(correlate([s1, s2]))[0])


@functools.cache
def realized_pairs(n_max):
    """Every (q10, q02) that a base-8 count vector of length 1 to n_max realizes."""
    pairs = set()
    layers = base8_count_layers(n_max)
    next(layers)  # the empty layer: a bit sequence has length n >= 1
    for bins in layers:
        for key in bins:
            pairs.add(tuple(qn4_from_counts(pair_counts4(key, pair)) for pair in ("10", "02")))
    return pairs


class TestWitnessTriple:
    """witness_triple, the symbol blocks of the j12_bounds_constrained proof."""

    def test_witness_exactly_where_admissible(self):
        # every pair up to n = 6, and every tj12 from two below lo to two
        # above hi, the other parity included: a witness exists exactly at
        # lo, lo + 2, ..., hi, and it measures as asked
        pairs = realized_pairs(6)
        assert len(pairs) == 2057
        witnesses = 0
        for q10, q02 in pairs:
            lo, hi = j12_bounds_constrained(q10, q02)
            for tj12 in range(lo - 2, hi + 3):
                triple = witness_triple(q10, q02, tj12)
                if lo <= tj12 <= hi and (tj12 - lo) % 2 == 0:
                    assert triple is not None, (q10, q02, tj12)
                    assert measure(triple) == (q10, q02, tj12)
                    witnesses += 1
                else:
                    assert triple is None, (q10, q02, tj12)
        assert witnesses == 2957

    def test_zero_j02_forces_identical_sequences(self):
        zero_j02 = [(q10, q02) for q10, q02 in realized_pairs(6) if q02[0] == 0]
        assert zero_j02
        for q10, q02 in zero_j02:
            _, s0, s2 = witness_triple(q10, q02, q10[0])
            assert s0 == s2

    def test_triangle_violating_j12_has_none(self):
        # n = 3 relations that share the reference, j12 = 3 > j10 + j02 = 1
        q10 = qn4(tj=1, tm=1, tg=2, tl=0)
        q02 = qn4(tj=1, tm=-1, tg=2, tl=0)
        assert j12_bounds_constrained(q10, q02) == (0, 2)
        assert witness_triple(q10, q02, 6) is None

    def test_saturated_opposite_m(self):
        # the plain tuples of TestConstrainedBounds.test_saturated_opposite_m
        assert witness_triple((2, 2, 4, 4), (2, -2, 4, 4), 2) == (
            BitSeq((0, 0, 0, 0, 1, 1)), BitSeq((0, 0, 0, 0, 0, 0)), BitSeq((0, 0, 0, 1, 0, 1)))
        assert witness_triple((2, 2, 4, 4), (2, -2, 4, 4), 3) is None

    def test_mismatched_reference_raises(self):
        q = qn4(tj=2, tm=2, tg=2, tl=2)
        with pytest.raises(ConstraintError, match="zeros: 4, 2"):
            witness_triple(q, q, 0)

    def test_empty_sequences_rejected(self):
        q = qn4(tj=0, tm=0, tg=0, tl=0)
        with pytest.raises(ValueError, match="length n >= 1"):
            witness_triple(q, q, 0)


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

    def test_closed_form_matches_projection_filter(self):
        # the definition: every m10 from |j10| down to -|j10| in unit steps
        # whose m10 and m02 = m12 - m10 both pass the projection rule; the
        # grid has negative j and both parities of j10 + j02 + m12
        for tj10 in range(-3, 9):
            for tj02 in range(-3, 9):
                for tm12 in range(-20, 21):
                    expected = [
                        (tm10, tm12 - tm10)
                        for tm10 in range(abs(tj10), -abs(tj10) - 1, -1)
                        if check_projection(tj10, tm10) and check_projection(tj02, tm12 - tm10)
                    ]
                    assert allowed_m_pairs(tj10, tj02, tm12) == expected, (tj10, tj02, tm12)


class TestRandomTripleLaw:
    def test_relations_hold_exactly(self):
        rng = random.Random(29)
        for n in (4, 16, 64):
            for _ in range(500):
                s1, s0, s2 = (
                    BitSeq(tuple(rng.randrange(2) for _ in range(n)))
                    for _ in range(3)
                )
                tj10, tm10, tg10, tl10 = qn4_of_corrseq(correlate([s1, s0]))
                tj02, tm02, tg02, tl02 = qn4_of_corrseq(correlate([s0, s2]))
                tj12, tm12, tg12, tl12 = qn4_of_corrseq(correlate([s1, s2]))
                assert tj10 + tg10 == tj02 + tg02 == tj12 + tg12 == n
                assert tm12 == tm10 + tm02 == tl02 - tl10
                assert tl12 == tl10 + tm02 == tl02 - tm10
                assert check_triangle(tj10, tj02, tj12)
                lo, hi = n - tj10 - tj02, n - abs(tj10 - tj02)
                assert lo <= tg12 <= hi
