from fractions import Fraction

import pytest

from spincorr.cg import cg_squared, convergence_scan, decimal_string
from spincorr.errors import InvalidQuantumNumberError
from spincorr.selection import allowed_m_pairs, j12_range


class TestCgSquared:
    def test_two_spin_one_reference_values(self):
        assert cg_squared(2, 2, 2, -2, 2, 0) == Fraction(1, 2)
        assert cg_squared(2, 2, 0, 0, 2, 0) == 0
        assert cg_squared(2, 2, -2, 2, 2, 0) == Fraction(1, 2)

    def test_stretched_state(self):
        for tj1, tj2 in ((1, 1), (2, 3), (4, 2)):
            assert cg_squared(tj1, tj2, tj1, tj2, tj1 + tj2, tj1 + tj2) == 1

    def test_singlet_pair(self):
        assert cg_squared(1, 1, 1, -1, 2, 0) == Fraction(1, 2)

    def test_selection_violations_are_zero(self):
        assert cg_squared(2, 2, 2, -2, 2, 2) == 0  # M != m1 + m2
        assert cg_squared(2, 2, 2, 0, 6, 2) == 0  # J beyond j1 + j2
        assert cg_squared(4, 1, 0, 1, 1, 1) == 0  # J below |j1 - j2|

    def test_malformed_raises(self):
        with pytest.raises(InvalidQuantumNumberError):
            cg_squared(1, 1, 2, 0, 2, 2)  # m1 > j1
        with pytest.raises(InvalidQuantumNumberError):
            cg_squared(-2, 2, 0, 0, 2, 0)
        with pytest.raises(InvalidQuantumNumberError):
            cg_squared(2, 2, 1, 1, 2, 2)  # j1 + m1 not an integer

    def test_completeness(self):
        for tj1 in range(0, 6):
            for tj2 in range(0, 6):
                for tJ in j12_range(tj1, tj2):
                    for tM in range(-tJ, tJ + 1, 2):
                        total = sum(
                            cg_squared(tj1, tj2, tm1, tm2, tJ, tM)
                            for tm1, tm2 in allowed_m_pairs(tj1, tj2, tM)
                        )
                        assert total == 1, (tj1, tj2, tJ, tM)

    def test_sign_flip_invariance(self):
        for args in ((2, 2, 2, -2, 2, 0), (3, 2, 1, 0, 3, 1), (4, 2, 2, 0, 4, 2)):
            tj1, tj2, tm1, tm2, tJ, tM = args
            assert cg_squared(tj1, tj2, tm1, tm2, tJ, tM) == cg_squared(
                tj1, tj2, -tm1, -tm2, tJ, -tM
            )


class TestDelta:
    """The delta column of `convergence_scan`, one length at a time."""

    def test_worked_example(self):
        rows, _ = convergence_scan(2, 2, 2, 0, [6])
        assert [(r.tm10, r.tm02, r.delta) for r in rows] == [
            (2, -2, Fraction(1, 34)),
            (0, 0, Fraction(1, 17)),
            (-2, 2, Fraction(1, 34)),
        ]

    def test_stretched_is_exact(self):
        rows, _ = convergence_scan(2, 2, 4, 4, [8])
        assert [(r.tm10, r.tm02, r.delta) for r in rows] == [(2, 2, Fraction(0))]


class TestConvergenceScan:
    def test_doubling_decreases_delta(self):
        ns = [6, 12, 24, 48]
        rows, skipped = convergence_scan(2, 2, 2, 0, ns)
        assert not skipped
        assert [r.n for r in rows] == sorted(r.n for r in rows)
        by_pair = {}
        for r in rows:
            by_pair.setdefault((r.tm10, r.tm02), []).append(r.delta)
        assert set(by_pair) == {(2, -2), (0, 0), (-2, 2)}
        for deltas in by_pair.values():
            assert all(a > b for a, b in zip(deltas, deltas[1:]))

    def test_first_row_matches_worked_example(self):
        rows, _ = convergence_scan(2, 2, 2, 0, [6])
        assert rows[0].p == Fraction(8, 17)
        assert rows[0].cg2 == Fraction(1, 2)
        assert rows[0].delta == Fraction(1, 34)

    def test_invalid_n_skipped_with_reason(self):
        rows, skipped = convergence_scan(2, 2, 2, 0, [2, 6])
        assert [n for n, _ in skipped] == [2]
        assert all(r.n == 6 for r in rows)

    def test_stretched_all_zero(self):
        rows, _ = convergence_scan(2, 2, 4, 4, [4, 8, 16])
        assert rows
        assert all(r.delta == 0 for r in rows)


class TestDecimalString:
    def test_paper_decimals(self):
        assert decimal_string(Fraction(8, 17)) == "0.470588"
        assert decimal_string(Fraction(1, 17)) == "0.058824"

    def test_round_half_even(self):
        assert decimal_string(Fraction(1, 8), 2) == "0.12"
        assert decimal_string(Fraction(3, 8), 2) == "0.38"
        # one rounding only: the tiny excess over the half must round up
        assert decimal_string(Fraction(1, 20) + Fraction(1, 10**41), 1) == "0.1"

    def test_digit_count(self):
        assert decimal_string(Fraction(1, 3), 3) == "0.333"
        assert decimal_string(Fraction(2, 1), 4) == "2.0000"
        # fixed point below 1e-6 and for zero, never exponent form
        assert decimal_string(Fraction(1, 2704156), 10) == "0.0000003698"
        assert decimal_string(Fraction(0), 7) == "0.0000000"
