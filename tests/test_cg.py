from fractions import Fraction
from math import factorial

import pytest

from spincorr import pathcount
from spincorr.cg import cg_squared, convergence_scan, decimal_string
from spincorr.errors import InvalidQuantumNumberError
from spincorr.selection import allowed_m_pairs, check_triangle, j12_range


def fraction_cg_squared(tj1, tj2, tm1, tm2, tJ, tM):
    """The Racah z-sum with one Fraction per term, as cg_squared computed
    it before its z-sum moved to integers: the reference it must equal."""
    if tm1 + tm2 != tM or not check_triangle(tj1, tj2, tJ):
        return Fraction(0)
    f = factorial
    pre = Fraction(
        (tJ + 1)
        * f((tj1 + tj2 - tJ) // 2)
        * f((tJ + tj1 - tj2) // 2)
        * f((tJ + tj2 - tj1) // 2),
        f((tj1 + tj2 + tJ) // 2 + 1),
    )
    radicand = (
        f((tj1 + tm1) // 2)
        * f((tj1 - tm1) // 2)
        * f((tj2 + tm2) // 2)
        * f((tj2 - tm2) // 2)
        * f((tJ + tM) // 2)
        * f((tJ - tM) // 2)
    )
    z_lo = max(0, -(tJ - tj2 + tm1) // 2, -(tJ - tj1 - tm2) // 2)
    z_hi = min((tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    zsum = Fraction(0)
    for z in range(z_lo, z_hi + 1):
        denom = (
            f(z)
            * f((tj1 + tj2 - tJ) // 2 - z)
            * f((tj1 - tm1) // 2 - z)
            * f((tj2 + tm2) // 2 - z)
            * f((tJ - tj2 + tm1) // 2 + z)
            * f((tJ - tj1 - tm2) // 2 + z)
        )
        zsum += Fraction(-1 if z % 2 else 1, denom)
    return pre * radicand * zsum * zsum


class TestCgSquared:
    def test_equals_the_fraction_z_sum(self):
        """Every (m1, m2, J, M) entry with j1, j2 <= 4, whether or not the
        selection rules allow it."""
        allowed = 0
        for tj1 in range(0, 9):
            for tj2 in range(0, 9):
                for tJ in range(0, tj1 + tj2 + 1):
                    for tM in range(-tJ, tJ + 1, 2):
                        for tm1 in range(-tj1, tj1 + 1, 2):
                            for tm2 in range(-tj2, tj2 + 1, 2):
                                args = (tj1, tj2, tm1, tm2, tJ, tM)
                                got = cg_squared(*args)
                                expected = fraction_cg_squared(*args)
                                assert type(got) is Fraction and got == expected, args
                                allowed += tm1 + tm2 == tM and check_triangle(tj1, tj2, tJ)
        assert allowed == 7809


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

    def test_table_error_propagates(self, monkeypatch):
        # only the errors Priors raises mean "skip this n"; any other error
        # in the table path is a fault and reaches the caller
        def broken(priors, tm10, tm02):
            raise ValueError("math domain error")

        monkeypatch.setattr(pathcount, "_weight", broken)
        with pytest.raises(ValueError, match="math domain"):
            convergence_scan(2, 2, 2, 0, [2, 6, 8])

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
