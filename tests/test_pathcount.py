import functools
import inspect
import itertools
from fractions import Fraction
from math import comb, factorial, perm, prod

import pytest
from hypothesis import given, settings, strategies as st

from spincorr import pathcount, selftest
from spincorr.brute import phi_by_enumeration
from spincorr.cg import cg_squared
from spincorr.errors import ConstraintError, InvalidQuantumNumberError
from spincorr.pathcount import Priors, path_weights, probability_table
from spincorr.quantum_numbers import counts8_from_qn8, f_factor, phi
from spincorr.selection import allowed_m_pairs, j12_range
from spincorr.selftest import _prior_grid, check_normalization, upsilon_full_lattice


def literal_full_lattice(priors, tm10, tm02):
    """The raw lattice sum as first written: phi at (k_b, l12) is evaluated
    again for every k_a, and only where phi at (k_a, l12) is non-zero."""
    f_a = f_factor(priors.n, priors.tj10, tm10)
    f_b = f_factor(priors.n, priors.tj02, tm02)
    k_hi = min(priors.tj10, priors.tj02)
    total = 0
    for k_a in range(0, k_hi + 1):
        for k_b in range(0, k_hi + 1):
            sign = -1 if (k_b - k_a) % 2 else 1
            for tl12 in range(-priors.n, priors.n + 1):
                pa = phi(
                    (priors.n, priors.tj10, priors.tj02, tm10, tm02,
                     priors.tj12, tl12, k_a)
                )
                if pa == 0:
                    continue
                pb = phi(
                    (priors.n, priors.tj10, priors.tj02, tm10, tm02,
                     priors.tj12, tl12, k_b)
                )
                total += sign * pa * pb
    return f_a * f_b * total


def k_range(tj10, tm10, tj02, tm02, tj12):
    """The k of the closed form's binomial sum, by filtering: those from 0 to
    x where all six count factorials of P_k (see rational_weight) have a
    non-negative argument."""
    x = (tj10 + tj02 - tj12) // 2
    c10, d10 = (tj10 + tm10) // 2, (tj10 - tm10) // 2
    c02, d02 = (tj02 + tm02) // 2, (tj02 - tm02) // 2
    return [k for k in range(x + 1) if min(k - x + c10, k - x + d02, d10 - k, c02 - k) >= 0]


def rational_weight(priors, tm10, tm02):
    """The closed form as a sum of Fractions: over the (k_a, k_b) pairs of
    k_range, (-1)^s r(|s|) / (P_a P_b) times c10! d10! c02! d02!, with
    r(s) = prod_{i=1..s} (G - i + 1) / (G + i) and P_k the six count
    factorials.  It differs from the path_weights row by a positive,
    pair-independent factor, so both normalize to the same table."""
    x = (priors.tj10 + priors.tj02 - priors.tj12) // 2
    g = priors.n - (priors.tj10 + priors.tj02 + priors.tj12) // 2
    c10, d10 = (priors.tj10 + tm10) // 2, (priors.tj10 - tm10) // 2
    c02, d02 = (priors.tj02 + tm02) // 2, (priors.tj02 - tm02) // 2
    f = factorial
    inv_p = {
        k: Fraction(1, f(k) * f(x - k) * f(k - x + c10) * f(k - x + d02)
                    * f(d10 - k) * f(c02 - k))
        for k in k_range(priors.tj10, tm10, priors.tj02, tm02, priors.tj12)
    }
    r = [Fraction(1)]
    for i in range(1, len(inv_p)):
        r.append(r[-1] * Fraction(g - i + 1, g + i))
    total = sum(
        ((-1) ** abs(b - a) * r[abs(b - a)] * inv_p[a] * inv_p[b]
         for a in inv_p for b in inv_p),
        Fraction(0),
    )
    return f(c10) * f(d10) * f(c02) * f(d02) * total


def small_priors(n_max=8, tj_max=3):
    """Every prior with j1, j2 <= tj_max / 2 and n <= n_max."""
    return [
        Priors(n=n, tj10=tj1, tj02=tj2, tj12=tJ, tm12=tM)
        for tj1 in range(tj_max + 1)
        for tj2 in range(tj_max + 1)
        for tJ in j12_range(tj1, tj2)
        for tM in range(-tJ, tJ + 1, 2)
        for n in range(max(1, tj1 + tj2), n_max + 1)
    ]


class TestPriors:
    def test_valid(self):
        Priors(n=6, tj10=2, tj02=2, tj12=2, tm12=0)

    def test_triangle_enforced(self):
        with pytest.raises(ConstraintError):
            Priors(n=10, tj10=2, tj02=2, tj12=6, tm12=0)

    def test_n_floor_enforced(self):
        with pytest.raises(ConstraintError):
            Priors(n=3, tj10=2, tj02=2, tj12=2, tm12=0)
        with pytest.raises(InvalidQuantumNumberError):
            Priors(n=0, tj10=0, tj02=0, tj12=0, tm12=0)

    def test_m12_range_enforced(self):
        with pytest.raises(InvalidQuantumNumberError):
            Priors(n=6, tj10=2, tj02=2, tj12=2, tm12=4)

    @pytest.mark.parametrize(
        "args, error, message",
        [
            ((10, 2, 2, 6, 0), ConstraintError,
             "triangle rule violated: |j10 - j02| <= j12 <= j10 + j02 "
             "with integer perimeter, got j10=1 j02=1 j12=3"),
            ((6, 2, 2, 2, 4), InvalidQuantumNumberError,
             "m12 must satisfy -j12 <= m12 <= j12 in integer steps"),
            ((3, 2, 2, 2, 0), ConstraintError, "n = 3 is below 2(j10 + j02) = 4"),
            ((0, 0, 0, 0, 0), InvalidQuantumNumberError, "n must be positive"),
            # the checks run in this order: a triangle violation wins
            ((0, 2, 2, 6, 8), ConstraintError,
             "triangle rule violated: |j10 - j02| <= j12 <= j10 + j02 "
             "with integer perimeter, got j10=1 j02=1 j12=3"),
            ((0, 2, 2, 2, 4), InvalidQuantumNumberError,
             "m12 must satisfy -j12 <= m12 <= j12 in integer steps"),
            # n < 1 is no length at all, so it is tested before the n floor
            ((-1, 0, 0, 0, 0), InvalidQuantumNumberError, "n must be positive"),
            ((-5, 0, 0, 0, 0), InvalidQuantumNumberError, "n must be positive"),
            ((0, 2, 2, 2, 0), InvalidQuantumNumberError, "n must be positive"),
            ((-1, 2, 2, 2, 0), InvalidQuantumNumberError, "n must be positive"),
            ((-5, 2, 2, 2, 0), InvalidQuantumNumberError, "n must be positive"),
        ],
    )
    def test_rejection_type_and_message(self, args, error, message):
        with pytest.raises(error) as excinfo:
            Priors(*args)
        assert excinfo.type is error
        assert str(excinfo.value) == message

    def test_value_semantics(self):
        priors = Priors(n=6, tj10=2, tj02=2, tj12=2, tm12=0)
        assert repr(priors) == "Priors(n=6, tj10=2, tj02=2, tj12=2, tm12=0)"
        assert priors == Priors(6, 2, 2, 2, 0)
        assert priors != Priors(8, 2, 2, 2, 0)
        assert hash(priors) == hash(Priors(6, 2, 2, 2, 0)) == hash((6, 2, 2, 2, 0))
        assert (priors.n, priors.tj10, priors.tj02, priors.tj12, priors.tm12) == (6, 2, 2, 2, 0)
        with pytest.raises(AttributeError):
            priors.n = 8
        with pytest.raises(AttributeError):
            priors.extra = 1
        assert priors._replace(n=8) == Priors(8, 2, 2, 2, 0)
        with pytest.raises(ConstraintError):
            priors._replace(n=3)


class TestPhi:
    # each set is (n, tj10, tj02, tm10, tm02, tj12, tl12, k), doubled but for n and k
    def test_centered_case(self):
        # n=6, j's = 1, m's = 0, l12 = -1, k = 0
        assert phi((6, 2, 2, 0, 0, 2, -2, 0)) == 360

    def test_opposite_m_case(self):
        assert phi((6, 2, 2, 2, -2, 2, 2, 0)) == 120

    def test_single_symbol(self):
        assert phi((5, 0, 0, 0, 0, 0, 5, 0)) == 1

    def test_invalid_is_zero(self):
        assert phi((6, 2, 2, 2, -2, 2, 2, 1)) == 0

    @pytest.mark.parametrize(
        "q",
        [
            (6, 2, 2, 0, 0, 2, -2, 0),
            (6, 2, 2, 2, -2, 2, 2, 0),
            (4, 2, 1, 1, -1, 1, 0, 0),
            (3, 0, 0, 0, 0, 0, 3, 0),
        ],
    )
    def test_matches_enumeration(self, q):
        assert phi(q) == phi_by_enumeration(q)

    def test_zero_exactly_where_the_counts_are_invalid(self):
        """At every point of the rectangles upsilon_full_lattice scans for
        the selftest's bounds check, phi is 0 exactly where counts8_from_qn8
        gives None, and elsewhere n! over the factorials of its counts."""
        points = valid = 0
        for n, tj1, tj2, tJ, tM in _prior_grid(8, 2):
            for tm10, tm02 in allowed_m_pairs(tj1, tj2, tM):
                for tl12, k in itertools.product(range(-n, n + 1), range(min(tj1, tj2) + 1)):
                    q = (n, tj1, tj2, tm10, tm02, tJ, tl12, k)
                    counts = counts8_from_qn8(q)
                    if counts is None:
                        assert phi(q) == 0, q
                    else:
                        assert phi(q) == factorial(n) // prod(map(factorial, counts)), q
                        valid += 1
                    points += 1
        assert (points, valid) == (8371, 1376)


class TestFFactor:
    def test_values(self):
        assert f_factor(6, 2, 2) == Fraction(1, 15)
        assert f_factor(6, 2, 0) == Fraction(1, 30)
        assert f_factor(9, 0, 0) == 1

    def test_counting_oracle(self):
        # fixing the C and D positions leaves (n-C-D)! of n! arrangements
        # per choice of the C block and D block internal order
        import math

        n, tj, tm = 6, 2, 2
        c, d = (tj + tm) // 2, (tj - tm) // 2
        fixed = math.factorial(c) * math.factorial(d) * math.factorial(n - c - d)
        assert f_factor(n, tj, tm) == Fraction(fixed, math.factorial(n))

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidQuantumNumberError):
            f_factor(6, 2, 4)
        with pytest.raises(InvalidQuantumNumberError):
            f_factor(2, 4, 0)


def brute_k_range(tj10, tm10, tj02, tm02, tj12, n=40):
    """k values admitting any all-valid count vector, by scanning."""
    valid = set()
    for k in range(0, n):
        for tl12 in range(-n, n + 1):
            q = (n, tj10, tj02, tm10, tm02, tj12, tl12, k)
            if counts8_from_qn8(q) is not None:
                valid.add(k)
                break
    return min(valid), max(valid)


class TestKBounds:
    """_moments has one moment per k of the binomial sum, so the number of
    moments is the width of the k range."""

    @staticmethod
    def check(args, k_min, k_max):
        assert k_range(*args) == list(range(k_min, k_max + 1))
        assert brute_k_range(*args) == (k_min, k_max)
        assert len(pathcount._moments(*args)[1]) == k_max - k_min + 1

    def test_centered(self):
        self.check((2, 0, 2, 0, 2), 0, 1)

    def test_opposite_m(self):
        self.check((2, 2, 2, -2, 2), 0, 0)

    def test_stretched_j12(self):
        self.check((3, 1, 2, 0, 5), 0, 0)


class TestUpsilon:
    @pytest.fixture
    def priors(self):
        return Priors(n=6, tj10=2, tj02=2, tj12=2, tm12=0)

    def test_worked_values(self, priors):
        assert upsilon_full_lattice(priors, 2, -2) == 1280
        assert upsilon_full_lattice(priors, 0, 0) == 160
        assert upsilon_full_lattice(priors, -2, 2) == 1280

    def test_matches_full_lattice_sum(self):
        # every prior with j1, j2 <= 3/2 up to n = 8, plus j <= 1 at n = 33
        # and 64, where G is large and the lattice spans many l12 values,
        # and high j: j1 = j2 = J = 10 at n = 2j, just above it and at 4j,
        # and j1 = j2 = J = 25 at n = 2j
        grid = [
            (n, tj1, tj2, tJ, tM)
            for tj1 in range(4)
            for tj2 in range(4)
            for tJ in j12_range(tj1, tj2)
            for tM in range(-tJ, tJ + 1, 2)
            for n in range(max(1, tj1 + tj2), 9)
        ]
        grid += [
            (n, tj1, tj2, tJ, tM)
            for n in (33, 64)
            for tj1, tj2, tJ, tM in ((2, 2, 2, 0), (2, 2, 0, 0), (2, 1, 1, -1), (1, 1, 2, 0))
        ]
        grid += [(n, 20, 20, 20, tM) for n in (40, 45, 80) for tM in (0, 2, 10, 20)]
        grid += [(100, 50, 50, 50, 0)]
        for n, tj1, tj2, tJ, tM in grid:
            priors = Priors(n=n, tj10=tj1, tj02=tj2, tj12=tJ, tm12=tM)
            pairs = allowed_m_pairs(tj1, tj2, tM)
            lattice = [upsilon_full_lattice(priors, tm10, tm02) for tm10, tm02 in pairs]
            assert probability_table(priors) == [
                (tm10, tm02, w / sum(lattice)) for (tm10, tm02), w in zip(pairs, lattice)
            ], priors

    def test_full_lattice_oracle_matches_literal_loop(self):
        # evaluating each lattice point once must not change the raw sum
        for priors in small_priors():
            for tm10, tm02 in allowed_m_pairs(priors.tj10, priors.tj02, priors.tm12):
                assert upsilon_full_lattice(priors, tm10, tm02) == literal_full_lattice(
                    priors, tm10, tm02
                ), (priors, tm10, tm02)


class TestProbabilityTable:
    def test_worked_example(self):
        table = probability_table(Priors(n=6, tj10=2, tj02=2, tj12=2, tm12=0))
        assert table == [
            (2, -2, Fraction(8, 17)),
            (0, 0, Fraction(1, 17)),
            (-2, 2, Fraction(8, 17)),
        ]

    def test_stretched_single_pair(self):
        for tj1, tj2 in ((2, 2), (3, 1), (1, 4)):
            tJ = tj1 + tj2
            table = probability_table(
                Priors(n=tJ, tj10=tj1, tj02=tj2, tj12=tJ, tm12=tJ)
            )
            assert table == [(tj1, tj2, Fraction(1))]

    def test_n8_symmetry_and_normalization(self):
        table = probability_table(Priors(n=8, tj10=2, tj02=2, tj12=2, tm12=0))
        assert len(table) == 3
        assert sum(p for _, _, p in table) == 1
        assert table[0][2] == table[2][2]

    def test_exact_normalization_on_grid(self):
        for n in range(4, 21, 4):
            for tJ in (0, 2, 4):
                for tM in range(-tJ, tJ + 1, 2):
                    priors = Priors(n=n, tj10=2, tj02=2, tj12=tJ, tm12=tM)
                    table = probability_table(priors)
                    assert sum(p for _, _, p in table) == 1

    def test_exchange_and_mirror_symmetry(self):
        # P(m1, m2 | j1, j2, J, M) = P(m2, m1 | j2, j1, J, M) and
        # P(m1, m2 | M) = P(-m1, -m2 | -M) for every prior with j1, j2 <= 3,
        # at the smallest n, just above it, 5 above it, n = 40 and n = 60
        for tj1 in range(7):
            for tj2 in range(7):
                for tJ in j12_range(tj1, tj2):
                    for tM in range(-tJ, tJ + 1, 2):
                        lo = max(1, tj1 + tj2)
                        for n in (lo, lo + 1, lo + 5, 40, 60):
                            table = probability_table(Priors(n, tj1, tj2, tJ, tM))
                            exchanged = probability_table(Priors(n, tj2, tj1, tJ, tM))
                            mirror = probability_table(Priors(n, tj1, tj2, tJ, -tM))
                            assert exchanged == [
                                (b, a, p) for a, b, p in reversed(table)
                            ], (n, tj1, tj2, tJ, tM)
                            assert table == [
                                (-a, -b, p) for a, b, p in reversed(mirror)
                            ], (n, tj1, tj2, tJ, tM)


class TestIntegerWeight:
    def test_matches_rational_reference(self):
        # every prior with j1, j2 <= 3, at the smallest n, just above it,
        # and at n where G is large
        for tj1 in range(7):
            for tj2 in range(7):
                for tJ in j12_range(tj1, tj2):
                    for tM in range(-tJ, tJ + 1, 2):
                        lo = max(1, tj1 + tj2)
                        for n in {lo, lo + 1, lo + 3, 17, 100, 10**9}:
                            priors = Priors(n=n, tj10=tj1, tj02=tj2, tj12=tJ, tm12=tM)
                            pairs = allowed_m_pairs(tj1, tj2, tM)
                            weights = [rational_weight(priors, a, b) for a, b in pairs]
                            expected = [
                                (a, b, w / sum(weights))
                                for (a, b), w in zip(pairs, weights)
                            ]
                            table = probability_table(priors)
                            assert table == expected, priors
                            assert all(type(p) is Fraction for _, _, p in table), priors

    def test_weight_is_an_int(self):
        rows = path_weights(Priors(n=10**9, tj10=6, tj02=5, tj12=3, tm12=1))
        assert [(tm10, tm02) for tm10, tm02, _ in rows] == allowed_m_pairs(6, 5, 1)
        assert all(type(w) is int for _, _, w in rows)
        pre, t = pathcount._moments(6, 2, 5, -1, 3)
        assert type(pre) is int and all(type(ts) is int for ts in t)

    def test_no_fraction_in_weight(self):
        for fn in (pathcount._moments, pathcount.path_weights):
            assert "Fraction" not in inspect.getsource(fn)

    def test_check_normalization_computes_each_weight_once(self, monkeypatch):
        calls = []
        moments = pathcount._moments

        def counted(*args):
            calls.append(args)
            return moments(*args)

        # every spincorr namespace that binds _moments
        for module in (pathcount, selftest):
            if hasattr(module, "_moments"):
                monkeypatch.setattr(module, "_moments", counted)
        assert check_normalization(12, 2) == []
        expected = [
            (tj1, tm10, tj2, tm02, tJ)
            for _, tj1, tj2, tJ, tM in _prior_grid(12, 2)
            for tm10, tm02 in allowed_m_pairs(tj1, tj2, tM)
        ]
        assert calls == expected


def finite_difference(values, order):
    """The order-th forward differences of a list of values."""
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values


class TestLimitIsCGSquared:
    """P -> CG^2 as an exact identity.  Each R_s is monic of degree x in G
    (see _moments), so every path_weights row is an integer polynomial in G,
    and so in n, of degree <= x; its G^x coefficients, normalized over the
    rows, are the limit of P as n grows, and must equal cg_squared."""

    def test_leading_coefficients_are_cg_squared(self):
        priors = rows = 0
        for tj1 in range(7):
            for tj2 in range(7):
                lo = max(1, tj1 + tj2)
                for tJ in j12_range(tj1, tj2):
                    x = (tj1 + tj2 - tJ) // 2
                    for tM in range(-tJ, tJ + 1, 2):
                        # x + 2 consecutive n: one more than degree x needs
                        tables = [
                            path_weights(Priors(n, tj1, tj2, tJ, tM))
                            for n in range(lo, lo + x + 2)
                        ]
                        leading = []
                        for row in zip(*tables):
                            top = finite_difference([w for _, _, w in row], x)
                            assert finite_difference(top, 1) == [0], (tj1, tj2, tJ, tM, row)
                            leading.append(top[0])
                        total = sum(leading)
                        assert [Fraction(c, total) for c in leading] == [
                            cg_squared(tj1, tj2, tm10, tm02, tJ, tM)
                            for tm10, tm02, _ in tables[0]
                        ], (tj1, tj2, tJ, tM)
                        priors += 1
                        rows += len(leading)
        assert (priors, rows) == (784, 2408)

    @pytest.mark.parametrize(
        "tj1, tj2, tJ, tM, rows",
        [
            (100, 100, 100, 0, 101),
            (100, 99, 51, 7, 97),
            (101, 97, 60, -10, 95),
            (100, 60, 140, 20, 61),
            (99, 101, 198, 0, 100),
            (100, 100, 0, 0, 101),
            (400, 400, 400, 0, 401),
        ],
    )
    def test_signed_amplitude_squared_is_cg_squared_at_high_j(self, tj1, tj2, tJ, tM, rows):
        """The G^x coefficient of each row (see _moments) is pre S0^2, with
        pre = c10! d10! c02! d02! and S0 the signed limit amplitude; over
        the rows it normalizes to cg_squared, Racah's z-sum, which shares no
        code with this binomial sum."""
        pairs = allowed_m_pairs(tj1, tj2, tM)
        assert len(pairs) == rows
        f = factorial
        leading = [
            f((tj1 + tm1) // 2) * f((tj1 - tm1) // 2) * f((tj2 + tm2) // 2) * f((tj2 - tm2) // 2)
            * TestLimitCarriesCGSigns.amplitude(tj1, tj2, tJ, tm1, tm2) ** 2
            for tm1, tm2 in pairs
        ]
        total = sum(leading)
        assert [Fraction(c, total) for c in leading] == [
            cg_squared(tj1, tj2, tm1, tm2, tJ, tM) for tm1, tm2 in pairs
        ]


class TestLimitCarriesCGSigns:
    """The limit amplitude a_J(m1, m2) = sum_k (-1)^k B_k, over k_range, is
    the z-sum of the binomial formula for the signed CG coefficient, whose
    square-root prefactor is a J-only constant times
    1 / (C(2j1, j1 - m1) C(2j2, j2 - m2)).  So CG orthogonality over J != J'
    at fixed M is a sum of exact rationals with no square root in it, and
    it fails if the signs (-1)^k are dropped."""

    @staticmethod
    def amplitude(tj1, tj2, tJ, tm1, tm2):
        x = (tj1 + tj2 - tJ) // 2
        d10, c02 = (tj1 - tm1) // 2, (tj2 + tm2) // 2
        return sum(
            (-1) ** k * comb(x, k) * comb(tj1 - x, d10 - k) * comb(tj2 - x, c02 - k)
            for k in k_range(tj1, tm1, tj2, tm2, tJ)
        )

    def test_amplitudes_of_different_j_are_orthogonal(self):
        pairs = 0
        for tj1 in range(9):
            for tj2 in range(9):
                tjs = range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
                for tM in range(-(tj1 + tj2), tj1 + tj2 + 1, 2):
                    m1s = [tm1 for tm1 in range(-tj1, tj1 + 1, 2) if abs(tM - tm1) <= tj2]
                    amplitudes = {
                        tJ: [self.amplitude(tj1, tj2, tJ, tm1, tM - tm1) for tm1 in m1s]
                        for tJ in tjs if abs(tM) <= tJ
                    }
                    weights = [comb(tj1, (tj1 - tm1) // 2) * comb(tj2, (tj2 - tM + tm1) // 2)
                               for tm1 in m1s]
                    for tJ, a in amplitudes.items():
                        for tJ2, a2 in amplitudes.items():
                            overlap = sum(Fraction(u * v, w) for u, v, w in zip(a, a2, weights))
                            if tJ == tJ2:
                                assert overlap > 0, (tj1, tj2, tJ, tM)
                            else:
                                assert overlap == 0, (tj1, tj2, tJ, tJ2, tM)
                                pairs += tJ < tJ2
        assert pairs == 2892


class TestExactAtEveryN:
    """Where the model is exactly QM: P_n = CG^2 at every tested n, every
    allowed pair has a single k term, and the priors are of one of four
    kinds; the three statements hold for exactly the same priors."""

    def test_exact_iff_single_k_term_iff_edge_priors(self):
        priors = exact = 0
        for tj1 in range(11):
            for tj2 in range(11):
                n0 = max(1, tj1 + tj2)
                for tJ in j12_range(tj1, tj2):
                    for tM in range(-tJ, tJ + 1, 2):
                        pairs = allowed_m_pairs(tj1, tj2, tM)
                        cg_rows = [(tm10, tm02, cg_squared(tj1, tj2, tm10, tm02, tJ, tM))
                                   for tm10, tm02 in pairs]
                        equal_cg2 = all(
                            probability_table(Priors(n, tj1, tj2, tJ, tM)) == cg_rows
                            for n in (n0, n0 + 1, n0 + 5, n0 + 40)
                        )
                        single_k = all(
                            len(k_range(tj1, tm10, tj2, tm02, tJ)) == 1
                            for tm10, tm02 in pairs
                        )
                        edge = (min(tj1, tj2) <= 1 or tJ == tj1 + tj2
                                or tJ == abs(tj1 - tj2) or abs(tM) == tJ)
                        assert equal_cg2 == single_k == edge, (tj1, tj2, tJ, tM)
                        priors += 1
                        exact += edge
        assert (priors, exact) == (4356, 2331)


class TestColumnCompleteness:
    """The (m1, m2) column sums sum_J P_n(m1, m2 | J, m1 + m2), over every J
    the pair allows, are exactly 1 at every n where a spin is <= 1/2, as the
    CG^2 columns are; otherwise, at every n, some column sum is not 1."""

    @staticmethod
    def column_sums(n, tj1, tj2):
        sums = {}
        for tJ in j12_range(tj1, tj2):
            for tM in range(-tJ, tJ + 1, 2):
                for tm1, tm2, p in probability_table(Priors(n, tj1, tj2, tJ, tM)):
                    sums[tm1, tm2] = sums.get((tm1, tm2), 0) + p
        return sums

    def test_complete_iff_a_spin_is_at_most_one_half(self):
        cases = 0
        for tj1 in range(7):
            for tj2 in range(7):
                lo = max(1, tj1 + tj2)
                for n in range(lo, lo + 6):
                    sums = self.column_sums(n, tj1, tj2)
                    assert len(sums) == (tj1 + 1) * (tj2 + 1)
                    complete = all(total == 1 for total in sums.values())
                    assert complete == (min(tj1, tj2) <= 1), (n, tj1, tj2, sums)
                    cases += 1
        assert cases == 294

    def test_one_one_at_n_6(self):
        sums = self.column_sums(6, 2, 2)
        assert sums.pop((2, -2)) == sums.pop((-2, 2)) == Fraction(33, 34)
        assert sums.pop((0, 0)) == Fraction(18, 17)
        assert sums == {pair: 1 for pair in itertools.product((2, 0, -2), repeat=2)
                        if pair not in ((2, -2), (0, 0), (-2, 2))}


class TestExactTableAtOneOneOne:
    """At j1 = j2 = J = 1, M = 0 the table is ((2G + 2), 1, (2G + 2)) / (4G + 5)
    with G = n - 3, so P - CG^2 = c1 / G + O(1 / G^2) with
    c1 = (-1/8, 1/4, -1/8)."""

    @staticmethod
    def closed_form(g):
        return [(2, -2, Fraction(2 * g + 2, 4 * g + 5)),
                (0, 0, Fraction(1, 4 * g + 5)),
                (-2, 2, Fraction(2 * g + 2, 4 * g + 5))]

    def test_every_n(self):
        for n in [*range(4, 401), 10**12]:
            assert probability_table(Priors(n, 2, 2, 2, 0)) == self.closed_form(n - 3), n

    def test_first_order_rate(self):
        g = 10**12 - 3
        c1 = [Fraction(-1, 8), Fraction(1, 4), Fraction(-1, 8)]
        for (tm1, tm2, p), c in zip(probability_table(Priors(10**12, 2, 2, 2, 0)), c1):
            assert abs(g * (p - cg_squared(2, 2, tm1, tm2, 2, 0)) - c) < Fraction(1, g)


class TestFirstOrderRate:
    """P - CG^2 = c1 / G + O(1 / G^2), read off _moments.  R_s(G) / c(G),
    with c(G) = (G + x)!/G!, is G!^2/((G - s)! (G + s)!) = 1 - s^2/G + O(1/G^2),
    so each weight over c(G) is f0 + f2 / G + O(1 / G^2), with
    f0 = pre sum_s t_s and f2 = -pre sum_s s^2 t_s.  With F = sum_rows f0,
    the limit is f0 / F and c1 = f2 / F - CG^2 sum_rows f2 / F."""

    def test_rate_from_moments_against_rational_weight(self):
        g = 10**30
        priors = rows = 0
        for tj1 in range(7):
            for tj2 in range(7):
                for tJ in j12_range(tj1, tj2):
                    for tM in range(-tJ, tJ + 1, 2):
                        pairs = allowed_m_pairs(tj1, tj2, tM)
                        f0, f2 = [], []
                        for tm10, tm02 in pairs:
                            pre, t = pathcount._moments(tj1, tm10, tj2, tm02, tJ)
                            f0.append(pre * sum(t))
                            f2.append(-pre * sum(s * s * ts for s, ts in enumerate(t)))
                        big = Priors(g + (tj1 + tj2 + tJ) // 2, tj1, tj2, tJ, tM)
                        weights = [rational_weight(big, tm10, tm02) for tm10, tm02 in pairs]
                        for (tm10, tm02), a, b, w in zip(pairs, f0, f2, weights):
                            cg2 = cg_squared(tj1, tj2, tm10, tm02, tJ, tM)
                            assert Fraction(a, sum(f0)) == cg2
                            c1 = Fraction(b, sum(f0)) - cg2 * Fraction(sum(f2), sum(f0))
                            p = w / sum(weights)
                            assert abs(g * (p - cg2) - c1) < Fraction(10**6, g), (
                                tj1, tj2, tJ, tM, tm10, tm02)
                        priors += 1
                        rows += len(pairs)
        assert (priors, rows) == (784, 2408)


def regge_symbols(tj_max):
    """The Regge symbol of every row (j1, j2, J, M, m1, m2) with 2j1, 2j2 <= tj_max."""
    for tj1 in range(tj_max + 1):
        for tj2 in range(tj_max + 1):
            for tJ in j12_range(tj1, tj2):
                for tM in range(-tJ, tJ + 1, 2):
                    for tm1, tm2 in allowed_m_pairs(tj1, tj2, tM):
                        yield (((tj2 + tJ - tj1) // 2, (tj1 + tJ - tj2) // 2,
                                (tj1 + tj2 - tJ) // 2),
                               ((tj1 - tm1) // 2, (tj2 - tm2) // 2, (tJ + tM) // 2),
                               ((tj1 + tm1) // 2, (tj2 + tm2) // 2, (tJ - tM) // 2))


def regge_images(r):
    """The distinct images of the 3x3 array r under its 72 row and column
    permutations and transpositions."""
    images = set()
    for rows in itertools.permutations(r):
        for cols in itertools.permutations(range(3)):
            image = tuple(tuple(row[c] for c in cols) for row in rows)
            images.update((image, tuple(zip(*image))))
    return images


def regge_s2(r, g):
    """S_G^2 of the Regge symbol r, from its path_weights row (see the
    _moments docstring)."""
    (r11, r12, r13), (d10, d02, tjm), (c10, c02, tjp) = r
    tj1, tj2, tJ = c10 + d10, c02 + d02, tjm + tjp
    tm10, tm02 = c10 - d10, c02 - d02
    f = factorial
    n = g + (tj1 + tj2 + tJ) // 2
    (w,) = [w for a, b, w in path_weights(Priors(n, tj1, tj2, tJ, tm10 + tm02))
            if (a, b) == (tm10, tm02)]
    q = Fraction(w, f(c10) * f(d10) * f(c02) * f(d02))
    return q / ((f(r11) * f(r12) * f(r13)) ** 2 * perm(g + r13, r13))


class TestReggeSymmetry:
    """The conjecture in the _moments docstring: S_G^2 is the same at all 72
    images of the Regge symbol.  Every image has the same j1 + j2 + J, so
    one G is one n, and G >= j1 + j2 + J puts every image above the n floor."""

    @pytest.mark.parametrize("extra", [1, 2, 6])
    def test_invariant_at_every_image(self, extra):
        rows = checks = 0
        for r in regge_symbols(4):
            g = sum(r[0]) + extra
            s2 = regge_s2(r, g)
            for image in regge_images(r):
                assert regge_s2(image, g) == s2, (r, image, g)
                checks += 1
            rows += 1
        assert (rows, checks) == (517, 12267)

    def test_moments_over_top_row_factorials_invariant(self):
        # the G-free form: u_s = t_s/(R11! R12! R13!)^2, trailing zeros
        # stripped, is the same at every distinct image, so S_G^2 is at every G;
        # images recur across rows, so each symbol's u is computed once
        @functools.cache
        def u(r):
            (r11, r12, r13), (d10, d02, tjm), (c10, c02, tjp) = r
            _, t = pathcount._moments(c10 + d10, c10 - d10, c02 + d02, c02 - d02, tjm + tjp)
            top = (factorial(r11) * factorial(r12) * factorial(r13)) ** 2
            scaled = [Fraction(ts, top) for ts in t]
            while scaled and not scaled[-1]:
                scaled.pop()
            return tuple(scaled)

        rows = checks = 0
        for r in regge_symbols(6):
            expected = u(r)
            for image in regge_images(r):
                assert u(image) == expected, (r, image)
                checks += 1
            rows += 1
        assert (rows, checks) == (2408, 78490)


@st.composite
def any_priors(draw):
    """A prior with j1, j2 <= 6, any J and M they allow, and n from
    2(j1 + j2) up to 10**6."""
    tj1 = draw(st.integers(0, 12))
    tj2 = draw(st.integers(0, 12))
    tJ = draw(st.sampled_from(j12_range(tj1, tj2)))
    tM = draw(st.sampled_from(range(-tJ, tJ + 1, 2)))
    n = draw(st.integers(max(1, tj1 + tj2), 10**6))
    return Priors(n=n, tj10=tj1, tj02=tj2, tj12=tJ, tm12=tM)


class TestPositivity:
    """The positivity proof in the _moments docstring, and the weights it
    makes positive."""

    @settings(max_examples=300, deadline=None)
    @given(any_priors())
    def test_every_weight_is_a_positive_int(self, priors):
        pairs = allowed_m_pairs(priors.tj10, priors.tj02, priors.tm12)
        assert pairs
        for tm10, tm02 in pairs:
            assert k_range(priors.tj10, tm10, priors.tj02, tm02, priors.tj12)
        rows = path_weights(priors)
        assert [(tm10, tm02) for tm10, tm02, _ in rows] == pairs
        for _, _, w in rows:
            assert type(w) is int and w > 0

    def test_toeplitz_matrix_is_positive_definite(self):
        # step 1: R_s(G) C(2G, G) = c(G) C(2G, G + s), and exact elimination
        # of M[i, k] = (-1)^(i - k) R_|i-k|(G) meets only positive pivots
        matrices = 0
        for x in range(9):
            for g in range(61):
                r = [perm(g, s) * perm(g + x, x - s) for s in range(x + 1)]
                assert [rs * comb(2 * g, g) for rs in r] == [
                    perm(g + x, x) * comb(2 * g, g + s) for s in range(x + 1)]
                m = [[Fraction((-1) ** (i - k) * r[abs(i - k)]) for k in range(x + 1)]
                     for i in range(x + 1)]
                for p in range(x + 1):
                    assert m[p][p] > 0, (x, g, p)
                    for i in range(p + 1, x + 1):
                        factor = m[i][p] / m[p][p]
                        for k in range(p, x + 1):
                            m[i][k] -= factor * m[p][k]
                matrices += 1
        assert matrices == 549

    def test_witness_has_one_nonzero_phi(self):
        # at l12 = k_min + j12 - n/2 only k = k_min gives a non-zero phi: a
        # true property of phi, though the positivity proof no longer uses it
        for priors in small_priors(n_max=8, tj_max=4):
            for tm10, tm02 in allowed_m_pairs(priors.tj10, priors.tj02, priors.tm12):
                k_min = k_range(priors.tj10, tm10, priors.tj02, tm02, priors.tj12)[0]
                tl12 = 2 * k_min - priors.n + priors.tj12
                nonzero = [
                    k for k in range(priors.n + 1)
                    if phi((priors.n, priors.tj10, priors.tj02, tm10, tm02,
                            priors.tj12, tl12, k))
                ]
                assert nonzero == [k_min], (priors, tm10, tm02)

    @pytest.mark.parametrize("spoil", [lambda w: 0, lambda w: -w], ids=["zero", "negated"])
    def test_check_normalization_reports_non_positive_weight(self, monkeypatch, spoil):
        spoiled = Priors(n=6, tj10=2, tj02=2, tj12=2, tm12=0)

        def one_spoiled(priors):
            return [
                (tm10, tm02, spoil(w) if (priors, tm10, tm02) == (spoiled, 0, 0) else w)
                for tm10, tm02, w in path_weights(priors)
            ]

        monkeypatch.setattr(selftest, "path_weights", one_spoiled)
        assert check_normalization(6, 2) == [
            f"non-positive path count for {spoiled}, pair (0, 0)"
        ]
