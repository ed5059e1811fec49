import inspect
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from spincorr import pathcount, selftest
from spincorr.brute import phi_by_enumeration
from spincorr.errors import ConstraintError, InvalidQuantumNumberError
from spincorr.pathcount import Priors, k_bounds, probability_table
from spincorr.quantum_numbers import QN8, counts8_from_qn8, f_factor, phi
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
                    QN8(priors.n, priors.tj10, priors.tj02, tm10, tm02,
                        priors.tj12, tl12, k_a)
                )
                if pa == 0:
                    continue
                pb = phi(
                    QN8(priors.n, priors.tj10, priors.tj02, tm10, tm02,
                        priors.tj12, tl12, k_b)
                )
                total += sign * pa * pb
    return f_a * f_b * total


def rational_weight(priors, tm10, tm02):
    """The closed form as a sum of Fractions: over the (k_a, k_b) pairs of
    k_bounds, (-1)^s r(|s|) / (P_a P_b) times c10! d10! c02! d02!, with
    r(s) = prod_{i=1..s} (G - i + 1) / (G + i) and P_k the six count
    factorials.  It differs from _weight by a positive, pair-independent
    factor, so both normalize to the same table."""
    x = (priors.tj10 + priors.tj02 - priors.tj12) // 2
    g = priors.n - (priors.tj10 + priors.tj02 + priors.tj12) // 2
    c10, d10 = (priors.tj10 + tm10) // 2, (priors.tj10 - tm10) // 2
    c02, d02 = (priors.tj02 + tm02) // 2, (priors.tj02 - tm02) // 2
    k_min, k_max = k_bounds(priors.tj10, tm10, priors.tj02, tm02, priors.tj12)
    f = factorial
    inv_p = {
        k: Fraction(1, f(k) * f(x - k) * f(k - x + c10) * f(k - x + d02)
                    * f(d10 - k) * f(c02 - k))
        for k in range(k_min, k_max + 1)
    }
    r = [Fraction(1)]
    for i in range(1, k_max - k_min + 1):
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


def qn8(n, j10, j02, m10, m02, j12, l12, k):
    """Doubled-integer shorthand for the worked cases."""
    return QN8(n=n, tj10=j10, tj02=j02, tm10=m10, tm02=m02, tj12=j12, tl12=l12, k=k)


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
    def test_centered_case(self):
        # n=6, j's = 1, m's = 0, l12 = -1, k = 0
        assert phi(qn8(6, 2, 2, 0, 0, 2, -2, 0)) == 360

    def test_opposite_m_case(self):
        assert phi(qn8(6, 2, 2, 2, -2, 2, 2, 0)) == 120

    def test_single_symbol(self):
        assert phi(qn8(5, 0, 0, 0, 0, 0, 5, 0)) == 1

    def test_invalid_is_zero(self):
        assert phi(qn8(6, 2, 2, 2, -2, 2, 2, 1)) == 0

    @pytest.mark.parametrize(
        "q",
        [
            qn8(6, 2, 2, 0, 0, 2, -2, 0),
            qn8(6, 2, 2, 2, -2, 2, 2, 0),
            qn8(4, 2, 1, 1, -1, 1, 0, 0),
            qn8(3, 0, 0, 0, 0, 0, 3, 0),
        ],
    )
    def test_matches_enumeration(self, q):
        assert phi(q) == phi_by_enumeration(q)


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
            q = QN8(n=n, tj10=tj10, tj02=tj02, tm10=tm10, tm02=tm02,
                    tj12=tj12, tl12=tl12, k=k)
            if counts8_from_qn8(q) is not None:
                valid.add(k)
                break
    return min(valid), max(valid)


class TestKBounds:
    def test_centered(self):
        assert k_bounds(2, 0, 2, 0, 2) == (0, 1)
        assert k_bounds(2, 0, 2, 0, 2) == brute_k_range(2, 0, 2, 0, 2)

    def test_opposite_m(self):
        assert k_bounds(2, 2, 2, -2, 2) == (0, 0)
        assert k_bounds(2, 2, 2, -2, 2) == brute_k_range(2, 2, 2, -2, 2)

    def test_stretched_j12(self):
        assert k_bounds(3, 1, 2, 0, 5) == (0, 0)


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
        # and 64, where G is large and the lattice spans many l12 values
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

    def test_mirror_symmetry_at_zero_m12(self):
        # P(m1, m2 | J, M) = P(-m1, -m2 | J, -M) for every prior with
        # j1, j2 <= 3, at the smallest n, one above it, and n = 60
        for tj1 in range(7):
            for tj2 in range(7):
                for tJ in j12_range(tj1, tj2):
                    for tM in range(-tJ, tJ + 1, 2):
                        lo = max(1, tj1 + tj2)
                        for n in (lo, lo + 1, 60):
                            table = probability_table(Priors(n, tj1, tj2, tJ, tM))
                            mirror = probability_table(Priors(n, tj1, tj2, tJ, -tM))
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
        priors = Priors(n=10**9, tj10=6, tj02=5, tj12=3, tm12=1)
        for tm10, tm02 in allowed_m_pairs(6, 5, 1):
            assert type(pathcount._weight(priors, tm10, tm02)) is int

    def test_no_fraction_in_weight(self):
        assert "Fraction" not in inspect.getsource(pathcount._weight)

    def test_check_normalization_computes_each_weight_once(self, monkeypatch):
        calls = []
        weight = pathcount._weight

        def counted(priors, tm10, tm02):
            calls.append((priors, tm10, tm02))
            return weight(priors, tm10, tm02)

        # every spincorr namespace that binds _weight
        for module in (pathcount, selftest):
            if hasattr(module, "_weight"):
                monkeypatch.setattr(module, "_weight", counted)
        assert check_normalization(12, 2) == []
        expected = [
            (Priors(*prior), tm10, tm02)
            for prior in _prior_grid(12, 2)
            for tm10, tm02 in allowed_m_pairs(*prior[1:3], prior[4])
        ]
        assert calls == expected


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
    """The steps of the positivity proof in the _weight docstring."""

    @settings(max_examples=300, deadline=None)
    @given(any_priors())
    def test_every_weight_is_a_positive_int(self, priors):
        pairs = allowed_m_pairs(priors.tj10, priors.tj02, priors.tm12)
        assert pairs
        for tm10, tm02 in pairs:
            k_min, k_max = k_bounds(priors.tj10, tm10, priors.tj02, tm02, priors.tj12)
            assert k_min <= k_max
            w = pathcount._weight(priors, tm10, tm02)
            assert type(w) is int and w > 0

    def test_witness_has_one_nonzero_phi(self):
        # at l12 = k_min + j12 - n/2 only k = k_min gives a non-zero phi
        for priors in small_priors(n_max=8, tj_max=4):
            for tm10, tm02 in allowed_m_pairs(priors.tj10, priors.tj02, priors.tm12):
                k_min, _ = k_bounds(priors.tj10, tm10, priors.tj02, tm02, priors.tj12)
                tl12 = 2 * k_min - priors.n + priors.tj12
                nonzero = [
                    k for k in range(priors.n + 1)
                    if phi(QN8(priors.n, priors.tj10, priors.tj02, tm10, tm02,
                               priors.tj12, tl12, k))
                ]
                assert nonzero == [k_min], (priors, tm10, tm02)

    @pytest.mark.parametrize("spoil", [lambda w: 0, lambda w: -w], ids=["zero", "negated"])
    def test_check_normalization_reports_non_positive_weight(self, monkeypatch, spoil):
        weight = pathcount._weight
        spoiled = Priors(n=6, tj10=2, tj02=2, tj12=2, tm12=0)

        def one_spoiled(priors, tm10, tm02):
            w = weight(priors, tm10, tm02)
            return spoil(w) if (priors, tm10, tm02) == (spoiled, 0, 0) else w

        monkeypatch.setattr(pathcount, "_weight", one_spoiled)
        assert check_normalization(6, 2) == [
            f"non-positive path count for {spoiled}, pair (0, 0)"
        ]
