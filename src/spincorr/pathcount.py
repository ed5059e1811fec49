"""Exact path-counting probabilities for interacting spin systems.

Given the priors (n, j10, j02, j12, m12), the probability of observing a
particular (m10, m02) is a normalized, interference-weighted count of
local-quantum-number-conserving pairings between two ensembles of base-8
sequences.  Everything is big-integer / rational; no floating point enters
any result.

The count is evaluated in closed form: its sum over l12 is a Chu-Vandermonde
convolution (Petkovsek, Wilf, Zeilberger, "A=B", chapters 3 and 5), and the
(k_a, k_b) sum it leaves is an integer binomial sum, the classical form of
the CG coefficient (Varshalovich, Moskalev, Khersonskii 1988, section 8.2);
see _weight.  The factor it drops holds every n!-sized integer and is the
same for every (m10, m02) pair of the priors, so probability_table
normalizes without it, never builds it, and its cost does not grow with n.
selftest.upsilon_full_lattice keeps the raw lattice sum as the independent
oracle, and the selftest compares probability_table with it, normalized, row
by row.  That sum's multinomial phi and measurement factor f_factor are
oracles too and live in quantum_numbers, which this module does not import.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, perm
from typing import List, Tuple

from .errors import ConstraintError, InvalidQuantumNumberError
from .halfint import format_half_integer
from .selection import allowed_m_pairs, check_projection, check_triangle, g12_range


class Priors(namedtuple("Priors", "n tj10 tj02 tj12 tm12")):
    """The known quantum numbers of a decay / composition experiment:
    an immutable, validated named tuple.  It holds the closed form's n floor
    n >= 2(j10 + j02), where the lower bound of g12_range is not negative."""

    __slots__ = ()

    def __new__(cls, n: int, tj10: int, tj02: int, tj12: int, tm12: int):
        if not check_triangle(tj10, tj02, tj12):
            raise ConstraintError(
                "triangle rule violated: |j10 - j02| <= j12 <= j10 + j02 "
                "with integer perimeter, got j10=%s j02=%s j12=%s"
                % tuple(format_half_integer(t) for t in (tj10, tj02, tj12))
            )
        if not check_projection(tj12, tm12):
            raise InvalidQuantumNumberError(
                "m12 must satisfy -j12 <= m12 <= j12 in integer steps"
            )
        if g12_range(n, tj10, tj02)[0] < 0:
            raise ConstraintError(f"n = {n} is below 2(j10 + j02) = {tj10 + tj02}")
        if n < 1:
            raise InvalidQuantumNumberError("n must be positive")
        return super().__new__(cls, n, tj10, tj02, tj12, tm12)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make (and _replace, which calls it) skips __new__
        return cls(*iterable)


def k_bounds(tj10: int, tm10: int, tj02: int, tm02: int, tj12: int) -> Tuple[int, int]:
    """Range of the non-local count k compatible with the given j's and m's.

    Empty (k_min > k_max) only for a pair outside allowed_m_pairs; see _weight.
    """
    x = (tj10 + tj02 - tj12) // 2
    c10 = (tj10 + tm10) // 2
    d10 = (tj10 - tm10) // 2
    c02 = (tj02 + tm02) // 2
    d02 = (tj02 - tm02) // 2
    k_min = max(0, x - min(c10, d02))
    k_max = min(x, min(c02, d10))
    return k_min, k_max


def _weight(priors: Priors, tm10: int, tm02: int) -> int:
    """Path count of one (m10, m02) outcome, as an integer, divided by the
    positive, pair-independent K G! / ((G + x)! D^2), where
    K = (n - 2j10)! (n - 2j02)! (2G)! / G!^4, G = n - j10 - j02 - j12,
    x = j10 + j02 - j12 and D = x! (2j10 - x)! (2j02 - x)!.

    Only the (000) and (111) counts depend on l12, and they sum to G, so
    the l12 sum of phi_a * phi_b is n!^2 C(2G, G + s) / (G!^2 P_a P_b), with
    s = k_b - k_a and P_k the other six count factorials.  These pair up to
    x, 2j10 - x and 2j02 - x, so D / P_k is the integer
    B_k = C(x, k) C(2j10 - x, d10 - k) C(2j02 - x, c02 - k), and
    C(2G, G + s) (G + x)! / (C(2G, G) G!) is R_s = G!/(G - s)! (G + x)!/(G + s)!.
    The n!^2 cancels against f_a f_b, so with A_s = sum_i B_i B_(i+s) the
    weight is c10! d10! c02! d02! sum_s (-1)^s (2 if s else 1) R_s A_s.

    Every weight is positive, so every table is a probability distribution:
    1. The raw lattice sum is f_a f_b times
       sum_(k_a, k_b) (-1)^(k_a + k_b) sum_l12 phi(k_a, l12) phi(k_b, l12)
       = sum_l12 (sum_k (-1)^k phi(k, l12))^2 >= 0, the sum of squares that
       selftest.upsilon_full_lattice computes, and the weight is the raw sum
       divided by the positive factor above.
    2. At l12 = k_min + j12 - n/2 the (000) count is k_min - k and the (111)
       count G + k - k_min, with G >= 0 as n >= 2(j10 + j02).  So phi vanishes
       above k_min, and below it, where k, k - x + c10 or k - x + d02 is < 0;
       at k_min every count is >= 0 (step 4).  With one k term non-zero, that
       l12's square, and so the sum, is positive.
    3. Priors makes allowed_m_pairs non-empty: as |m12| <= j12 <= j10 + j02,
       m10 = max(-j10, m12 - j02) puts both m's in range, and the integral
       perimeter gives m02 = m12 - m10 the parity of j02.
    4. k_min <= k_max for every allowed pair: of the nine inequalities, x >= 0,
       x <= 2j10 and x <= 2j02 are the triangle rule, x <= c10 + c02 and
       x <= d10 + d02 are |m12| <= j12, and the other four say c10, d10, c02
       or d02 is >= 0.
    """
    x = (priors.tj10 + priors.tj02 - priors.tj12) // 2
    g = priors.n - (priors.tj10 + priors.tj02 + priors.tj12) // 2
    c10, d10 = (priors.tj10 + tm10) // 2, (priors.tj10 - tm10) // 2
    c02, d02 = (priors.tj02 + tm02) // 2, (priors.tj02 - tm02) // 2
    k_min, k_max = k_bounds(priors.tj10, tm10, priors.tj02, tm02, priors.tj12)
    b = [comb(x, k) * comb(priors.tj10 - x, d10 - k) * comb(priors.tj02 - x, c02 - k)
         for k in range(k_min, k_max + 1)]
    total = sum(
        (-1) ** s * (2 if s else 1) * perm(g, s) * perm(g + x, x - s)
        * sum(b[i] * b[i + s] for i in range(len(b) - s))
        for s in range(len(b))
    )
    return factorial(c10) * factorial(d10) * factorial(c02) * factorial(d02) * total


def path_weights(priors: Priors) -> List[Tuple[int, int, int]]:
    """The positive integer _weight of every allowed (m10, m02) pair, in
    descending m10 order; there is at least one pair (see _weight)."""
    return [
        (tm10, tm02, _weight(priors, tm10, tm02))
        for tm10, tm02 in allowed_m_pairs(priors.tj10, priors.tj02, priors.tm12)
    ]


def normalize(weights: List[Tuple[int, int, int]]) -> List[Tuple[int, int, Fraction]]:
    """Each row of path_weights divided by their sum, as a Fraction; the sum
    is positive because every weight is."""
    norm = sum(w for _, _, w in weights)
    return [(tm10, tm02, Fraction(w, norm)) for tm10, tm02, w in weights]


def probability_table(priors: Priors) -> List[Tuple[int, int, Fraction]]:
    """Normalized probability for every allowed (m10, m02) pair,
    in descending m10 order; entries sum to exactly 1."""
    return normalize(path_weights(priors))
