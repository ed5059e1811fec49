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
see _moments.  The factor it drops holds every n!-sized integer and is the
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

from .errors import ConstraintError, InvalidQuantumNumberError
from .halfint import format_half_integer
from .records import Record
from .selection import allowed_m_pairs, check_triangle, g12_range, require_projection


class Priors(Record, namedtuple("Priors", "n tj10 tj02 tj12 tm12")):
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
        require_projection(tj12, tm12, "m12", "j12")
        if n < 1:
            raise InvalidQuantumNumberError("n must be positive")
        if g12_range(n, tj10, tj02)[0] < 0:
            raise ConstraintError(f"n = {n} is below 2(j10 + j02) = {tj10 + tj02}")
        return super().__new__(cls, n, tj10, tj02, tj12, tm12)


def _moments(tj10: int, tm10: int, tj02: int, tm02: int, tj12: int) -> tuple[int, list[int]]:
    """The n-free part of the weight of one (m10, m02) outcome: the prefactor
    pre = c10! d10! c02! d02! and the moments t_s = (-1)^s (2 if s else 1) A_s.
    At length n the weight is pre sum_s t_s R_s(G), with G = n - j10 - j02 - j12
    and R_s(G) = G!/(G - s)! (G + x)!/(G + s)!, the same for every pair.

    It is the path count divided by the positive, pair-independent
    K G! / ((G + x)! D^2), where K = (n - 2j10)! (n - 2j02)! (2G)! / G!^4,
    x = j10 + j02 - j12 and D = x! (2j10 - x)! (2j02 - x)!.  Only the (000)
    and (111) counts depend on l12, and they sum to G, so the l12 sum of
    phi_a * phi_b is n!^2 C(2G, G + s) / (G!^2 P_a P_b), with s = k_b - k_a
    and P_k the other six count factorials.  These pair up to x, 2j10 - x and
    2j02 - x, so D / P_k is B_k = C(x, k) C(2j10 - x, d10 - k) C(2j02 - x, c02 - k),
    for k from k_min = max(0, x - min(c10, d02)) to k_max = min(x, c02, d10),
    and C(2G, G + s) (G + x)! / (C(2G, G) G!) is R_s(G).  The n!^2 cancels
    against f_a f_b, and with A_s = sum_i B_i B_(i+s) the weight is
    pre b^T M(G) b, where M[i, k] = (-1)^(i - k) R_|i-k|(G).  Each R_s is
    monic of degree x in G, so as G grows the weights over G^x tend to
    pre sum_s t_s = pre (sum_k (-1)^k B_k)^2.

    Every weight is positive, so every table is a probability distribution:
    1. R_s(G) = c(G) C(2G, G + s) / C(2G, G), with c(G) = (G + x)!/G!, and
       (-1)^s C(2G, G + s) is the s-th Fourier coefficient of
       (2 sin(theta/2))^(2G) = |1 - e^(i theta)|^(2G), which is >= 0 and is
       zero only at theta = 0.  So for every b != 0
       b^T M(G) b = c(G) / C(2G, G) (1/2 pi) int (2 sin(theta/2))^(2G)
       |sum_k b_k e^(i k theta)|^2 d theta > 0, and the Toeplitz matrix M(G)
       is positive definite for every G >= 0 (Grenander and Szego, Toeplitz
       Forms and Their Applications, 1958).  Every B_k with k from k_min to
       k_max is a product of binomials in range, so b != 0 when that range is
       not empty (step 3).
    2. Priors makes allowed_m_pairs non-empty: as |m12| <= j12 <= j10 + j02,
       m10 = max(-j10, m12 - j02) puts both m's in range, and the integral
       perimeter gives m02 = m12 - m10 the parity of j02.
    3. k_min <= k_max for every allowed pair: of the nine inequalities, x >= 0,
       x <= 2j10 and x <= 2j02 are the triangle rule, x <= c10 + c02 and
       x <= d10 + d02 are |m12| <= j12, and the other four say c10, d10, c02
       or d02 is >= 0.

    Conjecture (tested, not proved): let R be the Regge symbol of
    (j10 j02 j12; m10 m02 -m12), whose rows are (j02 + j12 - j10,
    j10 + j12 - j02, x), the three j - m and the three j + m.  Then
    S_G^2 = Q / ((R11! R12! R13!)^2 (G + x)!/G!), with Q = sum_s t_s R_s(G)
    the weight over pre, is the same at all 72 row and column permutations
    and transpositions of R, as Racah's S^2 of the 3j symbol is.  Free of G:
    S_G^2 = sum_s u_s G!^2/((G - s)! (G + s)!), u_s = t_s/(R11! R12! R13!)^2,
    over independent functions of G free of x, so at every G it says that
    u, trailing zeros stripped, is the same at every image.
    """
    x = (tj10 + tj02 - tj12) // 2
    c10, d10 = (tj10 + tm10) // 2, (tj10 - tm10) // 2
    c02, d02 = (tj02 + tm02) // 2, (tj02 - tm02) // 2
    b = [comb(x, k) * comb(tj10 - x, d10 - k) * comb(tj02 - x, c02 - k)
         for k in range(max(0, x - min(c10, d02)), min(x, c02, d10) + 1)]
    pre = factorial(c10) * factorial(d10) * factorial(c02) * factorial(d02)
    return pre, [(-1) ** s * (2 if s else 1) * sum(b[i] * b[i + s] for i in range(len(b) - s))
                 for s in range(len(b))]


def path_weights(priors: Priors) -> list[tuple[int, int, int]]:
    """The positive integer weight pre sum_s t_s R_s(G) of every allowed
    (m10, m02) pair, in descending m10 order; there is at least one (see _moments)."""
    x = (priors.tj10 + priors.tj02 - priors.tj12) // 2
    g = priors.n - (priors.tj10 + priors.tj02 + priors.tj12) // 2
    r = [perm(g, s) * perm(g + x, x - s) for s in range(x + 1)]
    weights = []
    for tm10, tm02 in allowed_m_pairs(priors.tj10, priors.tj02, priors.tm12):
        pre, t = _moments(priors.tj10, tm10, priors.tj02, tm02, priors.tj12)
        weights.append((tm10, tm02, pre * sum(ts * rs for ts, rs in zip(t, r))))
    return weights


def normalize(weights: list[tuple[int, int, int]]) -> list[tuple[int, int, Fraction]]:
    """Each row of path_weights divided by their sum, as a Fraction; the sum
    is positive because every weight is."""
    norm = sum(w for _, _, w in weights)
    return [(tm10, tm02, Fraction(w, norm)) for tm10, tm02, w in weights]


def probability_table(priors: Priors) -> list[tuple[int, int, Fraction]]:
    """Normalized probability for every allowed (m10, m02) pair,
    in descending m10 order; entries sum to exactly 1."""
    return normalize(path_weights(priors))
