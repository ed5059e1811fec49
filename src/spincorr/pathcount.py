"""Exact path-counting probabilities for interacting spin systems.

Given the priors (n, j10, j02, j12, m12), the probability of observing a
particular (m10, m02) is a normalized, interference-weighted count of
local-quantum-number-conserving pairings between two ensembles of base-8
sequences.  Everything is big-integer / rational; no floating point enters
any result.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import ConstraintError, DegeneratePriorsError, InvalidQuantumNumberError
from .halfint import format_half_integer
from .quantum_numbers import QN8, counts8_from_qn8
from .selection import allowed_m_pairs, check_triangle

log = logging.getLogger(__name__)

_FACTORIALS: List[int] = [1]


def _fact(n: int) -> int:
    """Cached factorial; the cache is append-only and read-mostly."""
    if n >= len(_FACTORIALS):
        for i in range(len(_FACTORIALS), n + 1):
            _FACTORIALS.append(_FACTORIALS[-1] * i)
    return _FACTORIALS[n]


@dataclass(frozen=True)
class Priors:
    """The known quantum numbers of a decay / composition experiment."""

    n: int
    tj10: int
    tj02: int
    tj12: int
    tm12: int

    def __post_init__(self):
        if not check_triangle(self.tj10, self.tj02, self.tj12):
            raise ConstraintError(
                "triangle rule violated: |j10 - j02| <= j12 <= j10 + j02 "
                "with integer perimeter, got j10=%s j02=%s j12=%s"
                % tuple(format_half_integer(t) for t in (self.tj10, self.tj02, self.tj12))
            )
        if abs(self.tm12) > self.tj12 or (self.tj12 + self.tm12) % 2:
            raise InvalidQuantumNumberError(
                "m12 must satisfy -j12 <= m12 <= j12 in integer steps"
            )
        if self.n < self.tj10 + self.tj02:
            raise ConstraintError(
                f"n = {self.n} is below 2(j10 + j02) = {self.tj10 + self.tj02}"
            )


def phi(q: QN8) -> int:
    """Number of base-8 sequences carrying exactly q's quantum numbers:
    the multinomial n! over the factorials of all eight counts, or 0 when
    the counts are invalid."""
    counts = counts8_from_qn8(q)
    if counts is None:
        return 0
    result = _fact(q.n)
    for c in counts.values():
        result //= _fact(c)
    return result


def f_factor(n: int, tj: int, tm: int) -> Fraction:
    """Measurement factor C!D!(n-C-D)!/n! with C=j+m, D=j-m.

    The same formula serves both observers; only (j, m) differ.
    """
    if tj < 0 or abs(tm) > tj or (tj + tm) % 2:
        raise InvalidQuantumNumberError("f_factor needs -j <= m <= j in integer steps")
    if tj > n:
        raise InvalidQuantumNumberError(f"2j = {tj} exceeds n = {n}")
    c = (tj + tm) // 2
    d = (tj - tm) // 2
    return Fraction(_fact(c) * _fact(d) * _fact(n - c - d), _fact(n))


def k_bounds(tj10: int, tm10: int, tj02: int, tm02: int, tj12: int) -> Tuple[int, int]:
    """Range of the non-local count k compatible with the given j's and m's.

    May be empty (k_min > k_max).
    """
    x = (tj10 + tj02 - tj12) // 2
    c10 = (tj10 + tm10) // 2
    d10 = (tj10 - tm10) // 2
    c02 = (tj02 + tm02) // 2
    d02 = (tj02 - tm02) // 2
    k_min = max(0, x - min(c10, d02))
    k_max = min(x, min(c02, d10))
    return k_min, k_max


def l12_bounds(priors: Priors, k_a: int, k_b: int) -> Tuple[int, int]:
    """Doubled l12 range on which both observers' counts can be valid."""
    x = (priors.tj10 + priors.tj02 - priors.tj12) // 2
    tl_min = -priors.n + priors.tj12 + 2 * max(k_a, k_b)
    tl_max = priors.n - priors.tj12 - 2 * max(x - k_a, x - k_b)
    return tl_min, tl_max


def upsilon(priors: Priors, tm10: int, tm02: int) -> Fraction:
    """Signed, interference-weighted path count for one (m10, m02) outcome."""
    if tm10 + tm02 != priors.tm12:
        raise InvalidQuantumNumberError("m10 + m02 must equal the prior m12")
    if abs(tm10) > priors.tj10 or abs(tm02) > priors.tj02:
        raise InvalidQuantumNumberError("m10, m02 must lie within their j ranges")
    f_a = f_factor(priors.n, priors.tj10, tm10)
    f_b = f_factor(priors.n, priors.tj02, tm02)

    k_min, k_max = k_bounds(priors.tj10, tm10, priors.tj02, tm02, priors.tj12)
    phi_cache: Dict[Tuple[int, int], int] = {}

    def phi_at(tl12: int, k: int) -> int:
        key = (tl12, k)
        if key not in phi_cache:
            phi_cache[key] = phi(
                QN8(
                    n=priors.n,
                    tj10=priors.tj10,
                    tj02=priors.tj02,
                    tm10=tm10,
                    tm02=tm02,
                    tj12=priors.tj12,
                    tl12=tl12,
                    k=k,
                )
            )
        return phi_cache[key]

    total = 0
    for k_a in range(k_min, k_max + 1):
        for k_b in range(k_min, k_max + 1):
            sign = -1 if (k_b - k_a) % 2 else 1
            tl_lo, tl_hi = l12_bounds(priors, k_a, k_b)
            for tl12 in range(tl_lo, tl_hi + 1, 2):
                total += sign * phi_at(tl12, k_a) * phi_at(tl12, k_b)
    return f_a * f_b * total


def probability_table(priors: Priors) -> List[Tuple[int, int, Fraction]]:
    """Normalized probability for every allowed (m10, m02) pair,
    in descending m10 order; entries sum to exactly 1."""
    pairs = allowed_m_pairs(priors.tj10, priors.tj02, priors.tm12)
    if not pairs:
        raise DegeneratePriorsError("no (m10, m02) pair is allowed by the priors")
    weights = []
    for tm10, tm02 in pairs:
        w = upsilon(priors, tm10, tm02)
        if w < 0:
            log.warning(
                "negative path count %s for (m10, m02) = (%s, %s) under %s",
                w,
                format_half_integer(tm10),
                format_half_integer(tm02),
                priors,
            )
        weights.append(w)
    norm = sum(weights)
    if norm == 0:
        raise DegeneratePriorsError(
            "all path counts vanished; the probability table is undefined"
        )
    return [
        (tm10, tm02, w / norm) for (tm10, tm02), w in zip(pairs, weights)
    ]
