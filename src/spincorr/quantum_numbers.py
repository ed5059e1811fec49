"""Conversions between symbol counts and relational quantum numbers.

Base-4 counts (A~, B~, C~, D~) define j, m, g, l for one two-point
correlation.  Base-8 counts define the eight-number set (n, j10, j02, m10,
m02, j12, l12, k) for a three-point correlation; the column convention is
column 1 = sequence "1", column 2 = the reference, column 3 = sequence "2",
so a base-8 symbol reads (x1, x0, x2) and the (10), (02), (12) pairs are the
first two, last two and outer two bits respectively.

All quantum numbers are doubled integers (see halfint); k, being itself a
count, is a plain integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict, Optional, Tuple

from .errors import InvalidQuantumNumberError
from .halfint import format_half_integer
from .selection import check_projection
from .sequences import PAIR_OF_ALIAS, CorrSeq, alphabet, count_symbols

Counts4 = Dict[Tuple[int, int], int]
Counts8 = Dict[Tuple[int, int, int], int]

A, B, C, D = (PAIR_OF_ALIAS[alias] for alias in "ABCD")

SYMBOLS8 = alphabet(3)


@dataclass(frozen=True)
class QN4:
    """Quantum numbers of one base-4 sequence, as doubled integers."""

    tj: int
    tm: int
    tg: int
    tl: int

    def __post_init__(self):
        for tv, name in ((self.tj, "j"), (self.tg, "g")):
            if tv < 0:
                raise InvalidQuantumNumberError(f"{name} must be nonnegative")
        if not -self.tj <= self.tm <= self.tj:
            raise InvalidQuantumNumberError("m must satisfy -j <= m <= j")
        if not -self.tg <= self.tl <= self.tg:
            raise InvalidQuantumNumberError("l must satisfy -g <= l <= g")
        if (self.tj + self.tm) % 2 or (self.tg + self.tl) % 2:
            raise InvalidQuantumNumberError(
                "j+-m and g+-l must be integers (counts are integral)"
            )

    @property
    def n(self) -> int:
        return self.tj + self.tg

    @property
    def j(self) -> Fraction:
        return Fraction(self.tj, 2)

    @property
    def m(self) -> Fraction:
        return Fraction(self.tm, 2)

    @property
    def g(self) -> Fraction:
        return Fraction(self.tg, 2)

    @property
    def l(self) -> Fraction:
        return Fraction(self.tl, 2)

    def __str__(self) -> str:
        return "(j=%s, m=%s, g=%s, l=%s)" % tuple(
            format_half_integer(tv) for tv in (self.tj, self.tm, self.tg, self.tl)
        )


@dataclass(frozen=True)
class QN8:
    """The complete eight-number set labelling a base-8 sequence.

    Validity (all Table-style counts nonnegative and integral) is not a
    construction invariant: summation lattices deliberately visit invalid
    points, which counts8_from_qn8 flags by returning None.
    """

    n: int
    tj10: int
    tj02: int
    tm10: int
    tm02: int
    tj12: int
    tl12: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidQuantumNumberError("n must be positive")

    @property
    def tm12(self) -> int:
        return self.tm10 + self.tm02

    @property
    def tg10(self) -> int:
        return self.n - self.tj10

    @property
    def tg02(self) -> int:
        return self.n - self.tj02

    @property
    def tg12(self) -> int:
        return self.n - self.tj12

    @property
    def tl10(self) -> int:
        # l12 = l10 + m02
        return self.tl12 - self.tm02

    @property
    def tl02(self) -> int:
        # l12 = l02 - m10
        return self.tl12 + self.tm10

    def is_valid(self) -> bool:
        return counts8_from_qn8(self) is not None


def qn4_from_counts(c: Counts4) -> QN4:
    """j=(C+D)/2, m=(C-D)/2, g=(A+B)/2, l=(A-B)/2 in doubled form."""
    a, b = c.get(A, 0), c.get(B, 0)
    cc, d = c.get(C, 0), c.get(D, 0)
    return QN4(tj=cc + d, tm=cc - d, tg=a + b, tl=a - b)


def counts4_from_qn4(q: QN4) -> Counts4:
    """Invert the defining relations: C=j+m, D=j-m, A=g+l, B=g-l."""
    return {
        A: (q.tg + q.tl) // 2,
        B: (q.tg - q.tl) // 2,
        C: (q.tj + q.tm) // 2,
        D: (q.tj - q.tm) // 2,
    }


def qn4_of_corrseq(c: CorrSeq) -> QN4:
    if c.order != 2:
        raise ValueError("base-4 quantum numbers need an order-2 sequence")
    return qn4_from_counts(count_symbols(c))


def qn8_from_counts(c: Counts8) -> QN8:
    """Evaluate the eight quantum numbers from base-8 counts."""
    t = {sym: c.get(sym, 0) for sym in SYMBOLS8}
    n = sum(t.values())
    return QN8(
        n=n,
        tj10=t[1, 0, 0] + t[1, 0, 1] + t[0, 1, 1] + t[0, 1, 0],
        tj02=t[1, 1, 0] + t[1, 0, 1] + t[0, 0, 1] + t[0, 1, 0],
        tm10=t[1, 0, 0] + t[1, 0, 1] - t[0, 1, 1] - t[0, 1, 0],
        tm02=t[1, 1, 0] + t[0, 1, 0] - t[0, 0, 1] - t[1, 0, 1],
        tj12=t[1, 0, 0] + t[1, 1, 0] + t[0, 1, 1] + t[0, 0, 1],
        tl12=t[0, 0, 0] + t[0, 1, 0] - t[1, 1, 1] - t[1, 0, 1],
        k=t[0, 1, 0],
    )


def counts8_from_qn8(q: QN8) -> Optional[Counts8]:
    """Recover the eight counts, or None if any would be negative or
    non-integral (the summation engine skips such lattice points)."""
    tk = 2 * q.k
    doubled = {
        (0, 1, 0): tk,
        (1, 0, 1): q.tj10 + q.tj02 - q.tj12 - tk,
        (1, 0, 0): q.tm10 - q.tj02 + q.tj12 + tk,
        (0, 1, 1): q.tj10 - q.tm10 - tk,
        (1, 1, 0): q.tj02 + q.tm02 - tk,
        (0, 0, 1): q.tj12 + tk - q.tm02 - q.tj10,
        (1, 1, 1): q.n - q.tl12 - q.tj10 - q.tj02 + tk,
        (0, 0, 0): q.n - q.tj12 + q.tl12 - tk,
    }
    counts: Counts8 = {}
    for sym, tv in doubled.items():
        if tv < 0 or tv % 2:
            return None
        counts[sym] = tv // 2
    return counts


def phi(q: QN8) -> int:
    """Number of base-8 sequences carrying exactly q's quantum numbers:
    the multinomial n! over the factorials of all eight counts, or 0 when
    the counts are invalid.

    An oracle: the closed-form path count in pathcount never calls it.
    """
    counts = counts8_from_qn8(q)
    if counts is None:
        return 0
    result = factorial(q.n)
    for c in counts.values():
        result //= factorial(c)
    return result


def f_factor(n: int, tj: int, tm: int) -> Fraction:
    """Measurement factor C!D!(n-C-D)!/n! with C=j+m, D=j-m.

    The same formula serves both observers; only (j, m) differ.  An oracle,
    like phi: selftest.upsilon_full_lattice weighs its lattice sum with it.
    """
    if not check_projection(tj, tm):
        raise InvalidQuantumNumberError("f_factor needs -j <= m <= j in integer steps")
    if tj > n:
        raise InvalidQuantumNumberError(f"2j = {tj} exceeds n = {n}")
    c = (tj + tm) // 2
    d = (tj - tm) // 2
    return Fraction(factorial(c) * factorial(d) * factorial(n - c - d), factorial(n))


def qn8_of_corrseq(c: CorrSeq) -> QN8:
    if c.order != 3:
        raise ValueError("base-8 quantum numbers need an order-3 sequence")
    return qn8_from_counts(count_symbols(c))


def pair_counts4(c8: Counts8, pair: str) -> Counts4:
    """Project base-8 counts onto one of the index pairs "10", "02", "12"."""
    slices = {"10": (0, 1), "02": (1, 2), "12": (0, 2)}
    try:
        i, j = slices[pair]
    except KeyError:
        raise ValueError(f"unknown index pair {pair!r}") from None
    out: Counts4 = {A: 0, B: 0, C: 0, D: 0}
    for sym, cnt in c8.items():
        out[sym[i], sym[j]] += cnt
    return out
