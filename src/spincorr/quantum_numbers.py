"""Conversions between symbol counts and relational quantum numbers.

Base-4 counts (A~, B~, C~, D~) define j, m, g, l for one two-point
correlation.  Base-8 counts define the eight-number set (n, j10, j02, m10,
m02, j12, l12, k) for a three-point correlation; the column convention is
column 1 = sequence "1", column 2 = the reference, column 3 = sequence "2",
so a base-8 symbol reads (x1, x0, x2) and the (10), (02), (12) pairs are the
first two, last two and outer two bits respectively.

All quantum numbers are doubled integers (see halfint); k, being itself a
count, is a plain integer.  QN4 and QN8 hold those integers only: turning
them into fractions or text is left to halfint and cli, at the edges.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial
from typing import Dict, Optional, Tuple

from .errors import InvalidQuantumNumberError
from .records import Record
from .selection import require_projection
from .sequences import PAIR_OF_ALIAS, CorrSeq, alphabet, count_symbols

Counts4 = Dict[Tuple[int, int], int]
Counts8 = Dict[Tuple[int, int, int], int]

A, B, C, D = (PAIR_OF_ALIAS[alias] for alias in "ABCD")

SYMBOLS8 = alphabet(3)

# each pair's two positions, both in a base-8 symbol and in a triple (s1, s0, s2)
PAIRS = {"10": (0, 1), "02": (1, 2), "12": (0, 2)}


class QN4(Record, namedtuple("QN4", "tj tm tg tl")):
    """Quantum numbers of one base-4 sequence, as doubled integers; (j, m)
    and (g, l) pass check_projection, which makes j and g nonnegative and
    the four counts nonnegative integers.

    An immutable, validated named tuple, so it equals the plain tuple
    (tj, tm, tg, tl).  _trusted takes the doubled quantum numbers of four
    nonnegative int counts.
    """

    __slots__ = ()

    def __new__(cls, tj: int, tm: int, tg: int, tl: int):
        require_projection(tj, tm)
        require_projection(tg, tl, "l", "g")
        return tuple.__new__(cls, (tj, tm, tg, tl))

    @property
    def n(self) -> int:
        return self.tj + self.tg


class QN8(Record, namedtuple("QN8", "n tj10 tj02 tm10 tm02 tj12 tl12 k")):
    """The complete eight-number set labelling a base-8 sequence: an
    immutable, validated named tuple, so it equals the plain tuple of its
    eight fields.

    Validity (all Table-style counts nonnegative and integral) is not a
    construction invariant: summation lattices deliberately visit invalid
    points, which counts8_from_qn8 flags by returning None.
    """

    __slots__ = ()

    def __new__(cls, n: int, tj10: int, tj02: int, tm10: int, tm02: int,
                tj12: int, tl12: int, k: int):
        if n < 1:
            raise InvalidQuantumNumberError("n must be positive")
        return tuple.__new__(cls, (n, tj10, tj02, tm10, tm02, tj12, tl12, k))


def _doubled_jmgl(a: int, b: int, cc: int, d: int) -> Tuple[int, int, int, int]:
    """j=(C+D)/2, m=(C-D)/2, g=(A+B)/2, l=(A-B)/2 in doubled form, from the
    A, B, C, D counts."""
    return cc + d, cc - d, a + b, a - b


def qn4_from_counts(c: Counts4) -> QN4:
    """The quantum numbers of base-4 counts (see _doubled_jmgl); counts that
    break the projection rule, such as a negative one, raise."""
    return QN4(*_doubled_jmgl(c.get(A, 0), c.get(B, 0), c.get(C, 0), c.get(D, 0)))


def counts4_from_qn4(q: QN4) -> Counts4:
    """Invert the defining relations: C=j+m, D=j-m, A=g+l, B=g-l."""
    return {
        A: (q.tg + q.tl) // 2,
        B: (q.tg - q.tl) // 2,
        C: (q.tj + q.tm) // 2,
        D: (q.tj - q.tm) // 2,
    }


def qn4_of_corrseq(c: CorrSeq) -> QN4:
    """The quantum numbers of an order-2 sequence.  Its counts are
    nonnegative ints, so the projection rule holds by construction and the
    QN4 is not validated again."""
    if c.order != 2:
        raise ValueError("base-4 quantum numbers need an order-2 sequence")
    counts = count_symbols(c)
    return QN4._trusted(*_doubled_jmgl(counts[A], counts[B], counts[C], counts[D]))


def qn8_from_counts(c: Counts8) -> QN8:
    """Evaluate the eight quantum numbers from base-8 counts."""
    # t<x1 x0 x2> is the count of that symbol, in the order of SYMBOLS8
    t000, t001, t010, t011, t100, t101, t110, t111 = map(c.get, SYMBOLS8, (0,) * 8)
    # positional: a keyword call costs about twice as much, and the phi
    # check evaluates thousands of count vectors
    return QN8(
        t000 + t001 + t010 + t011 + t100 + t101 + t110 + t111,  # n
        t100 + t101 + t011 + t010,  # tj10
        t110 + t101 + t001 + t010,  # tj02
        t100 + t101 - t011 - t010,  # tm10
        t110 + t010 - t001 - t101,  # tm02
        t100 + t110 + t011 + t001,  # tj12
        t000 + t010 - t111 - t101,  # tl12
        t010,  # k
    )


# the symbols of counts8_from_qn8's doubled counts, in the order it fills them
_DOUBLED_SYMBOLS = ((0, 1, 0), (1, 0, 1), (1, 0, 0), (0, 1, 1), (1, 1, 0), (0, 0, 1),
                    (1, 1, 1), (0, 0, 0))


def counts8_from_qn8(q: QN8) -> Optional[Counts8]:
    """Recover the eight counts, or None if any would be negative or
    non-integral (the summation engine skips such lattice points)."""
    n, tj10, tj02, tm10, tm02, tj12, tl12, k = q
    tk = 2 * k
    # in the order of _DOUBLED_SYMBOLS; most lattice points fail here, so
    # they are tested before any dict is built
    doubled = (
        tk,  # (0, 1, 0)
        tj10 + tj02 - tj12 - tk,  # (1, 0, 1)
        tm10 - tj02 + tj12 + tk,  # (1, 0, 0)
        tj10 - tm10 - tk,  # (0, 1, 1)
        tj02 + tm02 - tk,  # (1, 1, 0)
        tj12 + tk - tm02 - tj10,  # (0, 0, 1)
        n - tl12 - tj10 - tj02 + tk,  # (1, 1, 1)
        n - tj12 + tl12 - tk,  # (0, 0, 0)
    )
    for tv in doubled:
        if tv < 0 or tv % 2:
            return None
    counts: Counts8 = {}
    for sym, tv in zip(_DOUBLED_SYMBOLS, doubled):
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
    require_projection(tj, tm)
    if tj > n:
        raise InvalidQuantumNumberError(f"2j = {tj} exceeds n = {n}")
    c = (tj + tm) // 2
    d = (tj - tm) // 2
    return Fraction(factorial(c) * factorial(d) * factorial(n - c - d), factorial(n))


def pair_counts4(c8: Counts8, pair: str) -> Counts4:
    """Project base-8 counts onto one of the index pairs "10", "02", "12"."""
    try:
        i, j = PAIRS[pair]
    except KeyError:
        raise ValueError(f"unknown index pair {pair!r}") from None
    out: Counts4 = {A: 0, B: 0, C: 0, D: 0}
    for sym, cnt in c8.items():
        out[sym[i], sym[j]] += cnt
    return out
