"""Conversions between symbol counts and relational quantum numbers.

Base-4 counts (A~, B~, C~, D~) define j, m, g, l for one two-point
correlation.  Base-8 counts define the eight-number set (n, j10, j02, m10,
m02, j12, l12, k) for a three-point correlation; the column convention is
column 1 = sequence "1", column 2 = the reference, column 3 = sequence "2",
so a base-8 symbol reads (x1, x0, x2) and the (10), (02), (12) pairs are the
first two, last two and outer two bits respectively.

All quantum numbers are doubled integers (see halfint); k, being itself a
count, is a plain integer.  The four-number set is the plain 4-tuple
(tj, tm, tg, tl) and the eight-number set a plain 8-tuple in the order
above; both hold those integers only: turning them into fractions or text
is left to halfint and cli, at the edges.  qn4_from_counts and
counts4_from_qn4 check the projection rule on (j, m) and (g, l), which
makes the four counts nonnegative integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import ConstraintError, InvalidQuantumNumberError
from .selection import require_projection
from .sequences import BitSeq, CorrSeq, alphabet, count_symbols

SYMBOLS8 = alphabet(3)

# each pair's two positions in a base-8 symbol (x1, x0, x2)
PAIRS = {"10": (0, 1), "02": (1, 2), "12": (0, 2)}


def qn4_from_counts(counts: tuple[int, ...]) -> tuple[int, int, int, int]:
    """The quantum numbers j=(C+D)/2, m=(C-D)/2, g=(A+B)/2, l=(A-B)/2, in
    doubled form, of base-4 counts.

    Counts of every order are tuples in the order of alphabet(d); for a
    pair, alphabet(2) is 00, 01, 10, 11, so the counts read A, D, C, B.
    Counts that break the projection rule, such as a negative one, raise
    InvalidQuantumNumberError; any number of counts but four raises
    ValueError.
    """
    a, d, c, b = counts
    tj, tm, tg, tl = c + d, c - d, a + b, a - b
    require_projection(tj, tm)
    require_projection(tg, tl, "l", "g")
    return tj, tm, tg, tl


def counts4_from_qn4(q: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """Invert the defining relations: A=g+l, D=j-m, C=j+m, B=g-l, in the
    order qn4_from_counts reads.  A set that breaks the projection rule
    raises InvalidQuantumNumberError, as in qn4_from_counts."""
    tj, tm, tg, tl = q
    require_projection(tj, tm)
    require_projection(tg, tl, "l", "g")
    return (tg + tl) // 2, (tj - tm) // 2, (tj + tm) // 2, (tg - tl) // 2


def qn4_of_corrseq(c: CorrSeq) -> tuple[int, int, int, int]:
    """The quantum numbers of an order-2 sequence's counts."""
    if c.order != 2:
        raise ValueError("base-4 quantum numbers need an order-2 sequence")
    return qn4_from_counts(count_symbols(c))


def qn4_of_packed(x: int, y: int, n: int) -> tuple[int, int, int, int]:
    """qn4_of_corrseq(correlate([s, t])) for n-bit s and t packed into
    nonnegative ints x and y: set bits mark the 1s, and bit i of s sits at
    the same position in x as bit i of t in y.  The callers read one byte
    per bit, so bit i sits at bit 8(n - 1 - i).  B counts their common 1s,
    C and D the rest, and A is n less those three.  A negative int raises
    ValueError; ints with more 1s between them than n bits hold give a
    negative count, and so raise InvalidQuantumNumberError."""
    if x < 0 or y < 0:
        raise ValueError(f"packed sequences must be nonnegative ints, got {x}, {y}")
    b, cx, cy = (x & y).bit_count(), x.bit_count(), y.bit_count()
    return qn4_from_counts((n - cx - cy + b, cy - b, cx - b, b))


def qn8_from_counts(counts: tuple[int, ...]) -> tuple[int, ...]:
    """The eight quantum numbers (n, tj10, tj02, tm10, tm02, tj12, tl12, k)
    of base-8 counts given in the order of SYMBOLS8, as a plain tuple; any
    other number of counts raises ValueError."""
    # t<x1 x0 x2> is the count of that symbol
    t000, t001, t010, t011, t100, t101, t110, t111 = counts
    return (
        t000 + t001 + t010 + t011 + t100 + t101 + t110 + t111,  # n
        t100 + t101 + t011 + t010,  # tj10
        t110 + t101 + t001 + t010,  # tj02
        t100 + t101 - t011 - t010,  # tm10
        t110 + t010 - t001 - t101,  # tm02
        t100 + t110 + t011 + t001,  # tj12
        t000 + t010 - t111 - t101,  # tl12
        t010,  # k
    )


def counts8_from_qn8(q: tuple[int, ...]) -> tuple[int, ...] | None:
    """The eight counts of the eight-number set q, in the order of SYMBOLS8
    as qn8_from_counts reads them, or None if any would be negative or
    non-integral (a negative n makes some negative).  Any other number of
    quantum numbers raises ValueError."""
    n, tj10, tj02, tm10, tm02, tj12, tl12, k = q
    tk = 2 * k
    # every count is doubled, and tested, before any is halved; most
    # lattice points fail the l12 parity at the first, (0, 0, 0)
    doubled = (
        n - tj12 + tl12 - tk,  # (0, 0, 0)
        tj12 + tk - tm02 - tj10,  # (0, 0, 1)
        tk,  # (0, 1, 0)
        tj10 - tm10 - tk,  # (0, 1, 1)
        tm10 - tj02 + tj12 + tk,  # (1, 0, 0)
        tj10 + tj02 - tj12 - tk,  # (1, 0, 1)
        tj02 + tm02 - tk,  # (1, 1, 0)
        n - tl12 - tj10 - tj02 + tk,  # (1, 1, 1)
    )
    for tv in doubled:
        if tv < 0 or tv & 1:
            return None
    return tuple([tv >> 1 for tv in doubled])


def phi(q: tuple[int, ...]) -> int:
    """Number of base-8 sequences carrying exactly the eight quantum numbers
    q: the multinomial n! over the factorials of all eight counts, or 0 when
    the counts are invalid.  The empty sequence is the one with n = 0.

    An oracle: the closed-form path count in pathcount never calls it.
    """
    counts = counts8_from_qn8(q)
    if counts is None:
        return 0
    result = factorial(q[0])
    for c in counts:
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


def pair_counts4(c8: tuple[int, ...], pair: str) -> tuple[int, int, int, int]:
    """Project base-8 counts onto one of the index pairs "10", "02", "12";
    any number of counts but eight raises ValueError."""
    try:
        i, j = PAIRS[pair]
    except KeyError:
        raise ValueError(f"unknown index pair {pair!r}") from None
    out = [0, 0, 0, 0]
    for sym, cnt in zip(SYMBOLS8, c8, strict=True):
        # the pair symbol (x, y) is number 2x + y of alphabet(2)
        out[2 * sym[i] + sym[j]] += cnt
    return tuple(out)


def j12_bounds_constrained(
    q10: tuple[int, int, int, int], q02: tuple[int, int, int, int]
) -> tuple[int, int]:
    """The least and greatest doubled j12 over the triples (s1, s0, s2) whose
    (10) and (02) relations are q10 and q02; every value between them in
    steps of 2 occurs too.

    The relations must share the reference s0, or ConstraintError is
    raised: equal n, and equal counts of its zeros, A10 + C10 = A02 + D02
    (with equal n, tm10 + tm02 = tl02 - tl10).  A relation that breaks the
    projection rule raises as counts4_from_qn4 does.

    Proof.  A base-8 symbol (x1, x0, x2) projects onto the (10) symbol
    (x1, x0) and the (02) symbol (x0, x2).  So for each reference bit x0 the
    triple's counts t<x1 x0 x2> form a 2x2 table, rows x1 and columns x2,
    whose margins are counts of q10 and q02:

        x0 = 0: rows sum to A10, C10; columns to A02, D02
        x0 = 1: rows sum to D10, B10; columns to C02, B02

    Both tables balance: the x0 = 0 one by the precondition, and the x0 = 1
    one because both its totals are n less that.  Each has one free cell,
    u = t101 and v = t010 (= k), with t100 = C10 - u, t001 = D02 - u,
    t000 = A10 - D02 + u and t011 = D10 - v, t110 = C02 - v,
    t111 = B10 - C02 + v.  By the balances, these are all nonnegative
    exactly when max(0, C10 - A02) <= u <= min(C10, D02) and
    max(0, D10 - B02) <= v <= min(D10, C02), and both ranges are non-empty
    because every count of q10 and q02 is nonnegative.  The symbols with
    x1 != x2 count j12, so tj12 = t100 + t001 + t011 + t110
    = tj10 + tj02 - 2(u + v): 2 less per unit of either free cell.  As u and
    v vary independently, u + v takes every integer between its extremes,
    so tj12 takes exactly the values from the returned lo (both cells at
    their maximum) to hi (both at their minimum) in steps of 2.  For any
    u, v in range, the triple laid out in symbol blocks

        s1 = 0^t000 0^t001 1^t100 1^t101 0^t010 0^t011 1^t110 1^t111
        s0 = 0^t000 0^t001 0^t100 0^t101 1^t010 1^t011 1^t110 1^t111
        s2 = 0^t000 1^t001 0^t100 1^t101 0^t010 1^t011 0^t110 1^t111

    has the tables' margins as its (10) and (02) counts, so it carries q10
    and q02 and realizes tj12 = tj10 + tj02 - 2(u + v).  witness_triple is
    this layout in code.
    """
    tj10, _, tg10, _ = q10
    tj02, _, tg02, _ = q02
    if tj10 + tg10 != tj02 + tg02:
        raise ConstraintError(f"relations disagree on n: {tj10 + tg10}, {tj02 + tg02}")
    a10, d10, c10, b10 = counts4_from_qn4(q10)
    a02, d02, c02, b02 = counts4_from_qn4(q02)
    if a10 + c10 != a02 + d02:
        raise ConstraintError(
            f"relations disagree on the reference's zeros: {a10 + c10}, {a02 + d02}"
        )
    tj_sum = tj10 + tj02
    tj_min = tj_sum - 2 * min(c10, d02) - 2 * min(d10, c02)
    tj_max = tj_sum - 2 * max(0, c10 - a02) - 2 * max(0, d10 - b02)
    return tj_min, tj_max


# the proof's block order: SYMBOLS8 with the reference bit x0 = 0 first
_BLOCKS = sorted(SYMBOLS8, key=lambda sym: sym[1])


def witness_triple(
    q10: tuple[int, int, int, int], q02: tuple[int, int, int, int], tj12: int
) -> tuple[BitSeq, BitSeq, BitSeq] | None:
    """The triple (s1, s0, s2) of the j12_bounds_constrained proof with
    relations q10, q02 and a (12) one of doubled j12 tj12, or None if no
    triple has them.  Its free cells sum to w = (tj10 + tj02 - tj12)/2, and
    u = max(0, C10 - A02, w - min(D10, C02)) puts both in range.  Raises as
    j12_bounds_constrained does, and ValueError at n = 0."""
    lo, hi = j12_bounds_constrained(q10, q02)
    if not lo <= tj12 <= hi or (tj12 - lo) % 2:
        return None
    a10, d10, c10, b10 = counts4_from_qn4(q10)
    a02, d02, c02, _ = counts4_from_qn4(q02)
    w = (q10[0] + q02[0] - tj12) // 2
    u = max(0, c10 - a02, w - min(d10, c02))
    v = w - u
    # t000, t001, t100, t101, then t010, t011, t110, t111, as in the proof
    counts = (a10 - d02 + u, d02 - u, c10 - u, u,
              v, d10 - v, c02 - v, b10 - c02 + v)
    symbols = [sym for sym, t in zip(_BLOCKS, counts) for _ in range(t)]
    return tuple(BitSeq(tuple(sym[i] for sym in symbols)) for i in range(3))
