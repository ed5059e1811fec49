"""Base-2 sequences, the correlation operator and map algebra.

A bit sequence is the primitive object.  Correlating d of them column-wise
produces a sequence over the 2^d-symbol product alphabet; for d=2 the four
symbols carry the conventional aliases 00=A, 11=B, 10=C, 01=D.  Maps act by
element-wise addition modulo two and are involutions.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from collections.abc import Sequence
from operator import attrgetter, xor
from .records import Record

Symbol = tuple[int, ...]

ALIAS_OF_PAIR = {(0, 0): "A", (1, 1): "B", (1, 0): "C", (0, 1): "D"}
PAIR_OF_ALIAS = {v: k for k, v in ALIAS_OF_PAIR.items()}
_BITS = attrgetter("bits")


def _bit_tuple(items) -> tuple[int, ...] | None:
    """items as a tuple of the ints 0 and 1, or None if some element equals
    neither; by value, so True, 1.0 and 0j qualify."""
    bits = []
    for b in items:
        if b not in (0, 1):
            return None
        bits.append(1 if b == 1 else 0)
    return tuple(bits)


class BitSeq(Record, namedtuple("BitSeq", "bits")):
    """A fixed-length sequence of bits; the ontic element of the model.

    An immutable, validated named tuple of one field, so it equals the plain
    tuple (bits,); len() is the sequence length n, not the field count.
    """

    __slots__ = ()

    def __new__(cls, bits: tuple[int, ...]):
        if len(bits) < 1:
            raise ValueError("a bit sequence needs length n >= 1")
        checked = _bit_tuple(bits)
        if checked is None:
            raise ValueError("bit sequence elements must be 0 or 1")
        return tuple.__new__(cls, (checked,))

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


class CorrSeq(Record, namedtuple("CorrSeq", "order symbols")):
    """A length-n sequence over the order-d product alphabet.

    An immutable, validated named tuple, so it equals the plain tuple
    (order, symbols); len() is the sequence length n, not the field count.
    """

    __slots__ = ()

    def __new__(cls, order: int, symbols: tuple[Symbol, ...]):
        if order < 1:
            raise ValueError("correlation order must be positive")
        if len(symbols) < 1:
            raise ValueError("a correlation sequence needs length n >= 1")
        checked = []
        # all symbols become tuples first: a non-iterable one raises TypeError
        for sym in tuple(map(tuple, symbols)):
            bits = _bit_tuple(sym)
            if bits is None or len(bits) != order:
                raise ValueError(f"every symbol must be a {order}-tuple of bits")
            checked.append(bits)
        return tuple.__new__(cls, (order, tuple(checked)))

    def __len__(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return render(self)


def correlate(seqs: Sequence[BitSeq]) -> CorrSeq:
    """Glue d >= 2 equal-length bit sequences column-wise.

    Input order is preserved; the operator is non-commutative in its effect
    on the sign of m.
    """
    if len(seqs) < 2:
        raise ValueError("correlation needs at least 2 sequences")
    columns = tuple(map(_BITS, seqs))
    n = len(columns[0])
    for bits in columns:
        if len(bits) != n:
            raise ValueError("correlation needs sequences of equal length")
    return CorrSeq(len(seqs), tuple(zip(*columns)))


@functools.lru_cache(maxsize=None)
def alphabet(d: int) -> tuple[Symbol, ...]:
    """The 2^d symbols of order d, in lexicographic order; built once per d.
    Every module takes its symbols from here."""
    return tuple(itertools.product((0, 1), repeat=d))


def count_symbols(c: CorrSeq) -> tuple[int, ...]:
    """Occurrence counts of the 2^d symbols of alphabet(d), as a tuple in
    that order; missing symbols are 0.

    The input is validated on entry, by building a CorrSeq from it, as
    apply_map does.  Every symbol of a CorrSeq is in alphabet(d), so the
    last symbol's count is not counted: it is the length less the other
    2^d - 1 counts.
    """
    c = CorrSeq(c.order, c.symbols)
    symbols = c.symbols
    counts = [symbols.count(sym) for sym in alphabet(c.order)[:-1]]
    counts.append(len(symbols) - sum(counts))
    return tuple(counts)


def apply_map(initial: CorrSeq, mapping: CorrSeq) -> CorrSeq:
    """Element-wise addition modulo two; an involution.

    Both inputs are validated on entry, by building a CorrSeq from each.
    The two are then XORed as flat bit streams, regrouped into order-tuples.
    """
    initial = CorrSeq(initial.order, initial.symbols)
    mapping = CorrSeq(mapping.order, mapping.symbols)
    order = initial.order
    if order != mapping.order:
        raise ValueError("map must have the same order as the sequence")
    if len(initial) != len(mapping):
        raise ValueError("map must have the same length as the sequence")
    flat = itertools.chain.from_iterable
    bits = map(xor, flat(initial.symbols), flat(mapping.symbols))
    return CorrSeq(order, tuple(zip(*[bits] * order)))


def render(c: CorrSeq) -> str:
    """Text form: d=1 "100101", d=2 "CADBAC", d>=3 "110,111,100"."""
    if c.order == 1:
        return "".join(str(sym[0]) for sym in c.symbols)
    if c.order == 2:
        return "".join(ALIAS_OF_PAIR[sym] for sym in c.symbols)
    return ",".join("".join(str(b) for b in sym) for sym in c.symbols)
