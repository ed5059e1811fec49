"""Base-2 sequences, the correlation operator and map algebra.

A bit sequence is the primitive object.  Correlating d of them column-wise
produces a sequence over the 2^d-symbol product alphabet; for d=2 the four
symbols carry the conventional aliases 00=A, 11=B, 10=C, 01=D.  Maps act by
element-wise addition modulo two and are involutions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, Sequence, Tuple

from .errors import BudgetExceededError

Symbol = Tuple[int, ...]

# the most sequences one exhaustive enumeration may cover: it grows as 2^(d*n)
ENUM_CAP = 1 << 24

ALIAS_OF_PAIR = {(0, 0): "A", (1, 1): "B", (1, 0): "C", (0, 1): "D"}
PAIR_OF_ALIAS = {v: k for k, v in ALIAS_OF_PAIR.items()}


def _bit_tuple(items) -> Tuple[int, ...] | None:
    """items as a tuple of the ints 0 and 1, or None if some element equals
    neither; by value, so True, 1.0 and 0j qualify."""
    bits = []
    for b in items:
        if b not in (0, 1):
            return None
        bits.append(1 if b == 1 else 0)
    return tuple(bits)


@dataclass(frozen=True)
class BitSeq:
    """A fixed-length sequence of bits; the ontic element of the model."""

    bits: Tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) < 1:
            raise ValueError("a bit sequence needs length n >= 1")
        bits = _bit_tuple(self.bits)
        if bits is None:
            raise ValueError("bit sequence elements must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def _trusted(cls, bits: Tuple[int, ...]) -> "BitSeq":
        """A BitSeq of bits already known valid: a non-empty tuple of the
        ints 0 and 1.  Skips __post_init__; for values built by this
        package only."""
        self = object.__new__(cls)
        object.__setattr__(self, "bits", bits)
        return self

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    @classmethod
    def from_string(cls, text: str) -> "BitSeq":
        return cls(tuple(int(ch) for ch in text.strip()))


@dataclass(frozen=True)
class CorrSeq:
    """A length-n sequence over the order-d product alphabet."""

    order: int
    symbols: Tuple[Symbol, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("correlation order must be positive")
        if len(self.symbols) < 1:
            raise ValueError("a correlation sequence needs length n >= 1")
        symbols = []
        # all symbols become tuples first: a non-iterable one raises TypeError
        for sym in tuple(map(tuple, self.symbols)):
            bits = _bit_tuple(sym)
            if bits is None or len(bits) != self.order:
                raise ValueError(
                    f"every symbol must be a {self.order}-tuple of bits"
                )
            symbols.append(bits)
        object.__setattr__(self, "symbols", tuple(symbols))

    @classmethod
    def _trusted(cls, order: int, symbols: Tuple[Symbol, ...]) -> "CorrSeq":
        """A CorrSeq of symbols already known valid: a non-empty tuple of
        order-tuples of the ints 0 and 1.  Skips __post_init__; for values
        built by this package only."""
        self = object.__new__(cls)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "symbols", symbols)
        return self

    def __len__(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return render(self)


def correlate(seqs: Sequence[BitSeq]) -> CorrSeq:
    """Glue d >= 2 equal-length bit sequences column-wise.

    Input order is preserved; the operator is non-commutative in its effect
    on the sign of m.  The columns of validated BitSeqs are valid symbols,
    so they are validated again only when some input is not a plain BitSeq.
    """
    if len(seqs) < 2:
        raise ValueError("correlation needs at least 2 sequences")
    n = len(seqs[0])
    if any(len(s) != n for s in seqs):
        raise ValueError("correlation needs sequences of equal length")
    symbols = tuple(zip(*(s.bits for s in seqs)))
    if all(type(s) is BitSeq for s in seqs):
        return CorrSeq._trusted(len(seqs), symbols)
    return CorrSeq(order=len(seqs), symbols=symbols)


@functools.lru_cache(maxsize=None)
def alphabet(d: int) -> Tuple[Symbol, ...]:
    """The 2^d symbols of order d, in lexicographic order; built once per d.
    Every module takes its symbols from here."""
    return tuple(itertools.product((0, 1), repeat=d))


def count_symbols(c: CorrSeq) -> Dict[Symbol, int]:
    """Occurrence counts over the full 2^d alphabet, keyed in lexicographic
    order; missing symbols are 0."""
    # a plain loop: before Python 3.12 a comprehension costs a frame per
    # call, and the selftest counts thousands of sequences
    symbols = c.symbols
    counts = {}
    for sym in alphabet(c.order):
        counts[sym] = symbols.count(sym)
    return counts


def apply_map(initial: CorrSeq, mapping: CorrSeq) -> CorrSeq:
    """Element-wise addition modulo two; an involution.

    XOR keeps validated 0/1 symbols valid, so plain CorrSeq inputs give a
    result that is not validated again.
    """
    if initial.order != mapping.order:
        raise ValueError("map must have the same order as the sequence")
    if len(initial) != len(mapping):
        raise ValueError("map must have the same length as the sequence")
    symbols = tuple(
        tuple(a ^ b for a, b in zip(sa, sb))
        for sa, sb in zip(initial.symbols, mapping.symbols)
    )
    if type(initial) is CorrSeq and type(mapping) is CorrSeq:
        return CorrSeq._trusted(initial.order, symbols)
    return CorrSeq(order=initial.order, symbols=symbols)


def check_enum_cap(total: int) -> None:
    """Raise BudgetExceededError if `total` sequences exceed ENUM_CAP."""
    if total > ENUM_CAP:
        raise BudgetExceededError(
            f"enumerating {total} sequences exceeds the budget of {ENUM_CAP}"
        )


def enumerate_sequences(n: int, d: int) -> Iterator[CorrSeq]:
    """All 2^(d*n) order-d sequences of length n, in lexicographic order."""
    check_enum_cap(1 << (d * n))
    for symbols in itertools.product(alphabet(d), repeat=n):
        yield CorrSeq(order=d, symbols=symbols)


def render(c: CorrSeq) -> str:
    """Text form: d=1 "100101", d=2 "CADBAC", d>=3 "110,111,100"."""
    if c.order == 1:
        return "".join(str(sym[0]) for sym in c.symbols)
    if c.order == 2:
        return "".join(ALIAS_OF_PAIR[sym] for sym in c.symbols)
    return ",".join("".join(str(b) for b in sym) for sym in c.symbols)


def parse(text: str) -> CorrSeq:
    """Parse the forms produced by :func:`render`."""
    text = text.strip()
    if "," in text:
        symbols = tuple(
            tuple(int(ch) for ch in chunk.strip()) for chunk in text.split(",")
        )
        return CorrSeq(order=len(symbols[0]), symbols=symbols)
    if text[:1] in PAIR_OF_ALIAS:
        try:
            symbols = tuple(PAIR_OF_ALIAS[ch] for ch in text)
        except KeyError:
            raise ValueError(
                f"an order-2 sequence is written in A, B, C and D only: {text!r}"
            ) from None
        return CorrSeq(order=2, symbols=symbols)
    symbols = tuple((int(ch),) for ch in text)
    return CorrSeq(order=1, symbols=symbols)
