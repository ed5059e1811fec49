"""Exhaustive and randomized oracles for small n.

Everything here re-derives results by direct enumeration or sampling, with
no reliance on the closed-form path of pathcount; it exists to cross-check
that path.  The full-grid binning counts sequences by extending prefixes one
symbol at a time, so no factorial, binomial or multinomial enters this
module: those belong to quantum_numbers.phi, which the binning checks.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, FrozenSet, Iterator, List, Tuple

from .quantum_numbers import (
    PAIRS, QN8, SYMBOLS8, counts8_from_qn8, qn4_of_corrseq, qn8_from_counts,
)
from .sequences import BitSeq, CorrSeq, apply_map, check_enum_cap, correlate

PAIR_FIELDS = {pair: tuple(f"t{q}{pair}" for q in "jmgl") for pair in PAIRS}


def enumerate_base8_counts(n: int) -> Dict[tuple, int]:
    """Bin all 8^n order-3 sequences by their count vector.

    Keys are 8-tuples of counts in lexicographic symbol order.  Every
    length-i sequence is one length-(i-1) prefix followed by one symbol, so
    the bins grow by extending prefixes: each bin's multiplicity passes to
    the 8 bins holding one more of a symbol.  Only additions are used, no
    factorial.  The enumeration cap still counts the 8^n sequences covered.
    """
    check_enum_cap(8**n)
    bins: Dict[tuple, int] = {(0,) * 8: 1}
    for _ in range(n):
        longer: Dict[tuple, int] = {}
        for key, multiplicity in bins.items():
            for s in range(8):
                grown = key[:s] + (key[s] + 1,) + key[s + 1 :]
                longer[grown] = longer.get(grown, 0) + multiplicity
        bins = longer
    return bins


def counts_key_to_qn8(key: tuple) -> QN8:
    """Interpret a lexicographic 8-tuple of counts as base-8 counts."""
    return qn8_from_counts(dict(zip(SYMBOLS8, key)))


def phi_by_enumeration(q: QN8) -> int:
    """Count order-3 sequences whose measured quantum numbers equal q."""
    if counts8_from_qn8(q) is None:
        return 0
    total = 0
    for key, multiplicity in enumerate_base8_counts(q.n).items():
        if counts_key_to_qn8(key) == q:
            total += multiplicity
    return total


def witness_triples(n: int, **constraints: int) -> Iterator[Tuple[BitSeq, BitSeq, BitSeq]]:
    """All (s1, s0, s2) triples whose pairwise quantum numbers match the
    given doubled-integer constraints (e.g. tj10=2, tm02=-1, tj12=3).

    The middle sequence is the reference; unknown constraint names raise.
    """
    valid = {name for fields in PAIR_FIELDS.values() for name in fields}
    unknown = set(constraints) - valid
    if unknown:
        raise ValueError(f"unknown constraints: {sorted(unknown)}")
    check_enum_cap(2 ** (3 * n))
    for bits in itertools.product((0, 1), repeat=3 * n):
        triple = (BitSeq(bits[:n]), BitSeq(bits[n : 2 * n]), BitSeq(bits[2 * n :]))
        for pair, fields in PAIR_FIELDS.items():
            i, j = PAIRS[pair]
            q = qn4_of_corrseq(correlate([triple[i], triple[j]]))
            values = (q.tj, q.tm, q.tg, q.tl)
            if any(constraints.get(name, v) != v for name, v in zip(fields, values)):
                break
        else:
            yield triple


def conserved_quantum_numbers(initial: CorrSeq, mapping: CorrSeq) -> FrozenSet[str]:
    """Which of j, m, g, l the map leaves unchanged for this sequence."""
    before = qn4_of_corrseq(initial)
    after = qn4_of_corrseq(apply_map(initial, mapping))
    names = []
    for name, x, y in (
        ("j", before.tj, after.tj),
        ("m", before.tm, after.tm),
        ("g", before.tg, after.tg),
        ("l", before.tl, after.tl),
    ):
        if x == y:
            names.append(name)
    return frozenset(names)


# top byte of a 32-bit Mersenne Twister output -> randrange(2) outcome, with
# 2 for a rejected draw (top bit set)
_TOP_BYTE_TO_BIT = bytes(b >> 6 if b < 0x80 else 2 for b in range(256))


def random_bits(rng: random.Random, count: int) -> Tuple[int, ...]:
    """count random bits: exactly tuple(rng.randrange(2) for _ in range(count)),
    leaving rng in exactly the state those calls leave it in.

    For random.Random itself only (not a subclass that overrides random()
    or getrandbits()).  CPython's randrange(2) is _randbelow(2), a loop of
    getrandbits(2) calls that ends at the first value below 2.  Each
    getrandbits(2) call takes the top two bits of one 32-bit output of the
    generator, so a draw is 0 or 1 when the output's top bit is clear (the
    bit is then the next one down) and is redrawn when it is set.
    getrandbits(32 * k) consumes exactly k outputs and stores them
    little-endian, so byte 4i + 3 of the result is the top byte of output i.
    Every output yields at most one bit, so drawing as many outputs as bits
    are still missing never draws past the last one randrange would use;
    the rejected outputs are dropped and the shortfall is drawn again.
    """
    bits = b""
    while len(bits) < count:
        need = count - len(bits)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        bits += words[3::4].translate(_TOP_BYTE_TO_BIT).replace(b"\x02", b"")
    return tuple(bits)


def _random_corrseq(rng: random.Random, n: int) -> CorrSeq:
    """Two random n-bit columns correlated, drawn first column first."""
    bits = random_bits(rng, 2 * n)
    return CorrSeq._trusted(2, tuple(zip(bits[:n], bits[n:])))


def map_conservation_report(n: int, trials: int, seed: int) -> Dict:
    """Sample random maps and permutations, classifying conservation.

    Checks both directions of the permutation law: a map conserving all of
    j, m, g, l rearranges the symbol multiset (a row permutation), and a
    map built from a row permutation conserves all four.
    """
    rng = random.Random(seed)
    conserved_tally: Dict[FrozenSet[str], int] = {}
    mismatches: List[str] = []

    for _ in range(trials):
        initial = _random_corrseq(rng, n)
        mapping = _random_corrseq(rng, n)
        conserved = conserved_quantum_numbers(initial, mapping)
        conserved_tally[conserved] = conserved_tally.get(conserved, 0) + 1
        if conserved == frozenset("jmgl"):
            final = apply_map(initial, mapping)
            if sorted(final.symbols) != sorted(initial.symbols):
                mismatches.append(
                    f"all-conserving map is not a permutation: {initial} -> {final}"
                )

    for _ in range(trials):
        initial = _random_corrseq(rng, n)
        permuted = list(initial.symbols)
        rng.shuffle(permuted)
        final = CorrSeq._trusted(2, tuple(permuted))
        mapping = apply_map(initial, final)
        conserved = conserved_quantum_numbers(initial, mapping)
        if conserved != frozenset("jmgl"):
            mismatches.append(
                f"permutation map fails to conserve {set('jmgl') - conserved}"
            )

    return {
        "n": n,
        "trials": trials,
        "seed": seed,
        "conserved_tally": {
            "".join(sorted(k)) or "-": v for k, v in conserved_tally.items()
        },
        "mismatches": mismatches,
        "ok": not mismatches,
    }
