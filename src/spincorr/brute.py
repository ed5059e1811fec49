"""Exhaustive and randomized oracles for small n.

Everything here re-derives results by direct enumeration or sampling, with
no reliance on the closed-form path of pathcount; it exists to cross-check
that path.  The full-grid binning counts sequences by extending prefixes one
symbol at a time, so no factorial, binomial or multinomial enters this
module: those belong to quantum_numbers.phi, which the binning checks.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from itertools import compress
from operator import eq

from .errors import ConstraintError
from .quantum_numbers import counts8_from_qn8, qn4_of_corrseq, qn4_of_packed, qn8_from_counts
from .sequences import BitSeq, CorrSeq, apply_map, correlate

# the longest sequences the full-grid binning reaches: layer n holds
# C(n + 7, 7) count vectors, and n = 12 (50,388 vectors) takes about 0.4 s
ENUM_N_MAX = 12


def base8_count_layers(n_max: int) -> Iterator[dict[tuple, int]]:
    """Bin all 8^n order-3 sequences by their count vector, for each
    n = 0, 1, ..., n_max in turn: layer n is yielded before layer n + 1 is
    built, so one pass serves every length up to n_max.

    Keys are 8-tuples of counts in alphabet(3) order, as qn8_from_counts
    reads them.  Every length-n sequence is one length-(n-1) prefix followed
    by one symbol, so the bins grow by extending prefixes: each bin's
    multiplicity passes to the 8 bins holding one more of a symbol.  Only additions are used, no
    factorial.  An n_max above ENUM_N_MAX raises ConstraintError before the
    first layer is built.
    """
    if n_max > ENUM_N_MAX:
        raise ConstraintError(f"enumeration length n = {n_max} exceeds the bound {ENUM_N_MAX}")
    bins: dict[tuple, int] = {(0,) * 8: 1}
    yield bins
    for _ in range(n_max):
        longer: dict[tuple, int] = {}
        for key, multiplicity in bins.items():
            # each grown key is the key with one count raised by 1, made
            # from a list that is raised and lowered back in place
            counts = list(key)
            for s in range(8):
                counts[s] += 1
                grown = tuple(counts)
                counts[s] -= 1
                longer[grown] = longer.get(grown, 0) + multiplicity
        bins = longer
        yield bins


def enumerate_base8_counts(n: int) -> dict[tuple, int]:
    """Bin all 8^n order-3 sequences by their count vector: the last layer
    of base8_count_layers(n)."""
    for bins in base8_count_layers(n):
        pass
    return bins


def phi_by_enumeration(q: tuple[int, ...]) -> int:
    """Count order-3 sequences whose eight measured quantum numbers equal
    q, an 8-tuple in the order qn8_from_counts gives."""
    if counts8_from_qn8(q) is None:
        return 0
    total = 0
    for key, multiplicity in enumerate_base8_counts(q[0]).items():
        if qn8_from_counts(key) == q:
            total += multiplicity
    return total


def _conserved(before: tuple, after: tuple) -> frozenset[str]:
    """Which of j, m, g, l are equal in two four-number sets (tj, tm, tg, tl)."""
    return frozenset(compress("jmgl", map(eq, before, after)))


def conserved_quantum_numbers(initial: CorrSeq, mapping: CorrSeq) -> frozenset[str]:
    """Which of j, m, g, l the map leaves unchanged for this sequence."""
    return _conserved(qn4_of_corrseq(initial), qn4_of_corrseq(apply_map(initial, mapping)))


_ALL_CONSERVED = frozenset("jmgl")
_ROUTES_DIFFER = "packed and correlated measurements differ for {} mapped by {}"


# top byte of a 32-bit Mersenne Twister output -> randrange(2) outcome, the
# bit below the top one; an output with the top bit set is a rejected draw,
# which _REJECTED_TOP_BYTES deletes before this table applies
_TOP_BYTE_TO_BIT = bytes(b >> 6 & 1 for b in range(256))
_REJECTED_TOP_BYTES = bytes(range(0x80, 0x100))


def random_bits(rng: random.Random, count: int) -> bytes:
    """count random bits: exactly bytes(rng.randrange(2) for _ in range(count)),
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
    are still missing never draws past the last one randrange would use.
    One translate pass deletes the rejected outputs' top bytes and maps the
    rest to bits; the shortfall is drawn again.
    """
    bits = b""
    while len(bits) < count:
        need = count - len(bits)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        bits += words[3::4].translate(_TOP_BYTE_TO_BIT, _REJECTED_TOP_BYTES)
    return bits


def map_conservation_report(n: int, trials: int, seed: int) -> dict:
    """Sample random maps and permutations, classifying conservation.

    Checks both directions of the permutation law: a map conserving all of
    j, m, g, l rearranges the symbol multiset (a row permutation), and a
    map built from a row permutation conserves all four.  A random order-2
    sequence is 2n bits, its first column then its second; qn4_of_packed
    measures the columns read as ints.  The first trial of each direction
    is also measured through conserved_quantum_numbers, and a difference is
    a mismatch.  Raises ValueError for n < 1, before any draw.
    """
    if n < 1:
        raise ValueError(f"sequence length n must be >= 1, got {n}")
    rng = random.Random(seed)
    conserved_tally: dict[frozenset[str], int] = {}
    mismatches: list[str] = []

    # every trial's initial sequence, then its map, 2n bits each, in one
    # draw: the same stream as one draw per sequence
    bits = random_bits(rng, 4 * n * trials)
    for t in range(0, 4 * n * trials, 4 * n):
        columns = [bits[i : i + n] for i in range(t, t + 4 * n, n)]
        x, y, u, v = (int.from_bytes(c, "big") for c in columns)
        conserved = _conserved(qn4_of_packed(x, y, n), qn4_of_packed(x ^ u, y ^ v, n))
        conserved_tally[conserved] = conserved_tally.get(conserved, 0) + 1
        if t == 0 or conserved == _ALL_CONSERVED:
            initial, mapping = (correlate([BitSeq(c) for c in columns[i : i + 2]]) for i in (0, 2))
            if t == 0 and conserved_quantum_numbers(initial, mapping) != conserved:
                mismatches.append(_ROUTES_DIFFER.format(initial, mapping))
            if conserved == _ALL_CONSERVED:
                final = apply_map(initial, mapping)
                if sorted(final.symbols) != sorted(initial.symbols):
                    mismatches.append(
                        f"all-conserving map is not a permutation: {initial} -> {final}"
                    )

    for trial in range(trials):
        b = random_bits(rng, 2 * n)
        # the sequence's symbols, shuffled as a list of them would be
        permuted = list(zip(b[:n], b[n:]))
        rng.shuffle(permuted)
        # applying the map from the sequence to its permutation gives the
        # permutation, so the packed route measures that directly
        x, y, px, py = (int.from_bytes(c, "big")
                        for c in (b[:n], b[n:], *map(bytes, zip(*permuted))))
        conserved = _conserved(qn4_of_packed(x, y, n), qn4_of_packed(px, py, n))
        if trial == 0:
            initial = correlate([BitSeq(b[:n]), BitSeq(b[n:])])
            mapping = apply_map(initial, CorrSeq(2, tuple(permuted)))
            if conserved_quantum_numbers(initial, mapping) != conserved:
                mismatches.append(_ROUTES_DIFFER.format(initial, mapping))
        if conserved != _ALL_CONSERVED:
            missing = "".join(sorted(_ALL_CONSERVED - conserved))
            mismatches.append(f"permutation map fails to conserve {missing}")

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
