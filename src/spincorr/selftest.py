"""Built-in verification suite driven by the `selftest` CLI command.

Each check pits an independent route (enumeration, random sampling, or a
raw lattice sum) against the closed-form implementation and reports one
pass/fail line.  The random seed is printed so failures reproduce.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from itertools import zip_longest

from . import brute
from .pathcount import Priors, normalize, path_weights, probability_table
from .quantum_numbers import (
    counts4_from_qn4, f_factor, phi, qn4_from_counts, qn4_of_corrseq,
    qn4_of_packed, qn8_from_counts,
)
from .selection import allowed_m_pairs, check_triangle, g12_range, j12_range
from .sequences import BitSeq, correlate


def check_phi_equivalence(enum_n_max: int) -> list[str]:
    """phi agrees with one-pass enumeration over the full grid at small n."""
    problems = []
    # the bins grow once, and each length is checked as it is reached,
    # n = 0 (the empty sequence) first
    for n, bins in enumerate(brute.base8_count_layers(enum_n_max)):
        for key, observed in bins.items():
            q = qn8_from_counts(key)
            predicted = phi(q)
            if predicted != observed:
                problems.append(
                    f"phi_by_enumeration mismatch at n={n}: counts {key} "
                    f"enumerated {observed}, phi gave {predicted}"
                )
        if sum(bins.values()) != 8**n:
            problems.append(f"enumeration at n={n} lost sequences")
    return problems


# the relations check_random_triples tests, in the order it tests them
_TRIPLE_RELATIONS = (
    "n identity",
    "m12 = m10 + m02",
    "m12 = l02 - l10",
    "l12 = l10 + m02",
    "l12 = l02 - m10",
    "j triangle",
    "g range",
)


def check_random_triples(n_values: list[int], trials: int, rng: random.Random) -> list[str]:
    """Relations between the three pairwise measurements of random triples,
    taken on packed bits and, in the first trial of each n, by correlate as
    well.  The relations read the packed measurements only, where tj + tg = n
    holds by construction, so the "n identity" guards qn4_of_packed and
    qn4_from_counts against a regression; the correlate route meets it
    because it equals the packed one.  Raises ValueError for n < 1, before
    any draw."""
    if min(n_values, default=1) < 1:
        raise ValueError(f"sequence length n must be >= 1, got {min(n_values)}")
    problems = []
    for n in n_values:
        # every trial's n bits of s1, then of s0, then of s2, in one draw:
        # the same stream as one 3n-bit draw per trial, one byte per bit
        raw = brute.random_bits(rng, 3 * n * trials)
        for t in range(0, 3 * n * trials, 3 * n):
            x1 = int.from_bytes(raw[t : t + n], "big")
            x0 = int.from_bytes(raw[t + n : t + 2 * n], "big")
            x2 = int.from_bytes(raw[t + 2 * n : t + 3 * n], "big")
            q10 = qn4_of_packed(x1, x0, n)
            q02 = qn4_of_packed(x0, x2, n)
            q12 = qn4_of_packed(x1, x2, n)
            # unpacked once: each field is read more than once below
            tj10, tm10, tg10, tl10 = q10
            tj02, tm02, tg02, tl02 = q02
            tj12, tm12, tg12, tl12 = q12
            lo, hi = g12_range(n, tj10, tj02)
            # one tuple of outcomes, in the order of _TRIPLE_RELATIONS; the
            # names are paired with them only when one fails
            oks = (
                tj10 + tg10 == n and tj02 + tg02 == n and tj12 + tg12 == n,
                tm12 == tm10 + tm02,
                tm12 == tl02 - tl10,
                tl12 == tl10 + tm02,
                tl12 == tl02 - tm10,
                check_triangle(tj10, tj02, tj12),
                lo <= tg12 <= hi,
            )
            if t == 0 or not all(oks):
                s1, s0, s2 = (BitSeq(raw[i : i + n]) for i in (t, t + n, t + 2 * n))
                where = f"at n={n} for ({s1}, {s0}, {s2})"
                pairs = ([s1, s0], [s0, s2], [s1, s2])
                if t == 0 and [qn4_of_corrseq(correlate(p)) for p in pairs] != [q10, q02, q12]:
                    problems.append(f"packed and correlated measurements differ {where}")
                problems += [f"{name} failed {where}" for name, ok in zip(_TRIPLE_RELATIONS, oks)
                             if not ok]
    return problems


def check_roundtrips(trials: int, rng: random.Random) -> list[str]:
    """counts -> quantum numbers -> counts is the identity."""
    problems = []
    for _ in range(trials):
        n = rng.randrange(1, 40)
        a = rng.randint(0, n)
        b = rng.randint(0, n - a)
        c = rng.randint(0, n - a - b)
        c4 = (a, n - a - b - c, c, b)
        if counts4_from_qn4(qn4_from_counts(c4)) != c4:
            problems.append(f"base-4 round trip failed for {c4}")
    return problems


def check_permutation_maps(n: int, trials: int, rng: random.Random) -> list[str]:
    """brute.map_conservation_report at length n, seeded by one draw from
    rng.  Raises ValueError for n < 1, before that draw."""
    if n < 1:
        raise ValueError(f"sequence length n must be >= 1, got {n}")
    report = brute.map_conservation_report(n, trials, rng.randrange(1 << 30))
    return list(report["mismatches"])


def _prior_grid(n_max: int, tj_max: int):
    for tj1 in range(0, tj_max + 1):
        for tj2 in range(0, tj_max + 1):
            for tJ in j12_range(tj1, tj2):
                for tM in range(-tJ, tJ + 1, 2):
                    for n in range(max(1, tj1 + tj2), n_max + 1):
                        yield Priors(n=n, tj10=tj1, tj02=tj2, tj12=tJ, tm12=tM)


def check_normalization(n_max: int, tj_max: int) -> list[str]:
    """Probabilities sum to exactly 1, and every path count is positive, as
    the Toeplitz form in pathcount._moments' proof makes it; a zero or
    negative one is reported."""
    problems = []
    for priors in _prior_grid(n_max, tj_max):
        weights = path_weights(priors)
        total = sum(p for _, _, p in normalize(weights))
        if total != 1:
            problems.append(f"normalization failed for {priors}: sum = {total}")
        for tm10, tm02, w in weights:
            # the path count is the weight times a positive factor shared by
            # every pair, so the two have the same sign
            if w <= 0:
                problems.append(
                    f"non-positive path count for {priors}, pair ({tm10}, {tm02})"
                )
    return problems


def upsilon_full_lattice(priors: Priors, tm10: int, tm02: int) -> Fraction:
    """Reference path count: scan the whole (k, l12) rectangle, letting
    invalid lattice points contribute zero, with no precomputed bounds.

    The raw sum is f_a f_b times the sum over (k_a, k_b, l12) of
    (-1)^(k_a + k_b) phi(k_a, l12) phi(k_b, l12), which is the sum over l12
    of (sum_k (-1)^k phi(k, l12))^2; that form evaluates phi once at every
    lattice point.
    """
    n, tj10, tj02, tj12 = priors.n, priors.tj10, priors.tj02, priors.tj12
    # crude but safe cap: k is a count bounded by both 2j10 and 2j02
    k_hi = min(tj10, tj02)
    total = 0
    for tl12 in range(-n, n + 1):
        inner = 0
        for k in range(k_hi + 1):
            p = phi((n, tj10, tj02, tm10, tm02, tj12, tl12, k))
            inner += -p if k & 1 else p
        total += inner * inner
    return f_factor(n, tj10, tm10) * f_factor(n, tj02, tm02) * total


def check_bounds_equivalence(n_max: int, tj_max: int) -> list[str]:
    """probability_table, the closed form the CLI prints, equals the raw
    lattice sum of every allowed pair divided by their sum, row by row."""
    problems = []
    for priors in _prior_grid(n_max, tj_max):
        pairs = allowed_m_pairs(priors.tj10, priors.tj02, priors.tm12)
        lattice = [upsilon_full_lattice(priors, tm10, tm02) for tm10, tm02 in pairs]
        norm = sum(lattice)
        slow = [(tm10, tm02, w / norm) for (tm10, tm02), w in zip(pairs, lattice)]
        rows = zip_longest(probability_table(priors), slow, fillvalue=(None, None, None))
        for fast, (tm10, tm02, p) in rows:
            if fast != (tm10, tm02, p):
                problems.append(
                    f"closed form {fast[2]} != lattice sum {p} for {priors}, "
                    f"pair ({tm10}, {tm02})"
                )
    return problems


def run_selftest(seed: int = 0) -> bool:
    """Run every check; print the seed and one line per check to stdout,
    then each check's time to stderr.

    The checks run in print order, in this process.  The seeded ones draw
    from one random.Random(seed) in that order, so a printed seed names
    the same draws in every version.  Nothing is printed before every
    check is done.
    """
    rng = random.Random(seed)
    # each check's name, its problems and its time in milliseconds
    results = []
    for name, check in [
        ("phi_by_enumeration equivalence", lambda: check_phi_equivalence(6)),
        ("random-triple selection rules", lambda: check_random_triples([4, 16, 64], 1000, rng)),
        ("count/quantum-number round trips", lambda: check_roundtrips(1000, rng)),
        ("permutation map conservation", lambda: check_permutation_maps(32, 200, rng)),
        ("exact normalization", lambda: check_normalization(12, 2)),
        ("summation bounds equivalence", lambda: check_bounds_equivalence(8, 2)),
    ]:
        start = time.perf_counter()
        problems = check()
        results.append((name, problems, (time.perf_counter() - start) * 1e3))

    print(f"seed: {seed}")
    all_ok = True
    for name, problems, _ in results:
        status = "PASS" if not problems else "FAIL"
        all_ok &= not problems
        print(f"{status} {name}")
        for p in problems[:5]:
            print(f"  {p}")
        if len(problems) > 5:
            print(f"  ... {len(problems) - 5} more")
    for name, _, ms in results:
        print(f"selftest: {name}: {ms:.1f} ms", file=sys.stderr)
    return all_ok
