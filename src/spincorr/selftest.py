"""Built-in verification suite driven by the `selftest` CLI command.

Each check pits an independent route (enumeration, random sampling, or a
raw lattice sum) against the closed-form implementation and reports one
pass/fail line.  The random seed is printed so failures reproduce.
"""

from __future__ import annotations

import marshal
import os
import random
import sys
import time
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, List, Optional, Tuple

from . import brute
from .pathcount import Priors, normalize, path_weights, probability_table
from .quantum_numbers import (
    QN8, A, B, C, D, counts4_from_qn4, f_factor, phi, qn4_from_counts,
    qn4_of_corrseq,
)
from .selection import allowed_m_pairs, check_triangle, g12_range, j12_range
from .sequences import BitSeq, correlate


def check_phi_equivalence(enum_n_max: int, phi_fn: Callable[[QN8], int]) -> List[str]:
    """phi agrees with one-pass enumeration over the full grid at small n."""
    problems = []
    for n in range(1, enum_n_max + 1):
        bins = brute.enumerate_base8_counts(n)
        for key, observed in bins.items():
            q = brute.counts_key_to_qn8(key)
            predicted = phi_fn(q)
            if predicted != observed:
                problems.append(
                    f"phi_by_enumeration mismatch at n={n}: counts {key} "
                    f"enumerated {observed}, phi gave {predicted}"
                )
        if sum(bins.values()) != 8**n:
            problems.append(f"enumeration at n={n} lost sequences")
    return problems


def check_random_triples(n_values: List[int], trials: int, rng: random.Random) -> List[str]:
    """Relations between the three pairwise measurements of random triples."""
    problems = []
    for n in n_values:
        # every trial's n bits of s1, then of s0, then of s2, in one draw:
        # the same stream as one 3n-bit draw per trial
        bits = brute.random_bits(rng, 3 * n * trials)
        for t in range(0, 3 * n * trials, 3 * n):
            s1, s0, s2 = (BitSeq._trusted(bits[i : i + n]) for i in (t, t + n, t + 2 * n))
            q10 = qn4_of_corrseq(correlate([s1, s0]))
            q02 = qn4_of_corrseq(correlate([s0, s2]))
            q12 = qn4_of_corrseq(correlate([s1, s2]))
            lo, hi = g12_range(n, q10.tj, q02.tj)
            checks = [
                ("n identity", q10.n == n and q02.n == n and q12.n == n),
                ("m12 = m10 + m02", q12.tm == q10.tm + q02.tm),
                ("m12 = l02 - l10", q12.tm == q02.tl - q10.tl),
                ("l12 = l10 + m02", q12.tl == q10.tl + q02.tm),
                ("l12 = l02 - m10", q12.tl == q02.tl - q10.tm),
                ("j triangle", check_triangle(q10.tj, q02.tj, q12.tj)),
                ("g range", lo <= q12.tg <= hi),
            ]
            for name, ok in checks:
                if not ok:
                    problems.append(
                        f"{name} failed at n={n} for ({s1}, {s0}, {s2})"
                    )
    return problems


def check_roundtrips(trials: int, rng: random.Random) -> List[str]:
    """counts -> quantum numbers -> counts is the identity."""
    problems = []
    for _ in range(trials):
        n = rng.randrange(1, 40)
        c4 = {}
        remaining = n
        for sym in (A, B, C):
            c4[sym] = rng.randint(0, remaining)
            remaining -= c4[sym]
        c4[D] = remaining
        if counts4_from_qn4(qn4_from_counts(c4)) != c4:
            problems.append(f"base-4 round trip failed for {c4}")
    return problems


def check_permutation_maps(n: int, trials: int, rng: random.Random) -> List[str]:
    report = brute.map_conservation_report(n, trials, rng.randrange(1 << 30))
    return list(report["mismatches"])


def _prior_grid(n_max: int, tj_max: int):
    for tj1 in range(0, tj_max + 1):
        for tj2 in range(0, tj_max + 1):
            for tJ in j12_range(tj1, tj2):
                for tM in range(-tJ, tJ + 1, 2):
                    for n in range(max(1, tj1 + tj2), n_max + 1):
                        yield n, tj1, tj2, tJ, tM


def check_normalization(n_max: int, tj_max: int) -> List[str]:
    """Probabilities sum to exactly 1, and every path count is positive, as
    the proof in pathcount._weight says; a zero or negative one is reported."""
    problems = []
    for n, tj1, tj2, tJ, tM in _prior_grid(n_max, tj_max):
        priors = Priors(n=n, tj10=tj1, tj02=tj2, tj12=tJ, tm12=tM)
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

    phi is evaluated once at every lattice point, and the sum is the one
    step 1 of the proof in pathcount._weight gives: f_a f_b times the sum
    over l12 of (sum_k (-1)^k phi(k, l12))^2.
    """
    f_a = f_factor(priors.n, priors.tj10, tm10)
    f_b = f_factor(priors.n, priors.tj02, tm02)
    # crude but safe cap: k is a count bounded by both 2j10 and 2j02
    k_hi = min(priors.tj10, priors.tj02)
    total = sum(
        sum(
            (-1) ** k * phi(QN8(priors.n, priors.tj10, priors.tj02, tm10, tm02,
                                priors.tj12, tl12, k))
            for k in range(0, k_hi + 1)
        ) ** 2
        for tl12 in range(-priors.n, priors.n + 1)
    )
    return f_a * f_b * total


def check_bounds_equivalence(n_max: int, tj_max: int) -> List[str]:
    """probability_table, the closed form the CLI prints, equals the raw
    lattice sum of every allowed pair divided by their sum, row by row."""
    problems = []
    for n, tj1, tj2, tJ, tM in _prior_grid(n_max, tj_max):
        priors = Priors(n=n, tj10=tj1, tj02=tj2, tj12=tJ, tm12=tM)
        pairs = allowed_m_pairs(tj1, tj2, tM)
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


Check = Tuple[str, Callable[[], List[str]]]
# a check's name, its problems and its time in milliseconds
Result = Tuple[str, List[str], float]


def _run_timed(checks: List[Check]) -> List[Result]:
    results = []
    for name, fn in checks:
        start = time.perf_counter()
        problems = fn()
        results.append((name, problems, (time.perf_counter() - start) * 1e3))
    return results


def _run_beside(forked: List[Check], here: List[Check]) -> List[Result]:
    """The results of `here`, run in this process, and of `forked`, run at
    the same time in a forked child where os.fork exists.

    The child sends its results back through a pipe and leaves only through
    os._exit, so it never returns into the caller or flushes the caller's
    buffers.  If it fails or sends nothing, `forked` runs here as well, and
    an exception it raises reaches the caller as usual.
    """
    if not hasattr(os, "fork"):
        return _run_timed(here) + _run_timed(forked)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(marshal.dumps(_run_timed(forked)))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        results = _run_timed(here)
    finally:
        # read to the end before reaping, whether or not `here` raised
        try:
            with os.fdopen(read_fd, "rb") as pipe:
                data = pipe.read()
        finally:
            _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        return results + _run_timed(forked)
    return results + marshal.loads(data)


def run_selftest(
    seed: int = 0,
    n_max: Optional[int] = None,
    phi_fn: Optional[Callable[[QN8], int]] = None,
) -> bool:
    """Run every check; print the seed and one line per check to stdout,
    then each check's time to stderr.

    n_max caps the enumeration (6 if None) and the sampling (64 if None).
    The seeded checks draw from one random.Random(seed) in a fixed order.
    The three seed-free checks take no rng, so where os.fork exists they
    run in a forked child at the same time, which leaves the draw stream
    and stdout as they are.  Nothing is printed before every check is done.
    """
    rng = random.Random(seed)
    phi_fn = phi_fn or phi
    enum_n_max, triple_n_max = n_max or 6, n_max or 64
    triple_ns = [n for n in (4, 16, 64) if n <= triple_n_max] or [max(2, triple_n_max)]
    map_n = min(32, triple_n_max)
    norm_n = min(12, max(2, enum_n_max * 2))

    # (name, draws from rng, check) in print order; the checks that draw
    # run here in this order, the others beside them
    checks: List[Tuple[str, bool, Callable[[], List[str]]]] = [
        (
            "phi_by_enumeration equivalence",
            False,
            lambda: check_phi_equivalence(min(enum_n_max, 6), phi_fn),
        ),
        (
            "random-triple selection rules",
            True,
            lambda: check_random_triples(triple_ns, 1000, rng),
        ),
        ("count/quantum-number round trips", True, lambda: check_roundtrips(1000, rng)),
        (
            "permutation map conservation",
            True,
            lambda: check_permutation_maps(map_n, 200, rng),
        ),
        ("exact normalization", False, lambda: check_normalization(norm_n, 2)),
        (
            "summation bounds equivalence",
            False,
            lambda: check_bounds_equivalence(min(norm_n, 8), 2),
        ),
    ]
    by_name = {
        name: (problems, ms)
        for name, problems, ms in _run_beside(
            forked=[(name, fn) for name, draws, fn in checks if not draws],
            here=[(name, fn) for name, draws, fn in checks if draws],
        )
    }

    print(f"seed: {seed}")
    all_ok = True
    for name, _, _ in checks:
        problems = by_name[name][0]
        status = "PASS" if not problems else "FAIL"
        all_ok &= not problems
        print(f"{status} {name}")
        for p in problems[:5]:
            print(f"  {p}")
        if len(problems) > 5:
            print(f"  ... {len(problems) - 5} more")
    for name, _, _ in checks:
        print(f"selftest: {name}: {by_name[name][1]:.1f} ms", file=sys.stderr)
    return all_ok
