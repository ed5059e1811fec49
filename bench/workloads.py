"""Seeded request generators for the four benchmark workloads.

Every request is the argv of one `spincorr` CLI call, written in
`--flag=value` form: `--M -1/2` is read by argparse as an unknown option
and exits 2, so the space-separated form cannot carry negative
half-integers.

Requests come in blocks.  Each block is a Latin-hypercube sample of the
workload's input distribution: the quantity that sets a request's cost
(log n, j1, j2) is split into one stratum per block member and each
member draws from its own stratum.  Any two seeds therefore draw nearly
the same mix of cheap and expensive requests, which keeps per-run medians
and tails comparable across seeds; the seed still decides every value and
the order within each block.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, List, Tuple

WORKLOADS = ("prob", "converge", "selftest", "cg")

# Upper bound on 2(j1 + j2) for high-j `prob` requests.  Above it the
# stretched states (J = j1 + j2 or one less) have probabilities below
# 1e-6, and `--digits` >= 7 renders those in exponent form ("3.698E-7"),
# which breaks the schema's decimal pattern.  That is a defect of the
# program, not of the request; tests_bench.py reproduces it, and the bound
# keeps it out of the timed runs, whose every request must succeed.
MAX_TJ_SUM = 22


def fmt_half(tv: int) -> str:
    """Render a doubled integer as the CLI expects: "3/2", "-1/2", "2"."""
    return str(tv // 2) if tv % 2 == 0 else f"{tv}/2"


def _strata(rng: random.Random, size: int) -> List[float]:
    """One uniform draw in each of `size` equal slices of [0, 1), shuffled."""
    points = [(i + rng.random()) / size for i in range(size)]
    rng.shuffle(points)
    return points


def _log_between(u: float, lo: int, hi: int) -> int:
    return round(lo * (hi / lo) ** u)


def _pick(u: float, values: range) -> int:
    """The value at quantile u of `values`."""
    return values[min(int(u * len(values)), len(values) - 1)]


def _spins(tj1: int, tj2: int, u_J: float, u_M: float) -> List[str]:
    """--j1/--j2/--J/--M with J and M at quantiles u_J, u_M of the values the
    spins allow, so uniform u gives J and M uniform over those values."""
    tJ = _pick(u_J, range(abs(tj1 - tj2), tj1 + tj2 + 1, 2))
    tM = _pick(u_M, range(-tJ, tJ + 1, 2))
    return [f"--j1={fmt_half(tj1)}", f"--j2={fmt_half(tj2)}",
            f"--J={fmt_half(tJ)}", f"--M={fmt_half(tM)}"]


def _formats(rng: random.Random, size: int) -> List[str]:
    """Half CSV, half JSON, in seeded order (size is even)."""
    formats = ["csv", "json"] * (size // 2)
    rng.shuffle(formats)
    return formats


def _lhs(rng: random.Random, size: int, dims: int) -> List[Tuple[float, ...]]:
    """`size` points of a Latin hypercube in `dims` dimensions."""
    return list(zip(*(_strata(rng, size) for _ in range(dims))))


def _prob_block(rng: random.Random) -> List[List[str]]:
    """Eight large-n requests (n log-uniform in [256, 1024], j <= 2) and
    eight high-j requests (n log-uniform in [64, 256], j in [2, 6],
    j1 + j2 <= 11)."""
    size = 8
    requests = []
    fmts = _formats(rng, 2 * size)
    for u_n, u_1, u_2, u_J, u_M in _lhs(rng, size, 5):
        tj1, tj2 = _pick(u_1, range(1, 5)), _pick(u_2, range(1, 5))
        requests.append(["prob", f"--n={_log_between(u_n, 256, 1024)}",
                         *_spins(tj1, tj2, u_J, u_M)])
    for u_n, u_1, u_2, u_J, u_M in _lhs(rng, size, 5):
        tj1 = _pick(u_1, range(4, 13))
        tj2 = _pick(u_2, range(4, min(12, MAX_TJ_SUM - tj1) + 1))
        requests.append(["prob", f"--n={_log_between(u_n, 64, 256)}",
                         *_spins(tj1, tj2, u_J, u_M)])
    for argv, fmt in zip(requests, fmts):
        argv += [f"--format={fmt}", f"--digits={rng.randint(6, 30)}"]
    rng.shuffle(requests)
    return requests


def _converge_block(rng: random.Random) -> List[List[str]]:
    """Two geometric scans (n-start <= 16, n-max log-uniform in [256, 1024])
    and two linear scans (--step in [16, 64], n-max in [128, 256]), j <= 2."""
    requests = []
    fmts = _formats(rng, 4)
    for i, (u_n, u_1, u_2, u_J, u_M) in enumerate(_lhs(rng, 4, 5)):
        tj1, tj2 = _pick(u_1, range(1, 5)), _pick(u_2, range(1, 5))
        n_start = rng.randint(max(1, tj1 + tj2), 16)
        if i % 2 == 0:
            n_max = _log_between(u_n, 256, 1024)
            scan = [f"--n-start={n_start}", f"--n-max={n_max}", "--geometric"]
        else:
            n_max = _log_between(u_n, 128, 256)
            scan = [f"--n-start={n_start}", f"--n-max={n_max}",
                    f"--step={rng.randint(16, 64)}"]
        requests.append(["converge", *_spins(tj1, tj2, u_J, u_M), *scan,
                         f"--format={fmts[i]}"])
    rng.shuffle(requests)
    return requests


def _selftest_block(rng: random.Random) -> List[List[str]]:
    return [["selftest", f"--seed={rng.randrange(1 << 31)}"]]


def _cg_block(rng: random.Random) -> List[List[str]]:
    """Four requests with j1, j2 in [20, 60], half-integers included."""
    requests = []
    fmts = _formats(rng, 4)
    for fmt, (u_1, u_2, u_J, u_M) in zip(fmts, _lhs(rng, 4, 4)):
        tj1, tj2 = _pick(u_1, range(40, 121)), _pick(u_2, range(40, 121))
        requests.append(["cg", *_spins(tj1, tj2, u_J, u_M), f"--format={fmt}"])
    return requests


BLOCKS: Dict[str, Callable[[random.Random], List[List[str]]]] = {
    "prob": _prob_block,
    "converge": _converge_block,
    "selftest": _selftest_block,
    "cg": _cg_block,
}


def requests(workload: str, seed: int) -> Iterator[List[str]]:
    """Endless, reproducible stream of argv lists for one workload."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield from BLOCKS[workload](rng)


def first(workload: str, seed: int, count: int) -> List[List[str]]:
    stream = requests(workload, seed)
    return [next(stream) for _ in range(count)]


# The README's worked example; every run checks it before measuring.
README_EXAMPLE = {
    ("prob", "--n=6", "--j1=1", "--j2=1", "--J=1", "--M=0"):
        [(8, 17), (1, 17), (8, 17)],
    ("cg", "--j1=1", "--j2=1", "--J=1", "--M=0"):
        [(1, 2), (0, 1), (1, 2)],
}
