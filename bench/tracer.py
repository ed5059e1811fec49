"""Layer tracing for the benchmark, run in one child process per request.

Each mode prints one JSON object on stdout:

    python3 bench/tracer.py plain -- <spincorr argv>
    python3 bench/tracer.py traced <spans.jsonl.gz> <request id> -- <spincorr argv>
    python3 bench/tracer.py ladder

`plain` times `spincorr.cli.main(argv)` in-process with stdout captured.
`traced` does the same after wrapping every function named in LAYERS, in
every `spincorr` module namespace that binds it, so that calls through
`cli`, `cg` or `selftest` are all seen.  The wrappers keep spans in memory
(name, parent, start, end) and the spans are written out after `main`
returns.  A span's self time is its duration minus the durations of its
child spans; calls are sequential, so children never overlap and the self
times of one request sum exactly to the duration of its `cli.main` span.
`ladder` times `probability_table` over the ROADMAP's size grid.

Run from the repository root with `src` on PYTHONPATH.  A fresh process per
request keeps the package's caches as cold as they are for a CLI user.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import io
import json
import math
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (span name, module, functions); None means every public function the
# module defines.
LAYERS: List[Tuple[str, str, Optional[List[str]]]] = [
    ("cli.main", "cli", ["main"]),
    ("cli.emit", "cli", ["_emit"]),
    ("halfint", "halfint", None),
    ("selection", "selection", None),
    ("pathcount.probability_table", "pathcount", ["probability_table"]),
    ("pathcount.upsilon", "pathcount", ["upsilon"]),
    ("pathcount.phi", "pathcount", ["phi"]),
    ("pathcount.f_factor", "pathcount", ["f_factor"]),
    ("quantum_numbers.counts8_from_qn8", "quantum_numbers", ["counts8_from_qn8"]),
    ("quantum_numbers.qn4_of_corrseq", "quantum_numbers", ["qn4_of_corrseq"]),
    ("cg.cg_squared", "cg", ["cg_squared"]),
    ("cg.decimal_string", "cg", ["decimal_string"]),
    ("cg.convergence_scan", "cg", ["convergence_scan"]),
    ("sequences.correlate", "sequences", ["correlate"]),
    ("brute.enumerate_base8_counts", "brute", ["enumerate_base8_counts"]),
    ("brute.map_conservation_report", "brute", ["map_conservation_report"]),
    ("selftest.check_phi_equivalence", "selftest", ["check_phi_equivalence"]),
    ("selftest.check_random_triples", "selftest", ["check_random_triples"]),
    ("selftest.check_roundtrips", "selftest", ["check_roundtrips"]),
    ("selftest.check_permutation_maps", "selftest", ["check_permutation_maps"]),
    ("selftest.check_normalization", "selftest", ["check_normalization"]),
    ("selftest.check_bounds_equivalence", "selftest", ["check_bounds_equivalence"]),
]
SPAN_NAMES = [name for name, _, _ in LAYERS]

# The ROADMAP's benchmark grid: n at j1 = j2 = J = 2, and j1 = j2 = J = j at n = 256.
N_LADDER = [512, 2048, 8192]
J_LADDER = [4, 8, 12]
RUNG_CAP_S = 5.0


def _run_main(main: Callable) -> Tuple[int, str, int]:
    """Call main with stdout captured; return exit code, stdout, elapsed ns."""
    buf = io.StringIO()
    start = time.perf_counter_ns()
    with contextlib.redirect_stdout(buf):
        try:
            code = main()
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue(), time.perf_counter_ns() - start


class Tracer:
    """Span recorder whose wrappers replace the traced functions."""

    def __init__(self):
        self.spans: List[List[int]] = []  # [name index, parent, start ns, end ns]
        self._stack: List[int] = []
        self.phi_nonzero = 0
        self.max_int_bits = 0
        self.tables: List = []  # Priors of every probability_table call

    def wrap(self, index: int, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        observe = {
            "pathcount.phi": self._observe_phi,
            "pathcount.upsilon": self._observe_upsilon,
            "pathcount.probability_table": self._observe_table,
        }.get(SPAN_NAMES[index])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [index, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observe_phi(self, args, result: int) -> None:
        if result:
            self.phi_nonzero += 1
            self.max_int_bits = max(self.max_int_bits, result.bit_length())

    def _observe_upsilon(self, args, result) -> None:
        self.max_int_bits = max(self.max_int_bits, result.numerator.bit_length(),
                                result.denominator.bit_length())

    def _observe_table(self, args, result) -> None:
        self.tables.append(args[0])

    def install(self) -> Dict[str, Callable]:
        """Wrap every LAYERS function in every spincorr namespace binding it.
        Returns the unwrapped functions by name."""
        import spincorr  # noqa: F401  (imports every submodule)

        wrappers: Dict[int, Callable] = {}
        originals: Dict[str, Callable] = {}
        for index, (_, module_name, names) in enumerate(LAYERS):
            module = importlib.import_module(f"spincorr.{module_name}")
            if names is None:
                names = [
                    n for n, obj in vars(module).items()
                    if inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not n.startswith("_")
                ]
            for name in names:
                fn = getattr(module, name, None)
                if fn is not None:
                    wrappers[id(fn)] = self.wrap(index, fn)
                    originals[name] = fn
        for module_name, module in list(sys.modules.items()):
            if module_name == "spincorr" or module_name.startswith("spincorr."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrappers:
                        setattr(module, attr, wrappers[id(obj)])
        return originals

    def self_times(self) -> Tuple[List[int], List[int]]:
        """Per span name: total self time (ns) and number of calls."""
        self_ns = [0] * len(SPAN_NAMES)
        calls = [0] * len(SPAN_NAMES)
        for index, parent, start, end in self.spans:
            self_ns[index] += end - start
            calls[index] += 1
            if parent >= 0:
                self_ns[self.spans[parent][0]] -= end - start
        return self_ns, calls


def lattice_points(tables: List, originals: Dict[str, Callable]) -> Optional[int]:
    """(k_a, k_b, l12) points the lattice sum of each traced table spans,
    counted with the package's public k_bounds and l12_bounds."""
    from spincorr import pathcount

    k_bounds = getattr(pathcount, "k_bounds", None)
    l12_bounds = getattr(pathcount, "l12_bounds", None)
    pairs_of = originals.get("allowed_m_pairs")
    if k_bounds is None or l12_bounds is None or pairs_of is None:
        return None
    total = 0
    for p in tables:
        for tm10, tm02 in pairs_of(p.tj10, p.tj02, p.tm12):
            k_min, k_max = k_bounds(p.tj10, tm10, p.tj02, tm02, p.tj12)
            for k_a in range(k_min, k_max + 1):
                for k_b in range(k_min, k_max + 1):
                    lo, hi = l12_bounds(p, k_a, k_b)
                    total += max(0, (hi - lo) // 2 + 1)
    return total


def run_plain(argv: List[str]) -> Dict:
    from spincorr import cli

    code, out, elapsed = _run_main(lambda: cli.main(argv))
    return {"returncode": code, "stdout": out, "inprocess_ns": elapsed}


def run_traced(argv: List[str], spans_path: str, request_id: int) -> Dict:
    tracer = Tracer()
    originals = tracer.install()
    from spincorr import cli

    code, out, elapsed = _run_main(lambda: cli.main(argv))
    self_ns, calls = tracer.self_times()
    with gzip.open(spans_path, "wt", compresslevel=1) as f:
        f.write(json.dumps({"request": request_id, "argv": argv, "names": SPAN_NAMES,
                            "fields": ["name", "parent", "start_ns", "end_ns"]}) + "\n")
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")
    return {
        "returncode": code,
        "stdout": out,
        "inprocess_ns": elapsed,
        "root_span_ns": sum(e - s for _, parent, s, e in tracer.spans if parent < 0),
        "self_ns": dict(zip(SPAN_NAMES, self_ns)),
        "calls": dict(zip(SPAN_NAMES, calls)),
        "phi_nonzero": tracer.phi_nonzero,
        "max_int_bits": tracer.max_int_bits,
        "lattice_points": lattice_points(tracer.tables, originals),
    }


def _slope(points: List[Tuple[float, float]]) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _time_table(priors_args: Tuple[int, ...]) -> float:
    from spincorr.pathcount import Priors, probability_table

    times = []
    while len(times) < 3 and sum(times) < 0.5:
        start = time.perf_counter()
        probability_table(Priors(*priors_args))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _ladder(sizes: List[int], priors_of: Callable[[int], Tuple[int, ...]]) -> Dict:
    """Time each rung in ascending order.  From the third rung on, a rung
    whose time, extrapolated from the slope so far, exceeds RUNG_CAP_S is
    not run: it is reported as skipped, with the prediction."""
    rungs, measured = [], []
    for size in sizes:
        if len(measured) >= 2:
            slope = _slope(measured)
            last_size, last_time = measured[-1]
            predicted = last_time * (size / last_size) ** slope
            if predicted > RUNG_CAP_S:
                rungs.append({"size": size, "skipped":
                              f"predicted {predicted:.3g} s exceeds the "
                              f"{RUNG_CAP_S:g} s rung cap"})
                continue
        seconds = _time_table(priors_of(size))
        measured.append((size, seconds))
        rungs.append({"size": size, "seconds": seconds})
    return {"rungs": rungs, "exponent": _slope(measured)}


def run_ladder() -> Dict:
    return {
        "n": _ladder(N_LADDER, lambda n: (n, 4, 4, 4, 0)),
        "j": _ladder(J_LADDER, lambda j: (256, 2 * j, 2 * j, 2 * j, 0)),
    }


def main(args: List[str]) -> int:
    mode = args[0]
    argv = args[args.index("--") + 1:] if "--" in args else []
    if mode == "plain":
        result = run_plain(argv)
    elif mode == "traced":
        result = run_traced(argv, args[1], int(args[2]))
    elif mode == "ladder":
        result = run_ladder()
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
