"""End-to-end benchmark of the `spincorr` CLI, with a traced run per layer.

    python3 bench/run.py --workload {prob,converge,selftest,cg} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Each request is one `python -m spincorr.cli`
subprocess with `src` on PYTHONPATH, so the working tree is measured.  The
loop is closed with a single client: the next request starts when the
previous one has exited, and no request starts after `--seconds`.  Requests
come from workloads.py and depend only on the workload and the seed.

Before measuring, every run checks the README's worked example.  Every
response is then checked by checks.py, which does not import the package.

--trace 0 reports the end-to-end metrics: set-up time (interpreter start
plus `import spincorr.cli`, median of several), requests per second, median
and tail latency, the largest per-request peak RSS.  --trace 1 runs the same
requests through tracer.py, once plain and once with every layer wrapped,
and reports per-layer self times and counts, averaged per request, plus the
`probability_table` scaling ladder.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A fuller record (per-request stdout digests, commit, tail
percentile, spans) goes to bench/results/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import checks
import workloads
from tracer import SPAN_NAMES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCHEMA = SRC / "spincorr" / "data" / "output_schema.json"
RESULTS = BENCH_DIR / "results"

REQUEST_TIMEOUT_S = 30.0
# A set-up sample (interpreter start plus import) is taken before the first
# request and then once per SETUP_PERIOD_S, so it spans the whole run.
SETUP_PERIOD_S = 1.0
# The tail percentile of each workload: the highest one that leaves at least
# ten requests above it in a 20 s run on a 2-core x86-64 host (about 170 prob,
# 180 converge, 200 cg and 22 selftest requests).
TAIL_PERCENTILE = {"prob": 90, "converge": 90, "selftest": 50, "cg": 90}


class Spawner:
    """Runs one child process at a time and reaps it with os.wait4."""

    def __init__(self, env: Dict[str, str]):
        self.env = env
        self._out = tempfile.TemporaryFile(dir=RESULTS)
        self._err = tempfile.TemporaryFile(dir=RESULTS)

    def close(self) -> None:
        self._out.close()
        self._err.close()

    def run(self, args: List[str], timeout: float = REQUEST_TIMEOUT_S) -> Dict:
        for f in (self._out, self._err):
            f.seek(0)
            f.truncate()
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, self._out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, self._err.fileno(), 2),
        ]
        ready = False
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env,
                             file_actions=actions)
        try:
            pidfd = os.pidfd_open(pid)
            try:
                ready = bool(select.select([pidfd], [], [], timeout)[0])
            finally:
                os.close(pidfd)
        finally:
            if not ready:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        elapsed = time.perf_counter() - start
        self._out.seek(0)
        self._err.seek(0)
        return {
            "returncode": os.waitstatus_to_exitcode(status) if ready else "timeout",
            "seconds": elapsed,
            "maxrss_kb": usage.ru_maxrss,
            "stdout": self._out.read(),
            "stderr": self._err.read()[-400:].decode("utf-8", "replace"),
        }


def cli_args(argv: List[str]) -> List[str]:
    return ["-m", "spincorr.cli", *argv]


def check_readme(spawner: Spawner) -> List[str]:
    """The README's worked example must come out exactly."""
    problems = []
    for argv, expected in workloads.README_EXAMPLE.items():
        done = spawner.run(cli_args(list(argv)))
        prefix = "cg2" if argv[0] == "cg" else "p"
        try:
            rows = list(csv.DictReader(io.StringIO(done["stdout"].decode())))
            got = [(int(r[f"{prefix}_num"]), int(r[f"{prefix}_den"])) for r in rows]
        except (KeyError, ValueError, UnicodeDecodeError):
            got = None
        if done["returncode"] != 0 or got != expected:
            problems.append(f"{' '.join(argv)}: got {got}, exit {done['returncode']}, "
                            f"expected {expected}")
    return problems


def measure_setup(spawner: Spawner) -> float:
    done = spawner.run(["-c", "import spincorr.cli"])
    if done["returncode"] != 0:
        raise RuntimeError(f"import spincorr.cli failed: {done['stderr']}")
    return done["seconds"]


def quantile(values: List[float], percentile: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[percentile - 1]


def run_untraced(spawner: Spawner, workload: str, seed: int, seconds: float,
                 checker: checks.Checker) -> Dict:
    records, setup = [], []
    stream = workloads.requests(workload, seed)
    start = last_setup = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if not setup or time.perf_counter() - last_setup >= SETUP_PERIOD_S:
            setup.append(measure_setup(spawner))
            last_setup = time.perf_counter()
        argv = next(stream)
        records.append({"argv": argv, **spawner.run(cli_args(argv))})
    wall = time.perf_counter() - start - sum(setup)
    for r in records:
        out = r.pop("stdout")
        r["stdout_sha256"] = hashlib.sha256(out).hexdigest()
        r["problems"] = checker.problems(r["argv"], r["returncode"], out) \
            if r["returncode"] != "timeout" else ["timeout"]
    return {"records": records, "wall_s": wall, "setup_s": setup}


def run_traced(spawner: Spawner, workload: str, seed: int, seconds: float,
               checker: checks.Checker, spans_dir: Path) -> Dict:
    tracer = str(BENCH_DIR / "tracer.py")
    records = []
    stream = workloads.requests(workload, seed)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        argv = next(stream)
        request_id = len(records)
        plain = spawner.run([tracer, "plain", "--", *argv])
        spans = spans_dir / f"{request_id:05d}.jsonl.gz"
        traced = spawner.run([tracer, "traced", str(spans), str(request_id), "--", *argv])
        record = {"argv": argv, "problems": []}
        try:
            plain_out = json.loads(plain["stdout"])
            traced_out = json.loads(traced["stdout"])
        except ValueError:
            record["problems"] = [f"tracer child failed: {plain['stderr']} {traced['stderr']}"]
            records.append(record)
            continue
        out = traced_out.pop("stdout").encode()
        record["problems"] = checker.problems(argv, traced_out["returncode"], out)
        if plain_out["stdout"].encode() != out:
            record["problems"].append("traced stdout differs from plain stdout")
        if sum(traced_out["self_ns"].values()) != traced_out["root_span_ns"]:
            record["problems"].append("self times do not sum to the traced total")
        record.update(traced_out, plain_inprocess_ns=plain_out["inprocess_ns"],
                      bytes_out=len(out), stdout_sha256=hashlib.sha256(out).hexdigest())
        records.append(record)
    return {"records": records, "wall_s": time.perf_counter() - start}


def end_to_end_metrics(workload: str, run: Dict) -> Dict:
    ok = [r for r in run["records"] if not r["problems"]]
    latencies_ms = [1000 * r["seconds"] for r in ok] or [0.0]
    percentile = TAIL_PERCENTILE[workload]
    return {
        "setup_s": (statistics.median(run["setup_s"]), "s"),
        "requests_per_s": (len(ok) / run["wall_s"], "1/s"),
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "latency_tail_ms": (quantile(latencies_ms, percentile), "ms"),
        "peak_rss_mb": (max((r["maxrss_kb"] for r in run["records"]), default=0) / 1024,
                        "MB"),
    }


def layer_metrics(run: Dict, ladder: Dict) -> Dict:
    ok = [r for r in run["records"] if not r["problems"]]
    count = max(1, len(ok))

    def total(key: str) -> int:
        return sum(r[key] for r in ok)

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = (sum(r["self_ns"][name] for r in ok) / 1e9 / count, "s/req")
        metrics[f"{name}.calls"] = (sum(r["calls"][name] for r in ok) / count, "count/req")
    phi_calls = sum(r["calls"]["pathcount.phi"] for r in ok)
    lattice = sum(r["lattice_points"] or 0 for r in ok)
    plain_ns = total("plain_inprocess_ns")
    metrics.update({
        "cli.bytes_out": (total("bytes_out") / count, "B/req"),
        "pathcount.lattice_points": (lattice / count, "count/req"),
        "pathcount.phi_per_lattice_point": (phi_calls / lattice if lattice else 0.0, "ratio"),
        "pathcount.phi.nonzero_ratio":
            (total("phi_nonzero") / phi_calls if phi_calls else 0.0, "ratio"),
        "pathcount.max_int_bits": (max((r["max_int_bits"] for r in ok), default=0), "bits"),
        "pathcount.probability_table.n_exponent": (ladder["n"]["exponent"], "1"),
        "pathcount.probability_table.j_exponent": (ladder["j"]["exponent"], "1"),
        "trace.inprocess_s": (total("root_span_ns") / 1e9 / count, "s/req"),
        "trace.overhead_ratio": (total("inprocess_ns") / plain_ns if plain_ns else 0.0,
                                 "ratio"),
    })
    return metrics


def provenance() -> Dict:
    # The ceiling keeps git from reporting a repository that encloses ROOT.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(["git", "--no-optional-locks", *args], cwd=ROOT,
                                  env=env, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (SRC / "spincorr" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"error: no spincorr sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    checker = checks.Checker(SCHEMA)
    spawner = Spawner(env)
    try:
        readme_problems = check_readme(spawner)
        if readme_problems:
            for p in readme_problems:
                print(f"error: README example: {p}", file=sys.stderr)
            return 1
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record: Dict = {"workload": args.workload, "seed": args.seed,
                        "seconds": args.seconds, "trace": args.trace, **provenance()}
        if args.trace:
            spans_dir = RESULTS / f"{tag}-spans"
            shutil.rmtree(spans_dir, ignore_errors=True)
            spans_dir.mkdir()
            run = run_traced(spawner, args.workload, args.seed, args.seconds, checker,
                             spans_dir)
            ladder_done = spawner.run([str(BENCH_DIR / "tracer.py"), "ladder"], timeout=60)
            ladder = json.loads(ladder_done["stdout"])
            metrics = layer_metrics(run, ladder)
            record.update(ladder=ladder, spans_dir=str(spans_dir.relative_to(ROOT)))
        else:
            run = run_untraced(spawner, args.workload, args.seed, args.seconds, checker)
            metrics = end_to_end_metrics(args.workload, run)
            ok = sum(1 for r in run["records"] if not r["problems"])
            record.update(setup_samples_s=run["setup_s"], tail={
                "percentile": TAIL_PERCENTILE[args.workload], "samples": ok,
                "beyond": round(ok * (1 - TAIL_PERCENTILE[args.workload] / 100)),
            })
    finally:
        spawner.close()

    records = run["records"]
    failed = sum(1 for r in records if r["problems"])
    digests = [r.get("stdout_sha256", "") for r in records]
    record.update(
        attempted=len(records), failed=failed, fail_ratio=failed / max(1, len(records)),
        wall_s=run["wall_s"],
        stdout_digest=hashlib.sha256("\n".join(digests).encode()).hexdigest(),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        requests=records,
    )
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1))

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:9s} {name:48s} {value:14.6g} {unit}")
    print(f"{args.workload:9s} {'fail_ratio':48s} {record['fail_ratio']:14.6g} ratio")
    for r in records:
        if r["problems"]:
            print(f"FAILED {' '.join(r['argv'])}: {r['problems'][:3]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and len(records) > 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
