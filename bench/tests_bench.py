"""Tests of the benchmark itself.

    python3 -m pytest bench/tests_bench.py

The file name keeps it out of the default test collection: these tests
start CLI subprocesses and belong to the benchmark, not to the package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHECKER = checks.Checker(SRC / "spincorr" / "data" / "output_schema.json")
ENV = dict(os.environ, PYTHONPATH=str(SRC))


def spincorr(argv):
    return subprocess.run([sys.executable, "-m", "spincorr.cli", *argv],
                          capture_output=True, env=ENV, timeout=60)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    assert workloads.first(workload, 7, 40) == workloads.first(workload, 7, 40)
    assert workloads.first(workload, 7, 40) != workloads.first(workload, 8, 40)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_requests_use_flag_equals_value_form(workload):
    for argv in workloads.first(workload, 3, 40):
        assert all(arg.startswith("--") and ("=" in arg or arg == "--geometric")
                   for arg in argv[1:]), argv


# One full block of each workload: every argv a block can produce must run.
@pytest.mark.parametrize("workload,count", [("prob", 16), ("converge", 8),
                                            ("selftest", 1), ("cg", 8)])
def test_generated_requests_pass_at_head(workload, count):
    for argv in workloads.first(workload, 0, count):
        done = spincorr(argv)
        assert CHECKER.problems(argv, done.returncode, done.stdout) == [], argv


def test_readme_example():
    for argv, expected in workloads.README_EXAMPLE.items():
        done = spincorr(list(argv))
        assert CHECKER.problems(list(argv), done.returncode, done.stdout) == []
        lines = done.stdout.decode().splitlines()[1:]
        assert [tuple(map(int, line.split(",")[-3:-1])) for line in lines] == expected


def _tamper_csv(text: str, column: str, change) -> bytes:
    lines = text.splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index(column)] = change(row[header.index(column)])
    return "\n".join([lines[0], ",".join(row), *lines[2:]]).encode() + b"\n"


@pytest.mark.parametrize("column,change", [
    ("p_num", lambda v: str(int(v) + 1)),
    ("p_decimal", lambda v: v[:-1] + ("1" if v[-1] != "1" else "2")),
    ("m1", lambda v: "-" + v),
])
def test_checker_rejects_tampered_prob(column, change):
    argv = ["prob", "--n=6", "--j1=1", "--j2=1", "--J=1", "--M=0", "--digits=8"]
    done = spincorr(argv)
    assert CHECKER.problems(argv, 0, done.stdout) == []
    assert CHECKER.problems(argv, 0, _tamper_csv(done.stdout.decode(), column, change))


def test_checker_rejects_tampered_converge_delta():
    argv = ["converge", "--j1=1", "--j2=1", "--J=1", "--M=0", "--n-start=6",
            "--n-max=24", "--geometric"]
    done = spincorr(argv)
    assert CHECKER.problems(argv, 0, done.stdout) == []
    tampered = _tamper_csv(done.stdout.decode(), "delta_num", lambda v: str(int(v) + 1))
    assert CHECKER.problems(argv, 0, tampered)


def test_checker_rejects_tampered_json_and_selftest():
    argv = ["cg", "--j1=3/2", "--j2=1", "--J=1/2", "--M=-1/2", "--format=json"]
    done = spincorr(argv)
    assert CHECKER.problems(argv, 0, done.stdout) == []
    payload = json.loads(done.stdout)
    payload["rows"][0]["cg2_den"] = 0
    assert CHECKER.problems(argv, 0, json.dumps(payload).encode())
    assert CHECKER.problems(argv, 3, done.stdout) == ["exit code 3"]
    assert CHECKER.problems(["selftest", "--seed=1"], 0,
                            b"seed: 1\nPASS a\nFAIL b\n  detail\n")


def test_decimal_text_rounds_half_even():
    assert checks.decimal_text(Fraction(8, 17), 6) == "0.470588"
    assert checks.decimal_text(Fraction(1, 8), 2) == "0.12"
    assert checks.decimal_text(Fraction(3, 8), 2) == "0.38"
    assert checks.decimal_text(Fraction(1), 6) == "1.000000"
    assert checks.decimal_text(Fraction(0), 7) == "0.0000000"


def test_tracer_self_times_sum_to_main(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), "traced",
         str(tmp_path / "spans.jsonl.gz"), "0", "--",
         "converge", "--j1=1", "--j2=1", "--J=1", "--M=0", "--n-start=6", "--n-max=48",
         "--geometric"],
        capture_output=True, env=ENV, timeout=60, check=True)
    result = json.loads(done.stdout)
    assert result["returncode"] == 0
    assert sum(result["self_ns"].values()) == result["root_span_ns"]
    assert result["calls"]["cli.main"] == 1
    assert result["calls"]["pathcount.probability_table"] == 4
    assert result["calls"]["cg.cg_squared"] == 4 * 3


def test_metrics_match_benchmark_json():
    import run
    from tracer import SPAN_NAMES

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced = {"records": [{"problems": [], "seconds": 0.1, "maxrss_kb": 2048}],
                "wall_s": 1.0, "setup_s": [0.05]}
    traced = {"records": [{
        "problems": [], "self_ns": dict.fromkeys(SPAN_NAMES, 1),
        "calls": dict.fromkeys(SPAN_NAMES, 1), "plain_inprocess_ns": 1, "inprocess_ns": 1,
        "root_span_ns": 1, "bytes_out": 1, "phi_nonzero": 1, "max_int_bits": 1,
        "lattice_points": 1}], "wall_s": 1.0}
    ladder = {"n": {"exponent": 2.5}, "j": {"exponent": 2.0}}
    for produced, declared in [(run.end_to_end_metrics("prob", untraced), spec["end_to_end"]),
                               (run.layer_metrics(traced, ladder), spec["per_layer"])]:
        assert {k: unit for k, (_, unit) in produced.items()} == \
            {m["name"]: m["unit"] for m in declared}


# Program defects the workloads are drawn around; strict, so a fix shows.
@pytest.mark.xfail(strict=True, reason="argparse reads --M -1/2 as an option (exit 2)")
def test_negative_half_integer_as_separate_argument():
    assert spincorr(["cg", "--j1", "1/2", "--j2", "1", "--J", "1/2", "--M", "-1/2"]
                    ).returncode == 0


@pytest.mark.xfail(strict=True, reason="values below 1e-6 render as '3.698...E-7' "
                   "when --digits >= 7, breaking the schema's decimal pattern")
def test_tiny_probability_renders_fixed_point():
    argv = ["prob", "--n=64", "--j1=6", "--j2=6", "--J=12", "--M=0", "--digits=10",
            "--format=json"]
    done = spincorr(argv)
    assert CHECKER.problems(argv, done.returncode, done.stdout) == []
