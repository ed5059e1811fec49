import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import spincorr
from spincorr.cli import _n_values, main

SRC = str(Path(spincorr.__file__).resolve().parents[1])


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema():
    with resources.files("spincorr.data").joinpath("output_schema.json").open() as fh:
        return json.load(fh)


class TestProb:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "prob", "--n", "6", "--j1", "1", "--j2", "1", "--J", "1", "--M", "0"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,j1,j2,J,M,m1,m2,p_num,p_den,p_decimal"
        assert lines[1] == "6,1,1,1,0,1,-1,8,17,0.470588"
        assert lines[2] == "6,1,1,1,0,0,0,1,17,0.058824"
        assert lines[3] == "6,1,1,1,0,-1,1,8,17,0.470588"

    def test_stretched_single_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "prob", "--n", "4", "--j1", "1", "--j2", "1", "--J", "2", "--M", "2"
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 1
        assert rows[0].endswith("1,1,1.000000")

    def test_small_n_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "prob", "--n", "3", "--j1", "1", "--j2", "1", "--J", "1", "--M", "0"
        )
        assert code == 3
        assert "below 2(j10 + j02)" in err

    def test_bad_half_integer_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "prob", "--n", "6", "--j1", "1/3", "--j2", "1", "--J", "1", "--M", "0"
        )
        assert code == 2
        assert "half-integer" in err

    def test_bad_m12_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "prob", "--n", "6", "--j1", "1", "--j2", "1", "--J", "1", "--M", "2"
        )
        assert code == 2

    def test_half_integer_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "prob", "--n", "4", "--j1", "1/2", "--j2", "1/2",
            "--J", "1", "--M", "0",
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert [r.split(",")[5] for r in rows] == ["1/2", "-1/2"]

    def test_json_validates(self, capsys):
        code, out, _ = run_cli(
            capsys, "prob", "--n", "6", "--j1", "1", "--j2", "1", "--J", "1",
            "--M", "0", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema())
        assert payload["rows"][0]["p_num"] == 8


class TestCg:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "cg", "--j1", "1", "--j2", "1", "--J", "1", "--M", "0")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "j1,j2,J,M,m1,m2,cg2_num,cg2_den,cg2_decimal"
        decimals = [r.split(",")[-1] for r in rows[1:]]
        assert decimals == ["0.500000", "0.000000", "0.500000"]

    def test_stretched(self, capsys):
        code, out, _ = run_cli(capsys, "cg", "--j1", "1/2", "--j2", "1/2", "--J", "1", "--M", "1")
        rows = out.strip().splitlines()[1:]
        assert code == 0
        assert len(rows) == 1 and rows[0].endswith("1,1,1.000000")

    def test_triangle_violation_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "cg", "--j1", "1", "--j2", "1", "--J", "3", "--M", "0")
        assert code == 2
        assert "triangle" in err

    def test_json_validates(self, capsys):
        code, out, _ = run_cli(
            capsys, "cg", "--j1", "1", "--j2", "1", "--J", "2", "--M", "0",
            "--format", "json",
        )
        assert code == 0
        jsonschema.validate(json.loads(out), load_schema())


class TestConverge:
    def test_geometric_scan(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--j1", "1", "--j2", "1", "--J", "1", "--M", "0",
            "--n-start", "6", "--n-max", "96", "--geometric",
        )
        assert code == 0
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        ns = sorted({int(r[0]) for r in rows})
        assert ns == [6, 12, 24, 48, 96]
        assert rows[0][7:10] == ["8", "17", "0.470588"]

    def test_step_scan_with_warnings(self, capsys):
        code, out, err = run_cli(
            capsys, "converge", "--j1", "1", "--j2", "1", "--J", "1", "--M", "0",
            "--n-start", "2", "--n-max", "6", "--step", "2",
        )
        assert code == 0
        assert "warning: n=2 skipped" in err
        ns = {int(r.split(",")[0]) for r in out.strip().splitlines()[1:]}
        assert ns == {4, 6}

    def test_skipped_lengths_warn_exactly(self, capsys):
        code, out, err = run_cli(capsys, "converge", *SPINS_1_1_1_0,
                                 "--n-start", "1", "--n-max", "9", "--format", "json")
        assert code == 0
        assert err.splitlines() == [
            f"warning: n={n} skipped: n = {n} is below 2(j10 + j02) = 4" for n in (1, 2, 3)
        ]
        assert err.endswith("\n")
        assert len(json.loads(out)["rows"]) == 18

    def test_no_valid_n_exit_3(self, capsys):
        code, _, _ = run_cli(
            capsys, "converge", "--j1", "1", "--j2", "1", "--J", "1", "--M", "0",
            "--n-start", "2", "--n-max", "3",
        )
        assert code == 3

    def test_stretched_deltas_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--j1", "1", "--j2", "1", "--J", "2", "--M", "2",
            "--n-start", "4", "--n-max", "8", "--step", "2",
        )
        assert code == 0
        for row in out.strip().splitlines()[1:]:
            assert row.split(",")[-1] == "0.000000"

    def test_json_validates(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--j1", "1", "--j2", "1", "--J", "1", "--M", "0",
            "--n-start", "6", "--n-max", "12", "--geometric", "--format", "json",
        )
        assert code == 0
        jsonschema.validate(json.loads(out), load_schema())

    @staticmethod
    def writes(monkeypatch, *flags):
        """The stdout writes of the README converge request with these flags:
        with PYTHONUNBUFFERED=1 each write reaches the pipe on its own, so a
        document must go out in one."""
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", Recorder())
        code = main(["converge", *SPINS_1_1_1_0, "--n-start", "6", "--n-max", "96",
                     "--geometric", *flags])
        assert code == 0
        return writes

    def test_json_is_one_write(self, monkeypatch):
        writes = self.writes(monkeypatch, "--format", "json")
        assert len(writes) == 1
        assert writes[0].endswith("}\n")
        jsonschema.validate(json.loads(writes[0]), load_schema())

    def test_csv_is_one_write(self, monkeypatch):
        writes = self.writes(monkeypatch)
        assert len(writes) == 1
        header, *rows = csv.reader(io.StringIO(writes[0]))
        assert header[:2] == ["n", "j1"] and header[-1] == "delta_decimal"
        assert len(rows) == 15 and all(len(row) == len(header) for row in rows)

    def test_geometric_params_echo_step_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--j1", "1", "--j2", "1", "--J", "1", "--M", "0",
            "--n-start", "6", "--n-max", "12", "--geometric", "--format", "json",
        )
        assert code == 0
        assert list(json.loads(out)["params"].items()) == [
            ("command", "converge"), ("j1", "1"), ("j2", "1"), ("J", "1"), ("M", "0"),
            ("n_start", 6), ("n_max", 12), ("geometric", True), ("step", 0), ("digits", 6),
        ]

    def test_n_values_match_the_stepping_loop(self):
        """The closed forms give the lengths that doubling or stepping n from
        --n-start while n <= --n-max gives."""
        for n_start, n_max in itertools.product(range(1, 70), range(-5, 300)):
            for geometric, step in [(True, 0)] + [(False, s) for s in (1, 2, 3, 7, 64)]:
                expected, n = [], n_start
                while n <= n_max:
                    expected.append(n)
                    n = n * 2 if geometric else n + step
                args = argparse.Namespace(n_start=n_start, n_max=n_max,
                                          geometric=geometric, step=step)
                assert list(_n_values(args)) == expected, (n_start, n_max, geometric, step)

    @pytest.mark.parametrize("flags", [["--geometric=1"], ["--geometric", "--step", "2"]])
    def test_geometric_takes_no_value_and_no_step(self, flags):
        code, out, err = invoke(["converge", *SPINS_1_1_1_0, "--n-start", "6",
                                 "--n-max", "12", *flags])
        assert code == 2
        assert out == ""
        assert "--geometric" in err


class TestSelftest:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "seed: 0" in out
        assert "FAIL" not in out

    def test_corrupted_phi_fails(self, capsys, monkeypatch):
        """Doubling phi leaves the normalized lattice sum as it is, so only
        the enumeration check sees it."""
        from spincorr import selftest

        monkeypatch.setattr(selftest, "phi", lambda q, phi=selftest.phi: 2 * phi(q))
        ok = selftest.run_selftest(seed=1)
        captured = capsys.readouterr()
        assert not ok
        assert "FAIL phi_by_enumeration equivalence" in captured.out
        assert "phi_by_enumeration mismatch" in captured.out
        assert captured.out.count("FAIL") == 1

    def test_misassigned_probabilities_fail(self, capsys, monkeypatch):
        """A table that hands each probability to the wrong row still sums
        to 1 with no negative count; only the lattice comparison sees it."""
        from spincorr import pathcount
        from spincorr.selftest import run_selftest

        normalize = pathcount.normalize

        def rotated(weights):
            rows = normalize(weights)
            probs = [p for _, _, p in rows]
            return [(tm10, tm02, p)
                    for (tm10, tm02, _), p in zip(rows, probs[1:] + probs[:1])]

        monkeypatch.setattr(pathcount, "normalize", rotated)
        ok = run_selftest(seed=0)
        out = capsys.readouterr().out
        assert not ok
        assert "PASS exact normalization" in out
        assert "FAIL summation bounds equivalence" in out
        assert "closed form 1/3 != lattice sum 2/3 for Priors(" in out

    def test_random_triples_draw_stream_pinned(self):
        """A printed seed must sample the same triples in every version:
        three sequences of n single randrange(2) draws per trial, also at
        the selftest's default sizes."""
        from spincorr.selftest import check_random_triples

        for n_values, trials in (([4, 16], 7), ([4, 16, 64], 1000)):
            rng = random.Random(11)
            assert check_random_triples(n_values, trials, rng) == []
            reference = random.Random(11)
            for _ in range(3 * trials * sum(n_values)):
                reference.randrange(2)
            assert rng.getstate() == reference.getstate()

    def test_roundtrips_draw_stream_pinned(self):
        """Each round trip draws n with randrange(1, 40), then the A, B and C
        counts with randint(0, remaining), in that order."""
        from spincorr.selftest import check_roundtrips

        for trials in (7, 1000):
            rng = random.Random(11)
            assert check_roundtrips(trials, rng) == []
            reference = random.Random(11)
            for _ in range(trials):
                remaining = reference.randrange(1, 40)
                for _ in range(3):
                    remaining -= reference.randint(0, remaining)
            assert rng.getstate() == reference.getstate()

    def test_permutation_maps_draw_stream_pinned(self):
        """The map check draws one randrange(1 << 30) seed for the report,
        whose tally (and key order) at the selftest's size was recorded
        before apply_map XORed through a table."""
        from spincorr import brute
        from spincorr.selftest import check_permutation_maps

        rng = random.Random(11)
        assert check_permutation_maps(32, 200, rng) == []
        reference = random.Random(11)
        seed = reference.randrange(1 << 30)
        assert rng.getstate() == reference.getstate()
        tally = brute.map_conservation_report(32, 200, seed)["conserved_tally"]
        expected = {"-": 156, "m": 13, "gj": 19, "lm": 2, "l": 9, "gjl": 1}
        assert tally == expected
        assert list(tally) == list(expected)

    def test_timings_on_stderr(self, capsys):
        from spincorr.selftest import run_selftest

        assert run_selftest(seed=0)
        captured = capsys.readouterr()
        names = [line.split(" ", 1)[1] for line in captured.out.splitlines()[1:]]
        lines = captured.err.splitlines()
        assert [line.rsplit(": ", 1)[0] for line in lines] == [
            f"selftest: {name}" for name in names
        ]
        assert all(line.endswith(" ms") for line in lines)

    def test_check_error_reaches_the_caller_in_process(self, monkeypatch, capsys):
        """Every check runs in the calling process: with no process allowed
        to start, a passing suite still passes, and a check that raises
        reaches the caller as it is, before anything is printed."""
        from spincorr import selftest

        def no_fork():
            raise AssertionError("run_selftest started a process")

        monkeypatch.setattr(os, "fork", no_fork, raising=False)
        assert selftest.run_selftest(seed=0)
        capsys.readouterr()

        def broken(n_max, tj_max):
            raise ZeroDivisionError("broken check")

        monkeypatch.setattr(selftest, "check_bounds_equivalence", broken)
        with pytest.raises(ZeroDivisionError, match="broken check"):
            selftest.run_selftest(seed=0)
        assert capsys.readouterr().out == ""

    def test_random_triples_failure_messages_pinned(self, monkeypatch):
        """Each failure message names the drawn triple, so with the triangle
        check forced to fail the messages list every triple drawn; the
        triples and the next 64 random bits were recorded before the bits
        were drawn in bulk."""
        from spincorr import selftest

        monkeypatch.setattr(selftest, "check_triangle", lambda *tj: False)
        rng = random.Random(7)
        assert selftest.check_random_triples([4, 16], 7, rng) == [
            "j triangle failed at n=4 for (1010, 0010, 0001)",
            "j triangle failed at n=4 for (1000, 1000, 0100)",
            "j triangle failed at n=4 for (0011, 0010, 0010)",
            "j triangle failed at n=4 for (0001, 1111, 1100)",
            "j triangle failed at n=4 for (0011, 1110, 0101)",
            "j triangle failed at n=4 for (0110, 0111, 1100)",
            "j triangle failed at n=4 for (1100, 1111, 1011)",
            "j triangle failed at n=16 for (0010010011100111, 0111110000000010, 1100111001111101)",
            "j triangle failed at n=16 for (1000010010000010, 0010111100111110, 0011100010010110)",
            "j triangle failed at n=16 for (1010001001100111, 0111100001010101, 1001010110111000)",
            "j triangle failed at n=16 for (0001011000000100, 0101011100111000, 1000001001100001)",
            "j triangle failed at n=16 for (0010011011101010, 1011100100100101, 0100110001111011)",
            "j triangle failed at n=16 for (0101110111000001, 1001011101101001, 0100100010101110)",
            "j triangle failed at n=16 for (0000100011011011, 0100001010111100, 1001100001100011)",
        ]
        assert rng.getrandbits(64) == 4468039937841269444

    def test_random_triples_g_range_asks_selection(self, monkeypatch):
        """The "g range" line takes its bounds from selection.g12_range: with
        an empty range it fails for every triple drawn, the same triples as
        in the pinned test above while n = 4."""
        from spincorr import selftest

        monkeypatch.setattr(selftest, "g12_range", lambda n, tj10, tj02: (1, 0))
        assert selftest.check_random_triples([4, 16], 2, random.Random(7)) == [
            "g range failed at n=4 for (1010, 0010, 0001)",
            "g range failed at n=4 for (1000, 1000, 0100)",
            "g range failed at n=16 for (0011001000100001, 1111110000111110, 0101011001111100)",
            "g range failed at n=16 for (1100111110110010, 0100111001110111, 1100000000101100)",
        ]

    def test_random_triples_compare_the_correlate_route(self, monkeypatch):
        """The first trial of each n is measured through correlate as well:
        a production route that disagrees with the packed bits is reported
        once per n, naming the triple, and no other line fails."""
        from spincorr import selftest

        measure = selftest.qn4_of_corrseq

        def shifted(c):
            tj, tm, tg, tl = measure(c)
            return tj, tm + 2, tg, tl

        monkeypatch.setattr(selftest, "qn4_of_corrseq", shifted)
        assert selftest.check_random_triples([4, 16], 7, random.Random(7)) == [
            "packed and correlated measurements differ at n=4 for (1010, 0010, 0001)",
            "packed and correlated measurements differ at n=16 for "
            "(0010010011100111, 0111110000000010, 1100111001111101)",
        ]

    @pytest.mark.parametrize("n_values", [[0], [-2], [4, 0]])
    def test_random_triples_reject_short_lengths(self, n_values):
        """n < 1 raises ValueError naming it before any draw, as
        brute.map_conservation_report does."""
        from spincorr.selftest import check_random_triples

        rng = random.Random(7)
        state = rng.getstate()
        with pytest.raises(ValueError, match=f"got {min(n_values)}$"):
            check_random_triples(n_values, 5, rng)
        assert rng.getstate() == state

    @pytest.mark.parametrize("n", [0, -2])
    def test_permutation_maps_reject_short_lengths(self, n):
        """n < 1 raises ValueError naming it before the report's seed is
        drawn, so the caller's rng is left as it was."""
        from spincorr.selftest import check_permutation_maps

        rng = random.Random(7)
        state = rng.getstate()
        with pytest.raises(ValueError, match=f"got {n}$"):
            check_permutation_maps(n, 5, rng)
        assert rng.getstate() == state


class TestDeterminism:
    def test_byte_identical_reruns(self):
        cmd = [
            sys.executable, "-m", "spincorr.cli", "prob",
            "--n", "8", "--j1", "3/2", "--j2", "1", "--J", "3/2", "--M", "1/2",
        ]
        env = {**os.environ, "PYTHONPATH": SRC}
        first = subprocess.run(cmd, capture_output=True, check=True, env=env)
        second = subprocess.run(cmd, capture_output=True, check=True, env=env)
        assert first.stdout == second.stdout
        assert first.stdout


# Modules the table commands must not load: the oracles and the sequence
# layer, which selftest loads, and standard-library modules that no command
# loads (dataclasses would bring inspect, ast and dis with it; the package's
# annotations use builtin generics and collections.abc, not typing).
SELFTEST_ONLY = ["spincorr.selftest", "spincorr.brute", "spincorr.quantum_numbers",
                 "spincorr.sequences"]
NO_COMMAND = ["dataclasses", "inspect", "logging", "typing"]

IMPORT_GRAPH_SCRIPT = """
import sys
import spincorr.cli

def loaded(modules):
    return ",".join(m for m in modules if m in sys.modules)

spins = ["--j1", "3/2", "--j2", "1", "--J", "3/2", "--M", "1/2"]
for fmt in {formats!r}:
    spincorr.cli.main(["prob", "--n", "9", *spins, "--format", fmt])
    spincorr.cli.main(["cg", *spins, "--format", fmt])
    spincorr.cli.main(["converge", *spins, "--n-start", "5", "--n-max", "40",
                       "--geometric", "--format", fmt])
    print("loaded after", fmt, "tables:", loaded({modules!r} + ["csv", "json"]))
spincorr.cli.main(["selftest"])
print("loaded after selftest:", loaded({modules!r}))
"""


def loaded_modules(formats):
    """The "loaded after" lines of IMPORT_GRAPH_SCRIPT run with the table
    requests in the given output formats, in that order."""
    # -S keeps the site hooks of the interpreter's installation, which may
    # import anything, out of the check
    script = IMPORT_GRAPH_SCRIPT.format(formats=formats, modules=SELFTEST_ONLY + NO_COMMAND)
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 0, done.stderr
    return [line for line in done.stdout.splitlines() if line.startswith("loaded after")]


def test_table_commands_import_only_the_closed_form_path():
    # a csv request loads neither csv, json nor the selftest-only modules
    assert loaded_modules(["csv", "json"]) == [
        "loaded after csv tables: ",
        "loaded after json tables: json",
        "loaded after selftest: " + ",".join(SELFTEST_ONLY),
    ]


def test_json_request_does_not_import_csv():
    assert loaded_modules(["json"]) == [
        "loaded after json tables: json",
        "loaded after selftest: " + ",".join(SELFTEST_ONLY),
    ]


# Exit code and stdout sha256 of each request, recorded before the package's
# imports were made lazy (unless noted); stdout must stay byte-identical.
GOLDEN = [
    pytest.param(["prob", "--n", "6", "--j1", "1", "--j2", "1", "--J", "1", "--M", "0"], 0,
                 "763af778a72f5b6625008524e244ce6d49f2a7df37d33fe38085ae6bc8e82e36",
                 id="readme-worked-example"),
    pytest.param(["prob", "--n", "9", "--j1", "3/2", "--j2", "1", "--J", "3/2", "--M", "1/2",
                  "--digits=20"], 0,
                 "5d01c811e9ac15ff6ce6b9a327e2850ccd03889d22e1631250b82f33f2a80f41",
                 id="prob-half-integer-csv"),
    pytest.param(["prob", "--n", "9", "--j1", "3/2", "--j2", "1", "--J", "3/2", "--M", "1/2",
                  "--digits=20", "--format", "json"], 0,
                 "b5492307a3d9ffbc794351bdfb3c0ad80cc4bb8443ca733711d601530c652693",
                 id="prob-half-integer-json"),
    pytest.param(["cg", "--j1", "3/2", "--j2", "1", "--J", "5/2", "--M", "-1/2"], 0,
                 "1ab8697d1d65c92012c64bd389ed249f43883e832b6a034d8e99e911cc87d680",
                 id="cg-csv"),
    pytest.param(["cg", "--j1", "2", "--j2", "3/2", "--J", "3/2", "--M", "1/2",
                  "--format", "json"], 0,
                 "b256adf730e99b1b83baf91515db6e4a5fbbb0e4d0595b07ee6ebb4e4787ddd7",
                 id="cg-json"),
    pytest.param(["converge", "--j1", "1", "--j2", "1", "--J", "1", "--M", "0",
                  "--n-start", "6", "--n-max", "96", "--geometric"], 0,
                 "003d18ee4104e236e67eff41eae3c4bc2e01104c86443c9f2415eb097e7e148b",
                 id="converge-geometric"),
    pytest.param(["converge", "--j1", "1/2", "--j2", "1", "--J", "1/2", "--M", "-1/2",
                  "--n-start", "3", "--n-max", "11", "--step", "2", "--format", "json"], 0,
                 "9f3788c2854112018c22907909d9527872cd6244d6a0a9f9bb47835a901f0f4f",
                 id="converge-linear-json"),
    pytest.param(["selftest", "--seed", "0"], 0,
                 "b50c255c545fe78fdd68d50fa04c70de93f796bcb1d06b3763eed1689cdc7d15",
                 id="selftest-seed-0"),
    # recorded before the selftest drew its random bits in bulk
    pytest.param(["selftest", "--seed", "12345"], 0,
                 "78a6e8a2152f6a7134b2d6a7b6cfd5d7b1398dcc1f77ec3af43476f56e2f91f1",
                 id="selftest-seed-12345-full"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN)
def test_golden_stdout(argv, code, digest):
    got, out, _ = invoke(argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


SPINS_1_1_1_0 = ["--j1", "1", "--j2", "1", "--J", "1", "--M", "0"]
HALF_SPINS_NEG_M = ["--j1", "1/2", "--j2", "1", "--J", "1/2", "--M", "-1/2"]

SPINS_50 = ["--j1", "50", "--j2", "50", "--J", "50", "--M", "0"]
N_GOOGOL = str(10**100)

# argv, exit code, stderr fragment, run in a subprocess (for
# requests that once never returned).  A request that succeeds in JSON must
# validate against the schema; one in CSV must give rows as wide as its header.
REGRESSIONS = [
    pytest.param(["converge", *SPINS_1_1_1_0, "--n-start", "2", "--n-max", "8",
                  "--step", "0"], 2, "--step", True, id="converge-step-0"),
    pytest.param(["converge", *SPINS_1_1_1_0, "--n-start", "2", "--n-max", "8",
                  "--step", "-1"], 2, "--step", True, id="converge-step-negative"),
    pytest.param(["converge", *SPINS_1_1_1_0, "--n-start", "0", "--n-max", "8",
                  "--geometric"], 2, "--n-start", True, id="converge-geometric-n-start-0"),
    pytest.param(["prob", "--n", "6", "--j1", "-1", "--j2", "1", "--J", "1", "--M", "0"],
                 2, "triangle", False, id="prob-negative-j"),
    pytest.param(["prob", "--n", "6", "--j1", "1", "--j2", "1", "--J", "3", "--M", "0"],
                 2, "triangle", False, id="prob-triangle"),
    pytest.param(["cg", "--j1", "-1", "--j2", "1", "--J", "1", "--M", "0"],
                 2, "triangle", False, id="cg-negative-j"),
    pytest.param(["converge", "--j1", "1", "--j2", "1", "--J", "3", "--M", "0",
                  "--n-start", "2", "--n-max", "8"], 2, "triangle", False,
                 id="converge-triangle"),
    pytest.param(["converge", "--j1", "1", "--j2", "1", "--J", "1", "--M", "2",
                  "--n-start", "2", "--n-max", "8"], 2, "M must satisfy", False,
                 id="converge-m-range"),
    pytest.param(["prob", "--n", "0", *SPINS_1_1_1_0], 2, "--n", False, id="prob-n-0"),
    pytest.param(["prob", "--n", "6", *SPINS_1_1_1_0, "--digits", "0"], 2, "--digits",
                 False, id="prob-digits-0"),
    pytest.param(["prob", "--n", "6", *SPINS_1_1_1_0, "--digits", "-2"], 2, "--digits",
                 False, id="prob-digits-negative"),
    pytest.param(["cg", *SPINS_1_1_1_0, "--digits", "x"], 2, "--digits", False,
                 id="cg-digits-not-integer"),
    # the suite has one fixed size: --n-max is no selftest flag
    pytest.param(["selftest", "--n-max", "2"], 2, "--n-max", False, id="selftest-n-max-2"),
    pytest.param(["cg", *HALF_SPINS_NEG_M, "--format", "json"], 0, "", False,
                 id="cg-negative-half-integer"),
    pytest.param(["prob", "--n", "4", *HALF_SPINS_NEG_M, "--format", "json"], 0, "",
                 False, id="prob-negative-half-integer"),
    pytest.param(["converge", *HALF_SPINS_NEG_M, "--n-start", "4", "--n-max", "8",
                  "--format", "json"], 0, "", False, id="converge-negative-half-integer"),
    pytest.param(["prob", "--n", "64", "--j1", "6", "--j2", "6", "--J", "12", "--M", "0",
                  "--digits", "10", "--format", "json"], 0, "", False,
                 id="prob-tiny-probability-fixed-point"),
    pytest.param(["cg", *SPINS_1_1_1_0, "--digits", "7", "--format", "json"], 0, "",
                 False, id="cg-zero-fixed-point"),
    pytest.param(["prob", "--n", "1000000", "--j1", "2", "--j2", "2", "--J", "2", "--M", "0",
                  "--format", "json"], 0, "", True, id="prob-n-one-million"),
    pytest.param(["converge", *SPINS_1_1_1_0, "--n-start", "4", "--n-max", "1048576",
                  "--geometric", "--format", "json"], 0, "", True,
                 id="converge-geometric-to-2-pow-20"),
    # exact integers longer than the interpreter's int-to-str limit print
    pytest.param(["cg", "--j1", "1", "--j2", "1", "--J", "2", "--M", "2", "--digits", "4300",
                  "--format", "json"], 0, "", False, id="cg-digits-4300"),
    pytest.param(["prob", "--n", "6", *SPINS_1_1_1_0, "--digits", "4301"], 2, "--digits",
                 False, id="prob-digits-4301"),
    pytest.param(["prob", "--n", "6", *SPINS_1_1_1_0, "--digits", "5000"], 2, "--digits",
                 False, id="prob-digits-5000"),
    pytest.param(["prob", "--n", N_GOOGOL, *SPINS_50], 0, "", False, id="prob-n-googol-csv"),
    pytest.param(["prob", "--n", N_GOOGOL, *SPINS_50, "--format", "json"], 0, "", False,
                 id="prob-n-googol-json"),
    # numbers only in the notation of the README and the schema
    pytest.param(["prob", "--n", "6", "--j1", "1_0", "--j2", "1", "--J", "1", "--M", "0"],
                 2, "not a half-integer", False, id="spin-underscore"),
    pytest.param(["prob", "--n", "6", "--j1", "\u0661", "--j2", "1", "--J", "1", "--M", "0"],
                 2, "not a half-integer", False, id="spin-arabic-indic-digit"),
    pytest.param(["prob", "--n", "6", *HALF_SPINS_NEG_M[:6], "--M", "1/0_2"],
                 2, "not a half-integer", False, id="spin-underscore-in-denominator"),
    pytest.param(["prob", "--n", "6", "--j1", "+1", "--j2", "1", "--J", "1", "--M", "0"],
                 2, "not a half-integer", False, id="spin-plus-sign"),
    pytest.param(["prob", "--n", "1_0", *SPINS_1_1_1_0], 2, "--n", False,
                 id="n-underscore"),
    pytest.param(["selftest", "--seed", "\u0663"], 2, "--seed", False,
                 id="seed-arabic-indic-digit"),
    pytest.param(["converge", *SPINS_1_1_1_0, "--n-start", "2", "--n-max", "1_0"], 2,
                 "--n-max", False, id="converge-n-max-underscore"),
    # a scan longer than MAX_SCAN_LENGTH is refused before any table is built
    pytest.param(["converge", *SPINS_1_1_1_0, "--n-start", "1", "--n-max", "1000000000"],
                 2, "at most 10000 lengths", True, id="converge-10-pow-9-lengths"),
    pytest.param(["converge", *SPINS_1_1_1_0, "--n-start", "1", "--n-max", "10001"],
                 2, "at most 10000 lengths", True, id="converge-10001-lengths"),
    pytest.param(["converge", *SPINS_1_1_1_0, "--n-start", "1", "--n-max", str(10**30)],
                 2, "at most 10000 lengths", True, id="converge-lengths-past-maxsize"),
]


@contextlib.contextmanager
def int_digits_unlimited():
    """Lift the interpreter's limit on the digits of an int read from text."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def invoke(argv):
    """main(argv) with stdout and stderr captured; argparse's SystemExit
    counts as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, code, fragment, isolated", REGRESSIONS)
def test_regression(argv, code, fragment, isolated):
    if isolated:
        done = subprocess.run(
            [sys.executable, "-m", "spincorr.cli", *argv], capture_output=True, text=True,
            timeout=10, env={**os.environ, "PYTHONPATH": SRC},
        )
        got, out, err = done.returncode, done.stdout, done.stderr
    else:
        limit = sys.get_int_max_str_digits()
        got, out, err = invoke(argv)
        assert sys.get_int_max_str_digits() == limit
    assert got == code
    assert fragment in err
    assert "Traceback" not in err
    if code != 0:
        assert out == ""
    elif "json" in argv:
        with int_digits_unlimited():
            jsonschema.validate(json.loads(out), load_schema())
    else:
        header, *rows = csv.reader(io.StringIO(out))
        assert rows and all(len(row) == len(header) for row in rows)


# one request per command, then help; the converge scan prints about 110 kB,
# more than a buffered stdout holds, so it meets the closed pipe while it writes
CLOSED_PIPE_REQUESTS = [
    pytest.param(["prob", "--n", "6", *SPINS_1_1_1_0], id="prob"),
    pytest.param(["cg", *SPINS_1_1_1_0], id="cg"),
    pytest.param(["converge", *SPINS_1_1_1_0, "--n-start", "6", "--n-max", "600"],
                 id="converge"),
    pytest.param(["selftest"], id="selftest"),
    # argparse prints the help text and exits inside parse_args
    pytest.param(["--help"], id="help"),
    pytest.param(["prob", "--help"], id="prob-help"),
]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", CLOSED_PIPE_REQUESTS)
def test_closed_stdout_exits_141(argv, unbuffered):
    # the reader closes its end before the request writes, as
    # `spincorr ... | head -1` may; the request exits as a shell reports a
    # SIGPIPE death, 128 + 13, with no traceback and no "Exception ignored"
    # from the flush at exit
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "spincorr.cli", *argv], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141, err
    assert "Traceback" not in err
    assert "Exception ignored" not in err


def test_cg_even_over_two_means_integer(capsys):
    code, out, _ = run_cli(capsys, "cg", "--j1", "4/2", "--j2", "1", "--J", "1", "--M", "0")
    assert code == 0
    assert out.splitlines()[1].startswith("2,1,1,0,")


SPIN = st.one_of(st.integers(-3, 3).map(str), st.integers(-6, 6).map(lambda p: f"{p}/2"))
COUNT = st.integers(-3, 64).map(str)


@st.composite
def spins(draw):
    """Half the time any four spins, else j1, j2, J <= 3 that pass the
    triangle rule with an M that J allows, so most requests get past it."""
    if draw(st.booleans()):
        return [draw(SPIN) for _ in range(4)]
    tj1, tj2 = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    tJ = draw(st.sampled_from(range(abs(tj1 - tj2), min(tj1 + tj2, 6) + 1, 2)))
    tM = draw(st.sampled_from(range(-tJ, tJ + 1, 2)))
    return [str(t // 2) if t % 2 == 0 else f"{t}/2" for t in (tj1, tj2, tJ, tM)]


@st.composite
def requests(draw):
    command = draw(st.sampled_from(["prob", "cg", "converge", "selftest"]))
    if command == "selftest":
        return ["selftest", "--seed", str(draw(st.integers(-3, 6)))]
    argv = [command]
    for flag, value in zip(("--j1", "--j2", "--J", "--M"), draw(spins())):
        argv += [flag, value]
    if command == "prob":
        argv += ["--n", draw(COUNT)]
    elif command == "converge":
        argv += ["--n-start", draw(COUNT), "--n-max", draw(COUNT)]
        argv += draw(st.one_of(st.just([]), st.just(["--geometric"]),
                               COUNT.map(lambda step: ["--step", step])))
    fmt = draw(st.sampled_from(["csv", "json"]))
    return argv + ["--format", fmt, "--digits", str(draw(st.integers(-3, 40)))]


@settings(max_examples=60, deadline=None)
@given(requests())
def test_fuzz_main(argv):
    start = time.perf_counter()
    code, out, err = invoke(argv)
    assert time.perf_counter() - start < 5.0
    assert code in (0, 2, 3), err
    if code == 0 and "json" in argv:
        jsonschema.validate(json.loads(out), load_schema())
