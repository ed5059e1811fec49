"""End-to-end acceptance checks; each test prints one pass/fail line."""

import json
import random
import time
from fractions import Fraction

import pytest

from spincorr.brute import enumerate_base8_counts, map_conservation_report
from spincorr.cg import cg_squared
from spincorr.cli import main
from spincorr.pathcount import Priors, probability_table
from spincorr.quantum_numbers import phi, qn8_from_counts
from spincorr.selection import allowed_m_pairs, j12_range
from spincorr.selftest import check_normalization, check_random_triples
from spincorr.sequences import PAIR_OF_ALIAS, CorrSeq
from spincorr.brute import conserved_quantum_numbers


def corr4(text):
    return CorrSeq(2, tuple(PAIR_OF_ALIAS[alias] for alias in text))


def report(name, ok=True):
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    assert ok


class TestAcceptance:
    def test_01_worked_example_exact(self, capsys):
        start = time.perf_counter()
        code = main(["prob", "--n", "6", "--j1", "1", "--j2", "1", "--J", "1", "--M", "0"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[1:] == [
            "6,1,1,1,0,1,-1,8,17,0.470588",
            "6,1,1,1,0,0,0,1,17,0.058824",
            "6,1,1,1,0,-1,1,8,17,0.470588",
        ]
        table = probability_table(Priors(n=6, tj10=2, tj02=2, tj12=2, tm12=0))
        assert [p for _, _, p in table] == [
            Fraction(1280, 2720), Fraction(160, 2720), Fraction(1280, 2720)
        ]
        assert elapsed < 1.0
        report("criterion 1: worked-example exactness")

    def test_02_cg_reference_and_completeness(self):
        assert cg_squared(2, 2, 2, -2, 2, 0) == Fraction(1, 2)
        assert cg_squared(2, 2, 0, 0, 2, 0) == 0
        assert cg_squared(2, 2, -2, 2, 2, 0) == Fraction(1, 2)
        for tj1 in range(0, 6):
            for tj2 in range(0, 6):
                for tJ in j12_range(tj1, tj2):
                    for tM in range(-tJ, tJ + 1, 2):
                        total = sum(
                            cg_squared(tj1, tj2, tm1, tm2, tJ, tM)
                            for tm1, tm2 in allowed_m_pairs(tj1, tj2, tM)
                        )
                        assert total == 1, (tj1, tj2, tJ, tM)
        report("criterion 2: CG oracle reference and completeness")

    def test_03_convergence(self, capsys):
        start = time.perf_counter()
        code = main(["converge", "--j1", "1", "--j2", "1", "--J", "1", "--M", "0",
                     "--n-start", "6", "--n-max", "96", "--geometric", "--format", "json"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        by_pair = {}
        for r in json.loads(out)["rows"]:
            by_pair.setdefault((r["m1"], r["m2"]), []).append(
                (r["n"], Fraction(r["delta_num"], r["delta_den"])))
        assert set(by_pair) == {("1", "-1"), ("0", "0"), ("-1", "1")}
        for pair, series in by_pair.items():
            assert [n for n, _ in series] == [6, 12, 24, 48, 96], pair
            deltas = [d for _, d in series]
            assert all(a > b for a, b in zip(deltas, deltas[1:])), pair
        anchors = {pair: dict(series)[6] for pair, series in by_pair.items()}
        assert anchors[("0", "0")] == Fraction(1, 17)
        assert anchors[("1", "-1")] == anchors[("-1", "1")] == Fraction(1, 34)
        assert time.perf_counter() - start < 10.0
        report("criterion 3: convergence toward CG with exact n=6 anchors")

    def test_04_oracle_equivalence(self):
        start = time.perf_counter()
        mismatches = 0
        for n in range(1, 7):
            bins = enumerate_base8_counts(n)
            assert sum(bins.values()) == 8**n
            for key, observed in bins.items():
                if phi(qn8_from_counts(key)) != observed:
                    mismatches += 1
        assert mismatches == 0
        assert time.perf_counter() - start < 60.0
        report("criterion 4: phi matches exhaustive enumeration for n <= 6")

    def test_05_selection_rule_invariants(self):
        rng = random.Random(20240817)
        problems = check_random_triples([4, 16, 64], 10000, rng)
        assert problems == []
        report("criterion 5: selection rules exact on 10^4 triples per n")

    def test_06_normalization_grid(self):
        problems = check_normalization(32, 4)
        assert problems == []
        report("criterion 6: exact normalization, no negative path counts")

    def test_07_map_permutation_property(self):
        rep = map_conservation_report(n=32, trials=1000, seed=7)
        assert rep["ok"], rep["mismatches"]
        appendix_map = conserved_quantum_numbers(corr4("AACBBA"), corr4("BACAAD"))
        assert appendix_map == frozenset("jg")
        report("criterion 7: permutation maps conserve j, m, g, l")

    def test_08_performance_n512(self):
        start = time.perf_counter()
        table = probability_table(Priors(n=512, tj10=4, tj02=4, tj12=4, tm12=0))
        elapsed = time.perf_counter() - start
        assert sum(p for _, _, p in table) == 1
        assert len(table) == 5
        assert elapsed < 5.0
        report("criterion 8: n=512 probability table under 5 s")

    def test_09_performance_j50(self):
        start = time.perf_counter()
        table = probability_table(Priors(n=10**6, tj10=100, tj02=100, tj12=100, tm12=0))
        elapsed = time.perf_counter() - start
        assert sum(p for _, _, p in table) == 1
        assert len(table) == 101
        assert elapsed < 1.0
        report("criterion 9: j=50 probability table at n=10^6 under 1 s")
