"""Response checks that do not import the library under test.

Every expectation is rebuilt here from the request argv with integer and
`fractions.Fraction` arithmetic: the allowed (m1, m2) pairs, the n values
of a scan, exact normalization, |p - cg2|, and the round-half-even decimal
rendering.  JSON output is also validated against the schema the package
ships.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import jsonschema

from workloads import fmt_half

PROB_COLUMNS = ["n", "j1", "j2", "J", "M", "m1", "m2", "p_num", "p_den", "p_decimal"]
CG_COLUMNS = ["j1", "j2", "J", "M", "m1", "m2", "cg2_num", "cg2_den", "cg2_decimal"]
CONVERGE_COLUMNS = PROB_COLUMNS + [
    "cg2_num", "cg2_den", "cg2_decimal", "delta_num", "delta_den", "delta_decimal",
]
COLUMNS = {"prob": PROB_COLUMNS, "cg": CG_COLUMNS, "converge": CONVERGE_COLUMNS}
PREFIXES = {"prob": ["p"], "cg": ["cg2"], "converge": ["p", "cg2", "delta"]}
DEFAULT_DIGITS = 6


class Checker:
    """Checks one response (exit code and stdout) against its request."""

    def __init__(self, schema_path: Path):
        schema = json.loads(schema_path.read_text())
        self._validator = jsonschema.Draft202012Validator(schema)

    def problems(self, argv: List[str], returncode: int, stdout: bytes) -> List[str]:
        if returncode != 0:
            return [f"exit code {returncode}"]
        try:
            text = stdout.decode("utf-8")
        except UnicodeDecodeError:
            return ["stdout is not UTF-8"]
        if argv[0] == "selftest":
            return _selftest_problems(_flags(argv), text)
        try:
            return _row_problems(argv[0], _flags(argv), self._rows(argv, text))
        except (ValueError, TypeError, KeyError) as exc:
            return [f"unparsable output: {exc!r}"]

    def _rows(self, argv: List[str], text: str) -> List[Dict]:
        flags = _flags(argv)
        if flags.get("format") == "json":
            payload = json.loads(text)
            errors = sorted(self._validator.iter_errors(payload), key=str)
            if errors:
                raise ValueError(f"schema: {errors[0].message}")
            if payload["command"] != argv[0]:
                raise ValueError(f"command {payload['command']!r}")
            return [{k: str(v) for k, v in row.items()} for row in payload["rows"]]
        reader = csv.DictReader(io.StringIO(text, newline=""))
        if reader.fieldnames != COLUMNS[argv[0]]:
            raise ValueError(f"header {reader.fieldnames}")
        return list(reader)


def _flags(argv: List[str]) -> Dict[str, str]:
    flags = {}
    for arg in argv[1:]:
        name, _, value = arg[2:].partition("=")
        flags[name] = value
    return flags


def parse_half(text: str) -> int:
    """"3/2" -> 3, "-1" -> -2 (doubled integers)."""
    if text.endswith("/2"):
        return int(text[:-2])
    return 2 * int(text)


def allowed_pairs(tj1: int, tj2: int, tM: int) -> List[Tuple[int, int]]:
    """(m1, m2) with m1 + m2 = M inside both j ranges, m1 descending."""
    return [
        (tm1, tM - tm1)
        for tm1 in range(tj1, -tj1 - 1, -2)
        if abs(tM - tm1) <= tj2 and (tj2 + tM - tm1) % 2 == 0
    ]


def scan_lengths(flags: Dict[str, str]) -> List[int]:
    n, n_max = int(flags["n-start"]), int(flags["n-max"])
    step = int(flags.get("step", 1))
    lengths = []
    while n <= n_max:
        lengths.append(n)
        n = 2 * n if "geometric" in flags else n + step
    return lengths


def decimal_text(value: Fraction, digits: int) -> str:
    """Round-half-even fixed-point rendering with exactly `digits` places."""
    q, r = divmod(abs(value.numerator) * 10**digits, value.denominator)
    if 2 * r > value.denominator or (2 * r == value.denominator and q % 2):
        q += 1
    body = str(q).rjust(digits + 1, "0")
    sign = "-" if value < 0 else ""
    return f"{sign}{body[:-digits]}.{body[-digits:]}"


def _fraction(row: Dict, prefix: str, digits: int, where: str,
              problems: List[str]) -> Optional[Fraction]:
    num, den = int(row[f"{prefix}_num"]), int(row[f"{prefix}_den"])
    if den < 1 or gcd(num, den) != 1:
        problems.append(f"{where}: {prefix} = {num}/{den} is not in lowest terms")
        return None
    value = Fraction(num, den)
    expected = decimal_text(value, digits)
    if row[f"{prefix}_decimal"] != expected:
        problems.append(
            f"{where}: {prefix}_decimal {row[f'{prefix}_decimal']!r} != {expected!r}"
        )
    return value


def _row_problems(command: str, flags: Dict[str, str], rows: List[Dict]) -> List[str]:
    problems: List[str] = []
    digits = int(flags.get("digits", DEFAULT_DIGITS))
    tj1, tj2 = parse_half(flags["j1"]), parse_half(flags["j2"])
    tJ, tM = parse_half(flags["J"]), parse_half(flags["M"])
    pairs = allowed_pairs(tj1, tj2, tM)
    if command == "prob":
        lengths: List[Optional[int]] = [int(flags["n"])]
    elif command == "converge":
        lengths = scan_lengths(flags)
    else:
        lengths = [None]
    expected_keys = [(n, tm1, tm2) for n in lengths for tm1, tm2 in pairs]
    if len(rows) != len(expected_keys):
        return [f"{len(rows)} rows, expected {len(expected_keys)}"]

    echo = {"j1": fmt_half(tj1), "j2": fmt_half(tj2), "J": fmt_half(tJ), "M": fmt_half(tM)}
    sums: Dict[Tuple[Optional[int], str], Fraction] = {}
    for row, (n, tm1, tm2) in zip(rows, expected_keys):
        where = f"n={n} m1={fmt_half(tm1)}"
        key = {**echo, "m1": fmt_half(tm1), "m2": fmt_half(tm2)}
        if n is not None:
            key["n"] = str(n)
        if any(row[k] != v for k, v in key.items()):
            problems.append(f"{where}: row keys {row} do not match the request")
            continue
        values = {p: _fraction(row, p, digits, where, problems) for p in PREFIXES[command]}
        for prefix in ("p", "cg2"):
            value = values.get(prefix)
            if value is not None:
                if not 0 <= value <= 1:
                    problems.append(f"{where}: {prefix} = {value} outside [0, 1]")
                sums[(n, prefix)] = sums.get((n, prefix), Fraction(0)) + value
        if command == "converge" and None not in values.values():
            if values["delta"] != abs(values["p"] - values["cg2"]):
                problems.append(f"{where}: delta != |p - cg2|")
    for (n, prefix), total in sums.items():
        if total != 1:
            problems.append(f"n={n}: sum of {prefix} is {total}, not 1")
    return problems


def _selftest_problems(flags: Dict[str, str], text: str) -> List[str]:
    lines = text.splitlines()
    if not lines or lines[0] != f"seed: {flags.get('seed', '0')}":
        return ["missing or wrong seed line"]
    checks = [line for line in lines[1:] if not line.startswith(" ")]
    if not checks:
        return ["no check lines"]
    return [f"check did not pass: {line}" for line in checks if not line.startswith("PASS ")]
