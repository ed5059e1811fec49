"""Command-line frontend with deterministic CSV/JSON output.

Exit codes: 0 success, 1 selftest failure, 2 malformed input, 3 semantic
constraint violation, 141 stdout closed by its reader (128 + SIGPIPE).
Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import sys
from collections.abc import Sequence
from fractions import Fraction

from .cg import cg_squared, decimal_string
from .errors import ConstraintError, InvalidQuantumNumberError
from .halfint import format_half_integer, parse_half_integer
from .pathcount import Priors, probability_table
from .selection import allowed_m_pairs, check_triangle, require_projection

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_MALFORMED = 2
EXIT_CONSTRAINT = 3
EXIT_BROKEN_PIPE = 141

SPIN_KEYS = ("j1", "j2", "J", "M")
SPIN_FLAGS = tuple(f"--{key}" for key in SPIN_KEYS)
# rendering costs time quadratic in the digit count; 4300 is also the
# interpreter's default limit on the digits of an int printed as text
MAX_DIGITS = 4300
# a converge scan prints one table per length; 10,000 at j = 1 take seconds
MAX_SCAN_LENGTH = 10_000


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _emit(rows: list[dict], args) -> None:
    """Print rows, never empty, as JSON or as CSV headed by the first row's keys."""
    # one write either way: unbuffered, each write reaches the pipe on its own
    if args.format == "json":
        # imported here: a CSV request does not need it
        import json

        payload = {
            "command": args.command,
            "params": {
                k: v for k, v in vars(args).items()
                if k not in ("func", "format") and v is not None
            },
            "rows": rows,
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        # no field needs CSV quoting: each is an int or matches the schema's
        # halfint or decimal pattern, so none holds a comma, quote or newline
        lines = [list(rows[0]), *(row.values() for row in rows)]
        sys.stdout.write("".join(",".join(map(str, line)) + "\n" for line in lines))


def _spins(args) -> tuple[tuple[int, int, int, int], dict[str, str]]:
    """Parse and check --j1/--j2/--J/--M, the same way for every command.

    Returns the doubled integers and the rendered j1, j2, J, M row columns.
    """
    tj = tuple(parse_half_integer(getattr(args, key)) for key in SPIN_KEYS)
    tj1, tj2, tJ, tM = tj
    if not check_triangle(tj1, tj2, tJ):
        raise InvalidQuantumNumberError(
            "triangle rule violated: |j1 - j2| <= J <= j1 + j2 with integer perimeter"
        )
    require_projection(tJ, tM, "M", "J")
    return tj, {key: format_half_integer(t) for key, t in zip(SPIN_KEYS, tj)}


def _row(spins: dict, tm1: int, tm2: int, digits: int, n=None, **values: Fraction) -> dict:
    """One output row: n (if any), the spins, m1, m2, then num/den/decimal
    columns for each named value, in argument order."""
    row = {} if n is None else {"n": n}
    row.update(spins, m1=format_half_integer(tm1), m2=format_half_integer(tm2))
    for prefix, value in values.items():
        row[f"{prefix}_num"] = value.numerator
        row[f"{prefix}_den"] = value.denominator
        row[f"{prefix}_decimal"] = decimal_string(value, digits)
    return row


def cmd_prob(args) -> int:
    tj, spins = _spins(args)
    table = probability_table(Priors(args.n, *tj))
    rows = [_row(spins, tm1, tm2, args.digits, n=args.n, p=p) for tm1, tm2, p in table]
    _emit(rows, args)
    return EXIT_OK


def cmd_cg(args) -> int:
    (tj1, tj2, tJ, tM), spins = _spins(args)
    rows = [
        _row(spins, tm1, tm2, args.digits, cg2=cg_squared(tj1, tj2, tm1, tm2, tJ, tM))
        for tm1, tm2 in allowed_m_pairs(tj1, tj2, tM)
    ]
    _emit(rows, args)
    return EXIT_OK


def _n_values(args) -> Sequence[int]:
    """The scan's lengths from --n-start to --n-max, doubling or stepping,
    in closed form: a long stepping scan is a range, never a list."""
    if args.geometric:
        doublings = max(0, args.n_max // args.n_start).bit_length()
        return [args.n_start << k for k in range(doublings)]
    return range(args.n_start, args.n_max + 1, args.step)


def cmd_converge(args) -> int:
    if args.geometric:
        # a doubling scan has no step; its JSON params echo step 0
        args.step = 0
    (tj1, tj2, tJ, tM), spins = _spins(args)
    n_values = _n_values(args)
    # sliced, not len(): a range longer than sys.maxsize has no len()
    if n_values[MAX_SCAN_LENGTH:]:
        return _fail(EXIT_MALFORMED, f"a converge scan takes at most {MAX_SCAN_LENGTH} lengths")
    rows = []
    for n in n_values:
        # only the errors Priors raises mean "skip this n"; any other error
        # in the table path is a fault and reaches the caller
        try:
            priors = Priors(n, tj1, tj2, tJ, tM)
        except (ConstraintError, InvalidQuantumNumberError) as exc:
            print(f"warning: n={n} skipped: {exc}", file=sys.stderr)
            continue
        for tm1, tm2, p in probability_table(priors):
            cg2 = cg_squared(tj1, tj2, tm1, tm2, tJ, tM)
            rows.append(_row(spins, tm1, tm2, args.digits, n=n, p=p, cg2=cg2,
                             delta=abs(p - cg2)))
    if not rows:
        return _fail(EXIT_CONSTRAINT, "no valid sequence length in the requested range")
    _emit(rows, args)
    return EXIT_OK


def cmd_selftest(args) -> int:
    # imported here: only selftest loads the oracles and sequence modules
    from .selftest import run_selftest

    ok = run_selftest(seed=args.seed)
    return EXIT_OK if ok else EXIT_SELFTEST


def _integer(text: str) -> int:
    """argparse type of every integer flag: stripped of whitespace, the text
    matches -?[0-9]+, where int() alone would also read "+1", "1_0" and
    digits of other scripts."""
    try:
        if re.fullmatch(r"-?[0-9]+", text.strip()):
            return int(text)
    except ValueError:  # more digits than the interpreter's int-to-str limit
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _count(text: str) -> int:
    """argparse type of every count flag: an integer >= 1."""
    try:
        value = _integer(text)
    except argparse.ArgumentTypeError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _digits(text: str) -> int:
    """argparse type of --digits: a count of at most MAX_DIGITS."""
    value = _count(text)
    if value > MAX_DIGITS:
        raise argparse.ArgumentTypeError(
            f"expected an integer from 1 to {MAX_DIGITS}, got {text!r}"
        )
    return value


def _join_negative_spins(argv: list[str]) -> list[str]:
    """Glue a negative spin value to its flag ("--M", "-1/2" -> "--M=-1/2"):
    argparse reads any "-" token that is not a plain number as an option."""
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in SPIN_FLAGS and token[:1] == "-" and token[1:2].isdigit():
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--digits", type=_digits, default=6,
                        help="decimal digits for rendered values")


def _add_jjjm(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--j1", required=True, help='half-integer, e.g. "1" or "-3/2"')
    for flag in SPIN_FLAGS[1:]:
        parser.add_argument(flag, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincorr",
        description="Exact spin-coupling probabilities from sequence correlations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prob", help="path-counting probability table")
    p.add_argument("--n", type=_count, required=True, help="sequence length")
    _add_jjjm(p)
    _add_common(p)
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("cg", help="exact squared Clebsch-Gordan reference")
    _add_jjjm(p)
    _add_common(p)
    p.set_defaults(func=cmd_cg)

    p = sub.add_parser("converge", help="|P - CG^2| versus sequence length")
    _add_jjjm(p)
    p.add_argument("--n-start", type=_count, required=True)
    p.add_argument("--n-max", type=_integer, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--geometric", action="store_true", help="double n each step")
    group.add_argument("--step", type=_count, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("selftest", help="run the built-in verification suite")
    p.add_argument("--seed", type=_integer, default=0)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        help_text = io.StringIO()
        try:
            with contextlib.redirect_stdout(help_text):
                args = build_parser().parse_args(_join_negative_spins(argv))
        except SystemExit:
            # argparse prints --help and exits, ignoring a closed stdout;
            # printed here, the help meets a closed pipe as results do
            print(help_text.getvalue(), end="", flush=True)
            raise
        # p and CG^2 are exact integers of any size, so the interpreter's limit
        # on the digits of an int printed as text is lifted, but only once the
        # flag text is parsed, and only where the interpreter has the limit
        if limit is not None:
            sys.set_int_max_str_digits(0)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: fd 1 goes to devnull, so the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except InvalidQuantumNumberError as exc:
        return _fail(EXIT_MALFORMED, str(exc))
    except ConstraintError as exc:
        return _fail(EXIT_CONSTRAINT, str(exc))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
