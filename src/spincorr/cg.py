"""Standard-QM reference: exact squared Clebsch-Gordan coefficients.

The closed-form (Racah) expression is evaluated without floating point:
after squaring, every square root collapses to a rational, and the
alternating z-sum shares one z-independent radicand, so cg_squared is an
exact rational prefactor times the square of the z-sum.  The z-sum is
taken in integers over one common denominator, and one Fraction is built
at the end.
Only squares are exposed; sign conventions never enter.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial, perm
from typing import Iterable, List, Tuple

from .errors import ConstraintError, InvalidQuantumNumberError
from .pathcount import Priors, probability_table
from .selection import check_projection, check_triangle


def _check_jm(tj: int, tm: int, label: str) -> None:
    if tj < 0:
        raise InvalidQuantumNumberError(f"{label}: j must be nonnegative")
    if not check_projection(tj, tm):
        raise InvalidQuantumNumberError(
            f"{label}: m must satisfy -j <= m <= j in integer steps"
        )


def cg_squared(tj1: int, tj2: int, tm1: int, tm2: int, tJ: int, tM: int) -> Fraction:
    """Exact square of <j1 j2 m1 m2 | j1 j2 J M>.

    Arguments are doubled integers.  Selection-rule violations give exact 0;
    malformed quantum numbers raise.
    """
    _check_jm(tj1, tm1, "(j1, m1)")
    _check_jm(tj2, tm2, "(j2, m2)")
    _check_jm(tJ, tM, "(J, M)")
    if tm1 + tm2 != tM or not check_triangle(tj1, tj2, tJ):
        return Fraction(0)

    # all of these are integers once the triangle (with integer perimeter)
    # and m-sum rules hold
    f = factorial
    a = (tj1 + tj2 - tJ) // 2
    b = (tj1 - tm1) // 2
    c = (tj2 + tm2) // 2
    d = (tJ - tj2 + tm1) // 2
    e = (tJ - tj1 - tm2) // 2
    # the prefactor times the radicand, over f((tj1 + tj2 + tJ) // 2 + 1)
    pre = (
        (tJ + 1)
        * f(a)
        * f((tJ + tj1 - tj2) // 2)
        * f((tJ + tj2 - tj1) // 2)
        * f((tj1 + tm1) // 2)
        * f(b)
        * f(c)
        * f((tj2 - tm2) // 2)
        * f((tJ + tM) // 2)
        * f((tJ - tM) // 2)
    )

    # term z is (-1)^z / (z! (a-z)! (b-z)! (c-z)! (d+z)! (e+z)!); over the
    # common denominator z_hi! (a-z_lo)! (b-z_lo)! (c-z_lo)! (d+z_hi)!
    # (e+z_hi)! its numerator is the integer product of falling factorials
    z_lo = max(0, -d, -e)
    z_hi = min(a, b, c)
    common = f(z_hi) * f(a - z_lo) * f(b - z_lo) * f(c - z_lo) * f(d + z_hi) * f(e + z_hi)
    zsum = 0
    for z in range(z_lo, z_hi + 1):
        up, down = z - z_lo, z_hi - z
        term = (
            perm(z_hi, down)
            * perm(a - z_lo, up)
            * perm(b - z_lo, up)
            * perm(c - z_lo, up)
            * perm(d + z_hi, down)
            * perm(e + z_hi, down)
        )
        zsum += -term if z % 2 else term
    return Fraction(pre * zsum * zsum, f((tj1 + tj2 + tJ) // 2 + 1) * common * common)


ConvergenceRow = namedtuple("ConvergenceRow", "n tm10 tm02 p cg2 delta")


def convergence_scan(
    tj1: int, tj2: int, tJ: int, tM: int, n_list: Iterable[int]
) -> Tuple[List[ConvergenceRow], List[Tuple[int, str]]]:
    """One row per n per allowed pair (ascending n, descending m10),
    plus a list of (n, reason) for skipped lengths."""
    rows: List[ConvergenceRow] = []
    skipped: List[Tuple[int, str]] = []
    for n in sorted(set(n_list)):
        try:
            priors = Priors(n=n, tj10=tj1, tj02=tj2, tj12=tJ, tm12=tM)
            table = probability_table(priors)
        except (ConstraintError, InvalidQuantumNumberError) as exc:
            skipped.append((n, str(exc)))
            continue
        for tm10, tm02, p in table:
            cg2 = cg_squared(tj1, tj2, tm10, tm02, tJ, tM)
            rows.append(ConvergenceRow(n, tm10, tm02, p, cg2, abs(p - cg2)))
    return rows, skipped


def decimal_string(value: Fraction, digits: int = 6) -> str:
    """Round-half-even fixed-point rendering with `digits` >= 1 places."""
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    den = value.denominator
    q, r = divmod(abs(value.numerator) * 10**digits, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    text = str(q).rjust(digits + 1, "0")
    sign = "-" if value < 0 else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}"
