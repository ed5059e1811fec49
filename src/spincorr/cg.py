"""Standard-QM reference: exact squared Clebsch-Gordan coefficients, and
the decimal rendering of exact rationals; nothing else.  The oracle imports
no part of the path-counting model it checks; `spincorr converge` compares
the two.

The closed-form (Racah) expression is evaluated without floating point:
after squaring, every square root collapses to a rational, and the
alternating z-sum shares one z-independent radicand, so cg_squared is an
exact rational prefactor times the square of the z-sum.  The z-sum is
taken in integers over one common denominator, each term from the one
before it by an exact integer ratio, and one Fraction is built at the end.
Only squares are exposed; sign conventions never enter.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, perm

from .selection import check_triangle, require_projection


def cg_squared(tj1: int, tj2: int, tm1: int, tm2: int, tJ: int, tM: int) -> Fraction:
    """Exact square of <j1 j2 m1 m2 | j1 j2 J M>.

    Arguments are doubled integers.  Selection-rule violations give exact 0;
    malformed quantum numbers raise.
    """
    require_projection(tj1, tm1, "m1", "j1")
    require_projection(tj2, tm2, "m2", "j2")
    require_projection(tJ, tM, "M", "J")
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
    # (e+z_hi)! its numerator N(z) is an integer, built up from N(z_lo)
    z_lo = max(0, -d, -e)
    z_hi = min(a, b, c)
    common = f(z_hi) * f(a - z_lo) * f(b - z_lo) * f(c - z_lo) * f(d + z_hi) * f(e + z_hi)
    s = z_hi - z_lo
    term = perm(z_hi, s) * perm(d + z_hi, s) * perm(e + z_hi, s)
    zsum = 0
    for z in range(z_lo, z_hi + 1):
        zsum += -term if z % 2 else term
        # exact: N(z + 1) is `common` over its term's denominator, an integer
        # for z < z_hi, and 0 at z = z_hi, where a-z, b-z or c-z is 0
        term = term * (a - z) * (b - z) * (c - z) // ((z + 1) * (d + z + 1) * (e + z + 1))
    return Fraction(pre * zsum * zsum, f((tj1 + tj2 + tJ) // 2 + 1) * common * common)


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
