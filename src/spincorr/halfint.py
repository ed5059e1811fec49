"""Half-integer values stored as doubled integers.

Every quantum number in this package is kept as twice its value ("tj" is
2*j), so half-integers stay exact and parity checks are plain integer
arithmetic.  Conversion to fractions or text happens only at the edges.
"""

from .errors import InvalidQuantumNumberError


def parse_half_integer(text: str) -> int:
    """Parse "3/2", "-1/2" or "2" into a doubled integer."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            if int(den) != 2:
                raise ValueError
            return int(num)
        return 2 * int(text)
    except ValueError:
        raise InvalidQuantumNumberError(
            f"not a half-integer: {text!r} (expected an integer or p/2)"
        ) from None


def format_half_integer(tv: int) -> str:
    """Render a doubled integer as "3/2", "-1/2" or "2"."""
    if tv % 2 == 0:
        return str(tv // 2)
    return f"{tv}/2"
