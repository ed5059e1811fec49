"""Half-integer values stored as doubled integers.

Every quantum number in this package is kept as twice its value ("tj" is
2*j), so half-integers stay exact and parity checks are plain integer
arithmetic.  Conversion to fractions or text happens only at the edges.
"""

import re

from .errors import InvalidQuantumNumberError


def parse_half_integer(text: str) -> int:
    """Parse "3/2", "-1/2" or "2" into a doubled integer.

    The text, stripped of whitespace, must match the output schema's halfint
    pattern -?[0-9]+(/2)?: int() alone would also read "+1", "1_0" and
    digits of other scripts.
    """
    text = text.strip()
    match = re.fullmatch(r"(-?[0-9]+)(/2)?", text)
    try:
        if match:
            return int(match[1]) * (1 if match[2] else 2)
    except ValueError:  # more digits than the interpreter's int-to-str limit
        pass
    raise InvalidQuantumNumberError(
        f"not a half-integer: {text!r} (expected an integer or p/2)"
    )


def format_half_integer(tv: int) -> str:
    """Render a doubled integer as "3/2", "-1/2" or "2"."""
    if tv % 2 == 0:
        return str(tv // 2)
    return f"{tv}/2"
