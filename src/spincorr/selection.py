"""Selection rules for composing two measured relations into a third.

All j/m/g/l arguments are doubled integers.  The triangle check adds an
integer-perimeter condition on top of the usual inequality: count
integrality forces j10 + j02 + j12 to be an integer.
"""

from __future__ import annotations

from .errors import InvalidQuantumNumberError


def check_triangle(tj10: int, tj02: int, tj12: int) -> bool:
    """Triangle inequality plus integer perimeter."""
    if min(tj10, tj02, tj12) < 0:
        return False
    if (tj10 + tj02 + tj12) % 2:
        return False
    return abs(tj10 - tj02) <= tj12 <= tj10 + tj02


def check_projection(tj: int, tm: int) -> bool:
    """-j <= m <= j in integer steps; false for every j < 0."""
    return abs(tm) <= tj and (tj + tm) % 2 == 0


def require_projection(tj: int, tm: int, m: str = "m", j: str = "j") -> None:
    """Raise InvalidQuantumNumberError, naming m and j, unless check_projection
    holds: the one raise site of the projection rule."""
    if not check_projection(tj, tm):
        raise InvalidQuantumNumberError(f"{m} must satisfy -{j} <= {m} <= {j} in integer steps")


def j12_range(tj10: int, tj02: int) -> list[int]:
    """Admissible j12 values in unit steps, for unconstrained n."""
    return list(range(abs(tj10 - tj02), tj10 + tj02 + 1, 2))


def g12_range(n: int, tj10: int, tj02: int) -> tuple[int, int]:
    """Bounds n/2 - j10 - j02 <= g12 <= n/2 - |j10 - j02| at every n: with
    g12 = n/2 - j12 they are the triangle rule.  Below the closed form's n
    floor 2(j10 + j02) the lower bound is negative; Priors rejects such n."""
    return n - tj10 - tj02, n - abs(tj10 - tj02)


def allowed_m_pairs(tj10: int, tj02: int, tm12: int) -> list[tuple[int, int]]:
    """All (m10, m02) with m10 + m02 = m12 and each m within its j range,
    in descending m10 order, in closed form: none unless j10 + j02 + m12 is
    an integer, else m10 from min(j10, m12 + j02) down to max(-j10, m12 - j02)."""
    if (tj10 + tj02 + tm12) % 2:
        return []
    top, bottom = min(tj10, tm12 + tj02), max(-tj10, tm12 - tj02)
    return [(tm10, tm12 - tm10) for tm10 in range(top, bottom - 1, -2)]
