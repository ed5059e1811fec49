"""Selection rules for composing two measured relations into a third.

All j/m/g/l arguments are doubled integers.  The triangle check adds an
integer-perimeter condition on top of the usual inequality: count
integrality forces j10 + j02 + j12 to be an integer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from .errors import ConstraintError

if TYPE_CHECKING:
    from .quantum_numbers import QN4


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


def j12_range(tj10: int, tj02: int) -> List[int]:
    """Admissible j12 values in unit steps, for unconstrained n."""
    return list(range(abs(tj10 - tj02), tj10 + tj02 + 1, 2))


def g12_range(n: int, tj10: int, tj02: int) -> Tuple[int, int]:
    """Bounds n/2 - j10 - j02 <= g12 <= n/2 - |j10 - j02|."""
    if n < tj10 + tj02:
        raise ConstraintError(
            f"n = {n} is below 2(j10 + j02) = {tj10 + tj02}"
        )
    return n - tj10 - tj02, n - abs(tj10 - tj02)


def j12_bounds_constrained(q10: QN4, q02: QN4, n: int) -> Tuple[int, int]:
    """Overlap-forced j12 bounds from the full count capacities.

    Each forced overlap of a C/D element from one relation with the
    complementary element of the other reduces j12 by one; the bounds
    coincide with the plain triangle bounds once n >= 2(j10 + j02) and the
    g, l capacities are non-binding.
    """
    # imported here so that the probability path never loads the
    # sequence-level modules
    from .quantum_numbers import A, B, C, D, counts4_from_qn4

    if q10.n != n or q02.n != n:
        raise ConstraintError(
            f"relations disagree on n: {q10.n}, {q02.n} (expected {n})"
        )
    c10 = counts4_from_qn4(q10)
    c02 = counts4_from_qn4(q02)
    tj_sum = q10.tj + q02.tj
    tj_min = tj_sum - 2 * min(c10[D], c02[C]) - 2 * min(c10[C], c02[D])
    tj_max = (
        tj_sum
        - 2 * max(0, c10[D] - c02[B])
        - 2 * max(0, c10[C] - c02[A])
    )
    return tj_min, tj_max


def allowed_m_pairs(tj10: int, tj02: int, tm12: int) -> List[Tuple[int, int]]:
    """All (m10, m02) with m10 + m02 = m12 and each m within its j range,
    in descending m10 order."""
    pairs = []
    for tm10 in range(tj10, -tj10 - 1, -2):
        tm02 = tm12 - tm10
        if check_projection(tj02, tm02):
            pairs.append((tm10, tm02))
    return pairs
