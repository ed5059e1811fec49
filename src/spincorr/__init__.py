"""Exact-arithmetic spin modeling from base-2 sequence correlations.

Builds relational quantum numbers out of symbol counts, derives the
selection rules for composing two measured relations, evaluates the
path-counting probability formula in exact rationals, and cross-checks it
against closed-form squared Clebsch-Gordan coefficients.

`import spincorr` loads the closed-form path only; the oracles are imported
from spincorr.quantum_numbers and spincorr.sequences.
"""

from .cg import cg_squared
from .errors import ConstraintError, InvalidQuantumNumberError, SpincorrError
from .halfint import format_half_integer, parse_half_integer
from .pathcount import Priors, probability_table
from .selection import allowed_m_pairs, check_triangle, g12_range, j12_range

__version__ = "0.1.0"

__all__ = [
    "cg_squared",
    "ConstraintError", "InvalidQuantumNumberError", "SpincorrError",
    "format_half_integer", "parse_half_integer",
    "Priors", "probability_table",
    "allowed_m_pairs", "check_triangle", "g12_range", "j12_range",
]
