"""Exact-arithmetic spin modeling from base-2 sequence correlations.

Builds relational quantum numbers out of symbol counts, derives the
selection rules for composing two measured relations, evaluates the
path-counting probability formula in exact rationals, and cross-checks it
against closed-form squared Clebsch-Gordan coefficients.
"""

from .cg import cg_squared, convergence_scan, delta
from .errors import (
    BudgetExceededError,
    ConstraintError,
    DegeneratePriorsError,
    InvalidQuantumNumberError,
    SpincorrError,
)
from .halfint import format_half_integer, parse_half_integer
from .pathcount import Priors, f_factor, k_bounds, phi, probability_table, upsilon
from .quantum_numbers import (
    QN4,
    QN8,
    counts4_from_qn4,
    counts8_from_qn8,
    qn4_from_counts,
    qn4_of_corrseq,
    qn8_from_counts,
    qn8_of_corrseq,
)
from .selection import (
    allowed_m_pairs,
    check_triangle,
    g12_range,
    j12_bounds_constrained,
    j12_range,
)
from .sequences import BitSeq, CorrSeq, apply_map, correlate, count_symbols, enumerate_sequences

__version__ = "0.1.0"
