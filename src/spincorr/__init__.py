"""Exact-arithmetic spin modeling from base-2 sequence correlations.

Builds relational quantum numbers out of symbol counts, derives the
selection rules for composing two measured relations, evaluates the
path-counting probability formula in exact rationals, and cross-checks it
against closed-form squared Clebsch-Gordan coefficients.

The exports below and the submodules resolve on first use (PEP 562), so
`import spincorr` loads nothing else and each command imports only the
modules it runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "cg": ("cg_squared", "convergence_scan"),
    "errors": (
        "BudgetExceededError",
        "ConstraintError",
        "InvalidQuantumNumberError",
        "SpincorrError",
    ),
    "halfint": ("format_half_integer", "parse_half_integer"),
    "pathcount": ("Priors", "k_bounds", "probability_table"),
    "quantum_numbers": (
        "QN4",
        "QN8",
        "counts4_from_qn4",
        "counts8_from_qn8",
        "f_factor",
        "phi",
        "qn4_from_counts",
        "qn4_of_corrseq",
        "qn8_from_counts",
        "qn8_of_corrseq",
    ),
    "selection": (
        "allowed_m_pairs",
        "check_triangle",
        "g12_range",
        "j12_bounds_constrained",
        "j12_range",
    ),
    "sequences": (
        "BitSeq",
        "CorrSeq",
        "apply_map",
        "correlate",
        "count_symbols",
        "enumerate_sequences",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (
    "brute", "cg", "cli", "errors", "halfint", "pathcount",
    "quantum_numbers", "selection", "selftest", "sequences",
)

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
