"""Exception types shared across the package."""


class SpincorrError(Exception):
    """Base class for all spincorr errors."""


class InvalidQuantumNumberError(SpincorrError, ValueError):
    """A quantum number violates integrality or range constraints."""


class ConstraintError(SpincorrError, ValueError):
    """A semantic constraint (length, triangle rule, n bound) is violated."""


class BudgetExceededError(SpincorrError, RuntimeError):
    """An exhaustive enumeration would exceed sequences.ENUM_CAP (2**24 sequences)."""
