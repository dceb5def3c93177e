"""Exception types shared across the package."""

from __future__ import annotations


class PSTabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(PSTabError, ValueError):
    """An argument violates a documented precondition."""


class NotInStablePairsError(PSTabError):
    """A tableau pair is outside the stable pairs set, so it has no preimage."""


class BudgetExceededError(PSTabError):
    """A brute-force sweep was refused because it exceeds the configured budget."""


class ReverseInsertionError(PSTabError):
    """Reverse insertion hit a state it cannot unwind.

    Nothing in the package raises it: reverse insertion is one sort of the
    boxes and cannot get stuck.  It stays a public name, with its ``step``
    and ``column`` fields, for code that catches it.
    """

    def __init__(self, message: str, step: int | None = None, column: int | None = None):
        super().__init__(message)
        self.step = step
        self.column = column


class InternalError(PSTabError):
    """An internal invariant failed.  Nothing in the package raises it; it
    stays a public name for code that catches it."""
