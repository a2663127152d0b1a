"""Semantic exception hierarchy for spherepack.

Public functions raise these instead of bare ValueError / RuntimeError so
callers (and the CLI exit-code mapping) can tell domain problems apart from
configuration problems and solver failures.
"""

from __future__ import annotations


class SpherepackError(Exception):
    """Base class for all spherepack errors."""


class AlphabetMismatchError(SpherepackError, ValueError):
    """Operands live on incompatible alphabets (wrong sizes / labels)."""


class DomainError(SpherepackError, ValueError):
    """Inputs are outside the mathematical domain of the operation
    (e.g. a rate outside (R_inf, C), a non-positive budget, disjoint
    supports where an intersection is required)."""


class ConfigError(SpherepackError, ValueError):
    """Malformed configuration: bad channel file, empty grids, bad flags."""


class ConvergenceError(SpherepackError, RuntimeError):
    """An iterative solver did not reach its tolerance.

    Carries the last residual so callers can judge how close it got.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class InvariantViolationError(SpherepackError, RuntimeError):
    """A mathematically guaranteed invariant failed numerically; this
    signals an upstream computation problem, not a user error."""


class AtomBudgetError(SpherepackError, RuntimeError):
    """An exact log-likelihood-ratio law grew past the atom cap; coarsen the instance."""
