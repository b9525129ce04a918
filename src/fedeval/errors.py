"""Exception types shared across the package.

``NumericalError`` subclasses mark failures of a numerical contract
(non-PSD input, non-convergence, too few samples); the CLI maps them to
exit code 2, as it does numpy's ``LinAlgError`` (a LAPACK failure),
while plain ``ValueError`` (malformed input, bad usage) maps to exit
code 1.
"""

from __future__ import annotations


class NumericalError(Exception):
    """A numerical contract was violated (PSD check, convergence, sample count)."""


class NotPsdError(NumericalError):
    """Matrix failed a symmetry or positive-semidefiniteness check."""


class SampleCountError(NumericalError):
    """Too few samples for the requested estimator."""


class ConvergenceError(NumericalError):
    """Iterative solver exhausted its budget; carries the last iterate."""

    def __init__(self, message, *, last_cov=None, residual=None, iterations=None):
        super().__init__(message)
        self.last_cov = last_cov
        self.residual = residual
        self.iterations = iterations


class CapabilityError(ValueError):
    """A requested score is not computable under the given aggregation mode."""
