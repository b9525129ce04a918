"""Exception types shared across the package, and every numerical guard
rule that raises them.

``NumericalError`` subclasses mark failures of a numerical contract
(non-PSD input, non-convergence, too few samples, a value that is not
finite or cancels too far below 0); the CLI maps them to exit code 2,
as it does numpy's ``LinAlgError`` (a LAPACK failure), while plain
``ValueError`` (malformed input, bad usage) maps to exit code 1.

Guards
------
Both scores are cancelling differences of non-negative quantities, so a
computed value can come out as roundoff below 0, or overflow.  This is
the one table of the rules that judge such values; each is defined
here, once.  ``<what>`` is the name the call site gives the value.

eigenvalue floor: ``_eigenvalue_floor``, row mask ``_below_floor``
    threshold  ``EIGENVALUE_CLAMP_REL`` = 1e-8, relative: the least
               eigenvalue must be at least ``-1e-8 * max(lambda_max, 0)``;
               the eigenvalues are then clamped at 0
    text       ``<what> is not PSD: eigenvalue <w> below clamp threshold
               <floor>`` (:class:`NotPsdError`), ``<what>`` one of
               ``matrix``, ``covariance product``,
               ``barycenter inner product``
    exit       2
cancelling value: ``_cancelling``, array form ``_cancelling_rows``
    threshold  ``VALUE_CLAMP`` = 1e-8, absolute, for a Fréchet distance
               and the avg decomposition's ``const_part`` (``<what>`` is
               ``distance``); ``VSTAT_CLAMP`` = 1e-10, absolute, for a
               client's or the pooled vstat MMD (``vstat MMD``).  A
               finite value at or above ``-threshold`` becomes
               ``max(value, 0)``
    text       ``<what> is not finite``, else ``<what> <value> below
               clamp threshold``, ``<value>`` the repr of a Python float
    exit       2
finiteness: ``_finite``
    threshold  none
    text       ``<what> is not finite``, ``<what>`` one of
               ``covariance product``, ``ustat MMD``, ``kid_avg``,
               ``gap``, ``log-density``, ``mean log-density``
    exit       2
inline, per element, at the loops of the tile passes and Fréchet stacks
    threshold  none: squared distances are clipped at 0
               (``kernelmmd._gram``, ``prdc._distances``), as are the
               eigenvalues whose rows the floor's mask judges
               (``frechet._references``, ``frechet._distances``)
    text       ``kernel sum is not finite`` (``kernelmmd._tiled_sums``),
               ``squared distance is not finite``
               (``prdc._tile_distances``)
    exit       2

``tests/test_guards.py`` lists every other site that clips, reads a
threshold, tests finiteness or raises one of these errors.
"""

from __future__ import annotations

import math

import numpy as np

EIGENVALUE_CLAMP_REL = 1e-8
VALUE_CLAMP = 1e-8
VSTAT_CLAMP = 1e-10


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


def _eigenvalue_floor(w: np.ndarray, what: str) -> np.ndarray:
    """Ascending eigenvalues of a symmetric PSD matrix, clamped at 0, or
    :class:`NotPsdError` when the least is below the floor."""
    floor = -EIGENVALUE_CLAMP_REL * max(float(w[-1]), 0.0)
    if float(w[0]) < floor:
        message = f"{what} is not PSD: eigenvalue {w[0]:.3e} below clamp threshold {floor:.3e}"
        raise NotPsdError(message)
    return np.clip(w, 0.0, None)


def _below_floor(w: np.ndarray) -> np.ndarray:
    """Which rows of ascending eigenvalues :func:`_eigenvalue_floor` would reject."""
    return w[..., 0] < -EIGENVALUE_CLAMP_REL * np.maximum(w[..., -1], 0.0)


def _cancelling(value, threshold: float, what: str) -> float:
    """A cancelling difference as a Python float, clamped at 0 within
    ``threshold`` below it, or :class:`NumericalError`."""
    value = float(value)
    if not math.isfinite(value):
        raise NumericalError(f"{what} is not finite")
    if value < -threshold:
        raise NumericalError(f"{what} {value!r} below clamp threshold")
    return max(value, 0.0)


def _cancelling_rows(values: np.ndarray, threshold: float):
    """:func:`_cancelling` of an array without a raise: one boolean per
    value, whether it passes (NaN fails both bounds), and the values
    clamped at 0, which hold where every value passes."""
    return (values >= -threshold) & (values < np.inf), np.where(values < 0.0, 0.0, values)


def _finite(value, what: str):
    """``value``, a number or an array, if every entry is finite, else
    :class:`NumericalError`."""
    if not np.isfinite(value).all():
        raise NumericalError(f"{what} is not finite")
    return value
