"""Constructors and measures the tests need and the library does not.

Configs build their fields from expressions, and no certificate fits a
rate to its gaps, so these live with the tests that use them.
"""

import math

import numpy as np

from nonlinritz.variational import Field


def constant(c: float) -> Field:
    """The constant field ``c``, with zero weak derivative."""
    c = float(c)
    return Field(lambda x: np.full(np.shape(x), c), lambda x: np.zeros(np.shape(x)))


def indicator(a: float, b: float) -> Field:
    """Characteristic function of ``(a, b)``; an L2-only field."""
    return Field(lambda x: np.where((x > a) & (x < b), 1.0, 0.0), None, (float(a), float(b)))


def gap_slope(res) -> float:
    """Least-squares slope of log(gap) against log(n) of a :class:`CeaResult`,
    for gaps above 1e-12."""
    mask = res.gap > 1e-12
    if np.count_nonzero(mask) < 2:
        return -math.inf
    A = np.stack(
        [np.log(res.horizons[mask]), np.ones(int(np.count_nonzero(mask)))],
        axis=1,
    )
    coef, *_ = np.linalg.lstsq(A, np.log(res.gap[mask]), rcond=None)
    return float(coef[0])
