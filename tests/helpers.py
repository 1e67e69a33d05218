"""Constructors and measures the tests need and the library does not.

Configs build their fields from expressions, and no certificate fits a
rate to its gaps or returns them, so these live with the tests that use
them.
"""

import math

import numpy as np

from nonlinritz.basis import realisation
from nonlinritz.variational import Field, bilinear


def constant(c: float) -> Field:
    """The constant field ``c``, with zero weak derivative."""
    c = float(c)
    return Field(lambda x: np.full(np.shape(x), c), lambda x: np.zeros(np.shape(x)))


def indicator(a: float, b: float) -> Field:
    """Characteristic function of ``(a, b)``; an L2-only field."""
    return Field(lambda x: np.where((x > a) & (x < b), 1.0, 0.0), None, (float(a), float(b)))


def realised_gaps(record, problem, rule, family, u_star, best_in_V=0.0) -> np.ndarray:
    """``||R(xi_n) - u*||_a^2 - best_in_V`` at the horizons n = 1, 2, ...,
    the left side of the ``cea`` certificate less its best-in-class error."""
    diffs = [realisation(family, it.xi, it.w) - u_star for it in record.iterates[1:]]
    return np.array([bilinear(problem, rule, d, d) for d in diffs]) - best_in_V


def gap_slope(gaps) -> float:
    """Least-squares slope of log(gap) against log(n), n = 1, 2, ..., over
    the gaps above 1e-12."""
    gaps = np.asarray(gaps, dtype=float)
    mask = gaps > 1e-12
    if np.count_nonzero(mask) < 2:
        return -math.inf
    ns = np.arange(1.0, gaps.size + 1.0)[mask]
    A = np.stack([np.log(ns), np.ones(ns.size)], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.log(gaps[mask]), rcond=None)
    return float(coef[0])
