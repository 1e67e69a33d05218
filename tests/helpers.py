"""Constructors and measures the tests need and the library does not.

Configs build their fields from expressions, and no certificate fits a
rate to its gaps or returns them, so these live with the tests that use
them.  :func:`check_entry` and :func:`worst_entry` are the one-entry-at-a-time
fold a certificate's worst entry was once chosen by, kept as the reference
for the array form ``nonlinritz.certify._entry``.
"""

import math

import numpy as np

from nonlinritz.assembly import quadratic_energy
from nonlinritz.basis import realisation
from nonlinritz.certify import _TIE_RTOL, ATOL, RTOL, CertificateEntry
from nonlinritz.updates import decrease_check
from nonlinritz.variational import Field, bilinear


def constant(c: float) -> Field:
    """The constant field ``c``, with zero weak derivative."""
    c = float(c)
    return Field(lambda x: np.full(np.shape(x), c), lambda x: np.zeros(np.shape(x)))


def indicator(a: float, b: float) -> Field:
    """Characteristic function of ``(a, b)``; an L2-only field."""
    return Field(lambda x: np.where((x > a) & (x < b), 1.0, 0.0), None, (float(a), float(b)))


def decrease(system, w, w_plus):
    """``decrease_check`` of the update ``w -> w_plus``, its energies and
    residual computed here."""
    w = np.asarray(w, dtype=float)
    return decrease_check(system, quadratic_energy(system, w), quadratic_energy(system, w_plus),
                          system.matrix @ w - system.load)


def realised_gaps(record, problem, rule, family, u_star, best_in_V=0.0) -> np.ndarray:
    """``||R(xi_n) - u*||_a^2 - best_in_V`` at the horizons n = 1, 2, ...,
    the left side of the ``cea`` certificate less its best-in-class error."""
    diffs = [realisation(family, xi, w) - u_star for xi, w in zip(record.xi[1:], record.w[1:])]
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


def check_entry(name, anchor, lhs, rhs, atol=ATOL, rtol=RTOL, note="") -> CertificateEntry:
    """The entry of one inequality ``lhs <= rhs`` within
    ``atol + rtol * max(|lhs|, |rhs|)``, in Python floats."""
    lhs, rhs = float(lhs), float(rhs)
    tol = atol + rtol * max(abs(lhs), abs(rhs))
    ok = lhs <= rhs + tol
    return CertificateEntry(name, anchor, lhs, rhs, rhs - lhs, "pass" if ok else "fail", note)


def worst_entry(entries, note) -> CertificateEntry:
    """The entry of the worst status and smallest margin, carrying ``note``:
    failures first, margins within ``_TIE_RTOL`` of the smallest tied and
    the first of them taken, a NaN margin the smallest."""
    pool = [e for e in entries if e.status == "fail"] or entries
    low = min(pool, key=lambda e: -math.inf if math.isnan(e.margin) else e.margin)
    tie = _TIE_RTOL * max(abs(low.lhs), abs(low.rhs))
    worst = next(e for e in pool if e is low or e.margin <= low.margin + tie)
    worst.note = note
    return worst
