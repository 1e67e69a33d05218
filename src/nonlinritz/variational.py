"""Quadratic energy functionals on an interval.

This module provides the ground layer everything else builds on: composite
Gauss-Legendre quadrature whose panels can be split at declared kinks,
fields (functions with optional weak derivatives and declared breakpoints),
and the two model problems

* ``L2Approx``              a(u,v) = int u v,                ell(v) = int f v
* ``DiffusionReaction1D``   a(u,v) = int (K u' v' + s u v),  Dirichlet data
                            handled by a linear lifting folded into ell.

Both induce the energy J(u) = 0.5*a(u,u) - ell(u), which :func:`energy`
evaluates on a field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConfigError,
    DerivativeUnavailableError,
    NonFiniteValueError,
)

__all__ = [
    "QuadratureRule",
    "Cells",
    "Field",
    "ProblemConstants",
    "L2Approx",
    "DiffusionReaction1D",
    "integrate",
    "bilinear",
    "linear_form",
    "energy",
]


@lru_cache(maxsize=None)
def _gauss_nodes(order: int):
    return np.polynomial.legendre.leggauss(order)


class QuadratureRule:
    """Composite Gauss-Legendre rule on ``[x_lo, x_hi]``.

    Parameters
    ----------
    boundaries : array_like
        Strictly increasing panel boundaries; first and last entries are the
        interval endpoints.
    order : int
        Number of Gauss points per panel (exact for polynomials of degree
        ``2*order - 1`` on each panel).
    """

    def __init__(self, boundaries, order: int):
        b = np.asarray(boundaries, dtype=float)
        if b.ndim != 1 or b.size < 2:
            raise ConfigError("quadrature boundaries need at least two points")
        if not np.all(np.diff(b) > 0.0):
            raise ConfigError("quadrature boundaries must be strictly increasing")
        if not np.all(np.isfinite(b)):
            raise ConfigError("quadrature boundaries must be finite")
        if order < 1:
            raise ConfigError(f"quadrature order must be >= 1, got {order}")
        self.boundaries = b
        self.order = int(order)
        self.nodes, self.weights = _panel_nodes(b, self.order)

    @classmethod
    def on_interval(cls, x_lo: float, x_hi: float, n_panels: int = 16, order: int = 5):
        if not x_hi > x_lo:
            raise ConfigError(f"empty interval ({x_lo}, {x_hi})")
        if n_panels < 1:
            raise ConfigError("need at least one quadrature panel")
        return cls(np.linspace(x_lo, x_hi, n_panels + 1), order)

    @property
    def x_lo(self) -> float:
        return float(self.boundaries[0])

    @property
    def x_hi(self) -> float:
        return float(self.boundaries[-1])

    def split_at(self, points) -> "QuadratureRule":
        """Return a rule with panels additionally split at ``points``.

        The one-row case of :meth:`split_rows`: points outside the open
        interval or closer than ``1e-13 * span`` to a boundary are dropped,
        and without a point left the rule itself is returned.
        """
        pts = np.asarray(points, dtype=float).reshape(1, -1)
        if pts.size == 0:
            return self
        merged, count = self._merged(pts)
        if count[0] == self.boundaries.size:
            return self
        return QuadratureRule(merged[0, :count[0]], self.order)

    def split_rows(self, points) -> list:
        """Nodes and weights of the rule split at each row of ``points`` ``(N, k)``.

        Row ``i`` gives bitwise the nodes and weights of
        ``split_at(points[i])``.  Rows are grouped by their number of panels
        (a point on a panel edge or outside the interval adds none): the
        result holds one ``(rows, nodes, weights)`` per group, ``rows``
        ascending and ``nodes``/``weights`` of shape ``(len(rows), Q)``.
        """
        merged, count = self._merged(np.asarray(points, dtype=float))
        groups = []
        for c in np.unique(count):
            rows = np.flatnonzero(count == c)
            groups.append((rows, *_panel_nodes(merged[rows, :c], self.order)))
        return groups

    def split_cells(self, grid, fixed=()) -> "Cells":
        """The rule split at each row of ``grid`` ``(N, k)`` and at ``fixed``, cell by cell.

        A row's cells are the intervals ``(t_c, t_{c+1}]`` between its
        consecutive entries; a cell with ``t_{c+1} <= t_c`` holds no node.
        Each row splits the rule as ``split_at`` splits it at that row and
        ``fixed`` (one :meth:`_merged` over the stack), and a cell holds the
        nodes of that split which lie in it, so every cell's nodes, weights
        and order are bitwise the row's own.  A cell both of whose ends
        (clipped to the interval) are boundaries of its row's split holds
        the panels between them, which depend on its ends alone: cells with
        equal ends are laid out once for the stack.  A cell an end of which
        the split dropped (within ``1e-13 * span`` of another split point)
        is laid out for its row alone, and keeps those nodes of its row's
        panels around it that lie in it.
        """
        t = np.asarray(grid, dtype=float)
        N, k = t.shape
        rows = np.empty((N, k + len(fixed)))
        rows[:, :k], rows[:, k:] = t, fixed
        bounds = self._merged(rows)[0]
        # where each entry falls among its row's boundaries: keys (row,
        # value) sort lexicographically as complex numbers, so one search
        # places every entry among its own row's boundaries
        row = np.arange(N)[:, None]
        keys, entries = np.empty(bounds.shape, dtype=complex), np.empty(t.shape, dtype=complex)
        keys.real, keys.imag = row, np.nan_to_num(bounds, nan=np.inf)
        entries.real, entries.imag = row, np.clip(t, self.x_lo, self.x_hi)
        below, upto = (np.searchsorted(keys.ravel(), entries, side=side) - bounds.shape[1] * row
                       for side in ("left", "right"))
        on = upto > below  # the entry is a boundary
        first, stop = upto[:, :-1] - 1, below[:, 1:]   # the panels around each cell
        a, b = t[:, :-1], t[:, 1:]
        live, kept = (b > a) & (stop > first), on[:, :-1] & on[:, 1:]
        shared, own = np.flatnonzero(live & kept), np.flatnonzero(live & ~kept)
        rep = inverse = np.arange(shared.size)
        if N > 1:  # the cells of one row are distinct
            _, rep, inverse = np.unique((a + 1j * b).ravel()[shared], return_index=True,
                                        return_inverse=True)
        rep = np.concatenate([shared[rep], own])   # flat (row, cell) laying out each distinct cell
        of = np.full(a.size, rep.size)
        of[shared], of[own] = inverse, np.arange(rep.size - own.size, rep.size)
        # the panels of every distinct cell, cell after cell: runs of its
        # row's boundaries, indexed in the flat array of all rows'
        start = (first + bounds.shape[1] * row).ravel()[rep]
        panels = (stop - first).ravel()[rep]
        at = np.repeat(start - (np.cumsum(panels) - panels), panels) + np.arange(panels.sum())
        flat = bounds.ravel()
        x, w = (v.ravel() for v in _panel_nodes(np.stack([flat[at], flat[at + 1]], axis=-1),
                                                self.order))
        ends = a.ravel()[rep], b.ravel()[rep]
        counts = panels * self.order
        if own.size:
            alone = np.repeat(np.arange(rep.size) >= rep.size - own.size, counts)
            lo, hi = (np.repeat(e, counts) for e in ends)
            keep = ~alone | ((x > lo) & (x <= hi))
            x, w = x[keep], w[keep]
            counts = np.bincount(np.repeat(np.arange(rep.size), counts)[keep], minlength=rep.size)
        return Cells(t, *ends, x, w, counts, of.reshape(a.shape))

    def _merged(self, pts):
        """Sorted boundaries of each row of ``pts`` ``(N, k)`` merged into the rule's.

        Returns ``(merged, count)``: row ``i`` keeps its ``count[i]``
        boundaries in front, NaN behind.  A row drops its points outside
        the open interval, then exact duplicates, then of every pair closer
        than ``1e-13 * span`` the newcomer (an original boundary stays).
        """
        if not np.all(np.isfinite(pts)):
            raise NonFiniteValueError("non-finite quadrature split point")
        nb = self.boundaries.size
        merged = np.empty((pts.shape[0], nb + pts.shape[1]))
        merged[:, :nb] = self.boundaries
        merged[:, nb:] = np.where((pts > self.x_lo) & (pts < self.x_hi), pts, np.nan)
        # NaN sorts last, compares unequal and is never tight: dropping an
        # entry is setting it to NaN and sorting again
        merged.sort(axis=1)
        dup = merged[:, 1:] == merged[:, :-1]
        if dup.any():
            merged[:, 1:][dup] = np.nan
            merged.sort(axis=1)
        tight = np.diff(merged, axis=1) <= 1e-13 * (self.x_hi - self.x_lo)
        if tight.any():
            original = np.isin(merged, self.boundaries)
            drop = np.zeros(merged.shape, dtype=bool)
            drop[:, :-1] = tight & ~original[:, :-1]
            drop[:, 1:] |= tight & original[:, :-1] & ~original[:, 1:]
            merged[drop] = np.nan
            merged.sort(axis=1)
        return merged, np.count_nonzero(~np.isnan(merged), axis=1)


class Cells:
    """The nodes of a rule split at each row of a grid, cell by cell.

    ``grid`` ``(N, k)`` holds the rows; ``a`` and ``b`` ``(K,)`` the ends
    of each distinct cell; ``x`` and ``weights`` their nodes and weights,
    cell after cell and ascending in each; ``counts`` ``(K,)`` each cell's
    number of nodes; and ``of`` ``(N, k - 1)`` the distinct cell of each
    row's cell, ``K`` for a cell that holds no node.
    """

    # plain class: each frozen dataclass costs about 1 ms of import
    __slots__ = ("grid", "a", "b", "x", "weights", "counts", "of")

    def __init__(self, grid, a, b, x, weights, counts, of):
        self.grid, self.a, self.b, self.x, self.weights = grid, a, b, x, weights
        self.counts, self.of = counts, of


def _panel_nodes(b, order: int):
    """Gauss nodes and weights on the panels between boundaries ``b`` ``(..., P+1)``.

    Laid out panel by panel, of shape ``(..., P * order)``.
    """
    t, w = _gauss_nodes(order)
    a, c = b[..., :-1, None], b[..., 1:, None]
    half = 0.5 * (c - a)
    mid = 0.5 * (c + a)
    shape = b.shape[:-1] + (-1,)
    return (mid + half * t).reshape(shape), (half * w).reshape(shape)


def integrate(g: Callable[[np.ndarray], np.ndarray], rule: QuadratureRule) -> float:
    """Integrate a vectorised callable over the rule's interval.

    Raises :class:`NonFiniteValueError` naming the first offending node if
    the integrand evaluates to NaN or infinity anywhere.
    """
    vals = np.broadcast_to(np.asarray(g(rule.nodes), dtype=float), rule.nodes.shape)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        x_bad = rule.nodes[bad][0]
        raise NonFiniteValueError(
            f"integrand is not finite at quadrature node x={x_bad!r}"
        )
    return float(np.dot(rule.weights, vals))


@dataclass(frozen=True)
class Field:
    """A function on the interval, with an optional weak derivative.

    ``value_fn`` (and ``deriv_fn`` when present) must accept an ndarray of
    points and broadcast to its shape.  ``breakpoints`` declares kinks or
    jumps so quadrature panels can be split there; between consecutive
    breakpoints the field must be smooth.  A field without ``deriv_fn`` is
    understood as a member of L2 only.
    """

    value_fn: Callable[[np.ndarray], np.ndarray]
    deriv_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    breakpoints: tuple = ()

    def values(self, x) -> np.ndarray:
        return np.broadcast_to(
            np.asarray(self.value_fn(np.asarray(x, dtype=float)), dtype=float),
            np.shape(x),
        )

    def derivs(self, x) -> np.ndarray:
        if self.deriv_fn is None:
            raise DerivativeUnavailableError(
                "field has no weak derivative (L2-only member); it cannot be "
                "used with a form that differentiates its arguments"
            )
        return np.broadcast_to(
            np.asarray(self.deriv_fn(np.asarray(x, dtype=float)), dtype=float),
            np.shape(x),
        )

    @staticmethod
    def linear_interpolant(x_lo: float, x_hi: float, y_lo: float, y_hi: float) -> "Field":
        slope = (y_hi - y_lo) / (x_hi - x_lo)
        return Field(lambda x: y_lo + slope * (x - x_lo),
                     lambda x: np.full(np.shape(x), slope))

    # -- arithmetic (breakpoints merge; derivative only if both have one) --

    def _combine(self, other: "Field", op) -> "Field":
        bp = tuple(sorted(set(self.breakpoints) | set(other.breakpoints)))
        dfn = None
        if self.deriv_fn is not None and other.deriv_fn is not None:
            sf, of = self.derivs, other.derivs
            dfn = lambda x: op(sf(x), of(x))
        sv, ov = self.values, other.values
        return Field(lambda x: op(sv(x), ov(x)), dfn, bp)

    def __add__(self, other: "Field") -> "Field":
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other: "Field") -> "Field":
        return self._combine(other, lambda a, b: a - b)

    def __rmul__(self, scalar: float) -> "Field":
        s = float(scalar)
        dfn = None
        if self.deriv_fn is not None:
            df = self.derivs
            dfn = lambda x: s * df(x)
        vf = self.values
        return Field(lambda x: s * vf(x), dfn, self.breakpoints)


@dataclass(frozen=True)
class ProblemConstants:
    """User-supplied analytic constants of the variational problem.

    ``alpha``: coercivity constant of the bilinear form with respect to the
    ambient norm; ``norm_a``: its continuity constant; ``norm_ell``: the
    dual norm of the load functional.  These are never estimated from data.
    """

    alpha: float
    norm_a: float
    norm_ell: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and np.isfinite(self.alpha)):
            raise ConfigError(f"alpha must be positive and finite, got {self.alpha}")
        if not (self.norm_a >= self.alpha and np.isfinite(self.norm_a)):
            raise ConfigError(
                f"norm_a must be finite and >= alpha, got {self.norm_a} < {self.alpha}"
            )
        if not (self.norm_ell >= 0.0 and np.isfinite(self.norm_ell)):
            raise ConfigError(f"norm_ell must be nonnegative, got {self.norm_ell}")


@dataclass(frozen=True)
class L2Approx:
    """Best L2 approximation of a target: a(u,v) = (u,v), ell(v) = (f,v)."""

    target: Field

    needs_h1 = False

    def coefficient_breakpoints(self) -> tuple:
        return self.target.breakpoints

    def pairing(self, rule, u: Field, v: Field) -> float:
        return integrate(lambda x: u.values(x) * v.values(x), rule)

    def load(self, rule, v: Field) -> float:
        f = self.target
        return integrate(lambda x: f.values(x) * v.values(x), rule)


@dataclass(frozen=True)
class DiffusionReaction1D:
    """-(K u')' + s u = f on (x_lo, x_hi), u = g on the boundary.

    Trial and test fields are understood as members of H1_0; the Dirichlet
    data enters through the linear lifting ``u_bar`` (the straight line
    through the boundary values), whose contribution is folded into the
    load:  ell(v) = int f v - int (K u_bar' v' + s u_bar v).
    """

    diffusivity: Field
    reaction: Field
    source: Field
    x_lo: float
    x_hi: float
    bc_lo: float = 0.0
    bc_hi: float = 0.0

    needs_h1 = True

    def __post_init__(self):
        if not self.x_hi > self.x_lo:
            raise ConfigError("empty interval for DiffusionReaction1D")

    @property
    def lifting(self) -> Field:
        return Field.linear_interpolant(self.x_lo, self.x_hi, self.bc_lo, self.bc_hi)

    def coefficient_breakpoints(self) -> tuple:
        return tuple(
            sorted(
                set(self.diffusivity.breakpoints)
                | set(self.reaction.breakpoints)
                | set(self.source.breakpoints)
            )
        )

    def pairing(self, rule, u: Field, v: Field) -> float:
        K, s = self.diffusivity, self.reaction
        return integrate(
            lambda x: K.values(x) * u.derivs(x) * v.derivs(x)
            + s.values(x) * u.values(x) * v.values(x),
            rule,
        )

    def load(self, rule, v: Field) -> float:
        f = self.source
        fv = integrate(lambda x: f.values(x) * v.values(x), rule)
        if self.bc_lo == 0.0 and self.bc_hi == 0.0:
            return fv
        return fv - self.pairing(rule, self.lifting, v)


def _split_rule(problem, rule: QuadratureRule, *fields: Field) -> QuadratureRule:
    """``split_at`` sorts the points and drops duplicates itself."""
    return rule.split_at((*problem.coefficient_breakpoints(),
                          *(b for f in fields for b in f.breakpoints)))


def bilinear(problem, rule: QuadratureRule, u: Field, v: Field) -> float:
    """Evaluate a(u, v), splitting panels at all declared breakpoints."""
    return problem.pairing(_split_rule(problem, rule, u, v), u, v)


def linear_form(problem, rule: QuadratureRule, v: Field) -> float:
    """Evaluate ell(v), splitting panels at all declared breakpoints."""
    return problem.load(_split_rule(problem, rule, v), v)


def energy(problem, rule: QuadratureRule, u: Field) -> float:
    """J(u) = 0.5 * a(u, u) - ell(u)."""
    return 0.5 * bilinear(problem, rule, u, u) - linear_form(problem, rule, u)
