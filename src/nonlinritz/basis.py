"""Parameter-dependent basis families and their admissible domain.

A family maps a nonlinear parameter vector ``xi`` (living in a convex
compact set: a box intersected with ordered chains) to a tuple of basis
functions ``phi_1(xi), ..., phi_nL(xi)``.  Realisations are linear
combinations ``u = w . phi(xi)``.  ``basis_values``/``basis_derivs`` accept
one point ``(d,)`` or a stack ``(N, d)``, with nodes ``x`` of shape ``(Q,)``
shared by every point or ``(N, Q)``, one row per point, and return
``(..., n_linear, Q)``; ``breakpoints`` of a stack ``(N, d)`` gives one
``(N,)`` array per breakpoint.

``evaluate(xi, x)`` evaluates the family once on the nodes: the bumps,
the cell of each node for hats, the amplitude ``g(xi)``; the rest is read
from it.  Hats sum over each cell's nodes: their Galerkin systems
(``element_products``) and L2 knot gradient (``knot_gradient``).  Every
other family gives its basis values (``values_of``) and, if differentiable,
the parameter derivative of a realisation, ``d u / d xi_i`` of shape
``(n_nonlinear, len(x))`` (``dparam_values(ev, w)``); the derivative of a
single basis function is that kernel applied to a unit vector.

Families
--------
GaussianBumps      movable centers, fixed widths; smooth in x and xi
FreeKnotHats       piecewise-linear hats on movable, ordered interior knots
IndicatorPair      two indicators sharing a movable breakpoint (L2 only;
                   parameter derivatives exist only distributionally)
SyntheticAmplitude single spatially-constant function whose amplitude is a
                   closed-form map of xi; realises fully nonlinear test
                   objectives when the linear coefficient is frozen at 1
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DerivativeUnavailableError,
    DomainViolationError,
)
from .variational import Field

__all__ = [
    "NonlinearDomain",
    "GaussianBumps",
    "FreeKnotHats",
    "IndicatorPair",
    "SyntheticAmplitude",
    "realisation",
]


# ---------------------------------------------------------------------------
# admissible parameter domain
# ---------------------------------------------------------------------------


#: membership tolerance of NonlinearDomain, times max(1, largest |bound|):
#: the chain projection rounds at about one ulp of the bounds
_TOL = 1e-12


def _bounded_isotonic(y, w, lo, hi):
    """Weighted least-squares fit of a nondecreasing sequence within bounds.

    Solves  min sum w_i (x_i - y_i)^2  s.t.  x nondecreasing, lo <= x <= hi
    by pool-adjacent-violators with blockwise minimisers (clipped weighted
    block means).  ``lo``/``hi`` must already be the monotone envelopes
    (nondecreasing).  Plain clip-after-PAV is wrong for non-uniform bounds;
    the clipping has to participate in the pooling decisions.
    """
    # finished blocks as tuples (start, weight sum, mean, lo, hi, clipped
    # value); the newest block is held in locals until the blocks below it no
    # longer exceed its value.  The conditionals are the builtins' max(a, b)
    # and min(a, b), which keep ``a`` on a tie (-0.0 against 0.0 included).
    blocks = []
    for i, (cm, cw, cl, ch) in enumerate(zip(y.tolist(), w.tolist(), lo.tolist(), hi.tolist())):
        cs = i
        cv = cl if cl > cm else cm
        cv = ch if ch < cv else cv
        while blocks and blocks[-1][5] > cv:
            # merge the block below into the newest one
            cs, w1, m1, l1, h1, _ = blocks.pop()
            cm = (w1 * m1 + cw * cm) / (w1 + cw)
            cw = w1 + cw
            cl = cl if cl > l1 else l1
            ch = ch if ch < h1 else h1
            cv = cl if cl > cm else cm
            cv = ch if ch < cv else cv
        blocks.append((cs, cw, cm, cl, ch, cv))
    ends = [b[0] for b in blocks[1:]] + [len(y)]
    return np.repeat([b[5] for b in blocks], [end - b[0] for b, end in zip(blocks, ends)])


@dataclass(frozen=True)
class NonlinearDomain:
    """Box plus ordered chains: the admissible set for nonlinear parameters.

    Parameters
    ----------
    lower, upper : arrays of per-coordinate bounds.
    chains : tuple of index tuples; within each chain consecutive
        coordinates must increase by at least ``gap``.  Chains must be
        pairwise disjoint.
    gap : minimum increment along every chain (>= 0).
    """

    lower: np.ndarray
    upper: np.ndarray
    chains: tuple = ()
    gap: float = 0.0

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(
            self, "chains", tuple(tuple(int(i) for i in c) for c in self.chains)
        )
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ConfigError("domain bounds must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ConfigError("domain bounds must be finite (compact set)")
        if np.any(lo > hi):
            raise ConfigError("domain has lower > upper in some coordinate")
        if self.gap < 0.0:
            raise ConfigError("chain gap must be nonnegative")
        seen: set = set()
        for c in self.chains:
            if len(c) < 2:
                raise ConfigError("ordering chains need at least two coordinates")
            for i in c:
                if not 0 <= i < lo.size:
                    raise ConfigError(f"chain index {i} out of range")
                if i in seen:
                    raise ConfigError(f"coordinate {i} appears in two chains")
                seen.add(i)
        # consecutive chain members (a, b), chain by chain, for the masks
        links = [(a, b) for c in self.chains for a, b in zip(c[:-1], c[1:])]
        link_a, link_b = np.array(links, dtype=int).reshape(-1, 2).T
        object.__setattr__(self, "_link_a", link_a)
        object.__setattr__(self, "_link_b", link_b)
        tol = _TOL * np.max(np.abs((lo, hi)), initial=1.0)
        object.__setattr__(self, "_limits", (lo - tol, hi + tol, self.gap - tol))
        # per chain, for the projection: indices, the gap shift ``k*gap`` and the
        # monotone envelopes of the shifted bounds; the chain holds a point (its
        # lower envelope, shifted back) exactly when lo_env <= hi_env throughout
        envelopes = []
        for c in self.chains:
            idx = np.asarray(c)
            shift = np.arange(idx.size, dtype=float) * self.gap
            lo_env = np.maximum.accumulate(lo[idx] - shift)
            hi_env = np.minimum.accumulate((hi[idx] - shift)[::-1])[::-1]
            if np.any(lo_env > hi_env):
                raise ConfigError(
                    "domain is empty along chain "
                    f"{c}: bounds and gap {self.gap!r} are incompatible"
                )
            envelopes.append((idx, shift, lo_env, hi_env))
        object.__setattr__(self, "_envelopes", envelopes)

    @property
    def dim(self) -> int:
        return int(self.lower.size)

    def _masks(self, points):
        """Boolean violation masks ``(below, above, short)`` of a point or rows.

        ``short[..., l]`` flags the chain link ``(_link_a[l], _link_b[l])``.
        NaN coordinates flag nothing, as in the scalar comparisons these
        replace.  ``require`` runs this once per assembled system, so the
        limits, widened by the scaled ``_TOL``, are computed once and a
        domain without chains skips the link arithmetic.
        """
        lo, hi, gap = self._limits
        if self.chains:
            short = points[..., self._link_b] - points[..., self._link_a] < gap
        else:
            short = np.zeros(points.shape[:-1] + (0,), dtype=bool)
        return points < lo, points > hi, short

    def feasible(self, points) -> np.ndarray:
        """One boolean per row of an ``(N, dim)`` array: is the row admissible?

        A row passes when ``lower - tol <= p <= upper + tol`` coordinatewise
        and ``p[b] - p[a] >= gap - tol`` along every chain link (``tol`` the
        scaled ``_TOL``); this is exactly ``not violations(p)``, for all rows.
        """
        p = np.asarray(points, dtype=float)
        if p.ndim != 2 or p.shape[1] != self.dim:
            raise ConfigError(f"expected an (N, {self.dim}) array, got shape {p.shape}")
        below, above, short = self._masks(p)
        return ~((below | above).any(axis=1) | short.any(axis=1))

    def violations(self, xi) -> list:
        xi = np.asarray(xi, dtype=float)
        if xi.shape != self.lower.shape:
            return [f"expected {self.dim} coordinates, got {xi.shape}"]
        below, above, short = self._masks(xi)
        # count_nonzero: far cheaper than .any() on arrays this small
        if not (np.count_nonzero(below) or np.count_nonzero(above) or np.count_nonzero(short)):
            return []
        out = []
        for i in np.flatnonzero(below | above):
            if below[i]:
                side, bound = "below lower", self.lower[i]
            else:
                side, bound = "above upper", self.upper[i]
            out.append(f"xi[{i}]={float(xi[i])!r} {side} bound {float(bound)!r}")
        a, b = self._link_a, self._link_b
        for l in np.flatnonzero(short):
            d = float(xi[b[l]] - xi[a[l]])
            out.append(
                f"chain gap violated: xi[{b[l]}]-xi[{a[l]}]={d!r} < {float(self.gap)!r}"
            )
        return out

    def require(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        bad = self.violations(xi)
        if bad:
            raise DomainViolationError(
                "parameter point outside admissible domain: " + "; ".join(bad)
            )
        return xi

    def project(self, point, weights=None) -> np.ndarray:
        """Weighted Euclidean projection onto the domain.

        Minimises ``sum_i d_i (x_i - p_i)^2`` over the domain; this is the
        Bregman prox geometry's projection when ``weights`` holds the
        diagonal of the mirror map, whose positivity the geometry checked
        when it was made.  Coordinates outside chains clip to the
        box; each chain reduces, after the gap shift ``z_k = x_k - k*gap``,
        to bounded weighted isotonic regression.

        ``point`` is one point ``(dim,)`` or a stack ``(N, dim)``, projected
        row by row with the same ``weights``; every row is bitwise that
        point projected alone.  The clip and each chain's pass-through test
        run once over the stack, and only the rows that break a chain go
        through the isotonic solver, one call each.
        """
        p = np.asarray(point, dtype=float)
        d = np.ones(self.dim) if weights is None else np.asarray(weights, dtype=float)
        x = np.minimum(np.maximum(p, self.lower), self.upper)
        rows, xs = p.reshape(-1, self.dim), x.reshape(-1, self.dim)  # xs: a view of x
        for idx, shift, lo_env, hi_env in self._envelopes:
            chain = rows[:, idx]
            y = chain - shift
            # a feasible chain passes through: pool-adjacent-violators pools
            # only on a strict decrease and clips nothing inside the envelopes
            passes = (y[:, 1:] >= y[:, :-1]).all(axis=1) & ((lo_env <= y) & (y <= hi_env)).all(axis=1)
            xs[:, idx] = chain
            for r, passing in enumerate(passes.tolist()):
                if not passing:
                    xs[r, idx] = _bounded_isotonic(y[r], d[idx], lo_env, hi_env) + shift
        return x

    def normal_cone_distance(self, point, v, atol: float) -> float:
        """Distance of ``v`` to the normal cone of the domain at ``point``.

        Constraints within ``atol`` of equality count as active.  By
        Moreau's decomposition the distance is the norm of the projection
        of ``v`` onto the polar cone: vectors nonnegative where a lower
        bound is active, nonpositive where an upper one is, and
        nondecreasing along each run of active chain links.  Off the runs
        that projection clips; on a run it is a bounded isotonic regression.
        """
        point = np.asarray(point, dtype=float)
        v = np.asarray(v, dtype=float)
        lo = np.where(point <= self.lower + atol, 0.0, -np.inf)
        hi = np.where(point >= self.upper - atol, 0.0, np.inf)
        z = np.minimum(np.maximum(v, lo), hi)
        for c in self.chains:
            idx = np.asarray(c)
            loose = np.flatnonzero(np.diff(point[idx]) > self.gap + atol)
            for run in np.split(idx, loose + 1):
                if run.size > 1:
                    z[run] = _bounded_isotonic(
                        v[run], np.ones(run.size), np.maximum.accumulate(lo[run]),
                        np.minimum.accumulate(hi[run][::-1])[::-1],
                    )
        return float(np.linalg.norm(z))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw a feasible point: rejection from the box, projection fallback.

        Up to 200 uniform box draws are tried in order and the first
        admissible one is returned; if none is, one more draw is projected.
        All candidates are drawn as one ``(200, dim)`` block, the numbers
        of 200 single ``rng.uniform`` draws, and only their chain links are
        tested: a box draw is off the box by at most a rounding of the
        bounds, inside the tolerance, which scales with them.  After an
        accepted row ``k`` the generator is rewound and advanced by exactly
        ``k + 1`` rows, so the point returned and the state ``rng`` is left
        in are bitwise those of drawing one candidate at a time.
        """
        state = rng.bit_generator.state
        block = self.lower + (self.upper - self.lower) * rng.random((200, self.dim))
        short = block[:, self._link_b] - block[:, self._link_a] < self._limits[2]
        hits = np.flatnonzero(~short.any(axis=1))
        if hits.size:
            k = int(hits[0])
            rng.bit_generator.state = state
            rng.random((k + 1, self.dim))
            return block[k]
        return self.project(rng.uniform(self.lower, self.upper))

    def shrink(self, margin) -> "NonlinearDomain":
        """Domain whose points keep all constraints slack by ``margin``.

        ``margin`` is one number or one per coordinate.  Any single
        coordinate ``i`` of a point of the shrunk domain may move by up to
        its margin without leaving the original domain (used by finite
        difference probes).
        """
        return NonlinearDomain(
            self.lower + margin, self.upper - margin, self.chains,
            self.gap + 2.0 * float(np.max(margin)),
        )


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


class _FamilyBase:
    """Shared validation; concrete families fill in the evaluations."""

    vanishes_on_boundary: bool = False

    def require_param(self, xi) -> np.ndarray:
        """One point ``(d,)`` or a stack ``(N, d)``, checked against the domain.

        A stack is checked in one ``feasible`` call; its first inadmissible
        row raises the same error as that point alone.
        """
        xi = np.asarray(xi, dtype=float)
        if xi.ndim not in (1, 2) or xi.shape[-1] != self.n_nonlinear:
            raise DomainViolationError(
                f"expected {self.n_nonlinear} nonlinear parameters, got shape {xi.shape}"
            )
        if xi.ndim == 1:
            return self.domain.require(xi)
        feasible = self.domain.feasible(xi)
        if not feasible.all():
            self.domain.require(xi[np.flatnonzero(~feasible)[0]])
        return xi

    def breakpoints(self, xi) -> tuple:
        return ()

    def basis_derivs(self, xi, x):
        return None

    def evaluate(self, xi, x):
        """The family at ``xi`` on nodes ``x``, which the rest reads (hats
        cell by cell).  By default its basis values."""
        return self.basis_values(xi, x)

    def values_of(self, ev):
        """Basis values ``(..., n_linear, Q)`` from an evaluation."""
        return ev


@dataclass(frozen=True)
class GaussianBumps(_FamilyBase):
    """phi_k(xi, x) = exp(-(x - xi_k)^2 / (2 widths_k^2)); one bump per center."""

    domain: NonlinearDomain
    widths: np.ndarray

    vanishes_on_boundary = False

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.widths, dtype=float))
        object.__setattr__(self, "widths", w)
        if w.size != self.domain.dim:
            raise ConfigError("one width per center is required")
        if np.any(w <= 0.0):
            raise ConfigError("bump widths must be positive")

    @property
    def n_linear(self) -> int:
        return int(self.widths.size)

    @property
    def n_nonlinear(self) -> int:
        return int(self.widths.size)

    def _d(self, xi, x):
        """x - xi_k with the bump axis before the node axis."""
        return np.asarray(x, dtype=float)[..., None, :] - xi[..., None]

    def _z(self, xi, x):
        return self._d(xi, x) / self.widths[:, None] ** 2

    def _phi(self, d):
        """exp(-((x - xi_k) / width_k)^2 / 2) from ``d = x - xi_k``, in one temporary."""
        t = d / self.widths[:, None]
        t *= t
        t *= -0.5
        return np.exp(t, out=t)

    def basis_values(self, xi, x):
        return self._phi(self._d(xi, x))

    def basis_derivs(self, xi, x):
        return -self._z(xi, x) * self.basis_values(xi, x)

    def evaluate(self, xi, x):
        """``(xi, x, phi)``: the bumps ``(..., n_linear, Q)`` with their point
        and nodes."""
        return xi, x, self.basis_values(xi, x)

    def values_of(self, ev):
        return ev[2]

    def dparam_values(self, ev, w):
        """d (w . phi) / d xi_k = w_k z_k phi_k: center k moves bump k only.

        A stack of points takes one coefficient row per point.  The
        derivative is built in place of ``x - xi_k``: an evaluation holds
        the bumps only, one array of their size.
        """
        xi, x, phi = ev
        du = self._d(xi, x)
        du /= self.widths[:, None] ** 2
        du *= phi
        du *= w[..., None]
        return du


@dataclass(frozen=True)
class FreeKnotHats(_FamilyBase):
    """Piecewise-linear hats on the mesh x_lo <= xi_1 <= ... <= xi_m <= x_hi.

    The domain must hold the chain ``(0, 1, ..., m - 1)`` (one knot needs
    none), so the cells ``[t_c, t_{c+1}]`` of the grid ``t`` do not overlap
    and on cell c only hat c falls and hat c+1 rises.  ``dirichlet=True``
    keeps only the interior hats (they vanish on the boundary); otherwise
    all ``m + 2`` hats are used.  Zero-width cells (coincident knots) add
    nothing, so degenerate parameters stay well defined in L2.

    Values, slopes, Galerkin systems (``element_products``) and the L2
    knot gradient (``knot_gradient``) are built from the cell
    :meth:`_locate` gives each node, O(1) work per node; a node on a knot
    takes the cell on its left, where the knot's hat rises.
    """

    domain: NonlinearDomain
    x_lo: float
    x_hi: float
    dirichlet: bool = False

    def __post_init__(self):
        if not self.x_hi > self.x_lo:
            raise ConfigError("empty interval for FreeKnotHats")
        if np.any(self.domain.lower < self.x_lo) or np.any(self.domain.upper > self.x_hi):
            raise ConfigError("knot domain must lie inside the interval")
        chain = tuple(range(self.domain.dim))
        if len(chain) > 1 and self.domain.chains != (chain,):
            raise ConfigError("free-knot hats need ordered knots: the domain must hold "
                              f"the one chain {list(chain)}")

    @property
    def vanishes_on_boundary(self) -> bool:  # type: ignore[override]
        return self.dirichlet

    @property
    def n_nonlinear(self) -> int:
        return self.domain.dim

    @property
    def n_linear(self) -> int:
        return self.n_nonlinear if self.dirichlet else self.n_nonlinear + 2

    def _grid(self, xi) -> np.ndarray:
        """The grid ``(x_lo, xi_1, ..., xi_m, x_hi)`` of one point or each of a stack.

        The knots pass through a running maximum: a chain link may fall short
        by the domain's tolerance, and only on a nondecreasing grid do the
        two strategies of :meth:`_locate` agree.
        """
        t = np.empty(xi.shape[:-1] + (xi.shape[-1] + 2,))
        t[..., 0], t[..., -1] = self.x_lo, self.x_hi
        np.maximum.accumulate(xi, axis=-1, out=t[..., 1:-1])
        return t

    def breakpoints(self, xi) -> tuple:
        return tuple(self._grid(np.asarray(xi, dtype=float)).T)

    def _locate(self, xi, x):
        """The cell of each node: ``(t, x, at)``, one row per point.

        ``xi`` is one point or a stack ``(N, d)``, with nodes ``(Q,)`` or
        ``(N, Q)``.  A node lies in the cell ``[t_c, t_{c+1}]`` after the
        ``c`` interior knots strictly left of it: a node on a knot in the
        cell on its left, ``x_lo`` in the first cell of positive width
        (after the knots sitting on ``x_lo``), and a node outside
        ``[x_lo, x_hi]`` in the empty cell ``[x_hi, x_hi]`` appended to
        each grid.  Returns those grids ``(N, m + 3)``, the nodes ``(N, Q)``
        and the flat index in ``t`` of each node's cell's left end.
        """
        grid = np.atleast_2d(self._grid(xi))
        N, m = len(grid), self.n_nonlinear
        t = np.empty((N, m + 3))
        t[:, :-1], t[:, -1] = grid, self.x_hi
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if len(x) < N:  # nodes shared by every point
            x = np.broadcast_to(x, (N, x.shape[1]))
        # the count of interior knots left of each node, in as few Python
        # steps as possible: one pass per knot or one search per point
        if m < N:
            c = np.zeros(x.shape, dtype=np.intp)
            for knot in grid[:, 1:-1].T:
                c += knot[:, None] < x
        else:
            c = np.stack([np.searchsorted(row[1:-1], nodes) for row, nodes in zip(grid, x)])
        on_lo = x == self.x_lo
        if on_lo.any():
            on_knots = np.count_nonzero(grid[:, 1:-1] == self.x_lo, axis=1)
            c[on_lo] = np.broadcast_to(on_knots[:, None], x.shape)[on_lo]
        if x.min() < self.x_lo or x.max() > self.x_hi:
            c[(x < self.x_lo) | (x > self.x_hi)] = m + 1
        return t, x, c + (m + 3) * np.arange(N)[:, None]

    def _hat_rows(self, located, slopes: bool):
        """Values (or slopes) of the hats on located nodes, ``(N, n_linear, Q)``.

        On its cell of width h a node gets hat c's falling piece
        ``(t_{c+1} - x) / h`` (slope ``-1/h``) and hat c+1's rising piece
        ``(x - t_c) / h`` (slope ``1/h``); all other entries are 0.
        """
        t, x, at = located
        lo, hi = np.take(t, at), np.take(t, at + 1)
        live = hi > lo
        h = np.where(live, hi - lo, 1.0)
        if slopes:
            rise, fall = 1.0 / h, -1.0 / h
        else:
            rise, fall = (x - lo) / h, (hi - x) / h
        # rows: hats 0 .. m+1 and the empty cell's rising piece; a node's
        # column gets its cell's two entries
        Q = x.shape[1]
        out = np.zeros(t.shape + (Q,))
        flat, col = out.reshape(-1), at * Q + np.arange(Q)
        flat[col] = np.where(live, fall, 0.0)
        flat[col + Q] = np.where(live, rise, 0.0)
        d = int(self.dirichlet)
        return np.ascontiguousarray(out[:, d:self.n_nonlinear + 2 - d])

    def basis_values(self, xi, x):
        out = self._hat_rows(self._locate(xi, x), slopes=False)
        return out[0] if np.ndim(xi) == 1 else out

    def basis_derivs(self, xi, x):
        out = self._hat_rows(self._locate(xi, x), slopes=True)
        return out[0] if np.ndim(xi) == 1 else out

    def evaluate(self, xi, x):
        """The cell of each node, :meth:`_locate`'s ``(t, x, at)``."""
        return self._locate(xi, x)

    def _cell_sums(self, located):
        """``(rise, fall, slope, per_cell)`` of located nodes: on a node's cell
        ``[a, b]`` of width h, ``x - a`` and ``b - x`` (the rising and the
        falling hat times h, divided per cell, not per node), ``1 / h`` per
        cell (0 if empty), and ``per_cell(v, scale)``, the sum of ``v`` over
        each cell's nodes times ``scale`` there, ``(N, m + 1)``.  Each sum
        reduces one run of a point's nodes (``numpy.add.reduceat`` over flat
        (point, cell) bins), so a stack gives bitwise its points' sums."""
        t, x, at = located
        cells = self.n_nonlinear + 1
        rise, fall = x - np.take(t, at), np.take(t, at + 1) - x
        bins = at.ravel()
        starts = np.flatnonzero(np.diff(bins, prepend=-1))
        width = np.diff(t[:, :-1], axis=1)
        slope = np.divide(1.0, width, out=np.zeros_like(width), where=width > 0.0)

        def per_cell(v, scale):
            sums = np.zeros(t.size)
            np.add.at(sums, bins[starts], np.add.reduceat(np.ravel(v), starts))
            sums = sums.reshape(t.shape)[:, :cells]
            # a cell without nodes adds nothing, however narrow
            return np.where(sums == 0.0, 0.0, sums * scale)

        return rise, fall, slope, per_cell

    def element_products(self, located, forms, values, slopes=None):
        """Galerkin matrices and load of the hats, assembled cell by cell.

        ``located`` holds the cells of the nodes of a stack, from
        :meth:`_locate`.  The other arguments hold one weight per node: each
        ``(mass, stiffness)`` pair of ``forms`` gives the matrix ``sum_x mass
        phi_i phi_j + stiffness phi_i' phi_j'`` (``stiffness`` None: no slope
        term), and the load is ``sum_x values phi_j + slopes phi_j'``.
        Returns the list of matrices ``(N, n, n)`` and the load ``(N, n)``.

        On the cell :meth:`_locate` gives a node, hat c falls as
        ``(t_{c+1} - x) / h_c`` and hat c+1 rises as ``(x - t_c) / h_c``;
        their weighted products, summed per cell and divided by ``h_c^2``
        there, are the 2x2 element matrices, which fill the three diagonals.
        The sums are :meth:`_cell_sums`', so a stack gives bitwise its
        points' systems.
        """
        N, cells = len(located[0]), self.n_nonlinear + 1
        rise, fall, slope, per_cell = self._cell_sums(located)

        def on_hats(on_falling, on_rising):
            out = np.zeros((N, cells + 1))
            out[:, :-1] = on_falling
            out[:, 1:] += on_rising
            return out

        m, d, n = self.n_nonlinear, int(self.dirichlet), self.n_linear
        keep, i = slice(d, m + 2 - d), np.arange(n)
        sq = slope * slope
        mats = []
        for mass, stiffness in forms:
            v_fall = mass * fall
            ff, fr, rr = per_cell(v_fall * fall, sq), per_cell(v_fall * rise, sq), per_cell(mass * rise * rise, sq)
            if stiffness is not None:
                k = per_cell(stiffness, sq)
                ff, fr, rr = ff + k, fr - k, rr + k
            M = np.zeros((N, n, n))
            M[:, i, i] = on_hats(ff, rr)[:, keep]
            M[:, i[:-1], i[1:]] = M[:, i[1:], i[:-1]] = fr[:, d:m + 1 - d]
            mats.append(M)
        vf, vr = per_cell(values * fall, slope), per_cell(values * rise, slope)
        if slopes is not None:
            k = per_cell(slopes, slope)
            vf, vr = vf - k, vr + k
        return mats, on_hats(vf, vr)[:, keep]

    def knot_gradient(self, located, w, weights, target):
        """``sum_x (weights u - target) d u / d xi_i`` ``(N, m)`` on located
        nodes, with one coefficient row ``w`` per point and the quadrature
        weights and weighted target per node.  On the cell ``[a, b]`` of
        width h, ``u = w_c (b - x) / h + w_{c+1} (x - a) / h`` moves with b
        by ``(w_c - w_{c+1}) (x - a) / h^2`` and with a by ``(w_c - w_{c+1})
        (b - x) / h^2``: knot i, which ends cell i and starts cell i + 1,
        gathers the residual times ``x - a`` over the one and times
        ``b - x`` over the other, in :meth:`_cell_sums`' sums (bitwise per point)."""
        t, _, at = located
        rise, fall, slope, per_cell = self._cell_sums(located)
        m, d = self.n_nonlinear, int(self.dirichlet)
        # by hat and by cell, padded to the columns of t: no hats 0 and m+1
        # when Dirichlet, slope 0 on the empty cell of nodes outside
        coef, slopes = np.zeros(t.shape), np.zeros(t.shape)
        coef[:, d:m + 2 - d], slopes[:, :m + 1] = w, slope
        u = (np.take(coef, at) * fall + np.take(coef, at + 1) * rise) * np.take(slopes, at)
        residual = weights * u - target
        jump = (coef[:, :m + 1] - coef[:, 1:m + 2]) * (slope * slope)
        return per_cell(residual * rise, jump)[:, :-1] + per_cell(residual * fall, jump)[:, 1:]


@dataclass(frozen=True)
class IndicatorPair(_FamilyBase):
    """phi(xi) = (chi_(a,b), chi_(b,c)) for xi = (a, b, c).

    The map xi -> phi(xi) is 1/2-Hoelder in L2 and nowhere differentiable
    into L2 (the formal derivatives are Dirac masses), yet the assembled
    energy is smooth in xi: use the closed-form energy gradient.
    """

    domain: NonlinearDomain

    n_linear = 2
    n_nonlinear = 3

    def __post_init__(self):
        if self.domain.dim != 3:
            raise ConfigError("IndicatorPair needs a 3-coordinate domain (a, b, c)")

    def breakpoints(self, xi) -> tuple:
        return tuple(np.asarray(xi, dtype=float).T)

    def basis_values(self, xi, x):
        x = np.asarray(x, dtype=float)
        # ends of shape (..., 1) against (Q,) or (N, Q) nodes; np.stack adds
        # the basis axis
        a, b, c = (v[..., None] for v in np.moveaxis(xi, -1, 0))
        return np.stack(
            [
                np.where((x > a) & (x < b), 1.0, 0.0),
                np.where((x > b) & (x < c), 1.0, 0.0),
            ],
            axis=-2,
        )

    def dparam_values(self, ev, w):
        raise DerivativeUnavailableError(
            "indicator basis has no parameter derivative in L2 (boundary "
            "movement is a Dirac mass); use the closed-form energy gradient"
        )


_PROFILES = ("sphere_quartic", "norm")


@dataclass(frozen=True)
class SyntheticAmplitude(_FamilyBase):
    """Single basis function, constant in space: phi_1(xi, x) = g(xi).

    Profiles (with the linear coefficient frozen at 1 and zero target):

    * ``sphere_quartic``: g = sqrt(2)*scale*(||xi||^2 - radius^2), so the
      energy is scale^2 * (||xi||^2 - radius^2)^2 — minimised on a sphere.
    * ``norm``: g = scale*||xi||, so the energy is scale^2 * ||xi||^2 / 2.
    """

    domain: NonlinearDomain
    profile: str = "sphere_quartic"
    radius: float = 1.0
    scale: float = 1.0

    n_linear = 1

    def __post_init__(self):
        if self.profile not in _PROFILES:
            raise ConfigError(
                f"unknown synthetic profile {self.profile!r}; options: {_PROFILES}"
            )

    @property
    def n_nonlinear(self) -> int:
        return self.domain.dim

    def _g(self, xi):
        """g at one point, or one value per point of a stack."""
        sq = np.vecdot(xi, xi)
        if self.profile == "sphere_quartic":
            return np.sqrt(2.0) * self.scale * (sq - self.radius ** 2)
        return self.scale * np.sqrt(sq)

    def _dg(self, xi):
        """g' at one point, or one gradient per point of a stack.  The norm
        profile is not differentiable at the origin, its minimiser; there it
        gives the subgradient 0."""
        if self.profile == "sphere_quartic":
            return 2.0 * np.sqrt(2.0) * self.scale * xi
        r = np.sqrt(np.vecdot(xi, xi))[..., None]
        return np.divide(self.scale * xi, r, out=np.zeros(np.shape(xi)), where=r > 0.0)

    def basis_values(self, xi, x):
        return self.values_of(self.evaluate(xi, x))

    def basis_derivs(self, xi, x):
        return np.zeros(np.shape(xi)[:-1] + (1, np.shape(x)[-1]))

    def evaluate(self, xi, x):
        """``(xi, g(xi), Q)``: the amplitude and the number of nodes."""
        return xi, self._g(xi), np.shape(x)[-1]

    def values_of(self, ev):
        _, g, Q = ev
        return np.tile(g[..., None, None], (1, Q))

    def dparam_values(self, ev, w):
        """d (w_0 g(xi)) / d xi = w_0 g'(xi), constant in space; per point of a stack."""
        xi, _, Q = ev
        return np.tile((w[..., :1] * self._dg(xi))[..., None], (1, Q))


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def realisation(family, xi, w) -> Field:
    """The function w . phi(xi) as a Field."""
    xi = family.require_param(xi)
    w = np.asarray(w, dtype=float)
    if w.shape != (family.n_linear,):
        raise ConfigError(
            f"expected {family.n_linear} linear coefficients, got shape {w.shape}"
        )

    def value_fn(x):
        return w @ family.basis_values(xi, np.atleast_1d(x))

    deriv_fn = None
    if family.basis_derivs(xi, np.zeros(1)) is not None:
        def deriv_fn(x):
            return w @ family.basis_derivs(xi, np.atleast_1d(x))

    return Field(value_fn, deriv_fn, family.breakpoints(xi))
