"""References for free-knot hats: loops, one hat and one knot at a time, and
the per-point assembly the per-cell one replaced.

Hat j rises on the cell ``(t_{j-1}, t_j]`` and falls on ``(t_j, t_{j+1}]``;
the first cell of positive width is closed on the left, so ``x_lo`` lies
in it even when knots sit on ``x_lo``.  A node on a knot thus belongs to
the cell on its left, where the knot's hat rises, and its slopes and knot
derivatives are that cell's.  Zero-width cells and nodes outside
``[x_lo, x_hi]`` give 0.
"""

import numpy as np

from nonlinritz.assembly import _field_values
from nonlinritz.variational import Cells


def _hat_range(fam):
    m = fam.n_nonlinear
    return range(1, m + 1) if fam.dirichlet else range(0, m + 2)


def _cell(t, c, x):
    """Mask of the nodes in cell c, or None when the cell is empty."""
    if not t[c + 1] > t[c]:
        return None
    left = (x >= t[c]) if t[c] == t[0] else (x > t[c])
    return left & (x <= t[c + 1])


def _pieces(fam, xi, x, rising, falling):
    """Rows of ``rising(x, a, b)`` on each hat's left cell [a, b] and
    ``falling(x, b, c)`` on its right cell [b, c]."""
    t = fam.grid(xi)
    rows = []
    for j in _hat_range(fam):
        v = np.zeros_like(x)
        if j > 0 and (up := _cell(t, j - 1, x)) is not None:
            v[up] = rising(x[up], t[j - 1], t[j])
        if j < t.size - 1 and (dn := _cell(t, j, x)) is not None:
            v[dn] = falling(x[dn], t[j], t[j + 1])
        rows.append(v)
    return np.stack(rows)


def loop_basis_values(fam, xi, x):
    return _pieces(fam, xi, x, lambda x, a, b: (x - a) / (b - a),
                   lambda x, b, c: (c - x) / (c - b))


def loop_basis_derivs(fam, xi, x):
    return _pieces(fam, xi, x, lambda x, a, b: 1.0 / (b - a),
                   lambda x, b, c: -1.0 / (c - b))


def loop_dparam_values(fam, xi, x):
    """Per-hat knot derivatives ``(m, n_linear, Q)``."""
    t = fam.grid(xi)
    hats = list(_hat_range(fam))
    out = np.zeros((fam.n_nonlinear, len(hats), x.size))
    for i in range(fam.n_nonlinear):
        k = i + 1
        for col, j in enumerate(hats):
            g = np.zeros_like(x)
            if j > 0 and (up := _cell(t, j - 1, x)) is not None:
                a, b = t[j - 1], t[j]
                if k == j - 1:
                    g[up] += (x[up] - b) / (b - a) ** 2
                elif k == j:
                    g[up] += -(x[up] - a) / (b - a) ** 2
            if j < t.size - 1 and (dn := _cell(t, j, x)) is not None:
                b, c = t[j], t[j + 1]
                if k == j:
                    g[dn] += (c - x[dn]) / (c - b) ** 2
                elif k == j + 1:
                    g[dn] += (x[dn] - b) / (c - b) ** 2
            out[i, col] = g
    return out


# ---------------------------------------------------------------------------
# the per-point reference: the rule split at each point's knots, its nodes
# located one by one and summed per (point, cell)
# ---------------------------------------------------------------------------


def split_and_locate(problem, rule, fam, stack):
    """Per group of points whose splits have equally many panels: ``(rows,
    nodes, weights, fields, located)``, the rule split at each point's grid
    and the problem's coefficient breakpoints (``rule.split_rows``), the
    weighted fields on those nodes and the cell of each node
    (``fam._locate``)."""
    breaks, coefficient = fam.breakpoints(stack), tuple(problem.coefficient_breakpoints())
    rows = np.empty((len(stack), len(breaks) + len(coefficient)))
    rows[:, :len(breaks)], rows[:, len(breaks):] = np.transpose(breaks), coefficient
    return [(idx, x, w, _field_values(problem, x, w), fam._locate(stack[idx], x))
            for idx, x, w in rule.split_rows(rows)]


def _cell_sums(fam, located):
    """``(rise, fall, slope, per_cell)`` of located nodes, summed per
    (point, cell) over flat runs of a point's nodes."""
    t, x, at = located
    cells = fam.n_nonlinear + 1
    rise, fall = x - np.take(t, at), np.take(t, at + 1) - x
    bins = at.ravel()
    starts = np.flatnonzero(np.diff(bins, prepend=-1))
    width = np.diff(t[:, :-1], axis=1)
    slope = np.divide(1.0, width, out=np.zeros_like(width), where=width > 0.0)

    def per_cell(v, scale):
        sums = np.zeros(t.size)
        np.add.at(sums, bins[starts], np.add.reduceat(np.ravel(v), starts))
        sums = sums.reshape(t.shape)[:, :cells]
        return np.where(sums == 0.0, 0.0, sums * scale)

    return rise, fall, slope, per_cell


def located_products(fam, located, forms, values, slopes=None):
    """Galerkin matrices and load of located nodes, point by point."""
    N, cells = len(located[0]), fam.n_nonlinear + 1
    rise, fall, slope, per_cell = _cell_sums(fam, located)

    def on_hats(on_falling, on_rising):
        out = np.zeros((N, cells + 1))
        out[:, :-1] = on_falling
        out[:, 1:] += on_rising
        return out

    m, d, n = fam.n_nonlinear, int(fam.dirichlet), fam.n_linear
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


def located_knot_gradient(fam, located, w, weights, target):
    """The L2 knot gradient of located nodes, point by point."""
    t, _, at = located
    rise, fall, slope, per_cell = _cell_sums(fam, located)
    m, d = fam.n_nonlinear, int(fam.dirichlet)
    coef, slopes = np.zeros(t.shape), np.zeros(t.shape)
    coef[:, d:m + 2 - d], slopes[:, :m + 1] = w, slope
    u = (np.take(coef, at) * fall + np.take(coef, at + 1) * rise) * np.take(slopes, at)
    residual = weights * u - target
    diff = coef[:, :m + 1] - coef[:, 1:m + 2]
    with np.errstate(over="ignore"):
        square = slope * slope
    ending, starting = (per_cell(residual * p, diff * square) for p in (rise, fall))
    narrow = np.isinf(square)
    if narrow.any():
        scaled = residual * np.take(slopes, at)
        ending, starting = (np.where(narrow, per_cell(scaled * p, diff * slope), s)
                            for p, s in ((rise, ending), (fall, starting)))
    return ending[:, :-1] + starting[:, 1:]


def reference_system(problem, rule, fam, stack):
    """``(A, G, load)`` of every point of ``stack`` by the per-point path;
    G is A under the L2 energy."""
    N, n = len(stack), fam.n_linear
    A, G, load = np.empty((N, n, n)), np.empty((N, n, n)), np.empty((N, n))
    for idx, _, w, fields, located in split_and_locate(problem, rule, fam, stack):
        if problem.needs_h1:
            wK, ws, values, slopes = fields
            (A[idx], G[idx]), load[idx] = located_products(fam, located, [(ws, wK), (w, w)],
                                                           values, slopes)
        else:
            (A[idx],), load[idx] = located_products(fam, located, [(w, None)], fields)
            G[idx] = A[idx]
    return A, G, load


def reference_knot_gradient(problem, rule, fam, stack, w):
    """The L2 knot gradient ``(N, m)`` at every point of ``stack`` with one
    coefficient row of ``w`` each, by the per-point path."""
    g = np.empty(stack.shape)
    for idx, _, q, qf, located in split_and_locate(problem, rule, fam, stack):
        g[idx] = located_knot_gradient(fam, located, w[idx], q, qf)
    return g


def located_cells(fam, xi, x):
    """``(cells, order)``: one point's nodes ``x`` as ``fam._locate`` places
    them, laid out as :class:`~nonlinritz.variational.Cells`, each of the
    point's cells a distinct cell and the nodes outside the interval left
    out, and the order that takes ``x`` (or a weight per node) there."""
    _, _, at = fam._locate(xi, x)
    c = at[0]
    order = np.argsort(c, kind="stable")
    order = order[c[order] <= fam.n_nonlinear]
    grid = fam.grid(xi)[None]
    counts = np.bincount(c[order], minlength=fam.n_nonlinear + 1)
    cells = Cells(grid, grid[0, :-1], grid[0, 1:], x[order], None, counts,
                  np.arange(fam.n_nonlinear + 1)[None])
    return cells, order
