"""Loop references for free-knot hats, one hat and one knot at a time.

Hat j rises on the cell ``(t_{j-1}, t_j]`` and falls on ``(t_j, t_{j+1}]``;
the first cell of positive width is closed on the left, so ``x_lo`` lies
in it even when knots sit on ``x_lo``.  A node on a knot thus belongs to
the cell on its left, where the knot's hat rises, and its slopes and knot
derivatives are that cell's.  Zero-width cells and nodes outside
``[x_lo, x_hi]`` give 0.
"""

import numpy as np


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
    t = fam._grid(xi)
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
    t = fam._grid(xi)
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
