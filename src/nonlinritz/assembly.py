"""Assembly of the parameter-dependent linear systems.

For fixed nonlinear parameters ``xi`` the energy restricted to the linear
coefficients is the quadratic

    K(w, xi) = 0.5 * w.A(xi).w - w.load(xi),

with A(xi)_ij = a(phi_j, phi_i), load(xi)_j = ell(phi_j) and the Gram matrix
G(xi)_ij = (phi_j, phi_i)_U.  The assembled system owns the linear algebra at
its point: one eigendecomposition of A, computed on first use, gives the
spectral statistics every solvability and conditioning certificate needs and
the exact (minimum-norm, pseudo-inverse) solve w*(xi) = A(xi)^+ load(xi).
For the L2 energy G is A itself; otherwise the smallest eigenvalue of G
costs one more eigenvalue-only decomposition, again only when asked for.

Free-knot hats, whose knots are ordered, are assembled as finite elements:
each quadrature node lies in one cell of the knot grid, where two hats are
nonzero, so per-cell sums of the products of their pieces fill the three
diagonals of A and G (:meth:`~nonlinritz.basis.FreeKnotHats.element_products`),
O(Q) work per point besides filling the dense outputs.  Every other family
is assembled from dense products of its basis values, O(n^2 Q) per point.

``assemble`` takes a stack of points; one point is the stack of one, so a
run and the replay of its states build every system through the same code.
When the family's breakpoints do not move with ``xi`` the stack shares one
set of quadrature nodes; otherwise each point gets its own split of the
rule, and points whose splits have equally many panels are evaluated
together on ``(N, Q)`` nodes.  A stack's matrices and loads carry its
leading axis and are built by the same products; every check, the
eigendecomposition (``numpy.linalg.eigh``, which decomposes a stack matrix
by matrix) and the minimum-norm solve act per matrix, each bitwise as for
that point alone, and a failed check names the stack's first offending
point.  Callers cut long stacks with :func:`stack_slices`, which bounds
the memory one call holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import FreeKnotHats
from .errors import ConfigError, NonFiniteValueError, NumericalError, SpdViolationError
from .variational import QuadratureRule

__all__ = [
    "AssembledSystem",
    "assemble",
    "quadratic_energy",
    "stack_slices",
    "quadrature_groups",
    "ConsistencyReport",
    "check_consistency",
]

_SYM_TOL = 1e-12
_KERNEL_TOL = 1e-10

#: float64 entries one stacked ``assemble`` of dense products may evaluate:
#: per point, its basis values, nodes and weights, ``n_linear + 2`` rows of
#: one entry per node.  The arrays held at once come to about twice this
#: (2.4 MB).
_STACK_ELEMENTS = 150_000

#: float64 entries one stacked ``assemble`` of free-knot hats may hold at
#: once (12 MB): per point, ``_ELEMENT_ROWS`` rows of one entry per
#: node and three ``n_linear x n_linear`` matrices (A, G and a
#: temporary).  The 2m finite-difference probes of 160 Dirichlet
#: hats on 64 panels go in blocks of 16, those of 16 hats in one block.
_ELEMENT_STACK_ELEMENTS = 1_500_000
_ELEMENT_ROWS = 12


@dataclass(frozen=True)
class AssembledSystem:
    """Stiffness/Gram matrices and load vector at one parameter point.

    For a stack of points every array carries the stack's leading axis;
    ``spectrum``, ``kernel_cut`` and ``solution`` are then per matrix, while
    the scalar statistics (``lambda_min`` ... ``phi_u2``) need one point.
    Spectra and the exact solve are computed on first use and cached, so a
    point that never asks for them (a finite-difference probe, a frozen
    grid point) never pays for a decomposition.
    """

    xi: np.ndarray
    matrix: np.ndarray          # A(xi), symmetrised
    load: np.ndarray            # ell(phi(xi))
    gram: np.ndarray            # G(xi), symmetrised; the same array as A for L2

    @cached_property
    def spectrum(self):
        """Ascending eigenvalues and orthonormal eigenvectors of A."""
        return np.linalg.eigh(self.matrix)

    @property
    def lambda_min(self) -> float:
        return float(self.spectrum[0][..., 0])

    @property
    def lambda_max(self) -> float:
        return float(self.spectrum[0][..., -1])

    @cached_property
    def omega(self) -> float:
        """Smallest eigenvalue of G."""
        if self.gram is self.matrix:
            return self.lambda_min
        return float(np.linalg.eigvalsh(self.gram)[..., 0])

    @property
    def phi_u2(self) -> float:
        """||phi(xi)||_{U,2} = sqrt(trace G)."""
        return float(np.sqrt(np.trace(self.gram, axis1=-2, axis2=-1)))

    @property
    def kernel_cut(self):
        """Eigenvalues of A at or below this cut span its numerical kernel."""
        return _KERNEL_TOL * np.maximum(self.spectrum[0][..., -1], 1.0)

    def rows(self, solve: bool = False) -> list:
        """The points of a stack as one-point systems, in stack order.

        Each shares its slices of the stack's arrays and holds its slice of
        the stack's eigendecompositions (``numpy.linalg.eigh`` and
        ``eigvalsh`` decompose a stack matrix by matrix) and, with
        ``solve``, of the stack's exact solve, so its spectrum, ``omega``
        and solution are bitwise those of the point assembled alone.
        """
        evals, vecs = self.spectrum
        omegas = None if self.gram is self.matrix else np.linalg.eigvalsh(self.gram)[:, 0]
        solutions = self.solution if solve else None
        out = []
        for i in range(len(self.xi)):
            A = self.matrix[i]
            row = AssembledSystem(self.xi[i], A, self.load[i],
                                  A if omegas is None else self.gram[i])
            row.__dict__["spectrum"] = (evals[i], vecs[i])
            if omegas is not None:
                row.__dict__["omega"] = float(omegas[i])
            if solutions is not None:
                row.__dict__["solution"] = solutions[i]
            out.append(row)
        return out

    @cached_property
    def solution(self) -> np.ndarray:
        """Minimum-norm solution A^+ load, with the kernel cut at ``kernel_cut``.

        Raises :class:`SpdViolationError` on an eigenvalue below ``-kernel_cut``.
        """
        evals, Q = self.spectrum
        cut = self.kernel_cut
        lowest = evals[..., 0]
        _raise_first(lowest < -cut, self.xi, SpdViolationError,
                     "stiffness matrix has a negative eigenvalue {!r}", lowest)
        kernel = evals <= cut[..., None]
        inv = np.where(kernel, 0.0, 1.0 / np.where(kernel, 1.0, evals))
        return np.matvec(Q, inv * np.vecmat(self.load, Q))


def _first(flags):
    """Index of the first flagged point of a stack (one point: a 0-d flag), or None."""
    return int(np.flatnonzero(flags)[0]) if flags.any() else None


def _at(xi, i: int) -> str:
    return f" at xi = {np.atleast_2d(xi)[i].tolist()!r}"


def _raise_first(flags, xi, error, message: str, *values) -> None:
    """Raise ``error`` for the first flagged point, naming its coordinates.

    ``flags`` and each of ``values`` hold one entry per point of the stack
    ``xi`` (0-d for one point); ``message`` is formatted with that point's
    values.
    """
    i = _first(flags)
    if i is not None:
        text = message.format(*(float(np.ravel(v)[i]) for v in values))
        raise error(text + _at(xi, i))


def _t(M: np.ndarray) -> np.ndarray:
    """Transpose of each matrix of a stack."""
    return np.swapaxes(M, -1, -2)


def _finite(M: np.ndarray, label: str, xi) -> np.ndarray:
    """An exactly symmetric matrix (stack), checked for non-finite entries only.

    numpy's eigh would return NaN eigenvalues for such a matrix instead of
    failing.  One test over the whole stack; the point is looked up on failure.
    """
    if not np.isfinite(M).all():
        _raise_first(~np.isfinite(M).all(axis=(-2, -1)), xi, NonFiniteValueError,
                     f"assembled {label} has non-finite entries")
    return M


def _symmetrise(M: np.ndarray, label: str, xi) -> np.ndarray:
    """The symmetric part of a matrix (stack) that is finite and symmetric to tolerance."""
    _finite(M, label, xi)
    Mt = _t(M)
    scale = np.max(np.abs(M), axis=(-2, -1))
    # in place: a stack of large matrices costs one temporary, not two
    skew = M - Mt
    skew = np.max(np.abs(skew, out=skew), axis=(-2, -1))
    _raise_first(skew > _SYM_TOL * scale, xi, NumericalError,
                 f"assembled {label} is asymmetric beyond tolerance: "
                 "max|M-M^T| = {!r} at scale {!r}", skew, scale)
    out = M + Mt
    out *= 0.5
    return out


def assemble(problem, rule: QuadratureRule, family, xi) -> AssembledSystem:
    """Assemble A(xi), load(xi), G(xi) with panels split at all breakpoints.

    ``xi`` is one point ``(d,)`` or a stack ``(N, d)``; a stack gives
    ``(N, n, n)`` matrices and ``(N, n)`` loads, each bitwise that of its
    point assembled alone.  A point is assembled as the stack of one, whose
    row it returns.
    """
    xi = family.require_param(xi)
    if problem.needs_h1 and not family.vanishes_on_boundary:
        raise ConfigError(
            "the Dirichlet problem needs trial functions vanishing on the "
            "boundary; this family does not (use FreeKnotHats with "
            "dirichlet=True)"
        )
    stack = np.atleast_2d(xi)
    parts = [(idx, _products(problem, family, stack[idx], x, w))
             for idx, x, w in quadrature_groups(problem, rule, family, stack)]
    bad, A, G, load = (_gather(len(stack), [(idx, p[k]) for idx, p in parts]) for k in range(4))
    del parts  # the unsymmetrised matrices go as they are replaced
    _raise_first(bad, stack, NumericalError, "basis evaluation produced non-finite values")
    # element-assembled hat systems are symmetric by construction
    fix = _finite if isinstance(family, FreeKnotHats) else _symmetrise
    A = fix(A, "stiffness matrix", stack)
    G = A if G is None else fix(G, "Gram matrix", stack)
    if xi.ndim == 1:  # the stack's one row, still decomposed only on first use
        row = A[0]
        A, G, load = row, (row if G is A else G[0]), load[0]
    return AssembledSystem(xi=xi, matrix=A, load=load, gram=G)


def quadrature_groups(problem, rule: QuadratureRule, family, xi) -> list:
    """The rule split at the breakpoints of each point of the stack ``xi`` ``(N, d)``.

    Returns ``(rows, nodes, weights)`` per group of points evaluated
    together.  When the family's breakpoints do not move with ``xi`` the
    whole stack shares one split (``rows`` selects every point, nodes and
    weights are ``(Q,)``); otherwise the groups of
    :meth:`~nonlinritz.variational.QuadratureRule.split_rows`, whose rows
    are bitwise ``split_at`` of each point.
    """
    breaks = family.breakpoints(xi)
    coefficient = tuple(problem.coefficient_breakpoints())
    if not breaks:
        r = rule.split_at(coefficient)
        return [(slice(None), r.nodes, r.weights)]
    rows = np.empty((len(xi), len(breaks) + len(coefficient)))
    rows[:, :len(breaks)] = np.transpose(breaks)
    rows[:, len(breaks):] = coefficient
    return rule.split_rows(rows)


def _products(problem, family, xi, x, w):
    """``(bad, A, G, load)`` of the stack ``xi`` on nodes ``x``, weights ``w``.

    ``x`` and ``w`` are ``(Q,)``, shared by every point, or ``(N, Q)``, one
    row per point of the stack.  ``bad`` flags the points whose basis
    values are not finite; A and G are not yet symmetrised, and G is None
    under the L2 energy, whose Gram matrix is A.  Hats are assembled cell
    by cell, every other family by dense products of its basis values
    (``assemble`` admits no other family under an H1 energy).
    """
    if isinstance(family, FreeKnotHats):
        return _element_products(problem, family, xi, x, w)
    # weights broadcast against the basis axis
    vals = family.basis_values(xi, x)
    A = (vals * w[..., None, :]) @ _t(vals)
    return _nonfinite(vals), A, None, np.matvec(vals, w * problem.target.values(x))


def _element_products(problem, family, xi, x, w):
    """``_products`` of free-knot hats, from per-cell integrals.

    The hat pieces of finite knots on finite nodes are finite, so no point
    is flagged.
    """
    bad = np.zeros(np.shape(xi)[:-1], dtype=bool)
    if not problem.needs_h1:
        (A,), load = family.element_products(xi, x, [(w, None)], w * problem.target.values(x))
        return bad, A, None, load
    wK = w * problem.diffusivity.values(x)
    ws = w * problem.reaction.values(x)
    values, slopes = w * problem.source.values(x), None
    if problem.bc_lo != 0.0 or problem.bc_hi != 0.0:
        values = values - ws * problem.lifting.values(x)
        slopes = -wK * problem.lifting.derivs(x)
    (A, G), load = family.element_products(xi, x, [(ws, wK), (w, w)], values, slopes)
    return bad, A, G, load


def _nonfinite(vals):
    """One flag per point: has it a non-finite basis value?"""
    return ~np.isfinite(vals).all(axis=(-2, -1))


def _gather(n: int, parts):
    """Rows computed group by group, ``(rows, array)`` each, in stack order."""
    first = parts[0][1]
    if first is None or len(parts) == 1:
        return first
    out = np.empty((n,) + first.shape[1:], dtype=first.dtype)
    for rows, part in parts:
        out[rows] = part
    return out


def stack_slices(problem, rule: QuadratureRule, family, points, dense: bool = False) -> list:
    """Slices cutting the stack ``points`` ``(N, d)`` into blocks for ``assemble``.

    A block's points are counted on a bound on their nodes: the rule's
    panels plus one per breakpoint of the family and of the problem's
    coefficients, times the order.  Hats, assembled cell by cell, fill
    ``_ELEMENT_STACK_ELEMENTS``; every other family, evaluated by dense
    products, fills ``_STACK_ELEMENTS``, and so do hats with ``dense``
    (analytic gradients evaluate dense basis values of every family).  One
    point exceeding the budget still makes a block of its own.
    """
    breaks = len(family.breakpoints(points[0])) + len(problem.coefficient_breakpoints())
    nodes = (rule.boundaries.size - 1 + breaks) * rule.order
    n = family.n_linear
    if isinstance(family, FreeKnotHats) and not dense:
        step = _ELEMENT_STACK_ELEMENTS // (_ELEMENT_ROWS * nodes + 3 * n * n)
    else:
        step = _STACK_ELEMENTS // ((n + 2) * nodes)
    step = max(1, step)
    return [slice(b, b + step) for b in range(0, len(points), step)]


def quadratic_energy(system: AssembledSystem, w):
    """K(w, xi) = 0.5 * w.A.w - w.load at the system's parameter point(s).

    ``w`` is one coefficient vector, or one per point of a stack.  One point
    gives a float, a stack an ``(N,)`` array.
    """
    w = np.asarray(w, dtype=float)
    K = np.vecdot(np.vecmat(0.5 * w, system.matrix), w) - np.vecdot(w, system.load)
    return float(K) if K.ndim == 0 else K


@dataclass(frozen=True)
class ConsistencyReport:
    """Evidence that A w = load is solvable even when A is singular.

    ``load_kernel_residual`` is the norm of the load's component in the
    kernel of A (zero in exact arithmetic: the load lies in the range), and
    ``realisation_gap`` is the U-norm distance between the realisations of
    two distinct least-squares solutions (also zero: the kernel does not
    change the realised function).
    """

    kernel_dim: int
    load_kernel_residual: float
    realisation_gap: float


def check_consistency(system: AssembledSystem) -> ConsistencyReport:
    """Compares the system's exact solve with one shifted along the kernel of A."""
    w1 = system.solution
    evals, Q = system.spectrum
    kernel = evals <= system.kernel_cut
    kdim = int(np.count_nonzero(kernel))
    if kdim:
        residual = float(np.linalg.norm(Q[:, kernel].T @ system.load))
        w2 = w1 + Q[:, kernel] @ np.ones(kdim)
    else:
        residual = 0.0
        w2 = w1
    dw = w2 - w1
    gap_sq = float(dw @ system.gram @ dw)
    return ConsistencyReport(
        kernel_dim=kdim,
        load_kernel_residual=residual,
        realisation_gap=float(np.sqrt(max(gap_sq, 0.0))),
    )
