"""Assembly of the parameter-dependent linear systems.

For fixed nonlinear parameters ``xi`` the energy restricted to the linear
coefficients is the quadratic

    K(w, xi) = 0.5 * w.A(xi).w - w.load(xi),

with A(xi)_ij = a(phi_j, phi_i), load(xi)_j = ell(phi_j) and the Gram matrix
G(xi)_ij = (phi_j, phi_i)_U.  The assembled system owns the linear algebra at
its point, and decomposes only what is read, on first use.  The spectral
statistics every solvability and conditioning certificate needs come from
the eigenvalues of A (``numpy.linalg.eigvalsh``); under an H1 energy the
smallest eigenvalue of G costs one more.  The exact (minimum-norm) solve
w*(xi) = A(xi)^+ load(xi) is an LU solve wherever A has no numerical
kernel, shown by a Gershgorin bound or by the eigenvalues when they are
already computed, and the ``eigh`` pseudo-inverse on matrices with one.

Free-knot hats, whose knots are ordered, are assembled as finite elements:
each quadrature node lies in one cell of the knot grid, where two hats are
nonzero, so per-cell sums of the products of their pieces fill the three
diagonals of A and G (:meth:`~nonlinritz.basis.FreeKnotHats.element_products`),
O(Q) work per point besides filling the dense outputs.  Every other family
is assembled from dense products of its basis values, O(n^2 Q) per point.

An :class:`Evaluator` holds the discretisation (problem, rule, family);
a run, replay, check or grid oracle builds every system through one.  It
evaluates each point once (the split of the rule at its breakpoints, the
problem's fields and the family on those nodes), and the assembled system
keeps that evaluation, so the analytic parameter gradient at the same
point reads the same values instead of evaluating them again.  The
module-level :func:`assemble` is the one-shot entry point.

Assembly takes a stack of points; one point is the stack of one, so a run
and the replay of its states build every system through the same code.
A stack's matrices and loads carry its leading axis and are built by the
same products; every check, decomposition (numpy's ``eigvalsh``, ``eigh``
and ``solve`` act on a stack matrix by matrix) and choice of solve acts
per matrix, each bitwise as for that point alone, and a failed check
names the stack's first offending point.  Callers cut long stacks with
``Evaluator.slices``, which bounds the memory one call holds.
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
    "Evaluation",
    "Evaluator",
    "assemble",
    "quadratic_energy",
    "ConsistencyReport",
    "check_consistency",
]

_SYM_TOL = 1e-12
_KERNEL_TOL = 1e-10

#: float64 entries one stacked ``assemble`` of dense products may evaluate:
#: per point, its basis values, nodes and weights, ``n_linear + 2`` rows of
#: one entry per node.  The arrays held at once, the basis values the
#: system keeps and one temporary of their size, come to about twice this
#: (2.4 MB); so do those of the analytic gradient read from them.
_STACK_ELEMENTS = 150_000

#: float64 entries one stacked ``assemble`` of free-knot hats (or their knot
#: gradient) may hold at once (12 MB): per point, ``_ELEMENT_ROWS`` rows of
#: one entry per node and three ``n_linear x n_linear`` matrices (A, G and a
#: temporary).  The 2m finite-difference probes of 160 Dirichlet hats on 64
#: panels go in blocks of 16, those of 16 hats in one block.
_ELEMENT_STACK_ELEMENTS = 1_500_000
_ELEMENT_ROWS = 12


@dataclass(frozen=True)
class AssembledSystem:
    """Stiffness/Gram matrices and load vector at one parameter point.

    For a stack of points every array carries the stack's leading axis;
    ``eigvalsh``, ``spectrum``, ``kernel_cut`` and ``solution`` are then per
    matrix, and the statistics (``lambda_min`` ... ``phi_u2``) are floats
    for one point and ``(N,)`` arrays for a stack.  Each is computed on
    first use and cached, so a point that never asks for them (a
    finite-difference probe, a frozen grid point) never pays for a
    decomposition.  Indexing a stack gives one of its points (an int) or a
    part of it (a slice), sharing the decompositions computed so far.
    """

    xi: np.ndarray
    matrix: np.ndarray          # A(xi), symmetrised
    load: np.ndarray            # ell(phi(xi))
    gram: np.ndarray            # G(xi), symmetrised; the same array as A for L2
    evaluation: Evaluation | None = None  # what it was assembled from

    @cached_property
    def spectrum(self):
        """Ascending eigenvalues and orthonormal eigenvectors of A."""
        return np.linalg.eigh(self.matrix)

    @cached_property
    def eigvalsh(self) -> np.ndarray:
        """Ascending eigenvalues of A."""
        return np.linalg.eigvalsh(self.matrix)

    @property
    def lambda_min(self):
        return _value(self.eigvalsh[..., 0])

    @property
    def lambda_max(self):
        return _value(self.eigvalsh[..., -1])

    @cached_property
    def omega(self):
        """Smallest eigenvalue of G."""
        if self.gram is self.matrix:
            return self.lambda_min
        return _value(np.linalg.eigvalsh(self.gram)[..., 0])

    @property
    def phi_u2(self):
        """||phi(xi)||_{U,2} = sqrt(trace G)."""
        return _value(np.sqrt(self.gram.trace(axis1=-2, axis2=-1)))

    @property
    def kernel_cut(self):
        """Eigenvalues of A at or below this cut span its numerical kernel."""
        return _cut(self.eigvalsh)

    def __getitem__(self, i) -> AssembledSystem:
        """Point ``i`` of a stack, or the stack's part ``i`` (a slice).

        It shares its slices of the stack's arrays and of every
        decomposition the stack has cached (eigenvalues of A, ``omega``,
        exact solve), each bitwise that of the point assembled alone.
        """
        A = self.matrix[i]
        part = AssembledSystem(self.xi[i], A, self.load[i],
                               A if self.gram is self.matrix else self.gram[i])
        for name in ("eigvalsh", "omega", "solution"):
            if name in self.__dict__:
                part.__dict__[name] = _value(self.__dict__[name][i])
        return part

    @cached_property
    def solution(self) -> np.ndarray:
        """Minimum-norm solution A^+ load, with the kernel cut at ``kernel_cut``.

        Each matrix takes its path from itself alone: an LU solve if its
        Gershgorin bound (:func:`_gershgorin`) shows it regular and its
        eigenvalues are not cached, else its eigenvalues decide, a kernel
        taking the ``eigh`` pseudo-inverse and an empty one LU.  Raises
        :class:`SpdViolationError` on an eigenvalue below ``-kernel_cut``,
        naming the stack's first such point.
        """
        n = self.load.shape[-1]
        A, load = self.matrix.reshape(-1, n, n), self.load.reshape(-1, n)
        rest = np.ones(len(A), dtype=bool)
        if "eigvalsh" not in self.__dict__:
            g, L = _gershgorin(A)
            rest = g <= _KERNEL_TOL * np.maximum(L, 1.0)
        kernel = np.zeros(len(A), dtype=bool)
        if rest.any():  # the undecided rows, as a system of their own
            sub = self if rest.all() else AssembledSystem(
                np.atleast_2d(self.xi)[rest], A[rest], load[rest], A[rest])
            lowest, cut = sub.eigvalsh[..., 0], sub.kernel_cut
            _raise_first(lowest < -cut, sub.xi, SpdViolationError,
                         "stiffness matrix has a negative eigenvalue {!r}", lowest)
            kernel[rest] = lowest <= cut
        if not kernel.any():
            return np.linalg.solve(self.matrix, self.load[..., None])[..., 0]
        w = np.empty_like(load)
        w[~kernel] = np.linalg.solve(A[~kernel], load[~kernel, :, None])[..., 0]
        evals, Q = np.linalg.eigh(A[kernel])
        drop = evals <= _cut(evals)[:, None]
        inv = np.where(drop, 0.0, 1.0 / np.where(drop, 1.0, evals))
        w[kernel] = np.matvec(Q, inv * np.vecmat(load[kernel], Q))
        return w.reshape(self.load.shape)


def _value(a):
    """A float for one point's 0-d statistic, the ``(N,)`` array of a stack as it is."""
    return float(a) if a.ndim == 0 else a


def _cut(evals):
    """The kernel cut of each matrix of ascending eigenvalues ``evals``."""
    return _KERNEL_TOL * np.maximum(evals[..., -1], 1.0)


def _gershgorin(A):
    """Per matrix of the stack ``A``: ``(g, L)`` with g <= lambda_min, L >= lambda_max.

    g = min_i (2 a_ii - sum_j |a_ij|), at most every Gershgorin disc's left
    end, and L = max_i sum_j |a_ij| (Golub & Van Loan, Matrix Computations,
    7.2).  g > _KERNEL_TOL * max(L, 1) puts every eigenvalue above the
    kernel cut.  The rounding in g is about n eps L (Rump, BIT 46, 2006):
    8e-15 L at n = 34, four orders of magnitude below the cut.
    """
    sums = np.abs(A).sum(axis=-1)
    return (2.0 * np.diagonal(A, axis1=-2, axis2=-1) - sums).min(axis=-1), sums.max(axis=-1)


def _raise_first(flags, xi, error, message: str, *values, name_point: bool = True) -> None:
    """Raise ``error`` for the first flagged point, naming its coordinates.

    ``flags`` and each of ``values`` hold one entry per point of the stack
    ``xi`` (0-d for one point); ``message`` is formatted with that point's
    values, and its field ``{xi}``, if it has one, with the point's
    coordinates, which are otherwise appended unless ``name_point`` is
    false.
    """
    if np.count_nonzero(flags):  # far cheaper than .any() on the arrays of a step
        i = int(np.flatnonzero(flags)[0])
        point = np.atleast_2d(xi)[i].tolist()
        text = message.format(*(float(np.ravel(v)[i]) for v in values), xi=point)
        if name_point and "{xi}" not in message:
            text = f"{text} at xi = {point!r}"
        raise error(text)


def _t(M: np.ndarray) -> np.ndarray:
    """Transpose of each matrix of a stack."""
    return np.swapaxes(M, -1, -2)


def _finite(M: np.ndarray, label: str, xi) -> np.ndarray:
    """An exactly symmetric matrix (stack), checked for non-finite entries only.

    numpy's eigensolvers would return NaN eigenvalues for such a matrix
    instead of failing.  One test over the whole stack; the point is looked
    up on failure.
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


class Evaluation:
    """What one point, or each point of a stack, is evaluated to.

    ``xi`` is the checked point ``(d,)`` or stack ``(N, d)``.  ``groups``
    holds, per group of points evaluated together, ``(rows, weights,
    fields, cells)``: the rows of the stack ``(N, d)`` it holds
    (``slice(None)`` when every point shares one split of the rule), the
    split's weights, ``(Q,)`` shared or ``(len(rows), Q)``, the problem's
    weighted fields on its nodes (:func:`_field_values`) and the family's
    evaluation (``family.evaluate``) of those points on those nodes.
    """

    # plain classes: each frozen dataclass costs about 1 ms of import
    __slots__ = ("xi", "groups")

    def __init__(self, xi, groups):
        self.xi, self.groups = xi, groups


class Evaluator:
    """The discretisation of one problem, rule and family.

    It evaluates and assembles points and cuts stacks of them into blocks;
    a run, replay, check or grid oracle makes one.  When the family's
    breakpoints do not move with ``xi`` every point shares one split of
    the rule, whose nodes, weights and field values are computed on first
    use and kept, so that evaluator computes them once.
    """

    def __init__(self, problem, rule: QuadratureRule, family):
        self.problem, self.rule, self.family = problem, rule, family

    @cached_property
    def _shared(self):
        """The split shared by every point: nodes, weights and field values."""
        r = self.rule.split_at(tuple(self.problem.coefficient_breakpoints()))
        return r.nodes, r.weights, _field_values(self.problem, r.nodes, r.weights)

    def evaluate(self, xi) -> Evaluation:
        """The evaluation of one point ``(d,)`` or of a stack ``(N, d)``.

        A point is evaluated as the stack of one.  Points whose breakpoints
        move get their own split of the rule (bitwise ``split_at`` of that
        point), and points whose splits have equally many panels are
        evaluated together on ``(len(rows), Q)`` nodes.
        """
        prob, fam = self.problem, self.family
        xi = fam.require_param(xi)
        if prob.needs_h1 and not fam.vanishes_on_boundary:
            raise ConfigError(
                "the Dirichlet problem needs trial functions vanishing on the "
                "boundary; this family does not (use FreeKnotHats with "
                "dirichlet=True)"
            )
        stack = np.atleast_2d(xi)
        breaks = fam.breakpoints(stack)
        if not breaks:
            x, w, fields = self._shared
            return Evaluation(xi, [(slice(None), w, fields, fam.evaluate(stack, x))])
        coefficient = tuple(prob.coefficient_breakpoints())
        rows = np.empty((len(stack), len(breaks) + len(coefficient)))
        rows[:, :len(breaks)] = np.transpose(breaks)
        rows[:, len(breaks):] = coefficient
        return Evaluation(xi, [(idx, w, _field_values(prob, x, w), fam.evaluate(stack[idx], x))
                               for idx, x, w in self.rule.split_rows(rows)])

    def assemble(self, xi) -> AssembledSystem:
        """A(xi), load(xi), G(xi) with panels split at all breakpoints.

        ``xi`` is one point ``(d,)`` or a stack ``(N, d)``; a stack gives
        ``(N, n, n)`` matrices and ``(N, n)`` loads, each bitwise that of
        its point assembled alone.  A point is assembled as the stack of
        one, whose row it returns.  The system keeps the evaluation.
        """
        problem, family = self.problem, self.family
        ev = self.evaluate(xi)
        xi = ev.xi
        parts = [(idx, _products(problem, family, w, fields, cells))
                 for idx, w, fields, cells in ev.groups]
        bad, A, G, load = (_gather(len(np.atleast_2d(xi)), [(idx, p[k]) for idx, p in parts])
                           for k in range(4))
        del parts  # the unsymmetrised matrices go as they are replaced
        _raise_first(bad, xi, NumericalError, "basis evaluation produced non-finite values")
        # element-assembled hat systems are symmetric by construction
        fix = _finite if isinstance(family, FreeKnotHats) else _symmetrise
        A = fix(A, "stiffness matrix", xi)
        G = A if G is None else fix(G, "Gram matrix", xi)
        if xi.ndim == 1:  # the stack's one row, still decomposed only on first use
            row = A[0]
            A, G, load = row, (row if G is A else G[0]), load[0]
        return AssembledSystem(xi=xi, matrix=A, load=load, gram=G, evaluation=ev)

    def slices(self, points) -> list:
        """Slices cutting the stack ``points`` ``(N, d)`` into blocks for :meth:`assemble`.

        A block's points are counted on a bound on their nodes: the rule's
        panels plus one per breakpoint of the family and of the problem's
        coefficients, times the order.  Hats, assembled and differentiated
        cell by cell, fill ``_ELEMENT_STACK_ELEMENTS``; every other family,
        evaluated by dense products, fills ``_STACK_ELEMENTS``.  One point
        exceeding the budget still makes a block of its own.
        """
        rule, family = self.rule, self.family
        breaks = len(family.breakpoints(points[0])) + len(self.problem.coefficient_breakpoints())
        nodes = (rule.boundaries.size - 1 + breaks) * rule.order
        n = family.n_linear
        if isinstance(family, FreeKnotHats):
            step = _ELEMENT_STACK_ELEMENTS // (_ELEMENT_ROWS * nodes + 3 * n * n)
        else:
            step = _STACK_ELEMENTS // ((n + 2) * nodes)
        step = max(1, step)
        return [slice(b, b + step) for b in range(0, len(points), step)]


def assemble(problem, rule: QuadratureRule, family, xi) -> AssembledSystem:
    """The system at one point or stack ``xi``, assembled by a fresh :class:`Evaluator`."""
    return Evaluator(problem, rule, family).assemble(xi)


def _field_values(problem, x, w):
    """The problem's fields at nodes ``x``, times the weights ``w``.

    Under the L2 energy the weighted target ``w f``, which the load and the
    parameter gradient read; under the H1 energy the weighted coefficients
    the element sums read: ``(w K, w s, load values, load slopes)``, the
    lifting folded into the load (slopes None without boundary data).
    """
    if not problem.needs_h1:
        return w * problem.target.values(x)
    wK = w * problem.diffusivity.values(x)
    ws = w * problem.reaction.values(x)
    values, slopes = w * problem.source.values(x), None
    if problem.bc_lo != 0.0 or problem.bc_hi != 0.0:
        values = values - ws * problem.lifting.values(x)
        slopes = -wK * problem.lifting.derivs(x)
    return wK, ws, values, slopes


def _products(problem, family, w, fields, cells):
    """``(bad, A, G, load)`` of one group of an evaluation.

    The weights ``w`` are ``(Q,)``, shared by every point, or ``(N, Q)``,
    one row per point of the group.  ``bad`` flags the points whose basis
    values are not finite; A and G are not yet symmetrised, and G is None
    under the L2 energy, whose Gram matrix is A.  Hats are assembled cell
    by cell, every other family by dense products of its basis values
    (``assemble`` admits no other family under an H1 energy).
    """
    if isinstance(family, FreeKnotHats):
        return _element_products(problem, family, w, fields, cells)
    # weights broadcast against the basis axis
    vals = family.values_of(cells)
    A = (vals * w[..., None, :]) @ _t(vals)
    return _nonfinite(vals), A, None, np.matvec(vals, fields)


def _element_products(problem, family, w, fields, cells):
    """``_products`` of free-knot hats, from per-cell integrals.

    The hat pieces of finite knots on finite nodes are finite, so no point
    is flagged.
    """
    if not problem.needs_h1:
        (A,), load = family.element_products(cells, [(w, None)], fields)
        G = None
    else:
        wK, ws, values, slopes = fields
        (A, G), load = family.element_products(cells, [(ws, wK), (w, w)], values, slopes)
    return np.zeros(len(A), dtype=bool), A, G, load


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
    """Compares the system's exact solve with one shifted along the kernel of A.

    A system whose exact solve has shown its kernel empty (by the Gershgorin
    bound, or by eigenvalues it had cached) has nothing to shift along and
    takes no eigendecomposition.
    """
    w1 = system.solution
    if "eigvalsh" not in system.__dict__ or system.eigvalsh[0] > system.kernel_cut:
        return ConsistencyReport(kernel_dim=0, load_kernel_residual=0.0, realisation_gap=0.0)
    evals, Q = system.spectrum
    kernel = evals <= _cut(evals)  # vectors and cut from one decomposition
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
