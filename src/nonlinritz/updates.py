"""Update rules for both parameter blocks.

Linear block: the exact solve w*(xi) = A(xi)^+ load(xi) that the assembled
system computes from its eigendecomposition, a single steepest-descent sweep,
or frozen coefficients.  Both non-frozen rules satisfy the decrease
inequality

    K(w+, xi) <= K(w, xi) - 0.5 * ||grad_w K(w, xi)||^2 / lambda_max(A(xi)),

whose two sides :func:`decrease_check` reports.

Nonlinear block: a Bregman proximal (mirror-descent) step over the convex
admissible domain,

    xi+ = argmin_{eta in X}  gamma * <g, eta> + D_psi(eta; xi),

realised for quadratic mirror maps as a weighted projection of the
unconstrained point ``xi - gamma * D^{-1} g``.  The first-order optimality
condition  -gamma*g - grad psi(xi+) + grad psi(xi) in N_X(xi+)  is checked
by :func:`prox_optimality_residual` as a distance to the active normal cone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import AssembledSystem, Evaluator, _raise_first, quadratic_energy
from .basis import FreeKnotHats, IndicatorPair, NonlinearDomain
from .errors import (
    ConfigError,
    NonFiniteValueError,
    SpdViolationError,
)

__all__ = [
    "FullSolveCG",
    "SteepestDescent",
    "Frozen",
    "update_linear",
    "decrease_check",
    "EuclideanGeometry",
    "DiagonalGeometry",
    "prox_step",
    "gradient_mapping",
    "prox_optimality_residual",
    "EnergyGradients",
    "make_gradients",
    "central_differences",
    "probed_coordinates",
]


# ---------------------------------------------------------------------------
# linear updates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FullSolveCG:
    """Exact linear update: the assembled system's pseudo-inverse solve.

    The name and the config kind ``"full_cg"`` stay so that existing
    configs and scripts keep working; the solve is not conjugate gradients.
    """


@dataclass(frozen=True)
class SteepestDescent:
    """One exact line search along the residual direction."""


@dataclass(frozen=True)
class Frozen:
    """Keep the linear coefficients fixed (fully nonlinear approximation)."""


def update_linear(rule, system: AssembledSystem, w) -> np.ndarray:
    """Apply a linear update rule at the assembled parameter point.

    A stacked system takes one coefficient row per point and updates each
    row bitwise as that point alone; a failed check names the stack's first
    offending point.
    """
    w = np.asarray(w, dtype=float)
    if isinstance(rule, Frozen):
        return w.copy()
    if isinstance(rule, FullSolveCG):
        return system.solution.copy()
    if isinstance(rule, SteepestDescent):
        A, load = system.matrix, system.load
        r = load - np.matvec(A, w)
        nr = _norm(r)
        moves = ~(nr <= 1e-15 * (1.0 + _norm(load)))
        rAr = np.vecdot(np.vecmat(r, A), r)
        _raise_first(moves & (rAr <= 0.0), system.xi, SpdViolationError,
                     "steepest descent met non-positive curvature (r.A.r = {!r})", rAr,
                     name_point=False)
        beta = (nr * nr) / np.where(moves, rAr, 1.0)
        return np.where(moves[..., None], w + beta[..., None] * r, w)
    raise ConfigError(f"unknown linear update rule {rule!r}")


def _norm(v):
    """Euclidean norm of a vector, or of each row of a stack: bitwise
    ``numpy.linalg.norm`` of that row, which is ``sqrt(v @ v)``."""
    return np.sqrt(np.vecdot(v, v))


def decrease_check(system: AssembledSystem, K, K_plus, residual):
    """Achieved vs guaranteed energy drop of a linear update ``w -> w+``.

    Takes ``K = K(w)``, ``K_plus = K(w+)`` and ``residual = A w - load`` at
    the system's parameter point(s), which the caller has computed already.
    Returns ``(achieved, guaranteed)`` where ``achieved = K(w) - K(w+)`` and
    ``guaranteed = 0.5 * ||A w - load||^2 / lambda_max(A)``: floats for one
    point, ``(N,)`` arrays for a stack.
    """
    lam = system.lambda_max
    _raise_first(lam <= 0.0, system.xi, SpdViolationError,
                 "decrease bound undefined: lambda_max = {!r}", lam, name_point=False)
    guaranteed = 0.5 * np.vecdot(residual, residual) / lam
    return K - K_plus, (float(guaranteed) if guaranteed.ndim == 0 else guaranteed)


# ---------------------------------------------------------------------------
# Bregman geometry and the constrained mirror step
# ---------------------------------------------------------------------------


def _half_form(d, Dd):
    """0.5 <d, Dd>: a float for one point, an ``(N,)`` array for stacked rows.

    One point is a row too: a batched matmul reduces each row bitwise as the
    1-d ``d @ Dd`` does; ``np.sum`` and ``einsum`` reduce in another order
    and differ from it in the last bit.
    """
    h = 0.5 * np.matmul(d[..., None, :], Dd[..., :, None])[..., 0, 0]
    return float(h) if h.ndim == 0 else h


@dataclass(frozen=True)
class DiagonalGeometry:
    """psi = 0.5 xi.D.xi with positive diagonal D; mu = min(D).

    A scalar ``diag`` c means D = c*I in any dimension (c = 1 is
    :func:`EuclideanGeometry`); an array gives one weight per coordinate.
    """

    diag: float | np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        object.__setattr__(self, "diag", float(d) if d.ndim == 0 else d)
        if np.any(d <= 0.0) or not np.all(np.isfinite(d)):
            raise ConfigError("mirror-map diagonal must be positive and finite")
        object.__setattr__(self, "_weights", {})  # a scalar's weight vectors, by dimension

    @property
    def mu(self) -> float:
        return float(np.min(self.diag))

    def weights(self, dim: int) -> np.ndarray:
        """One weight per coordinate; a scalar diagonal's vector is made once
        per dimension, read-only, and every prox step shares it."""
        if isinstance(self.diag, float):
            if dim not in self._weights:
                self._weights[dim] = np.full(dim, self.diag)
                self._weights[dim].flags.writeable = False
            return self._weights[dim]
        if self.diag.size != dim:
            raise ConfigError(
                f"mirror-map diagonal has size {self.diag.size}, expected {dim}"
            )
        return self.diag

    def div(self, eta, xi):
        """D_psi(eta; xi) = 0.5 (eta - xi).D.(eta - xi), per row for stacked ``eta``."""
        d = np.asarray(eta, dtype=float) - np.asarray(xi, dtype=float)
        if isinstance(self.diag, float):  # c * 0.5|d|^2: no weight vector per call
            return self.diag * _half_form(d, d)
        return _half_form(d, self.weights(d.shape[-1]) * d)

    def grad_psi(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return self.diag * xi if isinstance(self.diag, float) else self.weights(xi.size) * xi


def EuclideanGeometry() -> DiagonalGeometry:
    """psi = 0.5 ||xi||^2; the prox is the Euclidean projected gradient step."""
    return DiagonalGeometry(1.0)


def prox_step(geom, domain: NonlinearDomain, xi, grad, gamma: float) -> np.ndarray:
    """One constrained mirror-descent step.

    With a quadratic mirror map the minimiser of
    ``gamma <g, eta> + D_psi(eta; xi)`` over the domain is the D-weighted
    projection of ``xi - gamma D^{-1} g``.  Unconstrained Euclidean steps
    pass through bitwise (the projection leaves interior points untouched).
    A stack of points ``(N, d)`` with one gradient row each, and one step
    size or one per row, steps every row bitwise as that point alone.
    """
    steps = np.asarray(gamma, dtype=float)
    if not (steps > 0.0).all():
        raise ConfigError(f"step size gamma must be positive, got {gamma!r}")
    xi = np.asarray(xi, dtype=float)
    g = np.asarray(grad, dtype=float)
    if not np.isfinite(g).all():
        raise NonFiniteValueError("non-finite energy gradient in prox step")
    d = geom.weights(xi.shape[-1])
    return domain.project(xi - steps[..., None] * (g / d), weights=d)


def gradient_mapping(xi, xi_plus, gamma: float) -> np.ndarray:
    """G = (xi - xi+) / gamma; equals the gradient itself for interior steps."""
    return (np.asarray(xi, dtype=float) - np.asarray(xi_plus, dtype=float)) / gamma


def prox_optimality_residual(
    geom, domain: NonlinearDomain, xi, grad, gamma: float, xi_plus
) -> float:
    """Distance of -gamma*g - (grad psi(xi+) - grad psi(xi)) to the normal cone.

    Zero (up to roundoff) certifies that ``xi_plus`` satisfies the prox
    optimality condition; constraints within ``1e-9`` of the domain's
    scale of equality at ``xi_plus`` count as active
    (:meth:`~nonlinritz.basis.NonlinearDomain.normal_cone_distance`).
    """
    xi = np.asarray(xi, dtype=float)
    xi_plus = np.asarray(xi_plus, dtype=float)
    g = np.asarray(grad, dtype=float)
    v = -gamma * g - (geom.grad_psi(xi_plus) - geom.grad_psi(xi))
    scale = 1.0 + float(np.max(np.abs(domain.upper - domain.lower)))
    return domain.normal_cone_distance(xi_plus, v, atol=1e-9 * scale)


# ---------------------------------------------------------------------------
# energy gradient oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyGradients:
    """Gradients of K(w, xi) in the nonlinear block, by one of three routes,
    which :func:`make_gradients` picks.

    * ``analytic``: under the L2 energy, differentiate under the integral:
      ``d_i K = (u - f, d_i u)`` with ``u = w . phi(xi)`` and ``d_i u`` the
      family's contracted parameter derivative (hats: sums per point and
      cell over the evaluation's cells; any other family: ``dparam_values``
      of the group's points, nodes and basis values), both read from the
      evaluation of
      the point, and the weighted target ``f`` from its field values: the
      evaluation a system kept from its assembly, or a fresh one of points
      never assembled.
    * ``closed_form``: hand-derived formulas; available for the indicator
      pair under the L2 energy, where the basis itself is not
      differentiable but the energy is.
    * ``fd``: central finite differences of the assembled energy; the only
      route under an H1 energy.  The ``2m`` probes ``xi +- h e_i`` of every
      point are one stack, assembled in the evaluator's blocks; the probes
      of hats share all but two cells each, which a block integrates once.

    :meth:`grad_xi` takes one point or a stack of points with one
    coefficient vector each; every route evaluates a stack, and one point
    is the stack of one.  ``evaluator`` holds the discretisation: the run,
    replay or check that built the oracle assembles every system through
    it, so the field values on a node set shared by every point are
    computed once.
    """

    evaluator: Evaluator
    mode: str
    fd_step: float = 1e-6

    def grad_xi(self, w, at) -> np.ndarray:
        """grad_xi K(w, xi) at one point ``(d,)``, or at each row of a stack.

        ``at`` is the point or stack ``xi``, or the system assembled there,
        whose kept evaluation the analytic route reads.  A stack ``(N, d)``
        takes one coefficient row per point ``(N, n)`` and gives ``(N, d)``,
        each row bitwise the gradient of that point alone.
        """
        if isinstance(at, AssembledSystem):
            xi, evaluation = at.xi, at.evaluation
        else:
            xi, evaluation = self.evaluator.family.require_param(at), None
        points = np.atleast_2d(xi)
        w = np.asarray(w, dtype=float).reshape(len(points), -1)
        if self.mode == "analytic":
            if evaluation is None:
                evaluation = self.evaluator.evaluate(points)
            g = self._grad_xi_analytic(w, evaluation)
        elif self.mode == "closed_form":
            g = self._grad_xi_indicator(w, points)
        elif self.mode == "fd":
            g = self._grad_xi_fd(w, points)
        else:
            raise ConfigError(f"unknown gradient mode {self.mode!r}")
        return g[0] if xi.ndim == 1 else g

    # -- analytic: d_i K = (u, d_i u) - (f, d_i u) under the L2 energy -------

    def _grad_xi_analytic(self, w, evaluation):
        """One pass per group of the evaluation's splits; hats sum by cell."""
        fam = self.evaluator.family
        g = np.empty((len(w), fam.n_nonlinear))
        for idx, x, q, qf, values in evaluation.groups:
            if isinstance(fam, FreeKnotHats):
                g[idx] = fam.knot_gradient(values, w[idx], q, qf)
                continue
            u = np.vecmat(w[idx], values)
            du = fam.dparam_values(np.atleast_2d(evaluation.xi)[idx], x, values, w[idx])
            g[idx] = np.matvec(du, q * u) - np.matvec(du, qf)
        return g

    # -- closed form for the indicator pair under the L2 energy ------------

    def _grad_xi_indicator(self, w, xi):
        a, b, c = np.ascontiguousarray(xi.T)
        w1, w2 = np.ascontiguousarray(w.T)
        f = self.evaluator.problem.target
        fa, fb, fc = (f.values(t) for t in (a, b, c))
        return np.stack(
            [
                -0.5 * w1 * w1 + w1 * fa,
                0.5 * (w1 * w1 - w2 * w2) + (w2 - w1) * fb,
                0.5 * w2 * w2 - w2 * fc,
            ],
            axis=-1,
        )

    # -- central differences of the assembled energy -----------------------

    def _grad_xi_fd(self, w, xi):
        ev = self.evaluator
        return central_differences(
            lambda probes, owner: quadratic_energy(ev.assemble(probes), w[owner]),
            ev, xi, self.fd_step)


def probed_coordinates(domain: NonlinearDomain, h: float) -> np.ndarray:
    """Mask of the coordinates central differences of step ``h`` probe: those
    at least two steps wide.  Any other coordinate cannot take both probes."""
    return domain.upper - domain.lower >= 2.0 * h


def central_differences(energy, evaluator: Evaluator, xi, h: float) -> np.ndarray:
    """``(E(xi + h e_i) - E(xi - h e_i)) / 2h`` for every probed coordinate
    ``i`` of the family's domain (:func:`probed_coordinates`), 0 for the
    others, which cost no probe.

    ``xi`` is one point ``(d,)`` or a stack ``(N, d)``, which gives
    ``(N, d)``.  ``energy(probes, owner)`` maps a stack of probes to one
    value each; ``owner`` holds the index of each probe's point in the
    stack.  Every point's probes ``xi + h e_i, xi - h e_i`` follow in the
    order of the probed coordinates ``i``, point after point, all in the
    blocks of ``evaluator.slices``; each block's probes are formed when its
    turn comes, so one block of probes is alive at a time.
    """
    points = np.atleast_2d(xi)
    probed = np.flatnonzero(probed_coordinates(evaluator.family.domain, h))
    (N, d), m = points.shape, probed.size
    if m == 0:
        return np.zeros(np.shape(xi))
    e = h * np.eye(d)[probed]
    # probe i belongs to point i // 2m, moves probed coordinate (i // 2) % m
    # and steps up for even i, down for odd i
    first = np.broadcast_to(points[0] + e[0], (2 * m * N, d))
    K = []
    for block in evaluator.slices(first):
        i = np.arange(*block.indices(2 * m * N))
        owner, step = i // (2 * m), e[(i // 2) % m]
        up = (i % 2 == 0)[:, None]
        K.append(energy(np.where(up, points[owner] + step, points[owner] - step), owner))
    K = np.concatenate(K)
    g = np.zeros((N, d))
    g[:, probed] = ((K[0::2] - K[1::2]) / (2.0 * h)).reshape(N, m)
    return g[0] if np.ndim(xi) == 1 else g


def make_gradients(problem, rule, family, mode: str = "auto", fd_step: float = 1e-6) -> EnergyGradients:
    """Build a gradient oracle for ``mode`` ``"auto"`` or ``"fd"``.

    This is the one place where the route and ``fd_step`` are chosen:
    ``run``, ``replay`` and ``check`` each build one oracle, and everything
    else that differentiates in ``xi`` takes it.

    The route is ``fd`` when asked for, and always under an H1 energy (no
    family provides spatial derivatives of its parameter derivatives);
    otherwise, under the L2 energy, ``closed_form`` for the indicator pair,
    whose parameter derivatives are Dirac masses, and ``analytic`` for
    every other family.
    """
    if mode not in ("auto", "fd"):
        raise ConfigError(f"unknown gradient mode {mode!r}; options: ['auto', 'fd']")
    if mode == "fd" or problem.needs_h1:
        route = "fd"
    elif isinstance(family, IndicatorPair):
        route = "closed_form"
    else:
        route = "analytic"
    if not fd_step > 0.0:
        raise ConfigError("fd_step must be positive")
    return EnergyGradients(Evaluator(problem, rule, family), route, fd_step)
