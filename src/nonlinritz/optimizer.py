"""Alternating minimisation driver and its rate constants.

One outer iteration performs a mirror-descent step on the nonlinear
parameters followed by a linear update at the new point:

    xi_{k+1} = prox(xi_k, grad_xi K(w_k, xi_k), gamma_k)
    w_{k+1}  = UpdateLinear(w_k, xi_{k+1})

with best-iterate tracking, two early-stopping triggers (parameter
stabilisation and energy plateau) and a final exact linear solve at the
best parameters.  Each visited point is evaluated and assembled once: the
basis and field values of its evaluation give its system and then the
parameter gradient of the step that leaves it, and one eigendecomposition
of its system serves the linear update, the decrease check, the spectral
statistics and the reduced energy.  The residual ``A w_k - load`` and the
energy ``K(w_{k+1})`` of a step are computed once, and an exact solve's
energy is its reduced energy.  Every iterate keeps
the quantities the convergence certificates consume: gradient-mapping and
linear-gradient norms, step sizes, achieved/guaranteed energy drops, and
spectral statistics.  A run stopped by parameter stabilisation also keeps
the exact-solve residual ``||A A^+ load - load||`` of the last system it
assembled, at the stopped point.

:func:`replay` rebuilds that record from the states ``(xi_k, w_k)`` a run
visited, without walking them one step at a time: once written, the
states no longer depend on each other, so they are evaluated and assembled
as stacks, each stack's gradients read from its evaluation, and every
transition and the stopping rule are checked bitwise.  ``run`` and
``replay`` share one record builder.

The reduced (variable-projection) energy eliminates the linear block
exactly:  Kbar(xi) = K(w*(xi), xi) = -0.5 * load(xi) . w*(xi).  Its
gradient needs no derivative of w*(xi): grad Kbar(xi) =
grad_xi K(w, xi) evaluated at w = w*(xi).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Union

import numpy as np

from .assembly import AssembledSystem, _raise_first, assemble, quadratic_energy
from .errors import ConfigError, NumericalError
from .updates import (
    Frozen,
    decrease_check,
    gradient_mapping,
    make_gradients,
    probed_coordinates,
    prox_step,
    update_linear,
)

__all__ = [
    "hoelder_to_lipschitz",
    "estimate_lipschitz_L",
    "reduced_energy",
    "reduced_gradient",
    "ConstantGamma",
    "LipschitzAdaptive",
    "StoppingCriteria",
    "IterateRecord",
    "RunRecord",
    "run",
    "replay",
]


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------


def _hoelder_exponent(nu: float) -> float:
    """``nu``, refused unless it lies in (0, 1], the range of a Hoelder exponent."""
    if not 0.0 < nu <= 1.0:
        raise ConfigError(f"nu must lie in (0, 1], got {nu!r}")
    return nu


def hoelder_to_lipschitz(L: float, nu: float, eps: float) -> float:
    """Lipschitz surrogate of a nu-Hoelder constant at slack eps.

    Returns ``((1/(2 eps)) * (1-nu)/(1+nu)) ** ((1-nu)/(1+nu)) * L ** (2/(1+nu))``;
    for ``nu = 1`` the slack is unnecessary and the constant passes through.
    """
    _hoelder_exponent(nu)
    if L < 0.0:
        raise ConfigError(f"Hoelder constant must be nonnegative, got {L!r}")
    if nu == 1.0:
        return float(L)
    if not eps > 0.0:
        raise ConfigError("eps must be positive when nu < 1")
    p = (1.0 - nu) / (1.0 + nu)
    return float((p / (2.0 * eps)) ** p * L ** (2.0 / (1.0 + nu)))


def estimate_lipschitz_L(grads, w, n_pairs: int, seed: int, nu: float = 1.0) -> float:
    """Sampled Hoelder constant of xi -> grad_xi K(w, xi), safety factor 2.

    ``grads`` is the run's gradient oracle, from
    :func:`~nonlinritz.updates.make_gradients`.
    Maximum of ``||g(xi) - g(eta)|| / ||xi - eta||^nu`` over ``n_pairs``
    feasible pairs, doubled.  Returns 0 for an energy constant in xi.
    Under finite-difference gradients the pairs come from the domain with
    every probed coordinate shrunk by the oracle's ``fd_step``, so that
    every difference probe stays admissible.
    """
    if n_pairs < 1:
        raise ConfigError("estimate_lipschitz_L needs at least one pair")
    _hoelder_exponent(nu)
    domain = grads.evaluator.family.domain
    if grads.mode == "fd":
        h = grads.fd_step
        domain = domain.shrink(np.where(probed_coordinates(domain, h), h, 0.0))
    rng = np.random.default_rng(seed)
    points, dists = [], []
    tries = 0
    while len(dists) < n_pairs and tries < 50 * n_pairs:
        tries += 1
        xi = domain.sample(rng)
        eta = domain.sample(rng)
        d = float(np.linalg.norm(xi - eta))
        if d <= 0.0:
            continue
        points += [xi, eta]
        dists.append(d)
    if len(dists) < n_pairs:
        raise NumericalError("could not sample enough distinct parameter pairs")
    # the points are evaluated, never assembled, in the oracle's blocks;
    # each gradient is bitwise that point's alone
    w = np.asarray(w, dtype=float)
    points = np.stack(points)
    g = np.empty(points.shape)
    for block in grads.blocks(points):
        g[block] = grads.grad_xi(np.broadcast_to(w, (len(points[block]), w.size)), points[block])
    best = 0.0
    for i, d in enumerate(dists):
        diff = float(np.linalg.norm(g[2 * i] - g[2 * i + 1]))
        best = max(best, diff / d ** nu)
    return 2.0 * best


# ---------------------------------------------------------------------------
# reduced (variable projection) energy
# ---------------------------------------------------------------------------


def _reduced(system: AssembledSystem, K_star=None):
    """``(Kbar(xi), w_star)`` from an assembled system's exact solve.

    The value is computed both as the quadratic form ``-0.5 load . w*`` and
    as ``K(w*, xi)``, unless the caller passes that value as ``K_star``;
    disagreement beyond 1e-10 signals a failed solve.  On a stack both are
    per point, and the first disagreeing point is named.
    """
    w_star = system.solution
    direct = quadratic_energy(system, w_star) if K_star is None else K_star
    form = -0.5 * np.vecdot(system.load, w_star)
    _raise_first(
        np.abs(direct - form) > 1e-10 * (1.0 + np.abs(direct)), system.xi, NumericalError,
        "reduced energy values disagree: K(w*) = {!r} vs quadratic form {!r}; the "
        "inner solve is not accurate enough", direct, form,
    )
    return direct, w_star


def reduced_energy(problem, rule, family, xi):
    """Exactly eliminate the linear block: returns ``(Kbar(xi), w_star)``.

    A stack of points ``(N, d)`` gives ``(N,)`` energies and ``(N, n)``
    coefficients; callers cut long stacks with ``Evaluator.slices``.
    """
    return _reduced(assemble(problem, rule, family, xi))


def reduced_gradient(grads, xi):
    """grad Kbar(xi) via the envelope identity (no derivative of w*), from the
    gradient oracle ``grads``: ``grads.grad_xi`` at ``w = w*(xi)``, read
    from the system the oracle assembled at ``xi``.

    A stack of points gives one gradient per point.
    """
    system = grads.evaluator.assemble(xi)
    return grads.grad_xi(_reduced(system)[1], system)


# ---------------------------------------------------------------------------
# schedules and stopping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantGamma:
    gamma: float

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise ConfigError(f"gamma must be positive, got {self.gamma!r}")


@dataclass(frozen=True)
class LipschitzAdaptive:
    """gamma_k = zeta * mu / L_eff with L_eff the Lipschitz surrogate.

    ``lipschitz`` is either a number or the string ``"estimate"``, in which
    case the constant is estimated once (post initial solve) from sampled
    gradient pairs with safety factor 2 and a fixed seed.
    """

    zeta: float
    lipschitz: Union[float, str] = "estimate"
    nu: float = 1.0
    eps_holder: float = 0.0
    n_pairs: int = 20
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.zeta < 2.0:
            raise ConfigError(f"zeta must lie in (0, 2), got {self.zeta!r}")
        if isinstance(self.lipschitz, str):
            if self.lipschitz != "estimate":
                raise ConfigError(
                    f"lipschitz must be a number or 'estimate', got {self.lipschitz!r}"
                )
        elif not self.lipschitz > 0.0:
            raise ConfigError("a numeric lipschitz constant must be positive")
        if _hoelder_exponent(self.nu) < 1.0 and not self.eps_holder > 0.0:
            raise ConfigError(f"eps_holder must be positive when nu < 1, got {self.eps_holder!r}")
        if self.n_pairs < 1:
            raise ConfigError(f"n_pairs must be at least 1, got {self.n_pairs!r}")


@dataclass(frozen=True)
class StoppingCriteria:
    """Stop at parameter stabilisation or energy plateau; 0 disables a trigger
    short of an exactly zero step/plateau."""

    max_epochs: int
    eps_xi: float = 0.0
    eps_energy: float = 0.0
    relative_energy: bool = False

    def __post_init__(self):
        if self.max_epochs < 0:
            raise ConfigError("max_epochs must be nonnegative")
        if self.eps_xi < 0.0 or self.eps_energy < 0.0:
            raise ConfigError("stopping tolerances must be nonnegative")


# ---------------------------------------------------------------------------
# run records
# ---------------------------------------------------------------------------


@dataclass
class IterateRecord:
    """State at iterate k plus the transition data k -> k+1.

    State: parameters ``xi``, coefficients ``w``, energy ``K``, reduced
    energy and the spectral statistics of the assembled system.  Transition
    fields (from ``gamma`` on) are None on the final iterate.
    """

    k: int
    xi: np.ndarray
    w: np.ndarray
    K: float
    K_reduced: float
    lambda_max: float
    omega: float
    phi_u2: float
    delta_star: Optional[float] = None
    gamma: Optional[float] = None
    lipschitz_L: Optional[float] = None
    grad_map_norm: Optional[float] = None
    step_norm: Optional[float] = None
    grad_w_post_norm: Optional[float] = None
    decrease_achieved: Optional[float] = None
    decrease_guaranteed: Optional[float] = None


@dataclass
class RunRecord:
    """Iterates, best and final states, and run-level constants.

    ``stop_residual`` is ``||A(xi) A(xi)^+ load(xi) - load(xi)||`` at the
    stopped point, from the system the run assembled there (0 for frozen
    coefficients); it is None unless the run ended by parameter
    stabilisation.  ``linear_rule`` is the run's linear update rule, a
    :class:`FullSolveCG`, :class:`SteepestDescent` or :class:`Frozen`, and
    ``schedule`` its step rule, a :class:`ConstantGamma` or
    :class:`LipschitzAdaptive`; ``hoelder_L`` is the Hoelder constant that
    rule resolved (estimated or given), None for a constant step.
    """

    iterates: List[IterateRecord]
    termination: str
    best_xi: np.ndarray
    best_w: np.ndarray
    best_K: float
    final_K: float
    mu: float
    linear_rule: object
    schedule: object
    initial_decrease: Optional[tuple] = None
    hoelder_L: Optional[float] = None
    stop_residual: Optional[float] = None

    @property
    def frozen(self) -> bool:
        return isinstance(self.linear_rule, Frozen)

    @property
    def n_steps(self) -> int:
        return len(self.iterates) - 1


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def _check_assumption1(system: AssembledSystem, omega_min, frozen: bool):
    system.lambda_max  # recorded anyway; read first, the exact solve needs no Gershgorin test
    if frozen or omega_min is None:
        return
    if system.omega < omega_min:
        raise NumericalError(
            "uniform solvability violated at xi = "
            f"{system.xi.tolist()}: omega = {system.omega!r} < omega_min = "
            f"{omega_min!r}; shrink the domain or raise the gap"
        )


def _start(family, linear_rule, xi0, w0):
    """The checked start ``xi0`` and the coefficients before the initial update."""
    xi = family.require_param(xi0)
    if w0 is None:
        if isinstance(linear_rule, Frozen):
            raise ConfigError("the frozen rule needs explicit initial coefficients")
        return xi, np.zeros(family.n_linear)
    w = np.asarray(w0, dtype=float)
    if w.shape != (family.n_linear,):
        raise ConfigError(
            f"expected {family.n_linear} linear coefficients, got {w.shape}"
        )
    return xi, w


class _Recorder:
    """The bookkeeping of a run: iterate records, best state, stopping rule.

    Starts from the first state ``(system.xi, w)``, reached from ``w_init``
    by the initial linear update, and fixes the step size.  It is then fed
    the visited states in order, each with its assembled system: by
    :func:`run` as it walks them, by :func:`replay` from a run's written
    states.  :meth:`finish` adds the final exact solve at the best state.
    """

    def __init__(self, linear_rule, geometry, schedule, stopping, grads, delta_star_fn,
                 system, w_init, w):
        self.linear_rule, self.schedule = linear_rule, schedule
        self.stopping, self.mu = stopping, geometry.mu
        self.frozen = isinstance(linear_rule, Frozen)
        self.K = quadratic_energy(system, w)
        self.initial_decrease = None if self.frozen else decrease_check(
            system, quadratic_energy(system, w_init), self.K, system.matrix @ w_init - system.load)
        if isinstance(schedule, ConstantGamma):
            self.L_eff, self.L_raw, self.gamma = None, None, schedule.gamma
        else:
            L = schedule.lipschitz
            if L == "estimate":
                L = estimate_lipschitz_L(grads, w, schedule.n_pairs, schedule.seed,
                                         nu=schedule.nu)
            # L_raw is the Hoelder constant, L_eff its Lipschitz surrogate
            self.L_raw = float(L)
            self.L_eff = hoelder_to_lipschitz(self.L_raw, schedule.nu, schedule.eps_holder)
            if self.L_eff <= 0.0:
                raise NumericalError(
                    "Lipschitz surrogate is zero (energy constant along the "
                    "nonlinear block); use ConstantGamma instead"
                )
            self.gamma = schedule.zeta * self.mu / self.L_eff
        self.delta_star_fn = delta_star_fn
        self.system, self.w = system, w
        self.records = [self._state(0, system, w, self.K)]
        self.best = (system, w.copy(), self.K)

    def _state(self, k, system, w, K):
        """The record of the state ``(system.xi, w)`` of energy ``K``; an exact
        solve (``w`` bitwise ``w*``) gives its energy to the reduced one."""
        return IterateRecord(
            k=k,
            xi=system.xi.copy(),
            w=w.copy(),
            K=K,
            K_reduced=K if self.frozen else _reduced(
                system, K if _same(w, system.solution) else None)[0],
            lambda_max=system.lambda_max,
            omega=system.omega,
            phi_u2=system.phi_u2,
            delta_star=(None if self.delta_star_fn is None
                        else float(self.delta_star_fn(system.xi))),
        )

    def step(self, system, w_next) -> Optional[str]:
        """Record the step to the state ``(system.xi, w_next)``.

        Returns the stopping trigger this step fires, or None.
        """
        xi, xi_next, w, gamma = self.system.xi, system.xi, self.w, self.gamma
        cur = self.records[-1]
        cur.gamma = gamma
        cur.lipschitz_L = self.L_eff
        cur.grad_map_norm = float(np.linalg.norm(gradient_mapping(xi, xi_next, gamma)))
        cur.step_norm = float(np.linalg.norm(xi_next - xi))
        residual = system.matrix @ w - system.load
        cur.grad_w_post_norm = float(np.linalg.norm(residual))
        K_next = quadratic_energy(system, w_next)
        if not self.frozen:
            cur.decrease_achieved, cur.decrease_guaranteed = decrease_check(
                system, quadratic_energy(system, w), K_next, residual)
        k = len(self.records)
        self.records.append(self._state(k, system, w_next, K_next))
        if K_next < self.best[2]:
            self.best = (system, w_next.copy(), K_next)
        stop_xi = cur.step_norm <= self.stopping.eps_xi
        plateau_scale = (1.0 + abs(self.K)) if self.stopping.relative_energy else 1.0
        stop_K = abs(K_next - self.K) <= self.stopping.eps_energy * plateau_scale
        self.system, self.w, self.K = system, w_next, K_next
        if stop_xi:
            return "xi_stabilised"
        if stop_K:
            return "energy_plateau"
        return None

    def finish(self, termination: str) -> RunRecord:
        """The run record, with the final exact solve at the best parameters."""
        best_system, best_w, best_K = self.best
        final_w = best_w if self.frozen else best_system.solution
        stop_residual = None
        if termination == "xi_stabilised":
            system = self.system
            stop_residual = 0.0 if self.frozen else float(
                np.linalg.norm(system.matrix @ system.solution - system.load)
            )
        return RunRecord(
            iterates=self.records,
            termination=termination,
            best_xi=best_system.xi.copy(),
            best_w=best_w,
            best_K=best_K,
            final_K=quadratic_energy(best_system, final_w),
            mu=self.mu,
            linear_rule=self.linear_rule,
            schedule=self.schedule,
            initial_decrease=self.initial_decrease,
            hoelder_L=self.L_raw,
            stop_residual=stop_residual,
        )


def run(
    problem,
    rule,
    family,
    linear_rule,
    geometry,
    schedule,
    stopping: StoppingCriteria,
    xi0,
    w0=None,
    gradient_mode: str = "auto",
    fd_step: float = 1e-6,
    omega_min: Optional[float] = None,
    delta_star_fn: Optional[Callable[[np.ndarray], float]] = None,
) -> RunRecord:
    """Alternating minimisation from ``(w0, xi0)``.

    The initial linear update runs before the first recorded iterate, so
    iterate 0 already carries the updated coefficients.  ``delta_star_fn``
    (when an oracle is available) is evaluated at every visited parameter
    point and stored alongside.
    """
    grads = make_gradients(problem, rule, family, mode=gradient_mode, fd_step=fd_step)
    frozen = isinstance(linear_rule, Frozen)
    xi, w_init = _start(family, linear_rule, xi0, w0)
    system = grads.evaluator.assemble(xi)
    _check_assumption1(system, omega_min, frozen)
    w = update_linear(linear_rule, system, w_init)
    recorder = _Recorder(linear_rule, geometry, schedule, stopping, grads, delta_star_fn,
                         system, w_init, w)

    for _ in range(stopping.max_epochs):
        xi = prox_step(geometry, family.domain, xi, grads.grad_xi(w, system), recorder.gamma)
        system = grads.evaluator.assemble(xi)
        _check_assumption1(system, omega_min, frozen)
        w = update_linear(linear_rule, system, w)
        termination = recorder.step(system, w)
        if termination is not None:
            return recorder.finish(termination)
    return recorder.finish("max_epochs")


def _same(a, b) -> bool:
    """Bitwise equality of two float arrays."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def replay(
    problem,
    rule,
    family,
    linear_rule,
    geometry,
    schedule,
    stopping: StoppingCriteria,
    xi0,
    states,
    w0=None,
    gradient_mode: str = "auto",
    fd_step: float = 1e-6,
    omega_min: Optional[float] = None,
    delta_star_fn: Optional[Callable[[np.ndarray], float]] = None,
):
    """Rebuild the record of a run from the states it visited.

    ``states`` holds one row ``[xi_k, w_k]`` per recorded iterate; the other
    arguments are those :func:`run` took.  The states do not depend on each
    other once written, so the states are assembled as stacks, in the
    oracle's blocks, and the gradients at ``(w_k, xi_k)`` are read from each
    block's evaluation; each is bitwise what the run computed at that state.  Block by block, the
    record is built by the same bookkeeping as the run's.

    Returns ``(record, faults)``.  ``faults`` lists, in order, what does not
    replay bitwise: ``xi_0`` and ``w_0`` against the config and the initial
    update, every ``xi_{k+1} = prox_step(xi_k, g_k, gamma_k)`` and
    ``w_{k+1} = update_linear(rule, A(xi_{k+1}), w_k)``, and the stopping
    rule, which must first fire at the last state (or never, after
    ``max_epochs`` steps).  It is empty when the states are a run of this
    configuration.  A state that is not finite, or whose ``xi`` lies outside
    the admissible domain, cannot be assembled: the record is then ``None``
    and the one fault names it.  The sampled Lipschitz estimate, when the
    schedule asks for one, is computed again at ``w_0``.
    """
    grads = make_gradients(problem, rule, family, mode=gradient_mode, fd_step=fd_step)
    frozen = isinstance(linear_rule, Frozen)
    xi_start, w_init = _start(family, linear_rule, xi0, w0)
    states = np.asarray(states, dtype=float)
    d = family.n_nonlinear
    if states.ndim != 2 or len(states) == 0 or states.shape[1] != d + family.n_linear:
        raise ConfigError(
            f"expected one row of {d} + {family.n_linear} state values per iterate, "
            f"got shape {states.shape}"
        )
    nonfinite = np.flatnonzero(~np.isfinite(states).all(axis=1))
    if nonfinite.size:
        return None, [f"state {nonfinite[0]} holds a non-finite value"]
    xis, ws = states[:, :d], states[:, d:]
    outside = np.flatnonzero(~family.domain.feasible(xis))
    if outside.size:
        return None, [f"xi_{outside[0]} lies outside the admissible domain"]
    n = len(states) - 1

    def visited():
        """``(k, system, g_k)`` per state in order, ``g_k`` the gradient a
        step from state k takes (None at the last state, where none starts).

        The states a step leaves go in the oracle's blocks, one block
        alive at a time, each assembled and differentiated as one stack,
        its exact solves one stacked solve (frozen coefficients never ask
        for one); the last state is assembled alone.
        """
        left, assemble_at = xis[:n], grads.evaluator.assemble
        for block in grads.blocks(left) if n else ():
            systems = assemble_at(left[block])
            steps = zip(range(n)[block], systems.rows(solve=not frozen),
                        grads.grad_xi(ws[:n][block], systems))
            del systems  # its evaluation goes before the next block's is made
            yield from steps
        yield n, assemble_at(xis[n]), None

    faults, stops = [], []
    for k, system, g in visited():
        _check_assumption1(system, omega_min, frozen)
        if k == 0:
            if not _same(xis[0], xi_start):
                faults.append("xi_0 is not the configured start")
            if not _same(update_linear(linear_rule, system, w_init), ws[0]):
                faults.append("w_0 is not the initial linear update")
            recorder = _Recorder(linear_rule, geometry, schedule, stopping, grads,
                                 delta_star_fn, system, w_init, ws[0])
        else:
            xi_next = prox_step(geometry, family.domain, xis[k - 1], g_prev, recorder.gamma)
            if not _same(xi_next, xis[k]):
                faults.append(f"xi_{k} is not the prox step from iterate {k - 1}")
            if not _same(update_linear(linear_rule, system, ws[k - 1]), ws[k]):
                faults.append(f"w_{k} is not the linear update at xi_{k}")
            stops.append(recorder.step(system, ws[k]))
        g_prev = g
    fired = [k for k, stop in enumerate(stops) if stop is not None]
    if n > stopping.max_epochs:
        faults.append(f"{n} steps recorded, more than max_epochs = {stopping.max_epochs}")
    elif fired and fired[0] < n - 1:
        faults.append(f"the stopping rule fires at step {fired[0]}, before the last state")
    elif not fired and n < stopping.max_epochs:
        faults.append(f"{n} steps recorded, but the stopping rule never fires and "
                      f"max_epochs is {stopping.max_epochs}")
    return recorder.finish((stops[-1] if stops else None) or "max_epochs"), faults
