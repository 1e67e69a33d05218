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
energy is its reduced energy.  The run record keeps, one column per
quantity, what the convergence certificates consume: gradient-mapping and
linear-gradient norms, step sizes, achieved/guaranteed energy drops, and
spectral statistics.  A run stopped by parameter stabilisation also keeps
the exact-solve residual ``||A A^+ load - load||`` of the last system it
assembled, at the stopped point.

:func:`replay` rebuilds that record from the states ``(xi_k, w_k)`` a run
visited, without walking them one step at a time: once written, the
states no longer depend on each other, so they are evaluated and assembled
as stacks, each stack's gradients read from its evaluation, and each
block's transitions are checked as arrays: one stacked prox step, one
stacked linear update and one solvability check per block, bitwise.  The
checks and the record builder take a stack of states, and ``run`` feeds
them each visited state as the stack of one, so that ``run`` and
``replay`` share every check and one record builder.

The reduced (variable-projection) energy eliminates the linear block
exactly:  Kbar(xi) = K(w*(xi), xi) = -0.5 * load(xi) . w*(xi).  Its
gradient needs no derivative of w*(xi): grad Kbar(xi) =
grad_xi K(w, xi) evaluated at w = w*(xi).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .assembly import AssembledSystem, _raise_first, assemble, quadratic_energy
from .errors import ConfigError, NonlinRitzError, NumericalError
from .updates import (
    Frozen,
    _norm,
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
    # the points are evaluated, never assembled, in the evaluator's blocks;
    # each gradient is bitwise that point's alone
    w = np.asarray(w, dtype=float)
    points = np.stack(points)
    g = np.empty(points.shape)
    for block in grads.evaluator.slices(points):
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
class RunRecord:
    """A run as columns: the states it visited and the steps between them.

    One row per state ``k = 0..n``: ``xi`` ``(n+1, d)``, ``w`` ``(n+1, m)``,
    energy ``K``, reduced energy ``K_reduced``, the spectral statistics
    ``lambda_max``, ``omega`` and ``phi_u2`` of its system, and the oracle's
    Bregman distance ``delta_star`` (None without an oracle).  One row per
    step ``k -> k+1``: ``grad_map_norm``, ``step_norm``, ``grad_w_post_norm``
    (``||A(xi_{k+1}) w_k - load||``) and its linear update's achieved and
    guaranteed drops, ``decrease_achieved`` and ``decrease_guaranteed`` (None
    for frozen coefficients).  Once per run: the step size ``gamma`` and the Lipschitz
    surrogate ``lipschitz_L`` that sized it (None for a constant step).

    ``stop_residual`` is ``||A(xi) A(xi)^+ load(xi) - load(xi)||`` at the
    stopped point, from the system the run assembled there (0 for frozen
    coefficients); it is None unless the run ended by parameter
    stabilisation.  ``linear_rule`` is the run's linear update rule, a
    :class:`FullSolveCG`, :class:`SteepestDescent` or :class:`Frozen`, and
    ``schedule`` its step rule, a :class:`ConstantGamma` or
    :class:`LipschitzAdaptive`; ``hoelder_L`` is the Hoelder constant that
    rule resolved (estimated or given), None for a constant step.
    """

    xi: np.ndarray
    w: np.ndarray
    K: np.ndarray
    K_reduced: np.ndarray
    lambda_max: np.ndarray
    omega: np.ndarray
    phi_u2: np.ndarray
    grad_map_norm: np.ndarray
    step_norm: np.ndarray
    grad_w_post_norm: np.ndarray
    gamma: float
    termination: str
    best_xi: np.ndarray
    best_w: np.ndarray
    best_K: float
    final_K: float
    mu: float
    linear_rule: object
    schedule: object
    delta_star: Optional[np.ndarray] = None
    decrease_achieved: Optional[np.ndarray] = None
    decrease_guaranteed: Optional[np.ndarray] = None
    lipschitz_L: Optional[float] = None
    initial_decrease: Optional[tuple] = None
    hoelder_L: Optional[float] = None
    stop_residual: Optional[float] = None

    @property
    def frozen(self) -> bool:
        return isinstance(self.linear_rule, Frozen)

    @property
    def n_steps(self) -> int:
        return len(self.K) - 1


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def _check_assumption1(system: AssembledSystem, omega_min, frozen: bool):
    """Uniform solvability, ``omega >= omega_min``, at each point of a system
    or stack; the first violating point raises."""
    system.lambda_max  # recorded anyway; read first, the exact solve needs no Gershgorin test
    if frozen or omega_min is None:
        return
    _raise_first(system.omega < omega_min, system.xi, NumericalError,
                 "uniform solvability violated at xi = {xi}: omega = {!r} < omega_min = "
                 f"{omega_min!r}; shrink the domain or raise the gap", system.omega)


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
    """The bookkeeping of a run: record columns, best state, stopping rule.

    It is fed the visited states in order, in blocks: each block a stack of
    states with their stacked system, by :func:`run` one state per step, by
    :func:`replay` a block of written states at a time.  The first state
    fed is the start, whose coefficients ``w0`` fix the step size.  Each
    block's values are kept as arrays, and :meth:`finish` joins them into
    the record's columns and adds the final exact solve at the best state.
    """

    def __init__(self, linear_rule, geometry, schedule, stopping, grads, delta_star_fn, w0):
        self.linear_rule, self.schedule = linear_rule, schedule
        self.stopping, self.mu = stopping, geometry.mu
        self.frozen = isinstance(linear_rule, Frozen)
        self.grads, self.delta_star_fn, self.w0 = grads, delta_star_fn, w0
        self.columns = {}  # the blocks of each column of the record, by name
        self.initial_decrease = None

    @cached_property
    def _step_rule(self):
        """``(gamma, L_eff, L_raw)``: the step size, the Lipschitz surrogate
        and the Hoelder constant it comes from (None for a constant step),
        estimated at ``w0`` when the schedule asks for an estimate."""
        schedule = self.schedule
        if isinstance(schedule, ConstantGamma):
            return schedule.gamma, None, None
        L = schedule.lipschitz
        if L == "estimate":
            L = estimate_lipschitz_L(self.grads, self.w0, schedule.n_pairs, schedule.seed,
                                     nu=schedule.nu)
        L_raw = float(L)
        L_eff = hoelder_to_lipschitz(L_raw, schedule.nu, schedule.eps_holder)
        if L_eff <= 0.0:
            raise NumericalError(
                "Lipschitz surrogate is zero (energy constant along the "
                "nonlinear block); use ConstantGamma instead"
            )
        return schedule.zeta * self.mu / L_eff, L_eff, L_raw

    @property
    def gamma(self) -> float:
        return self._step_rule[0]

    def arrive(self, system, w_prev, w) -> list:
        """Record the states ``(system.xi, w)`` of a stack, in order.

        Each state is reached by the linear update from its row of
        ``w_prev``: the start from the coefficients before the initial
        update, every later state from those of the state before it.  The
        stack's energies, spectral statistics, norms and decrease pairs are
        computed as arrays; coefficients bitwise their exact solves give
        their energies to the reduced ones.  A check that raises leaves
        nothing recorded.  Best state and stopping rule are followed state
        by state.  Returns the stopping trigger each step fires, or None;
        the start is no step.
        """
        start = not self.columns
        K = quadratic_energy(system, w)
        residual = np.matvec(system.matrix, w_prev) - system.load
        if not self.frozen:
            drops, bounds = decrease_check(system, quadratic_energy(system, w_prev), K, residual)
        gamma, _, _ = self._step_rule
        K_reduced = K if self.frozen else _reduced(
            system, K if w.tobytes() == system.solution.tobytes() else None)[0]

        # the steps into the stack's states, the first from the last state
        # recorded; the start is reached by none
        first = 1 if start else 0
        xs = system.xi if start else np.concatenate((self.system.xi[-1:], system.xi))
        step_norm = _norm(xs[1:] - xs[:-1])
        rows = dict(xi=system.xi, w=w, K=K, K_reduced=K_reduced, lambda_max=system.lambda_max,
                    omega=system.omega, phi_u2=system.phi_u2,
                    grad_map_norm=_norm(gradient_mapping(xs[:-1], xs[1:], gamma)),
                    step_norm=step_norm, grad_w_post_norm=_norm(residual)[first:])
        if not self.frozen:
            rows.update(decrease_achieved=drops[first:], decrease_guaranteed=bounds[first:])
        if self.delta_star_fn is not None:
            rows["delta_star"] = np.array([float(self.delta_star_fn(p)) for p in system.xi])

        # best state and stopping rule, step by step: the first of equal
        # energies stays best, and parameter stabilisation wins a tie
        energies = K.tolist()
        if start:
            self.best = (system, 0, w[0].copy(), energies[0])
            if not self.frozen:
                self.initial_decrease = (float(drops[0]), float(bounds[0]))
        stop, triggers = self.stopping, []
        best, best_K, K_now = None, self.best[3], energies[0] if start else self.K
        for j, s in enumerate(step_norm.tolist(), first):
            K_prev, K_now = K_now, energies[j]
            scale = (1.0 + abs(K_prev)) if stop.relative_energy else 1.0
            triggers.append("xi_stabilised" if s <= stop.eps_xi else "energy_plateau"
                            if abs(K_now - K_prev) <= stop.eps_energy * scale else None)
            if K_now < best_K:
                best, best_K = j, K_now
        if best is not None:
            self.best = (system, best, w[best].copy(), best_K)

        for name, value in rows.items():
            self.columns.setdefault(name, []).append(value)
        self.system, self.K = system, energies[-1]
        return triggers

    def finish(self, termination: str) -> RunRecord:
        """The run record, with the final exact solve at the best parameters."""
        system, j, best_w, best_K = self.best
        best_system = system[j]
        final_w = best_w if self.frozen else best_system.solution
        stop_residual = None
        if termination == "xi_stabilised":
            system = self.system[-1]
            stop_residual = 0.0 if self.frozen else float(
                np.linalg.norm(system.matrix @ system.solution - system.load)
            )
        gamma, L_eff, L_raw = self._step_rule
        # a column never fed (the decrease pairs of frozen coefficients, the
        # distances without an oracle) stays None
        return RunRecord(
            **{name: np.concatenate(c) for name, c in self.columns.items()},
            gamma=gamma,
            lipschitz_L=L_eff,
            termination=termination,
            best_xi=best_system.xi.copy(),
            best_w=best_w,
            best_K=best_K,
            final_K=quadratic_energy(best_system, final_w),
            mu=self.mu,
            linear_rule=self.linear_rule,
            schedule=self.schedule,
            initial_decrease=self.initial_decrease,
            hoelder_L=L_raw,
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
    point and stored alongside.  Every state is a stack of one, so that the
    run and its replay share every check and the record builder.
    """
    grads = make_gradients(problem, rule, family, mode=gradient_mode, fd_step=fd_step)
    frozen = isinstance(linear_rule, Frozen)
    xi, w_init = _start(family, linear_rule, xi0, w0)
    system = grads.evaluator.assemble(xi[None])
    _check_assumption1(system, omega_min, frozen)
    w = update_linear(linear_rule, system, w_init[None])
    recorder = _Recorder(linear_rule, geometry, schedule, stopping, grads, delta_star_fn, w[0])
    recorder.arrive(system, w_init[None], w)

    for _ in range(stopping.max_epochs):
        xi = prox_step(geometry, family.domain, system.xi, grads.grad_xi(w, system),
                       recorder.gamma)
        system = grads.evaluator.assemble(xi)
        _check_assumption1(system, omega_min, frozen)
        w_prev, w = w, update_linear(linear_rule, system, w)
        (termination,) = recorder.arrive(system, w_prev, w)
        if termination is not None:
            return recorder.finish(termination)
    return recorder.finish("max_epochs")


def _same(a, b) -> np.ndarray:
    """Bitwise equality of float vectors: one bool for two vectors, one per
    row for stacks.  Bit patterns are compared, so -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.view(np.uint64) == b.view(np.uint64)).all(axis=-1)


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
    other once written, so the states a step leaves are assembled as stacks,
    in the evaluator's blocks, and the gradients at ``(w_k, xi_k)`` are read
    from each block's evaluation; the last state is assembled alone.  Each
    block's transitions are then checked as arrays: one stacked prox step
    from ``(xi_{k-1}, g_{k-1})``, the last state of the block before
    included, one stacked linear update and one check of uniform
    solvability, and the block is recorded by the run's record builder.
    Every value is bitwise what the run computed at that state.

    Returns ``(record, faults)``.  ``faults`` lists, in order, what does not
    replay bitwise: ``xi_0`` and ``w_0`` against the config and the initial
    update, every ``xi_{k+1} = prox_step(xi_k, g_k, gamma_k)`` and
    ``w_{k+1} = update_linear(rule, A(xi_{k+1}), w_k)``, and the stopping
    rule, which must first fire at the last state (or never, after
    ``max_epochs`` steps).  It is empty when the states are a run of this
    configuration.  A state that is not finite, or whose ``xi`` lies outside
    the admissible domain, cannot be assembled: the record is then ``None``
    and the one fault names it.  A check that fails raises the error a walk
    through the states one at a time meets first.  The sampled Lipschitz
    estimate, when the schedule asks for one, is computed again at ``w_0``.
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
    # the coefficients each state's linear update starts from
    ws_before = np.concatenate([w_init[None], ws[:-1]])
    recorder = _Recorder(linear_rule, geometry, schedule, stopping, grads, delta_star_fn, ws[0])
    faults, stops = [], []

    def check(lo, system, g_before):
        """Check and record the states ``lo, lo + 1, ...`` of the stack
        ``system``; row ``j`` of ``g_before`` is the gradient of the step
        into state ``lo + j`` (any row for state 0, which no step reaches)."""
        hi = lo + len(system.xi)
        _check_assumption1(system, omega_min, frozen)
        bad_xi = np.zeros(hi - lo, dtype=bool)
        if lo == 0:
            bad_xi[0] = not _same(xis[0], xi_start)
        first = max(lo, 1)
        if first < hi:
            moved = prox_step(geometry, family.domain, xis[first - 1:hi - 1],
                              g_before[first - lo:], recorder.gamma)
            bad_xi[first - lo:] = ~_same(moved, xis[first:hi])
        bad_w = ~_same(update_linear(linear_rule, system, ws_before[lo:hi]), ws[lo:hi])
        stops.extend(recorder.arrive(system, ws_before[lo:hi], ws[lo:hi]))
        for k in (lo + np.flatnonzero(bad_xi | bad_w)).tolist():
            if bad_xi[k - lo]:
                faults.append("xi_0 is not the configured start" if k == 0 else
                              f"xi_{k} is not the prox step from iterate {k - 1}")
            if bad_w[k - lo]:
                faults.append("w_0 is not the initial linear update" if k == 0 else
                              f"w_{k} is not the linear update at xi_{k}")

    def checked(lo, system, g_before):
        """``check``, raising on a failure what the walk through the states
        one at a time raises first: the block's states are then checked
        again one by one."""
        try:
            check(lo, system, g_before)
        except NonlinRitzError:
            for j in range(len(system.xi)):
                check(lo + j, system[j:j + 1], g_before[j:j + 1])
            raise

    # the states a step leaves in the evaluator's blocks, one block alive at a
    # time, each assembled and differentiated as one stack, its exact solves
    # one stacked solve (frozen coefficients never ask for one)
    left, assemble_at, g_last = xis[:n], grads.evaluator.assemble, np.zeros((1, d))
    for block in grads.evaluator.slices(left) if n else ():
        systems = assemble_at(left[block])
        if not frozen:  # read from the eigenvalues, as each state's solve in the run
            systems.eigvalsh, systems.solution
        g = grads.grad_xi(ws[:n][block], systems)
        # the stack without its evaluation, which goes before the next
        # block's is made; the recorder may keep the stack
        systems = systems[:]
        checked(block.start, systems, np.concatenate([g_last, g[:-1]]))
        g_last = g[-1:]
    checked(n, assemble_at(xis[n:]), g_last)

    fired = [k for k, stop in enumerate(stops) if stop is not None]
    if n > stopping.max_epochs:
        faults.append(f"{n} steps recorded, more than max_epochs = {stopping.max_epochs}")
    elif fired and fired[0] < n - 1:
        faults.append(f"the stopping rule fires at step {fired[0]}, before the last state")
    elif not fired and n < stopping.max_epochs:
        faults.append(f"{n} steps recorded, but the stopping rule never fires and "
                      f"max_epochs is {stopping.max_epochs}")
    return recorder.finish((stops[-1] if stops else None) or "max_epochs"), faults
