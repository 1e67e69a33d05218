"""Alternating minimisation driver and its rate constants.

One outer iteration performs a mirror-descent step on the nonlinear
parameters followed by a linear update at the new point:

    xi_{k+1} = prox(xi_k, grad_xi K(w_k, xi_k), gamma_k)
    w_{k+1}  = UpdateLinear(w_k, xi_{k+1})

with best-iterate tracking, two early-stopping triggers (parameter
stabilisation and energy plateau) and a final exact linear solve at the
best parameters.  Each visited point is assembled once, and one
eigendecomposition of its system serves the linear update, the decrease
check, the spectral statistics and the reduced energy.  Every iterate keeps
the quantities the convergence certificates consume: gradient-mapping and
linear-gradient norms, step sizes, achieved/guaranteed energy drops, and
spectral statistics.  A run stopped by parameter stabilisation also keeps
the exact-solve residual ``||A A^+ load - load||`` of the last system it
assembled, at the stopped point.

The reduced (variable-projection) energy eliminates the linear block
exactly:  Kbar(xi) = K(w*(xi), xi) = -0.5 * load(xi) . w*(xi).  Its
gradient needs no derivative of w*(xi): grad Kbar(xi) =
grad_xi K(w, xi) evaluated at w = w*(xi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Union

import numpy as np

from .assembly import AssembledSystem, _raise_first, assemble, quadratic_energy
from .errors import ConfigError, NumericalError
from .updates import (
    Frozen,
    FullSolveCG,
    decrease_check,
    gradient_mapping,
    make_gradients,
    prox_step,
    update_linear,
)

__all__ = [
    "hoelder_to_lipschitz",
    "optimal_zeta",
    "iteration_budget",
    "estimate_lipschitz_L",
    "reduced_energy",
    "reduced_gradient",
    "ConstantGamma",
    "LipschitzAdaptive",
    "StoppingCriteria",
    "IterateRecord",
    "RunRecord",
    "run",
]


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------


def hoelder_to_lipschitz(L: float, nu: float, eps: float) -> float:
    """Lipschitz surrogate of a nu-Hoelder constant at slack eps.

    Returns ``((1/(2 eps)) * (1-nu)/(1+nu)) ** ((1-nu)/(1+nu)) * L ** (2/(1+nu))``;
    for ``nu = 1`` the slack is unnecessary and the constant passes through.
    """
    if not 0.0 < nu <= 1.0:
        raise ConfigError(f"Hoelder exponent must lie in (0, 1], got {nu!r}")
    if L < 0.0:
        raise ConfigError(f"Hoelder constant must be nonnegative, got {L!r}")
    if nu == 1.0:
        return float(L)
    if not eps > 0.0:
        raise ConfigError("eps must be positive when nu < 1")
    p = (1.0 - nu) / (1.0 + nu)
    return float((p / (2.0 * eps)) ** p * L ** (2.0 / (1.0 + nu)))


def optimal_zeta(L_max: float, mu: float, beta_max: float) -> float:
    """Step-scale factor minimising the iteration budget.

    ``1 - sqrt(1 - L_max/(mu^2 beta_max))`` while that ratio is at most 3/4,
    and 1/2 beyond (the two branches meet at the threshold).
    """
    if not (L_max > 0.0 and mu > 0.0 and beta_max > 0.0):
        raise ConfigError("optimal_zeta needs positive L_max, mu, beta_max")
    ratio = L_max / (mu * mu * beta_max)
    if ratio <= 0.75:
        return float(1.0 - math.sqrt(1.0 - ratio))
    return 0.5


def iteration_budget(
    tau: float, mu: float, zeta: float, L_max: float, beta_max: float, gap: float
) -> float:
    """Iterations guaranteeing the combined stationarity residual <= tau.

    ``2 mu^2 (1+zeta)^2 gap / (tau^2 min(mu^2 zeta (2-zeta)/L_max, 1/beta_max))``
    where ``gap`` bounds the initial energy above its infimum.
    """
    if not (tau > 0.0 and mu > 0.0 and L_max > 0.0 and beta_max > 0.0):
        raise ConfigError("iteration_budget needs positive tau, mu, L_max, beta_max")
    if not 0.0 < zeta < 2.0:
        raise ConfigError(f"zeta must lie in (0, 2), got {zeta!r}")
    if gap < 0.0:
        raise ConfigError(f"initial energy gap must be nonnegative, got {gap!r}")
    denom = min(mu * mu * zeta * (2.0 - zeta) / L_max, 1.0 / beta_max)
    return float(2.0 * mu * mu * (1.0 + zeta) ** 2 * gap / (tau * tau * denom))


def estimate_lipschitz_L(
    problem,
    rule,
    family,
    w,
    n_pairs: int,
    seed: int,
    nu: float = 1.0,
    mode: str = "auto",
    fd_step: float = 1e-6,
) -> float:
    """Sampled Hoelder constant of xi -> grad_xi K(w, xi), safety factor 2.

    Maximum of ``||g(xi) - g(eta)|| / ||xi - eta||^nu`` over ``n_pairs``
    feasible pairs, doubled.  Returns 0 for an energy constant in xi.
    Under finite-difference gradients the pairs come from the domain shrunk
    by ``fd_step``, so that every difference probe stays admissible.
    """
    if n_pairs < 1:
        raise ConfigError("estimate_lipschitz_L needs at least one pair")
    if not 0.0 < nu <= 1.0:
        raise ConfigError(f"Hoelder exponent must lie in (0, 1], got {nu!r}")
    grads = make_gradients(problem, rule, family, mode=mode, fd_step=fd_step)
    domain = family.domain.shrink(fd_step) if grads.mode == "fd" else family.domain
    rng = np.random.default_rng(seed)
    w = np.asarray(w, dtype=float)
    best = 0.0
    got = 0
    tries = 0
    while got < n_pairs and tries < 50 * n_pairs:
        tries += 1
        xi = domain.sample(rng)
        eta = domain.sample(rng)
        d = float(np.linalg.norm(xi - eta))
        if d <= 0.0:
            continue
        diff = float(np.linalg.norm(grads.grad_xi(w, xi) - grads.grad_xi(w, eta)))
        best = max(best, diff / d ** nu)
        got += 1
    if got < n_pairs:
        raise NumericalError("could not sample enough distinct parameter pairs")
    return 2.0 * best


# ---------------------------------------------------------------------------
# reduced (variable projection) energy
# ---------------------------------------------------------------------------


def _reduced(system: AssembledSystem):
    """``(Kbar(xi), w_star)`` from an assembled system's exact solve.

    The value is computed both as the quadratic form ``-0.5 load . w*`` and
    as ``K(w*, xi)``; disagreement beyond 1e-10 signals a failed solve.  On
    a stack both are per point, and the first disagreeing point is named.
    """
    w_star = system.solution
    direct = quadratic_energy(system, w_star)
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
    coefficients; callers cut long stacks with
    :func:`~nonlinritz.assembly.stack_slices`.
    """
    return _reduced(assemble(problem, rule, family, xi))


def reduced_gradient(problem, rule, family, xi, mode: str = "auto"):
    """grad Kbar(xi) via the envelope identity (no derivative of w*)."""
    _, w_star = reduced_energy(problem, rule, family, xi)
    grads = make_gradients(problem, rule, family, mode=mode)
    return grads.grad_xi(w_star, xi)


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
        if not 0.0 < self.nu <= 1.0:
            raise ConfigError(f"nu must lie in (0, 1], got {self.nu!r}")


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
    lambda_min: float
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
    stabilisation.  ``linear_rule_kind`` is "full", "sd" or "frozen".
    """

    iterates: List[IterateRecord]
    termination: str
    best_k: int
    best_xi: np.ndarray
    best_w: np.ndarray
    best_K: float
    final_w: np.ndarray
    final_K: float
    final_grad_w_norm: float
    mu: float
    linear_rule_kind: str = "full"
    initial_decrease: Optional[tuple] = None
    hoelder_L: Optional[float] = None
    hoelder_nu: float = 1.0
    stop_residual: Optional[float] = None

    @property
    def frozen(self) -> bool:
        return self.linear_rule_kind == "frozen"

    @property
    def n_steps(self) -> int:
        return len(self.iterates) - 1

    def stopped_early(self) -> bool:
        return self.termination != "max_epochs"


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def _resolve_lipschitz(schedule, problem, rule, family, w, grads):
    """Returns (converted Lipschitz surrogate, raw Hoelder constant, exponent)."""
    if isinstance(schedule, ConstantGamma):
        return None, None, 1.0
    L = schedule.lipschitz
    if L == "estimate":
        L = estimate_lipschitz_L(
            problem, rule, family, w, schedule.n_pairs, schedule.seed,
            nu=schedule.nu, mode=grads.mode, fd_step=grads.fd_step,
        )
    L_eff = hoelder_to_lipschitz(float(L), schedule.nu, schedule.eps_holder)
    if L_eff <= 0.0:
        raise NumericalError(
            "Lipschitz surrogate is zero (energy constant along the "
            "nonlinear block); use ConstantGamma instead"
        )
    return L_eff, float(L), schedule.nu


def _gamma_at(schedule, mu, L_eff):
    if isinstance(schedule, ConstantGamma):
        return schedule.gamma
    return schedule.zeta * mu / L_eff


def _check_assumption1(system: AssembledSystem, omega_min, frozen: bool):
    if frozen or omega_min is None:
        return
    if system.omega < omega_min:
        raise NumericalError(
            "uniform solvability violated at xi = "
            f"{system.xi.tolist()}: omega = {system.omega!r} < omega_min = "
            f"{omega_min!r}; shrink the domain or raise the gap"
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
    xi = family.require_param(xi0)
    if w0 is None:
        if frozen:
            raise ConfigError("the frozen rule needs explicit initial coefficients")
        w = np.zeros(family.n_linear)
    else:
        w = np.asarray(w0, dtype=float)
        if w.shape != (family.n_linear,):
            raise ConfigError(
                f"expected {family.n_linear} linear coefficients, got {w.shape}"
            )

    system = assemble(problem, rule, family, xi)
    _check_assumption1(system, omega_min, frozen)

    w_new = update_linear(linear_rule, system, w)
    initial_decrease = None if frozen else decrease_check(system, w, w_new)
    w = w_new

    L_eff, L_raw, nu_raw = _resolve_lipschitz(schedule, problem, rule, family, w, grads)
    mu = geometry.mu

    def state_record(k, sys_, w_now, K_now):
        return IterateRecord(
            k=k,
            xi=sys_.xi.copy(),
            w=w_now.copy(),
            K=K_now,
            K_reduced=K_now if frozen else _reduced(sys_)[0],
            lambda_max=sys_.lambda_max,
            lambda_min=sys_.lambda_min,
            omega=sys_.omega,
            phi_u2=sys_.phi_u2,
            delta_star=(None if delta_star_fn is None else float(delta_star_fn(sys_.xi))),
        )

    K = quadratic_energy(system, w)
    records = [state_record(0, system, w, K)]
    best_k, best_system, best_w, best_K = 0, system, w.copy(), K
    termination = "max_epochs"

    for k in range(stopping.max_epochs):
        gamma = _gamma_at(schedule, mu, L_eff)
        g = grads.grad_xi(w, xi)
        xi_next = prox_step(geometry, family.domain, xi, g, gamma)
        cur = records[-1]
        cur.gamma = gamma
        cur.lipschitz_L = L_eff
        cur.grad_map_norm = float(np.linalg.norm(gradient_mapping(xi, xi_next, gamma)))
        cur.step_norm = float(np.linalg.norm(xi_next - xi))

        system = assemble(problem, rule, family, xi_next)
        _check_assumption1(system, omega_min, frozen)
        cur.grad_w_post_norm = float(
            np.linalg.norm(system.matrix @ w - system.load)
        )
        w_next = update_linear(linear_rule, system, w)
        if not frozen:
            ach, gua = decrease_check(system, w, w_next)
            cur.decrease_achieved, cur.decrease_guaranteed = ach, gua

        K_next = quadratic_energy(system, w_next)
        records.append(state_record(k + 1, system, w_next, K_next))

        if K_next < best_K:
            best_k, best_system, best_w, best_K = k + 1, system, w_next.copy(), K_next

        stop_xi = cur.step_norm <= stopping.eps_xi
        plateau_scale = (1.0 + abs(K)) if stopping.relative_energy else 1.0
        stop_K = abs(K_next - K) <= stopping.eps_energy * plateau_scale
        xi, w, K = xi_next, w_next, K_next
        if stop_xi:
            termination = "xi_stabilised"
            break
        if stop_K:
            termination = "energy_plateau"
            break

    # final exact solve at the best parameters
    final_w = best_w.copy() if frozen else best_system.solution.copy()
    final_K = quadratic_energy(best_system, final_w)
    final_res = float(np.linalg.norm(best_system.matrix @ final_w - best_system.load))
    stop_residual = None
    if termination == "xi_stabilised":
        stop_residual = 0.0 if frozen else float(
            np.linalg.norm(system.matrix @ system.solution - system.load)
        )

    return RunRecord(
        iterates=records,
        termination=termination,
        best_k=best_k,
        best_xi=best_system.xi.copy(),
        best_w=best_w,
        best_K=best_K,
        final_w=final_w,
        final_K=final_K,
        final_grad_w_norm=final_res,
        mu=mu,
        linear_rule_kind=(
            "frozen" if frozen
            else "full" if isinstance(linear_rule, FullSolveCG)
            else "sd"
        ),
        initial_decrease=initial_decrease,
        hoelder_L=L_raw,
        hoelder_nu=nu_raw,
        stop_residual=stop_residual,
    )
