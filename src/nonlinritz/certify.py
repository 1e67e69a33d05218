"""Numerical certificates for the convergence guarantees.

Every certified inequality becomes a :class:`CertificateEntry` holding both
sides, the anchor (which step or sample realised the worst margin) and a
pass/fail/skipped status.  Inequalities are checked with a combined
absolute-plus-relative tolerance (1e-8 each by default).

Minimiser knowledge enters only through explicit oracle objects: an
analytic description (point list or sphere) or a brute-force grid search
over the reduced energy.  The optimality gap K* and the Bregman distance
delta*(xi) = inf over minimisers of D_psi(xi*; xi) always come from the
oracle, never from the run being certified.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .assembly import Evaluator, quadratic_energy
from .basis import realisation
from .errors import ConfigError
from .optimizer import ConstantGamma, RunRecord, _hoelder_exponent, _reduced
from .updates import Frozen, FullSolveCG
from .variational import Field, bilinear, linear_form

__all__ = [
    "CertificateEntry",
    "CertificateReport",
    "GridSearchOracle",
    "AnalyticPointsOracle",
    "AnalyticSphereOracle",
    "minimiser_grid_oracle",
    "delta_star",
    "quasi_stationarity_level",
    "stopped_point_level",
    "decrease_certificate",
    "lambda_max_entry",
    "lambda_max_certificate",
    "spd_certificate",
    "energy_monotonicity_certificate",
    "local_rate_certificate",
    "surrogate_certificate",
    "global_step_certificate",
    "global_rate_certificate",
    "cea_certificate",
    "directional_convexity_probe",
]

ATOL = 1e-8
RTOL = 1e-8
GRID_MAX_POINTS = 2_000_000  # grid oracle: largest full mesh, feasible or not
PROBE_STEP = 1e-3  # convexity probe: second-difference step
PROBE_TOL = 1e-6  # convexity probe: curvature below -PROBE_TOL is non-convex

# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


@dataclass
class CertificateEntry:
    """One checked inequality: lhs <= rhs within tolerance."""

    name: str
    anchor: str
    lhs: float
    rhs: float
    margin: float
    status: str  # "pass" | "fail" | "skipped"
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


#: margins closer than this, relative to the smallest margin's sides, are tied
_TIE_RTOL = 1e-13


def _entry(name, anchor, lhs, rhs, atol=ATOL, rtol=RTOL, note="") -> CertificateEntry:
    """The worst of the inequalities ``lhs[i] <= rhs[i]``, as one entry carrying ``note``.

    ``lhs``, ``rhs`` and ``atol`` are scalars or arrays, broadcast together;
    inequality ``i`` holds within ``atol[i] + rtol * max(|lhs[i]|, |rhs[i]|)``.
    A failing inequality is never replaced by a passing one: tolerances
    differ between inequalities, so a passing margin may be the smaller.
    Among those of the worst status, margins within roundoff of the
    smallest (``_TIE_RTOL`` times its sides) are tied, and the first of them
    is taken, so that a last-bit change in the data does not move the
    anchor.  A NaN margin counts as the smallest.  ``anchor`` is the anchor
    text, or a function that makes it from the chosen index.
    """
    lhs, rhs = np.broadcast_arrays(np.atleast_1d(np.asarray(lhs, dtype=float)),
                                   np.asarray(rhs, dtype=float))
    with np.errstate(invalid="ignore", over="ignore"):  # quietly inf and NaN, as Python floats
        ok = lhs <= rhs + (atol + rtol * np.maximum(np.abs(lhs), np.abs(rhs)))
        margin = rhs - lhs
    pool = np.flatnonzero(~ok) if not ok.all() else np.arange(ok.size)
    low = pool[np.argmin(np.where(np.isnan(margin[pool]), -np.inf, margin[pool]))]
    tie = _TIE_RTOL * max(abs(float(lhs[low])), abs(float(rhs[low])))
    i = pool[np.argmax((pool == low) | (margin[pool] <= float(margin[low]) + tie))]
    return CertificateEntry(name, anchor if isinstance(anchor, str) else anchor(int(i)),
                            float(lhs[i]), float(rhs[i]), float(margin[i]),
                            "pass" if ok[i] else "fail", note)


def _skipped(name, note) -> CertificateEntry:
    return CertificateEntry(name, "-", math.nan, math.nan, math.nan, "skipped", note)


@dataclass
class CertificateReport:
    entries: List[CertificateEntry] = field(default_factory=list)

    def extend(self, more) -> "CertificateReport":
        if isinstance(more, CertificateEntry):
            self.entries.append(more)
        else:
            self.entries.extend(more)
        return self

    @property
    def failures(self) -> List[CertificateEntry]:
        return [e for e in self.entries if e.status == "fail"]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "entries": [e.to_dict() for e in self.entries],
        }


# ---------------------------------------------------------------------------
# minimiser oracles and the Bregman distance to the optimum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyticPointsOracle:
    """Explicitly known (finite) minimiser set."""

    points: np.ndarray  # (m, d)
    K_star: float

    def __post_init__(self):
        p = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", p)


@dataclass(frozen=True)
class AnalyticSphereOracle:
    """Minimiser set {xi : ||xi - center|| = radius}."""

    center: np.ndarray
    radius: float
    K_star: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        object.__setattr__(self, "center", c)
        if not self.radius > 0.0:
            raise ConfigError("sphere oracle needs a positive radius")


@dataclass(frozen=True)
class GridSearchOracle:
    """Brute-force minimiser evidence on a feasible grid."""

    points: np.ndarray      # (N, d) feasible grid
    values: np.ndarray      # (N,) reduced energies
    K_star: float
    minimisers: np.ndarray  # (m, d) points within slack of the minimum
    resolution: float
    slack: float


def minimiser_grid_oracle(
    problem,
    rule,
    family,
    resolution: float,
    frozen_w=None,
) -> GridSearchOracle:
    """Evaluate the reduced energy on a full feasible grid.

    The minimiser set is reported as all grid points within
    ``slack = L_est * resolution`` of the grid minimum, where ``L_est`` is
    the largest energy difference quotient between adjacent feasible grid
    points.  Limited to three nonlinear parameters; use an analytic oracle
    beyond that.

    The feasible points are evaluated in grid order by one
    :class:`~nonlinritz.assembly.Evaluator`, as stacks cut by its
    ``slices``: one assembly and one stacked exact solve per block,
    whatever the family (hats and the indicator pair split the quadrature
    per point inside the assembly).  Every value is bitwise the one of
    that point evaluated alone.
    """
    domain = family.domain
    if domain.dim > 3:
        raise ConfigError(
            "grid oracle supports at most 3 nonlinear parameters; provide an "
            "analytic minimiser oracle instead"
        )
    if not resolution > 0.0:
        raise ConfigError("grid resolution must be positive")
    axes = []
    for lo, hi in zip(domain.lower, domain.upper):
        if hi > lo:
            m = int(np.ceil((hi - lo) / resolution)) + 1
            axes.append(np.linspace(lo, hi, m))
        else:
            axes.append(np.array([lo]))
    shape = tuple(a.size for a in axes)
    if int(np.prod(shape)) > GRID_MAX_POINTS:
        raise ConfigError(
            f"grid of {int(np.prod(shape))} points exceeds the limit "
            f"{GRID_MAX_POINTS}; coarsen the resolution or use an analytic oracle"
        )
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, domain.dim)
    feasible = domain.feasible(mesh)
    pts = mesh[feasible]
    if pts.shape[0] == 0:
        raise ConfigError("no feasible grid points; check domain and resolution")

    vals = np.empty(pts.shape[0])
    evaluator = Evaluator(problem, rule, family)
    for block in evaluator.slices(pts):
        system = evaluator.assemble(pts[block])
        if frozen_w is not None:
            vals[block] = quadratic_energy(system, frozen_w)
        else:
            vals[block] = _reduced(system)[0]
    vals_full = np.full(shape, np.nan).reshape(-1)
    vals_full[feasible] = vals
    vals_full = vals_full.reshape(shape)

    # difference quotients between adjacent feasible grid points
    L_est = 0.0
    for ax in range(domain.dim):
        if shape[ax] < 2:
            continue
        h = axes[ax][1] - axes[ax][0]
        a = np.moveaxis(vals_full, ax, 0)
        diffs = np.abs(a[1:] - a[:-1]) / h
        finite = np.isfinite(diffs)
        if np.any(finite):
            L_est = max(L_est, float(np.max(diffs[finite])))

    K_star = float(np.min(vals))
    slack = L_est * resolution
    minimisers = pts[vals <= K_star + slack]
    return GridSearchOracle(
        points=pts,
        values=vals,
        K_star=K_star,
        minimisers=minimisers,
        resolution=float(resolution),
        slack=float(slack),
    )


def _sphere_project(oracle: AnalyticSphereOracle, geom, xi: np.ndarray):
    """Bregman-nearest point of the sphere to ``xi``: radial for a scalar
    mirror-map diagonal c*I (any dimension), an angular scan in 2-d otherwise."""
    v = xi - oracle.center
    r = float(np.linalg.norm(v))
    if isinstance(geom.diag, float):
        if r == 0.0:
            u = np.zeros_like(xi)
            u[0] = 1.0
            return oracle.center + oracle.radius * u
        return oracle.center + (oracle.radius / r) * v
    if xi.size == 2:
        # weighted nearest point on a circle: dense angular scan plus a
        # golden-section refinement (deterministic)
        th = np.linspace(0.0, 2.0 * np.pi, 4097)
        cand = oracle.center[None, :] + oracle.radius * np.stack(
            [np.cos(th), np.sin(th)], axis=1
        )
        j = int(np.argmin(geom.div(cand, xi)))
        lo, hi = th[max(j - 1, 0)], th[min(j + 1, th.size - 1)]
        phi = (math.sqrt(5.0) - 1.0) / 2.0

        def f(t):
            p = oracle.center + oracle.radius * np.array([math.cos(t), math.sin(t)])
            return geom.div(p, xi)

        a, b = lo, hi
        c1, c2 = b - phi * (b - a), a + phi * (b - a)
        for _ in range(200):
            if f(c1) < f(c2):
                b, c2 = c2, c1
                c1 = b - phi * (b - a)
            else:
                a, c1 = c1, c2
                c2 = a + phi * (b - a)
        t = 0.5 * (a + b)
        return oracle.center + oracle.radius * np.array([math.cos(t), math.sin(t)])
    raise ConfigError(
        "sphere oracle projections are implemented for a scalar mirror-map "
        "diagonal (any dimension) and a weighted one in 2-d"
    )


def delta_star(geom, oracle, xi):
    """Bregman distance to the minimiser set and the attaining point.

    Returns ``(value, xi_star)`` with
    ``value = min over represented minimisers of D_psi(xi*; xi)``.
    """
    xi = np.asarray(xi, dtype=float)
    if isinstance(oracle, AnalyticSphereOracle):
        p = _sphere_project(oracle, geom, xi)
        return float(geom.div(p, xi)), p
    if isinstance(oracle, (AnalyticPointsOracle, GridSearchOracle)):
        pts = oracle.points if isinstance(oracle, AnalyticPointsOracle) else oracle.minimisers
        vals = geom.div(pts, xi)
        j = int(np.argmin(vals))
        return float(vals[j]), pts[j]
    raise ConfigError(f"unknown oracle type {type(oracle).__name__}")


def quasi_stationarity_level(L: float, nu: float, gamma: float, mu: float, c: float) -> float:
    """Certified stationarity level L*(gamma*c)^nu + mu*c of a surrogate pair."""
    _hoelder_exponent(nu)
    if not gamma > 0.0:
        raise ConfigError(f"gamma must be positive, got {gamma!r}")
    if L < 0.0 or mu < 0.0 or c < 0.0:
        raise ConfigError("L, mu and c must be nonnegative")
    return float(L * (gamma * c) ** nu + mu * c)


def stopped_point_level(record: RunRecord, L: float, nu: float):
    """Quasi-stationarity level at the stopped iterate, and its ``c``.

    ``c = hypot(||G||, ||grad_w K||)`` joins the last step's gradient
    mapping with the exact-solve residual the run recorded at the stopped
    point (``record.stop_residual``); returns ``(L (gamma c)^nu + mu c, c)``
    with the run's gamma.
    """
    c = math.hypot(record.grad_map_norm[-1], record.stop_residual)
    return quasi_stationarity_level(L, nu, record.gamma, record.mu, c), c


# ---------------------------------------------------------------------------
# per-run certificates on the recorded columns
# ---------------------------------------------------------------------------


def _hoelder_slack(record: RunRecord) -> float:
    """How far one step of an adaptive run may raise the energy: ``eps_holder``
    under nu < 1, whose Lipschitz surrogate sizes the step for that slack,
    and 0 under nu = 1."""
    schedule = record.schedule
    return schedule.eps_holder if schedule.nu < 1.0 else 0.0


def _square(x) -> np.ndarray:
    """``x ** 2`` per element as a Python float computes it (``pow``); numpy's
    ``x ** 2`` multiplies, which differs in the last bit for some values."""
    return np.float_power(x, 2)


def decrease_certificate(record: RunRecord) -> List[CertificateEntry]:
    """Achieved linear-update drop >= guaranteed drop at every update."""
    if record.frozen:
        return [_skipped("linear-decrease", "frozen linear rule: no linear updates")]
    # the initial update, then one per step
    achieved, guaranteed = (np.concatenate(([first], steps)) for first, steps in zip(
        record.initial_decrease, (record.decrease_achieved, record.decrease_guaranteed)))
    return [_entry("linear-decrease", lambda i: f"step {i - 1}" if i else "initial update",
                   guaranteed, achieved, atol=1e-9, rtol=0.0,
                   note=f"checked {achieved.size} updates")]


def lambda_max_entry(anchor, state, constants, note="") -> CertificateEntry:
    """lambda_max(A) <= norm_a * ||phi||_{U,2}^2 at the states of a run record
    or the points of an assembled stack, which both carry ``lambda_max`` and
    ``phi_u2``; ``anchor`` names the worst (see :func:`_entry`)."""
    return _entry("lambda-max-bound", anchor, state.lambda_max,
                  constants.norm_a * _square(state.phi_u2), atol=1e-9, rtol=0.0, note=note)


def lambda_max_certificate(record: RunRecord, constants) -> List[CertificateEntry]:
    """lambda_max(A(xi_k)) <= norm_a * ||phi(xi_k)||_{U,2}^2 at every iterate."""
    return [lambda_max_entry(lambda k: f"iterate {k}", record, constants,
                             f"checked {len(record.K)} iterates")]


def spd_certificate(record: RunRecord, omega_min: float) -> List[CertificateEntry]:
    """omega(xi_k) >= omega_min at every visited parameter point."""
    if record.frozen:
        return [_skipped("uniform-solvability", "frozen linear rule: not asserted")]
    return [_entry("uniform-solvability", lambda k: f"iterate {k}", omega_min, record.omega,
                   atol=0.0, rtol=0.0, note=f"checked {len(record.K)} iterates")]


def energy_monotonicity_certificate(record: RunRecord) -> List[CertificateEntry]:
    """K_{k+1} <= K_k + eps along the recorded iterates of an adaptive run.

    ``eps`` is the run's Hoelder slack (``eps_holder`` under nu < 1, else
    0).  A constant step size is not sized by any descent condition, so
    its runs are skipped.
    """
    if isinstance(record.schedule, ConstantGamma):
        return [_skipped("energy-monotone",
                         "constant step size: the descent step condition is not verified")]
    if not record.n_steps:
        return [_skipped("energy-monotone", "run recorded no steps")]
    K = record.K
    return [_entry("energy-monotone", lambda k: f"step {k}", K[1:],
                   K[:-1] + _hoelder_slack(record), atol=1e-10 * (1.0 + np.abs(K[:-1])),
                   rtol=0.0, note=f"checked {record.n_steps} steps")]


def local_rate_certificate(record: RunRecord, K_star_lower: float) -> List[CertificateEntry]:
    """Telescoped stationarity bound at every horizon n.

    min_{k<n} (||G_k||^2 + ||grad_w K(w_k, xi_{k+1})||^2)
        <= 2 (K_0 - K_star_lower + n*eps) / S_n,
    S_n = sum_{k<n} min(gamma (2 mu - gamma L), 1/lambda_max(A(xi_k))),

    with ``L`` the Lipschitz surrogate the run recorded and ``eps`` the
    run's Hoelder slack (``eps_holder`` under nu < 1, else 0).
    ``K_star_lower`` must lower-bound the energy (oracle or config).
    Frozen and constant-step runs are skipped.
    """
    if record.frozen:
        return [_skipped("local-rate", "frozen linear rule: decrease bound unavailable")]
    if isinstance(record.schedule, ConstantGamma):
        return [_skipped("local-rate", "constant step size: no Lipschitz surrogate recorded")]
    n = record.n_steps
    if not n:
        return [_skipped("local-rate", "run recorded no steps")]
    gamma, L = record.gamma, record.lipschitz_L
    A = gamma * (2.0 * record.mu - gamma * L)
    B = 1.0 / record.lambda_max[:-1]
    terms = np.where(B < A, B, A)  # min(A, B), a NaN B left out as the builtin does
    bad = np.flatnonzero(terms <= 0.0)
    if bad.size:
        return [
            _skipped(
                "local-rate",
                f"step {bad[0]}: gamma {gamma!r} too large for surrogate "
                f"L {L!r} (nonpositive descent coefficient)",
            )
        ]
    # the running minimum passes over a NaN, as the builtin min does
    lhs = _square(record.grad_map_norm) + _square(record.grad_w_post_norm)
    best = np.minimum.accumulate(np.where(np.isnan(lhs), math.inf, lhs))
    eps = _hoelder_slack(record)
    rhs = 2.0 * (record.K[0] - K_star_lower + np.arange(1, n + 1) * eps) / np.add.accumulate(terms)
    return [_entry("local-rate", lambda i: f"horizon n={i + 1}", best, rhs,
                   note=f"checked horizons 1..{n}")]


def surrogate_certificate(
    record: RunRecord,
    L: float,
    nu: float,
    eps_target: float,
) -> List[CertificateEntry]:
    """Quasi-stationarity level certified at the stopped iterate.

    Requires the parameter-stabilisation trigger: the recorded final step
    satisfied ||xi_{k+1} - xi_k|| <= eps_xi = eps_target * gamma.  The
    linear-gradient part of c is the exact-solve residual the run recorded
    at the stopped point (``record.stop_residual``); the certified level
    L (gamma c)^nu + mu c must not exceed L (gamma eps)^nu + mu eps.
    """
    if record.termination != "xi_stabilised":
        return [
            _skipped(
                "surrogate-level",
                f"run terminated by {record.termination!r}, not parameter "
                "stabilisation",
            )
        ]
    level, c = stopped_point_level(record, L, nu)
    bound = quasi_stationarity_level(L, nu, record.gamma, record.mu, eps_target)
    return [_entry("surrogate-level", f"stopped at step {record.n_steps - 1}", level, bound,
                   note=f"c = {c!r} (grad-map {float(record.grad_map_norm[-1])!r}, "
                        f"linear residual {record.stop_residual!r})")]


# ---------------------------------------------------------------------------
# global certificates (exact linear updates in a convexity basin)
# ---------------------------------------------------------------------------


def _basin_deltas(record: RunRecord, geom, oracle, rho, name):
    """``(deltas, None)`` when a global guarantee applies, else ``(None, skip)``.

    The guarantees need exact linear updates, at least one step and, with
    ``rho`` given, a start inside the basin ``delta*(xi_0) <= rho``.
    """
    if not isinstance(record.linear_rule, (FullSolveCG, Frozen)):
        return None, _skipped(
            name,
            f"global guarantees need exact linear updates; run used "
            f"{type(record.linear_rule).__name__}",
        )
    if not record.n_steps:
        return None, _skipped(name, "run recorded no steps")
    deltas = record.delta_star
    if deltas is None:
        deltas = np.array([delta_star(geom, oracle, xi)[0] for xi in record.xi])
    if rho is not None and deltas[0] > rho + ATOL:
        return None, _skipped(
            name,
            f"start outside certified basin: delta*(xi_0) = {float(deltas[0])!r} "
            f"> rho = {rho!r}",
        )
    return deltas, None


def global_step_certificate(
    record: RunRecord,
    geom,
    oracle,
    L_bar: float,
    rho: Optional[float] = None,
) -> List[CertificateEntry]:
    """Per-step descent of the reduced energy in the certified basin.

    Checks, for every step, monotone decay of the Bregman distance to the
    minimiser set and

        Kbar(xi_{k+1}) <= K* - 0.5 (mu/gamma - L_bar) ||xi_{k+1}-xi_k||^2
                          + (delta*_k - delta*_{k+1}) / gamma.

    Entries are skipped (not asserted) when the start lies outside the
    basin ``delta*(xi_0) <= rho`` or when gamma L_bar > mu.
    """
    deltas, skip = _basin_deltas(record, geom, oracle, rho, "global-step")
    if skip is not None:
        return [skip]
    gamma, mu = record.gamma, record.mu
    if gamma * L_bar > mu * (1.0 + RTOL):
        return [
            _skipped(
                "global-step",
                f"step 0: gamma*L_bar = {gamma * L_bar!r} exceeds "
                f"mu = {mu!r}; the per-step guarantee does not apply",
            )
        ]
    rhs = (
        oracle.K_star
        - 0.5 * (mu / gamma - L_bar) * _square(record.step_norm)
        + (deltas[:-1] - deltas[1:]) / gamma
    )
    note = f"checked {record.n_steps} steps"
    return [
        _entry("global-step-delta-monotone", lambda k: f"step {k}", deltas[1:], deltas[:-1],
               note=note),
        _entry("global-step-descent", lambda k: f"step {k}", record.K_reduced[1:], rhs,
               note=note),
    ]


def global_rate_certificate(
    record: RunRecord,
    geom,
    oracle,
    rho: Optional[float] = None,
) -> List[CertificateEntry]:
    """Kbar(xi_n) - K* <= delta*(xi_0) / sum_{k<n} gamma_k at every horizon."""
    deltas, skip = _basin_deltas(record, geom, oracle, rho, "global-rate")
    if skip is not None:
        return [skip]
    n = record.n_steps
    gamma_sums = np.add.accumulate(np.full(n, float(record.gamma)))
    return [_entry("global-rate", lambda i: f"horizon n={i + 1}",
                   record.K_reduced[1:] - oracle.K_star, deltas[0] / gamma_sums,
                   note=f"checked horizons 1..{n}")]


def cea_certificate(
    record: RunRecord,
    problem,
    rule,
    family,
    u_star: Field,
    oracle,
    L_bar: float,
    zeta: float,
    geom,
    best_in_V: Optional[float] = None,
) -> List[CertificateEntry]:
    """Quasi-optimality of the realised approximation at every horizon.

    ||Rbar(xi_n) - u*||_a^2 <= best_in_V + 2 L_bar delta*(xi_0) / (zeta mu n)

    with ``best_in_V`` the squared best-approximation error over the whole
    nonlinear class (from the grid oracle when not supplied:
    2*(K*_grid - J(u*))).  The left side is evaluated by quadrature on the
    realised fields of the recorded iterates (for exact updates the
    recorded coefficients are the exact solve), independently of the
    recorded energies.
    """
    deltas, skip = _basin_deltas(record, geom, oracle, None, "cea")
    if skip is not None:
        return [skip]
    if best_in_V is None:
        j_star = 0.5 * bilinear(problem, rule, u_star, u_star) - linear_form(
            problem, rule, u_star
        )
        best_in_V = 2.0 * (oracle.K_star - j_star)
    diffs = [realisation(family, xi, w) - u_star for xi, w in zip(record.xi[1:], record.w[1:])]
    lhss = np.array([bilinear(problem, rule, d, d) for d in diffs])
    ns = np.arange(1.0, len(record.K))
    rhss = best_in_V + 2.0 * L_bar * deltas[0] / (zeta * record.mu * ns)
    return [_entry("cea", lambda i: f"horizon n={i + 1}", lhss, rhss,
                   note=f"best_in_V = {best_in_V!r}; checked horizons 1..{record.n_steps}")]


# ---------------------------------------------------------------------------
# convexity probes
# ---------------------------------------------------------------------------


@dataclass
class ProbeResult:
    min_curvature: float
    convex: bool


def directional_convexity_probe(
    reduced_fn: Callable[[np.ndarray], float],
    xi,
    xi_star,
    n_probe: int = 9,
    domain=None,
) -> ProbeResult:
    """Second differences of t -> Kbar(xi + t (xi* - xi)) on (0, 1).

    Declares the segment directionally convex when the smallest probed
    curvature exceeds ``-PROBE_TOL``.  Probe points keep distance
    ``PROBE_STEP`` (the difference step) from the segment ends so all
    evaluations stay on the segment (hence inside the domain, by convexity).
    """
    xi = np.asarray(xi, dtype=float)
    xi_star = np.asarray(xi_star, dtype=float)
    if domain is not None:
        domain.require(xi)
        domain.require(xi_star)
    if n_probe < 1:
        raise ConfigError("need at least one probe point")
    dxi = xi_star - xi

    def g(t):
        return reduced_fn(xi + t * dxi)

    h = PROBE_STEP
    worst = math.inf
    for t in np.linspace(h, 1.0 - h, n_probe + 2)[1:-1]:
        worst = min(worst, (g(t + h) - 2.0 * g(t) + g(t - h)) / (h * h))
    return ProbeResult(float(worst), bool(worst >= -PROBE_TOL))
