import numpy as np
import pytest
from numpy.testing import assert_allclose

import nonlinritz.optimizer
import nonlinritz.updates
from nonlinritz.assembly import assemble, quadratic_energy
from nonlinritz.basis import GaussianBumps, NonlinearDomain
from nonlinritz.errors import ConfigError, DomainViolationError, NumericalError
from nonlinritz.optimizer import (
    ConstantGamma,
    LipschitzAdaptive,
    StoppingCriteria,
    estimate_lipschitz_L,
    hoelder_to_lipschitz,
    reduced_energy,
    reduced_gradient,
    replay,
    run,
)
from nonlinritz.updates import (
    DiagonalGeometry,
    EuclideanGeometry,
    Frozen,
    FullSolveCG,
    SteepestDescent,
    make_gradients,
)
from nonlinritz.variational import Field, L2Approx, QuadratureRule, bilinear

RULE = QuadratureRule.on_interval(0.0, 1.0, n_panels=16, order=5)


def _setup():
    target = Field(
        lambda x: 0.8 * np.exp(-0.5 * ((x - 0.3) / 0.1) ** 2)
        + 0.5 * np.exp(-0.5 * ((x - 0.7) / 0.12) ** 2)
    )
    problem = L2Approx(target)
    family = GaussianBumps(
        NonlinearDomain([0.1, 0.1], [0.9, 0.9]), np.array([0.1, 0.12])
    )
    return problem, family


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_hoelder_to_lipschitz_pinned_values():
    assert abs(hoelder_to_lipschitz(1.0, 0.5, 1.0 / 6.0) - 1.0) <= 1e-12
    for L in (0.3, 1.0, 7.5):
        assert hoelder_to_lipschitz(L, 1.0, 0.0) == L  # passthrough at nu = 1
    # monotone in the slack: smaller eps -> larger surrogate
    assert hoelder_to_lipschitz(1.0, 0.5, 0.01) > hoelder_to_lipschitz(1.0, 0.5, 0.1)


def test_hoelder_to_lipschitz_validation():
    with pytest.raises(ConfigError):
        hoelder_to_lipschitz(1.0, 0.0, 0.1)
    with pytest.raises(ConfigError):
        hoelder_to_lipschitz(1.0, 1.5, 0.1)
    with pytest.raises(ConfigError):
        hoelder_to_lipschitz(-1.0, 0.5, 0.1)
    with pytest.raises(ConfigError):
        hoelder_to_lipschitz(1.0, 0.5, 0.0)


def test_estimate_lipschitz_is_deterministic():
    problem, family = _setup()
    grads, w = make_gradients(problem, RULE, family), np.array([0.5, 0.5])
    a = estimate_lipschitz_L(grads, w, n_pairs=10, seed=3)
    b = estimate_lipschitz_L(grads, w, n_pairs=10, seed=3)
    assert a == b and a > 0.0
    with pytest.raises(ConfigError):
        estimate_lipschitz_L(grads, w, n_pairs=0, seed=3)


# ---------------------------------------------------------------------------
# reduced energy and its gradient
# ---------------------------------------------------------------------------


def test_reduced_energy_is_galerkin_optimum():
    problem, family = _setup()
    xi = np.array([0.35, 0.65])
    val, w_star = reduced_energy(problem, RULE, family, xi)
    # no coefficient choice does better at this parameter point
    from nonlinritz.assembly import assemble, quadratic_energy

    system = assemble(problem, RULE, family, xi)
    assert_allclose(val, quadratic_energy(system, w_star), atol=1e-13)
    rng = np.random.default_rng(11)
    for _ in range(20):
        w = w_star + 0.5 * rng.standard_normal(2)
        assert quadratic_energy(system, w) >= val - 1e-12
    # and the value is bounded below by the unattainable best
    target_sq = bilinear(problem, RULE, problem.target, problem.target)
    assert val >= -0.5 * target_sq - 1e-12


def test_reduced_gradient_envelope_identity():
    # the reduced gradient never differentiates w*: check against a central
    # difference of the reduced energy itself
    problem, family = _setup()
    grads = make_gradients(problem, RULE, family)
    rng = np.random.default_rng(12)
    for _ in range(5):
        xi = family.domain.shrink(1e-3).sample(rng)
        g = reduced_gradient(grads, xi)
        h = 1e-5
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            kp, _ = reduced_energy(problem, RULE, family, xi + e)
            km, _ = reduced_energy(problem, RULE, family, xi - e)
            fd = (kp - km) / (2.0 * h)
            assert abs(g[i] - fd) <= 1e-6 * (1.0 + abs(fd))


# ---------------------------------------------------------------------------
# schedules and stopping validation
# ---------------------------------------------------------------------------


def test_schedule_validation():
    with pytest.raises(ConfigError):
        ConstantGamma(0.0)
    with pytest.raises(ConfigError):
        LipschitzAdaptive(zeta=2.0)
    with pytest.raises(ConfigError):
        LipschitzAdaptive(zeta=0.5, lipschitz="guess")
    with pytest.raises(ConfigError):
        LipschitzAdaptive(zeta=0.5, lipschitz=-1.0)
    with pytest.raises(ConfigError):
        LipschitzAdaptive(zeta=0.5, nu=0.0)
    with pytest.raises(ConfigError):
        StoppingCriteria(max_epochs=-1)
    with pytest.raises(ConfigError):
        StoppingCriteria(max_epochs=1, eps_xi=-0.1)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def _run_kwargs(**over):
    problem, family = _setup()
    kw = dict(
        problem=problem,
        rule=RULE,
        family=family,
        linear_rule=FullSolveCG(),
        geometry=EuclideanGeometry(),
        schedule=LipschitzAdaptive(zeta=0.9, lipschitz=5.0),
        stopping=StoppingCriteria(max_epochs=8),
        xi0=np.array([0.45, 0.55]),
    )
    kw.update(over)
    return kw


def test_run_record_shape_and_transitions():
    kw = _run_kwargs()
    rec = run(**kw)
    assert rec.termination in {"max_epochs", "xi_stabilised", "energy_plateau"}
    n = rec.n_steps
    assert n >= 1
    # one row per state, one per step, one value per run; a state's decrease
    # pair is that of the update reaching it, row 0 the initial update
    for field in ("K", "K_reduced", "lambda_max", "omega", "phi_u2",
                  "decrease_achieved", "decrease_guaranteed"):
        assert getattr(rec, field).shape == (n + 1,)
    assert rec.xi.shape == (n + 1, 2) and rec.w.shape == (n + 1, 2)
    for field in ("grad_map_norm", "step_norm", "grad_w_post_norm"):
        assert getattr(rec, field).shape == (n,)
    assert np.all(rec.decrease_achieved >= rec.decrease_guaranteed - 1e-9)
    assert_allclose(rec.gamma, 0.9 * 1.0 / 5.0)
    assert rec.lipschitz_L == 5.0 and rec.delta_star is None
    assert isinstance(rec.linear_rule, FullSolveCG)
    assert rec.hoelder_L == 5.0 and rec.schedule is kw["schedule"]
    # best tracking
    assert rec.best_K == min(rec.K)
    assert any(K == rec.best_K and np.array_equal(xi, rec.best_xi)
               for K, xi in zip(rec.K, rec.xi))
    assert rec.final_K <= rec.best_K + 1e-12
    # the final energy is that of the exact solve at the best parameters
    system = assemble(kw["problem"], RULE, kw["family"], rec.best_xi)
    assert np.linalg.norm(system.matrix @ system.solution - system.load) <= 1e-10
    assert rec.final_K == pytest.approx(quadratic_energy(system, system.solution), abs=1e-12)


@pytest.mark.parametrize("linear_rule", [FullSolveCG(), SteepestDescent(), Frozen()],
                         ids=["full_cg", "steepest_descent", "frozen"])
def test_best_state_is_the_first_of_least_energy_and_final_K_its_reduced_energy(linear_rule):
    # long enough for the energy to settle on a value it takes at several
    # states: the tie goes to the earlier state
    frozen = isinstance(linear_rule, Frozen)
    rec = run(**_run_kwargs(linear_rule=linear_rule, stopping=StoppingCriteria(max_epochs=400),
                            w0=np.array([0.7, 0.4]) if frozen else None,
                            schedule=ConstantGamma(0.05) if frozen else
                            LipschitzAdaptive(zeta=0.9, lipschitz=5.0)))
    least = np.flatnonzero(rec.K == rec.K.min())
    assert len(least) > 1
    best = least[0]
    assert rec.best_K == rec.K[best]
    assert rec.best_xi.tobytes() == rec.xi[best].tobytes()
    assert rec.best_w.tobytes() == rec.w[best].tobytes()
    # the final exact solve's energy is the best state's reduced energy, bitwise
    assert np.float64(rec.final_K).tobytes() == rec.K_reduced[best].tobytes()


def test_run_energies_nonincreasing_with_exact_solves():
    rec = run(**_run_kwargs(stopping=StoppingCriteria(max_epochs=15)))
    energies = rec.K
    assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))


def test_run_zero_epochs_is_single_galerkin_solve():
    problem, family = _setup()
    rec = run(**_run_kwargs(stopping=StoppingCriteria(max_epochs=0)))
    assert len(rec.K) == 1 and rec.step_norm.shape == (0,)
    assert rec.termination == "max_epochs"
    val, _ = reduced_energy(problem, RULE, family, np.array([0.45, 0.55]))
    assert_allclose(rec.K[0], val, atol=1e-11)


def test_run_stops_on_xi_stabilised():
    rec = run(**_run_kwargs(stopping=StoppingCriteria(max_epochs=50, eps_xi=1e3)))
    assert rec.termination == "xi_stabilised"
    assert rec.n_steps == 1


def test_run_records_stopped_point_residual():
    problem, family = _setup()
    rec = run(**_run_kwargs(stopping=StoppingCriteria(max_epochs=400, eps_xi=1.8e-4)))
    assert rec.termination == "xi_stabilised"
    system = assemble(problem, RULE, family, rec.xi[-1])
    fresh = float(np.linalg.norm(system.matrix @ system.solution - system.load))
    assert rec.stop_residual == fresh
    frozen = run(**_run_kwargs(linear_rule=Frozen(), w0=np.array([0.8, 0.5]),
                               stopping=StoppingCriteria(max_epochs=400, eps_xi=1.8e-4)))
    assert frozen.termination == "xi_stabilised" and frozen.stop_residual == 0.0
    assert run(**_run_kwargs()).stop_residual is None  # stopped by max_epochs


def test_run_on_a_chain_makes_no_prox_residual_call(count_calls):
    problem, _ = _setup()
    family = GaussianBumps(
        NonlinearDomain([0.1, 0.1], [0.9, 0.9], chains=((0, 1),), gap=0.5),
        np.array([0.1, 0.12]),
    )
    calls = count_calls("prox_optimality_residual", nonlinritz.updates)
    rec = run(**_run_kwargs(family=family, xi0=np.array([0.2, 0.75]),
                            stopping=StoppingCriteria(max_epochs=10)))
    assert rec.n_steps == 10
    # the gap constraint is active after the first step
    assert np.all(rec.xi[1:, 1] - rec.xi[1:, 0] <= 0.5 + 1e-12)
    assert calls == []


def test_run_stops_on_energy_plateau():
    rec = run(**_run_kwargs(
        stopping=StoppingCriteria(max_epochs=500, eps_energy=1e-9),
    ))
    assert rec.termination == "energy_plateau"
    assert rec.termination != "max_epochs"
    assert abs(rec.K[-1] - rec.K[-2]) <= 1e-9


def test_run_steepest_descent_kind():
    rec = run(**_run_kwargs(linear_rule=SteepestDescent(),
                            stopping=StoppingCriteria(max_epochs=3)))
    assert isinstance(rec.linear_rule, SteepestDescent)
    energies = rec.K
    assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))


def test_run_frozen_requires_and_keeps_w0():
    with pytest.raises(ConfigError):
        run(**_run_kwargs(linear_rule=Frozen()))
    rec = run(**_run_kwargs(
        linear_rule=Frozen(),
        w0=np.array([0.7, 0.4]),
        schedule=ConstantGamma(0.05),
        stopping=StoppingCriteria(max_epochs=4),
    ))
    assert isinstance(rec.linear_rule, Frozen) and rec.frozen
    for w in rec.w:
        assert_allclose(w, [0.7, 0.4])
    assert np.array_equal(rec.K, rec.K_reduced)  # frozen runs report the frozen energy
    assert rec.decrease_achieved is None and rec.decrease_guaranteed is None


def test_run_rejects_bad_w0_shape():
    with pytest.raises(ConfigError):
        run(**_run_kwargs(w0=np.zeros(3)))


@pytest.mark.parametrize("xi0", [[0.45], [0.05, 0.55]], ids=["short", "outside"])
def test_run_rejects_a_start_outside_the_domain(xi0):
    # a config with such a start is refused when parsed (exit 2); the
    # library keeps raising the domain error
    with pytest.raises(DomainViolationError):
        run(**_run_kwargs(xi0=np.array(xi0)))


def test_run_omega_min_guard():
    with pytest.raises(NumericalError, match="omega"):
        run(**_run_kwargs(omega_min=1e9))


@pytest.mark.parametrize("failing, raised", [
    ("decrease_check", "decrease_check fails"),
    ("_reduced", "Lipschitz surrogate is zero"),
])
def test_run_and_replay_size_the_step_between_the_start_checks(monkeypatch, failing, raised):
    # a zero Lipschitz estimate and a failing check of the start: the step is
    # sized after the initial update's decrease check and before its reduced
    # energy is checked, so the earlier of the two errors is raised, by the
    # run and by the replay of any states
    states = np.hstack([(r := run(**_run_kwargs())).xi, r.w])
    kw = _run_kwargs(schedule=LipschitzAdaptive(zeta=0.9))

    def fails(*args, **kwargs):
        raise NumericalError(f"{failing} fails")

    monkeypatch.setattr(nonlinritz.optimizer, "estimate_lipschitz_L", lambda *a, **k: 0.0)
    monkeypatch.setattr(nonlinritz.optimizer, failing, fails)
    for rebuild in (lambda: run(**kw), lambda: replay(states=states, **kw)):
        with pytest.raises(NumericalError, match=raised):
            rebuild()


def test_run_constant_gamma_has_no_hoelder_record():
    schedule = ConstantGamma(0.01)
    rec = run(**_run_kwargs(schedule=schedule, stopping=StoppingCriteria(max_epochs=2)))
    assert rec.hoelder_L is None and rec.schedule is schedule
    assert rec.gamma == 0.01 and rec.lipschitz_L is None


def test_run_records_delta_star():
    center = np.array([0.3, 0.7])
    rec = run(**_run_kwargs(
        delta_star_fn=lambda xi: 0.5 * float(np.sum((xi - center) ** 2)),
        stopping=StoppingCriteria(max_epochs=3),
    ))
    assert rec.delta_star.shape == (len(rec.K),)
    assert_allclose(rec.delta_star, 0.5 * np.sum((rec.xi - center) ** 2, axis=1))


def test_run_diagonal_geometry_mu():
    rec = run(**_run_kwargs(
        geometry=DiagonalGeometry([2.0, 4.0]),
        stopping=StoppingCriteria(max_epochs=2),
    ))
    assert rec.mu == 2.0
    assert_allclose(rec.gamma, 0.9 * 2.0 / 5.0)
