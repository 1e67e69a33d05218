"""One evaluation per visited point.

A system keeps the evaluation it was assembled from (quadrature split,
field values, the family on the nodes), and the analytic parameter
gradient reads it.  These tests check that the gradient read from a kept
evaluation is bitwise the one from a fresh evaluation at the same
``(w, xi)``, and count the evaluations a run and its replay make, and the
field evaluations of a grid oracle and of ``check``.
"""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

import nonlinritz.assembly
from nonlinritz.assembly import Evaluator, assemble
from nonlinritz.basis import FreeKnotHats, GaussianBumps, NonlinearDomain, SyntheticAmplitude
from nonlinritz.certify import minimiser_grid_oracle
from nonlinritz.cli import main
from nonlinritz.optimizer import (
    ConstantGamma,
    LipschitzAdaptive,
    StoppingCriteria,
    replay,
    run,
)
from nonlinritz.updates import EuclideanGeometry, FullSolveCG, make_gradients
from nonlinritz.variational import Field, L2Approx, QuadratureRule

RULE = QuadratureRule.on_interval(0.0, 1.0, n_panels=8, order=4)
PANEL_EDGES = RULE.boundaries[1:-1].tolist()


def fresh_gradient(grads, w, xi):
    """grad_xi K(w, xi) at one point from a fresh evaluation, as the analytic
    route computed it before systems kept their evaluation: the rule split at
    the point's breakpoints, the family and the target evaluated there again,
    then ``d_i K = (u, d_i u) - (f, d_i u)``: for hats the cell kernel, for
    every other family contracted dense values."""
    problem, family = grads.evaluator.problem, grads.evaluator.family
    r = grads.evaluator.rule.split_at((*family.breakpoints(xi), *problem.coefficient_breakpoints()))
    ev = family.evaluate(xi[None], r.nodes)
    f = problem.target.values(r.nodes)
    if isinstance(family, FreeKnotHats):
        return family.knot_gradient(ev, w[None], r.weights, r.weights * f)[0]
    u, du = np.vecmat(w[None], family.values_of(ev)), family.dparam_values(ev, w[None])
    return (np.matvec(du, r.weights * u) - np.matvec(du, r.weights * f))[0]


def _assert_parity(problem, family, points, seed):
    grads = make_gradients(problem, RULE, family)
    assert grads.mode == "analytic"
    w = np.random.default_rng(seed).standard_normal((len(points), family.n_linear))
    stack = grads.evaluator.assemble(points)
    kept = grads.grad_xi(w, stack)
    for i, xi in enumerate(points):
        want = fresh_gradient(grads, w[i], xi).tobytes()
        assert kept[i].tobytes() == want
        assert grads.grad_xi(w[i], grads.evaluator.assemble(xi)).tobytes() == want
        assert grads.grad_xi(w[i], assemble(problem, RULE, family, xi)).tobytes() == want
    # points never assembled are evaluated afresh
    assert grads.grad_xi(w, points).tobytes() == kept.tobytes()


TARGET = L2Approx(Field(lambda x: np.sin(5.0 * x + 0.2) + 0.4 * np.exp(-30.0 * (x - 0.6) ** 2),
                        None, (0.45,)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), count=st.integers(1, 5), data=st.data())
def test_gaussian_bump_gradient_from_kept_evaluation(n, count, data):
    widths = data.draw(st.lists(st.floats(0.05, 0.3), min_size=n, max_size=n))
    family = GaussianBumps(NonlinearDomain([0.05] * n, [0.95] * n), widths)
    points = np.array(data.draw(st.lists(st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n),
                                         min_size=count, max_size=count)))
    _assert_parity(TARGET, family, points, data.draw(st.integers(0, 2 ** 32 - 1)))


# a knot on a panel edge adds no panel, so stacks mix splits of different
# panel counts, evaluated group by group
_KNOT = st.one_of(st.floats(0.02, 0.98), st.sampled_from(PANEL_EDGES))


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 5), count=st.integers(1, 5), dirichlet=st.booleans(), data=st.data())
def test_free_knot_hat_gradient_from_kept_evaluation(m, count, dirichlet, data):
    chains = (tuple(range(m)),) if m > 1 else ()
    family = FreeKnotHats(NonlinearDomain([0.02] * m, [0.98] * m, chains=chains), 0.0, 1.0,
                          dirichlet=dirichlet)
    points = np.sort(data.draw(st.lists(st.lists(_KNOT, min_size=m, max_size=m),
                                        min_size=count, max_size=count)), axis=1)
    _assert_parity(TARGET, family, np.array(points), data.draw(st.integers(0, 2 ** 32 - 1)))


def test_hat_stack_with_splits_of_different_panel_counts():
    family = FreeKnotHats(NonlinearDomain([0.02] * 2, [0.98] * 2, chains=((0, 1),)), 0.0, 1.0)
    points = np.array([[0.3, 0.6], [0.25, 0.5], [0.125, 0.7], [0.31, 0.77]])
    system = assemble(TARGET, RULE, family, points)
    assert len(system.evaluation.groups) == 3
    _assert_parity(TARGET, family, points, 5)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 3), count=st.integers(1, 5),
       profile=st.sampled_from(["sphere_quartic", "norm"]), data=st.data())
def test_synthetic_amplitude_gradient_from_kept_evaluation(d, count, profile, data):
    family = SyntheticAmplitude(NonlinearDomain([-1.5] * d, [1.5] * d), profile=profile,
                                radius=0.8, scale=0.7)
    points = np.array(data.draw(st.lists(st.lists(st.floats(-1.5, 1.5), min_size=d, max_size=d),
                                         min_size=count, max_size=count)))
    _assert_parity(TARGET, family, points, data.draw(st.integers(0, 2 ** 32 - 1)))


# ---------------------------------------------------------------------------
# evaluations counted
# ---------------------------------------------------------------------------


def _counted_target(calls):
    def values(x):
        calls.append(np.shape(x))
        return np.sin(12.0 * x) * np.exp(-x) + 0.5 * np.exp(-0.5 * ((x - 0.5) / 0.02) ** 2)
    return L2Approx(Field(values))


def _bumps(problem, epochs=12):
    """Keyword arguments of a run of six ordered Gaussian bumps."""
    n = 6
    family = GaussianBumps(NonlinearDomain([0.02] * n, [0.98] * n, chains=(tuple(range(n)),),
                                           gap=0.035), [0.08] * n)
    return dict(problem=problem, rule=RULE, family=family, linear_rule=FullSolveCG(),
                geometry=EuclideanGeometry(), stopping=StoppingCriteria(max_epochs=epochs),
                xi0=np.linspace(0.05, 0.6, n))


def test_bumps_run_evaluates_each_visited_point_once(count_calls):
    targets = []
    phi = count_calls("_phi", GaussianBumps)
    rec = run(schedule=LipschitzAdaptive(zeta=0.5, n_pairs=5), **_bumps(_counted_target(targets)))
    assert rec.n_steps == 12
    # one evaluation per visited state and one for the Lipschitz stack; the
    # target on the one shared node set once
    assert len(phi) == rec.n_steps + 2
    assert len(targets) <= 2


def test_l2_hat_run_locates_its_nodes_once_per_state(count_calls):
    m = 6
    family = FreeKnotHats(NonlinearDomain([0.02] * m, [0.98] * m, chains=(tuple(range(m)),),
                                          gap=0.001), 0.0, 1.0)
    located = count_calls("_locate", FreeKnotHats)
    rec = run(TARGET, RULE, family, FullSolveCG(), EuclideanGeometry(),
              LipschitzAdaptive(zeta=0.5, n_pairs=4), StoppingCriteria(max_epochs=5),
              np.linspace(0.1, 0.9, m))
    assert rec.n_steps == 5
    assert len(located) == len(rec.K) + 1


def test_replay_evaluates_each_state_once(monkeypatch):
    kw = _bumps(_counted_target([]), epochs=40)
    schedule = ConstantGamma(0.02)
    rec = run(schedule=schedule, **kw)
    states = np.hstack((rec.xi, rec.w))
    evaluated = []
    clean = Evaluator.evaluate

    def counted(self, xi):
        evaluated.extend(np.atleast_2d(xi).tolist())
        return clean(self, xi)

    monkeypatch.setattr(Evaluator, "evaluate", counted)
    # blocks of a few states, so that the states come in several blocks
    monkeypatch.setattr(nonlinritz.assembly, "_STACK_ELEMENTS", 2_000)
    again, faults = replay(schedule=schedule, states=states, **kw)
    assert faults == []
    assert evaluated == states[:, :kw["family"].n_nonlinear].tolist()
    assert again.best_K == rec.best_K


def test_fixed_breakpoint_grid_oracle_evaluates_the_fields_once(count_calls):
    # the bumps move no breakpoint, so every block shares one node set
    family = GaussianBumps(NonlinearDomain([0.1, 0.1], [0.9, 0.9]), [0.1, 0.1])
    fields = count_calls("_field_values", nonlinritz.assembly)
    oracle = minimiser_grid_oracle(TARGET, RULE, family, resolution=0.015)
    assert len(Evaluator(TARGET, RULE, family).slices(oracle.points)) > 1
    assert len(fields) == 1


def test_check_on_bumps_evaluates_the_fields_once(tmp_path, count_calls):
    # the sampled systems, the start, the reduced gradients and their
    # difference probes are all assembled by one evaluator
    data = {
        "problem": {"kind": "l2", "target": "gauss(x, 0.3, 0.1)", "x_lo": 0.0, "x_hi": 1.0},
        "constants": {"alpha": 1.0, "norm_a": 1.0, "norm_ell": 1.0},
        "family": {"kind": "gaussian_bumps", "widths": [0.1, 0.12]},
        "domain": {"lower": [0.1, 0.1], "upper": [0.9, 0.9]},
        "schedule": {"kind": "constant", "gamma": 0.1},
        "stopping": {"max_epochs": 5},
        "init": {"xi0": [0.45, 0.55]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    fields = count_calls("_field_values", nonlinritz.assembly)
    assert main(["check", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    assert len(fields) == 1
