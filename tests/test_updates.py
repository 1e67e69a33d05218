import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from nonlinritz.assembly import AssembledSystem, Evaluator, assemble, quadratic_energy
from nonlinritz.basis import (
    FreeKnotHats,
    GaussianBumps,
    IndicatorPair,
    NonlinearDomain,
    SyntheticAmplitude,
)
from nonlinritz.errors import ConfigError, SpdViolationError
from nonlinritz.optimizer import estimate_lipschitz_L
from nonlinritz.updates import (
    DiagonalGeometry,
    EuclideanGeometry,
    Frozen,
    FullSolveCG,
    SteepestDescent,
    central_differences,
    gradient_mapping,
    make_gradients,
    prox_optimality_residual,
    prox_step,
    update_linear,
)
from nonlinritz.variational import (
    DiffusionReaction1D,
    Field,
    L2Approx,
    QuadratureRule,
)

from helpers import constant, decrease

RULE = QuadratureRule.on_interval(0.0, 1.0, n_panels=16, order=5)


def _toy_system(matrix, load):
    matrix = np.asarray(matrix, dtype=float)
    return AssembledSystem(
        xi=np.zeros(1),
        matrix=matrix,
        load=np.asarray(load, dtype=float),
        gram=matrix,
    )


# ---------------------------------------------------------------------------
# the exact solve and the spectrum of an assembled system
# ---------------------------------------------------------------------------


def test_solution_solves_spd_system():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((6, 6))
    A = B @ B.T + 6 * np.eye(6)
    b = rng.standard_normal(6)
    x = _toy_system(A, b).solution
    assert np.linalg.norm(b - A @ x) <= 1e-13 * np.linalg.norm(b)


def test_solution_of_zero_load_is_zero():
    system = _toy_system(np.diag([1.0, 2.0]), np.zeros(2))
    assert_allclose(system.solution, np.zeros(2), atol=0.0)


def test_solution_is_minimum_norm_on_consistent_singular_system():
    # A = Q diag(0, 1, 3) Q^T with the load in the range of A: the
    # pseudo-inverse solution has no component along the kernel vector
    Q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((3, 3)))
    A = Q @ np.diag([0.0, 1.0, 3.0]) @ Q.T
    A = 0.5 * (A + A.T)
    w_true = Q[:, 1] * 2.0 - Q[:, 2] * 0.5
    system = _toy_system(A, A @ w_true)
    w = system.solution
    assert_allclose(A @ w, system.load, atol=1e-13)
    assert abs(Q[:, 0] @ w) <= 1e-13
    assert_allclose(w, w_true, atol=1e-13)
    assert system.lambda_min == pytest.approx(0.0, abs=1e-14)
    assert system.lambda_max == pytest.approx(3.0, rel=1e-14)


def test_solution_rejects_indefinite():
    system = _toy_system(np.diag([1.0, -1.0]), [1.0, 1.0])
    with pytest.raises(SpdViolationError):
        system.solution


def test_l2_system_decomposes_once(count_calls):
    calls = count_calls("eigh", np.linalg)
    values_only = count_calls("eigvalsh", np.linalg)
    problem = L2Approx(Field(lambda x: np.sin(3.0 * x)))
    family = GaussianBumps(NonlinearDomain([0.1, 0.1], [0.9, 0.9]), widths=[0.1, 0.15])
    system = assemble(problem, RULE, family, np.array([0.3, 0.7]))
    assert system.gram is system.matrix
    assert calls == [] and values_only == []  # assembling alone decomposes nothing
    stats = (system.lambda_min, system.lambda_max, system.omega, system.phi_u2)
    assert calls == [] and len(values_only) == 1  # the statistics: one eigvalsh
    w = system.solution
    assert calls == [] and len(values_only) == 1  # the solve decomposes nothing more
    assert stats[2] == stats[0]
    assert_allclose(system.matrix @ w, system.load, atol=1e-12)


# ---------------------------------------------------------------------------
# linear update rules and the guaranteed decrease
# ---------------------------------------------------------------------------


def test_steepest_descent_hand_example():
    # A = diag(1, 2), load (1, 2), start 0: beta = (r.r)/(r.Ar) = 5/9;
    # achieved drop 25/18, guaranteed 0.5 * (1/2) * 5 = 1.25
    system = _toy_system(np.diag([1.0, 2.0]), [1.0, 2.0])
    w0 = np.zeros(2)
    w1 = update_linear(SteepestDescent(), system, w0)
    assert_allclose(w1, [5.0 / 9.0, 10.0 / 9.0], rtol=1e-15)
    achieved, guaranteed = decrease(system, w0, w1)
    assert_allclose(achieved, 25.0 / 18.0, rtol=1e-15)
    assert_allclose(guaranteed, 1.25, rtol=1e-15)
    assert achieved >= guaranteed


def test_steepest_descent_at_zero_residual_keeps_w():
    system = _toy_system(np.diag([1.0, 2.0]), [1.0, 2.0])
    w = np.array([1.0, 1.0])
    w1 = update_linear(SteepestDescent(), system, w)
    assert w1.tobytes() == w.tobytes() and w1 is not w


def test_steepest_descent_refuses_non_positive_curvature():
    system = _toy_system(np.diag([-1.0, 2.0]), [1.0, 0.0])
    with pytest.raises(SpdViolationError, match="non-positive curvature"):
        update_linear(SteepestDescent(), system, np.zeros(2))


def test_full_solve_exact_and_decrease():
    system = _toy_system(np.diag([1.0, 2.0]), [1.0, 2.0])
    w1 = update_linear(FullSolveCG(), system, np.zeros(2))
    assert_allclose(w1, [1.0, 1.0], rtol=1e-12)
    achieved, guaranteed = decrease(system, np.zeros(2), w1)
    assert_allclose(achieved, 1.5, rtol=1e-12)
    assert achieved >= guaranteed


def test_frozen_keeps_coefficients():
    system = _toy_system(np.diag([1.0, 2.0]), [1.0, 2.0])
    w = np.array([0.3, -0.4])
    w1 = update_linear(Frozen(), system, w)
    assert_allclose(w1, w)
    assert w1 is not w  # defensive copy


def test_decrease_holds_on_random_systems():
    rng = np.random.default_rng(4)
    for _ in range(25):
        B = rng.standard_normal((4, 4))
        system = _toy_system(B @ B.T + 0.5 * np.eye(4), rng.standard_normal(4))
        w = rng.standard_normal(4)
        for rule in (FullSolveCG(), SteepestDescent()):
            w1 = update_linear(rule, system, w)
            achieved, guaranteed = decrease(system, w, w1)
            assert achieved >= guaranteed - 1e-9


# ---------------------------------------------------------------------------
# Bregman geometries and the prox step
# ---------------------------------------------------------------------------


def test_geometry_moduli():
    assert EuclideanGeometry().mu == 1.0
    with pytest.raises(TypeError):  # psi = 0.5 ||xi||^2 fixes the modulus
        EuclideanGeometry(mu=2.0)
    geom = DiagonalGeometry([2.0, 0.5, 4.0])
    assert geom.mu == 0.5
    with pytest.raises(ConfigError):
        DiagonalGeometry([1.0, 0.0])


def test_bregman_divergence_values():
    e = np.array([1.0, 2.0])
    x = np.array([0.0, 0.0])
    assert_allclose(EuclideanGeometry().div(e, x), 2.5)
    assert_allclose(DiagonalGeometry([2.0, 1.0]).div(e, x), 3.0)


def test_scalar_diagonal_is_a_multiple_of_the_identity():
    # a scalar diag c means c*I in any dimension; EuclideanGeometry is c = 1
    assert EuclideanGeometry() == DiagonalGeometry(1.0)
    geom = DiagonalGeometry(2.0)
    assert geom.mu == 2.0
    for dim in (1, 3):
        assert geom.weights(dim).tolist() == [2.0] * dim
        # made once per dimension, and read-only since every prox step shares it
        assert geom.weights(dim) is geom.weights(dim) and not geom.weights(dim).flags.writeable
    e, x = np.array([1.0, 2.0, 2.0]), np.zeros(3)
    assert geom.div(e, x) == 9.0
    assert geom.div(np.stack([e, -e]), x).tolist() == [9.0, 9.0]
    assert geom.grad_psi(e).tolist() == [2.0, 4.0, 4.0]
    with pytest.raises(ConfigError):
        DiagonalGeometry(0.0)
    with pytest.raises(ConfigError, match="size 2, expected 3"):
        DiagonalGeometry([1.0, 2.0]).div(e, x)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 24), st.integers(1, 40), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_stacked_divergence_is_bitwise_the_scalar_one(dim, n, seed, weighted):
    rng = np.random.default_rng(seed)
    geom = DiagonalGeometry(rng.uniform(0.1, 10.0, dim)) if weighted else EuclideanGeometry()
    eta = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-8.0, 3.0)
    xi = rng.standard_normal(dim)
    got = geom.div(eta, xi)
    assert got.shape == (n,)
    assert got.tobytes() == np.array([geom.div(p, xi) for p in eta]).tobytes()


def test_prox_step_interior_is_plain_gradient_step():
    dom = NonlinearDomain([0.0, 0.0], [1.0, 1.0])
    xi = np.array([0.5, 0.5])
    g = np.array([1.0, -1.0])
    got = prox_step(EuclideanGeometry(), dom, xi, g, 0.25)
    assert_allclose(got, [0.25, 0.75])
    # the gradient mapping then reproduces the gradient itself
    assert_allclose(gradient_mapping(xi, got, 0.25), g)


def test_prox_step_diagonal_geometry_scales_per_coordinate():
    dom = NonlinearDomain([0.0, 0.0], [1.0, 1.0])
    got = prox_step(
        DiagonalGeometry([1.0, 4.0]), dom, np.array([0.5, 0.5]),
        np.array([1.0, 1.0]), 0.4,
    )
    assert_allclose(got, [0.1, 0.4])


def test_prox_step_clips_to_box():
    dom = NonlinearDomain([0.0, 0.0], [1.0, 1.0])
    got = prox_step(EuclideanGeometry(), dom, np.array([0.5, 0.5]),
                    np.array([1.0, -1.0]), 1.0)
    assert_allclose(got, [0.0, 1.0])


def test_prox_step_is_bregman_minimiser_by_grid_search():
    # brute-force the prox objective over a fine feasible grid
    dom = NonlinearDomain([0.0, 0.0], [1.0, 1.0], chains=((0, 1),), gap=0.2)
    geom = DiagonalGeometry([1.0, 3.0])
    xi = np.array([0.62, 0.7])
    g = np.array([-2.0, 1.5])
    gamma = 0.3
    got = prox_step(geom, dom, xi, g, gamma)

    def objective(eta):
        return gamma * float(g @ eta) + geom.div(eta, xi)

    best = np.inf
    for a in np.linspace(0, 1, 201):
        for b in np.linspace(0, 1, 201):
            eta = np.array([a, b])
            if not dom.violations(eta):
                best = min(best, objective(eta))
    assert not dom.violations(got)
    assert objective(got) <= best + 1e-4


def test_prox_optimality_residual_certifies_the_step():
    rng = np.random.default_rng(9)
    dom = NonlinearDomain([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], chains=((0, 1, 2),),
                          gap=0.1)
    geom = DiagonalGeometry([1.0, 2.0, 0.5])
    for _ in range(25):
        xi = dom.sample(rng)
        g = rng.standard_normal(3)
        gamma = 10.0 ** rng.uniform(-2, 0.5)
        xp = prox_step(geom, dom, xi, g, gamma)
        assert prox_optimality_residual(geom, dom, xi, g, gamma, xp) <= 1e-8
    # a deliberately wrong answer is flagged
    xi = np.array([0.2, 0.5, 0.8])
    g = np.array([1.0, 0.0, 0.0])
    wrong = np.array([0.5, 0.65, 0.8])
    assert prox_optimality_residual(geom, dom, xi, g, 0.1, wrong) > 1e-3


@st.composite
def points_on_constraints(draw):
    """A box with up to two chains, a point with coordinates on bounds and
    links at the gap (or within 1e-10 of them), and a vector of any scale."""
    n = draw(st.integers(1, 5))
    lower = np.zeros(n)
    upper = np.array([draw(st.sampled_from([0.0, 1.0, 1.0])) for _ in range(n)])
    cut = draw(st.integers(0, n))
    chains = tuple(c for c in (tuple(range(cut)), tuple(range(cut, n))) if len(c) > 1)
    gap = draw(st.sampled_from([0.0, 0.0, 0.1]))
    dom = NonlinearDomain(lower, np.maximum(upper, (n - 1) * gap), chains=chains, gap=gap)
    p = np.empty(n)
    for i in range(n):
        anchor = draw(st.sampled_from(["lower", "upper", "link", "free"]))
        if anchor == "link" and i > 0:
            p[i] = p[i - 1] + gap
        elif anchor == "free":
            p[i] = draw(st.floats(0.0, 1.0))
        else:
            p[i] = dom.upper[i] if anchor == "upper" else dom.lower[i]
        p[i] += draw(st.sampled_from([0.0, 0.0, 1e-10, -1e-10]))
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    return dom, p, v * 10.0 ** draw(st.integers(-8, 3))


def active_normals(dom, p, atol):
    """Outward normals of the constraints active at ``p``: -e_i at a lower
    bound, e_i at an upper one, e_a - e_b for a chain link (a, b) at the gap."""
    eye = np.eye(dom.dim)
    cols = [-eye[i] for i in range(dom.dim) if p[i] <= dom.lower[i] + atol]
    cols += [eye[i] for i in range(dom.dim) if p[i] >= dom.upper[i] - atol]
    cols += [eye[a] - eye[b] for c in dom.chains for a, b in zip(c[:-1], c[1:])
             if p[b] - p[a] <= dom.gap + atol]
    return np.array(cols).reshape(-1, dom.dim).T


def brute_force_nnls_residual(N, v):
    """min ||N c - v|| over c >= 0: the smallest residual of a least-squares
    fit with nonnegative coefficients on a set of independent columns, over
    every such set."""
    best = float(np.linalg.norm(v))
    for size in range(1, min(N.shape) + 1):
        for cols in itertools.combinations(range(N.shape[1]), size):
            sub = N[:, cols]
            if np.linalg.matrix_rank(sub) < size:
                continue
            c = np.linalg.lstsq(sub, v, rcond=None)[0]
            if np.all(c >= 0.0):
                best = min(best, float(np.linalg.norm(v - sub @ c)))
    return best


@settings(max_examples=200, deadline=None)
@given(points_on_constraints())
def test_normal_cone_distance_matches_brute_force_nnls(case):
    dom, p, v = case
    atol = 1e-9
    want = brute_force_nnls_residual(active_normals(dom, p, atol), v)
    assert abs(dom.normal_cone_distance(p, v, atol) - want) <= 1e-12 * (
        1.0 + float(np.linalg.norm(v)))


# ---------------------------------------------------------------------------
# energy gradients
# ---------------------------------------------------------------------------


def _l2_problem():
    return L2Approx(Field(lambda x: np.sin(np.pi * x)))


def _h1_problem():
    return DiffusionReaction1D(
        diffusivity=Field(lambda x: 1.0 + 0.5 * x),
        reaction=constant(1.0),
        source=constant(1.0),
        x_lo=0.0,
        x_hi=1.0,
        bc_lo=0.2,
        bc_hi=-0.1,
    )


def test_analytic_grad_matches_fd_gaussians_l2():
    fam = GaussianBumps(NonlinearDomain([0.1] * 2, [0.9] * 2), np.array([0.1, 0.12]))
    grads = make_gradients(_l2_problem(), RULE, fam)
    assert grads.mode == "analytic"
    fd = make_gradients(_l2_problem(), RULE, fam, mode="fd", fd_step=1e-6)
    rng = np.random.default_rng(5)
    for _ in range(5):
        xi = fam.domain.sample(rng)
        w = rng.standard_normal(2)
        assert_allclose(grads.grad_xi(w, xi), fd.grad_xi(w, xi), atol=1e-8)


def test_fd_grad_hats_h1_matches_direct_difference():
    # knot motion leaves H1, so hats under the Dirichlet energy use fd; check
    # it against an independent central difference of the assembled energy
    dom = NonlinearDomain([0.15, 0.15], [0.85, 0.85], chains=((0, 1),), gap=0.1)
    fam = FreeKnotHats(dom, 0.0, 1.0, dirichlet=True)
    problem = _h1_problem()
    grads = make_gradients(problem, RULE, fam, mode="fd", fd_step=1e-6)
    rng = np.random.default_rng(6)
    for _ in range(3):
        xi = dom.shrink(0.01).sample(rng)
        w = rng.standard_normal(fam.n_linear)
        got = grads.grad_xi(w, xi)
        h = 1e-5
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            kp = quadratic_energy(assemble(problem, RULE, fam, xi + e), w)
            km = quadratic_energy(assemble(problem, RULE, fam, xi - e), w)
            assert abs(got[i] - (kp - km) / (2 * h)) <= 1e-5 * (1 + abs(got[i]))


def test_central_differences_skip_a_coordinate_narrower_than_two_steps():
    # xi[1] is fixed and xi[2] is narrower than two steps of 1e-6: neither
    # takes a probe, both get derivative 0, and xi[0] is differenced as alone
    dom = NonlinearDomain([0.1, 0.5, 0.3], [0.9, 0.5, 0.3 + 1.5e-6])
    fam = GaussianBumps(dom, np.array([0.1, 0.12, 0.08]))
    points = np.array([[0.45, 0.5, 0.3], [0.6, 0.5, 0.3000015]])
    probes = []

    def value(stack):
        return np.sin(3.0 * stack[:, 0]) + stack[:, 1] ** 2 + stack[:, 2]

    def energy(stack, owner):
        assert all(not dom.violations(p) for p in stack)
        probes.append(stack)
        return value(stack)

    g = central_differences(energy, Evaluator(_l2_problem(), RULE, fam), points, 1e-6)
    stacked = np.concatenate(probes)
    assert stacked.shape == (2 * 2, 3)  # two probes of one coordinate per point
    assert np.array_equal(stacked[:, 1:], np.repeat(points[:, 1:], 2, axis=0))
    assert np.all(g[:, 1:] == 0.0)
    up, down = points.copy(), points.copy()
    up[:, 0] += 1e-6
    down[:, 0] -= 1e-6
    assert np.array_equal(g[:, 0], (value(up) - value(down)) / 2e-6)
    # no coordinate wide enough: no probe at all
    fixed = GaussianBumps(NonlinearDomain([0.5], [0.5]), np.array([0.1]))
    assert central_differences(energy, Evaluator(_l2_problem(), RULE, fixed), [0.5],
                               1e-6).tolist() == [0.0]
    assert len(probes) == 1


def test_fd_lipschitz_estimate_samples_a_domain_with_a_fixed_coordinate():
    # only the probed coordinate is shrunk by the difference step; shrinking
    # the fixed one as well leaves lower > upper
    dom = NonlinearDomain([0.1, 0.5], [0.9, 0.5])
    fam = GaussianBumps(dom, np.array([0.1, 0.12]))
    L = estimate_lipschitz_L(make_gradients(_l2_problem(), RULE, fam, mode="fd"),
                             [1.0, 0.5], n_pairs=4, seed=0)
    assert np.isfinite(L) and L > 0.0


def test_indicator_closed_form_matches_fd():
    dom = NonlinearDomain([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], chains=((0, 1, 2),),
                          gap=0.05)
    fam = IndicatorPair(dom)
    grads = make_gradients(_l2_problem(), RULE, fam)  # auto -> closed_form
    assert grads.mode == "closed_form"
    fd = make_gradients(_l2_problem(), RULE, fam, mode="fd", fd_step=1e-5)
    rng = np.random.default_rng(7)
    for _ in range(5):
        xi = dom.shrink(0.02).sample(rng)
        w = rng.standard_normal(2)
        # fd of the quadrature energy is noisy for indicators (panel splits
        # move with xi); the closed form is the trustworthy one
        assert_allclose(grads.grad_xi(w, xi), fd.grad_xi(w, xi), atol=5e-4)


def test_hats_under_h1_need_fd():
    dom = NonlinearDomain([0.1, 0.1], [0.9, 0.9], chains=((0, 1),), gap=0.05)
    fam = FreeKnotHats(dom, 0.0, 1.0, dirichlet=True)
    problem = _h1_problem()
    auto = make_gradients(problem, RULE, fam)
    assert auto.mode == "fd"  # knot motion leaves H1: no analytic route
    # a route is not a mode: auto picks it
    with pytest.raises(ConfigError, match="unknown gradient mode 'analytic'"):
        make_gradients(problem, RULE, fam, mode="analytic")
    # under the L2 energy the same family supports the analytic route
    l2_auto = make_gradients(_l2_problem(), RULE, fam)
    assert l2_auto.mode == "analytic"


@pytest.mark.parametrize(
    "family",
    [
        GaussianBumps(NonlinearDomain([0.1] * 2, [0.9] * 2), np.array([0.1, 0.1])),
        SyntheticAmplitude(NonlinearDomain([-1.0] * 2, [1.0] * 2)),
        IndicatorPair(NonlinearDomain([0.0] * 3, [1.0] * 3, chains=((0, 1, 2),))),
    ],
    ids=["gaussian", "synthetic", "indicator"],
)
def test_h1_energy_has_no_analytic_route(family):
    # every H1 gradient goes through finite differences of the assembled energy,
    # and no mode asks for another route
    for mode in ("analytic", "closed_form"):
        with pytest.raises(ConfigError, match=f"unknown gradient mode '{mode}'"):
            make_gradients(_h1_problem(), RULE, family, mode=mode)
    assert make_gradients(_h1_problem(), RULE, family).mode == "fd"


def test_hats_analytic_matches_fd_l2():
    dom = NonlinearDomain([0.1, 0.1], [0.9, 0.9], chains=((0, 1),), gap=0.1)
    fam = FreeKnotHats(dom, 0.0, 1.0)
    grads = make_gradients(_l2_problem(), RULE, fam)
    assert grads.mode == "analytic"
    fd = make_gradients(_l2_problem(), RULE, fam, mode="fd", fd_step=1e-6)
    rng = np.random.default_rng(8)
    for _ in range(5):
        xi = dom.shrink(0.01).sample(rng)
        w = rng.standard_normal(fam.n_linear)
        assert_allclose(grads.grad_xi(w, xi), fd.grad_xi(w, xi), atol=1e-6)


def test_synthetic_amplitude_gradient():
    # K(1, xi) = scale^2 (||xi||^2 - R^2)^2 on the quartic profile; its
    # gradient is 4 scale^2 (||xi||^2 - R^2) xi
    dom = NonlinearDomain([-2.0, -2.0], [2.0, 2.0])
    fam = SyntheticAmplitude(dom, profile="sphere_quartic", radius=1.0, scale=0.7)
    problem = L2Approx(constant(0.0))
    grads = make_gradients(problem, RULE, fam)
    assert grads.mode == "analytic"
    xi = np.array([0.8, -0.5])
    r2 = float(xi @ xi)
    expect = 4.0 * 0.49 * (r2 - 1.0) * xi
    assert_allclose(grads.grad_xi(np.ones(1), xi), expect, rtol=1e-12)


def test_energy_is_the_assembled_quadratic_energy():
    fam = GaussianBumps(NonlinearDomain([0.1] * 2, [0.9] * 2), np.array([0.1, 0.1]))
    problem = _l2_problem()
    grads = make_gradients(problem, RULE, fam)
    xi = np.array([0.4, 0.7])
    w = np.array([0.5, -0.2])
    # the oracle's evaluator assembles what a one-shot assemble does, bitwise
    kept, alone = grads.evaluator.assemble(xi), assemble(problem, RULE, fam, xi)
    for name in ("matrix", "load", "gram"):
        assert getattr(kept, name).tobytes() == getattr(alone, name).tobytes()
    assert quadratic_energy(kept, w) == quadratic_energy(alone, w)
