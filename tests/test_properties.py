"""Property tests of the proximal step, the projection, assembly and the
linear-update decrease inequality over random domains, families and data."""

import numpy as np
from hypothesis import given, settings, strategies as st

from nonlinritz.assembly import assemble, quadratic_energy
from nonlinritz.basis import FreeKnotHats, GaussianBumps, NonlinearDomain
from nonlinritz.updates import (
    DiagonalGeometry,
    FullSolveCG,
    SteepestDescent,
    decrease_check,
    prox_optimality_residual,
    prox_step,
    update_linear,
)
from nonlinritz.variational import DiffusionReaction1D, Field, L2Approx, QuadratureRule

RULE = QuadratureRule.on_interval(0.0, 1.0, n_panels=8, order=5)
TARGET = L2Approx(Field(lambda x: np.sin(3.0 * x) + 0.5 * np.exp(-40.0 * (x - 0.6) ** 2)))
seeds = st.integers(0, 2**32 - 1)


@st.composite
def chained_domains(draw):
    """A box in [0, 1]^n with one or two ordered chains and a feasible gap."""
    n = draw(st.integers(2, 6))
    lower = np.array(draw(st.lists(st.floats(0.0, 0.4), min_size=n, max_size=n)))
    upper = np.array(draw(st.lists(st.floats(0.6, 1.0), min_size=n, max_size=n)))
    k = draw(st.integers(2, n))
    chains = [tuple(range(k))]
    if n - k >= 2 and draw(st.booleans()):
        chains.append(tuple(range(k, n)))
    gap = draw(st.floats(0.0, 0.2 / k))
    return NonlinearDomain(lower, upper, chains=tuple(chains), gap=gap)


def _weighted_sq(d, v):
    return float(v @ (d * v))


@settings(max_examples=100, deadline=None)
@given(chained_domains(), seeds, st.floats(-3.0, 2.0), st.floats(-3.0, 0.0))
def test_prox_step_is_feasible_and_optimal(domain, seed, log_g, log_gamma):
    rng = np.random.default_rng(seed)
    geom = DiagonalGeometry(rng.uniform(0.2, 5.0, domain.dim))
    xi = domain.sample(rng)
    g = 10.0 ** log_g * rng.standard_normal(domain.dim)
    gamma = 10.0 ** log_gamma
    xp = prox_step(geom, domain, xi, g, gamma)
    assert domain.contains(xp)
    res = prox_optimality_residual(geom, domain, xi, g, gamma, xp)
    assert res <= 1e-9 * (1.0 + float(np.linalg.norm(g)))


@settings(max_examples=100, deadline=None)
@given(chained_domains(), seeds)
def test_project_is_identity_on_feasible_points_and_nearest(domain, seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.2, 5.0, domain.dim)
    # bitwise identity where every constraint has slack above roundoff ...
    inner = domain.shrink(1e-9).sample(rng)
    assert np.array_equal(domain.project(inner, weights=d), inner)
    # ... and up to roundoff on draws that may sit on the boundary (a sample
    # can be a projection whose chain gaps are short of `gap` by an ulp)
    xi = domain.sample(rng)
    assert np.max(np.abs(domain.project(xi, weights=d) - xi)) <= 1e-14
    z = rng.uniform(-0.5, 1.5, domain.dim)
    p = domain.project(z, weights=d)
    assert domain.contains(p)
    dist = _weighted_sq(d, p - z)
    for _ in range(20):
        q = domain.sample(rng)
        other = _weighted_sq(d, q - z)
        assert dist <= other + 1e-12 * (1.0 + other)


def _assert_symmetric_psd(matrix):
    scale = float(np.max(np.abs(matrix)))
    assert np.max(np.abs(matrix - matrix.T)) <= 1e-14 * scale
    eig = np.linalg.eigvalsh(matrix)
    assert eig[0] >= -1e-12 * max(eig[-1], 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), seeds)
def test_gaussian_bump_assembly_is_symmetric_psd(n, seed):
    rng = np.random.default_rng(seed)
    family = GaussianBumps(NonlinearDomain([0.05] * n, [0.95] * n),
                           rng.uniform(0.03, 0.3, n))
    system = assemble(TARGET, RULE, family, family.domain.sample(rng))
    _assert_symmetric_psd(system.matrix)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.booleans(), seeds)
def test_hat_assembly_is_symmetric_psd(m, h1, seed):
    rng = np.random.default_rng(seed)
    chains = (tuple(range(m)),) if m > 1 else ()
    domain = NonlinearDomain([0.0] * m, [1.0] * m, chains=chains)
    family = FreeKnotHats(domain, 0.0, 1.0, dirichlet=h1)
    problem = TARGET
    if h1:
        problem = DiffusionReaction1D(
            Field(lambda x: 1.0 + x), Field.constant(2.0), Field.constant(1.0), 0.0, 1.0
        )
    system = assemble(problem, RULE, family, np.sort(rng.uniform(0.0, 1.0, m)))
    _assert_symmetric_psd(system.matrix)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), seeds, st.sampled_from([FullSolveCG(), SteepestDescent()]))
def test_linear_update_achieves_guaranteed_decrease(n, seed, linear_rule):
    rng = np.random.default_rng(seed)
    family = GaussianBumps(NonlinearDomain([0.05] * n, [0.95] * n),
                           rng.uniform(0.03, 0.3, n))
    system = assemble(TARGET, RULE, family, family.domain.sample(rng))
    w = rng.standard_normal(n)
    achieved, guaranteed = decrease_check(system, w, update_linear(linear_rule, system, w))
    assert guaranteed >= 0.0
    assert achieved >= guaranteed - 1e-12 * (1.0 + abs(quadratic_energy(system, w)))
