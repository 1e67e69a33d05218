import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nonlinritz.errors import ConfigError, NonFiniteValueError
from nonlinritz.variational import (
    DiffusionReaction1D,
    Field,
    L2Approx,
    ProblemConstants,
    QuadratureRule,
    bilinear,
    energy,
    integrate,
    linear_form,
)

from helpers import constant, indicator


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_weights_sum_to_length():
    rule = QuadratureRule.on_interval(-1.5, 2.5, n_panels=7, order=4)
    assert_allclose(np.sum(rule.weights), 4.0, rtol=1e-12)


def test_constant_integrates_to_one():
    rule = QuadratureRule.on_interval(0.0, 1.0, n_panels=3, order=2)
    assert_allclose(integrate(lambda x: np.ones_like(x), rule), 1.0, rtol=1e-14)


def test_polynomial_exactness_per_order():
    # order-p Gauss is exact for degree 2p-1 on each panel
    for order in (1, 2, 3, 5):
        rule = QuadratureRule.on_interval(0.0, 1.0, n_panels=2, order=order)
        for deg in range(2 * order):
            got = integrate(lambda x, d=deg: x ** d, rule)
            assert_allclose(got, 1.0 / (deg + 1), rtol=1e-13, atol=1e-15)


def test_x_squared_exact():
    rule = QuadratureRule.on_interval(0.0, 1.0, n_panels=1, order=2)
    assert_allclose(integrate(lambda x: x ** 2, rule), 1.0 / 3.0, rtol=1e-15)


def test_exp_high_accuracy():
    rule = QuadratureRule.on_interval(0.0, 1.0, n_panels=8, order=5)
    assert_allclose(integrate(np.exp, rule), math.e - 1.0, rtol=1e-12)


def test_nonfinite_integrand_names_node():
    rule = QuadratureRule.on_interval(0.0, 1.0, n_panels=2, order=3)
    with pytest.raises(NonFiniteValueError, match="x="):
        integrate(lambda x: np.where(x > 0.5, np.inf, 1.0), rule)


def test_split_at_keeps_endpoints_and_drops_duplicates():
    rule = QuadratureRule.on_interval(0.0, 1.0, n_panels=4, order=3)
    split = rule.split_at([0.1, 0.25, 0.25 + 1e-16, -3.0, 2.0])
    assert split.boundaries[0] == 0.0 and split.boundaries[-1] == 1.0
    assert 0.1 in split.boundaries
    # original boundary 0.25 survives, the 1e-16 neighbour is dropped
    assert np.count_nonzero(np.abs(split.boundaries - 0.25) < 1e-12) == 1
    assert_allclose(np.sum(split.weights), 1.0, rtol=1e-12)


def test_split_at_no_points_is_identity():
    rule = QuadratureRule.on_interval(0.0, 1.0, n_panels=4, order=3)
    assert rule.split_at([]) is rule
    assert rule.split_at([5.0]) is rule


def test_bad_rules_rejected():
    with pytest.raises(ConfigError):
        QuadratureRule([0.0, 0.0, 1.0], 3)
    with pytest.raises(ConfigError):
        QuadratureRule.on_interval(1.0, 0.0)
    with pytest.raises(ConfigError):
        QuadratureRule.on_interval(0.0, 1.0, order=0)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def test_field_arithmetic_merges_breakpoints():
    f = indicator(0.2, 0.5)
    g = indicator(0.4, 0.8)
    h = 2.0 * f - g
    assert set(h.breakpoints) == {0.2, 0.4, 0.5, 0.8}
    assert_allclose(h.values(np.array([0.3, 0.45, 0.6])), [2.0, 1.0, -1.0])
    assert h.deriv_fn is None  # indicators carry no weak derivative


def test_linear_interpolant_endpoints():
    u = Field.linear_interpolant(0.0, 2.0, 1.0, 5.0)
    assert_allclose(u.values(np.array([0.0, 2.0])), [1.0, 5.0])
    assert_allclose(u.derivs(np.array([0.3, 1.7])), [2.0, 2.0])


# ---------------------------------------------------------------------------
# L2 approximation problem
# ---------------------------------------------------------------------------


def test_l2_bilinear_is_symmetric_on_random_fields():
    rng = np.random.default_rng(3)
    rule = QuadratureRule.on_interval(0.0, 1.0, n_panels=6, order=4)
    problem = L2Approx(constant(0.0))
    for _ in range(100):
        c_u, c_v = rng.standard_normal(3), rng.standard_normal(3)
        u = Field(lambda x, c=c_u: c[0] + c[1] * x + c[2] * x ** 2)
        v = Field(lambda x, c=c_v: c[0] + c[1] * x + c[2] * x ** 2)
        auv, avu = bilinear(problem, rule, u, v), bilinear(problem, rule, v, u)
        assert abs(auv - avu) <= 1e-12 * (1.0 + abs(auv))


def test_l2_energy_gap_identity():
    # for the L2 problem the exact minimiser is the target itself
    rule = QuadratureRule.on_interval(0.0, 1.0, n_panels=12, order=6)
    target = Field(lambda x: np.sin(np.pi * x))
    problem = L2Approx(target)
    u = Field(lambda x: x)
    # J(u) - J(u*) = 0.5 * ||u - u*||_a^2
    diff = u - target
    lhs = energy(problem, rule, u) - energy(problem, rule, target)
    assert_allclose(lhs, 0.5 * bilinear(problem, rule, diff, diff), rtol=1e-12)


def test_l2_energy_value():
    # f = 1, u = x on (0,1): J(u) = 0.5*1/3 - 1/2 = -1/3
    rule = QuadratureRule.on_interval(0.0, 1.0, n_panels=2, order=4)
    problem = L2Approx(constant(1.0))
    assert_allclose(energy(problem, rule, Field(lambda x: x)), -1.0 / 3.0, rtol=1e-14)


# ---------------------------------------------------------------------------
# diffusion-reaction problem
# ---------------------------------------------------------------------------


def _dr_problem(bc_lo=0.0, bc_hi=0.0):
    return DiffusionReaction1D(
        diffusivity=Field(lambda x: 1.0 + x),
        reaction=constant(2.0),
        source=constant(5.0),
        x_lo=0.0,
        x_hi=1.0,
        bc_lo=bc_lo,
        bc_hi=bc_hi,
    )


def test_dr_bilinear_hand_value():
    # u = x(1-x), v = x^2, K = 1+x, sigma = 2 on (0,1):
    # int (1+x) u' v' = -2/3 and int 2 u v = 1/10, so a(u,v) = -17/30
    rule = QuadratureRule.on_interval(0.0, 1.0, n_panels=4, order=5)
    u = Field(lambda x: x * (1.0 - x), lambda x: 1.0 - 2.0 * x)
    v = Field(lambda x: x ** 2, lambda x: 2.0 * x)
    assert_allclose(bilinear(_dr_problem(), rule, u, v), -17.0 / 30.0, rtol=1e-14)


def test_dr_load_subtracts_lifting():
    # bc (1, 3): lifting 1 + 2x; with f = 5 and v = x^2:
    # ell(v) = 5/3 - [a-part 10/3 + reaction-part 5/3] = -10/3
    rule = QuadratureRule.on_interval(0.0, 1.0, n_panels=4, order=5)
    v = Field(lambda x: x ** 2, lambda x: 2.0 * x)
    assert_allclose(linear_form(_dr_problem(1.0, 3.0), rule, v), -10.0 / 3.0, rtol=1e-13)
    # homogeneous data keeps the plain source pairing
    assert_allclose(linear_form(_dr_problem(), rule, v), 5.0 / 3.0, rtol=1e-14)


def test_dr_inner_is_full_h1():
    # with unit diffusivity and reaction the energy inner product is the
    # full H1 inner product: ||u||^2 = int (1 + x^2) = 4/3
    rule = QuadratureRule.on_interval(0.0, 1.0, n_panels=4, order=5)
    one = constant(1.0)
    problem = DiffusionReaction1D(one, one, constant(5.0), x_lo=0.0, x_hi=1.0)
    u = Field(lambda x: x, lambda x: np.ones_like(x))
    assert_allclose(bilinear(problem, rule, u, u), 4.0 / 3.0, rtol=1e-14)


def test_dr_coercivity_witness():
    # with K >= 1 and sigma = 2: a(u,u) >= min(1,2) * ||u||_H1^2, alpha = 1
    rng = np.random.default_rng(11)
    rule = QuadratureRule.on_interval(0.0, 1.0, n_panels=6, order=5)
    problem = _dr_problem()
    for _ in range(20):
        c = rng.standard_normal(3)
        u = Field(
            lambda x, c=c: c[0] * x + c[1] * x ** 2 + c[2] * np.sin(x),
            lambda x, c=c: c[0] + 2.0 * c[1] * x + c[2] * np.cos(x),
        )
        h1_sq = integrate(lambda x, u=u: u.derivs(x) ** 2 + u.values(x) ** 2, rule)
        assert bilinear(problem, rule, u, u) >= 1.0 * h1_sq - 1e-12


def test_l2_only_field_rejected_by_h1_form():
    rule = QuadratureRule.on_interval(0.0, 1.0, n_panels=4, order=5)
    chi = indicator(0.2, 0.6)
    with pytest.raises(Exception, match="derivative"):
        bilinear(_dr_problem(), rule, chi, chi)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_problem_constants_validation():
    ProblemConstants(alpha=1.0, norm_a=2.0, norm_ell=0.0)
    with pytest.raises(ConfigError):
        ProblemConstants(alpha=0.0, norm_a=1.0, norm_ell=1.0)
    with pytest.raises(ConfigError):
        ProblemConstants(alpha=2.0, norm_a=1.0, norm_ell=1.0)
    with pytest.raises(ConfigError):
        ProblemConstants(alpha=1.0, norm_a=1.0, norm_ell=-1.0)
