import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from nonlinritz.assembly import assemble
from nonlinritz.basis import (
    FreeKnotHats,
    GaussianBumps,
    IndicatorPair,
    NonlinearDomain,
    SyntheticAmplitude,
    realisation,
)
from nonlinritz.errors import (
    ConfigError,
    DomainViolationError,
)
from nonlinritz.variational import (
    DiffusionReaction1D,
    L2Approx,
    QuadratureRule,
    bilinear,
    integrate,
)

from helpers import constant
from lemma_norms import dphi_norm, phi_difference_norm, u_norm_sq


# ---------------------------------------------------------------------------
# admissible domain
# ---------------------------------------------------------------------------


def test_domain_validation():
    with pytest.raises(ConfigError):
        NonlinearDomain([0.0, 1.0], [1.0, 0.5])
    with pytest.raises(ConfigError):
        NonlinearDomain([0.0], [np.inf])
    with pytest.raises(ConfigError):
        NonlinearDomain([0.0, 1.0], [1.0, 2.0], chains=((0,),))
    with pytest.raises(ConfigError):
        NonlinearDomain([0.0] * 3, [1.0] * 3, chains=((0, 1), (1, 2)))
    with pytest.raises(ConfigError):
        NonlinearDomain([0.0, 0.0], [1.0, 1.0], chains=((0, 1),), gap=-0.1)
    # chain gap larger than the box extent leaves no feasible point
    with pytest.raises(ConfigError, match="empty"):
        NonlinearDomain([0.0, 0.0], [1.0, 1.0], chains=((0, 1),), gap=1.5)


@pytest.mark.parametrize("lower, upper, chains, gap, message", [
    # the gap alone outruns the box
    ([0.0, 0.0], [1.0, 1.0], ((0, 1),), 1.5, "are incompatible"),
    # no gap, but the order contradicts the bounds: x0 >= 0.6 > 0.5 >= x1
    ([0.6, 0.0], [1.0, 0.5], ((0, 1),), 0.0, "are incompatible"),
    # a middle bound pushes the chain's last member past its upper bound
    ([0.0, 0.5, 0.0], [1.0, 1.0, 0.55], ((0, 1, 2),), 0.1, "are incompatible"),
    # only the second of two chains is empty
    ([0.0, 0.0, 0.7, 0.0], [1.0, 1.0, 1.0, 0.6], ((0, 1), (2, 3)), 0.0, r"chain \(2, 3\)"),
    ([0.0, 1.0], [1.0, 0.5], (), 0.0, "lower > upper"),
    ([0.0, 1.0], [1.0, 0.5], ((0, 1),), 0.0, "lower > upper"),
])
def test_empty_domains_are_refused(lower, upper, chains, gap, message):
    with pytest.raises(ConfigError, match=message):
        NonlinearDomain(lower, upper, chains=chains, gap=gap)


@st.composite
def _domain_specs(draw):
    """Bounds and gaps on a grid of sixteenths, so every sum is exact: an
    arbitrary box with one or two chains, empty or not."""
    n = draw(st.integers(2, 6))
    sixteenths = st.integers(0, 16).map(lambda i: i / 16.0)
    lower = draw(st.lists(sixteenths, min_size=n, max_size=n))
    upper = [lo + draw(sixteenths) for lo in lower]
    k = draw(st.integers(2, n))
    chains = [tuple(range(k))]
    if n - k >= 2 and draw(st.booleans()):
        chains.append(tuple(range(k, n)))
    return lower, upper, tuple(chains), draw(st.integers(0, 8).map(lambda i: i / 16.0))


@settings(max_examples=300, deadline=None)
@given(_domain_specs())
def test_a_domain_is_refused_exactly_when_it_is_empty(spec):
    lower, upper, chains, gap = spec
    # the least point of each chain, built member by member, is admissible
    # exactly when the chain is not empty
    point, empty = np.array(lower), False
    for c in chains:
        for a, b in zip(c[:-1], c[1:]):
            point[b] = max(point[b], point[a] + gap)
            empty |= point[b] > upper[b]
    if empty:
        with pytest.raises(ConfigError, match="are incompatible"):
            NonlinearDomain(lower, upper, chains=chains, gap=gap)
        return
    dom = NonlinearDomain(lower, upper, chains=chains, gap=gap)
    assert not dom.violations(point)
    # the projected midpoint is admissible too
    assert not dom.violations(dom.project(0.5 * (np.array(lower) + np.array(upper))))


def test_contains_and_require():
    dom = NonlinearDomain([0.0, 0.0], [1.0, 1.0], chains=((0, 1),), gap=0.25)
    assert not dom.violations([0.2, 0.6])
    assert dom.violations([0.2, 0.3])  # gap violated
    assert dom.violations([-0.1, 0.6])
    with pytest.raises(DomainViolationError, match="chain gap"):
        dom.require([0.5, 0.5])


def test_project_box_only_is_clip():
    dom = NonlinearDomain([0.0, -1.0], [1.0, 1.0])
    assert_allclose(dom.project([2.0, -3.0]), [1.0, -1.0])
    assert_allclose(dom.project([0.3, 0.4]), [0.3, 0.4])


def test_project_feasible_point_is_bitwise_passthrough():
    dom = NonlinearDomain([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], chains=((0, 1, 2),),
                          gap=0.1)
    p = np.array([0.1, 0.30000000000000004, 0.7])
    q = dom.project(p)
    assert all(a == b for a, b in zip(p, q))


def test_project_counterexample_to_clip_after_pool():
    # projecting (3, 0) with ordering x0 <= x1 and x1 >= 2: plain
    # pool-then-clip would give (1.5, 2) with value 6.25; the true
    # projection is (2, 2) with value 5
    dom = NonlinearDomain([-10.0, 2.0], [10.0, 10.0], chains=((0, 1),))
    assert_allclose(dom.project([3.0, 0.0]), [2.0, 2.0], atol=1e-14)


def test_project_respects_gap_shift():
    dom = NonlinearDomain([0.0, 0.0], [1.0, 1.0], chains=((0, 1),), gap=0.5)
    got = dom.project([0.6, 0.4])
    # symmetric pull onto the active gap constraint
    assert_allclose(got, [0.25, 0.75], atol=1e-14)
    assert not dom.violations(got)


def _slsqp_project(dom, p, d):
    cons = []
    for c in dom.chains:
        for a, b in zip(c[:-1], c[1:]):
            cons.append(
                {"type": "ineq", "fun": lambda x, a=a, b=b: x[b] - x[a] - dom.gap}
            )
    res = minimize(
        lambda x: float(np.sum(d * (x - p) ** 2)),
        np.clip(p, dom.lower, dom.upper),
        jac=lambda x: 2.0 * d * (x - p),
        bounds=list(zip(dom.lower, dom.upper)),
        constraints=cons,
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-14},
    )
    return res.x


def test_project_matches_slsqp_oracle():
    rng = np.random.default_rng(7)
    dom = NonlinearDomain(
        [0.0, 0.0, 0.0, -1.0], [1.0, 1.0, 1.0, 1.0], chains=((0, 1, 2),), gap=0.15
    )
    for _ in range(40):
        p = rng.uniform(-0.5, 1.5, 4)
        d = rng.uniform(0.2, 3.0, 4)
        mine = dom.project(p, weights=d)
        assert not dom.violations(mine)
        ref = _slsqp_project(dom, p, d)
        obj_mine = float(np.sum(d * (mine - p) ** 2))
        obj_ref = float(np.sum(d * (ref - p) ** 2))
        assert obj_mine <= obj_ref + 1e-8


def test_sample_feasible_and_deterministic():
    dom = NonlinearDomain([0.0, 0.0], [1.0, 1.0], chains=((0, 1),), gap=0.3)
    pts = [dom.sample(np.random.default_rng(5)) for _ in range(3)]
    assert all(not dom.violations(p) for p in pts)
    assert_allclose(pts[0], pts[1])


def reference_sample(domain, rng):
    """The sampler drawn with ``rng.uniform`` and tested with ``feasible``."""
    state = rng.bit_generator.state
    block = rng.uniform(domain.lower, domain.upper, size=(200, domain.dim))
    hits = np.flatnonzero(domain.feasible(block))
    if hits.size:
        k = int(hits[0])
        rng.bit_generator.state = state
        return rng.uniform(domain.lower, domain.upper, size=(k + 1, domain.dim))[k]
    return domain.project(rng.uniform(domain.lower, domain.upper))


@st.composite
def sampled_domains(draw):
    """A box with pinned and free coordinates and up to two chains, whose
    gap is a fraction of the largest the chains admit: fractions near 1
    leave no box draw admissible and take the projection fallback."""
    dim = draw(st.integers(1, 8))
    lower = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim)))
    widths = st.sampled_from([0.0, 1e-3, 0.5, 1.0, 2.5]) | st.floats(0.0, 4.0)
    width = np.array(draw(st.lists(widths, min_size=dim, max_size=dim)))
    order = draw(st.permutations(range(dim)))
    cut = draw(st.integers(0, dim))
    chains = tuple(tuple(c) for c in (order[:cut], order[cut:]) if len(c) >= 2)
    if chains and draw(st.booleans()):  # a common interval along each chain
        for c in chains:
            lower[list(c)], width[list(c)] = lower[c[0]], max(width[c[0]], 0.1)
    gap = 0.0
    if chains:
        room = min((np.min(lower[list(c)] + width[list(c)]) - np.max(lower[list(c)]))
                   / (len(c) - 1) for c in chains)
        gap = max(room, 0.0) * draw(st.sampled_from([0.0, 0.3, 0.99, 1.0]) | st.floats(0.0, 1.0))
    try:
        return NonlinearDomain(lower, lower + width, chains=chains, gap=gap)
    except ConfigError:  # the chains' bounds admit no point at this gap
        return NonlinearDomain(lower, lower + width)


@settings(max_examples=300, deadline=None)
@given(sampled_domains(), st.integers(0, 2**32 - 1))
def test_sample_is_bitwise_the_reference_sampler(domain, seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        got, want = domain.sample(rng), reference_sample(domain, ref)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("gap, fallback", [(0.0, False), (0.32, True)])
def test_sample_takes_the_hit_and_the_fallback_path(gap, fallback):
    dom = NonlinearDomain([0.0] * 4, [1.0] * 4, chains=((0, 1, 2, 3),), gap=gap)
    for seed in range(20):
        probe = np.random.default_rng(seed)
        hit = dom.feasible(probe.uniform(dom.lower, dom.upper, (200, 4))).any()
        assert hit != fallback
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert dom.sample(rng).tobytes() == reference_sample(dom, ref).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


def test_shrink_gives_margin():
    dom = NonlinearDomain([0.0, 0.0], [1.0, 1.0], chains=((0, 1),), gap=0.2)
    inner = dom.shrink(0.05)
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = inner.sample(rng)
        for i in range(2):
            for s in (-0.05, 0.05):
                q = p.copy()
                q[i] += s
                assert not dom.violations(q)


# ---------------------------------------------------------------------------
# gaussian bumps
# ---------------------------------------------------------------------------


def _gauss_family(n=2, width=0.1):
    dom = NonlinearDomain([0.1] * n, [0.9] * n)
    return GaussianBumps(dom, np.full(n, width))


def test_gaussian_values_and_derivs():
    fam = _gauss_family()
    xi = fam.require_param(np.array([0.5, 0.3]))
    x = np.array([0.6])
    vals, ders = fam.basis_values(xi, x), fam.basis_derivs(xi, x)
    assert_allclose(vals[0, 0], math.exp(-0.5), rtol=1e-15)
    # d/dx of exp(-(x-c)^2 / (2 s^2)) at x=0.6, c=0.5, s=0.1
    assert_allclose(ders[0, 0], -10.0 * math.exp(-0.5), rtol=1e-14)


def test_gaussian_dparam_diagonal_value():
    fam = _gauss_family()
    xi = np.array([0.5, 0.3])
    x = np.array([0.6])
    phi = fam.basis_values(xi, x)
    du = fam.dparam_values(xi, x, phi, np.array([1.0, 0.0]))
    assert du.shape == (2, 1)
    assert_allclose(du[0, 0], 10.0 * math.exp(-0.5), rtol=1e-14)
    assert du[1, 0] == 0.0  # centers are independent
    assert fam.dparam_values(xi, x, phi, np.array([0.0, 1.0]))[0, 0] == 0.0


def test_gaussian_dparam_matches_fd():
    fam = _gauss_family()
    xi = np.array([0.4, 0.7])
    x = np.linspace(0.0, 1.0, 11)
    w = np.array([0.8, -1.3])
    du = fam.dparam_values(xi, x, fam.basis_values(xi, x), w)
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = w @ (fam.basis_values(xi + e, x) - fam.basis_values(xi - e, x)) / (2 * h)
        assert_allclose(du[i], fd, atol=1e-8)


def test_bad_parameter_shape_rejected():
    fam = _gauss_family()
    with pytest.raises(DomainViolationError):
        fam.require_param(np.array([0.5]))
    with pytest.raises(DomainViolationError):
        fam.require_param(np.array([0.5, 2.0]))


# ---------------------------------------------------------------------------
# free-knot hats
# ---------------------------------------------------------------------------


def _hat_family(m=3, dirichlet=False, gap=0.05):
    dom = NonlinearDomain([0.05] * m, [0.95] * m, chains=(tuple(range(m)),), gap=gap)
    return FreeKnotHats(dom, 0.0, 1.0, dirichlet=dirichlet)


@pytest.mark.parametrize("m, chains", [
    (2, ()),                 # a box: knots may cross
    (4, ((0, 1), (2, 3))),   # two chains: knots 1 and 2 may cross
    (3, ((0, 2, 1),)),       # a chain in another order
    (3, ((0, 1),)),          # a chain leaving a knot out
], ids=["box", "two-chains", "reordered", "partial"])
def test_hats_need_their_knots_in_one_chain(m, chains):
    dom = NonlinearDomain([0.05] * m, [0.95] * m, chains=chains)
    with pytest.raises(ConfigError, match="need ordered knots"):
        FreeKnotHats(dom, 0.0, 1.0)


def test_one_knot_needs_no_chain():
    fam = FreeKnotHats(NonlinearDomain([0.05], [0.95]), 0.0, 1.0)
    assert fam.n_linear == 3


def test_hats_partition_of_unity_including_endpoints():
    fam = _hat_family()
    xi = np.array([0.2, 0.5, 0.7])
    x = np.linspace(0.0, 1.0, 101)  # includes both interval endpoints
    vals = fam.basis_values(fam.require_param(xi), x)
    assert vals.shape == (5, 101)
    assert_allclose(vals.sum(axis=0), np.ones(101), atol=1e-14)


def test_hats_interpolate_at_knots():
    fam = _hat_family()
    xi = np.array([0.2, 0.5, 0.7])
    knots = np.concatenate([[0.0], xi, [1.0]])
    vals = fam.basis_values(fam.require_param(xi), knots)
    assert_allclose(vals, np.eye(5), atol=1e-14)


def test_hats_dirichlet_drops_boundary_functions():
    fam = _hat_family(dirichlet=True)
    assert fam.n_linear == 3
    assert fam.vanishes_on_boundary
    vals = fam.basis_values(fam.require_param(np.array([0.2, 0.5, 0.7])), np.array([0.0, 1.0]))
    assert_allclose(vals, np.zeros((3, 2)), atol=1e-15)


def test_hats_zero_width_cell_stays_finite():
    dom = NonlinearDomain([0.0, 0.0], [1.0, 1.0], chains=((0, 1),), gap=0.0)
    fam = FreeKnotHats(dom, 0.0, 1.0)
    xi, x = fam.require_param(np.array([0.5, 0.5])), np.linspace(0, 1, 21)
    vals, ders = fam.basis_values(xi, x), fam.basis_derivs(xi, x)
    assert np.all(np.isfinite(vals))
    assert np.all(np.isfinite(ders))


def test_hats_at_x_lo_take_the_first_cell_of_positive_width():
    # knots (0, 0.5): cell 0 is [0, 0] and x_lo lies in cell 1, where hat 1
    # peaks, so the realisation is continuous at the end of the interval
    dom = NonlinearDomain([0.0, 0.0], [1.0, 1.0], chains=((0, 1),))
    fam = FreeKnotHats(dom, 0.0, 1.0)
    u = realisation(fam, np.array([0.0, 0.5]), np.array([1.0, 2.0, 3.0, 4.0]))
    assert u.values(np.array([0.0])).tolist() == [2.0]
    assert u.values(np.array([1e-12]))[0] == pytest.approx(2.0, rel=1e-10)
    # the slope at x_lo is that cell's, and a stack agrees with its points
    assert u.derivs(np.array([0.0])).tolist() == [(3.0 - 2.0) / 0.5]
    stack = np.array([[0.0, 0.5], [0.0, 0.0], [0.25, 0.5]])
    x = np.array([0.0, 0.25, 1.0])
    for i, p in enumerate(stack):
        assert np.array_equal(fam.basis_values(stack, x)[i], fam.basis_values(p, x))


def test_hats_breakpoints_are_knots():
    fam = _hat_family()
    xi = np.array([0.2, 0.5, 0.7])
    assert set(fam.breakpoints(xi)) == {0.0, 0.2, 0.5, 0.7, 1.0}


# ---------------------------------------------------------------------------
# indicator pair
# ---------------------------------------------------------------------------


def _indicator_family():
    dom = NonlinearDomain([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], chains=((0, 1, 2),))
    return IndicatorPair(dom)


def test_indicator_values():
    fam = _indicator_family()
    xi, x = fam.require_param(np.array([0.0, 0.5, 1.0])), np.array([0.25, 0.75])
    vals, ders = fam.basis_values(xi, x), fam.basis_derivs(xi, x)
    assert_allclose(vals, [[1.0, 0.0], [0.0, 1.0]])
    assert ders is None  # indicators live in L2 only


@pytest.mark.parametrize("chains", [(), ((0, 1),), ((0, 2, 1),)], ids=["none", "short", "reordered"])
def test_indicator_pair_needs_its_ordering_chain(chains):
    # unordered ends make the closed-form gradient wrong: on [0, 1]^3 without
    # chains, at (0.6, 0.4, 0.9) it gave d/da = 0.4738 where d/da = 0
    with pytest.raises(ConfigError, match=r"the one chain \[0, 1, 2\]"):
        IndicatorPair(NonlinearDomain(np.zeros(3), np.ones(3), chains=chains))


# ---------------------------------------------------------------------------
# synthetic amplitude
# ---------------------------------------------------------------------------


def test_synthetic_sphere_quartic_profile():
    dom = NonlinearDomain([-2.0, -2.0], [2.0, 2.0])
    fam = SyntheticAmplitude(dom, profile="sphere_quartic", radius=1.0, scale=0.5)
    xi = fam.require_param(np.array([0.6, 0.8]))  # on the unit circle
    vals = fam.basis_values(xi, np.array([0.1, 0.9]))
    assert_allclose(vals, np.zeros((1, 2)), atol=1e-15)
    xi = fam.require_param(np.array([1.0, 1.0]))
    vals = fam.basis_values(xi, np.array([0.3]))
    assert_allclose(vals[0, 0], math.sqrt(2.0) * 0.5 * 1.0, rtol=1e-15)


def test_synthetic_norm_profile_subgradient_at_origin():
    # ||xi|| is not differentiable at the origin; 0 is its subgradient there,
    # and each row of a stack is decided alone
    dom = NonlinearDomain([-1.0, -1.0], [1.0, 1.0])
    fam = SyntheticAmplitude(dom, profile="norm")
    x = np.array([0.5])

    def dparam(xi, w):
        return fam.dparam_values(xi, x, fam.basis_values(xi, x), w)

    assert dparam(np.zeros(2), np.ones(1)).tolist() == [[0.0], [0.0]]
    xi = np.array([[0.0, 0.0], [0.6, -0.8]])
    d = dparam(xi, np.ones((2, 1)))
    assert d[0].tolist() == [[0.0], [0.0]]
    assert_allclose(d[1][:, 0], [0.6, -0.8], rtol=1e-15)
    assert d[1].tolist() == dparam(xi[1], np.ones(1)).tolist()


# ---------------------------------------------------------------------------
# realisation and norms
# ---------------------------------------------------------------------------


def test_realisation_matches_manual_combination():
    fam = _gauss_family()
    xi = np.array([0.4, 0.6])
    w = np.array([2.0, -1.0])
    r = realisation(fam, xi, w)
    x = np.linspace(0, 1, 7)
    manual = w @ fam.basis_values(xi, x)
    assert_allclose(r.values(x), manual, rtol=1e-15)
    assert r.deriv_fn is not None


def test_basis_norms_against_direct_quadrature():
    # the assembled ||phi(xi)||_{U,2} = sqrt(trace G) against each phi_k^2
    # integrated directly and against the realised basis functions
    fam = _gauss_family()
    xi = np.array([0.4, 0.6])
    rule = QuadratureRule.on_interval(0.0, 1.0, 16, 6)
    problem = L2Approx(constant(0.0))
    total = 0.0
    for k in range(2):
        total += integrate(lambda x, k=k: fam.basis_values(xi, x)[k] ** 2, rule)
    phi_u2 = assemble(problem, rule, fam, xi).phi_u2
    assert_allclose(phi_u2, math.sqrt(total), rtol=1e-13)
    fields = sum(u_norm_sq(problem, rule, realisation(fam, xi, e)) for e in np.eye(2))
    assert_allclose(phi_u2, math.sqrt(fields), rtol=1e-13)


def test_basis_difference_norm_zero_for_same_point():
    fam = _gauss_family()
    rule = QuadratureRule.on_interval(0.0, 1.0, 8, 5)
    problem = L2Approx(constant(0.0))
    xi = np.array([0.4, 0.6])
    assert phi_difference_norm(problem, rule, fam, xi, xi) == 0.0
    assert phi_difference_norm(problem, rule, fam, xi, np.array([0.5, 0.6])) > 0.0


def test_dparam_norm_positive():
    fam = _gauss_family()
    rule = QuadratureRule.on_interval(0.0, 1.0, 8, 5)
    xi = np.array([0.4, 0.6])
    assert dphi_norm(fam, rule, xi) > 0.0
    # d phi_k / d xi_k = z_k phi_k and the off-diagonal entries vanish
    total = sum(
        integrate(lambda x, k=k: (fam._z(xi, x) * fam.basis_values(xi, x))[k] ** 2, rule)
        for k in range(2)
    )
    assert_allclose(dphi_norm(fam, rule, xi), math.sqrt(total), rtol=1e-13)
    assert dphi_norm(fam, rule, xi, xi) == 0.0
    assert dphi_norm(fam, rule, xi, np.array([0.5, 0.6])) > 0.0


def test_h1_norms_match_the_realised_fields():
    # under an H1 energy the assembled Gram adds the slopes; the independent
    # path is the H1 norm of each realised hat e_k . phi, and with unit
    # coefficients the stiffness diagonal is that norm too
    fam = FreeKnotHats(NonlinearDomain([0.05] * 3, [0.95] * 3, chains=((0, 1, 2),)),
                       0.0, 1.0, dirichlet=True)
    one = constant(1.0)
    problem = DiffusionReaction1D(one, one, one, x_lo=0.0, x_hi=1.0)
    rule = QuadratureRule.on_interval(0.0, 1.0, 8, 5)
    xi = np.array([0.2, 0.5, 0.7])
    hats = [realisation(fam, xi, e) for e in np.eye(fam.n_linear)]
    sq = [u_norm_sq(problem, rule, f) for f in hats]
    system = assemble(problem, rule, fam, xi)
    assert_allclose(system.phi_u2, math.sqrt(sum(sq)), rtol=1e-13)
    assert_allclose(np.diag(system.matrix), sq, rtol=1e-13)
    assert_allclose(np.diag(system.matrix), [bilinear(problem, rule, f, f) for f in hats],
                    rtol=1e-13)


def test_estimate_sup_norm_dominates_samples():
    # each integral of exp(-(x-c)^2/s^2) over [0, 1] is largest at c = 1/2,
    # so sup_xi ||phi(xi)||_{U,2} sits at the centre of the domain, in
    # closed form s sqrt(pi) erf(1/(2s)) per bump
    fam = _gauss_family()
    rule = QuadratureRule.on_interval(0.0, 1.0, 64, 8)
    problem = L2Approx(constant(0.0))
    sup = assemble(problem, rule, fam, np.array([0.5, 0.5])).phi_u2
    assert_allclose(sup ** 2, 2 * 0.1 * math.sqrt(math.pi) * math.erf(5.0), rtol=1e-12)
    rng = np.random.default_rng(1)
    points = [fam.domain.sample(rng) for _ in range(10)]
    points += [np.array(c, dtype=float) for c in ((0.1, 0.1), (0.1, 0.9), (0.9, 0.1), (0.9, 0.9))]
    for xi in points:
        assert assemble(problem, rule, fam, xi).phi_u2 <= sup + 1e-12


def test_estimate_hoelder_exponents():
    rule = QuadratureRule.on_interval(0.0, 1.0, 16, 5)
    problem = L2Approx(constant(0.0))
    radii = np.logspace(-4.0, -1.0, 7)
    # moving the shared end of two indicators by r changes each on a set of
    # measure r: ||phi(xi) - phi(eta)|| = sqrt(2 r), exponent 1/2
    fam, xi = _indicator_family(), np.array([0.2, 0.5, 0.8])
    for r in radii:
        d = phi_difference_norm(problem, rule, fam, xi, xi + np.array([0.0, r, 0.0]))
        assert_allclose(d, math.sqrt(2.0 * r), rtol=1e-12)
    # smooth bumps are Lipschitz: the log-log slope is 1
    fam, xi, u = _gauss_family(), np.array([0.4, 0.6]), np.array([0.6, -0.8])
    ds = [phi_difference_norm(problem, rule, fam, xi, xi + r * u) for r in radii]
    slope = np.polyfit(np.log(radii), np.log(ds), 1)[0]
    assert 0.95 <= slope <= 1.05
