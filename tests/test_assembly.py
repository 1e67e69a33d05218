import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import nonlinritz.assembly
from nonlinritz.assembly import (
    assemble,
    check_consistency,
    quadratic_energy,
)
from nonlinritz.basis import (
    FreeKnotHats,
    GaussianBumps,
    IndicatorPair,
    NonlinearDomain,
    realisation,
)
from nonlinritz.certify import lambda_max_entry
from nonlinritz.errors import ConfigError, NonFiniteValueError, NumericalError
from nonlinritz.variational import (
    DiffusionReaction1D,
    Field,
    L2Approx,
    ProblemConstants,
    QuadratureRule,
)

from hat_loops import loop_basis_derivs, loop_basis_values
from helpers import constant

RULE = QuadratureRule.on_interval(0.0, 1.0, n_panels=16, order=5)
L2 = L2Approx(Field(lambda x: np.sin(np.pi * x)))


def _indicator_family():
    dom = NonlinearDomain([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], chains=((0, 1, 2),))
    return IndicatorPair(dom)


def _gauss_family(widths=(0.1, 0.1)):
    n = len(widths)
    dom = NonlinearDomain([0.1] * n, [0.9] * n)
    return GaussianBumps(dom, np.array(widths))


# ---------------------------------------------------------------------------
# stiffness / gram assembly
# ---------------------------------------------------------------------------


def test_indicator_pair_closed_form_matrix():
    # the energy of w1*chi_(a,b) + w2*chi_(b,c) in L2 is
    # 0.5*(w1^2 (b-a) + w2^2 (c-b)): the matrix is diag(b-a, c-b)
    system = assemble(L2, RULE, _indicator_family(), np.array([0.0, 0.5, 1.0]))
    assert_allclose(system.matrix, np.diag([0.5, 0.5]), atol=1e-12)
    w = np.array([2.0, -1.0])
    assert_allclose(
        quadratic_energy(system, w),
        0.5 * (4.0 * 0.5 + 1.0 * 0.5) - w @ system.load,
        rtol=1e-12,
    )


def test_l2_gram_equals_matrix():
    system = assemble(L2, RULE, _gauss_family(), np.array([0.4, 0.6]))
    assert_allclose(system.gram, system.matrix, atol=1e-15)
    assert system.lambda_min > 0.0
    assert system.omega == pytest.approx(system.lambda_min)
    assert_allclose(system.phi_u2 ** 2, np.trace(system.gram), rtol=1e-12)


def test_h1_assembly_uniform_hats_hand_matrices():
    # uniform interior knots (1/3, 2/3), Dirichlet hats, K = 1, sigma = 1:
    # stiffness (1/h) tridiag(-1, 2, -1) plus mass (h/6) tridiag(1, 4, 1)
    problem = DiffusionReaction1D(
        diffusivity=constant(1.0),
        reaction=constant(1.0),
        source=constant(1.0),
        x_lo=0.0,
        x_hi=1.0,
    )
    dom = NonlinearDomain([0.05, 0.05], [0.95, 0.95], chains=((0, 1),), gap=0.05)
    fam = FreeKnotHats(dom, 0.0, 1.0, dirichlet=True)
    system = assemble(problem, RULE, fam, np.array([1.0 / 3.0, 2.0 / 3.0]))
    h = 1.0 / 3.0
    stiff = np.array([[2.0, -1.0], [-1.0, 2.0]]) / h
    mass = np.array([[4.0, 1.0], [1.0, 4.0]]) * h / 6.0
    assert_allclose(system.matrix, stiff + mass, rtol=1e-13)
    # with K = sigma = 1 the bilinear form IS the full H1 inner product
    assert_allclose(system.gram, system.matrix, rtol=1e-13)
    # load of the constant source against a hat is h (its area)
    assert_allclose(system.load, [h, h], rtol=1e-13)


def test_h1_load_with_lifting():
    # nonzero Dirichlet data enters the load through the linear lifting
    problem = DiffusionReaction1D(
        diffusivity=constant(1.0),
        reaction=constant(0.0),
        source=constant(0.0),
        x_lo=0.0,
        x_hi=1.0,
        bc_lo=0.0,
        bc_hi=1.0,
    )
    dom = NonlinearDomain([0.05, 0.05], [0.95, 0.95], chains=((0, 1),), gap=0.05)
    fam = FreeKnotHats(dom, 0.0, 1.0, dirichlet=True)
    system = assemble(problem, RULE, fam, np.array([1.0 / 3.0, 2.0 / 3.0]))
    # -int u_bar' * hat_j' = 0 for interior hats of the straight line? no:
    # u_bar' = 1, int hat_j' = hat_j(1) - hat_j(0) = 0, so the load vanishes
    assert_allclose(system.load, [0.0, 0.0], atol=1e-13)
    # the solution then reproduces the lifting: w = 0 solves exactly
    assert_allclose(np.linalg.solve(system.matrix, system.load), [0.0, 0.0],
                    atol=1e-13)


def test_dirichlet_requires_vanishing_family():
    problem = DiffusionReaction1D(
        diffusivity=constant(1.0),
        reaction=constant(0.0),
        source=constant(1.0),
        x_lo=0.0,
        x_hi=1.0,
        bc_lo=1.0,
        bc_hi=0.0,
    )
    dom = NonlinearDomain([0.05, 0.05], [0.95, 0.95], chains=((0, 1),), gap=0.05)
    fam = FreeKnotHats(dom, 0.0, 1.0, dirichlet=False)
    with pytest.raises(ConfigError, match="boundary"):
        assemble(problem, RULE, fam, np.array([1.0 / 3.0, 2.0 / 3.0]))


def test_assembled_matrix_is_symmetric():
    system = assemble(L2, RULE, _gauss_family((0.08, 0.15)), np.array([0.3, 0.7]))
    assert_allclose(system.matrix, system.matrix.T, atol=1e-16)


# ---------------------------------------------------------------------------
# solvability diagnostics
# ---------------------------------------------------------------------------


def test_lambda_max_bound_holds():
    rng = np.random.default_rng(0)
    fam = _gauss_family()
    for _ in range(10):
        xi = fam.domain.sample(rng)
        system = assemble(L2, RULE, fam, xi)
        entry = lambda_max_entry(
            "sample", system, ProblemConstants(alpha=1.0, norm_a=1.0, norm_ell=1.0)
        )
        assert entry.lhs == system.lambda_max and entry.status == "pass"
        assert entry.lhs <= entry.rhs + 1e-9


def test_kappa_bound_variants():
    # a = (1+x) u'v' + 2uv on H1_0 has alpha = 1 and ||a|| = 2, and the load
    # of f = 5 has dual norm at most 5.  With omega = lambda_min(G) and
    # m_phi = ||phi(xi)||_{U,2} both condition bounds hold at every point:
    # kappa = ||a|| m_phi / (alpha omega) bounds ||w*|| ||a|| / ||ell||, and
    # kappa_squared = ||a|| m_phi^2 / (alpha omega) bounds cond(A)
    problem = DiffusionReaction1D(Field(lambda x: 1.0 + x), constant(2.0),
                                  constant(5.0), x_lo=0.0, x_hi=1.0)
    fam = FreeKnotHats(NonlinearDomain([0.05] * 3, [0.95] * 3, chains=((0, 1, 2),), gap=0.05),
                       0.0, 1.0, dirichlet=True)
    c = ProblemConstants(alpha=1.0, norm_a=2.0, norm_ell=5.0)
    rng = np.random.default_rng(3)
    for _ in range(10):
        system = assemble(problem, RULE, fam, fam.domain.sample(rng))
        base = c.norm_a / c.alpha / system.omega
        k1, k2 = base * system.phi_u2, base * system.phi_u2 ** 2
        assert np.linalg.norm(system.solution) <= k1 * c.norm_ell / c.norm_a * (1 + 1e-12)
        assert system.lambda_max / system.lambda_min <= k2 * (1 + 1e-12)


# ---------------------------------------------------------------------------
# consistency on rank-deficient systems
# ---------------------------------------------------------------------------


def _rank_deficient_systems():
    # 1: two identical gaussian bumps (duplicate columns)
    fam1 = GaussianBumps(NonlinearDomain([0.1] * 2, [0.9] * 2), np.array([0.1, 0.1]))
    sys1 = assemble(L2, RULE, fam1, np.array([0.5, 0.5]))
    # 2: indicator pair with an empty first interval (zero column)
    sys2 = assemble(L2, RULE, _indicator_family(), np.array([0.3, 0.3, 0.8]))
    # 3: free-knot hats with an interior knot collapsed onto the boundary
    dom = NonlinearDomain([0.0, 0.0], [1.0, 1.0], chains=((0, 1),), gap=0.0)
    fam3 = FreeKnotHats(dom, 0.0, 1.0)
    sys3 = assemble(L2, RULE, fam3, np.array([0.0, 0.5]))
    return [sys1, sys2, sys3]


def test_consistency_on_rank_deficient_systems():
    for system in _rank_deficient_systems():
        report = check_consistency(system)
        assert report.kernel_dim >= 1
        assert report.load_kernel_residual <= 1e-10
        assert report.realisation_gap <= 1e-10
        # the two least-squares solutions differ as coefficient vectors, by
        # a shift that A maps to zero
        evals, Q = system.spectrum
        shift = Q[:, evals <= system.kernel_cut].sum(axis=1)
        assert np.linalg.norm(shift) > 0.1
        assert_allclose(system.matrix @ shift, 0.0, atol=1e-10)


def test_consistency_full_rank_kernel_free():
    system = assemble(L2, RULE, _gauss_family(), np.array([0.35, 0.65]))
    report = check_consistency(system)
    assert report.kernel_dim == 0
    assert report.load_kernel_residual == 0.0
    assert report.realisation_gap == 0.0
    assert_allclose(system.matrix @ system.solution, system.load, atol=1e-10)


# ---------------------------------------------------------------------------
# element-wise hat assembly against dense products of the basis values
# ---------------------------------------------------------------------------


def dense_products(problem, family, xi, x, w):
    """A, G (None under L2) and load of one point from dense basis arrays,
    built by the per-hat loop references: the products every family was
    assembled by before hats went cell by cell."""
    vals = loop_basis_values(family, xi, x)
    if not problem.needs_h1:
        return (vals * w) @ vals.T, None, vals @ (w * problem.target.values(x))
    ders = loop_basis_derivs(family, xi, x)
    wK, ws = w * problem.diffusivity.values(x), w * problem.reaction.values(x)
    A = (ders * wK) @ ders.T + (vals * ws) @ vals.T
    G = (ders * w) @ ders.T + (vals * w) @ vals.T
    load = vals @ (w * problem.source.values(x))
    if problem.bc_lo != 0.0 or problem.bc_hi != 0.0:
        load = load - (ders @ (wK * problem.lifting.derivs(x))
                       + vals @ (ws * problem.lifting.values(x)))
    return A, G, load


def dense_system(problem, rule, family, xi):
    r = rule.split_at(tuple(family.breakpoints(xi)) + tuple(problem.coefficient_breakpoints()))
    A, G, load = dense_products(problem, family, xi, r.nodes, r.weights)
    A = 0.5 * (A + A.T)
    return A, A if G is None else 0.5 * (G + G.T), load


EDGES = RULE.boundaries


@st.composite
def hat_systems(draw):
    """A hat problem and a stack of ordered knot vectors: free knots, knots on
    and within 1e-13 of panel edges, coincident knots and knots on the ends."""
    m = draw(st.integers(1, 7))
    h1 = draw(st.booleans())
    dirichlet = h1 or draw(st.booleans())
    if h1:
        bc = draw(st.sampled_from([(0.0, 0.0), (0.3, -0.2), (1.0, 0.0)]))
        problem = DiffusionReaction1D(
            Field(lambda x: 1.0 + 0.5 * np.sin(3.0 * x), lambda x: 1.5 * np.cos(3.0 * x)),
            Field(lambda x: 2.0 + x), Field(lambda x: np.exp(-8.0 * (x - 0.4) ** 2)),
            0.0, 1.0, *bc,
        )
    else:
        problem = L2
    knot = st.one_of(
        # a cell of width below 1e-154 has a slope whose square overflows
        st.floats(0.0, 1.0).filter(lambda v: v == 0.0 or v > 1e-100),
        st.builds(lambda e, d: min(max(e + d, 0.0), 1.0), st.sampled_from(list(EDGES)),
                  st.sampled_from([0.0, -1e-13, -4e-14, 4e-14, 1e-13, 2e-13])),
    )
    points = []
    for _ in range(draw(st.integers(1, 5))):
        xi = draw(st.lists(knot, min_size=m, max_size=m))
        if m > 1 and draw(st.booleans()):  # coincident knots
            i = draw(st.integers(1, m - 1))
            xi[i] = xi[i - 1]
        points.append(np.sort(xi))
    chains = (tuple(range(m)),) if m > 1 else ()
    family = FreeKnotHats(NonlinearDomain([0.0] * m, [1.0] * m, chains=chains), 0.0, 1.0,
                          dirichlet=dirichlet)
    return problem, family, np.array(points)


@settings(max_examples=200, deadline=None)
@given(hat_systems())
def test_element_hat_assembly_matches_dense_products(case):
    # a knot dropped from the split (within 1e-13 of a panel edge) can sit on
    # the middle node of a panel narrower than 2e-13: there both paths take
    # the cell left of the knot
    problem, family, points = case
    stack = assemble(problem, RULE, family, points)
    for i, xi in enumerate(points):
        alone = assemble(problem, RULE, family, xi)
        for got, want in ((stack.matrix[i], alone.matrix), (stack.gram[i], alone.gram),
                          (stack.load[i], alone.load)):
            assert got.tobytes() == want.tobytes()
        _assert_matches_dense(problem, family, xi, alone)


def _assert_matches_dense(problem, family, xi, system):
    A, G, load = dense_system(problem, RULE, family, xi)
    scale = max(np.max(np.abs(A)), np.max(np.abs(G)), np.max(np.abs(load)))
    for got, want in ((system.matrix, A), (system.gram, G), (system.load, load)):
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
    n = family.n_linear
    band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 1
    for M in (system.matrix, system.gram):
        assert np.all(M[~band] == 0.0)


#: a Dirichlet problem with boundary data, for Dirichlet hats
H1_LIFTED = DiffusionReaction1D(Field(lambda x: 1.0 + x, lambda x: np.ones_like(x)),
                                constant(2.0), constant(1.0), 0.0, 1.0, 0.3, -0.2)


@pytest.mark.parametrize("dirichlet", [False, True])
def test_node_on_a_knot_takes_the_cell_on_its_left(dirichlet):
    # the split drops the knot 1e-13, within 1e-13 of the panel edge 0, and
    # keeps 2e-13: the middle Gauss node of the panel [0, 2e-13] is the knot
    dom = NonlinearDomain([0.0, 0.0], [1.0, 1.0], chains=((0, 1),))
    family = FreeKnotHats(dom, 0.0, 1.0, dirichlet=dirichlet)
    xi = np.array([1e-13, 2e-13])
    nodes = RULE.split_at(family.breakpoints(xi)).nodes
    assert np.count_nonzero(nodes == xi[0]) == 1
    problem = H1_LIFTED if dirichlet else L2
    _assert_matches_dense(problem, family, xi, assemble(problem, RULE, family, xi))
    # at an interior knot a realisation's derivative is its slope on the cell
    # to the left: (u(t_k) - u(t_{k-1})) / (t_k - t_{k-1})
    xi = np.array([0.25, 0.5])
    w = np.arange(1.0, family.n_linear + 1.0) ** 2
    u = realisation(family, xi, w)
    t = family.breakpoints(xi)
    for k in (1, 2):
        left = (u.values(np.array([t[k]])) - u.values(np.array([t[k - 1]]))) / (t[k] - t[k - 1])
        assert u.derivs(np.array([t[k]])) == pytest.approx(left, rel=1e-14)


def test_element_assembled_hats_skip_the_symmetry_test(count_calls):
    # hat systems are symmetric by construction; dense products are not
    calls = count_calls("_symmetrise", nonlinritz.assembly)
    dom = NonlinearDomain([0.0, 0.0], [1.0, 1.0], chains=((0, 1),))
    for dirichlet, problem in ((False, L2), (True, H1_LIFTED)):
        family = FreeKnotHats(dom, 0.0, 1.0, dirichlet=dirichlet)
        system = assemble(problem, RULE, family, np.array([[0.3, 0.6], [0.2, 0.9]]))
        for M in (system.matrix, system.gram):
            assert np.array_equal(M, np.swapaxes(M, -1, -2))
    assert calls == []
    assemble(L2, RULE, _gauss_family(), np.array([0.3, 0.6]))
    assert calls == ["_symmetrise"]


def test_non_finite_hat_system_is_flagged(monkeypatch):
    family = FreeKnotHats(NonlinearDomain([0.0, 0.0], [1.0, 1.0], chains=((0, 1),)), 0.0, 1.0)
    clean = FreeKnotHats.element_products

    def poisoned(self, *args, **kwargs):
        mats, load = clean(self, *args, **kwargs)
        mats[0][..., 0, 0] = np.nan
        return mats, load

    monkeypatch.setattr(FreeKnotHats, "element_products", poisoned)
    with pytest.raises(NonFiniteValueError, match="stiffness matrix has non-finite entries"):
        assemble(L2, RULE, family, np.array([0.3, 0.6]))


def test_symmetrise_checks_finiteness_before_symmetry():
    # the non-finite check runs over the whole stack first: a non-finite
    # matrix is named even when an asymmetric one comes before it
    xi = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    A = np.tile(np.diag([2.0, 1.0]), (3, 1, 1))
    A[0, 0, 1] = 1e-3
    A[2, 1, 1] = np.nan
    with pytest.raises(NonFiniteValueError,
                       match=r"^assembled Gram matrix has non-finite entries at xi = \[0\.5, 0\.6\]$"):
        nonlinritz.assembly._symmetrise(A, "Gram matrix", xi)
    A[2, 1, 1] = 1.0
    with pytest.raises(NumericalError) as caught:
        nonlinritz.assembly._symmetrise(A, "Gram matrix", xi)
    assert type(caught.value) is NumericalError
    assert str(caught.value) == ("assembled Gram matrix is asymmetric beyond tolerance: "
                                 "max|M-M^T| = 0.001 at scale 2.0 at xi = [0.1, 0.2]")


def test_short_chain_links_assemble_as_their_running_maximum():
    # a chain link may fall short by the domain's tolerance: on such a grid
    # the count per knot (a stack of more points than knots) and the search
    # per point (one point) would put the nodes between 0.5 and 0.5 + 4e-13
    # in different cells
    dom = NonlinearDomain([0.0] * 3, [1.0] * 3, chains=((0, 1, 2),))
    points = np.array([[0.3, 0.5 + 4e-13, 0.5],
                       [0.2, 0.7 + 1e-12, 0.7],
                       [0.4, 0.4 - 5e-13, 0.6],
                       [0.1, 0.6, 0.6 - 1e-12]])
    assert dom.feasible(points).all()
    for dirichlet, problem in ((False, L2), (True, H1_LIFTED)):
        family = FreeKnotHats(dom, 0.0, 1.0, dirichlet=dirichlet)
        stack = assemble(problem, RULE, family, points)
        for i, xi in enumerate(points):
            for p in (xi, np.maximum.accumulate(xi)):
                alone = assemble(problem, RULE, family, p)
                for got, want in ((stack.matrix[i], alone.matrix),
                                  (stack.gram[i], alone.gram), (stack.load[i], alone.load)):
                    assert got.tobytes() == want.tobytes()
