import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import nonlinritz.certify
from nonlinritz.assembly import Evaluator, assemble
from nonlinritz.basis import (
    FreeKnotHats,
    GaussianBumps,
    NonlinearDomain,
    SyntheticAmplitude,
    realisation,
)
from nonlinritz.certify import (
    ATOL,
    RTOL,
    AnalyticPointsOracle,
    AnalyticSphereOracle,
    CertificateEntry,
    CertificateReport,
    GridSearchOracle,
    cea_certificate,
    decrease_certificate,
    delta_star,
    directional_convexity_probe,
    energy_monotonicity_certificate,
    global_rate_certificate,
    global_step_certificate,
    lambda_max_certificate,
    local_rate_certificate,
    minimiser_grid_oracle,
    quasi_stationarity_level,
    spd_certificate,
    surrogate_certificate,
    _entry,
)
from nonlinritz.errors import ConfigError, DomainViolationError
from nonlinritz.optimizer import (
    ConstantGamma,
    LipschitzAdaptive,
    StoppingCriteria,
    reduced_energy,
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
from nonlinritz.variational import (DiffusionReaction1D, Field, L2Approx, ProblemConstants,
                                    QuadratureRule, bilinear, linear_form)

from helpers import check_entry, constant, gap_slope, realised_gaps, worst_entry
from lemma_norms import best_linear_margins, dc_condition, dphi_norm, kappa, regularity_margins

RULE = QuadratureRule.on_interval(0.0, 1.0, n_panels=16, order=5)


def _gaussian_setup():
    target = Field(
        lambda x: 0.8 * np.exp(-0.5 * ((x - 0.3) / 0.1) ** 2)
        + 0.5 * np.exp(-0.5 * ((x - 0.7) / 0.12) ** 2)
    )
    problem = L2Approx(target)
    family = GaussianBumps(
        NonlinearDomain([0.1, 0.1], [0.9, 0.9]), np.array([0.1, 0.12])
    )
    return problem, family


def _gaussian_run(schedule=None, stopping=None, linear_rule=None):
    problem, family = _gaussian_setup()
    rec = run(
        problem,
        RULE,
        family,
        linear_rule or FullSolveCG(),
        EuclideanGeometry(),
        schedule or LipschitzAdaptive(zeta=0.9, lipschitz=5.0),
        stopping or StoppingCriteria(max_epochs=10),
        np.array([0.45, 0.55]),
    )
    return rec, problem, family


def _circle_setup(scale=0.7):
    dom = NonlinearDomain([-1.2, -1.2], [1.2, 1.2])
    family = SyntheticAmplitude(dom, profile="sphere_quartic", radius=1.0, scale=scale)
    problem = L2Approx(constant(0.0))
    oracle = AnalyticSphereOracle(np.zeros(2), 1.0, 0.0)
    return problem, family, oracle


def _circle_run(gamma=1.0 / 16.0, max_epochs=30, xi0=(0.9, 0.3)):
    problem, family, oracle = _circle_setup()
    rec = run(
        problem,
        RULE,
        family,
        Frozen(),
        EuclideanGeometry(),
        ConstantGamma(gamma),
        StoppingCriteria(max_epochs=max_epochs),
        np.asarray(xi0, dtype=float),
        w0=np.array([1.0]),
    )
    return rec, problem, family, oracle


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_report_collects_and_judges():
    rep = CertificateReport()
    rep.extend(CertificateEntry("a", "x", 0.0, 1.0, 1.0, "pass"))
    rep.extend([CertificateEntry("b", "y", 2.0, 1.0, -1.0, "fail")])
    assert not rep.passed
    assert [e.name for e in rep.failures] == ["b"]
    d = rep.to_dict()
    assert d["passed"] is False and len(d["entries"]) == 2
    assert set(d["entries"][0]) == {
        "name", "anchor", "lhs", "rhs", "margin", "status", "note",
    }


def test_worst_entry_keeps_failures_and_ties_on_roundoff():
    def named(*anchors):
        return anchors.__getitem__

    # a wide tolerance lets the smaller margin pass; the failure is reported
    wide = _entry("c", "wide", 1.5, 1.0, atol=1.0)
    tight = _entry("c", "tight", 1.1, 1.0, atol=0.0)
    assert (wide.status, tight.status) == ("pass", "fail")
    assert _entry("c", named("wide", "tight"), [1.5, 1.1], 1.0, atol=[1.0, 0.0],
                  note="n").anchor == "tight"
    # margins of one ulp either way are tied: the first is taken
    lhs = 0.0123
    up, down = np.nextafter(lhs, 1.0), np.nextafter(lhs, 0.0)
    for first, second in ((up, down), (down, up)):
        assert _entry("c", named("first", "second"), lhs, [first, second],
                      note="n").anchor == "first"
    # margins apart beyond roundoff: the smallest
    assert _entry("c", named("big", "small"), [0.0, 0.9], 1.0, note="n").anchor == "small"
    # a NaN margin fails and counts as the smallest
    nan = _entry("c", "nan", math.nan, 1.0)
    assert nan.status == "fail"
    assert _entry("c", named("tight", "nan"), [1.1, math.nan], 1.0, atol=[0.0, ATOL],
                  note="n").anchor == "nan"


# sides that tie exactly, margins a few ulps apart (tied within _TIE_RTOL),
# margins apart beyond it, signed zeros and non-finite sides
_SIDES = st.sampled_from([0.0, -0.0, 0.0123, 0.9, 1.0, 1.1, 1.5, -2.0, 1e300,
                          math.nan, math.inf, -math.inf])
_MARGINS = st.sampled_from([-0.4, -1e-9, 0.0, 1e-9, 0.1, 0.5])


@st.composite
def _inequalities(draw):
    """``(lhs, rhs, atol, rtol)``: up to 8 inequalities, each with its own
    absolute tolerance."""
    n = draw(st.integers(1, 8))
    lhs, rhs = [], []
    for _ in range(n):
        left = draw(_SIDES)
        if draw(st.booleans()):
            right = draw(_SIDES)
        else:  # a drawn margin, nudged by a few ulps
            right = left + draw(_MARGINS)
            for _ in range(draw(st.integers(0, 3))):
                right = math.nextafter(right, draw(st.sampled_from([-math.inf, math.inf])))
        if lhs and draw(st.integers(0, 3)) == 0:  # an exact copy of an earlier one
            left, right = (v[draw(st.integers(0, len(lhs) - 1))] for v in (lhs, rhs))
        lhs.append(left)
        rhs.append(right)
    atol = draw(st.lists(st.sampled_from([0.0, 1e-10, ATOL, 0.3, 1.0]), min_size=n, max_size=n))
    return lhs, rhs, atol, draw(st.sampled_from([0.0, RTOL]))


@settings(max_examples=500, deadline=None)
@given(_inequalities())
def test_worst_entry_is_the_fold_of_the_single_entries(case):
    lhs, rhs, atol, rtol = case
    entries = [check_entry("c", str(i), a, b, atol=t, rtol=rtol)
               for i, (a, b, t) in enumerate(zip(lhs, rhs, atol))]
    got = _entry("c", str, lhs, rhs, atol=atol, rtol=rtol, note="n")
    # repr takes NaN for equal to NaN and tells -0.0 from 0.0
    assert repr(got) == repr(worst_entry(entries, "n"))


def test_quasi_stationarity_level_formula():
    L, nu, gamma, mu, c = 2.0, 0.5, 0.1, 1.5, 0.04
    assert_allclose(
        quasi_stationarity_level(L, nu, gamma, mu, c),
        L * (gamma * c) ** nu + mu * c,
        rtol=1e-15,
    )
    with pytest.raises(ConfigError):
        quasi_stationarity_level(1.0, 0.0, 0.1, 1.0, 0.1)
    with pytest.raises(ConfigError):
        quasi_stationarity_level(1.0, 1.0, 0.0, 1.0, 0.1)
    with pytest.raises(ConfigError):
        quasi_stationarity_level(-1.0, 1.0, 0.1, 1.0, 0.1)


# ---------------------------------------------------------------------------
# distance to the minimiser set
# ---------------------------------------------------------------------------


def test_delta_star_sphere_euclidean_closed_form():
    geom = EuclideanGeometry()
    oracle = AnalyticSphereOracle(np.zeros(2), 1.0, 0.0)
    val, p = delta_star(geom, oracle, np.array([2.0, 0.0]))
    assert_allclose(val, 0.5)
    assert_allclose(p, [1.0, 0.0])
    # inside the circle
    val, p = delta_star(geom, oracle, np.array([0.0, 0.25]))
    assert_allclose(val, 0.5 * 0.75 ** 2)
    assert_allclose(np.linalg.norm(p), 1.0)
    # at the center any point of the sphere attains 0.5 r^2
    val, p = delta_star(geom, oracle, np.zeros(2))
    assert_allclose(val, 0.5)
    assert_allclose(np.linalg.norm(p), 1.0)


def test_delta_star_sphere_projects_radially_under_a_scalar_diagonal():
    # c*I: the nearest sphere point is the radial one in any dimension
    oracle = AnalyticSphereOracle(np.zeros(3), 1.0, 0.0)
    xi = np.array([0.0, 1.2, 1.6])
    val, p = delta_star(DiagonalGeometry(3.0), oracle, xi)
    assert_allclose(p, [0.0, 0.6, 0.8])
    assert_allclose(val, 1.5)
    with pytest.raises(ConfigError, match="weighted one in 2-d"):
        delta_star(DiagonalGeometry([1.0, 2.0, 3.0]), oracle, xi)


def test_delta_star_sphere_diagonal_matches_brute_force():
    geom = DiagonalGeometry([1.0, 4.0])
    oracle = AnalyticSphereOracle(np.zeros(2), 1.0, 0.0)
    rng = np.random.default_rng(2)
    th_grid = np.linspace(0.0, 2.0 * np.pi, 200001)
    circle = np.stack([np.cos(th_grid), np.sin(th_grid)], axis=1)
    for _ in range(6):
        xi = rng.uniform(-1.5, 1.5, size=2)
        val, p = delta_star(geom, oracle, xi)
        brute = np.min(
            0.5 * ((circle - xi) ** 2 @ np.array([1.0, 4.0]))
        )
        assert val <= brute + 1e-9
        assert_allclose(np.linalg.norm(p), 1.0, atol=1e-12)


def test_delta_star_points_respects_geometry_weights():
    oracle = AnalyticPointsOracle(np.array([[0.0, 0.0], [1.0, 1.0]]), 0.0)
    xi = np.array([0.9, 0.9])
    val, p = delta_star(EuclideanGeometry(), oracle, xi)
    assert_allclose(p, [1.0, 1.0])
    assert_allclose(val, 0.5 * 2 * 0.01)
    # heavy weight on the second coordinate flips nothing here, but the
    # weighted value must match the formula
    geom = DiagonalGeometry([1.0, 100.0])
    val, p = delta_star(geom, oracle, xi)
    assert_allclose(p, [1.0, 1.0])
    assert_allclose(val, 0.5 * (0.01 + 100.0 * 0.01))


def test_delta_star_grid_oracle_uses_minimisers():
    oracle = GridSearchOracle(
        points=np.zeros((1, 2)),
        values=np.zeros(1),
        K_star=0.0,
        minimisers=np.array([[0.0, 0.0], [0.5, 0.5]]),
        resolution=0.1,
        slack=0.0,
    )
    val, p = delta_star(EuclideanGeometry(), oracle, np.array([0.4, 0.4]))
    assert_allclose(p, [0.5, 0.5])
    assert_allclose(val, 0.5 * 2 * 0.01)


def test_grid_oracle_finds_circle_minimisers():
    problem, family, _ = _circle_setup()
    oracle = minimiser_grid_oracle(
        problem, RULE, family, resolution=0.05, frozen_w=np.array([1.0])
    )
    assert oracle.K_star >= 0.0
    assert oracle.K_star <= 5e-3
    assert oracle.slack > 0.0
    # the grid argmin sits on the circle ...
    best = oracle.points[int(np.argmin(oracle.values))]
    assert abs(np.linalg.norm(best) - 1.0) <= 0.05
    # ... and the reported minimiser band covers the whole circle (it is an
    # outer approximation: slack errs towards including points)
    for th in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
        p = np.array([np.cos(th), np.sin(th)])
        d = np.min(np.linalg.norm(oracle.minimisers - p, axis=1))
        assert d <= 0.1


def test_grid_oracle_guards():
    problem, family, _ = _circle_setup()
    with pytest.raises(ConfigError):
        minimiser_grid_oracle(problem, RULE, family, resolution=0.0)
    # 2001 x 2001 mesh points: refused before the mesh is built
    limit = nonlinritz.certify.GRID_MAX_POINTS
    with pytest.raises(ConfigError, match=f"grid of 4004001 points exceeds the limit {limit}"):
        minimiser_grid_oracle(
            problem, RULE, family, resolution=0.0012, frozen_w=np.array([1.0]),
        )
    prob_g, fam_g = _gaussian_setup()
    big = GaussianBumps(
        NonlinearDomain([0.1] * 4, [0.9] * 4), np.full(4, 0.1)
    )
    with pytest.raises(ConfigError, match="3"):
        minimiser_grid_oracle(prob_g, RULE, big, resolution=0.1)


def test_grid_oracle_over_fixed_coordinates():
    # a coordinate with lower == upper is one grid value, and the slack
    # skips its axis: no adjacent pairs along it
    problem = _gaussian_setup()[0]
    family = GaussianBumps(NonlinearDomain([0.1, 0.5], [0.9, 0.5]), np.array([0.1, 0.1]))
    oracle = minimiser_grid_oracle(problem, RULE, family, resolution=0.05)
    assert oracle.points.shape == (17, 2)
    assert np.all(oracle.points[:, 1] == 0.5)
    assert oracle.K_star == min(reduced_energy(problem, RULE, family, p)[0]
                                for p in oracle.points)
    fixed = GaussianBumps(NonlinearDomain([0.3, 0.5], [0.3, 0.5]), np.array([0.1, 0.1]))
    oracle = minimiser_grid_oracle(problem, RULE, fixed, resolution=0.05)
    assert oracle.points.tolist() == [[0.3, 0.5]]
    assert oracle.slack == 0.0
    assert oracle.minimisers.tolist() == [[0.3, 0.5]]


def test_grid_oracle_assembles_and_decomposes_per_block(count_calls):
    problem, family = _gaussian_setup()[:2]
    assembles = count_calls("assemble", Evaluator)
    eighs = count_calls("eigh", np.linalg)
    oracle = minimiser_grid_oracle(problem, RULE, family, resolution=0.015)
    assert oracle.points.shape == (3025, 2)  # the 55 x 55 two-bump grid
    # blocks of 256 points: one assembly and one stacked eigh each
    assert len(assembles) <= math.ceil(3025 / 256)
    assert len(eighs) <= math.ceil(3025 / 256)
    for i in (0, 1234, 3024):
        assert oracle.values[i] == reduced_energy(problem, RULE, family, oracle.points[i])[0]


def test_hat_grid_oracle_assembles_per_block(count_calls):
    # two chained knots move the breakpoints at every grid point; points
    # with a knot on a panel edge have fewer panels, and all of a block's
    # points are split cell by cell in one assembly
    dom = NonlinearDomain([0.05, 0.05], [0.95, 0.95], chains=((0, 1),), gap=0.02)
    family = FreeKnotHats(dom, 0.0, 1.0)
    problem = L2Approx(Field(lambda x: np.abs(x - 0.33) + 0.5 * x * x, None, (0.33,)))
    rule = QuadratureRule.on_interval(0.0, 1.0, n_panels=16, order=5)
    assembles = count_calls("assemble", Evaluator)
    oracle = minimiser_grid_oracle(problem, rule, family, resolution=0.025)
    n = oracle.points.shape[0]
    block = Evaluator(problem, rule, family).slices(oracle.points)[0].stop
    ends = np.column_stack([np.zeros(n), oracle.points, np.ones(n), np.full(n, 0.33)])
    assert len(rule.split_rows(ends)) == 3  # no, one or two knots on a panel edge
    # one assembly per block, before stacking one per point
    assert len(assembles) == math.ceil(n / block) < n / 50
    for i in range(n):
        assert oracle.values[i] == reduced_energy(problem, rule, family, oracle.points[i])[0]


def test_two_bump_grid_takes_eigh_on_its_kernel_rows_only(count_calls):
    # equal widths: the 55 grid points with coincident centres span a
    # kernel; every other point is solved by LU
    problem = _gaussian_setup()[0]
    family = GaussianBumps(NonlinearDomain([0.1, 0.1], [0.9, 0.9]), np.array([0.1, 0.1]))
    decomposed = count_calls("eigh", np.linalg, first_arg=True)
    oracle = minimiser_grid_oracle(problem, RULE, family, resolution=0.015)
    assert oracle.points.shape == (3025, 2)
    kernel_rows = oracle.points[oracle.points[:, 0] == oracle.points[:, 1]]
    assert len(kernel_rows) == 55
    assert (np.concatenate(decomposed).tobytes()
            == assemble(problem, RULE, family, kernel_rows).matrix.tobytes())
    for i in (0, 56, 1234, 3023):  # 0 and 56 coincide, 1234 and 3023 do not
        assert oracle.values[i] == reduced_energy(problem, RULE, family, oracle.points[i])[0]


@pytest.mark.parametrize("h1", [False, True])
def test_hat_grid_oracles_decompose_nothing(count_calls, h1):
    # L2 hat mass matrices and Dirichlet hats with reaction are strictly
    # diagonally dominant: Gershgorin shows every grid system regular
    dom = NonlinearDomain([0.05, 0.05], [0.95, 0.95], chains=((0, 1),), gap=0.02)
    family = FreeKnotHats(dom, 0.0, 1.0, dirichlet=h1)
    if h1:
        problem = DiffusionReaction1D(Field(lambda x: 1.0 + 0.25 * np.sin(2 * np.pi * x)),
                                      constant(1.25), constant(1.0), 0.0, 1.0)
    else:
        problem = L2Approx(Field(lambda x: np.abs(x - 0.33) + 0.5 * x * x, None, (0.33,)))
    eighs, values = count_calls("eigh", np.linalg), count_calls("eigvalsh", np.linalg)
    oracle = minimiser_grid_oracle(problem, RULE, family, resolution=0.015)
    assert len(oracle.points) > 1000
    assert eighs == [] and values == []
    for i in (0, 777, len(oracle.points) - 1):
        assert oracle.values[i] == reduced_energy(problem, RULE, family, oracle.points[i])[0]


def test_grid_oracle_memory_is_bounded_by_the_block():
    problem, family = _gaussian_setup()[:2]
    minimiser_grid_oracle(problem, RULE, family, resolution=0.1)  # warm-up
    tracemalloc.start()
    try:
        oracle = minimiser_grid_oracle(problem, RULE, family, resolution=0.015)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert oracle.points.shape[0] == 3025
    assert peak < 4e6  # one stack of the whole grid peaks near 12 MB


# ---------------------------------------------------------------------------
# per-run certificates
# ---------------------------------------------------------------------------


def test_decrease_and_lambda_max_certificates_pass():
    rec, problem, family = _gaussian_run()
    for e in decrease_certificate(rec):
        assert e.status == "pass", e
    constants = ProblemConstants(norm_a=1.0, alpha=1.0, norm_ell=1.0)
    for e in lambda_max_certificate(rec, constants):
        assert e.status == "pass", e


def test_spd_certificate_pass_and_fail():
    rec, _, _ = _gaussian_run()
    assert all(e.status == "pass" for e in spd_certificate(rec, 0.5 * min(rec.omega)))
    assert any(e.status == "fail" for e in spd_certificate(rec, 2.0 * max(rec.omega)))


def test_energy_monotonicity_detects_tampering():
    rec, _, _ = _gaussian_run()
    assert all(e.status == "pass" for e in energy_monotonicity_certificate(rec))
    bad = copy.deepcopy(rec)
    bad.K[2] += 1.0
    entries = energy_monotonicity_certificate(bad)
    assert any(e.status == "fail" for e in entries)


def test_energy_monotonicity_skips_constant_steps():
    rec, _, _ = _gaussian_run(schedule=ConstantGamma(0.05))
    (entry,) = energy_monotonicity_certificate(rec)
    assert entry.status == "skipped"
    assert entry.note == "constant step size: the descent step condition is not verified"


def _with_schedule(rec, **schedule):
    """A copy of ``rec`` that records the step rule ``LipschitzAdaptive(**schedule)``."""
    out = copy.deepcopy(rec)
    out.schedule = LipschitzAdaptive(zeta=0.9, lipschitz=5.0, **schedule)
    return out


def test_hoelder_slack_bounds_the_energy_rise_per_step():
    rec, _, _ = _gaussian_run()
    rec.K[3] = rec.K[2] + 0.05  # one rise of 0.05
    slack = dict(nu=0.5, eps_holder=0.1)
    (entry,) = energy_monotonicity_certificate(_with_schedule(rec, **slack))
    assert entry.status == "pass" and entry.anchor == "step 2"
    assert_allclose(entry.margin, 0.05, rtol=1e-12)
    tight = _with_schedule(rec, nu=0.5, eps_holder=0.01)
    assert energy_monotonicity_certificate(tight)[0].status == "fail"
    # under nu = 1 the step needs no slack and gets none, whatever eps_holder says
    assert energy_monotonicity_certificate(_with_schedule(rec, eps_holder=0.1))[0].status == "fail"


def test_hoelder_slack_enters_the_local_rate_bound():
    rec, _, _ = _gaussian_run(stopping=StoppingCriteria(max_epochs=12))
    lower = rec.K[0] + 0.05  # too high by a little
    (plain,) = local_rate_certificate(rec, lower)
    assert plain.status == "fail"
    assert local_rate_certificate(_with_schedule(rec, eps_holder=0.1), lower) == [plain]
    (slack,) = local_rate_certificate(_with_schedule(rec, nu=0.5, eps_holder=0.1), lower)
    assert slack.status == "pass"
    # the bound is 2 (K_0 - K_lower + n eps) / S_n at the horizon named
    n = int(slack.anchor.split("=")[1])
    terms = [min(rec.gamma * (2.0 * rec.mu - rec.gamma * rec.lipschitz_L), 1.0 / lam)
             for lam in rec.lambda_max[:n]]
    assert_allclose(slack.rhs, 2.0 * (rec.K[0] - lower + n * 0.1) / sum(terms),
                    rtol=1e-12)


def test_local_rate_certificate_pass_and_negative():
    rec, problem, family = _gaussian_run(stopping=StoppingCriteria(max_epochs=12))
    target_sq = bilinear(problem, RULE, problem.target, problem.target)
    lower = -0.5 * target_sq  # no approximation beats the target itself
    entries = local_rate_certificate(rec, K_star_lower=lower)
    assert all(e.status == "pass" for e in entries)
    assert entries[0].margin >= 0.0
    # an invalid (too high) lower bound must be caught
    bogus = rec.K[0] + 1.0
    assert any(e.status == "fail" for e in local_rate_certificate(rec, bogus))


def test_local_rate_skips_without_lipschitz_record():
    rec, _, _ = _gaussian_run(schedule=ConstantGamma(0.05))
    entries = local_rate_certificate(rec, K_star_lower=-10.0)
    assert entries[0].status == "skipped"
    assert entries[0].note == "constant step size: no Lipschitz surrogate recorded"


def test_local_rate_skips_for_frozen():
    rec, *_ = _circle_run(max_epochs=5)
    entries = local_rate_certificate(rec, K_star_lower=-10.0)
    assert entries[0].status == "skipped"


def test_surrogate_certificate_pass_and_negative():
    eps_target = 1e-3
    gamma = 0.9 / 5.0
    rec, problem, family = _gaussian_run(
        stopping=StoppingCriteria(max_epochs=500, eps_xi=gamma * eps_target)
    )
    assert rec.termination == "xi_stabilised"
    ok = surrogate_certificate(rec, L=5.0, nu=1.0, eps_target=eps_target)
    assert ok[0].status == "pass"
    bad = surrogate_certificate(rec, L=5.0, nu=1.0, eps_target=1e-9)
    assert bad[0].status == "fail"


def test_surrogate_certificate_needs_stabilised_stop():
    rec, problem, family = _gaussian_run(stopping=StoppingCriteria(max_epochs=2))
    entries = surrogate_certificate(rec, L=5.0, nu=1.0, eps_target=1e-3)
    assert entries[0].status == "skipped"


# ---------------------------------------------------------------------------
# global certificates on the circle synthetic
# ---------------------------------------------------------------------------


def test_global_step_certificate_on_circle():
    rec, problem, family, oracle = _circle_run()
    geom = EuclideanGeometry()
    entries = global_step_certificate(rec, geom, oracle, L_bar=16.0)
    assert [e.name for e in entries] == [
        "global-step-delta-monotone", "global-step-descent",
    ]
    assert all(e.status == "pass" for e in entries)


def test_global_step_skips_outside_basin_or_large_gamma():
    rec, problem, family, oracle = _circle_run()
    geom = EuclideanGeometry()
    entries = global_step_certificate(rec, geom, oracle, L_bar=16.0, rho=1e-6)
    assert entries[0].status == "skipped" and "basin" in entries[0].note
    entries = global_step_certificate(rec, geom, oracle, L_bar=100.0)
    assert entries[0].status == "skipped" and "gamma" in entries[0].note


def test_global_certificates_need_exact_updates():
    rec, _, _ = _gaussian_run(linear_rule=SteepestDescent(),
                              stopping=StoppingCriteria(max_epochs=3))
    _, _, oracle = _circle_setup()
    geom = EuclideanGeometry()
    assert global_step_certificate(rec, geom, oracle, 16.0)[0].status == "skipped"
    assert global_rate_certificate(rec, geom, oracle)[0].status == "skipped"


def test_global_rate_certificate_on_circle():
    rec, problem, family, oracle = _circle_run(max_epochs=60)
    geom = EuclideanGeometry()
    entries = global_rate_certificate(rec, geom, oracle)
    assert entries[0].status == "pass"
    # the energy really does approach the oracle optimum
    assert rec.K_reduced[-1] <= 1e-3


def test_cea_certificate_on_circle():
    rec, problem, family, oracle = _circle_run(max_epochs=60)
    geom = EuclideanGeometry()
    (entry,) = cea_certificate(
        rec, problem, RULE, family, constant(0.0), oracle,
        L_bar=16.0, zeta=1.0, geom=geom,
    )
    assert entry.status == "pass"
    assert entry.note.endswith(f"checked horizons 1..{len(rec.K) - 1}")
    # realised error approaches the (zero) best-in-class error at rate ~ 1/n
    slope = gap_slope(realised_gaps(rec, problem, RULE, family, constant(0.0)))
    assert slope <= -0.8


def test_cea_certificate_reads_recorded_exact_coefficients(count_calls):
    rec, problem, family = _gaussian_run()
    # for exact updates the recorded coefficients are the exact solve, bitwise
    for xi, w in zip(rec.xi, rec.w):
        _, w_star = reduced_energy(problem, RULE, family, xi)
        assert np.array_equal(w, w_star)
    calls = count_calls("assemble", Evaluator)
    oracle = AnalyticPointsOracle(np.array([[0.3, 0.7]]), rec.final_K)
    (entry,) = cea_certificate(rec, problem, RULE, family, problem.target, oracle,
                               L_bar=5.0, zeta=0.9, geom=EuclideanGeometry())
    assert entry.note.endswith(f"checked horizons 1..{rec.n_steps}")
    assert calls == []


def test_gap_slope_recovers_power_law():
    ns = np.arange(1.0, 101.0)
    assert_allclose(gap_slope(3.0 / ns), -1.0, atol=1e-12)
    assert gap_slope(np.full(100, 1e-15)) == -math.inf  # everything below the floor


def test_realised_gaps_are_the_cea_left_sides():
    rec, problem, family, oracle = _circle_run(max_epochs=6)
    gaps = realised_gaps(rec, problem, RULE, family, constant(0.0), best_in_V=0.25)
    assert gaps.shape == (rec.n_steps,)
    (entry,) = cea_certificate(rec, problem, RULE, family, constant(0.0), oracle,
                               L_bar=16.0, zeta=1.0, geom=EuclideanGeometry(),
                               best_in_V=0.25)
    n = int(entry.anchor.split("=")[1])
    assert_allclose(entry.lhs - 0.25, gaps[n - 1], rtol=1e-14)


# ---------------------------------------------------------------------------
# convexity probes
# ---------------------------------------------------------------------------


def test_directional_convexity_probe_signs():
    xi = np.array([0.0, 0.2])
    xi_star = np.array([1.0, 1.0])
    convex = directional_convexity_probe(lambda p: float(p @ p), xi, xi_star)
    assert convex.convex and convex.min_curvature > 0.0
    concave = directional_convexity_probe(lambda p: -float(p @ p), xi, xi_star)
    assert not concave.convex and concave.min_curvature < 0.0
    with pytest.raises(ConfigError):
        directional_convexity_probe(lambda p: 0.0, xi, xi_star, n_probe=0)


def test_directional_convexity_probe_checks_domain():
    dom = NonlinearDomain([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(DomainViolationError):
        directional_convexity_probe(
            lambda p: float(p @ p), np.array([2.0, 0.0]), np.array([0.5, 0.5]),
            domain=dom,
        )


def test_quantitative_dc_condition_pass_and_fail():
    problem, family, _ = _circle_setup()
    kwargs = dict(
        kappa_max=1.0, norm_ell=0.0, alpha=1.0, L_phi=1.0, rho=1.0,
        frozen_w=np.array([1.0]),
    )
    lhs, rhs = dc_condition(
        problem, RULE, family, np.array([0.9, 0.0]), np.array([1.0, 0.0]),
        inf_dist=1e-8, **kwargs,
    )
    assert lhs <= rhs
    lhs, rhs = dc_condition(
        problem, RULE, family, np.array([0.9, 0.0]), np.array([1.0, 0.0]),
        inf_dist=10.0, **kwargs,
    )
    assert lhs > rhs


def test_quantitative_dc_condition_realises_the_exact_solves():
    # without frozen coefficients the reduced realisation carries w*(eta),
    # which is Galerkin exact: a(Rbar(eta), phi_k) = ell(phi_k) on the field path
    problem, family = _gaussian_setup()
    xi, xi_star = np.array([0.35, 0.65]), np.array([0.3, 0.7])
    for t in (0.25, 0.5, 0.75):
        eta = xi + t * (xi_star - xi)
        r = realisation(family, eta, reduced_energy(problem, RULE, family, eta)[1])
        for e in np.eye(family.n_linear):
            phi_k = realisation(family, eta, e)
            assert_allclose(bilinear(problem, RULE, r, phi_k), linear_form(problem, RULE, phi_k),
                            rtol=1e-10)
    args = (problem, RULE, family, xi, xi_star)
    kwargs = dict(kappa_max=1.0, norm_ell=1.0, alpha=1.0, L_phi=1.0, n_samples=2)
    # rho = inf_dist = 0: the condition reads 0 <= ||d Rbar[D]||_a^2
    lhs, rhs = dc_condition(*args, rho=0.0, inf_dist=0.0, **kwargs)
    assert lhs == 0.0 and rhs > 0.0
    lhs, rhs = dc_condition(*args, rho=0.0, inf_dist=10.0, **kwargs)
    assert lhs > rhs


# ---------------------------------------------------------------------------
# lemma constant checks on the gaussian corpus
# ---------------------------------------------------------------------------


def _gaussian_constants(problem, family, points):
    systems = [assemble(problem, RULE, family, p) for p in points]
    omega_min = min(s.omega for s in systems)
    m_phi = max(s.phi_u2 for s in systems)
    m_dphi = max(dphi_norm(family, RULE, p) for p in points)
    norm_ell = math.sqrt(bilinear(problem, RULE, problem.target, problem.target))
    return norm_ell, omega_min, m_phi, m_dphi, kappa(1.0, 1.0, m_phi, omega_min)


def test_best_linear_bounds_hold_on_samples():
    problem, family = _gaussian_setup()
    rng = np.random.default_rng(21)
    points = [family.domain.sample(rng) for _ in range(24)]
    pairs = [(points[2 * i], points[2 * i + 1]) for i in range(12)]
    norm_ell, omega_min, m_phi, m_dphi, kappa_max = _gaussian_constants(
        problem, family, points
    )
    margins = best_linear_margins(
        make_gradients(problem, RULE, family), pairs,
        norm_ell=norm_ell, alpha=1.0, omega_min=omega_min,
        m_phi=m_phi, kappa_max=kappa_max, m_dphi=m_dphi,
    )
    assert list(margins) == [
        "best-linear-norm", "best-linear-hoelder", "reduced-gradient-hoelder",
    ]
    for name, margin in margins.items():
        assert margin >= 0.0, name


def test_regularity_constants_hold_on_state_pairs():
    problem, family = _gaussian_setup()
    rng = np.random.default_rng(22)
    state_pairs = []
    for _ in range(12):
        state_pairs.append((
            (rng.standard_normal(2), family.domain.sample(rng)),
            (rng.standard_normal(2), family.domain.sample(rng)),
        ))
    target_sq = bilinear(problem, RULE, problem.target, problem.target)
    margins = regularity_margins(
        make_gradients(problem, RULE, family), state_pairs,
        norm_a=1.0, norm_ell=math.sqrt(target_sq),
    )
    assert list(margins) == ["regularity-linear-grad", "regularity-nonlinear-grad"]
    for name, margin in margins.items():
        assert margin >= 0.0, name
