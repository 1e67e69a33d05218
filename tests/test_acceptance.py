"""End-to-end acceptance battery.

One test per shipped guarantee; each prints a single pass line (visible with
``pytest -s``) and the pytest verdict itself is the pass/fail record.  All
runs are desk scale: a handful of linear/nonlinear parameters, seconds each.
"""

import copy
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nonlinritz.assembly import assemble, check_consistency, quadratic_energy
from nonlinritz.basis import (
    FreeKnotHats,
    GaussianBumps,
    IndicatorPair,
    NonlinearDomain,
    SyntheticAmplitude,
    realisation,
)
from nonlinritz.certify import (
    AnalyticPointsOracle,
    AnalyticSphereOracle,
    cea_certificate,
    delta_star,
    directional_convexity_probe,
    energy_monotonicity_certificate,
    local_rate_certificate,
    minimiser_grid_oracle,
    surrogate_certificate,
)
from nonlinritz.cli import main as cli_main
from nonlinritz.optimizer import (
    LipschitzAdaptive,
    StoppingCriteria,
    estimate_lipschitz_L,
    hoelder_to_lipschitz,
    reduced_energy,
    reduced_gradient,
    run,
)
from nonlinritz.updates import (
    EuclideanGeometry,
    Frozen,
    FullSolveCG,
    SteepestDescent,
    make_gradients,
)
from nonlinritz.variational import Field, L2Approx, QuadratureRule, bilinear, energy

from helpers import constant, gap_slope, realised_gaps
from lemma_norms import best_linear_margins, dphi_norm, kappa, regularity_margins

RULE = QuadratureRule.on_interval(0.0, 1.0, n_panels=16, order=5)

# the fit corpus: a target that is exactly representable by the family
# (bump centres 0.3 and 0.7 with the family's own widths), so the infimum
# of the reduced energy is attained at a known parameter point
CENTERS = np.array([0.3, 0.7])
WIDTHS = np.array([0.1, 0.12])
COEFFS = np.array([0.8, 0.5])


def _target_values(x):
    x = np.asarray(x, dtype=float)
    return sum(
        c * np.exp(-0.5 * ((x - m) / s) ** 2)
        for c, m, s in zip(COEFFS, CENTERS, WIDTHS)
    )


@pytest.fixture(scope="module")
def corpus():
    problem = L2Approx(Field(_target_values))
    family = GaussianBumps(NonlinearDomain([0.1, 0.1], [0.9, 0.9]), WIDTHS)
    xi0 = np.array([0.4, 0.6])
    schedule = LipschitzAdaptive(zeta=1.0, lipschitz="estimate", nu=1.0,
                                 eps_holder=0.0, n_pairs=20, seed=0)
    records = {}
    for name, rule in (("full", FullSolveCG()), ("sd", SteepestDescent())):
        records[name] = run(
            problem, RULE, family, rule, EuclideanGeometry(), schedule,
            StoppingCriteria(max_epochs=25), xi0,
        )
    K_true = energy(problem, RULE, problem.target)  # attained: representable
    return {
        "problem": problem,
        "family": family,
        "records": records,
        "K_true": K_true,
        "xi0": xi0,
    }


def _circle_pieces(scale=0.7):
    domain = NonlinearDomain([-1.2, -1.2], [1.2, 1.2])
    family = SyntheticAmplitude(domain, profile="sphere_quartic", radius=1.0,
                                scale=scale)
    problem = L2Approx(constant(0.0))
    oracle = AnalyticSphereOracle(np.zeros(2), 1.0, 0.0)
    return problem, family, oracle


def test_criterion_01_indicator_assembly_closed_form():
    domain = NonlinearDomain([0.0, 0.0, 0.0], [1.0, 1.0, 1.0],
                             chains=((0, 1, 2),))
    family = IndicatorPair(domain)
    problem = L2Approx(Field(lambda x: np.sin(2 * np.pi * np.asarray(x))))
    system = assemble(problem, RULE, family, np.array([0.0, 0.5, 1.0]))
    assert np.max(np.abs(system.matrix - np.diag([0.5, 0.5]))) <= 1e-12
    # the quadratic form agrees with the piecewise closed form
    w = np.array([1.3, -0.4])
    assert abs(w @ system.matrix @ w - (w[0] ** 2 * 0.5 + w[1] ** 2 * 0.5)) <= 1e-12
    print("criterion 1 [PASS]: indicator stiffness matches diag(0.5, 0.5) @ 1e-12")


def test_criterion_02_rank_deficient_consistency():
    cases = []
    # coincident bump centres: identical columns
    fam = GaussianBumps(NonlinearDomain([0.1, 0.1], [0.9, 0.9]), np.array([0.1, 0.1]))
    prob = L2Approx(Field(_target_values))
    cases.append(assemble(prob, RULE, fam, np.array([0.5, 0.5])))
    # indicator with an empty first interval
    dom3 = NonlinearDomain([0.0] * 3, [1.0] * 3, chains=((0, 1, 2),))
    cases.append(assemble(prob, RULE, IndicatorPair(dom3), np.array([0.3, 0.3, 0.8])))
    # free knot collapsed onto the interval end: a zero hat
    domh = NonlinearDomain([0.0, 0.0], [0.9, 0.9], chains=((0, 1),))
    cases.append(
        assemble(prob, RULE, FreeKnotHats(domh, 0.0, 1.0), np.array([0.0, 0.5]))
    )
    for i, system in enumerate(cases):
        rep = check_consistency(system)
        assert rep.kernel_dim >= 1, f"case {i} is not rank deficient"
        assert rep.load_kernel_residual <= 1e-10, f"case {i}: {rep}"
        assert rep.realisation_gap <= 1e-10, f"case {i}: {rep}"
    print("criterion 2 [PASS]: 3 rank-deficient systems, kernel residual and "
          "realisation gap <= 1e-10")


def test_criterion_03_energy_decrease_both_rules(corpus):
    checked = 0
    for name, rec in corpus["records"].items():
        ach0, gua0 = rec.initial_decrease
        assert ach0 >= gua0 - 1e-9, f"{name}: initial update"
        for k in range(rec.n_steps):
            lam_next = rec.lambda_max[k + 1]
            guaranteed = 0.5 / lam_next * rec.grad_w_post_norm[k] ** 2
            assert rec.decrease_achieved[k] >= guaranteed - 1e-9, (
                f"{name}: step {k}"
            )
            checked += 1
        for k, (xi, lam) in enumerate(zip(rec.xi, rec.lambda_max)):
            # ||phi(xi)||_{U,2}^2 on the field path: each basis function
            # realised alone, its L2 norm by quadrature split at its breakpoints
            phi_sq = sum(bilinear(corpus["problem"], RULE, f, f) for f in (
                realisation(corpus["family"], xi, e)
                for e in np.eye(corpus["family"].n_linear)))
            assert lam <= 1.0 * phi_sq + 1e-9, f"{name}: iterate {k}"
    print(f"criterion 3 [PASS]: decrease >= 0.5*||grad_W||^2/lambda_max - 1e-9 "
          f"at {checked} updates (both rules) and lambda_max within the "
          f"basis-norm bound")


def test_criterion_04_reduced_gradient_vs_fd():
    prob = L2Approx(Field(_target_values))
    fams = {
        "gaussian_bumps": GaussianBumps(
            NonlinearDomain([0.1, 0.1], [0.9, 0.9]), WIDTHS
        ),
        "free_knot_hats": FreeKnotHats(
            NonlinearDomain([0.15, 0.15], [0.85, 0.85], chains=((0, 1),), gap=0.1),
            0.0, 1.0,
        ),
        "indicator_pair": IndicatorPair(
            NonlinearDomain([0.0] * 3, [1.0] * 3, chains=((0, 1, 2),), gap=0.05)
        ),
    }
    h = 1e-5
    worst = {}
    for name, fam in fams.items():
        rng = np.random.default_rng(17)
        interior = fam.domain.shrink(1e-3)
        worst[name] = 0.0
        for _ in range(20):
            xi = interior.sample(rng)
            g = reduced_gradient(make_gradients(prob, RULE, fam), xi)
            fd = np.zeros_like(g)
            for i in range(xi.size):
                e = np.zeros_like(xi)
                e[i] = h
                kp, _ = reduced_energy(prob, RULE, fam, xi + e)
                km, _ = reduced_energy(prob, RULE, fam, xi - e)
                fd[i] = (kp - km) / (2.0 * h)
            rel = float(np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-10))
            worst[name] = max(worst[name], rel)
            assert rel <= 1e-4, f"{name}: xi={xi}, rel={rel}"
    print("criterion 4 [PASS]: reduced gradient vs central FD rel err <= 1e-4 "
          f"at 20 points/family (worst: { {k: f'{v:.2e}' for k, v in worst.items()} })")


def test_criterion_05_local_rate_and_monotone_energy(corpus):
    for name, rec in corpus["records"].items():
        entries = local_rate_certificate(rec, K_star_lower=corpus["K_true"])
        assert len(entries) == 1 and entries[0].status == "pass", (name, entries)
        assert entries[0].margin >= 0.0
        energies = rec.K
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 1e-10, name
    print("criterion 5 [PASS]: stationarity-residual bound holds at every "
          "horizon and energies are non-increasing (tol 1e-10), both rules")


def test_criterion_06_surrogate_certificate_and_negative(corpus):
    problem, family = corpus["problem"], corpus["family"]
    xi0 = corpus["xi0"]
    # reproduce the schedule's constant to size the stopping tolerance
    system = assemble(problem, RULE, family, xi0)
    w_init = system.solution
    L_hat = estimate_lipschitz_L(make_gradients(problem, RULE, family), w_init,
                                 n_pairs=20, seed=0)
    zeta, eps = 1.0, 1e-3
    gamma = zeta * 1.0 / L_hat
    rec = run(
        problem, RULE, family, FullSolveCG(), EuclideanGeometry(),
        LipschitzAdaptive(zeta=zeta, lipschitz=L_hat),
        StoppingCriteria(max_epochs=500, eps_xi=gamma * eps), xi0,
    )
    assert rec.termination == "xi_stabilised"
    good = surrogate_certificate(rec, L=L_hat, nu=1.0, eps_target=eps)
    assert good[0].status == "pass", good
    # negative control: a perturbed final iterate must be rejected
    tampered = copy.deepcopy(rec)
    tampered.grad_map_norm[-1] *= 1e3
    bad = surrogate_certificate(tampered, L=L_hat, nu=1.0, eps_target=eps)
    assert bad[0].status == "fail", bad
    print("criterion 6 [PASS]: stopping at eps*gamma certifies level <= "
          "L*(gamma*eps)^nu + mu*eps; perturbed iterate fails")


def test_criterion_07_global_rate_from_twenty_starts():
    problem, family, oracle = _circle_pieces()
    geom = EuclideanGeometry()
    # curvature bound of the quartic over the box: 4 s^2 (3 r^2 - 1) peaks
    # at the corners (r^2 = 2*1.44)
    L_bar = 4.0 * 0.7 ** 2 * (3.0 * 2.88 - 1.0)
    gamma = 1.0 / L_bar
    from nonlinritz.optimizer import ConstantGamma

    rng = np.random.default_rng(23)
    starts = []
    while len(starts) < 20:
        p = rng.uniform(-1.2, 1.2, size=2)
        if p @ p >= 1.0 / 3.0:
            starts.append(p)
    worst_rate_margin = np.inf
    for xi0 in starts:
        rec = run(
            problem, RULE, family, Frozen(), geom, ConstantGamma(gamma),
            StoppingCriteria(max_epochs=200), xi0, w0=np.array([1.0]),
        )
        deltas = [delta_star(geom, oracle, xi)[0] for xi in rec.xi]
        for a, b in zip(deltas, deltas[1:]):
            assert b <= a + 1e-11, f"delta* increased from start {xi0}"
        gsum = 0.0
        for n in range(1, len(rec.K)):
            gsum += gamma
            lhs = rec.K_reduced[n] - oracle.K_star
            rhs = deltas[0] / gsum
            assert lhs <= rhs + 1e-11, f"rate violated at n={n} from {xi0}"
            worst_rate_margin = min(worst_rate_margin, rhs - lhs)
    print("criterion 7 [PASS]: delta* non-increasing and "
          "K(xi_n) - K* <= delta*(xi_0)/(n*gamma) for n <= 200, 20 starts "
          f"(worst margin {worst_rate_margin:.3e})")


def test_criterion_08_nonlinear_cea_with_grid_oracle(corpus):
    problem, family = corpus["problem"], corpus["family"]
    geom = EuclideanGeometry()
    # best approximation over the whole class, witnessed on a grid that
    # contains the representable optimum exactly
    grid = minimiser_grid_oracle(problem, RULE, family, resolution=0.05)
    best_in_V = 2.0 * (grid.K_star - corpus["K_true"])
    assert -1e-10 <= best_in_V <= 1e-8, best_in_V

    # reduced-gradient Lipschitz estimate (safety factor 2) sets the step
    grads = make_gradients(problem, RULE, family)
    rng = np.random.default_rng(29)
    L_red = 0.0
    for _ in range(20):
        xi, eta = family.domain.sample(rng), family.domain.sample(rng)
        d = float(np.linalg.norm(xi - eta))
        if d == 0.0:
            continue
        diff = reduced_gradient(grads, xi) - reduced_gradient(grads, eta)
        L_red = max(L_red, float(np.linalg.norm(diff)) / d)
    L_red *= 2.0
    zeta = 1.0
    rec = run(
        problem, RULE, family, FullSolveCG(), geom,
        LipschitzAdaptive(zeta=zeta, lipschitz=L_red),
        StoppingCriteria(max_epochs=80), corpus["xi0"],
    )
    oracle = AnalyticPointsOracle(CENTERS[None, :], corpus["K_true"])
    (entry,) = cea_certificate(
        rec, problem, RULE, family, problem.target, oracle,
        L_bar=L_red, zeta=zeta, geom=geom, best_in_V=max(best_in_V, 0.0),
    )
    assert entry.status == "pass", entry
    slope = gap_slope(realised_gaps(rec, problem, RULE, family, problem.target,
                                    max(best_in_V, 0.0)))
    assert slope <= -0.8, slope
    print(f"criterion 8 [PASS]: quasi-optimality bound at every horizon, "
          f"best_in_V = {best_in_V:.3e} <= 1e-8, gap slope {slope:.2f} <= -0.8")


def test_criterion_09_closed_form_constants():
    assert abs(hoelder_to_lipschitz(1.0, 0.5, 1.0 / 6.0) - 1.0) <= 1e-12
    for L in (0.25, 1.0, 9.0):
        assert abs(hoelder_to_lipschitz(L, 1.0, 0.0) - L) <= 1e-12
    print("criterion 9 [PASS]: pinned constants reproduced to 1e-12")


def test_criterion_10_convexity_probe_matches_circle_region():
    problem, family, oracle = _circle_pieces()
    geom = EuclideanGeometry()
    w1 = np.array([1.0])

    def reduced(xi):
        return quadratic_energy(assemble(problem, RULE, family, xi), w1)

    rng = np.random.default_rng(31)
    threshold = 1.0 / np.sqrt(3.0)
    agree = 0
    sampled = 0
    while sampled < 100:
        xi = rng.uniform(-1.2, 1.2, size=2)
        r = float(np.linalg.norm(xi))
        if abs(r - threshold) <= 0.02:
            continue  # boundary band: the probe's verdict is not specified
        sampled += 1
        xi_star = delta_star(geom, oracle, xi)[1]
        probe = directional_convexity_probe(reduced, xi, xi_star, n_probe=49)
        expected = r ** 2 >= 1.0 / 3.0
        assert probe.convex == expected, (xi, r, probe)
        agree += 1
    assert agree == 100
    print("criterion 10 [PASS]: probe verdict matches {x^2+y^2 >= 1/3} on "
          "100 segments outside the 0.02 band")


def test_criterion_11_lemma_bounds_at_fifty_pairs(corpus):
    # the stability and regularity lemmas, with the norms of phi and of its
    # parameter derivatives measured on the field path (tests/lemma_norms.py)
    problem, family = corpus["problem"], corpus["family"]
    rng = np.random.default_rng(37)
    points = [family.domain.sample(rng) for _ in range(100)]
    pairs = [(points[2 * i], points[2 * i + 1]) for i in range(50)]

    systems = [assemble(problem, RULE, family, p) for p in points]
    omega_min = min(s.omega for s in systems)
    m_phi = max(s.phi_u2 for s in systems)
    m_dphi = max(dphi_norm(family, RULE, p) for p in points)
    norm_ell = float(np.sqrt(bilinear(problem, RULE, problem.target, problem.target)))

    grads = make_gradients(problem, RULE, family)
    margins = best_linear_margins(
        grads, pairs, norm_ell=norm_ell, alpha=1.0, omega_min=omega_min,
        m_phi=m_phi, kappa_max=kappa(1.0, 1.0, m_phi, omega_min), m_dphi=m_dphi,
    )
    state_pairs = []
    for i in range(50):
        state_pairs.append((
            (rng.standard_normal(2), family.domain.sample(rng)),
            (rng.standard_normal(2), family.domain.sample(rng)),
        ))
    margins.update(regularity_margins(grads, state_pairs, norm_a=1.0, norm_ell=norm_ell))
    assert len(margins) == 5
    for name, margin in margins.items():
        assert margin >= 0.0, name
    print("criterion 11 [PASS]: stability and regularity lemma bounds hold "
          "with margin >= 0 at 50 pairs each")


def test_criterion_12_byte_identical_reruns(tmp_path):
    cfg = {
        "problem": {
            "kind": "l2",
            "target": "0.8*gauss(x, 0.3, 0.1) + 0.5*gauss(x, 0.7, 0.12)",
            "x_lo": 0.0, "x_hi": 1.0,
        },
        "constants": {"alpha": 1.0, "norm_a": 1.0, "norm_ell": 1.0},
        "family": {"kind": "gaussian_bumps", "widths": [0.1, 0.12]},
        "domain": {"lower": [0.1, 0.1], "upper": [0.9, 0.9]},
        "schedule": {"kind": "lipschitz", "zeta": 1.0, "lipschitz": "estimate"},
        "stopping": {"max_epochs": 12},
        "init": {"xi0": [0.4, 0.6]},
        "seed": 11,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for d in ("a", "b"):
        out = tmp_path / d
        assert cli_main(["run", "--config", str(cfg_path),
                         "--out-dir", str(out)]) == 0
        outs.append(out)
    for name in ("trace.csv", "summary.json"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between reruns"
    print("criterion 12 [PASS]: repeated runs produce byte-identical "
          "trace.csv and summary.json")
