"""Fit a two-bump profile by moving Gaussian centres.

The target is a mixture of two Gaussians whose centres the family can
reproduce exactly, so the best reachable energy is known in closed form.
Alternating minimisation solves the linear coefficients exactly at each
step and moves the centres by a constrained gradient step whose size is
set from an estimated Lipschitz constant.

Run:  python3 demos/gaussian_fit.py
"""

import numpy as np

from nonlinritz import (
    Field,
    FullSolveCG,
    GaussianBumps,
    L2Approx,
    LipschitzAdaptive,
    NonlinearDomain,
    QuadratureRule,
    SteepestDescent,
    StoppingCriteria,
    EuclideanGeometry,
    energy,
    local_rate_certificate,
    run,
)

CENTERS = np.array([0.3, 0.7])
WIDTHS = np.array([0.1, 0.12])
COEFFS = np.array([0.8, 0.5])


def target_values(x):
    x = np.asarray(x, dtype=float)
    return sum(
        c * np.exp(-0.5 * ((x - m) / s) ** 2)
        for c, m, s in zip(COEFFS, CENTERS, WIDTHS)
    )


def main():
    rule = QuadratureRule.on_interval(0.0, 1.0, n_panels=16, order=5)
    problem = L2Approx(Field(target_values))
    family = GaussianBumps(NonlinearDomain([0.1, 0.1], [0.9, 0.9]), WIDTHS)
    # zeta < 1 leaves headroom in case the sampled Lipschitz estimate
    # undershoots the curvature near the optimum
    schedule = LipschitzAdaptive(zeta=0.5, lipschitz="estimate", seed=0)
    stopping = StoppingCriteria(max_epochs=16)
    xi0 = np.array([0.45, 0.55])

    # the target lies in the family, so inf K equals the energy of the
    # target itself
    K_star = energy(problem, rule, problem.target)
    print(f"target centres {CENTERS}, attainable optimum K* = {K_star:.12f}\n")

    for label, linear_rule in (
        ("exact linear solves", FullSolveCG()),
        ("one steepest-descent sweep per step", SteepestDescent()),
    ):
        rec = run(problem, rule, family, linear_rule, EuclideanGeometry(),
                  schedule, stopping, xi0)
        print(f"--- {label} ---")
        print(f"{'iter':>4} {'K':>16} {'centres':>22} {'step':>10}")
        for k, (K, xi) in enumerate(zip(rec.K, rec.xi)):
            step = f"{rec.step_norm[k]:.2e}" if k < rec.n_steps else ""
            print(f"{k:>4} {K:>16.10f} "
                  f"[{xi[0]:.6f}, {xi[1]:.6f}] {step:>10}")
        gap = rec.final_K - K_star
        print(f"final energy gap to the representable optimum: {gap:.3e}")

        # the telescoped stationarity bound needs exact linear solves at
        # every step, so it only applies to the first run
        if isinstance(linear_rule, FullSolveCG):
            entry = local_rate_certificate(rec, K_star_lower=K_star)[0]
            print(f"stationarity-residual certificate: {entry.status} "
                  f"(worst margin {entry.margin:.3e} at {entry.anchor})")
        print()


if __name__ == "__main__":
    main()
