"""A synthetic valley whose minimisers form a circle.

With the amplitude frozen at one, the reduced energy of the synthetic
family is scale^2 (|xi|^2 - 1)^2: every point of the unit circle is a
global minimiser, the landscape is non-convex, and near the origin it is
locally concave along rays.  This is the smallest example where the
basin-restricted guarantees do real work:

  * along segments from xi to its circle projection the energy is convex
    exactly when |xi|^2 >= 1/3, and the numerical probe flags both sides,
  * inside that basin, descent with gamma = mu / L_bar drives the
    half-squared distance to the minimiser set down monotonically and
    the energy gap decays like delta*(xi_0) / (n gamma), which the
    packaged certificates check step by step.

Run:  python3 demos/circle_basin.py
"""

import numpy as np

from nonlinritz import (
    AnalyticSphereOracle,
    ConstantGamma,
    EuclideanGeometry,
    Field,
    Frozen,
    L2Approx,
    NonlinearDomain,
    QuadratureRule,
    StoppingCriteria,
    SyntheticAmplitude,
    delta_star,
    directional_convexity_probe,
    global_rate_certificate,
    global_step_certificate,
    reduced_energy,
    run,
)

SCALE = 0.7
L_BAR = 16.0  # sup of the reduced Hessian norm over the box is ~14.97


def main():
    rule = QuadratureRule.on_interval(0.0, 1.0, n_panels=4, order=3)
    problem = L2Approx(Field(lambda x: np.zeros_like(np.asarray(x, float))))
    domain = NonlinearDomain([-1.2, -1.2], [1.2, 1.2])
    family = SyntheticAmplitude(domain, profile="sphere_quartic",
                                radius=1.0, scale=SCALE)
    geom = EuclideanGeometry()
    oracle = AnalyticSphereOracle(np.zeros(2), 1.0, K_star=0.0)

    # --- where is descent toward the circle actually convex? ---
    def K_reduced(xi):
        return reduced_energy(problem, rule, family, xi)[0]

    def K_frozen(xi):
        return SCALE ** 2 * (xi @ xi - 1.0) ** 2

    r_crit = 1.0 / np.sqrt(3.0)
    print(f"radial convexity threshold |xi| = 1/sqrt(3) = {r_crit:.4f}")
    for r in (0.2, 0.45, 0.65, 0.9):
        xi = np.array([r, 0.0])
        xi_star = delta_star(geom, oracle, xi)[1]
        probe = directional_convexity_probe(K_frozen, xi, xi_star,
                                            n_probe=49, domain=domain)
        verdict = "convex" if probe.convex else "NON-convex"
        print(f"  |xi| = {r:.2f}: probe says {verdict:>10} "
              f"(min curvature {probe.min_curvature:+.3f})")
    print()

    # --- certified decay from a start inside the basin ---
    gamma = geom.mu / L_BAR
    xi0 = np.array([1.15, 0.45])
    rec = run(problem, rule, family, Frozen(), geom, ConstantGamma(gamma),
              StoppingCriteria(max_epochs=60), xi0, w0=np.array([1.0]),
              delta_star_fn=lambda x: delta_star(geom, oracle, x)[0])
    d0 = rec.delta_star[0]
    print(f"frozen-amplitude descent from {xi0}, gamma = 1/{1 / gamma:.0f}")
    print(f"{'iter':>4} {'energy gap':>12} {'rate bound':>12} "
          f"{'delta*':>10} {'|xi|':>7}")
    for k in (1, 2, 3, 5, 10, 20, 40, 60):
        if k <= rec.n_steps:
            bound = d0 / (k * gamma)
            print(f"{k:>4} {rec.K_reduced[k]:>12.3e} {bound:>12.3e} "
                  f"{rec.delta_star[k]:>10.3e} {np.linalg.norm(rec.xi[k]):>7.4f}")

    deltas = rec.delta_star
    print(f"\ndelta* monotone along the run: "
          f"{bool(np.all(deltas[1:] <= deltas[:-1] + 1e-12))}")
    for entry in (global_step_certificate(rec, geom, oracle, L_bar=L_BAR)
                  + global_rate_certificate(rec, geom, oracle)):
        print(f"certificate {entry.name:<26} {entry.status}  "
              f"(margin {entry.margin:.3e})")


if __name__ == "__main__":
    main()
