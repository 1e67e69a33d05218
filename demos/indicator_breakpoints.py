"""Moving breakpoints of a piecewise-constant fit.

The family here is a pair of indicator functions on [a, b) and [b, c):
the basis functions are not differentiable in the breakpoints, yet the
energy of the best piecewise-constant fit is, and its gradient has a
closed form.  This script

  * shows the assembled normal equations (diagonal, entries = interval
    lengths under the plain least-squares energy),
  * collapses an interval to width zero and checks that the singular
    system is still consistent (the load has no kernel component and any
    two least-squares solutions realise the same function),
  * compares the closed-form breakpoint gradient with central finite
    differences of the exactly-eliminated energy,
  * recovers the breakpoints of a step-function target.

Run:  python3 demos/indicator_breakpoints.py
"""

import numpy as np

from nonlinritz import (
    EuclideanGeometry,
    Field,
    FullSolveCG,
    IndicatorPair,
    L2Approx,
    LipschitzAdaptive,
    NonlinearDomain,
    QuadratureRule,
    StoppingCriteria,
    assemble,
    check_consistency,
    energy,
    make_gradients,
    reduced_gradient,
    run,
)

EDGES = (0.2, 0.5, 0.85)   # where the target actually jumps
LEVELS = (0.9, 0.4)


def step_target(x):
    x = np.asarray(x, dtype=float)
    lo, mid, hi = EDGES
    out = np.zeros_like(x)
    out[(x >= lo) & (x < mid)] = LEVELS[0]
    out[(x >= mid) & (x < hi)] = LEVELS[1]
    return out


def main():
    # panel width 0.05 puts every jump of the target on a panel edge, so
    # the quadrature energy of the target is exact
    rule = QuadratureRule.on_interval(0.0, 1.0, n_panels=20, order=3)
    problem = L2Approx(Field(step_target))
    domain = NonlinearDomain(np.zeros(3), np.ones(3),
                             chains=((0, 1, 2),), gap=0.04)
    family = IndicatorPair(domain)

    xi = np.array([0.1, 0.55, 0.9])
    system = assemble(problem, rule, family, xi)
    d = np.diag(system.matrix)
    print(f"normal equations at breakpoints {xi}:")
    print(f"  A = diag({d[0]:.6g}, {d[1]:.6g})"
          f"   (interval lengths {xi[1] - xi[0]:.2f}, {xi[2] - xi[1]:.2f})")
    print(f"  load = {np.round(system.load, 6)}\n")

    # collapse the first interval: A becomes singular but stays solvable
    # (use a copy of the family with gap 0 so the degenerate point is
    # admissible at all)
    loose = IndicatorPair(NonlinearDomain(np.zeros(3), np.ones(3), chains=((0, 1, 2),)))
    degenerate = assemble(problem, rule, loose, np.array([0.55, 0.55, 0.9]))
    report = check_consistency(degenerate)
    print(f"collapsed interval [0.55, 0.55): kernel dim {report.kernel_dim}, "
          f"load kernel residual {report.load_kernel_residual:.2e}, "
          f"realisation gap {report.realisation_gap:.2e}\n")

    # closed form vs finite differences on the reduced energy
    closed_form = make_gradients(problem, rule, family)
    fd = make_gradients(problem, rule, family, mode="fd")
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        pts = np.sort(rng.uniform(0.05, 0.95, size=3))
        if np.min(np.diff(pts)) < 0.05:
            continue
        g_cf = reduced_gradient(closed_form, pts)
        g_fd = reduced_gradient(fd, pts)
        denom = max(np.linalg.norm(g_cf), 1e-12)
        worst = max(worst, np.linalg.norm(g_cf - g_fd) / denom)
    print(f"closed-form vs finite-difference breakpoint gradient: "
          f"worst relative difference {worst:.2e}\n")

    # recover the target's jump locations
    K_star = energy(problem, rule, problem.target)
    rec = run(problem, rule, family, FullSolveCG(), EuclideanGeometry(),
              LipschitzAdaptive(zeta=0.8, lipschitz="estimate", seed=1),
              StoppingCriteria(max_epochs=80), xi)
    print(f"{'iter':>4} {'energy':>13} {'best so far':>13}  breakpoints")
    best = np.inf
    for k, (K, xi) in enumerate(zip(rec.K, rec.xi)):
        best = min(best, K)
        if k % 10 == 0:
            print(f"{k:>4} {K:>13.8f} {best:>13.8f}  "
                  f"{np.round(xi, 4)}")
    print(f"\ntarget jumps at {EDGES}, levels {LEVELS}")
    print(f"best iterate:  breakpoints {np.round(rec.best_xi, 4)}, "
          f"levels {np.round(rec.best_w, 4)}")
    print(f"energy gap to the exact step function: "
          f"{rec.best_K - K_star:.3e}")
    print("(the energy has kinks where a breakpoint crosses a quadrature "
          "panel, so single steps may tick upward; the best iterate is "
          "what counts)")


if __name__ == "__main__":
    main()
