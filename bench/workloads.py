"""Seeded inputs of the two benchmark workloads.

Standard library only: the orchestrator imports this module without numpy.
Each workload is a list of :class:`Job` entries, one per generated config,
naming the subcommands run on it in every round.  ``hats`` holds the
free-knot hat jobs (knots-*, diffusion-*), ``bumps`` the Gaussian bump and
grid survey jobs (bumps-*, survey-*).

The seed moves every seeded input by up to a few percent: target coefficients,
initial parameters and coefficients of the equation.  Different seeds give
different inputs while the amount of work, and the energy a run removes,
stay close, so figures from different seeds can be compared.  The
program's own random seed (Lipschitz sampling, the check battery) stays at
its default 0 for the same reason.  Jobs built from a "Fixed input" do not
depend on the seed; only they may carry an expected failure, the
certificate that fails on every run because of a known fault.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("hats", "bumps")

#: the timed subcommands; a job lists its own in this order
SUBCOMMANDS = ("grid", "run", "certify", "check")


@dataclass(frozen=True)
class Job:
    name: str
    config: dict
    subcommands: tuple
    #: certificate that fails on every run of ``certify`` (fixed inputs only)
    expected_failure: Optional[str] = None
    #: known minimum of the energy on a grid job; None with a known
    #: minimiser set means the L2 minimum -||f||^2/2 of a representable target
    K_min: Optional[float] = None
    #: known minimiser set: {"points": [[...], ...]} or {"circle": radius}
    minimisers: Optional[dict] = None


_CONSTANTS = {"alpha": 1.0, "norm_a": 1.0, "norm_ell": 1.0}


def _num(v: float) -> str:
    """A coefficient written into an expression, with all its digits."""
    return repr(float(v))


def _jig(rng: random.Random, value: float, rel: float) -> float:
    return value * (1.0 + rng.uniform(-rel, rel))


def _knots_between(rng, m, lo, hi, jitter):
    """m increasing knots, evenly spaced in (lo, hi), each moved by up to
    ``jitter`` times the spacing."""
    h = (hi - lo) / (m + 1)
    return [lo + (i + 1 + rng.uniform(-jitter, jitter)) * h for i in range(m)]


def _chain(m, lo, hi, gap):
    return {"lower": [lo] * m, "upper": [hi] * m, "chains": [list(range(m))], "gap": gap}


def _l2(target, breakpoints=()):
    prob = {"kind": "l2", "target": target, "x_lo": 0.0, "x_hi": 1.0}
    if breakpoints:
        prob["breakpoints"] = list(breakpoints)
    return prob


def _config(problem, family, domain, xi0, epochs, panels=32, **extra):
    cfg = {
        "problem": problem,
        "constants": _CONSTANTS,
        "quadrature": {"n_panels": panels, "order": 5},
        "family": family,
        "domain": domain,
        "schedule": {"kind": "lipschitz", "zeta": 0.5},
        "stopping": {"max_epochs": epochs},
        "init": {"xi0": xi0},
    }
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------------
# knots: L2 free-knot hats; the parameter derivatives and the rejection
# sampler of the ordered domain dominate
# ---------------------------------------------------------------------------


def _knots(seed: int):
    rng = random.Random(seed)
    hats = {"kind": "free_knot_hats"}
    m = 32
    target = (f"sin({_num(_jig(rng, 6.5, 0.02))}*x + {_num(_jig(rng, 0.3, 0.05))}) + "
              f"{_num(_jig(rng, 0.45, 0.03))}*gauss(x, {_num(_jig(rng, 0.5, 0.02))}, "
              f"{_num(_jig(rng, 0.03, 0.03))})")
    smooth = _config(_l2(target), hats, _chain(m, 0.005, 0.995, 0.001),
                     _knots_between(rng, m, 0.0, 1.0, 0.05), epochs=6)
    # Fixed input: the sampled Lipschitz estimate undershoots on this kinked
    # target, the step is too long and the energy rises at step 5.
    m_k = 20
    kink = _config(_l2("abs(x-0.3) + 0.3*step(x-0.6)", [0.3, 0.6]), hats,
                   _chain(m_k, 0.01, 0.99, 0.001),
                   [(i + 1) / (m_k + 1) for i in range(m_k)], epochs=6)
    c = _jig(rng, 0.33, 0.03)
    grid = _config(_l2(f"abs(x - {_num(c)}) + 0.5*x*x", [c]), hats,
                   _chain(2, 0.05, 0.95, 0.02), [0.4, 0.6], epochs=1, panels=16,
                   oracle={"kind": "grid", "resolution": 0.015})
    return [
        Job("knots-smooth", smooth, ("run", "certify", "check")),
        Job("knots-kink", kink, ("run", "certify"), expected_failure="energy-monotone"),
        Job("knots-grid", grid, ("grid",)),
    ]


# ---------------------------------------------------------------------------
# diffusion: H1 Dirichlet hats with finite-difference gradients; assembly
# dominates
# ---------------------------------------------------------------------------


def _diffusion_problem(rng: random.Random):
    return {
        "kind": "diffusion_reaction",
        "diffusivity": f"1 + {_num(_jig(rng, 0.25, 0.005))}*sin(2*pi*x)",
        "reaction": _num(_jig(rng, 1.25, 0.005)),
        "source": f"1 + 8*gauss(x, {_num(_jig(rng, 0.5, 0.0025))}, 0.08)",
        "x_lo": 0.0,
        "x_hi": 1.0,
    }


def _diffusion(seed: int):
    rng = random.Random(seed)
    hats = {"kind": "free_knot_hats", "dirichlet": True}
    # "estimate" would step outside the ordered domain under finite
    # differences (see CHANGES.md), so the Lipschitz constant is given.
    fd = {"gradient": {"mode": "fd", "fd_step": 1e-6},
          "schedule": {"kind": "lipschitz", "zeta": 0.5, "lipschitz": 2.0}}
    m = 16
    main = _config(_diffusion_problem(rng), hats, _chain(m, 0.02, 0.98, 0.01),
                   _knots_between(rng, m, 0.0, 1.0, 0.0025), epochs=16, **fd)
    grid = _config(_diffusion_problem(rng), hats, _chain(2, 0.05, 0.95, 0.02), [0.3, 0.7],
                   epochs=1, panels=16, oracle={"kind": "grid", "resolution": 0.02},
                   **fd)
    return [
        Job("diffusion-main", main, ("run", "certify", "check")),
        Job("diffusion-grid", grid, ("grid",)),
    ]


# ---------------------------------------------------------------------------
# bumps: overlapping Gaussians; linear solves in updates and optimizer
# ---------------------------------------------------------------------------


def _bumps(seed: int):
    rng = random.Random(seed)
    n = 24
    target = "sin(12*x)*exp(-x) + 0.5*gauss(x, 0.5, 0.02)"
    # centres start packed to the left, so every run has to spread them out
    xi0 = _knots_between(rng, n, 0.02, 0.95, 0.01)

    def bumps(rule):
        # The gap keeps sampled centres apart enough for CG to converge.  Five
        # Lipschitz pairs instead of 20 keep the sampler from dominating.
        cfg = _config(_l2(target), {"kind": "gaussian_bumps", "widths": [0.04] * n},
                      _chain(n, 0.02, 0.98, 0.035), xi0, epochs=150,
                      linear_rule={"kind": rule})
        cfg["schedule"]["n_pairs"] = 5
        return cfg

    grid = _config(_l2(target), {"kind": "gaussian_bumps", "widths": [0.1, 0.1]},
                   {"lower": [0.1, 0.1], "upper": [0.9, 0.9]}, [0.3, 0.7], epochs=1,
                   panels=16, oracle={"kind": "grid", "resolution": 0.015})
    return [
        Job("bumps-cg", bumps("full_cg"), ("run", "certify", "check")),
        Job("bumps-sd", bumps("steepest_descent"), ("run", "certify")),
        Job("bumps-grid", grid, ("grid",)),
    ]


# ---------------------------------------------------------------------------
# survey: 2-d grid oracles, rebuilt by grid, run and certify
# ---------------------------------------------------------------------------


def _survey(seed: int):
    rng = random.Random(seed)
    s = 0.1
    c1, c2 = _jig(rng, 0.32, 0.03), _jig(rng, 0.68, 0.03)
    target = (f"{_num(_jig(rng, 0.8, 0.03))}*gauss(x, {_num(c1)}, {_num(s)}) + "
              f"{_num(_jig(rng, 0.5, 0.03))}*gauss(x, {_num(c2)}, {_num(s)})")
    # A representable two-bump target: the minimum is -||f||^2/2 at (c1, c2)
    # and, the widths being equal, at (c2, c1).  Its certify run fails
    # global-rate on every seed tried, from the same grid slack fault as the
    # circle; a failure on seeded inputs cannot be counted, so it is left out.
    bumps = _config(_l2(target), {"kind": "gaussian_bumps", "widths": [s, s]},
                    {"lower": [0.1, 0.1], "upper": [0.9, 0.9]},
                    [c1 + 0.05, c2 - 0.05], epochs=12, panels=16,
                    oracle={"kind": "grid", "resolution": 0.015})
    # Fixed input: the frozen circle survey.  The grid slack declares more
    # than half the grid to be minimisers, delta*(xi_0) is about 0 and the
    # global-rate certificate fails.
    circle = {
        "problem": _l2(0.0),
        "constants": _CONSTANTS,
        "family": {"kind": "synthetic_amplitude", "profile": "sphere_quartic",
                   "radius": 1.0, "scale": 0.7},
        "domain": {"lower": [-1.2, -1.2], "upper": [1.2, 1.2]},
        "linear_rule": {"kind": "frozen"},
        "schedule": {"kind": "constant", "gamma": 0.0625},
        "stopping": {"max_epochs": 40},
        "init": {"xi0": [1.15, 0.45], "w0": [1.0]},
        "oracle": {"kind": "grid", "resolution": 0.04},
    }
    return [
        Job("survey-bumps", bumps, ("grid", "run", "check"),
            minimisers={"points": [[c1, c2], [c2, c1]]}),
        Job("survey-circle", circle, ("grid", "run", "certify", "check"),
            expected_failure="global-rate", K_min=0.0, minimisers={"circle": 1.0}),
    ]


_GROUPS = {"hats": (_knots, _diffusion), "bumps": (_bumps, _survey)}


def jobs(workload: str, seed: int):
    """The generated jobs of a workload, in round order."""
    return [job for build in _GROUPS[workload] for job in build(seed)]
