"""Reference computations and output checks, written apart from nonlinritz.

Nothing here imports the package under test.  The benchmark's own
Gauss-Legendre rule (split at the knots and the target's breakpoints), its
own hat, Gaussian and synthetic-amplitude formulas, its own expression
evaluator and a dense least-squares solve give the Galerkin energy at any
parameter point.  The checks compare the program's artifacts against these
values, or against properties the method must have (a known minimum, a
known minimiser set, certificates that must pass).

Every check returns a list of error strings; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# quadrature and expressions
# ---------------------------------------------------------------------------


def gauss_rule(x_lo, x_hi, n_panels, order, splits=()):
    """Composite Gauss-Legendre nodes and weights, panels split at ``splits``."""
    span = x_hi - x_lo
    bounds = list(np.linspace(x_lo, x_hi, n_panels + 1))
    for p in sorted(float(s) for s in splits):
        if x_lo < p < x_hi and min(abs(p - b) for b in bounds) > 1e-13 * span:
            bounds.append(p)
    b = np.sort(np.array(bounds))
    t, w = np.polynomial.legendre.leggauss(order)
    half, mid = 0.5 * np.diff(b), 0.5 * (b[1:] + b[:-1])
    return (mid[:, None] + half[:, None] * t).ravel(), (half[:, None] * w).ravel()


_NAMESPACE = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "pi": math.pi,
    "gauss": lambda x, c, s: np.exp(-0.5 * ((x - c) / s) ** 2),
    "step": lambda t: np.where(t >= 0.0, 1.0, 0.0),
}


def evaluate(expr, x):
    """Value of a config expression (a number or a formula in x) at nodes x."""
    if isinstance(expr, (int, float)):
        return np.full(x.shape, float(expr))
    scope = dict(_NAMESPACE, x=x)
    return np.broadcast_to(eval(expr, {"__builtins__": {}}, scope), x.shape)  # noqa: S307


# ---------------------------------------------------------------------------
# basis families: values and x-derivatives at nodes
# ---------------------------------------------------------------------------


def _hats(cfg, xi, x):
    lo, hi = cfg["problem"]["x_lo"], cfg["problem"]["x_hi"]
    t = np.concatenate(([lo], xi, [hi]))
    cell = np.clip(np.searchsorted(t, x) - 1, 0, t.size - 2)
    eye = np.eye(t.size)
    vals = np.stack([np.interp(x, t, e) for e in eye])
    slopes = (eye[:, 1:] - eye[:, :-1]) / np.diff(t)
    ders = slopes[:, cell]
    if cfg["family"].get("dirichlet", False):
        return vals[1:-1], ders[1:-1]
    return vals, ders


def _gaussians(cfg, xi, x):
    s = np.asarray(cfg["family"]["widths"], dtype=float)[:, None]
    d = x[None, :] - np.asarray(xi)[:, None]
    vals = np.exp(-0.5 * (d / s) ** 2)
    return vals, -d / s ** 2 * vals


def _amplitude(cfg, xi, x):
    fam = cfg["family"]
    if fam.get("profile", "sphere_quartic") != "sphere_quartic":
        raise ValueError("only the sphere_quartic profile has a reference")
    g = math.sqrt(2.0) * fam.get("scale", 1.0) * (float(np.dot(xi, xi)) - fam.get("radius", 1.0) ** 2)
    return np.full((1, x.size), g), np.zeros((1, x.size))


_FAMILIES = {
    "free_knot_hats": _hats,
    "gaussian_bumps": _gaussians,
    "synthetic_amplitude": _amplitude,
}


def galerkin_system(cfg, xi):
    """Stiffness matrix and load vector of the configured problem at xi."""
    xi = np.asarray(xi, dtype=float)
    prob, quad = cfg["problem"], cfg.get("quadrature", {})
    splits = list(prob.get("breakpoints", []))
    if cfg["family"]["kind"] == "free_knot_hats":
        splits += list(xi)
    x, w = gauss_rule(prob["x_lo"], prob["x_hi"], quad.get("n_panels", 16),
                      quad.get("order", 5), splits)
    vals, ders = _FAMILIES[cfg["family"]["kind"]](cfg, xi, x)
    if prob["kind"] == "l2":
        return (vals * w) @ vals.T, vals @ (w * evaluate(prob["target"], x))
    if prob.get("bc_lo", 0.0) != 0.0 or prob.get("bc_hi", 0.0) != 0.0:
        raise ValueError("the reference covers homogeneous Dirichlet data only")
    k = evaluate(prob["diffusivity"], x)
    s = evaluate(prob["reaction"], x)
    A = (ders * (w * k)) @ ders.T + (vals * (w * s)) @ vals.T
    return A, vals @ (w * evaluate(prob["source"], x))


def energy(cfg, xi):
    """The energy the program minimises at xi: reduced, or at frozen w0."""
    A, b = galerkin_system(cfg, xi)
    if cfg.get("linear_rule", {}).get("kind") == "frozen":
        w0 = np.asarray(cfg["init"]["w0"], dtype=float)
        return float(0.5 * w0 @ A @ w0 - w0 @ b)
    w, *_ = np.linalg.lstsq(A, b, rcond=None)
    return float(-0.5 * b @ w)


def target_norm_sq(cfg, panels=400, order=12):
    """||f||^2 over the interval by a fine rule: -||f||^2/2 is the L2 minimum."""
    prob = cfg["problem"]
    x, w = gauss_rule(prob["x_lo"], prob["x_hi"], panels, order, prob.get("breakpoints", []))
    return float(w @ evaluate(prob["target"], x) ** 2)


def close(a, b, rel=1e-8, abs_=1e-11):
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# grid surveys
# ---------------------------------------------------------------------------


def feasible_grid(cfg, resolution):
    """Feasible points of the box grid at the given resolution, row-major."""
    dom = cfg["domain"]
    lower, upper = np.asarray(dom["lower"], float), np.asarray(dom["upper"], float)
    axes = [np.linspace(lo, hi, int(np.ceil((hi - lo) / resolution)) + 1) if hi > lo
            else np.array([lo]) for lo, hi in zip(lower, upper)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, lower.size)
    ok = np.ones(mesh.shape[0], dtype=bool)
    for chain in dom.get("chains", []):
        for a, b in zip(chain[:-1], chain[1:]):
            ok &= mesh[:, b] - mesh[:, a] >= dom.get("gap", 0.0) - 1e-12
    return axes, mesh, ok


def survey(cfg):
    """Reference energies on the feasible grid and the grid's slope bound.

    Returns ``(points, values, L_est)`` where ``L_est`` is the largest
    energy difference quotient between adjacent feasible grid points.
    """
    res = cfg["oracle"]["resolution"]
    axes, mesh, ok = feasible_grid(cfg, res)
    full = np.full(mesh.shape[0], np.nan)
    full[ok] = [energy(cfg, p) for p in mesh[ok]]
    full = full.reshape(tuple(a.size for a in axes))
    L_est = 0.0
    for ax, a in enumerate(axes):
        if a.size < 2:
            continue
        v = np.moveaxis(full, ax, 0)
        q = np.abs(v[1:] - v[:-1]) / (a[1] - a[0])
        if np.any(np.isfinite(q)):
            L_est = max(L_est, float(np.nanmax(q)))
    return mesh[ok], full.reshape(-1)[ok], L_est


def _distance_to_minimisers(points, known):
    if "circle" in known:
        return np.abs(np.linalg.norm(points, axis=1) - known["circle"])
    mins = np.asarray(known["points"], dtype=float)
    return np.min(np.max(np.abs(points[:, None, :] - mins[None, :, :]), axis=2), axis=1)


def check_grid(job, oracle):
    """oracle.json against the reference survey and the known minimisers."""
    errors = []
    cfg = job.config
    res = cfg["oracle"]["resolution"]
    pts, vals, L_est = survey(cfg)
    mins = np.atleast_2d(np.asarray(oracle["minimisers"], dtype=float))
    if oracle["n_points"] != pts.shape[0]:
        errors.append(f"grid has {oracle['n_points']} feasible points, reference {pts.shape[0]}")
        return errors
    K_star = oracle["K_star"]
    K_ref = float(np.min(vals))
    if not close(K_star, K_ref):
        errors.append(f"K_star {K_star!r} differs from the reference grid minimum {K_ref!r}")
    slack = L_est * res
    if not close(oracle["slack"], slack, rel=1e-6):
        errors.append(f"slack {oracle['slack']!r} differs from the reference {slack!r}")
    # every point clearly inside the slack band is reported, none clearly outside
    tol = 1e-9 * (1.0 + abs(K_ref) + slack)
    key = {tuple(np.round(p, 9)) for p in mins}
    inside = {tuple(np.round(p, 9)) for p in pts[vals <= K_ref + slack - tol]}
    outside = {tuple(np.round(p, 9)) for p in pts[vals > K_ref + slack + tol]}
    if inside - key:
        errors.append(f"{len(inside - key)} grid point(s) within the slack are not reported")
    if key & outside:
        errors.append(f"{len(key & outside)} reported minimiser(s) lie above the slack")
    if job.minimisers is not None:
        near = pts[_distance_to_minimisers(pts, job.minimisers) <= res + 1e-12]
        missing = {tuple(np.round(p, 9)) for p in near} - key
        if near.shape[0] == 0 or missing:
            errors.append(f"{len(missing)} of {near.shape[0]} grid point(s) within one "
                          "cell of the true minimiser set are not reported")
        K_min = job.K_min if job.K_min is not None else -0.5 * target_norm_sq(cfg)
        K_near = min(energy(cfg, p) for p in near) if near.shape[0] else math.inf
        if not K_min - 1e-8 <= K_star <= K_near + 1e-9 * (1.0 + abs(K_near)):
            errors.append(f"K_star {K_star!r} is not within [{K_min!r}, {K_near!r}], the "
                          "known minimum and the energy one cell from the minimisers")
        if K_star - K_min > L_est * res + 1e-9:
            errors.append(f"K_star {K_star!r} exceeds the known minimum {K_min!r} by more "
                          f"than the resolution bound {L_est * res!r}")
    return errors


# ---------------------------------------------------------------------------
# run, certify and check artifacts
# ---------------------------------------------------------------------------


def trace_first_reduced(trace_text):
    header, first = trace_text.splitlines()[:2]
    return float(first.split(",")[header.split(",").index("K_reduced")])


def check_run(job, rc, summary, best_xi, trace_text):
    """summary.json's best energy against the reference energy at best_xi."""
    if rc != 0:
        return [f"run exited {rc}"]
    errors = []
    ref = energy(job.config, best_xi)
    if not close(summary["best_energy"], ref):
        errors.append(f"best_energy {summary['best_energy']!r} differs from the reference "
                      f"energy {ref!r} at the best parameters")
    if trace_first_reduced(trace_text) < summary["best_energy"] - 1e-12:
        errors.append("best_energy lies above the first recorded reduced energy")
    return errors


def check_certify(job, rc, report):
    """Every non-skipped entry passes, apart from the job's expected failure.

    Returns ``(errors, failed)`` where ``failed`` says that the operation
    failed the expected way: exit code 1, and only entries of the expected
    certificate (and its trace variant) failed.
    """
    errors = []
    bad = [e["name"] for e in report["entries"] if e["status"] == "fail"]
    expected = job.expected_failure
    unexpected = [n for n in bad if expected is None or n.split(" (")[0] != expected]
    if unexpected:
        errors.append(f"certificates failed: {sorted(set(unexpected))}")
    replay = [e for e in report["entries"] if e["name"] == "trace-consistency"]
    if not replay or replay[0]["status"] != "pass":
        errors.append("the certify replay is not byte-identical to trace.csv")
    if rc != (1 if bad else 0) or report["passed"] != (not bad):
        errors.append(f"certify exited {rc} with {len(bad)} failed entries")
    return errors, bool(bad) and not unexpected


def check_check(rc, stdout):
    if rc != 0 or "all checks passed" not in stdout:
        return [f"check exited {rc}: " + " | ".join(
            ln for ln in stdout.splitlines() if ln.startswith("[FAIL]"))]
    return []
