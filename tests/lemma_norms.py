"""The paper's stability and regularity lemmas, measured on the field path.

The library bounds its own runs with ``AssembledSystem.phi_u2`` (the basis
norm) and the certificates; the lemma constants below are only needed to
test that the exact solves and energy gradients obey the lemmas.  Each
basis function ``phi_k(xi)`` is realised alone as ``realisation(family, xi,
e_k)`` and its U-norm (L2, plus the slopes under an H1 energy) integrated
on a rule split at its breakpoints.  Parameter derivatives come from
``family.dparam_values``; no family gives their slopes, so the norms of
those need an L2 energy.
"""

import math

import numpy as np

from nonlinritz.assembly import assemble
from nonlinritz.basis import realisation
from nonlinritz.optimizer import reduced_energy
from nonlinritz.variational import bilinear, integrate


def u_norm_sq(problem, rule, f) -> float:
    """||f||_U^2 on ``rule`` split at the field's breakpoints."""
    r = rule.split_at(f.breakpoints)
    total = integrate(lambda x: f.values(x) ** 2, r)
    if problem.needs_h1:
        total += integrate(lambda x: f.derivs(x) ** 2, r)
    return total


def phi_difference_norm(problem, rule, family, xi, eta) -> float:
    """||phi(xi) - phi(eta)||_{U,2}: root sum over the realised basis functions."""
    return math.sqrt(sum(
        u_norm_sq(problem, rule, realisation(family, xi, e) - realisation(family, eta, e))
        for e in np.eye(family.n_linear)
    ))


def dphi_norm(family, rule, xi, eta=None) -> float:
    """||grad_xi phi(xi)||_{L2,2,2}, or of ``grad_xi phi(xi) - grad_xi phi(eta)``."""
    points = [family.require_param(p) for p in (xi, eta) if p is not None]
    r = rule.split_at([b for p in points for b in family.breakpoints(p)])
    total = 0.0
    for e in np.eye(family.n_linear):
        d = family.dparam_values(family.evaluate(points[0], r.nodes), e)
        if len(points) > 1:
            d = d - family.dparam_values(family.evaluate(points[1], r.nodes), e)
        total += float(np.sum((d * d) @ r.weights))
    return math.sqrt(total)


def kappa(norm_a, alpha, m_phi, omega_min) -> float:
    """The larger of the two condition bounds ``norm_a m_phi^p / (alpha omega_min)``."""
    base = norm_a / alpha / omega_min
    return max(base * m_phi, base * m_phi ** 2)


def best_linear_margins(grads, pairs, norm_ell, alpha, omega_min, m_phi, kappa_max, m_dphi):
    """Smallest ``rhs - lhs`` over ``pairs`` of the three best-linear bounds.

    * ``||w*(xi)|| <= norm_ell m_phi / (alpha omega_min)``
    * ``||w*(xi) - w*(eta)|| <= (1 + 2 kappa) norm_ell / (alpha omega_min)
      ||phi(xi) - phi(eta)||``
    * ``||grad Kbar(xi) - grad Kbar(eta)|| <= c1 ||phi(xi) - phi(eta)||
      + c2 ||grad phi(xi) - grad phi(eta)||`` with the lemma's c1, c2.
    """
    ev = grads.evaluator
    problem, rule, family = ev.problem, ev.rule, ev.family
    bound_w = norm_ell * m_phi / (alpha * omega_min)
    coef_diff = (1.0 + 2.0 * kappa_max) * norm_ell / (alpha * omega_min)
    c1 = (kappa_max + (1.0 + 2.0 * kappa_max) ** 2) * norm_ell ** 2 / (alpha * omega_min) * m_dphi
    c2 = (1.0 + kappa_max) * norm_ell ** 2 / (alpha * omega_min) * m_phi
    margins = {"best-linear-norm": [], "best-linear-hoelder": [], "reduced-gradient-hoelder": []}
    for xi, eta in pairs:
        w_xi = reduced_energy(problem, rule, family, xi)[1]
        w_eta = reduced_energy(problem, rule, family, eta)[1]
        dphi = phi_difference_norm(problem, rule, family, xi, eta)
        gap = float(np.linalg.norm(grads.grad_xi(w_xi, xi) - grads.grad_xi(w_eta, eta)))
        margins["best-linear-norm"].append(bound_w - float(np.linalg.norm(w_xi)))
        margins["best-linear-hoelder"].append(
            coef_diff * dphi - float(np.linalg.norm(w_xi - w_eta)))
        margins["reduced-gradient-hoelder"].append(
            c1 * dphi + c2 * dphi_norm(family, rule, xi, eta) - gap)
    return {name: min(m) for name, m in margins.items()}


def regularity_margins(grads, state_pairs, norm_a, norm_ell):
    """Smallest ``rhs - lhs`` of the joint Lipschitz bounds of both gradient blocks.

    For states ``(v, xi)`` and ``(w, eta)`` with pairwise maxima ``M_phi``,
    ``M_W``, ``M_dphi``:

    * ``||grad_w K(v,xi) - grad_w K(w,eta)|| <= norm_a M_phi^2 ||v-w||
      + (2 norm_a M_W M_phi + norm_ell) ||phi(xi)-phi(eta)||``
    * ``||grad_xi K(v,xi) - grad_xi K(w,eta)|| <= (2 norm_a M_W M_phi + norm_ell)
      M_dphi ||v-w|| + norm_a M_W^2 M_dphi ||phi(xi)-phi(eta)||
      + M_W (norm_a M_W M_phi + norm_ell) ||dphi(xi)-dphi(eta)||``
    """
    ev = grads.evaluator
    problem, rule, family = ev.problem, ev.rule, ev.family
    lin, nonlin = [], []
    for (v, xi), (w, eta) in state_pairs:
        sys_xi, sys_eta = assemble(problem, rule, family, xi), assemble(problem, rule, family, eta)
        m_phi = max(sys_xi.phi_u2, sys_eta.phi_u2)
        m_dphi = max(dphi_norm(family, rule, xi), dphi_norm(family, rule, eta))
        m_w = max(float(np.linalg.norm(v)), float(np.linalg.norm(w)))
        dphi = phi_difference_norm(problem, rule, family, xi, eta)
        dv = float(np.linalg.norm(v - w))
        lhs_w = float(np.linalg.norm(
            (sys_xi.matrix @ v - sys_xi.load) - (sys_eta.matrix @ w - sys_eta.load)))
        lin.append(norm_a * m_phi ** 2 * dv + (2.0 * norm_a * m_w * m_phi + norm_ell) * dphi
                   - lhs_w)
        lhs_xi = float(np.linalg.norm(grads.grad_xi(v, xi) - grads.grad_xi(w, eta)))
        nonlin.append(
            (2.0 * norm_a * m_w * m_phi + norm_ell) * m_dphi * dv
            + norm_a * m_w ** 2 * m_dphi * dphi
            + m_w * (norm_a * m_w * m_phi + norm_ell) * dphi_norm(family, rule, xi, eta)
            - lhs_xi)
    return {"regularity-linear-grad": min(lin), "regularity-nonlinear-grad": min(nonlin)}


def dc_condition(problem, rule, family, xi, xi_star, kappa_max, norm_ell, alpha, L_phi,
                 rho, inf_dist, n_samples=5, frozen_w=None):
    """Worst ``(lhs, rhs)`` of the quantitative directional-convexity condition.

    At points eta on the segment from ``xi`` to ``xi_star`` (direction D),
    ``(C L_phi rho + inf_dist) ||d^2 Rbar(eta)[D,D]||_a <= ||d Rbar(eta)[D]||_a^2``
    with ``C = 2 kappa (1 + kappa) ||ell|| / alpha`` and ``Rbar(eta)`` the
    realisation at ``frozen_w``, else at the exact solve ``w*(eta)``.  Both
    differences are central, of step 1e-4 of the segment, Richardson
    extrapolated.  The worst point has the smallest ``rhs - lhs``.
    """
    xi, xi_star = np.asarray(xi, dtype=float), np.asarray(xi_star, dtype=float)
    D = xi_star - xi
    factor = 2.0 * kappa_max * (1.0 + kappa_max) * norm_ell / alpha * L_phi * rho + inf_dist

    def real_at(eta):
        w = frozen_w if frozen_w is not None else reduced_energy(problem, rule, family, eta)[1]
        return realisation(family, eta, w)

    def a_norm(f):
        return math.sqrt(max(bilinear(problem, rule, f, f), 0.0))

    h, worst = 1e-4, None
    for t in np.linspace(0.0, 1.0, n_samples + 2)[1:-1]:
        eta = xi + t * D
        f0, f = real_at(eta), {s: real_at(eta + s * D) for s in (-h, -h / 2.0, h / 2.0, h)}
        d1 = {s: (1.0 / (2.0 * s)) * (f[s] - f[-s]) for s in (h, h / 2.0)}
        d2 = {s: (1.0 / (s * s)) * ((f[s] - f0) - (f0 - f[-s])) for s in (h, h / 2.0)}
        g1 = (4.0 / 3.0) * d1[h / 2.0] - (1.0 / 3.0) * d1[h]
        g2 = (4.0 / 3.0) * d2[h / 2.0] - (1.0 / 3.0) * d2[h]
        lhs, rhs = factor * a_norm(g2), a_norm(g1) ** 2
        if worst is None or rhs - lhs < worst[1] - worst[0]:
            worst = (lhs, rhs)
    return worst
