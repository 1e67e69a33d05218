"""Vectorised domain membership, block rejection sampler and hat kernels
against the per-coordinate loop implementations they replace."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nonlinritz.assembly import Evaluator, assemble, quadratic_energy
from nonlinritz.basis import FreeKnotHats, NonlinearDomain
from nonlinritz.certify import minimiser_grid_oracle
from nonlinritz.config import parse_config
from nonlinritz.errors import DomainViolationError
from nonlinritz.updates import central_differences, make_gradients
from nonlinritz.variational import DiffusionReaction1D, L2Approx, Field, QuadratureRule

from hat_loops import loop_basis_derivs, loop_basis_values, loop_dparam_values
from helpers import constant

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


# ---------------------------------------------------------------------------
# oracles: the loop implementations, one coordinate or one draw at a time
# ---------------------------------------------------------------------------


def loop_violations(dom, xi):
    # the tolerance 1e-12 scales with the largest bound, at least 1
    tol = 1e-12 * max(1.0, *np.abs(dom.lower), *np.abs(dom.upper))
    out = []
    for i in range(dom.dim):
        if xi[i] < dom.lower[i] - tol:
            out.append(f"xi[{i}]={float(xi[i])!r} below lower bound {float(dom.lower[i])!r}")
        if xi[i] > dom.upper[i] + tol:
            out.append(f"xi[{i}]={float(xi[i])!r} above upper bound {float(dom.upper[i])!r}")
    for c in dom.chains:
        for a, b in zip(c[:-1], c[1:]):
            if xi[b] - xi[a] < dom.gap - tol:
                out.append(
                    f"chain gap violated: xi[{b}]-xi[{a}]="
                    f"{float(xi[b] - xi[a])!r} < {float(dom.gap)!r}"
                )
    return out


def loop_sample(domain, rng, max_tries=200):
    """Returns ``(point, tries)``; ``tries`` is None on the projection fallback."""
    for n in range(max_tries):
        p = rng.uniform(domain.lower, domain.upper)
        if not domain.violations(p):
            return p, n + 1
    return domain.project(rng.uniform(domain.lower, domain.upper)), None


# ---------------------------------------------------------------------------
# hat kernels
# ---------------------------------------------------------------------------


@st.composite
def hat_cases(draw):
    x_lo = draw(st.sampled_from([0.0, -1.0, 0.25]))
    x_hi = x_lo + draw(st.sampled_from([1.0, 2.5, 0.1]))
    m = draw(st.integers(1, 7))
    # knots from a coarse lattice (coincident knots, knots on the ends) or free
    lattice = np.linspace(x_lo, x_hi, 6)
    knot = st.one_of(
        st.sampled_from(list(lattice)),
        st.floats(x_lo, x_hi, allow_nan=False, allow_infinity=False),
    )
    xi = np.sort(np.array(draw(st.lists(knot, min_size=m, max_size=m))))
    inner = draw(st.lists(st.floats(x_lo, x_hi), min_size=0, max_size=12))
    # nodes outside [x_lo, x_hi], where every hat is 0: next to the ends and
    # anywhere within one more interval length
    span = x_hi - x_lo
    outer = draw(st.lists(st.floats(x_lo - span, x_hi + span), min_size=0, max_size=6))
    beyond = [np.nextafter(x_lo, -np.inf), np.nextafter(x_hi, np.inf), x_lo - 0.5 * span, x_hi + span]
    x = np.concatenate([xi, [x_lo, x_hi], inner, outer, beyond, np.linspace(x_lo, x_hi, 7)])
    dom = NonlinearDomain([x_lo] * m, [x_hi] * m, chains=(tuple(range(m)),) if m > 1 else ())
    fam = FreeKnotHats(dom, x_lo, x_hi, dirichlet=draw(st.booleans()))
    return fam, xi, x


@settings(max_examples=150, deadline=None)
@given(hat_cases())
def test_hat_values_and_slopes_bitwise_equal_loops(case):
    fam, xi, x = case
    for got, want in (
        (fam.basis_values(xi, x), loop_basis_values(fam, xi, x)),
        (fam.basis_derivs(xi, x), loop_basis_derivs(fam, xi, x)),
    ):
        assert got.shape == want.shape == (fam.n_linear, x.size)
        assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(hat_cases(), st.integers(0, 2 ** 32 - 1))
def test_knot_gradient_matches_the_contracted_loop(case, seed):
    # the cell kernel against d_i K = sum_x (q u - qf)_x sum_j w_j d_i phi_j(x),
    # the per-hat loop derivatives contracted node by node
    fam, xi, x = case
    loop = loop_dparam_values(fam, xi, x)
    # widths below about 1e-154 square to zero: infinite derivatives
    assume(np.all(np.isfinite(loop)))
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(fam.n_linear)
    q, qf = rng.uniform(0.0, 1.0, x.size), rng.standard_normal(x.size)
    phi = loop_basis_values(fam, xi, x)
    r = q * (w @ phi) - qf
    du = np.einsum("l,klx->kx", w, loop)
    got = fam.knot_gradient(fam.evaluate(xi, x), w[None], q, qf)
    assert got.shape == (1, fam.n_nonlinear)
    # roundoff: each term r_x du_x takes a few roundings (u from the pieces
    # and the slope, the residual, the derivative, the product) and each
    # sum of at most Q terms Q - 1 more, each relative to the magnitudes
    # summed: |w| . |d_i phi| for the derivative and, as u enters r
    # through q u, q |w| . |phi| besides |r| and |qf| for the residual
    magnitude = (np.einsum("l,klx->kx", np.abs(w), np.abs(loop))
                 @ (np.abs(r) + q * (np.abs(w) @ np.abs(phi)) + np.abs(qf)))
    bound = (x.size + 10) * np.finfo(float).eps * magnitude
    assert np.all(np.abs(got[0] - du @ r) <= bound)


def _frozen_cell_energies(fam, located, w, q, qf, t):
    """``q u^2 / 2 - qf u`` per node on the grid ``t`` ``(m + 2,)``, each
    node kept in the cell it was located in (its index in ``t``, the empty
    cell of nodes outside the interval last)."""
    _, x, at = located
    x, c = x[0], at[0]
    d = int(fam.dirichlet)
    coef = np.zeros(t.size + 1)
    coef[d:t.size - d] = w
    t = np.append(t, fam.x_hi)
    a, b = t[c], t[c + 1]
    live = b > a
    h = np.where(live, b - a, 1.0)
    u = np.where(live, (coef[c] * (b - x) + coef[c + 1] * (x - a)) / h, 0.0)
    return q * (0.5 * u * u) - qf * u


@settings(max_examples=150, deadline=None)
@given(hat_cases(), st.integers(0, 2 ** 32 - 1))
def test_knot_gradient_matches_central_differences(case, seed):
    # the energy of fixed nodes is smooth in a knot while no node changes
    # its cell.  Knot i ends cells i and i + 1, whose energies are
    # differenced apart, each with a step of 1e-6 times its width and every
    # node kept in its cell: this covers nodes on knots and on x_lo and
    # coincident knots (whose empty cells hold no node and add nothing),
    # with free and with Dirichlet ends
    fam, xi, x = case
    located = fam.evaluate(xi, x)
    t = fam._grid(xi)
    width = np.diff(t)
    # widths below about 1e-154 square to zero: infinite derivatives
    assume(np.all((width == 0.0) | (width > 1e-150)))
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(fam.n_linear)
    q, qf = rng.uniform(0.0, 1.0, x.size), rng.standard_normal(x.size)
    got = fam.knot_gradient(located, w[None], q, qf)[0]
    cell = located[2][0]
    cd, roundoff = np.zeros(fam.n_nonlinear), np.zeros(fam.n_nonlinear)
    for i in range(fam.n_nonlinear):
        for c in (i, i + 1):
            h = 1e-6 * width[c]
            on = cell == c
            if h == 0.0 or not on.any():
                continue
            e = np.zeros(t.size)
            e[i + 1] = h
            plus, minus = (_frozen_cell_energies(fam, located, w, q, qf, t + s * e)[on]
                           for s in (1.0, -1.0))
            cd[i] += np.sum(plus - minus) / (2.0 * h)
            # the energies' roundings, divided by the step
            roundoff[i] += 10 * np.finfo(float).eps * np.sum(np.abs(plus) + np.abs(minus)) / h
    # the truncation error against the scale of the gradient's terms:
    # |d u| times the magnitude of the residual, node by node
    phi = loop_basis_values(fam, xi, x)
    du = np.einsum("l,klx->kx", np.abs(w), np.abs(loop_dparam_values(fam, xi, x)))
    scale = du @ (np.abs(q * (w @ phi) - qf) + q * (np.abs(w) @ np.abs(phi)))
    assert np.all(np.abs(got - cd) <= 1e-6 * scale + roundoff)


def test_hat_kernels_on_coalesced_knots():
    # three knots in one point: the two empty cells contribute nothing, and
    # the knot itself belongs to the rising piece of the hat on its left
    dom = NonlinearDomain([0.0] * 3, [1.0] * 3, chains=((0, 1, 2),))
    fam = FreeKnotHats(dom, 0.0, 1.0)
    xi = np.array([0.5, 0.5, 0.5])
    x = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    assert fam.basis_values(xi, x).tobytes() == loop_basis_values(fam, xi, x).tobytes()
    assert fam.basis_values(xi, x)[:, 2].tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]


def test_analytic_hat_gradient_allocates_no_dense_tensor():
    # a dense per-hat derivative tensor of 160 knots on this rule peaks above
    # 230 MB; the contracted kernel holds arrays of one row per knot or cell
    m = 160
    dom = NonlinearDomain([0.005] * m, [0.995] * m, chains=(tuple(range(m)),), gap=0.001)
    fam = FreeKnotHats(dom, 0.0, 1.0)
    problem = L2Approx(Field(lambda x: np.sin(6.5 * x)))
    grads = make_gradients(problem, QuadratureRule.on_interval(0.0, 1.0, 64, 5), fam)
    assert grads.mode == "analytic"
    xi = np.linspace(0.005, 0.995, m + 2)[1:-1]
    w = np.random.default_rng(0).standard_normal(fam.n_linear)
    grads.grad_xi(w, xi)  # warm-up: caches and lazy imports stay out of the peak
    tracemalloc.start()
    try:
        g = grads.grad_xi(w, xi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.shape == (m,) and np.all(np.isfinite(g))
    assert peak < 24e6


def _dirichlet_hats(m, n_panels):
    """Dirichlet hats on m evenly spaced knots of a diffusion problem with
    boundary data, and a random coefficient vector."""
    dom = NonlinearDomain([0.005] * m, [0.995] * m, chains=(tuple(range(m)),), gap=0.001)
    fam = FreeKnotHats(dom, 0.0, 1.0, dirichlet=True)
    problem = DiffusionReaction1D(
        Field(lambda x: 1.0 + 0.25 * np.sin(2.0 * np.pi * x), lambda x: np.zeros_like(x)),
        constant(1.25), Field(lambda x: 1.0 + np.exp(-40.0 * (x - 0.5) ** 2)),
        0.0, 1.0, 0.3, -0.2,
    )
    grads = make_gradients(problem, QuadratureRule.on_interval(0.0, 1.0, n_panels, 5), fam)
    assert grads.mode == "fd"
    xi = np.linspace(0.0, 1.0, m + 2)[1:-1]
    return grads, xi, np.random.default_rng(0).standard_normal(fam.n_linear)


def test_fd_gradient_assembles_its_probes_in_blocks(count_calls):
    m = 16
    grads, xi, w = _dirichlet_hats(m, 32)
    calls = count_calls("assemble", Evaluator)
    g = grads.grad_xi(w, xi)
    probes = np.repeat(xi[None, :], 2 * m, axis=0)
    block = grads.evaluator.slices(probes)[0].stop
    # one assembly per probe before stacking: 32
    assert len(calls) <= math.ceil(2 * m / block) == 1
    # bitwise the probe-by-probe central differences
    h, ev = grads.fd_step, grads.evaluator
    for i in range(m):
        e = np.zeros(m)
        e[i] = h
        kp, km = (quadratic_energy(assemble(ev.problem, ev.rule, ev.family, p), w)
                  for p in (xi + e, xi - e))
        assert g[i] == (kp - km) / (2.0 * h)


def test_large_fd_gradient_stacks_its_probes(count_calls):
    # the hat systems are assembled cell by cell, so a block counts its node
    # rows and its 160 x 160 matrices: one probe per block before
    m = 160
    grads, xi, w = _dirichlet_hats(m, 64)
    probes = np.repeat(xi[None, :], 2 * m, axis=0)
    block = grads.evaluator.slices(probes)[0].stop
    assert block >= 16
    calls = count_calls("assemble", Evaluator)
    grads.grad_xi(w, xi)
    assert len(calls) == math.ceil(2 * m / block)


def test_fd_gradient_memory_is_bounded_by_the_block():
    # all 320 probes of 160 knots in one stack peak near 200 MB
    warm, xi4, w4 = _dirichlet_hats(4, 64)
    warm.grad_xi(w4, xi4)  # warm-up: lazy imports stay out of the peak
    grads, xi, w = _dirichlet_hats(160, 64)
    tracemalloc.start()
    try:
        g = grads.grad_xi(w, xi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.shape == (160,) and np.all(np.isfinite(g))
    assert peak < 16e6


def test_stacked_fd_probes_are_formed_block_by_block():
    # the 2 * 160 probes of one point of 160 knots take 0.4 MB, so the probes
    # of 100 points formed at once would take 41 MB; a cheap energy keeps the
    # measurement on the probes and the test fast
    grads, xi, w = _dirichlet_hats(160, 64)
    points = xi + np.linspace(0.0, 1e-4, 100)[:, None]
    weights = np.arange(1.0, 161.0)

    def energy(probes, owner):
        return probes @ weights + owner

    tracemalloc.start()
    try:
        g = central_differences(energy, grads.evaluator, points, 1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.shape == (100, 160) and np.all(np.isfinite(g))
    assert peak < 16e6
    # each row is the point's own central differences
    for k in (0, 57, 99):
        assert np.array_equal(g[k], central_differences(
            lambda probes, owner: energy(probes, owner + k),
            grads.evaluator, points[k], 1e-6))


# ---------------------------------------------------------------------------
# domain membership
# ---------------------------------------------------------------------------


@st.composite
def near_constraint_points(draw):
    dim = draw(st.integers(1, 5))
    lower = np.full(dim, draw(st.sampled_from([-1.0, 0.0, 0.1])))
    upper = lower + 2.0
    chained = draw(st.integers(0, dim))
    chains = (tuple(range(chained)),) if chained >= 2 else ()
    gap = draw(st.sampled_from([0.0, 0.01, 0.3]))
    dom = NonlinearDomain(lower, upper, chains=chains, gap=gap)
    nudge = st.sampled_from([-3e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 3e-12, 0.2, -0.2,
                             -2e-9, -1e-9, 1e-9, 2e-9])
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        p = np.empty(dim)
        for i in range(dim):
            anchor = draw(st.sampled_from(["lower", "upper", "chain"]))
            if anchor == "chain" and 0 < i < chained:
                p[i] = p[i - 1] + gap
            else:
                p[i] = upper[i] if anchor == "upper" else lower[i]
            p[i] += draw(nudge)
        rows.append(p)
    return dom, np.array(rows)


@settings(max_examples=150, deadline=None)
@given(near_constraint_points())
def test_feasible_equals_no_violations(case):
    dom, pts = case
    mask = dom.feasible(pts)
    assert mask.shape == (pts.shape[0],) and mask.dtype == bool
    assert mask.tolist() == [not loop_violations(dom, p) for p in pts]
    assert mask.tolist() == [not dom.violations(p) for p in pts]
    for p in pts:
        assert dom.violations(p) == loop_violations(dom, p)


@settings(max_examples=100, deadline=None)
@given(st.floats(-1e6, 1e6), st.integers(2, 8), st.sampled_from([0.0, 0.001, 0.01, 0.1]),
       st.integers(0, 2 ** 32 - 1))
def test_projections_onto_shifted_chains_are_feasible(shift, m, gap, seed):
    # the projection shifts each chain by k * gap and back, which rounds at
    # about one ulp of the bounds; the tolerance scales with them
    dom = NonlinearDomain([shift + 0.01] * m, [shift + 0.99] * m,
                          chains=(tuple(range(m)),), gap=gap)
    points = shift + np.random.default_rng(seed).uniform(-0.5, 1.5, (20, m))
    projected = dom.project(points)
    assert dom.feasible(projected).all()
    assert not any(dom.violations(p) for p in projected)


def test_contains_rejects_wrong_shape():
    dom = NonlinearDomain([0.0, 0.0], [1.0, 1.0])
    assert dom.violations([0.5]) == ["expected 2 coordinates, got (1,)"]


def test_violation_messages_print_plain_floats():
    dom = NonlinearDomain([0.0] * 3, [1.0] * 3, chains=((0, 1),), gap=0.25)
    assert dom.violations([-0.5, -0.375, 2.0]) == [
        "xi[0]=-0.5 below lower bound 0.0",
        "xi[1]=-0.375 below lower bound 0.0",
        "xi[2]=2.0 above upper bound 1.0",
        "chain gap violated: xi[1]-xi[0]=0.125 < 0.25",
    ]
    fd = NonlinearDomain([0.0, 0.0], [1.0, 1.0], chains=((0, 1),), gap=0.01)
    with pytest.raises(DomainViolationError) as err:
        fd.require([0.5, 0.509999])
    assert str(err.value) == (
        "parameter point outside admissible domain: chain gap violated: "
        f"xi[1]-xi[0]={0.509999 - 0.5!r} < 0.01"
    )
    assert "np.float64" not in str(err.value)


# ---------------------------------------------------------------------------
# rejection sampler
# ---------------------------------------------------------------------------

CHAIN32 = NonlinearDomain([0.005] * 32, [0.995] * 32, chains=(tuple(range(32)),), gap=0.001)
BOX = NonlinearDomain([-1.0, 0.0, 2.0], [1.0, 0.5, 3.0])
CHAIN3 = NonlinearDomain([0.0] * 3, [1.0] * 3, chains=((0, 1, 2),), gap=0.1)


@pytest.mark.parametrize(
    "domain, tries",
    [(CHAIN32, None), (BOX, 1), (CHAIN3, 37)],
    ids=["chain32-projection", "box-first-try", "chain3-several-tries"],
)
def test_sample_replays_the_loop_at_a_fixed_seed(domain, tries):
    rng_loop, rng = np.random.default_rng(15), np.random.default_rng(15)
    want, used = loop_sample(domain, rng_loop)
    got = domain.sample(rng)
    assert used == tries
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == rng_loop.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([CHAIN32, BOX, CHAIN3]),
    st.integers(0, 2 ** 32 - 1),
    st.integers(1, 4),
)
def test_sample_sequence_matches_the_loop(domain, seed, draws):
    rng_loop, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        want, _ = loop_sample(domain, rng_loop)
        got = domain.sample(rng)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == rng_loop.bit_generator.state
        assert not domain.violations(got)


def test_sample_makes_no_per_candidate_membership_calls(monkeypatch):
    calls = []
    original = NonlinearDomain.violations

    def counting(self, xi):
        calls.append(1)
        return original(self, xi)

    monkeypatch.setattr(NonlinearDomain, "violations", counting)
    CHAIN32.sample(np.random.default_rng(0))
    assert len(calls) == 0


# ---------------------------------------------------------------------------
# grid oracle feasibility
# ---------------------------------------------------------------------------


def _spy_feasible(monkeypatch):
    seen = []
    original = NonlinearDomain.feasible

    def spy(self, points):
        mask = original(self, points)
        seen.append((self, np.array(points), mask))
        return mask

    monkeypatch.setattr(NonlinearDomain, "feasible", spy)
    return seen


def test_grid_oracle_mask_on_circle_survey(monkeypatch):
    data = json.loads((CONFIGS / "circle_grid_survey.json").read_text())
    cfg = parse_config(data)
    seen = _spy_feasible(monkeypatch)
    oracle = minimiser_grid_oracle(
        cfg.problem, cfg.rule, cfg.family, data["oracle"]["resolution"],
        frozen_w=np.array(data["init"]["w0"]),
    )
    dom, mesh, mask = seen[0]
    assert mask.tolist() == [not dom.violations(p) for p in mesh]
    assert np.array_equal(oracle.points, mesh[mask])
    # the later calls are assemble's checks of its stacks: each feasible
    # grid point once, in grid order
    assert all(m.all() for _, _, m in seen[1:])
    assert np.array_equal(np.concatenate([p for _, p, _ in seen[1:]]), oracle.points)


def test_grid_oracle_mask_on_two_knot_chain(monkeypatch):
    dom = NonlinearDomain([0.05, 0.05], [0.95, 0.95], chains=((0, 1),), gap=0.02)
    fam = FreeKnotHats(dom, 0.0, 1.0)
    problem = L2Approx(Field(lambda x: np.abs(x - 0.33) + 0.5 * x * x, None, (0.33,)))
    seen = _spy_feasible(monkeypatch)
    oracle = minimiser_grid_oracle(problem, QuadratureRule.on_interval(0.0, 1.0, n_panels=8, order=3), fam, 0.1)
    # the first call masks the whole 10 x 10 mesh; the later ones are
    # assemble's checks of its stacks
    _, mesh, mask = seen[0]
    assert mesh.shape == (100, 2)
    per_point = [not dom.violations(p) for p in mesh]
    assert mask.tolist() == per_point
    assert 0 < sum(per_point) < len(per_point)
    assert np.array_equal(oracle.points, mesh[mask])
    assert np.array_equal(np.concatenate([p for _, p, _ in seen[1:]]), oracle.points)
