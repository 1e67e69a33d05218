"""Property tests of the proximal step, the projection, assembly, the
linear-update decrease inequality and stacked evaluation over random
domains, families and data."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonlinritz.assembly import AssembledSystem, _symmetrise, assemble, quadratic_energy
from nonlinritz.basis import (
    FreeKnotHats,
    GaussianBumps,
    IndicatorPair,
    NonlinearDomain,
    SyntheticAmplitude,
    _bounded_isotonic,
)
from nonlinritz.errors import NonFiniteValueError, NumericalError
from nonlinritz.optimizer import _reduced
from nonlinritz.updates import (
    DiagonalGeometry,
    FullSolveCG,
    SteepestDescent,
    make_gradients,
    prox_optimality_residual,
    prox_step,
    update_linear,
)
from nonlinritz.variational import DiffusionReaction1D, Field, L2Approx, QuadratureRule

from helpers import constant, decrease

RULE = QuadratureRule.on_interval(0.0, 1.0, n_panels=8, order=5)
TARGET = L2Approx(Field(lambda x: np.sin(3.0 * x) + 0.5 * np.exp(-40.0 * (x - 0.6) ** 2)))
seeds = st.integers(0, 2**32 - 1)


@st.composite
def chained_domains(draw):
    """A box in [0, 1]^n with one or two ordered chains and a feasible gap.

    Every lower bound is at most 0.4 and every upper bound at least 0.6, so
    a gap below 0.2 / (longest chain length) leaves every chain room, far
    above rounding.
    """
    n = draw(st.integers(2, 6))
    lower = np.array(draw(st.lists(st.floats(0.0, 0.4), min_size=n, max_size=n)))
    upper = np.array(draw(st.lists(st.floats(0.6, 1.0), min_size=n, max_size=n)))
    k = draw(st.integers(2, n))
    chains = [tuple(range(k))]
    if n - k >= 2 and draw(st.booleans()):
        chains.append(tuple(range(k, n)))
    gap = draw(st.floats(0.0, 0.2 / max(len(c) for c in chains)))
    return NonlinearDomain(lower, upper, chains=tuple(chains), gap=gap)


def _weighted_sq(d, v):
    return float(v @ (d * v))


@settings(max_examples=100, deadline=None)
@given(chained_domains(), seeds, st.floats(-3.0, 2.0), st.floats(-3.0, 0.0))
def test_prox_step_is_feasible_and_optimal(domain, seed, log_g, log_gamma):
    rng = np.random.default_rng(seed)
    geom = DiagonalGeometry(rng.uniform(0.2, 5.0, domain.dim))
    xi = domain.sample(rng)
    g = 10.0 ** log_g * rng.standard_normal(domain.dim)
    gamma = 10.0 ** log_gamma
    xp = prox_step(geom, domain, xi, g, gamma)
    assert not domain.violations(xp)
    res = prox_optimality_residual(geom, domain, xi, g, gamma, xp)
    assert res <= 1e-9 * (1.0 + float(np.linalg.norm(g)))


@settings(max_examples=100, deadline=None)
@given(chained_domains(), seeds)
def test_project_is_identity_on_feasible_points_and_nearest(domain, seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.2, 5.0, domain.dim)
    # bitwise identity where every constraint has slack above roundoff ...
    inner = domain.shrink(1e-9).sample(rng)
    assert np.array_equal(domain.project(inner, weights=d), inner)
    # ... and up to roundoff on draws that may sit on the boundary (a sample
    # can be a projection whose chain gaps are short of `gap` by an ulp)
    xi = domain.sample(rng)
    assert np.max(np.abs(domain.project(xi, weights=d) - xi)) <= 1e-14
    z = rng.uniform(-0.5, 1.5, domain.dim)
    p = domain.project(z, weights=d)
    assert not domain.violations(p)
    dist = _weighted_sq(d, p - z)
    for _ in range(20):
        q = domain.sample(rng)
        other = _weighted_sq(d, q - z)
        assert dist <= other + 1e-12 * (1.0 + other)


def _pav_reference(y, w, lo, hi):
    """Bounded pool-adjacent-violators, one block list per quantity, each
    block's value recomputed when compared."""
    n = len(y)
    starts, wsum, mean, blo, bhi = [], [], [], [], []

    def value(j):
        return min(max(mean[j], blo[j]), bhi[j])

    for i in range(n):
        starts.append(i)
        wsum.append(w[i])
        mean.append(y[i])
        blo.append(lo[i])
        bhi.append(hi[i])
        while len(starts) >= 2 and value(len(starts) - 2) > value(len(starts) - 1):
            w2, w1 = wsum.pop(), wsum[-1]
            m2 = mean.pop()
            starts.pop()
            l2, h2 = blo.pop(), bhi.pop()
            wsum[-1] = w1 + w2
            mean[-1] = (w1 * mean[-1] + w2 * m2) / (w1 + w2)
            blo[-1] = max(blo[-1], l2)
            bhi[-1] = min(bhi[-1], h2)
    x = np.empty(n)
    for j, (a, b) in enumerate(zip(starts, starts[1:] + [n])):
        x[a:b] = value(j)
    return x


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), seeds, st.booleans())
def test_bounded_isotonic_is_the_reference_bitwise(n, seed, ties):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n)
    if ties:  # equal and nearly equal neighbours, as pooled chains give
        y = np.round(y, 1) * (1.0 + rng.choice([0.0, 2.0 ** -52, -(2.0 ** -52)], size=n))
    w = rng.uniform(0.2, 5.0, n)
    lo = np.maximum.accumulate(rng.uniform(-2.0, 0.0, n))
    hi = np.minimum.accumulate(rng.uniform(0.0, 2.0, n)[::-1])[::-1]
    assert _bounded_isotonic(y, w, lo, hi).tobytes() == _pav_reference(y, w, lo, hi).tobytes()


def _pav_lists(y, w, lo, hi):
    """The bounded pool-adjacent-violators loop as the package had it before
    its blocks became tuples: parallel block lists, the ``min``/``max``
    builtins and a slice fill."""
    n = len(y)
    starts, wsum, mean, blo, bhi, val = [], [], [], [], [], []
    for i, (cm, cw, cl, ch) in enumerate(zip(y.tolist(), w.tolist(), lo.tolist(), hi.tolist())):
        cs, cv = i, min(max(cm, cl), ch)
        while val and val[-1] > cv:
            w1 = wsum.pop()
            cm = (w1 * mean.pop() + cw * cm) / (w1 + cw)
            cw = w1 + cw
            cl, ch = max(blo.pop(), cl), min(bhi.pop(), ch)
            cs = starts.pop()
            val.pop()
            cv = min(max(cm, cl), ch)
        starts.append(cs)
        wsum.append(cw)
        mean.append(cm)
        blo.append(cl)
        bhi.append(ch)
        val.append(cv)
    x = np.empty(n)
    for j, (a, b) in enumerate(zip(starts, starts[1:] + [n])):
        x[a:b] = val[j]
    return x


# values that tie with each other and with the bounds, signed zeros included
_TIED = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 14), st.data())
def test_bounded_isotonic_is_the_list_loop_bitwise(n, data):
    # ties, +-0, weights of every size and envelopes that move as chains'
    # gap-shifted bounds do; the tuple blocks and the conditional min/max
    # must reproduce every bit, the sign of a zero included
    values = st.one_of(_TIED, st.floats(-2.0, 2.0))
    y = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
    w = np.array(data.draw(st.lists(st.one_of(st.just(1.0), st.floats(0.01, 100.0)),
                                    min_size=n, max_size=n)))
    lo = np.maximum.accumulate(data.draw(st.lists(st.one_of(_TIED, st.floats(-3.0, 0.0)),
                                                  min_size=n, max_size=n)))
    hi = np.minimum.accumulate(np.array(data.draw(st.lists(
        st.one_of(_TIED, st.floats(0.0, 3.0)), min_size=n, max_size=n)))[::-1])[::-1]
    hi = np.maximum(hi, lo)
    assert _bounded_isotonic(y, w, lo, hi).tobytes() == _pav_lists(y, w, lo, hi).tobytes()


def test_bounded_isotonic_keeps_the_sign_of_a_tied_zero():
    # max(-0.0, 0.0) is -0.0 and min(0.0, -0.0) is 0.0: the first argument
    # stays on a tie, and so it does in the conditionals
    for y, lo, hi in (([-0.0], [0.0], [1.0]), ([0.0], [-1.0], [-0.0]), ([-0.0], [-0.0], [0.0])):
        args = [np.array(v) for v in (y, [1.0], lo, hi)]
        assert _bounded_isotonic(*args).tobytes() == _pav_lists(*args).tobytes()


@settings(max_examples=100, deadline=None)
@given(chained_domains(), seeds, st.integers(1, 8), st.booleans())
def test_stacked_project_and_prox_are_each_row_alone(domain, seed, rows, weighted):
    # rows inside the domain pass through, rows off it clip and pool; a
    # stack projects and steps every row bitwise as that point alone
    rng = np.random.default_rng(seed)
    geom = DiagonalGeometry(rng.uniform(0.2, 5.0, domain.dim) if weighted else 1.0)
    d = geom.weights(domain.dim)
    points = np.array([domain.shrink(1e-9).sample(rng) if rng.random() < 0.4
                       else rng.uniform(-0.5, 1.5, domain.dim) for _ in range(rows)])
    projected = domain.project(points, weights=d)
    for p, q in zip(points, projected):
        assert q.tobytes() == domain.project(p, weights=d).tobytes()
    xi = np.array([domain.sample(rng) for _ in range(rows)])
    g = 10.0 ** rng.uniform(-3.0, 1.0, (rows, 1)) * rng.standard_normal((rows, domain.dim))
    gamma = 10.0 ** rng.uniform(-3.0, 0.0, rows)
    for gammas in (gamma, float(gamma[0])):
        stepped = prox_step(geom, domain, xi, g, gammas)
        for k in range(rows):
            alone = prox_step(geom, domain, xi[k], g[k], float(np.broadcast_to(gammas, rows)[k]))
            assert stepped[k].tobytes() == alone.tobytes()


def test_stacked_prox_refuses_a_non_finite_gradient_row():
    domain = NonlinearDomain([0.0, 0.0], [1.0, 1.0], chains=((0, 1),), gap=0.1)
    g = np.zeros((3, 2))
    g[1, 0] = np.nan
    with pytest.raises(NonFiniteValueError, match="non-finite energy gradient"):
        prox_step(DiagonalGeometry(1.0), domain, np.full((3, 2), [0.2, 0.6]), g, 0.1)


def _project_by_isotonic(domain, p, d):
    """The projection with every chain through the isotonic solver; a chain
    the solver leaves as it is passes through bitwise."""
    x = np.minimum(np.maximum(p, domain.lower), domain.upper)
    for c in domain.chains:
        idx = np.asarray(c)
        shift = np.arange(idx.size, dtype=float) * domain.gap
        lo = np.maximum.accumulate(domain.lower[idx] - shift)
        hi = np.minimum.accumulate((domain.upper[idx] - shift)[::-1])[::-1]
        y = p[idx] - shift
        z = _bounded_isotonic(y, d[idx], lo, hi)
        x[idx] = z + shift if np.any(z != y) else p[idx]
    return x


@settings(max_examples=100, deadline=None)
@given(chained_domains(), seeds)
def test_project_passthrough_is_the_isotonic_solve_bitwise(domain, seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.2, 5.0, domain.dim)
    feasible = domain.shrink(1e-9).sample(rng)
    boundary = domain.project(rng.uniform(-0.5, 1.5, domain.dim))
    infeasible = rng.uniform(-0.5, 1.5, domain.dim)
    for p in (feasible, boundary, domain.sample(rng), infeasible):
        assert domain.project(p, weights=d).tobytes() == _project_by_isotonic(domain, p, d).tobytes()


def _assert_symmetric_psd(matrix):
    scale = float(np.max(np.abs(matrix)))
    assert np.max(np.abs(matrix - matrix.T)) <= 1e-14 * scale
    eig = np.linalg.eigvalsh(matrix)
    assert eig[0] >= -1e-12 * max(eig[-1], 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), seeds)
def test_gaussian_bump_assembly_is_symmetric_psd(n, seed):
    rng = np.random.default_rng(seed)
    family = GaussianBumps(NonlinearDomain([0.05] * n, [0.95] * n),
                           rng.uniform(0.03, 0.3, n))
    system = assemble(TARGET, RULE, family, family.domain.sample(rng))
    _assert_symmetric_psd(system.matrix)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.booleans(), seeds)
def test_hat_assembly_is_symmetric_psd(m, h1, seed):
    rng = np.random.default_rng(seed)
    chains = (tuple(range(m)),) if m > 1 else ()
    domain = NonlinearDomain([0.0] * m, [1.0] * m, chains=chains)
    family = FreeKnotHats(domain, 0.0, 1.0, dirichlet=h1)
    problem = TARGET
    if h1:
        problem = DiffusionReaction1D(
            Field(lambda x: 1.0 + x), constant(2.0), constant(1.0), 0.0, 1.0
        )
    system = assemble(problem, RULE, family, np.sort(rng.uniform(0.0, 1.0, m)))
    _assert_symmetric_psd(system.matrix)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), seeds, st.sampled_from([FullSolveCG(), SteepestDescent()]))
def test_linear_update_achieves_guaranteed_decrease(n, seed, linear_rule):
    rng = np.random.default_rng(seed)
    family = GaussianBumps(NonlinearDomain([0.05] * n, [0.95] * n),
                           rng.uniform(0.03, 0.3, n))
    system = assemble(TARGET, RULE, family, family.domain.sample(rng))
    w = rng.standard_normal(n)
    achieved, guaranteed = decrease(system, w, update_linear(linear_rule, system, w))
    assert guaranteed >= 0.0
    assert achieved >= guaranteed - 1e-12 * (1.0 + abs(quadratic_energy(system, w)))


# ---------------------------------------------------------------------------
# stacked evaluation: a stack of points is those points, one by one
# ---------------------------------------------------------------------------


def _stack_case(kind, rng):
    """A problem, a family and distinct sample points, stacked as they are."""
    if kind in ("gaussian", "synthetic"):
        n = int(rng.integers(1, 4))
        if kind == "gaussian":
            family = GaussianBumps(NonlinearDomain([0.05] * n, [0.95] * n),
                                   rng.uniform(0.03, 0.3, n))
            problem = TARGET
        else:
            family = SyntheticAmplitude(NonlinearDomain([-1.2] * n, [1.2] * n),
                                        profile=str(rng.choice(["sphere_quartic", "norm"])))
            problem = L2Approx(constant(0.0))
        points = np.array([family.domain.sample(rng) for _ in range(int(rng.integers(1, 40)))])
        return problem, family, points
    m = int(rng.integers(1, 5))
    problem = TARGET
    if kind == "indicator":
        family = IndicatorPair(NonlinearDomain([0.05] * 3, [0.95] * 3, chains=((0, 1, 2),), gap=0.05))
    else:
        chains = (tuple(range(m)),) if m > 1 else ()
        family = FreeKnotHats(NonlinearDomain([0.02] * m, [0.98] * m, chains=chains, gap=0.01),
                              0.0, 1.0, dirichlet=kind == "h1_hats")
        if kind == "h1_hats":
            problem = DiffusionReaction1D(Field(lambda x: 1.0 + x, lambda x: np.ones_like(x)),
                                          constant(2.0), constant(1.0), 0.0, 1.0,
                                          0.3, -0.2)
    points = np.array([family.domain.sample(rng) for _ in range(int(rng.integers(1, 12)))])
    return problem, family, points


def _close(a, b):
    return np.all(np.abs(np.asarray(a) - np.asarray(b)) <= 1e-12 * (1.0 + np.abs(b)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["gaussian", "l2_hats", "h1_hats", "indicator", "synthetic"]), seeds)
def test_stacked_evaluation_matches_point_by_point(kind, seed):
    rng = np.random.default_rng(seed)
    problem, family, points = _stack_case(kind, rng)
    # the ends and the points' own coordinates are where hats and indicators
    # switch between their closed and half-open pieces
    x = np.sort(np.concatenate([RULE.nodes, points.ravel(), [0.0, 1.0]]))
    # shared (Q,) nodes, and per-point (N, Q) nodes (here a shifted order)
    xs = np.stack([np.roll(x, i) for i in range(len(points))])
    for nodes, alone in ((x, lambda i: x), (xs, lambda i: xs[i])):
        values = family.basis_values(points, nodes)
        derivs = family.basis_derivs(points, nodes)
        for i, p in enumerate(points):
            assert np.array_equal(values[i], family.basis_values(p, alone(i)))
            if derivs is not None:
                assert np.array_equal(derivs[i], family.basis_derivs(p, alone(i)))

    system = assemble(problem, RULE, family, points)
    alone = [assemble(problem, RULE, family, p) for p in points]
    assert _close(system.matrix, [s.matrix for s in alone])
    assert _close(system.load, [s.load for s in alone])
    if kind == "synthetic":  # a frozen coefficient, as in the circle survey
        frozen = [quadratic_energy(s, [1.0]) for s in alone]
        assert _close(quadratic_energy(system, [1.0]), frozen)
    else:
        energy, w_star = _reduced(system)
        assert _close(energy, [_reduced(s)[0] for s in alone])
        assert _close(w_star, [_reduced(s)[1] for s in alone])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["gaussian", "l2_hats", "h1_hats", "indicator", "synthetic"]), seeds)
def test_stacked_gradient_is_bitwise_per_row(kind, seed):
    # one coefficient vector per row; the fd route (H1 hats) probes every
    # point in the stacked blocks of central_differences
    rng = np.random.default_rng(seed)
    problem, family, points = _stack_case(kind, rng)
    grads = make_gradients(problem, RULE, family)
    if grads.mode == "fd":
        inner = family.domain.shrink(grads.fd_step)
        points = np.array([inner.sample(rng) for _ in points])
    w = rng.standard_normal((len(points), family.n_linear))
    stacked = grads.grad_xi(w, points)
    assert stacked.shape == points.shape
    for i, p in enumerate(points):
        assert stacked[i].tobytes() == grads.grad_xi(w[i], p).tobytes()


@pytest.mark.parametrize("h1", [False, True])
def test_stack_mixing_panel_counts_matches_point_by_point(h1):
    # RULE's panel edges sit at multiples of 1/8, and a knot on one adds no
    # panel: these points split the rule into 10, 9 and 8 panels
    domain = NonlinearDomain([0.05, 0.05], [0.95, 0.95], chains=((0, 1),), gap=0.01)
    family = FreeKnotHats(domain, 0.0, 1.0, dirichlet=h1)
    problem = TARGET
    if h1:
        problem = DiffusionReaction1D(Field(lambda x: 1.0 + x, lambda x: np.ones_like(x)),
                                      constant(2.0), constant(1.0), 0.0, 1.0,
                                      0.3, -0.2)
    stack = np.array([[0.3, 0.6], [0.25, 0.6], [0.5, 0.625], [0.31, 0.77], [0.25, 0.5]])
    ends = np.column_stack([np.zeros(5), stack, np.ones(5)])
    groups = [(x.shape[1] // RULE.order, rows.tolist()) for rows, x, _ in RULE.split_rows(ends)]
    assert groups == [(8, [2, 4]), (9, [1]), (10, [0, 3])]
    system = assemble(problem, RULE, family, stack)
    grads = make_gradients(problem, RULE, family)
    w = np.linspace(0.5, 1.5, 5 * family.n_linear).reshape(5, -1)
    g = grads.grad_xi(w, stack)
    for i, p in enumerate(stack):
        alone = assemble(problem, RULE, family, p)
        assert system.matrix[i].tobytes() == alone.matrix.tobytes()
        assert system.gram[i].tobytes() == alone.gram.tobytes()
        assert system.load[i].tobytes() == alone.load.tobytes()
        assert g[i].tobytes() == grads.grad_xi(w[i], p).tobytes()


def _split_at_reference(rule, points):
    """Boundaries of ``rule`` split at ``points``: union, then one loop over
    near-coincident pairs dropping the newcomer of each."""
    pts = np.asarray(points, dtype=float)
    span = rule.x_hi - rule.x_lo
    keep = pts[(pts > rule.x_lo) & (pts < rule.x_hi)]
    merged = np.union1d(rule.boundaries, keep)
    original = np.isin(merged, rule.boundaries)
    drop = np.zeros(merged.size, dtype=bool)
    for i in np.nonzero(np.diff(merged) <= 1e-13 * span)[0]:
        j = i if not original[i] else i + 1
        if not original[j]:
            drop[j] = True
    return merged[~drop]


SPLIT_RULE = QuadratureRule.on_interval(0.2, 1.7, n_panels=6, order=3)


@st.composite
def split_rows(draw):
    """Equally long rows of split points: free, outside the interval, on a
    panel edge or within a few 1e-13 spans of one, and coincident or nearly
    coincident with another point of the row."""
    span = SPLIT_RULE.x_hi - SPLIT_RULE.x_lo
    sign = st.sampled_from([-1.0, 1.0])
    tiny = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]).map(lambda f: f * 1e-13 * span)
    edge = st.builds(lambda e, s, t: e + s * t,
                     st.sampled_from(SPLIT_RULE.boundaries.tolist()), sign, tiny)
    free = st.floats(SPLIT_RULE.x_lo - 0.3, SPLIT_RULE.x_hi + 0.3)
    k = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = draw(st.lists(st.one_of(free, edge), min_size=1, max_size=k))
        while len(row) < k:  # coincident or nearly coincident newcomers
            row.append(draw(st.sampled_from(row)) + draw(sign) * draw(tiny))
        rows.append(row)
    return np.array(rows)


@settings(max_examples=300, deadline=None)
@given(split_rows())
def test_stacked_split_is_split_at_row_by_row(rows):
    covered = []
    for idx, nodes, weights in SPLIT_RULE.split_rows(rows):
        covered.extend(idx.tolist())
        for i, x, w in zip(idx, nodes, weights):
            alone = SPLIT_RULE.split_at(rows[i])
            assert x.tobytes() == alone.nodes.tobytes()
            assert w.tobytes() == alone.weights.tobytes()
            assert alone.boundaries.tobytes() == _split_at_reference(SPLIT_RULE, rows[i]).tobytes()
    assert sorted(covered) == list(range(len(rows)))


def _first_failure(calls):
    """Index and exception class of the first call that raises, one by one."""
    for i, call in enumerate(calls):
        try:
            call()
        except NumericalError as exc:
            return i, type(exc)
    raise AssertionError("no point fails")


def _bumps_stack(bad):
    """Six feasible two-bump points, ``bad`` the indices of those to spoil."""
    family = GaussianBumps(NonlinearDomain([0.05, 0.05], [0.95, 0.95]), [0.1, 0.2])
    xi = np.column_stack([np.linspace(0.1, 0.6, 6), np.full(6, 0.5)])
    return family, xi, np.isin(np.arange(6), bad)


def _spoiled_system(xi, matrices, solution=None):
    system = AssembledSystem(xi=xi, matrix=matrices, load=np.ones(matrices.shape[:-1]),
                             gram=matrices)
    if solution is not None:
        system.__dict__["solution"] = solution  # a planted inaccurate solve
    return system


def _spoil(kind, bad, monkeypatch):
    """A stack evaluation and its point-by-point counterparts, spoiled at ``bad``."""
    family, xi, flag = _bumps_stack(bad)
    if kind == "non-finite basis":
        clean = GaussianBumps.evaluate

        def poisoned(self, p, x):
            spoil = np.isin(np.atleast_2d(p)[:, 0], xi[flag, 0]).reshape(np.shape(p)[:-1])
            p, x, phi = clean(self, p, x)
            return p, x, np.where(spoil[..., None, None], np.nan, phi)

        monkeypatch.setattr(GaussianBumps, "evaluate", poisoned)
        return (lambda: assemble(TARGET, RULE, family, xi),
                [lambda p=p: assemble(TARGET, RULE, family, p) for p in xi])
    A = np.tile(np.diag([2.0, 1.0]), (6, 1, 1))
    if kind in ("asymmetric matrix", "non-finite matrix"):
        A[flag, 0, 1] = 1e-3 if kind == "asymmetric matrix" else np.inf
        return (lambda: _symmetrise(A, "stiffness matrix", xi),
                [lambda i=i: _symmetrise(A[i], "stiffness matrix", xi[i]) for i in range(6)])
    if kind == "negative eigenvalue":
        A[flag, 1, 1] = -1.0
        return (lambda: _spoiled_system(xi, A).solution,
                [lambda i=i: _spoiled_system(xi[i], A[i]).solution for i in range(6)])
    w = np.tile([0.5, 1.0], (6, 1))
    w[flag] *= 1.01
    return (lambda: _reduced(_spoiled_system(xi, A, w)),
            [lambda i=i: _reduced(_spoiled_system(xi[i], A[i], w[i])) for i in range(6)])


@pytest.mark.parametrize("kind", ["non-finite basis", "asymmetric matrix", "non-finite matrix",
                                  "negative eigenvalue", "reduced energies disagree"])
def test_stack_names_its_first_bad_point(kind, monkeypatch):
    stacked, one_by_one = _spoil(kind, [2, 4], monkeypatch)
    first, error = _first_failure(one_by_one)
    assert first == 2
    with pytest.raises(error) as caught:
        stacked()
    assert type(caught.value) is error
    _, xi, _ = _bumps_stack([])
    assert f"at xi = {xi[2].tolist()!r}" in str(caught.value)


def test_stack_names_its_first_bad_point_across_panel_groups(monkeypatch):
    # the breakpoint on a panel edge gives fewer panels, so its group is
    # evaluated first; the error still names the first spoiled point of the
    # stack (hats on ordered knots have no basis values to spoil: the
    # indicator pair moves its breakpoints too)
    family = IndicatorPair(NonlinearDomain([0.05] * 3, [0.95] * 3, chains=((0, 1, 2),)))
    stack = np.array([[0.1, 0.3, 0.9], [0.1, 0.25, 0.9], [0.1, 0.6, 0.9]])
    clean = IndicatorPair.basis_values

    def poisoned(self, p, x):
        spoil = np.isin(np.atleast_2d(p)[:, 1], [0.3, 0.25]).reshape(np.shape(p)[:-1])
        return np.where(spoil[..., None, None], np.nan, clean(self, p, x))

    monkeypatch.setattr(IndicatorPair, "basis_values", poisoned)
    with pytest.raises(NumericalError, match=r"non-finite values at xi = \[0\.1, 0\.3, 0\.9\]"):
        assemble(TARGET, RULE, family, stack)
