"""One evaluation per visited point.

A system keeps the evaluation it was assembled from (quadrature split,
field values, the family on the nodes), and the analytic parameter
gradient reads it.  These tests pin the groups of an evaluation, check
that the gradient read from a kept evaluation is bitwise the one from a
fresh evaluation at the same ``(w, xi)``, and count the evaluations a run
and its replay make, and the field evaluations of a grid oracle and of
``check``.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import nonlinritz.assembly
from nonlinritz.assembly import Evaluator, assemble
from nonlinritz.basis import (
    FreeKnotHats,
    GaussianBumps,
    IndicatorPair,
    NonlinearDomain,
    SyntheticAmplitude,
)
from nonlinritz.certify import minimiser_grid_oracle
from nonlinritz.cli import main
from nonlinritz.errors import NonFiniteValueError
from nonlinritz.optimizer import (
    ConstantGamma,
    LipschitzAdaptive,
    StoppingCriteria,
    replay,
    run,
)
from nonlinritz.updates import EuclideanGeometry, FullSolveCG, make_gradients
from nonlinritz.variational import DiffusionReaction1D, Field, L2Approx, QuadratureRule

from hat_loops import reference_knot_gradient, reference_system

RULE = QuadratureRule.on_interval(0.0, 1.0, n_panels=8, order=4)
PANEL_EDGES = RULE.boundaries[1:-1].tolist()


def fresh_gradient(grads, w, xi):
    """grad_xi K(w, xi) at one point from a fresh evaluation, as the analytic
    route computed it before systems kept their evaluation: the rule split at
    the point's breakpoints, the family and the target evaluated there again,
    then ``d_i K = (u, d_i u) - (f, d_i u)``: for hats the per-point
    reference (``hat_loops``), for every other family contracted dense
    values."""
    problem, family = grads.evaluator.problem, grads.evaluator.family
    if isinstance(family, FreeKnotHats):  # the per-point split, located node by node
        return reference_knot_gradient(problem, grads.evaluator.rule, family, xi[None], w[None])[0]
    r = grads.evaluator.rule.split_at((*family.breakpoints(xi), *problem.coefficient_breakpoints()))
    ev = family.evaluate(xi[None], r.nodes)
    f = problem.target.values(r.nodes)
    u, du = np.vecmat(w[None], ev), family.dparam_values(xi[None], r.nodes, ev, w[None])
    return (np.matvec(du, r.weights * u) - np.matvec(du, r.weights * f))[0]


def _assert_parity(problem, family, points, seed):
    grads = make_gradients(problem, RULE, family)
    assert grads.mode == "analytic"
    w = np.random.default_rng(seed).standard_normal((len(points), family.n_linear))
    stack = grads.evaluator.assemble(points)
    kept = grads.grad_xi(w, stack)
    for i, xi in enumerate(points):
        want = fresh_gradient(grads, w[i], xi).tobytes()
        assert kept[i].tobytes() == want
        assert grads.grad_xi(w[i], grads.evaluator.assemble(xi)).tobytes() == want
        assert grads.grad_xi(w[i], assemble(problem, RULE, family, xi)).tobytes() == want
    # points never assembled are evaluated afresh
    assert grads.grad_xi(w, points).tobytes() == kept.tobytes()


TARGET = L2Approx(Field(lambda x: np.sin(5.0 * x + 0.2) + 0.4 * np.exp(-30.0 * (x - 0.6) ** 2),
                        None, (0.45,)))


# ---------------------------------------------------------------------------
# the groups of an evaluation
# ---------------------------------------------------------------------------


def _bitwise(a, b):
    return np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("case", ["bumps", "indicator", "synthetic"])
def test_evaluation_groups_are_rows_nodes_weights_fields_values(case):
    """Each group is ``(rows, nodes, weights, fields, values)``: a row group
    of ``rule.split_rows`` at the points' and the target's breakpoints, the
    weighted target on its nodes and ``family.evaluate`` there, the basis
    values of a dense family."""
    if case == "bumps":  # no breakpoint moves: one shared split
        family = GaussianBumps(NonlinearDomain([0.05] * 3, [0.95] * 3), [0.1, 0.2, 0.15])
        xi = np.array([[0.2, 0.5, 0.7], [0.3, 0.35, 0.9], [0.125, 0.6, 0.61]])
    elif case == "indicator":  # ends on panel edges add no panel
        family = IndicatorPair(NonlinearDomain([0.0] * 3, [1.0] * 3, chains=((0, 1, 2),)))
        xi = np.array([[0.1, 0.3, 0.7], [0.125, 0.3, 0.7], [0.2, 0.5, 0.75], [0.15, 0.55, 0.8]])
    else:
        family = SyntheticAmplitude(NonlinearDomain([-1.5] * 2, [1.5] * 2), profile="norm")
        xi = np.array([[0.3, -0.4], [0.0, 0.0], [1.2, 0.5]])
    groups = Evaluator(TARGET, RULE, family).evaluate(xi).groups
    breaks = np.column_stack([*family.breakpoints(xi), np.full(len(xi), 0.45)])
    splits = RULE.split_rows(breaks)
    if case == "indicator":
        assert len(groups) >= 2
        assert [g[0].tolist() for g in groups] == [s[0].tolist() for s in splits]
    else:
        assert len(groups) == 1 and groups[0][0] == slice(None)
        assert len(splits) == 1 and splits[0][0].tolist() == list(range(len(xi)))
    for (rows, nodes, weights, fields, values), (_, x, w) in zip(groups, splits):
        if isinstance(rows, slice):  # nodes and weights shared: every row's are equal
            x, w = x[0], w[0]
        assert _bitwise(nodes, x) and _bitwise(weights, w)
        assert _bitwise(fields, w * TARGET.target.values(x))
        assert _bitwise(values, family.basis_values(xi[rows], nodes))


def _point_nodes(cells, i, v):
    """The entries of ``v`` (one per node of ``cells``) on point ``i``'s
    cells, cell after cell."""
    starts = np.cumsum(cells.counts) - cells.counts
    return np.concatenate([v[starts[k]:starts[k] + cells.counts[k]]
                           for k in cells.of[i] if k < cells.counts.size])


def test_hat_evaluation_is_one_group_of_distinct_cells():
    """Hats evaluate as one group ``(slice(None), nodes, weights, fields,
    cells)``: the nodes and weights of the stack's distinct cells
    (``rule.split_cells``) and the weighted target on them.  Gathered cell
    by cell, each point's nodes and weights are bitwise those of its own
    split at its knots and the target's breakpoint."""
    family = FreeKnotHats(NonlinearDomain([0.02] * 2, [0.98] * 2, chains=((0, 1),)), 0.0, 1.0)
    # the first two share their last cell, the last two their first
    xi = np.array([[0.3, 0.6], [0.25, 0.6], [0.125, 0.7], [0.125, 0.77]])
    (rows, nodes, weights, fields, cells), = Evaluator(TARGET, RULE, family).evaluate(xi).groups
    assert rows == slice(None) and cells.x is nodes and cells.weights is weights
    assert _bitwise(fields, weights * TARGET.target.values(nodes))
    assert cells.of.shape == (4, 3) and cells.counts.size == 10
    for i, point in enumerate(xi):
        own = RULE.split_at((*family.breakpoints(point), 0.45))
        assert _bitwise(_point_nodes(cells, i, nodes), own.nodes)
        assert _bitwise(_point_nodes(cells, i, weights), own.weights)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), count=st.integers(1, 5), data=st.data())
def test_gaussian_bump_gradient_from_kept_evaluation(n, count, data):
    widths = data.draw(st.lists(st.floats(0.05, 0.3), min_size=n, max_size=n))
    family = GaussianBumps(NonlinearDomain([0.05] * n, [0.95] * n), widths)
    points = np.array(data.draw(st.lists(st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n),
                                         min_size=count, max_size=count)))
    _assert_parity(TARGET, family, points, data.draw(st.integers(0, 2 ** 32 - 1)))


# a knot on a panel edge adds no panel, so stacks mix splits of different
# panel counts, evaluated group by group
_KNOT = st.one_of(st.floats(0.02, 0.98), st.sampled_from(PANEL_EDGES))


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 5), count=st.integers(1, 5), dirichlet=st.booleans(), data=st.data())
def test_free_knot_hat_gradient_from_kept_evaluation(m, count, dirichlet, data):
    chains = (tuple(range(m)),) if m > 1 else ()
    family = FreeKnotHats(NonlinearDomain([0.02] * m, [0.98] * m, chains=chains), 0.0, 1.0,
                          dirichlet=dirichlet)
    points = np.sort(data.draw(st.lists(st.lists(_KNOT, min_size=m, max_size=m),
                                        min_size=count, max_size=count)), axis=1)
    _assert_parity(TARGET, family, np.array(points), data.draw(st.integers(0, 2 ** 32 - 1)))


def test_hat_stack_with_splits_of_different_panel_counts():
    # knots on panel edges: the points' own splits have 8, 9 and 10
    # panels, and the stack is still one group of cells
    family = FreeKnotHats(NonlinearDomain([0.02] * 2, [0.98] * 2, chains=((0, 1),)), 0.0, 1.0)
    points = np.array([[0.3, 0.6], [0.25, 0.5], [0.125, 0.7], [0.31, 0.77]])
    ends = np.column_stack([np.zeros(4), points, np.ones(4), np.full(4, 0.45)])
    assert len(RULE.split_rows(ends)) == 3
    system = assemble(TARGET, RULE, family, points)
    assert len(system.evaluation.groups) == 1
    _assert_parity(TARGET, family, points, 5)


# ---------------------------------------------------------------------------
# hats assembled per distinct cell, against the per-point reference
# ---------------------------------------------------------------------------


# Dirichlet data, so the lifting's values and slopes enter the load, and a
# diffusivity with a breakpoint, which splits the cells it falls in
H1 = DiffusionReaction1D(Field(lambda x: np.where(x < 0.45, 1.0 + x, 2.5 - x), None, (0.45,)),
                         Field(lambda x: np.full(np.shape(x), 2.0)),
                         Field(lambda x: np.cos(3.0 * x)), 0.0, 1.0, 0.3, -0.2)
# the interval's ends, the coefficient breakpoint and the panel edges; a
# knot on one of them or within a few 1e-13 spans (the split's tolerance)
_ANCHORS = [0.0, 1.0, 0.45, *PANEL_EDGES]
_NEAR = st.builds(lambda a, k: min(1.0, max(0.0, a + k * 1e-14)),
                  st.sampled_from(_ANCHORS), st.integers(-25, 25))
_ANY_KNOT = st.one_of(st.floats(0.0, 1.0), st.sampled_from(_ANCHORS), _NEAR)


@st.composite
def _knot_row(draw, m):
    """m ordered knots, some coincident with the one before or within a few
    1e-13 spans of it."""
    knots = sorted(draw(st.lists(_ANY_KNOT, min_size=m, max_size=m)))
    for i in range(1, m):
        k = draw(st.one_of(st.none(), st.integers(0, 25)))
        if k is not None:
            knots[i] = min(1.0, knots[i - 1] + k * 1e-14)
    return sorted(knots)


@st.composite
def hat_stacks(draw):
    """``(problem, family, stack)``: free or Dirichlet hats under the L2
    energy, or Dirichlet hats under the H1 energy, and a stack of points
    each of which shares some knots, and so cells, with the first."""
    m = draw(st.integers(1, 5))
    h1 = draw(st.booleans())
    dirichlet = h1 or draw(st.booleans())
    chains = (tuple(range(m)),) if m > 1 else ()
    family = FreeKnotHats(NonlinearDomain([0.0] * m, [1.0] * m, chains=chains), 0.0, 1.0,
                          dirichlet=dirichlet)
    base = draw(_knot_row(m))
    stack = [base]
    for _ in range(draw(st.integers(0, 5))):
        row = draw(_knot_row(m))
        same = draw(st.lists(st.booleans(), min_size=m, max_size=m))
        stack.append(sorted(b if s else r for b, r, s in zip(base, row, same)))
    return (H1 if h1 else TARGET), family, np.array(stack)


@settings(deadline=None)  # the profile's example count: more under HYPOTHESIS_PROFILE=ci
@given(hat_stacks(), st.integers(0, 2 ** 32 - 1))
# a knot dropped by the split within 1e-13 of a panel edge, and one dropped
# by its neighbour 5e-14 to its right: the cells around them share a panel
@example((TARGET, FreeKnotHats(NonlinearDomain([0.0] * 2, [1.0] * 2, chains=((0, 1),)), 0.0, 1.0),
          np.array([[0.25 + 5e-14, 0.6], [0.3, 0.3 + 5e-14], [0.25 + 5e-14, 0.625]])), 0)
# the panel [0.25, 0.25 + 5.5e-13] holds a node right of the dropped knot
# 0.25 + 5e-13, which the narrow cell between the two knots takes
@example((H1, FreeKnotHats(NonlinearDomain([0.0] * 3, [1.0] * 3, chains=((0, 1, 2),)), 0.0, 1.0,
                           dirichlet=True),
          np.array([[0.25 + 5e-13, 0.25 + 5.5e-13, 0.45], [0.1, 0.25 + 5.5e-13, 0.45]])), 0)
def test_hat_cells_assemble_bitwise_as_the_per_point_split(case, seed):
    # every system, load, Gram matrix and knot gradient of the per-cell
    # assembly is bitwise the one of the point's own split, located node
    # by node and summed per (point, cell)
    problem, family, stack = case
    A, G, load = reference_system(problem, RULE, family, stack)
    finite = [np.isfinite(M).all(axis=(1, 2)) for M in (A, G)]
    if not (finite[0].all() and finite[1].all()):
        # a cell about 1e-154 wide or narrower squares its slope to inf:
        # the same error names the same first point
        label, ok = ("stiffness matrix", finite[0]) if not finite[0].all() else ("Gram matrix", finite[1])
        point = stack[np.flatnonzero(~ok)[0]].tolist()
        with pytest.raises(NonFiniteValueError,
                           match=re.escape(f"assembled {label} has non-finite entries at xi = {point!r}")):
            Evaluator(problem, RULE, family).assemble(stack)
        return
    system = Evaluator(problem, RULE, family).assemble(stack)
    assert system.matrix.tobytes() == A.tobytes()
    assert system.gram.tobytes() == G.tobytes()
    assert system.load.tobytes() == load.tobytes()
    if not problem.needs_h1:
        w = np.random.default_rng(seed).standard_normal((len(stack), family.n_linear))
        g = make_gradients(problem, RULE, family).grad_xi(w, system)
        assert g.tobytes() == reference_knot_gradient(problem, RULE, family, stack, w).tobytes()


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 3), count=st.integers(1, 5),
       profile=st.sampled_from(["sphere_quartic", "norm"]), data=st.data())
def test_synthetic_amplitude_gradient_from_kept_evaluation(d, count, profile, data):
    family = SyntheticAmplitude(NonlinearDomain([-1.5] * d, [1.5] * d), profile=profile,
                                radius=0.8, scale=0.7)
    points = np.array(data.draw(st.lists(st.lists(st.floats(-1.5, 1.5), min_size=d, max_size=d),
                                         min_size=count, max_size=count)))
    _assert_parity(TARGET, family, points, data.draw(st.integers(0, 2 ** 32 - 1)))


# ---------------------------------------------------------------------------
# evaluations counted
# ---------------------------------------------------------------------------


def _counted_target(calls):
    def values(x):
        calls.append(np.shape(x))
        return np.sin(12.0 * x) * np.exp(-x) + 0.5 * np.exp(-0.5 * ((x - 0.5) / 0.02) ** 2)
    return L2Approx(Field(values))


def _bumps(problem, epochs=12):
    """Keyword arguments of a run of six ordered Gaussian bumps."""
    n = 6
    family = GaussianBumps(NonlinearDomain([0.02] * n, [0.98] * n, chains=(tuple(range(n)),),
                                           gap=0.035), [0.08] * n)
    return dict(problem=problem, rule=RULE, family=family, linear_rule=FullSolveCG(),
                geometry=EuclideanGeometry(), stopping=StoppingCriteria(max_epochs=epochs),
                xi0=np.linspace(0.05, 0.6, n))


def test_bumps_run_evaluates_each_visited_point_once(count_calls):
    targets = []
    phi = count_calls("_phi", GaussianBumps)
    rec = run(schedule=LipschitzAdaptive(zeta=0.5, n_pairs=5), **_bumps(_counted_target(targets)))
    assert rec.n_steps == 12
    # one evaluation per visited state and one for the Lipschitz stack; the
    # target on the one shared node set once
    assert len(phi) == rec.n_steps + 2
    assert len(targets) <= 2


def test_l2_hat_run_splits_the_rule_once_per_state_and_locates_no_node(count_calls):
    # one split per visited state and one for the Lipschitz stack; each
    # node's cell is known from the split, so no node is located
    m = 6
    family = FreeKnotHats(NonlinearDomain([0.02] * m, [0.98] * m, chains=(tuple(range(m)),),
                                          gap=0.001), 0.0, 1.0)
    splits = count_calls("split_cells", QuadratureRule)
    located = count_calls("_locate", FreeKnotHats)
    rec = run(TARGET, RULE, family, FullSolveCG(), EuclideanGeometry(),
              LipschitzAdaptive(zeta=0.5, n_pairs=4), StoppingCriteria(max_epochs=5),
              np.linspace(0.1, 0.9, m))
    assert rec.n_steps == 5
    assert len(splits) == len(rec.K) + 1
    assert located == []


def _distinct_cell_nodes(rule, fixed, stack):
    """``(cells, nodes, per_point)``: the distinct cells ``(a, b)`` of the
    grids ``(0, knots, 1)`` of ``stack``, the rule's nodes on them and on
    every point's cells.  A cell holds one panel more than the rule's edges
    and the ``fixed`` points strictly inside it (no two of them closer than
    the split's tolerance)."""
    def panels(a, b):
        return 1 + len({v for v in (*rule.boundaries, *fixed) if a < v < b})
    cells = [(a, b) for p in stack for a, b in zip((0.0, *p), (*p, 1.0))]
    return (set(cells), rule.order * sum(panels(a, b) for a, b in set(cells)),
            rule.order * sum(panels(a, b) for a, b in cells))


def _counted_diffusion(sizes):
    def K(x):
        sizes.append(np.size(x))
        return 1.0 + 0.3 * np.sin(2.0 * np.pi * x)
    return DiffusionReaction1D(Field(K, None, (0.45,)), Field(lambda x: np.full(np.shape(x), 1.25)),
                               Field(lambda x: 1.0 + np.exp(-30.0 * (x - 0.5) ** 2)), 0.0, 1.0)


def test_fd_probes_evaluate_the_fields_on_their_distinct_cells_only(count_calls):
    # the 2m probes of a point share all but two of its cells: their fields
    # are evaluated once, on the nodes of the point's m + 1 cells and the
    # 4m cells next to the probed knots, not on 2m (m + 1) cells
    m = 4
    rule = QuadratureRule.on_interval(0.0, 1.0, n_panels=7, order=5)  # no edge near a knot
    family = FreeKnotHats(NonlinearDomain([0.02] * m, [0.98] * m, chains=(tuple(range(m)),),
                                          gap=0.01), 0.0, 1.0, dirichlet=True)
    sizes = []
    grads = make_gradients(_counted_diffusion(sizes), rule, family)
    assert grads.mode == "fd"
    fields = count_calls("_field_values", nonlinritz.assembly)
    xi = np.array([0.2, 0.4, 0.55, 0.8])
    grads.grad_xi(np.ones(m), xi)
    h, e = grads.fd_step, grads.fd_step * np.eye(m)
    probes = np.array([xi + s * e[i] for i in range(m) for s in (1.0, -1.0)])
    cells, nodes, per_point = _distinct_cell_nodes(rule, (0.45,), probes)
    assert len(cells) == (m + 1) + 4 * m
    assert len(fields) == 1 and sizes == [nodes] and nodes < per_point


def test_hat_grid_block_evaluates_the_fields_on_its_distinct_cells_only():
    # the grid's points share their outer cells: one block of them
    # evaluates the target on the nodes of its distinct cells only
    rule = QuadratureRule.on_interval(0.0, 1.0, n_panels=7, order=5)  # no edge near a knot
    family = FreeKnotHats(NonlinearDomain([0.05, 0.05], [0.95, 0.95], chains=((0, 1),), gap=0.02),
                          0.0, 1.0)
    sizes = []

    def target(x):
        sizes.append(np.size(x))
        return np.abs(x - 0.33) + 0.5 * x * x

    problem = L2Approx(Field(target, None, (0.33,)))
    evaluator = Evaluator(problem, rule, family)
    axis = np.linspace(0.05, 0.95, 37)
    mesh = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    points = mesh[family.domain.feasible(mesh)]
    block = points[evaluator.slices(points)[0]]
    assert len(block) > 100
    evaluator.assemble(block)
    cells, nodes, per_point = _distinct_cell_nodes(rule, (0.33,), block)
    assert sizes == [nodes] and nodes < per_point / 2


def test_replay_evaluates_each_state_once(monkeypatch):
    kw = _bumps(_counted_target([]), epochs=40)
    schedule = ConstantGamma(0.02)
    rec = run(schedule=schedule, **kw)
    states = np.hstack((rec.xi, rec.w))
    evaluated = []
    clean = Evaluator.evaluate

    def counted(self, xi):
        evaluated.extend(np.atleast_2d(xi).tolist())
        return clean(self, xi)

    monkeypatch.setattr(Evaluator, "evaluate", counted)
    # blocks of a few states, so that the states come in several blocks
    monkeypatch.setattr(nonlinritz.assembly, "_STACK_ELEMENTS", 2_000)
    again, faults = replay(schedule=schedule, states=states, **kw)
    assert faults == []
    assert evaluated == states[:, :kw["family"].n_nonlinear].tolist()
    assert again.best_K == rec.best_K


def test_fixed_breakpoint_grid_oracle_evaluates_the_fields_once(count_calls):
    # the bumps move no breakpoint, so every block shares one node set
    family = GaussianBumps(NonlinearDomain([0.1, 0.1], [0.9, 0.9]), [0.1, 0.1])
    fields = count_calls("_field_values", nonlinritz.assembly)
    oracle = minimiser_grid_oracle(TARGET, RULE, family, resolution=0.015)
    assert len(Evaluator(TARGET, RULE, family).slices(oracle.points)) > 1
    assert len(fields) == 1


def test_check_on_bumps_evaluates_the_fields_once(tmp_path, count_calls):
    # the sampled systems, the start, the reduced gradients and their
    # difference probes are all assembled by one evaluator
    data = {
        "problem": {"kind": "l2", "target": "gauss(x, 0.3, 0.1)", "x_lo": 0.0, "x_hi": 1.0},
        "constants": {"alpha": 1.0, "norm_a": 1.0, "norm_ell": 1.0},
        "family": {"kind": "gaussian_bumps", "widths": [0.1, 0.12]},
        "domain": {"lower": [0.1, 0.1], "upper": [0.9, 0.9]},
        "schedule": {"kind": "constant", "gamma": 0.1},
        "stopping": {"max_epochs": 5},
        "init": {"xi0": [0.45, 0.55]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    fields = count_calls("_field_values", nonlinritz.assembly)
    assert main(["check", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    assert len(fields) == 1
