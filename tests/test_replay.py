"""Replay checks the written states block by block, as arrays.

The stacked forms of the linear update, the decrease check and the
system's statistics must give each point bitwise what it gives alone; a
replay cut into small blocks must rebuild the record and the faults of a
replay in one block, check each block with one prox step and one linear
update, and raise on a failed check what a walk through the states one at
a time meets first.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nonlinritz.assembly
import nonlinritz.optimizer
from nonlinritz.assembly import Evaluator, assemble, quadratic_energy
from nonlinritz.basis import GaussianBumps, NonlinearDomain
from nonlinritz.errors import NumericalError
from nonlinritz.optimizer import LipschitzAdaptive, StoppingCriteria, _same, replay, run
from nonlinritz.updates import (
    EuclideanGeometry,
    FullSolveCG,
    SteepestDescent,
    decrease_check,
    update_linear,
)
from nonlinritz.variational import Field, L2Approx, QuadratureRule

RULE = QuadratureRule.on_interval(0.0, 1.0, n_panels=8, order=4)
TARGET = L2Approx(Field(lambda x: np.sin(7.0 * x) * np.exp(-x) + 0.5 * np.exp(-800.0 * (x - 0.5) ** 2)))
#: blocks of seven states (6 bumps on 32 nodes: 2000 // (8 * 32))
SMALL = 2_000
BLOCK = 7


def _bumps(linear_rule, epochs=30):
    """Keyword arguments of a run of six packed, chained Gaussian bumps,
    whose steps press the chain against its gap (the prox pools)."""
    n = 6
    family = GaussianBumps(NonlinearDomain([0.02] * n, [0.95] * n, chains=(tuple(range(n)),),
                                           gap=0.035), [0.06] * n)
    return dict(problem=TARGET, rule=RULE, family=family, linear_rule=linear_rule,
                geometry=EuclideanGeometry(), schedule=LipschitzAdaptive(zeta=0.9, n_pairs=4),
                stopping=StoppingCriteria(max_epochs=epochs),
                xi0=np.linspace(0.3, 0.3 + 5 * 0.04, n))


def _states(record):
    return np.hstack((record.xi, record.w))


def _bits(record):
    """Every value of a run record, floats by their bits."""
    def b(v):
        if isinstance(v, np.ndarray):
            return v.tobytes()
        if isinstance(v, float):
            return np.float64(v).tobytes()
        return v

    return {k: b(v) for k, v in vars(record).items()}


@pytest.fixture(params=[FullSolveCG(), SteepestDescent()], ids=["cg", "sd"])
def written(request):
    kw = _bumps(request.param)
    record = run(**kw)
    assert record.n_steps > 2 * BLOCK  # several blocks
    return kw, record


def _replay(kw, states, monkeypatch, budget):
    monkeypatch.setattr(nonlinritz.assembly, "_STACK_ELEMENTS", budget)
    return replay(states=states, **kw)


def test_block_size_is_as_planned(written, monkeypatch):
    kw, record = written
    monkeypatch.setattr(nonlinritz.assembly, "_STACK_ELEMENTS", SMALL)
    assert Evaluator(TARGET, RULE, kw["family"]).slices(_states(record)[:, :6])[0].stop == BLOCK


def test_small_blocks_rebuild_the_record_of_one_block(written, monkeypatch):
    kw, record = written
    states = _states(record)
    one, faults_one = _replay(kw, states, monkeypatch, 10 ** 9)
    small, faults_small = _replay(kw, states, monkeypatch, SMALL)
    assert faults_one == faults_small == []
    assert _bits(one) == _bits(small) == _bits(record)


def _next_ulp(states, k, col):
    out = states.copy()
    out[k, col] = np.nextafter(out[k, col], np.inf)
    return out


@pytest.mark.parametrize("k", [0, 3, BLOCK - 1, BLOCK, 2 * BLOCK])
@pytest.mark.parametrize("block", ["xi", "w"])
def test_tampered_state_gives_the_fault_of_a_walk(written, monkeypatch, k, block):
    # in the middle of a block, at its last state, at the first state of the
    # next block (reached by a prox step from the block before) and at the start
    kw, record = written
    tampered = _next_ulp(_states(record), k, 2 if block == "xi" else 6 + 2)
    _, faults_one = _replay(kw, tampered, monkeypatch, 10 ** 9)
    _, faults_small = _replay(kw, tampered, monkeypatch, SMALL)
    _, faults_walk = _replay(kw, tampered, monkeypatch, 1)  # blocks of one state
    assert faults_small == faults_one == faults_walk
    if block == "xi":
        want = "xi_0 is not the configured start" if k == 0 else \
            f"xi_{k} is not the prox step from iterate {k - 1}"
    else:
        want = "w_0 is not the initial linear update" if k == 0 else \
            f"w_{k} is not the linear update at xi_{k}"
    assert faults_small[0] == want


def test_replay_steps_and_updates_once_per_block(written, monkeypatch, count_calls):
    kw, record = written
    states = _states(record)
    monkeypatch.setattr(nonlinritz.assembly, "_STACK_ELEMENTS", SMALL)
    prox = count_calls("prox_step", nonlinritz.optimizer)
    linear = count_calls("update_linear", nonlinritz.optimizer)
    _, faults = replay(states=states, **kw)
    assert faults == []
    # the states a step leaves in blocks of seven, the last state alone
    blocks = math.ceil(record.n_steps / BLOCK) + 1
    assert len(prox) == len(linear) == blocks < record.n_steps


# ---------------------------------------------------------------------------
# a failed check raises what the walk through the states meets first
# ---------------------------------------------------------------------------

#: the checks of one state in the order a walk makes them, each with the
#: argument holding the points it checks and the state of its first row
_CHECKS = {
    "_check_assumption1": (lambda system, *a: system.xi, 0),
    "prox_step": (lambda geometry, domain, xi, *a: xi, 1),  # steps from the state before
    "update_linear": (lambda rule, system, *a: system.xi, 0),
    "decrease_check": (lambda system, *a: system.xi, 0),
    "_reduced": (lambda system, *a: system.xi, 0),
}


def _plant(monkeypatch, xis, plan):
    """Make each check of ``plan`` ({name: states}) raise, as the real
    checks do, for the first of its rows whose state is planted."""
    for name, (points, shift) in _CHECKS.items():
        clean = getattr(nonlinritz.optimizer, name)

        def planted(*args, _clean=clean, _name=name, _points=points, _shift=shift, **kwargs):
            for row in np.atleast_2d(_points(*args)):
                k = int(np.flatnonzero((xis == row).all(axis=1))[0]) + _shift
                if k in plan.get(_name, ()):
                    raise NumericalError(f"{_name} fails at state {k}")
            return _clean(*args, **kwargs)

        monkeypatch.setattr(nonlinritz.optimizer, name, planted)


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(_CHECKS)),
                       st.sets(st.integers(0, 2 * BLOCK + 2), min_size=1, max_size=3),
                       min_size=1, max_size=3))
def test_a_failed_block_raises_the_first_failure_of_the_walk(plan):
    kw = _bumps(SteepestDescent(), epochs=2 * BLOCK + 2)
    states = _states(run(**kw))
    xis = states[:, :6]
    assert len(np.unique(xis, axis=0)) == len(xis)
    # state by state, the checks in the walk's order; no step reaches state 0
    order = list(_CHECKS)
    planted = sorted((k, order.index(name)) for name, ks in plan.items() for k in ks
                     if k < len(xis) and not (name == "prox_step" and k == 0))
    want = None if not planted else f"{order[planted[0][1]]} fails at state {planted[0][0]}"
    for budget in (SMALL, 1):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(nonlinritz.assembly, "_STACK_ELEMENTS", budget)
            _plant(m, xis, plan)
            if want is None:
                assert replay(states=states, **kw)[1] == []
            else:
                with pytest.raises(NumericalError) as err:
                    replay(states=states, **kw)
                assert str(err.value) == want


@pytest.mark.parametrize("first", [3, BLOCK, BLOCK + 4])
def test_a_violated_solvability_bound_names_the_first_point(monkeypatch, first):
    kw = _bumps(FullSolveCG())
    record = run(**kw)
    # the states in reverse: omega falls from state to state, so that the
    # bound omega_k holds up to state k and fails after it (the reversed
    # states are no run, but uniform solvability is checked before that)
    states = _states(record)[::-1]
    omegas = record.omega[::-1]
    assert np.all(np.diff(omegas) < 0.0)
    messages = []
    for budget in (10 ** 9, SMALL, 1):
        monkeypatch.setattr(nonlinritz.assembly, "_STACK_ELEMENTS", budget)
        with pytest.raises(NumericalError) as err:
            replay(states=states, omega_min=float(omegas[first - 1]), **kw)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == messages[2] == (
        f"uniform solvability violated at xi = {states[first, :6].tolist()}: omega = "
        f"{float(omegas[first])!r} < omega_min = {float(omegas[first - 1])!r}; shrink the "
        "domain or raise the gap")


# ---------------------------------------------------------------------------
# stacked linear algebra: each row bitwise that point alone
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_stacked_updates_and_statistics_are_each_point_alone(n, rows, seed):
    rng = np.random.default_rng(seed)
    family = GaussianBumps(NonlinearDomain([0.05] * n, [0.95] * n), rng.uniform(0.03, 0.3, n))
    points = np.array([family.domain.sample(rng) for _ in range(rows)])
    stack = assemble(TARGET, RULE, family, points)
    w = rng.standard_normal((rows, n))
    residual = np.matvec(stack.matrix, w) - stack.load
    K = quadratic_energy(stack, w)
    for rule in (SteepestDescent(), FullSolveCG()):
        new = update_linear(rule, stack, w)
        drop, bound = decrease_check(stack, K, quadratic_energy(stack, new), residual)
        for i in range(rows):
            alone = assemble(TARGET, RULE, family, points[i])
            w_i = update_linear(rule, alone, w[i])
            assert new[i].tobytes() == w_i.tobytes()
            r_i = alone.matrix @ w[i] - alone.load
            assert residual[i].tobytes() == r_i.tobytes()
            d_i = decrease_check(alone, quadratic_energy(alone, w[i]),
                                 quadratic_energy(alone, w_i), r_i)
            assert (drop[i], bound[i]) == d_i and isinstance(d_i[1], float)
    for name in ("lambda_max", "omega", "phi_u2"):
        for i in range(rows):
            alone = getattr(assemble(TARGET, RULE, family, points[i]), name)
            assert isinstance(alone, float) and getattr(stack, name)[i] == alone
            assert getattr(stack[i], name) == alone


def test_same_compares_bits_row_by_row():
    a = np.array([[0.0, 1.0], [0.0, 1.0], [np.nan, 2.0]])
    b = np.array([[-0.0, 1.0], [0.0, 1.0], [np.nan, 2.0]])
    assert _same(a, b).tolist() == [False, True, True]
    assert bool(_same(a[1], b[1])) and not bool(_same(a[0], b[0]))
