import ast
import copy
import json
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from nonlinritz.basis import (
    FreeKnotHats,
    GaussianBumps,
    IndicatorPair,
    SyntheticAmplitude,
)
from nonlinritz.config import (
    canonical_json,
    compile_expression,
    config_hash_of,
    expression_field,
    load_config,
    parse_config,
)
from nonlinritz.errors import ConfigError
from nonlinritz.optimizer import ConstantGamma, LipschitzAdaptive
from nonlinritz.updates import DiagonalGeometry, Frozen, FullSolveCG, SteepestDescent
from nonlinritz.variational import DiffusionReaction1D, L2Approx


def _base():
    return {
        "problem": {
            "kind": "l2",
            "target": "gauss(x, 0.3, 0.1)",
            "x_lo": 0.0,
            "x_hi": 1.0,
        },
        "constants": {"alpha": 1.0, "norm_a": 1.0, "norm_ell": 1.0},
        "family": {"kind": "gaussian_bumps", "widths": [0.1, 0.12]},
        "domain": {"lower": [0.1, 0.1], "upper": [0.9, 0.9]},
        "schedule": {"kind": "lipschitz", "zeta": 0.9, "lipschitz": 5.0},
        "stopping": {"max_epochs": 5},
        "init": {"xi0": [0.45, 0.55]},
    }


# ---------------------------------------------------------------------------
# the expression grammar
# ---------------------------------------------------------------------------


def test_expression_functions_evaluate():
    x = np.array([0.0, 0.5, 1.0])
    f = compile_expression("gauss(x, 0.5, 0.1)")
    assert_allclose(f(x), np.exp(-0.5 * ((x - 0.5) / 0.1) ** 2))
    assert_allclose(compile_expression("sin(pi*x)")(x), [0.0, 1.0, 0.0], atol=1e-15)
    assert_allclose(compile_expression("step(x - 0.5)")(x), [0.0, 1.0, 1.0])
    assert_allclose(compile_expression("2 + 3*x**2 - x/4")(x),
                    2 + 3 * x ** 2 - x / 4)
    assert_allclose(compile_expression("exp(-abs(x))")(x), np.exp(-np.abs(x)))
    assert_allclose(compile_expression("sqrt(x + 1)")(x), np.sqrt(x + 1))
    assert_allclose(compile_expression("-x")(x), -x)


def test_expression_constants_broadcast():
    x = np.linspace(0, 1, 7)
    assert_allclose(compile_expression(2.5)(x), np.full(7, 2.5))
    assert_allclose(compile_expression("pi")(x), np.full(7, math.pi))
    assert compile_expression(3)(np.zeros(())).shape == ()


_ALLOWED = "['abs', 'cos', 'exp', 'gauss', 'sin', 'sqrt', 'step']"


_UNSAFE = [
    ("__import__('os')", f"unknown function '__import__'; allowed: {_ALLOWED}"),
    ("x.__class__", "construct Attribute not in the grammar"),
    ("y + 1", "unknown name 'y'; allowed: x, pi"),
    ("foo(x)", f"unknown function 'foo'; allowed: {_ALLOWED}"),
    ("np.exp(x)", f"unknown function '?'; allowed: {_ALLOWED}"),
    ("x < 1", "construct Compare not in the grammar"),
    ("lambda x: x", "construct Lambda not in the grammar"),
    ("x[0]", "construct Subscript not in the grammar"),
    ("'hello'", "only numeric constants allowed"),
    ("gauss(x, c=1, s=1)", "keyword arguments not allowed"),
    ("sin(x, 1)", "sin takes 1 argument(s)"),
    ("gauss(x)", "gauss takes 3 argument(s)"),
    ("x % 2", "construct BinOp not in the grammar"),
    ("not x", "construct UnaryOp not in the grammar"),
    ("x ; x", "syntax error at column 3"),
]


@pytest.mark.parametrize("bad, message", _UNSAFE, ids=[bad for bad, _ in _UNSAFE])
def test_expression_rejects_unsafe_or_unknown(bad, message):
    with pytest.raises(ConfigError, match=re.escape(f"expression {bad!r}: {message}") + "$"):
        compile_expression(bad)


# The compiler as it was before expressions were built in one walk: the
# grammar checked by one recursion, the tree then run by ``eval``.  Kept as
# the reference for values and error messages.
_REFERENCE_FUNCS = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "gauss": lambda x, c, s: np.exp(-0.5 * ((x - c) / s) ** 2),
    "step": lambda t: np.where(np.asarray(t) >= 0.0, 1.0, 0.0),
}
_REFERENCE_ARITY = {"exp": 1, "sin": 1, "cos": 1, "sqrt": 1, "abs": 1, "gauss": 3, "step": 1}


def _reference_validate(node, src):
    if isinstance(node, ast.Expression):
        _reference_validate(node.body, src)
    elif isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)):
        _reference_validate(node.left, src)
        _reference_validate(node.right, src)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        _reference_validate(node.operand, src)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _REFERENCE_FUNCS:
            raise ConfigError(
                f"expression {src!r}: unknown function "
                f"{getattr(node.func, 'id', '?')!r}; allowed: {sorted(_REFERENCE_FUNCS)}"
            )
        if node.keywords:
            raise ConfigError(f"expression {src!r}: keyword arguments not allowed")
        if len(node.args) != _REFERENCE_ARITY[node.func.id]:
            raise ConfigError(
                f"expression {src!r}: {node.func.id} takes "
                f"{_REFERENCE_ARITY[node.func.id]} argument(s)"
            )
        for a in node.args:
            _reference_validate(a, src)
    elif isinstance(node, ast.Name):
        if node.id not in {"x", "pi"}:
            raise ConfigError(
                f"expression {src!r}: unknown name {node.id!r}; allowed: x, pi"
            )
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ConfigError(f"expression {src!r}: only numeric constants allowed")
    else:
        raise ConfigError(
            f"expression {src!r}: construct {type(node).__name__} not in the grammar"
        )


def reference_compile_expression(src):
    if isinstance(src, (int, float)) and not isinstance(src, bool):
        c = float(src)
        return lambda x: np.full(np.shape(x), c)
    if not isinstance(src, str):
        raise ConfigError(f"expected an expression string or number, got {src!r}")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as e:
        raise ConfigError(f"expression {src!r}: syntax error at column {e.offset}") from e
    _reference_validate(tree, src)
    code = compile(tree, "<config-expression>", "eval")
    env = dict(_REFERENCE_FUNCS)
    env["pi"] = math.pi

    def fn(x):
        x = np.asarray(x, dtype=float)
        scope = dict(env)
        scope["x"] = x
        out = eval(code, {"__builtins__": {}}, scope)  # noqa: S307 - whitelisted AST
        arr = np.asarray(out, dtype=float)
        if arr.shape != x.shape:
            arr = np.broadcast_to(arr, x.shape)
        return arr

    return fn


_POINTS = (
    np.linspace(-1.5, 1.5, 161),
    np.array([0.0, -0.0, 1e-300, -1e-300, 0.3, 0.6, 1e300, np.inf, -np.inf, np.nan]),
    np.linspace(0.0, 1.0, 12).reshape(3, 4),
    np.array(0.25),
)


def _outcome(compile_fn, src, x):
    """The bytes, shape and dtype of ``compile_fn(src)(x)``, or the error raised."""
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = compile_fn(src)(x)
    except Exception as e:  # noqa: BLE001 - the reference's error is the expectation
        return type(e), str(e)
    return out.dtype, out.shape, out.tobytes(), out.flags.writeable


def _assert_same_as_reference(src):
    for x in _POINTS:
        assert _outcome(compile_expression, src, x) == _outcome(
            reference_compile_expression, src, x), (src, x)


# the expressions of the bench jobs (seeds 1 and 7) and the demo configs
@pytest.mark.parametrize("src", [
    "0.8*gauss(x, 0.3, 0.1) + 0.5*gauss(x, 0.7, 0.12)",
    "0.807244854705913*gauss(x, 0.31661758908479676, 0.1) + "
    "0.4871730886000263*gauss(x, 0.6657546462961197, 0.1)",
    "0.8126611817108774*gauss(x, 0.31297979348695815, 0.1) + "
    "0.49265207077218265*gauss(x, 0.6941752964670392, 0.1)",
    "1 + 0.2488264749575839*sin(2*pi*x)",
    "1 + 0.249085910610281*sin(2*pi*x)",
    "1 + 0.2495595819120829*sin(2*pi*x)",
    "1 + 0.24974170118662695*sin(2*pi*x)",
    "1 + 8*gauss(x, 0.4988664567015444, 0.08)",
    "1 + 8*gauss(x, 0.5001035311819837, 0.08)",
    "1 + 8*gauss(x, 0.5003773361825996, 0.08)",
    "1 + 8*gauss(x, 0.5006594365474415, 0.08)",
    1.2440680732624183, 1.2456356146740564, 1.2543429217117155, 1.2559531888199116,
    "abs(x - 0.3285663276522542) + 0.5*x*x",
    "abs(x - 0.33111779558851817) + 0.5*x*x",
    "abs(x-0.3) + 0.3*step(x-0.6)",
    "sin(12*x)*exp(-x) + 0.5*gauss(x, 0.5, 0.02)",
    "sin(6.404934703469224*x + 0.31042301210811696) + "
    "0.45712191471236857*gauss(x, 0.4951013805147884, 0.02999178315676549)",
    "sin(6.454196518856622*x + 0.28952547521773503) + "
    "0.45407523077207607*gauss(x, 0.49144872573335086, 0.03006458760775204)",
    0.0,
])
def test_expressions_of_bench_and_demo_configs_match_the_reference(src):
    _assert_same_as_reference(src)


_GOOD_LEAVES = (st.sampled_from(["x", "pi", "0", "1", "2", "3", "True"])
                | st.floats(0.0, 50.0).map(repr))
_BAD_LEAVES = st.sampled_from(["y", "'s'", "None", "1j", "x.real", "x[0]", "x % 2", "x < 1",
                               "foo(x)", "np.exp(x)", "sin(x, x)", "gauss(x)", "exp(t=x)",
                               "x if x else 1", "not x", "[x]"])


def _grammar(leaves):
    def extend(sub):
        # a power's exponent is a leaf, so integer towers stay small
        return (st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})")
                | st.tuples(sub, leaves).map(lambda t: f"({t[0]}) ** {t[1]}")
                | st.tuples(st.sampled_from("-+"), sub).map("".join)
                | st.tuples(st.sampled_from(["exp", "sin", "cos", "sqrt", "abs", "step"]), sub)
                .map(lambda t: f"{t[0]}({t[1]})")
                | st.tuples(sub, sub, sub).map(lambda t: "gauss({}, {}, {})".format(*t)))

    return st.recursive(leaves, extend, max_leaves=14)


@settings(max_examples=400, deadline=None)
@given(_grammar(_GOOD_LEAVES))
def test_grammar_expressions_match_the_reference_bitwise(src):
    _assert_same_as_reference(src)


@settings(max_examples=200, deadline=None)
@given(_grammar(_GOOD_LEAVES | _BAD_LEAVES))
def test_grammar_errors_keep_the_reference_text(src):
    _assert_same_as_reference(src)


@pytest.mark.parametrize("bad, where", [
    ("x + ", "the end of the input"),
    ("x +", "the end of the input"),
    ("", "the end of the input"),
    ("x\n+", "line 2, column 1"),
    ("x ; x", "column 3"),
])
def test_expression_syntax_error_reports_column(bad, where):
    with pytest.raises(ConfigError, match=re.escape(f"expression {bad!r}: syntax error at {where}") + "$"):
        compile_expression(bad)
    with pytest.raises(ConfigError):
        compile_expression([1, 2])


def test_expression_field_carries_breakpoints():
    f = expression_field("step(x - 0.25)", breakpoints=(0.25,))
    assert f.breakpoints == (0.25,)
    assert_allclose(f.values(np.array([0.0, 0.5])), [0.0, 1.0])


# ---------------------------------------------------------------------------
# parsing and defaults
# ---------------------------------------------------------------------------


def test_parse_base_config_builds_components():
    cfg = parse_config(_base())
    assert isinstance(cfg.problem, L2Approx)
    assert isinstance(cfg.family, GaussianBumps)
    assert isinstance(cfg.linear_rule, FullSolveCG)
    assert isinstance(cfg.schedule, LipschitzAdaptive)
    assert cfg.schedule.zeta == 0.9 and cfg.schedule.lipschitz == 5.0
    assert cfg.stopping.max_epochs == 5
    assert_allclose(cfg.xi0, [0.45, 0.55])
    assert cfg.w0 is None
    assert cfg.seed == 0
    assert cfg.gradient_mode == "auto"
    assert cfg.oracle_spec is None
    assert cfg.out_dir is None


def test_parse_normalises_defaults_into_raw():
    cfg = parse_config(_base())
    raw = cfg.raw
    assert raw["quadrature"] == {"n_panels": 16, "order": 5}
    assert raw["linear_rule"] == {"kind": "full_cg"}
    assert raw["schedule"]["n_pairs"] == 20
    assert raw["schedule"]["seed"] == 0
    assert raw["gradient"] == {"mode": "auto", "fd_step": 1e-6}
    assert raw["stopping"]["eps_xi"] == 0.0
    # spelling the same defaults explicitly gives the identical hash
    data = _base()
    data["quadrature"] = {"n_panels": 16, "order": 5}
    data["gradient"] = {"mode": "auto", "fd_step": 1e-6}
    data["seed"] = 0
    # ... also with integers where numbers are expected
    data["schedule"]["nu"] = 1
    data["schedule"]["eps_holder"] = 0
    data["domain"]["gap"] = 0
    assert parse_config(data).config_hash == cfg.config_hash


def test_parse_other_problem_and_families():
    data = _base()
    data["problem"] = {
        "kind": "diffusion_reaction",
        "diffusivity": "1 + x",
        "reaction": 2.0,
        "source": "sin(pi*x)",
        "x_lo": 0.0,
        "x_hi": 1.0,
        "bc_lo": 0.0,
        "bc_hi": 1.0,
    }
    data["family"] = {"kind": "free_knot_hats", "dirichlet": True}
    data["domain"] = {"lower": [0.2, 0.2], "upper": [0.8, 0.8],
                      "chains": [[0, 1]], "gap": 0.05}
    cfg = parse_config(data)
    assert isinstance(cfg.problem, DiffusionReaction1D)
    assert isinstance(cfg.family, FreeKnotHats) and cfg.family.dirichlet
    assert cfg.family.domain.chains == ((0, 1),)
    assert cfg.family.domain.gap == 0.05

    data = _base()
    data["family"] = {"kind": "indicator_pair"}
    data["domain"] = {"lower": [0, 0, 0], "upper": [1, 1, 1],
                      "chains": [[0, 1, 2]], "gap": 0.05}
    data["init"] = {"xi0": [0.2, 0.5, 0.8]}
    assert isinstance(parse_config(data).family, IndicatorPair)

    data = _base()
    data["family"] = {"kind": "synthetic_amplitude", "profile": "sphere_quartic",
                      "radius": 1.0, "scale": 0.7}
    data["domain"] = {"lower": [-1.2, -1.2], "upper": [1.2, 1.2]}
    data["init"] = {"xi0": [0.9, 0.3], "w0": [1.0]}
    data["linear_rule"] = {"kind": "frozen"}
    cfg = parse_config(data)
    assert isinstance(cfg.family, SyntheticAmplitude)
    assert isinstance(cfg.linear_rule, Frozen)
    assert_allclose(cfg.w0, [1.0])


def test_parse_geometry_schedule_variants():
    data = _base()
    data["geometry"] = {"kind": "diagonal", "diag": [1.0, 4.0]}
    data["schedule"] = {"kind": "constant", "gamma": 0.05}
    data["linear_rule"] = {"kind": "steepest_descent"}
    cfg = parse_config(data)
    assert isinstance(cfg.geometry, DiagonalGeometry)
    assert isinstance(cfg.schedule, ConstantGamma) and cfg.schedule.gamma == 0.05
    assert isinstance(cfg.linear_rule, SteepestDescent)


def test_schedule_seed_defaults_to_config_seed():
    data = _base()
    data["seed"] = 7
    cfg = parse_config(data)
    assert cfg.schedule.seed == 7
    data["schedule"]["seed"] = 3
    assert parse_config(data).schedule.seed == 3


def test_parse_oracle_variants():
    data = _base()
    data["oracle"] = {"kind": "grid", "resolution": 0.05}
    assert parse_config(data).oracle_spec["kind"] == "grid"
    data["oracle"] = {"kind": "sphere", "center": [0, 0], "radius": 1.0,
                      "K_star": 0.0}
    assert parse_config(data).oracle_spec["radius"] == 1.0
    data["oracle"] = {"kind": "points", "points": [[0.3, 0.7]], "K_star": -0.1}
    assert parse_config(data).oracle_spec["K_star"] == -0.1
    data["oracle"] = {"kind": "points", "points": [], "K_star": 0.0}
    with pytest.raises(ConfigError, match="oracle.points"):
        parse_config(data)


def test_errors_carry_dotted_paths():
    data = _base()
    data["problem"]["bogus"] = 1
    with pytest.raises(ConfigError, match="problem: unknown keys"):
        parse_config(data)

    data = _base()
    del data["stopping"]
    with pytest.raises(ConfigError, match="missing required keys"):
        parse_config(data)

    data = _base()
    data["constants"]["alpha"] = "one"
    with pytest.raises(ConfigError, match=r"constants\.alpha"):
        parse_config(data)

    data = _base()
    data["stopping"]["max_epochs"] = 2.5
    with pytest.raises(ConfigError, match=r"stopping\.max_epochs"):
        parse_config(data)

    data = _base()
    data["init"]["xi0"] = "middle"
    with pytest.raises(ConfigError, match=r"init\.xi0"):
        parse_config(data)

    data = _base()
    data["out_dir"] = 7
    with pytest.raises(ConfigError, match="out_dir"):
        parse_config(data)

    data = _base()
    data["problem"]["x_hi"] = -1.0
    with pytest.raises(ConfigError, match="x_hi"):
        parse_config(data)

    data = _base()
    data["domain"]["chains"] = "all"
    with pytest.raises(ConfigError, match="chains"):
        parse_config(data)


@pytest.mark.parametrize("section, value, message", [
    ("certify", {"L_bar": "x"}, r"certify\.L_bar: expected a number"),
    ("certify", {"best_in_V": None}, r"certify\.best_in_V: expected a number"),
    ("oracle", {"kind": "points", "points": [["a", 1]], "K_star": 0.0},
     r"oracle\.points\[0\]: expected an array of numbers"),
    ("oracle", {"kind": "points", "points": [[0.3, 0.7], [0.5]], "K_star": 0.0},
     r"oracle\.points: points of different lengths"),
    ("oracle", {"kind": "points", "points": [[0.3, 0.7]], "K_star": "low"},
     r"oracle\.K_star: expected a number"),
    ("oracle", {"kind": "sphere", "center": [0, "0"], "radius": 1.0, "K_star": 0.0},
     r"oracle\.center: expected an array of numbers"),
    ("oracle", {"kind": "sphere", "center": [0, 0], "radius": True, "K_star": 0.0},
     r"oracle\.radius: expected a number"),
    ("oracle", {"kind": "grid", "resolution": [0.05]}, r"oracle\.resolution: expected a number"),
    ("oracle", {"resolution": 0.05}, r"oracle: missing required keys \['kind'\]"),
    ("oracle", {"kind": "cube"}, r"oracle\.kind: 'cube' not one of"),
    ("oracle", {"kind": "grid"}, r"oracle: missing required keys \['resolution'\]"),
    ("geometry", {"kind": "euclidean", "diag": [1.0, 1.0]}, r"geometry: unknown keys \['diag'\]"),
    ("quadrature", [16, 5], r"quadrature: expected an object, got list"),
    ("domain", {"lower": [0.1, 0.1], "upper": [0.9, 0.9], "chains": [[0, 1]],
                "gap": float("nan")}, r"domain\.gap: expected a number, got nan"),
    ("domain", {"lower": [0.1, -float("inf")], "upper": [0.9, 0.9]},
     r"domain\.lower: expected an array of numbers, got \[0\.1, -inf\]"),
    ("certify", {"L_bar": float("inf")}, r"certify\.L_bar: expected a number, got inf"),
    ("oracle", {"kind": "points", "points": [[0.3]], "K_star": 0.0},
     r"oracle\.points: expected 2 coordinates, the domain's, got 1"),
    ("oracle", {"kind": "sphere", "center": [0.0, 0.0, 0.0], "radius": 1.0, "K_star": 0.0},
     r"oracle\.center: expected 2 coordinates, the domain's, got 3"),
    ("geometry", {"kind": "diagonal", "diag": [1.0, 2.0, 3.0]},
     r"geometry\.diag: expected 2 coordinates, the domain's, got 3"),
    ("linear_rule", {"kind": "frozen"},
     r"init\.w0: the frozen linear rule needs initial coefficients"),
    ("constants", {"alpha": 1.0, "norm_a": 1.0, "norm_ell": 1.0, "omega_min": -1},
     r"constants\.omega_min: expected a positive number, got -1"),
    ("gradient", {"fd_step": 0.0}, r"gradient\.fd_step: expected a positive number, got 0\.0"),
    # values that parsed and were refused only by run
    ("schedule", {"kind": "lipschitz", "zeta": 0.9, "n_pairs": 0},
     r"schedule: n_pairs must be at least 1, got 0"),
    ("schedule", {"kind": "lipschitz", "zeta": 0.9, "nu": 0.5},
     r"schedule: eps_holder must be positive when nu < 1, got 0\.0"),
    ("oracle", {"kind": "grid", "resolution": -0.05},
     r"oracle\.resolution: expected a positive number, got -0\.05"),
    ("oracle", {"kind": "sphere", "center": [0.5, 0.5], "radius": 0, "K_star": 0.0},
     r"oracle\.radius: expected a positive number, got 0"),
    (None, {"family": {"kind": "gaussian_bumps", "widths": [0.1, 0.1, 0.1]},
            "domain": {"lower": [0.1] * 3, "upper": [0.9] * 3},
            "init": {"xi0": [0.3, 0.5, 0.7]},
            "geometry": {"kind": "diagonal", "diag": [1.0, 2.0, 3.0]},
            "oracle": {"kind": "sphere", "center": [0.5] * 3, "radius": 0.2, "K_star": 0.0}},
     r"oracle: sphere oracle projections are implemented for a scalar mirror-map diagonal"),
    (None, {"family": {"kind": "indicator_pair"},
            "domain": {"lower": [0.0] * 3, "upper": [1.0] * 3, "chains": [[0, 1, 2]]},
            "init": {"xi0": [0.1, 0.55, 0.9]}, "gradient": {"mode": "analytic"}},
     r"gradient\.mode: analytic parameter gradients are implemented under the L2 energy only"),
    # certify values that passed check and were refused by run's summary, or
    # made a bound divide by zero
    ("certify", {"nu": 2}, r"certify\.nu: nu must lie in \(0, 1\], got 2\.0"),
    ("certify", {"nu": 0.0}, r"certify\.nu: nu must lie in \(0, 1\], got 0\.0"),
    ("certify", {"L": -1}, r"certify\.L: expected a nonnegative number, got -1"),
    ("certify", {"eps_target": -1e-3},
     r"certify\.eps_target: expected a nonnegative number, got -0\.001"),
    ("certify", {"zeta": 0}, r"certify\.zeta: expected a positive number, got 0"),
])
def test_malformed_values_name_their_path(section, value, message):
    data = _base()
    if section is None:  # several sections at once
        data.update(value)
    else:
        data[section] = value
    with pytest.raises(ConfigError, match=message):
        parse_config(data)


def test_absent_optional_keys_stay_out_of_the_normal_form():
    raw = parse_config(_base()).raw
    assert raw["oracle"] is None and raw["out_dir"] is None
    assert raw["certify"] == {}
    assert raw["init"] == {"xi0": [0.45, 0.55]}
    assert set(raw["constants"]) == {"alpha", "norm_a", "norm_ell"}
    data = _base()
    data["schedule"] = {"kind": "constant", "gamma": 0.1}
    assert parse_config(data).raw["schedule"] == {"kind": "constant", "gamma": 0.1}


def test_constants_take_no_K_star():
    # the local-rate bound is certify.K_star_lower, else the oracle's K*;
    # constants take no K_star
    data = _base()
    data["constants"]["K_star"] = 0.0
    with pytest.raises(ConfigError, match=r"constants: unknown keys \['K_star'\]"):
        parse_config(data)


def test_certify_block_is_validated():
    data = _base()
    data["certify"] = {"L_bar": 16.0, "zeta": 1.0}
    assert parse_config(data).certify_spec == {"L_bar": 16.0, "zeta": 1.0}
    data["certify"] = {"unknown_bound": 1.0}
    with pytest.raises(ConfigError, match="certify"):
        parse_config(data)


# ---------------------------------------------------------------------------
# hashing
# ---------------------------------------------------------------------------


def test_canonical_json_is_order_independent():
    a = {"b": 1, "a": {"y": 2, "x": 3}}
    b = {"a": {"x": 3, "y": 2}, "b": 1}
    assert canonical_json(a) == canonical_json(b)
    assert config_hash_of(a) == config_hash_of(b)


def test_config_hash_sensitivity():
    base_hash = parse_config(_base()).config_hash
    assert parse_config(_base()).config_hash == base_hash  # deterministic

    data = _base()
    data["stopping"]["max_epochs"] = 6
    assert parse_config(data).config_hash != base_hash

    data = _base()
    data["seed"] = 1
    assert parse_config(data).config_hash != base_hash


DEMO_CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "configs")


@pytest.mark.parametrize("name, digest", [
    ("gaussian_fit.json", "563bc6007d3d8cbd9e7a32ac2f653a45dc1eff73e5af69de7cb137950b03bcf8"),
    ("circle_frozen.json", "2b0ee279b2cae3e7c84a86ab74f497da3f911a156c078e2a35ceabc4d2d852b5"),
    ("circle_grid_survey.json",
     "07c2724d1b9584bd32023ee8647769dbd2231bad24a5d446c765edc94145369a"),
])
def test_demo_config_hashes_are_pinned(name, digest):
    # artifacts written by earlier versions carry these hashes; certify
    # refuses them if the normal form of the same file changes
    assert load_config(os.path.join(DEMO_CONFIGS, name)).config_hash == digest


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------


def test_load_config_round_trip(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_base()))
    cfg = load_config(str(p))
    assert cfg.config_hash == parse_config(_base()).config_hash


def test_load_config_overrides_merge_into_sections(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_base()))
    cfg = load_config(str(p), {"seed": 5, "stopping": {"max_epochs": 3}})
    expect = _base()
    expect["seed"] = 5
    expect["stopping"]["max_epochs"] = 3
    assert cfg.seed == 5 and cfg.stopping.max_epochs == 3
    assert cfg.config_hash == parse_config(expect).config_hash
    assert load_config(str(p), {}).config_hash == parse_config(_base()).config_hash


def test_load_config_reports_json_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "problem": {,}\n}\n')
    with pytest.raises(ConfigError, match="line"):
        load_config(str(p))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
