import copy
import json
import math
import os

import numpy as np
import pytest
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


@pytest.mark.parametrize("bad", [
    "__import__('os')",
    "x.__class__",
    "y + 1",
    "foo(x)",
    "x < 1",
    "lambda x: x",
    "x[0]",
    "'hello'",
    "gauss(x, c=1, s=1)",
    "x ; x",
])
def test_expression_rejects_unsafe_or_unknown(bad):
    with pytest.raises(ConfigError):
        compile_expression(bad)


def test_expression_syntax_error_reports_column():
    with pytest.raises(ConfigError, match="column"):
        compile_expression("x + ")
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
])
def test_malformed_values_name_their_path(section, value, message):
    data = _base()
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
