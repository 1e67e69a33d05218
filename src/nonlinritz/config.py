"""Declarative experiment configuration.

A config is a JSON object; :func:`parse_config` validates it (unknown keys
are rejected with dotted-path messages), fills documented defaults and
builds the problem, family, geometry, rules and schedules.  Coefficient
functions are written in a tiny expression grammar over the variable ``x``:

    numbers, x, pi, + - * / ** and unary minus,
    exp(t), sin(t), cos(t), sqrt(t), abs(t),
    gauss(x, c, s) = exp(-0.5 ((x-c)/s)^2),
    step(t) = 1 where t >= 0 else 0  (declare kinks via "breakpoints").

The canonical form of a config (defaults filled, keys sorted) is hashed
with SHA-256; the hash binds run artifacts to certificate reports.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import (
    FreeKnotHats,
    GaussianBumps,
    IndicatorPair,
    NonlinearDomain,
    SyntheticAmplitude,
)
from .errors import ConfigError
from .optimizer import ConstantGamma, LipschitzAdaptive, StoppingCriteria
from .updates import (
    DiagonalGeometry,
    EuclideanGeometry,
    Frozen,
    FullSolveCG,
    SteepestDescent,
)
from .variational import (
    DiffusionReaction1D,
    Field,
    L2Approx,
    ProblemConstants,
    QuadratureRule,
)

__all__ = [
    "compile_expression",
    "expression_field",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "canonical_json",
    "config_hash_of",
]


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

_FUNCS = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "gauss": lambda x, c, s: np.exp(-0.5 * ((x - c) / s) ** 2),
    "step": lambda t: np.where(np.asarray(t) >= 0.0, 1.0, 0.0),
}
_FUNC_ARITY = {"exp": 1, "sin": 1, "cos": 1, "sqrt": 1, "abs": 1, "gauss": 3, "step": 1}
_NAMES = {"x", "pi"}
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARYOPS = (ast.UAdd, ast.USub)


def _validate_expr(node, src):
    if isinstance(node, ast.Expression):
        _validate_expr(node.body, src)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
        _validate_expr(node.left, src)
        _validate_expr(node.right, src)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARYOPS):
        _validate_expr(node.operand, src)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
            raise ConfigError(
                f"expression {src!r}: unknown function "
                f"{getattr(node.func, 'id', '?')!r}; allowed: {sorted(_FUNCS)}"
            )
        if node.keywords:
            raise ConfigError(f"expression {src!r}: keyword arguments not allowed")
        if len(node.args) != _FUNC_ARITY[node.func.id]:
            raise ConfigError(
                f"expression {src!r}: {node.func.id} takes "
                f"{_FUNC_ARITY[node.func.id]} argument(s)"
            )
        for a in node.args:
            _validate_expr(a, src)
    elif isinstance(node, ast.Name):
        if node.id not in _NAMES:
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


def compile_expression(src):
    """Compile a grammar expression to a vectorised function of ``x``."""
    if isinstance(src, (int, float)) and not isinstance(src, bool):
        c = float(src)
        return lambda x: np.full(np.shape(x), c)
    if not isinstance(src, str):
        raise ConfigError(f"expected an expression string or number, got {src!r}")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as e:
        raise ConfigError(f"expression {src!r}: syntax error at column {e.offset}") from e
    _validate_expr(tree, src)
    code = compile(tree, "<config-expression>", "eval")
    env = dict(_FUNCS)
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


def expression_field(src, breakpoints=()) -> Field:
    """Field (values only) from a grammar expression."""
    return Field(compile_expression(src), None, tuple(float(b) for b in breakpoints))


# ---------------------------------------------------------------------------
# schema helpers
# ---------------------------------------------------------------------------


def _check_keys(d, path, required, optional):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object, got {type(d).__name__}")
    unknown = sorted(set(d) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    missing = sorted(set(required) - set(d))
    if missing:
        raise ConfigError(f"{path}: missing required keys {missing}")


def _num(d, path, key, default=None):
    if key not in d:
        if default is None:
            raise ConfigError(f"{path}.{key}: missing number")
        return float(default)
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {v!r}")
    return float(v)


def _int(d, path, key, default=None):
    if key not in d:
        if default is None:
            raise ConfigError(f"{path}.{key}: missing integer")
        return int(default)
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {v!r}")
    return int(v)


def _bool(d, path, key, default):
    v = d.get(key, default)
    if not isinstance(v, bool):
        raise ConfigError(f"{path}.{key}: expected true/false, got {v!r}")
    return v


def _str(d, path, key, options=None, default=None):
    if key not in d:
        if default is None:
            raise ConfigError(f"{path}.{key}: missing string")
        return default
    v = d[key]
    if not isinstance(v, str):
        raise ConfigError(f"{path}.{key}: expected a string, got {v!r}")
    if options is not None and v not in options:
        raise ConfigError(f"{path}.{key}: {v!r} not one of {sorted(options)}")
    return v


def _vector(d, path, key, default=None):
    if key not in d:
        if default is None:
            raise ConfigError(f"{path}.{key}: missing array")
        return default
    v = d[key]
    if not isinstance(v, list) or not all(
        isinstance(t, (int, float)) and not isinstance(t, bool) for t in v
    ):
        raise ConfigError(f"{path}.{key}: expected an array of numbers")
    return [float(t) for t in v]


# ---------------------------------------------------------------------------
# the parsed configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    raw: dict  # normalised (defaults filled) JSON-compatible dict
    problem: object
    constants: ProblemConstants
    rule: QuadratureRule
    family: object
    geometry: object
    linear_rule: object
    schedule: object
    stopping: StoppingCriteria
    xi0: np.ndarray
    w0: Optional[np.ndarray]
    gradient_mode: str
    fd_step: float
    omega_min: Optional[float]
    rho: Optional[float]
    K_star: Optional[float]
    seed: int
    oracle_spec: Optional[dict]
    certify_spec: dict
    out_dir: Optional[str]

    @property
    def config_hash(self) -> str:
        return config_hash_of(self.raw)


def canonical_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_hash_of(data: dict) -> str:
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def _parse_problem(spec):
    path = "problem"
    kind = _str(spec if isinstance(spec, dict) else {}, path, "kind",
                {"l2", "diffusion_reaction"})
    breaks = _vector(spec, path, "breakpoints", default=[])
    x_lo = _num(spec, path, "x_lo")
    x_hi = _num(spec, path, "x_hi")
    if not x_hi > x_lo:
        raise ConfigError(f"{path}: x_hi must exceed x_lo")
    if kind == "l2":
        _check_keys(spec, path, {"kind", "target", "x_lo", "x_hi"}, {"breakpoints"})
        problem = L2Approx(expression_field(spec["target"], breaks))
    else:
        _check_keys(
            spec,
            path,
            {"kind", "diffusivity", "reaction", "source", "x_lo", "x_hi"},
            {"bc_lo", "bc_hi", "breakpoints"},
        )
        problem = DiffusionReaction1D(
            diffusivity=expression_field(spec["diffusivity"], breaks),
            reaction=expression_field(spec["reaction"], breaks),
            source=expression_field(spec["source"], breaks),
            x_lo=x_lo,
            x_hi=x_hi,
            bc_lo=_num(spec, path, "bc_lo", 0.0),
            bc_hi=_num(spec, path, "bc_hi", 0.0),
        )
    norm = dict(spec)
    norm.setdefault("breakpoints", [])
    if kind == "diffusion_reaction":
        norm.setdefault("bc_lo", 0.0)
        norm.setdefault("bc_hi", 0.0)
    return problem, (x_lo, x_hi), norm


def _parse_domain(spec):
    path = "domain"
    _check_keys(spec, path, {"lower", "upper"}, {"chains", "gap"})
    chains = spec.get("chains", [])
    if not isinstance(chains, list) or not all(
        isinstance(c, list) and all(isinstance(i, int) and not isinstance(i, bool) for i in c)
        for c in chains
    ):
        raise ConfigError(f"{path}.chains: expected an array of integer arrays")
    domain = NonlinearDomain(
        lower=np.array(_vector(spec, path, "lower")),
        upper=np.array(_vector(spec, path, "upper")),
        chains=tuple(tuple(c) for c in chains),
        gap=_num(spec, path, "gap", 0.0),
    )
    norm = dict(spec)
    norm.setdefault("chains", [])
    norm.setdefault("gap", 0.0)
    return domain, norm


def _parse_family(spec, domain, interval):
    path = "family"
    kind = _str(spec if isinstance(spec, dict) else {}, path, "kind",
                {"gaussian_bumps", "free_knot_hats", "indicator_pair",
                 "synthetic_amplitude"})
    norm = dict(spec)
    if kind == "gaussian_bumps":
        _check_keys(spec, path, {"kind", "widths"}, set())
        family = GaussianBumps(domain, np.array(_vector(spec, path, "widths")))
    elif kind == "free_knot_hats":
        _check_keys(spec, path, {"kind"}, {"dirichlet"})
        family = FreeKnotHats(
            domain, interval[0], interval[1], dirichlet=_bool(spec, path, "dirichlet", False)
        )
        norm.setdefault("dirichlet", False)
    elif kind == "indicator_pair":
        _check_keys(spec, path, {"kind"}, set())
        family = IndicatorPair(domain)
    else:
        _check_keys(spec, path, {"kind"}, {"profile", "radius", "scale"})
        family = SyntheticAmplitude(
            domain,
            profile=_str(spec, path, "profile", {"sphere_quartic", "norm"},
                         "sphere_quartic"),
            radius=_num(spec, path, "radius", 1.0),
            scale=_num(spec, path, "scale", 1.0),
        )
        norm.setdefault("profile", "sphere_quartic")
        norm.setdefault("radius", 1.0)
        norm.setdefault("scale", 1.0)
    return family, norm


def _parse_geometry(spec):
    path = "geometry"
    kind = _str(spec, path, "kind", {"euclidean", "diagonal"}, "euclidean")
    norm = dict(spec)
    norm.setdefault("kind", kind)
    if kind == "euclidean":
        _check_keys(spec, path, set(), {"kind"})
        return EuclideanGeometry(), norm
    _check_keys(spec, path, {"kind", "diag"}, set())
    return DiagonalGeometry(np.array(_vector(spec, path, "diag"))), norm


def _parse_linear_rule(spec):
    path = "linear_rule"
    kind = _str(spec, path, "kind", {"full_cg", "steepest_descent", "frozen"}, "full_cg")
    norm = dict(spec)
    norm.setdefault("kind", kind)
    _check_keys(spec, path, set(), {"kind"})
    rules = {"full_cg": FullSolveCG, "steepest_descent": SteepestDescent, "frozen": Frozen}
    return rules[kind](), norm


def _parse_schedule(spec, default_seed):
    path = "schedule"
    kind = _str(spec if isinstance(spec, dict) else {}, path, "kind",
                {"constant", "lipschitz"})
    norm = dict(spec)
    if kind == "constant":
        _check_keys(spec, path, {"kind", "gamma"}, set())
        return ConstantGamma(_num(spec, path, "gamma")), norm
    _check_keys(
        spec, path, {"kind", "zeta"},
        {"lipschitz", "nu", "eps_holder", "n_pairs", "seed"},
    )
    lip = spec.get("lipschitz", "estimate")
    if lip != "estimate":
        lip = _num(spec, path, "lipschitz")
    schedule = LipschitzAdaptive(
        zeta=_num(spec, path, "zeta"),
        lipschitz=lip,
        nu=_num(spec, path, "nu", 1.0),
        eps_holder=_num(spec, path, "eps_holder", 0.0),
        n_pairs=_int(spec, path, "n_pairs", 20),
        seed=_int(spec, path, "seed", default_seed),
    )
    norm.setdefault("lipschitz", "estimate")
    norm.setdefault("nu", 1.0)
    norm.setdefault("eps_holder", 0.0)
    norm.setdefault("n_pairs", 20)
    norm.setdefault("seed", schedule.seed)
    return schedule, norm


def _parse_oracle(spec):
    path = "oracle"
    kind = _str(spec if isinstance(spec, dict) else {}, path, "kind",
                {"points", "sphere", "grid"})
    norm = dict(spec)
    if kind == "points":
        _check_keys(spec, path, {"kind", "points", "K_star"}, set())
        pts = spec["points"]
        if not isinstance(pts, list) or not pts:
            raise ConfigError(f"{path}.points: expected a nonempty array of arrays")
        for p in pts:
            if not isinstance(p, list):
                raise ConfigError(f"{path}.points: expected an array of arrays")
        _num(spec, path, "K_star")
    elif kind == "sphere":
        _check_keys(spec, path, {"kind", "center", "radius", "K_star"}, set())
        _vector(spec, path, "center")
        _num(spec, path, "radius")
        _num(spec, path, "K_star")
    else:
        _check_keys(spec, path, {"kind", "resolution"}, set())
        _num(spec, path, "resolution")
    return norm


_CERTIFY_KEYS = {"L", "nu", "eps_target", "L_bar", "zeta", "K_star_lower", "best_in_V"}


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a config object, fill defaults and build all components."""
    top_required = {"problem", "constants", "family", "domain", "schedule",
                    "stopping", "init"}
    top_optional = {"quadrature", "geometry", "linear_rule", "gradient", "oracle",
                    "certify", "seed", "out_dir"}
    _check_keys(data, "config", top_required, top_optional)
    norm = {}

    seed = _int(data, "config", "seed", 0)
    norm["seed"] = seed

    problem, interval, norm["problem"] = _parse_problem(data["problem"])

    cspec = data["constants"]
    _check_keys(cspec, "constants", {"alpha", "norm_a", "norm_ell"},
                {"omega_min", "rho", "K_star"})
    constants = ProblemConstants(
        alpha=_num(cspec, "constants", "alpha"),
        norm_a=_num(cspec, "constants", "norm_a"),
        norm_ell=_num(cspec, "constants", "norm_ell"),
    )
    omega_min = _num(cspec, "constants", "omega_min") if "omega_min" in cspec else None
    rho = _num(cspec, "constants", "rho") if "rho" in cspec else None
    K_star = _num(cspec, "constants", "K_star") if "K_star" in cspec else None
    norm["constants"] = dict(cspec)

    qspec = data.get("quadrature", {})
    _check_keys(qspec, "quadrature", set(), {"n_panels", "order"})
    n_panels = _int(qspec, "quadrature", "n_panels", 16)
    order = _int(qspec, "quadrature", "order", 5)
    rule = QuadratureRule.on_interval(interval[0], interval[1], n_panels, order)
    norm["quadrature"] = {"n_panels": n_panels, "order": order}

    domain, norm["domain"] = _parse_domain(data["domain"])
    family, norm["family"] = _parse_family(data["family"], domain, interval)
    geometry, norm["geometry"] = _parse_geometry(data.get("geometry", {}))
    linear_rule, norm["linear_rule"] = _parse_linear_rule(data.get("linear_rule", {}))
    schedule, norm["schedule"] = _parse_schedule(data["schedule"], seed)

    sspec = data["stopping"]
    _check_keys(sspec, "stopping", {"max_epochs"},
                {"eps_xi", "eps_energy", "relative_energy"})
    stopping = StoppingCriteria(
        max_epochs=_int(sspec, "stopping", "max_epochs"),
        eps_xi=_num(sspec, "stopping", "eps_xi", 0.0),
        eps_energy=_num(sspec, "stopping", "eps_energy", 0.0),
        relative_energy=_bool(sspec, "stopping", "relative_energy", False),
    )
    norm["stopping"] = {
        "max_epochs": stopping.max_epochs,
        "eps_xi": stopping.eps_xi,
        "eps_energy": stopping.eps_energy,
        "relative_energy": stopping.relative_energy,
    }

    ispec = data["init"]
    _check_keys(ispec, "init", {"xi0"}, {"w0"})
    xi0 = np.array(_vector(ispec, "init", "xi0"))
    w0 = np.array(_vector(ispec, "init", "w0")) if "w0" in ispec else None
    norm["init"] = dict(ispec)

    gspec = data.get("gradient", {})
    _check_keys(gspec, "gradient", set(), {"mode", "fd_step"})
    gradient_mode = _str(
        gspec, "gradient", "mode", {"auto", "analytic", "closed_form", "fd"}, "auto"
    )
    fd_step = _num(gspec, "gradient", "fd_step", 1e-6)
    norm["gradient"] = {"mode": gradient_mode, "fd_step": fd_step}

    oracle_spec = None
    if "oracle" in data:
        oracle_spec = _parse_oracle(data["oracle"])
    norm["oracle"] = oracle_spec

    certify_spec = data.get("certify", {})
    _check_keys(certify_spec, "certify", set(), _CERTIFY_KEYS)
    norm["certify"] = dict(certify_spec)

    out_dir = data.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("config.out_dir: expected a string")
    norm["out_dir"] = out_dir

    return ExperimentConfig(
        raw=norm,
        problem=problem,
        constants=constants,
        rule=rule,
        family=family,
        geometry=geometry,
        linear_rule=linear_rule,
        schedule=schedule,
        stopping=stopping,
        xi0=xi0,
        w0=w0,
        gradient_mode=gradient_mode,
        fd_step=fd_step,
        omega_min=omega_min,
        rho=rho,
        K_star=K_star,
        seed=seed,
        oracle_spec=oracle_spec,
        certify_spec=dict(certify_spec),
        out_dir=out_dir,
    )


def load_config(path: str, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Parse a JSON config file with line-precise error messages.

    ``overrides`` maps top-level keys to values that replace the file's
    before parsing; a dict value is merged into the file's section of that
    name (a missing or non-object section counts as empty).  The CLI's
    ``--seed N`` and ``--max-epochs N`` pass ``{"seed": N}`` and
    ``{"stopping": {"max_epochs": N}}``; the config hash covers the result.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from e
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    for key, value in (overrides or {}).items():
        if isinstance(value, dict):
            section = data.get(key)
            value = {**(section if isinstance(section, dict) else {}), **value}
        data[key] = value
    return parse_config(data)
