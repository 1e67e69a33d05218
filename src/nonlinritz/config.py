"""Declarative experiment configuration.

A config is a JSON object.  Its schema is the table ``_CONFIG`` below, the
one place where each key's reader and default are stated.  :func:`parse_config`
walks the table once: it rejects unknown keys and reports missing ones with
dotted-path messages, reads every value to its parsed type and fills the
defaults, which gives the config's normal form; short builders then make the
problem, family, geometry, rules and schedules from it.  Coefficient
functions are written in a tiny expression grammar over the variable ``x``:

    numbers, x, pi, + - * / ** and unary minus,
    exp(t), sin(t), cos(t), sqrt(t), abs(t),
    gauss(x, c, s) = exp(-0.5 ((x-c)/s)^2),
    step(t) = 1 where t >= 0 else 0  (declare kinks via "breakpoints").

The normal form stores numbers as floats, so a default written out (as
``1`` or ``1.0``) and one left out hash alike.  Its canonical JSON (keys
sorted) is hashed with SHA-256; the hash binds run artifacts to
certificate reports.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import operator
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
from .certify import AnalyticSphereOracle, delta_star
from .errors import ConfigError
from .optimizer import ConstantGamma, LipschitzAdaptive, StoppingCriteria, _hoelder_exponent
from .updates import (
    DiagonalGeometry,
    EuclideanGeometry,
    Frozen,
    FullSolveCG,
    SteepestDescent,
    make_gradients,
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

#: name -> (function, arity 1 or 3): what a call of that name applies
_FUNCS = {
    "exp": (np.exp, 1),
    "sin": (np.sin, 1),
    "cos": (np.cos, 1),
    "sqrt": (np.sqrt, 1),
    "abs": (np.abs, 1),
    "gauss": (lambda x, c, s: np.exp(-0.5 * ((x - c) / s) ** 2), 3),
    "step": (lambda t: np.where(np.asarray(t) >= 0.0, 1.0, 0.0), 1),
}
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_UNARYOPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _build(node, src):
    """Check the grammar node ``node`` and return its value as a function of ``x``.

    Each node's closure applies the ``operator`` or numpy function that Python
    applies to that node, to the same operands, so the values are Python's;
    a call is specialised by its arity.  Nodes are checked depth first, left
    to right, so the first error found is the one reported.
    """
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        op, left, right = _BINOPS[type(node.op)], _build(node.left, src), _build(node.right, src)
        return lambda x: op(left(x), right(x))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARYOPS:
        op, operand = _UNARYOPS[type(node.op)], _build(node.operand, src)
        return lambda x: op(operand(x))
    if isinstance(node, ast.Call):
        name = getattr(node.func, "id", "?")  # only an ast.Name has an id
        if name not in _FUNCS:
            raise ConfigError(
                f"expression {src!r}: unknown function {name!r}; allowed: {sorted(_FUNCS)}"
            )
        if node.keywords:
            raise ConfigError(f"expression {src!r}: keyword arguments not allowed")
        fn, arity = _FUNCS[name]
        if len(node.args) != arity:
            raise ConfigError(f"expression {src!r}: {name} takes {arity} argument(s)")
        args = [_build(a, src) for a in node.args]
        if arity == 1:
            (a,) = args
            return lambda x: fn(a(x))
        a, b, c = args
        return lambda x: fn(a(x), b(x), c(x))
    if isinstance(node, ast.Name):
        if node.id == "x":
            return lambda x: x
        if node.id == "pi":
            return lambda x: math.pi
        raise ConfigError(f"expression {src!r}: unknown name {node.id!r}; allowed: x, pi")
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ConfigError(f"expression {src!r}: only numeric constants allowed")
        value = node.value
        return lambda x: value
    raise ConfigError(f"expression {src!r}: construct {type(node).__name__} not in the grammar")


def compile_expression(src):
    """Compile a grammar expression to a vectorised function of ``x``."""
    if isinstance(src, (int, float)) and not isinstance(src, bool):
        c = float(src)
        return lambda x: np.full(np.shape(x), c)
    if not isinstance(src, str):
        raise ConfigError(f"expected an expression string or number, got {src!r}")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as e:  # offset 0: at the end of the input
        where = (f"line {e.lineno}, " if e.lineno > 1 else "") + f"column {e.offset}"
        raise ConfigError(f"expression {src!r}: syntax error at "
                          f"{where if e.offset else 'the end of the input'}") from e
    body = _build(tree.body, src)

    def fn(x):
        x = np.asarray(x, dtype=float)
        arr = np.asarray(body(x), dtype=float)
        if arr.shape != x.shape:
            arr = np.broadcast_to(arr, x.shape)
        return arr

    return fn


def expression_field(src, breakpoints=()) -> Field:
    """Field (values only) from a grammar expression."""
    return Field(compile_expression(src), None, tuple(float(b) for b in breakpoints))


# ---------------------------------------------------------------------------
# the schema: readers, sections and the table
# ---------------------------------------------------------------------------

#: the key must be given
_REQUIRED = object()
#: optional without a default: a key not given stays out of the normal form
_ABSENT = object()


def _is_number(v):
    """An integer or a finite float; JSON ``NaN`` and ``Infinity`` are not."""
    if isinstance(v, float):
        return math.isfinite(v)
    return isinstance(v, int) and not isinstance(v, bool)


def _typed(what, ok, convert=None):
    """Reader that accepts the values ``ok`` admits, converted by ``convert``."""

    def read(v, path):
        if not ok(v):
            raise ConfigError(f"{path}: expected {what}, got {v!r}")
        return v if convert is None else convert(v)

    return read


_number = _typed("a number", _is_number, float)


def _bounded(what, ok):
    """Reader of a number, reported as "a number" when it is none, that
    ``ok`` admits, reported as ``what`` number when it does not."""

    def read(v, path):
        value = _number(v, path)
        if not ok(value):
            raise ConfigError(f"{path}: expected {what} number, got {v!r}")
        return value

    return read


_positive = _bounded("a positive", lambda v: v > 0)
_nonnegative = _bounded("a nonnegative", lambda v: v >= 0)


def _hoelder_nu(v, path):
    return _under(path, _hoelder_exponent, _number(v, path))


_integer = _typed("an integer", lambda v: type(v) is int)
_seed = _typed("a non-negative integer", lambda v: type(v) is int and v >= 0)
_boolean = _typed("true/false", lambda v: isinstance(v, bool))
_string = _typed("a string", lambda v: isinstance(v, str))
_numbers = _typed("an array of numbers",
                  lambda v: isinstance(v, list) and all(map(_is_number, v)),
                  lambda v: [float(t) for t in v])


def _one_of(*options):
    def read(v, path):
        if _string(v, path) not in options:
            raise ConfigError(f"{path}: {v!r} not one of {sorted(options)}")
        return v

    return read


def _or_null(read):
    return lambda v, path: None if v is None else read(v, path)


def _points(v, path):
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{path}: expected a nonempty array of arrays, got {v!r}")
    points = [_numbers(p, f"{path}[{i}]") for i, p in enumerate(v)]
    if len({len(p) for p in points}) > 1:
        raise ConfigError(f"{path}: points of different lengths")
    return points


_chains = _typed("an array of integer arrays",
                 lambda v: isinstance(v, list) and all(
                     isinstance(c, list) and all(type(i) is int for i in c) for c in v),
                 lambda v: [list(c) for c in v])


def _expression(v, path):
    """A grammar expression (compiled by the builders) or a constant."""
    return float(v) if _is_number(v) else _string(v, path)


def _lipschitz(v, path):
    return v if v == "estimate" else _number(v, path)


def _object(spec, path):
    if not isinstance(spec, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {type(spec).__name__}")
    return spec


def _section(spec, path, keys):
    """Normal form of the object ``spec`` under ``keys``.

    ``keys`` maps each key to ``(reader, default)``; ``path`` is the dotted
    path of the section ("" at the top level).  Unknown and missing keys
    are reported first; then every given value is read to its parsed type
    and every default is read the same way, so a default written out and
    one left out give the same normal form.
    """
    where = path or "config"
    unknown = sorted(set(_object(spec, path)) - set(keys))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = sorted(k for k, (_, default) in keys.items()
                     if default is _REQUIRED and k not in spec)
    if missing:
        raise ConfigError(f"{where}: missing required keys {missing}")
    norm = {}
    for key, (read, default) in keys.items():
        value = spec.get(key, default)
        if value is not _ABSENT:
            norm[key] = read(value, f"{path}.{key}" if path else key)
    return norm


def _table(keys):
    """Reader of a section with fixed keys."""
    return lambda spec, path: _section(spec, path, keys)


def _by_kind(default=_REQUIRED, **kinds):
    """Reader of a section whose other keys depend on its ``kind``."""
    read_kind = _one_of(*kinds)
    tables = {kind: {"kind": (read_kind, default), **keys} for kind, keys in kinds.items()}

    def read(spec, path):
        kind = _object(spec, path).get("kind", default)
        if kind is _REQUIRED:
            raise ConfigError(f"{path}: missing required keys ['kind']")
        return _section(spec, path, tables[read_kind(kind, f"{path}.kind")])

    return read


_INTERVAL = {"x_lo": (_number, _REQUIRED), "x_hi": (_number, _REQUIRED),
             "breakpoints": (_numbers, [])}

#: the schema: key -> (reader, default), the default a value, _REQUIRED or _ABSENT
_CONFIG = {
    "seed": (_seed, 0),
    "problem": (_by_kind(
        l2={"target": (_expression, _REQUIRED), **_INTERVAL},
        diffusion_reaction={
            "diffusivity": (_expression, _REQUIRED), "reaction": (_expression, _REQUIRED),
            "source": (_expression, _REQUIRED),
            "bc_lo": (_number, 0.0), "bc_hi": (_number, 0.0), **_INTERVAL,
        },
    ), _REQUIRED),
    "constants": (_table({
        "alpha": (_number, _REQUIRED), "norm_a": (_number, _REQUIRED),
        "norm_ell": (_number, _REQUIRED),
        "omega_min": (_positive, _ABSENT), "rho": (_number, _ABSENT),
    }), _REQUIRED),
    "quadrature": (_table({"n_panels": (_integer, 16), "order": (_integer, 5)}), {}),
    "family": (_by_kind(
        gaussian_bumps={"widths": (_numbers, _REQUIRED)},
        free_knot_hats={"dirichlet": (_boolean, False)},
        indicator_pair={},
        synthetic_amplitude={
            "profile": (_one_of("sphere_quartic", "norm"), "sphere_quartic"),
            "radius": (_number, 1.0), "scale": (_number, 1.0),
        },
    ), _REQUIRED),
    "domain": (_table({
        "lower": (_numbers, _REQUIRED), "upper": (_numbers, _REQUIRED),
        "chains": (_chains, []), "gap": (_number, 0.0),
    }), _REQUIRED),
    "geometry": (_by_kind("euclidean", euclidean={},
                          diagonal={"diag": (_numbers, _REQUIRED)}), {}),
    "linear_rule": (_by_kind("full_cg", full_cg={}, steepest_descent={}, frozen={}), {}),
    "schedule": (_by_kind(
        constant={"gamma": (_number, _REQUIRED)},
        lipschitz={
            "zeta": (_number, _REQUIRED), "lipschitz": (_lipschitz, "estimate"),
            "nu": (_number, 1.0), "eps_holder": (_number, 0.0), "n_pairs": (_integer, 20),
            "seed": (_seed, _ABSENT),  # parse_config fills in the config seed
        },
    ), _REQUIRED),
    "stopping": (_table({
        "max_epochs": (_integer, _REQUIRED), "eps_xi": (_number, 0.0),
        "eps_energy": (_number, 0.0), "relative_energy": (_boolean, False),
    }), _REQUIRED),
    "init": (_table({"xi0": (_numbers, _REQUIRED), "w0": (_numbers, _ABSENT)}), _REQUIRED),
    "gradient": (_table({
        "mode": (_one_of("auto", "analytic", "closed_form", "fd"), "auto"),
        "fd_step": (_positive, 1e-6),
    }), {}),
    "oracle": (_or_null(_by_kind(
        points={"points": (_points, _REQUIRED), "K_star": (_number, _REQUIRED)},
        sphere={"center": (_numbers, _REQUIRED), "radius": (_positive, _REQUIRED),
                "K_star": (_number, _REQUIRED)},
        grid={"resolution": (_positive, _REQUIRED)},
    )), None),
    "certify": (_table({
        "L": (_nonnegative, _ABSENT), "nu": (_hoelder_nu, _ABSENT),
        "eps_target": (_nonnegative, _ABSENT), "zeta": (_positive, _ABSENT),
        **{key: (_number, _ABSENT) for key in ("L_bar", "K_star_lower", "best_in_V")},
    }), {}),
    "out_dir": (_or_null(_string), None),
}


# ---------------------------------------------------------------------------
# the parsed configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    raw: dict  # the normal form: every value parsed, every default filled
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


# ---------------------------------------------------------------------------
# builders: components from the normal form
# ---------------------------------------------------------------------------


def _build_problem(p):
    if not p["x_hi"] > p["x_lo"]:
        raise ConfigError("problem: x_hi must exceed x_lo")
    if p["kind"] == "l2":
        return L2Approx(expression_field(p["target"], p["breakpoints"]))
    diffusivity, reaction, source = (
        expression_field(p[key], p["breakpoints"]) for key in ("diffusivity", "reaction", "source")
    )
    return DiffusionReaction1D(diffusivity, reaction, source, x_lo=p["x_lo"], x_hi=p["x_hi"],
                               bc_lo=p["bc_lo"], bc_hi=p["bc_hi"])


def _build_domain(d):
    return NonlinearDomain(lower=np.array(d["lower"]), upper=np.array(d["upper"]),
                           chains=tuple(tuple(c) for c in d["chains"]), gap=d["gap"])


def _build_family(f, domain, problem):
    if f["kind"] == "gaussian_bumps":
        return GaussianBumps(domain, np.array(f["widths"]))
    if f["kind"] == "free_knot_hats":
        return FreeKnotHats(domain, problem["x_lo"], problem["x_hi"], dirichlet=f["dirichlet"])
    if f["kind"] == "indicator_pair":
        return IndicatorPair(domain)
    return SyntheticAmplitude(domain, profile=f["profile"], radius=f["radius"], scale=f["scale"])


def _build_schedule(s):
    if s["kind"] == "constant":
        return ConstantGamma(s["gamma"])
    return LipschitzAdaptive(zeta=s["zeta"], lipschitz=s["lipschitz"], nu=s["nu"],
                             eps_holder=s["eps_holder"], n_pairs=s["n_pairs"], seed=s["seed"])


def _under(path, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a :class:`ConfigError` it raises
    prefixed by the config ``path`` whose values it was given."""
    try:
        return build(*args, **kwargs)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


def _check_dims(norm, dim: int) -> None:
    """Oracle points, a sphere's centre, a diagonal geometry's ``diag`` and
    ``init.xi0`` must each have one entry per domain coordinate."""
    oracle, geometry = norm["oracle"], norm["geometry"]
    given = {}
    if oracle is not None and oracle["kind"] == "points":
        given["oracle.points"] = len(oracle["points"][0])  # _points: all equally long
    if oracle is not None and oracle["kind"] == "sphere":
        given["oracle.center"] = len(oracle["center"])
    if geometry["kind"] == "diagonal":
        given["geometry.diag"] = len(geometry["diag"])
    given["init.xi0"] = len(norm["init"]["xi0"])
    for key, got in given.items():
        if got != dim:
            raise ConfigError(f"{key}: expected {dim} coordinates, the domain's, got {got}")


def _check_start(norm, family) -> None:
    """``init.xi0`` must lie in the domain, ``init.w0`` hold one coefficient per
    basis function and be given under the frozen linear rule."""
    init = norm["init"]
    outside = family.domain.violations(np.array(init["xi0"]))
    if outside:
        raise ConfigError("init.xi0: outside the admissible domain: " + "; ".join(outside))
    n = family.n_linear
    if "w0" in init and len(init["w0"]) != n:
        raise ConfigError(f"init.w0: expected {n} coefficients, the family's, got {len(init['w0'])}")
    if "w0" not in init and norm["linear_rule"]["kind"] == "frozen":
        raise ConfigError("init.w0: the frozen linear rule needs initial coefficients")


_LINEAR_RULES = {"full_cg": FullSolveCG, "steepest_descent": SteepestDescent, "frozen": Frozen}


def parse_config(data: dict) -> ExperimentConfig:
    """Read a config object to its normal form and build all components."""
    norm = _section(data, "", _CONFIG)
    problem, constants, schedule = norm["problem"], norm["constants"], norm["schedule"]
    if schedule["kind"] == "lipschitz" and "seed" not in schedule:
        schedule["seed"] = norm["seed"]
    geometry, init = norm["geometry"], norm["init"]
    # a component's error names the section whose values built it
    cfg = ExperimentConfig(
        raw=norm,
        problem=_build_problem(problem),
        constants=_under("constants", ProblemConstants, constants["alpha"],
                         constants["norm_a"], constants["norm_ell"]),
        rule=_under("quadrature", QuadratureRule.on_interval, problem["x_lo"], problem["x_hi"],
                    norm["quadrature"]["n_panels"], norm["quadrature"]["order"]),
        family=_under("family", _build_family, norm["family"],
                      _under("domain", _build_domain, norm["domain"]), problem),
        geometry=(EuclideanGeometry() if geometry["kind"] == "euclidean"
                  else _under("geometry", DiagonalGeometry, np.array(geometry["diag"]))),
        linear_rule=_LINEAR_RULES[norm["linear_rule"]["kind"]](),
        schedule=_under("schedule", _build_schedule, schedule),
        # the section's keys are its fields
        stopping=_under("stopping", StoppingCriteria, **norm["stopping"]),
        xi0=np.array(init["xi0"]),
        w0=np.array(init["w0"]) if "w0" in init else None,
        gradient_mode=norm["gradient"]["mode"],
        fd_step=norm["gradient"]["fd_step"],
        omega_min=constants.get("omega_min"),
        rho=constants.get("rho"),
        seed=norm["seed"],
        oracle_spec=norm["oracle"],
        certify_spec=norm["certify"],
        out_dir=norm["out_dir"],
    )
    _check_dims(norm, cfg.family.domain.dim)
    _check_start(norm, cfg.family)
    # what run would reject later, decided by the code that rejects it there
    _under("gradient.mode", make_gradients, cfg.problem, cfg.rule, cfg.family,
           cfg.gradient_mode, cfg.fd_step)
    oracle = norm["oracle"]
    if oracle is not None and oracle["kind"] == "sphere":
        sphere = AnalyticSphereOracle(oracle["center"], oracle["radius"], oracle["K_star"])
        _under("oracle", delta_star, cfg.geometry, sphere, cfg.xi0)
    return cfg


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
