"""Command-line experiment runner.

Subcommands::

    nonlinritz run     --config cfg.json [--out-dir D] [--seed N] [--max-epochs N]
    nonlinritz certify --config cfg.json [--out-dir D] ...
    nonlinritz grid    --config cfg.json [--out-dir D] ...
    nonlinritz check   --config cfg.json [--out-dir D] ...

``run`` executes the alternating minimisation and writes what
:func:`run_artifacts` renders from its record: ``trace.csv``,
``iterates.npy`` (row k is the visited state ``[xi_k, w_k]``, float64,
written by ``numpy.save``) and ``summary.json``, which holds the config
hash and the SHA-256 of ``iterates.npy``.  ``certify`` checks the run those
artifacts record, without running it again: it replays the written states
(stacked assemblies and gradients, every transition and the stopping rule
checked bitwise), requires each of the three files to be byte-identical to
its rendering from the replayed record, evaluates the certificate suite on
that record and writes ``report.json``.  It parses no trace and reads only
``config_hash`` and ``iterates_sha256`` from ``summary.json``.  States that
do not match their digest, checked before they are loaded, that are not
finite or that leave the domain fail ``trace-consistency`` and leave no
record to certify.  The Lipschitz estimate and the grid oracle are
computed again, never read from a file.  ``grid`` writes a brute-force
minimiser oracle to ``oracle.json``; ``check`` runs the internal invariant
battery on the configured problem and writes its entries, in the form of
``report.json``, to ``check.json``.

Exit codes: 0 success, 1 certificate/invariant failure, 2 configuration
or artifact I/O error, 3 numerical failure.  BLAS/OpenMP parallelism is
set by the standard variables (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``) before the process starts.  All
numeric output uses 17 significant digits, so every value round-trips
exactly to the double that produced it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import os
import sys

import numpy as np

from . import certify as cert
from .assembly import check_consistency
from .config import ExperimentConfig, load_config
from .errors import ConfigError, NonlinRitzError, NumericalError
from .optimizer import _reduced, reduced_gradient, replay, run
from .updates import (Frozen, central_differences, make_gradients, probed_coordinates,
                      prox_optimality_residual, prox_step)
from .variational import L2Approx, integrate

TRACE_COLUMNS = (
    "iter",
    "K",
    "K_reduced",
    "grad_map_norm",
    "gradW_norm",
    "gamma",
    "step_norm",
    "decrease_lhs",
    "decrease_rhs",
    "delta_star",
    "stop_reason",
)


# ---------------------------------------------------------------------------
# deterministic formatting
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _number(x: float) -> str:
    """JSON text of a float; non-finite ones are the strings "nan", "inf", "-inf"."""
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return _fmt(x)


def _dumps_floats(a: np.ndarray, indent: int) -> str:
    """:func:`_dumps` of a float array: each distinct bit pattern (``-0.0`` is
    not ``0.0``) is formatted once, and the text is joined in one pass."""
    if a.ndim == 0 or a.size == 0:  # no values; list() raises TypeError on 0-d
        return _dumps(list(a), indent)
    flat = np.ravel(np.asarray(a, dtype=np.float64))
    bits, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    text = np.array([_number(v) for v in bits.view(np.float64).tolist()], dtype=object)
    n, pads = a.ndim, ["  " * (indent + k) for k in range(a.ndim + 1)]
    opened = ["".join(pads[k] + "[\n" for k in range(n - c, n)) + pads[n] for c in range(n)]
    shut = ["".join("\n" + pads[k] + "]" for k in range(n - 1, n - 1 - c, -1))
            for c in range(n + 1)]
    # between two values c levels of lists end, then a comma, then c begin
    closed = sum(np.arange(1, a.size) % math.prod(a.shape[k:]) == 0 for k in range(1, n))
    parts = np.empty(2 * a.size + 1, dtype=object)
    parts[0], parts[-1] = "[\n" + opened[n - 1], shut[n]
    parts[1::2] = text[inverse]
    parts[2:-1:2] = np.array([e + ",\n" + b for e, b in zip(shut, opened)], dtype=object)[closed]
    return "".join(parts.tolist())


def _dumps(obj, indent=0) -> str:
    """JSON text with floats at 17 significant digits."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _number(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        return _dumps_floats(obj, indent)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [_dumps(v, indent + 1) for v in obj]
        if not items:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + s for s in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        items = [
            "  " * (indent + 1) + json.dumps(str(k)) + ": " + _dumps(v, indent + 1)
            for k, v in obj.items()
        ]
        if not items:
            return "{}"
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (np.floating,)):
        return _number(float(obj))
    if isinstance(obj, (np.integer,)):
        return str(int(obj))
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def _trace_columns(record) -> list:
    """The numeric columns of trace.csv, from ``K`` to ``delta_star``: per
    state (one value a row) or per step (blank on the last row), None where
    the run recorded none.  A row's decrease pair is that of the step
    leaving it: the record's, without the initial update."""
    decrease = [None if c is None else c[1:]
                for c in (record.decrease_achieved, record.decrease_guaranteed)]
    return [record.K, record.K_reduced, record.grad_map_norm, record.grad_w_post_norm,
            np.full(record.n_steps, record.gamma), record.step_norm, *decrease, record.delta_star]


def render_trace(record) -> str:
    """The exact text of trace.csv for a run record."""
    rows = record.n_steps + 1
    cells = [[""] * rows if c is None else [*map(_fmt, c.tolist()), *[""] * (rows - len(c))]
             for c in _trace_columns(record)]
    lines = zip(map(str, range(rows)), *cells, [""] * (rows - 1) + [record.termination])
    return "\n".join([",".join(TRACE_COLUMNS), *map(",".join, lines)]) + "\n"


# ---------------------------------------------------------------------------
# shared execution helpers
# ---------------------------------------------------------------------------


def build_oracle(cfg: ExperimentConfig):
    spec = cfg.oracle_spec
    if spec is None:
        return None
    if spec["kind"] == "points":
        return cert.AnalyticPointsOracle(points=spec["points"], K_star=spec["K_star"])
    if spec["kind"] == "sphere":
        return cert.AnalyticSphereOracle(spec["center"], spec["radius"], spec["K_star"])
    frozen_w = cfg.w0 if isinstance(cfg.linear_rule, Frozen) else None
    return cert.minimiser_grid_oracle(
        cfg.problem, cfg.rule, cfg.family, spec["resolution"], frozen_w=frozen_w
    )


def _loop(cfg: ExperimentConfig, oracle):
    """The configured loop as the arguments ``run`` and ``replay`` share."""
    dfn = None
    if oracle is not None:
        dfn = lambda xi: cert.delta_star(cfg.geometry, oracle, xi)[0]  # noqa: E731
    args = (cfg.problem, cfg.rule, cfg.family, cfg.linear_rule, cfg.geometry,
            cfg.schedule, cfg.stopping, cfg.xi0)
    kwargs = dict(w0=cfg.w0, gradient_mode=cfg.gradient_mode, fd_step=cfg.fd_step,
                  omega_min=cfg.omega_min, delta_star_fn=dfn)
    return args, kwargs


def _quasi_level(cfg: ExperimentConfig, record):
    """Certified quasi-stationarity level at the stopped iterate, if available."""
    L = cfg.certify_spec.get("L", record.hoelder_L)
    if record.stop_residual is None or L is None:
        return None
    # a constant step is a nu = 1 rule
    nu = cfg.certify_spec.get("nu", getattr(record.schedule, "nu", 1.0))
    return cert.stopped_point_level(record, L, nu)[0]


def run_artifacts(cfg: ExperimentConfig, record) -> dict:
    """The exact bytes of ``trace.csv``, ``iterates.npy`` and ``summary.json``
    for a run record, by file name."""
    buf = io.BytesIO()  # iterates.npy: row k is [xi_k, w_k]
    np.save(buf, np.hstack((record.xi, record.w)))
    states = buf.getvalue()
    summary = {
        "best_energy": record.final_K,
        "iterations": record.n_steps,
        "termination": record.termination,
        "quasi_stationarity_level": _quasi_level(cfg, record),
        "config_hash": cfg.config_hash,
        "iterates_sha256": hashlib.sha256(states).hexdigest(),
    }
    return {
        "trace.csv": render_trace(record).encode("utf-8"),
        "iterates.npy": states,
        "summary.json": (_dumps(summary) + "\n").encode("utf-8"),
    }


def _write(path: str, data: bytes):
    with open(path, "wb") as fh:
        fh.write(data)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_run(cfg: ExperimentConfig, out_dir: str) -> int:
    args, kwargs = _loop(cfg, build_oracle(cfg))
    record = run(*args, **kwargs)
    os.makedirs(out_dir, exist_ok=True)
    artifacts = run_artifacts(cfg, record)
    for name, data in artifacts.items():
        _write(os.path.join(out_dir, name), data)
    paths = [f"{out_dir}/{name}" for name in artifacts]
    print(f"wrote {', '.join(paths[:-1])} and {paths[-1]}")
    print(
        f"best energy {_fmt(record.final_K)} after {record.n_steps} step(s); "
        f"terminated by {record.termination}"
    )
    return 0


def cmd_grid(cfg: ExperimentConfig, out_dir: str) -> int:
    if cfg.oracle_spec is None or cfg.oracle_spec["kind"] != "grid":
        raise ConfigError("the grid subcommand needs an oracle of kind 'grid'")
    oracle = build_oracle(cfg)
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "kind": "grid",
        "K_star": oracle.K_star,
        "resolution": oracle.resolution,
        "slack": oracle.slack,
        "n_points": int(oracle.points.shape[0]),
        "minimisers": oracle.minimisers,
        "config_hash": cfg.config_hash,
    }
    _write(os.path.join(out_dir, "oracle.json"), (_dumps(payload) + "\n").encode("utf-8"))
    print(
        f"wrote {out_dir}/oracle.json: K* = {_fmt(oracle.K_star)}, "
        f"{oracle.minimisers.shape[0]} minimiser(s) within slack {_fmt(oracle.slack)}"
    )
    return 0


def cmd_certify(cfg: ExperimentConfig, out_dir: str) -> int:
    files = {}
    for name in ("trace.csv", "summary.json", "iterates.npy"):
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            raise ConfigError(f"missing run artifact {path}; run the 'run' subcommand first")
        with open(path, "rb") as fh:
            files[name] = fh.read()
    summary_path = os.path.join(out_dir, "summary.json")
    try:
        summary = json.loads(files["summary.json"])
    except ValueError as e:
        raise ConfigError(f"{summary_path} is not valid JSON: {e}") from e
    if not isinstance(summary, dict):
        raise ConfigError(f"{summary_path} does not hold a JSON object")
    if summary.get("config_hash") != cfg.config_hash:
        raise ConfigError(
            "config hash mismatch between the supplied config and summary.json; "
            "refusing to certify artifacts produced by a different configuration"
        )

    # the written states, replayed; states that are not the recorded ones, or
    # that cannot be replayed, leave no record to certify
    record, oracle = None, None
    if hashlib.sha256(files["iterates.npy"]).hexdigest() != summary.get("iterates_sha256"):
        faults = ["iterates.npy does not match its digest in summary.json"]
    else:
        try:
            states = np.load(io.BytesIO(files["iterates.npy"]), allow_pickle=False)
        except (ValueError, EOFError) as e:
            raise ConfigError(f"iterates.npy is not a numpy array file: {e}")
        if getattr(states, "dtype", None) != np.float64:
            raise ConfigError("iterates.npy does not hold one float64 array")
        oracle = build_oracle(cfg)
        args, kwargs = _loop(cfg, oracle)
        record, faults = replay(*args, states, **kwargs)
    # each run file must be its rendering from the replayed record
    if not faults:
        faults = [f"{name} differs from the replay of iterates.npy"
                  for name, data in run_artifacts(cfg, record).items() if files[name] != data]

    report = cert.CertificateReport()
    if record is None:
        anchor = "iterates.npy"
    else:
        anchor = f"{record.n_steps + 1} rows"
        finite = all(np.isfinite(c).all() for c in _trace_columns(record) if c is not None)
        report.extend(
            cert.CertificateEntry(
                "trace-finite", anchor, 0.0, 0.0, 0.0,
                "pass" if finite else "fail",
                "all recorded values are finite" if finite else "non-finite value in trace",
            )
        )
    report.extend(
        cert.CertificateEntry(
            "trace-consistency", anchor, 0.0, 0.0, 0.0,
            "fail" if faults else "pass",
            faults[0] if faults else "recomputed trace is byte-identical",
        )
    )
    if record is not None:
        _state_certificates(cfg, record, oracle, report)
    _write_report(cfg, out_dir, report, "report.json")
    return 0 if report.passed else 1


def _state_certificates(cfg: ExperimentConfig, record, oracle, report):
    """The certificates evaluated on the replayed record."""
    report.extend(cert.lambda_max_certificate(record, cfg.constants))
    if cfg.omega_min is not None:
        report.extend(cert.spd_certificate(record, cfg.omega_min))
    report.extend(cert.decrease_certificate(record))
    report.extend(cert.energy_monotonicity_certificate(record))

    spec = cfg.certify_spec
    K_lower = spec.get("K_star_lower", None if oracle is None else oracle.K_star)
    if K_lower is not None:
        report.extend(cert.local_rate_certificate(record, K_lower))
    else:
        report.extend(
            cert._skipped("local-rate", "no lower energy bound (K_star) available")
        )

    if all(k in spec for k in ("L", "nu", "eps_target")):
        report.extend(
            cert.surrogate_certificate(record, spec["L"], spec["nu"], spec["eps_target"])
        )

    if oracle is not None:
        report.extend(
            cert.global_rate_certificate(record, cfg.geometry, oracle, rho=cfg.rho)
        )
        if "L_bar" in spec:
            report.extend(
                cert.global_step_certificate(
                    record, cfg.geometry, oracle, spec["L_bar"], rho=cfg.rho
                )
            )
            # a constant step has no zeta of its own
            zeta = spec.get("zeta", getattr(record.schedule, "zeta", None))
            if zeta is not None and isinstance(cfg.problem, L2Approx):
                report.extend(cert.cea_certificate(
                    record, cfg.problem, cfg.rule, cfg.family,
                    cfg.problem.target, oracle,
                    spec["L_bar"], zeta, cfg.geometry,
                    best_in_V=spec.get("best_in_V"),
                ))


def _write_report(cfg: ExperimentConfig, out_dir: str, report, name: str):
    """The report as ``name`` in ``out_dir``, and one line per entry on stdout."""
    os.makedirs(out_dir, exist_ok=True)
    payload = {"config_hash": cfg.config_hash}
    payload.update(report.to_dict())
    _write(os.path.join(out_dir, name), (_dumps(payload) + "\n").encode("utf-8"))

    tags = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}
    for e in report.entries:
        line = f"[{tags[e.status]}] {e.name} @ {e.anchor}"
        if e.status != "skipped":
            line += f": lhs={_fmt(e.lhs)} rhs={_fmt(e.rhs)} margin={_fmt(e.margin)}"
        if e.note:
            line += f"  ({e.note})"
        print(line)
    n_fail = len(report.failures)
    print(
        f"certified {len(report.entries)} entries: "
        f"{sum(1 for e in report.entries if e.status == 'pass')} passed, "
        f"{n_fail} failed, "
        f"{sum(1 for e in report.entries if e.status == 'skipped')} skipped"
    )


def cmd_check(cfg: ExperimentConfig, out_dir: str) -> int:
    """Internal invariant battery on the configured problem and family,
    written to ``check.json``; an entry over several samples is the worst."""
    rng = np.random.default_rng(cfg.seed)
    report = cert.CertificateReport()
    exact = functools.partial(cert._entry, atol=0.0, rtol=0.0)  # no tolerance beyond rhs

    total = integrate(lambda x: np.ones(np.shape(x)), cfg.rule)
    span = cfg.rule.boundaries[-1] - cfg.rule.boundaries[0]
    report.extend(exact("quadrature-weights", f"{len(cfg.rule.boundaries) - 1} panels",
                        abs(total - span), 1e-12 * span,
                        note=f"sum of weights {_fmt(total)} vs span {_fmt(span)}"))

    # every system is assembled by the oracle's evaluator; each sample set
    # is evaluated as one stack, every row bitwise that point alone
    grads = make_gradients(cfg.problem, cfg.rule, cfg.family, mode=cfg.gradient_mode,
                           fd_step=cfg.fd_step)
    assemble, domain = grads.evaluator.assemble, cfg.family.domain
    stack = assemble(np.array([domain.sample(rng) for _ in range(5)]))
    note = f"{len(stack.xi)} sampled parameter points"
    report.extend([
        exact("assembly-psd", lambda k: f"sample {k}",
              -np.minimum(stack.lambda_min, stack.omega), 1e-10, note=note),
        cert.lambda_max_entry(lambda k: f"sample {k}", stack, cfg.constants, note),
    ])

    raw = domain.lower + (domain.upper - domain.lower) * rng.uniform(-0.5, 1.5, (50, domain.dim))
    projected = domain.project(raw)
    report.extend(exact("projection-feasibility", f"{len(raw)} random points",
                        np.count_nonzero(~domain.feasible(projected)), 0,
                        note="count of infeasible projections"))

    # drawn in the generator's order, then stepped as one stack
    xis, gs, gammas = (np.array(v) for v in zip(*[
        (domain.sample(rng), rng.standard_normal(domain.dim), 10.0 ** rng.uniform(-3, 0))
        for _ in range(20)]))
    steps = prox_step(cfg.geometry, domain, xis, gs, gammas)
    residuals = [prox_optimality_residual(cfg.geometry, domain, xi, g, gamma, xp)
                 for xi, g, gamma, xp in zip(xis, gs, gammas.tolist(), steps)]
    report.extend(exact("prox-optimality", lambda k: f"draw {k}", residuals,
                        [1e-6 * (1.0 + float(np.linalg.norm(g))) for g in gs],
                        note=f"{len(residuals)} random draws"))

    rep = check_consistency(assemble(cfg.xi0))
    report.extend(exact(
        "consistency-at-start", "xi0",
        np.maximum(rep.load_kernel_residual, rep.realisation_gap), 1e-8,
        note=f"kernel dim {rep.kernel_dim}, load residual {_fmt(rep.load_kernel_residual)}, "
             f"realisation gap {_fmt(rep.realisation_gap)}",
    ))

    # the probed coordinates are compared, from points at least one probe
    # step inside the domain
    h = 1e-5
    width = domain.upper - domain.lower
    moves = probed_coordinates(domain, h)
    margin = max(1e-3 * float(np.min(width, where=moves, initial=np.inf)), h)
    interior = domain.shrink(np.where(moves, margin, 0.0))
    xis = np.array([interior.sample(rng) for _ in range(3)])
    g = reduced_gradient(grads, xis)
    fd = central_differences(lambda probes, _: _reduced(assemble(probes))[0],
                             grads.evaluator, xis, h)
    errors = [np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b))
              for a, b in zip(g[:, moves], fd[:, moves])]
    report.extend(exact("reduced-gradient-fd", lambda k: f"point {k}", errors, 1e-4,
                        note=f"relative error at {len(errors)} sampled points"))

    _write_report(cfg, out_dir, report, "check.json")
    print("all checks passed" if report.passed else "invariant failures detected")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser():
    """The argument parser, built once per process; parsing leaves it as it is."""
    p = argparse.ArgumentParser(
        prog="nonlinritz",
        description="Alternating minimisation over nonlinear approximation "
        "spaces, with numerical convergence certificates.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    helps = {
        "run": "execute a configured run; write trace.csv, iterates.npy and summary.json",
        "certify": "replay the run artifacts and evaluate the certificate suite on them",
        "grid": "write a brute-force minimiser oracle to oracle.json",
        "check": "run the internal invariant battery; write check.json",
    }
    for name, h in helps.items():
        sp = sub.add_parser(name, help=h)
        sp.add_argument("--config", required=True, help="path to the JSON config")
        sp.add_argument("--out-dir", default=None, help="artifact directory")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument(
            "--max-epochs", type=int, default=None, help="override stopping.max_epochs"
        )
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.max_epochs is not None:
            overrides["stopping"] = {"max_epochs": args.max_epochs}
        cfg = load_config(args.config, overrides)
        out_dir = args.out_dir or cfg.out_dir or "."
        dispatch = {
            "run": cmd_run,
            "certify": cmd_certify,
            "grid": cmd_grid,
            "check": cmd_check,
        }
        return dispatch[args.command](cfg, out_dir)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"artifact i/o error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except NonlinRitzError as e:  # pragma: no cover - safety net
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
