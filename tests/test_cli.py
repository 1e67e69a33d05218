import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import nonlinritz.assembly
import nonlinritz.certify
import nonlinritz.cli
import nonlinritz.optimizer
import nonlinritz.updates
from nonlinritz.assembly import stack_slices
from nonlinritz.cli import TRACE_COLUMNS, main
from nonlinritz.config import parse_config
from nonlinritz.optimizer import reduced_energy


def _base_config():
    return {
        "problem": {
            "kind": "l2",
            "target": "0.8*gauss(x, 0.3, 0.1) + 0.5*gauss(x, 0.7, 0.12)",
            "x_lo": 0.0,
            "x_hi": 1.0,
        },
        "constants": {"alpha": 1.0, "norm_a": 1.0, "norm_ell": 1.0},
        "family": {"kind": "gaussian_bumps", "widths": [0.1, 0.12]},
        "domain": {"lower": [0.1, 0.1], "upper": [0.9, 0.9]},
        "schedule": {"kind": "lipschitz", "zeta": 0.9, "lipschitz": 5.0},
        "stopping": {"max_epochs": 6},
        "init": {"xi0": [0.45, 0.55]},
    }


def _circle_config():
    return {
        "problem": {"kind": "l2", "target": 0.0, "x_lo": 0.0, "x_hi": 1.0},
        "constants": {"alpha": 1.0, "norm_a": 1.0, "norm_ell": 1.0},
        "family": {"kind": "synthetic_amplitude", "profile": "sphere_quartic",
                   "radius": 1.0, "scale": 0.7},
        "domain": {"lower": [-1.2, -1.2], "upper": [1.2, 1.2]},
        "linear_rule": {"kind": "frozen"},
        "schedule": {"kind": "constant", "gamma": 0.0625},
        "stopping": {"max_epochs": 10},
        "init": {"xi0": [0.9, 0.3], "w0": [1.0]},
        "oracle": {"kind": "grid", "resolution": 0.1},
    }


def _write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data, indent=1))
    return str(p)


def _read(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_writes_trace_and_summary(tmp_path):
    cfg_path = _write_cfg(tmp_path, _base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out-dir", str(out)]) == 0

    trace = _read(out / "trace.csv")
    lines = trace.splitlines()
    assert tuple(lines[0].split(",")) == TRACE_COLUMNS
    assert len(lines) == 2 + 6  # header + initial state + six steps
    # transition cells are empty on the final row; stop_reason only there
    final = lines[-1].split(",")
    cols = dict(zip(TRACE_COLUMNS, final))
    assert cols["stop_reason"] == "max_epochs"
    assert cols["gamma"] == "" and cols["step_norm"] == ""
    for ln in lines[1:-1]:
        assert ln.split(",")[-1] == ""

    summary = json.loads(_read(out / "summary.json"))
    assert set(summary) == {
        "best_energy", "iterations", "termination",
        "quasi_stationarity_level", "config_hash", "iterates_sha256",
    }
    assert summary["iterations"] == 6
    assert summary["termination"] == "max_epochs"
    assert summary["config_hash"] == parse_config(_base_config()).config_hash

    # the visited states: one row [xi_k, w_k] per trace row, and their digest
    data = (out / "iterates.npy").read_bytes()
    assert summary["iterates_sha256"] == hashlib.sha256(data).hexdigest()
    states = np.load(out / "iterates.npy")
    assert states.dtype == np.float64 and states.shape == (7, 2 + 2)
    assert states[0, :2].tolist() == [0.45, 0.55]


def test_run_names_every_file_it_writes(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out-dir", str(out)]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == f"wrote {out}/trace.csv, {out}/iterates.npy and {out}/summary.json"
    assert sorted(os.listdir(out)) == ["iterates.npy", "summary.json", "trace.csv"]


def test_run_zero_epochs_is_galerkin_solve(tmp_path):
    cfg_path = _write_cfg(tmp_path, _base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out-dir", str(out),
                 "--max-epochs", "0"]) == 0
    trace = _read(out / "trace.csv").splitlines()
    assert len(trace) == 2  # header + single state row
    summary = json.loads(_read(out / "summary.json"))
    cfg = parse_config(_base_config())
    val, _ = reduced_energy(cfg.problem, cfg.rule, cfg.family, np.array([0.45, 0.55]))
    assert_allclose(summary["best_energy"], val, atol=1e-12)
    assert summary["iterations"] == 0


def test_reruns_are_byte_identical(tmp_path):
    cfg_path = _write_cfg(tmp_path, _base_config())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg_path, "--out-dir", str(a)]) == 0
    assert main(["run", "--config", cfg_path, "--out-dir", str(b)]) == 0
    assert _read(a / "trace.csv") == _read(b / "trace.csv")
    assert _read(a / "summary.json") == _read(b / "summary.json")
    assert (a / "iterates.npy").read_bytes() == (b / "iterates.npy").read_bytes()
    assert main(["check", "--config", cfg_path, "--out-dir", str(a)]) == 0
    assert main(["check", "--config", cfg_path, "--out-dir", str(b)]) == 0
    assert (a / "check.json").read_bytes() == (b / "check.json").read_bytes()


def test_seed_override_changes_hash(tmp_path):
    cfg_path = _write_cfg(tmp_path, _base_config())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg_path, "--out-dir", str(a)]) == 0
    assert main(["run", "--config", cfg_path, "--out-dir", str(b),
                 "--seed", "5"]) == 0
    ha = json.loads(_read(a / "summary.json"))["config_hash"]
    hb = json.loads(_read(b / "summary.json"))["config_hash"]
    assert ha != hb


def test_stop_reason_reflects_stabilisation(tmp_path):
    data = _base_config()
    data["stopping"] = {"max_epochs": 200, "eps_xi": 1.8e-4}
    cfg_path = _write_cfg(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out-dir", str(out)]) == 0
    summary = json.loads(_read(out / "summary.json"))
    assert summary["termination"] == "xi_stabilised"
    # the stop was certified: a finite quasi-stationarity level is reported
    assert summary["quasi_stationarity_level"] is not None
    assert summary["quasi_stationarity_level"] > 0.0


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certify_clean_artifacts(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out-dir", str(out)]) == 0
    assert main(["certify", "--config", cfg_path, "--out-dir", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "[PASS] trace-finite" in printed
    assert "[PASS] trace-consistency" in printed
    assert "[FAIL]" not in printed
    report = json.loads(_read(out / "report.json"))
    assert report["passed"] is True
    assert report["config_hash"] == parse_config(_base_config()).config_hash
    names = [e["name"] for e in report["entries"]]
    assert names[:2] == ["trace-finite", "trace-consistency"], names
    for expected in ("lambda-max-bound", "linear-decrease", "energy-monotone"):
        assert expected in names, names
    assert not any(n.endswith("(trace)") for n in names), names


def test_certify_detects_tampered_trace(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out-dir", str(out)]) == 0

    lines = _read(out / "trace.csv").splitlines()
    k_col = TRACE_COLUMNS.index("K")
    row = lines[3].split(",")
    row[k_col] = "1"  # inject an energy increase mid-run
    lines[3] = ",".join(row)
    (out / "trace.csv").write_text("\n".join(lines) + "\n")

    # the energies certified are the replayed ones; the written trace must
    # equal their rendering
    assert main(["certify", "--config", cfg_path, "--out-dir", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "[FAIL] trace-consistency" in printed
    report = json.loads(_read(out / "report.json"))
    assert report["passed"] is False
    failed = {e["name"] for e in report["entries"] if e["status"] == "fail"}
    assert failed == {"trace-consistency"}
    assert not any(e["name"].endswith("(trace)") for e in report["entries"])


def test_certify_refuses_foreign_artifacts(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out-dir", str(out)]) == 0
    other = _base_config()
    other["stopping"]["max_epochs"] = 7
    other_path = _write_cfg(tmp_path, other, name="other.json")
    assert main(["certify", "--config", other_path, "--out-dir", str(out)]) == 2
    assert "hash mismatch" in capsys.readouterr().err


def test_certify_needs_artifacts(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _base_config())
    assert main(["certify", "--config", cfg_path, "--out-dir",
                 str(tmp_path / "empty")]) == 2
    assert "missing run artifact" in capsys.readouterr().err


def _record_digest(out):
    """Record the digest of the present iterates.npy in summary.json."""
    summary = json.loads(_read(out / "summary.json"))
    summary["iterates_sha256"] = hashlib.sha256(
        (out / "iterates.npy").read_bytes()).hexdigest()
    (out / "summary.json").write_text(json.dumps(summary))


def _empty_states(out):
    open(out / "iterates.npy", "wb").close()
    _record_digest(out)


def _text_states(out):
    np.save(out / "iterates.npy", np.full((7, 4), "abc"))
    _record_digest(out)


def _narrow_states(out):
    np.save(out / "iterates.npy", np.load(out / "iterates.npy")[:, :-1])
    _record_digest(out)


@pytest.mark.parametrize("spoil, message", [
    (lambda out: os.remove(out / "iterates.npy"), "missing run artifact"),
    (_empty_states, "iterates.npy is not a numpy array file"),
    (_text_states, "float64"),
    (_narrow_states, "expected one row of 2 + 2 state values per iterate"),
], ids=["missing", "empty", "not float64", "wrong width"])
def test_certify_needs_the_written_states(tmp_path, capsys, spoil, message):
    # no fallback: without readable states nothing is run again
    cfg_path = _write_cfg(tmp_path, _base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out-dir", str(out)]) == 0
    spoil(out)
    assert main(["certify", "--config", cfg_path, "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "report.json").exists()


def _set_state(out, row, col, value, digest):
    """Set one entry of iterates.npy; ``digest``: record the new file's
    digest in summary.json, so that only the replay can tell."""
    states = np.load(out / "iterates.npy")
    states[row, col] = value(states[row, col])
    np.save(out / "iterates.npy", states)
    if digest:
        _record_digest(out)


def _next_ulp(out, row, col, digest):
    """Move one entry of iterates.npy up by one ulp."""
    _set_state(out, row, col, lambda v: np.nextafter(v, np.inf), digest)


def _set_cell(out, column, row, cell):
    """Write ``cell`` into one cell of trace.csv."""
    lines = _read(out / "trace.csv").splitlines()
    cells = lines[row].split(",")
    cells[TRACE_COLUMNS.index(column)] = cell
    lines[row] = ",".join(cells)
    (out / "trace.csv").write_text("\n".join(lines) + "\n")


def _other_digit(out, column, row):
    """Change the first decimal of one trace cell."""
    cell = _read(out / "trace.csv").splitlines()[row].split(",")[TRACE_COLUMNS.index(column)]
    i = cell.index(".") + 1
    _set_cell(out, column, row, cell[:i] + str((int(cell[i]) + 1) % 10) + cell[i + 1:])


def _forge(out, key, value):
    """Write ``value`` (JSON text) as one field of summary.json, leaving the
    rest of the file byte for byte as written."""
    text = _read(out / "summary.json")
    forged = re.sub(rf'("{key}": )[^,\n]*', lambda m: m.group(1) + value, text)
    assert forged != text
    (out / "summary.json").write_text(forged)


def _wrong_digest(out):
    summary = json.loads(_read(out / "summary.json"))
    summary["iterates_sha256"] = hashlib.sha256(b"another run").hexdigest()
    (out / "summary.json").write_text(json.dumps(summary))


@pytest.mark.parametrize("tamper, reason", [
    (lambda out: _next_ulp(out, 3, 0, digest=True), "xi_3 is not the prox step"),
    (lambda out: _next_ulp(out, 0, 1, digest=True), "xi_0 is not the configured start"),
    (lambda out: _next_ulp(out, 4, 3, digest=True), "w_4 is not the linear update"),
    (lambda out: _next_ulp(out, 6, 2, digest=False), "does not match its digest"),
    (lambda out: _other_digit(out, "K", 4), "differs from the replay"),
    (lambda out: _other_digit(out, "gamma", 2), "differs from the replay"),
    (_wrong_digest, "does not match its digest"),
    # a digest mismatch is found before the states are loaded and assembled
    (lambda out: _set_state(out, 2, 0, lambda v: -5.0, digest=True),
     "xi_2 lies outside the admissible domain"),
    (lambda out: _set_state(out, 2, 0, lambda v: -5.0, digest=False),
     "does not match its digest"),
    # the feasibility test passes NaN: finiteness is tested first
    (lambda out: _set_state(out, 2, 0, lambda v: np.nan, digest=True),
     "state 2 holds a non-finite value"),
    (lambda out: _set_state(out, 4, 3, lambda v: np.nan, digest=True),
     "state 4 holds a non-finite value"),
    (lambda out: _set_cell(out, "gamma", 2, "abc"), "trace.csv differs from the replay"),
    (lambda out: (out / "trace.csv").write_bytes(b"\xff" + (out / "trace.csv").read_bytes()),
     "trace.csv differs from the replay"),
    # what summary.json says about the run is rendered from the replay too
    (lambda out: _forge(out, "best_energy", "-123"), "summary.json differs from the replay"),
    (lambda out: _forge(out, "iterations", "3"), "summary.json differs from the replay"),
    (lambda out: _forge(out, "termination", '"xi_stabilised"'),
     "summary.json differs from the replay"),
    (lambda out: _forge(out, "quasi_stationarity_level", "0.5"),
     "summary.json differs from the replay"),
], ids=["xi ulp", "xi_0 ulp", "w ulp", "ulp without digest", "K digit", "gamma digit",
        "digest", "outside", "outside without digest", "NaN xi", "NaN w",
        "non-numeric cell", "non-UTF-8 trace", "best_energy", "iterations",
        "termination", "quasi level"])
def test_certify_detects_tampered_artifacts(tmp_path, capsys, tamper, reason):
    cfg_path = _write_cfg(tmp_path, _base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out-dir", str(out)]) == 0
    assert main(["certify", "--config", cfg_path, "--out-dir", str(out)]) == 0
    tamper(out)
    assert main(["certify", "--config", cfg_path, "--out-dir", str(out)]) == 1
    report = json.loads(_read(out / "report.json"))
    entry = next(e for e in report["entries"] if e["name"] == "trace-consistency")
    assert entry["status"] == "fail"
    assert reason in entry["note"]


@pytest.mark.parametrize("ran, certified, reason", [
    ({"max_epochs": 3}, {"max_epochs": 6},
     "3 steps recorded, but the stopping rule never fires and max_epochs is 6"),
    ({"max_epochs": 8}, {"max_epochs": 6}, "8 steps recorded, more than max_epochs = 6"),
    ({"max_epochs": 6}, {"max_epochs": 6, "eps_xi": 1.0},
     "the stopping rule fires at step 0, before the last state"),
], ids=["too few", "too many", "fires early"])
def test_certify_checks_the_stopping_rule(tmp_path, ran, certified, reason):
    # a run under other stopping settings, written for the certified config:
    # digest, trace and summary agree, and only the stopping rule is at fault
    data = _base_config()
    args, kwargs = nonlinritz.cli._loop(parse_config({**data, "stopping": ran}), None)
    record = nonlinritz.optimizer.run(*args, **kwargs)
    data["stopping"] = certified
    out = tmp_path / "out"
    out.mkdir()
    for name, blob in nonlinritz.cli.run_artifacts(parse_config(data), record).items():
        (out / name).write_bytes(blob)
    assert main(["certify", "--config", _write_cfg(tmp_path, data), "--out-dir", str(out)]) == 1
    report = json.loads(_read(out / "report.json"))
    entry = next(e for e in report["entries"] if e["name"] == "trace-consistency")
    assert entry["status"] == "fail" and entry["note"] == reason


def test_certify_checks_uniform_solvability(tmp_path, capsys):
    data = _base_config()
    data["constants"]["omega_min"] = 1e-3
    cfg_path = _write_cfg(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out-dir", str(out)]) == 0
    assert main(["certify", "--config", cfg_path, "--out-dir", str(out)]) == 0
    assert "[PASS] uniform-solvability" in capsys.readouterr().out
    report = json.loads(_read(out / "report.json"))
    entry = next(e for e in report["entries"] if e["name"] == "uniform-solvability")
    assert entry["status"] == "pass" and entry["lhs"] == 1e-3


def test_certify_with_a_points_oracle(tmp_path):
    # the distances to the analytic minimiser go into the trace and the
    # global rate; without certify.zeta, cea takes the schedule's zeta
    reports = {}
    for zeta in (None, 0.9):
        data = _base_config()
        data["oracle"] = {"kind": "points", "points": [[0.3, 0.7]], "K_star": -0.0862014}
        data["certify"] = {"L_bar": 10.0} if zeta is None else {"L_bar": 10.0, "zeta": zeta}
        cfg_path = _write_cfg(tmp_path, data)
        out = tmp_path / f"out-{zeta}"
        assert main(["run", "--config", cfg_path, "--out-dir", str(out)]) == 0
        assert main(["certify", "--config", cfg_path, "--out-dir", str(out)]) == 0
        rows = _read(out / "trace.csv").splitlines()[1:]
        column = TRACE_COLUMNS.index("delta_star")
        assert all(float(row.split(",")[column]) > 0.0 for row in rows)
        report = json.loads(_read(out / "report.json"))
        reports[zeta] = {e["name"]: e for e in report["entries"]}
    entries = reports[None]
    assert entries["global-rate"]["status"] == "pass"
    assert entries["cea"]["status"] == "pass"
    assert entries["cea"] == reports[0.9]["cea"]


@pytest.mark.parametrize("content", [b'{"config_hash": ', b"[1, 2]", b"\xff{}"],
                         ids=["invalid JSON", "array", "non-UTF-8"])
def test_certify_rejects_a_malformed_summary(tmp_path, capsys, content):
    cfg_path = _write_cfg(tmp_path, _base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out-dir", str(out)]) == 0
    (out / "summary.json").write_bytes(content)
    assert main(["certify", "--config", cfg_path, "--out-dir", str(out)]) == 2
    assert "summary.json" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_run_into_an_unwritable_out_dir(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _base_config())
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory")
    assert main(["run", "--config", cfg_path, "--out-dir", str(blocker)]) == 2
    assert str(blocker) in capsys.readouterr().err
    assert blocker.read_text() == "a file, not a directory"


DEMO_CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "configs")


@pytest.mark.parametrize("config, skipped", [
    ("gaussian_fit.json", ["energy-monotone", "local-rate"]),
    ("circle_grid_survey.json", ["global-rate"]),
])
def test_certify_a_run_without_steps(tmp_path, config, skipped):
    cfg_path, out = os.path.join(DEMO_CONFIGS, config), str(tmp_path / "out")
    for sub in ("run", "certify"):
        assert main([sub, "--config", cfg_path, "--out-dir", out, "--max-epochs", "0"]) == 0
    report = json.loads(_read(os.path.join(out, "report.json")))
    entries = {e["name"]: e for e in report["entries"]}
    assert entries["trace-consistency"]["status"] == "pass"
    for name in skipped:
        assert (entries[name]["status"], entries[name]["note"]) == (
            "skipped", "run recorded no steps")


@pytest.mark.parametrize("gamma", [0.25, 1.0])
def test_norm_profile_grid_contains_the_origin(tmp_path, gamma):
    # g = ||xi|| is 0 at the origin, the grid minimiser [0, 0], and not
    # differentiable there: the gradient takes the subgradient 0.
    # gamma * scale^2 = 1 steps onto the origin at once.
    data = _circle_config()
    data["family"] = {"kind": "synthetic_amplitude", "profile": "norm"}
    data["domain"] = {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
    data["schedule"] = {"kind": "constant", "gamma": gamma}
    data["stopping"] = {"max_epochs": 5}
    data["init"] = {"xi0": [0.6, 0.3], "w0": [1.0]}
    cfg_path, out = _write_cfg(tmp_path, data), str(tmp_path / "out")
    for sub in ("grid", "run", "certify"):
        assert main([sub, "--config", cfg_path, "--out-dir", out]) == 0
    oracle = json.loads(_read(os.path.join(out, "oracle.json")))
    assert oracle["n_points"] == 441
    assert oracle["K_star"] == 0
    assert [0, 0] in oracle["minimisers"]
    if gamma == 1.0:
        summary = json.loads(_read(os.path.join(out, "summary.json")))
        assert summary["termination"] == "xi_stabilised"
        states = np.load(os.path.join(out, "iterates.npy"))
        assert states[1:, :2].tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_certify_circle_with_sphere_oracle(tmp_path, capsys):
    data = _circle_config()
    # the analytic minimiser set gives exact distances; the coarse grid
    # oracle's slack band would underestimate them and spoil the bounds
    data["oracle"] = {"kind": "sphere", "center": [0.0, 0.0], "radius": 1.0,
                      "K_star": 0.0}
    data["certify"] = {"L_bar": 16.0, "zeta": 1.0}
    cfg_path = _write_cfg(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out-dir", str(out)]) == 0
    assert main(["certify", "--config", cfg_path, "--out-dir", str(out)]) == 0
    report = json.loads(_read(out / "report.json"))
    names = {e["name"]: e["status"] for e in report["entries"]}
    assert names["global-rate"] == "pass"
    assert names["global-step-descent"] == "pass"
    assert names["cea"] == "pass"
    # frozen linear rule: the decrease certificate does not apply
    assert names["linear-decrease"] == "skipped"


def test_exact_solve_on_numerically_singular_bumps(tmp_path, capsys):
    # 40 overlapping bumps: A is singular to working precision (condition
    # number near 1e16) but the system stays consistent, so the
    # pseudo-inverse solve must carry the run through and certify it
    n = 40
    data = {
        "problem": {"kind": "l2",
                    "target": "sin(12*x)*exp(-x) + 0.5*gauss(x, 0.5, 0.02)",
                    "x_lo": 0.0, "x_hi": 1.0},
        "constants": {"alpha": 1.0, "norm_a": 1.0, "norm_ell": 1.0},
        "quadrature": {"n_panels": 32, "order": 5},
        "family": {"kind": "gaussian_bumps", "widths": [0.06] * n},
        "domain": {"lower": [0.0] * n, "upper": [1.0] * n},
        "linear_rule": {"kind": "full_cg"},
        "schedule": {"kind": "lipschitz", "zeta": 0.5, "n_pairs": 5},
        "stopping": {"max_epochs": 20},
        "init": {"xi0": np.linspace(0.1, 0.9, n).tolist()},
    }
    cfg_path = _write_cfg(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out-dir", str(out)]) == 0
    assert main(["certify", "--config", cfg_path, "--out-dir", str(out)]) == 0
    report = json.loads(_read(out / "report.json"))
    names = {e["name"]: e["status"] for e in report["entries"]}
    assert names["linear-decrease"] == "pass"
    assert names["energy-monotone"] == "pass"
    assert all(e["status"] != "fail" for e in report["entries"])


def test_estimated_lipschitz_under_fd_gradients_on_a_chain(tmp_path):
    # the Lipschitz pairs are sampled from the chained domain; under finite
    # differences they must keep fd_step clear of the gap constraint, or a
    # difference probe leaves the domain and the run exits 3
    m = 5
    data = {
        "problem": {"kind": "diffusion_reaction",
                    "diffusivity": "1 + 0.25*sin(2*pi*x)", "reaction": 1.25,
                    "source": "1 + 8*gauss(x, 0.5, 0.08)", "x_lo": 0.0, "x_hi": 1.0},
        "constants": {"alpha": 1.0, "norm_a": 1.0, "norm_ell": 1.0},
        "quadrature": {"n_panels": 16, "order": 5},
        "family": {"kind": "free_knot_hats", "dirichlet": True},
        "domain": {"lower": [0.02] * m, "upper": [0.98] * m,
                   "chains": [list(range(m))], "gap": 0.01},
        "gradient": {"mode": "fd"},
        "schedule": {"kind": "lipschitz", "zeta": 0.5},
        "stopping": {"max_epochs": 5},
        "init": {"xi0": [0.15, 0.3, 0.5, 0.7, 0.85]},
    }
    cfg_path = _write_cfg(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out-dir", str(out)]) == 0
    assert main(["certify", "--config", cfg_path, "--out-dir", str(out)]) == 0
    report = json.loads(_read(out / "report.json"))
    assert all(e["status"] != "fail" for e in report["entries"])


# ---------------------------------------------------------------------------
# grid and check
# ---------------------------------------------------------------------------


def test_grid_writes_oracle_artifact(tmp_path, monkeypatch):
    cfg_path = _write_cfg(tmp_path, _circle_config())
    out = tmp_path / "out"
    written, dumps = [], nonlinritz.cli._dumps
    monkeypatch.setattr(nonlinritz.cli, "_dumps",
                        lambda obj, indent=0: written.append(obj) or dumps(obj, indent))
    assert main(["grid", "--config", cfg_path, "--out-dir", str(out)]) == 0
    assert _read(out / "oracle.json") == reference_dumps(written[0]) + "\n"
    payload = json.loads(_read(out / "oracle.json"))
    assert payload["kind"] == "grid"
    assert payload["K_star"] >= 0.0 and payload["K_star"] <= 5e-2
    assert payload["n_points"] == 25 * 25
    assert payload["config_hash"] == parse_config(_circle_config()).config_hash
    assert len(payload["minimisers"]) >= 4


def test_grid_requires_grid_oracle(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _base_config())
    assert main(["grid", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 2
    assert "grid" in capsys.readouterr().err


def test_check_battery_passes(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _base_config())
    assert main(["check", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    assert printed.splitlines()[-1] == "all checks passed"
    assert "[FAIL]" not in printed
    report = json.loads(_read(tmp_path / "check.json"))
    assert report["passed"] is True
    assert [e["name"] for e in report["entries"]] == [
        "quadrature-weights", "assembly-psd", "lambda-max-bound", "projection-feasibility",
        "prox-optimality", "consistency-at-start", "reduced-gradient-fd",
    ]


def test_check_stacks_the_probes_of_each_sample(tmp_path, capsys, count_calls):
    # reduced-gradient-fd: one stacked reduced energy for the probes of all
    # 3 sampled points, instead of 2 per coordinate or one per point
    m = 5
    data = {
        "problem": {"kind": "diffusion_reaction",
                    "diffusivity": "1 + 0.25*sin(2*pi*x)", "reaction": 1.25,
                    "source": "1 + 8*gauss(x, 0.5, 0.08)", "x_lo": 0.0, "x_hi": 1.0},
        "constants": {"alpha": 1.0, "norm_a": 1.0, "norm_ell": 1.0},
        "family": {"kind": "free_knot_hats", "dirichlet": True},
        "domain": {"lower": [0.02] * m, "upper": [0.98] * m,
                   "chains": [list(range(m))], "gap": 0.01},
        "schedule": {"kind": "lipschitz", "zeta": 0.5, "lipschitz": 2.0},
        "stopping": {"max_epochs": 2},
        "init": {"xi0": [0.15, 0.3, 0.5, 0.7, 0.85]},
    }
    calls = count_calls("reduced_energy", nonlinritz.cli)
    cfg_path = _write_cfg(tmp_path, data)
    assert main(["check", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 0
    assert "[PASS] reduced-gradient-fd" in capsys.readouterr().out
    assert len(calls) == 1


@pytest.mark.parametrize("upper", [0.5, 0.50001, 0.50003], ids=["fixed", "1e-5", "3e-5"])
def test_check_probes_a_domain_with_a_narrow_coordinate(tmp_path, capsys, upper):
    # xi[1] is fixed or narrower than two difference steps of 1e-5, and is
    # held fixed in every probe, or just wider, and is probed from one step
    # inside its bounds
    data = _base_config()
    data["domain"] = {"lower": [0.1, 0.5], "upper": [0.9, upper]}
    data["init"] = {"xi0": [0.45, 0.5]}
    cfg_path = _write_cfg(tmp_path, data)
    assert main(["check", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 0
    assert "[PASS] reduced-gradient-fd" in capsys.readouterr().out


@pytest.mark.parametrize("lipschitz", [2.0, "estimate"])
def test_fd_gradients_on_a_domain_with_a_fixed_coordinate(tmp_path, capsys, lipschitz):
    # xi[1] is fixed: central differences probe xi[0] alone, and the
    # Lipschitz pairs keep only xi[0] one difference step inside its bounds
    data = _base_config()
    data["domain"] = {"lower": [0.1, 0.5], "upper": [0.9, 0.5]}
    data["init"] = {"xi0": [0.45, 0.5]}
    data["gradient"] = {"mode": "fd"}
    data["schedule"]["lipschitz"] = lipschitz
    cfg_path = _write_cfg(tmp_path, data)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg_path, "--out-dir", out]) == 0
    assert main(["certify", "--config", cfg_path, "--out-dir", out]) == 0
    assert main(["check", "--config", cfg_path, "--out-dir", out]) == 0
    printed = capsys.readouterr().out
    assert "[FAIL]" not in printed and "all checks passed" in printed


# ---------------------------------------------------------------------------
# the JSON writer
# ---------------------------------------------------------------------------


def reference_dumps(obj, indent=0) -> str:
    """The writer as it was before float arrays were written in bulk: one
    recursive call per value, kept as the reference for its bytes."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return '"nan"'
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        return "%.17g" % float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [reference_dumps(v, indent + 1) for v in obj]
        if not items:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + s for s in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        items = [
            "  " * (indent + 1) + json.dumps(str(k)) + ": " + reference_dumps(v, indent + 1)
            for k, v in obj.items()
        ]
        if not items:
            return "{}"
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (np.floating,)):
        return reference_dumps(float(obj), indent)
    if isinstance(obj, (np.integer,)):
        return str(int(obj))
    raise TypeError(f"cannot serialise {type(obj).__name__}")


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, math.nan,
            math.inf, -math.inf, 1.0, 0.1]


@st.composite
def _float_arrays(draw):
    """float64 or float32 arrays of 1-3 dimensions, possibly empty, as they
    are or as a transposed, reversed or strided view; values repeat often."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    shape = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
    pool = st.sampled_from(_SPECIAL) | st.floats(width=np.finfo(dtype).bits)
    values = draw(st.lists(pool, min_size=1, max_size=5))
    picks = draw(st.lists(st.sampled_from(values), min_size=math.prod(shape),
                          max_size=math.prod(shape)))
    a = np.array(picks, dtype=dtype).reshape(shape)
    view = draw(st.sampled_from(["as is", "transposed", "reversed", "strided"]))
    if view == "transposed":
        return a.T
    if view == "reversed":
        return np.flip(a)
    return a[..., ::2] if view == "strided" else a


# leaves the writer cannot serialise: both writers raise TypeError
_UNWRITABLE = st.sampled_from([np.array(1.5), np.array([True]), 1j, object()])

_LEAVES = (st.sampled_from(_SPECIAL) | st.floats() | st.integers() | st.booleans()
           | st.none() | st.text(max_size=4) | _float_arrays()
           | st.floats(width=32).map(np.float32) | st.integers(-5, 5).map(np.int64))


def _documents(leaves):
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=4)
                        | st.tuples(inner, inner)
                        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
                        max_leaves=10)


def _assert_reads_back(obj, loaded):
    """Every finite float of ``obj`` reads back as itself, sign of zero too."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            _assert_reads_back(v, loaded[k])
    elif isinstance(obj, (list, tuple, np.ndarray)):
        assert len(loaded) == len(obj)
        for v, back in zip(obj, loaded):
            _assert_reads_back(v, back)
    elif isinstance(obj, (float, np.floating)) and math.isfinite(obj):
        assert loaded == float(obj) and math.copysign(1.0, loaded) == math.copysign(1.0, obj)


@settings(max_examples=400, deadline=None)
@given(_documents(_LEAVES), st.integers(0, 3))
def test_writer_matches_the_reference_byte_for_byte(obj, indent):
    text = nonlinritz.cli._dumps(obj, indent)
    assert text == reference_dumps(obj, indent)
    _assert_reads_back(obj, json.loads(text, parse_int=float))


@settings(max_examples=100, deadline=None)
@given(_documents(_LEAVES | _UNWRITABLE))
def test_writer_refuses_what_the_reference_refuses(obj):
    try:
        expected = reference_dumps(obj)
    except TypeError:
        with pytest.raises(TypeError):
            nonlinritz.cli._dumps(obj)
    else:
        assert nonlinritz.cli._dumps(obj) == expected


def test_writer_formats_each_distinct_grid_coordinate_once(count_calls):
    # a (2939, 2) minimiser grid over 55 distinct coordinates, both zeros
    # among them: at most 55 numbers are formatted
    coords = np.concatenate([[-0.0, 0.0], np.linspace(0.05, 1.25, 53)])
    grid = coords[np.random.default_rng(0).integers(0, coords.size, (2939, 2))]
    calls = count_calls("_number", nonlinritz.cli)
    text = nonlinritz.cli._dumps({"minimisers": grid})
    assert len(calls) == 55
    assert text == reference_dumps({"minimisers": grid})
    assert re.search(r"^ *-0,?$", text, re.M) and re.search(r"^ *0,?$", text, re.M)


# ---------------------------------------------------------------------------
# error paths and the environment knob
# ---------------------------------------------------------------------------


def test_parser_is_built_once_and_parses_alike(capsys):
    assert nonlinritz.cli._build_parser() is nonlinritz.cli._build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("the following arguments are required: --config") == 2


def test_invalid_json_reports_line(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{\n "problem": {,}\n}\n')
    assert main(["run", "--config", str(p), "--out-dir", str(tmp_path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out-dir", str(tmp_path)]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_schema_violation_is_config_error(tmp_path, capsys):
    data = _base_config()
    data["family"]["kind"] = "wavelets"
    cfg_path = _write_cfg(tmp_path, data)
    assert main(["run", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 2
    assert "family" in capsys.readouterr().err


@pytest.mark.parametrize("section, value, path", [
    ("certify", {"L_bar": "x"}, "certify.L_bar: expected a number"),
    ("oracle", {"kind": "points", "points": [["a", 1]], "K_star": 0.0}, "oracle.points[0]"),
    # JSON NaN on a chained domain
    ("domain", {"lower": [0.1, 0.1], "upper": [0.9, 0.9], "chains": [[0, 1]], "gap": float("nan")},
     "domain.gap: expected a number, got nan"),
    # a 1-d minimiser for the 2-d domain
    ("oracle", {"kind": "points", "points": [[0.3]], "K_star": 0.0},
     "oracle.points: expected 2 coordinates"),
    ("oracle", {"kind": "sphere", "center": [0.0], "radius": 1.0, "K_star": 0.0},
     "oracle.center: expected 2 coordinates"),
    # a start the run could not take
    ("init", {"xi0": [0.45]}, "init.xi0: expected 2 coordinates"),
    ("init", {"xi0": [0.05, 0.55]},
     "init.xi0: outside the admissible domain: xi[0]=0.05 below lower bound 0.1"),
    ("init", {"xi0": [0.45, 0.55], "w0": [1.0]}, "init.w0: expected 2 coefficients"),
])
def test_malformed_value_is_config_error(tmp_path, capsys, section, value, path):
    data = _base_config()
    data[section] = value
    cfg_path = _write_cfg(tmp_path, data)
    assert main(["run", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 2
    assert path in capsys.readouterr().err


def _circle_without_w0():
    data = _circle_config()
    del data["init"]["w0"]
    return data


def _base_with_long_diag():
    data = _base_config()
    data["geometry"] = {"kind": "diagonal", "diag": [1.0, 1.0, 1.0]}
    return data


def _grid_with_no_pairs():
    data = _base_config()
    data["schedule"] = {"kind": "lipschitz", "zeta": 0.9, "n_pairs": 0}
    data["oracle"] = {"kind": "grid", "resolution": 0.1}
    return data


def _base_certifying(**certify):
    data = _base_config()
    data["certify"] = certify
    return data


@pytest.mark.parametrize("sub", ["grid", "run", "certify", "check"])
@pytest.mark.parametrize("make, message", [
    # without coefficients a frozen survey would grade the reduced energy
    (_circle_without_w0, "init.w0: the frozen linear rule needs initial coefficients"),
    # refused before the initial solve, not at the first prox step
    (_base_with_long_diag, "geometry.diag: expected 2 coordinates, the domain's, got 3"),
    # refused when the config is read, not first by run's Lipschitz estimate
    (_grid_with_no_pairs, "schedule: n_pairs must be at least 1, got 0"),
    # refused when the config is read, not by run's summary after the whole
    # optimisation, nor passed by cea with an infinite bound
    (lambda: _base_certifying(nu=2), "certify.nu: nu must lie in (0, 1], got 2.0"),
    (lambda: _base_certifying(L=-1), "certify.L: expected a nonnegative number, got -1"),
    (lambda: _base_certifying(eps_target=-1),
     "certify.eps_target: expected a nonnegative number, got -1"),
    (lambda: _base_certifying(zeta=0), "certify.zeta: expected a positive number, got 0"),
])
def test_every_subcommand_refuses_the_config(tmp_path, capsys, sub, make, message):
    cfg_path = _write_cfg(tmp_path, make())
    out = tmp_path / "out"
    assert main([sub, "--config", cfg_path, "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


def _hoelder_fit(eps_holder, lipschitz):
    """Indicator-pair fit of a two-step target under a nu = 1/2 step rule."""
    return {
        "problem": {"kind": "l2", "x_lo": 0.0, "x_hi": 1.0,
                    "target": "0.9*step(x-0.2)*step(0.5-x) + 0.4*step(x-0.5)*step(0.85-x)",
                    "breakpoints": [0.2, 0.5, 0.85]},
        "constants": {"alpha": 1.0, "norm_a": 1.0, "norm_ell": 1.0},
        "quadrature": {"n_panels": 20, "order": 3},
        "family": {"kind": "indicator_pair"},
        "domain": {"lower": [0.0] * 3, "upper": [1.0] * 3, "chains": [[0, 1, 2]],
                   "gap": 0.04},
        "schedule": {"kind": "lipschitz", "zeta": 0.5, "lipschitz": lipschitz, "nu": 0.5,
                     "eps_holder": eps_holder},
        "stopping": {"max_epochs": 40},
        "init": {"xi0": [0.1, 0.55, 0.9]},
        "certify": {"K_star_lower": -0.1495},
    }


@pytest.mark.parametrize("eps_holder, lipschitz, rc, margins", [
    # the steps are sized for a rise of up to eps_holder each, and keep it
    (0.1, "estimate", 0, {"energy-monotone": 0.0803, "local-rate": 0.8628}),
    # a declared constant too small for the run: rises reach 0.0163
    (1e-3, 1.0, 1, {"energy-monotone": -0.0153, "local-rate": -0.0198}),
])
def test_certify_grants_the_hoelder_slack(tmp_path, eps_holder, lipschitz, rc, margins):
    cfg_path = _write_cfg(tmp_path, _hoelder_fit(eps_holder, lipschitz))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out-dir", str(out)]) == 0
    assert main(["certify", "--config", cfg_path, "--out-dir", str(out)]) == rc
    entries = {e["name"]: e for e in json.loads(_read(out / "report.json"))["entries"]}
    assert [name for name, e in entries.items() if e["status"] == "fail"] == (
        [] if rc == 0 else list(margins))
    for name, margin in margins.items():
        assert entries[name]["margin"] == pytest.approx(margin, abs=1e-4), name


def _seeded(seed=None, schedule_seed=None):
    data = _base_config()
    if seed is not None:
        data["seed"] = seed
    if schedule_seed is not None:
        data["schedule"]["seed"] = schedule_seed
    return data


@pytest.mark.parametrize("sub", ["grid", "run", "certify", "check"])
@pytest.mark.parametrize("data, flags, message", [
    (_seeded(), ["--seed", "-1"], "seed: expected a non-negative integer, got -1"),
    (_seeded(seed=-1), [], "seed: expected a non-negative integer, got -1"),
    (_seeded(schedule_seed=-3), [], "schedule.seed: expected a non-negative integer, got -3"),
], ids=["flag", "config", "schedule"])
def test_negative_seeds_are_config_errors(tmp_path, capsys, sub, data, flags, message):
    # numpy refuses negative seeds; the schema reports them first
    cfg_path = _write_cfg(tmp_path, data)
    assert main([sub, "--config", cfg_path, "--out-dir", str(tmp_path / "out"), *flags]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_hats_without_their_chain_are_a_config_error(tmp_path, capsys):
    data = _base_config()
    data["family"] = {"kind": "free_knot_hats"}
    cfg_path = _write_cfg(tmp_path, data)
    assert main(["run", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 2
    assert "need ordered knots: the domain must hold the one chain [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_numerical_failure_exit_code(tmp_path, capsys):
    data = _base_config()
    data["constants"]["omega_min"] = 1e9  # unattainable solvability floor
    cfg_path = _write_cfg(tmp_path, data)
    assert main(["run", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_main_leaves_environment_unchanged(tmp_path, monkeypatch):
    cfg_path = _write_cfg(tmp_path, _base_config())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    before = dict(os.environ)
    assert main(["run", "--config", cfg_path, "--out-dir", str(tmp_path / "out")]) == 0
    assert dict(os.environ) == before


def _fd_hats_config():
    m = 5
    return {
        "problem": {"kind": "diffusion_reaction",
                    "diffusivity": "1 + 0.25*sin(2*pi*x)", "reaction": 1.25,
                    "source": "1 + 8*gauss(x, 0.5, 0.08)", "x_lo": 0.0, "x_hi": 1.0},
        "constants": {"alpha": 1.0, "norm_a": 1.0, "norm_ell": 1.0},
        "quadrature": {"n_panels": 16, "order": 5},
        "family": {"kind": "free_knot_hats", "dirichlet": True},
        "domain": {"lower": [0.02] * m, "upper": [0.98] * m,
                   "chains": [list(range(m))], "gap": 0.01},
        "gradient": {"mode": "fd"},
        "schedule": {"kind": "lipschitz", "zeta": 0.5, "lipschitz": 2.0},
        "stopping": {"max_epochs": 40},
        "init": {"xi0": [0.15, 0.3, 0.5, 0.7, 0.85]},
    }


def test_check_differences_with_the_configured_step(tmp_path, capsys):
    # check's reduced gradient comes from the configured oracle, fd_step
    # included: a step of 1e-3 is too coarse for the check's 1e-4 tolerance
    codes, lines = [], []
    for step in (1e-6, 1e-3):
        data = _fd_hats_config()
        data["gradient"]["fd_step"] = step
        codes.append(main(["check", "--config", _write_cfg(tmp_path, data),
                           "--out-dir", str(tmp_path)]))
        lines += [line for line in capsys.readouterr().out.splitlines()
                  if "reduced-gradient-fd" in line]
    assert codes == [0, 1]
    assert len(lines) == 2 and lines[0] != lines[1]


def _analytic_bumps_config():
    data = _base_config()
    data["stopping"] = {"max_epochs": 400, "eps_xi": 0.9 / 5.0 * 1e-3}
    data["certify"] = {"L": 5.0, "nu": 1.0, "eps_target": 1e-3}
    return data


@pytest.mark.parametrize("make", [_analytic_bumps_config, _fd_hats_config],
                         ids=["analytic", "fd"])
def test_certify_replays_the_written_states_in_blocks(tmp_path, monkeypatch, count_calls, make):
    """certify runs nothing again: it assembles the written states in
    stacked blocks, plus, on the fd route, the gradients' probe blocks."""
    data = make()
    cfg_path = _write_cfg(tmp_path, data)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg_path, "--out-dir", out]) == 0
    summary = json.loads(_read(os.path.join(out, "summary.json")))
    if make is _analytic_bumps_config:
        # the stopped-point residual comes from the run, not a re-assembly
        assert summary["termination"] == "xi_stabilised"
        assert summary["quasi_stationarity_level"] is not None

    def refuse(*args, **kwargs):
        raise AssertionError("certify must not run the optimisation again")

    monkeypatch.setattr(nonlinritz.cli, "run", refuse)
    if make is _analytic_bumps_config:
        # blocks of a few states, so that the count tells blocks from states
        monkeypatch.setattr(nonlinritz.assembly, "_STACK_ELEMENTS", 2_000)
    calls = count_calls("assemble", nonlinritz.cli, nonlinritz.certify,
                        nonlinritz.optimizer, nonlinritz.updates)
    assert main(["certify", "--config", cfg_path, "--out-dir", out]) == 0
    report = json.loads(_read(os.path.join(out, "report.json")))
    assert all(e["status"] != "fail" for e in report["entries"])
    if make is _analytic_bumps_config:
        assert [e["status"] for e in report["entries"]
                if e["name"] == "surrogate-level"] == ["pass"]

    cfg = parse_config(data)
    states = np.load(os.path.join(out, "iterates.npy"))[:, :cfg.family.n_nonlinear]
    n = len(states)
    assert n == summary["iterations"] + 1 > 2
    block = stack_slices(cfg.problem, cfg.rule, cfg.family, states)[0].stop
    expected = math.ceil(n / block)
    if make is _fd_hats_config:
        probes = np.repeat(states[:1], 2 * states.shape[1] * (n - 1), axis=0)
        expected += math.ceil(len(probes) / stack_slices(
            cfg.problem, cfg.rule, cfg.family, probes)[0].stop)
    assert len(calls) == expected
    if make is _analytic_bumps_config:
        assert expected > 1


def test_console_script_is_installed(tmp_path):
    exe = shutil.which("nonlinritz")
    assert exe, "console script not on PATH"
    cfg_path = _write_cfg(tmp_path, _base_config())
    out = tmp_path / "out"
    proc = subprocess.run(
        [exe, "run", "--config", cfg_path, "--out-dir", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "trace.csv").exists()


def test_check_on_a_chain_loads_no_scipy(tmp_path):
    # the prox-optimality battery meets active chain and bound constraints,
    # and measures the distance to their normal cone with numpy alone
    m = 6
    data = {
        "problem": {"kind": "l2", "target": "sin(6.5*x)", "x_lo": 0.0, "x_hi": 1.0},
        "constants": {"alpha": 1.0, "norm_a": 1.0, "norm_ell": 1.0},
        "family": {"kind": "free_knot_hats"},
        "domain": {"lower": [0.005] * m, "upper": [0.995] * m,
                   "chains": [list(range(m))], "gap": 0.001},
        "schedule": {"kind": "lipschitz", "zeta": 0.5, "lipschitz": 2.0},
        "stopping": {"max_epochs": 2},
        "init": {"xi0": [0.15, 0.3, 0.45, 0.6, 0.75, 0.9]},
    }
    cfg_path = _write_cfg(tmp_path, data)
    src = os.path.dirname(os.path.dirname(nonlinritz.cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, nonlinritz.cli\n"
         f"rc = nonlinritz.cli.main(['check', '--config', {cfg_path!r}, "
         f"'--out-dir', {str(tmp_path)!r}])\n"
         "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), check=True,
    )
    assert "[PASS] prox-optimality" in proc.stdout
    assert proc.stdout.strip().splitlines()[-1] == "0 []"


def test_import_and_reduced_energy_load_no_scipy():
    # nothing the package runs imports scipy; loading it would double the
    # import time
    src = os.path.dirname(os.path.dirname(nonlinritz.cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, nonlinritz as nr, nonlinritz.cli\n"
         "fam = nr.GaussianBumps(nr.NonlinearDomain([0.1], [0.9]), [0.1])\n"
         "nr.reduced_energy(nr.L2Approx(nr.Field(lambda x: 0.0 * x + 1.0)),\n"
         "                  nr.QuadratureRule.on_interval(0.0, 1.0), fam, [0.5])\n"
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.strip() == "[]"
