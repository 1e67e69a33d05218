"""Self-test of the benchmark's output checks.

Runs the CLI on small versions of the workload inputs, confirms that every
check in reference.py accepts the genuine artifacts, then perturbs an
energy, a parameter point, a minimiser set or a verdict and confirms that
the matching check rejects it.  Usage, from the root of a checkout::

    python3 bench/selftest.py

Exits 0 when every check behaves, 1 otherwise.  Writes under .bench_out/.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import nonlinritz.cli  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(ROOT, ".bench_out", "selftest")


class Case:
    def __init__(self, job, **changes):
        cfg = copy.deepcopy(job.config)
        for path, value in changes.items():
            node = cfg
            keys = path.split("__")
            for k in keys[:-1]:
                node = node[k]
            node[keys[-1]] = value
        self.job = workloads.Job(job.name, cfg, job.subcommands, job.expected_failure,
                                 job.K_min, job.minimisers)
        self.dir = os.path.join(OUT, job.name)
        os.makedirs(self.dir, exist_ok=True)
        with open(os.path.join(self.dir, "config.json"), "w") as fh:
            json.dump(cfg, fh)
        self.best_xi = None

    def cli(self, sub):
        args = [sub, "--config", os.path.join(self.dir, "config.json"), "--out-dir", self.dir]
        orig, case = nonlinritz.cli.run, self

        def capture(*a, **k):
            rec = orig(*a, **k)
            if case.best_xi is None:
                case.best_xi = rec.best_xi
            return rec

        buf = io.StringIO()
        nonlinritz.cli.run = capture
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = nonlinritz.cli.main(args)
        finally:
            nonlinritz.cli.run = orig
        return rc, buf.getvalue()

    def read(self, name):
        with open(os.path.join(self.dir, name)) as fh:
            return fh.read()


results = []


def expect(label, errors, reject):
    ok = bool(errors) == reject
    results.append(ok)
    verdict = "rejected" if errors else "accepted"
    print(f"[{'ok' if ok else 'WRONG'}] {label}: {verdict}"
          + (f" ({errors[0]})" if errors else ""))


def grid_cases(case):
    rc, _ = case.cli("grid")
    oracle = json.loads(case.read("oracle.json"))
    expect(f"{case.job.name} grid, genuine oracle",
           ([f"grid exited {rc}"] if rc else []) + reference.check_grid(case.job, oracle),
           reject=False)
    bad = dict(oracle, K_star=oracle["K_star"] + 1e-6 * (1.0 + abs(oracle["K_star"])))
    expect(f"{case.job.name} grid, K_star raised by 1e-6", reference.check_grid(case.job, bad),
           reject=True)
    pts, vals, _ = reference.survey(case.job.config)
    best = pts[int(np.argmin(vals))]
    mins = [p for p in oracle["minimisers"] if not np.allclose(p, best)]
    expect(f"{case.job.name} grid, grid minimiser removed",
           reference.check_grid(case.job, dict(oracle, minimisers=mins)), reject=True)
    worst = pts[int(np.argmax(vals))].tolist()
    expect(f"{case.job.name} grid, highest point added as a minimiser",
           reference.check_grid(case.job, dict(oracle, minimisers=oracle["minimisers"] + [worst])),
           reject=True)


def run_cases(case):
    rc, _ = case.cli("run")
    summary, trace = json.loads(case.read("summary.json")), case.read("trace.csv")
    name = case.job.name
    expect(f"{name} run, genuine summary",
           reference.check_run(case.job, rc, summary, case.best_xi, trace), reject=False)
    bad = dict(summary, best_energy=summary["best_energy"] * (1.0 + 1e-6))
    expect(f"{name} run, best_energy off by 1e-6 relative",
           reference.check_run(case.job, rc, bad, case.best_xi, trace), reject=True)
    moved = case.best_xi + 1e-3 * (-1.0) ** np.arange(case.best_xi.size)
    expect(f"{name} run, best parameters moved by 1e-3",
           reference.check_run(case.job, rc, summary, moved, trace), reject=True)


def certify_cases(case):
    rc, _ = case.cli("certify")
    report = json.loads(case.read("report.json"))
    errors, failed = reference.check_certify(case.job, rc, report)
    expect(f"{case.job.name} certify, genuine report", errors, reject=False)
    print(f"     counted as the expected failure: {failed}")
    for target in ("trace-consistency", "linear-decrease", "lambda-max-bound"):
        entries = [dict(e, status="fail") if e["name"] == target else e
                   for e in report["entries"]]
        if entries == report["entries"]:
            continue
        bad = dict(report, entries=entries, passed=False)
        expect(f"{case.job.name} certify, {target} turned to fail",
               reference.check_certify(case.job, 1, bad)[0], reject=True)


def check_cases(case):
    rc, text = case.cli("check")
    expect(f"{case.job.name} check, genuine output", reference.check_check(rc, text),
           reject=False)
    expect(f"{case.job.name} check, a failed invariant",
           reference.check_check(1, text.replace("[PASS] assembly-psd", "[FAIL] assembly-psd")
                                 .replace("all checks passed", "invariant failures detected")),
           reject=True)


def job(workload, name):
    return next(j for j in workloads.jobs(workload, 0) if j.name == name)


def main():
    shutil.rmtree(OUT, ignore_errors=True)
    survey = Case(job("bumps", "survey-bumps"), oracle__resolution=0.05,
                  stopping__max_epochs=3)
    grid_cases(survey)
    run_cases(survey)
    check_cases(survey)
    ring = Case(job("bumps", "survey-circle"), oracle__resolution=0.1,
                stopping__max_epochs=10)
    grid_cases(ring)
    run_cases(ring)
    certify_cases(ring)
    grid_cases(Case(job("hats", "knots-grid")))
    diffusion = Case(job("hats", "diffusion-main"), stopping__max_epochs=3)
    run_cases(diffusion)
    certify_cases(diffusion)
    run_cases(Case(job("hats", "knots-smooth"), stopping__max_epochs=2))
    n_bad = results.count(False)
    print(f"{len(results)} cases, {n_bad} wrong")
    return 1 if n_bad else 0


if __name__ == "__main__":
    sys.exit(main())
