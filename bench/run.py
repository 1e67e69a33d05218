"""Benchmark of the nonlinritz CLI: run, certify, check and grid.

Usage, from the root of a checkout::

    python3 bench/run.py --workload hats --seed 1 --seconds 50 --trace 0

Workloads: hats and bumps (see bench/README.md).  The configs are
generated from the seed into .bench_out/.  Set-up time is the
median of several fresh interpreters that import nonlinritz and parse the
configs.  The workload then runs in one more fresh interpreter, with BLAS
and OpenMP pinned to one thread before it starts.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer ones from a traced
run.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed nothing")
    return json.loads(lines[-1])


def spawn(args, env, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("out of time before starting a worker")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return last_json(proc.stdout)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "nonlinritz", "cli.py")):
        print(f"no nonlinritz sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2

    out = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    for job in workloads.jobs(args.workload, args.seed):
        os.makedirs(os.path.join(out, job.name))
        with open(os.path.join(out, job.name, "config.json"), "w") as fh:
            json.dump(job.config, fh, indent=1)

    env = child_env()
    try:
        setups = [spawn(["setup", out], env, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES)] if not args.trace else []
        mode = "trace" if args.trace else "measure"
        res = spawn([mode, args.workload, str(args.seed), str(args.seconds), out], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    metrics = res["metrics"]
    if setups:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    detail = {k: res[k] for k in ("rounds", "errors", "environment")}
    detail["setup_samples_s"] = setups
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(dict(res, metrics=metrics, setup_samples_s=setups), fh, indent=1)
    for e in res["errors"]:
        print(f"check failed: {e}")
    print("detail: " + json.dumps(detail))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
