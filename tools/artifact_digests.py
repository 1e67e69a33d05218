"""Digests of every CLI operation on the bench jobs and the demo configs.

    python3 tools/artifact_digests.py CHECKOUT OUT SEED [SEED ...]

Imports ``nonlinritz`` from ``CHECKOUT/src`` and the job generator from
``CHECKOUT/bench``, writes the config of every bench job of both workloads
at each SEED, and of every demo config, into its own directory under OUT,
and runs each job's subcommands (each demo config gets all four) through
``nonlinritz.cli.main`` in this process.  It prints one line per
operation: its name, exit code, the SHA-256 of what it printed (stdout and
stderr, OUT replaced by a placeholder) and of every file its directory then
holds besides the config.  Two checkouts that print the same lines produced
the same bytes: run it on both and compare the outputs with ``diff``.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def operations(checkout, out, seeds):
    """``(name, directory, subcommand)`` per operation, each config written."""
    import workloads

    cases = []
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            for job in workloads.jobs(workload, seed):
                cases.append((f"{job.name}-seed{seed}", job.config, job.subcommands))
    demos = os.path.join(checkout, "demos", "configs")
    for name in sorted(os.listdir(demos)):
        with open(os.path.join(demos, name)) as fh:
            cases.append((f"demo-{name[:-5]}", json.load(fh), workloads.SUBCOMMANDS))
    for name, config, subcommands in cases:
        d = os.path.join(out, name)
        os.makedirs(d)
        with open(os.path.join(d, "config.json"), "w") as fh:
            json.dump(config, fh, indent=1)
        for sub in subcommands:
            yield name, d, sub


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    checkout, out = (os.path.abspath(a) for a in argv[:2])
    seeds = [int(s) for s in argv[2:]]
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "bench")]
    import nonlinritz.cli

    shutil.rmtree(out, ignore_errors=True)
    for name, d, sub in operations(checkout, out, seeds):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                rc = nonlinritz.cli.main([sub, "--config", os.path.join(d, "config.json"),
                                          "--out-dir", d])
            except SystemExit as e:
                rc = e.code
        files = []
        for f in sorted(os.listdir(d)):
            if f != "config.json":
                with open(os.path.join(d, f), "rb") as fh:
                    files.append(f"{f}={sha(fh.read())}")
        text = buf.getvalue().replace(out, "<OUT>")
        print(f"{name} {sub} rc={rc} stdout={sha(text.encode())} {' '.join(files)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
