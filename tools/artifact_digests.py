"""Digests of every CLI operation on the bench jobs and the demo configs.

    python3 tools/artifact_digests.py CHECKOUT OUT SEED [SEED ...]
    python3 tools/artifact_digests.py compare OUT_A OUT_B

Imports ``nonlinritz`` from ``CHECKOUT/src`` and the job generator from
``CHECKOUT/bench``, writes the config of every bench job of both workloads
at each SEED, and of every demo config, into its own directory under OUT,
and runs each job's subcommands (each demo config gets all four) through
``nonlinritz.cli.main`` in this process.  It prints one line per
operation: its name, exit code, the SHA-256 of what it printed (stdout and
stderr, OUT replaced by a placeholder) and of every file its directory then
holds besides the config.  Then it runs each ``demos/*.py`` script of
CHECKOUT in a subprocess with ``PYTHONPATH=CHECKOUT/src`` and prints its
exit code and the SHA-256 of its stdout.  Two checkouts that print the same
lines produced the same bytes: run it on both and compare the outputs with
``diff``.  The printed lines are also written to ``OUT/digests.txt``.

``compare`` is for changes that may move the last bits of results.  It
reads two such OUT directories and requires, operation by operation,
equal exit codes; per certificate report (``report.json``,
``check.json``) equal verdicts and equal entry names, anchors and
statuses in order; per run (``summary.json``, ``trace.csv``) equal
iteration counts and terminations; and per grid oracle (``oracle.json``)
equal minimiser sets; and per run equal shapes of the written states
(``iterates.npy``).  It prints, per directory and overall, the largest
relative difference of ``best_energy``, of the trace's ``K`` column, of
``K_star`` and of the entries of the written states, then each mismatch,
and exits 1 if there is one.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np

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


def demo_scripts(checkout):
    """``(name, exit code, stdout)`` of every demo script, each run alone."""
    demos = os.path.join(checkout, "demos")
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    for name in sorted(f for f in os.listdir(demos) if f.endswith(".py")):
        done = subprocess.run([sys.executable, os.path.join(demos, name)], env=env,
                              capture_output=True, check=False)
        yield f"demo-{name}", done.returncode, done.stdout


def main(argv):
    if len(argv) == 3 and argv[0] == "compare":
        return compare(*argv[1:])
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    checkout, out = (os.path.abspath(a) for a in argv[:2])
    seeds = [int(s) for s in argv[2:]]
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "bench")]
    import nonlinritz.cli

    shutil.rmtree(out, ignore_errors=True)
    lines = []
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
        lines.append(f"{name} {sub} rc={rc} stdout={sha(text.encode())} {' '.join(files)}")
        print(lines[-1])
    for name, rc, stdout in demo_scripts(checkout):
        lines.append(f"{name} script rc={rc} stdout={sha(stdout)}")
        print(lines[-1])
    with open(os.path.join(out, "digests.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def _exit_codes(out):
    """``{(directory, subcommand): exit code}`` from ``OUT/digests.txt``."""
    with open(os.path.join(out, "digests.txt")) as fh:
        rows = [line.split()[:3] for line in fh if line.strip()]
    return {(name, sub): rc for name, sub, rc in rows}


def _load(d, name):
    """The parsed file ``name`` of directory ``d``, or None if it is absent."""
    path = os.path.join(d, name)
    if not os.path.exists(path):
        return None
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh)) if name.endswith(".csv") else json.load(fh)


def _rel(a, b) -> float:
    """``|a - b| / max(|a|, |b|)``; 0 for equal values, NaN and None included."""
    if a == b or (a != a and b != b):
        return 0.0
    if a is None or b is None:
        return float("inf")
    return abs(a - b) / max(abs(a), abs(b))


def _differences(a, b):
    """``(mismatches, {quantity: worst relative difference})`` of two directories."""
    bad, worst, both = [], {}, {}
    for name in ("report.json", "check.json", "summary.json", "trace.csv", "oracle.json"):
        fa, fb = _load(a, name), _load(b, name)
        if (fa is None) != (fb is None):
            bad.append(f"{name} present on one side only")
        elif fa is not None:
            both[name] = fa, fb
    for name in ("report.json", "check.json"):
        if name in both:
            ra, rb = both[name]
            keys = [[(e["name"], e["anchor"], e["status"]) for e in r["entries"]] for r in (ra, rb)]
            if ra["passed"] != rb["passed"] or keys[0] != keys[1]:
                bad.append(f"{name}: verdicts, names, anchors or statuses differ")
    if "summary.json" in both:
        sa, sb = both["summary.json"]
        for key in ("iterations", "termination"):
            if sa[key] != sb[key]:
                bad.append(f"summary.json {key}: {sa[key]!r} vs {sb[key]!r}")
        worst["best_energy"] = _rel(sa["best_energy"], sb["best_energy"])
    if "trace.csv" in both:
        ta, tb = both["trace.csv"]
        if len(ta) != len(tb):
            bad.append(f"trace.csv: {len(ta)} vs {len(tb)} rows")
        worst["K"] = max((_rel(float(x["K"]), float(y["K"])) for x, y in zip(ta, tb)),
                         default=0.0)
    if "oracle.json" in both:
        oa, ob = both["oracle.json"]
        if sorted(map(tuple, oa["minimisers"])) != sorted(map(tuple, ob["minimisers"])):
            bad.append("oracle.json: minimiser sets differ")
        worst["K_star"] = _rel(oa["K_star"], ob["K_star"])
    states = [os.path.join(d, "iterates.npy") for d in (a, b)]
    if os.path.exists(states[0]) != os.path.exists(states[1]):
        bad.append("iterates.npy present on one side only")
    elif os.path.exists(states[0]):
        sa, sb = (np.load(path) for path in states)
        if sa.shape != sb.shape:
            bad.append(f"iterates.npy: shapes {sa.shape} vs {sb.shape}")
        else:
            worst["iterates"] = max(map(_rel, sa.ravel().tolist(), sb.ravel().tolist()),
                                    default=0.0)
    return bad, worst


def compare(out_a, out_b) -> int:
    codes_a, codes_b = _exit_codes(out_a), _exit_codes(out_b)
    one_side = sorted(set(codes_a) ^ set(codes_b))
    mismatches = [f"operations on one side only: {one_side}"] if one_side else []
    mismatches += [f"{name} {sub}: {codes_a[name, sub]} vs {codes_b[name, sub]}"
                   for name, sub in sorted(set(codes_a) & set(codes_b))
                   if codes_a[name, sub] != codes_b[name, sub]]
    overall = {}
    for name in sorted({name for name, _ in codes_a} & {name for name, _ in codes_b}):
        bad, worst = _differences(os.path.join(out_a, name), os.path.join(out_b, name))
        mismatches += [f"{name}: {m}" for m in bad]
        print(name, " ".join(f"{q}={v:.3g}" for q, v in worst.items()))
        for q, v in worst.items():
            if v >= overall.get(q, (-1.0, ""))[0]:
                overall[q] = (v, name)
    for q, (v, name) in overall.items():
        print(f"worst {q}: {v:.3g} ({name})")
    for m in mismatches:
        print(f"MISMATCH {m}")
    print(f"{len(codes_a)} operations, {len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
