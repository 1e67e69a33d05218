"""One workload process of the benchmark; started by run.py, never by hand.

Modes::

    worker.py setup OUT_DIR
        time `import nonlinritz` plus parsing every config under OUT_DIR

    worker.py measure|trace WORKLOAD SEED SECONDS OUT_DIR
        run rounds of the workload's subcommands through
        nonlinritz.cli.main in this process for SECONDS seconds

Every round runs the same operations.  Round 0 is also checked against
the reference computations; later rounds must reproduce its artifacts
byte for byte.  ``measure`` times untraced rounds.  ``trace`` alternates
untraced and traced rounds and reports per-layer figures from the traced
ones.  The last line of standard output is one JSON object.
"""

import json
import sys
import time

T_START = time.perf_counter()

import glob  # noqa: E402
import os  # noqa: E402


def setup(out_dir):
    import nonlinritz  # noqa: F401
    from nonlinritz.config import load_config

    for path in sorted(glob.glob(os.path.join(out_dir, "*", "config.json"))):
        load_config(path)
    return time.perf_counter() - T_START


if len(sys.argv) == 3 and sys.argv[1] == "setup":
    print(json.dumps({"setup_s": setup(sys.argv[2])}))
    sys.exit(0)

import contextlib  # noqa: E402
import io  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import nonlinritz  # noqa: E402
import nonlinritz.cli  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def environment():
    """Versions, cores and whether BLAS really runs on one thread."""
    a = np.random.default_rng(0).standard_normal((400, 400))
    a @ a
    wall, cpu = time.perf_counter(), time.process_time()
    for _ in range(20):
        a @ a
    ratio = (time.process_time() - cpu) / (time.perf_counter() - wall)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_cpu_per_wall": round(ratio, 3),
        "single_thread_cap_held": ratio < 1.3,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Workload:
    def __init__(self, name, seed, out_dir):
        self.jobs = workloads.jobs(name, seed)
        self.out_dir = out_dir
        self.ops = [(job, sub) for job in self.jobs for sub in job.subcommands]
        self.baseline = {}     # artifact bytes of round 0, per (job, file)
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self.energy_drop = 0.0

    def job_dir(self, job):
        return os.path.join(self.out_dir, job.name)

    def call(self, job, sub):
        d = self.job_dir(job)
        args = [sub, "--config", os.path.join(d, "config.json"), "--out-dir", d]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            t0 = time.perf_counter()
            rc = nonlinritz.cli.main(args)
            dt = time.perf_counter() - t0
        return rc, dt, buf.getvalue()

    def artifacts(self, job):
        out = {}
        for name in ("trace.csv", "summary.json", "report.json", "oracle.json"):
            path = os.path.join(self.job_dir(job), name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    out[name] = fh.read()
        return out

    def round(self, first):
        """One pass over every operation; returns seconds per subcommand."""
        times = dict.fromkeys(workloads.SUBCOMMANDS, 0.0)
        records = {}
        if first:
            orig_run = nonlinritz.cli.run

            def capture(*args, **kwargs):
                rec = orig_run(*args, **kwargs)
                records.setdefault(current[0], rec)
                return rec

            nonlinritz.cli.run = capture
        current = [None]
        try:
            for job, sub in self.ops:
                current[0] = (job.name, sub)
                rc, dt, text = self.call(job, sub)
                times[sub] += dt
                self.attempted += 1
                failed = self.judge(job, sub, rc, text, records, first)
                self.failed += failed
        finally:
            if first:
                nonlinritz.cli.run = orig_run
        return times

    def judge(self, job, sub, rc, text, records, first):
        """Check one operation; returns 1 when it failed the expected way."""
        where = f"{job.name}/{sub}"
        errs, failed = [], False
        if sub == "certify" and rc in (0, 1):
            with open(os.path.join(self.job_dir(job), "report.json")) as fh:
                errs, failed = reference.check_certify(job, rc, json.load(fh))
        elif rc != 0:
            errs = [f"exited {rc}: {text.strip().splitlines()[-1:]}"]
        if first and not errs:
            art = self.artifacts(job)
            if sub == "run":
                summary = json.loads(art["summary.json"])
                trace = art["trace.csv"].decode()
                rec = records[(job.name, "run")]
                errs += reference.check_run(job, rc, summary, rec.best_xi, trace)
                self.energy_drop += reference.trace_first_reduced(trace) - summary["best_energy"]
            elif sub == "grid":
                errs += reference.check_grid(job, json.loads(art["oracle.json"]))
            elif sub == "check":
                errs += reference.check_check(rc, text)
            for name, data in art.items():
                self.baseline.setdefault((job.name, name), data)
        elif not errs:
            for name, data in self.artifacts(job).items():
                if self.baseline.get((job.name, name), data) != data:
                    errs.append(f"{name} differs from round 0")
        self.errors += [f"{where}: {e}" for e in errs]
        return int(failed)


def layer_metrics(s, steps, grid_points):
    """Per-layer figures from one traced round's span summary."""

    def get(name, field):
        return s.get(name, {}).get(field, 0)

    def group(suffix, field, layer="basis"):
        return sum(v[field] for k, v in s.items()
                   if k.startswith(layer + ".") and k.endswith("." + suffix))

    per_step = (lambda n: n / steps) if steps else (lambda n: 0.0)
    certs = [k for k in s if k.startswith("certify.") and k.endswith("_certificate")]
    cli_self = sum(v["self_s"] for k, v in s.items() if k.startswith("cli."))
    samples = get("basis.NonlinearDomain.sample", "calls")
    return {
        "basis.dparam_values.calls": (group("dparam_values", "calls"), "count"),
        "basis.dparam_values.self_s": (group("dparam_values", "self_s"), "s"),
        "basis.sample.calls": (samples, "count"),
        "basis.sample.self_s": (get("basis.NonlinearDomain.sample", "self_s"), "s"),
        "basis.sample.tries_per_draw": (
            get("basis.NonlinearDomain.contains", "under_sample") / samples if samples else 0.0,
            "tries/draw"),
        "basis.contains.self_s": (get("basis.NonlinearDomain.contains", "self_s"), "s"),
        "basis.project.self_s": (get("basis.NonlinearDomain.project", "self_s"), "s"),
        "updates.grad_xi.calls": (get("updates.EnergyGradients.grad_xi", "calls"), "count"),
        "updates.grad_xi.self_s": (get("updates.EnergyGradients.grad_xi", "self_s"), "s"),
        "assembly.assemble.calls": (get("assembly.assemble", "calls"), "count"),
        "assembly.assemble.self_s": (get("assembly.assemble", "self_s"), "s"),
        "assembly.assemble_per_step": (
            per_step(get("assembly.assemble", "inside_run")), "calls/step"),
        "assembly.eigh.calls": (get("assembly.eigh", "calls"), "count"),
        "assembly.eigh.self_s": (get("assembly.eigh", "self_s"), "s"),
        "assembly.eigh_per_step": (per_step(get("assembly.eigh", "inside_run")), "calls/step"),
        "basis.basis_values.calls": (group("basis_values", "calls"), "count"),
        "basis.basis_values.self_s": (group("basis_values", "self_s"), "s"),
        "basis.basis_derivs.self_s": (group("basis_derivs", "self_s"), "s"),
        "variational.split_at.calls": (get("variational.QuadratureRule.split_at", "calls"),
                                       "count"),
        "variational.split_at.self_s": (get("variational.QuadratureRule.split_at", "self_s"),
                                        "s"),
        "variational.field_values.self_s": (get("variational.field_values", "self_s"), "s"),
        "updates.conjugate_gradient.calls": (get("updates.conjugate_gradient", "calls"),
                                             "count"),
        "updates.conjugate_gradient.self_s": (get("updates.conjugate_gradient", "self_s"),
                                              "s"),
        "optimizer.reduced_energy.calls": (get("optimizer.reduced_energy", "calls"), "count"),
        "optimizer.reduced_energy.self_s": (get("optimizer.reduced_energy", "self_s"), "s"),
        "optimizer.reduced_energy_per_step": (
            per_step(get("optimizer.reduced_energy", "inside_run")), "calls/step"),
        "updates.prox_step.self_s": (get("updates.prox_step", "self_s"), "s"),
        "updates.prox_optimality_residual.self_s": (
            get("updates.prox_optimality_residual", "self_s"), "s"),
        "optimizer.run.self_s": (get("optimizer.run", "self_s"), "s"),
        "optimizer.estimate_lipschitz_L.total_s": (
            get("optimizer.estimate_lipschitz_L", "total_s"), "s"),
        "optimizer.steps": (steps, "count"),
        "certify.minimiser_grid_oracle.calls": (
            get("certify.minimiser_grid_oracle", "calls"), "count"),
        "certify.minimiser_grid_oracle.total_s": (
            get("certify.minimiser_grid_oracle", "total_s"), "s"),
        "certify.grid_points": (grid_points, "count"),
        "certify.delta_star.self_s": (get("certify.delta_star", "self_s"), "s"),
        "certify.certificates.total_s": (sum(s[k]["total_s"] for k in certs), "s"),
        "config.parse_config.total_s": (get("config.parse_config", "total_s"), "s"),
        "cli.self_s": (cli_self, "s"),
        "cli.render_trace.total_s": (get("cli.render_trace", "total_s"), "s"),
    }


def measure(wl, seconds):
    rounds = []
    t_end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        rounds.append(wl.round(first=not rounds))
        if 2.0 * time.perf_counter() - t0 > t_end:  # the next round would overrun
            break
    metrics = {f"{sub}_s": (statistics.median(r[sub] for r in rounds), "s")
               for sub in workloads.SUBCOMMANDS}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB")
    metrics["energy_drop"] = (wl.energy_drop, "energy")
    return metrics, {"rounds": len(rounds), "round_times": rounds}


def trace(wl, seconds):
    tracer = Tracer()
    plain, traced, layers = [], [], []
    t_end = time.perf_counter() + seconds
    wl.round(first=True)
    while True:
        t0 = time.perf_counter()
        plain.append(sum(wl.round(first=False).values()))
        tracer.reset()
        tracer.install()
        try:
            traced.append(sum(wl.round(first=False).values()))
        finally:
            tracer.restore()
        layers.append(layer_metrics(tracer.summary(), tracer.steps, tracer.grid_points))
        if 2.0 * time.perf_counter() - t0 > t_end:  # the next pair would overrun
            break
    tracer.save(os.path.join(wl.out_dir, "spans.npz"))
    metrics = {}
    for key, (_, unit) in layers[0].items():
        values = [m[key][0] for m in layers]
        if unit == "s":
            metrics[key] = (statistics.median(values), unit)
        else:
            if len(set(values)) != 1:
                wl.errors.append(f"count {key} differs between traced rounds: {values}")
            metrics[key] = (values[-1], unit)
    metrics["package.import_s"] = (IMPORT_S, "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return metrics, {"rounds": 1 + len(plain) + len(traced), "plain_s": plain,
                     "traced_s": traced}


def main():
    mode, name, seed, seconds, out_dir = sys.argv[1:6]
    env = environment()
    wl = Workload(name, int(seed), out_dir)
    fn = measure if mode == "measure" else trace
    metrics, rounds = fn(wl, float(seconds))
    print(json.dumps(dict(
        rounds,
        correct=not wl.errors,
        errors=wl.errors[:20],
        attempted=wl.attempted,
        failed=wl.failed,
        environment=env,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )))


if __name__ == "__main__":
    main()
