#!/usr/bin/env python3
"""Benchmark of the zenoslh command line: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The jobs of the workload run
in-process through ``zenoslh.cli.main(argv)`` and write their outputs to
disk; every output is then checked against ``oracles.py``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See README.md in this directory.
"""

import os

# BLAS and OpenMP are pinned to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# The host-speed probe: an interpreter-driven loop of 4x4 complex
# products that does not touch zenoslh.  PROBE_REF_S is its duration at
# the reference host speed (see README).  A job time t measured between
# probes that took p1 and p2 is reported as t * (PROBE_REF_S / p)**s with
# p = (p1 + p2) / 2 and s the workload's host sensitivity.
PROBE_ITERS = 5000
PROBE_REF_S = 0.030
N_SETUP = 7          # timed fresh-interpreter launches per run
# setup_s follows the run's median probe with this exponent (see README)
SETUP_SENSITIVITY = 0.75

SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import zenoslh.cli; "
    "print(time.perf_counter() - t0, flush=True)"
)


class Host:
    """Probe timings taken between the measured operations."""

    def __init__(self, np):
        u, _ = np.linalg.qr(np.arange(16.0).reshape(4, 4) + 1j * np.cos(np.arange(16.0)).reshape(4, 4)
                            + 4 * np.eye(4))
        self._u, self._uh = u, u.conj().T
        self._x0 = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        self.probes = []

    def probe(self) -> float:
        u, uh, x = self._u, self._uh, self._x0
        t0 = perf_counter()
        for _ in range(PROBE_ITERS):
            x = u @ x @ uh
        dt = perf_counter() - t0
        self.probes.append(dt)
        return dt

    def rescale(self, t: float, sensitivity: float) -> float:
        """t measured between the last two probes, at the reference speed."""
        return t * (PROBE_REF_S / (0.5 * (self.probes[-1] + self.probes[-2]))) ** sensitivity

    def rescale_by_run(self, t: float, sensitivity: float) -> float:
        """t measured at some point of the run, at the reference speed."""
        return t * (PROBE_REF_S / statistics.median(self.probes)) ** sensitivity


def launch(env) -> tuple:
    """Launch-to-ready time of a fresh interpreter importing zenoslh.cli,
    and the import time the child measured itself."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE,
                          env=env, text=True) as p:
        line = p.stdout.readline()
        ready = perf_counter() - t0
        p.stdout.read()
    if p.returncode != 0 or not line.strip():
        raise RuntimeError(f"fresh interpreter could not import zenoslh.cli (exit {p.returncode})")
    return ready, float(line)


def run_job(job, cli_main, tracer=None) -> tuple:
    """Run a job's CLI calls in-process; return (seconds, succeeded)."""
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    t0 = perf_counter()
    ok = True
    try:
        with span("cli.job"):
            for argv in job.calls:
                with open(job.dir / f"{argv[0]}.stdout", "w") as out, \
                        contextlib.redirect_stdout(out), span("cli.main"):
                    rc = cli_main(argv)
                if rc != 0:
                    ok = False
                    break
    except Exception:
        (job.dir / "error.txt").write_text(traceback.format_exc())
        ok = False
    return perf_counter() - t0, ok


def job_bytes(job) -> int:
    """Bytes of the files the CLI wrote for one job (inputs and stdout excluded)."""
    skip = {"model.json", "gamma.json"}
    return sum(
        p.stat().st_size for p in job.dir.rglob("*")
        if p.is_file() and p.name not in skip and p.suffix != ".stdout"
    )


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    import layers
    import workloads as wl

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "zenoslh" / "cli.py").is_file():
        print(f"bench: no program source at {SRC / 'zenoslh'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import zenoslh
    import zenoslh.cli

    if Path(zenoslh.__file__).resolve().parent != (SRC / "zenoslh").resolve():
        print(f"bench: zenoslh was imported from {zenoslh.__file__}, not {SRC}", file=sys.stderr)
        return 2

    phases = {"start": perf_counter()}
    work = wl.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-trace{args.trace}-", dir=OUT))
    scratch = run_dir / "work"
    scratch.mkdir()

    # Inputs for a warm-up job plus a fixed number of timed jobs.
    n_jobs = max(4, round(args.seconds / work.nominal_job_s))
    jobs = []
    for j in range(n_jobs + 1):
        d = scratch / f"job{j:03d}"
        d.mkdir()
        jobs.append(work.make(np.random.default_rng([args.seed, j]), j, d))
    warmup, timed = jobs[0], jobs[1:]

    phases["inputs"] = perf_counter()
    host = Host(np)
    warmup_ok = run_job(warmup, zenoslh.cli.main)[1]
    # setup_s launches, spread evenly between the timed jobs: host speed
    # persists for seconds, so back-to-back launches would all sample one
    # moment.  The in-process import above has compiled the bytecode.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    launch_after = [int((i + 0.5) * len(timed) / N_SETUP) for i in range(N_SETUP)]
    setup = {"raw": [], "import_raw": []}

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    raw, scaled, traced_flags, failed = [], [], [], set()
    host.probe()
    for j, job in enumerate(timed):
        traced = tracer is not None and j % 2 == 1
        if traced:
            tracer.job = job.index
            tracer.install()
        t, ok = run_job(job, zenoslh.cli.main, tracer if traced else None)
        if traced:
            tracer.uninstall()
        host.probe()
        raw.append(t)
        scaled.append(host.rescale(t, work.host_sensitivity))
        traced_flags.append(traced)
        if not ok:
            failed.add(job.index)
        for _ in range(launch_after.count(j)):
            ready, imported = launch(env)
            setup["raw"].append(ready)
            setup["import_raw"].append(imported)
    peak_rss_mb = layers.peak_rss_mb()
    phases["jobs"] = perf_counter()

    # Checks, outside the timed region.
    problems = {} if warmup_ok else {warmup.index: ["warm-up job failed"]}
    for job in jobs:
        if job.index in failed or job.index in problems:
            continue
        try:
            errs = work.check(job, zenoslh)
        except Exception:
            errs = [traceback.format_exc()]
        if errs:
            problems[job.index] = errs
    run_problems = []
    if work.check_run is not None:
        checked = [j for j in jobs if j.index not in failed and j.index not in problems]
        try:
            run_problems = work.check_run(checked)
        except Exception:
            run_problems = [traceback.format_exc()]
    for e in run_problems:
        print(f"bench: run: {e}", file=sys.stderr)
    for idx, errs in sorted(problems.items()):
        for e in errs:
            print(f"bench: job {idx}: {e}", file=sys.stderr)
    for idx in sorted(failed):
        print(f"bench: job {idx} failed; see {scratch / f'job{idx:03d}'}", file=sys.stderr)

    phases["checks"] = perf_counter()
    ok = [j.index not in failed for j in timed]
    ok_raw = [t for t, good in zip(raw, ok) if good]
    ok_scaled = [t for t, good in zip(scaled, ok) if good]
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": len(timed), "failed": sorted(failed),
        "job_s_raw": raw, "job_s_scaled": scaled, "traced": traced_flags,
        "probe_s": host.probes, "setup": setup, "peak_rss_mb": peak_rss_mb,
        "bytes_per_job": [job_bytes(j) for j in timed],
    }
    print(f"workload {args.workload}  seed {args.seed}  jobs {len(timed)}  failed {len(failed)}")
    print(f"host.probe_s {statistics.median(host.probes):.5f} s (median of {len(host.probes)}, "
          f"reference {PROBE_REF_S} s)")

    if not args.trace:
        setup_raw = statistics.median(setup["raw"])
        setup_s = host.rescale_by_run(setup_raw, SETUP_SENSITIVITY)
        print(f"job_s_p50 {_median(ok_scaled):.5f} s (raw {_median(ok_raw):.5f} s, "
              f"jobs {len(ok_scaled)})")
        if len(ok_scaled) >= 40:
            print(f"job_s_p90 {statistics.quantiles(ok_scaled, n=10)[-1]:.5f} s "
                  f"(raw {statistics.quantiles(ok_raw, n=10)[-1]:.5f} s)")
        print(f"wall_s {sum(scaled):.4f} s (raw {sum(raw):.4f} s)")
        print(f"setup_s {setup_s:.5f} s (raw {setup_raw:.5f} s, median of {N_SETUP} launches)")
        print(f"peak_rss_mb {peak_rss_mb:.2f} MB")
        metrics = {
            "job_s_p50": metric(_median(ok_scaled), "s"),
            "wall_s": metric(sum(scaled), "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    else:
        # the overhead compares traced and untraced jobs of this run
        pairs = [(s, t) for s, t, good in zip(scaled, traced_flags, ok) if good]
        summary["traced_job_s_p50"] = _median([s for s, t in pairs if t])
        summary["untraced_job_s_p50"] = _median([s for s, t in pairs if not t])
        metrics = traced_metrics(layers, zenoslh, args, host, tracer, setup, timed, scratch, summary)
        metrics["trace.overhead_s"] = metric(
            summary["traced_job_s_p50"] - summary["untraced_job_s_p50"], "s")
        tracer.write(run_dir / "spans.jsonl")
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")

    phases["end"] = perf_counter()
    names = list(phases)
    summary["phase_s"] = {b: phases[b] - phases[a] for a, b in zip(names, names[1:])}
    print("phases " + "  ".join(f"{k} {v:.1f}s" for k, v in summary["phase_s"].items()))
    result = {
        "correct": not problems and not run_problems,
        "attempted": len(timed),
        "failed": len(failed),
        "metrics": metrics,
    }
    summary["result"] = result
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    if result["correct"] and not failed:
        shutil.rmtree(scratch)      # job artifacts are kept only for inspection of a fault
    print(json.dumps(result))
    return 0


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def traced_metrics(layers, zenoslh, args, host, tracer, setup, timed, scratch, summary) -> dict:
    """Per-layer metrics of a traced run, raw; ``host.probe_s`` beside
    them tells a slow host from a slow change."""
    raw = layers.layer_metrics(zenoslh, args.seed, scratch)
    if args.workload == "evolve_dense":
        summary["sweep_dims"] = layers.sweep_dims(zenoslh, args.seed, scratch)
    elif args.workload == "traj_ensemble":
        summary["sweep_ensembles"] = layers.sweep_ensembles(zenoslh, args.seed, scratch)
    host.probe()

    metrics = {}
    for name, value in sorted(raw.items()):
        if name.endswith("_mb") or "_mb." in name:
            unit = "MB"
        elif name == "trajectories.jumps":
            unit = "count"
        elif name.endswith("_us") or "_us." in name:
            unit = "us"
        else:
            unit = "s"
        metrics[name] = metric(value, unit)
    metrics["outputs.bytes_written_mb"] = metric(
        statistics.median(job_bytes(j) for j in timed) / 2**20, "MB")
    metrics["cli.import_s"] = metric(statistics.median(setup["import_raw"]), "s")
    metrics["cli.self_s"] = metric(_median(tracer.job_self_s("cli")), "s")
    metrics["host.probe_s"] = metric(statistics.median(host.probes), "s")
    summary["trace_summary"] = tracer.summary()
    return metrics


if __name__ == "__main__":
    sys.exit(main())
