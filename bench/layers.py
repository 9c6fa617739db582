"""Per-layer measurements through the public functions of each module.

``layer_metrics`` times each layer on its own, with inputs from the
workload generators; ``sweep_dims`` and ``sweep_ensembles`` repeat the
master and trajectory per-call costs over the Hilbert dimension and the
ensemble size.  Peak memory of one call is measured in a fresh child
process (this file run as a script), because a process's peak RSS never
falls.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads as wl

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def per_call(fn, repeat: int, number: int = 1) -> float:
    """Median over ``repeat`` batches of the time of one call."""
    out = []
    for _ in range(repeat):
        t0 = perf_counter()
        for _ in range(number):
            fn()
        out.append((perf_counter() - t0) / number)
    return statistics.median(out)


def peak_rss_mb() -> float:
    """High-water resident set of this process (VmHWM).

    ``ru_maxrss`` is not used: after fork and exec it keeps the peak of the
    parent, so a fresh child would report its parent's memory.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def child_rss_rise(args) -> float:
    """Rise in peak RSS (MB) over one call, measured in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=170, check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["rise_mb"])


def _kerr_triple(z, spec, k, run_dir: Path, tag: str):
    path = wl.write_model(run_dir / f"layer_{tag}.json", spec)
    return path, z.instantiate(z.load_model(path).family, k)


def layer_metrics(z, seed: int, run_dir: Path) -> dict:
    """Median per-call cost of each layer, raw (seconds unless named otherwise)."""
    from zenoslh import outputs

    rng = np.random.default_rng([seed, 1_000_003])
    m = {}

    # modelfile, operators, elimination: one eliminate_linstab model
    lam_path = wl.write_model(run_dir / "layer_lambda.json", wl.lambda_spec(rng, wl.ELIM_N_MAX["lambda"]))
    m["modelfile.load_s"] = per_call(lambda: z.load_model(lam_path), 5)
    doc = z.load_model(lam_path)
    a = z.expand_k(doc.family).quadratic
    m["operators.kernel_basis_s"] = per_call(lambda: z.kernel_basis(a, 1e-10), 5)
    split = doc.split()
    m["elimination.expand_k_s"] = per_call(lambda: z.expand_k(doc.family), 5)
    m["elimination.hat_operators_s"] = per_call(lambda: z.hat_operators(doc.family, split), 5)
    m["elimination.zeno_eliminate_s"] = per_call(lambda: z.zeno_eliminate(doc.family, split), 5)

    # master at converge_sweep's d = 6
    conv_spec = wl.kerr_spec(rng, 6)
    conv_path = wl.write_model(run_dir / "layer_conv.json", conv_spec)
    conv_doc = z.load_model(conv_path)
    m["elimination.instantiate_s"] = per_call(lambda: z.instantiate(conv_doc.family, 6.0), 7, 50)
    g6 = z.instantiate(conv_doc.family, 6.0)
    rho6 = z.basis_state_density(g6.space, 1)
    dt6 = wl.CONV_DT / 36.0
    n6 = 2000
    t_n = per_call(lambda: z.evolve(g6, rho6, n6 * dt6, dt6, save_every=10**9), 5)
    t_1 = per_call(lambda: z.evolve(g6, rho6, dt6, dt6, save_every=10**9), 5)
    m["master.step_us.final_only"] = 1e6 * (t_n - t_1) / (n6 - 1)
    split6 = conv_doc.split()
    rho6z = z.basis_state_density(split6.zeno_space, 1)
    ks = [float(k) for k in wl.CONV_KS.split(",")]
    m["master.convergence_harness_s"] = per_call(
        lambda: z.convergence_harness(conv_doc.family, split6, rho6z, ks, wl.CONV_T_END, wl.CONV_DT), 3
    )

    # master and outputs at evolve_dense's d
    d = wl.EVOLVE_N_MAX
    n_steps = int(round(wl.EVOLVE_T_END / wl.EVOLVE_DT))
    ev_spec = wl.kerr_spec(rng, d, chi_scale=0.03)
    ev_path, g = _kerr_triple(z, ev_spec, wl.EVOLVE_K, run_dir, "evolve")
    m.update(dense_costs(z, g, wl.EVOLVE_DT, 300, 3, n_steps, run_dir))
    m["master.evolve_rss_mb"] = child_rss_rise(["evolve", ev_path, wl.EVOLVE_K, wl.EVOLVE_DT, n_steps])
    m["master.step_matrix_mb"] = 16.0 * d**4 / 2**20

    # trajectories and outputs at traj_ensemble's job size
    tr_spec = wl.kerr_spec(rng, 6)
    tr_path = wl.write_model(run_dir / "layer_traj.json", tr_spec)
    tr_doc = z.load_model(tr_path)
    g2 = z.zeno_eliminate(tr_doc.family, tr_doc.split()).zeno_triple
    rho2 = z.basis_state_density(g2.space, 1)
    m["master.density_matrix_us.traj"] = 1e6 * per_call(
        lambda: z.DensityMatrix(g2.space, rho2.mat, trace_tol=1e-8, min_eig_tol=None), 7, 300
    )
    draws = itertools.cycle(np.random.default_rng([seed, 17]).random(300).tolist())
    dt = wl.TRAJ_DT
    m["trajectories.homodyne_step_us"] = 1e6 * per_call(
        lambda: z.homodyne_step(g2, rho2, 0, dt, (next(draws) - 0.5) * 0.1), 7, 300
    )
    m["trajectories.counting_step_us"] = 1e6 * per_call(
        lambda: z.counting_step(g2, rho2, 0, dt, next(draws)), 7, 300
    )
    base = int(rng.integers(0, 2**31 - 1))
    out_dir = run_dir / "layer_traj_out"
    out_dir.mkdir(exist_ok=True)
    for scheme in ("homodyne", "counting"):
        times, results = [], []
        for i in range(wl.TRAJ_M):
            cfg = z.SimConfig(dt=dt, t_end=wl.TRAJ_T_END, seed=base + i, scheme=scheme)
            t0 = perf_counter()
            results.append(z.simulate(g2, rho2, cfg))
            times.append(perf_counter() - t0)
        m[f"trajectories.simulate_s.{scheme}"] = statistics.median(times)
        if scheme == "counting":
            m["trajectories.jumps"] = float(sum(len(r.record.jump_times) for r in results))
        else:
            writes = []
            for i, r in enumerate(results):
                t0 = perf_counter()
                outputs.write_trajectory_csv(out_dir / f"traj_{i:04d}.csv", r)
                writes.append(perf_counter() - t0)
            m["outputs.write_trajectory_csv_s"] = statistics.median(writes)
    m["trajectories.ensemble_rss_mb"] = child_rss_rise(["ensemble", tr_path, base, wl.TRAJ_M])

    # linear: one eliminate_linstab Gamma system
    blocks = wl.gamma_blocks(rng, True)
    sys_ = z.LinearMeanSystem(*[b.astype(complex) for b in blocks])
    m["linear.stability_threshold_s"] = per_call(
        lambda: z.stability_threshold(sys_, wl.LINSTAB_KS), 3
    )
    return m


def dense_costs(z, g, dt: float, n_steps: int, repeat: int, csv_steps: int, run_dir: Path) -> dict:
    """Generator, one-step evolve, saved-step, state-check and CSV costs.

    The per-step cost is (T(n_steps) - T(1)) / (n_steps - 1); the two
    evolves alternate so that host drift affects both alike.  The CSV is
    written from a result of ``csv_steps`` saved steps.
    """
    from zenoslh import outputs

    rho0 = z.basis_state_density(g.space, 1)
    out = {"master.liouvillian_s": per_call(lambda: z.liouvillian_matrix(g), repeat)}
    t_1, t_n = [], []
    for _ in range(repeat):
        t0 = perf_counter()
        z.evolve(g, rho0, dt, dt)
        t_1.append(perf_counter() - t0)
        if n_steps > 1:
            t0 = perf_counter()
            z.evolve(g, rho0, n_steps * dt, dt, save_every=1)
            t_n.append(perf_counter() - t0)
    out["master.evolve_one_step_s"] = statistics.median(t_1)
    if n_steps > 1:
        out["master.step_us.saved"] = 1e6 * (statistics.median(t_n) - out["master.evolve_one_step_s"]) / (n_steps - 1)
    if csv_steps:
        res = z.evolve(g, rho0, csv_steps * dt, dt)
        mat = np.array(res.final.mat)
        out["master.density_matrix_us.evolve"] = 1e6 * per_call(
            lambda: z.DensityMatrix(g.space, mat, trace_tol=1e-6, min_eig_tol=None), 5, 20
        )
        path = run_dir / "layer_evolution.csv"
        out["outputs.write_evolution_csv_s"] = per_call(
            lambda: outputs.write_evolution_csv(path, res), repeat
        )
    return out


SWEEP_DIMS = (2, 6, 12, 20, 30, 40)
SWEEP_ENSEMBLES = (1, 50, 500)
SWEEP_STEPS = 20


def sweep_dims(z, seed: int, run_dir: Path) -> dict:
    """master.* per-call costs over d on the dense path, up to d = 40.

    Above d = 20 one build of the step map outweighs hundreds of steps, so
    the per-step cost is not separated there and d = 40 writes no CSV.
    """
    rng = np.random.default_rng([seed, 1_000_033])
    rows = {}
    for d in SWEEP_DIMS:
        spec = wl.kerr_spec(rng, d, chi_scale=0.03)
        path, g = _kerr_triple(z, spec, wl.EVOLVE_K, run_dir, f"sweep{d}")
        small = d <= 20
        row = dense_costs(z, g, wl.EVOLVE_DT, 200 if small else 1, 3 if small else 1,
                          SWEEP_STEPS if d <= 30 else 0, run_dir)
        row["master.step_matrix_mb"] = 16.0 * d**4 / 2**20
        if d >= 20:
            row["master.evolve_rss_mb"] = child_rss_rise(["evolve", path, wl.EVOLVE_K, wl.EVOLVE_DT, 1])
        rows[d] = row
    return rows


def sweep_ensembles(z, seed: int, run_dir: Path) -> dict:
    """trajectories.* costs over the ensemble size M, SWEEP_STEPS steps each."""
    rng = np.random.default_rng([seed, 1_000_037])
    path = wl.write_model(run_dir / "sweep_traj.json", wl.kerr_spec(rng, 6))
    doc = z.load_model(path)
    g = z.zeno_eliminate(doc.family, doc.split()).zeno_triple
    rho = z.basis_state_density(g.space, 1)
    rows = {}
    for m in SWEEP_ENSEMBLES:
        row = {}
        for scheme in ("homodyne", "counting"):
            cfg = z.SimConfig(dt=wl.TRAJ_DT, t_end=SWEEP_STEPS * wl.TRAJ_DT, seed=m, scheme=scheme)
            t0 = perf_counter()
            z.simulate_ensemble(g, rho, cfg, m)
            row[f"trajectories.simulate_ensemble_s.{scheme}"] = perf_counter() - t0
        rows[m] = row
    return rows


def _child(argv):
    """Entry point of the RSS child: print the rise in peak RSS over one call."""
    import zenoslh as z

    kind, path = argv[0], argv[1]
    doc = z.load_model(path)
    if kind == "evolve":
        k, dt, n = float(argv[2]), float(argv[3]), int(argv[4])
        g = z.instantiate(doc.family, k)
        rho = z.basis_state_density(g.space, 1)
        before = peak_rss_mb()
        z.evolve(g, rho, n * dt, dt)
    else:
        base, m = int(argv[2]), int(argv[3])
        g = z.zeno_eliminate(doc.family, doc.split()).zeno_triple
        rho = z.basis_state_density(g.space, 1)
        cfg = z.SimConfig(dt=wl.TRAJ_DT, t_end=wl.TRAJ_T_END, seed=base, scheme="homodyne")
        before = peak_rss_mb()
        z.simulate_ensemble(g, rho, cfg, m)
    print(json.dumps({"rise_mb": peak_rss_mb() - before}))


if __name__ == "__main__":
    # the parent's environment pins BLAS and OpenMP to one thread
    _child(sys.argv[1:])
