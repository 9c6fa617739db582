"""The four workloads: seeded inputs, CLI argument lists and output checks.

Every input comes from this file's own generators, seeded from the run
seed and the job index, so a change to the program cannot change a
workload.  A job is one user request: the ``zenoslh`` invocations listed
in ``Job.calls``.  ``check_*`` functions compare the files a job wrote
with ``oracles`` (independent numpy/scipy physics) or with properties the
method must have, and return a list of failure messages.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

# Sizes of one job, per workload.  Jobs within a workload are alike in
# size and differ only in their parameters and seeds.
TRAJ_M = 10                # trajectories per scheme per traj_ensemble job
TRAJ_T_END, TRAJ_DT = 1.0, 2e-3
TRAJ_PROBE_T = (0.5, 1.0)    # times at which the ensemble mean is checked
CONV_KS = "1,2,3,4,6"
CONV_T_END, CONV_DT = 0.5, 1e-3
EVOLVE_N_MAX, EVOLVE_K = 30, 2.0
EVOLVE_T_END, EVOLVE_DT = 0.05, 5e-4
# eliminate_linstab model sizes (n_max per type), chosen so that check +
# eliminate cost about the same on each type: d = 180, 88 and 160
ELIM_N_MAX = {"lambda": 60, "alkali": 22, "kerr": 160}
LINSTAB_R = LINSTAB_M = 40
LINSTAB_KS = np.geomspace(0.5, 200.0, 40)


@dataclass
class Job:
    index: int
    dir: Path
    calls: list                       # argv lists for zenoslh.cli.main
    spec: dict = field(default_factory=dict)
    samples: object = None            # what a run-level check pools over jobs


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


def kerr_spec(rng, n_max: int, chi_scale: float = 1.0, subspace="basis") -> dict:
    return {
        "type": "kerr",
        "n_max": n_max,
        "chi0": chi_scale * _u(rng, 0.8, 1.2),
        "Delta": _u(rng, 0.2, 0.4),
        "kappa1": _u(rng, 0.8, 1.2),
        "kappa2": _u(rng, 0.8, 1.2),
        "alpha": [_u(rng, 0.1, 0.3), _u(rng, -0.05, 0.05)],
        "subspace": subspace,
    }


def alkali_spec(rng, n_max: int) -> dict:
    return {
        "type": "alkali",
        "n_max": n_max,
        "gamma": _u(rng, 0.8, 1.2),
        "Delta": _u(rng, 0.3, 0.7),
        "Bx": _u(rng, 0.05, 0.15),
        "By": _u(rng, 0.15, 0.25),
        "Bz": _u(rng, 0.25, 0.35),
        "omega": _u(rng, 0.5, 1.5),
        "g": _u(rng, 0.05, 0.2),
        "subspace": "auto",
    }


def lambda_spec(rng, n_max: int) -> dict:
    return {
        "type": "lambda",
        "n_max": n_max,
        "gamma": _u(rng, 0.8, 1.2),
        "g": _u(rng, 1.5, 2.5),
        "alpha": [_u(rng, 0.3, 0.5), _u(rng, -0.1, 0.1)],
        "subspace": "auto",
    }


def _params(spec, names):
    return {k: spec[k] for k in names}


def model_document(spec: dict) -> dict:
    """The model file for a spec, written in the model-file language."""
    t = spec["type"]
    if t == "kerr":
        doc = {
            "name": "kerr_variant",
            "spaces": {"mode": {"kind": "fock", "n_max": spec["n_max"]}},
            "parameters": _params(spec, ("chi0", "Delta", "kappa1", "kappa2", "alpha")),
            "operators": {"a": "annihilator(mode)", "num": "adjoint(a)*a"},
            "family": {
                "channels": 2,
                "S": [["1", "0"], ["0", "1"]],
                "L1": ["0", "0"],
                "L0": ["sqrt(kappa1)*a", "sqrt(kappa2)*a"],
                "H2": "chi0*adjoint(a)*adjoint(a)*a*a",
                "H1": "0",
                "H0": "Delta*num - i*sqrt(kappa1)*(alpha*adjoint(a) - conj(alpha)*a)",
            },
        }
    elif t == "alkali":
        doc = {
            "name": "alkali_variant",
            "spaces": {
                "level": {"kind": "level", "dim": 2},
                "spin": {"kind": "spin"},
                "mode": {"kind": "fock", "n_max": spec["n_max"]},
            },
            "parameters": _params(spec, ("gamma", "Delta", "Bx", "By", "Bz", "omega", "g")),
            "operators": {
                "lower": "ketbra(level, 0, 1)",
                "excited": "ketbra(level, 1, 1)",
                "sx": "pauli(spin, x)",
                "sy": "pauli(spin, y)",
                "sz": "pauli(spin, z)",
                "a": "annihilator(mode)",
                "splus": "(sx + i*sy)/2",
            },
            "family": {
                "channels": 3,
                "S": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                "L1": [
                    "sqrt(gamma)*tensor(lower, sx)",
                    "sqrt(gamma)*tensor(lower, sy)",
                    "sqrt(gamma)*tensor(lower, sz)",
                ],
                "L0": ["0", "0", "0"],
                "H2": "Delta*tensor(excited, identity(spin))",
                "H1": "0",
                "H0": "Bx*sx + By*sy + Bz*sz + omega*adjoint(a)*a"
                " + g*(splus*a + adjoint(splus)*adjoint(a))",
            },
        }
    elif t == "lambda":
        doc = {
            "name": "lambda_variant",
            "spaces": {
                "level": {"kind": "level", "dim": 3},
                "mode": {"kind": "fock", "n_max": spec["n_max"]},
            },
            "parameters": _params(spec, ("gamma", "g", "alpha")),
            "operators": {
                "a": "annihilator(mode)",
                "raise_g1": "ketbra(level, 2, 0)",
                "raise_g2": "ketbra(level, 2, 1)",
            },
            "family": {
                "channels": 1,
                "S": [["1"]],
                "L1": ["sqrt(gamma)*tensor(identity(level), a)"],
                "L0": ["0"],
                "H2": "i*g*(tensor(raise_g1, a) - adjoint(tensor(raise_g1, a)))",
                "H1": "i*(alpha*raise_g2 - conj(alpha)*adjoint(raise_g2))",
                "H0": "0",
            },
        }
    else:
        raise ValueError(t)
    doc["subspace"] = {"basis": [[0], [1]]} if spec["subspace"] == "basis" else "auto"
    return doc


def write_model(path: Path, spec: dict) -> str:
    path.write_text(json.dumps(model_document(spec), indent=2) + "\n")
    return str(path)


def gamma_blocks(rng, stable: bool):
    """Gamma1..Gamma4 with a Hurwitz fast block and a Schur complement whose
    spectrum (stable or not) is fixed by construction."""
    r, m = LINSTAB_R, LINSTAB_M
    g4 = oracles.with_spectrum(rng, -rng.uniform(1.0, 3.0, m))
    slow = -rng.uniform(0.5, 2.0, r)
    if not stable:
        slow[0] = rng.uniform(0.3, 0.8)
    schur = oracles.with_spectrum(rng, slow)
    g2 = rng.standard_normal((r, m)) / np.sqrt(m)
    g3 = rng.standard_normal((m, r)) / np.sqrt(r)
    g1 = schur + g2 @ np.linalg.solve(g4, g3)
    return g1, g2, g3, g4


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


def make_traj(rng, index: int, d: Path) -> Job:
    spec = kerr_spec(rng, 6)
    model = write_model(d / "model.json", spec)
    spec["base_seed"] = int(rng.integers(0, 2**31 - 1))
    common = ["--seed", str(spec["base_seed"]), "--n", str(TRAJ_M), "--t-end", repr(TRAJ_T_END),
              "--dt", repr(TRAJ_DT), "--initial", "basis:1"]
    calls = [
        ["traj", model, "--scheme", scheme, *common, "--out-dir", str(d / scheme)]
        for scheme in ("homodyne", "counting")
    ]
    return Job(index, d, calls, spec)


def make_converge(rng, index: int, d: Path) -> Job:
    spec = kerr_spec(rng, 6)
    model = write_model(d / "model.json", spec)
    call = ["converge", model, "--ks", CONV_KS, "--t-end", repr(CONV_T_END), "--dt",
            repr(CONV_DT), "--initial", "basis:1", "--out", str(d / "converge.csv")]
    return Job(index, d, [call], spec)


def make_evolve(rng, index: int, d: Path) -> Job:
    spec = kerr_spec(rng, EVOLVE_N_MAX, chi_scale=0.03)
    model = write_model(d / "model.json", spec)
    call = ["evolve", model, "--model", "full", "--k", repr(EVOLVE_K), "--t-end",
            repr(EVOLVE_T_END), "--dt", repr(EVOLVE_DT), "--initial", "basis:1",
            "--out", str(d / "evolve.csv")]
    return Job(index, d, [call], spec)


def make_elim(rng, index: int, d: Path) -> Job:
    kind = ("lambda", "alkali", "kerr")[index % 3]
    n_max = ELIM_N_MAX[kind]
    if kind == "lambda":
        spec = lambda_spec(rng, n_max)
    elif kind == "alkali":
        spec = alkali_spec(rng, n_max)
    else:
        spec = kerr_spec(rng, n_max, subspace="auto")
    model = write_model(d / "model.json", spec)
    stable = index % 2 == 0
    blocks = gamma_blocks(rng, stable)
    gamma = {f"Gamma{i + 1}": b.tolist() for i, b in enumerate(blocks)}
    (d / "gamma.json").write_text(json.dumps(gamma) + "\n")
    spec["stable"] = stable
    ks = ",".join(repr(float(k)) for k in LINSTAB_KS)
    calls = [
        ["check", model, "--out", str(d / "check.json")],
        ["eliminate", model, "--out", str(d / "zeno.json")],
        ["linstab", str(d / "gamma.json"), "--ks", ks, "--out", str(d / "stability.csv")],
    ]
    return Job(index, d, calls, spec)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _read_csv(path: Path):
    with open(path) as f:
        header = f.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _states(data: np.ndarray, first_col: int, dim: int) -> np.ndarray:
    flat = data[:, first_col : first_col + 2 * dim * dim]
    return (flat[:, 0::2] + 1j * flat[:, 1::2]).reshape(-1, dim, dim)


def _pairs(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def check_traj(job: Job, zenoslh) -> list:
    """Seed-exactness, state validity, innovation statistics and the
    ensemble mean against the oracle's unconditional limit-model state."""
    errs = []
    spec, m = job.spec, TRAJ_M
    n_steps = int(round(TRAJ_T_END / TRAJ_DT))
    fam = oracles.family(spec)
    vz = np.eye(spec["n_max"], dtype=complex)[:, :2]
    h, ls = oracles.limit_model(fam, vz)
    gen = oracles.lindblad(h, ls)
    rho0 = oracles.ketbra(2, 1, 1)
    probe_rows = tuple(int(round(t / TRAJ_DT)) - 1 for t in TRAJ_PROBE_T)  # rows hold t = dt ..
    exact = [oracles.propagate(gen, rho0, (r + 1) * TRAJ_DT) for r in probe_rows]

    doc = zenoslh.load_model(job.calls[0][1])
    g = zenoslh.zeno_eliminate(doc.family, doc.split()).zeno_triple
    rho0_prog = zenoslh.basis_state_density(g.space, 1)

    pooled = []
    for scheme in ("homodyne", "counting"):
        innov = []
        for i in range(m):
            path = job.dir / scheme / f"traj_{i:04d}.csv"
            header, data = _read_csv(path)
            if data.shape != (n_steps, 3 + 8):
                errs.append(f"{path.name}: shape {data.shape}")
                continue
            states = _states(data, 3, 2)
            herm = np.max(np.abs(states - states.conj().transpose(0, 2, 1)))
            tr = np.max(np.abs(np.trace(states, axis1=1, axis2=2) - 1.0))
            if herm > 1e-8 or tr > 1e-8:
                errs.append(f"{scheme} {path.name}: hermiticity {herm:.1e}, trace {tr:.1e}")
            pooled.append(states[list(probe_rows)])
            if scheme == "counting" and not np.all(np.isin(data[:, 1], (0.0, 1.0))):
                errs.append(f"{path.name}: jump column holds values other than 0 and 1")
            innov.append(data[:, 2])
        if scheme == "homodyne" and innov:
            x = np.concatenate(innov)
            n = x.size
            if abs(x.mean()) > 6.0 * np.sqrt(TRAJ_DT / n):
                errs.append(f"homodyne innovation mean {x.mean():.3e}")
            if abs(x.var() / TRAJ_DT - 1.0) > 6.0 * np.sqrt(2.0 / n):
                errs.append(f"homodyne innovation variance {x.var() / TRAJ_DT:.4f} dt")

        # trajectory i equals a lone simulate with seed base + i, bit for bit
        i = job.index % m
        cfg = zenoslh.SimConfig(dt=TRAJ_DT, t_end=TRAJ_T_END, seed=spec["base_seed"] + i,
                                scheme=scheme)
        lone = zenoslh.simulate(g, rho0_prog, cfg)
        with open(job.dir / scheme / f"traj_{i:04d}.csv") as f:
            f.readline()
            rows = [[float(v) for v in line.split(",")] for line in f]
        if scheme == "homodyne":
            rec = lone.record.increments
        else:
            jt = set(lone.record.jump_times.tolist())
            rec = [1.0 if t in jt else 0.0 for t in lone.times[1:]]
        for r, (row, t, rr, inn, s) in enumerate(
            zip(rows, lone.times[1:], rec, lone.innovations, lone.states[1:])
        ):
            flat = np.empty(8)
            flat[0::2], flat[1::2] = s.mat.real.reshape(-1), s.mat.imag.reshape(-1)
            if row != [float(t), float(rr), float(inn), *flat.tolist()]:
                errs.append(f"{scheme} trajectory {i} differs from lone simulate at row {r}")
                break

    # Deviations of the conditioned states from the oracle's unconditional
    # state at the probe rows, one sample per trajectory; check_traj_run
    # pools them over the run, each scheme apart.
    if not errs:
        dev = np.array(pooled).reshape(2, m, len(probe_rows), 2, 2) - np.array(exact)
        job.samples = np.stack([dev[..., 1, 1].real, dev[..., 0, 1].real,
                                dev[..., 0, 1].imag], axis=-1).swapaxes(0, 1)  # (M, 2, rows, 3)
    return errs


# The ensemble mean is judged over all jobs of a run, not per job: the
# states of counting trajectories that have not jumped coincide, so the
# spread of 10 samples can read far below the true one and a per-job
# standard error is not to be trusted (a correct run failed that way).
# Pooled over a run's 140 trajectories per scheme at --seconds 12 (50 at
# the least), the standard error is reliable.  MEAN_BIAS allows for the
# schemes' O(dt) bias at dt = 0.002.
MEAN_Z, MEAN_BIAS = 6.0, 0.01
MEAN_COMPONENTS = ("rho_11", "re rho_01", "im rho_01")


def check_traj_run(jobs: list) -> list:
    """The run's mean of conditioned states, per scheme, against the
    oracle's unconditional limit-model states of the same jobs."""
    samples = [j.samples for j in jobs if j.samples is not None]
    if not samples:
        return ["no trajectory samples to pool"]
    dev = np.concatenate(samples)                       # (n, scheme, rows, 3)
    n = dev.shape[0]
    mean, se = dev.mean(axis=0), dev.std(axis=0, ddof=1) / np.sqrt(n)
    z = np.abs(mean) / np.maximum(se, 1e-300)
    print(f"ensemble mean: largest |deviation| / se {z.max():.2f} over {n} trajectories per scheme")
    errs = []
    for (s, p, c), m in np.ndenumerate(mean):
        if abs(m) > MEAN_Z * se[s, p, c] + MEAN_BIAS:
            errs.append(f"{('homodyne', 'counting')[s]} ensemble mean {MEAN_COMPONENTS[c]} at "
                        f"t = {TRAJ_PROBE_T[p]}: deviates from the oracle by {m:.4f} "
                        f"(se {se[s, p, c]:.4f}, {n} trajectories)")
    return errs


# Allowed deviation from the exact propagators in converge and evolve.
# RK4's global error at these step sizes was at most 1e-12 over the seeds
# tried (see README), so 1e-9 leaves a wide margin and still fails any
# error in the generator or the step map.
RK4_TOL = 1e-9


def check_converge(job: Job, zenoslh=None) -> list:
    errs = []
    spec = job.spec
    fam = oracles.family(spec)
    d = spec["n_max"]
    vz = np.eye(d, dtype=complex)[:, :2]
    h, ls = oracles.limit_model(fam, vz)
    rho0_z = oracles.ketbra(2, 1, 1)
    zeno_final = oracles.propagate(oracles.lindblad(h, ls), rho0_z, CONV_T_END)
    rho0 = vz @ rho0_z @ vz.conj().T
    header, data = _read_csv(job.dir / "converge.csv")
    ks = [float(k) for k in CONV_KS.split(",")]
    if header != ["k", "trace_distance", "leaked_trace", "dt_full"] or data.shape != (len(ks), 4):
        return [f"converge.csv: header {header}, shape {data.shape}"]
    for row, k in zip(data, ks):
        hk, lk = oracles.instantiate(fam, k)
        final = oracles.propagate(oracles.lindblad(hk, lk), rho0, CONV_T_END)
        comp = vz.conj().T @ final @ vz
        tr = float(np.trace(comp).real)
        dist = oracles.trace_distance(comp / tr, zeno_final)
        if row[0] != k or row[3] != CONV_DT / max(1.0, k * k):
            errs.append(f"k={k}: k or dt_full column is {row[0]!r}, {row[3]!r}")
        if abs(row[1] - dist) > RK4_TOL or abs(row[2] - (1.0 - tr)) > RK4_TOL:
            errs.append(f"k={k}: distance {row[1]:.10g} vs {dist:.10g}, "
                        f"leaked {row[2]:.10g} vs {1 - tr:.10g}")
    if not np.all(np.diff(data[:, 1]) < 0):
        errs.append(f"trace distance does not fall with k: {data[:, 1].tolist()}")
    return errs


def check_evolve(job: Job, zenoslh=None) -> list:
    errs = []
    spec = job.spec
    d = spec["n_max"]
    n_steps = int(round(EVOLVE_T_END / EVOLVE_DT))
    header, data = _read_csv(job.dir / "evolve.csv")
    if data.shape != (n_steps + 1, 1 + 2 * d * d + 2) or header[-1] != "hermiticity_drift":
        return [f"evolve.csv: shape {data.shape}"]
    fam = oracles.family(spec)
    hk, lk = oracles.instantiate(fam, EVOLVE_K)
    gen = oracles.lindblad(hk, lk, sparse=True)
    exact = oracles.propagate_grid(gen, oracles.ketbra(d, 1, 1), EVOLVE_T_END, n_steps + 1)
    states = _states(data, 1, d)
    err = float(np.max(np.abs(states - exact)))
    if err > RK4_TOL:
        errs.append(f"saved states differ from expm_multiply by {err:.3e}")
    if np.max(np.abs(data[:, 0] - np.linspace(0.0, EVOLVE_T_END, n_steps + 1))) > 1e-15:
        errs.append("time column is not the uniform grid")
    if np.max(data[:, -2]) > 1e-6:
        errs.append(f"trace_drift reaches {np.max(data[:, -2]):.3e}")
    return errs


def check_elim(job: Job, zenoslh=None) -> list:
    errs = []
    spec = job.spec
    report = json.loads((job.dir / "check.json").read_text())
    if report.get("zenofiable") is not True:
        errs.append(f"check: not zenofiable ({report.get('failed_condition')})")
    tri = json.loads((job.dir / "zeno.json").read_text())
    n, dz = tri["channels"], tri["zeno_dim"]
    s = _pairs(tri["S"])                               # (n, n, dz, dz)
    s_big = s.transpose(0, 2, 1, 3).reshape(n * dz, n * dz)
    u_def = np.max(np.abs(s_big @ s_big.conj().T - np.eye(n * dz)))
    if u_def > 1e-9:
        errs.append(f"limit scattering is not unitary (defect {u_def:.2e})")
    vz = _pairs(tri["V_z"])
    fam = oracles.family(spec)
    a, _, _ = oracles.drift_coefficients(fam)
    align = np.linalg.norm(a @ vz, 2) / max(1.0, np.linalg.norm(a, 2))
    ortho = np.max(np.abs(vz.conj().T @ vz - np.eye(dz)))
    if align > 1e-8 or ortho > 1e-10 or oracles.kernel_dim(a) != dz:
        errs.append(f"V_z is not the kernel of A: |A V_z| {align:.1e}, "
                    f"orthonormality {ortho:.1e}, dim {dz} vs {oracles.kernel_dim(a)}")
    l_hat = [_pairs(x) for x in tri["L"]]
    h_hat = _pairs(tri["H"])
    k_hat = -0.5 * sum(x.conj().T @ x for x in l_hat) - 1j * h_hat
    schur = oracles.schur_limit_drift(fam, vz)
    diff = np.max(np.abs(k_hat - schur)) / max(1.0, np.max(np.abs(schur)))
    if diff > 1e-8:
        errs.append(f"-1/2 sum L^H L - iH differs from the Schur complement by {diff:.2e}")

    g = json.loads((job.dir / "gamma.json").read_text())
    blocks = [np.asarray(g[f"Gamma{i}"]) for i in (1, 2, 3, 4)]
    header, rows = _read_csv(job.dir / "stability.csv")
    if rows.shape != (len(LINSTAB_KS), 3):
        return errs + [f"stability.csv shape {rows.shape}"]
    for k, max_re, stable in rows:
        gen = oracles.block_generator(*blocks, k)
        ref = oracles.spectral_abscissa(gen)
        if abs(max_re - ref) > 1e-9 * max(1.0, np.max(np.abs(gen))):
            errs.append(f"linstab k={k}: max_real_part {max_re!r} vs oracle {ref!r}")
        if stable != (1.0 if max_re < 0 else 0.0):
            errs.append(f"linstab k={k}: stable flag {stable} for max_real_part {max_re}")
    verdict = json.loads((job.dir / "linstab.stdout").read_text())
    want = spec["stable"]
    if verdict["predicted_stable_tail"] != want or verdict["observed_stable_at_kmax"] != want:
        errs.append(f"linstab verdict {verdict} but the inputs were built "
                    f"{'stable' if want else 'unstable'}")
    return errs


@dataclass(frozen=True)
class Workload:
    name: str
    make: object
    check: object
    nominal_job_s: float      # sets the job count: round(seconds / nominal_job_s)
    # How strongly job time follows the host-speed probe: log(job time
    # ratio) / log(probe ratio) between ten runs on a slow and ten on a
    # fast stretch of host time (see README).  evolve_dense, which spends
    # most of its time in BLAS and memory traffic, follows it less.
    host_sensitivity: float
    check_run: object = None  # (checked jobs) -> failure messages, over the whole run


WORKLOADS = {
    w.name: w
    for w in (
        Workload("traj_ensemble", make_traj, check_traj, 0.9, 1.0, check_traj_run),
        Workload("converge_sweep", make_converge, check_converge, 0.75, 1.0),
        Workload("evolve_dense", make_evolve, check_evolve, 0.8, 0.75),
        Workload("eliminate_linstab", make_elim, check_elim, 0.65, 1.0),
    )
}
