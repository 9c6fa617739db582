import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import zenoslh
from zenoslh import SimConfig, basis_state_density, load_model, simulate, zeno_eliminate
from zenoslh import StepSizeError, block_split, cli, elimination, expand_k, master, outputs
from zenoslh.cli import main
from zenoslh.operators import Operator
from zenoslh.outputs import pairs_to_matrix, write_evolution_csv, write_trajectory_csv
from zenoslh.slh import SLHTriple

from common import MODELS, alkali_expected, entrymax, forking, kill_the_formatter

KERR = str(MODELS / "kerr_qubit.model")
ALKALI = str(MODELS / "alkali.model")
LAMBDA = str(MODELS / "lambda_system.model")
GAMMA = str(MODELS / "oscillator_pair.gamma.json")


def test_check_kerr_exits_zero(capsys):
    assert main(["check", KERR]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["zenofiable"] is True
    assert report["residuals"]["scaling_residual"] < 1e-9


def test_check_reports_residuals_of_the_condition_number_guard(tmp_path, capsys):
    model = {
        "name": "ill_conditioned",
        "spaces": {"lv": {"kind": "level", "dim": 4}},
        "family": {
            "channels": 1,
            "S": [["1"]],
            "L1": ["0"],
            "L0": ["0"],
            "H2": "1e5*ketbra(lv, 2, 2) + 2e-8*ketbra(lv, 3, 3)",
            "H1": "0",
            "H0": "0",
        },
        "subspace": {"basis": [[0], [1]]},
    }
    path = tmp_path / "ill.model"
    path.write_text(json.dumps(model))
    assert main(["check", str(path), "--out", str(tmp_path / "r.json")]) == 2
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["failed_condition"] == "KernelViolation"
    assert "numerically singular" in report["message"]
    assert set(report["residuals"]) == {
        "scaling_residual", "kernel_min_singular_value", "kernel_alignment"
    }
    assert report["residuals"]["kernel_min_singular_value"] == pytest.approx(2e-8, rel=1e-9)


def test_check_broken_model_exits_two(tmp_path, capsys):
    doc = json.loads((MODELS / "kerr_qubit.model").read_text())
    doc["family"]["L1"] = ["a", "0"]  # k-linear coupling with a Zeno column
    broken = tmp_path / "broken.model"
    broken.write_text(json.dumps(doc))
    assert main(["check", str(broken)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["zenofiable"] is False
    assert report["failed_condition"] == "ScalingViolation"


def test_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", KERR, "--out", "d"], "Is a directory"),
        (["eliminate", KERR, "--out", "d"], "Is a directory"),
        (["evolve", KERR, "--t-end", "0.01", "--out", "d"], "Is a directory"),
        (["converge", KERR, "--ks", "1", "--t-end", "0.01", "--out", "d"], "Is a directory"),
        (["linstab", GAMMA, "--ks", "1", "--out", "d"], "Is a directory"),
        (["traj", KERR, "--scheme", "homodyne", "--t-end", "0.01", "--out-dir", "f"],
         "File exists"),
        (["traj", KERR, "--scheme", "homodyne", "--t-end", "0.01", "--out-dir", "f/sub"],
         "Not a directory"),
        (["check", "d"], "Is a directory"),
        (["check", "utf16.model"], "model file is not UTF-8 text"),
    ],
)
def test_unusable_paths_exit_one_with_one_line(tmp_path, monkeypatch, capsys, argv, message):
    # each once ended in a traceback from the OS's error, and the model that
    # is not UTF-8 in exit 2
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "f").write_text("")
    (tmp_path / "utf16.model").write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("zenoslh: ") and message in err and err.count("\n") == 1
    assert list(tmp_path.rglob(".*.tmp")) == [] and list((tmp_path / "d").iterdir()) == []


@pytest.mark.parametrize("expr", ["1in g", "0x1for g", "1jif g else 2"])
def test_a_number_run_into_a_keyword_prints_only_the_typed_error(tmp_path, expr):
    # Python's parser warns on such a literal on stderr before the grammar
    # rejects its node; in a fresh process, whose warnings no test harness
    # holds, stderr is the one line of the error
    doc = json.loads((MODELS / "kerr_qubit.model").read_text())
    doc["family"]["L0"][0] = expr
    model = tmp_path / "run_on.model"
    model.write_text(json.dumps(doc))
    src = str(Path(zenoslh.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "zenoslh", "check", str(model)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "zenoslh: family.L0[0]: column 1: unsupported syntax\n"


def test_usage_error_exits_one(capsys):
    assert main(["not-a-command"]) == 1
    assert main([]) == 1


def test_eliminate_alkali_matches_closed_form(tmp_path):
    out = tmp_path / "zeno.json"
    assert main(["eliminate", ALKALI, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["channels"] == 3 and payload["zeno_dim"] == 2
    s_exp, _, h_exp = alkali_expected()
    for j in range(3):
        for k in range(3):
            assert entrymax(pairs_to_matrix(payload["S"][j][k]), s_exp[j][k]) < 1e-10
        assert entrymax(pairs_to_matrix(payload["L"][j])) < 1e-10
    assert entrymax(pairs_to_matrix(payload["H"]), h_exp) < 1e-10
    vz = pairs_to_matrix(payload["V_z"])
    assert vz.shape == (4, 2)

    manifest = json.loads((tmp_path / "zeno.json.manifest.json").read_text())
    assert manifest["command"] == "eliminate"
    assert manifest["input_digest"].startswith("sha256:")


def test_evolve_zeno_csv(tmp_path):
    out = tmp_path / "evolution.csv"
    code = main(
        [
            "evolve", KERR,
            "--model", "zeno",
            "--t-end", "0.2",
            "--dt", "0.001",
            "--initial", "basis:1",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "time"
    assert "rho_0_0_re" in header and "trace_drift" in header
    assert len(lines) == 202  # header + 201 grid points


def test_evolve_full_requires_k(tmp_path):
    out = tmp_path / "out.csv"
    assert main(["evolve", KERR, "--model", "full", "--out", str(out)]) == 1
    assert (
        main(
            [
                "evolve", KERR,
                "--model", "full",
                "--k", "2.0",
                "--t-end", "0.05",
                "--dt", "0.0005",
                "--out", str(out),
            ]
        )
        == 0
    )


def test_traj_deterministic_artifacts(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    argv = [
        "traj", KERR,
        "--scheme", "homodyne",
        "--seed", "7",
        "--n", "2",
        "--t-end", "0.1",
        "--dt", "0.001",
        "--initial", "basis:1",
    ]
    assert main(argv + ["--out-dir", str(d1)]) == 0
    assert main(argv + ["--out-dir", str(d2)]) == 0
    for name in ("traj_0000.csv", "traj_0001.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    manifest = json.loads((d1 / "manifest.json").read_text())
    assert manifest["seed"] == 7


def test_traj_counting_lambda(tmp_path):
    out = tmp_path / "jumps"
    code = main(
        [
            "traj", LAMBDA,
            "--scheme", "counting",
            "--seed", "3",
            "--n", "3",
            "--t-end", "0.5",
            "--dt", "0.001",
            "--initial", "basis:1",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    body = (out / "traj_0000.csv").read_text().splitlines()
    assert body[0].split(",")[1] == "jump"
    jumps = sum(float(line.split(",")[1]) for line in body[1:])
    assert jumps <= 1


@pytest.mark.parametrize("n", ["0", "-3"])
def test_traj_needs_a_trajectory(tmp_path, capsys, n):
    out = tmp_path / "none"
    argv = ["traj", KERR, "--scheme", "homodyne", "--n", n, "--out-dir", str(out)]
    assert main(argv) == 1
    assert "--n must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scheme", ["homodyne", "counting"])
def test_traj_chunks_write_what_lone_runs_write(tmp_path, monkeypatch, scheme):
    # a block of _BLOCK states of 2 x 2 per member: a budget of two members'
    # blocks splits --n 5 into chunks of 2, 2 and 1
    monkeypatch.setattr(cli, "TRAJ_CHUNK_BYTES", 2 * master._BLOCK * 4 * 16)
    sizes = []
    real = cli._ensemble_blocks

    def recording(g, rho0, config, n):
        sizes.append(n)
        return real(g, rho0, config, n)

    monkeypatch.setattr(cli, "_ensemble_blocks", recording)
    out = tmp_path / scheme
    argv = ["traj", KERR, "--scheme", scheme, "--seed", "11", "--n", "5", "--t-end", "0.5",
            "--dt", "0.005", "--initial", "basis:1", "--out-dir", str(out)]
    assert main(argv) == 0
    assert sizes == [2, 2, 1]

    doc = load_model(KERR)
    g = zeno_eliminate(doc.family, doc.split()).zeno_triple
    rho0 = basis_state_density(g.space, 1)
    jumps = 0
    for i in range(5):
        lone = simulate(g, rho0, SimConfig(dt=0.005, t_end=0.5, seed=11 + i, scheme=scheme))
        write_trajectory_csv(tmp_path / "lone.csv", lone)
        assert (out / f"traj_{i:04d}.csv").read_bytes() == (tmp_path / "lone.csv").read_bytes()
        if scheme == "counting":
            jumps += len(lone.record.jump_times)
    assert scheme == "homodyne" or jumps > 0  # the counting records include jumps


def test_traj_chunked_homodyne_nan_names_the_member_seed(tmp_path, monkeypatch, capsys):
    # chunks of 2 members; the second chunk (members 2 and 3, seeds 13 and
    # 14) runs an overflowing Hamiltonian, so member 2 is the first to blow up
    monkeypatch.setattr(cli, "TRAJ_CHUNK_BYTES", 2 * master._BLOCK * 4 * 16)
    real = cli._ensemble_blocks

    def second_chunk_blows_up(g, rho0, config, n):
        if config.seed != 11:
            sx = Operator(g.space, np.array([[0, 1], [1, 0]], dtype=complex))
            g = SLHTriple(g.s, g.l, 1e300 * sx)
        with np.errstate(all="ignore"):
            yield from real(g, rho0, config, n)

    monkeypatch.setattr(cli, "_ensemble_blocks", second_chunk_blows_up)
    out = tmp_path / "out"
    argv = ["traj", KERR, "--scheme", "homodyne", "--seed", "11", "--n", "5", "--t-end", "0.5",
            "--dt", "0.005", "--initial", "basis:1", "--out-dir", str(out)]
    assert main(argv) == 2
    assert "trajectory seed 13: measurement mean nan at t=" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["traj_0000.csv", "traj_0001.csv"]


def test_converge_csv(tmp_path):
    out = tmp_path / "conv.csv"
    code = main(
        [
            "converge", KERR,
            "--ks", "2,5",
            "--t-end", "0.2",
            "--dt", "0.001",
            "--initial", "basis:1",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,trace_distance,leaked_trace,dt_full"
    rows = [line.split(",") for line in lines[1:]]
    assert float(rows[0][1]) > float(rows[1][1])


def test_linstab_verdict(tmp_path, capsys):
    out = tmp_path / "stab.csv"
    assert main(["linstab", GAMMA, "--ks", "1,5,10,50", "--out", str(out)]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["predicted_stable_tail"] is True
    assert verdict["agrees"] is True
    lines = out.read_text().splitlines()
    assert lines[0] == "k,max_real_part,stable"
    assert len(lines) == 5


def test_linstab_singular_fast_block_exits_two(tmp_path):
    gamma = tmp_path / "singular.json"
    gamma.write_text(
        json.dumps(
            {
                "Gamma1": [[-1.0]],
                "Gamma2": [[1.0]],
                "Gamma3": [[1.0]],
                "Gamma4": [[0.0]],
            }
        )
    )
    out = tmp_path / "stab.csv"
    assert main(["linstab", str(gamma), "--ks", "1,2", "--out", str(out)]) == 2


def test_env_tolerance_override(tmp_path, monkeypatch, capsys):
    # an absurdly strict scaling tolerance makes even the exact model fail
    monkeypatch.setenv("ZENOSLH_TOL", "0.0")
    assert main(["check", KERR]) == 2
    monkeypatch.delenv("ZENOSLH_TOL")
    assert main(["check", KERR]) == 0


def test_converge_honours_tolerance_override(tmp_path, monkeypatch, capsys):
    # converge eliminates the model too, so an override that makes
    # eliminate fail must make converge fail the same way
    argv = ["converge", KERR, "--ks", "2", "--initial", "basis:1", "--out", str(tmp_path / "c.csv")]
    monkeypatch.setenv("ZENOSLH_TOL", "10")
    assert main(["eliminate", KERR]) == 2
    assert main(argv) == 2
    assert "KernelViolation" in capsys.readouterr().err
    monkeypatch.delenv("ZENOSLH_TOL")
    assert main(argv + ["--kernel-tol", "10"]) == 2


def test_evolve_infinite_horizon_exits_one(tmp_path, capsys):
    out = tmp_path / "e.csv"
    assert main(["evolve", KERR, "--t-end", "inf", "--out", str(out)]) == 1
    assert "--t-end must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_nan_step_exits_one(tmp_path, capsys):
    out = tmp_path / "e.csv"
    assert main(["evolve", KERR, "--dt", "nan", "--out", str(out)]) == 1
    assert "--dt must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k", ["0", "-2", "nan"])
def test_evolve_full_bad_k_exits_one(tmp_path, capsys, k):
    out = tmp_path / "e.csv"
    assert main(["evolve", KERR, "--model", "full", "--k", k, "--out", str(out)]) == 1
    assert "--k must be finite and positive" in capsys.readouterr().err


def test_converge_non_numeric_k_exits_one(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["converge", KERR, "--ks", "1,x", "--out", str(out)]) == 1
    assert "--ks must be comma-separated numbers" in capsys.readouterr().err
    assert not out.exists()


def test_linstab_zero_k_exits_one(tmp_path, capsys):
    out = tmp_path / "stab.csv"
    assert main(["linstab", GAMMA, "--ks", "0", "--out", str(out)]) == 1
    assert "--ks must be finite and positive, got 0.0" in capsys.readouterr().err
    assert not out.exists()


def test_initial_basis_index_must_be_an_integer(tmp_path, capsys):
    out = tmp_path / "e.csv"
    assert main(["evolve", KERR, "--initial", "basis:x", "--out", str(out)]) == 1
    assert "basis index must be an integer" in capsys.readouterr().err


def test_evolve_manifest_records_method(tmp_path):
    out = tmp_path / "e.csv"
    assert main(["evolve", KERR, "--t-end", "0.01", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "e.csv.manifest.json").read_text())
    assert manifest["method"] == "dense"


def test_evolve_and_converge_manifests_record_steps_and_method(tmp_path):
    out = tmp_path / "e.csv"
    assert main(["evolve", KERR, "--t-end", "0.01", "--dt", "3e-3", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "e.csv.manifest.json").read_text())
    assert manifest["n_steps"] == 3 and manifest["dt_eff"] == 0.01 / 3
    out = tmp_path / "c.csv"
    assert main(["converge", KERR, "--ks", "2,4", "--t-end", "0.01", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
    assert manifest["method"] == "dense"
    assert manifest["n_steps"] is None and manifest["dt_eff"] is None


def test_converge_manifest_method_is_that_of_its_runs(tmp_path, monkeypatch):
    points = []
    harness = cli.convergence_harness

    def recorded(*args, **kwargs):
        points.extend(harness(*args, **kwargs))
        return points

    monkeypatch.setattr(cli, "convergence_harness", recorded)
    # a path the dimension rule would not pick, so the manifest can only
    # have read it from the runs
    monkeypatch.setattr(master, "_method", lambda *args: "matrix_free")
    out = tmp_path / "c.csv"
    assert main(["converge", KERR, "--ks", "2,4", "--t-end", "0.01", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
    assert manifest["method"] == points[0].method == "matrix_free"


@pytest.mark.parametrize(
    "argv, manifest",
    [
        (["evolve", KERR, "--t-end", "0.01", "--out", "{d}/e.csv"], "e.csv.manifest.json"),
        (["traj", KERR, "--scheme", "counting", "--n", "2", "--t-end", "0.01",
          "--out-dir", "{d}"], "manifest.json"),
        (["converge", KERR, "--ks", "2,4", "--t-end", "0.01", "--out", "{d}/c.csv"],
         "c.csv.manifest.json"),
    ],
)
def test_run_manifests_record_phase_timings(tmp_path, argv, manifest):
    assert main([a.format(d=tmp_path) for a in argv]) == 0
    timings = json.loads((tmp_path / manifest).read_text())["timings"]
    assert set(timings) == {"model_s", "run_s", "write_s"}
    assert all(isinstance(v, float) and v >= 0 for v in timings.values())


# The child caps its own address space before it imports anything, runs one
# CLI command in-process and prints its exit code and peak RSS (VmHWM, kB).
_CAPPED_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]), int(sys.argv[1])))
from zenoslh.cli import main
code = main(sys.argv[2:])
with open("/proc/self/status") as f:
    hwm = next(line for line in f if line.startswith("VmHWM:"))
print(code, hwm.split()[1])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_evolve_at_d150_fits_in_a_capped_address_space(tmp_path):
    # one dense d^2 x d^2 matrix at d = 150 needs 8.1 GB; the matrix-free
    # path stays far below the 1.5 GB cap on the child's address space
    doc = json.loads((MODELS / "kerr_qubit.model").read_text())
    doc["spaces"]["mode"]["n_max"] = 150
    model = tmp_path / "kerr150.model"
    model.write_text(json.dumps(doc))
    out = tmp_path / "e.csv"
    src = str(Path(zenoslh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    argv = ["evolve", str(model), "--model", "full", "--k", "1", "--t-end", "1e-4",
            "--dt", "1e-5", "--initial", "basis:1", "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CHILD, str(1536 * 2**20), *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    code, hwm_kb = proc.stdout.split()
    assert code == "0"
    assert int(hwm_kb) < 200 * 1024  # about 80 MB measured, against 8.1 GB for one dense matrix
    assert len(out.read_text().splitlines()) == 12  # header + 11 saved states of 10 steps
    assert json.loads((tmp_path / "e.csv.manifest.json").read_text())["method"] == "banded"


# The child caps its address space, stops the CLI command after one second
# with a KeyboardInterrupt, and prints what its out dir held then and after,
# and its peak RSS (VmHWM, kB).
_INTERRUPTED_CHILD = """
import os, resource, signal, sys
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]), int(sys.argv[1])))
from zenoslh.cli import main
out_dir = sys.argv[2]
held = []

def stop(*_):
    held.extend((f, os.path.getsize(os.path.join(out_dir, f))) for f in os.listdir(out_dir))
    raise KeyboardInterrupt

signal.signal(signal.SIGALRM, stop)
signal.alarm(1)
try:
    main(sys.argv[3:])
except KeyboardInterrupt:
    with open("/proc/self/status") as f:
        hwm = next(line for line in f if line.startswith("VmHWM:"))
    print(repr((held, os.listdir(out_dir), int(hwm.split()[1]))))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_evolve_past_memory_streams_its_rows(tmp_path):
    # 1e12 saved steps would take 7.28 TiB of times alone; the rows stream
    # to a temporary file instead, which an interrupt removes
    out = tmp_path / "e.csv"
    src = str(Path(zenoslh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["evolve", KERR, "--t-end", "1e9", "--dt", "1e-3", "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-c", _INTERRUPTED_CHILD, str(1536 * 2**20), str(tmp_path), *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    held, after, hwm_kb = ast.literal_eval(proc.stdout)
    [(name, size)] = held
    assert name.startswith(".e.csv.") and name.endswith(".tmp")
    assert size > 8192  # whole blocks of rows reached the file while the run went on
    assert after == []
    assert hwm_kb < 200 * 1024


def _kerr_model(tmp_path, n_max):
    doc = json.loads((MODELS / "kerr_qubit.model").read_text())
    doc["spaces"]["mode"]["n_max"] = n_max
    path = tmp_path / f"kerr{n_max}.model"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "n_max, t_end, dt, method",
    # 251 rows of 75 values and 26 rows of 803: neither fills whole blocks
    [(6, "0.25", "1e-3", "dense"), (20, "2.5e-3", "1e-4", "banded")],
)
def test_evolve_streams_the_csv_of_its_result(tmp_path, n_max, t_end, dt, method):
    model = _kerr_model(tmp_path, n_max)
    out = tmp_path / "e.csv"
    argv = ["evolve", str(model), "--model", "full", "--k", "2", "--t-end", t_end, "--dt", dt,
            "--initial", "basis:1", "--out", str(out)]
    assert main(argv) == 0
    g = zenoslh.instantiate(load_model(str(model)).family, 2.0)
    res = zenoslh.evolve(g, basis_state_density(g.space, 1), float(t_end), float(dt))
    assert res.method == method
    assert len(res.times) % (outputs._BLOCK_VALUES // (3 + 2 * g.dim**2)) != 0
    write_evolution_csv(tmp_path / "ref.csv", res)
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    manifest = json.loads((tmp_path / "e.csv.manifest.json").read_text())
    assert (manifest["method"], manifest["n_steps"], manifest["dt_eff"]) == (
        res.method, res.n_steps, res.dt_eff
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "e.csv", "e.csv.manifest.json", model.name, "ref.csv"
    ]


# a qubit decaying at rate 32: stepped at dt = 0.1, evolve aborts near step 40
DECAY32 = {
    "name": "decay32",
    "spaces": {"q": {"kind": "level", "dim": 2}},
    "family": {"channels": 1, "S": [["1"]], "L1": ["0"], "L0": ["sqrt(32)*ketbra(q, 0, 1)"],
               "H2": "0", "H1": "0", "H0": "0"},
    "subspace": {"basis": [[0]]},
}


@pytest.mark.parametrize("block", [None, 9])
def test_evolve_abort_mid_stream_writes_nothing(tmp_path, monkeypatch, capsys, block):
    # a qubit decaying at rate 32, stepped at dt = 0.1, aborts near step 40
    # of 300 (see test_abort_inside_a_block_matches_matrix_space); with
    # 9-value blocks, each 11-value row is written before the next is made
    if block is not None:
        monkeypatch.setattr(outputs, "_BLOCK_VALUES", block)
    path = tmp_path / "decay32.model"
    path.write_text(json.dumps(DECAY32))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = ["evolve", str(path), "--model", "full", "--k", "1", "--t-end", "30", "--dt", "0.1",
            "--initial", "basis:1", "--out", str(out_dir / "e.csv")]
    assert main(argv) == 2
    g = zenoslh.instantiate(load_model(str(path)).family, 1.0)
    with pytest.raises(StepSizeError) as want:
        zenoslh.evolve(g, basis_state_density(g.space, 1), 30.0, 0.1)
    assert capsys.readouterr().err == f"zenoslh: {want.value}\n"
    assert round(float(str(want.value).split(" at t=")[1].split()[0]) / 0.1) > 2
    assert list(out_dir.iterdir()) == []


def test_evolve_abort_after_the_formatter_forked_writes_nothing(tmp_path, monkeypatch, capsys):
    # as test_evolve_abort_mid_stream_writes_nothing with 9-value blocks,
    # the formatter forked at the second block
    forks = forking(monkeypatch)
    monkeypatch.setattr(outputs, "_BLOCK_VALUES", 9)
    monkeypatch.setattr(outputs, "_FORK_MIN_VALUES", 1)
    path = tmp_path / "decay32.model"
    path.write_text(json.dumps(DECAY32))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = ["evolve", str(path), "--model", "full", "--k", "1", "--t-end", "30", "--dt", "0.1",
            "--initial", "basis:1", "--out", str(out_dir / "e.csv")]
    assert main(argv) == 2
    assert "exceeds" in capsys.readouterr().err
    assert len(forks) == 1
    assert list(out_dir.iterdir()) == []
    with pytest.raises(ChildProcessError):  # every child reaped
        os.waitpid(-1, os.WNOHANG)


def test_evolve_with_a_killed_formatter_writes_nothing(tmp_path, monkeypatch, capsys):
    forks = forking(monkeypatch)
    kill_the_formatter(monkeypatch)
    model = _kerr_model(tmp_path, 30)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = ["evolve", str(model), "--model", "full", "--k", "2", "--t-end", "5e-2", "--dt", "5e-4",
            "--initial", "basis:1", "--out", str(out_dir / "e.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "zenoslh: a CSV formatter worker ended without its result (signal 9)\n"
    )
    assert len(forks) == 1
    assert list(out_dir.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_evolve_memory_does_not_grow_with_saved_rows(tmp_path):
    """The traced peak of the evolve command does not grow with its rows."""
    model = str(_kerr_model(tmp_path, 30))
    peaks = []
    for t_end in ("5e-4", "5e-2", "2e-1"):  # 2, 101 and 401 rows at d = 30
        argv = ["evolve", model, "--model", "full", "--k", "2", "--t-end", t_end, "--dt", "5e-4",
                "--initial", "basis:1", "--out", str(tmp_path / "e.csv")]
        tracemalloc.start()
        assert main(argv) == 0
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # the first run also builds the formatter's tables, and its rows, near
    # the basis state, have few distinct values to format; one state at
    # d = 30 is 14.4 kB, so 300 more states held would be 4.3 MB
    assert peaks[2] - peaks[1] < 256 * 1024


@pytest.mark.parametrize("module", ["zenoslh", "zenoslh.cli"])
def test_import_leaves_scipy_unloaded(module):
    src = str(Path(zenoslh.__file__).resolve().parents[1])
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "slot, value",
    [
        ("H1", "ketbra(mode, 1e400, 0)"),  # overflowed int() in the index check
        ("H1", "1e400*identity(mode)"),
        ("chi0", float("nan")),
        ("chi0", float("inf")),
    ],
)
def test_check_non_finite_model_exits_one(tmp_path, capsys, slot, value):
    doc = json.loads((MODELS / "kerr_qubit.model").read_text())
    if slot == "H1":
        doc["family"]["H1"] = value
    else:
        doc["parameters"][slot] = value
    model = tmp_path / "nonfinite.model"
    model.write_text(json.dumps(doc))
    assert main(["check", str(model)]) == 1
    err = capsys.readouterr().err
    assert "family.H1: " in err if slot == "H1" else "parameters.chi0: value is not finite" in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["parameters"].update(chi0=True), "parameters.chi0: expected a number"),
        (
            lambda d: d["family"].update(channels=True, S=[["1"]], L1=["0"], L0=["a"]),
            "family.channels must be a positive integer",
        ),
        (lambda d: d.update(subspace={"basis": [False, True]}), "subspace.basis: entries must"),
        (lambda d: d.update(subspace={"basis": [[False], [True]]}), "subspace.basis: entries must"),
        (lambda d: d["parameters"].update({"two words": 1.0}), "parameters: invalid name"),
        (lambda d: d["operators"].update({"9x": "a"}), "operators: invalid name '9x'"),
    ],
    ids=[
        "bool-parameter", "bool-channels", "bool-basis", "bool-basis-tuple", "param-name", "op-name"
    ],
)
def test_check_rejects_booleans_and_unreachable_names(tmp_path, capsys, edit, message):
    doc = json.loads((MODELS / "kerr_qubit.model").read_text())
    edit(doc)
    model = tmp_path / "bad.model"
    model.write_text(json.dumps(doc))
    assert main(["check", str(model)]) == 1
    assert message in capsys.readouterr().err


def test_evolve_basis_index_out_of_range_exits_one(tmp_path, capsys):
    out = tmp_path / "e.csv"
    assert main(["evolve", KERR, "--initial", "basis:99", "--out", str(out)]) == 1
    assert "basis index 99 out of range for dimension 2" in capsys.readouterr().err
    assert not out.exists()


def test_traj_step_longer_than_horizon_exits_one(tmp_path, capsys):
    out = tmp_path / "t"
    argv = ["traj", KERR, "--scheme", "homodyne", "--t-end", "0.1", "--dt", "0.5",
            "--out-dir", str(out)]
    assert main(argv) == 1
    assert "--dt must not exceed --t-end" in capsys.readouterr().err
    assert not out.exists()


def test_traj_channel_out_of_range_exits_one(tmp_path, capsys):
    out = tmp_path / "t"
    argv = ["traj", KERR, "--scheme", "counting", "--channel", "7", "--out-dir", str(out)]
    assert main(argv) == 1
    assert "--channel must be in [0, 2), got 7" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "section, value", [("parameters", [1]), ("operators", "a")], ids=["parameters", "operators"]
)
def test_check_non_object_section_exits_one(tmp_path, capsys, section, value):
    doc = json.loads((MODELS / "kerr_qubit.model").read_text())
    doc[section] = value
    model = tmp_path / "bad.model"
    model.write_text(json.dumps(doc))
    assert main(["check", str(model)]) == 1
    assert f"{section}: expected an object" in capsys.readouterr().err


def test_converge_past_2_to_the_53_steps_exits_two(tmp_path, capsys):
    # k = 1e9 needs 1e19 full-model steps; saving every 10**9 of them once
    # sized the run for 10**10 rows
    out = tmp_path / "c.csv"
    argv = ["converge", KERR, "--ks", "1,1e9", "--t-end", "0.01", "--dt", "0.001",
            "--out", str(out)]
    assert main(argv) == 2
    assert "step count 10000000000000000000 exceeds 2**53" in capsys.readouterr().err
    assert not out.exists()


def test_converge_checks_every_k_before_the_first_step(tmp_path, capsys, monkeypatch):
    # k = 20 alone would take 400 000 steps before k = 1e9 is found to need
    # 1e21 of them
    def no_steps(*args):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(master, "_run_steps", no_steps)
    out = tmp_path / "c.csv"
    argv = ["converge", KERR, "--ks", "20,1e9", "--t-end", "1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "step count 999999999999999868928 exceeds 2**53; increase dt" in err
    assert not out.exists()


def test_linstab_huge_k_exits_one_without_outputs(tmp_path, capsys):
    # k**2 overflows a float: float(k) ** 2 once raised a raw OverflowError
    out = tmp_path / "k.csv"
    assert main(["linstab", GAMMA, "--ks", "1,1e160", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "zenoslh: --ks value 1e+160 is too large: k**2 is not a finite float\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["evolve", KERR, "--model", "full", "--k", "1e160", "--t-end", "0.01"], "--k"),
        (["converge", KERR, "--ks", "1,1e160", "--t-end", "0.01"], "--ks"),
    ],
)
def test_huge_k_exits_one_without_outputs(tmp_path, capsys, argv, flag):
    # k**2 overflows a float: instantiate once hit a numpy RuntimeWarning and
    # exited 2 with an error that named neither the flag nor the value
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"zenoslh: {flag} value 1e+160 is too large: k**2 is not a finite float\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spelling", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_linstab_non_finite_gamma_exits_one(tmp_path, capsys, spelling):
    # json reads all four; LAPACK once rejected them with exit 2, naming no block
    gamma = tmp_path / "g.json"
    text = (MODELS / "oscillator_pair.gamma.json").read_text()
    gamma.write_text(text.replace('"Gamma2": [[0.3], [0.1]]', f'"Gamma2": [[0.3], [{spelling}]]'))
    out = tmp_path / "k.csv"
    assert main(["linstab", str(gamma), "--ks", "1,2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "zenoslh: gamma file: Gamma2: value is not finite\n"
    assert not out.exists()


def test_linstab_manifest_records_method_and_timings(tmp_path):
    out = tmp_path / "k.csv"
    assert main(["linstab", GAMMA, "--ks", "1,5", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "k.csv.manifest.json").read_text())
    assert manifest["method"] == "complex"  # r + m = 3 is below the real-arithmetic cut-off
    assert set(manifest["timings"]) == {"model_s", "run_s", "write_s"}
    assert all(isinstance(v, float) and v >= 0 for v in manifest["timings"].values())


@pytest.mark.parametrize("cpus, ks, workers", [(1, "1,5,10", 1), (3, "1,5", 2), (2, "1,5,10", 2)])
def test_linstab_manifest_records_its_workers(tmp_path, monkeypatch, cpus, ks, workers):
    # W = min(CPUs in the affinity set, number of k); other commands record null
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    out = tmp_path / "k.csv"
    assert main(["linstab", GAMMA, "--ks", ks, "--out", str(out)]) == 0
    assert json.loads((tmp_path / "k.csv.manifest.json").read_text())["workers"] == workers
    assert main(["evolve", KERR, "--t-end", "0.01", "--out", str(tmp_path / "e.csv")]) == 0
    assert json.loads((tmp_path / "e.csv.manifest.json").read_text())["workers"] is None


@pytest.mark.parametrize(
    "cpus, extra, workers",
    [
        (1, [], 1),
        (2, [], 2),
        (3, [], 3),
        # 20 and 90 steps: too few to fork for
        (2, ["--ks", "1,3", "--t-end", "0.02"], 1),
    ],
)
def test_converge_manifest_records_its_workers(tmp_path, monkeypatch, cpus, extra, workers):
    # W = min(CPUs in the affinity set, number of k) processes step, when
    # the process runs one thread (BLAS's own may run here) and each forked
    # bin takes enough steps; else 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(master, "_one_thread", lambda: True)
    out = tmp_path / "k.csv"
    argv = ["converge", KERR, "--ks", "1,2,3,4,6", "--t-end", "0.5", "--initial", "basis:1",
            *extra, "--out", str(out)]
    assert main(argv) == 0
    assert json.loads((tmp_path / "k.csv.manifest.json").read_text())["workers"] == workers
    with pytest.raises(ChildProcessError):  # every child reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "n_max, argv, message",
    [
        (6, ["evolve", "m.model", "--model", "full", "--k", "1", "--out", "e.csv"],
         "channel 0: L^H L is not finite"),
        # the limit run fails first
        (6, ["converge", "m.model", "--ks", "1,2", "--out", "c.csv"],
         "channel 0: L^H L is not finite"),
        # d = 25 steps matrix-free, in the K form
        (24, ["evolve", "m.model", "--model", "full", "--k", "1", "--t-end", "0.01", "--out",
              "e.csv"], "drift coefficient K is not finite"),
    ],
)
def test_a_generator_that_overflows_names_its_term(tmp_path, monkeypatch, capsys, n_max, argv,
                                                   message):
    # L^H L = 1e320 a^H a is not finite at any dt; the runs once ended in
    # "trace drift nan at t=0.001 exceeds 1.0e-06; reduce dt"
    model = json.loads(Path(KERR).read_text())
    model["spaces"]["mode"]["n_max"] = n_max
    model["family"]["L0"][0] = "1e160*sqrt(kappa1)*a"
    (tmp_path / "m.model").write_text(json.dumps(model))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"zenoslh: {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["m.model"]


@pytest.mark.parametrize("existed", [False, True])
def test_failed_traj_removes_only_the_out_dir_it_made(tmp_path, capsys, existed):
    # the homodyne states turn NaN after the first block has run, which
    # once left the --out-dir it had made behind, empty
    out_dir = tmp_path / "runs" / "out"
    if existed:
        out_dir.mkdir(parents=True)
    argv = ["traj", KERR, "--scheme", "homodyne", "--dt", "1", "--t-end", "200", "--n", "2",
            "--initial", "basis:1", "--out-dir", str(out_dir)]
    assert main(argv) == 2
    assert "measurement mean nan" in capsys.readouterr().err
    assert out_dir.is_dir() == existed
    assert not existed or list(out_dir.iterdir()) == []


def test_failed_traj_keeps_an_out_dir_that_holds_files(tmp_path, monkeypatch):
    # a chunk of one member: the first member's CSV is complete when the
    # second fails, and the directory is kept for it
    monkeypatch.setattr(cli, "TRAJ_CHUNK_BYTES", 1)
    real = cli._ensemble_blocks

    def second_fails(g, rho0, config, size):
        if config.seed == 8:
            raise ValueError("second member fails")
        return real(g, rho0, config, size)

    monkeypatch.setattr(cli, "_ensemble_blocks", second_fails)
    out_dir = tmp_path / "out"
    argv = ["traj", KERR, "--scheme", "counting", "--seed", "7", "--dt", "0.01", "--t-end",
            "0.05", "--n", "2", "--initial", "basis:1", "--out-dir", str(out_dir)]
    assert main(argv) == 2
    assert [p.name for p in out_dir.iterdir()] == ["traj_0000.csv"]


def _broken_kerr(tmp_path):
    """The Kerr model with a k-linear coupling that has a Zeno column,
    which fails the scaling condition."""
    doc = json.loads((MODELS / "kerr_qubit.model").read_text())
    doc["family"]["L1"] = ["a", "0"]
    path = tmp_path / "broken.model"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "tight"])
def test_env_tolerance_must_be_finite_and_nonnegative(tmp_path, monkeypatch, capsys, value):
    # a NaN tolerance once passed every condition: check reported this
    # broken model as zenofiable and eliminate printed a limit triple
    model = _broken_kerr(tmp_path)
    monkeypatch.setenv("ZENOSLH_TOL", value)
    for command in ("check", "eliminate"):
        out = tmp_path / f"{command}.json"
        assert main([command, str(model), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"zenoslh: ZENOSLH_TOL must be finite and nonnegative, got {value!r}\n"
        assert not out.exists()


@pytest.mark.parametrize("flag", ["--scaling-tol", "--kernel-tol", "--decoupling-tol"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_tolerance_flags_must_be_finite_and_nonnegative(tmp_path, capsys, flag, value):
    model = _broken_kerr(tmp_path)
    out = tmp_path / "r.json"
    assert main(["check", str(model), flag, value, "--out", str(out)]) == 1
    assert f"{flag} must be finite and nonnegative, got {float(value)!r}" in capsys.readouterr().err
    assert not out.exists()


def test_traj_negative_seed_exits_one_before_any_output(tmp_path, capsys):
    # numpy once rejected the seed with exit 2, after the directory was made
    out_dir = tmp_path / "runs"
    argv = ["traj", KERR, "--scheme", "homodyne", "--seed", "-1", "--out-dir", str(out_dir)]
    assert main(argv) == 1
    assert "--seed must be finite and nonnegative, got -1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_linstab_mismatched_blocks_exit_one(tmp_path, capsys):
    # Gamma2 must be r x m = 2 x 1; a 1 x 3 block is an input error, not a
    # condition violation
    gamma = tmp_path / "g.json"
    doc = json.loads((MODELS / "oscillator_pair.gamma.json").read_text())
    doc["Gamma2"] = [[0.3, 0.1, 0.2]]
    gamma.write_text(json.dumps(doc))
    out = tmp_path / "k.csv"
    assert main(["linstab", str(gamma), "--ks", "1,2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("zenoslh: gamma file: off-diagonal blocks must be ")
    assert not out.exists()


def test_check_trivial_kernel_auto_subspace_report(tmp_path, capsys):
    doc = json.loads((MODELS / "kerr_qubit.model").read_text())
    doc["family"]["H2"] = "identity(mode)"
    doc["subspace"] = "auto"
    model = tmp_path / "trivial.model"
    model.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["check", str(model), "--out", str(out)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report == json.loads(out.read_text())
    assert report["zenofiable"] is False
    assert report["failed_condition"] == "KernelViolation"
    assert report["message"] == (
        "the k^2 drift coefficient has a trivial kernel; no Zeno subspace exists"
    )
    assert report["residuals"] == {}
    assert main(["eliminate", str(model)]) == 2
    assert capsys.readouterr().err == (
        "zenoslh: KernelViolation: the k^2 drift coefficient has a trivial kernel; "
        "no Zeno subspace exists\n"
    )


@pytest.mark.parametrize(
    "t_end, dt, message",
    [
        ("1e300", "1e-300", "step count t_end / dt = inf is not finite"),
        ("1e17", "1e-3", "step count 100000000000000000000 exceeds 2**53; increase dt"),
    ],
)
def test_traj_grid_that_cannot_be_stepped_exits_two_without_output(tmp_path, capsys, t_end,
                                                                   dt, message):
    # the first once died in an OverflowError traceback, the second in numpy's
    # "Maximum allowed dimension exceeded"
    out_dir = tmp_path / "r"
    argv = ["traj", KERR, "--scheme", "homodyne", "--t-end", t_end, "--dt", dt,
            "--out-dir", str(out_dir)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"zenoslh: {message}\n"
    assert not out_dir.exists()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_traj_past_memory_streams_its_members(tmp_path):
    # 1e12 homodyne steps would take 7.28 TiB of draws alone; each block of
    # rows streams to the member's temporary file instead, which an
    # interrupt removes
    src = str(Path(zenoslh.__file__).resolve().parents[1])
    argv = ["traj", KERR, "--scheme", "homodyne", "--t-end", "1e9", "--dt", "1e-3",
            "--out-dir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-c", _INTERRUPTED_CHILD, str(1536 * 2**20), str(tmp_path), *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    held, after, hwm_kb = ast.literal_eval(proc.stdout)
    [(name, size)] = held
    assert name.startswith(".traj_0000.csv.") and name.endswith(".tmp")
    assert size > 8192  # whole blocks of rows reached the file while the run went on
    assert after == []
    assert hwm_kb < 200 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="sets RLIMIT_NOFILE")
def test_traj_chunk_may_outnumber_the_open_file_limit(tmp_path):
    # 100 members run in one chunk under a limit of 64 open files: each
    # member's file is open only while a block of rows is appended to it
    child = (
        "import resource, sys; hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]; "
        "resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard)); "
        "from zenoslh.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    src = str(Path(zenoslh.__file__).resolve().parents[1])
    argv = ["traj", KERR, "--scheme", "counting", "--n", "100", "--t-end", "0.01",
            "--out-dir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-c", child, *argv], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("traj_*.csv"))) == 100


def test_traj_jump_guard_leaves_no_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "r"
    argv = ["traj", KERR, "--scheme", "counting", "--dt", "0.9", "--t-end", "1",
            "--out-dir", str(out_dir)]
    assert main(argv) == 2
    assert "reduce dt" in capsys.readouterr().err
    assert not out_dir.exists()


def test_traj_manifest_records_its_step_grid(tmp_path):
    # 0.01953125 / 0.0078125 = 2.5 rounds to 2 steps, as evolve rounds it
    argv = ["traj", KERR, "--scheme", "homodyne", "--n", "1", "--t-end", "0.01953125",
            "--dt", "0.0078125", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["n_steps"] == 2 and manifest["dt_eff"] == 0.009765625
    times = np.loadtxt(tmp_path / "traj_0000.csv", delimiter=",", skiprows=1, usecols=0)
    assert list(times) == [manifest["dt_eff"], 2 * manifest["dt_eff"]]  # one row per step


def test_linstab_reports_a_malformed_gamma_block_before_a_non_finite_one(tmp_path, capsys):
    # the blocks are read whole first, then checked for finite values
    gamma = tmp_path / "g.json"
    doc = json.loads((MODELS / "oscillator_pair.gamma.json").read_text())
    doc["Gamma2"][1] = [float("nan")]
    doc["Gamma4"] = [-1.0]
    gamma.write_text(json.dumps(doc))
    assert main(["linstab", str(gamma), "--ks", "1,2", "--out", str(tmp_path / "k.csv")]) == 1
    err = capsys.readouterr().err
    assert err == "zenoslh: gamma file: expected a real matrix or nested [re, im] pairs\n"


def test_linstab_gamma_integer_too_large_for_a_float_exits_one(tmp_path, capsys):
    # json reads 1 followed by 400 zeros as an int, which no float holds;
    # it once escaped as an OverflowError traceback
    gamma = tmp_path / "g.json"
    text = (MODELS / "oscillator_pair.gamma.json").read_text()
    gamma.write_text(text.replace('"Gamma2": [[0.3], [0.1]]', f'"Gamma2": [[0.3], [1{"0" * 400}]]'))
    out = tmp_path / "k.csv"
    assert main(["linstab", str(gamma), "--ks", "1,2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("zenoslh: gamma file: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("scheme", ["homodyne", "counting"])
def test_traj_manifest_records_jumps_and_max_purity(tmp_path, monkeypatch, scheme):
    # chunks of 2, 2 and 1 members, so both fields gather over chunks
    monkeypatch.setattr(cli, "TRAJ_CHUNK_BYTES", 2 * master._BLOCK * 4 * 16)
    argv = ["traj", KERR, "--scheme", scheme, "--seed", "11", "--n", "5", "--t-end", "0.5",
            "--dt", "0.005", "--initial", "basis:1", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    doc = load_model(KERR)
    g = zeno_eliminate(doc.family, doc.split()).zeno_triple
    rho0 = basis_state_density(g.space, 1)
    runs = [simulate(g, rho0, SimConfig(dt=0.005, t_end=0.5, seed=11 + i, scheme=scheme))
            for i in range(5)]
    purity = max(s.purity() for r in runs for s in r.states)
    assert manifest["max_purity"] == pytest.approx(purity, rel=1e-14, abs=0)
    if scheme == "counting":
        assert manifest["jumps"] == sum(len(r.record.jump_times) for r in runs) > 0
    else:
        assert manifest["jumps"] is None
        assert manifest["max_purity"] > 1  # the Euler update leaves the cone


def test_manifests_of_other_commands_record_no_trajectory_diagnostics(tmp_path):
    assert main(["evolve", KERR, "--t-end", "0.01", "--out", str(tmp_path / "e.csv")]) == 0
    manifest = json.loads((tmp_path / "e.csv.manifest.json").read_text())
    assert manifest["jumps"] is None and manifest["max_purity"] is None


@pytest.mark.parametrize("command", ["check", "eliminate"])
def test_check_and_eliminate_manifests_record_phase_timings(tmp_path, capsys, command):
    assert main([command, KERR, "--out", str(tmp_path / "r.json")]) == 0
    timings = json.loads((tmp_path / "r.json.manifest.json").read_text())["timings"]
    assert set(timings) == {"model_s", "run_s", "write_s"}
    assert all(isinstance(v, float) and v >= 0 for v in timings.values())


def _manifest_of(out):
    return json.loads(Path(f"{out}.manifest.json").read_text())


@pytest.mark.parametrize("command", ["check", "eliminate"])
def test_check_and_eliminate_manifests_record_method_and_cond_a_ff(tmp_path, capsys, command):
    out = tmp_path / "r.json"
    assert main([command, LAMBDA, "--out", str(out)]) == 0
    doc = load_model(LAMBDA)
    a_ff = block_split(expand_k(doc.family).quadratic, doc.split())[3]
    manifest = _manifest_of(out)
    assert manifest["method"] == "full_space"
    assert manifest["cond_a_ff"] == pytest.approx(np.linalg.cond(a_ff), rel=1e-12)
    assert manifest["cond_a_ff"] > 1


def _model_with(tmp_path, name, **family):
    doc = json.loads((MODELS / "kerr_qubit.model").read_text())
    doc["family"].update(family)
    path = tmp_path / f"{name}.model"
    path.write_text(json.dumps(doc))
    return str(path)


def test_check_manifest_records_cond_a_ff_once_the_svd_has_run(tmp_path, capsys):
    # the scaling check fails before the SVD of A_ff; the guard, after it
    scaling = _model_with(tmp_path, "scaling", L1=["a", "0"])
    # A_ff = -i diag(2e-8, 1e5, 1e5, 1e5): sigma_min passes, cond(A_ff) = 5e12
    singular = _model_with(
        tmp_path, "singular",
        H2="2e-8*ketbra(mode, 2, 2) + 1e5*(ketbra(mode, 3, 3) + ketbra(mode, 4, 4) "
        "+ ketbra(mode, 5, 5))",
    )
    for model, failed in ((scaling, "ScalingViolation"), (singular, "KernelViolation")):
        out = tmp_path / f"{failed}.json"
        assert main(["check", model, "--out", str(out)]) == 2
        assert json.loads(out.read_text())["failed_condition"] == failed
        manifest = _manifest_of(out)
        assert manifest["method"] == "full_space"
        if failed == "ScalingViolation":
            assert manifest["cond_a_ff"] is None
        else:
            assert manifest["cond_a_ff"] > elimination.CONDITION_NUMBER_GUARD


def test_check_manifest_without_a_split_records_no_method(tmp_path, capsys):
    doc = json.loads((MODELS / "kerr_qubit.model").read_text())
    doc["family"]["H2"] = "identity(mode)"
    doc["subspace"] = "auto"
    model = tmp_path / "trivial.model"
    model.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["check", str(model), "--out", str(out)]) == 2
    manifest = _manifest_of(out)
    assert manifest["method"] is None and manifest["cond_a_ff"] is None


@pytest.mark.parametrize("model", [KERR, LAMBDA, ALKALI])
def test_eliminate_on_the_block_order(tmp_path, capsys, monkeypatch, model):
    full, blocks = tmp_path / "full.json", tmp_path / "blocks.json"
    assert main(["eliminate", model, "--out", str(full)]) == 0
    monkeypatch.setattr(elimination, "_elimination_method", lambda d: "blocks")
    assert main(["eliminate", model, "--out", str(blocks)]) == 0
    assert main(["check", model]) == 0
    want, got = (json.loads(p.read_text()) for p in (full, blocks))
    assert list(got) == list(want) and list(got["residuals"]) == list(want["residuals"])
    for key in ("S", "L", "H", "V_z"):
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12)
    assert (_manifest_of(full)["method"], _manifest_of(blocks)["method"]) == (
        "full_space", "blocks"
    )
    assert _manifest_of(blocks)["cond_a_ff"] == _manifest_of(full)["cond_a_ff"]


def test_evolve_stopped_by_sigterm_leaves_no_file(tmp_path):
    # the run would write for hours; SIGTERM once its temporary file exists
    # must remove that file, as an error or Ctrl-C does
    src = str(Path(zenoslh.__file__).resolve().parents[1])
    argv = ["evolve", KERR, "--t-end", "1e9", "--dt", "1e-3", "--out", str(tmp_path / "e.csv")]
    proc = subprocess.Popen(
        [sys.executable, "-m", "zenoslh", *argv], env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 120
        while not list(tmp_path.glob(".e.csv.*.tmp")):
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert code == 128 + signal.SIGTERM
    assert list(tmp_path.iterdir()) == []


def test_traj_stopped_by_sigterm_leaves_no_file(tmp_path):
    # as test_evolve_stopped_by_sigterm_leaves_no_file, for a member's file
    src = str(Path(zenoslh.__file__).resolve().parents[1])
    argv = ["traj", KERR, "--scheme", "homodyne", "--t-end", "1e9", "--dt", "1e-3",
            "--out-dir", str(tmp_path)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "zenoslh", *argv], env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 120
        while not list(tmp_path.glob(".traj_0000.csv.*.tmp")):
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert code == 128 + signal.SIGTERM
    assert list(tmp_path.iterdir()) == []


def _children(pid) -> list:
    ps = subprocess.run(["ps", "-o", "pid=", "--ppid", str(pid)], capture_output=True, text=True)
    return ps.stdout.split()


@pytest.mark.skipif(sys.platform != "linux" or shutil.which("ps") is None,
                    reason="lists children with procps' ps --ppid")
def test_converge_stopped_by_sigterm_leaves_no_file_and_no_process(tmp_path):
    # SIGTERM once the sweep has forked: the caller kills and reaps its
    # children, and none runs the caller's cleanup
    src = str(Path(zenoslh.__file__).resolve().parents[1])
    argv = ["converge", KERR, "--ks", "1,2,3,4,6", "--t-end", "1e3", "--initial", "basis:1",
            "--out", str(tmp_path / "c.csv")]
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    # a stand-in for a machine of two CPUs, where the sweep forks one child
    script = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
              "from zenoslh.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.Popen([sys.executable, "-c", script, *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 120
        while not _children(proc.pid):
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline
            time.sleep(0.01)
        forked = _children(proc.pid)
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert code == 128 + signal.SIGTERM
    assert list(tmp_path.iterdir()) == []
    assert len(forked) == 1
    for pid in forked:
        assert subprocess.run(["ps", "-p", pid], stdout=subprocess.DEVNULL).returncode != 0


@pytest.mark.skipif(sys.platform != "linux" or shutil.which("ps") is None,
                    reason="lists children with procps' ps --ppid")
def test_evolve_stopped_by_sigterm_after_the_formatter_forked_leaves_no_process(tmp_path):
    # a d = 30 run of hours; SIGTERM once the writer has forked its
    # formatter: the caller kills and reaps it, and it runs none of the
    # caller's cleanup
    src = str(Path(zenoslh.__file__).resolve().parents[1])
    model = _kerr_model(tmp_path, 30)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = ["evolve", str(model), "--model", "full", "--k", "2", "--t-end", "1e6", "--dt", "5e-4",
            "--initial", "basis:1", "--out", str(out_dir / "e.csv")]
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    script = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
              "from zenoslh.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.Popen([sys.executable, "-c", script, *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 120
        while not _children(proc.pid):
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline
            time.sleep(0.01)
        forked = _children(proc.pid)
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert code == 128 + signal.SIGTERM
    assert list(out_dir.iterdir()) == []
    assert len(forked) == 1
    for pid in forked:
        assert subprocess.run(["ps", "-p", pid], stdout=subprocess.DEVNULL).returncode != 0


def test_evolve_restores_the_sigterm_handler(tmp_path):
    before = signal.getsignal(signal.SIGTERM)
    assert main(["evolve", KERR, "--t-end", "0.01", "--out", str(tmp_path / "e.csv")]) == 0
    assert signal.getsignal(signal.SIGTERM) is before


def test_evolve_off_the_main_thread_sets_no_handler(tmp_path):
    codes = []
    argv = ["evolve", KERR, "--t-end", "0.01", "--out", str(tmp_path / "e.csv")]
    worker = threading.Thread(target=lambda: codes.append(main(argv)))
    worker.start()
    worker.join()
    assert codes == [0] and (tmp_path / "e.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        # the homodyne states pass through inf and NaN for several steps
        # before the mean check names the member
        (["traj", KERR, "--scheme", "homodyne", "--dt", "1", "--t-end", "200", "--n", "2",
          "--initial", "basis:1", "--out-dir", "out"],
         "zenoslh: trajectory seed 1: measurement mean nan at t=9 is not finite; reduce dt"),
        # the RK4 step map of k = 1e100 overflows before the first step
        (["evolve", KERR, "--model", "full", "--k", "1e100", "--dt", "1", "--t-end", "3",
          "--initial", "basis:1", "--out", "e.csv"],
         "zenoslh: trace drift nan at t=1 exceeds 1.0e-06; reduce dt"),
        # k**2 = 1e308 is finite, k**2 Gamma4 is not
        (["linstab", "g.json", "--ks", "1e154", "--out", "s.csv"],
         "zenoslh: k = 1e+154: k**2 Gamma3 or k**2 Gamma4 is not finite"),
        # the slow eigenvalues sink below the eigensolver's rounding of a
        # generator whose fast block is k**2 larger: the row once read -0.44
        # (true abscissa -0.4567) at 1e8, and 0.0, an unstable verdict, at 1e154
        (["linstab", GAMMA, "--ks", "1e8", "--out", "s.csv"],
         "zenoslh: k = 100000000.0: spectral abscissa -0.44000000000000006 is within the "
         "eigensolver's rounding floor N eps ||M||_1 = 6.66"),
        (["linstab", GAMMA, "--ks", "1e154", "--out", "s.csv"],
         "zenoslh: k = 1e+154: spectral abscissa 0.0 is within the eigensolver's rounding "
         "floor N eps ||M||_1 = 6.66e+292"),
        # k**2 = 1e308 is finite, k**2 H2 is not; numpy's overflow warning
        # once came first
        (["evolve", KERR, "--model", "full", "--k", "1e154", "--t-end", "0.001", "--dt", "1e-3",
          "--out", "e.csv"],
         "zenoslh: k = 1e+154: k L1 + L0 or k**2 H2 + k H1 + H0 is not finite"),
    ],
)
def test_numerical_failure_prints_one_typed_line(tmp_path, argv, message):
    # numpy's RuntimeWarnings once came before the line, five for the traj run
    (tmp_path / "g.json").write_text(
        json.dumps({"Gamma1": [[-1]], "Gamma2": [[1]], "Gamma3": [[1]], "Gamma4": [[-10]]})
    )
    src = str(Path(zenoslh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "zenoslh", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert proc.stderr == message + "\n"
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["g.json"]


# L1^H L1 = 1e400 |1><1|: A overflows in the kernel search
_A_OVERFLOWS = {"L1": ["1e200*ketbra(q,0,1)"]}
# L1^H L0 = 1e310 |1><0| while A is finite: M overflows in the elimination,
# in the full-space order at d = 3 and in the block order at d = 130
_M_OVERFLOWS = {"L1": ["1e150*ketbra(q,0,1)"], "L0": ["1e160*ketbra(q,0,0)"],
                "H2": "1e300*(identity(q) - ketbra(q,0,0))"}


@pytest.mark.parametrize(
    "argv, dim, slots, subspace, message",
    [
        (["check", "m.json", "--out", "c.json"], 3, _A_OVERFLOWS, "auto",
         "k**2 drift coefficient A"),
        (["traj", "m.json", "--scheme", "counting", "--out-dir", "out"], 3, _A_OVERFLOWS, "auto",
         "k**2 drift coefficient A"),
        (["check", "m.json", "--out", "c.json"], 3, _M_OVERFLOWS, {"basis": [[0]]},
         "k drift coefficient M"),
        (["eliminate", "m.json", "--out", "t.json"], 130, _M_OVERFLOWS, {"basis": [[0]]},
         "k drift coefficient M"),
    ],
)
def test_a_drift_coefficient_that_overflows_names_itself(tmp_path, argv, dim, slots, subspace,
                                                         message):
    # numpy's RuntimeWarnings once came first, six or more lines, then an
    # untyped line or a DecouplingViolation with a NaN residual
    family = {"channels": 1, "S": [["1"]], "L1": ["0"], "L0": ["0"], "H2": "0", "H1": "0",
              "H0": "0", **slots}
    model = {"spaces": {"q": {"kind": "level", "dim": dim}}, "family": family,
             "subspace": subspace}
    (tmp_path / "m.json").write_text(json.dumps(model))
    src = str(Path(zenoslh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "zenoslh", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert proc.stderr == f"zenoslh: {message} is not finite\n"
    assert [p.name for p in tmp_path.rglob("*")] == ["m.json"]


@pytest.mark.parametrize(
    "argv, manifest",
    [
        (["check", KERR, "--out", "c.json"], "c.json.manifest.json"),
        (["eliminate", KERR, "--out", "t.json"], "t.json.manifest.json"),
        (["evolve", KERR, "--t-end", "0.01", "--out", "e.csv"], "e.csv.manifest.json"),
        (["traj", KERR, "--scheme", "counting", "--t-end", "0.01", "--out-dir", "out"],
         "out/manifest.json"),
        (["converge", KERR, "--ks", "1", "--t-end", "0.01", "--out", "k.csv"],
         "k.csv.manifest.json"),
        (["linstab", GAMMA, "--ks", "1,5", "--out", "s.csv"], "s.csv.manifest.json"),
    ],
)
def test_a_manifest_that_cannot_be_written_leaves_no_output(tmp_path, monkeypatch, capsys,
                                                            argv, manifest):
    # each command once kept its CSV or JSON, and check and linstab printed
    # their report, when only the manifest failed
    monkeypatch.chdir(tmp_path)
    (tmp_path / manifest).mkdir(parents=True)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"zenoslh: [Errno 21] Is a directory: '{manifest}'\n"
    made = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
    assert made == sorted({manifest, str(Path(manifest).parent)} - {"."})


@pytest.mark.parametrize(
    "argv",
    [
        ["check", KERR, "--out", "nodir/c.json"],
        ["linstab", GAMMA, "--ks", "1,5", "--out", "nodir/s.csv"],
    ],
)
def test_check_and_linstab_print_nothing_when_they_exit_one(tmp_path, monkeypatch, capsys,
                                                             argv):
    # the report and the verdict once came before the write that failed
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("zenoslh: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_failed_traj_removes_every_directory_it_made(tmp_path, monkeypatch, capsys):
    # a nested --out-dir made whole; the run fails after its first block,
    # which once left a/ and a/b/ behind when only a/b/c was removed
    real = cli._ensemble_blocks

    def fails_after_the_first_block(g, rho0, config, size):
        blocks = real(g, rho0, config, size)
        yield next(blocks)
        raise ValueError("fails after the first block")

    monkeypatch.setattr(cli, "_ensemble_blocks", fails_after_the_first_block)
    argv = ["traj", KERR, "--scheme", "counting", "--t-end", "1", "--out-dir",
            str(tmp_path / "a" / "b" / "c")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "zenoslh: fails after the first block\n"
    assert list(tmp_path.iterdir()) == []
