import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zenoslh
from zenoslh import SimConfig, basis_state_density, load_model, simulate, zeno_eliminate
from zenoslh import cli
from zenoslh.cli import main
from zenoslh.operators import Operator
from zenoslh.outputs import pairs_to_matrix, write_trajectory_csv
from zenoslh.slh import SLHTriple

from common import MODELS, alkali_expected, entrymax

KERR = str(MODELS / "kerr_qubit.model")
ALKALI = str(MODELS / "alkali.model")
LAMBDA = str(MODELS / "lambda_system.model")
GAMMA = str(MODELS / "oscillator_pair.gamma.json")


def test_check_kerr_exits_zero(capsys):
    assert main(["check", KERR]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["zenofiable"] is True
    assert report["residuals"]["scaling_residual"] < 1e-9


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
    # 101 states of 2 x 2 per member: a budget of two members' states
    # splits --n 5 into chunks of 2, 2 and 1
    monkeypatch.setattr(cli, "TRAJ_CHUNK_BYTES", 2 * 101 * 4 * 16)
    sizes = []
    real = cli.simulate_ensemble

    def recording(g, rho0, config, n):
        sizes.append(n)
        return real(g, rho0, config, n)

    monkeypatch.setattr(cli, "simulate_ensemble", recording)
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
    monkeypatch.setattr(cli, "TRAJ_CHUNK_BYTES", 2 * 101 * 4 * 16)
    real = cli.simulate_ensemble

    def second_chunk_blows_up(g, rho0, config, n):
        if config.seed != 11:
            sx = Operator(g.space, np.array([[0, 1], [1, 0]], dtype=complex))
            g = SLHTriple(g.s, g.l, 1e300 * sx)
        with np.errstate(all="ignore"):
            return real(g, rho0, config, n)

    monkeypatch.setattr(cli, "simulate_ensemble", second_chunk_blows_up)
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
    assert json.loads((tmp_path / "e.csv.manifest.json").read_text())["method"] == "matrix_free"


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
