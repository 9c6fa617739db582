import json

from zenoslh.cli import main
from zenoslh.outputs import pairs_to_matrix

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
