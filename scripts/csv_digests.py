#!/usr/bin/env python3
"""Run the README command-line examples and print a SHA-256 digest per output.

Each example runs in-process through ``zenoslh.cli.main`` inside a fresh
temporary directory, with shorter horizons and fewer trajectories than
the README where the full run would take minutes.  Besides the CSVs of
evolve, traj, converge and linstab, ``eliminate <model> --out <name>.json``
runs on each shipped model.  One line per CSV or limit-triple JSON,
``<sha256>  <path relative to the output directory>``, sorted by path.
Manifests carry a timestamp and are not digested.

Two trees produce byte-identical outputs exactly when this script prints
the same lines for both, e.g.

    PYTHONPATH=src python scripts/csv_digests.py > after.txt
    PYTHONPATH=<other checkout>/src python scripts/csv_digests.py > before.txt
    diff before.txt after.txt
"""

import argparse
import hashlib
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from zenoslh.cli import main as cli

REPO = Path(__file__).resolve().parents[1]


def examples(models: Path):
    kerr = str(models / "kerr_qubit.model")
    lam = str(models / "lambda_system.model")
    alkali = str(models / "alkali.model")
    gamma = str(models / "oscillator_pair.gamma.json")
    return [
        ["evolve", kerr, "--model", "zeno", "--initial", "basis:1", "--out", "evolution.csv"],
        ["evolve", kerr, "--model", "full", "--k", "5", "--dt", "1e-4", "--t-end", "0.2",
         "--out", "full.csv"],
        ["evolve", lam, "--model", "zeno", "--out", "lambda_zeno.csv"],
        ["evolve", alkali, "--model", "full", "--k", "3", "--dt", "1e-3", "--t-end", "0.3",
         "--initial", "basis:0", "--out", "alkali_full.csv"],
        ["traj", lam, "--scheme", "counting", "--seed", "7", "--n", "10",
         "--initial", "basis:1", "--out-dir", "runs"],
        ["traj", kerr, "--scheme", "homodyne", "--seed", "3", "--n", "10",
         "--initial", "basis:1", "--t-end", "0.5", "--out-dir", "runs_homodyne"],
        ["traj", kerr, "--scheme", "counting", "--seed", "0", "--n", "10",
         "--initial", "basis:1", "--out-dir", "runs_counting"],
        ["converge", kerr, "--ks", "2,5,10,20", "--t-end", "0.2", "--initial", "basis:1",
         "--out", "conv.csv"],
        ["linstab", gamma, "--ks", "1,5,10,50", "--out", "stab.csv"],
        ["eliminate", kerr, "--out", "kerr_qubit.json"],
        ["eliminate", lam, "--out", "lambda_system.json"],
        ["eliminate", alkali, "--out", "alkali.json"],
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--models", default=str(REPO / "models"))
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for argv in examples(Path(args.models).resolve()):
            argv = _under(argv, out)
            with redirect_stdout(StringIO()):
                code = cli(argv)
            if code != 0:
                sys.exit(f"zenoslh {' '.join(argv)} exited {code}")
        outputs = [*out.rglob("*.csv"), *out.glob("*.json")]
        for path in sorted(p for p in outputs if not p.name.endswith("manifest.json")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(out)}")


def _under(argv, out: Path):
    """Point --out/--out-dir values into the output directory."""
    argv = list(argv)
    for i, a in enumerate(argv[:-1]):
        if a in ("--out", "--out-dir"):
            argv[i + 1] = str(out / argv[i + 1])
    return argv


if __name__ == "__main__":
    main()
