#!/usr/bin/env python3
"""Run the README command-line examples and print a SHA-256 digest per output.

Each example runs in-process through ``zenoslh.cli.main`` inside a fresh
temporary directory, with shorter horizons and fewer trajectories than
the README where the full run would take minutes.  Besides the CSVs of
evolve, traj, converge and linstab, ``eliminate <model> --out <name>.json``
and ``check <model> --out <name>_check.json`` run on each shipped model.
Further examples run on inputs the script writes (``written_examples``):
``evolve --model full`` on ``kerr_qubit.model`` rewritten with ``n_max``
20 and 150 (d = 20, just above the dense step map's largest d, and d =
150, both stepped by diagonals), a ``converge`` of 40 full-model steps at
d = 150, whose elimination takes the block order, and ``linstab`` on
real r = m = 8 Gamma blocks (N = 16, LAPACK's real solver).  One line per
CSV, limit-triple JSON or check report, ``<sha256>  <path relative to the
output directory>``, sorted by path.  Manifests carry a timestamp and are
not digested.

A library section follows, which no CLI command reaches: for a few
seeded ``random_oscillator_model`` inputs, the last at d = 150 on the
block order, it prints ``<sha256>  oscillator/<case>/<name>`` for the raw
array bytes of ``oscillator_limit`` (``limit``), ``build_full_family``
(``family``) and ``zeno_eliminate`` on that family (``eliminated``), then
``<sha256>  evolve/random_24`` for the bytes of the times, states, trace
drifts and hermiticity drifts of ``evolve`` on a seeded d = 24 random
triple, which it steps by d x d products (``"matrix_free"``).  So each
seam of a stepping path, an elimination order or an eigensolver has a
line on each side of it.  Only public API is used, so the script runs
against any checkout that has it.

Two trees produce byte-identical outputs exactly when this script prints
the same lines for both, e.g.

    PYTHONPATH=src python scripts/csv_digests.py > after.txt
    PYTHONPATH=<other checkout>/src python scripts/csv_digests.py > before.txt
    diff before.txt after.txt

``--header`` first prints two ``#`` lines naming the numpy version and the
BLAS that numpy was built with, on which the digests depend.  The listing
committed as ``tests/csv_digests.txt`` is this output, and
``tests/test_csv_digests.py`` checks the tree against it:

    PYTHONPATH=src python scripts/csv_digests.py --header > tests/csv_digests.txt
"""

import argparse
import hashlib
import json
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

from zenoslh import (
    DensityMatrix,
    HilbertSpace,
    Operator,
    SLHTriple,
    build_full_family,
    evolve,
    identity,
    oscillator_limit,
    oscillator_split,
    zeno_eliminate,
)
from zenoslh.cli import main as cli
from zenoslh.random_models import (
    random_complex_matrix,
    random_density_matrix,
    random_hermitian,
    random_oscillator_model,
)

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
        # t_end / dt = 2.5 rounds to 2 steps of 0.009765625, not dt
        ["evolve", kerr, "--t-end", "0.01953125", "--dt", "0.0078125", "--initial", "basis:1",
         "--out", "rounded_grid.csv"],
        ["traj", kerr, "--scheme", "homodyne", "--seed", "5", "--n", "2", "--t-end",
         "0.01953125", "--dt", "0.0078125", "--initial", "basis:1", "--out-dir", "runs_rounded"],
        ["converge", kerr, "--ks", "2,5,10,20", "--t-end", "0.2", "--initial", "basis:1",
         "--out", "conv.csv"],
        ["linstab", gamma, "--ks", "1,5,10,50", "--out", "stab.csv"],
        ["eliminate", kerr, "--out", "kerr_qubit.json"],
        ["eliminate", lam, "--out", "lambda_system.json"],
        ["eliminate", alkali, "--out", "alkali.json"],
        ["check", kerr, "--out", "kerr_qubit_check.json"],
        ["check", lam, "--out", "lambda_system_check.json"],
        ["check", alkali, "--out", "alkali_check.json"],
    ]


def written_examples(models: Path, written: Path):
    """The examples on inputs written into the directory ``written``:
    ``evolve --model full`` on kerr_qubit.model with the mode truncated at
    n_max 20 and 150, and a short ``converge`` at 150, all stepped by
    diagonals; ``linstab`` on seeded real r = m = 8 Gamma blocks, whose
    N = 16 eigenproblems take LAPACK's real solver."""
    doc = json.loads((models / "kerr_qubit.model").read_text())
    kerr = {}
    for n_max in (20, 150):
        doc["spaces"]["mode"]["n_max"] = n_max
        kerr[n_max] = written / f"kerr_qubit_n{n_max}.model"
        kerr[n_max].write_text(json.dumps(doc))
    g1, g2, g3, g4 = 0.3 * np.random.default_rng(16).standard_normal((4, 8, 8))
    blocks = {"Gamma1": g1 - np.eye(8), "Gamma2": g2, "Gamma3": g3, "Gamma4": g4 - np.eye(8)}
    gamma = written / "gamma16.json"
    gamma.write_text(json.dumps({name: b.tolist() for name, b in blocks.items()}))
    return [
        ["evolve", str(kerr[20]), "--model", "full", "--k", "2", "--dt", "1e-4", "--t-end", "2e-3",
         "--initial", "basis:1", "--out", "kerr20_full.csv"],
        ["evolve", str(kerr[150]), "--model", "full", "--k", "2", "--dt", "1e-5", "--t-end",
         "1e-4", "--initial", "basis:1", "--out", "kerr150_full.csv"],
        ["converge", str(kerr[150]), "--ks", "2,4", "--t-end", "2e-5", "--dt", "1e-5",
         "--initial", "basis:1", "--out", "kerr150_conv.csv"],
        ["linstab", str(gamma), "--ks", "1,5,10,50", "--out", "stab16.csv"],
    ]


# (slow dimension, channels, oscillators, Fock truncation), seeded by position
OSCILLATOR_CASES = [
    (2, 2, 1, 3), (3, 2, 2, 4), (2, 3, 2, 5), (3, 4, 3, 3), (2, 3, 3, 4), (3, 4, 1, 5),
    (3, 2, 1, 50),
]


def oscillator_outputs():
    """Yield (name, bytes) for the oscillator-elimination layer."""

    def triple_bytes(t):
        return t.s.tobytes() + t.l.tobytes() + t.H.mat.tobytes()

    for seed, (slow_dim, n, m, trunc) in enumerate(OSCILLATOR_CASES):
        coeffs = random_oscillator_model(np.random.default_rng(seed), slow_dim, n, m)
        fam = build_full_family(coeffs, trunc)
        res = zeno_eliminate(fam, oscillator_split(coeffs, trunc))
        yield f"oscillator/{seed}/limit", triple_bytes(oscillator_limit(coeffs))
        yield f"oscillator/{seed}/family", b"".join(
            x.tobytes() for x in (fam.s, fam.l1, fam.l0, fam.H2.mat, fam.H1.mat, fam.H0.mat)
        )
        yield f"oscillator/{seed}/eliminated", triple_bytes(res.zeno_triple)


def random_24():
    """A seeded d = 24 random triple, one channel, with unit-norm coupling
    and Hamiltonian, and a seeded initial state."""
    rng = np.random.default_rng(24)
    sp = HilbertSpace((24,))
    l, h = random_complex_matrix(rng, 24), random_hermitian(rng, 24)
    g = SLHTriple(((identity(sp),),), (Operator(sp, l / np.linalg.norm(l, 2)),),
                  Operator(sp, h / np.linalg.norm(h, 2)))
    return g, DensityMatrix(sp, random_density_matrix(rng, 24))


def evolve_outputs():
    """Yield (name, bytes) for ``evolve`` on ``random_24``."""
    res = evolve(*random_24(), 0.02, 1e-3)
    yield "evolve/random_24", b"".join(
        x.tobytes() for x in (res.times, res.rho, res.trace_drift, res.hermiticity_drift)
    )


def header_lines():
    """The numpy version and its BLAS, as ``#`` lines."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"# numpy {np.__version__}", f"# blas {blas['name']} {blas['version']}"]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--models", default=str(REPO / "models"))
    ap.add_argument("--header", action="store_true", help="print the numpy and BLAS versions first")
    args = ap.parse_args()
    if args.header:
        print("\n".join(header_lines()))

    models = Path(args.models).resolve()
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as written:
        out = Path(tmp)
        for argv in [*examples(models), *written_examples(models, Path(written))]:
            argv = _under(argv, out)
            with redirect_stdout(StringIO()):
                code = cli(argv)
            if code != 0:
                sys.exit(f"zenoslh {' '.join(argv)} exited {code}")
        outputs = [*out.rglob("*.csv"), *out.glob("*.json")]
        for path in sorted(p for p in outputs if not p.name.endswith("manifest.json")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(out)}")
    for name, data in (*oscillator_outputs(), *evolve_outputs()):
        print(f"{hashlib.sha256(data).hexdigest()}  {name}")


def _under(argv, out: Path):
    """Point --out/--out-dir values into the output directory."""
    argv = list(argv)
    for i, a in enumerate(argv[:-1]):
        if a in ("--out", "--out-dir"):
            argv[i + 1] = str(out / argv[i + 1])
    return argv


if __name__ == "__main__":
    main()
