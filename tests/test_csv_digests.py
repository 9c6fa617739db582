"""The byte-identity contract: every digested output matches the committed listing.

``tests/csv_digests.txt`` is the output of ``scripts/csv_digests.py
--header``: two ``#`` lines naming numpy and its BLAS, then one digest per
CLI output, oscillator-elimination array and library ``evolve`` run.
Other numpy or BLAS builds may round differently, so the test skips under
them.  The listing pins a seam's rounding only where it has a line on each
side of it, which the seam test checks.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zenoslh
from zenoslh import elimination, instantiate, linear, load_model, master

REPO = Path(__file__).resolve().parents[1]
LISTING = REPO / "tests" / "csv_digests.txt"


def split_header(lines):
    header = [line for line in lines if line.startswith("#")]
    return header, lines[len(header):]


def test_outputs_match_the_committed_digest_listing():
    src = str(Path(zenoslh.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "csv_digests.py"), "--header"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    want_header, want = split_header(LISTING.read_text().splitlines())
    got_header, got = split_header(proc.stdout.splitlines())
    if got_header != want_header:
        pytest.skip(f"listing recorded under {want_header}, this run has {got_header}")
    assert want
    assert got == want


def _digest_script():
    spec = importlib.util.spec_from_file_location("csv_digests", REPO / "scripts" / "csv_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stepping_path(g):
    return master._method(g.dim, [master._structure(g.H.mat != 0, g.l != 0)])


def test_every_seam_has_a_digest_line_on_each_side(tmp_path):
    # the paths the digested runs take on either side of DENSE_MAX_DIM
    # (dense, or a K form) and of _BANDED_RATIO (the GEMM or the banded K
    # form), of FULL_SPACE_MAX_DIM (the elimination orders) and of
    # COMPLEX_EIG_MAX_DIM (linstab's arithmetic), found from their inputs
    script = _digest_script()
    models = REPO / "models"
    paths = {"stepping": set(), "elimination": set(), "eigenvalues": set()}
    for argv in [*script.examples(models), *script.written_examples(models, tmp_path)]:
        command, path, options = argv[0], argv[1], dict(zip(argv[2::2], argv[3::2]))
        if command == "linstab":
            blocks = json.loads(Path(path).read_text())
            n = len(blocks["Gamma1"]) + len(blocks["Gamma4"])
            paths["eigenvalues"].add(linear._arithmetic(n, *blocks.values()))
            continue
        family = load_model(path).family
        if command in ("eliminate", "check", "converge"):
            paths["elimination"].add(elimination._elimination_method(family.dim))
        ks = options["--ks"].split(",") if command == "converge" else [options.get("--k")]
        if command == "converge" or options.get("--model") == "full":
            paths["stepping"].update(_stepping_path(instantiate(family, float(k))) for k in ks)
    for slow, _, m, trunc in script.OSCILLATOR_CASES:
        paths["elimination"].add(elimination._elimination_method(slow * trunc**m))
    paths["stepping"].add(_stepping_path(script.random_24()[0]))
    assert paths == {"stepping": {"dense", "matrix_free", "banded"},
                     "elimination": {"full_space", "blocks"},
                     "eigenvalues": {"complex", "real"}}
