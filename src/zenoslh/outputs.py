"""Result serialization: CSV time series, JSON triples, run manifests.

CSV files have a header row and `time` as the first column; complex
entries are written as paired `_re`/`_im` columns.  Floats are written
with `repr`, which round-trips exactly, so identical inputs produce
byte-identical artifacts.  Structured outputs (triples, manifests,
reports) are JSON with complex matrices as nested arrays of [re, im]
pairs.  Column meanings are documented in docs/output_schema.md.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .elimination import EliminationResult
from .linear import StabilityReport
from .master import EvolutionResult
from .trajectories import TrajectoryResult

__all__ = [
    "RunManifest",
    "matrix_to_pairs",
    "pairs_to_matrix",
    "triple_to_jsonable",
    "write_triple_json",
    "write_evolution_csv",
    "write_trajectory_csv",
    "write_convergence_csv",
    "write_stability_csv",
    "write_json",
]


def matrix_to_pairs(mat) -> list:
    m = np.asarray(mat, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def pairs_to_matrix(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim == 2:  # plain real matrix
        return arr.astype(complex)
    if arr.ndim == 3 and arr.shape[2] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    raise ValueError("expected a real matrix or nested [re, im] pairs")


@dataclass(frozen=True)
class RunManifest:
    """Provenance record written next to every artifact."""

    command: str
    input_digest: str
    tolerances: dict
    seed: int | None
    version: str
    timestamp: str
    method: str | None = None

    @classmethod
    def create(
        cls,
        command: str,
        input_digest: str,
        tolerances: dict,
        seed: int | None = None,
        method: str | None = None,
    ):
        return cls(
            command=command,
            input_digest=input_digest,
            tolerances=dict(tolerances),
            seed=seed,
            version=__version__,
            timestamp=datetime.now(timezone.utc).isoformat(),
            method=method,
        )

    def write(self, path):
        write_json(path, asdict(self))


def digest_bytes(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def triple_to_jsonable(result: EliminationResult) -> dict:
    t = result.zeno_triple
    return {
        "channels": t.n,
        "zeno_dim": t.dim,
        "S": [[matrix_to_pairs(m) for m in row] for row in t.s],
        "L": [matrix_to_pairs(m) for m in t.l],
        "H": matrix_to_pairs(t.H.mat),
        "V_z": matrix_to_pairs(result.v_z.cols),
        "residuals": {k: float(v) for k, v in result.residuals.items()},
    }


def write_json(path, payload: dict):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def write_triple_json(path, result: EliminationResult):
    write_json(path, triple_to_jsonable(result))


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(repr(float(x)) for x in row) + "\n")


def _state_columns(dim: int):
    return [f"rho_{i}_{j}_{part}" for i in range(dim) for j in range(dim) for part in ("re", "im")]


def _state_rows(rho) -> np.ndarray:
    """Per state, Re and Im of each entry interleaved in row-major order."""
    return np.ascontiguousarray(rho).reshape(len(rho), -1).view(float)


def write_evolution_csv(path, result: EvolutionResult):
    dim = result.rho.shape[1]
    header = ["time", *_state_columns(dim), "trace_drift", "hermiticity_drift"]
    rows = (
        [t, *vals.tolist(), td, hd]
        for t, vals, td, hd in zip(
            result.times, _state_rows(result.rho), result.trace_drift, result.hermiticity_drift
        )
    )
    _write_csv(path, header, rows)


def write_trajectory_csv(path, result: TrajectoryResult):
    """One row per step: time, record increment / jump flag, innovation, state."""
    dim = result.rho.shape[1]
    kind = result.record.kind
    rec_col = "dY" if kind == "homodyne" else "jump"
    header = ["time", rec_col, "innovation", *_state_columns(dim)]
    if kind == "homodyne":
        rec = result.record.increments
    else:
        jumps = set(np.asarray(result.record.jump_times).tolist())
        rec = [1.0 if t in jumps else 0.0 for t in result.times[1:]]
    rows = (
        [t, r, inn, *vals.tolist()]
        for t, r, inn, vals in zip(
            result.times[1:], rec, result.innovations, _state_rows(result.rho[1:])
        )
    )
    _write_csv(path, header, rows)


def write_convergence_csv(path, points):
    header = ["k", "trace_distance", "leaked_trace", "dt_full"]
    rows = ([p.k, p.distance, p.leaked_trace, p.dt_full] for p in points)
    _write_csv(path, header, rows)


def write_stability_csv(path, report: StabilityReport):
    header = ["k", "max_real_part", "stable"]
    rows = ([r.k, r.max_real_part, 1.0 if r.stable else 0.0] for r in report.rows)
    _write_csv(path, header, rows)
