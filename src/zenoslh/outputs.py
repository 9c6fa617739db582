"""Result serialization: CSV time series, JSON triples, run manifests.

CSV files have a header row and `time` as the first column; complex
entries are written as paired `_re`/`_im` columns.  Floats are written
with `repr`, which round-trips exactly, so identical inputs produce
byte-identical artifacts.  Structured outputs (triples, manifests,
reports) are JSON with complex matrices as nested arrays of [re, im]
pairs.  Column meanings are documented in docs/output_schema.md.

Every CSV row and the matrices of a limit-triple JSON go through one
formatter, `_format_block`, which calls `repr` once per distinct
magnitude in a block of values and gives each value that string, with a
"-" in front when its sign bit is set.  The text is still exactly that
of `repr` on each value, as `json` would write it for the triple.
"""

from __future__ import annotations

import hashlib
import json
import math
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
    "triple_json",
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


def _triple_pairs(result: EliminationResult) -> dict:
    """The triple's matrices as float arrays of trailing [re, im] pairs."""
    t = result.zeno_triple
    mats = {"S": t.s, "L": t.l, "H": t.H.mat, "V_z": result.v_z.cols}
    return {k: np.stack([m.real, m.imag], -1) for k, m in mats.items()}


def _triple_scalars(result: EliminationResult) -> dict:
    t = result.zeno_triple
    residuals = {k: float(v) for k, v in result.residuals.items()}
    return {"channels": t.n, "zeno_dim": t.dim, "residuals": residuals}


def triple_to_jsonable(result: EliminationResult) -> dict:
    pairs = {k: p.tolist() for k, p in _triple_pairs(result).items()}
    return {**pairs, **_triple_scalars(result)}


def write_json(path, payload: dict):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _format_block(a) -> list:
    """Rows of the 2-D float block ``a`` as lists of ``repr`` strings.

    ``repr`` runs once per distinct magnitude (bit pattern of ``abs``).  A
    value with its sign bit set gets ``"-"`` before its magnitude's string,
    which is ``repr`` of the value except for NaN, spelled ``"nan"`` either
    way.
    """
    a = np.asarray(a, dtype=float)
    mags, inverse = np.unique(np.abs(a).view(np.uint64), return_inverse=True)
    strs = list(map(repr, mags.view(float).tolist()))
    table = np.array(strs + [s if s == "nan" else "-" + s for s in strs], dtype=object)
    return table[inverse.reshape(a.shape) + len(strs) * np.signbit(a)].tolist()


def _json_nested(leaves: list, shape: tuple) -> str:
    """``json.dumps(indent=2)`` of a nested list of ``shape`` whose leaves,
    in C order, are the strings ``leaves``, as the value of a top-level key."""
    items = leaves
    for depth in reversed(range(len(shape))):
        n = shape[depth]
        if n == 0:
            items = ["[]"] * math.prod(shape[:depth])
            continue
        inner = "\n" + "  " * (depth + 2)
        sep, close = "," + inner, "\n" + "  " * (depth + 1) + "]"
        items = ["[" + inner + sep.join(items[i : i + n]) + close for i in range(0, len(items), n)]
    return items[0]


def triple_json(result: EliminationResult) -> str:
    """``json.dumps(triple_to_jsonable(result), indent=2, sort_keys=True)``.

    The matrices' floats go through `_format_block`; with a non-finite
    entry (which `json` spells ``NaN`` or ``Infinity``) the whole text
    comes from `json`.
    """
    pairs = _triple_pairs(result)
    if not all(np.isfinite(p).all() for p in pairs.values()):
        return json.dumps(triple_to_jsonable(result), indent=2, sort_keys=True)
    parts = {k: _json_nested(_format_block(p.reshape(1, -1))[0], p.shape) for k, p in pairs.items()}
    for k, v in _triple_scalars(result).items():
        parts[k] = json.dumps(v, indent=2, sort_keys=True).replace("\n", "\n  ")
    body = ",\n".join(f"  {json.dumps(k)}: {v}" for k, v in sorted(parts.items()))
    return "{\n" + body + "\n}"


def write_triple_json(path, result: EliminationResult):
    with open(path, "w", encoding="utf-8") as f:
        f.write(triple_json(result) + "\n")


# values per formatted block; the writers' memory grows with it and not with
# the row count (traced peak at d = 30: 1.8 MB at 2048, 3.5 MB at 16384)
_BLOCK_VALUES = 2048


def _row_blocks(*columns):
    """2-D blocks of about `_BLOCK_VALUES` values, cut from row slices of
    ``columns`` (1-D columns or 2-D column groups, equally long) and laid
    side by side; one row per block when a row is wider than that."""
    width = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    rows = max(1, _BLOCK_VALUES // width)
    for start in range(0, len(columns[0]), rows):
        yield np.column_stack([c[start : start + rows] for c in columns])


def _write_rows(path, header, blocks):
    """A header line, then one line per row of each 2-D float block."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for block in blocks:
            f.writelines(",".join(row) + "\n" for row in _format_block(block))


def _state_columns(dim: int):
    return [f"rho_{i}_{j}_{part}" for i in range(dim) for j in range(dim) for part in ("re", "im")]


def _state_rows(rho) -> np.ndarray:
    """Per state, Re and Im of each entry interleaved in row-major order."""
    return np.ascontiguousarray(rho).reshape(len(rho), -1).view(float)


def write_evolution_csv(path, result: EvolutionResult):
    dim = result.rho.shape[1]
    header = ["time", *_state_columns(dim), "trace_drift", "hermiticity_drift"]
    blocks = _row_blocks(
        result.times, _state_rows(result.rho), result.trace_drift, result.hermiticity_drift
    )
    _write_rows(path, header, blocks)


def write_trajectory_csv(path, result: TrajectoryResult):
    """One row per step: time, record increment / jump flag, innovation, state."""
    dim = result.rho.shape[1]
    kind = result.record.kind
    rec_col = "dY" if kind == "homodyne" else "jump"
    header = ["time", rec_col, "innovation", *_state_columns(dim)]
    if kind == "homodyne":
        rec = result.record.increments
    else:
        rec = np.isin(result.times[1:], result.record.jump_times)
    blocks = _row_blocks(result.times[1:], rec, result.innovations, _state_rows(result.rho[1:]))
    _write_rows(path, header, blocks)


def write_convergence_csv(path, points):
    header = ["k", "trace_distance", "leaked_trace", "dt_full"]
    rows = [[p.k, p.distance, p.leaked_trace, p.dt_full] for p in points]
    _write_rows(path, header, _row_blocks(np.array(rows, dtype=float).reshape(-1, 4)))


def write_stability_csv(path, report: StabilityReport):
    header = ["k", "max_real_part", "stable"]
    rows = [[r.k, r.max_real_part, r.stable] for r in report.rows]
    _write_rows(path, header, _row_blocks(np.array(rows, dtype=float).reshape(-1, 3)))
