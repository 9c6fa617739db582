"""Result serialization: CSV time series, JSON triples, run manifests.

CSV files have a header row and `time` as the first column; complex
entries are written as paired `_re`/`_im` columns.  Floats are written
as `repr` writes them, which round-trips exactly, so identical inputs
produce byte-identical artifacts.  Structured outputs (triples, manifests,
reports) are JSON with complex matrices as nested arrays of [re, im]
pairs.  Column meanings are documented in docs/output_schema.md.

Every CSV row and the matrices of a limit-triple JSON go through one
kernel, and no float goes through `repr` itself: a numpy port of the
Schubfach shortest-decimal algorithm (`_shortest`) computes the digits
of each distinct magnitude in a block of values at once, a table of
layouts places them around the decimal point and exponent
(`_repr_text`), and `_block_text` adds signs and separators to make the
bytes of the CSV lines (`_format_block`, the same text as strings, feeds
the triple).  The text is exactly that of `repr` on each value, as
`json` would write it for the triple; tests/test_outputs.py compares
the two.

The CSV writers format their blocks in order through `_block_texts`.
For a file of at least `_FORK_MIN_VALUES` values, a process that runs one
thread on two or more usable CPUs (``master._forkable``, the condition
under which ``converge`` forks) forks one child at the file's second
block, which formats every other block from then on while this process
steps and formats the blocks in between.  The bytes are the same either
way.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .elimination import EliminationResult
from .linear import StabilityReport
from .master import _BLOCK_BYTES, EvolutionResult, _fork, _forkable, _receive, _send, _workers
from .trajectories import TrajectoryResult

__all__ = [
    "RunManifest",
    "matrix_to_pairs",
    "pairs_to_matrix",
    "triple_json",
    "write_triple_json",
    "write_evolution_csv",
    "write_evolution_rows",
    "write_trajectory_csv",
    "write_trajectory_rows",
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
    """Provenance record written next to every artifact; ``timestamp``
    defaults to the UTC time the record is made."""

    command: str
    input_digest: str
    tolerances: dict
    seed: int | None = None
    version: str = __version__
    timestamp: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())
    method: str | None = None
    timings: dict | None = None
    n_steps: int | None = None
    dt_eff: float | None = None
    jumps: int | None = None
    max_purity: float | None = None
    cond_a_ff: float | None = None
    workers: int | None = None

    def write(self, path):
        write_json(path, asdict(self))


def digest_bytes(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def write_json(path, payload: dict):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


# --- repr's text for whole blocks of floats --------------------------------
#
# Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020) finds
# the shortest decimal in a float's rounding interval in integer arithmetic,
# here in uint64 numpy arrays: every operand of the digit arithmetic is
# uint64, since uint64 mixed with int64 promotes to float64 and loses digits.
# Python's rules replace Java's: the shortest digit string (Java keeps at
# least two digits), nearest to the value, ties to even.

_U = np.uint64
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)
_C_MIN = _U(2**52)  # implicit bit of a normal significand
_K_MIN = -324  # the table's k range is [-324, 292], 617 entries
_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)
_DIGITS = 17  # significand digits that any float64 needs at most


def _flog10pow2(e):
    """floor(e log10 2), exact for |e| < 5e6 (ints or int64 arrays)."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 2**e))."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(e log2 10)."""
    return (e * 913_124_641_741) >> 38


_INF, _ONE = _U(0x7FF0 << 48), _U(0x3FF0 << 48)  # bit patterns of inf and 1.0

# the sources of a text's bytes: 17 significand digits, the exponent's sign
# and its three digits, then these constants (NUL pads a text to _WIDTH)
_SRC_CONST = b"\0" b"0.einfa"
_ESIGN, _E100, _E10, _E1 = range(_DIGITS, _DIGITS + 4)
_NUL, _ZERO, _DOT, _E, _I, _N, _F, _A = range(_DIGITS + 4, _DIGITS + 4 + len(_SRC_CONST))
_WIDTH = 23  # len("1.2345678901234567e-308")
_P_MIN, _P_MAX = -323, 309  # decimal point positions of nonzero finite floats
_KEYS = 22  # layouts per digit count: decimal point at -3..16, 2- or 3-digit exponent


@functools.cache
def _tables():
    """The tables of `_shortest` and `_repr_text`, built on first use.

    ``g``: Schubfach's g(k) = floor(10**-k 2**(125 - floor(-k log2 10))) + 1
    for k in [-324, 292], as rows g1, then the 32-bit limbs of g1 and of
    g0, where g = g1 2**63 + g0.

    ``layout``: repr's layouts, a row of _WIDTH source indices each.
    Layout (n - 1) * _KEYS + key has n significant digits, with key p + 3
    for positional text whose decimal point follows p digits (p in
    [-3, 16]), and 20 or 21 for d.ddde±XX or d.ddde±XXX; the last three
    are 0.0, inf and nan.

    ``key`` and ``exponent``: per decimal point position p in [-323, 309],
    the layout key and the bytes of the exponent p - 1 (sign, 3 digits).
    """
    g = []
    for k in range(_K_MIN, 293):
        shift = 125 - _flog2pow10(-k)
        g.append((10 ** max(-k, 0) << max(shift, 0)) // (10 ** max(k, 0) << max(-shift, 0)) + 1)
    g1 = [x >> 63 for x in g]
    g0 = [x & (2**63 - 1) for x in g]
    limbs = [[x & (2**32 - 1) for x in g1], [x >> 32 for x in g1]]
    limbs += [[x & (2**32 - 1) for x in g0], [x >> 32 for x in g0]]
    g = np.array([g1, *limbs], dtype=np.uint64)

    rows = []
    for n in range(1, _DIGITS + 1):
        d = list(range(n))
        for p in range(-3, 17):
            if p <= 0:
                rows.append([_ZERO, _DOT] + [_ZERO] * -p + d)
            elif p < n:
                rows.append(d[:p] + [_DOT] + d[p:])
            else:
                rows.append(d + [_ZERO] * (p - n) + [_DOT, _ZERO])
        mantissa = d[:1] + ([_DOT] + d[1:] if n > 1 else [])
        rows.append(mantissa + [_E, _ESIGN, _E10, _E1])
        rows.append(mantissa + [_E, _ESIGN, _E100, _E10, _E1])
    rows += [[_ZERO, _DOT, _ZERO], [_I, _N, _F], [_N, _A, _N]]
    layout = np.array([r + [_NUL] * (_WIDTH - len(r)) for r in rows], dtype=np.intp)

    points = range(_P_MIN, _P_MAX + 1)
    key = [p + 3 if -4 < p <= 16 else 20 + (abs(p - 1) >= 100) for p in points]
    exponent = [f"{p - 1:+04d}".encode() for p in points]
    return g, layout, np.array(key), np.frombuffer(b"".join(exponent), np.uint8).reshape(-1, 4)


def _mulhi(a0, a1, b0, b1):
    """High 64 bits of the 128-bit products a * b, given the 32-bit limbs
    a = a1 2**32 + a0 and b = b1 2**32 + b0."""
    lo_hi, hi_lo = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _U(32)) + (lo_hi & _M32) + (hi_lo & _M32)
    return a1 * b1 + (lo_hi >> _U(32)) + (hi_lo >> _U(32)) + (mid >> _U(32))


def _rop(g, cp):
    """g cp / 2**127 rounded to odd, for g given as in `_tables`."""
    c0, c1 = cp & _M32, cp >> _U(32)
    z = ((g[0] * cp) >> _U(1)) + _mulhi(g[3], g[4], c0, c1)
    return (_mulhi(g[1], g[2], c0, c1) + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shortest(bits):
    """(f, k) with f 10**k the shortest decimal that reads back as each
    positive finite float64 of ``bits``, the nearest such, ties to even."""
    t = bits & _U(2**52 - 1)
    bq = (bits >> _U(52)).astype(np.int64)
    c = np.where(bq > 0, t | _C_MIN, t)
    q = np.maximum(bq, 1) - 1075
    # a power of two above the smallest normal has a lower neighbour half as far
    irregular = (t == 0) & (bq > 1)
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    cb = c << _U(2)
    g = _tables()[0].take(k - _K_MIN, axis=1)
    # 4 v 10**-k and the ends of v's rounding interval, to within a quarter
    vb, vbl, vbr = _rop(g, np.stack([cb, cb - _U(2) + irregular, cb + _U(2)]) << h)
    # the interval is closed for an even significand, open for an odd one
    out = c & _U(1)
    vbl += out
    vbr -= out
    s = vb >> _U(2)
    # at most one multiple of 10 lies in the interval; if one does, it is
    # the shortest
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 << _U(2)) + _U(40) <= vbr
    # else s or s + 1: whichever lies in the interval, or the nearer
    s4 = s << _U(2)
    uin, win = vbl <= s4, s4 + _U(4) <= vbr
    mid = s4 + _U(2)
    lower = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & (s & _U(1) == 0)))
    f = np.where(upin != wpin, sp10 + np.where(upin, _U(0), _U(10)), s + ~lower)
    return f, k


def _repr_text(mags):
    """repr's text for each nonnegative float64 bit pattern of ``mags``, as
    rows of _WIDTH bytes padded with NUL."""
    _, layout, key, exponent = _tables()
    regular = (mags > 0) & (mags < _INF)
    f, k = _shortest(np.where(regular, mags, _ONE))
    # f 10**k with f left-aligned to 17 digits, p of them before the point
    f_len = np.searchsorted(_POW10, f, side="right")
    f *= _POW10[_DIGITS - f_len]
    p = k + f_len - _P_MIN
    # digit i is q_i - 10 q_(i-1), with q_i = floor(f / 10**(16 - i))
    q = f // _POW10[_DIGITS - 1 :: -1, None]
    del f, k, f_len
    q[1:] -= q[:-1] * _U(10)
    # significant digits: the position of the last nonzero one
    n = ((q != 0).view(np.uint8) * np.arange(1, _DIGITS + 1, dtype=np.uint8)[:, None]).max(0)
    src = np.empty((len(mags), _DIGITS + 4 + len(_SRC_CONST)), dtype=np.uint8)
    src[:, :_DIGITS] = q.T + _U(ord("0"))
    del q
    src[:, _ESIGN : _E1 + 1] = exponent.take(p, axis=0)
    src[:, _NUL:] = np.frombuffer(_SRC_CONST, dtype=np.uint8)
    # 0.0, inf and nan take the last three layouts
    special = len(layout) - 3 + (mags >= _INF) + (mags > _INF)
    row = np.where(regular, (n - 1).astype(np.intp) * _KEYS + key[p], special)
    idx = layout.take(row, axis=0)
    del row
    idx += np.arange(0, src.size, src.shape[1])[:, None]
    return src.reshape(-1).take(idx)


def _block_text(a) -> bytes:
    """The CSV lines of the 2-D float block ``a``: each value as ``repr``
    writes it, comma-separated, each row ended by a newline.

    The text is computed once per distinct magnitude (bit pattern of
    ``abs``); a value with its sign bit set gets a ``"-"`` before it,
    except NaN.
    """
    a = np.ascontiguousarray(a, dtype=float)
    rows, cols = a.shape
    if a.size == 0:
        return b"\n" * rows
    # glibc's malloc returns the free top of its heap to the OS once it is
    # over twice the largest mapped chunk freed so far, so the temporaries
    # below (up to about 360 bytes a value) would be faulted back in for
    # every block.  Asking for 256 bytes a value and freeing them untouched
    # lifts that limit above them
    np.empty(a.size * 256, dtype=np.uint8)
    bits = a.view(np.uint64).reshape(-1)
    mags = bits & _M63
    minus = (bits != mags) & (mags <= _INF)  # NaN has no sign
    mags, inverse = np.unique(mags, return_inverse=True)
    txt = _repr_text(mags)
    del mags
    # per value a sign byte, the text and a separator, less their NUL bytes
    buf = np.empty((a.size, _WIDTH + 2), dtype=np.uint8)
    buf[:, 0] = minus * np.uint8(ord("-"))
    del minus
    buf[:, 1:-1] = txt.take(inverse.reshape(-1), axis=0)
    del txt, inverse
    buf[:, -1] = ord(",")
    buf.reshape(rows, cols, -1)[:, -1, -1] = ord("\n")
    return buf[buf != 0].tobytes()


def _format_block(a) -> list:
    """Rows of the 2-D float block ``a`` as lists of ``repr`` strings.

    Each distinct magnitude (bit pattern of ``abs``) gets its text from
    `_repr_text`; a value with its sign bit set gets ``"-"`` before it,
    except NaN, spelled ``"nan"`` either way.
    """
    bits = np.ascontiguousarray(a, dtype=float).view(np.uint64)
    mags, inverse = np.unique(bits & _M63, return_inverse=True)
    strs = _repr_text(mags).view(f"S{_WIDTH}").ravel().astype(str).tolist()
    table = np.array(strs + [s if s == "nan" else "-" + s for s in strs], dtype=object)
    return table[inverse.reshape(bits.shape) + len(strs) * (bits > _M63)].tolist()


def _json_template(shape: tuple, depth: int = 1) -> str:
    """``json.dumps(indent=2)`` of a nested list of ``shape``, as the value
    of a top-level key, with ``%s`` for each leaf, in C order."""
    if not shape:
        return "%s"
    if shape[0] == 0:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    item = _json_template(shape[1:], depth + 1)
    return "[" + inner + (item + "," + inner) * (shape[0] - 1) + item + "\n" + "  " * depth + "]"


def triple_json(result: EliminationResult) -> str:
    """The triple as ``json.dumps(indent=2, sort_keys=True)`` writes it, its
    matrices as nested [re, im] pairs; their floats, all finite (triples
    reject non-finite entries), go through `_format_block`."""
    t = result.zeno_triple
    mats = {"S": t.s, "L": t.l, "H": t.H.mat, "V_z": result.v_z.cols}
    pairs = {k: np.stack([m.real, m.imag], -1) for k, m in mats.items()}
    # one kernel call for all four matrices: it has a fixed cost per call
    texts = _format_block(np.concatenate([p.reshape(-1) for p in pairs.values()])[None])[0]
    parts, start = {}, 0
    for k, p in pairs.items():
        parts[k] = _json_template(p.shape) % tuple(texts[start : start + p.size])
        start += p.size
    residuals = {k: float(v) for k, v in result.residuals.items()}
    for k, v in {"channels": t.n, "zeno_dim": t.dim, "residuals": residuals}.items():
        parts[k] = json.dumps(v, indent=2, sort_keys=True).replace("\n", "\n  ")
    body = ",\n".join(f"  {json.dumps(k)}: {v}" for k, v in sorted(parts.items()))
    return "{\n" + body + "\n}"


def write_triple_json(path, result: EliminationResult):
    with open(path, "w", encoding="utf-8") as f:
        f.write(triple_json(result) + "\n")


# values per formatted block; the writers' memory grows with it and not with
# the row count.  The kernel's cost per block is mostly fixed, about 150
# numpy calls, so a block of a few wide rows formats faster than one row at
# a time: at d = 30 (1803 values a row) 8192 takes 4 rows.  The trajectory
# writer's blocks take rows of every member of a pass, member by member (at
# d = 2, 74 rows of each of 10 members).  Traced peak of one `_block_text`
# call writing a 101-row d = 30 file: 0.34 MB at 2048 values (one row a
# block), 1.35 MB at 8192
_BLOCK_VALUES = 8192


def _row_blocks(rows):
    """2-D blocks of about `_BLOCK_VALUES` values, one row per block when a
    row is wider than that, cut from the 2-D array ``rows``."""
    step = max(1, _BLOCK_VALUES // rows.shape[1])
    for start in range(0, len(rows), step):
        yield rows[start : start + step]


# a writer forks its formatter (`_block_texts`) only for a file of at least
# this many values.  The fork, the copy-on-write faults of the next block
# formatted here and the reap took 4-7 ms, as long as formatting about
# 20 000 values, and the last block may wait for the child.  Forked at their
# second block, evolve at d = 30 (101 rows, 182 000 values) was 13 ms faster
# over the whole command, and 10 d = 2 trajectories of 500 steps (55 000
# values in 8 blocks) 4-5 ms slower (numpy 2.4, 2-core x86-64 host, one BLAS
# thread).  A constant, not a setting: it changes the cost of a file, never
# its bytes
_FORK_MIN_VALUES = 2**16


def _format_stream(r, w):
    """The body of `_block_texts`' child: for each block read from r (its
    rows and columns as 8-byte integers, then its raw float64 values), its
    `_block_text` written to w after the text's length, until r ends."""
    while head := r.read(16):
        rows, cols = int.from_bytes(head[:8], "little"), int.from_bytes(head[8:], "little")
        text = _block_text(np.frombuffer(r.read(8 * rows * cols)).reshape(rows, cols))
        w.write(len(text).to_bytes(8, "little"))
        w.write(text)
        w.flush()


def _block_texts(blocks, values: int):
    """`_block_text` of each of ``blocks`` (2-D float arrays), in order.

    When the blocks hold ``values`` >= `_FORK_MIN_VALUES` values in all, a
    second block arrives and the process may fork (``master._forkable``),
    one child (``master._fork``, `_format_stream`) formats every other block
    from then on, and this process the blocks in between.  Each block for
    the child is sent whole, as its shape and raw float64 values, before the
    next block is asked for, so the caller may reuse a block's buffer.  On
    leaving, the child is killed and reaped; one that ends without sending a
    text raises ``master.WorkerError``.
    """
    blocks = iter(blocks)
    for i, block in enumerate(blocks):
        if i == 1 and values >= _FORK_MIN_VALUES and _forkable():
            break
        yield _block_text(block)
    else:
        return
    with _workers() as children:
        pid = _fork(children, _format_stream)
        send = functools.partial(_send, children, pid, "CSV formatter")
        receive = functools.partial(_receive, children, pid, "CSV formatter")
        while block is not None:
            a = np.ascontiguousarray(block, dtype=float)
            send(a.shape[0].to_bytes(8, "little") + a.shape[1].to_bytes(8, "little"))
            send(a.reshape(-1).view(np.uint8))
            block = next(blocks, None)
            text = None if block is None else _block_text(block)
            yield receive(int.from_bytes(receive(8), "little"))
            if text is not None:
                yield text
                block = next(blocks, None)


def _write_rows(path, header, blocks, values: int = 0):
    """A header line, then one line per row of each 2-D float block, the
    blocks holding ``values`` values in all (`_block_texts`)."""
    texts = _block_texts(blocks, values)
    try:
        with open(path, "wb") as f:
            f.write((",".join(header) + "\n").encode())
            for text in texts:
                f.write(text)
    finally:
        texts.close()  # reaps a formatter child however the loop ends


def _state_columns(dim: int):
    return [f"rho_{i}_{j}_{part}" for i in range(dim) for j in range(dim) for part in ("re", "im")]


def _state_rows(rho) -> np.ndarray:
    """Per state, Re and Im of each entry interleaved in row-major order."""
    return np.ascontiguousarray(rho).reshape(len(rho), -1).view(float)


def write_evolution_csv(path, result: EvolutionResult):
    """One row per saved state: time, the state's entries, trace drift and
    hermiticity drift, written by `write_evolution_rows`."""
    rows = zip(result.times, result.rho, result.trace_drift, result.hermiticity_drift)
    write_evolution_rows(path, result.rho.shape[1], rows, len(result.times))


def write_evolution_rows(path, dim: int, rows, n_rows: int = 0):
    """The CSV of `write_evolution_csv`, from saved rows (time, d x d state,
    trace drift, hermiticity drift) as ``master._evolve`` yields them,
    ``n_rows`` of them if known (it decides only whether to fork, see
    `_block_texts`).  Each row is copied into a block as it arrives, since
    ``master._saved_rows`` overwrites the state it yields, and a full
    block is written, so no more than a block of rows is held."""
    width = 3 + 2 * dim * dim
    block = np.empty((max(1, _BLOCK_VALUES // width), width))

    def blocks():
        n = 0
        for t, m, drift, herm in rows:
            row = block[n]
            row[0], row[-2], row[-1] = t, drift, herm
            row[1:-2] = _state_rows(m[None])[0]
            n += 1
            if n == len(block):
                yield block
                n = 0
        if n:
            yield block[:n]

    header = ["time", *_state_columns(dim), "trace_drift", "hermiticity_drift"]
    _write_rows(path, header, blocks(), n_rows * width)


def write_trajectory_csv(path, result: TrajectoryResult):
    """One row per step: time, record increment / jump flag, innovation, state."""
    kind, n = result.record.kind, len(result.innovations)
    if kind == "homodyne":
        rec = result.record.increments
    else:
        rec = np.isin(result.times[1:], result.record.jump_times)
    columns = (result.times[1:], rec[:, None], result.innovations[:, None], result.rho[1:, None])
    size = max(1, _BLOCK_VALUES // (3 + 2 * result.rho[0].size))  # rows a block
    blocks = (tuple(c[a : a + size] for c in columns) for a in range(0, n, size))
    write_trajectory_rows([path], result.rho.shape[1], kind, blocks, n)


def write_trajectory_rows(paths, dim: int, kind: str, blocks, n_steps: int = 0):
    """The CSVs of `write_trajectory_csv` for the members of an ensemble, one
    path each, from blocks (times, records, innovations, states) as
    ``trajectories._ensemble_blocks`` yields them, of ``n_steps`` steps in
    all if known (it decides only whether to fork, see `_block_texts`;
    members that leave a failed run make fewer): each block's rows are
    appended to every member's file once it has arrived, so no more than a
    block is held, and one file is open at a time.  A member missing from a
    block (one that left a failed run) gets no more rows.

    Each `_block_text` call formats r rows of every member of a pass, laid
    out member by member, r = max(1, `_BLOCK_VALUES` // (members · width)):
    the kernel's cost is mostly per call, and one call formats each distinct
    value once, the shared times and the equal rows of counting members
    that have not jumped among them.  A pass spans the members of the block
    whose values fit in ``master._BLOCK_BYTES`` of floats, at least one, and
    holds their text until each member's lines of the block reach its file
    in one write."""
    header = ["time", "dY" if kind == "homodyne" else "jump", "innovation", *_state_columns(dim)]
    for path in paths:
        with open(path, "wb") as f:
            f.write((",".join(header) + "\n").encode())
    width = 3 + 2 * dim * dim
    passes = []  # per block formatted: its members, rows of each, whether it ends a pass

    def member_blocks():
        for times, records, innovations, states in blocks:
            n, k = records.shape
            group = max(1, min(k, _BLOCK_VALUES // width, _BLOCK_BYTES // 8 // (n * width)))
            for i in range(0, k, group):
                m = slice(i, min(k, i + group))
                c = m.stop - i
                rows = max(1, _BLOCK_VALUES // (c * width))
                for a in range(0, n, rows):
                    r = min(rows, n - a)
                    block = np.empty((c, r, width))
                    block[:, :, 0] = times[a : a + r]
                    block[:, :, 1] = records[a : a + r, m].T
                    block[:, :, 2] = innovations[a : a + r, m].T
                    block[:, :, 3:] = _state_rows(states[a : a + r, m].swapaxes(0, 1)).reshape(
                        c, r, -1
                    )
                    passes.append((m, r, a + r == n))
                    yield block.reshape(c * r, width)

    texts, held = _block_texts(member_blocks(), len(paths) * n_steps * width), []
    try:
        for text in texts:
            m, r, last = passes.pop(0)
            held = held or [[] for _ in range(m.stop - m.start)]
            ends = np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n"))[r - 1 :: r] + 1
            for t, start, end in zip(held, [0, *ends], ends):
                t.append(text[start:end])
            if last:
                for path, t in zip(paths[m], held):
                    with open(path, "ab") as f:
                        f.write(b"".join(t))
                held = []
    finally:
        texts.close()  # reaps a formatter child however the loop ends


def write_convergence_csv(path, points):
    header = ["k", "trace_distance", "leaked_trace", "dt_full"]
    rows = [[p.k, p.distance, p.leaked_trace, p.dt_full] for p in points]
    _write_rows(path, header, _row_blocks(np.array(rows, dtype=float).reshape(-1, 4)))


def write_stability_csv(path, report: StabilityReport):
    header = ["k", "max_real_part", "stable"]
    rows = [[r.k, r.max_real_part, r.stable] for r in report.rows]
    _write_rows(path, header, _row_blocks(np.array(rows, dtype=float).reshape(-1, 3)))
