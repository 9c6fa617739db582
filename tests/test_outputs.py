"""Writers against references built value by value: the CSVs from `repr`
of each entry of the state views, the limit-triple JSON from `json.dumps`."""

import json
import math
import os
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zenoslh import (
    HilbertSpace,
    Operator,
    SimConfig,
    SLHTriple,
    SubspaceIsometry,
    basis_state_density,
    evolve,
    instantiate,
    maximally_mixed,
    simulate,
    zeno_eliminate,
)
from zenoslh import master, outputs
from zenoslh.cli import main as cli
from zenoslh.elimination import EliminationResult
from zenoslh.master import ConvergencePoint, EvolutionResult, WorkerError
from zenoslh.outputs import (
    _format_block,
    matrix_to_pairs,
    triple_json,
    write_convergence_csv,
    write_evolution_csv,
    write_evolution_rows,
    write_trajectory_csv,
)
from zenoslh.random_models import random_complex_matrix, random_hermitian, random_unitary
from zenoslh.trajectories import _ensemble_blocks

from common import MODELS, forking, kerr_family, kill_the_formatter


def reference_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(repr(float(x)) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def state_columns(dim):
    return [f"rho_{i}_{j}_{part}" for i in range(dim) for j in range(dim) for part in ("re", "im")]


def state_values(s):
    out = []
    for row in s.mat:
        for x in row:
            out += [x.real, x.imag]
    return out


def test_write_evolution_csv_matches_reference(tmp_path):
    fam, _ = kerr_family()
    g = instantiate(fam, 2.0)
    res = evolve(g, maximally_mixed(g.space), 0.05, 1e-3, save_every=7)
    path = tmp_path / "evolution.csv"
    write_evolution_csv(path, res)

    header = ["time", *state_columns(g.dim), "trace_drift", "hermiticity_drift"]
    rows = [
        [t, *state_values(s), td, hd]
        for t, s, td, hd in zip(res.times, res.states, res.trace_drift, res.hermiticity_drift)
    ]
    assert path.read_bytes() == reference_csv(header, rows).encode()


@pytest.mark.parametrize("scheme", ["homodyne", "counting"])
def test_write_trajectory_csv_matches_reference(tmp_path, scheme):
    fam, split = kerr_family()
    g = zeno_eliminate(fam, split).zeno_triple
    cfg = SimConfig(dt=1e-3, t_end=0.5, seed=5, scheme=scheme)
    res = simulate(g, basis_state_density(g.space, 1), cfg)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, res)

    if scheme == "homodyne":
        header = ["time", "dY", "innovation", *state_columns(g.dim)]
        rec = list(res.record.increments)
    else:
        assert len(res.record.jump_times) > 0  # the jump flag column is exercised
        header = ["time", "jump", "innovation", *state_columns(g.dim)]
        jumps = set(res.record.jump_times)
        rec = [1.0 if t in jumps else 0.0 for t in res.times[1:]]
    states = res.states
    rows = [
        [res.times[i + 1], rec[i], res.innovations[i], *state_values(states[i + 1])]
        for i in range(len(res.innovations))
    ]
    assert path.read_bytes() == reference_csv(header, rows).encode()


# --- the block formatter: exactly repr, value by value -----------------------

F64_SPECIALS = [
    0x0000000000000000,  # +0.0
    0x8000000000000000,  # -0.0
    0x7FF8000000000000,  # nan
    0xFFF8000000000000,  # nan with the sign bit set
    0x7FF0000000000001,  # signalling nan with a payload
    0xFFF80000DEADBEEF,  # negative quiet nan with a payload
    0x7FF0000000000000,  # inf
    0xFFF0000000000000,  # -inf
    0x0000000000000001,  # smallest subnormal
    0x800FFFFFFFFFFFFF,  # largest subnormal, negative
    0x0010000000000000,  # smallest normal
    0x7FEFFFFFFFFFFFFF,  # largest finite
]
for _x in (1e-4, 1e16, -1e-4, -1e16):  # where repr switches notation
    for _y in (np.nextafter(_x, -np.inf), _x, np.nextafter(_x, np.inf)):
        F64_SPECIALS.append(int(np.float64(_y).view(np.uint64)))

F64_BITS = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(F64_SPECIALS))


def floats_from_bits(bits, shape) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(float).reshape(shape)


def repr_rows(a):
    return [[repr(float(x)) for x in row] for row in a]


@settings(max_examples=200)
@given(data=st.data(), rows=st.integers(0, 5), cols=st.integers(0, 12))
def test_format_block_is_repr(data, rows, cols):
    bits = data.draw(st.lists(F64_BITS, min_size=rows * cols, max_size=rows * cols))
    a = floats_from_bits(bits, (rows, cols))
    # repeats with either sign make the table lookups carry the result
    a = np.hstack([a, -a[:, ::-1], a])
    assert _format_block(a) == repr_rows(a)


def test_format_block_specials():
    a = floats_from_bits(F64_SPECIALS, (1, -1))
    assert _format_block(a) == repr_rows(a)
    assert _format_block(-a) == repr_rows(-a)
    assert _format_block(np.zeros((3, 0))) == [[], [], []]


def ulps_around(x, n):
    """The 2 n + 1 floats nearest x, in steps of one ulp."""
    bits = np.float64(x).view(np.uint64).astype(np.int64) + np.arange(-n, n + 1)
    return bits.astype(np.uint64).view(float)


EDGE_CLASSES = {
    # every power of two, from 2**-1074 up, and both of its neighbours
    "powers_of_two": lambda: np.concatenate(
        [p2 := np.ldexp(1.0, np.arange(-1074, 1024)), np.nextafter(p2, 0), np.nextafter(p2, np.inf)]
    ),
    "first_subnormals": lambda: np.arange(1, 10**5 + 1, dtype=np.uint64).view(float),
    "notation_and_integer_edges": lambda: np.concatenate(
        [ulps_around(x, 50) for x in (1e-4, 1e-5, 1e15, 1e16, 1e17, 2.0**53, 1e22, 1e23)]
    ),
    # k 10**e for k < 1000, over every e, as correctly rounded decimals
    "short_decimals": lambda: np.array(
        [f"{k}e{e}" for e in range(-324, 309) for k in range(1, 1000)]
    ).astype(float),
    "random_bit_patterns": lambda: np.random.default_rng(20).integers(
        0, 2**64, 10**5, dtype=np.uint64, endpoint=False
    ).view(float),
}


@pytest.mark.parametrize("edge_class", sorted(EDGE_CLASSES))
def test_block_text_is_repr_on_edge_classes(edge_class):
    x = EDGE_CLASSES[edge_class]()
    x.view(np.uint64)[1::2] ^= np.uint64(2**63)  # every other sign bit set
    got = outputs._block_text(x.reshape(1, -1)).decode("ascii")
    assert got == ",".join(map(repr, x.tolist())) + "\n"


def evolution_result(rng, bits, n_rows, dim) -> EvolutionResult:
    """Rows of arbitrary, not Hermitian, states and diagnostics."""
    vals = floats_from_bits(bits, -1)
    take = rng.integers(0, len(vals), size=(n_rows, 3 + 2 * dim * dim))
    x = vals[take]
    rho = np.ascontiguousarray(x[:, 3:]).view(complex).reshape(n_rows, dim, dim)
    return EvolutionResult(x[:, 0], HilbertSpace((dim,)), rho, x[:, 1], x[:, 2])


def evolution_reference(res) -> str:
    dim = res.rho.shape[1]
    header = ["time", *state_columns(dim), "trace_drift", "hermiticity_drift"]
    rows = [
        [t, *[v for z in r.ravel() for v in (z.real, z.imag)], td, hd]
        for t, r, td, hd in zip(res.times, res.rho, res.trace_drift, res.hermiticity_drift)
    ]
    return reference_csv(header, rows)


@settings(max_examples=60)
@given(
    bits=st.lists(F64_BITS, min_size=1, max_size=40),
    n_rows=st.integers(1, 30),
    dim=st.integers(1, 3),
    block=st.integers(1, 64),
    seed=st.integers(0, 10_000),
)
def test_write_evolution_csv_any_block_size(tmp_path_factory, bits, n_rows, dim, block, seed):
    # row counts off a multiple of the block, and rows wider than one block
    res = evolution_result(np.random.default_rng(seed), bits, n_rows, dim)
    path = tmp_path_factory.mktemp("csv") / "e.csv"
    with mock.patch.object(outputs, "_BLOCK_VALUES", block):
        write_evolution_csv(path, res)
    assert path.read_text() == evolution_reference(res)


@settings(max_examples=60)
@given(
    bits=st.lists(F64_BITS, min_size=1, max_size=40),
    n_rows=st.integers(1, 30),
    dim=st.integers(1, 3),
    block=st.integers(1, 64),
    seed=st.integers(0, 10_000),
)
def test_write_evolution_rows_any_block_size(tmp_path_factory, bits, n_rows, dim, block, seed):
    # the rows arrive one at a time, as evolve makes them, and blocks span them
    res = evolution_result(np.random.default_rng(seed), bits, n_rows, dim)
    path = tmp_path_factory.mktemp("csv") / "e.csv"

    def overwritten(rows):
        # as master._saved_rows does on the dense path, which these d take,
        # each state is a column-major view of one buffer, and the buffer is
        # overwritten once the row is taken
        buf = np.empty(dim * dim, dtype=complex)
        for t, m, drift, herm in rows:
            buf[:] = m.reshape(-1, order="F")
            yield t, buf.reshape((dim, dim), order="F"), drift, herm
            buf[:] = np.nan

    rows = overwritten(zip(res.times, res.rho, res.trace_drift, res.hermiticity_drift))
    with mock.patch.object(outputs, "_BLOCK_VALUES", block):
        write_evolution_rows(path, dim, rows)
    assert path.read_text() == evolution_reference(res)


@settings(max_examples=60)
@given(
    bits=st.lists(F64_BITS, min_size=1, max_size=40),
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    members=st.integers(1, 4),
    dim=st.integers(1, 3),
    block=st.integers(1, 200),
    kind=st.sampled_from(["homodyne", "counting"]),
    seed=st.integers(0, 10_000),
)
def test_write_trajectory_rows_any_block_size(tmp_path_factory, bits, sizes, members, dim, block,
                                              kind, seed):
    # blocks of rows of several members arrive as an ensemble makes them;
    # each member's file holds its rows, however the formatter groups them,
    # and a member missing from a later block gets no more rows
    rng = np.random.default_rng(seed)
    floats = floats_from_bits(bits, -1)
    pick = lambda *shape: rng.choice(floats, shape)  # noqa: E731
    blocks, want = [], [[] for _ in range(members)]
    for j, n in enumerate(sizes):
        k = max(1, members - j)
        rec = rng.random((n, k)) < 0.5 if kind == "counting" else pick(n, k)
        states = np.empty((n, k, dim, dim), dtype=complex)
        states.real, states.imag = pick(n, k, dim, dim), pick(n, k, dim, dim)
        block_ = (pick(n), rec, pick(n, k), states)
        blocks.append(block_)
        for i in range(k):
            for r in range(n):
                state = [v for z in block_[3][r, i].ravel() for v in (z.real, z.imag)]
                want[i].append([block_[0][r], rec[r, i], block_[2][r, i], *state])
    paths = [tmp_path_factory.mktemp("csv") / f"t{i}.csv" for i in range(members)]
    with mock.patch.object(outputs, "_BLOCK_VALUES", block):
        outputs.write_trajectory_rows(paths, dim, kind, blocks)
    header = ["time", "dY" if kind == "homodyne" else "jump", "innovation", *state_columns(dim)]
    for path, rows in zip(paths, want):
        assert path.read_text() == reference_csv(header, rows)


@pytest.mark.parametrize("kind", ["homodyne", "counting"])
@pytest.mark.parametrize("block", [1, 76, 77, 78, 385, 8192])
@pytest.mark.parametrize("pass_members", [None, 2])
def test_write_trajectory_rows_equal_members_and_a_leaver(tmp_path, kind, block, pass_members):
    # five d = 2 members of 7-row blocks (one member's block: 7 rows of 11
    # values, 77): bitwise equal in the first block, as counting members
    # are until they jump; member 3 jumps in the second, and members 3 and
    # 4 leave after it.  Each file holds its member's rows whether a call
    # spans one row or every member's block, and whether a pass spans
    # every member or two; no call takes more than _BLOCK_VALUES values
    # (or one row), and each member's lines of a block are one write
    rng = np.random.default_rng([block, len(kind)])
    dim, n, width = 2, 7, 11
    one = rng.standard_normal((n, 1, dim, dim)) + 1j * rng.standard_normal((n, 1, dim, dim))
    flags = np.zeros((n, 1), dtype=bool) if kind == "counting" else rng.standard_normal((n, 1))
    blocks = [(np.arange(1, n + 1) * 0.1, np.repeat(flags, 5, 1), np.repeat(flags - 0.25, 5, 1),
               np.repeat(one, 5, 1))]
    second = [x.copy() for x in blocks[0]]
    second[0] += n * 0.1
    second[1][4, 3] = 1.0
    second[2][4, 3] = 0.75
    second[3][4:, 3] = rng.standard_normal((3, dim, dim))
    blocks.append(tuple(second))
    blocks.append(tuple(x[:, :3] if x.ndim > 1 else x + n * 0.1 for x in second))
    want = [[] for _ in range(5)]
    for times, rec, innov, states in blocks:
        for i in range(rec.shape[1]):
            for r in range(n):
                state = [v for z in states[r, i].ravel() for v in (z.real, z.imag)]
                want[i].append([times[r], rec[r, i], innov[r, i], *state])
    calls, appends, real_text = [], {}, outputs._block_text

    def recording_text(a):
        calls.append(a.shape)
        return real_text(a)

    def recording_open(path, mode="r", *args, **kwargs):
        if mode == "ab":
            appends[path] = appends.get(path, 0) + 1
        return open(path, mode, *args, **kwargs)

    held = outputs._BLOCK_BYTES if pass_members is None else 8 * pass_members * n * width
    paths = [tmp_path / f"t{i}.csv" for i in range(5)]
    with mock.patch.object(outputs, "_BLOCK_VALUES", block), \
            mock.patch.object(outputs, "_BLOCK_BYTES", held), \
            mock.patch.object(outputs, "_block_text", recording_text), \
            mock.patch.object(outputs, "open", recording_open, create=True):
        outputs.write_trajectory_rows(paths, dim, kind, blocks)
    header = ["time", "dY" if kind == "homodyne" else "jump", "innovation", *state_columns(dim)]
    for path, rows in zip(paths, want):
        assert path.read_text() == reference_csv(header, rows)
    assert [appends[p] for p in paths] == [3, 3, 3, 2, 2]
    # a pass of c members is formatted r = max(1, block // (c width)) rows
    # of each at a time
    shapes = []
    for k in (5, 5, 3):
        group = min(k, max(1, block // width), pass_members or k)
        for c in [min(group, k - i) for i in range(0, k, group)]:
            r = max(1, block // (c * width))
            shapes += [(c * min(r, n - a), width) for a in range(0, n, r)]
    assert calls == shapes
    assert all(rows * cols <= max(block, width) for rows, cols in calls)


def test_write_evolution_csv_row_wider_than_default_block(tmp_path):
    dim = 1 + math.isqrt(outputs._BLOCK_VALUES // 2)
    rng = np.random.default_rng(3)
    res = evolution_result(rng, rng.integers(0, 2**64, 500, dtype=np.uint64), 5, dim)
    assert 2 * dim * dim > outputs._BLOCK_VALUES
    path = tmp_path / "e.csv"
    write_evolution_csv(path, res)
    assert path.read_text() == evolution_reference(res)


def test_write_convergence_csv_matches_reference(tmp_path):
    points = [ConvergencePoint(2.0, 0.125, -0.0, 1e-4), ConvergencePoint(5, 3e-17, 1e16, 2e-5)]
    path = tmp_path / "c.csv"
    write_convergence_csv(path, points)
    header = ["k", "trace_distance", "leaked_trace", "dt_full"]
    rows = [[p.k, p.distance, p.leaked_trace, p.dt_full] for p in points]
    assert path.read_text() == reference_csv(header, rows)
    write_convergence_csv(path, [])
    assert path.read_text() == ",".join(header) + "\n"


def test_writer_memory_is_per_block(tmp_path):
    """The writer's traced peak does not grow with the number of rows."""
    rng = np.random.default_rng(0)
    # few distinct magnitudes keep the formatting, traced value by value, quick
    bits = np.float64([0.5, 0.25, 1e-3, 3e-17]).view(np.uint64)
    peaks = []
    for n_rows in (101, 1001):
        res = evolution_result(rng, bits, n_rows, 30)
        tracemalloc.start()
        write_evolution_csv(tmp_path / "e.csv", res)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # one state row at d = 30 is 28.8 kB; 900 more rows would be 26 MB
    assert peaks[1] - peaks[0] < 256 * 1024


# --- the forked formatter ------------------------------------------------------


@pytest.fixture
def forks(monkeypatch):
    """`common.forking`'s list of formatter pids; at the end, checks that
    every child has been reaped."""
    yield forking(monkeypatch)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def d30_rows():
    """d and ``master._evolve``'s rows and row count of a d = 30 run: 101
    rows of 1803 values, 26 blocks."""
    g = instantiate(kerr_family(n_max=30)[0], 2.0)
    segments = [(g, 0.05, master._step_grid(0.05, 5e-4))]
    rows, n_rows, _ = master._evolve(segments, basis_state_density(g.space, 1), 1)
    return g.dim, rows, n_rows


def test_forked_evolution_rows_are_the_serial_bytes(tmp_path, monkeypatch, forks):
    dim, rows, n_rows = d30_rows()
    write_evolution_rows(tmp_path / "forked.csv", dim, rows, n_rows)
    assert len(forks) == 1
    monkeypatch.setattr(master, "_one_thread", lambda: False)
    write_evolution_rows(tmp_path / "serial.csv", dim, d30_rows()[1], n_rows)
    assert len(forks) == 1
    assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


@pytest.mark.parametrize("scheme", ["homodyne", "counting"])
def test_forked_trajectory_rows_are_the_serial_bytes(tmp_path, monkeypatch, forks, scheme):
    # 24 members of 500 steps (132 000 values): two blocks of steps, each
    # written in a pass of 23 members and a pass of one
    g = zeno_eliminate(*kerr_family()).zeno_triple
    config = SimConfig(dt=2e-3, t_end=1.0, seed=3, scheme=scheme)

    def write(name):
        paths = [tmp_path / f"{name}{i}.csv" for i in range(24)]
        blocks = _ensemble_blocks(g, basis_state_density(g.space, 1), config, 24)
        outputs.write_trajectory_rows(paths, g.dim, scheme, blocks, 500)
        return [p.read_bytes() for p in paths]

    forked = write("forked")
    assert len(forks) == 1
    monkeypatch.setattr(master, "_one_thread", lambda: False)
    assert write("serial") == forked
    assert len(forks) == 1


def test_a_one_block_file_does_not_fork(tmp_path, forks):
    # even when told that it holds enough values to fork for
    dim, rows, n_rows = d30_rows()
    one = [next(rows) for _ in range(outputs._BLOCK_VALUES // (3 + 2 * dim * dim))]
    write_evolution_rows(tmp_path / "e.csv", dim, iter(one), n_rows)
    assert n_rows * (3 + 2 * dim * dim) >= outputs._FORK_MIN_VALUES
    assert forks == []
    write_evolution_rows(tmp_path / "two.csv", dim, iter(one + one[:1]), n_rows)
    assert len(forks) == 1


def test_a_trajectory_ensemble_of_the_benchmark_size_does_not_fork(tmp_path, forks):
    # traj_ensemble's calls: 10 members of 500 steps, 55 000 values, where
    # a fork did not pay for itself
    g = zeno_eliminate(*kerr_family()).zeno_triple
    config = SimConfig(dt=2e-3, t_end=1.0, seed=3, scheme="counting")
    blocks = _ensemble_blocks(g, basis_state_density(g.space, 1), config, 10)
    outputs.write_trajectory_rows([tmp_path / f"t{i}.csv" for i in range(10)], g.dim, "counting",
                                  blocks, 500)
    assert 10 * 500 * (3 + 2 * g.dim**2) < outputs._FORK_MIN_VALUES
    assert forks == []


def test_a_formatter_killed_mid_file_raises_a_typed_error(tmp_path, monkeypatch, forks):
    kill_the_formatter(monkeypatch)
    dim, rows, n_rows = d30_rows()
    message = r"^a CSV formatter worker ended without its result \(signal 9\)$"
    with pytest.raises(WorkerError, match=message):
        write_evolution_rows(tmp_path / "e.csv", dim, rows, n_rows)
    assert len(forks) == 1


# --- the limit-triple JSON: exactly json.dumps(indent=2, sort_keys=True) -----


def reference_triple_json(result) -> str:
    t = result.zeno_triple
    payload = {
        "channels": t.n,
        "zeno_dim": t.dim,
        "S": [[matrix_to_pairs(m) for m in row] for row in t.s],
        "L": [matrix_to_pairs(m) for m in t.l],
        "H": matrix_to_pairs(t.H.mat),
        "V_z": matrix_to_pairs(result.v_z.cols),
        "residuals": {k: float(v) for k, v in result.residuals.items()},
    }
    return json.dumps(payload, indent=2, sort_keys=True)


@settings(max_examples=40)
@given(
    dim=st.integers(1, 4),
    extra=st.integers(0, 3),
    channels=st.integers(1, 3),
    scale=st.sampled_from([1.0, 1e-5, 1e17, 2.0**-1060]),
    seed=st.integers(0, 10_000),
)
def test_triple_json_matches_json_dumps(dim, extra, channels, scale, seed):
    rng = np.random.default_rng(seed)
    space = HilbertSpace((dim,))
    u = random_unitary(rng, channels * dim).reshape(channels, dim, channels, dim)
    l = scale * np.stack([random_complex_matrix(rng, dim) for _ in range(channels)])
    h = Operator(space, scale * random_hermitian(rng, dim))
    cols = random_unitary(rng, dim + extra)[:, :dim]
    residuals = {"kernel": float(rng.random()) * 1e-15, "scaling": 0.0, "decoupling": -0.0}
    v_z = SubspaceIsometry(HilbertSpace((dim + extra,)), cols)
    result = EliminationResult(SLHTriple(u.transpose(0, 2, 1, 3), l, h), v_z, residuals)
    assert triple_json(result) == reference_triple_json(result)


@settings(max_examples=100)
@given(
    data=st.data(),
    dim=st.integers(0, 3),
    full=st.integers(0, 3),
    channels=st.integers(0, 2),
    residual=F64_BITS,
)
def test_triple_json_any_floats(data, dim, full, channels, residual):
    """Arbitrary finite bit patterns in the matrices (a triple rejects
    NaN and Infinity entries) and empty dimensions."""
    finite_bits = F64_BITS.filter(lambda b: (b >> 52) & 0x7FF != 0x7FF)

    def matrix(*shape):
        size = 2 * math.prod(shape)
        bits = data.draw(st.lists(finite_bits, min_size=size, max_size=size))
        return floats_from_bits(bits, (*shape, 2)).view(complex)[..., 0]

    triple = SimpleNamespace(
        s=matrix(channels, channels, dim, dim),
        l=matrix(channels, dim, dim),
        H=SimpleNamespace(mat=matrix(dim, dim)),
        n=channels,
        dim=dim,
    )
    residuals = {"kernel": floats_from_bits([residual], ())[()], "scaling": 1e-16}
    result = SimpleNamespace(
        zeno_triple=triple, v_z=SimpleNamespace(cols=matrix(full, dim)), residuals=residuals
    )
    assert triple_json(result) == reference_triple_json(result)


def test_triple_json_file_and_stdout_agree(tmp_path, capsys):
    path = tmp_path / "t.json"
    assert cli(["eliminate", str(MODELS / "kerr_qubit.model"), "--out", str(path)]) == 0
    assert cli(["eliminate", str(MODELS / "kerr_qubit.model")]) == 0
    text = path.read_text()
    assert capsys.readouterr().out == text
    assert json.loads(text)["zeno_dim"] == 2
