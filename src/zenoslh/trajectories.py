"""Conditioned state evolution under continuous measurement of one channel.

One output channel c is monitored; all other channels act
unconditionally through the dissipator.  The state-form stochastic
master equations are integrated with fixed-step first-order updates:

homodyne (diffusive), with m = tr(rho (L_c + L_c^H)):

    rho' = rho + D(rho) dt + G(rho) dI,
    G(rho) = L_c rho + rho L_c^H - m rho,
    dY = m dt + dW,   dI = dW,

counting (jump), with rate = tr(rho L_c^H L_c):

    jump  (prob rate dt):  rho' = L_c rho L_c^H / tr(L_c rho L_c^H),
    else:  rho' = rho + [ D(rho) - (L_c rho L_c^H - rate rho) ] dt,

both renormalized and re-Hermitized every step.  The innovation is the
record increment minus its filter-predicted mean (dW for homodyne,
jump - rate dt for counting); it is a martingale increment under the
filter's own law.

A :class:`TrajectoryResult` holds the conditioned states, initial state
first, as one read-only array ``rho`` of shape (n + 1, d, d).  ``states``
and ``final`` are DensityMatrix views of it, built and validated on each
access (trace to 1e-8, no eigenvalue check).

Randomness comes from a seedable 64-bit generator
(``numpy.random.default_rng``); within an ensemble, trajectory i uses
seed base_seed + i.  The members of an ensemble step in lockstep, in one
process, as one (M, d, d) stack; a single trajectory is the ensemble of
one.  They step in ``evolve``'s block loop (``master._block_loop``):
each member draws a block's record before its steps, which concatenate
to one draw of the whole record, and the homodyne means are checked once
per block.  ``_ensemble_blocks`` yields each block's rows, which
``simulate_ensemble`` collects and the ``traj`` command writes as they
come.  Member i is bit-identical to a lone run seeded base_seed + i, and
a member that fails raises the error that run would raise.

Each operator product of a step is one GEMM that grows only in its row
dimension: [H; L_1; ...; L_n^H L_n] times each member on the left, and
the stack's (M d, d) rows times one operator on the right.  Each entry
then sums the terms of a lone run's d x d product in its order, which is
what member i's bit-identity rests on (the tests check it on the BLAS in
use); a wider right operand, or the members' (d, M d) columns, would not.
A step forms its right products in two ``np.matmul`` calls on stacks: the
(M d, d) rows times each of [H, L_1^H L_1, ..., L_n^H L_n, L_c + L_c^H],
and the rows of L_1 x, ..., L_n x and x times L_1^H, ..., L_n^H, L_c^H.
A stacked call is one GEMM per operand, of the lone operand's shape and
layout, never one (d, p d) operand, so the rule still holds; the counting
rate reads tr(x L_c^H L_c) off the dissipator's own product.

A run's steps write into workspaces made once per run (``_Ops``): the
three products, the stack of jump operands and each elementwise stage,
each ufunc and ``np.matmul`` taking its output by ``out=``, and the next
states go straight into the block's row of states.  Once members leave,
the steps use views of the workspaces' first k members.  Every GEMM keeps
the operand shapes and layouts above, so the rule is unchanged, and the
traces sum a strided view of the diagonals in ``np.trace``'s order.

The scattering matrix does not enter these filter equations; for
counting with a nontrivial scattering matrix this is a documented
limitation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .master import DensityMatrix, EvolutionResult, StepSizeError, _block_loop, _block_rows
from .master import _dissipator, _dissipator_space, _dissipator_terms, _StateViews
from .master import _step_grid, _trace_drift
from .operators import HilbertSpace, _is_int
from .slh import SLHTriple

__all__ = [
    "SimConfig",
    "MeasurementRecord",
    "TrajectoryResult",
    "homodyne_step",
    "counting_step",
    "simulate",
    "simulate_ensemble",
    "ensemble_mean",
    "JUMP_PROBABILITY_GUARD",
]

JUMP_PROBABILITY_GUARD = 0.1

_SCHEMES = ("homodyne", "counting")


@dataclass(frozen=True)
class SimConfig:
    """Step size, horizon, channel, seed, scheme; a grid evolve rejects raises ValueError."""

    dt: float
    t_end: float
    measured_channel: int = 0
    seed: int = 0
    scheme: str = "homodyne"

    def __post_init__(self):
        if not (0 < self.dt <= self.t_end):
            raise ValueError(f"need 0 < dt <= t_end, got dt={self.dt}, t_end={self.t_end}")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        for name in ("measured_channel", "seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        _step_grid(self.t_end, self.dt)

    @property
    def n_steps(self) -> int:
        return _step_grid(self.t_end, self.dt)[0]


@dataclass(frozen=True)
class MeasurementRecord:
    """Raw record of one run: dY increments (homodyne) or jump times."""

    kind: str
    times: np.ndarray
    increments: np.ndarray | None = None
    jump_times: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "homodyne":
            if self.increments is None or not np.all(np.isfinite(self.increments)):
                raise ValueError("homodyne record needs finite increments")
            if len(self.increments) != len(self.times) - 1:
                raise ValueError("need one increment per step")
        elif self.kind == "counting":
            jt = np.asarray(self.jump_times if self.jump_times is not None else [])
            if jt.size and (np.any(np.diff(jt) <= 0) or jt[0] < 0 or jt[-1] > self.times[-1]):
                raise ValueError("jump times must be strictly increasing within [0, t_end]")
        else:
            raise ValueError(f"unknown record kind {self.kind!r}")


@dataclass(frozen=True)
class TrajectoryResult(_StateViews):
    """Time grid, read-only (T, d, d) conditioned states, record, innovations."""

    times: np.ndarray
    space: HilbertSpace
    rho: np.ndarray
    record: MeasurementRecord
    innovations: np.ndarray

    trace_tol: ClassVar[float] = 1e-8


class _Ops:
    """Matrices of one model and measured channel, formed once per run, and
    the run's workspaces: the buffers of ``master._dissipator`` and two
    (M, d, d) stages, made for the largest stack stepped, with the views of
    its first k members (``_Workspace``) formed once per k."""

    def __init__(self, g: SLHTriple, channel: int, homodyne: bool):
        if not (0 <= channel < g.n):
            raise ValueError(f"measured channel {channel} out of range for {g.n} channels")
        # only the homodyne step reads x (L_c + L_c^H) and x L_c^H; the
        # counting step reads x L_c^H L_c and (L_c x) L_c^H, formed for D(x)
        self.terms = _dissipator_terms(g.H.mat, g.l, channel if homodyne else None)
        self.channel = channel
        self.size, self._workspaces = 0, {}

    def workspace(self, k: int):
        """The ``_Workspace`` of k members, the buffers grown to k first if
        they are smaller."""
        ws = self._workspaces.get(k)
        if ws is None:
            if k > self.size:
                d = self.terms[0].shape[1]
                self.space = _dissipator_space(self.terms, k)
                self.stages = np.empty((2, k, d, d), dtype=complex)
                self.size, self._workspaces = k, {}
            ws = self._workspaces[k] = _Workspace(self, k)
        return ws


class _Workspace:
    """Views of a run's workspaces for its first k members; those of fewer
    members are prefixes of them.  ``dissipate(x)`` writes D(x) into ``dx``
    and its products into the views read here: ``lx``, ``xl`` and ``jump``
    are L_c x, x L_c^H (homodyne) and L_c x L_c^H, and ``mean_diag`` and
    ``rate_diag`` the diagonals of x (L_c + L_c^H) (homodyne) and
    x L_c^H L_c.  ``a`` and ``b`` are two stages."""

    def __init__(self, ops: _Ops, k: int):
        self.dissipate, (self.dx, left, right, jumps) = _dissipator(ops.terms, ops.space, k)
        self.a, self.b = ops.stages[0, :k], ops.stages[1, :k]
        c = ops.channel
        self.lx, self.xl, self.jump = left[:, 1 + c], jumps[-1], jumps[c]
        self.mean_diag, self.rate_diag = _diagonals(right[-1]), _diagonals(right[1 + c])
        self.dx_t, self.b_diag = self.dx.transpose(0, 2, 1), _diagonals(self.b)
        # a Python 0.5 would be converted to this same complex128 on each call
        self.half = np.complex128(0.5)


def _diagonals(x):
    """The diagonals of a C-contiguous (M, d, d) stack, as a strided view;
    ``np.add.reduce`` over its last axis sums each as ``np.trace`` does."""
    d = x.shape[-1]
    return x.reshape(len(x), d * d)[:, :: d + 1]


def _trace(x):
    return np.add.reduce(_diagonals(x), axis=-1)


def _normalize(w: _Workspace, out=None):
    """The Hermitian part of ``w.dx`` over its trace, into ``out`` (a new
    array if None)."""
    h = np.conjugate(w.dx_t, out=w.b)
    np.multiply(w.half, np.add(w.dx, h, out=h), out=h)
    return np.divide(h, np.add.reduce(w.b_diag, axis=-1).real[:, None, None], out=out)


def _homodyne_step(ops: _Ops, x, dt: float, dw, out=None):
    """One diffusive update of an (M, d, d) stack, dw holding one increment
    per member.  Returns the next states, written into ``out`` (a new array
    if None), and the means tr(rho (L_c + L_c^H))."""
    w = ops.workspace(len(x))
    w.dissipate(x)
    mean = np.add.reduce(w.mean_diag, axis=-1).real
    gain = np.add(w.lx, w.xl, out=w.a)
    np.subtract(gain, np.multiply(mean[:, None, None], x, out=w.b), out=gain)
    nxt = np.add(x, np.multiply(w.dx, dt, out=w.dx), out=w.dx)
    np.add(nxt, np.multiply(gain, dw[:, None, None], out=gain), out=nxt)
    return _normalize(w, out), mean


def _counting_step(ops: _Ops, x, dt: float, u, out=None):
    """One jump/no-jump update of an (M, d, d) stack, u holding one uniform
    per member.  Returns (next states, jumped, rates, error), the states
    written into ``out`` (a new array if None).

    error is None, or the exception of the lowest-index member whose step
    fails (jump guard, NaN rate, zero-weight jump); the other three then
    cover only the members before it, and the step goes on in the
    workspaces of those.
    """
    w = ops.workspace(len(x))
    w.dissipate(x)
    rate = np.add.reduce(w.rate_diag, axis=-1).real  # tr(x L_c^H L_c)
    p = rate * dt
    jumped, error = u < p, None
    any_jump = np.count_nonzero(jumped)  # as any(), without its Python wrapper
    bad = ~(p <= JUMP_PROBABILITY_GUARD)  # a NaN p is over the guard
    if any_jump:
        bad |= jumped & (_trace(w.jump).real < 1e-14)
    if np.count_nonzero(bad):
        i = int(np.argmax(bad))
        error = ValueError("jump attempted from a state with zero jump probability")
        if not p[i] <= JUMP_PROBABILITY_GUARD:  # the guard's error where member i has both
            error = StepSizeError(f"jump probability per step {p[i]:.3f} exceeds "
                                  f"{JUMP_PROBABILITY_GUARD}; reduce dt")
        # any_jump may still count jumps of the members dropped here: the
        # jump branch then selects no member
        x, rate, jumped, w = x[:i], rate[:i], jumped[:i], ops.workspace(i)
    if out is not None:
        out = out[: len(x)]
    drift = np.subtract(w.jump, np.multiply(rate[:, None, None], x, out=w.a), out=w.a)
    np.add(x, np.multiply(np.subtract(w.dx, drift, out=w.dx), dt, out=w.dx), out=w.dx)
    nxt = _normalize(w, out)
    if any_jump:
        jm = w.jump[jumped]  # L_c x L_c^H
        nxt[jumped] = jm / _trace(jm).real[:, None, None]
    return nxt, jumped, rate, error


def homodyne_step(g: SLHTriple, rho: DensityMatrix, channel: int, dt: float, dw: float):
    """One diffusive update; dw is a Gaussian increment of variance dt.

    Returns (rho_next, dY, dI); the state is re-Hermitized and
    trace-renormalized.
    """
    m, mean = _homodyne_step(_Ops(g, channel, True), rho.mat[None], dt, np.array([dw]))
    return DensityMatrix(g.space, m[0], min_eig_tol=None), float(mean[0]) * dt + dw, dw


def counting_step(g: SLHTriple, rho: DensityMatrix, channel: int, dt: float, u: float):
    """One jump/no-jump update; u is uniform in [0, 1).

    Returns (rho_next, jumped).  Aborts if the per-step jump probability
    exceeds the guard, which keeps the first-order splitting valid.
    """
    m, jumped, _, error = _counting_step(_Ops(g, channel, False), rho.mat[None], dt, np.array([u]))
    if error is not None:
        raise error
    return DensityMatrix(g.space, m[0], min_eig_tol=None), bool(jumped[0])


def simulate(g: SLHTriple, rho0: DensityMatrix, config: SimConfig) -> TrajectoryResult:
    """Run one conditioned trajectory; bit-identical given the same seed.

    Each block's record is drawn before its steps, so its statistics depend
    only on (model, initial state, seed).
    """
    return simulate_ensemble(g, rho0, config, 1)[0]


def simulate_ensemble(
    g: SLHTriple, rho0: DensityMatrix, config: SimConfig, n_trajectories: int
) -> list[TrajectoryResult]:
    """Trajectories i < n_trajectories, seeded config.seed + i, in lockstep:
    the blocks of ``_ensemble_blocks``, collected.

    Each ``rho`` is a read-only view of one array.  A member whose step
    fails leaves the batch with every higher-index member; the error of
    the lowest-index member that failed is raised once the rest have
    finished, as running the members one by one would raise it.
    """
    blocks = _ensemble_blocks(g, rho0, config, n_trajectories)
    members, n = int(n_trajectories), config.n_steps
    homodyne = config.scheme == "homodyne"
    times = _grid_times(config.t_end, n, 0, n + 1)
    times.setflags(write=False)
    rho = np.empty((members, n + 1, g.dim, g.dim), dtype=complex)
    rho[:, 0] = rho0.mat
    # per member and step: dY or the jump flag, and the innovation
    records = np.empty((members, n), dtype=float if homodyne else bool)
    innovations = np.empty((members, n))
    s = 0
    for _, rec, innov, states in blocks:
        k, e = rec.shape[1], s + len(rec)
        records[:k, s:e], innovations[:k, s:e] = rec.T, innov.T
        rho[:k, s + 1 : e + 1] = states.swapaxes(0, 1)
        s = e
    rho.setflags(write=False)
    if homodyne:
        recs = [MeasurementRecord("homodyne", times, increments=dy) for dy in records]
    else:
        recs = [MeasurementRecord("counting", times, jump_times=times[1:][j]) for j in records]
    return [
        TrajectoryResult(times, g.space, rho[i], recs[i], innovations[i]) for i in range(members)
    ]


def _grid_times(t_end: float, n: int, a: int, b: int):
    """``np.linspace(0.0, t_end, n + 1)[a:b]`` bit for bit (i * (t_end / n),
    and t_end last), without the rest of the grid."""
    t = np.arange(a, b, dtype=float) * (t_end / n)
    if b == n + 1:
        t[-1] = t_end
    return t


def _ensemble_blocks(g: SLHTriple, rho0: DensityMatrix, config: SimConfig, n_trajectories: int):
    """Trajectories i < n_trajectories, seeded config.seed + i, stepped in
    lockstep in ``master._block_loop`` (arguments checked at the call).

    Yields, per block of n steps, for the k members still running: the n
    times after the steps, (n, k) arrays of dY or jump flags and of
    innovations, and the (n, k, d, d) states, to be read before the next
    block.  Each member draws a block's record before its steps.  A member
    whose step fails (a homodyne mean that is not finite, found once a
    block, or a counting step's error) leaves with every higher-index
    member; the error of the lowest-index member that failed is raised once
    the rest have finished, as running the members one by one raises it.
    """
    members = int(n_trajectories)
    if members < 1:
        raise ValueError(f"need at least one trajectory, got {n_trajectories}")
    if rho0.space != g.space:
        raise ValueError("initial state lives on a different space than the model")
    ops, d = _Ops(g, config.measured_channel, config.scheme == "homodyne"), g.dim
    n_steps, dt = _step_grid(config.t_end, config.dt)
    homodyne, n_rows = config.scheme == "homodyne", _block_rows(16 * d * d, n_steps)
    rngs, sigma = [np.random.default_rng(config.seed + i) for i in range(members)], np.sqrt(dt)
    # per step and member: the state after it (row 0: the block's start), the
    # increment or uniform drawn, tr(rho (L_c + L_c^H)) or the jump rate, and
    # the jump flag.  Each state row is C-contiguous, so it views as (M d, d)
    states = np.empty((n_rows + 1, members, d, d), dtype=complex)
    states[0] = rho0.mat
    draws, means = np.empty((n_rows, members)), np.empty((n_rows, members))
    jumps = np.zeros((n_rows, members), dtype=bool)
    # the members running and the error of the lowest-index one that failed
    # (a replayed block runs without the members that left in it, as each
    # leaves at the same step either way)
    k, error = members, None

    def draw(step):
        # each running member's record of the block starting at step, drawn
        # before its steps, so that a replayed block reuses it
        size = min(n_rows, n_steps - step)
        for m, rng in enumerate(rngs[:k]):
            draws[:size, m] = rng.normal(0.0, sigma, size) if homodyne else rng.random(size)

    def run(i, j):
        nonlocal k, error
        for r in range(i, j):
            if not k:
                break
            x, u, out = states[r, :k], draws[r, :k], states[r + 1, :k]
            if homodyne:
                means[r, :k] = _homodyne_step(ops, x, dt, u, out)[1]
            else:
                x, jumped, rate, err = _counting_step(ops, x, dt, u, out)
                k = len(x)
                jumps[r, :k], means[r, :k] = jumped, rate
                if err is not None:  # each failure has a lower index than the one before
                    error = err

    def check(step, i, j):
        # a homodyne state that blew up steps on as NaN; name the first such
        # member by its seed, which is the same in a lone run and in any chunk
        nonlocal k, error
        bad = ~np.isfinite(means[i:j, :k])
        if bad.any():
            k = int(np.argmax(bad.any(axis=0)))
            r = i + int(np.argmax(bad[:, k]))
            t = _grid_times(config.t_end, n_steps, step + r, step + r + 1)[0]
            error = StepSizeError(
                f"trajectory seed {config.seed + k}: measurement mean {means[r, k]} at "
                f"t={t:.6g} is not finite; reduce dt"
            )

    def blocks():
        draw(0)
        # a counting step checks its members itself
        for step, n in _block_loop(run, check if homodyne else lambda *_: None, states, n_steps):
            if not k:
                break
            innov = draws[:n, :k] if homodyne else jumps[:n, :k] - means[:n, :k] * dt
            rec = means[:n, :k] * dt + innov if homodyne else jumps[:n, :k]
            times = _grid_times(config.t_end, n_steps, step + 1, step + n + 1)
            yield times, rec, innov, states[1 : n + 1, :k]
            if step + n < n_steps:
                draw(step + n)
        if error is not None:
            raise error

    return blocks()


def ensemble_mean(results) -> EvolutionResult:
    """Pointwise average of conditioned states over a common space and grid."""
    results = list(results)
    if not results:
        raise ValueError("need at least one trajectory")
    times, space = results[0].times, results[0].space
    for r in results[1:]:
        if r.space != space:
            raise ValueError(f"trajectories live on different spaces, {space} and {r.space}")
        if not np.array_equal(r.times, times):
            n = min(len(times), len(r.times))
            i = int(np.argmax(np.append(times[:n] != r.times[:n], True)))
            a, b = (repr(float(t[i])) if i < len(t) else "past the end" for t in (times, r.times))
            raise ValueError(f"trajectories are on different time grids: t[{i}] is {a} and {b}")
    total = np.array(results[0].rho)
    for r in results[1:]:
        total += r.rho
    rho = total / len(results)
    rho.setflags(write=False)
    return EvolutionResult(
        np.array(times),
        space,
        rho,
        _trace_drift(rho.reshape(len(rho), -1), rho.shape[-1]),
        np.zeros(len(times)),
        trace_tol=TrajectoryResult.trace_tol,
    )
