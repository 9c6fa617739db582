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
seed base_seed + i and draws its whole record before the first step.
The members of an ensemble step in lockstep, in one process, as one
(M, d, d) stack; a single trajectory is the ensemble of one.  Member i is
bit-identical to a lone run seeded base_seed + i, and a member that fails
raises the error that run would raise.

Each operator product of a step is one GEMM that grows only in its row
dimension: [H; L_1; ...; L_n^H L_n] times each member on the left, and
the stack's (M d, d) rows times one operator on the right.  Each entry
then sums the terms of a lone run's d x d product in its order, which is
what member i's bit-identity rests on (the tests check it on the BLAS in
use); a wider right operand, or the members' (d, M d) columns, would not.

The scattering matrix does not enter these filter equations; for
counting with a nontrivial scattering matrix this is a documented
limitation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .master import DensityMatrix, EvolutionResult, StepSizeError, _StateViews
from .master import _dissipator_mat, _dissipator_terms, _right, _step_grid, _trace_drift
from .operators import HilbertSpace
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
        if self.measured_channel < 0:
            raise ValueError("measured_channel must be a nonnegative index")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
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
    """Matrices of one model and measured channel, formed once per run."""

    def __init__(self, g: SLHTriple, channel: int):
        if not (0 <= channel < g.n):
            raise ValueError(f"measured channel {channel} out of range for {g.n} channels")
        self.terms = _dissipator_terms(g.H.mat, g.l)
        self.channel = channel
        self.lcd, self.lcdlc = self.terms[2][channel]
        self.lc_sum = g.l[channel] + self.lcd


def _trace(x):
    return x.trace(axis1=1, axis2=2)


def _normalize(x):
    x = 0.5 * (x + x.conj().transpose(0, 2, 1))
    return x / _trace(x).real[:, None, None]


def _homodyne_step(ops: _Ops, x, dt: float, dw):
    """One diffusive update of an (M, d, d) stack, dw holding one increment
    per member.  Returns the next states and the means tr(rho (L_c + L_c^H))."""
    dx, left, _ = _dissipator_mat(ops.terms, x)
    mean = _trace(_right(x, ops.lc_sum)).real
    gain = left[:, 1 + ops.channel] + _right(x, ops.lcd) - mean[:, None, None] * x
    return _normalize(x + dx * dt + gain * dw[:, None, None]), mean


def _counting_step(ops: _Ops, x, dt: float, u):
    """One jump/no-jump update of an (M, d, d) stack, u holding one uniform
    per member.  Returns (next states, jumped, rates, error).

    error is None, or the exception of the lowest-index member whose step
    fails (jump guard, NaN rate, zero-weight jump); the other three then
    cover only the members before it.
    """
    rate = _trace(_right(x, ops.lcdlc)).real
    p = rate * dt
    jumped, error = u < p, None
    bad = ~(p <= JUMP_PROBABILITY_GUARD)  # a NaN p is over the guard
    if bad.any():
        i = int(np.argmax(bad))
        error = StepSizeError(
            f"jump probability per step {p[i]:.3f} exceeds {JUMP_PROBABILITY_GUARD}; reduce dt"
        )
        x, rate, jumped = x[:i], rate[:i], jumped[:i]
    dx, _, jumps = _dissipator_mat(ops.terms, x)
    jm = jumps[ops.channel]  # L_c x L_c^H
    any_jump = jumped.any()
    if any_jump and (bad := jumped & (_trace(jm).real < 1e-14)).any():
        i = int(np.argmax(bad))  # lower than any member over the guard
        error = ValueError("jump attempted from a state with zero jump probability")
        x, rate, jm, jumped, dx = x[:i], rate[:i], jm[:i], jumped[:i], dx[:i]
        any_jump = jumped.any()
    nxt = _normalize(x + (dx - (jm - rate[:, None, None] * x)) * dt)
    if any_jump:
        jm = jm[jumped]
        nxt[jumped] = jm / _trace(jm).real[:, None, None]
    return nxt, jumped, rate, error


def homodyne_step(g: SLHTriple, rho: DensityMatrix, channel: int, dt: float, dw: float):
    """One diffusive update; dw is a Gaussian increment of variance dt.

    Returns (rho_next, dY, dI); the state is re-Hermitized and
    trace-renormalized.
    """
    m, mean = _homodyne_step(_Ops(g, channel), rho.mat[None], dt, np.array([dw]))
    return DensityMatrix(g.space, m[0], min_eig_tol=None), float(mean[0]) * dt + dw, dw


def counting_step(g: SLHTriple, rho: DensityMatrix, channel: int, dt: float, u: float):
    """One jump/no-jump update; u is uniform in [0, 1).

    Returns (rho_next, jumped).  Aborts if the per-step jump probability
    exceeds the guard, which keeps the first-order splitting valid.
    """
    m, jumped, _, error = _counting_step(_Ops(g, channel), rho.mat[None], dt, np.array([u]))
    if error is not None:
        raise error
    return DensityMatrix(g.space, m[0], min_eig_tol=None), bool(jumped[0])


def simulate(g: SLHTriple, rho0: DensityMatrix, config: SimConfig) -> TrajectoryResult:
    """Run one conditioned trajectory; bit-identical given the same seed.

    The record is generated before any estimation query, so its
    statistics depend only on (model, initial state, seed).
    """
    return simulate_ensemble(g, rho0, config, 1)[0]


def simulate_ensemble(
    g: SLHTriple, rho0: DensityMatrix, config: SimConfig, n_trajectories: int
) -> list[TrajectoryResult]:
    """Trajectories i < n_trajectories, seeded config.seed + i, in lockstep.

    Each ``rho`` is a read-only view of one array.  A member whose step
    fails leaves the batch with every higher-index member; the error of
    the lowest-index member that failed is raised once the rest have
    finished, as running the members one by one would raise it.
    """
    members = int(n_trajectories)
    if members < 1:
        raise ValueError(f"need at least one trajectory, got {n_trajectories}")
    if rho0.space != g.space:
        raise ValueError("initial state lives on a different space than the model")
    ops = _Ops(g, config.measured_channel)
    n, dt = _step_grid(config.t_end, config.dt)
    homodyne = config.scheme == "homodyne"
    rngs = [np.random.default_rng(config.seed + i) for i in range(members)]
    draws = np.array(
        [r.normal(0.0, np.sqrt(dt), size=n) if homodyne else r.random(size=n) for r in rngs]
    )
    times = np.linspace(0.0, config.t_end, n + 1)
    times.setflags(write=False)
    rho = np.empty((members, n + 1, g.dim, g.dim), dtype=complex)
    rho[:, 0] = rho0.mat
    m, error = rho[:, 0].copy(), None  # C-contiguous, so its rows view as (M d, d)
    # per member and step: tr(rho (L_c + L_c^H)) or the jump rate, and the jump flag
    means, jumps = np.empty((members, n)), np.zeros((members, n), dtype=bool)
    for s in range(n):
        if homodyne:
            m, means[:, s] = _homodyne_step(ops, m, dt, draws[:, s])
        else:
            m, jumped, rate, err = _counting_step(ops, m, dt, draws[: len(m), s])
            jumps[: len(m), s], means[: len(m), s] = jumped, rate
            if err is not None:  # each failure has a lower index than the one before
                error = err
                if not len(m):
                    break
        rho[: len(m), s + 1] = m
    if error is not None:
        raise error
    # a homodyne state that blew up steps on as NaN; name the first such
    # member by its seed, which is the same in a lone run and in any chunk
    bad = ~np.isfinite(means)
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        s = int(np.argmax(bad[i]))
        raise StepSizeError(
            f"trajectory seed {config.seed + i}: measurement mean {means[i, s]} at "
            f"t={times[s]:.6g} is not finite; reduce dt"
        )
    rho.setflags(write=False)
    if homodyne:
        innovations = draws
        records = [MeasurementRecord("homodyne", times, increments=dy) for dy in means * dt + draws]
    else:
        innovations = jumps - means * dt
        records = [MeasurementRecord("counting", times, jump_times=times[1:][j]) for j in jumps]
    return [
        TrajectoryResult(times, g.space, rho[i], records[i], innovations[i]) for i in range(members)
    ]


def ensemble_mean(results) -> EvolutionResult:
    """Pointwise average of conditioned states over a common space and grid."""
    results = list(results)
    if not results:
        raise ValueError("need at least one trajectory")
    times, space = results[0].times, results[0].space
    for r in results[1:]:
        if r.space != space:
            raise ValueError(f"trajectories live on different spaces, {space} and {r.space}")
        if len(r.times) != len(times) or not np.allclose(r.times, times):
            raise ValueError("trajectories are on different time grids")
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
