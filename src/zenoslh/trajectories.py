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
seed base_seed + i.  Identical (model, state, config) inputs produce
bit-identical records.  Individual trajectories are independent pure
computations and can run fully in parallel; a single trajectory is
sequential.

The scattering matrix does not enter these filter equations; for
counting with a nontrivial scattering matrix this is a documented
limitation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .master import DensityMatrix, EvolutionResult, StepSizeError, _dissipator_mat, _StateViews
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
    """Step size, horizon, measured channel, seed and scheme."""

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


class _Precomp:
    """Matrices reused across steps of one trajectory."""

    def __init__(self, g: SLHTriple, channel: int):
        if not (0 <= channel < g.n):
            raise ValueError(f"measured channel {channel} out of range for {g.n} channels")
        self.h = g.H.mat
        self.ls = g.l
        self.lc = self.ls[channel]
        self.lcd = self.lc.conj().T
        self.lcdlc = self.lcd @ self.lc


def _normalize(m):
    m = 0.5 * (m + m.conj().T)
    return m / float(np.trace(m).real)


def _homodyne_step_mat(pre: _Precomp, m, dt: float, dw: float):
    mean = float(np.trace(m @ (pre.lc + pre.lcd)).real)
    gain = pre.lc @ m + m @ pre.lcd - mean * m
    m2 = m + _dissipator_mat(pre.ls, pre.h, m) * dt + gain * dw
    return _normalize(m2), mean * dt + dw, dw


def _counting_step_mat(pre: _Precomp, m, dt: float, u: float):
    rate = float(np.trace(m @ pre.lcdlc).real)
    if not rate * dt <= JUMP_PROBABILITY_GUARD:
        raise StepSizeError(
            f"jump probability per step {rate * dt:.3f} exceeds {JUMP_PROBABILITY_GUARD}; reduce dt"
        )
    if u < rate * dt:
        jm = pre.lc @ m @ pre.lcd
        w = float(np.trace(jm).real)
        if w < 1e-14:
            raise ValueError("jump attempted from a state with zero jump probability")
        return jm / w, True, rate
    m2 = m + (_dissipator_mat(pre.ls, pre.h, m) - (pre.lc @ m @ pre.lcd - rate * m)) * dt
    return _normalize(m2), False, rate


def homodyne_step(
    g: SLHTriple, rho: DensityMatrix, channel: int, dt: float, dw: float
):
    """One diffusive update; dw is a Gaussian increment of variance dt.

    Returns (rho_next, dY, dI); the state is re-Hermitized and
    trace-renormalized.
    """
    pre = _Precomp(g, channel)
    m, dy, di = _homodyne_step_mat(pre, rho.mat, dt, dw)
    return DensityMatrix(g.space, m, min_eig_tol=None), dy, di


def counting_step(g: SLHTriple, rho: DensityMatrix, channel: int, dt: float, u: float):
    """One jump/no-jump update; u is uniform in [0, 1).

    Returns (rho_next, jumped).  Aborts if the per-step jump probability
    exceeds the guard, which keeps the first-order splitting valid.
    """
    pre = _Precomp(g, channel)
    m, jumped, _ = _counting_step_mat(pre, rho.mat, dt, u)
    return DensityMatrix(g.space, m, min_eig_tol=None), jumped


def simulate(g: SLHTriple, rho0: DensityMatrix, config: SimConfig) -> TrajectoryResult:
    """Run one conditioned trajectory; bit-identical given the same seed.

    The record is generated before any estimation query, so its
    statistics depend only on (model, initial state, seed).
    """
    if rho0.space != g.space:
        raise ValueError("initial state lives on a different space than the model")
    pre = _Precomp(g, config.measured_channel)
    n = max(1, int(round(config.t_end / config.dt)))
    dt = config.t_end / n
    rng = np.random.default_rng(config.seed)

    times = np.linspace(0.0, config.t_end, n + 1)
    rho = np.empty((n + 1, g.dim, g.dim), dtype=complex)
    m = rho[0] = rho0.mat
    innovations = np.empty(n)

    if config.scheme == "homodyne":
        dws = rng.normal(0.0, np.sqrt(dt), size=n)
        increments = np.empty(n)
        for i in range(n):
            m, increments[i], innovations[i] = _homodyne_step_mat(pre, m, dt, dws[i])
            rho[i + 1] = m
        record = MeasurementRecord(kind="homodyne", times=times, increments=increments)
    else:
        us = rng.random(size=n)
        jump_times = []
        for i in range(n):
            m, jumped, rate = _counting_step_mat(pre, m, dt, us[i])
            if jumped:
                jump_times.append(times[i + 1])
            innovations[i] = (1.0 if jumped else 0.0) - rate * dt
            rho[i + 1] = m
        record = MeasurementRecord(
            kind="counting", times=times, jump_times=np.array(jump_times)
        )
    rho.setflags(write=False)
    return TrajectoryResult(times, g.space, rho, record, innovations)


def simulate_ensemble(
    g: SLHTriple, rho0: DensityMatrix, config: SimConfig, n_trajectories: int
) -> list[TrajectoryResult]:
    """Independent trajectories with the documented seed split base + i."""
    return [
        simulate(g, rho0, replace(config, seed=config.seed + i))
        for i in range(int(n_trajectories))
    ]


def ensemble_mean(results) -> EvolutionResult:
    """Pointwise average of conditioned states over a common grid."""
    results = list(results)
    if not results:
        raise ValueError("need at least one trajectory")
    times = results[0].times
    for r in results[1:]:
        if len(r.times) != len(times) or not np.allclose(r.times, times):
            raise ValueError("trajectories are on different time grids")
    total = np.array(results[0].rho)
    for r in results[1:]:
        total += r.rho
    rho = total / len(results)
    rho.setflags(write=False)
    return EvolutionResult(
        np.array(times),
        results[0].space,
        rho,
        np.abs(np.trace(rho, axis1=1, axis2=2).real - 1.0),
        np.zeros(len(times)),
        trace_tol=TrajectoryResult.trace_tol,
    )
