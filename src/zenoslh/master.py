"""Deterministic state evolution: dissipator, master equation, diagnostics.

The predual generator of an SLH model acts on density matrices as

    D rho = sum_i ( L_i rho L_i^H - 1/2 rho L_i^H L_i - 1/2 L_i^H L_i rho )
            + i [rho, H],

and the master equation is d rho / dt = D rho.  Integration is classical
fixed-step 4th order (the one-step map is the degree-4 Taylor polynomial
of the matrix exponential of the vectorized generator); no adaptive
stepping, so order-of-accuracy tests and diagnostics are reproducible.
States are re-Hermitized each step; the trace is never renormalized,
trace drift is a monitored diagnostic with a hard abort threshold.

``evolve`` applies that one-step map in one of two ways, chosen once per
call from (d, steps, channels).  Up to a size crossover it builds the
dense d^2 x d^2 step map (d^6 work and 16 d^4 bytes per matrix, then
d^4 per step); above it, it runs the four RK4 stages on the d x d matrix
through the dissipator, with no d^2 x d^2 array (d^3 per step and
channel).  Both are the same RK4 map, so they differ by rounding only.
d <= ``DENSE_ALWAYS_DIM`` is always dense and d >= ``MATRIX_FREE_ALWAYS_DIM``
always matrix-free; in between, dense when the step time it saves over
the run pays for its build, at measured per-step and build costs.  The
result records the path as ``method``.

An :class:`EvolutionResult` holds the saved states as one read-only
array ``rho`` of shape (T, d, d).  ``states`` and ``final`` are
:class:`DensityMatrix` views of it, built and validated on each access
(trace to ``TRACE_ABORT_TOL``, no eigenvalue check).

The convergence harness compares the full model at increasing coupling
strength k against the limit model on the Zeno subspace: the full state
is compressed with the Zeno isometry, renormalized by its trace, and the
trace distance to the limit-model state at the same time is reported.
The full-model step is scaled by 1/k^2 because the fast rates grow as
k^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elimination import (
    DECOUPLING_TOL,
    KERNEL_TOL_SIGMA,
    SCALING_TOL,
    ScaledSLHFamily,
    instantiate,
    zeno_eliminate,
)
from .operators import HilbertSpace, Operator, ZenoSplit
from .slh import SLHTriple, lindbladian

__all__ = [
    "DensityMatrix",
    "EvolutionResult",
    "ConvergencePoint",
    "StepSizeError",
    "maximally_mixed",
    "basis_state_density",
    "pure_state_density",
    "dissipator",
    "liouvillian_matrix",
    "evolve",
    "evolve_piecewise",
    "ehrenfest_residual",
    "convergence_harness",
    "trace_distance",
    "TRACE_ABORT_TOL",
]

TRACE_ABORT_TOL = 1e-6

# evolve's stepping path (see the module docstring): dense at any cost up
# to this dimension, so results there stay bit-identical to the dense map
DENSE_ALWAYS_DIM = 12
# matrix-free from this dimension: with one or two channels its step is no
# slower than the dense one here, and the dense build takes >= 0.5 s and a
# >= 13 MB step map, growing as d^6 and d^4 (with 3+ channels a dense run
# of a few thousand steps would still be faster at d = 30)
MATRIX_FREE_ALWAYS_DIM = 30
# costs in seconds for 12 < d < 30, least-squares fits to timings of d = 13
# to 30 with 1 to 8 channels (numpy 2.4 on OpenBLAS, one thread, Intel
# Xeon); the fitted break-even step counts are within a factor 2.1 of the
# timed ones wherever the two steps differ by more than 15%, e.g. d = 20,
# 2 channels: build 64 ms, dense step 140 us, matrix-free step 322 us,
# break-even 352 steps (fit: 309)
DENSE_BUILD_S_PER_D6 = 8.2e-10
DENSE_STEP_S_PER_D4 = 8.8e-10
MATRIX_FREE_STEP_S = 7.7e-5
MATRIX_FREE_CHANNEL_S = 5.9e-5
MATRIX_FREE_CHANNEL_S_PER_D3 = 7.2e-9


class StepSizeError(RuntimeError):
    """Trace drift exceeded the abort threshold; reduce the step size."""


class DensityMatrix(Operator):
    """Hermitian, unit-trace, positive-semidefinite state matrix.

    A DensityMatrix is an :class:`Operator` (arithmetic on it returns
    plain Operators) that is also Hermitian to 1e-10.  The trace and
    eigenvalue tolerances are per-instance so integrators can store
    states carrying their documented drift; the defaults are the strict
    contract (unit trace to 1e-10, smallest eigenvalue above -1e-8).
    Pass ``min_eig_tol=None`` to skip the eigenvalue check (used for
    conditioned states, which can transiently leave the cone at finite
    step size).
    """

    __slots__ = ()

    def __init__(
        self,
        space: HilbertSpace,
        mat,
        *,
        trace_tol: float = 1e-10,
        min_eig_tol: float | None = 1e-8,
    ):
        super().__init__(space, mat)
        m = self.mat
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > 1e-10:
            raise ValueError(f"density matrix is not Hermitian (defect {herm:.3e})")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > trace_tol:
            raise ValueError(f"density matrix trace {tr} is not 1")
        if min_eig_tol is not None:
            w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
            if w[0] < -min_eig_tol:
                raise ValueError(f"density matrix has eigenvalue {w[0]:.3e} < -{min_eig_tol:.1e}")

    def expectation(self, x: Operator) -> complex:
        return complex(np.trace(self.mat @ x.mat))

    def purity(self) -> float:
        return float(np.real(np.trace(self.mat @ self.mat)))


def maximally_mixed(space: HilbertSpace) -> DensityMatrix:
    return DensityMatrix(space, np.eye(space.dim, dtype=complex) / space.dim)


def basis_state_density(space: HilbertSpace, index: int) -> DensityMatrix:
    if not (0 <= index < space.dim):
        raise ValueError(f"basis index {index} out of range for dimension {space.dim}")
    m = np.zeros((space.dim, space.dim), dtype=complex)
    m[index, index] = 1.0
    return DensityMatrix(space, m)


def pure_state_density(space: HilbertSpace, psi) -> DensityMatrix:
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.shape[0] != space.dim:
        raise ValueError("state vector dimension mismatch")
    n = np.vdot(v, v).real
    if n <= 0:
        raise ValueError("state vector has zero norm")
    v = v / np.sqrt(n)
    return DensityMatrix(space, np.outer(v, v.conj()))


def _dissipator_terms(h, ls):
    """H and one (L, L^H, L^H L) per channel, formed once per model."""
    lds = [lm.conj().T for lm in ls]
    return h, [(lm, ld, ld @ lm) for lm, ld in zip(ls, lds)]


def _dissipator_mat(terms, rho):
    """D(rho) for one matrix or a stack of them, from ``_dissipator_terms``."""
    h, channels = terms
    out = 1j * (rho @ h - h @ rho)
    for lm, ld, ldl in channels:
        out += lm @ rho @ ld - 0.5 * (rho @ ldl + ldl @ rho)
    return out


def dissipator(g: SLHTriple, rho: DensityMatrix) -> Operator:
    """Predual generator applied to a state; the result is traceless."""
    if rho.space != g.space:
        raise ValueError("state lives on a different space than the model")
    out = _dissipator_mat(_dissipator_terms(g.H.mat, g.l), rho.mat)
    return Operator(g.space, out)


def liouvillian_matrix(g: SLHTriple) -> np.ndarray:
    """Dense matrix of the predual generator in column-stacking convention.

    vec(rho) is column-major, so vec(A rho B) = (B^T kron A) vec(rho).
    """
    d = g.dim
    eye = np.eye(d, dtype=complex)
    h = g.H.mat
    out = 1j * (np.kron(h.T, eye) - np.kron(eye, h))
    for lm in g.l:
        ldl = lm.conj().T @ lm
        out += np.kron(lm.conj(), lm)
        out -= 0.5 * np.kron(ldl.T, eye)
        out -= 0.5 * np.kron(eye, ldl)
    return out


class _StateViews:
    """``states`` and ``final`` as DensityMatrix views of the ``rho`` array.

    Views are built and validated on each access, with the trace
    tolerance ``trace_tol`` and no eigenvalue check.
    """

    @property
    def states(self) -> list:
        return [self._view(m) for m in self.rho]

    @property
    def final(self) -> DensityMatrix:
        return self._view(self.rho[-1])

    def _view(self, m) -> DensityMatrix:
        return DensityMatrix(self.space, m, trace_tol=self.trace_tol, min_eig_tol=None)


@dataclass(frozen=True)
class EvolutionResult(_StateViews):
    """Time grid, read-only (T, d, d) states, per-saved-step diagnostics.

    ``method`` is the stepping path of :func:`evolve`, ``"dense"`` or
    ``"matrix_free"`` (comma-joined over the segments of
    :func:`evolve_piecewise`); None for results not made by stepping.
    """

    times: np.ndarray
    space: HilbertSpace
    rho: np.ndarray
    trace_drift: np.ndarray
    hermiticity_drift: np.ndarray
    trace_tol: float = TRACE_ABORT_TOL
    method: str | None = None

    def expectations(self, x: Operator) -> np.ndarray:
        return np.trace(self.rho @ x.mat, axis1=1, axis2=2)


def _rk4_step_matrix(liouv: np.ndarray, dt: float) -> np.ndarray:
    """One-step map of the classical 4th-order scheme for a linear ODE."""
    z = liouv * dt
    n = z.shape[0]
    out = np.eye(n, dtype=complex) + z
    acc = z
    for p in (2.0, 3.0, 4.0):
        acc = acc @ z / p
        out += acc
    return out


def _rk4_step(terms, m, dt: float):
    """One classical RK4 step of d m / dt = D(m) on the d x d matrix."""
    k1 = _dissipator_mat(terms, m)
    k2 = _dissipator_mat(terms, m + (0.5 * dt) * k1)
    k3 = _dissipator_mat(terms, m + (0.5 * dt) * k2)
    k4 = _dissipator_mat(terms, m + dt * k3)
    return m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _choose_method(d: int, n_steps: int, n_channels: int) -> str:
    """``"dense"`` or ``"matrix_free"`` for ``evolve``, by measured costs.

    For DENSE_ALWAYS_DIM < d < MATRIX_FREE_ALWAYS_DIM, dense when the
    step time it saves over the run exceeds the time to build its step map.
    """
    if d <= DENSE_ALWAYS_DIM:
        return "dense"
    if d >= MATRIX_FREE_ALWAYS_DIM:
        return "matrix_free"
    channel_s = MATRIX_FREE_CHANNEL_S + MATRIX_FREE_CHANNEL_S_PER_D3 * d**3
    saved_s = MATRIX_FREE_STEP_S + n_channels * channel_s - DENSE_STEP_S_PER_D4 * d**4
    return "dense" if n_steps * saved_s > DENSE_BUILD_S_PER_D6 * d**6 else "matrix_free"


def evolve(
    g: SLHTriple,
    rho0: DensityMatrix,
    t_end: float,
    dt: float,
    *,
    save_every: int = 1,
) -> EvolutionResult:
    """Integrate d rho / dt = D rho with fixed-step 4th-order stepping.

    The number of steps is round(t_end / dt) and the step is adjusted to
    hit t_end exactly.  The step is applied densely or matrix-free, as
    ``_choose_method`` picks (see the module docstring), and the result's
    ``method`` records which.  States are re-Hermitized each step; trace
    drift beyond ``TRACE_ABORT_TOL`` (or NaN) raises
    :class:`StepSizeError`.  Saved states go into ``rho``; the ``states``
    views are validated with the trace tolerance relaxed to the abort
    threshold, since the drift is a recorded diagnostic.
    """
    if not (math.isfinite(t_end) and math.isfinite(dt)):
        raise ValueError(f"t_end and dt must be finite, got t_end={t_end}, dt={dt}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if not math.isfinite(t_end / dt):
        raise ValueError(f"step count t_end / dt = {t_end / dt} is not finite")
    if rho0.space != g.space:
        raise ValueError("initial state lives on a different space than the model")
    n_steps = max(0, int(round(t_end / dt)))
    if t_end > 0 and n_steps == 0:
        n_steps = 1
    dt_eff = t_end / n_steps if n_steps else dt
    save_every = max(1, int(save_every))

    d = g.dim
    method = _choose_method(d, n_steps, g.n)
    if method == "dense":
        phi = _rk4_step_matrix(liouvillian_matrix(g), dt_eff)

        def step_map(m):
            return (phi @ m.reshape(-1, order="F")).reshape((d, d), order="F")

    else:
        terms = _dissipator_terms(g.H.mat, g.l)

        def step_map(m):
            return _rk4_step(terms, m, dt_eff)

    n_saved = 1 + -(-n_steps // save_every)
    times, tdrift, hdrift = np.zeros(n_saved), np.zeros(n_saved), np.zeros(n_saved)
    rho = np.empty((n_saved, d, d), dtype=complex)
    m = rho[0] = rho0.mat
    tdrift[0] = abs(np.trace(m).real - 1.0)
    j = 0

    for step in range(1, n_steps + 1):
        m = step_map(m)
        saved = step % save_every == 0 or step == n_steps
        if saved:
            h_defect = float(np.max(np.abs(m - m.conj().T)))
        m = 0.5 * (m + m.conj().T)
        drift = abs(float(np.trace(m).real) - 1.0)
        if not drift <= TRACE_ABORT_TOL:
            raise StepSizeError(
                f"trace drift {drift:.3e} at t={step * dt_eff:.6g} exceeds "
                f"{TRACE_ABORT_TOL:.1e}; reduce dt"
            )
        if saved:
            j += 1
            times[j], rho[j], tdrift[j], hdrift[j] = step * dt_eff, m, drift, h_defect

    rho.setflags(write=False)
    return EvolutionResult(times, g.space, rho, tdrift, hdrift, method=method)


def evolve_piecewise(segments, rho0: DensityMatrix, dt: float) -> EvolutionResult:
    """Evolve under a piecewise-constant schedule of models.

    ``segments`` is a sequence of (SLHTriple, duration) pairs; the
    generator is re-assembled at segment boundaries.  Covers
    piecewise-constant drives, for which the triple is re-built per
    segment.  ``method`` joins the segments' distinct methods, in order of
    first use, with ``,``.
    """
    times = [np.array([0.0])]
    rho = [rho0.mat[None]]
    tdrift = [np.array([abs(np.trace(rho0.mat).real - 1.0)])]
    hdrift = [np.array([0.0])]
    state = rho0
    t0 = 0.0
    methods = []
    for g, duration in segments:
        res = evolve(g, state, duration, dt)
        if res.method not in methods:
            methods.append(res.method)
        times.append(res.times[1:] + t0)
        rho.append(res.rho[1:])
        tdrift.append(res.trace_drift[1:])
        hdrift.append(res.hermiticity_drift[1:])
        state = res.final
        t0 += duration
    rho = np.concatenate(rho)
    rho.setflags(write=False)
    return EvolutionResult(
        np.concatenate(times),
        rho0.space,
        rho,
        np.concatenate(tdrift),
        np.concatenate(hdrift),
        method=",".join(methods) or None,
    )


def ehrenfest_residual(
    g: SLHTriple, rho0: DensityMatrix, x: Operator, t_end: float, dt: float
) -> float:
    """Max deviation between d/dt tr(rho X) (central differences) and
    tr(rho LX) along the trajectory."""
    res = evolve(g, rho0, t_end, dt)
    lx = lindbladian(g, x)
    f = res.expectations(x)
    rhs = res.expectations(lx)
    if len(f) < 3:
        return 0.0
    h = res.times[1] - res.times[0]
    lhs = (f[2:] - f[:-2]) / (2.0 * h)
    return float(np.max(np.abs(lhs - rhs[1:-1])))


def trace_distance(a, b) -> float:
    """Half the sum of singular values of the difference."""
    am = a.mat if hasattr(a, "mat") else np.asarray(a)
    bm = b.mat if hasattr(b, "mat") else np.asarray(b)
    return 0.5 * float(np.sum(np.linalg.svd(am - bm, compute_uv=False)))


@dataclass(frozen=True)
class ConvergencePoint:
    k: float
    distance: float
    leaked_trace: float
    dt_full: float


def convergence_harness(
    family: ScaledSLHFamily,
    split: ZenoSplit,
    rho0_z: DensityMatrix,
    ks,
    t_end: float,
    dt: float,
    *,
    scaling_tol: float = SCALING_TOL,
    kernel_tol: float = KERNEL_TOL_SIGMA,
    decoupling_tol: float = DECOUPLING_TOL,
) -> list[ConvergencePoint]:
    """Distance between the compressed full-model state and the limit state.

    For each k the full model is integrated with step dt / max(1, k^2)
    (fast rates grow as k^2), the final state is compressed to the Zeno
    subspace, renormalized by its trace, and compared in trace distance
    to the limit-model state at t_end.  The k values are independent pure
    computations and may be evaluated concurrently by callers.  The
    tolerances are those of :func:`zeno_eliminate`.
    """
    if rho0_z.space != split.zeno_space:
        raise ValueError("initial state must live on the Zeno subspace")
    limit = zeno_eliminate(
        family, split, scaling_tol=scaling_tol, kernel_tol=kernel_tol, decoupling_tol=decoupling_tol
    )
    zeno_final = evolve(limit.zeno_triple, rho0_z, t_end, dt, save_every=10**9).rho[-1]

    vz = split.v_z.cols
    points = []
    for k in ks:
        k = float(k)
        g_full = instantiate(family, k)
        rho0_full = DensityMatrix(
            family.space, vz @ rho0_z.mat @ vz.conj().T, min_eig_tol=None
        )
        dt_k = dt / max(1.0, k * k)
        final = evolve(g_full, rho0_full, t_end, dt_k, save_every=10**9).rho[-1]
        comp = vz.conj().T @ final @ vz
        tr = float(np.trace(comp).real)
        leaked = 1.0 - tr
        comp = comp / tr
        points.append(
            ConvergencePoint(
                k=k,
                distance=trace_distance(comp, zeno_final),
                leaked_trace=leaked,
                dt_full=dt_k,
            )
        )
    return points
