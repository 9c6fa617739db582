"""Deterministic state evolution: dissipator, master equation, diagnostics.

The predual generator of an SLH model acts on density matrices as

    D rho = sum_i ( L_i rho L_i^H - 1/2 rho L_i^H L_i - 1/2 L_i^H L_i rho )
            + i [rho, H],

and the master equation is d rho / dt = D rho.  ``dissipator`` and the
conditioned steps of ``trajectories`` evaluate this form on a stack of
states in three GEMM calls (``_dissipator_mat``); a stacked call is one
GEMM per operand, of the lone operand's shape, never one wider operand
(see ``trajectories``).  Integration is classical fixed-step 4th order
(the one-step map is the degree-4 Taylor polynomial of the matrix
exponential of the vectorized generator); no adaptive stepping, so
order-of-accuracy tests and diagnostics are reproducible.
States are re-Hermitized each step; the trace is never renormalized,
trace drift is a monitored diagnostic with a hard abort threshold.

``evolve`` keeps the state as its column-stacked vector v = vec(rho)
for the whole run, in one stepping loop, through which
``evolve_piecewise`` steps its segments in turn.  It applies the
one-step map in one of two ways, chosen from d alone.  Up to
``DENSE_MAX_DIM`` it builds the dense d^2 x d^2 step map (d^6 work and
16 d^4 bytes per matrix) and steps as ``phi @ v`` (d^4 per step); above
it, each step views v as the d x d matrix, runs the four RK4 stages on
it and stacks the result back, with no d^2 x d^2 array.  There each
stage evaluates the dissipator in its effective-Hamiltonian form

    D rho = K rho + (K rho)^H + sum_i (L_i rho) L_i^H,
    K = -1/2 sum_i L_i^H L_i - i H,

with K formed once per call: 1 + 2n products of d x d matrices per stage
(d^3 each, against a d^2 copy), where the form above takes 2 + 4n.  It
equals D only on Hermitian matrices; the states stepped are Hermitian
(the initial state's Hermitian part is stepped, the same map since D
commutes with ^H) and the stage inputs are Hermitian to rounding.  Both
paths are the same RK4 map, so they differ by rounding only.  The
result records the path as ``method``.  Re-Hermitizing,
v = (w + conj(w[perm])) / 2 with ``perm`` the index of the transposed
entry, and the trace, the sum of v over the diagonal entries, are
elementwise the arithmetic of the same steps on the d x d matrix, so
stepping in vec space rounds exactly as that would.  Each step writes w
into a buffer made once per run (one gemv on the dense path), gathers
w[perm], and conjugates, adds and halves in place into the step's row:
the ufuncs of that expression on the same operands, so every entry
rounds as the expression rounds it.

The trace drift is checked once per block of steps, not after each
step.  A block runs up to the next saved step, and at most ``_BLOCK``
steps, a constant and not a setting.  One reduction over a strided view
of the block's diagonals gives every state's drift, each summed exactly
as the per-step sum (and ``np.trace``) sums it, so aborts (the step, the
drift and the message) and the saved ``trace_drift`` and
``hermiticity_drift`` are bit-identical to checking every step, and no
step past an abort leaks a warning.

The loop yields each saved row as soon as it is made (``_evolve``):
``evolve`` and ``evolve_piecewise`` collect the rows, and the ``evolve``
command writes them to its CSV as they come, holding no more than a
block of them.  Trajectory ensembles step in the same block loop
(``_block_loop``).  An :class:`EvolutionResult` holds the saved states as one
read-only array ``rho`` of shape (T, d, d).  ``states`` and ``final`` are
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
from functools import partial

import numpy as np

from .elimination import (
    DECOUPLING_TOL,
    KERNEL_TOL_SIGMA,
    SCALING_TOL,
    ScaledSLHFamily,
    instantiate,
    zeno_eliminate,
)
from .operators import HilbertSpace, Operator, ZenoSplit, _is_int
from .slh import SLHTriple, _adjoint, k_operator, lindbladian

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
# largest step count of ``_step_grid``: up to 2**53 every step index is exact
# as a float, so ``step * dt_eff`` (saved times, abort messages) is one rounding
# from the true time
MAX_STEPS = 2**53

# evolve's stepping path (see the module docstring): dense up to this
# dimension, whatever the step count and channel count, matrix-free above
# it.  The largest d at which the dense path, build included, was no slower
# over 1000 steps with 1, 2 and 4 channels, to within timing noise (numpy
# 2.4 on OpenBLAS, one thread, 2-core x86-64 host); it keeps every d <= 12
# dense, so the digested results there stay bit-identical to the dense map
DENSE_MAX_DIM = 19

# evolve checks the trace drift once per block of steps (see ``evolve``): a
# block ends at each saved step and after at most _BLOCK steps, and the
# states it makes, held to check them, take at most _BLOCK_BYTES
# (``_block_rows``), as each member's do in a trajectory ensemble's blocks.
# Constants, not settings: they change the cost of a run, never its result
_BLOCK = 256
_BLOCK_BYTES = 2**19


class StepSizeError(RuntimeError):
    """Trace drift exceeded the abort threshold; reduce the step size."""


def _purity(x):
    """tr rho^2 of each d x d state of the stack x."""
    return (x * x.swapaxes(-1, -2)).sum(axis=(-2, -1)).real


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

    def purity(self) -> float:
        return float(_purity(self.mat))


def maximally_mixed(space: HilbertSpace) -> DensityMatrix:
    return DensityMatrix(space, np.eye(space.dim, dtype=complex) / space.dim)


def basis_state_density(space: HilbertSpace, index: int) -> DensityMatrix:
    if not _is_int(index):
        raise ValueError(f"basis index must be an integer, got {index!r}")
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


def _dissipator_terms(h, ls, channel=None):
    """The operands of ``_dissipator_mat``, formed once per run: the left rows
    [H; L_1; ...; L_n; L_1^H L_1; ...; L_n^H L_n], (1 + 2n) d x d, the right
    operands [H, L_1^H L_1, ..., L_n^H L_n] and the adjoints [L_1^H, ...,
    L_n^H].  For a measured channel c, L_c + L_c^H ends the right operands
    and L_c^H the adjoints, which keep their transposed layout."""
    ldls = _adjoint(ls) @ ls
    rows = np.concatenate((h[None], ls, ldls)).reshape(-1, len(h))
    lc = ls[:0] if channel is None else ls[channel : channel + 1]
    rights = np.concatenate((h[None], ldls, lc + _adjoint(lc)))
    return rows, rights, _adjoint(np.concatenate((ls, lc)))


def _right(x, b):
    """x @ b_j for each operand b_j of the (p, d, d) stack b, as (p, M, d, d),
    one product of (M d, d) rows per operand: of the (M, d, d) stack x, or of
    slice j of the (p, M, d, d) stack x."""
    m, d = x.shape[-3], x.shape[-1]
    return np.matmul(x.reshape(x.shape[:-3] + (m * d, d)), b).reshape(len(b), m, d, d)


def _dissipator_mat(terms, x):
    """D(x) for an (M, d, d) stack, with the products it forms: [H x; L_1 x;
    ...; L_n^H L_n x] as (M, 1 + 2n, d, d), x times each right operand and
    (L_i x) L_i^H (then x L_c^H for a measured channel), each as (p, M, d, d).
    Three GEMM calls, each growing only its rows (see ``trajectories``)."""
    rows, rights, adjs = terms
    m, d = len(x), x.shape[-1]
    n = (len(rows) // d - 1) // 2
    left = (rows @ x).reshape(m, 1 + 2 * n, d, d)
    right = _right(x, rights)
    # the rows of L_1 x, ..., L_n x, then of x for a measured channel's L_c^H
    jumps = _right(np.concatenate((left[:, 1 : 1 + n].swapaxes(0, 1), x[None]))[: len(adjs)], adjs)
    out = 1j * (right[0] - left[:, 0])
    # the channels' terms added one by one, in a lone loop's order
    for term in jumps[:n] - 0.5 * (right[1 : 1 + n] + left[:, 1 + n :].swapaxes(0, 1)):
        out += term
    return out, left, right, jumps


def _k_form_terms(g: SLHTriple):
    """The rows [K; L_1; ...; L_n] and [L_1^H; ...; L_n^H], (n + 1) d x d and
    n d x d, with K = -1/2 sum_i L_i^H L_i - i H: formed once per run for
    ``_k_form_dissipator``."""
    n, d = g.n, g.dim
    kl = np.concatenate((k_operator(g).mat[None], g.l)).reshape((n + 1) * d, d)
    return kl, np.ascontiguousarray(_adjoint(g.l)).reshape(n * d, d)


def _k_form_dissipator(terms, rho):
    """D(rho) = K rho + (K rho)^H + sum_i (L_i rho) L_i^H, from ``_k_form_terms``.

    1 + 2n products of d x d matrices, in two calls, against 2 + 4n for
    ``_dissipator_mat``; equal to D(rho) only for a Hermitian ``rho``.
    """
    kl, lds = terms
    d = rho.shape[0]
    x = kl @ rho  # K rho over L_1 rho, ..., L_n rho
    kr = x[:d]
    # [L_1 rho, ..., L_n rho] side by side, times [L_1^H; ...; L_n^H]
    lr = x[d:].reshape(-1, d, d).transpose(1, 0, 2).reshape(d, lds.shape[0])
    out = lr @ lds
    out += kr
    out += kr.conj().T
    return out


def dissipator(g: SLHTriple, rho: DensityMatrix) -> Operator:
    """Predual generator applied to a state; the result is traceless."""
    if rho.space != g.space:
        raise ValueError("state lives on a different space than the model")
    out = _dissipator_mat(_dissipator_terms(g.H.mat, g.l), rho.mat[None])[0]
    return Operator(g.space, out[0])


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

    :func:`evolve` and :func:`evolve_piecewise` fill one in the same
    loop.  ``method`` is the stepping path, ``"dense"`` or
    ``"matrix_free"``, the same for every segment of a piecewise run;
    ``n_steps`` is the number of steps taken (summed over the segments)
    and ``dt_eff`` the step length, t_end / n_steps (dt without steps;
    None when the segments' steps differ).
    All three are None for results not made by stepping.
    """

    times: np.ndarray
    space: HilbertSpace
    rho: np.ndarray
    trace_drift: np.ndarray
    hermiticity_drift: np.ndarray
    trace_tol: float = TRACE_ABORT_TOL
    method: str | None = None
    n_steps: int | None = None
    dt_eff: float | None = None

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
    """One classical RK4 step of d m / dt = D(m) on the Hermitian d x d
    matrix m, with D in the K form (``terms`` from ``_k_form_terms``)."""
    k1 = _k_form_dissipator(terms, m)
    k2 = _k_form_dissipator(terms, m + (0.5 * dt) * k1)
    k3 = _k_form_dissipator(terms, m + (0.5 * dt) * k2)
    k4 = _k_form_dissipator(terms, m + dt * k3)
    return m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _run_steps(step_map, perm, v, rows, w):
    """Step the column-stacked state v once per row, ``step_map(v, w)``
    writing each result into the buffer w, which is re-Hermitized into its
    row; returns the conjugate transpose wh of the last result, which w
    keeps, in vec form.  Each entry rounds as ``0.5 * (w + conj(w[perm]))``."""
    # at small d a step costs its calls: the ufuncs are bound once and take
    # their outputs by position
    half, conj, add, mul = np.complex128(0.5), np.conjugate, np.add, np.multiply
    for row in rows:
        step_map(v, w)
        wh = w[perm]
        conj(wh, wh)
        add(w, wh, row)
        mul(half, row, row)
        v = row
    return wh


def _trace_drift(x, d: int):
    """|Re tr - 1| of one column-stacked d x d state, or of each row of a
    stack of them.  The sum runs over a strided view of the diagonal,
    which numpy reduces in the same order as ``np.trace``; a reduction
    over a gathered copy of the diagonals can round differently."""
    return np.abs(np.add.reduce(x[..., :: d + 1], axis=-1).real - 1.0)


def _choose_method(d: int) -> str:
    """``"dense"`` or ``"matrix_free"`` for ``evolve`` at dimension d."""
    return "dense" if d <= DENSE_MAX_DIM else "matrix_free"


def _step_grid(t_end: float, dt: float):
    """(n_steps, dt_eff): round(t_end / dt) steps, at least one when t_end > 0,
    of t_end / n_steps (dt without steps); at most ``MAX_STEPS``, else ValueError."""
    if not (math.isfinite(t_end) and math.isfinite(dt)):
        raise ValueError(f"t_end and dt must be finite, got t_end={t_end}, dt={dt}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if not math.isfinite(t_end / dt):
        raise ValueError(f"step count t_end / dt = {t_end / dt} is not finite")
    n_steps = max(0, int(round(t_end / dt)))
    if t_end > 0 and n_steps == 0:
        n_steps = 1
    if n_steps > MAX_STEPS:
        raise ValueError(f"step count {n_steps} exceeds 2**53; increase dt")
    return n_steps, t_end / n_steps if n_steps else dt


def _evolve(segments, rho0: DensityMatrix, save_every: int):
    """Step each (model, duration, ``_step_grid`` pair) of ``segments`` in
    turn, from rho0 and then from the state the one before it ends in, in
    one block loop; the rows each segment saves follow those before them.

    Returns ``(rows, n_saved, fields)``.  ``rows`` yields each saved row as
    (time, d x d state, trace drift, hermiticity drift) once it is made, and
    steps only as it is read; the state is a view into the loop's buffers,
    which the rows after it overwrite.  ``n_saved`` counts the rows, and
    ``fields`` holds the run's ``method``, ``n_steps`` and ``dt_eff``.
    """
    if any(g.space != rho0.space for g, _, _ in segments):
        raise ValueError("initial state lives on a different space than the model")
    save_every = max(1, int(save_every))
    counts = [n_steps for _, _, (n_steps, _) in segments]
    dts = {dt_eff for _, _, (_, dt_eff) in segments}
    fields = {
        "method": _choose_method(rho0.space.dim) if segments else None,
        "n_steps": sum(counts) if segments else None,
        "dt_eff": dts.pop() if len(dts) == 1 else None,
    }
    n_saved = 1 + sum(-(-n // save_every) for n in counts)
    return _saved_rows(segments, rho0, save_every, fields["method"]), n_saved, fields


def _block_rows(row_bytes: int, *limits) -> int:
    """Steps in a block whose states take ``row_bytes`` each: ``_BLOCK``, and
    no more than fit in ``_BLOCK_BYTES`` or than any of ``limits``, but at
    least one."""
    return max(1, min(_BLOCK, _BLOCK_BYTES // row_bytes, *limits))


def _block_loop(run, check, states, n_steps: int, save_every: int = MAX_STEPS):
    """Take n_steps steps in blocks of at most len(states) - 1, each ending at
    a multiple of save_every, and yield (steps before the block, its length
    n) once it has run and passed, then copy ``states[n]`` into ``states[0]``,
    where the next block starts.  ``run(i, j)`` takes the block's steps i ..
    j - 1, from ``states[i]`` into ``states[i + 1 : j + 1]``, and ``check(step,
    i, j)`` checks those states, raising for the first that fails.
    Floating-point errors that the caller does not ignore stop a block, which
    is then replayed one checked step at a time under the caller's handling:
    warnings, errors and aborts are then those of checking every step, and no
    step past an abort runs."""
    trap = {k: "ignore" if s == "ignore" else "raise" for k, s in np.geterr().items()}
    step = 0
    while step < n_steps:
        n = min(len(states) - 1, n_steps - step, save_every - step % save_every)
        whole = n > 1  # a lone step is checked as it would be alone
        if whole:
            try:
                with np.errstate(**trap):
                    run(0, n)
                    check(step, 0, n)
            except FloatingPointError:
                whole = False
        if not whole:
            for i in range(n):
                run(i, i + 1)
                check(step, i, i + 1)
        yield step, n
        states[0] = states[n]
        step += n


def _saved_rows(segments, rho0: DensityMatrix, save_every: int, method):
    """The rows of ``_evolve``, made in ``_block_loop``."""
    d = rho0.space.dim
    # in the column-stacked vec, entry (i, j) sits at i + j d: ``perm``
    # takes each entry to its transposed one
    idx = np.arange(d * d)
    perm = idx // d + (idx % d) * d
    longest = max((n_steps for _, _, (n_steps, _) in segments), default=0)
    states = np.empty((_block_rows(16 * d * d, longest, save_every) + 1, d * d), dtype=complex)
    states[0] = rho0.mat.reshape(-1, order="F")
    yield 0.0, rho0.mat, _trace_drift(states[0], d), 0.0

    # the last step's result and its conjugate transpose, and the last drift
    t0, w, wh, drift = 0.0, np.empty(d * d, dtype=complex), None, None
    for g, duration, (n_steps, dt_eff) in segments:
        if method == "dense":
            step_map = partial(np.matmul, _rk4_step_matrix(liouvillian_matrix(g), dt_eff))
        else:
            terms = _k_form_terms(g)

            def step_map(v, out):
                # d x d states are C-ordered everywhere else; a copy in that
                # layout (d^2, against d^3 per product) keeps BLAS rounding
                # the products as it does there
                m = np.ascontiguousarray(v.reshape((d, d), order="F"))
                out.reshape((d, d), order="F")[...] = _rk4_step(terms, m, dt_eff)

            # the K form needs a Hermitian state; D commutes with ^H, so
            # stepping the Hermitian part of the start state is the same map
            # (the dense path drops the anti-Hermitian part when it
            # re-Hermitizes)
            states[0] = 0.5 * (states[0] + states[0][perm].conj())

        def run(i, j):
            nonlocal wh
            wh = _run_steps(step_map, perm, states[i], states[i + 1 : j + 1], w)

        def check(step, i, j):
            nonlocal drift
            drifts = _trace_drift(states[i + 1 : j + 1], d)
            ok = drifts <= TRACE_ABORT_TOL  # a NaN fails
            if not ok.all():
                k = int(np.argmin(ok))
                raise StepSizeError(
                    f"trace drift {drifts[k]:.3e} at t={(step + 1 + i + k) * dt_eff:.6g} "
                    f"exceeds {TRACE_ABORT_TOL:.1e}; reduce dt"
                )
            drift = drifts[-1]

        for step, n in _block_loop(run, check, states, n_steps, save_every):
            step += n
            if step % save_every == 0 or step == n_steps:
                herm = np.max(np.abs(w - wh))
                yield step * dt_eff + t0, states[n].reshape((d, d), order="F"), drift, herm
        t0 += duration


def _result(segments, rho0: DensityMatrix, save_every: int) -> EvolutionResult:
    """The rows of ``_evolve``, collected into an :class:`EvolutionResult`."""
    rows, n_saved, fields = _evolve(segments, rho0, save_every)
    d = rho0.space.dim
    times, tdrift, hdrift = np.zeros(n_saved), np.zeros(n_saved), np.zeros(n_saved)
    rho = np.empty((n_saved, d, d), dtype=complex)
    for j, (t, state, drift, herm) in enumerate(rows):
        times[j], rho[j], tdrift[j], hdrift[j] = t, state, drift, herm
    rho.setflags(write=False)
    return EvolutionResult(times, rho0.space, rho, tdrift, hdrift, **fields)


def evolve(
    g: SLHTriple,
    rho0: DensityMatrix,
    t_end: float,
    dt: float,
    *,
    save_every: int = 1,
) -> EvolutionResult:
    """Integrate d rho / dt = D rho with fixed-step 4th-order stepping.

    The steps are those of ``_step_grid``: n_steps of dt_eff = t_end /
    n_steps, the saved times being step * dt_eff, so the last one is
    t_end to within one rounding (it can differ from t_end in the last
    bit).  The step is applied densely or matrix-free, as ``_choose_method``
    picks (see the module docstring), and the result's ``method`` records
    which.  States are re-Hermitized each step; trace drift beyond
    ``TRACE_ABORT_TOL`` (or NaN) raises :class:`StepSizeError`, naming the
    first step that drifted.  Every ``save_every``-th state and the final
    one go into ``rho``, after the initial one; ``save_every=MAX_STEPS``
    keeps the initial and final states only, whatever the step count.  The
    ``states`` views are validated with the trace tolerance relaxed to the
    abort threshold, since the drift is a recorded diagnostic.  The result
    records the step count ``n_steps`` and the step ``dt_eff``.

    The drift is checked once per block of steps, in one exact reduction
    (see the module docstring); a block holds at most ``_BLOCK_BYTES`` of
    states, so it is shorter than ``_BLOCK`` at large d.  Floating-point
    errors that the caller's ``np.errstate`` does not ignore stop a block,
    which is then replayed one checked step at a time under the caller's
    handling, so the warnings and errors before an abort are also those of
    checking every step.
    """
    return _result([(g, t_end, _step_grid(t_end, dt))], rho0, save_every)


def evolve_piecewise(segments, rho0: DensityMatrix, dt: float) -> EvolutionResult:
    """Evolve under a piecewise-constant schedule of models.

    ``segments`` is a sequence of (SLHTriple, duration) pairs; the
    generator is re-assembled at segment boundaries.  Covers
    piecewise-constant drives, for which the triple is re-built per
    segment.  Each segment steps in :func:`evolve`'s loop, as ``evolve``
    would from the state the one before ends in (an abort names the time
    within its segment); every state is saved, and every duration is
    checked before the first step.  The segments share one space, so one
    ``method`` covers them all (None without segments).
    """
    return _result([(g, duration, _step_grid(duration, dt)) for g, duration in segments], rho0, 1)


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
    """One k of :func:`convergence_harness`; ``n_steps`` is the number of
    full-model steps of size ``dt_full`` and ``method`` their stepping
    path, as :func:`evolve` records them."""

    k: float
    distance: float
    leaked_trace: float
    dt_full: float
    n_steps: int | None = None
    method: str | None = None


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
    tolerances are those of :func:`zeno_eliminate`.  Every k's step grid is
    checked before the first step.
    """
    if rho0_z.space != split.zeno_space:
        raise ValueError("initial state must live on the Zeno subspace")
    runs = [(k, dt / max(1.0, k * k)) for k in map(float, ks)]
    for _, dt_k in runs:
        _step_grid(t_end, dt_k)
    limit = zeno_eliminate(
        family, split, scaling_tol=scaling_tol, kernel_tol=kernel_tol, decoupling_tol=decoupling_tol
    )
    zeno_final = evolve(limit.zeno_triple, rho0_z, t_end, dt, save_every=MAX_STEPS).rho[-1]

    vz = split.v_z.cols
    rho0_full = DensityMatrix(family.space, vz @ rho0_z.mat @ vz.conj().T, min_eig_tol=None)
    points = []
    for k, dt_k in runs:
        g_full = instantiate(family, k)
        res = evolve(g_full, rho0_full, t_end, dt_k, save_every=MAX_STEPS)
        comp = vz.conj().T @ res.rho[-1] @ vz
        tr = float(np.trace(comp).real)
        leaked = 1.0 - tr
        comp = comp / tr
        points.append(
            ConvergencePoint(
                k=k,
                distance=trace_distance(comp, zeno_final),
                leaked_trace=leaked,
                dt_full=dt_k,
                n_steps=res.n_steps,
                method=res.method,
            )
        )
    return points
