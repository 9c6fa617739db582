"""Deterministic state evolution: dissipator, master equation, diagnostics.

The predual generator of an SLH model acts on density matrices as

    D rho = sum_i ( L_i rho L_i^H - 1/2 rho L_i^H L_i - 1/2 L_i^H L_i rho )
            + i [rho, H],

and the master equation is d rho / dt = D rho.  ``dissipator`` and the
conditioned steps of ``trajectories`` evaluate this form on a stack of
states in three GEMM calls (``_dissipator``); a stacked call is one
GEMM per operand, of the lone operand's shape, never one wider operand
(see ``trajectories``).  Integration is classical fixed-step 4th order
(the one-step map is the degree-4 Taylor polynomial of the matrix
exponential of the vectorized generator); no adaptive stepping, so
order-of-accuracy tests and diagnostics are reproducible.
States are re-Hermitized each step; the trace is never renormalized,
trace drift is a monitored diagnostic with a hard abort threshold.

``evolve`` keeps the state as one flat vector of d^2 entries for the
whole run, in one stepping loop, through which ``evolve_piecewise``
steps its segments in turn.  It applies the one-step map in one of
three ways (``_method``).  Up to ``DENSE_MAX_DIM`` it builds the dense
d^2 x d^2 step map (d^6 work and 16 d^4 bytes per matrix) and steps the
column-stacked vector v = vec(rho) as ``phi @ v`` (d^4 per step); above
it, the vector holds rho in C order, and each step runs the four RK4
stages on its view as the d x d matrix (``_rk4_step``), writing the
result into the view of the next one, with no d^2 x d^2 array and no
copy.  There each stage evaluates the dissipator in its
effective-Hamiltonian form

    D rho = K rho + (K rho)^H + sum_i (L_i rho) L_i^H,
    K = -1/2 sum_i L_i^H L_i - i H,

with K formed once per run, in one of two K forms, each a class holding
its operands, its buffers and the stages, with one method ``apply(x,
out)``.  The GEMM form (``"matrix_free"``, :class:`_Gemm`) takes 1 + 2n
products of d x d matrices per stage (d^3 each, against a d^2 copy),
where the form above takes 2 + 4n.  The banded form (``"banded"``,
:class:`_Banded`) stores K by its nonzero diagonals and folds the
channel sum into one elementwise product per pair (o, p) of one
channel's diagonal offsets, so a stage is a handful of d^2 products on
shifted slices, with no BLAS call and no cost per channel.  The
operators of ladder-built models (driven cavities, Lambda systems, spins
coupled to a mode) have few diagonals, and the banded form runs when the
one rule of ``_method`` on the models' diagonals finds it cheaper; else
the GEMM form runs.  The K form equals D only on Hermitian matrices; the
states stepped are Hermitian (the initial state's Hermitian part is
stepped, the same map since D commutes with ^H) and the stage inputs are
Hermitian to rounding.  All three paths are the same RK4 map, so they
differ by rounding only.  The result records the path as ``method``.
Re-Hermitizing, v = (w + conj(w[perm])) / 2 with ``perm`` the index of
the transposed entry, which is the same index in column-stacked and in C
order, and the trace, the sum of v over the diagonal entries (every
(d + 1)-th in either order), are elementwise the arithmetic of the same
steps on the d x d matrix, so stepping the flat vector rounds exactly as
that would.  Each step writes w into a buffer made once per run (one
gemv on the dense path, through ``ndarray.dot``, which reaches the same
BLAS call as ``np.matmul`` at less cost per call), gathers w[perm], and
conjugates, adds and halves in place into the step's row: the ufuncs of
that expression on the same operands, so every entry rounds as the
expression rounds it.  The ½ is not folded into the step map: halving w
before the sum rounds twice where an entry falls below the smallest
normal float, as the high levels of a driven cavity and long decays do.

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
k^2.  The full-model runs, one per k, are split into W bins by longest
processing time on their step counts; the caller steps the limit model
and the lightest bin, and each other bin runs in a child made with
``os.fork``, which sends its final states back through a pipe.  Each run
picks its own path (``_method``) and is the same arithmetic in whichever
process steps it, so the points do not depend on W.  W is the largest
number, at most min(usable CPUs, runs), for which every forked bin takes
``_FORK_MIN_STEPS`` steps' worth of work at d = 6, counting a step as d^2
but never less than a step at d = 6, whose cost is its numpy calls (4096
steps up to d = 6, 7 at d = 150).  The harness forks only when the
process runs one thread, BLAS's threads counted (``_one_thread``).
OpenBLAS starts its pool at import, so a process that may fork runs one
BLAS thread (``OPENBLAS_NUM_THREADS=1``), and so does each child, on any
path.  A BLAS that starts its threads at its first product instead (an
OpenMP build, or OpenBLAS once this process has forked, which stops its
pool) is not yet running them when the harness counts, so pin it too
(``OMP_NUM_THREADS=1``), or forked GEMM-form runs oversubscribe the CPUs.
The bins' children and the CSV writers' formatter child (``outputs``)
are forked, signalled and reaped by the same code (``_workers``,
``_fork``).
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field
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
from .linear import _usable_cpus
from .operators import HilbertSpace, Operator, ZenoSplit, _is_int
from .slh import SLHTriple, _adjoint, k_operator, lindbladian

__all__ = [
    "DensityMatrix",
    "EvolutionResult",
    "ConvergencePoint",
    "StepSizeError",
    "WorkerError",
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

# above DENSE_MAX_DIM a run steps by diagonals (``_Banded``) when (1 + 2n) d,
# the d x d products per stage of the GEMM K form times d, is at least this
# many times the elementwise products per stage, K's diagonals plus the
# channels' pairs (``_method``).  Fitted on a sweep of step times over both
# forms (CHANGES.md).  A constant, not a setting: it changes the cost of a
# run and its rounding, never more
_BANDED_RATIO = 14

# evolve checks the trace drift once per block of steps (see ``evolve``): a
# block ends at each saved step and after at most _BLOCK steps, and the
# states it makes, held to check them, take at most _BLOCK_BYTES
# (``_block_rows``), as each member's do in a trajectory ensemble's blocks.
# Constants, not settings: they change the cost of a run, never its result
_BLOCK = 256
_BLOCK_BYTES = 2**19

# convergence_harness forks a bin of its runs only when each forked bin
# takes at least this many steps' worth of work at d = 6, a step counted as
# d^2 but never less than a d = 6 step (``_plan``): a fork and the
# collection of its result took 2.0-3.2 ms with numpy loaded, about 1300
# steps at d = 6 (2.0-2.4 us a step; numpy 2.4, 2-core x86-64 host), so a
# forked bin saves about three times what it costs, and a bin of 15 000
# steps ten times.  At d = 150 the bound is 7 banded steps, about 7 ms.
# A constant, not a setting: it changes the cost of a run, never its result
_FORK_MIN_STEPS = 4096


class StepSizeError(RuntimeError):
    """Trace drift exceeded the abort threshold; reduce the step size."""


class WorkerError(ChildProcessError):
    """A forked worker ended without sending its result (killed, say, or out
    of memory): a bin of :func:`convergence_harness`, or the CSV writers'
    formatter (``outputs``).  The message names which."""


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
    """The operands of ``_dissipator``, formed once per run: the left rows
    [H; L_1; ...; L_n; L_1^H L_1; ...; L_n^H L_n], (1 + 2n) d x d, the right
    operands [H, L_1^H L_1, ..., L_n^H L_n] and the adjoints [L_1^H, ...,
    L_n^H].  For a measured channel c, L_c + L_c^H ends the right operands
    and L_c^H the adjoints, which keep their transposed layout."""
    ldls = _adjoint(ls) @ ls
    rows = np.concatenate((h[None], ls, ldls)).reshape(-1, len(h))
    lc = ls[:0] if channel is None else ls[channel : channel + 1]
    rights = np.concatenate((h[None], ldls, lc + _adjoint(lc)))
    return rows, rights, _adjoint(np.concatenate((ls, lc)))


def _right(x, b, out=None):
    """x @ b_j for each operand b_j of the (p, d, d) stack b, as (p, M, d, d),
    one product of (M d, d) rows per operand: of the (M, d, d) stack x, or of
    slice j of the (p, M, d, d) stack x; into ``out``, (p, M d, d), if given."""
    m, d = x.shape[-3], x.shape[-1]
    return np.matmul(x.reshape(x.shape[:-3] + (m * d, d)), b, out=out).reshape(len(b), m, d, d)


def _dissipator_space(terms, m: int):
    """Buffers of ``_dissipator`` for up to m members: the left products
    (m, (1 + 2n) d, d), the right products (p, m d, d), the jump operands
    and the jumps (q, m d, d) each, D(x) (m, d, d) and the channels' terms
    (n, m, d, d), for p right operands and q adjoints."""
    rows, rights, adjs = terms
    d = rows.shape[1]
    n = (len(rows) // d - 1) // 2
    shapes = [(m, len(rows), d), (len(rights), m * d, d), (len(adjs), m * d, d),
              (len(adjs), m * d, d), (m, d, d), (n, m, d, d)]
    return [np.empty(s, dtype=complex) for s in shapes]


def _dissipator(terms, space, k: int):
    """D(x) for (k, d, d) stacks x on the first k members of ``space``'s
    buffers (``_dissipator_space``): ``(dissipate, products)``, where
    ``dissipate(x)`` writes D(x) and the products it forms into the views
    ``products``, formed once: D(x) (k, d, d), [H x; L_1 x; ...; L_n^H L_n
    x] as (k, 1 + 2n, d, d), and x times each right operand and (L_i x)
    L_i^H (then x L_c^H for a measured channel), each as (p, k, d, d).
    Three GEMM calls, each growing only its rows (see ``trajectories``)."""
    rows, rights, adjs = terms
    d = rows.shape[1]
    n = (len(rows) // d - 1) // 2
    left_rows, right_rows, ops_rows, jumps_rows, out, tmp = space
    left_rows, out, tmp = left_rows[:k], out[:k], tmp[:, :k]
    kd = k * d
    right_rows, ops_rows, jumps_rows = right_rows[:, :kd], ops_rows[:, :kd], jumps_rows[:, :kd]
    left = left_rows.reshape(k, 1 + 2 * n, d, d)
    right = right_rows.reshape(len(rights), k, d, d)
    ops, jumps = ops_rows.reshape(len(adjs), k, d, d), jumps_rows.reshape(len(adjs), k, d, d)
    # the jump operands: the rows of L_1 x, ..., L_n x, then of x for a
    # measured channel's L_c^H
    l_ops, x_ops, lx = ops[:n], ops[n:], left[:, 1 : 1 + n].swapaxes(0, 1)
    # i (x H - H x), then L_i x L_i^H - 1/2 (x L_i^H L_i + L_i^H L_i x) for
    # each channel
    hx, xh, ljl = left[:, 0], right[0], jumps[:n]
    ldlx, xldl = left[:, 1 + n :].swapaxes(0, 1), right[1 : 1 + n]
    matmul, copyto, add, subtract, multiply = np.matmul, np.copyto, np.add, np.subtract, np.multiply
    # a Python scalar would be converted to this same complex128 on each call
    i, half = np.complex128(1j), np.complex128(0.5)

    def dissipate(x):
        matmul(rows, x, out=left_rows)
        _right(x, rights, right_rows)
        copyto(l_ops, lx)
        if len(x_ops):
            copyto(x_ops[0], x)
        _right(ops, adjs, jumps_rows)
        multiply(i, subtract(xh, hx, out=out), out=out)
        subtract(ljl, multiply(half, add(xldl, ldlx, out=tmp), out=tmp), out=tmp)
        # the channels' terms added one by one, in a lone loop's order
        for term in tmp:
            add(out, term, out=out)

    return dissipate, (out, left, right, jumps)


class _Gemm:
    """The K form of D in d x d products (``"matrix_free"``, see the module
    docstring): the rows [K; L_1; ...; L_n] and [L_1^H; ...; L_n^H], (n + 1)
    d x d and n d x d, with K = -1/2 sum_i L_i^H L_i - i H, formed once per
    run with the buffers of ``apply`` and the stages of ``_rk4_step``.
    ValueError naming K if it overflows."""

    def __init__(self, g: SLHTriple):
        n, d = g.n, g.dim
        self.kl = np.concatenate((k_operator(g).mat[None], g.l)).reshape((n + 1) * d, d)
        self.lds = np.ascontiguousarray(_adjoint(g.l)).reshape(n * d, d)
        self.kx = np.empty(((n + 1) * d, d), dtype=complex)
        self.lx = np.empty((d, n * d), dtype=complex)
        # the stage outputs and input of ``_rk4_step``
        self.stages = np.empty((5, d, d), dtype=complex)

    def apply(self, x, out):
        """D(x) into ``out``, a C-contiguous d x d array; returns ``out``.
        1 + 2n products of d x d matrices, in two calls, against 2 + 4n for
        ``_dissipator``; equal to D(x) only for a Hermitian x."""
        d = len(out)
        kx = np.matmul(self.kl, x, out=self.kx)  # K x over L_1 x, ..., L_n x
        # [L_1 x, ..., L_n x] side by side, times [L_1^H; ...; L_n^H]
        np.copyto(self.lx.reshape(d, -1, d), kx[d:].reshape(-1, d, d).swapaxes(0, 1))
        np.matmul(self.lx, self.lds, out=out)
        np.add(out, kx[:d], out=out)
        return np.add(out, kx[:d].conj().T, out=out)


def _diagonals(m) -> list:
    """The offsets c - r of the diagonals of the d x d array m that hold a
    nonzero entry, ascending."""
    r, c = np.nonzero(m)
    return np.unique(c - r).tolist()


def _diagonal(m, o: int):
    """Diagonal o of the d x d array m as a length-d vector: entry r is
    m[r, r + o], 0 where r + o falls outside."""
    v = np.zeros(len(m), dtype=complex)
    v[max(0, -o) : len(m) - max(0, o)] = np.diagonal(m, o)
    return v


def _structure(h, l):
    """(n, K diagonals, pairs) of a model whose Hamiltonian and n couplings
    have their nonzero entries where the masks h (d, d) and l (n, d, d) do:
    the pairs (o, p) of diagonal offsets of one L_i, and the diagonals that
    K = -1/2 sum_i L_i^H L_i - i H can have, those of H and each p - o.
    ``_evolve`` takes it of each segment's model for ``_method``."""
    pairs = {(o, p) for li in l for offs in (_diagonals(li),) for o in offs for p in offs}
    return len(l), set(_diagonals(h)) | {p - o for o, p in pairs}, pairs


class _Banded:
    """The K form of D by diagonals, for d x d states x (see the module
    docstring): X = K x is a sum over the diagonals o of K of elementwise
    products K_o * x shifted by (o, 0), and the channel sum one product
    W_op * x shifted by (o, p) per pair of ``_structure``, with W_op[r, c]
    = sum_i L_i[r, r + o] conj(L_i[c, c + p]); D x = X + X^H + those.
    In the flat (C-order) state a shift (a, b) is one of a d + b entries,
    and W is 0 wherever the shifted index leaves its row or column, so each
    product is one contiguous slice of the flat arrays.  Weights and
    buffers are made once: a stage calls no BLAS, and costs nothing per
    channel.  ValueError naming K if it overflows."""

    def __init__(self, g: SLHTriple):
        d = g.dim
        kmat = k_operator(g).mat
        self.k = [
            self._term(np.repeat(_diagonal(kmat, o), d), o * d)
            for o in [0, *(o for o in _diagonals(kmat) if o != 0)]
        ]
        weights = {}
        for li in g.l:
            diags = {o: _diagonal(li, o) for o in _diagonals(li)}
            for o, vo in diags.items():
                for p, vp in diags.items():
                    weights[o, p] = weights.get((o, p), 0) + np.multiply.outer(vo, vp.conj())
        self.j = [self._term(w.reshape(-1), o * d + p) for (o, p), w in weights.items()]
        self.kx, self.tmp = np.empty((2, d * d), dtype=complex)
        # the stage outputs and input of ``_rk4_step``
        self.stages = np.empty((5, d, d), dtype=complex)

    @staticmethod
    def _term(w, s: int):
        """(s, lo, hi, weight): the product of the flat weight w, over lo ..
        hi - 1, with the flat state shifted by s."""
        lo, hi = max(0, -s), len(w) - max(0, s)
        return s, lo, hi, np.ascontiguousarray(w[lo:hi])

    def apply(self, x, out):
        """D(x) into ``out``, a C-contiguous d x d array; returns ``out``."""
        xf, kx = x.reshape(-1), self.kx
        (_, _, _, w0), *shifted = self.k
        np.multiply(w0, xf, out=kx)
        self._add(kx, shifted, xf)
        d = len(out)
        np.conjugate(kx.reshape(d, d).T, out=out)
        np.add(out, kx.reshape(d, d), out=out)
        self._add(out.reshape(-1), self.j, xf)
        return out

    def _add(self, acc, terms, xf):
        """Add each product of ``terms`` with the flat state xf into the flat
        array acc."""
        for s, lo, hi, w in terms:
            dst, tmp = acc[lo:hi], self.tmp[: hi - lo]
            np.add(dst, np.multiply(w, xf[lo + s : hi + s], out=tmp), out=dst)


def dissipator(g: SLHTriple, rho: DensityMatrix) -> Operator:
    """Predual generator applied to a state; the result is traceless."""
    if rho.space != g.space:
        raise ValueError("state lives on a different space than the model")
    terms = _dissipator_terms(g.H.mat, g.l)
    dissipate, (out, *_) = _dissipator(terms, _dissipator_space(terms, 1), 1)
    dissipate(rho.mat[None])
    return Operator(g.space, out[0])


def liouvillian_matrix(g: SLHTriple) -> np.ndarray:
    """Dense matrix of the predual generator in column-stacking convention.

    vec(rho) is column-major, so vec(A rho B) = (B^T kron A) vec(rho).
    ValueError naming the first channel whose L^H L overflows.
    """
    d = g.dim
    eye = np.eye(d, dtype=complex)
    h = g.H.mat
    out = 1j * (np.kron(h.T, eye) - np.kron(eye, h))
    for i, lm in enumerate(g.l):
        with np.errstate(over="ignore", invalid="ignore"):
            ldl = lm.conj().T @ lm
        # no step size helps a generator that is not finite
        if not np.isfinite(ldl).all():
            raise ValueError(f"channel {i}: L^H L is not finite")
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
    loop.  ``method`` is the stepping path, ``"dense"``,
    ``"matrix_free"`` or ``"banded"``, the same for every segment of a
    piecewise run; ``n_steps`` is the number of steps taken (summed over
    the segments) and ``dt_eff`` the step length, t_end / n_steps (dt
    without steps; None when the segments' steps differ).
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


def _rk4_step(terms, m, dt: float, out):
    """One classical RK4 step of d m / dt = D(m) on the Hermitian d x d
    matrix m into ``out``, with D in a K form (``terms``, a :class:`_Gemm`
    or a :class:`_Banded`); returns ``out``.  m and ``out`` are C-ordered,
    as the stages are, which go into the terms' buffers that the next step
    overwrites; each entry rounds as m + (dt / 6) (k1 + 2 k2 + 2 k3 + k4)
    with stage inputs m + (dt / 2) k1, m + (dt / 2) k2 and m + dt k3."""
    k1, k2, k3, k4, x = terms.stages
    mul, add, apply = np.multiply, np.add, terms.apply
    apply(m, k1)
    apply(add(m, mul(0.5 * dt, k1, out=x), out=x), k2)
    apply(add(m, mul(0.5 * dt, k2, out=x), out=x), k3)
    apply(add(m, mul(dt, k3, out=x), out=x), k4)
    add(k1, mul(2.0, k2, out=k2), out=k1)
    add(k1, mul(2.0, k3, out=k3), out=k1)
    add(k1, k4, out=k1)
    return add(m, mul(dt / 6.0, k1, out=k1), out=out)


def _run_steps(step_map, perm, v, rows, w):
    """Step the flat state v once per row, ``step_map(v, w)`` writing each
    result into the buffer w, which is re-Hermitized into its row; returns
    the conjugate transpose wh of the last result, which w keeps, flat in
    the same order.  Each entry rounds as ``0.5 * (w + conj(w[perm]))``."""
    # at small d a step costs its calls: the ufuncs are bound once and take
    # their outputs by position, and the ½ is a 0-d array, which a ufunc
    # takes without the conversion a scalar costs at every call
    half, conj, add, mul = np.array(0.5 + 0j), np.conjugate, np.add, np.multiply
    for row in rows:
        step_map(v, w)
        wh = w[perm]
        conj(wh, wh)
        add(w, wh, row)
        mul(half, row, row)
        v = row
    return wh


def _trace_drift(x, d: int):
    """|Re tr - 1| of one flat d x d state, column-stacked or C-ordered, or
    of each row of a stack of them.  The sum runs over a strided view of the diagonal,
    which numpy reduces in the same order as ``np.trace``; a reduction
    over a gathered copy of the diagonals can round differently."""
    return np.abs(np.add.reduce(x[..., :: d + 1], axis=-1).real - 1.0)


def _method(d: int, structures) -> str:
    """The stepping path of a run at dimension d whose models have the
    ``_structure``s of the iterable given (a piecewise run's segments),
    which is read only above ``DENSE_MAX_DIM``: ``"dense"`` up to it, and
    above it ``"banded"`` when (1 + 2n) d >= ``_BANDED_RATIO`` (K diagonals
    + pairs), counted over the union of the structures (n the most channels
    of any), else ``"matrix_free"``.  The one rule of every run's path, so
    a test forces a path by patching this function."""
    if d <= DENSE_MAX_DIM:
        return "dense"
    structures = list(structures)
    n = max(s[0] for s in structures)
    terms = len(set().union(*(s[1] for s in structures)))
    terms += len(set().union(*(s[2] for s in structures)))
    return "banded" if (1 + 2 * n) * d >= _BANDED_RATIO * terms else "matrix_free"


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
    structures = (_structure(g.H.mat != 0, g.l != 0) for g, _, _ in segments)
    fields = {
        "method": _method(rho0.space.dim, structures) if segments else None,
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
    """The rows of ``_evolve``, made in ``_block_loop``.  The flat states
    are column-stacked on the dense path, which its step map acts on, and
    C-ordered in the K forms, whose steps act on views of them as d x d
    matrices."""
    d = rho0.space.dim
    order = "F" if method == "dense" else "C"
    # entry (i, j) sits at i + j d in the column-stacked vec and at i d + j
    # in C order: in both, ``perm`` takes each entry to its transposed one
    idx = np.arange(d * d)
    perm = idx // d + (idx % d) * d
    longest = max((n_steps for _, _, (n_steps, _) in segments), default=0)
    states = np.empty((_block_rows(16 * d * d, longest, save_every) + 1, d * d), dtype=complex)
    states[0] = rho0.mat.reshape(-1, order=order)
    yield 0.0, rho0.mat, _trace_drift(states[0], d), 0.0

    # the last step's result and its conjugate transpose, and the last drift
    t0, w, wh, drift = 0.0, np.empty(d * d, dtype=complex), None, None
    for g, duration, (n_steps, dt_eff) in segments:
        if method == "dense":
            step_map = _rk4_step_matrix(liouvillian_matrix(g), dt_eff).dot
        else:
            terms = _Banded(g) if method == "banded" else _Gemm(g)

            def step_map(v, out):
                _rk4_step(terms, v.reshape(d, d), dt_eff, out.reshape(d, d))

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
                yield step * dt_eff + t0, states[n].reshape((d, d), order=order), drift, herm
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
    bit).  The step is applied densely, in the GEMM K form or in the
    banded K form, as ``_method`` picks (see the module docstring), and
    the result's ``method`` records which.  States are re-Hermitized each
    step; trace drift beyond ``TRACE_ABORT_TOL`` (or NaN) raises
    :class:`StepSizeError`, naming the first step that drifted.  Every
    ``save_every``-th state and the final one go into ``rho``, after the
    initial one; ``save_every=MAX_STEPS`` keeps the initial and final
    states only, whatever the step count.  The
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
    checked before the first step.  One ``method`` covers all segments
    (None without segments), picked from their space and the union of
    their operators' diagonals, so a segment may step banded only if they
    all do.
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
    path, as :func:`evolve` records them.  ``worker`` is the process that
    stepped them: 0 the caller, i >= 1 its i-th forked child; points
    compare equal whatever their worker."""

    k: float
    distance: float
    leaked_trace: float
    dt_full: float
    n_steps: int | None = None
    method: str | None = None
    worker: int = field(default=0, compare=False)


def _bins(steps, workers: int) -> list:
    """The indices of ``steps`` in ``workers`` bins by longest processing
    time: each run, the largest first (ties by index), goes to the bin with
    the fewest steps so far (the first such).  The bins come lightest
    first, each in index order."""
    bins = [[] for _ in range(workers)]
    loads = [0] * workers
    for i in sorted(range(len(steps)), key=lambda i: -steps[i]):
        j = loads.index(min(loads))
        bins[j].append(i)
        loads[j] += steps[i]
    return [sorted(bins[j]) for j in sorted(range(workers), key=loads.__getitem__)]


def _one_thread() -> bool:
    """Whether this process runs one thread: by the kernel's count where
    ``/proc`` has it, so that BLAS's threads count, else by ``threading``'s."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return threading.active_count() == 1


def _forkable() -> bool:
    """Whether forked workers can run beside this process: ``os.fork``
    exists, this process runs one thread and at least two CPUs are usable."""
    return hasattr(os, "fork") and _one_thread() and _usable_cpus() >= 2


def _plan(steps, d: int) -> list:
    """The bins of ``convergence_harness``'s runs at dimension d, which take
    ``steps`` steps, the first the caller's: when the process may fork
    (``_forkable``), the ``_bins`` of the largest W <= min(usable CPUs, runs)
    whose bins but the first each take ``_FORK_MIN_STEPS`` steps' worth of
    d = 6 work, a step costing d^2 but never less than one at d = 6, so at
    least ceil(``_FORK_MIN_STEPS`` 36 / max(36, d^2)) steps; else (or with
    no such W > 1) one bin of every run."""
    if _forkable():
        least = -(-_FORK_MIN_STEPS * 36 // max(36, d * d))
        for workers in range(min(_usable_cpus(), len(steps)), 1, -1):
            bins = _bins(steps, workers)
            if min(sum(steps[i] for i in b) for b in bins[1:]) >= least:
                return bins
    return [list(range(len(steps)))]


@contextlib.contextmanager
def _signals_held():
    """SIGINT and SIGTERM blocked in the block; one that arrives meanwhile
    is delivered when it ends.  Yields the signal mask from before."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
    try:
        yield mask
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


@contextlib.contextmanager
def _workers():
    """Yields a dict of the children that ``_fork`` makes in the block, pid:
    the parent's ends of its pipes.  On leaving the block every child still
    in it is killed and reaped, and its pipes are closed."""
    children = {}
    try:
        yield children
    finally:
        if children:  # no signal mask to hold where there is no fork
            with _signals_held():
                for pid, fds in children.items():
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    for fd in fds:
                        os.close(fd)


def _fork(children: dict, body) -> int:
    """A child made with ``os.fork`` that runs ``body(r, w)`` and never
    returns (``_child``): r reads a pipe from this process and w writes one
    to it.  Recorded in ``children`` (``_workers``) as pid: (the write end
    to the child, the read end from it); returns the pid."""
    # held until the child is recorded, and in the child until SIGTERM's
    # handler is reset
    with _signals_held() as mask:
        fds = []
        try:
            fds += os.pipe()  # to the child
            fds += os.pipe()  # from the child
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        down_r, down_w, up_r, up_w = fds
        if pid == 0:
            _child(body, mask, down_r, up_w, [down_w, up_r, *sum(children.values(), ())])
        children[pid] = (down_w, up_r)
        os.close(down_r)
        os.close(up_w)
    return pid


def _child(body, mask, r: int, w: int, others):
    """The body of a forked child, which never returns: SIGTERM's default
    action (the caller's handler might run its cleanup here), the parent's
    pipe ends ``others`` closed, ``body`` run on files of the read end r and
    the write end w, then ``os._exit``."""
    code = 1
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for fd in others:
            os.close(fd)
        with open(r, "rb") as fr, open(w, "wb") as fw:
            body(fr, fw)
        code = 0
    finally:
        os._exit(code)


def _reaped(children: dict, pid: int, worker: str, complete: bool = True) -> None:
    """Child pid of ``children``, which has closed its pipe, reaped and
    forgotten; :class:`WorkerError` naming ``worker`` unless it sent all it
    owed (``complete``) and exited 0, so always when ``complete`` is False."""
    with _signals_held():
        _, status = os.waitpid(pid, 0)
        for fd in children.pop(pid):
            os.close(fd)
    if status != 0 or not complete:
        code = os.waitstatus_to_exitcode(status)
        how = f"signal {-code}" if code < 0 else f"exit status {code}"
        raise WorkerError(f"a {worker} worker ended without its result ({how})")


def _send(children: dict, pid: int, worker: str, data) -> None:
    """The bytes of ``data`` written whole to the pipe to child pid of
    ``children``; :class:`WorkerError` naming ``worker`` if the child has
    ended."""
    view = memoryview(data)
    try:
        while view:
            view = view[os.write(children[pid][0], view) :]
    except BrokenPipeError:
        _reaped(children, pid, worker, False)


def _receive(children: dict, pid: int, worker: str, n: int) -> bytearray:
    """n bytes read from the pipe from child pid of ``children``;
    :class:`WorkerError` naming ``worker`` if the child ends first."""
    buf = bytearray(n)
    view, got = memoryview(buf), 0
    while got < n:
        part = os.readv(children[pid][1], [view[got:]])
        if not part:
            _reaped(children, pid, worker, False)
        got += part
    return buf


@contextlib.contextmanager
def _forked(jobs):
    """Each of ``jobs`` run in a child (``_fork``); yields ``collect()``,
    which returns their results in order, each as the child's pickle, or
    raises :class:`WorkerError` for the first child that ended without
    sending one.  On leaving the block every child not yet collected is
    killed, and every child is reaped."""
    with _workers() as children:
        for job in jobs:
            _fork(children, lambda r, w, job=job: w.write(pickle.dumps(job())))

        def collect():
            out = []
            for pid in list(children):
                with open(children[pid][1], "rb", closefd=False) as f:
                    data = f.read()
                # the child has closed its pipe; reaped and forgotten at once
                _reaped(children, pid, "converge bin", bool(data))
                out.append(pickle.loads(data))
            return out

        yield collect


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
    to the limit-model state at t_end.  The tolerances are those of
    :func:`zeno_eliminate`.  Every k's step grid is checked before the
    first step.

    The k runs are independent: they are split over up to one process per
    usable CPU, forked after the elimination, by their step counts and the
    family's dimension alone (``_plan``, see the module docstring), and
    each point records its ``worker`` and the ``method`` its run picked.
    The points and the errors are those of a serial run: the
    elimination's, then the limit run's, then that of the first k whose
    run fails.  A child that ends without its result raises
    :class:`WorkerError`; no child outlives the call.
    """
    if rho0_z.space != split.zeno_space:
        raise ValueError("initial state must live on the Zeno subspace")
    runs = [(k, dt / max(1.0, k * k)) for k in map(float, ks)]
    steps = [_step_grid(t_end, dt_k)[0] for _, dt_k in runs]
    limit = zeno_eliminate(
        family, split, scaling_tol=scaling_tol, kernel_tol=kernel_tol, decoupling_tol=decoupling_tol
    )
    vz = split.v_z.cols
    rho0_full = DensityMatrix(family.space, vz @ rho0_z.mat @ vz.conj().T, min_eig_tol=None)

    def run_bin(worker, indices):
        """{index: (final state, n_steps, method, worker)} of the runs of
        ``indices`` in turn, until one raises: its exception ends them."""
        out = {}
        for i in indices:
            k, dt_k = runs[i]
            try:
                res = evolve(instantiate(family, k), rho0_full, t_end, dt_k, save_every=MAX_STEPS)
            except Exception as e:
                out[i] = e
                break
            out[i] = (res.rho[-1], res.n_steps, res.method, worker)
        return out

    bins = _plan(steps, family.space.dim)
    with _forked([partial(run_bin, w, b) for w, b in enumerate(bins[1:], 1)]) as collect:
        zeno_final = evolve(limit.zeno_triple, rho0_z, t_end, dt, save_every=MAX_STEPS).rho[-1]
        results = run_bin(0, bins[0])
        for part in collect():
            results.update(part)

    points = []
    for i, (k, dt_k) in enumerate(runs):
        # a bin's runs after its failure have no result, but come after it
        if isinstance(results[i], Exception):
            raise results[i]
        final, n_steps, method, worker = results[i]
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
                n_steps=n_steps,
                method=method,
                worker=worker,
            )
        )
    return points
