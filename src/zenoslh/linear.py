"""Oscillator fast modes: closed-form elimination and mean-field stability.

An open model whose fast degrees of freedom are m strongly damped
oscillators is specified directly through its drift coefficients on the
slow space:

    S(k) = S_slow x I,
    L_j(k) = k sum_i C_ji x a_i + G_j x I,
    K(k) = k^2 sum_ij A_ij x a_i^H a_j + k sum_i Z_i x a_i^H
           + k sum_i X_i x a_i + R x I,

with A an m x m scalar matrix.  When A is strictly Hurwitz the kernel of
the k^2 coefficient is slow x vacuum and the limit model on the slow
space is

    S_hat = (I + C A^{-1} C^H) S_slow,
    L_hat = G - C A^{-1} Z,
    K_hat = R - X A^{-1} Z,

the Hamiltonian being recovered from the drift as
H = i (K + 1/2 sum_j L_j^H L_j).  Hermiticity of every recovered H is a
validation gate on the supplied coefficients; H is never requested from
the caller.

For linear (Gaussian) models the first-moment dynamics is the
singularly perturbed pair

    d/dt b = Gamma1 b + Gamma2 z,    (1/k^2) d/dt z = Gamma3 b + Gamma4 z,

whose cleared generator is [[Gamma1, Gamma2], [k^2 Gamma3, k^2 Gamma4]].
For large k the spectrum splits into a slow group converging to the
Schur complement Gamma0 = Gamma1 - Gamma2 Gamma4^{-1} Gamma3 at rate
1/k^2 and a fast group scaling as k^2 sigma(Gamma4); the tail of the
k-family is asymptotically stable iff Gamma4 and Gamma0 are both
Hurwitz.  Both Hurwitz notions (numerical range in the open left half
plane, which is the dissipativity used for the kernel statement, and the
weaker eigenvalue criterion) are computed and reported side by side.

Eigenvalues of a matrix larger than ``COMPLEX_EIG_MAX_DIM`` whose
imaginary part is zero come from LAPACK's real solver (``dgeev``,
about twice as fast as ``zgeev`` at 80 x 80); smaller or genuinely
complex matrices keep the complex one.  The two round differently, so
the cut-off keeps every digested ``linstab`` output bit-identical.  A
sweep takes one path for all its rows, decided from the four blocks,
and ``StabilityReport.method`` names it.

The sweep builds the generators of its sorted k grid as one (K, N, N)
stack in that arithmetic and cuts it into W contiguous slices, each solved
by one stacked ``np.linalg.eigvals`` call, the first in the calling thread
and the others on a thread pool.  W is the number of CPUs in the process's
affinity set (``os.cpu_count()`` where there is none), at most K; each
generator still reaches the same LAPACK routine alone, so the rows do not
depend on W.  A stack takes at most ``_STACK_BYTES``; a longer grid runs in
rounds of that size, each split the same way.  ``dgeev``'s eigenvalues
carry an absolute error of about N eps ||M||_1, so an abscissa whose
magnitude does not exceed that floor is rounding, and the sweep raises
instead of reporting its sign.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .elimination import ScaledSLHFamily, _condition_number, _coupling, _singular
from .elimination import _well_conditioned
from .operators import HilbertSpace, Operator, ZenoSplit, _Immutable, fock_annihilator
from .slh import SLHTriple, _adjoint, _channel_sum, _opmul, _stack

__all__ = [
    "OscillatorModelCoeffs",
    "LinearMeanSystem",
    "HurwitzReport",
    "SpectrumSplit",
    "StabilityRow",
    "StabilityReport",
    "oscillator_limit",
    "build_full_family",
    "oscillator_split",
    "is_strictly_hurwitz",
    "slow_schur",
    "full_spectrum",
    "stability_threshold",
]

# eigenproblems up to this size run in complex arithmetic even when real,
# which keeps the digested linstab outputs (N = r + m = 3) byte-identical;
# 12 is the largest N the digests cover
COMPLEX_EIG_MAX_DIM = 12

# the most bytes of generators a sweep solves in one round
_STACK_BYTES = 32 * 2**20


class OscillatorModelCoeffs(_Immutable):
    """Drift coefficients of a model with m fast oscillator modes.

    The operator coefficients act on the slow space (dimension d) and are
    stored as read-only complex arrays: ``scattering`` (n, n, d, d),
    ``osc_couplings`` C (n, m, d, d), ``direct_couplings`` G (n, d, d),
    ``annihilation_coeffs`` X and ``creation_coeffs`` Z (m, d, d).  Each
    may be given as such an array or as (nested) sequences of Operators.
    ``osc_drift`` is the m x m scalar matrix A multiplying a_i^H a_j and
    ``constant_drift`` the Operator R.
    """

    __slots__ = (
        "slow_space",
        "scattering",
        "osc_couplings",
        "direct_couplings",
        "osc_drift",
        "annihilation_coeffs",
        "creation_coeffs",
        "constant_drift",
    )

    def __init__(
        self,
        slow_space: HilbertSpace,
        scattering,
        osc_couplings,
        direct_couplings,
        osc_drift,
        annihilation_coeffs,
        creation_coeffs,
        constant_drift: Operator,
    ):
        a = np.array(osc_drift, dtype=complex)
        if not np.isfinite(a).all():
            raise ValueError("osc_drift: value is not finite")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("oscillator drift matrix must be square")
        if not isinstance(constant_drift, Operator) or constant_drift.space != slow_space:
            raise ValueError("constant drift must be an operator on the slow space")
        n, m = len(direct_couplings), a.shape[0]
        fields = {"slow_space": slow_space, "constant_drift": constant_drift}
        for name, x, outer in (
            ("scattering", scattering, (n, n)),
            ("osc_couplings", osc_couplings, (n, m)),
            ("direct_couplings", direct_couplings, (n,)),
            ("annihilation_coeffs", annihilation_coeffs, (m,)),
            ("creation_coeffs", creation_coeffs, (m,)),
        ):
            fields[name] = _stack(slow_space, x, outer, name)
        a.setflags(write=False)
        super().__init__(osc_drift=a, **fields)

    @property
    def n(self) -> int:
        return len(self.direct_couplings)

    @property
    def m(self) -> int:
        return self.osc_drift.shape[0]


def _check_invertible(a: np.ndarray, what: str):
    """ValueError unless ``a`` passes elimination's singular-block rule."""
    if not _well_conditioned(_condition_number(np.linalg.svd(a, compute_uv=False))):
        raise ValueError(_singular(what))


def _pair_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of an (..., p, q, d, d) stack over the pair (p, q), p-major as
    nested loops would add it."""
    d = terms.shape[-1]
    return _channel_sum(terms.reshape(terms.shape[:-4] + (-1, d, d)), axis=-3)


def _recover_h(space: HilbertSpace, k_mat: np.ndarray, lsq: np.ndarray, what: str) -> Operator:
    """Hamiltonian H = i (K + 1/2 sum_j L_j^H L_j), with ``lsq`` the sum.

    A non-Hermitian result (defect above 1e-8) means the supplied
    coefficients are inconsistent and raises; otherwise H is Hermitized.
    """
    h = 1j * (k_mat + 0.5 * lsq)
    defect = float(np.max(np.abs(h - h.conj().T)))
    if defect > 1e-8:
        raise ValueError(
            f"recovered {what} is not Hermitian (defect {defect:.3e}); "
            "the supplied coefficients are inconsistent"
        )
    return Operator(space, 0.5 * (h + h.conj().T))


def oscillator_limit(coeffs: OscillatorModelCoeffs) -> SLHTriple:
    """Closed-form limit triple on the slow space (vacuum factor dropped)."""
    _check_invertible(coeffs.osc_drift, "oscillator drift matrix")
    w = np.linalg.inv(coeffs.osc_drift)[:, :, None, None]  # A^{-1}_pq
    scat = coeffs.scattering
    c = coeffs.osc_couplings  # C_jp, shape (n, m, d, d)
    z, x = coeffs.creation_coeffs, coeffs.annihilation_coeffs

    # (C A^{-1} C^H)_{j j'} = sum_pq A^{-1}_pq C_jp C_j'q^H
    corr = _pair_sum(w * (c[:, None, :, None] @ _adjoint(c)[None, :, None, :]))
    s_hat = scat + _opmul(corr, scat)
    l_hat = coeffs.direct_couplings - _pair_sum(w * (c[:, :, None] @ z[None, None]))
    k_hat = coeffs.constant_drift.mat - _pair_sum(w * (x[:, None] @ z[None]))
    lsq = _channel_sum(_adjoint(l_hat) @ l_hat)
    return SLHTriple(s_hat, l_hat, _recover_h(coeffs.slow_space, k_hat, lsq, "limit Hamiltonian"))


def build_full_family(coeffs: OscillatorModelCoeffs, fock_truncation: int) -> ScaledSLHFamily:
    """Assemble the scaled family on slow x Fock(truncation)^m.

    The Hamiltonian coefficients are recovered from the drift expansion
    via H = i (K + 1/2 sum_j L_j^H L_j) order by order in k; a
    non-Hermitian recovered coefficient means the supplied drift is
    inconsistent and raises.
    """
    truncation = int(fock_truncation)
    if truncation < 3:
        raise ValueError("fock truncation must be >= 3")
    m = coeffs.m
    osc_eye = np.eye(truncation**m, dtype=complex)
    slow_eye = np.eye(coeffs.slow_space.dim, dtype=complex)
    space = HilbertSpace(coeffs.slow_space.factor_dims + (truncation,) * m)
    a1 = fock_annihilator(truncation).mat
    eyes = [np.eye(truncation**i) for i in range(m)]
    a = np.array([np.kron(np.kron(eyes[i], a1), eyes[m - 1 - i]) for i in range(m)])
    adag = _adjoint(a)
    c, z, x = coeffs.osc_couplings, coeffs.creation_coeffs, coeffs.annihilation_coeffs

    s = np.kron(coeffs.scattering, osc_eye)
    # L1_j = sum_i C_ji x a_i
    l1 = _channel_sum(np.array([[np.kron(cj[i], a[i]) for i in range(m)] for cj in c]), axis=1)
    l0 = np.kron(coeffs.direct_couplings, osc_eye)

    # k^2 drift: sum_ij A_ij x a_i^H a_j
    lifted_a, lifted_adag = np.kron(slow_eye, a), np.kron(slow_eye, adag)
    k2 = _pair_sum(coeffs.osc_drift[:, :, None, None] * (lifted_adag[:, None] @ lifted_a[None]))
    # k^1 drift: sum_i Z_i x a_i^H + X_i x a_i, in the order Z_0, X_0, Z_1, ...
    k1 = _pair_sum(np.array([(np.kron(z[i], adag[i]), np.kron(x[i], a[i])) for i in range(m)]))
    k0 = np.kron(coeffs.constant_drift.mat, osc_eye)

    l1d, l0d = _adjoint(l1), _adjoint(l0)
    h2 = _recover_h(space, k2, _channel_sum(l1d @ l1), "k^2 Hamiltonian coefficient")
    h1 = _recover_h(space, k1, _channel_sum(l1d @ l0 + l0d @ l1), "k^1 Hamiltonian coefficient")
    h0 = _recover_h(space, k0, _channel_sum(l0d @ l0), "k^0 Hamiltonian coefficient")
    return ScaledSLHFamily(s, l1, l0, h2, h1, h0)


def oscillator_split(coeffs: OscillatorModelCoeffs, fock_truncation: int) -> ZenoSplit:
    """The slow x vacuum split of the assembled family's space."""
    truncation = int(fock_truncation)
    space = HilbertSpace(coeffs.slow_space.factor_dims + (truncation,) * coeffs.m)
    osc_dim = truncation**coeffs.m
    indices = [i * osc_dim for i in range(coeffs.slow_space.dim)]
    return ZenoSplit.from_indices(space, indices)


def _arithmetic(n: int, *parts) -> str:
    """``"real"`` for an n x n eigenproblem assembled from ``parts`` when
    n > COMPLEX_EIG_MAX_DIM and no part has a nonzero imaginary entry,
    else ``"complex"``."""
    if n > COMPLEX_EIG_MAX_DIM and not any(np.any(np.imag(p)) for p in parts):
        return "real"
    return "complex"


def _eigvals(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of the square ``m``, by LAPACK's real solver when
    `_arithmetic` of ``m`` is ``"real"``."""
    if _arithmetic(len(m), m) == "real":
        return np.linalg.eigvals(m.real)
    return np.linalg.eigvals(m)


@dataclass(frozen=True)
class HurwitzReport:
    """Both stability margins of a square matrix.

    ``numerical_range_margin`` is the largest eigenvalue of the Hermitian
    part (dissipativity margin); ``eigenvalue_margin`` is the largest
    real part of the spectrum.  Dissipativity implies the eigenvalue
    criterion, not conversely.
    """

    numerical_range_margin: float
    eigenvalue_margin: float

    @property
    def dissipative(self) -> bool:
        return self.numerical_range_margin < 0.0

    @property
    def eigenvalue_stable(self) -> bool:
        return self.eigenvalue_margin < 0.0


def is_strictly_hurwitz(a) -> HurwitzReport:
    """Strict Hurwitz test in the numerical-range sense, both margins reported."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("need a square matrix")
    herm_part = 0.5 * (m + m.conj().T)
    nr_margin = float(np.max(np.linalg.eigvalsh(herm_part)))
    eig_margin = float(np.max(_eigvals(m).real))
    return HurwitzReport(numerical_range_margin=nr_margin, eigenvalue_margin=eig_margin)


class LinearMeanSystem(_Immutable):
    """First-moment dynamics blocks of a fast/slow oscillator assembly; ValueError
    unless every entry is finite."""

    __slots__ = ("slow_block", "slow_fast", "fast_slow", "fast_block")

    def __init__(self, slow_block, slow_fast, fast_slow, fast_block):
        gs = [np.array(x, dtype=complex) for x in (slow_block, slow_fast, fast_slow, fast_block)]
        for i, x in enumerate(gs, 1):
            if not np.isfinite(x).all():
                raise ValueError(f"Gamma{i}: value is not finite")
        g1, g2, g3, g4 = gs
        r = g1.shape[0]
        m = g4.shape[0]
        if g1.shape != (r, r) or g4.shape != (m, m):
            raise ValueError("diagonal blocks must be square")
        if g2.shape != (r, m) or g3.shape != (m, r):
            raise ValueError(
                f"off-diagonal blocks must be {r} x {m} and {m} x {r}, "
                f"got {g2.shape} and {g3.shape}"
            )
        for x in (g1, g2, g3, g4):
            x.setflags(write=False)
        super().__init__(slow_block=g1, slow_fast=g2, fast_slow=g3, fast_block=g4)

    @property
    def r(self) -> int:
        return self.slow_block.shape[0]

    @property
    def m(self) -> int:
        return self.fast_block.shape[0]

    def generator(self, k: float) -> np.ndarray:
        """[[G1, G2], [k^2 G3, k^2 G4]]; ValueError unless k > 0 and k**2,
        k^2 G3 and k^2 G4 are finite."""
        return self._generators([_coupling(k)], complex)[0]

    def _generators(self, ks: list, dtype) -> np.ndarray:
        """The (K, N, N) stack of generator(k) over the checked ``ks``, in
        ``dtype`` (``float`` keeps the real parts); ValueError naming the
        first k whose k^2 G3 or k^2 G4 is not finite."""
        kk = np.array([k**2 for k in ks])[:, None, None]
        with np.errstate(over="ignore", invalid="ignore"):
            g3, g4 = kk * self.fast_slow, kk * self.fast_block
        finite = np.isfinite(g3).all(axis=(1, 2)) & np.isfinite(g4).all(axis=(1, 2))
        if not finite.all():
            k = ks[int(np.argmin(finite))]
            raise ValueError(f"k = {k!r}: k**2 Gamma3 or k**2 Gamma4 is not finite")
        blocks = (self.slow_block, self.slow_fast, g3, g4)
        if dtype is float:
            blocks = [b.real for b in blocks]
        r, n = self.r, self.r + self.m
        out = np.empty((len(ks), n, n), dtype)
        out[:, :r, :r], out[:, :r, r:], out[:, r:, :r], out[:, r:, r:] = blocks
        return out


def slow_schur(sys: LinearMeanSystem) -> np.ndarray:
    """Effective slow generator Gamma1 - Gamma2 Gamma4^{-1} Gamma3."""
    _check_invertible(sys.fast_block, "fast block")
    return sys.slow_block - sys.slow_fast @ np.linalg.solve(sys.fast_block, sys.fast_slow)


@dataclass(frozen=True)
class SpectrumSplit:
    """Eigenvalues of the cleared generator partitioned into groups.

    ``slow[i]`` is the eigenvalue matched to ``slow_reference[i]`` (the
    spectrum of the Schur complement, in ``np.sort_complex`` order);
    ``fast`` holds the remaining m eigenvalues.
    """

    slow: np.ndarray
    fast: np.ndarray
    slow_reference: np.ndarray


def full_spectrum(sys: LinearMeanSystem, k: float) -> SpectrumSplit:
    """Spectrum of generator(k) matched to sigma(Gamma0); ValueError unless k > 0, k**2 finite."""
    eigs = _eigvals(sys.generator(k))
    ref = np.sort_complex(_eigvals(slow_schur(sys)))
    slow = np.empty(len(ref), dtype=complex)
    # globally greedy nearest matching, nearest pairs (i, j) first and ties
    # in row-major order; r and m are small
    order = np.argsort(np.abs(eigs[:, None] - ref), axis=None, kind="stable")
    used_i: set = set()
    used_j: set = set()
    for i, j in (divmod(f, len(ref)) for f in order.tolist()):
        if i in used_i or j in used_j:
            continue
        slow[j] = eigs[i]
        used_i.add(i)
        used_j.add(j)
        if len(used_j) == len(ref):
            break
    fast = np.delete(eigs, list(used_i))
    return SpectrumSplit(slow=slow, fast=fast, slow_reference=ref)


@dataclass(frozen=True)
class StabilityRow:
    k: float
    max_real_part: float
    stable: bool


@dataclass(frozen=True)
class StabilityReport:
    """Per-k spectral abscissa plus the asymptotic-stability criterion.

    ``predicted_stable_tail`` applies the eigenvalue-sense criterion
    (fast block and Schur complement both Hurwitz); ``agrees`` compares
    it with the observed sign at the largest k in the grid.  ``method``
    is the arithmetic of the sweep's eigensolver, ``"real"`` or
    ``"complex"``, and ``workers`` the number of threads W that shared
    the sweep (see the module docstring).
    """

    rows: tuple
    fast_hurwitz: HurwitzReport
    schur_hurwitz: HurwitzReport
    predicted_stable_tail: bool
    observed_stable_at_kmax: bool
    method: str
    workers: int

    @property
    def agrees(self) -> bool:
        return self.predicted_stable_tail == self.observed_stable_at_kmax


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _abscissae(stack: np.ndarray, workers: int) -> np.ndarray:
    """Spectral abscissa of every matrix of ``stack``.

    The stack is cut into ``workers`` contiguous slices, each solved by one
    stacked eigvals call on a thread pool (the first in the caller's
    thread) under the caller's numpy error state; a slice's exception is
    raised here, the first slice's first.
    """
    # imported here: at module level it would add its imports to every command's start-up
    from concurrent.futures import ThreadPoolExecutor

    first, *rest = np.array_split(stack, workers)
    err = np.geterr()

    def solve(part):
        with np.errstate(**err):
            return np.linalg.eigvals(part).real.max(axis=-1)

    with ThreadPoolExecutor(max(1, len(rest))) as pool:
        futures = [pool.submit(solve, part) for part in rest]
        return np.concatenate([solve(first), *(f.result() for f in futures)])


def stability_threshold(sys: LinearMeanSystem, k_grid) -> StabilityReport:
    """Sweep the spectral abscissa over a k grid and cross-check the criterion.

    The generators of the sorted grid are built in the calling thread as
    one stack, in rounds of at most ``_STACK_BYTES``, and each round is
    split into one contiguous slice per worker, W = min(usable CPUs, K)
    (module docstring).  Raises ValueError unless every k > 0 and k**2 is
    a finite float; then if Gamma4 is singular; then naming the smallest
    k whose k^2 Gamma3 or k^2 Gamma4 is not finite; and, once every k is
    solved, naming the smallest k whose abscissa does not exceed the
    rounding floor N eps ||generator(k)||_1 in magnitude.
    """
    ks = sorted(_coupling(k) for k in k_grid)
    gamma0 = slow_schur(sys)
    n = sys.r + sys.m
    method = _arithmetic(n, sys.slow_block, sys.slow_fast, sys.fast_slow, sys.fast_block)
    dtype = float if method == "real" else complex
    workers = min(_usable_cpus(), len(ks))
    per_round = max(1, _STACK_BYTES // (np.dtype(dtype).itemsize * n * n))
    abscissae, norms = [], []
    for lo in range(0, len(ks), per_round):
        stack = sys._generators(ks[lo : lo + per_round], dtype)
        abscissae += _abscissae(stack, min(workers, len(stack))).tolist()
        # in the calling thread: memory a worker takes stays with its
        # thread's allocator arena after the thread ends
        norms += np.abs(stack).sum(axis=-2).max(axis=-1).tolist()
        del stack  # before the next round's is built
    eps = float(np.finfo(float).eps)
    for k, max_re, norm in zip(ks, abscissae, norms):
        floor = n * eps * norm
        if abs(max_re) <= floor:
            raise ValueError(
                f"k = {k!r}: spectral abscissa {max_re!r} is within the eigensolver's "
                f"rounding floor N eps ||M||_1 = {floor:.3g}"
            )
    rows = [StabilityRow(k=k, max_real_part=x, stable=x < 0.0) for k, x in zip(ks, abscissae)]
    fast_rep = is_strictly_hurwitz(sys.fast_block)
    schur_rep = is_strictly_hurwitz(gamma0)
    predicted = fast_rep.eigenvalue_stable and schur_rep.eigenvalue_stable
    observed = rows[-1].stable if rows else predicted
    return StabilityReport(
        rows=tuple(rows),
        fast_hurwitz=fast_rep,
        schur_hurwitz=schur_rep,
        predicted_stable_tail=predicted,
        observed_stable_at_kmax=observed,
        method=method,
        workers=workers,
    )
