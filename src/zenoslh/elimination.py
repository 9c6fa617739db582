"""Strong-coupling limits of k-scaled SLH families.

A scaled family fixes S and expands the couplings and Hamiltonian in a
strength parameter k:

    L(k) = k L1 + L0,        H(k) = k^2 H2 + k H1 + H0,

so the drift operator expands as K(k) = k^2 A + k M + R with

    A = -1/2 sum_i L1_i^H L1_i - i H2,
    M = -1/2 sum_i (L1_i^H L0_i + L0_i^H L1_i) - i H1,
    R = -1/2 sum_i L0_i^H L0_i - i H0.

Given a split of the space into a candidate Zeno subspace and its fast
complement, three conditions decide whether the k -> infinity dynamics
closes on the Zeno subspace:

1. scaling:    L1 annihilates the Zeno subspace, H1 has no Zeno-Zeno
               block, and H2 is supported entirely on the fast subspace
               (so A and M acquire the block structure the limit formulas
               assume);
2. kernel:     the Zeno subspace is exactly the kernel of A, i.e. A V_z
               vanishes and the fast block A_ff is invertible;
3. decoupling: the limit scattering has no Zeno-fast blocks and the limit
               couplings do not map the Zeno subspace into the fast one.

A NaN residual or tolerance fails its condition.  A failed condition
raises a :class:`ZenofiabilityError`, which is a ValueError.

When all three hold, the limit model on the Zeno subspace is

    S_hat_ab = (delta_ac + L1_af (1/A_ff) L1_cf^H) S_cb   (sum over c, channels)
    L_hat_a  = L0_az - L1_af (1/A_ff) M_fz
    H_hat    = H0_zz + Im{ M_zf (1/A_ff) M_fz },   Im{X} = (X - X^H)/2i.

A_ff^{-1} is always applied through a linear solve with a condition
number guard, never by forming an explicit inverse.

:func:`zeno_eliminate` evaluates the conditions and formulas in one of
two orders, picked from the dimension d alone by ``_elimination_method``
at the seam ``FULL_SPACE_MAX_DIM``, which :mod:`zenoslh.operators`
defines for its complement as well and this module re-exports:

- ``"full_space"`` (d <= FULL_SPACE_MAX_DIM = 128): expand K(k), lift
  S-hat and L-hat back to the whole space (:func:`hat_operators`),
  compress them again with V_z and measure every residual on d x d
  matrices.  Besides the SVD of A_ff that is about 9 n^2 + 8 n + 7
  products of d x d matrices for n channels (taking d_f ~ d): the S
  sandwiches, the S_ff block behind the S-hat_zf correction, the lift
  of S-hat and its decoupling blocks make the n^2 terms.  It is the
  reference order, and its bytes are the ones the digest listing pins:
  ``scripts/csv_digests.py`` eliminates at up to d = 128.
- ``"blocks"`` (d > 128): the limit blocks alone.  Every product with a
  V_z or V_f factor is formed from that side first, at O(n^2 d^2 d_z)
  (M V_z, V_z^H M, S V_z, V_z^H S, L1 V_z and so on; the S-hat_zf
  correction goes through G_j = L1_zf,j A_ff^{-1}, one solve with
  A_ff^T), the triple is (S-hat_zz, L-hat_zz, H-hat) and the decoupling
  residual is the largest entry of S-hat_zf, S-hat_fz and L-hat_fz.
  The only O(d^3) work left is A (n products), A_ff = V_f^H A V_f (two),
  the one SVD of A_ff and two LU factorizations of it.  On one core it
  takes 10-20 ms at d = 160-180 with d_z = 2, where the full-space
  order takes 55-70 ms.  Its split comes from
  :meth:`ZenoSplit.from_zeno`, whose V_f above the seam is the
  Householder completion of V_z (``operators.complement_basis``), not
  the projector-pivot basis below it; no result depends on the fast
  basis beyond rounding.  It rounds differently from the full-space
  order on the pivot basis, by up to about 1e-14 of the largest entry.

Both orders form A_ff and its singular values in ``_fast_block`` and
H-hat in ``_h_hat``, judge A_ff by one singular-block rule (shared with
:mod:`zenoslh.linear`) and raise through one violation path, with the
same messages and residual keys in the same order.  They differ in the
scaling residual, M's Zeno-fast blocks, S-hat, L-hat and the decoupling
blocks.  Neither forms R, which no limit formula reads.

A family stores S as one read-only array ``s`` of shape (n, n, d, d) and
L1, L0 as read-only arrays ``l1``, ``l0`` of shape (n, d, d); ``S``
(from ``slh._Model``, with ``n``, ``dim`` and the repr), ``L1`` and
``L0`` are views, nested tuples of :class:`Operator` copied from the
arrays on each access.  :class:`HatOperators` holds S-hat and L-hat the
same way (``s``, ``l`` arrays; ``s_hat``, ``l_hat`` views).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    FULL_SPACE_MAX_DIM,
    Operator,
    SubspaceIsometry,
    ZenoSplit,
    _blocks,
    block_split,
    kernel_basis,
)
from .slh import (
    SLHTriple,
    _Model,
    _adjoint,
    _cascade,
    _channel_sum,
    _drift,
    _im,
    _operators,
    _validated,
)

__all__ = [
    "ScaledSLHFamily",
    "KExpansion",
    "HatOperators",
    "EliminationResult",
    "ZenofiabilityError",
    "ScalingViolation",
    "KernelViolation",
    "DecouplingViolation",
    "instantiate",
    "expand_k",
    "check_scaling",
    "check_kernel",
    "kernel_alignment",
    "hat_operators",
    "check_decoupling",
    "zeno_eliminate",
    "find_zeno_subspace",
    "family_series_product",
    "SCALING_TOL",
    "KERNEL_TOL_SIGMA",
    "DECOUPLING_TOL",
    "CONDITION_NUMBER_GUARD",
    "FULL_SPACE_MAX_DIM",
]

SCALING_TOL = 1e-9
KERNEL_TOL_SIGMA = 1e-8
DECOUPLING_TOL = 1e-9
CONDITION_NUMBER_GUARD = 1e12


class ZenofiabilityError(ValueError):
    """A zenofiability condition failed for the supplied split.

    Raised by :func:`zeno_eliminate`, it also names the evaluation order
    (``method``) and carries cond(A_ff) (``cond_a_ff``) once the SVD of
    A_ff has run; both are None otherwise.
    """

    def __init__(
        self,
        message: str,
        residual: float,
        residuals: dict | None = None,
        *,
        method: str | None = None,
        cond_a_ff: float | None = None,
    ):
        super().__init__(message)
        self.residual = float(residual)
        self.residuals = dict(residuals or {})
        self.method = method
        self.cond_a_ff = cond_a_ff


class ScalingViolation(ZenofiabilityError):
    pass


class KernelViolation(ZenofiabilityError):
    pass


class DecouplingViolation(ZenofiabilityError):
    pass


class ScaledSLHFamily(_Model):
    """Coefficients (S, L1, L0, H2, H1, H0) defining G(k) for all k > 0.

    S and the couplings are given and checked as for :class:`SLHTriple`,
    and stored as the read-only arrays ``s``, ``l1`` and ``l0``.
    """

    __slots__ = ("s", "l1", "l0", "H2", "H1", "H0", "space", "_quadratic_drift")

    def __init__(self, s, l1, l0, h2: Operator, h1: Operator, h0: Operator):
        space = h0.space
        s, (l1, l0) = _validated(space, s, (l1, l0), {"H2": h2, "H1": h1, "H0": h0})
        super().__init__(s=s, l1=l1, l0=l0, H2=h2, H1=h1, H0=h0, space=space)

    @property
    def quadratic_drift(self) -> Operator:
        """The k^2 drift coefficient A = -1/2 sum_i L1_i^H L1_i - i H2, formed
        on first use and kept: the kernel search and the elimination both
        read it.  ValueError naming A if an entry overflows."""
        try:
            return self._quadratic_drift
        except AttributeError:
            try:
                a = _drift(self.l1, self.H2)
            except ValueError:  # the one check of an Operator formed so
                raise ValueError("k**2 drift coefficient A is not finite") from None
            object.__setattr__(self, "_quadratic_drift", a)
            return a

    @property
    def L1(self) -> tuple:
        """k-linear couplings as a tuple of Operators."""
        return _operators(self.space, self.l1)

    @property
    def L0(self) -> tuple:
        """k-independent couplings as a tuple of Operators."""
        return _operators(self.space, self.l0)

    def map_operators(self, fn) -> "ScaledSLHFamily":
        """Apply a space-changing map (e.g. a tensor lift) to every coefficient."""
        return ScaledSLHFamily(
            tuple(tuple(fn(op) for op in row) for row in self.S),
            tuple(fn(op) for op in self.L1),
            tuple(fn(op) for op in self.L0),
            fn(self.H2),
            fn(self.H1),
            fn(self.H0),
        )


@dataclass(frozen=True)
class KExpansion:
    """Coefficients of K(k) = k^2 quadratic + k linear + constant.

    ``constant`` is formed from ``family`` on first access, since no limit
    formula reads it.
    """

    quadratic: Operator
    linear: Operator
    family: ScaledSLHFamily = field(repr=False, compare=False)

    @functools.cached_property
    def constant(self) -> Operator:
        return _drift(self.family.l0, self.family.H0)


@dataclass(frozen=True, eq=False)
class HatOperators:
    """Limit operators prior to compression.

    S-hat (``s``, read-only (n, n, d, d)) and L-hat (``l``, read-only
    (n, d, d)) are kept on the full space so the decoupling blocks can be
    inspected; ``s_hat`` and ``l_hat`` are their Operator views.
    ``h_zeno`` already lives on the Zeno subspace.
    """

    s: np.ndarray
    l: np.ndarray
    h_zeno: Operator
    split: ZenoSplit

    @property
    def s_hat(self) -> tuple:
        return _operators(self.split.space, self.s)

    @property
    def l_hat(self) -> tuple:
        return _operators(self.split.space, self.l)


@dataclass(frozen=True)
class EliminationResult:
    """Limit triple on the Zeno subspace plus condition diagnostics."""

    zeno_triple: SLHTriple
    v_z: SubspaceIsometry
    residuals: dict
    # the evaluation order that ran, "full_space" or "blocks", and
    # sigma_max / sigma_min of A_ff (None without a fast subspace)
    method: str | None = None
    cond_a_ff: float | None = None


def _coupling(k) -> float:
    """k as a float; ValueError unless k > 0 and k**2 is a finite float."""
    k = float(k)
    if k <= 0:
        raise ValueError(f"scaling parameter must be positive, got {k}")
    if not math.isfinite(k * k):
        raise ValueError(f"k = {k!r}: k**2 is not a finite float")
    return k


def instantiate(family: ScaledSLHFamily, k: float) -> SLHTriple:
    """Concrete SLH triple at coupling strength k; ValueError unless k > 0,
    k**2 is finite and so are L(k) and H(k), naming k."""
    k = _coupling(k)
    with np.errstate(over="ignore", invalid="ignore"):
        l = family.l1 * complex(k) + family.l0
        h = family.H2.mat * complex(k * k) + family.H1.mat * complex(k) + family.H0.mat
    if not (np.isfinite(l).all() and np.isfinite(h).all()):
        raise ValueError(f"k = {k!r}: k L1 + L0 or k**2 H2 + k H1 + H0 is not finite")
    return SLHTriple(family.s, l, Operator(family.space, h))


def expand_k(family: ScaledSLHFamily) -> KExpansion:
    """Direct k-power expansion of K(k) = -1/2 L(k)^H L(k) - i H(k);
    ValueError naming A or M if one overflows."""
    m1, m0 = family.l1, family.l0
    quadratic = family.quadratic_drift
    with np.errstate(over="ignore", invalid="ignore"):
        lin = -0.5 * _channel_sum(_adjoint(m1) @ m0 + _adjoint(m0) @ m1) - 1j * family.H1.mat
    _check_linear_drift(lin)
    return KExpansion(quadratic=quadratic, linear=Operator(family.space, lin), family=family)


def _check_linear_drift(*blocks):
    """ValueError naming M unless every entry of its ``blocks``, formed with
    numpy's overflow warnings off, is finite."""
    if not all(np.isfinite(b).all() for b in blocks):
        raise ValueError("k drift coefficient M is not finite")


def check_scaling(family: ScaledSLHFamily, split: ZenoSplit) -> float:
    """Largest-entry residual of the scaling condition.

    Measures, with P_z the Zeno projection: L1_i P_z for every channel,
    P_z H1 P_z, and both rows/columns P_z H2 and H2 P_z.  Together with
    the kernel condition this enforces the block structure of A and M.
    """
    pz = split.v_z.projector()
    h1, h2 = family.H1.mat, family.H2.mat
    return _max_abs(family.l1 @ pz, pz @ h1 @ pz, pz @ h2, h2 @ pz)


def _max_abs(*arrays) -> float:
    """Largest |entry| of ``arrays``, 0.0 if all are empty; NaN propagates."""
    return float(np.max([0.0, *(np.max(np.abs(m)) for m in arrays if m.size)]))


def check_kernel(expansion: KExpansion, split: ZenoSplit) -> float:
    """Smallest singular value of the fast block A_ff.

    The kernel condition also requires A V_z = 0; see
    :func:`kernel_alignment` for that residual.
    """
    return _sigma_min(_fast_block(expansion.quadratic, split)[1])


def _sigma_min(sv: np.ndarray) -> float:
    """The last of the singular values ``sv``; inf if there are none."""
    return float(sv[-1]) if sv.size else float("inf")


def kernel_alignment(expansion: KExpansion, split: ZenoSplit) -> float:
    """Spectral norm of A V_z; zero iff the Zeno range sits in ker A."""
    return _spectral_norm(expansion.quadratic.mat @ split.v_z.cols)


def _spectral_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def _fast_block(a, split: ZenoSplit):
    """A_ff = V_f^H A V_f of the k^2 coefficient ``a`` and its singular
    values, largest first: the one place either is formed."""
    (a_ff,) = _blocks(a, split, ("ff",))
    return a_ff, np.linalg.svd(a_ff, compute_uv=False)


def _condition_number(sv: np.ndarray) -> float | None:
    """sigma_max / sigma_min of the singular values ``sv`` (np.linalg.cond,
    with NaN for its inf); None if there are none."""
    if not sv.size:
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(sv[0] / sv[-1])


def _well_conditioned(cond: float | None) -> bool:
    return cond is None or cond <= CONDITION_NUMBER_GUARD  # NaN fails


def _singular(what: str) -> str:
    return f"{what} is numerically singular (condition number > {CONDITION_NUMBER_GUARD:.0e})"


_SINGULAR = _singular("fast block of the k^2 drift coefficient")


def hat_operators(family: ScaledSLHFamily, split: ZenoSplit) -> HatOperators:
    """Evaluate the limit formulas (see module docstring).

    Assumes the scaling and kernel conditions hold; raises
    :class:`KernelViolation` if A_ff is numerically singular.
    """
    exp = expand_k(family)
    a_ff, sv = _fast_block(exp.quadratic, split)
    if not _well_conditioned(_condition_number(sv)):
        raise KernelViolation(_SINGULAR, residual=_sigma_min(sv))
    return _hat_operators(family, split, a_ff, *_blocks(exp.linear, split, ("zf", "fz")))


def _hat_operators(family: ScaledSLHFamily, split: ZenoSplit, a_ff, m_zf, m_fz) -> HatOperators:
    """:func:`hat_operators` given A_ff (``_fast_block``), M_zf and M_fz."""
    vz, vf = split.v_z.cols, split.v_f.cols
    d_f = split.dim_fast

    def solve_ff(rhs):
        if d_f == 0 or rhs.size == 0:
            return np.zeros_like(rhs)
        return np.linalg.solve(a_ff, rhs)

    l1_zf, l1_ff = _blocks(family.l1, split, ("zf", "ff"))
    l0_zz, l0_fz = _blocks(family.l0, split, ("zz", "fz"))
    s_zz, s_zf, s_fz, s_ff = block_split(family.s, split)

    w_m = solve_ff(m_fz)  # A_ff^{-1} M_fz, shape d_f x d_z

    lz = l0_zz - l1_zf @ w_m  # L0_zz - L1_zf A_ff^{-1} M_fz
    lf = l0_fz - l1_ff @ w_m  # L0_fz - L1_ff A_ff^{-1} M_fz
    l_hat = vz @ lz @ vz.conj().T + vf @ lf @ vz.conj().T

    # Pre-solve A_ff^{-1} sum_m (L1_m)_cf^H S[m][k]_cb for each k and block
    # column b; the leading axis of each product is the summed channel m.
    l1_zf_h, l1_ff_h = _adjoint(l1_zf)[:, None], _adjoint(l1_ff)[:, None]
    y_z = solve_ff(_channel_sum(l1_zf_h @ s_zz + l1_ff_h @ s_fz))
    y_f = solve_ff(_channel_sum(l1_zf_h @ s_zf + l1_ff_h @ s_ff))

    # S-hat blocks in place: the (j, k) entry gains L1_j,cf y[k][b]
    s_zz += l1_zf[:, None] @ y_z[None]
    s_zf += l1_zf[:, None] @ y_f[None]
    s_fz += l1_ff[:, None] @ y_z[None]
    s_ff += l1_ff[:, None] @ y_f[None]
    s_hat = (
        vz @ s_zz @ vz.conj().T
        + vz @ s_zf @ vf.conj().T
        + vf @ s_fz @ vz.conj().T
        + vf @ s_ff @ vf.conj().T
    )

    s_hat.setflags(write=False)
    l_hat.setflags(write=False)
    return HatOperators(s=s_hat, l=l_hat, h_zeno=_h_hat(family, split, m_zf, w_m), split=split)


def _h_hat(family: ScaledSLHFamily, split: ZenoSplit, m_zf, w) -> Operator:
    """H-hat = H0_zz + Im{M_zf w} on the Zeno subspace, w = A_ff^{-1} M_fz."""
    vz = split.v_z.cols
    return Operator(split.zeno_space, vz.conj().T @ family.H0.mat @ vz + _im(m_zf @ w))


def check_decoupling(hats: HatOperators) -> float:
    """Largest entry of the Zeno-fast scattering blocks and fast couplings."""
    return _max_abs(*_decoupling_blocks(hats))


def _decoupling_blocks(hats: HatOperators) -> tuple:
    """S-hat_zf, S-hat_fz and L-hat_fz."""
    split = hats.split
    vz, vf = split.v_z.cols, split.v_f.cols
    return vz.conj().T @ hats.s @ vf, vf.conj().T @ hats.s @ vz, vf.conj().T @ hats.l @ vz


# The two evaluation orders of zeno_eliminate.  Each is a generator that
# yields, in turn, the scaling residual; the kernel alignment and the
# singular values of A_ff; the blocks S-hat_zf, S-hat_fz and L-hat_fz,
# whose largest entry is the decoupling residual; and the limit triple.
# zeno_eliminate checks each condition before it asks for the next item,
# so a path does no more work than the conditions that passed call for.


def _full_space_order(family: ScaledSLHFamily, split: ZenoSplit):
    """The reference order: S-hat and L-hat lifted to the whole space."""
    yield check_scaling(family, split)
    exp = expand_k(family)
    a_ff, sv = _fast_block(exp.quadratic, split)
    yield kernel_alignment(exp, split), sv
    m_zf, m_fz = _blocks(exp.linear, split, ("zf", "fz"))
    del exp  # free the k^1 coefficient before the S-sized work below
    hats = _hat_operators(family, split, a_ff, m_zf, m_fz)
    yield _decoupling_blocks(hats)
    v_z = split.v_z
    yield SLHTriple(v_z.compress_mat(hats.s), v_z.compress_mat(hats.l), hats.h_zeno)


def _solve_stack(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """a^{-1} rhs[i] for every matrix of the (m, d_f, c) stack ``rhs``, as
    one system of all its columns, so ``a`` is factored once; zeros if the
    stack is empty."""
    m, d_f, c = rhs.shape
    if rhs.size == 0:
        return np.zeros_like(rhs)
    cols = rhs.transpose(1, 0, 2).reshape(d_f, m * c)
    return np.linalg.solve(a, cols).reshape(d_f, m, c).transpose(1, 0, 2)


def _block_order(family: ScaledSLHFamily, split: ZenoSplit):
    """The block order: the limit blocks alone, every product that has a
    V_z or V_f factor formed from that side first."""
    vz, vf = split.v_z.cols, split.v_f.cols
    vzh, vfh = vz.conj().T, vf.conj().T
    s, l1, l0 = family.s, family.l1, family.l0
    h1, h2 = family.H1.mat, family.H2.mat
    l1h = _adjoint(l1)

    l1_vz, h1_vz, h2_vz = l1 @ vz, h1 @ vz, h2 @ vz
    yield _max_abs(l1_vz @ vzh, vz @ (vzh @ h1_vz) @ vzh, vz @ (vzh @ h2), h2_vz @ vzh)

    a = family.quadratic_drift
    a_ff, sv = _fast_block(a, split)
    yield _spectral_norm(a.mat @ vz), sv

    # M V_z and V_z^H M of M = -1/2 sum_i (L1_i^H L0_i + L0_i^H L1_i) - i H1
    l0_vz, vzh_l1 = l0 @ vz, vzh @ l1
    with np.errstate(over="ignore", invalid="ignore"):
        m_vz = -0.5 * _channel_sum(l1h @ l0_vz + _adjoint(l0) @ l1_vz) - 1j * h1_vz
        vzh_m = -0.5 * _channel_sum(_adjoint(l1_vz) @ l0 + _adjoint(l0_vz) @ l1) - 1j * (vzh @ h1)
    _check_linear_drift(m_vz, vzh_m)
    m_zf, m_fz = vzh_m @ vf, vfh @ m_vz

    # S-hat = (1 + L1 V_f A_ff^{-1} V_f^H L1^H) S, summed over channels: its
    # Zeno column S-hat V_z through y[k] = A_ff^{-1} V_f^H sum_m L1_m^H S_mk V_z,
    # solved with w = A_ff^{-1} M_fz, and its Zeno row V_z^H S-hat through
    # G_j = L1_zf,j A_ff^{-1}, i.e. A_ff^T G_j^T = L1_zf,j^T
    s_vz = s @ vz
    rhs = vfh @ _channel_sum(l1h[:, None] @ s_vz)
    sol = _solve_stack(a_ff, np.concatenate([m_fz[None], rhs]))
    w, y = sol[0], sol[1:]
    shat_vz = s_vz + l1[:, None] @ (vf @ y)[None]
    g = _solve_stack(a_ff.T, (vzh_l1 @ vf).swapaxes(-1, -2)).swapaxes(-1, -2)
    g_l1h = (g @ vfh)[:, None] @ l1h[None]  # G_j V_f^H L1_m^H, axes (j, m)
    vzh_shat = vzh @ s
    for m in range(family.n):
        vzh_shat += g_l1h[:, m, None] @ s[None, m]

    vf_w = vf @ w
    l_zz = vzh @ l0_vz - vzh_l1 @ vf_w  # L0_zz - L1_zf A_ff^{-1} M_fz
    l_fz = vfh @ (l0_vz - l1 @ vf_w)  # L0_fz - L1_ff A_ff^{-1} M_fz
    yield vzh_shat @ vf, vfh @ shat_vz, l_fz
    yield SLHTriple(vzh @ shat_vz, l_zz, _h_hat(family, split, m_zf, w))


_PATHS = {"full_space": _full_space_order, "blocks": _block_order}


def _elimination_method(d: int) -> str:
    """The evaluation order of :func:`zeno_eliminate` at dimension d."""
    return "full_space" if d <= FULL_SPACE_MAX_DIM else "blocks"


def zeno_eliminate(
    family: ScaledSLHFamily,
    split: ZenoSplit,
    *,
    scaling_tol: float = SCALING_TOL,
    kernel_tol: float = KERNEL_TOL_SIGMA,
    decoupling_tol: float = DECOUPLING_TOL,
) -> EliminationResult:
    """Run the three conditions and compute the limit triple.

    On success the triple is returned compressed to the Zeno subspace
    (dimension d_z), with the isometry retained for lifting results back.
    On failure a typed :class:`ZenofiabilityError` names the violated
    condition and carries the residuals collected so far.  A kernel not
    aligned with the supplied split is an error; use
    :func:`find_zeno_subspace` to discover the aligned split.  The
    evaluation order (module docstring) is picked from the dimension
    alone; the result records it and cond(A_ff).
    """
    method = _elimination_method(split.space.dim)
    path = _PATHS[method](family, split)
    residuals: dict = {}
    cond = None

    def require(passed, violation, message, residual):
        if not passed:
            raise violation(
                message, residual=residual, residuals=residuals, method=method, cond_a_ff=cond
            )

    s_res = next(path)
    residuals["scaling_residual"] = s_res
    require(
        s_res < scaling_tol,
        ScalingViolation,
        f"scaling condition violated (residual {s_res:.3e} >= {scaling_tol:.1e})",
        s_res,
    )

    align, sv = next(path)
    sigma_min, cond = _sigma_min(sv), _condition_number(sv)
    residuals["kernel_min_singular_value"] = sigma_min
    residuals["kernel_alignment"] = align
    require(
        align < kernel_tol,
        KernelViolation,
        "Zeno subspace is not contained in the kernel of the k^2 drift "
        f"coefficient (|A V_z| = {align:.3e} >= {kernel_tol:.1e})",
        align,
    )
    require(
        sigma_min > kernel_tol,
        KernelViolation,
        "kernel of the k^2 drift coefficient is larger than the Zeno subspace "
        f"(sigma_min(A_ff) = {sigma_min:.3e} <= {kernel_tol:.1e})",
        sigma_min,
    )
    require(_well_conditioned(cond), KernelViolation, _SINGULAR, sigma_min)

    d_res = _max_abs(*next(path))
    residuals["decoupling_residual"] = d_res
    require(
        d_res < decoupling_tol,
        DecouplingViolation,
        f"decoupling condition violated (residual {d_res:.3e} >= {decoupling_tol:.1e})",
        d_res,
    )
    return EliminationResult(next(path), split.v_z, residuals, method, cond)


def find_zeno_subspace(family: ScaledSLHFamily) -> ZenoSplit:
    """Compute the split from the kernel of the k^2 drift coefficient.

    The kernel basis is canonicalized, so kernels aligned with the
    computational basis come back as exact basis vectors.  A trivial or full
    kernel raises :class:`KernelViolation`, its ``residual`` the dimension.
    """
    v_z = kernel_basis(family.quadratic_drift)
    d = v_z.subspace_dim
    if d == 0:
        raise KernelViolation(
            "the k^2 drift coefficient has a trivial kernel; no Zeno subspace exists", d
        )
    if d == family.dim:
        raise KernelViolation(
            "the k^2 drift coefficient vanishes; there is no fast subspace to eliminate", d
        )
    return ZenoSplit.from_zeno(v_z)


def family_series_product(f1: ScaledSLHFamily, f2: ScaledSLHFamily) -> ScaledSLHFamily:
    """Cascade of two scaled families, collected order by order in k.

    Instantiating the result at any k equals the series product of the
    instantiated components.
    """
    # couplings stacked by power of k: index 0 is L1, index 1 is L0
    s, (l1, l0), cross = _cascade(f1, f2, np.stack((f1.l1, f1.l0)), np.stack((f2.l1, f2.l0)))
    space = f1.space
    h2 = f1.H2.mat + f2.H2.mat + _im(cross[0, 0])
    h1 = f1.H1.mat + f2.H1.mat + _im(cross[0, 1] + cross[1, 0])
    h0 = f1.H0.mat + f2.H0.mat + _im(cross[1, 1])
    return ScaledSLHFamily(
        s, l1, l0, Operator(space, h2), Operator(space, h1), Operator(space, h0)
    )
