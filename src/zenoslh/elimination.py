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

A family stores S as one read-only array ``s`` of shape (n, n, d, d) and
L1, L0 as read-only arrays ``l1``, ``l0`` of shape (n, d, d); ``S``,
``L1`` and ``L0`` are views, nested tuples of :class:`Operator` copied
from the arrays on each access.  :class:`HatOperators` holds S-hat and
L-hat the same way (``s``, ``l`` arrays; ``s_hat``, ``l_hat`` views).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    Operator,
    SubspaceIsometry,
    ZenoSplit,
    _Immutable,
    _blocks,
    block_split,
    kernel_basis,
)
from .slh import (
    SLHTriple,
    _adjoint,
    _cascade,
    _channel_sum,
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
]

SCALING_TOL = 1e-9
KERNEL_TOL_SIGMA = 1e-8
DECOUPLING_TOL = 1e-9
CONDITION_NUMBER_GUARD = 1e12


class ZenofiabilityError(ValueError):
    """A zenofiability condition failed for the supplied split."""

    def __init__(self, message: str, residual: float, residuals: dict | None = None):
        super().__init__(message)
        self.residual = float(residual)
        self.residuals = dict(residuals or {})


class ScalingViolation(ZenofiabilityError):
    pass


class KernelViolation(ZenofiabilityError):
    pass


class DecouplingViolation(ZenofiabilityError):
    pass


class ScaledSLHFamily(_Immutable):
    """Coefficients (S, L1, L0, H2, H1, H0) defining G(k) for all k > 0.

    S and the couplings are given and checked as for :class:`SLHTriple`,
    and stored as the read-only arrays ``s``, ``l1`` and ``l0``.
    """

    __slots__ = ("s", "l1", "l0", "H2", "H1", "H0", "space")

    def __init__(self, s, l1, l0, h2: Operator, h1: Operator, h0: Operator):
        space = h0.space
        s, (l1, l0) = _validated(space, s, (l1, l0), {"H2": h2, "H1": h1, "H0": h0})
        super().__init__(s=s, l1=l1, l0=l0, H2=h2, H1=h1, H0=h0, space=space)

    @property
    def S(self) -> tuple:
        """Scattering matrix as an n x n nested tuple of Operators."""
        return _operators(self.space, self.s)

    @property
    def L1(self) -> tuple:
        """k-linear couplings as a tuple of Operators."""
        return _operators(self.space, self.l1)

    @property
    def L0(self) -> tuple:
        """k-independent couplings as a tuple of Operators."""
        return _operators(self.space, self.l0)

    @property
    def n(self) -> int:
        return len(self.l1)

    @property
    def dim(self) -> int:
        return self.space.dim

    def map_operators(self, fn) -> "ScaledSLHFamily":
        """Apply a space-changing map (e.g. a tensor lift) to every coefficient."""
        s, l1, l0 = (_operators(self.space, x) for x in (self.s, self.l1, self.l0))
        return ScaledSLHFamily(
            tuple(tuple(fn(op) for op in row) for row in s),
            tuple(fn(op) for op in l1),
            tuple(fn(op) for op in l0),
            fn(self.H2),
            fn(self.H1),
            fn(self.H0),
        )

    def __repr__(self):
        return f"ScaledSLHFamily(n={self.n}, dim={self.dim})"


@dataclass(frozen=True)
class KExpansion:
    """Coefficients of K(k) = k^2 quadratic + k linear + constant."""

    quadratic: Operator
    linear: Operator
    constant: Operator


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


def _coupling(k) -> float:
    """k as a float; ValueError unless k > 0 and k**2 is a finite float."""
    k = float(k)
    if k <= 0:
        raise ValueError(f"scaling parameter must be positive, got {k}")
    if not math.isfinite(k * k):
        raise ValueError(f"k = {k!r}: k**2 is not a finite float")
    return k


def instantiate(family: ScaledSLHFamily, k: float) -> SLHTriple:
    """Concrete SLH triple at coupling strength k; ValueError unless k > 0, k**2 finite."""
    k = _coupling(k)
    l = family.l1 * complex(k) + family.l0
    h = (k * k) * family.H2 + k * family.H1 + family.H0
    return SLHTriple(family.s, l, h)


def _k_quadratic(family: ScaledSLHFamily) -> Operator:
    """The k^2 coefficient of K(k), -1/2 sum_i L1_i^H L1_i - i H2."""
    m1 = family.l1
    quad = _channel_sum(_adjoint(m1) @ m1)
    return Operator(family.space, -0.5 * quad - 1j * family.H2.mat)


def expand_k(family: ScaledSLHFamily) -> KExpansion:
    """Direct k-power expansion of K(k) = -1/2 L(k)^H L(k) - i H(k)."""
    m1, m0 = family.l1, family.l0
    m1d, m0d = _adjoint(m1), _adjoint(m0)
    lin = _channel_sum(m1d @ m0 + m0d @ m1)
    const = _channel_sum(m0d @ m0)
    return KExpansion(
        quadratic=_k_quadratic(family),
        linear=Operator(family.space, -0.5 * lin - 1j * family.H1.mat),
        constant=Operator(family.space, -0.5 * const - 1j * family.H0.mat),
    )


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
    (a_ff,) = _blocks(expansion.quadratic, split, ("ff",))
    return _sigma_min(np.linalg.svd(a_ff, compute_uv=False))


def _sigma_min(sv: np.ndarray) -> float:
    """The last of the singular values ``sv``; inf if there are none."""
    return float(sv[-1]) if sv.size else float("inf")


def kernel_alignment(expansion: KExpansion, split: ZenoSplit) -> float:
    """Spectral norm of A V_z; zero iff the Zeno range sits in ker A."""
    m = expansion.quadratic.mat @ split.v_z.cols
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def _drift_blocks(exp: KExpansion, split: ZenoSplit):
    """A_ff, its singular values (largest first), M_zf and M_fz: what the
    kernel check and the limit formulas read."""
    (a_ff,) = _blocks(exp.quadratic, split, ("ff",))
    m_zf, m_fz = _blocks(exp.linear, split, ("zf", "fz"))
    return a_ff, np.linalg.svd(a_ff, compute_uv=False), m_zf, m_fz


def hat_operators(family: ScaledSLHFamily, split: ZenoSplit) -> HatOperators:
    """Evaluate the limit formulas (see module docstring).

    Assumes the scaling and kernel conditions hold; raises
    :class:`KernelViolation` if A_ff is numerically singular.
    """
    return _hat_operators(family, split, *_drift_blocks(expand_k(family), split))


def _hat_operators(
    family: ScaledSLHFamily, split: ZenoSplit, a_ff, sv, m_zf, m_fz, residuals=None
) -> HatOperators:
    """:func:`hat_operators` given ``_drift_blocks``; a `KernelViolation`
    carries ``residuals``."""
    vz, vf = split.v_z.cols, split.v_f.cols
    h0_zz = vz.conj().T @ family.H0.mat @ vz

    d_f = split.dim_fast
    if d_f:
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = sv[0] / sv[-1]  # np.linalg.cond(a_ff), with NaN for its inf
        if not cond <= CONDITION_NUMBER_GUARD:
            raise KernelViolation(
                "fast block of the k^2 drift coefficient is numerically singular "
                f"(condition number > {CONDITION_NUMBER_GUARD:.0e})",
                residual=_sigma_min(sv),
                residuals=residuals,
            )

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

    y_h = m_zf @ w_m
    h_hat = h0_zz + _im(y_h)
    s_hat.setflags(write=False)
    l_hat.setflags(write=False)
    return HatOperators(
        s=s_hat,
        l=l_hat,
        h_zeno=Operator(split.zeno_space, h_hat),
        split=split,
    )


def check_decoupling(hats: HatOperators) -> float:
    """Largest entry of the Zeno-fast scattering blocks and fast couplings."""
    split = hats.split
    vz, vf = split.v_z.cols, split.v_f.cols
    return _max_abs(
        vz.conj().T @ hats.s @ vf, vf.conj().T @ hats.s @ vz, vf.conj().T @ hats.l @ vz
    )


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
    :func:`find_zeno_subspace` to discover the aligned split.
    """
    residuals: dict = {}

    def require(passed, violation, message, residual):
        if not passed:
            raise violation(message, residual=residual, residuals=residuals)

    s_res = check_scaling(family, split)
    residuals["scaling_residual"] = s_res
    require(
        s_res < scaling_tol,
        ScalingViolation,
        f"scaling condition violated (residual {s_res:.3e} >= {scaling_tol:.1e})",
        s_res,
    )

    exp = expand_k(family)
    align = kernel_alignment(exp, split)
    blocks = _drift_blocks(exp, split)
    del exp  # free the d x d coefficients before the S-sized work below
    sigma_min = _sigma_min(blocks[1])
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

    hats = _hat_operators(family, split, *blocks, residuals=residuals)
    d_res = check_decoupling(hats)
    residuals["decoupling_residual"] = d_res
    require(
        d_res < decoupling_tol,
        DecouplingViolation,
        f"decoupling condition violated (residual {d_res:.3e} >= {decoupling_tol:.1e})",
        d_res,
    )

    v_z = split.v_z
    triple = SLHTriple(v_z.compress_mat(hats.s), v_z.compress_mat(hats.l), hats.h_zeno)
    return EliminationResult(zeno_triple=triple, v_z=v_z, residuals=residuals)


def find_zeno_subspace(family: ScaledSLHFamily) -> ZenoSplit:
    """Compute the split from the kernel of the k^2 drift coefficient.

    The kernel basis is canonicalized, so kernels aligned with the
    computational basis come back as exact basis vectors.  A trivial or full
    kernel raises :class:`KernelViolation`, its ``residual`` the dimension.
    """
    v_z = kernel_basis(_k_quadratic(family))
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
