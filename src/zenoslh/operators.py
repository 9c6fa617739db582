"""Dense complex operators on labelled tensor-product Hilbert spaces.

Three value types carry everything downstream:

* ``HilbertSpace``: an ordered tuple of tensor-factor dimensions.
* ``Operator``: a square complex matrix tagged with its space.
* ``SubspaceIsometry``: a matrix with orthonormal columns selecting a
  subspace.  Subspaces are always represented by explicit isometries, not
  index subsets, so kernels that are not aligned with the canonical basis
  are handled uniformly.

``ZenoSplit`` pairs two isometries with orthogonal, jointly complete
ranges and induces the 2x2 block decompositions used by the elimination
routines.

All values are immutable after construction and the functions below are
pure, so everything can be shared freely between threads.  ``Operator``,
``SubspaceIsometry``, ``ZenoSplit`` and the value types of the modules
built on this one (a ``DensityMatrix`` is an ``Operator``) share one
private base, which sets their slots once and refuses any later
assignment; matrices are stored read-only.  ``HilbertSpace`` is a frozen
dataclass.  Storage is dense.  Operators of a few hundred dimensions are
fine here.  The master-equation integrator ``evolve`` (and
``convergence_harness`` through it) builds a dense d^2 x d^2 step map,
16 d^4 bytes per matrix, only up to a size crossover and steps
matrix-free on the d x d state above it; both are the same RK4 map and
differ by rounding only.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Number

import numpy as np
import scipy.linalg

__all__ = [
    "HilbertSpace",
    "Operator",
    "SubspaceIsometry",
    "ZenoSplit",
    "identity",
    "zero",
    "fock_annihilator",
    "pauli",
    "basis_ketbra",
    "tensor",
    "adjoint",
    "kernel_basis",
    "complement_basis",
    "block_split",
    "ISOMETRY_TOL",
    "KERNEL_TOL",
]

ISOMETRY_TOL = 1e-12
KERNEL_TOL = 1e-10


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered tensor product of finite-dimensional factors."""

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims:
            raise ValueError("a Hilbert space needs at least one factor")
        if any(d < 1 for d in dims):
            raise ValueError(f"factor dimensions must be >= 1, got {dims}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def dim(self) -> int:
        out = 1
        for d in self.factor_dims:
            out *= d
        return out

    def __repr__(self):
        return f"HilbertSpace{self.factor_dims}"


class _Immutable:
    """Base of the value types: the slots are set once, at construction."""

    __slots__ = ()

    def __init__(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Operator(_Immutable):
    """Square complex matrix acting on a fixed Hilbert space.

    Instances are immutable; arithmetic returns new operators.  ``@`` is
    the operator product, ``*`` is reserved for scalars.
    """

    __slots__ = ("space", "mat")

    def __init__(self, space: HilbertSpace, mat):
        m = np.array(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        if m.shape[0] != space.dim:
            raise ValueError(
                f"matrix dimension {m.shape[0]} does not match space dimension {space.dim}"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite (no NaN/Inf)")
        m.setflags(write=False)
        super().__init__(space=space, mat=m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def dag(self) -> "Operator":
        return Operator(self.space, self.mat.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.mat))) if self.mat.size else 0.0

    def _check_space(self, other: "Operator"):
        if self.space != other.space:
            raise ValueError(f"space mismatch: {self.space} vs {other.space}")

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._check_space(other)
        return Operator(self.space, self.mat + other.mat)

    def __sub__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._check_space(other)
        return Operator(self.space, self.mat - other.mat)

    def __neg__(self):
        return Operator(self.space, -self.mat)

    def __mul__(self, scalar):
        if isinstance(scalar, Operator):
            raise TypeError("use @ for operator products; * is for scalars")
        if not isinstance(scalar, Number):
            return NotImplemented
        return Operator(self.space, self.mat * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, Number):
            return NotImplemented
        return Operator(self.space, self.mat / complex(scalar))

    def __matmul__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._check_space(other)
        return Operator(self.space, self.mat @ other.mat)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, factors={self.space.factor_dims})"


def identity(space: HilbertSpace) -> Operator:
    return Operator(space, np.eye(space.dim, dtype=complex))


def zero(space: HilbertSpace) -> Operator:
    return Operator(space, np.zeros((space.dim, space.dim), dtype=complex))


def fock_annihilator(n_max: int) -> Operator:
    """Truncated bosonic annihilator keeping number states 0 .. n_max - 1.

    The matrix has sqrt(n) on the first subdiagonal.  Truncation breaks
    the canonical commutation relation only in the top level, which is
    the standard diagnostic for choosing n_max.
    """
    n_max = int(n_max)
    if n_max < 2:
        raise ValueError(f"fock truncation must be >= 2, got {n_max}")
    m = np.zeros((n_max, n_max), dtype=complex)
    for n in range(1, n_max):
        m[n - 1, n] = np.sqrt(n)
    return Operator(HilbertSpace((n_max,)), m)


_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli(axis: str) -> Operator:
    try:
        m = _PAULI[axis]
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}; expected one of x, y, z") from None
    return Operator(HilbertSpace((2,)), m)


def basis_ketbra(dim: int, i: int, j: int) -> Operator:
    """|i><j| on a single factor of the given dimension."""
    if not (0 <= i < dim and 0 <= j < dim):
        raise ValueError(f"ketbra indices ({i}, {j}) out of range for dimension {dim}")
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = 1.0
    return Operator(HilbertSpace((dim,)), m)


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product; the factor lists concatenate."""
    space = HilbertSpace(a.space.factor_dims + b.space.factor_dims)
    return Operator(space, np.kron(a.mat, b.mat))


def adjoint(a: Operator) -> Operator:
    return a.dag()


class SubspaceIsometry(_Immutable):
    """Matrix with orthonormal columns spanning a subspace.

    The induced projection is ``V V^H``; compression of an operator is
    ``V^H X V``.  A zero-column isometry is a valid representation of the
    trivial subspace.
    """

    __slots__ = ("space", "cols")

    def __init__(self, space: HilbertSpace, cols):
        c = np.array(cols, dtype=complex)
        if c.ndim != 2 or c.shape[0] != space.dim:
            raise ValueError(
                f"isometry columns must form a {space.dim} x d matrix, got shape {c.shape}"
            )
        d = c.shape[1]
        gram = c.conj().T @ c
        defect = float(np.max(np.abs(gram - np.eye(d)))) if d else 0.0
        if defect > ISOMETRY_TOL:
            raise ValueError(f"columns are not orthonormal (defect {defect:.3e})")
        c.setflags(write=False)
        super().__init__(space=space, cols=c)

    @property
    def subspace_dim(self) -> int:
        return self.cols.shape[1]

    @property
    def subspace(self) -> HilbertSpace:
        if self.subspace_dim == 0:
            raise ValueError("trivial subspace has no Hilbert space")
        return HilbertSpace((self.subspace_dim,))

    def projector(self) -> np.ndarray:
        return self.cols @ self.cols.conj().T

    def compress_mat(self, mat: np.ndarray) -> np.ndarray:
        return self.cols.conj().T @ mat @ self.cols

    def compress(self, x: Operator) -> Operator:
        if x.space != self.space:
            raise ValueError("operator lives on a different space than the isometry")
        return Operator(self.subspace, self.compress_mat(x.mat))

    def lift_mat(self, small: np.ndarray) -> np.ndarray:
        return self.cols @ small @ self.cols.conj().T

    def lift(self, small: Operator) -> Operator:
        if small.dim != self.subspace_dim:
            raise ValueError("operator dimension does not match the subspace")
        return Operator(self.space, self.lift_mat(small.mat))

    def __repr__(self):
        return f"SubspaceIsometry(dim={self.space.dim} -> {self.subspace_dim})"


def _canonical_basis_from_projector(p: np.ndarray, d: int) -> np.ndarray:
    """Deterministic orthonormal basis of the range of a rank-d projector.

    Column-pivoted QR picks the d best-conditioned columns of the
    projector; sorting the pivots and fixing each column's global phase
    makes the result deterministic, and recovers the canonical basis
    vectors exactly whenever the subspace is spanned by them.
    """
    dim = p.shape[0]
    if d == 0:
        return np.zeros((dim, 0), dtype=complex)
    _, _, piv = scipy.linalg.qr(p, pivoting=True)
    chosen = np.sort(piv[:d])
    q, _ = np.linalg.qr(p[:, chosen])
    q = np.array(q[:, :d])
    for j in range(d):
        idx = int(np.argmax(np.abs(q[:, j])))
        phase = q[idx, j] / abs(q[idx, j])
        q[:, j] = q[:, j] / phase
    return q


def kernel_basis(a: Operator, tol: float = KERNEL_TOL) -> SubspaceIsometry:
    """Orthonormal basis of the numerical kernel of a square operator.

    The kernel is spanned by the right singular vectors whose singular
    values fall below ``tol * sigma_max``.  An invertible operator yields
    a zero-column isometry.
    """
    _, s, vh = np.linalg.svd(a.mat)
    s_max = float(s[0]) if s.size else 0.0
    if s_max == 0.0:
        w = np.eye(a.dim, dtype=complex)
    else:
        mask = s < tol * s_max
        w = vh[mask].conj().T
    d = w.shape[1]
    if 0 < d < a.dim:
        w = _canonical_basis_from_projector(w @ w.conj().T, d)
    return SubspaceIsometry(a.space, w)


def complement_basis(v: SubspaceIsometry) -> SubspaceIsometry:
    """Deterministic orthonormal basis of the orthogonal complement."""
    dim = v.space.dim
    d = dim - v.subspace_dim
    p = np.eye(dim, dtype=complex) - v.projector()
    return SubspaceIsometry(v.space, _canonical_basis_from_projector(p, d))


class ZenoSplit(_Immutable):
    """Pair of isometries onto the Zeno (slow) and fast subspaces."""

    __slots__ = ("v_z", "v_f")

    def __init__(self, v_z: SubspaceIsometry, v_f: SubspaceIsometry):
        if v_z.space != v_f.space:
            raise ValueError("Zeno and fast isometries must share the ambient space")
        if v_z.subspace_dim < 1:
            raise ValueError("the Zeno subspace must have dimension >= 1")
        if v_z.subspace_dim + v_f.subspace_dim != v_z.space.dim:
            raise ValueError(
                "subspace dimensions must sum to the ambient dimension "
                f"({v_z.subspace_dim} + {v_f.subspace_dim} != {v_z.space.dim})"
            )
        cross = v_z.cols.conj().T @ v_f.cols
        defect = float(np.max(np.abs(cross))) if cross.size else 0.0
        if defect > 1e-10:
            raise ValueError(f"subspace ranges are not orthogonal (defect {defect:.3e})")
        super().__init__(v_z=v_z, v_f=v_f)

    @classmethod
    def from_zeno(cls, v_z: SubspaceIsometry) -> "ZenoSplit":
        return cls(v_z, complement_basis(v_z))

    @classmethod
    def from_indices(cls, space: HilbertSpace, zeno_indices) -> "ZenoSplit":
        """Split along canonical basis vectors given by flat indices."""
        idx = [int(i) for i in zeno_indices]
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate basis indices in Zeno subspace")
        if any(i < 0 or i >= space.dim for i in idx):
            raise ValueError(f"basis index out of range for dimension {space.dim}")
        cols = np.zeros((space.dim, len(idx)), dtype=complex)
        for j, i in enumerate(idx):
            cols[i, j] = 1.0
        return cls.from_zeno(SubspaceIsometry(space, cols))

    @property
    def space(self) -> HilbertSpace:
        return self.v_z.space

    @property
    def dim_zeno(self) -> int:
        return self.v_z.subspace_dim

    @property
    def dim_fast(self) -> int:
        return self.v_f.subspace_dim

    @property
    def zeno_space(self) -> HilbertSpace:
        return self.v_z.subspace

    def __repr__(self):
        return f"ZenoSplit(zeno={self.dim_zeno}, fast={self.dim_fast})"


def block_split(x, split: ZenoSplit):
    """2x2 block decomposition of an operator induced by a split.

    ``x`` is an Operator on the split's space, or an array whose last two
    axes hold matrices on it (each is then split).  Returns the four
    blocks ``(x_zz, x_zf, x_fz, x_ff)`` as plain arrays (``x_ab = V_a^H
    X V_b``); off-diagonal blocks are rectangular in general.
    """
    if isinstance(x, Operator):
        if x.space != split.space:
            raise ValueError("operator and split live on different spaces")
        x = x.mat
    vz, vf = split.v_z.cols, split.v_f.cols
    return (
        vz.conj().T @ x @ vz,
        vz.conj().T @ x @ vf,
        vf.conj().T @ x @ vz,
        vf.conj().T @ x @ vf,
    )
