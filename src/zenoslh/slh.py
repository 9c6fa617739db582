"""SLH triples, their derived generators, and network composition.

An open Markov model with n input channels is generated by a triple
(S, L, H): an n x n blockwise-unitary scattering matrix of operators, n
coupling operators, and a Hermitian Hamiltonian.  This module evaluates
the associated drift operator K = -1/2 sum_i L_i^H L_i - i H, the
Heisenberg-picture Lindbladian and its noise coefficients, and the two
network compositions (concatenation and cascade / series product).

A triple stores S as one read-only array ``s`` of shape (n, n, d, d) and
L as one read-only array ``l`` of shape (n, d, d).  ``S`` and ``L`` are
views: nested tuples of :class:`Operator` copied from the arrays on each
access.  The scaled family of :mod:`zenoslh.elimination` shares ``S``,
``n``, ``dim`` and the repr (the base ``_Model``) and K's formula
(``_drift``).  Channel sums are matmuls on these stacks followed by a
sum over the channel axis, added in the order of a term-by-term loop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .operators import HilbertSpace, Operator, _Immutable, zero

__all__ = [
    "SLHTriple",
    "HeisenbergCoefficients",
    "k_operator",
    "lindbladian",
    "heisenberg_coeffs",
    "concatenation",
    "series_product",
    "passthrough",
    "unitarity_defect",
    "hermiticity_defect",
    "UNITARITY_WARN_TOL",
    "UNITARITY_FAIL_TOL",
]

# Construction validates to the warn tolerance; deliberately perturbed
# inputs below the fail tolerance only trigger a warning.
UNITARITY_WARN_TOL = 1e-10
UNITARITY_FAIL_TOL = 1e-6


def hermiticity_defect(h: Operator) -> float:
    return float(np.max(np.abs(h.mat - h.mat.conj().T))) if h.mat.size else 0.0


def _adjoint(x: np.ndarray) -> np.ndarray:
    """Hermitian adjoint of every matrix in a stack."""
    return x.conj().swapaxes(-1, -2)


def _im(x: np.ndarray) -> np.ndarray:
    """Im{X} = (X - X^H) / 2i."""
    return (x - x.conj().T) / 2j


def _channel_sum(terms: np.ndarray, axis=0) -> np.ndarray:
    """Sum of a stack over one channel axis, added term by term onto zeros.

    This is the order of an accumulating loop, so results (signed zeros
    included) match ``acc = 0; acc += term`` bit for bit.
    """
    return np.add.reduce(terms, axis=axis, initial=0)


def _opmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Operator-matrix product (AB)_ik = sum_j A_ij B_jk of an (n, m, d, d)
    and an (m, p, d, d) stack.

    Loops over the contracted index j, adding onto zeros, so no
    n * m * p * d^2 temporary is formed.
    """
    out = np.zeros(a.shape[:1] + b.shape[1:], dtype=complex)
    for j in range(b.shape[0]):
        out += a[:, j, None] @ b[None, j]
    return out


def _operators(space: HilbertSpace, stack: np.ndarray):
    """Nested tuples of Operators (copies) of the matrices in a stack."""
    if stack.ndim == 2:
        return Operator(space, stack)
    return tuple(_operators(space, m) for m in stack)


def _scalar_blocks(s: np.ndarray):
    """The n x n matrix C if every block of the (n, n, d, d) stack ``s`` is
    exactly C_jk times the identity, else None; O(n^2 d^2)."""
    diag = s.diagonal(axis1=-2, axis2=-1)
    c = diag[..., 0]
    if np.count_nonzero(s) == np.count_nonzero(diag) and np.all(diag == c[..., None]):
        return c
    return None


def unitarity_defect(s) -> float:
    """Max-entry defect of sum_j S_ji^H S_jk - delta_ik I over all (i, k).

    ``s`` is an (n, n, d, d) array or an n x n nested sequence of
    Operators.  When every block S_jk is exactly C_jk times the identity,
    as for every shipped model, the defect is max |C^H C - 1| of the
    n x n matrix C, equal to the n^2 products of d x d blocks to rounding
    (exactly for entries 0 and +-1); any other S takes those products.
    """
    if not isinstance(s, np.ndarray):
        s = np.array([[op.mat for op in row] for row in s], dtype=complex)
    c = _scalar_blocks(s)
    if c is not None:
        return float(np.abs(c.conj().T @ c - np.eye(len(c))).max(initial=0.0))
    eye = np.eye(s.shape[-1])
    worst = 0.0
    for i in range(len(s)):
        # column i of S^H S: sum_j S_ji^H S_jk for every k
        col = _channel_sum(_adjoint(s[:, i, None]) @ s)
        col[i] -= eye
        worst = max(worst, float(np.max(np.abs(col))))
    return worst


def _stack(space: HilbertSpace, x, outer: tuple, what: str) -> np.ndarray:
    """Read-only complex array of shape outer + (d, d).

    ``x`` is such an array, or nested sequences of Operators on ``space``
    with lengths ``outer``.  Entries must be finite, as for an Operator.
    """
    shape = tuple(outer) + (space.dim, space.dim)
    if isinstance(x, np.ndarray):
        arr = np.array(x, dtype=complex)
    else:
        ops = [x]
        for size in outer:
            ops = [tuple(row) for row in ops]
            if any(len(row) != size for row in ops):
                raise ValueError(f"{what} must form an array of shape {shape}")
            ops = [op for row in ops for op in row]
        if any(not isinstance(op, Operator) or op.space != space for op in ops):
            raise ValueError(f"{what} must be operators on the common space")
        arr = np.array([op.mat for op in ops], dtype=complex).reshape(shape)
    if arr.shape != shape:
        raise ValueError(f"{what} must form an array of shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite (no NaN/Inf)")
    arr.setflags(write=False)
    return arr


def _validated(space: HilbertSpace, s, ls, hamiltonians: dict):
    """Stack and check the coefficients of a triple or a scaled family.

    ``ls`` lists coupling stacks of one channel count n and ``s`` is
    n x n; all are arrays or Operator sequences on ``space`` (see
    :func:`_stack`), and ``hamiltonians`` maps names to Operators.
    Unitarity and Hermiticity defects above UNITARITY_FAIL_TOL raise,
    defects above UNITARITY_WARN_TOL warn.  Returns the read-only stacks
    ``(s, ls)``.
    """
    ls = [l if isinstance(l, np.ndarray) else tuple(l) for l in ls]
    n = len(ls[0])
    if any(len(l) != n for l in ls):
        raise ValueError("L1 and L0 must have the same channel count")
    for name, h in hamiltonians.items():
        if not isinstance(h, Operator) or h.space != space:
            raise ValueError(f"{name} must be an operator on the common space")
    ls = [_stack(space, l, (n,), "coupling operators") for l in ls]
    s = _stack(space, s, (n, n), "scattering entries")

    u_defect = unitarity_defect(s)
    if u_defect > UNITARITY_FAIL_TOL:
        raise ValueError(f"scattering matrix is not blockwise unitary (defect {u_defect:.3e})")
    if u_defect > UNITARITY_WARN_TOL:
        warnings.warn(f"scattering matrix unitarity defect {u_defect:.3e}", stacklevel=3)
    for name, h in hamiltonians.items():
        defect = hermiticity_defect(h)
        if defect > UNITARITY_FAIL_TOL:
            raise ValueError(f"{name} is not Hermitian (defect {defect:.3e})")
        if defect > UNITARITY_WARN_TOL:
            warnings.warn(f"{name} hermiticity defect {defect:.3e}", stacklevel=3)
    return s, ls


class _Model(_Immutable):
    """Base of SLHTriple and ScaledSLHFamily, which both hold S as the
    read-only (n, n, d, d) array ``s`` on their common ``space``."""

    __slots__ = ()

    @property
    def S(self) -> tuple:
        """Scattering matrix as an n x n nested tuple of Operators."""
        return _operators(self.space, self.s)

    @property
    def n(self) -> int:
        return len(self.s)

    @property
    def dim(self) -> int:
        return self.space.dim

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, dim={self.dim})"


class SLHTriple(_Model):
    """Immutable (S, L, H) triple on a common Hilbert space.

    ``s`` (n, n, d, d) and ``l`` (n, d, d) are read-only arrays; ``S``
    and ``L`` are nested tuples of Operators copied from them on each
    access.  S and L may be given as such arrays or as (nested)
    sequences of Operators on H's space.

    Blockwise unitarity of S and Hermiticity of H are checked at
    construction: defects above 1e-6 are errors, defects above 1e-10 are
    reported as warnings so deliberately perturbed models remain usable.
    """

    __slots__ = ("s", "l", "H", "space")

    def __init__(self, s, l, h: Operator):
        space = h.space
        s, (l,) = _validated(space, s, (l,), {"Hamiltonian": h})
        super().__init__(s=s, l=l, H=h, space=space)

    @property
    def L(self) -> tuple:
        """Coupling operators as a tuple of Operators."""
        return _operators(self.space, self.l)


def _drift(l: np.ndarray, h: Operator) -> Operator:
    """-1/2 sum_i L_i^H L_i - i H for the coupling stack ``l`` (n, d, d).
    Entries that overflow raise Operator's ValueError, without numpy's
    warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = -0.5 * _channel_sum(_adjoint(l) @ l) - 1j * h.mat
    return Operator(h.space, m)


def k_operator(g: SLHTriple) -> Operator:
    """Drift coefficient K = -1/2 sum_i L_i^H L_i - i H; ValueError naming
    K if an entry overflows."""
    try:
        return _drift(g.l, g.H)
    except ValueError:  # the one check of an Operator formed so
        raise ValueError("drift coefficient K is not finite") from None


def lindbladian(g: SLHTriple, x: Operator) -> Operator:
    """Heisenberg generator
    LX = 1/2 sum_i L_i^H [X, L_i] + 1/2 sum_i [L_i^H, X] L_i - i [X, H].
    """
    if x.space != g.space:
        raise ValueError("observable lives on a different space than the model")
    xm, hm, lm = x.mat, g.H.mat, g.l
    ld = _adjoint(lm)
    terms = 0.5 * ld @ (xm @ lm - lm @ xm) + 0.5 * (ld @ xm - xm @ ld) @ lm
    out = -1j * (xm @ hm - hm @ xm) + _channel_sum(terms)
    return Operator(g.space, out)


@dataclass(frozen=True)
class HeisenbergCoefficients:
    """Coefficients of the Heisenberg quantum stochastic equation for one
    observable: the dt drift, and the gains multiplying the creation,
    annihilation and gauge noise increments."""

    drift: Operator
    creation_coeffs: tuple
    annihilation_coeffs: tuple
    gauge_coeffs: tuple


def heisenberg_coeffs(g: SLHTriple, x: Operator) -> HeisenbergCoefficients:
    """Evaluate LX, M_i X = S_ji^H [X, L_j], N_i X = [L_j^H, X] S_ji and
    S_ik X = S_ji^H X S_jk - delta_ik X (sums over repeated indices)."""
    drift = lindbladian(g, x)  # checks x's space
    xm, lm, s = x.mat, g.l, g.s
    ld, sd = _adjoint(lm), _adjoint(s)
    # leading axis j, second axis i
    creation = _channel_sum(sd @ (xm @ lm - lm @ xm)[:, None])
    annihilation = _channel_sum((ld @ xm - xm @ ld)[:, None] @ s)
    gauge = _opmul((sd @ xm).swapaxes(0, 1), s)
    gauge[range(g.n), range(g.n)] -= xm
    return HeisenbergCoefficients(
        drift=drift,
        creation_coeffs=_operators(g.space, creation),
        annihilation_coeffs=_operators(g.space, annihilation),
        gauge_coeffs=_operators(g.space, gauge),
    )


def concatenation(g1: SLHTriple, g2: SLHTriple) -> SLHTriple:
    """Parallel composition: channel counts add, S is block diagonal."""
    if g1.space != g2.space:
        raise ValueError("concatenation requires a common system space")
    n1, n = g1.n, g1.n + g2.n
    s = np.zeros((n, n, g1.dim, g1.dim), dtype=complex)
    s[:n1, :n1] = g1.s
    s[n1:, n1:] = g2.s
    return SLHTriple(s, np.concatenate((g1.l, g2.l)), g1.H + g2.H)


def _cascade(g1, g2, l1: np.ndarray, l2: np.ndarray):
    """Series product of two models (triples or scaled families) whose
    couplings are polynomials in k, the outputs of g1 feeding g2.

    ``l1`` and ``l2`` stack the coupling coefficients of g1 and g2 power
    by power, shape (m, n, d, d).  Returns S2 S1, the cascaded couplings
    L2 + S2 L1 of shape (m, n, d, d), and the (m, m, d, d) cross terms
    C_ab = sum_i L2a_i^H (S2 L1b)_i whose imaginary parts enter the
    cascaded Hamiltonian.
    """
    if g1.space != g2.space:
        raise ValueError("series product requires a common system space")
    if g1.n != g2.n:
        raise ValueError(f"channel count mismatch: {g1.n} vs {g2.n}")
    s2l1 = _channel_sum(g2.s @ l1[:, None], axis=2)
    cross = _channel_sum(_adjoint(l2)[:, None] @ s2l1[None], axis=2)
    return _opmul(g2.s, g1.s), l2 + s2l1, cross


def series_product(g1: SLHTriple, g2: SLHTriple) -> SLHTriple:
    """Cascade: the outputs of g1 feed the inputs of g2.

    S = S2 S1, L = L2 + S2 L1 and H = H1 + H2 + Im{sum_ij L2_i^H S2_ij
    L1_j} with Im{X} = (X - X^H) / 2i.
    """
    s, l, cross = _cascade(g1, g2, g1.l[None], g2.l[None])
    h = g1.H.mat + g2.H.mat + _im(cross[0, 0])
    return SLHTriple(s, l[0], Operator(g1.space, h))


def passthrough(space: HilbertSpace, n: int) -> SLHTriple:
    """Trivial n-channel model (S = I, L = 0, H = 0)."""
    d = space.dim
    s = np.multiply.outer(np.eye(n), np.eye(d))
    return SLHTriple(s, np.zeros((n, d, d)), zero(space))
