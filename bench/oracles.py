"""Reference physics built with numpy and scipy alone.

Nothing here imports ``zenoslh``.  The benchmark checks every CLI output
against these constructions:

- operators: truncated Fock annihilator, Pauli matrices, ketbras;
- scaled families (S, L1, L0, H2, H1, H0) for the model types the
  workloads generate, built from the same numeric parameters that go
  into the model files;
- Lindblad generators in row-major vectorisation,
  vec(A rho B) = (A kron B^T) vec(rho), the transpose of the program's
  convention, propagated with ``scipy.linalg.expm`` or
  ``scipy.sparse.linalg.expm_multiply``;
- the drift coefficients A, M, R of K(k) = k^2 A + k M + R, the kernel
  of A, and the Schur complement R_zz - M_zf A_ff^{-1} M_fz that the
  limit model must reproduce;
- spectral abscissae of the cleared linear block generator.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def destroy(n: int) -> np.ndarray:
    """Fock annihilator on number states 0 .. n-1."""
    return np.diag(np.sqrt(np.arange(1, n, dtype=float)), 1).astype(complex)


def ketbra(dim: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = 1.0
    return m


def kron(*ops) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for op in ops:
        out = np.kron(out, op)
    return out


def dag(m):
    return m.conj().T


# ---------------------------------------------------------------------------
# scaled families of the generated model types
# ---------------------------------------------------------------------------


def kerr_family(p: dict) -> dict:
    """Kerr mode: L0 = sqrt(kappa_i) a, H2 = chi0 a^H a^H a a, H0 = drive + detuning."""
    n = p["n_max"]
    a = destroy(n)
    ad = dag(a)
    alpha = complex(*p["alpha"])
    zero = np.zeros((n, n), dtype=complex)
    return {
        "S": [[np.eye(n, dtype=complex), zero], [zero, np.eye(n, dtype=complex)]],
        "L1": [zero, zero],
        "L0": [np.sqrt(p["kappa1"]) * a, np.sqrt(p["kappa2"]) * a],
        "H2": p["chi0"] * ad @ ad @ a @ a,
        "H1": zero,
        "H0": p["Delta"] * ad @ a
        - 1j * np.sqrt(p["kappa1"]) * (alpha * ad - alpha.conjugate() * a),
    }


def alkali_family(p: dict) -> dict:
    """Two-level atom with a spin, plus a spectator mode coupled to the spin in H0."""
    n = p["n_max"]
    i2, i_n = np.eye(2, dtype=complex), np.eye(n, dtype=complex)
    a = destroy(n)
    lower, excited = ketbra(2, 0, 1), ketbra(2, 1, 1)
    sig = {ax: kron(i2, PAULI[ax], i_n) for ax in "xyz"}
    sp_ = 0.5 * (PAULI["x"] + 1j * PAULI["y"])
    dim = 4 * n
    zero = np.zeros((dim, dim), dtype=complex)
    eye = np.eye(dim, dtype=complex)
    h0 = (
        p["Bx"] * sig["x"]
        + p["By"] * sig["y"]
        + p["Bz"] * sig["z"]
        + p["omega"] * kron(i2, i2, dag(a) @ a)
        + p["g"] * (kron(i2, sp_, a) + kron(i2, dag(sp_), dag(a)))
    )
    return {
        "S": [[eye if i == j else zero for j in range(3)] for i in range(3)],
        "L1": [np.sqrt(p["gamma"]) * kron(lower, PAULI[ax], i_n) for ax in "xyz"],
        "L0": [zero, zero, zero],
        "H2": p["Delta"] * kron(excited, i2, i_n),
        "H1": zero,
        "H0": h0,
    }


def lambda_family(p: dict) -> dict:
    """Lambda atom whose excited level exchanges photons with a damped mode."""
    n = p["n_max"]
    a = destroy(n)
    i3, i_n = np.eye(3, dtype=complex), np.eye(n, dtype=complex)
    r1 = kron(ketbra(3, 2, 0), a)
    r2 = kron(ketbra(3, 2, 1), i_n)
    alpha = complex(*p["alpha"])
    dim = 3 * n
    return {
        "S": [[np.eye(dim, dtype=complex)]],
        "L1": [np.sqrt(p["gamma"]) * kron(i3, a)],
        "L0": [np.zeros((dim, dim), dtype=complex)],
        "H2": 1j * p["g"] * (r1 - dag(r1)),
        "H1": 1j * (alpha * r2 - alpha.conjugate() * dag(r2)),
        "H0": np.zeros((dim, dim), dtype=complex),
    }


FAMILIES = {"kerr": kerr_family, "alkali": alkali_family, "lambda": lambda_family}


def family(spec: dict) -> dict:
    return FAMILIES[spec["type"]](spec)


def instantiate(fam: dict, k: float):
    """(H, [L_i]) of the concrete model at coupling strength k."""
    ls = [k * l1 + l0 for l1, l0 in zip(fam["L1"], fam["L0"])]
    h = k * k * fam["H2"] + k * fam["H1"] + fam["H0"]
    return h, ls


def drift_coefficients(fam: dict):
    """A, M, R with K(k) = -1/2 L(k)^H L(k) - i H(k) = k^2 A + k M + R."""
    l1, l0 = fam["L1"], fam["L0"]
    a = -0.5 * sum(dag(x) @ x for x in l1) - 1j * fam["H2"]
    m = -0.5 * sum(dag(x) @ y + dag(y) @ x for x, y in zip(l1, l0)) - 1j * fam["H1"]
    r = -0.5 * sum(dag(y) @ y for y in l0) - 1j * fam["H0"]
    return a, m, r


def kernel_dim(a: np.ndarray, rtol: float = 1e-10) -> int:
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s < rtol * s[0])) if s[0] > 0 else a.shape[0]


def complement(vz: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the columns of vz."""
    u, _, _ = np.linalg.svd(np.eye(vz.shape[0]) - vz @ dag(vz))
    return u[:, : vz.shape[0] - vz.shape[1]]


def schur_limit_drift(fam: dict, vz: np.ndarray) -> np.ndarray:
    """R_zz - M_zf A_ff^{-1} M_fz in the basis of the columns of vz."""
    a, m, r = drift_coefficients(fam)
    vf = complement(vz)
    a_ff = dag(vf) @ a @ vf
    m_zf = dag(vz) @ m @ vf
    m_fz = dag(vf) @ m @ vz
    return dag(vz) @ r @ vz - m_zf @ np.linalg.solve(a_ff, m_fz)


def limit_model(fam: dict, vz: np.ndarray):
    """(H_hat, [L_hat]) on the Zeno subspace, from the limit formulas."""
    a, m, _ = drift_coefficients(fam)
    vf = complement(vz)
    w = np.linalg.solve(dag(vf) @ a @ vf, dag(vf) @ m @ vz)
    ls = [dag(vz) @ l0 @ vz - dag(vz) @ l1 @ vf @ w for l1, l0 in zip(fam["L1"], fam["L0"])]
    y = (dag(vz) @ m @ vf) @ w
    h = dag(vz) @ fam["H0"] @ vz + (y - dag(y)) / 2j
    return h, ls


# ---------------------------------------------------------------------------
# Lindblad dynamics
# ---------------------------------------------------------------------------


def lindblad(h, ls, sparse: bool = False):
    """Generator of d rho/dt = -i[H, rho] + sum L rho L^H - 1/2 {L^H L, rho}.

    Acts on the row-major vectorisation of rho.
    """
    if sparse:
        h = sp.csr_matrix(h)
        ls = [sp.csr_matrix(x) for x in ls]
        eye = sp.identity(h.shape[0], dtype=complex, format="csr")
        k = sp.kron
    else:
        eye = np.eye(h.shape[0], dtype=complex)
        k = np.kron
    out = -1j * (k(h, eye) - k(eye, h.T))
    for x in ls:
        xd = x.conj().T
        xdx = xd @ x
        out = out + k(x, x.conj()) - 0.5 * k(xdx, eye) - 0.5 * k(eye, xdx.T)
    return out.tocsr() if sparse else out


def propagate(gen: np.ndarray, rho0: np.ndarray, t: float) -> np.ndarray:
    d = rho0.shape[0]
    return (scipy.linalg.expm(gen * t) @ rho0.reshape(-1)).reshape(d, d)


def propagate_grid(gen, rho0: np.ndarray, t_end: float, n_points: int) -> np.ndarray:
    """States at n_points equally spaced times on [0, t_end], shape (n, d, d)."""
    d = rho0.shape[0]
    out = expm_multiply(
        gen, rho0.reshape(-1), start=0.0, stop=t_end, num=n_points, endpoint=True
    )
    return out.reshape(n_points, d, d)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a Hermitian difference."""
    diff = a - b
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (diff + dag(diff))))))


# ---------------------------------------------------------------------------
# linear mean-field stability
# ---------------------------------------------------------------------------


def block_generator(g1, g2, g3, g4, k: float) -> np.ndarray:
    return np.block([[g1, g2], [k * k * g3, k * k * g4]])


def spectral_abscissa(m: np.ndarray) -> float:
    return float(np.max(np.linalg.eigvals(m).real))


def with_spectrum(rng, real_parts, spread: float = 0.3) -> np.ndarray:
    """Real matrix Q (D + N) Q^T with eigenvalues exactly ``real_parts``.

    D is diagonal, N strictly upper triangular and Q orthogonal, so the
    spectrum is known by construction.
    """
    n = len(real_parts)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    t = np.diag(np.asarray(real_parts, dtype=float))
    t += np.triu(rng.standard_normal((n, n)) * spread / np.sqrt(n), 1)
    return q @ t @ q.T
