"""Shared fixture models and small helpers for the test suite."""

import os
import signal
from pathlib import Path

import numpy as np

from zenoslh import (
    HilbertSpace,
    Operator,
    ScaledSLHFamily,
    SLHTriple,
    ZenoSplit,
    basis_ketbra,
    fock_annihilator,
    identity,
    pauli,
    tensor,
    zero,
)
from zenoslh import master, outputs
from zenoslh.random_models import random_complex_matrix, random_hermitian, random_unitary

MODELS = Path(__file__).resolve().parents[1] / "models"

SIGMA = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def entrymax(a, b=None) -> float:
    am = a.mat if hasattr(a, "mat") else np.asarray(a)
    if b is None:
        return float(np.max(np.abs(am))) if am.size else 0.0
    bm = b.mat if hasattr(b, "mat") else np.asarray(b)
    return float(np.max(np.abs(am - bm))) if am.size else 0.0


def kerr_family(n_max=6, chi0=1.0, delta=0.3, kappas=(1.0, 1.0), alpha=0.2):
    """Driven Kerr cavity whose strong-nonlinearity limit is a qubit."""
    a = fock_annihilator(n_max)
    sp = a.space
    eye, z = identity(sp), zero(sp)
    h2 = chi0 * (a.dag() @ a.dag() @ a @ a)
    h0 = delta * (a.dag() @ a) - 1j * np.sqrt(kappas[0]) * (
        alpha * a.dag() - np.conj(alpha) * a
    )
    fam = ScaledSLHFamily(
        ((eye, z), (z, eye)),
        (z, z),
        tuple(np.sqrt(k) * a for k in kappas),
        h2,
        z,
        h0,
    )
    return fam, ZenoSplit.from_indices(sp, [0, 1])


def kerr_expected(delta=0.3, kappas=(1.0, 1.0), alpha=0.2):
    s = [[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]]
    l = [np.sqrt(k) * SIGMA for k in kappas]
    h = delta * SIGMA.conj().T @ SIGMA - 1j * np.sqrt(kappas[0]) * (
        alpha * SIGMA.conj().T - np.conj(alpha) * SIGMA
    )
    return s, l, h


def alkali_family(gamma=1.0, delta=0.5, b=(0.1, 0.2, 0.3)):
    """Two-level electron with spin 1/2; strong decay freezes the ground manifold."""
    lev = HilbertSpace((2,))
    lower = basis_ketbra(2, 0, 1)
    excited = basis_ketbra(2, 1, 1)
    i2 = identity(lev)
    paulis = [pauli(ax) for ax in "xyz"]
    l1 = tuple(np.sqrt(gamma) * tensor(lower, s) for s in paulis)
    sp = l1[0].space
    z, eye = zero(sp), identity(sp)
    h2 = delta * tensor(excited, i2)
    h0 = z
    for bj, s in zip(b, paulis):
        h0 = h0 + bj * tensor(i2, s)
    fam = ScaledSLHFamily(
        tuple(tuple(eye if i == j else z for j in range(3)) for i in range(3)),
        l1,
        (z, z, z),
        h2,
        z,
        h0,
    )
    return fam, ZenoSplit.from_indices(sp, [0, 1])


def alkali_expected(gamma=1.0, delta=0.5, b=(0.1, 0.2, 0.3)):
    w = gamma / (1.5 * gamma + 1j * delta)
    paulis = [pauli(ax).mat for ax in "xyz"]
    s = [
        [(1.0 if j == k else 0.0) * np.eye(2) - w * paulis[j] @ paulis[k] for k in range(3)]
        for j in range(3)
    ]
    l = [np.zeros((2, 2), dtype=complex)] * 3
    h = sum(bj * sj for bj, sj in zip(b, paulis))
    return s, l, h


def lambda_family(gamma=1.0, g=2.0, alpha=0.4, n_max=4):
    """Three-level atom in a lossy cavity; two dark ground states survive."""
    lev = HilbertSpace((3,))
    a = fock_annihilator(n_max)
    i3, im = identity(lev), identity(a.space)
    l1 = (np.sqrt(gamma) * tensor(i3, a),)
    sp = l1[0].space
    z, eye = zero(sp), identity(sp)
    raise_g1 = tensor(basis_ketbra(3, 2, 0), a)
    raise_g2 = tensor(basis_ketbra(3, 2, 1), im)
    h2 = 1j * g * (raise_g1 - raise_g1.dag())
    h1 = 1j * (alpha * raise_g2 - np.conj(alpha) * raise_g2.dag())
    return ScaledSLHFamily(((eye,),), l1, (z,), h2, h1, z)


def lambda_expected(gamma=1.0, g=2.0, alpha=0.4):
    # closed form in the (|g1,0>, |g2,0>) basis; only quoted for gamma = 1
    s = np.diag([1.0, -1.0]).astype(complex)
    l = -(gamma * alpha / g) * SIGMA
    h = np.zeros((2, 2), dtype=complex)
    return s, l, h


def random_triple(rng, dim, n_channels=1) -> SLHTriple:
    """Valid random triple: scalar-unitary channel mixing times one unitary."""
    sp = HilbertSpace((dim,))
    u = random_unitary(rng, n_channels) if n_channels > 1 else np.ones((1, 1))
    w = random_unitary(rng, dim)
    s = tuple(
        tuple(Operator(sp, u[j, k] * w) for k in range(n_channels)) for j in range(n_channels)
    )
    l = tuple(Operator(sp, random_complex_matrix(rng, dim)) for _ in range(n_channels))
    h = Operator(sp, random_hermitian(rng, dim))
    return SLHTriple(s, l, h)


def forking(monkeypatch):
    """The CSV writers free to fork, as on a one-thread process with two
    usable CPUs; returns the list of the formatter children's pids, which
    grows as they are forked."""
    monkeypatch.setattr(master, "_one_thread", lambda: True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pids, fork = [], outputs._fork

    def recorded(children, body):
        pids.append(fork(children, body))
        return pids[-1]

    monkeypatch.setattr(outputs, "_fork", recorded)
    return pids


def kill_the_formatter(monkeypatch):
    """A forked formatter kills itself with SIGKILL at its first block."""
    parent, text = os.getpid(), outputs._block_text

    def dying(a):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return text(a)

    monkeypatch.setattr(outputs, "_block_text", dying)
