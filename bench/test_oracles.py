"""The benchmark's oracles against closed forms.

    python3 -m pytest bench/test_oracles.py
"""

import numpy as np
import pytest

import oracles


def test_decaying_two_level_atom():
    gamma = 0.7
    lower = oracles.ketbra(2, 0, 1)
    rho0 = oracles.ketbra(2, 1, 1)
    h = np.zeros((2, 2), dtype=complex)
    ts = np.linspace(0.0, 3.0, 7)
    for sparse in (False, True):
        gen = oracles.lindblad(h, [np.sqrt(gamma) * lower], sparse=sparse)
        grid = oracles.propagate_grid(gen, rho0, ts[-1], len(ts))
        np.testing.assert_allclose(grid[:, 1, 1].real, np.exp(-gamma * ts), atol=1e-12)
        np.testing.assert_allclose(grid[:, 0, 0].real, 1 - np.exp(-gamma * ts), atol=1e-12)
    dense = oracles.lindblad(h, [np.sqrt(gamma) * lower])
    assert abs(oracles.propagate(dense, rho0, 1.3)[1, 1] - np.exp(-gamma * 1.3)) < 1e-12


def test_resonant_rabi_populations():
    omega = 2.3
    h = 0.5 * omega * oracles.PAULI["x"]
    gen = oracles.lindblad(h, [])
    rho0 = oracles.ketbra(2, 0, 0)
    for t in (0.1, 0.77, 2.0):
        rho = oracles.propagate(gen, rho0, t)
        assert abs(rho[1, 1].real - np.sin(omega * t / 2) ** 2) < 1e-12
        assert abs(np.trace(rho) - 1) < 1e-12


@pytest.mark.parametrize("a,b,c,d", [(-0.5, 0.3, 0.2, -1.0), (0.4, 1.0, -2.0, -0.3), (0.1, 0.0, 0.5, -2.0)])
def test_scalar_linstab_block(a, b, c, d):
    for k in (0.5, 1.0, 7.0):
        gen = oracles.block_generator(*(np.array([[x]]) for x in (a, b, c, d)), k)
        tr, det = a + k * k * d, k * k * (a * d - b * c)
        disc = np.sqrt(complex(tr * tr - 4 * det))
        expected = max(((tr + disc) / 2).real, ((tr - disc) / 2).real)
        assert abs(oracles.spectral_abscissa(gen) - expected) < 1e-12


def test_with_spectrum_has_the_prescribed_eigenvalues():
    rng = np.random.default_rng(3)
    want = np.sort(-rng.uniform(0.5, 2.0, 12))
    got = np.sort(np.linalg.eigvals(oracles.with_spectrum(rng, want)).real)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_schur_limit_is_the_optical_pumping_rate():
    # fast excited level e decays to g at rate gamma; a k-linear drive
    # Omega couples g and e.  Eliminating e leaves the decay 4 Omega^2 / gamma.
    gamma, omega = 1.7, 0.4
    zero = np.zeros((2, 2), dtype=complex)
    fam = {
        "L1": [np.sqrt(gamma) * oracles.ketbra(2, 0, 1)],
        "L0": [zero],
        "H2": zero,
        "H1": omega * oracles.PAULI["x"],
        "H0": zero,
    }
    vz = np.array([[1.0], [0.0]], dtype=complex)
    k_hat = oracles.schur_limit_drift(fam, vz)
    assert abs(k_hat[0, 0] - (-0.5 * 4 * omega**2 / gamma)) < 1e-12
    h, ls = oracles.limit_model(fam, vz)
    k_from_limit = -0.5 * sum(x.conj().T @ x for x in ls) - 1j * h
    np.testing.assert_allclose(k_from_limit, k_hat, atol=1e-12)


def test_kerr_limit_is_the_compressed_model():
    spec = {"n_max": 6, "chi0": 1.0, "Delta": 0.3, "kappa1": 1.1, "kappa2": 0.9, "alpha": [0.2, 0.05]}
    fam = oracles.kerr_family(spec)
    vz = np.eye(6, dtype=complex)[:, :2]
    a, _, _ = oracles.drift_coefficients(fam)
    assert oracles.kernel_dim(a) == 2
    h, ls = oracles.limit_model(fam, vz)
    np.testing.assert_allclose(h, fam["H0"][:2, :2], atol=1e-14)
    np.testing.assert_allclose(ls[0], np.sqrt(1.1) * oracles.ketbra(2, 0, 1), atol=1e-14)


def test_generator_preserves_trace():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = x + x.conj().T
    gen = oracles.lindblad(h, [rng.standard_normal((4, 4)) + 0j])
    rho = oracles.propagate(gen, np.eye(4) / 4, 0.8)
    assert abs(np.trace(rho) - 1) < 1e-12
    assert np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) > -1e-12
