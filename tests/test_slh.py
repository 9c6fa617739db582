import numpy as np
import pytest

from zenoslh import (
    HilbertSpace,
    Operator,
    SLHTriple,
    basis_ketbra,
    concatenation,
    dissipator,
    heisenberg_coeffs,
    identity,
    k_operator,
    lindbladian,
    maximally_mixed,
    passthrough,
    series_product,
    zeno_eliminate,
    zero,
)
from zenoslh import slh
from zenoslh.master import DensityMatrix
from zenoslh.random_models import (
    random_complex_matrix,
    random_density_matrix,
    random_hermitian,
    random_unitary,
)
from zenoslh.slh import unitarity_defect

from common import alkali_family, entrymax, random_triple

QUBIT = HilbertSpace((2,))
SIGMA_OP = basis_ketbra(2, 0, 1)


def _qubit_decay(gamma=1.0):
    return SLHTriple(
        ((identity(QUBIT),),), (np.sqrt(gamma) * SIGMA_OP,), zero(QUBIT)
    )


def test_k_operator_trivial_and_qubit():
    g0 = passthrough(QUBIT, 1)
    assert entrymax(k_operator(g0)) == 0.0

    gamma = 1.7
    k = k_operator(_qubit_decay(gamma))
    assert entrymax(k, -(gamma / 2) * np.diag([0.0, 1.0])) < 1e-15


def test_k_operator_antihermitian_identity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = random_triple(rng, 4, 2)
        k = k_operator(g)
        acc = sum(op.mat.conj().T @ op.mat for op in g.L)
        assert entrymax(k.mat + k.mat.conj().T + acc) < 1e-13


def test_lindbladian_unitality_and_qubit():
    rng = np.random.default_rng(6)
    g = random_triple(rng, 3, 2)
    assert entrymax(lindbladian(g, identity(g.space))) < 1e-14

    gamma = 0.8
    gq = _qubit_decay(gamma)
    lx = lindbladian(gq, basis_ketbra(2, 1, 1))
    assert entrymax(lx, -gamma * np.diag([0.0, 1.0])) < 1e-15


def test_lindbladian_hamiltonian_only():
    rng = np.random.default_rng(7)
    h = Operator(QUBIT, random_hermitian(rng, 2))
    g = SLHTriple(((identity(QUBIT),),), (zero(QUBIT),), h)
    x = Operator(QUBIT, random_complex_matrix(rng, 2))
    expected = -1j * (x.mat @ h.mat - h.mat @ x.mat)
    assert entrymax(lindbladian(g, x), expected) < 1e-14


def test_lindbladian_preserves_hermiticity():
    rng = np.random.default_rng(8)
    g = random_triple(rng, 4, 2)
    for _ in range(50):
        x = Operator(g.space, random_complex_matrix(rng, 4))
        lhs = lindbladian(g, x.dag())
        rhs = lindbladian(g, x).dag()
        assert entrymax(lhs, rhs) < 1e-12


def test_heisenberg_gauge_vanishes_for_trivial_scattering():
    rng = np.random.default_rng(9)
    g = random_triple(rng, 3, 1)
    g = SLHTriple(((identity(g.space),),), g.L, g.H)
    rec = heisenberg_coeffs(g, identity(g.space))
    for row in rec.gauge_coeffs:
        for op in row:
            assert entrymax(op) < 1e-14


def test_heisenberg_creation_annihilation_adjoint_pair():
    # N_i X = (M_i(X^H))^H, channel by channel
    rng = np.random.default_rng(10)
    g = random_triple(rng, 4, 2)
    for _ in range(20):
        x = Operator(g.space, random_complex_matrix(rng, 4))
        rec = heisenberg_coeffs(g, x)
        rec_dag = heisenberg_coeffs(g, x.dag())
        for i in range(g.n):
            assert entrymax(rec.annihilation_coeffs[i], rec_dag.creation_coeffs[i].dag()) < 1e-12


def test_heisenberg_gauge_unitality_on_zeno_alkali():
    fam, split = alkali_family()
    g = zeno_eliminate(fam, split).zeno_triple
    rec = heisenberg_coeffs(g, identity(g.space))
    worst = max(entrymax(op) for row in rec.gauge_coeffs for op in row)
    assert worst < 1e-12


def test_concatenation():
    rng = np.random.default_rng(12)
    g = random_triple(rng, 3, 2)
    trivial = SLHTriple((), (), zero(g.space))
    out = concatenation(g, trivial)
    assert out.n == 2
    assert entrymax(out.H, g.H) == 0.0

    g2 = random_triple(rng, 3, 1)
    out = concatenation(g, g2)
    assert out.n == 3
    from zenoslh.slh import unitarity_defect

    assert unitarity_defect(out.S) < 1e-10
    assert entrymax(out.S[2][2], g2.S[0][0]) == 0.0
    assert entrymax(out.S[0][2]) == 0.0


def test_series_product_identity_and_hermiticity():
    rng = np.random.default_rng(13)
    g = random_triple(rng, 3, 2)
    out = series_product(g, passthrough(g.space, 2))
    assert entrymax(out.H, g.H) < 1e-14
    for i in range(2):
        assert entrymax(out.L[i], g.L[i]) < 1e-14
        for j in range(2):
            assert entrymax(out.S[i][j], g.S[i][j]) < 1e-14

    g2 = random_triple(rng, 3, 2)
    h = series_product(g, g2).H
    assert entrymax(h, h.dag()) < 1e-12


def test_series_product_channel_mismatch():
    rng = np.random.default_rng(14)
    with pytest.raises(ValueError):
        series_product(random_triple(rng, 3, 1), random_triple(rng, 3, 2))


def test_series_product_matches_expanded_formula():
    # independent evaluation on a 2-qubit cascade
    rng = np.random.default_rng(15)
    sp = HilbertSpace((2, 2))
    dim = 4

    def rand_triple():
        l = Operator(sp, random_complex_matrix(rng, dim))
        h = Operator(sp, random_hermitian(rng, dim))
        return SLHTriple(((identity(sp),),), (l,), h)

    g1, g2 = rand_triple(), rand_triple()
    cascade = series_product(g1, g2)

    l1, l2 = g1.L[0].mat, g2.L[0].mat
    l_exp = l2 + l1
    cross = l2.conj().T @ l1
    h_exp = g1.H.mat + g2.H.mat + (cross - cross.conj().T) / 2j
    assert entrymax(cascade.L[0], l_exp) < 1e-14
    assert entrymax(cascade.H, h_exp) < 1e-14

    x = Operator(sp, random_complex_matrix(rng, dim))
    manual = SLHTriple(((identity(sp),),), (Operator(sp, l_exp),), Operator(sp, h_exp))
    assert entrymax(lindbladian(cascade, x), lindbladian(manual, x)) < 1e-12


def test_series_product_two_channels_matches_formula():
    # S = S2 S1, L = L2 + S2 L1, H = H1 + H2 + Im{sum_ij L2_i^H S2_ij L1_j},
    # evaluated entry by entry with a random unitary channel mixing
    rng = np.random.default_rng(18)
    g1, g2 = random_triple(rng, 3, 2), random_triple(rng, 3, 2)
    out = series_product(g1, g2)
    n = 2
    cross = np.zeros((3, 3), dtype=complex)
    for i in range(n):
        for j in range(n):
            cross += g2.L[i].mat.conj().T @ g2.S[i][j].mat @ g1.L[j].mat
    h_exp = g1.H.mat + g2.H.mat + (cross - cross.conj().T) / 2j
    assert entrymax(out.H, h_exp) < 1e-12
    for i in range(n):
        l_exp = g2.L[i].mat + sum(g2.S[i][j].mat @ g1.L[j].mat for j in range(n))
        assert entrymax(out.L[i], l_exp) < 1e-12
        for k in range(n):
            s_exp = sum(g2.S[i][j].mat @ g1.S[j][k].mat for j in range(n))
            assert entrymax(out.S[i][k], s_exp) < 1e-12
    assert unitarity_defect(out.S) < 1e-12


def test_heisenberg_coeffs_three_channels_match_formulas():
    rng = np.random.default_rng(19)
    g = random_triple(rng, 3, 3)
    x = Operator(g.space, random_complex_matrix(rng, 3))
    rec = heisenberg_coeffs(g, x)
    xm, hm, n = x.mat, g.H.mat, 3
    ls = [op.mat for op in g.L]
    drift = -1j * (xm @ hm - hm @ xm)
    for lm in ls:
        ld = lm.conj().T
        drift += 0.5 * ld @ (xm @ lm - lm @ xm) + 0.5 * (ld @ xm - xm @ ld) @ lm
    assert entrymax(rec.drift, drift) < 1e-12
    for i in range(n):
        m_exp = sum(g.S[j][i].mat.conj().T @ (xm @ ls[j] - ls[j] @ xm) for j in range(n))
        n_exp = sum((ls[j].conj().T @ xm - xm @ ls[j].conj().T) @ g.S[j][i].mat for j in range(n))
        assert entrymax(rec.creation_coeffs[i], m_exp) < 1e-12
        assert entrymax(rec.annihilation_coeffs[i], n_exp) < 1e-12
        for k in range(n):
            gauge = sum(g.S[j][i].mat.conj().T @ xm @ g.S[j][k].mat for j in range(n))
            if i == k:
                gauge = gauge - xm
            assert entrymax(rec.gauge_coeffs[i][k], gauge) < 1e-12


def test_series_product_associative():
    rng = np.random.default_rng(16)
    gs = [random_triple(rng, 2, 1) for _ in range(3)]
    left = series_product(series_product(gs[0], gs[1]), gs[2])
    right = series_product(gs[0], series_product(gs[1], gs[2]))
    assert entrymax(left.H, right.H) < 1e-10
    assert entrymax(left.L[0], right.L[0]) < 1e-10
    assert entrymax(left.S[0][0], right.S[0][0]) < 1e-10


def test_trace_duality_with_dissipator():
    rng = np.random.default_rng(17)
    for _ in range(50):
        g = random_triple(rng, 3, 2)
        x = Operator(g.space, random_complex_matrix(rng, 3))
        rho = DensityMatrix(g.space, random_density_matrix(rng, 3))
        lhs = np.trace(rho.mat @ lindbladian(g, x).mat)
        rhs = np.trace(x.mat @ dissipator(g, rho).mat)
        assert abs(lhs - rhs) < 1e-10


def test_triple_validation_warns_then_fails():
    eps_warn = 1e-8
    sp = QUBIT
    s_bad = Operator(sp, (1 + eps_warn) * np.eye(2))
    with pytest.warns(UserWarning):
        SLHTriple(((s_bad,),), (zero(sp),), zero(sp))
    s_worse = Operator(sp, (1 + 1e-3) * np.eye(2))
    with pytest.raises(ValueError):
        SLHTriple(((s_worse,),), (zero(sp),), zero(sp))
    with pytest.raises(ValueError):
        SLHTriple(
            ((identity(sp),),),
            (zero(sp),),
            Operator(sp, [[0.0, 1e-3], [0.0, 0.0]]),
        )


def _by_products(monkeypatch, s):
    """unitarity_defect with its scalar-block path switched off, so that it
    takes the n^2 products of d x d blocks."""
    with monkeypatch.context() as m:
        m.setattr(slh, "_scalar_blocks", lambda s: None)
        return unitarity_defect(s)


def _scalar_cases():
    """(name, n x n scalar matrix C, whether its entries are 0 and +-1 only)."""
    rng = np.random.default_rng(41)
    perm = np.eye(4)[[2, 0, 3, 1]] * np.array([1, -1, 1, -1])
    yield "identity", np.eye(3), True
    yield "signed permutation", perm, True
    for n in (1, 2, 3, 5):
        for i in range(4):
            yield f"random {n}-{i}", random_unitary(rng, n), False


@pytest.mark.parametrize("d", [1, 3, 8])
def test_scalar_block_defect_is_that_of_the_block_products(monkeypatch, d):
    for name, c, exact in _scalar_cases():
        s = np.multiply.outer(c, np.eye(d)).astype(complex)
        assert np.array_equal(slh._scalar_blocks(s), c), name
        got, want = unitarity_defect(s), _by_products(monkeypatch, s)
        assert got == want if exact else abs(got - want) <= 4 * np.finfo(float).eps, name
        assert want < 1e-14


def test_a_block_that_is_not_scalar_takes_the_block_products(monkeypatch):
    s = np.multiply.outer(np.eye(2), np.eye(3)).astype(complex)
    s[1, 1, 0, 2] = 1e-8  # inside a diagonal block, off its diagonal
    assert slh._scalar_blocks(s) is None
    assert unitarity_defect(s) == _by_products(monkeypatch, s) == pytest.approx(1e-8)
    sp = HilbertSpace((3,))
    with pytest.warns(UserWarning, match="unitarity defect 1.000e-08"):
        SLHTriple(s, np.zeros((2, 3, 3)), zero(sp))
    s[1, 1, 0, 2] = 1e-5
    assert slh._scalar_blocks(s) is None
    with pytest.raises(ValueError, match="not blockwise unitary"):
        SLHTriple(s, np.zeros((2, 3, 3)), zero(sp))


def test_scalar_blocks_need_one_constant_diagonal():
    s = np.multiply.outer(np.eye(2), np.eye(3)).astype(complex)
    s[0, 1, 2, 2] = 1e-8  # a zero block whose diagonal is not constant
    assert slh._scalar_blocks(s) is None
    s[0, 1] = 1e-8 * np.eye(3)
    assert np.array_equal(slh._scalar_blocks(s), [[1, 1e-8], [0, 1]])


def test_mixed_state_helper():
    rho = maximally_mixed(QUBIT)
    assert abs(np.trace(rho.mat) - 1) < 1e-15
