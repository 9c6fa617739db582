import numpy as np
import pytest

from zenoslh import (
    DecouplingViolation,
    HilbertSpace,
    KernelViolation,
    Operator,
    ScaledSLHFamily,
    ScalingViolation,
    ZenoSplit,
    basis_ketbra,
    block_split,
    check_decoupling,
    check_kernel,
    check_scaling,
    expand_k,
    family_series_product,
    find_zeno_subspace,
    fock_annihilator,
    hat_operators,
    identity,
    instantiate,
    kernel_alignment,
    k_operator,
    pauli,
    series_product,
    tensor,
    zeno_eliminate,
    zero,
)
from zenoslh import elimination, load_model
from zenoslh.operators import kernel_basis
from zenoslh.random_models import (
    random_complex_matrix,
    random_hermitian,
    random_unitary,
    random_zenofiable_family,
)

from common import (
    MODELS,
    alkali_expected,
    alkali_family,
    entrymax,
    kerr_expected,
    kerr_family,
    lambda_expected,
    lambda_family,
)


def principal_angles(cols_a, cols_b):
    s = np.linalg.svd(cols_a.conj().T @ cols_b, compute_uv=False)
    return np.arccos(np.clip(s, -1.0, 1.0))


# ---------------------------------------------------------------------------
# instantiation and expansion
# ---------------------------------------------------------------------------


def test_instantiate_k_independent():
    fam, _ = kerr_family()
    flat = ScaledSLHFamily(
        fam.S, tuple(zero(fam.space) for _ in fam.L1), fam.L0,
        zero(fam.space), zero(fam.space), fam.H0,
    )
    g1 = instantiate(flat, 0.3)
    g2 = instantiate(flat, 9.0)
    assert entrymax(g1.H, g2.H) == 0.0
    assert entrymax(g1.L[0], g2.L[0]) == 0.0


def test_instantiate_kerr_hamiltonian_at_k1():
    chi0, delta, kappa1, alpha = 1.0, 0.3, 1.0, 0.2
    fam, _ = kerr_family(chi0=chi0, delta=delta, alpha=alpha)
    a = fock_annihilator(6)
    num = (a.dag() @ a).mat
    expected = (
        chi0 * (a.dag() @ a.dag() @ a @ a).mat
        + delta * num
        - 1j * np.sqrt(kappa1) * (alpha * a.dag().mat - alpha * a.mat)
    )
    assert entrymax(instantiate(fam, 1.0).H, expected) < 1e-14


def test_instantiate_linearity_and_domain():
    fam, _ = kerr_family()
    g2 = instantiate(fam, 2.0)
    expected_h = 4.0 * fam.H2.mat + 2.0 * fam.H1.mat + fam.H0.mat
    assert entrymax(g2.H, expected_h) < 1e-14
    expected_l = 2.0 * fam.L1[0].mat + fam.L0[0].mat
    assert entrymax(g2.L[0], expected_l) < 1e-14
    with pytest.raises(ValueError):
        instantiate(fam, 0.0)
    with pytest.raises(ValueError):
        instantiate(fam, -1.0)


def test_expand_k_closed_forms():
    fam, _ = kerr_family(n_max=6, chi0=1.0)
    a = fock_annihilator(6)
    num = (a.dag() @ a).mat
    assert entrymax(expand_k(fam).quadratic, -1j * num @ (num - np.eye(6))) < 1e-13

    gamma, delta = 1.0, 0.5
    fam_a, _ = alkali_family(gamma=gamma, delta=delta)
    expected = -(1.5 * gamma + 1j * delta) * np.kron(np.diag([0.0, 1.0]), np.eye(2))
    assert entrymax(expand_k(fam_a).quadratic, expected) < 1e-13

    gamma, g = 1.0, 2.0
    fam_l = lambda_family(gamma=gamma, g=g, n_max=4)
    a4 = fock_annihilator(4)
    i3 = identity(HilbertSpace((3,)))
    expected = (-0.5 * gamma) * tensor(i3, a4.dag() @ a4).mat + g * (
        tensor(basis_ketbra(3, 2, 0), a4).mat - tensor(basis_ketbra(3, 0, 2), a4.dag()).mat
    )
    assert entrymax(expand_k(fam_l).quadratic, expected) < 1e-13


@pytest.mark.parametrize("k", [0.5, 1.0, 3.7, 7.0])
def test_expand_k_reconstructs_drift(k):
    rng = np.random.default_rng(21)
    fam, _ = random_zenofiable_family(rng, 2, 3, 2)
    exp = expand_k(fam)
    rebuilt = (k * k) * exp.quadratic.mat + k * exp.linear.mat + exp.constant.mat
    assert entrymax(rebuilt, k_operator(instantiate(fam, k)).mat) < 1e-9


# ---------------------------------------------------------------------------
# conditions
# ---------------------------------------------------------------------------


def test_check_scaling_fixture_models():
    fam, split = kerr_family()
    assert check_scaling(fam, split) < 1e-14
    fam_a, split_a = alkali_family()
    assert check_scaling(fam_a, split_a) < 1e-14
    fam_l = lambda_family()
    assert check_scaling(fam_l, find_zeno_subspace(fam_l)) < 1e-14


def test_check_scaling_violation_is_order_one():
    sp = HilbertSpace((4,))
    split = ZenoSplit.from_indices(sp, [0, 1])
    fam = ScaledSLHFamily(
        ((identity(sp),),),
        (identity(sp),),  # k-linear coupling acts on the whole space
        (zero(sp),),
        zero(sp), zero(sp), zero(sp),
    )
    assert check_scaling(fam, split) == pytest.approx(1.0)


def test_check_kernel_values():
    fam, split = kerr_family(n_max=5, chi0=1.0)
    exp = expand_k(fam)
    assert check_kernel(exp, split) == pytest.approx(2.0, abs=1e-12)
    assert kernel_alignment(exp, split) < 1e-14

    fam_a, split_a = alkali_family(gamma=1.0, delta=0.5)
    assert check_kernel(expand_k(fam_a), split_a) == pytest.approx(abs(1.5 + 0.5j), abs=1e-12)


def test_check_kernel_detects_enlarged_kernel():
    # third kernel vector outside V_z: A = -i diag(0, 0, 0, 1)
    sp = HilbertSpace((4,))
    split = ZenoSplit.from_indices(sp, [0, 1])
    h2 = Operator(sp, np.diag([0.0, 0.0, 0.0, 1.0]))
    fam = ScaledSLHFamily(
        ((identity(sp),),), (zero(sp),), (zero(sp),), h2, zero(sp), zero(sp)
    )
    sigma_min = check_kernel(expand_k(fam), split)
    assert sigma_min < 1e-12
    with pytest.raises(KernelViolation):
        zeno_eliminate(fam, split)


def test_kernel_misalignment_is_an_error_not_a_rotation():
    # a split not aligned with ker A must fail loudly, never be rotated;
    # the scaling residual catches it first because V_z leaves ker H2
    fam, _ = kerr_family()
    bad = ZenoSplit.from_indices(fam.space, [0, 2])  # wrong second vector
    with pytest.raises((ScalingViolation, KernelViolation)):
        zeno_eliminate(fam, bad)

    # a strict sub-split of the kernel passes scaling but leaves kernel
    # directions in the fast block: singular A_ff, flagged as kernel failure
    sub = ZenoSplit.from_indices(fam.space, [0])
    with pytest.raises(KernelViolation):
        zeno_eliminate(fam, sub)


# ---------------------------------------------------------------------------
# hat operators
# ---------------------------------------------------------------------------


def test_hat_hamiltonian_is_schur_complement():
    # no scattering, trivial damping: H comes out as the shorted block matrix
    rng = np.random.default_rng(22)
    dz, df = 2, 3
    sp = HilbertSpace((dz + df,))
    split = ZenoSplit.from_indices(sp, range(dz))

    h2_ff = random_hermitian(rng, df) + 4 * np.eye(df)
    h1_zf = random_complex_matrix(rng, dz, df)
    h0_zz = random_hermitian(rng, dz)

    def pad(zz, zf, fz, ff):
        m = np.zeros((dz + df, dz + df), dtype=complex)
        if zz is not None:
            m[:dz, :dz] = zz
        if zf is not None:
            m[:dz, dz:] = zf
        if fz is not None:
            m[dz:, :dz] = fz
        if ff is not None:
            m[dz:, dz:] = ff
        return Operator(sp, m)

    fam = ScaledSLHFamily(
        ((identity(sp),),),
        (zero(sp),),
        (zero(sp),),
        pad(None, None, None, h2_ff),
        pad(None, h1_zf, h1_zf.conj().T, None),
        pad(h0_zz, None, None, None),
    )
    hats = hat_operators(fam, split)
    schur = h0_zz - h1_zf @ np.linalg.solve(h2_ff, h1_zf.conj().T)
    assert entrymax(hats.h_zeno, schur) < 1e-10


def test_hat_operators_lambda_closed_form():
    gamma, g, alpha = 1.0, 2.0, 0.4
    fam = lambda_family(gamma=gamma, g=g, alpha=alpha)
    split = find_zeno_subspace(fam)
    hats = hat_operators(fam, split)
    s_exp, l_exp, h_exp = lambda_expected(gamma, g, alpha)
    vz = split.v_z
    assert entrymax(vz.compress(hats.s_hat[0][0]), s_exp) < 1e-12
    assert entrymax(vz.compress(hats.l_hat[0]), l_exp) < 1e-12
    assert entrymax(hats.h_zeno, h_exp) < 1e-12


def test_hat_operators_alkali_closed_form():
    fam, split = alkali_family()
    hats = hat_operators(fam, split)
    s_exp, _, h_exp = alkali_expected()
    vz = split.v_z
    for j in range(3):
        for k in range(3):
            assert entrymax(vz.compress(hats.s_hat[j][k]), s_exp[j][k]) < 1e-12
        assert entrymax(vz.compress(hats.l_hat[j])) < 1e-12
    assert entrymax(hats.h_zeno, h_exp) < 1e-12


def test_check_decoupling_flags_scattering_between_sectors():
    # single channel whose scattering swaps the Zeno and fast basis vectors
    sp = HilbertSpace((2,))
    split = ZenoSplit.from_indices(sp, [0])
    fam = ScaledSLHFamily(
        ((pauli("x"),),),
        (zero(sp),),
        (zero(sp),),
        Operator(sp, np.diag([0.0, 1.0])),
        zero(sp),
        zero(sp),
    )
    hats = hat_operators(fam, split)
    assert check_decoupling(hats) == pytest.approx(1.0)
    with pytest.raises(DecouplingViolation):
        zeno_eliminate(fam, split)


def test_check_decoupling_zero_on_fixtures():
    fam, split = kerr_family()
    assert check_decoupling(hat_operators(fam, split)) < 1e-14
    fam_l = lambda_family()
    split_l = find_zeno_subspace(fam_l)
    assert check_decoupling(hat_operators(fam_l, split_l)) < 1e-13


# ---------------------------------------------------------------------------
# full elimination
# ---------------------------------------------------------------------------


def test_zeno_eliminate_kerr():
    fam, split = kerr_family()
    res = zeno_eliminate(fam, split)
    s_exp, l_exp, h_exp = kerr_expected()
    t = res.zeno_triple
    for j in range(2):
        for k in range(2):
            assert entrymax(t.S[j][k], s_exp[j][k]) < 1e-12
        assert entrymax(t.L[j], l_exp[j]) < 1e-12
    assert entrymax(t.H, h_exp) < 1e-12
    assert set(res.residuals) >= {
        "scaling_residual",
        "kernel_min_singular_value",
        "decoupling_residual",
    }


def test_zeno_eliminate_alkali():
    fam, split = alkali_family()
    res = zeno_eliminate(fam, split)
    s_exp, _, h_exp = alkali_expected()
    for j in range(3):
        for k in range(3):
            assert entrymax(res.zeno_triple.S[j][k], s_exp[j][k]) < 1e-12
        assert entrymax(res.zeno_triple.L[j]) < 1e-12
    assert entrymax(res.zeno_triple.H, h_exp) < 1e-12


def test_zeno_eliminate_expands_k_once(monkeypatch):
    calls = []

    def counting_expand_k(family):
        calls.append(family)
        return expand_k(family)

    monkeypatch.setattr(elimination, "expand_k", counting_expand_k)
    fam, split = kerr_family()
    zeno_eliminate(fam, split)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["kerr_qubit", "lambda_system", "alkali"])
def test_find_zeno_subspace_skips_the_full_expansion(monkeypatch, name):
    fam = load_model(MODELS / f"{name}.model").family
    # the split as find_zeno_subspace formed it from the whole expansion
    before = ZenoSplit.from_zeno(kernel_basis(expand_k(fam).quadratic, 1e-10))

    def no_expand_k(family):
        raise AssertionError("find_zeno_subspace expanded K(k) in full")

    monkeypatch.setattr(elimination, "expand_k", no_expand_k)
    split = find_zeno_subspace(fam)
    assert np.array_equal(split.v_z.cols, before.v_z.cols)
    assert split.zeno_space == before.zeno_space


def test_zeno_eliminate_scaling_violation():
    sp = HilbertSpace((3,))
    split = ZenoSplit.from_indices(sp, [0])
    fam = ScaledSLHFamily(
        ((identity(sp),),), (identity(sp),), (zero(sp),),
        zero(sp), zero(sp), zero(sp),
    )
    with pytest.raises(ScalingViolation) as exc:
        zeno_eliminate(fam, split)
    assert exc.value.residual == pytest.approx(1.0)
    assert "scaling_residual" in exc.value.residuals


def test_limit_scattering_unitary_on_random_models():
    rng = np.random.default_rng(23)
    for trial in range(50):
        dz = 1 + trial % 3
        df = 1 + (trial // 3) % 3
        n = 1 + trial % 2
        fam, split = random_zenofiable_family(rng, dz, df, n)
        res = zeno_eliminate(fam, split)
        t = res.zeno_triple
        # construction of SLHTriple validates blockwise unitarity at 1e-10;
        # verify explicitly at 1e-9 anyway
        worst = 0.0
        for i in range(n):
            for k in range(n):
                acc = sum(t.S[j][i].mat.conj().T @ t.S[j][k].mat for j in range(n))
                if i == k:
                    acc = acc - np.eye(dz)
                worst = max(worst, entrymax(acc))
        assert worst < 1e-9
        assert entrymax(t.H, t.H.dag()) < 1e-10


def test_kernel_scale_covariance():
    rng = np.random.default_rng(24)
    fam, split = random_zenofiable_family(rng, 2, 3, 1)
    for c in (0.37, 5.0):
        scaled = ScaledSLHFamily(
            fam.S,
            tuple(c * op for op in fam.L1),
            fam.L0,
            c * fam.H2,
            fam.H1,
            fam.H0,
        )
        v1 = find_zeno_subspace(fam).v_z.cols
        v2 = find_zeno_subspace(scaled).v_z.cols
        assert np.max(principal_angles(v1, v2)) < 1e-8


def test_find_zeno_subspace():
    fam = lambda_family(n_max=3)
    split = find_zeno_subspace(fam)
    assert split.dim_zeno == 2
    expected = np.zeros((9, 2), dtype=complex)
    expected[0, 0] = 1.0  # |g1, 0>
    expected[3, 1] = 1.0  # |g2, 0>
    assert np.max(principal_angles(expected, split.v_z.cols)) < 1e-10

    fam_k, _ = kerr_family()
    split_k = find_zeno_subspace(fam_k)
    assert entrymax(split_k.v_z.cols, np.eye(6)[:, :2]) < 1e-12

    # strictly negative-definite k^2 coefficient: trivial kernel
    sp = HilbertSpace((3,))
    fam_bad = ScaledSLHFamily(
        ((identity(sp),),), (zero(sp),), (zero(sp),),
        identity(sp), zero(sp), zero(sp),
    )
    with pytest.raises(ValueError):
        find_zeno_subspace(fam_bad)


def test_find_zeno_subspace_needs_fast_space():
    sp = HilbertSpace((3,))
    fam = ScaledSLHFamily(
        ((identity(sp),),), (zero(sp),), (zero(sp),),
        zero(sp), zero(sp), zero(sp),
    )
    with pytest.raises(ValueError):
        find_zeno_subspace(fam)


def test_family_series_product_commutes_with_instantiation():
    rng = np.random.default_rng(25)
    f1, _ = random_zenofiable_family(rng, 2, 2, 1)
    f2, _ = random_zenofiable_family(rng, 1, 3, 1)
    sp1, sp2 = f1.space, f2.space
    lifted1 = f1.map_operators(lambda x: tensor(x, identity(sp2)))
    lifted2 = f2.map_operators(lambda x: tensor(identity(sp1), x))
    casc = family_series_product(lifted1, lifted2)
    for k in (0.6, 1.0, 4.2):
        direct = series_product(instantiate(lifted1, k), instantiate(lifted2, k))
        via_family = instantiate(casc, k)
        assert entrymax(via_family.H, direct.H) < 1e-12
        assert entrymax(via_family.L[0], direct.L[0]) < 1e-12
        assert entrymax(via_family.S[0][0], direct.S[0][0]) < 1e-12


def _random_two_channel_family(rng, dim):
    # S = u x I with a random 2 x 2 unitary u, every other coefficient random
    sp = HilbertSpace((dim,))
    u = random_unitary(rng, 2)
    s = tuple(tuple(Operator(sp, u[j, k] * np.eye(dim)) for k in range(2)) for j in range(2))
    l1 = tuple(Operator(sp, random_complex_matrix(rng, dim)) for _ in range(2))
    l0 = tuple(Operator(sp, random_complex_matrix(rng, dim)) for _ in range(2))
    h2, h1, h0 = (Operator(sp, random_hermitian(rng, dim)) for _ in range(3))
    return ScaledSLHFamily(s, l1, l0, h2, h1, h0)


def test_family_series_product_two_channels_matches_series_product():
    rng = np.random.default_rng(27)
    f1, f2 = _random_two_channel_family(rng, 3), _random_two_channel_family(rng, 3)
    casc = family_series_product(f1, f2)
    for k in (0.6, 1.0, 4.2):
        direct = series_product(instantiate(f1, k), instantiate(f2, k))
        via_family = instantiate(casc, k)
        assert entrymax(via_family.H, direct.H) < 1e-11
        for j in range(2):
            assert entrymax(via_family.L[j], direct.L[j]) < 1e-12
            for m in range(2):
                assert entrymax(via_family.S[j][m], direct.S[j][m]) < 1e-12


def test_block_structure_of_expansion_after_conditions():
    # once scaling + kernel hold, A is fast-only and M has no Zeno-Zeno block
    rng = np.random.default_rng(26)
    fam, split = random_zenofiable_family(rng, 2, 2, 2)
    exp = expand_k(fam)
    a_zz, a_zf, a_fz, _ = block_split(exp.quadratic, split)
    m_zz = block_split(exp.linear, split)[0]
    for blk in (a_zz, a_zf, a_fz, m_zz):
        assert entrymax(blk) < 1e-12
