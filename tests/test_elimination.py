import importlib.util
import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from zenoslh import (
    DecouplingViolation,
    HilbertSpace,
    KernelViolation,
    Operator,
    ScaledSLHFamily,
    ScalingViolation,
    SubspaceIsometry,
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
from zenoslh.operators import _canonical_basis_from_projector, kernel_basis
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


@pytest.mark.parametrize("k", [1e160, float("inf"), float("nan")])
def test_instantiate_rejects_k_whose_square_is_not_finite(k):
    fam, _ = kerr_family()
    with pytest.raises(ValueError, match=r"k = .*: k\*\*2 is not a finite float"):
        instantiate(fam, k)


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


def test_condition_number_guard_on_the_fast_block():
    # A_ff = -i diag(1e5, 2e-8): sigma_min passes the kernel tolerance, but
    # the condition number 5e12 trips the guard before any solve
    sp = HilbertSpace((4,))
    split = ZenoSplit.from_indices(sp, [0, 1])

    def family(h2_fast):
        h2 = Operator(sp, np.diag([0.0, 0.0, *h2_fast]))
        return ScaledSLHFamily(
            ((identity(sp),),), (zero(sp),), (zero(sp),), h2, zero(sp), zero(sp)
        )

    with pytest.raises(KernelViolation, match="numerically singular") as err:
        zeno_eliminate(family([1e5, 2e-8]), split)
    assert err.value.residual == pytest.approx(2e-8, rel=1e-12)
    # hat_operators skips the kernel check; a zero fast block (condition
    # number inf) still raises, with residual 0
    with pytest.raises(KernelViolation, match="numerically singular") as err:
        hat_operators(family([0.0, 0.0]), split)
    assert err.value.residual == 0.0


def test_condition_number_violation_carries_the_residuals():
    # the guard fires after the scaling and kernel checks, whose residuals
    # the error carries like every other violation
    sp = HilbertSpace((4,))
    h2 = Operator(sp, np.diag([0.0, 0.0, 1e5, 2e-8]))
    fam = ScaledSLHFamily(((identity(sp),),), (zero(sp),), (zero(sp),), h2, zero(sp), zero(sp))
    with pytest.raises(KernelViolation, match="numerically singular") as err:
        zeno_eliminate(fam, ZenoSplit.from_indices(sp, [0, 1]))
    res = err.value.residuals
    assert set(res) == {"scaling_residual", "kernel_min_singular_value", "kernel_alignment"}
    assert res["scaling_residual"] == 0.0 and res["kernel_alignment"] == 0.0
    assert res["kernel_min_singular_value"] == pytest.approx(2e-8, rel=1e-12)


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


def test_nan_tolerances_fail_every_condition():
    # every condition is the comparison that must hold, so a NaN tolerance
    # fails the first one instead of passing all four
    sp = HilbertSpace((3,))
    split = ZenoSplit.from_indices(sp, [0])
    fam = ScaledSLHFamily(
        ((identity(sp),),), (identity(sp),), (zero(sp),),
        zero(sp), zero(sp), zero(sp),
    )
    nan = float("nan")
    with pytest.raises(ScalingViolation):
        zeno_eliminate(fam, split, scaling_tol=nan, kernel_tol=nan, decoupling_tol=nan)
    fam_k, split_k = kerr_family()
    with pytest.raises(KernelViolation):
        zeno_eliminate(fam_k, split_k, kernel_tol=nan)
    with pytest.raises(DecouplingViolation):
        zeno_eliminate(fam_k, split_k, decoupling_tol=nan)


def test_residuals_propagate_nan():
    fam, split = kerr_family()
    hats = hat_operators(fam, split)
    s = hats.s.copy()
    s[0, 0, 0, -1] = np.nan  # a Zeno-fast scattering entry
    assert np.isnan(check_decoupling(replace(hats, s=s)))


def test_find_zeno_subspace_kernel_violation_carries_the_dimension():
    sp = HilbertSpace((3,))
    for h2, dim in ((identity(sp), 0), (zero(sp), 3)):
        fam = ScaledSLHFamily(((identity(sp),),), (zero(sp),), (zero(sp),), h2, zero(sp), zero(sp))
        with pytest.raises(KernelViolation) as err:
            find_zeno_subspace(fam)
        assert err.value.residual == dim
        assert err.value.residuals == {}


# ---------------------------------------------------------------------------
# evaluation orders: the block order against the full-space reference
# ---------------------------------------------------------------------------


def _eliminate_by(monkeypatch, method, family, split, **tols):
    """zeno_eliminate with its evaluation order forced to ``method``."""
    monkeypatch.setattr(elimination, "_elimination_method", lambda d: method)
    return zeno_eliminate(family, split, **tols)


def _with_scattering(family, split, rng, decoupled):
    """``family`` with S_jk = u_jk W for a random channel unitary u and a
    random unitary W, which keeps the Zeno and fast subspaces apart iff
    ``decoupled``.  Otherwise the couplings also gain random fast <- fast
    (k-linear) and fast <- Zeno (k^0) parts, so that every term of S-hat_zf,
    S-hat_fz and L-hat_fz is nonzero."""
    n, d, d_z, d_f = family.n, family.dim, split.dim_zeno, split.dim_fast
    vz, vf = split.v_z.cols, split.v_f.cols
    l1, l0 = family.l1, family.l0
    if decoupled:
        w = (vz @ random_unitary(rng, d_z) @ vz.conj().T
             + vf @ random_unitary(rng, d_f) @ vf.conj().T)
    else:
        w = random_unitary(rng, d)
        l1 = l1 + np.stack([vf @ random_complex_matrix(rng, d_f) @ vf.conj().T for _ in range(n)])
        l0 = l0 + np.stack(
            [vf @ random_complex_matrix(rng, d_f, d_z) @ vz.conj().T for _ in range(n)]
        )
    s = random_unitary(rng, n)[:, :, None, None] * w
    return ScaledSLHFamily(s, l1, l0, family.H2, family.H1, family.H0)


def _rotated(family, split, u):
    """The family and split carried by the unitary u: X -> u X u^H, V -> u V."""
    rotated = family.map_operators(lambda op: Operator(op.space, u @ op.mat @ u.conj().T))
    v_z, v_f = (SubspaceIsometry(split.space, u @ v.cols) for v in (split.v_z, split.v_f))
    return rotated, ZenoSplit(v_z, v_f)


def _random_case(seed, n, rotate, scattering=None):
    rng = np.random.default_rng(seed)
    fam, split = random_zenofiable_family(rng, 2, 4, n)
    if scattering is not None:
        fam = _with_scattering(fam, split, rng, decoupled=scattering == "decoupled")
    if rotate:
        fam, split = _rotated(fam, split, random_unitary(rng, fam.dim))
    return fam, split


def _assert_close(got, want, scale):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("scattering", [None, "decoupled"])
@pytest.mark.parametrize("rotate", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_order_matches_the_full_space_order(monkeypatch, n, rotate, scattering):
    fam, split = _random_case([31, n, rotate, scattering is None], n, rotate, scattering)
    full = _eliminate_by(monkeypatch, "full_space", fam, split)
    blocks = _eliminate_by(monkeypatch, "blocks", fam, split)
    assert (full.method, blocks.method) == ("full_space", "blocks")
    # both form A_ff the same way, so its SVD has the same bits
    assert blocks.cond_a_ff == full.cond_a_ff > 1
    tf, tb = full.zeno_triple, blocks.zeno_triple
    scale = max(np.max(np.abs(m)) for m in (tf.s, tf.l, tf.H.mat))
    for got, want in ((tb.s, tf.s), (tb.l, tf.l), (tb.H.mat, tf.H.mat)):
        _assert_close(got, want, scale)
    assert list(blocks.residuals) == list(full.residuals)
    _assert_close(list(blocks.residuals.values()), list(full.residuals.values()), scale)


@pytest.mark.parametrize("rotate", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_order_forms_the_decoupling_blocks_of_the_full_space_order(n, rotate):
    # S mixes the Zeno and fast subspaces, so S-hat_zf, S-hat_fz and
    # L-hat_fz are all of order one; each order yields them third
    fam, split = _random_case([32, n, rotate], n, rotate, scattering="mixing")
    full, blocks = (
        list(itertools.islice(elimination._PATHS[method](fam, split), 3))
        for method in ("full_space", "blocks")
    )
    assert blocks[1][1].tobytes() == full[1][1].tobytes()  # the singular values of A_ff
    for got, want in zip(blocks[2], full[2]):
        assert got.shape == want.shape and np.max(np.abs(want)) > 0.1
        _assert_close(got, want, 1.0)


@pytest.mark.parametrize("rotate", [False, True])
def test_decoupling_violation_matches_on_both_orders(monkeypatch, rotate):
    fam, split = _random_case([33, rotate], 2, rotate, scattering="mixing")
    errors = []
    for method in ("full_space", "blocks"):
        with pytest.raises(DecouplingViolation) as err:
            _eliminate_by(monkeypatch, method, fam, split)
        errors.append(err.value)
    full, blocks = errors
    assert str(blocks) == str(full) and full.residual > 0.1
    assert list(blocks.residuals) == list(full.residuals)
    _assert_close(list(blocks.residuals.values()), list(full.residuals.values()), 1.0)


def _diagonal_family(space, h2_diagonal, l1=None):
    """One channel, S = 1, L0 = H1 = H0 = 0 and a diagonal H2."""
    z = zero(space)
    h2 = Operator(space, np.diag(np.asarray(h2_diagonal, dtype=float)))
    return ScaledSLHFamily(((identity(space),),), (l1 or z,), (z,), h2, z, z)


def _violation_cases():
    sp2, sp3, sp4 = HilbertSpace((2,)), HilbertSpace((3,)), HilbertSpace((4,))
    kerr, kerr_split = kerr_family()
    nan = float("nan")
    swap = ScaledSLHFamily(
        ((pauli("x"),),), (zero(sp2),), (zero(sp2),), Operator(sp2, np.diag([0.0, 1.0])),
        zero(sp2), zero(sp2),
    )
    coupled = _diagonal_family(sp3, [0.0, 0.0, 0.0], l1=identity(sp3))
    return {
        "scaling": (coupled, ZenoSplit.from_indices(sp3, [0]), {}),
        # H2 leaks 1e-3 into the Zeno subspace: within a scaling tolerance of
        # 1e-2, but A V_z is far from zero
        "kernel_alignment": (
            _diagonal_family(sp4, [1e-3, 0.0, 1.0, 2.0]),
            ZenoSplit.from_indices(sp4, [0, 1]),
            {"scaling_tol": 1e-2},
        ),
        "sigma_min": (
            _diagonal_family(sp4, [0.0, 0.0, 0.0, 1.0]), ZenoSplit.from_indices(sp4, [0, 1]), {}
        ),
        "condition_number": (
            _diagonal_family(sp4, [0.0, 0.0, 1e5, 2e-8]), ZenoSplit.from_indices(sp4, [0, 1]), {}
        ),
        "decoupling": (swap, ZenoSplit.from_indices(sp2, [0]), {}),
        "nan_scaling_tol": (coupled, ZenoSplit.from_indices(sp3, [0]), {"scaling_tol": nan}),
        "nan_kernel_tol": (kerr, kerr_split, {"kernel_tol": nan}),
        "nan_decoupling_tol": (kerr, kerr_split, {"decoupling_tol": nan}),
    }


@pytest.mark.parametrize(
    "case, violation",
    [
        ("scaling", ScalingViolation),
        ("kernel_alignment", KernelViolation),
        ("sigma_min", KernelViolation),
        ("condition_number", KernelViolation),
        ("decoupling", DecouplingViolation),
        ("nan_scaling_tol", ScalingViolation),
        ("nan_kernel_tol", KernelViolation),
        ("nan_decoupling_tol", DecouplingViolation),
    ],
)
def test_both_orders_raise_the_same_violation(monkeypatch, case, violation):
    fam, split, tols = _violation_cases()[case]
    errors = []
    for method in ("full_space", "blocks"):
        with pytest.raises(violation) as err:
            _eliminate_by(monkeypatch, method, fam, split, **tols)
        assert type(err.value) is violation and err.value.method == method
        errors.append(err.value)
    full, blocks = errors
    assert str(blocks) == str(full)
    assert blocks.residual == full.residual
    assert list(blocks.residuals.items()) == list(full.residuals.items())
    # cond(A_ff) is known once the SVD of A_ff has run, after the scaling check
    assert blocks.cond_a_ff == full.cond_a_ff
    assert (full.cond_a_ff is None) == ("scaling" in case)


def test_elimination_method_is_chosen_by_dimension_alone():
    bound = elimination.FULL_SPACE_MAX_DIM
    assert elimination._elimination_method(1) == "full_space"
    assert elimination._elimination_method(bound) == "full_space"
    assert elimination._elimination_method(bound + 1) == "blocks"
    fam, split = kerr_family()
    assert zeno_eliminate(fam, split).method == "full_space"


def _digest_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "csv_digests.py"
    spec = importlib.util.spec_from_file_location("csv_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_full_space_order_covers_every_digested_elimination():
    # every d at which scripts/csv_digests.py eliminates must take the
    # full-space order, whose bytes tests/csv_digests.txt pins: the shipped
    # models its commands read, and slow_dim * trunc^m of its oscillator cases
    script = _digest_script()
    models = {a for argv in script.examples(MODELS) for a in argv if a.endswith(".model")}
    dims = [load_model(m).family.dim for m in sorted(models)]
    dims += [slow * trunc**m for slow, _, m, trunc in script.OSCILLATOR_CASES]
    assert len(models) == 3 and max(dims) == 128
    assert all(d <= elimination.FULL_SPACE_MAX_DIM for d in dims)
    assert all(elimination._elimination_method(d) == "full_space" for d in dims)


# ---------------------------------------------------------------------------
# above FULL_SPACE_MAX_DIM the complement is a Householder completion of V_z
# ---------------------------------------------------------------------------


def _pivoted_split(v_z):
    """The split on v_z with the projector-pivot complement that
    complement_basis takes up to FULL_SPACE_MAX_DIM, at any d."""
    d, d_z = v_z.space.dim, v_z.subspace_dim
    v_f = _canonical_basis_from_projector(np.eye(d) - v_z.projector(), d - d_z)
    return ZenoSplit(v_z, SubspaceIsometry(v_z.space, v_f))


def _completion_case(case, scattering="decoupled"):
    """A family above the seam and its split on the Householder completion:
    the bench lambda (d = 180) and Kerr (d = 160) models with their kernel
    split, or a rotated random family ``"n-d"`` whose S (``_with_scattering``)
    mixes the channels and keeps the Zeno and fast subspaces apart unless
    ``scattering`` is ``"mixing"``."""
    if case == "lambda":
        fam = lambda_family(n_max=60)
    elif case == "kerr":
        fam, _ = kerr_family(n_max=160)
    else:
        n, d = map(int, case.split("-"))
        rng = np.random.default_rng([35, n, d, scattering == "mixing"])
        fam, split = random_zenofiable_family(rng, 2, d - 2, n)
        fam = _with_scattering(fam, split, rng, decoupled=scattering == "decoupled")
        fam, split = _rotated(fam, split, random_unitary(rng, fam.dim))
        return fam, ZenoSplit.from_zeno(split.v_z)
    return fam, find_zeno_subspace(fam)


COMPLETION_CASES = ["1-130", "2-165", "3-200", "lambda", "kerr"]


@pytest.mark.parametrize("case", COMPLETION_CASES)
def test_block_order_on_the_completion_matches_the_full_space_order(monkeypatch, case):
    # the reference: the full-space order on the projector-pivot complement
    # of the same V_z; the triple does not depend on the fast basis
    fam, split = _completion_case(case)
    assert split.space.dim > elimination.FULL_SPACE_MAX_DIM
    pivoted = _pivoted_split(split.v_z)
    # the fast bases differ, except for the Kerr kernel of basis vectors,
    # whose completion is the rest of the canonical basis (up to signed zeros)
    assert np.array_equal(split.v_f.cols, pivoted.v_f.cols) == (case == "kerr")
    blocks = zeno_eliminate(fam, split)
    full = _eliminate_by(monkeypatch, "full_space", fam, pivoted)
    assert (full.method, blocks.method) == ("full_space", "blocks")
    assert blocks.v_z is split.v_z and full.v_z is split.v_z
    tf, tb = full.zeno_triple, blocks.zeno_triple
    scale = max(np.max(np.abs(m)) for m in (tf.s, tf.l, tf.H.mat))
    for got, want in ((tb.s, tf.s), (tb.l, tf.l), (tb.H.mat, tf.H.mat)):
        _assert_close(got, want, scale)
    assert blocks.cond_a_ff == pytest.approx(full.cond_a_ff, rel=1e-12)
    assert list(blocks.residuals) == list(full.residuals)
    _assert_close(list(blocks.residuals.values()), list(full.residuals.values()), scale)


@pytest.mark.parametrize("case", ["1-130", "2-165", "3-200"])
def test_decoupling_blocks_on_the_completion_have_the_norms_of_the_full_space_order(case):
    # S mixes the Zeno and fast subspaces, so the blocks are of order one;
    # a change of fast basis rotates them but keeps their Frobenius norms
    fam, split = _completion_case(case, scattering="mixing")
    pivoted = _pivoted_split(split.v_z)
    blocks = list(itertools.islice(elimination._block_order(fam, split), 3))[2]
    full = list(itertools.islice(elimination._full_space_order(fam, pivoted), 3))[2]
    for got, want in zip(blocks, full):
        assert got.shape == want.shape and np.max(np.abs(want)) > 0.1
        assert np.linalg.norm(got) == pytest.approx(np.linalg.norm(want), rel=1e-12)
    with pytest.raises(DecouplingViolation):
        zeno_eliminate(fam, split)


def test_expansion_forms_its_constant_only_when_read():
    fam, _ = kerr_family()
    exp = expand_k(fam)
    assert "constant" not in vars(exp)
    const = exp.constant
    assert exp.constant is const
    want = -0.5 * sum(op.mat.conj().T @ op.mat for op in fam.L0) - 1j * fam.H0.mat
    assert entrymax(const, want) < 1e-14


# ---------------------------------------------------------------------------
# what both evaluation orders share: A_ff, its singular values and H-hat
# ---------------------------------------------------------------------------

SHARED_CASES = ["kerr_qubit", "lambda_system", "alkali", "rotated-1", "rotated-3"]


def _shared_case(case):
    if case.startswith("rotated-"):
        n = int(case[-1])
        return _random_case([34, n], n, rotate=True, scattering="decoupled")
    doc = load_model(MODELS / f"{case}.model")
    return doc.family, doc.split()


@pytest.mark.parametrize("case", SHARED_CASES)
def test_hat_operators_have_the_bits_of_the_full_space_triple(monkeypatch, case):
    fam, split = _shared_case(case)
    hats = hat_operators(fam, split)
    triple = _eliminate_by(monkeypatch, "full_space", fam, split).zeno_triple
    assert hats.h_zeno.mat.tobytes() == triple.H.mat.tobytes()
    assert split.v_z.compress_mat(hats.s).tobytes() == triple.s.tobytes()
    assert split.v_z.compress_mat(hats.l).tobytes() == triple.l.tobytes()


@pytest.mark.parametrize("case", SHARED_CASES)
def test_both_orders_report_the_same_kernel_residuals(monkeypatch, case):
    fam, split = _shared_case(case)
    full, blocks = (_eliminate_by(monkeypatch, m, fam, split) for m in ("full_space", "blocks"))
    for key in ("kernel_min_singular_value", "kernel_alignment"):
        assert blocks.residuals[key] == full.residuals[key]
    assert full.residuals["kernel_min_singular_value"] == check_kernel(expand_k(fam), split)
    assert blocks.cond_a_ff == full.cond_a_ff


@pytest.mark.parametrize("n_max, method", [(4, "full_space"), (60, "blocks")])
def test_auto_elimination_forms_the_k2_drift_coefficient_once(monkeypatch, n_max, method):
    # the kernel search and the elimination once formed A each
    calls = []
    drift = elimination._drift

    def counting(l, h):
        calls.append(h)
        return drift(l, h)

    monkeypatch.setattr(elimination, "_drift", counting)
    fam = lambda_family(n_max=n_max)
    result = zeno_eliminate(fam, find_zeno_subspace(fam))
    assert result.method == method
    assert len(calls) == 1 and calls[0] is fam.H2
    assert fam.quadratic_drift.mat.tobytes() == drift(fam.l1, fam.H2).mat.tobytes()
