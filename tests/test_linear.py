import json
import os
import re

import numpy as np
import pytest

from zenoslh import linear
from zenoslh import (
    HilbertSpace,
    LinearMeanSystem,
    Operator,
    OscillatorModelCoeffs,
    build_full_family,
    expand_k,
    find_zeno_subspace,
    fock_annihilator,
    full_spectrum,
    identity,
    is_strictly_hurwitz,
    kernel_basis,
    oscillator_limit,
    oscillator_split,
    slow_schur,
    stability_threshold,
    zeno_eliminate,
    zero,
)
from zenoslh.random_models import (
    random_complex_matrix,
    random_hermitian,
    random_mean_system,
    random_oscillator_model,
)

from common import MODELS, entrymax


def scalar_cavity(gamma=1.0, direct=0.0):
    sp = HilbertSpace((1,))
    one = identity(sp)
    return OscillatorModelCoeffs(
        slow_space=sp,
        scattering=((one,),),
        osc_couplings=((np.sqrt(gamma) * one,),),
        direct_couplings=(direct * one,),
        osc_drift=[[-gamma / 2]],
        annihilation_coeffs=(zero(sp),),
        creation_coeffs=(zero(sp),),
        constant_drift=zero(sp),
    )


def test_oscillator_limit_no_fast_coupling():
    rng = np.random.default_rng(41)
    sp = HilbertSpace((3,))
    g_op = Operator(sp, random_complex_matrix(rng, 3))
    h = random_hermitian(rng, 3)
    r = Operator(sp, -0.5 * (g_op.mat.conj().T @ g_op.mat) - 1j * h)
    coeffs = OscillatorModelCoeffs(
        slow_space=sp,
        scattering=((identity(sp),),),
        osc_couplings=((zero(sp),),),
        direct_couplings=(g_op,),
        osc_drift=[[-1.0]],
        annihilation_coeffs=(zero(sp),),
        creation_coeffs=(zero(sp),),
        constant_drift=r,
    )
    t = oscillator_limit(coeffs)
    assert entrymax(t.S[0][0], np.eye(3)) < 1e-14
    assert entrymax(t.L[0], g_op) < 1e-14
    assert entrymax(t.H, h) < 1e-12


def test_oscillator_limit_scalar_phase_flip():
    t = oscillator_limit(scalar_cavity(gamma=1.7))
    assert entrymax(t.S[0][0], -np.ones((1, 1))) < 1e-14
    assert entrymax(t.H) < 1e-14


def test_oscillator_limit_rejects_singular_drift():
    bad = scalar_cavity()
    coeffs = OscillatorModelCoeffs(
        slow_space=bad.slow_space,
        scattering=bad.scattering,
        osc_couplings=bad.osc_couplings,
        direct_couplings=bad.direct_couplings,
        osc_drift=[[0.0]],
        annihilation_coeffs=bad.annihilation_coeffs,
        creation_coeffs=bad.creation_coeffs,
        constant_drift=bad.constant_drift,
    )
    with pytest.raises(ValueError):
        oscillator_limit(coeffs)


def test_build_full_family_single_mode_kernel():
    # drift -1/2 paired with unit coupling: the k^2 coefficient is
    # -1/2 a^H a on the oscillator factor and its kernel is the vacuum
    sp = HilbertSpace((2,))
    coeffs = OscillatorModelCoeffs(
        slow_space=sp,
        scattering=((identity(sp),),),
        osc_couplings=((identity(sp),),),
        direct_couplings=(zero(sp),),
        osc_drift=[[-0.5]],
        annihilation_coeffs=(zero(sp),),
        creation_coeffs=(zero(sp),),
        constant_drift=zero(sp),
    )
    fam = build_full_family(coeffs, 4)
    a = expand_k(fam).quadratic
    num = np.diag(np.arange(4.0))
    assert entrymax(a, np.kron(np.eye(2), -0.5 * num)) < 1e-13
    assert entrymax(fam.H2) < 1e-14
    v = kernel_basis(a)
    split = oscillator_split(coeffs, 4)
    assert v.subspace_dim == 2
    assert entrymax(v.projector(), split.v_z.projector()) < 1e-12


def test_build_full_family_k_independent_when_uncoupled():
    # no oscillator couplings and no k-linear drift: nothing scales with k
    rng = np.random.default_rng(42)
    coeffs = random_oscillator_model(rng, 2, 2, 1)
    sp = coeffs.slow_space
    uncoupled = OscillatorModelCoeffs(
        slow_space=sp,
        scattering=coeffs.scattering,
        osc_couplings=tuple((zero(sp),) for _ in range(coeffs.n)),
        direct_couplings=coeffs.direct_couplings,
        osc_drift=np.zeros((1, 1)),
        annihilation_coeffs=(zero(sp),),
        creation_coeffs=(zero(sp),),
        constant_drift=coeffs.constant_drift,
    )
    fam = build_full_family(uncoupled, 3)
    for op in fam.L1:
        assert entrymax(op) == 0.0
    assert entrymax(fam.H1) == 0.0
    assert entrymax(fam.H2) == 0.0


def _stack(x) -> np.ndarray:
    """Array of a coefficient stack given as an array or nested Operators."""
    if isinstance(x, np.ndarray):
        return x
    return np.array([y.mat if isinstance(y, Operator) else _stack(y) for y in x])


def test_oscillator_limit_matches_loop_formulas():
    rng = np.random.default_rng(52)
    n, m = 3, 2
    coeffs = random_oscillator_model(rng, 2, n, m)
    s, c = _stack(coeffs.scattering), _stack(coeffs.osc_couplings)
    g = _stack(coeffs.direct_couplings)
    z, x = _stack(coeffs.creation_coeffs), _stack(coeffs.annihilation_coeffs)
    r = coeffs.constant_drift.mat
    w = np.linalg.inv(coeffs.osc_drift)
    s_hat = s.copy()
    l_hat = g.copy()
    k_hat = r.copy()
    for p in range(m):
        for q in range(m):
            k_hat -= w[p, q] * x[p] @ z[q]
            for j in range(n):
                l_hat[j] -= w[p, q] * c[j, p] @ z[q]
                for jj in range(n):
                    for kk in range(n):
                        s_hat[j, kk] += w[p, q] * c[j, p] @ c[jj, q].conj().T @ s[jj, kk]
    h = 1j * (k_hat + 0.5 * sum(lj.conj().T @ lj for lj in l_hat))
    t = oscillator_limit(coeffs)
    for j in range(n):
        for kk in range(n):
            assert entrymax(t.S[j][kk], s_hat[j, kk]) < 1e-12
        assert entrymax(t.L[j], l_hat[j]) < 1e-12
    assert entrymax(t.H, h) < 1e-12


def test_build_full_family_reproduces_drift():
    rng = np.random.default_rng(53)
    m, trunc = 2, 3
    coeffs = random_oscillator_model(rng, 2, 2, m)
    slow_eye = np.eye(coeffs.slow_space.dim)
    a1 = fock_annihilator(trunc).mat
    a = [np.kron(a1, np.eye(trunc)), np.kron(np.eye(trunc), a1)]
    z, x = _stack(coeffs.creation_coeffs), _stack(coeffs.annihilation_coeffs)
    r = coeffs.constant_drift.mat
    quad = sum(
        coeffs.osc_drift[i, j] * np.kron(slow_eye, a[i].conj().T @ a[j])
        for i in range(m)
        for j in range(m)
    )
    lin = sum(np.kron(z[i], a[i].conj().T) + np.kron(x[i], a[i]) for i in range(m))
    exp = expand_k(build_full_family(coeffs, trunc))
    assert entrymax(exp.quadratic, quad) < 1e-12
    assert entrymax(exp.linear, lin) < 1e-12
    assert entrymax(exp.constant, np.kron(r, np.eye(trunc**m))) < 1e-12


def test_oscillator_coeffs_array_input_and_validation():
    rng = np.random.default_rng(54)
    coeffs = random_oscillator_model(rng, 2, 3, 2)
    sp = coeffs.slow_space
    stacks = {
        "scattering": _stack(coeffs.scattering),
        "osc_couplings": _stack(coeffs.osc_couplings),
        "direct_couplings": _stack(coeffs.direct_couplings),
        "annihilation_coeffs": _stack(coeffs.annihilation_coeffs),
        "creation_coeffs": _stack(coeffs.creation_coeffs),
    }
    rest = {"osc_drift": coeffs.osc_drift, "constant_drift": coeffs.constant_drift}
    from_arrays = OscillatorModelCoeffs(sp, **stacks, **rest)
    t, ref = oscillator_limit(from_arrays), oscillator_limit(coeffs)
    assert entrymax(t.s, ref.s) == 0.0
    assert entrymax(t.l, ref.l) == 0.0
    assert entrymax(t.H, ref.H) == 0.0

    nan = stacks["direct_couplings"].copy()
    nan[1, 0, 1] = np.nan
    wrong_space = tuple(Operator(HilbertSpace((3,)), np.eye(3)) for _ in range(3))
    for name, bad in [
        ("osc_couplings", stacks["osc_couplings"][:, :1]),
        ("scattering", stacks["scattering"][:2]),
        ("direct_couplings", nan),
        ("direct_couplings", wrong_space),
    ]:
        with pytest.raises(ValueError):
            OscillatorModelCoeffs(sp, **{**stacks, name: bad}, **rest)
    with pytest.raises(ValueError):
        OscillatorModelCoeffs(
            sp, **stacks, osc_drift=coeffs.osc_drift, constant_drift=identity(HilbertSpace((3,)))
        )


def test_vacuum_kernel_under_hurwitz_drift():
    rng = np.random.default_rng(43)
    coeffs = random_oscillator_model(rng, 2, 2, 2)
    rep = is_strictly_hurwitz(coeffs.osc_drift)
    assert rep.dissipative
    fam = build_full_family(coeffs, 4)
    split = find_zeno_subspace(fam)
    expected = oscillator_split(coeffs, 4)
    assert split.dim_zeno == 2
    assert entrymax(split.v_z.projector(), expected.v_z.projector()) < 1e-10


@pytest.mark.parametrize("truncation,tol", [(5, 1e-6), (8, 1e-8)])
def test_oscillator_limit_matches_generic_elimination(truncation, tol):
    rng = np.random.default_rng(44)
    for trial in range(10):
        m_osc = 1 + trial % 2
        slow_dim = 2 + trial % 2
        n_ch = max(2, m_osc)
        coeffs = random_oscillator_model(rng, slow_dim, n_ch, m_osc)
        direct = oscillator_limit(coeffs)
        res = zeno_eliminate(build_full_family(coeffs, truncation), oscillator_split(coeffs, truncation))
        t = res.zeno_triple
        for j in range(n_ch):
            for k in range(n_ch):
                assert entrymax(t.S[j][k], direct.S[j][k]) < tol
            assert entrymax(t.L[j], direct.L[j]) < tol
        assert entrymax(t.H, direct.H) < tol


def test_is_strictly_hurwitz_cases():
    rep = is_strictly_hurwitz(-np.eye(3))
    assert rep.dissipative and rep.eigenvalue_stable
    assert rep.numerical_range_margin == pytest.approx(-1.0)

    # eigenvalue-stable but not dissipative: large upper-triangular shear
    shear = np.array([[-1.0, 10.0], [0.0, -1.0]])
    rep = is_strictly_hurwitz(shear)
    assert rep.eigenvalue_stable and not rep.dissipative
    assert rep.numerical_range_margin > 0

    rep = is_strictly_hurwitz(np.zeros((2, 2)))
    assert not rep.dissipative and not rep.eigenvalue_stable


def test_dissipative_implies_eigenvalue_stable():
    rng = np.random.default_rng(45)
    for _ in range(20):
        m = random_complex_matrix(rng, 4)
        rep = is_strictly_hurwitz(m)
        if rep.dissipative:
            assert rep.eigenvalue_margin < 0


def test_slow_schur():
    rng = np.random.default_rng(46)
    g1 = random_complex_matrix(rng, 3)
    g4 = random_complex_matrix(rng, 2) - 3 * np.eye(2)
    sys_ = LinearMeanSystem(g1, np.zeros((3, 2)), random_complex_matrix(rng, 2, 3), g4)
    assert entrymax(slow_schur(sys_), g1) == 0.0

    scalar = LinearMeanSystem([[-1.0]], [[1.0]], [[1.0]], [[-2.0]])
    assert slow_schur(scalar)[0, 0] == pytest.approx(-0.5)

    sys3 = LinearMeanSystem(
        random_complex_matrix(rng, 3),
        random_complex_matrix(rng, 3, 2),
        np.zeros((2, 3)),
        g4,
    )
    assert entrymax(slow_schur(sys3), sys3.slow_block) == 0.0


def test_slow_schur_eigenvalues_match_large_k():
    # moderate couplings and a well-separated fast block keep the 1/k^2
    # correction constant small enough for the 1e-3 relative target
    rng = np.random.default_rng(47)
    g4 = random_complex_matrix(rng, 2) - 2.5 * np.eye(2)
    sys_ = LinearMeanSystem(
        random_complex_matrix(rng, 3) - 1.5 * np.eye(3),
        0.3 * random_complex_matrix(rng, 3, 2),
        0.3 * random_complex_matrix(rng, 2, 3),
        g4,
    )
    spec = full_spectrum(sys_, 100.0)
    rel = np.max(np.abs(spec.slow - spec.slow_reference) / np.abs(spec.slow_reference))
    assert rel < 1e-3


def test_full_spectrum_slow_reference_is_sort_complex_ordered():
    rng = np.random.default_rng(49)
    # complex blocks (zgeev) and real ones above N = 12 (dgeev, conjugate pairs)
    for r, m, part in ((3, 2, random_complex_matrix), (7, 7, lambda g, *s: g.standard_normal(s))):
        sys_ = LinearMeanSystem(
            part(rng, r, r) - 2 * np.eye(r),
            part(rng, r, m),
            part(rng, m, r),
            part(rng, m, m) - 3 * np.eye(m),
        )
        for k in (1.0, 10.0, 100.0):
            ref = full_spectrum(sys_, k).slow_reference
            assert np.array_equal(ref, np.sort_complex(ref))


def test_full_spectrum_block_triangular_exact():
    rng = np.random.default_rng(48)
    g1 = random_complex_matrix(rng, 2) - 2 * np.eye(2)
    g4 = random_complex_matrix(rng, 2) - 2 * np.eye(2)
    sys_ = LinearMeanSystem(g1, random_complex_matrix(rng, 2, 2), np.zeros((2, 2)), g4)
    k = 7.0
    spec = full_spectrum(sys_, k)
    expected = sorted(
        np.concatenate([np.linalg.eigvals(g1), k * k * np.linalg.eigvals(g4)]),
        key=lambda z: (z.real, z.imag),
    )
    got = sorted(np.concatenate([spec.slow, spec.fast]), key=lambda z: (z.real, z.imag))
    assert max(abs(a - b) for a, b in zip(expected, got)) < 1e-9


def test_fast_group_scales_as_k_squared():
    # fast-block eigenvalues of order one keep the relative correction
    # at k=10 below the 5% window around the exact factor of 4
    rng = np.random.default_rng(49)
    g4 = random_complex_matrix(rng, 2) - 2.5 * np.eye(2)
    sys_ = LinearMeanSystem(
        random_complex_matrix(rng, 2) - 1.5 * np.eye(2),
        0.3 * random_complex_matrix(rng, 2, 2),
        0.3 * random_complex_matrix(rng, 2, 2),
        g4,
    )
    f10 = np.sort_complex(full_spectrum(sys_, 10.0).fast)
    f20 = np.sort_complex(full_spectrum(sys_, 20.0).fast)
    ratios = np.abs(f20) / np.abs(f10)
    assert np.all(np.abs(ratios - 4.0) < 0.2)


def test_eigenvalue_error_scales_inverse_k_squared():
    rng = np.random.default_rng(50)
    for _ in range(10):
        sys_ = random_mean_system(rng, 3, 2, slow_hurwitz=True, fast_hurwitz=True)
        ks = np.geomspace(10, 100, 5)
        errs = [
            np.max(np.abs((s := full_spectrum(sys_, k)).slow - s.slow_reference))
            for k in ks
        ]
        slope = np.polyfit(np.log(ks), np.log(errs), 1)[0]
        assert -2.3 <= slope <= -1.7


def test_stability_threshold_scalar_example():
    sys_ = LinearMeanSystem([[-1.0]], [[1.0]], [[1.0]], [[-2.0]])
    report = stability_threshold(sys_, range(1, 101))
    assert report.predicted_stable_tail
    assert all(r.stable for r in report.rows)
    assert report.agrees


def test_stability_threshold_slow_instability():
    # decoupled unstable slow block: unstable at every k
    sys_ = LinearMeanSystem([[1.0]], [[0.0]], [[0.0]], [[-1.0]])
    report = stability_threshold(sys_, [1, 10, 50])
    assert not report.predicted_stable_tail
    assert not any(r.stable for r in report.rows)
    assert report.agrees


def test_stability_threshold_fast_instability_grows():
    sys_ = LinearMeanSystem([[-1.0]], [[0.0]], [[0.0]], [[0.5]])
    report = stability_threshold(sys_, [1, 5, 10])
    res = [r.max_real_part for r in report.rows]
    assert res[0] < res[1] < res[2]
    assert not report.predicted_stable_tail
    assert report.agrees


def test_stability_verdicts_all_hurwitz_combinations():
    rng = np.random.default_rng(51)
    for slow_h in (True, False):
        for fast_h in (True, False):
            for _ in range(5):
                sys_ = random_mean_system(rng, 2, 2, slow_hurwitz=slow_h, fast_hurwitz=fast_h)
                report = stability_threshold(sys_, [5, 10, 20, 50])
                assert report.predicted_stable_tail == (slow_h and fast_h)
                assert report.agrees


def test_linear_mean_system_validation():
    with pytest.raises(ValueError):
        LinearMeanSystem(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((1, 2)), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        slow_schur(LinearMeanSystem([[-1.0]], [[1.0]], [[1.0]], [[0.0]]))


def real_blocks(rng, r, m):
    """Real Gamma blocks with a Hurwitz fast block."""
    g4 = -2.0 * np.eye(m) + 0.3 * rng.standard_normal((m, m))
    return [rng.standard_normal(s) for s in ((r, r), (r, m), (m, r))] + [g4]


SWEEP_KS = [0.5, 1.0, 3.0, 10.0, 50.0]


def test_sweep_above_the_cut_off_runs_in_real_arithmetic():
    g1, g2, g3, g4 = real_blocks(np.random.default_rng(1501), 20, 20)
    sys_ = LinearMeanSystem(g1, g2, g3, g4)
    report = stability_threshold(sys_, SWEEP_KS)
    assert report.method == "real"
    for k, row in zip(SWEEP_KS, report.rows):
        gen = np.block([[g1, g2], [k * k * g3, k * k * g4]])
        assert row.max_real_part == np.max(np.linalg.eigvals(gen).real)
    # the Hurwitz margins of the 20 x 20 blocks take the real path too
    assert report.fast_hurwitz.eigenvalue_margin == np.max(np.linalg.eigvals(g4).real)


def test_sweep_up_to_the_cut_off_keeps_complex_arithmetic():
    # the shipped N = 3 blocks, whose stab.csv is digested
    data = json.loads((MODELS / "oscillator_pair.gamma.json").read_text())
    sys_ = LinearMeanSystem(*(data[f"Gamma{i}"] for i in (1, 2, 3, 4)))
    report = stability_threshold(sys_, SWEEP_KS)
    assert report.method == "complex"
    for k, row in zip(SWEEP_KS, report.rows):
        assert row.max_real_part == np.max(np.linalg.eigvals(sys_.generator(k)).real)


def test_sweep_with_one_imaginary_entry_keeps_complex_arithmetic():
    blocks = [b.astype(complex) for b in real_blocks(np.random.default_rng(1502), 20, 20)]
    blocks[2][3, 7] += 1e-3j
    sys_ = LinearMeanSystem(*blocks)
    report = stability_threshold(sys_, SWEEP_KS)
    assert report.method == "complex"
    for k, row in zip(SWEEP_KS, report.rows):
        assert row.max_real_part == np.max(np.linalg.eigvals(sys_.generator(k)).real)


@pytest.mark.parametrize("k", [1e160, float("inf"), float("nan")])
def test_stability_threshold_rejects_k_whose_square_is_not_finite(k):
    sys_ = LinearMeanSystem([[-1.0]], [[1.0]], [[1.0]], [[-2.0]])
    with pytest.raises(ValueError, match="k\\*\\*2 is not a finite float"):
        stability_threshold(sys_, [1.0, k])


def test_full_spectrum_rejects_k_whose_square_is_not_finite():
    # float(k) ** 2 once raised a raw OverflowError here
    sys_ = LinearMeanSystem([[-1.0]], [[1.0]], [[1.0]], [[-2.0]])
    with pytest.raises(ValueError, match="k\\*\\*2 is not a finite float"):
        full_spectrum(sys_, 1e160)


@pytest.mark.parametrize("block", ["fast_slow", "fast_block"])
def test_generator_rejects_k_whose_scaled_blocks_are_not_finite(block):
    # k**2 = 1e308 is finite, but k**2 Gamma4 = -1e309 is not: the sweep
    # once printed numpy's overflow warning and LAPACK's "Array must not
    # contain infs or NaNs"
    blocks = {"slow_block": [[-1.0]], "slow_fast": [[1.0]], "fast_slow": [[1.0]],
              "fast_block": [[-1.0]]}
    blocks[block] = [[-10.0]]
    sys_ = LinearMeanSystem(*blocks.values())
    match = "k = 1e\\+154: k\\*\\*2 Gamma3 or k\\*\\*2 Gamma4 is not finite"
    with np.errstate(all="raise"):
        for call in (sys_.generator, lambda k: full_spectrum(sys_, k),
                     lambda k: stability_threshold(sys_, [1.0, k])):
            with pytest.raises(ValueError, match=match):
                call(1e154)
        assert np.isfinite(sys_.generator(1e153)).all()


@pytest.mark.parametrize("k", [-2.0, 0.0])
def test_linear_functions_reject_k_that_is_not_positive(k):
    # stability_threshold once reported a stable row at k = -2
    sys_ = LinearMeanSystem([[-1.0]], [[1.0]], [[1.0]], [[-2.0]])
    match = f"scaling parameter must be positive, got {k}"
    with pytest.raises(ValueError, match=match):
        stability_threshold(sys_, [k])
    with pytest.raises(ValueError, match=match):
        sys_.generator(k)
    with pytest.raises(ValueError, match=match):
        full_spectrum(sys_, k)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("block", [0, 1, 2, 3])
def test_mean_system_rejects_a_block_that_is_not_finite(block, value):
    blocks = [[[-1.0]], [[1.0]], [[1.0]], [[-1.0]]]
    blocks[block] = [[value]]
    with pytest.raises(ValueError, match=f"^Gamma{block + 1}: value is not finite$"):
        LinearMeanSystem(*blocks)


def test_mean_system_reports_a_block_that_is_not_finite_before_its_shape():
    with pytest.raises(ValueError, match="^Gamma3: value is not finite$"):
        LinearMeanSystem([[-1.0]], [[1.0, 2.0]], [[np.nan]], [[-1.0]])


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_oscillator_coefficients_reject_a_drift_that_is_not_finite(value):
    sp = HilbertSpace((1,))
    one = identity(sp)
    with pytest.raises(ValueError, match="osc_drift: value is not finite"):
        OscillatorModelCoeffs(
            slow_space=sp,
            scattering=((one,),),
            osc_couplings=((one,),),
            direct_couplings=(zero(sp),),
            osc_drift=[[value]],
            annihilation_coeffs=(zero(sp),),
            creation_coeffs=(zero(sp),),
            constant_drift=zero(sp),
        )


def test_singular_blocks_raise_the_elimination_message():
    cavity = scalar_cavity()
    coeffs = OscillatorModelCoeffs(
        slow_space=cavity.slow_space,
        scattering=cavity.scattering,
        osc_couplings=cavity.osc_couplings,
        direct_couplings=cavity.direct_couplings,
        osc_drift=[[0.0]],
        annihilation_coeffs=cavity.annihilation_coeffs,
        creation_coeffs=cavity.creation_coeffs,
        constant_drift=cavity.constant_drift,
    )
    message = "oscillator drift matrix is numerically singular (condition number > 1e+12)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        oscillator_limit(coeffs)

    def gamma4(small):
        return LinearMeanSystem([[-1.0]], [[1.0, 1.0]], [[1.0], [1.0]], np.diag([-1.0, -small]))

    message = "fast block is numerically singular (condition number > 1e+12)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        slow_schur(gamma4(1e-13))  # condition number 1e13
    slow_schur(gamma4(1e-11))
    slow_schur(LinearMeanSystem([[-1.0]], np.zeros((1, 0)), np.zeros((0, 1)), np.zeros((0, 0))))


def gamma_blocks(rng, r, m, stable=True):
    """Real blocks built like the benchmark's: a Hurwitz fast block and a
    Schur complement whose spectrum is fixed, each Q (D + N) Q^T."""

    def with_spectrum(re):
        q, _ = np.linalg.qr(rng.standard_normal((len(re), len(re))))
        t = np.diag(re) + np.triu(rng.standard_normal((len(re),) * 2) * 0.3 / np.sqrt(len(re)), 1)
        return q @ t @ q.T

    g4 = with_spectrum(-rng.uniform(1.0, 3.0, m))
    slow = -rng.uniform(0.5, 2.0, r)
    if not stable:
        slow[0] = rng.uniform(0.3, 0.8)
    g2 = rng.standard_normal((r, m)) / np.sqrt(m)
    g3 = rng.standard_normal((m, r)) / np.sqrt(r)
    return with_spectrum(slow) + g2 @ np.linalg.solve(g4, g3), g2, g3, g4


def per_k_abscissae(sys_, ks, method):
    """The spectral abscissa of each generator(k), solved alone."""
    gens = [sys_.generator(k) for k in ks]
    return [float(np.max(np.linalg.eigvals(g.real if method == "real" else g).real)) for g in gens]


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _stacked_eigvals_sizes(monkeypatch):
    """The number of matrices of each stacked eigvals call, as made."""
    sizes = []
    eigvals = np.linalg.eigvals

    def recording(a):
        if np.ndim(a) == 3:
            sizes.append(len(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    return sizes


BENCH_KS = np.geomspace(0.5, 200.0, 40)


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_rows_are_bit_identical_to_lone_solves_at_any_worker_count(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    sizes = _stacked_eigvals_sizes(monkeypatch)
    rng = np.random.default_rng(2901)
    for stable in (True, False):
        sys_ = LinearMeanSystem(*gamma_blocks(rng, 40, 40, stable))
        report = stability_threshold(sys_, BENCH_KS)
        assert (report.method, report.workers) == ("real", cpus)
        want = per_k_abscissae(sys_, sorted(BENCH_KS), "real")
        assert [r.max_real_part.hex() for r in report.rows] == [x.hex() for x in want]
        assert report.rows[-1].stable == stable == report.predicted_stable_tail
    # one stacked call per worker and sweep, on contiguous halves
    assert sizes == [40 // cpus] * cpus * 2


@pytest.mark.parametrize(
    "cpus, n_ks, per_round, slices",
    [
        (2, 7, None, [4, 3]),  # an odd number of k
        (4, 3, None, [1, 1, 1]),  # fewer k than workers
        (2, 7, 3, [2, 1, 2, 1, 1]),  # rounds of 3, 3 and 1 k
        (3, 10, 4, [2, 1, 1, 2, 1, 1, 1, 1]),
    ],
)
def test_sweep_slices_and_rounds_keep_every_row(monkeypatch, cpus, n_ks, per_round, slices):
    _cpus(monkeypatch, cpus)
    rng = np.random.default_rng([2902, n_ks])
    real = LinearMeanSystem(*gamma_blocks(rng, 9, 7))
    cplx = [b.astype(complex) for b in gamma_blocks(rng, 5, 4)]
    cplx[0][1, 2] += 0.2j
    ks = list(rng.permutation(np.geomspace(0.3, 300.0, n_ks)))
    for sys_, method in ((real, "real"), (LinearMeanSystem(*cplx), "complex")):
        if per_round:
            itemsize = 8 if method == "real" else 16
            monkeypatch.setattr(linear, "_STACK_BYTES", per_round * itemsize * (sys_.r + sys_.m) ** 2)
        sizes = _stacked_eigvals_sizes(monkeypatch)
        report = stability_threshold(sys_, ks)
        assert (report.method, report.workers) == (method, min(cpus, n_ks))
        assert sorted(sizes) == sorted(slices)  # the threads record in any order
        assert [r.k for r in report.rows] == sorted(ks)
        want = per_k_abscissae(sys_, sorted(ks), method)
        assert [r.max_real_part.hex() for r in report.rows] == [x.hex() for x in want]


def test_sweep_names_the_smallest_k_that_overflows_with_several_workers(monkeypatch):
    _cpus(monkeypatch, 2)
    sys_ = LinearMeanSystem([[-1.0]], [[1.0]], [[1.0]], [[-10.0]])
    match = "^k = 1e\\+154: k\\*\\*2 Gamma3 or k\\*\\*2 Gamma4 is not finite$"
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match=match):
            stability_threshold(sys_, [1.3e154, 1.0, 1e153, 1e154, 2.0])


def test_sweep_workers_keep_the_error_state_and_raise_in_slice_order(monkeypatch):
    _cpus(monkeypatch, 2)
    states = []

    def failing(a):
        states.append(np.geterr())
        raise np.linalg.LinAlgError(f"slice from k^2 Gamma4 = {a[0, -1, -1].real}")

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    sys_ = LinearMeanSystem([[-1.0]], [[1.0]], [[1.0]], [[-1.0]])
    with np.errstate(all="raise"):
        with pytest.raises(np.linalg.LinAlgError, match="^slice from k\\^2 Gamma4 = -1.0$"):
            stability_threshold(sys_, [3.0, 1.0, 4.0, 2.0])
    assert states == [dict(divide="raise", over="raise", under="raise", invalid="raise")] * 2


def test_sweep_rejects_an_abscissa_within_the_rounding_floor():
    # oscillator_pair: the slow abscissa tends to -0.456697 (the Schur
    # complement's); at k = 1e8 the fast block's rounding, N eps ||M||_1 =
    # 6.66, swamps it and the solver read -0.44
    data = json.loads((MODELS / "oscillator_pair.gamma.json").read_text())
    sys_ = LinearMeanSystem(*(data[f"Gamma{i}"] for i in (1, 2, 3, 4)))
    row = stability_threshold(sys_, [1e7]).rows[0]
    assert abs(row.max_real_part + 0.456697) < 1e-6
    with pytest.raises(ValueError, match="^k = 100000000.0: spectral abscissa -0.44"):
        stability_threshold(sys_, [1e7, 1e8, 1.0])
    # a generator with an exactly zero abscissa reads as rounding too
    with pytest.raises(ValueError, match="^k = 1.0: spectral abscissa 0.0 is within"):
        stability_threshold(LinearMeanSystem([[0.0]], [[0.0]], [[0.0]], [[-1.0]]), [1.0])
