import math
import os
import signal

import numpy as np
import pytest

from zenoslh import (
    DensityMatrix,
    HilbertSpace,
    Operator,
    SLHTriple,
    StepSizeError,
    basis_ketbra,
    basis_state_density,
    convergence_harness,
    dissipator,
    ehrenfest_residual,
    evolve,
    evolve_piecewise,
    fock_annihilator,
    identity,
    instantiate,
    lindbladian,
    liouvillian_matrix,
    maximally_mixed,
    pauli,
    trace_distance,
    zeno_eliminate,
    zero,
)
from zenoslh import master
from zenoslh.elimination import ScaledSLHFamily
from zenoslh.random_models import random_complex_matrix, random_density_matrix, random_hermitian

from common import entrymax, kerr_family, random_triple

QUBIT = HilbertSpace((2,))
SIGMA_OP = basis_ketbra(2, 0, 1)


def qubit_decay(gamma=1.0):
    return SLHTriple(((identity(QUBIT),),), (np.sqrt(gamma) * SIGMA_OP,), zero(QUBIT))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(QUBIT, [[1.0, 0.5], [0.0, 0.0]])  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(QUBIT, [[0.7, 0.0], [0.0, 0.7]])  # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix(QUBIT, [[1.5, 0.0], [0.0, -0.5]])  # negative eigenvalue
    rho = DensityMatrix(QUBIT, [[1.5, 0.0], [0.0, -0.5]], min_eig_tol=None)
    assert rho.purity() > 1.0


def test_density_matrix_rejects_nan():
    nan = [[np.nan, 0.0], [0.0, np.nan]]
    with pytest.raises(ValueError):
        DensityMatrix(QUBIT, nan)
    with pytest.raises(ValueError):
        DensityMatrix(QUBIT, nan, min_eig_tol=None)


def test_density_matrix_arithmetic_returns_operators():
    rho = DensityMatrix(QUBIT, [[0.75, 0.25], [0.25, 0.25]])
    assert isinstance(rho, Operator)
    for out in (rho + rho, rho - rho, -rho, 2.0 * rho, rho / 2.0, rho @ rho, rho.dag()):
        assert type(out) is Operator
    assert entrymax(rho + rho, 2.0 * rho.mat) == 0.0
    assert repr(rho) == "DensityMatrix(dim=2, factors=(2,))"


def test_pure_state_density_normalizes():
    from zenoslh import pure_state_density

    rho = pure_state_density(QUBIT, [2.0, 2.0j])
    assert rho.purity() == pytest.approx(1.0)
    assert rho.mat[0, 0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        pure_state_density(QUBIT, [0.0, 0.0])


@pytest.mark.parametrize("index", [1.5, True, np.float64(1.0), "1"])
def test_basis_state_density_rejects_an_index_that_is_not_an_integer(index):
    # 1.5 once raised numpy's IndexError, and True built |1><1|
    with pytest.raises(ValueError, match="basis index must be an integer") as err:
        basis_state_density(HilbertSpace((3,)), index)
    assert repr(index) in str(err.value)
    assert basis_state_density(HilbertSpace((3,)), np.int64(1)).mat[1, 1] == 1.0


def test_evolve_zero_horizon():
    g = qubit_decay(1.0)
    rho0 = basis_state_density(QUBIT, 1)
    res = evolve(g, rho0, 0.0, 1e-3)
    assert len(res.states) == 1 and res.times[0] == 0.0


def test_dissipator_mixed_qubit():
    gamma = 1.3
    g = qubit_decay(gamma)
    out = dissipator(g, maximally_mixed(QUBIT))
    assert entrymax(out, (gamma / 2) * np.diag([1.0, -1.0])) < 1e-14


def test_dissipator_traceless_and_hamiltonian_only():
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_triple(rng, 4, 2)
        rho = DensityMatrix(g.space, random_density_matrix(rng, 4))
        assert abs(np.trace(dissipator(g, rho).mat)) < 1e-12

    h = Operator(QUBIT, np.diag([0.0, 1.0]).astype(complex))
    g = SLHTriple(((identity(QUBIT),),), (zero(QUBIT),), h)
    rho = maximally_mixed(QUBIT)
    expected = 1j * (rho.mat @ h.mat - h.mat @ rho.mat)
    assert entrymax(dissipator(g, rho), expected) < 1e-15


def test_liouvillian_matrix_matches_dissipator():
    rng = np.random.default_rng(32)
    g = random_triple(rng, 3, 2)
    lv = liouvillian_matrix(g)
    rho = random_density_matrix(rng, 3)
    direct = dissipator(g, DensityMatrix(g.space, rho)).mat
    via = (lv @ rho.reshape(-1, order="F")).reshape((3, 3), order="F")
    assert entrymax(via, direct) < 1e-13


def test_evolve_qubit_decay_analytic():
    g = qubit_decay(1.0)
    res = evolve(g, basis_state_density(QUBIT, 1), 1.0, 1e-3)
    p11 = np.array([s.mat[1, 1].real for s in res.states])
    assert np.max(np.abs(p11 - np.exp(-res.times))) < 1e-8


def test_evolve_trivial_model_is_constant():
    g = SLHTriple(((identity(QUBIT),),), (zero(QUBIT),), zero(QUBIT))
    rho0 = DensityMatrix(QUBIT, [[0.25, 0.1], [0.1, 0.75]])
    res = evolve(g, rho0, 1.0, 1e-2)
    assert entrymax(res.final, rho0) < 1e-14


def test_evolve_zeno_kerr_dephasing():
    # undriven limit qubit: coherence rotates at Delta and decays at (k1+k2)/2
    delta, kappas = 1.0, (1.0, 1.0)
    fam, split = kerr_family(delta=delta, kappas=kappas, alpha=0.0)
    g = zeno_eliminate(fam, split).zeno_triple
    rho0 = DensityMatrix(g.space, [[0.5, 0.5], [0.5, 0.5]])
    res = evolve(g, rho0, 1.0, 1e-3)
    coh = np.array([s.mat[0, 1] for s in res.states])
    expected = 0.5 * np.exp((1j * delta - sum(kappas) / 2) * res.times)
    assert np.max(np.abs(coh - expected)) < 1e-8


def test_evolve_fourth_order_convergence():
    # at coarse steps truncation dominates rounding: halving dt gains ~16x
    g = qubit_decay(1.0)
    rho0 = basis_state_density(QUBIT, 1)

    def max_err(dt):
        res = evolve(g, rho0, 1.0, dt)
        p11 = np.array([s.mat[1, 1].real for s in res.states])
        return np.max(np.abs(p11 - np.exp(-res.times)))

    ratio = max_err(0.1) / max_err(0.05)
    assert 8 <= ratio <= 32


def test_evolve_save_every():
    g = qubit_decay(1.0)
    res = evolve(g, basis_state_density(QUBIT, 1), 1.0, 1e-3, save_every=100)
    assert len(res.states) == 11
    assert res.times[-1] == pytest.approx(1.0)


def test_evolve_aborts_on_trace_blowup():
    # absurdly large step makes the fixed-step scheme diverge
    g = qubit_decay(80.0)
    with pytest.raises(StepSizeError):
        evolve(g, basis_state_density(QUBIT, 1), 10.0, 0.5)


def test_evolve_aborts_on_nan_trace_drift():
    # the step map overflows to NaN, and a NaN drift must abort, not pass
    g = SLHTriple(((identity(QUBIT),),), (SIGMA_OP,), 1e300 * pauli("z"))
    with np.errstate(all="ignore"), pytest.raises(StepSizeError):
        evolve(g, basis_state_density(QUBIT, 1), 0.01, 1e-3)


def test_evolve_piecewise_matches_chained_runs():
    g1 = qubit_decay(1.0)
    h = Operator(QUBIT, np.diag([0.0, 2.0]).astype(complex))
    g2 = SLHTriple(((identity(QUBIT),),), (zero(QUBIT),), h)
    rho0 = DensityMatrix(QUBIT, [[0.5, 0.5], [0.5, 0.5]])
    res = evolve_piecewise([(g1, 0.5), (g2, 0.5)], rho0, 1e-3)
    part1 = evolve(g1, rho0, 0.5, 1e-3)
    part2 = evolve(g2, part1.final, 0.5, 1e-3)
    assert res.times[-1] == pytest.approx(1.0)
    assert entrymax(res.final, part2.final) < 1e-14
    assert len(res.times) == len(part1.times) + len(part2.times) - 1


def test_ehrenfest_residuals():
    g = qubit_decay(1.0)
    rho0 = basis_state_density(QUBIT, 1)
    assert ehrenfest_residual(g, rho0, identity(QUBIT), 1.0, 1e-3) < 1e-10
    assert ehrenfest_residual(g, rho0, basis_ketbra(2, 1, 1), 1.0, 1e-3) < 1e-5


def test_ehrenfest_second_order_in_dt():
    rng = np.random.default_rng(33)
    g = random_triple(rng, 3, 1)
    rho0 = DensityMatrix(g.space, random_density_matrix(rng, 3))
    x = Operator(g.space, random_complex_matrix(rng, 3))
    r_coarse = ehrenfest_residual(g, rho0, x, 1.0, 2e-3)
    r_fine = ehrenfest_residual(g, rho0, x, 1.0, 1e-3)
    assert 2.5 <= r_coarse / r_fine <= 6.0


def test_trace_distance_basics():
    rho = basis_state_density(QUBIT, 0)
    sig = basis_state_density(QUBIT, 1)
    assert trace_distance(rho, sig) == pytest.approx(1.0)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-15)


def test_convergence_harness_kerr_small():
    fam, split = kerr_family()
    rho0 = basis_state_density(split.zeno_space, 1)
    pts = convergence_harness(fam, split, rho0, (2.0, 5.0), 0.4, 1e-3)
    assert pts[0].distance > pts[1].distance
    assert pts[0].leaked_trace > pts[1].leaked_trace
    assert pts[1].dt_full == pytest.approx(1e-3 / 25.0)


def test_convergence_harness_k_independent_family():
    # with no k-dependence the whole space is the Zeno space (empty fast
    # part) and the full model coincides with the limit model at every k
    from zenoslh import ZenoSplit

    fam, _ = kerr_family()
    flat = ScaledSLHFamily(
        fam.S,
        tuple(zero(fam.space) for _ in fam.L1),
        fam.L0,
        zero(fam.space),
        zero(fam.space),
        fam.H0,
    )
    split = ZenoSplit.from_indices(fam.space, range(fam.dim))
    rho0 = basis_state_density(split.zeno_space, 1)
    pts = convergence_harness(flat, split, rho0, (1.0, 4.0), 0.3, 1e-3)
    for p in pts:
        assert p.distance < 1e-9
        assert abs(p.leaked_trace) < 1e-12


def test_harness_rejects_full_space_state_mismatch():
    fam, split = kerr_family()
    with pytest.raises(ValueError):
        convergence_harness(fam, split, maximally_mixed(fam.space), (2.0,), 0.2, 1e-3)


def test_full_model_positivity_and_trace_at_moderate_k():
    fam, split = kerr_family()
    g = instantiate(fam, 3.0)
    rho0 = basis_state_density(fam.space, 1)
    res = evolve(g, rho0, 1.0, 1e-3)
    assert np.max(res.trace_drift) < 1e-8
    min_eig = min(np.linalg.eigvalsh(s.mat).min() for s in res.states)
    assert min_eig > -1e-6


def test_duality_evolve_consistency():
    # d/dt tr(rho X) computed two ways agree for the lindbladian pair
    rng = np.random.default_rng(34)
    g = random_triple(rng, 3, 2)
    rho = DensityMatrix(g.space, random_density_matrix(rng, 3))
    x = Operator(g.space, random_complex_matrix(rng, 3))
    lhs = np.trace(dissipator(g, rho).mat @ x.mat)
    rhs = np.trace(rho.mat @ lindbladian(g, x).mat)
    assert abs(lhs - rhs) < 1e-11


# -- dense and matrix-free stepping ----------------------------------------


def scaled_triple(rng, dim, n_channels):
    """Random model with unit-norm couplings and Hamiltonian, so that RK4 at
    dt = 1e-3 is exact to rounding against the matrix exponential."""
    sp = HilbertSpace((dim,))
    s = tuple(
        tuple(identity(sp) if j == k else zero(sp) for k in range(n_channels))
        for j in range(n_channels)
    )
    ls = []
    for _ in range(n_channels):
        a = random_complex_matrix(rng, dim)
        ls.append(Operator(sp, a / np.linalg.norm(a, 2)))
    h = random_hermitian(rng, dim)
    return SLHTriple(s, tuple(ls), Operator(sp, h / np.linalg.norm(h, 2)))


@pytest.mark.parametrize(
    "dim, n_channels, save_every",
    [(13, 1, 1), (13, 3, 7), (17, 2, 1), (20, 2, 7), (24, 3, 1), (24, 1, 7)],
)
def test_matrix_free_matches_dense_and_expm_multiply(monkeypatch, dim, n_channels, save_every):
    from scipy.sparse.linalg import expm_multiply

    rng = np.random.default_rng([dim, n_channels, save_every])
    g = scaled_triple(rng, dim, n_channels)
    rho0 = DensityMatrix(g.space, random_density_matrix(rng, dim))
    t_end, dt = 0.05, 1e-3
    monkeypatch.setattr(master, "_choose_method", lambda *args: "matrix_free")
    free = evolve(g, rho0, t_end, dt, save_every=save_every)
    assert free.method == "matrix_free"
    monkeypatch.setattr(master, "_choose_method", lambda *args: "dense")
    dense = evolve(g, rho0, t_end, dt, save_every=save_every)
    assert dense.method == "dense"
    np.testing.assert_array_equal(free.times, dense.times)
    assert np.max(np.abs(free.rho - dense.rho)) < 1e-12

    v = rho0.mat.reshape(-1, order="F")
    exact = expm_multiply(liouvillian_matrix(g), v, start=0.0, stop=t_end, num=51, endpoint=True)
    steps = np.rint(free.times / dt).astype(int)
    exact = exact[steps].reshape(-1, dim, dim).transpose(0, 2, 1)  # column-major vec
    assert np.max(np.abs(free.rho - exact)) < 1e-12
    assert np.max(np.abs(dense.rho - exact)) < 1e-12


def abort_messages(monkeypatch, g, rho0, t_end, dt):
    """The StepSizeError message of ``evolve`` on the dense and matrix-free paths."""
    messages = []
    for method in ("dense", "matrix_free"):
        with monkeypatch.context() as m:
            m.setattr(master, "_choose_method", lambda *args: method)
            with np.errstate(all="ignore"), pytest.raises(StepSizeError) as err:
                evolve(g, rho0, t_end, dt)
        messages.append(str(err.value))
    return messages


def test_trace_drift_abort_is_the_same_on_both_paths(monkeypatch):
    a = fock_annihilator(13)
    sp = a.space
    # an overflowing Hamiltonian that mixes populations and coherences
    # turns the trace NaN in the first step on both paths
    g = SLHTriple(((identity(sp),),), (a,), 1e200 * (a + a.dag()))
    dense, free = abort_messages(monkeypatch, g, basis_state_density(sp, 1), 0.01, 1e-3)
    assert dense == free == "trace drift nan at t=0.001 exceeds 1.0e-06; reduce dt"
    # strong decay of the top Fock level at a huge step: the trace is
    # conserved up to rounding, whose size differs between the paths, and
    # both abort at the same t once the state has blown up
    g = SLHTriple(((identity(sp),),), (np.sqrt(80.0) * a,), zero(sp))
    dense, free = abort_messages(monkeypatch, g, basis_state_density(sp, 12), 10.0, 0.5)
    for msg in (dense, free):
        assert msg.startswith("trace drift ") and msg.endswith(" at t=1 exceeds 1.0e-06; reduce dt")


def test_method_selection_rule():
    choose = master._choose_method
    # the digested outputs all run at d <= 12
    assert master.DENSE_MAX_DIM >= 12
    for d in range(1, master.DENSE_MAX_DIM + 1):
        assert choose(d) == "dense"
    for d in (master.DENSE_MAX_DIM + 1, 30, 54, 150):
        assert choose(d) == "matrix_free"
    # the path depends on d alone: at d = 12 one step and 500 steps, with
    # 0, 1 and 4 channels, are all dense
    rng = np.random.default_rng(12)
    for n_channels in (0, 1, 4):
        g = scaled_triple(rng, 12, n_channels)
        rho0 = DensityMatrix(g.space, random_density_matrix(rng, 12))
        for t_end in (1e-3, 0.5):
            assert evolve(g, rho0, t_end, 1e-3, save_every=master.MAX_STEPS).method == "dense"


def test_evolve_records_method():
    g = qubit_decay(1.0)
    rho0 = basis_state_density(QUBIT, 1)
    assert evolve(g, rho0, 0.1, 1e-3).method == "dense"
    assert evolve_piecewise([(g, 0.1), (g, 0.1)], rho0, 1e-3).method == "dense"
    assert evolve_piecewise([], rho0, 1e-3).method is None
    # a piecewise run records its segments' one method, short segments and
    # long alike, and steps as the chained runs do
    for d, method in ((13, "dense"), (master.DENSE_MAX_DIM + 1, "matrix_free")):
        rng = np.random.default_rng([35, d])
        gd = scaled_triple(rng, d, 1)
        rhod = DensityMatrix(gd.space, random_density_matrix(rng, d))
        res = evolve_piecewise([(gd, 0.01), (gd, 0.3), (gd, 0.01)], rhod, 1e-3)
        assert res.method == method
        part1 = evolve(gd, rhod, 0.01, 1e-3)
        part2 = evolve(gd, part1.final, 0.3, 1e-3)
        part3 = evolve(gd, part2.final, 0.01, 1e-3)
        assert part1.method == part2.method == part3.method == method
        np.testing.assert_array_equal(res.final.mat, part3.final.mat)


@pytest.mark.parametrize("dim", [13, 30, 60])
@pytest.mark.parametrize("n_channels", [0, 1, 2, 4])
def test_k_form_dissipator_matches_dissipator(dim, n_channels):
    rng = np.random.default_rng([dim, n_channels])
    g = scaled_triple(rng, dim, n_channels)
    m = random_density_matrix(rng, dim)
    rho = DensityMatrix(g.space, 0.5 * (m + m.conj().T))
    assert np.array_equal(rho.mat, rho.mat.conj().T)
    want = dissipator(g, rho).mat
    got = master._Gemm(g).apply(rho.mat, np.empty((dim, dim), dtype=complex))
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale
    assert abs(np.trace(got)) <= 1e-13 * scale


def per_operand_right(x, b):
    """x @ b for each matrix of the (M, d, d) stack x, as one product of its
    (M d, d) rows: the per-operand form that ``master._right`` stacks."""
    return (x.reshape(-1, len(b)) @ b).reshape(x.shape)


@pytest.mark.parametrize("d", [1, 2, 5, 13, 30])
@pytest.mark.parametrize("members", [0, 1, 4, 33])
def test_stacked_right_product_is_the_per_operand_product_bit_for_bit(d, members):
    # one GEMM per stacked operand, each of the per-operand shape, so every
    # entry rounds alike; the operands are C-ordered or transposed views (as
    # the adjoints are), and the rows one shared stack, one per operand, or a
    # strided view (as the left products are); members = 0 is the empty
    # stack, which a reshape to (-1, M d, d) cannot take
    rng = np.random.default_rng([d, members])
    for p in range(1, 7):
        b = rng.standard_normal((p, d, d)) + 1j * rng.standard_normal((p, d, d))
        b *= 10.0 ** rng.uniform(-8, 8, b.shape)
        y = rng.standard_normal((members, p, d, d)) + 1j * rng.standard_normal((members, p, d, d))
        y *= 10.0 ** rng.uniform(-8, 8, y.shape)
        for ops in (b, b.conj().swapaxes(1, 2)):
            for x in (y[:, 0], np.ascontiguousarray(y.swapaxes(0, 1)), y.swapaxes(0, 1)):
                got = master._right(x, ops)
                assert got.shape == (p, members, d, d)
                for j in range(p):
                    want = per_operand_right(x if x.ndim == 3 else x[j], ops[j])
                    assert np.array_equal(got[j], want), (p, j)


def test_matrix_free_steps_the_hermitian_part_of_rho0(monkeypatch):
    rng = np.random.default_rng(1313)
    g = scaled_triple(rng, 13, 2)
    m = random_density_matrix(rng, 13)
    herm = 0.5 * (m + m.conj().T)
    x = random_hermitian(rng, 13)
    rho0 = DensityMatrix(g.space, herm + 1e-11j * x / np.max(np.abs(x)))
    monkeypatch.setattr(master, "_choose_method", lambda *args: "matrix_free")
    free = evolve(g, rho0, 0.05, 1e-3)
    np.testing.assert_array_equal(free.rho[0], rho0.mat)
    # the run is that of the Hermitian part, bit for bit, after the first row
    from_herm = evolve(g, DensityMatrix(g.space, herm), 0.05, 1e-3)
    np.testing.assert_array_equal(free.rho[1:], from_herm.rho[1:])
    monkeypatch.setattr(master, "_choose_method", lambda *args: "dense")
    dense = evolve(g, rho0, 0.05, 1e-3)
    assert np.max(np.abs(free.rho - dense.rho)) < 1e-12


@pytest.mark.parametrize(
    "t_end, dt", [(np.inf, 1e-3), (1.0, np.nan), (np.nan, 1e-3), (1.0, np.inf), (1e300, 1e-300)]
)
def test_evolve_rejects_non_finite_horizon_and_step(t_end, dt):
    g = qubit_decay(1.0)
    with pytest.raises(ValueError, match="finite"):
        evolve(g, basis_state_density(QUBIT, 1), t_end, dt)


# -- stepping in vec space -------------------------------------------------


def stepping_model(monkeypatch, rng, dim, method):
    """The model of a bit-exactness check on the path ``method``: the Kerr
    cavity of the evolve_dense workload, which ``_method`` steps banded at
    n_max = dim > DENSE_MAX_DIM, or a random model on the dense or GEMM path,
    which ``_choose_method`` is patched to pick."""
    if method == "banded":
        return instantiate(kerr_family(n_max=dim, chi0=0.03)[0], 2.0)
    monkeypatch.setattr(master, "_choose_method", lambda *args: method)
    return scaled_triple(rng, dim, 2)


def matrix_space_reference(g, rho0, t_end, dt, save_every, method):
    """``evolve``'s loop as it stepped the d x d matrix before it stepped the
    column-stacked vector; kept to check that the two round alike."""
    n_steps = max(0, int(round(t_end / dt)))
    if t_end > 0 and n_steps == 0:
        n_steps = 1
    dt_eff = t_end / n_steps if n_steps else dt
    save_every = max(1, int(save_every))
    d = g.dim
    if method == "dense":
        phi = master._rk4_step_matrix(liouvillian_matrix(g), dt_eff)

        def step_map(m):
            return (phi @ m.reshape(-1, order="F")).reshape((d, d), order="F")

    else:
        terms = master._Banded(g) if method == "banded" else master._Gemm(g)

        def step_map(m):
            return master._rk4_step(terms, m, dt_eff, np.empty((d, d), dtype=complex))

    n_saved = 1 + -(-n_steps // save_every)
    times, tdrift, hdrift = np.zeros(n_saved), np.zeros(n_saved), np.zeros(n_saved)
    rho = np.empty((n_saved, d, d), dtype=complex)
    m = rho[0] = rho0.mat
    tdrift[0] = abs(np.trace(m).real - 1.0)
    if method != "dense":
        m = 0.5 * (m + m.conj().T)
    j = 0
    for step in range(1, n_steps + 1):
        m = step_map(m)
        saved = step % save_every == 0 or step == n_steps
        if saved:
            h_defect = float(np.max(np.abs(m - m.conj().T)))
        m = 0.5 * (m + m.conj().T)
        drift = abs(float(np.trace(m).real) - 1.0)
        if not drift <= master.TRACE_ABORT_TOL:
            raise StepSizeError(
                f"trace drift {drift:.3e} at t={step * dt_eff:.6g} exceeds "
                f"{master.TRACE_ABORT_TOL:.1e}; reduce dt"
            )
        if saved:
            j += 1
            times[j], rho[j], tdrift[j], hdrift[j] = step * dt_eff, m, drift, h_defect
    return times, rho, tdrift, hdrift


def assert_same_bytes(res, want):
    """The times, states and drifts of ``res`` have the bytes of those of
    ``matrix_space_reference`` in ``want``; np.array_equal would count -0.0
    equal to 0.0."""
    got = (res.times, res.rho, res.trace_drift, res.hermiticity_drift)
    for name, a, b in zip(("times", "rho", "trace_drift", "hermiticity_drift"), got, want):
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize(
    "dim, method, save_every",
    [
        *((d, "dense", s) for d in (4, 6, 12) for s in (1, 7, master.MAX_STEPS)),
        *((d, "matrix_free", s) for d in (13, 30) for s in (1, 7)),
        *((d, "banded", s) for d in (20, 30) for s in (1, 7)),
    ],
)
def test_vec_space_stepping_is_bit_exact(monkeypatch, dim, method, save_every):
    rng = np.random.default_rng([dim, save_every % 1000])
    g = stepping_model(monkeypatch, rng, dim, method)
    rho0 = DensityMatrix(g.space, random_density_matrix(rng, dim))
    res = evolve(g, rho0, 0.05, 1e-3, save_every=save_every)
    assert res.method == method
    times, rho, tdrift, hdrift = matrix_space_reference(g, rho0, 0.05, 1e-3, save_every, method)
    assert len(times) == (2 if save_every > 50 else 1 + -(-50 // save_every))
    assert_same_bytes(res, (times, rho, tdrift, hdrift))


@pytest.mark.parametrize(
    "dim, method", [(6, "dense"), (19, "dense"), (24, "matrix_free"),
                    (20, "banded"), (30, "banded")],
)
@pytest.mark.parametrize("save_every", [1, master.MAX_STEPS])
def test_stepping_that_keeps_coherences_zero_is_bit_exact(monkeypatch, dim, method, save_every):
    # a diagonal Hamiltonian and channels proportional to a keep every
    # coherence of a basis state exactly zero, so the signs of those zeros
    # are part of the bytes compared
    sp = HilbertSpace((dim,))
    a = fock_annihilator(dim)
    h = Operator(sp, np.diag(np.random.default_rng([dim, 39]).standard_normal(dim)))
    g = SLHTriple(((identity(sp), zero(sp)), (zero(sp), identity(sp))), (a, 0.5 * a), h)
    if method == "matrix_free":
        monkeypatch.setattr(master, "_BANDED_RATIO", np.inf)
    rho0 = basis_state_density(sp, dim - 1)
    res = evolve(g, rho0, 0.05, 1e-3, save_every=save_every)
    assert res.method == method
    assert not res.rho[:, ~np.eye(dim, dtype=bool)].any()
    assert_same_bytes(res, matrix_space_reference(g, rho0, 0.05, 1e-3, save_every, method))


@pytest.mark.parametrize("method", ["dense", "matrix_free", "banded"])
def test_stepping_through_subnormal_entries_is_bit_exact(monkeypatch, method):
    # entries below the smallest normal float round on a coarser grid, where
    # halving a term before a sum is not exact: a decay at rate 100 takes the
    # qubit's excited population there near step 720, and the high levels of
    # the driven Kerr cavity get there within 30 steps from a basis state
    if method == "dense":
        g, steps, dt = qubit_decay(100.0), 750, 1e-2
        rho0 = basis_state_density(QUBIT, 1)
    else:
        g, steps, dt = instantiate(kerr_family(n_max=60, chi0=0.03)[0], 2.0), 30, 1e-3
        rho0 = basis_state_density(g.space, 1)
        if method == "matrix_free":
            monkeypatch.setattr(master, "_BANDED_RATIO", np.inf)
    res = evolve(g, rho0, steps * dt, dt)
    assert res.method == method
    x = np.abs(res.rho.view(float))
    assert ((x > 0) & (x < np.finfo(float).tiny)).any()
    assert_same_bytes(res, matrix_space_reference(g, rho0, steps * dt, dt, 1, method))


def test_dense_step_products_round_as_matmul_at_every_dense_size():
    # the dense path steps with phi.dot(v, w), which costs less per call than
    # np.matmul(phi, v, w): on the BLAS in use both give the same bytes at
    # every d up to DENSE_MAX_DIM, for the exactly Hermitian states stepped
    rng = np.random.default_rng(39)
    for d in range(1, master.DENSE_MAX_DIM + 1):
        g = scaled_triple(rng, d, 2)
        phi = master._rk4_step_matrix(liouvillian_matrix(g), 1e-3)
        out = np.empty(d * d, dtype=complex)
        for _ in range(5):
            m = random_density_matrix(rng, d)
            v = (0.5 * (m + m.conj().T)).reshape(-1, order="F")
            assert phi.dot(v, out).tobytes() == np.matmul(phi, v).tobytes(), d


def test_vec_space_abort_matches_matrix_space(monkeypatch):
    a = fock_annihilator(13)
    sp = a.space
    cases = [
        # NaN in the first step
        (SLHTriple(((identity(sp),),), (a,), 1e200 * (a + a.dag())), 1, 0.01, 1e-3),
        # finite drift past the threshold after the state has blown up
        (SLHTriple(((identity(sp),),), (np.sqrt(80.0) * a,), zero(sp)), 12, 10.0, 0.5),
    ]
    for g, level, t_end, dt in cases:
        rho0 = basis_state_density(sp, level)
        for method in ("dense", "matrix_free"):
            monkeypatch.setattr(master, "_choose_method", lambda *args: method)
            with np.errstate(all="ignore"):
                with pytest.raises(StepSizeError) as got:
                    evolve(g, rho0, t_end, dt)
                with pytest.raises(StepSizeError) as want:
                    matrix_space_reference(g, rho0, t_end, dt, 1, method)
            assert str(got.value) == str(want.value)
            assert " at t=" in str(got.value)


def test_evolve_rejects_more_than_2_to_the_53_steps():
    g = qubit_decay(1.0)
    rho0 = basis_state_density(QUBIT, 1)
    with pytest.raises(ValueError, match=r"step count 18014398509481984 exceeds 2\*\*53"):
        evolve(g, rho0, 1.0, 2.0**-54)


def test_final_only_convergence_run_holds_two_rows():
    import tracemalloc

    # at k = 1e6 the full model takes 1e13 steps; a huge Kerr term (which the
    # limit qubit does not see) makes it abort in the first one, so the
    # run's memory is what it allocated up front
    fam, split = kerr_family(chi0=1e30)
    rho0 = basis_state_density(split.zeno_space, 1)
    tracemalloc.start()
    try:
        with np.errstate(all="ignore"), pytest.raises(StepSizeError, match="at t=1e-15 "):
            convergence_harness(fam, split, rho0, (1e6,), 0.01, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two saved rows at d = 6 take about 1 kB; saving every 10**9 steps
    # would take 10**4 rows, about 6 MB
    assert peak < 2**20


# -- the trace check per block of steps ------------------------------------

BLOCK_STEP_COUNTS = (master._BLOCK - 1, master._BLOCK, master._BLOCK + 1, 2 * master._BLOCK + 3)
BLOCK_SAVE_EVERY = (1, 7, master._BLOCK, master._BLOCK + 1, master.MAX_STEPS)


@pytest.mark.parametrize(
    "method, dim",
    [(m, d) for m in ("dense", "matrix_free") for d in (5, 13)] + [("banded", 20), ("banded", 30)],
)
def test_block_stepping_is_bit_exact_across_block_boundaries(monkeypatch, dim, method):
    # the matrix-free path's blocks at d = 13, and the banded path's at
    # d = 20 and 30, are capped in bytes below _BLOCK steps, so both kinds of
    # block end are crossed
    rng = np.random.default_rng([dim, 17])
    g = stepping_model(monkeypatch, rng, dim, method)
    rho0 = DensityMatrix(g.space, random_density_matrix(rng, dim))
    dt = 1e-3
    for n_steps in BLOCK_STEP_COUNTS:
        for save_every in BLOCK_SAVE_EVERY:
            res = evolve(g, rho0, n_steps * dt, dt, save_every=save_every)
            assert res.method == method and res.n_steps == n_steps
            want = matrix_space_reference(g, rho0, n_steps * dt, dt, save_every, method)
            got = (res.times, res.rho, res.trace_drift, res.hermiticity_drift)
            for name, a, b in zip(("times", "rho", "trace_drift", "hermiticity_drift"), got, want):
                assert a.tobytes() == b.tobytes(), (n_steps, save_every, name)


def test_abort_inside_a_block_matches_matrix_space(monkeypatch):
    # RK4 at dt = 0.1 amplifies a decay at rate 32 about 1.8-fold per
    # step; the trace conserved by the map drifts by rounding of the growing
    # populations, past the threshold near step 40 of 300: strictly inside
    # the first block, with the steps after it still finite
    g = qubit_decay(32.0)
    rho0 = basis_state_density(QUBIT, 1)
    t_end, dt = 300 * 0.1, 0.1
    for method in ("dense", "matrix_free"):
        monkeypatch.setattr(master, "_choose_method", lambda *args: method)
        with pytest.raises(StepSizeError) as got:
            evolve(g, rho0, t_end, dt, save_every=master.MAX_STEPS)
        with pytest.raises(StepSizeError) as want:
            matrix_space_reference(g, rho0, t_end, dt, master.MAX_STEPS, method)
        assert str(got.value) == str(want.value)
        step = round(float(str(got.value).split(" at t=")[1].split()[0]) / dt)
        assert 1 < step < master._BLOCK


def test_abort_leaks_no_warning_from_steps_past_it(monkeypatch):
    import warnings

    # the fast blow-up: the drift fails at step 2 with finite values; the
    # state then grows about 2e9-fold per step, so that steps 3 to 20 stay
    # finite and steps 3 to 80 overflow, all in the first block
    a = fock_annihilator(13)
    g = SLHTriple(((identity(a.space),),), (np.sqrt(80.0) * a,), zero(a.space))
    rho0 = basis_state_density(a.space, 12)
    for method in ("dense", "matrix_free"):
        monkeypatch.setattr(master, "_choose_method", lambda *args: method)
        for t_end in (10.0, 40.0):
            with np.errstate(all="ignore"), pytest.raises(StepSizeError) as want:
                matrix_space_reference(g, rho0, t_end, 0.5, master.MAX_STEPS, method)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(StepSizeError) as got:
                    evolve(g, rho0, t_end, 0.5, save_every=master.MAX_STEPS)
            assert str(got.value) == str(want.value)
            assert str(got.value).endswith(" at t=1 exceeds 1.0e-06; reduce dt")


def test_floating_point_errors_before_an_abort_reach_the_caller(monkeypatch):
    # an overflow at the step that aborts is the caller's to see: under
    # np.errstate(over="raise") it raises there, as with a check per step
    a = fock_annihilator(13)
    g = SLHTriple(((identity(a.space),),), (a,), 1e200 * (a + a.dag()))
    rho0 = basis_state_density(a.space, 1)
    for method in ("dense", "matrix_free"):
        monkeypatch.setattr(master, "_choose_method", lambda *args: method)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            matrix_space_reference(g, rho0, 0.01, 1e-3, master.MAX_STEPS, method)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            evolve(g, rho0, 0.01, 1e-3, save_every=master.MAX_STEPS)
        with np.errstate(all="ignore"), pytest.raises(StepSizeError, match="nan at t=0.001 "):
            evolve(g, rho0, 0.01, 1e-3, save_every=master.MAX_STEPS)


def test_block_trace_drift_is_each_states_np_trace_drift_bit_for_bit():
    """One reduction over a block's rows gives each state's drift exactly as
    ``np.trace`` of its d x d matrix does, at every d evolve's blocks hold."""
    rng = np.random.default_rng(40)
    for d in [*range(1, 41), 64, 150]:
        n = 5 if d > 40 else 37
        x = rng.standard_normal((n, d * d)) + 1j * rng.standard_normal((n, d * d))
        x *= 10.0 ** rng.uniform(-12, 4, (n, d * d))  # mixed magnitudes
        # the later rows' traces near 1
        x[n // 2 :, :: d + 1] = (1.0 + 1e-7 * rng.standard_normal((n - n // 2, d))) / d
        want = [abs(np.trace(row.reshape((d, d), order="F")).real - 1.0) for row in x]
        assert np.array_equal(master._trace_drift(x, d), want), d
        assert [master._trace_drift(row, d) for row in x] == want, d


def test_block_buffers_are_capped_in_bytes():
    import tracemalloc

    from zenoslh import SimConfig
    from zenoslh.trajectories import _ensemble_blocks

    # at d = 30 a full block of _BLOCK states would take 7.4 MB; a
    # final-only run of 600 steps, and the blocks of a one-member ensemble of
    # 600 steps, each hold at most _BLOCK_BYTES more than a run of one step
    rng = np.random.default_rng(30)
    g = scaled_triple(rng, 30, 1)
    rho0 = DensityMatrix(g.space, random_density_matrix(rng, 30))
    runs = {
        "evolve": lambda n: evolve(g, rho0, n * 1e-3, 1e-3, save_every=master.MAX_STEPS),
        "ensemble": lambda n: list(_ensemble_blocks(g, rho0, SimConfig(1e-3, n * 1e-3), 1))[-1],
    }
    for name, run in runs.items():
        peaks = []
        for n_steps in (1, 600):
            tracemalloc.start()
            try:
                run(n_steps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= master._BLOCK_BYTES + 2**16, name


def test_results_record_step_count_and_step():
    g = qubit_decay(1.0)
    rho0 = basis_state_density(QUBIT, 1)
    res = evolve(g, rho0, 0.1, 3e-3)
    assert res.n_steps == 33 and res.dt_eff == 0.1 / 33
    zero_run = evolve(g, rho0, 0.0, 1e-3)
    assert zero_run.n_steps == 0 and zero_run.dt_eff == 1e-3
    pw = evolve_piecewise([(g, 0.1), (g, 0.05)], rho0, 1e-3)
    assert pw.n_steps == 150 and pw.dt_eff == evolve(g, rho0, 0.1, 1e-3).dt_eff
    assert evolve_piecewise([(g, 0.1), (g, 0.1001)], rho0, 1e-3).dt_eff is None
    empty = evolve_piecewise([], rho0, 1e-3)
    assert empty.n_steps is None and empty.dt_eff is None
    fam, split = kerr_family()
    points = convergence_harness(fam, split, basis_state_density(split.zeno_space, 1), (1.0, 3.0),
                                 0.01, 1e-3)
    assert [p.n_steps for p in points] == [10, 90]


# -- piecewise runs step through evolve's loop ------------------------------


@pytest.mark.parametrize("method", ["dense", "matrix_free"])
def test_evolve_piecewise_is_the_chained_runs_bit_for_bit(monkeypatch, method):
    # a power-of-two dt makes every segment's dt_eff equal dt, zero-step
    # segment included, so the run records it
    rng = np.random.default_rng(21)
    g1, g2, g3 = (scaled_triple(rng, 5, n) for n in (2, 1, 0))
    rho0 = DensityMatrix(g1.space, random_density_matrix(rng, 5))
    monkeypatch.setattr(master, "_choose_method", lambda *args: method)
    dt = 2.0**-10
    schedule = [(g1, (master._BLOCK - 1) * dt), (g2, 0.0), (g3, (master._BLOCK + 1) * dt)]
    res = evolve_piecewise(schedule, rho0, dt)
    fields = ("times", "rho", "trace_drift", "hermiticity_drift")
    want = {name: [] for name in fields}
    state, t0 = rho0, 0.0
    for i, (g, duration) in enumerate(schedule):
        part = evolve(g, state, duration, dt)
        for name in fields:  # the first part's initial row, then each part's steps
            x = getattr(part, name)[min(i, 1):]
            want[name].append(x + t0 if name == "times" else x)
        state, t0 = part.final, t0 + duration
    for name in fields:
        assert np.array_equal(getattr(res, name), np.concatenate(want[name])), name
    assert res.method == method
    assert res.n_steps == 2 * master._BLOCK and res.dt_eff == dt


def test_abort_in_a_later_segment_is_the_chained_runs_abort(monkeypatch):
    # the second segment drifts past the threshold near its step 40, as in
    # test_abort_inside_a_block_matches_matrix_space; the message names the
    # time within that segment
    rho0 = basis_state_density(QUBIT, 1)
    g1, g2 = qubit_decay(1.0), qubit_decay(32.0)
    for method in ("dense", "matrix_free"):
        monkeypatch.setattr(master, "_choose_method", lambda *args: method)
        first = evolve(g1, rho0, 0.5, 0.1)
        with pytest.raises(StepSizeError) as want:
            evolve(g2, first.final, 30.0, 0.1)
        with pytest.raises(StepSizeError) as got:
            evolve_piecewise([(g1, 0.5), (g2, 30.0), (g1, 0.5)], rho0, 0.1)
        assert str(got.value) == str(want.value)


def test_piecewise_checks_every_segment_before_any_step(monkeypatch):
    def no_steps(*args):
        raise AssertionError("a step was taken")

    g = qubit_decay(1.0)
    rho0 = basis_state_density(QUBIT, 1)
    qutrit = HilbertSpace((3,))
    other = SLHTriple(((identity(qutrit),),), (zero(qutrit),), zero(qutrit))
    monkeypatch.setattr(master, "_run_steps", no_steps)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            evolve_piecewise([(g, 0.1), (g, bad)], rho0, 1e-3)
    with pytest.raises(ValueError, match="different space"):
        evolve_piecewise([(g, 0.1), (other, 0.1)], rho0, 1e-3)


def test_piecewise_run_holds_its_saved_states_once():
    import tracemalloc

    # 3 x 1000 saved steps at d = 12 take 6.9 MB; the segments' own
    # results and their concatenation would hold them twice
    rng = np.random.default_rng(12)
    g = scaled_triple(rng, 12, 1)
    rho0 = DensityMatrix(g.space, random_density_matrix(rng, 12))
    tracemalloc.start()
    try:
        res = evolve_piecewise([(g, 1.0)] * 3, rho0, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.rho.shape == (3001, 12, 12)
    assert peak < 1.5 * res.rho.nbytes


# -- convergence_harness forks its bins of k ---------------------------------

# 1000 k^2 / 2 steps each: 500, 2000, 4500, 8000 and 18000
KS = (1.0, 2.0, 3.0, 4.0, 6.0)


def _harness(monkeypatch, cpus, ks=KS, t_end=0.5):
    """convergence_harness on the Kerr family, run with ``cpus`` usable CPUs
    in a process taken to run one thread (BLAS's own may run here)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(master, "_one_thread", lambda: True)
    fam, split = kerr_family()
    return convergence_harness(fam, split, basis_state_density(split.zeno_space, 1), ks, t_end,
                               1e-3)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_bins_take_the_longest_run_first_into_the_lightest_bin(monkeypatch):
    steps = [500, 2000, 4500, 8000, 18000]
    assert master._bins(steps, 1) == [[0, 1, 2, 3, 4]]
    assert master._bins(steps, 2) == [[0, 1, 2, 3], [4]]  # 15000 and 18000 steps
    assert master._bins(steps, 3) == [[0, 1, 2], [3], [4]]
    assert master._bins([5, 5, 5], 2) == [[1], [0, 2]]  # ties by index, lightest first
    monkeypatch.setattr(master, "_one_thread", lambda: True)
    for cpus, bins in [(1, 1), (2, 2), (4, 4), (5, 4), (8, 4)]:
        # with 5 bins one child would take 2000 steps, too few to fork for
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert master._plan(steps, "dense") == master._bins(steps, bins)
        assert master._plan(steps, "matrix_free") == [[0, 1, 2, 3, 4]]
    monkeypatch.setattr(master, "_one_thread", lambda: False)
    assert master._plan(steps, "dense") == [[0, 1, 2, 3, 4]]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_harness_points_do_not_depend_on_the_worker_count(monkeypatch, cpus):
    serial = _harness(monkeypatch, 1)
    points = _harness(monkeypatch, cpus)
    _no_child_left()

    def digits(pts):
        return [(p.k, p.distance.hex(), p.leaked_trace.hex(), p.dt_full.hex(), p.n_steps,
                 p.method) for p in pts]

    assert digits(points) == digits(serial) and points == serial
    # k = 6, then k = 4, each in a child of its own
    assert [p.worker for p in points] == {1: [0] * 5, 2: [0, 0, 0, 0, 1],
                                          3: [0, 0, 0, 1, 2]}[cpus]


@pytest.mark.parametrize(
    "ks, limit_fails, error, message",
    [
        # k = 2 fails in the caller's bin, k = 6 in the child's
        (KS, False, ValueError, "k = 2.0 fails"),
        ((6.0, 1.0, 2.0, 3.0, 4.0), False, StepSizeError, "k = 6.0 fails"),
        (KS, True, ValueError, "the limit run fails"),
    ],
)
def test_failing_bins_raise_the_error_of_a_serial_run(monkeypatch, ks, limit_fails, error,
                                                      message):
    instantiate_k, evolve_g = master.instantiate, master.evolve

    def failing_instantiate(family, k):
        if k == 2.0:
            raise ValueError("k = 2.0 fails")
        if k == 6.0:
            raise StepSizeError("k = 6.0 fails")
        return instantiate_k(family, k)

    def failing_evolve(g, *args, **kwargs):
        if limit_fails and g.dim == 2:
            raise ValueError("the limit run fails")
        return evolve_g(g, *args, **kwargs)

    monkeypatch.setattr(master, "instantiate", failing_instantiate)
    monkeypatch.setattr(master, "evolve", failing_evolve)
    with pytest.raises(error, match=f"^{message}$"):
        _harness(monkeypatch, 2, ks)
    _no_child_left()
    steps = [round(500 * k * k) for k in ks]
    assert len(master._plan(steps, "dense")) == 2  # k = 6 ran in a child


@pytest.mark.parametrize(
    "die, how",
    [(lambda: os._exit(3), "exit status 3"), (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9")],
)
def test_a_worker_that_ends_without_its_result_raises_a_typed_error(monkeypatch, die, how):
    caller, instantiate_k = os.getpid(), master.instantiate

    def dying(family, k):
        if os.getpid() != caller:
            die()
        return instantiate_k(family, k)

    monkeypatch.setattr(master, "instantiate", dying)
    with pytest.raises(master.WorkerError, match=rf"ended without its result \({how}\)$"):
        _harness(monkeypatch, 3)
    _no_child_left()


def test_a_matrix_free_harness_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    # on the dense path k = 6 (4320 steps) would run in a child
    assert len(master._plan([120, 4320], "dense")) == 2
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(master, "_choose_method", lambda d: "matrix_free")
    points = _harness(monkeypatch, 2, (1.0, 6.0), 0.12)
    assert [(p.method, p.worker) for p in points] == [("matrix_free", 0)] * 2


def test_a_generator_that_is_not_finite_names_its_term():
    # L^H L = 1e320 a^H a overflows, at any step size
    fam, _ = kerr_family()
    big = SLHTriple(fam.S, tuple(1e160 * op for op in fam.L0), fam.H0)
    rho0 = basis_state_density(big.space, 1)
    with pytest.raises(ValueError, match="^channel 0: L\\^H L is not finite$"):
        liouvillian_matrix(big)
    with pytest.raises(ValueError, match="^channel 0: L\\^H L is not finite$"):
        evolve(big, rho0, 0.01, 1e-3)
    with pytest.raises(ValueError, match="^drift coefficient K is not finite$"):
        master._Gemm(big)


# -- the banded K form -------------------------------------------------------


def banded_triple(rng, d, n_channels):
    """A model of banded d x d operators: each L_i has 1 or 2 diagonals, one
    of them possibly far (offset d // 3, as lambda's n_max is), and H has
    the diagonals 0, 1 and d // 3 with their mirrors, except that H cancels
    K's diagonal at the first positive offset of sum_i L_i^H L_i, so that
    K's diagonals are not symmetric.  Entries are multiples of 1/8, so the
    cancellation is exact."""
    far = d // 3

    def diagonals(offsets):
        m = np.zeros((d, d), dtype=complex)
        for o in offsets:
            re, im = rng.integers(-8, 9, (2, d - abs(o)))
            m += np.diag((re + 1j * im) / 8, o)
        return m

    # the first channel has two diagonals, so that sum_i L_i^H L_i has an
    # off-diagonal one to cancel
    counts = [2, *rng.integers(1, 3, max(0, n_channels - 1))][:n_channels]
    ls = np.array([diagonals(rng.choice([-1, 0, 1, 2, far], c, replace=False))
                   for c in counts]).reshape(n_channels, d, d)
    ldl = sum(li.conj().T @ li for li in ls) if n_channels else np.zeros((d, d))
    cancelled = [o for o in master._diagonals(ldl) if o > 0][:1]
    h = diagonals([o for o in (0, 1, far) if o not in cancelled])
    h = h + h.conj().T
    for o in cancelled:
        part = np.diag(np.diagonal(ldl, o), o)
        h += 0.5j * part - 0.5j * part.conj().T
    sp = HilbertSpace((d,))
    s = np.eye(n_channels)[:, :, None, None] * np.eye(d)
    return SLHTriple(s, ls, Operator(sp, h)), cancelled


@pytest.mark.parametrize("d, n_channels", [(20, 0), (23, 1), (31, 2), (40, 3), (47, 1), (64, 2),
                                           (64, 3)])
def test_banded_k_form_matches_the_gemm_form(d, n_channels):
    rng = np.random.default_rng([d, n_channels, 35])
    g, cancelled = banded_triple(rng, d, n_channels)
    kd = master._diagonals(master.k_operator(g).mat)
    assert max(map(abs, kd)) >= d // 3  # a far diagonal
    for o in cancelled:  # K's diagonals are not symmetric
        assert o not in kd and -o in kd
    m = random_density_matrix(rng, d)
    rho = 0.5 * (m + m.conj().T)
    gemm, banded = master._Gemm(g), master._Banded(g)
    want, got, again = np.empty((3, d, d), dtype=complex)
    gemm.apply(rho, want)
    banded.apply(rho, got)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # the same matrix in Fortran order (rho is exactly Hermitian), bit for bit
    assert np.array_equal(banded.apply(rho.conj().T, again), got)
    # one step at dt |K| = 0.1, where the state moves by about a tenth
    dt = 0.1 / np.max(np.abs(master.k_operator(g).mat))
    master._rk4_step(gemm, rho, dt, want)
    master._rk4_step(banded, rho, dt, got)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_a_d150_kerr_run_on_the_banded_path_matches_the_gemm_path(monkeypatch):
    fam, _ = kerr_family(n_max=150, chi0=0.03)
    g = instantiate(fam, 2.0)
    rho0 = basis_state_density(g.space, 1)
    banded = evolve(g, rho0, 2e-3, 1e-4)
    assert banded.method == "banded"
    monkeypatch.setattr(master, "_BANDED_RATIO", np.inf)
    gemm = evolve(g, rho0, 2e-3, 1e-4)
    assert gemm.method == "matrix_free"
    np.testing.assert_array_equal(banded.times, gemm.times)
    # 20 steps from a pure state, entries at most 1: rounding only (4e-19
    # measured)
    assert np.max(np.abs(banded.rho - gemm.rho)) <= 1e-15
    assert np.max(np.abs(banded.trace_drift - gemm.trace_drift)) <= 1e-15


def _structure_of(g):
    return master._structure(g.H.mat != 0, g.l != 0)


def test_banded_selection_rule():
    rng = np.random.default_rng(35)

    def kerr(n_max):  # the evolve_dense model at n_max = 30
        return instantiate(kerr_family(n_max=n_max, chi0=0.03)[0], 2.0)

    # any structure at d <= DENSE_MAX_DIM is dense
    for d in (2, 12, master.DENSE_MAX_DIM):
        for g in (kerr(d), scaled_triple(rng, d, 2), banded_triple(rng, d, 1)[0]):
            assert master._method(d, [_structure_of(g)]) == "dense"
    # the Kerr model has 3 diagonals of K and one pair: (1 + 4) 30 = 150 >= R 4
    k30 = kerr(30)
    assert _structure_of(k30) == (2, {-1, 0, 1}, {(1, 1)})
    rho0 = basis_state_density(k30.space, 1)
    assert evolve(k30, rho0, 2e-3, 1e-3).method == "banded"
    # a dense triple keeps the GEMM form
    dense30 = scaled_triple(rng, 30, 2)
    assert evolve(dense30, rho0, 2e-3, 1e-3).method == "matrix_free"
    # a piecewise run records one method, from the union of its segments:
    # at d = 2R, a Kerr segment (4 terms) and one whose H adds the diagonals
    # 0, +-3, +-5, +-7, +-9 (10 terms) are each banded, but not together
    d = math.ceil(2 * master._BANDED_RATIO)
    kd = kerr(d)
    h = sum(np.diag(rng.standard_normal(d - o), o) for o in (3, 5, 7, 9))
    wide = SLHTriple(kd.s, kd.l, Operator(kd.space, np.diag(rng.standard_normal(d)) + h + h.T))
    rho0 = basis_state_density(kd.space, 1)
    for segments, method in (([(kd, 1e-3)], "banded"), ([(wide, 1e-3)], "banded"),
                             ([(kd, 1e-3), (kd, 2e-3)], "banded"),
                             ([(kd, 1e-3), (wide, 1e-3)], "matrix_free"),
                             ([(kd, 1e-3), (scaled_triple(rng, d, 2), 1e-3)], "matrix_free")):
        assert evolve_piecewise(segments, rho0, 1e-3).method == method


def test_an_overflowing_k_on_the_banded_path_names_k():
    # L^H L = 1e320 a^H a overflows, at any step size
    fam, _ = kerr_family(n_max=30)
    big = SLHTriple(fam.S, tuple(1e160 * op for op in fam.L0), fam.H0)
    assert master._method(30, [_structure_of(big)]) == "banded"
    with pytest.raises(ValueError, match="^drift coefficient K is not finite$"):
        master._Banded(big)
    with pytest.raises(ValueError, match="^drift coefficient K is not finite$"):
        evolve(big, basis_state_density(big.space, 1), 0.01, 1e-3)


def test_a_banded_harness_forks_its_bins(monkeypatch):
    steps = [500, 2000, 4500, 8000, 18000]
    monkeypatch.setattr(master, "_one_thread", lambda: True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert master._plan(steps, "banded") == master._bins(steps, 2)
    # a d = 20 Kerr sweep: k = 3 (4500 steps) runs in a child, on the banded
    # path, and its point is that of a serial run
    fam, split = kerr_family(n_max=20)
    rho0 = basis_state_density(split.zeno_space, 1)
    points = convergence_harness(fam, split, rho0, (1.0, 3.0), 0.5, 1e-3)
    _no_child_left()
    assert [(p.method, p.worker) for p in points] == [("banded", 0), ("banded", 1)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    serial = convergence_harness(fam, split, rho0, (1.0, 3.0), 0.5, 1e-3)
    assert [p.worker for p in serial] == [0, 0]
    assert [(p.distance.hex(), p.leaked_trace.hex()) for p in points] == [
        (p.distance.hex(), p.leaked_trace.hex()) for p in serial
    ]
