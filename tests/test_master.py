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
    # small models are dense whatever the step count and channel count
    for d in range(1, master.DENSE_ALWAYS_DIM + 1):
        for n_steps in (0, 1, 100, 10**9):
            assert choose(d, n_steps, 10) == "dense"
    # evolve at d = 30 with 2 channels and 100 steps
    assert choose(30, 100, 2) == "matrix_free"
    # converge on a d = 6 Kerr model over the k grid 1, 2, 3, 4, 6 at dt = 1e-3
    for k in (1, 2, 3, 4, 6):
        assert choose(6, round(0.5 / (1e-3 / k**2)), 2) == "dense"
    # large models are matrix-free whatever the step count and channel count
    for d in (master.MATRIX_FREE_ALWAYS_DIM, 54, 150):
        assert choose(d, 10**9, 10) == "matrix_free"
    # in between, at the timed break-evens: d = 13 with one channel breaks
    # even at 37 steps, d = 20 with two at 352, and at d = 28 with two
    # channels the dense step is no faster
    assert (choose(13, 10, 1), choose(13, 100, 1)) == ("matrix_free", "dense")
    assert (choose(20, 200, 2), choose(20, 500, 2)) == ("matrix_free", "dense")
    assert choose(28, 10**9, 2) == "matrix_free"


def test_evolve_records_method():
    g = qubit_decay(1.0)
    rho0 = basis_state_density(QUBIT, 1)
    assert evolve(g, rho0, 0.1, 1e-3).method == "dense"
    assert evolve_piecewise([(g, 0.1), (g, 0.1)], rho0, 1e-3).method == "dense"
    # at d = 13 with one channel, 10 steps are matrix-free and 2000 dense
    rng = np.random.default_rng(35)
    g13 = scaled_triple(rng, 13, 1)
    rho13 = DensityMatrix(g13.space, random_density_matrix(rng, 13))
    res = evolve_piecewise([(g13, 0.01), (g13, 2.0), (g13, 0.01)], rho13, 1e-3)
    assert res.method == "matrix_free,dense"
    part1 = evolve(g13, rho13, 0.01, 1e-3)
    part2 = evolve(g13, part1.final, 2.0, 1e-3)
    part3 = evolve(g13, part2.final, 0.01, 1e-3)
    assert (part1.method, part2.method, part3.method) == ("matrix_free", "dense", "matrix_free")
    np.testing.assert_array_equal(res.final.mat, part3.final.mat)


@pytest.mark.parametrize(
    "t_end, dt", [(np.inf, 1e-3), (1.0, np.nan), (np.nan, 1e-3), (1.0, np.inf), (1e300, 1e-300)]
)
def test_evolve_rejects_non_finite_horizon_and_step(t_end, dt):
    g = qubit_decay(1.0)
    with pytest.raises(ValueError, match="finite"):
        evolve(g, basis_state_density(QUBIT, 1), t_end, dt)
