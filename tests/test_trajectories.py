from dataclasses import replace

import numpy as np
import pytest

from zenoslh import (
    DensityMatrix,
    HilbertSpace,
    Operator,
    SimConfig,
    SLHTriple,
    basis_ketbra,
    basis_state_density,
    counting_step,
    ensemble_mean,
    evolve,
    homodyne_step,
    identity,
    pauli,
    pure_state_density,
    simulate,
    simulate_ensemble,
    trace_distance,
    zeno_eliminate,
    zero,
)
from zenoslh.master import StepSizeError, dissipator
from zenoslh.random_models import random_complex_matrix, random_density_matrix, random_hermitian

from common import entrymax, kerr_family, lambda_family

QUBIT = HilbertSpace((2,))
SIGMA_OP = basis_ketbra(2, 0, 1)


def zeno_kerr():
    fam, split = kerr_family()
    return zeno_eliminate(fam, split).zeno_triple


def measured_only(g, channel=0):
    """Single-channel model keeping only the measured coupling."""
    return SLHTriple(((identity(g.space),),), (g.L[channel],), g.H)


def lambda_zeno():
    fam = lambda_family()
    from zenoslh import find_zeno_subspace

    return zeno_eliminate(fam, find_zeno_subspace(fam)).zeno_triple


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        SimConfig(dt=0.1, t_end=0.01)
    with pytest.raises(ValueError):
        SimConfig(dt=0.01, t_end=1.0, scheme="heterodyne")


def test_homodyne_step_zero_coupling_is_pure_noise():
    g = SLHTriple(((identity(QUBIT),),), (zero(QUBIT),), zero(QUBIT))
    rho = DensityMatrix(QUBIT, [[0.5, 0.2], [0.2, 0.5]])
    rho2, dy, di = homodyne_step(g, rho, 0, 1e-3, 0.04)
    assert dy == pytest.approx(0.04)
    assert di == pytest.approx(0.04)
    assert entrymax(rho2, rho) < 1e-14  # D(rho) = 0 and the gain vanishes


def test_homodyne_gain_vanishes_on_excited_state():
    g = measured_only(zeno_kerr())
    rho = basis_state_density(QUBIT, 1)
    # tr(rho (L + L^H)) = 0 and sigma rho + rho sigma^H has no support
    # on the diagonal, so the dW term only moves coherences
    rho_no, _, _ = homodyne_step(g, rho, 0, 1e-4, 0.0)
    rho_w, _, _ = homodyne_step(g, rho, 0, 1e-4, 0.02)
    diff = rho_w.mat - rho_no.mat
    assert abs(diff[0, 0]) < 1e-12 and abs(diff[1, 1]) < 1e-12


def test_homodyne_two_point_average_is_master_step():
    # the gain is linear in dW and traceless, so renormalization is a
    # no-op and averaging +w and -w recovers the deterministic step
    g = measured_only(zeno_kerr())
    rho = DensityMatrix(QUBIT, [[0.3, 0.1], [0.1, 0.7]])
    dt, w = 1e-3, 0.05
    plus, _, _ = homodyne_step(g, rho, 0, dt, +w)
    minus, _, _ = homodyne_step(g, rho, 0, dt, -w)
    euler = rho.mat + dissipator(g, rho).mat * dt
    avg = 0.5 * (plus.mat + minus.mat)
    assert entrymax(avg, euler) < 1e-12


def test_counting_never_jumps_from_dark_state():
    g = measured_only(zeno_kerr())
    rho = basis_state_density(QUBIT, 0)  # kernel of sigma
    for u in (0.0, 0.3, 0.999):
        _, jumped = counting_step(g, rho, 0, 1e-3, u)
        assert not jumped


def test_counting_jump_resets_lambda_state():
    g = lambda_zeno()
    rate = abs(g.L[0].mat[0, 1]) ** 2
    rho = basis_state_density(g.space, 1)  # second dark state
    rho2, jumped = counting_step(g, rho, 0, 1e-3, 0.0)
    assert jumped
    assert entrymax(rho2, np.diag([1.0, 0.0])) < 1e-12
    # jump probability per step equals rate * dt
    p = rate * 1e-3
    _, jumped_above = counting_step(g, rho, 0, 1e-3, p * 1.01)
    assert not jumped_above


def test_counting_guard_on_large_steps():
    g = measured_only(zeno_kerr())
    rho = basis_state_density(QUBIT, 1)
    with pytest.raises(StepSizeError):
        counting_step(g, rho, 0, 0.5, 0.5)


def test_counting_nan_rate_is_a_step_size_error():
    # an overflowing Hamiltonian drives the jump rate to NaN within a few
    # steps; the guard must abort rather than take the no-jump branch
    g = SLHTriple(((identity(QUBIT),),), (SIGMA_OP,), 1e300 * pauli("x"))
    rho0 = pure_state_density(QUBIT, [1.0, 1.0j])
    cfg = SimConfig(dt=1e-3, t_end=0.01, scheme="counting")
    with np.errstate(all="ignore"), pytest.raises(StepSizeError):
        simulate(g, rho0, cfg)


def test_counting_zero_weight_jump_is_an_error():
    g = measured_only(zeno_kerr())
    rho = basis_state_density(QUBIT, 0)
    with pytest.raises(ValueError):
        counting_step(g, rho, 0, 1e-3, -0.1)  # forces the jump branch


def test_simulate_seed_reproducibility():
    g = zeno_kerr()
    rho0 = basis_state_density(QUBIT, 1)
    cfg = SimConfig(dt=1e-3, t_end=0.3, seed=42, scheme="homodyne")
    r1 = simulate(g, rho0, cfg)
    r2 = simulate(g, rho0, cfg)
    assert np.array_equal(r1.record.increments, r2.record.increments)
    assert entrymax(r1.final, r2.final) == 0.0

    cfg_c = SimConfig(dt=1e-3, t_end=0.3, seed=42, scheme="counting")
    c1 = simulate(g, rho0, cfg_c)
    c2 = simulate(g, rho0, cfg_c)
    assert np.array_equal(c1.record.jump_times, c2.record.jump_times)


@pytest.mark.parametrize("scheme", ["homodyne", "counting"])
def test_ensemble_member_is_single_run_with_offset_seed(scheme):
    g = measured_only(zeno_kerr())
    rho0 = basis_state_density(QUBIT, 1)
    cfg = SimConfig(dt=1e-3, t_end=1.0, seed=5, scheme=scheme)
    n = 16
    ens = simulate_ensemble(g, rho0, cfg, n)
    for i in (0, n // 2, n - 1):
        lone = simulate(g, rho0, replace(cfg, seed=cfg.seed + i))
        if scheme == "counting":
            assert len(lone.record.jump_times) > 0  # without a jump every seed gives one path
        assert np.array_equal(ens[i].rho, lone.rho)
        assert np.array_equal(ens[i].times, lone.times)
        assert np.array_equal(ens[i].innovations, lone.innovations)
        if scheme == "homodyne":
            assert np.array_equal(ens[i].record.increments, lone.record.increments)
        else:
            assert np.array_equal(ens[i].record.jump_times, lone.record.jump_times)
    # the members are distinct runs, not one seed repeated
    assert len({r.innovations.tobytes() for r in ens}) > 1


def test_simulate_innovation_statistics():
    # under the filter's own law the innovations are Wiener increments:
    # the per-trajectory total has mean 0 and variance t_end
    g = measured_only(zeno_kerr())
    rho0 = basis_state_density(QUBIT, 0)
    cfg = SimConfig(dt=1e-3, t_end=1.0, seed=7, scheme="homodyne")
    totals = [float(np.sum(r.innovations)) for r in simulate_ensemble(g, rho0, cfg, 500)]
    assert abs(np.mean(totals)) < 0.15
    assert 0.95 <= np.var(totals) <= 1.05


def test_conditioned_states_unit_trace():
    g = zeno_kerr()
    rho0 = basis_state_density(QUBIT, 1)
    cfg = SimConfig(dt=1e-3, t_end=0.2, seed=5, scheme="homodyne")
    r = simulate(g, rho0, cfg)
    for s in r.states:
        assert abs(np.trace(s.mat) - 1.0) < 1e-12


def test_counting_expected_jump_count_matches_rate_integral():
    g = measured_only(zeno_kerr())
    rho0 = basis_state_density(QUBIT, 1)
    cfg = SimConfig(dt=1e-3, t_end=1.0, seed=20, scheme="counting")
    n_traj = 300
    counts = [
        len(r.record.jump_times) for r in simulate_ensemble(g, rho0, cfg, n_traj)
    ]
    # unconditional expectation: integral of tr(rho_t L^H L) dt
    ref = evolve(g, rho0, 1.0, 1e-3)
    ldl = g.L[0].dag() @ g.L[0]
    rates = np.real(ref.expectations(ldl))
    integral = np.trapezoid(rates, ref.times)
    mc_err = 4 * np.std(counts) / np.sqrt(n_traj)
    assert abs(np.mean(counts) - integral) < mc_err


def test_lambda_counting_at_most_one_jump():
    g = lambda_zeno()
    rho0 = basis_state_density(g.space, 1)
    cfg = SimConfig(dt=1e-3, t_end=1.0, seed=8, scheme="counting")
    for r in simulate_ensemble(g, rho0, cfg, 50):
        assert len(r.record.jump_times) <= 1


def test_ensemble_mean_single_trajectory_is_identity():
    g = zeno_kerr()
    rho0 = basis_state_density(QUBIT, 1)
    cfg = SimConfig(dt=1e-3, t_end=0.2, seed=9, scheme="homodyne")
    r = simulate(g, rho0, cfg)
    mean = ensemble_mean([r])
    for a, b in zip(mean.states, r.states):
        assert entrymax(a, b) < 1e-15


def test_ensemble_mean_grid_mismatch():
    g = zeno_kerr()
    rho0 = basis_state_density(QUBIT, 1)
    r1 = simulate(g, rho0, SimConfig(dt=1e-3, t_end=0.2, seed=1))
    r2 = simulate(g, rho0, SimConfig(dt=2e-3, t_end=0.2, seed=1))
    with pytest.raises(ValueError):
        ensemble_mean([r1, r2])


def test_ensemble_mean_tracks_master_equation():
    g = zeno_kerr()
    rho0 = basis_state_density(QUBIT, 1)
    cfg = SimConfig(dt=1e-3, t_end=0.5, seed=31, scheme="homodyne")
    mean = ensemble_mean(simulate_ensemble(g, rho0, cfg, 150))
    ref = evolve(g, rho0, 0.5, 1e-3)
    dev = max(trace_distance(a, b) for a, b in zip(mean.states, ref.states))
    assert dev < 0.08


def test_deviation_shrinks_like_root_m():
    g = zeno_kerr()
    rho0 = basis_state_density(QUBIT, 1)
    ref = evolve(g, rho0, 0.5, 1e-3)

    def deviation(n, seed):
        cfg = SimConfig(dt=1e-3, t_end=0.5, seed=seed, scheme="homodyne")
        mean = ensemble_mean(simulate_ensemble(g, rho0, cfg, n))
        return max(trace_distance(a, b) for a, b in zip(mean.states, ref.states))

    # disjoint seed ranges keep the two ensembles independent
    ratio = deviation(100, seed=900) / deviation(400, seed=50_900)
    assert 1.4 <= ratio <= 2.8


def test_homodyne_purity_preserved_from_pure_start():
    # single measured channel, no unmonitored channels, driven ground start
    g = measured_only(zeno_kerr())
    rho0 = basis_state_density(QUBIT, 0)
    cfg = SimConfig(dt=1e-4, t_end=1.0, seed=12, scheme="homodyne")
    r = simulate(g, rho0, cfg)
    purities = np.array([s.purity() for s in r.states])
    assert purities.min() > 1 - 1e-4


def test_simulate_ensemble_needs_a_member():
    g = zeno_kerr()
    rho0 = basis_state_density(QUBIT, 1)
    cfg = SimConfig(dt=1e-3, t_end=0.01)
    for n in (0, -3):
        with pytest.raises(ValueError, match="at least one trajectory"):
            simulate_ensemble(g, rho0, cfg, n)


class _ScriptedRng:
    """Stands in for a generator: hands out a fixed record of uniforms."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=float)

    def random(self, size):
        return self.uniforms[:size].copy()


def scripted_uniforms(monkeypatch, n_steps, forced, base, members):
    """Counting members base .. base + members - 1 draw u = 0.99 at every
    step (never a jump, as the guard keeps rate dt <= 0.1), except where
    ``forced[i]`` maps a step of member i to the uniform drawn there."""
    scripts = {}
    for i in range(members):
        u = np.full(n_steps, 0.99)
        for step, value in forced.get(i, {}).items():
            u[step] = value
        scripts[base + i] = u
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _ScriptedRng(scripts[seed]))


def assert_same_error(g, rho0, cfg, members, failing):
    """The ensemble raises what a lone run of member ``failing`` raises,
    and member 0 alone runs through."""
    simulate(g, rho0, cfg)
    with pytest.raises(Exception) as lone:
        simulate(g, rho0, replace(cfg, seed=cfg.seed + failing))
    with pytest.raises(Exception) as batch:
        simulate_ensemble(g, rho0, cfg, members)
    assert type(batch.value) is type(lone.value)
    assert str(batch.value) == str(lone.value)
    return batch.value


def test_ensemble_guard_error_is_the_failing_members(monkeypatch):
    # a strong drive out of the dark state |0> pushes the jump probability
    # over the guard unless a jump resets the state first
    g = SLHTriple(((identity(QUBIT),),), (np.sqrt(10.0) * SIGMA_OP,), 10.0 * pauli("x"))
    rho0 = basis_state_density(QUBIT, 0)
    cfg = SimConfig(dt=0.01, t_end=1.0, seed=40, scheme="counting")
    jump_always = {step: 0.0 for step in range(cfg.n_steps)}
    forced = {i: jump_always for i in range(6) if i != 3}
    scripted_uniforms(monkeypatch, cfg.n_steps, forced, cfg.seed, 6)
    err = assert_same_error(g, rho0, cfg, 6, failing=3)
    assert isinstance(err, StepSizeError) and "exceeds" in str(err)


def nan_model():
    # H = 1e300 sigma_z commutes with diagonal states; a coherence
    # overflows within two steps and the jump rate turns NaN.  A jump of
    # sigma_- lands on |0><0|, which is diagonal and dark.
    g = SLHTriple(((identity(QUBIT),),), (SIGMA_OP,), 1e300 * pauli("z"))
    return g, pure_state_density(QUBIT, [1.0, 1.0])


def test_ensemble_nan_rate_error_is_the_failing_members(monkeypatch):
    g, rho0 = nan_model()
    cfg = SimConfig(dt=1e-3, t_end=0.01, seed=50, scheme="counting")
    forced = {i: {0: -1.0} for i in range(6) if i != 3}  # jump to |0><0| at once
    scripted_uniforms(monkeypatch, cfg.n_steps, forced, cfg.seed, 6)
    with np.errstate(all="ignore"):
        err = assert_same_error(g, rho0, cfg, 6, failing=3)
    assert isinstance(err, StepSizeError) and "nan" in str(err)


def test_ensemble_zero_weight_jump_error_is_the_failing_members(monkeypatch):
    g = SLHTriple(((identity(QUBIT),),), (SIGMA_OP,), zero(QUBIT))
    rho0 = basis_state_density(QUBIT, 0)  # dark and stationary
    cfg = SimConfig(dt=1e-3, t_end=0.02, seed=60, scheme="counting")
    scripted_uniforms(monkeypatch, cfg.n_steps, {3: {12: -1.0}}, cfg.seed, 6)
    err = assert_same_error(g, rho0, cfg, 6, failing=3)
    assert type(err) is ValueError and "zero jump probability" in str(err)


def test_ensemble_raises_lowest_failing_member_not_earliest(monkeypatch):
    # member 5 fails first (a zero-weight jump at step 1), member 3 later
    # (NaN rate at step 2); a member-by-member run stops at member 3
    g, rho0 = nan_model()
    cfg = SimConfig(dt=1e-3, t_end=0.01, seed=70, scheme="counting")
    forced = {i: {0: -1.0} for i in range(6) if i != 3}
    forced[5] = {0: -1.0, 1: -1.0}
    scripted_uniforms(monkeypatch, cfg.n_steps, forced, cfg.seed, 6)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="zero jump probability"):
            simulate(g, rho0, replace(cfg, seed=cfg.seed + 5, t_end=0.002))
        simulate(g, rho0, replace(cfg, seed=cfg.seed + 3, t_end=0.002))  # steps 0 and 1 pass
        err = assert_same_error(g, rho0, cfg, 6, failing=3)
    assert isinstance(err, StepSizeError) and "nan" in str(err)


def serial_reference(g, rho0, cfg):
    """One member stepped on its own, in the loop form the lockstep kernel
    replaced: (d, d) matrices and Python-float scalars."""
    h, ls = g.H.mat, g.l
    lc = ls[cfg.measured_channel]
    lcd = lc.conj().T

    def diss(m):
        out = 1j * (m @ h - h @ m)
        for lm in ls:
            ld = lm.conj().T
            ldl = ld @ lm
            out += lm @ m @ ld - 0.5 * (m @ ldl + ldl @ m)
        return out

    def normalize(m):
        m = 0.5 * (m + m.conj().T)
        return m / float(np.trace(m).real)

    n = cfg.n_steps
    dt = cfg.t_end / n
    rng = np.random.default_rng(cfg.seed)
    m, states, innovations = rho0.mat, [rho0.mat], []
    if cfg.scheme == "homodyne":
        for dw in rng.normal(0.0, np.sqrt(dt), size=n):
            mean = float(np.trace(m @ (lc + lcd)).real)
            m = normalize(m + diss(m) * dt + (lc @ m + m @ lcd - mean * m) * dw)
            states.append(m)
            innovations.append(dw)
    else:
        for u in rng.random(size=n):
            rate = float(np.trace(m @ (lcd @ lc)).real)
            jm = lc @ m @ lcd
            jumped = u < rate * dt
            if jumped:
                m = jm / float(np.trace(jm).real)
            else:
                m = normalize(m + (diss(m) - (jm - rate * m)) * dt)
            states.append(m)
            innovations.append((1.0 if jumped else 0.0) - rate * dt)
    return np.array(states), np.array(innovations)


@pytest.mark.parametrize("scheme", ["homodyne", "counting"])
def test_lockstep_matches_serial_reference(scheme):
    # a three-level model with two channels, so traces sum three terms
    rng = np.random.default_rng(2024)
    sp = HilbertSpace((3,))
    ls = tuple(Operator(sp, 0.8 * random_complex_matrix(rng, 3)) for _ in range(2))
    g = SLHTriple(
        tuple(tuple(identity(sp) if i == j else zero(sp) for j in range(2)) for i in range(2)),
        ls,
        Operator(sp, random_hermitian(rng, 3)),
    )
    rho0 = DensityMatrix(sp, random_density_matrix(rng, 3))
    cfg = SimConfig(dt=2e-3, t_end=0.6, measured_channel=1, seed=90, scheme=scheme)
    ens = simulate_ensemble(g, rho0, cfg, 7)
    jumps = 0
    for i, r in enumerate(ens):
        states, innovations = serial_reference(g, rho0, replace(cfg, seed=cfg.seed + i))
        assert np.array_equal(r.rho, states)
        assert np.array_equal(r.innovations, innovations)
        if scheme == "counting":
            jumps += len(r.record.jump_times)
    assert scheme == "homodyne" or jumps > 0
