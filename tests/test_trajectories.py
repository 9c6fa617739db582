from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    # numpy's SeedSequence and the channel lookup once failed on these deep
    # in simulate, and a bool seed ran as 0 or 1
    for bad in ({"seed": 1.5}, {"seed": True}, {"measured_channel": 0.0}):
        with pytest.raises(ValueError, match="must be an integer"):
            SimConfig(dt=0.01, t_end=0.05, **bad)
    cfg = SimConfig(dt=0.01, t_end=0.05, seed=np.int64(3), measured_channel=np.int32(0))
    assert (cfg.seed, cfg.measured_channel) == (3, 0)


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


def test_ensemble_mean_rejects_a_near_miss_grid():
    # 1000 steps of 1e-3 and of 1.000005e-3: the grids agree to 5e-6, which
    # np.allclose once let through
    g = zeno_kerr()
    rho0 = basis_state_density(QUBIT, 1)
    r1 = simulate(g, rho0, SimConfig(dt=1e-3, t_end=1.0, seed=1))
    r2 = simulate(g, rho0, SimConfig(dt=1e-3, t_end=1.000005, seed=1))
    assert len(r1.times) == len(r2.times)
    with pytest.raises(ValueError, match=r"different time grids: t\[1\] is 0\.001 and 0\.001000005$"):
        ensemble_mean([r1, r2])
    with pytest.raises(ValueError, match=r"t\[101\] is past the end and 0\.101$"):
        ensemble_mean([replace(r1, times=r1.times[:101]), r1])


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


def test_homodyne_nan_state_is_a_step_size_error():
    # the state overflows to NaN in the first steps; the run must end in the
    # typed error the counting scheme raises, naming the member's seed and t
    g = SLHTriple(((identity(QUBIT),),), (SIGMA_OP,), 1e300 * pauli("x"))
    rho0 = pure_state_density(QUBIT, [1.0, 1.0j])
    cfg = SimConfig(dt=1e-3, t_end=1.0, seed=3, scheme="homodyne")
    match = r"trajectory seed 3: measurement mean nan at t=0\.001 is not finite"
    with np.errstate(all="ignore"), pytest.raises(StepSizeError, match=match):
        simulate(g, rho0, cfg)
    with np.errstate(all="ignore"), pytest.raises(StepSizeError, match=match):
        simulate_ensemble(g, rho0, cfg, 4)


def test_simconfig_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        SimConfig(dt=0.01, t_end=1.0, seed=-1)


@pytest.mark.parametrize(
    "dt, t_end, match",
    [
        (1e-300, 1e300, "step count t_end / dt = inf is not finite"),
        (1e-3, float("inf"), "t_end and dt must be finite"),
        (1e-3, 1e17, "step count 100000000000000000000 exceeds 2\\*\\*53; increase dt"),
    ],
)
def test_simconfig_rejects_a_grid_it_cannot_step(dt, t_end, match):
    # these once constructed, and n_steps then raised OverflowError
    with pytest.raises(ValueError, match=match):
        SimConfig(dt=dt, t_end=t_end)


# (t_end, dt) with t_end / dt = n + 1/2 exactly, which Python rounds to even
HALF_INTEGER_GRIDS = st.builds(
    lambda n, e: ((n + 0.5) * 2.0**e, 2.0**e), st.integers(1, 40), st.integers(-12, 0)
)


@settings(max_examples=25)
@given(grid=st.one_of(HALF_INTEGER_GRIDS, st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0))))
@example(grid=(0.01953125, 0.0078125))  # 2.5 rounds to 2 steps
@example(grid=(0.02734375, 0.0078125))  # 3.5 rounds to 4 steps
@example(grid=(0.3, 0.3))
@example(grid=(0.3, 1e-3))
def test_trajectories_and_evolve_share_one_step_grid(grid):
    t_end, dt = max(grid), min(grid)
    g = measured_only(zeno_kerr())
    rho0 = basis_state_density(g.space, 1)
    cfg = SimConfig(dt=dt, t_end=t_end)
    res = evolve(g, rho0, t_end, dt, save_every=2**53)
    assert cfg.n_steps == res.n_steps == round(t_end / dt)
    assert simulate(g, rho0, cfg).times[1] == res.dt_eff == t_end / res.n_steps


def random_model(rng, d, n):
    """n channels with random L_i and H on a d-level space, S = 1."""
    sp = HilbertSpace((d,))
    s = tuple(tuple(identity(sp) if i == j else zero(sp) for j in range(n)) for i in range(n))
    ls = tuple(Operator(sp, random_complex_matrix(rng, d) / np.sqrt(d)) for _ in range(n))
    return SLHTriple(s, ls, Operator(sp, random_hermitian(rng, d) / np.sqrt(d)))


@pytest.mark.parametrize("scheme", ["homodyne", "counting"])
@pytest.mark.parametrize("members", [1, 4, 33])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("d", [2, 5, 8, 13])
def test_lockstep_sweep_matches_serial_reference(d, n, members, scheme):
    # every product of the lockstep kernel only adds rows to a GEMM, so each
    # member rounds as its lone run in (d, d) products does, on any BLAS path
    rng = np.random.default_rng([d, n, members])
    g = random_model(rng, d, n)
    channel = n - 1
    lc = g.l[channel]
    # start where the measured channel is brightest, with a jump probability
    # per step of at most 0.09, so counting members jump within the run; a
    # homodyne step that long can blow up, so it takes a ninth of it
    top = np.linalg.svd(lc)[2][0].conj()
    rho0 = pure_state_density(g.space, top)
    dt = (0.09 if scheme == "counting" else 0.01) / np.linalg.norm(lc, 2) ** 2
    cfg = SimConfig(dt=dt, t_end=30 * dt, measured_channel=channel, seed=7, scheme=scheme)
    assert cfg.n_steps == 30
    jumps = 0
    for i, r in enumerate(simulate_ensemble(g, rho0, cfg, members)):
        states, innovations = serial_reference(g, rho0, replace(cfg, seed=cfg.seed + i))
        assert np.array_equal(r.rho, states)
        assert np.array_equal(r.innovations, innovations)
        if scheme == "counting":
            jumps += len(r.record.jump_times)
    assert scheme == "homodyne" or jumps > 0


def per_product_dissipator(g, m):
    """D(m) with every operator product its own (d, d) matmul."""
    out = 1j * (m @ g.H.mat - g.H.mat @ m)
    for lm in g.l:
        ld = lm.conj().T
        ldl = ld @ lm
        out += lm @ m @ ld - 0.5 * (m @ ldl + ldl @ m)
    return out


@pytest.mark.parametrize("d, n", [(1, 1), (2, 3), (5, 1), (13, 3)])
def test_single_steps_and_dissipator_are_their_per_product_formulas(d, n):
    rng = np.random.default_rng([d, n])
    g = random_model(rng, d, n)
    c = n - 1
    lc = g.l[c]
    lcd = lc.conj().T
    rho = DensityMatrix(g.space, random_density_matrix(rng, d))
    m = rho.mat
    diss = per_product_dissipator(g, m)
    assert np.array_equal(dissipator(g, rho).mat, diss)

    def normalize(x):
        x = 0.5 * (x + x.conj().T)
        return x / float(np.trace(x).real)

    dt, dw = 0.05 / np.linalg.norm(lc, 2) ** 2, 0.03
    mean = float(np.trace(m @ (lc + lcd)).real)
    nxt, dy, di = homodyne_step(g, rho, c, dt, dw)
    assert np.array_equal(nxt.mat, normalize(m + diss * dt + (lc @ m + m @ lcd - mean * m) * dw))
    assert dy == mean * dt + dw and di == dw

    rate = float(np.trace(m @ (lcd @ lc)).real)
    jm = lc @ m @ lcd
    assert 0 < rate * dt <= 0.05
    nxt, jumped = counting_step(g, rho, c, dt, 0.99)
    assert not jumped and np.array_equal(nxt.mat, normalize(m + (diss - (jm - rate * m)) * dt))
    nxt, jumped = counting_step(g, rho, c, dt, 0.0)
    assert jumped and np.array_equal(nxt.mat, jm / float(np.trace(jm).real))


def test_ensemble_mean_space_mismatch():
    g = zeno_kerr()
    r = simulate(g, basis_state_density(QUBIT, 1), SimConfig(dt=1e-3, t_end=0.01, seed=1))
    # the same dimension, factored differently
    other = replace(r, space=HilbertSpace((1, 2)))
    with pytest.raises(ValueError, match=r"spaces, HilbertSpace\(2,\) and HilbertSpace\(1, 2\)"):
        ensemble_mean([r, other])
    # another dimension, which numpy broadcasting used to reject
    three = HilbertSpace((3,))
    other = replace(r, space=three, rho=np.broadcast_to(np.eye(3) / 3, (len(r.times), 3, 3)))
    with pytest.raises(ValueError, match=r"spaces, HilbertSpace\(2,\) and HilbertSpace\(3,\)"):
        ensemble_mean([r, other])


# -- blocks of steps ---------------------------------------------------------


def recording_rngs(monkeypatch):
    """Make ``np.random.default_rng``'s generators record their draws; returns
    the dict of each seed's draws, one array per call."""
    real, drawn = np.random.default_rng, {}

    class Recording:
        def __init__(self, seed):
            self.rng, self.draws = real(seed), drawn.setdefault(seed, [])

        def normal(self, loc, scale, size):
            self.draws.append(self.rng.normal(loc, scale, size))
            return self.draws[-1]

        def random(self, size):
            self.draws.append(self.rng.random(size))
            return self.draws[-1]

    monkeypatch.setattr(np.random, "default_rng", Recording)
    return drawn


@pytest.mark.parametrize("scheme", ["homodyne", "counting"])
def test_records_that_span_blocks_are_one_whole_draw(monkeypatch, scheme):
    # 2 _BLOCK + 3 steps run in three blocks, and each member draws its
    # record a block at a time; the draws are one draw of the whole record
    from zenoslh.master import _BLOCK

    g = measured_only(zeno_kerr())
    rho0 = basis_state_density(QUBIT, 1)
    n = 2 * _BLOCK + 3
    cfg = SimConfig(dt=1e-3, t_end=n * 1e-3, seed=21, scheme=scheme)
    assert cfg.n_steps == n
    drawn = recording_rngs(monkeypatch)
    ens = simulate_ensemble(g, rho0, cfg, 3)
    monkeypatch.undo()
    for i, r in enumerate(ens):
        draws = drawn[cfg.seed + i]
        assert [len(x) for x in draws] == [_BLOCK, _BLOCK, 3]
        rng = np.random.default_rng(cfg.seed + i)
        if scheme == "homodyne":
            whole = rng.normal(0.0, np.sqrt(cfg.t_end / n), size=n)
            assert np.array_equal(r.innovations, whole)
        else:
            whole = rng.random(size=n)
        assert np.array_equal(np.concatenate(draws), whole)
        states, innovations = serial_reference(g, rho0, replace(cfg, seed=cfg.seed + i))
        assert np.array_equal(r.rho, states)
        assert np.array_equal(r.innovations, innovations)


def test_a_replayed_block_draws_each_record_once(monkeypatch):
    # the 300th step call overflows, inside the second of three blocks, which
    # is then replayed one step at a time from the records drawn for it: the
    # draws and the run are those of an undisturbed run
    from zenoslh import trajectories
    from zenoslh.master import _BLOCK

    g = measured_only(zeno_kerr())
    rho0 = basis_state_density(QUBIT, 1)
    n = 2 * _BLOCK + 3
    cfg = SimConfig(dt=1e-3, t_end=n * 1e-3, seed=21)
    want = simulate_ensemble(g, rho0, cfg, 3)
    calls, real = [], trajectories._homodyne_step

    def overflows_at_call_300(*args):
        calls.append(1)
        if len(calls) == 300:
            _ = np.float64(1e308) * 10.0
        return real(*args)

    monkeypatch.setattr(trajectories, "_homodyne_step", overflows_at_call_300)
    drawn = recording_rngs(monkeypatch)
    with np.errstate(over="warn"):
        got = simulate_ensemble(g, rho0, cfg, 3)
    monkeypatch.undo()
    # the second block's 44 calls up to the overflow, then all its 256 again
    assert len(calls) == _BLOCK + 44 + _BLOCK + 3
    for i, (a, b) in enumerate(zip(got, want)):
        draws = drawn[cfg.seed + i]
        assert [len(x) for x in draws] == [_BLOCK, _BLOCK, 3]
        whole = np.random.default_rng(cfg.seed + i).normal(0.0, np.sqrt(cfg.t_end / n), size=n)
        assert np.array_equal(np.concatenate(draws), whole)
        assert np.array_equal(a.rho, b.rho)
        assert np.array_equal(a.innovations, b.innovations)


def test_block_times_are_the_linspace_grid_bit_for_bit():
    from zenoslh.trajectories import _grid_times

    rng = np.random.default_rng(8)
    for _ in range(300):
        n, t_end = int(rng.integers(1, 3000)), float(10 ** rng.uniform(-6, 6))
        grid = np.linspace(0.0, t_end, n + 1)
        a = int(rng.integers(0, n + 1))
        for b in (a + 1, int(rng.integers(a + 1, n + 2)), n + 1):
            assert np.array_equal(_grid_times(t_end, n, a, b), grid[a:b])


def test_homodyne_blow_up_stops_within_a_block(monkeypatch):
    # the run of test_homodyne_nan_state_is_a_step_size_error: its first
    # block names the failure, so no more steps follow it
    from zenoslh import master, trajectories

    g = SLHTriple(((identity(QUBIT),),), (SIGMA_OP,), 1e300 * pauli("x"))
    rho0 = pure_state_density(QUBIT, [1.0, 1.0j])
    cfg = SimConfig(dt=1e-3, t_end=1.0, seed=3, scheme="homodyne")
    steps, real = [], trajectories._homodyne_step
    monkeypatch.setattr(trajectories, "_homodyne_step", lambda *a: steps.append(1) or real(*a))
    with np.errstate(all="ignore"), pytest.raises(StepSizeError, match="mean nan at t=0.001 "):
        simulate(g, rho0, cfg)
    assert 1 < len(steps) <= master._BLOCK < cfg.n_steps
    # an overflow the caller raises on reaches it from the step that makes it
    steps.clear()
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        simulate(g, rho0, cfg)
    assert len(steps) <= master._BLOCK + 2


def test_a_homodyne_failure_leaves_the_lower_members_running(monkeypatch):
    # member 1 of 3 turns NaN at step 299, in the second of three blocks:
    # members 1 and 2 leave once that block is checked, member 0 runs on,
    # and the error names member 1
    from zenoslh import trajectories

    g = measured_only(zeno_kerr())
    rho0 = basis_state_density(QUBIT, 1)
    cfg = SimConfig(dt=1e-3, t_end=0.6, seed=30, scheme="homodyne")
    sizes, real = [], trajectories._homodyne_step

    def member_1_fails_at_step_299(ops, x, dt, dw, out):
        sizes.append(len(x))
        if len(sizes) == 300:
            x = x.copy()
            x[1] = np.nan
        return real(ops, x, dt, dw, out)

    monkeypatch.setattr(trajectories, "_homodyne_step", member_1_fails_at_step_299)
    match = r"trajectory seed 31: measurement mean nan at t=0\.299 is not finite"
    with np.errstate(all="ignore"), pytest.raises(StepSizeError, match=match):
        simulate_ensemble(g, rho0, cfg, 3)
    assert sizes == [3] * 512 + [1] * 88


@pytest.mark.parametrize("channel", [0, 1])
def test_counting_ops_form_no_homodyne_products(channel):
    # the counting step reads x L_c^H L_c and (L_c x) L_c^H, which D(x)
    # forms for every channel, so it needs n + 1 right operands and n
    # adjoints, and steps bit for bit as it did with the homodyne ones
    from zenoslh import trajectories

    g = zeno_kerr()
    counting, homodyne = (trajectories._Ops(g, channel, h) for h in (False, True))
    _, rights, adjoints = counting.terms
    assert (len(rights), len(adjoints)) == (g.n + 1, g.n)
    assert (len(homodyne.terms[1]), len(homodyne.terms[2])) == (g.n + 2, g.n + 1)
    rng = np.random.default_rng(5)
    x = np.stack([random_density_matrix(rng, g.dim) for _ in range(4)])
    u = np.array([0.9, 0.0, 0.9, 0.0])  # two members jump, two do not
    got, want = (trajectories._counting_step(ops, x, 0.01, u) for ops in (counting, homodyne))
    assert list(got[1]) == [False, True, False, True]
    for a, b in zip(got[:3], want[:3]):
        np.testing.assert_array_equal(a, b)
    assert got[3] is None and want[3] is None


# -- workspaces ----------------------------------------------------------------


def test_consecutive_dissipator_calls_return_independent_arrays():
    rng = np.random.default_rng(41)
    g = random_model(rng, 3, 2)
    a, b = (DensityMatrix(g.space, random_density_matrix(rng, 3)) for _ in range(2))
    first = dissipator(g, a).mat
    kept = first.copy()
    second = dissipator(g, b).mat
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept)
    assert np.array_equal(second, per_product_dissipator(g, b.mat))


@pytest.mark.parametrize("out", [False, True])
def test_a_step_value_outlives_the_next_step(out):
    # a run's steps share its workspaces; what a step returns is the caller's
    # out, or new, and the next step, from that very state, leaves it alone
    from zenoslh import trajectories

    rng = np.random.default_rng(43)
    g = random_model(rng, 3, 2)
    x = np.stack([random_density_matrix(rng, 3) for _ in range(4)])
    dt = 0.05 / np.linalg.norm(g.l[1], 2) ** 2
    for homodyne, draws in ((True, (0.03, -0.02)), (False, (0.99, 0.0))):
        ops = trajectories._Ops(g, 1, homodyne)
        step = trajectories._homodyne_step if homodyne else trajectories._counting_step
        outs = [np.empty_like(x) for _ in range(2)] if out else [None, None]
        first = step(ops, x, dt, np.full(4, draws[0]), outs[0])
        kept = [np.copy(v) for v in first[:3]]
        second = step(ops, first[0], dt, np.full(4, draws[1]), outs[1])
        for v, w in zip(first[:3], kept):
            assert np.array_equal(v, w)
            assert not any(np.shares_memory(v, u) for u in second[:3])
        if out:
            assert np.shares_memory(first[0], outs[0])
        # the same step from fresh workspaces
        again = step(trajectories._Ops(g, 1, homodyne), first[0], dt, np.full(4, draws[1]))
        for v, w in zip(second[:3], again[:3]):
            assert np.array_equal(v, w)


def ensemble_rows(g, rho0, cfg, members):
    """Each member's states after its steps as ``_ensemble_blocks`` yields
    them, until the members still running finish, and the error raised."""
    from zenoslh.trajectories import _ensemble_blocks

    rows, error = [[] for _ in range(members)], None
    try:
        for _, rec, _, states in _ensemble_blocks(g, rho0, cfg, members):
            for i in range(rec.shape[1]):
                rows[i].extend(states[:, i].copy())
    except (StepSizeError, ValueError) as e:
        error = e
    return [np.array(r).reshape(-1, g.dim, g.dim) for r in rows], error


def test_a_counting_member_over_the_guard_mid_block_leaves_the_rest_bit_exact(monkeypatch):
    # member 3 of 5 never jumps, so the drive out of the dark state takes its
    # jump probability over the guard inside the one block; members 3 and 4
    # leave there, with no rows of it, and the workspaces step on through
    # views of the first three, which still match their lone runs
    from zenoslh import trajectories

    g = SLHTriple(((identity(QUBIT),),), (np.sqrt(10.0) * SIGMA_OP,), 10.0 * pauli("x"))
    rho0 = basis_state_density(QUBIT, 0)
    cfg = SimConfig(dt=0.01, t_end=1.0, seed=80, scheme="counting")
    # members 0, 2 and 4 jump at every step, member 1 at every third
    forced = {i: {s: 0.0 for s in range(0, cfg.n_steps, 3 if i == 1 else 1)} for i in (0, 1, 2, 4)}
    scripted_uniforms(monkeypatch, cfg.n_steps, forced, cfg.seed, 5)
    sizes, real = [], trajectories._counting_step
    step = lambda *a: sizes.append(len(a[1])) or real(*a)  # noqa: E731
    monkeypatch.setattr(trajectories, "_counting_step", step)
    rows, error = ensemble_rows(g, rho0, cfg, 5)
    monkeypatch.setattr(trajectories, "_counting_step", real)
    with pytest.raises(StepSizeError) as lone:
        simulate(g, rho0, replace(cfg, seed=cfg.seed + 3))
    assert str(error) == str(lone.value) and "exceeds" in str(error)
    trip = sizes.count(5)
    assert 1 < trip < cfg.n_steps - 1
    assert sizes == [5] * trip + [3] * (cfg.n_steps - trip)
    assert [len(r) for r in rows] == [cfg.n_steps] * 3 + [0, 0]
    for i in range(3):
        assert np.array_equal(rows[i], simulate(g, rho0, replace(cfg, seed=cfg.seed + i)).rho[1:])


class _ScriptedNormals:
    """Stands in for a generator: hands out a fixed record of increments."""

    def __init__(self, increments):
        self.increments = np.asarray(increments, dtype=float)
        self.at = 0

    def normal(self, loc, scale, size):
        self.at += size
        return self.increments[self.at - size : self.at].copy()


def test_a_homodyne_member_that_turns_nan_leaves_the_rest_bit_exact(monkeypatch):
    # member 2 of 4 draws an increment of 1e308 at step 40, which overflows
    # its state; its mean is NaN from then on, members 2 and 3 leave once
    # the block is checked, and members 0 and 1 run on, as their lone runs
    g = measured_only(zeno_kerr())
    rho0 = pure_state_density(QUBIT, [1.0, 1.0])
    cfg = SimConfig(dt=1e-3, t_end=0.6, seed=90, scheme="homodyne")
    rng = np.random.default_rng(91)
    scripts = {cfg.seed + i: rng.normal(0.0, np.sqrt(1e-3), cfg.n_steps) for i in range(4)}
    scripts[cfg.seed + 2][40] = 1e308
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _ScriptedNormals(scripts[seed]))
    with np.errstate(all="ignore"):
        rows, error = ensemble_rows(g, rho0, cfg, 4)
        with pytest.raises(StepSizeError) as lone:
            simulate(g, rho0, replace(cfg, seed=cfg.seed + 2))
        alone = [simulate(g, rho0, replace(cfg, seed=cfg.seed + i)).rho[1:] for i in (0, 1, 3)]
    assert str(error) == str(lone.value)
    assert "trajectory seed 92: measurement mean nan" in str(error)
    assert [len(r) for r in rows] == [cfg.n_steps] * 2 + [0, 0]
    for r, a in zip(rows[:2], alone):
        assert np.array_equal(r, a)
