"""CSV writers against a reference built value by value from the state views."""

import pytest

from zenoslh import (
    SimConfig,
    basis_state_density,
    evolve,
    instantiate,
    maximally_mixed,
    simulate,
    zeno_eliminate,
)
from zenoslh.outputs import write_evolution_csv, write_trajectory_csv

from common import kerr_family


def reference_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(repr(float(x)) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def state_columns(dim):
    return [f"rho_{i}_{j}_{part}" for i in range(dim) for j in range(dim) for part in ("re", "im")]


def state_values(s):
    out = []
    for row in s.mat:
        for x in row:
            out += [x.real, x.imag]
    return out


def test_write_evolution_csv_matches_reference(tmp_path):
    fam, _ = kerr_family()
    g = instantiate(fam, 2.0)
    res = evolve(g, maximally_mixed(g.space), 0.05, 1e-3, save_every=7)
    path = tmp_path / "evolution.csv"
    write_evolution_csv(path, res)

    header = ["time", *state_columns(g.dim), "trace_drift", "hermiticity_drift"]
    rows = [
        [t, *state_values(s), td, hd]
        for t, s, td, hd in zip(res.times, res.states, res.trace_drift, res.hermiticity_drift)
    ]
    assert path.read_bytes() == reference_csv(header, rows).encode()


@pytest.mark.parametrize("scheme", ["homodyne", "counting"])
def test_write_trajectory_csv_matches_reference(tmp_path, scheme):
    fam, split = kerr_family()
    g = zeno_eliminate(fam, split).zeno_triple
    cfg = SimConfig(dt=1e-3, t_end=0.5, seed=5, scheme=scheme)
    res = simulate(g, basis_state_density(g.space, 1), cfg)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, res)

    if scheme == "homodyne":
        header = ["time", "dY", "innovation", *state_columns(g.dim)]
        rec = list(res.record.increments)
    else:
        assert len(res.record.jump_times) > 0  # the jump flag column is exercised
        header = ["time", "jump", "innovation", *state_columns(g.dim)]
        jumps = set(res.record.jump_times)
        rec = [1.0 if t in jumps else 0.0 for t in res.times[1:]]
    states = res.states
    rows = [
        [res.times[i + 1], rec[i], res.innovations[i], *state_values(states[i + 1])]
        for i in range(len(res.innovations))
    ]
    assert path.read_bytes() == reference_csv(header, rows).encode()
