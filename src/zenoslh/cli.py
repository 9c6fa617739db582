"""Command-line driver.

Subcommands: check, eliminate, evolve, traj, converge, linstab.
Exit codes: 0 success, 1 usage or parse errors, 2 condition violations
(e.g. a model that is not zenofiable, or a singular fast block).
The environment variable ZENOSLH_TOL overrides the default condition
tolerances.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .elimination import (
    DECOUPLING_TOL,
    KERNEL_TOL_SIGMA,
    SCALING_TOL,
    ZenofiabilityError,
    instantiate,
    zeno_eliminate,
)
from .linear import LinearMeanSystem, stability_threshold
from .master import (
    DensityMatrix,
    StepSizeError,
    basis_state_density,
    convergence_harness,
    evolve,
    maximally_mixed,
)
from .modelfile import ModelParseError, load_model, model_digest
from .outputs import (
    RunManifest,
    digest_bytes,
    pairs_to_matrix,
    triple_to_jsonable,
    write_convergence_csv,
    write_evolution_csv,
    write_json,
    write_stability_csv,
    write_trajectory_csv,
    write_triple_json,
)
from .trajectories import SimConfig, simulate_ensemble

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

# bytes of trajectory states that ``traj`` holds in memory at once
TRAJ_CHUNK_BYTES = 4 * 2**20


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for condition violations
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _env_tol() -> float | None:
    raw = os.environ.get("ZENOSLH_TOL")
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ModelParseError(f"ZENOSLH_TOL is not a number: {raw!r}") from None


def _tolerances(args) -> dict:
    base = _env_tol()

    def pick(flag, default):
        if flag is not None:
            return flag
        return base if base is not None else default

    return {
        "scaling": pick(args.scaling_tol, SCALING_TOL),
        "kernel": pick(args.kernel_tol, KERNEL_TOL_SIGMA),
        "decoupling": pick(args.decoupling_tol, DECOUPLING_TOL),
    }


def _tol_kwargs(tols: dict) -> dict:
    """The tolerances as zeno_eliminate's keyword arguments."""
    return {f"{name}_tol": value for name, value in tols.items()}


def _add_tol_flags(p):
    p.add_argument("--scaling-tol", type=float, default=None)
    p.add_argument("--kernel-tol", type=float, default=None)
    p.add_argument("--decoupling-tol", type=float, default=None)


# numeric flags checked at the argv boundary, as (attribute, flag, whether 0
# is allowed): each value must be finite and positive, or nonnegative
_NUMBER_FLAGS = (
    ("t_end", "--t-end", True),
    ("dt", "--dt", False),
    ("k", "--k", False),
    ("ks", "--ks", False),
)


def _check_numbers(args) -> None:
    """Parse ``--ks`` into floats and range-check every numeric flag."""
    if hasattr(args, "ks"):
        try:
            args.ks = [float(x) for x in args.ks.split(",") if x.strip()]
        except ValueError:
            raise ModelParseError(f"--ks must be comma-separated numbers, got {args.ks!r}") from None
        if not args.ks:
            raise ModelParseError("--ks needs at least one value")
    for attr, flag, zero_ok in _NUMBER_FLAGS:
        value = getattr(args, attr, None)
        if value is None:
            continue
        for v in value if attr == "ks" else [value]:
            if not (math.isfinite(v) and (v > 0 or zero_ok and v == 0)):
                need = "nonnegative" if zero_ok else "positive"
                raise ModelParseError(f"{flag} must be finite and {need}, got {v!r}")


def _initial_state(space, label: str) -> DensityMatrix:
    if label == "mixed":
        return maximally_mixed(space)
    if label.startswith("basis:"):
        try:
            index = int(label.split(":", 1)[1])
        except ValueError:
            raise ModelParseError(f"basis index must be an integer, got {label!r}") from None
        if not 0 <= index < space.dim:
            raise ModelParseError(f"basis index {index} out of range for dimension {space.dim}")
        return basis_state_density(space, index)
    raise ModelParseError(f"unknown initial state {label!r}; use 'mixed' or 'basis:<index>'")


def _manifest_path(out: str) -> str:
    return str(out) + ".manifest.json"


def build_parser() -> _Parser:
    p = _Parser(prog="zenoslh", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", help="run the three zenofiability conditions")
    pc.add_argument("model")
    pc.add_argument("--out", default=None, help="write the residual report as JSON")
    _add_tol_flags(pc)

    pe = sub.add_parser("eliminate", help="compute the limit triple on the Zeno subspace")
    pe.add_argument("model")
    pe.add_argument("--out", default=None, help="write the triple as JSON (default stdout)")
    _add_tol_flags(pe)

    pv = sub.add_parser("evolve", help="integrate the master equation")
    pv.add_argument("model_file")
    pv.add_argument("--model", choices=("full", "zeno"), default="zeno")
    pv.add_argument("--k", type=float, default=None, help="coupling strength for --model full")
    pv.add_argument("--t-end", type=float, default=1.0)
    pv.add_argument("--dt", type=float, default=1e-3)
    pv.add_argument("--initial", default="mixed")
    pv.add_argument("--out", required=True)
    _add_tol_flags(pv)

    pt = sub.add_parser("traj", help="simulate conditioned trajectories of the limit model")
    pt.add_argument("model_file")
    pt.add_argument("--scheme", choices=("homodyne", "counting"), required=True)
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--n", type=int, default=1, help="number of trajectories")
    pt.add_argument("--channel", type=int, default=0)
    pt.add_argument("--t-end", type=float, default=1.0)
    pt.add_argument("--dt", type=float, default=1e-3)
    pt.add_argument("--initial", default="mixed")
    pt.add_argument("--out-dir", required=True)
    _add_tol_flags(pt)

    pk = sub.add_parser("converge", help="full-vs-limit trace distance over a k grid")
    pk.add_argument("model_file")
    pk.add_argument("--ks", required=True, help="comma-separated k values")
    pk.add_argument("--t-end", type=float, default=1.0)
    pk.add_argument("--dt", type=float, default=1e-3)
    pk.add_argument("--initial", default="mixed")
    pk.add_argument("--out", required=True)
    _add_tol_flags(pk)

    pl = sub.add_parser("linstab", help="stability sweep of a mean-field block system")
    pl.add_argument("gamma_file", help="JSON with Gamma1..Gamma4 matrices")
    pl.add_argument("--ks", required=True, help="comma-separated k values")
    pl.add_argument("--out", required=True)
    return p


def _cmd_check(args) -> int:
    doc = load_model(args.model)
    tols = _tolerances(args)
    report = {
        "model": doc.name,
        "digest": model_digest(doc),
        "tolerances": tols,
    }
    code = EXIT_OK
    try:
        result = _eliminate(doc, tols)
        report["zenofiable"] = True
        report["failed_condition"] = None
        report["residuals"] = {k: float(v) for k, v in result.residuals.items()}
        report["zeno_dim"] = result.zeno_triple.dim
    except ZenofiabilityError as e:
        report["zenofiable"] = False
        report["failed_condition"] = type(e).__name__
        report["message"] = str(e)
        report["residuals"] = {k: float(v) for k, v in e.residuals.items()}
        code = EXIT_VIOLATION
    except ValueError as e:  # e.g. trivial kernel in auto subspace discovery
        report["zenofiable"] = False
        report["failed_condition"] = "KernelViolation"
        report["message"] = str(e)
        report["residuals"] = {}
        code = EXIT_VIOLATION
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out:
        write_json(args.out, report)
        RunManifest.create("check", model_digest(doc), tols).write(_manifest_path(args.out))
    return code


def _eliminate(doc, tols):
    return zeno_eliminate(doc.family, doc.split(), **_tol_kwargs(tols))


def _cmd_eliminate(args) -> int:
    doc = load_model(args.model)
    tols = _tolerances(args)
    result = _eliminate(doc, tols)
    if args.out:
        write_triple_json(args.out, result)
        RunManifest.create("eliminate", model_digest(doc), tols).write(_manifest_path(args.out))
    else:
        print(json.dumps(triple_to_jsonable(result), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_evolve(args) -> int:
    doc = load_model(args.model_file)
    tols = _tolerances(args)
    if args.model == "full":
        if args.k is None:
            raise ModelParseError("--model full requires --k")
        g = instantiate(doc.family, args.k)
    else:
        g = _eliminate(doc, tols).zeno_triple
    rho0 = _initial_state(g.space, args.initial)
    result = evolve(g, rho0, args.t_end, args.dt)
    write_evolution_csv(args.out, result)
    RunManifest.create(
        f"evolve --model {args.model}", model_digest(doc), tols, method=result.method
    ).write(_manifest_path(args.out))
    return EXIT_OK


def _cmd_traj(args) -> int:
    if args.n < 1:
        raise ModelParseError(f"--n must be at least 1, got {args.n}")
    if args.dt > args.t_end:
        raise ModelParseError(f"--dt must not exceed --t-end, got {args.dt} > {args.t_end}")
    doc = load_model(args.model_file)
    tols = _tolerances(args)
    g = _eliminate(doc, tols).zeno_triple
    if not 0 <= args.channel < g.n:
        raise ModelParseError(f"--channel must be in [0, {g.n}), got {args.channel}")
    rho0 = _initial_state(g.space, args.initial)
    config = SimConfig(
        dt=args.dt,
        t_end=args.t_end,
        measured_channel=args.channel,
        seed=args.seed,
        scheme=args.scheme,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # members run in chunks of about TRAJ_CHUNK_BYTES of states, and each
    # chunk is written before the next is simulated; a chunk starting at
    # member i is the ensemble seeded base + i
    chunk = max(1, TRAJ_CHUNK_BYTES // ((config.n_steps + 1) * g.dim**2 * 16))
    for start in range(0, args.n, chunk):
        runs = simulate_ensemble(
            g, rho0, replace(config, seed=args.seed + start), min(chunk, args.n - start)
        )
        for i, r in enumerate(runs, start):
            write_trajectory_csv(out_dir / f"traj_{i:04d}.csv", r)
        del runs, r  # free this chunk before the next is simulated
    RunManifest.create(
        f"traj --scheme {args.scheme} --n {args.n}", model_digest(doc), tols, seed=args.seed
    ).write(out_dir / "manifest.json")
    return EXIT_OK


def _cmd_converge(args) -> int:
    doc = load_model(args.model_file)
    tols = _tolerances(args)
    split = doc.split()
    rho0 = _initial_state(split.zeno_space, args.initial)
    points = convergence_harness(
        doc.family, split, rho0, args.ks, args.t_end, args.dt, **_tol_kwargs(tols)
    )
    write_convergence_csv(args.out, points)
    RunManifest.create("converge", model_digest(doc), tols).write(_manifest_path(args.out))
    return EXIT_OK


def _cmd_linstab(args) -> int:
    raw = Path(args.gamma_file).read_bytes()
    try:
        data = json.loads(raw)
        blocks = [pairs_to_matrix(data[k]) for k in ("Gamma1", "Gamma2", "Gamma3", "Gamma4")]
    except (json.JSONDecodeError, KeyError, ValueError) as e:
        raise ModelParseError(f"gamma file: {e}") from None
    report = stability_threshold(LinearMeanSystem(*blocks), args.ks)
    write_stability_csv(args.out, report)
    verdict = {
        "predicted_stable_tail": report.predicted_stable_tail,
        "observed_stable_at_kmax": report.observed_stable_at_kmax,
        "agrees": report.agrees,
        "fast_numerical_range_margin": report.fast_hurwitz.numerical_range_margin,
        "fast_eigenvalue_margin": report.fast_hurwitz.eigenvalue_margin,
        "schur_numerical_range_margin": report.schur_hurwitz.numerical_range_margin,
        "schur_eigenvalue_margin": report.schur_hurwitz.eigenvalue_margin,
    }
    print(json.dumps(verdict, indent=2, sort_keys=True))
    RunManifest.create("linstab", digest_bytes(raw), {}).write(_manifest_path(args.out))
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "eliminate": _cmd_eliminate,
    "evolve": _cmd_evolve,
    "traj": _cmd_traj,
    "converge": _cmd_converge,
    "linstab": _cmd_linstab,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        _check_numbers(args)
        return _COMMANDS[args.command](args)
    except ZenofiabilityError as e:
        print(f"zenoslh: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_VIOLATION
    except (ModelParseError, FileNotFoundError) as e:
        print(f"zenoslh: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, StepSizeError) as e:
        print(f"zenoslh: {e}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
