"""Command-line driver.

Subcommands: check, eliminate, evolve, traj, converge, linstab.
Exit codes: 0 success, 1 usage or parse errors (among them a gamma file
whose blocks do not fit, a path that cannot be read or written and a model
file that is not UTF-8) and runs that do not fit in memory, 2 condition
violations (e.g. a model that is not zenofiable, or a singular fast block).
The environment variable ZENOSLH_TOL overrides the default condition
tolerances.  It, each ``--*-tol`` flag and ``--seed`` must be finite and
nonnegative; anything else exits 1 before any output.
Each command writes its outputs, the manifest included, to temporary files
that are renamed into place when it returns, and only then prints its
report.  A run that raises or is stopped by SIGTERM prints nothing and
leaves no output, no temporary file and no directory it made (``traj``
keeps the CSVs of the chunks that finished before it).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import math
import os
import signal
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

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
    _block_rows,
    _evolve,
    _purity,
    _step_grid,
    basis_state_density,
    convergence_harness,
    evolve,  # not called here; bench/tracing.py wraps it in this namespace
    maximally_mixed,
)
from .modelfile import ModelParseError, load_model, model_digest
from .outputs import (
    RunManifest,
    digest_bytes,
    pairs_to_matrix,
    triple_json,
    write_convergence_csv,
    write_evolution_csv,  # not called here; bench/tracing.py wraps it
    write_evolution_rows,
    write_json,
    write_stability_csv,
    write_trajectory_csv,  # not called here; bench/tracing.py wraps it
    write_trajectory_rows,
    write_triple_json,
)
from .trajectories import SimConfig, _ensemble_blocks
from .trajectories import simulate_ensemble  # not called here; bench/tracing.py wraps it

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

# bytes of trajectory states that ``traj`` holds in one block of a chunk
TRAJ_CHUNK_BYTES = 4 * 2**20


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for condition violations
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _tolerances(args) -> dict:
    """The condition tolerances: each ``--*-tol`` flag, else ZENOSLH_TOL,
    else the library default."""
    tols = {"scaling": SCALING_TOL, "kernel": KERNEL_TOL_SIGMA, "decoupling": DECOUPLING_TOL}
    raw = os.environ.get("ZENOSLH_TOL")
    if raw is not None:
        try:
            base = float(raw)
        except ValueError:
            base = math.nan  # rejected below with the other bad values
        if not (math.isfinite(base) and base >= 0):
            raise ModelParseError(f"ZENOSLH_TOL must be finite and nonnegative, got {raw!r}")
        tols = dict.fromkeys(tols, base)
    for name in tols:
        flag = getattr(args, f"{name}_tol")
        if flag is not None:
            tols[name] = flag
    return tols


def _tol_kwargs(tols: dict) -> dict:
    """The tolerances as zeno_eliminate's keyword arguments."""
    return {f"{name}_tol": value for name, value in tols.items()}


def _add_tol_flags(p):
    for name in ("scaling", "kernel", "decoupling"):
        p.add_argument(f"--{name}-tol", type=float, default=None)


def _add_run_flags(p, out):
    """The flags that evolve, traj and converge share, after each one's own:
    the time grid, the initial state, the output flag ``out`` and the
    tolerances."""
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--initial", default="mixed")
    p.add_argument(out, required=True)
    _add_tol_flags(p)


# numeric flags checked at the argv boundary, as (attribute, flag, whether 0
# is allowed): each value must be finite and positive, or nonnegative
_NUMBER_FLAGS = (
    ("t_end", "--t-end", True),
    ("dt", "--dt", False),
    ("k", "--k", False),
    ("ks", "--ks", False),
    ("scaling_tol", "--scaling-tol", True),
    ("kernel_tol", "--kernel-tol", True),
    ("decoupling_tol", "--decoupling-tol", True),
    ("seed", "--seed", True),
)


def _check_numbers(args) -> None:
    """Parse ``--ks`` into floats and range-check every numeric flag; a k
    must also have a finite square."""
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
            if attr in ("k", "ks") and not math.isfinite(v * v):
                raise ModelParseError(
                    f"{flag} value {v!r} is too large: k**2 is not a finite float"
                )


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


def _quiet_steps():
    """Floating-point errors ignored while the commands step: each run ends
    in a check that catches a NaN or inf state (the trace drift, the
    homodyne mean, the jump guard) and names the step in one typed line,
    so numpy's warnings before it would add nothing."""
    return np.errstate(all="ignore")


@contextlib.contextmanager
def _sigterm_exits():
    """Inside the block, SIGTERM raises SystemExit(128 + SIGTERM) so that
    cleanup code runs; the previous handler is restored after it.  Only
    the main thread may set a handler, so in any other this does nothing."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def exit_on(signum, frame):
        raise SystemExit(128 + signum)

    previous = signal.signal(signal.SIGTERM, exit_on)
    try:
        yield
    finally:
        # None: a handler set outside Python, which cannot be put back
        signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)


class _Run:
    """The outputs and phase timings of one command (see ``_transaction``).

    ``timings`` holds wall seconds per phase (``model_s``: load and prepare
    the model, ``run_s``: integrate or simulate, ``write_s``: write the
    outputs), each lap added to its phase.  Every output, the manifest
    included, is written to the temporary file ``tmp(path)`` beside its
    target, and ``stdout`` holds the text to print once all are in place.
    """

    def __init__(self):
        self.timings = {"model_s": 0.0, "run_s": 0.0, "write_s": 0.0}
        self._last = time.perf_counter()
        self.pending = []  # (temporary file, target), not yet renamed
        self.made = []  # directories made, each before its parent
        self.stdout = None

    def lap(self, phase: str):
        now = time.perf_counter()
        self.timings[phase] += now - self._last
        self._last = now

    def laps(self, items, make: str, use: str):
        """``items``, each lap spent making an item added to ``make`` and
        each lap spent using it, until the next is asked for, to ``use``."""
        for item in items:
            self.lap(make)
            yield item
            self.lap(use)

    def tmp(self, path) -> Path:
        """The temporary file ``.<name>.<pid>.tmp`` beside ``path``, which
        ``commit`` renames to ``path``."""
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        self.pending.append((tmp, path))
        return tmp

    def mkdir(self, directory: Path):
        """``directory`` and its missing parents, each one made recorded."""
        # recorded first, so that those made before a failure are removed
        self.made[:0] = [d for d in (directory, *directory.parents) if not d.exists()]
        directory.mkdir(parents=True, exist_ok=True)

    def manifest(self, path, command: str, digest: str, tols: dict, **fields):
        """The run manifest at ``path``, its timings taken after a last
        ``write_s`` lap."""
        self.lap("write_s")
        RunManifest(command, digest, tols, timings=dict(self.timings), **fields).write(
            self.tmp(path)
        )

    def commit(self):
        """Every output written so far renamed into place.  A target that
        is a directory fails before the first rename, so that no output is
        left without the others."""
        for _, path in self.pending:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for tmp, path in self.pending:
            os.replace(tmp, path)
        self.pending.clear()


@contextlib.contextmanager
def _transaction():
    """A ``_Run`` for one command.  When the command returns, whatever its
    exit code, every output is renamed into place and then ``stdout`` is
    printed.  On any exception (SIGTERM included, under ``_sigterm_exits``)
    the temporary files not yet renamed and every directory the run made
    that is still empty are removed, and nothing is printed."""
    run = _Run()
    try:
        yield run
        run.commit()
    except BaseException:
        for tmp, _ in run.pending:
            tmp.unlink(missing_ok=True)
        for directory in run.made:
            with contextlib.suppress(OSError):  # not empty
                directory.rmdir()
        raise
    if run.stdout is not None:
        print(run.stdout)


@functools.cache  # built once per process; parse_args leaves it as it was
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
    _add_run_flags(pv, "--out")

    pt = sub.add_parser("traj", help="simulate conditioned trajectories of the limit model")
    pt.add_argument("model_file")
    pt.add_argument("--scheme", choices=("homodyne", "counting"), required=True)
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--n", type=int, default=1, help="number of trajectories")
    pt.add_argument("--channel", type=int, default=0)
    _add_run_flags(pt, "--out-dir")

    pk = sub.add_parser("converge", help="full-vs-limit trace distance over a k grid")
    pk.add_argument("model_file")
    pk.add_argument("--ks", required=True, help="comma-separated k values")
    _add_run_flags(pk, "--out")

    pl = sub.add_parser("linstab", help="stability sweep of a mean-field block system")
    pl.add_argument("gamma_file", help="JSON with Gamma1..Gamma4 matrices")
    pl.add_argument("--ks", required=True, help="comma-separated k values")
    pl.add_argument("--out", required=True)
    return p


def _cmd_check(args, run) -> int:
    doc = load_model(args.model)
    tols = _tolerances(args)
    report = {
        "model": doc.name,
        "digest": model_digest(doc),
        "tolerances": tols,
    }
    run.lap("model_s")
    code = EXIT_OK
    try:
        result = _eliminate(doc, tols)
        report["zenofiable"] = True
        report["failed_condition"] = None
        report["residuals"] = {k: float(v) for k, v in result.residuals.items()}
        report["zeno_dim"] = result.zeno_triple.dim
        method, cond_a_ff = result.method, result.cond_a_ff
    except ZenofiabilityError as e:
        report["zenofiable"] = False
        report["failed_condition"] = type(e).__name__
        report["message"] = str(e)
        report["residuals"] = {k: float(v) for k, v in e.residuals.items()}
        code = EXIT_VIOLATION
        method, cond_a_ff = e.method, e.cond_a_ff
    run.lap("run_s")
    run.stdout = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        write_json(run.tmp(args.out), report)
        run.manifest(f"{args.out}.manifest.json", "check", report["digest"], tols,
                     method=method, cond_a_ff=cond_a_ff)
    return code


def _eliminate(doc, tols):
    return zeno_eliminate(doc.family, doc.split(), **_tol_kwargs(tols))


def _cmd_eliminate(args, run) -> int:
    doc = load_model(args.model)
    tols = _tolerances(args)
    run.lap("model_s")
    result = _eliminate(doc, tols)
    run.lap("run_s")
    if args.out:
        write_triple_json(run.tmp(args.out), result)
        run.manifest(f"{args.out}.manifest.json", "eliminate", model_digest(doc), tols,
                     method=result.method, cond_a_ff=result.cond_a_ff)
    else:
        run.stdout = triple_json(result)
    return EXIT_OK


def _cmd_evolve(args, run) -> int:
    doc = load_model(args.model_file)
    tols = _tolerances(args)
    if args.model == "full":
        if args.k is None:
            raise ModelParseError("--model full requires --k")
        g = instantiate(doc.family, args.k)
    else:
        g = _eliminate(doc, tols).zeno_triple
    rho0 = _initial_state(g.space, args.initial)
    rows, n_rows, fields = _evolve([(g, args.t_end, _step_grid(args.t_end, args.dt))], rho0, 1)
    run.lap("model_s")
    with _quiet_steps():
        write_evolution_rows(run.tmp(args.out), g.dim, run.laps(rows, "run_s", "write_s"), n_rows)
    run.manifest(f"{args.out}.manifest.json", f"evolve --model {args.model}", model_digest(doc),
                 tols, **fields)
    return EXIT_OK


def _tallied(blocks, tally: dict):
    """``trajectories._ensemble_blocks``' blocks as they come, each block's
    jumps added to ``tally["jumps"]`` (for counting) and its largest tr
    rho^2 taken into ``tally["max_purity"]``, member by member, so that the
    product summed is one member's states, not the block's."""
    for block in blocks:
        _, records, _, states = block
        if records.dtype == bool:
            tally["jumps"] += int(records.sum())
        for i in range(states.shape[1]):
            tally["max_purity"] = max(tally["max_purity"], float(_purity(states[:, i]).max()))
        yield block


def _cmd_traj(args, run) -> int:
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
    n_steps, dt_eff = _step_grid(config.t_end, config.dt)
    out_dir = Path(args.out_dir)
    run.mkdir(out_dir)
    run.lap("model_s")
    # members run in chunks whose block of states takes at most about
    # TRAJ_CHUNK_BYTES; a chunk starting at member i is the ensemble seeded
    # base + i, and its CSVs are renamed into place when the next chunk
    # starts (the last with the manifest), so a failed run keeps the
    # chunks that finished before it
    chunk = max(1, TRAJ_CHUNK_BYTES // (_block_rows(16 * g.dim**2) * 16 * g.dim**2))
    tally = {"jumps": 0, "max_purity": float(_purity(rho0.mat))}
    with _quiet_steps():
        for start in range(0, args.n, chunk):
            run.commit()
            size = min(chunk, args.n - start)
            blocks = _ensemble_blocks(g, rho0, replace(config, seed=args.seed + start), size)
            tmps = [run.tmp(out_dir / f"traj_{i:04d}.csv") for i in range(start, start + size)]
            write_trajectory_rows(
                tmps, g.dim, args.scheme, _tallied(run.laps(blocks, "run_s", "write_s"), tally),
                n_steps,
            )
    run.manifest(
        out_dir / "manifest.json",
        f"traj --scheme {args.scheme} --n {args.n}",
        model_digest(doc),
        tols,
        seed=args.seed,
        n_steps=n_steps,
        dt_eff=dt_eff,
        jumps=tally["jumps"] if args.scheme == "counting" else None,
        max_purity=tally["max_purity"],
    )
    return EXIT_OK


def _cmd_converge(args, run) -> int:
    doc = load_model(args.model_file)
    tols = _tolerances(args)
    split = doc.split()
    rho0 = _initial_state(split.zeno_space, args.initial)
    run.lap("model_s")
    with _quiet_steps():
        points = convergence_harness(
            doc.family, split, rho0, args.ks, args.t_end, args.dt, **_tol_kwargs(tols)
        )
    run.lap("run_s")
    write_convergence_csv(run.tmp(args.out), points)
    # every k runs the full model, so at one d and on one path
    run.manifest(f"{args.out}.manifest.json", "converge", model_digest(doc), tols,
                 method=points[0].method, workers=len({p.worker for p in points}))
    return EXIT_OK


def _gamma_system(raw: bytes) -> LinearMeanSystem:
    """The block system of a gamma file's Gamma1..Gamma4."""
    names = ("Gamma1", "Gamma2", "Gamma3", "Gamma4")
    try:
        data = json.loads(raw)
        # json reads NaN, Infinity and 1e400, which LinearMeanSystem rejects
        return LinearMeanSystem(*(pairs_to_matrix(data[name]) for name in names))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as e:
        raise ModelParseError(f"gamma file: {e}") from None


def _cmd_linstab(args, run) -> int:
    raw = Path(args.gamma_file).read_bytes()
    system = _gamma_system(raw)
    run.lap("model_s")
    report = stability_threshold(system, args.ks)
    run.lap("run_s")
    write_stability_csv(run.tmp(args.out), report)
    verdict = {
        "predicted_stable_tail": report.predicted_stable_tail,
        "observed_stable_at_kmax": report.observed_stable_at_kmax,
        "agrees": report.agrees,
        "fast_numerical_range_margin": report.fast_hurwitz.numerical_range_margin,
        "fast_eigenvalue_margin": report.fast_hurwitz.eigenvalue_margin,
        "schur_numerical_range_margin": report.schur_hurwitz.numerical_range_margin,
        "schur_eigenvalue_margin": report.schur_hurwitz.eigenvalue_margin,
    }
    run.stdout = json.dumps(verdict, indent=2, sort_keys=True)
    run.manifest(f"{args.out}.manifest.json", "linstab", digest_bytes(raw), {},
                 method=report.method, workers=report.workers)
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
        with _sigterm_exits(), _transaction() as run:
            return _COMMANDS[args.command](args, run)
    except ZenofiabilityError as e:
        print(f"zenoslh: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_VIOLATION
    except (ModelParseError, OSError) as e:
        print(f"zenoslh: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, StepSizeError) as e:
        print(f"zenoslh: {e}", file=sys.stderr)
        return EXIT_VIOLATION
    except MemoryError as e:
        print(f"zenoslh: out of memory: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
