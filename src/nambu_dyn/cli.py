"""Command-line interface.

    nambu run --model cubic --method nambu --qc 0 --pc 1.8 --out traj.csv
    nambu verify consistency --multiplet quartet
    nambu check fi --model henon-heiles
    nambu reduce --moment 4 --mode zero-cumulant

Each flag of a subcommand, and no other key, may be set in a config file of
``key = value`` lines ('#' comments), parsed as that flag; flags override it.
Exit codes: 0 success, 1 verification failure, 2 bad input (``ValidationError``, before
any work), 3 numerical abort (``NonFiniteStateError``); anything else is a bug.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .brackets import check_fundamental_identity, reports_to_csv, sample_assignments
from .closure import ClosureMode, reduce_moment
from .dynamics import NonFiniteStateError, conserved_drift
from .multiplets import (
    DEFAULT_CONSISTENCY_SAMPLES, DEFAULT_CONSISTENCY_TOL, builtin_multiplets, consistency_to_csv,
    verify_consistency,
)
from .poly import Poly, ValidationError, check_count, format_poly, xvar
from .scenarios import (
    DEFAULT_Q_STOP, MODELS, PacketSpec, hamiltonian_set, model_by_name, run_scenario,
)
from .state import x_vars

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValidationError):
    """A config file, or a flag combination, that the subcommand cannot use."""


def load_config(path: str, keys) -> dict[str, str]:
    """Flat UTF-8 ``key = value`` file; each key, '-' read as '_', is one
    of ``keys``, the subcommand's options, and is set once."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in keys:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                if key in lines:
                    raise ConfigError(f"{path}:{lineno}: key {key!r} also set on line {lines[key]}")
                lines[key], values[key] = lineno, value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def floats(text: str) -> tuple[float, ...]:  # argparse reports a bad one: "invalid floats value"
    return tuple(float(v) for v in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    """The one statement of each option's type, default and choices; a config
    file's entries are parsed by it as the flags they name."""
    parser = argparse.ArgumentParser(
        prog="nambu", description="Hidden-Nambu dynamics of expectation values"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="integrate one model/method trajectory")
    run.add_argument("--config", help="key = value config file")
    run.add_argument("--model", choices=[key.replace("_", "-") for key in MODELS])
    run.add_argument("--method", choices=["quantum", "nambu", "classical"])
    run.add_argument("--qc", type=floats, help="comma-separated packet centers (default 0)")
    run.add_argument("--pc", type=floats, help="comma-separated packet momenta (default 0)")
    run.add_argument(
        "--sigma", type=floats,
        help="comma-separated packet widths (default sqrt(hbar/2mw))",
    )
    run.add_argument(
        "--dt", type=float, default=1e-3,
        help="time step (default %(default)s); a quantum run without an absorber takes the "
        "largest fourth-order step that is as accurate as Strang steps of dt",
    )
    run.add_argument("--t-end", dest="t_end", type=float)
    run.add_argument("--stride", type=int, help="record every N-th step")
    run.add_argument(
        "--q-stop", dest="q_stop", type=float,
        help=f"{'/'.join(k for k, m in MODELS.items() if m.escapes)} nambu/classical runs stop "
        f"below this position (default {DEFAULT_Q_STOP:g})",
    )
    run.add_argument("--out", default="traj.csv", help="trajectory CSV (default %(default)s)")

    verify = sub.add_parser("verify", help="verification reports")
    vsub = verify.add_subparsers(dest="what", required=True)
    cons = vsub.add_parser("consistency", help="multiplet consistency conditions")
    cons.add_argument("--config")
    cons.add_argument("--multiplet", choices=list(builtin_multiplets()))
    cons.add_argument("--n-dof", dest="n_dof", type=int, default=1, help="(default %(default)s)")
    cons.add_argument(
        "--samples", type=int, default=DEFAULT_CONSISTENCY_SAMPLES,
        help="random points (default %(default)s)",
    )
    cons.add_argument(
        "--tol", type=float, default=DEFAULT_CONSISTENCY_TOL,
        help="largest residual that passes (default %(default)s)",
    )

    check = sub.add_parser("check", help="bracket identity checks")
    csub = check.add_subparsers(dest="what", required=True)
    fi = csub.add_parser("fi", help="fundamental-identity violation example")
    fi.add_argument("--config")
    coupled = [k.replace("_", "-") for k, m in MODELS.items() if (m.n_dof or 0) >= 2]
    fi.add_argument("--model", choices=coupled, default=coupled[0])
    fi.add_argument("--samples", type=int, default=20, help="random points (default %(default)s)")

    red = sub.add_parser("reduce", help="print a closure polynomial")
    red.add_argument("--config")
    red.add_argument("--moment", type=int)
    red.add_argument(
        "--mode", choices=["zero-cumulant", "ignore-fluctuation"], default="zero-cumulant",
        help="(default %(default)s)",
    )

    return parser


def cmd_run(args) -> int:
    if args.model is None or args.method is None:
        raise ConfigError("run needs --model and --method (flag or config)")
    spec = model_by_name(args.model)
    zeros = (0.0,) * spec.n_dof
    packet = PacketSpec.make(args.qc or zeros, args.pc or zeros, args.sigma)
    out = args.out
    if os.path.basename(out) in ("", ".", "..") or Path(out).is_dir():
        raise ConfigError(f"cannot write {out!r}: it names a directory, not a file")
    if not Path(out).parent.is_dir():
        raise ConfigError(f"cannot write {out}: directory {Path(out).parent} does not exist")
    traj = run_scenario(spec, packet, args.method, dt=args.dt, t_end=args.t_end, out_path=out,
                        record_stride=args.stride, q_stop=args.q_stop)
    drifts = conserved_drift(traj)
    print(f"wrote {out}: {len(traj)} rows, t in [{traj.t[0]:g}, {traj.t[-1]:g}]")
    # Grid rows do not conserve F and the G_c: their change is how far the
    # exact dynamics departs from the frozen-Gaussian closure.
    label = "closure defect: " if args.method == "quantum" else ""
    for name, stat in drifts.items():
        print(f"  {label}max |{name}(t) - {name}(0)| = {stat.max_abs:.3e}")
    if "norm_loss" in traj.meta:
        meta = traj.meta
        print(f"  norm loss = {float(meta['norm_loss']):.3e}")
        print(f"  max boundary |psi| = {float(meta['boundary_amp_max']):.3e}")
        print(f"  split order = {meta['split_order']}, quantum dt = {meta['quantum_dt']}")
        split_err, strang_err = float(meta["split_err_est"]), float(meta["strang_err_est"])
        if math.isnan(strang_err):
            print(
                "  split error estimate: none made "
                "(absorber, or it would cost more than the run)"
            )
        else:
            print(f"  split error estimate = {split_err:.3e} (Strang at dt: {strang_err:.3e})")
    if traj.flags[-1]:
        print(f"  run truncated: {traj.flags[-1]} at t = {traj.t[-1]:g}")
    return EXIT_OK


def cmd_verify_consistency(args) -> int:
    if args.multiplet is None:
        raise ConfigError("verify consistency needs --multiplet")
    if not 0 <= args.tol < math.inf:
        raise ConfigError(f"tol = {args.tol!r} is not a non-negative finite number")
    check_count(args.samples, "samples")  # before the multiplet is built
    multiplet = builtin_multiplets()[args.multiplet].with_n_dof(args.n_dof)
    reports = verify_consistency(multiplet, samples=args.samples, tolerance=args.tol)
    print(consistency_to_csv(reports), end="")
    failed = [r for r in reports if not r.passed]
    if failed:
        print(f"FAIL: {len(failed)} of {len(reports)} consistency conditions violated")
        return EXIT_VERIFY_FAILED
    print(f"PASS: all {len(reports)} consistency conditions hold (tol {args.tol:g})")
    return EXIT_OK


def cmd_check_fi(args) -> int:
    check_count(args.samples, "samples")  # before the model's F is built
    spec = model_by_name(args.model)
    hset = hamiltonian_set(spec)
    points = sample_assignments(x_vars(hset.layout), args.samples)
    As = [Poly.var(xvar(i, dof)) for i, dof in ((1, 1), (2, 1), (2, 0), (4, 1))]
    reports = check_fundamental_identity(As, list(hset.hamiltonians), points, hset.layout)
    print(reports_to_csv(reports), end="")
    worst = max(r.residual for r in reports)
    coupling = getattr(spec, MODELS[spec.model_id].coupling)
    print(f"max residual = {worst:.6g} (interaction term lambda = {coupling})")
    return EXIT_OK


def cmd_reduce(args) -> int:
    if args.moment is None:
        raise ConfigError("reduce needs --moment")
    print(format_poly(reduce_moment(args.moment, ClosureMode.from_string(args.mode))))
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # Each file entry becomes its flag, after the subcommand words and
            # before the given flags, which therefore win.
            keys = vars(args).keys() - {"command", "what", "config"}
            flags = [f"--{key.replace('_', '-')}={value}"
                     for key, value in load_config(args.config, keys).items()]
            words = 2 if hasattr(args, "what") else 1
            args = parser.parse_args([*argv[:words], *flags, *argv[words:]])
        command = {"run": cmd_run, "verify": cmd_verify_consistency,
                   "check": cmd_check_fi, "reduce": cmd_reduce}[args.command]
        return command(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteStateError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
