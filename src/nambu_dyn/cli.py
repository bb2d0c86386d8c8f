"""Command-line interface.

    nambu run --model cubic --method nambu --qc 0 --pc 1.8 --out traj.csv
    nambu verify consistency --multiplet quartet
    nambu check fi --model henon-heiles
    nambu reduce --moment 4 --mode zero-cumulant

Every flag can also be given in a config file of ``key = value`` lines
(with '#' comments); command-line flags override file values.  Exit codes:
0 success, 1 verification failure, 2 configuration error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import sys

from .brackets import check_fundamental_identity, reports_to_csv, sample_assignments
from .closure import ClosureMode, reduce_moment
from .dynamics import NonFiniteStateError, conserved_drift
from .multiplets import builtin_multiplets, consistency_to_csv, verify_consistency
from .poly import Poly, format_poly, xvar
from .quantum import NonFiniteAmplitudeError
from .scenarios import (
    DEFAULT_Q_STOP,
    PacketSpec,
    default_t_end,
    hamiltonian_set,
    henon_heiles_model,
    model_by_name,
    run_scenario,
)
from .state import x_vars

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


def load_config(path: str) -> dict[str, str]:
    """Flat ``key = value`` file; keys mirror the CLI flags."""
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _merged(args: argparse.Namespace, key: str, default=None, cast=None):
    """CLI value if given, else config file value, else default."""
    value = getattr(args, key, None)
    if value is None and getattr(args, "config_values", None):
        value = args.config_values.get(key)
    if value is None:
        return default
    if cast is not None and isinstance(value, str):
        try:
            value = cast(value)
        except ValueError as exc:
            raise ConfigError(f"invalid value for {key}: {value!r}") from exc
    return value


def _float_list(text) -> tuple[float, ...]:
    if isinstance(text, tuple):
        return text
    try:
        return tuple(float(v) for v in str(text).split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated floats, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nambu",
        description="Hidden-Nambu dynamics of expectation values",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="integrate one model/method trajectory")
    run.add_argument("--config", help="key = value config file")
    run.add_argument("--model", choices=["harmonic", "cubic", "henon-heiles"])
    run.add_argument("--method", choices=["quantum", "nambu", "classical"])
    run.add_argument("--qc", help="comma-separated packet centers")
    run.add_argument("--pc", help="comma-separated packet momenta")
    run.add_argument("--sigma", help="comma-separated packet widths (default sqrt(hbar/2mw))")
    run.add_argument("--dt", type=float)
    run.add_argument("--t-end", dest="t_end", type=float)
    run.add_argument("--stride", type=int, help="record every N-th step")
    run.add_argument("--q-stop", dest="q_stop", type=float)
    run.add_argument("--out")

    verify = sub.add_parser("verify", help="verification reports")
    vsub = verify.add_subparsers(dest="what", required=True)
    cons = vsub.add_parser("consistency", help="multiplet consistency conditions")
    cons.add_argument("--config")
    cons.add_argument("--multiplet", choices=["triplet", "quartet"])
    cons.add_argument("--n-dof", dest="n_dof", type=int)
    cons.add_argument("--samples", type=int)
    cons.add_argument("--tol", type=float)

    check = sub.add_parser("check", help="bracket identity checks")
    csub = check.add_subparsers(dest="what", required=True)
    fi = csub.add_parser("fi", help="fundamental-identity violation example")
    fi.add_argument("--config")
    fi.add_argument("--model", choices=["henon-heiles"])
    fi.add_argument("--samples", type=int)

    red = sub.add_parser("reduce", help="print a closure polynomial")
    red.add_argument("--config")
    red.add_argument("--moment", type=int)
    red.add_argument("--mode", choices=["zero-cumulant", "ignore-fluctuation"])

    return parser


def cmd_run(args) -> int:
    model_name = _merged(args, "model")
    method = _merged(args, "method")
    if model_name is None or method is None:
        raise ConfigError("run needs --model and --method (flag or config)")
    spec = model_by_name(model_name)
    qc = _float_list(_merged(args, "qc", default="0" + ",0" * (spec.n_dof - 1)))
    pc = _float_list(_merged(args, "pc", default="0" + ",0" * (spec.n_dof - 1)))
    sigma = _merged(args, "sigma")
    packet = PacketSpec.make(qc, pc, _float_list(sigma) if sigma is not None else None)
    dt = _merged(args, "dt", default=1e-3, cast=float)
    t_end = _merged(args, "t_end", default=default_t_end(spec), cast=float)
    stride = _merged(args, "stride", cast=int)
    q_stop = _merged(args, "q_stop", default=DEFAULT_Q_STOP, cast=float)
    out = _merged(args, "out", default="traj.csv")
    traj = run_scenario(
        spec,
        packet,
        method,
        dt=dt,
        t_end=t_end,
        out_path=out,
        record_stride=stride,
        q_stop=q_stop,
    )
    drifts = conserved_drift(traj)
    print(f"wrote {out}: {len(traj)} rows, t in [{traj.t[0]:g}, {traj.t[-1]:g}]")
    for name, stat in drifts.items():
        print(f"  max |{name}(t) - {name}(0)| = {stat.max_abs:.3e}")
    if any(traj.flags):
        last = traj.flags[-1]
        if last:
            print(f"  run truncated: {last} at t = {traj.t[-1]:g}")
    return EXIT_OK


def cmd_verify_consistency(args) -> int:
    name = _merged(args, "multiplet")
    if name is None:
        raise ConfigError("verify consistency needs --multiplet")
    n_dof = _merged(args, "n_dof", default=1, cast=int)
    samples = _merged(args, "samples", default=50, cast=int)
    tol = _merged(args, "tol", default=1e-9, cast=float)
    multiplet = builtin_multiplets()[name].with_n_dof(n_dof)
    reports = verify_consistency(multiplet, samples=samples, tolerance=tol)
    print(consistency_to_csv(reports), end="")
    failed = [r for r in reports if not r.passed]
    if failed:
        print(f"FAIL: {len(failed)} of {len(reports)} consistency conditions violated")
        return EXIT_VERIFY_FAILED
    print(f"PASS: all {len(reports)} consistency conditions hold (tol {tol:g})")
    return EXIT_OK


def cmd_check_fi(args) -> int:
    samples = _merged(args, "samples", default=20, cast=int)
    spec = henon_heiles_model()
    hset = hamiltonian_set(spec)
    layout = hset.layout
    As = [
        Poly.var(xvar(1, 1)),
        Poly.var(xvar(2, 1)),
        Poly.var(xvar(2, 0)),
        Poly.var(xvar(4, 1)),
    ]
    points = sample_assignments(x_vars(layout), samples)
    reports = check_fundamental_identity(As, list(hset.hamiltonians), points, layout)
    print(reports_to_csv(reports), end="")
    worst = max(r.residual for r in reports)
    print(f"max residual = {worst:.6g} (interaction term lambda = {spec.lam})")
    return EXIT_OK


def cmd_reduce(args) -> int:
    n = _merged(args, "moment", cast=int)
    if n is None:
        raise ConfigError("reduce needs --moment")
    mode_text = _merged(args, "mode", default="zero-cumulant")
    mode = ClosureMode.from_string(mode_text)
    print(format_poly(reduce_moment(n, mode)))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = getattr(args, "config", None)
        args.config_values = load_config(config) if config else {}
        if args.command == "run":
            return cmd_run(args)
        if args.command == "verify":
            return cmd_verify_consistency(args)
        if args.command == "check":
            return cmd_check_fi(args)
        if args.command == "reduce":
            return cmd_reduce(args)
        parser.error(f"unknown command {args.command!r}")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonFiniteStateError, NonFiniteAmplitudeError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
