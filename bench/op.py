"""One benchmark operation, run in a fresh process by ``bench/run.py``.

    python3 bench/op.py --workload NAME --packet JSON --t0 NS --work DIR
                        [--scale S] [--trace] [--op-id ID]

Imports nambu_dyn (timed), runs one workload on the given packet, checks the
output against the acceptance gates and prints one JSON object as the last
line of standard output.  ``--t0`` is the ``time.monotonic_ns()`` at which the
parent started this process, so the times reported here include interpreter
start-up and ``import nambu_dyn``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
import warnings

DRIFT_GATE = 1e-8  # criterion 2: drift of F and every G_c
REF_GATE = 1e-4  # criterion 1, tighter bound: max |Nambu - grid| on x1..x3
NORM_GATE = 1e-10  # |norm - 1| of the final grid wavefunction


def _drift_max(nd, traj) -> float:
    return max(stat.max_abs for stat in nd.dynamics.conserved_drift(traj).values())


def _same_trajectory(a, b) -> bool:
    import numpy as np

    return (
        np.array_equal(a.t, b.t)
        and np.array_equal(a.states, b.states)
        and np.array_equal(a.observables, b.observables)
        and list(a.columns) == list(b.columns)
        and list(a.observable_names) == list(b.observable_names)
        and list(a.flags) == list(b.flags)
        and {k: str(v) for k, v in a.meta.items()} == b.meta
    )


class Captured:
    """Objects the checks need that the public calls do not return."""

    def __init__(self, nd) -> None:
        self.trajectories = []
        self.wavefunctions = []
        run, gauss = nd.cli.run_scenario, nd.scenarios.init_gaussian

        def cli_run(*args, **kwargs):
            traj = run(*args, **kwargs)
            self.trajectories.append(traj)
            return traj

        def init_gaussian(*args, **kwargs):
            wf = gauss(*args, **kwargs)
            self.wavefunctions.append(wf)
            return wf

        nd.cli.run_scenario = cli_run
        nd.scenarios.init_gaussian = init_gaussian


def _norm_err(cap) -> float:
    import numpy as np

    worst = 0.0
    for wf in cap.wavefunctions:
        if not np.all(np.isfinite(wf.amps)):
            return float("inf")
        worst = max(worst, abs(wf.norm() - 1.0))
    return worst


def run_workload(nd, name: str, packet: dict, scale: float, work: str, cap: Captured):
    """Run one workload; return its check values and its failures."""
    sc = nd.scenarios
    spec_packet = sc.PacketSpec.make(packet["qc"], packet["pc"])
    checks: dict = {}
    fails: list[str] = []
    written: list[str] = []  # trajectory files that must not be empty

    def gate(key, value, limit):
        checks[key] = value
        if not value <= limit:
            fails.append(f"{key} = {value:.3e} exceeds {limit:.0e}")

    if name == "nambu_hh":
        out = os.path.join(work, "nambu_hh.csv")
        argv = [
            "run", "--model", "henon-heiles", "--method", "nambu",
            "--qc=" + ",".join(repr(v) for v in spec_packet.qc),
            "--pc=" + ",".join(repr(v) for v in spec_packet.pc),
            "--t-end", repr(100.0 * scale), "--out", out,
        ]
        code = nd.cli.main(argv)
        if code != 0:
            fails.append(f"nambu run exited with {code}")
        (traj,) = cap.trajectories
        gate("drift_max", _drift_max(nd, traj), DRIFT_GATE)
        if len(traj) != round(1000 * scale) + 1:
            fails.append(f"{len(traj)} rows")
        written.append(out)
    elif name == "nambu_dense":
        out = os.path.join(work, "nambu_dense.csv")
        traj = sc.run_scenario(
            sc.henon_heiles_model(), spec_packet, "nambu",
            dt=1e-3, t_end=100.0 * scale, record_stride=1, out_path=out,
        )
        back = nd.dynamics.Trajectory.from_csv(out)
        if not _same_trajectory(traj, back):
            fails.append("from_csv differs from the written trajectory")
        gate("drift_max", _drift_max(nd, traj), DRIFT_GATE)
    elif name == "quantum_2d":
        out = os.path.join(work, "quantum_2d.csv")
        grid = nd.quantum.Grid.make_2d((-8.0, 8.0, 128), (-8.0, 8.0, 128))
        traj = sc.run_scenario(
            sc.henon_heiles_model(), spec_packet, "quantum",
            dt=0.02, t_end=100.0 * scale, record_stride=50, grid=grid, out_path=out,
        )
        gate("norm_err", _norm_err(cap), NORM_GATE)
        if len(traj) != round(100 * scale) + 1:
            fails.append(f"{len(traj)} rows")
        written.append(out)
    elif name == "harmonic_exact":
        spec = sc.harmonic_model()
        written += [os.path.join(work, f"harmonic_{m}.csv") for m in ("nambu", "quantum")]
        nambu = sc.run_scenario(
            spec, spec_packet, "nambu", dt=1e-3, t_end=20.0 * scale, record_stride=10,
            out_path=written[0],
        )
        quantum = sc.run_scenario(
            spec, spec_packet, "quantum", dt=1e-3, t_end=20.0 * scale, record_stride=10,
            grid=nd.quantum.Grid.make_1d(-10.0, 10.0, 2048), out_path=written[1],
        )
        stats = sc.compare(nambu, quantum, ["x1_0", "x2_0", "x3_0"])
        gate("ref_err", max(s.max_abs for s in stats.values()), REF_GATE)
        gate("drift_max", _drift_max(nd, nambu), DRIFT_GATE)
        gate("norm_err", _norm_err(cap), NORM_GATE)
    else:
        raise ValueError(f"unknown workload {name!r}")
    fails += [f"{path} not written" for path in written if not os.path.getsize(path)]
    return checks, fails


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--packet", required=True, help='JSON {"qc": [...], "pc": [...]}')
    ap.add_argument("--t0", type=int, required=True, help="parent's monotonic_ns at spawn")
    ap.add_argument("--work", required=True, help="directory for trajectory files")
    ap.add_argument("--scale", type=float, default=1.0, help="multiplies every run length")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--op-id", default="op")
    args = ap.parse_args(argv)

    t_import = time.monotonic_ns()
    import nambu_dyn as nd
    import nambu_dyn.cli  # noqa: F401  (what every `nambu run` imports)
    import_s = (time.monotonic_ns() - t_import) / 1e9

    import hooks

    tracer = hooks.Tracer(args.op_id) if args.trace else None
    if tracer is not None:
        tracer.install()
    mark = hooks.StepperMark()
    mark.install()
    cap = Captured(nd)

    os.makedirs(args.work, exist_ok=True)
    fails: list[str] = []
    checks: dict = {}
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            checks, fails = run_workload(
                nd, args.workload, json.loads(args.packet), args.scale, args.work, cap
            )
        fails += [
            f"{w.category.__name__}: {w.message}"
            for w in caught
            if issubclass(w.category, (nd.quantum.BoundarySupportWarning, RuntimeWarning))
        ]
    except Exception as exc:  # the operation failed; report it, the run goes on
        fails.append(f"{type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
    done_ns = time.monotonic_ns()

    if mark.first_ns is None:
        fails.append("no stepper call seen")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "ok": not fails,
        "fails": fails,
        "checks": checks,
        "wall_s": (done_ns - args.t0) / 1e9,
        "setup_s": (mark.first_ns - args.t0) / 1e9 if mark.first_ns else None,
        "import_s": import_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        path = os.path.join(args.work, f"trace-{args.op_id}.json")
        with open(path, "w") as fh:
            json.dump(tracer.dump(), fh)
    for name in os.listdir(args.work):
        if name.endswith(".csv"):
            os.remove(os.path.join(args.work, name))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
