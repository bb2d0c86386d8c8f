"""nambu-dyn benchmark: physics workloads, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S   # every workload
    python3 bench/run.py --self-check                          # quick harness check

Closed loop, one client: operations run back to back, one at a time, each in
a fresh process (``bench/op.py``) so that set-up includes ``import nambu_dyn``
and peak memory belongs to one operation.  Operations start while they are
expected to finish within ``--seconds``; at least one always runs.  Every
operation of a run gets the same packet, generated from ``--seed``, so the
amount of work per operation is fixed and layer counts repeat exactly.

``--trace 0`` reports the end-to-end metrics (medians over operations).
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics (medians over traced operations) and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Workloads, metrics
and the layer-to-end-to-end predictions are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "out"
# A run of 60 s plus one hung operation must still end within 180 s.
OP_TIMEOUT_S = 100.0
SELF_CHECK_SCALE = 0.02

THREAD_POOLS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# Fixed string hashing keeps set iteration, and so floating-point summation
# order in the symbolic layers, the same from run to run.
HASH_SEED = "0"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "fraction",
}

PER_LAYER = {
    "dynamics.rk4_s": "s",
    "dynamics.steps": "count",
    "dynamics.field_calls": "count",
    "dynamics.field_calls_per_step": "count/step",
    "dynamics.field_us": "us",
    "dynamics.driver_us": "us",
    "dynamics.rows": "count",
    "dynamics.observer_us": "us",
    "dynamics.csv_write_s": "s",
    "dynamics.csv_read_s": "s",
    "dynamics.csv_bytes": "B",
    "quantum.strang_steps": "count",
    "quantum.strang_us": "us",
    "quantum.fft_calls": "count",
    "quantum.fft_us": "us",
    "quantum.fft_per_step": "count/step",
    "quantum.fft_per_row": "count/row",
    "quantum.bytes_per_step": "B/step",
    "quantum.expect_calls": "count",
    "quantum.expect_us": "us",
    "quantum.row_ms": "ms",
    "quantum.setup_s": "s",
    "scenarios.run_s": "s",
    "scenarios.self_s": "s",
    "scenarios.compare_s": "s",
    "poly.compile_s": "s",
    "poly.compile_calls": "count",
    "poly.src_bytes": "B",
    "poly.flow_monomials": "count",
    "brackets.bracket_poly_s": "s",
    "brackets.bracket_poly_calls": "count",
    "closure.build_F_s": "s",
    "cli.self_s": "s",
    "proc.import_s": "s",
    "proc.cpu_s": "s",
    "proc.trace_overhead": "s",
    "check.drift_max": "abs",
    "check.ref_err": "abs",
    "check.norm_err": "abs",
    "check.error_rate": "fraction",
}

# Counts that must repeat exactly for one seed (checked by --self-check).
EXACT_COUNTS = (
    "dynamics.steps", "dynamics.field_calls", "dynamics.rows", "dynamics.csv_bytes",
    "quantum.strang_steps", "quantum.fft_calls", "quantum.expect_calls", "poly.src_bytes",
)


def _hh_packet(rng: random.Random) -> dict:
    # +-0.25 per slot around the acceptance packets q = (0, 1), p = (0, 1).
    return {
        "qc": [0.0 + rng.uniform(-0.25, 0.25), 1.0 + rng.uniform(-0.25, 0.25)],
        "pc": [0.0 + rng.uniform(-0.25, 0.25), 1.0 + rng.uniform(-0.25, 0.25)],
    }


def _harmonic_packet(rng: random.Random) -> dict:
    return {"qc": [rng.uniform(-1.5, 1.5)], "pc": [rng.uniform(-1.5, 1.5)]}


# BENCHMARK.json gates nambu_hh and harmonic_exact only: on a host whose
# single-thread speed drifts by tens of percent over minutes, two workloads
# with 60 s runs fit the time budget, four would need runs of half that.
# nambu_dense and quantum_2d run on request, ungated (see bench/README.md).
WORKLOADS = {
    "nambu_hh": _hh_packet,
    "nambu_dense": _hh_packet,
    "quantum_2d": _hh_packet,
    "harmonic_exact": _harmonic_packet,
}


def make_packet(workload: str, seed: int) -> dict:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


# --------------------------------------------------------------------------
# Provenance
# --------------------------------------------------------------------------


def _git_sha() -> str:
    """HEAD of the repository this benchmark sits in, if it sits in one."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _src_sha256() -> str:
    """Digest of the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "nambu_dyn").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, packet, numpy_version) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "thread_pools": THREAD_POOLS,
        "pythonhashseed": HASH_SEED,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "packet": packet,
    }


# --------------------------------------------------------------------------
# Running operations
# --------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_POOLS)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def warm_up(env: dict) -> None:
    """Compile the package's bytecode once, untimed: users pay that only on
    their first run, not on every run."""
    subprocess.run(
        [sys.executable, "-c", "import nambu_dyn.cli"],
        env=env, cwd=ROOT, check=True, timeout=OP_TIMEOUT_S,
    )


def run_op(workload: str, packet: dict, traced: bool, scale: float, op_id: str, env: dict) -> dict:
    """One operation in a fresh process; its JSON result, or a failure."""
    cmd = [
        sys.executable, str(BENCH / "op.py"),
        "--workload", workload,
        "--packet", json.dumps(packet),
        "--work", str(WORK / op_id),
        "--op-id", op_id,
        "--scale", repr(scale),
    ]
    if traced:
        cmd.append("--trace")
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(
            cmd + ["--t0", str(t0)], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fails = [f"timed out after {OP_TIMEOUT_S:g} s"]
        return {"ok": False, "fails": fails, "traced": traced, "elapsed_s": OP_TIMEOUT_S}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        result = {"ok": False, "fails": [f"exit {proc.returncode}: {tail[0]}"]}
    if proc.returncode != 0:
        result["ok"] = False
        result.setdefault("fails", []).append(f"exit {proc.returncode}")
    result["traced"] = traced
    result["elapsed_s"] = (time.monotonic_ns() - t0) / 1e9
    return result


def run_ops(workload, packet, seconds, trace, scale, env, min_ops=1) -> list[dict]:
    """Operations back to back while the next one is expected to end within
    ``seconds``; with ``trace`` they alternate untraced and traced."""
    ops: list[dict] = []
    start = time.monotonic()
    min_ops = max(min_ops, 2 if trace else 1)
    while True:
        if len(ops) >= min_ops:
            typical = statistics.median(op["elapsed_s"] for op in ops)
            if time.monotonic() - start + typical > seconds:
                break
        traced = trace and len(ops) % 2 == 1
        op_id = f"{workload}-{len(ops)}"
        ops.append(run_op(workload, packet, traced, scale, op_id, env))
        op = ops[-1]
        status = "ok" if op["ok"] else "FAILED " + "; ".join(op.get("fails", []))
        wall = f"{op['wall_s']:.4f}" if "wall_s" in op else "-"
        print(f"# op {op_id} traced={int(traced)} wall_s={wall} {status}", flush=True)
    return ops


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def _median(ops, key):
    values = [op[key] for op in ops if op.get(key) is not None]
    return statistics.median(values) if values else None


def _timed(ops):
    """Ops whose timings count: the checked ones, else any that reported."""
    good = [op for op in ops if op["ok"]]
    return good or [op for op in ops if "wall_s" in op]


def end_to_end(ops) -> dict:
    timed = _timed([op for op in ops if not op["traced"]])
    return {
        "wall_s": _median(timed, "wall_s"),
        "setup_s": _median(timed, "setup_s"),
        "peak_rss_mb": _median(timed, "peak_rss_mb"),
        "success_rate": sum(op["ok"] for op in ops) / len(ops),
    }


def per_layer(ops) -> dict:
    plain = _timed([op for op in ops if not op["traced"]])
    traced = _timed([op for op in ops if op["traced"]])
    out = {}
    for name in PER_LAYER:
        if not name.startswith(("proc.", "check.")):
            values = [op["layers"][name] for op in traced if "layers" in op]
            out[name] = statistics.median(values) if values else None
    out["proc.import_s"] = _median(plain, "import_s")
    out["proc.cpu_s"] = _median(plain, "cpu_s")
    wall_traced, wall_plain = _median(traced, "wall_s"), _median(plain, "wall_s")
    out["proc.trace_overhead"] = (
        wall_traced - wall_plain if None not in (wall_traced, wall_plain) else None
    )
    for key in ("drift_max", "ref_err", "norm_err"):
        # 0.0 where the workload has no such check.
        out[f"check.{key}"] = max((op.get("checks", {}).get(key, 0.0) for op in ops), default=0.0)
    out["check.error_rate"] = sum(not op["ok"] for op in ops) / len(ops)
    return out


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def print_table(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, m in metrics.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"#   {name:32s} {value:>14s} {m['unit']}")


def measure(workload, seed, seconds, trace, env, scale=1.0, min_ops=1):
    packet = make_packet(workload, seed)
    ops = run_ops(workload, packet, seconds, trace, scale, env, min_ops)
    if trace:
        metrics = with_units(per_layer(ops), PER_LAYER)
    else:
        metrics = with_units(end_to_end(ops), END_TO_END)
    return packet, ops, metrics


# --------------------------------------------------------------------------
# Self-check
# --------------------------------------------------------------------------


def self_check(env) -> int:
    """Tiny run lengths: every named metric appears with its unit, every
    check passes, and the layer counts repeat exactly."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        names = {m["name"]: m["unit"] for m in declared[key]}
        if names != table:
            problems.append(f"BENCHMARK.json {key} differs from bench/run.py")
    if not {w["name"] for w in declared["workloads"]} <= set(WORKLOADS):
        problems.append("BENCHMARK.json names a workload bench/run.py does not have")
    expected = {
        "nambu_hh": {"dynamics.field_calls_per_step": 4},
        "nambu_dense": {"dynamics.field_calls_per_step": 4},
        "quantum_2d": {"quantum.fft_per_step": 2, "quantum.fft_per_row": 4},
        "harmonic_exact": {"dynamics.field_calls_per_step": 4,
                           "quantum.fft_per_step": 2, "quantum.fft_per_row": 3},
    }
    for workload in WORKLOADS:
        _, ops_e2e, e2e = measure(workload, 1, 0.0, False, env, SELF_CHECK_SCALE)
        # untraced, traced, untraced, traced: two traced ops to compare counts
        _, ops_layer, layer = measure(workload, 1, 0.0, True, env, SELF_CHECK_SCALE, 4)
        for metrics, units in ((e2e, END_TO_END), (layer, PER_LAYER)):
            for name, unit in units.items():
                m = metrics.get(name)
                if m is None or m["unit"] != unit or not isinstance(m["value"], (int, float)):
                    problems.append(f"{workload}: {name} missing or without unit {unit}")
        for op in ops_e2e + ops_layer:
            if not op["ok"]:
                problems.append(f"{workload}: check failed: {op.get('fails')}")
        for name, value in expected[workload].items():
            if layer[name]["value"] != value:
                problems.append(f"{workload}: {name} = {layer[name]['value']}, expected {value}")
        traced = [op["layers"] for op in ops_layer if op["traced"] and "layers" in op]
        for name in EXACT_COUNTS:
            if len({t[name] for t in traced}) != 1:
                problems.append(f"{workload}: {name} differs between traced operations")
        print(f"# self-check {workload}: {len(ops_e2e) + len(ops_layer)} operations")
    for p in problems:
        print(f"FAIL {p}")
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "nambu_dyn" / "__init__.py").is_file():
        print(f"error: no nambu_dyn sources under {SRC}", file=sys.stderr)
        return 2
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    env = _child_env()
    WORK.mkdir(exist_ok=True)
    warm_up(env)
    if args.self_check:
        return self_check(env)

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_ops, summary, packets = [], {}, {}
    for workload in workloads:
        packet, ops, metrics = measure(workload, args.seed, args.seconds, bool(args.trace), env)
        print_table(f"{workload} ({len(ops)} operations)", metrics)
        all_ops += ops
        packets[workload] = packet
        for name, m in metrics.items():
            summary[name if len(workloads) == 1 else f"{workload}.{name}"] = m
    numpy_version = next((op["numpy"] for op in all_ops if "numpy" in op), "unknown")
    prov = provenance(args, packets, numpy_version)
    print("# provenance " + json.dumps(prov))
    missing = [name for name, m in summary.items() if m["value"] is None]
    if missing:
        print(f"error: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    failed = sum(not op["ok"] for op in all_ops)
    result = {
        "correct": failed == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": summary,
    }
    record = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": prov, "ops": all_ops, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
