"""Hooks around nambu_dyn's public functions, installed from outside the package.

Two kinds of hook:

* ``StepperMark`` (every run) records the first call into a stepper -- the
  first compiled-field call or the first ``SplitOperatorPropagator.step`` --
  and then gets out of the way, so an untraced run pays nothing per call.
* ``Tracer`` (traced runs only) records a span (name, start, end, parent,
  operation id) for each coarse call and a count plus total nanoseconds for
  each hot call, keeps them in memory and turns them into per-layer metrics
  once the operation is over.

Each hook replaces the attribute its caller looks up: ``scenarios`` and
``dynamics`` import names with ``from .x import y``, so the hooks sit on the
importing module (``nambu_dyn.scenarios.expect``), not on the defining one.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from dataclasses import dataclass

import numpy.fft

import nambu_dyn.cli as cli
import nambu_dyn.dynamics as dynamics
import nambu_dyn.scenarios as scenarios
from nambu_dyn.dynamics import Trajectory
from nambu_dyn.quantum import SplitOperatorPropagator

_FIRST_CALL_KEY = "_bench_first_call"


def _first_call_trampoline(*args, **kwargs):
    # Runs with the globals of the function whose code it replaced.
    return _bench_first_call(*args, **kwargs)  # noqa: F821


class StepperMark:
    """Wall-clock time (``time.monotonic_ns``) of the first stepper call."""

    def __init__(self) -> None:
        self.first_ns: int | None = None

    def _mark(self) -> None:
        if self.first_ns is None:
            self.first_ns = time.monotonic_ns()

    def install(self) -> None:
        compile_field = dynamics.compile_vector_field

        def compile_vector_field(polys, var_order):
            fn = compile_field(polys, var_order)
            self._arm_function(inspect.unwrap(fn))
            return fn

        dynamics.compile_vector_field = compile_vector_field

        step = SplitOperatorPropagator.step

        def first_step(prop, *args, **kwargs):
            self._mark()
            SplitOperatorPropagator.step = step
            return step(prop, *args, **kwargs)

        SplitOperatorPropagator.step = first_step

    def _arm_function(self, fn) -> None:
        """Swap the generated function's code for a one-shot trampoline that
        marks the time and restores the original code, so later calls run
        the generated code directly (no wrapper on the 400k-call path)."""
        if fn.__closure__ is not None:
            raise TypeError("compiled field is a closure; cannot arm the stepper mark")
        code, globs = fn.__code__, fn.__globals__

        def first_call(*args, **kwargs):
            self._mark()
            fn.__code__ = code
            globs.pop(_FIRST_CALL_KEY, None)
            return fn(*args, **kwargs)

        globs[_FIRST_CALL_KEY] = first_call
        fn.__code__ = _first_call_trampoline.__code__


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    span_id: int
    parent_id: int | None
    op_id: str
    self_ns: int


class Tracer:
    """Spans for coarse calls, (count, ns) totals for hot calls."""

    def __init__(self, op_id: str) -> None:
        self.op_id = op_id
        self.spans: list[Span] = []
        self.hot: dict[str, list[int]] = {}
        self.hot_by_parent: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # open frames: [name, child_ns, span_id]
        self._next_id = 0

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def span(self, name: str, fn, on_exit=None):
        """Wrap ``fn`` so each call records a span; ``on_exit(bound_args,
        result)`` may add counts derived from the call."""
        sig = inspect.signature(fn) if on_exit is not None else None
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [name, 0, span_id]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                self.spans.append(
                    Span(name, start, end, span_id,
                         parent[2] if parent is not None else None,
                         self.op_id, end - start - frame[1])
                )
            if on_exit is not None:
                on_exit(sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def hot_call(self, name: str, fn, framed: bool = False):
        """Wrap a hot function: count calls and total nanoseconds only.

        ``framed`` opens a frame, so hot calls inside are charged to this
        one, and counts calls per enclosing frame name (``fft@strang_step``).
        The compiled field and observers skip both to keep the wrapper cheap.
        """
        totals = self.hot.setdefault(name, [0, 0])
        by = self.hot_by_parent
        stack = self._stack
        clock = time.perf_counter_ns

        if framed:
            def wrapper(*args, **kwargs):
                parent = stack[-1] if stack else None
                stack.append([name, 0, None])
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    totals[0] += 1
                    totals[1] += elapsed
                    if parent is not None:
                        parent[1] += elapsed
                        key = f"{name}@{parent[0]}"
                        by[key] = by.get(key, 0) + 1
        else:
            def wrapper(*args, **kwargs):
                start = clock()
                result = fn(*args, **kwargs)
                elapsed = clock() - start
                totals[0] += 1
                totals[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                return result

        return functools.wraps(fn)(wrapper)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Replace the looked-up attributes with traced wrappers.  Call
        before ``StepperMark.install`` so the mark wraps the traced step."""
        span, hot = self.span, self.hot_call

        def count_run(args, traj):
            if args.get("method") == "quantum":
                self.add("quantum.rows", len(traj))

        run = scenarios.run_scenario
        scenarios.run_scenario = span("run_scenario", run, count_run)
        cli.run_scenario = span("run_scenario", run, count_run)
        cli.main = span("cli.main", cli.main)
        scenarios.compare = span("compare", scenarios.compare)
        scenarios.build_F = span("build_F", scenarios.build_F)
        dynamics.nambu_bracket_poly = span("nambu_bracket_poly", dynamics.nambu_bracket_poly)

        def count_rk4(args, traj):
            t0 = args.get("t0", 0.0)
            self.add("dynamics.steps", round((traj.t[-1] - t0) / args["dt"]))
            self.add("dynamics.rows", len(traj))

        scenarios.rk4_integrate = span("rk4_integrate", scenarios.rk4_integrate, count_rk4)

        compile_field = span("compile_vector_field", dynamics.compile_vector_field)

        def compile_vector_field(polys, var_order):
            polys = tuple(polys)
            fn = compile_field(polys, var_order)
            self.add("poly.src_bytes", len(fn.source.encode()))
            self.add("poly.flow_monomials", sum(len(p.terms) for p in polys))
            return hot("field", fn)

        dynamics.compile_vector_field = compile_vector_field

        dyn_evaluator = span("compile_evaluator", dynamics.compile_evaluator)
        dynamics.compile_evaluator = lambda poly, order: hot("observer", dyn_evaluator(poly, order))
        scenarios.compile_evaluator = span("compile_evaluator", scenarios.compile_evaluator)

        scenarios.init_gaussian = span("init_gaussian", scenarios.init_gaussian)
        scenarios.absorbing_mask = span("absorbing_mask", scenarios.absorbing_mask)

        def count_propagator(args, _):
            prop = args["self"]
            points = 1
            for n in prop.grid.shape:
                points *= n
            # complex128 arrays: V-half (r2 w1), FFT (r1 w1), T (r2 w1),
            # inverse FFT (r1 w1), V-half (r2 w1); an absorber adds a float64
            # read plus a complex read and write.
            moved = 13 * 16 * points
            if prop.absorber is not None:
                moved += (8 + 2 * 16) * points
            self.counts["quantum.bytes_per_step"] = moved

        SplitOperatorPropagator.__init__ = span(
            "propagator_init", SplitOperatorPropagator.__init__, count_propagator
        )
        SplitOperatorPropagator.step = span(
            "strang_step",
            SplitOperatorPropagator.step,
            lambda args, _: self.add("quantum.strang_steps", args.get("n", 1)),
        )
        scenarios.expect = hot("expect", scenarios.expect, framed=True)
        numpy.fft.fftn = hot("fft", numpy.fft.fftn, framed=True)
        numpy.fft.ifftn = hot("fft", numpy.fft.ifftn, framed=True)

        def count_csv(args, _):
            self.add("dynamics.csv_bytes", os.path.getsize(args["path"]))

        Trajectory.to_csv = span("to_csv", Trajectory.to_csv, count_csv)
        Trajectory.from_csv = classmethod(span("from_csv", Trajectory.from_csv.__func__))

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this operation.  Durations include child
        calls, except ``driver_us`` and ``*.self_s``, which are self time."""
        total: dict[str, int] = {}
        own: dict[str, int] = {}
        calls: dict[str, int] = {}
        for s in self.spans:
            total[s.name] = total.get(s.name, 0) + s.end_ns - s.start_ns
            own[s.name] = own.get(s.name, 0) + s.self_ns
            calls[s.name] = calls.get(s.name, 0) + 1

        def hot(name):
            return self.hot.get(name, [0, 0])

        def per(ns, n, scale):
            return ns / n / scale if n else 0.0

        c = self.counts
        steps = c.get("dynamics.steps", 0)
        field_calls, field_ns = hot("field")
        obs_calls, obs_ns = hot("observer")
        fft_calls, fft_ns = hot("fft")
        expect_calls, expect_ns = hot("expect")
        strang_steps = c.get("quantum.strang_steps", 0)
        qrows = c.get("quantum.rows", 0)
        return {
            "dynamics.rk4_s": total.get("rk4_integrate", 0) / 1e9,
            "dynamics.steps": steps,
            "dynamics.field_calls": field_calls,
            "dynamics.field_calls_per_step": per(field_calls, steps, 1),
            "dynamics.field_us": per(field_ns, field_calls, 1e3),
            "dynamics.driver_us": per(own.get("rk4_integrate", 0), steps, 1e3),
            "dynamics.rows": c.get("dynamics.rows", 0),
            "dynamics.observer_us": per(obs_ns, obs_calls, 1e3),
            "dynamics.csv_write_s": total.get("to_csv", 0) / 1e9,
            "dynamics.csv_read_s": total.get("from_csv", 0) / 1e9,
            "dynamics.csv_bytes": c.get("dynamics.csv_bytes", 0),
            "quantum.strang_steps": strang_steps,
            "quantum.strang_us": per(total.get("strang_step", 0), strang_steps, 1e3),
            "quantum.fft_calls": fft_calls,
            "quantum.fft_us": per(fft_ns, fft_calls, 1e3),
            "quantum.fft_per_step": per(self.hot_by_parent.get("fft@strang_step", 0), strang_steps, 1),
            "quantum.fft_per_row": per(self.hot_by_parent.get("fft@expect", 0), qrows, 1),
            "quantum.bytes_per_step": c.get("quantum.bytes_per_step", 0),
            "quantum.expect_calls": expect_calls,
            "quantum.expect_us": per(expect_ns, expect_calls, 1e3),
            "quantum.row_ms": per(expect_ns, qrows, 1e6),
            "quantum.setup_s": (total.get("propagator_init", 0) + total.get("init_gaussian", 0)
                                + total.get("absorbing_mask", 0)) / 1e9,
            "scenarios.run_s": total.get("run_scenario", 0) / 1e9,
            "scenarios.self_s": own.get("run_scenario", 0) / 1e9,
            "scenarios.compare_s": total.get("compare", 0) / 1e9,
            "poly.compile_s": (total.get("compile_vector_field", 0)
                               + total.get("compile_evaluator", 0)) / 1e9,
            "poly.compile_calls": calls.get("compile_vector_field", 0) + calls.get("compile_evaluator", 0),
            "poly.src_bytes": c.get("poly.src_bytes", 0),
            "poly.flow_monomials": c.get("poly.flow_monomials", 0),
            "brackets.bracket_poly_s": total.get("nambu_bracket_poly", 0) / 1e9,
            "brackets.bracket_poly_calls": calls.get("nambu_bracket_poly", 0),
            "closure.build_F_s": total.get("build_F", 0) / 1e9,
            "cli.self_s": own.get("cli.main", 0) / 1e9,
        }

    def dump(self) -> dict:
        """Everything recorded, for the trace file written at exit."""
        return {
            "op_id": self.op_id,
            "spans": [vars(s) for s in self.spans],
            "hot": {k: {"calls": v[0], "ns": v[1]} for k, v in self.hot.items()},
            "hot_by_parent": self.hot_by_parent,
            "counts": self.counts,
        }
