"""Time evolution: Nambu and classical flows, the stepping driver, RK4,
drift monitoring.

Each flow is expanded symbolically once, one Poly per state variable, and
compiled to plain arithmetic; that generated code is the only path that
evaluates a flow during a run, and F, G_c once per run on all its rows.
"""

from __future__ import annotations

import array
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .brackets import _check_layout_vars, nambu_bracket_poly
from .native import LONG_MAX
from .poly import Poly, ValidationError, check_count, check_positive, compile_evaluator, p, q
from .poly import compile_vector_field
from .state import Layout, classical_vars, x_vars

__all__ = [
    "HamiltonianSet",
    "Trajectory",
    "NonFiniteStateError",
    "DriftStat",
    "symbolic_flow",
    "compile_nambu_field",
    "compile_classical_field",
    "check_run",
    "integrate",
    "rk4_integrate",
    "conserved_drift",
]


class NonFiniteStateError(RuntimeError):
    """Integration produced NaN/Inf; carries the partial trajectory."""

    def __init__(self, message: str, trajectory: "Trajectory | None" = None):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class HamiltonianSet:
    """The N-1 Nambu Hamiltonians (F, G_1, ..., G_{N-2}) over one layout."""

    F: Poly
    gs: tuple[Poly, ...]
    layout: Layout

    def __post_init__(self) -> None:
        if len(self.gs) != self.layout.N - 2:
            raise ValidationError(
                f"layout N={self.layout.N} needs {self.layout.N - 2} constraints, "
                f"got {len(self.gs)}"
            )
        _check_layout_vars([self.F, *self.gs], self.layout)

    @property
    def hamiltonians(self) -> tuple[Poly, ...]:
        return (self.F, *self.gs)

    @property
    def observable_names(self) -> list[str]:
        return ["F"] + [f"G{c + 1}" for c in range(len(self.gs))]

    def observables(self, rows: np.ndarray) -> np.ndarray:
        """F, G_1, ... on every row of x values, shape (rows, N - 1), by
        generated code on column views: each value as that row alone gives."""
        columns = np.asarray(rows, dtype=np.float64).T
        out = np.empty((columns.shape[1], len(self.hamiltonians)))
        for k, f in enumerate(self.hamiltonians):
            out[:, k] = compile_evaluator(f, x_vars(self.layout))(columns)
        return out


def symbolic_flow(h: HamiltonianSet) -> tuple[Poly, ...]:
    """All flow components expanded into Polys, in state-vector order."""
    layout = h.layout
    return tuple(
        nambu_bracket_poly([Poly.var(v), *h.hamiltonians], layout)
        for v in x_vars(layout)
    )


def compile_nambu_field(h: HamiltonianSet) -> Callable[[np.ndarray], np.ndarray]:
    return compile_vector_field(symbolic_flow(h), x_vars(h.layout))


def compile_classical_field(H: Poly, n_dof: int):
    """(dq, dp) per dof = (dH/dp, -dH/dq), in (q0, p0, q1, p1, ...) order."""
    polys = [d for dof in range(n_dof) for d in (H.partial(p(dof)), -H.partial(q(dof)))]
    return compile_vector_field(polys, classical_vars(n_dof))


# --------------------------------------------------------------------------
# Trajectories
# --------------------------------------------------------------------------


# Rows per block of ``Trajectory.to_csv``: its one copy of the values stays
# this size whatever the row count.
CSV_BLOCK_ROWS = 1024


@dataclass
class Trajectory:
    """Time series of state rows plus observed conserved quantities."""

    t: np.ndarray
    states: np.ndarray
    columns: list[str]
    observables: np.ndarray
    observable_names: list[str]
    meta: dict = field(default_factory=dict)
    flags: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=np.float64)
        self.states = np.asarray(self.states, dtype=np.float64)
        self.observables = np.asarray(self.observables, dtype=np.float64)
        if self.observables.size == 0:
            self.observables = self.observables.reshape(len(self.t), len(self.observable_names))
        if not self.flags:
            self.flags = [""] * len(self.t)

    def __len__(self) -> int:
        return len(self.t)

    def column(self, name: str) -> np.ndarray:
        if name == "t":
            return self.t
        if name in self.columns:
            return self.states[:, self.columns.index(name)]
        if name in self.observable_names:
            return self.observables[:, self.observable_names.index(name)]
        raise KeyError(f"no column {name!r}")

    def to_csv(self, path) -> None:
        """Write the metadata as ``# key = value`` lines, a header and one
        line per row, each row as soon as it is formatted; the rows are
        gathered into one float64 array ``CSV_BLOCK_ROWS`` at a time."""
        has_flags = any(self.flags)
        header = ["t", *self.columns, *self.observable_names]
        if has_flags:
            header.append("flags")
        ends = (f",{flag}\n" for flag in self.flags) if has_flags else itertools.repeat("\n")
        with open(path, "w") as fh:
            fh.writelines(f"# {key} = {value}\n" for key, value in self.meta.items())
            fh.write(",".join(header) + "\n")
            for lo in range(0, len(self.t), CSV_BLOCK_ROWS):
                rows = slice(lo, lo + CSV_BLOCK_ROWS)
                block = np.column_stack([self.t[rows], self.states[rows], self.observables[rows]])
                fh.writelines(",".join(map(repr, row.tolist())) + end for row, end in zip(block, ends))

    @classmethod
    def from_csv(cls, path) -> "Trajectory":
        """Read what ``to_csv`` wrote, each row into one float64 buffer as it
        is read.  A file cut short, with a row missing cells or a last line
        without its newline, and a cell that is not a number raise ValidationError
        naming the path and line; a cell that is not a number is reported
        only if the file has no fault of the other kinds."""
        meta: dict = {}
        values = array.array("d")
        flags: list[str] = []
        header: list[str] | None = None
        bad_cell: str | None = None
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.endswith("\n"):
                    raise ValidationError(f"{path}: line {lineno} ends without a newline")
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if "=" in line:
                        key, _, value = line[1:].partition("=")
                        meta[key.strip()] = value.strip()
                    continue
                cells = line.split(",")
                if header is None:
                    header = [h.strip() for h in cells]
                    has_flags = header[-1] == "flags"
                    names = header[1 : len(header) - 1 if has_flags else len(header)]
                    continue
                if len(cells) != len(header):
                    raise ValidationError(
                        f"{path}: line {lineno} has {len(cells)} cells, expected {len(header)}"
                    )
                if has_flags:
                    flags.append(cells[-1])
                try:
                    values.extend(map(float, cells[: 1 + len(names)]))
                except ValueError:
                    for name, v in zip(["t", *names], cells):
                        try:
                            float(v)
                        except ValueError:
                            bad_cell = bad_cell or (
                                f"{path}: line {lineno}, column {name!r}: {v!r} is not a number"
                            )
                            break
        if header is None:
            raise ValidationError(f"{path}: no CSV header found")
        if bad_cell is not None:
            raise ValidationError(bad_cell)
        n_state = sum(1 for name in names if name != "F" and not name.startswith("G"))
        table = np.frombuffer(values, dtype=np.float64).reshape(-1, 1 + len(names))
        return cls(
            table[:, 0], table[:, 1 : 1 + n_state], names[:n_state],
            table[:, 1 + n_state :], names[n_state:], meta, flags,
        )


class DriftStat(NamedTuple):
    max_abs: float


def conserved_drift(traj: Trajectory) -> dict[str, DriftStat]:
    """Per observable: max |value(t) - value(0)|."""
    values = traj.observables
    drift = np.abs(values - values[:1]).max(axis=0, initial=0.0)
    return {name: DriftStat(float(d)) for name, d in zip(traj.observable_names, drift)}


# --------------------------------------------------------------------------
# The stepping driver and fixed-step RK4
# --------------------------------------------------------------------------


def check_run(dt: float, t_end: float, record_stride: int = 1) -> int:
    """The number of steps of dt from 0 to t_end, after the checks that
    ``integrate`` makes before any step; ValidationError rejects a dt or t_end that is
    not positive and finite, a stride that is not an integer >= 1, a t_end shorter than
    one step and more than ``native.LONG_MAX`` steps."""
    check_positive(dt, "dt")
    check_positive(t_end, "t_end")
    check_count(record_stride, "record_stride")
    steps = np.floor(t_end / dt + 1e-9)
    if steps < 1:
        raise ValidationError(f"t_end = {t_end!r} is shorter than one step of dt = {dt!r}")
    if not steps <= LONG_MAX:
        raise ValidationError(
            f"t_end = {t_end!r} at dt = {dt!r} is {steps:.6g} steps, "
            f"more than the limit of {LONG_MAX} (the RK4 kernel's C long)"
        )
    return int(steps)


def integrate(
    rows: Callable[[list[int]], Iterator[tuple[Sequence[float], tuple[int, str] | None]]],
    y0: Sequence[float],
    dt: float,
    t_end: float,
    columns: Sequence[str],
    record_stride: int = 1,
    meta: Mapping | None = None,
) -> Trajectory:
    """Drive a run from t = 0 to the largest multiple of dt <= t_end, recording rows.

    Rows are recorded at step 0 (``y0``), every ``record_stride`` steps and
    at the last step; the trajectory has no observables.  ``rows(steps)`` is
    called once with the steps of the rows after row 0 and yields one
    ``(row, stop)`` per step, in order: ``stop`` is None, or ``(step, flag)``
    for a last row that ends the run at ``step``, flagged ``flag``.  A
    NonFiniteStateError from ``rows`` leaves with the rows yielded before it
    as its ``trajectory``.  ``check_run`` rejects a bad run before any step,
    and ValidationError more rows than can be allocated.
    """
    n_steps = check_run(dt, t_end, record_stride)
    n_rows = 1 + -(-n_steps // record_stride)
    try:
        states, steps = np.empty((n_rows, len(columns))), np.arange(n_rows)
    except (MemoryError, ValueError):  # numpy's ValueError: larger than any array
        raise ValidationError(
            f"{n_steps} steps at record_stride {record_stride} make {n_rows} rows, "
            "too many to allocate; raise record_stride or shorten the run"
        ) from None
    steps *= min(record_stride, n_steps)
    steps[-1] = n_steps
    states[0] = y0
    k, flag = 1, ""

    def build() -> Trajectory:
        return Trajectory(
            steps[:k] * dt, states[:k], list(columns), np.empty((k, 0)), [],
            dict(meta or {}), [""] * (k - 1) + [flag],
        )

    try:
        for row, stop in rows(steps[1:].tolist()):
            states[k] = row
            k += 1
            if stop is not None:
                steps[k - 1], flag = stop
                break
    except NonFiniteStateError as exc:
        exc.trajectory = build()
        raise
    return build()


def rk4_integrate(
    field: Callable[[np.ndarray], np.ndarray],
    y0,
    dt: float,
    t_end: float,
    record_stride: int = 1,
    stop_below: float | None = None,
    meta: Mapping | None = None,
) -> Trajectory:
    """Classical fixed-step RK4, run by ``integrate``.

    ``field`` comes from ``compile_vector_field`` (or ``compile_nambu_field``,
    ``compile_classical_field``); it is called once at ``y0`` to check its
    output shape, and its generated ``rk4`` kernel then advances one
    recording stride per call.  A step that leaves ``y[0] < stop_below`` ends
    the run on a row flagged ``escaped``; one that leaves the state
    non-finite raises NonFiniteStateError naming it (see ``poly._rk4_c``).
    """
    y = np.array(y0, dtype=np.float64)
    out_shape = np.shape(field(y))
    if out_shape != y.shape:
        raise ValidationError(f"field maps a state of shape {y.shape} to shape {out_shape}")
    kernel = getattr(field, "rk4", None)
    if kernel is None:
        raise TypeError(
            "field has no rk4 kernel; compile it with compile_vector_field, "
            "one polynomial per variable"
        )
    h = float(dt)
    below = -math.inf if stop_below is None else float(stop_below)

    def rows(steps: list[int]):
        state, done = tuple(y.tolist()), 0
        for step in steps:
            state, taken = kernel(state, h, step - done, below)
            done += abs(taken)
            if taken < 0:
                raise NonFiniteStateError(
                    f"state became non-finite at t = {done * dt:.6g} "
                    f"(step {done} of {steps[-1]})"
                )
            yield state, (done, "escaped") if state[0] < below else None

    columns = [f"y{i}" for i in range(y.size)]
    return integrate(rows, y, dt, t_end, columns, record_stride, meta=meta)
