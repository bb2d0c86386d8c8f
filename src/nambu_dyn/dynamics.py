"""Time evolution: Nambu and classical flows, the stepping driver, RK4,
drift monitoring.

Each flow is expanded symbolically once, one Poly per state variable, and
compiled to plain arithmetic; that generated code is the only path that
evaluates a flow during a run, and F, G_c once per run on all its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .brackets import _check_layout_vars, nambu_bracket_poly
from .native import LONG_MAX
from .poly import Poly, compile_evaluator, compile_vector_field, p, q
from .state import Layout, classical_vars, x_vars

__all__ = [
    "HamiltonianSet",
    "Trajectory",
    "NonFiniteStateError",
    "DriftStat",
    "symbolic_flow",
    "compile_nambu_field",
    "compile_classical_field",
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
            raise ValueError(
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
    polys = []
    for dof in range(n_dof):
        polys.append(H.partial(p(dof)))
        polys.append(-H.partial(q(dof)))
    return compile_vector_field(polys, classical_vars(n_dof))


# --------------------------------------------------------------------------
# Trajectories
# --------------------------------------------------------------------------


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
            self.observables = self.observables.reshape(len(self.t), 0)
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
        lines = [f"# {key} = {value}\n" for key, value in self.meta.items()]
        has_flags = any(self.flags)
        header = ["t", *self.columns, *self.observable_names]
        if has_flags:
            header.append("flags")
        lines.append(",".join(header) + "\n")
        for row in range(len(self.t)):
            cells = [repr(float(self.t[row]))]
            cells += [repr(float(v)) for v in self.states[row]]
            cells += [repr(float(v)) for v in self.observables[row]]
            if has_flags:
                cells.append(self.flags[row])
            lines.append(",".join(cells) + "\n")
        with open(path, "w") as fh:
            fh.write("".join(lines))

    @classmethod
    def from_csv(cls, path) -> "Trajectory":
        """Read what ``to_csv`` wrote.  A file cut short, with a row missing
        cells or a last line without its newline, and a cell that is not a
        number raise ValueError naming the path and line."""
        meta: dict = {}
        rows: list[tuple[int, list[str]]] = []
        header: list[str] | None = None
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.endswith("\n"):
                    raise ValueError(f"{path}: line {lineno} ends without a newline")
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
                elif len(cells) != len(header):
                    raise ValueError(
                        f"{path}: line {lineno} has {len(cells)} cells, expected {len(header)}"
                    )
                else:
                    rows.append((lineno, cells))
        if header is None:
            raise ValueError(f"{path}: no CSV header found")
        has_flags = header[-1] == "flags"
        names = header[1 : len(header) - 1 if has_flags else len(header)]
        n_state = sum(1 for name in names if name != "F" and not name.startswith("G"))
        table = np.empty((len(rows), 1 + len(names)))
        for k, (lineno, cells) in enumerate(rows):
            try:
                table[k] = [float(v) for v in cells[: 1 + len(names)]]
            except ValueError:
                for name, v in zip(["t", *names], cells):
                    try:
                        float(v)
                    except ValueError:
                        raise ValueError(
                            f"{path}: line {lineno}, column {name!r}: {v!r} is not a number"
                        ) from None
        flags = [cells[-1] if has_flags else "" for _, cells in rows]
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


def _step_count(dt: float, t0: float, t_end: float) -> int:
    steps = np.floor((t_end - t0) / dt + 1e-9)
    if not steps <= LONG_MAX:
        raise ValueError(
            f"t_end - t0 = {t_end - t0!r} at dt = {dt!r} is {steps:.6g} steps, "
            f"more than the limit of {LONG_MAX} (the RK4 kernel's C long)"
        )
    return int(steps)


def integrate(
    advance: Callable[[int], int],
    row: Callable[[], Sequence[float]],
    dt: float,
    t_end: float,
    columns: Sequence[str],
    t0: float = 0.0,
    record_stride: int = 1,
    stop: Callable[[np.ndarray], bool] | None = None,
    stop_flag: str = "escaped",
    meta: Mapping | None = None,
) -> Trajectory:
    """Drive a run to the largest multiple of dt <= t_end - t0, recording rows.

    ``advance(n)`` takes up to ``n`` steps and returns how many it took, and
    ``row()`` returns the current values, one per column.  Rows are recorded
    at step 0, every ``record_stride`` steps and at the last step; the
    trajectory has no observables.  After every advance, ``stop`` is asked
    about the new ``row()``; when it holds, that row is recorded with
    ``stop_flag`` and the run ends, so row 0 is never flagged.  A
    NonFiniteStateError from ``advance`` leaves with the rows so far as its
    ``trajectory``.  Before any step, ValueError rejects a bad dt, t0, t_end
    or stride, more than ``native.LONG_MAX`` steps, and more rows than can
    be allocated.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt = {dt!r} is not a positive finite step")
    if not -math.inf < t0 < t_end < math.inf:
        raise ValueError(f"need finite t0 < t_end, got t0 = {t0!r}, t_end = {t_end!r}")
    if not isinstance(record_stride, (int, np.integer)) or record_stride < 1:
        raise ValueError(f"record_stride must be an integer >= 1, got {record_stride!r}")
    n_steps = _step_count(dt, t0, t_end)
    n_rows = 1 + -(-n_steps // record_stride)
    try:
        ts, states, flags = np.empty(n_rows), np.empty((n_rows, len(columns))), []
    except (MemoryError, ValueError):  # numpy's ValueError: larger than any array
        raise ValueError(
            f"{n_steps} steps at record_stride {record_stride} make {n_rows} rows, "
            "too many to allocate; raise record_stride or shorten the run"
        ) from None

    def record(step: int, y, flag: str = "") -> None:
        k = len(flags)
        ts[k], states[k] = t0 + step * dt, y
        flags.append(flag)

    def build() -> Trajectory:
        k = len(flags)
        return Trajectory(
            ts[:k], states[:k], list(columns), np.empty((k, 0)), [], dict(meta or {}), flags
        )

    record(0, row())
    step = 0
    try:
        while step < n_steps:
            step += advance(min(record_stride, n_steps - step))
            y = row()
            if stop is not None and stop(y):
                record(step, y, stop_flag)
                break
            if step % record_stride == 0 or step == n_steps:
                record(step, y)
    except NonFiniteStateError as exc:
        exc.trajectory = build()
        raise
    return build()


def rk4_integrate(
    field: Callable[[np.ndarray], np.ndarray],
    y0,
    dt: float,
    t_end: float,
    columns: Sequence[str] | None = None,
    t0: float = 0.0,
    record_stride: int = 1,
    stop: Callable[[np.ndarray], bool] | None = None,
    meta: Mapping | None = None,
) -> Trajectory:
    """Classical fixed-step RK4, run by ``integrate``.

    ``field`` comes from ``compile_vector_field`` (or ``compile_nambu_field``,
    ``compile_classical_field``); it is called once at ``y0`` to check its
    output shape, and its generated ``rk4`` kernel then advances one
    recording stride per call, or one step per call when ``stop`` is set.
    ``integrate`` owns the argument checks, the rows and the ``stop`` rule;
    a non-finite state raises NonFiniteStateError naming the first bad step.
    """
    y = np.array(y0, dtype=np.float64)
    out_shape = np.shape(field(y))
    if out_shape != y.shape:
        raise ValueError(f"field maps a state of shape {y.shape} to shape {out_shape}")
    kernel = getattr(field, "rk4", None)
    if kernel is None:
        raise TypeError(
            "field has no rk4 kernel; compile it with compile_vector_field, "
            "one polynomial per variable"
        )
    if columns is None:
        columns = [f"y{i}" for i in range(y.size)]
    h = float(dt)
    state = tuple(y.tolist())
    done = 0

    def advance(n: int) -> int:
        nonlocal state, done
        if stop is not None:
            n = 1
        after = kernel(state, h, n)
        # A sum with a non-finite term is non-finite, and this costs far less
        # per call than np.isfinite, which counts when ``stop`` makes every
        # call one step; a finite state whose sum overflows only costs the
        # exact replay below.
        if not math.isfinite(sum(after)):
            # Polynomial arithmetic never turns inf or NaN finite again, so
            # replaying the stride one step at a time finds the first bad step.
            for k in range(done + 1, done + n + 1):
                state = kernel(state, h, 1)
                if not np.all(np.isfinite(state)):
                    raise NonFiniteStateError(
                        f"state became non-finite at t = {t0 + k * dt:.6g} "
                        f"(step {k} of {_step_count(dt, t0, t_end)})"
                    )
        state = after
        done += n
        return n

    return integrate(
        advance, lambda: np.array(state), dt, t_end, columns,
        t0, record_stride, stop, meta=meta,
    )
