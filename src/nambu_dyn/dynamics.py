"""Time evolution: Nambu and classical flows, RK4, drift monitoring.

The Nambu flow reference path evaluates one bracket per component; time
stepping uses flows expanded symbolically once and compiled to plain
arithmetic, which is the same polynomial evaluated faster.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .brackets import _check_layout_vars, nambu_bracket, nambu_bracket_poly, _partial
from .poly import Poly, VarId, compile_evaluator, compile_vector_field, p, q, xvar
from .state import Layout, NambuState, classical_vars, x_vars

__all__ = [
    "HamiltonianSet",
    "Trajectory",
    "NonFiniteStateError",
    "DriftStat",
    "nambu_vector_field",
    "symbolic_flow",
    "compile_nambu_field",
    "classical_vector_field",
    "compile_classical_field",
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

    def observable_polys(self) -> list[tuple[str, Poly]]:
        names = ["F"] + [f"G{c + 1}" for c in range(len(self.gs))]
        return list(zip(names, self.hamiltonians))


def nambu_vector_field(h: HamiltonianSet, s) -> np.ndarray:
    """d(x_i^(a))/dt = {x_i^(a), F, G_1, ..., G_{N-2}}, one bracket per slot."""
    layout = h.layout
    if isinstance(s, NambuState) and s.layout != layout:
        raise ValueError(f"state layout {s.layout} != Hamiltonian layout {layout}")
    out = np.empty(layout.size, dtype=np.float64)
    k = 0
    for dof in range(layout.n_dof):
        for i in range(1, layout.N + 1):
            fns = [Poly.var(xvar(i, dof)), *h.hamiltonians]
            out[k] = nambu_bracket(fns, s, layout)
            k += 1
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


def _infer_n_dof(H: Poly) -> int:
    dofs = {v.dof for v in H.variables()}
    return (max(dofs) + 1) if dofs else 1


def classical_vector_field(H: Poly, point, n_dof: int | None = None) -> np.ndarray:
    """(dq, dp) per dof = (dH/dp, -dH/dq), in (q0, p0, q1, p1, ...) order."""
    if n_dof is None:
        n_dof = len(point) // 2 if not isinstance(point, Mapping) else _infer_n_dof(H)
    if not isinstance(point, Mapping):
        values = np.asarray(point, dtype=np.float64)
        point = dict(zip(classical_vars(n_dof), values.tolist()))
    out = np.empty(2 * n_dof, dtype=np.float64)
    for dof in range(n_dof):
        out[2 * dof] = _partial(H, p(dof)).eval(point)
        out[2 * dof + 1] = -_partial(H, q(dof)).eval(point)
    return out


def compile_classical_field(H: Poly, n_dof: int | None = None):
    if n_dof is None:
        n_dof = _infer_n_dof(H)
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

    @property
    def all_columns(self) -> list[str]:
        return ["t", *self.columns, *self.observable_names]

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv_text())

    def to_csv_text(self) -> str:
        out = io.StringIO()
        for key, value in self.meta.items():
            out.write(f"# {key} = {value}\n")
        has_flags = any(self.flags)
        header = ["t", *self.columns, *self.observable_names]
        if has_flags:
            header.append("flags")
        out.write(",".join(header) + "\n")
        for row in range(len(self.t)):
            cells = [repr(float(self.t[row]))]
            cells += [repr(float(v)) for v in self.states[row]]
            cells += [repr(float(v)) for v in self.observables[row]]
            if has_flags:
                cells.append(self.flags[row])
            out.write(",".join(cells) + "\n")
        return out.getvalue()

    @classmethod
    def from_csv(cls, path, n_observables: int | None = None) -> "Trajectory":
        meta: dict = {}
        rows: list[list[str]] = []
        header: list[str] | None = None
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if "=" in line:
                        key, _, value = line[1:].partition("=")
                        meta[key.strip()] = value.strip()
                    continue
                if header is None:
                    header = [h.strip() for h in line.split(",")]
                else:
                    rows.append(line.split(","))
        if header is None:
            raise ValueError(f"{path}: no CSV header found")
        has_flags = header[-1] == "flags"
        value_names = header[1 : len(header) - 1 if has_flags else len(header)]
        if n_observables is None:
            n_observables = sum(
                1 for name in value_names if name == "F" or name.startswith("G")
            )
        n_state = len(value_names) - n_observables
        t = np.array([float(r[0]) for r in rows])
        states = np.array(
            [[float(v) for v in r[1 : 1 + n_state]] for r in rows]
        ).reshape(len(rows), n_state)
        observables = np.array(
            [[float(v) for v in r[1 + n_state : 1 + len(value_names)]] for r in rows]
        ).reshape(len(rows), n_observables)
        flags = [r[-1] if has_flags else "" for r in rows]
        return cls(
            t,
            states,
            value_names[:n_state],
            observables,
            value_names[n_state:],
            meta,
            flags,
        )


class DriftStat(NamedTuple):
    max_abs: float
    relative: float


def conserved_drift(traj: Trajectory) -> dict[str, DriftStat]:
    """Per observer: max |value(t) - value(0)| and the same relative to value(0)."""
    out: dict[str, DriftStat] = {}
    for k, name in enumerate(traj.observable_names):
        series = traj.observables[:, k]
        ref = float(series[0])
        max_abs = float(np.max(np.abs(series - ref))) if len(series) else 0.0
        if ref != 0.0:
            rel = max_abs / abs(ref)
        else:
            rel = 0.0 if max_abs == 0.0 else float("inf")
        out[name] = DriftStat(max_abs, rel)
    return out


# --------------------------------------------------------------------------
# Fixed-step RK4
# --------------------------------------------------------------------------


def _normalize_observers(observers, var_order):
    named: list[tuple[str, Callable]] = []
    for entry in observers or []:
        if isinstance(entry, tuple):
            name, obs = entry
        else:
            name, obs = str(entry), entry
        if isinstance(obs, Poly):
            if var_order is None:
                raise ValueError("Poly observers need var_order")
            named.append((name, compile_evaluator(obs, var_order)))
        else:
            named.append((name, obs))
    return named


def rk4_integrate(
    field: Callable[[np.ndarray], np.ndarray],
    y0,
    dt: float,
    t_end: float,
    observers=None,
    var_order: Sequence[VarId] | None = None,
    columns: Sequence[str] | None = None,
    t0: float = 0.0,
    record_stride: int = 1,
    stop: Callable[[np.ndarray], bool] | None = None,
    stop_flag: str = "escaped",
    meta: Mapping | None = None,
) -> Trajectory:
    """Classical fixed-step RK4 up to the largest multiple of dt <= t_end.

    ``field`` comes from ``compile_vector_field`` (or ``compile_nambu_field``,
    ``compile_classical_field``); it is called once at ``y0`` to check its
    output shape, and its generated ``rk4`` kernel then advances one
    recording stride per call, or one step per call when ``stop`` is set.
    Observers are evaluated at every recorded row.  If ``stop`` fires, the
    triggering row is recorded with ``stop_flag`` and integration ends.  A
    non-finite state raises NonFiniteStateError carrying the rows so far.
    """
    if dt <= 0 or t_end <= t0:
        raise ValueError("need dt > 0 and t_end > t0")
    if record_stride < 1:
        raise ValueError(f"record_stride must be >= 1, got {record_stride}")
    named_obs = _normalize_observers(observers, var_order)
    y = np.array(y0, dtype=np.float64)
    dim = y.size
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
        if var_order is not None:
            columns = [v.name for v in var_order]
        else:
            columns = [f"y{i}" for i in range(dim)]

    n_steps = int(np.floor((t_end - t0) / dt + 1e-9))
    ts: list[float] = []
    rows: list[np.ndarray] = []
    obs_rows: list[list[float]] = []
    flags: list[str] = []

    def record(step: int, flag: str = "") -> None:
        ts.append(t0 + step * dt)
        rows.append(y.copy())
        obs_rows.append([fn(y) for _, fn in named_obs])
        flags.append(flag)

    def build() -> Trajectory:
        return Trajectory(
            np.array(ts),
            np.array(rows).reshape(len(rows), dim),
            list(columns),
            np.array(obs_rows).reshape(len(obs_rows), len(named_obs)),
            [name for name, _ in named_obs],
            dict(meta or {}),
            flags,
        )

    record(0)
    h = float(dt)
    state = tuple(y.tolist())
    step = 0
    while step < n_steps:
        n = 1 if stop is not None else min(record_stride, n_steps - step)
        after = kernel(state, h, n)
        y = np.array(after)
        if not np.all(np.isfinite(y)):
            # Polynomial arithmetic never turns inf or NaN finite again, so
            # replaying the stride one step at a time finds the first bad step.
            for k in range(1, n + 1):
                state = kernel(state, h, 1)
                if not np.all(np.isfinite(state)):
                    raise NonFiniteStateError(
                        f"state became non-finite at t = {t0 + (step + k) * dt:.6g} "
                        f"(step {step + k} of {n_steps})",
                        trajectory=build(),
                    )
        state = after
        step += n
        if stop is not None and stop(y):
            record(step, stop_flag)
            break
        if step % record_stride == 0 or step == n_steps:
            record(step)
    return build()
