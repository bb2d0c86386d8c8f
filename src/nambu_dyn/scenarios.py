"""Built-in models, packet initial conditions, and experiment orchestration.

Three propagation methods share one trajectory schema
(t, x1_0..xN_{n-1}, F, G1, ...): the Nambu flow evolves the multiplet
directly, the classical run emits the classical images x_i(q, p), and the
quantum run emits grid expectation values in the same slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .closure import ClosureMode, build_F
from .dynamics import (
    HamiltonianSet,
    Trajectory,
    compile_classical_field,
    compile_nambu_field,
    rk4_integrate,
)
from .multiplets import MultipletDef, builtin_multiplets
from .poly import Poly, compile_evaluator, eval_arrays, p, q, xvar
from .quantum import (
    Grid,
    SplitOperatorPropagator,
    WaveFunction,
    absorbing_mask,
    expect,
    init_gaussian,
)
from .state import NambuState, classical_vars, x_vars

__all__ = [
    "ModelSpec",
    "PacketSpec",
    "CompareStat",
    "harmonic_model",
    "cubic_model",
    "henon_heiles_model",
    "model_by_name",
    "potential_poly",
    "classical_hamiltonian",
    "model_multiplet",
    "hamiltonian_set",
    "default_grid",
    "default_t_end",
    "default_record_stride",
    "init_nambu_from_packet",
    "run_scenario",
    "compare",
    "mode_energy_series",
]

DEFAULT_Q_STOP = -15.0
ABSORBED_NORM_FLOOR = 0.99
# Output spacing in time units; coarse enough to keep the long runs small,
# fine enough to resolve every oscillation the models exhibit.
DEFAULT_OUTPUT_INTERVAL = {"harmonic": 0.01, "cubic": 0.01, "henon_heiles": 0.1}
DEFAULT_T_END = {"harmonic": 20.0, "cubic": 40.0, "henon_heiles": 100.0}


@dataclass(frozen=True)
class ModelSpec:
    """One of the built-in models with its physical parameters."""

    model_id: str
    masses: tuple[float, ...]
    omegas: tuple[float, ...]
    g: float = 0.0
    lam: float = 0.0
    hbar: float = 1.0
    multiplet_name: str = "quartet"
    closure: ClosureMode = ClosureMode.ZERO_CUMULANT

    def __post_init__(self) -> None:
        if self.model_id not in ("harmonic", "cubic", "henon_heiles"):
            raise ValueError(f"unknown model {self.model_id!r}")
        if len(self.masses) != len(self.omegas):
            raise ValueError("masses and omegas must have equal length")
        params = {"g": self.g, "lam": self.lam, "hbar": self.hbar}
        params.update((f"masses[{i}]", m) for i, m in enumerate(self.masses))
        params.update((f"omegas[{i}]", w) for i, w in enumerate(self.omegas))
        for name, value in params.items():
            if not math.isfinite(value):
                raise ValueError(f"model parameter {name} = {value!r} is not finite")
        for m, w in zip(self.masses, self.omegas):
            if m <= 0 or w <= 0:
                raise ValueError("masses and frequencies must be positive")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")

    @property
    def n_dof(self) -> int:
        return len(self.masses)


def harmonic_model(
    m: float = 1.0,
    omega: float = 1.0,
    hbar: float = 1.0,
    multiplet: str = "triplet",
) -> ModelSpec:
    return ModelSpec("harmonic", (m,), (omega,), hbar=hbar, multiplet_name=multiplet)


def cubic_model(
    m: float = 1.0, omega: float = 1.0, g: float = 0.3, hbar: float = 1.0
) -> ModelSpec:
    return ModelSpec("cubic", (m,), (omega,), g=g, hbar=hbar)


def henon_heiles_model(
    m1: float = 1.0,
    m2: float = 1.0,
    omega1: float = 1.0,
    omega2: float = 1.1,
    lam: float = -0.11,
    hbar: float = 1.0,
) -> ModelSpec:
    return ModelSpec("henon_heiles", (m1, m2), (omega1, omega2), lam=lam, hbar=hbar)


def model_by_name(name: str, **kwargs) -> ModelSpec:
    key = name.strip().lower().replace("-", "_")
    factories = {
        "harmonic": harmonic_model,
        "cubic": cubic_model,
        "henon_heiles": henon_heiles_model,
    }
    if key not in factories:
        raise ValueError(f"unknown model {name!r}")
    return factories[key](**kwargs)


def potential_poly(spec: ModelSpec) -> Poly:
    """The model potential over position variables q0, q1, ..."""
    out = Poly.zero()
    for dof in range(spec.n_dof):
        qv = Poly.var(q(dof))
        out = out + 0.5 * spec.masses[dof] * spec.omegas[dof] ** 2 * qv * qv
    if spec.model_id == "cubic":
        qv = Poly.var(q(0))
        out = out + (spec.g / 3.0) * qv**3
    elif spec.model_id == "henon_heiles":
        out = out + spec.lam * Poly.var(q(0)) * Poly.var(q(1)) ** 2
    return out


def classical_hamiltonian(spec: ModelSpec) -> Poly:
    out = potential_poly(spec)
    for dof in range(spec.n_dof):
        pv = Poly.var(p(dof))
        out = out + (1.0 / (2.0 * spec.masses[dof])) * pv * pv
    return out


def model_multiplet(spec: ModelSpec) -> MultipletDef:
    return builtin_multiplets()[spec.multiplet_name].with_n_dof(spec.n_dof)


def hamiltonian_set(spec: ModelSpec) -> HamiltonianSet:
    m = model_multiplet(spec)
    F = build_F(potential_poly(spec), m, spec.closure, masses=spec.masses)
    return HamiltonianSet(F, m.summed_constraints(), m.layout)


def default_grid(spec: ModelSpec) -> Grid:
    if spec.model_id == "harmonic":
        return Grid.make_1d(-10.0, 10.0, 2048)
    if spec.model_id == "cubic":
        return Grid.make_1d(-30.0, 15.0, 4096)
    return Grid.make_2d((-8.0, 8.0, 256), (-8.0, 8.0, 256))


def default_t_end(spec: ModelSpec) -> float:
    return DEFAULT_T_END[spec.model_id]


def default_record_stride(spec: ModelSpec, dt: float) -> int:
    return max(1, int(round(DEFAULT_OUTPUT_INTERVAL[spec.model_id] / dt)))


@dataclass(frozen=True)
class PacketSpec:
    """Initial Gaussian packet per dof: centers, momenta, widths."""

    qc: tuple[float, ...]
    pc: tuple[float, ...]
    sigmas: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.qc) != len(self.pc):
            raise ValueError("qc and pc must have equal length")
        if self.sigmas is not None:
            if len(self.sigmas) != len(self.qc):
                raise ValueError("sigmas must match the number of dofs")
            for s in self.sigmas:
                if s < 0:
                    raise ValueError("sigma must be non-negative")

    @classmethod
    def make(cls, qc, pc, sigma=None) -> "PacketSpec":
        qc_t = tuple(float(v) for v in np.atleast_1d(qc))
        pc_t = tuple(float(v) for v in np.atleast_1d(pc))
        sig_t = None
        if sigma is not None:
            sig_t = tuple(float(v) for v in np.atleast_1d(sigma))
            if len(sig_t) == 1 and len(qc_t) > 1:
                sig_t = sig_t * len(qc_t)
        return cls(qc_t, pc_t, sig_t)

    def resolved_sigmas(self, spec: ModelSpec) -> tuple[float, ...]:
        """Explicit widths, defaulting to sqrt(hbar / 2 m w) per dof."""
        if self.sigmas is not None:
            return self.sigmas
        return tuple(
            math.sqrt(spec.hbar / (2.0 * m * w))
            for m, w in zip(spec.masses, spec.omegas)
        )


def init_nambu_from_packet(spec: ModelSpec, packet: PacketSpec) -> NambuState:
    """Multiplet values of the initial Gaussian packet.

    Quartet per dof: (qc, pc, qc^2 + s^2, pc^2 + hbar^2/(4 s^2));
    triplet: (qc^2 + s^2, pc^2 + hbar^2/(4 s^2), qc pc).  A width of zero
    gives the classical image.
    """
    if len(packet.qc) != spec.n_dof:
        raise ValueError(f"packet has {len(packet.qc)} dofs, model needs {spec.n_dof}")
    sigmas = packet.resolved_sigmas(spec)
    multiplet = model_multiplet(spec)
    values = []
    for dof in range(spec.n_dof):
        qc, pc, s = packet.qc[dof], packet.pc[dof], sigmas[dof]
        s2 = s * s
        p2_fluct = spec.hbar**2 / (4.0 * s2) if s2 > 0 else 0.0
        if multiplet.N == 4:
            values.extend((qc, pc, qc * qc + s2, pc * pc + p2_fluct))
        else:
            values.extend((qc * qc + s2, pc * pc + p2_fluct, qc * pc))
    return NambuState(np.array(values), multiplet.layout)


# --------------------------------------------------------------------------
# Scenario runs
# --------------------------------------------------------------------------


def _x_image_assignment(
    multiplet: MultipletDef, states: np.ndarray
) -> tuple[np.ndarray, dict]:
    """Classical images x_i(q, p) for every row of a (q, p) trajectory."""
    n_rows = states.shape[0]
    images = np.empty((n_rows, multiplet.layout.size))
    col = 0
    for dof in range(multiplet.n_dof):
        arrays = {
            q(dof): states[:, 2 * dof],
            p(dof): states[:, 2 * dof + 1],
        }
        for d in multiplet.defs[dof]:
            images[:, col] = eval_arrays(d, arrays)
            col += 1
    assignment = {
        v: images[:, k] for k, v in enumerate(x_vars(multiplet.layout))
    }
    return images, assignment


def _quantum_row(wf: WaveFunction, multiplet: MultipletDef) -> list[float]:
    row: list[float] = []
    for axis in range(multiplet.n_dof):
        if multiplet.N == 4:
            row.extend(
                (
                    expect(wf, "q", axis),
                    expect(wf, "p", axis),
                    expect(wf, "q2", axis),
                    expect(wf, "p2", axis),
                )
            )
        else:
            row.extend(
                (
                    expect(wf, "q2", axis),
                    expect(wf, "p2", axis),
                    expect(wf, "qp_sym", axis),
                )
            )
    return row


def run_scenario(
    spec: ModelSpec,
    packet: PacketSpec,
    method: str,
    dt: float = 1e-3,
    t_end: float | None = None,
    out_path=None,
    record_stride: int | None = None,
    q_stop: float = DEFAULT_Q_STOP,
    grid: Grid | None = None,
) -> Trajectory:
    """Produce one trajectory (nambu, classical, or quantum) for a model.

    The cubic potential is unbounded below, so nambu/classical runs are
    truncated once the position variable falls below ``q_stop`` and the
    last row is flagged 'escaped'; the quantum run stops once the absorber
    has drained more than 1% of the norm.
    """
    if method not in ("nambu", "classical", "quantum"):
        raise ValueError(f"unknown method {method!r}")
    if t_end is None:
        t_end = default_t_end(spec)
    if record_stride is None:
        record_stride = default_record_stride(spec, dt)
    multiplet = model_multiplet(spec)
    hset = hamiltonian_set(spec)
    layout = multiplet.layout
    x_names = [v.name for v in x_vars(layout)]
    meta = {
        "model": spec.model_id,
        "method": method,
        "dt": repr(dt),
        "multiplet": spec.multiplet_name,
    }

    if method == "nambu":
        state0 = init_nambu_from_packet(spec, packet)
        field = compile_nambu_field(hset)
        stop = None
        if spec.model_id == "cubic":
            stop = lambda y: y[0] < q_stop  # noqa: E731
        traj = rk4_integrate(
            field,
            state0.values,
            dt,
            t_end,
            observers=hset.observable_polys(),
            var_order=x_vars(layout),
            columns=x_names,
            record_stride=record_stride,
            stop=stop,
            meta=meta,
        )
    elif method == "classical":
        H = classical_hamiltonian(spec)
        field = compile_classical_field(H, spec.n_dof)
        y0 = np.empty(2 * spec.n_dof)
        y0[0::2] = packet.qc
        y0[1::2] = packet.pc
        stop = None
        if spec.model_id == "cubic":
            stop = lambda y: y[0] < q_stop  # noqa: E731
        qp_traj = rk4_integrate(
            field,
            y0,
            dt,
            t_end,
            columns=[v.name for v in classical_vars(spec.n_dof)],
            record_stride=record_stride,
            stop=stop,
            meta=meta,
        )
        images, assignment = _x_image_assignment(multiplet, qp_traj.states)
        obs_names = [name for name, _ in hset.observable_polys()]
        observables = np.column_stack(
            [eval_arrays(poly, assignment) for _, poly in hset.observable_polys()]
        )
        traj = Trajectory(
            qp_traj.t, images, x_names, observables, obs_names, meta, qp_traj.flags
        )
    else:
        grid = grid if grid is not None else default_grid(spec)
        sigmas = packet.resolved_sigmas(spec)
        wf = init_gaussian(grid, packet.qc, packet.pc, sigmas, spec.hbar)
        absorber = absorbing_mask(grid) if spec.model_id == "cubic" else None
        prop = SplitOperatorPropagator(
            grid, potential_poly(spec), dt, spec.hbar, spec.masses, absorber
        )
        observers = [
            (name, compile_evaluator(poly, x_vars(layout)))
            for name, poly in hset.observable_polys()
        ]
        n_steps = int(np.floor(t_end / dt + 1e-9))
        ts, rows, obs_rows, flags = [], [], [], []

        def record(step: int, flag: str = "") -> None:
            row = _quantum_row(wf, multiplet)
            ts.append(step * dt)
            rows.append(row)
            y = np.asarray(row)
            obs_rows.append([fn(y) for _, fn in observers])
            flags.append(flag)

        record(0)
        step = 0
        while step < n_steps:
            chunk = min(record_stride, n_steps - step)
            prop.step(wf, chunk)
            step += chunk
            if absorber is not None and wf.norm() < ABSORBED_NORM_FLOOR:
                record(step, "absorbed")
                break
            record(step)
        traj = Trajectory(
            np.array(ts),
            np.array(rows),
            x_names,
            np.array(obs_rows),
            [name for name, _ in observers],
            meta,
            flags,
        )

    if out_path is not None:
        traj.to_csv(out_path)
    return traj


# --------------------------------------------------------------------------
# Trajectory comparison
# --------------------------------------------------------------------------


class CompareStat(NamedTuple):
    max_abs: float
    rms: float
    passed: bool | None


def compare(
    traj_a: Trajectory,
    traj_b: Trajectory,
    columns: Sequence[str],
    tolerance: float | None = None,
) -> dict[str, CompareStat]:
    """Per-column max-abs and RMS difference over the common time range.

    Column pairs may be given as a single shared name or "name_a/name_b".
    Unequal time grids are aligned by linear interpolation of the second
    trajectory onto the first.
    """
    ta, tb = traj_a.t, traj_b.t
    same_grid = len(ta) == len(tb) and np.allclose(ta, tb, rtol=0, atol=1e-12)
    if not same_grid:
        lo, hi = max(ta[0], tb[0]), min(ta[-1], tb[-1])
        if hi <= lo:
            raise ValueError("trajectories cover disjoint time ranges")
        mask = (ta >= lo) & (ta <= hi)
    out: dict[str, CompareStat] = {}
    for column in columns:
        if "/" in column:
            name_a, name_b = column.split("/", 1)
        else:
            name_a = name_b = column
        va = traj_a.column(name_a)
        vb = traj_b.column(name_b)
        if same_grid:
            diff = va - vb
        else:
            diff = va[mask] - np.interp(ta[mask], tb, vb)
        max_abs = float(np.max(np.abs(diff)))
        rms = float(np.sqrt(np.mean(diff**2)))
        passed = (max_abs < tolerance) if tolerance is not None else None
        out[column] = CompareStat(max_abs, rms, passed)
    return out


def mode_energy_series(traj: Trajectory, spec: ModelSpec) -> np.ndarray:
    """Harmonic mode energies per dof from a trajectory's x columns,
    E_a = x4^(a)/2m_a + m_a w_a^2 x3^(a)/2; shape (rows, n_dof)."""
    if spec.multiplet_name != "quartet":
        raise ValueError("mode energies need the quartet layout")
    out = np.empty((len(traj), spec.n_dof))
    for dof in range(spec.n_dof):
        x3 = traj.column(xvar(3, dof).name)
        x4 = traj.column(xvar(4, dof).name)
        m, w = spec.masses[dof], spec.omegas[dof]
        out[:, dof] = x4 / (2.0 * m) + 0.5 * m * w**2 * x3
    return out
