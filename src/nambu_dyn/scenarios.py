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
    NonFiniteStateError,
    Trajectory,
    compile_classical_field,
    compile_nambu_field,
    integrate,
    rk4_integrate,
)
from .multiplets import MultipletDef, builtin_multiplets
from .poly import Poly, compile_evaluator, p, q, xvar
from .quantum import (
    Grid,
    SplitOperatorPropagator,
    absorbing_mask,
    expect,  # noqa: F401  (bench/hooks.py traces scenarios.expect)
    expectation_row,
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


def model_by_name(name: str) -> ModelSpec:
    key = name.strip().lower().replace("-", "_")
    factories = {
        "harmonic": harmonic_model,
        "cubic": cubic_model,
        "henon_heiles": henon_heiles_model,
    }
    if key not in factories:
        raise ValueError(f"unknown model {name!r}")
    return factories[key]()


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
    if not 0 < dt < math.inf:
        return 1  # not a step: the driver rejects it
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
        for name, values in {"qc": self.qc, "pc": self.pc, "sigmas": self.sigmas or ()}.items():
            for i, value in enumerate(values):
                if not math.isfinite(value):
                    raise ValueError(f"packet parameter {name}[{i}] = {value!r} is not finite")
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

    Each method is set up here and stepped by ``dynamics.integrate``, which
    checks dt, t_end and the stride.  The cubic potential is unbounded
    below, so nambu/classical runs stop once the position variable falls
    below ``q_stop``, flagging the last row 'escaped'; the quantum run stops
    once the absorber has drained more than 1% of the norm ('absorbed').
    Classical images x_i(q, p) are evaluated by generated code on the (q, p)
    rows.  F and G_c are evaluated once, after stepping, on all x rows, also
    on the rows so far of a Nambu or quantum NonFiniteStateError (a
    classical one carries its (q, p) rows).  A quantum run records in its
    meta the largest boundary amplitude |psi| over the rows
    (``boundary_amp_max``) and the largest change of the norm from the first
    row (``norm_loss``).
    """
    if method not in ("nambu", "classical", "quantum"):
        raise ValueError(f"unknown method {method!r}")
    if len(packet.qc) != spec.n_dof:
        raise ValueError(f"packet has {len(packet.qc)} dofs, model needs {spec.n_dof}")
    if t_end is None:
        t_end = default_t_end(spec)
    if record_stride is None:
        record_stride = default_record_stride(spec, dt)
    multiplet = model_multiplet(spec)
    hset = hamiltonian_set(spec)
    x_names = [v.name for v in x_vars(multiplet.layout)]
    meta = {
        "model": spec.model_id,
        "method": method,
        "dt": repr(dt),
        "multiplet": spec.multiplet_name,
    }
    stop = (lambda y: y[0] < q_stop) if spec.model_id == "cubic" else None
    run = dict(record_stride=record_stride, stop=stop, meta=meta)

    def observe(traj: Trajectory) -> None:
        traj.observables = hset.observables(traj.states)
        traj.observable_names = hset.observable_names

    try:
        if method == "nambu":
            state0 = init_nambu_from_packet(spec, packet)
            traj = rk4_integrate(
                compile_nambu_field(hset), state0.values, dt, t_end, columns=x_names, **run
            )
        elif method == "classical":
            y0 = np.empty(2 * spec.n_dof)
            y0[0::2] = packet.qc
            y0[1::2] = packet.pc
            qp_vars = classical_vars(spec.n_dof)
            qp_traj = rk4_integrate(
                compile_classical_field(classical_hamiltonian(spec), spec.n_dof), y0, dt,
                t_end, columns=[v.name for v in qp_vars], **run,
            )
            # Generated code on column views evaluates a Poly on every row at once.
            qp_columns = qp_traj.states.T
            images = np.column_stack([
                compile_evaluator(d, qp_vars)(qp_columns)
                for dof in range(spec.n_dof) for d in multiplet.defs[dof]
            ])
            traj = Trajectory(qp_traj.t, images, x_names, [], [], meta, qp_traj.flags)
        else:
            grid = grid if grid is not None else default_grid(spec)
            sigmas = packet.resolved_sigmas(spec)
            wf = init_gaussian(grid, packet.qc, packet.pc, sigmas, spec.hbar)
            absorber = absorbing_mask(grid) if spec.model_id == "cubic" else None
            prop = SplitOperatorPropagator(
                grid, potential_poly(spec), dt, spec.hbar, spec.masses, absorber
            )
            kinds = ("q", "p", "q2", "p2") if multiplet.N == 4 else ("q2", "p2", "qp_sym")
            checks: list[tuple[float, float]] = []  # (norm, boundary |psi|) per row

            def advance(n: int) -> int:
                prop.step(wf, n)
                return n

            def row() -> list[float]:
                r = expectation_row(wf, kinds)
                checks.append((r.norm, r.boundary_amp))
                return r.values

            if absorber is not None:  # the norm check replaces the cubic position stop
                run["stop"] = lambda _: checks[-1][0] < ABSORBED_NORM_FLOOR
            traj = integrate(advance, row, dt, t_end, x_names, stop_flag="absorbed", **run)
            norms, edges = np.array(checks).T
            traj.meta["boundary_amp_max"] = repr(float(edges.max()))
            traj.meta["norm_loss"] = repr(float(np.abs(norms - norms[0]).max()))
    except NonFiniteStateError as exc:
        if method != "classical":
            observe(exc.trajectory)
        raise
    observe(traj)

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
