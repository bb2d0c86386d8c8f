"""Built-in models, packet initial conditions, and experiment orchestration.

Three propagation methods share one trajectory schema
(t, x1_0..xN_{n-1}, F, G1, ...): the Nambu flow evolves the multiplet
directly, the classical run emits the classical images x_i(q, p), and the
quantum run emits grid expectation values in the same slots.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .closure import ClosureMode, build_F
from .dynamics import (
    HamiltonianSet,
    NonFiniteStateError,
    Trajectory,
    check_run,
    compile_classical_field,
    compile_nambu_field,
    integrate,
    rk4_integrate,
)
from .multiplets import MultipletDef, builtin_multiplets
from .poly import Poly, compile_evaluator, p, q, xvar
from .quantum import (
    Grid,
    RowPass,
    SplitOperatorPropagator,
    absorbing_mask,
    choose_split_step,
    expect,  # noqa: F401  (bench/hooks.py traces scenarios.expect)
    init_gaussian,
)
from .state import classical_vars, x_vars

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
# Bytes of states per batched row pass: 4 rows at 2048 points, 1 on 128^2 grids.
ROW_BLOCK_BYTES = 128 * 1024
# Output spacing in time units; coarse enough to keep the long runs small,
# fine enough to resolve every oscillation the models exhibit.
DEFAULT_OUTPUT_INTERVAL = {"harmonic": 0.01, "cubic": 0.01, "henon_heiles": 0.1}
DEFAULT_T_END = {"harmonic": 20.0, "cubic": 40.0, "henon_heiles": 100.0}


@dataclass(frozen=True)
class ModelSpec:
    """One of the built-in models with its physical parameters; masses and
    omegas are kept as tuples of floats, so equal specs share one build."""

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
        if not 0 < len(self.masses) == len(self.omegas):
            raise ValueError("a model needs one or more dofs, each with a mass and an omega")
        params = {"g": self.g, "lam": self.lam, "hbar": self.hbar}
        params.update((f"masses[{i}]", m) for i, m in enumerate(self.masses))
        params.update((f"omegas[{i}]", w) for i, w in enumerate(self.omegas))
        for name, value in params.items():
            if isinstance(value, bool):
                raise TypeError(f"model parameter {name} = {value!r} is a bool, not a number")
            if not math.isfinite(value):  # a non-number raises TypeError here
                raise ValueError(f"model parameter {name} = {value!r} is not finite")
        object.__setattr__(self, "masses", tuple(map(float, self.masses)))
        object.__setattr__(self, "omegas", tuple(map(float, self.omegas)))
        if min(*self.masses, *self.omegas, self.hbar) <= 0:
            raise ValueError("masses, frequencies and hbar must be positive")
        if self.model_id == "henon_heiles" and self.n_dof != 2:
            raise ValueError(f"henon_heiles needs 2 dofs, got {self.n_dof}")
        for name, owner in (("g", "cubic"), ("lam", "henon_heiles")):
            if getattr(self, name) != 0 and self.model_id != owner:
                raise ValueError(f"{name} applies only to the {owner} model, not {self.model_id}")
        if self.multiplet_name not in builtin_multiplets():
            raise ValueError(f"unknown multiplet {self.multiplet_name!r}")
        if self.multiplet_name == "triplet" and self.model_id != "harmonic":
            raise ValueError(f"the triplet hosts only the harmonic model, not {self.model_id}")
        if not isinstance(self.closure, ClosureMode):
            raise ValueError(f"closure = {self.closure!r} is not a ClosureMode")

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
    factories = {"harmonic": harmonic_model, "cubic": cubic_model,
                 "henon_heiles": henon_heiles_model}
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
        out = out + (spec.g / 3.0) * Poly.var(q(0)) ** 3
    elif spec.model_id == "henon_heiles":
        out = out + spec.lam * Poly.var(q(0)) * Poly.var(q(1)) ** 2
    return out


def classical_hamiltonian(spec: ModelSpec) -> Poly:
    out = potential_poly(spec)
    for dof in range(spec.n_dof):
        pv = Poly.var(p(dof))
        out = out + (1.0 / (2.0 * spec.masses[dof])) * pv * pv
    return out


# A process builds one or two specs; lru_cache's default 128 entries bound both caches.
@functools.lru_cache
def model_multiplet(spec: ModelSpec) -> MultipletDef:
    return builtin_multiplets()[spec.multiplet_name].with_n_dof(spec.n_dof)


@functools.lru_cache
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
            if min(self.sigmas) < 0:
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


def init_nambu_from_packet(spec: ModelSpec, packet: PacketSpec) -> np.ndarray:
    """Multiplet values of the initial Gaussian packet, as the flat state vector.

    Quartet per dof: (qc, pc, qc^2 + s^2, pc^2 + hbar^2/(4 s^2));
    triplet: (qc^2 + s^2, pc^2 + hbar^2/(4 s^2), qc pc).  A width of zero
    gives the classical image.
    """
    if len(packet.qc) != spec.n_dof:
        raise ValueError(f"packet has {len(packet.qc)} dofs, model needs {spec.n_dof}")
    multiplet = model_multiplet(spec)
    values = []
    for qc, pc, s in zip(packet.qc, packet.pc, packet.resolved_sigmas(spec)):
        s2 = s * s
        p2_fluct = spec.hbar**2 / (4.0 * s2) if s2 > 0 else 0.0
        if multiplet.N == 4:
            values.extend((qc, pc, qc * qc + s2, pc * pc + p2_fluct))
        else:
            values.extend((qc * qc + s2, pc * pc + p2_fluct, qc * pc))
    return np.array(values, dtype=np.float64)


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
    q_stop: float | None = None,
    grid: Grid | None = None,
) -> Trajectory:
    """Produce one trajectory (nambu, classical, or quantum) for a model.

    Each method's runner steps it through ``dynamics.integrate``, which
    checks dt, t_end and the stride.  The cubic potential is unbounded
    below, so nambu/classical runs stop once the position variable falls
    below ``q_stop`` (None: ``DEFAULT_Q_STOP``; -inf: never), flagging the
    last row 'escaped'; the quantum run stops once the absorber has drained
    more than 1% of the norm ('absorbed').  A NaN ``q_stop``, and any
    ``q_stop`` for a run without a position stop (every other model, every
    quantum run), raise ValueError.  ``_observed`` adds F and G_c after
    stepping, also to the rows so far of a NonFiniteStateError.
    """
    if method not in ("nambu", "classical", "quantum"):
        raise ValueError(f"unknown method {method!r}")
    if q_stop is not None:
        if math.isnan(q_stop):
            raise ValueError(f"q_stop = {q_stop!r} is not a number; -inf means no escape stop")
        if spec.model_id != "cubic" or method == "quantum":
            raise ValueError(
                f"q_stop = {q_stop!r} does not apply to a {spec.model_id} {method} run: "
                "only cubic nambu and classical runs have a position stop"
            )
    if len(packet.qc) != spec.n_dof:
        raise ValueError(f"packet has {len(packet.qc)} dofs, model needs {spec.n_dof}")
    if t_end is None:
        t_end = default_t_end(spec)
    if record_stride is None:
        record_stride = default_record_stride(spec, dt)
    if spec.model_id == "cubic" and q_stop is None:
        q_stop = DEFAULT_Q_STOP
    meta = {"model": spec.model_id, "method": method, "dt": repr(dt),
            "multiplet": spec.multiplet_name}
    try:
        if method == "quantum":
            grid = grid if grid is not None else default_grid(spec)
            traj = _run_quantum(spec, packet, grid, dt, t_end, record_stride, meta)
        else:
            traj = _run_rk4(spec, packet, method, dt, t_end, record_stride, q_stop, meta)
    except NonFiniteStateError as exc:
        exc.trajectory = _observed(spec, method, exc.trajectory)
        raise
    traj = _observed(spec, method, traj)
    if out_path is not None:
        traj.to_csv(out_path)
    return traj


def _run_rk4(spec, packet, method, dt, t_end, record_stride, q_stop, meta) -> Trajectory:
    """The nambu run steps the multiplet by its compiled Nambu flow, the
    classical run (q0, p0, q1, p1, ...) by Hamilton's equations."""
    if method == "nambu":
        field = compile_nambu_field(hamiltonian_set(spec))
        y0 = init_nambu_from_packet(spec, packet)
    else:
        field = compile_classical_field(classical_hamiltonian(spec), spec.n_dof)
        y0 = [v for qp in zip(packet.qc, packet.pc) for v in qp]
    return rk4_integrate(
        field, y0, dt, t_end, record_stride=record_stride, stop_below=q_stop, meta=meta
    )


def _run_quantum(spec, packet, grid, dt, t_end, record_stride, meta) -> Trajectory:
    """The grid run: split steps of the size and order ``choose_split_step``
    picks (meta: ``quantum_dt``, ``split_order``, ``split_err_est``,
    ``strang_err_est``) and expectation rows in ``RowPass`` blocks; the meta
    also gets the largest boundary |psi| over the rows (``boundary_amp_max``)
    and the largest change of the norm from the first row (``norm_loss``)."""
    wf = init_gaussian(grid, packet.qc, packet.pc, packet.resolved_sigmas(spec), spec.hbar)
    absorber = absorbing_mask(grid) if spec.model_id == "cubic" else None
    V = potential_poly(spec)
    layout = model_multiplet(spec).layout
    kinds = ("q", "p", "q2", "p2") if layout.N == 4 else ("q2", "p2", "qp_sym")
    n_steps = check_run(dt, t_end, record_stride=record_stride)
    split = choose_split_step(wf, V, dt, n_steps, record_stride, kinds, spec.masses, absorber)
    h = split.multiple * dt
    prop = SplitOperatorPropagator(grid, V, h, spec.hbar, spec.masses, absorber, split.order)
    meta.update(
        quantum_dt=repr(h), split_order=str(split.order),
        split_err_est=repr(split.err_est), strang_err_est=repr(split.strang_err_est),
    )
    block = RowPass(grid, spec.hbar, kinds, max(1, ROW_BLOCK_BYTES // wf.amps.nbytes))
    snaps, done = block.states, 0
    snaps[0] = wf.amps
    (first,) = block.rows(1)  # row 0, as a block of one
    checks = [(first.norm, first.boundary_amp)]  # (norm, boundary |psi|) per row

    def fill(steps: np.ndarray, rows: np.ndarray) -> tuple[int, int | None]:
        nonlocal done
        steps, n, failure = steps[: len(snaps)].tolist(), 0, None
        try:
            for step in steps:  # split.multiple divides every stride
                snaps[n] = prop.step(wf, (step - done) // split.multiple).amps
                n, done = n + 1, step
        except NonFiniteStateError as exc:
            failure = exc
        for k, r in enumerate(block.rows(n)):  # the strides taken, in one pass
            rows[k] = r.values
            checks.append((r.norm, r.boundary_amp))
            if absorber is not None and r.norm < ABSORBED_NORM_FLOOR:
                wf.amps = snaps[k].copy()  # the norm check replaces the position stop
                return k + 1, steps[k]
        if failure is not None:  # after the rows before it, unless one ended the run
            failure.filled = n
            raise failure
        return n, None

    columns = [v.name for v in x_vars(layout)]
    traj = integrate(
        fill, first.values, dt, t_end, columns, record_stride=record_stride,
        stop_flag="absorbed", meta=meta,
    )
    norms, edges = np.array(checks).T
    traj.meta["boundary_amp_max"] = repr(float(edges.max()))
    traj.meta["norm_loss"] = repr(float(np.abs(norms - norms[0]).max()))
    return traj


def _observed(spec: ModelSpec, method: str, traj: Trajectory) -> Trajectory:
    """A run's rows as named x columns with F and G_c; the (q, p) rows of a
    classical run become their classical images x_i(q, p), by generated code."""
    multiplet, hset = model_multiplet(spec), hamiltonian_set(spec)
    states = traj.states
    if method == "classical":
        qp_vars = classical_vars(spec.n_dof)
        images = [compile_evaluator(d, qp_vars)(states.T) for defs in multiplet.defs for d in defs]
        states = np.column_stack(images)
    return Trajectory(
        traj.t, states, [v.name for v in x_vars(multiplet.layout)],
        hset.observables(states), hset.observable_names, traj.meta, traj.flags,
    )


# --------------------------------------------------------------------------
# Trajectory comparison
# --------------------------------------------------------------------------


class CompareStat(NamedTuple):
    max_abs: float
    rms: float


def compare(
    traj_a: Trajectory,
    traj_b: Trajectory,
    columns: Sequence[str],
) -> dict[str, CompareStat]:
    """Per-column max-abs and RMS difference over the common time range.

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
        va = traj_a.column(column)
        vb = traj_b.column(column)
        if same_grid:
            diff = va - vb
        else:
            diff = va[mask] - np.interp(ta[mask], tb, vb)
        max_abs = float(np.max(np.abs(diff)))
        rms = float(np.sqrt(np.mean(diff**2)))
        out[column] = CompareStat(max_abs, rms)
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
