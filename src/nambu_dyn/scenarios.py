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
from typing import Callable, NamedTuple, Sequence

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
from .poly import Poly, ValidationError, check_finite, check_positive, check_width, p, q
from .poly import compile_evaluator
from .quantum import (
    Grid,
    SplitOperatorPropagator,
    absorbing_mask,
    choose_split_step,
    expect,  # noqa: F401  (bench/hooks.py traces scenarios.expect)
    expectation_row,
    init_gaussian,
)
from .state import classical_vars, x_vars

__all__ = [
    "MODELS",
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
    "init_nambu_from_packet",
    "run_scenario",
    "compare",
]

DEFAULT_Q_STOP = -15.0
ABSORBED_NORM_FLOOR = 0.99


@dataclass(frozen=True)
class ModelSpec:
    """One model of ``MODELS`` with its physical parameters; masses and
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
        if (model := MODELS.get(self.model_id)) is None:
            raise ValidationError(f"unknown model {self.model_id!r}")
        if not 0 < len(self.masses) == len(self.omegas):
            raise ValidationError("a model needs one or more dofs, each with a mass and an omega")
        scales = {"hbar": self.hbar}
        scales.update((f"masses[{i}]", m) for i, m in enumerate(self.masses))
        scales.update((f"omegas[{i}]", w) for i, w in enumerate(self.omegas))
        for name, value in {"g": self.g, "lam": self.lam, **scales}.items():
            if isinstance(value, bool):
                raise TypeError(f"model parameter {name} = {value!r} is a bool, not a number")
            check_finite(value, f"model parameter {name}")  # a non-number raises TypeError here
        for name, value in scales.items():  # a non-finite scale was named "not finite" above
            check_positive(value, f"model parameter {name}")
        object.__setattr__(self, "masses", tuple(map(float, self.masses)))
        object.__setattr__(self, "omegas", tuple(map(float, self.omegas)))
        for dof, (m, w) in enumerate(zip(self.masses, self.omegas)):
            try:  # potential_poly's coefficient; a float ** raises on overflow
                coeff = 0.5 * m * w ** 2
            except OverflowError:
                coeff = math.inf
            check_positive(coeff, f"model parameter masses[{dof}] * omegas[{dof}]**2 / 2")
        if model.n_dof not in (None, self.n_dof):
            raise ValidationError(f"{self.model_id} needs {model.n_dof} dofs, got {self.n_dof}")
        for owner, other in MODELS.items():
            name = other.coupling
            if name not in (None, model.coupling) and getattr(self, name) != 0:
                raise ValidationError(f"{name} applies only to the {owner} model, "
                                      f"not {self.model_id}")
        name = self.multiplet_name
        if name not in builtin_multiplets():
            raise ValidationError(f"unknown multiplet {name!r}")
        if name not in model.multiplets:
            hosts = ", ".join(k for k, m in MODELS.items() if name in m.multiplets)
            raise ValidationError(f"the {name} hosts only the {hosts} model, not {self.model_id}")
        if not isinstance(self.closure, ClosureMode):
            raise ValidationError(f"closure = {self.closure!r} is not a ClosureMode")

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


class Model(NamedTuple):
    """One model's facts; ``MODELS`` maps its id to them."""

    factory: Callable[[], ModelSpec]  # the default spec
    grid: tuple[tuple[float, float, int], ...]  # the quantum grid's default axes
    t_end: float
    output_interval: float  # row spacing: resolves every oscillation, keeps long runs small
    n_dof: int | None = None  # the dofs it requires; None: any number
    coupling: str | None = None  # the ModelSpec field that holds its coupling constant
    term: Callable[[float], Poly] | None = None  # the coupling's term of the potential
    escapes: bool = False  # unbounded below: a position stop (nambu, classical) or absorber
    multiplets: tuple[str, ...] = ("quartet",)


MODELS: dict[str, Model] = {
    "harmonic": Model(harmonic_model, ((-10.0, 10.0, 2048),), 20.0, 0.01,
                      multiplets=("triplet", "quartet")),
    "cubic": Model(cubic_model, ((-30.0, 15.0, 4096),), 40.0, 0.01, coupling="g",
                   term=lambda c: (c / 3.0) * Poly.var(q(0)) ** 3, escapes=True),
    "henon_heiles": Model(henon_heiles_model, ((-8.0, 8.0, 256),) * 2, 100.0, 0.1, n_dof=2,
                          coupling="lam", term=lambda c: c * Poly.var(q(0)) * Poly.var(q(1)) ** 2),
}


def model_by_name(name: str) -> ModelSpec:
    key = name.strip().lower().replace("-", "_")
    if key not in MODELS:
        raise ValidationError(f"unknown model {name!r}")
    return MODELS[key].factory()


def potential_poly(spec: ModelSpec) -> Poly:
    """The model potential over position variables q0, q1, ..."""
    out = Poly.zero()
    for dof in range(spec.n_dof):
        qv = Poly.var(q(dof))
        out = out + 0.5 * spec.masses[dof] * spec.omegas[dof] ** 2 * qv * qv
    model = MODELS[spec.model_id]
    return out if model.term is None else out + model.term(getattr(spec, model.coupling))


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


@dataclass(frozen=True)
class PacketSpec:
    """Initial Gaussian packet per dof: centers, momenta, widths (0: the classical image)."""

    qc: tuple[float, ...]
    pc: tuple[float, ...]
    sigmas: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.qc) != len(self.pc):
            raise ValidationError("qc and pc must have equal length")
        for name, values in {"qc": self.qc, "pc": self.pc, "sigmas": self.sigmas or ()}.items():
            for i, value in enumerate(values):
                check_finite(value, f"packet parameter {name}[{i}]")
        if self.sigmas is not None:
            if len(self.sigmas) != len(self.qc):
                raise ValidationError("sigmas must match the number of dofs")
            for i, s in enumerate(self.sigmas):
                if s != 0:
                    check_width(s, f"packet parameter sigmas[{i}]")

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
        """The widths for ``spec``'s dofs: explicit, or sqrt(hbar / 2mw)."""
        if len(self.qc) != spec.n_dof:
            raise ValidationError(f"packet has {len(self.qc)} dofs, model needs {spec.n_dof}")
        if self.sigmas is not None:
            return self.sigmas
        return tuple(
            check_width(math.sqrt(spec.hbar / (2.0 * m * w)), f"default sigmas[{dof}]")
            for dof, (m, w) in enumerate(zip(spec.masses, spec.omegas))
        )


def init_nambu_from_packet(spec: ModelSpec, packet: PacketSpec) -> np.ndarray:
    """Multiplet values of the initial Gaussian packet, as the flat state vector:
    per dof, the packet's moment of each slot (``MultipletDef.moments``) among
    q = qc, p = pc, q2 = qc^2 + s^2, p2 = pc^2 + hbar^2/(4 s^2) and
    qp_sym = qc pc.  A width of zero gives the classical image.  ValidationError
    names a slot whose value is not finite."""
    multiplet = model_multiplet(spec)
    values = []
    for qc, pc, s in zip(packet.qc, packet.pc, packet.resolved_sigmas(spec)):
        s2 = s * s
        moments = {"q": qc, "p": pc, "q2": qc * qc + s2, "qp_sym": qc * pc,
                   "p2": pc * pc + (spec.hbar**2 / (4.0 * s2) if s2 > 0 else 0.0)}
        values.extend(moments[kind] for kind in multiplet.moments)
    for v, value in zip(x_vars(multiplet.layout), values):
        check_finite(value, f"initial {v.name}")
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

    The checks of the arguments, the packet and row 0 come before any compiling or
    stepping, and ``check_run`` before dt sets the default stride; only ``integrate``'s
    check for more rows than can be allocated comes later.  A model that ``escapes`` is
    unbounded below, so nambu/classical runs stop once the position variable falls
    below ``q_stop`` (None: ``DEFAULT_Q_STOP``; -inf: never), flagging the
    last row 'escaped'; the quantum run stops once the absorber has drained
    more than 1% of the norm ('absorbed').  A NaN ``q_stop``, and any
    ``q_stop`` for a run without a position stop (every other model, every
    quantum run), raise ValidationError.  ``_observed`` adds F and G_c after
    stepping, also to the rows so far of a NonFiniteStateError.
    """
    if method not in ("nambu", "classical", "quantum"):
        raise ValidationError(f"unknown method {method!r}")
    model = MODELS[spec.model_id]
    if q_stop is not None:
        if math.isnan(q_stop):
            raise ValidationError(f"q_stop = {q_stop!r} is not a number; -inf means no escape stop")
        if not model.escapes or method == "quantum":
            escaping = ", ".join(k for k, m in MODELS.items() if m.escapes)
            raise ValidationError(
                f"q_stop = {q_stop!r} does not apply to a {spec.model_id} {method} run: "
                f"only {escaping} nambu and classical runs have a position stop"
            )
    t_end = model.t_end if t_end is None else t_end
    n_steps = check_run(dt, t_end, 1 if record_stride is None else record_stride)
    if record_stride is None:  # one stride if a subnormal dt makes the quotient inf
        per_row = model.output_interval / dt
        record_stride = max(1, int(round(per_row))) if per_row < math.inf else n_steps
    if model.escapes and q_stop is None:
        q_stop = DEFAULT_Q_STOP
    meta = {"model": spec.model_id, "method": method, "dt": repr(dt),
            "multiplet": spec.multiplet_name}
    try:
        if method == "quantum":
            grid = grid if grid is not None else Grid(model.grid)
            traj = _run_quantum(spec, packet, grid, dt, t_end, n_steps, record_stride, meta)
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
    classical run (q0, p0, q1, p1, ...) by Hamilton's equations; row 0 is checked first."""
    if method == "nambu":
        y0 = init_nambu_from_packet(spec, packet)
        field = compile_nambu_field(hamiltonian_set(spec))
    else:
        # Built only to check row 0, the zero-width packet's multiplet (_observed rebuilds it).
        init_nambu_from_packet(spec, PacketSpec(packet.qc, packet.pc, (0.0,) * len(packet.qc)))
        y0 = [v for qp in zip(packet.qc, packet.pc) for v in qp]
        field = compile_classical_field(classical_hamiltonian(spec), spec.n_dof)
    return rk4_integrate(
        field, y0, dt, t_end, record_stride=record_stride, stop_below=q_stop, meta=meta
    )


def _run_quantum(spec, packet, grid, dt, t_end, n_steps, record_stride, meta) -> Trajectory:
    """The grid run: split steps of the size and order ``choose_split_step``
    picks (meta: ``quantum_dt``, ``split_order``, ``split_err_est``,
    ``strang_err_est``) and expectation rows in ``RowPass`` blocks, computed
    while the next block is stepped (``_rowworker.RowBlocks``); the meta
    also gets the largest boundary |psi| over the rows (``boundary_amp_max``)
    and the largest change of the norm from the first row (``norm_loss``)."""
    from ._rowworker import RowBlocks  # here, so that runs without a grid do not load it

    wf = init_gaussian(grid, packet.qc, packet.pc, packet.resolved_sigmas(spec), spec.hbar)
    absorber = absorbing_mask(grid) if MODELS[spec.model_id].escapes else None
    V = potential_poly(spec)
    layout = model_multiplet(spec).layout
    kinds = model_multiplet(spec).moments
    split = choose_split_step(wf, V, dt, n_steps, record_stride, kinds, spec.masses, absorber)
    h = split.multiple * dt
    prop = SplitOperatorPropagator(grid, V, h, spec.hbar, spec.masses, absorber, split.order)
    meta.update(
        quantum_dt=repr(h), split_order=str(split.order),
        split_err_est=repr(split.err_est), strang_err_est=repr(split.strang_err_est),
    )
    first = expectation_row(wf, kinds)  # row 0, a block of one
    checks = [(first.norm, first.boundary_amp)]  # (norm, boundary |psi|) per row

    def rows(steps: list[int]):
        def advance(gap: int) -> np.ndarray:  # split.multiple divides every stride
            return prop.step(wf, gap // split.multiple).amps

        for step, r, state in blocks.stepped(steps, advance):
            checks.append((r.norm, r.boundary_amp))
            absorbed = absorber is not None and r.norm < ABSORBED_NORM_FLOOR
            if absorbed:  # the norm check replaces the position stop
                wf.amps = state.copy()
            yield r.values, (step, "absorbed") if absorbed else None

    columns = [v.name for v in x_vars(layout)]
    with RowBlocks(grid, spec.hbar, kinds) as blocks:
        traj = integrate(
            rows, first.values, dt, t_end, columns, record_stride=record_stride, meta=meta
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
        images = compile_evaluator([d for defs in multiplet.defs for d in defs], qp_vars)
        states = images(states.T).T
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
            raise ValidationError("trajectories cover disjoint time ranges")
        mask = (ta >= lo) & (ta <= hi)
        if not mask.any():
            raise ValidationError("no row of the first trajectory lies in the common range "
                                  f"[{lo}, {hi}]")
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

