"""Independent oracles shared by the test modules.

These deliberately avoid the library's own code paths: Gaussian moments
come from the mean/variance recursion on numbers, determinants from the
permutation sum (the consistency contraction also from the sum over every
ordering of its columns, each with its Levi-Civita sign), derivatives from
central differences, polynomial values from ``eval_poly`` (the scalar
reference that was ``Poly.eval``), vector fields and classical images from it
point by point (the Nambu field through one LU-determinant bracket per
component) instead of generated code, the identity checks with their outer
brackets taken point by point by the LU ``nambu_bracket`` and the per-point
``poisson_bracket``, RK4 trajectories from a numpy loop that calls the field four times per step,
Strang steps from the split-operator factors applied one at a time or fused
through the public ``np.fft`` transforms, quantum runs stride by stride with
one expectation row per call (as plain Strang steps of the caller's dt, or
with a given propagator), CSV text cell by cell, the harmonic packet's
moments in closed form, and the Henon-Heiles mode energies and the cubic
packet's crossing time from hand-written packet-center equations integrated
with scipy's DOP853.  ``readme_section`` reads one section of README for
the tests of its commands and numbers.  ``position_moment``, ``mode_energies``
and ``grid_energy`` are test-only grid helpers that used to live in
``nambu_dyn.quantum``, and ``poisson_bracket`` and ``nambu_bracket`` the numeric brackets of
``nambu_dyn.brackets``.  ``effective_potential`` (criterion 3's barrier) and
``mode_energy_series`` (criterion 5's mode energies) read a closure or a
trajectory that the library builds; no run calls them, so they live here.
"""

from itertools import combinations, permutations
from math import factorial
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from nambu_dyn.brackets import (
    DEFAULT_SAMPLE_SEED,
    nambu_bracket_poly,
    poisson_bracket_poly,
    sample_assignments,
)
from nambu_dyn.closure import ClosureMode, build_F
from nambu_dyn.dynamics import NonFiniteStateError, Trajectory
from nambu_dyn.multiplets import QUARTET_QP_Q2P2
from nambu_dyn.poly import (
    Poly, ValidationError, VarId, check_positive, check_variables,
    check_width, p, q, xvar,
)
from nambu_dyn.quantum import (
    SplitOperatorPropagator,
    absorbing_mask,
    expectation_row,
    init_gaussian,
    potential_mesh,
)
from nambu_dyn.scenarios import (
    ABSORBED_NORM_FLOOR, MODELS, ModelSpec, model_multiplet, potential_poly,
)
from nambu_dyn.state import Layout, classical_vars, x_vars

README = Path(__file__).parents[1] / "README.md"


def readme_section(title: str) -> str:
    """The text of README's ``## title`` section, up to the next ``## `` heading."""
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def gaussian_moment(n: int, mean: float, var: float) -> float:
    """E[q^n] for a normal distribution via m_k = mean m_{k-1} + (k-1) var m_{k-2}."""
    m_prev, m_curr = 1.0, mean
    if n == 0:
        return m_prev
    for k in range(2, n + 1):
        m_prev, m_curr = m_curr, mean * m_curr + (k - 1) * var * m_prev
    return m_curr


def perm_sign(perm) -> int:
    inversions = sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )
    return -1 if inversions % 2 else 1


def det_by_permutations(matrix: np.ndarray) -> float:
    """Brute-force determinant, independent of any LU code."""
    n = matrix.shape[0]
    total = 0.0
    for perm in permutations(range(n)):
        prod = perm_sign(perm)
        for row, col in enumerate(perm):
            prod *= matrix[row, col]
        total += prod
    return total


def central_difference(fn, x: float, step: float = 1e-5) -> float:
    return (fn(x + step) - fn(x - step)) / (2.0 * step)


def random_poly(rng, variables, max_degree=2, n_terms=4, scale=1.0) -> Poly:
    """Random sparse polynomial of bounded total degree, coefficients in
    [-scale, scale]."""
    out = Poly.zero()
    for _ in range(n_terms):
        degree = int(rng.integers(0, max_degree + 1))
        powers = {}
        for _ in range(degree):
            v = variables[int(rng.integers(0, len(variables)))]
            powers[v] = powers.get(v, 0) + 1
        out = out + Poly.monomial(powers, float(rng.uniform(-scale, scale)))
    return out


def eval_poly(f: Poly, assignment: Mapping[VarId, float]) -> float:
    """``f`` at one point, term by term in Python floats; every variable of
    ``f`` must be bound, else ValidationError."""
    total = 0.0
    for mono, coeff in f.terms.items():
        term = coeff
        for v, k in mono:
            try:
                val = assignment[v]
            except KeyError:
                raise ValidationError(
                    f"variable {v.name} is not bound in the assignment"
                ) from None
            term *= val**k
        total += term
    return total


def poisson_bracket(
    A: Poly, B: Poly, point: Mapping[VarId, float], n_dof: int = 1
) -> float:
    """Sum over dofs of the 2x2 Jacobian of (A, B) wrt (q, p), at a point."""
    total = 0.0
    for dof in range(n_dof):
        qv, pv = q(dof), p(dof)
        total += eval_poly(A.partial(qv), point) * eval_poly(B.partial(pv), point)
        total -= eval_poly(A.partial(pv), point) * eval_poly(B.partial(qv), point)
    return total


def as_point(state, layout: Layout) -> Mapping[VarId, float]:
    """A sample mapping as it is; a flat state vector as {x variable: value}."""
    if isinstance(state, Mapping):
        return state
    values = np.asarray(state, dtype=np.float64)
    if values.shape != (layout.size,):
        raise ValidationError(
            f"state vector length {values.size} does not match layout {layout}"
        )
    return dict(zip(x_vars(layout), values.tolist()))


def nambu_bracket(fns: Sequence[Poly], state, layout: Layout) -> float:
    """Sum over dofs of the NxN Jacobian determinant of fns wrt one N-plet.

    The determinant is computed by LU factorization with partial pivoting.
    """
    N, n_dof = layout
    if len(fns) != N:
        raise ValidationError(f"need {N} functions, got {len(fns)}")
    check_variables(fns, set(x_vars(layout)), "bracket functions")
    point = as_point(state, layout)
    total = 0.0
    jac = np.empty((N, N), dtype=np.float64)
    for dof in range(n_dof):
        vs = [xvar(i, dof) for i in range(1, N + 1)]
        for a, f in enumerate(fns):
            for i, v in enumerate(vs):
                jac[a, i] = eval_poly(f.partial(v), point)
        total += float(np.linalg.det(jac))
    return total


def jacobi_reference(A1, A2, B, samples, n_dof=1):
    """(lhs, rhs) of the Jacobi identity at each sample: inner brackets
    expanded, outer ones by ``poisson_bracket`` point by point."""
    inner_12 = poisson_bracket_poly(A1, A2, n_dof)
    inner_1b = poisson_bracket_poly(A1, B, n_dof)
    inner_2b = poisson_bracket_poly(A2, B, n_dof)
    return [
        (
            poisson_bracket(inner_12, B, s, n_dof),
            poisson_bracket(inner_1b, A2, s, n_dof) + poisson_bracket(A1, inner_2b, s, n_dof),
        )
        for s in samples
    ]


def fundamental_identity_reference(As, Bs, samples, layout):
    """(lhs, rhs) of the fundamental identity at each sample: inner brackets
    expanded, outer ones by the LU ``nambu_bracket`` point by point."""
    lhs_fns = [nambu_bracket_poly(As, layout), *Bs]
    rhs_fns = [
        [*As[:a], nambu_bracket_poly([As[a], *Bs], layout), *As[a + 1 :]]
        for a in range(layout.N)
    ]
    return [
        (nambu_bracket(lhs_fns, s, layout), sum(nambu_bracket(f, s, layout) for f in rhs_fns))
        for s in samples
    ]


def flow_divergence_reference(hamiltonians, point, layout) -> float:
    """sum_v d/dv {v, H_1, ...} at a sample point, one ``eval_poly`` per term."""
    return sum(
        eval_poly(nambu_bracket_poly([Poly.var(v), *hamiltonians], layout).partial(v), point)
        for v in x_vars(layout)
    )


def consistency_reference(m, samples, seed=DEFAULT_SAMPLE_SEED) -> dict:
    """{(dof, i, j): worst residual} of the consistency conditions, written
    out as the permutation sum: (1/(N-2)!) times the sum over every ordering
    k... of the other variables of eps_{i j k...} (``perm_sign``) times the
    brute-force determinant of dG_c/dx_k, the derivatives taken by
    ``eval_poly`` at the image x_i(q, p) of each (q, p) sample, minus the
    Poisson bracket at the sample."""
    worst = {}
    for dof in range(m.n_dof):
        vs = [xvar(i, dof) for i in range(1, m.N + 1)]
        grads = [[g.partial(v) for v in vs] for g in m.constraints[dof]]
        points = sample_assignments([q(dof), p(dof)], samples, seed)
        for i, j in combinations(range(m.N), 2):
            rhs = poisson_bracket_poly(m.defs[dof][i], m.defs[dof][j], dof + 1)
            rest = [k for k in range(m.N) if k not in (i, j)]
            residuals = []
            for pt in points:
                image = {v: eval_poly(d, pt) for v, d in zip(vs, m.defs[dof])}
                jac = np.array([[eval_poly(dg, image) for dg in row] for row in grads])
                lhs = sum(
                    perm_sign((i, j, *perm)) * det_by_permutations(jac[:, list(perm)])
                    for perm in permutations(rest)
                ) / factorial(m.N - 2)
                residuals.append(abs(lhs - eval_poly(rhs, pt)))
            worst[(dof, i + 1, j + 1)] = max(residuals)
    return worst


def nambu_vector_field(h, s) -> np.ndarray:
    """d(x_i^(a))/dt = {x_i^(a), F, G_1, ..., G_{N-2}} of the HamiltonianSet
    ``h`` at the state ``s``, one LU-determinant bracket per component."""
    layout = h.layout
    fields = [[Poly.var(v), *h.hamiltonians] for v in x_vars(layout)]
    return np.array([nambu_bracket(fns, s, layout) for fns in fields])


def classical_vector_field(H: Poly, point) -> np.ndarray:
    """(dq, dp) per dof = (dH/dp, -dH/dq) at a (q0, p0, q1, p1, ...) point."""
    n_dof = len(point) // 2
    at = dict(zip(classical_vars(n_dof), np.asarray(point, dtype=np.float64).tolist()))
    out = []
    for dof in range(n_dof):
        out += [eval_poly(H.partial(p(dof)), at), -eval_poly(H.partial(q(dof)), at)]
    return np.array(out)


def classical_image(m, point) -> np.ndarray:
    """x_i(q, p) of the multiplet ``m`` for all dofs at a (q, p) mapping,
    as a dof-major flat vector."""
    return np.array([eval_poly(d, point) for dof in range(m.n_dof) for d in m.defs[dof]])


def rk4_reference(field, y0, dt, t_end, record_stride=1, stop=None):
    """Fixed-step RK4 on numpy arrays with four field calls per step.

    Same recording, stop ("escaped") and non-finite rules as ``rk4_integrate``.
    """
    y = np.array(y0, dtype=np.float64)
    dim = y.size
    n_steps = int(np.floor(t_end / dt + 1e-9))
    ts, rows, flags = [], [], []

    def record(step, flag=""):
        ts.append(step * dt)
        rows.append(y.copy())
        flags.append(flag)

    def build():
        return Trajectory(
            np.array(ts),
            np.array(rows).reshape(len(rows), dim),
            [f"y{i}" for i in range(dim)],
            np.empty((len(rows), 0)),
            [],
            {},
            flags,
        )

    record(0)
    half = 0.5 * dt
    sixth = dt / 6.0
    for step in range(1, n_steps + 1):
        k1 = field(y)
        k2 = field(y + half * k1)
        k3 = field(y + half * k2)
        k4 = field(y + dt * k3)
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise NonFiniteStateError(
                f"state became non-finite at t = {step * dt:.6g} "
                f"(step {step} of {n_steps})",
                trajectory=build(),
            )
        if stop is not None and stop(y):
            record(step, "escaped")
            break
        if step % record_stride == 0 or step == n_steps:
            record(step)
    return build()


def strang_reference(prop, amps, n):
    """``n`` Strang steps of ``prop`` written out one factor at a time:
    V half, FFT, kinetic phase, inverse FFT, V half, absorber."""
    for _ in range(n):
        amps = prop.exp_v_half * amps
        amps = np.fft.ifftn(prop.exp_t * np.fft.fftn(amps))
        amps = prop.exp_v_half * amps
        if prop.absorber is not None:
            amps = prop.absorber * amps
    return amps


def fused_strang_reference(prop, amps, n):
    """``n`` fused Strang steps of ``prop`` in one work array, with in-place
    ``np.fft.fftn`` and ``ifftn``: the step as written before it called the
    pocketfft gufuncs directly, which must give the same bits."""
    amps = prop.exp_v_half * amps
    for i in range(n):
        if i:
            amps *= prop.exp_v_join
        np.fft.fftn(amps, out=amps)
        amps *= prop.exp_t
        np.fft.ifftn(amps, out=amps)
    amps *= prop.exp_v_half
    if prop.absorber is not None:
        amps *= prop.absorber
    return amps


def position_moment(wf, exponents) -> float:
    """<q0^e0 q1^e1 ...> over the position density, normalized so that a
    partially absorbed state still reports a proper expectation value."""
    if len(exponents) != wf.grid.ndim:
        raise ValueError("one exponent per axis required")
    weight = density = wf.density()
    for axis, e in enumerate(exponents):
        if e:
            weight = weight * wf.grid.axis_view(wf.grid.coords(axis), axis) ** e
    return float(np.sum(weight) / np.sum(density))


def grid_energy(wf, V, masses=None) -> float:
    """<H> = sum_a <p_a^2>/2m_a + <V>, with V a Poly weighted by |psi|^2."""
    m = np.broadcast_to(1.0 if masses is None else masses, (wf.grid.ndim,))
    kinetic = sum(p2 / (2.0 * ma) for p2, ma in zip(expectation_row(wf, ("p2",)).values, m))
    density = wf.density()
    return float(kinetic + np.sum(potential_mesh(wf.grid, V) * density) / np.sum(density))


def mode_energies(wf, params) -> tuple[float, float]:
    """Marginal harmonic energies <p_a^2>/2m_a + m_a w_a^2 <q_a^2>/2 of a
    2D wavefunction; params = (m1, w1, m2, w2)."""
    if wf.grid.ndim != 2:
        raise ValueError("mode energies are defined for 2D wavefunctions")
    m1, w1, m2, w2 = (float(v) for v in params)
    q2_1, p2_1, q2_2, p2_2 = expectation_row(wf, ("q2", "p2")).values
    e1 = p2_1 / (2 * m1) + 0.5 * m1 * w1**2 * q2_1
    e2 = p2_2 / (2 * m2) + 0.5 * m2 * w2**2 * q2_2
    return (e1, e2)


def effective_potential(V: Poly, sigma: float, hbar: float = 1.0, mass: float = 1.0) -> Poly:
    """Potential governing the packet center after solving the constraints
    x3 = qc^2 + sigma^2 and x4 = pc^2 + hbar^2/(4 sigma^2), for V(q0) of
    degree <= 3; the pc^2 kinetic part is excluded, the hbar-dependent
    corrections are kept."""
    check_width(sigma, "sigma")
    check_positive(hbar, "hbar")
    degree = max((sum(k for _, k in mono) for mono in V.terms), default=0)
    if degree > 3:
        raise ValidationError(
            f"effective potential supports degree <= 3, got {degree}"
        )
    F = build_F(V, QUARTET_QP_Q2P2, ClosureMode.ZERO_CUMULANT, masses=[mass])
    qc = Poly.var(q(0))
    s2 = sigma * sigma
    substitution = {
        xvar(1, 0): qc,
        xvar(3, 0): qc * qc + Poly.const(s2),
        xvar(4, 0): Poly.const(hbar * hbar / (4.0 * s2)),
    }
    return F.subs(substitution)


def mode_energy_series(traj: Trajectory, spec: ModelSpec) -> np.ndarray:
    """Harmonic mode energies per dof from a trajectory's x columns,
    E_a = x4^(a)/2m_a + m_a w_a^2 x3^(a)/2; shape (rows, n_dof)."""
    if spec.multiplet_name != "quartet":
        raise ValidationError("mode energies need the quartet layout")
    out = np.empty((len(traj), spec.n_dof))
    for dof in range(spec.n_dof):
        x3 = traj.column(xvar(3, dof).name)
        x4 = traj.column(xvar(4, dof).name)
        m, w = spec.masses[dof], spec.omegas[dof]
        out[:, dof] = x4 / (2.0 * m) + 0.5 * m * w**2 * x3
    return out


def stride_run(prop, wf, kinds, n_steps, record_stride, multiple=1, absorbed=False):
    """(steps, rows, flags, norms, edges) of a quantum run in a loop of its
    own: one ``prop.step`` call per recording stride, of ``multiple`` steps of
    the run's dt each, one ``expectation_row`` per row, its ``norm`` and
    ``boundary_amp`` and, when ``absorbed``, the absorber's 1 % norm stop;
    ``wf`` is left at the last row's state."""
    first = expectation_row(wf, kinds)
    steps, rows, flags, checks = [0], [first.values], [""], [(first.norm, first.boundary_amp)]
    while steps[-1] < n_steps:
        n = min(record_stride, n_steps - steps[-1])
        prop.step(wf, n // multiple)
        row = expectation_row(wf, kinds)
        steps.append(steps[-1] + n)
        rows.append(row.values)
        checks.append((row.norm, row.boundary_amp))
        stop = absorbed and row.norm < ABSORBED_NORM_FLOOR
        flags.append("absorbed" if stop else "")
        if stop:
            break
    norms, edges = np.array(checks).T
    return np.array(steps), np.array(rows), flags, norms, edges


def strang_run(spec, packet, dt, t_end, record_stride, grid):
    """(t, rows, flags) of ``run_scenario``'s quantum run taken as Strang
    steps of ``dt`` whatever the step rule picks, by ``stride_run``."""
    wf = init_gaussian(grid, packet.qc, packet.pc, packet.resolved_sigmas(spec), spec.hbar)
    absorber = absorbing_mask(grid) if MODELS[spec.model_id].escapes else None
    prop = SplitOperatorPropagator(
        grid, potential_poly(spec), dt, spec.hbar, spec.masses, absorber
    )
    kinds = model_multiplet(spec).moments
    n_steps = int(np.floor(t_end / dt + 1e-9))
    steps, rows, flags, _, _ = stride_run(
        prop, wf, kinds, n_steps, record_stride, absorbed=absorber is not None
    )
    return steps * dt, rows, flags


def to_csv_reference(traj) -> str:
    """The text ``Trajectory.to_csv`` writes, built cell by cell as it once was."""
    lines = [f"# {key} = {value}\n" for key, value in traj.meta.items()]
    has_flags = any(traj.flags)
    header = ["t", *traj.columns, *traj.observable_names]
    if has_flags:
        header.append("flags")
    lines.append(",".join(header) + "\n")
    for row in range(len(traj.t)):
        cells = [repr(float(traj.t[row]))]
        cells += [repr(float(v)) for v in traj.states[row]]
        cells += [repr(float(v)) for v in traj.observables[row]]
        if has_flags:
            cells.append(traj.flags[row])
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


def harmonic_packet_moments(t, qc, pc, sigma, m=1.0, omega=1.0, hbar=1.0):
    """Exact (<q>, <p>, <q^2>, <p^2>, <qp>_sym) at the times ``t`` of a
    Gaussian packet started at (qc, pc) with width sigma and no chirp, in
    the potential m w^2 q^2 / 2.  The packet stays Gaussian: its center
    follows the classical orbit and its covariance rotates with the same
    phase-space rotation, from Var q = sigma^2, Var p = hbar^2/(4 sigma^2),
    Cov = 0.  Shape (len(t), 5)."""
    c, s = np.cos(omega * np.asarray(t)), np.sin(omega * np.asarray(t))
    mw = m * omega
    var_q0, var_p0 = sigma**2, hbar**2 / (4.0 * sigma**2)
    mean_q = qc * c + pc / mw * s
    mean_p = pc * c - mw * qc * s
    var_q = var_q0 * c * c + var_p0 / mw**2 * s * s
    var_p = var_p0 * c * c + mw**2 * var_q0 * s * s
    cov = (var_p0 / mw - mw * var_q0) * s * c
    return np.column_stack([
        mean_q, mean_p, mean_q**2 + var_q, mean_p**2 + var_p, mean_q * mean_p + cov,
    ])


def quantum_row_reference(wf, kinds):
    """Expectation row of ``wf``, kind by kind on every axis, as the library
    computed it before the one-spectrum row: position moments weight |psi|^2
    by full-grid coordinate meshes, p and p2 transform psi again each, and
    qp_sym is Re sum conj(psi) x F^-1[hbar k F[psi]] / sum |psi|^2."""
    grid = wf.grid
    density = np.abs(wf.amps) ** 2
    row = []
    for axis in range(grid.ndim):
        shape = [1] * grid.ndim
        shape[axis] = grid.shape[axis]
        x = grid.coords(axis).reshape(shape) * np.ones(grid.shape)
        hk = (wf.hbar * grid.wavenumbers(axis)).reshape(shape)
        for kind in kinds:
            if kind in ("q", "q2"):
                power = 1 if kind == "q" else 2
                row.append(float(np.sum(density * x**power) / np.sum(density)))
            elif kind in ("p", "p2"):
                power = 1 if kind == "p" else 2
                spectrum = np.abs(np.fft.fftn(wf.amps)) ** 2
                row.append(float(np.sum(hk**power * spectrum) / np.sum(spectrum)))
            elif kind == "qp_sym":
                p_psi = np.fft.ifftn(hk * np.fft.fftn(wf.amps))
                value = np.sum(np.conj(wf.amps) * x * p_psi)
                row.append(float(value.real / np.sum(density)))
            else:
                raise ValueError(f"unknown kind {kind!r}")
    return row


def henon_heiles_mode_energies(t, qc, pc, omegas, lam):
    """Mode energies (E1, E2) of a frozen Gaussian packet in the Henon-Heiles
    potential w1^2 q1^2/2 + w2^2 q2^2/2 + lam q1 q2^2, at the times ``t``.

    m = hbar = 1 and each width is the default s_a^2 = 1/(2 w_a).  The widths
    stay frozen, and averaging the potential over the packet gives the center
    equations

        q1'' = -w1^2 q1 - lam (q2^2 + s2^2),    q2'' = -w2^2 q2 - 2 lam q1 q2,

    which scipy's DOP853 integrates at rtol = atol = 1e-12.  Then
    E_a = (p_a^2 + 1/(4 s_a^2))/2 + w_a^2 (q_a^2 + s_a^2)/2.  Shape (len(t), 2).
    """
    from scipy.integrate import solve_ivp

    w1, w2 = omegas
    s1, s2 = 1.0 / (2.0 * w1), 1.0 / (2.0 * w2)  # variances s_a^2

    def rhs(_t, y):
        q1, q2, p1, p2 = y
        return [
            p1,
            p2,
            -w1 * w1 * q1 - lam * (q2 * q2 + s2),
            -w2 * w2 * q2 - 2.0 * lam * q1 * q2,
        ]

    t = np.asarray(t, dtype=np.float64)
    sol = solve_ivp(
        rhs, (t[0], t[-1]), [qc[0], qc[1], pc[0], pc[1]],
        method="DOP853", t_eval=t, rtol=1e-12, atol=1e-12,
    )
    if not sol.success:
        raise RuntimeError(f"DOP853 failed: {sol.message}")
    q1, q2, p1, p2 = sol.y
    e1 = 0.5 * (p1 * p1 + 1.0 / (4.0 * s1)) + 0.5 * w1 * w1 * (q1 * q1 + s1)
    e2 = 0.5 * (p2 * p2 + 1.0 / (4.0 * s2)) + 0.5 * w2 * w2 * (q2 * q2 + s2)
    return np.column_stack([e1, e2])


def cubic_center_crossing(qc, pc, g, s2, level):
    """First time the center of a frozen Gaussian packet (variance ``s2``) in
    the cubic potential q^2/2 + g q^3/3 falls to ``level``.

    m = 1; averaging V'(q) = q + g q^2 over the packet gives the center
    equation q'' = -(q + g (q^2 + s2)), which scipy's DOP853 integrates at
    rtol = atol = 1e-12 up to the downward crossing of ``level``.
    """
    from scipy.integrate import solve_ivp

    def crossing(_t, y):
        return y[0] - level

    crossing.terminal, crossing.direction = True, -1
    sol = solve_ivp(
        lambda _t, y: [y[1], -(y[0] + g * (y[0] * y[0] + s2))], (0.0, 1e3), [qc, pc],
        method="DOP853", events=crossing, rtol=1e-12, atol=1e-12,
    )
    if sol.status != 1:
        raise RuntimeError(f"DOP853 found no crossing of {level}: {sol.message}")
    return float(sol.t_events[0][0])
