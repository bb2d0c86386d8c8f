"""Independent oracles shared by the test modules.

These deliberately avoid the library's own code paths: Gaussian moments
come from the mean/variance recursion on numbers, determinants from the
permutation sum, derivatives from central differences, vector fields and
classical images from ``Poly.eval`` point by point (the Nambu field through
one LU-determinant bracket per component) instead of generated code, RK4
trajectories from a numpy loop that calls the field four times per step,
Strang steps from the split-operator factors applied one at a time or fused
through the public ``np.fft`` transforms, and the Henon-Heiles mode energies
from hand-written packet-center equations integrated with scipy's DOP853.
"""

from itertools import permutations

import numpy as np

from nambu_dyn.brackets import nambu_bracket
from nambu_dyn.dynamics import NonFiniteStateError, Trajectory
from nambu_dyn.poly import Poly, p, q
from nambu_dyn.state import NambuState, classical_vars, x_vars


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


def nambu_vector_field(h, s) -> np.ndarray:
    """d(x_i^(a))/dt = {x_i^(a), F, G_1, ..., G_{N-2}} of the HamiltonianSet
    ``h`` at the state ``s``, one LU-determinant bracket per component."""
    layout = h.layout
    if isinstance(s, NambuState) and s.layout != layout:
        raise ValueError(f"state layout {s.layout} != Hamiltonian layout {layout}")
    fields = [[Poly.var(v), *h.hamiltonians] for v in x_vars(layout)]
    return np.array([nambu_bracket(fns, s, layout) for fns in fields])


def classical_vector_field(H: Poly, point) -> np.ndarray:
    """(dq, dp) per dof = (dH/dp, -dH/dq) at a (q0, p0, q1, p1, ...) point."""
    n_dof = len(point) // 2
    at = dict(zip(classical_vars(n_dof), np.asarray(point, dtype=np.float64).tolist()))
    out = []
    for dof in range(n_dof):
        out += [H.partial(p(dof)).eval(at), -H.partial(q(dof)).eval(at)]
    return np.array(out)


def classical_image(m, point) -> np.ndarray:
    """x_i(q, p) of the multiplet ``m`` for all dofs at a (q, p) mapping,
    as a dof-major flat vector."""
    return np.array([d.eval(point) for dof in range(m.n_dof) for d in m.defs[dof]])


def rk4_reference(field, y0, dt, t_end, t0=0.0, record_stride=1, stop=None):
    """Fixed-step RK4 on numpy arrays with four field calls per step.

    Same recording, stop ("escaped") and non-finite rules as ``rk4_integrate``.
    """
    y = np.array(y0, dtype=np.float64)
    dim = y.size
    n_steps = int(np.floor((t_end - t0) / dt + 1e-9))
    ts, rows, flags = [], [], []

    def record(step, flag=""):
        ts.append(t0 + step * dt)
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
                f"state became non-finite at t = {t0 + step * dt:.6g} "
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
