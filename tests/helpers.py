"""Independent oracles shared by the test modules.

These deliberately avoid the library's own code paths: Gaussian moments
come from the mean/variance recursion on numbers, determinants from the
permutation sum, derivatives from central differences, and RK4 trajectories
from a numpy loop that calls the field four times per step.
"""

from itertools import permutations

import numpy as np

from nambu_dyn.dynamics import NonFiniteStateError, Trajectory
from nambu_dyn.poly import Poly


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


def rk4_reference(field, y0, dt, t_end, observers=(), t0=0.0, record_stride=1, stop=None):
    """Fixed-step RK4 on numpy arrays with four field calls per step.

    Same recording, stop ("escaped") and non-finite rules as ``rk4_integrate``;
    ``observers`` are ``(name, fn)`` pairs of callables.
    """
    y = np.array(y0, dtype=np.float64)
    dim = y.size
    n_steps = int(np.floor((t_end - t0) / dt + 1e-9))
    ts, rows, obs_rows, flags = [], [], [], []

    def record(step, flag=""):
        ts.append(t0 + step * dt)
        rows.append(y.copy())
        obs_rows.append([fn(y) for _, fn in observers])
        flags.append(flag)

    def build():
        return Trajectory(
            np.array(ts),
            np.array(rows).reshape(len(rows), dim),
            [f"y{i}" for i in range(dim)],
            np.array(obs_rows).reshape(len(obs_rows), len(observers)),
            [name for name, _ in observers],
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
