"""Generated polynomials checked against sympy, an independent computer
algebra system: the model potentials are written out here by hand."""

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from nambu_dyn.quantum import Grid, SplitOperatorPropagator  # noqa: E402
from nambu_dyn.scenarios import cubic_model, henon_heiles_model, potential_poly  # noqa: E402


def _hand_potential(spec, qs):
    """The model potential in sympy, from the model's definition."""
    V = sum(sp.Rational(1, 2) * m * w**2 * x**2 for m, w, x in zip(spec.masses, spec.omegas, qs))
    if spec.model_id == "cubic":
        return V + spec.g / 3 * qs[0] ** 3
    return V + spec.lam * qs[0] * qs[1] ** 2


@pytest.mark.parametrize(
    "spec, grid",
    [
        (cubic_model(m=1.5, g=0.3, hbar=0.7), Grid.make_1d(-8.0, 8.0, 256)),
        (
            henon_heiles_model(m1=1.0, m2=2.5, lam=-0.3, hbar=0.7),
            Grid.make_2d((-8.0, 8.0, 64), (-6.0, 6.0, 128)),
        ),
    ],
    ids=["cubic", "henon-heiles"],
)
def test_fourth_order_phases_match_sympy_gradient(spec, grid):
    # Chin's middle potential W = V - (dt^2/48) sum_a (dV/dq_a)^2 / m_a,
    # differentiated by sympy.diff and evaluated by lambdify.
    dt = 0.2
    qs = sp.symbols(f"q0:{grid.ndim}")
    V = _hand_potential(spec, qs)
    W = V - sp.Rational(1, 48) * dt**2 * sum(
        sp.diff(V, x) ** 2 / m for x, m in zip(qs, spec.masses)
    )
    views = [grid.axis_view(grid.coords(axis), axis) for axis in range(grid.ndim)]

    def on_grid(expr):
        return np.broadcast_to(sp.lambdify(qs, expr, "numpy")(*views), grid.shape)

    prop = SplitOperatorPropagator(
        grid, potential_poly(spec), dt, spec.hbar, spec.masses, order=4
    )
    want_mid = np.exp(-2j / 3 * on_grid(W) * dt / spec.hbar)
    want_outer = np.exp(-1j / 6 * on_grid(V) * dt / spec.hbar)
    assert np.max(np.abs(prop.exp_v_mid - want_mid)) < 1e-12
    assert np.max(np.abs(prop.exp_v_half - want_outer)) < 1e-12
