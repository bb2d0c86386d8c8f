"""Generated polynomials checked against sympy, an independent computer
algebra system: the model potentials are written out here by hand, brackets
are sympy Jacobian determinants, the consistency contraction a sympy.LeviCivita
sum of them, and closed moments are Gaussian integrals."""

from itertools import combinations, permutations
from math import factorial

import numpy as np
import pytest

from helpers import random_poly

sp = pytest.importorskip("sympy")

from nambu_dyn.brackets import nambu_bracket_poly, poisson_bracket_poly  # noqa: E402
from nambu_dyn.closure import ClosureMode, reduce_moment  # noqa: E402
from nambu_dyn.dynamics import symbolic_flow  # noqa: E402
from nambu_dyn.multiplets import _constraint_contraction  # noqa: E402
from nambu_dyn.poly import Poly, p, q, xvar  # noqa: E402
from nambu_dyn.quantum import Grid, SplitOperatorPropagator  # noqa: E402
from nambu_dyn.scenarios import (  # noqa: E402
    cubic_model,
    hamiltonian_set,
    harmonic_model,
    henon_heiles_model,
    potential_poly,
)
from nambu_dyn.state import x_vars  # noqa: E402


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


def _symbols(variables):
    return {v: sp.Symbol(v.name) for v in variables}


def _to_sympy(poly, syms):
    """A Poly in sympy, each float coefficient as the exact rational it is."""
    return sp.Add(*(
        sp.Rational(c) * sp.Mul(*(syms[v] ** k for v, k in mono))
        for mono, c in poly.terms.items()
    ))


def _worst_coefficient(expr, syms):
    expr = sp.expand(expr)
    if expr == 0:
        return 0.0
    return max(abs(float(c)) for c in sp.Poly(expr, *syms.values()).coeffs())


def _sympy_nambu(fns, syms, layout):
    """Sum over dofs of det(d f_a / d x_i) over that dof's N-plet."""
    N, n_dof = layout
    total = 0
    for dof in range(n_dof):
        xs = [syms[xvar(i, dof)] for i in range(1, N + 1)]
        total += sp.Matrix([[sp.diff(f, x) for x in xs] for f in fns]).det(method="berkowitz")
    return total


@pytest.mark.parametrize(
    "spec",
    [harmonic_model(), cubic_model(), henon_heiles_model()],
    ids=["triplet", "quartet", "henon-heiles-2dof"],
)
def test_nambu_bracket_matches_sympy_determinant(spec):
    # Nambu, Phys. Rev. D 7, 2405 (1973): {f_1, ..., f_N} = det(d f_a / d x_i)
    hset = hamiltonian_set(spec)
    layout = hset.layout
    syms = _symbols(x_vars(layout))
    hams = [_to_sympy(h, syms) for h in hset.hamiltonians]
    for v, component in zip(x_vars(layout), symbolic_flow(hset)):
        want = _sympy_nambu([syms[v], *hams], syms, layout)
        got = nambu_bracket_poly([Poly.var(v), *hset.hamiltonians], layout)
        assert _worst_coefficient(want - _to_sympy(got, syms), syms) < 1e-12
        assert _worst_coefficient(want - _to_sympy(component, syms), syms) < 1e-12
    # a bracket with no unit row: every cofactor of the first row enters
    first, last = x_vars(layout)[0], x_vars(layout)[-1]
    fns = [Poly.var(first) * Poly.var(last) + hset.F, *hset.hamiltonians[1:], hset.F * hset.F]
    want = _sympy_nambu([_to_sympy(f, syms) for f in fns], syms, layout)
    got = nambu_bracket_poly(fns, layout)
    assert _worst_coefficient(want - _to_sympy(got, syms), syms) < 1e-12


@pytest.mark.parametrize("N", [3, 4, 5])
def test_constraint_contraction_matches_sympy_levi_civita(N):
    # (1/(N-2)!) eps_{i j k...} d(G_1, ..., G_{N-2}) / d(x_k, ...), the sum
    # over every ordering of the other columns written out with
    # sympy.LeviCivita and sympy.Matrix.det
    rng = np.random.default_rng(30 + N)
    vs = [xvar(i) for i in range(1, N + 1)]
    syms = _symbols(vs)
    # a power of every variable, a different one per constraint, keeps each
    # minor of the Jacobian nonzero
    gs = [
        random_poly(rng, vs, max_degree=2, n_terms=4)
        + sum((float(rng.uniform(0.5, 1.5)) * Poly.var(v) ** (c + 2) for v in vs), Poly.zero())
        for c in range(N - 2)
    ]
    gs_sym = [_to_sympy(g, syms) for g in gs]
    for i, j in combinations(range(N), 2):
        rest = [k for k in range(N) if k not in (i, j)]
        want = sp.Rational(1, factorial(N - 2)) * sum(
            sp.LeviCivita(i, j, *order)
            * sp.Matrix([[sp.diff(g, syms[vs[k]]) for k in order] for g in gs_sym]).det()
            for order in permutations(rest)
        )
        got = _constraint_contraction(gs, vs, i, j)
        assert not got.is_zero
        assert _worst_coefficient(want - _to_sympy(got, syms), syms) < 1e-12


def test_poisson_bracket_matches_sympy():
    rng = np.random.default_rng(12)
    variables = [q(0), p(0), q(1), p(1)]
    syms = _symbols(variables)
    for _ in range(6):
        A, B = (random_poly(rng, variables, max_degree=3, n_terms=5) for _ in range(2))
        a, b = _to_sympy(A, syms), _to_sympy(B, syms)
        want = sum(
            sp.diff(a, syms[q(d)]) * sp.diff(b, syms[p(d)])
            - sp.diff(a, syms[p(d)]) * sp.diff(b, syms[q(d)])
            for d in range(2)
        )
        got = poisson_bracket_poly(A, B, n_dof=2)
        assert _worst_coefficient(want - _to_sympy(got, syms), syms) < 1e-12


@pytest.mark.parametrize("n", range(7))
def test_zero_cumulant_moment_is_gaussian_integral(n):
    # <q^n> of N(mu, sigma^2) with x1 = mu and x3 = mu^2 + sigma^2
    x, mu = sp.symbols("x mu", real=True)
    sigma = sp.Symbol("sigma", positive=True)
    density = sp.exp(-((x - mu) ** 2) / (2 * sigma**2)) / sp.sqrt(2 * sp.pi * sigma**2)
    want = sp.integrate(x**n * density, (x, -sp.oo, sp.oo))
    syms = _symbols([xvar(1), xvar(3)])
    got = _to_sympy(reduce_moment(n, ClosureMode.ZERO_CUMULANT), syms).subs(
        {syms[xvar(1)]: mu, syms[xvar(3)]: mu**2 + sigma**2}
    )
    assert sp.expand(sp.simplify(want) - got) == 0
