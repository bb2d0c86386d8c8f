"""Generated polynomials checked against sympy, an independent computer
algebra system: the model potentials are written out here by hand, brackets
are sympy Jacobian determinants, the consistency contraction a sympy.LeviCivita
sum of them, closed moments are Gaussian integrals, and F is the expectation
of the potential over a packet with the closure's central moments."""

import dataclasses
from itertools import combinations, permutations
from math import factorial

import numpy as np
import pytest

from helpers import effective_potential, random_poly

sp = pytest.importorskip("sympy")

from nambu_dyn.brackets import nambu_bracket_poly, poisson_bracket_poly  # noqa: E402
from nambu_dyn.closure import ClosureMode, build_F, reduce_moment  # noqa: E402
from nambu_dyn.dynamics import symbolic_flow  # noqa: E402
from nambu_dyn.multiplets import QUARTET_QP_Q2P2, _constraint_contraction  # noqa: E402
from nambu_dyn.poly import Poly, p, parse_poly, q, xvar  # noqa: E402
from nambu_dyn.quantum import Grid, SplitOperatorPropagator  # noqa: E402
from nambu_dyn.scenarios import (  # noqa: E402
    PacketSpec,
    cubic_model,
    hamiltonian_set,
    harmonic_model,
    henon_heiles_model,
    init_nambu_from_packet,
    potential_poly,
    run_scenario,
)
from nambu_dyn.state import Layout, x_vars  # noqa: E402


def _hand_potential(spec, qs):
    """The model potential in sympy, from the model's definition."""
    V = sum(sp.Rational(1, 2) * m * w**2 * x**2 for m, w, x in zip(spec.masses, spec.omegas, qs))
    if spec.model_id == "cubic":
        return V + spec.g / 3 * qs[0] ** 3
    if spec.model_id == "henon_heiles":
        return V + spec.lam * qs[0] * qs[1] ** 2
    return V


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


def test_zero_cumulant_coefficients_are_the_exact_integers_rounded_once():
    # <q^n> = sum_j C(n, 2j) (2j-1)!! x1^(n-2j) (x3 - x1^2)^j, expanded in
    # sympy's ring over the integers: each coefficient is the float nearest
    # the exact one, and there is no term where the exact coefficient is 0.
    _, a, b = sp.ring("x1,x3", sp.ZZ)
    for n in (*range(3, 61), 200):
        exact = sum(
            int(sp.binomial(n, 2 * j) * sp.factorial2(2 * j - 1))
            * a ** (n - 2 * j) * (b - a**2) ** j
            for j in range(n // 2 + 1)
        )
        want = {powers: float(int(c)) for powers, c in exact.terms()}
        got = {tuple(dict(mono).get(xvar(i), 0) for i in (1, 3)): c
               for mono, c in reduce_moment(n, ClosureMode.ZERO_CUMULANT).terms.items()}
        assert got == want, n
    assert len(got) == 100


def _central_moment(k, var, mode):
    """<(q - <q>)^k> of one dof: a Gaussian's (k-1)!! var^(k/2) under the
    zero-cumulant closure; var at k = 2 and 0 above when fluctuations are ignored."""
    if k == 0:
        return 1
    if k % 2:
        return 0
    if mode is ClosureMode.IGNORE_FLUCTUATION:
        return var if k == 2 else 0
    return sp.factorial2(k - 1) * var ** (k // 2)


def _closed_F(V, qs, masses, multiplet, mode, syms):
    """<p^2>/2m plus <V> over a product of per-dof packets, in the multiplet's
    variables. Quartet: mean x1, variance x3 - x1^2, <p^2> = x4, each q_d
    shifted by its mean and every power of the shift replaced by its central
    moment. Triplet: <q^2> = x1, its only position moment, and <p^2> = x2."""
    if multiplet == "triplet":
        closed = sum(
            c * sp.Mul(*({0: 1, 2: syms[xvar(1, d)]}[k] for d, k in enumerate(powers)))
            for powers, c in sp.Poly(sp.expand(V), *qs).terms()
        )
        return closed + sum(syms[xvar(2, d)] / (2 * m) for d, m in enumerate(masses))
    shifts = sp.symbols(f"d0:{len(qs)}")
    shifted = V.subs({x: syms[xvar(1, d)] + shifts[d] for d, x in enumerate(qs)}, simultaneous=True)
    closed = sum(
        c * sp.Mul(*(
            _central_moment(k, syms[xvar(3, d)] - syms[xvar(1, d)] ** 2, mode)
            for d, k in enumerate(powers)
        ))
        for powers, c in sp.Poly(sp.expand(shifted), *shifts).terms()
    )
    return closed + sum(syms[xvar(4, d)] / (2 * m) for d, m in enumerate(masses))


def _hand_constraints(multiplet, syms, n_dof):
    """The G_c summed over dofs, written out from the multiplet's definitions:
    (qp)^2 = q^2 p^2 for the triplet; <q^2> - <q>^2 and <p^2> - <p>^2 for the
    quartet."""
    x = lambda i, d: syms[xvar(i, d)]  # noqa: E731
    if multiplet == "triplet":
        return [sum(2 * x(3, d) ** 2 - 2 * x(1, d) * x(2, d) for d in range(n_dof))]
    return [sum(x(3, d) - x(1, d) ** 2 for d in range(n_dof)),
            sum(x(4, d) - x(2, d) ** 2 for d in range(n_dof))]


@pytest.mark.parametrize("mode", list(ClosureMode), ids=[m.value for m in ClosureMode])
@pytest.mark.parametrize(
    "spec",
    [
        harmonic_model(m=1.5, omega=0.8),
        cubic_model(m=1.5, omega=1.2, g=0.3, hbar=0.7),
        henon_heiles_model(m1=1.0, m2=2.5, lam=-0.3, hbar=0.7),
    ],
    ids=["harmonic-triplet", "cubic-quartet", "henon-heiles-quartet"],
)
def test_hamiltonians_are_the_closed_expectation_of_the_model(spec, mode):
    spec = dataclasses.replace(spec, closure=mode)
    hset = hamiltonian_set(spec)
    syms = _symbols(x_vars(hset.layout))
    qs = sp.symbols(f"q0:{spec.n_dof}")
    want = _closed_F(_hand_potential(spec, qs), qs, spec.masses, spec.multiplet_name, mode, syms)
    assert _worst_coefficient(want - _to_sympy(hset.F, syms), syms) < 1e-12
    wants = _hand_constraints(spec.multiplet_name, syms, spec.n_dof)
    assert len(hset.gs) == len(wants)
    for want_g, got in zip(wants, hset.gs):
        assert sp.expand(want_g - _to_sympy(got, syms)) == 0


@pytest.mark.parametrize("mode", list(ClosureMode), ids=[m.value for m in ClosureMode])
def test_build_F_closes_high_and_cross_moments_like_sympy(mode):
    # per-dof powers up to 6, where the two closures differ, and cross-dof
    # monomials, which factorize over the product packet
    V = parse_poly("0.7*q0^3 + 0.3*q0^4 - 0.2*q0^5*q1 + 0.1*q0^2*q1^4 - 0.4*q0*q1^3 + 0.05*q1^6 - 1.5")
    masses = (1.3, 0.7)
    m = QUARTET_QP_Q2P2.with_n_dof(2)
    syms = _symbols(x_vars(m.layout))
    qs = sp.symbols("q0:2")
    V_sym = _to_sympy(V, dict(zip([q(0), q(1)], qs)))
    want = _closed_F(V_sym, qs, masses, "quartet", mode, syms)
    got = build_F(V, m, mode, masses=masses)
    assert _worst_coefficient(want - _to_sympy(got, syms), syms) < 1e-12


@pytest.mark.parametrize("sigma, hbar, mass", [(0.6, 0.7, 1.5), (1.3, 1.0, 1.0)])
def test_effective_potential_is_the_packet_average_of_V(sigma, hbar, mass):
    # <V> over a Gaussian of width sigma about qc, as a sympy integral, plus
    # the zero-point kinetic energy hbar^2 / (8 m sigma^2)
    V = parse_poly("0.4 - 0.2*q0 + 0.75*q0^2 + 0.1*q0^3")
    syms = _symbols([q(0)])
    qc = syms[q(0)]
    shift = sp.Symbol("d", real=True)
    s = sp.Symbol("sigma", positive=True)
    density = sp.exp(-(shift**2) / (2 * s**2)) / sp.sqrt(2 * sp.pi * s**2)
    shifted = sp.Poly(sp.expand(_to_sympy(V, syms).subs(qc, qc + shift)), shift)
    average = sum(
        c * sp.integrate(shift**k * density, (shift, -sp.oo, sp.oo)) for (k,), c in shifted.terms()
    )
    want = (average + sp.Rational(hbar) ** 2 / (8 * sp.Rational(mass) * s**2)).subs(s, sp.Rational(sigma))
    got = effective_potential(V, sigma, hbar=hbar, mass=mass)
    assert _worst_coefficient(want - _to_sympy(got, syms), syms) < 1e-12


def test_sympy_flow_of_the_cubic_quartet_keeps_the_packet_frozen():
    # Under the Gaussian closure a packet keeps its width (the frozen
    # Gaussian, Heller, J. Chem. Phys. 62, 1544 (1975)): the Nambu flow of the
    # quartet conserves G1 = x3 - x1^2 = sigma^2 and G2 = x4 - x2^2 =
    # hbar^2 / (4 sigma^2). The flow here is built in sympy from the hand-made
    # F and G_c, and DOP853 integrates it as the reference for the RK4 run.
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    spec = cubic_model(m=1.5, g=0.3, hbar=0.7)
    qc, pc, sigma = 0.5, 0.3, 0.8
    layout = Layout(4, 1)
    syms = _symbols(x_vars(layout))
    xs = [syms[xvar(i)] for i in range(1, 5)]
    qs = sp.symbols("q0:1")
    F = _closed_F(_hand_potential(spec, qs), qs, spec.masses, "quartet", spec.closure, syms)
    G = _hand_constraints("quartet", syms, 1)
    flow = [_sympy_nambu([x, F, *G], syms, layout) for x in xs]
    for g in G:
        assert sp.expand(sum(sp.diff(g, x) * f for x, f in zip(xs, flow))) == 0
    s2, zero_point = sigma**2, spec.hbar**2 / (4 * sigma**2)
    y0 = [qc, pc, qc**2 + s2, pc**2 + zero_point]
    assert init_nambu_from_packet(spec, PacketSpec.make(qc, pc, sigma=sigma)).tolist() == y0
    traj = run_scenario(
        spec, PacketSpec.make(qc, pc, sigma=sigma), "nambu", dt=1e-3, t_end=5.0, record_stride=100
    )
    rhs = sp.lambdify(xs, flow)
    ref = solve_ivp(
        lambda _t, y: rhs(*y), (0.0, 5.0), y0, method="DOP853", t_eval=traj.t, rtol=1e-12, atol=1e-12
    ).y
    assert np.max(np.abs(ref[2] - ref[0] ** 2 - s2)) < 1e-10
    assert np.max(np.abs(ref[3] - ref[1] ** 2 - zero_point)) < 1e-10
    assert np.ptp(ref[0]) > 0.5  # the center moves
    assert np.max(np.abs(traj.states - ref.T)) < 1e-9
