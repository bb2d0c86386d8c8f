import numpy as np
import pytest

from helpers import det_by_permutations, random_poly

from nambu_dyn.brackets import (
    BracketReport,
    DimensionMismatchError,
    check_fundamental_identity,
    check_jacobi,
    flow_divergence,
    nambu_bracket,
    nambu_bracket_poly,
    poisson_bracket,
    poisson_bracket_poly,
    reports_to_csv,
    sample_assignments,
)
from nambu_dyn.poly import Poly, p, q, xvar
from nambu_dyn.scenarios import hamiltonian_set, henon_heiles_model
from nambu_dyn.state import Layout, NambuState, x_vars

TRIPLET_LAYOUT = Layout(3, 1)
X1, X2, X3, X4 = (Poly.var(xvar(i)) for i in (1, 2, 3, 4))

# Hamiltonians of the two desk models, written out directly.
F_HARM3 = 0.5 * X2 + 0.5 * X1
G_HARM3 = 2.0 * X3 * X3 - 2.0 * X1 * X2
F_CUBIC = 0.5 * X4 + 0.5 * X3 + 0.1 * (3.0 * X3 * X1 - 2.0 * X1**3)
G1_Q = X3 - X1 * X1
G2_Q = X4 - X2 * X2


def test_poisson_square_pair():
    A = Poly.var(q()) ** 2
    B = Poly.var(p()) ** 2
    point = {q(): 2.0, p(): 3.0}
    assert poisson_bracket(A, B, point) == 24.0
    # symbolic oracle: {q^2, p^2} = 4 q p
    assert poisson_bracket_poly(A, B) == 4.0 * Poly.var(q()) * Poly.var(p())


def test_poisson_canonical_pair_and_antisymmetry():
    rng = np.random.default_rng(0)
    for _ in range(5):
        point = {q(): float(rng.uniform(-2, 2)), p(): float(rng.uniform(-2, 2))}
        assert poisson_bracket(Poly.var(q()), Poly.var(p()), point) == 1.0
        qp = Poly.var(q()) * Poly.var(p())
        assert poisson_bracket(qp, qp, point) == 0.0


def test_nambu_triplet_value():
    state = NambuState(np.array([1.0, 2.0, 0.5]), TRIPLET_LAYOUT)
    value = nambu_bracket([X1, F_HARM3, G_HARM3], state, TRIPLET_LAYOUT)
    assert value == pytest.approx(1.0, abs=1e-14)


def test_nambu_repeated_entry_vanishes():
    rng = np.random.default_rng(1)
    for _ in range(5):
        state = NambuState(rng.uniform(-2, 2, 3), TRIPLET_LAYOUT)
        assert nambu_bracket([F_HARM3, F_HARM3, G_HARM3], state, TRIPLET_LAYOUT) == 0.0


def test_nambu_cubic_momentum_component():
    layout = Layout(4, 1)
    state = NambuState(np.array([0.0, 1.8, 0.5, 3.74]), layout)
    value = nambu_bracket([X2, F_CUBIC, G1_Q, G2_Q], state, layout)
    assert value == pytest.approx(-0.15, abs=1e-12)


def test_nambu_dimension_mismatch():
    layout = Layout(3, 1)
    with pytest.raises(DimensionMismatchError):
        nambu_bracket([X1, X2, X4], np.zeros(3), layout)
    with pytest.raises(DimensionMismatchError):
        nambu_bracket([X1, X2], np.zeros(3), layout)


def test_nambu_antisymmetry_random():
    rng = np.random.default_rng(2)
    layout = Layout(4, 1)
    vars_ = list(x_vars(layout))
    for _ in range(10):
        fns = [random_poly(rng, vars_, max_degree=2) for _ in range(4)]
        state = rng.uniform(-2, 2, 4)
        base = nambu_bracket(fns, state, layout)
        swapped = [fns[1], fns[0], fns[2], fns[3]]
        value = nambu_bracket(swapped, state, layout)
        assert value == pytest.approx(-base, rel=1e-12, abs=1e-12)


def test_nambu_linearity_random():
    rng = np.random.default_rng(3)
    layout = Layout(3, 1)
    vars_ = list(x_vars(layout))
    for _ in range(10):
        f1, f2, g, h = (random_poly(rng, vars_, max_degree=2) for _ in range(4))
        a, b = rng.uniform(-2, 2, 2)
        state = rng.uniform(-2, 2, 3)
        combo = nambu_bracket([a * f1 + b * f2, g, h], state, layout)
        split = a * nambu_bracket([f1, g, h], state, layout) + b * nambu_bracket(
            [f2, g, h], state, layout
        )
        assert combo == pytest.approx(split, rel=1e-12, abs=1e-12)


def test_symbolic_matches_numeric():
    rng = np.random.default_rng(4)
    layout = Layout(4, 2)
    vars_ = list(x_vars(layout))
    for _ in range(5):
        fns = [random_poly(rng, vars_, max_degree=2) for _ in range(4)]
        expanded = nambu_bracket_poly(fns, layout)
        state = rng.uniform(-2, 2, 8)
        symbolic = expanded.eval(dict(zip(vars_, state)))
        numeric = nambu_bracket(fns, state, layout)
        assert symbolic == pytest.approx(numeric, rel=1e-10, abs=1e-10)


def test_numeric_determinant_against_permutation_oracle():
    rng = np.random.default_rng(5)
    layout = Layout(4, 1)
    vars_ = list(x_vars(layout))
    for _ in range(5):
        fns = [random_poly(rng, vars_, max_degree=2) for _ in range(4)]
        state = rng.uniform(-2, 2, 4)
        point = dict(zip(vars_, state))
        jac = np.array([[f.partial(v).eval(point) for v in vars_] for f in fns])
        assert nambu_bracket(fns, state, layout) == pytest.approx(
            det_by_permutations(jac), rel=1e-11, abs=1e-11
        )


def test_jacobi_canonical_polys():
    A1 = Poly.var(q()) ** 2
    A2 = Poly.var(p()) ** 2
    B = Poly.var(q()) * Poly.var(p())
    points = sample_assignments([q(), p()], 10)
    reports = check_jacobi(A1, A2, B, points)
    assert all(r.residual < 1e-9 for r in reports)


def test_jacobi_degenerate():
    A = Poly.var(q())
    reports = check_jacobi(A, A, Poly.var(p()), sample_assignments([q(), p()], 3))
    assert all(r.lhs == 0.0 and r.rhs == 0.0 for r in reports)


def test_jacobi_random_two_dof():
    rng = np.random.default_rng(6)
    vars_ = [q(0), p(0), q(1), p(1)]
    for trial in range(8):
        A1, A2, B = (random_poly(rng, vars_, max_degree=3) for _ in range(3))
        points = sample_assignments(vars_, 5, seed=300 + trial)
        reports = check_jacobi(A1, A2, B, points, n_dof=2)
        assert all(r.residual < 1e-9 for r in reports)


def test_fundamental_identity_single_multiplet():
    rng = np.random.default_rng(7)
    layout = Layout(3, 1)
    vars_ = list(x_vars(layout))
    for trial in range(8):
        As = [random_poly(rng, vars_, max_degree=2) for _ in range(3)]
        Bs = [random_poly(rng, vars_, max_degree=2) for _ in range(2)]
        points = sample_assignments(vars_, 5, seed=400 + trial)
        reports = check_fundamental_identity(As, Bs, points, layout)
        assert all(r.residual < 1e-8 for r in reports)


def test_fundamental_identity_henon_heiles_violation():
    spec = henon_heiles_model()
    hset = hamiltonian_set(spec)
    layout = hset.layout
    As = [
        Poly.var(xvar(1, 1)),
        Poly.var(xvar(2, 1)),
        Poly.var(xvar(2, 0)),
        Poly.var(xvar(4, 1)),
    ]
    points = sample_assignments(x_vars(layout), 10)
    reports = check_fundamental_identity(As, list(hset.hamiltonians), points, layout)
    for r in reports:
        assert abs(r.lhs) < 1e-12
        assert r.rhs == pytest.approx(0.11, abs=1e-12)
        assert r.residual == pytest.approx(0.11, abs=1e-12)


def test_fundamental_identity_duplicate_arguments():
    layout = Layout(3, 1)
    vars_ = list(x_vars(layout))
    rng = np.random.default_rng(8)
    A = random_poly(rng, vars_, max_degree=2)
    B = random_poly(rng, vars_, max_degree=2)
    As = [A, A, random_poly(rng, vars_, max_degree=2)]
    Bs = [B, random_poly(rng, vars_, max_degree=2)]
    reports = check_fundamental_identity(As, Bs, sample_assignments(vars_, 5), layout)
    for r in reports:
        assert abs(r.lhs) < 1e-12
        assert abs(r.rhs) < 1e-12


def test_fundamental_identity_shape_errors():
    layout = Layout(3, 1)
    with pytest.raises(DimensionMismatchError):
        check_fundamental_identity([X1, X2], [X1, X2], [], layout)


def test_flow_divergence_builtins():
    rng = np.random.default_rng(9)
    cases = [
        ([F_HARM3, G_HARM3], Layout(3, 1)),
        ([F_CUBIC, G1_Q, G2_Q], Layout(4, 1)),
    ]
    hh = hamiltonian_set(henon_heiles_model())
    cases.append((list(hh.hamiltonians), hh.layout))
    for hams, layout in cases:
        for _ in range(20):
            state = rng.uniform(-2, 2, layout.size)
            assert abs(flow_divergence(hams, state, layout)) < 1e-12


def test_reports_csv_format():
    reports = [BracketReport.make(0, 1.0, 2.0)]
    text = reports_to_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0] == "sample_index,lhs,rhs,residual"
    assert lines[1].startswith("0,1.0,2.0,1.0")
