import numpy as np
import pytest

from helpers import (
    det_by_permutations,
    flow_divergence_reference,
    fundamental_identity_reference,
    jacobi_reference,
    nambu_bracket,
    poisson_bracket,
    random_poly,
)

from nambu_dyn.brackets import (
    BracketReport,
    DimensionMismatchError,
    check_fundamental_identity,
    check_jacobi,
    flow_divergence,
    nambu_bracket_poly,
    poisson_bracket_poly,
    reports_to_csv,
    sample_assignments,
)
from nambu_dyn.poly import Poly, UnboundVariableError, ValidationError, p, q, xvar
from nambu_dyn.scenarios import hamiltonian_set, henon_heiles_model
from nambu_dyn.state import Layout, x_vars

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
    state = np.array([1.0, 2.0, 0.5])
    value = nambu_bracket([X1, F_HARM3, G_HARM3], state, TRIPLET_LAYOUT)
    assert value == pytest.approx(1.0, abs=1e-14)


def test_nambu_repeated_entry_vanishes():
    rng = np.random.default_rng(1)
    for _ in range(5):
        state = rng.uniform(-2, 2, 3)
        assert nambu_bracket([F_HARM3, F_HARM3, G_HARM3], state, TRIPLET_LAYOUT) == 0.0


def test_nambu_cubic_momentum_component():
    layout = Layout(4, 1)
    state = np.array([0.0, 1.8, 0.5, 3.74])
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
    # both sides expand to constants, 0 and -lambda, broadcast to every sample
    assert len(reports) == 10
    for r in reports:
        assert r.lhs == 0.0
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


def test_identity_checks_reject_an_empty_sample_list():
    # all(r.residual < tol for r in reports) would pass having checked nothing.
    with pytest.raises(ValidationError, match=r"len\(samples\) = 0 is not an integer >= 1"):
        check_jacobi(Poly.var(q()), Poly.var(p()), Poly.var(q()) * Poly.var(p()), [])
    with pytest.raises(ValidationError, match=r"len\(samples\) = 0 is not an integer >= 1"):
        check_fundamental_identity([X1, X2, X3], [F_HARM3, G_HARM3], [], TRIPLET_LAYOUT)


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
            state = dict(zip(x_vars(layout), rng.uniform(-2, 2, layout.size)))
            assert abs(flow_divergence(hams, state, layout)) < 1e-12


@pytest.mark.parametrize(
    "state", [np.array([1.0, 2.0, 0.5]), [1.0, 2.0, 0.5], np.zeros(7)],
    ids=["ndarray", "list", "wrong_length"],
)
def test_flow_divergence_rejects_a_state_that_is_not_a_mapping(state):
    # The divergence Poly is zero and reads no variable, so without the
    # check a state vector, even of the wrong length, would give 0.0.
    with pytest.raises(TypeError, match="state must be a mapping of x variables"):
        flow_divergence([F_HARM3, G_HARM3], state, TRIPLET_LAYOUT)


def _assert_sides_match(reports, reference):
    assert [r.index for r in reports] == list(range(len(reference)))
    for r, (lhs, rhs) in zip(reports, reference):
        assert abs(r.lhs - lhs) < 1e-10
        assert abs(r.rhs - rhs) < 1e-10


def test_jacobi_matches_point_by_point_reference():
    rng = np.random.default_rng(6)
    vars_ = [q(0), p(0), q(1), p(1)]
    for trial in range(8):
        A1, A2, B = (random_poly(rng, vars_, max_degree=3) for _ in range(3))
        points = sample_assignments(vars_, 5, seed=300 + trial)
        _assert_sides_match(
            check_jacobi(A1, A2, B, points, n_dof=2),
            jacobi_reference(A1, A2, B, points, n_dof=2),
        )


def test_fundamental_identity_matches_lu_reference():
    rng = np.random.default_rng(7)
    layout = Layout(3, 1)
    vars_ = list(x_vars(layout))
    for trial in range(8):
        As = [random_poly(rng, vars_, max_degree=2) for _ in range(3)]
        Bs = [random_poly(rng, vars_, max_degree=2) for _ in range(2)]
        points = sample_assignments(vars_, 5, seed=400 + trial)
        _assert_sides_match(
            check_fundamental_identity(As, Bs, points, layout),
            fundamental_identity_reference(As, Bs, points, layout),
        )
    hset = hamiltonian_set(henon_heiles_model())
    As = [Poly.var(xvar(i, dof)) for i, dof in ((1, 1), (2, 1), (2, 0), (4, 1))]
    Bs = list(hset.hamiltonians)
    points = sample_assignments(x_vars(hset.layout), 10)
    _assert_sides_match(
        check_fundamental_identity(As, Bs, points, hset.layout),
        fundamental_identity_reference(As, Bs, points, hset.layout),
    )


def test_flow_divergence_matches_reference():
    rng = np.random.default_rng(9)
    hh = hamiltonian_set(henon_heiles_model())
    cases = [
        ([F_HARM3, G_HARM3], Layout(3, 1)),
        ([F_CUBIC, G1_Q, G2_Q], Layout(4, 1)),
        (list(hh.hamiltonians), hh.layout),
    ]
    for hams, layout in cases:
        for _ in range(20):
            state = dict(zip(x_vars(layout), rng.uniform(-2, 2, layout.size).tolist()))
            want = flow_divergence_reference(hams, state, layout)
            assert abs(flow_divergence(hams, state, layout) - want) < 1e-10


def test_constant_side_is_broadcast_to_every_sample():
    # {{q, p^2/2}, q} = {p, q} = -1, and so is the right-hand side
    Q, P = Poly.var(q()), Poly.var(p())
    reports = check_jacobi(Q, 0.5 * P * P, Q, sample_assignments([q(), p()], 4))
    assert [(r.index, r.lhs, r.rhs) for r in reports] == [(k, -1.0, -1.0) for k in range(4)]
    assert all(type(r.lhs) is float and type(r.rhs) is float for r in reports)
    assert reports_to_csv(reports).splitlines()[1] == "0,-1.0,-1.0,0.0"


def test_sample_missing_a_variable_is_unbound():
    # {{q0 q1, p0^2}, q0} = -2 q1 needs q1, which the sample lacks
    Q0, Q1, P0 = Poly.var(q(0)), Poly.var(q(1)), Poly.var(p(0))
    points = [{q(0): 1.0, p(0): 2.0, p(1): 0.5}]
    with pytest.raises(UnboundVariableError, match="variable q1 is not bound"):
        check_jacobi(Q0 * Q1, P0 * P0, Q0, points, n_dof=2)
    # here the left-hand side is -8 x2 x3
    point = {xvar(1): 1.0, xvar(3): 2.0}
    with pytest.raises(UnboundVariableError, match="variable x2_0 is not bound"):
        check_fundamental_identity(
            [X1 * X2, X2 * X2, X3], [F_HARM3, G_HARM3], [point], TRIPLET_LAYOUT
        )


def test_reports_csv_format():
    reports = [BracketReport.make(0, 1.0, 2.0)]
    text = reports_to_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0] == "sample_index,lhs,rhs,residual"
    assert lines[1].startswith("0,1.0,2.0,1.0")
