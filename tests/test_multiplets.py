import numpy as np
import pytest

from helpers import classical_image, consistency_reference, eval_poly

from nambu_dyn import quantum
from nambu_dyn.multiplets import (
    MOMENTS,
    MalformedMultipletError,
    MultipletDef,
    QUARTET_QP_Q2P2,
    TRIPLET_QQPP_QP,
    builtin_multiplets,
    consistency_to_csv,
    multiplet_from_strings,
    verify_consistency,
)
from nambu_dyn.poly import Poly, p, parse_poly, q, xvar


def test_catalog_has_two_entries():
    catalog = builtin_multiplets()
    assert set(catalog) == {"triplet", "quartet"}


def test_triplet_constraint_vanishes_on_classical_surface():
    qv, pv = 1.3, -0.7
    image = classical_image(TRIPLET_QQPP_QP, {q(): qv, p(): pv})
    g = TRIPLET_QQPP_QP.constraints[0][0]
    x = dict(zip((xvar(1), xvar(2), xvar(3)), image))
    assert eval_poly(g, x) == pytest.approx(0.0, abs=1e-12)


def test_quartet_constraints_at_frozen_gaussian_values():
    # sigma^2 = 0.5 and hbar^2 / 4 sigma^2 = 0.5 with hbar = m = omega = 1
    x = {xvar(1): 0.0, xvar(2): 1.8, xvar(3): 0.5, xvar(4): 3.74}
    g1, g2 = QUARTET_QP_Q2P2.constraints[0]
    assert eval_poly(g1, x) == pytest.approx(0.5, abs=1e-12)
    assert eval_poly(g2, x) == pytest.approx(0.5, abs=1e-12)


def test_classical_closure_random_points():
    rng = np.random.default_rng(17)
    for m in builtin_multiplets().values():
        m2 = m.with_n_dof(2)
        for _ in range(100):
            point = {}
            for dof in range(2):
                point[q(dof)] = float(rng.uniform(-2, 2))
                point[p(dof)] = float(rng.uniform(-2, 2))
            image = classical_image(m2, point)
            for dof in range(2):
                x = {
                    xvar(i, dof): image[dof * m2.N + i - 1]
                    for i in range(1, m2.N + 1)
                }
                for g in m2.constraints[dof]:
                    assert abs(eval_poly(g, x)) < 1e-12


def test_consistency_builtins_pass():
    for m in builtin_multiplets().values():
        reports = verify_consistency(m, samples=50, tolerance=1e-10)
        assert all(r.passed for r in reports)
        assert max(r.max_residual for r in reports) < 1e-10
    # per-dof structure: the two-dof quartet yields reports for both dofs
    reports = verify_consistency(QUARTET_QP_Q2P2.with_n_dof(2), samples=10)
    assert {r.dof for r in reports} == {0, 1}


def test_consistency_detects_missing_x3_term():
    # dropping the x3 term from G1 breaks the (x1, x2) condition by exactly 1
    bad = MultipletDef(
        "bad-quartet",
        4,
        1,
        QUARTET_QP_Q2P2.defs,
        ((parse_poly("x1^2"), QUARTET_QP_Q2P2.constraints[0][1]),),
    )
    reports = verify_consistency(bad)
    by_pair = {(r.i, r.j): r for r in reports}
    assert not by_pair[(1, 2)].passed
    assert by_pair[(1, 2)].max_residual == pytest.approx(1.0, abs=1e-12)


def test_consistency_fails_loudly_for_corrupted_constraint():
    bad = MultipletDef(
        "bad-quartet",
        4,
        1,
        QUARTET_QP_Q2P2.defs,
        ((parse_poly("x3"), QUARTET_QP_Q2P2.constraints[0][1]),),
    )
    reports = verify_consistency(bad)
    failing = [r for r in reports if not r.passed]
    assert failing
    assert max(r.max_residual for r in failing) > 0.1


def _quartet_with_g2(text):
    g1 = QUARTET_QP_Q2P2.constraints[0][0]
    return MultipletDef("bad-quartet", 4, 1, QUARTET_QP_Q2P2.defs, ((g1, parse_poly(text)),))


@pytest.mark.parametrize(
    "m",
    [
        TRIPLET_QQPP_QP,
        QUARTET_QP_Q2P2,
        TRIPLET_QQPP_QP.with_n_dof(2),
        QUARTET_QP_Q2P2.with_n_dof(2),
        MultipletDef(
            "bad-quartet", 4, 1, QUARTET_QP_Q2P2.defs,
            ((parse_poly("x1^2"), QUARTET_QP_Q2P2.constraints[0][1]),),
        ),
        _quartet_with_g2("x4 - 2*x2^2"),
    ],
    ids=["triplet", "quartet", "triplet-2dof", "quartet-2dof", "no-x3", "g2-doubled"],
)
def test_consistency_matches_point_by_point_reference(m):
    # one residual Poly per pair on the sample columns, against the
    # contraction at each image and the bracket at each point by eval_poly
    reports = verify_consistency(m, samples=20, seed=11)
    want = consistency_reference(m, 20, seed=11)
    assert [(r.dof, r.i, r.j) for r in reports] == list(want)
    for r in reports:
        assert abs(r.max_residual - want[(r.dof, r.i, r.j)]) < 1e-10


@pytest.mark.parametrize("samples", [0, -3])
def test_consistency_needs_a_sample(samples):
    # with no sample every condition would pass unchecked
    bad = _quartet_with_g2("x4 - 2*x2^2")
    with pytest.raises(ValueError, match=f"samples = {samples} is not an integer >= 1"):
        verify_consistency(bad, samples=samples)
    assert not all(r.passed for r in verify_consistency(bad, samples=5))


def test_malformed_multiplet_shapes():
    with pytest.raises(MalformedMultipletError):
        MultipletDef("bad", 4, 1, QUARTET_QP_Q2P2.defs, ((parse_poly("x3 - x1^2"),),))
    with pytest.raises(MalformedMultipletError):
        MultipletDef(
            "bad",
            3,
            1,
            ((Poly.var(q()), Poly.var(q()), Poly.var(q())),),
            ((parse_poly("x1"),),),
        )
    # A template's definitions lie in q0, p0 and its constraints in its own x.
    with pytest.raises(MalformedMultipletError, match="definitions .* got q1$"):
        multiplet_from_strings("bad", ["q", "p", "q1^2"], ["x3 - x1^2"])
    with pytest.raises(MalformedMultipletError, match="constraints .* got x4_0$"):
        multiplet_from_strings("bad", ["q^2", "p^2", "q*p"], ["2*x4^2 - 2*x1*x2"])
    defs, constraints = QUARTET_QP_Q2P2.defs, QUARTET_QP_Q2P2.constraints
    for args, message in [
        ((2, 1, ((Poly.var(q()), Poly.var(p())),), ((),)), "needs N >= 3"),
        ((4, 0, (), ()), "n_dof must be >= 1"),
        ((4, 2, defs, constraints), "defs/constraints must list every dof"),
        ((4, 1, (defs[0][:3],), constraints), "dof 0: expected 4 variable definitions"),
    ]:
        with pytest.raises(MalformedMultipletError, match=message):
            MultipletDef("bad", *args)
    with pytest.raises(MalformedMultipletError, match="with_n_dof expects a single-dof template"):
        QUARTET_QP_Q2P2.with_n_dof(2).with_n_dof(3)


@pytest.mark.parametrize(
    "constraints",
    [["x3 - x1^2", "x4 - 3*x3*x1 + 2*x1^3"], ["x3 - x1^2", "x4 - x1^3"]],
    ids=["cumulant", "classical"],
)
def test_consistency_of_a_cubic_generator_multiplet(constraints):
    # Both constraint choices for x4 = q^3 satisfy the conditions: the
    # zero-third-cumulant one and the classically equivalent x1^3.
    m = multiplet_from_strings("qp-q2-q3", ["q", "p", "q^2", "q^3"], constraints)
    assert all(r.passed for r in verify_consistency(m))


def test_with_n_dof_replicates_template():
    m = QUARTET_QP_Q2P2.with_n_dof(3)
    assert m.n_dof == 3
    assert m.defs[2][0] == Poly.var(q(2))
    assert m.constraints[1][0] == parse_poly("x3_1 - x1_1^2")
    summed = m.summed_constraints()
    assert len(summed) == 2
    assert summed[0] == parse_poly("x3_0 - x1_0^2 + x3_1 - x1_1^2 + x3_2 - x1_2^2")


def test_consistency_csv():
    reports = verify_consistency(TRIPLET_QQPP_QP, samples=5)
    text = consistency_to_csv(reports)
    assert text.splitlines()[0] == "dof,i,j,max_residual,pass"
    assert len(text.splitlines()) == 4


@pytest.mark.parametrize("n_dof", [1, 2])
def test_moments_name_each_slot(n_dof):
    assert QUARTET_QP_Q2P2.with_n_dof(n_dof).moments == ("q", "p", "q2", "p2")
    assert TRIPLET_QQPP_QP.with_n_dof(n_dof).moments == ("q2", "p2", "qp_sym")


def test_moments_are_the_grid_row_kinds():
    assert set(MOMENTS.values()) == set(quantum._MOMENTS)


def test_moments_none_where_a_slot_is_no_moment_or_dofs_disagree():
    cubic = multiplet_from_strings("cubic", ["q", "p", "q^2", "q^3"], ["x3 - x1^2", "x4 - x1^3"])
    assert cubic.moments == ("q", "p", "q2", None)
    scaled = multiplet_from_strings("scaled", ["2*q", "p", "q^2", "p^2"], ["x3", "x4"])
    assert scaled.moments == (None, "p", "q2", "p2")
    quartets = QUARTET_QP_Q2P2.with_n_dof(2)
    q1, p1 = Poly.var(q(1)), Poly.var(p(1))
    mixed = MultipletDef(
        "mixed", 4, 2, (quartets.defs[0], (q1, p1, q1 * q1, q1 * p1)), quartets.constraints
    )
    assert mixed.moments == ("q", "p", "q2", None)
