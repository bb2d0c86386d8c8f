import sys

import numpy as np
import pytest

from helpers import effective_potential, eval_poly, gaussian_moment

from nambu_dyn import closure
from nambu_dyn.closure import (
    ClosureMode,
    build_F,
    reduce_moment,
)
from nambu_dyn.multiplets import QUARTET_QP_Q2P2, TRIPLET_QQPP_QP, multiplet_from_strings
from nambu_dyn.poly import Poly, ValidationError, parse_poly, p, q, xvar

ZC = ClosureMode.ZERO_CUMULANT
IF = ClosureMode.IGNORE_FLUCTUATION


def test_fourth_moment_closures_exact_term_maps():
    assert reduce_moment(4, ZC) == parse_poly("3*x3^2 - 2*x1^4")
    assert reduce_moment(4, IF) == parse_poly("6*x3*x1^2 - 5*x1^4")


def test_reduce_moment_raises_at_the_first_non_finite_coefficient():
    assert all(np.isfinite(c) for c in reduce_moment(269, ZC).terms.values())
    assert all(np.isfinite(c) for c in reduce_moment(700, IF).terms.values())
    for n in (270, 100000):  # the recursion stops at <q^270>, however high n is
        with pytest.raises(ValueError, match=rf"moment order {n}: a coefficient of <q\^270> "):
            reduce_moment(n, ZC)


def test_the_overflow_bound_is_the_least_integer_that_rounds_to_inf():
    assert float(closure._FLOAT_OVERFLOW - 1) == sys.float_info.max
    with pytest.raises(OverflowError):
        float(closure._FLOAT_OVERFLOW)


def test_low_moments_are_multiplet_slots():
    for mode in (ZC, IF):
        assert reduce_moment(0, mode) == Poly.const(1.0)
        assert reduce_moment(1, mode) == Poly.var(xvar(1))
        assert reduce_moment(2, mode) == Poly.var(xvar(3))


def test_third_moment():
    expected = parse_poly("3*x3*x1 - 2*x1^3")
    assert reduce_moment(3, ZC) == expected
    # both modes coincide through n = 3
    assert reduce_moment(3, IF) == expected


def test_zero_cumulant_reproduces_gaussian_moments():
    rng = np.random.default_rng(31)
    for _ in range(10):
        qc = float(rng.uniform(-2, 2))
        var = float(rng.uniform(0.1, 2.0))
        point = {xvar(1): qc, xvar(3): qc * qc + var}
        for n in range(9):
            closed = eval_poly(reduce_moment(n, ZC), point)
            exact = gaussian_moment(n, qc, var)
            assert closed == pytest.approx(exact, rel=1e-10, abs=1e-10)


def test_reduce_moment_rejects_bad_order():
    with pytest.raises(ValueError):
        reduce_moment(-1, ZC)
    with pytest.raises(ValidationError, match="unknown closure mode 'zero-cumulant'"):
        reduce_moment(3, "zero-cumulant")  # the CLI's word, not a ClosureMode


def test_build_F_cubic():
    V = parse_poly("0.5*q^2 + 0.1*q^3")
    F = build_F(V, QUARTET_QP_Q2P2, ZC)
    x1, x3, x4 = (xvar(i) for i in (1, 3, 4))
    assert F.coefficient({x4: 1}) == pytest.approx(0.5)
    assert F.coefficient({x3: 1}) == pytest.approx(0.5)
    assert F.coefficient({x3: 1, x1: 1}) == pytest.approx(0.3)
    assert F.coefficient({x1: 3}) == pytest.approx(-0.2)
    assert len(F.terms) == 4


def test_build_F_harmonic_triplet():
    F = build_F(parse_poly("0.5*q^2"), TRIPLET_QQPP_QP, ZC)
    assert F == parse_poly("0.5*x2 + 0.5*x1")


def test_build_F_henon_heiles_coupling():
    lam, w2 = -0.11, 1.1
    V = (
        0.5 * Poly.var(q(0)) ** 2
        + 0.5 * w2**2 * Poly.var(q(1)) ** 2
        + lam * Poly.var(q(0)) * Poly.var(q(1)) ** 2
    )
    F = build_F(V, QUARTET_QP_Q2P2.with_n_dof(2), ZC, masses=[1.0, 1.0])
    assert F.coefficient({xvar(1, 0): 1, xvar(3, 1): 1}) == pytest.approx(lam)
    assert F.coefficient({xvar(4, 0): 1}) == pytest.approx(0.5)
    assert F.coefficient({xvar(4, 1): 1}) == pytest.approx(0.5)
    assert F.coefficient({xvar(3, 1): 1}) == pytest.approx(0.5 * w2**2)


def test_build_F_reduces_to_classical_hamiltonian():
    # collapsing the fluctuations (x3 = x1^2, x4 = x2^2) recovers H(x1, x2)
    V = parse_poly("0.5*q^2 + 0.1*q^3")
    F = build_F(V, QUARTET_QP_Q2P2, ZC)
    x1, x2 = Poly.var(xvar(1)), Poly.var(xvar(2))
    collapsed = F.subs({xvar(3): x1 * x1, xvar(4): x2 * x2})
    H = 0.5 * x2 * x2 + 0.5 * x1 * x1 + 0.1 * x1**3
    assert set(collapsed.terms) == set(H.terms)
    for mono, c in H.terms.items():
        assert collapsed.terms[mono] == pytest.approx(c, rel=1e-13)


def test_build_F_rejects_momentum_potentials():
    V = Poly.var(q(0)) ** 2 + Poly.var(p(0)) ** 2
    with pytest.raises(ValidationError, match=r"potential may use only \{q0\}; got p0$"):
        build_F(V, QUARTET_QP_Q2P2, ZC)


def test_build_F_rejects_unknown_multiplets():
    weird = multiplet_from_strings(
        "weird", ["q", "p", "q^2", "q^3"], ["x3 - x1^2", "x4 - x1^3"]
    )
    with pytest.raises(ValidationError, match="'weird' has no moment slots"):
        build_F(parse_poly("0.5*q^2"), weird, ZC)
    with pytest.raises(ValidationError, match="need 1 masses, got 2"):
        build_F(parse_poly("0.5*q^2"), QUARTET_QP_Q2P2, ZC, masses=(1.0, 2.0))


def test_build_F_triplet_rejects_anharmonic():
    with pytest.raises(ValidationError, match="the quadratic triplet hosts only q\\^2 potential terms"):
        build_F(parse_poly("0.5*q^2 + 0.1*q^3"), TRIPLET_QQPP_QP, ZC)


def test_effective_potential_cubic():
    V = parse_poly("0.5*q^2 + 0.1*q^3")
    vc = effective_potential(V, np.sqrt(0.5))
    qv = q(0)
    assert vc.coefficient({qv: 2}) == pytest.approx(0.5, rel=1e-13)
    assert vc.coefficient({qv: 3}) == pytest.approx(0.1, rel=1e-13)
    assert vc.coefficient({qv: 1}) == pytest.approx(0.15, rel=1e-13)
    assert vc.coefficient({}) == pytest.approx(0.5, rel=1e-13)


def test_effective_potential_harmonic_limit():
    vc = effective_potential(parse_poly("0.5*q^2"), np.sqrt(0.5))
    assert vc.coefficient({q(0): 2}) == pytest.approx(0.5)
    assert vc.coefficient({}) == pytest.approx(0.5)
    assert vc.coefficient({q(0): 1}) == 0.0
    # the zero-point kinetic term hbar^2/(8 m sigma^2) follows the mass
    heavy = effective_potential(parse_poly("0.5*q^2"), np.sqrt(0.5), mass=2.0)
    assert heavy.coefficient({}) == pytest.approx(0.375, rel=1e-13)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(sigma=float("nan")), "sigma = nan is not a positive finite number"),
        (dict(sigma=float("inf")), "sigma = inf is not a positive finite number"),
        (dict(sigma=0.0), "sigma = 0.0 is not a positive finite number"),
        (dict(sigma=1e-200), "sigma = 1e-200 has a square outside the float range"),
        (dict(sigma=0.7, hbar=float("nan")), "hbar = nan is not a positive finite number"),
        (dict(sigma=0.7, hbar=-1.0), "hbar = -1.0 is not a positive finite number"),
        (dict(sigma=0.7, hbar=0.0), "hbar = 0.0 is not a positive finite number"),
    ],
    ids=["sigma-nan", "sigma-inf", "sigma-zero", "sigma-squares-to-0", "hbar-nan", "hbar-negative", "hbar-zero"],
)
def test_effective_potential_rejects_bad_sigma_and_hbar(kwargs, message):
    with pytest.raises(ValueError, match=message):
        effective_potential(parse_poly("0.5*q^2 + 0.1*q^3"), **kwargs)


def test_effective_potential_stationary_points():
    vc = effective_potential(parse_poly("0.5*q^2 + 0.1*q^3"), np.sqrt(0.5))
    qv = q(0)
    # root-find V_c'(qc) = 0 via the derivative's coefficients
    dv = vc.partial(qv)
    coeffs = [dv.coefficient({qv: 2}), dv.coefficient({qv: 1}), dv.coefficient({})]
    roots = sorted(np.roots(coeffs))
    assert roots[0] == pytest.approx(-3.176, abs=1e-3)
    assert roots[1] == pytest.approx(-0.157, abs=1e-3)


def test_effective_potential_rejects_high_degree():
    with pytest.raises(ValidationError, match="effective potential supports degree <= 3, got 4"):
        effective_potential(parse_poly("q^4"), 0.5)


def test_build_F_checks_masses_and_coefficients():
    V = parse_poly("0.5*q^2")
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"mass of dof 0 = {bad!r} is not a positive"):
            build_F(V, QUARTET_QP_Q2P2, ZC, masses=[bad])
        with pytest.raises(ValueError, match=f"mass of dof 0 = {bad!r} is not a positive"):
            effective_potential(V, 0.5, mass=bad)
    with pytest.raises(ValueError, match=r"potential coefficient of q\^3 = nan is not finite"):
        build_F(V + float("nan") * Poly.var(q(0)) ** 3, QUARTET_QP_Q2P2, ZC)


def test_closure_mode_from_string():
    assert ClosureMode.from_string("zero-cumulant") is ZC
    assert ClosureMode.from_string("ignore_fluctuation") is IF
    with pytest.raises(ValueError):
        ClosureMode.from_string("other")
