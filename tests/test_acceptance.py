"""Acceptance gate: every shipping criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run with ``pytest -s`` to see
them all).  Criterion 5's energy exchange is checked row by row against an
independent DOP853 integration of the Henon-Heiles packet-center equations,
with a lam = 0 control showing that the exchange comes from the coupling.
No fixed floor is put on the exchange span: the span is set by the model's
parameters, and a floor of 0.1 is not reached even by the exact grid
dynamics.  README "Known results" prints the measured numbers, and each
test asserts the ones it measures at their printed digits (``printed``).
"""

import math
import re
import time

import numpy as np
import pytest

from helpers import (
    cubic_center_crossing,
    gaussian_moment,
    henon_heiles_mode_energies,
    mode_energies,
    nambu_bracket,
    random_poly,
    readme_section,
)

from nambu_dyn.brackets import check_fundamental_identity, sample_assignments
from nambu_dyn.closure import (
    ClosureMode,
    effective_potential,
    reduce_moment,
)
from nambu_dyn.dynamics import compile_nambu_field, conserved_drift, rk4_integrate
from nambu_dyn.multiplets import (
    MultipletDef,
    QUARTET_QP_Q2P2,
    builtin_multiplets,
    verify_consistency,
)
from nambu_dyn.poly import Poly, parse_poly, q, xvar
from nambu_dyn.quantum import Grid, SplitOperatorPropagator, expect, init_gaussian
from nambu_dyn.scenarios import (
    PacketSpec,
    compare,
    cubic_model,
    hamiltonian_set,
    harmonic_model,
    henon_heiles_model,
    init_nambu_from_packet,
    mode_energy_series,
    run_scenario,
)
from nambu_dyn.state import Layout, x_vars


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


def printed(*phrases: str) -> None:
    """README "Known results" prints each phrase, a measured value formatted
    at its printed digits in its context.  Line breaks, the minus sign and
    exponent padding (1.2e-08 against 1.2e-8) read alike."""
    def norm(text: str) -> str:
        return re.sub(r"(\de[+-])0+(\d)", r"\1\2", " ".join(text.replace("\u2212", "-").split()))

    section = norm(readme_section("Known results"))
    for phrase in phrases:
        assert norm(phrase) in section, f'README "Known results" does not print {phrase!r}'


# The grid's split step, as README names it.
SPLIT_STEPS = {"2": "Strang steps", "4": "Chin's fourth-order steps"}


@pytest.fixture(scope="module")
def cubic_nambu():
    spec = cubic_model()
    start = time.perf_counter()
    traj = run_scenario(
        spec, PacketSpec.make(0.0, 1.8), "nambu", dt=1e-3, t_end=40.0, record_stride=1
    )
    return traj, time.perf_counter() - start


@pytest.fixture(scope="module")
def hh_nambu():
    spec = henon_heiles_model()
    start = time.perf_counter()
    traj = run_scenario(
        spec,
        PacketSpec.make((0.0, 1.0), (0.0, 1.0)),
        "nambu",
        dt=1e-3,
        t_end=100.0,
        record_stride=1,
    )
    return traj, time.perf_counter() - start


# ---------------------------------------------------------------------------
# 1. Harmonic exactness: triplet flow vs grid quantum over t in [0, 20]
# ---------------------------------------------------------------------------


def test_criterion_1_harmonic_exactness():
    spec = harmonic_model()
    packet = PacketSpec.make(1.0, 0.0)
    start = time.perf_counter()
    nambu = run_scenario(spec, packet, "nambu", dt=1e-3, t_end=20.0, record_stride=10)
    quantum = run_scenario(
        spec, packet, "quantum", dt=1e-3, t_end=20.0, record_stride=10,
        grid=Grid.make_1d(-10.0, 10.0, 2048),
    )
    elapsed = time.perf_counter() - start
    stats = compare(nambu, quantum, ["x1_0", "x2_0", "x3_0"])
    worst = max(s.max_abs for s in stats.values())
    ok = worst < 1e-3 and elapsed < 60.0
    report("1 (harmonic exactness)", ok,
           f"max abs err {worst:.2e} (gate 1e-3), runtime {elapsed:.1f}s (gate 60s)")
    assert worst < 1e-3
    assert worst < 1e-4  # the harmonic comparison holds a tighter bound too
    assert elapsed < 60.0
    printed(f"Over t ∈ [0, {nambu.t[-1]:g}] the N=3 Nambu trajectory matches the grid quantum "
            f"expectation values to {worst:.1e} (gate 1e-3, and 1e-4 in the benchmark)",
            f"The grid takes {SPLIT_STEPS[quantum.meta['split_order']]} of "
            f"{float(quantum.meta['quantum_dt']):g}")


# ---------------------------------------------------------------------------
# 2. Conservation of (F, G1, G2) on the cubic and Henon-Heiles flows
# ---------------------------------------------------------------------------


def test_criterion_2_conservation_cubic(cubic_nambu):
    traj, elapsed = cubic_nambu
    drifts = conserved_drift(traj)
    worst = max(d.max_abs for d in drifts.values())
    ok = worst < 1e-8 and elapsed < 30.0
    report("2 (cubic conservation)", ok,
           f"max drift {worst:.2e} (gate 1e-8), runtime {elapsed:.1f}s (gate 30s)")
    assert worst < 1e-8
    assert elapsed < 30.0
    assert traj.flags[-1] == "escaped"
    printed(f"drift by at most {worst:.1e} on the cubic run, up to its escape")


def test_criterion_2_conservation_henon_heiles(hh_nambu):
    traj, elapsed = hh_nambu
    drifts = conserved_drift(traj)
    worst = max(d.max_abs for d in drifts.values())
    ok = worst < 1e-8 and elapsed < 30.0
    report("2 (Henon-Heiles conservation)", ok,
           f"max drift {worst:.2e} (gate 1e-8), runtime {elapsed:.1f}s (gate 30s)")
    assert worst < 1e-8
    assert elapsed < 30.0
    printed(f"and by {worst:.1e} on Henon–Heiles over t ≤ {traj.t[-1]:g} (gate 1e-8)")


# ---------------------------------------------------------------------------
# 3. Tunneling dichotomy in the metastable cubic potential
# ---------------------------------------------------------------------------


def _cubic_crossing(traj):
    """The time of the first Nambu row below q = -3.3, and the crossing time
    linear between the stride-1 rows around it."""
    x1 = traj.column("x1_0")
    crossed = x1 < -3.3
    assert crossed.any()
    k = int(np.argmax(crossed))
    t_lin = traj.t[k - 1] + (traj.t[k] - traj.t[k - 1]) * (x1[k - 1] + 3.3) / (x1[k - 1] - x1[k])
    return traj.t[k], t_lin


def test_criterion_3_tunneling_dichotomy(cubic_nambu):
    t_cross, _ = _cubic_crossing(cubic_nambu[0])
    classical = run_scenario(
        cubic_model(), PacketSpec.make(0.0, 1.8), "classical",
        dt=1e-3, t_end=200.0, record_stride=10,
    )
    q_min = classical.column("x1_0").min()
    ok = t_cross < 40.0 and q_min > -3.3
    report("3 (tunneling dichotomy)", ok,
           f"flow crosses -3.3 at t={t_cross:.2f} (<40); "
           f"classical min q {q_min:.3f} stays above -3.3")
    assert t_cross < 40.0
    assert q_min > -3.3

    # supporting energetics from 1D root finding
    vpoly = parse_poly("0.5*q^2 + 0.1*q^3")
    dv = vpoly.partial(q(0))
    roots = np.roots([dv.coefficient({q(0): 2}), dv.coefficient({q(0): 1}),
                      dv.coefficient({})])
    q_top = min(roots)
    barrier = vpoly.eval({q(0): float(q_top)})
    energy = 1.8**2 / 2.0
    assert q_top == pytest.approx(-10.0 / 3.0, abs=1e-12)
    assert barrier == pytest.approx(1.852, abs=1e-3)
    assert energy == pytest.approx(1.62, abs=1e-12)
    assert energy < barrier

    vc = effective_potential(vpoly, math.sqrt(0.5))
    dvc = vc.partial(q(0))
    roots_c = np.roots([dvc.coefficient({q(0): 2}), dvc.coefficient({q(0): 1}),
                        dvc.coefficient({})])
    qc_top = min(roots_c)
    barrier_c = vc.eval({q(0): float(qc_top)})
    hset = hamiltonian_set(cubic_model())
    y0 = init_nambu_from_packet(cubic_model(), PacketSpec.make(0.0, 1.8))
    f0 = hset.F.eval(dict(zip(x_vars(hset.layout), y0.tolist())))
    assert qc_top == pytest.approx(-3.176, abs=1e-3)
    assert barrier_c == pytest.approx(1.864, abs=1e-3)
    assert f0 == pytest.approx(2.12, abs=1e-12)
    assert f0 > barrier_c
    report("3 (barrier energetics)", True,
           f"classical barrier {barrier:.3f} > energy {energy:.3f}; "
           f"effective barrier {barrier_c:.3f} (top {qc_top:.3f}) < extended energy {f0:.3f}")
    printed(f"(energy {energy:.2f}, barrier {barrier:.3f} at q = −10/3)",
            f"lower barrier ({barrier_c:.3f} at q_c = {qc_top:.3f}, against extended energy "
            f"{f0:.2f}) and crosses q = −3.3 at t ≈ {t_cross:.1f}")


def test_criterion_3_crossing_time_matches_dop853(cubic_nambu):
    # DOP853 on the frozen-Gaussian center equation (g = 0.3, s^2 = hbar/2mw
    # = 0.5) is the oracle; without scipy only this part of criterion 3 skips.
    pytest.importorskip("scipy")
    _, t_lin = _cubic_crossing(cubic_nambu[0])
    t_oracle = cubic_center_crossing(0.0, 1.8, g=0.3, s2=0.5, level=-3.3)
    ok = abs(t_lin - t_oracle) < 1e-6
    report("3 (crossing time)", ok,
           f"flow crosses -3.3 {t_lin - t_oracle:+.1e} from DOP853's {t_oracle:.8f} (gate 1e-6)")
    assert abs(t_lin - t_oracle) < 1e-6
    printed("q̈ = −(q + g(q² + σ²)), g = 0.3, σ² = 0.5,",
            f"crosses at t = {t_oracle:.8f}",
            f"cross {t_oracle - t_lin:.1e} earlier (gate 1e-6)")


# ---------------------------------------------------------------------------
# 4. Fundamental-identity violation for interacting multiplets
# ---------------------------------------------------------------------------


def test_criterion_4_fundamental_identity():
    spec = henon_heiles_model()
    hset = hamiltonian_set(spec)
    layout = hset.layout
    As = [
        Poly.var(xvar(1, 1)),
        Poly.var(xvar(2, 1)),
        Poly.var(xvar(2, 0)),
        Poly.var(xvar(4, 1)),
    ]
    points = sample_assignments(x_vars(layout), 20)
    reports = check_fundamental_identity(As, list(hset.hamiltonians), points, layout)
    worst_lhs = max(abs(r.lhs) for r in reports)
    worst_rhs = max(abs(r.rhs - 0.11) for r in reports)
    ok = worst_lhs < 1e-12 and worst_rhs < 1e-12
    report("4 (fundamental-identity violation)", ok,
           f"|lhs| <= {worst_lhs:.1e} (gate 1e-12), |rhs-0.11| <= {worst_rhs:.1e} (gate 1e-12)")
    assert worst_lhs < 1e-12
    assert worst_rhs < 1e-12
    assert reports[0].rhs == pytest.approx(-spec.lam, abs=1e-12)

    rng = np.random.default_rng(77)
    layout3 = Layout(3, 1)
    vars3 = list(x_vars(layout3))
    worst = 0.0
    for trial in range(10):
        As3 = [random_poly(rng, vars3, max_degree=2) for _ in range(3)]
        Bs3 = [random_poly(rng, vars3, max_degree=2) for _ in range(2)]
        pts = sample_assignments(vars3, 5, seed=500 + trial)
        reps = check_fundamental_identity(As3, Bs3, pts, layout3)
        worst = max(worst, max(r.residual for r in reps))
    ok2 = worst < 1e-8
    report("4 (single-multiplet identity)", ok2,
           f"max residual {worst:.1e} over random N=3 instances (gate 1e-8)")
    assert worst < 1e-8
    printed(f"fails with lhs = {worst_lhs:.0f} and rhs = {reports[0].rhs:.2f} = −λ at every "
            "sampled state (gate 1e-12), while single-multiplet instances satisfy it to < 1e-8")


# ---------------------------------------------------------------------------
# 5. Zero-point energy, grid agreement, energy exchange
# ---------------------------------------------------------------------------


def test_criterion_5_zero_point_energies(hh_nambu):
    traj, _ = hh_nambu
    spec = henon_heiles_model()
    E = mode_energy_series(traj, spec)
    e1_err = abs(E[0, 0] - 0.5)
    e2_err = abs(E[0, 1] - 1.655)
    grid = Grid.make_2d((-8.0, 8.0, 256), (-8.0, 8.0, 256))
    wf = init_gaussian(
        grid, (0.0, 1.0), (0.0, 1.0), (math.sqrt(0.5), math.sqrt(1 / 2.2))
    )
    g1, g2 = mode_energies(wf, (1.0, 1.0, 1.0, 1.1))
    grid_err = max(abs(g1 - E[0, 0]), abs(g2 - E[0, 1]))
    ok = e1_err < 1e-12 and e2_err < 1e-12 and grid_err < 1e-5
    report("5 (zero-point energies)", ok,
           f"E1(0) err {e1_err:.1e}, E2(0) err {e2_err:.1e} (gates 1e-12); "
           f"grid agreement {grid_err:.1e} (gate 1e-5)")
    assert e1_err < 1e-12
    assert e2_err < 1e-12
    assert grid_err < 1e-5
    assert grid_err < 1e-12  # README's claim
    printed(f"start at E₁ = {E[0, 0]:.1f} = ħω₁/2 and E₂ = {E[0, 1]:.3f} (gate 1e-12), and "
            "the 2D grid's match them to < 1e-12")


def test_criterion_5_energy_exchange_range(hh_nambu):
    # The exchange amplitude is set by the model's parameters (even the exact
    # 2D grid propagation stays below 0.1, see the next test, so a floor such
    # as 0.1 is no property of the model).  The Nambu mode energies are therefore checked
    # row by row against an independent integration of the same physics.  The
    # oracle takes README's defaults as literals, so a changed default in
    # henon_heiles_model() is caught too.
    pytest.importorskip("scipy")
    traj, _ = hh_nambu
    E = mode_energy_series(traj, henon_heiles_model())
    E_ref = henon_heiles_mode_energies(
        traj.t, (0.0, 1.0), (0.0, 1.0), omegas=(1.0, 1.1), lam=-0.11
    )
    err = float(np.max(np.abs(E - E_ref)))
    spans = np.ptp(E, axis=0)
    ref_spans = np.ptp(E_ref, axis=0)
    span_err = float(np.max(np.abs(spans - ref_spans)))

    # coupling control: without the lam q1 q2^2 term no energy moves
    spec0 = henon_heiles_model(lam=0.0)
    decoupled = run_scenario(
        spec0, PacketSpec.make((0.0, 1.0), (0.0, 1.0)), "nambu",
        dt=1e-3, t_end=100.0, record_stride=100,
    )
    spans0 = np.ptp(mode_energy_series(decoupled, spec0), axis=0)

    ok = err < 1e-9 and span_err < 1e-9 and spans0.max() < 1e-10
    report("5 (energy-exchange range)", ok,
           f"E1/E2 spans {spans[0]:.6f}/{spans[1]:.6f}, DOP853 oracle "
           f"{ref_spans[0]:.6f}/{ref_spans[1]:.6f}; max |E - E_oracle| {err:.1e}, "
           f"span err {span_err:.1e} (gates 1e-9); lam = 0 spans "
           f"{spans0[0]:.1e}/{spans0[1]:.1e} (gate 1e-10)")
    assert err < 1e-9
    assert span_err < 1e-9
    assert spans0.max() < 1e-10
    printed(f"Over t ∈ [0, {traj.t[-1]:g}] the Nambu mode energies span "
            f"**{spans[0]:.4f} (mode 1) and {spans[1]:.4f} (mode 2)**",
            f"agree with the Nambu flow to {err:.0e} at every row (gate 1e-9)",
            "With λ = 0 both spans fall below 1e-10")


def test_criterion_5_classical_offset_and_quantum_rms(hh_nambu):
    traj, _ = hh_nambu
    spec = henon_heiles_model()
    packet = PacketSpec.make((0.0, 1.0), (0.0, 1.0))
    classical = run_scenario(spec, packet, "classical", dt=1e-3, t_end=100.0,
                             record_stride=100)
    Ec = mode_energy_series(classical, spec)
    En = mode_energy_series(traj, spec)
    gap1 = En[0, 0] - Ec[0, 0]
    gap2 = En[0, 1] - Ec[0, 1]
    ok = abs(gap2 - 0.55) < 1e-12 and abs(gap1 - 0.5) < 1e-12
    report("5 (classical zero-point offset)", ok,
           f"mode-1 gap {gap1:.3f} (= hw1/2), mode-2 gap {gap2:.3f} (= hw2/2) at t=0")
    assert gap1 == pytest.approx(0.5, abs=1e-12)
    assert gap2 == pytest.approx(0.55, abs=1e-12)
    printed(f"miss exactly the ħω/2 offsets, {gap1:.1f} and {gap2:.2f}")

    # deviation from the exact grid propagation: reported, not gated; rows
    # every 0.1, where README prints the grid's spans
    quantum = run_scenario(
        spec, packet, "quantum", dt=0.02, t_end=100.0, record_stride=5,
        grid=Grid.make_2d((-8.0, 8.0, 128), (-8.0, 8.0, 128)),
    )
    Eq = mode_energy_series(quantum, spec)
    spans = np.ptp(Eq, axis=0)
    assert spans.max() < 0.1  # README: even the exact dynamics stays below 0.1
    printed(f"(128², dt 0.02, {SPLIT_STEPS[quantum.meta['split_order']]} of "
            f"{float(quantum.meta['quantum_dt']):g}, rows every {quantum.t[1]:g}) spans "
            f"{spans[0]:.4f} and {spans[1]:.4f}")
    nambu_idx = np.searchsorted(traj.t, quantum.t)
    rms1 = float(np.sqrt(np.mean((En[nambu_idx, 0] - Eq[:, 0]) ** 2)))
    rms2 = float(np.sqrt(np.mean((En[nambu_idx, 1] - Eq[:, 1]) ** 2)))
    report("5 (deviation from grid quantum)", True,
           f"RMS(E1) = {rms1:.4f}, RMS(E2) = {rms2:.4f} over t in [0, 100] (reported only)")


# ---------------------------------------------------------------------------
# 6. Closure correctness against the Gaussian-moment oracle
# ---------------------------------------------------------------------------


def test_criterion_6_closure_correctness():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        qc = float(rng.uniform(-2, 2))
        var = float(rng.uniform(0.1, 2.0))
        point = {xvar(1): qc, xvar(3): qc * qc + var}
        for n in range(9):
            closed = reduce_moment(n, ClosureMode.ZERO_CUMULANT).eval(point)
            exact = gaussian_moment(n, qc, var)
            scale = max(1.0, abs(exact))
            worst = max(worst, abs(closed - exact) / scale)
    term_maps_ok = (
        reduce_moment(4, ClosureMode.ZERO_CUMULANT) == parse_poly("3*x3^2 - 2*x1^4")
        and reduce_moment(4, ClosureMode.IGNORE_FLUCTUATION)
        == parse_poly("6*x3*x1^2 - 5*x1^4")
    )
    ok = worst < 1e-10 and term_maps_ok
    report("6 (closure correctness)", ok,
           f"worst rel err vs Gaussian oracle {worst:.1e} (gate 1e-10); "
           f"n=4 term maps exact: {term_maps_ok}")
    assert worst < 1e-10
    assert term_maps_ok


# ---------------------------------------------------------------------------
# 7. Consistency conditions
# ---------------------------------------------------------------------------


def test_criterion_7_consistency_conditions():
    worst = 0.0
    for m in builtin_multiplets().values():
        reports = verify_consistency(m, samples=50, tolerance=1e-10)
        worst = max(worst, max(r.max_residual for r in reports))
        assert all(r.passed for r in reports)
    corrupted = MultipletDef(
        "corrupted",
        4,
        1,
        QUARTET_QP_Q2P2.defs,
        ((parse_poly("x1^2"), QUARTET_QP_Q2P2.constraints[0][1]),),
    )
    failing = [r for r in verify_consistency(corrupted) if not r.passed]
    ok = worst < 1e-10 and bool(failing)
    report("7 (consistency conditions)", ok,
           f"built-ins max residual {worst:.1e} (gate 1e-10); "
           f"corrupted constraint trips {len(failing)} conditions")
    assert worst < 1e-10
    assert failing


# ---------------------------------------------------------------------------
# 8. Structural property suite
# ---------------------------------------------------------------------------


def test_criterion_8_structural_properties():
    rng = np.random.default_rng(8)

    # bracket antisymmetry
    layout = Layout(4, 1)
    vars4 = list(x_vars(layout))
    anti_worst = 0.0
    for _ in range(10):
        fns = [random_poly(rng, vars4, max_degree=2) for _ in range(4)]
        state = rng.uniform(-2, 2, 4)
        a = nambu_bracket(fns, state, layout)
        b = nambu_bracket([fns[2], fns[1], fns[0], fns[3]], state, layout)
        anti_worst = max(anti_worst, abs(a + b))
    assert anti_worst < 1e-12

    # Liouville by finite differences, all built-in models
    div_worst = 0.0
    for spec in (harmonic_model(), cubic_model(), henon_heiles_model()):
        hset = hamiltonian_set(spec)
        field = compile_nambu_field(hset)
        dim = hset.layout.size
        h = 1e-5
        for _ in range(10):
            y = rng.uniform(-2, 2, dim)
            div = 0.0
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                div += (field(y + e)[i] - field(y - e)[i]) / (2.0 * h)
            div_worst = max(div_worst, abs(div))
    assert div_worst < 1e-6

    # RK4 order on the harmonic triplet
    hset = hamiltonian_set(harmonic_model())
    field = compile_nambu_field(hset)
    exact = np.array([0.5, 1.5, 0.0])

    def rk4_err(n):
        traj = rk4_integrate(field, np.array([1.5, 0.5, 0.0]),
                             (np.pi / 2) / n, np.pi / 2, record_stride=n)
        return np.max(np.abs(traj.states[-1] - exact))

    rk4_ratio = rk4_err(50) / rk4_err(100)
    assert 12.0 < rk4_ratio < 20.0

    # Strang order on the harmonic packet
    def strang_err(n):
        wf = init_gaussian(Grid.make_1d(-10, 10, 2048), 1.0, 1.0, math.sqrt(0.5))
        SplitOperatorPropagator(wf.grid, parse_poly("0.5*q^2"), np.pi / n).step(wf, n)
        return abs(expect(wf, "q") - (-1.0))

    strang_ratio = strang_err(64) / strang_err(128)
    assert 3.0 < strang_ratio < 5.0

    # classical limit: zero-width packet reproduces the classical trajectory
    spec = harmonic_model(multiplet="quartet")
    packet = PacketSpec.make(1.0, 0.0, sigma=0.0)
    nambu = run_scenario(spec, packet, "nambu", dt=1e-3, t_end=10.0, record_stride=10)
    classical = run_scenario(spec, packet, "classical", dt=1e-3, t_end=10.0,
                             record_stride=10)
    stats = compare(nambu, classical, ["x1_0", "x2_0"])
    limit_worst = max(s.max_abs for s in stats.values())
    assert limit_worst < 1e-9

    report("8 (structural properties)", True,
           f"antisymmetry {anti_worst:.1e}; FD divergence {div_worst:.1e}; "
           f"RK4 ratio {rk4_ratio:.1f}; Strang ratio {strang_ratio:.1f}; "
           f"classical limit {limit_worst:.1e}")
