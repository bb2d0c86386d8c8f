import math
import re
import struct
import warnings

import numpy as np
import pytest

from helpers import (
    fused_strang_reference,
    grid_energy,
    mode_energies,
    position_moment,
    quantum_row_reference,
    strang_reference,
)

from nambu_dyn import quantum
from nambu_dyn.dynamics import NonFiniteStateError, integrate
from nambu_dyn.poly import Poly, q
from nambu_dyn.quantum import (
    BoundarySupportWarning,
    Grid,
    NonFiniteAmplitudeError,
    SplitOperatorPropagator,
    WaveFunction,
    absorbing_mask,
    expect,
    RowPass,
    expectation_row,
    init_gaussian,
)

SIG = math.sqrt(0.5)
HARMONIC = 0.5 * Poly.var(q(0)) ** 2


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid.make_1d(0.0, -1.0, 128)
    with pytest.raises(ValueError):
        Grid.make_1d(-1.0, 1.0, 100)
    with pytest.raises(ValueError):
        Grid.make_1d(-1.0, 1.0, 32)
    with pytest.raises(ValueError, match="axis 0 min = nan is not finite"):
        Grid.make_1d(float("nan"), 10.0, 128)
    with pytest.raises(ValueError, match="axis 1 max = inf is not finite"):
        Grid.make_2d((-1.0, 1.0, 64), (-1.0, float("inf"), 64))
    g = Grid.make_1d(-20.0, 10.0, 2048)
    assert g.dx() == pytest.approx(30.0 / 2048)


def test_grid_takes_only_an_integer_point_count():
    for n in (64.0, 64.7, True, "64", None):
        message = rf"axis 0 n_points = {re.escape(repr(n))} is not an integer >= 1"
        with pytest.raises(ValueError, match=message):
            Grid.make_1d(-1.0, 1.0, n)
    with pytest.raises(ValueError, match=r"axis 1 n_points = 64\.0 is not an integer >= 1"):
        Grid(((-1.0, 1.0, 64), (-1.0, 1.0, 64.0)))
    assert Grid.make_1d(-1.0, 1.0, np.int64(64)).shape == (64,)


def test_init_gaussian_moments():
    g = Grid.make_1d(-20.0, 10.0, 2048)
    wf = init_gaussian(g, 0.0, 1.8, SIG)
    assert expect(wf, "q") == pytest.approx(0.0, abs=1e-9)
    assert expect(wf, "q2") == pytest.approx(0.5, abs=1e-8)
    assert expect(wf, "p") == pytest.approx(1.8, abs=1e-8)
    assert expect(wf, "p2") == pytest.approx(3.74, abs=1e-7)
    assert wf.norm() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "centers, momenta, widths, message",
    [
        (math.nan, 0.0, 1.0, r"centers\[0\] = nan is not finite"),
        (0.0, math.inf, 1.0, r"momenta\[0\] = inf is not finite"),
        (0.0, -math.inf, 1.0, r"momenta\[0\] = -inf is not finite"),
        (0.0, 0.0, math.nan, r"widths\[0\] = nan is not a positive finite number"),
        (0.0, 0.0, math.inf, r"widths\[0\] = inf is not a positive finite number"),
        (0.0, 0.0, -1.0, r"widths\[0\] = -1.0 is not a positive finite number"),
        (0.0, 0.0, 0.0, r"widths\[0\] = 0.0 is not a positive finite number"),
        (0.0, 0.0, 1e-300, r"widths\[0\] = 1e-300 has a square outside the float range"),
        (0.0, 0.0, 1e200, r"widths\[0\] = 1e\+200 has a square outside the float range"),
        # Off the grid the amplitudes underflow to 0, or x^2 overflows: a norm of 0.
        (500.0, 0.0, 1.0, r"centers \[500.0\], widths \[1.0\] misses the grid"),
        (1e300, 0.0, 1.0, r"centers \[1e\+300\], widths \[1.0\] misses the grid"),
    ],
)
def test_init_gaussian_rejects_bad_packets(centers, momenta, widths, message):
    g = Grid.make_1d(-10.0, 10.0, 256)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # raised with no arithmetic warning
        with pytest.raises(ValueError, match=message):
            init_gaussian(g, centers, momenta, widths)


def test_init_gaussian_names_the_axis_of_a_bad_packet():
    g = Grid.make_2d((-8.0, 8.0, 64), (-8.0, 8.0, 64))
    with pytest.raises(ValueError, match=r"centers\[1\] = inf is not finite"):
        init_gaussian(g, [0.0, math.inf], 0.0, 1.0)
    with pytest.raises(ValueError, match=r"widths\[1\] = 1e-300 has a square"):
        init_gaussian(g, 0.0, 0.0, [1.0, 1e-300])
    with pytest.raises(ValueError, match="hbar = 0.0 is not a positive finite number"):
        init_gaussian(g, 0.0, 0.0, 1.0, hbar=0.0)


def test_init_gaussian_warns_on_boundary_support():
    g = Grid.make_1d(-2.0, 2.0, 64)
    with pytest.warns(BoundarySupportWarning):
        init_gaussian(g, 1.5, 0.0, 1.0)


def test_qp_sym_of_moving_packet():
    g = Grid.make_1d(-10.0, 10.0, 1024)
    wf = init_gaussian(g, 1.0, 1.0, SIG)
    assert expect(wf, "qp_sym") == pytest.approx(1.0, abs=1e-8)


def test_variance_nonnegative_random_packets():
    rng = np.random.default_rng(2)
    g = Grid.make_1d(-12.0, 12.0, 512)
    for _ in range(5):
        wf = init_gaussian(
            g,
            float(rng.uniform(-2, 2)),
            float(rng.uniform(-2, 2)),
            float(rng.uniform(0.4, 1.2)),
        )
        assert expect(wf, "q2") >= expect(wf, "q") ** 2


def test_zero_point_energy():
    g = Grid.make_1d(-10.0, 10.0, 1024)
    wf = init_gaussian(g, 0.0, 0.0, SIG)
    assert grid_energy(wf, HARMONIC) == pytest.approx(0.5, abs=1e-8)
    with pytest.raises(ValueError, match="unknown expectation kind 'H'"):
        expect(wf, "H")


def test_harmonic_ehrenfest_half_period():
    g = Grid.make_1d(-10.0, 10.0, 2048)
    wf = init_gaussian(g, 1.0, 0.0, SIG)
    steps = int(round(np.pi / 1e-3))
    SplitOperatorPropagator(wf.grid, HARMONIC, np.pi / steps).step(wf, steps)
    assert expect(wf, "q") == pytest.approx(-1.0, abs=1e-4)


def test_free_particle_momentum_conserved():
    g = Grid.make_1d(-30.0, 30.0, 1024)
    wf = init_gaussian(g, 0.0, 1.3, 1.0)
    p0 = expect(wf, "p")
    SplitOperatorPropagator(wf.grid, Poly.zero(), 1e-2).step(wf, 500)
    assert expect(wf, "p") == pytest.approx(p0, abs=1e-10)


def test_harmonic_energy_drift():
    g = Grid.make_1d(-10.0, 10.0, 2048)
    wf = init_gaussian(g, 1.0, 0.0, SIG)
    prop = SplitOperatorPropagator(g, HARMONIC, 1e-3)
    e0 = grid_energy(wf, HARMONIC)
    worst = 0.0
    for _ in range(20):
        prop.step(wf, 1000)
        worst = max(worst, abs(grid_energy(wf, HARMONIC) - e0))
    assert worst < 1e-6


def test_norm_conservation_long_run():
    g = Grid.make_1d(-10.0, 10.0, 256)
    wf = init_gaussian(g, 0.5, 0.5, SIG)
    SplitOperatorPropagator(wf.grid, HARMONIC, 1e-3).step(wf, 10_000)
    assert abs(wf.norm() - 1.0) < 1e-9


def test_absorber_norm_non_increasing():
    g = Grid.make_1d(-15.0, 15.0, 512)
    wf = init_gaussian(g, 0.0, 2.0, 1.0)
    mask = absorbing_mask(g)
    assert mask.max() <= 1.0 and mask.min() >= 0.0
    prop = SplitOperatorPropagator(g, Poly.zero(), 5e-3, absorber=mask)
    norms = [wf.norm()]
    for _ in range(10):
        prop.step(wf, 200)
        norms.append(wf.norm())
    diffs = np.diff(norms)
    assert np.all(diffs <= 1e-12)
    assert norms[-1] < 0.9


def test_strang_splitting_order():
    def endpoint_error(steps):
        wf = init_gaussian(Grid.make_1d(-10.0, 10.0, 2048), 1.0, 1.0, SIG)
        SplitOperatorPropagator(wf.grid, HARMONIC, np.pi / steps).step(wf, steps)
        return abs(expect(wf, "q") - (-1.0))

    ratio = endpoint_error(64) / endpoint_error(128)
    assert 3.0 < ratio < 5.0


def test_fourth_order_splitting_order():
    def endpoint_error(steps):
        wf = init_gaussian(Grid.make_1d(-10.0, 10.0, 2048), 1.0, 1.0, SIG)
        SplitOperatorPropagator(wf.grid, HARMONIC, np.pi / steps, order=4).step(wf, steps)
        return abs(expect(wf, "q") - (-1.0))

    ratio = endpoint_error(32) / endpoint_error(64)
    assert 12.0 < ratio < 20.0


def _quartic_1d():
    x = Poly.var(q(0))
    V = 0.5 * x**2 + 0.1 * x**4
    return Grid.make_1d(-8.0, 8.0, 256), V, (1.0, 0.5, 0.5), 0.5, [2.0], (20, 40, 80)


def _henon_heiles_2d():
    x, y = Poly.var(q(0)), Poly.var(q(1))
    masses = (1.0, 2.5)
    V = 0.5 * masses[0] * x**2 + 0.5 * masses[1] * 1.21 * y**2 - 0.3 * x * y**2
    g = Grid.make_2d((-8.0, 8.0, 64), (-8.0, 8.0, 64))
    return g, V, ((0.5, -0.5), (1.0, -0.7), (0.7, 0.6)), 1.0, masses, (10, 20, 40)


@pytest.mark.parametrize("case", [_quartic_1d, _henon_heiles_2d], ids=["quartic-1d", "hh-2d"])
def test_fourth_order_gradient_term_order(case):
    # A sign or mass slip in the gradient term of the middle phase leaves a
    # second-order step: x4 per halving instead of x16.  Errors are the
    # largest quartet-row error at t = 2 against 40 times the finest count.
    g, V, packet, hbar, masses, steps = case()

    def row(n):
        wf = init_gaussian(g, *packet, hbar=hbar)
        SplitOperatorPropagator(g, V, 2.0 / n, hbar, masses, order=4).step(wf, n)
        return np.array(expectation_row(wf, QUARTET).values)

    ref = row(40 * steps[-1])
    errors = [np.max(np.abs(row(n) - ref)) for n in steps]
    assert errors[-1] > 1e-11  # above rounding, so the ratios measure the order
    for coarse, fine in zip(errors, errors[1:]):
        assert 14.0 < coarse / fine < 18.0


def test_fourth_order_needs_a_polynomial_potential():
    g = Grid.make_1d(-10.0, 10.0, 128)
    for order in (2, 4):
        with pytest.raises(TypeError, match="potential must be a Poly"):
            SplitOperatorPropagator(g, lambda x: 0.5 * x**2, 1e-2, order=order)
        SplitOperatorPropagator(g, HARMONIC, 1e-2, order=order)


def test_fourth_order_rejects_an_absorber():
    # The absorber damps once per step, so its strength would follow the
    # step size that the step rule picks; absorbed runs keep Strang at dt.
    g = Grid.make_1d(-15.0, 15.0, 128)
    with pytest.raises(ValueError, match="takes no absorber"):
        SplitOperatorPropagator(g, HARMONIC, 1e-2, absorber=absorbing_mask(g), order=4)
    with pytest.raises(ValueError, match="split order must be 2 or 4, got 3"):
        SplitOperatorPropagator(g, HARMONIC, 1e-2, order=3)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(masses=[math.nan]), "mass = nan is not a positive finite number"),
        (dict(masses=[0.0]), "mass = 0.0 is not a positive finite number"),
        (dict(masses=[math.inf]), "mass = inf is not a positive finite number"),
        (dict(hbar=-1.0), "hbar = -1.0 is not a positive finite number"),
        (dict(hbar=math.nan), "hbar = nan is not a positive finite number"),
    ],
    ids=["mass-nan", "mass-zero", "mass-inf", "hbar-negative", "hbar-nan"],
)
@pytest.mark.parametrize("order", [2, 4])
def test_propagator_rejects_bad_hbar_and_masses(kwargs, message, order):
    g = Grid.make_1d(-10.0, 10.0, 128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no divide-by-zero warning before the check
        with pytest.raises(ValueError, match=message):
            SplitOperatorPropagator(g, HARMONIC, 1e-2, order=order, **kwargs)


@pytest.mark.parametrize("hbar", [math.nan, math.inf, 0.0, -1.0])
def test_wavefunction_rejects_bad_hbar(hbar):
    g = Grid.make_1d(-10.0, 10.0, 128)
    with pytest.raises(ValueError, match="is not a positive finite number"):
        WaveFunction(g, np.zeros(128, dtype=complex), hbar)


@pytest.fixture
def transform_calls(monkeypatch):
    """A list that grows by one entry per call of a transform that
    ``quantum._grid_fft`` hands out, the number of transforms in the call:
    the leading batch size of a stack, 1 for a single grid array.  Its sum
    counts transforms, its length calls."""
    calls = []
    grid_fft = quantum._grid_fft

    def counted_grid_fft(shape):
        def counted(fn):
            def run(a, out):
                calls.append(a.size // math.prod(shape))
                return fn(a, out)

            return run

        return tuple(counted(fn) for fn in grid_fft(shape))

    monkeypatch.setattr(quantum, "_grid_fft", counted_grid_fft)
    return calls


def test_split_step_transform_count(transform_calls):
    calls = transform_calls
    for g in (Grid.make_1d(-10.0, 10.0, 128), Grid.make_2d((-8.0, 8.0, 64), (-8.0, 8.0, 64))):
        wf = init_gaussian(g, [0.5] * g.ndim, [1.0] * g.ndim, [0.7] * g.ndim)
        for order, per_step in ((2, 2), (4, 4)):
            prop = SplitOperatorPropagator(g, HARMONIC, 1e-2, order=order)
            calls.clear()
            prop.step(wf, 7)
            assert sum(calls) == len(calls) == 7 * per_step


def test_2d_mode_energies_at_t0():
    g = Grid.make_2d((-8.0, 8.0, 256), (-8.0, 8.0, 256))
    s1 = math.sqrt(1.0 / 2.0)
    s2 = math.sqrt(1.0 / 2.2)
    wf = init_gaussian(g, (0.0, 1.0), (0.0, 1.0), (s1, s2))
    e1, e2 = mode_energies(wf, (1.0, 1.0, 1.0, 1.1))
    assert e1 == pytest.approx(0.5, abs=1e-6)
    assert e2 == pytest.approx(1.655, abs=1e-6)


def test_2d_decoupled_modes_conserve_energy():
    g = Grid.make_2d((-8.0, 8.0, 128), (-8.0, 8.0, 128))
    s1, s2 = math.sqrt(0.5), math.sqrt(1.0 / 2.2)
    wf = init_gaussian(g, (0.0, 1.0), (0.0, 1.0), (s1, s2))
    V = 0.5 * Poly.var(q(0)) ** 2 + 0.5 * 1.21 * Poly.var(q(1)) ** 2
    prop = SplitOperatorPropagator(g, V, 1e-3)
    e0 = mode_energies(wf, (1.0, 1.0, 1.0, 1.1))
    prop.step(wf, 1000)
    e1 = mode_energies(wf, (1.0, 1.0, 1.0, 1.1))
    assert e1[0] == pytest.approx(e0[0], abs=1e-6)
    assert e1[1] == pytest.approx(e0[1], abs=1e-6)


def test_2d_coupled_total_energy_conserved_while_modes_exchange():
    lam, w2 = -0.11, 1.1
    g = Grid.make_2d((-8.0, 8.0, 128), (-8.0, 8.0, 128))
    s1, s2 = math.sqrt(0.5), math.sqrt(1.0 / 2.2)
    wf = init_gaussian(g, (0.0, 1.0), (0.0, 1.0), (s1, s2))
    x, y = Poly.var(q(0)), Poly.var(q(1))
    V = 0.5 * x**2 + 0.5 * w2**2 * y**2 + lam * x * y**2
    prop = SplitOperatorPropagator(g, V, 1e-2)

    def total(wf):
        e1, e2 = mode_energies(wf, (1.0, 1.0, 1.0, w2))
        coupling = lam * position_moment(wf, (1, 2))
        return e1 + e2 + coupling, e1, e2

    h0, e1_0, e2_0 = total(wf)
    prop.step(wf, 1500)
    h1, e1_1, e2_1 = total(wf)
    assert h1 == pytest.approx(h0, abs=1e-5)
    assert abs(e1_1 - e1_0) > 1e-3 or abs(e2_1 - e2_0) > 1e-3


def test_non_finite_amplitudes_detected():
    g = Grid.make_1d(-10.0, 10.0, 128)
    wf = init_gaussian(g, 0.0, 0.0, 1.0)
    wf.amps[0] = np.nan
    prop = SplitOperatorPropagator(g, HARMONIC, 1e-3)
    with pytest.raises(NonFiniteAmplitudeError):
        prop.step(wf)


def test_huge_finite_amplitudes_step():
    # |psi|^2 overflows at |psi| ~ 1e200, so the step's norm test fails and
    # its exact test finds every amplitude finite; scaling by a power of two
    # is exact, so the step is the unscaled one scaled.
    g = Grid.make_1d(-10.0, 10.0, 128)
    prop = SplitOperatorPropagator(g, HARMONIC, 1e-3)
    wf = init_gaussian(g, 0.0, 0.0, 1.0)
    huge = init_gaussian(g, 0.0, 0.0, 1.0)
    huge.amps = huge.amps * 2.0**700
    assert np.abs(huge.amps).max() > 1e200
    prop.step(huge, 3)
    prop.step(wf, 3)
    assert np.array_equal(huge.amps, wf.amps * 2.0**700)
    flat = init_gaussian(g, 0.0, 0.0, 1.0)
    flat.amps = np.full(g.shape, 1e200, dtype=np.complex128)
    assert np.all(np.isfinite(prop.step(flat).amps))


@pytest.mark.parametrize(
    "pair", [(np.inf, -np.inf), (complex(0, np.inf), complex(0, -np.inf))], ids=["real", "imag"]
)
def test_opposite_infinities_are_detected(pair):
    # A norm or sum of +inf and -inf need not stay infinite; the check is per amplitude.
    g = Grid.make_1d(-10.0, 10.0, 128)
    wf = init_gaussian(g, 0.0, 0.0, 1.0)
    wf.amps[3], wf.amps[70] = pair
    prop = SplitOperatorPropagator(g, HARMONIC, 1e-3)
    with pytest.raises(NonFiniteAmplitudeError):
        prop.step(wf, 0)


def test_overflowing_sum_of_finite_amplitudes_is_not_an_error():
    # 256 amplitudes of 1e306 sum past the largest double, yet each is finite.
    g = Grid.make_1d(-10.0, 10.0, 256)
    wf = init_gaussian(g, 0.0, 0.0, 1.0)
    wf.amps = np.full(g.shape, 1e306, dtype=np.complex128)
    prop = SplitOperatorPropagator(g, HARMONIC, 1e-3)
    assert prop.step(wf, 0).amps[0] == 1e306


def test_quantum_abort_through_driver_carries_rows_so_far():
    # No built-in model reaches a non-finite wavefunction; a potential phase
    # that is NaN at one grid point spoils the first step.
    g = Grid.make_1d(-10.0, 10.0, 128)
    prop = SplitOperatorPropagator(g, HARMONIC, 1e-2)
    prop.exp_v_half[40] = np.nan
    wf = init_gaussian(g, 0.0, 0.0, SIG)
    kinds = ("q", "p", "q2", "p2")
    first = expectation_row(wf, kinds).values

    def rows(steps):
        done = 0
        for step in steps:
            prop.step(wf, step - done)
            done = step
            yield expectation_row(wf, kinds).values, None

    with pytest.raises(NonFiniteAmplitudeError) as err:
        integrate(rows, first, 1e-2, 1.0, list(kinds), record_stride=10)
    assert isinstance(err.value, NonFiniteStateError)
    partial = err.value.trajectory
    assert partial.t.tolist() == [0.0]
    assert partial.states.tolist() == [first]
    assert partial.flags == [""]


@pytest.mark.parametrize("absorbed", [False, True], ids=["closed", "absorbed"])
@pytest.mark.parametrize("shape", [(128,), (64, 64)], ids=["1d", "2d"])
def test_fused_strang_step_matches_unfused_loop(shape, absorbed):
    axes = [(-8.0, 8.0, n) for n in shape]
    g = Grid(tuple(axes))
    wf = init_gaussian(g, [0.5] * g.ndim, [1.0] * g.ndim, [0.7] * g.ndim)
    x, y = Poly.var(q(0)), Poly.var(q(1))
    V = 0.5 * x**2 + 0.1 * x**3 if g.ndim == 1 else x * y**2
    prop = SplitOperatorPropagator(g, V, 1e-2, absorber=absorbing_mask(g) if absorbed else None)
    before = wf.amps
    kept = before.copy()
    want = strang_reference(prop, before, 40)
    prop.step(wf, 40)
    assert np.array_equal(before, kept)  # the caller's array is never written
    assert wf.amps is not before
    # Fusing the two V half-steps reorders complex products; the error stays
    # at a few ulps of unit-scale amplitudes per step.
    assert np.max(np.abs(wf.amps - want)) < 1e-12
    # The direct gufunc calls change no bit against the public transforms.
    assert np.array_equal(wf.amps, fused_strang_reference(prop, kept, 40))
    assert prop.step(wf, 0).amps is wf.amps


TRIPLET = ("q2", "p2", "qp_sym")
QUARTET = ("q", "p", "q2", "p2")


def _row_packet(case):
    if case == "2d":
        g = Grid.make_2d((-8.0, 8.0, 128), (-8.0, 8.0, 64))
        return init_gaussian(g, (0.5, -0.5), (1.0, -0.7), (0.7, 0.6))
    if case == "drained":
        g = Grid.make_1d(-15.0, 15.0, 512)
        wf = init_gaussian(g, 0.0, 2.0, 1.0)
        prop = SplitOperatorPropagator(g, Poly.zero(), 5e-3, absorber=absorbing_mask(g))
        return prop.step(wf, 1000)
    return init_gaussian(Grid.make_1d(-10.0, 10.0, 2048), 1.0, 0.5, 0.7)


@pytest.mark.parametrize(
    "case, kinds",
    [("1d", TRIPLET), ("1d", QUARTET), ("2d", QUARTET), ("2d", TRIPLET),
     ("drained", TRIPLET), ("drained", QUARTET)],
    ids=["1d-triplet", "1d-quartet", "2d-quartet", "2d-triplet",
         "drained-triplet", "drained-quartet"],
)
def test_expectation_row_matches_per_kind_reference(case, kinds):
    wf = _row_packet(case)
    if case == "drained":
        assert 0.2 < wf.norm() < 0.99
    row = expectation_row(wf, kinds)
    want = quantum_row_reference(wf, kinds)
    assert len(row.values) == len(kinds) * wf.grid.ndim
    assert np.max(np.abs(np.subtract(row.values, want))) <= 1e-12
    assert row.norm == pytest.approx(wf.norm(), rel=1e-13)
    for axis in range(wf.grid.ndim):
        for i, kind in enumerate(kinds):
            assert expect(wf, kind, axis) == row.values[axis * len(kinds) + i]


def test_expectation_row_transform_count(transform_calls):
    packets = {case: _row_packet(case) for case in ("1d", "2d")}
    calls = transform_calls

    def count(case, kinds):
        calls.clear()
        expectation_row(packets[case], kinds)
        return sum(calls)

    assert count("1d", QUARTET) == 1
    assert count("2d", QUARTET) == 1
    assert count("1d", TRIPLET) == 2
    assert count("1d", ("q", "q2")) == 0
    # A block of B rows makes every transform in one call: psi and x psi of
    # each state for the triplet.
    wf = packets["1d"]
    block = RowPass(wf.grid, wf.hbar, TRIPLET, 5)
    block.states[:] = wf.amps
    calls.clear()
    block.rows(5)
    assert calls == [2 * 5]


GRID_SHAPES = [(2048,), (4096,), (128, 128), (256, 64), (64, 128), (64, 32, 16)]


@pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "batch"])
@pytest.mark.parametrize("shape", GRID_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_grid_fft_bit_identical_to_public_transforms(shape, batch):
    rng = np.random.default_rng(7)
    a = rng.standard_normal(batch + shape) + 1j * rng.standard_normal(batch + shape)
    kept = a.copy()
    axes = tuple(range(-len(shape), 0))
    fft, ifft = quantum._grid_fft(shape)
    for mine, public in ((fft, np.fft.fftn), (ifft, np.fft.ifftn)):
        want = public(a, axes=axes)
        assert np.array_equal(mine(a, np.empty_like(a)), want)
        assert np.array_equal(a, kept)
        in_place = a.copy()
        assert mine(in_place, in_place) is in_place
        assert np.array_equal(in_place, want)


@pytest.mark.parametrize("kinds", [TRIPLET, QUARTET], ids=["triplet", "quartet"])
@pytest.mark.parametrize("case", ["1d", "2d"])
def test_block_rows_equal_rows_of_one(case, kinds):
    # One batched pass over a block, and each row's reductions kept per row:
    # every value bit-identical to the row of that state alone.
    wf = _row_packet(case)
    g = wf.grid
    prop = SplitOperatorPropagator(g, 0.5 * sum(Poly.var(q(a)) ** 2 for a in range(g.ndim)), 0.05)
    states = [prop.step(wf, 3).amps for _ in range(5)]
    block = RowPass(g, wf.hbar, kinds, 6)
    block.states[:5] = states
    kept = block.states.copy()
    for passes in range(2):  # the buffers serve every pass
        rows = block.rows(5)
        assert np.array_equal(block.states, kept)  # the states are read, never written
        assert len(rows) == 5
        for state, row in zip(states, rows):
            alone = expectation_row(WaveFunction(g, state, wf.hbar), kinds)
            assert row.values == alone.values
            assert (row.norm, row.boundary_amp) == (alone.norm, alone.boundary_amp)
    assert block.rows(0) == []


def test_expectation_row_rejects_unknown_kind():
    wf = _row_packet("1d")
    with pytest.raises(ValueError, match="unknown expectation kind 'x3'"):
        expectation_row(wf, ("q", "x3"))
    with pytest.raises(ValueError, match="unknown expectation kind 'x3'"):
        RowPass(wf.grid, wf.hbar, ("q", "x3"), 4)
    with pytest.raises(ValueError, match="unknown expectation kind"):
        expect(wf, "r")


def test_wavefunction_shape_validation():
    g = Grid.make_1d(-10.0, 10.0, 128)
    with pytest.raises(ValueError):
        WaveFunction(g, np.zeros(64, dtype=complex))


def test_snapshot_roundtrip_1d_and_2d(tmp_path):
    g1 = Grid.make_1d(-10.0, 10.0, 128)
    wf1 = init_gaussian(g1, 0.3, -0.7, 0.8)
    path1 = tmp_path / "wf1.bin"
    quantum.save_wavefunction(wf1, path1)
    back1 = quantum.load_wavefunction(path1)
    assert back1.grid == wf1.grid
    np.testing.assert_array_equal(back1.amps, wf1.amps)

    g2 = Grid.make_2d((-7.0, 7.0, 64), (-8.0, 10.0, 128))
    wf2 = init_gaussian(g2, (0.0, 1.0), (0.5, -0.5), (0.7, 0.9))
    path2 = tmp_path / "wf2.bin"
    quantum.save_wavefunction(wf2, path2)
    back2 = quantum.load_wavefunction(path2)
    assert back2.grid == wf2.grid
    np.testing.assert_array_equal(back2.amps, wf2.amps)
    # layout: uint32 axis count, per-axis float64 min/max + uint32 n, then
    # interleaved re/im float64
    expected = 4 + 2 * 20 + 16 * 64 * 128
    assert path2.stat().st_size == expected


def test_snapshot_roundtrip_is_bit_exact_for_special_values(tmp_path):
    # Every pairing of -0.0, +-inf, NaN and finite parts in (re, im).
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0, 5e-324])
    amps = np.empty(64, dtype=complex)
    amps.real = np.repeat(special, 8)
    amps.imag = np.tile(special, 8)
    path = tmp_path / "wf.bin"
    quantum.save_wavefunction(WaveFunction(Grid.make_1d(-10.0, 10.0, 64), amps), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        back = quantum.load_wavefunction(path)
    assert back.amps.tobytes() == amps.tobytes()
    assert back.amps.flags.writeable


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: raw[:10], r"header for 1 axes needs 24 bytes, file has 10"),
        (lambda raw: raw[:-8], r"header and 128 amplitudes needs 2072 bytes, file has 2064"),
        (lambda raw: raw + b"\0" * 3, r"expected 2072 bytes, file has 2075 \(3 trailing\)"),
        (
            lambda raw: raw[:4] + struct.pack("<ddI", math.nan, 10.0, 128) + raw[24:],
            r"bad.bin: axis 0 min = nan is not finite",
        ),
        (
            lambda raw: raw[:4] + struct.pack("<ddI", -10.0, 10.0, 63) + raw[24:],
            r"bad.bin: n_points must be a power of two >= 64, got 63",
        ),
        # 64-byte files whose headers count 2^93 and 2^63 amplitudes, past int64
        (
            lambda raw: struct.pack("<I", 3) + struct.pack("<ddI", -10.0, 10.0, 2**31) * 3,
            rf"header and {2**93} amplitudes needs {64 + 16 * 2**93} bytes, file has 64",
        ),
        (
            lambda raw: struct.pack("<I", 3) + struct.pack("<ddI", -10.0, 10.0, 2**21) * 3,
            rf"header and {2**63} amplitudes needs {64 + 16 * 2**63} bytes, file has 64",
        ),
    ],
    ids=["truncated_header", "truncated_amplitudes", "overlong", "nan_bound", "63_points",
         "2^93_points", "2^63_points"],
)
def test_snapshot_rejects_bad_sizes(tmp_path, edit, message):
    good = tmp_path / "good.bin"
    quantum.save_wavefunction(init_gaussian(Grid.make_1d(-10.0, 10.0, 128), 0.0, 0.0, 1.0), good)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(edit(good.read_bytes()))
    with pytest.raises(ValueError, match=message) as err:
        quantum.load_wavefunction(bad)
    assert str(bad) in str(err.value)
