import re
import shutil

import numpy as np
import pytest

from helpers import classical_vector_field, nambu_vector_field, rk4_reference

from nambu_dyn import native
from nambu_dyn.brackets import nambu_bracket
from nambu_dyn.dynamics import (
    HamiltonianSet,
    NonFiniteStateError,
    Trajectory,
    compile_classical_field,
    compile_nambu_field,
    conserved_drift,
    rk4_integrate,
    symbolic_flow,
)
from nambu_dyn.poly import (
    Poly,
    compile_vector_field,
    parse_poly,
    xvar,
)
from nambu_dyn.scenarios import (
    PacketSpec,
    classical_hamiltonian,
    cubic_model,
    hamiltonian_set,
    harmonic_model,
    henon_heiles_model,
    init_nambu_from_packet,
    run_scenario,
)
from nambu_dyn.state import Layout, NambuState

HARM3 = hamiltonian_set(harmonic_model())
CUBIC = hamiltonian_set(cubic_model())
HH = hamiltonian_set(henon_heiles_model())


def test_nambu_field_harmonic_triplet():
    s = NambuState(np.array([1.5, 0.5, 0.0]), Layout(3, 1))
    field = nambu_vector_field(HARM3, s)
    np.testing.assert_allclose(field, [0.0, 0.0, -1.0], atol=1e-14)


def test_nambu_field_cubic_initial_point():
    s = NambuState(np.array([0.0, 1.8, 0.5, 3.74]), Layout(4, 1))
    field = nambu_vector_field(CUBIC, s)
    np.testing.assert_allclose(field, [1.8, -0.15, 0.0, -0.54], atol=1e-12)


def test_conserved_quantity_has_zero_bracket():
    # dF/dt = {F, F, G1, G2} vanishes by the repeated argument
    rng = np.random.default_rng(0)
    for _ in range(5):
        state = rng.uniform(-2, 2, 4)
        v = nambu_bracket(
            [CUBIC.F, CUBIC.F, *CUBIC.gs], state, CUBIC.layout
        )
        assert abs(v) < 1e-12


def _hand_rhs_cubic(y, g=0.3):
    x1, x2, x3, x4 = y
    f = -x1 - g * x3
    return np.array([x2, f, 2.0 * x1 * x2, 2.0 * f * x2])


def _hand_rhs_harm3(y):
    x1, x2, x3 = y
    return np.array([2.0 * x3, -2.0 * x3, x2 - x1])


def _hand_rhs_hh(y, lam=-0.11, w2=1.1):
    x1a, x2a, _, _, x1b, x2b, x3b, _ = y
    fa = -x1a - lam * x3b
    fb = -w2**2 * x1b - 2.0 * lam * x1a * x1b
    return np.array(
        [
            x2a,
            fa,
            2.0 * y[0] * y[1],
            2.0 * fa * x2a,
            x2b,
            fb,
            2.0 * x1b * x2b,
            2.0 * fb * x2b,
        ]
    )


@pytest.mark.parametrize(
    "hset,hand",
    [(HARM3, _hand_rhs_harm3), (CUBIC, _hand_rhs_cubic), (HH, _hand_rhs_hh)],
    ids=["harmonic3", "cubic4", "henon_heiles"],
)
def test_flow_matches_hand_coded_equations(hset, hand):
    rng = np.random.default_rng(1)
    compiled = compile_nambu_field(hset)
    for _ in range(100):
        y = rng.uniform(-2, 2, hset.layout.size)
        expected = hand(y)
        via_brackets = nambu_vector_field(hset, NambuState(y, hset.layout))
        via_compiled = compiled(y)
        np.testing.assert_allclose(via_brackets, expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(via_compiled, expected, rtol=1e-12, atol=1e-12)


def test_liouville_divergence_by_finite_differences():
    rng = np.random.default_rng(2)
    h = 1e-5
    for hset in (HARM3, CUBIC, HH):
        field = compile_nambu_field(hset)
        dim = hset.layout.size
        for _ in range(10):
            y = rng.uniform(-2, 2, dim)
            div = 0.0
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                div += (field(y + e)[i] - field(y - e)[i]) / (2.0 * h)
            assert abs(div) < 1e-6


def test_classical_field_examples():
    H_harm = classical_hamiltonian(harmonic_model())
    np.testing.assert_allclose(
        classical_vector_field(H_harm, np.array([1.0, 0.0])), [0.0, -1.0], atol=1e-14
    )
    H_cubic = classical_hamiltonian(cubic_model())
    np.testing.assert_allclose(
        classical_vector_field(H_cubic, np.array([0.0, 1.8])), [1.8, 0.0], atol=1e-14
    )
    H_hh = classical_hamiltonian(henon_heiles_model())
    out = classical_vector_field(H_hh, np.array([0.0, 0.0, 1.0, 1.0]))
    np.testing.assert_allclose(out, [0.0, 0.11, 1.0, -1.21], atol=1e-12)


def test_rk4_harmonic_triplet_quarter_period():
    # coherent-state closed form x1(t) = cos^2 t + 1/2; the final row sits at
    # the largest multiple of dt <= pi/2
    field = compile_nambu_field(HARM3)
    traj = rk4_integrate(
        field, np.array([1.5, 0.5, 0.0]), 1e-3, np.pi / 2, record_stride=100
    )
    t_final = traj.t[-1]
    assert np.pi / 2 - 1e-3 < t_final <= np.pi / 2
    assert traj.states[-1, 0] == pytest.approx(
        np.cos(t_final) ** 2 + 0.5, abs=1e-8
    )
    assert abs(traj.states[-1, 0] - 0.5) < 1e-6


def test_rk4_classical_harmonic_period():
    field = compile_classical_field(classical_hamiltonian(harmonic_model()), 1)
    dt = 2.0 * np.pi / 6284  # one period in an integer number of ~1e-3 steps
    traj = rk4_integrate(field, np.array([1.0, 0.0]), dt, 2.0 * np.pi,
                         record_stride=6284)
    np.testing.assert_allclose(traj.states[-1], [1.0, 0.0], atol=1e-9)


def test_rk4_order_of_convergence():
    field = compile_nambu_field(HARM3)
    y0 = np.array([1.5, 0.5, 0.0])
    t_end = np.pi / 2
    exact = np.array([0.5, 1.5, 0.0])

    def endpoint_error(n_steps):
        traj = rk4_integrate(field, y0, t_end / n_steps, t_end, record_stride=n_steps)
        return np.max(np.abs(traj.states[-1] - exact))

    ratio = endpoint_error(50) / endpoint_error(100)
    assert 12.0 < ratio < 20.0


def test_rk4_observer_recording_and_drift():
    spec = cubic_model()
    traj = run_scenario(
        spec, PacketSpec.make(0.0, 1.8), "nambu", dt=1e-3, t_end=40.0, record_stride=1
    )
    drifts = conserved_drift(traj)
    assert drifts["F"].max_abs < 1e-8
    assert drifts["G1"].max_abs < 1e-8
    assert drifts["G2"].max_abs < 1e-8


def test_constant_observer_has_zero_drift():
    t = np.linspace(0.0, 1.0, 11)
    traj = Trajectory(
        t, np.column_stack([t, -t]), ["y0", "y1"],
        np.column_stack([np.ones_like(t), 2.0 + t * t]), ["one", "grows"],
    )
    drifts = conserved_drift(traj)
    assert drifts["one"].max_abs == 0.0
    assert drifts["grows"].max_abs == 1.0


def test_escape_truncation_flags_last_row():
    spec = cubic_model()
    traj = run_scenario(
        spec, PacketSpec.make(0.0, 1.8), "nambu", dt=1e-3, t_end=40.0, q_stop=-15.0
    )
    assert traj.flags[-1] == "escaped"
    assert traj.states[-1, 0] < -15.0
    assert traj.t[-1] < 40.0
    assert all(f == "" for f in traj.flags[:-1])


def test_non_finite_state_raises_with_partial_trajectory():
    field = compile_nambu_field(CUBIC)
    y0 = init_nambu_from_packet(cubic_model(), PacketSpec.make(0.0, 1.8)).values
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError) as err:
            rk4_integrate(field, y0, 1e-3, 40.0, record_stride=100)
    partial = err.value.trajectory
    assert partial is not None
    assert len(partial) > 1
    assert np.all(np.isfinite(partial.states))


def test_hamiltonian_set_validates_constraint_count():
    with pytest.raises(ValueError):
        HamiltonianSet(CUBIC.F, CUBIC.gs, Layout(3, 1))


def test_symbolic_flow_component_count():
    flow = symbolic_flow(HH)
    assert len(flow) == 8
    assert flow[0] == parse_poly("x2_0")


def test_trajectory_csv_roundtrip(tmp_path):
    spec = harmonic_model()
    traj = run_scenario(
        spec, PacketSpec.make(1.0, 0.0), "nambu", dt=1e-2, t_end=1.0, record_stride=10
    )
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    loaded = Trajectory.from_csv(path)
    assert loaded.columns == traj.columns
    assert loaded.observable_names == traj.observable_names
    np.testing.assert_allclose(loaded.t, traj.t, atol=0)
    np.testing.assert_allclose(loaded.states, traj.states, atol=0)
    np.testing.assert_allclose(loaded.observables, traj.observables, atol=0)
    assert loaded.meta["model"] == "harmonic"


@pytest.mark.parametrize(
    "cut, message",
    [
        (lambda text: text[: text.rindex(",")] + "\n", "line 8 has 5 cells, expected 6"),
        (lambda text: text[:-4], "line 8 ends without a newline"),
        (lambda text: text[:-1], "line 8 ends without a newline"),
    ],
    ids=["missing_cell", "cut_inside_number", "missing_newline"],
)
def test_truncated_csv_is_rejected(tmp_path, cut, message):
    traj = run_scenario(
        harmonic_model(), PacketSpec.make(1.0, 0.0), "nambu", dt=1e-2, t_end=0.2, record_stride=10
    )
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    path.write_text(cut(path.read_text()))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        Trajectory.from_csv(path)


def test_corrupted_csv_cell_is_rejected(tmp_path):
    traj = run_scenario(
        harmonic_model(), PacketSpec.make(1.0, 0.0), "nambu", dt=1e-2, t_end=0.2, record_stride=10
    )
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[6].split(",")
    cells[2] += "x"
    lines[6] = ",".join(cells)
    path.write_text("".join(lines))
    with pytest.raises(
        ValueError, match=re.escape(f"{path}: line 7, column 'x2_0': '{cells[2]}' is not a number")
    ):
        Trajectory.from_csv(path)


def test_rk4_rejects_bad_steps():
    field = compile_nambu_field(HARM3)
    with pytest.raises(ValueError):
        rk4_integrate(field, np.zeros(3), -1e-3, 1.0)
    with pytest.raises(ValueError):
        rk4_integrate(field, np.zeros(3), 1e-3, 0.0)


def _assert_same_trajectory(a, b):
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.observables, b.observables)
    assert a.flags == b.flags


@pytest.fixture(params=["native", "python"])
def kernel(request, monkeypatch):
    """Which RK4 kernel ``compile_vector_field`` installs: the native build
    or, with the loader patched out, the generated Python."""
    if request.param == "python":
        monkeypatch.setattr(native, "load_rk4", lambda source, dim: None)
    elif shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    return request.param


def test_rk4_kernel_rejects_step_count_outside_c_long(kernel):
    rk4 = _compile_field(HARM3, kernel).rk4
    for n in (-1, native.LONG_MAX + 1, 10**19):
        with pytest.raises(ValueError, match=rf"rk4 step count {n} is outside 0\.\.{native.LONG_MAX}"):
            rk4((1.5, 0.5, 0.0), 0.1, n)
    assert rk4((1.5, 0.5, 0.0), 0.1, 0) == (1.5, 0.5, 0.0)


def _compile_field(hset, kernel):
    field = compile_nambu_field(hset)
    assert getattr(field.rk4, "native", False) is (kernel == "native")
    return field


HH_Y0 = init_nambu_from_packet(
    henon_heiles_model(), PacketSpec.make([0.3, -0.2], [0.1, 0.4])
).values


@pytest.mark.parametrize(
    "case",
    [
        # harmonic triplet, recording every 10th step
        dict(hset=HARM3, y0=[1.5, 0.5, 0.0], dt=1e-3, t_end=3.0, record_stride=10),
        # cubic escape: the stop predicate forces one kernel call per step
        dict(hset=CUBIC, y0=[0.0, 1.8, 0.5, 3.74], dt=1e-3, t_end=40.0,
             record_stride=100, stop=lambda y: y[0] < -15.0),
        # Henon-Heiles from t0 != 0 with a stride that does not divide n_steps
        dict(hset=HH, y0=HH_Y0, dt=1e-3, t0=0.5, t_end=3.0, record_stride=7),
    ],
    ids=["harmonic", "cubic_stop", "henon_heiles_t0"],
)
def test_rk4_kernel_bit_identical_to_numpy_loop(case, kernel):
    case = dict(case)
    hset = case.pop("hset")
    field = _compile_field(hset, kernel)
    got = rk4_integrate(field, **case)
    want = rk4_reference(field, **case)
    _assert_same_trajectory(got, want)
    if "stop" in case:
        assert got.flags[-1] == "escaped"


def test_rk4_kernel_non_finite_matches_numpy_loop(kernel):
    field = _compile_field(CUBIC, kernel)
    y0 = init_nambu_from_packet(cubic_model(), PacketSpec.make(0.0, 1.8)).values
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError) as got:
            rk4_integrate(field, y0, 1e-3, 40.0, record_stride=100)
        with pytest.raises(NonFiniteStateError) as want:
            rk4_reference(field, y0, 1e-3, 40.0, record_stride=100)
    assert str(got.value) == str(want.value)
    _assert_same_trajectory(got.value.trajectory, want.value.trajectory)


@pytest.mark.parametrize("stop", [None, lambda y: False], ids=["strided", "stop"])
def test_rk4_finite_state_with_overflowing_sum_is_not_an_error(kernel, stop):
    # The driver screens each call by the sum of the state, which overflows
    # here although every component stays finite.
    x1, x2 = xvar(1), xvar(2)
    field = compile_vector_field([1e-300 * Poly.var(x2), -1e-300 * Poly.var(x1)], [x1, x2])
    assert getattr(field.rk4, "native", False) is (kernel == "native")
    case = dict(y0=[1e308, 1e308], dt=1e-3, t_end=0.05, record_stride=10, stop=stop)
    got = rk4_integrate(field, **case)
    _assert_same_trajectory(got, rk4_reference(field, **case))
    assert len(got) == 6 and np.all(np.isfinite(got.states))


def test_rk4_rejects_field_shape_mismatch_and_missing_kernel():
    x1, x2 = xvar(1), xvar(2)
    field = compile_vector_field([Poly.var(x2), -Poly.var(x1)], [x1, x2])
    with pytest.raises(ValueError, match=r"shape \(3,\) to shape \(2,\)"):
        rk4_integrate(field, np.zeros(3), 1e-3, 1.0)
    with pytest.raises(TypeError, match="rk4 kernel"):
        rk4_integrate(lambda y: -y, np.zeros(2), 1e-3, 1.0)
    with pytest.raises(ValueError, match="record_stride"):
        rk4_integrate(field, np.zeros(2), 1e-3, 1.0, record_stride=0)
