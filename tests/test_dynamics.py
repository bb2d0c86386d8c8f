import math
import re
import tracemalloc

import numpy as np
import pytest

from helpers import (
    classical_vector_field,
    nambu_bracket,
    nambu_vector_field,
    rk4_reference,
    to_csv_reference,
)

from nambu_dyn import native
from nambu_dyn.dynamics import (
    CSV_BLOCK_ROWS,
    HamiltonianSet,
    NonFiniteStateError,
    Trajectory,
    check_run,
    compile_classical_field,
    compile_nambu_field,
    conserved_drift,
    integrate,
    rk4_integrate,
    symbolic_flow,
)
from nambu_dyn.poly import (
    Poly,
    ValidationError,
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
from nambu_dyn.state import Layout

HARM3 = hamiltonian_set(harmonic_model())
CUBIC = hamiltonian_set(cubic_model())
HH = hamiltonian_set(henon_heiles_model())


def test_nambu_field_harmonic_triplet():
    s = np.array([1.5, 0.5, 0.0])
    field = nambu_vector_field(HARM3, s)
    np.testing.assert_allclose(field, [0.0, 0.0, -1.0], atol=1e-14)


def test_nambu_field_cubic_initial_point():
    s = np.array([0.0, 1.8, 0.5, 3.74])
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
        via_brackets = nambu_vector_field(hset, y)
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
    y0 = init_nambu_from_packet(cubic_model(), PacketSpec.make(0.0, 1.8))
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
    # and F, G_c over the layout's x alone: the flow would treat x1_1 as a constant
    with pytest.raises(ValidationError, match="F and G_c .* got x1_1$"):
        HamiltonianSet(CUBIC.F * parse_poly("x1_1"), CUBIC.gs, CUBIC.layout)


def test_symbolic_flow_component_count():
    flow = symbolic_flow(HH)
    assert len(flow) == 8
    assert flow[0] == parse_poly("x2_0")


def _edge_values_trajectory():
    return Trajectory(
        [0.0, 0.1, 2.5e-17], [[-0.0, 1e-300], [math.inf, -math.inf], [math.nan, 1.0 / 3.0]],
        ["x1_0", "x2_0"], [[1.0], [2.0], [3.0]], ["F"], {"model": "test"},
    )


def _flags_across_blocks_trajectory():
    # Rows on both sides of a block boundary of the writer carry flags.
    n = CSV_BLOCK_ROWS + 2
    flags = [""] * n
    flags[CSV_BLOCK_ROWS - 1 : CSV_BLOCK_ROWS + 1] = ["last", "first"]
    flags[-1] = "escaped"
    rng = np.random.default_rng(3)
    return Trajectory(
        np.arange(n) * 0.1, rng.standard_normal((n, 2)), ["x1_0", "x2_0"],
        rng.standard_normal((n, 1)), ["F"], {"model": "test"}, flags,
    )


CSV_TRAJECTORIES = pytest.mark.parametrize(
    "make",
    [
        lambda: run_scenario(cubic_model(), PacketSpec.make(0.0, 1.8), "nambu"),
        lambda: run_scenario(
            harmonic_model(), PacketSpec.make(1.0, 0.5), "nambu", dt=1e-2, t_end=2.0
        ),
        _edge_values_trajectory,
        _flags_across_blocks_trajectory,
    ],
    ids=["escape-flags", "no-flags", "edge-values", "flags-across-blocks"],
)


@CSV_TRAJECTORIES
def test_trajectory_csv_roundtrip(make, tmp_path):
    traj = make()
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    loaded = Trajectory.from_csv(path)
    assert loaded.columns == traj.columns
    assert loaded.observable_names == traj.observable_names
    for name in ("t", "states", "observables"):
        a, b = getattr(loaded, name), getattr(traj, name)
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
    assert loaded.flags == traj.flags
    assert loaded.meta == {key: str(value) for key, value in traj.meta.items()}


@CSV_TRAJECTORIES
def test_csv_bytes_match_the_cell_by_cell_writer(make, tmp_path):
    traj = make()
    assert any(traj.flags) == (traj.flags[-1] == "escaped")
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    assert path.read_bytes() == to_csv_reference(traj).encode()


def test_csv_write_and_read_keep_memory_near_the_table(tmp_path):
    # 20,000 rows of 12 columns: a 1.9 MB table.  Neither method may hold
    # the file's text, its lines or a string per cell: each stays below 3x.
    rows = 20_000
    rng = np.random.default_rng(5)
    traj = Trajectory(
        np.arange(rows) * 1e-3, rng.standard_normal((rows, 8)), [f"x{k}_0" for k in range(8)],
        rng.standard_normal((rows, 3)), ["F", "G1", "G2"], {"model": "test"},
    )
    table_bytes = rows * 12 * 8
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        traj.to_csv(path)
        write_peak = tracemalloc.get_traced_memory()[1] - base
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loaded = Trajectory.from_csv(path)
        read_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.states, traj.states)
    assert write_peak < 3 * table_bytes, write_peak
    assert read_peak < 3 * table_bytes, read_peak


def _counting_rows(stop_at=None, fail_at=None):
    """Runner rows that record each row's step count as its value; they end
    the run at ``stop_at``, flagged 'escaped', and fail at ``fail_at``."""
    def rows(steps):
        for step in steps:
            if step == fail_at:
                raise NonFiniteStateError(f"failed at step {step}")
            stop = (stop_at, "escaped") if stop_at is not None and step >= stop_at else None
            yield (step,), stop

    return rows


def test_integrate_hands_the_row_schedule_to_one_runner_call():
    # 10 steps of 0.5 recorded every 3: rows at steps 0, 3, 6, 9 and 10.
    handed = []

    def rows(steps):
        handed.append(list(steps))
        return _counting_rows()(steps)

    traj = integrate(rows, (0.0,), 0.5, 5.25, ["s"], record_stride=3)
    assert handed == [[3, 6, 9, 10]]
    assert traj.t.tolist() == [0.0, 1.5, 3.0, 4.5, 5.0]
    assert traj.states[:, 0].tolist() == [0, 3, 6, 9, 10]
    assert traj.flags == [""] * 5
    # A row that ends the run carries the step the runner reports, off the schedule.
    stopped = integrate(_counting_rows(stop_at=5), (0.0,), 0.5, 5.25, ["s"], record_stride=3)
    assert stopped.t.tolist() == [0.0, 1.5, 2.5]
    assert stopped.flags == ["", "", "escaped"]
    # A t_end within 1e-9 of a step counts that step; one 5e-7 of a step short does not.
    assert [check_run(0.25, (40 - short) * 0.25) for short in (5e-7, 1e-10, 0.0)] == [39, 40, 40]


def test_integrate_stops_consuming_rows_at_a_stop():
    # The runner is closed at its stop row, never resumed, so a failure it
    # would raise after that row is never raised.
    resumed = []

    def rows(steps):
        yield (steps[0],), (steps[0], "absorbed")
        resumed.append(True)
        raise NonFiniteStateError("after the stop")

    traj = integrate(rows, (0.0,), 0.5, 5.25, ["s"], record_stride=3)
    assert traj.t.tolist() == [0.0, 1.5]
    assert traj.flags == ["", "absorbed"]
    assert resumed == []


@pytest.mark.parametrize("fail_at, kept", [(6, [0, 3]), (9, [0, 3, 6]), (10, [0, 3, 6, 9])])
def test_integrate_abort_keeps_the_rows_before_the_failing_stride(fail_at, kept):
    with pytest.raises(NonFiniteStateError) as err:
        integrate(_counting_rows(fail_at=fail_at), (0.0,), 0.5, 5.25, ["s"], record_stride=3)
    partial = err.value.trajectory
    assert partial.states[:, 0].tolist() == kept
    assert partial.t.tolist() == [0.5 * s for s in kept]
    assert partial.flags == [""] * len(kept)


@pytest.mark.parametrize(
    "cut, message",
    [
        (lambda text: text[: text.rindex(",")] + "\n", "line 8 has 5 cells, expected 6"),
        (lambda text: text[:-4], "line 8 ends without a newline"),
        (lambda text: text[:-1], "line 8 ends without a newline"),
        (lambda text: "".join(line for line in text.splitlines(True) if line.startswith("#")),
         "no CSV header found"),
    ],
    ids=["missing_cell", "cut_inside_number", "missing_newline", "no_header"],
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


def test_header_only_csv_keeps_its_observable_columns(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# model = cubic\nt,x1_0,F,G1\n")
    loaded = Trajectory.from_csv(path)
    assert loaded.observable_names == ["F", "G1"]
    assert loaded.observables.shape == (0, 2)
    assert loaded.states.shape == (0, 1) and len(loaded) == 0
    assert loaded.column("G1").shape == (0,)
    with pytest.raises(KeyError, match="no column 'x2_0'"):
        loaded.column("x2_0")


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
    # A fault of the file's structure on a later line is reported first.
    path.write_text("".join(lines)[:-1])
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 8 ends without a newline")):
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


def test_rk4_kernel_rejects_step_count_outside_c_long(kernel):
    rk4 = _compile_field(HARM3, kernel).rk4
    for n in (-1, native.LONG_MAX + 1, 10**19):
        with pytest.raises(ValueError, match=rf"rk4 step count {n} is outside 0\.\.{native.LONG_MAX}"):
            rk4((1.5, 0.5, 0.0), 0.1, n, -math.inf)
    assert rk4((1.5, 0.5, 0.0), 0.1, 0, -math.inf) == ((1.5, 0.5, 0.0), 0)


def _reference(field, stop_below=None, **case):
    """``rk4_reference`` with the escape stop ``y[0] < stop_below``."""
    stop = None if stop_below is None else (lambda y: y[0] < stop_below)
    return rk4_reference(field, stop=stop, **case)


def _compile_field(hset, kernel):
    field = compile_nambu_field(hset)
    assert getattr(field.rk4, "native", False) is (kernel == "native")
    return field


HH_Y0 = init_nambu_from_packet(henon_heiles_model(), PacketSpec.make([0.3, -0.2], [0.1, 0.4]))


@pytest.mark.parametrize(
    "case",
    [
        # harmonic triplet, recording every 10th step
        dict(hset=HARM3, y0=[1.5, 0.5, 0.0], dt=1e-3, t_end=3.0, record_stride=10),
        # cubic escape: the kernel ends its call at the escape step
        dict(hset=CUBIC, y0=[0.0, 1.8, 0.5, 3.74], dt=1e-3, t_end=40.0,
             record_stride=100, stop_below=-15.0),
        # Henon-Heiles with a stride that does not divide n_steps
        dict(hset=HH, y0=HH_Y0, dt=1e-3, t_end=2.5, record_stride=7),
    ],
    ids=["harmonic", "cubic_stop", "henon_heiles_stride7"],
)
def test_rk4_kernel_bit_identical_to_numpy_loop(case, kernel):
    case = dict(case)
    hset = case.pop("hset")
    field = _compile_field(hset, kernel)
    got = rk4_integrate(field, **case)
    want = _reference(field, **case)
    _assert_same_trajectory(got, want)
    if "stop_below" in case:
        assert got.flags[-1] == "escaped"


def test_rk4_kernel_non_finite_matches_numpy_loop(kernel):
    field = _compile_field(CUBIC, kernel)
    y0 = init_nambu_from_packet(cubic_model(), PacketSpec.make(0.0, 1.8))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError) as got:
            rk4_integrate(field, y0, 1e-3, 40.0, record_stride=100)
        with pytest.raises(NonFiniteStateError) as want:
            rk4_reference(field, y0, 1e-3, 40.0, record_stride=100)
    assert str(got.value) == str(want.value)
    _assert_same_trajectory(got.value.trajectory, want.value.trajectory)


def test_rk4_non_finite_last_step_of_a_stride_matches_numpy_loop(kernel):
    # The state first turns non-finite at step 9363 = 3 * 3121, the last step
    # of the third kernel call.
    field = _compile_field(CUBIC, kernel)
    y0 = init_nambu_from_packet(cubic_model(), PacketSpec.make(0.0, 1.8))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError, match=r"step 9363 of 40000") as got:
            rk4_integrate(field, y0, 1e-3, 40.0, record_stride=3121)
        with pytest.raises(NonFiniteStateError) as want:
            rk4_reference(field, y0, 1e-3, 40.0, record_stride=3121)
    assert str(got.value) == str(want.value)
    _assert_same_trajectory(got.value.trajectory, want.value.trajectory)
    assert len(got.value.trajectory) == 3


def test_rk4_escape_takes_one_kernel_call_per_stride(kernel):
    field = _compile_field(CUBIC, kernel)
    calls, rk4 = [], field.rk4

    def counting(y, dt, n, below):
        calls.append(n)
        return rk4(y, dt, n, below)

    field.rk4 = counting
    y0 = init_nambu_from_packet(cubic_model(), PacketSpec.make(0.0, 1.8))
    traj = rk4_integrate(field, y0, 1e-3, 40.0, record_stride=10, stop_below=-15.0)
    assert traj.flags[-1] == "escaped" and len(traj) == 814 and traj.t[-1] == 8.13
    assert len(calls) == 813 and set(calls) == {10}


@pytest.mark.parametrize("stop_below", [None, -math.inf], ids=["strided", "stop"])
def test_rk4_finite_state_with_overflowing_sum_is_not_an_error(kernel, stop_below):
    # The sum of this state overflows although every component stays finite,
    # so a kernel that tested the sum would take a false non-finite exit.
    x1, x2 = xvar(1), xvar(2)
    field = compile_vector_field([1e-300 * Poly.var(x2), -1e-300 * Poly.var(x1)], [x1, x2])
    assert getattr(field.rk4, "native", False) is (kernel == "native")
    case = dict(y0=[1e308, 1e308], dt=1e-3, t_end=0.05, record_stride=10, stop_below=stop_below)
    got = rk4_integrate(field, **case)
    _assert_same_trajectory(got, _reference(field, **case))
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
