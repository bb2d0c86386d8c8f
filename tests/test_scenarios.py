import ast
import dataclasses
import filecmp
import importlib
import math
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from helpers import README, harmonic_packet_moments, readme_section, strang_run, stride_run

import nambu_dyn
from nambu_dyn import cli, scenarios
from nambu_dyn.cli import main
from nambu_dyn.dynamics import NonFiniteStateError, Trajectory, conserved_drift
from nambu_dyn.multiplets import (
    DEFAULT_CONSISTENCY_SAMPLES, DEFAULT_CONSISTENCY_TOL, MultipletDef,
)
from nambu_dyn.poly import ValidationError, compile_evaluator
from nambu_dyn.quantum import (
    Grid,
    NonFiniteAmplitudeError,
    SplitOperatorPropagator,
    absorbing_mask,
    init_gaussian,
)
from nambu_dyn.scenarios import (
    ModelSpec,
    PacketSpec,
    compare,
    cubic_model,
    harmonic_model,
    hamiltonian_set,
    henon_heiles_model,
    init_nambu_from_packet,
    mode_energy_series,
    model_by_name,
    potential_poly,
    run_scenario,
)
from nambu_dyn.state import x_vars


def test_model_factories_and_names():
    assert model_by_name("henon-heiles").model_id == "henon_heiles"
    assert model_by_name("cubic").g == 0.3
    with pytest.raises(ValueError):
        model_by_name("other")
    with pytest.raises(ValueError):
        harmonic_model(m=-1.0)


def test_a_model_is_one_table_entry(monkeypatch, tmp_path):
    harmonic = scenarios.MODELS["harmonic"]
    copy = harmonic._replace(
        factory=lambda: dataclasses.replace(harmonic_model(), model_id="harmonic_copy")
    )
    monkeypatch.setitem(scenarios.MODELS, "harmonic_copy", copy)
    spec, renamed = harmonic_model(), model_by_name("harmonic-copy")
    packet = PacketSpec.make(1.0, 0.5)
    for method in ("nambu", "classical", "quantum"):  # stride and grid from the table
        a = run_scenario(spec, packet, method, dt=1e-2, t_end=1.0)
        b = run_scenario(renamed, packet, method, dt=1e-2, t_end=1.0)
        for field in ("t", "states", "observables"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert list(a.flags) == list(b.flags) and a.columns == b.columns
        assert {**a.meta, "model": "harmonic_copy"} == b.meta
    out = tmp_path / "copy.csv"
    argv = ["run", "--model", "harmonic-copy", "--method", "nambu", "--t-end", "0.1"]
    assert main([*argv, "--out", str(out)]) == 0
    assert Trajectory.from_csv(out).meta["model"] == "harmonic_copy"
    with pytest.raises(ValueError, match="unknown model 'harmonic_twin'"):
        ModelSpec("harmonic_twin", (1.0,), (1.0,))


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(multiplet_name="sextet"), "unknown multiplet 'sextet'"),
        (dict(closure="zero_cumulant"), "closure = 'zero_cumulant' is not a ClosureMode"),
        (dict(masses=(), omegas=()), "a model needs one or more dofs"),
        (dict(model_id="henon_heiles"), "henon_heiles needs 2 dofs, got 1"),
        (dict(g=0.3, multiplet_name="triplet"), "g applies only to the cubic model, not harmonic"),
        (dict(model_id="cubic", lam=-0.11), "lam applies only to the henon_heiles model"),
        (dict(model_id="cubic", g=0.3, multiplet_name="triplet"),
         "the triplet hosts only the harmonic model, not cubic"),
        (dict(model_id="henon_heiles", masses=(1.0, 1.0), omegas=(1.0, 1.1), lam=-0.11,
              multiplet_name="triplet"),
         "the triplet hosts only the harmonic model, not henon_heiles"),
    ],
    ids=["multiplet", "closure", "no-dof", "hh-dofs", "g", "lam", "cubic-triplet", "hh-triplet"],
)
def test_model_spec_rejects_what_it_would_ignore_or_fail_on(fields, message):
    with pytest.raises(ValueError, match=message):
        ModelSpec(**{"model_id": "harmonic", "masses": (1.0,), "omegas": (1.0,), **fields})


def test_potential_polys():
    from nambu_dyn.poly import q

    cubic = potential_poly(cubic_model())
    assert cubic.coefficient({q(0): 2}) == pytest.approx(0.5)
    assert cubic.coefficient({q(0): 3}) == pytest.approx(0.1)
    hh = potential_poly(henon_heiles_model())
    assert hh.coefficient({q(0): 2}) == pytest.approx(0.5)
    assert hh.coefficient({q(1): 2}) == pytest.approx(0.605)
    assert hh.coefficient({q(0): 1, q(1): 2}) == pytest.approx(-0.11)


def test_init_nambu_cubic_packet():
    state = init_nambu_from_packet(cubic_model(), PacketSpec.make(0.0, 1.8))
    np.testing.assert_allclose(state, [0.0, 1.8, 0.5, 3.74], atol=1e-12)


def test_init_nambu_henon_heiles_zero_point():
    state = init_nambu_from_packet(
        henon_heiles_model(), PacketSpec.make((0.0, 1.0), (0.0, 1.0))
    )
    np.testing.assert_allclose(state[:4], [0.0, 0.0, 0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(
        state[4:], [1.0, 1.0, 1.0 + 1.0 / 2.2, 1.55], atol=1e-12
    )


def test_init_nambu_zero_width_is_classical_image():
    state = init_nambu_from_packet(
        cubic_model(), PacketSpec.make(1.2, -0.7, sigma=0.0)
    )
    np.testing.assert_allclose(state, [1.2, -0.7, 1.44, 0.49], atol=1e-12)


def test_init_nambu_triplet():
    state = init_nambu_from_packet(harmonic_model(), PacketSpec.make(1.0, 0.5))
    np.testing.assert_allclose(state, [1.5, 0.75, 0.5], atol=1e-12)


def test_packet_constraints_match_widths():
    rng = np.random.default_rng(4)
    spec = cubic_model()
    hset = hamiltonian_set(spec)
    for _ in range(10):
        sigma = float(rng.uniform(0.3, 1.5))
        packet = PacketSpec.make(rng.uniform(-1, 1), rng.uniform(-1, 1), sigma=sigma)
        state = init_nambu_from_packet(spec, packet)
        point = dict(zip(x_vars(hset.layout), state.tolist()))
        assert hset.gs[0].eval(point) == pytest.approx(sigma**2, rel=1e-12)
        assert hset.gs[1].eval(point) == pytest.approx(
            1.0 / (4.0 * sigma**2), rel=1e-12
        )


def test_packet_spec_validation():
    with pytest.raises(ValueError):
        PacketSpec.make((0.0, 1.0), (0.0,))
    with pytest.raises(ValueError):
        PacketSpec.make(0.0, 0.0, sigma=-0.5)
    with pytest.raises(ValueError, match=r"packet parameter qc\[1\] = nan is not finite"):
        PacketSpec.make((0.0, float("nan")), (0.0, 0.0))
    with pytest.raises(ValueError, match=r"packet parameter pc\[0\] = -inf is not finite"):
        PacketSpec.make(0.0, float("-inf"))
    with pytest.raises(ValueError, match=r"packet parameter sigmas\[0\] = nan is not finite"):
        PacketSpec.make(0.0, 0.0, sigma=float("nan"))
    for sigma in (1e-200, 5e-324, 1e200):  # sigma^2 underflows to 0 or overflows to inf
        message = rf"sigmas\[0\] = {re.escape(repr(sigma))} has a square outside the float range"
        with pytest.raises(ValidationError, match=message):
            PacketSpec.make(0.0, 0.0, sigma=sigma)
    assert PacketSpec.make(0.0, 0.0, sigma=-0.0).sigmas == (-0.0,)  # zero: the classical image


@pytest.mark.parametrize("method", ["nambu", "quantum"])
@pytest.mark.parametrize(
    "m, omega, message",
    [(1e-200, 1e-200, r"default sigmas\[0\] = inf is not a positive"),
     (1e300, 1e10, r"default sigmas\[0\] = 0.0 is not a positive")],
    ids=["2mw_underflows", "2mw_overflows"],
)
def test_a_default_width_outside_the_float_range_is_rejected(method, m, omega, message):
    # sqrt(hbar / 2mw), the default width of the runs that read one.
    spec, packet = harmonic_model(m=m, omega=omega), PacketSpec.make(1.0, 0.0)
    with pytest.raises(ValidationError, match=message):
        run_scenario(spec, packet, method, dt=1e-2, t_end=0.1, grid=Grid.make_1d(-10, 10, 64))


@pytest.mark.parametrize("method", ["nambu", "classical", "quantum"])
@pytest.mark.parametrize(
    "bad, message",
    [
        (dict(record_stride=0), "record_stride = 0 is not an integer >= 1"),
        (dict(record_stride=True), "record_stride = True is not an integer >= 1"),
        (dict(dt=math.inf), "dt = inf is not a positive finite number"),
        (dict(t_end=math.inf), "t_end = inf is not a positive finite number"),
        (dict(t_end=0.0), "t_end = 0.0 is not a positive finite number"),
        (dict(t_end=-1.0), "t_end = -1.0 is not a positive finite number"),
        (dict(t_end=0.005), "t_end = 0.005 is shorter than one step of dt = 0.01"),
        (dict(dt=5e-324), "t_end = 1.0 at dt = 5e-324 is inf steps, more than the limit"),
        (dict(dt=5e-324, record_stride=None),
         "t_end = 1.0 at dt = 5e-324 is inf steps, more than the limit"),
    ],
    ids=["stride_0", "stride_bool", "dt_inf", "t_end_inf", "t_end_0", "t_end_negative",
         "t_end_under_one_step", "dt_subnormal", "dt_subnormal_default_stride"],
)
def test_bad_run_lengths_fail_before_stepping(method, bad, message):
    kwargs = dict(dt=1e-2, t_end=1.0, record_stride=10, grid=Grid.make_1d(-10.0, 10.0, 128))
    kwargs.update(bad)
    with pytest.raises(ValueError, match=message):
        run_scenario(harmonic_model(), PacketSpec.make(1.0, 0.0), method, **kwargs)


@pytest.mark.parametrize("method", ["nambu", "classical", "quantum"])
def test_cli_rejects_a_run_shorter_than_one_step(method, tmp_path, capsys):
    out = tmp_path / "never.csv"
    argv = ["run", "--model", "harmonic", "--method", method, "--dt", "0.01", "--t-end", "0.005"]
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert "t_end = 0.005 is shorter than one step of dt = 0.01" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["nambu", "quantum"])
def test_a_subnormal_dt_takes_one_stride_by_default(method):
    # output_interval / dt is inf for dt < 5.6e-311: the default stride is
    # then the whole run, 2024 steps.
    traj = run_scenario(harmonic_model(), PacketSpec.make(1.0, 0.0), method, dt=5e-324,
                        t_end=1e-320, grid=Grid.make_1d(-10.0, 10.0, 128))
    assert traj.t.tolist() == [0.0, 2024 * 5e-324] == [0.0, 1e-320]


def test_model_spec_rejects_non_finite_parameters():
    with pytest.raises(ValueError, match="g = nan is not finite"):
        cubic_model(g=float("nan"))
    with pytest.raises(ValueError, match=r"omegas\[0\] = inf is not finite"):
        harmonic_model(omega=float("inf"))


def test_equal_specs_share_one_model_build():
    assert hamiltonian_set(cubic_model()) is hamiltonian_set(cubic_model())
    assert scenarios.model_multiplet(henon_heiles_model()) is scenarios.model_multiplet(
        henon_heiles_model()
    )


@pytest.mark.parametrize(
    "masses, omegas",
    [((1, 2), (1, 1)), ([1.0, 2.0], [1.0, 1.0])],
    ids=["int", "list"],
)
def test_model_spec_keeps_float_tuples(masses, omegas):
    spec = ModelSpec("henon_heiles", masses, omegas, lam=-0.11)
    assert spec.masses == (1.0, 2.0) and spec.omegas == (1.0, 1.0)
    assert all(type(v) is float for v in spec.masses + spec.omegas)
    floats = ModelSpec("henon_heiles", (1.0, 2.0), (1.0, 1.0), lam=-0.11)
    assert hash(spec) == hash(floats)
    assert hamiltonian_set(spec) == hamiltonian_set.__wrapped__(floats)


@pytest.mark.parametrize(
    "masses, error", [(("2",), "must be real number"), ((True,), "is a bool, not a number")],
    ids=["str", "bool"],
)
def test_model_spec_converts_only_real_numbers(masses, error):
    with pytest.raises(TypeError, match=error):
        ModelSpec("harmonic", masses, (1.0,), multiplet_name="triplet")


def test_runs_build_each_model_once(monkeypatch):
    calls = {"build_F": 0, "with_n_dof": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scenarios, "build_F", counted("build_F", scenarios.build_F))
    monkeypatch.setattr(
        MultipletDef, "with_n_dof", counted("with_n_dof", MultipletDef.with_n_dof)
    )
    scenarios.model_multiplet.cache_clear()
    hamiltonian_set.cache_clear()
    spec, packet = harmonic_model(), PacketSpec.make(1.0, 0.0)
    run_scenario(spec, packet, "nambu", dt=1e-2, t_end=1.0)
    run_scenario(spec, packet, "quantum", dt=1e-2, t_end=1.0, grid=Grid.make_1d(-10, 10, 256))
    assert calls == {"build_F": 1, "with_n_dof": 1}


@pytest.mark.parametrize("method", ["nambu", "quantum"])
def test_run_scenario_rejects_more_steps_than_the_kernel_counts(method):
    # The default stride here is 1e298 steps, which a C long would wrap.
    with pytest.raises(ValueError, match=r"is 1e\+300 steps, more than the limit"):
        run_scenario(harmonic_model(), PacketSpec.make(1.0, 0.0), method, dt=1e-300, t_end=1.0)


@pytest.mark.parametrize("method", ["nambu", "classical", "quantum"])
@pytest.mark.parametrize(
    "model, qc, n_dof",
    [("henon-heiles", "0", 1), ("harmonic", "0,0", 2)],
    ids=["1dof_on_henon_heiles", "2dof_on_harmonic"],
)
def test_packet_with_wrong_dof_count_is_rejected(method, model, qc, n_dof, tmp_path, capsys):
    spec = model_by_name(model)
    message = f"packet has {n_dof} dofs, model needs {spec.n_dof}"
    packet = PacketSpec.make([0.0] * n_dof, [0.0] * n_dof)
    with pytest.raises(ValueError, match=message):
        run_scenario(spec, packet, method, dt=1e-2, t_end=0.1)
    out = tmp_path / "never.csv"
    argv = ["run", "--model", model, "--method", method, "--qc", qc, "--pc", qc]
    assert main([*argv, "--dt", "1e-2", "--t-end", "0.1", "--out", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_run_scenario_rejects_unknown_method():
    with pytest.raises(ValueError):
        run_scenario(cubic_model(), PacketSpec.make(0.0, 1.8), "exact")


def test_cubic_nambu_crosses_barrier_and_classical_does_not():
    spec = cubic_model()
    packet = PacketSpec.make(0.0, 1.8)
    nambu = run_scenario(spec, packet, "nambu", dt=1e-3, t_end=40.0)
    assert nambu.column("x1_0").min() < -3.3
    assert nambu.flags[-1] == "escaped"
    classical = run_scenario(spec, packet, "classical", dt=1e-3, t_end=50.0)
    assert classical.column("x1_0").min() > -3.3
    assert all(f == "" for f in classical.flags)


def test_classical_rows_satisfy_constraints_exactly():
    spec = cubic_model()
    traj = run_scenario(
        spec, PacketSpec.make(0.0, 1.8), "classical", dt=1e-3, t_end=5.0
    )
    # classical images make every G vanish and F equal the classical energy
    np.testing.assert_allclose(traj.column("G1"), 0.0, atol=1e-12)
    np.testing.assert_allclose(traj.column("G2"), 0.0, atol=1e-12)
    drift = conserved_drift(traj)
    assert drift["F"].max_abs < 1e-9
    assert traj.observables[0, 0] == pytest.approx(1.62, abs=1e-12)


def test_harmonic_quantum_matches_nambu_triplet():
    spec = harmonic_model()
    packet = PacketSpec.make(1.0, 0.0)
    nambu = run_scenario(spec, packet, "nambu", dt=1e-3, t_end=5.0)
    quantum = run_scenario(spec, packet, "quantum", dt=1e-3, t_end=5.0)
    stats = compare(nambu, quantum, ["x1_0", "x2_0", "x3_0"])
    for stat in stats.values():
        assert stat.max_abs < 1e-4
        assert stat.rms < 1e-4


def test_compare_identical_and_disjoint():
    spec = harmonic_model()
    traj = run_scenario(spec, PacketSpec.make(1.0, 0.0), "nambu", dt=1e-2, t_end=1.0)
    same = compare(traj, traj, ["x1_0"])
    assert same["x1_0"].max_abs == 0.0 and same["x1_0"].rms == 0.0
    other = run_scenario(
        spec, PacketSpec.make(1.0, 0.0), "nambu", dt=1e-2, t_end=1.0
    )
    other.t = other.t + 100.0
    with pytest.raises(ValueError, match="disjoint"):
        compare(traj, other, ["x1_0"])


def test_compare_rejects_an_overlap_without_rows_of_the_first():
    # the ranges share [2, 3], but the first trajectory has rows only at 0 and 10
    spec = harmonic_model()
    a = run_scenario(spec, PacketSpec.make(1.0, 0.0), "nambu", dt=1.0, t_end=10.0, record_stride=10)
    b = run_scenario(spec, PacketSpec.make(1.0, 0.0), "nambu", dt=1.0, t_end=1.0)
    assert a.t.tolist() == [0.0, 10.0] and b.t.tolist() == [0.0, 1.0]
    b.t = b.t + 2.0
    with pytest.raises(ValueError, match=r"no row of the first trajectory lies in the common range \[2\.0, 3\.0\]"):
        compare(a, b, ["x1_0"])


def test_compare_interpolates_different_grids():
    spec = harmonic_model()
    a = run_scenario(spec, PacketSpec.make(1.0, 0.0), "nambu", dt=1e-3, t_end=2.0,
                     record_stride=10)
    b = run_scenario(spec, PacketSpec.make(1.0, 0.0), "nambu", dt=5e-4, t_end=2.0,
                     record_stride=5)
    stats = compare(a, b, ["x1_0"])
    assert stats["x1_0"].max_abs < 1e-6


def test_henon_heiles_zero_point_offset():
    spec = henon_heiles_model()
    packet = PacketSpec.make((0.0, 1.0), (0.0, 1.0))
    nambu = run_scenario(spec, packet, "nambu", dt=1e-2, t_end=1.0)
    classical = run_scenario(spec, packet, "classical", dt=1e-2, t_end=1.0)
    En = mode_energy_series(nambu, spec)
    Ec = mode_energy_series(classical, spec)
    assert En[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert En[0, 1] == pytest.approx(1.655, abs=1e-12)
    assert Ec[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert Ec[0, 1] == pytest.approx(1.105, abs=1e-12)
    assert abs(En[0, 1] - Ec[0, 1]) == pytest.approx(0.55, abs=1e-12)


def test_trajectory_schema_and_flags_column(tmp_path):
    spec = cubic_model()
    out = tmp_path / "cubic.csv"
    run_scenario(spec, PacketSpec.make(0.0, 1.8), "nambu", dt=1e-3, t_end=40.0,
                 out_path=out)
    lines = out.read_text().splitlines()
    header = [line for line in lines if not line.startswith("#")][0]
    assert header == "t,x1_0,x2_0,x3_0,x4_0,F,G1,G2,flags"
    assert lines[-1].endswith("escaped")


def test_quantum_run_reports_boundary_amplitude_and_norm_loss():
    spec = harmonic_model()
    grid = Grid.make_1d(-10.0, 10.0, 512)

    def run(qc, pc):
        traj = run_scenario(spec, PacketSpec.make(qc, pc), "quantum", dt=1e-2,
                            t_end=math.pi / 2, record_stride=10, grid=grid)
        return float(traj.meta["boundary_amp_max"]), float(traj.meta["norm_loss"])

    centred, centred_loss = run(0.0, 0.0)
    near_edge, _ = run(3.0, 0.0)
    # Starts centred, reaches x = 5 after a quarter period: only the rows
    # recorded while propagating see it near the boundary.
    moving, _ = run(0.0, 5.0)
    assert centred < 1e-13  # rounding noise of the transforms
    assert near_edge > 1e3 * centred
    assert moving > 1e4 * near_edge
    assert centred_loss < 1e-10


def test_quantum_default_stride_and_columns():
    spec = harmonic_model()
    traj = run_scenario(spec, PacketSpec.make(1.0, 0.0), "quantum", dt=1e-2,
                        t_end=0.1)
    assert traj.columns == ["x1_0", "x2_0", "x3_0"]
    assert traj.observable_names == ["F", "G1"]
    assert len(traj) == 11


@pytest.mark.parametrize("multiplet", ["triplet", "quartet"])
def test_harmonic_rows_match_the_exact_gaussian_packet(multiplet):
    # A Gaussian packet stays Gaussian under a harmonic potential, so its
    # moments are known in closed form; the composed steps must be at least
    # as close to them as Strang steps of the caller's dt.
    spec = harmonic_model(multiplet=multiplet)
    packet = PacketSpec.make(1.0, 0.5)
    grid = Grid.make_1d(-10.0, 10.0, 2048)
    traj = run_scenario(spec, packet, "quantum", dt=1e-3, t_end=5.0, grid=grid)
    assert (traj.meta["split_order"], traj.meta["quantum_dt"]) == ("4", "0.01")
    exact = harmonic_packet_moments(traj.t, 1.0, 0.5, math.sqrt(0.5))
    exact = exact[:, [2, 3, 4]] if multiplet == "triplet" else exact[:, :4]
    t, strang, _ = strang_run(spec, packet, 1e-3, 5.0, 10, grid)
    assert np.array_equal(t, traj.t)
    composed_err = np.abs(traj.states - exact).max()
    assert composed_err <= np.abs(strang - exact).max()
    assert composed_err < 1e-7


@pytest.mark.parametrize(
    "name, qc, pc, dt, t_end, stride, grid",
    [
        ("cubic", 0.0, 1.8, 1e-2, 40.0, 10, Grid.make_1d(-30.0, 15.0, 1024)),
        ("harmonic", 1.0, 0.0, 1e-2, 1.57, 10, Grid.make_1d(-10.0, 10.0, 512)),
        ("harmonic", 1.0, 0.0, 1e-2, 1.0, 100, Grid.make_1d(-10.0, 10.0, 512)),
    ],
    ids=["absorbed", "gcd_1", "one_stride"],
)
def test_runs_kept_on_strang_steps_are_unchanged(name, qc, pc, dt, t_end, stride, grid):
    # absorbed: no composed step may run backward through the absorber;
    # gcd_1: gcd(10, 157 steps) = 1 leaves no larger step that reaches every
    # row; one_stride: the estimate would cost more than the run.
    spec = model_by_name(name)
    packet = PacketSpec.make(qc, pc)
    traj = run_scenario(spec, packet, "quantum", dt=dt, t_end=t_end, record_stride=stride,
                        grid=grid)
    t, rows, flags = strang_run(spec, packet, dt, t_end, stride, grid)
    assert (traj.meta["split_order"], traj.meta["quantum_dt"]) == ("2", repr(dt))
    assert np.array_equal(traj.t, t)
    assert np.array_equal(traj.states, rows)
    assert traj.flags == flags
    estimated = name == "harmonic" and stride == 10
    assert math.isnan(float(traj.meta["strang_err_est"])) != estimated
    if name == "cubic":
        assert flags[-1] == "absorbed"


class _FailsAtCall(SplitOperatorPropagator):
    """A propagator whose potential phase turns NaN at its ``FAIL_AT``-th step call."""

    FAIL_AT = 0

    def step(self, wf, n=1):
        self.calls = getattr(self, "calls", 0) + 1
        if self.calls == self.FAIL_AT:
            self.exp_v_half = np.full_like(self.exp_v_half, np.nan)
        return super().step(wf, n)


def _captured_run(monkeypatch, spec, packet, **kwargs):
    """``run_scenario``'s quantum trajectory and its final wavefunction."""
    wfs = []

    def capture(*args, **kw):
        wfs.append(init_gaussian(*args, **kw))
        return wfs[-1]

    monkeypatch.setattr(scenarios, "init_gaussian", capture)
    return run_scenario(spec, packet, "quantum", **kwargs), wfs[0]


CUBIC_1024 = Grid.make_1d(-30.0, 15.0, 1024)


@pytest.mark.parametrize(
    "name, pc, dt, t_end, grid",
    [("harmonic", 0.5, 1e-2, 1.05, None), ("cubic", 1.8, 1e-2, 40.0, CUBIC_1024)],
    ids=["short-last-stride", "absorbed-mid-block"],
)
def test_block_rows_match_a_stride_by_stride_loop(name, pc, dt, t_end, grid, monkeypatch):
    # The run records its rows in blocks of ROW_BLOCK_BYTES of states (4 rows
    # at 2048 points, 8 at 1024); the loop steps one stride and takes one
    # row at a time.  Rows, flags and the final state must agree to the bit.
    spec = model_by_name(name)
    packet = PacketSpec.make(1.0 if name == "harmonic" else 0.0, pc)
    traj, wf = _captured_run(
        monkeypatch, spec, packet, dt=dt, t_end=t_end, record_stride=10, grid=grid
    )
    grid = wf.grid
    h, order = float(traj.meta["quantum_dt"]), int(traj.meta["split_order"])
    absorber = absorbing_mask(grid) if name == "cubic" else None
    prop = SplitOperatorPropagator(
        grid, potential_poly(spec), h, spec.hbar, spec.masses, absorber, order
    )
    ref = init_gaussian(grid, packet.qc, packet.pc, packet.resolved_sigmas(spec), spec.hbar)
    kinds = ("q2", "p2", "qp_sym") if name == "harmonic" else ("q", "p", "q2", "p2")
    n_steps = int(np.floor(t_end / dt + 1e-9))
    steps, rows, flags = stride_run(
        prop, ref, kinds, n_steps, 10, round(h / dt), absorber is not None
    )
    block = scenarios.ROW_BLOCK_BYTES // wf.amps.nbytes
    if name == "harmonic":  # 10 full strides and one of 5 steps: blocks of 4, 4 and 3
        assert (block, steps[-1] - steps[-2], flags[-1]) == (4, 5, "")
    else:  # row 54 ends the run, the sixth of the block of rows 49-56
        assert (block, len(steps) - 1, flags[-1]) == (8, 54, "absorbed")
    assert np.array_equal(traj.t, steps * dt)
    assert np.array_equal(traj.states, rows)
    assert traj.flags == flags
    assert np.array_equal(wf.amps, ref.amps)


@pytest.mark.parametrize("fail_at", [1, 3, 5, 11])
def test_quantum_abort_in_a_block_keeps_the_rows_before_it(fail_at, monkeypatch):
    # 11 strides in blocks of 4, 4 and 3: the failing stride opens the first
    # block, sits inside it, opens the second, or closes the run.
    spec, packet = harmonic_model(), PacketSpec.make(1.0, 0.5)
    run = dict(dt=1e-2, t_end=1.05, record_stride=10)
    whole = run_scenario(spec, packet, "quantum", **run)
    monkeypatch.setattr(_FailsAtCall, "FAIL_AT", fail_at)
    monkeypatch.setattr(scenarios, "SplitOperatorPropagator", _FailsAtCall)
    with pytest.raises(NonFiniteAmplitudeError) as err:
        run_scenario(spec, packet, "quantum", **run)
    partial = err.value.trajectory
    assert len(partial) == fail_at
    assert np.array_equal(partial.t, whole.t[:fail_at])
    assert np.array_equal(partial.states, whole.states[:fail_at])
    assert np.array_equal(partial.observables, whole.observables[:fail_at])
    assert partial.flags == [""] * fail_at


def test_quantum_abort_after_an_absorbed_row_in_its_block_is_not_raised(monkeypatch):
    # Rows 49-56 form one block at 1024 points; row 54 is absorbed, so a
    # failure in the stride to row 55 comes after the end of the run and
    # changes nothing.
    spec, packet = cubic_model(), PacketSpec.make(0.0, 1.8)
    run = dict(dt=1e-2, record_stride=10, grid=CUBIC_1024)
    whole = run_scenario(spec, packet, "quantum", **run)
    assert len(whole) == 55 and whole.flags[-1] == "absorbed"
    monkeypatch.setattr(_FailsAtCall, "FAIL_AT", 55)
    monkeypatch.setattr(scenarios, "SplitOperatorPropagator", _FailsAtCall)
    traj = run_scenario(spec, packet, "quantum", **run)
    assert np.array_equal(traj.states, whole.states) and traj.flags == whole.flags


SMALL_GRIDS = {"henon_heiles": Grid.make_2d((-8.0, 8.0, 64), (-8.0, 8.0, 64))}


@pytest.mark.parametrize("method", ["nambu", "classical", "quantum"])
@pytest.mark.parametrize("name", ["harmonic", "cubic", "henon_heiles"])
def test_observables_equal_row_by_row_evaluation(name, method):
    # F and G_c are evaluated once on all rows; each value must be the one
    # the compiled evaluator gives for that row alone.
    spec = model_by_name(name)
    packet = PacketSpec.make([0.5] * spec.n_dof, [0.3] * spec.n_dof)
    traj = run_scenario(spec, packet, method, dt=1e-2, t_end=1.0, record_stride=5,
                        grid=SMALL_GRIDS.get(name))
    hset = hamiltonian_set(spec)
    assert traj.observable_names == ["F"] + [f"G{c + 1}" for c in range(len(hset.gs))]
    for k, f in enumerate(hset.hamiltonians):
        fn = compile_evaluator(f, x_vars(hset.layout))
        want = np.array([fn(row) for row in traj.states])
        assert np.array_equal(traj.observables[:, k], want)


def test_nambu_abort_keeps_observables_of_the_rows_so_far():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError, match=r"t = 9\.363 ") as err:
            run_scenario(cubic_model(), PacketSpec.make(0.0, 1.8), "nambu", q_stop=-1e300)
    partial = err.value.trajectory
    assert len(partial) == 937
    assert partial.observable_names == ["F", "G1", "G2"]
    assert np.array_equal(partial.observables, hamiltonian_set(cubic_model()).observables(partial.states))
    assert np.all(np.isfinite(partial.observables))


def test_classical_abort_gives_images_with_observables():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError, match=r"t = 6\.862 ") as err:
            run_scenario(cubic_model(), PacketSpec.make(0.0, 3.0), "classical", q_stop=-1e300)
        partial = err.value.trajectory
        assert len(partial) == 687
        assert partial.columns == ["x1_0", "x2_0", "x3_0", "x4_0"]
        assert partial.observable_names == ["F", "G1", "G2"]
        q, p = partial.states[:, 0], partial.states[:, 1]
        assert np.array_equal(partial.states[:, 2:], np.column_stack([q * q, p * p]))
        want = hamiltonian_set(cubic_model()).observables(partial.states)
    assert np.array_equal(partial.observables, want)


@pytest.mark.parametrize("method", ["nambu", "classical", "quantum"])
def test_nan_q_stop_is_rejected_before_stepping(method):
    with pytest.raises(ValueError, match="q_stop = nan is not a number"):
        run_scenario(cubic_model(), PacketSpec.make(0.0, 1.8), method, q_stop=math.nan)


def test_minus_inf_q_stop_never_stops():
    # The packet passes any finite q_stop (see the -1e300 abort above) and
    # runs on until its state overflows.
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError, match=r"t = 9\.363 "):
            run_scenario(cubic_model(), PacketSpec.make(0.0, 1.8), "nambu", q_stop=-math.inf)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_nan_q_stop_exits_2_without_csv(tmp_path, capsys):
    out_csv = tmp_path / "never.csv"
    code = main([
        "run", "--model", "cubic", "--method", "nambu", "--pc", "1.8",
        "--q-stop", "nan", "--out", str(out_csv),
    ])
    assert code == 2
    assert not out_csv.exists()
    assert "q_stop = nan is not a number" in capsys.readouterr().err


def test_cli_reduce_prints_closure(capsys):
    for moment, mode, printed in [
        ("4", "zero-cumulant", "3*x3^2 - 2*x1^4"),
        ("4", "ignore-fluctuation", "6*x1^2*x3 - 5*x1^4"),
        ("6", "zero-cumulant", "15*x3^3 - 30*x1^4*x3 + 16*x1^6"),
    ]:
        assert main(["reduce", "--moment", moment, "--mode", mode]) == 0
        assert capsys.readouterr().out == printed + "\n"


def test_cli_verify_consistency(capsys):
    # Both built-in multiplets reproduce the brackets exactly.
    for multiplet in ("triplet", "quartet"):
        for n_dof in ("1", "2"):
            assert main(["verify", "consistency", "--multiplet", multiplet, "--n-dof", n_dof]) == 0
            header, *rows, last = capsys.readouterr().out.splitlines()
            assert header == "dof,i,j,max_residual,pass" and last.startswith("PASS:")
            assert rows and all(row.split(",")[3:] == ["0.0", "1"] for row in rows)


def test_cli_check_fi(capsys):
    assert main(["check", "fi", "--model", "henon-heiles", "--samples", "3"]) == 0
    out = capsys.readouterr().out
    assert "sample_index,lhs,rhs,residual" in out
    # Henon-Heiles breaks the fundamental identity by -lambda at every sample.
    assert out.splitlines()[-1].startswith("max residual = 0.11 ")


def test_cli_check_fi_rejects_another_model_in_its_config(tmp_path, capsys):
    config = tmp_path / "fi.conf"
    config.write_text("model = cubic\nsamples = 2\n")
    with pytest.raises(SystemExit) as exc:  # argparse rejects it, as it does the flag
        main(["check", "fi", "--config", str(config)])
    assert exc.value.code == 2
    printed = capsys.readouterr()
    assert "argument --model: invalid choice: 'cubic'" in printed.err
    assert printed.out == ""
    config.write_text("model = henon-heiles\nsamples = 2\n")
    assert main(["check", "fi", "--config", str(config)]) == 0


def _exit(argv):
    """main's exit code, and whether argparse raised it (a bad flag or config value)."""
    try:
        return main(argv), False
    except SystemExit as exc:
        return exc.code, True


@pytest.fixture
def bad_configs(tmp_path, monkeypatch):
    """Config files with a bad entry; any work fails the test: building a model's F,
    compiling a field, planning or taking a step, or checking consistency."""
    def started(*args, **kwargs):
        pytest.fail("work started")

    for name in ("hamiltonian_set", "compile_nambu_field", "compile_classical_field",
                 "rk4_integrate", "integrate", "choose_split_step"):
        monkeypatch.setattr(scenarios, name, started)
    for name in ("hamiltonian_set", "verify_consistency"):
        monkeypatch.setattr(cli, name, started)
    texts = dict(
        sextet="multiplet = sextet\n",
        typo="model = cubic\nmethod = nambu\ntend = 1\n",
        samples="multiplet = quartet\nsamples = 0\n",
        dt="model = cubic\nmethod = nambu\ndt = abc\n",
        method="model = cubic\nmethod = Nambu\n",
        twice="model = cubic\nmethod = nambu\nmodel = harmonic\n",
        latin1="model = cubic\nmethod = nambu\n# caf\xe9\n".encode("latin-1"),
    )
    paths = {name: tmp_path / f"{name}.conf" for name in texts}
    for name, text in texts.items():
        paths[name].write_bytes(text if isinstance(text, bytes) else text.encode())
    return dict(paths, tmp=tmp_path)


def _rejected_before_any_work(argv, message, raised, paths, capsys):
    assert _exit([a.format(**paths) for a in argv]) == (2, raised)
    printed = capsys.readouterr()
    assert message.format(**paths) in printed.err
    assert printed.out == ""
    assert sorted(p.name for p in paths["tmp"].iterdir()) == sorted(
        f"{name}.conf" for name in paths if name != "tmp"
    )


@pytest.mark.parametrize(
    "argv, message, raised",
    [
        (["verify", "consistency", "--config", "{sextet}"],
         "argument --multiplet: invalid choice: 'sextet'", True),
        (["verify", "consistency", "--multiplet", "quartet", "--samples", "0"], "samples = 0 ",
         False),
        (["verify", "consistency", "--multiplet", "quartet", "--samples", "-3"], "samples = -3 ",
         False),
        (["check", "fi", "--samples", "0"], "samples = 0 ", False),
        (["verify", "consistency", "--multiplet", "quartet", "--tol", "nan"], "tol = nan ", False),
        (["run", "--config", "{typo}"], "{typo}:3: unknown key 'tend'", False),
        (["run", "--config", "{twice}"], "{twice}:3: key 'model' also set on line 1", False),
        (["run", "--config", "{latin1}"],
         "cannot read config file {latin1}: 'utf-8' codec can't decode byte 0xe9", False),
        (["run", "--model", "cubic", "--method", "nambu", "--out", "{tmp}/missing/x.csv"],
         "directory {tmp}/missing does not exist", False),
        (["run", "--model", "harmonic", "--method", "nambu", "--out", "{tmp}"],
         "cannot write '{tmp}': it names a directory, not a file", False),
        (["run", "--model", "harmonic", "--method", "nambu", "--out", "{tmp}/new/"],
         "cannot write '{tmp}/new/': it names a directory, not a file", False),
        (["run", "--model", "harmonic", "--method", "nambu", "--out", ""],
         "cannot write '': it names a directory, not a file", False),
        (["reduce", "--mode", "zero-cumulant"], "reduce needs --moment", False),
        (["verify", "consistency", "--n-dof", "2"], "verify consistency needs --multiplet", False),
        (["verify", "consistency", "--config", "{samples}"], "samples = 0 is not an integer >= 1",
         False),
        (["reduce", "--moment", "270"], "moment order 270: a coefficient of <q^270> overflows",
         False),
        (["run", "--model", "harmonic", "--method", "nambu", "--qc", "1,x"],
         "argument --qc: invalid floats value: '1,x'", True),
        *[(["run", "--model", "harmonic", "--method", method, "--dt", "1e-320", *stride],
           "t_end = 20.0 at dt = 1e-320 is inf steps, more than the limit", False)
          for method in ("nambu", "quantum") for stride in ([], ["--stride", "5"])],
        *[(["run", "--model", "harmonic", "--method", method, "--sigma", "1e-200", "--pc", "1"],
           "packet parameter sigmas[0] = 1e-200 has a square outside the float range", False)
          for method in ("nambu", "classical", "quantum")],
        (["run", "--model", "harmonic", "--method", "quantum", "--sigma", "0"],
         "widths[0] = 0.0 is not a positive finite number", False),
        *[(["run", "--model", "cubic", "--method", method, "--qc=1e200"],
           "initial x3_0 = inf is not finite", False) for method in ("nambu", "classical")],
    ],
    ids=["multiplet", "samples-0", "samples-negative", "fi-samples-0", "tol-nan", "config-typo",
         "config-key-twice", "config-not-utf8",
         "out-dir", "out-is-dir", "out-trailing-sep", "out-empty", "no-moment", "no-multiplet",
         "config-samples-0", "moment-270", "qc-not-floats",
         "nambu-dt-subnormal", "nambu-dt-subnormal-stride", "quantum-dt-subnormal",
         "quantum-dt-subnormal-stride", "nambu-sigma-squares-to-0",
         "classical-sigma-squares-to-0", "quantum-sigma-squares-to-0", "quantum-sigma-0",
         "nambu-row-0-inf", "classical-row-0-inf"],
)
def test_cli_rejects_bad_input_before_any_work(argv, message, raised, bad_configs, capsys):
    _rejected_before_any_work(argv, message, raised, bad_configs, capsys)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--config", "{dt}"], "argument --dt: invalid float value: 'abc'"),
        (["run", "--config", "{method}"], "argument --method: invalid choice: 'Nambu'"),
    ],
    ids=["config-dt-type", "config-method-choice"],
)
def test_cli_parses_a_config_value_as_the_flag_it_names(argv, message, bad_configs, capsys):
    # argparse checks the type and choices of a file entry, and exits 2.
    _rejected_before_any_work(argv, message, True, bad_configs, capsys)


def test_cli_run_with_config_and_override(tmp_path, capsys):
    out_csv = tmp_path / "t.csv"
    conf = tmp_path / "run.conf"
    conf.write_text(
        "model = harmonic\nmethod = nambu\nqc = 1\npc = 0\n"
        f"dt = 1e-2\nt_end = 1\nout = {out_csv}\n# comment\n"
    )
    assert main(["run", "--config", str(conf)]) == 0
    assert out_csv.exists()
    loaded = Trajectory.from_csv(out_csv)
    assert loaded.meta["model"] == "harmonic"
    # flag overrides the config value
    out2 = tmp_path / "t2.csv"
    assert main(["run", "--config", str(conf), "--out", str(out2),
                 "--t-end", "0.5"]) == 0
    assert Trajectory.from_csv(out2).t[-1] == pytest.approx(0.5)


SHORT = ["--dt", "0.01", "--t-end", "0.2", "--stride", "5"]
CLI_RUNS = [
    *[(f"{model}-{method}", model, method, SHORT, "")
      for model in ("harmonic", "cubic", "henon-heiles")
      for method in ("nambu", "classical", "quantum")],
    ("cubic-escape", "cubic", "nambu", ["--pc", "1.8"], "escaped"),
    ("henon-heiles-dense", "henon-heiles", "nambu", ["--stride", "1", "--t-end", "20"], ""),
    ("cubic-absorbed", "cubic", "quantum", ["--pc", "1.8", "--dt", "0.01", "--stride", "10"],
     "absorbed"),
]


@pytest.mark.parametrize(
    "model, method, flags, stop, kernel",
    [pytest.param(model, method, flags, stop, kernel, id=name + (f"-{kernel}" if kernel else ""))
     for name, model, method, flags, stop in CLI_RUNS
     for kernel in ((None,) if method == "quantum" else ("native", "python"))],
    indirect=["kernel"],
)
def test_cli_run_writes_a_csv_that_reads_back_byte_for_byte(
    model, method, flags, stop, kernel, tmp_path, capsys
):
    out, again = tmp_path / "run.csv", tmp_path / "again.csv"
    assert main(["run", "--model", model, "--method", method, *flags, "--out", str(out)]) == 0
    traj = Trajectory.from_csv(out)
    traj.to_csv(again)
    assert filecmp.cmp(out, again, shallow=False) and traj.flags[-1] == stop
    # On grid rows F and the G_c are not conserved: their change is the closure defect.
    printed = capsys.readouterr().out
    assert ("closure defect: max |F(t) - F(0)| = " in printed) == (method == "quantum")


@pytest.mark.parametrize("method", ["nambu", "classical", "quantum"])
@pytest.mark.parametrize("model", ["harmonic", "cubic", "henon-heiles"])
def test_cli_config_file_writes_the_csv_of_the_same_flags(model, method, tmp_path, capsys):
    flagged, configured, conf = tmp_path / "flags.csv", tmp_path / "conf.csv", tmp_path / "r.conf"
    argv = ["run", "--model", model, "--method", method, *SHORT]
    assert main([*argv, "--out", str(flagged)]) == 0
    entries = zip(argv[1::2], argv[2::2])  # the keys are the flag names, '-' and all
    conf.write_text("".join(f"{flag[2:]} = {value}\n" for flag, value in entries))
    assert main(["run", "--config", str(conf), "--out", str(configured)]) == 0
    assert filecmp.cmp(flagged, configured, shallow=False)


def test_cli_config_takes_negative_values(tmp_path, capsys):
    # A file entry is one "--pc=-0.5,-0.5" token; as two tokens argparse would
    # read "-0.5,-0.5" as an option.
    flagged, configured, conf = tmp_path / "flags.csv", tmp_path / "conf.csv", tmp_path / "r.conf"
    argv = ["run", "--model", "henon-heiles", "--method", "nambu", "--t-end", "0.1"]
    assert main([*argv, "--qc=-1,0", "--pc=-0.5,-0.5", "--out", str(flagged)]) == 0
    conf.write_text("qc = -1,0\npc = -0.5,-0.5\n")
    assert main([*argv, "--config", str(conf), "--out", str(configured)]) == 0
    assert filecmp.cmp(flagged, configured, shallow=False)
    first = Trajectory.from_csv(configured)
    assert (first.column("x1_0")[0], first.column("x2_1")[0]) == (-1.0, -0.5)


def test_readme_commands_run_as_documented(tmp_path, monkeypatch, capsys):
    # README's first sh block under "Command line"; a comment after a command
    # states its output.
    block = readme_section("Command line").split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("nambu ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
        printed, stated = capsys.readouterr().out, line.partition("#")[2].strip()
        assert not stated or printed.strip() == stated, line


def _defined_names(path: Path) -> set[str]:
    """Top-level functions, classes and assignments of a module file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_readme_references_resolve():
    # Every backticked `module.name`, `Class.member`, `tests/file.py::name`,
    # test file and test name in README names something that exists; the
    # removed-API table's first column is exempt.
    root = Path(__file__).parents[1]
    readme = README.read_text(encoding="utf-8")
    removed_rows = readme.split("| removed | instead |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    removed = {span for row in removed_rows.splitlines()
               for span in re.findall(r"`([^`]+)`", row.split(" | ")[0])}
    modules = {info.name: importlib.import_module(f"nambu_dyn.{info.name}")
               for info in pkgutil.iter_modules(nambu_dyn.__path__)}
    classes = {name: obj for module in modules.values() for name, obj in vars(module).items()
               if isinstance(obj, type) and obj.__module__ == module.__name__}
    tests = {path.name: _defined_names(path) for path in (root / "tests").glob("*.py")}
    checked = 0
    for span in set(re.findall(r"`([^`\n]+)`", readme)) - removed:
        if file := re.fullmatch(r"tests/([\w*]+\.py)(?:::(\w+))?", span):
            assert list(root.glob(f"tests/{file[1]}")), span
            assert file[2] is None or file[2] in tests[file[1]], span
        elif re.fullmatch(r"test_\w+", span):
            assert any(span in names for names in tests.values()), span
        elif dotted := re.match(r"(\w+)((?:\.\w+)+)", span):
            first, members = dotted[1], dotted[2].split(".")[1:]
            obj = modules.get(first, classes.get(first, nambu_dyn if first == "nambu_dyn" else None))
            if obj is None:
                continue  # numpy, a local variable or a file name
            for member in members:
                assert hasattr(obj, member) or member in getattr(
                    obj, "__dataclass_fields__", {}), span
                obj = getattr(obj, member, None)
        else:
            continue
        checked += 1
    assert checked > 50


def test_cli_help_renders_each_subcommand_with_its_parser_defaults(capsys):
    parse = cli.build_parser().parse_args
    for argv, defaults in [
        (["run"], [parse(["run"]).dt, f"{scenarios.DEFAULT_Q_STOP:g}", "traj.csv"]),
        (["verify", "consistency"], [DEFAULT_CONSISTENCY_SAMPLES, DEFAULT_CONSISTENCY_TOL]),
        (["check", "fi"], [parse(["check", "fi"]).samples]),
        (["reduce"], [parse(["reduce"]).mode]),
    ]:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
        assert text.startswith(f"usage: nambu {' '.join(argv)} ")
        for default in defaults:
            assert f"(default {default})" in text


def test_cli_quantum_run_prints_norm_loss_and_boundary_amplitude(tmp_path, capsys):
    out_csv = tmp_path / "q.csv"
    assert main(["run", "--model", "harmonic", "--method", "quantum", "--qc", "1",
                 "--dt", "1e-2", "--t-end", "0.1", "--out", str(out_csv)]) == 0
    printed = capsys.readouterr().out
    loaded = Trajectory.from_csv(out_csv)
    assert f"norm loss = {float(loaded.meta['norm_loss']):.3e}" in printed
    assert f"max boundary |psi| = {float(loaded.meta['boundary_amp_max']):.3e}" in printed


@pytest.mark.parametrize(
    "model, flags, order, quantum_dt",
    [("harmonic", ["--qc", "1", "--dt", "0.01", "--t-end", "0.1"], "2", "0.01"),
     ("harmonic", ["--qc", "1", "--dt", "0.001", "--t-end", "0.1"], "4", "0.01"),
     ("cubic", ["--qc", "1", "--dt", "0.001", "--t-end", "0.1"], "2", "0.001"),
     ("harmonic", [], "4", "0.01"),
     ("henon-heiles", ["--t-end", "1"], "4", "0.05"),
     ("cubic", ["--t-end", "0.2"], "2", "0.001")],
    ids=["strang", "composed", "absorbed", "harmonic_defaults", "henon_heiles_t_end_1",
         "cubic_t_end_0.2"],
)
def test_cli_quantum_run_reports_its_split_step(model, flags, order, quantum_dt, tmp_path, capsys):
    out_csv = tmp_path / "q.csv"
    assert main(["run", "--model", model, "--method", "quantum", *flags,
                 "--out", str(out_csv)]) == 0
    printed = capsys.readouterr().out
    meta = Trajectory.from_csv(out_csv).meta
    dt = dict(zip(flags[::2], flags[1::2])).get("--dt", "0.001")
    assert (meta["split_order"], meta["quantum_dt"], meta["dt"]) == (order, quantum_dt, dt)
    lines = out_csv.read_text().splitlines()
    assert f"# split_order = {order}" in lines and f"# quantum_dt = {quantum_dt}" in lines
    assert f"split order = {order}, quantum dt = {quantum_dt}" in printed
    split_err, strang_err = float(meta["split_err_est"]), float(meta["strang_err_est"])
    if model == "cubic":  # the absorber keeps Strang steps, unestimated
        assert math.isnan(split_err) and math.isnan(strang_err)
        assert "split error estimate: none made" in printed
    else:
        assert split_err <= strang_err < 1e-6
        assert (f"split error estimate = {split_err:.3e} "
                f"(Strang at dt: {strang_err:.3e})") in printed


def test_cli_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("no equals sign here\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["run", "--method", "nambu"]) == 2  # missing model
    missing = tmp_path / "nope.conf"
    assert main(["run", "--config", str(missing)]) == 2
    out = str(tmp_path / "never.csv")
    for flags in (
        ["--method", "quantum", "--stride", "0"],
        ["--method", "nambu", "--dt", "inf"],
        ["--method", "classical", "--t-end", "inf"],
        ["--method", "nambu", "--qc", "nan"],
        ["--method", "quantum", "--sigma", "nan"],
        ["--method", "quantum", "--dt", "1e-300", "--t-end", "1"],
        ["--method", "nambu", "--t-end", "1e13", "--stride", "1"],
    ):
        assert main(["run", "--model", "harmonic", *flags, "--out", out]) == 2
    assert not (tmp_path / "never.csv").exists()
    err = capsys.readouterr().err
    assert "record_stride = 0 is not an integer >= 1" in err
    assert "packet parameter sigmas[0] = nan is not finite" in err
    assert "is 1e+300 steps, more than the limit of" in err
    assert "make 10000000000000001 rows, too many to allocate" in err


@pytest.mark.parametrize(
    "model, method, given, code",
    [
        ("harmonic", "nambu", "flag", 2),
        ("henon-heiles", "classical", "config", 2),
        ("cubic", "quantum", "flag", 2),
        ("cubic", "quantum", None, 0),
    ],
    ids=["harmonic_nambu_flag", "henon_heiles_classical_config", "cubic_quantum_flag",
         "cubic_quantum_default"],
)
def test_cli_rejects_a_q_stop_that_no_run_applies(model, method, given, code, tmp_path, capsys):
    out_csv = tmp_path / "run.csv"
    argv = ["run", "--model", model, "--method", method, "--t-end", "0.1", "--out", str(out_csv)]
    if given == "flag":
        argv.append("--q-stop=5")
    elif given == "config":
        conf = tmp_path / "run.conf"
        conf.write_text("q_stop = 5\n")
        argv += ["--config", str(conf)]
    assert main(argv) == code
    assert out_csv.exists() == (code == 0)
    if code:
        assert "q_stop = 5.0 does not apply" in capsys.readouterr().err


def test_cli_numerical_abort_exits_3(kernel, tmp_path, capsys):
    # With the escape stop out of reach the packet runs until its state is
    # non-finite; stderr names the step, the same on both kernels.
    for pc, where in [("1.8", "t = 9.363 (step 9363"), ("3", "t = 6.671 (step 6671")]:
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run", "--model", "cubic", "--method", "nambu", "--pc", pc,
                         "--q-stop=-1e300", "--out", str(tmp_path / "x.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"numerical abort: state became non-finite at {where} of 40000)\n"


@pytest.mark.parametrize("method", ["nambu", "classical"])
@pytest.mark.parametrize(
    "flag, slot", [("--qc=1e200", "x3_0"), ("--pc=-1e200", "x4_0"), ("--qc=1e300", "x3_0")],
)
def test_cli_rejects_a_packet_whose_row_0_is_not_finite(
    method, flag, slot, kernel, tmp_path, capsys
):
    # The packet's moments (a classical run's images) overflow: rejected
    # before any step, on either kernel.
    out = tmp_path / "never.csv"
    argv = ["run", "--model", "cubic", "--method", method, flag, "--t-end", "0.01"]
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr() == ("", f"error: initial {slot} = inf is not finite\n")


@pytest.mark.parametrize(
    "name, argv",
    [("run_scenario", ["run", "--model", "harmonic", "--method", "nambu"]),
     ("reduce_moment", ["reduce", "--moment", "4"])],
)
def test_cli_lets_a_library_bug_leave_with_its_traceback(name, argv, monkeypatch, tmp_path):
    # Exit 2 means bad input: only ValidationError maps to it.
    def bug(*args, **kwargs):
        raise ValueError("a plain ValueError is a bug")

    monkeypatch.setattr(cli, name, bug)
    with pytest.raises(ValueError, match="a plain ValueError is a bug"):
        main([*argv, "--out", str(tmp_path / "never.csv")] if argv[0] == "run" else argv)


def test_every_bad_input_error_is_a_validation_error():
    from nambu_dyn import brackets, closure, multiplets, poly

    assert nambu_dyn.ValidationError is ValidationError and issubclass(ValidationError, ValueError)
    for error in (cli.ConfigError, poly.PolyParseError, poly.UnboundVariableError,
                  brackets.DimensionMismatchError, multiplets.MalformedMultipletError,
                  multiplets.UnliftableMonomialError, closure.UnsupportedMultipletError,
                  closure.UnsupportedMomentError, closure.UnsupportedPotentialError):
        assert issubclass(error, ValidationError), error


def test_cli_rejects_unknown_model():
    with pytest.raises(SystemExit) as err:
        main(["run", "--model", "nosuch", "--method", "nambu"])
    assert err.value.code == 2
