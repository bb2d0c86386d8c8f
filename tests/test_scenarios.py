import math

import numpy as np
import pytest

from nambu_dyn.cli import main
from nambu_dyn.dynamics import NonFiniteStateError, Trajectory, conserved_drift
from nambu_dyn.poly import compile_evaluator
from nambu_dyn.quantum import Grid
from nambu_dyn.scenarios import (
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
    np.testing.assert_allclose(state.values, [0.0, 1.8, 0.5, 3.74], atol=1e-12)


def test_init_nambu_henon_heiles_zero_point():
    state = init_nambu_from_packet(
        henon_heiles_model(), PacketSpec.make((0.0, 1.0), (0.0, 1.0))
    )
    np.testing.assert_allclose(state.values[:4], [0.0, 0.0, 0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(
        state.values[4:], [1.0, 1.0, 1.0 + 1.0 / 2.2, 1.55], atol=1e-12
    )


def test_init_nambu_zero_width_is_classical_image():
    state = init_nambu_from_packet(
        cubic_model(), PacketSpec.make(1.2, -0.7, sigma=0.0)
    )
    np.testing.assert_allclose(state.values, [1.2, -0.7, 1.44, 0.49], atol=1e-12)


def test_init_nambu_triplet():
    state = init_nambu_from_packet(harmonic_model(), PacketSpec.make(1.0, 0.5))
    np.testing.assert_allclose(state.values, [1.5, 0.75, 0.5], atol=1e-12)


def test_packet_constraints_match_widths():
    rng = np.random.default_rng(4)
    spec = cubic_model()
    hset = hamiltonian_set(spec)
    for _ in range(10):
        sigma = float(rng.uniform(0.3, 1.5))
        packet = PacketSpec.make(rng.uniform(-1, 1), rng.uniform(-1, 1), sigma=sigma)
        state = init_nambu_from_packet(spec, packet)
        point = state.as_dict()
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


@pytest.mark.parametrize("method", ["nambu", "classical", "quantum"])
@pytest.mark.parametrize(
    "bad, message",
    [
        (dict(record_stride=0), "record_stride must be an integer >= 1, got 0"),
        (dict(dt=math.inf), "dt = inf is not a positive finite step"),
        (dict(t_end=math.inf), "need finite t0 < t_end, got t0 = 0.0, t_end = inf"),
        (dict(t_end=0.0), "need finite t0 < t_end, got t0 = 0.0, t_end = 0.0"),
        (dict(t_end=-1.0), "need finite t0 < t_end, got t0 = 0.0, t_end = -1.0"),
    ],
    ids=["stride_0", "dt_inf", "t_end_inf", "t_end_0", "t_end_negative"],
)
def test_bad_run_lengths_fail_before_stepping(method, bad, message):
    kwargs = dict(dt=1e-2, t_end=1.0, record_stride=10, grid=Grid.make_1d(-10.0, 10.0, 128))
    kwargs.update(bad)
    with pytest.raises(ValueError, match=message):
        run_scenario(harmonic_model(), PacketSpec.make(1.0, 0.0), method, **kwargs)


def test_model_spec_rejects_non_finite_parameters():
    with pytest.raises(ValueError, match="g = nan is not finite"):
        cubic_model(g=float("nan"))
    with pytest.raises(ValueError, match=r"omegas\[0\] = inf is not finite"):
        harmonic_model(omega=float("inf"))


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
    stats = compare(nambu, quantum, ["x1_0", "x2_0", "x3_0"], tolerance=1e-4)
    for stat in stats.values():
        assert stat.passed
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


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_reduce_prints_closure(capsys):
    assert main(["reduce", "--moment", "4", "--mode", "zero-cumulant"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "3*x3^2 - 2*x1^4"
    assert main(["reduce", "--moment", "4", "--mode", "ignore-fluctuation"]) == 0
    assert capsys.readouterr().out.strip() == "6*x1^2*x3 - 5*x1^4"


def test_cli_verify_consistency(capsys):
    assert main(["verify", "consistency", "--multiplet", "quartet"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert out.startswith("dof,i,j,max_residual,pass")


def test_cli_check_fi(capsys):
    assert main(["check", "fi", "--model", "henon-heiles", "--samples", "3"]) == 0
    out = capsys.readouterr().out
    assert "sample_index,lhs,rhs,residual" in out
    assert "0.11" in out


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


def test_cli_quantum_run_prints_norm_loss_and_boundary_amplitude(tmp_path, capsys):
    out_csv = tmp_path / "q.csv"
    assert main(["run", "--model", "harmonic", "--method", "quantum", "--qc", "1",
                 "--dt", "1e-2", "--t-end", "0.1", "--out", str(out_csv)]) == 0
    printed = capsys.readouterr().out
    loaded = Trajectory.from_csv(out_csv)
    assert f"norm loss = {float(loaded.meta['norm_loss']):.3e}" in printed
    assert f"max boundary |psi| = {float(loaded.meta['boundary_amp_max']):.3e}" in printed


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
    assert "record_stride must be an integer >= 1, got 0" in err
    assert "packet parameter sigmas[0] = nan is not finite" in err
    assert "is 1e+300 steps, more than the limit of" in err
    assert "make 10000000000000001 rows, too many to allocate" in err


def test_cli_numerical_abort_exits_3(tmp_path):
    out_csv = tmp_path / "blow.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(
            [
                "run", "--model", "cubic", "--method", "nambu",
                "--qc", "0", "--pc", "1.8", "--t-end", "40",
                "--q-stop=-1e300", "--out", str(out_csv),
            ]
        )
    assert code == 3


def test_cli_rejects_unknown_model():
    with pytest.raises(SystemExit) as err:
        main(["run", "--model", "nosuch", "--method", "nambu"])
    assert err.value.code == 2
