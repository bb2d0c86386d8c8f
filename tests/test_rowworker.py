"""The quantum run's row worker: when it is forked, and that no run leaves it behind."""

import json
import os
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from nambu_dyn import _rowworker, dynamics, scenarios
from nambu_dyn.dynamics import NonFiniteStateError
from nambu_dyn.quantum import Grid, SplitOperatorPropagator
from nambu_dyn.scenarios import PacketSpec, cubic_model, harmonic_model, run_scenario

GRID = Grid.make_1d(-10.0, 10.0, 2048)  # 32 KiB states, 4 to a block
# 256 rows after row 0 at stride 1: 256 * 32 KiB = FORK_MIN_BYTES exactly; 255 fall short.
AT_BUDGET = dict(dt=1e-2, t_end=2.56, record_stride=1, grid=GRID)
BELOW_BUDGET = dict(AT_BUDGET, t_end=2.55)
HARMONIC = (harmonic_model(), PacketSpec.make(1.0, 0.5))
ALLOWED = os.sched_getaffinity(0)  # the CPUs this test process may run on


def _in_process(monkeypatch, spec, packet, **run):
    with monkeypatch.context() as patch:
        patch.setattr(_rowworker, "use_worker", lambda recorded: False)
        return run_scenario(spec, packet, "quantum", **run)


def _same_rows(a, b):
    return (np.array_equal(a.t, b.t) and np.array_equal(a.states, b.states)
            and a.flags == b.flags)


def test_the_budget_is_the_states_of_the_at_budget_run():
    assert 256 * GRID.shape[0] * 16 == _rowworker.FORK_MIN_BYTES


@pytest.mark.parametrize("grid, kinds, size", [
    (GRID, ("q2", "p2", "qp_sym"), 4),  # 32 KiB states
    (Grid(((-8.0, 8.0, 128), (-8.0, 8.0, 128))), ("q", "p", "q2", "p2"), 1),  # 256 KiB, over budget
], ids=["2048", "128x128"])
def test_a_slot_holds_row_block_bytes_of_states(grid, kinds, size):
    assert size == max(1, _rowworker.ROW_BLOCK_BYTES // (16 * np.prod(grid.shape)))
    with _rowworker.RowBlocks(grid, 1.0, kinds) as blocks:
        assert blocks.states.shape == (2, size, *grid.shape)
        assert blocks.results.shape == (2, size, grid.ndim * len(kinds) + 2)


# ---------------------------------------------------------------------------
# Lifecycle: the worker is reaped however the run ends
# ---------------------------------------------------------------------------


@pytest.fixture
def worker(monkeypatch, forks):
    """Every quantum run forks its worker, whatever its size."""
    monkeypatch.setattr(_rowworker, "use_worker", lambda recorded: True)
    return forks


def test_a_completed_run_reaps_its_worker(monkeypatch, worker):
    traj = run_scenario(*HARMONIC, "quantum", **BELOW_BUDGET)
    assert len(worker) == 1
    worker.none_left()
    assert _same_rows(traj, _in_process(monkeypatch, *HARMONIC, **BELOW_BUDGET))


def test_an_absorbed_stop_reaps_its_worker(monkeypatch, worker):
    # Row 54 ends the run mid-block; the steps past it are discarded.
    run = dict(dt=1e-2, record_stride=10, grid=Grid.make_1d(-30.0, 15.0, 1024))
    traj = run_scenario(cubic_model(), PacketSpec.make(0.0, 1.8), "quantum", **run)
    assert len(worker) == 1 and traj.flags[-1] == "absorbed" and len(traj) == 55
    worker.none_left()
    assert _same_rows(traj, _in_process(monkeypatch, cubic_model(), PacketSpec.make(0.0, 1.8),
                                        **run))


class _FailsAtCall(SplitOperatorPropagator):
    """A propagator whose potential phase turns NaN at its 30th step call."""

    def step(self, wf, n=1):
        self.calls = getattr(self, "calls", 0) + 1
        if self.calls == 30:
            self.exp_v_half = np.full_like(self.exp_v_half, np.nan)
        return super().step(wf, n)


def test_an_abort_reaps_its_worker(monkeypatch, worker):
    monkeypatch.setattr(scenarios, "SplitOperatorPropagator", _FailsAtCall)
    with pytest.raises(NonFiniteStateError, match="wavefunction amplitudes became non-finite") as err:
        run_scenario(*HARMONIC, "quantum", **BELOW_BUDGET)
    assert len(worker) == 1 and len(err.value.trajectory) == 30  # row 0 and 29 strides
    worker.none_left()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_exception_in_the_consumer_reaps_the_worker(error, monkeypatch, worker):
    # The driver's loop raises while it takes the rows, as on Ctrl-C.
    def integrate(rows, *args, **kwargs):
        def raising(steps):
            for k, row in enumerate(rows(steps)):
                if k == 10:
                    raise error("consumer")
                yield row

        return dynamics.integrate(raising, *args, **kwargs)

    monkeypatch.setattr(scenarios, "integrate", integrate)
    with pytest.raises(error, match="consumer"):
        run_scenario(*HARMONIC, "quantum", **BELOW_BUDGET)
    assert len(worker) == 1
    worker.none_left()


@pytest.mark.parametrize("after", [0, 1, 37])
def test_a_killed_worker_leaves_the_rows_to_the_run(after, monkeypatch, worker):
    # SIGKILL after the given row: the run computes the blocks the worker
    # did not finish itself, and its rows are the in-process run's.
    def integrate(rows, *args, **kwargs):
        def killing(steps):
            for k, row in enumerate(rows(steps)):
                if k == after:
                    os.kill(worker[0], signal.SIGKILL)
                yield row

        return dynamics.integrate(killing, *args, **kwargs)

    monkeypatch.setattr(scenarios, "integrate", integrate)
    traj = run_scenario(*HARMONIC, "quantum", **BELOW_BUDGET)
    assert len(worker) == 1
    worker.none_left()
    monkeypatch.undo()
    assert _same_rows(traj, _in_process(monkeypatch, *HARMONIC, **BELOW_BUDGET))


# ---------------------------------------------------------------------------
# Selection: forked only where it pays and is safe
# ---------------------------------------------------------------------------


def _one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def _one_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)


def _no_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")


def _fork_fails(monkeypatch):
    def fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.parametrize(
    "condition, run, forked",
    [(None, AT_BUDGET, True),
     (_one_cpu, AT_BUDGET, False),
     (_one_cpu_count, AT_BUDGET, False),
     (_no_fork, AT_BUDGET, False),
     (_fork_fails, AT_BUDGET, False),
     (None, BELOW_BUDGET, False)],
    ids=["at-budget", "one-cpu", "one-cpu-count", "no-fork", "fork-fails", "below-budget"],
)
def test_the_worker_is_forked_only_where_it_pays(condition, run, forked, monkeypatch, forks):
    reference = _in_process(monkeypatch, *HARMONIC, **run)
    if condition is not None:
        condition(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run_scenario(*HARMONIC, "quantum", **run)
    assert len(forks) == forked
    forks.none_left()
    assert _same_rows(traj, reference)


def test_a_second_thread_keeps_the_rows_in_process(monkeypatch, forks):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run_scenario(*HARMONIC, "quantum", **AT_BUDGET)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive() and forks == []
    forks.none_left()
    assert _same_rows(traj, _in_process(monkeypatch, *HARMONIC, **AT_BUDGET))


# The at-budget run in a fresh interpreter, whose numpy has started its BLAS
# pool: it prints the threads at import, those at each fork, whether a child
# is left, and whether its rows are the in-process rows.
LIVE_POOL_PROBE = """
import json
import os
import numpy as np
tasks = len(os.listdir("/proc/self/task"))
from nambu_dyn import _rowworker
from nambu_dyn.quantum import Grid
from nambu_dyn.scenarios import PacketSpec, harmonic_model, run_scenario
run = dict(dt=1e-2, t_end=2.56, record_stride=1, grid=Grid.make_1d(-10.0, 10.0, 2048))
harmonic = (harmonic_model(), PacketSpec.make(1.0, 0.5), "quantum")
at_fork, fork = [], os.fork
def counted():
    threads = len(os.listdir("/proc/self/task"))
    pid = fork()
    if pid:
        at_fork.append(threads)
    return pid
os.fork = counted
traj = run_scenario(*harmonic, **run)
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
os.fork, _rowworker.use_worker = fork, lambda recorded: False
ref = run_scenario(*harmonic, **run)
same = (np.array_equal(traj.t, ref.t) and np.array_equal(traj.states, ref.states)
        and traj.flags == ref.flags)
print(json.dumps([tasks, at_fork, left, same]))
"""


@pytest.mark.skipif(len(ALLOWED) < 2, reason="one CPU allowed: no worker is forked")
@pytest.mark.skipif(any(name.endswith("_THREADS") for name in os.environ),
                    reason="a thread-pool variable is set: numpy's BLAS pool may not start")
def test_the_worker_forks_beside_numpys_live_blas_pool():
    # OpenBLAS stops its pool at fork, so its thread does not keep the rows in
    # process; -W error fails the run on any warning, a fork warning included.
    src = Path(__file__).parents[1] / "src"
    probe = subprocess.run(
        [sys.executable, "-W", "error", "-c", LIVE_POOL_PROBE],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    tasks, at_fork, left, same = json.loads(probe.stdout)
    assert tasks >= 2, "numpy started no BLAS pool thread: nothing to fork beside"
    assert len(at_fork) == 1 and at_fork[0] >= 2, at_fork  # one worker, forked beside the pool
    assert not left and same


# ---------------------------------------------------------------------------
# Placement: the worker runs beside its parent, whose affinity never changes
# ---------------------------------------------------------------------------


def _affinities_mid_run(monkeypatch, worker):
    """The affinities of worker and parent in a forked run, read by the parent
    at row 10, after the worker's first block; the run must reap its worker
    and give the in-process rows."""
    seen = {}

    def integrate(rows, *args, **kwargs):
        def reading(steps):
            for k, row in enumerate(rows(steps)):
                if k == 10:
                    seen.update(worker=os.sched_getaffinity(worker[0]),
                                parent=os.sched_getaffinity(0))
                yield row

        return dynamics.integrate(reading, *args, **kwargs)

    monkeypatch.setattr(scenarios, "integrate", integrate)
    traj = run_scenario(*HARMONIC, "quantum", **BELOW_BUDGET)
    assert len(worker) == 1
    worker.none_left()
    monkeypatch.undo()
    assert _same_rows(traj, _in_process(monkeypatch, *HARMONIC, **BELOW_BUDGET))
    return seen


def test_the_cpu_read_is_the_one_in_proc_self_stat():
    def field_39():  # the interpreter's name holds no space
        with open("/proc/self/stat") as stat:
            return int(stat.read().split()[38])

    for _ in range(100):  # a migration between the reads tries again
        before, read, after = field_39(), _rowworker._cpu(), field_39()
        if before == after:
            break
    assert read == before and read in ALLOWED


@pytest.mark.skipif(len(ALLOWED) < 2, reason="one CPU allowed: the worker shares it")
def test_the_worker_keeps_off_the_cpu_its_parent_was_on_at_fork(monkeypatch, worker):
    at_fork, cpu = [], _rowworker._cpu
    monkeypatch.setattr(_rowworker, "_cpu", lambda: at_fork.append(cpu()) or at_fork[-1])
    seen = _affinities_mid_run(monkeypatch, worker)
    assert len(at_fork) == 1 and at_fork[0] in ALLOWED
    assert at_fork[0] not in seen["worker"] and seen["worker"] <= ALLOWED
    assert seen["parent"] == ALLOWED


def _no_setaffinity(monkeypatch):
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)


def _setaffinity_fails(monkeypatch):
    def refused(pid, cpus):
        raise PermissionError("affinity refused")

    monkeypatch.setattr(os, "sched_setaffinity", refused, raising=False)


def _stat_unreadable(monkeypatch):
    def refused(path, *args, **kwargs):
        raise PermissionError(f"cannot open {path}")

    monkeypatch.setattr(_rowworker, "open", refused, raising=False)


@pytest.mark.parametrize("condition", [_no_setaffinity, _setaffinity_fails, _stat_unreadable],
                         ids=["no-setaffinity", "setaffinity-fails", "stat-unreadable"])
def test_a_worker_that_cannot_be_placed_runs_where_it_was_forked(condition, monkeypatch,
                                                                  worker):
    condition(monkeypatch)
    seen = _affinities_mid_run(monkeypatch, worker)
    assert seen == {"worker": ALLOWED, "parent": ALLOWED}
