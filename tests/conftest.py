import importlib.util
import os
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


def _bench_thread_pools() -> dict:
    spec = importlib.util.spec_from_file_location(
        "bench_run", Path(__file__).parents[1] / "bench" / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.THREAD_POOLS


# The BLAS and OpenMP pools pinned to one thread before numpy loads, with the
# variables the benchmark sets: the test process then has one thread, and a
# quantum run selects its row worker as it does in the benchmark.
os.environ.update(_bench_thread_pools())

from nambu_dyn import _rowworker, native  # noqa: E402

AFFINITY = os.sched_getaffinity(0)  # the CPUs this test process may run on


@pytest.fixture(params=["native", "python"])
def kernel(request, monkeypatch):
    """Which RK4 kernel ``compile_vector_field`` installs: the native build
    or, with the loader patched out, the generated Python.  A case that
    takes no RK4 step (a quantum run) passes None through ``indirect``."""
    if request.param == "python":
        monkeypatch.setattr(native, "load_rk4", lambda source, dim: None)
    elif request.param == "native" and shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    return request.param


class Forks(list):
    """The pids ``os.fork`` returned to this process."""

    @staticmethod
    def none_left() -> None:
        """No child of this process is left, running or unreaped."""
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch) -> Forks:
    """The test's ``os.fork`` calls, counted: the pids returned to this process."""
    pids, fork = Forks(), os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def row_paths(monkeypatch, forks):
    """Where a quantum run computes its expectation rows, each in turn: a test
    runs its body once per path, ``for path in row_paths:``.  "worker" forces
    the selection onto a forked worker, whatever the run's size, and
    "in-process" off it.  Each pass must fork as its path says, leave no
    child behind and leave this process's CPU affinity as the session found
    it.  A loop, not fixture parameters, keeps the test ids."""

    def paths():
        for path in ("worker", "in-process"):
            before = len(forks)
            with monkeypatch.context() as patch:
                patch.setattr(_rowworker, "use_worker", lambda recorded: path == "worker")
                yield path
            assert (len(forks) > before) == (path == "worker"), (path, forks[before:])
            forks.none_left()
            assert os.sched_getaffinity(0) == AFFINITY, path

    return paths()
