"""Expectation rows of a quantum run, block by block, on a forked worker process.

``RowBlocks`` is the runner's double buffer: two slots of states in one
anonymous shared ``mmap``, each with the float64 table of its rows.  The
runner steps states into one slot while ``RowPass.rows`` reads the other and
writes its table, in a child process forked once per run (``use_worker``) or,
without one, in process when the runner asks for the rows; so the rows are the
same to the bit.  The worker keeps off the CPU its parent ran on at fork
(``_place_beside``), so that the two overlap; the parent's own affinity is
never changed.
"""

from __future__ import annotations

import math
import mmap
import os
from typing import Callable, Sequence

import numpy as np

from .dynamics import NonFiniteStateError
from .quantum import ExpectationRow, Grid, RowPass

# The states a run must record for a worker to pay: forking, starting and
# reaping one took 3.6-4.9 ms, and at 2048 points the worker, placed beside
# its parent, lost at 51 rows and won at 201 (6.3 MiB) and 801, in 15
# alternations each; 8 MiB is 256 rows there.
FORK_MIN_BYTES = 8 * 1024 * 1024
# Bytes of states per slot: 4 rows at 2048 points, 1 on 128^2 grids.
ROW_BLOCK_BYTES = 128 * 1024


def _cpus() -> int:
    """The CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def _threads() -> int:
    """The threads of this process: the kernel's count where procfs has it."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        import threading

        return threading.active_count()


def _cpu() -> int | None:
    """The CPU this process is running on: field 39 of ``/proc/self/stat``
    (after the parenthesised name, which may hold spaces), or None where the
    file cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rpartition(b")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _place_beside(cpu: int | None) -> None:
    """Restrict this process, the worker, to the CPUs it may run on other
    than ``cpu``, the one its parent ran on at fork.  Left to the scheduler,
    the woken worker often ran on its parent's CPU and preempted the stepping
    parent at every block.  Skipped where ``cpu`` is unknown, no other CPU is allowed or the
    affinity cannot be set: the worker then runs where the scheduler puts it."""
    if cpu is None or not hasattr(os, "sched_setaffinity"):  # Linux has both calls
        return
    try:
        os.sched_setaffinity(0, os.sched_getaffinity(0) - {cpu})
    except OSError:  # not permitted, or an empty set: no other CPU allowed (EINVAL)
        pass


def use_worker(recorded_bytes: int) -> bool:
    """Whether a run that records ``recorded_bytes`` of states computes its rows
    on a forked worker: only where ``os.fork`` exists, the process may run on
    more than one CPU (pinned to one, the worker slowed a run), has one thread
    (forking a threaded process can deadlock the child) and the run records at
    least ``FORK_MIN_BYTES``."""
    return (
        hasattr(os, "fork")
        and recorded_bytes >= FORK_MIN_BYTES
        and _cpus() > 1
        and _threads() == 1
    )


class RowBlocks:
    """Two slots of ``ROW_BLOCK_BYTES`` of states, ``states[s]``, with the
    table of their rows, ``results[s]``.

    ``stepped(steps, advance)`` fills the slots in turn and yields the rows
    in order; the rows of one slot are computed while the next is filled,
    and a slot is refilled only after its rows are taken.  If the worker
    dies or fails, the blocks it has not finished are computed in process,
    from the states it never writes.  Use as a context manager: leaving it
    stops and reaps the worker.
    """

    def __init__(self, grid: Grid, hbar: float, kinds: Sequence[str]):
        points = math.prod(grid.shape)
        size = max(1, ROW_BLOCK_BYTES // (16 * points))
        self.row_pass = RowPass(grid, hbar, kinds, size)
        shared = mmap.mmap(-1, 2 * size * (16 * points + 8 * self.row_pass.width))
        self.states = np.frombuffer(shared, np.complex128, 2 * size * points)
        self.states = self.states.reshape(2, size, *grid.shape)
        self.results = np.frombuffer(shared, np.float64, offset=self.states.nbytes)
        self.results = self.results.reshape(2, size, self.row_pass.width)
        self.pid = None

    def stepped(self, steps: list[int], advance: Callable[[int], np.ndarray]):
        """``(step, row, state)`` for each of ``steps`` in order, where ``state =
        advance(step - previous step)`` (the first from step 0) and ``row`` is
        its ``ExpectationRow``.  A NonFiniteStateError from ``advance`` is
        raised after the rows of the steps before it.  A run long enough for
        ``use_worker`` forks the worker here."""
        size = self.states.shape[1]
        if self.pid is None and use_worker(len(steps) * self.states[0, 0].nbytes):
            self._fork()
        done, held, failure = 0, [], None
        for lo in range(0, len(steps), size):
            s, n = lo // size % 2, 0
            if len(held) == 2:  # slot s holds the block before last: its rows first
                yield from self._held(steps, *held.pop(0))
            try:
                for step in steps[lo : lo + size]:
                    self.states[s, n] = advance(step - done)
                    n, done = n + 1, step
            except NonFiniteStateError as exc:
                failure = exc
            if n:
                self._submit(s, n)
                held.append((lo, s, n))
            if failure is not None:
                break
        for block in held:
            yield from self._held(steps, *block)
        if failure is not None:
            raise failure

    def _held(self, steps: list[int], lo: int, s: int, n: int):
        for k, row in enumerate(self._rows(s, n)):
            yield steps[lo + k], row, self.states[s, k]

    def _fork(self) -> None:
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            cpu = _cpu()
            pid = os.fork()
        except OSError:  # no worker: the rows are computed in process
            for fd in fds:
                os.close(fd)
            return
        jobs_r, jobs_w, done_r, done_w = fds
        if pid == 0:  # the worker leaves only through os._exit, whatever happens
            code = 1
            try:
                os.close(jobs_w)
                os.close(done_r)
                _place_beside(cpu)
                # A job is one 8-byte write, below PIPE_BUF, so it arrives whole.
                while len(job := os.read(jobs_r, 8)) == 8:  # "slot s holds n states"
                    s, n = int.from_bytes(job[:4], "little"), int.from_bytes(job[4:], "little")
                    self.row_pass.rows(self.states[s, :n], self.results[s, :n])
                    os.write(done_w, bytes([s]))  # "slot s done"
                code = 0
            finally:
                os._exit(code)
        os.close(jobs_r)
        os.close(done_w)
        self.pid, self.jobs, self.done = pid, jobs_w, done_r

    def _submit(self, s: int, n: int) -> None:
        if self.pid is not None:
            try:
                os.write(self.jobs, s.to_bytes(4, "little") + n.to_bytes(4, "little"))
            except OSError:  # the worker is gone: _rows(s, n) computes the block
                self.close()

    def _rows(self, s: int, n: int) -> list[ExpectationRow]:
        if self.pid is not None:
            try:
                reply = os.read(self.done, 1)
            except OSError:
                reply = b""
            if reply != bytes([s]):  # the worker died or failed: finish here
                self.close()
        if self.pid is None:
            self.row_pass.rows(self.states[s, :n], self.results[s, :n])
        return [ExpectationRow.of(r) for r in self.results[s, :n]]

    def close(self) -> None:
        """Stop and reap the worker, if any: with its job pipe closed it exits
        after the block in hand."""
        if self.pid is not None:
            os.close(self.jobs)
            os.close(self.done)
            try:
                os.waitpid(self.pid, 0)
            except ChildProcessError:  # reaped already, as under SIGCHLD = SIG_IGN
                pass
            self.pid = None

    def __enter__(self) -> "RowBlocks":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
