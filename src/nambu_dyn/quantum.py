"""Grid-based quantum reference: Gaussian packets, split-operator
propagation, and expectation values.

Propagation splits exp(-iH dt/h) into potential and kinetic phases, the
kinetic ones applied in momentum space through the FFT: second-order Strang
steps or Chin's fourth-order 4A steps (see ``SplitOperatorPropagator``).
An optional absorbing mask damps amplitude near the grid edges for open
(tunneling) problems.  Every grid transform goes through ``_grid_fft``.
"""

from __future__ import annotations

import functools
import math
import struct
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dynamics import NonFiniteStateError
from .poly import Poly, ValidationError, check_count, check_finite, check_positive, check_width
from .poly import compile_evaluator, q

__all__ = [
    "Grid",
    "WaveFunction",
    "NonFiniteAmplitudeError",
    "BoundarySupportWarning",
    "init_gaussian",
    "SplitOperatorPropagator",
    "SplitStep",
    "choose_split_step",
    "absorbing_mask",
    "potential_mesh",
    "ExpectationRow",
    "expectation_row",
    "RowPass",
    "expect",
    "save_wavefunction",
    "load_wavefunction",
]

BOUNDARY_AMPLITUDE_TOL = 1e-8
ABSORBER_FRACTION = 0.15


class NonFiniteAmplitudeError(NonFiniteStateError):
    """Propagation produced NaN/Inf amplitudes."""


class BoundarySupportWarning(UserWarning):
    """The packet has non-negligible amplitude at the grid boundary."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid; each axis is (min, max, n_points)."""

    axes: tuple[tuple[float, float, int], ...]

    def __post_init__(self) -> None:
        for axis, (lo, hi, n) in enumerate(self.axes):
            check_finite(lo, f"axis {axis} min")
            check_finite(hi, f"axis {axis} max")
            if hi <= lo:
                raise ValidationError(f"axis needs max > min, got [{lo}, {hi}]")
            check_count(n, f"axis {axis} n_points")
            if n < 64 or n & (n - 1):
                raise ValidationError(f"n_points must be a power of two >= 64, got {n}")

    @classmethod
    def make_1d(cls, lo: float, hi: float, n: int) -> "Grid":
        return cls(((float(lo), float(hi), n),))

    @classmethod
    def make_2d(cls, axis0, axis1) -> "Grid":
        return cls((tuple(axis0), tuple(axis1)))

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(n for _, _, n in self.axes)

    def dx(self, axis: int = 0) -> float:
        lo, hi, n = self.axes[axis]
        return (hi - lo) / n

    @property
    def dvol(self) -> float:
        return math.prod(self.dx(axis) for axis in range(self.ndim))

    def coords(self, axis: int = 0) -> np.ndarray:
        lo, _, n = self.axes[axis]
        return lo + self.dx(axis) * np.arange(n)

    def wavenumbers(self, axis: int = 0) -> np.ndarray:
        _, _, n = self.axes[axis]
        return 2.0 * np.pi * np.fft.fftfreq(n, d=self.dx(axis))

    def axis_view(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Reshape a per-axis 1D array for broadcasting over the grid."""
        shape = [1] * self.ndim
        shape[axis] = len(values)
        return values.reshape(shape)


@dataclass
class WaveFunction:
    """Complex amplitudes on a grid; norm is kept at 1 by the propagator
    unless an absorber drains it."""

    grid: Grid
    amps: np.ndarray
    hbar: float = 1.0

    def __post_init__(self) -> None:
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        if self.amps.shape != self.grid.shape:
            raise ValidationError(
                f"amplitude shape {self.amps.shape} != grid shape {self.grid.shape}"
            )
        check_positive(self.hbar, "hbar")

    def norm(self) -> float:
        """Total probability, sum |psi|^2 dV."""
        return float(np.sum(self.density()) * self.grid.dvol)

    def normalize(self) -> "WaveFunction":
        self.amps = self.amps / np.sqrt(self.norm())
        return self

    def density(self) -> np.ndarray:
        """|psi|^2 as re^2 + im^2."""
        return self.amps.real**2 + self.amps.imag**2


def _per_axis(value, ndim: int, name: str) -> list[float]:
    if np.isscalar(value):
        return [float(value)] * ndim
    out = [float(v) for v in value]
    if len(out) != ndim:
        raise ValidationError(f"{name} needs one entry per axis ({ndim}), got {len(out)}")
    return out


def init_gaussian(
    grid: Grid,
    centers,
    momenta,
    widths,
    hbar: float = 1.0,
) -> WaveFunction:
    """Normalized Gaussian packet, product form over axes:
    (2 pi s^2)^(-1/4) exp(-(x-qc)^2 / 4 s^2 + i pc (x-qc) / hbar).
    ValidationError names a center or momentum that is not finite, a width that breaks
    ``check_width`` and a packet that misses the grid (its norm there is 0 or not finite)."""
    qc = _per_axis(centers, grid.ndim, "centers")
    pc = _per_axis(momenta, grid.ndim, "momenta")
    sig = _per_axis(widths, grid.ndim, "widths")
    check_positive(hbar, "hbar")
    for axis in range(grid.ndim):
        check_finite(qc[axis], f"centers[{axis}]")
        check_finite(pc[axis], f"momenta[{axis}]")
        check_width(sig[axis], f"widths[{axis}]")
    amps = np.ones(grid.shape, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # far off the grid: checked below
        for axis in range(grid.ndim):
            x = grid.coords(axis) - qc[axis]
            s2 = sig[axis] ** 2
            line = (2.0 * np.pi * s2) ** -0.25 * np.exp(
                -(x**2) / (4.0 * s2) + 1j * pc[axis] * x / hbar
            )
            amps = amps * grid.axis_view(line, axis)
    wf = WaveFunction(grid, amps, hbar)
    norm = wf.norm()
    if not 0 < norm < math.inf:
        raise ValidationError(f"packet at centers {qc}, widths {sig} misses the grid "
                              f"(norm {norm!r})")
    wf.normalize()
    edge = _edge_amplitude(wf.density())
    if edge > BOUNDARY_AMPLITUDE_TOL:
        warnings.warn(
            f"packet amplitude {edge:.2e} at the grid boundary exceeds "
            f"{BOUNDARY_AMPLITUDE_TOL:.0e}; enlarge the grid",
            BoundarySupportWarning,
            stacklevel=2,
        )
    return wf


def absorbing_mask(grid: Grid) -> np.ndarray:
    """cos^2 amplitude ramp from 1 down to 0 over the outer
    ``ABSORBER_FRACTION`` of each axis."""
    mask = np.ones(grid.shape)
    for axis in range(grid.ndim):
        lo, hi, _ = grid.axes[axis]
        width = ABSORBER_FRACTION * (hi - lo)
        x = grid.coords(axis)
        d = np.minimum(x - lo, hi - x)
        line = np.where(d >= width, 1.0, np.sin(0.5 * np.pi * np.clip(d, 0, width) / width) ** 2)
        mask = mask * grid.axis_view(line, axis)
    return mask


def potential_mesh(grid: Grid, V: Poly) -> np.ndarray:
    """Evaluate a potential, a Poly over q0, q1, ..., on the grid."""
    if not isinstance(V, Poly):
        raise TypeError(f"potential must be a Poly over q0, q1, ..., got {type(V).__name__}")
    order = [q(axis) for axis in range(grid.ndim)]
    extra = V.variables() - set(order)
    if extra:
        names = ", ".join(sorted(v.name for v in extra))
        raise ValidationError(f"potential Poly uses non-position variables: {names}")
    views = [grid.axis_view(grid.coords(axis), axis) for axis in range(grid.ndim)]
    return np.full(grid.shape, compile_evaluator(V, order)(views), dtype=np.float64)


@functools.lru_cache(maxsize=8)
def _grid_fft(shape: tuple[int, ...]) -> tuple[Callable, Callable]:
    """``(fft, ifft)`` over the trailing ``len(shape)`` axes, each
    ``(a, out) -> out`` with ``out`` a complex128 array of ``a``'s shape
    (it may be ``a``).

    They make the per-axis pocketfft gufunc calls that ``np.fft.fftn`` and
    ``ifftn`` make internally, last axis first, the inverse scaled by 1/n per
    axis, so the results are bit-identical to theirs.  Skipping the public
    wrappers' argument handling (``_cook_nd_args``, ``_raw_fft``) saves
    5-7 us per call, about 15 % of a 2048-point Strang step.  The
    gufuncs and this call form are numpy 2.x's; pyproject pins
    ``numpy>=2.0,<3``.
    """
    # Imported here, as ``np.fft`` is imported on first use, so that runs
    # without a grid do not load numpy.fft.
    from numpy.fft import _pocketfft_umath as pocketfft

    def transform(ufunc, scale):
        calls = [
            (scale(shape[ax]), [(ax,), (), (ax,)]) for ax in range(-1, -len(shape) - 1, -1)
        ]

        def run(a: np.ndarray, out: np.ndarray) -> np.ndarray:
            for fct, axes in calls:
                ufunc(a, fct, axes=axes, out=out)
                a = out
            return out

        return run

    return transform(pocketfft.fft, lambda n: 1.0), transform(pocketfft.ifft, lambda n: 1.0 / n)


class SplitOperatorPropagator:
    """Split-operator stepper with precomputed phase factors.

    ``order=2`` takes Strang steps, V/2 T V/2, at one FFT pair per step;
    ``order=4`` takes Chin's 4A steps (Chin & Chen, J. Chem. Phys. 114, 7338,
    2001), V/6 T/2 (2/3)W T/2 V/6 with W = V - (dt^2/48) sum_a (dV/dq_a)^2/m_a,
    at two pairs; W is a Poly like V.  The absorber damps once per step, so
    its strength follows the step: ``order=4`` takes none, and absorbed runs
    keep Strang steps of the caller's dt.
    """

    def __init__(
        self,
        grid: Grid,
        V: Poly,
        dt: float,
        hbar: float = 1.0,
        masses: Sequence[float] | None = None,
        absorber: np.ndarray | None = None,
        order: int = 2,
    ):
        self.dt = check_positive(dt, "dt")
        if order not in (2, 4):
            raise ValidationError(f"split order must be 2 or 4, got {order!r}")
        if order == 4 and absorber is not None:
            raise ValidationError("an absorber damps once per step; order 4 takes no absorber")
        self.grid = grid
        self.hbar = check_positive(hbar, "hbar")
        masses = _per_axis(masses if masses is not None else 1.0, grid.ndim, "masses")
        self.masses = [check_positive(m, "mass") for m in masses]
        vmesh = potential_mesh(grid, V)
        kin = np.zeros(grid.shape)
        for axis in range(grid.ndim):
            k = grid.wavenumbers(axis)
            kin = kin + grid.axis_view(k**2, axis) / (2.0 * self.masses[axis])
        # The outer V phase, which opens and closes every run, and the
        # kinetic phase: V/2 and T for Strang, V/6 and T/2 for Chin's step.
        v_tau, t_tau = (self.dt, self.dt) if order == 2 else (self.dt / 3.0, self.dt / 2.0)
        self.exp_v_half = np.exp(-0.5j * vmesh * v_tau / hbar)
        self.exp_t = np.exp(-1j * hbar * kin * t_tau)
        # One step's closing V phase and the next step's opening V phase,
        # fused, then the absorber that sits between them.
        self.exp_v_join = self.exp_v_half**2
        if absorber is not None:
            self.exp_v_join *= absorber
        self.absorber = absorber
        # Chin's middle (2/3)W phase, followed by the second kinetic phase.
        self.exp_v_mid = None
        if order == 4:
            grad2 = sum(V.partial(q(a)) ** 2 * (1.0 / m) for a, m in enumerate(self.masses))
            wmesh = potential_mesh(grid, V - (self.dt**2 / 48.0) * grad2)
            self.exp_v_mid = np.exp(-2j / 3.0 * wmesh * self.dt / hbar)
        self._fft, self._ifft = _grid_fft(grid.shape)

    def step(self, wf: WaveFunction, n: int = 1) -> WaveFunction:
        """Advance ``n`` steps in one work array; ``wf.amps`` is replaced,
        never written."""
        amps = wf.amps
        if n > 0:
            fft, ifft, mid = self._fft, self._ifft, self.exp_v_mid
            amps = self.exp_v_half * amps
            for i in range(n):
                if i:
                    amps *= self.exp_v_join
                fft(amps, amps)
                amps *= self.exp_t
                ifft(amps, amps)
                if mid is not None:
                    amps *= mid
                    fft(amps, amps)
                    amps *= self.exp_t
                    ifft(amps, amps)
            amps *= self.exp_v_half
            if self.absorber is not None:
                amps *= self.absorber
        # Exact and out of BLAS: np.vdot's norm here woke a spinning OpenBLAS thread.
        if not np.all(np.isfinite(amps)):
            raise NonFiniteAmplitudeError("wavefunction amplitudes became non-finite")
        wf.amps = amps
        return wf


class SplitStep(NamedTuple):
    """A quantum run's step: ``order`` steps of ``multiple``·dt, with the
    step-halving estimates of its row error and of Strang's at dt."""

    multiple: int
    order: int
    err_est: float
    strang_err_est: float


def choose_split_step(
    wf: WaveFunction,
    V: Poly,
    dt: float,
    n_steps: int,
    record_stride: int,
    kinds: Sequence[str],
    masses: Sequence[float] | None = None,
    absorber: np.ndarray | None = None,
) -> SplitStep:
    """The largest fourth-order step h = j·dt that step halving finds at
    least as accurate as Strang at dt, for a run of ``n_steps`` steps of dt
    recorded every ``record_stride``.

    j divides g = gcd(record_stride, n_steps), so whole steps of h reach
    every row.  Over the window g·dt from ``wf``, a step of order p has the
    row error e = max|E(h) - E(h/2)|·2^p/(2^p - 1), E being the expectation
    row ``kinds``.  Strang at dt sets the target e2; the divisors j > 1 of g
    are tried largest first, and the first with e4(j) <= e2 is taken.  With
    none, the run keeps Strang at dt, ``SplitStep(1, 2, e2, e2)``.  It also
    does so without an estimate (NaN errors) when an absorber is given, and
    when 3g > n_steps, where the Strang estimate alone would cost more than
    the whole run.  The estimates start from a copy of ``wf``'s amplitudes,
    and their propagators are dropped on return.
    """
    window = math.gcd(record_stride, n_steps)
    if absorber is not None or 3 * window > n_steps:
        return SplitStep(1, 2, math.nan, math.nan)

    def error(order: int, h: float, steps: int) -> float:
        rows = []
        for halves in (1, 2):
            prop = SplitOperatorPropagator(wf.grid, V, h / halves, wf.hbar, masses, order=order)
            trial = WaveFunction(wf.grid, wf.amps.copy(), wf.hbar)
            rows.append(expectation_row(prop.step(trial, halves * steps), kinds).values)
        return float(np.max(np.abs(np.subtract(*rows)))) * 2**order / (2**order - 1)

    target = error(2, dt, window)
    divisors = {
        k for d in range(1, math.isqrt(window) + 1) if window % d == 0 for k in (d, window // d)
    }
    for j in sorted(divisors - {1}, reverse=True):
        err = error(4, j * dt, window // j)
        if err <= target:
            return SplitStep(j, 4, err, target)
    return SplitStep(1, 2, target, target)


# --------------------------------------------------------------------------
# Expectation values
# --------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _grid_weights(grid: Grid, hbar: float) -> tuple:
    """Per-axis x and hbar k broadcast along their axis, and per-axis rows
    (1, x, x^2) and (1, hbar k, (hbar k)^2), shared by all callers: never written."""
    x = [grid.coords(axis) for axis in range(grid.ndim)]
    hk = [hbar * grid.wavenumbers(axis) for axis in range(grid.ndim)]
    views = [[grid.axis_view(v, axis) for axis, v in enumerate(vs)] for vs in (x, hk)]
    rows = [[np.stack([np.ones_like(v), v, v * v]) for v in vs] for vs in (x, hk)]
    return (*views, *rows)


def _marginals(values: np.ndarray) -> list[np.ndarray]:
    """``values`` summed over every axis but one, for each axis."""
    if values.ndim == 1:
        return [values]
    axes = range(values.ndim)
    return [values.sum(axis=tuple(b for b in axes if b != a)) for a in axes]


def _edge_amplitude(density: np.ndarray) -> float:
    """Largest |psi| on the first and last plane of every axis."""
    planes = (density.swapaxes(0, a)[:: n - 1] for a, n in enumerate(density.shape))
    return math.sqrt(max(plane.max() for plane in planes))


class ExpectationRow(NamedTuple):
    values: list[float]
    norm: float  # sum |psi|^2 dV
    boundary_amp: float  # largest |psi| on the grid boundary


# kind -> (space, power), space 0 position and 1 momentum; qp_sym is normalized like p.
_MOMENTS = {"q": (0, 1), "q2": (0, 2), "p": (1, 1), "p2": (1, 2), "qp_sym": (1, 0)}


def expectation_row(wf: WaveFunction, kinds: Sequence[str]) -> ExpectationRow:
    """Normalized ``kinds`` (q, p, q2, p2, qp_sym) on every axis, axis by axis.

    Per-axis marginals of the density give q and q2 as dot products with
    (1, x, x^2); one forward transform, F[psi], does the same for p and p2.
    qp_sym = Re <x psi|p psi> / <psi|psi>, the symmetrized product, takes one
    transform per axis by Parseval: Re sum conj(F[x psi]) hbar k F[psi] / sum |F[psi]|^2.
    """
    block = RowPass(wf.grid, wf.hbar, kinds, 1)
    block.states[0] = wf.amps
    return block.rows(1)[0]


class RowPass:
    """``expectation_row`` of up to ``size`` amplitude arrays written into ``states``:
    ``rows(n)`` gives those of the first n, their transforms (psi, and x psi for
    qp_sym) one ``_grid_fft`` call in place over one stack and each row's sums
    its own, so bit-identical to a block of one.  The buffers are reused, as
    malloc maps arrays of 128 KiB and up afresh, page faults and all."""

    def __init__(self, grid: Grid, hbar: float, kinds: Sequence[str], size: int):
        for kind in kinds:
            if kind not in _MOMENTS:
                raise ValidationError(f"unknown expectation kind {kind!r}")
        self.grid, self.kinds, self.weights = grid, tuple(kinds), _grid_weights(grid, hbar)
        self.axes = grid.ndim * ("qp_sym" in kinds)
        self.states = np.empty((size, *grid.shape), dtype=np.complex128)
        self.work = np.empty(((1 + self.axes) * size, *grid.shape), dtype=np.complex128)
        self.scratch = np.empty((2, *grid.shape))

    def rows(self, n: int) -> list[ExpectationRow]:
        grid, kinds, axes, dvol = self.grid, self.kinds, self.axes, self.grid.dvol
        x, hk, position, momentum = self.weights
        d, sq = self.scratch  # |a|^2 as re^2 + im^2, no allocation per row

        def density(a: np.ndarray) -> np.ndarray:
            return np.add(np.square(a.real, out=d), np.square(a.imag, out=sq), out=d)

        # The stack: psi of each state, then x psi for each axis, each state.
        work = self.work[: (1 + axes) * n]
        psi, xpsi = work[:n], work[n:].reshape(axes, n, *grid.shape)
        psi[...] = self.states[:n]
        sums, edges = [], []
        for a in psi:
            sums.append([[r @ m for r, m in zip(position, _marginals(density(a)))]])
            edges.append(_edge_amplitude(d))
        for axis, out in enumerate(xpsi):
            np.multiply(psi, x[axis], out=out)
        if any(_MOMENTS[kind][0] for kind in kinds):  # a momentum-space kind
            _grid_fft(grid.shape)[0](work, work)
            for axis, out in enumerate(xpsi):
                out *= hk[axis]
            for own, a in zip(sums, psi):
                own.append([r @ m for r, m in zip(momentum, _marginals(density(a)))])
        rows = []
        for b, own in enumerate(sums):  # own[space][axis]: this row's (1, v, v^2) sums
            values = []
            for axis in range(grid.ndim):
                for kind in kinds:
                    space, order = _MOMENTS[kind]
                    s = own[space][axis]
                    v = np.vdot(xpsi[axis, b], psi[b]).real if kind == "qp_sym" else s[order]
                    values.append(float(v / s[0]))
            rows.append(ExpectationRow(values, float(own[0][0][0]) * dvol, edges[b]))
        return rows


def expect(wf: WaveFunction, kind: str, axis: int = 0) -> float:
    """Expectation value of q, p, q2, p2 or qp_sym along one axis (see
    ``expectation_row``)."""
    return expectation_row(wf, (kind,)).values[axis]


# --------------------------------------------------------------------------
# Snapshot files: little-endian, uint32 axis count, per axis
# (float64 min, float64 max, uint32 n_points), then the amplitudes as
# complex128 (interleaved re/im float64) in C order.
# --------------------------------------------------------------------------


def save_wavefunction(wf: WaveFunction, path) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", wf.grid.ndim))
        for lo, hi, n in wf.grid.axes:
            fh.write(struct.pack("<ddI", lo, hi, n))
        fh.write(wf.amps.astype("<c16").tobytes())


def load_wavefunction(path, hbar: float = 1.0) -> WaveFunction:
    with open(path, "rb") as fh:
        raw = fh.read()

    def need(size: int, what: str) -> None:
        if len(raw) < size:
            raise ValidationError(f"snapshot {path}: {what} needs {size} bytes, "
                                  f"file has {len(raw)}")

    need(4, "axis count")
    (n_axes,) = struct.unpack_from("<I", raw)
    offset = 4 + 20 * n_axes
    need(offset, f"header for {n_axes} axes")
    try:
        grid = Grid(tuple(struct.iter_unpack("<ddI", raw[4:offset])))
    except ValidationError as err:
        raise ValidationError(f"snapshot {path}: {err}") from None
    count = math.prod(grid.shape)
    size = offset + 16 * count
    need(size, f"header and {count} amplitudes")
    if len(raw) > size:
        raise ValidationError(
            f"snapshot {path}: expected {size} bytes, file has {len(raw)} "
            f"({len(raw) - size} trailing)"
        )
    amps = np.frombuffer(raw, "<c16", count, offset).reshape(grid.shape)
    return WaveFunction(grid, amps.copy(), hbar)
