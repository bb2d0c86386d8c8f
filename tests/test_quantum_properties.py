"""Property tests of the expectation row over random packets and of the grid
transforms over grid shapes (hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import quantum_row_reference  # noqa: E402

from nambu_dyn.quantum import (  # noqa: E402
    Grid,
    WaveFunction,
    _grid_fft,
    expectation_row,
    init_gaussian,
)

GRID = Grid.make_1d(-15.0, 15.0, 512)
KINDS = ("q", "p", "q2", "p2", "qp_sym")

packet = st.tuples(
    st.floats(-3.0, 3.0),  # center
    st.floats(-4.0, 4.0),  # momentum
    st.floats(0.4, 1.2),  # width
)


@settings(max_examples=40, deadline=None)
@given(
    first=packet,
    second=packet,
    weight=st.floats(0.0, 0.9),  # keeps the norm of the sum >= 0.1
    phase=st.floats(0.0, 2.0 * np.pi),
)
def test_row_of_two_packet_superposition(first, second, weight, phase):
    a = init_gaussian(GRID, *first).amps
    b = init_gaussian(GRID, *second).amps
    wf = WaveFunction(GRID, a + weight * np.exp(1j * phase) * b).normalize()
    q, p, q2, p2, qp = expectation_row(wf, KINDS).values
    assert q2 - q * q >= -1e-12
    assert p2 - p * p >= -1e-12
    want = quantum_row_reference(wf, KINDS)
    assert np.max(np.abs(np.subtract((q, p, q2, p2, qp), want))) <= 1e-12


# Power-of-two axes from 64 to 4096 points, at most 2^18 points in all.
grid_shape = st.lists(st.integers(6, 12), min_size=1, max_size=3).filter(
    lambda exps: sum(exps) <= 18
).map(lambda exps: tuple(2**e for e in exps))


@settings(max_examples=25, deadline=None)
@given(shape=grid_shape, seed=st.integers(0, 2**32 - 1))
def test_grid_fft_matches_public_transforms(shape, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    fft, ifft = _grid_fft(shape)
    assert np.array_equal(fft(a, np.empty_like(a)), np.fft.fftn(a))
    assert np.array_equal(ifft(a, np.empty_like(a)), np.fft.ifftn(a))
