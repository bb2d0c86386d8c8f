"""Property test of the RK4 kernel's escape exit against the numpy loop
(hypothesis), on the native and the generated Python kernel."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import rk4_reference  # noqa: E402

from nambu_dyn.dynamics import compile_nambu_field, rk4_integrate  # noqa: E402
from nambu_dyn.scenarios import (  # noqa: E402
    PacketSpec,
    cubic_model,
    hamiltonian_set,
    init_nambu_from_packet,
)

CUBIC = cubic_model()


def test_escape_exit_matches_numpy_loop(kernel):
    # The kernel fixture patches the loader for this test only, so the field
    # is compiled here and shared by every example.
    field = compile_nambu_field(hamiltonian_set(CUBIC))
    assert getattr(field.rk4, "native", False) is (kernel == "native")

    @settings(max_examples=10, deadline=None)
    @given(
        pc=st.floats(1.5, 3.0),
        q_stop=st.floats(-20.0, -2.0),
        stride=st.integers(1, 50),
    )
    def check(pc, q_stop, stride):
        y0 = init_nambu_from_packet(CUBIC, PacketSpec.make(0.0, pc))
        case = dict(y0=y0, dt=5e-3, t_end=20.0, record_stride=stride)
        got = rk4_integrate(field, stop_below=q_stop, **case)
        want = rk4_reference(field, stop=lambda y: y[0] < q_stop, **case)
        assert np.array_equal(got.t, want.t)
        assert np.array_equal(got.states, want.states)
        assert got.flags == want.flags

    check()
