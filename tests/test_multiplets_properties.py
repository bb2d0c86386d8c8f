"""Property test of lifting (hypothesis): wherever ``lift_to_multiplet``
succeeds, putting each x_i's definition back gives the (q, p) polynomial."""

import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nambu_dyn.multiplets import (  # noqa: E402
    AmbiguousLiftWarning,
    QUARTET_QP_Q2P2,
    TRIPLET_QQPP_QP,
    UnliftableMonomialError,
    lift_to_multiplet,
    multiplet_from_strings,
)
from nambu_dyn.poly import Poly, p, q, xvar  # noqa: E402

# Two mixed generators of degree 3 make q^2 p^2 an ambiguous lift.
MIXED_CUBES = multiplet_from_strings(
    "mixed-cubes", ["q0", "p0", "q0^2*p0", "q0*p0^2"], ["x3_0", "x4_0"]
)
MULTIPLETS = [TRIPLET_QQPP_QP, QUARTET_QP_Q2P2, MIXED_CUBES]


def _lift(f, m):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AmbiguousLiftWarning)
        return lift_to_multiplet(f, m)


@settings(max_examples=200, deadline=None)
@given(
    m=st.sampled_from(MULTIPLETS),
    terms=st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        st.floats(-10.0, 10.0, allow_nan=False).filter(bool),
        max_size=6,
    ),
)
def test_lift_then_definitions_gives_back_the_polynomial(m, terms):
    # Each q^a p^b (a, b <= 6) either has no lift or lifts so that x_i ->
    # x_i(q, p) restores it; the sum of the liftable ones lifts term by term.
    definitions = {xvar(i + 1): d for i, d in enumerate(m.defs[0])}
    f = Poly.zero()
    for (a, b), c in terms.items():
        term = Poly.monomial({q(0): a, p(0): b}, c)
        try:
            lifted = _lift(term, m)
        except UnliftableMonomialError:
            continue
        assert lifted.variables() <= set(definitions)
        assert lifted.subs(definitions) == term
        f = f + term
    assert _lift(f, m).subs(definitions) == f
