"""Property tests of polynomials (hypothesis): drawn text against sympy's
reading of it, format_poly then parse_poly as the identity, the ring
laws and the Leibniz rule of ``partial`` on integer-coefficient Polys, and
one evaluator for a list of Polys against each Poly evaluated alone."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import eval_poly  # noqa: E402

from nambu_dyn.poly import Poly, compile_evaluator, format_poly, p, parse_poly, q, xvar  # noqa: E402

NAMES = {"q": q(0), "p": p(0), "q1": q(1), "x1": xvar(1), "x3_1": xvar(3, 1)}
WS = st.sampled_from(["", " ", "  ", "\t"])
# Integers and dyadic decimals: every sum and product of a few is exact.
NUMBER = st.integers(0, 99).map(str) | st.integers(0, 2**10).map(lambda k: repr(k / 64))
NAME = st.sampled_from(sorted(NAMES))
POWER = st.tuples(WS, st.sampled_from(["^", "**"]), WS, st.integers(0, 4).map(str)).map("".join)
FACTOR = NUMBER | NAME | st.tuples(NAME, POWER).map("".join)


@st.composite
def poly_text(draw):
    text = draw(WS)
    for i in range(draw(st.integers(1, 4))):
        for sign in draw(st.lists(st.sampled_from("+-"), min_size=min(i, 1), max_size=3)):
            text += sign + draw(WS)
        star = draw(WS) + "*" + draw(WS)
        text += star.join(draw(st.lists(FACTOR, min_size=1, max_size=3))) + draw(WS)
    return text


@settings(max_examples=100, deadline=None)
@given(text=poly_text())
def test_parse_agrees_with_sympy(text):
    sp = pytest.importorskip("sympy")
    expected = sp.Poly(sp.expand(sp.sympify(text.replace("^", "**"))), *sp.symbols(list(NAMES)))
    # sympy keeps a term whose Float coefficient is 0.0; a Poly stores none.
    nonzero = [(powers, float(c)) for powers, c in expected.terms() if float(c) != 0.0]
    f = parse_poly(text)
    assert len(f.terms) == len(nonzero)
    for powers, c in nonzero:
        assert f.coefficient(dict(zip(NAMES.values(), powers))) == c, text


EXPONENTS = st.tuples(*[st.integers(0, 3)] * len(NAMES))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(EXPONENTS, st.floats(allow_nan=False, allow_infinity=False), max_size=6))
def test_format_roundtrip_random(terms):
    f = Poly.zero()
    for powers, c in terms.items():
        f = f + Poly.monomial(dict(zip(NAMES.values(), powers)), c)
    assert parse_poly(format_poly(f)) == f


RING_VARS = [q(0), p(0), xvar(1)]
# Small integer coefficients and degrees: every sum, product and derivative of
# these is an exact float, so the ring laws and the Leibniz rule hold with ==.
INT_POLY = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * len(RING_VARS)), st.integers(-9, 9), max_size=4
).map(lambda terms: sum(
    (Poly.monomial(dict(zip(RING_VARS, powers)), c) for powers, c in terms.items()), Poly.zero()
))


@settings(max_examples=100, deadline=None)
@given(INT_POLY, INT_POLY, INT_POLY)
def test_ring_laws_hold_exactly(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


@settings(max_examples=100, deadline=None)
@given(INT_POLY, INT_POLY, st.sampled_from([*RING_VARS, xvar(3)]))
def test_partial_obeys_the_leibniz_rule(f, g, v):
    assert (f * g).partial(v) == f * g.partial(v) + g * f.partial(v)


EVAL_VARS = [xvar(1), xvar(2), xvar(3)]
# Coefficients and values in [-2, 2], each variable at most once per term: a
# term is at most 16 in size, so a value's rounding stays far below 1e-13.
# Constants (zero among them) are drawn both alone and as empty term maps.
BOUNDED = st.floats(-2.0, 2.0)
EVAL_POLY = BOUNDED.map(Poly.const) | st.dictionaries(
    st.tuples(*[st.integers(0, 1)] * len(EVAL_VARS)), BOUNDED, max_size=4
).map(lambda terms: sum(
    (Poly.monomial(dict(zip(EVAL_VARS, powers)), c) for powers, c in terms.items()), Poly.zero()
))


@settings(max_examples=100, deadline=None)
@given(st.lists(EVAL_POLY, min_size=1, max_size=5), st.integers(0, 2**32 - 1),
       st.sampled_from(["scalars", "columns", "grid views"]))
def test_one_evaluator_gives_each_polynomial_its_own_values(polys, seed, form):
    rng = np.random.default_rng(seed)
    y = {
        "scalars": rng.uniform(-2.0, 2.0, 3),
        "columns": rng.uniform(-2.0, 2.0, (3, 5)),
        "grid views": [rng.uniform(-2.0, 2.0, (4, 1)), rng.uniform(-2.0, 2.0, (1, 3)),
                       np.float64(rng.uniform(-2.0, 2.0))],
    }[form]
    values = compile_evaluator(polys, EVAL_VARS)(y)
    assert values.dtype == np.float64 and len(values) == len(polys)
    points = np.broadcast_arrays(*y)  # each variable at every point
    for f, row in zip(polys, values):
        alone = compile_evaluator([f], EVAL_VARS)(y)[0]
        assert np.array_equal(row, np.broadcast_to(alone, row.shape))
        for index in np.ndindex(points[0].shape):
            point = {v: float(x[index]) for v, x in zip(EVAL_VARS, points)}
            value = np.broadcast_to(row, points[0].shape)[index]
            assert value == pytest.approx(eval_poly(f, point), rel=1e-13, abs=1e-13)
