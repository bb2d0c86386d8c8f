"""Property tests of the polynomial text form (hypothesis): drawn text
against sympy's reading of it, and format_poly then parse_poly as the
identity."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nambu_dyn.poly import Poly, format_poly, p, parse_poly, q, xvar  # noqa: E402

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
