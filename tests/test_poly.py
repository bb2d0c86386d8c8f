import re
import time

import numpy as np
import pytest

from helpers import central_difference, eval_poly, random_poly

from nambu_dyn import native
from nambu_dyn.poly import (
    MAX_POLY_FACTORS,
    MAX_SUM_TERMS,
    MAX_TERM_FACTORS,
    Poly,
    ValidationError,
    VarId,
    compile_evaluator,
    compile_vector_field,
    format_poly,
    parse_poly,
    p,
    q,
    xvar,
)

X1, X2, X3, X4 = (xvar(i) for i in (1, 2, 3, 4))


def test_eval_square():
    f = Poly.var(X1) ** 2
    assert eval_poly(f, {X1: 3.0}) == 9.0


def test_eval_triplet_constraint_at_frozen_gaussian_point():
    # 2 x3^2 - 2 x1 x2 at (1.5, 0.5, 0)
    f = 2.0 * Poly.var(X3) ** 2 - 2.0 * Poly.var(X1) * Poly.var(X2)
    assert eval_poly(f, {X1: 1.5, X2: 0.5, X3: 0.0}) == -1.5


def test_eval_zero_poly():
    assert eval_poly(Poly.zero(), {}) == 0.0
    assert eval_poly(Poly.zero(), {X1: 123.0}) == 0.0


def test_eval_missing_variable_names_it():
    f = Poly.var(X2)
    with pytest.raises(ValidationError, match="variable x2_0 is not bound in the assignment"):
        eval_poly(f, {X1: 1.0})


def test_partial_power_rule():
    f = Poly.var(q()) ** 2
    assert f.partial(q()) == 2.0 * Poly.var(q())


def test_partial_cubic_closure_term():
    # d/dx1 (3 x3 x1 - 2 x1^3) = 3 x3 - 6 x1^2
    f = 3.0 * Poly.var(X3) * Poly.var(X1) - 2.0 * Poly.var(X1) ** 3
    expected = 3.0 * Poly.var(X3) - 6.0 * Poly.var(X1) ** 2
    assert f.partial(X1) == expected


def test_partial_absent_variable():
    f = Poly.var(p()) ** 2
    assert f.partial(q()).is_zero


def test_arith_cancellation():
    f = Poly.var(X3) - Poly.var(X1) ** 2
    g = Poly.var(X1) ** 2
    assert f + g == Poly.var(X3)
    assert len((f + g).terms) == 1


def test_arith_product_and_scale():
    assert Poly.var(q()) * Poly.var(p()) == Poly.monomial({q(): 1, p(): 1})
    assert 0.5 * Poly.var(X4) == Poly.monomial({X4: 1}, 0.5)


def test_ring_axioms_random():
    rng = np.random.default_rng(42)
    vars_ = [q(), p(), X1, X3]
    for _ in range(20):
        f = random_poly(rng, vars_)
        g = random_poly(rng, vars_)
        h = random_poly(rng, vars_)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        # distributivity as term maps, with float products matched termwise
        lhs = f * (g + h)
        rhs = f * g + f * h
        assert set(lhs.terms) == set(rhs.terms)
        for mono, c in lhs.terms.items():
            assert rhs.terms[mono] == pytest.approx(c, rel=1e-12, abs=1e-15)


def test_partial_commutes_exactly():
    rng = np.random.default_rng(3)
    vars_ = [q(), p(), X1, X2]
    for _ in range(20):
        f = random_poly(rng, vars_, max_degree=3)
        assert f.partial(q()).partial(X1) == f.partial(X1).partial(q())


def test_partial_matches_finite_differences():
    rng = np.random.default_rng(11)
    vars_ = [X1, X2, X3]
    for _ in range(20):
        f = random_poly(rng, vars_, max_degree=3)
        v = vars_[rng.integers(0, len(vars_))]
        point = {u: float(rng.uniform(-1.5, 1.5)) for u in vars_}

        def along(x):
            shifted = dict(point)
            shifted[v] = x
            return eval_poly(f, shifted)

        exact = eval_poly(f.partial(v), point)
        approx = central_difference(along, point[v], step=1e-5)
        assert approx == pytest.approx(exact, rel=1e-6, abs=1e-7)


def test_pow_and_subs_roundtrip():
    f = (Poly.var(X1) + Poly.var(X2)) ** 3
    assert f.coefficient({X1: 2, X2: 1}) == 3.0
    g = f.subs({X2: Poly.const(0.0)})
    assert g == Poly.var(X1) ** 3


def test_parse_reference_string():
    text = "0.5*x4 + 0.5*x3 + 0.3*x3*x1 - 0.2*x1^3"
    f = parse_poly(text)
    assert f.coefficient({X4: 1}) == 0.5
    assert f.coefficient({X3: 1, X1: 1}) == 0.3
    assert f.coefficient({X1: 3}) == -0.2
    assert parse_poly(text.replace(" ", "")) == f


def test_parse_variable_name_forms():
    assert parse_poly("q") == Poly.var(q(0))
    assert parse_poly("q1*p1") == Poly.var(q(1)) * Poly.var(p(1))
    assert parse_poly("x2_1^2") == Poly.var(xvar(2, 1)) ** 2
    assert parse_poly("x3") == parse_poly("x3_0")
    assert parse_poly("3") == Poly.const(3.0)
    assert parse_poly("-x1") == -Poly.var(X1)
    assert parse_poly("2e-3*q") == Poly.monomial({q(): 1}, 2e-3)


def test_parse_accepted_forms():
    assert parse_poly("q ** 2") == parse_poly("q^2.0") == Poly.var(q()) ** 2
    assert parse_poly("- - q") == parse_poly("+q") == parse_poly("q\n") == Poly.var(q())


def test_parse_rejects_garbage():
    near = "cannot parse polynomial text near "
    for bad, message in [
        ("x0", "x-variable index must be >= 1 in 'x0'"),
        ("q+", "dangling sign at end of polynomial"),
        ("2**", near + "'2**'"),
        ("x1^-2", near + "'x1^-2'"),
        ("x1 x2", near + "'x1 x2'"),
        ("$", near + "'$'"),
        ("x1^1e400", "exponent 1e400 is not a non-negative integer"),
        ("q*-p", near + "'-p'"),
        ("q^2^3", near + "'q^2^3'"),
        ("2^3", near + "'2^3'"),
    ]:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            parse_poly(bad)
    with pytest.raises(ValidationError, match="unknown variable name 'y1'"):
        parse_poly("2*y1")
    # What the parser cannot express, built through the API.
    with pytest.raises(ValidationError, match="unknown variable slot 'r'"):
        Poly.var(VarId(0, "r")) * Poly.var(X1)
    with pytest.raises(ValidationError, match="negative exponents are not supported"):
        Poly.monomial({X1: -1})
    for power in (-1, 1.5):
        with pytest.raises(ValidationError, match="only non-negative integer powers"):
            Poly.var(X1) ** power


def test_format_zero_and_non_finite_coefficients():
    assert format_poly(Poly.zero()) == "0"
    assert str(parse_poly("1e400*q")) == "inf*q"
    assert str(parse_poly("-1e400*q")) == "-inf*q"
    assert str(parse_poly("0*1e400*q")) == "nan*q"


def test_format_uses_suffixes_only_when_needed():
    assert format_poly(Poly.var(X3)) == "x3"
    assert format_poly(Poly.var(xvar(3, 1))) == "x3_1"
    mixed = Poly.var(X1) * Poly.var(xvar(1, 1))
    assert "x1_0" in format_poly(mixed)


def test_compile_evaluator_matches_eval():
    rng = np.random.default_rng(9)
    order = [X1, X2, X3, X4]
    for _ in range(10):
        f = random_poly(rng, order, max_degree=4, n_terms=6)
        fn = compile_evaluator([f], order)
        y = rng.uniform(-2, 2, 4)
        direct = eval_poly(f, dict(zip(order, y)))
        assert fn(y)[0] == pytest.approx(direct, rel=1e-13, abs=1e-13)


def test_compile_evaluator_rejects_unknown_vars():
    with pytest.raises(ValidationError, match=r"compiled polynomial may use only \{x1_0, x2_0\}; got x4_0$"):
        compile_evaluator([Poly.var(X4)], [X1, X2])


def test_compile_vector_field():
    field = compile_vector_field([Poly.var(X2), -Poly.var(X1)], [X1, X2])
    out = field(np.array([2.0, 5.0]))
    assert out.tolist() == [5.0, -2.0]


def test_compile_rejects_non_finite_coefficients():
    term = Poly.monomial({X1: 2, X2: 1}, float("nan"))
    with pytest.raises(ValueError, match=r"coefficient of term x1\^2\*x2 = nan is not finite"):
        compile_vector_field([term, Poly.var(X1)], [X1, X2])
    with pytest.raises(ValueError, match="coefficient of term 1 = inf is not finite"):
        compile_evaluator([Poly.const(float("inf"))], [X1])


def test_compile_bounds_the_factors_of_a_term():
    too_many = rf"term q\^\d+ has more than {MAX_TERM_FACTORS} factors"
    for text in ("q^20000", "q^1e300"):
        with pytest.raises(ValueError, match=too_many):
            compile_evaluator([parse_poly(text)], [q()])
    at_bound = Poly.var(X1) ** (MAX_TERM_FACTORS - 1) * Poly.var(X2)
    assert compile_evaluator([at_bound], [X1, X2])([1.0, -2.0]).tolist() == [-2.0]
    with pytest.raises(ValueError, match="factors"):
        compile_evaluator([at_bound * Poly.var(X2)], [X1, X2])


def test_compile_bounds_the_terms_of_a_sum():
    # 3,100 short terms: Python's compiler would overflow its recursion on the sum.
    pairs = [f"x1^{a}*x2^{b}" for a in range(56) for b in range(56)]
    too_wide = parse_poly(" + ".join(pairs[:3100]))
    with pytest.raises(ValueError, match=f"3100 terms has more than {MAX_SUM_TERMS} terms"):
        compile_evaluator([too_wide], [X1, X2])
    # At both bounds: MAX_SUM_TERMS terms, one of them MAX_TERM_FACTORS factors long.
    at_bound = parse_poly(" + ".join(pairs[: MAX_SUM_TERMS - 1]) + f" + x1^{MAX_TERM_FACTORS - 1}*x2")
    assert len(at_bound.terms) == MAX_SUM_TERMS
    assert compile_evaluator([at_bound], [X1, X2])([1.0, 1.0]).tolist() == [MAX_SUM_TERMS]
    with pytest.raises(ValueError, match=f"{MAX_SUM_TERMS + 1} terms"):
        compile_evaluator([at_bound + Poly.var(X3)], [X1, X2, X3])


def too_many(factors: int) -> str:
    return f"polynomials of {factors} factors have more than {MAX_POLY_FACTORS} to compile"


def test_compile_bounds_the_factors_of_a_polynomial(monkeypatch):
    built = []
    monkeypatch.setattr(native, "load_rk4", lambda source, dim: built.append(source))
    n_terms, rest = divmod(MAX_POLY_FACTORS, MAX_TERM_FACTORS)
    assert rest == 0
    # n_terms terms of MAX_TERM_FACTORS factors each: every term is within its bound.
    at_bound = sum(
        (Poly.monomial({X1: MAX_TERM_FACTORS - k, X2: k}) for k in range(1, n_terms + 1)), Poly.zero()
    )
    assert compile_evaluator([at_bound], [X1, X2])([1.0, 1.0]).tolist() == [n_terms]
    over = at_bound + Poly.var(X3)
    with pytest.raises(ValidationError, match=too_many(MAX_POLY_FACTORS + 1)):
        compile_evaluator([over], [X1, X2, X3])
    with pytest.raises(ValidationError, match=too_many(MAX_POLY_FACTORS + 3)):
        compile_vector_field([over, Poly.var(X1), Poly.var(X2)], [X1, X2, X3])
    # Each polynomial within the bound, the list over it: one function would exceed it.
    with pytest.raises(ValidationError, match=too_many(MAX_POLY_FACTORS + 1)):
        compile_vector_field([at_bound, Poly.var(X1)], [X1, X2])
    assert built == []  # rejected before the kernel source reaches a compiler


def test_parse_poly_takes_linear_time():
    pairs = [(a, b) for a in range(200) for b in range(100)]  # 20,000 distinct terms
    text = " + ".join(f"{a - b + 0.25}*x1^{a}*x2^{b}" for a, b in pairs)
    start = time.perf_counter()
    parsed = parse_poly(text)
    elapsed = time.perf_counter() - start
    want = Poly({
        mono: a - b + 0.25 for a, b in pairs for mono in Poly.monomial({X1: a, X2: b}).terms
    })
    assert parsed == want
    assert elapsed < 5.0, elapsed
    # Repeated terms sum in text order, as one addition of Polys per term would.
    assert parse_poly("0.1*x1 + 0.2*x1 - 0.3*x1").coefficient({X1: 1}) == (0.1 + 0.2) - 0.3
    assert parse_poly("x1 - x1 + 0.5*x1").coefficient({X1: 1}) == 0.5
    assert parse_poly("x1 - x1 + x2").terms.keys() == Poly.var(X2).terms.keys()


def test_compile_evaluator_broadcasts():
    f = Poly.var(X1) * Poly.var(X2) + Poly.const(1.0)
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([[4.0], [5.0]])
    np.testing.assert_allclose(compile_evaluator([f], [X1, X2])([a, b])[0], a * b + 1.0)
    with pytest.raises(ValidationError, match=r"compiled polynomial may use only \{x1_0\}; got x2_0$"):
        compile_evaluator([f], [X1])
