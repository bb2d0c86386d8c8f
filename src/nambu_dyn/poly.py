"""Exact sparse multivariate polynomial algebra over phase-space variables.

A polynomial is a dictionary mapping canonical monomials to float
coefficients.  Variables are identified by a degree-of-freedom index and a
slot name: the canonical pair slots ``q``/``p`` or the extended-phase-space
slots ``x1``, ``x2``, ...  A monomial is a tuple of (variable, exponent)
pairs sorted in canonical order, so two polynomials are equal iff their
term maps are equal.

  q*p          ->  {((q0, 1), (p0, 1)): 1.0}
  2*x3^2       ->  {((x3_0, 2),): 2.0}
  0 (zero)     ->  {}

Zero coefficients are never stored.  All operations return new Poly
objects; instances are immutable and safe to share between threads.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "VarId",
    "Poly",
    "UnboundVariableError",
    "PolyParseError",
    "q",
    "p",
    "xvar",
    "parse_poly",
    "format_poly",
    "eval_arrays",
    "compile_evaluator",
    "compile_vector_field",
]


class UnboundVariableError(ValueError):
    """Raised when evaluation hits a variable missing from the assignment."""


class PolyParseError(ValueError):
    """Raised on malformed polynomial text."""


class VarId(NamedTuple):
    """A phase-space variable: (dof index, slot name)."""

    dof: int
    slot: str

    @property
    def name(self) -> str:
        if self.slot in ("q", "p"):
            return f"{self.slot}{self.dof}"
        return f"{self.slot}_{self.dof}"

    @property
    def sort_key(self) -> tuple:
        return (self.dof,) + _slot_rank(self.slot)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VarId({self.name})"


def _slot_rank(slot: str) -> tuple:
    if slot == "q":
        return (0, 0)
    if slot == "p":
        return (1, 0)
    if slot.startswith("x"):
        return (2, int(slot[1:]))
    raise ValueError(f"unknown variable slot {slot!r}")


def q(dof: int = 0) -> VarId:
    return VarId(dof, "q")


def p(dof: int = 0) -> VarId:
    return VarId(dof, "p")


def xvar(i: int, dof: int = 0) -> VarId:
    """Extended-phase-space variable x_i for one degree of freedom (i >= 1)."""
    if i < 1:
        raise ValueError("x-variable index starts at 1")
    return VarId(dof, f"x{i}")


# A monomial: ((VarId, exponent), ...) sorted by VarId.sort_key, exponents >= 1.
Monomial = tuple

_EMPTY: Monomial = ()


def _canonical_monomial(powers: Mapping[VarId, int]) -> Monomial:
    items = [(v, int(k)) for v, k in powers.items() if k != 0]
    for v, k in items:
        if k < 0:
            raise ValueError("negative exponents are not supported")
    items.sort(key=lambda vk: vk[0].sort_key)
    return tuple(items)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    powers: dict[VarId, int] = dict(a)
    for v, k in b:
        powers[v] = powers.get(v, 0) + k
    return tuple(sorted(powers.items(), key=lambda vk: vk[0].sort_key))


def _mono_degree(mono: Monomial) -> int:
    return sum(k for _, k in mono)


def _mono_sort_key(mono: Monomial) -> tuple:
    return (_mono_degree(mono), tuple((v.sort_key, k) for v, k in mono))


class Poly:
    """Immutable sparse polynomial with real coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, float] | None = None):
        cleaned: dict[Monomial, float] = {}
        if terms:
            for mono, coeff in terms.items():
                c = float(coeff)
                if c != 0.0:
                    cleaned[mono] = c
        self._terms = cleaned
        self._hash = None

    # ----- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def const(cls, c: float) -> "Poly":
        return cls({_EMPTY: float(c)})

    @classmethod
    def var(cls, v: VarId) -> "Poly":
        return cls({((v, 1),): 1.0})

    @classmethod
    def monomial(cls, powers: Mapping[VarId, int], coeff: float = 1.0) -> "Poly":
        return cls({_canonical_monomial(powers): float(coeff)})

    # ----- inspection ---------------------------------------------------
    @property
    def terms(self) -> Mapping[Monomial, float]:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> set[VarId]:
        return {v for mono in self._terms for v, _ in mono}

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(_mono_degree(m) for m in self._terms)

    def degree_in(self, v: VarId) -> int:
        best = 0
        for mono in self._terms:
            for var, k in mono:
                if var == v and k > best:
                    best = k
        return best

    def coefficient(self, powers: Mapping[VarId, int]) -> float:
        return self._terms.get(_canonical_monomial(powers), 0.0)

    def constant_term(self) -> float:
        return self._terms.get(_EMPTY, 0.0)

    # ----- ring operations ----------------------------------------------
    def __add__(self, other: Union["Poly", float, int]) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            s = out.get(mono, 0.0) + coeff
            if s == 0.0:
                out.pop(mono, None)
            else:
                out[mono] = s
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other: Union["Poly", float, int]) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Union[float, int]) -> "Poly":
        return _as_poly(other) + (-self)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self._terms.items()})

    def __mul__(self, other: Union["Poly", float, int]) -> "Poly":
        if isinstance(other, (int, float)):
            c = float(other)
            if c == 0.0:
                return Poly()
            return Poly({m: c * v for m, v in self._terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        out: dict[Monomial, float] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                mono = _mono_mul(ma, mb)
                s = out.get(mono, 0.0) + ca * cb
                if s == 0.0:
                    out.pop(mono, None)
                else:
                    out[mono] = s
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0 or int(n) != n:
            raise ValueError("only non-negative integer powers are supported")
        result = Poly.const(1.0)
        base = self
        n = int(n)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # ----- calculus and evaluation ---------------------------------------
    def partial(self, v: VarId) -> "Poly":
        """Exact partial derivative with respect to one variable."""
        out: dict[Monomial, float] = {}
        for mono, coeff in self._terms.items():
            for idx, (var, k) in enumerate(mono):
                if var != v:
                    continue
                rest = mono[:idx] + ((var, k - 1),) + mono[idx + 1 :]
                rest = tuple(vk for vk in rest if vk[1] != 0)
                s = out.get(rest, 0.0) + coeff * k
                if s == 0.0:
                    out.pop(rest, None)
                else:
                    out[rest] = s
                break
        return Poly(out)

    def eval(self, assignment: Mapping[VarId, float]) -> float:
        """Evaluate at a point; every variable of the poly must be bound."""
        total = 0.0
        for mono, coeff in self._terms.items():
            term = coeff
            for v, k in mono:
                try:
                    val = assignment[v]
                except KeyError:
                    raise UnboundVariableError(
                        f"variable {v.name} is not bound in the assignment"
                    ) from None
                term *= val**k
            total += term
        return total

    def subs(self, mapping: Mapping[VarId, Union["Poly", float, int]]) -> "Poly":
        """Substitute variables by polynomials (or constants)."""
        repl = {v: _as_poly(r) for v, r in mapping.items()}
        out = Poly()
        for mono, coeff in self._terms.items():
            term = Poly.const(coeff)
            for v, k in mono:
                factor = repl.get(v, Poly.var(v))
                term = term * factor**k
            out = out + term
        return out

    # ----- equality and display -------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, float)):
            other = Poly.const(float(other))
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, float)):
        return Poly.const(float(value))
    return NotImplemented


def sorted_terms(poly: Poly) -> list[tuple[Monomial, float]]:
    """Terms in canonical order (degree, then variable order)."""
    return sorted(poly.terms.items(), key=lambda kv: _mono_sort_key(kv[0]))


# --------------------------------------------------------------------------
# Textual form: sums of coeff*var^k terms, e.g. "0.5*x4 + 0.3*x3*x1 - 0.2*x1^3"
# --------------------------------------------------------------------------

_NAME_RE = re.compile(r"^(?:([qp])(\d*)|x(\d+)(?:_(\d+))?)$")
_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>\*\*|\^|\*|\+|-)"
    r")"
)


def parse_varname(name: str) -> VarId:
    m = _NAME_RE.match(name)
    if not m:
        raise PolyParseError(f"unknown variable name {name!r}")
    if m.group(1):
        dof = int(m.group(2)) if m.group(2) else 0
        return VarId(dof, m.group(1))
    i = int(m.group(3))
    if i < 1:
        raise PolyParseError(f"x-variable index must be >= 1 in {name!r}")
    dof = int(m.group(4)) if m.group(4) else 0
    return VarId(dof, f"x{i}")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise PolyParseError(f"cannot parse polynomial text near {remainder[:20]!r}")
        pos = m.end()
        for kind in ("num", "name", "op"):
            if m.group(kind) is not None:
                tokens.append((kind, m.group(kind)))
                break
    return tokens


def parse_poly(text: str) -> Poly:
    """Parse the whitespace-insensitive textual polynomial form."""
    tokens = _tokenize(text)
    if not tokens:
        return Poly.zero()
    result = Poly.zero()
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1.0
        while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise PolyParseError("dangling sign at end of polynomial")
        coeff = sign
        powers: dict[VarId, int] = {}
        expect_factor = True
        while i < n:
            kind, val = tokens[i]
            if kind == "op" and val in "+-" and not expect_factor:
                break
            if expect_factor:
                if kind == "num":
                    coeff *= float(val)
                    i += 1
                elif kind == "name":
                    var = parse_varname(val)
                    exp = 1
                    i += 1
                    if i < n and tokens[i][0] == "op" and tokens[i][1] in ("^", "**"):
                        i += 1
                        if i >= n or tokens[i][0] != "num":
                            raise PolyParseError("exponent must be an integer")
                        exp_val = float(tokens[i][1])
                        if exp_val != int(exp_val) or exp_val < 0:
                            raise PolyParseError("exponent must be a non-negative integer")
                        exp = int(exp_val)
                        i += 1
                    powers[var] = powers.get(var, 0) + exp
                else:
                    raise PolyParseError(f"unexpected token {val!r}")
                expect_factor = False
            else:
                if kind == "op" and val == "*":
                    expect_factor = True
                    i += 1
                else:
                    raise PolyParseError(f"expected '*' or '+'/'-' before {val!r}")
        if expect_factor:
            raise PolyParseError("dangling '*' in polynomial")
        result = result + Poly.monomial(powers, coeff)
    return result


def _fmt_coeff(c: float) -> str:
    if c == int(c) and abs(c) < 1e15:
        return str(int(c))
    return repr(c)


def format_poly(poly: Poly) -> str:
    """Deterministic textual form; bare names (q, x3) when only dof 0 occurs."""
    if poly.is_zero:
        return "0"
    suffixed = any(v.dof != 0 for v in poly.variables())
    pieces = []
    for mono, coeff in sorted_terms(poly):
        factors = []
        for v, k in mono:
            name = v.name if suffixed else v.slot
            factors.append(name if k == 1 else f"{name}^{k}")
        mag = abs(coeff)
        if not factors:
            body = _fmt_coeff(mag)
        elif mag == 1.0:
            body = "*".join(factors)
        else:
            body = "*".join([_fmt_coeff(mag)] + factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def eval_arrays(poly: Poly, assignment: Mapping[VarId, np.ndarray]) -> np.ndarray:
    """Evaluate a Poly termwise over numpy arrays (broadcast together)."""
    arrays = {}
    for v in poly.variables():
        try:
            arrays[v] = assignment[v]
        except KeyError:
            raise UnboundVariableError(
                f"variable {v.name} is not bound in the assignment"
            ) from None
    shape = np.broadcast_shapes(*(np.shape(a) for a in arrays.values())) if arrays else ()
    total = np.zeros(shape)
    for mono, coeff in poly.terms.items():
        term = np.full(shape, coeff) if shape else coeff
        for v, k in mono:
            term = term * arrays[v] ** k
        total = total + term
    return total


# --------------------------------------------------------------------------
# Compilation to fast callables (used by the time steppers)
# --------------------------------------------------------------------------


def _term_source(mono: Monomial, coeff: float, refs: Mapping[VarId, str]) -> str:
    if not math.isfinite(coeff):
        term = format_poly(Poly({mono: 1.0}))
        raise ValueError(f"coefficient {coeff!r} of term {term} is not finite")
    # Powers as repeated products: a float ** k overflow raises in Python,
    # where a product becomes inf as numpy arithmetic does.
    factors = [repr(float(coeff))]
    for v, k in mono:
        factors.extend([refs[v]] * k)
    return "*".join(factors)


def _expr_source(poly: Poly, refs: Mapping[VarId, str]) -> str:
    missing = [v for v in poly.variables() if v not in refs]
    if missing:
        names = ", ".join(v.name for v in missing)
        raise UnboundVariableError(f"variables not in evaluation order: {names}")
    pieces = [_term_source(m, c, refs) for m, c in sorted_terms(poly)]
    return " + ".join(pieces) if pieces else "0.0"


def _exec_function(src: str, name: str, namespace: dict) -> Callable:
    exec(src, namespace)
    fn = namespace[name]
    fn.source = src
    return fn


def compile_evaluator(poly: Poly, var_order: Sequence[VarId]) -> Callable:
    """Compile a Poly into ``f(y) -> float`` over a flat value vector."""
    refs = {v: f"y[{i}]" for i, v in enumerate(var_order)}
    src = f"def _poly_fn(y):\n    return {_expr_source(poly, refs)}\n"
    return _exec_function(src, "_poly_fn", {})


def _rk4_source(polys: Sequence[Poly], var_order: Sequence[VarId]) -> str:
    """Source of ``rk4(y, dt, n)``: ``n`` classical RK4 steps from ``y``.

    Each stage is the field evaluated on local floats, and every update is
    the numpy expression ``y + half * k1`` ... ``y + sixth * (k1 + 2.0 * k2
    + 2.0 * k3 + k4)`` written out per component, so the operations and
    their order, hence the rounded results, match four field calls.
    """
    dim = len(polys)
    ys = ", ".join(f"y{i}" for i in range(dim))
    lines = [
        "def _rk4_fn(y, dt, n):",
        f"    {ys}, = y",
        "    half = 0.5 * dt",
        "    sixth = dt / 6.0",
        "    for _ in range(n):",
    ]

    def stage(s: int, prefix: str) -> None:
        refs = {v: f"{prefix}{i}" for i, v in enumerate(var_order)}
        lines.extend(
            f"        k{s}_{i} = {_expr_source(poly, refs)}" for i, poly in enumerate(polys)
        )

    stage(1, "y")
    for s, scale in ((2, "half"), (3, "half"), (4, "dt")):
        lines.extend(f"        a{i} = y{i} + {scale} * k{s - 1}_{i}" for i in range(dim))
        stage(s, "a")
    lines.extend(
        f"        y{i} = y{i} + sixth * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})"
        for i in range(dim)
    )
    lines.append(f"    return ({ys},)")
    return "\n".join(lines) + "\n"


def compile_vector_field(polys: Iterable[Poly], var_order: Sequence[VarId]) -> Callable:
    """Compile a list of Polys into ``f(y) -> ndarray`` evaluated jointly.

    With one Poly per variable, ``f.rk4(y, dt, n)`` advances ``n`` RK4 steps
    on Python floats and returns the state as a tuple, bit-identical to the
    numpy loop over four calls of ``f`` per step; otherwise ``f.rk4`` is None.
    """
    polys = tuple(polys)
    refs = {v: f"y[{i}]" for i, v in enumerate(var_order)}
    body = ", ".join(_expr_source(poly, refs) for poly in polys)
    src = f"def _field_fn(y):\n    return np.array(({body},), dtype=np.float64)\n"
    fn = _exec_function(src, "_field_fn", {"np": np})
    fn.rk4 = None
    if len(polys) == len(var_order):
        fn.rk4 = _exec_function(_rk4_source(polys, var_order), "_rk4_fn", {})
    return fn
