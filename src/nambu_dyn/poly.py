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

from . import native

__all__ = [
    "VarId",
    "Poly",
    "ValidationError",
    "UnboundVariableError",
    "PolyParseError",
    "q",
    "p",
    "xvar",
    "parse_poly",
    "format_poly",
    "compile_evaluator",
    "compile_vector_field",
]


class ValidationError(ValueError):
    """Bad input from a caller: an argument, file or config; ``nambu`` exits 2 on it alone."""


def check_finite(value: float, name: str) -> None:
    """ValidationError if ``value`` is not finite; TypeError if it is not a number."""
    if not math.isfinite(value):
        raise ValidationError(f"{name} = {value!r} is not finite")


def check_positive(value: float, name: str) -> float:
    """``value`` as a float; ValidationError if it is not positive and finite."""
    if not 0 < value < math.inf:
        raise ValidationError(f"{name} = {value!r} is not a positive finite number")
    return float(value)


def check_width(s: float, name: str) -> float:
    """A packet width ``s``, positive with a positive finite square; else ValidationError."""
    check_positive(s, name)
    if not 0 < s * s < math.inf:
        raise ValidationError(f"{name} = {s!r} has a square outside the float range")
    return s


def check_count(n: int, name: str) -> None:
    """ValidationError unless ``n`` is an integer >= 1 (a bool is not an integer)."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"{name} = {n!r} is not an integer >= 1")


class UnboundVariableError(ValidationError):
    """Raised when evaluation hits a variable missing from the assignment."""


class PolyParseError(ValidationError):
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


def _slot_rank(slot: str) -> tuple:
    if slot == "q":
        return (0, 0)
    if slot == "p":
        return (1, 0)
    if slot.startswith("x"):
        return (2, int(slot[1:]))
    raise ValidationError(f"unknown variable slot {slot!r}")


def q(dof: int = 0) -> VarId:
    return VarId(dof, "q")


def p(dof: int = 0) -> VarId:
    return VarId(dof, "p")


def xvar(i: int, dof: int = 0) -> VarId:
    """Extended-phase-space variable x_i for one degree of freedom (i >= 1)."""
    check_count(i, "x-variable index")
    return VarId(dof, f"x{i}")


# A monomial: ((VarId, exponent), ...) sorted by VarId.sort_key, exponents >= 1.
Monomial = tuple

_EMPTY: Monomial = ()


def _canonical_monomial(powers: Mapping[VarId, int]) -> Monomial:
    items = [(v, int(k)) for v, k in powers.items() if k != 0]
    for v, k in items:
        if k < 0:
            raise ValidationError("negative exponents are not supported")
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


def _mono_sort_key(mono: Monomial) -> tuple:
    return (sum(k for _, k in mono), tuple((v.sort_key, k) for v, k in mono))


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

    def coefficient(self, powers: Mapping[VarId, int]) -> float:
        return self._terms.get(_canonical_monomial(powers), 0.0)

    # ----- ring operations ----------------------------------------------
    def __add__(self, other: Union["Poly", float, int]) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            out[mono] = out.get(mono, 0.0) + coeff
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
                out[mono] = out.get(mono, 0.0) + ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0 or int(n) != n:
            raise ValidationError("only non-negative integer powers are supported")
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
                out[rest] = out.get(rest, 0.0) + coeff * k
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
# A term is a run of signs and whitespace, then factors joined by '*'.  A
# factor is a number, or a name with an optional ^/** power, followed by the
# operator after it: '*' (another factor), a sign (the next term) or the end.
_SIGNS_RE = re.compile(r"[\s+-]*")
_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_FACTOR_RE = re.compile(
    rf"\s*(?:(?P<num>{_NUMBER})|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    rf"(?:\s*(?:\^|\*\*)\s*(?P<exp>{_NUMBER}))?)\s*(?P<op>\*(?!\*)|[+-]|\Z)"
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


def parse_poly(text: str) -> Poly:
    """Parse the whitespace-insensitive textual polynomial form."""
    terms: dict[Monomial, float] = {}
    pos = 0
    while True:
        signs = _SIGNS_RE.match(text, pos)
        pos = signs.end()
        if pos == len(text):
            if signs.group().strip():
                raise PolyParseError("dangling sign at end of polynomial")
            return Poly(terms)
        coeff = -1.0 if signs.group().count("-") % 2 else 1.0
        powers: dict[VarId, int] = {}
        op = "*"
        while op == "*":
            m = _FACTOR_RE.match(text, pos)
            if m is None:
                raise PolyParseError(f"cannot parse polynomial text near {text[pos:pos + 20]!r}")
            if m["num"]:
                coeff *= float(m["num"])
            else:
                exp = float(m["exp"]) if m["exp"] else 1.0
                if not exp.is_integer():
                    raise PolyParseError(f"exponent {m['exp']} is not a non-negative integer")
                var = parse_varname(m["name"])
                powers[var] = powers.get(var, 0) + int(exp)
            op = m["op"]
            pos = m.end()
        mono = _canonical_monomial(powers)
        terms[mono] = terms.get(mono, 0.0) + coeff
        if not op:
            return Poly(terms)
        pos = m.start("op")  # the sign opens the next term


def _fmt_coeff(c: float) -> str:
    if c.is_integer() and abs(c) < 1e15:
        return str(int(c))
    return repr(c)


def format_poly(poly: Poly) -> str:
    """Deterministic textual form; bare names (q, x3) when only dof 0 occurs."""
    if poly.is_zero:
        return "0"
    suffixed = any(v.dof != 0 for v in poly.variables())
    out = ""
    for mono, coeff in sorted_terms(poly):
        factors = []
        for v, k in mono:
            name = v.name if suffixed else v.slot
            factors.append(name if k == 1 else f"{name}^{k}")
        if abs(coeff) != 1.0 or not factors:
            factors.insert(0, _fmt_coeff(abs(coeff)))
        out += (" - " if coeff < 0 else " + ") + "*".join(factors)
    if out.startswith(" - "):
        return "-" + out[3:]
    return out[3:]


# --------------------------------------------------------------------------
# Compilation to fast callables (used by the time steppers)
# --------------------------------------------------------------------------


# Python's compiler recurses once per factor of a product and once per term
# of a sum, and overflows near 2,980 levels; a term of a sum at these bounds
# is at most 2,000 levels deep.  Compile time grows with the factors (about
# 5.5 ms per 1,000 on a 2-core Xeon VM), and so does a native kernel's build:
# MAX_POLY_FACTORS bounds a polynomial, above the 36,676 of a sum at both
# other bounds.
MAX_TERM_FACTORS = 1000
MAX_SUM_TERMS = 1000
MAX_POLY_FACTORS = 50_000


def _term_source(mono: Monomial, coeff: float, refs: Mapping[VarId, str]) -> str:
    if not math.isfinite(coeff):  # the term is named only when it is rejected
        check_finite(coeff, f"coefficient of term {format_poly(Poly({mono: 1.0}))}")
    if sum(k for _, k in mono) > MAX_TERM_FACTORS:
        term = format_poly(Poly({mono: 1.0}))
        raise ValidationError(f"term {term} has more than {MAX_TERM_FACTORS} factors to compile")
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
    if len(poly.terms) > MAX_SUM_TERMS:
        raise ValidationError(
            f"polynomial of {len(poly.terms)} terms has more than {MAX_SUM_TERMS} terms to compile"
        )
    pieces = [_term_source(m, c, refs) for m, c in sorted_terms(poly)]
    factors = sum(k for mono in poly.terms for _, k in mono)
    if factors > MAX_POLY_FACTORS:
        raise ValidationError(
            f"polynomial of {factors} factors has more than {MAX_POLY_FACTORS} factors to compile"
        )
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


def _rk4_steps(polys: Sequence[Poly], var_order: Sequence[VarId]) -> list[str]:
    """One classical RK4 step as assignments ``name = expr``.

    Each stage is the field evaluated on local scalars, and every update is
    the numpy expression ``y + half * k1`` ... ``y + sixth * (k1 + 2.0 * k2
    + 2.0 * k3 + k4)`` written out per component, so the operations and
    their order, hence the rounded results, match four field calls.  Stage
    inputs that no component of the field reads are left out.  The last line
    sets ``bad``, a sum of y - y: 0.0 exactly when the new state is finite.
    Each line is a Python statement and, with a trailing ``;``, a C statement.
    """
    read = set().union(*(poly.variables() for poly in polys))
    used = [i for i, v in enumerate(var_order) if v in read]
    lines = []

    def stage(s: int, prefix: str) -> None:
        refs = {v: f"{prefix}{i}" for i, v in enumerate(var_order)}
        lines.extend(f"k{s}_{i} = {_expr_source(poly, refs)}" for i, poly in enumerate(polys))

    stage(1, "y")
    for s, scale in ((2, "half"), (3, "half"), (4, "dt")):
        lines.extend(f"a{i} = y{i} + {scale} * k{s - 1}_{i}" for i in used)
        stage(s, "a")
    lines.extend(
        f"y{i} = y{i} + sixth * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})"
        for i in range(len(polys))
    )
    lines.append("bad = " + " + ".join(f"(y{i} - y{i})" for i in range(len(polys))))
    return lines


def _rk4_python(steps: Sequence[str], dim: int) -> str:
    """Source of ``_rk4_fn(y, dt, n, below)``: the exit rule of ``_rk4_c`` on
    the sequence ``y``, returning ``(state tuple, steps taken)``.  ``n`` is
    checked by ``_check_step_count`` (``native.check_step_count``)."""
    ys = ", ".join(f"y{i}" for i in range(dim))
    return "\n".join([
        "def _rk4_fn(y, dt, n, below):",
        "    _check_step_count(n)",
        f"    {ys}, = y",
        "    half = 0.5 * dt",
        "    sixth = dt / 6.0",
        "    for step in range(1, n + 1):",
        *(f"        {line}" for line in steps),
        "        if bad != 0.0 or y0 < below:",
        f"            return ({ys},), step if bad == 0.0 else -step",
        f"    return ({ys},), n",
    ]) + "\n"


def _rk4_c(steps: Sequence[str], dim: int) -> str:
    """Source of ``long rk4(double *y, double dt, long n, double below)``: up
    to ``n`` steps on the ``dim`` doubles at ``y``, in place, ending after the
    first step that leaves the state non-finite (``bad != 0.0``) or ``y0 <
    below``; returns the steps taken, negated on a non-finite exit."""
    ys = ", ".join(f"y{i} = y[{i}]" for i in range(dim))
    temps = ", ".join(dict.fromkeys(
        line.split(" = ", 1)[0] for line in steps if not line.startswith("y")
    ))
    return "\n".join([
        "long rk4(double *y, double dt, long n, double below)",
        "{",
        f"    double {ys};",
        f"    double {temps};",
        "    const double half = 0.5 * dt;",
        "    const double sixth = dt / 6.0;",
        "    long step = 0;",
        "    while (step < n) {",
        "        step++;",
        *(f"        {line};" for line in steps),
        "        if (bad != 0.0) { step = -step; break; }",
        "        if (y0 < below) break;",
        "    }",
        *(f"    y[{i}] = y{i};" for i in range(dim)),
        "    return step;",
        "}",
    ]) + "\n"


def compile_vector_field(polys: Iterable[Poly], var_order: Sequence[VarId]) -> Callable:
    """Compile a list of Polys into ``f(y) -> ndarray`` evaluated jointly.

    With one Poly per variable, ``f.rk4(y, dt, n, below)`` runs ``_rk4_c``'s
    exit rule (``0 <= n <= native.LONG_MAX``, else ValueError) and returns
    ``(state tuple, steps taken)``, each step bit-identical to the numpy
    loop over four calls of ``f``; otherwise ``f.rk4`` is None.  The kernel is
    native code from ``native.load_rk4`` when a C compiler and a trusted
    cache are available, and generated Python otherwise; both run the same
    statements with the same rounding.
    """
    polys = tuple(polys)
    refs = {v: f"y[{i}]" for i, v in enumerate(var_order)}
    body = ", ".join(_expr_source(poly, refs) for poly in polys)
    src = f"def _field_fn(y):\n    return np.array(({body},), dtype=np.float64)\n"
    fn = _exec_function(src, "_field_fn", {"np": np})
    fn.rk4 = None
    if len(polys) == len(var_order):
        steps = _rk4_steps(polys, var_order)
        fn.rk4 = native.load_rk4(_rk4_c(steps, len(polys)), len(polys))
        if fn.rk4 is None:
            fn.rk4 = _exec_function(
                _rk4_python(steps, len(polys)), "_rk4_fn",
                {"_check_step_count": native.check_step_count},
            )
    return fn
