"""Moment closure: reduce high-order expectation values to multiplet
variables and assemble the extended Hamiltonian F from a potential.

Position moments <q^n> are written in terms of x1 = <q> and x3 = <q^2>
either by dropping all cumulants beyond the second (zero-cumulant, the
Gaussian closure) or by dropping central moments of order three and up
(fluctuation-ignoring).  Both coincide through n = 3.
"""

from __future__ import annotations

import enum
from math import comb
from typing import Sequence

from .multiplets import MultipletDef, QUARTET_QP_Q2P2, TRIPLET_QQPP_QP
from .poly import Poly, ValidationError, check_finite, check_positive, check_variables
from .poly import q, xvar

__all__ = [
    "ClosureMode",
    "reduce_moment",
    "build_F",
]


class ClosureMode(enum.Enum):
    ZERO_CUMULANT = "zero_cumulant"
    IGNORE_FLUCTUATION = "ignore_fluctuation"

    @classmethod
    def from_string(cls, text: str) -> "ClosureMode":
        key = text.strip().lower().replace("-", "_")
        for mode in cls:
            if mode.value == key:
                return mode
        raise ValidationError(f"unknown closure mode {text!r}")


# --------------------------------------------------------------------------
# Moment reduction
# --------------------------------------------------------------------------


# The least integer that rounds to inf as a float: DBL_MAX plus half its last place.
_FLOAT_OVERFLOW = 2**1024 - 2**970


def _zero_cumulant_moment(n: int, dof: int) -> Poly:
    """<q^n> = sum_b c_b x1^(n-2b) x3^b of a Gaussian, from the recursion
    m_k = x1 m_{k-1} + (k-1)(x3 - x1^2) m_{k-2} on the exact integers c_b,
    each rounded to a float once.  Raises ValidationError at the first m_k
    with a coefficient beyond the float range."""
    prev, cur = [1], [1]  # c_b of m_0 = 1 and m_1 = x1
    for k in range(2, n + 1):
        new = cur + [0] * (k // 2 + 1 - len(cur))
        for b, c in enumerate(prev):
            new[b] -= (k - 1) * c
            new[b + 1] += (k - 1) * c
        if abs(max(new, key=abs)) >= _FLOAT_OVERFLOW:
            raise ValidationError(f"moment order {n}: a coefficient of <q^{k}> "
                                  "overflows the float range")
        prev, cur = cur, new
    x1, x3 = xvar(1, dof), xvar(3, dof)
    terms = (Poly.monomial({x1: n - 2 * b, x3: b}, c) for b, c in enumerate(cur))
    return sum(terms, Poly.zero())


def reduce_moment(n: int, mode: ClosureMode, dof: int = 0) -> Poly:
    """<q^n> as a polynomial in x1 = <q> and x3 = <q^2> for one dof."""
    if int(n) != n or n < 0:
        raise ValidationError("moment order must be a non-negative integer")
    n = int(n)
    x1 = Poly.var(xvar(1, dof))
    x3 = Poly.var(xvar(3, dof))
    if n == 0:
        return Poly.const(1.0)
    if n == 1:
        return x1
    if n == 2:
        return x3
    if mode is ClosureMode.ZERO_CUMULANT:
        return _zero_cumulant_moment(n, dof)
    if mode is ClosureMode.IGNORE_FLUCTUATION:
        return x1**n + comb(n, 2) * x1 ** (n - 2) * (x3 - x1 * x1)
    raise ValidationError(f"unknown closure mode {mode!r}")


# --------------------------------------------------------------------------
# Hamiltonian assembly
# --------------------------------------------------------------------------


def build_F(
    V: Poly,
    m: MultipletDef,
    mode: ClosureMode,
    masses: Sequence[float] | None = None,
) -> Poly:
    """Kinetic term plus the closed potential V(q0, q1, ...), as a Poly over
    x variables; ``masses`` default to 1.

    Cross-dof monomials factorize across dofs before the per-dof closure is
    applied (product trial states).  The slots must be the quartet's or the triplet's moments.
    """
    slots = m.moments
    if slots not in (QUARTET_QP_Q2P2.moments, TRIPLET_QQPP_QP.moments):
        raise ValidationError(
            f"multiplet {m.name!r} has no moment slots the closure understands"
        )
    masses = [1.0] * m.n_dof if masses is None else list(masses)
    if len(masses) != m.n_dof:
        raise ValidationError(f"need {m.n_dof} masses, got {len(masses)}")
    for dof, mass in enumerate(masses):
        check_positive(mass, f"mass of dof {dof}")
    for mono, coeff in V.terms.items():
        check_finite(coeff, f"potential coefficient of {Poly.monomial(dict(mono))}")
    check_variables([V], {q(dof) for dof in range(m.n_dof)}, "potential")

    F = Poly.zero()
    for dof in range(m.n_dof):
        F = F + (1.0 / (2.0 * masses[dof])) * Poly.var(xvar(1 + slots.index("p2"), dof))

    for mono, coeff in V.terms.items():
        powers = dict(mono)
        term = Poly.const(coeff)
        for dof in range(m.n_dof):
            k = powers.get(q(dof), 0)
            if k == 0:
                continue
            if "q" in slots:
                term = term * reduce_moment(k, mode, dof)
            elif k != 2:
                raise ValidationError(
                    "the quadratic triplet hosts only q^2 potential terms"
                )
            else:
                term = term * Poly.var(xvar(1 + slots.index("q2"), dof))
        F = F + term
    return F

