"""Moment closure: reduce high-order expectation values to multiplet
variables and assemble the extended Hamiltonian F from a potential.

Position moments <q^n> are written in terms of x1 = <q> and x3 = <q^2>
either by dropping all cumulants beyond the second (zero-cumulant, the
Gaussian closure) or by dropping central moments of order three and up
(fluctuation-ignoring).  Both coincide through n = 3.
"""

from __future__ import annotations

import enum
from math import comb, isfinite
from typing import Sequence

from .multiplets import MultipletDef, QUARTET_QP_Q2P2, TRIPLET_QQPP_QP
from .poly import Poly, ValidationError, check_finite, check_positive, check_width, q, xvar

__all__ = [
    "ClosureMode",
    "UnsupportedMultipletError",
    "UnsupportedMomentError",
    "UnsupportedPotentialError",
    "reduce_moment",
    "build_F",
    "effective_potential",
]


class UnsupportedMultipletError(ValidationError):
    """The multiplet lacks the moment slots the closure needs."""


class UnsupportedMomentError(ValidationError):
    """A moment outside the closure's scope (momentum or mixed) was requested."""


class UnsupportedPotentialError(ValidationError):
    """The potential's degree is outside the supported family."""


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


def _moments_from_cumulants(kappas: Sequence[Poly], n: int) -> list[Poly]:
    """Moments m_0..m_n from cumulants via the standard recursion
    m_k = sum_j C(k-1, j) kappa_{j+1} m_{k-1-j}; absent cumulants are zero.
    Raises ValidationError at the first m_k with a non-finite coefficient."""
    moments = [Poly.const(1.0)]
    for k in range(1, n + 1):
        mk = Poly.zero()
        for j in range(min(k, len(kappas))):
            mk = mk + comb(k - 1, j) * kappas[j] * moments[k - 1 - j]
        if not all(isfinite(c) for c in mk.terms.values()):
            raise ValidationError(f"moment order {n}: a coefficient of <q^{k}> "
                                  "overflows the float range")
        moments.append(mk)
    return moments


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
    variance = x3 - x1 * x1
    if mode is ClosureMode.ZERO_CUMULANT:
        return _moments_from_cumulants([x1, variance], n)[n]
    if mode is ClosureMode.IGNORE_FLUCTUATION:
        return x1**n + comb(n, 2) * x1 ** (n - 2) * variance
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
        raise UnsupportedMultipletError(
            f"multiplet {m.name!r} has no moment slots the closure understands"
        )
    masses = [1.0] * m.n_dof if masses is None else list(masses)
    if len(masses) != m.n_dof:
        raise ValidationError(f"need {m.n_dof} masses, got {len(masses)}")
    for dof, mass in enumerate(masses):
        check_positive(mass, f"mass of dof {dof}")
    for mono, coeff in V.terms.items():
        check_finite(coeff, f"potential coefficient of {Poly.monomial(dict(mono))}")
    extra = V.variables() - {q(dof) for dof in range(m.n_dof)}
    if extra:
        names = ", ".join(sorted(v.name for v in extra))
        raise UnsupportedMomentError(
            f"potential may only involve position variables; got {names}"
        )

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
                raise UnsupportedMultipletError(
                    "the quadratic triplet hosts only q^2 potential terms"
                )
            else:
                term = term * Poly.var(xvar(1 + slots.index("q2"), dof))
        F = F + term
    return F


def effective_potential(V: Poly, sigma: float, hbar: float = 1.0, mass: float = 1.0) -> Poly:
    """Potential governing the packet center after solving the constraints
    x3 = qc^2 + sigma^2 and x4 = pc^2 + hbar^2/(4 sigma^2), for V(q0) of
    degree <= 3; the pc^2 kinetic part is excluded, the hbar-dependent
    corrections are kept."""
    check_width(sigma, "sigma")
    check_positive(hbar, "hbar")
    degree = max((sum(k for _, k in mono) for mono in V.terms), default=0)
    if degree > 3:
        raise UnsupportedPotentialError(
            f"effective potential supports degree <= 3, got {degree}"
        )
    F = build_F(V, QUARTET_QP_Q2P2, ClosureMode.ZERO_CUMULANT, masses=[mass])
    qc = Poly.var(q(0))
    s2 = sigma * sigma
    substitution = {
        xvar(1, 0): qc,
        xvar(3, 0): qc * qc + Poly.const(s2),
        xvar(4, 0): Poly.const(hbar * hbar / (4.0 * s2)),
    }
    return F.subs(substitution)
