"""Multiplet definitions and induced-constraint verification.

A multiplet maps each degree of freedom's canonical pair (q, p) to N
extended variables x_i(q, p) together with the N-2 constraint functions
G_c(x_1..x_N) that make Hamiltonian flow expressible as Nambu flow.  The
consistency checker certifies stored constraints numerically; it does not
integrate the defining conditions to discover new ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .brackets import (
    DEFAULT_SAMPLE_SEED, _at_samples, _det_poly, poisson_bracket_poly, sample_assignments,
)
from .poly import Poly, ValidationError, VarId, check_variables, parse_poly, p, q, xvar
from .state import Layout

__all__ = [
    "MOMENTS",
    "MultipletDef",
    "ConsistencyReport",
    "TRIPLET_QQPP_QP",
    "QUARTET_QP_Q2P2",
    "builtin_multiplets",
    "multiplet_from_strings",
    "verify_consistency",
    "consistency_to_csv",
]

DEFAULT_CONSISTENCY_TOL = 1e-9
DEFAULT_CONSISTENCY_SAMPLES = 50
# A slot defined by the monic q^a p^b holds that operator's expectation value:
# MOMENTS[(a, b)] names it as a quantum grid row kind (qp_sym: symmetrized qp).
MOMENTS = {(1, 0): "q", (0, 1): "p", (2, 0): "q2", (0, 2): "p2", (1, 1): "qp_sym"}


@dataclass(frozen=True)
class MultipletDef:
    """Per-dof variable definitions x_i(q, p) and constraints G_c(x)."""

    name: str
    N: int
    n_dof: int
    defs: tuple[tuple[Poly, ...], ...]
    constraints: tuple[tuple[Poly, ...], ...]

    def __post_init__(self) -> None:
        if self.N < 3:
            raise ValidationError("a Nambu multiplet needs N >= 3")
        if self.n_dof < 1:
            raise ValidationError("n_dof must be >= 1")
        if len(self.defs) != self.n_dof or len(self.constraints) != self.n_dof:
            raise ValidationError("defs/constraints must list every dof")
        for dof in range(self.n_dof):
            if len(self.defs[dof]) != self.N:
                raise ValidationError(
                    f"dof {dof}: expected {self.N} variable definitions"
                )
            if len(self.constraints[dof]) != self.N - 2:
                raise ValidationError(
                    f"dof {dof}: expected {self.N - 2} constraints"
                )
            qp, xs = {q(dof), p(dof)}, {xvar(i, dof) for i in range(1, self.N + 1)}
            check_variables(self.defs[dof], qp, f"dof {dof} definitions")
            check_variables(self.constraints[dof], xs, f"dof {dof} constraints")
            nonzero = sum(
                1
                for i, j in combinations(range(self.N), 2)
                if not poisson_bracket_poly(self.defs[dof][i], self.defs[dof][j], dof + 1).is_zero
            )
            if nonzero < self.N - 1:
                raise ValidationError(
                    f"dof {dof}: fewer than N-1 nonvanishing pairwise brackets"
                )

    @property
    def layout(self) -> Layout:
        return Layout(self.N, self.n_dof)

    @property
    def moments(self) -> tuple[str | None, ...]:
        """The ``MOMENTS`` name of each slot; None where the slot's definitions
        are not one of those monomials or differ between dofs."""
        per_dof = [[_exponents(d, dof) for d in defs] for dof, defs in enumerate(self.defs)]
        return tuple(MOMENTS.get(ab[0]) if len(set(ab)) == 1 else None for ab in zip(*per_dof))

    def with_n_dof(self, n_dof: int) -> "MultipletDef":
        """Per-dof copies of a single-dof template."""
        if self.n_dof != 1:
            raise ValidationError("with_n_dof expects a single-dof template")
        if n_dof == 1:
            return self
        defs = []
        constraints = []
        for dof in range(n_dof):
            qp_map = {q(0): Poly.var(q(dof)), p(0): Poly.var(p(dof))}
            x_map = {
                xvar(i, 0): Poly.var(xvar(i, dof)) for i in range(1, self.N + 1)
            }
            defs.append(tuple(d.subs(qp_map) for d in self.defs[0]))
            constraints.append(tuple(g.subs(x_map) for g in self.constraints[0]))
        return MultipletDef(self.name, self.N, n_dof, tuple(defs), tuple(constraints))

    def summed_constraints(self) -> tuple[Poly, ...]:
        """G_c summed over dofs, the Nambu Hamiltonians for many dofs."""
        return tuple(sum(per_dof, Poly.zero()) for per_dof in zip(*self.constraints))


def builtin_multiplets() -> dict[str, MultipletDef]:
    """Catalog of built-in single-dof multiplet templates."""
    return {"triplet": TRIPLET_QQPP_QP, "quartet": QUARTET_QP_Q2P2}


def multiplet_from_strings(
    name: str,
    defs: Sequence[str],
    constraints: Sequence[str],
    n_dof: int = 1,
) -> MultipletDef:
    """Build a single-dof multiplet from textual Polys, then replicate it."""
    template = MultipletDef(
        name,
        len(defs),
        1,
        (tuple(parse_poly(s) for s in defs),),
        (tuple(parse_poly(s) for s in constraints),),
    )
    return template.with_n_dof(n_dof)


TRIPLET_QQPP_QP = multiplet_from_strings("triplet", ["q^2", "p^2", "q*p"], ["2*x3^2 - 2*x1*x2"])
QUARTET_QP_Q2P2 = multiplet_from_strings("quartet", ["q", "p", "q^2", "p^2"], ["x3 - x1^2", "x4 - x2^2"])


# --------------------------------------------------------------------------
# Consistency conditions
# --------------------------------------------------------------------------


@dataclass
class ConsistencyReport:
    """Worst residual of one consistency condition over the sample set."""

    dof: int
    i: int
    j: int
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def consistency_to_csv(reports: Sequence[ConsistencyReport]) -> str:
    rows = [f"{r.dof},{r.i},{r.j},{r.max_residual!r},{int(r.passed)}\n" for r in reports]
    return "dof,i,j,max_residual,pass\n" + "".join(rows)


def _constraint_contraction(
    constraints: Sequence[Poly], vs: Sequence[VarId], i: int, j: int
) -> Poly:
    """(1/(N-2)!) eps_{i j k...} times the constraint Jacobian, as a Poly: each
    ordering of the other columns adds the same term, so it is their determinant
    in ascending order times eps_{i j rest} = (-1)^(i+j+1) (0-based i < j)."""
    rest = [k for k in range(len(vs)) if k != i and k != j]
    det = _det_poly([[g.partial(vs[k]) for k in rest] for g in constraints])
    return det if (i + j) % 2 else -det


def verify_consistency(
    m: MultipletDef,
    samples: int = DEFAULT_CONSISTENCY_SAMPLES,
    tolerance: float = DEFAULT_CONSISTENCY_TOL,
    seed: int = DEFAULT_SAMPLE_SEED,
) -> list[ConsistencyReport]:
    """Per dof and variable pair, the worst residual at random (q, p) points
    of the constraint contraction, each x_i replaced by its definition, minus
    the Poisson bracket of the two defining variables; samples are drawn first."""
    pairs = list(combinations(range(m.N), 2))
    reports = []
    for dof, defs in enumerate(m.defs):
        points = sample_assignments([q(dof), p(dof)], samples, seed)
        vs = [xvar(i, dof) for i in range(1, m.N + 1)]
        residuals = [
            _constraint_contraction(m.constraints[dof], vs, i, j).subs(dict(zip(vs, defs)))
            - poisson_bracket_poly(defs[i], defs[j], dof + 1)
            for i, j in pairs
        ]
        for (i, j), r in zip(pairs, _at_samples(residuals, points)):
            worst = max(abs(v) for v in r.tolist())
            reports.append(ConsistencyReport(dof, i + 1, j + 1, worst, tolerance))
    return reports


# --------------------------------------------------------------------------
# Slot moments: the exponents of a monomial definition
# --------------------------------------------------------------------------


def _exponents(d: Poly, dof: int) -> tuple[int, int] | None:
    """(a, b) of a monic monomial definition q^a p^b of ``dof``, else None."""
    if list(d.terms.values()) != [1.0]:
        return None
    powers = dict(next(iter(d.terms)))
    return powers.get(q(dof), 0), powers.get(p(dof), 0)
