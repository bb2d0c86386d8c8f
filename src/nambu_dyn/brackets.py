"""Poisson and Nambu brackets as Jacobian determinants.

Brackets are expanded into Polys: the Nambu bracket by cofactors
(N <= 5).  Time stepping compiles the flows built from them, and the
fundamental-identity check and the consistency check of ``multiplets``
expand both sides of their identity and evaluate them once over all sample
points with generated code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .poly import Poly, UnboundVariableError, ValidationError, VarId, check_count, p, q, xvar
from .poly import check_variables, compile_evaluator
from .state import Layout, x_vars

__all__ = [
    "BracketReport",
    "DimensionMismatchError",
    "poisson_bracket_poly",
    "nambu_bracket_poly",
    "check_fundamental_identity",
    "sample_assignments",
    "reports_to_csv",
]

# Cofactor expansion cost grows factorially; the models here use N = 3, 4.
MAX_SYMBOLIC_N = 5

DEFAULT_SAMPLE_SEED = 20240901
SAMPLE_BOX = (-2.0, 2.0)


class DimensionMismatchError(ValidationError):
    """A Poly references variables outside the declared layout."""


@dataclass
class BracketReport:
    """Both sides of a bracket identity at one sample point."""

    index: int
    lhs: float
    rhs: float
    residual: float

    @classmethod
    def make(cls, index: int, lhs: float, rhs: float):
        return cls(index, lhs, rhs, abs(lhs - rhs))


def reports_to_csv(reports: Sequence[BracketReport]) -> str:
    rows = [f"{r.index},{r.lhs!r},{r.rhs!r},{r.residual!r}\n" for r in reports]
    return "sample_index,lhs,rhs,residual\n" + "".join(rows)


@lru_cache(maxsize=16384)
def _partial(f: Poly, v: VarId) -> Poly:
    return f.partial(v)


# --------------------------------------------------------------------------
# Poisson bracket
# --------------------------------------------------------------------------


def poisson_bracket_poly(A: Poly, B: Poly, n_dof: int = 1) -> Poly:
    """The Poisson bracket of two Polys, expanded symbolically."""
    out = Poly.zero()
    for dof in range(n_dof):
        qv, pv = q(dof), p(dof)
        out = out + _partial(A, qv) * _partial(B, pv) - _partial(A, pv) * _partial(B, qv)
    return out


# --------------------------------------------------------------------------
# Nambu bracket
# --------------------------------------------------------------------------


def _det_poly(rows: list[list[Poly]]) -> Poly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    out = Poly.zero()
    for j, entry in enumerate(rows[0]):
        if entry.is_zero:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        cof = entry * _det_poly(minor)
        out = out + (cof if j % 2 == 0 else -cof)
    return out


def nambu_bracket_poly(fns: Sequence[Poly], layout: Layout) -> Poly:
    """The Nambu bracket expanded into a Poly by cofactor expansion."""
    N, n_dof = layout
    if len(fns) != N:
        raise DimensionMismatchError(f"need {N} functions, got {len(fns)}")
    if N > MAX_SYMBOLIC_N:
        raise ValidationError(f"symbolic expansion is limited to N <= {MAX_SYMBOLIC_N}")
    check_variables(fns, set(x_vars(layout)), "bracket functions", DimensionMismatchError)
    out = Poly.zero()
    for dof in range(n_dof):
        vs = [xvar(i, dof) for i in range(1, N + 1)]
        rows = [[_partial(f, v) for v in vs] for f in fns]
        out = out + _det_poly(rows)
    return out


# --------------------------------------------------------------------------
# Identity checks
# --------------------------------------------------------------------------


def _at_samples(polys: Sequence[Poly], samples) -> np.ndarray:
    """Each Poly at every sample, shape (polys, samples), by generated code
    on the sample columns; a constant Poly is broadcast to every sample."""
    order = sorted(set().union(*(f.variables() for f in polys)))
    try:
        columns = np.array([[s[v] for s in samples] for v in order], dtype=np.float64)
    except KeyError as exc:
        raise UnboundVariableError(
            f"variable {exc.args[0].name} is not bound in the assignment"
        ) from None
    values = compile_evaluator(polys, order)(columns)
    return np.broadcast_to(values.T, (len(samples), len(polys))).T


def check_fundamental_identity(
    As: Sequence[Poly],
    Bs: Sequence[Poly],
    samples: Sequence[Mapping[VarId, float]],
    layout: Layout,
) -> list[BracketReport]:
    """Evaluate both sides of the N-ary fundamental identity at each sample.

    Inner and outer brackets are expanded symbolically.  The identity holds
    for a single multiplet and generically fails once multiplets interact.
    """
    N = layout.N
    if len(As) != N or len(Bs) != N - 1:
        raise DimensionMismatchError(
            f"fundamental identity needs {N} As and {N - 1} Bs, "
            f"got {len(As)} and {len(Bs)}"
        )
    lhs = nambu_bracket_poly([nambu_bracket_poly(As, layout), *Bs], layout)
    rhs = Poly.zero()
    for a in range(N):
        inner_a = nambu_bracket_poly([As[a], *Bs], layout)
        rhs = rhs + nambu_bracket_poly([*As[:a], inner_a, *As[a + 1 :]], layout)
    check_count(len(samples), "len(samples)")
    pairs = zip(*(v.tolist() for v in _at_samples([lhs, rhs], samples)))
    return [BracketReport.make(k, a, b) for k, (a, b) in enumerate(pairs)]


def sample_assignments(
    variables: Sequence[VarId],
    n_samples: int,
    seed: int = DEFAULT_SAMPLE_SEED,
) -> list[dict[VarId, float]]:
    """Reproducible sample points for identity checks, uniform on ``SAMPLE_BOX``."""
    check_count(n_samples, "samples")
    rng = np.random.default_rng(seed)
    return [
        {v: float(x) for v, x in zip(variables, rng.uniform(*SAMPLE_BOX, len(variables)))}
        for _ in range(n_samples)
    ]
