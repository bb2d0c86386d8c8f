"""Poisson and Nambu brackets as Jacobian determinants.

Two evaluation paths are provided.  The symbolic path expands the
determinant into a Poly by cofactors (N <= 5); time stepping compiles the
flows built from it, and the identity checkers use it for brackets of
brackets.  The numeric path evaluates the Jacobian matrix at a point and
takes an LU determinant; the identity checkers take their outer brackets
with it, and tests use it as an independent reference.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .poly import Poly, VarId, p, q, xvar
from .state import Layout, NambuState, x_vars

__all__ = [
    "BracketReport",
    "DimensionMismatchError",
    "poisson_bracket",
    "poisson_bracket_poly",
    "nambu_bracket",
    "nambu_bracket_poly",
    "check_jacobi",
    "check_fundamental_identity",
    "flow_divergence",
    "sample_assignments",
    "reports_to_csv",
]

# Cofactor expansion cost grows factorially; the models here use N = 3, 4.
MAX_SYMBOLIC_N = 5

DEFAULT_SAMPLE_SEED = 20240901


class DimensionMismatchError(ValueError):
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
    out = io.StringIO()
    out.write("sample_index,lhs,rhs,residual\n")
    for r in reports:
        out.write(f"{r.index},{r.lhs!r},{r.rhs!r},{r.residual!r}\n")
    return out.getvalue()


@lru_cache(maxsize=16384)
def _partial(f: Poly, v: VarId) -> Poly:
    return f.partial(v)


def _as_point(state, layout: Layout) -> Mapping[VarId, float]:
    if isinstance(state, NambuState):
        return state.as_dict()
    if isinstance(state, Mapping):
        return state
    values = np.asarray(state, dtype=np.float64)
    if values.shape != (layout.size,):
        raise DimensionMismatchError(
            f"state vector length {values.size} does not match layout {layout}"
        )
    return dict(zip(x_vars(layout), values.tolist()))


def _check_layout_vars(fns: Sequence[Poly], layout: Layout) -> None:
    allowed = set(x_vars(layout))
    for f in fns:
        extra = f.variables() - allowed
        if extra:
            names = ", ".join(sorted(v.name for v in extra))
            raise DimensionMismatchError(
                f"polynomial references variables outside layout {layout}: {names}"
            )


# --------------------------------------------------------------------------
# Poisson bracket
# --------------------------------------------------------------------------


def poisson_bracket(
    A: Poly, B: Poly, point: Mapping[VarId, float], n_dof: int = 1
) -> float:
    """Sum over dofs of the 2x2 Jacobian of (A, B) wrt (q, p), at a point."""
    total = 0.0
    for dof in range(n_dof):
        qv, pv = q(dof), p(dof)
        total += _partial(A, qv).eval(point) * _partial(B, pv).eval(point)
        total -= _partial(A, pv).eval(point) * _partial(B, qv).eval(point)
    return total


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


def nambu_bracket(fns: Sequence[Poly], state, layout: Layout) -> float:
    """Sum over dofs of the NxN Jacobian determinant of fns wrt one N-plet.

    The determinant is computed by LU factorization with partial pivoting.
    """
    N, n_dof = layout
    if len(fns) != N:
        raise DimensionMismatchError(f"need {N} functions, got {len(fns)}")
    _check_layout_vars(fns, layout)
    point = _as_point(state, layout)
    total = 0.0
    jac = np.empty((N, N), dtype=np.float64)
    for dof in range(n_dof):
        vs = [xvar(i, dof) for i in range(1, N + 1)]
        for a, f in enumerate(fns):
            for i, v in enumerate(vs):
                jac[a, i] = _partial(f, v).eval(point)
        total += float(np.linalg.det(jac))
    return total


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
        raise ValueError(f"symbolic expansion is limited to N <= {MAX_SYMBOLIC_N}")
    _check_layout_vars(fns, layout)
    out = Poly.zero()
    for dof in range(n_dof):
        vs = [xvar(i, dof) for i in range(1, N + 1)]
        rows = [[_partial(f, v) for v in vs] for f in fns]
        out = out + _det_poly(rows)
    return out


# --------------------------------------------------------------------------
# Identity checkers
# --------------------------------------------------------------------------


def check_jacobi(
    A1: Poly,
    A2: Poly,
    B: Poly,
    samples: Sequence[Mapping[VarId, float]],
    n_dof: int = 1,
) -> list[BracketReport]:
    """Evaluate both sides of the Jacobi identity at each sample point."""
    inner_12 = poisson_bracket_poly(A1, A2, n_dof)
    inner_1b = poisson_bracket_poly(A1, B, n_dof)
    inner_2b = poisson_bracket_poly(A2, B, n_dof)
    reports = []
    for k, s in enumerate(samples):
        lhs = poisson_bracket(inner_12, B, s, n_dof)
        rhs = poisson_bracket(inner_1b, A2, s, n_dof) + poisson_bracket(
            A1, inner_2b, s, n_dof
        )
        reports.append(BracketReport.make(k, lhs, rhs))
    return reports


def check_fundamental_identity(
    As: Sequence[Poly],
    Bs: Sequence[Poly],
    samples: Sequence[Mapping[VarId, float]],
    layout: Layout,
) -> list[BracketReport]:
    """Evaluate both sides of the N-ary fundamental identity at each sample.

    Inner brackets are formed symbolically, the outer ones numerically.
    The identity holds for a single multiplet and generically fails once
    multiplets interact.
    """
    N = layout.N
    if len(As) != N or len(Bs) != N - 1:
        raise DimensionMismatchError(
            f"fundamental identity needs {N} As and {N - 1} Bs, "
            f"got {len(As)} and {len(Bs)}"
        )
    inner_all = nambu_bracket_poly(As, layout)
    lhs_fns = [inner_all, *Bs]
    rhs_fns = []
    for a in range(N):
        inner_a = nambu_bracket_poly([As[a], *Bs], layout)
        rhs_fns.append([*As[:a], inner_a, *As[a + 1 :]])
    reports = []
    for k, s in enumerate(samples):
        lhs = nambu_bracket(lhs_fns, s, layout)
        rhs = sum(nambu_bracket(fns, s, layout) for fns in rhs_fns)
        reports.append(BracketReport.make(k, lhs, float(rhs)))
    return reports


def flow_divergence(hamiltonians: Sequence[Poly], state, layout: Layout) -> float:
    """Divergence of the bracket-generated flow; zero up to rounding.

    The flow components d(x_i)/dt = {x_i, H_1, ..., H_{N-1}} are formed
    symbolically and differentiated exactly before evaluation.
    """
    N, n_dof = layout
    if len(hamiltonians) != N - 1:
        raise DimensionMismatchError(
            f"flow needs {N - 1} Hamiltonians, got {len(hamiltonians)}"
        )
    point = _as_point(state, layout)
    total = 0.0
    for dof in range(n_dof):
        for i in range(1, N + 1):
            v = xvar(i, dof)
            component = nambu_bracket_poly([Poly.var(v), *hamiltonians], layout)
            total += component.partial(v).eval(point)
    return total


def sample_assignments(
    variables: Sequence[VarId],
    n_samples: int,
    seed: int = DEFAULT_SAMPLE_SEED,
    low: float = -2.0,
    high: float = 2.0,
) -> list[dict[VarId, float]]:
    """Reproducible uniform sample points for identity checks."""
    rng = np.random.default_rng(seed)
    return [
        {v: float(x) for v, x in zip(variables, rng.uniform(low, high, len(variables)))}
        for _ in range(n_samples)
    ]
