"""Extended-phase-space layout and state vectors.

A layout (N, n_dof) describes n_dof independent Nambu N-plets.  The flat
value vector is dof-major: (x1^(0), ..., xN^(0), x1^(1), ..., xN^(n-1)).
"""

from __future__ import annotations

from typing import NamedTuple

from .poly import VarId, p, q, xvar

__all__ = ["Layout", "x_vars", "classical_vars"]


class Layout(NamedTuple):
    """Multiplet size N (>= 3) and number of degrees of freedom."""

    N: int
    n_dof: int

    @property
    def size(self) -> int:
        return self.N * self.n_dof


def x_vars(layout: Layout) -> tuple[VarId, ...]:
    """Canonical variable order matching the flat state vector."""
    return tuple(
        xvar(i, dof) for dof in range(layout.n_dof) for i in range(1, layout.N + 1)
    )


def classical_vars(n_dof: int) -> tuple[VarId, ...]:
    """Canonical (q0, p0, q1, p1, ...) order for classical state vectors."""
    return tuple(v for dof in range(n_dof) for v in (q(dof), p(dof)))

