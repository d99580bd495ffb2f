"""Periodic 1D grid, difference operators, discrete norms and quadrature.

Grid functions live on the nodes ``x_j = a + j*h`` for ``j = 0..N`` with the
endpoints identified (``u_0 = u_N``).  All sums, norms and inner products run
over the independent nodes ``j = 0..N-1``; the stored value at ``j = N`` is a
redundant copy kept so sampled data lines up with the node array.  Operators
apply the periodic wrap ``u_{-1} = u_{N-1}``, ``u_{N+1} = u_1`` always.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid1D",
    "GridFunction",
    "periodic_second_diff",
    "periodic_forward_diff",
    "laplacian",
    "forward_diff",
    "norm_l2",
    "norm_linf",
    "inner",
    "seminorm_h1",
    "norm_h1",
    "quad",
    "quad_l1",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [a, b] with N cells (N+1 stored nodes)."""

    a: float
    b: float
    N: int

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError(f"need b > a, got [{self.a}, {self.b}]")
        if self.N < 4:
            raise ValueError(f"need N >= 4, got N={self.N}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.N

    @property
    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(self.N + 1)


class GridFunction:
    """Immutable real-valued samples at the N+1 nodes of a periodic grid.

    Construction normalizes the redundant endpoint (``values[N] := values[0]``)
    rather than rejecting mismatched input; sampled smooth periodic data may
    disagree there at roundoff level.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        values = np.array(values, dtype=float)
        if values.ndim != 1 or values.size < 5:
            raise ValueError("GridFunction needs a 1D array of at least 5 nodes")
        values[-1] = values[0]
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_core(cls, core) -> "GridFunction":
        """Build from the N independent values ``u_0..u_{N-1}``."""
        core = np.asarray(core, dtype=float)
        return cls(np.concatenate([core, core[:1]]))

    @classmethod
    def sample(cls, g: Grid1D, f) -> "GridFunction":
        return cls(np.asarray(f(g.nodes), dtype=float) * np.ones(g.N + 1))

    @classmethod
    def zeros(cls, g: Grid1D) -> "GridFunction":
        return cls(np.zeros(g.N + 1))

    @property
    def core(self) -> np.ndarray:
        """View of the independent nodes j = 0..N-1."""
        return self.values[:-1]

    def __len__(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"GridFunction(N={self.values.size - 1})"


def _core(u: GridFunction, g: Grid1D) -> np.ndarray:
    if len(u) != g.N + 1:
        raise ValueError(f"grid function has {len(u)} nodes, grid wants {g.N + 1}")
    return u.core


def periodic_second_diff(v: np.ndarray, h: float) -> np.ndarray:
    """(v_{j+1} - 2v_j + v_{j-1})/h^2 on the independent values v_0..v_{N-1}."""
    return (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / h**2


def periodic_forward_diff(v: np.ndarray, h: float) -> np.ndarray:
    """(v_{j+1} - v_j)/h on the independent values v_0..v_{N-1}."""
    return (np.roll(v, -1) - v) / h


def laplacian(u: GridFunction, g: Grid1D) -> GridFunction:
    """Periodic three-point second difference (u_{j+1} - 2u_j + u_{j-1})/h^2."""
    return GridFunction.from_core(periodic_second_diff(_core(u, g), g.h))


def forward_diff(u: GridFunction, g: Grid1D) -> GridFunction:
    """Periodic forward difference (u_{j+1} - u_j)/h."""
    return GridFunction.from_core(periodic_forward_diff(_core(u, g), g.h))


def norm_l2(u: GridFunction, g: Grid1D) -> float:
    return float(np.sqrt(g.h * np.sum(_core(u, g) ** 2)))


def norm_linf(u: GridFunction, g: Grid1D) -> float:
    return float(np.max(np.abs(_core(u, g))))


def inner(u: GridFunction, v: GridFunction, g: Grid1D) -> float:
    """Discrete L2 inner product h * sum_{j<N} u_j v_j."""
    return float(g.h * np.dot(_core(u, g), _core(v, g)))


def seminorm_h1(u: GridFunction, g: Grid1D) -> float:
    """l2 norm of the forward difference."""
    return norm_l2(forward_diff(u, g), g)


def norm_h1(u: GridFunction, g: Grid1D) -> float:
    return float(np.sqrt(norm_l2(u, g) ** 2 + seminorm_h1(u, g) ** 2))


def quad(u: GridFunction, g: Grid1D) -> float:
    """Periodic rectangle rule h * sum_{j<N} u_j.

    Identical to the trapezoid rule under the endpoint identification, and
    spectrally accurate for smooth periodic integrands.
    """
    return float(g.h * np.sum(_core(u, g)))


def quad_l1(u: GridFunction, g: Grid1D) -> float:
    return float(g.h * np.sum(np.abs(_core(u, g))))
