"""Periodic 1D grid, difference operators, discrete norms and quadrature.

A grid function is a float64 array of the N independent values ``u_j`` at
the nodes ``x_j = a + j*h``, ``j = 0..N-1``; the node ``x_N = b`` is
identified with ``x_0`` (``u_N = u_0``) and not stored.  Operators add the
shifted slices and the periodic wrap ``u_{-1} = u_{N-1}``, ``u_N = u_0`` in
place into ``out`` (bit for bit the ``np.roll`` form, with no padded copy);
sums, norms and inner products run over the N values.  A squared norm is the
sum of squares ``inner(u, u, g)``, never the square of a rounded norm.  A
(B, N) array holds B grid functions as rows: operators act on each row, and
norms and inner products return one value per row, each bit for bit the
value of that row on its own.
:class:`GridFunction` is the closed-node view for output only: the N values
plus the repeated endpoint.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid1D",
    "GridFunction",
    "periodic_second_diff",
    "periodic_forward_diff",
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
    """Uniform periodic grid on [a, b] with N cells; x_N = b is x_0."""

    a: float
    b: float
    N: int

    def __post_init__(self):
        if not -math.inf < self.a < self.b < math.inf:
            raise ValueError(f"need finite a < b, got [{self.a}, {self.b}]")
        if not (isinstance(self.N, numbers.Integral) and self.N >= 4):
            raise ValueError(f"need an int N >= 4, got N={self.N!r}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.N

    @property
    def nodes(self) -> np.ndarray:
        """The N independent nodes x_0..x_{N-1}."""
        return self.a + self.h * np.arange(self.N)

    def sample(self, f) -> np.ndarray:
        """f at the nodes as a length-N array; f may return a scalar."""
        return np.asarray(f(self.nodes), dtype=float) * np.ones(self.N)


class GridFunction:
    """Immutable samples at the N+1 closed nodes x_0..x_N, for output.

    Construction normalizes the redundant endpoint (``values[N] := values[0]``)
    rather than rejecting mismatched input.
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

    def __len__(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"GridFunction(N={self.values.size - 1})"


def periodic_second_diff(v: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """(v_{j+1} - 2v_j + v_{j-1})/h^2 on v_0..v_{N-1}, summed as (-2v_j + v_{j+1}) + v_{j-1}."""
    n = v.shape[-1]
    out = np.multiply(v, -2.0, out=out)
    np.add(o := out[..., :-1], v[..., 1:], out=o)
    np.add(o := out[..., :: n - 1], v[..., :: 1 - n], out=o)  # v_0 to node N-1, v_{N-1} to node 0
    np.add(o := out[..., 1:], v[..., :-1], out=o)
    return np.divide(out, h**2, out=out)


def periodic_forward_diff(v: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """(v_{j+1} - v_j)/h on v_0..v_{N-1}, summed as -v_j + v_{j+1}."""
    out = np.negative(v, out=out)
    np.add(o := out[..., :-1], v[..., 1:], out=o)
    np.add(o := out[..., -1:], v[..., :1], out=o)
    return np.divide(out, h, out=out)


def _per_row(x):
    """A float for one grid function, the array of row values for several."""
    return x if x.ndim else float(x)


def norm_l2(u: np.ndarray, g: Grid1D, out: np.ndarray | None = None):
    """sqrt(inner(u, u, g)), the squares formed in ``out``."""
    return _per_row(np.sqrt(inner(u, u, g, out)))


def norm_linf(u: np.ndarray, g: Grid1D):
    return _per_row(np.abs(u).max(axis=-1))


def inner(u: np.ndarray, v: np.ndarray, g: Grid1D, out: np.ndarray | None = None):
    """Discrete L2 inner product h * sum_{j<N} u_j v_j, the products formed in ``out``.

    A pairwise sum, like the norms: unlike ``np.dot`` its rounding does not
    depend on how many BLAS threads split the sum.
    """
    return _per_row(g.h * np.add.reduce(np.multiply(u, v, out=out), axis=-1))


def seminorm_h1(u: np.ndarray, g: Grid1D):
    """l2 norm of the forward difference."""
    return norm_l2(periodic_forward_diff(u, g.h), g)


def norm_h1(u: np.ndarray, g: Grid1D):
    du = periodic_forward_diff(u, g.h)
    return _per_row(np.sqrt(inner(u, u, g) + inner(du, du, g)))


def quad(u: np.ndarray, g: Grid1D) -> float:
    """Periodic rectangle rule h * sum_{j<N} u_j.

    Identical to the trapezoid rule under the endpoint identification, and
    spectrally accurate for smooth periodic integrands.
    """
    return float(g.h * np.sum(u))


def quad_l1(u: np.ndarray, g: Grid1D) -> float:
    return float(g.h * np.sum(np.abs(u)))
