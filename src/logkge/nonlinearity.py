"""Regularized logarithmic nonlinearity and its discrete gradient.

The wave equation solved here carries the nonlinear term
``lam * u * ln(eps^2 + u^2)``.  This module evaluates the regularized
logarithm ``reg_log(rho) = ln(eps^2 + rho)`` of the squared field, its
primitive ``reg_log_primitive``, and the two-point discrete gradient DG that
both conservative schemes use in place of the pointwise nonlinearity.  They
take DG and its z1-derivative from :func:`fused_discrete_gradient`; the
unfused :func:`discrete_gradient` and :func:`discrete_gradient_dz1` are the
reference path the tests compare against, and the benchmark's tracer names
them.  DG satisfies

    DG(z1, z2) * (z1 - z2) = (V(z1^2) - V(z2^2)) / 2

with ``V = reg_log_primitive``, which is what makes the discrete energy
telescope exactly along a trajectory.

All functions accept scalars or numpy arrays and are pure; the coupling
strength ``lam`` is never applied here, callers multiply by it.  Parameters
with B widths eps (see :class:`NonlinearityParams`) apply one width to each
row of a (B, N) array, bit for bit what each row gives on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import _within

__all__ = [
    "NonlinearityParams",
    "reg_log",
    "reg_log_primitive",
    "discrete_gradient",
    "discrete_gradient_dz1",
    "fused_discrete_gradient",
    "unreg_log",
    "unreg_log_primitive",
    "width_requirement",
]

# Relative width of the coincidence regime where the divided difference
# (V(z1^2)-V(z2^2))/(z1^2-z2^2) is replaced by its analytic midpoint limit.
# The limit is second-order accurate in the gap, so the substitution error
# is O(1e-16) while direct evaluation would lose all digits to cancellation.
COINCIDENCE_REL_TOL = 1e-8

# The derivative of the divided difference cancels one order harder, so its
# branch switch sits wider; in the band between the two thresholds the
# midpoint-limit derivative and the exact one agree to O(gap^2) ~ 1e-8.
DERIVATIVE_REL_TOL = 1e-4

# Values per block of :func:`fused_discrete_gradient` and :func:`reg_log_primitive`,
# 64 KiB per array, so temporaries stay in L2 cache.  Whole-layer ones (512 KiB at
# N = 65536) made glibc trim and regrow the heap top on every call.
BLOCK = 8192


def width_requirement(eps: float) -> str | None:
    """The requirement a width ``eps`` fails, or None if it is usable (a bool is not)."""
    if not _within([eps], 0.0):
        return "finite and > 0"
    if eps * eps == 0.0:
        return "large enough that epsilon**2 does not underflow"
    return None


@dataclass(frozen=True)
class NonlinearityParams:
    """Interaction strength and regularization width of the log term.

    ``epsilon`` must be strictly positive: every formula here divides by or
    takes logs of ``epsilon**2``.  The unregularized model is reachable only
    through :func:`unreg_log` / :func:`unreg_log_primitive`.

    A sequence of B widths (stored as a tuple) describes B members that share
    ``lam`` and are stepped together as the rows of (B, N) layers; ``eps2`` is
    then a (B, 1) column, so every formula broadcasts one width per row.
    """

    lam: float
    epsilon: float | tuple[float, ...]

    def __post_init__(self):
        if not _within([self.lam], -math.inf):
            raise ValueError(f"lam must be a finite number, got {self.lam}")
        batch = np.ndim(self.epsilon) != 0
        for eps in self.epsilon if batch else (self.epsilon,):  # as given: float(True) is 1.0
            if unmet := width_requirement(eps):
                raise ValueError(f"epsilon must be {unmet}, got {eps}")
        if batch:
            object.__setattr__(self, "epsilon", tuple(map(float, self.epsilon)))
            if not self.epsilon:
                raise ValueError("epsilon needs at least one member")

    @property
    def widths(self) -> tuple[float, ...]:
        """The width of every member; one for a single width."""
        return self.epsilon if isinstance(self.epsilon, tuple) else (self.epsilon,)

    @cached_property
    def eps2(self):
        if isinstance(self.epsilon, tuple):
            return np.array([[eps * eps] for eps in self.epsilon])
        return self.epsilon * self.epsilon

    def layer_shape(self, n: int) -> tuple[int, ...]:
        """Shape of a layer of n nodes: (n,) for one width, (B, n) for B."""
        return (len(self.epsilon), n) if isinstance(self.epsilon, tuple) else (n,)

    def member(self, m: int) -> NonlinearityParams:
        """The parameters of member m alone, with a single width."""
        return NonlinearityParams(self.lam, self.widths[m])


def _check_rho(rho):
    rho = np.asarray(rho, dtype=float)
    if (rho < 0.0).any():
        raise ValueError("rho must be nonnegative")
    return rho


def reg_log(rho, p: NonlinearityParams):
    """ln(eps^2 + rho) for rho >= 0; monotone increasing in rho."""
    rho = _check_rho(rho)
    out = np.log(p.eps2 + rho)
    return out if out.ndim else float(out)


def reg_log_primitive(rho, p: NonlinearityParams):
    """Integral of ln(eps^2 + s) over s in [0, rho].

    Closed form ``rho*ln(eps^2+rho) + eps^2*ln(1+rho/eps^2) - rho``, the
    first term with numpy's vector ``log`` (+0.0 at rho = 0, since eps^2 > 0
    keeps the log finite).  The middle term is evaluated as
    ``eps^2*log1p(rho/eps^2)``, which is accurate for rho << eps^2; if the
    ratio overflows (only for eps below ~1e-154 at rho ~ 1) it falls back to
    the exact rearrangement ``eps^2*(ln(rho) - ln(eps^2))`` of ln of the huge
    ratio.  Each term is within a few ulps of its exact value, so V is within
    a few ulps of the sum of the three terms' magnitudes (V itself crosses 0).
    rho = inf or NaN gives NaN.  Above :data:`BLOCK` values it runs block by
    block, as :func:`fused_discrete_gradient` does.
    """
    rho = _check_rho(rho)
    out = np.empty(rho.shape)
    for eps2, (r, o) in _blocks(p.eps2, rho, out):
        _primitive(r, eps2, o)
    return out if out.ndim else float(out)


def _primitive(rho, eps2, out):
    """:func:`reg_log_primitive` of checked rho in one pass, into ``out``."""
    with np.errstate(over="ignore"):
        ratio = rho / eps2
    finite = np.isfinite(ratio)
    if finite.all():
        mid = eps2 * np.log1p(ratio)
    else:
        safe_rho = np.where(finite, 1.0, rho)
        mid = np.where(
            finite,
            eps2 * np.log1p(np.where(finite, ratio, 0.0)),
            eps2 * (np.log(safe_rho) - np.log(eps2)),
        )
    v = np.multiply(rho, np.log(eps2 + rho), out=out)  # rho*ln(eps2 + rho) + mid - rho
    return np.subtract(np.add(v, mid, out=v), rho, out=v)


def _blocks(eps2, *arrays):
    """(eps2, views of the arrays) of each block: the whole arrays at or below BLOCK values,
    else BLOCK values of one row of (B, N) arrays at a time, with its eps2 from ``p.eps2``.
    """
    if arrays[0].size <= BLOCK:
        yield eps2, arrays
        return
    rows = [a.reshape(-1, a.shape[-1]) for a in arrays]
    for m, row_eps2 in enumerate(np.broadcast_to(eps2, (len(rows[0]), 1))[:, 0].tolist()):
        for lo in range(0, rows[0].shape[1], BLOCK):
            yield row_eps2, [r[m, lo : lo + BLOCK] for r in rows]


def fused_discrete_gradient(z1, z2, v1, v2, p: NonlinearityParams, derivative=False, out=None,
                            scratch=None):
    """Discrete gradient and, with ``derivative``, its z1-derivative in one pass.

    ``v1`` and ``v2`` are ``reg_log_primitive(z1*z1, p)`` and
    ``reg_log_primitive(z2*z2, p)``: a stepper already holds them for the
    layers it knows, so this kernel never evaluates the primitive.  Returns
    ``(dg, dg_dz1)`` with ``dg_dz1`` None unless requested.  The squares,
    their gap, the midpoint log and the divided difference are computed once
    and shared; each output keeps its own branch switch
    (:data:`COINCIDENCE_REL_TOL` for the gradient, :data:`DERIVATIVE_REL_TOL`
    for the derivative).  Away from coincidence the divided difference is
    ``(v1 - v2)/gap`` for both.  Near it, the gradient takes the limit
    ``reg_log(rho_mid)``; the derivative takes ``f'(rho_mid)/2`` plus the
    first-order term ``gap*f''(rho_mid)/12``, which keeps it second-order
    accurate across the switch.  The four inputs are float arrays of one shape.

    Above :data:`BLOCK` values it runs row by row (one row for a 1-D input)
    and block by block within a row; every operation is elementwise, so that
    is bitwise one pass.  The results go into ``out``, a pair of arrays of
    the inputs' shape (the second written only with ``derivative``), or a
    new pair without it.  Calls given one dict as ``scratch`` keep their
    temporaries in it and allocate none.
    """
    dg, dg_dz1 = out or (np.empty(z1.shape), np.empty(z1.shape))
    scratch = {} if scratch is None else scratch
    for eps2, (z1s, z2s, v1s, v2s, dgs, dzs) in _blocks(p.eps2, z1, z2, v1, v2, dg, dg_dz1):
        _fused_block(z1s, z2s, v1s, v2s, eps2, derivative, (dgs, dzs), scratch)
    return dg, (dg_dz1 if derivative else None)


def _fused_block(z1, z2, v1, v2, eps2, derivative, out, scratch: dict) -> None:
    """:func:`fused_discrete_gradient` in one pass over whole arrays, into the pair ``out``.

    ``eps2`` is a width's square, or a column of them.  Each expression is
    formed with ``out=`` in the order of the plain formula, so it is bit for
    bit the same; temporaries are in ``scratch``.
    """
    temps = _temporaries(z1.shape, scratch)
    rho1, rho2, gap, abs_gap, rho_sum, z_sum, scale, f_mid, divided, near = temps
    dg, dz = out
    np.multiply(z1, z1, rho1)
    np.multiply(z2, z2, rho2)
    np.subtract(rho1, rho2, gap)
    np.abs(gap, abs_gap)
    np.add(rho1, rho2, rho_sum)
    np.add(z1, z2, z_sum)
    np.add(rho_sum, eps2, scale)
    denom_mid = np.add(np.multiply(rho_sum, 0.5, rho2), eps2, rho2)  # eps2 + rho_mid
    np.log(denom_mid, f_mid)
    np.less_equal(abs_gap, np.multiply(scale, COINCIDENCE_REL_TOL, rho_sum), near)
    np.copyto(rho_sum, gap)
    np.copyto(rho_sum, 1.0, where=near)
    np.divide(np.subtract(v1, v2, divided), rho_sum, divided)
    np.copyto(dg, divided)
    np.copyto(dg, f_mid, where=near)
    np.multiply(np.multiply(dg, 0.5, dg), z_sum, dg)
    if not derivative:
        return
    # The derivative band contains the gradient band, so outside it
    # ``divided`` is the plain quotient by the gap.
    np.less_equal(abs_gap, np.multiply(scale, DERIVATIVE_REL_TOL, scale), near)
    dd = divided
    np.copyto(dd, f_mid, where=near)
    # d(dd)/drho1 is (f(rho1) - dd)/gap away from coincidence, and near it
    # f'(rho_mid)/2 + gap f''(rho_mid)/12 = 0.5/denom_mid - gap/(12 denom_mid^2).
    lim = np.divide(0.5, denom_mid, abs_gap)
    lim -= np.divide(gap, np.multiply(np.multiply(denom_mid, 12.0, scale), denom_mid, scale), scale)
    ddd_drho1 = np.log(np.add(rho1, eps2, rho1), rho1)
    ddd_drho1 -= dd
    np.copyto(gap, 1.0, where=near)
    ddd_drho1 /= gap
    np.copyto(ddd_drho1, lim, where=near)
    np.multiply(np.multiply(np.multiply(z1, 2.0, dz), ddd_drho1, dz), 0.5, dz)
    np.multiply(dz, z_sum, dz)
    np.add(dz, np.multiply(dd, 0.5, dd), dz)


def _temporaries(shape, scratch: dict) -> list:
    """The 10 temporaries of :func:`_fused_block` at ``shape``, the last a mask, in ``scratch``."""
    if shape not in scratch:
        scratch[shape] = [np.empty(shape) for _ in range(9)] + [np.empty(shape, bool)]
    return scratch[shape]


def _fused_from_values(z1, z2, p: NonlinearityParams, derivative: bool):
    """The fused kernel for callers that hold only z1 and z2."""
    z1, z2 = np.broadcast_arrays(np.asarray(z1, dtype=float), np.asarray(z2, dtype=float))
    return fused_discrete_gradient(
        z1, z2, reg_log_primitive(z1 * z1, p), reg_log_primitive(z2 * z2, p), p, derivative
    )


def discrete_gradient(z1, z2, p: NonlinearityParams):
    """Two-point average of the regularized log nonlinearity.

    Evaluates ``(V(z1^2) - V(z2^2))/(z1^2 - z2^2) * (z1 + z2)/2`` with
    ``V = reg_log_primitive``.  When z1^2 and z2^2 coincide to relative
    precision :data:`COINCIDENCE_REL_TOL` the divided difference is replaced
    by its limit ``reg_log((z1^2 + z2^2)/2)``.

    Symmetric in (z1, z2) exactly, including evaluation order; vanishes
    identically when z2 == -z1.  See :func:`fused_discrete_gradient`.
    """
    out, _ = _fused_from_values(z1, z2, p, derivative=False)
    return out if out.ndim else float(out)


def discrete_gradient_dz1(z1, z2, p: NonlinearityParams):
    """Partial derivative of :func:`discrete_gradient` with respect to z1.

    Like it, a reference the tests compare the fused kernel against; the
    steppers' Newton Jacobian is the fused kernel's.  Near coincidence the
    divided-difference pieces are replaced by their midpoint limits (see
    :data:`DERIVATIVE_REL_TOL` and :func:`fused_discrete_gradient`).
    """
    _, out = _fused_from_values(z1, z2, p, derivative=True)
    return out if out.ndim else float(out)


def unreg_log(rho):
    """ln(rho) of the squared field for the unregularized model; rho > 0 only."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise ValueError("unreg_log requires rho > 0 (singular at the origin)")
    out = np.log(rho)
    return out if out.ndim else float(out)


def unreg_log_primitive(rho):
    """rho*ln(rho) - rho, extended continuously by 0 at rho = 0.

    The log is taken of 1 where rho = 0, so that 0 * ln(0) never forms;
    rho = inf or NaN gives NaN.
    """
    rho = _check_rho(rho)
    out = rho * np.log(np.where(rho > 0.0, rho, 1.0)) - rho
    return out if out.ndim else float(out)


def reg_unreg_gap_density(rho, p: NonlinearityParams):
    """Pointwise difference reg_log_primitive(rho) - unreg_log_primitive(rho).

    Evaluated in the cancellation-free form
    ``rho*log1p(eps^2/rho) + eps^2*log1p(rho/eps^2)`` (0 at rho = 0), which
    stays accurate where the two primitives agree to many digits.
    Nonnegative, and bounded by ``4*eps*sqrt(rho)``.
    """
    rho = _check_rho(rho)
    eps2 = p.eps2
    positive = rho > 0.0
    safe_rho = np.where(positive, rho, 1.0)
    out = np.where(
        positive,
        safe_rho * np.log1p(eps2 / safe_rho) + eps2 * np.log1p(safe_rho / eps2),
        0.0,
    )
    return out if out.ndim else float(out)
