"""Two energy-conserving time steppers for the regularized log wave equation.

Both schemes advance the two-layer recurrence

    (u^{n+1} - 2u^n + u^{n-1})/tau^2 + (implicit terms) = 0

on a periodic grid.  The fully implicit scheme ("cnfd") averages the
Laplacian and the mass term over the outer layers n+1 and n-1:

    d2t u - 1/2 lap(u^{n+1} + u^{n-1}) + 1/2 (u^{n+1} + u^{n-1})
        + lam * DG(u^{n+1}, u^{n-1}) = 0,

while the semi-implicit scheme ("siefd") keeps the Laplacian explicit on the
middle layer, making its implicit system nodewise scalar:

    d2t u - lap u^n + 1/2 (u^{n+1} + u^{n-1}) + lam * DG(u^{n+1}, u^{n-1}) = 0.

``DG`` is the two-point discrete gradient of the regularized log potential,
the ingredient that gives each scheme an exactly conserved discrete energy
(see :func:`discrete_energy`).  Each step is a smooth nonlinear root-finding
problem solved by one guarded Newton loop with the analytic Jacobian: a
cyclic tridiagonal matrix for cnfd, a diagonal one for siefd.  The stepping
path is :func:`evolve` -> :func:`step` -> :func:`solve_newton`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .analysis import siefd_tau_bound, sigma_max
from .grid import (
    Grid1D,
    GridFunction,
    norm_linf,
    periodic_forward_diff,
    periodic_second_diff,
)
from .nonlinearity import (
    NonlinearityParams,
    discrete_gradient,
    discrete_gradient_dz1,
    reg_log,
    reg_log_primitive,
)

__all__ = [
    "SCHEMES",
    "StepperConfig",
    "InitialData",
    "WaveState",
    "NonConvergenceError",
    "StabilityWarning",
    "first_step",
    "step",
    "assemble_residual",
    "solve_newton",
    "discrete_energy",
    "solve_cyclic_tridiag",
    "evolve",
    "EvolveResult",
]

SCHEMES = ("cnfd", "siefd")


class NonConvergenceError(RuntimeError):
    """Implicit solve failed to reach tolerance; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class StabilityWarning(UserWarning):
    """Emitted when a siefd run starts above its predicted stable time step."""


@dataclass(frozen=True)
class StepperConfig:
    scheme: str
    tau: float
    newton_tol: float = 1e-12
    newton_max_iter: int = 50

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not 0.0 < self.newton_tol <= 1e-6:
            raise ValueError(f"newton_tol must lie in (0, 1e-6], got {self.newton_tol}")
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be >= 1")


@dataclass(frozen=True)
class InitialData:
    phi: GridFunction
    gamma: GridFunction

    def __post_init__(self):
        if len(self.phi) != len(self.gamma):
            raise ValueError("phi and gamma must live on the same grid")


@dataclass(frozen=True)
class WaveState:
    """Two consecutive layers (u^{n-1}, u^n) of a trajectory, t = n*tau."""

    prev: GridFunction
    curr: GridFunction
    n: int
    t: float
    newton_iters: int = 0

    def __post_init__(self):
        if len(self.prev) != len(self.curr):
            raise ValueError("both layers must live on the same grid")


def first_step(
    init: InitialData, p: NonlinearityParams, cfg: StepperConfig, g: Grid1D
) -> WaveState:
    """Taylor start: u^1 = phi + tau*gamma + tau^2/2 * u_tt(0) evaluated nodewise."""
    phi, gamma = init.phi.core, init.gamma.core
    accel = periodic_second_diff(phi, g.h) - phi - p.lam * phi * reg_log(phi * phi, p)
    u1 = phi + cfg.tau * gamma + 0.5 * cfg.tau**2 * accel
    return WaveState(prev=init.phi, curr=GridFunction.from_core(u1), n=1, t=cfg.tau)


def _norm(v: np.ndarray, h: float) -> float:
    """Discrete l2 norm sqrt(h * sum v_j^2) of independent node values."""
    return float(np.sqrt(h * np.sum(v * v)))


def _residual_core(
    cand: np.ndarray, state: WaveState, p: NonlinearityParams, cfg: StepperConfig, g: Grid1D
) -> np.ndarray:
    up, uc = state.prev.core, state.curr.core
    tau2 = cfg.tau**2
    d2t = (cand - 2.0 * uc + up) / tau2
    nonlin = p.lam * discrete_gradient(cand, up, p)
    if cfg.scheme == "cnfd":
        diff = -0.5 * periodic_second_diff(cand + up, g.h)
    else:
        diff = -periodic_second_diff(uc, g.h)
    return d2t + diff + 0.5 * (cand + up) + nonlin


def _rhs_scale(state: WaveState, cfg: StepperConfig, g: Grid1D) -> float:
    """l2 norm of the candidate-independent part of the residual equation."""
    up, uc = state.prev.core, state.curr.core
    tau2 = cfg.tau**2
    b = (2.0 * uc - up) / tau2 - 0.5 * up
    if cfg.scheme == "cnfd":
        b = b + 0.5 * periodic_second_diff(up, g.h)
    else:
        b = b + periodic_second_diff(uc, g.h)
    return _norm(b, g.h)


def assemble_residual(
    candidate: GridFunction,
    state: WaveState,
    p: NonlinearityParams,
    cfg: StepperConfig,
    g: Grid1D,
) -> GridFunction:
    """Left-hand side of the scheme equation at a trial layer u^{n+1}."""
    if len(candidate) != g.N + 1 or len(state.curr) != g.N + 1:
        raise ValueError("candidate/state do not match the grid")
    return GridFunction.from_core(_residual_core(candidate.core, state, p, cfg, g))


def solve_cyclic_tridiag(diag: np.ndarray, off: float, rhs: np.ndarray) -> np.ndarray:
    """Solve the periodic tridiagonal system with constant off-diagonal.

    The matrix has ``diag`` on the diagonal and ``off`` on the two
    off-diagonals including the periodic corner entries (0, N-1) and
    (N-1, 0).  Solved as a plain tridiagonal banded factorization plus a
    Sherman-Morrison rank-one correction for the corners; O(N) total.
    """
    n = diag.size
    if n < 3:
        raise ValueError("cyclic tridiagonal solve needs at least 3 unknowns")
    gamma = -diag[0]
    d = diag.copy()
    d[0] -= gamma
    d[-1] -= off * off / gamma

    ab = np.zeros((3, n))
    ab[0, 1:] = off
    ab[1, :] = d
    ab[2, :-1] = off

    u = np.zeros(n)
    u[0] = gamma
    u[-1] = off
    sol = solve_banded((1, 1), ab, np.column_stack([rhs, u]))
    y, q = sol[:, 0], sol[:, 1]
    # v = e_0 + (off/gamma) e_{N-1} closes the rank-one update A = T + u v^T
    vy = y[0] + off / gamma * y[-1]
    vq = q[0] + off / gamma * q[-1]
    return y - q * (vy / (1.0 + vq))


def _newton_step(jac_diag: np.ndarray, res: np.ndarray, cfg: StepperConfig, g: Grid1D):
    """Newton update: solve J delta = -res, J = diag(jac_diag) + cnfd coupling."""
    if cfg.scheme == "cnfd":
        return solve_cyclic_tridiag(jac_diag, -0.5 / g.h**2, -res)
    return -res / jac_diag


def solve_newton(
    state: WaveState, p: NonlinearityParams, cfg: StepperConfig, g: Grid1D
) -> tuple[GridFunction, list[float]]:
    """Solve the implicit step equation; returns (next layer, residual history).

    Guarded Newton from the linear extrapolation 2u^n - u^{n-1}, stopping at
    ||R|| <= newton_tol * (1 + ||b||) with b the candidate-independent part
    of the equation; the history holds the start and every iteration.  An
    iteration whose Jacobian diagonal is positive and finite and whose full
    step gives a finite residual takes that step with no decrease test.
    Any other iteration clamps the diagonal to max(d, 0.1*lin_diag)
    (lin_diag where d is not finite) and halves the step until the residual
    drops by the Armijo factor 1 - 1e-4*alpha.  Raises
    :class:`NonConvergenceError` after ``newton_max_iter`` iterations of
    either kind, or when a guarded step falls below alpha = 2^-12.
    """
    up, uc = state.prev.core, state.curr.core
    tol = cfg.newton_tol * (1.0 + _rhs_scale(state, cfg, g))
    lin_diag = 1.0 / cfg.tau**2 + 0.5 + (1.0 / g.h**2 if cfg.scheme == "cnfd" else 0.0)

    cand = 2.0 * uc - up
    res = _residual_core(cand, state, p, cfg, g)
    rnorm = _norm(res, g.h)
    norms = [rnorm]
    while not rnorm <= tol and len(norms) <= cfg.newton_max_iter:
        jac_diag = lin_diag + p.lam * discrete_gradient_dz1(cand, up, p)
        # min/max propagate NaN, so this tests positivity and finiteness
        # without an N-sized temporary on the ordinary path.
        ordinary = 0.0 < jac_diag.min() and jac_diag.max() < np.inf
        if ordinary:
            trial = cand + _newton_step(jac_diag, res, cfg, g)
            trial_res = _residual_core(trial, state, p, cfg, g)
            trial_norm = _norm(trial_res, g.h)
            ordinary = np.isfinite(trial_norm)
        if not ordinary:
            jac_diag = np.where(
                np.isfinite(jac_diag), np.maximum(jac_diag, 0.1 * lin_diag), lin_diag
            )
            delta = _newton_step(jac_diag, res, cfg, g)
            for k in range(13):  # alpha = 1, 1/2, ..., 2^-12; NaN never passes
                alpha = 0.5**k
                trial = cand + delta if k == 0 else cand + alpha * delta
                trial_res = _residual_core(trial, state, p, cfg, g)
                trial_norm = _norm(trial_res, g.h)
                if trial_norm < rnorm * (1.0 - 1e-4 * alpha):
                    break
            else:
                break  # no step decreases the residual: stalled
        cand, res, rnorm = trial, trial_res, trial_norm
        norms.append(rnorm)
    if not rnorm <= tol:
        raise NonConvergenceError(
            f"Newton stopped at residual {rnorm:.3e} after {len(norms) - 1} "
            f"iterations (tolerance {tol:.3e})",
            residual=rnorm,
        )
    return GridFunction.from_core(cand), norms


def step(state: WaveState, p: NonlinearityParams, cfg: StepperConfig, g: Grid1D) -> WaveState:
    """Advance (u^{n-1}, u^n) to (u^n, u^{n+1}) with the scheme of ``cfg``."""
    nxt, norms = solve_newton(state, p, cfg, g)
    return WaveState(
        prev=state.curr,
        curr=nxt,
        n=state.n + 1,
        t=state.t + cfg.tau,
        newton_iters=len(norms) - 1,
    )


def discrete_energy(
    state: WaveState, p: NonlinearityParams, cfg: StepperConfig, g: Grid1D
) -> float:
    """Exactly conserved two-layer energy of the selected scheme.

    With (v, w) = (state.prev, state.curr) playing (u^n, u^{n+1}):

        ||(w - v)/tau||^2 + gradient terms + (||w||^2 + ||v||^2)/2
            + lam * h/2 * sum_j [ V(w_j^2) + V(v_j^2) ]

    where V is the primitive of the regularized log.  The gradient terms are
    the average of the two squared forward-difference norms for cnfd, and
    the sign-indefinite cross product h*sum (D+ w)(D+ v) for siefd (no
    positivity is claimed for the latter).
    """
    if len(state.curr) != g.N + 1:
        raise ValueError("state does not match the grid")
    v, w, h = state.prev.core, state.curr.core, g.h
    kinetic = _norm((w - v) / cfg.tau, h) ** 2
    dw, dv = periodic_forward_diff(w, h), periodic_forward_diff(v, h)
    if cfg.scheme == "cnfd":
        grad = 0.5 * (_norm(dw, h) ** 2 + _norm(dv, h) ** 2)
    else:
        grad = float(h * np.dot(dw, dv))
    mass = 0.5 * (_norm(w, h) ** 2 + _norm(v, h) ** 2)
    pot = reg_log_primitive(w**2, p) + reg_log_primitive(v**2, p)
    return kinetic + grad + mass + p.lam * 0.5 * h * float(np.sum(pot))


@dataclass
class EvolveResult:
    state: WaveState
    energy0: float
    max_rel_drift: float
    steps: int
    newton_total: int
    snapshots: dict[int, GridFunction] = field(default_factory=dict)
    energy_series: list[float] = field(default_factory=list)
    blown_up: bool = False
    growth: float = 1.0

    @property
    def newton_avg(self) -> float:
        """Mean Newton iterations per Newton step (the Taylor start has none)."""
        return self.newton_total / (self.steps - 1) if self.steps > 1 else 0.0


def evolve(
    init: InitialData,
    p: NonlinearityParams,
    cfg: StepperConfig,
    g: Grid1D,
    n_steps: int,
    snapshot_steps: tuple[int, ...] = (),
    abort_on_growth: float | None = None,
    track_energy: bool = True,
) -> EvolveResult:
    """Run a trajectory for n_steps time steps from the Taylor first step.

    Each later step is one :func:`step` (one guarded Newton solve, whose
    :class:`NonConvergenceError` propagates).  With ``track_energy`` the
    result carries the discrete energy series from step 1 and its largest
    relative drift.  Collects snapshots of u^n at the requested step
    indices, and (for siefd) warns once if tau exceeds the stability bound
    predicted from the initial layer.  With ``abort_on_growth`` set, stops
    early and flags blow-up as soon as the sup norm grows past that factor
    of its initial value.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if cfg.scheme == "siefd":
        bound = siefd_tau_bound(g.h, sigma_max(init.phi, p))
        if cfg.tau > bound:
            warnings.warn(
                f"siefd time step tau={cfg.tau:.6g} exceeds the predicted stable "
                f"bound {bound:.6g} for this layer; expect mode growth",
                StabilityWarning,
                stacklevel=2,
            )

    snapshots: dict[int, GridFunction] = {}
    if 0 in snapshot_steps:
        snapshots[0] = init.phi

    state = first_step(init, p, cfg, g)
    if 1 in snapshot_steps:
        snapshots[1] = state.curr

    e0 = discrete_energy(state, p, cfg, g) if track_energy else 0.0
    series = [e0] if track_energy else []
    drift = 0.0
    newton_total = 0
    u0_inf = max(norm_linf(init.phi, g), 1e-300)
    growth = norm_linf(state.curr, g) / u0_inf
    blown = abort_on_growth is not None and growth > abort_on_growth

    while state.n < n_steps and not blown:
        state = step(state, p, cfg, g)
        newton_total += state.newton_iters
        if track_energy:
            e = discrete_energy(state, p, cfg, g)
            drift = max(drift, abs(e - e0) / (1.0 + abs(e0)))
            series.append(e)
        if state.n in snapshot_steps:
            snapshots[state.n] = state.curr
        if abort_on_growth is not None:
            growth = max(growth, norm_linf(state.curr, g) / u0_inf)
            if not np.isfinite(growth) or growth > abort_on_growth:
                blown = True

    return EvolveResult(
        state=state,
        energy0=e0,
        max_rel_drift=drift,
        steps=state.n,
        newton_total=newton_total,
        snapshots=snapshots,
        energy_series=series,
        blown_up=blown,
        growth=growth,
    )
