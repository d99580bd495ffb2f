"""Two energy-conserving time steppers for the regularized log wave equation.

Both schemes are one three-level equation on a periodic grid,

    (u^{n+1} - 2u^n + u^{n-1})/tau^2 - lap(w u^{n+1} + (1-2w) u^n + w u^{n-1})
        + 1/2 (u^{n+1} + u^{n-1}) + lam * DG(u^{n+1}, u^{n-1}) = 0,

differing only in the Laplacian weight w of each outer layer (:data:`SCHEMES`).
The fully implicit "cnfd" (w = 1/2) averages the Laplacian over the outer
layers; the semi-implicit "siefd" (w = 0) keeps it on the middle layer, so
its implicit system is nodewise scalar.  The residual, the Newton coupling
-w/h^2 and the gradient term of :func:`discrete_energy` all follow from w.
``DG`` is the two-point discrete gradient of the regularized log potential,
which gives each scheme an exactly conserved discrete energy.  Each step is
solved by one guarded Newton loop with the analytic Jacobian (cyclic
tridiagonal for cnfd, diagonal for siefd): :func:`evolve` -> :func:`step`
-> :func:`solve_newton`.  :func:`evolve` keeps no records: its one hook
``observe(state)`` sees every state from the Taylor start on and may end the
run, and callers keep their own energies, snapshots or blow-up tests.

Each piece of work in a step is done once, and a term of weight 0 not at
all: cnfd forms no 0 * u^n and no energy cross product, siefd no 0 * u^{n-1}
and no gradient norms.  known = w u^{n-1} + (1-2w) u^n and its Laplacian
are formed once per step, so a trial layer costs one Laplacian, of
w u^{n+1} + known, and none when w = 0.  Halving commutes with rounding,
so at w = 1/2 that Laplacian is 1/2 lap(u^{n+1} + u^{n-1}) bit for bit.
A :class:`WaveState` made by :func:`first_step` or :func:`step`
carries the potential V(u^2) of its two layers (V = ``reg_log_primitive``):
V(u^{n-1}^2) is fixed for the whole solve, every Newton iterate evaluates V
once and the solution hands its V to the next state, so a one-iteration
step costs two evaluations of V, and :func:`discrete_energy` reuses the
carried pair.  One fused kernel gives the discrete gradient and its Jacobian
diagonal together at the start iterate.  The cnfd Jacobian is solved by
:func:`solve_cyclic_tridiag`, which solves the Sherman-Morrison corner
vector only on the rows where it is representable.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .analysis import siefd_tau_bound, sigma_max
from .grid import (
    Grid1D,
    inner,
    norm_l2,
    periodic_forward_diff,
    periodic_second_diff,
)
from .nonlinearity import (
    NonlinearityParams,
    discrete_gradient,
    fused_discrete_gradient,
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
    "relative_drift",
]

# Laplacian weight w of each outer layer u^{n+1}, u^{n-1}; u^n carries 1 - 2w.
SCHEMES = {"cnfd": 0.5, "siefd": 0.0}


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
            raise ValueError(f"scheme must be one of {tuple(SCHEMES)}, got {self.scheme!r}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not 0.0 < self.newton_tol <= 1e-6:
            raise ValueError(f"newton_tol must lie in (0, 1e-6], got {self.newton_tol}")
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be >= 1")


@dataclass(frozen=True)
class InitialData:
    """Initial layer phi and velocity gamma, each of length N."""

    phi: np.ndarray
    gamma: np.ndarray


@dataclass(frozen=True)
class WaveState:
    """Two consecutive layers (u^{n-1}, u^n) of a trajectory, t = n*tau.

    :func:`first_step` and :func:`step` also fill ``potentials``: the eps
    they used and V(u^{n-1}^2), V(u^n^2) at that eps, V being
    ``reg_log_primitive``.  The next step and :func:`discrete_energy` reuse
    them; for a state without them (read from the cache, or built by hand)
    they are computed where needed.
    """

    prev: np.ndarray
    curr: np.ndarray
    n: int
    t: float
    newton_iters: int = 0
    potentials: tuple[float, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if self.prev.shape != self.curr.shape:
            raise ValueError("both layers must live on the same grid")


def first_step(
    init: InitialData, p: NonlinearityParams, cfg: StepperConfig, g: Grid1D
) -> WaveState:
    """Taylor start: u^1 = phi + tau*gamma + tau^2/2 * u_tt(0) evaluated nodewise."""
    phi, gamma = init.phi, init.gamma
    accel = periodic_second_diff(phi, g.h) - phi - p.lam * phi * reg_log(phi * phi, p)
    u1 = phi + cfg.tau * gamma + 0.5 * cfg.tau**2 * accel
    pots = (p.epsilon, reg_log_primitive(phi * phi, p), reg_log_primitive(u1 * u1, p))
    return WaveState(prev=phi, curr=u1, n=1, t=cfg.tau, potentials=pots)


def _layer_potentials(state: WaveState, p: NonlinearityParams):
    """(V(u^{n-1}^2), V(u^n^2)): the state's own pair if computed at p's eps."""
    pots = state.potentials
    if pots is not None and pots[0] == p.epsilon:
        return pots[1], pots[2]
    prev, curr = state.prev, state.curr
    return reg_log_primitive(prev * prev, p), reg_log_primitive(curr * curr, p)


def assemble_residual(
    cand: np.ndarray, state: WaveState, p: NonlinearityParams, cfg: StepperConfig, g: Grid1D
) -> np.ndarray:
    """Left-hand side of the scheme equation at a trial layer u^{n+1}."""
    residual, _ = _step_equation(state, p, cfg, g)
    return residual(cand, discrete_gradient(cand, state.prev, p))


def _weighted_sum(terms):
    """Sum of c * x() over the (weight c, term x) pairs; x() runs only where c != 0."""
    parts = [c * x() for c, x in terms if c]
    return sum(parts[1:], parts[0])


def _step_equation(state: WaveState, p: NonlinearityParams, cfg: StepperConfig, g: Grid1D):
    """(residual(cand, dg), ||b||) of one step, built once from the known layers.

    ``residual`` is :func:`assemble_residual` given dg = DG(cand, u^{n-1}).
    b = (2u^n - u^{n-1})/tau^2 - u^{n-1}/2 + lap(known) is the
    candidate-independent part of the equation, with
    known = w u^{n-1} + (1-2w) u^n.
    """
    w = SCHEMES[cfg.scheme]
    up, uc = state.prev, state.curr
    tau2 = cfg.tau**2
    known = _weighted_sum(((w, lambda: up), (1.0 - 2.0 * w, lambda: uc)))
    lap_known = periodic_second_diff(known, g.h)
    b = (2.0 * uc - up) / tau2 - 0.5 * up + lap_known

    def residual(cand, dg):
        lap = lap_known if w == 0.0 else periodic_second_diff(w * cand + known, g.h)
        return (cand - 2.0 * uc + up) / tau2 - lap + 0.5 * (cand + up) + p.lam * dg

    return residual, norm_l2(b, g)


def solve_cyclic_tridiag(diag: np.ndarray, off: float, rhs: np.ndarray) -> np.ndarray:
    """Solve the periodic tridiagonal system with constant off-diagonal.

    The matrix A has ``diag`` on the diagonal and ``off`` on the two
    off-diagonals including the periodic corner entries (0, N-1) and
    (N-1, 0).  With gamma = -diag[0], A = T + u v^T where T is plainly
    tridiagonal, u = gamma e_0 + off e_{N-1} and v = e_0 + (off/gamma)
    e_{N-1}; Sherman-Morrison (Press et al., Numerical Recipes 2.7) gives
    x = y - q (v.y)/(1 + v.q) from T y = rhs and T q = u, each solved by
    LAPACK ``dgtsv``.  O(N) total.

    The corner vector q is solved only where it is representable.  Let
    s = min(diag)/|off| > 2 and r = (s - sqrt(s^2 - 4))/2 < 1.  T is
    strictly diagonally dominant with every diagonal entry at least
    s*|off|, so by M-matrix comparison |T^-1| <= T_c^-1 entrywise, where
    T_c = |off| tridiag(-1, s, -1), whose inverse is at most
    r^|i-j| / (|off| sqrt(s^2 - 4)).  Hence

        |q_i| <= (|gamma/off| r^i + r^(N-1-i)) / sqrt(s^2 - 4),

    which falls below 2^-1100, under the smallest subnormal 2^-1074, on
    every row at least m rows from both ends.  A full-length solve only
    fills those rows with subnormal rounding noise (when r > 1/2 they
    stick at the smallest subnormal, each a slow path in LAPACK).  So q is
    solved on the first m and the last m rows, as two blocks decoupled in
    one ``dgtsv`` call, and is exactly 0 in between.  Where s <= 2 (a
    clamped Newton diagonal, say), off = 0 or 2m >= N, q is solved at full
    length.
    """
    n = diag.size
    if n < 3:
        raise ValueError("cyclic tridiagonal solve needs at least 3 unknowns")
    gamma = -diag[0]
    d = diag.copy()
    d[0] -= gamma
    d[-1] -= off * off / gamma
    y = _gtsv(np.full(n - 1, off), d, rhs)
    rows = _q_rows(diag, off, gamma)
    u = np.zeros(rows.size)
    u[0] = gamma
    u[-1] = off
    # A zero off-diagonal where the rows jump decouples the two end blocks.
    q = _gtsv(np.where(np.diff(rows) == 1, off, 0.0), d[rows], u)
    vy = y[0] + off / gamma * y[-1]
    vq = q[0] + off / gamma * q[-1]
    y[rows] -= q * (vy / (1.0 + vq))
    return y


# q entries below 2^-_Q_FLOOR_BITS are taken as 0 (see solve_cyclic_tridiag).
_Q_FLOOR_BITS = 1100


def _q_rows(diag: np.ndarray, off: float, gamma: float) -> np.ndarray:
    """Rows on which the corner vector q is solved: the first and last m, or all.

    All rows when off = 0, s <= 2, an entry is not finite, or 2m >= N.  s
    is capped at 1e6 so that s^2 stays finite; a smaller s only widens the
    window.
    """
    n = diag.size
    s = min(diag.min() / abs(off), 1e6) if off != 0.0 else 0.0
    if not s > 2.0:
        return np.arange(n)
    root = math.sqrt(s * s - 4.0)
    # log2 of the bound's factor (|gamma/off| + 1)/sqrt(s^2 - 4), finite for tiny |off|
    factor = 1.0 + max(math.log2(abs(gamma)) - math.log2(abs(off)), 0.0) - math.log2(root)
    m = (_Q_FLOOR_BITS + factor) / math.log2(0.5 * (s + root))  # log2(1/r) = log2((s+root)/2)
    if not 2.0 * m + 2.0 < n:
        return np.arange(n)
    m = math.ceil(m)
    return np.concatenate((np.arange(m), np.arange(n - m, n)))


def _gtsv(band: np.ndarray, d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with diagonal d and both off-diagonals ``band``."""
    _, _, _, x, info = lapack.dgtsv(band, d, band, b)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def _newton_step(jac_diag: np.ndarray, res: np.ndarray, coupling: float):
    """Newton update: solve J delta = -res, J = diag(jac_diag) + periodic ``coupling``."""
    if coupling == 0.0:
        return -res / jac_diag
    return solve_cyclic_tridiag(jac_diag, coupling, -res)


def solve_newton(
    state: WaveState, p: NonlinearityParams, cfg: StepperConfig, g: Grid1D
) -> tuple[np.ndarray, list[float]]:
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
    nxt, _, norms = _solve_newton(state, _layer_potentials(state, p)[0], p, cfg, g)
    return nxt, norms


def _solve_newton(
    state: WaveState, v_up: np.ndarray, p: NonlinearityParams, cfg: StepperConfig, g: Grid1D
):
    """:func:`solve_newton` given v_up = V(u^{n-1}^2); also returns V of the solution.

    Each iterate costs one ``reg_log_primitive`` call; the start iterate's
    residual and Jacobian share one pass of the fused kernel.
    """
    up, uc = state.prev, state.curr
    w = SCHEMES[cfg.scheme]
    residual, b_norm = _step_equation(state, p, cfg, g)
    tol = cfg.newton_tol * (1.0 + b_norm)
    coupling = -w / g.h**2
    lin_diag = 1.0 / cfg.tau**2 + 0.5 + 2.0 * w / g.h**2

    def kernel(cand, v_cand, jacobian):
        dg, dg_dz1 = fused_discrete_gradient(cand, up, v_cand, v_up, p, jacobian)
        return dg, (lin_diag + p.lam * dg_dz1 if jacobian else None)

    def evaluate(cand, jacobian=False):
        v_cand = reg_log_primitive(cand * cand, p)
        dg, jac_diag = kernel(cand, v_cand, jacobian)
        return residual(cand, dg), v_cand, jac_diag

    cand = 2.0 * uc - up
    res, v_cand, jac_diag = evaluate(cand, jacobian=True)
    rnorm = norm_l2(res, g)
    norms = [rnorm]
    while not rnorm <= tol and len(norms) <= cfg.newton_max_iter:
        if jac_diag is None:
            jac_diag = kernel(cand, v_cand, True)[1]
        # min/max propagate NaN, so this tests positivity and finiteness
        # without an N-sized temporary on the ordinary path.
        ordinary = 0.0 < jac_diag.min() and jac_diag.max() < np.inf
        if ordinary:
            trial = cand + _newton_step(jac_diag, res, coupling)
            trial_res, trial_v, _ = evaluate(trial)
            trial_norm = norm_l2(trial_res, g)
            ordinary = np.isfinite(trial_norm)
        if not ordinary:
            jac_diag = np.where(
                np.isfinite(jac_diag), np.maximum(jac_diag, 0.1 * lin_diag), lin_diag
            )
            delta = _newton_step(jac_diag, res, coupling)
            for k in range(13):  # alpha = 1, 1/2, ..., 2^-12; NaN never passes
                alpha = 0.5**k
                trial = cand + delta if k == 0 else cand + alpha * delta
                trial_res, trial_v, _ = evaluate(trial)
                trial_norm = norm_l2(trial_res, g)
                if trial_norm < rnorm * (1.0 - 1e-4 * alpha):
                    break
            else:
                break  # no step decreases the residual: stalled
        cand, res, v_cand, rnorm, jac_diag = trial, trial_res, trial_v, trial_norm, None
        norms.append(rnorm)
    if not rnorm <= tol:
        raise NonConvergenceError(
            f"Newton stopped at residual {rnorm:.3e} after {len(norms) - 1} "
            f"iterations (tolerance {tol:.3e})",
            residual=rnorm,
        )
    return cand, v_cand, norms


def step(state: WaveState, p: NonlinearityParams, cfg: StepperConfig, g: Grid1D) -> WaveState:
    """Advance (u^{n-1}, u^n) to (u^n, u^{n+1}) with the scheme of ``cfg``."""
    v_prev, v_curr = _layer_potentials(state, p)
    nxt, v_nxt, norms = _solve_newton(state, v_prev, p, cfg, g)
    return WaveState(
        prev=state.curr,
        curr=nxt,
        n=state.n + 1,
        t=state.t + cfg.tau,
        newton_iters=len(norms) - 1,
        potentials=(p.epsilon, v_curr, v_nxt),
    )


def discrete_energy(
    state: WaveState, p: NonlinearityParams, cfg: StepperConfig, g: Grid1D
) -> float:
    """Exactly conserved two-layer energy of the selected scheme.

    With (v, u) = (state.prev, state.curr) playing (u^n, u^{n+1}) and w the
    scheme's Laplacian weight:

        ||(u - v)/tau||^2 + w (||D+ u||^2 + ||D+ v||^2) + (1-2w) (D+ u, D+ v)
            + (||u||^2 + ||v||^2)/2 + lam * h/2 * sum_j [ V(u_j^2) + V(v_j^2) ]

    where V is the primitive of the regularized log.  The gradient term is
    the average of the two squared forward-difference norms for cnfd, and
    the sign-indefinite cross product h*sum (D+ u)(D+ v) for siefd (no
    positivity is claimed for the latter).  V of the two layers comes from
    the state when it carries them at p's eps, and is computed otherwise.
    """
    if state.curr.shape != (g.N,):
        raise ValueError("state does not match the grid")
    w = SCHEMES[cfg.scheme]
    v, u, h = state.prev, state.curr, g.h
    kinetic = norm_l2((u - v) / cfg.tau, g) ** 2
    du, dv = periodic_forward_diff(u, h), periodic_forward_diff(v, h)
    grad = _weighted_sum(((w, lambda: norm_l2(du, g) ** 2 + norm_l2(dv, g) ** 2),
                          (1.0 - 2.0 * w, lambda: inner(du, dv, g))))
    mass = 0.5 * (norm_l2(u, g) ** 2 + norm_l2(v, g) ** 2)
    v_prev, v_curr = _layer_potentials(state, p)
    pot = v_curr + v_prev
    return kinetic + grad + mass + p.lam * 0.5 * h * float(np.sum(pot))


@dataclass
class EvolveResult:
    state: WaveState
    steps: int
    newton_total: int
    stopped: bool

    @property
    def newton_avg(self) -> float:
        """Mean Newton iterations per Newton step (the Taylor start has none)."""
        return self.newton_total / (self.steps - 1) if self.steps > 1 else 0.0


def relative_drift(energies) -> np.ndarray:
    """|E - E_0| / (1 + |E_0|) of each entry of an energy series (empty stays empty)."""
    e = np.asarray(energies, dtype=float)
    return np.abs(e - e[:1]) / (1.0 + np.abs(e[:1]))


def evolve(
    init: InitialData,
    p: NonlinearityParams,
    cfg: StepperConfig,
    g: Grid1D,
    n_steps: int,
    observe: Callable[[WaveState], object] | None = None,
) -> EvolveResult:
    """Run a trajectory for n_steps time steps from the Taylor first step.

    Each later step is one :func:`step` (one guarded Newton solve, whose
    :class:`NonConvergenceError` propagates).  ``observe(state)`` is called
    with the Taylor state (n = 1, ``prev`` = phi) and after every later
    step; a true return ends the run there and sets ``stopped``.  Energies,
    snapshots and blow-up tests are the observer's business.  For siefd,
    warns once if tau exceeds the stability bound predicted from the
    initial layer.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if init.phi.shape != (g.N,) or init.gamma.shape != (g.N,):
        raise ValueError(
            f"initial data has shapes {init.phi.shape} and {init.gamma.shape}, "
            f"grid wants ({g.N},)"
        )
    if cfg.scheme == "siefd":
        bound = siefd_tau_bound(g.h, sigma_max(init.phi, p))
        if cfg.tau > bound:
            warnings.warn(
                f"siefd time step tau={cfg.tau:.6g} exceeds the predicted stable "
                f"bound {bound:.6g} for this layer; expect mode growth",
                StabilityWarning,
                stacklevel=2,
            )

    state = first_step(init, p, cfg, g)
    newton_total = 0
    while True:
        stopped = observe is not None and bool(observe(state))
        if stopped or state.n >= n_steps:
            return EvolveResult(state, state.n, newton_total, stopped)
        state = step(state, p, cfg, g)
        newton_total += state.newton_iters
