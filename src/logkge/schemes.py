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
one Newton solve with the analytic Jacobian (cyclic tridiagonal for cnfd,
diagonal for siefd) whose every iteration is one line search, its first
trial the full step: :func:`evolve` -> :meth:`Run.advance` -> :func:`_solve_newton`.
:func:`evolve` returns the :class:`Run` it stepped, which keeps no records but
Newton counts: its one hook ``observe(run)`` sees the run at every step from
the Taylor start on and may end it, and callers keep energies and snapshots.
A step never writes a layer it has handed out: each step makes u^{n+1} anew,
so a layer an observer keeps holds its values for good.

Each piece of work in a step is done once, and a term of weight 0 not at
all: cnfd forms no 0 * u^n and no energy cross product, siefd no 0 * u^{n-1}
and no gradient norms.  known = w u^{n-1} + (1-2w) u^n and its Laplacian
are formed once per step, so a trial layer costs one Laplacian, of
w u^{n+1} + known, and none when w = 0.  Halving commutes with rounding,
so at w = 1/2 that Laplacian is 1/2 lap(u^{n+1} + u^{n-1}) bit for bit.
A :class:`Run` carries V(u^2) of its two layers (V = ``reg_log_primitive``):
V(u^{n-1}^2) is fixed for the whole solve, every Newton iterate evaluates V
once and the solution's V is carried on, so a one-iteration step costs two
evaluations of V, and :func:`discrete_energy` of the run reuses the carried
pair.  One fused kernel gives the discrete gradient and its Jacobian
diagonal together at the start iterate.  The cnfd Jacobian is solved by
:func:`solve_cyclic_tridiag`, which solves the Sherman-Morrison corner
vector only on the rows where it is representable.  Its tridiagonal solves
are LAPACK's ``dgtsv`` through scipy's f2py wrapper, loaded from the
compiled ``scipy.linalg._flapack`` alone (:func:`_load_flapack`), because
importing the ``scipy.linalg`` package to reach it cost a fresh
``import logkge`` more than half its time and a third of its memory: 0.29 s
and 58 MiB peak RSS with the package, 0.13 s and 38 MiB without (medians of
10 fresh-process pairs on 2 vCPUs).  The routine, its library and its
arguments are those ``scipy.linalg.lapack`` would give, so every bit is too.

Work layers.  A run owns its N-sized scratch arrays, ``Run.work``.  The
step writes every temporary into them with ``out=``, in the order of the
plain expressions, so each layer is bit for bit what those give; only V of
each iterate and the trial iterates are new arrays.  So a step's memory
does not grow and shrink, and the allocator does not trim and regrow its
heap on every step.  Runs in other threads have layers of their own.

Members.  With B widths eps in :class:`~logkge.nonlinearity.NonlinearityParams`
a layer is a (B, N) array whose row m is member m, and one call steps all B
members on a shared grid and time step; a 1-D layer with a single width is
one member.  Every operation acts on rows alone and every norm is a row-wise
pairwise sum, so each row is bit for bit the trajectory of that member run
alone: Newton evaluates all rows at once but steps only the members above
their own tolerance (a converged member's row is never changed), each
member's cnfd Jacobian is its own cyclic solve, and energies are per member.
Batching saves per-call overhead, which dominates small grids.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
import warnings
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from types import ModuleType

import numpy as np
import scipy

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
    fused_discrete_gradient,
    reg_log,
    reg_log_primitive,
)

__all__ = [
    "SCHEMES",
    "StepperConfig",
    "InitialData",
    "Run",
    "NonConvergenceError",
    "StabilityWarning",
    "first_step",
    "discrete_energy",
    "solve_cyclic_tridiag",
    "evolve",
    "relative_drift",
]

# Laplacian weight w of each outer layer u^{n+1}, u^{n-1}; u^n carries 1 - 2w.
# The step's residual and discrete_energy implement w = 1/2 and w = 0 only.
SCHEMES = {"cnfd": 0.5, "siefd": 0.0}


class NonConvergenceError(RuntimeError):
    """Implicit solve failed to reach tolerance; carries the last residual.

    In a batch the message names the rows of the members that failed, and
    ``residual`` is that of the first of them.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class StabilityWarning(UserWarning):
    """Emitted when a siefd run starts above its predicted stable time step."""


def _whole(value) -> bool:
    """A count of steps or iterations: an integer >= 1 (2.5 and True are not one)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True)
class StepperConfig:
    scheme: str
    tau: float
    newton_tol: float = 1e-12
    newton_max_iter: int = 50

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {tuple(SCHEMES)}, got {self.scheme!r}")
        if isinstance(self.tau, (bool, np.bool_)) or not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")
        if not 0.0 < self.newton_tol <= 1e-6:
            raise ValueError(f"newton_tol must lie in (0, 1e-6], got {self.newton_tol}")
        if not _whole(self.newton_max_iter):
            raise ValueError(f"newton_max_iter must be an int >= 1, got {self.newton_max_iter!r}")


@dataclass(frozen=True)
class InitialData:
    """Initial layer phi and velocity gamma, each of length N (or (B, N) for B members)."""

    phi: np.ndarray
    gamma: np.ndarray


def _work(shape) -> dict:
    """A run's scratch: arrays of ``shape`` by name, made at first use; "kernel" is the kernel's."""
    return defaultdict(partial(np.empty, shape))


class Run:
    """A trajectory being stepped: layers ``prev``, ``curr`` = (u^{n-1}, u^n) at step ``n``.

    ``p``, ``cfg`` and ``g`` set the scheme.  ``v`` is V(u^{n-1}^2), V(u^n^2),
    V being ``reg_log_primitive``: computed from the layers the run starts on,
    then carried by :meth:`advance`, which also sets ``newton_iters``, the last
    step's iterations (one int per member for (B, N) layers).  ``work`` holds
    the scratch layers of the step and of :func:`discrete_energy`.
    ``newton_by_member`` holds each member's iterations over the steps the run
    took, from the Taylor start in a run of :func:`evolve`, which sets
    ``stopped``.  A run advances in place, but no step writes a layer it has
    handed out, so an observer may keep ``run.prev`` and ``run.curr``.
    """

    def __init__(self, prev: np.ndarray, curr: np.ndarray, p: NonlinearityParams,
                 cfg: StepperConfig, g: Grid1D, n: int = 1):
        shape = p.layer_shape(g.N)
        if not prev.shape == curr.shape == shape:
            raise ValueError(f"layers of shapes {prev.shape}, {curr.shape}; grid wants {shape}")
        if not _whole(n):
            raise ValueError(f"n must be an int >= 1, got {n!r}")
        self.prev, self.curr, self.n, self.newton_iters = prev, curr, n, 0
        self.p, self.cfg, self.g = p, cfg, g
        self.v = tuple(reg_log_primitive(x * x, p) for x in (prev, curr))
        self.work = _work(np.atleast_2d(curr).shape)
        self.newton_by_member, self.stopped = (0,) * len(p.widths), False

    def advance(self) -> Run:
        """Advance (u^{n-1}, u^n) to (u^n, u^{n+1}) with the scheme of ``cfg``; returns the run."""
        nxt, v_nxt, norms = _solve_newton(self)
        iters = tuple(len(h) - 1 for h in norms)
        self.newton_by_member = tuple(map(sum, zip(self.newton_by_member, iters)))
        self.prev, self.curr, self.v, self.n, self.newton_iters = (
            self.curr, nxt, (self.v[1], v_nxt), self.n + 1, iters if nxt.ndim > 1 else iters[0])
        return self

    @property
    def steps(self) -> int:
        """1 + B (n - 1) for B members at step n: one Taylor start for all, and each one's steps.

        For one member that is n.  Summed over runs with ``newton_total``, a
        batch counts as B one-member runs but for their Taylor starts.
        """
        return 1 + len(self.newton_by_member) * (self.n - 1)

    @property
    def newton_total(self) -> int:
        return sum(self.newton_by_member)

    @property
    def newton_avg(self) -> float:
        """Mean Newton iterations per member step (the Taylor start has none)."""
        return self.newton_total / (self.steps - 1) if self.steps > 1 else 0.0

    def member_newton_avg(self, m: int) -> float:
        """:attr:`newton_avg` of member m alone."""
        return self.newton_by_member[m] / (self.n - 1) if self.n > 1 else 0.0


def first_step(
    init: InitialData, p: NonlinearityParams, cfg: StepperConfig, g: Grid1D
) -> np.ndarray:
    """Taylor start: u^1 = phi + tau*gamma + tau^2/2 * u_tt(0) evaluated nodewise."""
    phi, gamma = init.phi, init.gamma
    accel = periodic_second_diff(phi, g.h) - phi - p.lam * phi * reg_log(phi * phi, p)
    return phi + cfg.tau * gamma + 0.5 * cfg.tau**2 * accel


def _step_equation(up, uc, p: NonlinearityParams, cfg: StepperConfig, g: Grid1D, work: dict):
    """(residual(cand, dg, out), start, b) of one step, built once from the known layers.

    ``residual`` is the left-hand side of the scheme equation at a trial
    layer cand = u^{n+1}, given dg = DG(cand, u^{n-1}), written into
    ``out``, for every row of the layers at once.
    b = (2u^n - u^{n-1})/tau^2 - u^{n-1}/2 + lap(known) is the
    candidate-independent part of the equation, with
    known = w u^{n-1} + (1-2w) u^n, and start = 2u^n - u^{n-1} the linear
    extrapolation that b divides by tau^2.  2u^n is formed once.  Each
    array is a ``work`` layer written with ``out=`` in the order of the
    plain expressions, so it is bit for bit what they give.
    """
    w = SCHEMES[cfg.scheme]
    tau2 = cfg.tau**2
    known = uc if w == 0.0 else np.multiply(up, w, out=work["known"])  # 1 - 2w is 0 at w = 1/2
    lap_known = periodic_second_diff(known, g.h, work["lap_known"])
    two_uc = np.multiply(uc, 2.0, out=work["two_uc"])
    start = np.subtract(two_uc, up, out=work["start"])
    b = np.divide(start, tau2, out=work["res"])  # measured before the first residual replaces it
    b -= np.multiply(up, 0.5, out=work["tmp"])
    b += lap_known

    def residual(cand, dg, out):
        tmp = work["tmp"]
        r = np.subtract(cand, two_uc, out=out)
        r += up
        r /= tau2
        if w == 0.0:
            r -= lap_known
        else:
            lap_of = np.add(np.multiply(cand, w, out=tmp), known, out=tmp)
            r -= periodic_second_diff(lap_of, g.h, work["lap"])
        r += np.multiply(np.add(cand, up, out=tmp), 0.5, out=tmp)
        r += np.multiply(dg, p.lam, out=tmp)
        return r

    return residual, start, b


def solve_cyclic_tridiag(diag: np.ndarray, off: float, rhs: np.ndarray, work=None) -> np.ndarray:
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

    ``diag`` and ``rhs`` may also be (B, N): B systems sharing ``off``,
    each solved on its own as above.  Every array handed to ``dgtsv`` is
    the solver's own and is overwritten in place, so LAPACK's wrapper copies
    none of them.  Given a run's ``work`` (see :class:`Run`), whose layers
    have the shape of ``rhs``, x and those arrays are its layers.
    """
    n = diag.shape[-1]
    if n < 3:
        raise ValueError("cyclic tridiagonal solve needs at least 3 unknowns")
    work = _work(np.shape(rhs)) if work is None else work
    x = work["x"]
    x[...] = rhs  # nothing to copy when rhs is this layer already
    for dm, xm in zip(diag.reshape(-1, n), x.reshape(-1, n)):
        y = _solve_cyclic_row(dm, off, xm, work)
        if y is not xm and y.base is not x:  # dgtsv solved in a copy
            xm[...] = y
    return x


def _solve_cyclic_row(diag: np.ndarray, off: float, b: np.ndarray, work: dict) -> np.ndarray:
    """:func:`solve_cyclic_tridiag` of one system; overwrites the right-hand side b."""
    n = diag.size
    gamma = -diag[0]
    d, dl, du = (work[k].reshape(-1)[:size] for k, size in (("d", n), ("dl", n - 1), ("du", n - 1)))
    d[...] = diag
    d[0] -= gamma
    d[-1] -= off * off / gamma
    m = _q_window(diag, off, gamma)
    # Taken before the y solve overwrites d.  A zero off-diagonal between
    # the two end blocks of a window decouples them.
    d_q = d.copy() if m is None else np.concatenate((d[:m], d[-m:]))
    band_q = np.full(d_q.size - 1, off)
    if m is not None:
        band_q[m - 1] = 0.0
    dl.fill(off)
    du.fill(off)
    y = _gtsv(dl, d, du, b)
    u = np.zeros(d_q.size)
    u[0] = gamma
    u[-1] = off
    q = _gtsv(band_q, d_q, band_q.copy(), u)
    vy = y[0] + off / gamma * y[-1]
    vq = q[0] + off / gamma * q[-1]
    c = vy / (1.0 + vq)
    if m is None:
        y -= q * c
    else:
        y[:m] -= q[:m] * c
        y[-m:] -= q[m:] * c
    return y


# q entries below 2^-_Q_FLOOR_BITS are taken as 0 (see solve_cyclic_tridiag).
_Q_FLOOR_BITS = 1100


def _q_window(diag: np.ndarray, off: float, gamma: float) -> int | None:
    """Rows m at each end on which the corner vector q is solved; None for all.

    All rows when off = 0, s <= 2, an entry is not finite, or 2m >= N.  s
    is capped at 1e6 so that s^2 stays finite; a smaller s only widens the
    window.
    """
    s = min(diag.min() / abs(off), 1e6) if off != 0.0 else 0.0
    if not s > 2.0:
        return None
    root = math.sqrt(s * s - 4.0)
    # log2 of the bound's factor (|gamma/off| + 1)/sqrt(s^2 - 4), finite for tiny |off|
    factor = 1.0 + max(math.log2(abs(gamma)) - math.log2(abs(off)), 0.0) - math.log2(root)
    m = (_Q_FLOOR_BITS + factor) / math.log2(0.5 * (s + root))  # log2(1/r) = log2((s+root)/2)
    return math.ceil(m) if 2.0 * m + 2.0 < diag.size else None


def _load_flapack(directory: str) -> ModuleType:
    """scipy's compiled LAPACK wrappers, ``scipy.linalg._flapack``, from ``directory``.

    The extension is loaded by file path, so the ``scipy.linalg`` package
    is not imported, and registered under its own name, so a later
    ``import scipy.linalg`` finds it there and both share one module (its
    ``lapack`` imports it by name; no package attribute is set).  A module
    already registered under that name is returned as it is.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    path = os.path.join(directory, "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"no _flapack extension in {directory} (scipy {scipy.__version__})")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_dgtsv = _load_flapack(os.path.join(os.path.dirname(scipy.__file__), "linalg")).dgtsv


def _gtsv(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with diagonals dl, d, du.

    Overwrites all four; the solution is returned in ``b``.  ``dgtsv`` is
    scipy's wrapper of LAPACK's routine, the very object that
    ``scipy.linalg.lapack`` exports, loaded without importing that package
    to save start-up time and memory (see the module docstring); its bits
    are the same.
    """
    # The flags are overwrite_dl, _d, _du and _b, given by position: f2py
    # parses keywords at about half the cost of a small solve.
    _, _, _, x, info = _dgtsv(dl, d, du, b, 1, 1, 1, 1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def _newton_step(jac_diag: np.ndarray, res: np.ndarray, coupling: float, work: dict):
    """Solve J delta = -res, J = diag(jac_diag) + periodic ``coupling``, every row, in work["x"]."""
    rhs = np.negative(res, out=work["x"])
    if coupling == 0.0:
        return np.divide(rhs, jac_diag, out=rhs)
    return solve_cyclic_tridiag(jac_diag, coupling, rhs, work)


def _solve_newton(run: Run):
    """Solve the run's implicit step equation; returns (next layer, V of it, residual histories).

    Newton from the linear extrapolation 2u^n - u^{n-1}, stopping at
    ||R|| <= newton_tol * (1 + ||b||), b being the candidate-independent
    part of the equation; each member's history holds the start and every
    iteration.  After the first iteration it also stops at the rounding
    floor of R, 2^-53 * lin_diag * (2||u^n|| + ||u^{n-1}||), lin_diag being
    the linear part of the Jacobian diagonal.  Where u^{n+1} passes near 0,
    ||b|| is small beside the terms R is formed from, and R stagnates there
    above a tight tolerance.  Elsewhere the floor is at most 0.055 of
    newton_tol * (1 + ||b||) at the default tolerance over the desk tables
    and figures.  Each iteration is one line search.  Where the Jacobian
    diagonal d is positive and finite, its first trial is the full step on
    d, taken if its residual is finite.  Otherwise, or if that residual is
    not, the search goes on along the step on the clamped diagonal
    max(d, 0.1*lin_diag) (lin_diag where d is not finite) at alpha = 1,
    1/2, ..., 2^-12 until the residual drops by the Armijo factor
    1 - 1e-4*alpha.  Raises :class:`NonConvergenceError` after
    ``newton_max_iter`` iterations, or when no alpha passes (the member
    stalled).  Each member is its own search over whole layers, worked on
    as (B, N), a 1-D layer as one row, with temporaries in ``run.work``.
    Every evaluation covers all B rows: a trial of the line search holds
    each member still searching at its own step and every other member at
    its current iterate, copied, and only the rows of the members whose
    trial passed are taken.  Each trial costs one ``reg_log_primitive``
    call; the start iterate's residual and Jacobian share one pass of the
    fused kernel.
    """
    p, cfg, g, work = run.p, run.cfg, run.g, run.work
    shape = run.curr.shape
    up, uc, v_prev = (x.reshape(-1, shape[-1]) for x in (run.prev, run.curr, run.v[0]))
    w = SCHEMES[cfg.scheme]
    residual, start, b = _step_equation(up, uc, p, cfg, g, work)
    tol = [cfg.newton_tol * (1.0 + x) for x in norm_l2(b, g, work["tmp"]).tolist()]
    coupling = -w / g.h**2
    lin_diag = 1.0 / cfg.tau**2 + 0.5 + 2.0 * w / g.h**2
    res_out = [work["res"], work["trial_res"]]  # the accepted residual's layer, the trials'

    def kernel(cand, v_cand, jacobian):
        dg, dz = fused_discrete_gradient(cand, up, v_cand, v_prev, p, jacobian,
                                         (work["dg"], work["jac"]), work.setdefault("kernel", {}))
        return dg, (np.add(np.multiply(dz, p.lam, dz), lin_diag, dz) if jacobian else None)

    def evaluate(cand, res, jacobian=False):
        """(cand, residual, V(cand^2)), the residual norms and the Jacobian diagonal."""
        v_cand = reg_log_primitive(np.multiply(cand, cand, out=work["tmp"]), p)
        dg, jac_diag = kernel(cand, v_cand, jacobian)
        res = residual(cand, dg, res)
        return (cand, res, v_cand), norm_l2(res, g, work["tmp"]).tolist(), jac_diag

    (cand, res, v_cand), rnorm, jac_diag = evaluate(start, res_out[0], jacobian=True)
    norms = [[r] for r in rnorm]  # each member's residual history
    going = members = range(len(norms))
    for it in range(cfg.newton_max_iter + 1):  # the last pass only tests
        # A member still going has taken every iteration; one that stalled has not.
        going = [m for m in going if len(norms[m]) > it and not norms[m][-1] <= tol[m]]
        if going and it == 1:
            # R sums terms of about lin_diag * |u| over u^{n+1} ~ 2u^n - u^{n-1},
            # 2u^n and u^{n-1}; it stagnates near one unit roundoff of their size.
            floor = zip(norm_l2(uc, g, work["tmp"]).tolist(), norm_l2(up, g, work["tmp"]).tolist())
            tol = [max(t, 2.0**-53 * lin_diag * (2.0 * c + b)) for t, (c, b) in zip(tol, floor)]
            going = [m for m in going if not norms[m][-1] <= tol[m]]
        if not going or it == cfg.newton_max_iter:
            break
        jd = kernel(cand, v_cand, True)[1] if jac_diag is None else jac_diag
        # tries[m] is the next trial of member m searching: -1, the full step on a
        # positive, finite jd (min/max propagate NaN), or k >= 0, alpha = 2^-k
        # along the step on the clamped diagonal.
        lo, hi = jd.min(axis=-1).tolist(), jd.max(axis=-1).tolist()
        tries = {m: -1 if 0.0 < lo[m] and hi[m] < math.inf else 0 for m in going}
        jac_diag = None
        while tries:
            full = len(tries) == len(norms) and max(tries.values()) < 0
            if min(tries.values()) <= 0:  # steps to form: full ones, and clamped ones to start on
                # Every row off its full step is clamped, idle ones too, so the solve
                # meets no diagonal <= 0; a row clamped before keeps its bits.
                for d in [jd[m] for m in members if tries.get(m) != -1]:
                    d[...] = np.where(np.isfinite(d), np.maximum(d, 0.1 * lin_diag), lin_diag)
                delta = _newton_step(jd, res, coupling, work)
            alpha = [[0.5 ** max(tries.get(m, 0), 0)] for m in members]
            trial = cand + (delta if full else np.multiply(delta, alpha, out=work["step"]))
            for m in [m for m in members if m not in tries]:  # iterates, copied
                trial[m] = cand[m]
            layers, t_norm, _ = evaluate(trial, res_out[1])
            won = [m for m, k in tries.items() if (math.isfinite(t_norm[m]) if k < 0 else
                   t_norm[m] < norms[m][-1] * (1.0 - 1e-4 * 0.5**k))]
            for m in won:
                norms[m].append(t_norm[m])
            if len(won) == len(norms):
                cand, res, v_cand = layers
                res_out.reverse()
            else:
                for m in won:
                    cand[m], res[m], v_cand[m] = (x[m] for x in layers)
                del trial, layers  # not held while the next trial is formed
            # No step down to alpha = 2^-12 passed: the member leaves the search stalled.
            tries = {m: k + 1 for m, k in tries.items() if m not in won and k < 12}
    failed = [m for m, h in enumerate(norms) if not h[-1] <= tol[m]]
    if failed:
        h, t = norms[failed[0]], tol[failed[0]]
        where = f" on members {failed}" if len(shape) > 1 else ""
        if len(h) <= cfg.newton_max_iter:  # it stalled before its budget was spent
            where += ": no guarded step down to alpha = 2^-12 decreased the residual"
        raise NonConvergenceError(
            f"Newton stopped at residual {h[-1]:.3e} after {len(h) - 1} iterations "
            f"(tolerance {t:.3e}){where}",
            residual=h[-1],
        )
    nxt = cand.copy() if cand is start else cand  # the start iterate is a work layer
    return nxt.reshape(shape), v_cand.reshape(shape), norms


def discrete_energy(run: Run):
    """Exactly conserved two-layer energy of the run's scheme at its layers.

    With (v, u) = (run.prev, run.curr) playing (u^n, u^{n+1}) and w the
    scheme's Laplacian weight:

        ||(u - v)/tau||^2 + w (||D+ u||^2 + ||D+ v||^2) + (1-2w) (D+ u, D+ v)
            + (||u||^2 + ||v||^2)/2 + lam * h/2 * sum_j [ V(u_j^2) + V(v_j^2) ]

    where V is the primitive of the regularized log.  The gradient term is
    the average of the two squared forward-difference norms for cnfd, and
    the sign-indefinite cross product h*sum (D+ u)(D+ v) for siefd (no
    positivity is claimed for the latter).  Each ||x||^2 is the sum of
    squares h*sum x_j^2 (``inner(x, x, g)``), which a (B, N) row gets bit
    for bit as a single layer does.  V of the two layers is the run's
    carried pair and the temporaries are its ``work`` layers.
    A float for 1-D layers, one energy per member for (B, N) layers.
    """
    p, cfg, g = run.p, run.cfg, run.g
    w = SCHEMES[cfg.scheme]
    v, u, h = run.prev, run.curr, g.h
    # Between steps no layer of the step's work is in use, so the energy borrows four.
    ut, du, dv, prod = (run.work[k].reshape(u.shape) for k in ("res", "trial_res", "dg", "tmp"))
    ut = np.divide(np.subtract(u, v, out=ut), cfg.tau, out=ut)
    kinetic = inner(ut, ut, g, prod)
    du, dv = periodic_forward_diff(u, h, du), periodic_forward_diff(v, h, dv)
    # w is 1/2, where the cross term's weight 1 - 2w is 0, or 0, where it is 1.
    grad = w * (inner(du, du, g, prod) + inner(dv, dv, g, prod)) if w else inner(du, dv, g, prod)
    mass = 0.5 * (inner(u, u, g, prod) + inner(v, v, g, prod))
    v_prev, v_curr = run.v
    pot = np.add(v_curr, v_prev, out=ut)
    energy = kinetic + grad + mass + p.lam * 0.5 * h * pot.sum(axis=-1)
    return energy if energy.ndim else float(energy)


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
    observe: Callable[[Run], object] | None = None,
) -> Run:
    """Run a trajectory for n_steps time steps from the Taylor first step; returns its run.

    The trajectory is one :class:`Run` from :func:`first_step`; each later
    step is one :meth:`Run.advance` (one guarded Newton solve, whose
    :class:`NonConvergenceError` propagates).  ``observe(run)`` is called
    with the run at the Taylor layer (n = 1, ``prev`` = phi) and after every
    later step, and reads ``run.prev``, ``run.curr``, ``run.n`` and
    ``discrete_energy(run)``; a true return ends the run there and sets
    ``stopped``.  The run returned holds the Newton counts and may be
    advanced on.  Energies, snapshots and blow-up tests are the observer's
    business.  For siefd, warns once if tau exceeds the stability bound
    predicted from the initial layer.

    With B widths in ``p`` the run steps B members at once: phi and gamma
    are (B, N), row m being member m's data, or (N,) data that every member
    starts from.  Every layer is (B, N), and a Newton failure of
    any member ends the run with an error naming the failed rows.  Each row
    is bit for bit the run of that member alone.
    """
    if not _whole(n_steps):
        raise ValueError(f"n_steps must be an int >= 1, got {n_steps!r}")
    shape = p.layer_shape(g.N)
    phi, gamma = init.phi, init.gamma
    if len(shape) > 1 and phi.shape == gamma.shape == (g.N,):
        phi, gamma = np.tile(phi, (shape[0], 1)), np.tile(gamma, (shape[0], 1))
    if phi.shape != shape or gamma.shape != shape:
        raise ValueError(
            f"initial data has shapes {phi.shape} and {gamma.shape}, grid wants {shape}"
        )
    # Rows one after another in memory: numpy lays some results of strided
    # operands out column-major, and a row sum over those rounds differently.
    init = InitialData(np.ascontiguousarray(phi), np.ascontiguousarray(gamma))
    if cfg.scheme == "siefd":
        phis = init.phi.reshape(-1, g.N)
        bound = min(siefd_tau_bound(g.h, sigma_max(phi, p.member(m))) for m, phi in enumerate(phis))
        if cfg.tau > bound:
            warnings.warn(
                f"siefd time step tau={cfg.tau:.6g} exceeds the predicted stable "
                f"bound {bound:.6g} for this layer; expect mode growth",
                StabilityWarning,
                stacklevel=2,
            )

    run = Run(init.phi, first_step(init, p, cfg, g), p, cfg, g)
    while True:
        run.stopped = observe is not None and bool(observe(run))
        if run.stopped or run.n >= n_steps:
            return run
        run.advance()
