"""Reference solutions, continuous energies, stability predicates, errors.

Everything needed to judge a numerical run: the exact Gaussian solitary wave
of the unregularized log wave equation, rectangle-rule evaluations of the
continuous energies (regularized and not), the bound on the energy gap
between the two models, the von Neumann stability predicate of the
semi-implicit scheme, and error norms with observed convergence orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    Grid1D,
    _whole,
    _within,
    norm_h1,
    norm_l2,
    norm_linf,
    periodic_forward_diff,
    quad,
    quad_l1,
)
from .nonlinearity import (
    NonlinearityParams,
    reg_log_primitive,
    reg_unreg_gap_density,
    unreg_log_primitive,
)

__all__ = [
    "gausson",
    "gausson_phi",
    "gausson_gamma",
    "gausson_initial_data",
    "continuous_energy_log",
    "continuous_energy_reg",
    "energy_gap_bound",
    "sigma_max",
    "siefd_tau_bound",
    "linearized_amplification",
    "ErrorReport",
    "error_report",
    "observed_order",
]


def gausson(x, t):
    """Exact travelling solution exp(-(k x - c t)^2 / (2 (c^2 - k^2))) with c = 2, k = 1.

    Solves the unregularized log wave equation u_tt - u_xx + u + u ln(u^2) = 0
    identically (unit coupling); the peak travels along x = c t / k = 2t.
    """
    x = np.asarray(x, dtype=float)
    s = x - 2.0 * t
    out = np.exp(-(s * s) / 6.0)
    return out if out.ndim else float(out)


def gausson_phi(x):
    return gausson(x, 0.0)


def gausson_gamma(x):
    """Initial velocity: time derivative of the travelling wave at t = 0."""
    x = np.asarray(x, dtype=float)
    out = (2.0 * x / 3.0) * np.exp(-(x**2) / 6.0)
    return out if out.ndim else float(out)


def gausson_initial_data(g: Grid1D):
    from .schemes import InitialData

    return InitialData(phi=g.sample(gausson_phi), gamma=g.sample(gausson_gamma))


def continuous_energy_log(u: np.ndarray, ut: np.ndarray, lam: float, g: Grid1D) -> float:
    """Rectangle-rule energy of the unregularized model.

    Density u_t^2 + |grad u|^2 + u^2 + lam*(u^2 ln(u^2) - u^2); the gradient
    is the forward difference (discrete surrogate).  The log density extends
    continuously by 0 through u = 0.
    """
    dens = ut**2 + periodic_forward_diff(u, g.h) ** 2 + u**2 + lam * unreg_log_primitive(u**2)
    return quad(dens, g)


def continuous_energy_reg(
    u: np.ndarray, ut: np.ndarray, p: NonlinearityParams, g: Grid1D
) -> float:
    """Rectangle-rule energy of the regularized model: density u_t^2 + |grad u|^2 + u^2 + lam*V(u^2)."""
    dens = ut**2 + periodic_forward_diff(u, g.h) ** 2 + u**2 + p.lam * reg_log_primitive(u**2, p)
    return quad(dens, g)


def energy_gap_bound(
    u0: np.ndarray, p: NonlinearityParams, g: Grid1D
) -> tuple[float, float]:
    """Gap between the two potential-energy integrands and its proven bound.

    The kinetic, gradient and quadratic terms of the two energies coincide
    and are excluded; what remains is |lam| times the quadrature of the
    pointwise (nonnegative) primitive difference, which is bounded by
    4*eps*|lam|*||u0||_L1.  Raises if the bound is violated, which would
    signal a numerics bug since it holds pointwise.  ``p`` has one width.
    """
    _one_width(p, "energy_gap_bound")
    gap = abs(p.lam) * quad(reg_unreg_gap_density(u0**2, p), g)
    bound = 4.0 * p.epsilon * abs(p.lam) * quad_l1(u0, g)
    if gap > bound + 1e-15 * (1.0 + bound):
        raise AssertionError(f"energy gap {gap} exceeds its bound {bound}")
    return gap, bound


def _one_width(p: NonlinearityParams, name: str) -> None:
    """Raise unless ``p`` has a single width: a batch of B needs B calls, one per p.member(m)."""
    if isinstance(p.epsilon, tuple):
        raise ValueError(f"{name} takes one width, got the widths {p.epsilon}; "
                         "pass p.member(m) for each")


def sigma_max(u: np.ndarray, p: NonlinearityParams) -> float:
    """max(|ln eps^2|, |ln(eps^2 + ||u||_inf^2)|), the log-magnitude bound; ``p`` has one width."""
    _one_width(p, "sigma_max")
    uinf = float(np.max(np.abs(u)))
    return max(abs(math.log(p.eps2)), abs(math.log(p.eps2 + uinf * uinf)))


def siefd_tau_bound(h: float, sigma: float) -> float:
    """Frozen-coefficient time-step bound of the semi-implicit scheme, inf if unconditional.

    The linearized scheme, with the log term frozen at sigma, is stable for
    tau <= 2h / sqrt(4 - h^2 - h^2*sigma) when 4 - h^2(1 + sigma) > 0, and
    for every tau otherwise (returned as math.inf, the continuous limit of
    the finite branch).  The fully implicit scheme has no such restriction
    for any h, tau > 0.  It is not a guaranteed stable step of the nonlinear
    scheme on a coarse grid: on the Gausson (eps 0.05) the stability probe
    reads ``ok`` at 0.5 and 0.8 of the bound 0.666 at h = 0.5 but
    ``unstable`` at 0.9 and 0.95, while at h = 0.25 it reads ``ok`` up to
    0.95 and ``unstable`` at 1.05.
    """
    if not (_within([h], 0.0) and _within([sigma], -math.inf)):
        raise ValueError(f"need h finite and > 0 and sigma finite, got h={h}, sigma={sigma}")
    disc = 4.0 - h * h * (1.0 + sigma)
    if disc <= 0.0:
        return math.inf
    return 2.0 * h / math.sqrt(disc)


def linearized_amplification(scheme: str, h: float, tau: float, alpha: float, N: int) -> float:
    """Largest mode amplification |xi| of the frozen-coefficient scheme.

    Freezes the log nonlinearity at the constant value alpha and inserts the
    Fourier ansatz; each mode l obeys xi^2 - 2 theta_l xi + 1 = 0 with

        theta_l = (2 - (1-2w) s_l^2 tau^2) / (2 + tau^2 (alpha + 2w s_l^2 + 1)),

    s_l = (2/h) sin(l pi / N) and w the scheme's Laplacian weight in
    :data:`logkge.schemes.SCHEMES`.  |theta| <= 1 puts both roots on the unit
    circle; |theta| > 1 yields a growing root |theta| + sqrt(theta^2 - 1).
    """
    from .schemes import SCHEMES

    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if not (_within([h, tau], 0.0) and _within([alpha], -math.inf) and _whole(N)):
        raise ValueError(f"need h and tau finite and > 0, alpha finite and N an int >= 1, "
                         f"got h={h}, tau={tau}, alpha={alpha}, N={N!r}")
    w = SCHEMES[scheme]
    ls = np.arange(-(N // 2), N - N // 2)
    s2 = (2.0 / h * np.sin(ls * np.pi / N)) ** 2
    theta = (2.0 - (1.0 - 2.0 * w) * s2 * tau**2) / (2.0 + tau**2 * (alpha + 2.0 * w * s2 + 1.0))
    a = np.abs(theta)
    xi = np.where(a <= 1.0, 1.0, a + np.sqrt(np.maximum(a * a - 1.0, 0.0)))
    return float(np.max(xi))


@dataclass(frozen=True)
class ErrorReport:
    l2: float
    linf: float
    h1: float

    def __post_init__(self):
        if min(self.l2, self.linf, self.h1) < 0.0:
            raise ValueError("norms must be nonnegative")


def error_report(
    numeric: np.ndarray,
    truth: np.ndarray,
    g: Grid1D,
) -> ErrorReport:
    """l2, sup and H1 norms of numeric - truth on the common grid."""
    diff = numeric - truth
    return ErrorReport(
        l2=norm_l2(diff, g),
        linf=norm_linf(diff, g),
        h1=norm_h1(diff, g),
    )


def observed_order(errors: list[tuple[float, float]]) -> list[float]:
    """Convergence orders between consecutive refinement rows.

    Input is a list of (step, error) pairs along a refinement sequence of a
    single parameter (time step, mesh size, or regularization width).  The
    order between rows i and i+1 is log(e_i/e_{i+1}) / log(s_i/s_{i+1}),
    which reduces to log2 of the error ratio under halving.
    """
    if len(errors) < 2:
        raise ValueError("need at least two (step, error) rows")
    orders = []
    for (s1, e1), (s2, e2) in zip(errors, errors[1:]):
        if s1 == s2:
            raise ValueError("steps must change between rows")
        if e1 <= 0.0 or e2 <= 0.0:
            orders.append(math.nan)
        else:
            orders.append(math.log(e1 / e2) / math.log(s1 / s2))
    return orders
