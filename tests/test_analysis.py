import math

import numpy as np
import pytest

from logkge.analysis import (
    ErrorReport,
    continuous_energy_log,
    continuous_energy_reg,
    energy_gap_bound,
    error_report,
    gausson,
    gausson_gamma,
    gausson_initial_data,
    gausson_phi,
    linearized_amplification,
    observed_order,
    siefd_tau_bound,
    sigma_max,
)
from logkge.grid import Grid1D, quad_l1
from logkge.nonlinearity import NonlinearityParams, reg_log_primitive


def random_smooth(g, rng, amplitude=5.0, modes=4):
    """Random trigonometric polynomial, periodic by construction."""
    x = g.nodes
    L = g.b - g.a
    u = np.zeros_like(x)
    for m in range(1, modes + 1):
        u += rng.uniform(-1, 1) * np.cos(2 * np.pi * m * (x - g.a) / L)
        u += rng.uniform(-1, 1) * np.sin(2 * np.pi * m * (x - g.a) / L)
    peak = np.max(np.abs(u))
    if peak > 0:
        u *= rng.uniform(0.0, amplitude) / peak
    return u


class TestGausson:
    def test_origin_value(self):
        assert gausson(0.0, 0.0) == 1.0

    def test_peak_tracking(self):
        # The peak travels along x = c t / k = 2t.
        for t in (0.0, 0.7, 3.1):
            assert gausson(2.0 * t, t) == pytest.approx(1.0, abs=1e-15)

    def test_initial_velocity_is_time_derivative(self):
        xs = np.linspace(-10, 10, 41)
        dt = 1e-6
        fd = (gausson(xs, dt) - gausson(xs, -dt)) / (2 * dt)
        np.testing.assert_allclose(gausson_gamma(xs), fd, rtol=1e-8, atol=1e-10)

    def test_residual_vanishes(self):
        # u_tt - u_xx + u + u ln(u^2) = 0 checked by 6th order finite
        # differences of the closed form on a random space-time sample
        rng = np.random.default_rng(0)
        xs = rng.uniform(-6, 6, size=100)
        ts = rng.uniform(0.0, 3.0, size=10)
        w = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
        offs = np.arange(-3, 4)
        delta = 1e-2
        worst = 0.0
        for t in ts:
            for x in xs:
                u = gausson(x, t)
                utt = np.dot(w, gausson(x, t + offs * delta)) / delta**2
                uxx = np.dot(w, gausson(x + offs * delta, t)) / delta**2
                resid = utt - uxx + u + u * math.log(u * u)
                worst = max(worst, abs(resid))
        assert worst < 1e-8


class TestContinuousEnergies:
    def test_zero_field(self):
        g = Grid1D(-1.0, 1.0, 32)
        z = np.zeros(g.N)
        p = NonlinearityParams(lam=1.0, epsilon=0.1)
        assert continuous_energy_log(z, z, 1.0, g) == 0.0
        assert continuous_energy_reg(z, z, p, g) == 0.0

    def test_constant_field_regularized(self):
        g = Grid1D(-2.0, 3.0, 50)
        p = NonlinearityParams(lam=1.0, epsilon=0.1)
        u = g.sample(lambda x: 1.0)
        z = np.zeros(g.N)
        expected = (g.b - g.a) * (1.0 + reg_log_primitive(1.0, p))
        assert continuous_energy_reg(u, z, p, g) == pytest.approx(expected, rel=1e-12)

    def test_gap_of_example1_data(self):
        g = Grid1D(-16.0, 16.0, 2048)
        p = NonlinearityParams(lam=1.0, epsilon=0.01)
        phi = g.sample(gausson_phi)
        gam = g.sample(gausson_gamma)
        e_reg = continuous_energy_reg(phi, gam, p, g)
        e_log = continuous_energy_log(phi, gam, p.lam, g)
        assert abs(e_reg - e_log) <= 4.0 * p.epsilon * quad_l1(phi, g)


class TestEnergyGapBound:
    def test_zero_data(self):
        g = Grid1D(-1.0, 1.0, 32)
        p = NonlinearityParams(lam=1.0, epsilon=0.1)
        gap, bound = energy_gap_bound(np.zeros(g.N), p, g)
        assert gap == 0.0 and bound == 0.0

    def test_example1_small_epsilon(self):
        g = Grid1D(-16.0, 16.0, 2048)
        p = NonlinearityParams(lam=1.0, epsilon=0.01)
        phi = g.sample(gausson_phi)
        gap, bound = energy_gap_bound(phi, p, g)
        assert gap <= 0.04 * quad_l1(phi, g)
        assert bound == pytest.approx(0.04 * quad_l1(phi, g), rel=1e-14)

    def test_gap_matches_full_energy_difference(self):
        # excluded kinetic/gradient/quadratic terms cancel identically
        g = Grid1D(-16.0, 16.0, 1024)
        p = NonlinearityParams(lam=1.3, epsilon=0.05)
        phi = g.sample(gausson_phi)
        gam = g.sample(gausson_gamma)
        gap, _ = energy_gap_bound(phi, p, g)
        full = abs(
            continuous_energy_reg(phi, gam, p, g)
            - continuous_energy_log(phi, gam, p.lam, g)
        )
        assert gap == pytest.approx(full, rel=1e-9, abs=1e-12)

    def test_bound_never_violated_random_sample(self):
        # 50 random smooth profiles, amplitudes in [0, 5], six decades of eps
        g = Grid1D(-8.0, 8.0, 512)
        rng = np.random.default_rng(42)
        for _ in range(50):
            u0 = random_smooth(g, rng)
            for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
                p = NonlinearityParams(lam=1.0, epsilon=eps)
                gap, bound = energy_gap_bound(u0, p, g)
                assert gap <= bound

    def test_rejects_a_batch(self):
        # The bound is 4*eps*|lam|*||u0||_L1 of one width, so one call is one member.
        g = Grid1D(-1.0, 1.0, 32)
        p = NonlinearityParams(1.0, (0.1, 0.2))
        with pytest.raises(ValueError, match=r"one width, got the widths \(0.1, 0.2\)"):
            energy_gap_bound(g.sample(gausson_phi), p, g)


class TestSigmaMax:
    def test_zero_field(self):
        g = Grid1D(-1.0, 1.0, 32)
        p = NonlinearityParams(lam=1.0, epsilon=0.1)
        assert sigma_max(np.zeros(g.N), p) == pytest.approx(
            4.605170185988091, rel=1e-14
        )

    def test_unit_amplitude(self):
        g = Grid1D(-1.0, 1.0, 32)
        p = NonlinearityParams(lam=1.0, epsilon=0.1)
        u = g.sample(lambda x: np.cos(np.pi * x))
        assert sigma_max(u, p) == pytest.approx(abs(math.log(0.01)), rel=1e-14)

    def test_large_amplitude(self):
        g = Grid1D(-1.0, 1.0, 32)
        p = NonlinearityParams(lam=1.0, epsilon=0.1)
        u = g.sample(lambda x: 10.0)
        assert sigma_max(u, p) == pytest.approx(math.log(100.01), rel=1e-12)

    def test_monotone_in_amplitude(self):
        g = Grid1D(-1.0, 1.0, 32)
        p = NonlinearityParams(lam=1.0, epsilon=0.05)
        vals = [
            sigma_max(g.sample(lambda x, a=a: a), p)
            for a in (0.0, 0.5, 1.0, 3.0, 10.0, 100.0)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_rejects_a_batch(self):
        p = NonlinearityParams(1.0, (0.1, 0.2))
        with pytest.raises(ValueError, match=r"one width, got the widths \(0.1, 0.2\)"):
            sigma_max(np.ones(8), p)


class TestTauBound:
    def test_boundary_case_unconditional(self):
        assert math.isinf(siefd_tau_bound(2.0, 0.0))

    def test_closed_form_value(self):
        sigma = abs(math.log(0.01))
        assert siefd_tau_bound(0.1, sigma) == pytest.approx(0.10070809690676843, rel=1e-12)

    def test_large_sigma_unconditional(self):
        assert math.isinf(siefd_tau_bound(0.1, 1e9))

    def test_continuity_toward_unconditional(self):
        # bound grows without limit as the discriminant closes
        h = 0.5
        sigma_star = 4.0 / h**2 - 1.0
        bounds = [siefd_tau_bound(h, sigma_star - d) for d in (1.0, 1e-2, 1e-4, 1e-6)]
        assert all(b < b_next for b, b_next in zip(bounds, bounds[1:]))
        assert bounds[-1] > 1e3

    @pytest.mark.parametrize(
        "h, sigma",
        [(math.nan, 1.0), (0.5, math.nan), (math.inf, 1.0), (0.5, math.inf), (0.5, -math.inf),
         (0.0, 1.0), (-0.5, 1.0), (True, 1.0), (0.5, True), (np.True_, 1.0), (None, 1.0)],
    )
    def test_rejects_h_or_sigma_off_the_reals(self, h, sigma):
        # A NaN bound would compare false to every tau; a bool would pass as 1.
        with pytest.raises(ValueError, match="need h finite and > 0 and sigma finite"):
            siefd_tau_bound(h, sigma)


class TestLinearizedStability:
    def test_cnfd_always_contractive(self):
        for h in (0.5, 0.05):
            for tau in (0.01, 0.1, 10.0):
                for alpha in (0.0, 5.0, 100.0):
                    assert linearized_amplification("cnfd", h, tau, alpha, 128) <= 1.0

    def test_siefd_frontier_matches_bound(self):
        # mode-wise |xi| <= 1 exactly when tau is within the predicate
        for h in (0.5, 0.1, 0.03125):
            for alpha in (0.0, 1.0, 4.605, 20.0):
                bound = siefd_tau_bound(h, alpha)
                if math.isinf(bound):
                    for tau in (0.01, 0.1, 1.0, 10.0):
                        assert linearized_amplification("siefd", h, tau, alpha, 256) <= 1.0 + 1e-12
                else:
                    for fac in (0.5, 0.9, 0.999):
                        assert (
                            linearized_amplification("siefd", h, fac * bound, alpha, 256)
                            <= 1.0 + 1e-12
                        )
                    for fac in (1.001, 1.1, 2.0):
                        assert (
                            linearized_amplification("siefd", h, fac * bound, alpha, 256)
                            > 1.0 + 1e-12
                        )


    @pytest.mark.parametrize(
        "h, tau, alpha, N",
        [(0.5, math.nan, 1.0, 8), (math.nan, 0.5, 1.0, 8), (0.5, 0.0, 1.0, 8),
         (-0.5, 0.5, 1.0, 8), (0.5, math.inf, 1.0, 8), (True, 0.5, 1.0, 8),
         (0.5, 0.5, math.nan, 8), (0.5, 0.5, -math.inf, 8),
         (0.5, 0.5, 1.0, 0), (0.5, 0.5, 1.0, 2.5), (0.5, 0.5, 1.0, True)],
    )
    def test_rejects_a_grid_off_the_reals(self, h, tau, alpha, N):
        # A NaN h or tau returned NaN; N = 0 failed inside numpy's max.
        with pytest.raises(ValueError, match="need h and tau finite and > 0, alpha finite"):
            linearized_amplification("cnfd", h, tau, alpha, N)

    def test_rejects_an_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme 'leapfrog'"):
            linearized_amplification("leapfrog", 0.5, 0.1, 1.0, 8)


class TestErrorsAndOrders:
    def test_identity_gives_zero(self):
        g = Grid1D(-1.0, 1.0, 32)
        u = g.sample(lambda x: np.sin(np.pi * x))
        rep = error_report(u, u, g)
        assert rep.l2 == rep.linf == rep.h1 == 0.0

    def test_h1_dominates_l2(self):
        g = Grid1D(-1.0, 1.0, 64)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(g.N)
        v = rng.standard_normal(g.N)
        rep = error_report(u, v, g)
        assert rep.h1 >= rep.l2

    def test_negative_norms_rejected(self):
        with pytest.raises(ValueError):
            ErrorReport(l2=-1.0, linf=0.0, h1=0.0)

    def test_order_definition(self):
        e = 1e-4
        assert observed_order([(0.1, 4 * e), (0.05, e)]) == [pytest.approx(2.0)]
        # An error of 0 has no order.
        assert math.isnan(observed_order([(0.1, 1e-3), (0.05, 0.0)])[0])

    def test_order_requires_two_rows(self):
        with pytest.raises(ValueError):
            observed_order([])
        with pytest.raises(ValueError):
            observed_order([(0.1, 1e-3)])
        with pytest.raises(ValueError, match="steps must change"):
            observed_order([(0.1, 1e-3), (0.1, 1e-4)])

    def test_paper_temporal_table_rates(self):
        # errors as printed in the reference temporal-accuracy table; the
        # printed rates (1.96, 1.98, 1.99, 1.99) came from unrounded errors
        errs = [1.15e-3, 2.94e-4, 7.43e-5, 1.87e-5, 4.70e-6]
        taus = [0.1 * 2.0**-j for j in range(5)]
        rates = observed_order(list(zip(taus, errs)))
        np.testing.assert_allclose(rates, [1.96, 1.98, 1.99, 1.99], atol=0.02)

    def test_quartering_step_order(self):
        # generalizes to non-halving refinements, e.g. eps quartering
        rows = [(1e-3, 8e-3), (2.5e-4, 2e-3)]
        assert observed_order(rows) == [pytest.approx(1.0)]
