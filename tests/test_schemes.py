import math
import warnings

import numpy as np
import pytest

from logkge.analysis import error_report, gausson, gausson_initial_data
from logkge.grid import Grid1D, GridFunction, norm_l2, norm_linf
from logkge.nonlinearity import NonlinearityParams, discrete_gradient_dz1
from logkge.schemes import (
    InitialData,
    NonConvergenceError,
    StabilityWarning,
    StepperConfig,
    WaveState,
    assemble_residual,
    discrete_energy,
    evolve,
    first_step,
    solve_cyclic_tridiag,
    solve_newton,
    step,
)

P = NonlinearityParams(lam=1.0, epsilon=0.05)


@pytest.fixture
def g():
    return Grid1D(-1.0, 1.0, 64)


def example2_data(g):
    return InitialData(
        phi=GridFunction.sample(g, lambda x: np.cos(np.pi * x)),
        gamma=GridFunction.sample(g, lambda x: np.sin(np.pi * x)),
    )


def amplitude5_data(g):
    return InitialData(
        phi=GridFunction.sample(g, lambda x: 5.0 * np.cos(3 * np.pi * x)),
        gamma=GridFunction.sample(g, lambda x: 4.0 * np.sin(np.pi * x)),
    )


def zero_data(g):
    return InitialData(phi=GridFunction.zeros(g), gamma=GridFunction.zeros(g))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepperConfig(scheme="leapfrog", tau=0.1)
        with pytest.raises(ValueError):
            StepperConfig(scheme="cnfd", tau=0.0)
        with pytest.raises(ValueError):
            StepperConfig(scheme="cnfd", tau=0.1, newton_tol=1e-3)
        with pytest.raises(ValueError):
            StepperConfig(scheme="cnfd", tau=0.1, newton_max_iter=0)


class TestFirstStep:
    def test_zero_data_stays_zero(self, g):
        cfg = StepperConfig("cnfd", tau=0.01)
        st = first_step(zero_data(g), P, cfg, g)
        assert norm_linf(st.curr, g) == 0.0
        assert st.n == 1 and st.t == cfg.tau

    def test_tau_to_zero_limit(self, g):
        init = InitialData(
            phi=GridFunction.sample(g, lambda x: np.cos(np.pi * x)),
            gamma=GridFunction.zeros(g),
        )
        errs = []
        for tau in (0.1, 0.05, 0.025):
            st = first_step(init, P, StepperConfig("cnfd", tau), g)
            errs.append(norm_l2(GridFunction.from_core(st.curr.core - init.phi.core), g))
        # curr -> phi at O(tau^2) when gamma = 0
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)

    def test_third_order_against_gausson(self):
        # one Taylor step carries a local O(tau^3) error against the exact
        # travelling solution (with the model gap negligible at this scale)
        g = Grid1D(-16.0, 16.0, 4096)
        p = NonlinearityParams(lam=1.0, epsilon=1e-8)
        init = gausson_initial_data(g)
        errs = []
        taus = (0.02, 0.01, 0.005)
        for tau in taus:
            st = first_step(init, p, StepperConfig("cnfd", tau), g)
            truth = GridFunction.sample(g, lambda x: gausson(x, tau))
            errs.append(norm_l2(GridFunction.from_core(st.curr.core - truth.core), g))
        r1 = errs[0] / errs[1]
        r2 = errs[1] / errs[2]
        assert 6.0 < r1 < 10.0
        assert 6.0 < r2 < 10.0


class TestStepping:
    @pytest.mark.parametrize("scheme", ["cnfd", "siefd"])
    def test_zero_state_fixed_point(self, g, scheme):
        cfg = StepperConfig(scheme, tau=0.01)
        st = first_step(zero_data(g), P, cfg, g)
        nxt = step(st, P, cfg, g)
        assert norm_linf(nxt.curr, g) == 0.0

    @pytest.mark.parametrize("scheme", ["cnfd", "siefd"])
    def test_constant_state_stays_constant(self, g, scheme):
        cfg = StepperConfig(scheme, tau=0.01)
        st = WaveState(
            prev=GridFunction.sample(g, lambda x: 0.8),
            curr=GridFunction.sample(g, lambda x: 0.79),
            n=1,
            t=cfg.tau,
        )
        nxt = step(st, P, cfg, g)
        spread = np.ptp(nxt.curr.core)
        assert spread <= 1e-12 * (1.0 + norm_linf(nxt.curr, g))

    @pytest.mark.parametrize("scheme", ["cnfd", "siefd"])
    def test_time_reversible(self, g, scheme):
        # advancing from the swapped pair recovers the oldest layer
        cfg = StepperConfig(scheme, tau=0.01)
        st = first_step(example2_data(g), P, cfg, g)
        for _ in range(3):
            st = step(st, P, cfg, g)
        fwd = step(st, P, cfg, g)
        back_state = WaveState(prev=fwd.curr, curr=fwd.prev, n=1, t=cfg.tau)
        back = step(back_state, P, cfg, g)
        assert norm_linf(
            GridFunction.from_core(back.curr.core - st.prev.core), g
        ) < 1e-9

    @pytest.mark.parametrize("scheme", ["cnfd", "siefd"])
    def test_translation_equivariance(self, g, scheme):
        cfg = StepperConfig(scheme, tau=0.01)
        st = first_step(example2_data(g), P, cfg, g)
        nxt = step(st, P, cfg, g)
        k = 17
        rolled = WaveState(
            prev=GridFunction.from_core(np.roll(st.prev.core, k)),
            curr=GridFunction.from_core(np.roll(st.curr.core, k)),
            n=st.n,
            t=st.t,
        )
        nxt_rolled = step(rolled, P, cfg, g)
        assert norm_linf(
            GridFunction.from_core(nxt_rolled.curr.core - np.roll(nxt.curr.core, k)), g
        ) < 1e-9


class TestResidualAndNewton:
    def test_residual_zero_at_zero(self, g):
        cfg = StepperConfig("cnfd", tau=0.01)
        st = first_step(zero_data(g), P, cfg, g)
        r = assemble_residual(GridFunction.zeros(g), st, P, cfg, g)
        assert norm_linf(r, g) == 0.0

    @pytest.mark.parametrize("scheme", ["cnfd", "siefd"])
    def test_solved_layer_has_small_residual(self, g, scheme):
        cfg = StepperConfig(scheme, tau=0.01)
        st = first_step(example2_data(g), P, cfg, g)
        u_next, norms = solve_newton(st, P, cfg, g)
        r = assemble_residual(u_next, st, P, cfg, g)
        assert norm_l2(r, g) <= cfg.newton_tol * (1.0 + 1e4)
        assert norms[-1] <= norms[0]

    @pytest.mark.parametrize("scheme", ["cnfd", "siefd"])
    def test_jacobian_matches_finite_difference(self, g, scheme):
        # directional derivative of the residual versus central differences
        cfg = StepperConfig(scheme, tau=0.05)
        rng = np.random.default_rng(8)
        st = first_step(example2_data(g), P, cfg, g)
        u = GridFunction.from_core(st.curr.core + 0.1 * rng.standard_normal(g.N))
        v = rng.standard_normal(g.N)
        delta = 1e-6
        up = GridFunction.from_core(u.core + delta * v)
        um = GridFunction.from_core(u.core - delta * v)
        jv_fd = (
            assemble_residual(up, st, P, cfg, g).core
            - assemble_residual(um, st, P, cfg, g).core
        ) / (2 * delta)
        diag = 1.0 / cfg.tau**2 + 0.5 + P.lam * discrete_gradient_dz1(
            u.core, st.prev.core, P
        )
        jv = diag * v
        if scheme == "cnfd":
            jv = jv + 1.0 / g.h**2 * v - 0.5 / g.h**2 * (np.roll(v, 1) + np.roll(v, -1))
        err = np.max(np.abs(jv - jv_fd)) / (1.0 + np.max(np.abs(jv_fd)))
        assert err < 1e-6

    def test_newton_quadratic_convergence(self):
        # residual history on a smooth travelling-wave state must show a
        # quadratic contraction before hitting tolerance
        g = Grid1D(-16.0, 16.0, 1024)
        cfg = StepperConfig("cnfd", tau=0.01)
        st = first_step(gausson_initial_data(g), P, cfg, g)
        st = step(st, P, cfg, g)
        _, norms = solve_newton(st, P, cfg, g)
        assert len(norms) >= 2
        scale = 1.0 + norm_l2(st.curr, g) / cfg.tau**2
        rel = [r / scale for r in norms]
        assert any(
            r_next <= 10.0 * r * r for r, r_next in zip(rel, rel[1:]) if r > 0
        )

    def test_budget_exhausted_raises(self, g):
        # newton_max_iter is the whole budget: no hidden second loop
        cfg = StepperConfig("cnfd", tau=0.5, newton_max_iter=1)
        st = first_step(amplitude5_data(g), P, cfg, g)
        with pytest.raises(NonConvergenceError) as exc:
            step(st, P, cfg, g)
        assert exc.value.residual > 0.0

    def test_large_step_converges_within_budget(self, g):
        cfg = StepperConfig("cnfd", tau=0.5)
        st = first_step(amplitude5_data(g), P, cfg, g)
        nxt = step(st, P, cfg, g)
        assert 1 <= nxt.newton_iters <= cfg.newton_max_iter
        r = assemble_residual(nxt.curr, st, P, cfg, g)
        assert norm_l2(r, g) < 1e-6

    @pytest.mark.parametrize("scheme", ["cnfd", "siefd"])
    def test_easy_steps_match_textbook_newton(self, g, scheme):
        # plain Newton, full steps, same start and same arithmetic: the
        # ordinary path must reproduce it bit for bit
        cfg = StepperConfig(scheme, tau=0.01)
        st = first_step(example2_data(g), P, cfg, g)
        lin = 1.0 / cfg.tau**2 + 0.5 + (1.0 / g.h**2 if scheme == "cnfd" else 0.0)
        for _ in range(5):
            nxt = step(st, P, cfg, g)
            assert nxt.newton_iters >= 1
            cand = 2.0 * st.curr.core - st.prev.core
            for _ in range(nxt.newton_iters):
                res = assemble_residual(GridFunction.from_core(cand), st, P, cfg, g).core
                jac = lin + P.lam * discrete_gradient_dz1(cand, st.prev.core, P)
                if scheme == "cnfd":
                    delta = solve_cyclic_tridiag(jac, -0.5 / g.h**2, -res)
                else:
                    delta = -res / jac
                cand = cand + delta
            assert np.array_equal(nxt.curr.core, cand)
            st = nxt

    def test_guarded_iterations_converge(self):
        # the Jacobian diagonal loses positivity on this trajectory, so the
        # guarded iterations must carry the solve from where Newton stands
        g = Grid1D(-16.0, 16.0, 64)
        p = NonlinearityParams(lam=1.0, epsilon=1e-3)
        cfg = StepperConfig("cnfd", tau=1.0)
        res = evolve(gausson_initial_data(g), p, cfg, g, 20)
        assert res.steps == 20
        assert res.max_rel_drift <= 1e-8

    def test_nonmonotone_newton_converges(self):
        # plain Newton's residual rises on some iterations here, so a
        # decrease test on every iteration would reject steps it needs
        g = Grid1D(-16.0, 16.0, 256)
        p = NonlinearityParams(lam=1.0, epsilon=1e-6)
        cfg = StepperConfig("cnfd", tau=0.5)
        res = evolve(gausson_initial_data(g), p, cfg, g, 20)
        assert res.steps == 20
        assert res.max_rel_drift <= 1e-8


class TestCyclicTridiagonal:
    def test_multiply_back_random(self):
        rng = np.random.default_rng(12)
        for n in (5, 64, 257):
            diag = 2.0 + rng.random(n) * 3.0
            off = -0.7
            rhs = rng.standard_normal(n)
            x = solve_cyclic_tridiag(diag, off, rhs)
            ax = diag * x + off * (np.roll(x, 1) + np.roll(x, -1))
            assert np.max(np.abs(ax - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    def test_identity(self):
        rhs = np.arange(1.0, 9.0)
        x = solve_cyclic_tridiag(np.ones(8), 0.0, rhs)
        np.testing.assert_allclose(x, rhs, rtol=1e-14)


class TestDiscreteEnergy:
    def test_zero_state(self, g):
        cfg = StepperConfig("cnfd", tau=0.01)
        st = first_step(zero_data(g), P, cfg, g)
        assert discrete_energy(st, P, cfg, g) == 0.0

    @pytest.mark.parametrize("scheme", ["cnfd", "siefd"])
    def test_constant_state_value(self, g, scheme):
        # kinetic and gradient terms vanish; energy reduces to
        # (b-a) * (c^2 + lam * V(c^2))
        from logkge.nonlinearity import reg_log_primitive

        cfg = StepperConfig(scheme, tau=0.01)
        c = 0.6
        st = WaveState(
            prev=GridFunction.sample(g, lambda x: c),
            curr=GridFunction.sample(g, lambda x: c),
            n=1,
            t=cfg.tau,
        )
        expected = (g.b - g.a) * (c**2 + P.lam * reg_log_primitive(c**2, P))
        assert discrete_energy(st, P, cfg, g) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("scheme", ["cnfd", "siefd"])
    def test_conservation_along_trajectory(self, g, scheme):
        cfg = StepperConfig(scheme, tau=0.01)
        res = evolve(example2_data(g), P, cfg, g, 1000)
        assert res.max_rel_drift <= 1e-8

    def test_conservation_with_general_lambda(self, g):
        p = NonlinearityParams(lam=-0.7, epsilon=0.1)
        cfg = StepperConfig("cnfd", tau=0.01)
        res = evolve(example2_data(g), p, cfg, g, 200)
        assert res.max_rel_drift <= 1e-10


class TestEvolve:
    def test_snapshots(self, g):
        cfg = StepperConfig("cnfd", tau=0.01)
        res = evolve(example2_data(g), P, cfg, g, 20, snapshot_steps=(0, 10, 20))
        assert set(res.snapshots) == {0, 10, 20}
        assert res.steps == 20

    def test_energy_series_and_newton_average(self, g):
        # one Newton iteration per step at this tau; the Taylor start takes none
        cfg = StepperConfig("cnfd", tau=1e-3)
        res = evolve(example2_data(g), P, cfg, g, 20)
        assert len(res.energy_series) == 20
        assert res.energy_series[0] == res.energy0
        assert res.energy_series[-1] == discrete_energy(res.state, P, cfg, g)
        assert res.newton_total == 19
        assert res.newton_avg == 1.0
        quiet = evolve(example2_data(g), P, cfg, g, 20, track_energy=False)
        assert quiet.energy_series == []

    def test_stability_warning_emitted(self, g):
        from logkge.analysis import siefd_tau_bound, sigma_max

        init = example2_data(g)
        bound = siefd_tau_bound(g.h, sigma_max(init.phi, P))
        cfg = StepperConfig("siefd", tau=1.5 * bound)
        with pytest.warns(StabilityWarning):
            evolve(init, P, cfg, g, 2, abort_on_growth=1e6, track_energy=False)

    def test_no_warning_inside_bound(self, g):
        cfg = StepperConfig("siefd", tau=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error", StabilityWarning)
            evolve(example2_data(g), P, cfg, g, 5)

    def test_blowup_detection(self, g):
        from logkge.analysis import siefd_tau_bound, sigma_max

        init = example2_data(g)
        bound = siefd_tau_bound(g.h, sigma_max(init.phi, P))
        cfg = StepperConfig("siefd", tau=1.5 * bound)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            res = evolve(init, P, cfg, g, 500, abort_on_growth=10.0, track_energy=False)
        assert res.blown_up
        assert res.steps < 500
