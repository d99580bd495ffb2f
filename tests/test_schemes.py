import math
import warnings

import numpy as np
import pytest

from logkge import schemes
from logkge.analysis import error_report, gausson, gausson_initial_data
from logkge.grid import Grid1D, norm_l2, norm_linf
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
        phi=g.sample(lambda x: np.cos(np.pi * x)),
        gamma=g.sample(lambda x: np.sin(np.pi * x)),
    )


def amplitude5_data(g):
    return InitialData(
        phi=g.sample(lambda x: 5.0 * np.cos(3 * np.pi * x)),
        gamma=g.sample(lambda x: 4.0 * np.sin(np.pi * x)),
    )


def zero_data(g):
    return InitialData(phi=np.zeros(g.N), gamma=np.zeros(g.N))


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
            phi=g.sample(lambda x: np.cos(np.pi * x)),
            gamma=np.zeros(g.N),
        )
        errs = []
        for tau in (0.1, 0.05, 0.025):
            st = first_step(init, P, StepperConfig("cnfd", tau), g)
            errs.append(norm_l2(st.curr - init.phi, g))
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
            truth = g.sample(lambda x: gausson(x, tau))
            errs.append(norm_l2(st.curr - truth, g))
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
            prev=g.sample(lambda x: 0.8),
            curr=g.sample(lambda x: 0.79),
            n=1,
            t=cfg.tau,
        )
        nxt = step(st, P, cfg, g)
        spread = np.ptp(nxt.curr)
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
        assert norm_linf(back.curr - st.prev, g) < 1e-9

    @pytest.mark.parametrize("scheme", ["cnfd", "siefd"])
    def test_translation_equivariance(self, g, scheme):
        cfg = StepperConfig(scheme, tau=0.01)
        st = first_step(example2_data(g), P, cfg, g)
        nxt = step(st, P, cfg, g)
        k = 17
        rolled = WaveState(
            prev=np.roll(st.prev, k),
            curr=np.roll(st.curr, k),
            n=st.n,
            t=st.t,
        )
        nxt_rolled = step(rolled, P, cfg, g)
        assert norm_linf(nxt_rolled.curr - np.roll(nxt.curr, k), g) < 1e-9


class TestResidualAndNewton:
    def test_residual_zero_at_zero(self, g):
        cfg = StepperConfig("cnfd", tau=0.01)
        st = first_step(zero_data(g), P, cfg, g)
        r = assemble_residual(np.zeros(g.N), st, P, cfg, g)
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
        u = st.curr + 0.1 * rng.standard_normal(g.N)
        v = rng.standard_normal(g.N)
        delta = 1e-6
        jv_fd = (
            assemble_residual(u + delta * v, st, P, cfg, g)
            - assemble_residual(u - delta * v, st, P, cfg, g)
        ) / (2 * delta)
        diag = 1.0 / cfg.tau**2 + 0.5 + P.lam * discrete_gradient_dz1(u, st.prev, P)
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
            cand = 2.0 * st.curr - st.prev
            for _ in range(nxt.newton_iters):
                res = assemble_residual(cand, st, P, cfg, g)
                jac = lin + P.lam * discrete_gradient_dz1(cand, st.prev, P)
                if scheme == "cnfd":
                    delta = solve_cyclic_tridiag(jac, -0.5 / g.h**2, -res)
                else:
                    delta = -res / jac
                cand = cand + delta
            assert np.array_equal(nxt.curr, cand)
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


class TestLaplacianCount:
    @pytest.mark.parametrize(
        "scheme, domain, n, tau, data, iters, per_step",
        [
            ("siefd", (-16.0, 16.0), 256, 1e-3, gausson_initial_data, 1, 1.0),
            ("siefd", (-1.0, 1.0), 64, 0.01, example2_data, 2, 1.0),
            ("cnfd", (-16.0, 16.0), 256, 1e-3, gausson_initial_data, 1, 3.0),
        ],
        ids=["siefd-one-iteration", "siefd-two-iterations", "cnfd-one-iteration"],
    )
    def test_laplacians_per_step(self, monkeypatch, scheme, domain, n, tau, data, iters, per_step):
        # the known layers' Laplacian once per step, then one per trial layer
        # (the start iterate and each Newton iterate) only when w > 0
        g = Grid1D(*domain, n)
        cfg = StepperConfig(scheme, tau)
        state = first_step(data(g), P, cfg, g)
        calls, real = [], schemes.periodic_second_diff

        def counting(v, h):
            calls.append(h)
            return real(v, h)

        monkeypatch.setattr(schemes, "periodic_second_diff", counting)
        for _ in range(100):
            state = step(state, P, cfg, g)
            assert state.newton_iters == iters
        assert len(calls) / 100 == per_step


def _full_length_cyclic_solve(diag, off, rhs):
    """Banded solve of rhs and the whole corner vector together, kept as an oracle."""
    from scipy.linalg import solve_banded

    n = diag.size
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
    vy = y[0] + off / gamma * y[-1]
    vq = q[0] + off / gamma * q[-1]
    return y - q * (vy / (1.0 + vq))


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

    @pytest.mark.parametrize(
        "n, ratio, spread",
        [
            pytest.param(65536, 2.477, 1e-6, id="cnfd-65536-ratio"),
            pytest.param(4096, 1.5, 2.0, id="s-below-2"),
            pytest.param(3, 2.477, 1e-6, id="n-3"),
        ],
    )
    def test_matches_full_length_solve(self, n, ratio, spread):
        # The cnfd-65536 Jacobian has diag/|off| about 2.477, where the
        # corner vector q decays by about 0.508 per node.  Beside a random
        # rhs, a load on the corner node gives a solution that lives on q
        # alone near node 0, so a too-short q window loses digits there.
        rng = np.random.default_rng(21)
        off = -0.5 * (65536 / 32.0) ** 2
        diag = abs(off) * (ratio + spread * rng.random(n))
        corner = np.zeros(n)
        corner[-1] = abs(off)
        for rhs in (rng.standard_normal(n), corner):
            x = solve_cyclic_tridiag(diag, off, rhs)
            ax = diag * x + off * (np.roll(x, 1) + np.roll(x, -1))
            assert np.linalg.norm(ax - rhs) <= 1e-14 * np.linalg.norm(rhs)
            ref = _full_length_cyclic_solve(diag, off, rhs)
            if rhs is not corner:
                assert x.tobytes() == ref.tobytes()
            # The corner solution decays into subnormals, where both solves
            # hold only rounding noise of a few units of 2^-1074.
            normal = np.abs(ref) >= np.finfo(float).tiny
            assert x[normal].tobytes() == ref[normal].tobytes()
            assert np.all(np.abs(x - ref)[~normal] <= 2.0**-1072)


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
            prev=g.sample(lambda x: c),
            curr=g.sample(lambda x: c),
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


class TestCarriedPotentials:
    @pytest.mark.parametrize(
        "scheme, eps, tau, n, steps",
        [
            pytest.param("cnfd", 0.05, 0.01, 64, 5, id="cnfd"),
            pytest.param("siefd", 0.05, 0.01, 64, 5, id="siefd"),
            # test_guarded_iterations_converge: step 2 starts on a Jacobian
            # diagonal that is not positive, so it takes a guarded iteration.
            pytest.param("cnfd", 1e-3, 1.0, 64, 3, id="guarded"),
        ],
    )
    def test_energy_equals_fresh_state(self, scheme, eps, tau, n, steps):
        # V of both layers is carried from step to step; the energy must be
        # what a state holding only the two layers gives, bit for bit.
        g = Grid1D(-16.0, 16.0, n)
        p = NonlinearityParams(lam=1.0, epsilon=eps)
        other = NonlinearityParams(lam=1.0, epsilon=2.0 * eps)
        cfg = StepperConfig(scheme, tau=tau)
        st = first_step(gausson_initial_data(g), p, cfg, g)
        lin = 1.0 / tau**2 + 0.5 + (1.0 / g.h**2 if scheme == "cnfd" else 0.0)
        guarded = False
        for k in range(steps + 1):
            fresh = WaveState(st.prev, st.curr, st.n, st.t)
            for q in (p, other):
                assert discrete_energy(st, q, cfg, g) == discrete_energy(fresh, q, cfg, g)
            if k < steps:
                start = 2.0 * st.curr - st.prev
                jac = lin + p.lam * discrete_gradient_dz1(start, st.prev, p)
                guarded |= not 0.0 < jac.min()
                st = step(st, p, cfg, g)
        assert guarded == (eps == 1e-3)


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

    def test_dimension_mismatch_rejected(self, g):
        # evolve is where caller data enters: phi and gamma must have N
        # values.  Without energy tracking nothing else would notice, and the
        # stencils would step the wrong grid.
        cfg = StepperConfig("cnfd", tau=0.01)
        other = example2_data(Grid1D(-1.0, 1.0, 32))
        closed = InitialData(phi=np.zeros(g.N + 1), gamma=np.zeros(g.N + 1))
        mixed = InitialData(phi=np.zeros(g.N), gamma=np.zeros(g.N + 1))
        for init in (other, closed, mixed):
            with pytest.raises(ValueError, match="grid wants"):
                evolve(init, P, cfg, g, 3, track_energy=False)

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
