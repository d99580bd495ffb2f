import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from logkge import schemes
from logkge.analysis import error_report, gausson, gausson_initial_data
from logkge.grid import Grid1D, norm_l2, norm_linf
from logkge.nonlinearity import BLOCK, NonlinearityParams, discrete_gradient, discrete_gradient_dz1
from logkge.schemes import (
    SCHEMES,
    InitialData,
    NonConvergenceError,
    Run,
    StabilityWarning,
    StepperConfig,
    discrete_energy,
    evolve,
    first_step,
    relative_drift,
    solve_cyclic_tridiag,
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


def evolve_with_drift(init, p, cfg, g, n_steps):
    """(run, largest relative energy drift) of one trajectory."""
    energies = []

    def observe(run):
        energies.append(discrete_energy(run))

    res = evolve(init, p, cfg, g, n_steps, observe)
    return res, max(relative_drift(energies))


def taylor_run(init, p, cfg, g):
    """The run at the Taylor layer: (phi, u^1) at n = 1."""
    return Run(init.phi, first_step(init, p, cfg, g), p, cfg, g)


def assemble_residual(cand, prev, curr, p, cfg, g):
    """Left-hand side of the scheme equation at a trial layer u^{n+1}, on the unfused gradient."""
    residual, _, _ = schemes._step_equation(prev, curr, p, cfg, g, schemes._work(np.shape(cand)))
    return residual(cand, discrete_gradient(cand, prev, p), np.empty(np.shape(cand)))


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
        with pytest.raises(ValueError, match="an int >= 1, got 2.5"):
            StepperConfig(scheme="cnfd", tau=0.1, newton_max_iter=2.5)
        with pytest.raises(ValueError, match="an int >= 1, got True"):
            StepperConfig(scheme="cnfd", tau=0.1, newton_max_iter=True)
        with pytest.raises(ValueError, match="finite and > 0, got inf"):
            StepperConfig(scheme="cnfd", tau=math.inf)
        for flag in (True, np.True_):
            with pytest.raises(ValueError, match="finite and > 0, got True"):
                StepperConfig(scheme="cnfd", tau=flag)

    def test_only_the_weights_the_step_implements(self):
        # The step's residual and discrete_energy implement the Laplacian
        # weights 1/2 and 0 alone; a scheme of another weight needs both
        # to gain its (1 - 2w) u^n terms.
        assert SCHEMES == {"cnfd": 0.5, "siefd": 0.0}


class TestFirstStep:
    def test_zero_data_stays_zero(self, g):
        cfg = StepperConfig("cnfd", tau=0.01)
        init = zero_data(g)
        u1 = first_step(init, P, cfg, g)
        assert norm_linf(u1, g) == 0.0
        assert Run(init.phi, u1, P, cfg, g).n == 1

    def test_tau_to_zero_limit(self, g):
        init = InitialData(
            phi=g.sample(lambda x: np.cos(np.pi * x)),
            gamma=np.zeros(g.N),
        )
        errs = []
        for tau in (0.1, 0.05, 0.025):
            u1 = first_step(init, P, StepperConfig("cnfd", tau), g)
            errs.append(norm_l2(u1 - init.phi, g))
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
            u1 = first_step(init, p, StepperConfig("cnfd", tau), g)
            truth = g.sample(lambda x: gausson(x, tau))
            errs.append(norm_l2(u1 - truth, g))
        r1 = errs[0] / errs[1]
        r2 = errs[1] / errs[2]
        assert 6.0 < r1 < 10.0
        assert 6.0 < r2 < 10.0


class TestStepping:
    @pytest.mark.parametrize("scheme", ["cnfd", "siefd"])
    def test_zero_state_fixed_point(self, g, scheme):
        cfg = StepperConfig(scheme, tau=0.01)
        nxt = taylor_run(zero_data(g), P, cfg, g).advance()
        assert norm_linf(nxt.curr, g) == 0.0

    @pytest.mark.parametrize("scheme", ["cnfd", "siefd"])
    def test_constant_state_stays_constant(self, g, scheme):
        cfg = StepperConfig(scheme, tau=0.01)
        nxt = Run(g.sample(lambda x: 0.8), g.sample(lambda x: 0.79), P, cfg, g).advance()
        spread = np.ptp(nxt.curr)
        assert spread <= 1e-12 * (1.0 + norm_linf(nxt.curr, g))

    @pytest.mark.parametrize("scheme", ["cnfd", "siefd"])
    def test_time_reversible(self, g, scheme):
        # advancing from the swapped pair recovers the oldest layer
        cfg = StepperConfig(scheme, tau=0.01)
        run = taylor_run(example2_data(g), P, cfg, g)
        for _ in range(3):
            run.advance()
        oldest = run.prev
        fwd = run.advance()
        back = Run(fwd.curr, fwd.prev, P, cfg, g).advance()
        assert norm_linf(back.curr - oldest, g) < 1e-9

    @pytest.mark.parametrize("scheme", ["cnfd", "siefd"])
    def test_translation_equivariance(self, g, scheme):
        cfg = StepperConfig(scheme, tau=0.01)
        run = taylor_run(example2_data(g), P, cfg, g)
        k = 17
        rolled = Run(np.roll(run.prev, k), np.roll(run.curr, k), P, cfg, g, n=run.n)
        nxt = run.advance()
        nxt_rolled = rolled.advance()
        assert norm_linf(nxt_rolled.curr - np.roll(nxt.curr, k), g) < 1e-9

    def test_layers_that_do_not_fit_the_grid_are_rejected(self, g):
        # 128-node layers on a 64-node grid would step with h = 2/64, 1-D
        # layers under two widths would fail deep in numpy, and so would a
        # pair of two shapes: a run of layers of another shape than p gives
        # on g is an error at once.
        cfg = StepperConfig("cnfd", tau=0.01)
        fine = Grid1D(-1.0, 1.0, 128)
        pair = NonlinearityParams(lam=1.0, epsilon=(0.05, 0.1))
        coarse_run, fine_run = (taylor_run(example2_data(x), P, cfg, x) for x in (g, fine))
        for prev, curr, p in [(fine_run.prev, fine_run.curr, P),
                              (coarse_run.prev, coarse_run.curr, pair),
                              (fine_run.prev, coarse_run.curr, P),
                              (coarse_run.prev, fine_run.curr, P)]:
            with pytest.raises(ValueError, match="grid wants"):
                Run(prev, curr, p, cfg, g)


class TestResidualAndNewton:
    def test_residual_zero_at_zero(self, g):
        cfg = StepperConfig("cnfd", tau=0.01)
        st = taylor_run(zero_data(g), P, cfg, g)
        r = assemble_residual(np.zeros(g.N), st.prev, st.curr, P, cfg, g)
        assert norm_linf(r, g) == 0.0

    @pytest.mark.parametrize("scheme", ["cnfd", "siefd"])
    def test_solved_layer_has_small_residual(self, g, scheme):
        cfg = StepperConfig(scheme, tau=0.01)
        st = taylor_run(example2_data(g), P, cfg, g)
        u_next, _, (norms,) = schemes._solve_newton(st)
        r = assemble_residual(u_next, st.prev, st.curr, P, cfg, g)
        assert norm_l2(r, g) <= cfg.newton_tol * (1.0 + 1e4)
        assert norms[-1] <= norms[0]

    @pytest.mark.parametrize("scheme", ["cnfd", "siefd"])
    def test_jacobian_matches_finite_difference(self, g, scheme):
        # directional derivative of the residual versus central differences
        cfg = StepperConfig(scheme, tau=0.05)
        rng = np.random.default_rng(8)
        st = taylor_run(example2_data(g), P, cfg, g)
        u = st.curr + 0.1 * rng.standard_normal(g.N)
        v = rng.standard_normal(g.N)
        delta = 1e-6
        jv_fd = (
            assemble_residual(u + delta * v, st.prev, st.curr, P, cfg, g)
            - assemble_residual(u - delta * v, st.prev, st.curr, P, cfg, g)
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
        run = taylor_run(gausson_initial_data(g), P, cfg, g)
        st = run.advance()
        _, _, (norms,) = schemes._solve_newton(run)
        assert len(norms) >= 2
        scale = 1.0 + norm_l2(st.curr, g) / cfg.tau**2
        rel = [r / scale for r in norms]
        assert any(
            r_next <= 10.0 * r * r for r, r_next in zip(rel, rel[1:]) if r > 0
        )

    def test_budget_exhausted_raises(self, g):
        # newton_max_iter is the whole budget: no hidden second loop
        cfg = StepperConfig("cnfd", tau=0.5, newton_max_iter=1)
        with pytest.raises(NonConvergenceError) as exc:
            taylor_run(amplitude5_data(g), P, cfg, g).advance()
        assert exc.value.residual > 0.0

    def test_large_step_converges_within_budget(self, g):
        cfg = StepperConfig("cnfd", tau=0.5)
        run = taylor_run(amplitude5_data(g), P, cfg, g)
        layers = run.prev, run.curr
        nxt = run.advance()
        assert 1 <= nxt.newton_iters <= cfg.newton_max_iter
        r = assemble_residual(nxt.curr, *layers, P, cfg, g)
        assert norm_l2(r, g) < 1e-6

    @pytest.mark.parametrize("scheme", ["cnfd", "siefd"])
    def test_easy_steps_match_textbook_newton(self, g, scheme):
        # plain Newton, full steps, same start and same arithmetic: the
        # ordinary path must reproduce it bit for bit
        cfg = StepperConfig(scheme, tau=0.01)
        run = taylor_run(example2_data(g), P, cfg, g)
        lin = 1.0 / cfg.tau**2 + 0.5 + (1.0 / g.h**2 if scheme == "cnfd" else 0.0)
        for _ in range(5):
            prev, curr = run.prev, run.curr
            nxt = run.advance()
            assert nxt.newton_iters >= 1
            cand = 2.0 * curr - prev
            for _ in range(nxt.newton_iters):
                res = assemble_residual(cand, prev, curr, P, cfg, g)
                jac = lin + P.lam * discrete_gradient_dz1(cand, prev, P)
                if scheme == "cnfd":
                    delta = solve_cyclic_tridiag(jac, -0.5 / g.h**2, -res)
                else:
                    delta = -res / jac
                cand = cand + delta
            assert np.array_equal(nxt.curr, cand)

    def test_guarded_iterations_converge(self):
        # the Jacobian diagonal loses positivity on this trajectory, so the
        # guarded iterations must carry the solve from where Newton stands
        g = Grid1D(-16.0, 16.0, 64)
        p = NonlinearityParams(lam=1.0, epsilon=1e-3)
        cfg = StepperConfig("cnfd", tau=1.0)
        res, drift = evolve_with_drift(gausson_initial_data(g), p, cfg, g, 20)
        assert res.steps == 20
        assert drift <= 1e-8

    def test_nonmonotone_newton_converges(self):
        # plain Newton's residual rises on some iterations here, so a
        # decrease test on every iteration would reject steps it needs
        g = Grid1D(-16.0, 16.0, 256)
        p = NonlinearityParams(lam=1.0, epsilon=1e-6)
        cfg = StepperConfig("cnfd", tau=0.5)
        res, drift = evolve_with_drift(gausson_initial_data(g), p, cfg, g, 20)
        assert res.steps == 20
        assert drift <= 1e-8


# Steps of fixed Newton counts: iters a step, and per_step Laplacians a step.
_STEP_COSTS = pytest.mark.parametrize(
    "scheme, domain, n, tau, data, iters, per_step",
    [
        ("siefd", (-16.0, 16.0), 256, 1e-3, gausson_initial_data, 1, 1.0),
        ("siefd", (-1.0, 1.0), 64, 0.01, example2_data, 2, 1.0),
        ("cnfd", (-16.0, 16.0), 256, 1e-3, gausson_initial_data, 1, 3.0),
        ("cnfd", (-1.0, 1.0), 64, 0.01, example2_data, 2, 4.0),
    ],
    ids=["siefd-one-iteration", "siefd-two-iterations", "cnfd-one-iteration",
         "cnfd-two-iterations"],
)


class TestLaplacianCount:
    @_STEP_COSTS
    def test_laplacians_per_step(self, monkeypatch, scheme, domain, n, tau, data, iters, per_step):
        # the known layers' Laplacian once per step, then one per trial layer
        # (the start iterate and each Newton iterate) only when w > 0
        g = Grid1D(*domain, n)
        cfg = StepperConfig(scheme, tau)
        run = taylor_run(data(g), P, cfg, g)
        calls, real = [], schemes.periodic_second_diff

        def counting(v, h, *out):
            calls.append(h)
            return real(v, h, *out)

        monkeypatch.setattr(schemes, "periodic_second_diff", counting)
        for _ in range(100):
            assert run.advance().newton_iters == iters
        assert len(calls) / 100 == per_step


class TestStepCost:
    @pytest.mark.parametrize("eps", [0.05, (0.05, 0.1)], ids=["one-member", "two-members"])
    @_STEP_COSTS
    def test_calls_per_step(self, monkeypatch, scheme, domain, n, tau, data, iters, per_step, eps):
        # V of both layers at the start, then one V per trial layer: the start
        # iterate and each Newton iterate.  Members of a batch with equal
        # counts share every call, Laplacians included, and each call covers
        # all B * N values.
        g = Grid1D(*domain, n)
        p = NonlinearityParams(lam=1.0, epsilon=eps)
        calls = {"reg_log_primitive": [], "periodic_second_diff": []}
        for name, seen in calls.items():
            def counting(x, *args, real=getattr(schemes, name), seen=seen):
                seen.append(np.size(x))
                return real(x, *args)

            monkeypatch.setattr(schemes, name, counting)
        res = evolve(data(g), p, StepperConfig(scheme, tau), g, 21)
        assert res.newton_by_member == (20 * iters,) * len(p.widths)
        assert len(calls["reg_log_primitive"]) == 2 + 20 * (1 + iters)
        assert len(calls["periodic_second_diff"]) == 1 + 20 * per_step  # the Taylor start's first
        assert {s for seen in calls.values() for s in seen} == {len(p.widths) * g.N}


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


def _copying_cyclic_solve(diag, off, rhs):
    """The solver as it was before it handed its own arrays to dgtsv, kept as an oracle.

    Every ``dgtsv`` argument is copied by the wrapper here, the two
    off-diagonals are one array, and the corner window is a row index array.
    """
    from scipy.linalg import lapack

    def gtsv(band, d, b):
        _, _, _, x, info = lapack.dgtsv(band, d, band, b)
        assert info == 0
        return x

    n = diag.size
    gamma = -diag[0]
    d = diag.copy()
    d[0] -= gamma
    d[-1] -= off * off / gamma
    y = gtsv(np.full(n - 1, off), d, rhs)
    rows = np.arange(n)
    s = min(diag.min() / abs(off), 1e6) if off != 0.0 else 0.0
    if s > 2.0:
        root = math.sqrt(s * s - 4.0)
        factor = 1.0 + max(math.log2(abs(gamma)) - math.log2(abs(off)), 0.0) - math.log2(root)
        m = (1100 + factor) / math.log2(0.5 * (s + root))
        if 2.0 * m + 2.0 < n:
            m = math.ceil(m)
            rows = np.concatenate((np.arange(m), np.arange(n - m, n)))
    u = np.zeros(rows.size)
    u[0] = gamma
    u[-1] = off
    q = gtsv(np.where(np.diff(rows) == 1, off, 0.0), d[rows], u)
    vy = y[0] + off / gamma * y[-1]
    vq = q[0] + off / gamma * q[-1]
    y[rows] -= q * (vy / (1.0 + vq))
    return y


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

    @pytest.mark.parametrize(
        "n, ratio",
        [
            pytest.param(65536, 2.477, id="window-cnfd-65536"),
            pytest.param(256, 1e4, id="window-small-tau"),
            pytest.param(64, 1e4, id="full-2m-over-n"),
            pytest.param(4096, 1.5, id="full-s-below-2"),
            pytest.param(3, 2.477, id="full-n-3"),
        ],
    )
    def test_bitwise_the_copying_solver(self, n, ratio):
        # Handing dgtsv the solver's own arrays changes no bit of the solution,
        # on the windowed corner solve and on the full-length one.
        rng = np.random.default_rng(5)
        off = -0.5 * (n / 32.0) ** 2
        diag = abs(off) * (ratio + 1e-3 * rng.random(n))
        rhs = rng.standard_normal(n)
        keep = rhs.copy()
        x = solve_cyclic_tridiag(diag, off, rhs)
        assert x.tobytes() == _copying_cyclic_solve(diag, off, rhs).tobytes()
        assert rhs.tobytes() == keep.tobytes()  # the caller's rhs is left alone

    @pytest.mark.parametrize(
        "imports",
        [
            pytest.param("import scipy.linalg.lapack, logkge", id="scipy-first"),
            pytest.param("import logkge, scipy.linalg.lapack", id="logkge-first"),
        ],
    )
    def test_both_import_orders_share_one_dgtsv(self, imports, tmp_path):
        # The dgtsv loaded from scipy's _flapack is the object scipy.linalg.lapack
        # exports, whichever is imported first, and it solves a windowed
        # system bit for bit as the copying solver does.
        rng = np.random.default_rng(5)
        n = 257
        off = -0.5 * (n / 32.0) ** 2
        diag = abs(off) * (1e4 + 1e-3 * rng.random(n))
        rhs = rng.standard_normal(n)
        np.save(tmp_path / "system.npy", np.stack((diag, rhs)))
        code = (
            f"import sys\nimport numpy as np\n{imports}\n"
            "from logkge import schemes\n"
            "assert scipy.linalg.lapack.dgtsv is schemes._dgtsv\n"
            "diag, rhs = np.load(sys.argv[1])\n"
            f"np.save(sys.argv[2], schemes.solve_cyclic_tridiag(diag, {off!r}, rhs))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(schemes.__file__).resolve().parent.parent))
        subprocess.run([sys.executable, "-c", code, str(tmp_path / "system.npy"),
                        str(tmp_path / "x.npy")], env=env, capture_output=True, text=True,
                       check=True)
        x = np.load(tmp_path / "x.npy")
        assert x.tobytes() == _copying_cyclic_solve(diag, off, rhs).tobytes()

    def test_loader_has_one_path(self, tmp_path, monkeypatch):
        # A registered _flapack is reused; without one, a directory lacking
        # the extension is an error naming it and scipy's version, not a
        # fallback to the scipy.linalg package.
        import scipy

        assert schemes._load_flapack(str(tmp_path)).dgtsv is schemes._dgtsv
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        with pytest.raises(ImportError, match="no _flapack extension") as err:
            schemes._load_flapack(str(tmp_path))
        assert str(tmp_path) in str(err.value)
        assert scipy.__version__ in str(err.value)
        assert "scipy.linalg._flapack" not in sys.modules

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
        assert discrete_energy(taylor_run(zero_data(g), P, cfg, g)) == 0.0

    @pytest.mark.parametrize("scheme", ["cnfd", "siefd"])
    def test_constant_state_value(self, g, scheme):
        # kinetic and gradient terms vanish; energy reduces to
        # (b-a) * (c^2 + lam * V(c^2))
        from logkge.nonlinearity import reg_log_primitive

        cfg = StepperConfig(scheme, tau=0.01)
        c = 0.6
        run = Run(g.sample(lambda x: c), g.sample(lambda x: c), P, cfg, g)
        expected = (g.b - g.a) * (c**2 + P.lam * reg_log_primitive(c**2, P))
        assert discrete_energy(run) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("scheme", ["cnfd", "siefd"])
    def test_conservation_along_trajectory(self, g, scheme):
        cfg = StepperConfig(scheme, tau=0.01)
        _, drift = evolve_with_drift(example2_data(g), P, cfg, g, 1000)
        assert drift <= 1e-8

    def test_conservation_with_general_lambda(self, g):
        p = NonlinearityParams(lam=-0.7, epsilon=0.1)
        cfg = StepperConfig("cnfd", tau=0.01)
        _, drift = evolve_with_drift(example2_data(g), p, cfg, g, 200)
        assert drift <= 1e-10

    @settings(max_examples=50, deadline=None)
    @given(
        scheme=hst.sampled_from(sorted(SCHEMES)),
        lam=hst.floats(0.1, 1.0).flatmap(lambda a: hst.sampled_from((a, -a))),
        log10_eps=hst.floats(-8.0, -1.0),
        amps=hst.lists(hst.floats(-1.0, 1.0), min_size=4, max_size=4),
        modes=hst.lists(hst.integers(1, 4), min_size=4, max_size=4),
    )
    # u^12 passes near 0 everywhere, so ||b|| = 5.01 while the residual's
    # terms are about ||u^11||/tau^2 = 959: the residual stagnates at
    # 1.1e-13 to 1.6e-13, above 1e-14 * (1 + ||b||), and passes only
    # through the rounding floor of the stopping test.
    @example(scheme="cnfd", lam=0.5, log10_eps=-1.0, amps=[0.5625, -0.53125, -0.53125, 0.5],
             modes=[4, 4, 4, 4])
    def test_conservation_for_random_smooth_data(self, scheme, lam, log10_eps, amps, modes):
        # phi and gamma are each a cosine plus a sine mode; tau = 0.01 lies
        # below the siefd bound (about h = 1/32) for every drawn eps.  The
        # scheme conserves the energy of the exact step solution; a solve
        # stopped at the default tolerance may leave drift up to ~4e-12 here
        # (phi = 0, one Newton iteration), so the solve is tightened.
        g = Grid1D(-1.0, 1.0, 64)
        p = NonlinearityParams(lam=lam, epsilon=10.0**log10_eps)
        cfg = StepperConfig(scheme, tau=0.01, newton_tol=1e-14)
        x = np.pi * g.nodes
        init = InitialData(
            phi=amps[0] * np.cos(modes[0] * x) + amps[1] * np.sin(modes[1] * x),
            gamma=amps[2] * np.cos(modes[2] * x) + amps[3] * np.sin(modes[3] * x),
        )
        _, drift = evolve_with_drift(init, p, cfg, g, 20)
        assert drift <= 1e-12


# Prints the siefd energies of a 10-step trajectory at N = 65536, where
# OpenBLAS splits a dot product between threads.
_SIEFD_ENERGIES = """
from logkge.analysis import gausson_initial_data
from logkge.grid import Grid1D
from logkge.nonlinearity import NonlinearityParams
from logkge.schemes import StepperConfig, discrete_energy, evolve

g = Grid1D(-16.0, 16.0, 65536)
p = NonlinearityParams(lam=1.0, epsilon=0.05)
cfg = StepperConfig("siefd", tau=2.0**-12)
energies = []
evolve(gausson_initial_data(g), p, cfg, g, 10, lambda run: energies.append(discrete_energy(run)))
print(" ".join(map(repr, energies)))
"""


def test_siefd_energy_is_the_same_on_any_blas_thread_count():
    # The siefd energy's cross product is a pairwise sum, not a BLAS dot,
    # so its rounding does not depend on how many threads run.
    import logkge

    src = str(Path(logkge.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _SIEFD_ENERGIES], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    assert len(outputs[0].split()) == 10
    assert outputs[0] == outputs[1]


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
        # A run carries V of both layers from step to step; its energy must
        # be what a run built from only copies of the two layers gives, bit
        # for bit.  The layers themselves carry nothing: at another eps they
        # give the energy of the copies.
        g = Grid1D(-16.0, 16.0, n)
        p = NonlinearityParams(lam=1.0, epsilon=eps)
        other = NonlinearityParams(lam=1.0, epsilon=2.0 * eps)
        cfg = StepperConfig(scheme, tau=tau)
        lin = 1.0 / tau**2 + 0.5 + (1.0 / g.h**2 if scheme == "cnfd" else 0.0)
        seen, guarded = [], []

        def observe(run):
            fresh = run.prev.copy(), run.curr.copy()
            assert discrete_energy(run) == discrete_energy(Run(*fresh, p, cfg, g, run.n))
            assert (discrete_energy(Run(run.prev, run.curr, other, cfg, g))
                    == discrete_energy(Run(*fresh, other, cfg, g)))
            start = 2.0 * run.curr - run.prev
            jac = lin + p.lam * discrete_gradient_dz1(start, run.prev, p)
            guarded.append(not 0.0 < jac.min())
            seen.append(run.n)

        evolve(gausson_initial_data(g), p, cfg, g, steps + 1, observe)
        assert seen == list(range(1, steps + 2))
        assert any(guarded[:-1]) == (eps == 1e-3)  # the last state takes no step


class TestEvolve:
    def test_observer_sees_every_state_and_can_stop(self, g):
        # the Taylor state (n = 1, prev = phi) and every later state, once;
        # a true return ends the run on that state
        cfg = StepperConfig("cnfd", tau=0.01)
        init = example2_data(g)
        seen = []
        res = evolve(init, P, cfg, g, 20, lambda run: seen.append((run.n, run.prev)))
        assert [n for n, _ in seen] == list(range(1, 21))
        assert seen[0][1] is init.phi
        assert res.steps == 20 and not res.stopped
        res = evolve(init, P, cfg, g, 20, lambda run: run.n == 7)
        assert res.steps == 7 and res.n == 7 and res.stopped
        assert evolve(init, P, cfg, g, 20, lambda run: run.n == 20).stopped

    @pytest.mark.parametrize("eps, scale", [(1e-3, 1.0), ((1e-3, 5e-4), 1.0), (0.05, 1e-14)],
                             ids=["one", "batch", "start-accepted"])
    def test_a_step_writes_no_layer_it_has_handed_out(self, eps, scale):
        # An observer may keep run.prev and run.curr as they are: each holds
        # the bytes it had when seen after every later step.  The data of
        # test_guarded_iterations_converge, so guarded iterations, and in the
        # batch rows taken one at a time, are among the steps; a wave of
        # 1e-14 takes none, so each step accepts its start iterate.
        g = Grid1D(-16.0, 16.0, 64)
        p = NonlinearityParams(lam=1.0, epsilon=eps)
        data = gausson_initial_data(g)
        kept = []
        run = evolve(InitialData(scale * data.phi, scale * data.gamma), p,
                     StepperConfig("cnfd", tau=1.0), g, 8,
                     lambda run: kept.extend((x, x.tobytes()) for x in (run.prev, run.curr)))
        assert len(kept) == 16
        assert all(x.tobytes() == seen for x, seen in kept)
        assert (run.newton_total < run.steps - 1) == (scale < 1.0)  # some step took none

    @pytest.mark.parametrize("n_steps", [2.5, True, 0])
    def test_step_count_must_be_whole(self, g, n_steps):
        # 2.5 would run 3 steps and True 1; none is a count of steps.
        cfg = StepperConfig("cnfd", tau=0.01)
        with pytest.raises(ValueError, match="n_steps must be an int >= 1"):
            evolve(example2_data(g), P, cfg, g, n_steps)

    def test_energy_series_and_newton_average(self, g):
        # one Newton iteration per step at this tau; the Taylor start takes none
        cfg = StepperConfig("cnfd", tau=1e-3)
        energies = []
        res = evolve(
            example2_data(g), P, cfg, g, 20,
            lambda run: energies.append(discrete_energy(run)),
        )
        assert len(energies) == 20
        assert relative_drift(energies)[0] == 0.0
        assert energies[-1] == discrete_energy(Run(res.prev, res.curr, P, cfg, g, res.n))
        assert res.newton_total == 19
        assert res.newton_avg == 1.0
        quiet = evolve(example2_data(g), P, cfg, g, 20)
        assert np.array_equal(quiet.curr, res.curr)
        assert quiet.newton_total == 19

    def test_dimension_mismatch_rejected(self, g):
        # evolve is where caller data enters: phi and gamma must have N
        # values.  Without an observer nothing else would notice, and the
        # stencils would step the wrong grid.
        cfg = StepperConfig("cnfd", tau=0.01)
        other = example2_data(Grid1D(-1.0, 1.0, 32))
        closed = InitialData(phi=np.zeros(g.N + 1), gamma=np.zeros(g.N + 1))
        mixed = InitialData(phi=np.zeros(g.N), gamma=np.zeros(g.N + 1))
        for init in (other, closed, mixed):
            with pytest.raises(ValueError, match="grid wants"):
                evolve(init, P, cfg, g, 3)

    def test_stability_warning_emitted(self, g):
        from logkge.analysis import siefd_tau_bound, sigma_max

        init = example2_data(g)
        bound = siefd_tau_bound(g.h, sigma_max(init.phi, P))
        cfg = StepperConfig("siefd", tau=1.5 * bound)
        with pytest.warns(StabilityWarning):
            evolve(init, P, cfg, g, 2)

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
        u0_inf = norm_linf(init.phi, g)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            res = evolve(init, P, cfg, g, 500,
                         lambda run: norm_linf(run.curr, g) > 10.0 * u0_inf)
        assert res.stopped
        assert res.steps < 500

    @pytest.mark.parametrize("scheme", ["cnfd", "siefd"])
    @pytest.mark.parametrize("eps", [0.05, [0.05, 0.0125]], ids=["one", "batch"])
    def test_returned_run_steps_on_as_one_longer_run(self, g, scheme, eps):
        # evolve returns the run it stepped: a run returned after 5 steps and
        # advanced 3 more is evolve(8) bit for bit, its counts and energy too
        p = NonlinearityParams(lam=1.0, epsilon=eps)
        cfg = StepperConfig(scheme, tau=0.01)
        run = evolve(example2_data(g), p, cfg, g, 5)
        for _ in range(3):
            run.advance()
        whole = evolve(example2_data(g), p, cfg, g, 8)
        for a, b in [(run.prev, whole.prev), (run.curr, whole.curr),
                     (discrete_energy(run), discrete_energy(whole))]:
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        counts = [(r.n, r.newton_iters, r.steps, r.newton_total, r.newton_by_member)
                  for r in (run, whole)]
        assert counts[0] == counts[1]
        assert type(run.steps) is int and type(run.newton_total) is int


def _observed_run(init, p, cfg, g, n_steps):
    """(run, energies, Newton counts) of every observed state."""
    energies, iters = [], []

    def observe(run):
        energies.append(discrete_energy(run))
        iters.append(run.newton_iters)

    return evolve(init, p, cfg, g, n_steps, observe), energies, iters


def _assert_batch_is_single_runs(members, cfg, g, n_steps):
    """B members stepped as one (B, N) batch equal B one-member runs bit for bit.

    ``members`` holds (eps, InitialData) pairs; lam is 1.
    """
    p = NonlinearityParams(lam=1.0, epsilon=[eps for eps, _ in members])
    batch = InitialData(*(np.stack([getattr(d, f) for _, d in members]) for f in ("phi", "gamma")))
    res, energies, iters = _observed_run(batch, p, cfg, g, n_steps)
    assert res.curr.shape == (len(members), g.N)
    for m, (eps, data) in enumerate(members):
        one, one_energies, one_iters = _observed_run(
            data, NonlinearityParams(lam=1.0, epsilon=eps), cfg, g, n_steps
        )
        assert res.prev[m].tobytes() == one.prev.tobytes()
        assert res.curr[m].tobytes() == one.curr.tobytes()
        assert [e[m] for e in energies] == one_energies
        assert [it[m] for it in iters[1:]] == one_iters[1:]
        assert res.newton_by_member[m] == one.newton_total
        assert res.member_newton_avg(m) == one.newton_avg
    n = res.n
    assert res.newton_total == sum(res.newton_by_member)
    assert res.steps == 1 + len(members) * (n - 1)
    assert all(type(x) is int for x in (res.steps, res.newton_total, *res.newton_by_member))
    return res


class TestMembers:
    @pytest.mark.parametrize("scheme", ["cnfd", "siefd"])
    def test_batch_equals_single_runs(self, scheme):
        g = Grid1D(-16.0, 16.0, 256)
        data = gausson_initial_data(g)
        members = [(eps, data) for eps in (0.05, 0.0125, 1e-3)]
        _assert_batch_is_single_runs(members, StepperConfig(scheme, tau=1e-3), g, 30)

    @settings(max_examples=25, deadline=None)
    @given(
        scheme=hst.sampled_from(sorted(SCHEMES)),
        log10_eps=hst.lists(hst.floats(-8.0, -1.0), min_size=1, max_size=4),
        amps=hst.lists(hst.floats(-1.0, 1.0), min_size=2, max_size=2),
        modes=hst.lists(hst.integers(1, 4), min_size=2, max_size=2),
    )
    def test_batch_is_single_runs_for_random_data(self, scheme, log10_eps, amps, modes):
        # Members with their own widths and data (the m-th a scaled copy)
        # on the grid and time step of the conservation property.
        g = Grid1D(-1.0, 1.0, 64)
        x = np.pi * g.nodes
        members = [
            (10.0**e, InitialData((1.0 + m) * amps[0] * np.cos(modes[0] * x),
                                  (1.0 - m / 4) * amps[1] * np.sin(modes[1] * x)))
            for m, e in enumerate(log10_eps)
        ]
        _assert_batch_is_single_runs(members, StepperConfig(scheme, tau=0.01), g, 10)

    @pytest.mark.parametrize(
        "n, tau, widths, counts",
        [
            # The data of test_nonmonotone_newton_converges: 47 iterations
            # on step 2, where plain Newton's residual rises at times.
            pytest.param(256, 0.5, (1e-6,), (116, 19), id="nonmonotone"),
            # The data of test_guarded_iterations_converge at two widths:
            # guarded iterations, of both members at once and of one alone.
            pytest.param(64, 1.0, (1e-3, 5e-4), (137, 174, 25), id="guarded"),
        ],
    )
    def test_members_with_different_newton_counts(self, n, tau, widths, counts):
        # Beside them a small wave that needs one or two iterations a step:
        # each member stops at its own tolerance, is never touched after,
        # and keeps its own count.
        g = Grid1D(-16.0, 16.0, n)
        data = gausson_initial_data(g)
        small = (1.0, InitialData(1e-4 * data.phi, 1e-4 * data.gamma))
        members = [(eps, data) for eps in widths] + [small]
        res = _assert_batch_is_single_runs(members, StepperConfig("cnfd", tau=tau), g, 20)
        assert res.newton_by_member == counts

    @pytest.mark.parametrize("scheme", ["cnfd", "siefd"])
    def test_batch_above_one_kernel_block(self, scheme):
        from logkge.nonlinearity import BLOCK

        g = Grid1D(-16.0, 16.0, 4096)
        assert 3 * g.N > BLOCK
        data = gausson_initial_data(g)
        members = [(eps, data) for eps in (0.1, 0.05, 1e-3)]
        _assert_batch_is_single_runs(members, StepperConfig(scheme, tau=2.0**-12), g, 4)

    def test_long_trajectory_energies(self):
        # The fig-energy trajectory: 1000 steps, 5000 squared norms a member.
        # Each is a row sum of squares, bit for bit the sum of a single
        # layer, so no energy of the batch may differ in the last bit.
        g = Grid1D(-1.0, 1.0, 128)
        members = [(eps, example2_data(g)) for eps in (0.05, 0.1)]
        _assert_batch_is_single_runs(members, StepperConfig("cnfd", tau=0.01), g, 1000)

    def test_nonfinite_ordinary_trial_is_retried_guarded(self, monkeypatch):
        # A full step whose residual is not finite sends that member, and
        # only it, to the guarded iteration within the same iteration.  Its
        # clamped Jacobian is the plain one here, so the retry is the step a
        # clean run takes; one iteration a step is the whole budget.
        g = Grid1D(-16.0, 16.0, 64)
        data = gausson_initial_data(g)
        cfg = StepperConfig("cnfd", tau=0.01, newton_max_iter=1)
        p = NonlinearityParams(lam=1.0, epsilon=(0.05, 0.1))
        clean = [evolve(data, p.member(m), cfg, g, 3) for m in (0, 1)]
        real, blown = schemes._newton_step, []

        def blowing(jac_diag, res, coupling, *work):
            delta = real(jac_diag, res, coupling, *work)
            if not blown:  # the first full step, of member 0 only
                blown.append(delta.shape)
                delta[0] *= 1e300
            return delta

        monkeypatch.setattr(schemes, "_newton_step", blowing)
        with np.errstate(over="ignore", invalid="ignore"):
            res = evolve(data, p, cfg, g, 3)
        assert blown == [(2, g.N)]
        for m in (0, 1):
            assert res.curr[m].tobytes() == clean[m].curr.tobytes()
        assert res.newton_by_member == tuple(c.newton_total for c in clean)

    def test_members_search_at_their_own_steps_in_one_trial(self, monkeypatch):
        # In the first solve member 0 starts on the clamped diagonal: its
        # Jacobian diagonal is not positive at the start iterate (the data of
        # test_guarded_iterations_converge).  Member 1, a small wave, takes
        # a full step, which is blown here, so it starts on the clamped
        # diagonal one trial later.  That trial holds member 0 at alpha = 1/2
        # and member 1 at alpha = 1.  Each row must still be its run alone.
        g = Grid1D(-16.0, 16.0, 64)
        data = gausson_initial_data(g)
        members = [(1e-3, data), (1.0, InitialData(1e-4 * data.phi, 1e-4 * data.gamma))]
        real_step, real_v = schemes._newton_step, schemes.reg_log_primitive
        blown, evaluated = [], []

        def blowing(jac_diag, res, coupling, *work):
            delta = real_step(jac_diag, res, coupling, *work)
            if not blown:  # both members' first steps, member 1's full step last
                blown.append(delta.shape)
                delta[-1] *= 1e300
            return delta

        def counted(rho, p):
            evaluated.append(rho.shape)
            return real_v(rho, p)

        monkeypatch.setattr(schemes, "_newton_step", blowing)
        monkeypatch.setattr(schemes, "reg_log_primitive", counted)
        with np.errstate(over="ignore", invalid="ignore"):
            _assert_batch_is_single_runs(members, StepperConfig("cnfd", tau=1.0), g, 3)
        assert blown == [(2, g.N)]
        # V of phi and of u^1, then the start iterate and the first two trials
        assert evaluated[:5] == [(2, g.N)] * 5

    @pytest.mark.parametrize("scheme", ["cnfd", "siefd"])
    def test_member_without_a_decreasing_step_stalls(self, scheme):
        # Row 0 starts from data holding a NaN, so no trial of its first
        # solve lowers its residual: it stalls there before any iteration
        # counts, while row 1 solves on.
        g = Grid1D(-16.0, 16.0, 64)
        data = gausson_initial_data(g)
        phi = np.stack([data.phi, data.phi])
        phi[0, 5] = np.nan
        p = NonlinearityParams(lam=1.0, epsilon=(0.05, 0.1))
        seen = []
        with np.errstate(invalid="ignore"), pytest.raises(NonConvergenceError) as exc:
            evolve(InitialData(phi, np.stack([data.gamma] * 2)), p, StepperConfig(scheme, tau=0.01),
                   g, 3, lambda run: seen.append(run.n))
        assert seen == [1]
        assert math.isnan(exc.value.residual)
        assert str(exc.value) == (
            "Newton stopped at residual nan after 0 iterations (tolerance nan) on members [0]: "
            "no guarded step down to alpha = 2^-12 decreased the residual"
        )

    def test_failed_member_is_named(self, g):
        # The amplitude-5 member runs out of its one-iteration budget; the
        # error names its row, and no other.
        cfg = StepperConfig("cnfd", tau=0.5, newton_max_iter=1)
        hard, easy = amplitude5_data(g), zero_data(g)
        p = NonlinearityParams(lam=1.0, epsilon=(0.05, 0.05, 0.05))
        batch = InitialData(*(np.stack([getattr(d, f) for d in (easy, hard, easy)])
                              for f in ("phi", "gamma")))
        with pytest.raises(NonConvergenceError) as exc:
            evolve(batch, p, cfg, g, 3)
        assert str(exc.value).endswith(" on members [1]")
        assert exc.value.residual > 0.0

    def test_shapes_follow_the_widths(self, g):
        cfg = StepperConfig("cnfd", tau=0.01)
        data = example2_data(g)
        p = NonlinearityParams(lam=1.0, epsilon=(0.05, 0.1, 0.2))
        with pytest.raises(ValueError, match="grid wants"):
            evolve(InitialData(data.phi[:2].reshape(2, 1), data.gamma[:2].reshape(2, 1)),
                   p, cfg, g, 3)
        with pytest.raises(ValueError, match="grid wants"):  # two rows for three members
            evolve(InitialData(np.stack([data.phi] * 2), np.stack([data.gamma] * 2)), p, cfg, g, 3)
        # 1-D data, which every member starts from, and the same rows laid
        # out column-major give the rows' run, energies included.
        rows, energies, _ = _observed_run(
            InitialData(np.stack([data.phi] * 3), np.stack([data.gamma] * 3)), p, cfg, g, 3)
        columns = InitialData(*(np.asfortranarray(np.stack([x] * 3))
                                for x in (data.phi, data.gamma)))
        for init in (data, columns):
            res, other_energies, _ = _observed_run(init, p, cfg, g, 3)
            assert res.curr.tobytes() == rows.curr.tobytes()
            assert [e.tolist() for e in other_energies] == [e.tolist() for e in energies]
        for m in range(3):
            alone = evolve(data, p.member(m), cfg, g, 3)
            assert rows.curr[m].tobytes() == alone.curr.tobytes()
        one = NonlinearityParams(lam=1.0, epsilon=(0.05,))
        res = evolve(InitialData(data.phi[None], data.gamma[None]), one, cfg, g, 3)
        single = evolve(data, P, cfg, g, 3)
        assert res.curr.shape == (1, g.N)
        assert res.curr[0].tobytes() == single.curr.tobytes()
        assert (res.steps, res.newton_total) == (single.steps, single.newton_total)


class TestWorkLayers:
    @pytest.mark.parametrize(
        "scheme, tau, eps, n, layers",
        [("cnfd", 1e-3, 0.05, 4 * BLOCK, 4.5), ("siefd", 2.0**-12, 0.05, 4 * BLOCK, 4.5),
         ("cnfd", 1e-3, (0.05, 0.1), BLOCK, 5.5)],
        ids=["cnfd", "siefd", "cnfd-two-members"],
    )
    def test_a_step_allocates_only_its_new_layers(self, scheme, tau, eps, n, layers):
        # Every temporary of a step is a layer of the run's work, made in the
        # first Newton step.  Above a later step's starting memory only the
        # start iterate's V and the trial iterate with its V are new, plus
        # V's block temporaries: 4.05 layers for one member, against 14.0
        # (cnfd) and 12.3 (siefd) when each step allocated its temporaries,
        # and 5.1 (B, N) layers for two members of equal Newton counts.  At 4
        # BLOCK values (2 for two members) the fused kernel and V take their
        # blocked path.
        g = Grid1D(-16.0, 16.0, n)
        p = NonlinearityParams(lam=1.0, epsilon=eps)
        layer = len(p.widths) * g.N * 8
        peaks, start = [], []

        def observe(run):
            if run.n > 2:  # the work layers exist from the first Newton step on
                peaks.append(tracemalloc.get_traced_memory()[1] - start[-1])
            tracemalloc.reset_peak()
            start.append(tracemalloc.get_traced_memory()[0])

        tracemalloc.start()
        try:
            evolve(gausson_initial_data(g), p, StepperConfig(scheme, tau), g, 6, observe)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 4
        assert max(peaks) < layers * layer

    @pytest.mark.parametrize("batch", [True, False], ids=["with-a-batch", "same-shapes"])
    def test_concurrent_runs_equal_their_serial_runs(self, batch):
        # Each run owns its work layers, so two runs stepping at once in two
        # threads (one of them a two-member batch, or two runs of one shape)
        # give their serial layers.
        g = Grid1D(-16.0, 16.0, 256)
        cfg = StepperConfig("cnfd", tau=0.01)
        data = gausson_initial_data(g)
        other = (InitialData(np.stack([data.phi, 0.5 * data.phi]), np.stack([data.gamma] * 2))
                 if batch else InitialData(0.5 * data.phi, data.gamma))
        runs = [(NonlinearityParams(lam=1.0, epsilon=0.05), data),
                (NonlinearityParams(lam=1.0, epsilon=(0.1, 1e-3) if batch else 1e-3), other)]

        def trajectory(p, init, layers, ready=None):
            if ready is not None:
                ready.wait()
            evolve(init, p, cfg, g, 40, lambda run: layers.append(run.curr.tobytes()))

        serial = [[], []]
        for (p, init), layers in zip(runs, serial):
            trajectory(p, init, layers)
        concurrent = [[], []]
        ready = threading.Barrier(2, timeout=30)
        threads = [threading.Thread(target=trajectory, args=(p, init, layers, ready))
                   for (p, init), layers in zip(runs, concurrent)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [len(x) for x in serial] == [40, 40]
        assert concurrent == serial
