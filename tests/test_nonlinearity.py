import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from logkge import nonlinearity
from logkge.nonlinearity import (
    BLOCK,
    COINCIDENCE_REL_TOL,
    NonlinearityParams,
    DERIVATIVE_REL_TOL,
    discrete_gradient,
    discrete_gradient_dz1,
    fused_discrete_gradient,
    reg_log,
    reg_log_primitive,
    reg_unreg_gap_density,
    unreg_log,
    unreg_log_primitive,
)

P01 = NonlinearityParams(lam=1.0, epsilon=0.1)
P05 = NonlinearityParams(lam=1.0, epsilon=0.5)

eps_values = st.floats(min_value=1e-6, max_value=1.0)
z_values = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def primitive_quadrature(rho, eps):
    """Arbitrary-precision quadrature of the defining integral."""
    import mpmath as mp

    with mp.workdps(40):
        e2 = mp.mpf(eps) ** 2
        return float(mp.quad(lambda s: mp.log(e2 + s), [0, rho]))


class TestParams:
    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            NonlinearityParams(lam=1.0, epsilon=0.0)
        with pytest.raises(ValueError):
            NonlinearityParams(lam=1.0, epsilon=-0.1)
        with pytest.raises(ValueError, match="at least one member"):
            NonlinearityParams(lam=1.0, epsilon=())

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            NonlinearityParams(lam=math.inf, epsilon=0.1)
        with pytest.raises(ValueError):
            NonlinearityParams(lam=1.0, epsilon=math.nan)
        # A bool is not a number here, though True == 1; nor is numpy's.
        for flag in (True, np.True_):
            with pytest.raises(ValueError, match="lam must be a finite number, got True"):
                NonlinearityParams(lam=flag, epsilon=0.1)
            for eps in (flag, (0.1, flag)):
                with pytest.raises(ValueError, match="epsilon must be finite and > 0, got True"):
                    NonlinearityParams(lam=1.0, epsilon=eps)
        # Nor is None, which raised TypeError.
        with pytest.raises(ValueError, match="lam must be a finite number, got None"):
            NonlinearityParams(lam=None, epsilon=0.1)
        for eps in (None, (0.1, None)):
            with pytest.raises(ValueError, match="epsilon must be finite and > 0, got None"):
                NonlinearityParams(lam=1.0, epsilon=eps)


class TestRegLog:
    def test_at_zero(self):
        assert reg_log(0.0, P01) == pytest.approx(-4.605170185988091, abs=1e-14)

    def test_unit_argument(self):
        p = NonlinearityParams(lam=1.0, epsilon=0.3)
        assert reg_log(1.0 - 0.3**2, p) == pytest.approx(0.0, abs=1e-15)

    def test_value(self):
        # high-precision evaluation of ln(1.25)
        assert reg_log(1.0, P05) == pytest.approx(0.22314355131420976, abs=1e-15)

    def test_rejects_negative_rho(self):
        with pytest.raises(ValueError):
            reg_log(-1e-9, P01)

    def test_monotone(self):
        rho = np.linspace(0.0, 10.0, 200)
        vals = reg_log(rho, P01)
        assert np.all(np.diff(vals) > 0.0)


class TestRegLogPrimitive:
    def test_zero(self):
        assert reg_log_primitive(0.0, P01) == 0.0

    def test_closed_form_against_quadrature(self):
        # frozen from the closed form, cross-checked by adaptive quadrature
        assert reg_log_primitive(1.0, P05) == pytest.approx(
            -0.37449697057726515, abs=1e-14
        )
        assert reg_log_primitive(1.0, P05) == pytest.approx(
            primitive_quadrature(1.0, 0.5), abs=1e-12
        )

    def test_quadrature_oracle_small_eps(self):
        v = reg_log_primitive(2.0, P01)
        assert abs(v - primitive_quadrature(2.0, 0.1)) < 1e-12

    @pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-5])
    @pytest.mark.parametrize("rho", [1e-12, 1e-6, 0.37, 2.0, 25.0])
    def test_quadrature_oracle_grid(self, eps, rho):
        p = NonlinearityParams(lam=1.0, epsilon=eps)
        v = reg_log_primitive(rho, p)
        ref = primitive_quadrature(rho, eps)
        assert abs(v - ref) < 1e-12 * (1.0 + abs(ref))

    def test_derivative_is_reg_log(self):
        # primitive consistency via centered differences
        delta = 1e-6
        for rho in np.linspace(delta, 10.0, 57):
            fd = (
                reg_log_primitive(rho + delta, P01) - reg_log_primitive(rho - delta, P01)
            ) / (2.0 * delta)
            assert abs(fd - reg_log(rho, P01)) < 1e-6

    def test_tiny_epsilon_no_overflow(self):
        # rho/eps^2 overflows here; the log1p fallback keeps the value finite
        p = NonlinearityParams(lam=1.0, epsilon=1e-150)
        rho = 1e10
        v = reg_log_primitive(rho, p)
        assert math.isfinite(v)
        assert v == pytest.approx(rho * math.log(rho) - rho, rel=1e-14)

    def test_underflowing_epsilon_rejected(self):
        with pytest.raises(ValueError):
            NonlinearityParams(lam=1.0, epsilon=1e-200)


def _primitive_terms_oracle(rho, eps2):
    """V's three terms rho*ln(eps^2+rho), eps^2*ln(1+rho/eps^2), -rho at 50 digits.

    ``eps2`` None gives the unregularized pair rho*ln(rho), -rho.
    """
    import mpmath as mp

    with mp.workdps(50):
        r = mp.mpf(rho)
        if eps2 is None:
            return [r * mp.log(r) if rho > 0.0 else mp.mpf(0), -r]
        e2 = mp.mpf(eps2)
        return [r * mp.log(e2 + r), e2 * mp.log1p(r / e2), -r]


def _assert_near_oracle(got, terms):
    # V crosses 0, so its error is measured against the size of its terms.
    import mpmath as mp

    with mp.workdps(50):
        exact = mp.fsum(terms)
        size = float(mp.fsum(abs(t) for t in terms))
        assert abs(float(mp.mpf(float(got)) - exact)) <= 4.0 * np.spacing(size)


rho_values = st.floats(min_value=0.0, max_value=1e3)


class TestPrimitiveOracle:
    @settings(max_examples=60, deadline=None)
    @given(rhos=st.lists(rho_values, min_size=1, max_size=20), eps=st.floats(1e-8, 1.0))
    @example(rhos=[0.0, 5e-324, 2.2e-308, 1e-20, 1e-16, 1.0, 1e3], eps=1e-8)
    @example(rhos=[0.0, 5e-324, 1e-300, 0.25, 1.0, 1e3], eps=1.0)
    def test_reg_log_primitive_within_ulps(self, rhos, eps):
        # the array path (numpy's vector log) and the scalar path
        p = NonlinearityParams(lam=1.0, epsilon=eps)
        values = reg_log_primitive(np.array(rhos), p)
        for rho, v in zip(rhos, values):
            terms = _primitive_terms_oracle(rho, p.eps2)
            _assert_near_oracle(v, terms)
            _assert_near_oracle(reg_log_primitive(rho, p), terms)

    @settings(max_examples=60, deadline=None)
    @given(rhos=st.lists(rho_values, min_size=1, max_size=20))
    @example(rhos=[0.0, 5e-324, 2.2e-308, 1e-20, 1.0, math.e, 1e3])
    def test_unreg_log_primitive_within_ulps(self, rhos):
        values = unreg_log_primitive(np.array(rhos))
        for rho, v in zip(rhos, values):
            terms = _primitive_terms_oracle(rho, None)
            _assert_near_oracle(v, terms)
            _assert_near_oracle(unreg_log_primitive(rho), terms)

    def test_overflow_fallback_within_ulps(self):
        # rho/eps^2 overflows for every rho here, so the middle term is the
        # rearranged eps^2*(ln(rho) - ln(eps^2))
        p = NonlinearityParams(lam=1.0, epsilon=1e-160)
        rhos = np.array([1e-2, 1.0, 1e3])
        with np.errstate(over="ignore"):
            assert not np.isfinite(rhos / p.eps2).any()
        for rho, v in zip(rhos, reg_log_primitive(rhos, p)):
            _assert_near_oracle(v, _primitive_terms_oracle(rho, p.eps2))

    @pytest.mark.parametrize("eps", [1e-8, 0.1, 1.0, 2.0])
    def test_zero_is_positive_zero(self, eps):
        p = NonlinearityParams(lam=1.0, epsilon=eps)
        for v in (reg_log_primitive(0.0, p), reg_log_primitive(np.zeros(3), p)[1]):
            assert v == 0.0 and not np.signbit(v)
        for v in (unreg_log_primitive(0.0), unreg_log_primitive(np.zeros(3))[1]):
            assert v == 0.0 and not np.signbit(v)

    def test_inf_and_nan_give_nan(self):
        # inf - inf: numpy warns and gives NaN, as the scipy xlogy form did
        rho = np.array([math.inf, math.nan, 1.0])
        with pytest.warns(RuntimeWarning):
            v, v_unreg = reg_log_primitive(rho, P01), unreg_log_primitive(rho)
        assert np.isnan(v[:2]).all() and np.isnan(v_unreg[:2]).all()
        assert np.isfinite(v[2]) and v_unreg[2] == -1.0
        assert math.isnan(reg_log_primitive(math.nan, P01))
        assert math.isnan(unreg_log_primitive(math.nan))


def test_import_footprint():
    # V and its unregularized twin use numpy's log, so scipy.special, about
    # 0.15 s and 16 MiB to import on top of the package, is loaded by no
    # module of it.  Nor is the scipy.linalg package, about 0.17 s and
    # 18 MiB: the cyclic solve's dgtsv is loaded from its _flapack extension.
    code = (
        "import sys, logkge, logkge.cache, logkge.harness\n"
        "print(*(name in sys.modules for name in\n"
        "        ('scipy.special', 'scipy.linalg', 'scipy.linalg._flapack')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(nonlinearity.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["False", "False", "True"]


class TestDiscreteGradient:
    def test_equal_arguments_limit(self):
        assert discrete_gradient(1.0, 1.0, P01) == pytest.approx(
            0.009950330853155723, rel=1e-12
        )

    def test_equal_arguments_integral_oracle(self):
        # oracle: integral form, averaged log along the segment between the
        # squared arguments, at a slightly perturbed second argument
        z1, eps = 1.0, 0.1
        z2 = z1 + 1e-9
        theta = np.linspace(0.0, 1.0, 20001)
        integrand = np.log(eps**2 + theta * z1**2 + (1 - theta) * z2**2)
        oracle = np.trapezoid(integrand, theta) * 0.5 * (z1 + z2)
        assert discrete_gradient(z1, z2, P01) == pytest.approx(oracle, rel=1e-9)

    def test_antisymmetric_pair_is_zero(self):
        for z in [0.0, 0.3, 1.7, -42.0]:
            assert discrete_gradient(z, -z, P01) == 0.0

    def test_one_zero_argument(self):
        expected = -0.37449697057726515 / 1.0 * 0.5
        assert discrete_gradient(1.0, 0.0, P05) == pytest.approx(expected, rel=1e-13)

    def test_integral_form_oracle_generic(self):
        # the divided-difference form must agree with the integral form
        # (average of the regularized log along the segment of squares)
        rng = np.random.default_rng(7)
        for _ in range(25):
            z1, z2 = rng.uniform(-3, 3, size=2)
            eps = 10.0 ** rng.uniform(-4, -0.5)
            p = NonlinearityParams(lam=1.0, epsilon=eps)
            oracle = (
                scipy_quad(
                    lambda th: math.log(eps**2 + th * z1**2 + (1 - th) * z2**2),
                    0.0,
                    1.0,
                    limit=200,
                )[0]
                * 0.5
                * (z1 + z2)
            )
            got = discrete_gradient(z1, z2, p)
            assert got == pytest.approx(oracle, rel=1e-8, abs=1e-10)

    @settings(max_examples=200)
    @given(z1=z_values, z2=z_values, eps=eps_values)
    def test_symmetry_exact(self, z1, z2, eps):
        p = NonlinearityParams(lam=1.0, epsilon=eps)
        assert discrete_gradient(z1, z2, p) == discrete_gradient(z2, z1, p)

    @settings(max_examples=200)
    @given(z=z_values, eps=eps_values)
    def test_continuity_across_switch(self, z, eps):
        p = NonlinearityParams(lam=1.0, epsilon=eps)
        lim = reg_log(z * z, p) * z
        got = discrete_gradient(z, z * (1.0 + 1e-12), p)
        assert abs(got - lim) < 1e-9 * (1.0 + abs(lim))

    def test_telescoping_identity(self):
        # DG(z1,z2)*(z1-z2) equals half the primitive difference: the exact
        # property the conservative schemes rely on
        rng = np.random.default_rng(11)
        z1 = rng.uniform(-4, 4, size=300)
        z2 = rng.uniform(-4, 4, size=300)
        lhs = discrete_gradient(z1, z2, P01) * (z1 - z2)
        rhs = 0.5 * (reg_log_primitive(z1**2, P01) - reg_log_primitive(z2**2, P01))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-14)


class TestDiscreteGradientDerivative:
    def test_origin(self):
        for eps in [0.5, 0.1, 1e-3]:
            p = NonlinearityParams(lam=1.0, epsilon=eps)
            assert discrete_gradient_dz1(0.0, 0.0, p) == pytest.approx(
                math.log(eps * eps) / 2.0, rel=1e-14
            )

    @pytest.mark.parametrize(
        "z1,z2,eps",
        [(1.0, 0.0, 0.5), (0.3, 0.7, 0.05), (-1.2, 0.4, 0.01), (2.0, -0.5, 0.3)],
    )
    def test_matches_finite_differences(self, z1, z2, eps):
        p = NonlinearityParams(lam=1.0, epsilon=eps)
        delta = 1e-5
        fd = (
            discrete_gradient(z1 + delta, z2, p) - discrete_gradient(z1 - delta, z2, p)
        ) / (2.0 * delta)
        d = discrete_gradient_dz1(z1, z2, p)
        assert abs(d - fd) < 1e-6 * (1.0 + abs(fd))

    def test_finite_difference_sample_across_switch(self):
        # 1000 points with the squared-argument gap above and below the
        # branch switch.  The FD step 1e-4*(1+|z1|) balances truncation
        # against the gap^-1 amplified roundoff the divided difference
        # suffers when probed near coincidence; smaller steps degrade the
        # probe itself, not the derivative under test.
        rng = np.random.default_rng(3)
        n = 1000
        z1 = rng.uniform(0.1, 3.0, size=n)
        below = rng.random(n) < 0.5
        rel_gap = np.where(
            below,
            10.0 ** rng.uniform(-12, -9, size=n),
            10.0 ** rng.uniform(-3, 0.5, size=n),
        )
        sign = rng.choice([-1.0, 1.0], size=n)
        z2 = np.sqrt(np.maximum(z1**2 * (1.0 + sign * rel_gap), 1e-12))
        eps = 10.0 ** rng.uniform(-3, -0.5, size=n)
        worst = 0.0
        for i in range(n):
            p = NonlinearityParams(lam=1.0, epsilon=float(eps[i]))
            delta = 1e-4 * (1.0 + abs(z1[i]))
            fd = (
                discrete_gradient(z1[i] + delta, z2[i], p)
                - discrete_gradient(z1[i] - delta, z2[i], p)
            ) / (2.0 * delta)
            d = discrete_gradient_dz1(float(z1[i]), float(z2[i]), p)
            worst = max(worst, abs(d - fd) / (1.0 + abs(fd)))
        assert worst < 1e-6

    def test_exact_derivative_in_cancellation_band(self):
        # arbitrary-precision oracle through the band where FD probes fail
        import mpmath as mp

        def d_exact(z1, z2, eps):
            with mp.workdps(50):
                z2m, e2 = mp.mpf(z2), mp.mpf(eps) ** 2

                def G(z):
                    r1, r2 = z * z, z2m * z2m
                    F = lambda r: r * mp.log(e2 + r) + e2 * mp.log(1 + r / e2) - r
                    dd = (
                        mp.log(e2 + (r1 + r2) / 2)
                        if r1 == r2
                        else (F(r1) - F(r2)) / (r1 - r2)
                    )
                    return dd * (z + z2m) / 2

                return float(mp.diff(G, mp.mpf(z1), h=mp.mpf("1e-25")))

        rng = np.random.default_rng(17)
        for _ in range(20):
            z1 = float(rng.uniform(0.2, 2.5))
            rel_gap = float(10.0 ** rng.uniform(-8, -3))
            z2 = math.sqrt(z1**2 * (1.0 + rng.choice([-1.0, 1.0]) * rel_gap))
            eps = float(10.0 ** rng.uniform(-3, -0.5))
            p = NonlinearityParams(lam=1.0, epsilon=eps)
            d = discrete_gradient_dz1(z1, z2, p)
            ref = d_exact(z1, z2, eps)
            assert abs(d - ref) < 1e-6 * (1.0 + abs(ref))


def _reference_dg(z1, z2, p):
    """discrete_gradient as two separate formulas computed it, kept as an oracle."""
    rho1 = z1 * z1
    rho2 = z2 * z2
    gap = rho1 - rho2
    scale = rho1 + rho2 + p.eps2
    near = np.abs(gap) <= COINCIDENCE_REL_TOL * scale
    safe_gap = np.where(near, 1.0, gap)
    dd = np.where(
        near,
        np.log(p.eps2 + 0.5 * (rho1 + rho2)),
        (reg_log_primitive(rho1, p) - reg_log_primitive(rho2, p)) / safe_gap,
    )
    return dd * 0.5 * (z1 + z2)


def _reference_dg_dz1(z1, z2, p):
    """discrete_gradient_dz1 as two separate formulas computed it, kept as an oracle."""
    rho1 = z1 * z1
    rho2 = z2 * z2
    gap = rho1 - rho2
    scale = rho1 + rho2 + p.eps2
    near = np.abs(gap) <= DERIVATIVE_REL_TOL * scale
    safe_gap = np.where(near, 1.0, gap)
    rho_mid = 0.5 * (rho1 + rho2)
    f_mid = np.log(p.eps2 + rho_mid)
    dd = np.where(
        near,
        f_mid,
        (reg_log_primitive(rho1, p) - reg_log_primitive(rho2, p)) / safe_gap,
    )
    denom_mid = p.eps2 + rho_mid
    ddd_drho1 = np.where(
        near,
        0.5 / denom_mid - gap / (12.0 * denom_mid * denom_mid),
        (np.log(p.eps2 + rho1) - dd) / safe_gap,
    )
    return 2.0 * z1 * ddd_drho1 * 0.5 * (z1 + z2) + 0.5 * dd


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


class TestFusedKernel:
    @settings(max_examples=300)
    @given(
        z=z_values,
        eps=st.floats(min_value=1e-8, max_value=1.0),
        inside=st.floats(min_value=1e-14, max_value=1e-9),
        band=st.floats(min_value=1e-7, max_value=1e-5),
        outside=st.floats(min_value=1e-3, max_value=10.0),
    )
    @example(z=0.0, eps=1e-8, inside=1e-12, band=1e-6, outside=1.0)
    @example(z=1e-300, eps=1e-8, inside=1e-12, band=1e-6, outside=1.0)
    def test_matches_separate_formulas_bitwise(self, z, eps, inside, band, outside):
        # z2 = +-z1 and 0, then relative offsets inside the 1e-8 gradient
        # band, inside the 1e-4 derivative band only, and outside both.
        p = NonlinearityParams(lam=1.0, epsilon=eps)
        offsets = np.array([inside, band, outside])
        z2 = np.concatenate(([z, -z, 0.0], z * (1.0 + offsets), -z * (1.0 - offsets)))
        z1 = np.concatenate((np.full(z2.size, z), [0.0, 0.0]))
        z2 = np.concatenate((z2, [0.0, z]))
        v1, v2 = reg_log_primitive(z1 * z1, p), reg_log_primitive(z2 * z2, p)
        want_dg, want_dz1 = _reference_dg(z1, z2, p), _reference_dg_dz1(z1, z2, p)

        dg, dz1 = fused_discrete_gradient(z1, z2, v1, v2, p, derivative=True)
        assert _bits(dg) == _bits(want_dg) and _bits(dz1) == _bits(want_dz1)
        dg_only, none = fused_discrete_gradient(z1, z2, v1, v2, p)
        assert _bits(dg_only) == _bits(want_dg) and none is None
        assert _bits(discrete_gradient(z1, z2, p)) == _bits(want_dg)
        assert _bits(discrete_gradient_dz1(z1, z2, p)) == _bits(want_dz1)
        for a, b in zip(z1, z2):  # the scalar wrappers take the same path
            assert discrete_gradient(a, b, p) == _reference_dg(np.float64(a), np.float64(b), p)


class TestBlockedKernel:
    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    @pytest.mark.parametrize("derivative", [False, True])
    def test_blocks_match_one_pass_bitwise(self, n, derivative):
        # Relative gaps cycle through the 1e-8 gradient band, the 1e-4
        # derivative band only, and outside both; zeros and z2 = -z1 too.
        p = NonlinearityParams(lam=1.0, epsilon=0.05)
        rng = np.random.default_rng(n)
        z1 = rng.uniform(-3.0, 3.0, n)
        rel = np.resize([1e-12, 1e-6, 1e-2, 0.5], n) * rng.choice([-1.0, 1.0], n)
        z2 = z1 * (1.0 + rel)
        z1[::97], z2[1::89], z2[2::101] = 0.0, 0.0, -z1[2::101]
        gap = np.abs(z1 * z1 - z2 * z2) / (z1 * z1 + z2 * z2 + p.eps2)
        assert np.any(gap <= COINCIDENCE_REL_TOL) and np.any(gap > DERIVATIVE_REL_TOL)
        assert np.any((gap > COINCIDENCE_REL_TOL) & (gap <= DERIVATIVE_REL_TOL))
        v1, v2 = reg_log_primitive(z1 * z1, p), reg_log_primitive(z2 * z2, p)
        one_pass_v1 = nonlinearity._primitive(z1 * z1, p.eps2, np.empty(n))
        assert _bits(v1) == _bits(one_pass_v1)  # V's blocks too
        dg, dz1 = fused_discrete_gradient(z1, z2, v1, v2, p, derivative)
        want_dg, want_dz1 = want = (np.empty(n), np.empty(n))
        nonlinearity._fused_block(z1, z2, v1, v2, p.eps2, derivative, want, {})
        assert _bits(dg) == _bits(want_dg)
        if derivative:
            assert _bits(dz1) == _bits(want_dz1)
            assert _bits(discrete_gradient_dz1(z1, z2, p)) == _bits(want_dz1)
        else:
            assert dz1 is None
            assert _bits(discrete_gradient(z1, z2, p)) == _bits(want_dg)
        # Into given outputs, twice with one scratch, and as rows of a batch
        # whose other member has its own width: the same bits.
        scratch, out = {}, (np.empty(n), np.empty(n))
        for _ in range(2):
            got = fused_discrete_gradient(z1, z2, v1, v2, p, derivative, out, scratch)
            assert got[0] is out[0] and _bits(got[0]) == _bits(want_dg)
            assert _bits(got[1]) == _bits(want_dz1) if derivative else got[1] is None
        pair = NonlinearityParams(lam=1.0, epsilon=(0.05, 0.1))
        rows = [np.stack([z, z[::-1]]) for z in (z1, z2)]
        vs = [reg_log_primitive(r * r, pair) for r in rows]
        assert _bits(vs[0][0]) == _bits(v1)
        assert _bits(vs[0][1]) == _bits(reg_log_primitive(rows[0][1] * rows[0][1], pair.member(1)))
        got = fused_discrete_gradient(*rows, *vs, pair, derivative)
        assert _bits(got[0][0]) == _bits(want_dg)
        assert _bits(got[0][1]) == _bits(
            fused_discrete_gradient(z1[::-1], z2[::-1], vs[0][1], vs[1][1], pair.member(1))[0])

    @pytest.mark.parametrize("n", [BLOCK, BLOCK + 1])
    def test_result_without_out_survives_a_second_call(self, n):
        # The kernel writes only into its outputs: a result made without
        # ``out`` is not a temporary of the scratch the next call reuses.
        z1 = np.linspace(-3.0, 3.0, n)
        z2 = 0.75 * z1[::-1]
        v1, v2 = reg_log_primitive(z1 * z1, P01), reg_log_primitive(z2 * z2, P01)
        scratch = {}
        dg, dz1 = fused_discrete_gradient(z1, z2, v1, v2, P01, True, scratch=scratch)
        want = _bits(dg), _bits(dz1)
        fused_discrete_gradient(z2, z1, v2, v1, P01, True, scratch=scratch)
        assert (_bits(dg), _bits(dz1)) == want
        assert want == tuple(map(_bits, fused_discrete_gradient(z1, z2, v1, v2, P01, True)))

    def test_batched_blocks_build_no_params(self, monkeypatch):
        # Each row's eps2 comes from the batch's column, not from a
        # NonlinearityParams per row.
        pair = NonlinearityParams(lam=1.0, epsilon=(0.05, 0.1))
        z1 = np.stack([np.linspace(-3.0, 3.0, BLOCK + 1), np.linspace(-1.0, 2.0, BLOCK + 1)])
        z2 = 0.75 * z1[:, ::-1]
        built = []
        post_init = NonlinearityParams.__post_init__
        monkeypatch.setattr(NonlinearityParams, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        v1, v2 = reg_log_primitive(z1 * z1, pair), reg_log_primitive(z2 * z2, pair)
        dg, dz1 = fused_discrete_gradient(z1, z2, v1, v2, pair, derivative=True)
        assert built == []
        for m, eps in enumerate(pair.widths):
            p = NonlinearityParams(lam=1.0, epsilon=eps)
            assert _bits(v1[m]) == _bits(reg_log_primitive(z1[m] * z1[m], p))
            assert _bits(dg[m]) == _bits(discrete_gradient(z1[m], z2[m], p))
            assert _bits(dz1[m]) == _bits(discrete_gradient_dz1(z1[m], z2[m], p))

    @pytest.mark.parametrize("derivative", [False, True])
    def test_warm_call_with_scratch_allocates_no_layer(self, derivative):
        # Given out and a warmed scratch, a call keeps every temporary,
        # the coincidence mask too, in the scratch: its peak is below one
        # n-byte bool mask (1440 B at n = 1024 when the mask was made anew).
        n = 1024
        z1 = np.linspace(-3.0, 3.0, n)
        z2 = 0.75 * z1[::-1]
        v1, v2 = reg_log_primitive(z1 * z1, P01), reg_log_primitive(z2 * z2, P01)
        scratch, out = {}, (np.empty(n), np.empty(n))
        fused_discrete_gradient(z1, z2, v1, v2, P01, derivative, out, scratch)
        tracemalloc.start()
        try:
            fused_discrete_gradient(z1, z2, v1, v2, P01, derivative, out, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n

    def test_scalar_and_zero_d_inputs(self):
        z1 = np.linspace(-2.0, 2.0, BLOCK + 5)
        z2 = 0.75 * z1[::-1]
        dg, dz1 = discrete_gradient(z1, z2, P01), discrete_gradient_dz1(z1, z2, P01)
        for i in (0, BLOCK, BLOCK + 4):
            for a, b in ((z1[i], z2[i]), (np.asarray(z1[i]), np.asarray(z2[i]))):
                got, got_dz1 = discrete_gradient(a, b, P01), discrete_gradient_dz1(a, b, P01)
                assert type(got) is float and got == dg[i]
                assert type(got_dz1) is float and got_dz1 == dz1[i]


class TestUnregularized:
    def test_primitive_values(self):
        assert unreg_log_primitive(0.0) == 0.0
        assert unreg_log_primitive(1.0) == pytest.approx(-1.0, abs=1e-15)

    def test_log_at_e(self):
        assert unreg_log(math.e) == pytest.approx(1.0, abs=1e-15)

    def test_log_rejects_origin(self):
        with pytest.raises(ValueError):
            unreg_log(0.0)

    @settings(max_examples=100)
    @given(
        rho=st.floats(min_value=1e-8, max_value=100.0),
        eps=st.floats(min_value=1e-8, max_value=0.9),
    )
    @example(rho=5.118345000647613e-08, eps=1e-08)
    @example(rho=0.9921875, eps=1e-08)
    def test_monotone_epsilon_limit(self, rho, eps):
        # ln(eps^2 + rho) - ln(rho) <= eps^2/rho, up to the rounding of the
        # two logs, a few ulps of |ln rho| (3.6e-15 each near rho = 5e-8),
        # and of eps^2 + rho itself, which moves the log by up to 2^-53
        p = NonlinearityParams(lam=1.0, epsilon=eps)
        f_reg = reg_log(rho, p)
        f_raw = unreg_log(rho)
        assert f_reg >= f_raw
        assert f_reg - f_raw <= eps * eps / rho + 4.0 * np.spacing(abs(f_raw)) + 2.0**-53

    def test_epsilon_limit_decreasing(self):
        rho = 0.7
        vals = [
            reg_log(rho, NonlinearityParams(lam=1.0, epsilon=e))
            for e in [0.5, 0.1, 0.01, 1e-4]
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(unreg_log(rho), abs=1e-7)


class TestGapDensity:
    def test_zero_at_origin(self):
        assert reg_unreg_gap_density(0.0, P01) == 0.0

    def test_matches_primitive_difference(self):
        rng = np.random.default_rng(5)
        rho = rng.uniform(0.05, 20.0, size=100)
        direct = reg_log_primitive(rho, P01) - unreg_log_primitive(rho)
        np.testing.assert_allclose(
            reg_unreg_gap_density(rho, P01), direct, rtol=1e-10
        )

    def test_pointwise_bound(self):
        rng = np.random.default_rng(9)
        for eps in [1e-1, 1e-3, 1e-6]:
            p = NonlinearityParams(lam=1.0, epsilon=eps)
            u = rng.uniform(0.0, 5.0, size=1000)
            dens = reg_unreg_gap_density(u * u, p)
            assert np.all(dens >= 0.0)
            assert np.all(dens <= 4.0 * eps * u + 1e-300)
