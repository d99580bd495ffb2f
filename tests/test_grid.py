import math

import numpy as np
import pytest

from logkge.grid import (
    Grid1D,
    GridFunction,
    inner,
    norm_h1,
    norm_l2,
    norm_linf,
    periodic_forward_diff,
    periodic_second_diff,
    quad,
    quad_l1,
    seminorm_h1,
)


@pytest.fixture
def g():
    return Grid1D(a=-1.0, b=1.0, N=64)


def random_gf(g, rng):
    return rng.standard_normal(g.N)


class TestGrid1D:
    def test_mesh_size(self):
        g = Grid1D(0.0, 2.0, 8)
        assert g.h == 0.25
        assert g.h * g.N == g.b - g.a

    def test_nodes(self, g):
        # the N independent nodes; x_N = b is identified with x_0
        x = g.nodes
        assert x.shape == (g.N,)
        assert x[0] == g.a
        assert x[-1] + g.h == pytest.approx(g.b, abs=1e-14)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 0.0, 8)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 3)
        with pytest.raises(ValueError, match="finite a < b"):
            Grid1D(0.0, math.inf, 8)
        with pytest.raises(ValueError, match="an int N >= 4, got N=4.5"):
            Grid1D(0.0, 1.0, 4.5)
        # A bool is not an end point, though False < True; nor is numpy's.
        for a, b in ((False, True), (np.False_, 1.0), (0.0, np.True_)):
            with pytest.raises(ValueError, match="finite a < b"):
                Grid1D(a, b, 4)


class TestGridFunction:
    def test_endpoint_normalized(self, g):
        vals = np.arange(g.N + 1, dtype=float)
        u = GridFunction(vals)
        assert u.values[-1] == u.values[0]

    def test_immutable(self, g):
        u = GridFunction.from_core(np.zeros(g.N))
        assert len(u) == g.N + 1
        with pytest.raises(ValueError):
            u.values[0] = 1.0

    def test_sample_constant(self, g):
        # Grid1D.sample broadcasts a scalar result to the N nodes
        u = g.sample(lambda x: 3.0)
        assert u.shape == (g.N,)
        assert np.all(u == 3.0)


class TestOperators:
    def test_laplacian_of_constant(self, g):
        u = g.sample(lambda x: 7.5)
        np.testing.assert_allclose(periodic_second_diff(u, g.h), 0.0, atol=1e-12)

    @pytest.mark.parametrize("l", [1, 3, 7])
    def test_laplacian_eigenfunction(self, g, l):
        # sine modes are eigenfunctions of the periodic three-point stencil
        # with eigenvalue -s_l^2, s_l = (2/h) sin(l pi / N); cross-checked
        # against the direct stencil application by construction
        u = g.sample(lambda x: np.sin(2 * np.pi * l * (x - g.a) / (g.b - g.a)))
        s_l = 2.0 / g.h * np.sin(l * np.pi / g.N)
        np.testing.assert_allclose(periodic_second_diff(u, g.h), -(s_l**2) * u, atol=1e-9)

    def test_wrap_always_applied(self, g):
        # a linear ramp is not periodic; the operator wraps it regardless,
        # giving slope 1 in the interior and a jump at the seam
        u = g.nodes - g.a
        d = periodic_forward_diff(u, g.h)
        np.testing.assert_allclose(d[:-1], 1.0, atol=1e-12)
        assert d[-1] == pytest.approx((0.0 - (g.b - g.a - g.h)) / g.h)

    def test_forward_diff_constant(self, g):
        u = g.sample(lambda x: -2.0)
        np.testing.assert_allclose(periodic_forward_diff(u, g.h), 0.0, atol=1e-14)

    def test_laplacian_is_composition(self, g):
        # backward difference of the forward difference
        rng = np.random.default_rng(0)
        u = random_gf(g, rng)
        d = periodic_forward_diff(u, g.h)
        back = (d - np.roll(d, 1)) / g.h
        np.testing.assert_allclose(periodic_second_diff(u, g.h), back, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 256, 4097])
    def test_stencils_are_the_roll_forms_bitwise(self, n):
        # Built in place, into a new array or a given one, on one layer and
        # on (3, n) rows; -0.0, a subnormal and +-inf (and the NaN of
        # inf - inf) included, the wrap nodes too.
        rng = np.random.default_rng(n)
        h = 0.3
        for shape in ((n,), (3, n)):
            v = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
            v[..., [0, 1, 2, -1]] = (-0.0, 5e-324, np.inf, -np.inf)
            v.reshape(-1, n)[-1, 3] = np.inf  # infinite neighbours in the last row
            with np.errstate(invalid="ignore"):
                second = (np.roll(v, -1, -1) - 2.0 * v + np.roll(v, 1, -1)) / h**2
                forward = (np.roll(v, -1, -1) - v) / h
                for out in (None, np.full(shape, 7.0)):
                    got = periodic_second_diff(v, h, out)
                    assert got.tobytes() == second.tobytes() and (out is None or got is out)
                for out in (None, np.full(shape, 7.0)):
                    got = periodic_forward_diff(v, h, out)
                    assert got.tobytes() == forward.tobytes() and (out is None or got is out)


class TestNormsAndQuadrature:
    @pytest.mark.parametrize("n", [4, 257, 4096])
    def test_rows_are_their_own_norms_bitwise(self, n):
        # A (B, N) array gives each row's value bit for bit.
        g = Grid1D(-1.0, 1.0, n)
        rng = np.random.default_rng(n)
        u, v = rng.standard_normal((3, n)), rng.standard_normal((3, n))
        for f in (norm_l2, norm_linf, seminorm_h1, norm_h1):
            assert f(u, g).tolist() == [f(row, g) for row in u]
        assert inner(u, v, g).tolist() == [inner(a, b, g) for a, b in zip(u, v)]

    @pytest.mark.parametrize("shape", [(257,), (3, 257)])
    def test_l2_forms_its_squares_in_out(self, shape):
        # The same value bit for bit, the squares left in ``out``, and each
        # row the correctly rounded root of h times its pairwise sum.
        g = Grid1D(-1.0, 1.0, shape[-1])
        u = np.random.default_rng(7).standard_normal(shape)
        out = np.empty(shape)
        got, want = norm_l2(u, g, out), norm_l2(u, g)
        assert type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert out.tobytes() == (u * u).tobytes()
        sums = np.atleast_1d(np.add.reduce(u * u, axis=-1)).tolist()
        assert np.atleast_1d(got).tolist() == [math.sqrt(g.h * s) for s in sums]

    def test_l2_of_one(self, g):
        u = g.sample(lambda x: 1.0)
        assert norm_l2(u, g) == pytest.approx(np.sqrt(g.b - g.a), rel=1e-14)

    def test_h1_seminorm_of_constant(self, g):
        u = g.sample(lambda x: 1.0)
        assert seminorm_h1(u, g) == 0.0

    def test_linf_of_constant(self, g):
        u = g.sample(lambda x: -3.25)
        assert norm_linf(u, g) == 3.25

    def test_h1_combines(self, g):
        rng = np.random.default_rng(1)
        u = random_gf(g, rng)
        assert norm_h1(u, g) == pytest.approx(
            np.hypot(norm_l2(u, g), seminorm_h1(u, g)), rel=1e-14
        )
        assert norm_h1(u, g) >= norm_l2(u, g)

    def test_quad_constant(self, g):
        assert quad(g.sample(lambda x: 1.0), g) == pytest.approx(g.b - g.a, rel=1e-14)
        u = g.sample(lambda x: -2.0)
        assert quad_l1(u, g) == pytest.approx(2 * (g.b - g.a), rel=1e-14)
        assert quad(u, g) == pytest.approx(-2 * (g.b - g.a), rel=1e-14)

    def test_quad_of_periodic_sine(self, g):
        u = g.sample(lambda x: np.sin(2 * np.pi * (x - g.a) / (g.b - g.a)))
        assert abs(quad(u, g)) < 1e-13


class TestSummationByParts:
    def test_gradient_identity(self, g):
        # -(lap u, u) = ||D+ u||^2 for 100 random grid functions
        rng = np.random.default_rng(2)
        for _ in range(100):
            u = random_gf(g, rng)
            lhs = inner(periodic_second_diff(u, g.h), u, g)
            rhs = seminorm_h1(u, g) ** 2
            assert abs(-lhs - rhs) <= 1e-12 * rhs

    def test_product_identity_with_time_difference(self, g):
        # h sum u v = (||u||^2 + ||v||^2)/2 - tau^2/2 ||(v-u)/tau||^2, any tau
        rng = np.random.default_rng(3)
        for tau in [1e-3, 0.7, 13.0]:
            u, v = random_gf(g, rng), random_gf(g, rng)
            lhs = inner(u, v, g)
            dt = (v - u) / tau
            rhs = (
                0.5 * norm_l2(u, g) ** 2
                + 0.5 * norm_l2(v, g) ** 2
                - 0.5 * tau**2 * norm_l2(dt, g) ** 2
            )
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_cross_gradient_identity(self, g):
        # h sum (D+ v)(D+ u) = 1/(2h) sum [(v_{j+1}-u_j)^2 + (u_{j+1}-v_j)^2]
        #                      - tau^2/h^2 ||(v-u)/tau||^2
        rng = np.random.default_rng(4)
        for tau in [0.1, 2.0]:
            u, v = random_gf(g, rng), random_gf(g, rng)
            lhs = inner(periodic_forward_diff(v, g.h), periodic_forward_diff(u, g.h), g)
            sq = (np.roll(v, -1) - u) ** 2 + (np.roll(u, -1) - v) ** 2
            dt = (v - u) / tau
            rhs = np.sum(sq) / (2 * g.h) - tau**2 / g.h**2 * norm_l2(dt, g) ** 2
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), np.sum(sq) / (2 * g.h))

    def test_laplacian_self_adjoint(self, g):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u, v = random_gf(g, rng), random_gf(g, rng)
            a = inner(periodic_second_diff(u, g.h), v, g)
            b = inner(u, periodic_second_diff(v, g.h), g)
            assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)
