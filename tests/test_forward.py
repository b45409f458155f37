"""Forward solvers against closed forms, ODE reductions, self-convergence,
and the directional-derivative (remainder slope) diagnostics."""

import bisect
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from pdefisher import (
    DIV_FREE,
    BumpReaction,
    FourierCoeffs,
    HeatModel,
    NavierStokesModel,
    ReactionDiffusionModel,
    SpaceTimeField,
    TimeMesh,
    build_eigensystem,
    qmd_remainder_slope,
    sobolev_norm,
)
from pdefisher.forward import _time_stencils
from pdefisher.spectral import coeffs_from_values, values_from_coeffs

LAM1 = 4 * np.pi**2


@pytest.fixture(scope="module")
def es1():
    return build_eigensystem(1, 4)


@pytest.fixture(scope="module")
def es_ns():
    return build_eigensystem(2, 4, DIV_FREE)


def _field(es, entries, const=0.0):
    u = FourierCoeffs.zeros(es)
    if const:
        u.data[es.index_of((0,) * es.d, 0)] = const
    for k, kind, val in entries:
        u.data[es.index_of(k, kind)] = val
    return u


def _nonlinear_model(kind, es1, es_ns, mesh):
    """An RD or NS model on ``mesh`` and a base state with nonlinear dynamics."""
    if kind == "rd":
        model = ReactionDiffusionModel(es1, T=mesh.T, reaction=BumpReaction(), mesh=mesh)
        return model, _field(es1, [([1], 1, 0.4)], const=0.2)
    model = NavierStokesModel(es_ns, viscosity=0.05, T=mesh.T, mesh=mesh)
    return model, _field(es_ns, [([1, 0], 1, 0.4), ([0, 1], 2, 0.3)])


class TestHeat:
    def test_constant_invariant(self, es1):
        f = HeatModel(es1, T=1.0).solve(_field(es1, [], const=3.0))
        assert np.allclose(f.data[:, 0], 3.0)
        assert np.abs(f.data[:, 1:]).max() == 0.0

    def test_first_mode_decay(self, es1):
        f = HeatModel(es1, T=1.0).solve(_field(es1, [([1], 1, 1.0)], const=0.0))
        j = es1.index_of([1], 1)
        assert f.data[-1, j] == pytest.approx(np.exp(-LAM1), rel=1e-14)

    def test_spacetime_integral_closed_form(self, es1):
        # int_0^1 int u^2 = (1 - e^{-2 lam}) / (2 lam) for theta = e_1
        mesh = TimeMesh.graded(1.0, levels=16, steps_per_block=256)
        f = HeatModel(es1, T=1.0, mesh=mesh).solve(_field(es1, [([1], 1, 1.0)]))
        exact = (1 - np.exp(-2 * LAM1)) / (2 * LAM1)
        assert f.mesh.weights @ f.squared_l2_profile() == pytest.approx(exact, abs=1e-12)


class ZeroReaction:
    def cutoff(self, u):
        return None

    def f(self, u, cut=None):
        return np.zeros_like(u)

    def df(self, u, cut=None):
        return np.zeros_like(u)


class TestReactionDiffusion:
    def test_zero_reaction_reduces_to_heat(self, es1):
        mesh = TimeMesh.uniform(1.0, 64)
        theta = _field(es1, [([1], 1, 0.5), ([2], 2, 0.3)], const=0.2)
        rd = ReactionDiffusionModel(es1, T=1.0, reaction=ZeroReaction(), mesh=mesh)
        heat = HeatModel(es1, T=1.0, mesh=mesh)
        np.testing.assert_allclose(rd.solve(theta).data, heat.solve(theta).data, atol=1e-10)

    def test_constant_state_matches_ode(self, es1):
        # spatially constant solutions follow du/dt = f(u); oracle: RK45 at 1e-12
        reaction = BumpReaction(2.0, 2.5)
        mesh = TimeMesh.uniform(0.5, 256)
        rd = ReactionDiffusionModel(es1, T=0.5, reaction=reaction, mesh=mesh)
        sol = rd.solve(_field(es1, [], const=0.4))
        ode = solve_ivp(
            lambda t, y: reaction.f(y), [0, 0.5], [0.4], rtol=1e-12, atol=1e-14
        )
        j0 = es1.index_of([0], 0)
        assert sol.data[-1, j0] == pytest.approx(ode.y[0, -1], abs=1e-8)
        assert np.abs(np.delete(sol.data, j0, axis=1)).max() < 1e-14

    def test_time_step_self_convergence(self, es1):
        # halving the step against a quarter-step reference: order-4 scheme
        theta = _field(es1, [([1], 1, 0.6), ([2], 1, 0.2)], const=0.3)
        reaction = BumpReaction(3.0, 2.5)

        def final(m):
            rd = ReactionDiffusionModel(
                es1, T=0.25, reaction=reaction, mesh=TimeMesh.uniform(0.25, m)
            )
            return rd.solve(theta).data[-1]

        ref = final(256)
        err_h = np.abs(final(64) - ref).max()
        err_h2 = np.abs(final(128) - ref).max()
        rate = err_h / err_h2
        assert 8.0 < rate < 40.0  # ~2^4 with reference contamination slack

    def test_blowup_detection(self, es1):
        class Explosive(ZeroReaction):
            def f(self, u, cut=None):
                return u**3 + 50.0

            def df(self, u, cut=None):
                return 3 * u**2

        rd = ReactionDiffusionModel(
            es1, T=5.0, reaction=Explosive(), mesh=TimeMesh.uniform(5.0, 8)
        )
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(RuntimeError):
                rd.solve(_field(es1, [], const=50.0))


class TestLinearizeRD:
    def test_zero_reaction_is_heat_flow(self, es1):
        mesh = TimeMesh.uniform(1.0, 64)
        rd = ReactionDiffusionModel(es1, T=1.0, reaction=ZeroReaction(), mesh=mesh)
        theta0 = _field(es1, [([1], 1, 0.5)])
        h = _field(es1, [([2], 1, 1.0)])
        U = rd.linearize(theta0, h)
        H = HeatModel(es1, T=1.0, mesh=mesh).solve(h)
        np.testing.assert_allclose(U.data, H.data, atol=1e-12)

    def test_linearity(self, es1):
        mesh = TimeMesh.uniform(0.5, 64)
        rd = ReactionDiffusionModel(es1, T=0.5, reaction=BumpReaction(), mesh=mesh)
        theta0 = _field(es1, [([1], 1, 0.4)], const=0.3)
        h1 = _field(es1, [([1], 2, 1.0)])
        h2 = _field(es1, [([3], 1, 1.0)])
        lhs = rd.linearize(theta0, 2.0 * h1 + (-0.7) * h2)
        rhs = 2.0 * rd.linearize(theta0, h1).data - 0.7 * rd.linearize(theta0, h2).data
        np.testing.assert_allclose(lhs.data, rhs, atol=1e-10)

    def test_finite_difference_slope(self, es1):
        mesh = TimeMesh.uniform(0.5, 128)
        rd = ReactionDiffusionModel(es1, T=0.5, reaction=BumpReaction(2.0, 2.5), mesh=mesh)
        theta0 = _field(es1, [([1], 1, 0.4), ([2], 2, 0.2)], const=0.3)
        h = _field(es1, [([1], 1, 1.0)])
        out = qmd_remainder_slope(rd, theta0, h, [1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1])
        assert abs(out["slope"] - 2.0) < 0.15

    @pytest.mark.parametrize("kind", ["rd", "ns"])
    def test_batch_matches_single(self, es1, es_ns, kind):
        model, theta0 = _nonlinear_model(kind, es1, es_ns, TimeMesh.uniform(0.5, 32))
        cols = np.eye(model.es.size, 3)
        batch = model.linearize(theta0, cols)
        for b in range(3):
            single = model.linearize(theta0, FourierCoeffs(model.es, cols[:, b]))
            np.testing.assert_allclose(batch.data[:, :, b], single.data, atol=1e-13)


class TestNavierStokes:
    def test_single_mode_exact_decay(self, es_ns):
        ns = NavierStokesModel(es_ns, viscosity=0.05, T=0.5, mesh=TimeMesh.uniform(0.5, 128))
        j = es_ns.index_of([1, 0], 1)
        f = ns.solve(FourierCoeffs.unit(es_ns, j))
        exact = np.exp(-0.05 * es_ns.lam[j] * ns.mesh.nodes)
        assert np.abs(f.data[:, j] - exact).max() < 1e-10
        assert np.abs(np.delete(f.data, j, axis=1)).max() < 1e-14

    def test_divergence_free_coefficients(self, es_ns):
        ns = NavierStokesModel(es_ns, viscosity=0.05, T=0.25, mesh=TimeMesh.uniform(0.25, 64))
        theta = _field(es_ns, [([1, 0], 1, 0.4), ([0, 1], 2, 0.3), ([1, 1], 1, 0.2)])
        f = ns.solve(theta)
        assert ns.lattice_divergence(f) < 1e-12

    def test_energy_identity(self, es_ns):
        ns = NavierStokesModel(es_ns, viscosity=0.05, T=0.5, mesh=TimeMesh.uniform(0.5, 128))
        theta = _field(es_ns, [([1, 0], 1, 0.4), ([0, 1], 2, 0.3), ([1, 1], 1, 0.2)])
        assert ns.energy_balance_residual(ns.solve(theta)) < 1e-6

    def test_forcing_steady_contribution(self, es_ns):
        # with theta = 0 and small forcing the flow grows toward the forced mode
        forcing = _field(es_ns, [([1, 0], 1, 0.3)])
        ns = NavierStokesModel(
            es_ns, viscosity=0.1, T=0.5, forcing=forcing, mesh=TimeMesh.uniform(0.5, 64)
        )
        f = ns.solve(FourierCoeffs.zeros(es_ns))
        j = es_ns.index_of([1, 0], 1)
        lam = es_ns.lam[j]
        # curl maps velocity forcing to vorticity; single-mode response is linear
        expected = 0.3 * (1 - np.exp(-0.1 * lam * 0.5)) / (0.1 * lam)
        assert f.data[-1, j] == pytest.approx(expected, rel=1e-8)

    def test_linearize_zero_base_is_stokes(self, es_ns):
        ns = NavierStokesModel(es_ns, viscosity=0.05, T=0.5, mesh=TimeMesh.uniform(0.5, 64))
        h = _field(es_ns, [([1, 1], 1, 1.0), ([0, 1], 2, 0.5)])
        U = ns.linearize(FourierCoeffs.zeros(es_ns), h)
        stokes = h.data[None, :] * np.exp(-0.05 * np.outer(ns.mesh.nodes, es_ns.lam))
        np.testing.assert_allclose(U.data, stokes, atol=1e-12)

    def test_linearity(self, es_ns):
        ns = NavierStokesModel(es_ns, viscosity=0.05, T=0.25, mesh=TimeMesh.uniform(0.25, 64))
        theta0 = _field(es_ns, [([1, 0], 1, 0.4), ([0, 1], 2, 0.3)])
        h1 = _field(es_ns, [([1, 1], 1, 1.0)])
        h2 = _field(es_ns, [([0, 1], 1, 1.0)])
        lhs = ns.linearize(theta0, 1.5 * h1 + 2.0 * h2)
        rhs = 1.5 * ns.linearize(theta0, h1).data + 2.0 * ns.linearize(theta0, h2).data
        np.testing.assert_allclose(lhs.data, rhs, atol=1e-10)

    def test_finite_difference_slope(self, es_ns):
        ns = NavierStokesModel(es_ns, viscosity=0.05, T=0.25, mesh=TimeMesh.uniform(0.25, 64))
        theta0 = _field(es_ns, [([1, 0], 1, 0.4), ([0, 1], 2, 0.3), ([1, 1], 1, 0.2)])
        h = _field(es_ns, [([0, 1], 1, 1.0)])
        out = qmd_remainder_slope(ns, theta0, h, [1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1])
        assert abs(out["slope"] - 2.0) < 0.2


def _fft_curl(u):
    """Vorticity omega = d u2/dx1 - d u1/dx2 of velocity grid values u
    (..., 2, n, n), and its d/dx1 and d/dx2, by numpy's full complex FFT."""
    n = u.shape[-1]
    k = 2j * np.pi * np.fft.fftfreq(n, d=1.0 / n)
    kx, ky = k[:, None], k[None, :]
    u_hat = np.fft.fft2(u)
    w_hat = kx * u_hat[..., 1, :, :] - ky * u_hat[..., 0, :, :]
    return [np.fft.ifft2(d * w_hat).real for d in (1.0, kx, ky)]


class TestNavierStokesGridMaps:
    """The dense maps the marcher runs on, against grid values and FFT
    derivatives computed without them."""

    @pytest.mark.parametrize("kmax", [2, 4, 6])
    def test_to_grid_columns(self, kmax):
        es = build_eigensystem(2, kmax, DIV_FREE)
        ns = NavierStokesModel(es, viscosity=0.05, T=0.25, mesh=TimeMesh.uniform(0.25, 4))
        u = values_from_coeffs(es, np.eye(es.size), ns.n)  # (nm, 2, n, n)
        _, wx, wy = _fft_curl(u)
        oracle = np.concatenate([u[:, 0], u[:, 1], wx, wy], axis=1).reshape(es.size, -1)
        got = ns._to_grid
        assert got.shape == (es.size, 4 * ns.n**2)
        assert np.abs(got - oracle).max() <= 1e-13 * np.abs(oracle).max()

    @pytest.mark.parametrize("kmax", [2, 4, 6])
    def test_from_grid_projects_advection(self, kmax):
        es = build_eigensystem(2, kmax, DIV_FREE)
        scalar = build_eigensystem(2, kmax, "mean-zero")
        ns = NavierStokesModel(es, viscosity=0.05, T=0.25, mesh=TimeMesh.uniform(0.25, 4))
        n = ns.n
        rng = np.random.default_rng(kmax)
        c = rng.standard_normal((2, es.size))
        u = values_from_coeffs(es, c, n)
        _, wx, wy = _fft_curl(u[1])
        adv = u[0, 0] * wx + u[0, 1] * wy  # u . grad omega, modes up to 2 kmax
        # the curl as a matrix on the scalar eigensystem, from the FFT curl of
        # each unit velocity field; its inverse is the inverse curl
        w = _fft_curl(values_from_coeffs(es, np.eye(es.size), n))[0]
        curl = coeffs_from_values(scalar, w)  # (nm, nm): row j is the curl of mode j
        oracle = -np.linalg.solve(curl.T, coeffs_from_values(scalar, adv))
        got = adv.reshape(-1) @ ns._from_grid
        assert got.shape == (es.size,)
        assert np.abs(got - oracle).max() <= 1e-13 * np.abs(oracle).max()


class TestReactionDiffusion2D:
    def test_zero_reaction_reduces_to_heat_2d(self):
        es = build_eigensystem(2, 3)
        mesh = TimeMesh.uniform(0.25, 32)
        theta = FourierCoeffs.zeros(es)
        theta.data[es.index_of([1, 0], 1)] = 0.5
        theta.data[es.index_of([0, 2], 2)] = 0.3
        rd = ReactionDiffusionModel(es, T=0.25, reaction=ZeroReaction(), mesh=mesh)
        heat = HeatModel(es, T=0.25, mesh=mesh)
        np.testing.assert_allclose(rd.solve(theta).data, heat.solve(theta).data, atol=1e-10)

    def test_constant_state_ode_2d(self):
        reaction = BumpReaction(2.0, 2.5)
        es = build_eigensystem(2, 2)
        rd = ReactionDiffusionModel(es, T=0.5, reaction=reaction, mesh=TimeMesh.uniform(0.5, 128))
        sol = rd.solve(_field(es, [], const=0.4))
        ode = solve_ivp(lambda t, y: reaction.f(y), [0, 0.5], [0.4], rtol=1e-12, atol=1e-14)
        j0 = es.index_of([0, 0], 0)
        assert sol.data[-1, j0] == pytest.approx(ode.y[0, -1], abs=1e-8)

    def test_fd_slope_2d(self):
        es = build_eigensystem(2, 3)
        mesh = TimeMesh.uniform(0.25, 64)
        rd = ReactionDiffusionModel(es, T=0.25, reaction=BumpReaction(), mesh=mesh)
        theta0 = _field(es, [([1, 0], 1, 0.4)], const=0.3)
        h = _field(es, [([0, 1], 1, 1.0)])
        out = qmd_remainder_slope(rd, theta0, h, [1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1])
        assert abs(out["slope"] - 2.0) < 0.15


class TestForcedLinearization:
    def test_forcing_enters_base_flow_only(self, es_ns):
        # finite differences of the forced flow still match the tangent:
        # the forcing is state-independent, so it must not leak into it
        forcing = _field(es_ns, [([1, 0], 1, 0.2), ([1, 1], 2, 0.1)])
        ns = NavierStokesModel(
            es_ns, viscosity=0.05, T=0.25, forcing=forcing, mesh=TimeMesh.uniform(0.25, 64)
        )
        theta0 = _field(es_ns, [([0, 1], 2, 0.3)])
        h = _field(es_ns, [([1, 0], 1, 1.0)])
        out = qmd_remainder_slope(ns, theta0, h, [1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1])
        assert abs(out["slope"] - 2.0) < 0.2


class TestQmdRemainder:
    def test_heat_exactly_linear(self, es1):
        heat = HeatModel(es1, T=1.0, mesh=TimeMesh.uniform(1.0, 64))
        theta0 = _field(es1, [([1], 1, 0.5)], const=0.2)
        h = _field(es1, [([2], 1, 1.0)])
        out = qmd_remainder_slope(heat, theta0, h, [1e-3, 1e-2, 1e-1, 1.0])
        assert max(out["remainders"]) < 1e-12

    def test_normalized_remainder_decreasing(self, es1):
        rd = ReactionDiffusionModel(
            es1, T=0.25, reaction=BumpReaction(), mesh=TimeMesh.uniform(0.25, 64)
        )
        theta0 = _field(es1, [([1], 1, 0.4)], const=0.3)
        h = _field(es1, [([1], 2, 1.0)])
        out = qmd_remainder_slope(rd, theta0, h, [1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1])
        assert np.all(np.diff(out["normalized"]) > 0)  # decreasing toward s -> 0


class TestEvaluateField:
    def test_constant(self, es1):
        f = HeatModel(es1, T=1.0).solve(_field(es1, [], const=2.5))
        got = f.evaluate([0.3, 0.9], [[0.1], [0.7]])
        np.testing.assert_allclose(got, 2.5, atol=1e-13)

    def test_heat_mode_closed_form(self, es1):
        mesh = TimeMesh.uniform(1.0, 2000)
        f = HeatModel(es1, T=1.0, mesh=mesh).solve(_field(es1, [([1], 1, 1.0)]))
        rng = np.random.default_rng(8)
        t = rng.uniform(0, 1, 64)
        x = rng.uniform(0, 1, (64, 1))
        exact = np.exp(-LAM1 * t) * np.sqrt(2) * np.cos(2 * np.pi * x[:, 0])
        np.testing.assert_allclose(f.evaluate(t, x), exact, atol=1e-8)

    def test_nodes_reproduced(self, es1):
        mesh = TimeMesh.uniform(1.0, 32)
        theta = _field(es1, [([1], 1, 0.7), ([2], 2, 0.4)])
        f = HeatModel(es1, T=1.0, mesh=mesh).solve(theta)
        x = np.array([[0.25]])
        for i in (0, 7, 32):
            t = mesh.nodes[i]
            direct = f.data[i] @ _basis_row(es1, 0.25)
            assert f.evaluate([t], x)[0] == pytest.approx(direct, abs=1e-12)

    def test_interpolation_reproduces_nodes(self):
        # constant-mode field: evaluate returns the interpolated coefficient
        es, mesh = build_eigensystem(1, 2), TimeMesh.graded(1.0, levels=4, steps_per_block=4)
        snaps = np.random.default_rng(11).standard_normal(mesh.n_nodes)
        f = _constant_mode_field(es, mesh, snaps)
        x = np.full((mesh.n_nodes, 1), 0.3)
        np.testing.assert_allclose(f.evaluate(mesh.nodes, x), snaps, rtol=0, atol=1e-12)

    def test_cubic_in_time_exact(self):
        # 4-point Lagrange reproduces cubics, on a graded mesh too
        def cubic(t):
            return t**3 - 2 * t**2 + 0.5

        es, mesh = build_eigensystem(1, 2), TimeMesh.graded(1.0, levels=4, steps_per_block=4)
        f = _constant_mode_field(es, mesh, cubic(mesh.nodes))
        rng = np.random.default_rng(1)
        t = rng.uniform(0, 1, 200)
        x = rng.uniform(0, 1, (200, 1))
        np.testing.assert_allclose(f.evaluate(t, x), cubic(t), rtol=0, atol=1e-13)

    def test_out_of_range(self, es1):
        f = HeatModel(es1, T=1.0).solve(_field(es1, [], const=1.0))
        with pytest.raises(ValueError):
            f.evaluate([1.5], [[0.2]])

    def test_vector_field_evaluation(self, es_ns):
        ns = NavierStokesModel(es_ns, viscosity=0.05, T=0.5, mesh=TimeMesh.uniform(0.5, 64))
        j = es_ns.index_of([1, 0], 1)
        f = ns.solve(FourierCoeffs.unit(es_ns, j))
        # mode k=(1,0), cos: direction k_perp/|k| = (0,1)
        t = np.array([0.25])
        x = np.array([[0.2, 0.6]])
        val = f.evaluate(t, x)
        expected = np.exp(-0.05 * es_ns.lam[j] * 0.25) * np.sqrt(2) * np.cos(2 * np.pi * 0.2)
        assert val[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert val[0, 1] == pytest.approx(expected, abs=1e-9)


def _basis_row(es, x):
    from pdefisher.spectral import basis_values_at

    return basis_values_at(es, np.array([[x]]))[0]


def _constant_mode_field(es, mesh, values):
    data = np.zeros((mesh.n_nodes, es.size))
    data[:, es.index_of((0,) * es.d, 0)] = values
    return SpaceTimeField(es, mesh, data)


def _lagrange_stencil(nodes, t):
    """The 4 nodes around t (shifted inward at the ends) and their Lagrange
    weights, as explicit products."""
    j = min(max(bisect.bisect_right(nodes, t) - 1, 0), len(nodes) - 2)
    start = min(max(j - 1, 0), len(nodes) - 4)
    stencil = list(range(start, start + 4))
    weights = []
    for a in stencil:
        w = 1.0
        for b in stencil:
            if b != a:
                w *= (t - nodes[b]) / (nodes[a] - nodes[b])
        weights.append(w)
    return stencil, weights


def _lagrange_oracle(nodes, data, t):
    """Cubic through the 4 nodes around t (shifted inward at the ends)."""
    stencil, weights = _lagrange_stencil(nodes, t)
    return sum(w * data[a] for a, w in zip(stencil, weights))


class TestTimeStencils:
    """The mesh's precomputed stencils against explicit Lagrange products on
    a graded mesh: at every node, at both ends and around the block joins."""

    def test_matches_explicit_products(self):
        mesh = TimeMesh.graded(1.0, levels=4, steps_per_block=4)
        nodes = mesh.nodes.tolist()
        joins = [nodes[i0] for i0, _, _ in mesh.blocks[1:]]
        rng = np.random.default_rng(4)
        t = np.concatenate([
            mesh.nodes,
            [0.0, 1e-300, 0.5 * nodes[1], 1.0 - 1e-15, 1.0, 0.5 * (nodes[-2] + 1.0)],
            np.ravel([[tj * (1 - 1e-9), tj * (1 + 1e-9)] for tj in joins]),
            rng.uniform(0.0, 1.0, 200),
        ])
        idx, w = _time_stencils(mesh, t)
        assert idx.shape == w.shape == (t.shape[0], 4)
        for q, tq in enumerate(t.tolist()):
            stencil, weights = _lagrange_stencil(nodes, tq)
            assert idx[q].tolist() == stencil, tq
            np.testing.assert_allclose(w[q], weights, rtol=0, atol=1e-13)

    def test_node_weights_are_exact(self):
        # each node's weight is 1 on itself and 0 on the three others, bitwise
        mesh = TimeMesh.graded(1.0, levels=4, steps_per_block=4)
        idx, w = _time_stencils(mesh, mesh.nodes)
        own = idx == np.arange(mesh.n_nodes)[:, None]
        assert own.sum(axis=1).tolist() == [1] * mesh.n_nodes
        np.testing.assert_array_equal(w, own.astype(float))


def _simpson_pairwise(nodes):
    """Composite Simpson weights one pair of intervals at a time: the
    quadratic through its three nodes, integrated exactly."""
    w = [0.0] * len(nodes)
    for a in range(0, len(nodes) - 2, 2):
        h0, h1 = nodes[a + 1] - nodes[a], nodes[a + 2] - nodes[a + 1]
        c = (h0 + h1) / 6.0
        w[a] += c * (2.0 - h1 / h0)
        w[a + 1] += c * ((h0 + h1) * (h0 + h1)) / (h0 * h1)
        w[a + 2] += c * (2.0 - h0 / h1)
    return w


class TestSimpsonWeights:
    @pytest.mark.parametrize(
        "mesh", [TimeMesh.graded(1.0, 6, 8), TimeMesh.uniform(0.3, 100)], ids=["graded", "uniform"]
    )
    def test_match_pairwise_loop(self, mesh):
        # bitwise: the vectorised rule does the loop's arithmetic in its order
        n = mesh.n_nodes
        assert mesh.weights.tolist() == _simpson_pairwise(mesh.nodes.tolist())
        for i0, i1 in [(2, n - 1), (4, n - 7)]:
            assert mesh.window_weights(i0, i1).tolist() == _simpson_pairwise(mesh.nodes[i0 : i1 + 1].tolist())

    def test_graded_mesh_is_blockwise_simpson(self):
        # power-of-two block lengths make every spacing exact, so each block
        # gets (h/3)(1, 4, 2, ..., 2, 4, 1) bitwise
        mesh = TimeMesh.graded(1.0, levels=6, steps_per_block=8)
        ref = np.zeros(mesh.n_nodes)
        for i0, nsteps, h in mesh.blocks:
            bw = np.full(nsteps + 1, 2.0)
            bw[1::2], bw[0], bw[-1] = 4.0, 1.0, 1.0
            ref[i0 : i0 + nsteps + 1] += bw * (h / 3.0)
        np.testing.assert_array_equal(mesh.weights, ref)


def _fourier_oracle(es, coeffs, x):
    """Per-mode sum of c_m sqrt(2) cos/sin(2 pi k.x), vector-valued along
    k_perp/|k| for divergence-free fields."""
    total = np.zeros(2 if es.subspace == DIV_FREE else 1)
    for c, k, kind in zip(coeffs, es.kvecs.tolist(), es.kind.tolist()):
        phase = 2 * math.pi * sum(ki * xi for ki, xi in zip(k, x))
        value = c * (1.0 if kind == 0 else math.sqrt(2) * (math.cos if kind == 1 else math.sin)(phase))
        if es.subspace == DIV_FREE:
            norm = math.hypot(k[0], k[1])
            total += value * np.array([-k[1] / norm, k[0] / norm])
        else:
            total += value
    return total if es.subspace == DIV_FREE else total[0]


class TestEvaluateExact:
    """evaluate against the definition: 4-point Lagrange in time, explicit
    Fourier sum in space.  2100 points cross the 2048-point chunk boundary."""

    @pytest.mark.parametrize(
        "d, kmax, subspace",
        [(1, 5, "full"), (2, 3, "full"), (2, 3, DIV_FREE)],
        ids=["d1-scalar", "d2-scalar", "d2-div-free"],
    )
    def test_matches_definition(self, d, kmax, subspace):
        es = build_eigensystem(d, kmax, subspace)
        mesh = TimeMesh.graded(1.0, levels=5, steps_per_block=4)
        rng = np.random.default_rng(20 + d)
        f = SpaceTimeField(es, mesh, rng.standard_normal((mesh.n_nodes, es.size)))
        t = rng.uniform(0, 1, 2100)
        x = rng.uniform(0, 1, (2100, d))
        expected = np.array([
            _fourier_oracle(es, _lagrange_oracle(mesh.nodes, f.data, ti), xi)
            for ti, xi in zip(t, x)
        ])
        np.testing.assert_allclose(f.evaluate(t, x), expected, rtol=0, atol=1e-12)


class TestSmoothing:
    def test_positive_time_regularization_band(self, es1):
        # ||flow(h)(t)||_{D^2} at t >= t0 stays bounded by C ||h||_{D^-3}
        mesh = TimeMesh.uniform(1.0, 64)
        rd = ReactionDiffusionModel(es1, T=1.0, reaction=BumpReaction(), mesh=mesh)
        theta0 = _field(es1, [([1], 1, 0.4)], const=0.3)
        rng = np.random.default_rng(9)
        i0 = np.searchsorted(mesh.nodes, 0.25)
        ratios = []
        for _ in range(12):
            h = FourierCoeffs(es1, rng.standard_normal(es1.size))
            U = rd.linearize(theta0, h)
            sup_d2 = max(
                sobolev_norm(FourierCoeffs(es1, U.data[i]), 2.0)
                for i in range(i0, mesh.n_nodes)
            )
            ratios.append(sup_d2 / sobolev_norm(h, -3.0))
        band = max(ratios) / min(ratios)
        assert np.isfinite(band) and band < 50.0
