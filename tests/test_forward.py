"""Forward solvers against closed forms, ODE reductions, self-convergence,
and the directional-derivative (remainder slope) diagnostics."""

import bisect
import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

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
)
from pdefisher import forward, spectral
from pdefisher.forward import _time_stencils
from pdefisher.spectral import GATHER_MIN_COLUMNS, coeffs_from_values, values_from_coeffs

from oracles import held_tangents, sobolev_norm

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

    def test_on_node_streams_the_held_batch(self, es1):
        # the on_node contract of the marched models: node 0 first, mesh
        # order, C-contiguous (nm, B) blocks, and only G(theta0) returned;
        # each block column is its column's own single-field march (heat's
        # closed form is elementwise, so bitwise)
        model = HeatModel(es1, T=1.0, mesh=TimeMesh.graded(1.0, levels=3, steps_per_block=4))
        rng = np.random.default_rng(3)
        theta0 = FourierCoeffs(es1, rng.standard_normal(es1.size))
        cols = rng.standard_normal((es1.size, 5))
        singles = [model.linearize(theta0, FourierCoeffs(es1, c)) for c in cols.T]
        seen = []

        def on_node(i, v):
            assert v.shape == (es1.size, 5) and v.flags.c_contiguous
            seen.append((i, v.copy()))

        base = model.linearize(theta0, cols, on_node=on_node)
        assert [i for i, _ in seen] == list(range(model.mesh.n_nodes))
        for i, v in seen:
            for b, single in enumerate(singles):
                assert np.array_equal(v[:, b], single.data[i])
        assert isinstance(base, SpaceTimeField) and base.base is None
        assert np.array_equal(base.data, singles[0].base.data)


class TestBaseFlow:
    """linearize(theta0, .) carries G(theta0) from the march that gave the
    tangents; solve is the independent oracle."""

    @pytest.mark.parametrize("kind", ["heat", "rd", "ns"])
    def test_linearize_base_is_solve(self, kind, es1, es_ns):
        mesh = TimeMesh.uniform(0.25, 16)
        if kind == "heat":
            model, theta0 = HeatModel(es1, T=0.25, mesh=mesh), _field(es1, [([1], 1, 0.4)], const=0.2)
        else:
            model, theta0 = _nonlinear_model(kind, es1, es_ns, mesh)
        ref = model.solve(theta0)
        single = model.linearize(theta0, FourierCoeffs.unit(model.es, 1))
        batch = held_tangents(model, theta0, np.eye(model.es.size, 3))
        for base in (single.base, batch.base):
            assert base.es is model.es and base.mesh is mesh
            assert np.array_equal(base.data, ref.data)
        assert ref.base is None


class TestStackedMarch:
    """A march steps the base state and its B tangent columns as one array.
    Its base snapshots are solve(theta0)'s, bitwise, and each tangent column
    is that column marched alone, on both sides of RD's gather rule
    (GATHER_MIN_COLUMNS = 48 on this dense grid)."""

    @pytest.mark.parametrize(
        "kind, B", [("rd", 1), ("rd", 9), ("rd", 47), ("rd", 48), ("rd", 128), ("ns", 1), ("ns", 32), ("ns", 64)]
    )
    def test_base_is_solve_and_columns_are_single_marches(self, kind, B):
        mesh = TimeMesh.graded(0.25, levels=2, steps_per_block=4)
        if kind == "rd":
            es = build_eigensystem(1, 64)
            model = ReactionDiffusionModel(es, T=0.25, mesh=mesh)
            theta0 = _field(es, [([1], 1, 0.6), ([3], 2, 0.3)], const=0.4)
        else:
            es = build_eigensystem(2, 4, DIV_FREE)
            model = NavierStokesModel(es, viscosity=0.05, T=0.25, mesh=mesh)
            theta0 = _field(es, [([1, 0], 1, 0.8), ([0, 1], 2, 0.6), ([1, 1], 1, 0.5)])
        cols = np.random.default_rng(B).standard_normal((es.size, B))
        batch = held_tangents(model, theta0, cols)
        assert np.array_equal(batch.base.data, model.solve(theta0).data)
        scale = np.abs(batch.data).max()
        for b in range(B):
            single = model.linearize(theta0, FourierCoeffs(es, cols[:, b])).data
            assert np.abs(batch.data[:, :, b] - single).max() <= 1e-13 * scale


@pytest.mark.parametrize("kind", ["heat", "rd", "ns"])
def test_linearize_refuses_columns_without_on_node(kind, es1, es_ns):
    # (nm, B) columns only stream: no march holds every node's block
    mesh = TimeMesh.uniform(0.25, 8)
    if kind == "heat":
        model, theta0 = HeatModel(es1, T=0.25, mesh=mesh), _field(es1, [([1], 1, 0.4)])
    else:
        model, theta0 = _nonlinear_model(kind, es1, es_ns, mesh)
    for cols in (np.eye(model.es.size, 3), np.eye(model.es.size, 1)):
        with pytest.raises(ValueError, match="on_node"):
            model.linearize(theta0, cols)


class ZeroReaction:
    def f_df(self, u):
        return np.zeros_like(u), np.zeros_like(u)


class TestBumpReaction:
    """f_df against f and f' written out with math.exp, just inside and just
    outside the band where exp(1 - g) underflows (1 - (u/R)^2 < 1/746) and
    beyond the support, and f' against a central difference of f."""

    A, R = 2.0, 2.5

    def _closed_form(self, u):
        s = 1.0 - u * u / self.R**2
        if s <= 0.0:
            return 0.0, 0.0
        g = 1.0 / s
        chi = math.exp(1.0 - g)
        dchi = -chi * g * g * 2.0 * u / self.R**2
        return self.A * u * (1.0 - u * u) * chi, self.A * ((1.0 - 3.0 * u * u) * chi + u * (1.0 - u * u) * dchi)

    def _check(self, u, rtol, atol=0.0):
        f, df = BumpReaction(self.A, self.R).f_df(np.array(u))
        exact = np.array([self._closed_form(v) for v in u])
        np.testing.assert_allclose(f, exact[:, 0], rtol=rtol, atol=atol * np.abs(exact[:, 0]).max())
        np.testing.assert_allclose(df, exact[:, 1], rtol=rtol, atol=atol * np.abs(exact[:, 1]).max())
        return f, df

    def test_matches_closed_form_inside(self):
        u = np.random.default_rng(1).uniform(-2.45, 2.45, 200)
        self._check(list(u) + [0.0, 1.0, -1.0, 3.0**-0.5], rtol=1e-13, atol=1e-13)

    def test_just_inside_the_underflow(self):
        # 1 - (u/R)^2 from 2.5e-3 down to 1.45e-3: chi from e^-399 to e^-689,
        # all normal doubles, computed from the same s on both sides
        s = np.array([2.5e-3, 2e-3, 1.6e-3, 1.45e-3])
        u = list(self.R * np.sqrt(1.0 - s)) + list(-self.R * np.sqrt(1.0 - s))
        f, df = self._check(u, rtol=1e-12)
        assert np.abs(f).min() > 1e-300 and np.abs(df).min() > 1e-300

    def test_zero_outside(self):
        s = np.array([1.3e-3, 1e-3, 5e-4, 1e-9])
        u = list(self.R * np.sqrt(1.0 - s)) + [self.R, -self.R, 3.0, -3.0, 1e3, -1e3]
        f, df = self._check(u, rtol=0.0)
        assert np.all(f == 0.0) and np.all(df == 0.0)

    def test_derivative_is_the_central_difference(self):
        reaction, h = BumpReaction(self.A, self.R), 1e-5
        u = np.linspace(-2.3, 2.3, 47)
        fd = (reaction.f(u + h) - reaction.f(u - h)) / (2 * h)
        df = reaction.f_df(u)[1]
        assert np.abs(df - fd).max() <= 1e-7 * np.abs(df).max()


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
        class Explosive:
            def f_df(self, u):
                return u**3 + 50.0, 3 * u**2

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
        batch = held_tangents(model, theta0, cols)
        for b in range(3):
            single = model.linearize(theta0, FourierCoeffs(model.es, cols[:, b]))
            np.testing.assert_allclose(batch.data[:, :, b], single.data, atol=1e-13)


class TestRDTangentStage:
    """A tangent stage of at least GATHER_MIN_COLUMNS columns (at least nm on
    an FFT grid) multiplies by spectral's gathered map of f'(u); fewer keep
    the two transforms that the base stage uses."""

    @pytest.mark.parametrize("d, kmax", [(1, 64), (1, 80), (2, 4)], ids=["d1-dense", "d1-fft", "d2-dense"])
    def test_both_sides_of_the_rule_match_the_transforms(self, d, kmax, monkeypatch):
        es = build_eigensystem(d, kmax)
        rd = ReactionDiffusionModel(es, T=0.5, reaction=BumpReaction())
        edge = es.size if kmax == 80 else GATHER_MIN_COLUMNS  # kmax 80: the FFT path's grid
        assert rd._gather_from == edge
        rng = np.random.default_rng(kmax + 10 * d)
        u = 0.3 * np.eye(es.size)[0] + rng.standard_normal(es.size) / es.size
        f, df = rd.reaction.f_df(values_from_coeffs(es, u, rd.n))
        maps = []

        def counted(system, values):
            maps.append(values)
            return spectral.multiplication_map(system, values)

        monkeypatch.setattr(forward, "multiplication_map", counted)
        for B in (1, edge - 1, edge, edge + 1, 2 * edge):
            v = rng.standard_normal((B, es.size))
            expected = coeffs_from_values(es, df * values_from_coeffs(es, v, rd.n))
            gathered = len(maps)
            got = rd._stage(np.concatenate([u[None], v]))
            assert len(maps) - gathered == (B >= edge)
            assert got.shape == (1 + B, es.size)
            assert np.array_equal(got[0], coeffs_from_values(es, f))
            assert np.abs(got[1:] - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_few_columns_build_no_multiplication_tables(self):
        # lan-rd's 9-column march keeps the transforms; a march at the rule's
        # edge gathers, and its first 9 columns agree with the 9-column march
        es = build_eigensystem(1, 32)
        rd = ReactionDiffusionModel(es, T=0.5, mesh=TimeMesh.graded(0.5, levels=2, steps_per_block=4))
        theta0 = _field(es, [([1], 1, 0.3), ([2], 2, 0.2)], const=0.5)
        cols = np.random.default_rng(4).standard_normal((es.size, GATHER_MIN_COLUMNS))
        blocks = {9: [], GATHER_MIN_COLUMNS: []}
        for B in blocks:
            rd.linearize(theta0, cols[:, :B], on_node=lambda i, v, out=blocks[B]: out.append(v[:, :9].copy()))
            assert (spectral._lattice(es, rd.n).mul is None) == (B == 9)
        few, many = np.array(blocks[9]), np.array(blocks[GATHER_MIN_COLUMNS])
        assert np.abs(many - few).max() <= 1e-13 * np.abs(few).max()


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

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("B", [1, 31, 64])
    @pytest.mark.parametrize("kmax", [2, 4, 6])
    def test_tangent_stage_is_the_central_difference(self, kmax, B, forced):
        # the advection is quadratic in the state, so N(u + v) - N(u - v) is
        # exactly 2 N'(u) v and the forcing cancels; B spans both orders that
        # multi_dot picks for v W F (worst error seen: 4.7e-15 of the largest entry)
        es = build_eigensystem(2, kmax, DIV_FREE)
        rng = np.random.default_rng(10 * kmax + B)
        forcing = FourierCoeffs(es, rng.standard_normal(es.size)) if forced else None
        ns = NavierStokesModel(es, viscosity=0.05, T=0.25, forcing=forcing, mesh=TimeMesh.uniform(0.25, 4))
        u, v = rng.standard_normal(es.size), rng.standard_normal((B, es.size))

        def nonlin(w):  # N at each row of w, each marched as a base state
            return np.array([ns._stage(row[None])[0] for row in w])

        oracle = (nonlin(u + v) - nonlin(u - v)) / 2
        got = ns._stage(np.concatenate([u[None], v]))
        assert got.shape == (1 + B, es.size)
        assert np.array_equal(got[0], nonlin(u[None])[0])
        assert np.abs(got[1:] - oracle).max() <= 1e-12 * np.abs(oracle).max()


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

    def test_given_tangent(self, es1):
        # a tangent the caller marched gives the same remainders; one from
        # another point or direction is refused
        rd = ReactionDiffusionModel(
            es1, T=0.25, reaction=BumpReaction(), mesh=TimeMesh.uniform(0.25, 16)
        )
        theta0 = _field(es1, [([1], 1, 0.4)], const=0.3)
        h = _field(es1, [([1], 2, 1.0)])
        s = [1e-3, 1e-2, 3e-2, 1e-1]
        own = qmd_remainder_slope(rd, theta0, h, s)
        assert qmd_remainder_slope(rd, theta0, h, s, rd.linearize(theta0, h)) == own
        for other in (rd.linearize(theta0 * 2.0, h), rd.linearize(theta0, h * 2.0)):
            with pytest.raises(ValueError, match="not the linearization"):
                qmd_remainder_slope(rd, theta0, h, s, other)


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

    def test_nan_time_rejected(self, es1):
        f = HeatModel(es1, T=1.0).solve(_field(es1, [], const=1.0))
        with pytest.raises(ValueError, match="outside"):
            f.evaluate([0.5, np.nan], [[0.2], [0.4]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, es1, bad):
        f = HeatModel(es1, T=1.0).solve(_field(es1, [([1], 1, 1.0)], const=0.5))
        t, x = [0.2, 0.5, 0.7], [[0.1], [0.4], [0.9]]
        before = f.evaluate(t, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                f.evaluate([0.5], [[bad]])
        # finite points, far outside the unit cell too, still evaluate, and a
        # rejected call leaves the field's values bitwise unchanged
        far = [[0.1 + 37.0], [0.4 - 12.0], [0.9 + 1e6]]
        assert np.all(np.isfinite(f.evaluate(t, far)))
        np.testing.assert_array_equal(f.evaluate(t, x), before)

    def test_x_of_one_axis_on_a_2d_field_rejected(self):
        # (nq, 1) would broadcast onto both axes: values on the diagonal
        es = build_eigensystem(2, 3)
        f = HeatModel(es, T=1.0).solve(_field(es, [([1, 1], 1, 1.0)]))
        with pytest.raises(ValueError, match=r"x \(nq, 2\)"):
            f.evaluate([0.2, 0.5, 0.7], [[0.1], [0.4], [0.9]])

    def test_length_mismatch_rejected(self, es1):
        f = HeatModel(es1, T=1.0).solve(_field(es1, [([1], 1, 1.0)]))
        with pytest.raises(ValueError, match=r"x \(nq, 1\)"):
            f.evaluate([0.2, 0.5, 0.7], [[0.1], [0.4]])

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
    Fourier sum in space.  Mean-zero systems leave table columns unused; kmax
    1, 16 and 33 give no, a full and a partial last block of powers; the
    points are more than 2,048 (a block of the former blocked evaluation),
    and the times include 0, T and every mesh node."""

    @pytest.mark.parametrize(
        "d, kmax, subspace",
        [
            (1, 5, "full"), (1, 6, "mean-zero"), (1, 1, "full"), (1, 16, "full"), (1, 33, "mean-zero"),
            (2, 3, "full"), (2, 4, "mean-zero"), (2, 1, "full"), (2, 3, DIV_FREE),
        ],
        ids=[
            "d1-scalar", "d1-mean-zero", "d1-k1", "d1-k16", "d1-k33-mean-zero",
            "d2-scalar", "d2-mean-zero", "d2-k1", "d2-div-free",
        ],
    )
    def test_matches_definition(self, d, kmax, subspace):
        es = build_eigensystem(d, kmax, subspace)
        mesh = TimeMesh.graded(1.0, levels=5, steps_per_block=4)
        rng = np.random.default_rng(20 + d + kmax)
        f = SpaceTimeField(es, mesh, rng.standard_normal((mesh.n_nodes, es.size)))
        n = 2100
        t = np.concatenate([[0.0, 1.0], mesh.nodes, rng.uniform(0, 1, n - 2 - mesh.n_nodes)])
        x = rng.uniform(0, 1, (n, d))
        expected = np.array([
            _fourier_oracle(es, _lagrange_oracle(mesh.nodes, f.data, ti), xi)
            for ti, xi in zip(t, x)
        ])
        np.testing.assert_allclose(f.evaluate(t, x), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("nq", [1, 3, 4, 5, 1251])
    @pytest.mark.parametrize(
        "d, kmax, subspace", [(1, 32, "full"), (2, 3, "full"), (2, 3, DIV_FREE)], ids=["d1", "d2", "d2-div-free"]
    )
    def test_blocks_match_basis_values(self, d, kmax, subspace, nq):
        # evaluation takes nq // (4 p) points per block (p components), and
        # fewer than 4 p points in one block of its own; the oracle is the
        # basis values at x times the explicit Lagrange weights' snapshot
        from pdefisher.spectral import basis_values_at

        es = build_eigensystem(d, kmax, subspace)
        mesh = TimeMesh.graded(1.0, levels=5, steps_per_block=4)
        rng = np.random.default_rng(nq + 10 * d)
        f = SpaceTimeField(es, mesh, rng.standard_normal((mesh.n_nodes, es.size)))
        t = np.concatenate([[0.0, 1.0], mesh.nodes[::-1], rng.uniform(0, 1, nq)])[:nq]
        x = rng.uniform(0, 1, (nq, d))
        coeffs = np.array([_lagrange_oracle(mesh.nodes.tolist(), f.data, tq) for tq in t.tolist()])
        values = basis_values_at(es, x) * coeffs
        expected = values @ es.dirs if es.dirs is not None else values.sum(axis=1)
        np.testing.assert_allclose(f.evaluate(t, x), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d, subspace", [(1, "full"), (2, DIV_FREE)], ids=["d1", "d2-div-free"])
    def test_no_points(self, d, subspace):
        from pdefisher.spectral import basis_values_at

        es = build_eigensystem(d, 3, subspace)
        mesh = TimeMesh.uniform(1.0, 8)
        f = SpaceTimeField(es, mesh, np.ones((mesh.n_nodes, es.size)))
        got = f.evaluate(np.zeros(0), np.zeros((0, d)))
        assert got.shape == ((0, 2) if es.dirs is not None else (0,))
        assert basis_values_at(es, np.zeros((0, d))).shape == (0, es.size)

    def test_reused_work_arrays_keep_every_result(self):
        # one thread's work arrays serve a 2-D div-free field, then a 1-D
        # field on more than 2,048 points, then a few points: each result
        # is the oracle's, and no later call changes an earlier result.  At
        # mesh nodes the time weights are exactly 1 and 0, so the oracle is
        # the basis values at x times the node's snapshot.
        from pdefisher.spectral import basis_values_at

        rng = np.random.default_rng(24)
        mesh = TimeMesh.graded(1.0, levels=5, steps_per_block=4)
        cases = [
            (build_eigensystem(2, 3, DIV_FREE), 300),
            (build_eigensystem(1, 20), 2348),
            (build_eigensystem(1, 6), 7),
        ]
        results = []
        for es, n in cases:
            f = SpaceTimeField(es, mesh, rng.standard_normal((mesh.n_nodes, es.size)))
            nodes, x = rng.integers(0, mesh.n_nodes, n), rng.uniform(0, 1, (n, es.d))
            got = f.evaluate(mesh.nodes[nodes], x)
            coeffs = basis_values_at(es, x) * f.data[nodes]
            expected = coeffs @ es.dirs if es.dirs is not None else coeffs.sum(axis=1)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
            results.append((got, got.copy()))
        for got, kept in results:
            np.testing.assert_array_equal(got, kept)

    @pytest.mark.parametrize("threads", [2, 4])
    @pytest.mark.parametrize("subspace", ["full", DIV_FREE])
    def test_fresh_field_from_threads_at_once(self, subspace, threads):
        # the layout is built on first use: threads racing to build it (more
        # than the cores, switching often) all get the serial values.  Each
        # thread alternates two fields at its own points, so it reuses its
        # point plan while the others build and reuse theirs.
        es = build_eigensystem(2, 3, subspace)
        mesh = TimeMesh.graded(1.0, levels=5, steps_per_block=4)
        rng = np.random.default_rng(5)
        datas = [rng.standard_normal((mesh.n_nodes, es.size)) for _ in range(2)]
        points = [(rng.uniform(0, 1, 700), rng.uniform(0, 1, (700, 2))) for _ in range(threads)]
        serial = [[SpaceTimeField(es, mesh, data).evaluate(t, x) for data in datas] for t, x in points]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                fields = [SpaceTimeField(es, mesh, data) for data in datas]
                barrier = threading.Barrier(threads, timeout=10)

                def run(i, fields=fields, barrier=barrier):
                    barrier.wait()
                    t, x = points[i]
                    return [fields[k % 2].evaluate(t, x) for k in range(4)]

                with ThreadPoolExecutor(max_workers=threads) as ex:
                    futures = [ex.submit(run, i) for i in range(threads)]
                    results = [fut.result(timeout=30) for fut in futures]
                for i, got in enumerate(results):
                    for k, values in enumerate(got):
                        np.testing.assert_array_equal(values, serial[i][k % 2])
        finally:
            sys.setswitchinterval(interval)


def _on_new_thread(fn, *args):
    """fn(*args) on a thread of its own, so with a point plan and work arrays
    that no earlier call built."""
    with ThreadPoolExecutor(max_workers=1) as ex:
        return ex.submit(fn, *args).result(timeout=60)


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestPointPlan:
    """A thread builds one point plan (time stencils, point table and its
    spare) per point set and reuses it while the mesh, the eigensystem and
    the bytes of t and x match.  Every result on a reused plan is bitwise the
    result of a fresh evaluation on a thread of its own; 5,000 points are
    more than one block of the former blocked evaluation."""

    @staticmethod
    def _case(n, d=1, kmax=6, subspace="full", seed=0):
        es = build_eigensystem(d, kmax, subspace)
        mesh = TimeMesh.graded(1.0, levels=5, steps_per_block=4)
        rng = np.random.default_rng(seed + n)
        f, g = (SpaceTimeField(es, mesh, rng.standard_normal((mesh.n_nodes, es.size))) for _ in range(2))
        return f, g, rng.uniform(0, 1, n), rng.uniform(0, 1, (n, d))

    @pytest.mark.parametrize("n", [7, 2100, 5000])
    @pytest.mark.parametrize("d, subspace", [(1, "full"), (2, DIV_FREE)], ids=["d1", "d2-div-free"])
    def test_second_field_at_the_same_points(self, n, d, subspace):
        f, g, t, x = self._case(n, d, 3 if d == 2 else 6, subspace)
        first = f.evaluate(t, x)
        plan = forward._plan.value
        second = g.evaluate(t, x)
        assert forward._plan.value is plan  # g reused f's plan
        assert _bitwise_equal(first, _on_new_thread(f.evaluate, t, x))
        assert _bitwise_equal(second, _on_new_thread(g.evaluate, t, x))
        assert _bitwise_equal(f.evaluate(t, x), first)  # and again, after g wrote the spare

    @pytest.mark.parametrize("n", [7, 2100, 5000])
    @pytest.mark.parametrize(
        "between", ["basis-values", "other-points", "other-eigensystem", "equal-eigensystem", "other-mesh"]
    )
    def test_after_an_interleaved_call(self, n, between):
        from pdefisher.spectral import basis_values_at

        f, g, t, x = self._case(n, seed=1)
        es, mesh = f.es, f.mesh
        other = np.random.default_rng(2).uniform(0, 1, (n, 1))
        f.evaluate(t, x)
        if between == "basis-values":  # spectral's own work arrays, same shape, other points
            basis_values_at(es, other)
        elif between == "other-points":
            f.evaluate(t[::-1].copy(), other)
        elif between == "other-eigensystem":
            es2 = build_eigensystem(1, 9)
            SpaceTimeField(es2, mesh, np.ones((mesh.n_nodes, es2.size))).evaluate(t, x)
        elif between == "equal-eigensystem":  # == but another object: the plan is reused
            g = SpaceTimeField(build_eigensystem(1, es.kmax), mesh, g.data)
        else:
            mesh2 = TimeMesh.uniform(1.0, 16)
            SpaceTimeField(es, mesh2, np.ones((mesh2.n_nodes, es.size))).evaluate(t, x)
        assert _bitwise_equal(g.evaluate(t, x), _on_new_thread(g.evaluate, t, x))

    @pytest.mark.parametrize("n", [7, 2100, 5000])
    @pytest.mark.parametrize("mutated", ["x", "t"])
    def test_after_the_caller_mutates_its_points(self, n, mutated):
        f, g, t, x = self._case(n, seed=3)
        f.evaluate(t, x)
        if mutated == "x":
            x[n // 2, 0] = (x[n // 2, 0] + 0.5) % 1.0
        else:
            t[-1] = 1.0 - t[-1]
        assert _bitwise_equal(g.evaluate(t, x), _on_new_thread(g.evaluate, t, x))

    @pytest.mark.parametrize("bad", ["x-nan", "x-inf", "t-above-T", "t-negative", "t-nan"])
    def test_invalid_points_raise_on_what_would_be_a_hit(self, bad):
        # the value checks run where a plan is built, so no plan exists at
        # invalid points for an evaluation to hit
        f, _, t, x = self._case(50, seed=4)
        column, i, value = {
            "x-nan": (x[:, 0], 3, np.nan), "x-inf": (x[:, 0], 3, np.inf),
            "t-above-T": (t, 5, 1.5), "t-negative": (t, 5, -0.1), "t-nan": (t, 5, np.nan),
        }[bad]
        column[i] = value
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite"):
            forward._point_plan(f.es, f.mesh, t, x)
        with pytest.raises(ValueError, match="not finite"):
            f.evaluate(t, x)

    @pytest.mark.parametrize("bad", ["x-nan", "x-inf", "x-neg-inf", "t-nan", "t-inf", "t-neg-inf", "t-above-T", "t-negative"])
    def test_invalid_points_after_a_cached_plan(self, bad):
        # a plan for other points of the same shape is cached: invalid ones
        # still raise, and the next valid call equals the one before, bitwise
        f, _, t, x = self._case(50, seed=6)
        first = f.evaluate(t, x)
        tb, xb = t.copy(), x.copy()
        column, value = {
            "x-nan": (xb[:, 0], np.nan), "x-inf": (xb[:, 0], np.inf), "x-neg-inf": (xb[:, 0], -np.inf),
            "t-nan": (tb, np.nan), "t-inf": (tb, np.inf), "t-neg-inf": (tb, -np.inf),
            "t-above-T": (tb, 1.0 + 1e-9), "t-negative": (tb, -1e-9),
        }[bad]
        column[7] = value
        with pytest.raises(ValueError, match="not finite"):
            f.evaluate(tb, xb)
        assert _bitwise_equal(f.evaluate(t, x), first)

    def test_a_cached_plan_allocates_no_table_sized_array(self):
        # lan-rd's shape: 1,250 points, d = 1, kmax 32 (66 table columns);
        # the gather reuses the plan's spare, so a cached plan's evaluation
        # allocates less than one (nq, columns) table, let alone (nq, 4, columns)
        import tracemalloc

        es = build_eigensystem(1, 32)
        mesh = TimeMesh.graded(0.5, levels=14, steps_per_block=32)
        rng = np.random.default_rng(7)
        f = SpaceTimeField(es, mesh, rng.standard_normal((mesh.n_nodes, es.size)))
        t, x = rng.uniform(0, 0.5, 1250), rng.uniform(0, 1, (1250, 1))
        first = f.evaluate(t, x)
        tracemalloc.start()
        try:
            again = f.evaluate(t, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _bitwise_equal(again, first)
        assert peak < 1250 * 66 * 8

    def test_shape_check_runs_on_a_hit(self):
        f, _, t, x = self._case(50, seed=5)
        f.evaluate(t, x)
        with pytest.raises(ValueError, match="need t"):
            f.evaluate(t, x.reshape(25, 2))


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
