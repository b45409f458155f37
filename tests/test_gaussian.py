"""Efficient-Gaussian sampling, support diagnostics across the negative
scale, and pushforward bounds, against exact-moment and closed-form oracles."""

import numpy as np
import pytest

from pdefisher import (
    DesignMeasure,
    FourierCoeffs,
    HeatModel,
    InformationMatrix,
    NavierStokesModel,
    TimeMesh,
    assemble_information_matrix,
    build_eigensystem,
    functional_pushforward_bound,
    make_noise,
    sample_efficient_gaussian,
    support_diagnostic,
)
from pdefisher.gaussian import GaussianSampleBatch
from pdefisher.spectral import DIV_FREE, values_from_coeffs


@pytest.fixture(scope="module")
def heat_M():
    es = build_eigensystem(1, 16)
    mesh = TimeMesh.graded(1.0, levels=18, steps_per_block=32)
    model = HeatModel(es, T=1.0, mesh=mesh)
    M = assemble_information_matrix(
        model, FourierCoeffs.zeros(es), make_noise("gaussian", variance=1.0),
        DesignMeasure(1.0), 16,
    )
    return es, model, M


@pytest.fixture(scope="module")
def ns_M():
    es = build_eigensystem(2, 3, DIV_FREE)
    mesh = TimeMesh.uniform(0.5, 64)
    model = NavierStokesModel(es, viscosity=0.05, T=0.5, mesh=mesh)
    theta0 = FourierCoeffs.zeros(es)
    theta0.data[es.index_of([1, 0], 1)] = 0.4
    theta0.data[es.index_of([0, 1], 2)] = 0.3
    noise = make_noise("gaussian2", cov=np.eye(2))
    M = assemble_information_matrix(model, theta0, noise, DesignMeasure(0.5), 8)
    return model, theta0, M


class TestSampling:
    def test_scalar_variance(self, heat_M):
        _, _, M = heat_M
        batch = sample_efficient_gaussian(M, 20000, np.random.default_rng(0), k=1)
        g = M.matrix[0, 0]
        var = batch.samples.var(ddof=1)
        sigma = var * np.sqrt(2.0 / (batch.m - 1))
        assert abs(var - 1.0 / g) < 3 * sigma

    def test_empirical_covariance(self, heat_M):
        _, _, M = heat_M
        batch = sample_efficient_gaussian(M, 20000, np.random.default_rng(1))
        target = M.solve(np.eye(M.n_basis))
        emp = np.cov(batch.samples.T)
        sigma = np.sqrt(
            (np.outer(np.diag(target), np.diag(target)) + target**2) / batch.m
        )
        assert np.all(np.abs(emp - target) < 3.5 * sigma + 1e-12)

    def test_deterministic_given_seed(self, heat_M):
        _, _, M = heat_M
        a = sample_efficient_gaussian(M, 64, np.random.default_rng(42)).samples
        b = sample_efficient_gaussian(M, 64, np.random.default_rng(42)).samples
        np.testing.assert_array_equal(a, b)

    def test_rkhs_reproducing_identity(self, heat_M):
        # h^T M h equals (Mh)^T M^{-1} (Mh) exactly
        _, _, M = heat_M
        rng = np.random.default_rng(2)
        h = rng.standard_normal(M.n_basis)
        lhs = h @ M.matrix @ h
        mh = M.matrix @ h
        rhs = M.inv_quadform(mh)
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)

    def test_covariance_restriction(self, heat_M):
        # MC covariance of (<G,f>, <G,g>) matches f^T M^{-1} g
        _, _, M = heat_M
        rng = np.random.default_rng(3)
        f = rng.standard_normal(M.n_basis)
        g = rng.standard_normal(M.n_basis)
        batch = sample_efficient_gaussian(M, 40000, np.random.default_rng(4))
        pf = batch.samples @ f
        pg = batch.samples @ g
        est = np.mean(pf * pg)
        sigma = np.std(pf * pg) / np.sqrt(batch.m)
        assert abs(est - f @ M.solve(g)) < 3 * sigma


class TestSupportDiagnostic:
    def test_moments_match_block_inverses(self):
        # non-diagonal SPD M: moments are sum_j w_j (M_K^{-1})_jj, from the
        # inverse of each leading block, at every K and at the MC truncation
        es = build_eigensystem(1, 16)
        rng = np.random.default_rng(11)
        B = rng.standard_normal((24, 24))
        A = B @ B.T / 24 + np.eye(24)
        M = InformationMatrix(A, es)
        k_grid = list(range(1, 25))
        rep = support_diagnostic(
            M, [0.5, 2.0], k_grid, kappa=1.0, alpha=0.5,
            m_mc=10, rng=np.random.default_rng(12), mc_k=7,
        )
        for entry in rep["betas"]:
            w = es.tau ** (-entry["beta"])
            oracle = [float(np.sum(w[:k] * np.diag(np.linalg.inv(A[:k, :k])))) for k in k_grid]
            np.testing.assert_allclose(entry["moments"], oracle, rtol=1e-12)
        for entry in rep["mc"]["betas"]:
            w = es.tau[:7] ** (-entry["beta"])
            oracle = float(np.sum(w * np.diag(np.linalg.inv(A[:7, :7]))))
            assert entry["exact"] == pytest.approx(oracle, rel=1e-12)

    def test_mc_truncation_beyond_matrix_rejected(self, heat_M):
        es, _, M = heat_M
        with pytest.raises(ValueError):
            support_diagnostic(
                M, [1.0], [4, 16], kappa=1.0, alpha=0.5,
                m_mc=10, rng=np.random.default_rng(13), mc_k=17,
            )

    def test_heat_thresholds(self):
        # heat d=1 scale: kappa=1, alpha=1/2; threshold beta = 1.5
        es = build_eigensystem(1, 256)
        mesh = TimeMesh.graded(1.0, levels=24, steps_per_block=32)
        model = HeatModel(es, T=1.0, mesh=mesh)
        M = assemble_information_matrix(
            model, FourierCoeffs.zeros(es), make_noise("gaussian", variance=1.0),
            DesignMeasure(1.0), 512,
        )
        rep = support_diagnostic(
            M, [1.0, 2.0], [64, 128, 256, 512], kappa=1.0, alpha=0.5,
            m_mc=5000, rng=np.random.default_rng(5), mc_k=64,
        )
        by_beta = {e["beta"]: e for e in rep["betas"]}
        # beta = 2 > 1.5: plateau, increment K=256->512 under 2%
        assert by_beta[2.0]["last_rel_increment"] < 0.02
        assert not by_beta[2.0]["divergent"]
        # beta = 1 < 1.5: growth over 25% from K=64 to K=512
        m = by_beta[1.0]["moments"]
        assert m[-1] / m[0] - 1 > 0.25
        assert by_beta[1.0]["divergent"]
        # oracle: explicit sum with closed-form inverse diagonal
        lam = es.lam[:512]
        minv = np.where(lam > 0, 2 * lam / -np.expm1(-2 * np.where(lam > 0, lam, 1.0)), 1.0)
        for beta in (1.0, 2.0):
            exact = float(np.sum(es.tau[:512] ** (-beta) * minv))
            assert by_beta[beta]["moments"][-1] == pytest.approx(exact, rel=1e-3)
        # MC cross-check at K=64
        for e in rep["mc"]["betas"]:
            assert abs(e["estimate"] - e["exact"]) < 3 * e["stderr"]

    def test_divergence_growth_exponent(self):
        # trace ~ K^{(kappa+alpha-beta)/alpha} for beta < kappa + alpha
        es = build_eigensystem(1, 256)
        mesh = TimeMesh.graded(1.0, levels=24, steps_per_block=32)
        model = HeatModel(es, T=1.0, mesh=mesh)
        M = assemble_information_matrix(
            model, FourierCoeffs.zeros(es), make_noise("gaussian", variance=1.0),
            DesignMeasure(1.0), 512,
        )
        rep = support_diagnostic(
            M, [0.5, 1.0], [64, 128, 256, 512], kappa=1.0, alpha=0.5
        )
        for entry in rep["betas"]:
            assert entry["divergent"]
            predicted = (1.0 + 0.5 - entry["beta"]) / 0.5
            assert abs(entry["fitted_growth"] - predicted) < 0.3


def _fft_gradients(u):
    """d/dx1 and d/dx2 of grid values u (..., n, n) by numpy's full complex FFT."""
    n = u.shape[-1]
    k = 2j * np.pi * np.fft.fftfreq(n, d=1.0 / n)
    u_hat = np.fft.fft2(u)
    return [np.fft.ifft2(d * u_hat).real for d in (k[:, None], k[None, :])]


class TestPushforward:
    def test_heat_trajectory_closed_form(self, heat_M):
        # theta0 = 0: E||flow(G)||^2_{L2([t0,t1]xOmega)} = sum (M^{-1})_jj int e^{-2 lam t}
        es, model, M = heat_M
        t0, t1 = 0.25, 0.75
        batch = sample_efficient_gaussian(M, 4000, np.random.default_rng(6))
        out = functional_pushforward_bound(
            model, FourierCoeffs.zeros(es), M, batch, "trajectory", "l2", t0, t1, power=2.0
        )
        lam = es.lam[: M.n_basis]
        inv_diag = np.diag(np.linalg.inv(M.matrix))
        with np.errstate(divide="ignore", invalid="ignore"):
            integrals = np.where(
                lam > 0,
                (np.exp(-2 * lam * t0) - np.exp(-2 * lam * t1)) / np.where(lam > 0, 2 * lam, 1.0),
                t1 - t0,
            )
        exact = float(np.sum(inv_diag * integrals))
        assert abs(out["estimate"] - exact) < 3 * out["stderr"]

    def test_zero_power_is_one(self, heat_M):
        es, model, M = heat_M
        batch = sample_efficient_gaussian(M, 50, np.random.default_rng(7))
        out = functional_pushforward_bound(
            model, FourierCoeffs.zeros(es), M, batch, "trajectory", "l2", 0.25, 0.75, power=0.0
        )
        assert out["estimate"] == 1.0 and out["stderr"] == 0.0

    def test_t0_zero_rejected(self, heat_M):
        es, model, M = heat_M
        batch = sample_efficient_gaussian(M, 10, np.random.default_rng(8))
        with pytest.raises(ValueError):
            functional_pushforward_bound(
                model, FourierCoeffs.zeros(es), M, batch, "trajectory", "l2", 0.0, 0.5
            )

    @pytest.mark.parametrize(
        "fixture, functional, t0, t1",
        [
            ("heat_M", "trajectory", 0.25, 0.75),
            ("ns_M", "trajectory", 0.125, 0.375),  # the velocity's magnitude
            ("ns_M", "ns-nonlinearity", 0.125, 0.375),
        ],
        ids=["heat-trajectory", "ns-trajectory", "ns-nonlinearity"],
    )
    def test_sup_loss_bounded_by_values(self, request, fixture, functional, t0, t1):
        if fixture == "heat_M":  # heat flow from theta0 = 0
            es, model, M = request.getfixturevalue(fixture)
            theta0 = FourierCoeffs.zeros(es)
        else:
            model, theta0, M = request.getfixturevalue(fixture)
        batch = sample_efficient_gaussian(M, 50, np.random.default_rng(9))
        l2 = functional_pushforward_bound(model, theta0, M, batch, functional, "l2", t0, t1, power=1.0)
        sup = functional_pushforward_bound(model, theta0, M, batch, functional, "sup", t0, t1, power=1.0)
        # ||.||_L2 over a window of measure < 1 is below the sup
        assert l2["estimate"] <= sup["estimate"]

    def test_theta0_other_than_M_rejected(self, heat_M):
        # M was assembled at theta0 = 0, so the flow marched from 0.1 is not its
        es, model, M = heat_M
        batch = sample_efficient_gaussian(M, 10, np.random.default_rng(8))
        theta0 = FourierCoeffs.zeros(es)
        functional_pushforward_bound(model, theta0, M, batch, "trajectory", "l2", 0.25, 0.75)
        theta0.data[0] = 0.1
        with pytest.raises(ValueError, match="assembled at"):
            functional_pushforward_bound(model, theta0, M, batch, "trajectory", "l2", 0.25, 0.75)

    def test_model_other_than_M_rejected(self, heat_M):
        # an equal heat model built again is still not the one M was assembled on
        es, model, M = heat_M
        batch = sample_efficient_gaussian(M, 10, np.random.default_rng(8))
        other = HeatModel(es, T=1.0, mesh=model.mesh)
        with pytest.raises(ValueError, match="assembled on"):
            functional_pushforward_bound(other, FourierCoeffs.zeros(es), M, batch, "trajectory", "l2", 0.25, 0.75)

    def test_ns_nonlinearity_functional(self, ns_M):
        model, theta0, M = ns_M
        batch = sample_efficient_gaussian(M, 100, np.random.default_rng(10))
        out = functional_pushforward_bound(
            model, theta0, M, batch, "ns-nonlinearity", "l2", 0.125, 0.375, power=2.0
        )
        assert np.isfinite(out["estimate"]) and out["estimate"] > 0

    def test_ns_nonlinearity_exact_expectation(self, ns_M):
        # E||dF[G]||^2 over G ~ N(0, M^-1) is sum_j ||dF[L^-T e_j]||^2 (L the
        # Cholesky factor of M) because dF is linear; here dF[U] = (U.grad)u0
        # + (u0.grad)U is coded on the model grid with numpy's full complex FFT
        # and summed with the window's Simpson weights and the grid mean
        model, theta0, M = ns_M
        es, K, n = model.es, M.n_basis, model.n
        t0, t1 = 0.125, 0.375
        cols = np.linalg.solve(M.cholesky_lower().T, np.eye(K))  # column j is L^-T e_j
        i0, i1 = model.mesh.window_slice(t0, t1)
        w = model.mesh.window_weights(i0, i1)
        u0 = values_from_coeffs(es, model.solve(theta0).data[i0 : i1 + 1], n)  # (nt, 2, n, n)
        tangent = model.linearize(theta0, np.eye(es.size, K) @ cols).data[i0 : i1 + 1]
        U = values_from_coeffs(es, tangent.transpose(2, 0, 1), n)  # (K, nt, 2, n, n)
        (g0x, g0y), (gUx, gUy) = _fft_gradients(u0), _fft_gradients(U)
        dF = U[:, :, 0:1] * g0x + U[:, :, 1:2] * g0y + u0[:, 0:1] * gUx + u0[:, 1:2] * gUy
        exact = float(np.sum(w * (dF**2).sum(axis=2).mean(axis=(-2, -1))))
        out = functional_pushforward_bound(
            model, theta0, M, GaussianSampleBatch(cols.T, K), "ns-nonlinearity", "l2", t0, t1, power=2.0
        )
        assert exact > 0
        assert K * out["estimate"] == pytest.approx(exact, rel=1e-12, abs=0)
