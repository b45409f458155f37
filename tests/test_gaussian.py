"""Efficient-Gaussian sampling, support diagnostics across the negative
scale, and pushforward bounds, against exact-moment and closed-form oracles."""

import tracemalloc
import warnings

import numpy as np
import pytest

from pdefisher import (
    DesignMeasure,
    FourierCoeffs,
    HeatModel,
    InformationMatrix,
    NavierStokesModel,
    ReactionDiffusionModel,
    TimeMesh,
    assemble_information_matrix,
    build_eigensystem,
    functional_pushforward_bound,
    make_noise,
    sample_efficient_gaussian,
    support_diagnostic,
)
from pdefisher.gaussian import _MC_BLOCK_ENTRIES, GaussianSampleBatch
from pdefisher.spectral import DIV_FREE, derivative, values_from_coeffs

from oracles import held_tangents, inv_quadform


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


@pytest.fixture(scope="module")
def rd_M():
    es = build_eigensystem(1, 8)
    model = ReactionDiffusionModel(es, T=0.5, mesh=TimeMesh.uniform(0.5, 16))
    theta0 = FourierCoeffs.zeros(es)
    theta0.data[0] = 0.5
    theta0.data[es.index_of([1], 1)] = 0.3
    M = assemble_information_matrix(model, theta0, make_noise("gaussian", variance=1.0), DesignMeasure(0.5), 8)
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
        rhs = inv_quadform(M, mh)
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
        M = _spd_information(24, 11)
        es, A = M.es, M.matrix
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


def _spd_information(n_basis, seed):
    """A non-diagonal SPD information matrix on the first n_basis d = 1 modes."""
    es = build_eigensystem(1, n_basis // 2)
    B = np.random.default_rng(seed).standard_normal((n_basis, n_basis))
    return InformationMatrix(B @ B.T / n_basis + np.eye(n_basis), es)


def _held_support_mc(M, beta_list, m, rng, k):
    """(estimate, stderr) per beta from one held (m, k) batch, each draw's
    weighted squared norm summed over the whole batch at once."""
    batch = sample_efficient_gaussian(M, m, rng, k)
    out = []
    for beta in beta_list:
        per_sample = (batch.samples**2 * M.es.tau[:k][None, :] ** (-beta)).sum(axis=1)
        out.append((per_sample.mean(), per_sample.std(ddof=1) / np.sqrt(m)))
    return out


class TestStreamedSupportMC:
    """The support Monte Carlo draws its samples in blocks of at most
    _MC_BLOCK_ENTRIES entries and holds only each draw's moments; it matches
    the held-batch oracle and consumes exactly the batch's normal stream."""

    @pytest.mark.parametrize("mc_k", [1, 7, 32, 48])
    @pytest.mark.parametrize("m_case", ["1", "2", "block-1", "block", "block+1", "5000"])
    def test_matches_held_batch(self, mc_k, m_case):
        M = _spd_information(48, 21)
        block = _MC_BLOCK_ENTRIES // mc_k
        m_mc = {"1": 1, "2": 2, "block-1": block - 1, "block": block, "block+1": block + 1, "5000": 5000}[m_case]
        betas = [0.5, 2.0]
        with warnings.catch_warnings():
            if m_mc == 1:  # one draw: the ddof=1 stderr is nan on both sides, with a warning
                warnings.simplefilter("ignore", RuntimeWarning)
            rng = np.random.default_rng(22)
            rep = support_diagnostic(M, betas, [mc_k, 48], kappa=1.0, alpha=0.5, m_mc=m_mc, rng=rng, mc_k=mc_k)
            held = _held_support_mc(M, betas, m_mc, np.random.default_rng(22), mc_k)
        assert rep["mc"]["k"] == mc_k and rep["mc"]["m"] == m_mc
        for entry, (estimate, stderr) in zip(rep["mc"]["betas"], held):
            np.testing.assert_allclose(entry["estimate"], estimate, rtol=1e-13, atol=0)
            np.testing.assert_allclose(entry["stderr"], stderr, rtol=1e-13, atol=0)
        batch_rng = np.random.default_rng(22)
        batch_rng.standard_normal((m_mc, mc_k))
        assert rng.bit_generator.state == batch_rng.bit_generator.state

    def test_peak_memory_is_a_few_blocks(self):
        # K = mc_k = 128 and 5000 draws: a held batch and its two same-size
        # products are 3 x 5000 x 128 x 8 B = 14.6 MiB; a block is 256 KiB
        M = _spd_information(128, 23)
        rng = np.random.default_rng(24)
        tracemalloc.start()
        try:
            support_diagnostic(M, [1.0, 2.0], [32, 64, 128], kappa=1.0, alpha=0.5, m_mc=5000, rng=rng, mc_k=128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


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
        tangent = held_tangents(model, theta0, np.eye(es.size, K) @ cols).data[i0 : i1 + 1]
        U = values_from_coeffs(es, tangent.transpose(2, 0, 1), n)  # (K, nt, 2, n, n)
        (g0x, g0y), (gUx, gUy) = _fft_gradients(u0), _fft_gradients(U)
        dF = U[:, :, 0:1] * g0x + U[:, :, 1:2] * g0y + u0[:, 0:1] * gUx + u0[:, 1:2] * gUy
        exact = float(np.sum(w * (dF**2).sum(axis=2).mean(axis=(-2, -1))))
        out = functional_pushforward_bound(
            model, theta0, M, GaussianSampleBatch(cols.T, K), "ns-nonlinearity", "l2", t0, t1, power=2.0
        )
        assert exact > 0
        assert K * out["estimate"] == pytest.approx(exact, rel=1e-12, abs=0)


def _held_pushforward(M, samples, functional, loss, t0, t1, power):
    """The pushforward estimate and its standard error from held tangent
    batches of 64 sample columns each (``oracles.held_tangents``).
    Per sample: trajectory l2 applies the window's Simpson weights to each
    node's Parseval sum; ns-nonlinearity l2 adds, node by node in mesh
    order, the weight times the grid mean of |(U.grad)u0 + (u0.grad)U|^2;
    sup takes the largest magnitude over the window's nodes on the grid
    (for the trajectory, 4 times the smallest grid that resolves the modes)."""
    model, theta0, _, _, base = M.experiment()
    es = model.es
    i0, i1 = model.mesh.window_slice(t0, t1)
    w = model.mesh.window_weights(i0, i1)
    if functional == "ns-nonlinearity":  # u, du/dx1, du/dx2 of each unit vector on the grid
        eye = np.eye(es.size)
        grad = np.stack([eye, derivative(es, eye, 0), derivative(es, eye, 1)], 1)
        grad = values_from_coeffs(es, grad, model.n).reshape(es.size, -1)
        g0 = (base.data[i0 : i1 + 1] @ grad).reshape(i1 + 1 - i0, 3, 2, -1)
    values = []
    for start in range(0, samples.m, 64):
        cols = np.zeros((es.size, min(64, samples.m - start)))
        cols[: samples.n_basis] = samples.samples[start : start + cols.shape[1]].T
        data = held_tangents(model, theta0, cols).data[i0 : i1 + 1]  # (nt, nm, B)
        if functional == "trajectory" and loss == "l2":
            values.append(np.sqrt(w @ np.einsum("tmb,tmb->tb", data, data)))
            continue
        per_node = []
        for j, v in enumerate(data):
            if functional == "trajectory":
                vals = values_from_coeffs(es, v.T, 4 * es.min_grid_points())
                mag = np.sqrt((vals**2).sum(axis=1)) if es.subspace == DIV_FREE else np.abs(vals)
                per_node.append(mag.reshape(len(mag), -1).max(axis=1))
                continue
            u0, g0x, g0y = g0[j]
            U, gUx, gUy = np.moveaxis((v.T @ grad).reshape(v.shape[1], 3, 2, -1), 1, 0)
            f2 = ((U[:, 0:1] * g0x + U[:, 1:2] * g0y + u0[0] * gUx + u0[1] * gUy) ** 2).sum(axis=1)
            per_node.append(f2.mean(axis=1) if loss == "l2" else np.sqrt(f2.max(axis=1)))
        if loss == "l2":
            acc = np.zeros(cols.shape[1])
            for wj, val in zip(w, per_node):
                acc += wj * val
            values.append(np.sqrt(acc))
        else:
            values.append(np.max(per_node, axis=0))
    powered = np.concatenate(values) ** power
    return float(powered.mean()), float(powered.std(ddof=1) / np.sqrt(samples.m))


_STREAMED_CASES = [
    ("heat_M", "trajectory", 0.25, 0.75),
    ("rd_M", "trajectory", 0.125, 0.375),
    ("ns_M", "trajectory", 0.125, 0.375),
    ("ns_M", "ns-nonlinearity", 0.125, 0.375),
]


class TestStreamedPushforward:
    """The pushforward reduces each node's tangent block as the march hands
    it over and holds no sample batch; it matches the held-batch oracle."""

    @pytest.mark.parametrize("loss", ["l2", "sup"])
    @pytest.mark.parametrize(
        "fixture, functional, t0, t1", _STREAMED_CASES, ids=[f"{c[0][:-2]}-{c[1]}" for c in _STREAMED_CASES]
    )
    def test_matches_held_batch(self, request, fixture, functional, t0, t1, loss):
        M = request.getfixturevalue(fixture)[-1]
        model, theta0 = M.experiment()[:2]
        batch = sample_efficient_gaussian(M, 70, np.random.default_rng(11))  # two chunks
        out = functional_pushforward_bound(model, theta0, M, batch, functional, loss, t0, t1)
        estimate, stderr = _held_pushforward(M, batch, functional, loss, t0, t1, 2.0)
        assert estimate > 0
        if functional == "trajectory" and loss == "l2":
            # the Simpson sum runs node by node instead of as one dot product
            assert out["estimate"] == pytest.approx(estimate, rel=1e-14, abs=0)
            assert out["stderr"] == pytest.approx(stderr, rel=1e-13, abs=0)
        else:
            assert (out["estimate"], out["stderr"]) == (estimate, stderr)

    @pytest.mark.parametrize("loss", ["l2", "sup"])
    def test_ns_peak_memory_below_a_quarter_batch(self, loss):
        # 513 nodes x 48 modes x 64 columns is a 12.6 MB batch; a narrow window
        # keeps G(theta0)'s grid values small, so what is left is per node
        es = build_eigensystem(2, 3, DIV_FREE)
        model = NavierStokesModel(es, viscosity=0.05, T=0.5, mesh=TimeMesh.uniform(0.5, 512))
        theta0 = FourierCoeffs.zeros(es)
        theta0.data[es.index_of([1, 0], 1)] = 0.4
        M = assemble_information_matrix(model, theta0, make_noise("gaussian2", cov=np.eye(2)), DesignMeasure(0.5), 8)
        batch = sample_efficient_gaussian(M, 64, np.random.default_rng(12))
        tracemalloc.start()
        try:
            functional_pushforward_bound(model, theta0, M, batch, "ns-nonlinearity", loss, 0.125, 0.1328125)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < model.mesh.n_nodes * es.size * 64 * 8 / 4
