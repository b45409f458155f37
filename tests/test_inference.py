"""Data simulation, likelihood ratios, the LAN expansion at moderate scale,
and the influence-function estimator (exactness in the linear-Gaussian case)."""

import math

import numpy as np
import pytest
from scipy import special, stats

from pdefisher import (
    DesignMeasure,
    FourierCoeffs,
    HeatModel,
    InformationMatrix,
    TimeMesh,
    assemble_information_matrix,
    build_eigensystem,
    efficiency_report,
    functional_pushforward_bound,
    lan_montecarlo,
    lan_norm,
    log_likelihood_ratio,
    make_noise,
    pairing,
    sample_efficient_gaussian,
    simulate_dataset,
)
from pdefisher import forward, inference
from pdefisher.inference import (
    _MAXLOG,
    _inverse_factorials,
    _kolmogorov_sf,
    _ks_normal,
    _loglik,
    _ndtr,
    _smirnov,
    build_influence_field,
    influence_values,
)

from oracles import inv_quadform

LAM1 = 4 * np.pi**2


def efficient_influence_estimate(psi, data, theta0, M, model, noise):
    """One-step estimate <psi, theta0> + mean_i chi(X_i, Y_i) of <psi, theta>.

    chi is the score paired with the linearized flow of psi_bar = M^{-1} psi;
    its P_theta0-variance is the bound psi^T M^{-1} psi, and the estimator is
    first-order unbiased under local shifts.
    """
    field0 = model.solve(theta0)
    influence_field = build_influence_field(psi, M)
    chi = influence_values(data, field0, influence_field, noise)
    return float(pairing(psi, theta0) + chi.mean())


@pytest.fixture(scope="module")
def setup():
    es = build_eigensystem(1, 4)
    mesh = TimeMesh.graded(1.0, levels=14, steps_per_block=64)
    model = HeatModel(es, T=1.0, mesh=mesh)
    noise = make_noise("gaussian", variance=1.0)
    design = DesignMeasure(1.0)
    theta0 = FourierCoeffs.zeros(es)
    theta0.data[es.index_of([0], 0)] = 0.5
    theta0.data[es.index_of([1], 1)] = 0.3
    M = assemble_information_matrix(model, theta0, noise, design, 9)
    return es, model, noise, design, theta0, M


class TestSimulateDataset:
    @pytest.mark.parametrize("T", [0.5, 2.0])
    def test_design_horizon_other_than_field_rejected(self, setup, T):
        # T = 0.5 would draw every t in [0, 0.5) of a T = 1 field; T = 2.0
        # would fail only inside evaluate
        _, model, noise, _, theta0, _ = setup
        with pytest.raises(ValueError, match="horizon"):
            simulate_dataset(model.solve(theta0), DesignMeasure(T), noise, 100, np.random.default_rng(0))

    def test_near_noiseless_residuals(self, setup):
        es, model, _, design, theta0, _ = setup
        tiny = make_noise("gaussian", variance=1e-12)
        rng = np.random.default_rng(0)
        data = simulate_dataset(model.solve(theta0), design, tiny, 2000, rng)
        field = model.solve(theta0)
        resid = data.y - field.evaluate(data.t, data.x)
        assert np.std(resid) < 1e-5

    def test_design_law(self, setup):
        es, model, noise, design, theta0, _ = setup
        rng = np.random.default_rng(1)
        data = simulate_dataset(model.solve(theta0), design, noise, 20000, rng)
        assert abs(np.mean(data.t) - 0.5) < 3 * np.std(data.t) / np.sqrt(data.n)
        assert np.all((data.x >= 0) & (data.x < 1))

    def test_regression_recovers_mode(self, setup):
        # regress Y on the heat-decayed first mode: coefficient -> 1
        es, model, noise, design, _, _ = setup
        theta = FourierCoeffs.unit(es, es.index_of([1], 1))
        rng = np.random.default_rng(2)
        data = simulate_dataset(model.solve(theta), design, noise, 10000, rng)
        regressor = np.exp(-LAM1 * data.t) * np.sqrt(2) * np.cos(2 * np.pi * data.x[:, 0])
        coef = (regressor @ data.y) / (regressor @ regressor)
        stderr = 1.0 / np.sqrt(regressor @ regressor)
        assert abs(coef - 1.0) < 3 * stderr


class TestVectorData:
    def test_ns_bivariate_pipeline(self):
        # end-to-end p=2: simulate velocities, compute a likelihood ratio
        from pdefisher import NavierStokesModel, build_eigensystem
        from pdefisher.spectral import DIV_FREE

        es = build_eigensystem(2, 3, DIV_FREE)
        mesh = TimeMesh.uniform(0.25, 32)
        ns = NavierStokesModel(es, viscosity=0.05, T=0.25, mesh=mesh)
        noise = make_noise("gaussian2", cov=np.array([[0.5, 0.1], [0.1, 0.8]]))
        design = DesignMeasure(0.25)
        theta0 = FourierCoeffs.zeros(es)
        theta0.data[es.index_of([1, 0], 1)] = 0.4
        rng = np.random.default_rng(30)
        data = simulate_dataset(ns.solve(theta0), design, noise, 300, rng)
        assert data.y.shape == (300, 2)
        h = FourierCoeffs.unit(es, es.index_of([0, 1], 1))
        f0 = ns.solve(theta0)
        f1 = ns.solve(theta0 + (1 / np.sqrt(300)) * h)
        llr = log_likelihood_ratio(data, f0, f1, noise)
        assert np.isfinite(llr)
        assert log_likelihood_ratio(data, f0, f0, noise) == 0.0


class TestLogLikelihoodRatio:
    def test_zero_direction(self, setup):
        es, model, noise, design, theta0, _ = setup
        rng = np.random.default_rng(3)
        data = simulate_dataset(model.solve(theta0), design, noise, 500, rng)
        f0 = model.solve(theta0)
        assert log_likelihood_ratio(data, f0, f0, noise) == 0.0

    def test_gaussian_quadratic_identity(self, setup):
        # oracle: for Gaussian noise the ratio is exactly
        # sum[ d_i (y_i - g0_i) - d_i^2 / 2 ] / sigma^2 with d = g1 - g0
        es, model, noise, design, theta0, _ = setup
        h = FourierCoeffs.unit(es, es.index_of([2], 1))
        n = 400
        rng = np.random.default_rng(4)
        data = simulate_dataset(model.solve(theta0), design, noise, n, rng)
        theta1 = theta0 + (1 / np.sqrt(n)) * h
        f0, f1 = model.solve(theta0), model.solve(theta1)
        got = log_likelihood_ratio(data, f0, f1, noise)
        g0 = f0.evaluate(data.t, data.x)
        g1 = f1.evaluate(data.t, data.x)
        d = g1 - g0
        exact = float(np.sum(d * (data.y - g0) - 0.5 * d**2))
        assert got == pytest.approx(exact, abs=1e-8)

    def test_rounded_at_the_ratio_scale(self, setup):
        # oracle: the correctly rounded sum of the per-datum log-densities.
        # Each log-density sum is about -7,000 at n = 5000 while the ratio is
        # O(1); differencing the two sums misses by about one ulp of -7,000
        # (8.0e-13 at this seed)
        es, model, noise, design, theta0, _ = setup
        n = 5000
        rng = np.random.default_rng(6)
        data = simulate_dataset(model.solve(theta0), design, noise, n, rng)
        h = FourierCoeffs.unit(es, es.index_of([1], 1))
        f0, f1 = model.solve(theta0), model.solve(theta0 + (1 / np.sqrt(n)) * h)
        l1, l0 = _loglik(noise, data, f1), _loglik(noise, data, f0)
        exact = math.fsum([*l1, *(-l0)])
        assert abs(log_likelihood_ratio(data, f0, f1, noise) - exact) <= 1e-13

    def test_support_escape_counted(self, setup):
        # compact noise + huge shift: -inf ratios occur and are reported
        es, model, _, design, theta0, _ = setup
        bump = make_noise("cosine_bump")
        M = assemble_information_matrix(model, theta0, bump, design, 9)
        h = FourierCoeffs(es, np.zeros(es.size))
        h.data[es.index_of([1], 1)] = 3.0  # shift ~0.3 at the cos peaks
        rep = lan_montecarlo(h, M, n=200, replicates=100, rng_seed=5)
        assert rep["support_escapes"] > 0
        assert rep["support_escapes"] < 100  # a mix, not a wipe-out
        assert np.isfinite(rep["mean"])


class TestLanMonteCarlo:
    def test_heat_gaussian_null(self, setup):
        es, model, noise, design, theta0, M = setup
        h = FourierCoeffs.unit(es, es.index_of([1], 1))
        h = h * (1.0 / lan_norm(h, M))
        rep = lan_montecarlo(h, M, n=2000, replicates=200, rng_seed=6)
        assert abs(rep["mean"] - (-0.5)) < 3 * rep["mean_stderr"]
        assert abs(rep["var"] - 1.0) < 0.3
        assert rep["ks_pvalue"] > 0.01

    def test_alternative_contiguity(self, setup):
        es, model, noise, design, theta0, M = setup
        h = FourierCoeffs.unit(es, es.index_of([1], 1))
        h = h * (1.0 / lan_norm(h, M))
        rep = lan_montecarlo(h, M, n=2000, replicates=200, rng_seed=7, under="alternative")
        assert abs(rep["mean"] - 0.5) < 3 * rep["mean_stderr"]

    def test_quadratic_scaling_of_target(self, setup):
        es, model, noise, design, theta0, M = setup
        h = FourierCoeffs.unit(es, es.index_of([1], 1))
        h = h * (1.0 / lan_norm(h, M))
        rep1 = lan_montecarlo(h, M, 500, 50, 8)
        rep2 = lan_montecarlo(2.0 * h, M, 500, 50, 8)
        assert rep2["target_mean"] == pytest.approx(4 * rep1["target_mean"])
        assert abs(rep2["mean"] - rep2["target_mean"]) < 4 * rep2["mean_stderr"]

    def test_jensen_negative_mean(self, setup):
        # E log(dP1/dP0) <= 0 under the null
        es, model, noise, design, theta0, M = setup
        h = FourierCoeffs.unit(es, es.index_of([1], 1))
        h = h * (0.8 / lan_norm(h, M))
        rep = lan_montecarlo(h, M, 1000, 150, 9)
        assert rep["mean"] + 3 * rep["mean_stderr"] < 0

    def test_workers_deterministic(self, setup):
        es, model, noise, design, theta0, M = setup
        h = FourierCoeffs.unit(es, es.index_of([1], 1))
        a = lan_montecarlo(h, M, 200, 20, 10, workers=1)
        b = lan_montecarlo(h, M, 200, 20, 10, workers=4)
        assert a["mean"] == b["mean"] and a["var"] == b["var"]


class TestPointPlanReplicates:
    """A replicate evaluates three fields at its design points (the simulated
    field and, for the ratio, G0 and G1; for efficiency, G0 and the influence
    field), and builds the points' plan once (``forward._point_plan``).  Every
    replicate value is bitwise the one with the plan built fresh on every call."""

    @staticmethod
    def _replicates(task, setup, fresh, monkeypatch):
        es, _, _, _, _, M = setup
        h = FourierCoeffs.unit(es, es.index_of([1], 1))
        values, builds = [], []
        real_map, real_plan, real_stencils = inference._replicate_map, forward._point_plan, forward._time_stencils

        def keep(*args):
            values.append(real_map(*args))
            return values[-1]

        def plan(*args):
            if fresh:
                forward._plan.key = None
            return real_plan(*args)

        with monkeypatch.context() as mp:
            mp.setattr(inference, "_replicate_map", keep)
            mp.setattr(forward, "_point_plan", plan)
            mp.setattr(forward, "_time_stencils", lambda *a: builds.append(1) or real_stencils(*a))
            if task == "efficiency":
                report = efficiency_report(h, M, 300, 20, 11, workers=2)
            else:
                report = lan_montecarlo(h, M, 300, 20, 11, under=task, workers=2)
        (values,) = values
        return values, report, len(builds)

    @pytest.mark.parametrize("task", ["null", "alternative", "efficiency"])
    def test_replicates_equal_fresh_plans(self, setup, monkeypatch, task):
        shipped, report, builds = self._replicates(task, setup, False, monkeypatch)
        fresh, fresh_report, fresh_builds = self._replicates(task, setup, True, monkeypatch)
        assert shipped.shape == (20,) and shipped.tobytes() == fresh.tobytes()
        assert report == fresh_report
        assert (builds, fresh_builds) == (20, 60)  # one plan per replicate, against three


class TestBasePointFromM:
    """The Monte-Carlo tasks read the model, theta0, G(theta0), the noise and
    the design from M, so a matrix built by hand, which carries none of them,
    is refused."""

    def test_hand_built_matrix_refused(self, setup):
        es, model, _, _, theta0, M = setup
        bare = InformationMatrix(M.matrix, es)
        h = FourierCoeffs.unit(es, 1)
        with pytest.raises(ValueError, match="no experiment"):
            lan_montecarlo(h, bare, 10, 2, 0)
        with pytest.raises(ValueError, match="no experiment"):
            efficiency_report(h, bare, 10, 2, 0)
        with pytest.raises(ValueError, match="no experiment"):
            build_influence_field(h, bare)
        batch = sample_efficient_gaussian(M, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="no experiment"):
            functional_pushforward_bound(model, theta0, bare, batch, "trajectory", "l2", 0.25, 0.75)

    def test_lan_draws_the_noise_of_M(self, setup):
        # M's noise weighs the target ||h||_M^2 and draws the data: under
        # variance-4 noise the target is a quarter, and so is the ratio's
        # variance (its relative standard error is sqrt(2 / (R - 1)))
        es, model, _, design, theta0, M1 = setup
        M4 = assemble_information_matrix(model, theta0, make_noise("gaussian", variance=4.0), design, 9)
        h = FourierCoeffs.unit(es, es.index_of([1], 1))
        R = 200
        rep1 = lan_montecarlo(h, M1, 500, R, 3)
        rep4 = lan_montecarlo(h, M4, 500, R, 3)
        assert rep4["target_var"] == pytest.approx(rep1["target_var"] / 4, rel=1e-12)
        for rep in (rep1, rep4):
            assert abs(rep["var"] - rep["target_var"]) <= 4 * rep["target_var"] * np.sqrt(2 / (R - 1))


def _d_grid(n, points=60):
    return np.linspace(0.5 / n, 1.0, points + 2)[1:-1]


class TestKolmogorovSmirnov:
    """The LAN task's KS test against scipy.stats and the closed forms of the
    exact two-sided distribution (Ruben & Gambino 1982)."""

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 140, 141, 400, 3000])
    def test_statistic_equals_kstest(self, n):
        rng = np.random.default_rng(n)
        for shift in (0.0, 0.4, -1.5):
            x = rng.normal(0.3 + shift, 1.7, n)
            d, p = _ks_normal(x, 0.3, 1.7)
            ref = stats.kstest(x, "norm", args=(0.3, 1.7))
            assert d == ref.statistic
            assert p == pytest.approx(ref.pvalue, rel=1e-4, abs=1e-300)

    def test_durbin_branch_matches_kstwo(self):
        # where scipy itself runs the Durbin matrix: n <= 140, n d^2 <= 0.754693,
        # outside the closed-form ranges below
        checked = 0
        for n in range(2, 141):
            for d in _d_grid(n):
                if n * d > 1 and d < 0.5 and n * d * d <= 0.754693:
                    assert _kolmogorov_sf(n, d) == pytest.approx(stats.kstwo.sf(d, n), rel=1e-10)
                    checked += 1
        assert checked > 500

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 60, 140, 141, 400, 1000])
    def test_closed_forms(self, n):
        # P(D_n <= d) = n!/n^n (2nd - 1)^n on [1/(2n), 1/n]
        for d in np.linspace(0.5 / n, 1.0 / n, 41).tolist():
            cdf = math.factorial(n) / n**n * (2 * n * d - 1) ** n if n <= 140 else math.exp(
                math.lgamma(n + 1) - n * math.log(n) + n * math.log(max(2 * n * d - 1, 1e-300))
            )
            assert _kolmogorov_sf(n, d) == pytest.approx(1.0 - cdf, rel=1e-12, abs=1e-300)
        # P(D_n >= d) = 2 (1 - d)^n on [1 - 1/n, 1]
        if n >= 2:
            for d in np.linspace(1.0 - 1.0 / n, 1.0, 41)[:-1].tolist():
                assert _kolmogorov_sf(n, d) == pytest.approx(2 * (1 - d) ** n, rel=1e-10)
        assert _kolmogorov_sf(n, 1.0) == 0.0

    @pytest.mark.parametrize("n", [3, 20, 80, 140, 141, 400, 1000, 5000])
    def test_matches_kstwo_elsewhere(self, n):
        # Pomeranz (n <= 140) or Pelz-Good (n > 140) in scipy against the
        # Durbin matrix here, and scipy's own 2 smirnov branch
        for d in _d_grid(n, 200):
            got, ref = _kolmogorov_sf(n, d), stats.kstwo.sf(d, n)
            assert got == pytest.approx(ref, rel=1e-4, abs=1e-300), (n, d)


class TestSpecialFunctionPorts:
    """The KS test's special functions against scipy.special, which only the
    tests import."""

    def test_ndtr_equals_scipy_bitwise(self):
        rng = np.random.default_rng(22)
        # |a| = 1 switches ndtr from erf to erfc, sqrt 2 erfc from 1 - erf to
        # the P/Q fraction, 8 sqrt 2 from P/Q to R/S, and past sqrt(2 MAXLOG)
        # erfc is 0
        switches = [1.0, math.sqrt(2.0), 8 * math.sqrt(2.0), math.sqrt(2 * _MAXLOG)]
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan]
        for a in switches:
            for b in (np.nextafter(a, 0.0), a, np.nextafter(a, np.inf)):
                edges += [b, -b]
        a = np.concatenate([
            rng.normal(0.0, 1.5, 40_000),
            rng.normal(0.0, 5.0, 40_000),
            rng.uniform(-40.0, 40.0, 40_000),
            edges,
        ])
        got = np.array([_ndtr(v) for v in a.tolist()])
        np.testing.assert_array_equal(got, special.ndtr(a))

    @pytest.mark.parametrize("n", [1, 2, 7, 140, 141, 400, 5000])
    def test_smirnov_matches_scipy(self, n):
        grid = np.linspace(0.0, 1.0, 202)[1:-1].tolist() + [0.5 / n, 1.0 / n, 1.0 - 1.0 / n, 1.0 - 1e-9]
        for d in (d for d in grid if 0.0 < d < 1.0):
            assert _smirnov(n, d) == pytest.approx(special.smirnov(n, d), rel=1e-10, abs=1e-300), d

    def test_inverse_factorials_match_rgamma(self):
        got, ref = _inverse_factorials(200), special.rgamma(np.arange(1.0, 202.0))
        # within 2 ulp of relative size eps; 1/170! is the last normal one
        np.testing.assert_allclose(got[:171], ref[:171], rtol=2 * np.finfo(float).eps, atol=0.0)
        assert np.all(got[171:] < np.finfo(float).tiny)


class TestInfluenceEstimator:
    def test_zero_target(self, setup):
        es, model, noise, design, theta0, M = setup
        rng = np.random.default_rng(11)
        data = simulate_dataset(model.solve(theta0), design, noise, 200, rng)
        psi = FourierCoeffs.zeros(es)
        est = efficient_influence_estimate(psi, data, theta0, M, model, noise)
        assert est == 0.0

    def test_exact_unbiasedness_linear_gaussian(self, setup):
        es, model, noise, design, theta0, M = setup
        psi = FourierCoeffs.unit(es, es.index_of([1], 1))
        field0 = model.solve(theta0)
        infl = build_influence_field(psi, M)
        truth = pairing(psi, theta0)
        ss = np.random.SeedSequence(12)
        ests = []
        for child in ss.spawn(400):
            rng = np.random.default_rng(child)
            data = simulate_dataset(field0, design, noise, 500, rng)
            chi = influence_values(data, field0, infl, noise)
            ests.append(truth + chi.mean())
        ests = np.array(ests)
        stderr = ests.std(ddof=1) / np.sqrt(ests.size)
        assert abs(ests.mean() - truth) < 3 * stderr
        # variance attains the bound within MC resolution
        bound = inv_quadform(M, M.coeff_vector(psi))
        mc_var = 500 * ests.var(ddof=1)
        assert abs(mc_var - bound) < 4 * bound * np.sqrt(2.0 / (ests.size - 1))

    def test_influence_mean_zero_under_null(self, setup):
        es, model, noise, design, theta0, M = setup
        psi = FourierCoeffs.unit(es, es.index_of([2], 2))
        field0 = model.solve(theta0)
        infl = build_influence_field(psi, M)
        rng = np.random.default_rng(13)
        data = simulate_dataset(field0, design, noise, 50000, rng)
        chi = influence_values(data, field0, infl, noise)
        assert abs(chi.mean()) < 3 * chi.std() / np.sqrt(chi.size)

    def test_vector_influence_centered(self):
        # p=2: the score pairing stays mean-zero under the data-generating law
        from pdefisher import NavierStokesModel, assemble_information_matrix, build_eigensystem
        from pdefisher.spectral import DIV_FREE

        es = build_eigensystem(2, 3, DIV_FREE)
        mesh = TimeMesh.uniform(0.25, 32)
        ns = NavierStokesModel(es, viscosity=0.05, T=0.25, mesh=mesh)
        noise = make_noise("gaussian2", cov=np.array([[0.5, 0.1], [0.1, 0.8]]))
        design = DesignMeasure(0.25)
        theta0 = FourierCoeffs.zeros(es)
        theta0.data[es.index_of([1, 0], 1)] = 0.4
        M = assemble_information_matrix(ns, theta0, noise, design, 8)
        psi = FourierCoeffs.unit(es, es.index_of([0, 1], 1))
        field0 = ns.solve(theta0)
        infl = build_influence_field(psi, M)
        rng = np.random.default_rng(31)
        data = simulate_dataset(field0, design, noise, 40000, rng)
        chi = influence_values(data, field0, infl, noise)
        assert abs(chi.mean()) < 3 * chi.std() / np.sqrt(chi.size)

    def test_unbiased_under_nonuniform_design(self):
        # the estimator uses the canonical score pairing; with X ~ lambda the
        # local expectation is <psi, delta> for any bounded design density
        from pdefisher import assemble_information_matrix

        es = build_eigensystem(1, 4)
        mesh = TimeMesh.graded(1.0, levels=14, steps_per_block=64)
        model = HeatModel(es, T=1.0, mesh=mesh)
        noise = make_noise("gaussian", variance=0.8)
        design = DesignMeasure(1.0, kind="cosine", amplitude=0.6)
        theta0 = FourierCoeffs.zeros(es)
        theta0.data[0] = 0.5
        M = assemble_information_matrix(model, theta0, noise, design, 9)
        psi = FourierCoeffs.unit(es, es.index_of([1], 1))
        delta = FourierCoeffs.unit(es, es.index_of([1], 1)) * 0.2
        theta = theta0 + delta
        field = model.solve(theta)
        field0 = model.solve(theta0)
        infl = build_influence_field(psi, M)
        rng = np.random.default_rng(32)
        data = simulate_dataset(field, design, noise, 200_000, rng)
        chi = influence_values(data, field0, infl, noise)
        target = pairing(psi, delta)  # heat is linear: exact identity
        stderr = chi.std() / np.sqrt(chi.size)
        assert abs(chi.mean() - target) < 3 * stderr

    def test_noise_scale_doubles_bound_and_variance(self, setup):
        # doubling sigma scales the bound by 4 exactly and the MC variance by ~4
        from pdefisher import assemble_information_matrix, efficiency_report

        es, model, _, design, theta0, M1 = setup
        psi = FourierCoeffs.unit(es, es.index_of([1], 1))
        noise2 = make_noise("gaussian", variance=4.0)
        M2 = assemble_information_matrix(model, theta0, noise2, design, 9)
        b1 = inv_quadform(M1, M1.coeff_vector(psi))
        b2 = inv_quadform(M2, M2.coeff_vector(psi))
        assert b2 == pytest.approx(4 * b1, rel=1e-10)
        rep1 = efficiency_report(psi, M1, 400, 300, 15)
        rep2 = efficiency_report(psi, M2, 400, 300, 15)
        assert rep2["mc_variance"] / rep1["mc_variance"] == pytest.approx(4.0, rel=0.35)

    def test_local_shift_regularity(self, setup):
        # under theta0 + h/sqrt(N): sqrt(N)(est - <psi, theta>) has mean ~ 0
        es, model, noise, design, theta0, M = setup
        psi = FourierCoeffs.unit(es, es.index_of([1], 1))
        h = FourierCoeffs.unit(es, es.index_of([1], 2)) * 2.0
        n = 500
        theta = theta0 + (1 / np.sqrt(n)) * h
        field = model.solve(theta)
        field0 = model.solve(theta0)
        infl = build_influence_field(psi, M)
        truthN = pairing(psi, theta)
        truth0 = pairing(psi, theta0)
        ss = np.random.SeedSequence(14)
        vals = []
        for child in ss.spawn(300):
            rng = np.random.default_rng(child)
            data = simulate_dataset(field, design, noise, n, rng)
            chi = influence_values(data, field0, infl, noise)
            vals.append(np.sqrt(n) * (truth0 + chi.mean() - truthN))
        vals = np.array(vals)
        assert abs(vals.mean()) < 3 * vals.std(ddof=1) / np.sqrt(vals.size)
