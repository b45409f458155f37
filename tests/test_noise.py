"""Noise families: Fisher quadrature against analytic integrals, score
conventions, sampling laws, and the sqrt-density H^1 membership probe."""

import numpy as np
import pytest
from scipy.special import erfc, expit, ndtr

from pdefisher import fisher_matrix, make_noise, sqrt_density_h1_check
from pdefisher.noise import NoiseModel, _quadrature_nodes


def validate_noise(noise, tol=1e-8):
    """Quadrature check of unit mass and zero mean on the finest Fisher level."""
    y, w = _quadrature_nodes(noise, 64)
    wq = w * noise.pdf(y).reshape(w.shape)
    mass = float(np.sum(wq))
    mean = float(np.abs(wq @ y).max())
    return {"mass": mass, "mean": mean, "ok": abs(mass - 1) < tol and mean < tol}


class TestFisherMatrix:
    def test_gaussian_quarter_variance(self):
        # analytic: 4 int (phi')^2 = 1/sigma^2 = 4
        fm = fisher_matrix(make_noise("gaussian", variance=0.25))
        assert fm.matrix[0, 0] == pytest.approx(4.0, rel=1e-8)

    def test_laplace_unit_scale(self):
        # 4 int (sqrt q)'^2 = int q / b^2 = 1
        fm = fisher_matrix(make_noise("laplace", scale=1.0))
        assert fm.matrix[0, 0] == pytest.approx(1.0, rel=1e-6)

    def test_cosine_bump(self):
        # 4 int_{-1}^{1} (pi/2)^2 sin^2(pi y/2) dy = pi^2
        fm = fisher_matrix(make_noise("cosine_bump"))
        assert fm.matrix[0, 0] == pytest.approx(np.pi**2, rel=1e-6)

    def test_logistic(self):
        # location Fisher information of the logistic is 1/(3 s^2)
        fm = fisher_matrix(make_noise("logistic", scale=0.7))
        assert fm.matrix[0, 0] == pytest.approx(1.0 / (3 * 0.49), rel=1e-8)

    def test_degenerate_matrix_is_a_numerical_failure(self):
        # at scale 1e200 the quadrature underflows to a zero matrix; the CLI
        # maps RuntimeError to exit 3
        with pytest.raises(RuntimeError):
            fisher_matrix(make_noise("logistic", scale=1e200))

    def test_bivariate_gaussian(self):
        cov = np.array([[0.5, 0.2], [0.2, 1.2]])
        fm = fisher_matrix(make_noise("gaussian2", cov=cov))
        np.testing.assert_allclose(fm.matrix, np.linalg.inv(cov), rtol=1e-6)

    def test_positive_definite_and_sqrt(self):
        for fam, kw in [
            ("gaussian", {"variance": 2.0}),
            ("laplace", {"scale": 0.5}),
            ("logistic", {"scale": 1.3}),
            ("cosine_bump", {}),
        ]:
            fm = fisher_matrix(make_noise(fam, **kw))
            assert fm.evals.min() > 0

    def test_mc_consistency(self):
        # second representation: 4 E[(g/sqrt q)(Y) (g/sqrt q)(Y)^T]
        rng = np.random.default_rng(11)
        for fam, kw in [("gaussian", {"variance": 0.8}), ("laplace", {"scale": 1.0})]:
            noise = make_noise(fam, **kw)
            fm = fisher_matrix(noise)
            y = noise.sample(rng, 200_000)
            s = noise.score(y)
            est = np.mean(s * s)
            sigma = np.std(s * s) / np.sqrt(y.size)
            # Laplace scores are +-1/b so sigma degenerates; keep an abs floor
            assert abs(est - fm.matrix[0, 0]) < 3 * sigma + 1e-8


_SIGMA01 = np.array([[0.6, 0.2], [0.2, 1.1]])  # criterion 01's covariance

# family, parameters, and the closed-form Fisher matrix written out here
_CLOSED_FORMS = [
    ("gaussian", {"variance": 0.25}, [[4.0]]),
    ("laplace", {"scale": 1.7}, [[1.0 / 1.7**2]]),
    ("logistic", {"scale": 0.7}, [[1.0 / (3 * 0.49)]]),
    ("cosine_bump", {}, [[np.pi**2]]),
    ("gaussian2", {"cov": np.eye(2)}, np.eye(2)),
    ("gaussian2", {"cov": _SIGMA01}, np.linalg.inv(_SIGMA01)),
]


class _Oscillating(NoiseModel):
    """sqrt(q)' = sin(1e4 y) on [-1, 1]^p: no panel level up to 64 resolves it."""

    family = "oscillating"

    def __init__(self, p):
        self.p = p
        self.support = [(-1.0, 1.0)] * p

    def sqrt_grad(self, y):
        return np.sin(1e4 * y)


class _ShiftedLaplace(NoiseModel):
    """Product of p unit-scale Laplace densities centred at 0.3, so sqrt(q)
    is kinked off every panel edge on every axis; its Fisher matrix is I_p."""

    family = "shifted_laplace"
    breakpoints = (0.3,)

    def __init__(self, p):
        self.p = p
        self.support = [(-32.0, 32.0)] * p

    def sqrt_grad(self, y):
        sq = np.sqrt(np.prod(0.5 * np.exp(-np.abs(y - 0.3)), axis=-1, keepdims=True))
        return -0.5 * np.sign(y - 0.3) * sq


def _count_points(noise):
    """Wrap the instance's sqrt_grad; the returned list holds the number of
    points it has been evaluated on."""
    seen = [0]
    inner = noise.sqrt_grad

    def sqrt_grad(y):
        seen[0] += len(y)
        return inner(y)

    noise.sqrt_grad = sqrt_grad
    return seen


class TestFisherQuadrature:
    @pytest.mark.parametrize("fam,kw,exact", _CLOSED_FORMS, ids=[f"{c[0]}-{i}" for i, c in enumerate(_CLOSED_FORMS)])
    def test_closed_form(self, fam, kw, exact):
        exact = np.asarray(exact)
        got = fisher_matrix(make_noise(fam, **kw)).matrix
        assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))

    @pytest.mark.parametrize("p", [1, 2])
    def test_breakpoints_on_every_axis(self, p):
        got = fisher_matrix(_ShiftedLaplace(p)).matrix
        assert np.max(np.abs(got - np.eye(p))) <= 1e-13

    def test_bivariate_point_count(self):
        # 4 and 8 panels of 24 nodes per axis: 96^2 + 192^2 = 46,080 points
        noise = make_noise("gaussian2", cov=_SIGMA01)
        seen = _count_points(noise)
        fisher_matrix(noise)
        assert seen[0] < 50_000

    @pytest.mark.parametrize("p", [1, 2])
    def test_no_convergence_by_64_panels(self, p):
        noise = _Oscillating(p)
        seen = _count_points(noise)
        with pytest.raises(RuntimeError, match="did not converge"):
            fisher_matrix(noise)
        # every level 4, 8, ..., 64 panels was evaluated, and none finer
        assert seen[0] == sum((24 * n) ** p for n in (4, 8, 16, 32, 64))

class TestScore:
    def test_gaussian(self):
        noise = make_noise("gaussian", variance=1.0)
        assert noise.score(np.array([1.5]))[0] == pytest.approx(1.5)

    def test_bump_outside_support(self):
        noise = make_noise("cosine_bump")
        assert noise.score(np.array([2.0]))[0] == 0.0

    def test_laplace_sign(self):
        # -2 (sqrt q)'/sqrt q = sign(y)/b: negative y gives -1/b
        noise = make_noise("laplace", scale=1.0)
        assert noise.score(np.array([-0.3]))[0] == pytest.approx(-1.0)
        assert noise.score(np.array([0.7]))[0] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "fam,kw,pts",
        [
            ("gaussian", {"variance": 0.6}, [-1.2, 0.3, 2.0]),
            ("logistic", {"scale": 0.8}, [-2.0, 0.5, 1.5]),
            ("laplace", {"scale": 1.0}, [-1.5, 0.8]),
            ("cosine_bump", {}, [-0.6, 0.2, 0.8]),
        ],
    )
    def test_matches_log_density_derivative(self, fam, kw, pts):
        # oracle: central finite differences of -log q at smooth interior points
        noise = make_noise(fam, **kw)
        h = 1e-6
        for y in pts:
            fd = -(noise.logpdf(np.array([y + h])) - noise.logpdf(np.array([y - h]))) / (2 * h)
            assert noise.score(np.array([y]))[0] == pytest.approx(float(fd[0]), rel=1e-4)


class TestSampling:
    def test_gaussian_moments(self):
        noise = make_noise("gaussian", variance=1.0)
        y = noise.sample(np.random.default_rng(0), 100_000)
        assert abs(np.var(y) - 1.0) < 3 * np.sqrt(2.0 / y.size)
        assert abs(np.mean(y)) < 3 / np.sqrt(y.size)

    def test_bump_support_and_symmetry(self):
        noise = make_noise("cosine_bump")
        y = noise.sample(np.random.default_rng(1), 100_000)
        assert np.all(np.abs(y) <= 1.0)
        std = np.sqrt(1.0 / 3.0 - 2.0 / np.pi**2)
        assert abs(np.mean(y)) < 3 * std / np.sqrt(y.size)

    def test_laplace_absolute_moment(self):
        # E|Y| = b
        noise = make_noise("laplace", scale=2.0)
        y = noise.sample(np.random.default_rng(2), 100_000)
        sigma = np.std(np.abs(y)) / np.sqrt(y.size)
        assert abs(np.mean(np.abs(y)) - 2.0) < 3 * sigma

    @pytest.mark.parametrize(
        "fam,image", [("gaussian", ndtr([-14.0, 14.0])), ("logistic", expit([-30.0, 30.0]))], ids=["gaussian", "logistic"]
    )
    def test_u_range_equals_scipy_image(self, fam, image):
        # written as literals so that importing noise loads no scipy; scipy
        # stays the oracle for their bits
        u_range = make_noise(fam).u_range
        assert len(u_range) == 2
        for got, want in zip(u_range, image):
            assert got == want

    def test_deterministic_given_seed(self):
        noise = make_noise("logistic", scale=1.0)
        a = noise.sample(np.random.default_rng(42), 100)
        b = noise.sample(np.random.default_rng(42), 100)
        np.testing.assert_array_equal(a, b)

    def test_bivariate_covariance(self):
        cov = np.array([[1.0, 0.4], [0.4, 0.7]])
        noise = make_noise("gaussian2", cov=cov)
        y = noise.sample(np.random.default_rng(3), 200_000)
        np.testing.assert_allclose(np.cov(y.T), cov, atol=0.02)


def _u_grid(ulo, uhi):
    """Both truncation ends, an even grid between them, and points crowding
    each end geometrically."""
    near = np.logspace(-15, -1, 57) * (uhi - ulo)
    return np.concatenate(([ulo, uhi], np.linspace(ulo, uhi, 4001), ulo + near, uhi - near))


# family, parameters, closed-form CDF written out here, and the half-width of
# the range the sampler inverts over (the support for the cosine bump)
_INVERSION_CASES = [
    ("gaussian", {"variance": 0.6}, lambda y: 0.5 * erfc(-y / np.sqrt(1.2)), 14 * np.sqrt(0.6)),
    (
        "laplace",
        {"scale": 1.7},
        lambda y: np.where(y < 0, 0.5 * np.exp(y / 1.7), 1 - 0.5 * np.exp(-y / 1.7)),
        20 * 1.7,
    ),
    ("logistic", {"scale": 0.4}, lambda y: 1 / (1 + np.exp(-y / 0.4)), 30 * 0.4),
    ("cosine_bump", {}, lambda y: 0.5 * (y + 1) + np.sin(np.pi * y) / (2 * np.pi), 1.0),
]


@pytest.mark.parametrize("fam,kw,cdf,r", _INVERSION_CASES, ids=[c[0] for c in _INVERSION_CASES])
class TestExactQuantiles:
    def test_cdf_inverts_quantile(self, fam, kw, cdf, r):
        u = _u_grid(cdf(-r), cdf(r))
        err = np.abs(cdf(make_noise(fam, **kw).quantile(u)) - u)
        assert err.max() <= 1e-13

    def test_draws_finite_and_in_support(self, fam, kw, cdf, r):
        y = make_noise(fam, **kw).sample(np.random.default_rng(5), 200_000)
        assert np.all(np.isfinite(y))
        assert np.all(np.abs(y) <= r)

    def test_one_uniform_per_draw(self, fam, kw, cdf, r):
        # each draw inverts one uniform from the CDF image of the range
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        y = make_noise(fam, **kw).sample(rng, 1000)
        u = ref.uniform(cdf(-r), cdf(r), 1000)
        assert np.abs(cdf(y) - u).max() <= 1e-13
        assert rng.random() == ref.random()


class TestH1Check:
    def test_gaussian_clean(self):
        rep = sqrt_density_h1_check(make_noise("gaussian", variance=1.0))
        assert not rep["rejected"]
        assert rep["zero_set_consistency"] == 0.0
        assert np.isfinite(rep["h1_energy"])

    def test_bump_energy(self):
        # int (pi/2)^2 sin^2(pi y / 2) dy over [-1,1] = pi^2 / 4
        rep = sqrt_density_h1_check(make_noise("cosine_bump"))
        assert not rep["rejected"]
        assert rep["h1_energy"] == pytest.approx(np.pi**2 / 4, rel=1e-6)
        assert rep["zero_set_consistency"] == 0.0
        # difference-quotient probe converges to the same energy
        assert rep["probe_energies"][-1] == pytest.approx(np.pi**2 / 4, rel=5e-3)
        # the bump's half range is 1, so its probe steps are 2^-4 ... 2^-10
        assert rep["probe_eps"] == [2.0**-i for i in range(4, 11)]

    def test_uniform_rejected(self):
        rep = sqrt_density_h1_check(make_noise("uniform"))
        assert rep["rejected"]
        assert rep["h1_energy"] == float("inf")


class TestValidation:
    @pytest.mark.parametrize(
        "fam,kw",
        [
            ("gaussian", {"variance": 0.3}),
            ("laplace", {"scale": 1.7}),
            ("logistic", {"scale": 0.4}),
            ("cosine_bump", {}),
            ("gaussian2", {"cov": [[1.0, 0.3], [0.3, 0.8]]}),
        ],
    )
    def test_unit_mass_zero_mean(self, fam, kw):
        rep = validate_noise(make_noise(fam, **kw))
        assert rep["ok"], rep

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            make_noise("cauchy")
