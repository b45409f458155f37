"""Error densities q with sqrt(q) in H^1(R^p): evaluation, scores, sampling,
and the Fisher information matrix by quadrature.

The score convention is the total function -2 (grad sqrt q / sqrt q)(y),
set to zero wherever q(y) = 0 (densities whose sqrt belongs to H^1 admit a
gradient version vanishing on the zero set, so this is consistent).
"""

import functools

import numpy as np
from numpy.polynomial.legendre import leggauss

# scipy.special is imported inside the two quantiles that need it: the import
# costs about 0.3 s, and most tasks never draw Gaussian or logistic noise.

_QUAD_NODES = 24
_FISHER_RTOL, _FISHER_DOUBLINGS = 1e-10, 4  # the Fisher quadrature's convergence rule


class FisherMatrix:
    """Symmetric positive-definite p x p noise information matrix."""

    def __init__(self, matrix):
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        matrix = 0.5 * (matrix + matrix.T)
        evals = np.linalg.eigh(matrix)[0]
        if evals.min() <= 0:
            raise RuntimeError(
                f"noise information matrix is not positive definite (min eig {evals.min():.3e})"
            )
        self.matrix = matrix
        self.evals = evals

    @property
    def p(self):
        return self.matrix.shape[0]


class NoiseModel:
    """Base class; concrete families implement pdf/logpdf/sqrt_grad and either
    sample or an exact quantile with its u_range.

    support: per-axis (lo, hi) bounds of a compactly supported density, None
    on all of R^p (those families state their quadrature box in quad_domain)
    u_range: CDF image of the finite range that sample inverts over, so that
    no draw is infinite
    breakpoints: interior kink locations of sqrt(q), the same on every axis
    (quadrature panels never straddle them)
    """

    family = "base"
    p = 1
    support = None
    breakpoints = ()

    def pdf(self, y):
        raise NotImplementedError

    def logpdf(self, y):
        q = self.pdf(y)
        with np.errstate(divide="ignore"):
            return np.log(q)

    def sqrt_grad(self, y):
        raise NotImplementedError

    def sample(self, rng, n):
        """n i.i.d. draws by exact inversion, one uniform from u_range each."""
        return self.quantile(rng.uniform(*self.u_range, size=n))

    def params(self):
        return {}

    def quad_domain(self):
        """Per-axis (lo, hi) box of every quadrature: the support, which
        families on all of R^p replace by a box whose cut mass is below 1e-13."""
        return self.support

    def score(self, y):
        """-2 grad sqrt(q) / sqrt(q), zero on {q = 0}."""
        y = np.asarray(y, dtype=float)
        q = self.pdf(y)
        g = self.sqrt_grad(y)
        sq = np.sqrt(np.where(q > 0, q, 1.0))
        if self.p == 1:
            return np.where(q > 0, -2.0 * g / sq, 0.0)
        return np.where(q[..., None] > 0, -2.0 * g / sq[..., None], 0.0)


def _quadrature_nodes(noise, n_panels):
    """Panel Gauss-Legendre rule on noise.quad_domain(): nodes (n, p) and
    weights (n,), the tensor product of n_panels panels of _QUAD_NODES nodes
    per axis, each axis split at the breakpoints first."""
    xg, wg = leggauss(_QUAD_NODES)
    nodes, weights = [], []
    for lo, hi in noise.quad_domain():
        cuts = [lo] + [b for b in noise.breakpoints if lo < b < hi] + [hi]
        edges = [lo]
        for a, b in zip(cuts[:-1], cuts[1:]):
            m = max(1, round(n_panels * (b - a) / (hi - lo)))
            edges.extend(np.linspace(a, b, m + 1)[1:])
        edges = np.array(edges)
        half = 0.5 * np.diff(edges)[:, None]
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        nodes.append((mid + half * xg).ravel())
        weights.append((half * wg).ravel())
    y = np.stack(np.meshgrid(*nodes, indexing="ij"), axis=-1).reshape(-1, noise.p)
    w = functools.reduce(np.multiply.outer, weights).ravel()
    return y, w


def _information_once(noise, n_panels):
    y, w = _quadrature_nodes(noise, n_panels)
    g = noise.sqrt_grad(y)  # (n, p): the p = 1 families act elementwise
    return 4.0 * (w[:, None] * g).T @ g


def _information(noise):
    """4 int (grad sqrt q)(grad sqrt q)^T dy as a p x p array, converged once
    per noise model and cached on the instance: panels doubled from 4 per
    axis until the relative change is below _FISHER_RTOL.  Not yet checked for
    definiteness, so that the H^1 probe also reaches degenerate densities."""
    if "_info" in vars(noise):
        return noise._info
    n_panels = 4
    prev = _information_once(noise, n_panels)
    for _ in range(_FISHER_DOUBLINGS):
        n_panels *= 2
        cur = _information_once(noise, n_panels)
        err = np.max(np.abs(cur - prev)) / max(np.max(np.abs(cur)), 1e-300)
        prev = cur
        if err < _FISHER_RTOL:
            noise._info = cur
            return cur
    raise RuntimeError(f"Fisher quadrature did not converge (last rel change {err:.2e})")


def fisher_matrix(noise):
    """4 int (grad sqrt q)(grad sqrt q)^T dy as a FisherMatrix; the quadrature
    runs once per noise model."""
    return FisherMatrix(_information(noise))


def sqrt_density_h1_check(noise):
    """Check sqrt(q) in H^1 and the zero-set gradient convention.

    h1_energy is int |grad sqrt q|^2 from the supplied gradient, a quarter of
    the Fisher integral.  A difference-quotient probe
    E(eps) = int ((sqrt q(y+eps) - sqrt q(y))/eps)^2 must stabilize near
    h1_energy; boundary jumps (uniform density) make it grow like 1/eps and
    the model is rejected.  eps and the padding are measured in h, half the
    quadrature range, so the probe has the same resolution at every scale.
    """
    if noise.p != 1:
        raise ValueError("H1 probe implemented for p = 1 densities")
    dom = noise.quad_domain()[0]
    h = 0.5 * (dom[1] - dom[0])
    y = np.linspace(dom[0] - h, dom[1] + h, 2**17)
    dy = y[1] - y[0]
    sq = np.sqrt(noise.pdf(y))
    eps_grid = [h * 2.0 ** (-i) for i in range(4, 11)]
    energies = []
    for eps in eps_grid:
        shift = int(round(eps / dy))  # at least 32 steps: dy = 4h / (2^17 - 1)
        eps_eff = shift * dy
        diff = (sq[shift:] - sq[:-shift]) / eps_eff
        energies.append(float(np.sum(diff**2) * dy))
    tail_growth = energies[-1] / max(energies[-3], 1e-300)

    h1_energy = float(_information(noise)[0, 0] / 4.0)

    g = noise.sqrt_grad(y)
    q = noise.pdf(y)
    zero_set = q == 0.0
    zero_consistency = float(np.max(np.abs(g[zero_set]))) if zero_set.any() else 0.0

    # jump mass makes E(eps) double per halving of eps
    rejected = bool(tail_growth > 1.6)
    if rejected:
        h1_energy = float("inf")
    return {
        "h1_energy": h1_energy,
        "zero_set_consistency": zero_consistency,
        "probe_energies": energies,
        "probe_eps": eps_grid,
        "rejected": rejected,
    }


# ---------------------------------------------------------------------------
# shipped families
# ---------------------------------------------------------------------------


def raised_cosine_quantile(u, a):
    """Root s in [0, 1] of s + a sin(2 pi s) / (2 pi) = u, the quantile of the
    density 1 + a cos(2 pi s) on [0, 1] for |a| <= 1.

    Safeguarded Newton: a step that leaves the current bracket, or meets a
    vanishing derivative (a = -1 at the endpoints), bisects instead.
    """
    s = u = np.asarray(u, dtype=float)
    lo, hi = np.zeros_like(u), np.ones_like(u)
    for _ in range(64):
        f = s + a * np.sin(2 * np.pi * s) / (2 * np.pi) - u
        if np.max(np.abs(f), initial=0.0) <= 8 * np.finfo(float).eps:
            break  # residual at the rounding level of its terms (all <= 1)
        lo = np.where(f < 0, s, lo)
        hi = np.where(f > 0, s, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = s - f / (1.0 + a * np.cos(2 * np.pi * s))
        inside = (newton >= lo) & (newton <= hi)
        s = np.where(f == 0, s, np.where(inside, newton, 0.5 * (lo + hi)))
    return np.clip(s, 0.0, 1.0)


class GaussianNoise(NoiseModel):
    family = "gaussian"
    u_range = (float.fromhex("0x1.63f222737e58fp-147"), 1.0)  # ndtr(-+14): +-14 sigma

    def __init__(self, variance=1.0):
        if variance <= 0:
            raise ValueError("variance must be positive")
        self.variance = float(variance)
        self.sigma = float(np.sqrt(variance))

    def params(self):
        return {"variance": self.variance}

    def quad_domain(self):
        return [(-12.0 * self.sigma, 12.0 * self.sigma)]

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        return np.exp(-0.5 * y**2 / self.variance) / np.sqrt(2 * np.pi * self.variance)

    def logpdf(self, y):
        y = np.asarray(y, dtype=float)
        return -0.5 * y**2 / self.variance - 0.5 * np.log(2 * np.pi * self.variance)

    def sqrt_grad(self, y):
        y = np.asarray(y, dtype=float)
        return -0.5 * (y / self.variance) * np.sqrt(self.pdf(y))

    def quantile(self, u):
        from scipy.special import ndtri

        return self.sigma * ndtri(u)


class BivariateGaussianNoise(NoiseModel):
    family = "gaussian2"
    p = 2

    def __init__(self, cov):
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        if cov.shape != (2, 2):
            raise ValueError("covariance must be 2x2")
        self.cov = 0.5 * (cov + cov.T)
        self.prec = np.linalg.inv(self.cov)
        self.chol = np.linalg.cholesky(self.cov)
        self._norm = 1.0 / (2 * np.pi * np.sqrt(np.linalg.det(self.cov)))

    def params(self):
        return {"cov": self.cov.tolist()}

    def quad_domain(self):
        r = 12.0 * np.sqrt(np.diag(self.cov))
        return [(-r[0], r[0]), (-r[1], r[1])]

    def pdf(self, y):
        y = np.atleast_2d(np.asarray(y, dtype=float))
        quad = np.einsum("...a,ab,...b->...", y, self.prec, y)
        return self._norm * np.exp(-0.5 * quad)

    def logpdf(self, y):
        y = np.atleast_2d(np.asarray(y, dtype=float))
        quad = np.einsum("...a,ab,...b->...", y, self.prec, y)
        return np.log(self._norm) - 0.5 * quad

    def sqrt_grad(self, y):
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return -0.5 * (y @ self.prec) * np.sqrt(self.pdf(y))[..., None]

    def sample(self, rng, n):
        z = rng.standard_normal((n, 2))
        return z @ self.chol.T


class LaplaceNoise(NoiseModel):
    family = "laplace"
    breakpoints = (0.0,)
    u_range = (0.5 * np.exp(-20.0), 1.0 - 0.5 * np.exp(-20.0))  # +-20 scales

    def __init__(self, scale=1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = float(scale)

    def params(self):
        return {"scale": self.scale}

    def quad_domain(self):
        return [(-32.0 * self.scale, 32.0 * self.scale)]  # e^-32 tail

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        return np.exp(-np.abs(y) / self.scale) / (2 * self.scale)

    def logpdf(self, y):
        y = np.asarray(y, dtype=float)
        return -np.abs(y) / self.scale - np.log(2 * self.scale)

    def sqrt_grad(self, y):
        y = np.asarray(y, dtype=float)
        return -np.sign(y) / (2 * self.scale) * np.sqrt(self.pdf(y))

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        y = self.scale * np.log(2.0 * np.minimum(u, 1.0 - u))
        return np.where(u < 0.5, y, -y)


class LogisticNoise(NoiseModel):
    family = "logistic"
    u_range = (float.fromhex("0x1.a56e0c2ac7cbfp-44"), float.fromhex("0x1.ffffffffffcb6p-1"))  # expit(-+30)

    def __init__(self, scale=1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = float(scale)

    def params(self):
        return {"scale": self.scale}

    def quad_domain(self):
        return [(-34.0 * self.scale, 34.0 * self.scale)]

    def pdf(self, y):
        z = np.asarray(y, dtype=float) / self.scale
        sech2 = 1.0 / np.cosh(0.5 * z) ** 2
        return sech2 / (4 * self.scale)

    def logpdf(self, y):
        z = np.asarray(y, dtype=float) / self.scale
        return -2.0 * np.log(2 * np.cosh(0.5 * z)) - np.log(self.scale)

    def sqrt_grad(self, y):
        y = np.asarray(y, dtype=float)
        scr = np.tanh(0.5 * y / self.scale) / self.scale
        return -0.5 * scr * np.sqrt(self.pdf(y))

    def quantile(self, u):
        from scipy.special import logit

        return self.scale * logit(u)


class CosineBumpNoise(NoiseModel):
    """q(y) = cos^2(pi y / 2) on [-1, 1]: compactly supported, sqrt kinked at the edges."""

    family = "cosine_bump"
    support = [(-1.0, 1.0)]
    breakpoints = ()
    u_range = (0.0, 1.0)

    def params(self):
        return {}

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        inside = np.abs(y) <= 1.0
        return np.where(inside, np.cos(0.5 * np.pi * y) ** 2, 0.0)

    def sqrt_grad(self, y):
        y = np.asarray(y, dtype=float)
        inside = np.abs(y) < 1.0
        return np.where(inside, -0.5 * np.pi * np.sin(0.5 * np.pi * y), 0.0)

    def quantile(self, u):
        # the CDF (y+1)/2 + sin(pi y)/(2 pi) is s - sin(2 pi s)/(2 pi) at y = 2s - 1
        return 2.0 * raised_cosine_quantile(u, -1.0) - 1.0


class UniformNoise(NoiseModel):
    """Uniform on [0, 1]: sqrt(q) jumps at the support boundary, so the
    location model is not quadratic-mean differentiable.  Shipped only as
    the rejection fixture for the H^1 probe."""

    family = "uniform"
    support = [(0.0, 1.0)]

    def params(self):
        return {}

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        return np.where((y >= 0.0) & (y <= 1.0), 1.0, 0.0)

    def sqrt_grad(self, y):
        # a.e. pointwise derivative; misses the boundary jump mass on purpose
        return np.zeros_like(np.asarray(y, dtype=float))

    def sample(self, rng, n):
        return rng.uniform(0.0, 1.0, size=n)


_FAMILIES = {
    "gaussian": GaussianNoise,
    "gaussian2": BivariateGaussianNoise,
    "laplace": LaplaceNoise,
    "logistic": LogisticNoise,
    "cosine_bump": CosineBumpNoise,
    "uniform": UniformNoise,
}


def make_noise(family, **params):
    try:
        cls = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown noise family {family!r}") from None
    return cls(**params)
