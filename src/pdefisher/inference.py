"""Monte-Carlo verification layer: data simulation under the regression
model, log-likelihood ratios of sqrt(N)-local alternatives, the LAN
expansion check, and the efficient-influence-function estimator against the
semiparametric variance bound psi^T M^{-1} psi.

Replicate seeds are spawned from a single SeedSequence; reductions are by
replicate index, so results are reproducible for any worker count.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .information import lan_norm, octave_divergence_flag, s_norm_truncated
from .spectral import FourierCoeffs, pairing

# scipy.special is imported inside the KS test's two functions: the import
# costs about 0.3 s, and only the LAN task calls them.


class Dataset:
    """N records (t_i, x_i, Y_i) drawn from design x noise around one field."""

    def __init__(self, t, x, y):
        self.t = t
        self.x = x
        self.y = y
        self.n = t.shape[0]


def simulate_dataset(field, design, noise, n, rng):
    """Y_i = field(t_i, x_i) + eps_i, with field = G(theta) a solved flow."""
    if n < 1:
        raise ValueError("need n >= 1")
    t, x = design.sample(rng, n, field.es.d)
    eps = noise.sample(rng, n)
    y = field.evaluate(t, x) + eps
    return Dataset(t, x, y)


def _replicate_map(fn, replicates, workers, seed):
    """fn(rng) per replicate, rngs spawned from seed; index-ordered, so independent of workers."""
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(replicates)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            return np.array(list(ex.map(fn, rngs)))
    return np.array([fn(rng) for rng in rngs])


def _loglik(noise, data, field):
    resid = data.y - field.evaluate(data.t, data.x)
    return noise.logpdf(resid)


def log_likelihood_ratio(data, field0, field1, noise):
    """sum_i [log q(Y - G1(X)) - log q(Y - G0(X))]; -inf when the numerator
    density vanishes at some datum (support escape under compact noise).
    """
    l1 = _loglik(noise, data, field1)
    l0 = _loglik(noise, data, field0)
    if np.any(np.isneginf(l0) & np.isneginf(l1)):
        raise RuntimeError(
            "both densities vanish at a datum; the dataset is incompatible "
            "with the model pair"
        )
    # summed per datum: the ratio is O(1) while each log-density sum is O(n)
    return float(np.sum(l1 - l0))


def _ks_normal(sample, mean, sd):
    """Two-sided one-sample Kolmogorov-Smirnov test of ``sample`` against
    N(mean, sd^2): (D, p), D computed as SciPy's ``kstest`` computes it and p
    its default exact p-value P(D_n >= D)."""
    from scipy import special

    x = np.sort(sample)
    n = x.shape[0]
    cdf = special.ndtr((x - mean) / sd)
    d = float(max((np.arange(1.0, n + 1) / n - cdf).max(), (cdf - np.arange(0.0, n) / n).max()))
    return d, _kolmogorov_sf(n, d)


def _kolmogorov_sf(n, d):
    """P(D_n >= d) for the two-sided statistic of n draws from a continuous law.

    Exact below n d^2 = 2.2 by the Durbin matrix (Marsaglia, Tsang & Wang
    2003, J. Stat. Softw. 8(18)): with n d = k - h (k integer, 0 <= h < 1),
    P(D_n < d) is n!/n^n times entry (k, k) of H^n, H the (2k-1)^2 matrix
    below.  H^n is formed by repeated squaring.  Each square is rescaled by a
    power of two to entries below 1, so no product overflows and no rounding
    changes; the scales are added back in logs.
    """
    from scipy import special

    if n * d <= 0.5:
        return 1.0
    if d >= 1.0:
        return 0.0
    if d >= 0.5 or n * d * d >= 2.2:
        # the one-sided tails are disjoint for d >= 1/2 and overlap below
        # about 1e-6 relative for n d^2 >= 2.2, where scipy takes this branch too
        return min(1.0, 2.0 * float(special.smirnov(n, d)))
    k = int(np.ceil(n * d))
    h = k - n * d
    m = 2 * k - 1
    i = np.arange(m)
    H = special.rgamma(i[:, None] - i[None, :] + 2.0)  # 1/(i-j+1)!, 0 above the superdiagonal
    v = (1.0 - h ** (i + 1.0)) * special.rgamma(i + 2.0)
    v[-1] = (1.0 - 2.0 * h**m + max(2.0 * h - 1.0, 0.0) ** m) * special.rgamma(m + 1.0)
    H[:, 0] = v
    H[-1, :] = v[::-1]
    log_cdf = np.log(np.arange(1, n + 1) / n).sum()  # log(n!/n^n)
    power, expo, square, square_expo = np.eye(m), 0, H, 0
    while True:
        if n & 1:
            power, expo = power @ square, expo + square_expo
        n >>= 1
        if not n:
            break
        square = square @ square
        scale = np.frexp(np.abs(square).max())[1]
        square, square_expo = np.ldexp(square, -scale), 2 * square_expo + scale
    log_cdf += np.log(power[k - 1, k - 1]) + expo * np.log(2.0)
    return min(1.0, max(0.0, 1.0 - float(np.exp(log_cdf))))


def lan_montecarlo(
    model,
    h,
    noise,
    design,
    n,
    replicates,
    rng_seed,
    M,
    under="null",
    workers=1,
):
    """Empirical law of the local log-likelihood ratio at M's theta0 versus
    its Gaussian shift limit N(-+ 0.5 ||h||^2, ||h||^2).

    Under the null the target mean is -0.5 ||h||^2; under the alternative
    (data drawn at theta0 + h/sqrt(N)) it is +0.5 ||h||^2 by contiguity.
    """
    if under not in ("null", "alternative"):
        raise ValueError("under must be 'null' or 'alternative'")
    theta0, field0 = M.base_point()
    theta1 = theta0 + (1.0 / np.sqrt(n)) * h
    field1 = model.solve(theta1)
    hnorm2 = lan_norm(h, M) ** 2

    gen_field = field0 if under == "null" else field1

    def one(rng):
        data = simulate_dataset(gen_field, design, noise, n, rng)
        return log_likelihood_ratio(data, field0, field1, noise)

    values = _replicate_map(one, replicates, workers, rng_seed)

    escapes = int(np.sum(np.isneginf(values)))
    finite = values[np.isfinite(values)]
    target_mean = -0.5 * hnorm2 if under == "null" else 0.5 * hnorm2
    if finite.size >= 2:
        emp_mean = float(finite.mean())
        emp_var = float(finite.var(ddof=1))
        stderr = float(finite.std(ddof=1) / np.sqrt(finite.size))
        ks_stat, ks_p = _ks_normal(finite, target_mean, np.sqrt(hnorm2))
    else:
        emp_mean = emp_var = stderr = float("nan")
        ks_stat, ks_p = float("nan"), float("nan")
    return {
        "under": under,
        "n": n,
        "replicates": replicates,
        "seed": rng_seed,
        "lan_norm_sq": hnorm2,
        "target_mean": target_mean,
        "target_var": hnorm2,
        "mean": emp_mean,
        "mean_stderr": stderr,
        "var": emp_var,
        "ks_distance": ks_stat,
        "ks_pvalue": ks_p,
        "support_escapes": escapes,
        "escape_fraction": escapes / replicates,
    }


# ---------------------------------------------------------------------------
# efficient influence function
# ---------------------------------------------------------------------------


def influence_values(data, field0, influence_field, noise):
    """score(Y - G0(X)) . I[psi_bar](X) at the data points."""
    resid = data.y - field0.evaluate(data.t, data.x)
    scr = noise.score(resid)
    infl = influence_field.evaluate(data.t, data.x)
    if noise.p == 1:
        return scr * infl
    return np.einsum("na,na->n", scr, infl)


def build_influence_field(psi, M, model):
    theta0, _ = M.base_point()
    psi_bar = M.solve(M.coeff_vector(psi))
    vec = np.zeros(model.es.size)
    vec[: M.n_basis] = psi_bar
    return model.linearize(theta0, FourierCoeffs(model.es, vec))


def efficiency_report(
    model,
    psi,
    noise,
    design,
    M,
    n,
    replicates,
    rng_seed,
    k_grid=None,
    workers=1,
):
    """Truncated lower-bound trace for <psi, theta0> against the Monte-Carlo
    variance of the influence estimator at M's theta0 (heat-type models
    attain the bound).
    """
    trace = s_norm_truncated(psi, M, k_grid=k_grid)
    divergent, increments = octave_divergence_flag(trace["k_grid"], trace["values"])
    bound = trace["values"][-1]

    theta0, field0 = M.base_point()
    influence_field = build_influence_field(psi, M, model)
    truth = pairing(psi, theta0)

    def one(rng):
        data = simulate_dataset(field0, design, noise, n, rng)
        chi = influence_values(data, field0, influence_field, noise)
        return truth + chi.mean()

    estimates = _replicate_map(one, replicates, workers, rng_seed)
    mc_var = float(n * estimates.var(ddof=1))
    var_stderr = mc_var * np.sqrt(2.0 / (replicates - 1))
    return {
        "bound_trace": trace,
        "bound": bound,
        "divergent": bool(divergent),
        "octave_increments": increments,
        "n": n,
        "replicates": replicates,
        "seed": rng_seed,
        "truth": truth,
        "estimate_mean": float(estimates.mean()),
        "mc_variance": mc_var,
        "mc_variance_stderr": float(var_stderr),
        "variance_over_bound": mc_var / bound if bound > 0 else float("inf"),
    }
