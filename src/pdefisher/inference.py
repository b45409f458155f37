"""Monte-Carlo verification layer: data simulation under the regression
model, log-likelihood ratios of sqrt(N)-local alternatives, the LAN
expansion check, and the efficient-influence-function estimator against the
semiparametric variance bound psi^T M^{-1} psi.

Replicate seeds are spawned from a single SeedSequence; reductions are by
replicate index, so results are reproducible for any worker count.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .information import lan_norm, octave_divergence_flag, s_norm_truncated
from .spectral import FourierCoeffs, pairing

# The KS test's three special functions (ndtr, smirnov, 1/Gamma at integers)
# are ported below, so this layer imports no scipy: importing scipy.special
# costs about 0.25 s and 17 MiB.


class Dataset:
    """N records (t_i, x_i, Y_i) drawn from design x noise around one field."""

    def __init__(self, t, x, y):
        self.t = t
        self.x = x
        self.y = y
        self.n = t.shape[0]


def simulate_dataset(field, design, noise, n, rng):
    """Y_i = field(t_i, x_i) + eps_i, with field = G(theta) a solved flow on
    the design's horizon."""
    if n < 1:
        raise ValueError("need n >= 1")
    if abs(design.T - field.mesh.T) > 1e-12:
        raise ValueError(f"design horizon {design.T} is not the field's T = {field.mesh.T}")
    t, x = design.sample(rng, n, field.es.d)
    eps = noise.sample(rng, n)
    y = field.evaluate(t, x) + eps
    return Dataset(t, x, y)


def _replicate_map(fn, replicates, workers, seed):
    """fn(rng) per replicate, rngs spawned from seed; index-ordered, so independent of workers."""
    def run(child):  # each generator is made by the call that runs its replicate
        return fn(np.random.default_rng(child))

    children = np.random.SeedSequence(seed).spawn(replicates)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            return np.array(list(ex.map(run, children)))
    return np.array([run(child) for child in children])


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


# Cephes ndtr (Moshier 1989): the rational approximations of erf on [0, 1] (T/U)
# and of erfc on [1, 8) (P/Q) and [8, inf) (R/S), evaluated in Cephes'
# polevl/p1evl order with the C library's exp, so that D equals
# scipy.stats.kstest's bit for bit.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_SQRT1_2 = math.sqrt(0.5)


def _polevl(x, coef, monic=False):
    """Horner's rule, highest degree first; ``monic``: a leading 1 not stored."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x):
    """erf on [-1, 1]."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U, monic=True)


def _erfc(x):
    """erfc for x >= 0 (nan passes through); 0 past exp(-x^2) = DBL_MAX^-1, as in Cephes."""
    if x < 1.0:
        return 1.0 - _erf(x)
    if x * x > _MAXLOG:
        return 0.0
    p, q = (_ERFC_P, _ERFC_Q) if x < 8.0 else (_ERFC_R, _ERFC_S)
    return math.exp(-x * x) * _polevl(x, p) / _polevl(x, q, monic=True)


def _ndtr(a):
    """Standard normal CDF of one float, as Cephes (and scipy.special) computes it."""
    x = a * _SQRT1_2
    if abs(x) < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(abs(x))
    return 1.0 - y if x > 0 else y


def _smirnov(n, d):
    """P(D_n^+ >= d), 0 < d < 1, by the Birnbaum-Tingey sum (Ann. Math. Statist.
    22:592, 1951): d sum_j C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1) over
    0 <= j <= n (1 - d).  The terms are positive; they are formed in logs and
    added relative to the largest, so none overflows."""
    j = np.arange(math.floor(n * (1.0 - d)) + 1)
    base = 1.0 - d - j / n
    j, base = j[base > 0], base[base > 0]
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    logs = log_fact[n] - log_fact[j] - log_fact[n - j] + (n - j) * np.log(base) + (j - 1) * np.log(d + j / n)
    top = logs.max()
    return d * math.exp(top) * float(np.exp(logs - top).sum())


def _inverse_factorials(m):
    """1/k! for k = 0..m, each correctly rounded (int/int true division
    rounds once), down to 0 past the subnormals."""
    return np.array([1 / math.factorial(k) for k in range(m + 1)])


def _ks_normal(sample, mean, sd):
    """Two-sided one-sample Kolmogorov-Smirnov test of ``sample`` against
    N(mean, sd^2): (D, p), D computed as SciPy's ``kstest`` computes it and p
    its default exact p-value P(D_n >= D)."""
    x = np.sort(sample)
    n = x.shape[0]
    cdf = np.array([_ndtr(z) for z in ((x - mean) / sd).tolist()])
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
    if n * d <= 0.5:
        return 1.0
    if d >= 1.0:
        return 0.0
    if d >= 0.5 or n * d * d >= 2.2:
        # the one-sided tails are disjoint for d >= 1/2 and overlap below
        # about 1e-6 relative for n d^2 >= 2.2, as in scipy.stats.kstwo
        return min(1.0, 2.0 * _smirnov(n, d))
    k = int(np.ceil(n * d))
    h = k - n * d
    m = 2 * k - 1
    i = np.arange(m)
    inv_fact = _inverse_factorials(m)
    diff = i[:, None] - i[None, :] + 1
    H = np.where(diff >= 0, inv_fact[diff], 0.0)  # 1/(i-j+1)!, 0 above the superdiagonal
    v = (1.0 - h ** (i + 1.0)) * inv_fact[i + 1]
    v[-1] = (1.0 - 2.0 * h**m + max(2.0 * h - 1.0, 0.0) ** m) * inv_fact[m]
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


def lan_montecarlo(h, M, n, replicates, rng_seed, under="null", workers=1):
    """Empirical law of the local log-likelihood ratio at M's theta0 versus
    its Gaussian shift limit N(-+ 0.5 ||h||^2, ||h||^2), with data drawn
    from M's design and noise.

    Under the null the target mean is -0.5 ||h||^2; under the alternative
    (data drawn at theta0 + h/sqrt(N)) it is +0.5 ||h||^2 by contiguity.
    """
    if under not in ("null", "alternative"):
        raise ValueError("under must be 'null' or 'alternative'")
    model, theta0, noise, design, field0 = M.experiment()
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


def build_influence_field(psi, M):
    """The linearized flow at M's theta0 of psi_bar = M^{-1} psi."""
    model, theta0, _, _, _ = M.experiment()
    psi_bar = M.solve(M.coeff_vector(psi))
    vec = np.zeros(model.es.size)
    vec[: M.n_basis] = psi_bar
    return model.linearize(theta0, FourierCoeffs(model.es, vec))


def efficiency_report(psi, M, n, replicates, rng_seed, k_grid=None, workers=1):
    """Truncated lower-bound trace for <psi, theta0> against the Monte-Carlo
    variance of the influence estimator at M's theta0, with data drawn from
    M's design and noise (heat-type models attain the bound).
    """
    trace = s_norm_truncated(psi, M, k_grid=k_grid)
    divergent, increments = octave_divergence_flag(trace["k_grid"], trace["values"])
    bound = trace["values"][-1]

    _, theta0, noise, design, field0 = M.experiment()
    influence_field = build_influence_field(psi, M)
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
