"""Sampling the efficient limiting Gaussian N(0, M^{-1}) in the eigenbasis,
support diagnostics across the negative-order scale, and Monte-Carlo
pushforward bounds through the shipped smooth functionals.

Truncation bias is always reported: moments carry their truncation level and
the K-trace, never a single bare number.
"""

import numpy as np

from .spectral import DIV_FREE, spectrum_from_coeffs, values_from_coeffs


class GaussianSampleBatch:
    """m draws from N(0, M^{-1}) in the retained eigenbasis."""

    def __init__(self, samples, n_basis):
        self.samples = samples
        self.m = samples.shape[0]
        self.n_basis = n_basis


def sample_efficient_gaussian(M, m, rng, k=None):
    """Draw L_k^{-T} z with L_k = L[:k, :k] the Cholesky factor of the leading
    k x k block of M (all of M by default), so the covariance is M_k^{-1};
    L_k^{-1} is the leading block of L^{-1}, and each sample row is z^T L_k^{-1}."""
    k = M.n_basis if k is None else int(k)
    if not 1 <= k <= M.n_basis:
        raise ValueError(f"sample truncation {k} outside 1..{M.n_basis}")
    z = rng.standard_normal((m, k))
    return GaussianSampleBatch(z @ M.cholesky_lower_inv()[:k, :k], k)


def support_diagnostic(
    M, es, beta_list, k_grid, kappa, alpha, m_mc=0, rng=None, mc_k=None
):
    """Exact second moments E||G_K||^2 of the truncated Gaussian in the
    D^{-beta} scale, with plateau/growth flags against the beta > kappa+alpha
    threshold and an optional Monte-Carlo cross-check.

    The moment at K, sum_{j<K} w_j (M_K^{-1})_jj with w = tau^(-beta), is
    the partial sum over i < K of r = (L^{-1})^2 w, the w-weighted row sums of
    squares of L^{-1}, since L_K^{-1} is the leading block of L^{-1}.
    """
    k_grid = sorted(int(k) for k in k_grid)
    if not beta_list or not k_grid:
        raise ValueError("need nonempty beta and truncation grids")
    if k_grid[0] < 1 or k_grid[-1] > M.n_basis:
        raise ValueError(f"truncation grid must lie in 1..{M.n_basis}, the assembled basis")
    linv_sq = M.cholesky_lower_inv() ** 2
    cumulative = {}
    report = {
        "kappa": kappa,
        "alpha": alpha,
        "threshold": kappa + alpha,
        "k_grid": k_grid,
        "betas": [],
    }
    for beta in beta_list:
        wts = es.tau[: M.n_basis] ** (-float(beta))
        cumulative[beta] = np.cumsum(linv_sq @ wts)
        moments = [float(cumulative[beta][k - 1]) for k in k_grid]
        rel_inc = (moments[-1] - moments[-2]) / moments[-1] if len(moments) > 1 else 0.0
        divergent = rel_inc > 0.05
        entry = {
            "beta": float(beta),
            "moments": moments,
            "last_rel_increment": rel_inc,
            "divergent": divergent,
            "predicted_convergent": beta > kappa + alpha,
        }
        if divergent and len(k_grid) >= 3:
            slope = np.polyfit(np.log(k_grid), np.log(moments), 1)[0]
            entry["fitted_growth"] = float(slope)
        report["betas"].append(entry)

    if m_mc and rng is not None:
        k = int(mc_k if mc_k is not None else k_grid[0])
        batch = sample_efficient_gaussian(M, m_mc, rng, k=k)
        report["mc"] = {"k": k, "m": m_mc, "betas": []}
        for beta in beta_list:
            wts = es.tau[:k] ** (-float(beta))
            per_sample = (batch.samples**2 * wts[None, :]).sum(axis=1)
            report["mc"]["betas"].append(
                {
                    "beta": float(beta),
                    "estimate": float(per_sample.mean()),
                    "stderr": float(per_sample.std(ddof=1) / np.sqrt(m_mc)),
                    "exact": float(cumulative[beta][k - 1]),
                }
            )
    return report


# ---------------------------------------------------------------------------
# pushforward bounds through smooth functionals
# ---------------------------------------------------------------------------


def _window_l2_sq(batch, i0, i1, w_win):
    """Squared space-time L^2 over the node window for each batch column."""
    prof = np.einsum("tmb,tmb->tb", batch.data[i0 : i1 + 1], batch.data[i0 : i1 + 1])
    return w_win @ prof


def _window_sup(batch, i0, i1, oversample=4):
    """Sup of |field| over the window, on an oversampled grid."""
    es = batch.es
    n = es.min_grid_points() * oversample // 2 * 2
    sup = np.zeros(batch.data.shape[2])
    for i in range(i0, i1 + 1):
        vals = values_from_coeffs(es, batch.data[i].T, n)
        if es.subspace == DIV_FREE:
            mag = np.sqrt((vals**2).sum(axis=1))
        else:
            mag = np.abs(vals)
        sup = np.maximum(sup, mag.reshape(mag.shape[0], -1).max(axis=1))
    return sup


def _ns_nonlinearity_values(base, cols):
    """Values of (U . grad) u0 + (u0 . grad) U for all columns, (B, 2, n^2),
    from the velocity values and gradients of u0, (3, 2, n^2), and of each
    column U, (B, 3, 2, n^2)."""
    u0, g0x, g0y = base
    U, gUx, gUy = cols[:, 0], cols[:, 1], cols[:, 2]
    return U[:, 0:1] * g0x + U[:, 1:2] * g0y + u0[0] * gUx + u0[1] * gUy


def functional_pushforward_bound(
    model, theta0, M, samples, functional, loss, t0, t1, power=2.0
):
    """Monte-Carlo estimate of E || dF[G] ||^power over the sample batch.

    functional: "trajectory" (the linearized flow restricted to positive
    times) or "ns-nonlinearity" (derivative of u -> (u.grad)u).
    loss: "l2" (space-time L^2 on [t0,t1] x Omega) or "sup".
    """
    if t0 <= 0.0:
        raise ValueError(
            "t0 must be strictly positive: the smoothing that makes the "
            "pushforward bound finite is only available at positive times"
        )
    if t1 <= t0 or t1 > model.T + 1e-12:
        raise ValueError("need 0 < t0 < t1 <= T")
    if functional not in ("trajectory", "ns-nonlinearity"):
        raise ValueError(f"unknown functional {functional!r}")
    if loss not in ("l2", "sup"):
        raise ValueError(f"unknown loss {loss!r}")
    if functional == "ns-nonlinearity" and model.kind != "ns":
        raise ValueError("the nonlinearity functional needs the Navier-Stokes model")

    es = model.es
    i0, i1 = model.mesh.window_slice(t0, t1)
    w_win = model.mesh.window_weights(i0, i1)
    sample_data = samples.samples  # (m, K)
    m = sample_data.shape[0]
    values = np.empty(m)
    if functional == "ns-nonlinearity":
        # velocity values and d/dx1, d/dx2 of each unit coefficient vector
        # (inverse FFTs of its half spectra times 1, 2 pi i k1 and 2 pi i k2),
        # so a field's are one matmul; the base flow's over the window once
        n = model.n
        vel = spectrum_from_coeffs(es, np.eye(es.size), n)
        vg = np.fft.irfft2(np.stack([vel, model.ik1 * vel, model.ik2 * vel], 1), (n, n), norm="forward")
        vg = vg.reshape(es.size, -1)
        base = (model.solve(theta0).data[i0 : i1 + 1] @ vg).reshape(i1 + 1 - i0, 3, 2, -1)

    chunk = 64
    for start in range(0, m, chunk):
        cols = np.zeros((es.size, min(chunk, m - start)))
        cols[: samples.n_basis] = sample_data[start : start + cols.shape[1]].T
        batch = model.linearize(theta0, cols)
        if functional == "trajectory":
            if loss == "l2":
                vals = np.sqrt(_window_l2_sq(batch, i0, i1, w_win))
            else:
                vals = _window_sup(batch, i0, i1)
        else:
            acc = np.zeros(cols.shape[1])  # l2: the Simpson sum; sup: the running max
            for i in range(i0, i1 + 1):
                U = (batch.data[i].T @ vg).reshape(cols.shape[1], 3, 2, -1)
                f2 = (_ns_nonlinearity_values(base[i - i0], U) ** 2).sum(axis=1)
                if loss == "l2":
                    acc += w_win[i - i0] * f2.mean(axis=1)
                else:
                    acc = np.maximum(acc, np.sqrt(f2.max(axis=1)))
            vals = np.sqrt(acc) if loss == "l2" else acc
        values[start : start + cols.shape[1]] = vals

    powered = values ** float(power)
    return {
        "functional": functional,
        "loss": loss,
        "power": float(power),
        "t0": t0,
        "t1": t1,
        "n_basis": samples.n_basis,
        "m": m,
        "estimate": float(powered.mean()),
        "stderr": float(powered.std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0,
    }
