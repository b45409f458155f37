"""Sampling the efficient limiting Gaussian N(0, M^{-1}) in the eigenbasis,
support diagnostics across the negative-order scale, and Monte-Carlo
pushforward bounds through the shipped smooth functionals.

Truncation bias is always reported: moments carry their truncation level and
the K-trace, never a single bare number.
"""

import numpy as np

from .spectral import DIV_FREE, derivative, values_from_coeffs

_MC_BLOCK_ENTRIES = 32768  # support MC sample entries drawn and reduced at a time (256 KiB per array)


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


def support_diagnostic(M, beta_list, k_grid, kappa, alpha, m_mc=0, rng=None, mc_k=None):
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
        wts = M.es.tau[: M.n_basis] ** (-float(beta))
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
        per_beta = np.empty((len(beta_list), m_mc))  # each draw's weighted |G|^2, per beta
        rows = max(1, _MC_BLOCK_ENTRIES // k)
        for start in range(0, m_mc, rows):  # one rng stream: the blocks draw what one batch would
            sq = sample_efficient_gaussian(M, min(rows, m_mc - start), rng, k=k).samples ** 2
            for beta, per_sample in zip(beta_list, per_beta):
                per_sample[start : start + len(sq)] = (sq * M.es.tau[:k] ** (-float(beta))).sum(axis=1)
        report["mc"] = {"k": k, "m": m_mc, "betas": []}
        for beta, per_sample in zip(beta_list, per_beta):
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


def _ns_nonlinearity_values(base, cols):
    """Values of (U . grad) u0 + (u0 . grad) U for all columns, (B, 2, n^2),
    from the velocity values and gradients of u0, (3, 2, n^2), and of each
    column U, (B, 3, 2, n^2)."""
    u0, g0x, g0y = base
    U, gUx, gUy = cols[:, 0], cols[:, 1], cols[:, 2]
    return U[:, 0:1] * g0x + U[:, 1:2] * g0y + u0[0] * gUx + u0[1] * gUy


def check_functional(model, functional, loss):
    """Raise ValueError unless the pushforward bound takes this functional and
    loss on ``model`` (config.build_experiment runs it before a task starts)."""
    if functional not in ("trajectory", "ns-nonlinearity"):
        raise ValueError(f"unknown functional {functional!r}")
    if loss not in ("l2", "sup"):
        raise ValueError(f"unknown loss {loss!r}")
    if functional == "ns-nonlinearity" and model.kind != "ns":
        raise ValueError(f"the ns-nonlinearity functional needs the ns model, not {model.kind}")


def functional_pushforward_bound(
    model, theta0, M, samples, functional, loss, t0, t1, power=2.0
):
    """Monte-Carlo estimate of E || dF[G] ||^power over the sample batch at
    M's theta0 on M's model (another model, or a theta0 of another value,
    raises); the ns-nonlinearity functional reads G(theta0) off M.

    functional: "trajectory" (the linearized flow restricted to positive
    times) or "ns-nonlinearity" (derivative of u -> (u.grad)u).
    loss: "l2" (space-time L^2 on [t0,t1] x Omega) or "sup"; the mesh checks
    the window [t0, t1] (window_slice, window_weights).  Each chunk of 64
    samples is reduced node by node as its tangent march reaches the node,
    so no sample batch is held.
    """
    if t0 <= 0.0:
        raise ValueError(
            "t0 must be strictly positive: the smoothing that makes the "
            "pushforward bound finite is only available at positive times"
        )
    assembled = M.experiment()
    if model is not assembled.model:
        raise ValueError("model is not the one M was assembled on")
    if not np.array_equal(theta0.data, assembled.theta0.data):
        raise ValueError("theta0 is not the point M was assembled at")
    check_functional(model, functional, loss)

    es = model.es
    i0, i1 = model.mesh.window_slice(t0, t1)
    w_win = model.mesh.window_weights(i0, i1)
    sample_data = samples.samples  # (m, K)
    m = sample_data.shape[0]
    values = np.empty(m)
    if functional == "ns-nonlinearity":
        # u, du/dx1 and du/dx2 of each unit coefficient vector on the model's
        # grid, so a field's are one matmul; G(theta0)'s once, off M's base
        eye = np.eye(es.size)
        fields = np.stack([eye, derivative(es, eye, 0), derivative(es, eye, 1)], 1)
        vg = values_from_coeffs(es, fields, model.n).reshape(es.size, -1)
        base = (assembled.base.data[i0 : i1 + 1] @ vg).reshape(i1 + 1 - i0, 3, 2, -1)

    def node_value(i, v):  # per column of node i's block v: squared L^2 (l2) or sup over space
        if functional == "ns-nonlinearity":
            U = (v.T @ vg).reshape(v.shape[1], 3, 2, -1)
            f2 = (_ns_nonlinearity_values(base[i - i0], U) ** 2).sum(axis=1)
            return f2.mean(axis=1) if loss == "l2" else np.sqrt(f2.max(axis=1))
        if loss == "l2":
            return np.einsum("mb,mb->b", v, v)  # Parseval
        vals = values_from_coeffs(es, v.T, 4 * es.min_grid_points())  # oversampled
        mag = np.sqrt((vals**2).sum(axis=1)) if es.subspace == DIV_FREE else np.abs(vals)
        return mag.reshape(v.shape[1], -1).max(axis=1)

    chunk = 64
    for start in range(0, m, chunk):
        cols = np.zeros((es.size, min(chunk, m - start)))
        cols[: samples.n_basis] = sample_data[start : start + cols.shape[1]].T
        acc = np.zeros(cols.shape[1])

        def reduce(i, v):  # l2: the window's Simpson sum in mesh order; sup: the running max
            if i0 <= i <= i1 and loss == "l2":
                np.add(acc, w_win[i - i0] * node_value(i, v), out=acc)
            elif i0 <= i <= i1:
                np.maximum(acc, node_value(i, v), out=acc)

        model.linearize(theta0, cols, on_node=reduce)  # cols positional: the tracer counts it
        values[start : start + cols.shape[1]] = np.sqrt(acc) if loss == "l2" else acc

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
