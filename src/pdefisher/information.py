"""Galerkin realization of the score/information operators.

Everything dual is reduced to the Gram matrix M of the linearized forward
map in the Laplacian eigenbasis,

    M_ij = < I[e_i], I_eps I[e_j] >_{L2_lambda},

assembled from one linearized solve per basis vector and the mesh time
quadrature; heat, whose tangent of e_k is e^{-lambda_k t} e_k, is assembled
in closed form with no march.  The LAN norm is sqrt(h^T M h), the dual norm
of a target psi is sqrt(psi^T M^{-1} psi) (reported as a truncation trace,
never a single number), and the efficient Gaussian has covariance M^{-1}.
"""

from collections import namedtuple

import numpy as np

from .noise import fisher_matrix as compute_fisher, raised_cosine_quantile
from .spectral import multiplication_map

_COND_LIMIT = 1e12  # condition number beyond which results are numerically meaningless
_PLATEAU_INCREMENT = 0.02  # a trace's last increment above this share of its value diverges


class DesignMeasure:
    """Sampling law of the design points on the cylinder [0,T] x T^d.

    Shipped densities are time-independent: lambda(t, x) = g(x) / T with
    g band-limited, so grid means integrate products with band-limited
    fields exactly.  The cosine kind, g = 1 + a cos(2 pi x_axis), samples by
    exact inversion of its marginal CDF (``noise.raised_cosine_quantile``).
    """

    def __init__(self, T, kind="uniform", amplitude=0.0, axis=0):
        if kind not in ("uniform", "cosine"):
            raise ValueError(f"unknown design kind {kind!r}")
        if kind == "cosine" and not (0 <= abs(amplitude) < 1):
            raise ValueError("cosine design needs |amplitude| < 1")
        self.T = float(T)
        self.kind = kind
        self.amplitude = float(amplitude)
        self.axis = int(axis)
        self.spatial_band = 0 if kind == "uniform" else 1

    @property
    def is_uniform(self):
        return self.kind == "uniform"

    def density(self, t, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.is_uniform:
            return np.full(x.shape[0], 1.0 / self.T)
        g = 1.0 + self.amplitude * np.cos(2 * np.pi * x[:, self.axis])
        return g / self.T

    def sample(self, rng, n, d):
        """n i.i.d. design points; draw order (t, then x) is part of the contract."""
        t = rng.uniform(0.0, self.T, size=n)
        x = rng.uniform(0.0, 1.0, size=(n, d))
        if not self.is_uniform:
            x[:, self.axis] = raised_cosine_quantile(x[:, self.axis], self.amplitude)
        return t, x


# ---------------------------------------------------------------------------
# weighted space-time Gram quadrature
# ---------------------------------------------------------------------------


def _pointwise_form(es, design, fisher):
    """B_jl = int <e_j, I_eps e_l> lambda dx on the basis modes, (nm, nm).

    Mode j is dirs_j (1 on a scalar system) times a scalar mode s_j, so B =
    (dirs F dirs^T) o S, S_jl = int s_j s_l lambda dx: the identity / T on a
    uniform design (B the exact diagonal), else spectral's multiplication map
    of the density, exact on a grid resolving its products with the modes.
    """
    f = np.eye(es.p) if fisher is None else fisher.matrix
    dirs = np.ones((es.size, 1)) if es.dirs is None else es.dirs
    if design.is_uniform:
        return np.diag(np.einsum("ma,ab,mb->m", dirs, f, dirs) / design.T)
    n = 2 * es.kmax + design.spatial_band + 2
    n += n % 2
    grid = np.stack(np.meshgrid(*[np.arange(n) / n] * es.d, indexing="ij"), -1)
    density = design.density(0.0, grid.reshape(-1, es.d)).reshape(grid.shape[:-1])
    return dirs @ f @ dirs.T * multiplication_map(es if es.scalar is None else es.scalar, density)


class _NodeGram:
    """sum_i w_i V_i^T B V_i over the mesh quadrature, B the pointwise form,
    fed one node's (nm, K) coefficient block V_i at a time by ``add(i, V_i)``
    (a tangent march's ``on_node``), so no batch of every node is held.

    B = R R^T is factored once (a uniform design's B is diagonal, R its
    square root; otherwise B is SPD and R its Cholesky factor), so each node
    adds W^T W for W = R^T V_i, which numpy forms as a symmetric product."""

    def __init__(self, es, mesh, design, fisher, K):
        form = _pointwise_form(es, design, fisher)
        if design.is_uniform:
            self.root, self.factor = np.sqrt(np.diag(form))[:, None], None
        else:
            self.root, self.factor = None, np.linalg.cholesky(form).T
        self.weights = mesh.weights
        self.g = np.zeros((K, K))

    def add(self, i, v):
        w = self.root * v if self.factor is None else self.factor @ v
        self.g += self.weights[i] * (w.T @ w)

    def value(self):
        return 0.5 * (self.g + self.g.T)


def spacetime_gram(batch, design, fisher=None):
    """Gram matrix G_ij = int <U_i, I_eps U_j> lambda dx dt for a held field
    batch, any object with ``es``, ``mesh`` and ``data`` (n_nodes, nm, B),
    node by node as the tangent Gram (``_NodeGram``) accumulates it."""
    gram = _NodeGram(batch.es, batch.mesh, design, fisher, batch.data.shape[2])
    for i, v in enumerate(batch.data):
        gram.add(i, v)
    return gram.value()


# ---------------------------------------------------------------------------
# information matrix
# ---------------------------------------------------------------------------

# What an assembled M was built from: the model, the point theta0, the noise
# whose Fisher matrix weighs the Gram, the design, and G(theta0) on the
# model's mesh.  Consumers read these off M instead of taking them again.
Experiment = namedtuple("Experiment", "model theta0 noise design base")


class InformationMatrix:
    """K x K Galerkin matrix of the information operator, its lower Cholesky
    factor L (the only factorization) and L^{-1}, computed once.  The
    truncation M_k = M[:k, :k] has the factor L[:k, :k] and the inverse
    factor L^{-1}[:k, :k], and cond(M_k) <= cond(M) (Cauchy interlacing), so
    both factors and the checks below serve every k <= K; every solve is a
    product with a leading block of L^{-1}.  An assembled M carries the
    ``Experiment`` it was assembled from."""

    def __init__(self, matrix, es, experiment=None):
        matrix = 0.5 * (matrix + matrix.T)
        self.matrix = matrix
        self.es = es
        self._experiment = experiment
        self.n_basis = matrix.shape[0]
        try:
            self._L = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                "information matrix is not positive definite at this truncation: "
                "the linearized forward map looks non-injective on the retained modes"
            ) from exc
        evals = np.linalg.eigvalsh(matrix)
        self.eig_min = float(evals[0])
        self.eig_max = float(evals[-1])
        self.cond = self.eig_max / max(self.eig_min, 1e-300)
        if self.cond > _COND_LIMIT:
            raise RuntimeError(
                f"information matrix condition {self.cond:.2e} exceeds {_COND_LIMIT:.0e}; "
                "results at this truncation would be numerically meaningless"
            )
        # L^{-1} is lower-triangular; inv's row pivoting can leave rounding
        # above the diagonal, which tril sets to its exact zero
        self._Linv = np.tril(np.linalg.inv(self._L))

    def experiment(self):
        """The ``Experiment`` of the assembly; a matrix built by hand has none."""
        if self._experiment is None:
            raise ValueError("information matrix has no experiment: assemble it at theta0")
        return self._experiment

    @property
    def meta(self):
        """What the assembly used, by name (the info-matrix dump header)."""
        model, _, noise, design, _ = self.experiment()
        return {
            "model": model.kind,
            "noise": noise.family,
            "design": design.kind,
            "n_basis": self.n_basis,
            "method": "closed-form" if model.kind == "heat" else "batch",
        }

    def solve(self, rhs):
        """M^{-1} rhs = L^{-T} (L^{-1} rhs)."""
        return self._Linv.T @ (self._Linv @ rhs)

    def cholesky_lower(self):
        return self._L

    def cholesky_lower_inv(self):
        """L^{-1}, lower-triangular; its leading k x k block is L[:k, :k]^{-1}."""
        return self._Linv

    def coeff_vector(self, psi):
        """Coefficients of psi in the retained basis; error if psi leaves the span."""
        data = psi.data if hasattr(psi, "data") else np.asarray(psi, dtype=float)
        if data.shape[0] > self.n_basis and np.any(data[self.n_basis :] != 0.0):
            raise ValueError("field has components outside the retained basis span")
        out = np.zeros(self.n_basis)
        out[: min(self.n_basis, data.shape[0])] = data[: self.n_basis]
        return out


def _tangent_gram(model, theta0, design, fisher, K):
    """Gram of the tangent fields of e_0..e_{K-1}, sum_i w_i V_i^T B V_i, and
    the G(theta0) marched next to them; each node's tangent block is added
    as the march reaches it, and none is stored.

    Heat's tangent of e_k is e^{-lambda_k t} e_k, so its Gram is
    B[:K, :K] o (D^T W D) with D_ik = e^{-lambda_k t_i}: no march, no batch
    and no G(theta0) (None).  The design must span the model's horizon.
    """
    if abs(design.T - model.mesh.T) > 1e-12:
        raise ValueError(f"design horizon {design.T} is not the model's T = {model.mesh.T}")
    es = model.es
    if model.kind != "heat":
        gram = _NodeGram(es, model.mesh, design, fisher, K)
        base = model.linearize(theta0, np.eye(es.size, K), on_node=gram.add)
        return gram.value(), base
    decay = np.exp(-np.outer(model.mesh.nodes, es.lam[:K]))
    time = (model.mesh.weights[:, None] * decay).T @ decay
    g = _pointwise_form(es, design, fisher)[:K, :K] * time
    return 0.5 * (g + g.T), None


def assemble_information_matrix(model, theta0, noise, design, n_basis):
    """M_ij = <I[e_i], I_eps I[e_j]>_{L2_lambda}: the tangent Gram under the
    noise's Fisher matrix, in closed form for heat ("closed-form") and from
    one linearized solve per basis vector otherwise ("batch"); M carries
    the experiment it used."""
    es = model.es
    if n_basis > es.size:
        raise ValueError(f"n_basis {n_basis} exceeds eigensystem size {es.size}")
    if noise.p != es.p:
        raise ValueError("noise dimension does not match field components")
    fisher = compute_fisher(noise)
    gram, base = _tangent_gram(model, theta0, design, fisher, n_basis)
    base = model.solve(theta0) if base is None else base  # heat marches nothing
    return InformationMatrix(gram, es, Experiment(model, theta0, noise, design, base))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def lan_norm(h, M):
    """sqrt(h^T M h) for h in the span of the retained basis."""
    v = M.coeff_vector(h)
    return float(np.sqrt(v @ M.matrix @ v))


def s_norm_truncated(psi, M, k_grid=None):
    """Dual-norm truncation trace psi_K'^T M_K'^{-1} psi_K', nondecreasing in K'.

    It is the partial sum of z_i^2 over i < K' for z = L^{-1} psi, since
    (L^{-1} psi)[:K'] = L[:K', :K']^{-1} psi[:K'].

    Divergence of the trace is the numerical signature of a target outside
    the dual space (infinite efficiency bound).
    """
    v = M.coeff_vector(psi)
    if k_grid is None:
        k_grid = sorted({2**a for a in range(2, 30) if 2**a < M.n_basis} | {M.n_basis})
    k_grid = [int(k) for k in k_grid]
    if not all(1 <= k <= M.n_basis for k in k_grid):
        raise ValueError(f"truncations must lie in 1..{M.n_basis}, got {k_grid}")
    z = M.cholesky_lower_inv() @ v
    cumulative = np.cumsum(z**2)
    values = [float(cumulative[k - 1]) for k in k_grid]
    return {"k_grid": k_grid, "values": values, "value": values[-1]}


def octave_divergence_flag(k_grid, values):
    """Flag a truncation trace that keeps growing instead of plateauing.

    Returns (flag, increments).  A trace with a finite limit has per-octave
    increments collapsing to zero; the flag fires when the last increment
    still exceeds _PLATEAU_INCREMENT of the accumulated value.
    """
    inc = np.diff(np.asarray(values, dtype=float))
    if inc.size == 0:
        return False, []
    total = max(float(values[-1]), 1e-300)
    return bool(inc[-1] > _PLATEAU_INCREMENT * total), inc.tolist()


# ---------------------------------------------------------------------------
# two-sided norm equivalence diagnostic
# ---------------------------------------------------------------------------


def norm_equivalence_diagnostic(model, theta0, design, n_basis_list, trials, kappa, rng):
    """Ratios || I[h] ||_{L2_lambda} / || h ||_{D^-kappa} over random unit
    directions, plus exact extremal bounds from the generalized eigenproblem
    of (Gram, scale-Gram), the eigenvalues of D^{-1/2} G D^{-1/2}.  Reported
    per truncation so stability under refinement is visible.
    """
    if trials < 10:
        raise ValueError("need at least 10 trial directions")
    es = model.es
    G, _ = _tangent_gram(model, theta0, design, None, int(max(n_basis_list)))
    out = {"kappa": kappa, "per_k": []}
    for k in sorted(int(k) for k in n_basis_list):
        gk = G[:k, :k]
        dk = es.tau[:k] ** (-float(kappa))
        s = dk ** -0.5
        evals = np.linalg.eigvalsh(s[:, None] * gk * s[None, :])
        z = rng.standard_normal((trials, k))
        hs = z / np.sqrt((z**2 * dk[None, :]).sum(axis=1))[:, None]
        ratios = np.sqrt(np.einsum("nk,kl,nl->n", hs, gk, hs))
        mode_ratios = np.sqrt(np.diag(gk) / dk)
        out["per_k"].append(
            {
                "n_basis": k,
                "ratio_min": float(ratios.min()),
                "ratio_max": float(ratios.max()),
                "eig_min": float(np.sqrt(max(evals[0], 0.0))),
                "eig_max": float(np.sqrt(evals[-1])),
                "cond": float(evals[-1] / max(evals[0], 1e-300)),
                "mode_ratios": mode_ratios.tolist(),
            }
        )
    last = out["per_k"][-1]
    out["ratio_min"] = last["ratio_min"]
    out["ratio_max"] = last["ratio_max"]
    return out
