"""Definitional paths the tests compare the package against.

No task computes these: each is the plain form of something a task reaches
another way.  A held tangent batch is collected through ``linearize``'s
``on_node``, exactly as a march hands its blocks to a task; the L2_lambda
norm and the definitional LAN norm take one linearized solve per field; the
Sobolev scale norm, the M-orthonormal basis L^{-T} and psi^T M^{-1} psi read
coefficients and M's inverse factor directly.
"""

from collections import namedtuple

import numpy as np

from pdefisher.information import spacetime_gram
from pdefisher.noise import fisher_matrix as compute_fisher

# Fields sharing mesh and eigensystem, data (n_nodes, nm, B); ``base`` is
# the G(theta0) marched next to them (None for a batch built by hand).
HeldTangents = namedtuple("HeldTangents", "es mesh data base")


def held_tangents(model, theta0, cols):
    """The tangent flows at theta0 of the columns ``cols`` (nm, B), every
    node's (nm, B) block copied as the march hands it to ``on_node``."""
    cols = np.asarray(cols, dtype=float)
    data = np.empty((model.mesh.n_nodes,) + cols.shape)
    base = model.linearize(theta0, cols, on_node=data.__setitem__)
    return HeldTangents(model.es, model.mesh, data, base)


def spacetime_quadform(field, design, fisher=None):
    """int <U, I_eps U> lambda dx dt for a single field."""
    batch = HeldTangents(field.es, field.mesh, field.data[:, :, None], None)
    return float(spacetime_gram(batch, design, fisher)[0, 0])


def l2lambda_norm(field, design):
    """|| field ||_{L2_lambda} by spectral space / mesh time quadrature."""
    return float(np.sqrt(spacetime_quadform(field, design)))


def lan_norm_direct(model, theta0, h, noise, design):
    """Definitional || I_eps^(1/2) I[h] ||_{L2_lambda} via one linearized solve."""
    fisher = compute_fisher(noise)
    field = model.linearize(theta0, h)
    return float(np.sqrt(spacetime_quadform(field, design, fisher)))


def orthonormalize_h(M):
    """H = L^{-T}, so H^T M H = I; column j expresses the j-th orthonormal
    vector in the retained eigenbasis.  It is the unique upper-triangular H
    with positive diagonal and H^T M H = I, i.e. Gram-Schmidt of e_1, ..., e_K
    in the M metric, and H[:k, :k] is the basis of every truncation M_k.
    """
    return M.cholesky_lower_inv().T.copy()


def inv_quadform(M, psi):
    """psi^T M^{-1} psi = |L^{-1} psi|^2."""
    z = M.cholesky_lower_inv() @ psi
    return float(z @ z)


def _coerce_coeffs(u, es):
    if u.es == es:
        return u.data
    # re-index by (wavevector, kind); any unrepresentable mass is an error
    data = np.zeros(es.size)
    for j in range(u.es.size):
        if u.data[j] == 0.0:
            continue
        tgt = es.index_of(u.es.kvecs[j], u.es.kind[j])
        if tgt < 0:
            raise ValueError(
                "field has components outside the requested subspace "
                f"(mode k={u.es.kvecs[j].tolist()} kind={int(u.es.kind[j])})"
            )
        data[tgt] = u.data[j]
    return data


def sobolev_norm(u, s, es=None):
    """Scale norm (sum_j tau_j^s u_j^2)^(1/2) on the eigensystem's subspace."""
    if es is None:
        es = u.es
    data = _coerce_coeffs(u, es)
    return float(np.sqrt(np.sum(es.tau**s * data**2)))
