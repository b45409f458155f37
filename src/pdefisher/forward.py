"""Forward maps of the shipped evolution models and their linearizations.

* heat flow (closed form, the linear oracle model)
* reaction-diffusion u_t - Lap u = f(u) with compactly supported smooth f
* incompressible 2D Navier-Stokes in vorticity-streamfunction form

Nonlinear solves use a fourth-order exponential integrator (the stiff
Laplacian is integrated exactly; phi-coefficients by the standard contour
quadrature).  Linearized flows are co-integrated with the base flow, i.e.
the tangent scheme is the exact derivative of the discrete step, so
finite-difference consistency checks see a clean O(s^2) remainder.

Time meshes are uniform by default; geometrically graded meshes (small
steps near t = 0) are available because space-time Gram integrals of
linearized flows have e^{-2 lambda t} boundary layers that a uniform
Simpson rule cannot resolve for stiff modes.
"""

import numpy as np

from .spectral import (
    DIV_FREE,
    FourierCoeffs,
    basis_values_at,
    coeffs_from_values,
    spectrum_from_coeffs,
    values_from_coeffs,
)

# points per block of scattered evaluation; bounds the (chunk, 4, nm) gather
_CHUNK = 2048


class TimeMesh:
    """Stored time nodes grouped in uniform blocks, with Simpson weights."""

    def __init__(self, nodes, blocks):
        self.nodes = np.asarray(nodes, dtype=float)
        self.blocks = blocks  # list of (first_node_index, n_steps, h)
        self.weights = self.window_weights(0, self.n_nodes - 1)
        self._stencils = self._lagrange_stencils()

    @classmethod
    def uniform(cls, T, m):
        if m % 2 or m < 4:
            raise ValueError("uniform mesh needs an even number >= 4 of intervals")
        nodes = np.linspace(0.0, T, m + 1)
        return cls(nodes, [(0, m, T / m)])

    @classmethod
    def graded(cls, T, levels, steps_per_block=16):
        """Geometric blocks [0, T 2^-levels], [T 2^-levels, T 2^-levels+1], ..., [T/2, T]."""
        if steps_per_block % 2 or steps_per_block < 4:
            raise ValueError("steps per block must be even and >= 4")
        edges = [0.0] + [T * 2.0 ** (-m) for m in range(levels, -1, -1)]
        nodes = [0.0]
        blocks = []
        for a, b in zip(edges[:-1], edges[1:]):
            h = (b - a) / steps_per_block
            blocks.append((len(nodes) - 1, steps_per_block, h))
            nodes.extend(a + h * np.arange(1, steps_per_block + 1))
        nodes = np.asarray(nodes)
        nodes[-1] = T
        return cls(nodes, blocks)

    @property
    def T(self):
        return float(self.nodes[-1])

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    def _lagrange_stencils(self):
        """Per interval [nodes[j], nodes[j+1]): the 4 node indices of its cubic
        stencil (centred on the interval, shifted inward at the ends of the
        grid), (n_nodes - 1, 4); and, (4, n_nodes - 1), their times and their
        Lagrange denominators prod_{b != a} (t_a - t_b).  Built once here, so
        the replicate threads that evaluate fields only read them."""
        m = self.n_nodes
        if m < 4:
            raise ValueError("need at least 4 time nodes for cubic interpolation")
        idx = np.clip(np.arange(m - 1) - 1, 0, m - 4)[:, None] + np.arange(4)
        tn = self.nodes[idx].T
        diag = np.arange(4)
        denom = _others_product(tn[None, :, :] - tn[:, None, :])[diag, diag]
        return idx, tn, denom

    def window_slice(self, t0, t1, rtol=1e-9):
        """Node index range covering [t0, t1]; endpoints must be nodes."""
        i0 = int(np.argmin(np.abs(self.nodes - t0)))
        i1 = int(np.argmin(np.abs(self.nodes - t1)))
        if abs(self.nodes[i0] - t0) > rtol * max(1.0, self.T) or abs(
            self.nodes[i1] - t1
        ) > rtol * max(1.0, self.T):
            raise ValueError("window endpoints must coincide with mesh nodes")
        return i0, i1

    def window_weights(self, i0, i1):
        """Composite Simpson weights for the node subrange [i0, i1]."""
        sub = self.nodes[i0 : i1 + 1]
        if sub.shape[0] < 3 or (sub.shape[0] - 1) % 2:
            raise ValueError("window needs an even number >= 2 of intervals")
        # per pair of intervals, the quadratic through its three (possibly
        # non-equidistant) nodes; a shared even node sums both pairs' ends
        h0, h1 = np.diff(sub)[::2], np.diff(sub)[1::2]
        c = (h0 + h1) / 6.0
        w = np.zeros_like(sub)
        w[1::2] = c * (h0 + h1) ** 2 / (h0 * h1)
        w[2::2] += c * (2.0 - h0 / h1)
        w[:-2:2] += c * (2.0 - h1 / h0)
        return w


def _others_product(diff):
    """For diff = (d0, d1, d2, d3) along the first axis: the product of the
    other three at each position, (d1 d2 d3, d0 d2 d3, d0 d1 d3, d0 d1 d2),
    as (partner in the pair) * (product of the other pair), with no division,
    so a zero entry is exact."""
    pairs = diff.reshape((2, 2) + diff.shape[1:])
    return (pairs[:, ::-1] * (pairs[:, 0] * pairs[:, 1])[::-1, None]).reshape(diff.shape)


def _time_stencils(mesh, t):
    """4-point Lagrange stencils on the mesh's increasing node grid.

    Returns node indices and weights, both (nq, 4), for query times inside
    [nodes[0], nodes[-1]].  One ``searchsorted`` over the interior nodes
    finds each query's interval (clamped to the first and last by
    construction); the interval's stencil comes from the tables the mesh
    built once (:meth:`TimeMesh._lagrange_stencils`).  Weight a is the
    product of t - t_b over the other three nodes divided by the same
    product at t = t_a, so a query at a node reproduces that node exactly.
    """
    idx, tn, denom = mesh._stencils
    j = np.searchsorted(mesh.nodes[1:-1], t, side="right")
    w = _others_product(t - np.take(tn, j, axis=1)) / np.take(denom, j, axis=1)
    return np.take(idx, j, axis=0), w.T


class SpaceTimeField:
    """Coefficient snapshots of a space-time field on a time mesh."""

    def __init__(self, es, mesh, data):
        data = np.asarray(data, dtype=float)
        if data.shape != (mesh.n_nodes, es.size):
            raise ValueError("snapshot array does not match mesh/eigensystem")
        self.es = es
        self.mesh = mesh
        self.data = data

    def evaluate(self, t, x):
        """Values at scattered points: exact Fourier sum in space, cubic in time.

        t: (nq,), x: (nq, d).  Returns (nq,) for scalar fields and (nq, 2)
        for divergence-free ones.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if np.any(t < -1e-12) or np.any(t > self.mesh.T + 1e-12):
            raise ValueError("evaluation time outside [0, T]")
        idx, w = _time_stencils(self.mesh, t)
        vector = self.es.subspace == DIV_FREE
        out = np.empty((t.shape[0], 2) if vector else t.shape[0])
        for start in range(0, t.shape[0], _CHUNK):
            sl = slice(start, start + _CHUNK)
            vals = np.einsum("qa,qam->qm", w[sl], np.take(self.data, idx[sl], axis=0))
            vals *= basis_values_at(self.es, x[sl])
            out[sl] = vals @ self.es.dirs if vector else vals.sum(1)
        return out

    def squared_l2_profile(self):
        """Spatial L^2 norm squared at every node (Parseval)."""
        return np.einsum("tm,tm->t", self.data, self.data)


class SpaceTimeBatch:
    """Batch of fields sharing mesh and eigensystem; data (n_nodes, nm, B)."""

    def __init__(self, es, mesh, data):
        self.es = es
        self.mesh = mesh
        self.data = data


# ---------------------------------------------------------------------------
# exponential integrator machinery
# ---------------------------------------------------------------------------


def _etdrk4_coeffs(h, lin, n_contour=32):
    """Cox-Matthews ETDRK4 coefficients for diagonal linear part ``lin``.

    phi-functions evaluated by averaging over a complex contour around h*lin,
    which is stable through lin = 0.
    """
    z0 = h * lin
    roots = np.exp(2j * np.pi * (np.arange(n_contour) + 0.5) / n_contour)
    z = z0[..., None] + roots
    ez = np.exp(z)
    q = h * np.mean((np.exp(z / 2.0) - 1.0) / z, axis=-1).real
    f1 = h * np.mean((-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z**3, axis=-1).real
    f2 = h * np.mean((2.0 + z + ez * (z - 2.0)) / z**3, axis=-1).real
    f3 = h * np.mean((-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z**3, axis=-1).real
    return {
        "E": np.exp(z0),
        "E2": np.exp(z0 / 2.0),
        "Q": q,
        "f1": f1,
        "f2": f2,
        "f3": f3,
    }


def _etdrk4_step(u, nonlin, c):
    """One ETDRK4 step of u' = L u + N(u) with precomputed coefficients.

    N is called at the four stage states in order.  Stepping tangent states v
    by the same function, with the nonlinearity v -> N'(stage_i) v at stage
    i, is the exact Jacobian-vector product of the base step.
    """
    n0 = nonlin(u)
    a = c["E2"] * u + c["Q"] * n0
    n1 = nonlin(a)
    b = c["E2"] * u + c["Q"] * n1
    n2 = nonlin(b)
    cc = c["E2"] * a + c["Q"] * (2.0 * n2 - n0)
    n3 = nonlin(cc)
    return c["E"] * u + c["f1"] * n0 + 2.0 * c["f2"] * (n1 + n2) + c["f3"] * n3


def _checked_mesh(T, mesh):
    mesh = mesh if mesh is not None else TimeMesh.uniform(T, 256)
    if abs(mesh.T - T) > 1e-12:
        raise ValueError("mesh horizon does not match T")
    return mesh


class _SpectralModel:
    """ETDRK4 march, solve and linearize shared by the pseudo-spectral models.

    Both models march the coefficient vector itself, (nm,) for the base state
    and (B, nm) for B tangent states, so every snapshot is a state.  A
    subclass sets ``lin`` (the diagonal linear part, (nm,)) and ``name`` (for
    the blow-up error), and supplies ``_grid(u)`` (the grid values of base
    state u that the nonlinearity and its derivative both need),
    ``_nonlin(g)`` and ``_dnonlin(g, v)``, the derivative of the nonlinearity
    at the state with grid values g applied to tangent states v.
    """

    def __init__(self, es, T, mesh):
        self.es = es
        self.T = float(T)
        self.mesh = _checked_mesh(T, mesh)

    def _march(self, u, v=None):
        """Base march from state u, co-integrating tangent states v (B, nm) if given."""
        snaps = np.empty((self.mesh.n_nodes, self.es.size))
        snaps[0] = u
        vsnaps = None
        if v is not None:
            vsnaps = np.empty((self.mesh.n_nodes, self.es.size, v.shape[0]))
            vsnaps[0] = v.T
        cache = {}
        grids = []  # the current step's four base-stage grid values

        def base_nonlin(w):
            grids.append(self._grid(w))
            return self._nonlin(grids[-1])

        for i0, nsteps, h in self.mesh.blocks:
            if h not in cache:
                cache[h] = _etdrk4_coeffs(h, self.lin)
            c = cache[h]
            for s in range(nsteps):
                grids.clear()
                u = _etdrk4_step(u, base_nonlin, c)
                if v is not None:
                    stages = iter(grids)
                    v = _etdrk4_step(v, lambda w: self._dnonlin(next(stages), w), c)
                if not np.all(np.isfinite(u)):
                    raise RuntimeError(f"{self.name} solve blew up at t={self.mesh.nodes[i0+s+1]:.4g}")
                snaps[i0 + s + 1] = u
                if v is not None:
                    vsnaps[i0 + s + 1] = v.T
        return snaps, vsnaps

    def solve(self, theta):
        snaps, _ = self._march(theta.data)
        return SpaceTimeField(self.es, self.mesh, snaps)

    def linearize(self, theta0, h):
        """Tangent flow at theta0 from h: a FourierCoeffs (-> SpaceTimeField)
        or (nm, B) columns (-> SpaceTimeBatch)."""
        single = isinstance(h, FourierCoeffs)
        cols = h.data[:, None] if single else np.asarray(h, dtype=float)
        _, vsnaps = self._march(theta0.data, cols.T)
        if single:
            return SpaceTimeField(self.es, self.mesh, np.ascontiguousarray(vsnaps[:, :, 0]))
        return SpaceTimeBatch(self.es, self.mesh, vsnaps)


# ---------------------------------------------------------------------------
# heat flow (closed form)
# ---------------------------------------------------------------------------


class HeatModel:
    """u_t = Lap u; coefficientwise decay e^(-lambda t), exact at any node."""

    kind = "heat"

    def __init__(self, es, T=1.0, mesh=None):
        self.es = es
        self.mesh = _checked_mesh(T, mesh)
        self.T = float(T)

    def solve(self, theta):
        data = np.exp(-np.outer(self.mesh.nodes, self.es.lam)) * theta.data[None, :]
        return SpaceTimeField(self.es, self.mesh, data)

    def linearize(self, theta0, h):
        # linear model: the linearization is the flow itself
        if isinstance(h, FourierCoeffs):
            return self.solve(h)
        decay = np.exp(-np.outer(self.mesh.nodes, self.es.lam))
        data = decay[:, :, None] * np.asarray(h)[None, :, :]
        return SpaceTimeBatch(self.es, self.mesh, data)


# ---------------------------------------------------------------------------
# reaction-diffusion
# ---------------------------------------------------------------------------


class BumpReaction:
    """f(u) = A u (1 - u^2) chi(u), chi a C^inf bump supported on [-R, R].

    ``cutoff(u)`` evaluates chi and the terms its derivative reuses; ``f`` and
    ``df`` take them precomputed, so a march that needs both at the same grid
    values evaluates the cutoff once.
    """

    def __init__(self, amplitude=2.0, radius=2.5):
        self.amplitude = float(amplitude)
        self.radius = float(radius)

    def cutoff(self, u):
        r2 = (u / self.radius) ** 2
        inside = r2 < 1.0 - 2e-3  # chi underflows to exactly 0 beyond this
        g = np.where(inside, 1.0 / np.where(inside, 1.0 - r2, 1.0), 0.0)
        chi = np.where(inside, np.exp(1.0 - g), 0.0)
        return chi, g, inside

    def f(self, u, cut=None):
        u = np.asarray(u, dtype=float)
        chi, _, _ = self.cutoff(u) if cut is None else cut
        return self.amplitude * u * (1.0 - u * u) * chi

    def df(self, u, cut=None):
        u = np.asarray(u, dtype=float)
        chi, g, inside = self.cutoff(u) if cut is None else cut
        r = self.radius
        gp = np.where(inside, (2.0 * u / r**2) * g * g, 0.0)
        chip = -gp * chi
        return self.amplitude * ((1.0 - 3.0 * u * u) * chi + u * (1.0 - u * u) * chip)


class ReactionDiffusionModel(_SpectralModel):
    """u_t = Lap u + f(u); the state is the coefficient vector.

    The reaction supplies ``cutoff(u)`` (whatever f and f' share at the grid
    values u), ``f(u, cut)`` and ``df(u, cut)``; each stage's base grid values
    and their cutoff are computed once, for both.  f is evaluated on the
    dealiased grid of ``min_grid_points``, whose 3/2 rule is exact for
    quadratic products only; the bump reaction is not a polynomial, so
    results carry an aliasing error that depends on that grid.
    """

    kind = "rd"
    name = "reaction-diffusion"

    def __init__(self, es, T=1.0, reaction=None, mesh=None):
        if es.subspace == DIV_FREE:
            raise ValueError("reaction-diffusion is scalar")
        super().__init__(es, T, mesh)
        self.lin = -es.lam
        self.reaction = reaction if reaction is not None else BumpReaction()
        self.n = es.min_grid_points(dealias=True)

    def _grid(self, u):
        vals = values_from_coeffs(self.es, u, self.n)
        return vals, self.reaction.cutoff(vals)

    def _nonlin(self, g):
        vals, cut = g
        return coeffs_from_values(self.es, self.reaction.f(vals, cut))

    def _dnonlin(self, g, v):
        """f'(u) v for the base grid values and cutoff ``g`` of u and tangent columns v (B, nm)."""
        vals, cut = g
        tvals = values_from_coeffs(self.es, v, self.n)
        return coeffs_from_values(self.es, self.reaction.df(vals, cut)[None, ...] * tvals)


# ---------------------------------------------------------------------------
# 2D incompressible Navier-Stokes (vorticity-streamfunction)
# ---------------------------------------------------------------------------


# the largest kmax at which a Navier-Stokes stage on the dense grid maps
# measured no slower than on the FFTs they replace (see the class docstring)
_NS_MAX_KMAX = 6


class NavierStokesModel(_SpectralModel):
    """omega_t + u . grad omega = nu Lap omega + curl f, marched in velocity
    coefficients.

    The state is the divergence-free velocity coefficient vector, (nm,) or
    (B, nm), as for reaction-diffusion: the curl maps each velocity mode to
    one vorticity mode of the same |k|, so the linear part is -nu lambda_j and
    the forcing is its own coefficient vector.  Two real matrices, built once
    from spectral's velocity half spectrum of each unit coefficient vector,
    carry every transform, so a stage is one matmul each way:

    * ``_to_grid`` (nm, 4 n^2): u1, u2, d omega/dx1 and d omega/dx2 on the
      dealiased n x n grid of each unit coefficient vector;
    * ``_from_grid`` (n^2, nm): grid advection a -> the velocity coefficients
      of -P a (the DFT, then the inverse curl, read at the retained modes),
      exact because n >= 3 kmax + 1.

    Both grow as kmax^4 (n ~ 3 kmax, nm ~ 2 kmax^2), while the five FFTs per
    stage they replace grow as kmax^2 log kmax.  Above kmax 6 a stage on them
    measured slower (a solve stage 1.7x at kmax 7; a 64-column tangent stage
    4x at kmax 16, with 104 MiB of maps), so the model refuses larger kmax.
    """

    kind = "ns"
    name = "Navier-Stokes"

    def __init__(self, es, viscosity, T=1.0, forcing=None, mesh=None):
        if es.subspace != DIV_FREE:
            raise ValueError("Navier-Stokes needs the divergence-free eigensystem")
        if es.kmax > _NS_MAX_KMAX:
            raise ValueError(
                f"Navier-Stokes supports kmax <= {_NS_MAX_KMAX} (its dense grid maps grow as kmax^4)"
            )
        if forcing is not None and forcing.es != es:
            raise ValueError("forcing must live in the model eigensystem")
        super().__init__(es, T, mesh)
        self.nu = float(viscosity)
        self.lin = -self.nu * es.lam
        self.forcing = forcing.data if forcing is not None and np.any(forcing.data) else None

        self.n = n = es.min_grid_points(dealias=True)
        k1, k2 = np.fft.fftfreq(n, d=1.0 / n)[:, None], np.fft.rfftfreq(n, d=1.0 / n)
        # d/dx1 and d/dx2 on the half spectrum, broadcasting to (n, n//2+1)
        self.ik1, self.ik2 = 2j * np.pi * k1, 2j * np.pi * k2
        lam = 4.0 * np.pi**2 * (k1**2 + k2**2)
        # the inverse curl: vorticity -> velocity (-d/dx2, d/dx1) of the
        # streamfunction Lap^-1 omega = -omega/lam, 0 at k = 0; (2, n, n//2+1)
        inv_lap = np.where(lam > 0, -1.0 / np.where(lam > 0, lam, 1.0), 0.0)
        self._inv_curl = np.stack([-self.ik2 * inv_lap, self.ik1 * inv_lap])

        vel = spectrum_from_coeffs(es, np.eye(es.size), n)
        w = self._curl(vel)
        specs = np.stack([vel[:, 0], vel[:, 1], self.ik1 * w, self.ik2 * w], 1)
        self._to_grid = np.fft.irfft2(specs, (n, n), norm="forward").reshape(es.size, 4 * n * n)
        # -P a reads the inverse curl of a's DFT at the retained modes only, so
        # the map is its adjoint: column j is minus the grid values of the
        # conjugate inverse curl applied to mode j's velocity spectrum, / n^2
        adj = (self._inv_curl.conj() * vel).sum(axis=1)
        self._from_grid = -np.fft.irfft2(adj, (n, n), norm="forward").reshape(es.size, n * n).T / (n * n)

    def _curl(self, vel):
        """Vorticity d u2/dx1 - d u1/dx2 of velocity half spectra (..., 2, n, n//2+1)."""
        return self.ik1 * vel[..., 1, :, :] - self.ik2 * vel[..., 0, :, :]

    def _grid(self, v):
        """u1, u2, d omega/dx1, d omega/dx2 of state(s) v on the grid, (..., 4, n^2)."""
        return (v @ self._to_grid).reshape(v.shape[:-1] + (4, -1))

    def _nonlin(self, g):
        out = (g[0] * g[2] + g[1] * g[3]) @ self._from_grid  # -P(u . grad omega)
        if self.forcing is not None:
            out = out + self.forcing
        return out

    def _dnonlin(self, g, v):
        # -P(u . grad omega' + u' . grad omega) for tangent states v (B, nm)
        return np.einsum("bip,ip->bp", self._grid(v), g[[2, 3, 0, 1]]) @ self._from_grid

    def lattice_divergence(self, field):
        """Max over nodes of max |div u| / max |u| on the half spectrum, with u
        rebuilt from the vorticity of each snapshot through the inverse curl
        the marcher projects with.

        Zero up to rounding by construction (velocity lives in the div-free
        basis); exposed as the projection diagnostic.
        """
        u = self._inv_curl * self._curl(spectrum_from_coeffs(self.es, field.data, self.n))[:, None]
        div = np.abs(self.ik1 * u[:, 0] + self.ik2 * u[:, 1]).max(axis=(1, 2))
        return float((div / np.maximum(np.abs(u).max(axis=(1, 2, 3)), 1e-300)).max())

    def energy_balance_residual(self, field):
        """|E(T) - E(0) + nu int ||grad u||^2 - int <f,u>| / T (f=0 supported)."""
        if self.forcing is not None:
            raise NotImplementedError("energy residual implemented for f = 0")
        energy = 0.5 * field.squared_l2_profile()
        enstrophy = np.einsum("m,tm->t", self.es.lam, field.data**2)
        lhs = energy[-1] - energy[0]
        rhs = -self.nu * float(field.mesh.weights @ enstrophy)
        return abs(lhs - rhs) / field.mesh.T


# ---------------------------------------------------------------------------
# directional differentiability diagnostic
# ---------------------------------------------------------------------------


# remainders at or below this are rounding, and the slope fit leaves them out
REMAINDER_FLOOR = 1e-14


def qmd_remainder_slope(model, theta0, h, s_grid):
    """Remainders rho(s) = || G(theta0 + s h) - G(theta0) - s I[h] ||_L2 and
    the log-log slope (2.0 for smooth models); the slope is NaN when fewer
    than two remainders exceed REMAINDER_FLOOR, i.e. when the model is linear
    along h to rounding (always for heat).
    """
    s_grid = np.asarray(sorted(s_grid), dtype=float)
    if s_grid.size < 4:
        raise ValueError("need at least 4 perturbation sizes")
    base = model.solve(theta0)
    tangent = model.linearize(theta0, h)
    remainders = []
    for s in s_grid:
        pert = model.solve(theta0 + s * h)
        resid = pert.data - base.data - s * tangent.data
        val = float(np.sqrt(model.mesh.weights @ np.einsum("tm,tm->t", resid, resid)))
        remainders.append(val / np.sqrt(model.mesh.T))  # uniform design density 1/T
    remainders = np.array(remainders)
    good = remainders > REMAINDER_FLOOR
    slope = float("nan")
    if good.sum() >= 2:
        slope = float(np.polyfit(np.log(s_grid[good]), np.log(remainders[good]), 1)[0])
    return {
        "s": s_grid.tolist(),
        "remainders": remainders.tolist(),
        "normalized": (remainders / s_grid).tolist(),
        "slope": slope,
    }
