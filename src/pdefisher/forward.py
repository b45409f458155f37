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
    _lattice,
    _point_table,
    _Scratch,
    coeffs_from_values,
    derivative,
    multiplication_map,
    table_layout,
    values_from_coeffs,
)

_WINDOW_RTOL = 1e-9  # how far a window endpoint may sit from its node, relative to max(1, T)
_N_CONTOUR = 32  # points on the contour that averages the ETDRK4 phi-functions


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
    def graded(cls, T, levels, steps_per_block):
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

    def window_slice(self, t0, t1):
        """Node index range covering [t0, t1]; endpoints must be nodes."""
        i0 = int(np.argmin(np.abs(self.nodes - t0)))
        i1 = int(np.argmin(np.abs(self.nodes - t1)))
        tol = _WINDOW_RTOL * max(1.0, self.T)
        if abs(self.nodes[i0] - t0) > tol or abs(self.nodes[i1] - t1) > tol:
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


_plan = _Scratch()  # each thread's last point plan, and its own work arrays for the table


def _point_plan(es, mesh, t, x):
    """What evaluating at (t, x) does before any field enters: time stencils
    (idx, w) and the point table with its spare.  A thread reuses its last
    plan while the mesh (the same object), eigensystem (==) and bytes of t and
    x match, so a replicate's evaluations at its design points build one.
    The value checks run here, before a plan is built: a reused plan's t and
    x are the bytes that passed them."""
    key = (mesh, es, t.tobytes(), x.tobytes())
    if getattr(_plan, "key", None) != key:
        if not np.all((t >= -1e-12) & (t <= mesh.T + 1e-12)):
            raise ValueError("evaluation time outside [0, T] or not finite")
        if not np.all(np.isfinite(x)):
            raise ValueError("evaluation point not finite")
        _plan.key = None  # an error below leaves no half-built plan
        _plan.value = _time_stencils(mesh, t), _point_table(es, x, _plan)
        _plan.key = key
    return _plan.value


class SpaceTimeField:
    """Coefficient snapshots on a time mesh; a tangent flow at theta0 carries ``base`` = G(theta0)."""

    def __init__(self, es, mesh, data, base=None):
        data = np.asarray(data, dtype=float)
        if data.shape != (mesh.n_nodes, es.size):
            raise ValueError("snapshot array does not match mesh/eigensystem")
        self.es = es
        self.mesh = mesh
        self.data = data
        self.base = base
        self._layout = None  # data in the point table's columns, on first evaluate

    def evaluate(self, t, x):
        """Values at scattered points: exact Fourier sum in space, cubic in time.

        t: (nq,) in [0, T], x: (nq, d).  Returns (nq,) for scalar fields and
        (nq, 2) for divergence-free ones.  The snapshots are laid out once in
        the point table's columns (``spectral.table_layout``, p components)
        and contracted with the points' plan (:func:`_point_plan`, which
        checks the values) in blocks of nq // (4 p) points: one gather of the
        block's four stencil snapshots into the plan's spare, which holds nq
        table rows, then the table and time weights.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if t.ndim != 1 or x.shape != (t.shape[0], self.es.d):
            raise ValueError(f"need t (nq,) and x (nq, {self.es.d}), got {t.shape} and {x.shape}")
        if self._layout is None:  # threads racing here build equal arrays
            self._layout = table_layout(self.es, self.data).reshape(self.mesh.n_nodes, -1)
        (idx, w), (table, spare) = _point_plan(self.es, self.mesh, t, x)
        nq, p, width = t.shape[0], self.es.p, table.shape[1]
        b = max(nq // (4 * p), 1)
        buf = spare.reshape(-1)[: b * 4 * p * width].reshape(b, 4, p * width) if nq >= 4 * p else None
        out = np.empty((nq, p))
        for s in range(0, nq, b):
            q, n = slice(s, s + b), min(b, nq - s)
            # "clip": unbuffered; with fewer than 4 p points the gather takes a new array
            rows = np.take(self._layout, idx[q], axis=0, out=None if buf is None else buf[:n], mode="clip")
            vals = rows.reshape(n, 4 * p, width) @ table[q, :, None]
            np.matmul(w[q, None], vals.reshape(n, 4, p), out=out[q, None])
        return out if self.es.dirs is not None else out[:, 0]

    def squared_l2_profile(self):
        """Spatial L^2 norm squared at every node (Parseval)."""
        return np.einsum("tm,tm->t", self.data, self.data)


# ---------------------------------------------------------------------------
# exponential integrator machinery
# ---------------------------------------------------------------------------


def _etdrk4_coeffs(h, lin):
    """Cox-Matthews ETDRK4 coefficients for diagonal linear part ``lin``.

    phi-functions evaluated by averaging over a complex contour around h*lin,
    which is stable through lin = 0.
    """
    z0 = h * lin
    roots = np.exp(2j * np.pi * (np.arange(_N_CONTOUR) + 0.5) / _N_CONTOUR)
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
    i, is the exact Jacobian-vector product of the base step; every
    coefficient acts on each row alone, so base and tangents step as one
    array.
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
    """Solve and linearize of every model, on the ETDRK4 march of the
    pseudo-spectral models (heat replaces the march by its closed form).

    The marched models march one coefficient array, (1 + B, nm): row 0 the
    base state and the B rows below it tangent states, so every snapshot is a
    state and each ETDRK4 coefficient multiplies all rows at once.  Such a
    subclass sets ``lin`` (the diagonal linear part, (nm,)) and ``name`` (for
    the blow-up error), and supplies ``_stage(w)``: for a stage state w, the
    nonlinearity at its base row w[0] stacked over that nonlinearity's
    derivative at w[0] applied to its tangent rows w[1:].
    """

    def __init__(self, es, T=1.0, mesh=None):
        self.es = es
        self.T = float(T)
        self.mesh = _checked_mesh(T, mesh)

    def _march(self, u, v=None, on_node=None):
        """Snapshots of the base march from state u.  Tangent states v (B, nm),
        if given, are marched below u in one state array, and each node's
        tangent block goes to on_node(i, V_i) as the (nm, B) view of the march
        state, which no later node writes (each step returns a new array)."""
        w = u[None] if v is None else np.concatenate([u[None], v]).copy()  # C order, whatever v's
        snaps = np.empty((self.mesh.n_nodes, self.es.size))
        snaps[0] = u
        if v is not None:
            on_node(0, w[1:].T)
        for i0, nsteps, h in self.mesh.blocks:
            c = _etdrk4_coeffs(h, self.lin[None])  # (1, nm): no broadcast on a solve's (1, nm) state
            for s in range(nsteps):
                w = _etdrk4_step(w, self._stage, c)
                if not np.all(np.isfinite(w[0])):
                    raise RuntimeError(f"{self.name} solve blew up at t={self.mesh.nodes[i0+s+1]:.4g}")
                snaps[i0 + s + 1] = w[0]
                if v is not None:
                    on_node(i0 + s + 1, w[1:].T)
        return snaps

    def solve(self, theta):
        return SpaceTimeField(self.es, self.mesh, self._march(theta.data))

    def linearize(self, theta0, h, on_node=None):
        """Tangent flow at theta0 from h, marched next to G(theta0).

        A FourierCoeffs h with no ``on_node`` returns its tangent as a
        SpaceTimeField whose ``base`` is G(theta0).  Otherwise the tangent is
        not stored: each node's block V_i of the columns h (nm, B), an
        (nm, B) view of the march state, which no later node writes, goes to
        on_node(i, V_i) in mesh order from node 0, and only G(theta0) is
        returned.
        """
        single = isinstance(h, FourierCoeffs)
        held = None
        if on_node is None:
            if not single:
                raise ValueError("tangent columns stream: pass on_node(i, V_i) to take each node's block")
            held = np.empty((self.mesh.n_nodes, self.es.size, 1))
            on_node = held.__setitem__
        cols = h.data[:, None] if single else np.asarray(h, dtype=float)
        base = SpaceTimeField(self.es, self.mesh, self._march(theta0.data, cols.T, on_node))
        return base if held is None else SpaceTimeField(self.es, self.mesh, held[:, :, 0], base)


# ---------------------------------------------------------------------------
# heat flow (closed form)
# ---------------------------------------------------------------------------


class HeatModel(_SpectralModel):
    """u_t = Lap u; coefficientwise decay e^(-lambda t), exact at any node.
    The model is linear, so its tangent flow is the flow itself: ``_march``
    gives both in closed form, under the marched models' solve and linearize."""

    kind = "heat"

    def _march(self, u, v=None, on_node=None):
        decay = np.exp(-np.outer(self.mesh.nodes, self.es.lam))
        if v is not None:  # node by node, each block (nm, B) and C-contiguous
            for i, d in enumerate(decay):
                on_node(i, d[:, None] * v.T)
        return decay * u


# ---------------------------------------------------------------------------
# reaction-diffusion
# ---------------------------------------------------------------------------


class BumpReaction:
    """f(u) = A u (1 - u^2) chi(u), chi(u) = exp(1 - g), g = 1/(1 - (u/R)^2),
    a C^inf bump supported on [-R, R].  ``f_df`` evaluates f and f' in one
    pass over the terms they share (chi, g and u^2); ``f`` evaluates f
    alone from the same terms, so it rounds exactly as f_df's f."""

    def __init__(self, amplitude=2.0, radius=2.5):
        self.amplitude = float(amplitude)
        self.radius = float(radius)

    def _terms(self, u):
        """u, u^2, g, A chi and p = u (1 - u^2): f = A chi p."""
        u = np.asarray(u, dtype=float)
        u2 = u * u
        # 1 - (u/R)^2 is floored at 1e-3, so g <= 1000 also outside the
        # support: from 1 - (u/R)^2 < 1/746 on, exp(1 - g) underflows to
        # exactly 0, and with it f and f'
        g = 1.0 / np.maximum(1.0 - u2 / self.radius**2, 1e-3)
        return u, u2, g, self.amplitude * np.exp(1.0 - g), u * (1.0 - u2)

    def f(self, u):
        *_, a, p = self._terms(u)
        return a * p

    def f_df(self, u):
        u, u2, g, a, p = self._terms(u)
        # chi' = -chi g^2 d(u^2/R^2)/du
        return a * p, a * ((1.0 - 3.0 * u2) - p * (2.0 / self.radius**2) * u * g * g)


class ReactionDiffusionModel(_SpectralModel):
    """u_t = Lap u + f(u); the state is the coefficient vector.

    The reaction supplies ``f(u)`` and ``f_df(u)``, f and f' at grid values
    u, evaluated once per stage at the base row's grid values; a solve's
    stages take f alone, which rounds as f_df's f.  f is evaluated on the
    dealiased grid of ``min_grid_points``, whose 3/2 rule is exact for
    quadratic products only; the bump reaction is not a polynomial, so
    results carry an aliasing error that depends on that grid.

    The base row goes to the grid and back on its own, so a solve and the
    base of a linearize are the same products, bitwise (a BLAS product's
    rows depend on how many rows it takes).  A stage multiplies its B tangent
    rows by f'(u) on that grid in one of two ways, equal up to rounding: with
    fewer than the grid's ``gather_from`` rows (spectral.GATHER_MIN_COLUMNS
    on a dense grid, nm on an FFT grid) they go to the grid and back by one
    ``values_from_coeffs``/``coeffs_from_values`` pair; from ``gather_from``
    rows on they are v @ W, W the multiplication map gathered from one rfft
    of f'(u).
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
        self._gather_from = _lattice(es, self.n).gather_from

    def _stage(self, w):
        """f(u) over f'(u) v for the stage state w: base u = w[0], tangents v = w[1:]."""
        es = self.es
        u = values_from_coeffs(es, w[0], self.n)
        if w.shape[0] == 1:
            return coeffs_from_values(es, self.reaction.f(u))[None]
        f, df = self.reaction.f_df(u)
        out = np.empty_like(w)
        out[0] = coeffs_from_values(es, f)
        if w.shape[0] > self._gather_from:
            np.matmul(w[1:], multiplication_map(es, df), out=out[1:])
        else:
            out[1:] = coeffs_from_values(es, df * values_from_coeffs(es, w[1:], self.n))
        return out


# ---------------------------------------------------------------------------
# 2D incompressible Navier-Stokes (vorticity-streamfunction)
# ---------------------------------------------------------------------------


# the largest kmax at which a Navier-Stokes stage on the dense grid maps
# measured no slower than on the FFTs they replace (see the class docstring)
_NS_MAX_KMAX = 6


class NavierStokesModel(_SpectralModel):
    """omega_t + u . grad omega = nu Lap omega + curl f, marched in velocity
    coefficients.

    The state is the divergence-free velocity coefficient vector, stacked
    as for reaction-diffusion: the curl maps each velocity mode to
    one vorticity mode of the same |k| on the scalar twin ``es.scalar``, so
    the linear part is -nu lambda_j and the forcing is its own coefficient
    vector.  Two real matrices, built once from spectral's coefficient
    derivatives and the twin's grid transforms, carry every transform, so a
    base stage is one matmul each way:

    * ``_to_grid`` (nm, 4 n^2): u1, u2, d omega/dx1 and d omega/dx2 on the
      dealiased n x n grid of each unit coefficient vector, omega the
      coefficient curl d u2/dx1 - d u1/dx2;
    * ``_from_grid`` (n^2, nm): grid advection a -> the velocity coefficients
      of -P a: a's projection on the twin times the inverse curl curl^T /
      lambda (<curl e_j, curl e_l> = lambda_j delta_jl), exact as n >= 3 kmax + 1.

    The tangent rows of a stage are linear in the tangent states v, so the
    stage contracts its base row's four grid fields into one (nm, n^2) map W
    once, and maps v through v W _from_grid: one grid field per column, not
    four.

    Both maps grow as kmax^4 (n ~ 3 kmax, nm ~ 2 kmax^2), while the five FFTs
    per stage they replace grow as kmax^2 log kmax.  Above kmax 6 a stage on
    them measured slower (a solve stage 1.7x at kmax 7; a 64-column tangent
    stage 4x at kmax 16, with 104 MiB of maps, measured before the tangent
    stage contracted the base into W), so the model refuses larger kmax.
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
        twin, eye = es.scalar, np.eye(es.size)
        curl = self._curl(eye)  # row j: the vorticity of unit state j
        u1, u2 = eye * es.dirs[:, 0], eye * es.dirs[:, 1]
        fields = np.stack([u1, u2, derivative(twin, curl, 0), derivative(twin, curl, 1)], 1)
        self._to_grid = values_from_coeffs(twin, fields, n).reshape(es.size, 4 * n * n)
        self._from_grid = -coeffs_from_values(twin, np.eye(n * n).reshape(n * n, n, n)) @ curl.T / es.lam

    def _curl(self, v):
        """Vorticity d u2/dx1 - d u1/dx2 of states v (..., nm), on the scalar twin."""
        es = self.es
        return derivative(es, v, 0) * es.dirs[:, 1] - derivative(es, v, 1) * es.dirs[:, 0]

    def _stage(self, w):
        """-P(u . grad omega) + curl f at the base row u = w[0], over
        -P(u . grad omega' + u' . grad omega) at the tangent rows u' = w[1:]."""
        g = (w[0] @ self._to_grid).reshape(4, -1)  # u1, u2, d omega/dx1, d omega/dx2
        base = (g[0] * g[2] + g[1] * g[3]) @ self._from_grid
        if self.forcing is not None:
            base += self.forcing
        if w.shape[0] == 1:
            return base[None]
        # multi_dot picks (v W) F or v (W F) by the shapes
        W = np.einsum("jip,ip->jp", self._to_grid.reshape(self.es.size, 4, -1), g[[2, 3, 0, 1]])
        out = np.empty_like(w)
        out[0] = base
        np.linalg.multi_dot([w[1:], W, self._from_grid], out=out[1:])
        return out

    def lattice_divergence(self, field):
        """Max over nodes of max |div u| / max |u| over the twin coefficients
        of u's components, with u rebuilt from the vorticity of each snapshot
        through the inverse curl the marcher projects with (curl^T / lambda).

        Zero up to rounding for any state, since the velocity lives in the
        div-free basis: it checks the spectral algebra, not the march.
        """
        curl = self._curl(np.eye(self.es.size))
        u = (self._curl(field.data) @ curl.T / self.es.lam)[..., None] * self.es.dirs  # (nodes, nm, 2)
        div = np.abs(derivative(self.es.scalar, u[..., 0], 0) + derivative(self.es.scalar, u[..., 1], 1)).max(axis=1)
        return float((div / np.maximum(np.abs(u).max(axis=(1, 2)), 1e-300)).max())

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

    Returns (report, tangent): the tangent ``model.linearize(theta0, h)`` it
    marched, whose ``base`` is G(theta0).
    """
    s_grid = np.asarray(sorted(s_grid), dtype=float)
    if s_grid.size < 4:
        raise ValueError("need at least 4 perturbation sizes")
    tangent = model.linearize(theta0, h)
    remainders = []
    for s in s_grid:
        pert = model.solve(theta0 + s * h)
        resid = pert.data - tangent.base.data - s * tangent.data
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
    }, tangent
