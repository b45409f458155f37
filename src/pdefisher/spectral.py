"""Fourier analysis on the unit torus T^d (d in {1,2}).

Fields are represented by real coefficients in an orthonormal eigenbasis of
the periodic Laplacian: the constant mode, and sqrt(2)*cos(2 pi k.x) /
sqrt(2)*sin(2 pi k.x) pairs over a half lattice of wavevectors.  Three
subspaces are supported:

* ``full``      -- scalar fields, constant mode included, tau_j = 1 + lambda_j
* ``mean-zero`` -- scalar fields with zero mean, tau_j = 1 + lambda_j
* ``div-free``  -- mean-zero divergence-free vector fields on T^2 (p = 2),
                   basis k_perp/|k| times the scalar modes, tau_j = lambda_j

Eigenpairs are ordered by nondecreasing eigenvalue, ties broken
lexicographically on the wavevector and then cos before sin, so index maps
are reproducible across runs.

Only this module knows the Fourier layout.  Derivatives are coefficient
algebra (:func:`derivative`); a div-free field's velocity components are
scalar fields on its twin ``es.scalar``, the coefficients times dirs.  Scalar
grid transforms are real-to-complex: a field's DFT lives in the rfft half
spectrum, shape (n//2+1,) in d = 1 and (n, n//2+1) in d = 2 (last component
ky >= 0).  The cos and sin coefficients of wavevector k are the real and
imaginary parts of one entry; a d = 2 mode with ky < 0 is stored conjugated
at -k, and one with ky = 0 at both +-kx, since irfft2 needs that column
Hermitian.  Dealiased grids (3/2 rule, n >= 3 kmax + 1) are rounded up to the
next even n with no prime factor above 7, where the FFTs are fast.  Small
grids skip the FFTs: each keeps the FFT path's two matrices and transforms by
one matmul (DENSE_MAX_ENTRIES).

A pointwise product g * v projected back on the retained modes is a
multiplication operator: :func:`multiplication_map` gathers its (nm, nm)
matrix from one rfft of the grid values g, with the grid's own aliasing, so
many fields v multiply by one matmul and no transform of their own.  Below a
measured field count (GATHER_MIN_COLUMNS, ``_LatticeMap.gather_from``) the
two transforms cost less.
"""

import math
import threading

import numpy as np

FULL = "full"
MEAN_ZERO = "mean-zero"
DIV_FREE = "divergence-free-mean-zero"

_SUBSPACES = (FULL, MEAN_ZERO, DIV_FREE)

# kind codes for basis functions
KIND_CONST = 0
KIND_COS = 1
KIND_SIN = 2

TWO_PI = 2.0 * np.pi


def _seven_smooth(n):
    for p in (2, 3, 5, 7):
        while n % p == 0:
            n //= p
    return n == 1


class EigenSystem:
    """Ordered eigensystem of the periodic Laplacian on a retained subspace.

    Attributes
    ----------
    kvecs : (nm, d) int array of wavevectors (zero vector for the constant)
    kind  : (nm,) array of KIND_* codes
    lam   : (nm,) eigenvalues 4 pi^2 |k|^2, nondecreasing
    tau   : (nm,) scale weights (1 + lam on scalar scales, lam on div-free)
    dirs  : (nm, 2) unit vectors k_perp/|k| for the div-free subspace, else None
    scalar: for div-free, the mean-zero twin it transforms through, else None
    """

    def __init__(self, d, kmax, subspace, kvecs, kind, lam, tau, dirs=None, p=1, scalar=None):
        self.d = d
        self.kmax = kmax
        self.subspace = subspace
        self.kvecs = kvecs
        self.kind = kind
        self.lam = lam
        self.tau = tau
        self.dirs = dirs
        self.p = p
        self.scalar = scalar
        # where each mode lives in _point_table: its column in the float64
        # view of the per-point table of e^{2 pi i k.x}, and its amplitude
        cell = kvecs[:, 0] if d == 1 else kvecs[:, 0] * (2 * kmax + 1) + kvecs[:, 1] + kmax
        self._table_cols = 2 * cell + (kind == KIND_SIN)
        self._table_amp = np.where(kind == KIND_CONST, 1.0, np.sqrt(2.0))
        self._lattices = {}  # grid size n -> _LatticeMap, built on first use
        self._lookup = None  # (k, kind) -> index, built by the first index_of

    @property
    def size(self):
        return self.lam.shape[0]

    def min_grid_points(self, dealias=False):
        """Smallest even grid n >= 8 resolving the retained modes.

        With ``dealias`` the grid resolves exact products of two retained
        fields (3/2-rule: n >= 3*kmax + 1), and n is also 7-smooth (no prime
        factor above 7), so the FFTs are fast on the grids too large for
        dense maps (DENSE_MAX_ENTRIES), where a scalar marcher runs them.
        The rule is exact only for quadratic products: a nonlinearity that is not
        a polynomial of degree 2 (RD's bump reaction) aliases on any grid, and
        its results move with n (3.4e-9 relative for an RD tangent march
        between n = 194 and 196).
        """
        n = max(8, 3 * self.kmax + 1 if dealias else 2 * self.kmax + 2)
        n += n % 2
        while dealias and not _seven_smooth(n):
            n += 2
        return n

    def index_of(self, kvec, kind):
        """Index of a basis function, -1 if not retained."""
        es = self if self.scalar is None else self.scalar  # div-free: the twin's lookup, built once
        if es._lookup is None:
            es._lookup = {(tuple(k), c): j for j, (k, c) in enumerate(zip(es.kvecs.tolist(), es.kind.tolist()))}
        kvec = tuple(int(c) for c in np.atleast_1d(kvec))
        return es._lookup.get((kvec, int(kind)), -1)

    def __eq__(self, other):
        return (
            isinstance(other, EigenSystem)
            and self.d == other.d
            and self.kmax == other.kmax
            and self.subspace == other.subspace
        )

    def __hash__(self):
        return hash((self.d, self.kmax, self.subspace))


def build_eigensystem(d, kmax, subspace=FULL):
    """Enumerate and sort the retained eigenpairs.

    div-free requires d = 2 and yields vector-valued (p = 2) modes
    k_perp/|k| * sqrt(2) cos/sin(2 pi k.x) with a spectral gap lambda_1 > 0.
    """
    if subspace not in _SUBSPACES:
        raise ValueError(f"unknown subspace {subspace!r}")
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if subspace == DIV_FREE and d != 2:
        raise ValueError("divergence-free subspace requires d=2")
    if d not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")

    if subspace == DIV_FREE:  # the mean-zero twin's modes along k_perp/|k|
        twin = build_eigensystem(d, kmax, MEAN_ZERO)
        k = twin.kvecs
        dirs = np.stack([-k[:, 1], k[:, 0]], axis=1) / np.sqrt((k**2).sum(axis=1))[:, None]
        return EigenSystem(d, kmax, subspace, k, twin.kind, twin.lam, twin.lam, dirs=dirs, p=2, scalar=twin)

    # wavevectors k != 0 with |k_i| <= kmax, one per conjugate pair (first
    # nonzero component positive), each with a cos and a sin mode
    r = np.arange(-kmax, kmax + 1, dtype=np.int64)
    if d == 1:
        k = r[r > 0, None]
    else:
        k = np.stack(np.meshgrid(r[kmax:], r, indexing="ij"), -1).reshape(-1, 2)
        k = k[(k[:, 0] > 0) | (k[:, 1] > 0)]
    k = np.repeat(k, 2, axis=0)
    kind = np.tile(np.array([KIND_COS, KIND_SIN], dtype=np.int8), k.shape[0] // 2)
    if subspace == FULL:
        k = np.vstack([np.zeros((1, d), dtype=np.int64), k])
        kind = np.concatenate([np.array([KIND_CONST], dtype=np.int8), kind])
    # ordered by (|k|^2, k, kind), the integer keys of lambda = 4 pi^2 |k|^2
    ksq = (k**2).sum(axis=1)
    order = np.lexsort((kind, *k.T[::-1], ksq))
    lam = 4.0 * np.pi**2 * ksq[order]
    return EigenSystem(d, kmax, subspace, k[order], kind[order], lam, 1.0 + lam)


class FourierCoeffs:
    """A real field (or div-free vector field) as coefficients in an eigensystem."""

    def __init__(self, es, data):
        data = np.asarray(data, dtype=float)
        if data.shape != (es.size,):
            raise ValueError(f"expected {es.size} coefficients, got shape {data.shape}")
        self.es = es
        self.data = data

    @classmethod
    def zeros(cls, es):
        return cls(es, np.zeros(es.size))

    @classmethod
    def unit(cls, es, j):
        u = np.zeros(es.size)
        u[j] = 1.0
        return cls(es, u)

    def __add__(self, other):
        self._check(other)
        return FourierCoeffs(self.es, self.data + other.data)

    def __sub__(self, other):
        self._check(other)
        return FourierCoeffs(self.es, self.data - other.data)

    def __mul__(self, c):
        return FourierCoeffs(self.es, self.data * float(c))

    __rmul__ = __mul__

    def _check(self, other):
        if other.es != self.es:
            raise ValueError("eigensystem mismatch")


# ---------------------------------------------------------------------------
# transforms between coefficients and grid values
# ---------------------------------------------------------------------------


# The one dense-or-FFT choice: a scalar grid whose maps hold at most this
# many entries each (nm * n^d) transforms by one matmul each way.  An RD
# stage's round trip on 128 columns (1 BLAS thread) measured faster dense at
# d = 1 kmax 72 (32,480 entries: 0.45 vs 0.52 ms) and slower at kmax 76
# (36,720: 0.54 vs 0.46 ms); ROADMAP item 10 has the table.
DENSE_MAX_ENTRIES = 32768

# The one gathered-or-transforms choice for a multiplication stage g * v on B
# fields v: ``v @ multiplication_map(es, g)`` pays a fixed rfft of g and
# (nm, nm) gather, then nm^2 multiply-adds per field, against 2 nm n^d per
# field for the two dense transforms and O(n^d log n) for the two FFTs.  So a
# dense grid gathers from GATHER_MIN_COLUMNS fields, where the fixed cost is
# paid off, and an FFT grid from nm (a whole-basis march).  An RD tangent
# stage in microseconds, by the transforms / by the map (d = 1 unless marked,
# 1 BLAS thread, best of 30 timed loops):
#   nm  17, n  28:        B 8: 16/27    48: 21/29    128: 28/30
#   nm  65, n  98:        B 9: 24/41    32: 42/46    48: 51/52     64: 62/53   128: 99/62
#   nm  81, n  14, d = 2: B 32: 74/68   48: 92/72    64: 132/77   128: 224/91
#   nm 129, n 196:        B 32: 98/92   48: 140/99   64: 186/132  128: 320/168
#   nm 161, n 250, FFT:   B 48: 151/163 64: 187/177  128: 333/237  161: 396/271
#   nm 513, n 784, FFT:   B 256: 2786/3300           513: 6067/5853
# A basis of nm < 48 modes never marches 48 columns of its own.
GATHER_MIN_COLUMNS = 48


class _LatticeMap:
    """Where each scalar eigensystem entry lives in the rfft half spectrum, as
    offsets into its flattened float64 view (entry p: real part at 2p,
    imaginary at 2p + 1).  ``read``/``inv`` take each coefficient off the half
    spectrum; ``src``/``dst``/``fwd`` write it, the d = 2 modes with ky = 0
    twice.  The one realified <-> lattice convention: a cos coefficient u is
    Re c(k) = u/sqrt(2), a sin coefficient Im c(k) = -u/sqrt(2), the constant
    c(0).

    A grid of at most DENSE_MAX_ENTRIES map entries also holds the FFT path's
    own matrices, built once: ``to_grid`` (nm, n^d), the grid values of each
    unit coefficient vector, and ``from_grid`` (n^d, nm), the coefficients of
    each unit grid vector; otherwise both are None.  ``gather_from`` is the
    fewest fields a multiplication on this grid takes through
    :func:`multiplication_map` (GATHER_MIN_COLUMNS)."""

    def __init__(self, es, n):
        self.n = n
        self.shape = (n,) * (es.d - 1) + (n // 2 + 1,)

        def offset(k):
            return 2 * int(np.ravel_multi_index(tuple(c % n for c in k), self.shape))

        rows = []  # (mode, offset, coefficient -> entry scale)
        for j, (k, kind) in enumerate(zip(es.kvecs.tolist(), es.kind.tolist())):
            sign = -1 if k[-1] < 0 else 1  # ky < 0: stored conjugated at -k
            k = [sign * c for c in k]
            imag = int(kind == KIND_SIN)
            scale = 1.0 if kind == KIND_CONST else (-sign if imag else 1) / np.sqrt(2.0)
            rows.append((j, offset(k) + imag, scale))
            if kind != KIND_CONST and k[-1] == 0:  # irfft2 needs this column Hermitian
                rows.append((j, offset([-c for c in k]) + imag, -scale if imag else scale))
        self.src, self.dst, self.fwd = (np.array(col) for col in zip(*rows))
        first = np.r_[True, np.diff(self.src) > 0]  # a mirror row follows its mode
        self.read, self.inv = self.dst[first], 1.0 / self.fwd[first]

        self.mul = None  # multiplication_map's offset tables, on first use
        self.to_grid = self.from_grid = None
        self.gather_from = max(GATHER_MIN_COLUMNS, es.size)
        points = n**es.d
        if es.size * points <= DENSE_MAX_ENTRIES:
            self.gather_from = GATHER_MIN_COLUMNS
            self.to_grid = _fft_values(es, self, np.eye(es.size)).reshape(es.size, points)
            self.from_grid = _fft_coeffs(es, self, np.eye(points).reshape((points,) + (n,) * es.d))


def _lattice(es, n):
    lm = es._lattices.get(n)
    if lm is None:
        lm = es._lattices[n] = _LatticeMap(es, n)
    return lm


def _fft_values(es, lm, data):
    batch = data.shape[:-1]
    lat = np.zeros(batch + lm.shape, dtype=complex)
    lat.reshape(batch + (-1,)).view(float)[..., lm.dst] = data[..., lm.src] * lm.fwd
    return np.fft.irfftn(lat, s=(lm.n,) * es.d, axes=tuple(range(-es.d, 0)), norm="forward")


def _fft_coeffs(es, lm, values):
    chat = np.ascontiguousarray(np.fft.rfftn(values, axes=tuple(range(-es.d, 0)), norm="forward"))
    return chat.reshape(chat.shape[: -es.d] + (-1,)).view(float)[..., lm.read] * lm.inv


def values_from_coeffs(es, data, n):
    """Evaluate fields on the uniform n^d grid.

    data: (..., nm) real coefficients.  Returns (..., n[, n]) for scalar
    fields and (..., 2, n, n) for the div-free subspace, whose velocity
    components are the scalar twin's fields with coefficients data * dirs.
    A grid of at most DENSE_MAX_ENTRIES = nm * n^d map entries (the dealiased
    grid up to kmax 72 in d = 1 and kmax 5 in d = 2, div-free included) is
    one matmul with its ``to_grid``, the matrix of the inverse FFT of the half
    spectrum; larger grids run that FFT.
    """
    data = np.asarray(data, dtype=float)
    if es.dirs is not None:  # the velocity components, on the twin
        data, es = data[..., None, :] * es.dirs.T, es.scalar
    lm = _lattice(es, n)
    if lm.to_grid is None:
        return _fft_values(es, lm, data)
    return (data @ lm.to_grid).reshape(data.shape[:-1] + (n,) * es.d)


def coeffs_from_values(es, values):
    """Project grid values onto the retained modes (exact if band-limited).

    values: (..., n[, n]) scalar or (..., 2, n, n) for div-free.  Inverts
    :func:`values_from_coeffs` after the FFT: one half-spectrum entry is read
    per mode, so Hermitian ky = 0 columns are exact, and a div-free field's two
    component projections on the scalar twin are contracted with dirs.  On the
    grids where :func:`values_from_coeffs` is dense this is one matmul with
    ``from_grid``, the matrix of the same FFT path.
    """
    scalar = es if es.dirs is None else es.scalar
    lm = _lattice(scalar, values.shape[-1])
    if lm.from_grid is None:
        out = _fft_coeffs(scalar, lm, values)
    else:
        batch = values.shape[: values.ndim - scalar.d]
        out = values.reshape(batch + (-1,)) @ lm.from_grid
    if es.dirs is not None:
        return out[..., 0, :] * es.dirs[:, 0] + out[..., 1, :] * es.dirs[:, 1]
    return out


# the coefficients a multiplication map's terms carry, +-1, +-1/sqrt(2) and +-1/2
# (_multiplication_tables); the gathered vector holds the spectrum times each
_MUL_COEFS = np.array([1.0, -1.0, np.sqrt(0.5), -np.sqrt(0.5), 0.5, -0.5])


def _multiplication_tables(es, lm):
    """Where each entry of :func:`multiplication_map` reads the half spectrum.

    With C(m), S(m) the real and negated imaginary parts of the grid DFT at
    wavevector m (mod n), and the constant taken as the k = 0 cos mode times
    1/sqrt(2), entry (j, l) is a_j a_l times

        cos.cos  C(kj+kl) + C(kj-kl)     cos.sin  S(kj+kl) - S(kj-kl)
        sin.sin -C(kj+kl) + C(kj-kl)     sin.cos  S(kj+kl) + S(kj-kl)

    (a = 1/sqrt(2) on the constant, else 1).  A wavevector outside the half
    spectrum is read conjugated at -m.  So each term is one float64 entry of
    the half spectrum times an entry of _MUL_COEFS: returns the (2, nm, nm)
    offsets of the sum and difference terms into the spectrum's float64 view
    repeated once per coefficient.
    """
    n, k = lm.n, es.kvecs
    cosine = es.kind != KIND_SIN
    mixed = cosine[:, None] != cosine[None, :]  # a cos.sin product reads S, the others C
    negative = np.stack([~(mixed | cosine[:, None]), mixed & cosine[:, None]])
    m = np.stack([k[:, None, :] + k[None, :, :], k[:, None, :] - k[None, :, :]]) % n
    stored = m[..., -1] <= n // 2
    m[~stored] = -m[~stored] % n
    negative ^= mixed & stored  # S = -Im where stored, +Im conjugated
    const = (es.kind == KIND_CONST).astype(np.intp)
    coef = 2 * (const[:, None] + const[None, :]) + negative  # index into _MUL_COEFS
    cell = np.ravel_multi_index(tuple(np.moveaxis(m, -1, 0)), lm.shape)
    return coef * (2 * math.prod(lm.shape)) + 2 * cell + mixed


def multiplication_map(es, g):
    """W (nm, nm), W_jl = (1/N) sum_x e_j(x) g(x) e_l(x) over the N = n^d
    points of the grid values g (n[, n]) of a scalar eigensystem.

    For fields v (B, nm), ``v @ W`` is ``coeffs_from_values(es, g *
    values_from_coeffs(es, v, n))`` up to rounding: the product's projection
    on the retained modes, with the grid's own aliasing.  W is gathered from
    one rfft of g by two offset tables (``_multiplication_tables``, built on
    the grid's first map and kept on its lattice map), so it costs no
    transform per column.
    """
    lm = _lattice(es, g.shape[-1])
    if lm.mul is None:
        lm.mul = _multiplication_tables(es, lm)
    spec = np.fft.rfftn(g, norm="forward").reshape(-1).view(float)
    gathered = (_MUL_COEFS[:, None] * spec).reshape(-1)
    return np.take(gathered, lm.mul[0]) + np.take(gathered, lm.mul[1])


def derivative(es, data, axis):
    """d/dx_axis of the fields ``data`` (..., nm) as coefficients in the same
    basis: a cos coefficient becomes 2 pi k_axis times its sin partner's, a
    sin coefficient -2 pi k_axis times its cos partner's, the constant 0.  On
    div-free it differentiates the velocity, as a cos/sin pair shares dirs.
    """
    sign = np.where(es.kind == KIND_COS, 1, np.where(es.kind == KIND_SIN, -1, 0))
    partner = np.arange(es.size) + sign  # a sin mode follows its cos mode
    return np.asarray(data, dtype=float)[..., partner] * (sign * TWO_PI * es.kvecs[:, axis])


# ---------------------------------------------------------------------------
# the pivot pairing and scattered points
# ---------------------------------------------------------------------------


def pairing(u, v):
    """L^2 inner product via Parseval (the pivot pairing)."""
    if u.es != v.es:
        raise ValueError("eigensystem mismatch")
    return float(u.data @ v.data)


class _Scratch(threading.local):
    """Each thread's complex work arrays for :func:`_point_table`, one per slot
    name, grown on demand and kept for the thread's lifetime.  Arrays made
    fresh for each call come from mmap and page-fault each time, unless
    an earlier free has raised glibc's mmap threshold; reused, evaluation
    costs the same whatever ran before it."""

    def __init__(self):
        self.arrays = {}

    def __call__(self, slot, shape):
        n = math.prod(shape)
        buf = self.arrays.get(slot)
        if buf is None or buf.size < n:
            buf = self.arrays[slot] = np.empty(n, dtype=complex)
        return buf[:n].reshape(shape)


_scratch = _Scratch()


def _point_table(es, x, work):
    """e^{2 pi i k.x} at points x (nq, d) for cells k = 0..kmax (d = 1) or
    (0..kmax) x (-kmax..kmax), as a float64 view (nq, 2 cells): per axis one
    exponential z, powers z^(m+j) = z^m z^j (doubling m) as rows over the
    points, ky < 0 by conjugation, d = 2 cells by an outer product, one transpose.

    Returns ``(table, spare)``: ``spare`` has the table's shape and holds
    nothing it needs (the array it was transposed from).  Both live in the
    work arrays of the _Scratch ``work``, which its next call overwrites, so
    copy what you keep.  The two largest hold 2 cells x nq x 16 B each for
    the most points the thread has tabled.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    nq, kmax = x.shape[0], es.kmax
    pw = work("powers", (es.d, kmax + 1, nq))
    pw[:, 0] = 1.0
    pw[:, 1] = np.exp(TWO_PI * 1j * x.T)
    m = 1
    while m < kmax:
        j = min(m, kmax - m)
        np.multiply(pw[:, 1 : j + 1], pw[:, m : m + 1], out=pw[:, m + 1 : m + j + 1])
        m += j
    if es.d == 2:
        ky = work("ky", (2 * kmax + 1, nq))
        np.conjugate(pw[1, :0:-1], out=ky[:kmax])
        ky[kmax:] = pw[1]
        pw = np.multiply(pw[0, :, None], ky, out=work("cells", (kmax + 1,) + ky.shape))
    table = work("table", (nq, math.prod(pw.shape[:-1])))  # (points, cells), also for no points
    np.copyto(table, pw.reshape(table.shape[::-1]).T)
    return table.view(float), pw.reshape(table.shape).view(float)


def table_layout(es, data):
    """Fields data (..., nm) laid out for :func:`_point_table`, (..., p, 2
    cells): component i holds each mode's coefficient times its amplitude
    (sqrt(2); 1 for the constant) and, on div-free, its dirs entry i, in its
    mode's column, so ``layout @ _point_table(es, x, work)[0][q]`` is the
    fields' value at x[q].  Unused columns hold 0."""
    width = 2 * (es.kmax + 1) * (2 * es.kmax + 1) ** (es.d - 1)
    scale = es._table_amp * (np.ones((1, es.size)) if es.dirs is None else es.dirs.T)  # (p, nm)
    layout = np.zeros(np.shape(data)[:-1] + (es.p, width))
    layout[..., es._table_cols] = np.asarray(data, dtype=float)[..., None, :] * scale
    return layout


def basis_values_at(es, x):
    """Evaluate all basis functions at scattered points x of shape (nq, d).

    Returns (nq, nm) for scalar subspaces; vector values for div-free are
    dirs[m] * result[:, m].  The tests' oracle view of :func:`_point_table`,
    which evaluation contracts: its columns in mode order, times amplitudes.
    """
    out = _point_table(es, x, _scratch)[0][:, es._table_cols]
    out *= es._table_amp
    return out
