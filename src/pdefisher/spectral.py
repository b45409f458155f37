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

Grid transforms are real-to-complex: a field's DFT lives in the rfft half
spectrum, shape (n//2+1,) in d = 1 and (n, n//2+1) in d = 2 (last component
ky >= 0).  The cos and sin coefficients of wavevector k are the real and
imaginary parts of one entry; a d = 2 mode with ky < 0 is stored conjugated
at -k, and one with ky = 0 at both +-kx, since irfft2 needs that column
Hermitian.  Dealiased grids (3/2 rule, n >= 3 kmax + 1) are rounded up to the
next even n with no prime factor above 7, where the FFTs are fast.
"""

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


def _half_lattice(d, kmax):
    """Wavevectors k != 0 with |k_i| <= kmax, one per conjugate pair.

    Convention: first nonzero component positive; lexicographic order.
    """
    out = []
    if d == 1:
        for k1 in range(1, kmax + 1):
            out.append((k1,))
    else:
        for k1 in range(0, kmax + 1):
            for k2 in range(-kmax, kmax + 1):
                if k1 == 0 and k2 <= 0:
                    continue
                out.append((k1, k2))
        out.sort()
    return out


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
    """

    def __init__(self, d, kmax, subspace, kvecs, kind, lam, tau, dirs=None, p=1):
        self.d = d
        self.kmax = kmax
        self.subspace = subspace
        self.kvecs = kvecs
        self.kind = kind
        self.lam = lam
        self.tau = tau
        self.dirs = dirs
        self.p = p
        # where basis_values_at reads each mode: an offset into the float64
        # view of its per-point table of e^{2 pi i k.x}, and the amplitude
        if d == 1:
            cell = kvecs[:, 0]
        else:
            cell = kvecs[:, 0] * (2 * kmax + 1) + kvecs[:, 1] + kmax
        self._table_cols = 2 * cell + (kind == KIND_SIN)
        self._table_amp = np.where(kind == KIND_CONST, 1.0, np.sqrt(2.0))

    @property
    def size(self):
        return self.lam.shape[0]

    def min_grid_points(self, dealias=False):
        """Smallest even grid n >= 8 resolving the retained modes.

        With ``dealias`` the grid resolves exact products of two retained
        fields (3/2-rule: n >= 3*kmax + 1), and n is also 7-smooth (no prime
        factor above 7), so the FFTs the marchers run on it are fast.  The
        rule is exact only for quadratic products: a nonlinearity that is not
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
        kvec = tuple(int(c) for c in np.atleast_1d(kvec))
        return self._lookup.get((kvec, int(kind)), -1)

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

    rows = []  # (lam, kvec, kind)
    if subspace == FULL:
        rows.append((0.0, (0,) * d, KIND_CONST))
    for k in _half_lattice(d, kmax):
        lam = 4.0 * np.pi**2 * sum(c * c for c in k)
        rows.append((lam, k, KIND_COS))
        rows.append((lam, k, KIND_SIN))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))

    kvecs = np.array([r[1] for r in rows], dtype=np.int64).reshape(len(rows), d)
    kind = np.array([r[2] for r in rows], dtype=np.int8)
    lam = np.array([r[0] for r in rows])

    if subspace == DIV_FREE:
        tau = lam.copy()
        norms = np.sqrt((kvecs**2).sum(axis=1)).astype(float)
        dirs = np.stack([-kvecs[:, 1] / norms, kvecs[:, 0] / norms], axis=1)
        es = EigenSystem(d, kmax, subspace, kvecs, kind, lam, tau, dirs=dirs, p=2)
    else:
        tau = 1.0 + lam
        es = EigenSystem(d, kmax, subspace, kvecs, kind, lam, tau, p=1)

    es._lookup = {
        (tuple(int(c) for c in kvecs[j]), int(kind[j])): j for j in range(len(rows))
    }
    return es


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


class _LatticeMap:
    """Where each eigensystem entry lives in the rfft half spectrum, as offsets
    into its flattened float64 view (entry p: real part at 2p, imaginary at
    2p + 1).  ``read``/``inv`` take each coefficient off the half spectrum;
    ``src``/``dst``/``fwd`` write it, the d = 2 modes with ky = 0 twice."""

    def __init__(self, es, n):
        self.es = es
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


_lattice_cache = {}


def _lattice(es, n):
    key = (id(es), n)
    lm = _lattice_cache.get(key)
    if lm is None or lm.es is not es:
        lm = _LatticeMap(es, n)
        _lattice_cache[key] = lm
    return lm


def spectrum_from_coeffs(es, data, n):
    """Real coefficients (..., nm) -> the rfft half spectrum c(k) of their grid
    values: (..., [n,] n//2+1) for scalar fields, (..., 2, n, n//2+1) for the
    div-free subspace (one spectrum per velocity component, the coefficients
    times that component of dirs).

    The one realified <-> lattice convention: a cos coefficient u is Re c(k) =
    u/sqrt(2), a sin coefficient Im c(k) = -u/sqrt(2), the constant c(0); the
    module docstring says where ky < 0 and ky = 0 modes go.
    """
    lm = _lattice(es, n)
    data = np.asarray(data, dtype=float)
    if es.subspace == DIV_FREE:
        data = data[..., None, :] * es.dirs.T
    batch = data.shape[:-1]
    out = np.zeros(batch + lm.shape, dtype=complex)
    out.reshape(batch + (-1,)).view(float)[..., lm.dst] = data[..., lm.src] * lm.fwd
    return out


def values_from_coeffs(es, data, n):
    """Evaluate fields on the uniform n^d grid.

    data: (..., nm) real coefficients.  Returns (..., n[, n]) for scalar
    fields and (..., 2, n, n) for the div-free subspace.
    """
    lat = spectrum_from_coeffs(es, data, n)
    return np.fft.irfftn(lat, s=(n,) * es.d, axes=tuple(range(-es.d, 0)), norm="forward")


def coeffs_from_values(es, values):
    """Project grid values onto the retained modes (exact if band-limited).

    values: (..., n[, n]) scalar or (..., 2, n, n) for div-free.  Inverts
    :func:`spectrum_from_coeffs` after the FFT: one half-spectrum entry is
    read per mode, so Hermitian ky = 0 columns are exact, and a div-free
    field's two component coefficients are projected on dirs.
    """
    lm = _lattice(es, values.shape[-1])
    chat = np.ascontiguousarray(np.fft.rfftn(values, axes=tuple(range(-es.d, 0)), norm="forward"))
    out = chat.reshape(chat.shape[: -es.d] + (-1,)).view(float)[..., lm.read] * lm.inv
    if es.subspace == DIV_FREE:
        return out[..., 0, :] * es.dirs[:, 0] + out[..., 1, :] * es.dirs[:, 1]
    return out


# ---------------------------------------------------------------------------
# norms and pairings
# ---------------------------------------------------------------------------


def pairing(u, v):
    """L^2 inner product via Parseval (the pivot pairing)."""
    if u.es != v.es:
        raise ValueError("eigensystem mismatch")
    return float(u.data @ v.data)


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


def basis_values_at(es, x):
    """Evaluate all basis functions at scattered points x of shape (nq, d).

    Returns (nq, nm) for scalar subspaces; vector values for div-free are
    dirs[m] * result[:, m].  No mode costs a cosine: per point and axis one
    complex exponential z = e^{2 pi i x_a}, then the powers z^0..z^kmax by
    products of blocks (z^(m+j) = z^m z^j, doubling m).  In d = 2 the second
    axis covers -kmax..kmax by conjugation and the table is the outer product
    of the two axes.  A wavevector's cos and sin modes are the real and
    imaginary parts of its entry, adjacent in the table's float64 view as in
    the eigensystem order, so one gather and the amplitudes (sqrt(2); 1 for
    the constant, the real part of k = 0) give every column.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    nq, kmax = x.shape[0], es.kmax
    pw = np.empty((nq, es.d, kmax + 1), dtype=complex)
    pw[..., 0] = 1.0
    pw[..., 1] = np.exp(TWO_PI * 1j * x)
    m = 1
    while m < kmax:
        j = min(m, kmax - m)
        np.multiply(pw[..., 1 : j + 1], pw[..., m : m + 1], out=pw[..., m + 1 : m + j + 1])
        m += j
    if es.d == 1:
        table = pw[:, 0]
    else:
        ky = np.concatenate([pw[:, 1, :0:-1].conj(), pw[:, 1]], axis=1)  # ky = -kmax..kmax
        table = (pw[:, 0, :, None] * ky[:, None, :]).reshape(nq, -1)
    out = table.view(float)[:, es._table_cols]
    out *= es._table_amp
    return out
