"""Eigensystem, transform, and norm checks against independent oracles."""

import itertools
import math
import pathlib
import re

import numpy as np
import pytest

from pdefisher import (
    DIV_FREE,
    FULL,
    MEAN_ZERO,
    FourierCoeffs,
    build_eigensystem,
    pairing,
)
from pdefisher import spectral
from pdefisher.spectral import (
    KIND_CONST,
    KIND_COS,
    KIND_SIN,
    basis_values_at,
    coeffs_from_values,
    values_from_coeffs,
)

from oracles import sobolev_norm

PI2 = np.pi**2


def dealiased_product(es, u, v):
    """Coefficients of the pointwise product of two scalar fields, computed on
    the dealiased grid, hence exact for the retained modes."""
    n = es.min_grid_points(dealias=True)
    return coeffs_from_values(
        es, values_from_coeffs(es, u, n) * values_from_coeffs(es, v, n)
    )


class TestEigenSystem:
    def test_d1_k2_eigenvalues(self):
        es = build_eigensystem(1, 2, FULL)
        np.testing.assert_allclose(es.lam, [0, 4 * PI2, 4 * PI2, 16 * PI2, 16 * PI2])
        np.testing.assert_allclose(es.tau, 1.0 + es.lam)

    def test_divfree_spectral_gap(self):
        es = build_eigensystem(2, 1, DIV_FREE)
        assert es.lam.min() == pytest.approx(4 * PI2)
        np.testing.assert_allclose(es.tau, es.lam)
        # unit directions orthogonal to their wavevectors
        dots = np.einsum("md,md->m", es.dirs, es.kvecs.astype(float))
        np.testing.assert_allclose(dots, 0.0, atol=1e-14)
        np.testing.assert_allclose((es.dirs**2).sum(axis=1), 1.0)

    def test_weyl_exponent_d2(self):
        # oracle: the eigenvalues ARE the enumerated lattice values; the
        # log-log slope over j in [50, 500] must be 2/d = 1
        es = build_eigensystem(2, 16, FULL)
        j = np.arange(1, es.size)  # skip the zero mode
        sel = (j >= 50) & (j <= 500)
        slope = np.polyfit(np.log(j[sel]), np.log(es.lam[1:][sel]), 1)[0]
        assert abs(slope - 1.0) < 0.1

    def test_ordering_deterministic(self):
        a = build_eigensystem(2, 6, MEAN_ZERO)
        b = build_eigensystem(2, 6, MEAN_ZERO)
        np.testing.assert_array_equal(a.kvecs, b.kvecs)
        np.testing.assert_array_equal(a.kind, b.kind)
        assert np.all(np.diff(a.lam) >= 0)

    @pytest.mark.parametrize(
        "d, kmax, subspace", [(1, 7, FULL), (1, 64, MEAN_ZERO), (2, 9, FULL), (2, 16, DIV_FREE)]
    )
    def test_sin_follows_cos_of_same_wavevector(self, d, kmax, subspace):
        # basis_values_at reads each wavevector's cos and sin columns as one
        # complex entry, so the order must keep them adjacent
        es = build_eigensystem(d, kmax, subspace)
        cos = np.flatnonzero(es.kind == KIND_COS)
        assert cos.size == np.count_nonzero(es.kind == KIND_SIN) > 0
        np.testing.assert_array_equal(es.kind[cos + 1], KIND_SIN)
        np.testing.assert_array_equal(es.kvecs[cos + 1], es.kvecs[cos])

    @pytest.mark.parametrize("kmax", [1, 2, 4, 6, 9])
    def test_div_free_scalar_twin(self, kmax):
        # the div-free system transforms through the mean-zero system of its
        # kmax, whose modes must be its own, in the same order
        es = build_eigensystem(2, kmax, DIV_FREE)
        twin = es.scalar
        assert (twin.d, twin.kmax, twin.subspace, twin.p) == (2, kmax, MEAN_ZERO, 1)
        np.testing.assert_array_equal(twin.kvecs, es.kvecs)
        np.testing.assert_array_equal(twin.kind, es.kind)
        np.testing.assert_array_equal(twin.lam, es.lam)
        assert twin.scalar is None and build_eigensystem(1, kmax, FULL).scalar is None

    @pytest.mark.parametrize(
        "d, subspace", [(1, FULL), (1, MEAN_ZERO), (2, FULL), (2, MEAN_ZERO), (2, DIV_FREE)]
    )
    def test_order_is_the_tuple_sort(self, d, subspace):
        # oracle: every retained (lambda, k, kind) row, sorted as Python tuples
        for kmax in range(1, 21):
            rows = [(0.0, (0,) * d, KIND_CONST)] if subspace == FULL else []
            for k in itertools.product(range(-kmax, kmax + 1), repeat=d):
                if k > (0,) * d:  # one of each conjugate pair: first nonzero component positive
                    lam = 4.0 * np.pi**2 * sum(c * c for c in k)
                    rows += [(lam, k, KIND_COS), (lam, k, KIND_SIN)]
            rows.sort()
            es = build_eigensystem(d, kmax, subspace)
            assert es.kvecs.dtype == np.int64 and es.kind.dtype == np.int8
            np.testing.assert_array_equal(es.kvecs, np.array([r[1] for r in rows]).reshape(-1, d))
            np.testing.assert_array_equal(es.kind, [r[2] for r in rows])
            np.testing.assert_array_equal(es.lam, [r[0] for r in rows])

    def test_dealiased_grid_is_smallest_even_7_smooth(self):
        # oracle: brute-force search over even n >= max(8, 3k+1) divisible by
        # no prime above 7
        big_primes = [p for p in range(11, 300) if all(p % q for q in range(2, p))]
        for k in range(1, 81):
            n = max(8, 3 * k + 1)
            while n % 2 or any(n % p == 0 for p in big_primes):
                n += 1
            assert build_eigensystem(1, k).min_grid_points(dealias=True) == n
            assert build_eigensystem(2, k, DIV_FREE).min_grid_points(dealias=True) == n

    @pytest.mark.parametrize(
        "d, subspace", [(1, FULL), (1, MEAN_ZERO), (2, FULL), (2, MEAN_ZERO), (2, DIV_FREE)]
    )
    def test_index_of_inverts_the_enumeration(self, d, subspace):
        es = build_eigensystem(d, 5, subspace)
        assert es._lookup is None  # the lookup is built on the first index_of
        for j in range(es.size):
            assert es.index_of(es.kvecs[j], es.kind[j]) == j
        assert es.index_of([6] + [0] * (d - 1), KIND_COS) == -1
        assert es.index_of([-1] + [0] * (d - 1), KIND_COS) == -1  # the other of the conjugate pair
        if subspace == DIV_FREE:  # answered by the mean-zero twin, which holds the one lookup
            assert es._lookup is None and es.scalar._lookup is not None

    def test_invalid_combinations(self):
        with pytest.raises(ValueError):
            build_eigensystem(1, 4, DIV_FREE)
        with pytest.raises(ValueError):
            build_eigensystem(3, 4, FULL)
        with pytest.raises(ValueError):
            build_eigensystem(1, 0, FULL)


class TestSobolevNorm:
    def test_single_mode(self):
        es = build_eigensystem(1, 4)
        for j in (0, 1, 4):
            u = FourierCoeffs.unit(es, j)
            for s in (-2.0, 0.0, 1.0, 3.0):
                assert sobolev_norm(u, s) == pytest.approx(es.tau[j] ** (s / 2))

    def test_parseval_two_modes(self):
        es = build_eigensystem(1, 4)
        u = FourierCoeffs.unit(es, 1) + FourierCoeffs.unit(es, 2)
        assert sobolev_norm(u, 0.0) == pytest.approx(np.sqrt(2.0))

    def test_brute_force_sum(self):
        # oracle: direct summation of tau^s u^2
        es = build_eigensystem(1, 64)
        u = FourierCoeffs(es, (1.0 + es.lam) ** (-1.0))
        expected = np.sqrt(sum((1 + lam) ** 1 * (1 + lam) ** (-2) for lam in es.lam))
        assert sobolev_norm(u, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_outside_subspace_rejected(self):
        full = build_eigensystem(1, 4, FULL)
        mz = build_eigensystem(1, 4, MEAN_ZERO)
        u = FourierCoeffs.unit(full, 0)  # pure constant
        with pytest.raises(ValueError):
            sobolev_norm(u, 1.0, mz)
        # a mean-zero field re-indexes cleanly
        v = FourierCoeffs.unit(full, 1)
        assert sobolev_norm(v, 1.0, mz) == pytest.approx(mz.tau[0] ** 0.5)


class TestPairing:
    def test_orthonormality(self):
        es = build_eigensystem(2, 3)
        rng = np.random.default_rng(1)
        for _ in range(5):
            i, j = rng.integers(0, es.size, 2)
            got = pairing(FourierCoeffs.unit(es, i), FourierCoeffs.unit(es, j))
            assert got == pytest.approx(1.0 if i == j else 0.0, abs=1e-15)

    def test_pairing_is_s0_norm(self):
        es = build_eigensystem(1, 8)
        u = FourierCoeffs(es, np.random.default_rng(2).standard_normal(es.size))
        assert pairing(u, u) == pytest.approx(sobolev_norm(u, 0.0) ** 2, rel=1e-13)

    def test_grid_quadrature_oracle(self):
        # oracle: uniform-grid mean (trapezoid on the torus) of the product
        es = build_eigensystem(2, 16)
        rng = np.random.default_rng(3)
        u = FourierCoeffs(es, rng.standard_normal(es.size))
        v = FourierCoeffs(es, rng.standard_normal(es.size))
        n = es.min_grid_points(dealias=True)
        quad = float(np.mean(values_from_coeffs(es, u.data, n) * values_from_coeffs(es, v.data, n)))
        assert abs(pairing(u, v) - quad) < 1e-10

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            pairing(
                FourierCoeffs.unit(build_eigensystem(1, 4), 0),
                FourierCoeffs.unit(build_eigensystem(1, 8), 0),
            )


def _complex_coeffs(es, data, kmax):
    """Independent realified -> complex converter (test-local oracle helper)."""
    c = {}
    for j in range(es.size):
        k = tuple(int(v) for v in es.kvecs[j])
        kind = int(es.kind[j])
        if kind == 0:
            c[k] = c.get(k, 0) + data[j]
        elif kind == 1:
            c[k] = c.get(k, 0) + data[j] / np.sqrt(2)
            mk = tuple(-v for v in k)
            c[mk] = c.get(mk, 0) + data[j] / np.sqrt(2)
        else:
            c[k] = c.get(k, 0) - 1j * data[j] / np.sqrt(2)
            mk = tuple(-v for v in k)
            c[mk] = c.get(mk, 0) + 1j * data[j] / np.sqrt(2)
    return c


class TestTransforms:
    def test_roundtrip(self):
        es = build_eigensystem(2, 5)
        n = es.min_grid_points()
        rng = np.random.default_rng(4)
        vals = values_from_coeffs(es, rng.standard_normal(es.size), n)
        back = values_from_coeffs(es, coeffs_from_values(es, vals), n)
        np.testing.assert_allclose(back, vals, atol=1e-12)

    def test_cosine_transform(self):
        es = build_eigensystem(1, 8)
        n = es.min_grid_points()
        x = np.arange(n) / n
        c = coeffs_from_values(es, np.cos(2 * np.pi * x))
        # complex amplitude at k=+-1 has modulus 1/2
        amps = _complex_coeffs(es, c, 8)
        assert abs(amps[(1,)]) == pytest.approx(0.5, abs=1e-14)
        assert abs(amps[(-1,)]) == pytest.approx(0.5, abs=1e-14)
        rest = [a for k, a in amps.items() if k not in ((1,), (-1,))]
        assert max(abs(a) for a in rest) < 1e-14

    @pytest.mark.parametrize("kmax", [8, 12, 24, 64])
    def test_dealiased_product_vs_convolution_oracle(self, kmax):
        # oracle: O(K^2) direct convolution of complex coefficients
        es = build_eigensystem(1, kmax)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(es.size)
        v = rng.standard_normal(es.size)
        cu = _complex_coeffs(es, u, kmax)
        cv = _complex_coeffs(es, v, kmax)
        exact = {}
        for k1, a in cu.items():
            for k2, b in cv.items():
                k = (k1[0] + k2[0],)
                if abs(k[0]) <= kmax:
                    exact[k] = exact.get(k, 0) + a * b
        got = _complex_coeffs(es, dealiased_product(es, u, v), kmax)
        for k, val in exact.items():
            assert got.get(k, 0) == pytest.approx(val, abs=1e-12)

    def test_divfree_values_are_divergence_free(self):
        es = build_eigensystem(2, 4, DIV_FREE)
        rng = np.random.default_rng(6)
        u = rng.standard_normal(es.size)
        n = 2 * es.min_grid_points()
        vals = values_from_coeffs(es, u, n)  # (2, n, n)
        k = np.fft.fftfreq(n, 1.0 / n)
        div = (
            2j * np.pi * k[:, None] * np.fft.fft2(vals[0])
            + 2j * np.pi * k[None, :] * np.fft.fft2(vals[1])
        )
        assert np.abs(div).max() / np.abs(np.fft.fft2(vals[0])).max() < 1e-12
        # and the projection roundtrips
        np.testing.assert_allclose(coeffs_from_values(es, vals), u, atol=1e-12)


def _grid_sum(es, data, n):
    """Explicit per-mode sum on the n^d grid: amp * cos or sin(2 pi k.x), with
    div-free modes along their unit directions k_perp/|k|."""
    axes = np.meshgrid(*([np.arange(n) / n] * es.d), indexing="ij")
    out = np.zeros((2,) * (es.subspace == DIV_FREE) + (n,) * es.d)
    for j in range(es.size):
        phase = 2 * np.pi * sum(int(k) * x for k, x in zip(es.kvecs[j], axes))
        if es.kind[j] == KIND_CONST:
            mode = np.ones_like(phase)
        elif es.kind[j] == KIND_SIN:
            mode = np.sqrt(2) * np.sin(phase)
        else:
            mode = np.sqrt(2) * np.cos(phase)
        if es.subspace == DIV_FREE:
            out += data[j] * es.dirs[j][:, None, None] * mode
        else:
            out += data[j] * mode
    return out


class TestHalfSpectrumCodec:
    """values_from_coeffs on the rfft half spectrum against the explicit mode
    sum, and coeffs_from_values as its inverse."""

    @pytest.mark.parametrize(
        "d, kmax, subspace",
        [(1, 9, FULL), (2, 5, FULL), (2, 5, DIV_FREE)],
        ids=["d1-scalar", "d2-scalar", "d2-div-free"],
    )
    def test_matches_mode_sum_and_inverts(self, d, kmax, subspace):
        es = build_eigensystem(d, kmax, subspace)
        if d == 2:
            ky = es.kvecs[:, 1]
            assert (ky < 0).any() and (ky == 0).any() and (es.kvecs[:, 0] == 0).any()
        rng = np.random.default_rng(7)
        data = rng.standard_normal((3, es.size))
        for n in (es.min_grid_points(), es.min_grid_points(dealias=True), 2 * es.min_grid_points() + 2):
            vals = values_from_coeffs(es, data, n)
            for b in range(3):
                np.testing.assert_allclose(vals[b], _grid_sum(es, data[b], n), rtol=0, atol=1e-12)
            np.testing.assert_allclose(coeffs_from_values(es, vals), data, rtol=0, atol=1e-12)


def _mode_values(es, x):
    """One point, every mode: 1, or sqrt(2) cos / sin(2 pi k.x) by math."""
    out = []
    for k, kind in zip(es.kvecs.tolist(), es.kind.tolist()):
        phase = 2 * math.pi * sum(ki * xi for ki, xi in zip(k, x))
        out.append(1.0 if kind == KIND_CONST else math.sqrt(2) * (math.cos if kind == KIND_COS else math.sin)(phase))
    return out


class TestBasisValuesAt:
    """basis_values_at (per-axis tables of e^{2 pi i k x}, powers by products)
    against a per-mode cosine/sine sum.  The kmax values cover a last block of
    powers that is full (1, 16, 64) and partial (5, 7, 9, 33)."""

    @pytest.mark.parametrize(
        "d, kmax, subspace",
        [
            (1, 1, FULL), (1, 7, MEAN_ZERO), (1, 33, FULL), (1, 64, FULL), (1, 64, MEAN_ZERO),
            (2, 1, FULL), (2, 5, MEAN_ZERO), (2, 9, DIV_FREE), (2, 16, FULL), (2, 16, MEAN_ZERO),
            (2, 16, DIV_FREE),
        ],
    )
    def test_matches_per_mode_sum(self, d, kmax, subspace):
        es = build_eigensystem(d, kmax, subspace)
        rng = np.random.default_rng(kmax + 10 * d)
        edges = [0.0, 0.25, 0.5, 1.0 - 2.0**-40, 1.0, -0.3, 2.7]
        x = np.vstack([rng.uniform(0, 1, (40, d)), np.array(edges)[:, None] * np.ones(d)])
        if d == 2:
            x[-len(edges):, 1] = edges[::-1]
        expected = np.array([_mode_values(es, xi) for xi in x.tolist()])
        got = basis_values_at(es, x)
        assert got.shape == (x.shape[0], es.size)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def _grid_points(d, n):
    """The n^d grid points in the row-major order of a (n[, n]) value array."""
    axes = np.meshgrid(*([np.arange(n) / n] * d), indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


class TestDenseOrFFT:
    """A scalar grid of at most spectral.DENSE_MAX_ENTRIES map entries
    (nm * n^d) transforms by the dense pair built from the FFT path; larger
    grids run the FFTs, and a div-free system takes its scalar twin's path.
    Both paths against basis_values_at at the grid points, and the dense one
    against the FFTs on the same input."""

    # (d, kmax, subspace, dense) on the RD grid of min_grid_points(dealias=True)
    CASES = [
        (1, 32, FULL, True),  # lan-rd and criterion 06
        (1, 64, FULL, True),  # support-rd
        (1, 72, MEAN_ZERO, True),  # the largest dense kmax in d = 1 (32,480 entries)
        (1, 76, FULL, False),
        (1, 256, FULL, False),  # the criteria's kmax, and a K = 512 RD case
        (2, 5, FULL, True),
        (2, 6, MEAN_ZERO, False),
        (2, 4, DIV_FREE, True),  # pushforward-ns and ns_diagnostics, on the twin's maps
        (2, 6, DIV_FREE, False),
    ]
    IDS = ["d1-k32", "d1-k64", "d1-k72", "d1-k76", "d1-k256", "d2-k5", "d2-k6", "d2-k4-div-free", "d2-k6-div-free"]

    @staticmethod
    def _grid(d, kmax, subspace):
        es = build_eigensystem(d, kmax, subspace)
        return es, es.min_grid_points(dealias=True)

    @pytest.mark.parametrize("d, kmax, subspace, dense", CASES, ids=IDS)
    def test_path_taken(self, d, kmax, subspace, dense):
        es, n = self._grid(d, kmax, subspace)
        lm = spectral._lattice(es.scalar or es, n)  # div-free: its twin's grid
        assert (lm.to_grid is not None) == dense
        assert (lm.from_grid is not None) == dense
        if dense:
            assert lm.to_grid.shape == (es.size, n**d) and lm.from_grid.shape == (n**d, es.size)

    @pytest.mark.parametrize("d, kmax, subspace, dense", CASES, ids=IDS)
    def test_grid_values_match_basis_values_at(self, d, kmax, subspace, dense):
        es, n = self._grid(d, kmax, subspace)
        basis = basis_values_at(es, _grid_points(d, n))  # (n^d, nm)
        rng = np.random.default_rng(kmax + 10 * d)
        for data in (rng.standard_normal(es.size), rng.standard_normal((3, es.size))):
            vals = values_from_coeffs(es, data, n)
            if subspace == DIV_FREE:
                assert vals.shape == data.shape[:-1] + (2,) + (n,) * d
                per_point = (data[..., None, :] * basis) @ es.dirs  # (..., n^d, 2)
                expected = np.swapaxes(per_point, -1, -2).reshape(vals.shape)
            else:
                assert vals.shape == data.shape[:-1] + (n,) * d
                expected = (data @ basis.T).reshape(vals.shape)
            scale = np.abs(expected).max()
            np.testing.assert_allclose(vals, expected, rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(coeffs_from_values(es, vals), data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "d, kmax, subspace",
        [c[:3] for c in CASES if c[3]],
        ids=[i for i, c in zip(IDS, CASES) if c[3]],
    )
    def test_dense_matches_fft(self, d, kmax, subspace):
        es, n = self._grid(d, kmax, subspace)
        twin = es.scalar or es  # a div-free field's components run on the twin's grid
        lm = spectral._lattice(twin, n)
        comps = (2,) if subspace == DIV_FREE else ()
        rng = np.random.default_rng(kmax)
        for shape in ((), (9,), (2, 5)):
            data = rng.standard_normal(shape + (es.size,))
            split = data[..., None, :] * es.dirs.T if comps else data
            dense, fft = values_from_coeffs(es, data, n), spectral._fft_values(twin, lm, split)
            assert dense.shape == fft.shape
            assert np.abs(dense - fft).max() <= 1e-13 * np.abs(fft).max()
            # grid values that are not band-limited: the projections agree too
            vals = rng.standard_normal(shape + comps + (n,) * d)
            dense, fft = coeffs_from_values(es, vals), spectral._fft_coeffs(twin, lm, vals)
            if comps:
                fft = fft[..., 0, :] * es.dirs[:, 0] + fft[..., 1, :] * es.dirs[:, 1]
            assert dense.shape == fft.shape
            assert np.abs(dense - fft).max() <= 1e-13 * np.abs(fft).max()


class TestMultiplicationMap:
    """spectral.multiplication_map (one rfft of g and two gathers) against its
    definition W_jl = (1/N) sum_x e_j(x) g(x) e_l(x), the mode values at each
    grid point written out with math.cos / math.sin (_mode_values).  g is
    white noise, so the products alias on the grid as the map must."""

    @pytest.mark.parametrize(
        "d, kmax, subspace",
        [
            (1, 1, FULL), (1, 1, MEAN_ZERO), (1, 8, FULL), (1, 8, MEAN_ZERO), (1, 64, FULL), (1, 64, MEAN_ZERO),
            (1, 72, FULL), (1, 72, MEAN_ZERO), (1, 80, FULL), (1, 80, MEAN_ZERO), (2, 2, FULL), (2, 2, MEAN_ZERO),
            (2, 3, FULL), (2, 3, MEAN_ZERO), (2, 4, FULL), (2, 4, MEAN_ZERO),
        ],
    )
    def test_matches_definition(self, d, kmax, subspace):
        es = build_eigensystem(d, kmax, subspace)
        n = es.min_grid_points(dealias=True)
        lm = spectral._lattice(es, n)
        assert (lm.to_grid is None) == (kmax == 80)  # the one grid on the FFT path
        g = np.random.default_rng(kmax + 10 * d).standard_normal((n,) * d)
        modes = np.array([_mode_values(es, x) for x in _grid_points(d, n).tolist()])  # (N, nm)
        oracle = modes.T @ (g.reshape(-1, 1) * modes) / n**d
        W = spectral.multiplication_map(es, g)
        assert W.shape == (es.size, es.size)
        assert np.abs(W - oracle).max() <= 1e-13 * np.abs(oracle).max()

    def test_tables_built_once_per_grid(self):
        es = build_eigensystem(1, 8, FULL)
        n = es.min_grid_points(dealias=True)
        lm = spectral._lattice(es, n)
        assert lm.mul is None
        rng = np.random.default_rng(3)
        spectral.multiplication_map(es, rng.standard_normal(n))
        tables = lm.mul
        assert tables.shape == (2, es.size, es.size)
        spectral.multiplication_map(es, rng.standard_normal(n))
        assert lm.mul is tables
        assert spectral._lattice(es, n + 2).mul is None  # another grid, its own tables

    @pytest.mark.parametrize("d, kmax", [(1, 16), (2, 3)])
    def test_products_of_fields(self, d, kmax):
        # v @ W is the projection of g times the fields v, by the transforms
        es = build_eigensystem(d, kmax, FULL)
        n = es.min_grid_points(dealias=True)
        rng = np.random.default_rng(kmax)
        g, v = rng.standard_normal((n,) * d), rng.standard_normal((5, es.size))
        expected = coeffs_from_values(es, g * values_from_coeffs(es, v, n))
        got = v @ spectral.multiplication_map(es, g)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def _fft_gradient(vals, axis, d):
    """d/dx_axis of periodic grid values (..., n[, n]) on the unit torus, by
    numpy's full complex FFT."""
    n = vals.shape[-1]
    k = 2j * np.pi * np.fft.fftfreq(n, d=1.0 / n)
    k = k.reshape((n,) + (1,) * (d - 1 - axis))  # broadcast along the axis
    axes = tuple(range(-d, 0))
    return np.fft.ifftn(k * np.fft.fftn(vals, axes=axes), axes=axes).real


class TestDerivative:
    """spectral.derivative (coefficient algebra on cos/sin partners) against
    the FFT gradient of grid values built from basis_values_at, so neither
    side uses the codec."""

    @pytest.mark.parametrize(
        "d, kmax, subspace",
        [(1, 7, FULL), (1, 32, MEAN_ZERO), (2, 5, MEAN_ZERO), (2, 3, FULL), (2, 4, DIV_FREE)],
        ids=["d1-full", "d1-mean-zero", "d2-mean-zero", "d2-full", "d2-div-free"],
    )
    def test_matches_fft_gradient(self, d, kmax, subspace):
        es = build_eigensystem(d, kmax, subspace)
        n = es.min_grid_points()
        basis = basis_values_at(es, _grid_points(d, n))  # (n^d, nm)
        comps = (2,) if subspace == DIV_FREE else ()

        def grid(data):  # (..., [2,] n[, n]) by the per-point mode sum
            if comps:
                per_point = (data[..., None, :] * basis) @ es.dirs  # (..., n^d, 2)
                return np.swapaxes(per_point, -1, -2).reshape(data.shape[:-1] + comps + (n,) * d)
            return (data @ basis.T).reshape(data.shape[:-1] + (n,) * d)

        rng = np.random.default_rng(kmax + 10 * d)
        for data in (rng.standard_normal(es.size), rng.standard_normal((3, es.size))):
            for axis in range(d):
                got = spectral.derivative(es, data, axis)
                assert got.shape == data.shape
                oracle = _fft_gradient(grid(data), axis, d)
                np.testing.assert_allclose(grid(got), oracle, rtol=0, atol=1e-12 * np.abs(oracle).max())

    def test_constant_goes_to_zero(self):
        es = build_eigensystem(1, 5, FULL)
        assert es.kind[0] == KIND_CONST
        np.testing.assert_array_equal(spectral.derivative(es, np.eye(es.size)[0], 0), 0.0)
        data = np.random.default_rng(1).standard_normal(es.size)
        assert spectral.derivative(es, data, 0)[0] == 0.0


def test_fourier_layout_lives_in_spectral():
    # every FFT call, every read of the point table's column layout and every
    # table of e^{2 pi i k.x} at points (which needs the wavevectors or a
    # complex exponential of x) go through spectral, so the half spectrum
    # layout, the FFT normalisation and the point table are decided in one
    # module
    src = pathlib.Path(spectral.__file__).parent
    patterns = {
        "fft": r"\b(np|numpy)\.fft\b|from\s+numpy\s+import\s+.*\bfft\b|import\s+numpy\.fft",
        "table layout": r"\b_table_(cols|amp)\b",
        "wavevectors": r"\.kvecs\b",
        "exponential of x": r"\bexp\([^\n]*\b\d+j\b[^\n]*\bx\b",
    }
    for name, pattern in patterns.items():
        users = sorted(p.name for p in src.glob("*.py") if re.search(pattern, p.read_text()))
        assert users == ["spectral.py"], name
