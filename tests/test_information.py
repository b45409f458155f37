"""Information matrices, LAN/dual norms, Gram-Schmidt, and the two-sided
norm-equivalence diagnostic, checked against closed forms and a dense-grid
quadrature oracle."""

import ast
import pathlib
import tracemalloc

import numpy as np
import pytest

import pdefisher
from pdefisher import (
    BumpReaction,
    DesignMeasure,
    FourierCoeffs,
    HeatModel,
    InformationMatrix,
    ReactionDiffusionModel,
    NavierStokesModel,
    TimeMesh,
    assemble_information_matrix,
    build_eigensystem,
    lan_norm,
    make_noise,
    norm_equivalence_diagnostic,
    s_norm_truncated,
)
from pdefisher.information import _NodeGram, _pointwise_form, _tangent_gram, octave_divergence_flag, spacetime_gram
from pdefisher.noise import fisher_matrix
from pdefisher.noise import raised_cosine_quantile
from pdefisher.spectral import DENSE_MAX_ENTRIES, DIV_FREE, basis_values_at, values_from_coeffs

from oracles import held_tangents, inv_quadform, l2lambda_norm, lan_norm_direct, orthonormalize_h

LAM1 = 4 * np.pi**2


@pytest.fixture(scope="module")
def es1():
    return build_eigensystem(1, 4)


@pytest.fixture(scope="module")
def heat_setup(es1):
    mesh = TimeMesh.graded(1.0, levels=16, steps_per_block=64)
    model = HeatModel(es1, T=1.0, mesh=mesh)
    noise = make_noise("gaussian", variance=1.0)
    design = DesignMeasure(1.0)
    theta0 = FourierCoeffs.zeros(es1)
    M = assemble_information_matrix(model, theta0, noise, design, 9)
    return model, noise, design, theta0, M


def _field(es, entries, const=0.0):
    u = FourierCoeffs.zeros(es)
    if const:
        u.data[es.index_of((0,) * es.d, 0)] = const
    for k, kind, val in entries:
        u.data[es.index_of(k, kind)] = val
    return u


class TestL2LambdaNorm:
    def test_constant_field_unit_mass(self, es1):
        design = DesignMeasure(2.0)
        f = HeatModel(es1, T=2.0, mesh=TimeMesh.uniform(2.0, 64)).solve(_field(es1, [], const=3.0))
        assert l2lambda_norm(f, design) == pytest.approx(3.0, rel=1e-12)

    def test_heat_mode_closed_form(self, es1):
        design = DesignMeasure(1.0)
        mesh = TimeMesh.graded(1.0, levels=16, steps_per_block=256)
        f = HeatModel(es1, T=1.0, mesh=mesh).solve(_field(es1, [([1], 1, 1.0)]))
        exact = np.sqrt((1 - np.exp(-2 * LAM1)) / (2 * LAM1))
        assert l2lambda_norm(f, design) == pytest.approx(exact, abs=1e-10)

    def test_nonuniform_design_vs_grid_oracle(self):
        # oracle: dense space-time grid quadrature of |u|^2 lambda
        es = build_eigensystem(1, 8)
        design = DesignMeasure(1.0, kind="cosine", amplitude=0.5)
        mesh = TimeMesh.uniform(1.0, 96)
        rng = np.random.default_rng(12)
        theta = FourierCoeffs(es, 0.3 * rng.standard_normal(es.size))
        f = HeatModel(es, T=1.0, mesh=mesh).solve(theta)
        n = 256
        x = (np.arange(n) / n).reshape(-1, 1)
        dens = design.density(np.zeros(n), x)  # time-independent
        vals = np.array([values_from_coeffs(es, f.data[i], n) for i in range(mesh.n_nodes)])
        integrand = (vals**2 * dens[None, :]).mean(axis=1)
        oracle = np.sqrt(mesh.weights @ integrand)
        assert l2lambda_norm(f, design) == pytest.approx(float(oracle), abs=1e-6)


class TestAssembly:
    def test_heat_diagonal_closed_form(self, heat_setup):
        _, _, _, _, M = heat_setup
        es = M.es
        lam = es.lam[:9]
        ref = np.where(lam > 0, -np.expm1(-2 * lam) / np.where(lam > 0, 2 * lam, 1.0), 1.0)
        assert np.abs(np.diag(M.matrix) - ref).max() < 1e-10
        off = M.matrix - np.diag(np.diag(M.matrix))
        assert np.abs(off).max() < 1e-10

    def test_noise_scaling(self, es1, heat_setup):
        model, _, design, theta0, M = heat_setup
        noise2 = make_noise("gaussian", variance=4.0)
        M2 = assemble_information_matrix(model, theta0, noise2, design, 9)
        np.testing.assert_allclose(M2.matrix, M.matrix / 4.0, atol=1e-14)

    @pytest.mark.parametrize(
        "amplitude, variance", [(None, 1.0), (0.5, 0.6)], ids=["uniform", "cosine"]
    )
    def test_heat_closed_form_vs_generic_gram(self, amplitude, variance):
        # oracle: the generic sum_i w_i V_i^T B V_i over the tangent batch
        # that HeatModel.linearize marches; K < nm exercises B's truncation
        es = build_eigensystem(1, 8)
        model = HeatModel(es, T=1.0, mesh=TimeMesh.graded(1.0, levels=16, steps_per_block=64))
        if amplitude is None:
            design = DesignMeasure(1.0)
        else:
            design = DesignMeasure(1.0, kind="cosine", amplitude=amplitude)
        noise = make_noise("gaussian", variance=variance)
        theta0 = FourierCoeffs.zeros(es)
        M = assemble_information_matrix(model, theta0, noise, design, 12)
        batch = held_tangents(model, theta0, np.eye(es.size, 12))
        G = spacetime_gram(batch, design, fisher_matrix(noise))
        assert M.meta["method"] == "closed-form"
        assert np.abs(M.matrix - G).max() <= 1e-13 * np.abs(G).max()

    def test_heat_assembly_marches_nothing(self, heat_setup, monkeypatch):
        model, noise, _, theta0, _ = heat_setup

        def refuse(*args, **kwargs):
            raise AssertionError("heat assembly must not march tangent fields")

        monkeypatch.setattr(HeatModel, "linearize", refuse)
        for design in (DesignMeasure(1.0), DesignMeasure(1.0, kind="cosine", amplitude=0.5)):
            assert assemble_information_matrix(model, theta0, noise, design, 9).cond > 0
        rng = np.random.default_rng(15)
        out = norm_equivalence_diagnostic(model, theta0, DesignMeasure(1.0), [4, 9], 10, 1.0, rng)
        assert len(out["per_k"]) == 2

    @pytest.mark.parametrize("kind", ["heat", "rd", "ns"])
    def test_matrix_carries_its_base_point(self, kind, es1):
        # oracle: solve(theta0), an independent march of the base flow alone
        mesh = TimeMesh.uniform(0.25, 16)
        if kind == "ns":
            es = build_eigensystem(2, 2, DIV_FREE)
            model = NavierStokesModel(es, viscosity=0.05, T=0.25, mesh=mesh)
            theta0 = _field(es, [([1, 0], 1, 0.4), ([0, 1], 2, 0.3)])
            noise = make_noise("gaussian2", cov=np.eye(2))
        else:
            cls = HeatModel if kind == "heat" else ReactionDiffusionModel
            model = cls(es1, T=0.25, mesh=mesh)
            theta0 = _field(es1, [([1], 1, 0.4)], const=0.3)
            noise = make_noise("gaussian", variance=1.0)
        design = DesignMeasure(0.25)
        M = assemble_information_matrix(model, theta0, noise, design, 6)
        assert all(a is b for a, b in zip(M.experiment(), (model, theta0, noise, design)))
        assert np.array_equal(M.experiment().base.data, model.solve(theta0).data)
        method = "closed-form" if kind == "heat" else "batch"
        assert M.meta == {"model": kind, "noise": noise.family, "design": "uniform", "n_basis": 6, "method": method}

    def test_rd_gram_vs_dense_grid_oracle(self, es1):
        # oracle: same linearized fields, but spatial values on a dense grid
        # and an independently coded weighted accumulation
        mesh = TimeMesh.uniform(0.5, 128)
        model = ReactionDiffusionModel(es1, T=0.5, reaction=BumpReaction(), mesh=mesh)
        noise = make_noise("gaussian", variance=0.7)
        design = DesignMeasure(0.5)
        theta0 = _field(es1, [([1], 1, 0.4)], const=0.3)
        M = assemble_information_matrix(model, theta0, noise, design, 9)
        assert np.abs(M.matrix - M.matrix.T).max() < 1e-12
        assert M.eig_min > 0

        cols = np.eye(es1.size, 9)
        batch = held_tangents(model, theta0, cols)
        n = 64
        fish = 1.0 / 0.7
        G = np.zeros((9, 9))
        for i in range(mesh.n_nodes):
            vals = values_from_coeffs(es1, batch.data[i].T, n)  # (9, n)
            G += mesh.weights[i] * (vals @ vals.T) / n
        G *= fish / design.T
        np.testing.assert_allclose(M.matrix, G, atol=1e-6)

    def test_ns_assembly_pd(self):
        es = build_eigensystem(2, 3, DIV_FREE)
        mesh = TimeMesh.uniform(0.25, 64)
        model = NavierStokesModel(es, viscosity=0.05, T=0.25, mesh=mesh)
        noise = make_noise("gaussian2", cov=np.array([[0.5, 0.1], [0.1, 0.8]]))
        design = DesignMeasure(0.25)
        theta0 = _field(es, [([1, 0], 1, 0.4), ([0, 1], 2, 0.3)])
        M = assemble_information_matrix(model, theta0, noise, design, 8)
        assert M.eig_min > 0
        assert M.cond < 1e6

    def test_basis_larger_than_eigensystem_rejected(self, heat_setup):
        model, noise, design, theta0, _ = heat_setup
        with pytest.raises(ValueError):
            assemble_information_matrix(model, theta0, noise, design, 99)

    @pytest.mark.parametrize("T", [0.5, 2.0])
    def test_design_horizon_other_than_model_rejected(self, heat_setup, T):
        # T = 0.5 would double the Gram's density 1/T over half the horizon;
        # T = 2.0 would draw design times past the model's mesh
        model, noise, _, theta0, _ = heat_setup
        with pytest.raises(ValueError, match="horizon"):
            assemble_information_matrix(model, theta0, noise, DesignMeasure(T), 9)
        with pytest.raises(ValueError, match="horizon"):
            norm_equivalence_diagnostic(model, theta0, DesignMeasure(T), [4, 9], 10, 1.0, np.random.default_rng(0))

    def test_coefficient_and_grid_quadratures_agree(self, es1):
        # amplitude-0 cosine design runs the grid branch; it must reproduce
        # the uniform (coefficient-space) branch
        mesh = TimeMesh.uniform(0.5, 64)
        model = ReactionDiffusionModel(es1, T=0.5, reaction=BumpReaction(), mesh=mesh)
        noise = make_noise("gaussian", variance=0.7)
        theta0 = _field(es1, [([1], 1, 0.4)], const=0.3)
        Mu = assemble_information_matrix(model, theta0, noise, DesignMeasure(0.5), 9)
        Mg = assemble_information_matrix(
            model, theta0, noise, DesignMeasure(0.5, kind="cosine", amplitude=0.0), 9
        )
        np.testing.assert_allclose(Mg.matrix, Mu.matrix, atol=1e-13)

    def test_ns_cosine_gram_vs_dense_grid_oracle(self):
        # oracle: the same div-free tangent batch evaluated mode by mode at
        # the points of a dense 32 x 32 grid (basis_values_at), with an
        # independently coded accumulation of w_i lambda(x) U_a^T F U_b
        es = build_eigensystem(2, 3, DIV_FREE)
        mesh = TimeMesh.uniform(0.25, 16)
        model = NavierStokesModel(es, viscosity=0.05, T=0.25, mesh=mesh)
        design = DesignMeasure(0.25, kind="cosine", amplitude=0.6, axis=1)
        fisher = fisher_matrix(make_noise("gaussian2", cov=np.array([[0.5, 0.2], [0.2, 1.1]])))
        theta0 = _field(es, [([1, 0], 1, 0.4), ([0, 1], 2, 0.3)])
        batch = held_tangents(model, theta0, np.eye(es.size, 10))
        G = spacetime_gram(batch, design, fisher)

        n = 32
        ax = np.arange(n) / n
        x = np.array([(a, b) for a in ax for b in ax])
        phi = basis_values_at(es, x)  # (n^2, nm)
        lam = design.density(np.zeros(len(x)), x)
        oracle = np.zeros((10, 10))
        for w, v in zip(mesh.weights, batch.data):
            u = np.einsum("xm,mc,mb->xcb", phi, es.dirs, v)  # (n^2, 2, B)
            fu = np.einsum("cd,xdb->xcb", fisher.matrix, u)
            oracle += w * np.einsum("x,xca,xcb->ab", lam, u, fu) / len(x)
        assert np.abs(G - oracle).max() <= 1e-12 * np.abs(oracle).max()
        assert np.abs(oracle - np.diag(np.diag(oracle))).max() > 1e-3 * np.abs(oracle).max()

    def test_heat_cosine_closed_form(self, es1):
        # U_j = e^{-lam_j t} phi_j, so with lambda = (1 + a cos 2 pi x) / T
        # M_jl = F / T * (1 - e^{-(lam_j + lam_l) T}) / (lam_j + lam_l)
        #        * (delta_jl + a int phi_j phi_l cos 2 pi x dx),
        # where the cosine couples 1 with cos 2 pi x (1/sqrt 2) and each
        # cos/sin mode with its neighbour in k (1/2)
        T, a, var = 1.0, 0.5, 0.8
        model = HeatModel(es1, T=T, mesh=TimeMesh.graded(T, levels=16, steps_per_block=64))
        design = DesignMeasure(T, kind="cosine", amplitude=a)
        M = assemble_information_matrix(
            model, FourierCoeffs.zeros(es1), make_noise("gaussian", variance=var), design, 9
        )
        coupling = np.zeros((9, 9))
        coupling[es1.index_of([0], 0), es1.index_of([1], 1)] = 1 / np.sqrt(2)
        for k in range(1, 4):
            for kind in (1, 2):
                coupling[es1.index_of([k], kind), es1.index_of([k + 1], kind)] = 0.5
        space = np.eye(9) + a * (coupling + coupling.T)
        rate = es1.lam[:9, None] + es1.lam[None, :9]
        time = np.where(rate > 0, -np.expm1(-rate * T) / np.where(rate > 0, rate, 1.0), T)
        exact = time * space / (var * T)
        assert np.abs(M.matrix - exact).max() < 1e-10

    def test_grid_quadrature_vector_fields(self):
        # same consistency for p=2 with a full noise matrix
        es = build_eigensystem(2, 3, DIV_FREE)
        mesh = TimeMesh.uniform(0.25, 32)
        model = NavierStokesModel(es, viscosity=0.05, T=0.25, mesh=mesh)
        noise = make_noise("gaussian2", cov=np.array([[0.5, 0.2], [0.2, 1.1]]))
        theta0 = _field(es, [([1, 0], 1, 0.4), ([0, 1], 2, 0.3)])
        Mu = assemble_information_matrix(model, theta0, noise, DesignMeasure(0.25), 8)
        Mg = assemble_information_matrix(
            model, theta0, noise, DesignMeasure(0.25, kind="cosine", amplitude=0.0), 8
        )
        np.testing.assert_allclose(Mg.matrix, Mu.matrix, atol=1e-13)


def _streamed_case(kind, kmax, amplitude):
    """A nonlinear model at a nontrivial theta0, a Gaussian noise and a design."""
    mesh = TimeMesh.graded(0.25, levels=2, steps_per_block=4)
    if kind == "ns":
        es = build_eigensystem(2, kmax, DIV_FREE)
        model = NavierStokesModel(es, viscosity=0.05, T=0.25, mesh=mesh)
        theta0 = _field(es, [([1, 0], 1, 0.4), ([0, 1], 2, 0.3)])
        noise = make_noise("gaussian2", cov=np.array([[0.5, 0.2], [0.2, 1.1]]))
    else:
        es = build_eigensystem(1, kmax)
        model = ReactionDiffusionModel(es, T=0.25, mesh=mesh)
        theta0 = _field(es, [([1], 1, 0.8), ([2], 2, -0.5)], const=0.3)
        noise = make_noise("gaussian", variance=0.7)
    design = DesignMeasure(0.25) if amplitude is None else DesignMeasure(0.25, kind="cosine", amplitude=amplitude)
    return model, theta0, noise, design


class TestNodeGram:
    """Each node adds W^T W, W = R^T V_i for the pointwise form B = R R^T
    (the square root of a uniform design's diagonal B, else B's Cholesky
    factor); the oracle is the product V_i^T B V_i with B itself."""

    @pytest.mark.parametrize(
        "kind, noise, amplitude",
        [
            ("rd", {"family": "gaussian", "variance": 0.7}, None),
            ("rd", {"family": "gaussian", "variance": 0.7}, 0.5),
            ("ns", {"family": "gaussian2", "cov": np.array([[0.5, 0.2], [0.2, 1.1]])}, None),
            ("ns", {"family": "gaussian2", "cov": np.array([[0.5, 0.2], [0.2, 1.1]])}, 0.6),
        ],
        ids=["rd-uniform", "rd-cosine", "ns-uniform", "ns-cosine"],
    )
    def test_matches_the_form_product(self, kind, noise, amplitude):
        es = build_eigensystem(1, 8) if kind == "rd" else build_eigensystem(2, 3, DIV_FREE)
        mesh = TimeMesh.graded(0.25, levels=2, steps_per_block=4)
        design = DesignMeasure(0.25)
        if amplitude is not None:
            design = DesignMeasure(0.25, kind="cosine", amplitude=amplitude, axis=es.d - 1)
        fisher = fisher_matrix(make_noise(**noise))
        form = _pointwise_form(es, design, fisher)
        assert (np.abs(form - np.diag(np.diag(form))).max() == 0.0) == (amplitude is None)
        assert np.ptp(np.diag(form)) > 0 or kind == "rd"  # F's off-diagonal weighs the NS modes unequally
        K = 12
        gram = _NodeGram(es, mesh, design, fisher, K)
        blocks = np.random.default_rng(K).standard_normal((mesh.n_nodes, es.size, K))
        oracle = np.zeros((K, K))
        for i, v in enumerate(blocks):
            gram.add(i, v)
            oracle += mesh.weights[i] * (v.T @ form @ v)
        assert np.abs(gram.value() - oracle).max() <= 1e-13 * np.abs(oracle).max()


class TestStreamedGram:
    """Assembly adds each node's tangent block to the Gram as the march
    reaches it; the oracle is the Gram of the held batch."""

    @pytest.mark.parametrize(
        "kind, kmax, K, amplitude",
        [
            ("rd", 8, 12, None), ("rd", 8, 12, 0.5), ("rd", 80, 4, None), ("rd", 80, 4, 0.5),
            ("ns", 2, 8, None), ("ns", 2, 8, 0.6),
        ],
        ids=["rd-dense-uniform", "rd-dense-cosine", "rd-fft-uniform", "rd-fft-cosine", "ns-uniform", "ns-cosine"],
    )
    def test_bitwise_equal_to_held_batch(self, kind, kmax, K, amplitude):
        model, theta0, noise, design = _streamed_case(kind, kmax, amplitude)
        if kmax == 80:  # the FFT path of spectral's transforms
            assert model.es.size * model.n**model.es.d > DENSE_MAX_ENTRIES
        batch = held_tangents(model, theta0, np.eye(model.es.size, K))
        M = assemble_information_matrix(model, theta0, noise, design, K)
        assert np.array_equal(M.matrix, spacetime_gram(batch, design, fisher_matrix(noise)))
        # the norm-equivalence Gram, under no noise form
        G, base = _tangent_gram(model, theta0, design, None, K)
        assert np.array_equal(G, spacetime_gram(batch, design))
        assert np.array_equal(base.data, batch.base.data)

    def test_assembly_holds_no_tangent_batch(self):
        # the batch of every node's (nm, K) block would be 7.5 MB here
        es = build_eigensystem(1, 32)
        mesh = TimeMesh.graded(0.5, levels=6, steps_per_block=32)
        model = ReactionDiffusionModel(es, T=0.5, mesh=mesh)
        theta0, K = _field(es, [([1], 1, 0.4)], const=0.3), 64
        noise, design = make_noise("gaussian", variance=1.0), DesignMeasure(0.5)
        tracemalloc.start()
        try:
            assemble_information_matrix(model, theta0, noise, design, K)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < mesh.n_nodes * es.size * K * 8 / 4


class TestLanNorm:
    def test_unit_mode_diagonal(self, heat_setup):
        _, _, _, _, M = heat_setup
        h = FourierCoeffs.unit(M.es, 3)
        assert lan_norm(h, M) == pytest.approx(np.sqrt(M.matrix[3, 3]), rel=1e-12)

    def test_zero(self, heat_setup):
        _, _, _, _, M = heat_setup
        assert lan_norm(FourierCoeffs.zeros(M.es), M) == 0.0

    def test_matrix_vs_direct_definition(self, es1):
        mesh = TimeMesh.uniform(0.5, 128)
        model = ReactionDiffusionModel(es1, T=0.5, reaction=BumpReaction(), mesh=mesh)
        noise = make_noise("laplace", scale=1.0)
        design = DesignMeasure(0.5)
        theta0 = _field(es1, [([1], 1, 0.4)], const=0.3)
        M = assemble_information_matrix(model, theta0, noise, design, 9)
        rng = np.random.default_rng(13)
        for _ in range(20):
            h = FourierCoeffs(es1, np.concatenate([rng.standard_normal(9), np.zeros(es1.size - 9)]))
            direct = lan_norm_direct(model, theta0, h, noise, design)
            assert lan_norm(h, M) == pytest.approx(direct, rel=1e-6)

    def test_outside_span_rejected(self):
        es = build_eigensystem(1, 8)  # 17 eigenfunctions, 9 retained below
        model = HeatModel(es, T=1.0, mesh=TimeMesh.uniform(1.0, 64))
        M = assemble_information_matrix(
            model, FourierCoeffs.zeros(es), make_noise("gaussian", variance=1.0),
            DesignMeasure(1.0), 9,
        )
        h = FourierCoeffs.zeros(es)
        h.data[-1] = 1.0  # beyond the 9 retained basis vectors
        with pytest.raises(ValueError):
            lan_norm(h, M)


class TestSNorm:
    def test_first_mode_closed_form(self, heat_setup):
        _, _, _, _, M = heat_setup
        psi = FourierCoeffs.unit(M.es, 1)
        expected = 8 * np.pi**2 / (1 - np.exp(-8 * np.pi**2))
        trace = s_norm_truncated(psi, M)
        assert trace["value"] == pytest.approx(expected, rel=1e-8)

    def test_zero(self, heat_setup):
        _, _, _, _, M = heat_setup
        assert s_norm_truncated(FourierCoeffs.zeros(M.es), M)["value"] == 0.0

    def test_trace_monotone_random(self, heat_setup):
        _, _, _, _, M = heat_setup
        rng = np.random.default_rng(14)
        for _ in range(20):
            psi = FourierCoeffs(
                M.es, np.concatenate([rng.standard_normal(9), np.zeros(M.es.size - 9)])
            )
            vals = s_norm_truncated(psi, M, k_grid=[1, 2, 3, 5, 7, 9])["values"]
            assert np.all(np.diff(vals) >= -1e-12 * max(vals))

    def test_log_divergent_target(self):
        # psi_j = (1+lam_j)^{-1/2} j^{-1/2}: trace grows ~ log K
        # oracle: closed-form heat diagonal (M^{-1})_jj = 2 lam_j/(1-e^{-2 lam_j})
        es = build_eigensystem(1, 64)
        mesh = TimeMesh.graded(1.0, levels=20, steps_per_block=64)
        model = HeatModel(es, T=1.0, mesh=mesh)
        M = assemble_information_matrix(
            model, FourierCoeffs.zeros(es), make_noise("gaussian", variance=1.0),
            DesignMeasure(1.0), 128,
        )
        j = np.arange(1, 129, dtype=float)
        psi_vec = (1 + es.lam[:128]) ** -0.5 * j**-0.5
        psi = FourierCoeffs(es, np.concatenate([psi_vec, np.zeros(es.size - 128)]))
        trace = s_norm_truncated(psi, M, k_grid=[8, 16, 32, 64, 128])
        lam = es.lam[:128]
        minv = np.where(lam > 0, 2 * lam / -np.expm1(-2 * np.where(lam > 0, lam, 1.0)), 1.0)
        oracle = [float(np.sum(minv[:k] * psi_vec[:k] ** 2)) for k in (8, 16, 32, 64, 128)]
        np.testing.assert_allclose(trace["values"], oracle, rtol=1e-6)
        flag, inc = octave_divergence_flag(trace["k_grid"], trace["values"])
        assert flag
        inc = np.array(inc[-3:])
        assert inc.max() / inc.min() < 1.3  # per-octave increments within 30%


class TestPrefixTraces:
    def test_snorm_matches_block_solves(self, es1):
        # non-diagonal SPD M: psi_k^T A_k^{-1} psi_k from a solve with each
        # leading block, at every k
        rng = np.random.default_rng(18)
        B = rng.standard_normal((9, 9))
        A = B @ B.T / 9 + np.eye(9)
        v = rng.standard_normal(9)
        trace = s_norm_truncated(v, InformationMatrix(A, es1), k_grid=range(1, 10))
        oracle = [float(v[:k] @ np.linalg.solve(A[:k, :k], v[:k])) for k in range(1, 10)]
        np.testing.assert_allclose(trace["values"], oracle, rtol=1e-12)

    @pytest.mark.parametrize("k", [0, 10])
    def test_truncation_outside_matrix_rejected(self, heat_setup, k):
        M = heat_setup[-1]
        with pytest.raises(ValueError):
            s_norm_truncated(np.ones(9), M, k_grid=[k])


class TestOrthonormalize:
    def test_diagonal_case(self, heat_setup):
        _, _, _, _, M = heat_setup
        H = orthonormalize_h(M)
        expected = np.diag(1.0 / np.sqrt(np.diag(M.matrix)))
        np.testing.assert_allclose(H, expected, atol=1e-10)

    def test_gram_residual_generic(self, es1):
        rng = np.random.default_rng(15)
        A = rng.standard_normal((9, 9))
        mat = A @ A.T + 0.5 * np.eye(9)
        from pdefisher.information import InformationMatrix

        M = InformationMatrix(mat, es1)
        H = orthonormalize_h(M)
        assert float(np.max(np.abs(H.T @ M.matrix @ H - np.eye(M.n_basis)))) < 1e-8

    def test_matches_metric_gram_schmidt(self, es1):
        # Gram-Schmidt of e_1, ..., e_K in the M inner product, written out
        rng = np.random.default_rng(19)
        B = rng.standard_normal((9, 9))
        A = B @ B.T / 9 + np.eye(9)
        G = np.zeros((9, 9))
        for j in range(9):
            v = np.eye(9)[j]
            v = v - G[:, :j] @ (G[:, :j].T @ (A @ v))
            G[:, j] = v / np.sqrt(v @ A @ v)
        np.testing.assert_allclose(orthonormalize_h(InformationMatrix(A, es1)), G, atol=1e-12)

    def test_snorm_via_basis_expansion(self, es1):
        # sum_j <psi, h_j>^2 equals psi^T M^{-1} psi
        rng = np.random.default_rng(16)
        A = rng.standard_normal((9, 9))
        from pdefisher.information import InformationMatrix

        M = InformationMatrix(A @ A.T + 0.5 * np.eye(9), es1)
        H = orthonormalize_h(M)
        psi = rng.standard_normal(9)
        via_basis = float(np.sum((psi @ H) ** 2))
        assert via_basis == pytest.approx(inv_quadform(M, psi), rel=1e-8)


class TestConditionLimit:
    def test_ill_conditioned_matrix_rejected(self, es1):
        # the CLI maps the RuntimeError to exit 3; the limit is cond 1e12
        with pytest.raises(RuntimeError, match="condition"):
            InformationMatrix(np.diag([1.0, 1e-13]), es1)
        assert InformationMatrix(np.diag([1.0, 1e-11]), es1).cond == pytest.approx(1e11)

    def test_indefinite_matrix_rejected(self, es1):
        # the CLI's info-matrix task relies on this for eig_min > 0
        with pytest.raises(RuntimeError, match="not positive definite"):
            InformationMatrix(np.diag([1.0, -1.0]), es1)


class TestInvariants:
    def test_isometry_at_truncation(self, heat_setup):
        # H-norm of M^{-1} psi equals the dual norm of psi
        _, _, _, _, M = heat_setup
        rng = np.random.default_rng(17)
        psi = rng.standard_normal(9)
        bar = M.solve(psi)
        lhs = np.sqrt(bar @ M.matrix @ bar)
        rhs = np.sqrt(inv_quadform(M, psi))
        assert abs(lhs - rhs) < 1e-10

    def test_duality_attainment(self, heat_setup):
        # sup over unit-H v of <psi, v> is attained at v* ~ M^{-1} psi
        _, _, _, _, M = heat_setup
        rng = np.random.default_rng(18)
        psi = rng.standard_normal(9)
        dual = np.sqrt(inv_quadform(M, psi))
        vstar = M.solve(psi)
        vstar = vstar / np.sqrt(vstar @ M.matrix @ vstar)
        assert psi @ vstar == pytest.approx(dual, rel=1e-10)
        for _ in range(50):
            v = rng.standard_normal(9)
            v = v / np.sqrt(v @ M.matrix @ v)
            assert abs(psi @ v) <= dual * (1 + 1e-10)

    def test_homeomorphism_for_every_noise(self, es1):
        # Cholesky succeeds and the band stays finite whatever the noise
        mesh = TimeMesh.uniform(0.5, 64)
        model = ReactionDiffusionModel(es1, T=0.5, reaction=BumpReaction(), mesh=mesh)
        design = DesignMeasure(0.5)
        theta0 = _field(es1, [([1], 1, 0.4)], const=0.3)
        for fam, kw in [
            ("gaussian", {"variance": 0.5}),
            ("laplace", {"scale": 1.0}),
            ("logistic", {"scale": 0.8}),
            ("cosine_bump", {}),
        ]:
            M = assemble_information_matrix(
                model, theta0, make_noise(fam, **kw), design, 9
            )
            assert M.eig_min > 0 and np.isfinite(M.cond)


class TestDesignMeasure:
    def test_uniform_unit_mass(self):
        d = DesignMeasure(2.0)
        x = (np.arange(128) / 128).reshape(-1, 1)
        dens = d.density(np.full(128, 0.7), x)
        assert float(np.mean(dens)) * 2.0 == pytest.approx(1.0, abs=1e-12)

    def test_cosine_bounds_and_mass(self):
        # (1 - |a|) / T <= lambda <= (1 + |a|) / T, attained at x = 1/2 and 0
        d = DesignMeasure(2.0, kind="cosine", amplitude=0.5)
        lo, hi = (1.0 - 0.5) / 2.0, (1.0 + 0.5) / 2.0
        x = (np.arange(512) / 512).reshape(-1, 1)
        dens = d.density(np.zeros(512), x)
        assert float(np.mean(dens)) * 2.0 == pytest.approx(1.0, abs=1e-8)
        assert np.all(dens >= lo - 1e-12)
        assert np.all(dens <= hi + 1e-12)
        assert dens.min() == pytest.approx(lo) and dens.max() == pytest.approx(hi)

    def test_sampler_matches_law(self):
        from scipy import stats

        d = DesignMeasure(1.0, kind="cosine", amplitude=0.5)
        rng = np.random.default_rng(21)
        t, x = d.sample(rng, 100_000, 1)
        cdf = lambda u: u + 0.5 * np.sin(2 * np.pi * u) / (2 * np.pi)
        ks = stats.kstest(x[:, 0], cdf)
        assert ks.pvalue > 0.01
        assert stats.kstest(t, "uniform").pvalue > 0.01

    @pytest.mark.parametrize("a", [-0.9, 0.5, 0.6])
    def test_quantile_inverts_cdf(self, a):
        cdf = lambda x: x + a * np.sin(2 * np.pi * x) / (2 * np.pi)
        near = np.logspace(-15, -1, 57)
        u = np.concatenate(([0.0, 1.0], np.linspace(0.0, 1.0, 4001), near, 1.0 - near))
        x = raised_cosine_quantile(u, a)
        assert np.abs(cdf(x) - u).max() <= 1e-13
        assert np.all((x >= 0.0) & (x <= 1.0))

    @pytest.mark.parametrize("a", [-0.9, 0.5, 0.6])
    def test_draws_invert_the_same_uniforms(self, a):
        # draw order t, then x, one uniform per coordinate; only the design
        # axis is transformed
        d = DesignMeasure(2.0, kind="cosine", amplitude=a, axis=1)
        t, x = d.sample(np.random.default_rng(5), 20_000, 2)
        ref = np.random.default_rng(5)
        np.testing.assert_array_equal(t, ref.uniform(0.0, 2.0, 20_000))
        u = ref.uniform(0.0, 1.0, (20_000, 2))
        np.testing.assert_array_equal(x[:, 0], u[:, 0])
        cdf = lambda s: s + a * np.sin(2 * np.pi * s) / (2 * np.pi)
        assert np.abs(cdf(x[:, 1]) - u[:, 1]).max() <= 1e-13
        assert np.all(np.isfinite(x)) and np.all((x >= 0.0) & (x <= 1.0))

    def test_invalid_amplitude(self):
        with pytest.raises(ValueError):
            DesignMeasure(1.0, kind="cosine", amplitude=1.5)


class TestNormEquivalence:
    def test_heat_closed_form_band(self):
        # per-mode ratio^2 = (1+lam)(1-e^{-2 lam T})/(2 lam T); T=1 band in [0.49, 1.01]
        es = build_eigensystem(1, 32)
        mesh = TimeMesh.graded(1.0, levels=20, steps_per_block=128)
        model = HeatModel(es, T=1.0, mesh=mesh)
        design = DesignMeasure(1.0)
        rng = np.random.default_rng(19)
        out = norm_equivalence_diagnostic(
            model, FourierCoeffs.zeros(es), design, [64], 50, 1.0, rng
        )
        entry = out["per_k"][0]
        lam = es.lam[:64]
        exact = np.where(lam > 0, (1 + lam) * -np.expm1(-2 * lam) / np.where(lam > 0, 2 * lam, 1.0), 1.0)
        np.testing.assert_allclose(np.array(entry["mode_ratios"]) ** 2, exact, atol=1e-8)
        assert 0.49 <= entry["eig_min"] ** 2 <= entry["eig_max"] ** 2 <= 1.01
        assert entry["ratio_min"] >= entry["eig_min"] - 1e-12
        assert entry["ratio_max"] <= entry["eig_max"] + 1e-12

    def test_rd_band_stability(self, es1):
        mesh = TimeMesh.graded(0.5, levels=14, steps_per_block=32)
        model = ReactionDiffusionModel(es1, T=0.5, reaction=BumpReaction(), mesh=mesh)
        design = DesignMeasure(0.5)
        theta0 = _field(es1, [([1], 1, 0.4)], const=0.3)
        rng = np.random.default_rng(20)
        out = norm_equivalence_diagnostic(model, theta0, design, [5, 9], 40, 1.0, rng)
        for entry in out["per_k"]:
            assert entry["ratio_max"] / entry["ratio_min"] < 20
        growth = out["per_k"][-1]["ratio_max"] / out["per_k"][0]["ratio_max"] - 1
        assert growth < 0.10

    def test_heat_solves_only_where_m_is_assembled(self, monkeypatch):
        # heat's Gram is closed form and marches nothing: norm-equiv needs no
        # base flow, and an assembled M solves theta0 once for its own
        calls = []
        solve = HeatModel.solve

        def counted(self, theta):
            calls.append(theta)
            return solve(self, theta)

        monkeypatch.setattr(HeatModel, "solve", counted)
        es = build_eigensystem(1, 4)
        model = HeatModel(es, T=1.0, mesh=TimeMesh.uniform(1.0, 16))
        theta0 = _field(es, [([1], 1, 0.4)], const=0.3)
        design = DesignMeasure(1.0)
        norm_equivalence_diagnostic(model, theta0, design, [4, 9], 10, 1.0, np.random.default_rng(0))
        assert len(calls) == 0
        M = assemble_information_matrix(model, theta0, make_noise("gaussian", variance=1.0), design, 9)
        assert len(calls) == 1 and calls[0] is theta0
        np.testing.assert_array_equal(M.experiment().base.data, solve(model, theta0).data)


def test_consumers_of_M_take_no_part_of_its_experiment():
    # M carries the model, theta0, noise, design and eigensystem it was
    # assembled from, so a function that takes M and one of them again could
    # be handed a pair that disagrees
    carried = {"model", "theta0", "noise", "design", "es"}
    src = pathlib.Path(pdefisher.__file__).parent
    takers = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
                if "M" in names and names & carried:
                    takers.append(f"{path.stem}.{node.name}")
    # perfbench/make_references.py calls the pushforward positionally as
    # (model, theta0, M, ...); until it moves, the pushforward checks both
    # against M
    assert takers == ["gaussian.functional_pushforward_bound"]


# Top-level definitions under src/ that nothing there reaches, each kept for
# its reason; the definitional paths the tests compare against live in
# tests/oracles.py instead
_UNREACHED_BY_SRC = {
    # wrapped by perfbench/layers.py, whose counter reads its batch's data,
    # until the program reports its own stages (ROADMAP item 1b)
    "spacetime_gram",
    # reads spectral's private table layout, which
    # test_fourier_layout_lives_in_spectral keeps in spectral.py
    "basis_values_at",
}


def test_src_defines_only_what_src_reaches():
    # a top-level def or class is reached if a statement under src/ other
    # than its own definition reads its name (src/ imports by name), not
    # counting __init__.py's re-exports
    src = pathlib.Path(pdefisher.__file__).parent
    defined, reads = [], []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(stmt.name)
            reads.append((getattr(stmt, "name", None), {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}))
    unreached = {name for name in defined if not any(name in used for owner, used in reads if owner != name)}
    offenders = sorted(unreached - _UNREACHED_BY_SRC)
    stale = sorted(_UNREACHED_BY_SRC - unreached)
    assert not offenders, f"defined under src/ but reached by nothing there: {offenders}"
    assert not stale, f"allow-list entries that src/ now reaches or no longer defines: {stale}"
