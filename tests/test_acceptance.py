"""Acceptance suite: every shipped guarantee at its stated tolerance.

One test per criterion; each prints a PASS/FAIL line (run with -s or -rA to
see them all).  Oracles are closed forms, direct enumerations, or
independent quadratures; Monte-Carlo criteria run at fixed seeds.
"""

import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from pdefisher import (
    BumpReaction,
    DesignMeasure,
    FourierCoeffs,
    HeatModel,
    NavierStokesModel,
    ReactionDiffusionModel,
    TimeMesh,
    assemble_information_matrix,
    build_eigensystem,
    fisher_matrix,
    functional_pushforward_bound,
    lan_montecarlo,
    lan_norm,
    make_noise,
    norm_equivalence_diagnostic,
    qmd_remainder_slope,
    s_norm_truncated,
    sample_efficient_gaussian,
    support_diagnostic,
)
from pdefisher.cli import main as cli_main
from pdefisher.inference import efficiency_report
from pdefisher.information import octave_divergence_flag
from pdefisher.spectral import DIV_FREE

LAM1 = 4 * np.pi**2


def _report(num, ok, text):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def _heat_diag_ref(lam, T=1.0):
    safe = np.where(lam > 0, lam, 1.0)
    return np.where(lam > 0, -np.expm1(-2 * lam * T) / (2 * safe * T), 1.0)


@pytest.fixture(scope="module")
def heat9():
    es = build_eigensystem(1, 4)
    mesh = TimeMesh.graded(1.0, levels=16, steps_per_block=128)
    model = HeatModel(es, T=1.0, mesh=mesh)
    noise = make_noise("gaussian", variance=1.0)
    design = DesignMeasure(1.0)
    theta0 = FourierCoeffs.zeros(es)
    M = assemble_information_matrix(model, theta0, noise, design, 9)
    return es, model, noise, design, theta0, M


@pytest.fixture(scope="module")
def rd_model():
    es = build_eigensystem(1, 32)
    mesh = TimeMesh.graded(0.5, levels=14, steps_per_block=32)
    model = ReactionDiffusionModel(es, T=0.5, reaction=BumpReaction(2.0, 2.5), mesh=mesh)
    theta0 = FourierCoeffs.zeros(es)
    theta0.data[es.index_of([0], 0)] = 0.5
    theta0.data[es.index_of([1], 1)] = 0.3
    theta0.data[es.index_of([2], 2)] = 0.2
    return es, model, theta0


@pytest.fixture(scope="module")
def ns_model():
    es = build_eigensystem(2, 4, DIV_FREE)
    mesh = TimeMesh.graded(0.5, levels=12, steps_per_block=32)
    model = NavierStokesModel(es, viscosity=0.05, T=0.5, mesh=mesh)
    theta0 = FourierCoeffs.zeros(es)
    theta0.data[es.index_of([1, 0], 1)] = 0.4
    theta0.data[es.index_of([0, 1], 2)] = 0.3
    theta0.data[es.index_of([1, 1], 1)] = 0.2
    return es, model, theta0


def test_criterion_01_fisher_matrices():
    got = fisher_matrix(make_noise("gaussian", variance=0.25)).matrix[0, 0]
    ok1 = abs(got - 4.0) / 4.0 < 1e-8
    got_l = fisher_matrix(make_noise("laplace", scale=1.0)).matrix[0, 0]
    ok2 = abs(got_l - 1.0) < 1e-6
    got_b = fisher_matrix(make_noise("cosine_bump")).matrix[0, 0]
    ok3 = abs(got_b - np.pi**2) < 1e-6
    cov = np.array([[0.6, 0.2], [0.2, 1.1]])
    got_2 = fisher_matrix(make_noise("gaussian2", cov=cov)).matrix
    ok4 = np.abs(got_2 - np.linalg.inv(cov)).max() < 1e-6
    _report(
        1,
        ok1 and ok2 and ok3 and ok4,
        f"Fisher: gaussian {got:.9f}, laplace {got_l:.8f}, bump {got_b:.8f}, "
        f"bivariate max err {np.abs(got_2 - np.linalg.inv(cov)).max():.2e}",
    )


def test_criterion_02_heat_information_matrix(heat9):
    es, _, _, _, _, M = heat9
    ref = _heat_diag_ref(es.lam[:9])
    diag_err = np.abs(np.diag(M.matrix) - ref).max()
    off_err = np.abs(M.matrix - np.diag(np.diag(M.matrix))).max()
    ok = diag_err < 1e-10 and off_err < 1e-10
    _report(2, ok, f"heat info matrix: diag err {diag_err:.2e}, off-diag {off_err:.2e}")


def test_criterion_03_snorm_closed_form_and_monotone(heat9):
    es, _, _, _, _, M = heat9
    psi = FourierCoeffs.unit(es, 1)
    val = s_norm_truncated(psi, M)["value"]
    expected = 8 * np.pi**2 / (1 - np.exp(-8 * np.pi**2))
    ok = abs(val - expected) / expected < 1e-8
    rng = np.random.default_rng(100)
    for _ in range(20):
        v = np.zeros(es.size)
        v[:9] = rng.standard_normal(9)
        tr = s_norm_truncated(FourierCoeffs(es, v), M, k_grid=[1, 2, 3, 5, 7, 9])["values"]
        ok = ok and bool(np.all(np.diff(tr) >= -1e-10 * max(tr)))
    _report(3, ok, f"dual norm of first mode {val:.6f} (target {expected:.6f}); 20 traces monotone")


def test_criterion_04_qmd_remainders(heat9, rd_model, ns_model):
    s_grid = [1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1]
    es_h, heat, _, _, theta0_h, _ = heat9
    h = FourierCoeffs.unit(es_h, 1)
    rho_heat = max(qmd_remainder_slope(heat, theta0_h, h, s_grid)[0]["remainders"])
    ok_h = rho_heat < 1e-12

    es_r, rd, theta0_r = rd_model
    h_r = FourierCoeffs.unit(es_r, es_r.index_of([1], 1))
    slope_rd = qmd_remainder_slope(rd, theta0_r, h_r, s_grid)[0]["slope"]
    ok_r = abs(slope_rd - 2.0) < 0.15

    es_n, ns, theta0_n = ns_model
    h_n = FourierCoeffs.unit(es_n, es_n.index_of([0, 1], 1))
    slope_ns = qmd_remainder_slope(ns, theta0_n, h_n, s_grid)[0]["slope"]
    ok_n = abs(slope_ns - 2.0) < 0.2
    _report(
        4,
        ok_h and ok_r and ok_n,
        f"remainders: heat sup {rho_heat:.2e}, RD slope {slope_rd:.3f}, NS slope {slope_ns:.3f}",
    )


def test_criterion_05_norm_equivalence(rd_model, ns_model):
    rng = np.random.default_rng(101)
    es_r, rd, theta0_r = rd_model
    out = norm_equivalence_diagnostic(rd, theta0_r, DesignMeasure(rd.T), [32, 64], 200, 1.0, rng)
    ok = True
    for e in out["per_k"]:
        ok = ok and (e["ratio_max"] / e["ratio_min"] < 20)
    growth_rd = out["per_k"][-1]["ratio_max"] / out["per_k"][0]["ratio_max"] - 1
    ok = ok and growth_rd < 0.10

    es_n, ns, theta0_n = ns_model
    out_n = norm_equivalence_diagnostic(ns, theta0_n, DesignMeasure(ns.T), [32, 64], 200, 1.0, rng)
    for e in out_n["per_k"]:
        ok = ok and (e["ratio_max"] / e["ratio_min"] < 20)
    growth_ns = out_n["per_k"][-1]["ratio_max"] / out_n["per_k"][0]["ratio_max"] - 1
    ok = ok and growth_ns < 0.10

    es = build_eigensystem(1, 32)
    mesh = TimeMesh.graded(1.0, levels=20, steps_per_block=128)
    heat = HeatModel(es, T=1.0, mesh=mesh)
    out_h = norm_equivalence_diagnostic(
        heat, FourierCoeffs.zeros(es), DesignMeasure(1.0), [64], 200, 1.0, rng
    )
    lam = es.lam[:64]
    exact = np.sqrt((1 + lam) * _heat_diag_ref(lam))
    heat_err = np.abs(np.array(out_h["per_k"][0]["mode_ratios"]) - exact).max()
    ok = ok and heat_err < 1e-8
    _report(
        5,
        ok,
        f"norm equivalence: RD growth {growth_rd:.3f}, NS growth {growth_ns:.3f}, "
        f"heat mode-ratio err {heat_err:.2e}",
    )


def test_criterion_06_lan_montecarlo(heat9, rd_model):
    es, _, _, _, _, M = heat9
    h = FourierCoeffs.unit(es, 1)
    h = h * (1.0 / lan_norm(h, M))
    rep = lan_montecarlo(h, M, 5000, 400, rng_seed=606, workers=2)
    ok = (
        abs(rep["mean"] + 0.5) <= 3 * rep["mean_stderr"]
        and abs(rep["var"] - 1.0) <= 0.15
        and rep["ks_pvalue"] > 0.01
    )

    es_r, rd, theta0_r = rd_model
    lap = make_noise("laplace", scale=1.0)
    design_r = DesignMeasure(rd.T)
    M_r = assemble_information_matrix(rd, theta0_r, lap, design_r, 9)
    # low-amplitude direction: the quadratic forward-map remainder (an
    # O(N^-1/2) term) stays far below the Monte-Carlo resolution
    h_r = FourierCoeffs.unit(es_r, 0)
    h_r = h_r * (1.0 / lan_norm(h_r, M_r))
    rep_r = lan_montecarlo(h_r, M_r, 5000, 400, rng_seed=607, workers=2)
    ok_r = (
        abs(rep_r["mean"] + 0.5) <= 3 * rep_r["mean_stderr"]
        and abs(rep_r["var"] - 1.0) <= 0.15
        and rep_r["ks_pvalue"] > 0.01
    )
    _report(
        6,
        ok and ok_r,
        f"LAN: heat mean {rep['mean']:.4f} var {rep['var']:.3f} ksp {rep['ks_pvalue']:.3f}; "
        f"RD+Laplace mean {rep_r['mean']:.4f} var {rep_r['var']:.3f} ksp {rep_r['ks_pvalue']:.3f}",
    )


def test_criterion_07_efficiency_attainment(heat9):
    es, _, noise, _, _, M = heat9
    psi = FourierCoeffs.unit(es, 1)
    rep = efficiency_report(
        psi, M, n=2000, replicates=2000,
        rng_seed=707, k_grid=[1, 2, 4, 9], workers=2,
    )
    ratio = rep["variance_over_bound"]
    ok = (0.9 <= ratio <= 1.15) and not rep["divergent"]

    # log-divergent target: flag fires, per-octave increments within 30%
    es_big = build_eigensystem(1, 256)
    mesh = TimeMesh.graded(1.0, levels=24, steps_per_block=32)
    heat_big = HeatModel(es_big, T=1.0, mesh=mesh)
    M_big = assemble_information_matrix(
        heat_big, FourierCoeffs.zeros(es_big), noise, DesignMeasure(1.0), 512
    )
    j = np.arange(1, 513, dtype=float)
    psi_vec = (1 + es_big.lam[:512]) ** -0.5 * j**-0.5
    psi_div = FourierCoeffs(es_big, np.concatenate([psi_vec, np.zeros(es_big.size - 512)]))
    trace = s_norm_truncated(psi_div, M_big, k_grid=[32, 64, 128, 256, 512])
    flag, inc = octave_divergence_flag(trace["k_grid"], trace["values"])
    inc = np.asarray(inc)
    band = inc.max() / inc.min()
    ok_div = flag and band <= 1.3
    _report(
        7,
        ok and ok_div,
        f"efficiency: variance/bound {ratio:.4f}; divergent target flagged={flag}, "
        f"octave band {band:.3f}",
    )


def test_criterion_08_gaussian_support_thresholds():
    es = build_eigensystem(1, 256)
    mesh = TimeMesh.graded(1.0, levels=24, steps_per_block=32)
    model = HeatModel(es, T=1.0, mesh=mesh)
    M = assemble_information_matrix(
        model, FourierCoeffs.zeros(es), make_noise("gaussian", variance=1.0),
        DesignMeasure(1.0), 512,
    )
    rep = support_diagnostic(
        M, [1.0, 2.0], [64, 128, 256, 512], kappa=1.0, alpha=0.5,
        m_mc=5000, rng=np.random.default_rng(808), mc_k=64,
    )
    by_beta = {e["beta"]: e for e in rep["betas"]}
    plateau = by_beta[2.0]["last_rel_increment"]
    growth = by_beta[1.0]["moments"][-1] / by_beta[1.0]["moments"][0] - 1
    ok = plateau < 0.02 and growth > 0.25
    mc_ok = all(
        abs(e["estimate"] - e["exact"]) <= 3 * e["stderr"] for e in rep["mc"]["betas"]
    )
    _report(
        8,
        ok and mc_ok,
        f"support: beta=2 increment {plateau:.4f}, beta=1 growth {growth:.2f}, MC within 3 sigmas: {mc_ok}",
    )


def test_criterion_09_ns_solver(ns_model):
    es, ns, theta0 = ns_model
    field = ns.solve(theta0)
    div = ns.lattice_divergence(field)
    j = es.index_of([1, 0], 1)
    single = ns.solve(FourierCoeffs.unit(es, j))
    exact = np.exp(-ns.nu * es.lam[j] * ns.mesh.nodes)
    decay_err = max(
        np.abs(single.data[:, j] - exact).max(),
        np.abs(np.delete(single.data, j, axis=1)).max(),
    )
    energy = ns.energy_balance_residual(field)
    h = FourierCoeffs.unit(es, es.index_of([0, 1], 1))
    slope = qmd_remainder_slope(ns, theta0, h, [1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1])[0]["slope"]
    ok = div <= 1e-12 and decay_err <= 1e-8 and energy < 1e-6 and abs(slope - 2.0) <= 0.2
    _report(
        9,
        ok,
        f"NS: divergence {div:.1e}, decay err {decay_err:.1e}, energy residual {energy:.1e}, "
        f"slope {slope:.3f}",
    )


def test_criterion_10_positive_time_pushforward():
    es = build_eigensystem(1, 32)
    mesh = TimeMesh.graded(1.0, levels=20, steps_per_block=40)
    model = HeatModel(es, T=1.0, mesh=mesh)
    noise = make_noise("gaussian", variance=1.0)
    design = DesignMeasure(1.0)
    theta0 = FourierCoeffs.zeros(es)
    t0, t1 = 0.1, 0.5
    estimates = {}
    ss = np.random.SeedSequence(1010)
    for k, child in zip((32, 64), ss.spawn(2)):
        M = assemble_information_matrix(model, theta0, noise, design, k)
        batch = sample_efficient_gaussian(M, 2000, np.random.default_rng(child))
        estimates[k] = functional_pushforward_bound(
            model, theta0, M, batch, "trajectory", "l2", t0, t1, power=2.0
        )
    rel_change = abs(estimates[64]["estimate"] - estimates[32]["estimate"]) / estimates[64]["estimate"]
    ok_stab = rel_change < 0.05

    M64 = assemble_information_matrix(model, theta0, noise, design, 64)
    lam = es.lam[:64]
    safe = np.where(lam > 0, lam, 1.0)
    integrals = np.where(
        lam > 0, (np.exp(-2 * lam * t0) - np.exp(-2 * lam * t1)) / (2 * safe), t1 - t0
    )
    exact = float(np.sum(np.diag(np.linalg.inv(M64.matrix)) * integrals))
    err = abs(estimates[64]["estimate"] - exact)
    ok_exact = err <= 3 * estimates[64]["stderr"]
    _report(
        10,
        ok_stab and ok_exact,
        f"pushforward: K-change {rel_change:.4f}, closed-form dev {err:.2e} "
        f"(3 sigma = {3*estimates[64]['stderr']:.2e})",
    )


def test_criterion_11_reproducibility(tmp_path):
    cfg = {
        "seed": 1111,
        "model": {
            "kind": "heat",
            "kmax": 4,
            "T": 1.0,
            "mesh": {"kind": "graded", "levels": 14, "steps_per_block": 64},
            "theta0": {"constant": 0.5, "modes": [{"k": [1], "kind": "cos", "value": 0.3}]},
        },
        "noise": {"family": "gaussian", "variance": 1.0},
        "design": {"kind": "uniform"},
        "numerics": {"n_basis": 9},
        "task": {
            "name": "lan",
            "h": {"modes": [{"k": [1], "kind": "cos", "value": 1.0}], "scale_to_lan_norm": 1.0},
            "n": 400,
            "replicates": 60,
            "under": "null",
            "mean_sigmas": 4.0,
            "var_rel_tol": 0.5,
            "ks_pmin": 0.001,
        },
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = CliRunner().invoke(cli_main, ["lan", "-c", str(path), "-o", str(out)])
        assert result.exit_code == 0, result.output
        blobs.append((out / "report.json").read_bytes())
    ok = blobs[0] == blobs[1]
    _report(11, ok, "identical config+seed reproduce report.json byte-for-byte")
