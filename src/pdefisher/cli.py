"""Config-driven experiment runner.

Every subcommand reads one YAML/JSON config, runs its diagnostic, and writes
machine-readable artifacts into --out:

* report.json -- resolved config, results, and one {value, tolerance, pass}
  entry per numeric claim; byte-identical across runs with the same
  config+seed (timings live in meta.json)
* meta.json   -- wall-clock timing, peak RSS and package version
* *.csv       -- trace data (K vs value, s vs remainder, beta vs moment)
* info_matrix.json + info_matrix.bin -- the info-matrix task's dump

Exit codes: 0 all checks pass, 1 a tolerance failed, 2 invalid config (no
outputs) or an --out that cannot be written, 3 numerical failure
(failure.json only).
"""

import csv
import json
import os
import pathlib
import resource
import sys
import time

import click
import numpy as np
import yaml

from . import __version__
from .config import (
    ConfigError,
    TASK_NAMES,
    build_experiment,
    build_field,
    dumps_report,
    load_config,
    resolve_config,
    validate_config,
)
from .forward import REMAINDER_FLOOR, NavierStokesModel, qmd_remainder_slope
from .gaussian import functional_pushforward_bound, sample_efficient_gaussian, support_diagnostic
from .inference import efficiency_report, lan_montecarlo
from .information import (
    assemble_information_matrix,
    lan_norm,
    norm_equivalence_diagnostic,
    octave_divergence_flag,
    s_norm_truncated,
)
from .noise import fisher_matrix, sqrt_density_h1_check


def _check(name, value, tolerance, ok):
    return {"name": name, "value": value, "tolerance": tolerance, "pass": bool(ok)}


# ---------------------------------------------------------------------------
# task runners: each returns (results dict, checks list, files dict), the
# files mapping an output name to CSV rows or to bytes
# ---------------------------------------------------------------------------


def _analytic_fisher(noise):
    fam = noise.family
    if fam == "gaussian":
        return np.array([[1.0 / noise.variance]])
    if fam == "gaussian2":
        return noise.prec
    if fam == "laplace":
        return np.array([[1.0 / noise.scale**2]])
    if fam == "logistic":
        return np.array([[1.0 / (3.0 * noise.scale**2)]])
    if fam == "cosine_bump":
        return np.array([[np.pi**2]])
    return None


def _task_fisher(exp, task, rng):
    noise = exp["noise"]
    checks = []
    results = {"family": noise.family, "params": noise.params()}
    if noise.p == 1:
        h1 = sqrt_density_h1_check(noise)
        results["h1"] = h1
        checks.append(_check("h1-membership", h1["h1_energy"], None, not h1["rejected"]))
        if h1["rejected"]:
            return results, checks, {}
    fm = fisher_matrix(noise)
    results["fisher"] = fm.matrix.tolist()
    results["fisher_min_eig"] = fm.evals.min()  # > 0: FisherMatrix raised (exit 3) otherwise
    expected = _analytic_fisher(noise)
    if expected is not None:
        rel = float(np.max(np.abs(fm.matrix - expected)) / np.max(np.abs(expected)))
        results["expected"] = expected.tolist()
        checks.append(_check("matches-analytic", rel, task["tolerance_rel"], rel <= task["tolerance_rel"]))
    return results, checks, {}


def _default_direction(exp):
    es = exp["es"]
    k = [1] if es.d == 1 else [1, 0]
    return build_field(es, {"modes": [{"k": k, "kind": "cos", "value": 1.0}]})


def _spanned_field(exp, task, key, M):
    """The task's ``key`` field (default direction if absent), which must lie
    in the span of the basis retained by M."""
    field = build_field(exp["es"], task[key]) if key in task else _default_direction(exp)
    if np.any(field.data[M.n_basis :] != 0.0):
        raise ConfigError(f"task.{key} has components beyond the {M.n_basis} retained modes")
    return field


def _zero_remainder_check(out, tol):
    """The check of a model linear along h to rounding (no slope to fit)."""
    worst = max(out["remainders"])
    return _check("linear-model-zero-remainder", worst, tol, worst <= tol)


def _task_qmd(exp, task, rng):
    model = exp["model"]
    h = build_field(exp["es"], task["h"]) if "h" in task else _default_direction(exp)
    if not np.any(h.data):
        raise ConfigError("task.h is zero; the remainder check needs a nonzero direction")
    out = qmd_remainder_slope(model, exp["theta0"], h, task["s_values"])[0]
    checks = []
    if model.kind == "heat" or np.isnan(out["slope"]):
        checks.append(_zero_remainder_check(out, task["linear_rho_tol"]))
    else:
        err = abs(out["slope"] - task["slope_target"])
        checks.append(_check("remainder-slope", out["slope"], task["slope_tol"], err <= task["slope_tol"]))
        drops = np.diff(out["normalized"])
        checks.append(_check("normalized-remainder-decreasing", float(drops.max()), 0.0, bool(np.all(drops > 0))))
    csvs = {"qmd_trace.csv": [("s", "remainder", "remainder_over_s")] + list(zip(out["s"], out["remainders"], out["normalized"]))}
    return out, checks, csvs


def _task_norm_equiv(exp, task, rng):
    out = norm_equivalence_diagnostic(
        exp["model"], exp["theta0"], exp["design"],
        task["n_basis_list"], task["trials"], task["kappa"], rng,
    )
    checks = []
    per_k = out["per_k"]
    for entry in per_k:
        ratio = entry["ratio_max"] / entry["ratio_min"]
        checks.append(_check(f"band-max-over-min-K{entry['n_basis']}", ratio, task["max_over_min"], ratio < task["max_over_min"]))
    if len(per_k) >= 2:
        growth = per_k[-1]["ratio_max"] / per_k[0]["ratio_max"] - 1.0
        checks.append(_check("band-growth-under-refinement", growth, task["growth_tol"], growth < task["growth_tol"]))
    rows = [("K", "ratio_min", "ratio_max", "cond")]
    rows += [(e["n_basis"], e["ratio_min"], e["ratio_max"], e["cond"]) for e in per_k]
    for e in per_k:
        e.pop("mode_ratios", None)  # bulky; the CSV carries the band
    return out, checks, {"norm_equiv.csv": rows}


def _task_info_matrix(exp, task, rng):
    M = assemble_information_matrix(exp["model"], exp["theta0"], exp["noise"], exp["design"], exp["n_basis"])
    results = {"n_basis": M.n_basis, "cond": M.cond, "eig_min": M.eig_min, "eig_max": M.eig_max, "method": M.meta["method"]}
    # eig_min > 0: InformationMatrix has already raised (exit 3) on a failed
    # Cholesky factor or above information._COND_LIMIT
    checks = []
    if task["check_heat_closed_form"]:
        if exp["model"].kind != "heat" or not exp["design"].is_uniform:
            raise ConfigError("closed-form check needs the heat model and a uniform design")
        es, T = exp["es"], exp["model"].T
        lam = es.lam[: M.n_basis]
        ref = np.where(lam > 0, -np.expm1(-2 * lam * T) / np.where(lam > 0, 2 * lam * T, 1.0), 1.0)
        ref = ref * float(fisher_matrix(exp["noise"]).matrix[0, 0])
        diag_err = float(np.max(np.abs(np.diag(M.matrix) - ref)))
        off = M.matrix - np.diag(np.diag(M.matrix))
        off_err = float(np.max(np.abs(off)))
        checks.append(_check("heat-diagonal-closed-form", diag_err, task["tolerance"], diag_err <= task["tolerance"]))
        checks.append(_check("heat-off-diagonal-zero", off_err, task["tolerance"], off_err <= task["tolerance"]))
        results["diag_error"] = diag_err
        results["offdiag_max"] = off_err
    files = {}
    if task["dump"]:
        results["dump"] = {"header": "info_matrix.json", "binary": "info_matrix.bin"}
        header = {"n_basis": M.n_basis, "dtype": "<f8", "order": "row-major", "meta": M.meta}
        files["info_matrix.json"] = json.dumps(header, sort_keys=True, indent=2).encode()
        files["info_matrix.bin"] = M.matrix.astype("<f8").tobytes()
    return results, checks, files


def _task_snorm(exp, task, rng):
    M = assemble_information_matrix(exp["model"], exp["theta0"], exp["noise"], exp["design"], exp["n_basis"])
    psi = _spanned_field(exp, task, "psi", M)
    trace = s_norm_truncated(psi, M, k_grid=task.get("k_grid"))
    divergent, increments = octave_divergence_flag(trace["k_grid"], trace["values"])
    diffs = np.diff(trace["values"])
    mono = bool(np.all(diffs >= -1e-12 * max(trace["values"][-1], 1.0)))
    results = {"trace": trace, "divergent": divergent, "increments": increments}
    checks = [_check("trace-nondecreasing", float(diffs.min()) if diffs.size else 0.0, 0.0, mono)]
    if "expected" in task:
        rel = abs(trace["value"] - task["expected"]) / abs(task["expected"])
        checks.append(_check("matches-expected", trace["value"], task["tolerance_rel"], rel <= task["tolerance_rel"]))
    rows = [("k", "value")] + list(zip(trace["k_grid"], trace["values"]))
    return results, checks, {"snorm_trace.csv": rows}


def _task_lan(exp, task, rng):
    M = assemble_information_matrix(exp["model"], exp["theta0"], exp["noise"], exp["design"], exp["n_basis"])
    h = _spanned_field(exp, task, "h", M)
    norm = lan_norm(h, M)
    if norm == 0.0:
        raise ConfigError("task.h is zero; the LAN check needs a nonzero direction")
    if "scale_to_lan_norm" in task.get("h", {}):
        h = h * (task["h"]["scale_to_lan_norm"] / norm)
    report = lan_montecarlo(
        h, M, task["n"], task["replicates"], exp["seed"],
        under=task["under"], workers=exp["workers"],
    )
    mean_err = abs(report["mean"] - report["target_mean"])
    mean_tol = task["mean_sigmas"] * report["mean_stderr"]
    var_rel = abs(report["var"] / report["target_var"] - 1.0)
    checks = [
        _check("mean-matches-target", report["mean"], mean_tol, mean_err <= mean_tol),
        _check("variance-matches-target", report["var"], task["var_rel_tol"], var_rel <= task["var_rel_tol"]),
        _check("ks-pvalue", report["ks_pvalue"], task["ks_pmin"], report["ks_pvalue"] >= task["ks_pmin"]),
    ]
    return report, checks, {}


def _task_gaussian_support(exp, task, rng):
    k_max = max(task["k_grid"])
    M = assemble_information_matrix(exp["model"], exp["theta0"], exp["noise"], exp["design"], k_max)
    report = support_diagnostic(
        M, task["beta_list"], task["k_grid"],
        task["kappa"], task["alpha"],
        m_mc=task["m_mc"], rng=rng, mc_k=task.get("mc_k"),
    )
    checks = []
    for entry in report["betas"]:
        beta = entry["beta"]
        if entry["predicted_convergent"]:
            checks.append(_check(
                f"plateau-beta-{beta}", entry["last_rel_increment"],
                task["plateau_tol"], entry["last_rel_increment"] < task["plateau_tol"],
            ))
        else:
            growth = entry["moments"][-1] / entry["moments"][0] - 1.0
            checks.append(_check(
                f"growth-beta-{beta}", growth, task["growth_min"], growth > task["growth_min"],
            ))
    if "mc" in report:
        for entry in report["mc"]["betas"]:
            err = abs(entry["estimate"] - entry["exact"])
            tol = task["mc_sigmas"] * entry["stderr"]
            checks.append(_check(f"mc-moment-beta-{entry['beta']}", entry["estimate"], tol, err <= tol))
    rows = [("beta", "k", "moment")]
    for entry in report["betas"]:
        rows += [(entry["beta"], k, m) for k, m in zip(report["k_grid"], entry["moments"])]
    return report, checks, {"support_moments.csv": rows}


def _task_pushforward(exp, task, rng):
    seed_seq = np.random.SeedSequence(exp["seed"])
    estimates = []
    for k, child in zip(task["n_basis_list"], seed_seq.spawn(len(task["n_basis_list"]))):
        M = assemble_information_matrix(exp["model"], exp["theta0"], exp["noise"], exp["design"], int(k))
        batch = sample_efficient_gaussian(M, task["m"], np.random.default_rng(child))
        est = functional_pushforward_bound(
            exp["model"], exp["theta0"], M, batch,
            task["functional"], task["loss"], task["t0"], task["t1"], task["power"],
        )
        estimates.append(est)
    results = {"estimates": estimates}
    checks = []
    if len(estimates) >= 2:
        a, b = estimates[0]["estimate"], estimates[-1]["estimate"]
        if b == a:  # also both 0, for a functional flat at theta0
            rel = 0.0
        else:
            rel = abs(b - a) / abs(b) if b != 0 else float("inf")
        checks.append(_check("stability-under-refinement", rel, task["stability_tol"], rel < task["stability_tol"]))
    rows = [("n_basis", "estimate", "stderr")]
    rows += [(e["n_basis"], e["estimate"], e["stderr"]) for e in estimates]
    return results, checks, {"pushforward.csv": rows}


def _task_efficiency(exp, task, rng):
    M = assemble_information_matrix(exp["model"], exp["theta0"], exp["noise"], exp["design"], exp["n_basis"])
    psi = _spanned_field(exp, task, "psi", M)
    report = efficiency_report(
        psi, M, task["n"], task["replicates"], exp["seed"],
        k_grid=task.get("k_grid"), workers=exp["workers"],
    )
    checks = []
    if task["expect"] == "divergent":
        checks.append(_check("divergence-flagged", report["bound"], None, report["divergent"]))
        inc = np.asarray(report["octave_increments"][-3:])
        band = float(inc.max() / inc.min()) if inc.size and inc.min() > 0 else float("inf")
        checks.append(_check("octave-increments-within-30pct", band, 1.3, band <= 1.3))
    else:
        lo, hi = task["ratio_range"]
        ratio = report["variance_over_bound"]
        checks.append(_check("no-false-divergence", report["bound"], None, not report["divergent"]))
        checks.append(_check("variance-over-bound", ratio, [lo, hi], lo <= ratio <= hi))
    rows = [("k", "bound")] + list(zip(report["bound_trace"]["k_grid"], report["bound_trace"]["values"]))
    return report, checks, {"efficiency_trace.csv": rows}


def _task_ns_diagnostics(exp, task, rng):
    model = exp["model"]
    if model.kind != "ns":
        raise ConfigError("ns-diagnostics requires the Navier-Stokes model")
    es = exp["es"]
    results = {}
    checks = []

    h = _default_direction(exp)  # the single mode cos(2 pi x1), and the qmd direction
    qmd, tangent = qmd_remainder_slope(model, exp["theta0"], h, task["s_values"])
    field = tangent.base  # G(theta0), for the divergence and energy checks
    div = model.lattice_divergence(field)
    results["coefficient_divergence"] = div
    checks.append(_check("divergence-free", div, task["divergence_tol"], div <= task["divergence_tol"]))

    # the decay and energy identities need an unforced flow
    plain = model if model.forcing is None else NavierStokesModel(es, viscosity=model.nu, T=model.T, mesh=model.mesh)
    idx = int(np.argmax(h.data))
    traj = plain.solve(h)
    lam = es.lam[idx]
    exact = np.exp(-plain.nu * lam * plain.mesh.nodes)
    decay_err = float(np.max(np.abs(traj.data[:, idx] - exact)))
    other = float(np.max(np.abs(np.delete(traj.data, idx, axis=1))))
    results["single_mode_decay_error"] = max(decay_err, other)
    checks.append(_check("single-mode-decay", max(decay_err, other), task["decay_tol"], max(decay_err, other) <= task["decay_tol"]))

    multi = field if plain is model else plain.solve(exp["theta0"])
    resid = plain.energy_balance_residual(multi)
    results["energy_residual_per_unit_time"] = resid
    checks.append(_check("energy-balance", resid, task["energy_tol"], resid <= task["energy_tol"]))

    results["linearization_slope"] = qmd["slope"]
    if np.isnan(qmd["slope"]):  # linear along h to rounding: no slope to fit
        checks.append(_zero_remainder_check(qmd, REMAINDER_FLOOR))
    else:
        ok = abs(qmd["slope"] - 2.0) <= task["slope_tol"]
        checks.append(_check("linearization-slope", qmd["slope"], task["slope_tol"], ok))
    return results, checks, {}


_RUNNERS = {
    "fisher": _task_fisher,
    "qmd-check": _task_qmd,
    "norm-equiv": _task_norm_equiv,
    "info-matrix": _task_info_matrix,
    "snorm": _task_snorm,
    "lan": _task_lan,
    "gaussian-support": _task_gaussian_support,
    "pushforward-bound": _task_pushforward,
    "efficiency": _task_efficiency,
    "ns-diagnostics": _task_ns_diagnostics,
}


def _write_outputs(out_dir, files):
    """Write each file (text, bytes or CSV rows) into out_dir, created if
    missing; an out_dir that cannot be written exits 2, naming it."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, content in files.items():
            path = pathlib.Path(out_dir, name)
            if isinstance(content, bytes):
                path.write_bytes(content)
            elif isinstance(content, str):
                path.write_text(content)
            else:
                with open(path, "w", newline="") as fh:
                    csv.writer(fh).writerows(content)
    except OSError as exc:
        click.echo(f"output error: cannot write to {out_dir}: {exc}", err=True)
        sys.exit(2)


def _execute(task_name, config_path, out_dir, seed, workers):
    """Run one task; ``task_name=None`` takes it from the config."""
    t0 = time.perf_counter()
    cfg = None  # the resolved config, null in failure.json if resolving fails
    try:
        raw = load_config(config_path)
        # overrides go through the schema like the config's own keys
        if seed is not None:
            raw["seed"] = seed
        if workers is not None:
            raw["workers"] = workers
        validate_config(raw)
        if task_name is None:
            task_name = raw["task"]["name"]
        elif raw["task"]["name"] != task_name:
            raise ConfigError(
                f"config task is {raw['task']['name']!r} but the {task_name!r} subcommand was invoked"
            )
        cfg = resolve_config(raw)
        exp = build_experiment(cfg)
        rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]))
        results, checks, files = _RUNNERS[task_name](exp, cfg["task"], rng)
    except (ConfigError, OSError, yaml.YAMLError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except (RuntimeError, np.linalg.LinAlgError, FloatingPointError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        payload = {"error": str(exc), "task": task_name, "config": cfg}
        _write_outputs(out_dir, {"failure.json": dumps_report(payload)})
        sys.exit(3)

    report = {
        "schema_version": 1,
        "task": task_name,
        "config": cfg,
        "results": results,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    meta = {
        "elapsed_s": time.perf_counter() - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "version": __version__,
    }
    _write_outputs(out_dir, {"report.json": dumps_report(report), "meta.json": json.dumps(meta, indent=2), **files})

    for c in checks:
        status = "PASS" if c["pass"] else "FAIL"
        click.echo(f"[{status}] {c['name']}: value={c['value']} tolerance={c['tolerance']}")
    sys.exit(0 if report["pass"] else 1)


@click.group()
@click.version_option(__version__)
def main():
    """Fisher-information diagnostics for PDE regression models."""


def _add_command(name, task_name, help=None):
    """The subcommand ``name``, which runs ``task_name`` (None: the config's)."""
    @main.command(name=name, help=help)
    @click.option("--config", "-c", "config_path", required=True, type=click.Path())
    @click.option("--out", "-o", "out_dir", default="runs/latest", type=click.Path())
    @click.option("--seed", type=int, default=None, help="override the config seed")
    @click.option("--workers", type=int, default=None, help="override the worker count")
    def _cmd(config_path, out_dir, seed, workers):
        _execute(task_name, config_path, out_dir, seed, workers)


for _name in TASK_NAMES:
    _add_command(_name, _name)
_add_command("run", None, "Dispatch on the task name inside the config.")


if __name__ == "__main__":
    main()
