"""CLI contract: subcommands, exit codes, schema rejection, artifacts, and
byte-level reproducibility of reports."""

import ast
import copy
import glob
import json
import math
import os
import subprocess
import sys
import tempfile

import jsonschema
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import pdefisher
from pdefisher import cli, forward
from pdefisher.cli import _execute, main
from pdefisher.config import (
    CONFIG_SCHEMA,
    TASK_NAMES,
    ConfigError,
    build_experiment,
    check_schema,
    load_config,
    resolve_config,
    validate_config,
)
from pdefisher.forward import BumpReaction
from pdefisher.noise import make_noise


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def _fisher_cfg(seed=1001, variance=0.25):
    return {
        "seed": seed,
        "model": {"kind": "heat", "kmax": 4, "T": 1.0},
        "noise": {"family": "gaussian", "variance": variance},
        "design": {"kind": "uniform"},
        "numerics": {"n_basis": 9},
        "task": {"name": "fisher", "tolerance_rel": 1e-8},
    }


class TestFisherTask:
    def test_pass_and_artifacts(self, tmp_path):
        cfg = _write(tmp_path, "cfg.yaml", _fisher_cfg())
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["fisher", "-c", cfg, "-o", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True
        assert report["results"]["fisher"][0][0] == pytest.approx(4.0, rel=1e-8)
        assert "config" in report and report["config"]["seed"] == 1001
        meta = json.loads((out / "meta.json").read_text())
        assert isinstance(meta["peak_rss_mb"], float) and meta["peak_rss_mb"] > 0

    def test_uniform_noise_rejected_fails(self, tmp_path):
        cfg = _fisher_cfg()
        cfg["noise"] = {"family": "uniform"}
        path = _write(tmp_path, "cfg.yaml", cfg)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["fisher", "-c", path, "-o", str(out)])
        assert result.exit_code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["h1"]["rejected"] is True

    @pytest.mark.parametrize(
        "noise,energy",
        [
            ({"family": "laplace", "scale": 4.0}, 1 / (4 * 4.0**2)),
            ({"family": "logistic", "scale": 10.0}, 1 / (12 * 10.0**2)),
            ({"family": "gaussian", "variance": 200.0}, 1 / (4 * 200.0)),
            ({"family": "gaussian", "variance": 1e-6}, 1 / (4 * 1e-6)),
        ],
        ids=["laplace-wide", "logistic-wide", "gaussian-wide", "gaussian-narrow"],
    )
    def test_h1_probe_at_any_scale(self, tmp_path, noise, energy):
        # the probe's steps scale with the density: wide densities used to
        # round the smallest step to 0 grid points, narrow ones were rejected
        cfg = _fisher_cfg()
        cfg["noise"] = noise
        path = _write(tmp_path, "cfg.yaml", cfg)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["fisher", "-c", path, "-o", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        h1 = report["results"]["h1"]
        assert h1["rejected"] is False
        assert h1["h1_energy"] == pytest.approx(energy, rel=1e-10)

    @pytest.mark.parametrize(
        "noise",
        [{"family": "gaussian2", "cov": [[1.0, 0.3], [0.3, 0.5]]}, {"family": "cosine_bump"}],
        ids=["gaussian2", "cosine_bump"],
    )
    def test_matches_analytic(self, tmp_path, noise):
        # the quadrature Fisher matrix against the precision matrix and pi^2
        cfg = {**_fisher_cfg(), "noise": noise}
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["run", "-c", _write(tmp_path, "cfg.yaml", cfg), "-o", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        check = report["checks"][-1]
        assert check["name"] == "matches-analytic" and check["pass"] is True
        assert check["value"] <= 1e-8

    def test_numerical_failure_exit_3(self, tmp_path):
        # at scale 1e200 the Fisher matrix 1/(3 scale^2) underflows to 0
        cfg = {**_fisher_cfg(), "noise": {"family": "logistic", "scale": 1.0e200}}
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["run", "-c", _write(tmp_path, "cfg.yaml", cfg), "-o", str(out)])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)  # not an uncaught error
        assert "numerical failure: " in result.output
        assert sorted(os.listdir(out)) == ["failure.json"]
        failure = json.loads((out / "failure.json").read_text())
        assert set(failure) == {"error", "task", "config"}
        assert failure["task"] == "fisher"
        assert failure["config"] == resolve_config(validate_config(cfg))

    def test_numerical_failure_before_the_config_resolves_exit_3(self, tmp_path, monkeypatch):
        # a RuntimeError raised while validating: no resolved config to echo
        def fail(raw):
            raise RuntimeError("validator failed")

        monkeypatch.setattr(cli, "validate_config", fail)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["fisher", "-c", _write(tmp_path, "cfg.yaml", _fisher_cfg()), "-o", str(out)])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)  # not an uncaught error
        assert "numerical failure: validator failed" in result.output
        assert "Traceback" not in result.output
        assert sorted(os.listdir(out)) == ["failure.json"]
        failure = json.loads((out / "failure.json").read_text())
        assert failure == {"error": "validator failed", "task": "fisher", "config": None}

    @pytest.mark.parametrize(
        "noise, out_name",
        [
            ({"family": "gaussian", "variance": 0.25}, "a-file"),
            ({"family": "gaussian", "variance": 0.25}, "a-file/sub"),
            ({"family": "logistic", "scale": 1.0e200}, "a-file"),  # the exit-3 path's failure.json
        ],
        ids=["out-is-a-file", "out-under-a-file", "failure-json-unwritable"],
    )
    def test_unwritable_out_exit_2(self, tmp_path, noise, out_name):
        (tmp_path / "a-file").write_text("kept\n")
        out = tmp_path / out_name
        path = _write(tmp_path, "cfg.yaml", {**_fisher_cfg(), "noise": noise})
        proc = subprocess.run(
            [sys.executable, "-m", "pdefisher.cli", "run", "-c", path, "-o", str(out)],
            env=_fresh_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert f"output error: cannot write to {out}: " in proc.stderr
        assert "Traceback" not in proc.stdout + proc.stderr
        assert (tmp_path / "a-file").read_text() == "kept\n"


class TestSchemaValidation:
    def test_missing_noise_block_exit_2_no_outputs(self, tmp_path):
        cfg = _fisher_cfg()
        del cfg["noise"]
        path = _write(tmp_path, "cfg.yaml", cfg)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["fisher", "-c", path, "-o", str(out)])
        assert result.exit_code == 2
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = _fisher_cfg()
        cfg["model"]["frobnicate"] = 1
        path = _write(tmp_path, "cfg.yaml", cfg)
        result = CliRunner().invoke(main, ["fisher", "-c", path, "-o", str(tmp_path / "o")])
        assert result.exit_code == 2

    def test_unknown_task_param_rejected(self, tmp_path):
        cfg = _fisher_cfg()
        cfg["task"]["bogus"] = True
        path = _write(tmp_path, "cfg.yaml", cfg)
        result = CliRunner().invoke(main, ["fisher", "-c", path, "-o", str(tmp_path / "o")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("text", ["1e-5", "1E-5", "1e+5", "1.0e200", "-.5e3", "2e0"])
    def test_exponent_numbers_load_as_numbers(self, tmp_path, text):
        # JSON reads these as numbers, YAML 1.1 as strings; the loader as numbers
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"a": {text}, "b": "{text}"}}')
        assert load_config(str(path)) == {"a": float(text), "b": text}

    @pytest.mark.parametrize(
        "text",
        [b"seed: 1\n\xff\xfe bad: 2", b"seed: " + b"[" * 5000 + b"]" * 5000],
        ids=["invalid-utf8", "deep-nesting"],
    )
    def test_unreadable_yaml_exit_2_no_outputs(self, tmp_path, text):
        # PyYAML's reader decodes the bytes, and its recursive composer's
        # RecursionError is a config error, not a numerical failure
        path = tmp_path / "cfg.yaml"
        path.write_bytes(text)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["run", "-c", str(path), "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # not an uncaught error
        assert result.stderr.startswith("config error")
        assert not out.exists()

    def test_subcommand_task_mismatch(self, tmp_path):
        path = _write(tmp_path, "cfg.yaml", _fisher_cfg())
        result = CliRunner().invoke(main, ["snorm", "-c", path, "-o", str(tmp_path / "o")])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            # an integer key takes an int only; jsonschema also took 4.0,
            # which failed downstream with a TypeError at the first four
            ("model.kmax", 2.0),
            ("seed", 5.0),
            ("task.m", 8.0),
            ("model.mesh.m", 8.0),
            ("numerics.n_basis", 8.0),
            ("workers", 1.0),
            # YAML's .nan and .inf
            ("model.T", float("nan")),
            ("task.t1", float("inf")),
            ("noise.cov[1][1]", -float("inf")),
        ],
    )
    def test_exit_2_names_the_key(self, tmp_path, key, value):
        cfg = copy.deepcopy(_PUSHFORWARD_NS_BASE)
        *parents, last = key.replace("[", ".").replace("]", "").split(".")
        node = cfg
        for part in parents:
            node = node[int(part) if part.isdigit() else part]
        last = int(last) if last.isdigit() else last
        assert type(node[last]) in (int, float)
        node[last] = value
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["run", "-c", _write(tmp_path, "cfg.yaml", cfg), "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # not an uncaught error
        assert f"invalid config: {key}: " in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "mutate, key",
        [
            (lambda c: c["model"]["theta0"]["modes"][0].update(value="x"), "model.theta0.modes[0].value"),
            (lambda c: c["model"]["theta0"]["modes"][0].update(kind="tan"), "model.theta0.modes[0].kind"),
            (lambda c: c["task"].update(name="bogus"), "task.name"),
            (lambda c: c["model"]["mesh"].update(m=2), "model.mesh.m"),
            (lambda c: c["task"]["h"].update(scale_to_lan_norm=0), "task.h.scale_to_lan_norm"),
            (lambda c: c["model"]["theta0"]["modes"][0].pop("k"), "model.theta0.modes[0].k"),
            (lambda c: c["model"]["mesh"].update(frobnicate=1), "model.mesh.frobnicate"),
            (lambda c: c["task"].update(name="snorm", k_grid=[]), "task.k_grid"),
            (lambda c: c["task"].update(name="efficiency", ratio_range=[0.7, 1.0, 1.3]), "task.ratio_range"),
            (lambda c: c["model"]["theta0"]["modes"][0]["k"].append(True), "model.theta0.modes[0].k[1]"),
        ],
        ids=[
            "type", "enum", "task-name", "minimum", "exclusive-minimum", "required", "unknown-key",
            "min-items", "max-items", "array-item",
        ],
    )
    def test_message_names_the_nested_key(self, mutate, key):
        cfg = copy.deepcopy(_LAN_BASE)
        mutate(cfg)
        if cfg["task"]["name"] != "lan":
            for name in ("n", "replicates", "h", "mean_sigmas", "var_rel_tol", "ks_pmin"):
                del cfg["task"][name]
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        assert str(exc.value).startswith(f"invalid config: {key}: ")


def _odd_uniform_mesh(cfg):
    cfg["model"]["mesh"] = {"kind": "uniform", "m": 7}


def _cosine_amplitude_above_one(cfg):
    cfg["design"] = {"kind": "cosine", "amplitude": 1.5}


def _n_basis_above_ns_modes(cfg):
    # NS kmax=4 has 80 divergence-free modes
    cfg["model"] = {"kind": "ns", "kmax": 4, "T": 0.5}
    cfg["noise"] = {"family": "gaussian2", "cov": [[1.0, 0.0], [0.0, 1.0]]}
    cfg["numerics"]["n_basis"] = 100
    cfg["task"] = {"name": "info-matrix"}


def _k_grid_above_n_basis(cfg):
    cfg["task"] = {"name": "snorm", "k_grid": [2, 4, 20]}


def _zero_truncation(cfg):
    cfg["task"] = {"name": "snorm", "k_grid": [0, 4]}


def _pushforward_window(t0, t1):
    # uniform m=64 mesh on [0, 1]: nodes at multiples of 1/64
    def mutate(cfg):
        cfg["model"]["mesh"] = {"kind": "uniform", "m": 64}
        cfg["task"] = {"name": "pushforward-bound", "t0": t0, "t1": t1, "m": 8, "n_basis_list": [4, 8]}

    return mutate


def _mc_k_above_k_grid(cfg):
    cfg["task"] = {"name": "gaussian-support", "k_grid": [4, 8], "mc_k": 9}


def _single_support_draw(cfg):
    cfg["task"] = {"name": "gaussian-support", "k_grid": [4, 8], "m_mc": 1}


def _unit_index_above_modes(cfg):
    # heat kmax=4 in d=1 has 9 modes
    cfg["model"]["theta0"] = {"unit_index": 999}


def _bad_s_values(task, s_values, model=None):
    # the remainder-slope fit needs four positive perturbation sizes
    def mutate(cfg):
        if model is not None:
            cfg["model"] = model
            cfg["noise"] = {"family": "gaussian2", "cov": [[1.0, 0.0], [0.0, 1.0]]}
        cfg["task"] = {"name": task, "s_values": s_values}

    return mutate


_NS_SMALL = {"kind": "ns", "kmax": 2, "T": 0.5, "mesh": {"m": 8}}


def _ns_kmax_above_limit(cfg):
    # the Navier-Stokes grid maps grow as kmax^4; the model stops at kmax 6
    cfg["model"] = {**_NS_SMALL, "kmax": 7}
    cfg["noise"] = {"family": "gaussian2", "cov": [[1.0, 0.0], [0.0, 1.0]]}
    cfg["task"] = {"name": "info-matrix"}


def _ragged_cov(cfg):
    cfg["model"] = _NS_SMALL
    cfg["noise"] = {"family": "gaussian2", "cov": [[0.0], [0.0, 1.0]]}
    cfg["task"] = {"name": "info-matrix"}


def _ns_functional_on(kind):
    # the nonlinearity functional differentiates the Navier-Stokes advection
    def mutate(cfg):
        cfg["model"] = {"kind": kind, "kmax": 4, "T": 1.0, "mesh": {"kind": "uniform", "m": 64}}
        cfg["task"] = {
            "name": "pushforward-bound", "functional": "ns-nonlinearity",
            "t0": 0.25, "t1": 0.5, "m": 8, "n_basis_list": [4, 8],
        }

    return mutate


def _zero_qmd_direction(cfg):
    cfg["model"] = _NS_SMALL
    cfg["noise"] = {"family": "gaussian2", "cov": [[1.0, 0.0], [0.0, 1.0]]}
    cfg["task"] = {"name": "qmd-check", "h": {"modes": [{"k": [1, 0], "kind": "cos", "value": 0.0}]}}


def _empty_beta_list(cfg):
    cfg["task"] = {"name": "gaussian-support", "beta_list": [], "k_grid": [4, 8]}


def _zero_expected_snorm(cfg):
    cfg["task"] = {"name": "snorm", "expected": 0}


def _config_a_list(cfg):
    return [cfg]  # replaces the whole config


def _cosine_axis_beyond_d(cfg):
    cfg["design"] = {"kind": "cosine", "axis": 1}  # heat in d=1


def _uniform_noise_on(task):
    def mutate(cfg):
        cfg["noise"] = {"family": "uniform"}
        cfg["task"] = {"name": task}

    return mutate


def _bivariate_noise_on_heat(cfg):
    cfg["noise"] = {"family": "gaussian2", "cov": [[1.0, 0.0], [0.0, 1.0]]}
    cfg["task"] = {"name": "info-matrix"}


def _heat_closed_form_on_rd(cfg):
    cfg["model"] = {"kind": "rd", "kmax": 4, "T": 0.5, "mesh": {"m": 8}}
    cfg["task"] = {"name": "info-matrix", "check_heat_closed_form": True}


def _ns_diagnostics_on_heat(cfg):
    cfg["task"] = {"name": "ns-diagnostics"}


def _ns_model(**model):
    def mutate(cfg):
        cfg["model"] = {**_NS_SMALL, **model}
        cfg["noise"] = {"family": "gaussian2", "cov": [[1.0, 0.0], [0.0, 1.0]]}
        cfg["task"] = {"name": "info-matrix"}

    return mutate


def _heat_div_free(cfg):
    cfg["model"]["d"] = 2
    cfg["model"]["subspace"] = "div-free"


def _unread(path, value, **model):
    """Set the key at ``path`` ("block.key"), which the kind of its block
    does not read, after updating the model with ``model``."""
    def mutate(cfg):
        cfg["model"].update(copy.deepcopy(model))
        *blocks, key = path.split(".")
        block = cfg
        for name in blocks:
            block = block.setdefault(name, {})
        block[key] = value

    return mutate


_FORCING = {"modes": [{"k": [1, 1], "kind": "cos", "value": 0.1}]}


def _scaled_psi(cfg):
    # only lan rescales its field to a LAN norm
    cfg["task"] = {"name": "snorm", "psi": {"unit_index": 1, "scale_to_lan_norm": 3.0}, "k_grid": [2, 4]}


def _preset_with(key, value):
    # a preset field reads no other key of its spec
    def mutate(cfg):
        cfg["task"] = {"name": "snorm", "psi": {"preset": "log-divergent", key: value}, "k_grid": [2, 4]}

    return mutate


def _reversed_ratio_range(cfg):
    cfg["task"] = {"name": "efficiency", "n": 10, "replicates": 10, "ratio_range": [1.15, 0.9]}


class TestInconsistentConfigs:
    """Invalid or inconsistent configs: exit 2 and no outputs."""

    @pytest.mark.parametrize(
        "mutate",
        [
            _odd_uniform_mesh,
            _cosine_amplitude_above_one,
            _n_basis_above_ns_modes,
            _k_grid_above_n_basis,
            _zero_truncation,
            _pushforward_window(0.0, 0.5),
            _pushforward_window(0.25, 1.5),
            _pushforward_window(0.5, 0.25),
            _pushforward_window(0.13, 0.5),
            _pushforward_window(0.015625, 0.5),
            _mc_k_above_k_grid,
            _single_support_draw,
            _unit_index_above_modes,
            _bad_s_values("qmd-check", [1e-2, 1e-1]),
            _bad_s_values("ns-diagnostics", [1e-2, 1e-1], _NS_SMALL),
            _bad_s_values("qmd-check", [0.0, 0.01, 0.1, 1.0]),
            _bad_s_values("ns-diagnostics", [-0.01, 0.01, 0.1, 1.0], _NS_SMALL),
            _empty_beta_list,
            _zero_expected_snorm,
            _ns_kmax_above_limit,
            _ragged_cov,
            _ns_functional_on("heat"),
            _ns_functional_on("rd"),
            _zero_qmd_direction,
            None,
            _config_a_list,
            _cosine_axis_beyond_d,
            _uniform_noise_on("info-matrix"),
            _bivariate_noise_on_heat,
            _heat_closed_form_on_rd,
            _ns_diagnostics_on_heat,
            _ns_model(d=1),
            _ns_model(subspace="full"),
            _ns_model(subspace="mean-zero"),
            _heat_div_free,
            _unread("model.viscosity", 0.3),
            _unread("model.reaction", {"amplitude": 1.0}),
            _unread("model.forcing", _FORCING),
            _unread("model.viscosity", 0.3, kind="rd"),
            _unread("model.forcing", _FORCING, kind="rd"),
            _unread("model.reaction", {"amplitude": 1.0}, **_NS_SMALL),
            _unread("model.mesh.levels", 4),
            _unread("model.mesh.steps_per_block", 8),
            _unread("model.mesh.m", 64, mesh={"kind": "graded"}),
            _unread("design.amplitude", 0.9),
            _unread("design.axis", 0),
            _reversed_ratio_range,
            _unread("model.theta0", {"constant": 0.5, "scale_to_lan_norm": 3.0}),
            _unread("model.theta0", {"constant": 0.5, "scale_to_lan_norm": 3.0}, kind="rd"),
            _scaled_psi,
            _preset_with("constant", 0.5),
            _preset_with("unit_index", 1),
            _preset_with("modes", [{"k": [1], "kind": "cos", "value": 1.0}]),
        ],
        ids=[
            "odd-uniform-mesh",
            "cosine-amplitude-1.5",
            "n-basis-100-ns-kmax-4",
            "k-grid-above-n-basis",
            "zero-truncation",
            "pushforward-t0-zero",
            "pushforward-t1-above-T",
            "pushforward-t1-below-t0",
            "pushforward-t0-off-mesh",
            "pushforward-odd-window",
            "mc-k-above-k-grid",
            "support-single-draw",
            "unit-index-above-modes",
            "qmd-two-s-values",
            "ns-diagnostics-two-s-values",
            "qmd-s-zero",
            "ns-diagnostics-s-negative",
            "support-empty-beta-list",
            "snorm-expected-zero",
            "ns-kmax-above-limit",
            "noise-cov-ragged",
            "ns-nonlinearity-on-heat",
            "ns-nonlinearity-on-rd",
            "qmd-zero-direction",
            "config-is-a-directory",
            "config-is-a-list",
            "cosine-axis-beyond-d",
            "uniform-noise-on-info-matrix",
            "bivariate-noise-on-heat",
            "heat-closed-form-on-rd",
            "ns-diagnostics-on-heat",
            "ns-d-1",
            "ns-subspace-full",
            "ns-subspace-mean-zero",
            "heat-subspace-div-free",
            "viscosity-on-heat",
            "reaction-on-heat",
            "forcing-on-heat",
            "viscosity-on-rd",
            "forcing-on-rd",
            "reaction-on-ns",
            "levels-on-uniform-mesh",
            "steps-per-block-on-uniform-mesh",
            "m-on-graded-mesh",
            "amplitude-on-uniform-design",
            "axis-on-uniform-design",
            "efficiency-ratio-range-reversed",
            "scale-to-lan-norm-on-heat-theta0",
            "scale-to-lan-norm-on-rd-theta0",
            "scale-to-lan-norm-on-snorm-psi",
            "preset-with-constant",
            "preset-with-unit-index",
            "preset-with-modes",
        ],
    )
    def test_exit_2_no_outputs(self, tmp_path, mutate):
        if mutate is None:
            path = str(tmp_path)
        else:
            cfg = _fisher_cfg()
            cfg = mutate(cfg) or cfg
            path = _write(tmp_path, "cfg.yaml", cfg)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["run", "-c", path, "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # not an uncaught error
        assert not out.exists()

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (_ns_model(d=1), "eigensystem: divergence-free subspace requires d=2"),
            (_ns_model(subspace="full"), "model.subspace: 'full' is not one of ['div-free'] for model.kind 'ns'"),
            (
                _heat_div_free,
                "model.subspace: 'div-free' is not one of ['full', 'mean-zero'] for model.kind 'heat'",
            ),
            (_pushforward_window(0.25, 1.5), "pushforward window [0.25, 1.5]: window endpoints must coincide"),
            (_pushforward_window(0.5, 0.25), "pushforward window [0.5, 0.25]: window needs an even number"),
            (_heat_closed_form_on_rd, "closed-form check needs the heat model"),
            (_ns_diagnostics_on_heat, "ns-diagnostics requires the Navier-Stokes model"),
            (_bivariate_noise_on_heat, "has 2 component(s) but the heat field has 1"),
            (_ns_functional_on("heat"), "pushforward functional: the ns-nonlinearity functional needs the ns model, not heat"),
            (_ns_functional_on("rd"), "pushforward functional: the ns-nonlinearity functional needs the ns model, not rd"),
            (_unread("model.viscosity", 0.3), "model.viscosity: unknown key for model.kind 'heat'"),
            (
                _unread("model.mesh.m", 64, mesh={"kind": "graded"}),
                "model.mesh.m: unknown key for model.mesh.kind 'graded'",
            ),
            (_unread("design.amplitude", 0.9), "design.amplitude: unknown key for design.kind 'uniform'"),
            (_reversed_ratio_range, "ratio_range [1.15, 0.9] is empty"),
            (_single_support_draw, "m_mc 1 gives the support Monte Carlo no standard error"),
            (
                _unread("model.theta0", {"constant": 0.5, "scale_to_lan_norm": 3.0}),
                "model.theta0.scale_to_lan_norm: unknown key for model.kind 'heat'",
            ),
            (_preset_with("constant", 0.5), "preset 'log-divergent' takes no constant, unit_index or modes"),
        ],
        ids=[
            "ns-d-1", "ns-subspace-full", "heat-subspace-div-free", "pushforward-t1-above-T",
            "pushforward-t1-below-t0", "heat-closed-form-on-rd", "ns-diagnostics-on-heat",
            "bivariate-noise-on-heat", "ns-nonlinearity-on-heat", "ns-nonlinearity-on-rd",
            "viscosity-on-heat", "m-on-graded-mesh", "amplitude-on-uniform-design",
            "efficiency-ratio-range-reversed", "scale-to-lan-norm-on-theta0", "preset-with-constant",
            "support-single-draw",
        ],
    )
    def test_message_names_the_rule(self, tmp_path, mutate, message):
        # each rule is checked in one place, and its message says which
        cfg = _fisher_cfg()
        mutate(cfg)
        result = CliRunner().invoke(main, ["run", "-c", _write(tmp_path, "cfg.yaml", cfg), "-o", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert "config error: " in result.output and message in result.output

    @pytest.mark.parametrize(
        "override", [["--seed", "-1"], ["--workers", "0"]], ids=["seed-negative", "workers-zero"]
    )
    def test_override_outside_schema_exit_2_no_outputs(self, tmp_path, override):
        path = _write(tmp_path, "cfg.yaml", _fisher_cfg())
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["run", "-c", path, "-o", str(out)] + override)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # not an uncaught error
        assert not out.exists()


class TestRunDispatch:
    def test_run_uses_config_task(self, tmp_path):
        path = _write(tmp_path, "cfg.yaml", _fisher_cfg())
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["run", "-c", path, "-o", str(out)])
        assert result.exit_code == 0
        assert (out / "report.json").exists()


class TestReproducibility:
    def _snorm_cfg(self):
        return {
            "seed": 7,
            "model": {
                "kind": "heat",
                "kmax": 4,
                "T": 1.0,
                "mesh": {"kind": "graded", "levels": 14, "steps_per_block": 64},
            },
            "noise": {"family": "gaussian", "variance": 1.0},
            "design": {"kind": "uniform"},
            "numerics": {"n_basis": 9},
            "task": {
                "name": "snorm",
                "psi": {"modes": [{"k": [1], "kind": "cos", "value": 1.0}]},
                "k_grid": [2, 4, 9],
                "expected": 78.95683520871486,
                "tolerance_rel": 1e-8,
            },
        }

    def test_identical_reports_byte_for_byte(self, tmp_path):
        path = _write(tmp_path, "cfg.yaml", self._snorm_cfg())
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = CliRunner().invoke(main, ["snorm", "-c", path, "-o", str(out)])
            assert result.exit_code == 0, result.output
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_ns_pushforward_reports_byte_for_byte(self, tmp_path):
        # the Navier-Stokes marcher and the pushforward functional run on BLAS matmuls
        path = _write(tmp_path, "cfg.yaml", _PUSHFORWARD_NS_BASE)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = CliRunner().invoke(main, ["run", "-c", path, "-o", str(out)])
            assert result.exit_code == 0, result.output
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_override_changes_nothing_deterministic(self, tmp_path):
        # snorm has no sampling; a different seed shows up in the config echo only
        path = _write(tmp_path, "cfg.yaml", self._snorm_cfg())
        out = tmp_path / "c"
        result = CliRunner().invoke(
            main, ["snorm", "-c", path, "-o", str(out), "--seed", "99"]
        )
        assert result.exit_code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 99

    def test_env_seed_ignored(self, tmp_path, monkeypatch):
        # the seed comes from the config or --seed, never from the environment
        path = _write(tmp_path, "cfg.yaml", self._snorm_cfg())
        out = tmp_path / "d"
        monkeypatch.setenv("PDEFISHER_SEED", "123")
        result = CliRunner().invoke(main, ["snorm", "-c", path, "-o", str(out)])
        assert result.exit_code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 7


class TestTraceArtifacts:
    def test_snorm_csv(self, tmp_path):
        cfg = TestReproducibility()._snorm_cfg()
        path = _write(tmp_path, "cfg.yaml", cfg)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["snorm", "-c", path, "-o", str(out)])
        assert result.exit_code == 0
        lines = (out / "snorm_trace.csv").read_text().strip().splitlines()
        assert lines[0] == "k,value"
        assert len(lines) == 4

    def test_info_matrix_dump(self, tmp_path):
        cfg = _fisher_cfg()
        cfg["task"] = {
            "name": "info-matrix",
            "check_heat_closed_form": True,
            "tolerance": 1e-8,
            "dump": True,
        }
        cfg["model"]["mesh"] = {"kind": "graded", "levels": 14, "steps_per_block": 64}
        path = _write(tmp_path, "cfg.yaml", cfg)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["info-matrix", "-c", path, "-o", str(out)])
        assert result.exit_code == 0, result.output
        import numpy as np

        header = json.loads((out / "info_matrix.json").read_text())
        mat = np.fromfile(out / "info_matrix.bin", dtype="<f8").reshape(
            header["n_basis"], header["n_basis"]
        )
        assert mat.shape == (9, 9)
        assert abs(mat[0, 0] - 4.0) < 1e-6  # variance 0.25 scales the heat diagonal


class TestShippedConfigs:
    def test_fisher_example_config(self, tmp_path):
        result = CliRunner().invoke(
            main, ["fisher", "-c", "configs/fisher_gaussian.yaml", "-o", str(tmp_path / "o")]
        )
        assert result.exit_code == 0, result.output


class TestRemainingTasks:
    """Fast end-to-end runs of every other subcommand."""

    def _base(self, task):
        return {
            "seed": 5,
            "model": {
                "kind": "heat",
                "kmax": 8,
                "T": 1.0,
                "mesh": {"kind": "graded", "levels": 14, "steps_per_block": 32},
                "theta0": {"constant": 0.4, "modes": [{"k": [1], "kind": "cos", "value": 0.3}]},
            },
            "noise": {"family": "gaussian", "variance": 1.0},
            "design": {"kind": "uniform"},
            "numerics": {"n_basis": 9},
            "task": task,
        }

    @pytest.mark.parametrize(
        "task",
        [
            {"name": "qmd-check", "s_values": [1e-3, 1e-2, 1e-1, 1.0]},
            {"name": "norm-equiv", "trials": 40, "n_basis_list": [8, 16]},
            {
                "name": "gaussian-support",
                "beta_list": [1.0, 2.0],
                "k_grid": [4, 8, 16],
                "m_mc": 500,
                "mc_k": 8,
                "plateau_tol": 0.05,
                "growth_min": 0.2,
            },
            {
                "name": "pushforward-bound",
                "t0": 0.25,
                "t1": 0.75,
                "m": 200,
                "n_basis_list": [8, 16],
                "stability_tol": 0.05,
            },
            {"name": "efficiency", "n": 300, "replicates": 100, "ratio_range": [0.7, 1.3]},
        ],
        ids=lambda t: t["name"],
    )
    def test_task_runs_clean(self, tmp_path, task):
        path = _write(tmp_path, "cfg.yaml", self._base(task))
        out = tmp_path / "out"
        result = CliRunner().invoke(main, [task["name"], "-c", path, "-o", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True
        for c in report["checks"]:
            assert set(c) == {"name", "value", "tolerance", "pass"}

    def test_pushforward_zero_bound(self, tmp_path):
        # (u.grad)u has derivative 0 at u0 = 0, so both estimates are exactly 0
        cfg = copy.deepcopy(_PUSHFORWARD_NS_BASE)
        cfg["model"]["theta0"] = {"modes": [{"k": [1, 0], "kind": "cos", "value": 0.0}]}
        path = _write(tmp_path, "cfg.yaml", cfg)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["run", "-c", path, "-o", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert [e["estimate"] for e in report["results"]["estimates"]] == [0.0, 0.0]
        assert report["checks"] == [
            {"name": "stability-under-refinement", "value": 0.0, "tolerance": 10.0, "pass": True}
        ]

    @pytest.mark.parametrize(
        "task, tolerance",
        [({"name": "qmd-check", "s_values": [1e-3, 1e-2, 1e-1, 1.0]}, 1e-12),
         ({"name": "ns-diagnostics", "s_values": [1e-3, 1e-2, 1e-1, 1.0]}, 1e-14)],
        ids=["qmd-check", "ns-diagnostics"],
    )
    def test_ns_linear_along_direction(self, tmp_path, task, tolerance):
        # at kmax 2 the flow from these two modes is linear along cos(1,0) to
        # rounding, so no remainder exceeds the slope fit's floor: the run
        # checks the remainders themselves instead of a NaN slope
        cfg = {
            "seed": 5,
            "model": {
                "kind": "ns", "kmax": 2, "T": 0.5, "mesh": {"kind": "uniform", "m": 32},
                "theta0": {"modes": [{"k": [1, 0], "kind": "cos", "value": 0.4},
                                     {"k": [0, 1], "kind": "sin", "value": 0.3}]},
            },
            "noise": {"family": "gaussian2", "cov": [[1.0, 0.0], [0.0, 1.0]]},
            "design": {"kind": "uniform"},
            "numerics": {"n_basis": 8},
            "task": task,
        }
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["run", "-c", _write(tmp_path, "cfg.yaml", cfg), "-o", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        last = report["checks"][-1]
        assert last["name"] == "linear-model-zero-remainder" and last["tolerance"] == tolerance
        assert 0 < last["value"] <= tolerance

    @pytest.mark.parametrize(
        "psi, expect, check", [(None, "attain", "variance-over-bound"),
                               ({"preset": "log-divergent"}, "divergent", "divergence-flagged")],
        ids=["attain", "divergent"],
    )
    def test_efficiency_report_states_expect(self, tmp_path, psi, expect, check):
        # expect's default follows task.psi, and the report's config block says which ran
        cfg = self._base({"name": "efficiency", "n": 100, "replicates": 20, **({"psi": psi} if psi else {})})
        cfg["model"]["kmax"] = 4  # n_basis 9 spans all 9 modes, which the preset psi fills
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["efficiency", "-c", _write(tmp_path, "cfg.yaml", cfg), "-o", str(out)])
        assert result.exit_code in (0, 1), result.output
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["task"]["expect"] == expect
        assert check in [c["name"] for c in report["checks"]]

    def test_efficiency_divergent_target(self, tmp_path):
        cfg = self._base(
            {
                "name": "efficiency",
                "psi": {"preset": "log-divergent"},
                "n": 200,
                "replicates": 50,
                "expect": "divergent",
                "k_grid": [2, 4, 8, 17],
            }
        )
        cfg["model"]["kmax"] = 8
        cfg["numerics"]["n_basis"] = 17
        path = _write(tmp_path, "cfg.yaml", cfg)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["efficiency", "-c", path, "-o", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["divergent"] is True


def _rd_lan_cfg():
    """A small RD + Laplace LAN run, the lan-rd workload's shape scaled down."""
    return {
        "seed": 7,
        "model": {
            "kind": "rd",
            "kmax": 8,
            "T": 0.5,
            "mesh": {"kind": "graded", "levels": 4, "steps_per_block": 8},
            "theta0": {"constant": 0.5, "modes": [{"k": [1], "kind": "cos", "value": 0.3}]},
        },
        "noise": {"family": "laplace", "scale": 1.0},
        "design": {"kind": "uniform"},
        "numerics": {"n_basis": 5},
        "task": {
            "name": "lan",
            "h": {"unit_index": 0, "scale_to_lan_norm": 1.0},
            "n": 150,
            "replicates": 24,
            "mean_sigmas": 6.0,
            "var_rel_tol": 10.0,
            "ks_pmin": 0.0,
        },
    }


class TestWorkerInvariance:
    def test_efficiency_report_independent_of_workers(self, tmp_path):
        task = {"name": "efficiency", "n": 300, "replicates": 100, "ratio_range": [0.7, 1.3]}
        self._check(tmp_path, TestRemainingTasks()._base(task))

    def test_lan_report_independent_of_workers(self, tmp_path):
        # the replicate threads evaluate fields against the mesh's shared stencils
        self._check(tmp_path, _rd_lan_cfg())

    def test_gaussian_lan_in_fresh_interpreter(self, tmp_path):
        # in a fresh interpreter nothing before the replicate threads loads
        # scipy, so the first Gaussian draw imports scipy.special in a thread
        path = _write(tmp_path, "cfg.yaml", _LAN_BASE)
        out = tmp_path / "w2"
        proc = subprocess.run(
            [sys.executable, "-m", "pdefisher.cli", "run", "-c", path, "-o", str(out), "--workers", "2"],
            env=_fresh_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        two = json.loads((out / "report.json").read_text())
        self._same_but_workers(self._report(tmp_path, path, 1), two)

    def _report(self, tmp_path, path, workers):
        out = tmp_path / f"w{workers}"
        result = CliRunner().invoke(main, ["run", "-c", path, "-o", str(out), "--workers", str(workers)])
        assert result.exit_code == 0, result.output
        return json.loads((out / "report.json").read_text())

    def _check(self, tmp_path, cfg):
        path = _write(tmp_path, "cfg.yaml", cfg)
        self._same_but_workers(*(self._report(tmp_path, path, w) for w in (1, 2)))

    def _same_but_workers(self, one, two):
        assert one["results"] == two["results"]
        assert one["checks"] == two["checks"]
        assert (one["config"]["workers"], two["config"]["workers"]) == (1, 2)
        two["config"]["workers"] = 1
        assert one == two


_S4 = [1e-3, 1e-2, 3e-2, 1e-1]


class TestBaseMarchCounts:
    """Each task marches its theta0 once: the _SpectralModel._march calls of
    one task, counted by wrapping the name from outside as the benchmark's
    tracer does (a solve, a linearize and an assembly each march once)."""

    _MODELS = {
        "rd": {
            "kind": "rd", "kmax": 8, "T": 0.5,
            "mesh": {"kind": "graded", "levels": 2, "steps_per_block": 4},
            "theta0": {"constant": 0.5, "modes": [{"k": [1], "kind": "cos", "value": 0.3}]},
        },
        "ns": {"kind": "ns", "kmax": 2, "T": 0.5, "viscosity": 0.05, "mesh": {"kind": "uniform", "m": 8}},
    }
    _NOISES = {
        "rd": {"family": "laplace", "scale": 1.0},
        "ns": {"family": "gaussian2", "cov": [[1.0, 0.0], [0.0, 1.0]]},
    }

    def _marches(self, tmp_path, monkeypatch, kind, task, **model):
        calls = []
        march = forward._SpectralModel._march

        def counted(self, u, v=None, on_node=None):
            calls.append(u)
            return march(self, u, v, on_node)

        monkeypatch.setattr(forward._SpectralModel, "_march", counted)
        cfg = {
            "seed": 3, "workers": 1, "model": {**self._MODELS[kind], **model}, "noise": self._NOISES[kind],
            "design": {"kind": "uniform"}, "numerics": {"n_basis": 8}, "task": task,
        }
        path = _write(tmp_path, "cfg.yaml", cfg)
        result = CliRunner().invoke(main, ["run", "-c", path, "-o", str(tmp_path / "out")])
        assert result.exit_code in (0, 1), result.output  # a tolerance may fail at this size
        return len(calls)

    @pytest.mark.parametrize("kind", ["rd", "ns"])
    @pytest.mark.parametrize(
        "task, marches",
        [
            # assembly, then theta1 = theta0 + h/sqrt(n); G(theta0) is M's
            ({"name": "lan", "n": 10, "replicates": 10, "ks_pmin": 0.0}, 2),
            # assembly, then the influence field's tangent; G(theta0) is M's
            ({"name": "efficiency", "n": 10, "replicates": 10}, 2),
            # the tangent (with its base flow), then one solve per s
            ({"name": "qmd-check", "s_values": _S4}, 1 + len(_S4)),
        ],
        ids=["lan", "efficiency", "qmd-check"],
    )
    def test_task_marches_theta0_once(self, tmp_path, monkeypatch, kind, task, marches):
        assert self._marches(tmp_path, monkeypatch, kind, task) == marches

    def test_pushforward_marches_per_truncation(self, tmp_path, monkeypatch):
        # per K: the assembly, then ceil(m / 64) sample chunks, each with its base
        ks, m = [4, 8], 70
        task = {
            "name": "pushforward-bound", "functional": "ns-nonlinearity",
            "t0": 0.125, "t1": 0.5, "m": m, "n_basis_list": ks, "stability_tol": 10.0,
        }
        assert self._marches(tmp_path, monkeypatch, "ns", task) == len(ks) * (1 + math.ceil(m / 64))

    @pytest.mark.parametrize(
        "forcing, marches",
        [
            # the qmd tangent (its base is G(theta0)), the single mode, one solve per s
            (None, 2 + len(_S4)),
            # a forced model also solves theta0 on its unforced copy
            ({"modes": [{"k": [1, 1], "kind": "cos", "value": 0.1}]}, 3 + len(_S4)),
        ],
        ids=["unforced", "forced"],
    )
    def test_ns_diagnostics_marches(self, tmp_path, monkeypatch, forcing, marches):
        model = {} if forcing is None else {"forcing": forcing}
        task = {"name": "ns-diagnostics", "s_values": _S4}
        assert self._marches(tmp_path, monkeypatch, "ns", task, **model) == marches


# one small run of each task, and of each pushforward functional and loss
_NO_BATCH_TASKS = {
    "fisher": {"name": "fisher"},
    "qmd-check": {"name": "qmd-check", "s_values": _S4},
    "norm-equiv": {"name": "norm-equiv", "trials": 10, "n_basis_list": [4, 8]},
    "info-matrix": {"name": "info-matrix"},
    "snorm": {"name": "snorm", "psi": {"unit_index": 1}, "k_grid": [4, 8]},
    "lan": {"name": "lan", "n": 10, "replicates": 10, "ks_pmin": 0.0},
    "gaussian-support": {"name": "gaussian-support", "k_grid": [4, 8], "m_mc": 10},
    "efficiency": {"name": "efficiency", "n": 10, "replicates": 10},
    "ns-diagnostics": {"name": "ns-diagnostics", "s_values": _S4},
    **{
        f"pushforward-{functional}-{loss}": {
            "name": "pushforward-bound", "functional": functional, "loss": loss,
            "t0": 0.125, "t1": 0.5, "m": 70, "n_basis_list": [4, 8],
        }
        for functional in ("trajectory", "ns-nonlinearity")
        for loss in ("l2", "sup")
    },
}
_NO_BATCH_RUNS = [
    (kind, task)
    for kind in ("heat", "rd", "ns")
    for task in _NO_BATCH_TASKS
    if kind == "ns" or ("ns-" not in task)
]


class TestNoTaskHoldsATangentBatch:
    """No task allocates a (nodes x nm x B) tangent batch: every tangent
    march streams its nodes (``linearize(..., on_node=...)``).  ``linearize``
    refuses columns without ``on_node`` with a ValueError that ``_execute``
    does not catch, so a task that asked for a held batch would fail here
    with an uncaught exception."""

    _MODELS = {
        "heat": {"kind": "heat", "kmax": 4, "T": 0.5, "mesh": {"kind": "uniform", "m": 8}},
        **TestBaseMarchCounts._MODELS,
    }
    _NOISES = {"heat": {"family": "laplace", "scale": 1.0}, **TestBaseMarchCounts._NOISES}

    @pytest.mark.parametrize("kind, task", _NO_BATCH_RUNS, ids=[f"{k}-{t}" for k, t in _NO_BATCH_RUNS])
    def test_task_builds_no_batch(self, tmp_path, kind, task):
        cfg = {
            "seed": 3, "workers": 1, "model": self._MODELS[kind], "noise": self._NOISES[kind],
            "design": {"kind": "uniform"}, "numerics": {"n_basis": 8}, "task": _NO_BATCH_TASKS[task],
        }
        result = CliRunner().invoke(main, ["run", "-c", _write(tmp_path, "cfg.yaml", cfg), "-o", str(tmp_path / "out")])
        assert result.exception is None or isinstance(result.exception, SystemExit)  # not an uncaught error
        assert result.exit_code in (0, 1), result.output  # a tolerance may fail at this size


def _subschemas(schema):
    """``schema`` and every schema nested in it, in every branch of a union."""
    yield schema
    for sub in [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]:
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def _unions(schema, path=""):
    """(key path, schema) of each tagged union nested in ``schema``."""
    if "oneOf" in schema:
        yield path, schema
    for sub in schema.get("oneOf", ()):
        yield from _unions(sub, path)
    for key, sub in schema.get("properties", {}).items():
        yield from _unions(sub, f"{path}.{key}" if path else key)


# a union shared by several branches (the mesh of every model kind) once
_UNIONS = dict(_unions(CONFIG_SCHEMA))


def _tag(union):
    return union["discriminator"]["propertyName"]


def _tags(union):
    return [branch["properties"][_tag(union)]["enum"][0] for branch in union["oneOf"]]


def _branch(path, tag):
    """The branch of the union at ``path`` that ``tag`` selects."""
    return _UNIONS[path]["oneOf"][_tags(_UNIONS[path]).index(tag)]


def _example(sub):
    """A value that ``sub`` accepts: its default, else the least one of its type."""
    if "default" in sub:
        return copy.deepcopy(sub["default"])
    if "enum" in sub:
        return sub["enum"][0]
    if sub["type"] == "array":
        return [_example(sub["items"]) for _ in range(sub.get("minItems", 1))]
    return {"object": {}, "boolean": True, "number": 1.0, "string": "x"}.get(sub["type"], sub.get("minimum", 1))


def _with_block(path, tag):
    """``_fisher_cfg()`` with the block at ``path`` replaced by a minimal
    block of the branch ``tag``: its tag and its required keys."""
    branch = _branch(path, tag)
    block = {key: _example(branch["properties"][key]) for key in branch["required"]}
    block[_tag(_UNIONS[path])] = tag
    cfg = _fisher_cfg()
    *parents, last = path.split(".")
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = block
    return cfg, block, branch


_BRANCH_PAIRS = [
    (path, a, b, keys)
    for path, union in _UNIONS.items()
    for a, branch_a in zip(_tags(union), union["oneOf"])
    for b, branch_b in zip(_tags(union), union["oneOf"])
    if (keys := sorted(set(branch_a["properties"]) - set(branch_b["properties"])))
]


class TestConfigTable:
    """Each config key is declared once, in the schema, with its default."""

    def test_defaults_satisfy_their_own_schema(self):
        declared = [s for s in _subschemas(CONFIG_SCHEMA) if "default" in s]
        assert declared
        for sub in declared:
            jsonschema.validate(sub["default"], sub)
            check_schema(sub["default"], sub)

    def test_every_task_has_a_runner(self):
        assert set(TASK_NAMES) == set(cli._RUNNERS)

    def test_commands_share_their_options(self):
        # run and every task subcommand take the same options, with the same help
        def options(name):
            return [(p.name, p.opts, p.required, p.default, p.help) for p in main.commands[name].params]

        assert set(main.commands) == {"run", *TASK_NAMES}
        assert options("run")[-1][-1] == "override the worker count"
        for name in TASK_NAMES:
            assert options(name) == options("run")

    @pytest.mark.parametrize("name", TASK_NAMES)
    def test_resolve_fills_defaults_once(self, name):
        cfg = _fisher_cfg()
        cfg["task"] = {"name": name}
        if name == "ns-diagnostics":
            cfg["model"] = {"kind": "ns", "kmax": 4, "T": 0.5}
        elif name == "qmd-check":
            cfg["model"] = {"kind": "rd", "kmax": 4, "T": 0.5, "mesh": {"kind": "graded"}}
        resolved = resolve_config(validate_config(cfg))
        validate_config(resolved)  # a report's config block is a config
        assert resolve_config(resolved) == resolved
        schema = _branch("task", name)["properties"]
        defaults = {key: sub["default"] for key, sub in schema.items() if "default" in sub}
        if name == "efficiency":  # set by resolve_config from task.psi, absent here
            defaults["expect"] = "attain"
        assert resolved["task"] == {"name": name, **defaults}

    @pytest.mark.parametrize(
        "path, tag",
        [(path, tag) for path, union in _UNIONS.items() if path != "task" for tag in _tags(union)],
        ids=lambda v: v,
    )
    def test_resolve_fills_branch_defaults(self, path, tag):
        # the resolved block is the given keys plus the selected branch's defaults
        cfg, block, branch = _with_block(path, tag)
        if "default" in branch["properties"][_tag(_UNIONS[path])]:
            del block[_tag(_UNIONS[path])]  # the default branch, selected by the absent tag
        if path == "model":
            # given: the mesh (a union of its own) and heat's and rd's theta0, whose default is d's
            block["mesh"] = {"kind": "uniform", "m": 8}
            if tag != "ns":
                block["theta0"] = {"constant": 0.5}
        given = copy.deepcopy(block)
        resolved = resolve_config(validate_config(cfg))
        assert resolve_config(resolved) == resolved
        for key in path.split("."):
            resolved = resolved[key]
        defaults = {key: sub["default"] for key, sub in branch["properties"].items() if "default" in sub}
        if tag == "rd":  # an object default that is filled key by key
            reaction = branch["properties"]["reaction"]["properties"]
            defaults["reaction"] = {key: sub["default"] for key, sub in reaction.items()}
        assert resolved == {**defaults, **given}

    @pytest.mark.parametrize(
        "path, given",
        [("noise", {"family": family}) for family in ("gaussian", "laplace", "logistic")]
        + [("model.reaction", reaction) for reaction in ({}, {"amplitude": 1.0}, {"radius": 2.0})],
        ids=["gaussian", "laplace", "logistic", "reaction-empty", "reaction-amplitude", "reaction-radius"],
    )
    def test_resolved_defaults_are_the_constructors(self, path, given):
        # a partial block resolves to the values its constructor would use
        cfg = _fisher_cfg()
        cfg["task"] = {"name": "info-matrix"}
        if path == "noise":
            cfg["noise"] = dict(given)
        else:
            cfg["model"] = {"kind": "rd", "kmax": 4, "T": 0.5, "reaction": dict(given)}
        resolved = resolve_config(validate_config(cfg))
        exp = build_experiment(resolved)
        if path == "noise":
            assert resolved["noise"] == {"family": given["family"], **make_noise(**given).params()}
            assert exp["noise"].params() == make_noise(**given).params()
        else:
            default = BumpReaction(**given)
            assert resolved["model"]["reaction"] == {"amplitude": default.amplitude, "radius": default.radius}
            built = exp["model"].reaction
            assert (built.amplitude, built.radius) == (default.amplitude, default.radius)

    @pytest.mark.parametrize(
        "path, a, b, keys", _BRANCH_PAIRS, ids=[f"{p}-{a}-to-{b}" for p, a, b, _ in _BRANCH_PAIRS]
    )
    def test_key_of_another_branch_exit_2(self, tmp_path, path, a, b, keys):
        # a key that only branch a declares, set under tag b, names the key and b
        branch_a = _branch(path, a)
        for key in keys:
            cfg, block, _ = _with_block(path, b)
            validate_config(cfg)
            value = _example(branch_a["properties"][key])
            check_schema(value, branch_a["properties"][key])  # a value that branch a accepts
            block[key] = value
            out = tmp_path / "out"
            result = CliRunner().invoke(main, ["run", "-c", _write(tmp_path, "cfg.yaml", cfg), "-o", str(out)])
            assert result.exit_code == 2, result.output
            message = f"invalid config: {path}.{key}: unknown key for {path}.{_tag(_UNIONS[path])} {b!r}"
            assert message in result.output
            assert not out.exists()


# a small heat LAN run (cosine design, a few replicates) whose checks pass
_LAN_BASE = {
    "seed": 3,
    "workers": 1,
    "model": {
        "kind": "heat",
        "kmax": 2,
        "T": 1.0,
        "mesh": {"kind": "uniform", "m": 8},
        "theta0": {"constant": 0.5, "modes": [{"k": [1], "kind": "cos", "value": 0.3}]},
    },
    "noise": {"family": "gaussian", "variance": 1.0},
    "design": {"kind": "cosine", "amplitude": 0.5},
    "numerics": {"n_basis": 5},
    "task": {
        "name": "lan",
        "n": 20,
        "replicates": 10,
        "h": {"unit_index": 1, "scale_to_lan_norm": 1.0},
        "mean_sigmas": 6.0,
        "var_rel_tol": 10.0,
        "ks_pmin": 0.0,
    },
}

# a small heat s-norm trace whose checks pass (expected is its value on this mesh)
_SNORM_BASE = {
    "seed": 4,
    "workers": 1,
    "model": {
        "kind": "heat",
        "kmax": 2,
        "T": 1.0,
        "mesh": {"kind": "graded", "levels": 6, "steps_per_block": 8},
    },
    "noise": {"family": "gaussian", "variance": 1.0},
    "design": {"kind": "uniform"},
    "numerics": {"n_basis": 5},
    "task": {
        "name": "snorm",
        "psi": {"modes": [{"k": [1], "kind": "cos", "value": 1.0}]},
        "k_grid": [1, 3, 5],
        "expected": 78.95582611339273,
        "tolerance_rel": 1e-8,
    },
}

# a small Navier-Stokes pushforward bound (Gram assembly, tangent marches and
# the nonlinearity functional) whose checks pass
_PUSHFORWARD_NS_BASE = {
    "seed": 5,
    "workers": 1,
    "model": {"kind": "ns", "kmax": 2, "T": 0.5, "viscosity": 0.05, "mesh": {"kind": "uniform", "m": 8}},
    "noise": {"family": "gaussian2", "cov": [[1.0, 0.0], [0.0, 1.0]]},
    "design": {"kind": "uniform"},
    "numerics": {"n_basis": 8},
    "task": {
        "name": "pushforward-bound",
        "functional": "ns-nonlinearity",
        "loss": "l2",
        "t0": 0.125,
        "t1": 0.5,
        "m": 8,
        "n_basis_list": [4, 8],
        "stability_tol": 10.0,
    },
}

# a small RD gaussian-support run under a cosine design (tangent march, the
# pointwise-form Gram and sampling from the inverse factor) whose checks pass
_SUPPORT_RD_BASE = {
    "seed": 6,
    "workers": 1,
    "model": {"kind": "rd", "kmax": 8, "T": 0.5, "mesh": {"kind": "uniform", "m": 16}},
    "noise": {"family": "gaussian", "variance": 1.0},
    "design": {"kind": "cosine", "amplitude": 0.5},
    "numerics": {"n_basis": 16},
    "task": {
        "name": "gaussian-support",
        "beta_list": [1.0, 2.0],
        "k_grid": [4, 8, 16],
        "kappa": 1.0,
        "alpha": 0.5,
        "m_mc": 200,
        "plateau_tol": 0.02,
        "growth_min": 0.25,
        "mc_sigmas": 5.0,
    },
}

# a heat fisher run on Laplace noise (the H^1 probe and the Fisher
# quadrature) whose checks pass
_FISHER_BASE = {
    "seed": 7,
    "workers": 1,
    "model": {"kind": "heat", "kmax": 2, "T": 1.0},
    "noise": {"family": "laplace", "scale": 1.0},
    "design": {"kind": "uniform"},
    "numerics": {"n_basis": 5},
    "task": {"name": "fisher", "tolerance_rel": 1e-8},
}

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fresh_env():
    """The environment of a fresh interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(pdefisher.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


_HEAVY = ("scipy.stats", "scipy.interpolate", "scipy.linalg")

_SHIPPED_PATHS = sorted(glob.glob(os.path.join(_ROOT, "configs", "*.yaml")))
_SHIPPED_PATHS += sorted(glob.glob(os.path.join(_ROOT, "perfbench", "workloads", "*.yaml")))
assert len(_SHIPPED_PATHS) == 6

# one small passing run of every task, none with Gaussian or logistic noise,
# whose draws are the only ones that need scipy.special
_NO_SCIPY_RUNS = {
    "lan": _rd_lan_cfg(),
    "fisher": _fisher_cfg(),
    "qmd-check": TestRemainingTasks()._base({"name": "qmd-check", "s_values": [1e-3, 1e-2, 1e-1, 1.0]}),
    "norm-equiv": TestRemainingTasks()._base({"name": "norm-equiv", "trials": 40, "n_basis_list": [8, 16]}),
    "info-matrix": {**_fisher_cfg(), "task": {"name": "info-matrix"}},
    "snorm": _SNORM_BASE,
    "gaussian-support": _SUPPORT_RD_BASE,
    "pushforward-bound": _PUSHFORWARD_NS_BASE,
    "ns-diagnostics": {
        "seed": 8,
        "model": {
            "kind": "ns", "kmax": 4, "T": 0.5, "viscosity": 0.05, "mesh": {"kind": "uniform", "m": 32},
            "theta0": {"modes": [
                {"k": [1, 0], "kind": "cos", "value": 0.4},
                {"k": [0, 1], "kind": "sin", "value": 0.3},
                {"k": [1, 1], "kind": "cos", "value": 0.2},
            ]},
        },
        "noise": {"family": "gaussian2", "cov": [[1.0, 0.0], [0.0, 1.0]]},
        "design": {"kind": "uniform"},
        "numerics": {"n_basis": 8},
        "task": {"name": "ns-diagnostics"},
    },
    "efficiency": {
        **TestRemainingTasks()._base({"name": "efficiency", "n": 300, "replicates": 100, "ratio_range": [0.7, 1.3]}),
        "noise": {"family": "laplace", "scale": 1.0},
    },
}


class TestReportConfigReruns:
    """A report's config block, written out as JSON, is a config that runs
    again to the same report."""

    def _report(self, path, out):
        result = CliRunner().invoke(main, ["run", "-c", str(path), "-o", str(out)])
        assert result.exit_code == 0, result.output
        return (out / "report.json").read_bytes()

    @pytest.mark.parametrize("path", _SHIPPED_PATHS, ids=os.path.basename)
    def test_shipped_config_reruns_byte_for_byte(self, tmp_path, path):
        first = self._report(path, tmp_path / "first")
        again = tmp_path / "config.json"
        again.write_text(json.dumps(json.loads(first)["config"]))
        assert self._report(again, tmp_path / "again") == first


class TestColdStart:
    def _loaded(self, script, select):
        """The modules m with ``select`` true that ``script`` leaves imported in
        a fresh interpreter."""
        script += f"print(sorted(m for m in sys.modules if {select}))\n"
        out = subprocess.run(
            [sys.executable, "-c", "import sys\n" + script],
            env=_fresh_env(), capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        return out.stdout.strip().splitlines()[-1]

    def _unimported(self, script):
        # scipy.linalg is checked too: every solve reads one inverse factor
        return self._loaded(script, f"m in {_HEAVY!r}") == "[]"

    def _task_script(self, tmp_path, cfg):
        """Runs ``cfg``'s task through the CLI and asserts exit 0."""
        path = _write(tmp_path, "cfg.yaml", cfg)
        return (
            "import pytest\n"
            "from pdefisher.cli import _execute\n"
            "with pytest.raises(SystemExit) as exc:\n"
            f"    _execute(None, {path!r}, {str(tmp_path / 'out')!r}, None, None)\n"
            "assert exc.value.code == 0, exc.value.code\n"
        )

    def test_build_leaves_stats_and_interpolate_unimported(self):
        # scipy.stats and scipy.interpolate together took about a second of
        # start-up; building an experiment needs neither
        workload = os.path.join(_ROOT, "perfbench", "workloads", "lan-rd.yaml")
        assert self._unimported(
            "import pdefisher.cli as cli\n"
            f"raw = cli.validate_config(cli.load_config({workload!r}))\n"
            "cli.build_experiment(cli.resolve_config(raw))\n"
        )

    def test_lan_task_leaves_stats_unimported(self, tmp_path):
        # the LAN task's KS p-value is computed without scipy.stats
        assert self._unimported(self._task_script(tmp_path, _rd_lan_cfg()))

    def test_support_task_leaves_linalg_unimported(self, tmp_path):
        # builds an RD experiment, assembles M under a cosine design and
        # samples N(0, M^{-1}) without scipy.linalg
        assert self._unimported(self._task_script(tmp_path, _SUPPORT_RD_BASE))

    def _scipy_loaded(self, script):
        # importing scipy.special costs about 0.25 s and 17 MiB; only Gaussian
        # and logistic noise draws need it
        return self._loaded(script, "m.startswith('scipy')")

    def test_import_loads_no_scipy(self):
        assert self._scipy_loaded("import pdefisher\n") == "[]"

    def test_scipy_imported_only_by_two_quantiles(self):
        # the LAN task's KS test ports its special functions; a scipy import
        # anywhere else could load scipy for a task without Gaussian or
        # logistic draws
        def scipy_imports(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    yield from scipy_imports(child, scope + [child.name])
                    continue
                if isinstance(child, ast.Import):
                    modules = [alias.name for alias in child.names]
                else:
                    modules = [child.module] if isinstance(child, ast.ImportFrom) else []
                if any(m and m.split(".")[0] == "scipy" for m in modules):
                    yield ".".join(scope)
                yield from scipy_imports(child, scope)

        src = os.path.dirname(pdefisher.__file__)
        users = []
        for path in sorted(glob.glob(os.path.join(src, "*.py"))):
            with open(path) as fh:
                tree = ast.parse(fh.read())
            users += scipy_imports(tree, [os.path.basename(path)[:-3]])
        assert users == ["noise.GaussianNoise.quantile", "noise.LogisticNoise.quantile"]

    # validates and builds the six shipped configs
    _BUILD_SHIPPED = (
        "import pdefisher.cli as cli\n"
        f"for path in {_SHIPPED_PATHS!r}:\n"
        "    cli.build_experiment(cli.resolve_config(cli.validate_config(cli.load_config(path))))\n"
    )

    def test_build_loads_no_scipy(self):
        assert self._scipy_loaded(self._BUILD_SHIPPED) == "[]"

    def test_build_loads_no_jsonschema(self):
        # jsonschema, with the attrs, referencing and rpds it imports, took
        # about 75 ms and 4.7 MiB of start-up
        families = ("jsonschema", "referencing", "rpds", "attrs")
        assert self._loaded(self._BUILD_SHIPPED, f"m.split('.')[0] in {families!r}") == "[]"

    @pytest.mark.parametrize("task", sorted(_NO_SCIPY_RUNS))
    def test_task_loads_no_scipy(self, tmp_path, task):
        cfg = _NO_SCIPY_RUNS[task]
        assert cfg["task"]["name"] == task
        assert self._scipy_loaded(self._task_script(tmp_path, cfg)) == "[]"


# small magnitudes only, so that no mutation makes a long or large run
_NUMBERS = [1, 2, 3, 4, 2.0, 4.0, 0.25, 0.5, 1.5, -0.5, 0, -1, float("nan"), float("inf"), -float("inf")]
_STRINGS = [
    "", "x", "gaussian", "gaussian2", "laplace", "logistic", "cosine_bump", "uniform",
    "heat", "rd", "ns", "graded", "cos", "sin", "cosine", "alternative",
    "full", "mean-zero", "div-free",
    "fisher", "qmd-check", "norm-equiv", "snorm", "info-matrix", "lan", "efficiency",
    "gaussian-support", "pushforward-bound", "ns-diagnostics",
]
_OTHERS = [None, True, [], [1], [[1.0, 0.0], [0.0, 1.0]], {}, {"kind": "graded"}]


def _config_paths(node, prefix=()):
    paths = [prefix] if prefix else []
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        paths += _config_paths(child, prefix + (key,))
    return paths


def _mutate(cfg, data):
    """Delete an entry, replace it by a value of its own type or of any
    type, or add an unknown sibling next to it."""
    path = data.draw(st.sampled_from(_config_paths(cfg)))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    key, old = path[-1], parent[path[-1]]
    # replacements by a value of the same type reach past the schema most often
    op = data.draw(st.sampled_from(["replace", "replace", "replace", "delete", "retype", "add"]))
    if op == "delete":
        del parent[key]
        return
    if op == "replace" and isinstance(old, str):
        value = data.draw(st.sampled_from(_STRINGS))
    elif op == "replace" and isinstance(old, (int, float)) and not isinstance(old, bool):
        value = data.draw(st.sampled_from(_NUMBERS))
    else:
        # a copy: a later "add" into a drawn list would grow _OTHERS' own
        value = copy.deepcopy(data.draw(st.sampled_from(_NUMBERS + _STRINGS + _OTHERS)))
    if op != "add":
        parent[key] = value
    elif isinstance(parent, dict):
        parent[f"extra_{key}"] = value
    else:
        parent.append(value)


def _check_exit_code_contract(base, data):
    cfg = copy.deepcopy(base)
    n_mutations = data.draw(st.integers(0, 2))
    for _ in range(n_mutations):
        _mutate(cfg, data)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(cfg, fh)
        out = os.path.join(tmp, "out")
        with pytest.raises(SystemExit) as exc:
            _execute(None, path, out, None, None)
        assert exc.value.code in (0, 1, 2, 3)
        if exc.value.code == 2:
            assert not os.path.exists(out)
        if n_mutations == 0:
            assert exc.value.code == 0


class TestExitCodeProperty:
    """The exit-code contract over mutated configs: the code is 0, 1, 2 or 3,
    nothing escapes as an uncaught exception, and exit 2 writes nothing."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exit_code_contract(self, data):
        _check_exit_code_contract(_LAN_BASE, data)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exit_code_contract_snorm(self, data):
        _check_exit_code_contract(_SNORM_BASE, data)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exit_code_contract_pushforward_ns(self, data):
        _check_exit_code_contract(_PUSHFORWARD_NS_BASE, data)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exit_code_contract_support_rd(self, data):
        _check_exit_code_contract(_SUPPORT_RD_BASE, data)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exit_code_contract_fisher(self, data):
        _check_exit_code_contract(_FISHER_BASE, data)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(text=st.binary())
    def test_raw_bytes_exit_2(self, text):
        # no byte string is a complete config: each exits 2 and writes nothing
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.yaml")
            with open(path, "wb") as fh:
                fh.write(text)
            out = os.path.join(tmp, "out")
            result = CliRunner().invoke(main, ["run", "-c", path, "-o", out])
            assert isinstance(result.exception, SystemExit), result.exception  # not an uncaught error
            assert result.exit_code == 2, result.output
            assert not os.path.exists(out)


# jsonschema as the validator's oracle, with one deliberate difference: an
# integer key takes an int only, where jsonschema also takes 4.0
_Draft = jsonschema.validators.validator_for(CONFIG_SCHEMA)
_StrictIntegers = jsonschema.validators.extend(
    _Draft,
    type_checker=_Draft.TYPE_CHECKER.redefine(
        "integer", lambda checker, v: isinstance(v, int) and not isinstance(v, bool)
    ),
)
_CONFIG_ORACLE = _StrictIntegers(CONFIG_SCHEMA)


def _oracle_accepts(cfg):
    """The jsonschema validator's verdict: the schema, then finite numbers."""
    if not _CONFIG_ORACLE.is_valid(cfg):
        return False
    try:
        json.dumps(cfg, allow_nan=False)
    except ValueError:
        return False
    return True


def _load(path):
    with open(path) as fh:
        return yaml.safe_load(fh)


_ORACLE_BASES = {
    "lan": _LAN_BASE,
    "snorm": _SNORM_BASE,
    "pushforward-ns": _PUSHFORWARD_NS_BASE,
    "support-rd": _SUPPORT_RD_BASE,
    "fisher": _FISHER_BASE,
    **{os.path.basename(path): _load(path) for path in _SHIPPED_PATHS},
}

# the keywords check_schema implements
_KEYWORDS = {
    "type", "default", "enum", "minimum", "exclusiveMinimum", "properties",
    "additionalProperties", "required", "items", "minItems", "maxItems",
    "oneOf", "discriminator",
}


class TestValidatorOracle:
    @pytest.mark.parametrize("base", list(_ORACLE_BASES.values()), ids=list(_ORACLE_BASES))
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_accepts_what_jsonschema_accepts(self, base, data):
        cfg = copy.deepcopy(base)
        for _ in range(data.draw(st.integers(0, 3))):
            _mutate(cfg, data)
        try:
            validate_config(cfg)
            accepted = True
        except ConfigError:
            accepted = False
        assert accepted == _oracle_accepts(cfg)

    def test_jsonschema_takes_integral_floats(self):
        # the one difference from the oracle, which the plain draft keeps
        cfg = copy.deepcopy(_PUSHFORWARD_NS_BASE)
        cfg["model"]["kmax"] = 2.0
        jsonschema.validate(cfg, CONFIG_SCHEMA)
        assert not _oracle_accepts(cfg)

    def test_schemas_use_only_implemented_keywords(self):
        for sub in _subschemas(CONFIG_SCHEMA):
            assert set(sub) <= _KEYWORDS, sorted(set(sub) - _KEYWORDS)
            # a type on every value is what makes every number pass the finite check
            assert sub["type"] in ("object", "array", "string", "boolean", "integer", "number")
            assert sub.get("additionalProperties", False) is False
