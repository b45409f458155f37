"""CLI contract: subcommands, exit codes, schema rejection, artifacts, and
byte-level reproducibility of reports."""

import copy
import glob
import json
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
from pdefisher import cli
from pdefisher.cli import _execute, main
from pdefisher.config import CONFIG_SCHEMA, TASK_NAMES, TASK_SCHEMAS, resolve_config, validate_config


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

    def test_subcommand_task_mismatch(self, tmp_path):
        path = _write(tmp_path, "cfg.yaml", _fisher_cfg())
        result = CliRunner().invoke(main, ["snorm", "-c", path, "-o", str(tmp_path / "o")])
        assert result.exit_code == 2


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
        ],
    )
    def test_exit_2_no_outputs(self, tmp_path, mutate):
        if mutate is None:
            path = str(tmp_path)
        else:
            cfg = _fisher_cfg()
            mutate(cfg)
            path = _write(tmp_path, "cfg.yaml", cfg)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["run", "-c", path, "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # not an uncaught error
        assert not out.exists()

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


def _declared_defaults(schema):
    """The property schemas, at any depth, that declare a default."""
    found = []
    for sub in schema.get("properties", {}).values():
        if "default" in sub:
            found.append(sub)
        found += _declared_defaults(sub)
    return found


class TestConfigTable:
    """Each config key is declared once, in the schema, with its default."""

    def test_defaults_satisfy_their_own_schema(self):
        declared = [s for schema in (CONFIG_SCHEMA, *TASK_SCHEMAS.values()) for s in _declared_defaults(schema)]
        assert declared
        for sub in declared:
            jsonschema.validate(sub["default"], sub)

    def test_every_task_has_a_runner(self):
        assert set(TASK_NAMES) == set(cli._RUNNERS)

    @pytest.mark.parametrize("name", TASK_NAMES)
    def test_resolve_fills_defaults_once(self, name):
        cfg = _fisher_cfg()
        cfg["task"] = {"name": name}
        if name == "ns-diagnostics":
            cfg["model"] = {"kind": "ns", "kmax": 4, "T": 0.5}
        elif name == "qmd-check":
            cfg["model"] = {"kind": "rd", "kmax": 4, "T": 0.5, "mesh": {"kind": "graded"}}
        resolved = resolve_config(validate_config(cfg))
        assert resolve_config(resolved) == resolved
        schema = TASK_SCHEMAS[name]["properties"]
        defaults = {key: sub["default"] for key, sub in schema.items() if "default" in sub}
        assert resolved["task"] == {"name": name, **defaults}


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

# one small passing run of every task but lan, whose KS test needs scipy.special
_NO_SCIPY_RUNS = {
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
        # importing scipy.special costs about 0.3 s; only Gaussian and logistic
        # noise draws and the LAN task's KS test need it
        return self._loaded(script, "m.startswith('scipy')")

    def test_import_loads_no_scipy(self):
        assert self._scipy_loaded("import pdefisher\n") == "[]"

    def test_build_loads_no_scipy(self):
        configs = sorted(glob.glob(os.path.join(_ROOT, "configs", "*.yaml")))
        configs += sorted(glob.glob(os.path.join(_ROOT, "perfbench", "workloads", "*.yaml")))
        assert len(configs) == 6
        assert self._scipy_loaded(
            "import pdefisher.cli as cli\n"
            f"for path in {configs!r}:\n"
            "    cli.build_experiment(cli.resolve_config(cli.validate_config(cli.load_config(path))))\n"
        ) == "[]"

    @pytest.mark.parametrize("task", sorted(_NO_SCIPY_RUNS))
    def test_task_loads_no_scipy(self, tmp_path, task):
        cfg = _NO_SCIPY_RUNS[task]
        assert cfg["task"]["name"] == task
        assert self._scipy_loaded(self._task_script(tmp_path, cfg)) == "[]"


# small magnitudes only, so that no mutation makes a long or large run
_NUMBERS = [1, 2, 3, 4, 0.25, 0.5, 1.5, -0.5, 0, -1, float("nan"), float("inf"), -float("inf")]
_STRINGS = [
    "", "x", "gaussian", "gaussian2", "laplace", "logistic", "cosine_bump", "uniform",
    "heat", "rd", "ns", "graded", "cos", "sin", "cosine", "alternative",
    "fisher", "qmd-check", "snorm", "info-matrix", "efficiency", "ns-diagnostics",
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
        value = data.draw(st.sampled_from(_NUMBERS + _STRINGS + _OTHERS))
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
