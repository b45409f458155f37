"""The benchmark's tracer wraps pdefisher names from the outside
(perfbench/layers.py); a rename under src/ must fail here, not only in a
traced benchmark run."""

import json
import math
import os
import subprocess
import sys
import time

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced_counts(tmp_path, cfg):
    """Run ``cfg`` through perfbench/child.py in trace mode; its layer counts."""
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    stats_path = tmp_path / "stats.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PERFBENCH_T0=repr(time.monotonic()))
    argv = [
        sys.executable, os.path.join(ROOT, "perfbench", "child.py"), str(stats_path), "trace",
        "run", "-c", str(cfg_path), "-o", str(tmp_path / "out"),
    ]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(stats_path.read_text())["layers"]["counts"]


def test_traced_child_runs_and_counts(tmp_path):
    # graded mesh: 3 blocks of 4 steps; 8 unit tangent columns
    cfg = {
        "seed": 3,
        "workers": 1,
        "model": {
            "kind": "rd", "kmax": 8, "T": 0.5,
            "mesh": {"kind": "graded", "levels": 2, "steps_per_block": 4},
        },
        "noise": {"family": "gaussian", "variance": 1.0},
        "design": {"kind": "uniform"},
        "numerics": {"n_basis": 8},
        "task": {
            "name": "gaussian-support", "beta_list": [1.0, 2.0], "k_grid": [2, 4, 8],
            "kappa": 1.0, "alpha": 0.5, "m_mc": 200, "mc_sigmas": 5.0,
        },
    }
    counts = _traced_counts(tmp_path, cfg)
    assert counts["forward.linearize.calls"] == 1
    assert counts["forward.linearize.cols"] == 8
    # per ETDRK4 stage: one base and one tangent transform to grid values
    assert counts["spectral.to_values.calls"] == 12 * 4 * 2


def test_traced_lan_counts_three_evaluations_per_replicate(tmp_path):
    # lan-rd's count gate: per replicate, evaluate is called on n points by
    # simulate_dataset and by the log-likelihood of each of the two fields
    n, replicates = 40, 10
    cfg = {
        "seed": 3,
        "workers": 2,
        "model": {
            "kind": "rd", "kmax": 8, "T": 0.5,
            "mesh": {"kind": "graded", "levels": 2, "steps_per_block": 4},
            "theta0": {"constant": 0.5, "modes": [{"k": [1], "kind": "cos", "value": 0.3}]},
        },
        "noise": {"family": "laplace", "scale": 1.0},
        "design": {"kind": "uniform"},
        "numerics": {"n_basis": 5},
        "task": {
            "name": "lan", "h": {"unit_index": 0, "scale_to_lan_norm": 1.0},
            "n": n, "replicates": replicates,
            "mean_sigmas": 50.0, "var_rel_tol": 100.0, "ks_pmin": 0.0,
        },
    }
    counts = _traced_counts(tmp_path, cfg)
    assert counts["kernels.eval.calls"] == 3 * replicates
    assert counts["kernels.eval.points"] == 3 * n * replicates
    assert counts["inference.simulate.calls"] == replicates


def test_traced_pushforward_counts(tmp_path):
    # pushforward-ns's count gate: per K, one march of the K unit tangents
    # that assemble M, then the m samples in chunks of 64 columns
    ks, m = [4, 8], 70
    cfg = {
        "seed": 5,
        "workers": 1,
        "model": {"kind": "ns", "kmax": 2, "T": 0.5, "viscosity": 0.05, "mesh": {"kind": "uniform", "m": 8}},
        "noise": {"family": "gaussian2", "cov": [[1.0, 0.0], [0.0, 1.0]]},
        "design": {"kind": "uniform"},
        "numerics": {"n_basis": 8},
        "task": {
            "name": "pushforward-bound", "functional": "ns-nonlinearity", "loss": "l2",
            "t0": 0.125, "t1": 0.5, "m": m, "n_basis_list": ks, "stability_tol": 10.0,
        },
    }
    counts = _traced_counts(tmp_path, cfg)
    assert counts["forward.linearize.calls"] == len(ks) * (1 + math.ceil(m / 64))
    assert counts["forward.linearize.cols"] == sum(k + m for k in ks)
    assert counts.get("kernels.eval.calls", 0) == 0
