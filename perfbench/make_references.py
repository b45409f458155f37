"""Write references.json: the seed-independent results of each workload.

usage (from the repository root):

    PYTHONPATH=src python3 perfbench/make_references.py

For every workload it runs the CLI once and keeps the results run.py lists
in DETERMINISTIC.  One value comes from an independent oracle instead: for
pushforward-ns, the Monte-Carlo estimate of E||dF[G]||^2 with G ~ N(0,
M^{-1}) has the exact value sum_j ||dF[L^{-T} e_j]||^2 (L the Cholesky factor
of M), because the functional is linear in G.  The script evaluates it
through the public pushforward function with the K columns of L^{-T} as the
"samples", so run.py can test each estimate against it.
"""

import json
import os
import sys
import tempfile

import numpy as np
from scipy.linalg import solve_triangular

from pdefisher import assemble_information_matrix, functional_pushforward_bound
from pdefisher.cli import main as cli_main
from pdefisher.config import build_experiment, load_config, resolve_config, validate_config
from pdefisher.gaussian import GaussianSampleBatch

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
from run import DETERMINISTIC, WORKLOADS  # noqa: E402


def cli_results(cfg_path, out_dir):
    try:
        cli_main(["run", "-c", cfg_path, "-o", out_dir], standalone_mode=False)
    except SystemExit as exc:
        if exc.code != 0:
            raise RuntimeError(f"{cfg_path} exited with {exc.code}") from None
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)["results"]


def exact_pushforward(cfg):
    exp = build_experiment(cfg)
    task = cfg["task"]
    out = []
    for k in task["n_basis_list"]:
        M = assemble_information_matrix(exp["model"], exp["theta0"], exp["noise"], exp["design"], int(k))
        cols = solve_triangular(M.cholesky_lower(), np.eye(M.n_basis), lower=True, trans="T")
        est = functional_pushforward_bound(
            exp["model"], exp["theta0"], M, GaussianSampleBatch(cols.T, M.n_basis),
            task["functional"], task["loss"], task["t0"], task["t1"], task["power"],
        )
        out.append(M.n_basis * est["estimate"])
    return out


def main():
    refs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            cfg_path = os.path.join(BENCH, "workloads", name + ".yaml")
            results = cli_results(cfg_path, os.path.join(tmp, name))
            refs[name] = {"results": {k: results[k] for k in DETERMINISTIC[name]}}
            cfg = resolve_config(validate_config(load_config(cfg_path)))
            if name == "pushforward-ns":
                if cfg["task"]["loss"] != "l2" or cfg["task"]["power"] != 2.0:
                    raise RuntimeError("the exact expectation needs loss l2 and power 2")
                refs[name]["expectation"] = exact_pushforward(cfg)
            print(name, json.dumps(refs[name])[:200])
    with open(os.path.join(BENCH, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
