"""perfbench/make_references.py computes the exact pushforward expectation
that the benchmark holds every pushforward-ns estimate to.  No benchmark run
executes the script, so this test imports it as it stands and checks that it
still runs against the package and still reproduces references.json."""

import importlib.util
import json
import math
import os
import sys

from pdefisher.config import load_config, resolve_config, validate_config

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _import_make_references(monkeypatch):
    # the script puts perfbench/ on sys.path and imports run.py as ``run``
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.delitem(sys.modules, "run", raising=False)
    spec = importlib.util.spec_from_file_location("make_references", os.path.join(BENCH, "make_references.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    run = sys.modules.pop("run")
    return module, run


def test_exact_pushforward_reproduces_references(monkeypatch):
    make_references, run = _import_make_references(monkeypatch)
    cfg_path = os.path.join(BENCH, "workloads", "pushforward-ns.yaml")
    cfg = resolve_config(validate_config(load_config(cfg_path)))
    with open(os.path.join(BENCH, "references.json")) as fh:
        expected = json.load(fh)["pushforward-ns"]["expectation"]
    got = make_references.exact_pushforward(cfg)
    assert len(got) == len(expected) == len(cfg["task"]["n_basis_list"])
    for value, ref in zip(got, expected):
        assert math.isclose(value, ref, rel_tol=run.REL_TOL, abs_tol=0.0), (value, ref)
