"""Experiment configuration: a YAML/JSON file validated against a strict
schema (unknown keys rejected) that declares each key once with its default,
resolved with those defaults, and mapped onto the model / noise / design /
numerics objects.
"""

import contextlib
import copy
import json
import os

import jsonschema
import numpy as np
import yaml

from .forward import (
    BumpReaction,
    HeatModel,
    NavierStokesModel,
    ReactionDiffusionModel,
    TimeMesh,
)
from .information import DesignMeasure
from .noise import make_noise
from .spectral import DIV_FREE, FULL, MEAN_ZERO, FourierCoeffs, build_eigensystem

_FIELD_SPEC = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "constant": {"type": "number"},
        "unit_index": {"type": "integer", "minimum": 0},
        "preset": {"type": "string", "enum": ["log-divergent"]},
        "scale_to_lan_norm": {"type": "number", "exclusiveMinimum": 0},
        "modes": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["k", "kind", "value"],
                "properties": {
                    "k": {"type": "array", "items": {"type": "integer"}},
                    "kind": {"type": "string", "enum": ["cos", "sin"]},
                    "value": {"type": "number"},
                },
            },
        },
    },
}

# the defaults of m, levels and steps_per_block depend on kind (resolve_config)
_MESH_SPEC = {
    "type": "object",
    "additionalProperties": False,
    "default": {},
    "properties": {
        "kind": {"type": "string", "enum": ["uniform", "graded"], "default": "uniform"},
        "m": {"type": "integer", "minimum": 4},
        "levels": {"type": "integer", "minimum": 1},
        "steps_per_block": {"type": "integer", "minimum": 4},
    },
}

# Galerkin truncation sizes K, each >= 1
_TRUNCATIONS = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "integer", "minimum": 1},
}

# perturbation sizes s of a remainder-slope fit, which needs four
_S_VALUES = {
    "type": "array",
    "minItems": 4,
    "items": {"type": "number", "exclusiveMinimum": 0},
    "default": [1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1],
}

# Each key is declared once, with its default (if any) as "default": one
# walk over this schema and the task's fills them in (resolve_config).
CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["model", "noise", "design", "numerics", "task", "seed"],
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "workers": {"type": "integer", "minimum": 1},
        "model": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "kmax", "T"],
            "properties": {
                "kind": {"type": "string", "enum": ["heat", "rd", "ns"]},
                "d": {"type": "integer", "enum": [1, 2]},
                "kmax": {"type": "integer", "minimum": 1},
                "subspace": {"type": "string", "enum": ["full", "mean-zero"]},
                "T": {"type": "number", "exclusiveMinimum": 0},
                "mesh": _MESH_SPEC,
                "reaction": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "amplitude": {"type": "number"},
                        "radius": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
                "viscosity": {"type": "number", "exclusiveMinimum": 0},
                "forcing": _FIELD_SPEC,
                "theta0": _FIELD_SPEC,
            },
        },
        "noise": {
            "type": "object",
            "additionalProperties": False,
            "required": ["family"],
            "properties": {
                "family": {
                    "type": "string",
                    "enum": [
                        "gaussian",
                        "gaussian2",
                        "laplace",
                        "logistic",
                        "cosine_bump",
                        "uniform",
                    ],
                },
                "variance": {"type": "number", "exclusiveMinimum": 0},
                "scale": {"type": "number", "exclusiveMinimum": 0},
                "cov": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"}},
                },
            },
        },
        "design": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"type": "string", "enum": ["uniform", "cosine"]},
                "amplitude": {"type": "number"},
                "axis": {"type": "integer", "enum": [0, 1]},
            },
        },
        "numerics": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_basis": {"type": "integer", "minimum": 1, "default": 9},
            },
        },
        "task": {
            "type": "object",
            "required": ["name"],
            "properties": {"name": {"type": "string"}},
        },
    },
}


def _task(**properties):
    """Schema of a task block: the name and the task's own keys."""
    return {
        "type": "object",
        "additionalProperties": False,
        "properties": {"name": {"type": "string"}, **properties},
    }


TASK_SCHEMAS = {
    "fisher": _task(
        tolerance_rel={"type": "number", "exclusiveMinimum": 0, "default": 1e-6},
    ),
    "qmd-check": _task(
        h=_FIELD_SPEC,
        s_values=_S_VALUES,
        slope_target={"type": "number", "default": 2.0},
        slope_tol={"type": "number", "default": 0.15},
        linear_rho_tol={"type": "number", "default": 1e-12},
    ),
    "norm-equiv": _task(
        kappa={"type": "number", "default": 1.0},
        trials={"type": "integer", "minimum": 10, "default": 200},
        n_basis_list={**_TRUNCATIONS, "default": [32, 64]},
        max_over_min={"type": "number", "default": 20.0},
        growth_tol={"type": "number", "default": 0.10},
    ),
    "info-matrix": _task(
        check_heat_closed_form={"type": "boolean", "default": False},
        tolerance={"type": "number", "default": 1e-10},
        dump={"type": "boolean", "default": False},
    ),
    "snorm": _task(
        psi=_FIELD_SPEC,
        k_grid=_TRUNCATIONS,
        # a squared dual norm; the check divides by it
        expected={"type": "number", "exclusiveMinimum": 0},
        tolerance_rel={"type": "number", "default": 1e-8},
    ),
    "lan": _task(
        h=_FIELD_SPEC,
        n={"type": "integer", "minimum": 10, "default": 5000},
        replicates={"type": "integer", "minimum": 10, "default": 400},
        under={"type": "string", "enum": ["null", "alternative"], "default": "null"},
        mean_sigmas={"type": "number", "default": 3.0},
        var_rel_tol={"type": "number", "default": 0.15},
        ks_pmin={"type": "number", "default": 0.01},
    ),
    "gaussian-support": _task(
        beta_list={"type": "array", "minItems": 1, "items": {"type": "number"}, "default": [1.0, 2.0]},
        k_grid={**_TRUNCATIONS, "default": [64, 128, 256, 512]},
        kappa={"type": "number", "default": 1.0},
        alpha={"type": "number", "default": 0.5},
        m_mc={"type": "integer", "minimum": 0, "default": 5000},
        mc_k={"type": "integer", "minimum": 1},
        plateau_tol={"type": "number", "default": 0.02},
        growth_min={"type": "number", "default": 0.25},
        mc_sigmas={"type": "number", "default": 3.0},
    ),
    "pushforward-bound": _task(
        functional={"type": "string", "enum": ["trajectory", "ns-nonlinearity"], "default": "trajectory"},
        loss={"type": "string", "enum": ["l2", "sup"], "default": "l2"},
        power={"type": "number", "default": 2.0},
        t0={"type": "number", "default": 0.1},
        t1={"type": "number", "default": 0.5},
        m={"type": "integer", "minimum": 2, "default": 2000},
        n_basis_list={**_TRUNCATIONS, "default": [32, 64]},
        stability_tol={"type": "number", "default": 0.05},
    ),
    "efficiency": _task(
        psi=_FIELD_SPEC,
        n={"type": "integer", "minimum": 10, "default": 2000},
        replicates={"type": "integer", "minimum": 10, "default": 2000},
        expect={"type": "string", "enum": ["attain", "divergent"]},
        ratio_range={
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
            "default": [0.9, 1.15],
        },
        k_grid=_TRUNCATIONS,
    ),
    "ns-diagnostics": _task(
        divergence_tol={"type": "number", "default": 1e-12},
        decay_tol={"type": "number", "default": 1e-8},
        energy_tol={"type": "number", "default": 1e-6},
        slope_tol={"type": "number", "default": 0.2},
        s_values=_S_VALUES,
    ),
}

TASK_NAMES = tuple(TASK_SCHEMAS)


class ConfigError(ValueError):
    pass


def load_config(path):
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    return raw


def validate_config(raw):
    try:
        jsonschema.validate(raw, CONFIG_SCHEMA)
        name = raw["task"].get("name")
        if name not in TASK_NAMES:
            raise ConfigError(f"unknown task name {name!r}")
        jsonschema.validate(raw["task"], TASK_SCHEMAS[name])
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"invalid config: {exc.message}") from None
    try:  # YAML's .nan and .inf pass the schema's numeric bounds
        json.dumps(raw, allow_nan=False)
    except ValueError:
        raise ConfigError("invalid config: numbers must be finite") from None
    return raw


_DEFAULT_THETA0 = {
    "scalar": {
        "constant": 0.5,
        "modes": [
            {"k": [1], "kind": "cos", "value": 0.3},
            {"k": [2], "kind": "sin", "value": 0.2},
        ],
    },
    "scalar2d": {
        "constant": 0.5,
        "modes": [
            {"k": [1, 0], "kind": "cos", "value": 0.3},
            {"k": [0, 1], "kind": "sin", "value": 0.2},
        ],
    },
    "ns": {
        "modes": [
            {"k": [1, 0], "kind": "cos", "value": 0.4},
            {"k": [0, 1], "kind": "sin", "value": 0.3},
            {"k": [1, 1], "kind": "cos", "value": 0.2},
        ],
    },
}


def _fill_defaults(node, schema):
    """Give each key of the mapping ``node`` that is absent and has a
    ``default`` in ``schema`` a copy of it; recurse into mapping values."""
    for key, sub in schema.get("properties", {}).items():
        if key not in node and "default" in sub:
            node[key] = copy.deepcopy(sub["default"])
        if isinstance(node.get(key), dict):
            _fill_defaults(node[key], sub)


def resolve_config(raw):
    """Fill defaults; returns a plain dict safe to embed in reports."""
    cfg = copy.deepcopy(raw)
    _fill_defaults(cfg, CONFIG_SCHEMA)
    _fill_defaults(cfg["task"], TASK_SCHEMAS[cfg["task"]["name"]])
    # the defaults below depend on the machine or on another key;
    # replicate seeds are pre-split, so results never depend on the worker count
    cfg.setdefault("workers", os.cpu_count() or 1)
    m = cfg["model"]
    m.setdefault("d", 2 if m["kind"] == "ns" else 1)
    if m["kind"] == "ns":
        if m["d"] != 2:
            raise ConfigError("Navier-Stokes requires d=2")
        m["subspace"] = "div-free"
        m.setdefault("viscosity", 0.05)
        m.setdefault("theta0", copy.deepcopy(_DEFAULT_THETA0["ns"]))
    else:
        m.setdefault("subspace", "full")
        key = "scalar" if m["d"] == 1 else "scalar2d"
        m.setdefault("theta0", copy.deepcopy(_DEFAULT_THETA0[key]))
    if m["kind"] == "rd":
        m.setdefault("reaction", {"amplitude": 2.0, "radius": 2.5})
    mesh = m["mesh"]
    if mesh["kind"] == "uniform":
        mesh.setdefault("m", 256)
    else:
        mesh.setdefault("levels", 14)
        mesh.setdefault("steps_per_block", 16)
    d = cfg["design"]
    if d["kind"] == "cosine":
        d.setdefault("amplitude", 0.5)
        d.setdefault("axis", 0)
    _check_consistency(cfg)
    return cfg


def _check_consistency(cfg):
    """Cross-field constraints of a resolved config that the schema cannot
    express and no builder checks; build_experiment runs the builders that
    check the others, so each fails before the task starts."""
    m, design, task = cfg["model"], cfg["design"], cfg["task"]
    if design["kind"] == "cosine" and design["axis"] >= m["d"]:
        raise ConfigError(f"cosine design axis {design['axis']} is not an axis of d={m['d']}")
    if cfg["noise"]["family"] == "uniform" and task["name"] != "fisher":
        # sqrt q jumps at the support edges, so the model is not QMD
        raise ConfigError("uniform noise has no Fisher information; only the fisher task accepts it")
    if "mc_k" in task and task["mc_k"] > max(task["k_grid"]):  # M is assembled at max(k_grid)
        raise ConfigError(f"mc_k {task['mc_k']} exceeds max(k_grid) {max(task['k_grid'])}")
    # snorm and efficiency read their traces off the n_basis matrix
    n_basis = cfg["numerics"]["n_basis"]
    if task["name"] in ("snorm", "efficiency") and max(task.get("k_grid", [0])) > n_basis:
        raise ConfigError(f"k_grid goes beyond n_basis {n_basis}")
    if task["name"] == "pushforward-bound" and not 0.0 < task["t0"] < task["t1"] <= m["T"] + 1e-12:
        raise ConfigError(f"pushforward window needs 0 < t0 < t1 <= T, got [{task['t0']}, {task['t1']}]")
    if task.get("functional") == "ns-nonlinearity" and m["kind"] != "ns":
        raise ConfigError(f"the ns-nonlinearity functional needs the ns model, not {m['kind']}")


def _truncations(cfg):
    """The Galerkin sizes K at which the task assembles M."""
    task = cfg["task"]
    if task["name"] in ("norm-equiv", "pushforward-bound"):
        return task["n_basis_list"]
    if task["name"] == "gaussian-support":
        return task["k_grid"]
    if task["name"] in ("info-matrix", "snorm", "lan", "efficiency"):
        return [cfg["numerics"]["n_basis"]]
    return []


@contextlib.contextmanager
def _owner_check(what):
    """The ValueError of a builder's own input check, as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None


# ---------------------------------------------------------------------------
# object builders
# ---------------------------------------------------------------------------


def build_field(es, spec):
    """FourierCoeffs from a {constant, modes, unit_index, preset} spec."""
    data = np.zeros(es.size)
    if spec is None:
        raise ConfigError("missing field spec")
    if "preset" in spec:
        if spec["preset"] == "log-divergent":
            # in L^2 but outside the dual space: psi_j = (1+lam_j)^(-1/2) j^(-1/2)
            j = np.arange(1, es.size + 1, dtype=float)
            data = (1.0 + es.lam) ** (-0.5) * j ** (-0.5)
            return FourierCoeffs(es, data)
        raise ConfigError(f"unknown preset {spec['preset']!r}")
    if "unit_index" in spec:
        if spec["unit_index"] >= es.size:
            raise ConfigError(f"unit_index {spec['unit_index']} outside the {es.size} retained modes")
        data[spec["unit_index"]] = 1.0
    if "constant" in spec:
        idx = es.index_of((0,) * es.d, 0)
        if idx < 0:
            raise ConfigError("constant mode not available in this subspace")
        data[idx] = spec["constant"]
    for mode in spec.get("modes", []):
        kind = 1 if mode["kind"] == "cos" else 2
        idx = es.index_of(mode["k"], kind)
        if idx < 0:
            raise ConfigError(f"mode k={mode['k']} kind={mode['kind']} not retained")
        data[idx] = mode["value"]
    return FourierCoeffs(es, data)


def _build_mesh(T, spec):
    if spec["kind"] == "uniform":
        return TimeMesh.uniform(T, spec["m"])
    return TimeMesh.graded(T, spec["levels"], spec["steps_per_block"])


def build_experiment(cfg):
    """Resolved config -> dict of live objects for the task runners.

    Rules that a builder owns (even step counts, the Simpson window, the
    cosine design's amplitude, the noise parameters, the Navier-Stokes kmax
    cap) are checked by running it; its ValueError becomes a ConfigError.
    """
    m, task = cfg["model"], cfg["task"]
    subspace = {"full": FULL, "mean-zero": MEAN_ZERO, "div-free": DIV_FREE}[m["subspace"]]
    es = build_eigensystem(m["d"], m["kmax"], subspace)
    worst = max(_truncations(cfg), default=0)
    if worst > es.size:
        raise ConfigError(f"truncation {worst} exceeds the {es.size} modes of the eigensystem")
    with _owner_check("time mesh"):
        mesh = _build_mesh(m["T"], m["mesh"])
    if task["name"] == "pushforward-bound":
        with _owner_check(f"pushforward window [{task['t0']}, {task['t1']}]"):
            mesh.window_weights(*mesh.window_slice(task["t0"], task["t1"]))
    d = cfg["design"]
    with _owner_check("design"):
        design = DesignMeasure(
            m["T"], kind=d["kind"], amplitude=d.get("amplitude", 0.0), axis=d.get("axis", 0)
        )

    if m["kind"] == "heat":
        model = HeatModel(es, T=m["T"], mesh=mesh)
    elif m["kind"] == "rd":
        reaction = BumpReaction(**m["reaction"])
        model = ReactionDiffusionModel(es, T=m["T"], reaction=reaction, mesh=mesh)
    else:
        forcing = build_field(es, m["forcing"]) if "forcing" in m else None
        with _owner_check("Navier-Stokes model"):
            model = NavierStokesModel(
                es, viscosity=m["viscosity"], T=m["T"], forcing=forcing, mesh=mesh
            )
    theta0 = build_field(es, m["theta0"])

    noise_params = {k: v for k, v in cfg["noise"].items() if k != "family"}
    try:
        if "cov" in noise_params:  # a ragged nesting raises here
            noise_params["cov"] = np.asarray(noise_params["cov"], dtype=float)
        noise = make_noise(cfg["noise"]["family"], **noise_params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"noise {cfg['noise']['family']!r}: {exc}") from None
    # every task but fisher (which studies the noise alone) adds it to the field
    if task["name"] != "fisher" and noise.p != es.p:
        raise ConfigError(
            f"noise {noise.family!r} has {noise.p} component(s) but the {m['kind']} field has {es.p}"
        )

    return {
        "es": es,
        "model": model,
        "theta0": theta0,
        "noise": noise,
        "design": design,
        "n_basis": cfg["numerics"]["n_basis"],
        "seed": cfg["seed"],
        "workers": cfg["workers"],
    }


def dumps_report(report):
    """Deterministic JSON (sorted keys, no timing fields)."""
    return json.dumps(_sanitize(report), sort_keys=True, indent=2) + "\n"


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, float) and (np.isnan(obj) or np.isinf(obj)):
        return repr(obj)
    return obj
