"""Experiment configuration: a YAML/JSON file validated against a strict
schema (unknown keys rejected), resolved with defaults, and mapped onto the
model / noise / design / numerics objects.
"""

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

SCHEMA_VERSION = 1

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

_MESH_SPEC = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "kind": {"type": "string", "enum": ["uniform", "graded"]},
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
                "substeps": {"type": "integer", "minimum": 1},
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
                "n_basis": {"type": "integer", "minimum": 1},
            },
        },
        "task": {
            "type": "object",
            "required": ["name"],
            "properties": {"name": {"type": "string"}},
        },
    },
}

TASK_NAMES = (
    "fisher",
    "qmd-check",
    "norm-equiv",
    "info-matrix",
    "snorm",
    "lan",
    "gaussian-support",
    "pushforward-bound",
    "efficiency",
    "ns-diagnostics",
)

_COMMON_TASK = {"name": {"type": "string", "enum": list(TASK_NAMES)}}

TASK_SCHEMAS = {
    "fisher": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            **_COMMON_TASK,
            "tolerance_rel": {"type": "number", "exclusiveMinimum": 0},
        },
    },
    "qmd-check": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            **_COMMON_TASK,
            "h": _FIELD_SPEC,
            "s_values": {"type": "array", "items": {"type": "number"}},
            "slope_target": {"type": "number"},
            "slope_tol": {"type": "number"},
            "linear_rho_tol": {"type": "number"},
        },
    },
    "norm-equiv": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            **_COMMON_TASK,
            "kappa": {"type": "number"},
            "trials": {"type": "integer", "minimum": 10},
            "n_basis_list": _TRUNCATIONS,
            "max_over_min": {"type": "number"},
            "growth_tol": {"type": "number"},
        },
    },
    "info-matrix": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            **_COMMON_TASK,
            "check_heat_closed_form": {"type": "boolean"},
            "tolerance": {"type": "number"},
            "dump": {"type": "boolean"},
        },
    },
    "snorm": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            **_COMMON_TASK,
            "psi": _FIELD_SPEC,
            "k_grid": _TRUNCATIONS,
            "expected": {"type": "number"},
            "tolerance_rel": {"type": "number"},
        },
    },
    "lan": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            **_COMMON_TASK,
            "h": _FIELD_SPEC,
            "n": {"type": "integer", "minimum": 10},
            "replicates": {"type": "integer", "minimum": 10},
            "under": {"type": "string", "enum": ["null", "alternative"]},
            "mean_sigmas": {"type": "number"},
            "var_rel_tol": {"type": "number"},
            "ks_pmin": {"type": "number"},
            "dump_replicates": {"type": "boolean"},
        },
    },
    "gaussian-support": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            **_COMMON_TASK,
            "beta_list": {"type": "array", "items": {"type": "number"}},
            "k_grid": _TRUNCATIONS,
            "kappa": {"type": "number"},
            "alpha": {"type": "number"},
            "m_mc": {"type": "integer", "minimum": 0},
            "mc_k": {"type": "integer", "minimum": 1},
            "plateau_tol": {"type": "number"},
            "growth_min": {"type": "number"},
            "mc_sigmas": {"type": "number"},
        },
    },
    "pushforward-bound": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            **_COMMON_TASK,
            "functional": {"type": "string", "enum": ["trajectory", "ns-nonlinearity"]},
            "loss": {"type": "string", "enum": ["l2", "sup"]},
            "power": {"type": "number"},
            "t0": {"type": "number"},
            "t1": {"type": "number"},
            "m": {"type": "integer", "minimum": 2},
            "n_basis_list": _TRUNCATIONS,
            "stability_tol": {"type": "number"},
        },
    },
    "efficiency": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            **_COMMON_TASK,
            "psi": _FIELD_SPEC,
            "n": {"type": "integer", "minimum": 10},
            "replicates": {"type": "integer", "minimum": 10},
            "expect": {"type": "string", "enum": ["attain", "divergent"]},
            "dump_replicates": {"type": "boolean"},
            "ratio_range": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 2,
                "maxItems": 2,
            },
            "k_grid": _TRUNCATIONS,
        },
    },
    "ns-diagnostics": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            **_COMMON_TASK,
            "divergence_tol": {"type": "number"},
            "decay_tol": {"type": "number"},
            "energy_tol": {"type": "number"},
            "slope_tol": {"type": "number"},
            "s_values": {"type": "array", "items": {"type": "number"}},
        },
    },
}


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

_TASK_DEFAULTS = {
    "fisher": {"tolerance_rel": 1e-6},
    "qmd-check": {
        "s_values": [1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1],
        "slope_target": 2.0,
        "slope_tol": 0.15,
        "linear_rho_tol": 1e-12,
    },
    "norm-equiv": {
        "kappa": 1.0,
        "trials": 200,
        "n_basis_list": [32, 64],
        "max_over_min": 20.0,
        "growth_tol": 0.10,
    },
    "info-matrix": {
        "check_heat_closed_form": False,
        "tolerance": 1e-10,
        "dump": False,
    },
    "snorm": {"tolerance_rel": 1e-8},
    "lan": {
        "n": 5000,
        "replicates": 400,
        "under": "null",
        "mean_sigmas": 3.0,
        "var_rel_tol": 0.15,
        "ks_pmin": 0.01,
    },
    "gaussian-support": {
        "beta_list": [1.0, 2.0],
        "k_grid": [64, 128, 256, 512],
        "kappa": 1.0,
        "alpha": 0.5,
        "m_mc": 5000,
        "plateau_tol": 0.02,
        "growth_min": 0.25,
        "mc_sigmas": 3.0,
    },
    "pushforward-bound": {
        "functional": "trajectory",
        "loss": "l2",
        "power": 2.0,
        "t0": 0.1,
        "t1": 0.5,
        "m": 2000,
        "n_basis_list": [32, 64],
        "stability_tol": 0.05,
    },
    "efficiency": {
        "n": 2000,
        "replicates": 2000,
        "ratio_range": [0.9, 1.15],
    },
    "ns-diagnostics": {
        "divergence_tol": 1e-12,
        "decay_tol": 1e-8,
        "energy_tol": 1e-6,
        "slope_tol": 0.2,
        "s_values": [1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1],
    },
}


def resolve_config(raw):
    """Fill defaults; returns a plain dict safe to embed in reports."""
    cfg = copy.deepcopy(raw)
    # replicate seeds are pre-split, so results never depend on the count
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
    m.setdefault("substeps", 1)
    m.setdefault("mesh", {"kind": "uniform", "m": 256})
    mesh = m["mesh"]
    if mesh.get("kind", "uniform") == "uniform":
        mesh.setdefault("kind", "uniform")
        mesh.setdefault("m", 256)
    else:
        mesh.setdefault("levels", 14)
        mesh.setdefault("steps_per_block", 16)
    cfg.setdefault("numerics", {})
    cfg["numerics"].setdefault("n_basis", 9)
    d = cfg["design"]
    if d["kind"] == "cosine":
        d.setdefault("amplitude", 0.5)
        d.setdefault("axis", 0)
    task = cfg["task"]
    for key, val in _TASK_DEFAULTS.get(task["name"], {}).items():
        task.setdefault(key, copy.deepcopy(val))
    _check_consistency(cfg)
    return cfg


def _check_consistency(cfg):
    """Cross-field constraints of a resolved config that the schema cannot
    express; each would otherwise fail inside a builder, after start-up."""
    m = cfg["model"]
    mesh = m["mesh"]
    steps = mesh["m"] if mesh["kind"] == "uniform" else mesh["steps_per_block"]
    if steps % 2:
        raise ConfigError(f"mesh step counts must be even (Simpson weights), got {steps}")
    design = cfg["design"]
    if design["kind"] == "cosine" and not abs(design["amplitude"]) < 1:
        raise ConfigError(f"cosine design needs |amplitude| < 1, got {design['amplitude']}")
    if design["kind"] == "cosine" and design["axis"] >= m["d"]:
        raise ConfigError(f"cosine design axis {design['axis']} is not an axis of d={m['d']}")
    task = cfg["task"]
    if cfg["noise"]["family"] == "uniform" and task["name"] != "fisher":
        # sqrt q jumps at the support edges, so the model is not QMD
        raise ConfigError("uniform noise has no Fisher information; only the fisher task accepts it")
    if task["name"] in ("norm-equiv", "pushforward-bound"):
        truncations = task["n_basis_list"]
    elif task["name"] == "gaussian-support":
        truncations = task["k_grid"]
        if task.get("mc_k", 0) > max(truncations):  # M is assembled at max(k_grid)
            raise ConfigError(f"mc_k {task['mc_k']} exceeds max(k_grid) {max(truncations)}")
    elif task["name"] in ("info-matrix", "snorm", "lan", "efficiency"):
        truncations = [cfg["numerics"]["n_basis"]]
        # snorm and efficiency read their traces off the n_basis matrix
        if max(task.get("k_grid", []), default=0) > truncations[0]:
            raise ConfigError(f"k_grid goes beyond n_basis {truncations[0]}")
    else:
        truncations = []
    if task["name"] == "pushforward-bound":
        t0, t1 = task["t0"], task["t1"]
        if not 0.0 < t0 < t1 <= m["T"] + 1e-12:
            raise ConfigError(f"pushforward window needs 0 < t0 < t1 <= T, got [{t0}, {t1}]")
        time_mesh = _build_mesh(m["T"], mesh)
        try:  # Simpson over the window: endpoints on nodes, an even interval count
            time_mesh.window_weights(*time_mesh.window_slice(t0, t1))
        except ValueError as exc:
            raise ConfigError(f"pushforward window [{t0}, {t1}]: {exc}") from None
    # (2 kmax + 1)^d lattice modes, less the constant outside the full subspace
    n_modes = (2 * m["kmax"] + 1) ** m["d"] - (m["subspace"] != "full")
    if max(truncations, default=0) > n_modes:
        raise ConfigError(
            f"truncation {max(truncations)} exceeds the {n_modes} modes of the eigensystem"
        )


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
    """Resolved config -> dict of live objects for the task runners."""
    m = cfg["model"]
    subspace = {"full": FULL, "mean-zero": MEAN_ZERO, "div-free": DIV_FREE}[m["subspace"]]
    es = build_eigensystem(m["d"], m["kmax"], subspace)
    mesh = _build_mesh(m["T"], m["mesh"])
    if m["kind"] == "heat":
        model = HeatModel(es, T=m["T"], mesh=mesh)
    elif m["kind"] == "rd":
        reaction = BumpReaction(**m["reaction"])
        model = ReactionDiffusionModel(
            es, T=m["T"], reaction=reaction, mesh=mesh, substeps=m["substeps"]
        )
    else:
        forcing = build_field(es, m["forcing"]) if "forcing" in m else None
        model = NavierStokesModel(
            es,
            viscosity=m["viscosity"],
            T=m["T"],
            forcing=forcing,
            mesh=mesh,
            substeps=m["substeps"],
        )
    theta0 = build_field(es, m["theta0"])

    noise_params = {k: v for k, v in cfg["noise"].items() if k != "family"}
    if "cov" in noise_params:
        noise_params["cov"] = np.asarray(noise_params["cov"], dtype=float)
    try:
        noise = make_noise(cfg["noise"]["family"], **noise_params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"noise {cfg['noise']['family']!r}: {exc}") from None
    # every task but fisher (which studies the noise alone) adds it to the field
    if cfg["task"]["name"] != "fisher" and noise.p != es.p:
        raise ConfigError(
            f"noise {noise.family!r} has {noise.p} component(s) but the {m['kind']} field has {es.p}"
        )

    d = cfg["design"]
    design = DesignMeasure(
        m["T"], kind=d["kind"], amplitude=d.get("amplitude", 0.0), axis=d.get("axis", 0)
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
