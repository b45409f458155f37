"""Experiment configuration: a YAML/JSON file validated against a strict
schema (unknown keys rejected) that declares each key once with its default,
in the branch of the model or mesh kind, design kind, noise family or task
that reads it, resolved with those defaults, and mapped onto the model /
noise / design / numerics objects.
"""

import contextlib
import copy
import json
import math
import os
import re

import numpy as np
import yaml

from .forward import (
    BumpReaction,
    HeatModel,
    NavierStokesModel,
    ReactionDiffusionModel,
    TimeMesh,
)
from .gaussian import check_functional
from .information import DesignMeasure
from .noise import make_noise
from .spectral import DIV_FREE, FULL, MEAN_ZERO, FourierCoeffs, build_eigensystem

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_PAIR = {"type": "array", "minItems": 2, "maxItems": 2}

_FIELD_SPEC = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "constant": {"type": "number"},
        "unit_index": {"type": "integer", "minimum": 0},
        "preset": {"type": "string", "enum": ["log-divergent"]},
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

# lan's direction h, which the task may rescale to a given LAN norm
_LAN_H = {**_FIELD_SPEC, "properties": {**_FIELD_SPEC["properties"], "scale_to_lan_norm": _POSITIVE}}


def _union(key, branches, default=None, required=()):
    """A tagged union (JSON Schema's oneOf, with OpenAPI's discriminator
    naming the tag ``key``): per tag in ``branches``, the object of the keys
    that branch reads. The ``default`` branch is taken when the tag is
    absent, and every other branch requires it; each branch requires those
    keys of ``required`` that it declares."""
    one_of = []
    for tag, properties in branches.items():
        tag_schema = {"type": "string", "enum": [tag], **({"default": tag} if tag == default else {})}
        needs = [k for k in required if k in properties]
        one_of.append({
            "type": "object",
            "additionalProperties": False,
            "required": needs if tag == default else [key, *needs],
            "properties": {key: tag_schema, **properties},
        })
    return {"type": "object", "discriminator": {"propertyName": key}, "oneOf": one_of}


# the keys every model kind reads
_MODEL = {
    "kmax": {"type": "integer", "minimum": 1},
    "T": _POSITIVE,
    "mesh": _union(
        "kind",
        {
            "uniform": {"m": {"type": "integer", "minimum": 4, "default": 256}},
            "graded": {
                "levels": {"type": "integer", "minimum": 1, "default": 14},
                "steps_per_block": {"type": "integer", "minimum": 4, "default": 16},
            },
        },
        default="uniform",
    ) | {"default": {}},
}

# heat and rd: a scalar field; its theta0 default depends on d (resolve_config)
_SCALAR = {
    "d": {"type": "integer", "enum": [1, 2], "default": 1},
    "subspace": {"type": "string", "enum": ["full", "mean-zero"], "default": "full"},
    "theta0": _FIELD_SPEC,
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
    "items": _POSITIVE,
    "default": [1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1],
}

_TASK_KEYS = {
    "fisher": dict(
        tolerance_rel={**_POSITIVE, "default": 1e-6},
    ),
    "qmd-check": dict(
        h=_FIELD_SPEC,
        s_values=_S_VALUES,
        slope_target={"type": "number", "default": 2.0},
        slope_tol={"type": "number", "default": 0.15},
        linear_rho_tol={"type": "number", "default": 1e-12},
    ),
    "norm-equiv": dict(
        kappa={"type": "number", "default": 1.0},
        trials={"type": "integer", "minimum": 10, "default": 200},
        n_basis_list={**_TRUNCATIONS, "default": [32, 64]},
        max_over_min={"type": "number", "default": 20.0},
        growth_tol={"type": "number", "default": 0.10},
    ),
    "info-matrix": dict(
        check_heat_closed_form={"type": "boolean", "default": False},
        tolerance={"type": "number", "default": 1e-10},
        dump={"type": "boolean", "default": False},
    ),
    "snorm": dict(
        psi=_FIELD_SPEC,
        k_grid=_TRUNCATIONS,
        # a squared dual norm; the check divides by it
        expected=_POSITIVE,
        tolerance_rel={"type": "number", "default": 1e-8},
    ),
    "lan": dict(
        h=_LAN_H,
        n={"type": "integer", "minimum": 10, "default": 5000},
        replicates={"type": "integer", "minimum": 10, "default": 400},
        under={"type": "string", "enum": ["null", "alternative"], "default": "null"},
        mean_sigmas={"type": "number", "default": 3.0},
        var_rel_tol={"type": "number", "default": 0.15},
        ks_pmin={"type": "number", "default": 0.01},
    ),
    "gaussian-support": dict(
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
    "pushforward-bound": dict(
        functional={"type": "string", "enum": ["trajectory", "ns-nonlinearity"], "default": "trajectory"},
        loss={"type": "string", "enum": ["l2", "sup"], "default": "l2"},
        power={"type": "number", "default": 2.0},
        t0={**_POSITIVE, "default": 0.1},
        t1={"type": "number", "default": 0.5},
        m={"type": "integer", "minimum": 2, "default": 2000},
        n_basis_list={**_TRUNCATIONS, "default": [32, 64]},
        stability_tol={"type": "number", "default": 0.05},
    ),
    "efficiency": dict(
        psi=_FIELD_SPEC,
        n={"type": "integer", "minimum": 10, "default": 2000},
        replicates={"type": "integer", "minimum": 10, "default": 2000},
        expect={"type": "string", "enum": ["attain", "divergent"]},
        ratio_range={**_PAIR, "items": {"type": "number"}, "default": [0.9, 1.15]},
        k_grid=_TRUNCATIONS,
    ),
    "ns-diagnostics": dict(
        divergence_tol={"type": "number", "default": 1e-12},
        decay_tol={"type": "number", "default": 1e-8},
        energy_tol={"type": "number", "default": 1e-6},
        slope_tol={"type": "number", "default": 0.2},
        s_values=_S_VALUES,
    ),
}
TASK_NAMES = tuple(_TASK_KEYS)

# Each key is declared once, with its default (if any) as "default", in the
# branch of each kind, family or task that reads it: one walk over this
# schema fills them in (resolve_config).
CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["model", "noise", "design", "numerics", "task", "seed"],
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "workers": {"type": "integer", "minimum": 1},
        "model": _union(
            "kind",
            {
                "heat": {**_MODEL, **_SCALAR},
                "rd": {
                    **_MODEL,
                    **_SCALAR,
                    "reaction": {
                        "type": "object",
                        "additionalProperties": False,
                        "properties": {
                            "amplitude": {"type": "number", "default": 2.0},
                            "radius": {**_POSITIVE, "default": 2.5},
                        },
                        "default": {},
                    },
                },
                "ns": {
                    **_MODEL,
                    "d": {"type": "integer", "enum": [1, 2], "default": 2},
                    "subspace": {"type": "string", "enum": ["div-free"], "default": "div-free"},
                    "viscosity": {**_POSITIVE, "default": 0.05},
                    "forcing": _FIELD_SPEC,
                    "theta0": {
                        **_FIELD_SPEC,
                        "default": {
                            "modes": [
                                {"k": [1, 0], "kind": "cos", "value": 0.4},
                                {"k": [0, 1], "kind": "sin", "value": 0.3},
                                {"k": [1, 1], "kind": "cos", "value": 0.2},
                            ],
                        },
                    },
                },
            },
            required=("kmax", "T"),
        ),
        "noise": _union(
            "family",
            {
                "gaussian": {"variance": {**_POSITIVE, "default": 1.0}},
                "gaussian2": {"cov": {**_PAIR, "items": {**_PAIR, "items": {"type": "number"}}}},
                "laplace": {"scale": {**_POSITIVE, "default": 1.0}},
                "logistic": {"scale": {**_POSITIVE, "default": 1.0}},
                "cosine_bump": {},
                "uniform": {},
            },
            required=("cov",),
        ),
        "design": _union(
            "kind",
            {
                "uniform": {},
                "cosine": {
                    "amplitude": {"type": "number", "default": 0.5},
                    "axis": {"type": "integer", "enum": [0, 1], "default": 0},
                },
            },
        ),
        "numerics": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_basis": {"type": "integer", "minimum": 1, "default": 9},
            },
        },
        "task": _union("name", _TASK_KEYS),
    },
}


class ConfigError(ValueError):
    pass


class _Loader(yaml.SafeLoader):
    """Reads plain 1e-5 and 1.0e200 as numbers, as JSON does (YAML 1.1: strings)."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def load_config(path):
    # bytes, so that PyYAML's reader decodes them: a byte that is not valid
    # in the file's encoding is a yaml.ReaderError, not a UnicodeDecodeError
    with open(path, "rb") as fh:
        try:
            raw = yaml.load(fh, Loader=_Loader)
        except RecursionError:  # PyYAML composes nested collections recursively
            raise ConfigError("config nests too deeply") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    return raw


# The Python types of the schema's JSON types. bool subclasses int but is
# neither a number nor an integer, and an integer key takes only an int: an
# integral float such as 4.0 would reach range() or an array shape.
_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "integer": int,
    "number": (int, float),
}


def _select(value, union):
    """The branch of the tagged union ``union`` that the tag of the mapping
    ``value`` selects (the default branch if the tag is absent), or None."""
    key = union["discriminator"]["propertyName"]
    for branch in union["oneOf"]:
        tag = branch["properties"][key]
        if value.get(key, tag.get("default")) == tag["enum"][0]:
            return branch
    return None


def check_schema(value, schema, path="", context=""):
    """Raise a ConfigError naming the key path of the first place where
    ``value`` breaks ``schema``, and the tag of the innermost branch it was
    checked against. Implements the keywords the config schemas use: type,
    enum, minimum, exclusiveMinimum, properties, required,
    additionalProperties (false only), items, minItems, maxItems, and
    oneOf with a discriminator (a tagged union, see _select); ``default``
    is read by resolve_config. Numbers must be finite: YAML's .nan and .inf
    would pass every bound."""

    def fail(message, where=path):
        raise ConfigError(f"invalid config: {where or 'config'}: {message}{context}")

    kind = schema["type"]
    if not isinstance(value, _TYPES[kind]) or (isinstance(value, bool) and kind != "boolean"):
        fail(f"{value!r} is not of type {kind}")
    if "oneOf" in schema:
        key = schema["discriminator"]["propertyName"]
        where = f"{path}.{key}" if path else key
        chosen = _select(value, schema)
        if chosen is None:
            tags = [b["properties"][key]["enum"][0] for b in schema["oneOf"]]
            fail(f"{value[key]!r} is not one of {tags}" if key in value else "required key is missing", where)
        tag = chosen["properties"][key]["enum"][0]
        return check_schema(value, chosen, path, f" for {where} {tag!r}")
    if isinstance(value, float) and not math.isfinite(value):
        fail(f"{value!r} is not a finite number")
    if "enum" in schema and value not in schema["enum"]:
        fail(f"{value!r} is not one of {schema['enum']}")
    if "minimum" in schema and value < schema["minimum"]:
        fail(f"{value!r} is below the minimum {schema['minimum']}")
    if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
        fail(f"{value!r} is not above {schema['exclusiveMinimum']}")
    if kind == "object":
        prefix = f"{path}." if path else ""
        for key in schema.get("required", ()):
            if key not in value:
                fail("required key is missing", prefix + key)
        properties = schema.get("properties", {})
        for key, child in value.items():
            if key in properties:
                check_schema(child, properties[key], f"{prefix}{key}", context)
            elif schema.get("additionalProperties") is False:
                fail("unknown key", f"{prefix}{key}")
    if kind == "array":
        if "minItems" in schema and len(value) < schema["minItems"]:
            fail(f"needs at least {schema['minItems']} items, has {len(value)}")
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            fail(f"takes at most {schema['maxItems']} items, has {len(value)}")
        if "items" in schema:
            for i, item in enumerate(value):
                check_schema(item, schema["items"], f"{path}[{i}]", context)


def validate_config(raw):
    check_schema(raw, CONFIG_SCHEMA)
    return raw


# the theta0 of heat and rd by d
_SCALAR_THETA0 = {
    1: {
        "constant": 0.5,
        "modes": [
            {"k": [1], "kind": "cos", "value": 0.3},
            {"k": [2], "kind": "sin", "value": 0.2},
        ],
    },
    2: {
        "constant": 0.5,
        "modes": [
            {"k": [1, 0], "kind": "cos", "value": 0.3},
            {"k": [0, 1], "kind": "sin", "value": 0.2},
        ],
    },
}


def _fill_defaults(node, schema):
    """Give each key of the mapping ``node`` that is absent and has a
    ``default`` in ``schema`` (in a union, the branch ``node`` selects) a
    copy of it; recurse into mapping values."""
    if "oneOf" in schema:
        schema = _select(node, schema)
    for key, sub in schema.get("properties", {}).items():
        if key not in node and "default" in sub:
            node[key] = copy.deepcopy(sub["default"])
        if isinstance(node.get(key), dict):
            _fill_defaults(node[key], sub)


def resolve_config(raw):
    """Fill defaults; returns a plain dict safe to embed in reports."""
    cfg = copy.deepcopy(raw)
    _fill_defaults(cfg, CONFIG_SCHEMA)
    # the defaults below depend on the machine or on another key;
    # replicate seeds are pre-split, so results never depend on the worker count
    cfg.setdefault("workers", os.cpu_count() or 1)
    m, task = cfg["model"], cfg["task"]
    if m["kind"] != "ns":
        m.setdefault("theta0", copy.deepcopy(_SCALAR_THETA0[m["d"]]))
    if task["name"] == "efficiency":  # the preset psi lies outside the dual space
        task.setdefault("expect", "divergent" if "preset" in task.get("psi", {}) else "attain")
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
    if task["name"] == "efficiency" and task["ratio_range"][0] > task["ratio_range"][1]:
        raise ConfigError(f"ratio_range {task['ratio_range']} is empty: its low end is above its high end")
    if task.get("m_mc") == 1:  # 0 turns the Monte Carlo off; one draw has no standard error
        raise ConfigError("m_mc 1 gives the support Monte Carlo no standard error: use 0 (off) or at least 2")
    if "mc_k" in task and task["mc_k"] > max(task["k_grid"]):  # M is assembled at max(k_grid)
        raise ConfigError(f"mc_k {task['mc_k']} exceeds max(k_grid) {max(task['k_grid'])}")
    # snorm and efficiency read their traces off the n_basis matrix
    n_basis = cfg["numerics"]["n_basis"]
    if task["name"] in ("snorm", "efficiency") and max(task.get("k_grid", [0])) > n_basis:
        raise ConfigError(f"k_grid goes beyond n_basis {n_basis}")


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
    if "preset" in spec:  # the schema's one preset, log-divergent
        if spec.keys() & {"constant", "unit_index", "modes"}:
            raise ConfigError(f"preset {spec['preset']!r} takes no constant, unit_index or modes")
        # in L^2 but outside the dual space: psi_j = (1+lam_j)^(-1/2) j^(-1/2)
        j = np.arange(1, es.size + 1, dtype=float)
        data = (1.0 + es.lam) ** (-0.5) * j ** (-0.5)
        return FourierCoeffs(es, data)
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

    The design and noise blocks hold exactly the keys their branch of the
    schema declares, which are their builders' keyword arguments. Rules that
    a builder owns (Navier-Stokes in d=2, even step counts, the
    pushforward window on the mesh and its functional on the model, the
    cosine design's amplitude, the noise parameters, the Navier-Stokes kmax
    cap) are checked by running it; its ValueError becomes a ConfigError.
    """
    m, task = cfg["model"], cfg["task"]
    subspace = {"full": FULL, "mean-zero": MEAN_ZERO, "div-free": DIV_FREE}[m["subspace"]]
    with _owner_check("eigensystem"):
        es = build_eigensystem(m["d"], m["kmax"], subspace)
    worst = max(_truncations(cfg), default=0)
    if worst > es.size:
        raise ConfigError(f"truncation {worst} exceeds the {es.size} modes of the eigensystem")
    with _owner_check("time mesh"):
        mesh = _build_mesh(m["T"], m["mesh"])
    if task["name"] == "pushforward-bound":
        with _owner_check(f"pushforward window [{task['t0']}, {task['t1']}]"):
            mesh.window_weights(*mesh.window_slice(task["t0"], task["t1"]))
    with _owner_check("design"):
        design = DesignMeasure(m["T"], **cfg["design"])

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
    if task["name"] == "pushforward-bound":
        with _owner_check("pushforward functional"):
            check_functional(model, task["functional"], task["loss"])
    theta0 = build_field(es, m["theta0"])

    with _owner_check(f"noise {cfg['noise']['family']!r}"):
        noise = make_noise(**cfg["noise"])
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
